//! One benchmark invocation: `--trace 0` measures the end-to-end metrics,
//! `--trace 1` the per-layer metrics.

use crate::checks::Checks;
use crate::drive::{run_traced, run_untraced, RunResult, Setup};
use crate::probe::{self, median, quantile, Machine};
use crate::spec::{self, run_seed, WorkloadDef, SETUP_REPS, THREADS};
use crate::trace::{self_times, Trace};
use crate::{host, Metrics};
use qmc_instrument::json::JsonWriter;
use qmc_instrument::{Kernel, Profile};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Command-line options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub def: &'static WorkloadDef,
    /// Seed of the Monte Carlo streams.
    pub seed: u64,
    /// Length of the measured closed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut def = None;
        let (mut seed, mut seconds, mut trace) = (spec::DEFAULT_SEED, 10.0, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
            match flag.as_str() {
                "--workload" => {
                    def = Some(spec::find(value).ok_or_else(|| {
                        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload '{value}' (valid: {})", names.join(", "))
                    })?);
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad(&"must be in (0, 600]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            def: def.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Everything one invocation produced.
pub struct Outcome {
    /// The metrics to print.
    pub metrics: Metrics,
    /// Output checks.
    pub checks: Checks,
    /// Configuration that ran, as a JSON object.
    pub config: String,
    /// Per-run figures, as a JSON array.
    pub runs: String,
    /// Recorded spans (traced runs), as a JSON array.
    pub spans: Option<String>,
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Outcome {
    let mut checks = Checks::default();
    let mut w = JsonWriter::new();
    w.begin_obj();
    host::write_config(&mut w, opts.def, opts.seed, opts.trace);
    let (metrics, runs, spans) = if opts.trace {
        traced(opts, &mut checks, &mut w)
    } else {
        let (m, runs) = untraced(opts, &mut checks);
        (m, runs, None)
    };
    w.end_obj();
    for m in &metrics.0 {
        let (name, value) = (&m.name, m.value);
        checks.check(value.is_finite(), || {
            format!("metric {name} = {value} is not finite")
        });
    }
    let mut r = JsonWriter::new();
    r.begin_arr();
    for (seed, run) in &runs {
        r.begin_obj();
        r.key("seed").u64_val(*seed);
        r.key("samples").u64_val(run.samples);
        r.key("seconds").f64_val(run.seconds);
        r.key("energy").f64_val(run.energy);
        r.key("acceptance").f64_val(run.acceptance);
        r.key("population_min").u64_val(run.population.0 as u64);
        r.key("population_max").u64_val(run.population.1 as u64);
        r.key("walker_hash")
            .str_val(&format!("{:016x}", run.walker_hash));
        r.end_obj();
    }
    r.end_arr();
    Outcome {
        metrics,
        checks,
        config: w.finish(),
        runs: r.finish(),
        spans,
    }
}

/// Closed loop of untraced runs until `seconds` have passed (at least
/// `min_runs`), each with its own seed.
fn closed_loop(
    opts: &Options,
    setup: &mut Setup,
    min_runs: usize,
    checks: &mut Checks,
    mut after: impl FnMut(&mut Setup, u64, &RunResult, &mut Checks),
) -> Vec<(u64, RunResult)> {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut runs = Vec::new();
    while runs.len() < min_runs || Instant::now() < deadline {
        let seed = run_seed(opts.seed, runs.len());
        let r = run_untraced(opts.def, setup, THREADS, seed, checks);
        after(setup, seed, &r, checks);
        runs.push((seed, r));
    }
    let energies: Vec<f64> = runs.iter().map(|(_, r)| r.energy).collect();
    checks.energy(opts.def, &energies);
    runs
}

/// Closed-loop throughput: post-warmup samples over driver wall time,
/// summed over the loop's runs.
fn throughput(runs: &[(u64, RunResult)]) -> f64 {
    let samples: u64 = runs.iter().map(|(_, r)| r.samples).sum();
    samples as f64 / runs.iter().map(|(_, r)| r.seconds).sum::<f64>()
}

/// End-to-end metrics: set-up `SETUP_REPS` times, then untraced runs.
fn untraced(opts: &Options, checks: &mut Checks) -> (Metrics, Vec<(u64, RunResult)>) {
    let (min_reps, max_reps, budget) = SETUP_REPS;
    let mut setup_s = Vec::with_capacity(max_reps);
    let mut setup = None;
    while setup_s.len() < min_reps
        || (setup_s.len() < max_reps && setup_s.iter().sum::<f64>() < budget)
    {
        // Drop the previous set-up first so the peak resident set is that
        // of one set-up.
        drop(setup.take());
        let s = Setup::new(opts.def, THREADS);
        setup_s.push(s.seconds());
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");
    let runs = closed_loop(opts, &mut setup, 2, checks, |_, _, _, _| {});
    let mut m = Metrics::default();
    m.push("throughput", throughput(&runs), "samples/s");
    m.push("setup_s", median(&mut setup_s), "s");
    let rss = host::peak_rss_bytes();
    checks.check(rss.is_some(), || "VmHWM unavailable".into());
    m.push("peak_rss_mib", rss.unwrap_or(0) as f64 / MIB, "MiB");
    // Last, so it covers every check above; the caller adds none that can
    // fail on a correct run.
    m.push("pass_rate", 1.0 - checks.fail_rate(), "ratio");
    (m, runs)
}

/// The in-program kernels read back from the traced profile, with the
/// crate that times them.
const KERNELS: [(&str, Kernel); 11] = [
    ("particles", Kernel::DistTableAA),
    ("particles", Kernel::DistTableAB),
    ("wavefunction", Kernel::J1),
    ("wavefunction", Kernel::J2),
    ("wavefunction", Kernel::SpoVGL),
    ("bspline", Kernel::BsplineV),
    ("bspline", Kernel::BsplineVGH),
    ("linalg", Kernel::DetRatio),
    ("linalg", Kernel::DetUpdate),
    ("hamiltonian", Kernel::Nlpp),
    ("hamiltonian", Kernel::Coulomb),
];

/// Per-layer metrics: pairs of (untraced run, traced replay) with the same
/// seed until `seconds` have passed, one 1-thread untraced run, then the
/// kernel, timer and machine probes.
fn traced(
    opts: &Options,
    checks: &mut Checks,
    config: &mut JsonWriter,
) -> (Metrics, Vec<(u64, RunResult)>, Option<String>) {
    let def = opts.def;
    let mut setup = Setup::new(def, THREADS);
    let trace = Trace::default();
    let mut replays: Vec<(RunResult, Profile, f64)> = Vec::new();
    let mut walker_bytes = 0;
    let runs = closed_loop(
        opts,
        &mut setup,
        1,
        checks,
        |setup, seed, untraced, checks| {
            let t = run_traced(def, setup, seed, &trace, checks);
            checks.check(t.run.walker_hash == untraced.walker_hash, || {
                format!(
                    "seed {seed}: traced digest {:016x} != untraced walker_hash {:016x}",
                    t.run.walker_hash, untraced.walker_hash
                )
            });
            walker_bytes = t.walker_bytes;
            replays.push((t.run, t.profile, untraced.seconds));
        },
    );
    let one = run_untraced(def, &mut setup, 1, runs[0].0, checks);
    checks.check(one.walker_hash == runs[0].1.walker_hash, || {
        "1-thread walker_hash differs from the 2-thread run".into()
    });

    let mut m = Metrics::default();
    m.push("workloads.geometry_s", setup.geometry_s, "s");
    m.push("workloads.table_s", setup.table_s, "s");
    m.push("workloads.engines_s", setup.engines_s, "s");
    let n = replays.len() as f64;
    let traced_s: f64 = replays.iter().map(|r| r.0.seconds).sum();
    let untraced_s: f64 = replays.iter().map(|r| r.2).sum();
    let samples: u64 = replays.iter().map(|r| r.0.samples).sum();
    let (acc, att) = replays
        .iter()
        .fold((0, 0), |(a, b), r| (a + r.0.accepted, b + r.0.attempted));

    // Span accounting in lane-seconds: threads x loop wall = busy phase
    // self times + unattributed glue + wait.
    let spans = trace.spans();
    let selfs = self_times(&spans);
    let threads = THREADS as f64;
    let mut by_name = std::collections::BTreeMap::<&str, f64>::new();
    let (mut wall, mut fan, mut worker, mut glue) = (0.0, 0.0, 0.0, 0.0);
    let mut gen_ms = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let (dur, own) = (s.dur() as f64 * 1e-9, own as f64 * 1e-9);
        match s.name {
            "loop" => {
                wall += dur;
                glue += own;
            }
            "generation" => {
                gen_ms.push(dur * 1e3);
                glue += own;
            }
            "init_fanout" | "fanout" => fan += dur,
            "worker" => {
                worker += dur;
                glue += own;
            }
            "init" => {
                worker += dur;
                *by_name.entry("init").or_default() += own;
            }
            name => *by_name.entry(name).or_default() += own,
        }
    }
    let wait = threads * fan - worker + (threads - 1.0) * (wall - fan);
    let busy: f64 = by_name.values().sum();
    let capacity = threads * traced_s;
    let total = busy + glue + wait;
    checks.check((total - capacity).abs() <= 0.01 * capacity, || {
        format!("span rows sum to {total} lane-s, traced loop is {capacity} lane-s")
    });
    let phase = |names: &[&str]| {
        names
            .iter()
            .map(|k| by_name.get(k).copied().unwrap_or(0.0))
            .sum::<f64>()
            / n
    };
    m.push("drivers.init_s", phase(&["init"]), "s");
    m.push("drivers.load_s", phase(&["load"]), "s");
    m.push(
        "drivers.refresh_s",
        phase(&["refresh", "crowd.refresh"]),
        "s",
    );
    m.push("drivers.sweep_s", phase(&["sweep", "crowd.sweep"]), "s");
    m.push("drivers.measure_s", phase(&["measure"]), "s");
    m.push("drivers.store_s", phase(&["store"]), "s");
    m.push("drivers.reduce_branch_s", phase(&["reduce_branch"]), "s");
    m.push("drivers.wait_s", wait / n, "s");
    m.push("drivers.gen_ms_p50", quantile(&mut gen_ms, 0.5), "ms");
    m.push("drivers.gen_ms_p90", quantile(&mut gen_ms, 0.9), "ms");
    m.push(
        "drivers.parallel_efficiency",
        throughput(&runs) / (threads * one.throughput()),
        "ratio",
    );
    m.push(
        "drivers.acceptance",
        acc as f64 / att.max(1) as f64,
        "ratio",
    );

    // The crates' own kernel profile: seconds per run and GFLOP/s over all
    // replays, calls of the first replay (they repeat exactly per seed).
    let mut profile = Profile::default();
    for r in &replays {
        profile.merge(&r.1);
    }
    let first = &replays[0].1;
    for (krate, k) in KERNELS {
        let s = profile.get(k);
        let stem = format!("{krate}.{}", k.label());
        m.push(format!("{stem}_s"), s.seconds() / n, "s");
        m.push(format!("{stem}_calls"), first.get(k).calls as f64, "count");
        // The crates record no model flops for NLPP and Coulomb.
        if !matches!(k, Kernel::Nlpp | Kernel::Coulomb) {
            m.push(
                format!("{stem}_gflops"),
                s.gflops().unwrap_or(0.0),
                "GFLOP/s",
            );
        }
    }

    let (kernels, invertible) = probe::kernels(def, &setup);
    checks.check(invertible, || "spin-up Slater matrix is singular".into());
    let scope_ns = probe::scope_ns();
    let scopes: u64 = qmc_instrument::ALL_KERNELS
        .iter()
        .map(|&k| profile.get(k).calls)
        .sum();
    m.push(
        "instrument.scopes_per_sample",
        scopes as f64 / samples.max(1) as f64,
        "count",
    );
    m.push("instrument.scope_ns", scope_ns, "ns");
    m.push(
        "instrument.overhead_share",
        scopes as f64 * scope_ns * 1e-9 / capacity,
        "ratio",
    );
    m.push(
        "instrument.coverage",
        profile.total_seconds() / capacity,
        "ratio",
    );
    m.push(
        "memory.table_mib",
        setup.workload.table_bytes(true) as f64 / MIB,
        "MiB",
    );
    m.push(
        "memory.engines_mib",
        setup.engines.bytes() as f64 / MIB,
        "MiB",
    );
    m.push(
        "memory.walkers_mib",
        (def.walkers * walker_bytes) as f64 / MIB,
        "MiB",
    );
    m.push("trace.overhead", traced_s / untraced_s, "ratio");
    m.push("trace.unattributed_share", glue / capacity, "ratio");

    // The triad arrays are four times the LLC: free the workload first.
    drop(setup);
    let machine = Machine::probe();
    for k in &kernels {
        m.push(format!("{}_ns", k.name), k.ns, "ns");
        m.push(
            format!("{}_roofline", k.name),
            machine.roofline(k.flops, k.bytes, k.ns),
            "ratio",
        );
    }
    config.key("machine").begin_obj();
    config.key("fma_sp_gflops").f64_val(machine.fma_sp_gflops);
    config.key("triad_gbs").f64_val(machine.triad_gbs);
    config
        .key("triad_array_bytes")
        .u64_val(machine.triad_array_bytes);
    config.key("llc_bytes").u64_val(machine.llc_bytes);
    config
        .key("kernel_bytes")
        .str_val("computed from model counts, not measured");
    config.end_obj();

    let mut w = JsonWriter::new();
    trace.to_json(&mut w);
    (m, runs, Some(w.finish()))
}
