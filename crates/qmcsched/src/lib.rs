//! # qmcsched — deterministic schedule checker for the QMC drivers
//!
//! The lock-step crowd drivers and the per-walker thread crews claim a
//! strong property: results are **bitwise independent of the thread
//! schedule**, because every walker carries its own RNG stream and every
//! cross-walker reduction happens sequentially in walker order after the
//! parallel section. PR 1's tests exercised that claim only under the
//! schedules the OS happened to produce. This crate makes the claim a
//! checked artifact, loom-style but sized to our in-tree shims: the rayon
//! shim's work distribution is replaced by an explicitly enumerated /
//! seeded set of thread interleavings (`rayon::schedule`), the same run is
//! repeated under each, and every per-walker result must come out
//! identical to the bit.
//!
//! Two layers consume it:
//!
//! * `cargo test -p qmcsched` — the parity tests CI gates on.
//! * the `qmcsched` binary — emits a `qmcsched/1` JSON report (same
//!   hand-rolled writer as the run report) for the observability pipeline.

#![forbid(unsafe_code)]

use qmc_containers::Real;
use qmc_crowd::CrowdScheduler;
use qmc_drivers::{
    initial_population, run_dmc, run_multi_rank, run_vmc, Batching, DmcParams, MultiRankParams,
    QmcEngine, RunControl, VmcParams, Walker,
};
use qmc_instrument::json::JsonWriter;
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};
use rayon::schedule::{with_schedule, Order, Schedule};

/// The explored schedule set: one free-running control plus serialized and
/// staggered permutations of the task order. Ten schedules, all with
/// distinct labels; the serialized orders are pairwise-distinct
/// permutations for any task count ≥ 4 (asserted in the tests).
pub fn schedules() -> Vec<Schedule> {
    vec![
        Schedule::Concurrent,
        Schedule::Serial(Order::Forward),
        Schedule::Serial(Order::Reverse),
        Schedule::Serial(Order::Rotate(1)),
        Schedule::Serial(Order::Rotate(3)),
        Schedule::Serial(Order::EvenOdd),
        Schedule::Serial(Order::Shuffle(0xA5A5)),
        Schedule::Serial(Order::Shuffle(0x0FF1CE)),
        Schedule::Staggered(Order::Reverse),
        Schedule::Staggered(Order::Shuffle(0xBEEF)),
    ]
}

// The FNV-1a digest machinery started here and moved into
// `qmc_drivers::fingerprint` when checkpoint/restart needed it too; the
// schedule harness keeps its public names via re-export. The full-state
// variants (`walker_digest_full`, `population_digest`) additionally fold
// the raw RNG state words — serialization no longer perturbs the walker,
// so digesting the stream is free.
pub use qmc_drivers::fingerprint::{population_digest, walker_digest, walker_digest_full, Fnv};

/// Outcome of one driver run under one schedule: per-walker digests plus
/// the driver's scalar outputs (all compared bitwise).
#[derive(Clone, Debug, PartialEq)]
pub struct RunFingerprint {
    /// Schedule label the run executed under.
    pub schedule: String,
    /// One digest per surviving walker, in walker order.
    pub walkers: Vec<u64>,
    /// Driver scalar outputs folded into one digest (energy mean bits,
    /// acceptance bits, sample count).
    pub scalars: u64,
}

/// Parity verdict for one driver across the whole schedule set.
#[derive(Clone, Debug)]
pub struct DriverParity {
    /// Driver label (`vmc-parallel`, `dmc-parallel`, `dmc-crowd`).
    pub driver: String,
    /// One fingerprint per explored schedule.
    pub runs: Vec<RunFingerprint>,
}

impl DriverParity {
    /// True when every run produced bitwise-identical per-walker digests
    /// and scalar outputs.
    pub fn parity(&self) -> bool {
        self.runs
            .windows(2)
            .all(|w| w[0].walkers == w[1].walkers && w[0].scalars == w[1].scalars)
    }
}

/// Harness problem size: small enough for CI, uneven enough to exercise
/// ragged chunking (walkers not divisible by threads or crowd size).
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Worker threads (tasks per scope — the unit the schedules permute).
    pub threads: usize,
    /// Walker population.
    pub walkers: usize,
    /// DMC generations / VMC blocks.
    pub steps: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            walkers: 7,
            steps: 4,
            seed: 99,
        }
    }
}

fn workload(seed: u64) -> Workload {
    Workload::new(Benchmark::Graphite, Size::Scaled, seed)
}

/// Runs the parallel VMC driver once under each schedule.
pub fn explore_vmc(cfg: &HarnessConfig) -> DriverParity {
    let w = workload(cfg.seed);
    let params = VmcParams {
        blocks: cfg.steps,
        steps_per_block: 3,
        tau: 0.3,
        measure_every: 1,
    };
    let runs = schedules()
        .into_iter()
        .map(|sched| {
            with_schedule(sched, || {
                let mut engines: Vec<QmcEngine<f32>> = (0..cfg.threads)
                    .map(|_| w.build_engine_f32(CodeVersion::Current))
                    .collect();
                let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
                let (res, _) = run_vmc(
                    &mut engines,
                    &mut walkers,
                    &params,
                    None,
                    &mut RunControl::none(),
                );
                vmc_fingerprint(sched.label(), &walkers, &res)
            })
        })
        .collect();
    DriverParity {
        driver: "vmc-parallel".into(),
        runs,
    }
}

fn dmc_params(cfg: &HarnessConfig, batching: Batching) -> DmcParams {
    DmcParams {
        steps: cfg.steps,
        warmup: 1,
        tau: 0.003,
        target_population: cfg.walkers,
        recompute_every: 2,
        seed: cfg.seed ^ 0xD00D,
        batching,
    }
}

fn dmc_fingerprint<T: Real>(
    label: String,
    walkers: &[Walker<T>],
    res: &qmc_drivers::DmcResult,
) -> RunFingerprint {
    let mut scalars = Fnv::new();
    scalars.f64(res.energy.mean());
    scalars.f64(res.acceptance);
    scalars.f64(res.e_trial);
    scalars.u64(res.samples);
    for &p in &res.population {
        scalars.u64(p as u64);
    }
    RunFingerprint {
        schedule: label,
        walkers: walkers.iter().map(walker_digest).collect(),
        scalars: scalars.value(),
    }
}

fn vmc_fingerprint<T: Real>(
    label: String,
    walkers: &[Walker<T>],
    res: &qmc_drivers::VmcResult,
) -> RunFingerprint {
    let mut scalars = Fnv::new();
    scalars.f64(res.energy.mean());
    scalars.f64(res.acceptance);
    scalars.u64(res.samples);
    RunFingerprint {
        schedule: label,
        walkers: walkers.iter().map(walker_digest).collect(),
        scalars: scalars.value(),
    }
}

/// Runs the per-walker parallel DMC driver once under each schedule.
pub fn explore_dmc_parallel(cfg: &HarnessConfig) -> DriverParity {
    let w = workload(cfg.seed);
    let params = dmc_params(cfg, Batching::PerWalker);
    let runs = schedules()
        .into_iter()
        .map(|sched| {
            with_schedule(sched, || {
                let mut engines: Vec<QmcEngine<f32>> = (0..cfg.threads)
                    .map(|_| w.build_engine_f32(CodeVersion::Current))
                    .collect();
                let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
                let (res, _profile) = run_dmc(
                    &mut engines,
                    &mut walkers,
                    &params,
                    None,
                    &mut RunControl::none(),
                );
                dmc_fingerprint(sched.label(), &walkers, &res)
            })
        })
        .collect();
    DriverParity {
        driver: "dmc-parallel".into(),
        runs,
    }
}

/// Runs the lock-step crowd DMC driver once under each schedule.
pub fn explore_dmc_crowd(cfg: &HarnessConfig) -> DriverParity {
    let w = workload(cfg.seed);
    let params = dmc_params(cfg, Batching::Crowd(2));
    let runs = schedules()
        .into_iter()
        .map(|sched| {
            with_schedule(sched, || {
                let scheduler = CrowdScheduler::new(cfg.threads, 2);
                let mut crowds =
                    scheduler.build_crowds(|| w.build_engine_f32(CodeVersion::Current));
                let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
                let (res, _profile) = run_dmc(
                    &mut crowds,
                    &mut walkers,
                    &params,
                    None,
                    &mut RunControl::none(),
                );
                dmc_fingerprint(sched.label(), &walkers, &res)
            })
        })
        .collect();
    DriverParity {
        driver: "dmc-crowd".into(),
        runs,
    }
}

/// Runs the parallel VMC driver once per kernel backend and compares the
/// trajectories per walker. The kernel library's verification contract
/// (`qmc-kernels`) documents `reference` and `soa` as bitwise-identical
/// on every kernel family, so the whole VMC trajectory must digest
/// equal to the bit — this case turns that documented contract into a
/// gated artifact. `simd` is deliberately excluded: its J2 kernel only
/// promises a tolerance, so trajectories may legitimately diverge.
pub fn explore_backends(cfg: &HarnessConfig) -> DriverParity {
    let w = workload(cfg.seed);
    let params = VmcParams {
        blocks: cfg.steps,
        steps_per_block: 3,
        tau: 0.3,
        measure_every: 1,
    };
    let prev = qmc_kernels::Backend::current();
    let runs = [qmc_kernels::Backend::Reference, qmc_kernels::Backend::Soa]
        .into_iter()
        .map(|backend| {
            // Engines capture the backend at construction, so it must be
            // pinned before the build.
            qmc_kernels::set_backend(backend);
            let mut engines: Vec<QmcEngine<f32>> = (0..cfg.threads)
                .map(|_| w.build_engine_f32(CodeVersion::Current))
                .collect();
            let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
            let (res, _) = run_vmc(
                &mut engines,
                &mut walkers,
                &params,
                None,
                &mut RunControl::none(),
            );
            let mut scalars = Fnv::new();
            scalars.f64(res.energy.mean());
            scalars.f64(res.acceptance);
            scalars.u64(res.samples);
            RunFingerprint {
                schedule: format!("backend:{}", backend.label()),
                walkers: walkers.iter().map(walker_digest).collect(),
                scalars: scalars.value(),
            }
        })
        .collect();
    qmc_kernels::set_backend(prev);
    DriverParity {
        driver: "vmc-backends".into(),
        runs,
    }
}

/// Outcome of the f32-rung tolerance case: the `simd` backend's VMC
/// energy versus the `reference` backend's, with the window the gate
/// allows. `simd` is the one backend with a documented *tolerance* (not
/// bitwise) contract — its lane-split J2 reductions may round differently
/// — so a whole trajectory may legitimately diverge once an accept
/// decision flips. The runs stay statistically equivalent, so the gate
/// compares energies against the combined statistical error rather than
/// bits.
#[derive(Clone, Debug)]
pub struct SimdToleranceCase {
    /// Energy mean of the `reference`-backend run.
    pub reference_energy: f64,
    /// Energy mean of the `simd`-backend run.
    pub simd_energy: f64,
    /// Allowed |difference|: six combined standard errors plus a relative
    /// floor of 1e-6 (the bitwise-identical-trajectory fast path).
    pub tolerance: f64,
}

impl SimdToleranceCase {
    /// True when the simd energy sits inside the documented window.
    pub fn within_tolerance(&self) -> bool {
        (self.reference_energy - self.simd_energy).abs() <= self.tolerance
    }
}

/// The f32 rung of the backend parity ladder: runs the parallel VMC
/// driver (f32 engines) under the `reference` and `simd` kernel backends
/// and compares energies within [`SimdToleranceCase::tolerance`] — the
/// tolerance-contract companion to [`explore_backends`]' bitwise gate.
pub fn explore_simd_tolerance(cfg: &HarnessConfig) -> SimdToleranceCase {
    let w = workload(cfg.seed);
    let params = VmcParams {
        blocks: cfg.steps,
        steps_per_block: 3,
        tau: 0.3,
        measure_every: 1,
    };
    let prev = qmc_kernels::Backend::current();
    let run = |backend: qmc_kernels::Backend| {
        qmc_kernels::set_backend(backend);
        let mut engines: Vec<QmcEngine<f32>> = (0..cfg.threads)
            .map(|_| w.build_engine_f32(CodeVersion::Current))
            .collect();
        let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
        let (res, _) = run_vmc(
            &mut engines,
            &mut walkers,
            &params,
            None,
            &mut RunControl::none(),
        );
        (res.energy.mean(), res.energy.variance(), res.samples)
    };
    let (e_ref, var_ref, n_ref) = run(qmc_kernels::Backend::Reference);
    let (e_simd, var_simd, n_simd) = run(qmc_kernels::Backend::Simd);
    qmc_kernels::set_backend(prev);
    let sem2 = var_ref / n_ref.max(1) as f64 + var_simd / n_simd.max(1) as f64;
    SimdToleranceCase {
        reference_energy: e_ref,
        simd_energy: e_simd,
        tolerance: 6.0 * sem2.sqrt() + 1e-6 * e_ref.abs(),
    }
}

/// Thread-count sweep: runs the VMC and DMC drivers at 1, 2 and 4 worker
/// threads (and, for VMC, additionally under crowd batching) and demands
/// bitwise parity of every per-walker digest and every scalar output.
///
/// The schedule sweeps ([`explore_vmc`] &c.) vary the interleaving at a
/// *fixed* thread count; this case varies the thread count itself, which
/// also moves every chunk boundary. It holds because per-walker
/// trajectories are walker-owned (own RNG stream, state loaded/stored per
/// walker) and every cross-walker reduction either drains sample buffers
/// sequentially in walker order or goes through
/// `qmc_drivers::reduce::det_sum*`, whose fixed-shape pairwise tree
/// depends only on the term count — never on thread count or chunking.
pub fn explore_thread_sweep(cfg: &HarnessConfig) -> Vec<DriverParity> {
    let w = workload(cfg.seed);
    let threads = [1usize, 2, 4];

    // VMC, per-walker batching at each thread count, plus one crowd of
    // two: all are documented bitwise identical to a crew of one engine,
    // so one parity set covers both batchings.
    let vmc_params = VmcParams {
        blocks: cfg.steps,
        steps_per_block: 3,
        tau: 0.3,
        measure_every: 1,
    };
    let mut vmc_runs: Vec<RunFingerprint> = threads
        .iter()
        .map(|&t| {
            let mut engines: Vec<QmcEngine<f32>> = (0..t)
                .map(|_| w.build_engine_f32(CodeVersion::Current))
                .collect();
            let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
            let (res, _) = run_vmc(
                &mut engines,
                &mut walkers,
                &vmc_params,
                None,
                &mut RunControl::none(),
            );
            vmc_fingerprint(format!("threads:{t}"), &walkers, &res)
        })
        .collect();
    {
        let mut crowds =
            CrowdScheduler::new(1, 2).build_crowds(|| w.build_engine_f32(CodeVersion::Current));
        let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
        let (res, _) = run_vmc(
            &mut crowds,
            &mut walkers,
            &vmc_params,
            None,
            &mut RunControl::none(),
        );
        vmc_runs.push(vmc_fingerprint("crowd:2".into(), &walkers, &res));
    }

    // DMC, per-walker batching: generation merges flow through
    // `det_sum_by` over walker-indexed terms, so moving the chunk
    // boundaries must not move a single bit.
    let dmc_pw = dmc_params(cfg, Batching::PerWalker);
    let dmc_runs: Vec<RunFingerprint> = threads
        .iter()
        .map(|&t| {
            let mut engines: Vec<QmcEngine<f32>> = (0..t)
                .map(|_| w.build_engine_f32(CodeVersion::Current))
                .collect();
            let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
            let (res, _profile) = run_dmc(
                &mut engines,
                &mut walkers,
                &dmc_pw,
                None,
                &mut RunControl::none(),
            );
            dmc_fingerprint(format!("threads:{t}"), &walkers, &res)
        })
        .collect();

    // DMC, crowd batching: the thread count sets how many crowds the
    // scheduler fans the generation over.
    let dmc_cw = dmc_params(cfg, Batching::Crowd(2));
    let crowd_runs: Vec<RunFingerprint> = threads
        .iter()
        .map(|&t| {
            let scheduler = CrowdScheduler::new(t, 2);
            let mut crowds = scheduler.build_crowds(|| w.build_engine_f32(CodeVersion::Current));
            let mut walkers = initial_population(w.initial_positions(), cfg.walkers, cfg.seed);
            let (res, _profile) = run_dmc(
                &mut crowds,
                &mut walkers,
                &dmc_cw,
                None,
                &mut RunControl::none(),
            );
            dmc_fingerprint(format!("threads:{t}"), &walkers, &res)
        })
        .collect();

    vec![
        DriverParity {
            driver: "vmc-thread-sweep".into(),
            runs: vmc_runs,
        },
        DriverParity {
            driver: "dmc-thread-sweep".into(),
            runs: dmc_runs,
        },
        DriverParity {
            driver: "dmc-crowd-thread-sweep".into(),
            runs: crowd_runs,
        },
    ]
}

/// Repeats the simulated multi-rank DMC run and demands bitwise-identical
/// outputs. OS thread scheduling genuinely varies between repeats, so this
/// is a live nondeterminism probe of the allreduce: it holds because each
/// rank writes its `(Σ wE, Σ w)` partial into a rank-indexed slot and rank
/// 0 reduces the slots with `det_sum_by` — barrier arrival order cannot
/// reach the bits.
///
/// Two ranks exactly: with two ranks at most one rank can hold a surplus
/// in any generation (both above the average population is impossible),
/// so the serialized-walker exchange pool has a single writer between
/// barriers and walker migration is deterministic too. Wider rank counts
/// would race concurrent surplus pushes for pool order — a real (benign)
/// nondeterminism in walker *placement* this case deliberately leaves out
/// of scope.
pub fn explore_multi_rank(cfg: &HarnessConfig) -> DriverParity {
    let w = workload(cfg.seed);
    let params = MultiRankParams {
        ranks: 2,
        total_population: cfg.walkers.max(4),
        steps: cfg.steps,
        warmup: 1,
        tau: 0.003,
        seed: cfg.seed ^ 0x5EED,
    };
    let runs = (0..3)
        .map(|rep| {
            let res = run_multi_rank(
                |_rank| w.build_engine_f32(CodeVersion::Current),
                w.initial_positions(),
                &params,
            );
            let mut scalars = Fnv::new();
            scalars.f64(res.energy);
            scalars.u64(res.samples);
            scalars.u64(res.exchanged);
            scalars.u64(res.bytes_exchanged);
            RunFingerprint {
                schedule: format!("repeat:{rep}"),
                walkers: Vec::new(),
                scalars: scalars.value(),
            }
        })
        .collect();
    DriverParity {
        driver: "multi-rank".into(),
        runs,
    }
}

/// Runs the tiled B-spline `evaluate_v_parallel` (a `par_chunks_mut` +
/// `par_iter` zip over output tiles) under every schedule and against the
/// serial `evaluate_v`, comparing the output coefficients to the bit.
/// Tiles write disjoint output chunks, so any interleaving — and the
/// serial path — must produce identical bits.
pub fn explore_tiled_spline(cfg: &HarnessConfig) -> DriverParity {
    // Ragged on purpose: 19 splines over tile width 4 leaves a short
    // final tile, so chunk boundaries are exercised, not just round ones.
    let spline = qmc_bspline::TiledMultiBspline3D::<f32>::random([5, 5, 5], 19, 4, cfg.seed);
    let u = [0.31f32, 0.57, 0.83];
    let digest = |psi: &[f32]| {
        let mut d = Fnv::new();
        for &x in psi {
            d.u64(u64::from(x.to_bits()));
        }
        d.value()
    };
    let mut runs = vec![{
        let mut psi = vec![0.0f32; spline.num_splines()];
        spline.evaluate_v(u, &mut psi);
        RunFingerprint {
            schedule: "serial".into(),
            walkers: Vec::new(),
            scalars: digest(&psi),
        }
    }];
    runs.extend(schedules().into_iter().map(|sched| {
        with_schedule(sched, || {
            let mut psi = vec![0.0f32; spline.num_splines()];
            spline.evaluate_v_parallel(u, &mut psi);
            RunFingerprint {
                schedule: sched.label(),
                walkers: Vec::new(),
                scalars: digest(&psi),
            }
        })
    }));
    DriverParity {
        driver: "tiled-spline".into(),
        runs,
    }
}

/// Runs every driver exploration at the default harness size.
pub fn explore_all(cfg: &HarnessConfig) -> Vec<DriverParity> {
    let mut out = vec![
        explore_vmc(cfg),
        explore_dmc_parallel(cfg),
        explore_dmc_crowd(cfg),
        explore_backends(cfg),
    ];
    out.extend(explore_thread_sweep(cfg));
    out.push(explore_multi_rank(cfg));
    out.push(explore_tiled_spline(cfg));
    out
}

/// Renders the exploration outcome as a `qmcsched/1` JSON report (the same
/// hand-rolled writer the run report uses).
pub fn render_json(results: &[DriverParity]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("schema").str_val("qmcsched/1");
    w.key("parity")
        .bool_val(results.iter().all(DriverParity::parity));
    w.key("drivers").begin_arr();
    for r in results {
        w.begin_obj();
        w.key("driver").str_val(&r.driver);
        w.key("schedules_explored").u64_val(r.runs.len() as u64);
        w.key("parity").bool_val(r.parity());
        w.key("runs").begin_arr();
        for run in &r.runs {
            w.begin_obj();
            w.key("schedule").str_val(&run.schedule);
            w.key("walkers").u64_val(run.walkers.len() as u64);
            let mut digest = Fnv::new();
            for &d in &run.walkers {
                digest.u64(d);
            }
            digest.u64(run.scalars);
            w.key("fingerprint")
                .str_val(&format!("{:016x}", digest.value()));
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.f64(1.0);
        a.f64(2.0);
        let mut b = Fnv::new();
        b.f64(2.0);
        b.f64(1.0);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn schedule_labels_are_distinct() {
        let s = schedules();
        assert!(s.len() >= 8, "need at least 8 explored schedules");
        let mut labels: Vec<String> = s.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), s.len(), "duplicate schedule labels");
    }

    #[test]
    fn reference_and_soa_backends_agree_bitwise() {
        // The kernel library documents reference <-> soa as bitwise on
        // every kernel family; a whole VMC trajectory must therefore
        // digest equal per walker.
        let p = explore_backends(&HarnessConfig::default());
        assert_eq!(p.runs.len(), 2);
        assert!(
            p.parity(),
            "reference vs soa backend trajectories diverged: {:?}",
            p.runs
                .iter()
                .map(|r| (&r.schedule, r.scalars))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn simd_backend_energy_within_documented_tolerance() {
        // The simd backend's J2 reductions carry a tolerance contract, not
        // a bitwise one, so the f32-rung gate is statistical: the VMC
        // energy must land within six combined standard errors of the
        // reference-backend run (and in the common case where no accept
        // decision flips, the trajectories are nearly identical and the
        // difference is ~0).
        let case = explore_simd_tolerance(&HarnessConfig::default());
        assert!(
            case.reference_energy.is_finite() && case.simd_energy.is_finite(),
            "non-finite energies: {case:?}"
        );
        assert!(
            case.within_tolerance(),
            "simd backend energy outside the documented f32-rung window: {case:?}"
        );
    }

    #[test]
    fn thread_sweep_is_bitwise_across_1_2_4_threads() {
        // The acceptance claim of the deterministic reduction work: VMC
        // and DMC trajectories, per-walker and crowd batching, must not
        // move a bit when the worker-thread count (and with it every
        // chunk boundary) changes.
        for parity in explore_thread_sweep(&HarnessConfig::default()) {
            assert!(parity.runs.len() >= 3, "{}: too few runs", parity.driver);
            assert!(
                parity.parity(),
                "{} diverged across thread counts: {:?}",
                parity.driver,
                parity
                    .runs
                    .iter()
                    .map(|r| (&r.schedule, r.scalars))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_rank_repeats_are_bitwise() {
        let p = explore_multi_rank(&HarnessConfig::default());
        assert_eq!(p.runs.len(), 3);
        assert!(
            p.parity(),
            "multi-rank allreduce leaked schedule into the bits: {:?}",
            p.runs
                .iter()
                .map(|r| (&r.schedule, r.scalars))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tiled_spline_parallel_eval_matches_serial_under_every_schedule() {
        let p = explore_tiled_spline(&HarnessConfig::default());
        assert!(p.runs.len() > schedules().len());
        assert!(
            p.parity(),
            "tiled spline evaluation depends on the schedule: {:?}",
            p.runs
                .iter()
                .map(|r| (&r.schedule, r.scalars))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn thread_sweep_would_catch_an_injected_bare_merge() {
        // Negative control for the sweep: re-create the exact defect the
        // `parallel-reduction-order` rule and `det_sum` exist to prevent —
        // per-chunk partial folds merged in chunk-completion order — and
        // show the 1/2/4-thread fingerprints diverge, while the
        // deterministic tree over the same terms does not. If this test
        // ever starts failing on the `injected` side, the harness has
        // lost its teeth.
        let terms: Vec<f64> = (0..1000)
            .map(|i| {
                let s = if i % 3 == 0 { -1.0 } else { 1.0 };
                s * (1.0 + i as f64 * 1e-3) * 10f64.powi((i % 7) - 3)
            })
            .collect();
        let injected: Vec<u64> = [1usize, 3, 4]
            .iter()
            .map(|&threads| {
                let per = terms.len().div_ceil(threads);
                let mut acc = 0.0; // the bare `+=` merge under test
                for chunk in terms.chunks(per) {
                    acc += chunk.iter().sum::<f64>();
                }
                acc.to_bits()
            })
            .collect();
        assert_ne!(
            injected[0], injected[2],
            "term series too tame to expose the bare merge"
        );
        let det: Vec<u64> = [1usize, 3, 4]
            .iter()
            .map(|_| qmc_drivers::det_sum(&terms).to_bits())
            .collect();
        assert!(det.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn serial_orders_are_distinct_permutations_at_harness_width() {
        // The harness spawns `threads` (default 4) tasks per scope plus
        // ragged chunk counts; the serialized orders must be genuinely
        // different interleavings at those widths.
        for n in [4usize, 5, 6] {
            let mut perms: Vec<Vec<usize>> = schedules()
                .into_iter()
                .filter_map(|s| match s {
                    Schedule::Serial(o) => Some(o.permutation(n)),
                    _ => None,
                })
                .collect();
            let total = perms.len();
            perms.sort();
            perms.dedup();
            assert_eq!(perms.len(), total, "colliding serial orders at n={n}");
        }
    }
}
