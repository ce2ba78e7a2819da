//! The benchmark runner shared by every figure/table harness: builds a
//! thread crew of engines for a (workload, code version) pair, runs DMC,
//! and reports the paper's figures of merit — throughput `P = M <N_w> /
//! T_CPU` (§6.2), the merged per-kernel profile, and memory accounting.

use crate::build::{CodeVersion, Workload};
use qmc_containers::Real;
use qmc_crowd::CrowdScheduler;
use qmc_drivers::{
    initial_population, population_digest, read_dmc_checkpoint, run_dmc, Batching, CheckpointError,
    CheckpointSpec, DmcParams, DmcState, QmcEngine, RunControl, Walker,
};
use qmc_instrument::{
    take_drift_stats, take_sanitizer_stats, BlockEvent, DriftStats, Profile, RunReport,
    SanitizerStats,
};
use qmc_kernels::Backend;

/// Execution configuration for one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Worker threads (engines).
    pub threads: usize,
    /// Target walker population.
    pub walkers: usize,
    /// DMC generations.
    pub steps: usize,
    /// Generations excluded from statistics.
    pub warmup: usize,
    /// Imaginary time step.
    pub tau: f64,
    /// Master seed.
    pub seed: u64,
    /// Walker batching: per-walker engine streaming or lock-step crowds.
    pub batching: Batching,
    /// Fused block refreshes for crowd batching: recomputes route through
    /// the multi-walker SPO kernel (`Bspline-mw-vgl`) instead of the
    /// per-slot scalar path. Off by default — the fused spline kernel
    /// regroups floating point, so it gives up the crowd's bitwise parity
    /// with the per-walker drivers. Ignored for per-walker batching.
    pub fused_refresh: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            walkers: 8,
            steps: 12,
            warmup: 2,
            tau: 0.005,
            seed: 0xBE_EF,
            batching: Batching::PerWalker,
            fused_refresh: false,
        }
    }
}

/// Outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Code version label.
    pub label: String,
    /// Kernel backend the run's engines were built with.
    pub kernel_backend: Backend,
    /// Wall-clock seconds of the DMC loop (excluding engine construction).
    pub seconds: f64,
    /// Monte Carlo samples generated after warmup.
    pub samples: u64,
    /// Per-kernel profile merged over all threads.
    pub profile: Profile,
    /// Per-thread / per-crowd kernel profiles, in chunk order.
    pub crowd_profiles: Vec<Profile>,
    /// `(mean, error, tau_corr)` of the mixed energy estimator.
    pub energy: (f64, f64, f64),
    /// Move acceptance ratio.
    pub acceptance: f64,
    /// Walker population after each generation.
    pub population: Vec<usize>,
    /// Trial energy after each generation's feedback update.
    pub e_trial_trace: Vec<f64>,
    /// Final trial energy.
    pub e_trial: f64,
    /// Mixed-precision log psi drift observed at from-scratch refreshes.
    pub drift: DriftStats,
    /// Runtime invariant sanitizer counters (all zero unless built with
    /// the `checked` feature).
    pub sanitizer: SanitizerStats,
    /// Bytes of one walker (positions + anonymous buffer).
    pub walker_bytes: usize,
    /// Bytes of one engine (wavefunction internals + distance tables).
    pub engine_bytes: usize,
    /// Bytes of the shared read-only spline table.
    pub table_bytes: usize,
    /// Final walker population.
    pub final_population: usize,
    /// FNV-1a digest of the final walker population (full per-walker
    /// state, RNG streams included) — what the checkpoint-resume parity
    /// gates compare.
    pub walker_hash: u64,
}

impl RunOutcome {
    /// Throughput `P = samples / seconds` (§6.2 figure of merit).
    pub fn throughput(&self) -> f64 {
        // qmclint: allow(precision-cast) — sample counts convert exactly to f64
        // for the throughput figure of merit.
        self.samples as f64 / self.seconds
    }

    /// DMC efficiency `kappa = 1 / (sigma^2 tau_corr T_MC)` (§3): the
    /// figure the paper's throughput gains translate into. Uses the
    /// blocking error's variance and autocorrelation estimates.
    pub fn kappa(&self) -> f64 {
        let (_, err, tau_corr) = self.energy;
        let sigma2 = err * err; // variance of the mean estimate
        if sigma2 > 0.0 && self.seconds > 0.0 {
            1.0 / (sigma2 * tau_corr.max(1.0) * self.seconds)
        } else {
            f64::INFINITY
        }
    }

    /// Total node memory model: shared table + per-thread engines +
    /// per-walker buffers (the paper's `gamma (N_th + N_w) N^2` plus the
    /// read-only table).
    pub fn total_bytes(&self, threads: usize, walkers: usize) -> usize {
        self.table_bytes + threads * self.engine_bytes + walkers * self.walker_bytes
    }

    /// Assembles the structured [`RunReport`] every front-end serializes
    /// (`miniqmc --profile json` and the bench binaries).
    pub fn report(&self, workload: &Workload, cfg: &RunConfig) -> RunReport {
        let (mean, err, tau_corr) = self.energy;
        RunReport {
            benchmark: workload.spec.name.to_string(),
            code: self.label.clone(),
            kernel_backend: self.kernel_backend.label().to_string(),
            electrons: workload.num_electrons(),
            ions: workload.num_ions(),
            threads: cfg.threads,
            walkers: cfg.walkers,
            steps: cfg.steps,
            crowd_size: match cfg.batching {
                Batching::PerWalker => 0,
                Batching::Crowd(_) => cfg.batching.crowd_size(),
            },
            seconds: self.seconds,
            samples: self.samples,
            acceptance: self.acceptance,
            energy_mean: mean,
            energy_err: err,
            energy_tau: tau_corr,
            e_trial: self.e_trial,
            population: self.population.clone(),
            e_trial_trace: self.e_trial_trace.clone(),
            profile: self.profile.clone(),
            crowd_profiles: self.crowd_profiles.clone(),
            drift: self.drift,
            sanitizer: self.sanitizer,
            walker_bytes: self.walker_bytes as u64,
            engine_bytes: self.engine_bytes as u64,
            table_bytes: self.table_bytes as u64,
        }
    }
}

/// Checkpoint/resume/telemetry control for a benchmark run.
/// [`BenchControl::default`] is a plain uncontrolled run.
#[derive(Default)]
pub struct BenchControl<'a> {
    /// Resume from this `qmc-checkpoint/1` file instead of initializing
    /// fresh walkers.
    pub resume: Option<&'a str>,
    /// Periodic checkpointing during the run.
    pub checkpoint: Option<CheckpointSpec>,
    /// Per-generation observer (the streaming-telemetry sink).
    pub on_block: Option<&'a mut dyn FnMut(&BlockEvent)>,
}

/// Reads just the completed-step counter of a DMC checkpoint (for the
/// stream `start` record of a resumed run, before the run itself opens
/// the file).
pub fn checkpoint_step(path: &str, single_precision: bool) -> Result<u64, CheckpointError> {
    if single_precision {
        read_dmc_checkpoint::<f32>(path).map(|(s, _)| s.step as u64)
    } else {
        read_dmc_checkpoint::<f64>(path).map(|(s, _)| s.step as u64)
    }
}

fn run_generic<T: Real>(
    build_engine: impl FnMut() -> QmcEngine<T>,
    workload: &Workload,
    code: CodeVersion,
    cfg: &RunConfig,
) -> RunOutcome {
    run_generic_controlled(build_engine, workload, code, cfg, BenchControl::default())
        .expect("uncontrolled run reads no checkpoint and cannot fail")
}

fn run_generic_controlled<T: Real>(
    mut build_engine: impl FnMut() -> QmcEngine<T>,
    workload: &Workload,
    code: CodeVersion,
    cfg: &RunConfig,
    ctl: BenchControl<'_>,
) -> Result<RunOutcome, CheckpointError> {
    let (mut walkers, resume_state): (Vec<Walker<T>>, Option<DmcState>) = match ctl.resume {
        Some(path) => {
            let (state, walkers) = read_dmc_checkpoint::<T>(path)?;
            (walkers, Some(state))
        }
        None => (
            initial_population(workload.initial_positions(), cfg.walkers, cfg.seed),
            None,
        ),
    };
    let mut control = RunControl {
        checkpoint: ctl.checkpoint,
        on_block: ctl.on_block,
    };
    let params = DmcParams {
        steps: cfg.steps,
        warmup: cfg.warmup,
        tau: cfg.tau,
        target_population: cfg.walkers,
        recompute_every: 16,
        seed: cfg.seed ^ 0xD00D,
        batching: cfg.batching,
    };
    let threads = cfg.threads.max(1);
    // Read next to the engine builds below, which capture the same value.
    let kernel_backend = code.kernel_backend();
    // Reset the global drift and sanitizer counters so the run owns what
    // it reports.
    take_drift_stats();
    take_sanitizer_stats();
    let (res, profile, engine_bytes, seconds);
    match cfg.batching {
        Batching::PerWalker => {
            let mut engines: Vec<QmcEngine<T>> = (0..threads).map(|_| build_engine()).collect();
            let t0 = std::time::Instant::now();
            let (r, p) = run_dmc(
                &mut engines,
                &mut walkers,
                &params,
                resume_state,
                &mut control,
            );
            seconds = t0.elapsed().as_secs_f64();
            engine_bytes = engines.first().map_or(0, qmc_drivers::QmcEngine::bytes);
            res = r;
            profile = p;
        }
        Batching::Crowd(_) => {
            let sched = CrowdScheduler::new(threads, cfg.batching.crowd_size())
                .with_fused_refresh(cfg.fused_refresh);
            let mut crowds = sched.build_crowds(build_engine);
            let t0 = std::time::Instant::now();
            let (r, p) = run_dmc(
                &mut crowds,
                &mut walkers,
                &params,
                resume_state,
                &mut control,
            );
            seconds = t0.elapsed().as_secs_f64();
            engine_bytes = crowds.first().map_or(0, qmc_crowd::Crowd::engine_bytes);
            res = r;
            profile = p;
        }
    }

    Ok(RunOutcome {
        label: code.label(),
        kernel_backend,
        seconds,
        samples: res.samples,
        profile: profile.total,
        crowd_profiles: profile.groups,
        energy: res.energy.blocking(),
        acceptance: res.acceptance,
        population: res.population,
        e_trial_trace: res.e_trial_trace,
        e_trial: res.e_trial,
        drift: take_drift_stats(),
        sanitizer: take_sanitizer_stats(),
        walker_bytes: walkers.first().map_or(0, qmc_drivers::Walker::bytes),
        engine_bytes,
        table_bytes: workload.table_bytes(code.single_precision()),
        final_population: walkers.len(),
        walker_hash: population_digest(&walkers),
    })
}

/// Runs a DMC benchmark for any code version, dispatching on precision
/// and on the walker-batching strategy.
pub fn run_dmc_benchmark(workload: &Workload, code: CodeVersion, cfg: &RunConfig) -> RunOutcome {
    if code.single_precision() {
        run_generic(|| workload.build_engine_f32(code), workload, code, cfg)
    } else {
        run_generic(|| workload.build_engine_f64(code), workload, code, cfg)
    }
}

/// [`run_dmc_benchmark`] with checkpoint/resume/telemetry control. The
/// only fallible path is reading the resume checkpoint (wrong precision
/// for the code version, corruption, truncation — all clean
/// [`CheckpointError`]s).
pub fn run_dmc_benchmark_controlled(
    workload: &Workload,
    code: CodeVersion,
    cfg: &RunConfig,
    ctl: BenchControl<'_>,
) -> Result<RunOutcome, CheckpointError> {
    if code.single_precision() {
        run_generic_controlled(|| workload.build_engine_f32(code), workload, code, cfg, ctl)
    } else {
        run_generic_controlled(|| workload.build_engine_f64(code), workload, code, cfg, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Benchmark, Size};

    #[test]
    fn smoke_run_every_paper_version() {
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 9);
        let cfg = RunConfig {
            threads: 2,
            walkers: 2,
            steps: 3,
            warmup: 1,
            tau: 0.002,
            seed: 7,
            ..Default::default()
        };
        for code in CodeVersion::paper_ladder() {
            let out = run_dmc_benchmark(&w, code, &cfg);
            assert!(out.seconds > 0.0);
            assert!(out.samples > 0, "{}", out.label);
            assert!(out.energy.0.is_finite(), "{} energy", out.label);
            assert!(out.acceptance > 0.0 && out.acceptance <= 1.0);
            assert!(out.walker_bytes > 0 && out.engine_bytes > 0);
            assert!(out.throughput() > 0.0);
        }
    }

    #[test]
    fn fused_refresh_drives_the_mw_spo_kernel() {
        // The fused block refresh is the product path that keeps the
        // `Bspline-mw-vgl` column live; without it the batched SPO kernel
        // must stay silent (the crowd remains bitwise-per-walker).
        let w = Workload::new(Benchmark::Graphite, Size::Scaled, 5);
        let base = RunConfig {
            threads: 1,
            walkers: 2,
            steps: 3,
            warmup: 1,
            tau: 0.002,
            seed: 7,
            batching: Batching::Crowd(2),
            fused_refresh: false,
        };
        let fused_cfg = RunConfig {
            fused_refresh: true,
            ..base
        };
        let scalar = run_dmc_benchmark(&w, CodeVersion::Current, &base);
        let fused = run_dmc_benchmark(&w, CodeVersion::Current, &fused_cfg);
        let k = qmc_instrument::Kernel::BsplineMwVGL;
        assert_eq!(scalar.profile.get(k).calls, 0, "scalar crowd must not fuse");
        assert!(fused.profile.get(k).calls > 0, "fused crowd must batch SPO");
        assert_eq!(scalar.samples, fused.samples);
        assert!(fused.energy.0.is_finite());
        // Same physics to well under statistical noise: only the FP
        // regrouping of the fused spline kernel separates the runs.
        assert!(
            (scalar.energy.0 - fused.energy.0).abs() < 1e-3,
            "scalar {} vs fused {}",
            scalar.energy.0,
            fused.energy.0
        );
    }

    #[test]
    fn memory_ordering_ref_vs_current() {
        // The headline memory claim: Current walkers are dramatically
        // smaller than Ref walkers (5N^2 -> 5N Jastrow + f64 -> f32).
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 11);
        let cfg = RunConfig {
            threads: 1,
            walkers: 1,
            steps: 2,
            warmup: 0,
            tau: 0.002,
            seed: 3,
            ..Default::default()
        };
        let r = run_dmc_benchmark(&w, CodeVersion::Ref, &cfg);
        let c = run_dmc_benchmark(&w, CodeVersion::Current, &cfg);
        assert!(
            r.walker_bytes > 2 * c.walker_bytes,
            "Ref walker {} vs Current {}",
            r.walker_bytes,
            c.walker_bytes
        );
        assert!(r.table_bytes == 2 * c.table_bytes);
    }
}
