//! The benchmark's workloads and the fixed settings every run shares.

use qmc_kernels::Backend;
use qmc_workloads::{Benchmark, CodeVersion, Size};

/// Worker threads of every run except the 1-thread baseline of
/// `drivers.parallel_efficiency`.
pub const THREADS: usize = 2;
/// Seed of the synthetic system (ions, electron start, spline table). It is
/// fixed so that the energy reference holds for every `--seed`; `--seed`
/// drives the Monte Carlo streams instead.
pub const SYSTEM_SEED: u64 = 42;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 42;
/// Code version of every workload.
pub const CODE: CodeVersion = CodeVersion::Current;
/// Kernel backend of every workload, set by the benchmark before engines
/// are built and reported from here (not from the process global).
pub const BACKEND: Backend = Backend::Simd;
/// Set-ups per untraced run: at least `.0`, then more until `.2` seconds
/// of set-up have passed, at most `.1`; `setup_s` is their median.
pub const SETUP_REPS: (usize, usize, f64) = (3, 200, 2.0);
/// Energy check: allowed distance from the reference in combined standard
/// errors.
pub const ENERGY_SIGMAS: f64 = 5.0;
/// Population bands, as factors of the target: every post-warm-up
/// generation's population within `.0`, and a run's mean post-warm-up
/// population within `.1`. Warm-up is exempt because every walker starts
/// at the same unequilibrated configuration, whose energy sets the first
/// trial energy, so the first branching can leave a single walker.
/// Populations of 8 legitimately dip to 2 for a generation after warm-up,
/// so the per-generation band only catches runaway growth or collapse; the
/// run mean catches a biased population control.
pub const POPULATION_FACTOR: (f64, f64) = (8.0, 2.0);

/// DMC energy reference for [`SYSTEM_SEED`], measured with the default
/// `--seed` over many closed-loop runs: mean of the per-run energies, their
/// standard deviation, and the number of runs. It holds for the workload's
/// steps, warm-up and time step; re-measure it when they change.
#[derive(Clone, Copy, Debug)]
pub struct EnergyRef {
    /// Mean of the per-run mixed-estimator energies (Ha).
    pub mean: f64,
    /// Standard deviation of one run's energy (Ha).
    pub sigma_run: f64,
    /// Runs behind `mean`.
    pub runs: usize,
}

/// One workload: a system, a walker drive and the length of one DMC run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The paper benchmark.
    pub benchmark: Benchmark,
    /// Problem size.
    pub size: Size,
    /// Target walker population.
    pub walkers: usize,
    /// Crowd size for lock-step crowd batching; `None` drives per walker.
    pub crowd: Option<usize>,
    /// Generations of one DMC run.
    pub steps: usize,
    /// Generations excluded from the statistics.
    pub warmup: usize,
    /// Imaginary time step.
    pub tau: f64,
    /// Allowed move-acceptance band of one run.
    pub acceptance: (f64, f64),
    /// Energy reference for the default seed.
    pub energy: EnergyRef,
}

/// Every workload, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "graphite-full",
        benchmark: Benchmark::Graphite,
        size: Size::Full,
        walkers: 8,
        crowd: None,
        steps: 8,
        warmup: 2,
        tau: 0.001,
        acceptance: (0.9, 0.999),
        energy: EnergyRef {
            mean: 2119.06,
            sigma_run: 38.12,
            runs: 54,
        },
    },
    WorkloadDef {
        name: "nio32-full",
        benchmark: Benchmark::NiO32,
        size: Size::Full,
        walkers: 8,
        crowd: None,
        steps: 6,
        warmup: 2,
        tau: 0.0002,
        acceptance: (0.9, 0.999),
        energy: EnergyRef {
            mean: 36822.8,
            sigma_run: 566.1,
            runs: 50,
        },
    },
    WorkloadDef {
        name: "graphite-crowd",
        benchmark: Benchmark::Graphite,
        size: Size::Scaled,
        walkers: 16,
        crowd: Some(4),
        steps: 40,
        warmup: 4,
        tau: 0.001,
        acceptance: (0.9, 0.999),
        energy: EnergyRef {
            mean: 418.02,
            sigma_run: 13.31,
            runs: 67,
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the `i`-th DMC run of a closed loop started with `seed`; run 0
/// uses `seed` itself.
pub fn run_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
