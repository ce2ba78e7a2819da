//! # qmc-drivers
//!
//! Monte Carlo drivers reproducing Algorithm 1 and the execution structure
//! of Fig. 4 in *Mathuriya et al., SC'17*:
//!
//! * [`walker`] — walkers with private RNG streams and the anonymous
//!   wavefunction-state buffer.
//! * [`engine`] — the per-thread compute engine (ParticleSet +
//!   TrialWaveFunction + Hamiltonian) with the drift-diffusion PbyP sweep.
//! * [`crew`] — the [`Crew`] trait (one engine, or a lock-step crowd, per
//!   worker thread) and the one thread fan-out every run goes through (the
//!   OpenMP level).
//! * [`vmc`] / [`dmc`] — one block loop and one generation loop, generic
//!   over the crew: serial, thread-crew and crowd runs share every line
//!   but the sweep.
//! * [`ranks`] — simulated multi-rank execution with allreduce and walker
//!   exchange, for the strong-scaling study (Fig. 1).
//! * [`estimator`] / [`branch`] — statistics and population control.
//! * [`reduce`] — the fixed-shape deterministic reduction ([`det_sum`])
//!   both drivers merge per-walker quantities through.
//! * [`serialize`] — exact-state walker wire codec (plus explicit
//!   [`serialize::reseed_for_migration`] re-keying for rank migration).
//! * [`checkpoint`] — the `qmc-checkpoint/1` bitwise checkpoint/restart
//!   format and the [`checkpoint::RunControl`] hooks the drivers call at
//!   block/generation boundaries.
//! * [`fingerprint`] — FNV-1a walker/population digests asserting that
//!   restore really is bitwise.

#![forbid(unsafe_code)]
// Indexed loops over multiple parallel slices are the deliberate idiom in
// the SIMD kernels (mirrors the paper's C++ and keeps the auto-vectorizer's
// job obvious); iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod batching;
pub mod branch;
pub mod checkpoint;
pub mod crew;
pub mod dmc;
pub mod engine;
pub mod estimator;
pub mod fingerprint;
pub mod ranks;
pub mod reduce;
pub mod serialize;
pub mod vmc;
pub mod walker;

pub use batching::Batching;
pub use branch::BranchController;
pub use checkpoint::{
    read_dmc_checkpoint, read_vmc_checkpoint, write_dmc_checkpoint, write_vmc_checkpoint,
    CheckpointError, CheckpointSpec, DriverKind, RunControl, CHECKPOINT_SCHEMA,
};
pub use crew::{chunks_mut, Crew};
pub use dmc::{run_dmc, run_dmc as run_dmc_parallel_controlled, DmcParams, DmcResult, DmcState};
pub use engine::{limited_drift, HamiltonianSet, QmcEngine, SweepStats};
pub use estimator::ScalarEstimator;
pub use fingerprint::{population_digest, walker_digest, walker_digest_full, Fnv};
pub use ranks::{run_multi_rank, MultiRankParams, MultiRankResult};
pub use reduce::{det_sum, det_sum_by, det_weighted_mean};
pub use serialize::{
    deserialize_walker, reseed_for_migration, serialize_walker, try_deserialize_walker, WireError,
};
pub use vmc::{run_vmc, VmcParams, VmcResult, VmcState};
pub use walker::{initial_population, Walker};
