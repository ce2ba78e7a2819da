//! # qmc-crowd
//!
//! Crowd-based batched walker execution, after the hierarchical
//! parallelism of QMCPACK's performance-portable drivers: a [`Crowd`] of
//! engines advances its walkers through the particle-by-particle
//! drift-diffusion sweep in lock-step, so every stage hands the
//! wavefunction layer a multi-walker batch (`TrialWaveFunction::mw_*`,
//! `SpoSet::mw_evaluate_vgl`, `qmc_particles::mw_candidate_rows`) instead
//! of one walker's worth of work.
//!
//! * [`crowd`] — the [`Crowd`] and its `qmc_drivers::Crew` impl (the
//!   lock-step sweep).
//! * [`scheduler`] — [`CrowdScheduler`], one crowd per worker thread.
//!
//! A crew of crowds runs through the drivers' one generation/block loop
//! (`qmc_drivers::run_dmc` / `run_vmc`), exactly like a crew of single
//! engines: contiguous walker chunks per thread, walker-order energy
//! reduction. Combined with per-walker RNG streams and unchanged
//! per-walker floating-point op sequences, crowd runs are bit-identical
//! to per-walker runs for any crowd size and thread count — batching is
//! purely an execution-shape choice (`qmc_drivers::Batching`).

#![forbid(unsafe_code)]

pub mod crowd;
pub mod scheduler;

pub use crowd::Crowd;
/// The DMC driver under its crowd-run name.
pub use qmc_drivers::run_dmc as run_dmc_crowd_controlled;
pub use scheduler::CrowdScheduler;
