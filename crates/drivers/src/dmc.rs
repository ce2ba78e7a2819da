//! Diffusion Monte Carlo driver (Algorithm 1 of the paper).
//!
//! Particle-by-particle drift-diffusion sweeps, local-energy measurement,
//! walker reweighting, birth/death branching and trial-energy feedback.
//! [`run_dmc`] is the one generation loop: serial, thread-crew and
//! lock-step crowd runs differ only in the [`Crew`] they pass it.
//!
//! The complete between-generation state of a run is [`DmcState`]. A
//! checkpoint is nothing but a serialized `DmcState` plus the walker
//! population, and resuming is entering the generation loop with a
//! restored state instead of a fresh one — the same code path either way,
//! which is what makes restore bitwise rather than merely statistical.

use crate::batching::Batching;
use crate::branch::BranchController;
use crate::checkpoint::RunControl;
use crate::crew::{fan_out, init_walkers, load_block, Crew};
use crate::engine::SweepStats;
use crate::estimator::ScalarEstimator;
use crate::reduce;
use crate::walker::Walker;
use parking_lot::Mutex;
use qmc_containers::Real;
use qmc_instrument::{drain_thread_profile, span_lazy, ProfileSet};

/// DMC run parameters.
#[derive(Clone, Copy, Debug)]
pub struct DmcParams {
    /// Monte Carlo generations (`M` in Algorithm 1).
    pub steps: usize,
    /// Generations discarded before statistics are taken.
    pub warmup: usize,
    /// Imaginary time step.
    pub tau: f64,
    /// Target walker population.
    pub target_population: usize,
    /// From-scratch wavefunction recompute cadence in generations
    /// (mixed-precision hygiene; 0 disables).
    pub recompute_every: usize,
    /// Master seed for the branching stream.
    pub seed: u64,
    /// Walker batching strategy, as a label for front-ends; the crew
    /// passed to [`run_dmc`] is what actually sets the execution shape.
    pub batching: Batching,
}

impl Default for DmcParams {
    fn default() -> Self {
        Self {
            steps: 100,
            warmup: 10,
            tau: 0.01,
            target_population: 16,
            recompute_every: 20,
            seed: 0xD31C,
            batching: Batching::PerWalker,
        }
    }
}

/// DMC run outcome.
pub struct DmcResult {
    /// Per-generation weighted mixed estimator of the energy.
    pub energy: ScalarEstimator,
    /// Population trace per generation.
    pub population: Vec<usize>,
    /// Overall acceptance ratio of single-particle moves.
    pub acceptance: f64,
    /// Monte Carlo samples generated (sum of populations over measured
    /// generations) — the numerator of the paper's throughput metric.
    pub samples: u64,
    /// Final trial energy.
    pub e_trial: f64,
    /// Trial energy after each generation's feedback update (the
    /// trajectory the run report serializes alongside `population`).
    pub e_trial_trace: Vec<f64>,
}

/// The complete between-generation state of a DMC run: everything besides
/// the walker population itself that the next generation depends on. This
/// is exactly what `qmc-checkpoint/1` serializes for the DMC driver.
#[derive(Clone, Debug)]
pub struct DmcState {
    /// Population controller (trial energy, feedback, private RNG).
    pub branch: BranchController,
    /// Accumulated per-generation energy estimator.
    pub energy: ScalarEstimator,
    /// Population trace per generation so far.
    pub population: Vec<usize>,
    /// Trial-energy trace per generation so far.
    pub e_trial_trace: Vec<f64>,
    /// Accepted single-particle moves so far.
    pub accepted: usize,
    /// Attempted single-particle moves so far.
    pub attempted: usize,
    /// Monte Carlo samples (post-warmup) so far.
    pub samples: u64,
    /// Completed generations (the next generation to execute).
    pub step: usize,
    /// Initial energy estimate (the `wsum <= 0` fallback, fixed at init).
    pub e0: f64,
}

impl DmcState {
    /// Fresh state for a run starting at generation 0 with initial energy
    /// estimate `e0` (the mean walker local energy after init).
    pub fn fresh(e0: f64, params: &DmcParams) -> Self {
        Self {
            branch: BranchController::new(params.target_population, e0, params.tau, params.seed),
            energy: ScalarEstimator::new(),
            population: Vec::with_capacity(params.steps),
            e_trial_trace: Vec::with_capacity(params.steps),
            accepted: 0,
            attempted: 0,
            samples: 0,
            step: 0,
            e0,
        }
    }

    /// Completes one generation: accumulates statistics, branches the
    /// population and applies the trial-energy feedback: the tail of every
    /// generation of [`run_dmc`]. Returns this generation's energy estimate.
    pub fn finish_generation<T: Real>(
        &mut self,
        walkers: &mut Vec<Walker<T>>,
        warmup: usize,
        esum: f64,
        wsum: f64,
        acc: usize,
        att: usize,
    ) -> f64 {
        self.accepted += acc;
        self.attempted += att;
        let e_avg = if wsum > 0.0 { esum / wsum } else { self.e0 };
        if self.step >= warmup {
            self.energy.push(e_avg, wsum);
            self.samples += walkers.len() as u64;
        }
        self.population.push(walkers.len());
        self.branch.branch(walkers);
        self.branch.update_trial_energy(e_avg, walkers.len());
        self.e_trial_trace.push(self.branch.e_trial);
        self.step += 1;
        e_avg
    }

    /// Final result of the run this state accumulated.
    pub fn into_result(self) -> DmcResult {
        DmcResult {
            energy: self.energy,
            population: self.population,
            acceptance: if self.attempted > 0 {
                // qmclint: allow(precision-cast) — walker/step counts convert exactly to f64 for statistics.
                self.accepted as f64 / self.attempted as f64
            } else {
                0.0
            },
            samples: self.samples,
            e_trial: self.branch.e_trial,
            e_trial_trace: self.e_trial_trace,
        }
    }
}

/// Runs DMC across a crew (one member per worker thread; a serial run is
/// a crew of one) and returns the result with the merged kernel
/// [`ProfileSet`] (one group per member). `walkers` is regenerated by
/// branching every generation.
///
/// When `resume` is `Some`, walker initialization is skipped entirely
/// (the restored walkers carry their buffers and RNG streams) and the
/// generation loop continues from `state.step`; the run is bitwise
/// identical to one that never stopped, whatever crew either part ran on.
pub fn run_dmc<T: Real, C: Crew<T>>(
    crew: &mut [C],
    walkers: &mut Vec<Walker<T>>,
    params: &DmcParams,
    resume: Option<DmcState>,
    control: &mut RunControl<'_>,
) -> (DmcResult, ProfileSet) {
    assert!(!crew.is_empty(), "a run needs at least one crew member");
    let profile = Mutex::new(ProfileSet::with_groups(crew.len()));
    // Caller-owned sweep statistics, one slot per walker a member holds.
    let mut stats: Vec<Vec<SweepStats>> = crew
        .iter()
        .map(|c| vec![SweepStats::default(); c.width()])
        .collect();

    let mut state = if let Some(state) = resume {
        state
    } else {
        init_walkers(crew, &mut stats, walkers, &profile);
        let e0 = if walkers.is_empty() {
            0.0
        } else {
            // qmclint: allow(precision-cast) — walker/step counts convert exactly to f64 for statistics.
            walkers.iter().map(|w| w.e_local).sum::<f64>() / walkers.len() as f64
        };
        DmcState::fresh(e0, params)
    };

    while state.step < params.steps {
        let step = state.step;
        // Driver-level step span on its own lane, above the worker lanes.
        let _step_span = span_lazy(crew.len() as u64, || format!("step {step}"));
        let refresh = params.recompute_every > 0 && step % params.recompute_every == 0;
        let branch = &state.branch;
        let (acc, att) = fan_out(
            crew,
            &mut stats,
            walkers,
            "crowd generation",
            &profile,
            |t, member, stats, chunk| {
                let (mut acc, mut att) = (0, 0);
                for (b, block) in chunk.chunks_mut(member.width()).enumerate() {
                    let _block_span = span_lazy(t as u64, || format!("block {b}"));
                    load_block(member, block);
                    if refresh {
                        member.refresh_block(block.len());
                    }
                    member.sweep_block(block, params.tau, &mut stats[..block.len()]);
                    for (s, w) in block.iter_mut().enumerate() {
                        acc += stats[s].accepted;
                        att += stats[s].attempted;
                        let engine = member.slot_mut(s);
                        let el = engine.measure(&mut w.rng).total();
                        qmc_instrument::check_finite(qmc_instrument::CheckKind::LocalEnergy, el);
                        w.weight *= branch.weight_factor(w.e_local, el);
                        w.age = if stats[s].accepted == 0 { w.age + 1 } else { 0 };
                        w.e_local = el;
                        engine.store_walker(w);
                    }
                }
                (acc, att)
            },
        );
        // Deterministic generation merge from the stored per-walker fields:
        // a fixed-shape tree over walker order, so the branch controller
        // sees bit-identical input for any crew.
        let esum = reduce::det_sum_by(walkers.len(), |i| walkers[i].weight * walkers[i].e_local);
        let wsum = reduce::det_sum_by(walkers.len(), |i| walkers[i].weight);
        let e_avg = state.finish_generation(walkers, params.warmup, esum, wsum, acc, att);
        control.after_dmc_generation(&state, walkers, params, e_avg, wsum);
    }

    // Fold the coordinator thread's own profile (branching etc.) into the
    // aggregate only — it belongs to no worker group.
    profile.lock().merge_total(&drain_thread_profile());

    (state.into_result(), profile.into_inner())
}
