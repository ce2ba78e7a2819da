//! Variational Monte Carlo driver (importance-sampled PbyP Metropolis).
//!
//! Used for equilibration, for validating the wavefunction machinery
//! against analytic systems, and as the lightweight counterpart of the DMC
//! driver in the benchmarks. Like DMC, the between-block state is factored
//! into [`VmcState`] so a run can checkpoint at a block boundary and
//! resume bitwise.

use crate::checkpoint::RunControl;
use crate::crew::{fan_out, init_walkers, load_block, Crew};
use crate::engine::SweepStats;
use crate::estimator::ScalarEstimator;
use crate::walker::Walker;
use parking_lot::Mutex;
use qmc_containers::Real;
use qmc_instrument::{drain_thread_profile, span_lazy, ProfileSet};

/// VMC run parameters.
#[derive(Clone, Copy, Debug)]
pub struct VmcParams {
    /// Number of blocks (a from-scratch recompute happens per block).
    pub blocks: usize,
    /// PbyP sweeps per block per walker.
    pub steps_per_block: usize,
    /// Time step of the drifted Gaussian proposal.
    pub tau: f64,
    /// Measure the local energy every `measure_every` sweeps.
    pub measure_every: usize,
}

impl Default for VmcParams {
    fn default() -> Self {
        Self {
            blocks: 10,
            steps_per_block: 20,
            tau: 0.3,
            measure_every: 1,
        }
    }
}

/// VMC run outcome.
pub struct VmcResult {
    /// Local-energy samples (one per measurement).
    pub energy: ScalarEstimator,
    /// Overall move acceptance ratio.
    pub acceptance: f64,
    /// Monte Carlo samples generated (walker-sweeps).
    pub samples: u64,
}

/// The complete between-block state of a VMC run — what
/// `qmc-checkpoint/1` serializes for the VMC driver (plus the walkers).
#[derive(Clone, Debug, Default)]
pub struct VmcState {
    /// Accumulated local-energy samples.
    pub energy: ScalarEstimator,
    /// Accepted single-particle moves so far.
    pub accepted: usize,
    /// Attempted single-particle moves so far.
    pub attempted: usize,
    /// Walker-sweeps so far.
    pub samples: u64,
    /// Completed blocks (the next block to execute).
    pub block: usize,
}

impl VmcState {
    /// Fresh state for a run starting at block 0.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// Final result of the run this state accumulated.
    pub fn into_result(self) -> VmcResult {
        VmcResult {
            energy: self.energy,
            acceptance: if self.attempted > 0 {
                // qmclint: allow(precision-cast) — walker/step counts convert exactly to f64 for statistics.
                self.accepted as f64 / self.attempted as f64
            } else {
                0.0
            },
            samples: self.samples,
        }
    }
}

/// Runs VMC across a crew (one member per worker thread; a serial run is
/// a crew of one) and returns the result with the merged kernel
/// [`ProfileSet`] (one group per member).
///
/// Each member buffers its chunk's local-energy samples walker-major, and
/// the estimator takes them member by member after each block — walker
/// order, then step order, whatever the crew — so the result is bitwise
/// independent of crew size, crowd width and task schedule. When
/// `resume` is `Some`, walker initialization is skipped (the restored
/// walkers carry their buffers and RNG streams) and the block loop
/// continues from `state.block`, bitwise identical to an uninterrupted
/// run.
pub fn run_vmc<T: Real, C: Crew<T>>(
    crew: &mut [C],
    walkers: &mut [Walker<T>],
    params: &VmcParams,
    resume: Option<VmcState>,
    control: &mut RunControl<'_>,
) -> (VmcResult, ProfileSet) {
    assert!(!crew.is_empty(), "a run needs at least one crew member");
    let profile = Mutex::new(ProfileSet::with_groups(crew.len()));
    // Per member: sweep statistics per slot, and the block's samples.
    let mut lanes: Vec<(Vec<SweepStats>, Vec<f64>)> = crew
        .iter()
        .map(|c| (vec![SweepStats::default(); c.width()], Vec::new()))
        .collect();
    let mut state = if let Some(state) = resume {
        state
    } else {
        init_walkers(crew, &mut lanes, walkers, &profile);
        VmcState::fresh()
    };
    // Samples each walker contributes per block.
    let per_walker = params.steps_per_block.div_ceil(params.measure_every);

    while state.block < params.blocks {
        let index = state.block;
        let _block_span = span_lazy(crew.len() as u64, || format!("vmc block {index}"));
        let samples_before = state.energy.len();
        for (_, samples) in &mut lanes {
            samples.clear();
        }
        let (acc, att) = fan_out(
            crew,
            &mut lanes,
            walkers,
            "vmc worker block",
            &profile,
            |_, member, (stats, samples), chunk| {
                let (mut acc, mut att) = (0, 0);
                for block in chunk.chunks_mut(member.width()) {
                    let nw = block.len();
                    load_block(member, block);
                    // Per-block mixed-precision hygiene: recompute from scratch.
                    member.refresh_block(nw);
                    let base = samples.len();
                    samples.resize(base + nw * per_walker, 0.0);
                    for step in 0..params.steps_per_block {
                        member.sweep_block(block, params.tau, &mut stats[..nw]);
                        for st in &stats[..nw] {
                            acc += st.accepted;
                            att += st.attempted;
                        }
                        if step % params.measure_every == 0 {
                            let m = step / params.measure_every;
                            for (s, w) in block.iter_mut().enumerate() {
                                w.e_local = member.slot_mut(s).measure(&mut w.rng).total();
                                qmc_instrument::check_finite(
                                    qmc_instrument::CheckKind::LocalEnergy,
                                    w.e_local,
                                );
                                samples[base + s * per_walker + m] = w.e_local;
                            }
                        }
                    }
                    for (s, w) in block.iter_mut().enumerate() {
                        member.slot_mut(s).store_walker(w);
                    }
                }
                (acc, att)
            },
        );
        state.accepted += acc;
        state.attempted += att;
        state.samples += (walkers.len() * params.steps_per_block) as u64;
        for (_, samples) in &lanes {
            for &e in samples {
                state.energy.push(e, 1.0);
            }
        }
        state.block += 1;
        control.after_vmc_block(&state, walkers, params, samples_before);
    }

    profile.lock().merge_total(&drain_thread_profile());

    (state.into_result(), profile.into_inner())
}
