//! End-to-end proof that the `checked` sanitizer actually fires: inject
//! corruption at each guarded accumulator boundary and watch the
//! violation counters move, then run a clean driver and assert checks ran
//! with zero violations.
//!
//! The whole file is gated on the feature — without `--features checked`
//! there is nothing to test (the checks are no-ops).
#![cfg(feature = "checked")]

use qmc_drivers::{run_vmc, BranchController, RunControl, VmcParams};
use qmc_instrument::{sanitizer_enabled, set_drift_tolerance, take_sanitizer_stats, CheckKind};
use std::sync::{Mutex, MutexGuard};

/// The sanitizer counters are process-global; serialize the tests in this
/// binary so a concurrent test's checks never bleed into another's delta.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

mod common {
    use qmc_containers::TinyVector;
    use qmc_drivers::{initial_population, HamiltonianSet, QmcEngine, Walker};
    use qmc_particles::{CrystalLattice, ParticleSet, Species};
    use qmc_wavefunction::TrialWaveFunction;

    /// A tiny free-particle engine: flat (componentless) wavefunction,
    /// kinetic-only Hamiltonian. Enough to drive real sweeps and
    /// measurements through the sanitized boundaries.
    pub fn engine_and_walkers(n: usize, nw: usize) -> (QmcEngine<f64>, Vec<Walker<f64>>) {
        let l = 6.0;
        let pos: Vec<_> = (0..n)
            .map(|i| {
                let x = (0.5 + i as f64 * 0.7) % l;
                TinyVector([x, (x * 1.3) % l, (x * 2.1) % l])
            })
            .collect();
        let pset = ParticleSet::new(
            "e",
            CrystalLattice::cubic(l),
            vec![(
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                pos.clone(),
            )],
        );
        let psi = TrialWaveFunction::new();
        let engine = QmcEngine::new(pset, psi, HamiltonianSet::kinetic_only());
        let walkers = initial_population(&pos, nw, 42);
        (engine, walkers)
    }
}

#[test]
fn sanitizer_is_compiled_in() {
    assert!(sanitizer_enabled());
}

#[test]
fn corrupted_local_energy_fires_branch_weight_check() {
    let _g = serial();
    take_sanitizer_stats();
    let branch = BranchController::new(8, -1.0, 0.01, 7);
    // A NaN local energy survives the exponent clamp and must be caught
    // at the branch-weight boundary.
    let factor = branch.weight_factor(f64::NAN, -1.2);
    assert!(factor.is_nan());
    let stats = take_sanitizer_stats();
    assert_eq!(stats.violations[CheckKind::BranchWeight as usize], 1);
    assert_eq!(stats.checks_run[CheckKind::BranchWeight as usize], 1);
}

#[test]
fn corrupted_energy_estimate_fires_trial_energy_check() {
    let _g = serial();
    take_sanitizer_stats();
    let mut branch = BranchController::new(8, -1.0, 0.01, 7);
    branch.update_trial_energy(f64::INFINITY, 8);
    let stats = take_sanitizer_stats();
    assert_eq!(stats.violations[CheckKind::TrialEnergy as usize], 1);
}

#[test]
fn drift_bound_fires_on_injected_drift() {
    let _g = serial();
    take_sanitizer_stats();
    set_drift_tolerance(1e-6);
    // Simulate a from-scratch recompute whose |Δ log ψ| blew past the
    // bound — exactly what a broken mixed-precision kernel produces.
    qmc_instrument::record_refresh_drift(0.5);
    qmc_instrument::record_refresh_drift(1e-9);
    set_drift_tolerance(f64::INFINITY);
    let stats = take_sanitizer_stats();
    assert_eq!(stats.checks_run[CheckKind::Drift as usize], 2);
    assert_eq!(stats.violations[CheckKind::Drift as usize], 1);
}

#[test]
fn clean_vmc_run_checks_without_violations() {
    let _g = serial();
    take_sanitizer_stats();
    let (mut engine, mut walkers) = common::engine_and_walkers(4, 3);
    let params = VmcParams {
        blocks: 2,
        steps_per_block: 5,
        tau: 0.3,
        measure_every: 1,
    };
    let (res, _) = run_vmc(
        std::slice::from_mut(&mut engine),
        &mut walkers,
        &params,
        None,
        &mut RunControl::none(),
    );
    assert!(res.samples > 0);
    let stats = take_sanitizer_stats();
    assert!(
        stats.checks_run[CheckKind::LocalEnergy as usize] > 0,
        "local-energy boundary was never checked: {stats:?}"
    );
    assert!(
        stats.checks_run[CheckKind::LogPsi as usize] > 0,
        "log-psi boundary was never checked: {stats:?}"
    );
    assert_eq!(
        stats.total_violations(),
        0,
        "clean run must not violate: {stats:?}"
    );
}

#[test]
fn corrupted_walker_energy_is_caught_by_the_dmc_loop() {
    let _g = serial();
    take_sanitizer_stats();
    let (mut engine, mut walkers) = common::engine_and_walkers(4, 3);
    for w in walkers.iter_mut() {
        engine.init_walker(w);
    }
    // Inject corruption the way a broken kernel would surface it: a
    // walker's cached local energy goes NaN between generations.
    walkers[0].e_local = f64::NAN;
    let branch = BranchController::new(3, -0.5, 0.01, 3);
    for w in walkers.iter() {
        let f = branch.weight_factor(w.e_local, -0.5);
        let _ = f;
    }
    let stats = take_sanitizer_stats();
    assert_eq!(
        stats.violations[CheckKind::BranchWeight as usize],
        1,
        "exactly the corrupted walker must trip the check: {stats:?}"
    );
    assert_eq!(stats.checks_run[CheckKind::BranchWeight as usize], 3);
}
