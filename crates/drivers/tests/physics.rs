//! End-to-end physics validation of the drivers.
//!
//! A Slater determinant of kinetic-operator eigenstates (cosine orbitals)
//! has *exactly constant* local energy `E = sum_s |k_s|^2 / 2`, so VMC and
//! DMC through the full move/measure/branch machinery must reproduce that
//! number with (near) zero variance — any bookkeeping error in tables,
//! ratios, buffers or branching shows up immediately.

use qmc_containers::{Pos, TinyVector};
use qmc_drivers::{
    initial_population, run_dmc, run_vmc, DmcParams, HamiltonianSet, QmcEngine, RunControl,
    VmcParams,
};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{CosineSpo, DetUpdateMode, DiracDeterminant, TrialWaveFunction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const L: f64 = 6.0;

fn free_engine(n: usize, layout: Layout, mode: DetUpdateMode) -> (QmcEngine<f64>, f64) {
    let lat = CrystalLattice::cubic(L);
    let mut rng = StdRng::seed_from_u64(7);
    let pos: Vec<Pos<f64>> = (0..n)
        .map(|_| {
            TinyVector([
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
            ])
        })
        .collect();
    let mut pset = ParticleSet::new(
        "e",
        lat,
        vec![(
            Species {
                name: "u".into(),
                charge: -1.0,
            },
            pos,
        )],
    );
    pset.add_table_aa(layout);

    let spo = CosineSpo::<f64>::new(n, [L, L, L]);
    // Exact total energy: sum over occupied orbitals of |k|^2/2.
    let mut psi_probe = vec![0.0; n];
    let _ = &mut psi_probe;
    let exact = exact_energy(n);

    let mut psi = TrialWaveFunction::new();
    psi.add(Box::new(DiracDeterminant::new(Box::new(spo), 0, n, mode)));
    let engine = QmcEngine::new(pset, psi, HamiltonianSet::kinetic_only());
    (engine, exact)
}

/// Well-spread (non-degenerate) starting positions: collinear starts make
/// the Slater matrix near-singular and Sherman-Morrison legitimately
/// inaccurate.
fn spread_positions(n: usize, seed: u64) -> Vec<Pos<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            TinyVector([
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
            ])
        })
        .collect()
}

fn exact_energy(n: usize) -> f64 {
    use std::f64::consts::TAU;
    // Mirror CosineSpo's deterministic shell enumeration.
    let mut ks: Vec<[f64; 3]> = Vec::new();
    'outer: for shell in 0i64.. {
        for ix in -shell..=shell {
            for iy in -shell..=shell {
                for iz in -shell..=shell {
                    if ix.abs().max(iy.abs()).max(iz.abs()) != shell {
                        continue;
                    }
                    ks.push([
                        TAU * ix as f64 / L,
                        TAU * iy as f64 / L,
                        TAU * iz as f64 / L,
                    ]);
                    if ks.len() == n {
                        break 'outer;
                    }
                }
            }
        }
    }
    ks.iter()
        .map(|k| 0.5 * (k[0] * k[0] + k[1] * k[1] + k[2] * k[2]))
        .sum()
}

#[test]
fn vmc_eigenstate_energy_is_exact() {
    let n = 5;
    let (mut engine, exact) = free_engine(n, Layout::Soa, DetUpdateMode::ShermanMorrison);
    let mut walkers = initial_population::<f64>(&spread_positions(n, 101), 4, 11);
    let params = VmcParams {
        blocks: 3,
        steps_per_block: 10,
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
    let (mean, _, _) = res.energy.blocking();
    assert!(
        (mean - exact).abs() < 1e-7,
        "VMC energy {mean} vs exact {exact}"
    );
    // Eigenstate: zero-variance principle.
    assert!(
        res.energy.variance() < 1e-12,
        "variance {}",
        res.energy.variance()
    );
    assert!(res.acceptance > 0.3 && res.acceptance <= 1.0);
}

#[test]
fn dmc_eigenstate_energy_and_population_stable() {
    let n = 4;
    let (mut engine, exact) = free_engine(n, Layout::Soa, DetUpdateMode::ShermanMorrison);
    let mut walkers = initial_population::<f64>(&spread_positions(n, 102), 12, 13);
    let params = DmcParams {
        steps: 40,
        warmup: 5,
        tau: 0.02,
        target_population: 12,
        recompute_every: 10,
        seed: 99,
        ..Default::default()
    };
    let (res, _) = run_dmc(
        std::slice::from_mut(&mut engine),
        &mut walkers,
        &params,
        None,
        &mut RunControl::none(),
    );
    let (mean, _, _) = res.energy.blocking();
    assert!((mean - exact).abs() < 1e-7, "DMC {mean} vs {exact}");
    // Population bounded around target.
    let max_pop = *res.population.iter().max().unwrap();
    let min_pop = *res.population.iter().min().unwrap();
    assert!(
        min_pop >= 4 && max_pop <= 48,
        "pop range {min_pop}..{max_pop}"
    );
    assert!(res.samples > 0);
}

#[test]
fn dmc_delayed_updates_match_exact_energy() {
    let n = 6;
    let (mut engine, exact) = free_engine(n, Layout::Soa, DetUpdateMode::Delayed(4));
    let mut walkers = initial_population::<f64>(&spread_positions(n, 103), 6, 17);
    let params = DmcParams {
        steps: 20,
        warmup: 2,
        tau: 0.02,
        target_population: 6,
        recompute_every: 8,
        seed: 23,
        ..Default::default()
    };
    let (res, _) = run_dmc(
        std::slice::from_mut(&mut engine),
        &mut walkers,
        &params,
        None,
        &mut RunControl::none(),
    );
    let (mean, _, _) = res.energy.blocking();
    assert!((mean - exact).abs() < 1e-7, "delayed DMC {mean} vs {exact}");
}

#[test]
fn parallel_dmc_matches_exact_energy_and_merges_profile() {
    let n = 4;
    let nthreads = 3;
    let mut engines: Vec<QmcEngine<f64>> = (0..nthreads)
        .map(|_| free_engine(n, Layout::Soa, DetUpdateMode::ShermanMorrison).0)
        .collect();
    let exact = exact_energy(n);
    let mut walkers = initial_population::<f64>(&spread_positions(n, 104), 9, 31);
    let params = DmcParams {
        steps: 15,
        warmup: 3,
        tau: 0.02,
        target_population: 9,
        recompute_every: 5,
        seed: 41,
        ..Default::default()
    };
    let (res, profile) = run_dmc(
        &mut engines,
        &mut walkers,
        &params,
        None,
        &mut RunControl::none(),
    );
    let (mean, _, _) = res.energy.blocking();
    assert!(
        (mean - exact).abs() < 1e-7,
        "parallel DMC {mean} vs {exact}"
    );
    // The merged profile must have seen the hot kernels.
    assert!(profile.total.get(qmc_instrument::Kernel::DetUpdate).calls > 0);
    assert!(profile.total.get(qmc_instrument::Kernel::DistTableAA).calls > 0);
}

#[test]
fn walker_buffer_roundtrip_is_stable() {
    // store -> load -> store must be idempotent (same buffer bytes, same
    // log psi), proving the anonymous buffer captures the full state.
    let n = 4;
    let (mut engine, _) = free_engine(n, Layout::Soa, DetUpdateMode::ShermanMorrison);
    let mut walkers = initial_population::<f64>(&spread_positions(n, 105), 1, 53);
    let w = &mut walkers[0];
    engine.init_walker(w);
    let log0 = w.log_psi;
    let bytes0 = w.buffer.bytes();
    engine.load_walker(w);
    engine.store_walker(w);
    assert_eq!(w.buffer.bytes(), bytes0);
    assert!((w.log_psi - log0).abs() < 1e-12);

    // A sweep then reload must keep the incremental log consistent with a
    // fresh evaluation.
    engine.load_walker(w);
    engine.sweep(0.05, &mut w.rng);
    engine.store_walker(w);
    let incremental = w.log_psi;
    engine.pset.load_positions(&w.r);
    let fresh = engine.psi.evaluate_log(&mut engine.pset);
    assert!(
        (incremental - fresh).abs() < 1e-8,
        "incremental {incremental} vs fresh {fresh}"
    );
}
