//! Lock-step parity: the crowd drivers must be bit-identical to the
//! per-walker drivers for any crowd size (walkers keep private RNG
//! streams and their per-walker floating-point op sequences are
//! unchanged).

use qmc_containers::{Pos, TinyVector};
use qmc_crowd::{Crowd, CrowdScheduler};
use qmc_drivers::{
    initial_population, run_dmc, run_vmc, DmcParams, HamiltonianSet, QmcEngine, RunControl,
    VmcParams, Walker,
};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{CosineSpo, DetUpdateMode, DiracDeterminant, TrialWaveFunction};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const L: f64 = 6.0;

fn engine(n: usize, seed: u64) -> (QmcEngine<f64>, Vec<Pos<f64>>) {
    let lat = CrystalLattice::cubic(L);
    let mut rng = StdRng::seed_from_u64(seed);
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
            pos.clone(),
        )],
    );
    pset.add_table_aa(Layout::Soa);
    let mut psi = TrialWaveFunction::new();
    psi.add(Box::new(DiracDeterminant::new(
        Box::new(CosineSpo::<f64>::new(n, [L, L, L])),
        0,
        n,
        DetUpdateMode::ShermanMorrison,
    )));
    (
        QmcEngine::new(pset, psi, HamiltonianSet::kinetic_only()),
        pos,
    )
}

fn assert_walkers_bitwise(a: &[Walker<f64>], b: &[Walker<f64>]) {
    assert_eq!(a.len(), b.len());
    for (i, (wa, wb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(wa.e_local, wb.e_local, "walker {i} e_local");
        assert_eq!(wa.weight, wb.weight, "walker {i} weight");
        assert_eq!(wa.log_psi, wb.log_psi, "walker {i} log_psi");
        for (ra, rb) in wa.r.iter().zip(wb.r.iter()) {
            assert_eq!(ra.0, rb.0, "walker {i} positions");
        }
    }
}

#[test]
fn vmc_crowd_is_bitwise_per_walker_for_any_crowd_size() {
    let n = 4;
    let params = VmcParams {
        blocks: 2,
        steps_per_block: 6,
        tau: 0.4,
        measure_every: 2,
    };
    let (mut eng, pos) = engine(n, 17);
    let mut ref_walkers = initial_population::<f64>(&pos, 5, 23);
    let (reference, _) = run_vmc(
        std::slice::from_mut(&mut eng),
        &mut ref_walkers,
        &params,
        None,
        &mut RunControl::none(),
    );

    // Crowd sizes below, equal to, and above the population; 5 walkers
    // exercise a ragged final block.
    for crowd_size in [1usize, 2, 5, 8] {
        let slots = (0..crowd_size).map(|_| engine(n, 17).0).collect();
        let mut crowd = Crowd::new(slots);
        let mut walkers = initial_population::<f64>(&pos, 5, 23);
        let (res, _) = run_vmc(
            std::slice::from_mut(&mut crowd),
            &mut walkers,
            &params,
            None,
            &mut RunControl::none(),
        );
        assert_eq!(
            res.energy.blocking(),
            reference.energy.blocking(),
            "crowd {crowd_size} energy"
        );
        assert_eq!(res.acceptance, reference.acceptance, "crowd {crowd_size}");
        assert_eq!(res.samples, reference.samples);
        assert_walkers_bitwise(&walkers, &ref_walkers);
    }
}

#[test]
fn dmc_crowd_is_bitwise_per_walker_crew() {
    let n = 4;
    let params = DmcParams {
        steps: 8,
        warmup: 2,
        tau: 0.02,
        target_population: 6,
        recompute_every: 3,
        seed: 0xA1,
        ..Default::default()
    };
    let mut engines: Vec<QmcEngine<f64>> = (0..2).map(|_| engine(n, 31).0).collect();
    let pos = engine(n, 31).1;
    let mut ref_walkers = initial_population::<f64>(&pos, 6, 41);
    let (reference, _) = run_dmc(
        &mut engines,
        &mut ref_walkers,
        &params,
        None,
        &mut RunControl::none(),
    );

    for (threads, crowd_size) in [(1usize, 1usize), (1, 4), (2, 3), (3, 8)] {
        let sched = CrowdScheduler::new(threads, crowd_size);
        let mut crowds = sched.build_crowds(|| engine(n, 31).0);
        let mut walkers = initial_population::<f64>(&pos, 6, 41);
        let (res, _) = run_dmc(
            &mut crowds,
            &mut walkers,
            &params,
            None,
            &mut RunControl::none(),
        );
        let tag = format!("threads {threads} crowd {crowd_size}");
        assert_eq!(res.energy.blocking(), reference.energy.blocking(), "{tag}");
        assert_eq!(res.population, reference.population, "{tag}");
        assert_eq!(res.e_trial, reference.e_trial, "{tag}");
        assert_eq!(res.samples, reference.samples, "{tag}");
        assert_eq!(res.acceptance, reference.acceptance, "{tag}");
        assert_walkers_bitwise(&walkers, &ref_walkers);
    }
}

#[test]
fn dmc_crowd_handles_empty_population() {
    let sched = CrowdScheduler::new(2, 2);
    let mut crowds = sched.build_crowds(|| engine(3, 5).0);
    let mut walkers: Vec<Walker<f64>> = Vec::new();
    let params = DmcParams {
        steps: 2,
        warmup: 0,
        target_population: 4,
        ..Default::default()
    };
    let (res, _) = run_dmc(
        &mut crowds,
        &mut walkers,
        &params,
        None,
        &mut RunControl::none(),
    );
    assert_eq!(res.samples, 0);
    assert!(res.energy.blocking().0.is_finite() || res.energy.blocking().0.is_nan());
}
