//! Physics validation example: free electrons in a periodic box.
//!
//! A Slater determinant of plane-wave-like cosine orbitals is an exact
//! eigenstate of the kinetic operator, so VMC and DMC must both produce
//! `E = sum_s |k_s|^2 / 2` with zero variance — a stringent end-to-end
//! check of tables, ratios, drift, branching and estimators, and a
//! demonstration of using the library outside the bundled benchmark
//! workloads.
//!
//! ```text
//! cargo run --release --example free_electrons
//! ```

use qmc::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let l = 6.0;
    let n = 7;
    let lat = CrystalLattice::cubic(l);
    let mut rng = StdRng::seed_from_u64(11);
    let pos: Vec<Pos<f64>> = (0..n)
        .map(|_| {
            TinyVector([
                rng.random::<f64>() * l,
                rng.random::<f64>() * l,
                rng.random::<f64>() * l,
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

    let spo = CosineSpo::<f64>::new(n, [l, l, l]);
    let mut psi = TrialWaveFunction::new();
    psi.add(Box::new(DiracDeterminant::new(
        Box::new(spo),
        0,
        n,
        DetUpdateMode::ShermanMorrison,
    )));

    let mut engine = QmcEngine::new(pset, psi, HamiltonianSet::kinetic_only());
    let mut walkers = initial_population::<f64>(&pos, 8, 3);

    println!("free-electron determinant, N = {n}, L = {l}\n");

    let (vmc, _) = run_vmc(
        std::slice::from_mut(&mut engine),
        &mut walkers,
        &VmcParams {
            blocks: 4,
            steps_per_block: 15,
            tau: 0.3,
            measure_every: 1,
        },
        None,
        &mut RunControl::none(),
    );
    let (e_vmc, _, _) = vmc.energy.blocking();
    println!(
        "VMC : E = {:.10}  variance = {:.2e}  acceptance = {:.2}",
        e_vmc,
        vmc.energy.variance(),
        vmc.acceptance
    );

    let (dmc, _) = run_dmc(
        std::slice::from_mut(&mut engine),
        &mut walkers,
        &DmcParams {
            steps: 40,
            warmup: 5,
            tau: 0.02,
            target_population: 8,
            recompute_every: 10,
            seed: 77,
            ..Default::default()
        },
        None,
        &mut RunControl::none(),
    );
    let (e_dmc, err, tau_corr) = dmc.energy.blocking();
    println!(
        "DMC : E = {:.10} +- {:.1e}  tau_corr = {:.1}  final population = {}",
        e_dmc,
        err,
        tau_corr,
        dmc.population.last().unwrap()
    );

    // The exact eigenvalue, from the same deterministic k enumeration.
    use std::f64::consts::TAU;
    let mut exact = 0.0;
    let mut count = 0;
    'outer: for shell in 0i64.. {
        for ix in -shell..=shell {
            for iy in -shell..=shell {
                for iz in -shell..=shell {
                    if ix.abs().max(iy.abs()).max(iz.abs()) != shell {
                        continue;
                    }
                    let k2 = (TAU * ix as f64 / l).powi(2)
                        + (TAU * iy as f64 / l).powi(2)
                        + (TAU * iz as f64 / l).powi(2);
                    exact += 0.5 * k2;
                    count += 1;
                    if count == n {
                        break 'outer;
                    }
                }
            }
        }
    }
    println!("exact eigenstate energy: {exact:.10}");
    assert!((e_vmc - exact).abs() < 1e-7, "VMC off eigenvalue");
    assert!((e_dmc - exact).abs() < 1e-7, "DMC off eigenvalue");
    println!("\nzero-variance check passed: both drivers reproduce the eigenvalue.");
}
