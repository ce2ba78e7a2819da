//! The NLPP virtual-particle path (`TrialWaveFunction::calc_ratios_v`)
//! against the per-point reference it replaces (`make_move` →
//! `calc_ratio` → `reject_move` at every quadrature point), for
//! Slater–J1–J2 wavefunctions on every kernel backend at both precisions.
//! Wavefunctions listing the Jastrows first (as the workload engines do)
//! must multiply the per-point factors determinants-first.
//!
//! The whole check is one test because it switches the process-wide
//! kernel backend, which the engines capture when they are built.

use qmc_bspline::CubicBspline1D;
use qmc_containers::{Pos, Real, TinyVector};
use qmc_instrument::{drain_thread_profile, Kernel, Profile, ALL_KERNELS};
use qmc_kernels::{set_backend, Backend};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{
    CosineSpo, DetUpdateMode, DiracDeterminant, J1Ref, J1Soa, J2Ref, J2Soa, PairFunctors,
    TrialWaveFunction, WaveFunctionComponent,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The particles fill a `CLUSTER`-wide corner of the cell, so every
/// quadrature point near an electron sees several Jastrow partners while
/// the far side of the cell is beyond every cutoff.
const L: f64 = 12.0;
const CLUSTER: f64 = 5.0;
const RCUT_EE: f64 = 3.0;
const RCUT_EI: f64 = 2.5;
const N: usize = 12;

fn functor(cusp: f64, rcut: f64) -> CubicBspline1D<f64> {
    CubicBspline1D::fit(
        move |r| -cusp * rcut / 3.0 * (1.0 - r / rcut).powi(2) * (-0.6 * r).exp(),
        cusp,
        rcut,
        10,
    )
}

fn species(name: &str, charge: f64) -> Species {
    Species {
        name: name.into(),
        charge,
    }
}

fn ion_positions() -> Vec<Vec<Pos<f64>>> {
    vec![
        vec![TinyVector([1.0, 1.0, 1.0]), TinyVector([4.0, 4.0, 1.5])],
        vec![TinyVector([4.0, 1.2, 4.0])],
    ]
}

fn electron_positions(seed: u64) -> Vec<Pos<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N)
        .map(|_| {
            TinyVector([
                rng.random::<f64>() * CLUSTER,
                rng.random::<f64>() * CLUSTER,
                rng.random::<f64>() * CLUSTER,
            ])
        })
        .collect()
}

/// The grid point farthest from every particle (at least one cutoff
/// away, which the caller asserts).
fn emptiest_point(particles: &[Pos<f64>]) -> (Pos<f64>, f64) {
    let lat = CrystalLattice::<f64>::cubic(L);
    let mut best = (TinyVector::zero(), 0.0);
    for ix in 0..20 {
        for iy in 0..20 {
            for iz in 0..20 {
                let p = TinyVector([ix as f64, iy as f64, iz as f64]) * (L / 20.0);
                let d = particles
                    .iter()
                    .map(|&q| lat.min_image(q - p).norm())
                    .fold(f64::INFINITY, f64::min);
                if d > best.1 {
                    best = (p, d);
                }
            }
        }
    }
    best
}

/// A Slater–J1–J2 wavefunction over tables of the given layout, with the
/// determinants first (or last); also returns the determinants' component
/// indices.
fn build<T: Real>(
    layout: Layout,
    r: &[Pos<f64>],
    dets_first: bool,
) -> (ParticleSet<T>, TrialWaveFunction<T>, [usize; 2]) {
    let lat = CrystalLattice::<T>::cubic(L);
    let ions_at = ion_positions();
    let ions = ParticleSet::new(
        "ion0",
        lat.clone(),
        vec![
            (species("Ni", 18.0), ions_at[0].clone()),
            (species("O", 6.0), ions_at[1].clone()),
        ],
    );
    let mut p = ParticleSet::new(
        "e",
        lat,
        vec![
            (species("u", -1.0), r[..N / 2].to_vec()),
            (species("d", -1.0), r[N / 2..].to_vec()),
        ],
    );
    let h_aa = p.add_table_aa(layout);
    let h_ab = p.add_table_ab(&ions, layout);
    let pf = PairFunctors::new(2, |a, b| {
        functor(if a == b { -0.25 } else { -0.5 }, RCUT_EE).cast::<T>()
    });
    let j1f = vec![
        functor(-1.2, RCUT_EI).cast::<T>(),
        functor(-0.7, RCUT_EI).cast::<T>(),
    ];
    let mut components: Vec<Box<dyn WaveFunctionComponent<T>>> = [0, N / 2]
        .into_iter()
        .map(|first| -> Box<dyn WaveFunctionComponent<T>> {
            Box::new(DiracDeterminant::new(
                Box::new(CosineSpo::<T>::new(N / 2, [L; 3])),
                first,
                N / 2,
                DetUpdateMode::ShermanMorrison,
            ))
        })
        .collect();
    match layout {
        Layout::Aos => {
            components.push(Box::new(J1Ref::new(&p, &ions, h_ab, j1f)));
            components.push(Box::new(J2Ref::new(&p, h_aa, pf)));
        }
        Layout::Soa => {
            components.push(Box::new(J1Soa::new(&p, &ions, h_ab, j1f)));
            components.push(Box::new(J2Soa::new(&p, h_aa, pf)));
        }
    }
    let dets = if dets_first {
        [0, 1]
    } else {
        components.rotate_left(2);
        [2, 3]
    };
    let mut psi = TrialWaveFunction::new();
    for c in components {
        psi.add(c);
    }
    psi.evaluate_log(&mut p);
    (p, psi, dets)
}

fn check<T: Real>(layout: Layout, dets_first: bool, tag: &str) {
    let r = electron_positions(7);
    let mut everyone = r.clone();
    everyone.extend(ion_positions().concat());
    let (far, gap) = emptiest_point(&everyone);
    assert!(
        gap > RCUT_EE.max(RCUT_EI),
        "{tag}: no point beyond the cutoffs"
    );
    let (mut p, mut psi, dets) = build::<T>(layout, &r, dets_first);
    let mut rng = StdRng::seed_from_u64(11);
    for iat in [0, 4, N / 2, N - 1] {
        // A quadrature-like shell around the electron, a point beyond
        // every cutoff and a point on top of another electron.
        let mut pts: Vec<Pos<T>> = (0..10)
            .map(|_| {
                let d = TinyVector([
                    rng.random::<f64>() - 0.5,
                    rng.random::<f64>() - 0.5,
                    rng.random::<f64>() - 0.5,
                ]);
                (r[iat] + d * (1.6 / d.norm())).cast::<T>()
            })
            .collect();
        pts.push(far.cast::<T>());
        pts.push(p.pos((iat + 3) % N));

        drain_thread_profile();
        let mut batched = vec![0.0; pts.len()];
        psi.calc_ratios_v(&mut p, iat, &pts, &mut batched);
        let prof_v = drain_thread_profile();
        assert!(p.active_pos().is_none(), "{tag}: active move left behind");

        let mut per_point = vec![0.0; pts.len()];
        for (q, &pos) in pts.iter().enumerate() {
            p.make_move(iat, pos);
            per_point[q] = if dets_first {
                psi.calc_ratio(&p, iat)
            } else {
                // Determinant factors first, then the Jastrows, each in
                // component order.
                let f: Vec<f64> = (0..4)
                    .map(|c| psi.component_mut(c).ratio(&p, iat))
                    .collect();
                let mut r = 1.0;
                for c in dets.into_iter().chain((0..4).filter(|c| !dets.contains(c))) {
                    r *= f[c];
                }
                r
            };
            psi.reject_move(iat);
            p.reject_move(iat);
        }
        let prof_ref = drain_thread_profile();

        for q in 0..pts.len() {
            assert!(batched[q].is_finite() && batched[q] != 0.0, "{tag}");
            assert_eq!(
                batched[q].to_bits(),
                per_point[q].to_bits(),
                "{tag} iat {iat} point {q}: {} vs {}",
                batched[q],
                per_point[q]
            );
        }
        check_model_counts(&prof_v, &prof_ref, layout, tag);
    }
}

/// Model flops agree on every kernel; bytes agree on the distance-table
/// and Jastrow kernels (the batched determinant reads its inverse row
/// once for all points, which its byte model records). The virtual path
/// opens one scope per table and Jastrow; the AoS fallback is unchanged.
fn check_model_counts(v: &Profile, reference: &Profile, layout: Layout, tag: &str) {
    for &k in &ALL_KERNELS {
        assert_eq!(v.get(k).flops, reference.get(k).flops, "{tag} {k:?} flops");
    }
    for k in [
        Kernel::DistTableAA,
        Kernel::DistTableAB,
        Kernel::J1,
        Kernel::J2,
    ] {
        let (a, b) = (v.get(k), reference.get(k));
        assert!(b.flops > 0, "{tag} {k:?} untimed");
        assert_eq!(a.bytes, b.bytes, "{tag} {k:?} bytes");
        match layout {
            Layout::Soa => assert_eq!(a.calls, 1, "{tag} {k:?} calls"),
            Layout::Aos => assert_eq!(a.calls, b.calls, "{tag} {k:?} calls"),
        }
    }
}

#[test]
fn virtual_ratios_are_bitwise_per_point_ratios() {
    let prev = Backend::current();
    for backend in Backend::ALL {
        set_backend(backend);
        for layout in [Layout::Soa, Layout::Aos] {
            for dets_first in [true, false] {
                let tag = format!("{backend}/{layout:?}/dets_first={dets_first}");
                check::<f64>(layout, dets_first, &format!("{tag}/f64"));
                check::<f32>(layout, dets_first, &format!("{tag}/f32"));
            }
        }
    }
    set_backend(prev);
}
