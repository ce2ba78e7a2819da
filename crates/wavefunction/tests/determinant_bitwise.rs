//! The determinant's interleaved dot products against per-component
//! serial loops: `eval_grad`, `ratio_grad`, `accumulate_gl` and
//! `ratios_value_only` must return bitwise the values of one `mul_add`
//! chain per gradient component, Laplacian or quadrature point, in f32 and
//! f64, before and after an accepted Sherman–Morrison move.
//!
//! The reference rebuilds the determinant's inverse the way the
//! determinant does (LU in f64, cast to the working precision) and updates
//! it with the row-at-a-time Sherman–Morrison loop. Every result is an f64
//! (exact for an f32 chain), so its `to_bits` is compared.

use qmc_containers::{Matrix, Pos, Real, TinyVector};
use qmc_linalg::transposed_inverse_log_det;
use qmc_particles::{CrystalLattice, ParticleSet, Species};
use qmc_wavefunction::{CosineSpo, DetUpdateMode, DiracDeterminant, SpoSet, WaveFunctionComponent};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const L: f64 = 7.0;
const NEL: usize = 11;
/// More orbitals than electrons, so SPO rows are strided by `NS`, not `NEL`.
const NS: usize = 14;

fn serial_dot<T: Real>(x: &[T], y: &[T]) -> T {
    let mut acc = T::ZERO;
    for i in 0..x.len() {
        acc = x[i].mul_add(y[i], acc);
    }
    acc
}

fn assert_pos_bits(got: Pos<f64>, want: Pos<f64>, what: &str) {
    for d in 0..3 {
        assert_eq!(
            got[d].to_bits(),
            want[d].to_bits(),
            "{what} component {d}: {got:?} vs {want:?}"
        );
    }
}

/// Orbital values, gradient slabs and Laplacians at one position.
struct Vgl<T> {
    psi: Vec<T>,
    grad: Vec<T>,
    lap: Vec<T>,
}

impl<T: Real> Vgl<T> {
    fn at(spo: &mut CosineSpo<T>, pos: Pos<T>) -> Self {
        let mut out = Self {
            psi: vec![T::ZERO; NS],
            grad: vec![T::ZERO; 3 * NS],
            lap: vec![T::ZERO; NS],
        };
        spo.evaluate_vgl(pos, &mut out.psi, &mut out.grad, &mut out.lap);
        out
    }

    fn grad_row(&self, d: usize) -> &[T] {
        &self.grad[d * NS..d * NS + NEL]
    }

    /// One serial chain per gradient component against `inv`.
    fn grad_dot(&self, inv: &[T]) -> Pos<f64> {
        TinyVector([0, 1, 2].map(|d| serial_dot(self.grad_row(d), inv).to_f64()))
    }
}

/// Reference model of the determinant: its Slater rows and its inverse.
struct Reference<T: Real> {
    rows: Vec<Vgl<T>>,
    minv_t: Matrix<T>,
}

impl<T: Real> Reference<T> {
    fn new(spo: &mut CosineSpo<T>, p: &ParticleSet<T>) -> Self {
        let rows: Vec<Vgl<T>> = (0..NEL).map(|i| Vgl::at(spo, p.pos(i))).collect();
        let a = Matrix::from_fn(NEL, NEL, |i, j| rows[i].psi[j].to_f64());
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        Self {
            rows,
            minv_t: minv_t.cast(),
        }
    }

    /// Row-at-a-time Sherman–Morrison for replacing row `k` with `new`.
    fn accept(&mut self, k: usize, new: Vgl<T>) {
        let m = &mut self.minv_t;
        let v = &new.psi[..NEL];
        let inv_ratio = T::ONE / serial_dot(m.row(k), v);
        for j in (0..NEL).filter(|&j| j != k) {
            let c = -serial_dot(m.row(j), v) * inv_ratio;
            for i in 0..NEL {
                let rk = m[(k, i)];
                m[(j, i)] = c.mul_add(rk, m[(j, i)]);
            }
        }
        for i in 0..NEL {
            m[(k, i)] *= inv_ratio;
        }
        self.rows[k] = new;
    }

    fn check_eval_grad(&self, det: &mut DiracDeterminant<T>, p: &ParticleSet<T>) {
        for i in 0..NEL {
            let want = self.rows[i].grad_dot(self.minv_t.row(i));
            assert_pos_bits(det.eval_grad(p, i), want, "eval_grad");
        }
    }

    fn check_accumulate_gl(&self, det: &mut DiracDeterminant<T>, p: &mut ParticleSet<T>) {
        p.reset_gl();
        det.accumulate_gl(p);
        for i in 0..NEL {
            let inv = self.minv_t.row(i);
            let g = self.rows[i].grad_dot(inv);
            let lap = serial_dot(&self.rows[i].lap[..NEL], inv).to_f64();
            let (mut want_g, mut want_l) = (TinyVector::zero(), 0.0);
            want_g += g;
            want_l += lap - g.norm2();
            assert_pos_bits(p.g[i], want_g, "accumulate_gl gradient");
            assert_eq!(
                p.l[i].to_bits(),
                want_l.to_bits(),
                "accumulate_gl Laplacian"
            );
        }
    }

    fn check_ratio_grad(
        &self,
        det: &mut DiracDeterminant<T>,
        spo: &mut CosineSpo<T>,
        p: &mut ParticleSet<T>,
        iat: usize,
        newpos: Pos<T>,
    ) -> Vgl<T> {
        p.make_move(iat, newpos);
        let new = Vgl::at(spo, p.active_pos().unwrap().1);
        let inv = self.minv_t.row(iat);
        let ratio = serial_dot(inv, &new.psi[..NEL]).to_f64();
        let mut want = TinyVector::zero();
        want += TinyVector(new.grad_dot(inv).0.map(|g| g / ratio));
        let mut grad = TinyVector::zero();
        let got = det.ratio_grad(p, iat, &mut grad);
        assert_eq!(got.to_bits(), ratio.to_bits(), "ratio_grad ratio");
        assert_pos_bits(grad, want, "ratio_grad gradient");
        new
    }

    fn check_ratios_value_only(
        &self,
        det: &mut DiracDeterminant<T>,
        spo: &mut CosineSpo<T>,
        p: &ParticleSet<T>,
        iat: usize,
        points: &[Pos<T>],
    ) {
        let nq = points.len();
        let mut psi = vec![T::ZERO; nq * NS];
        spo.mw_evaluate_v(points, &mut psi);
        let inv = self.minv_t.row(iat);
        let mut got = vec![1.0; nq];
        assert!(det.ratios_value_only(p, iat, points, &mut got));
        for (q, g) in got.iter().enumerate() {
            let want = 1.0 * serial_dot(inv, &psi[q * NS..q * NS + NEL]).to_f64();
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "ratios_value_only point {q} of {nq}"
            );
        }
    }
}

fn random_pos<T: Real>(rng: &mut StdRng) -> Pos<T> {
    TinyVector([0; 3].map(|_| T::from_f64(rng.random::<f64>() * L)))
}

fn check<T: Real>() {
    let mut rng = StdRng::seed_from_u64(17);
    let electrons: Vec<Pos<f64>> = (0..NEL).map(|_| random_pos(&mut rng)).collect();
    let up = Species {
        name: "u".into(),
        charge: -1.0,
    };
    let mut p = ParticleSet::<T>::new("e", CrystalLattice::<T>::cubic(L), vec![(up, electrons)]);
    let mut spo = CosineSpo::<T>::new(NS, [L; 3]);
    let mut det = DiracDeterminant::new(
        Box::new(spo.clone()),
        0,
        NEL,
        DetUpdateMode::ShermanMorrison,
    );
    det.evaluate_log(&mut p);
    let mut reference = Reference::new(&mut spo, &p);

    reference.check_eval_grad(&mut det, &p);
    reference.check_accumulate_gl(&mut det, &mut p);
    // 12 points is the NLPP grid (full blocks only); 7 and 3 leave a
    // ragged block.
    for nq in [12, 7, 3] {
        let points: Vec<Pos<T>> = (0..nq).map(|_| random_pos(&mut rng)).collect();
        reference.check_ratios_value_only(&mut det, &mut spo, &p, 4, &points);
    }

    // Rejected then accepted moves; the accepted one updates the inverse.
    let rejected = random_pos(&mut rng);
    reference.check_ratio_grad(&mut det, &mut spo, &mut p, 2, rejected);
    det.restore(2);
    p.reject_move(2);
    let accepted = random_pos(&mut rng);
    let new = reference.check_ratio_grad(&mut det, &mut spo, &mut p, 5, accepted);
    det.accept_move(&p, 5);
    p.accept_move(5);
    reference.accept(5, new);

    reference.check_eval_grad(&mut det, &p);
    reference.check_accumulate_gl(&mut det, &mut p);
    let points: Vec<Pos<T>> = (0..12).map(|_| random_pos(&mut rng)).collect();
    reference.check_ratios_value_only(&mut det, &mut spo, &p, 5, &points);
}

#[test]
fn fused_determinant_chains_are_bitwise_serial_f32() {
    check::<f32>();
}

#[test]
fn fused_determinant_chains_are_bitwise_serial_f64() {
    check::<f64>();
}
