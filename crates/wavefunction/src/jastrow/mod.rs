//! Jastrow correlation factors (Eq. 3 of the paper).
//!
//! `log psi_J = -sum u(r)` with cubic-B-spline functors `u`. Each factor
//! exists in two implementations mirroring the paper's ladder:
//!
//! * `*Ref` — the baseline store-everything policy: J2 keeps full `N x N`
//!   matrices of values, gradients (AoS) and Laplacians — the `5 N^2
//!   sizeof(T)` per walker of §6.1 — and updates row+column on acceptance.
//! * `*Soa` — the optimized compute-on-the-fly policy (§7.5): only
//!   per-electron accumulators (`5 N sizeof(T)`) are kept, and the
//!   vectorized batch kernels below recompute pair terms from the SoA
//!   distance-table rows when needed.

pub mod j1_ref;
pub mod j1_soa;
pub mod j2_ref;
pub mod j2_soa;

use qmc_bspline::CubicBspline1D;
use qmc_containers::{AlignedVec, Real};

pub use j1_ref::J1Ref;
pub use j1_soa::J1Soa;
pub use j2_ref::J2Ref;
pub use j2_soa::J2Soa;

/// Symmetric per-group-pair functor set for two-body Jastrows.
#[derive(Clone)]
pub struct PairFunctors<T: Real> {
    ngroups: usize,
    /// Row-major `[g1][g2]`, symmetric.
    functors: Vec<CubicBspline1D<T>>,
}

impl<T: Real> PairFunctors<T> {
    /// Builds from a closure giving the functor for each ordered pair;
    /// asserts symmetry is respected by construction (the closure is called
    /// once per unordered pair and mirrored).
    pub fn new(ngroups: usize, mut f: impl FnMut(usize, usize) -> CubicBspline1D<T>) -> Self {
        let mut functors: Vec<Option<CubicBspline1D<T>>> = vec![None; ngroups * ngroups];
        for a in 0..ngroups {
            for b in a..ngroups {
                let fu = f(a, b);
                functors[a * ngroups + b] = Some(fu.clone());
                functors[b * ngroups + a] = Some(fu);
            }
        }
        Self {
            ngroups,
            functors: functors.into_iter().map(|o| o.unwrap()).collect(),
        }
    }

    /// Number of particle groups covered.
    pub fn ngroups(&self) -> usize {
        self.ngroups
    }

    /// Functor for the (unordered) group pair `(a, b)`.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> &CubicBspline1D<T> {
        &self.functors[a * self.ngroups + b]
    }
}

/// Scratch rows of the NLPP virtual-particle path: one distance row per
/// quadrature point plus one displacement row per component, all
/// `stride` long. Empty (one null pointer in the component) until the
/// first quadrature, then grown to the quadrature order and reused, so
/// building an engine allocates nothing for it.
pub(crate) struct VirtualRows<T: Real>(Option<Box<AlignedVec<T>>>);

impl<T: Real> VirtualRows<T> {
    /// Unallocated scratch.
    pub(crate) fn new() -> Self {
        Self(None)
    }

    /// The `nq` distance rows (one slab) and the three displacement rows.
    /// Allocates only on the first call and when `nq` or `stride` grows.
    pub(crate) fn rows_mut(&mut self, nq: usize, stride: usize) -> (&mut [T], [&mut [T]; 3]) {
        let need = (nq + 3) * stride;
        if self.0.as_ref().is_some_and(|b| b.len() < need) {
            self.0 = None;
        }
        let buf = self
            .0
            .get_or_insert_with(|| AlignedVec::zeros(need).into())
            .as_mut_slice();
        let (dist, rest) = buf.split_at_mut(nq * stride);
        let (x, rest) = rest.split_at_mut(stride);
        let (y, rest) = rest.split_at_mut(stride);
        (dist, [x, y, &mut rest[..stride]])
    }
}

/// Vectorizable batch kernel: for each distance `d[j]`, computes
/// `u(d)`, `u'(d)/d` and the radial Laplacian term `u''(d) + 2 u'(d)/d`,
/// writing zero beyond the functor cutoff. The premultiplied `u'/d` form is
/// what the gradient accumulation needs (`grad = (u'/d) * dr`).
pub fn evaluate_vgl_batch<T: Real>(
    functor: &CubicBspline1D<T>,
    dists: &[T],
    u: &mut [T],
    du_over_d: &mut [T],
    lap: &mut [T],
) {
    let two = T::from_f64(2.0);
    for j in 0..dists.len() {
        let d = dists[j];
        if d < functor.r_cut() {
            let (v, dv, d2v) = functor.evaluate_vgl(d);
            let inv_d = T::ONE / d;
            u[j] = v;
            du_over_d[j] = dv * inv_d;
            lap[j] = d2v + two * dv * inv_d;
        } else {
            u[j] = T::ZERO;
            du_over_d[j] = T::ZERO;
            lap[j] = T::ZERO;
        }
    }
}

/// Value-only batch kernel: `u(d[j])`, zero beyond cutoff.
pub fn evaluate_v_batch<T: Real>(functor: &CubicBspline1D<T>, dists: &[T], u: &mut [T]) {
    for j in 0..dists.len() {
        let d = dists[j];
        u[j] = if d < functor.r_cut() {
            functor.evaluate(d)
        } else {
            T::ZERO
        };
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Simple repulsive e-e style functor for tests.
    pub fn test_functor(cusp: f64, rcut: f64) -> CubicBspline1D<f64> {
        CubicBspline1D::fit(
            move |r| -cusp * rcut / 2.0 * (1.0 - r / rcut).powi(2) / (1.0 + r),
            cusp,
            rcut,
            10,
        )
    }

    #[test]
    fn batch_kernels_match_scalar() {
        let f = test_functor(-0.5, 2.5);
        let dists = [0.3f64, 1.0, 2.4, 2.6, 0.01];
        let mut u = [0.0; 5];
        let mut dud = [0.0; 5];
        let mut lap = [0.0; 5];
        evaluate_vgl_batch(&f, &dists, &mut u, &mut dud, &mut lap);
        for j in 0..5 {
            if dists[j] < 2.5 {
                let (v, dv, d2v) = f.evaluate_vgl(dists[j]);
                assert!((u[j] - v).abs() < 1e-14);
                assert!((dud[j] - dv / dists[j]).abs() < 1e-12);
                assert!((lap[j] - (d2v + 2.0 * dv / dists[j])).abs() < 1e-12);
            } else {
                assert_eq!(u[j], 0.0);
                assert_eq!(dud[j], 0.0);
            }
        }
        let mut v_only = [0.0; 5];
        evaluate_v_batch(&f, &dists, &mut v_only);
        assert_eq!(v_only, u);
    }

    #[test]
    fn pair_functors_symmetric() {
        let pf = PairFunctors::new(2, |a, b| {
            test_functor(if a == b { -0.25 } else { -0.5 }, 2.0)
        });
        let d = 1.234;
        assert_eq!(pf.get(0, 1).evaluate(d), pf.get(1, 0).evaluate(d));
        assert_eq!(pf.ngroups(), 2);
    }
}
