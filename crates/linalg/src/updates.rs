//! Determinant ratios and Sherman–Morrison rank-1 inverse updates.
//!
//! Convention (same as QMCPACK): the Slater matrix is `A[i][j] = phi_j(r_i)`
//! (row per electron, column per orbital). The engine stores the *transposed
//! inverse* `M = (A^{-1})^T`, i.e. `M[k][j] = A^{-1}[j][k]`, so that both the
//! determinant ratio for moving electron `k` (Eq. 6 of the paper) and the
//! gradient ratio are contiguous dot products against row `k` of `M`.

use crate::blas::{axpy, dot, dot_rows, scal};
use qmc_containers::{Matrix, Real};

/// Determinant ratio `det A' / det A` when row `k` of `A` is replaced by the
/// orbital vector `v` (`v[j] = phi_j(r_k')`).
///
/// By the matrix determinant lemma this is `v . column_k(A^{-1})`, a single
/// contiguous dot product in the transposed-inverse storage.
#[inline]
pub fn det_ratio_row<T: Real>(minv_t: &Matrix<T>, k: usize, v: &[T]) -> T {
    dot(minv_t.row(k), v)
}

/// Rows per interleaved block in [`sherman_morrison_update`]: enough
/// independent FMA chains to cover the FMA latency, few enough that their
/// accumulators stay in registers.
const SM_BLOCK: usize = 8;

/// Sherman–Morrison update of the transposed inverse after *accepting* the
/// replacement of row `k` of `A` by `v`, with `ratio` the value returned by
/// [`det_ratio_row`] for this move.
///
/// Derivation in transposed storage: with `w = M v` (so `w[k] == ratio`),
/// `M'.row(j) = M.row(j) - (w[j]/ratio) M.row(k)` for `j != k` and
/// `M'.row(k) = M.row(k) / ratio`.
pub fn sherman_morrison_update<T: Real>(minv_t: &mut Matrix<T>, k: usize, v: &[T], ratio: T) {
    let n = minv_t.rows();
    debug_assert_eq!(v.len(), n);
    let inv_ratio = T::ONE / ratio;
    // Allocation-free: the rows j != k go in blocks of SM_BLOCK. A block's
    // w[j] = dot(M.row(j), v) run as interleaved chains (`dot_rows`, each in
    // `dot`'s order), then the block's rows are updated. Row j is only read
    // before its own update and row k stays untouched until the final
    // scaling, so this is bitwise identical to materializing w = M v up
    // front and to one `dot` + `axpy` per row. A ragged last block uses the
    // plain `dot`.
    let mut block = [0usize; SM_BLOCK];
    let mut others = (0..n).filter(|&j| j != k);
    loop {
        let mut len = 0;
        for (slot, j) in block.iter_mut().zip(&mut others) {
            *slot = j;
            len += 1;
        }
        if len < SM_BLOCK {
            for &j in &block[..len] {
                let c = -dot(minv_t.row(j), v) * inv_ratio;
                let (rk, rj) = minv_t.two_rows_mut(k, j);
                axpy(c, rk, rj);
            }
            break;
        }
        let w = dot_rows(block.map(|j| minv_t.row(j)), v);
        for (&j, &wj) in block.iter().zip(&w) {
            let (rk, rj) = minv_t.two_rows_mut(k, j);
            axpy(-wj * inv_ratio, rk, rj);
        }
    }
    scal(inv_ratio, minv_t.row_mut(k));
}

/// Builds the transposed inverse `(A^{-1})^T` together with
/// `(log|det A|, sign)` via LU. This is the from-scratch path used at setup
/// and for the periodic mixed-precision recompute.
pub fn transposed_inverse_log_det<T: Real>(
    a: &Matrix<T>,
) -> Result<(Matrix<T>, f64, f64), crate::lu::SingularMatrix> {
    let (inv, log, sign) = crate::lu::invert_with_log_det(a)?;
    let n = a.rows();
    let minv_t = Matrix::from_fn(n, n, |i, j| inv[(j, i)]);
    Ok((minv_t, log, sign))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactor;

    fn test_matrix(n: usize, seed: u64) -> Matrix<f64> {
        // Simple deterministic LCG fill, diagonally dominated for conditioning.
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_fn(n, n, |i, j| next() + if i == j { 3.0 } else { 0.0 })
    }

    #[test]
    fn ratio_matches_determinant_quotient() {
        let n = 7;
        let a = test_matrix(n, 1);
        let (minv_t, log, sign) = transposed_inverse_log_det(&a).unwrap();
        let k = 3;
        let v: Vec<f64> = (0..n)
            .map(|j| 0.3 * j as f64 + if j == k { 2.0 } else { 0.7 })
            .collect();

        let ratio = det_ratio_row(&minv_t, k, &v);

        let mut a2 = a.clone();
        a2.row_mut(k).copy_from_slice(&v);
        let (log2, sign2) = LuFactor::new(&a2).unwrap().log_abs_det();
        let expected = sign2 * sign * (log2 - log).exp();
        assert!(
            (ratio - expected).abs() < 1e-9 * expected.abs().max(1.0),
            "ratio {ratio} vs {expected}"
        );
    }

    #[test]
    fn sherman_morrison_matches_full_reinversion() {
        let n = 9;
        let mut a = test_matrix(n, 2);
        let (mut minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();

        // Accept a chain of row replacements, as in a PbyP sweep.
        for k in [0usize, 4, 8, 2] {
            let v: Vec<f64> = (0..n)
                .map(|j| 0.1 * (j as f64 - k as f64) + if j == k { 2.5 } else { 0.4 })
                .collect();
            let ratio = det_ratio_row(&minv_t, k, &v);
            sherman_morrison_update(&mut minv_t, k, &v, ratio);
            a.row_mut(k).copy_from_slice(&v);
        }

        let (fresh, _, _) = transposed_inverse_log_det(&a).unwrap();
        assert!(minv_t.max_abs_diff(&fresh) < 1e-9);
    }

    #[test]
    fn unit_ratio_for_identical_row() {
        let n = 5;
        let a = test_matrix(n, 3);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let v: Vec<f64> = a.row(2).to_vec();
        let ratio = det_ratio_row(&minv_t, 2, &v);
        assert!((ratio - 1.0).abs() < 1e-10);
    }
}
