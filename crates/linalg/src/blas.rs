//! Minimal BLAS-like kernels used by the determinant engine.
//!
//! QMCPACK leans on vendor BLAS for the Sherman–Morrison (BLAS2) and delayed
//! (BLAS3) determinant updates; this workspace has no external BLAS, so we
//! provide the handful of kernels the determinant code needs as
//! contiguous-slice loops.
//!
//! [`axpy`] and [`scal`] are element-wise and vectorize. [`dot`] is a strict
//! serial `mul_add` chain: the compiler may not reassociate it, so one dot
//! runs at FMA latency, not throughput, and its result is the same on every
//! backend. Where several dots are independent, [`dot_rows`] runs them as
//! interleaved chains, which hides the latency without changing any sum.

use qmc_containers::{Matrix, Real};

/// Dot product of two equally sized slices.
#[inline]
pub fn dot<T: Real>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::ZERO;
    for (a, b) in x.iter().zip(y) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

/// `R` dot products of rows against one shared vector `v`, in one pass
/// over `v` with `R` independent accumulators.
///
/// Each accumulator runs in the same order as [`dot`], so entry `q` is
/// bitwise equal to `dot(rows[q], v)`; interleaving the chains only lets
/// the FMA unit overlap their latencies.
#[inline]
pub fn dot_rows<T: Real, const R: usize>(rows: [&[T]; R], v: &[T]) -> [T; R] {
    let n = v.len();
    debug_assert!(rows.iter().all(|r| r.len() == n));
    // Reslicing every row to `n` lets the compiler drop per-element bounds
    // checks in the loop.
    let rows = rows.map(|r| &r[..n]);
    let mut acc = [T::ZERO; R];
    for (i, &vi) in v.iter().enumerate() {
        for (a, r) in acc.iter_mut().zip(&rows) {
            *a = r[i].mul_add(vi, *a);
        }
    }
    acc
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Real>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (a, b) in x.iter().zip(y.iter_mut()) {
        *b = alpha.mul_add(*a, *b);
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal<T: Real>(alpha: T, x: &mut [T]) {
    for a in x.iter_mut() {
        *a *= alpha;
    }
}

/// General matrix-matrix product `C = alpha * A B + beta * C`.
///
/// Row-major ikj loop order: the innermost loop streams contiguous rows of
/// `B` and `C`, which vectorizes well and is cache-friendly for the sizes the
/// delayed-update engine uses (N x m with small m).
pub fn gemm<T: Real>(alpha: T, a: &Matrix<T>, b: &Matrix<T>, beta: T, c: &mut Matrix<T>) {
    assert_eq!(a.cols(), b.rows(), "gemm inner dimensions must match");
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    for i in 0..c.rows() {
        if beta == T::ZERO {
            c.row_mut(i).fill(T::ZERO);
        } else if beta != T::ONE {
            scal(beta, c.row_mut(i));
        }
        for k in 0..a.cols() {
            let aik = alpha * a[(i, k)];
            // Split borrows: rows of b and c never alias (distinct matrices).
            axpy(aik, b.row(k), c.row_mut(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, vals: &[f64]) -> Matrix<f64> {
        assert_eq!(vals.len(), rows * cols);
        Matrix::from_fn(rows, cols, |i, j| vals[i * cols + j])
    }

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        let mut z = y;
        axpy(2.0, &x, &mut z);
        assert_eq!(z, [6.0, 9.0, 12.0]);
        scal(0.5, &mut z);
        assert_eq!(z, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn dot_rows_is_bitwise_dot_per_row() {
        // Values whose sums round differently under reassociation.
        let v: Vec<f32> = (0..37).map(|i| 1.0 / (i as f32 + 0.3)).collect();
        let rows: Vec<Vec<f32>> = (0..3)
            .map(|q| {
                (0..37)
                    .map(|i| ((i * 7 + q * 13) % 11) as f32 - 5.1)
                    .collect()
            })
            .collect();
        let got = dot_rows([&rows[0][..], &rows[1][..], &rows[2][..]], &v);
        for (g, r) in got.iter().zip(&rows) {
            assert_eq!(g.to_bits(), dot(r, &v).to_bits());
        }
        assert_eq!(dot_rows::<f64, 0>([], &[1.0]), []);
    }

    #[test]
    fn gemm_matches_manual() {
        let a = mat(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = mat(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut c = Matrix::<f64>::zeros(2, 2);
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
        // beta accumulation
        gemm(1.0, &a, &b, 1.0, &mut c);
        assert_eq!(c[(0, 0)], 116.0);
    }
}
