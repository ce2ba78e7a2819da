//! The row-blocked Sherman–Morrison update against the one-row-at-a-time
//! loop it replaces: every entry of the updated inverse must be bitwise
//! equal, in f32 and f64, for sizes around the block width and for moved
//! rows at both ends of, and inside, a block.
//!
//! The reference keeps its own serial dot so that a reassociated sum in
//! either `dot` or `dot_rows` shows up as a bit difference.

use qmc_containers::{Matrix, Real};
use qmc_linalg::{det_ratio_row, sherman_morrison_update, transposed_inverse_log_det};

/// Rows per block of the library's update (`SM_BLOCK`).
const R: usize = 8;

trait Bits: Real {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

fn serial_dot<T: Real>(x: &[T], y: &[T]) -> T {
    let mut acc = T::ZERO;
    for i in 0..x.len() {
        acc = x[i].mul_add(y[i], acc);
    }
    acc
}

/// The update as it was before row blocking: one dot, then one axpy, per
/// row `j != k`, then the scale of row `k`.
fn reference_update<T: Real>(m: &mut Matrix<T>, k: usize, v: &[T], ratio: T) {
    let n = m.rows();
    let inv_ratio = T::ONE / ratio;
    for j in 0..n {
        if j == k {
            continue;
        }
        let c = -serial_dot(m.row(j), v) * inv_ratio;
        for i in 0..n {
            let rk = m[(k, i)];
            m[(j, i)] = c.mul_add(rk, m[(j, i)]);
        }
    }
    for i in 0..n {
        m[(k, i)] *= inv_ratio;
    }
}

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }
}

fn check<T: Bits>(n: usize, k: usize) {
    let mut next = lcg(1000 * n as u64 + k as u64);
    let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 3.0 } else { 0.0 });
    let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
    let minv_t: Matrix<T> = minv_t.cast();
    let v: Vec<T> = (0..n)
        .map(|j| T::from_f64(next() + if j == k { 2.5 } else { 0.0 }))
        .collect();
    let ratio = det_ratio_row(&minv_t, k, &v);
    assert_eq!(ratio.bits(), serial_dot(minv_t.row(k), &v).bits());

    let mut got = minv_t.clone();
    sherman_morrison_update(&mut got, k, &v, ratio);
    let mut want = minv_t;
    reference_update(&mut want, k, &v, ratio);
    for i in 0..n {
        for j in 0..n {
            assert_eq!(
                got[(i, j)].bits(),
                want[(i, j)].bits(),
                "n={n} k={k} entry ({i},{j}): {} vs {}",
                got[(i, j)],
                want[(i, j)]
            );
        }
    }
}

fn check_all<T: Bits>() {
    for n in [1, 2, 3, 7, 8, 9, 16, 17, 33, 128, 192] {
        let mut ks = vec![0, R - 1, R, n / 2, n - 1];
        ks.retain(|&k| k < n);
        ks.sort_unstable();
        ks.dedup();
        for k in ks {
            check::<T>(n, k);
        }
    }
}

#[test]
fn blocked_update_is_bitwise_the_row_loop_f32() {
    check_all::<f32>();
}

#[test]
fn blocked_update_is_bitwise_the_row_loop_f64() {
    check_all::<f64>();
}
