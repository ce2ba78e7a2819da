//! Criterion bench: determinant-inverse updates — Sherman–Morrison rank-1
//! (the baseline `DetUpdate` of §8.4) versus the delayed Woodbury engine
//! at several delay depths, measured over full N-move sweeps so the
//! delayed engine's blocked flush cost is amortized realistically. An f32
//! Sherman–Morrison sweep at N = 192 covers the production precision at
//! NiO-32's orbital count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qmc_containers::Matrix;
use qmc_linalg::{
    det_ratio_row, sherman_morrison_update, transposed_inverse_log_det, DelayedInverse,
};
use std::hint::black_box;

fn well_conditioned(n: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 })
}

fn new_row(n: usize, k: usize) -> Vec<f64> {
    (0..n)
        .map(|j| 0.05 * (j as f64 - k as f64) + if j == k { 3.5 } else { 0.2 })
        .collect()
}

fn bench_determinant(c: &mut Criterion) {
    for &n in &[48usize, 192] {
        let a = well_conditioned(n, 9);
        let (minv_t, _, _) = transposed_inverse_log_det(&a).unwrap();
        let rows: Vec<Vec<f64>> = (0..n).map(|k| new_row(n, k)).collect();

        let mut group = c.benchmark_group(format!("det_update_N{n}"));
        group.bench_function(BenchmarkId::new("sweep", "sherman_morrison"), |b| {
            b.iter(|| {
                let mut m = minv_t.clone();
                for (k, v) in rows.iter().enumerate() {
                    let r = det_ratio_row(&m, k, v);
                    sherman_morrison_update(&mut m, k, v, r);
                }
                black_box(&m);
            });
        });
        for &delay in &[4usize, 16, 32] {
            group.bench_function(BenchmarkId::new("sweep", format!("delayed{delay}")), |b| {
                b.iter(|| {
                    let mut d = DelayedInverse::new(minv_t.clone(), delay);
                    let mut inv_row = vec![0.0f64; n];
                    for (k, v) in rows.iter().enumerate() {
                        black_box(d.ratio_with_inv_row(k, v, &mut inv_row));
                        d.accept(k, v);
                    }
                    d.flush();
                    black_box(d.minv_t());
                });
            });
        }
        group.finish();
    }

    // f32 is the production precision (mixed precision, §7.2).
    let n = 192;
    let (minv_t, _, _) = transposed_inverse_log_det(&well_conditioned(n, 9)).unwrap();
    let minv_t: Matrix<f32> = minv_t.cast();
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|k| new_row(n, k).into_iter().map(|x| x as f32).collect())
        .collect();
    let mut group = c.benchmark_group(format!("det_update_f32_N{n}"));
    group.bench_function(BenchmarkId::new("sweep", "sherman_morrison"), |b| {
        b.iter(|| {
            let mut m = minv_t.clone();
            for (k, v) in rows.iter().enumerate() {
                let r = det_ratio_row(&m, k, v);
                sherman_morrison_update(&mut m, k, v, r);
            }
            black_box(&m);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_determinant);
criterion_main!(benches);
