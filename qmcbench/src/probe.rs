//! Same-process probes: the machine's vector FMA peak and triad bandwidth
//! (the roofline ceilings), the cost of one `time_kernel` scope, and the
//! time of single kernel calls made through the crates' public entry
//! points on the workload's own table, positions and matrices.
//!
//! Flop and byte counts are the crates' model counts per call (the ones
//! `add_flops_bytes` records in the physics crates): computed, not
//! measured.

use crate::drive::Setup;
use crate::spec::{WorkloadDef, BACKEND};
use qmc_containers::{Matrix, Pos};
use qmc_instrument::{drain_thread_profile, time_kernel, Kernel};
use qmc_kernels::{bspline, distance, jastrow, lanes::F32Lane};
use qmc_linalg::{det_ratio_row, sherman_morrison_update, transposed_inverse_log_det};
use qmc_particles::CrystalLattice;
use std::hint::black_box;
use std::time::Instant;

/// Median of `v` (sorted in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (sorted in place); NaN when
/// empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let x = q * (v.len() - 1) as f64;
    let (i, f) = (x.floor() as usize, x - x.floor());
    let hi = v[(i + 1).min(v.len() - 1)];
    v[i] + f * (hi - v[i])
}

/// The roofline ceilings of one thread, measured in this process.
#[derive(Clone, Copy, Debug)]
pub struct Machine {
    /// Single-precision FMA peak of one thread through `F32Lane`, GFLOP/s.
    pub fma_sp_gflops: f64,
    /// Triad bandwidth of one thread, GB/s (3 arrays x 8 bytes per element,
    /// write-allocate traffic not counted).
    pub triad_gbs: f64,
    /// Last-level cache size read from sysfs, bytes.
    pub llc_bytes: u64,
    /// Size of each triad array, bytes (at least 4x `llc_bytes`).
    pub triad_array_bytes: u64,
}

impl Machine {
    /// Measures both ceilings. Each triad array is at least four times the
    /// last-level cache.
    pub fn probe() -> Self {
        let llc_bytes = llc_bytes().unwrap_or(64 << 20);
        let n = (4 * llc_bytes).div_ceil(8) as usize;
        Self {
            fma_sp_gflops: fma_peak_sp(),
            triad_gbs: triad_gbs(n),
            llc_bytes,
            triad_array_bytes: (n * 8) as u64,
        }
    }

    /// Achieved over attainable rate for a kernel doing `flops` and moving
    /// `bytes` (model counts) in `ns`.
    pub fn roofline(&self, flops: f64, bytes: f64, ns: f64) -> f64 {
        let attainable = self.fma_sp_gflops.min(flops / bytes * self.triad_gbs);
        flops / ns / attainable
    }
}

/// Size of the highest-level CPU cache in sysfs, in bytes.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let Ok(v) = digits.parse::<u64>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, v * mult));
        }
    }
    best.map(|(_, b)| b)
}

/// Single-thread f32 FMA peak through the kernel library's 16-wide lane
/// type: twelve independent accumulator chains hide the FMA latency.
fn fma_peak_sp() -> f64 {
    const CHAINS: usize = 12;
    let iters = 2_000_000usize;
    let a = black_box(F32Lane::splat(1.0e-7));
    let b = black_box(F32Lane::splat(1.0e-7));
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = [F32Lane::splat(1.0); CHAINS];
        let t = Instant::now();
        for _ in 0..iters {
            for x in &mut acc {
                *x = x.fma(a, b);
            }
        }
        let dt = t.elapsed().as_secs_f64();
        black_box(&acc);
        best = best.max((iters * CHAINS * 16 * 2) as f64 / dt / 1e9);
    }
    best
}

#[inline(never)]
fn triad(a: &mut [f64], b: &[f64], c: &[f64]) {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = b + 0.5 * c;
    }
}

/// Single-thread triad bandwidth over three arrays of `n` doubles: median
/// of five passes after one pass that faults the pages in.
fn triad_gbs(n: usize) -> f64 {
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    triad(&mut a, &b, &c);
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            triad(&mut a, black_box(&b), black_box(&c));
            let dt = t.elapsed().as_secs_f64();
            black_box(&a);
            (3 * n * 8) as f64 / dt / 1e9
        })
        .collect();
    median(&mut rates)
}

/// Median ns per call of `f` over nine batches of about 5 ms each.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..16 {
        f(i);
    }
    let est = t.elapsed().as_nanos() as f64 / 16.0;
    let batch = ((5e6 / est.max(1.0)) as usize).clamp(1, 1 << 22);
    let mut per: Vec<f64> = (0..9)
        .map(|r| {
            let t = Instant::now();
            for i in 0..batch {
                f(r * batch + i);
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&mut per)
}

/// Cost of one no-op `qmc_instrument::time_kernel` scope, ns.
pub fn scope_ns() -> f64 {
    let ns = ns_per_call(|i| {
        time_kernel(Kernel::Other, || black_box(i));
    });
    drain_thread_profile();
    ns
}

/// One kernel probe: ns per call and the model flops and bytes per call.
#[derive(Clone, Copy, Debug)]
pub struct KernelProbe {
    /// Metric stem, e.g. `kernels.bspline_v`.
    pub name: &'static str,
    /// Median ns per call.
    pub ns: f64,
    /// Model flops per call.
    pub flops: f64,
    /// Model bytes per call (computed).
    pub bytes: f64,
}

/// Times the public kernel entry points on the workload's own table,
/// electron positions and spin-up Slater matrix.
pub fn kernels(def: &WorkloadDef, setup: &Setup) -> (Vec<KernelProbe>, bool) {
    let table = setup.workload.table_f32();
    let view = table.view();
    let lat = CrystalLattice::<f32>::orthorhombic(def.benchmark.spec().supercell(def.size));
    let pos: Vec<Pos<f32>> = setup
        .workload
        .initial_positions()
        .iter()
        .map(|p| p.cast())
        .collect();
    let n = pos.len();
    let ns = view.num_splines;
    let sz = 4.0; // bytes per f32
    let us: Vec<[f32; 3]> = pos.iter().map(|&p| lat.to_frac(p).0).collect();
    let u = |i: usize| us[i % n];
    let (gmat, lapmet) = (lat.grad_transform(), lat.laplacian_metric());
    let (mut psi, mut grad, mut hess) =
        (vec![0f32; 4 * ns], vec![0f32; 12 * ns], vec![0f32; 6 * ns]);
    let mut out = Vec::new();
    let mut probe = |name, flops: usize, bytes: f64, ns: f64| {
        out.push(KernelProbe {
            name,
            ns,
            flops: flops as f64,
            bytes,
        });
    };

    let t = ns_per_call(|i| {
        bspline::evaluate_v(BACKEND, &view, u(i), &mut psi);
        black_box(&psi);
    });
    probe("kernels.bspline_v", 128 * ns, 64.0 * ns as f64 * sz, t);
    let t = ns_per_call(|i| {
        bspline::evaluate_vgh(BACKEND, &view, u(i), &mut psi, &mut grad, &mut hess);
        black_box((&psi, &grad, &hess));
    });
    probe(
        "kernels.bspline_vgh",
        64 * 20 * ns,
        74.0 * ns as f64 * sz,
        t,
    );
    let t = ns_per_call(|i| {
        bspline::evaluate_vgl(
            BACKEND,
            &view,
            u(i),
            &gmat,
            &lapmet,
            &mut psi,
            &mut grad,
            &mut hess,
        );
        black_box((&psi, &grad, &hess));
    });
    probe(
        "kernels.bspline_vgl",
        64 * 14 * ns,
        325.0 * ns as f64 * sz,
        t,
    );
    let batch: Vec<[f32; 3]> = (0..4).map(|i| us[i * n / 4]).collect();
    let t = ns_per_call(|_| {
        bspline::mw_evaluate_vgl(
            BACKEND, &view, &batch, &gmat, &lapmet, &mut psi, &mut grad, &mut hess,
        );
        black_box((&psi, &grad, &hess));
    });
    probe(
        "kernels.bspline_mw_vgl",
        4 * 64 * 14 * ns,
        4.0 * 325.0 * ns as f64 * sz,
        t,
    );

    let xs: Vec<f32> = pos.iter().map(|p| p[0]).collect();
    let ys: Vec<f32> = pos.iter().map(|p| p[1]).collect();
    let zs: Vec<f32> = pos.iter().map(|p| p[2]).collect();
    let (mut dist, mut dx, mut dy, mut dz) =
        (vec![0f32; n], vec![0f32; n], vec![0f32; n], vec![0f32; n]);
    let t = ns_per_call(|i| {
        let p = pos[i % n];
        distance::distance_row(
            BACKEND,
            &lat,
            &xs,
            &ys,
            &zs,
            p.0,
            n,
            &mut dist,
            [&mut dx, &mut dy, &mut dz],
        );
        black_box(&dist);
    });
    probe("kernels.distance_row", 18 * n, 7.0 * n as f64 * sz, t);
    let ju: Vec<f32> = dist.iter().map(|r| (-r).exp()).collect();
    let jd: Vec<f32> = dist.iter().map(|r| -(-r).exp() / r.max(1e-3)).collect();
    let jl: Vec<f32> = dist
        .iter()
        .map(|r| (-r).exp() * (1.0 - 2.0 / r.max(1e-3)))
        .collect();
    let t = ns_per_call(|_| {
        black_box(jastrow::j2_row_vgl(
            BACKEND, &ju, &jd, &jl, &dx, &dy, &dz, n,
        ));
    });
    probe("kernels.j2_row_vgl", 26 * n, 6.0 * n as f64 * sz, t);

    // Spin-up Slater matrix A[i][j] = phi_j(r_i) and orbital rows at
    // displaced positions for the ratio/update probes.
    let nh = n / 2;
    let row = |p: [f32; 3]| {
        let mut v = vec![0f32; ns];
        bspline::evaluate_v(BACKEND, &view, p, &mut v);
        v.truncate(nh);
        v
    };
    let rows: Vec<Vec<f32>> = us[..nh].iter().map(|&p| row(p)).collect();
    let moved: Vec<Vec<f32>> = us[..nh]
        .iter()
        .map(|p| row([p[0] + 0.01, p[1] - 0.01, p[2] + 0.005]))
        .collect();
    let a = Matrix::from_fn(nh, nh, |i, j| rows[i][j]);
    let (minv, invertible) = match transposed_inverse_log_det(&a) {
        Ok((m, _, _)) => (m, true),
        Err(_) => (Matrix::identity(nh), false),
    };
    let t = ns_per_call(|i| {
        black_box(det_ratio_row(&minv, i % nh, &moved[i % nh]));
    });
    probe("linalg.det_ratio", 2 * nh, 2.0 * nh as f64 * sz, t);
    let mut m = minv.clone();
    let t = ns_per_call(|i| {
        // Restart from the pristine inverse every sweep over the rows so
        // repeated updates never drift far from a well-conditioned matrix.
        let k = i % nh;
        if k == 0 {
            m = minv.clone();
        }
        let ratio = det_ratio_row(&m, k, &moved[k]);
        sherman_morrison_update(&mut m, k, &moved[k], ratio);
        black_box(&m);
    });
    probe(
        "linalg.sm_update",
        2 * nh * nh,
        3.0 * (nh * nh) as f64 * sz,
        t,
    );
    drain_thread_profile();
    (out, invertible)
}
