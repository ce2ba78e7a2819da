//! Optimized one-body Jastrow: compute-on-the-fly over SoA AB rows.
//!
//! Keeps only per-electron accumulators; ions never move, so acceptance
//! touches a single electron's entries (no neighbour forward updates).

use super::{evaluate_v_batch, evaluate_vgl_batch, VirtualRows};
use crate::buffer::WalkerBuffer;
use crate::traits::WaveFunctionComponent;
use qmc_bspline::CubicBspline1D;
use qmc_containers::{padded_len, AlignedVec, Pos, Real, TinyVector, VectorSoaContainer};
use qmc_instrument::{add_flops_bytes, time_kernel, Kernel};
use qmc_particles::{DistTable, ParticleSet};

/// Optimized (SoA, compute-on-the-fly) one-body Jastrow factor.
pub struct J1Soa<T: Real> {
    table: usize,
    functors: Vec<CubicBspline1D<T>>,
    ion_groups: Vec<std::ops::Range<usize>>,
    nion: usize,
    vat: AlignedVec<T>,
    gat: VectorSoaContainer<T, 3>,
    lat: AlignedVec<T>,
    cur_u: AlignedVec<T>,
    cur_dud: AlignedVec<T>,
    cur_lap: AlignedVec<T>,
    /// Scratch rows of the NLPP virtual-particle path.
    virt: VirtualRows<T>,
    cur_vat: f64,
    cur_has_grad: bool,
    log_value: f64,
}

impl<T: Real> J1Soa<T> {
    /// Builds the factor over AB table `table` (SoA layout) with one
    /// functor per ion group of `ions`.
    pub fn new(
        p: &ParticleSet<T>,
        ions: &ParticleSet<T>,
        table: usize,
        functors: Vec<CubicBspline1D<T>>,
    ) -> Self {
        assert_eq!(functors.len(), ions.num_groups());
        let n = p.len();
        let nion = ions.len();
        let np = padded_len::<T>(nion);
        Self {
            table,
            functors,
            ion_groups: (0..ions.num_groups())
                .map(|g| ions.group_range(g))
                .collect(),
            nion,
            vat: AlignedVec::zeros(n),
            gat: VectorSoaContainer::new(n),
            lat: AlignedVec::zeros(n),
            cur_u: AlignedVec::zeros(np),
            cur_dud: AlignedVec::zeros(np),
            cur_lap: AlignedVec::zeros(np),
            virt: VirtualRows::new(),
            cur_vat: 0.0,
            cur_has_grad: false,
            log_value: 0.0,
        }
    }

    fn batch_vgl(&mut self, dists: &[T]) {
        let Self {
            functors,
            ion_groups,
            cur_u,
            cur_dud,
            cur_lap,
            nion,
            ..
        } = self;
        for (g, r) in ion_groups.iter().enumerate() {
            let (lo, hi) = (r.start, r.end);
            evaluate_vgl_batch(
                &functors[g],
                &dists[lo..hi],
                &mut cur_u.as_mut_slice()[lo..hi],
                &mut cur_dud.as_mut_slice()[lo..hi],
                &mut cur_lap.as_mut_slice()[lo..hi],
            );
        }
        let _ = nion;
    }

    fn batch_v(
        functors: &[CubicBspline1D<T>],
        ion_groups: &[std::ops::Range<usize>],
        dists: &[T],
        u: &mut [T],
    ) {
        for (g, r) in ion_groups.iter().enumerate() {
            let (lo, hi) = (r.start, r.end);
            evaluate_v_batch(&functors[g], &dists[lo..hi], &mut u[lo..hi]);
        }
    }
}

impl<T: Real> WaveFunctionComponent<T> for J1Soa<T> {
    fn name(&self) -> &'static str {
        "J1-soa"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn evaluate_log(&mut self, p: &mut ParticleSet<T>) -> f64 {
        let (n, nion) = (self.vat.len(), self.nion);
        time_kernel(Kernel::J1, || {
            let mut logpsi: f64 = 0.0;
            for i in 0..n {
                self.batch_vgl(p.table(self.table).as_ab_soa().dist_row(i));
                let t = p.table(self.table).as_ab_soa();
                let (dx, dy, dz) = (t.disp_row(0, i), t.disp_row(1, i), t.disp_row(2, i));
                let (mut v, mut gx, mut gy, mut gz, mut l) =
                    (T::ZERO, T::ZERO, T::ZERO, T::ZERO, T::ZERO);
                let cu = &self.cur_u.as_slice()[..nion];
                let cd = &self.cur_dud.as_slice()[..nion];
                let cl = &self.cur_lap.as_slice()[..nion];
                for a in 0..nion {
                    v += cu[a];
                    gx = cd[a].mul_add(dx[a], gx);
                    gy = cd[a].mul_add(dy[a], gy);
                    gz = cd[a].mul_add(dz[a], gz);
                    l += cl[a];
                }
                self.vat[i] = v;
                self.gat.set(i, TinyVector([gx, gy, gz]));
                self.lat[i] = -l;
                logpsi -= v.to_f64();
            }
            add_flops_bytes(
                Kernel::J1,
                (n * nion * 26) as u64,
                (n * nion * 6 * std::mem::size_of::<T>()) as u64,
            );
            for i in 0..n {
                let g: Pos<f64> = self.gat.get(i).cast();
                p.g[i] += g;
                p.l[i] += self.lat[i].to_f64();
            }
            self.log_value = logpsi;
            logpsi
        })
    }

    fn ratio(&mut self, p: &ParticleSet<T>, iat: usize) -> f64 {
        time_kernel(Kernel::J1, || {
            Self::batch_v(
                &self.functors,
                &self.ion_groups,
                p.table(self.table).as_ab_soa().temp_dist(),
                self.cur_u.as_mut_slice(),
            );
            let mut v = T::ZERO;
            for &u in &self.cur_u.as_slice()[..self.nion] {
                v += u;
            }
            self.cur_vat = v.to_f64();
            self.cur_has_grad = false;
            add_flops_bytes(
                Kernel::J1,
                (self.nion * 14) as u64,
                (self.nion * 2 * std::mem::size_of::<T>()) as u64,
            );
            (-(self.cur_vat - self.vat[iat].to_f64())).exp()
        })
    }

    /// NLPP quadrature fast path: all `Q` virtual electron-ion rows come
    /// from one [`qmc_particles::DistTableABSoA::virtual_dists`] call,
    /// then each point runs the same `batch_v` and ordered sum as
    /// [`Self::ratio`] under one J1 scope (bitwise identical factors).
    fn ratios_value_only(
        &mut self,
        p: &ParticleSet<T>,
        iat: usize,
        positions: &[Pos<T>],
        ratios: &mut [f64],
    ) -> bool {
        let DistTable::AbSoa(t) = p.table(self.table) else {
            return false;
        };
        let (nion, nq) = (self.nion, positions.len());
        let stride = self.cur_u.len();
        let (dist, disp) = self.virt.rows_mut(nq, stride);
        t.virtual_dists(positions, &mut *dist, stride, disp);
        time_kernel(Kernel::J1, || {
            let vat = self.vat[iat].to_f64();
            for (q, r) in ratios[..nq].iter_mut().enumerate() {
                Self::batch_v(
                    &self.functors,
                    &self.ion_groups,
                    &dist[q * stride..q * stride + nion],
                    self.cur_u.as_mut_slice(),
                );
                let mut v = T::ZERO;
                for &u in &self.cur_u.as_slice()[..nion] {
                    v += u;
                }
                *r *= (-(v.to_f64() - vat)).exp();
            }
            self.cur_has_grad = false;
            add_flops_bytes(
                Kernel::J1,
                (nq * nion * 14) as u64,
                (nq * nion * 2 * std::mem::size_of::<T>()) as u64,
            );
        });
        true
    }

    fn uses_virtual_rows(&self) -> bool {
        true
    }

    fn ratio_grad(&mut self, p: &ParticleSet<T>, iat: usize, grad: &mut Pos<f64>) -> f64 {
        time_kernel(Kernel::J1, || {
            let nion = self.nion;
            self.batch_vgl(p.table(self.table).as_ab_soa().temp_dist());
            let t = p.table(self.table).as_ab_soa();
            let (tx, ty, tz) = (t.temp_disp(0), t.temp_disp(1), t.temp_disp(2));
            let (mut v, mut gx, mut gy, mut gz) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
            let cu = &self.cur_u.as_slice()[..nion];
            let cd = &self.cur_dud.as_slice()[..nion];
            for a in 0..nion {
                v += cu[a];
                gx = cd[a].mul_add(tx[a], gx);
                gy = cd[a].mul_add(ty[a], gy);
                gz = cd[a].mul_add(tz[a], gz);
            }
            self.cur_vat = v.to_f64();
            self.cur_has_grad = true;
            *grad += TinyVector([gx.to_f64(), gy.to_f64(), gz.to_f64()]);
            (-(self.cur_vat - self.vat[iat].to_f64())).exp()
        })
    }

    fn eval_grad(&mut self, _p: &ParticleSet<T>, iat: usize) -> Pos<f64> {
        self.gat.get(iat).cast()
    }

    fn accept_move(&mut self, p: &ParticleSet<T>, iat: usize) {
        time_kernel(Kernel::J1, || {
            let nion = self.nion;
            if !self.cur_has_grad {
                self.batch_vgl(p.table(self.table).as_ab_soa().temp_dist());
            }
            let t = p.table(self.table).as_ab_soa();
            let (tx, ty, tz) = (t.temp_disp(0), t.temp_disp(1), t.temp_disp(2));
            let (mut gx, mut gy, mut gz, mut l) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
            let cd = &self.cur_dud.as_slice()[..nion];
            let cl = &self.cur_lap.as_slice()[..nion];
            for a in 0..nion {
                gx = cd[a].mul_add(tx[a], gx);
                gy = cd[a].mul_add(ty[a], gy);
                gz = cd[a].mul_add(tz[a], gz);
                l += cl[a];
            }
            self.log_value -= self.cur_vat - self.vat[iat].to_f64();
            self.vat[iat] = T::from_f64(self.cur_vat);
            self.gat.set(iat, TinyVector([gx, gy, gz]));
            self.lat[iat] = -l;
        });
    }

    fn restore(&mut self, _iat: usize) {
        self.cur_has_grad = false;
    }

    fn accumulate_gl(&mut self, p: &mut ParticleSet<T>) {
        for i in 0..self.vat.len() {
            let g: Pos<f64> = self.gat.get(i).cast();
            p.g[i] += g;
            p.l[i] += self.lat[i].to_f64();
        }
    }

    fn save_state(&mut self, buf: &mut WalkerBuffer<T>) {
        buf.put_slice(self.vat.as_slice());
        for d in 0..3 {
            buf.put_slice(self.gat.dim(d));
        }
        buf.put_slice(self.lat.as_slice());
        buf.put_f64(self.log_value);
    }

    fn load_state(&mut self, buf: &mut WalkerBuffer<T>) {
        buf.get_slice(self.vat.as_mut_slice());
        for d in 0..3 {
            buf.get_slice(self.gat.dim_mut(d));
        }
        buf.get_slice(self.lat.as_mut_slice());
        self.log_value = buf.get_f64();
    }

    fn log_value(&self) -> f64 {
        self.log_value
    }

    fn bytes(&self) -> usize {
        self.vat.len() * std::mem::size_of::<T>()
            + self.gat.bytes()
            + self.lat.len() * std::mem::size_of::<T>()
    }
}
