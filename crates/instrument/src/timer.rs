//! Per-kernel scoped timers.
//!
//! Reproduces the role of QMCPACK's timer framework / Intel VTune in the
//! paper: every hot kernel (Fig. 2 / Fig. 7 categories) accumulates wall
//! time and call counts into thread-local slots; worker threads drain their
//! local profile into a shared one at block boundaries, so the timing path
//! itself is lock-free and cheap.
//!
//! A timed scope costs two reads of the timestamp counter (`rdtsc` on
//! `x86_64`, `Instant` elsewhere) and plain adds into `const`-initialised
//! thread-local cells. Ticks become nanoseconds only at
//! [`drain_thread_profile`], from the ratio of elapsed `Instant` time to
//! elapsed ticks since one process-wide anchor taken at first use, so no
//! calibration loop ever runs inside a timed run.

use std::cell::Cell;

/// Hot-spot categories used in the paper's profiles (Fig. 2 and Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Kernel {
    /// Electron-electron (AA) distance table update/computation.
    DistTableAA,
    /// Electron-ion (AB) distance table update/computation.
    DistTableAB,
    /// One-body Jastrow evaluation.
    J1,
    /// Two-body Jastrow evaluation.
    J2,
    /// B-spline SPO value-only evaluation (NLPP ratio path).
    BsplineV,
    /// B-spline SPO value+gradient+Hessian evaluation.
    BsplineVGH,
    /// Determinant-side SPO value/gradient/laplacian assembly.
    SpoVGL,
    /// Batched (multi-walker) fused B-spline value/gradient/Laplacian
    /// evaluation — the crowd-path SPO kernel.
    BsplineMwVGL,
    /// Determinant ratio evaluation (dot against the inverse row).
    DetRatio,
    /// Sherman-Morrison / delayed inverse update.
    DetUpdate,
    /// Non-local pseudopotential quadrature.
    Nlpp,
    /// Coulomb interaction evaluation.
    Coulomb,
    /// Everything else (driver, RNG, branching, ...).
    Other,
}

/// All kernels in display order. The array length is tied to the enum via
/// `Kernel::Other` (the last variant), so adding a variant without listing
/// it here is a compile error rather than a silently truncated profile.
pub const ALL_KERNELS: [Kernel; Kernel::Other as usize + 1] = [
    Kernel::DistTableAA,
    Kernel::DistTableAB,
    Kernel::J1,
    Kernel::J2,
    Kernel::BsplineV,
    Kernel::BsplineVGH,
    Kernel::SpoVGL,
    Kernel::BsplineMwVGL,
    Kernel::DetRatio,
    Kernel::DetUpdate,
    Kernel::Nlpp,
    Kernel::Coulomb,
    Kernel::Other,
];

/// Number of kernel categories, derived from [`ALL_KERNELS`] (never
/// hand-maintained).
pub const NUM_KERNELS: usize = ALL_KERNELS.len();

// Compile-time check: ALL_KERNELS[i] must sit at discriminant i, so the
// array both covers every variant exactly once and stays in enum order.
const _: () = {
    let mut i = 0;
    while i < NUM_KERNELS {
        assert!(ALL_KERNELS[i] as usize == i, "ALL_KERNELS out of order");
        i += 1;
    }
};

impl Kernel {
    /// Short label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::DistTableAA => "DistTable-AA",
            Kernel::DistTableAB => "DistTable-AB",
            Kernel::J1 => "J1",
            Kernel::J2 => "J2",
            Kernel::BsplineV => "Bspline-v",
            Kernel::BsplineVGH => "Bspline-vgh",
            Kernel::SpoVGL => "SPO-vgl",
            Kernel::BsplineMwVGL => "Bspline-mw-vgl",
            Kernel::DetRatio => "DetRatio",
            Kernel::DetUpdate => "DetUpdate",
            Kernel::Nlpp => "NLPP",
            Kernel::Coulomb => "Coulomb",
            Kernel::Other => "Other",
        }
    }
}

/// Accumulated statistics for one kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Total wall time in nanoseconds.
    pub nanos: u64,
    /// Number of timed scopes.
    pub calls: u64,
    /// Model-counted floating-point operations (see `counters`).
    pub flops: u64,
    /// Model-counted bytes moved to/from memory.
    pub bytes: u64,
}

impl KernelStats {
    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.nanos += other.nanos;
        self.calls += other.calls;
        self.flops += other.flops;
        self.bytes += other.bytes;
    }

    /// Seconds of accumulated wall time.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    /// Arithmetic intensity in FLOP/byte (`None` when no bytes recorded).
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        (self.bytes > 0).then(|| self.flops as f64 / self.bytes as f64)
    }

    /// Achieved GFLOP/s (`None` when no time recorded).
    pub fn gflops(&self) -> Option<f64> {
        (self.nanos > 0).then(|| self.flops as f64 / self.nanos as f64)
    }
}

/// A full per-kernel profile.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    stats: [KernelStats; NUM_KERNELS],
}

impl Profile {
    /// Stats for one kernel.
    pub fn get(&self, k: Kernel) -> &KernelStats {
        &self.stats[k as usize]
    }

    /// Mutable stats for one kernel.
    pub fn get_mut(&mut self, k: Kernel) -> &mut KernelStats {
        &mut self.stats[k as usize]
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &Profile) {
        for i in 0..NUM_KERNELS {
            self.stats[i].merge(&other.stats[i]);
        }
    }

    /// Total timed seconds across all kernels.
    pub fn total_seconds(&self) -> f64 {
        self.stats.iter().map(KernelStats::seconds).sum()
    }

    /// Normalized share of each kernel (sums to 1 when any time recorded).
    pub fn normalized(&self) -> Vec<(Kernel, f64)> {
        let total = self.total_seconds();
        ALL_KERNELS
            .iter()
            .map(|&k| {
                let f = if total > 0.0 {
                    self.get(k).seconds() / total
                } else {
                    0.0
                };
                (k, f)
            })
            .collect()
    }

    /// Renders the hot-spot profile as an aligned text table.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let total = self.total_seconds();
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10} {:>8} {:>10} {:>10}",
            "kernel", "time(s)", "calls", "share", "AI(F/B)", "GFLOP/s"
        );
        for &k in &ALL_KERNELS {
            let s = self.get(k);
            if s.calls == 0 && s.nanos == 0 {
                continue;
            }
            let share = if total > 0.0 {
                s.seconds() / total * 100.0
            } else {
                0.0
            };
            let ai = s
                .arithmetic_intensity()
                .map_or_else(|| "-".into(), |x| format!("{x:.2}"));
            let gf = s.gflops().map_or_else(|| "-".into(), |x| format!("{x:.2}"));
            let _ = writeln!(
                out,
                "{:<14} {:>10.4} {:>10} {:>7.1}% {:>10} {:>10}",
                k.label(),
                s.seconds(),
                s.calls,
                share,
                ai,
                gf
            );
        }
        out
    }
}

/// A shared profile plus per-group (worker-thread or crowd) sub-profiles.
///
/// Drivers hold one of these behind a mutex; each worker drains its
/// thread-local profile into its own group at block boundaries, and the
/// group merge also feeds the aggregate, so `total` is always the sum of
/// the groups plus any ungrouped (coordinator) time.
#[derive(Clone, Debug, Default)]
pub struct ProfileSet {
    /// Aggregate over all groups and the coordinator.
    pub total: Profile,
    /// One profile per worker thread / crowd, in chunk order.
    pub groups: Vec<Profile>,
}

impl ProfileSet {
    /// A set with `n` empty groups.
    pub fn with_groups(n: usize) -> Self {
        Self {
            total: Profile::default(),
            groups: vec![Profile::default(); n],
        }
    }

    /// Merges `p` into group `g` and the aggregate.
    pub fn merge_group(&mut self, g: usize, p: &Profile) {
        self.groups[g].merge(p);
        self.total.merge(p);
    }

    /// Merges ungrouped (coordinator-thread) time into the aggregate only.
    pub fn merge_total(&mut self, p: &Profile) {
        self.total.merge(p);
    }
}

/// One kernel's thread-local accumulators; `ticks` are raw clock ticks,
/// converted to nanoseconds when the thread's profile is drained.
struct Slot {
    ticks: Cell<u64>,
    calls: Cell<u64>,
    flops: Cell<u64>,
    bytes: Cell<u64>,
}

impl Slot {
    const fn new() -> Self {
        Self {
            ticks: Cell::new(0),
            calls: Cell::new(0),
            flops: Cell::new(0),
            bytes: Cell::new(0),
        }
    }
}

thread_local! {
    static LOCAL: [Slot; NUM_KERNELS] = const { [const { Slot::new() }; NUM_KERNELS] };
}

#[inline]
fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// Times the closure under kernel `k`, accumulating into the thread-local
/// profile.
#[inline]
pub fn time_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    clock::anchor();
    let start = clock::ticks();
    let r = f();
    // Saturating: a thread migrated to a core whose counter lags records
    // zero rather than a wrapped-around eternity.
    let ticks = clock::ticks().saturating_sub(start);
    LOCAL.with(|slots| {
        let s = &slots[k as usize];
        bump(&s.ticks, ticks);
        bump(&s.calls, 1);
    });
    r
}

/// Records model-counted FLOPs and bytes for kernel `k` (no timing).
#[inline]
pub fn add_flops_bytes(k: Kernel, flops: u64, bytes: u64) {
    LOCAL.with(|slots| {
        let s = &slots[k as usize];
        bump(&s.flops, flops);
        bump(&s.bytes, bytes);
    });
}

/// Takes and resets the calling thread's accumulated profile. Each worker
/// thread calls this at the end of its walker block and merges the result
/// into a shared profile.
pub fn drain_thread_profile() -> Profile {
    let ns_per_tick = clock::ns_per_tick();
    LOCAL.with(|slots| {
        let mut p = Profile::default();
        for (s, out) in slots.iter().zip(p.stats.iter_mut()) {
            *out = KernelStats {
                nanos: (s.ticks.take() as f64 * ns_per_tick).round() as u64,
                calls: s.calls.take(),
                flops: s.flops.take(),
                bytes: s.bytes.take(),
            };
        }
        p
    })
}

/// The timestamp counter: a constant-rate tick on every `x86_64` the
/// kernels target, read in a few cycles without a system call.
#[cfg(target_arch = "x86_64")]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// `(Instant, ticks)` taken together the first time a scope is timed
    /// (or a profile drained).
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();

    #[inline]
    pub(super) fn ticks() -> u64 {
        // SAFETY: `rdtsc` only reads the timestamp counter; it has no
        // memory operands and no preconditions.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// An `Instant` and the tick count at the same moment: the midpoint
    /// of the ticks read around the `Instant`, keeping the tightest of
    /// three reads (a preempted read brackets a wide gap).
    fn paired_read() -> (Instant, u64) {
        let mut best = (Instant::now(), 0, u64::MAX);
        for _ in 0..3 {
            let t0 = ticks();
            let now = Instant::now();
            let t1 = ticks();
            let gap = t1.saturating_sub(t0);
            if gap < best.2 {
                best = (now, t0 + gap / 2, gap);
            }
        }
        (best.0, best.1)
    }

    #[inline]
    pub(super) fn anchor() {
        ANCHOR.get_or_init(paired_read);
    }

    /// Nanoseconds per tick over the interval since the anchor.
    pub(super) fn ns_per_tick() -> f64 {
        let &(i0, t0) = ANCHOR.get_or_init(paired_read);
        let (i1, t1) = paired_read();
        let dt = t1.saturating_sub(t0);
        if dt == 0 {
            return 0.0; // nothing can have been timed since the anchor
        }
        i1.duration_since(i0).as_nanos() as f64 / dt as f64
    }
}

/// Portable fallback: ticks are `Instant` nanoseconds since a process-wide
/// base.
#[cfg(not(target_arch = "x86_64"))]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    static BASE: OnceLock<Instant> = OnceLock::new();

    #[inline]
    pub(super) fn ticks() -> u64 {
        BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    #[inline]
    pub(super) fn anchor() {}

    pub(super) fn ns_per_tick() -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_and_drain() {
        drain_thread_profile();
        let x = time_kernel(Kernel::J2, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(x, 42);
        add_flops_bytes(Kernel::J2, 100, 50);
        let p = drain_thread_profile();
        let s = p.get(Kernel::J2);
        assert_eq!(s.calls, 1);
        assert!(s.nanos >= 1_500_000, "nanos = {}", s.nanos);
        assert_eq!(s.flops, 100);
        assert_eq!(s.bytes, 50);
        assert_eq!(s.arithmetic_intensity(), Some(2.0));
        // Drained: second drain is empty.
        let p2 = drain_thread_profile();
        assert_eq!(p2.get(Kernel::J2).calls, 0);
    }

    #[test]
    fn tick_clock_tracks_instant() {
        drain_thread_profile();
        // The reference interval is taken inside the timed scope, so
        // preemption around the scope cannot widen it.
        let wall = time_kernel(Kernel::J1, || {
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_millis(20) {
                std::hint::spin_loop();
            }
            start.elapsed().as_nanos() as f64
        });
        let timed = drain_thread_profile().get(Kernel::J1).nanos as f64;
        let rel = (timed - wall).abs() / wall;
        assert!(
            rel < 0.02,
            "timed {timed} ns vs Instant {wall} ns ({rel:.4})"
        );
    }

    #[test]
    fn merge_and_normalize() {
        let mut a = Profile::default();
        a.get_mut(Kernel::DistTableAA).nanos = 300;
        a.get_mut(Kernel::J2).nanos = 100;
        let mut b = Profile::default();
        b.get_mut(Kernel::J2).nanos = 100;
        a.merge(&b);
        let shares = a.normalized();
        let aa = shares
            .iter()
            .find(|(k, _)| *k == Kernel::DistTableAA)
            .unwrap()
            .1;
        let j2 = shares.iter().find(|(k, _)| *k == Kernel::J2).unwrap().1;
        assert!((aa - 0.6).abs() < 1e-12);
        assert!((j2 - 0.4).abs() < 1e-12);
        let sum: f64 = shares.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_kernels_is_exhaustive() {
        // Exhaustive match: a new Kernel variant fails to compile here
        // until it is added, and the const block above then forces it into
        // ALL_KERNELS at the matching index.
        for &k in &ALL_KERNELS {
            match k {
                Kernel::DistTableAA
                | Kernel::DistTableAB
                | Kernel::J1
                | Kernel::J2
                | Kernel::BsplineV
                | Kernel::BsplineVGH
                | Kernel::SpoVGL
                | Kernel::BsplineMwVGL
                | Kernel::DetRatio
                | Kernel::DetUpdate
                | Kernel::Nlpp
                | Kernel::Coulomb
                | Kernel::Other => {}
            }
        }
        assert_eq!(NUM_KERNELS, ALL_KERNELS.len());
        // Labels are unique (report JSON keys by label).
        let mut labels: Vec<_> = ALL_KERNELS.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_KERNELS);
    }

    #[test]
    fn profile_set_groups_and_total() {
        let mut set = ProfileSet::with_groups(2);
        let mut p = Profile::default();
        p.get_mut(Kernel::J2).nanos = 100;
        set.merge_group(0, &p);
        set.merge_group(1, &p);
        set.merge_total(&p);
        assert_eq!(set.groups[0].get(Kernel::J2).nanos, 100);
        assert_eq!(set.groups[1].get(Kernel::J2).nanos, 100);
        assert_eq!(set.total.get(Kernel::J2).nanos, 300);
    }

    #[test]
    fn table_rendering_contains_labels() {
        let mut p = Profile::default();
        p.get_mut(Kernel::BsplineVGH).nanos = 1_000_000;
        p.get_mut(Kernel::BsplineVGH).calls = 10;
        p.get_mut(Kernel::BsplineVGH).flops = 5000;
        p.get_mut(Kernel::BsplineVGH).bytes = 1000;
        let t = p.to_table();
        assert!(t.contains("Bspline-vgh"));
        assert!(t.contains("100.0%"));
        assert!(!t.contains("DistTable-AA"), "zero rows are skipped");
    }
}
