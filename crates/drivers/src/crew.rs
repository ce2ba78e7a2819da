//! Thread crews: the OpenMP structure of Fig. 4 mapped onto scoped
//! threads, shared by every VMC and DMC run.
//!
//! A crew is a slice of [`Crew`] members, one per worker thread: a
//! single [`QmcEngine`] that advances one walker at a time, or a lock-step
//! crowd (`qmc_crowd::Crowd`) that advances [`Crew::width`] walkers
//! together. Walkers are split into contiguous chunks, one per member, and
//! streamed through it in blocks of `width` via `load_walker`/
//! `store_walker`. A serial run is a crew of one.
//!
//! All thread fan-out goes through [`fan_out`] and with it through
//! `rayon::scope` (the in-tree shim), so every run is subject to the
//! deterministic schedules the `qmcsched` harness installs via
//! `rayon::schedule` — the lever behind the schedule-independence
//! (bitwise parity) checks.

use crate::engine::{QmcEngine, SweepStats};
use crate::walker::Walker;
use parking_lot::Mutex;
use qmc_containers::Real;
use qmc_instrument::{drain_thread_profile, span, ProfileSet};

/// One member of a thread crew: the engines one worker thread drives.
///
/// Per-walker floating-point op sequences and RNG draws must not depend
/// on the member type, so a run gives bitwise the same walkers whatever
/// crew executes it.
pub trait Crew<T: Real>: Send {
    /// Walkers advanced together per block (1 for a single engine).
    fn width(&self) -> usize;

    /// The engine of slot `s` (`s < width()`).
    fn slot_mut(&mut self, s: usize) -> &mut QmcEngine<T>;

    /// From-scratch wavefunction refresh of the first `nw` loaded slots.
    fn refresh_block(&mut self, nw: usize);

    /// One drift-diffusion sweep over `walkers` (walker `s` resident in
    /// slot `s`), writing slot `s`'s move counts to `stats[s]`.
    fn sweep_block(&mut self, walkers: &mut [Walker<T>], tau: f64, stats: &mut [SweepStats]);
}

impl<T: Real> Crew<T> for QmcEngine<T> {
    fn width(&self) -> usize {
        1
    }

    fn slot_mut(&mut self, _s: usize) -> &mut QmcEngine<T> {
        self
    }

    fn refresh_block(&mut self, _nw: usize) {
        self.refresh_from_scratch();
    }

    fn sweep_block(&mut self, walkers: &mut [Walker<T>], tau: f64, stats: &mut [SweepStats]) {
        stats[0] = self.sweep(tau, &mut walkers[0].rng);
    }
}

/// Splits `items` into `parts` contiguous chunks of near-equal size.
/// An empty slice yields no chunks at all (no idle worker threads).
pub fn chunks_mut<I>(items: &mut [I], parts: usize) -> Vec<&mut [I]> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut rest = items;
    for t in 0..parts {
        let take = base + usize::from(t < extra);
        let (head, tail) = rest.split_at_mut(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// The one thread fan-out of the drivers: member `t` of `crew` gets the
/// `t`-th contiguous chunk of `walkers` and its own `lanes[t]` scratch,
/// and runs `work(t, member, lane, chunk)` on a worker thread with
/// flush-to-zero on, under a `label` span on lane `t`. Returns the summed
/// `(accepted, attempted)` counts `work` reports and merges each worker's
/// kernel profile into group `t` of `profile`.
///
/// Only the order-independent integer counters are merged here; every
/// floating-point reduction over walkers happens after the fan-out, in
/// walker order, so results are bit-identical for any crew size,
/// chunking or task schedule.
pub(crate) fn fan_out<T, C, L, F>(
    crew: &mut [C],
    lanes: &mut [L],
    walkers: &mut [Walker<T>],
    label: &'static str,
    profile: &Mutex<ProfileSet>,
    work: F,
) -> (usize, usize)
where
    T: Real,
    C: Crew<T>,
    L: Send,
    F: Fn(usize, &mut C, &mut L, &mut [Walker<T>]) -> (usize, usize) + Sync,
{
    let counts = Mutex::new((0usize, 0usize));
    rayon::scope(|scope| {
        let chunks = chunks_mut(walkers, crew.len());
        for (t, ((member, lane), chunk)) in crew
            .iter_mut()
            .zip(lanes.iter_mut())
            .zip(chunks)
            .enumerate()
        {
            let (counts, work) = (&counts, &work);
            scope.spawn(move || {
                qmc_instrument::enable_ftz();
                let _span = span(label, t as u64);
                let (acc, att) = work(t, member, lane, chunk);
                let mut c = counts.lock();
                c.0 += acc;
                c.1 += att;
                profile.lock().merge_group(t, &drain_thread_profile());
            });
        }
    });
    counts.into_inner()
}

/// Initializes fresh walkers across the crew (each through its member's
/// first slot).
pub(crate) fn init_walkers<T: Real, C: Crew<T>, L: Send>(
    crew: &mut [C],
    lanes: &mut [L],
    walkers: &mut [Walker<T>],
    profile: &Mutex<ProfileSet>,
) {
    fan_out(
        crew,
        lanes,
        walkers,
        "init",
        profile,
        |_, member, _, chunk| {
            for w in chunk.iter_mut() {
                member.slot_mut(0).init_walker(w);
            }
            (0, 0)
        },
    );
}

/// Loads the walkers of one block into the member's slots, in slot order.
pub(crate) fn load_block<T: Real, C: Crew<T>>(member: &mut C, block: &mut [Walker<T>]) {
    for (s, w) in block.iter_mut().enumerate() {
        member.slot_mut(s).load_walker(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_all_items() {
        let mut v: Vec<usize> = (0..10).collect();
        let chunks = chunks_mut(&mut v, 3);
        assert_eq!(chunks.len(), 3);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn chunking_more_parts_than_items() {
        let mut v: Vec<usize> = (0..2).collect();
        let chunks = chunks_mut(&mut v, 8);
        assert_eq!(chunks.len(), 2);
    }

    #[test]
    fn chunking_empty_items_yields_no_chunks() {
        let mut v: Vec<usize> = Vec::new();
        assert!(chunks_mut(&mut v, 4).is_empty());
        assert!(chunks_mut(&mut v, 0).is_empty());
    }
}
