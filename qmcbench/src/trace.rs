//! Spans recorded by the benchmark around its calls into the crates, and
//! the self-time accounting that turns them into per-layer rows.
//!
//! A span has a name, a start and an end (nanoseconds since the trace
//! epoch), a parent span, a thread lane and the id of the generation it
//! belongs to. Each thread records into its own [`Lane`] buffer and hands
//! it to the [`Trace`] once, when the lane is dropped, so recording takes
//! no lock. Spans stay in memory until the benchmark writes them out.

use qmc_instrument::json::JsonWriter;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;
/// Generation id of spans outside any generation (set-up, initialization).
pub const NO_GEN: u32 = u32::MAX;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u32,
    /// Parent span id, or [`ROOT`].
    pub parent: u32,
    /// Span name.
    pub name: &'static str,
    /// Thread lane: worker index, or the thread count for the coordinator.
    pub lane: u32,
    /// Generation id, or [`NO_GEN`].
    pub gen: u32,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The span store of one benchmark invocation.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Trace {
    /// A per-thread recorder on `lane` for generation `gen`.
    pub fn lane(&self, lane: u32, gen: u32) -> Lane<'_> {
        Lane {
            trace: self,
            lane,
            gen,
            buf: Vec::new(),
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no lane panics while holding the span store")
            .clone();
        v.sort_by_key(|s| (s.start, s.id));
        v
    }

    /// The spans as a JSON array.
    pub fn to_json(&self, w: &mut JsonWriter) {
        w.begin_arr();
        for s in self.spans() {
            w.begin_obj();
            w.key("id").u64_val(u64::from(s.id));
            w.key("parent").u64_val(u64::from(s.parent));
            w.key("name").str_val(s.name);
            w.key("lane").u64_val(u64::from(s.lane));
            w.key("gen").u64_val(u64::from(s.gen));
            w.key("start_ns").u64_val(s.start);
            w.key("end_ns").u64_val(s.end);
            w.end_obj();
        }
        w.end_arr();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// An open span; close it with [`Lane::close`].
#[must_use]
pub struct Open {
    /// Id the span's children name as parent.
    pub id: u32,
    parent: u32,
    name: &'static str,
    start: u64,
}

/// A thread's span buffer.
pub struct Lane<'t> {
    trace: &'t Trace,
    lane: u32,
    gen: u32,
    buf: Vec<Span>,
}

impl Lane<'_> {
    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: u32) -> Open {
        Open {
            id: self.trace.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: self.trace.now(),
        }
    }

    /// Closes `open`.
    pub fn close(&mut self, open: Open) {
        let end = self.trace.now();
        self.buf.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            lane: self.lane,
            gen: self.gen,
            start: open.start,
            end,
        });
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, parent);
        let r = f();
        self.close(open);
        r
    }

    /// Sets the generation id of spans opened from now on.
    pub fn set_gen(&mut self, gen: u32) {
        self.gen = gen;
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        // A poisoned store only means another lane panicked; the benchmark
        // is failing anyway, so dropping these spans is harmless.
        if let Ok(mut spans) = self.trace.spans.lock() {
            spans.append(&mut self.buf);
        }
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children on other lanes included). Indexed like
/// `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            lane: 0,
            gen: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children on other lanes and one disjoint child.
        let spans = [
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 20, 50),
            span(3, 0, 60, 70),
            span(4, 3, 62, 65),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30, 7, 3]);
    }

    #[test]
    fn lanes_hand_their_spans_to_the_trace() {
        let trace = Trace::default();
        {
            let mut lane = trace.lane(1, 7);
            let outer = lane.open("outer", ROOT);
            lane.leaf("inner", outer.id, || std::hint::black_box(3));
            lane.close(outer);
        }
        let spans = trace.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans.iter().all(|s| s.lane == 1 && s.gen == 7));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
