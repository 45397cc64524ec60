//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name whose first dotted component is its layer (`net`,
//! `sim`, `click`, `core`, or `bench` for the harness itself), a start
//! and end on one monotonic clock, the span that was open on the same
//! thread when it began (its parent), and the op it belongs to (0 for
//! work outside any op). Spans are kept in memory and handed out once,
//! when the run ends.
//!
//! Two attributions are derived from a span set:
//!
//! * [`self_times`]: a span's duration minus the part of its interval that
//!   its child spans cover. Summed per layer this is thread time.
//! * [`wall_shares`]: every instant of wall time split evenly among the
//!   innermost spans open at that instant, on any thread. Summed over all
//!   spans this is exactly the wall time some span covered, so the layer
//!   shares add up to the traced wall time even when ops overlap on
//!   worker threads.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (0 = outside every op).
    pub op: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A span recorder. A disabled tracer runs the wrapped closures and
/// records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` belonging to op `op`.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let parent = CURRENT.get();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let start = self.now();
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                op,
            });
            spans.len() - 1
        };
        CURRENT.set(Some(id));
        let r = f();
        CURRENT.set(parent);
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
        r
    }

    /// The innermost open span on the calling thread, to hand to a worker
    /// thread through [`within`](Self::within).
    pub fn current(&self) -> Option<usize> {
        CURRENT.get()
    }

    /// Run `f` on this thread with `parent` as the enclosing span, so
    /// spans a worker opens nest under the span that spawned the work.
    pub fn within<R>(&self, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let saved = CURRENT.replace(parent);
        let r = f();
        CURRENT.set(saved);
        r
    }

    /// Hand out every recorded span, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map(|(s, e)| e - s).unwrap_or(0)
}

/// Self time of every span, in ns: its duration minus the time its
/// children cover (children clipped to the parent's interval, overlaps
/// between children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start.max(ps.start), s.end.min(ps.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.len().saturating_sub(union_len(c)))
        .collect()
}

/// Wall time attributed to every span, in ns: each instant is split
/// evenly among the spans open at that instant that have no open child.
pub fn wall_shares(spans: &[Span]) -> Vec<f64> {
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        if s.end > s.start {
            // Ends sort before starts at the same instant (false < true).
            events.push((s.start, true, i));
            events.push((s.end, false, i));
        }
    }
    events.sort_unstable();
    let mut share = vec![0.0; spans.len()];
    let mut open_children = vec![0usize; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0u64;
    for (t, is_start, i) in events {
        if t > last {
            let leaves: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&a| open_children[a] == 0)
                .collect();
            let each = (t - last) as f64 / leaves.len().max(1) as f64;
            for a in leaves {
                share[a] += each;
            }
        }
        last = t;
        let parent = spans[i].parent.filter(|&p| spans[p].end > spans[p].start);
        if is_start {
            active.push(i);
            if let Some(p) = parent {
                open_children[p] += 1;
            }
        } else {
            active.retain(|&a| a != i);
            if let Some(p) = parent {
                open_children[p] -= 1;
            }
        }
    }
    share
}

/// Per-layer totals of one span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Summed self time, ns (thread time).
    pub self_ns: u64,
    /// Attributed wall time, ns.
    pub wall_ns: f64,
}

/// Per-name call counts and summed durations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
}

/// Layer totals and per-name totals of a span set.
pub fn summarize(
    spans: &[Span],
) -> (
    BTreeMap<&'static str, LayerTotals>,
    BTreeMap<&'static str, CallTotals>,
) {
    let selfs = self_times(spans);
    let walls = wall_shares(spans);
    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, CallTotals> = BTreeMap::new();
    for ((s, self_ns), wall) in spans.iter().zip(selfs).zip(walls) {
        let l = layers.entry(s.layer()).or_default();
        l.self_ns += self_ns;
        l.wall_ns += wall;
        let c = calls.entry(s.name).or_default();
        c.calls += 1;
        c.total_ns += s.len();
    }
    (layers, calls)
}

/// The spans as JSON lines (one object per span), for offline reading.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start, s.end, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    /// op[0,100] ⊃ { run[10,60] ⊃ gen[20,30], measure[50,70] overlapping
    /// run, build[80,90] }: siblings overlap and one child nests deeper.
    fn tree() -> Vec<Span> {
        vec![
            span("bench.op", 0, 100, None),
            span("sim.run", 10, 60, Some(0)),
            span("net.gen", 20, 30, Some(1)),
            span("sim.measure", 50, 70, Some(0)),
            span("click.build", 80, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        // op: 100 − |[10,70] ∪ [80,90]| = 100 − 70 = 30.
        // run: 50 − 10 = 40; gen, measure, build have no children.
        assert_eq!(self_times(&tree()), vec![30, 40, 10, 20, 10]);
    }

    #[test]
    fn wall_shares_split_overlap_and_sum_to_covered_wall() {
        let w = wall_shares(&tree());
        // [50,60]: run and measure are both innermost → 5 ns each.
        assert_eq!(w, vec![30.0, 35.0, 10.0, 15.0, 10.0]);
        assert_eq!(w.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn parallel_workers_share_wall_time() {
        // A phase on the main thread with two concurrent ops under it.
        let spans = vec![
            span("core.ramp", 0, 100, None),
            span("bench.op", 0, 100, Some(0)),
            span("bench.op", 0, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 100, 50]);
        let w = wall_shares(&spans);
        assert_eq!(w, vec![0.0, 75.0, 25.0]);
    }

    #[test]
    fn tracer_nests_spans_by_thread_and_hands_them_out() {
        let tr = Tracer::new(true);
        tr.span("bench.round", 0, || {
            tr.span("sim.run", 1, || ());
            let parent = tr.current();
            std::thread::scope(|s| {
                s.spawn(|| tr.within(parent, || tr.span("bench.op", 2, || ())));
            });
        });
        let spans = tr.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(tr.take().is_empty());

        let off = Tracer::new(false);
        assert_eq!(off.span("sim.run", 1, || 7), 7);
        assert!(off.take().is_empty());
    }

    #[test]
    fn layers_come_from_the_name_prefix() {
        let (layers, calls) = summarize(&tree());
        assert_eq!(layers["sim"].self_ns, 60);
        assert_eq!(
            calls["net.gen"],
            CallTotals {
                calls: 1,
                total_ns: 10
            }
        );
        let wall: f64 = layers.values().map(|l| l.wall_ns).sum();
        assert_eq!(wall, 100.0);
    }
}
