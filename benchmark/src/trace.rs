//! In-memory span recorder for the traced pass.
//!
//! A span is `{name, start_ns, end_ns, parent, req}`. Harness spans nest
//! workload → phase → rank → call and are recorded by whoever makes the
//! call; decorator spans (see `tap.rs`) are recorded on whichever
//! product thread issues the backend op and are attached to a phase and
//! a rank afterwards, by time window and by path. Nothing here exists in
//! the untraced pass: the harness holds an `Option<Arc<Tracer>>` and it
//! is `None` there.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::{json, Value};

/// Span identifier; 0 means "no parent".
pub type SpanId = u32;

/// What a span belongs to: `<workload>/<step>/<rank>` once rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Epoch, crash cycle or restart round number within its phase.
    pub step: u32,
    /// Rank, or `NO_RANK` for work shared by all ranks.
    pub rank: u16,
}

/// `Req::rank` of spans no single rank owns (epoch seal, CAS files).
pub const NO_RANK: u16 = u16::MAX;

impl Req {
    /// A request shared by all ranks.
    pub fn step(step: u32) -> Req {
        Req {
            step,
            rank: NO_RANK,
        }
    }

    /// The same step, narrowed to one rank.
    pub fn rank(self, rank: usize) -> Req {
        Req {
            step: self.step,
            rank: rank as u16,
        }
    }

    fn render(self, workload: &str) -> String {
        if self.rank == NO_RANK {
            format!("{workload}/{}/-", self.step)
        } else {
            format!("{workload}/{}/{}", self.step, self.rank)
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within a tracer, never 0.
    pub id: SpanId,
    /// Enclosing span, 0 for the root and for unattached decorator spans.
    pub parent: SpanId,
    /// `layer.call`, e.g. `vfs.write` or `durable.write_at`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Owner of the work.
    pub req: Req,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const SHARDS: usize = 16;

/// The recorder. Spans land in one of a few mutex-guarded vectors picked
/// by span id, so concurrent product threads rarely meet.
pub struct Tracer {
    origin: Instant,
    next: AtomicU32,
    shards: [Mutex<Vec<Span>>; SHARDS],
}

/// An open span; `Tracer::end` closes it.
#[must_use]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    req: Req,
    start_ns: u64,
}

impl Open {
    /// Identifier children name as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU32::new(1),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: SpanId, req: Req) -> Open {
        Open {
            id: self.next.fetch_add(1, Relaxed),
            parent,
            name,
            req,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` now and records it.
    pub fn end(&self, open: Open) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            req: open.req,
        });
    }

    /// Records a finished span measured by the caller.
    pub fn record(&self, name: &'static str, parent: SpanId, req: Req, start_ns: u64, end_ns: u64) {
        let id = self.next.fetch_add(1, Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req,
        });
    }

    fn push(&self, span: Span) {
        self.shards[span.id as usize % SHARDS]
            .lock()
            .expect("span shard poisoned: a recording thread panicked")
            .push(span);
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for shard in &self.shards {
            all.extend(
                shard
                    .lock()
                    .expect("span shard poisoned: a recording thread panicked")
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// Attaches decorator spans (parent 0, recorded on product threads) to
/// the phase span whose time window holds their start; they take its
/// step. Spans that start outside every phase stay unattached.
pub fn attach_to_phases(spans: &mut [Span], is_phase: impl Fn(&Span) -> bool) {
    let phases: Vec<(u64, u64, SpanId, u32)> = spans
        .iter()
        .filter(|s| is_phase(s))
        .map(|s| (s.start_ns, s.end_ns, s.id, s.req.step))
        .collect();
    for s in spans.iter_mut().filter(|s| s.parent == 0) {
        if let Some(&(_, _, id, step)) = phases
            .iter()
            .find(|&&(a, b, id, _)| id != s.id && a <= s.start_ns && s.start_ns < b)
        {
            s.parent = id;
            s.req.step = step;
        }
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, 0);
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<(SpanId, u64)> {
    use std::collections::HashMap;
    let by_id: HashMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut kids: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = by_id.get(&s.parent) {
            // Only the part of a child inside its parent covers it.
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = kids.remove(&s.id).map_or(0, union_ns);
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The span file: `{"workload":..,"spans":[{name,start_ns,end_ns,parent,req,id}]}`.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            json!({
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "req": s.req.render(workload),
            })
        })
        .collect();
    json!({ "workload": workload, "spans": rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            req: Req::step(0),
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two children overlapping on [30, 40), one nested inside the
            // first, one sticking out past the parent's end.
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 15, 20),
            span(5, 1, 90, 120),
            // A grandchild does not reduce the grandparent's self time.
            span(6, 2, 10, 40),
        ];
        let st: std::collections::HashMap<_, _> = self_times(&spans).into_iter().collect();
        // Covered: [10,60) + [90,100) = 60.
        assert_eq!(st[&1], 40);
        assert_eq!(st[&2], 0);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 30);
    }

    #[test]
    fn interval_union_counts_overlap_once() {
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40), (32, 35)]), 30);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn decorator_spans_attach_to_the_phase_holding_their_start() {
        let mut spans = vec![
            Span {
                req: Req::step(7),
                ..span(1, 9, 100, 200)
            },
            Span {
                req: Req::step(8),
                ..span(2, 9, 200, 300)
            },
            span(3, 0, 150, 260),
            span(4, 0, 299, 400),
            span(5, 0, 50, 60),
        ];
        attach_to_phases(&mut spans, |s| s.parent == 9);
        assert_eq!((spans[2].parent, spans[2].req.step), (1, 7));
        assert_eq!((spans[3].parent, spans[3].req.step), (2, 8));
        assert_eq!(spans[4].parent, 0, "before every phase");
    }

    #[test]
    fn tracer_records_from_many_threads() {
        let t = Tracer::default();
        let root = t.begin("workload", 0, Req::step(0));
        std::thread::scope(|s| {
            for r in 0..4 {
                let (t, parent) = (&t, root.id());
                s.spawn(move || {
                    for _ in 0..100 {
                        let o = t.begin("vfs.write", parent, Req::step(1).rank(r));
                        t.end(o);
                    }
                });
            }
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 401);
        assert_eq!(durations(&spans, "vfs.write").len(), 400);
        assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let v = to_json("w", &spans[..1]);
        assert_eq!(v["spans"][0]["req"].as_str(), Some("w/0/-"));
    }
}
