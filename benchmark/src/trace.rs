//! Spans recorded from outside the program: around each call the
//! benchmark makes into a layer's public functions. Held in memory, written
//! out when the run ends.
//!
//! One root span per operation; a span's children are the spans opened
//! while it was the innermost open one. Self time = duration − children.

use crate::json::Json;
use crate::stats::Samples;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based; 0 means "no parent".
    pub id: u32,
    pub parent: u32,
    /// The operation (root span) this span belongs to.
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; close it with [`Tracer::exit`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    origin: Instant,
    /// When false, [`Tracer::enter`]/[`Tracer::exit`] record nothing: the
    /// same code path without tracing, for `trace.overhead_pct`.
    pub enabled: bool,
    spans: Vec<Span>,
    /// Ids of the open spans, innermost last.
    stack: Vec<u32>,
    /// Counts recorded at span boundaries: `(op, name, value)`.
    counts: Vec<(u32, &'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one (a root span, starting a
    /// new operation, when none is open).
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let op = match parent {
            0 => id,
            p => self.spans[p as usize - 1].op,
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == 0 {
            return;
        }
        let end_ns = self.now_ns();
        // Spans close innermost-first; anything else is a bug here.
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        self.spans[open.0 as usize - 1].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, name);
        let out = std::hint::black_box(f());
        self.exit(open);
        out
    }

    /// Records a count against the innermost open span's operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let (true, Some(&top)) = (self.enabled, self.stack.last()) {
            self.counts
                .push((self.spans[top as usize - 1].op, name, value));
        }
    }

    /// Durations of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .collect(),
        )
    }

    /// Median duration of the spans called `name`, in nanoseconds.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.durations(name).median_ns()
    }

    /// Every value recorded for the count `name`.
    pub fn counted(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|(_, n, _)| *n == name)
            .map(|(_, _, v)| *v)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: every span and count of the run.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", Json::Num(f64::from(s.parent))),
                    ("op", Json::Num(f64::from(s.op))),
                    ("layer", Json::str(s.layer)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(op, name, value)| {
                Json::obj([
                    ("op", Json::Num(f64::from(*op))),
                    ("name", Json::str(*name)),
                    ("value", Json::Num(*value)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("counts", Json::Arr(counts))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_their_root_operation() {
        let mut t = Tracer::default();
        let root = t.enter("replica", "op");
        let a = t.enter("chase", "a");
        t.count("atoms", 7.0);
        t.exit(a);
        t.span("wfs", "b", || ());
        t.exit(root);
        let second = t.enter("replica", "op");
        t.exit(second);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (0, 1, 1, 0)
        );
        assert_eq!((s[1].op, s[2].op, s[3].op), (1, 1, 4));
        assert_eq!(t.counted("atoms"), [7.0]);
        // Children lie inside their parent, so self time is never negative.
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer {
            enabled: false,
            ..Tracer::default()
        };
        let open = t.enter("x", "y");
        t.count("n", 1.0);
        t.exit(open);
        assert!(t.spans().is_empty() && t.counted("n").is_empty());
    }
}
