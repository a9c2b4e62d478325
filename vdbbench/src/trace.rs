//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The root span of a request is the real `Database::query` /
//! `execute` call. Its children are the benchmark's own calls into one
//! layer each (parser, `EXPLAIN`, the twin index scan, ...), made right
//! after the root with the same inputs. They do not run inside the
//! root's interval, so self time is taken on durations: a span's
//! duration minus the durations of its direct children. What the
//! children leave of the root is the unattributed remainder, and it is
//! reported, never folded into a layer.
//!
//! Spans stay in memory during the run and are written when it ends.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based, unique within one recorder.
    pub id: SpanId,
    pub parent: SpanId,
    /// Request the span belongs to (the op's index in the workload).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client's span buffer.
pub struct Recorder {
    origin: Instant,
    client: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// `origin` is shared by the clients of a run so their spans line up.
    pub fn new(origin: Instant, client: u32) -> Recorder {
        Recorder {
            origin,
            client,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its result with the span's id.
    pub fn span<R>(
        &mut self,
        request: u64,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.open(request, parent, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Start a span now; children may name it as parent before it closes.
    pub fn open(&mut self, request: u64, parent: SpanId, name: &'static str) -> SpanId {
        let now = Instant::now();
        self.push(request, parent, name, now, now)
    }

    /// End span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Record a span whose interval was measured by the caller.
    pub fn push(
        &mut self,
        request: u64,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"client\":{},\"span\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.client,
                s.id,
                s.parent,
                s.request,
                json::string(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: duration minus direct children's durations,
/// in nanoseconds. Negative when the children took longer than the span
/// they are attributed to; that is kept, not clamped.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let index_of: BTreeMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(&p) = index_of.get(&s.parent) {
            own[p] -= s.duration_ns() as i64;
        }
    }
    own
}

/// Durations in microseconds of the spans called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Self times in microseconds of the spans called `name`.
pub fn self_us(spans: &[Span], name: &str) -> Vec<f64> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect()
}

/// Share of the root spans' time that no child accounts for, in percent
/// of the roots' total duration, over the span buffers of every client
/// (span ids are per buffer, so each tree is resolved on its own).
pub fn unattributed_pct<'a>(buffers: impl IntoIterator<Item = &'a [Span]>) -> f64 {
    let (mut total, mut left) = (0i64, 0i64);
    for spans in buffers {
        for (s, own_ns) in spans.iter().zip(self_times_ns(spans)) {
            if s.parent == NO_PARENT {
                total += s.duration_ns() as i64;
                left += own_ns;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * left as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    /// root 1000 ns = explain 300 (of which parse 100) + scan 500 + 200
    /// nobody claims.
    fn tree() -> Vec<Span> {
        vec![
            span(1, NO_PARENT, "sql.query", 0, 1000),
            span(2, 1, "sql.explain", 1000, 1300),
            span(3, 2, "sql.parse", 1300, 1400),
            span(4, 1, "generalized.scan", 1400, 1900),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times_ns(&tree()), vec![200, 200, 100, 500]);
        assert_eq!(self_us(&tree(), "sql.explain"), vec![0.2]);
        assert_eq!(durations_us(&tree(), "generalized.scan"), vec![0.5]);
    }

    #[test]
    fn unattributed_is_what_children_leave_of_the_roots() {
        assert_eq!(unattributed_pct([&tree()[..]]), 20.0);
        // A second request whose children overshoot its root pulls the
        // remainder down; it is not clamped per request.
        let mut two = tree();
        two.push(span(5, NO_PARENT, "sql.query", 2000, 3000));
        two.push(span(6, 5, "generalized.scan", 3000, 4100));
        assert_eq!(self_times_ns(&two)[4], -100);
        assert_eq!(unattributed_pct([&two[..]]), 5.0);
        // Two clients' buffers reuse ids; each is resolved alone.
        assert_eq!(unattributed_pct([&tree()[..], &tree()[..]]), 20.0);
        assert_eq!(unattributed_pct([&[][..]]), 0.0);
    }

    #[test]
    fn recorder_numbers_spans_and_writes_one_line_each() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 3);
        let (value, root) = rec.span(11, NO_PARENT, "sql.query", || 42);
        let (_, child) = rec.span(11, root, "sql.parse", || ());
        assert_eq!((value, root, child), (42, 1, 2));
        assert_eq!(rec.spans()[1].parent, 1);
        assert!(rec.spans()[0].end_ns <= rec.spans()[1].start_ns);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(
            "{\"client\":3,\"span\":1,\"parent\":0,\"request\":11,\"name\":\"sql.query\""
        ));
    }
}
