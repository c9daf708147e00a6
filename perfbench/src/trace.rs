//! In-memory spans around the calls this benchmark makes into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! made), the span that was open when it started, and the id of the
//! operation it belongs to. Spans stay in memory and are written out as
//! JSON when the run ends. A layer's self time is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `analyze.statics.lint`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (row, family pipeline or request) the span belongs to.
    pub op: u64,
}

/// Collects spans when on; when off, [`Tracer::span`] only runs its body.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The recorded spans, in start order of their recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `body` inside a span named `name`; spans opened by `body` become
    /// its children.
    pub fn span<T>(&mut self, name: &str, op: u64, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return body(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = body(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span timed elsewhere (another thread, or a replay), as a
    /// child of whatever span is open.
    pub fn record(&mut self, name: &str, op: u64, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
                op,
            });
        }
    }

    /// Self time of every span, in nanoseconds, by span index.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// For every root span named `root`, the self time (ms) of the spans
    /// under it (itself included), summed by span name.
    pub fn self_ms_per_root(&self, root: &str) -> Vec<BTreeMap<String, f64>> {
        let own = self.self_ns();
        let mut slot: Vec<Option<usize>> = vec![None; self.spans.len()];
        let mut out: Vec<BTreeMap<String, f64>> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are recorded before their children.
            slot[i] = match s.parent {
                Some(p) => slot[p],
                None if s.name == root => {
                    out.push(BTreeMap::new());
                    Some(out.len() - 1)
                }
                None => None,
            };
            if let Some(k) = slot[i] {
                *out[k].entry(s.name.clone()).or_insert(0.0) += own[i] as f64 / 1e6;
            }
        }
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The spans and their self times as a JSON array.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, own[i], s.op
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("pass", 0, |t| {
            t.span("outer", 1, |t| {
                t.span("inner", 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            })
        });
        let own = t.self_ns();
        let dur = |i: usize| t.spans()[i].end_ns - t.spans()[i].start_ns;
        assert_eq!(own[1], dur(1) - dur(2));
        assert_eq!(own[2], dur(2));
        let per_root = t.self_ms_per_root("pass");
        assert_eq!(per_root.len(), 1);
        assert!(per_root[0]["inner"] >= 2.0);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
