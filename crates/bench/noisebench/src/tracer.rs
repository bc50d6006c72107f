//! In-memory spans for the traced run.
//!
//! A span has a name, a start, an end, a thread lane and the index of the
//! span that caused it. Spans stay in memory and are written once, at the
//! end, as Chrome trace events (`ph: "X"`, the form `hwsim::trace` emits),
//! so the file opens in Perfetto.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, e.g. `step` or `fwd.conv2d`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin (0 while open).
    pub end_ns: u64,
    /// Index of the parent span in the same trace, if any.
    pub parent: Option<usize>,
    /// Thread lane.
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. Nesting follows call order: a span opened
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    root_parent: Option<usize>,
    /// When false, layer wrappers record nothing (evaluation passes).
    pub layers_on: bool,
}

impl Tracer {
    /// A tracer on lane `tid`; its top-level spans get `root_parent` (an
    /// index into the trace they will be merged into) as parent.
    pub fn new(origin: Instant, tid: u32, root_parent: Option<usize>) -> Self {
        Self {
            origin,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            root_parent,
            layers_on: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its local index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            tid: self.tid,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the caller).
    pub fn end(&mut self, idx: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "span closed out of order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.begin(name);
        let out = f(self);
        self.end(idx);
        out
    }

    /// Closes the tracer and returns its spans; local parent indices are
    /// shifted by `offset` (the position they will occupy in a merged
    /// trace) and top-level spans are attached to the root parent. Spans
    /// left open by an early error return end now.
    pub fn finish(mut self, offset: usize) -> Vec<Span> {
        while let Some(idx) = self.stack.last().copied() {
            self.end(idx);
        }
        let root_parent = self.root_parent;
        self.spans
            .into_iter()
            .map(|mut s| {
                s.parent = match s.parent {
                    Some(p) => Some(p + offset),
                    None => root_parent,
                };
                s
            })
            .collect()
    }
}

/// A merged trace from every lane.
#[derive(Debug, Default)]
pub struct Trace {
    /// All spans; parent indices point into this vector.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Appends one tracer's spans.
    pub fn absorb(&mut self, tracer: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(tracer.finish(offset));
    }

    /// Self time per span: its duration minus its children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                // Children on other lanes (replica threads under a cell span)
                // run concurrently with their parent and are not part of
                // its own time.
                if self.spans[p].tid == s.tid {
                    child_ns[p] += s.dur_ns();
                }
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time and count per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Durations in nanoseconds of every span with this name, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Chrome trace JSON (`traceEvents` of complete events, microseconds).
    pub fn to_chrome_json(&self, other: serde_json::Value) -> String {
        let events: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde_json::json!({
                    "name": s.name,
                    "cat": "noisebench",
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur_ns() as f64 / 1e3,
                    "pid": 1u32,
                    "tid": s.tid,
                    "args": { "id": i, "parent": s.parent.map_or(-1i64, |p| p as i64) },
                })
            })
            .collect();
        let body = serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        });
        serde_json::to_string(&body).expect("trace serialization")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_lane_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0, None);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut trace = Trace::default();
        trace.absorb(t);
        let own = trace.self_ns();
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(own[0], trace.spans[0].dur_ns() - trace.spans[1].dur_ns());
        assert_eq!(own[1], trace.spans[1].dur_ns());
        let json = trace.to_chrome_json(serde_json::json!({}));
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(parsed["traceEvents"].as_array().map(Vec::len), Some(2));
    }

    #[test]
    fn merged_lanes_attach_to_root_parent() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin, 0, None);
        let cell = main.begin("cell");
        main.end(cell);
        let mut trace = Trace::default();
        trace.absorb(main);
        let mut worker = Tracer::new(origin, 1, Some(cell));
        worker.span("replica", |t| t.span("step", |_| ()));
        trace.absorb(worker);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        // A cross-lane child does not eat into its parent's self time.
        assert_eq!(trace.self_ns()[0], trace.spans[0].dur_ns());
    }
}
