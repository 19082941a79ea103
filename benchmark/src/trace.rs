//! Spans recorded from the benchmark's side of each call into a layer.
//!
//! A traced run wraps every call into the program (`run_batch`, one
//! `Layer::forward_owned`, one fleet run, one generator step…) in a
//! span: name, start, end, the span that caused it, and the batch or
//! run it belongs to. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends. A layer's
//! *self time* is its span minus the part its children cover; the
//! per-layer metrics are sums of self times. End-to-end metrics always
//! come from an untraced run.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Batch or run the span belongs to (spans of one batch share it).
    pub id: u64,
}

/// Handle returned by [`Tracer::enter`]; give it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never exited has no end time"]
pub struct SpanGuard(Option<u32>);

/// In-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Σ (duration − time covered by children), nanoseconds.
    pub self_ns: u64,
    /// Σ duration, nanoseconds.
    pub total_ns: u64,
    /// Spans with this name.
    pub count: u64,
}

impl Tracer {
    /// New tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: u64) -> SpanGuard {
        if !self.enabled {
            return SpanGuard(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(index);
        SpanGuard(Some(index))
    }

    /// Closes the span `guard` opened.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a bug in the harness.
    pub fn exit(&mut self, guard: SpanGuard) {
        let Some(index) = guard.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(index), "spans must nest");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let guard = self.enter(name, id);
        let out = f();
        self.exit(guard);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name (see the module docs).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        w.flush()
    }
}

/// Cost of recording one span, nanoseconds: the fastest of three
/// batches of 100 000 on a scratch tracer. Workloads whose spans wrap
/// whole runs report their tracing overhead as spans x this / wall.
pub fn span_cost_ns() -> f64 {
    const SPANS: usize = 100_000;
    (0..3)
        .map(|_| {
            let mut scratch = Tracer::new(true);
            let t0 = Instant::now();
            for i in 0..SPANS {
                scratch.span("probe", i as u64, || ());
            }
            t0.elapsed().as_nanos() as f64 / SPANS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Self-time table of a span list whose `parent` links index into it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&covered) {
        let total = s.end_ns - s.start_ns;
        let row = table.entry(s.name).or_default();
        row.self_ns += total.saturating_sub(children);
        row.total_ns += total;
        row.count += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // batch [0,100) ⊃ conv [10,40) ⊃ gemm [15,35); batch ⊃ pool [50,60);
        // a second batch [200,230) with one conv [205,225).
        let spans = [
            span("batch", 0, 100, None),
            span("conv", 10, 40, Some(0)),
            span("gemm", 15, 35, Some(1)),
            span("pool", 50, 60, Some(0)),
            span("batch", 200, 230, None),
            span("conv", 205, 225, Some(4)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["batch"],
            SelfTime {
                self_ns: 60 + 10,
                total_ns: 130,
                count: 2
            }
        );
        assert_eq!(
            t["conv"],
            SelfTime {
                self_ns: 10 + 20,
                total_ns: 50,
                count: 2
            }
        );
        assert_eq!(
            t["gemm"],
            SelfTime {
                self_ns: 20,
                total_ns: 20,
                count: 1
            }
        );
        assert_eq!(
            t["pool"],
            SelfTime {
                self_ns: 10,
                total_ns: 10,
                count: 1
            }
        );
        // Self times partition the root spans' wall time.
        let all: u64 = t.values().map(|r| r.self_ns).sum();
        assert_eq!(all, 130);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || ());
        t.exit(outer);
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].id, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let g = off.enter("x", 0);
        off.exit(g);
        assert_eq!(off.span_count(), 0);
    }
}
