//! Harness-side spans: one around every call into a layer's public API
//! in a traced run. Spans live in memory and are written out at exit; a
//! layer's *self time* is its span minus the spans it directly contains.
//!
//! The library itself stays clock-free (`dmc-lint` forbids `Instant` in
//! it); the wall clock is read here, in the benchmark, and nowhere else.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept per run; later ones are counted in [`Tracer::dropped`].
const MAX_SPANS: usize = 1_000_000;

/// One recorded span. `request` groups the spans of one tick, cycle,
/// plan or run; `parent` indexes the enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// Handle of an open span (index into the span table, or "not kept").
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Totals of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.open_at(name, request, start_ns)
    }

    fn open_at(&mut self, name: &'static str, request: u64, start_ns: u64) -> SpanId {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and, defensively, anything opened inside it that was
    /// left open) and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        self.close_at(id, end_ns)
    }

    fn close_at(&mut self, id: SpanId, end_ns: u64) -> u64 {
        let Some(id) = id.0 else { return 0 };
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        let span = &self.spans[id as usize];
        span.end_ns - span.start_ns
    }

    /// Runs `f` inside a leaf span and returns its result with the
    /// measured duration. The clock is read exactly twice.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.open_at(name, request, start_ns);
        self.close_at(id, end_ns);
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name. Self time is a span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes one JSON object per span: `name, start_ns, end_ns, parent,
    /// request` (`parent` is the line index of the enclosing span).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::obj(vec![
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("request", Json::Num(span.request as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (span, inner) in spans.iter().zip(&children_ns) {
        let total = span.end_ns - span.start_ns;
        let entry = by_name.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(*inner);
    }
    by_name
}

/// Times `f`, recording a leaf span when a tracer is present.
pub fn timed<R>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    match tracer {
        Some(t) => t.leaf(name, request, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_nanos() as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // tick [0, 100) holds ingest [10, 30) and solve [40, 90);
        // solve holds pivot [50, 70).
        let spans = vec![
            span("tick", 0, 100, None),
            span("ingest", 10, 30, Some(0)),
            span("solve", 40, 90, Some(0)),
            span("pivot", 50, 70, Some(2)),
            span("tick", 100, 150, None),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["tick"],
            SelfTime {
                count: 2,
                total_ns: 150,
                self_ns: 30 + 50
            }
        );
        assert_eq!(
            t["solve"].self_ns, 30,
            "the grandchild only cuts its parent"
        );
        assert_eq!(t["ingest"].self_ns, 20);
        assert_eq!(t["pivot"].self_ns, 20);
        // Self times add back up to the root spans' total.
        let all_self: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(all_self, 150);
    }

    #[test]
    fn recorder_nests_by_open_order_and_writes_one_line_per_span() {
        let mut tracer = Tracer::new();
        let tick = tracer.begin("tick", 7);
        let ((), inner_ns) = tracer.leaf("call", 7, || std::hint::black_box(()));
        let tick_ns = tracer.end(tick);
        assert!(tick_ns >= inner_ns);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        // Under the crate's own ignored `out/`, never outside the checkout.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-test-{}", std::process::id()));
        let path = dir.join("trace-test.jsonl");
        tracer.write_jsonl(&path).expect("out/ is writable");
        let text = std::fs::read_to_string(&path).expect("file was just written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).expect("each line is JSON");
        assert_eq!(first.get("name").and_then(Json::as_str), Some("tick"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
