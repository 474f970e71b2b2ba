//! The benchmark's own spans, recorded around each call it makes into a
//! layer. Spans live in memory and are written out once, when the run ends;
//! the program under test is not instrumented by this module.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One span: a named interval in one request, under an optional parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by every span of one request.
    pub req: u64,
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the time children cover), ns.
    pub self_ns: u64,
}

/// An in-memory span recorder; disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span, returning its id (`None` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, req };
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Re-parents `child` under `parent` (a parent recorded after its
    /// children, because its end was known last).
    pub fn adopt(&self, parent: Option<SpanId>, children: &[Option<SpanId>]) {
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        for &c in children.iter().flatten() {
            spans[c].parent = parent;
        }
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        totals(&spans)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it.
fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, req: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("request", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("wait", 20, 60, Some(0)),  // overlaps submit by 10
            span("late", 90, 150, Some(0)), // clipped to the parent
        ];
        let t = totals(&spans);
        assert_eq!(t["request"].self_ns, 100 - 50 - 10);
        assert_eq!(t["submit"].self_ns, 20);
        assert_eq!(t["wait"].total_ns, 40);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", now, now, None, 1), None);
        assert!(t.totals().is_empty());
    }
}
