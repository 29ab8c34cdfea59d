//! In-memory span recording for the traced run, and self-time
//! arithmetic over the recorded spans.
//!
//! A span is a named interval on the benchmark's own thread around one
//! call into a layer (a socket read, a frame decode, a kernel step, a
//! model-checker replay). Spans stay in memory and are written once, at
//! exit. A span's *self time* is its duration minus the part of its
//! interval covered by its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The round (or step, or run) the span belongs to.
    pub round: u32,
}

/// Collects spans when enabled; every method is a no-op otherwise, so
/// untraced runs pay one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        parent: Option<u32>,
        round: u32,
    ) -> u32 {
        let end = self.now();
        self.push(Span { name, start, end, parent, round })
    }

    /// Appends a span whose bounds the caller already knows.
    pub fn push(&mut self, span: Span) -> u32 {
        if !self.enabled {
            return u32::MAX;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of an open span (one pushed with `end == start`).
    pub fn close(&mut self, index: u32) {
        let end = self.now();
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end = end;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// `index name start_ns end_ns parent round` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tround")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.round)?;
        }
        out.flush()
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| spans.get(p as usize).map(|ps| (p, ps))) {
            let (lo, hi) = (s.start.max(p.1.start), s.end.min(p.1.end));
            if lo < hi {
                children[p.0 as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time and count summed per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start, end, parent, round: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("round", 0, 100, None),
            // Overlapping children cover [10, 40) once, not twice.
            span("read", 10, 30, Some(0)),
            span("decode", 20, 40, Some(0)),
            // A child poking past its parent is clipped to [90, 100).
            span("write", 90, 120, Some(0)),
            // A grandchild only reduces its own parent's self time.
            span("encode", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 6, 20, 30, 6]);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["round"], NameTotals { count: 1, self_ns: 60 });
        assert_eq!(by_name["read"].self_ns, 14);
    }

    #[test]
    fn disjoint_children_and_leaves() {
        let spans = [
            span("step", 0, 50, None),
            span("a", 0, 10, Some(0)),
            span("a", 40, 50, Some(0)),
            span("lone", 60, 70, None),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 10, 10]);
        assert_eq!(totals_by_name(&spans)["a"], NameTotals { count: 2, self_ns: 20 });
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let i = t.record("x", t.now(), None, 0);
        t.close(i);
        assert!(t.spans().is_empty());
    }
}
