//! In-memory spans recorded around the calls into each layer, written
//! out once when the traced run ends.
//!
//! All measurement stays outside the program under test: a span is a
//! pair of `Instant`s the benchmark takes before and after a public call
//! (or at an `Observer` callback), never a timer inside the simulator.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval: what ran, when, and which span caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `sim.run` or `http.submit`.
    pub name: &'static str,
    /// Seconds since the trace origin.
    pub start: f64,
    /// Seconds since the trace origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans with this name.
    pub count: usize,
    /// Sum of their durations.
    pub total: f64,
    /// Sum of their self times.
    pub self_time: f64,
}

/// An append-only span store.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Trace::close`] finishes.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Finishes a span opened with [`Trace::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its children cover (overlapping children count
    /// once; a child sticking out of its parent is clipped).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total += span.duration();
            t.self_time += self_time;
        }
        out
    }

    /// Writes the spans as NDJSON (`{"id", "name", "start", "end",
    /// "parent", "self"}` per line) after a one-line `header` object.
    pub fn write_ndjson(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, (span, self_time)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start":{},"end":{},"parent":{parent},"self":{self_time}}}"#,
                span.name, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let o = t.origin;
        let root = t.record("root", None, at(o, 0), at(o, 100));
        // Two overlapping children cover [10, 50]; a third covers [60, 70].
        t.record("a", Some(root), at(o, 10), at(o, 40));
        t.record("b", Some(root), at(o, 30), at(o, 50));
        let c = t.record("c", Some(root), at(o, 60), at(o, 70));
        // A grandchild does not count against the root, only against c.
        t.record("d", Some(c), at(o, 62), at(o, 66));
        let selfs = t.self_times();
        assert!((selfs[root] - 0.050).abs() < 1e-9, "{}", selfs[root]);
        assert!((selfs[c] - 0.006).abs() < 1e-9, "{}", selfs[c]);
        assert!((selfs[1] - 0.030).abs() < 1e-9);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Trace::new();
        let o = t.origin;
        let root = t.record("root", None, at(o, 10), at(o, 20));
        t.record("late", Some(root), at(o, 15), at(o, 30));
        assert!((t.self_times()[root] - 0.005).abs() < 1e-9);
    }

    #[test]
    fn totals_group_by_name() {
        let mut t = Trace::new();
        let o = t.origin;
        let root = t.record("run", None, at(o, 0), at(o, 10));
        t.record("round", Some(root), at(o, 0), at(o, 4));
        t.record("round", Some(root), at(o, 4), at(o, 10));
        let totals = t.totals();
        assert_eq!(totals["round"].count, 2);
        assert!((totals["round"].total - 0.010).abs() < 1e-9);
        assert!(totals["run"].self_time.abs() < 1e-9);
    }
}
