//! In-memory span recording around the benchmark's calls into the
//! program, written to one file when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: a named interval with the span that enclosed it
/// and the number of operations it covered.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `campaign.nw` or `probe.machine.golden_run`.
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operations (trials, calls, cycles) the span covers.
    pub ops: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Wall time per covered operation.
    pub fn ns_per_op(&self) -> f64 {
        self.dur_ns() as f64 / self.ops.max(1) as f64
    }
}

/// Records spans when enabled; a disabled tracer only runs the calls.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes calls through.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `ops` operations;
    /// spans opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &str, ops: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_counted(name, |t| (f(t), ops))
    }

    /// [`Tracer::span`] for calls that report their own operation count.
    pub fn span_counted<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            ops: 0,
        });
        self.stack.push(idx);
        let (out, ops) = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.ops = ops;
        out
    }

    /// Per-operation times (ns) of every span named `name`.
    pub fn ns_per_op(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ns_per_op).collect()
    }

    /// Every span named `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Renders every span as one tab-separated line, self time included.
    pub fn render(&self, workload: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("id\tparent\tworkload\tname\tstart_ns\tend_ns\tops\tself_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{workload}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.name, s.start_ns, s.end_ns, s.ops
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// children clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)), // a grandchild is not the root's child
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(100, 200, None),
            span(90, 130, Some(0)),  // clipped to the parent: 30
            span(120, 150, Some(0)), // overlaps the first: +20
            span(190, 260, Some(0)), // clipped: +10
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", 1, |t| t.span("b", 1, |_| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_spans() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 4, |_| ());
            t.span("inner", 4, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(t.ns_per_op("inner").len(), 2);
        assert!(t.render("w").lines().count() == 4);
    }
}
