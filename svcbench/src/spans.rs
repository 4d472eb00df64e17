//! Spans, self times and exact percentiles.
//!
//! A span records one call at a layer boundary: its name, start and end
//! on the run's clock, the span that caused it, and the request it
//! belongs to. Spans stay in memory and are written out once, when the
//! run ends.

use std::io::{self, Write};
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's monotonic clock, in nanoseconds since it was made.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// An in-memory span log.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Opens a span and returns its index; close it with [`SpanLog::close`].
    pub fn open(&mut self, clock: &Clock, name: &'static str, parent: u32, req: u32) -> u32 {
        let start_ns = clock.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, clock: &Clock, id: u32) {
        self.spans[id as usize].end_ns = clock.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        clock: &Clock,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(clock, name, parent, req);
        let out = f();
        self.close(clock, id);
        out
    }

    /// Writes one tab-separated line per span: id, parent (`-` for a
    /// root), request id, name, start and end in nanoseconds.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once; the parts
/// of a child outside its parent count not at all).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Latencies up to this many nanoseconds are counted in 1 ns buckets;
/// longer ones are kept raw.
const EXACT_NS: usize = 1 << 22;

/// Every latency of a run, kept exactly in fixed memory: a count per
/// nanosecond below [`EXACT_NS`] and the rare longer samples raw. The
/// memory is touched up front, so the generator's share of the process
/// RSS does not grow with the run.
pub struct Latencies {
    counts: Vec<u32>,
    over: Vec<u32>,
    n: u64,
}

impl Latencies {
    pub fn new() -> Latencies {
        let mut counts = vec![0u32; EXACT_NS];
        // A zeroed allocation can be untouched zero pages; writing each
        // counter makes them resident now.
        for c in counts.iter_mut() {
            *c = std::hint::black_box(0);
        }
        Latencies {
            counts,
            over: Vec::with_capacity(1 << 16),
            n: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns.min(u32::MAX as u64) as u32),
        }
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.over.clear();
        self.n = 0;
    }

    /// Exact nearest-rank percentile: the smallest sample with at least
    /// `p`% of the samples at or below it (0 when empty).
    pub fn percentile(&mut self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return ns as u64;
            }
        }
        self.over.sort_unstable();
        self.over[(rank - seen - 1) as usize] as u64
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 40, 70, 0),
            span("a.1", 12, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 100, 200, ROOT),
            span("x", 90, 130, 0),  // 30 inside
            span("y", 120, 150, 0), // overlaps x by 10
            span("z", 190, 260, 0), // 10 inside
        ];
        // covered: [100,150) + [190,200) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut l = Latencies::new();
        assert_eq!(l.percentile(50.0), 0);
        for v in 1..=10 {
            l.record(v);
        }
        assert_eq!(l.percentile(50.0), 5);
        assert_eq!(l.percentile(90.0), 9);
        assert_eq!(l.percentile(99.0), 10);
        assert_eq!(l.percentile(0.0), 1);
        l.clear();
        l.record(7);
        assert_eq!((l.len(), l.percentile(50.0)), (1, 7));
    }

    #[test]
    fn percentiles_match_a_sorted_vector_across_the_overflow() {
        let mut l = Latencies::new();
        let mut all = Vec::new();
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A quarter of the samples land past the exact range.
            let v = (x >> 33) % (EXACT_NS as u64 * 4 / 3);
            l.record(v);
            all.push(v);
        }
        all.sort_unstable();
        for p in [1.0, 50.0, 74.0, 75.0, 90.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * all.len() as f64).ceil() as usize;
            assert_eq!(l.percentile(p), all[rank - 1], "p{p}");
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn span_log_nests_and_writes() {
        let clock = Clock::new();
        let mut log = SpanLog::default();
        let root = log.open(&clock, "root", ROOT, 3);
        let v = log.time(&clock, "child", root, 3, || 41 + 1);
        log.close(&clock, root);
        assert_eq!(v, 42);
        let st = self_times(&log.spans);
        assert_eq!(
            st[0] + log.spans[1].duration_ns(),
            log.spans[0].duration_ns()
        );
        let mut out = Vec::new();
        log.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("id\tparent\treq\tname"));
        assert!(text.contains("\t-\t3\troot\t"));
        assert!(text.contains("1\t0\t3\tchild\t"));
    }
}
