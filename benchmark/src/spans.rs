//! In-memory spans around the calls the traced replay makes into each
//! layer, with self time and JSONL / Chrome `trace_event` output.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (cell, run or fuzz case) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans; single-threaded, like the replay.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Runs `f` as a new operation: a `replay.op` root span whose
    /// children all carry the operation's identifier.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op += 1;
        self.span("replay.op", f)
    }

    /// Self time of every span, in `spans` order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, c)| self_time(s.start_ns, s.end_ns, c))
            .collect()
    }
}

/// A span's duration minus the part of it its children cover. Children
/// may overlap each other or stick out of the parent; covered time is
/// the union of their intervals, clipped to the parent.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// One line per span: workload, round, operation, name, parent index,
/// start, end and self time in nanoseconds.
pub fn jsonl(workload: &str, round: usize, tracer: &Tracer, out: &mut String) {
    for (i, (s, self_ns)) in tracer.spans.iter().zip(tracer.self_times()).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"round\":{round},\"op\":{},\"id\":{i},\"name\":\"{}\",\
             \"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
}

/// Chrome `trace_event` complete events, one thread row per workload.
pub fn chrome_events(workload: &str, tid: usize, tracer: &Tracer, events: &mut Vec<String>) {
    for s in &tracer.spans {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.op
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        // Nested children, disjoint.
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 60)]), 60);
        // Overlapping children count their union once: [10,50) and [90,100).
        assert_eq!(self_time(0, 100, &mut [(20, 50), (10, 30), (90, 120)]), 50);
        // A child covering everything leaves no self time.
        assert_eq!(self_time(10, 20, &mut [(0, 30)]), 0);
        // A child contained in an earlier one adds nothing.
        assert_eq!(self_time(0, 100, &mut [(10, 80), (20, 30)]), 30);
    }

    #[test]
    fn tracer_nests_and_numbers_operations() {
        let mut t = Tracer::new(Instant::now());
        let v = t.op(|t| {
            let a = t.span("layer.a", |t| t.span("layer.b", |_| 2));
            a + t.span("layer.c", |_| 1)
        });
        assert_eq!(v, 3);
        t.op(|t| t.span("layer.a", |_| ()));
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("replay.op", 1, None),
                ("layer.a", 1, Some(0)),
                ("layer.b", 1, Some(1)),
                ("layer.c", 1, Some(0)),
                ("replay.op", 2, None),
                ("layer.a", 2, Some(4)),
            ]
        );
        let selfs = t.self_times();
        for (s, &own) in t.spans.iter().zip(&selfs) {
            assert!(s.start_ns <= s.end_ns && own <= s.end_ns - s.start_ns);
        }
        // Self times tile each root span exactly.
        let op1: u64 = selfs[..4].iter().sum();
        assert_eq!(op1, t.spans[0].end_ns - t.spans[0].start_ns);
        let mut lines = String::new();
        jsonl("unit", 0, &t, &mut lines);
        assert_eq!(lines.lines().count(), 6);
        assert!(lines.starts_with("{\"workload\":\"unit\",\"round\":0,\"op\":1,\"id\":0,"));
    }
}
