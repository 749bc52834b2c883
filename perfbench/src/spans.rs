//! Spans the benchmark records around its own calls into each layer:
//! name, start, end, parent span and the id of the run or cell they
//! belong to. Kept in memory and written out as NDJSON at the end.

use std::time::Instant;

/// One closed (or still open, `end == start`) span. Times are seconds
/// since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `world.build`.
    pub name: &'static str,
    /// The run or cell this span belongs to.
    pub cell: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Start, in seconds since the tracer's origin.
    pub start: f64,
    /// End, in seconds since the tracer's origin.
    pub end: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans. A disabled tracer records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::end`]. Spans opened while it
    /// is open become its children.
    pub fn begin(&mut self, name: &'static str, cell: u64) {
        if !self.enabled {
            return;
        }
        let t = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            cell,
            parent: self.stack.last().copied(),
            start: t,
            end: t,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.stack.pop().expect("end() matches a begin()");
        self.spans[i].end = self.origin.elapsed().as_secs_f64();
    }

    /// Closes every open span (after a call panicked inside one).
    pub fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.end();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, cell: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, cell);
        let out = f();
        self.end();
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// The spans as NDJSON, one object per line, with self times.
pub fn to_ndjson(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"cell\":{},\"parent\":{parent},\
             \"start_s\":{},\"end_s\":{},\"self_s\":{own}}}\n",
            s.name, s.cell, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            cell: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("cell", None, 0.0, 10.0),
            span("world.build", Some(0), 1.0, 3.0),
            span("engine.run_to", Some(0), 4.0, 8.0),
            // A grandchild is covered by its parent, not by the root.
            span("inner", Some(2), 5.0, 6.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![4.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 2.0, 6.0),
            span("b", Some(0), 4.0, 7.0),
            // Clipped to the parent's interval.
            span("c", Some(0), 9.0, 12.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 10.0 - 5.0 - 1.0);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin("run", 7);
        let x = t.time("world.build", 7, || 41 + 1);
        t.end();
        assert_eq!(x, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(to_ndjson(s).lines().count() == 2);

        let mut off = Tracer::new(false);
        off.begin("run", 0);
        off.time("x", 0, || ());
        off.end();
        assert!(off.spans().is_empty());
    }
}
