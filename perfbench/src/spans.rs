//! Wall-clock spans recorded from outside the program: one around each
//! experiment call and each layer probe. Spans stay in memory and are
//! written once, when the run ends.

use std::time::Instant;

use serde::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans; a disabled tracer runs the closures and records
/// nothing, so untraced runs pay no bookkeeping.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Record a finished interval `[start, end)` as a child of the open
    /// span: a span for work timed by the program itself.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The span list as JSON, self time included.
pub fn to_json(spans: &[Span]) -> Value {
    let self_ns = self_times_ns(spans);
    Value::Array(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("start_ns".to_string(), Value::UInt(s.start_ns)),
                    ("end_ns".to_string(), Value::UInt(s.end_ns)),
                    ("self_ns".to_string(), Value::UInt(self_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            // Overlaps `a`: the union [10, 50) is covered once, not twice.
            span("b", Some(0), 30, 50),
            span("c", Some(0), 70, 80),
            // Grandchild: counts against `c` only.
            span("c1", Some(3), 72, 78),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 30, 20, 4, 6]);
    }

    #[test]
    fn recorded_intervals_become_children_of_the_open_span() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            let a = Instant::now();
            let b = a + std::time::Duration::from_micros(40);
            t.record("first", a, b);
            t.record("second", b, b + std::time::Duration::from_micros(60));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!(spans[1].end_ns - spans[1].start_ns, 40_000);
        assert_eq!(spans[1].end_ns, spans[2].start_ns);
        assert_eq!(spans[2].end_ns - spans[2].start_ns, 60_000);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 30)];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let r = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(r, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 3), 3);
        off.record("done", Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}
