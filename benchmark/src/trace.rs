//! Spans recorded by the harness around its own calls into each layer.
//!
//! Nothing in the checker is instrumented: a span is opened and closed
//! here, around a public call, and where that call returns a breakdown
//! of its own time (`stage_profile`, `EditStats::t_*`) the pieces
//! become synthetic child spans laid end to end from the parent's
//! start. Spans stay in memory until the run ends and are then written
//! as Chrome-trace JSON (`chrome://tracing`, Perfetto).
//!
//! A span's **self time** is its duration minus the part of it its
//! children cover.

use serde_json::Value;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `cif.parse` or `stage.netlist`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: f64,
    /// End, in microseconds since the tracer's epoch.
    pub end_us: f64,
    /// Index of the span that caused this one, in the same list.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one op.
    pub op: u64,
    /// Recording thread (client number; 0 for single-threaded loads).
    pub thread: u32,
}

impl Span {
    /// Duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans for one thread; a disabled tracer records nothing and
/// reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    op: u64,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with the offset at which its
    /// next synthetic child starts.
    open: Vec<(usize, f64)>,
}

impl Tracer {
    /// A tracer for `thread`; all threads of a run share `epoch`.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. A span opened with none open starts a new op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.open.is_empty() {
            self.op += 1;
        }
        let start_us = self.now_us();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().map(|&(i, _)| i),
            op: self.op,
            thread: self.thread,
        });
        self.open.push((index, start_us));
        let out = f(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    /// Adds a child of the innermost open span for work the wrapped
    /// call timed itself: `duration` long, starting where the previous
    /// synthetic sibling ended (the parent's start for the first).
    pub fn synthetic(&mut self, name: &'static str, duration: Duration) {
        if !self.enabled {
            return;
        }
        let Some((parent, cursor)) = self.open.last_mut() else {
            return;
        };
        let start_us = *cursor;
        let end_us = start_us + duration.as_secs_f64() * 1e6;
        *cursor = end_us;
        let parent = *parent;
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: Some(parent),
            op: self.op,
            thread: self.thread,
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices and op
/// ids (each thread numbers its ops from 1) so both stay unique.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        let base_op = out.iter().map(|s| s.op).max().unwrap_or(0);
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op += base_op;
            s
        }));
    }
    out
}

/// Self time of every span, in microseconds: its duration minus the
/// sum of its direct children's durations (never below zero — a
/// synthetic breakdown can overshoot its parent by clock granularity).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_us();
        }
    }
    for v in &mut out {
        *v = v.max(0.0);
    }
    out
}

/// Durations (µs) of every span named `name`, in recording order.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// Renders spans as a Chrome-trace document: one complete (`"X"`)
/// event per span, with the op id, the parent's name, and the self
/// time in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times_us(spans);
    let events = spans.iter().zip(selfs).map(|(s, self_us)| {
        Value::object([
            ("name", Value::from(s.name)),
            ("cat", Value::from("diic")),
            ("ph", Value::from("X")),
            ("ts", Value::from(s.start_us)),
            ("dur", Value::from(s.duration_us())),
            ("pid", Value::from(1i64)),
            ("tid", Value::from(i64::from(s.thread))),
            (
                "args",
                Value::object([
                    ("op", Value::from(s.op)),
                    ("parent", Value::from(s.parent.map(|p| spans[p].name))),
                    ("self_us", Value::from(self_us)),
                ]),
            ),
        ])
    });
    serde_json::to_string(&Value::object([
        ("traceEvents", Value::array(events)),
        ("displayTimeUnit", Value::from("ms")),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            op: 1,
            thread: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("cif.parse", 0.0, 10.0, Some(0)),
            span("check", 10.0, 95.0, Some(0)),
            span("stage.netlist", 10.0, 40.0, Some(2)),
            span("stage.interactions", 40.0, 90.0, Some(2)),
        ];
        assert_eq!(self_times_us(&spans), vec![5.0, 10.0, 5.0, 30.0, 50.0]);
        assert_eq!(durations_us(&spans, "check"), vec![85.0]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times_us(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn an_overshooting_breakdown_clamps_self_time_at_zero() {
        let spans = vec![
            span("apply", 0.0, 10.0, None),
            span("edit.view", 0.0, 11.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_lays_synthetic_children_end_to_end() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        for _ in 0..2 {
            t.span("op", |t| {
                t.span("check", |t| {
                    t.synthetic("stage.a", Duration::from_micros(5));
                    t.synthetic("stage.b", Duration::from_micros(7));
                });
            });
        }
        let spans = t.into_spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].name, spans[2].parent), ("stage.a", Some(1)));
        assert_eq!(spans[2].start_us, spans[1].start_us);
        assert_eq!(spans[3].start_us, spans[2].end_us);
        assert!((spans[3].duration_us() - 7.0).abs() < 1e-6);
        assert_eq!((spans[0].op, spans[3].op), (1, 1));
        assert_eq!((spans[4].op, spans[7].op), (2, 2));
        assert!(spans.iter().all(|s| s.thread == 3));

        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[9].parent, Some(8));
        assert_eq!((merged[7].op, merged[8].op, merged[15].op), (2, 3, 4));

        let doc = serde_json::from_str(&chrome_trace(&merged)).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 16);
        assert_eq!(events[2].get("ph").and_then(Value::as_str), Some("X"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let x = t.span("op", |t| {
            t.synthetic("stage.a", Duration::from_micros(5));
            41 + 1
        });
        assert_eq!(x, 42);
        assert!(t.into_spans().is_empty());
    }
}
