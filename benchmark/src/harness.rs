//! Measurement plumbing shared by every workload: run configuration,
//! the timed-section record, percentile arithmetic, and the metric
//! list with its two renderings (one line per metric for people, one
//! JSON object for the driver).

use crate::trace::Span;
use serde_json::Value;
use std::time::{Duration, Instant};

/// How large a run is. `Smoke` exists to check that every metric is
/// emitted and every gate passes in a few seconds; its numbers mean
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes and op counts the committed numbers are taken at.
    Full,
    /// Input sizes ÷ 10, op-count floors ÷ 50.
    Smoke,
}

impl Scale {
    /// `full` at full scale, `smoke` at smoke scale.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One run's configuration, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    /// Full or smoke sizes.
    pub scale: Scale,
}

/// When a closed loop of ops stops: after at least `min_ops`, and not
/// before `deadline` (warm-ups have no deadline — they are a count).
#[derive(Debug, Clone, Copy)]
pub struct Until {
    /// Ops to run at the very least.
    pub min_ops: usize,
    /// Keep going until this instant.
    pub deadline: Option<Instant>,
}

impl Until {
    /// Exactly `n` ops.
    pub fn ops(n: usize) -> Until {
        Until {
            min_ops: n,
            deadline: None,
        }
    }

    /// At least `min_ops` ops and at least `seconds` of wall clock.
    pub fn seconds(seconds: f64, min_ops: usize) -> Until {
        Until {
            min_ops,
            deadline: Some(Instant::now() + Duration::from_secs_f64(seconds)),
        }
    }

    /// True once `ops` completed ops satisfy the stop rule.
    pub fn done(&self, ops: usize) -> bool {
        ops >= self.min_ops && self.deadline.is_none_or(|d| Instant::now() >= d)
    }
}

/// Iterations of the calibration loop in one probe run.
const PROBE_ITERS: u64 = 65_536;

/// What one probe run takes at the reference clock, in milliseconds:
/// the 2-core Xeon VM the committed baseline was taken on runs the loop
/// at 1.82 ns per iteration more often than at any other speed, so
/// there a corrected time reads like the usual wall clock. A constant:
/// on any one machine it scales every time metric by the same factor.
const NOMINAL_PROBE_MS: f64 = PROBE_ITERS as f64 * 1.82e-6;

/// The calibration loop: a serial chain of register operations, so its
/// time is a count of core clock cycles and nothing else.
#[inline(never)]
fn calibration_loop(iters: u64) -> u64 {
    let mut x = 88_172_645_463_325_252_u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// How long the calibration loop takes right now, in milliseconds: the
/// faster of two runs, so one interrupt does not read as a slow host.
pub fn probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        std::hint::black_box(calibration_loop(std::hint::black_box(PROBE_ITERS)));
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One timed call: its wall clock, and the core clock around it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall clock of the call, in milliseconds.
    pub raw_ms: f64,
    /// Mean of the probes taken just before and just after the call.
    pub probe_ms: f64,
}

impl Sample {
    /// The wall clock scaled to the reference core clock: wall ×
    /// nominal probe / measured probe.
    ///
    /// On the shared host the core clock moves by up to 40 % from one
    /// second to the next with the other tenants' load (the loop reads
    /// 1.43–2.12 ns per iteration), and stays off for minutes, so no
    /// statistic over one 20-second run removes it. Scaling removes the
    /// clock's part of the run-to-run spread — about a quarter of it;
    /// the rest is the host's memory system, which the loop does not
    /// see (README, *How steady the numbers are*).
    pub fn corrected_ms(&self) -> f64 {
        self.raw_ms * NOMINAL_PROBE_MS / self.probe_ms
    }
}

/// Times calls on the calling thread, with a probe between every two.
#[derive(Debug)]
pub struct Meter {
    last_probe_ms: f64,
    samples: Vec<Sample>,
}

impl Meter {
    /// A meter; takes the first probe.
    pub fn start() -> Meter {
        Meter {
            last_probe_ms: probe_ms(),
            samples: Vec::new(),
        }
    }

    /// Runs and times `f`, then probes.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let raw_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = probe_ms();
        self.samples.push(Sample {
            raw_ms,
            probe_ms: (self.last_probe_ms + after) / 2.0,
        });
        self.last_probe_ms = after;
        out
    }

    /// Calls timed so far.
    pub fn calls(&self) -> usize {
        self.samples.len()
    }

    /// Total corrected time of the calls, in seconds.
    pub fn busy_s(&self) -> f64 {
        corrected_s(&self.samples)
    }
}

fn corrected_s(samples: &[Sample]) -> f64 {
    samples.iter().map(Sample::corrected_ms).sum::<f64>() / 1e3
}

/// What one closed-loop section of ops produced. All times are
/// corrected for the core clock (see [`Sample::corrected_ms`]).
#[derive(Debug, Default)]
pub struct Section {
    /// Every op of every client, in completion order per client.
    pub samples: Vec<Sample>,
    /// Work units per second of busy time, summed over clients.
    pub throughput_per_s: f64,
    /// Ops that failed, were refused, or failed a per-op gate.
    pub failed: u64,
    /// Spans recorded when the section ran traced (empty otherwise).
    pub spans: Vec<Span>,
}

impl Section {
    /// Adds one closed-loop client's ops, which completed `units` work
    /// units between them.
    pub fn add_client(&mut self, ops: Meter, units: u64) {
        self.throughput_per_s += units as f64 / ops.busy_s();
        self.samples.extend(ops.samples);
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Latency of every op, in milliseconds, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .samples
                .iter()
                .map(Sample::corrected_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// Total corrected time of the ops, in seconds.
    pub fn busy_s(&self) -> f64 {
        corrected_s(&self.samples)
    }
}

/// The value at percentile `pct` (0..=100) of an ascending slice, by
/// the nearest-rank method.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie beyond percentile `pct` — a tail
/// percentile is only reported with at least [`MIN_BEYOND`] of them.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `pct` among `n`.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (nearest rank); zero for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile(&sorted(values), 50.0)
}

/// Peak resident set of this process in megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    diic_bench::peak_rss_kb() as f64 / 1024.0
}

/// An ordered list of named measurements.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already recorded: a metric is measured in
    /// one place.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.entries.push((name.to_string(), value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Recorded names, in recording order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// One `name value unit` line per metric.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            out.push_str(&format!("{name:<44} {value:>16.4} {unit}\n"));
        }
        out
    }

    /// The `metrics` member of the result object.
    pub fn to_json(&self) -> Value {
        Value::object(self.entries.iter().map(|(name, value, unit)| {
            (
                name.as_str(),
                Value::object([("value", Value::from(*value)), ("unit", Value::from(*unit))]),
            )
        }))
    }
}

/// The one-line result object the driver reads from the last line of
/// standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    serde_json::to_string(&Value::object([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", metrics.to_json()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        // 30 batch ops: p66 keeps 10 beyond, p75 does not.
        assert_eq!(samples_beyond(30, 66.0), 10);
        assert!(samples_beyond(30, 75.0) < MIN_BEYOND);
        // 2 000 latency ops: p99 keeps 20 beyond; 999 ops would not do.
        assert_eq!(samples_beyond(2000, 99.0), 20);
        assert!(samples_beyond(999, 99.0) < MIN_BEYOND);
        assert_eq!(samples_beyond(1000, 99.0), MIN_BEYOND);
    }

    #[test]
    fn a_sample_is_scaled_by_the_probe_around_it() {
        let at_reference = Sample {
            raw_ms: 10.0,
            probe_ms: NOMINAL_PROBE_MS,
        };
        assert_eq!(at_reference.corrected_ms(), 10.0);
        // A clock a quarter slower stretches the probe and the call alike.
        let slow = Sample {
            raw_ms: 12.5,
            probe_ms: NOMINAL_PROBE_MS * 1.25,
        };
        assert!((slow.corrected_ms() - 10.0).abs() < 1e-9);

        let mut meter = Meter::start();
        assert_eq!(meter.measure(|| 6 * 7), 42);
        meter.measure(|| std::hint::black_box(calibration_loop(PROBE_ITERS)));
        assert_eq!(meter.calls(), 2);
        // The second call was the probe's own loop: about one nominal
        // probe long once corrected, whatever the clock is doing.
        let timed = meter.samples[1].corrected_ms();
        assert!((0.3..3.0).contains(&(timed / NOMINAL_PROBE_MS)), "{timed}");

        // Two clients of 100 units each, busy one corrected second each.
        let client = || Meter {
            last_probe_ms: NOMINAL_PROBE_MS,
            samples: vec![
                Sample {
                    raw_ms: 500.0,
                    probe_ms: NOMINAL_PROBE_MS
                };
                2
            ],
        };
        let mut section = Section::default();
        section.add_client(client(), 100);
        section.add_client(client(), 100);
        assert_eq!(section.attempted(), 4);
        assert!((section.throughput_per_s - 200.0).abs() < 1e-9);
        assert!((section.busy_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 15.0);
        assert_eq!(percentile(&v, 66.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 30.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Exactly the samples beyond the reported value are larger.
        let beyond = v.iter().filter(|&&x| x > percentile(&v, 66.0)).count();
        assert_eq!(beyond, samples_beyond(v.len(), 66.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_round_trips_through_the_compat_json() {
        let mut m = Metrics::default();
        m.put("op_p50_ms", 4.302_118_5, "ms");
        m.put("setup_s", 2.25, "s");
        m.put("interact.candidate_pairs", 627_053.0, "count");
        let line = result_line(5000, 0, &m);
        assert!(!line.contains('\n'));
        let parsed = serde_json::from_str(&line).expect("the emitter writes valid JSON");
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Value::as_i64), Some(5000));
        assert_eq!(parsed.get("failed").and_then(Value::as_i64), Some(0));
        let metrics = parsed.get("metrics").expect("metrics member");
        let keys: Vec<&str> = metrics
            .as_object()
            .expect("metrics is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, m.names());
        for name in m.names() {
            let entry = metrics.get(name).expect("every metric is present");
            assert_eq!(entry.get("value").and_then(Value::as_f64), m.get(name));
            assert!(entry.get("unit").and_then(Value::as_str).is_some());
        }
        let failed = result_line(10, 3, &m);
        let parsed = serde_json::from_str(&failed).expect("valid JSON");
        assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(false));
    }
}
