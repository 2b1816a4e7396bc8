//! `batch-100k`: CIF text of a clean 100 000-element array in, verdict
//! out, through the stage pipeline.
//!
//! Why this size: the op must run at least 30 times inside one
//! 20-second section (`op_tail_ms` is p66 and needs ten samples beyond
//! it) with room for a slow host, which puts it near 0.35 s. The
//! interaction stage's superlinear term — the ROADMAP's 10⁷ wall — is
//! already visible here, and `interact.scale_exponent` reads it
//! directly. At 10⁶ elements six ops fit in a run and agreed only to
//! 14 %; a `batch-1m` workload is a later benchmark issue.

use super::{stage_span, Spec, Workload};
use crate::harness::{median, Config, Meter, Metrics, Section, Until};
use crate::layers;
use crate::trace::{self, Tracer};
use diic_core::{
    check_with_sink, interaction_cell_size, max_rule_range, CheckOptions, CheckReport,
    CountingSink, LayerBinding, StageEngine,
};
use diic_tech::Technology;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    name: "batch-100k",
    tail_pct: 66.0,
    min_ops: 30,
    unit: "elements",
};

/// The stages that carry the work; everything else is `stage.other`.
const BIG_STAGES: [&str; 4] = [
    "stage.instantiate",
    "stage.connections",
    "stage.netlist",
    "stage.interactions",
];

pub struct Batch {
    cfg: Config,
    target: u64,
    cif: String,
    tech: Technology,
    options: CheckOptions,
    engine: StageEngine,
    /// Candidate pairs of the first op; every later op must match.
    pairs: Option<u64>,
    last: Option<CheckReport>,
}

impl Batch {
    pub fn setup(cfg: &Config) -> (Batch, f64) {
        let target = cfg.scale.pick(100_000, 10_000);
        let mut meter = Meter::start();
        let mut batch = meter.measure(|| Batch {
            cfg: *cfg,
            target,
            // The array is rule-clean by construction and the same for
            // every seed: the gate is "zero violations".
            cif: diic_gen::mega_chip(target).cif,
            tech: diic_tech::nmos::nmos_technology(),
            options: CheckOptions {
                hierarchical: true,
                erc: false,
                parallelism: 1,
                ..CheckOptions::default()
            },
            engine: StageEngine::diic_pipeline(),
            pairs: None,
            last: None,
        });
        let warm_up = batch.run(Until::ops(cfg.scale.pick(6, 1)), false);
        (batch, meter.busy_s() + warm_up.busy_s())
    }

    /// One op: CIF text to verdict. Returns the report and whether the
    /// per-op gates held.
    fn op(&self, cif: &str, target: u64, tracer: &mut Tracer) -> (CheckReport, bool) {
        let (report, reported) = tracer.span("op", |t| {
            let layout = t.span("cif.parse", |_| {
                diic_cif::parse(cif).expect("generated chips always parse")
            });
            t.span("check", |t| {
                let mut sink = CountingSink::new();
                let report =
                    check_with_sink(&self.engine, &layout, &self.tech, &self.options, &mut sink);
                for stage in &report.stage_profile {
                    t.synthetic(stage_span(&stage.name), stage.duration);
                }
                (report, sink.total())
            })
        });
        let ok = reported == 0 && report.is_clean() && report.element_count as u64 >= target;
        (report, ok)
    }
}

impl Workload for Batch {
    fn run(&mut self, until: Until, trace: bool) -> Section {
        let mut section = Section::default();
        let mut tracer = Tracer::new(trace, Instant::now(), 0);
        let mut meter = Meter::start();
        let mut units = 0;
        while !until.done(meter.calls()) {
            let (report, clean) = meter.measure(|| self.op(&self.cif, self.target, &mut tracer));
            let pairs = report.interact_stats.candidate_pairs;
            let same_pairs = *self.pairs.get_or_insert(pairs) == pairs;
            if !(clean && same_pairs) {
                eprintln!(
                    "batch gate failed: clean={clean} elements={} pairs={pairs} (first op {:?})",
                    report.element_count, self.pairs
                );
                section.failed += 1;
            }
            units += report.element_count as u64;
            self.last = Some(report);
        }
        section.add_client(meter, units);
        section.spans = tracer.into_spans();
        section
    }

    fn layer_metrics(&mut self, traced: &Section, out: &mut Metrics) {
        let spans = &traced.spans;
        let stage_ms = |name: &str| median(&trace::durations_us(spans, name)) / 1e3;
        for name in BIG_STAGES {
            out.put(&format!("{name}_ms"), stage_ms(name), "ms");
        }
        // Per op: everything that is not one of the four big stages —
        // CIF parse, the small stages, and the engine's own self time.
        let selfs = trace::self_times_us(spans);
        let mut other: std::collections::BTreeMap<u64, f64> = Default::default();
        for (s, self_us) in spans.iter().zip(selfs) {
            if !BIG_STAGES.contains(&s.name) {
                *other.entry(s.op).or_default() += self_us;
            }
        }
        let other: Vec<f64> = other.into_values().collect();
        out.put("stage.other_ms", median(&other) / 1e3, "ms");

        let report = self.last.as_ref().expect("a traced op ran");
        let stats = &report.interact_stats;
        let pairs = stats.candidate_pairs as f64;
        out.put("interact.candidate_pairs", pairs, "count");
        out.put(
            "interact.peak_candidate_buffer",
            stats.peak_candidate_buffer as f64,
            "count",
        );
        let interact_ms = stage_ms("stage.interactions");
        out.put("interact.ns_per_pair", interact_ms * 1e6 / pairs, "ns");

        // The same check at half the size: the log-log slope of the
        // interaction stage's time is 1.0 when it scales linearly.
        let full_elements = report.element_count as f64;
        let half_target = self.target / 2;
        let half_cif = diic_gen::mega_chip(half_target).cif;
        let mut half_ms = Vec::new();
        let mut half_elements = 0.0;
        let mut tracer = Tracer::off();
        for _ in 0..self.cfg.scale.pick(7, 2) {
            let (half, _) = self.op(&half_cif, half_target, &mut tracer);
            half_elements = half.element_count as f64;
            half_ms.extend(
                half.stage_profile
                    .iter()
                    .filter(|s| s.name == "interactions")
                    .map(|s| s.duration.as_secs_f64() * 1e3),
            );
        }
        out.put(
            "interact.scale_exponent",
            (interact_ms / median(&half_ms)).ln() / (full_elements / half_elements).ln(),
            "ratio",
        );

        let layout = diic_cif::parse(&self.cif).expect("generated chips always parse");
        let (binding, _) = LayerBinding::bind(&layout, &self.tech);
        let view = diic_core::instantiate_parallel(&layout, &self.tech, &binding, 1);
        layers::geom_batch(
            &view,
            interaction_cell_size(&self.tech),
            max_rule_range(&self.tech),
            out,
        );
    }
}
