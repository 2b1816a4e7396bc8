//! `edit-session`: one designer, one `CheckSession` on an
//! ~8 000-element chip with a non-empty report, replaying the do/undo
//! stream of [`crate::edits`]; every 16th op first streams the full
//! report.
//!
//! `incremental.rs`, `GridIndex` churn, the `NetParts` patch, clipped
//! flat interactions and `merge_canonical` do the work; the batch
//! stages run only in the rebuild tail that `replace_symbol` triggers.

use super::{Spec, Workload};
use crate::edits::{EditKind, EditStream};
use crate::harness::{median, Config, Meter, Metrics, Section, Until};
use crate::layers;
use crate::trace::{self, Tracer};
use diic_cif::Layout;
use diic_core::{
    canonical_check, interaction_cell_size, CheckOptions, CheckSession, EditStats, StreamingSink,
    Violation,
};
use diic_gen::{ChipSpec, ErrorKind, GeneratedChip};
use diic_tech::Technology;
use std::time::Instant;

pub const SPEC: Spec = Spec {
    name: "edit-session",
    tail_pct: 99.0,
    min_ops: 2000,
    unit: "edits",
};

/// An op reads the whole report first when its index is a multiple of
/// this.
const READ_EVERY: usize = 16;

/// The chip both editing workloads open sessions on: a 24 x 12 inverter
/// array with 24 injected faults of eight kinds at seed-dependent
/// places. `DepletionToGround` is left out and `PowerGroundShort` kept
/// to one: each puts ~27 ERC lines on a whole row, two in one row
/// overlap, and the report size — which edit latency follows — then
/// swung 137–187 lines with the seed.
pub fn session_chip(cfg: &Config, seed: u64) -> GeneratedChip {
    use ErrorKind::*;
    let mut errors = vec![PowerGroundShort];
    for (kind, n) in [
        (NarrowWire, 4),
        (CloseSpacing, 4),
        (AccidentalTransistor, 3),
        (ButtedBoxes, 3),
        (BusToRail, 3),
        (BadGateOverhang, 3),
        (ContactOverGate, 3),
    ] {
        errors.extend(std::iter::repeat_n(kind, n));
    }
    let (nx, ny) = cfg.scale.pick((24, 12), (8, 4));
    diic_gen::generate(&ChipSpec::with_errors(nx, ny, errors, seed))
}

/// Ops in one cycle of an edit stream.
pub fn stream_len(cfg: &Config) -> usize {
    cfg.scale.pick(4096, 128)
}

/// Renders violations the way `StreamingSink` writes them.
pub fn render(violations: &[Violation]) -> String {
    violations.iter().map(|v| format!("{v:?}\n")).collect()
}

pub struct EditSession {
    start: Layout,
    start_report: String,
    tech: Technology,
    options: CheckOptions,
    session: CheckSession,
    stream: EditStream,
    ops_done: usize,
    /// What each traced apply did, with its kind.
    applied: Vec<(EditKind, EditStats)>,
}

impl EditSession {
    pub fn setup(cfg: &Config) -> (EditSession, f64) {
        let mut meter = Meter::start();
        let mut edit = meter.measure(|| {
            let chip = session_chip(cfg, cfg.seed);
            let start = diic_cif::parse(&chip.cif).expect("generated chips always parse");
            let tech = diic_tech::nmos::nmos_technology();
            let options = CheckOptions {
                parallelism: 1,
                ..CheckOptions::default()
            };
            let session = CheckSession::new(start.clone(), &tech, &options);
            EditSession {
                start_report: render(&session.report().violations),
                stream: EditStream::new(&start, cfg.seed, stream_len(cfg)),
                start,
                tech,
                options,
                session,
                ops_done: 0,
                applied: Vec::new(),
            }
        });
        assert!(
            !edit.start_report.is_empty(),
            "the faulted chip has a non-empty report"
        );
        let warm_up = edit.run(Until::ops(cfg.scale.pick(600, 12)), false);
        (edit, meter.busy_s() + warm_up.busy_s())
    }
}

impl Workload for EditSession {
    fn run(&mut self, until: Until, trace: bool) -> Section {
        let mut section = Section::default();
        let mut tracer = Tracer::new(trace, Instant::now(), 0);
        self.applied.clear();
        let mut meter = Meter::start();
        while !until.done(meter.calls()) {
            let read = self.ops_done.is_multiple_of(READ_EVERY);
            self.ops_done += 1;
            let op = self.stream.next_op();
            let session = &mut self.session;
            let applied = meter.measure(|| {
                tracer.span("op", |t| {
                    if read {
                        t.span("report_read", |_| {
                            let mut sink = StreamingSink::new(diic_bench::FnvWriter::new(), 4096);
                            session.emit_report(&mut sink);
                            sink.finish().expect("hashing cannot fail");
                        });
                    }
                    t.span("apply", |t| {
                        let applied = session.apply(&op.edits);
                        if let Ok(stats) = &applied {
                            t.synthetic("edit.view", stats.t_view);
                            t.synthetic("edit.conn", stats.t_conn);
                            t.synthetic("edit.net", stats.t_net);
                            t.synthetic("edit.interact", stats.t_interact);
                            t.synthetic("edit.global", stats.t_global);
                            t.synthetic("edit.patch", stats.t_patch);
                        }
                        applied
                    })
                })
            });
            match applied {
                Ok(stats) if trace => self.applied.push((op.kind, stats)),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("edit refused: {e}");
                    section.failed += 1;
                }
            }
        }
        // One edit per op.
        let edits = meter.calls() as u64;
        section.add_client(meter, edits);
        section.spans = tracer.into_spans();
        section
    }

    fn verify(&mut self) -> Result<(), String> {
        for inverse in self.stream.close() {
            self.session
                .apply(&inverse.edits)
                .map_err(|e| format!("closing inverse refused: {e}"))?;
        }
        if self.session.layout() != &self.start {
            return Err("the final layout differs from the start layout".into());
        }
        let report = render(&self.session.report().violations);
        if report != self.start_report {
            return Err("the final report differs from the initial report".into());
        }
        let oracle = canonical_check(self.session.layout(), &self.tech, &self.options);
        if report != render(&oracle.violations) {
            return Err("the session report differs from canonical_check".into());
        }
        Ok(())
    }

    fn layer_metrics(&mut self, traced: &Section, out: &mut Metrics) {
        let spans = &traced.spans;
        for phase in ["view", "conn", "net", "interact", "global", "patch"] {
            out.put(
                &format!("edit.t_{phase}_us"),
                median(&trace::durations_us(spans, &format!("edit.{phase}"))),
                "us",
            );
        }
        let applies = self.applied.len().max(1) as f64;
        let share = |pred: fn(&EditStats) -> bool| {
            self.applied.iter().filter(|(_, s)| pred(s)).count() as f64 / applies
        };
        out.put(
            "edit.full_rebuild_share",
            share(|s| s.full_rebuild),
            "ratio",
        );
        out.put(
            "edit.netlist_reused_share",
            share(|s| s.netlist_reused),
            "ratio",
        );
        out.put(
            "edit.rechecked_pairs_per_edit",
            self.applied
                .iter()
                .map(|(_, s)| s.rechecked_pairs)
                .sum::<u64>() as f64
                / applies,
            "count",
        );
        out.put(
            "edit.index_compactions",
            self.applied
                .iter()
                .filter(|(_, s)| s.index_compacted)
                .count() as f64,
            "count",
        );

        // `apply` spans are in op order, like `self.applied`.
        let apply_us = trace::durations_us(spans, "apply");
        out.put("edit.apply_p50_ms", median(&apply_us) / 1e3, "ms");
        for (kind, name) in EditKind::ALL
            .into_iter()
            .zip(["move", "add", "addcall", "replace"])
        {
            let of_kind: Vec<f64> = apply_us
                .iter()
                .zip(&self.applied)
                .filter(|(_, (k, _))| *k == kind)
                .map(|(us, _)| *us)
                .collect();
            out.put(&format!("edit.{name}_p50_ms"), median(&of_kind) / 1e3, "ms");
        }
        out.put(
            "edit.report_read_p50_ms",
            median(&trace::durations_us(spans, "report_read")) / 1e3,
            "ms",
        );

        let bboxes: Vec<_> = diic_cif::flatten(&self.start)
            .iter()
            .map(|e| e.shape.bbox())
            .collect();
        layers::geom_index_churn(&bboxes, interaction_cell_size(&self.tech), out);
    }
}
