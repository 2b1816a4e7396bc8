//! Sink-equivalence oracle: every [`Sink`] implementation must observe
//! the same violations from the same run.
//!
//! Proptest-generated chips with injected faults are checked by both
//! checkers (the DIIC pipeline, and the flat baseline's output pushed
//! through the same sinks), serial and wide, with the report emitted
//! three ways: buffered ([`DiagnosticSink`]), streamed in bounded chunks
//! of several sizes — including 1, the degenerate
//! everything-flushes-immediately case — ([`StreamingSink`]), and
//! counted ([`CountingSink`]). The streamed lines, canonicalised, must
//! equal the canonicalised buffered report; the counts must match per
//! stage and in total.

use diic::cif::Layout;
use diic::core::{
    canonical_sort, check_with_sink, env_parallelism, flat_check, CheckOptions, CountingSink,
    DiagnosticSink, FlatOptions, Sink, SpillingSink, StageEngine, StreamingSink, Violation,
};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::tech::nmos::nmos_technology;
use diic::tech::Technology;
use proptest::prelude::*;

/// The parallel worker count exercised against serial runs.
fn wide_workers() -> usize {
    env_parallelism().unwrap_or(0) // 0 = all available cores
}

/// The checkers every sink must agree on.
const CHECKERS: [&str; 2] = ["diic", "flat"];

/// Runs `checker` on `workers` workers with its violations emitted
/// through `sink`, and returns what its report still buffers: the
/// pipeline's report takes over a buffering sink's violations; the flat
/// baseline has no report, and its `flat_check` output is pushed through
/// the sink, so its violation shapes cross every sink too.
fn emit(
    checker: &str,
    layout: &Layout,
    tech: &Technology,
    workers: usize,
    sink: &mut dyn Sink,
) -> Vec<Violation> {
    if checker == "flat" {
        let options = FlatOptions {
            parallelism: workers,
            ..FlatOptions::default()
        };
        sink.absorb(flat_check(layout, tech, &options));
        return Vec::new();
    }
    let options = CheckOptions {
        erc: false,
        parallelism: workers,
        ..CheckOptions::default()
    };
    check_with_sink(&StageEngine::diic_pipeline(), layout, tech, &options, sink).violations
}

/// `checker`'s whole report, buffered in arrival order.
fn buffered(checker: &str, layout: &Layout, tech: &Technology, workers: usize) -> Vec<Violation> {
    let mut sink = DiagnosticSink::new();
    let mut report = emit(checker, layout, tech, workers, &mut sink);
    report.append(&mut sink.into_violations());
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_and_counting_sinks_match_buffered(
        nx in 2usize..5,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
    ) {
        let tech = nmos_technology();
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let layout = diic::cif::parse(&chip.cif).expect("generated chips always parse");

        for checker in CHECKERS {
            for parallelism in [1usize, wide_workers()] {
                let buffered = buffered(checker, &layout, &tech, parallelism);
                // The buffered report in canonical form is the oracle
                // the streamed chunks must reassemble to.
                let mut canonical = buffered.clone();
                canonical_sort(&mut canonical);
                let expect: Vec<String> =
                    canonical.iter().map(|v| format!("{v:?}")).collect();

                for chunk in [1usize, 3, 64] {
                    let mut sink = StreamingSink::new(Vec::new(), chunk);
                    let streamed = emit(checker, &layout, &tech, parallelism, &mut sink);
                    prop_assert!(
                        streamed.is_empty(),
                        "{checker}: a streaming run must buffer nothing"
                    );
                    let text = String::from_utf8(sink.finish().expect("vec write")).unwrap();
                    let mut got: Vec<String> =
                        text.lines().map(str::to_string).collect();
                    got.sort_unstable();
                    let mut want = expect.clone();
                    want.sort_unstable();
                    prop_assert_eq!(
                        got, want,
                        "{}: chunk={} workers={}: streamed report diverges \
                         (nx={} ny={} seed={} mask={:#b})",
                        checker, chunk, parallelism, nx, ny, seed, mask
                    );
                }

                let mut counting = CountingSink::new();
                emit(checker, &layout, &tech, parallelism, &mut counting);
                prop_assert_eq!(
                    counting.total(),
                    buffered.len(),
                    "{}: workers={}: counting sink disagrees on the total",
                    checker, parallelism
                );
                for stage in [
                    diic::core::CheckStage::Elements,
                    diic::core::CheckStage::PrimitiveSymbols,
                    diic::core::CheckStage::Connections,
                    diic::core::CheckStage::NetList,
                    diic::core::CheckStage::Interactions,
                    diic::core::CheckStage::Composition,
                ] {
                    prop_assert_eq!(
                        counting.count(stage),
                        buffered.iter().filter(|v| v.stage == stage).count(),
                        "{}: per-stage count diverges for {:?}",
                        checker, stage
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ninth differential leg: the spilled report is **byte-identical**
    /// to the buffered one brought into canonical order — not merely
    /// set-equal. The k-way merge must reproduce the canonical total
    /// order exactly, at budgets down to 1 (every violation its own
    /// on-disk run), serial and wide.
    #[test]
    fn spilled_equals_buffered(
        nx in 2usize..5,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
    ) {
        let tech = nmos_technology();
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let layout = diic::cif::parse(&chip.cif).expect("generated chips always parse");

        for checker in CHECKERS {
            for parallelism in [1usize, wide_workers()] {
                let mut canonical = buffered(checker, &layout, &tech, parallelism);
                canonical_sort(&mut canonical);
                let mut want = String::new();
                for v in &canonical {
                    want.push_str(&format!("{v:?}"));
                    want.push('\n');
                }

                for budget in [1usize, 3, 64] {
                    let mut sink = SpillingSink::new(Vec::new(), budget);
                    let spilled = emit(checker, &layout, &tech, parallelism, &mut sink);
                    prop_assert!(
                        spilled.is_empty(),
                        "{checker}: a spilling run must buffer nothing in the report"
                    );
                    prop_assert!(!sink.errored(), "Vec writes cannot fail");
                    let (out, stats) = sink.finish().expect("vec-backed spill");
                    if budget == 1 && canonical.len() > 1 {
                        prop_assert!(
                            stats.runs > 1,
                            "{}: budget 1 with {} violations must force a multi-run \
                             merge, got {} runs",
                            checker, canonical.len(), stats.runs
                        );
                    }
                    prop_assert_eq!(stats.written, canonical.len());
                    let got = String::from_utf8(out).unwrap();
                    prop_assert_eq!(
                        &got, &want,
                        "{}: budget={} workers={}: spilled report is not \
                         byte-identical to the buffered canonical report \
                         (nx={} ny={} seed={} mask={:#b})",
                        checker, budget, parallelism, nx, ny, seed, mask
                    );
                }
            }
        }
    }
}

/// An edit session exports its canonical report through any sink.
#[test]
fn session_emits_its_report_through_the_trait() {
    use diic::core::incremental::{CheckSession, EditSet};
    use diic::geom::Rect;

    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(3, 2));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let mut session = CheckSession::new(
        layout,
        &tech,
        &CheckOptions {
            erc: false,
            ..CheckOptions::default()
        },
    );
    let mut fault = EditSet::new();
    fault.add_box("NM", Rect::new(0, -10000, 2000, -9300), None); // 700 < 750 wide
    session.apply(&fault).unwrap();
    assert!(!session.report().violations.is_empty());

    let mut sink = StreamingSink::new(Vec::new(), 2);
    session.emit_report(&mut sink);
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    let mut got: Vec<String> = text.lines().map(str::to_string).collect();
    got.sort_unstable();
    let mut want: Vec<String> = session
        .report()
        .violations
        .iter()
        .map(|v| format!("{v:?}"))
        .collect();
    want.sort_unstable();
    assert_eq!(got, want);

    let mut counting = CountingSink::new();
    session.emit_report(&mut counting);
    assert_eq!(counting.total(), session.report().violations.len());

    // The spilling sink plugs into the same export path: budget 1 forces
    // every violation through the on-disk merge, and the output equals
    // the session's report in canonical order, byte for byte.
    let mut spilling = SpillingSink::new(Vec::new(), 1);
    session.emit_report(&mut spilling);
    let (out, stats) = spilling.finish().unwrap();
    assert_eq!(stats.written, session.report().violations.len());
    let mut canonical = session.report().violations.clone();
    canonical_sort(&mut canonical);
    let want: String = canonical.iter().map(|v| format!("{v:?}\n")).collect();
    assert_eq!(String::from_utf8(out).unwrap(), want);
}
