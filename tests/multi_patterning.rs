//! The multi-patterning check, end to end: a `same_mask` rule declared
//! in a **rule deck** must flag odd same-mask
//! conflict cycles — and only odd ones — identically through every
//! report path: the buffered report, bounded streaming chunks, the
//! disk-spilling k-way merge, the counting sink, and the incremental
//! edit loop.
//!
//! The fixtures are the same triangle / ring geometries the unit tests
//! pin, but here the technology comes in through `diic::deck`
//! compilation, so the test covers the whole chain
//! `deck text → Technology → conflict graph → odd-cycle violation →
//! sink`.

use diic::core::incremental::CheckSession;
use diic::core::{
    canonical_sort, check, check_cif, check_with_sink, CheckOptions, CheckStage, CountingSink,
    SpillingSink, StageEngine, StreamingSink, ViolationKind,
};
use diic::tech::Technology;
use diic_bench::InteractionInputs;

/// A one-metal rule deck: spacing 3λ (750), same-mask distance 5λ
/// (1250) — gaps in (750, 1250) are spacing-clean but mask-conflicting.
const MP_DECK: &str = r#"
tech "mp" {
    lambda 250;
    layer metal { cif "NM"; kind metal; min_width 3 lambda; }
    space metal metal 3 lambda;
    same_mask metal 5 lambda;
}
"#;

/// Triangle of metal boxes with pairwise gaps 950 / 1000 / 1000: every
/// gap clears the 750 spacing rule but conflicts under the 1250
/// same-mask distance — an odd (3-)cycle, not two-mask decomposable.
const ODD_TRIANGLE: &str = "L NM; B 2000 750 1000 375; B 2000 750 3950 375; \
                            B 2950 750 2475 2125; E";

/// Four metal boxes in a ring: adjacent gaps 1000 (conflict), diagonals
/// ≈ 1414 (clear under the Euclidean metric) — an even cycle,
/// 2-colourable, so decomposable onto two masks.
const EVEN_RING: &str = "L NM; B 2000 750 1000 2125; B 2000 750 4000 2125; \
                         B 2000 750 1000 375; B 2000 750 4000 375; E";

fn mp_tech() -> Technology {
    diic::deck::compile_str(MP_DECK).expect("the mp deck compiles")
}

fn options() -> CheckOptions {
    CheckOptions {
        erc: false,
        ..CheckOptions::default()
    }
}

/// The deck-compiled technology carries the `same_mask` rule through to
/// the check: the odd triangle yields exactly one `MaskOddCycle` (and
/// nothing else), the even ring none — and the direct-scan reference
/// (`check_same_mask` over the same view) finds the same line.
#[test]
fn deck_driven_odd_cycle_detection() {
    let tech = mp_tech();
    let report = check_cif(ODD_TRIANGLE, &tech, &options()).unwrap();
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.stage, CheckStage::Interactions);
    assert!(
        matches!(
            &v.kind,
            ViolationKind::MaskOddCycle {
                layer,
                measured: 1000,
                required: 1250,
                cycle: 3,
            } if layer == "metal"
        ),
        "{:?}",
        v.kind
    );
    assert!(v.location.is_some(), "the witness edge carries a location");
    let layout = diic::cif::parse(ODD_TRIANGLE).unwrap();
    let (direct, _) = InteractionInputs::build(&layout, &tech).direct_scan(&tech, &options());
    assert_eq!(direct, report.violations);

    let clean = check_cif(EVEN_RING, &tech, &options()).unwrap();
    assert!(
        clean.is_clean(),
        "an even ring is two-colourable: {:#?}",
        clean.violations
    );
}

/// Every sink observes the same odd-cycle violation: streamed chunks
/// and the spilled merge reproduce the buffered canonical report byte
/// for byte, and the counting sink files it under the Interactions
/// stage (category "multi-patterning").
#[test]
fn every_sink_reports_the_odd_cycle() {
    let tech = mp_tech();
    let layout = diic::cif::parse(ODD_TRIANGLE).unwrap();
    let engine = StageEngine::diic_pipeline();
    let opts = options();
    let buffered = check(&layout, &tech, &opts);
    let mut canonical = buffered.violations.clone();
    canonical_sort(&mut canonical);
    let want: String = canonical.iter().map(|v| format!("{v:?}\n")).collect();
    assert_eq!(canonical.len(), 1);

    for chunk in [1usize, 4] {
        let mut sink = StreamingSink::new(Vec::new(), chunk);
        let streamed = check_with_sink(&engine, &layout, &tech, &opts, &mut sink);
        assert!(streamed.violations.is_empty());
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert_eq!(text, want, "chunk={chunk}");
    }

    for budget in [1usize, 4] {
        let mut sink = SpillingSink::new(Vec::new(), budget);
        let spilled = check_with_sink(&engine, &layout, &tech, &opts, &mut sink);
        assert!(spilled.violations.is_empty());
        let (out, stats) = sink.finish().unwrap();
        assert_eq!(stats.written, 1);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            want,
            "budget={budget}: the spill codec must round-trip the MaskOddCycle record"
        );
    }

    let mut counting = CountingSink::new();
    check_with_sink(&engine, &layout, &tech, &opts, &mut counting);
    assert_eq!(counting.total(), 1);
    assert_eq!(counting.count(CheckStage::Interactions), 1);
}

/// The incremental edit loop tracks the conflict graph's *global*
/// bipartiteness: moving one triangle corner away dissolves the odd
/// cycle, moving it back restores it, and after every edit the patched
/// report equals a from-scratch check.
#[test]
fn incremental_edits_track_the_conflict_graph() {
    use diic::core::incremental::EditSet;

    let tech = mp_tech();
    let layout = diic::cif::parse(ODD_TRIANGLE).unwrap();
    let mut session = CheckSession::new(layout, &tech, &options());
    let is_mask = |v: &diic::core::Violation| matches!(v.kind, ViolationKind::MaskOddCycle { .. });

    assert_eq!(
        session
            .report()
            .violations
            .iter()
            .filter(|v| is_mask(v))
            .count(),
        1,
        "the session opens on the odd cycle: {:#?}",
        session.report().violations
    );

    // Move the apex bar (top item 2) far away: the two edges it anchors
    // vanish, the remaining single edge is trivially bipartite.
    let mut away = EditSet::new();
    away.translate(2, 0, 40_000);
    session.apply(&away).unwrap();
    assert!(
        session.report().violations.iter().all(|v| !is_mask(v)),
        "breaking the cycle clears the violation: {:#?}",
        session.report().violations
    );
    let full = session.full_check();
    assert_eq!(
        session.report().violations,
        full.violations,
        "after move-away"
    );

    // Move it back: the odd cycle — a property of edges the edit's halo
    // never touched pairwise — must return.
    let mut back = EditSet::new();
    back.translate(2, 0, -40_000);
    session.apply(&back).unwrap();
    let mask: Vec<_> = session
        .report()
        .violations
        .iter()
        .filter(|v| is_mask(v))
        .collect();
    assert_eq!(mask.len(), 1, "{:#?}", session.report().violations);
    assert!(matches!(
        &mask[0].kind,
        ViolationKind::MaskOddCycle {
            measured: 1000,
            required: 1250,
            cycle: 3,
            ..
        }
    ));
    let full = session.full_check();
    assert_eq!(
        session.report().violations,
        full.violations,
        "after move-back"
    );
    assert_eq!(session.report().netlist, full.netlist);
}

/// A technology without `same_mask` rules (the NMOS baseline) never
/// produces `MaskOddCycle` violations, even on the conflict fixture:
/// the check family is strictly deck-opt-in.
#[test]
fn no_same_mask_rule_means_no_mask_violations() {
    let tech = diic::deck::compile_str(diic::deck::NMOS_DECK).unwrap();
    assert!(!tech.rules().has_same_mask());
    let report = check_cif(ODD_TRIANGLE, &tech, &options()).unwrap();
    assert!(
        report
            .violations
            .iter()
            .all(|v| !matches!(v.kind, ViolationKind::MaskOddCycle { .. })),
        "{:#?}",
        report.violations
    );
}
