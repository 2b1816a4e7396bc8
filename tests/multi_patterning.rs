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
//! sink`. Beside the direct-scan reference they are held to ground
//! truth: a count of odd cycles known by construction, under every
//! orientation and across thousands of components. The scale leg runs
//! the NMOS deck with a `same_mask` rule over the benchmark's array.

use diic::cif::Item;
use diic::core::incremental::CheckSession;
use diic::core::incremental::EditSet;
use diic::core::{
    canonical_check, canonical_sort, check, check_cif, check_with_sink, CheckOptions, CheckStage,
    CountingSink, SpillingSink, StageEngine, StreamingSink, Violation, ViolationKind,
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

/// The odd triangle as symbol 1 and the even ring as symbol 2.
const CELLS: &str = "DS 1; L NM; B 2000 750 1000 375; B 2000 750 3950 375; \
                     B 2950 750 2475 2125; DF;\n\
                     DS 2; L NM; B 2000 750 1000 2125; B 2000 750 4000 2125; \
                     B 2000 750 1000 375; B 2000 750 4000 375; DF;\n";

/// The eight Manhattan orientations as CIF transformations.
const ORIENTATIONS: [&str; 8] = [
    "", "R 0 1", "R -1 0", "R 0 -1", "MX", "MY", "MX R 0 1", "MY R 0 1",
];

/// The odd-cycle lines of a report, each asserted to be a 3-cycle.
fn triangles(violations: &[Violation]) -> usize {
    let mask = violations
        .iter()
        .filter(|v| matches!(v.kind, ViolationKind::MaskOddCycle { .. }));
    mask.inspect(|v| {
        assert!(
            matches!(
                v.kind,
                ViolationKind::MaskOddCycle {
                    cycle: 3,
                    measured: 1000,
                    ..
                }
            ),
            "{v:?}"
        )
    })
    .count()
}

/// The odd triangle placed once under each of the eight orientations,
/// 20 000 apart: exactly eight 3-cycles, through a batch check and
/// through a session that moves each placement once, checked against
/// a from-scratch check after every move.
#[test]
fn every_orientation_of_the_odd_triangle_is_one_cycle() {
    let tech = mp_tech();
    let mut cif = String::from(CELLS);
    for (k, orientation) in ORIENTATIONS.iter().enumerate() {
        cif.push_str(&format!("C 1 {orientation} T {} 0;\n", k * 20_000));
    }
    cif.push('E');
    let layout = diic::cif::parse(&cif).unwrap();
    let report = check(&layout, &tech, &options());
    assert_eq!(triangles(&report.violations), 8, "{:#?}", report.violations);
    assert_eq!(report.violations.len(), 8, "{:#?}", report.violations);

    let mut session = CheckSession::new(layout, &tech, &options());
    for k in 0..ORIENTATIONS.len() {
        let mut edits = EditSet::new();
        edits.translate(k, 750 * (k as i64 % 3 + 1), -500 * (k as i64 % 2));
        session.apply(&edits).unwrap();
        let violations = &session.report().violations;
        assert_eq!(
            triangles(violations),
            8,
            "after moving {k}: {violations:#?}"
        );
        let full = canonical_check(session.layout(), &tech, &options());
        assert_eq!(violations, &full.violations, "after moving {k}");
    }
}

/// Many components: 2 000 odd triangles and 2 000 even rings as
/// top-level calls on a grid too wide for any two to conflict give
/// exactly one line per triangle.
#[test]
fn thousands_of_components_give_one_line_per_odd_cycle() {
    let tech = mp_tech();
    let mut cif = String::from(CELLS);
    for k in 0..4_000 {
        let (x, y) = ((k % 80) * 8_000, (k / 80) * 5_000);
        cif.push_str(&format!("C {} T {x} {y};\n", 1 + k % 2));
    }
    cif.push('E');
    let report = check(&diic::cif::parse(&cif).unwrap(), &tech, &options());
    assert_eq!(triangles(&report.violations), 2_000);
    assert_eq!(report.violations.len(), 2_000);
}

/// A ring of `n` metal boxes from `x0` on, each conflicting with its
/// two ring neighbours at `gap` and clear of every other box: `n - 1`
/// bottom boxes, the inner ones 500 lower, under one top bar that
/// spans the outer two. Returns the boxes and the ring's right edge.
fn ring(n: i64, gap: i64, x0: i64) -> (String, i64) {
    let (k, pitch) = (n - 1, 2000 + gap);
    let mut cif = String::new();
    for i in 0..k {
        let cy = if i == 0 || i == k - 1 { 375 } else { -125 };
        cif.push_str(&format!("B 2000 750 {} {cy};\n", x0 + i * pitch + 1000));
    }
    let span = (k - 1) * pitch;
    cif.push_str(&format!(
        "B {span} 750 {} {};\n",
        x0 + 1000 + span / 2,
        1125 + gap
    ));
    (cif, x0 + (k - 1) * pitch + 2000)
}

/// The odd-cycle lines of one layout, held to the direct scan.
fn odd_cycles(cif: &str) -> Vec<Violation> {
    let tech = mp_tech();
    let layout = diic::cif::parse(cif).unwrap();
    let report = check(&layout, &tech, &options());
    let (direct, _) = InteractionInputs::build(&layout, &tech).direct_scan(&tech, &options());
    assert_eq!(report.violations, direct, "{cif}");
    report.violations
}

/// Rings of three to eight boxes: an odd ring is one line whose
/// `cycle` is the ring's length, an even ring none.
#[test]
fn an_odd_ring_reports_its_length() {
    for n in 3..=8 {
        let (boxes, _) = ring(n, 1000, 0);
        let v = odd_cycles(&format!("L NM;\n{boxes}E"));
        let want = usize::from(n % 2 == 1);
        assert_eq!(v.len(), want, "n={n}: {v:#?}");
        for line in &v {
            assert!(
                matches!(
                    line.kind,
                    ViolationKind::MaskOddCycle { measured: 1000, cycle, .. } if cycle == n as usize
                ),
                "n={n}: {line:?}"
            );
        }
    }
}

/// Two odd rings joined by a bridge box form one component with two
/// odd cycles: it gives one line, witnessed by its least
/// `(gap, a, b)` same-colour edge — the closer ring's, or, at equal
/// gaps, the ring placed first, whose elements take the lower ids.
#[test]
fn a_component_reports_its_least_odd_cycle_edge() {
    // (first ring, its gap, second ring, its gap) → (cycle, measured,
    // the witness lies in the first ring).
    let cases = [
        ((3, 1000), (5, 900), (5, 900, false)),
        ((3, 900), (5, 1000), (3, 900, true)),
        ((3, 1000), (5, 1000), (3, 1000, true)),
        ((5, 1000), (3, 1000), (5, 1000, true)),
        ((7, 1000), (5, 950), (5, 950, false)),
    ];
    for ((n1, g1), (n2, g2), (cycle, measured, in_first)) in cases {
        let (first, end) = ring(n1, g1, 0);
        let bridge = format!("B 2000 750 {} 375;\n", end + 2000);
        let (second, _) = ring(n2, g2, end + 4000);
        let v = odd_cycles(&format!("L NM;\n{first}{bridge}{second}E"));
        let case = (n1, g1, n2, g2);
        assert_eq!(v.len(), 1, "{case:?}: {v:#?}");
        assert!(
            matches!(
                v[0].kind,
                ViolationKind::MaskOddCycle { measured: m, cycle: c, .. }
                    if (m, c) == (measured, cycle)
            ),
            "{case:?}: {:?}",
            v[0]
        );
        let at = v[0].location.expect("the witness edge carries a location");
        assert_eq!(at.x2 <= end, in_first, "{case:?}: {at:?}");
    }
}

/// The NMOS deck with a `same_mask` rule on metal: the benchmark's
/// array carries odd same-mask cycles in every cell.
fn nmos_same_mask() -> Technology {
    let mut deck = diic::deck::NMOS_DECK.to_string();
    let close = deck.rfind('}').expect("a deck closes");
    deck.insert_str(close, "    same_mask metal 5 lambda;\n");
    diic::deck::compile_str(&deck).expect("the NMOS deck with a same_mask rule compiles")
}

/// The scale leg: `mega_chip` at 20 000 elements (100 000 in a release
/// build) under the NMOS deck with a `same_mask` rule. The batch
/// check's lines are the other stages' plus the direct scan's (pair
/// rules over every id, then `check_same_mask`), and a session put
/// through eight call moves equals a from-scratch check after each.
#[test]
fn same_mask_at_scale_matches_the_direct_scan_and_the_session() {
    let elements = if cfg!(debug_assertions) {
        20_000
    } else {
        100_000
    };
    let tech = nmos_same_mask();
    let layout = diic::cif::parse(&diic::gen::mega_chip(elements).cif).unwrap();
    let options = CheckOptions::default();
    let report = check(&layout, &tech, &options);
    let cycles = odd_cycle_lines(&report.violations).len();
    assert!(cycles > 0, "the array has odd cycles");

    let (direct, direct_stats) =
        InteractionInputs::build(&layout, &tech).direct_scan(&tech, &options);
    let mut want: Vec<Violation> = (report.violations.iter())
        .filter(|v| v.stage != CheckStage::Interactions)
        .cloned()
        .chain(direct)
        .collect();
    canonical_sort(&mut want);
    let mut got = report.violations.clone();
    canonical_sort(&mut got);
    assert_eq!(got, want, "the check and the direct scan disagree");
    assert_eq!(report.interact_stats.violations, direct_stats.violations);
    assert_eq!(
        report.interact_stats.candidate_pairs,
        direct_stats.candidate_pairs
    );

    let calls: Vec<usize> = (layout.top_items().iter().enumerate())
        .filter(|(_, item)| matches!(item, Item::Call(_)))
        .map(|(index, _)| index)
        .collect();
    let mut session = CheckSession::new(layout, &tech, &options);
    let mut lines = odd_cycle_lines(&report.violations);
    let mut changed = Vec::new();
    let moves = [
        (1000, 0),
        (0, 1000),
        (-1000, -250),
        (250, -1000),
        (-500, 500),
    ];
    for (k, &index) in calls.iter().step_by(calls.len().div_ceil(8)).enumerate() {
        let (dx, dy) = moves[k % moves.len()];
        let mut edits = EditSet::new();
        edits.translate(index, dx, dy);
        session.apply(&edits).unwrap();
        let full = canonical_check(session.layout(), &tech, &options);
        assert_eq!(
            session.report().violations,
            full.violations,
            "after moving call {index} by ({dx}, {dy})"
        );
        let now = odd_cycle_lines(&full.violations);
        changed.push(now.iter().filter(|line| !lines.contains(line)).count());
        lines = now;
    }
    println!("{elements} elements: {cycles} odd cycles; new odd-cycle lines per move {changed:?}");
    assert!(
        changed.iter().any(|&n| n > 0),
        "some move must move a witness, or the leg tests no recompute"
    );
}

/// The rendered odd-cycle lines of a report.
fn odd_cycle_lines(violations: &[Violation]) -> Vec<String> {
    (violations.iter())
        .filter(|v| matches!(v.kind, ViolationKind::MaskOddCycle { .. }))
        .map(|v| format!("{v:?}"))
        .collect()
}
