//! The **fifth leg** of the differential oracle: incremental == full.
//!
//! `tests/differential.rs` pins the scope-driven check, serial and
//! parallel, to the direct scan; this suite pins the *edit loop* to it
//! too. Every
//! proptest case generates a chip (with injected faults), opens a
//! [`CheckSession`], and drives it through a sequence of random edits
//! (adds, fault stubs, removes, moves, cell-definition replacements).
//! After **every** step the session's patched report must be
//! byte-identical — violations in canonical order, net list, counts —
//! to a from-scratch [`canonical_check`] of the edited layout, under
//! both a serial session and one running at the `CHECK_PARALLELISM`
//! worker count (CI forces 1 and `$(nproc)` in separate steps).
//!
//! Beside it stands a **metamorphic** leg that needs no second checker:
//! an edit followed by its exact inverse must put back the report bytes
//! and the net list the session had before
//! (`edit_then_inverse_restores_report_and_netlist`). The differential
//! leg shows the session agrees with the batch engine; this one would
//! still catch a state leak that both happened to share.

use diic::api::wire::violation_delta;
use diic::cif::{Item, Layout, Shape};
use diic::core::incremental::{CheckSession, Edit, EditSet};
use diic::core::{canonical_check, env_parallelism, CheckOptions, CheckReport};
use diic::core::{canonical_sort, CheckStage, ViolationKind};
use diic::gen::{generate, random_edit_set, ChipSpec, ErrorKind};
use diic::geom::{Point, Rect, Transform, Vector, Wire};
use diic::tech::nmos::nmos_technology;
use diic_bench::InteractionInputs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The parallel worker count exercised against serial runs.
fn wide_workers() -> usize {
    env_parallelism().unwrap_or(0) // 0 = all available cores
}

/// Asserts the session's cached report equals a from-scratch canonical
/// check of its current layout, field by comparable field.
fn assert_matches_full(session: &CheckSession, context: &str) -> CheckReport {
    let full = session.full_check();
    assert_eq!(
        session.report().violations,
        full.violations,
        "{context}: patched violations diverge from full re-check"
    );
    assert_eq!(
        session.report().netlist,
        full.netlist,
        "{context}: patched net list diverges"
    );
    assert_eq!(
        session.report().element_count,
        full.element_count,
        "{context}"
    );
    assert_eq!(
        session.report().device_count,
        full.device_count,
        "{context}"
    );
    assert_eq!(
        session.report().waived_devices,
        full.waived_devices,
        "{context}"
    );
    full
}

/// *Open ≡ engine*: a session that has just opened — or just rebuilt —
/// went through the engine's one pipeline, so its report equals a
/// from-scratch canonical check in **every** field but the stage
/// profile (which a session leaves empty: a patched report could not
/// keep its per-stage counts current).
fn assert_open_equals_engine(session: &CheckSession, context: &str) {
    let mut full = assert_matches_full(session, context);
    let mut opened = session.report().clone();
    assert!(opened.stage_profile.is_empty(), "{context}");
    if session.options().effective_parallelism() != 1 {
        // Counts candidates buffered by the workers live at once.
        full.interact_stats.peak_candidate_buffer = 0;
        opened.interact_stats.peak_candidate_buffer = 0;
    }
    assert_eq!(opened.interact_stats, full.interact_stats, "{context}");
    assert_eq!(
        opened.instantiate_stats, full.instantiate_stats,
        "{context}"
    );
    assert_eq!(opened.scope_stats, full.scope_stats, "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The oracle proper: ≥ 32 chips × ≥ 8 edit steps, serial and wide
    /// sessions in lockstep, both equal to the from-scratch check at
    /// every step — and equal to each other.
    #[test]
    fn edit_sequences_match_full_checks(
        nx in 2usize..4,
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

        let serial_options = CheckOptions::default();
        let wide_options = CheckOptions {
            parallelism: wide_workers(),
            ..CheckOptions::default()
        };
        let mut serial = CheckSession::new(layout.clone(), &tech, &serial_options);
        let mut wide = CheckSession::new(layout, &tech, &wide_options);
        assert_open_equals_engine(&serial, "step 0 (serial)");
        assert_open_equals_engine(&wide, "step 0 (wide)");

        // Both sessions see the same edit stream.
        let bounds = Rect::new(-2500, -6000, nx as i64 * 6750 + 2500, ny as i64 * 10000 + 2500);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1C);
        for step in 0..8 {
            let edits = random_edit_set(serial.layout(), bounds, step, &mut rng);
            serial.apply(&edits).expect("generated edits are valid");
            wide.apply(&edits).expect("generated edits are valid");
            let ctx = format!("step {} (nx={nx} ny={ny} seed={seed} mask={mask:#b})", step + 1);
            let full = assert_matches_full(&serial, &ctx);
            prop_assert_eq!(
                &wide.report().violations,
                &full.violations,
                "{}: wide session diverges",
                ctx
            );
            prop_assert_eq!(&wide.report().netlist, &full.netlist, "{}", ctx);
        }

        // Moving every item (by nothing) dirties the whole chip: the
        // rebuild fallback is the open again.
        let mut all = EditSet::new();
        for index in 0..serial.layout().top_items().len() {
            all.translate(index, 0, 0);
        }
        for (session, name) in [(&mut serial, "serial"), (&mut wide, "wide")] {
            let stats = session.apply(&all).expect("in-bounds moves");
            prop_assert!(stats.full_rebuild, "{}: {:?}", name, stats);
            assert_open_equals_engine(session, &format!("rebuilt ({name})"));
        }
    }
}

/// The exact inverse of `edits` against `before`, or `None` if the
/// batch has none: a removed item can only be re-added at the end of
/// the top-level list, which is a different layout.
fn inverse_of(before: &Layout, edits: &EditSet) -> Option<EditSet> {
    let mut len = before.top_items().len();
    let mut bodies: Vec<_> = before.symbols().iter().map(|s| s.items.clone()).collect();
    let mut undo = Vec::new();
    for edit in &edits.edits {
        undo.push(match edit {
            Edit::AddElement { .. } | Edit::AddCall { .. } => {
                len += 1;
                Edit::RemoveItem { index: len - 1 }
            }
            Edit::MoveItem { index, by } => Edit::MoveItem {
                index: *index,
                by: -*by,
            },
            Edit::ReplaceSymbol { symbol, items } => Edit::ReplaceSymbol {
                symbol: *symbol,
                items: std::mem::replace(&mut bodies[symbol.0 as usize], items.clone()),
            },
            Edit::RemoveItem { .. } => return None,
        });
    }
    undo.reverse();
    Some(EditSet { edits: undo })
}

/// What an edit and its inverse must put back.
#[derive(Debug, PartialEq)]
struct Snapshot {
    layout: Layout,
    report: String,
    netlist: diic::netlist::Netlist,
    elements: usize,
    devices: usize,
}

fn snapshot(session: &CheckSession) -> Snapshot {
    let report = session.report();
    Snapshot {
        layout: session.layout().clone(),
        report: report
            .violations
            .iter()
            .map(|v| format!("{v:?}\n"))
            .collect(),
        netlist: report.netlist.clone(),
        elements: report.element_count,
        devices: report.device_count,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The metamorphic leg (the do/undo invariant the benchmark's edit
    /// stream relies on): do, maybe do a second edit and undo it, undo
    /// — each undo restores the snapshot taken before its do, serial
    /// and wide.
    #[test]
    fn edit_then_inverse_restores_report_and_netlist(
        nx in 2usize..4,
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
        let wide_options = CheckOptions {
            parallelism: wide_workers(),
            ..CheckOptions::default()
        };
        let mut sessions = [
            CheckSession::new(layout.clone(), &tech, &CheckOptions::default()),
            CheckSession::new(layout, &tech, &wide_options),
        ];

        let bounds = Rect::new(-2500, -6000, nx as i64 * 6750 + 2500, ny as i64 * 10000 + 2500);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D1C);
        let mut step = 0;
        // An invertible batch against the serial session's layout (the
        // two layouts are equal throughout).
        let mut draw = |layout: &Layout| loop {
            step += 1;
            let edits = random_edit_set(layout, bounds, step, &mut rng);
            if let Some(undo) = inverse_of(layout, &edits) {
                return (edits, undo);
            }
        };
        for round in 0..6 {
            let outer = snapshot(&sessions[0]);
            let (edits, undo) = draw(sessions[0].layout());
            for s in &mut sessions {
                s.apply(&edits).expect("generated edits are valid");
            }
            if round % 2 == 1 {
                let inner = snapshot(&sessions[0]);
                let (edits, undo) = draw(sessions[0].layout());
                for s in &mut sessions {
                    s.apply(&edits).expect("generated edits are valid");
                    s.apply(&undo).expect("inverses are valid");
                    prop_assert_eq!(&snapshot(s), &inner, "round {}: inner undo", round);
                }
            }
            for s in &mut sessions {
                s.apply(&undo).expect("inverses are valid");
                prop_assert_eq!(&snapshot(s), &outer, "round {}: outer undo", round);
            }
        }
    }
}

/// A clean chip stays clean through benign edits (moving an instance
/// around in free space must not fabricate violations), and the patched
/// report still matches the full check at every step.
#[test]
fn benign_edits_on_clean_chip_stay_clean() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(3, 2));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let mut session = CheckSession::new(layout, &tech, &CheckOptions::default());
    assert!(
        session.report().violations.is_empty(),
        "seed chip must be clean"
    );

    // A clean wire far below the array, then slide it around.
    let mut add = EditSet::new();
    add.add_box("NM", Rect::new(0, -20000, 2000, -19250), Some("IO_PROBE"));
    let n = session.layout().top_items().len();
    session.apply(&add).unwrap();
    for dx in [2500i64, 2500, -5000] {
        let mut mv = EditSet::new();
        mv.translate(n, dx, 0);
        session.apply(&mv).unwrap();
        assert!(
            session.report().violations.is_empty(),
            "{:?}",
            session.report().violations
        );
        assert_matches_full(&session, "benign move");
    }
}

/// Editing must also *repair*: injecting a fault stub and then removing
/// it returns the report to its original bytes.
#[test]
fn fault_injection_roundtrip() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(2, 1));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let mut session = CheckSession::new(layout, &tech, &CheckOptions::default());
    let clean = session.report().violations.clone();

    let mut fault = EditSet::new();
    fault.add_box("NM", Rect::new(0, -10000, 2000, -9300), None); // 700 < 750 wide
    let idx = session.layout().top_items().len();
    let stats = session.apply(&fault).unwrap();
    assert!(stats.spliced > 0, "{stats:?}");
    assert!(
        session.report().violations.len() > clean.len(),
        "fault stub must be reported"
    );
    assert_matches_full(&session, "after fault");

    let mut repair = EditSet::new();
    repair.remove(idx);
    session.apply(&repair).unwrap();
    assert_eq!(
        session.report().violations,
        clean,
        "repair must restore the report"
    );
    assert_matches_full(&session, "after repair");
}

/// Small edits on a mid-size array should re-check only a neighbourhood:
/// the scoped interaction pass must evaluate far fewer candidate pairs
/// than the full run enumerates.
#[test]
fn small_edit_rechecks_a_small_neighbourhood() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec {
        demo_cells: false,
        ..ChipSpec::clean(6, 4)
    });
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let options = CheckOptions::default();
    let full_pairs = canonical_check(&layout, &tech, &options)
        .interact_stats
        .candidate_pairs;
    let mut session = CheckSession::new(layout, &tech, &options);

    let mut edits = EditSet::new();
    edits.add_box(
        "NM",
        Rect::new(500, 5600 - 375, 2500, 5600 + 375),
        Some("IO_PROBE"),
    );
    let stats = session.apply(&edits).unwrap();
    assert_matches_full(&session, "probe stub");
    assert!(
        stats.rechecked_pairs * 4 < full_pairs,
        "scoped pass re-evaluated {}/{} pairs — not incremental",
        stats.rechecked_pairs,
        full_pairs
    );
    assert!(stats.dirty_items == 1, "{stats:?}");
}

/// The view patch writes what the edit changed, on a generated inverter
/// array: a moved call its own run and nothing else (every other
/// element stays where it was), an appended wire itself, and the wire's
/// removal nothing.
#[test]
fn view_patch_rewrites_only_what_the_edit_changed() {
    let tech = nmos_technology();
    let options = CheckOptions::default();
    let chip = generate(&ChipSpec::clean(6, 4));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let items = layout.top_items().len();
    let index = (items / 2..items)
        .find(|&i| matches!(layout.top_items()[i], Item::Call(_)))
        .expect("the array is placed by calls");
    let mut without = layout.clone();
    without.remove_top(index);
    let mut session = CheckSession::new(layout, &tech, &options);
    let run =
        session.report().element_count - canonical_check(&without, &tech, &options).element_count;
    assert!(run > 1, "an inverter has more than one element");

    let mut shift = EditSet::new();
    shift.translate(index, 0, 250);
    let stats = session.apply(&shift).unwrap();
    assert!(!stats.full_rebuild, "{stats:?}");
    assert_eq!(stats.elements_rewritten, run, "{stats:?}");
    assert_matches_full(&session, "moved call");

    let wire = Wire::new(750, vec![Point::new(0, -20_000), Point::new(4000, -20_000)]).unwrap();
    let add = EditSet {
        edits: vec![Edit::AddElement {
            cif_layer: "NM".to_string(),
            shape: Shape::Wire(wire),
            net: None,
        }],
    };
    assert_eq!(session.apply(&add).unwrap().elements_rewritten, 1);
    assert_matches_full(&session, "appended wire");
    let mut undo = EditSet::new();
    undo.remove(items);
    assert_eq!(session.apply(&undo).unwrap().elements_rewritten, 0);
    assert_matches_full(&session, "wire removed");
}

/// Instance names are the client's to choose (`EditSet::add_call`, the
/// wire's `add_call.name`): dotted, empty and repeated ones must not
/// change which scope an element belongs to. Three instances of a cell
/// with one internal spacing fault, the first two close enough to fault
/// across their boundary — the session, patched and reopened (an open
/// and a rebuild read the hierarchy from the scope table), must report
/// exactly what the direct scan over every element does, under every
/// naming. The name-keyed grouping this
/// replaced reported 1 of the 3 internal faults for the second and third
/// naming, none for the fourth, and indexed out of bounds on the fifth.
#[test]
fn call_names_do_not_decide_scope_membership() {
    let tech = nmos_technology();
    let options = CheckOptions {
        erc: false,
        ..CheckOptions::default()
    };
    let cell = "DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF; E";
    for names in [
        ["i0", "i1", "i2"],
        ["a.b", "i1", "i2"],
        ["", "i1", "i2"],
        ["x", "x", "i2"],
        ["i1", "x", "x"],
    ] {
        let layout = diic::cif::parse(cell).unwrap();
        let symbol = layout.symbol_by_cif_id(1).unwrap();
        let mut session = CheckSession::new(layout, &tech, &options);
        let mut edits = EditSet::new();
        for (name, x) in names.iter().zip([0, 2500, 10_000]) {
            edits.add_call(symbol, Transform::translate(Vector::new(x, 0)), name);
        }
        session.apply(&edits).unwrap();
        let full = assert_matches_full(&session, &format!("{names:?}"));
        let reopened = CheckSession::new(session.layout().clone(), &tech, &options);
        assert_matches_full(&reopened, &format!("{names:?}, reopened"));
        let inputs = InteractionInputs::build(session.layout(), &tech);
        let (mut direct, direct_stats) = inputs.direct_scan(&tech, &options);
        canonical_sort(&mut direct);
        let interactions = full.by_stage(CheckStage::Interactions);
        assert_eq!(interactions, direct.iter().collect::<Vec<_>>(), "{names:?}");
        assert_eq!(
            full.interact_stats.candidate_pairs, direct_stats.candidate_pairs,
            "{names:?}"
        );
        let spacing = |v: &&diic::core::Violation| matches!(v.kind, ViolationKind::Spacing { .. });
        assert_eq!(
            full.violations.iter().filter(spacing).count(),
            3 + 4,
            "{names:?}: three internal faults, four across the first boundary"
        );
    }
}

/// The delta a session hands back must be the rendered multiset diff of
/// its report before and after, byte for byte.
fn assert_delta_is_the_rendered_diff(
    session: &CheckSession,
    before: &[diic::core::Violation],
    ctx: &str,
) {
    let (added, removed) = violation_delta(before, &session.report().violations);
    let delta = session.last_delta();
    assert_eq!(delta.added, added, "{ctx}: added lines diverge");
    assert_eq!(delta.removed, removed, "{ctx}: removed lines diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The delta oracle: over random edit sequences on faulted chips,
    /// the delta the session took from its patch — the lines it
    /// retracted against the lines it found fresh — equals
    /// `violation_delta` of the whole reports before and after.
    #[test]
    fn session_delta_equals_the_rendered_diff(
        nx in 2usize..4,
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
        let mut session = CheckSession::new(layout, &tech, &CheckOptions::default());
        prop_assert!(session.last_delta().added.is_empty() && session.last_delta().removed.is_empty());
        let bounds = Rect::new(-2500, -6000, nx as i64 * 6750 + 2500, ny as i64 * 10000 + 2500);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        for step in 0..8 {
            let edits = random_edit_set(session.layout(), bounds, step, &mut rng);
            let before = session.report().violations.clone();
            session.apply(&edits).expect("generated edits are valid");
            assert_delta_is_the_rendered_diff(&session, &before, &format!("step {step} seed {seed}"));
        }
    }
}

/// The delta's three corners: a full rebuild (a replaced definition
/// placed across the whole array), an edit that retracts lines and
/// finds the identical lines again (they cancel), and a report holding
/// one line twice (the cancellation counts copies).
#[test]
fn session_delta_cancels_and_counts_like_the_rendered_diff() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        3,
        2,
        vec![ErrorKind::NarrowWire, ErrorKind::CloseSpacing],
        7,
    ));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let mut session = CheckSession::new(layout, &tech, &CheckOptions::default());

    // A full rebuild: the inverter, nudged, is every array cell.
    let inverter = (session.layout().top_items().iter())
        .find_map(|item| match item {
            Item::Call(call) => Some(call.target),
            Item::Element(_) => None,
        })
        .expect("the array is placed by calls");
    let nudge = Transform::translate(Vector::new(250, 0));
    let nudged: Vec<Item> = (session.layout().symbol(inverter).items.iter())
        .map(|item| match item {
            Item::Element(e) => {
                let mut e = e.clone();
                e.shape = e.shape.transformed(&nudge);
                Item::Element(e)
            }
            Item::Call(c) => {
                let mut c = c.clone();
                c.transform = nudge.after(&c.transform);
                Item::Call(c)
            }
        })
        .collect();
    let mut replace = EditSet::new();
    replace.replace_symbol(inverter, nudged);
    let before = session.report().violations.clone();
    let stats = session.apply(&replace).unwrap();
    assert!(stats.full_rebuild, "{stats:?}");
    assert_delta_is_the_rendered_diff(&session, &before, "full rebuild");
    assert!(!session.last_delta().added.is_empty() || !session.last_delta().removed.is_empty());
    assert_matches_full(&session, "full rebuild");

    // Retract and find again: an item moved by nothing re-checks its
    // neighbourhood, and every line it retracts comes back the same.
    let mut cancelled = false;
    for index in 0..session.layout().top_items().len() {
        let mut still = EditSet::new();
        still.translate(index, 0, 0);
        let before = session.report().violations.clone();
        let stats = session.apply(&still).unwrap();
        assert_delta_is_the_rendered_diff(&session, &before, &format!("item {index} still"));
        assert!(session.last_delta().added.is_empty(), "{stats:?}");
        assert!(session.last_delta().removed.is_empty(), "{stats:?}");
        cancelled |= !stats.full_rebuild && stats.retracted > 0 && stats.spliced > 0;
    }
    assert!(cancelled, "no edit retracted a line and found it again");

    // One line twice: two identical too-narrow wires, then one removed.
    let narrow = Rect::new(0, -20_000, 2000, -19_300);
    let n = session.layout().top_items().len();
    let mut twice = EditSet::new();
    twice
        .add_box("NM", narrow, None)
        .add_box("NM", narrow, None);
    let before = session.report().violations.clone();
    session.apply(&twice).unwrap();
    assert_delta_is_the_rendered_diff(&session, &before, "identical pair added");
    let lines = &session.last_delta().added;
    let twice = (lines.iter())
        .find(|line| lines.iter().filter(|l| l == line).count() == 2)
        .cloned()
        .expect("the pair adds one line twice");
    let mut once = EditSet::new();
    once.remove(n + 1);
    let before = session.report().violations.clone();
    session.apply(&once).unwrap();
    assert_delta_is_the_rendered_diff(&session, &before, "one of the pair removed");
    let copies = |lines: &mut dyn Iterator<Item = String>| lines.filter(|l| *l == twice).count();
    let removed = &session.last_delta().removed;
    assert_eq!(copies(&mut removed.iter().cloned()), 1, "one copy leaves");
    let report = session.report().violations.iter().map(|v| format!("{v:?}"));
    assert_eq!(copies(&mut report.into_iter()), 1, "the other stays");
    assert_matches_full(&session, "one of the pair removed");
}

/// Net-list splices on small generated chips, one per way the splice
/// can renumber the list, each byte-identical to `canonical_check` in a
/// serial session and one at the `CHECK_PARALLELISM` worker count: a
/// net re-canonicalised under its own name (every id in place), a net
/// added that sorts before every other (ids shift up), that net
/// dissolved again (ids shift down), and a strap that merges the VDD
/// rail into row 0's input net.
#[test]
fn net_splices_renumber_exactly() {
    let tech = nmos_technology();
    for (nx, ny) in [(6, 4), (12, 8)] {
        let chip = generate(&ChipSpec::with_errors(
            nx,
            ny,
            vec![ErrorKind::NarrowWire],
            3,
        ));
        let layout = diic::cif::parse(&chip.cif).unwrap();
        let wide = CheckOptions {
            parallelism: wide_workers(),
            ..CheckOptions::default()
        };
        let mut sessions = [
            CheckSession::new(layout.clone(), &tech, &CheckOptions::default()),
            CheckSession::new(layout, &tech, &wide),
        ];
        let names = |s: &CheckSession| -> Vec<String> {
            let list = &s.report().netlist;
            list.nets().map(|net| net.name().to_string()).collect()
        };
        let n = sessions[0].layout().top_items().len();
        // Far below the array, on a net whose name sorts first.
        let first = Rect::new(0, -40_000, 2000, -39_250);
        let beside = Rect::new(1500, -40_000, 3500, -39_250);
        // Cell (0, 0)'s VDD rail spans x ∈ [-2λ, 21λ], y ∈ [37λ, 40λ]:
        // a metal strap running on from its left end (their skeletons
        // overlap), declared on the net row 0's input label names.
        let strap = Rect::new(-3000, 9250, 500, 10_000);
        let steps: [(&str, EditSet); 4] = [
            ("shift up", {
                let mut e = EditSet::new();
                e.add_box("NM", first, Some("0SPLICE"));
                e
            }),
            ("in place", {
                let mut e = EditSet::new();
                e.add_box("NM", beside, Some("0SPLICE"));
                e
            }),
            ("shift down", {
                let mut e = EditSet::new();
                e.remove(n + 1).remove(n);
                e
            }),
            ("strap", {
                let mut e = EditSet::new();
                e.add_box("NM", strap, Some("IO_IN0"));
                e
            }),
        ];
        for (what, edits) in &steps {
            let ctx = format!("{nx}x{ny} {what}");
            let before = names(&sessions[0]);
            for session in &mut sessions {
                let stats = session.apply(edits).unwrap();
                assert!(
                    !stats.full_rebuild && !stats.netlist_reused,
                    "{ctx}: {stats:?}"
                );
                let dissolves = *what == "shift down";
                assert_eq!(stats.nets_respliced == 0, dissolves, "{ctx}: {stats:?}");
                assert_matches_full(session, &ctx);
            }
            let after = names(&sessions[0]);
            assert_eq!(after, names(&sessions[1]), "{ctx}: serial and wide lists");
            match *what {
                "shift up" => {
                    assert_eq!(after[0], "0SPLICE", "{ctx}");
                    assert_eq!(after[1..], before[..], "{ctx}: every id up by one");
                }
                "in place" => assert_eq!(after, before, "{ctx}: every id in place"),
                "shift down" => assert_eq!(after[..], before[1..], "{ctx}: every id down by one"),
                _ => {
                    assert!(after.len() < before.len(), "{ctx}: nets merged");
                    let merged = (sessions[0].report().netlist.nets())
                        .find(|net| net.aliases().any(|alias| alias == "IO_IN0"))
                        .expect("the input net");
                    assert!(
                        merged.aliases().any(|alias| alias.ends_with("VDD")),
                        "{ctx}: VDD merged into the input net: {merged:?}"
                    );
                }
            }
        }
    }
}

/// The chip the benchmark's editing workloads open sessions on: a
/// 24 × 12 inverter array with 24 injected faults of eight kinds.
fn edit_session_chip(seed: u64) -> Layout {
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
    let chip = generate(&ChipSpec::with_errors(24, 12, errors, seed));
    diic::cif::parse(&chip.cif).expect("generated chips always parse")
}

/// Counts, not timings: moving a top-level call of the benchmark's edit
/// chip, and moving it back, re-checks the pairs near the call and the
/// pairs whose net relation the move flipped — not every element of a
/// net the move re-derived. Every call of the chip is moved, under three
/// fault seeds (the parent of this bound re-checked a median of 1 780
/// pairs per call move). A debug build re-checks the whole chip inside
/// every apply, which makes an apply there ≈ 0.13 s, so it moves every
/// 29th call; CI's release run moves them all.
#[test]
fn call_moves_recheck_a_bounded_neighbourhood() {
    const MAX_PAIRS: u64 = 500;
    let stride = if cfg!(debug_assertions) { 29 } else { 1 };
    let tech = nmos_technology();
    let options = CheckOptions::default();
    for seed in 1..=3 {
        let layout = edit_session_chip(seed);
        let calls: Vec<usize> = (layout.top_items().iter().enumerate())
            .filter(|(_, item)| matches!(item, Item::Call(_)))
            .map(|(index, _)| index)
            .step_by(stride)
            .collect();
        let mut session = CheckSession::new(layout, &tech, &options);
        let (mut pairs, mut net_dirty) = (Vec::new(), Vec::new());
        for (k, &index) in calls.iter().enumerate() {
            // Steps of -8λ..=8λ on each axis, as the benchmark draws them.
            let step = |m: usize| ((k * m) % 17) as i64 - 8;
            let (dx, dy) = match (step(7), step(11)) {
                (0, 0) => (1, 0),
                d => d,
            };
            for (dx, dy) in [(dx, dy), (-dx, -dy)] {
                let mut edits = EditSet::new();
                edits.translate(index, dx * 250, dy * 250);
                let stats = session.apply(&edits).unwrap();
                let ctx = format!("seed {seed}, call {index} by ({dx}, {dy})λ: {stats:?}");
                assert!(!stats.full_rebuild, "{ctx}");
                assert!(stats.rechecked_pairs <= MAX_PAIRS, "{ctx}");
                pairs.push(stats.rechecked_pairs);
                net_dirty.push(stats.net_dirty_elements);
            }
        }
        assert_matches_full(&session, &format!("seed {seed}, every call moved and back"));
        pairs.sort_unstable();
        net_dirty.sort_unstable();
        let (n, p50) = (pairs.len(), pairs.len() / 2);
        println!(
            "seed {seed}: {n} call moves, rechecked pairs p50 {} max {}, net-dirty elements p50 {} max {}",
            pairs[p50],
            pairs[n - 1],
            net_dirty[p50],
            net_dirty[n - 1]
        );
    }
}

/// A CIF box on `layer` over `r` (even sides, so its centre is whole).
fn cif_box(layer: &str, r: Rect) -> String {
    let (w, h) = (r.x2 - r.x1, r.y2 - r.y1);
    format!("L {layer}; B {w} {h} {} {};", r.x1 + w / 2, r.y1 + h / 2)
}

/// The spacing lines of a report that `pick` selects.
fn spacing_lines(
    report: &CheckReport,
    pick: impl Fn(&str, &str, bool) -> bool,
) -> Vec<&diic::core::Violation> {
    let picked = |v: &&diic::core::Violation| match &v.kind {
        ViolationKind::Spacing {
            layer_a,
            layer_b,
            same_net,
            ..
        } => pick(layer_a, layer_b, *same_net),
        _ => false,
    };
    report.violations.iter().filter(picked).collect()
}

/// Applies `edit`, then `inverse`, to a session over `cif`; the report
/// must equal a from-scratch check after each, `edit` must move the
/// lines `pick` selects from `before` to `after`, and each apply must
/// mark exactly `net_dirty` elements net-dirty. Every layout here puts
/// the pair whose net relation flips more than two rule reaches from the
/// edit, so only the relation diff brings it into the halo.
fn assert_far_flip(
    cif: &str,
    edit: &EditSet,
    inverse: &EditSet,
    pick: impl Fn(&str, &str, bool) -> bool,
    (before, after): (usize, usize),
    net_dirty: usize,
) {
    let tech = nmos_technology();
    let options = CheckOptions::default();
    let layout = diic::cif::parse(cif).unwrap();
    let mut session = CheckSession::new(layout, &tech, &options);
    let opened = session.report().violations.clone();
    assert_eq!(
        spacing_lines(session.report(), &pick).len(),
        before,
        "{opened:?}"
    );
    for (what, edits, lines) in [("edit", edit, after), ("inverse", inverse, before)] {
        let stats = session.apply(edits).unwrap();
        assert!(
            !stats.full_rebuild && !stats.netlist_reused,
            "{what}: {stats:?}"
        );
        assert_eq!(stats.net_dirty_elements, net_dirty, "{what}: {stats:?}");
        assert_matches_full(&session, what);
        let report = session.report();
        assert_eq!(
            spacing_lines(report, &pick).len(),
            lines,
            "{what}: {report:?}"
        );
    }
    assert_eq!(
        session.report().violations,
        opened,
        "the inverse restores the report"
    );
}

/// Cutting the base strap of a U-shaped metal wire splits it in two, and
/// the arms' jogs — 500 apart, under the 3λ metal spacing, 18 500 above
/// the strap — become a spacing fault between two nets; putting the
/// strap back makes them one net again.
#[test]
fn cutting_a_far_strap_reports_the_split_arms() {
    let rects = [
        Rect::new(0, 0, 6000, 750),         // the base strap
        Rect::new(0, 0, 750, 20_000),       // left arm
        Rect::new(5250, 0, 6000, 20_000),   // right arm
        Rect::new(0, 19_250, 2750, 20_000), // left jog
        Rect::new(3250, 19_250, 6000, 20_000),
    ];
    let cif: String = rects.iter().map(|&r| cif_box("NM", r)).collect();
    let mut cut = EditSet::new();
    cut.remove(0);
    let mut mend = EditSet::new();
    mend.add_box("NM", rects[0], None);
    let metal = |a: &str, b: &str, same_net: bool| a == "metal" && b == "metal" && !same_net;
    assert_far_flip(&format!("{cif} E"), &cut, &mend, metal, (0, 1), 2);
}

/// A strap across the far ends of two wires on different nets, which
/// run 500 apart for their first 5 000, merges them into one net: the
/// two spacing faults between them must go, though the strap is 14 250
/// from the nearer one; removing it brings them back.
#[test]
fn a_far_strap_retracts_the_merged_wires_faults() {
    let rects = [
        Rect::new(0, 0, 750, 20_000),        // wire A
        Rect::new(1250, 0, 2000, 5000),      // wire B, beside A
        Rect::new(1250, 4250, 6000, 5000),   // B's jog away
        Rect::new(5250, 4250, 6000, 20_000), // B's far run
    ];
    let cif: String = rects.iter().map(|&r| cif_box("NM", r)).collect();
    let mut strap = EditSet::new();
    strap.add_box("NM", Rect::new(0, 19_250, 6000, 20_000), None);
    let mut cut = EditSet::new();
    cut.remove(rects.len());
    let metal = |a: &str, b: &str, _: bool| a == "metal" && b == "metal";
    assert_far_flip(&format!("{cif} E"), &strap, &cut, metal, (2, 0), 3);
}

/// A poly wire 125 from a transistor's diffusion and 250 from its gate
/// is checked against the transistor as an unrelated wire; a far strap
/// joining it to the wire on the gate terminal makes it related, and
/// both lines must go, though the strap is 18 250 from them.
#[test]
fn a_far_strap_onto_the_gate_net_waives_the_unrelated_device_lines() {
    let device = "DS 1; 9D NMOS_ENH; 9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
        L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF; C 1 T 0 0;";
    let rects = [
        Rect::new(-3250, -250, -250, 250),     // the wire on the gate
        Rect::new(-3250, -250, -2750, 20_000), // its far run
        Rect::new(625, 500, 1125, 20_000),     // the unrelated wire
    ];
    let cif: String = rects.iter().map(|&r| cif_box("NP", r)).collect();
    let mut strap = EditSet::new();
    strap.add_box("NP", Rect::new(-3250, 19_500, 1125, 20_000), None);
    let mut cut = EditSet::new();
    cut.remove(rects.len() + 1);
    let poly = |a: &str, b: &str, _: bool| a == "poly" || b == "poly";
    assert_far_flip(&format!("{device} {cif} E"), &strap, &cut, poly, (2, 0), 3);
}

/// A `replace_symbol` whose body is the symbol's own changes nothing:
/// no caller re-instantiates, the session does not rebuild, and the
/// delta is empty. On the benchmark's edit chip every inverter calls
/// the replaced cell, so treating the replace as a change rebuilt the
/// whole chip.
#[test]
fn replacing_a_symbol_by_its_own_body_changes_nothing() {
    let tech = nmos_technology();
    let layout = edit_session_chip(1);
    let mut session = CheckSession::new(layout, &tech, &CheckOptions::default());
    let mut add = EditSet::new();
    add.add_box("NM", Rect::new(0, -20_000, 2000, -19_250), None);
    assert!(!session.apply(&add).unwrap().full_rebuild);
    assert!(!session.last_delta().added.is_empty());
    let before = session.report().clone();
    for symbol in 0..session.layout().symbols().len() as u32 {
        let symbol = diic::cif::SymbolId(symbol);
        let mut same = EditSet::new();
        same.replace_symbol(symbol, session.layout().symbol(symbol).items.clone());
        let stats = session.apply(&same).unwrap();
        let ctx = format!("symbol {}: {stats:?}", symbol.0);
        assert!(
            !stats.full_rebuild && stats.rebuild_reason.is_none(),
            "{ctx}"
        );
        assert_eq!((stats.dirty_items, stats.dirty_elements), (0, 0), "{ctx}");
        assert!(!stats.primitives_rechecked, "{ctx}");
        assert!(session.last_delta().added.is_empty(), "{ctx}");
        assert!(session.last_delta().removed.is_empty(), "{ctx}");
        assert_eq!(session.report().violations, before.violations, "{ctx}");
    }
    assert_matches_full(&session, "after every no-op replace");
}
