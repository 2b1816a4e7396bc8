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
