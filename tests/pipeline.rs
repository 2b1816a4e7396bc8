//! End-to-end integration tests: generated chips through the full pipeline.

use diic::core::{check_cif, flat_check, CheckOptions, CheckStage, ViolationKind};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::geom::Rect;
use diic::tech::nmos::nmos_technology;
use diic_bench::InteractionInputs;

/// Mega-chip smoke (debug-sized; the release-mode CI job runs the same
/// shape at ~10⁶ elements via `mega_smoke`): the bounded-memory
/// pipeline — stamped instantiation, tiled interactions, a counting
/// sink — checks a clean library-scale array clean, with the candidate
/// buffer peak bounded by the widest tile rather than the total pair
/// count.
#[test]
fn mega_chip_smoke_bounded_memory() {
    use diic::core::{check_with_sink, CountingSink, StageEngine};

    let tech = nmos_technology();
    let chip = diic::gen::mega_chip(4_000);
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let options = CheckOptions {
        erc: false,
        parallelism: 0,
        ..CheckOptions::default()
    };
    let mut sink = CountingSink::new();
    let tiled = check_with_sink(
        &StageEngine::diic_pipeline(),
        &layout,
        &tech,
        &options,
        &mut sink,
    );
    assert!(tiled.element_count >= 4_000, "{}", tiled.element_count);
    assert_eq!(sink.total(), 0, "clean mega array must check clean");
    assert!(tiled.violations.is_empty(), "streaming run buffers nothing");
    assert!(
        tiled.interact_stats.peak_candidate_buffer < tiled.interact_stats.candidate_pairs,
        "peak {} not bounded below total pairs {}",
        tiled.interact_stats.peak_candidate_buffer,
        tiled.interact_stats.candidate_pairs
    );
}

/// The interaction stage scores each row of the pair plan once: on a
/// 10⁴-element array of one cell, the pairs it scores itself are under
/// 1 % of the candidate pairs, the rest are stamps, and both counts
/// repeat exactly from run to run and across worker counts.
#[test]
fn interaction_rows_are_scored_once_and_stamped() {
    let tech = nmos_technology();
    let chip = diic::gen::mega_chip(10_000);
    let runs: Vec<_> = [1usize, 1, 2]
        .into_iter()
        .map(|parallelism| {
            let options = CheckOptions {
                parallelism,
                ..CheckOptions::default()
            };
            let report = check_cif(&chip.cif, &tech, &options).unwrap();
            (report.scope_stats, report.interact_stats)
        })
        .collect();
    assert!(runs.iter().all(|run| *run == runs[0]), "{runs:#?}");
    let (scopes, interact) = runs[0];
    let (scored, stamped) = (scopes.interact_pairs_scored, scopes.interact_pairs_stamped);
    assert!(scored > 0 && stamped > 0, "{scopes}");
    assert!(
        scored * 100 < interact.candidate_pairs,
        "{scored} pairs scored of {} candidates",
        interact.candidate_pairs
    );
    assert!(stamped < interact.candidate_pairs, "{scopes}");
}

/// Bounded candidates on the default path, for a chip with no
/// hierarchy to stamp: 2 000 loose metal wires (four tiles of the loose
/// scan) checked by `check()` with default options hold one tile's pairs
/// at a time, and count every pair within rule reach exactly once.
#[test]
fn all_loose_chip_streams_its_candidates_by_tile() {
    let tech = nmos_technology();
    let mut cif = String::new();
    for i in 0..2_000i64 {
        // Rows of 40 wires, 3 000 apart; rows 1 250 apart: each wire is
        // within reach of its neighbours in the rows above and below.
        let (x, y) = (1_000 + (i % 40) * 3_000, 375 + (i / 40) * 1_250);
        cif.push_str(&format!("L NM; B 2000 750 {x} {y};\n"));
    }
    cif.push('E');
    let options = CheckOptions {
        erc: false,
        ..CheckOptions::default()
    };
    let report = check_cif(&cif, &tech, &options).unwrap();
    let stats = report.interact_stats;
    let layout = diic::cif::parse(&cif).unwrap();
    let flat = diic::cif::flatten(&layout);
    let reach = diic::core::max_rule_range(&tech);
    let boxes: Vec<Rect> = flat.iter().map(|e| e.shape.bbox()).collect();
    let brute_force: u64 = (0..boxes.len())
        .map(|i| {
            let near = boxes[i + 1..].iter().filter(|b| {
                let (dx, dy) = boxes[i].gap(b);
                dx <= reach && dy <= reach
            });
            near.count() as u64
        })
        .sum();
    assert_eq!(stats.candidate_pairs, brute_force);
    assert!(
        stats.peak_candidate_buffer < stats.candidate_pairs,
        "peak {} not bounded below total pairs {}",
        stats.peak_candidate_buffer,
        stats.candidate_pairs
    );
}

#[test]
fn clean_chip_is_clean() {
    let tech = nmos_technology();
    for (nx, ny) in [(1, 1), (3, 1), (4, 2)] {
        let chip = generate(&ChipSpec::clean(nx, ny));
        let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
        assert!(
            report.is_clean(),
            "{nx}x{ny} chip not clean:\n{}",
            diic::core::format_report(&report.violations)
        );
    }
}

#[test]
fn clean_chip_without_demo_cells_is_clean_for_flat_widths() {
    // The flat checker on a clean chip must report only its signature false
    // errors (the same-net tie gap per cell, the butting contact), never
    // width errors.
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(3, 2));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let flat = flat_check(&layout, &tech);
    assert!(
        flat.iter()
            .all(|v| !matches!(v.kind, ViolationKind::Width { .. })),
        "{flat:?}"
    );
    assert!(!flat.is_empty(), "flat checker should produce false errors");
}

#[test]
fn every_injected_error_is_caught_by_diic() {
    let tech = nmos_technology();
    for kind in ErrorKind::ALL {
        let chip = generate(&ChipSpec::with_errors(3, 2, vec![kind], 11));
        let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
        let regions = diic::core::account(&report.violations, &chip.injected(), 800);
        assert_eq!(
            regions.unchecked,
            0,
            "{kind} not caught; report:\n{}",
            diic::core::format_report(&report.violations)
        );
        assert_eq!(regions.real_flagged, 1, "{kind}");
    }
}

#[test]
fn diic_has_no_false_errors_on_injected_chips() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        4,
        2,
        vec![
            ErrorKind::NarrowWire,
            ErrorKind::CloseSpacing,
            ErrorKind::AccidentalTransistor,
            ErrorKind::ButtedBoxes,
        ],
        23,
    ));
    let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let regions = diic::core::account(&report.violations, &chip.injected(), 800);
    assert_eq!(regions.false_errors, 0, "{:#?}", report.violations);
    assert_eq!(regions.unchecked, 0);
}

#[test]
fn flat_checker_misses_topological_errors() {
    let tech = nmos_technology();
    // Errors invisible to a mask-level checker.
    for kind in [
        ErrorKind::AccidentalTransistor,
        ErrorKind::ButtedBoxes,
        ErrorKind::PowerGroundShort,
        ErrorKind::BusToRail,
        ErrorKind::BadGateOverhang,
    ] {
        let chip = generate(&ChipSpec::with_errors(3, 1, vec![kind], 5));
        let layout = diic::cif::parse(&chip.cif).unwrap();
        let flat = flat_check(&layout, &tech);
        let regions = diic::core::account(&flat, &chip.injected(), 800);
        assert_eq!(
            regions.unchecked, 1,
            "{kind} unexpectedly caught: {flat:#?}"
        );
    }
}

#[test]
fn flat_false_error_ratio_exceeds_paper_claim() {
    // The paper: "the ratio of false to real errors can be 10 to 1 or
    // higher". A 6x4 array with two real errors reproduces it.
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        6,
        4,
        vec![ErrorKind::NarrowWire, ErrorKind::CloseSpacing],
        31,
    ));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let flat = flat_check(&layout, &tech);
    let flat_regions = diic::core::account(&flat, &chip.injected(), 800);
    assert!(
        flat_regions.false_to_real_ratio() >= 10.0,
        "flat ratio {} (false {} / real {})",
        flat_regions.false_to_real_ratio(),
        flat_regions.false_errors,
        flat_regions.real_flagged
    );
    // DIIC on the same chip: everything caught, nothing false.
    let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let diic_regions = diic::core::account(&report.violations, &chip.injected(), 800);
    assert_eq!(diic_regions.false_errors, 0);
    assert_eq!(diic_regions.unchecked, 0);
}

#[test]
fn netlist_consistency_check_passes_on_clean_chip() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(3, 1));
    let options = CheckOptions {
        intended_netlist: Some(chip.intended_netlist.clone()),
        ..CheckOptions::default()
    };
    let report = check_cif(&chip.cif, &tech, &options).unwrap();
    assert!(
        report.is_clean(),
        "{}",
        diic::core::format_report(&report.violations)
    );
}

#[test]
fn netlist_consistency_detects_miswiring() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(2, 1));
    // Intend a different wiring: swap the golden netlist's chain length.
    let wrong = diic::gen::chip::intended_netlist(&ChipSpec::clean(3, 1));
    let options = CheckOptions {
        intended_netlist: Some(wrong),
        ..CheckOptions::default()
    };
    let report = check_cif(&chip.cif, &tech, &options).unwrap();
    assert!(report
        .violations
        .iter()
        .any(|v| v.stage == CheckStage::NetList));
}

#[test]
fn scope_driven_and_direct_scan_agree_on_generated_chips() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        4,
        2,
        vec![ErrorKind::CloseSpacing, ErrorKind::AccidentalTransistor],
        17,
    ));
    let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let inputs = InteractionInputs::build(&layout, &tech);
    let (direct, stats) = inputs.direct_scan(&tech, &CheckOptions::default());
    assert_eq!(
        report.by_stage(CheckStage::Interactions).len(),
        direct.len()
    );
    assert_eq!(report.interact_stats.candidate_pairs, stats.candidate_pairs);
    assert!(report.interact_stats.cache_hits > 0);
}

#[test]
fn extraction_matches_intended_structure_for_sizes() {
    let tech = nmos_technology();
    for nx in [1, 2, 5] {
        let chip = generate(&ChipSpec::clean(nx, 1));
        let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
        let diff = diic::netlist::compare_by_structure(&report.netlist, &chip.intended_netlist, 12);
        assert!(diff.matched, "nx={nx}: {:?}", diff.messages);
    }
}

/// Candidates the spatial indexes examine over one layout's pair plans —
/// the connection search (reach 0) and the interaction search (the rule
/// reach), scan by scan as a check runs them — and, of those, what the
/// queries of elements with the box `own` examined.
fn examined_candidates(cif: &str, own: Rect) -> (u64, u64) {
    use diic::core::{
        instantiate, BoundTechnology, Definitions, LayerBinding, Scan, ScanIndex, ScopeTable,
        StringInterner,
    };
    let tech = nmos_technology();
    let layout = diic::cif::parse(cif).unwrap();
    let bound = BoundTechnology::new(&tech);
    let (binding, _) = LayerBinding::bind(&layout, &tech);
    let definitions = Definitions::new(&layout, &binding, None);
    let seed = StringInterner::default();
    let (view, runs) = instantiate(&layout, &tech, &binding, &definitions, seed);
    let bboxes = view.elements.bboxes();
    let scopes = ScopeTable::build(
        &definitions,
        layout.top_items(),
        runs.iter().map(|&(elements, _)| elements),
        bboxes,
        bound.max_rule_range(),
    );
    let (mut total, mut mine) = (0, 0);
    let mut count = |scan: &Scan<'_>, index: &ScanIndex, reach| {
        for at in 0..scan.ids.len() {
            let examined = scan.pairs(bboxes, index, reach, at..at + 1, |_, _| {});
            total += examined;
            if bboxes[scan.ids.get(at)] == own {
                mine += examined;
            }
        }
    };
    for reach in [0, bound.max_rule_range()] {
        let plan = scopes.rows(reach);
        for (_, scan) in &plan.rows {
            count(scan, &scan.index(bboxes, bound.cell_size()), reach);
        }
        // The loose scans all search the first one's index.
        if let Some((_, first)) = plan.loose.first() {
            let index = first.index(bboxes, bound.cell_size());
            for (_, scan) in &plan.loose {
                count(scan, &index, reach);
            }
        }
    }
    (total, mine)
}

/// One box far from the rest must not change how the rest is searched:
/// a 200 × 200 array of 1 000 × 1 000 metal boxes at pitch 2 500, with
/// and without one more box at (2³⁰, 2³⁰), loose and inside one symbol.
/// The far box adds at most its own queries' candidates — an index that
/// coarsened its cells to span the far box would put the whole array in
/// a few cells and examine it once per query.
#[test]
fn a_far_box_adds_only_its_own_candidates() {
    let far = 1i64 << 30;
    let far_box = Rect::new(far - 500, far - 500, far + 500, far + 500);
    let mut array = String::from("L NM;\n");
    for i in 0..200 {
        for j in 0..200 {
            array.push_str(&format!("B 1000 1000 {} {};\n", i * 2500, j * 2500));
        }
    }
    let with_far = format!("{array}B 1000 1000 {far} {far};\n");
    for wrap in [false, true] {
        let cif = |body: &str| match wrap {
            false => format!("{body}E\n"),
            true => format!("DS 1;\n{body}DF;\nC 1;\nE\n"),
        };
        let (without, _) = examined_candidates(&cif(&array), far_box);
        let (with, own) = examined_candidates(&cif(&with_far), far_box);
        assert!(own > 0, "the far box is searched (wrapped: {wrap})");
        assert!(
            with <= without + own,
            "the far box made the array examine {with} candidates, not {without} + {own} \
             (wrapped: {wrap})"
        );
    }
}

/// Names stay hierarchical: instantiating a 10⁴-element array interns a
/// string per instance (its path) and the templates hold their own local
/// strings once — never one per element — and the net-list fold interns
/// nothing per device terminal (a label's net and the name of a lone
/// joining device's terminal at most).
#[test]
fn names_cost_instances_and_template_strings_not_elements() {
    use diic::core::netgen::NetParts;
    use diic::core::{
        check_connections, instantiate, BoundTechnology, Definitions, LayerBinding, ScopeTable,
    };
    let tech = nmos_technology();
    let chip = diic::gen::mega_chip(10_000);
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let (binding, _) = LayerBinding::bind(&layout, &tech);
    let definitions = Definitions::new(&layout, &binding, None);
    let (mut view, runs) = instantiate(&layout, &tech, &binding, &definitions, Default::default());
    let stats = view.instantiate_stats;
    assert!(stats.instances_stamped > 0);
    assert!(
        stats.strings_interned <= stats.instances_stamped + stats.template_strings,
        "{stats}: more strings than instances and template strings"
    );
    assert!(
        stats.strings_interned + stats.template_strings < view.elements.len() / 8,
        "{stats}: names grow with the {} elements",
        view.elements.len()
    );

    let bound = BoundTechnology::new(&tech);
    let scopes = ScopeTable::build(
        &definitions,
        layout.top_items(),
        runs.iter().map(|&(elements, _)| elements),
        view.elements.bboxes(),
        bound.max_rule_range(),
    );
    let (conn, _) = check_connections(&view, &tech, &bound, &scopes, 1);
    let labels: Vec<_> = (layout.labels().iter())
        .map(|l| (l, binding.layer(l.layer)))
        .collect();
    let before = view.strings.len();
    let terminals: usize = view.devices.iter().map(|d| d.terminals.len()).sum();
    let (mut parts, _) = NetParts::build(&mut view, &bound, &conn.merges, &labels, &scopes, 1);
    let fold = view.strings.len() - before;
    assert!(terminals > 1000);
    assert!(
        fold <= labels.len() + 1,
        "the fold interned {fold} strings over {terminals} terminals"
    );
    assert_eq!(parts.assemble(&view).device_count(), view.devices.len());
}
