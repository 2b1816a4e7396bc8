//! End-to-end integration tests: generated chips through the full pipeline.

use diic::core::{check_cif, flat_check, CheckOptions, CheckStage, FlatOptions, ViolationKind};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::tech::nmos::nmos_technology;

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
    let flat = flat_check(&layout, &tech, &FlatOptions::default());
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
        let flat = flat_check(&layout, &tech, &FlatOptions::default());
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
    let flat = flat_check(&layout, &tech, &FlatOptions::default());
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
fn hierarchical_and_flat_search_agree_on_generated_chips() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        4,
        2,
        vec![ErrorKind::CloseSpacing, ErrorKind::AccidentalTransistor],
        17,
    ));
    let hier = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let flat = check_cif(
        &chip.cif,
        &tech,
        &CheckOptions {
            hierarchical: false,
            ..CheckOptions::default()
        },
    )
    .unwrap();
    assert_eq!(hier.violations.len(), flat.violations.len());
    assert!(hier.interact_stats.cache_hits > 0);
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
