//! Ablation tests for the design choices called out in DESIGN.md §4.

use diic::core::{check_cif, flat_check, CheckOptions, CheckStage, FlatOptions, ViolationKind};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::geom::SizingMode;
use diic::tech::nmos::nmos_technology;
use diic_bench::InteractionInputs;

/// Same-net suppression: turning it off makes the checker behave like a
/// topology-blind tool — the clean chip sprouts false spacing errors.
#[test]
fn ablation_same_net_suppression() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(3, 2));
    let with = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let without = check_cif(
        &chip.cif,
        &tech,
        &CheckOptions {
            same_net_suppression: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(with.is_clean());
    let false_spacing = without
        .violations
        .iter()
        .filter(|v| matches!(v.kind, ViolationKind::Spacing { same_net: true, .. }))
        .count();
    assert!(
        false_spacing >= 3 * 2,
        "expected at least one same-net false error per cell, got {false_spacing}"
    );
}

/// Metric ablation: the orthogonal (L∞) predicate, equivalent to the
/// expand-check-overlap baseline, over-flags diagonal pairs that the
/// Euclidean predicate accepts.
#[test]
fn ablation_metric() {
    let tech = nmos_technology();
    // Corners at gap 550/550: L2 = 778 >= 750 legal, L∞ = 550 < 750.
    let cif = "L NM; B 1000 750 500 375; B 1000 750 2050 1675; E";
    let euclid = check_cif(
        cif,
        &tech,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    let orth = check_cif(
        cif,
        &tech,
        &CheckOptions {
            metric: SizingMode::Orthogonal,
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(euclid.is_clean(), "{:?}", euclid.violations);
    assert_eq!(orth.violations.len(), 1);
}

/// Hierarchy ablation: the candidate rows change nothing about the
/// verdicts across seeds and error mixes — only the work done. The
/// report's interaction lines equal the direct scan's over every element
/// of the same view.
#[test]
fn ablation_hierarchical_cache_equivalence() {
    let tech = nmos_technology();
    let options = CheckOptions::default();
    for seed in [1u64, 7, 23, 99] {
        let chip = generate(&ChipSpec::with_errors(
            5,
            2,
            vec![
                ErrorKind::NarrowWire,
                ErrorKind::CloseSpacing,
                ErrorKind::ButtedBoxes,
                ErrorKind::AccidentalTransistor,
            ],
            seed,
        ));
        let hier = check_cif(&chip.cif, &tech, &options).unwrap();
        let layout = diic::cif::parse(&chip.cif).unwrap();
        let (direct, _) = InteractionInputs::build(&layout, &tech).direct_scan(&tech, &options);
        let key = |v: &diic::core::Violation| {
            (
                format!("{}", v.kind),
                v.location.map(|r| (r.x1, r.y1, r.x2, r.y2)),
            )
        };
        let mut a: Vec<_> = hier
            .by_stage(CheckStage::Interactions)
            .into_iter()
            .map(key)
            .collect();
        let mut b: Vec<_> = direct.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "seed {seed}: verdicts diverge");
        assert!(
            hier.interact_stats.cache_hits > 0,
            "seed {seed}: cache unused"
        );
    }
}

/// Parallel-flat ablation: splitting the baseline's per-layer Boolean
/// work across workers changes nothing about the verdicts.
#[test]
fn ablation_parallel_flat_baseline() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        4,
        2,
        vec![
            ErrorKind::NarrowWire,
            ErrorKind::CloseSpacing,
            ErrorKind::ContactOverGate,
        ],
        17,
    ));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let serial = flat_check(&layout, &tech, &FlatOptions::default());
    assert!(
        !serial.is_empty(),
        "injected faults must reach the baseline"
    );
    for workers in [2usize, 8, 0] {
        let parallel = flat_check(
            &layout,
            &tech,
            &FlatOptions {
                parallelism: workers,
                ..FlatOptions::default()
            },
        );
        assert_eq!(serial, parallel, "workers={workers}: flat verdicts diverge");
    }
}

/// Immunity ablation: the 9C flag waives exactly the device's internal
/// rules and nothing else.
#[test]
fn ablation_immunity_flag() {
    let tech = nmos_technology();
    let broken = "
        DS 1; 9 odd; 9D NMOS_ENH;
        L NP; B 1000 500 250 0;
        L ND; B 500 2500 250 0;
        DF; C 1; E";
    let waived = broken.replace("9D NMOS_ENH;", "9D NMOS_ENH; 9C;");
    let opt = CheckOptions {
        erc: false,
        ..Default::default()
    };
    let r1 = check_cif(broken, &tech, &opt).unwrap();
    let r2 = check_cif(&waived, &tech, &opt).unwrap();
    assert!(!r1.is_clean());
    assert!(r2.is_clean(), "{:?}", r2.violations);
    assert_eq!(r2.waived_devices, vec!["odd"]);
}
