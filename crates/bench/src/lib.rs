//! # diic-bench — experiment harnesses reproducing the paper's figures
//!
//! The paper's evaluation is a set of figures illustrating checker
//! pathologies and mechanisms plus one quantitative claim (false:real
//! error ratios of 10:1 or higher). Each `eN` function regenerates one
//! artefact as a printable table; the `experiments` binary runs them all.
//! See `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md` for
//! recorded results.

use diic_cif::Layout;
use diic_core::interact::{check_interactions, check_interactions_among};
use diic_core::netgen::NetParts;
use diic_core::{
    account, check_cif, check_connections, check_same_mask, flat_check, instantiate,
    BoundTechnology, CheckOptions, ChipView, Definitions, InteractStats, LayerBinding, ScopeTable,
    Violation,
};
use diic_gen::{generate, ChipSpec, ErrorKind};
use diic_geom::{Polygon, Rect, Region, SizingMode};
use diic_process::{exposure_spacing_check, ExposureModel};
use diic_tech::nmos::nmos_technology;
use diic_tech::Technology;
use std::fmt::Write as _;
use std::time::Instant;

/// Scale knob: `quick` shrinks array sizes for CI-speed runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Reduce workload sizes.
    pub quick: bool,
}

impl Scale {
    fn array(&self, full: (usize, usize)) -> (usize, usize) {
        if self.quick {
            (full.0.min(4), full.1.min(2))
        } else {
            full
        }
    }
}

/// E1 — Fig. 1 + the "10:1" claim: error-region accounting, DIIC vs flat.
pub fn e1_error_regions(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E1: Fig.1 error regions — DIIC vs flat mask-level checker"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>9} {:>6} {:>6} {:>9} {:>10}",
        "checker", "cells", "injected", "real", "false", "unchecked", "false:real"
    );
    let tech = nmos_technology();
    let sizes = if scale.quick {
        vec![(4, 2)]
    } else {
        vec![(4, 2), (6, 4), (10, 6)]
    };
    for (nx, ny) in sizes {
        let errors = vec![
            ErrorKind::NarrowWire,
            ErrorKind::CloseSpacing,
            ErrorKind::AccidentalTransistor,
            ErrorKind::ButtedBoxes,
            ErrorKind::PowerGroundShort,
            ErrorKind::BadGateOverhang,
            ErrorKind::ContactOverGate,
        ];
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, 91));
        let injected = chip.injected();

        let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
        let diic = account(&report.violations, &injected, 800);
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>9} {:>6} {:>6} {:>9} {:>10.1}",
            "DIIC",
            nx * ny,
            diic.injected,
            diic.real_flagged,
            diic.false_errors,
            diic.unchecked,
            diic.false_to_real_ratio()
        );

        let layout = diic_cif::parse(&chip.cif).unwrap();
        let flat = flat_check(&layout, &tech);
        let fr = account(&flat, &injected, 800);
        let ratio = if fr.false_to_real_ratio().is_finite() {
            format!("{:.1}", fr.false_to_real_ratio())
        } else {
            "inf".to_string()
        };
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>9} {:>6} {:>6} {:>9} {:>10}",
            "flat",
            nx * ny,
            fr.injected,
            fr.real_flagged,
            fr.false_errors,
            fr.unchecked,
            ratio
        );
    }
    let _ = writeln!(
        out,
        "paper claim: flat false:real reaches 10:1 or higher; DIIC ~0"
    );
    out
}

/// E2 — Fig. 2 figure pathologies: legal figures, illegal union (and the
/// reverse), verdicts of figure-based vs union-based vs DIIC checking.
pub fn e2_figure_pathologies() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E2: Fig.2 figure-based checking pathologies (min width 750)"
    );
    const W: i64 = 750;
    // Case A: two individually legal boxes joined only through a 100x100
    // corner overlap — the composite conducts through an illegal neck.
    let a1 = Rect::new(0, 0, 2000, 1000);
    let a2 = Rect::new(1900, 900, 3900, 1900);
    // Case B: two individually too-narrow boxes whose union is legal.
    let b1 = Rect::new(0, 0, 2000, 400);
    let b2 = Rect::new(0, 400, 2000, 800);

    let fig_based = |rects: &[Rect]| -> usize {
        rects
            .iter()
            .filter(|r| diic_geom::width::check_rect_width(r, W).is_some())
            .count()
    };
    let union_based = |rects: &[Rect]| -> usize {
        let region = Region::from_rects(rects.iter().copied());
        diic_geom::width::shrink_expand_compare(&region, W).len()
    };
    let diic_verdict = |rects: &[Rect]| -> usize {
        // Element width checks plus the skeletal connection rule.
        let mut n = fig_based(rects);
        let sk: Vec<_> = rects
            .iter()
            .map(|r| diic_geom::skeleton::Skeleton::of_rect(r, W / 2))
            .collect();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                if rects[i].touches(&rects[j]) {
                    let connected = match (&sk[i], &sk[j]) {
                        (Some(a), Some(b)) => a.connected_to(b),
                        _ => false,
                    };
                    if !connected {
                        n += 1; // illegal connection
                    }
                }
            }
        }
        n
    };
    let _ = writeln!(
        out,
        "{:<46} {:>9} {:>11} {:>5}",
        "case", "fig-based", "union-based", "DIIC"
    );
    let _ = writeln!(
        out,
        "{:<46} {:>9} {:>11} {:>5}",
        "A: legal figures, illegal neck (corner join)",
        fig_based(&[a1, a2]),
        union_based(&[a1, a2]),
        diic_verdict(&[a1, a2])
    );
    let _ = writeln!(
        out,
        "{:<46} {:>9} {:>11} {:>5}",
        "B: narrow figures, legal-width union (halves)",
        fig_based(&[b1, b2]),
        union_based(&[b1, b2]),
        diic_verdict(&[b1, b2])
    );
    let _ = writeln!(
        out,
        "A: both geometric techniques miss the neck; skeletal connectivity flags it\n\
         B: figure-based false-flags; DIIC flags by design (Fig.15 self-sufficiency)"
    );
    out
}

/// E3 — Fig. 3: orthogonal vs Euclidean expand/shrink of a square.
pub fn e3_expand_shrink() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3: Fig.3 orthogonal vs Euclidean sizing of a 1000-unit square"
    );
    let r = Rect::new(0, 0, 1000, 1000);
    let region = Region::from_rect(r);
    let _ = writeln!(
        out,
        "{:>6} {:>14} {:>14} {:>13} {:>12}",
        "d", "orth area", "eucl area", "eucl corner", "shrink area"
    );
    for d in [100i64, 250, 500] {
        let orth = diic_geom::size::orthogonal_expand_area_rect(&r, d);
        let eucl = diic_geom::size::euclidean_expand_area_rect(&r, d);
        let corner_loss = orth as f64 - eucl;
        let shrunk = diic_geom::size::shrink(&region, d).unwrap().area();
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>14.0} {:>13.0} {:>12}",
            d, orth, eucl, corner_loss, shrunk
        );
    }
    let _ = writeln!(
        out,
        "both shrinks give square corners; expands differ by (4-π)d² per corner set"
    );
    out
}

/// E4 — Fig. 4: width & spacing pathologies of the traditional techniques.
pub fn e4_width_spacing_pathologies() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E4: Fig.4 pathologies (metal rules: width 750, spacing 750)"
    );
    // Width: a LEGAL 3000-unit square.
    let square = Region::from_rect(Rect::new(0, 0, 3000, 3000));
    let orth_sec = diic_geom::width::shrink_expand_compare(&square, 750).len();
    let eucl_sec = diic_geom::raster::euclidean_shrink_expand_compare(&square, 750, 10).len();
    let diic_width = diic_geom::width::check_polygon_width(
        &Polygon::from_rect(&Rect::new(0, 0, 3000, 3000)),
        750,
    )
    .len();
    let _ = writeln!(out, "width check of a LEGAL square:");
    let _ = writeln!(
        out,
        "  shrink-expand-compare (orthogonal): {orth_sec} errors"
    );
    let _ = writeln!(
        out,
        "  shrink-expand-compare (Euclidean):  {eucl_sec} errors (the four corners)"
    );
    let _ = writeln!(
        out,
        "  DIIC edge-pair width check:         {diic_width} errors"
    );
    // Spacing: corners at L2 = 778 (legal), L∞ = 550 (flagged by orthogonal).
    let a = Rect::new(0, 0, 1000, 750);
    let b = Rect::new(1550, 1300, 2550, 2050);
    let orth = diic_geom::spacing::check_rect_spacing(&a, &b, 750, SizingMode::Orthogonal);
    let eucl = diic_geom::spacing::check_rect_spacing(&a, &b, 750, SizingMode::Euclidean);
    let _ = writeln!(out, "corner-to-corner spacing (gap 550/550, L2 = 778):");
    let _ = writeln!(
        out,
        "  orthogonal expand-check-overlap: {}",
        if orth.is_some() {
            "FALSE ERROR"
        } else {
            "pass"
        }
    );
    let _ = writeln!(
        out,
        "  Euclidean distance (DIIC):       {}",
        if eucl.is_some() { "error" } else { "pass" }
    );
    out
}

/// E5 — Fig. 5: electrical equivalence and the resistor exception.
pub fn e5_electrical_equivalence() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E5: Fig.5 same-net suppression and the resistor exception"
    );
    let tech = nmos_technology();
    // (a) two same-net metal boxes 500 apart (rule 750).
    let cif_a = "L NM; 9N A; B 2000 750 1000 375; 9N A; B 2000 750 1000 1625; E";
    for (label, suppress) in [("DIIC (same-net suppressed)", true), ("no topology", false)] {
        let r = check_cif(
            cif_a,
            &tech,
            &CheckOptions {
                same_net_suppression: suppress,
                erc: false,
                ..Default::default()
            },
        )
        .unwrap();
        let _ = writeln!(
            out,
            "  (a) equivalent boxes 500 apart: {label}: {} errors",
            r.violations.len()
        );
    }
    // (b) a hairpin diffusion wire 375 from a resistor body, same net.
    let cif_b = "
        DS 6; 9 res; 9D RESISTOR_D; 9T A ND 0 -750; 9T B ND 0 750;
        L ND; B 500 2000 0 0; DF;
        C 6 T 0 0;
        L ND; 9N IO_RA; W 500 0 -750 0 -2500;
        L ND; 9N IO_RB; W 500 0 750 0 2500 875 2500 875 0;
        E";
    let r = check_cif(
        cif_b,
        &tech,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    let _ = writeln!(
        out,
        "  (b) same-net hairpin 375 from resistor body: DIIC: {} error(s) (override keeps the check)",
        r.violations.len()
    );
    let _ = writeln!(
        out,
        "paper: (a) unnecessary check eliminated; (b) short across resistor still caught"
    );
    out
}

/// E6 — Fig. 6: device-dependent base/isolation rule in the bipolar tech.
pub fn e6_device_dependent() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E6: Fig.6 device-dependent rules (bipolar base vs isolation)"
    );
    let tech = diic_tech::bipolar::bipolar_technology();
    // Transistor base touching isolation: error.
    let npn = "
        DS 1; 9 t; 9D NPN; 9T B BB 0 0; 9T E BE 0 0; 9T C BB 250 250;
        L BB; B 2000 2000 0 0; L BE; B 500 500 0 0; DF;
        C 1 T 0 0;
        L BI; 9N GND; B 2000 2000 2000 0;
        E";
    let r1 = check_cif(
        npn,
        &tech,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    let spacing_errors = r1
        .violations
        .iter()
        .filter(|v| matches!(v.kind, diic_core::ViolationKind::Spacing { .. }))
        .count();
    let _ = writeln!(
        out,
        "  NPN base touching isolation:        {spacing_errors} error(s) [expect 1]"
    );
    // Resistor tied to isolation: legal.
    let res = "
        DS 2; 9 r; 9D BASE_RESISTOR; 9T A BB 0 -750; 9T B BB 0 750;
        L BB; B 500 2000 0 0; DF;
        C 2 T 0 0;
        L BI; 9N GND; B 2000 2000 1250 0;
        E";
    let r2 = check_cif(
        res,
        &tech,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    let _ = writeln!(
        out,
        "  base RESISTOR tied to isolation:    {} error(s) [expect 0 — legal ground tie]",
        r2.violations.len()
    );
    let _ = writeln!(out, "  (a mask-level checker must flag both or neither)");
    out
}

/// E7 — Fig. 7: contact over gate vs butting contact.
pub fn e7_contact_over_gate() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E7: Fig.7 contact-over-gate vs butting contact");
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        3,
        1,
        vec![ErrorKind::ContactOverGate],
        3,
    ));
    let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let layout = diic_cif::parse(&chip.cif).unwrap();
    let flat = flat_check(&layout, &tech);
    let diic_cog = report
        .violations
        .iter()
        .filter(|v| diic_core::category_of(v) == "contact-over-gate")
        .count();
    let flat_cog = flat
        .iter()
        .filter(|v| diic_core::category_of(v) == "contact-over-gate")
        .count();
    let _ = writeln!(
        out,
        "  chip: 1 bad transistor (contact on gate) + 1 legal butting contact"
    );
    let _ = writeln!(
        out,
        "  DIIC contact-over-gate reports: {diic_cog} [expect 1 — the bad transistor]"
    );
    let _ = writeln!(
        out,
        "  flat contact-over-gate reports: {flat_cog} [expect 2 — also flags the butting contact]"
    );
    out
}

/// E8 — Fig. 8: intentional vs accidental transistors.
pub fn e8_accidental_transistors() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E8: Fig.8 declared-device typing");
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        3,
        1,
        vec![ErrorKind::AccidentalTransistor, ErrorKind::BadGateOverhang],
        13,
    ));
    let injected = chip.injected();
    let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let diic = account(&report.violations, &injected, 800);
    let layout = diic_cif::parse(&chip.cif).unwrap();
    let flat = flat_check(&layout, &tech);
    let fr = account(&flat, &injected, 800);
    let _ = writeln!(
        out,
        "  injected: accidental poly/diff crossing + missing gate overlap"
    );
    let _ = writeln!(out, "  DIIC: {} / 2 caught", diic.real_flagged);
    let _ = writeln!(
        out,
        "  flat: {} / 2 caught ({} unchecked — assumed to be legal transistors)",
        fr.real_flagged, fr.unchecked
    );
    out
}

/// E9 — Figs. 9–10: hierarchical vs flat scaling — the interaction
/// search by the scope table's plan (rows filled once per definition and
/// stamped) against the direct scan over every element, timed on the
/// same view.
pub fn e9_pipeline_scaling(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E9: Fig.9/10 hierarchy: interaction search time and check counts vs array size"
    );
    let tech = nmos_technology();
    let _ = writeln!(
        out,
        "{:>9} {:>9} {:>11} {:>11} {:>9} {:>12} {:>12}",
        "cells", "elements", "hier ms", "flatsrch ms", "cachehit", "defn checks", "flat checks"
    );
    let sizes = if scale.quick {
        vec![(2, 1), (4, 2)]
    } else {
        vec![(2, 1), (4, 2), (8, 4), (12, 8), (16, 12)]
    };
    let options = CheckOptions::default();
    for (nx, ny) in sizes {
        let chip = generate(&ChipSpec {
            demo_cells: false,
            ..ChipSpec::clean(nx, ny)
        });
        let layout = diic_cif::parse(&chip.cif).unwrap();
        let inputs = InteractionInputs::build(&layout, &tech);
        let t0 = Instant::now();
        let (_, stats) = inputs.scope_driven(&tech, &options);
        let t_hier = t0.elapsed();
        let t0 = Instant::now();
        let _direct = inputs.direct_scan(&tech, &options);
        let t_flat = t0.elapsed();
        let (defn, flat_checks) = diic_core::element_checks::check_count_comparison(&layout);
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>11.2} {:>11.2} {:>9} {:>12} {:>12}",
            nx * ny,
            inputs.view.elements.len(),
            t_hier.as_secs_f64() * 1e3,
            t_flat.as_secs_f64() * 1e3,
            stats.cache_hits,
            defn,
            flat_checks
        );
    }
    let _ = writeln!(
        out,
        "definition-level checks stay constant while flat-equivalent work grows linearly"
    );
    out
}

/// E10 — Fig. 11: skeletal connectivity truth table.
pub fn e10_skeletal_connectivity() -> String {
    use diic_geom::skeleton::Skeleton;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E10: Fig.11 skeletal connectivity (min width 500, h = 250)"
    );
    let base = Rect::new(0, 0, 2000, 500);
    let cases: Vec<(&str, Rect, bool)> = vec![
        ("full overlap", Rect::new(500, 0, 2500, 500), true),
        ("overlap = min width", Rect::new(1500, 0, 3500, 500), true),
        ("overlap < min width", Rect::new(1750, 0, 3750, 500), false),
        ("butted end-to-end", Rect::new(2000, 0, 4000, 500), false),
        ("enclosed", Rect::new(250, 0, 1000, 500), true),
        (
            "corner overlap only",
            Rect::new(1900, 400, 3900, 900),
            false,
        ),
        ("separated", Rect::new(3000, 0, 5000, 500), false),
    ];
    let sa = Skeleton::of_rect(&base, 250).unwrap();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>11}",
        "configuration", "connected", "union legal"
    );
    for (name, other, expect) in cases {
        let sb = Skeleton::of_rect(&other, 250).unwrap();
        let connected = sa.connected_to(&sb);
        assert_eq!(connected, expect, "{name}");
        // The paper's theorem: connected => union is legal width.
        let union_ok = if connected {
            let union = Region::from_rects([base, other]);
            diic_geom::width::shrink_expand_compare(&union, 500).is_empty()
        } else {
            true // theorem says nothing
        };
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>11}",
            name,
            if connected { "yes" } else { "no" },
            if connected {
                if union_ok {
                    "yes"
                } else {
                    "VIOLATED"
                }
            } else {
                "n/a"
            }
        );
    }
    let _ = writeln!(
        out,
        "theorem (paper): legal widths + skeletal connection => legal-width union"
    );
    out
}

/// E11 — Fig. 12: the interaction matrix and its pruning counters.
pub fn e11_interaction_matrix(scale: Scale) -> String {
    let mut out = String::new();
    let tech = nmos_technology();
    let _ = writeln!(out, "E11: Fig.12 interaction matrix (NMOS)");
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>9} {:>9} {:>10}",
        "layer", "layer", "diff-net", "same-net", "unrelated"
    );
    for (a, b, rule) in tech.rules().entries() {
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>9} {:>9} {:>10}",
            tech.layer(a).name,
            tech.layer(b).name,
            rule.diff_net,
            rule.same_net.map(|v| v.to_string()).unwrap_or("-".into()),
            rule.unrelated_device
                .map(|v| v.to_string())
                .unwrap_or("-".into()),
        );
    }
    let n = tech.layers().len();
    let (with_rules, same_net_checked) = tech.rules().subcase_counts();
    let _ = writeln!(
        out,
        "{} layers => {} potential pairs; {} have rules; {} check same-net pairs",
        n,
        n * (n + 1) / 2,
        with_rules,
        same_net_checked
    );
    // Pruning counters on a generated chip.
    let (nx, ny) = scale.array((6, 4));
    let chip = generate(&ChipSpec::clean(nx, ny));
    let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let s = report.interact_stats;
    let _ = writeln!(
        out,
        "on a {}x{} array: {} candidate pairs -> {} no-rule, {} same-net, {} related, {} waived, {} distance checks",
        nx, ny, s.candidate_pairs, s.no_rule, s.same_net_suppressed, s.related_suppressed,
        s.override_waived, s.distance_checks
    );
    out
}

/// E12 — Fig. 13 + Eq. 1: Euclidean vs orthogonal vs proximity expand.
pub fn e12_proximity_expand(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E12: Fig.13 expansion flavours (square, d = 250, sigma = 125)"
    );
    let sq = Region::from_rect(Rect::new(0, 0, 1500, 1500));
    let res = if scale.quick { 20 } else { 10 };
    let c = diic_process::proximity::expand_comparison(&sq, 250, 125.0, res);
    let drawn = 1500.0f64 * 1500.0;
    let _ = writeln!(out, "{:<14} {:>12} {:>9}", "expand", "area", "vs drawn");
    for (name, area) in [
        ("orthogonal", c.orthogonal_area),
        ("euclidean", c.euclidean_area),
        ("proximity", c.proximity_area),
    ] {
        let _ = writeln!(
            out,
            "{:<14} {:>12.0} {:>8.1}%",
            name,
            area,
            100.0 * (area - drawn) / drawn
        );
    }
    let _ = writeln!(
        out,
        "ordering orth > eucl >= prox at corners, as drawn in Fig.13"
    );
    // Proximity: the gap between close bars blooms shut.
    let bars = Region::from_rects([Rect::new(0, 0, 1000, 3000), Rect::new(1150, 0, 2150, 3000)]);
    let model = ExposureModel::new(125.0, 0.5);
    let merged = exposure_spacing_check(&bars.rects()[..1], &bars.rects()[1..], &model, 0);
    let _ = writeln!(
        out,
        "two bars 150 apart (1.2 sigma): bridge exposure {:.2} vs critical {:.2} -> {}",
        merged.bridge_exposure,
        merged.critical,
        if merged.violation {
            "MERGE (proximity effect)"
        } else {
            "separate"
        }
    );
    out
}

/// E13 — Fig. 14: the relational endcap rule.
pub fn e13_relational_rule() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E13: Fig.14 relational rule — endcap retreat vs wire width"
    );
    let model = ExposureModel::new(125.0, 0.5);
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>18}",
        "width", "retreat", "overlap needed"
    );
    for w in [250i64, 375, 500, 750, 1000] {
        let retreat = diic_process::relational::endcap_retreat(w, &model);
        let needed = diic_process::relational::required_overlap(w, 0, &model, 125, 250.0);
        let _ = writeln!(out, "{:>8} {:>10.0} {:>18}", w, retreat, needed);
    }
    let _ = writeln!(
        out,
        "narrower poly retreats more => required overlap is a function of width"
    );
    out
}

/// E14 — Fig. 15: self-sufficiency of symbols.
pub fn e14_self_sufficiency() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E14: Fig.15 self-sufficiency");
    let tech = nmos_technology();
    // Butted half-width boxes across instances.
    let butted = "
        DS 1; 9 half; L NM; B 2000 375 1000 187; DF;
        C 1 T 0 0; C 1 T 0 375; E";
    let r1 = check_cif(
        butted,
        &tech,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    // Overlapped full-width boxes.
    let overlapped = "
        DS 2; 9 full; L NM; B 2000 750 1000 375; DF;
        C 2 T 0 0; C 2 T 1250 0; E";
    let r2 = check_cif(
        overlapped,
        &tech,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    let _ = writeln!(
        out,
        "  half-width boxes butted to full width: {} violation(s) [expect >0: width-in-definition]",
        r1.violations.len()
    );
    let _ = writeln!(
        out,
        "  full-width boxes overlapped:           {} violation(s) [expect 0 — preferred technique]",
        r2.violations.len()
    );
    out
}

/// E15 — the four non-geometric construction rules.
pub fn e15_composition_rules() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E15: non-geometric construction rules");
    let tech = nmos_technology();
    let cases = [
        (ErrorKind::PowerGroundShort, "power/ground short"),
        (ErrorKind::DepletionToGround, "depletion device to ground"),
        (ErrorKind::BusToRail, "bus to rail"),
    ];
    for (kind, name) in cases {
        let chip = generate(&ChipSpec::with_errors(3, 1, vec![kind], 29));
        let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
        let erc = report
            .violations
            .iter()
            .filter(|v| matches!(v.kind, diic_core::ViolationKind::Erc { .. }))
            .count();
        let _ = writeln!(out, "  {name}: {erc} ERC report(s) [expect >=1]");
    }
    // Dangling net: a floating gate wire.
    let dangling = "L NP; 9N floats; W 500 0 0 4000 0; E";
    let r = check_cif(dangling, &tech, &CheckOptions::default()).unwrap();
    let _ = writeln!(
        out,
        "  dangling net (floating wire): {} ERC report(s) [expect 1]",
        r.violations.len()
    );
    let _ = writeln!(out, "  (the flat mask-level checker reports none of these)");
    out
}

/// Peak resident set size (`VmHWM` from `/proc/self/status`) in
/// kilobytes; `0` where the proc interface is unavailable.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|line| {
                    line.strip_prefix("VmHWM:")
                        .and_then(|rest| rest.trim().strip_suffix("kB"))
                        .and_then(|n| n.trim().parse().ok())
                })
            })
            .unwrap_or(0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Resets the kernel's peak-RSS watermark to the current RSS (writes
/// `5` to `/proc/self/clear_refs`) so successive [`peak_rss_kb`] reads
/// bracket one phase each instead of accumulating across the process.
/// Returns `false` where unsupported; measurements then cover the whole
/// process lifetime, which still upper-bounds each phase.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// An [`std::io::Write`] that hashes (FNV-1a, 64-bit) and counts every
/// byte — byte-identity between two streamed reports without holding
/// either in memory: equal `(hash, bytes)` digests mean equal streams.
#[derive(Debug, Default)]
pub struct FnvWriter {
    hash: u64,
    bytes: u64,
}

impl FnvWriter {
    /// An empty-stream digest.
    pub fn new() -> Self {
        FnvWriter {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }

    /// `(hash, byte count)` of everything written so far.
    pub fn digest(&self) -> (u64, u64) {
        (self.hash, self.bytes)
    }
}

impl std::io::Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// E21 — check-as-a-service load: edit latency and session density.
///
/// Drives the `diic-api` router **in-process** (the tower `oneshot`
/// idiom — no sockets, so the numbers are the service's own cost, not
/// the kernel's): opens a pool of sessions over generated inverter
/// arrays, then hammers `POST /sessions/{id}/edits` from several
/// threads with net-neutral edit batches (a move, or an add
/// immediately un-done by a remove — the session ends each request at
/// its original item count, so concurrent writers never invalidate
/// each other's indices). Reports p50/p99 edit latency per thread
/// count, end-of-run `GET /report` latency, and the pool's
/// sessions-per-GB from the registry's own memory accounting.
pub fn e21_service_load(scale: Scale) -> String {
    use axum::{Method, Request, StatusCode};
    use diic_api::{router, App, RegistryConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let mut out = String::new();
    let (nx, ny) = scale.array((12, 6));
    let sessions = if scale.quick { 6 } else { 24 };
    let edits_per_thread = if scale.quick { 40 } else { 250 };

    let app = router(App::new(RegistryConfig {
        max_sessions: sessions * 2,
        ..RegistryConfig::default()
    }));
    let app = Arc::new(app);

    // Open the pool.
    let chip = generate(&ChipSpec::clean(nx, ny));
    let open_body = format!(
        r#"{{"cif": {}, "options": {{"erc": false}}}}"#,
        serde_json::to_string(&serde_json::Value::from(chip.cif.as_str()))
    );
    let t0 = Instant::now();
    let mut ids = Vec::new();
    for _ in 0..sessions {
        let resp =
            app.oneshot(Request::new(Method::Post, "/sessions").with_body(open_body.clone()));
        assert_eq!(resp.status, StatusCode::CREATED, "open failed");
        let body = serde_json::from_str(std::str::from_utf8(&resp.into_bytes().unwrap()).unwrap())
            .unwrap();
        ids.push(body.get("id").and_then(serde_json::Value::as_i64).unwrap() as u64);
    }
    let t_open = t0.elapsed();
    let items = diic_cif::parse(&chip.cif).unwrap().top_items().len();

    let _ = writeln!(
        out,
        "E21: service load — {sessions} sessions of {nx}×{ny} inverters \
         ({items} top items each), open {:.1} ms/session",
        t_open.as_secs_f64() * 1e3 / sessions as f64
    );
    let _ = writeln!(
        out,
        "{:<26} {:>8} {:>9} {:>9} {:>9}",
        "edit mix", "threads", "ops/s", "p50 ms", "p99 ms"
    );

    let percentile = |sorted: &[Duration], q: f64| -> f64 {
        let i = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[i].as_secs_f64() * 1e3
    };

    for threads in [1usize, 4] {
        let counter = AtomicUsize::new(0);
        let t0 = Instant::now();
        let lats: Vec<Vec<Duration>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let app = Arc::clone(&app);
                    let ids = &ids;
                    let counter = &counter;
                    s.spawn(move || {
                        let mut lats = Vec::with_capacity(edits_per_thread);
                        for _ in 0..edits_per_thread {
                            let k = counter.fetch_add(1, Ordering::Relaxed);
                            let id = ids[k % ids.len()];
                            // Alternate a translate of an existing item
                            // with a net-neutral add+remove pair.
                            let body = if k.is_multiple_of(2) {
                                let dx = if (k / 2).is_multiple_of(2) { 40 } else { -40 };
                                format!(
                                    r#"{{"edits": [{{"op": "move", "index": {}, "by": [{dx}, 0]}}]}}"#,
                                    k % items
                                )
                            } else {
                                format!(
                                    r#"{{"edits": [
                                        {{"op": "add_element", "layer": "NM",
                                          "shape": {{"box": [-9000, {0}, -7000, {1}]}}}},
                                        {{"op": "remove", "index": {items}}}]}}"#,
                                    k * 3000,
                                    k * 3000 + 750
                                )
                            };
                            let t = Instant::now();
                            let resp = app.oneshot(
                                Request::new(Method::Post, &format!("/sessions/{id}/edits"))
                                    .with_body(body),
                            );
                            lats.push(t.elapsed());
                            assert_eq!(resp.status, StatusCode::OK, "edit failed");
                        }
                        lats
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wall = t0.elapsed();
        let mut all: Vec<Duration> = lats.into_iter().flatten().collect();
        all.sort_unstable();
        let _ = writeln!(
            out,
            "{:<26} {:>8} {:>9.0} {:>9.2} {:>9.2}",
            "move / add+remove",
            threads,
            all.len() as f64 / wall.as_secs_f64(),
            percentile(&all, 0.50),
            percentile(&all, 0.99),
        );
    }

    // Full-report streaming latency over one session.
    let t0 = Instant::now();
    let resp = app.oneshot(Request::new(
        Method::Get,
        &format!("/sessions/{}/report", ids[0]),
    ));
    assert_eq!(resp.status, StatusCode::OK);
    let report_bytes = resp.into_bytes().unwrap().len();
    let t_report = t0.elapsed();

    // Session density from the registry's own accounting.
    let resp = app.oneshot(Request::new(Method::Get, "/stats"));
    let stats =
        serde_json::from_str(std::str::from_utf8(&resp.into_bytes().unwrap()).unwrap()).unwrap();
    let memory_bytes = stats
        .get("memory_bytes")
        .and_then(serde_json::Value::as_i64)
        .unwrap() as f64;
    let per_session = memory_bytes / sessions as f64;
    let _ = writeln!(
        out,
        "GET /report: {report_bytes} bytes in {:.1} ms; pool {:.1} MiB \
         ({:.0} KiB/session, {:.0} sessions/GB)",
        t_report.as_secs_f64() * 1e3,
        memory_bytes / (1 << 20) as f64,
        per_session / 1024.0,
        (1u64 << 30) as f64 / per_session
    );
    out
}

/// The interaction stage's inputs for one layout, built the way
/// [`diic_core::check`] builds them — the view, its assembled net graph,
/// its definitions and scope table, and the bound technology — so the
/// stage can be timed, or held to its direct-scan reference, on one view.
pub struct InteractionInputs {
    /// The instantiated chip.
    pub view: ChipView,
    /// Its net graph, assembled (the stage reads [`NetParts::nets`]).
    pub parts: NetParts,
    /// Its scope table, built for the rule reach.
    pub scopes: ScopeTable,
    /// Its symbols' content keys, which the table groups by.
    pub definitions: Definitions<'static>,
    /// The technology's interaction constants.
    pub bound: BoundTechnology,
}

impl InteractionInputs {
    /// Instantiates `layout`, checks its connections and extracts its
    /// net list, serially.
    pub fn build(layout: &Layout, tech: &Technology) -> InteractionInputs {
        let bound = BoundTechnology::new(tech);
        let (binding, _) = LayerBinding::bind(layout, tech);
        let definitions = Definitions::new(layout, &binding, None);
        let (mut view, runs) =
            instantiate(layout, tech, &binding, &definitions, Default::default());
        let scopes = ScopeTable::build(
            &definitions,
            layout.top_items(),
            runs.iter().map(|&(elements, _)| elements),
            view.elements.bboxes(),
            bound.max_rule_range(),
        );
        let (conn, _) = check_connections(&view, tech, &bound, &scopes, 1);
        let labels: Vec<_> = (layout.labels().iter())
            .map(|l| (l, binding.layer(l.layer)))
            .collect();
        let (mut parts, _) = NetParts::build(&mut view, &bound, &conn.merges, &labels, &scopes, 1);
        parts.assemble(&view);
        InteractionInputs {
            view,
            parts,
            scopes,
            definitions,
            bound,
        }
    }

    /// The interaction stage as a check runs it: the scope table's plan.
    pub fn scope_driven(
        &self,
        tech: &Technology,
        options: &CheckOptions,
    ) -> (Vec<Violation>, InteractStats) {
        let (view, bound, scopes) = (&self.view, &self.bound, &self.scopes);
        let nets = self.parts.nets();
        let (found, stats, _) =
            check_interactions(view, tech, bound, nets, scopes, &self.definitions, options);
        (found, stats)
    }

    /// The direct-scan reference: every element against one index over
    /// all of them ([`check_interactions_among`] over every id), plus the
    /// multi-patterning verdict ([`check_same_mask`]), whose
    /// lines its `violations` counter includes, as the stage's does.
    pub fn direct_scan(
        &self,
        tech: &Technology,
        options: &CheckOptions,
    ) -> (Vec<Violation>, InteractStats) {
        let all: Vec<usize> = (0..self.view.elements.len()).collect();
        let (view, bound, nets) = (&self.view, &self.bound, self.parts.nets());
        let (mut found, mut stats) =
            check_interactions_among(view, tech, bound, nets, options, &all, None);
        found.extend(check_same_mask(view, tech, bound, options.metric));
        stats.violations = found.len() as u64;
        (found, stats)
    }
}

/// Runs every experiment, returning the combined report.
pub fn run_all(scale: Scale) -> String {
    let parts = vec![
        e1_error_regions(scale),
        e2_figure_pathologies(),
        e3_expand_shrink(),
        e4_width_spacing_pathologies(),
        e5_electrical_equivalence(),
        e6_device_dependent(),
        e7_contact_over_gate(),
        e8_accidental_transistors(),
        e9_pipeline_scaling(scale),
        e10_skeletal_connectivity(),
        e11_interaction_matrix(scale),
        e12_proximity_expand(scale),
        e13_relational_rule(),
        e14_self_sufficiency(),
        e15_composition_rules(),
        e21_service_load(scale),
    ];
    parts.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Scale = Scale { quick: true };

    #[test]
    fn e1_shows_flat_worse_than_diic() {
        let t = e1_error_regions(QUICK);
        assert!(t.contains("DIIC"), "{t}");
        assert!(t.contains("flat"));
    }

    #[test]
    fn e2_to_e15_all_run() {
        for (i, s) in [
            e2_figure_pathologies(),
            e3_expand_shrink(),
            e4_width_spacing_pathologies(),
            e5_electrical_equivalence(),
            e6_device_dependent(),
            e7_contact_over_gate(),
            e8_accidental_transistors(),
            e9_pipeline_scaling(QUICK),
            e10_skeletal_connectivity(),
            e11_interaction_matrix(QUICK),
            e12_proximity_expand(QUICK),
            e13_relational_rule(),
            e14_self_sufficiency(),
            e15_composition_rules(),
        ]
        .iter()
        .enumerate()
        {
            assert!(!s.is_empty(), "experiment {} empty", i + 2);
        }
    }

    #[test]
    fn e4_verdicts() {
        let t = e4_width_spacing_pathologies();
        assert!(t.contains("(orthogonal): 0 errors"), "{t}");
        assert!(t.contains("(Euclidean):  4 errors"), "{t}");
        assert!(t.contains("FALSE ERROR"), "{t}");
    }

    #[test]
    fn e5_verdicts() {
        let t = e5_electrical_equivalence();
        assert!(t.contains("DIIC (same-net suppressed): 0 errors"), "{t}");
        assert!(t.contains("no topology: 1 errors"), "{t}");
        assert!(t.contains("1 error(s) (override keeps the check)"), "{t}");
    }

    #[test]
    fn e6_verdicts() {
        let t = e6_device_dependent();
        assert!(t.contains("1 error(s) [expect 1]"), "{t}");
        assert!(t.contains("0 error(s) [expect 0"), "{t}");
    }

    #[test]
    fn e7_verdicts() {
        let t = e7_contact_over_gate();
        assert!(t.contains("DIIC contact-over-gate reports: 1"), "{t}");
        assert!(t.contains("flat contact-over-gate reports: 2"), "{t}");
    }

    #[test]
    fn e14_verdicts() {
        let t = e14_self_sufficiency();
        assert!(t.contains("0 violation(s) [expect 0"), "{t}");
    }
}
