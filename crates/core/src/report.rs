//! Report formatting, canonical ordering, and the Fig. 1 error-region
//! accounting.
//!
//! The paper's Fig. 1 partitions the world into: region 1 — real errors
//! **not** flagged (unchecked); region 2 — real errors flagged; region 3 —
//! flagged non-errors (false errors). Given a ground-truth ledger of
//! injected errors, [`account`] classifies a checker's output and computes
//! the false:real ratio ("the ratio of false to real errors can be 10 to 1
//! or higher").
//!
//! This module also owns the **canonical report order** the rest of the
//! crate leans on: [`canonical_sort`] (stage rank, then the violation's
//! total debug rendering) is the order every differential oracle
//! compares in and the form the incremental session caches its report
//! in, and [`merge_canonical`] is the linear splice that keeps report
//! patching O(kept + fresh) instead of a full re-sort per edit. Stage
//! ranks ([`stage_rank`] / [`STAGE_COUNT`]) size every per-stage array
//! in the crate, so a new [`CheckStage`] variant fails the build here
//! rather than panicking at the first out-of-bounds count.

use crate::violations::{CheckStage, Violation};
use diic_geom::Rect;
use std::collections::HashSet;
use std::fmt::Write as _;

/// One injected (ground-truth) error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedError {
    /// Where the error was injected (chip coordinates).
    pub location: Rect,
    /// Category tag that a matching violation must carry (see
    /// [`category_of`]).
    pub category: &'static str,
    /// Free-form description.
    pub description: String,
}

/// The Fig. 1 accounting result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErrorRegions {
    /// Region 2: injected errors that were flagged.
    pub real_flagged: usize,
    /// Region 1: injected errors that were missed.
    pub unchecked: usize,
    /// Region 3: flagged violations matching no injected error.
    pub false_errors: usize,
    /// Total violations reported.
    pub reported: usize,
    /// Total errors injected.
    pub injected: usize,
}

impl ErrorRegions {
    /// The false-to-real ratio (∞ when nothing real was flagged but false
    /// errors exist; 0 when nothing false).
    pub fn false_to_real_ratio(&self) -> f64 {
        if self.real_flagged == 0 {
            if self.false_errors == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.false_errors as f64 / self.real_flagged as f64
        }
    }

    /// Coverage: fraction of injected errors flagged.
    pub fn coverage(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.real_flagged as f64 / self.injected as f64
        }
    }
}

/// Number of report stages — the exclusive upper bound of
/// [`stage_rank`]. Size per-stage arrays (e.g.
/// [`CountingSink`](crate::CountingSink)) with this so a new
/// [`CheckStage`] variant breaks the build here instead of panicking at
/// the first out-of-bounds count.
pub const STAGE_COUNT: usize = 6;

/// The rank of a stage in report order — the order the standard pipeline
/// registers its stages, which is also the order [`format_report`]
/// groups by. Always below [`STAGE_COUNT`].
pub fn stage_rank(stage: CheckStage) -> usize {
    match stage {
        CheckStage::Elements => 0,
        CheckStage::PrimitiveSymbols => 1,
        CheckStage::Connections => 2,
        CheckStage::NetList => 3,
        CheckStage::Interactions => 4,
        CheckStage::Composition => 5,
    }
}

/// Sorts violations into the **canonical report order**: by stage rank,
/// then by the violation's full debug rendering (a total order over
/// kind, location, and context).
///
/// A pipeline run's natural order — step order, stable within each
/// step (see
/// [`DiagnosticSink::into_violations`](crate::DiagnosticSink::into_violations))
/// — is a refinement-compatible coarsening of this: canonical order only
/// reorders *within* a stage. The incremental checker keeps its cached
/// report canonical so that retracting and splicing violations lands in
/// exactly the order a canonicalized from-scratch run produces, making
/// "patched == full re-check" literal byte equality.
pub fn canonical_sort(violations: &mut [Violation]) {
    violations.sort_by_cached_key(|v| (stage_rank(v.stage), format!("{v:?}")));
}

/// The key [`canonical_sort`] orders by, exposed for merge-style
/// consumers.
pub fn canonical_key(v: &Violation) -> (usize, String) {
    (stage_rank(v.stage), format!("{v:?}"))
}

/// Merges two **already canonically sorted** violation lists into one
/// canonically sorted list — a linear splice instead of re-sorting the
/// concatenation.
///
/// This is the incremental session's report-patch path: the violations
/// it *keeps* from the cached report are a sorted subsequence by
/// construction, so only the fresh side pays a sort and the combined
/// list costs one merge. Kept-side keys are rendered **lazily** (each
/// at most once, and none at all past the last fresh insertion point),
/// so an edit that splices a handful of fresh violations into a large
/// cached report re-formats only the prefix it walks, not the whole
/// list. Ties (byte-identical violations) take the `kept` side first;
/// since equal keys mean equal debug renderings of equal-stage
/// violations — i.e. identical values — either choice yields the same
/// bytes as a full [`canonical_sort`].
pub fn merge_canonical(kept: Vec<Violation>, fresh: Vec<Violation>) -> Vec<Violation> {
    if kept.is_empty() {
        return fresh;
    }
    if fresh.is_empty() {
        return kept;
    }
    let kb: Vec<(usize, String)> = fresh.iter().map(canonical_key).collect();
    debug_assert!(kb.is_sorted(), "merge_canonical: fresh side not canonical");
    let mut out = Vec::with_capacity(kept.len() + fresh.len());
    let mut a = kept.into_iter().peekable();
    let mut a_key: Option<(usize, String)> = None; // key of a.peek(), rendered once
    let (mut b, mut j) = (fresh.into_iter(), 0usize);
    while j < kb.len() {
        let take_kept = match a.peek() {
            None => false,
            Some(v) => *a_key.get_or_insert_with(|| canonical_key(v)) <= kb[j],
        };
        if take_kept {
            // invariant: take_kept is only true when peek saw an item.
            out.push(a.next().expect("peeked"));
            a_key = None;
        } else {
            // invariant: j < kb.len() means the fresh iterator still
            // holds the item its precomputed key stands for.
            out.push(b.next().expect("fresh item behind key"));
            j += 1;
        }
    }
    out.extend(a);
    out
}

/// The category a violation belongs to, for ground-truth matching.
pub fn category_of(v: &Violation) -> &'static str {
    use crate::violations::ViolationKind::*;
    match &v.kind {
        Width { .. } => "width",
        Spacing { .. } => "spacing",
        IllegalConnection { .. } => "connection",
        ImpliedDevice { .. } => "implied-device",
        DeviceOnlyLayer { .. } => "device-only-layer",
        NonManhattan => "non-manhattan",
        UnknownLayer { .. } => "unknown-layer",
        UnknownDeviceType { .. } => "unknown-device",
        // The contact-over-gate class gets its own category: both the DIIC
        // archetype rule and the flat checker's mask-level rule detect it,
        // and it must not satisfy ground truth for other device rules.
        DeviceRule { rule, .. }
            if rule.contains("active gate") || rule.contains("contact over") =>
        {
            "contact-over-gate"
        }
        DeviceRule { .. } => "device-rule",
        TerminalOutsideDevice { .. } => "terminal",
        Erc { .. } => "erc",
        NetlistMismatch { .. } => "netlist",
        MaskOddCycle { .. } => "multi-patterning",
    }
}

/// Matches violations against injected errors by category and location
/// (inflated by `tolerance`), and computes the error regions.
///
/// A violation without a location can only match location-less ground
/// truth of the same category (ERC errors use a zero rect sentinel and
/// match any distance — electrical errors have no meaningful location).
pub fn account(
    violations: &[Violation],
    injected: &[InjectedError],
    tolerance: i64,
) -> ErrorRegions {
    let mut matched_injected: HashSet<usize> = HashSet::new();
    let mut false_errors = 0usize;
    for v in violations {
        let cat = category_of(v);
        let mut matched = false;
        for (idx, inj) in injected.iter().enumerate() {
            if inj.category != cat {
                continue;
            }
            let loc_ok = match (&v.location, inj.location.is_degenerate()) {
                (_, true) => true, // location-less ground truth (ERC)
                (Some(loc), false) => loc
                    .inflate(tolerance)
                    .map(|l| l.touches(&inj.location))
                    .unwrap_or(false),
                (None, false) => false,
            };
            if loc_ok {
                matched_injected.insert(idx);
                matched = true;
                // Keep scanning: one violation may witness several injected
                // errors at the same spot.
            }
        }
        if !matched {
            false_errors += 1;
        }
    }
    ErrorRegions {
        real_flagged: matched_injected.len(),
        unchecked: injected.len() - matched_injected.len(),
        false_errors,
        reported: violations.len(),
        injected: injected.len(),
    }
}

/// Formats a human-readable violation report grouped by stage.
pub fn format_report(violations: &[Violation]) -> String {
    let mut s = String::new();
    let stages = [
        CheckStage::Elements,
        CheckStage::PrimitiveSymbols,
        CheckStage::Connections,
        CheckStage::NetList,
        CheckStage::Interactions,
        CheckStage::Composition,
    ];
    let _ = writeln!(s, "{} violation(s)", violations.len());
    for stage in stages {
        let of_stage: Vec<&Violation> = violations.iter().filter(|v| v.stage == stage).collect();
        if of_stage.is_empty() {
            continue;
        }
        let _ = writeln!(s, "== {} ({})", stage, of_stage.len());
        for v in of_stage {
            let _ = writeln!(s, "   {v}");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violations::ViolationKind;

    fn width_violation(x: i64) -> Violation {
        Violation {
            stage: CheckStage::Elements,
            kind: ViolationKind::Width {
                layer: "metal".into(),
                measured: 700,
                required: 750,
            },
            location: Some(Rect::new(x, 0, x + 100, 100)),
            context: String::new(),
        }
    }

    #[test]
    fn perfect_checker_accounting() {
        let injected = vec![InjectedError {
            location: Rect::new(0, 0, 100, 100),
            category: "width",
            description: "narrowed wire".into(),
        }];
        let r = account(&[width_violation(0)], &injected, 100);
        assert_eq!(r.real_flagged, 1);
        assert_eq!(r.unchecked, 0);
        assert_eq!(r.false_errors, 0);
        assert_eq!(r.false_to_real_ratio(), 0.0);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn false_and_unchecked_errors() {
        let injected = vec![InjectedError {
            location: Rect::new(0, 0, 100, 100),
            category: "spacing",
            description: "nudged wire".into(),
        }];
        // Wrong category and far away: one false error, one unchecked.
        let r = account(&[width_violation(100_000)], &injected, 100);
        assert_eq!(r.real_flagged, 0);
        assert_eq!(r.unchecked, 1);
        assert_eq!(r.false_errors, 1);
        assert!(r.false_to_real_ratio().is_infinite());
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn location_tolerance() {
        let injected = vec![InjectedError {
            location: Rect::new(300, 0, 400, 100),
            category: "width",
            description: "near miss".into(),
        }];
        // 200 away from the violation bbox: tolerance 250 matches,
        // tolerance 150 does not.
        let r = account(&[width_violation(0)], &injected, 250);
        assert_eq!(r.real_flagged, 1);
        let strict = account(&[width_violation(0)], &injected, 150);
        assert_eq!(strict.real_flagged, 0);
    }

    #[test]
    fn erc_ground_truth_matches_without_location() {
        let injected = vec![InjectedError {
            location: Rect::new(0, 0, 0, 0),
            category: "erc",
            description: "power-ground short".into(),
        }];
        let v = Violation {
            stage: CheckStage::Composition,
            kind: ViolationKind::Erc {
                rule: diic_netlist::ErcRule::PowerGroundShort,
                detail: "net x".into(),
            },
            location: None,
            context: "x".into(),
        };
        let r = account(&[v], &injected, 0);
        assert_eq!(r.real_flagged, 1);
        assert_eq!(r.false_errors, 0);
    }

    #[test]
    fn merge_canonical_equals_full_sort() {
        // Interleaved stages, duplicate violations, empty sides: the
        // linear merge must reproduce canonical_sort of the
        // concatenation byte for byte.
        let spacing = |x: i64| Violation {
            stage: CheckStage::Interactions,
            kind: ViolationKind::Spacing {
                layer_a: "metal".into(),
                layer_b: "metal".into(),
                measured: 500,
                required: 750,
                same_net: false,
            },
            location: Some(Rect::new(x, 0, x + 10, 10)),
            context: String::new(),
        };
        let cases: Vec<(Vec<Violation>, Vec<Violation>)> = vec![
            (vec![], vec![]),
            (vec![width_violation(0)], vec![]),
            (vec![], vec![spacing(5)]),
            (
                vec![width_violation(0), width_violation(50), spacing(10)],
                vec![width_violation(20), spacing(0), spacing(10)],
            ),
        ];
        for (mut kept, mut fresh) in cases {
            canonical_sort(&mut kept);
            canonical_sort(&mut fresh);
            let mut expect = kept.clone();
            expect.extend(fresh.iter().cloned());
            canonical_sort(&mut expect);
            assert_eq!(merge_canonical(kept, fresh), expect);
        }
    }

    #[test]
    fn report_formatting() {
        let text = format_report(&[width_violation(0)]);
        assert!(text.contains("1 violation"));
        assert!(text.contains("== elements"));
    }
}
