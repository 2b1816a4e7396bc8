//! Minimum-spacing checking.
//!
//! The DIIC pipeline checks spacing as an exact distance predicate between
//! elements (L2 — the physical intent — or L∞). The traditional technique,
//! *expand-check-overlap* (expand both shapes by half the rule and test for
//! overlap), is provided as the baseline: with orthogonal expansion it is
//! equivalent to an L∞ predicate, which over-flags diagonally adjacent
//! corners at true (Euclidean) distance up to `s·√2` — one of the Fig. 4
//! pathologies.

use crate::size::SizingMode;
use crate::width::isqrt;
use crate::{Coord, FlatGrid, Polygon, Rect, Region};

/// A minimum-spacing violation marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpacingViolation {
    /// Bounding box of the two offending features' gap neighbourhood.
    pub location: Rect,
    /// Measured distance (rounded down for non-integral Euclidean values).
    pub measured: Coord,
    /// The required minimum spacing.
    pub required: Coord,
}

impl std::fmt::Display for SpacingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spacing {} < required {} at {}",
            self.measured, self.required, self.location
        )
    }
}

/// Exact spacing check between two rectangles.
///
/// Touching or overlapping rectangles are **not** spacing violations — they
/// are either connections (same layer, same net) or handled by connection /
/// short checks; spacing applies to disjoint features.
pub fn check_rect_spacing(
    a: &Rect,
    b: &Rect,
    min_spacing: Coord,
    mode: SizingMode,
) -> Option<SpacingViolation> {
    if a.touches(b) {
        return None;
    }
    let (measured, violated) = match mode {
        SizingMode::Euclidean => {
            let d2 = a.dist_sq(b);
            let s2 = min_spacing as i128 * min_spacing as i128;
            (isqrt(d2), d2 < s2)
        }
        SizingMode::Orthogonal => {
            let d = a.dist_linf(b);
            (d, d < min_spacing)
        }
    };
    if violated {
        Some(SpacingViolation {
            location: gap_box(a, b),
            measured,
            required: min_spacing,
        })
    } else {
        None
    }
}

/// Spacing check between two regions (rect sets), using a grid index to
/// avoid the quadratic pair scan. Returns one violation per offending rect
/// pair.
pub fn check_region_spacing(
    a: &Region,
    b: &Region,
    min_spacing: Coord,
    mode: SizingMode,
) -> Vec<SpacingViolation> {
    let mut out = Vec::new();
    if a.is_empty() || b.is_empty() {
        return out;
    }
    let index = FlatGrid::new(b.rects().to_vec(), min_spacing.max(1) * 4);
    let mut hits = Vec::new();
    for ra in a.rects() {
        let query = ra
            .inflate(min_spacing)
            .expect("inflating by positive amount cannot fail");
        index.query_into(&query, &mut hits);
        for &ib in &hits {
            let rb = b.rects()[ib as usize];
            if let Some(v) = check_rect_spacing(ra, &rb, min_spacing, mode) {
                out.push(v);
            }
        }
    }
    out
}

/// Exact polygon-to-polygon spacing via edge-pair distances.
pub fn check_polygon_spacing(
    a: &Polygon,
    b: &Polygon,
    min_spacing: Coord,
    mode: SizingMode,
) -> Option<SpacingViolation> {
    let s2 = min_spacing as i128 * min_spacing as i128;
    let mut best: Option<i128> = None;
    let mut loc = None;
    for ea in a.edges() {
        for eb in b.edges() {
            let d2 = match mode {
                SizingMode::Euclidean => ea.dist_sq(&eb),
                SizingMode::Orthogonal => {
                    // L∞ distance between segments: approximate via the
                    // bounding boxes' L∞ gap, exact for axis-parallel edges.
                    let d = ea.bbox().dist_linf(&eb.bbox());
                    d as i128 * d as i128
                }
            };
            if best.is_none_or(|bst| d2 < bst) {
                best = Some(d2);
                loc = Some(ea.bbox().bounding_union(&eb.bbox()));
            }
        }
    }
    let d2 = best?;
    if d2 > 0 && d2 < s2 {
        Some(SpacingViolation {
            location: loc.expect("location recorded with best distance"),
            measured: isqrt(d2),
            required: min_spacing,
        })
    } else {
        None
    }
}

/// The *expand-check-overlap* baseline: expand both regions by
/// `min_spacing / 2` and report any overlap of the expansions. With
/// [`SizingMode::Orthogonal`] this equals an L∞ distance predicate; the
/// Euclidean variant equals the exact L2 predicate (for regions made of
/// rectangles).
pub fn expand_check_overlap(
    a: &Region,
    b: &Region,
    min_spacing: Coord,
    mode: SizingMode,
) -> Vec<SpacingViolation> {
    // Equivalent distance predicate — materialising the expansion and
    // Boolean-intersecting gives the same verdicts but loses the measured
    // distance, so we evaluate the predicate directly.
    check_region_spacing(a, b, min_spacing, mode)
}

/// The bounding box of the closest-approach zone between two rectangles:
/// the bounding union clipped to the gap (or to the overlap band when the
/// rectangles intersect). Every point of the marker lies within the pair's
/// L∞ gap distance of **both** rectangles — the tightness the incremental
/// checker's dirty-halo anchoring relies on (a marker can only touch a
/// halo if both offending features are within rule reach of it).
pub fn gap_box(a: &Rect, b: &Rect) -> Rect {
    let union = a.bounding_union(b);
    let x1 = a.x2.min(b.x2).min(union.x2).max(union.x1);
    let x2 = a.x1.max(b.x1).max(union.x1).min(union.x2);
    let y1 = a.y2.min(b.y2).min(union.y2).max(union.y1);
    let y2 = a.y1.max(b.y1).max(union.y1).min(union.y2);
    Rect::new(x1.min(x2), y1.min(y2), x1.max(x2), y1.max(y2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Point;

    const S: Coord = 20;

    #[test]
    fn far_apart_passes() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(40, 0, 50, 10);
        assert!(check_rect_spacing(&a, &b, S, SizingMode::Euclidean).is_none());
        assert!(check_rect_spacing(&a, &b, S, SizingMode::Orthogonal).is_none());
    }

    #[test]
    fn too_close_fails_both_modes() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(25, 0, 35, 10);
        let v = check_rect_spacing(&a, &b, S, SizingMode::Euclidean).unwrap();
        assert_eq!(v.measured, 15);
        assert!(check_rect_spacing(&a, &b, S, SizingMode::Orthogonal).is_some());
    }

    #[test]
    fn touching_is_not_a_spacing_violation() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10);
        assert!(check_rect_spacing(&a, &b, S, SizingMode::Euclidean).is_none());
        let c = Rect::new(5, 5, 15, 15);
        assert!(check_rect_spacing(&a, &c, S, SizingMode::Euclidean).is_none());
    }

    #[test]
    fn fig4_corner_pathology_orthogonal_overflags() {
        // Diagonal corners: dx = dy = 15, true L2 distance = 15√2 ≈ 21.2 > 20
        // (legal), but L∞ = 15 < 20 — the orthogonal expand-check-overlap
        // baseline reports a false error here.
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(25, 25, 35, 35);
        assert!(check_rect_spacing(&a, &b, S, SizingMode::Euclidean).is_none());
        let false_err = check_rect_spacing(&a, &b, S, SizingMode::Orthogonal);
        assert!(false_err.is_some());
        assert_eq!(false_err.unwrap().measured, 15);
    }

    #[test]
    fn corner_distance_exact_boundary() {
        // dx=dy=s/√2 rounded: dist² = 2·14² = 392 < 400 → violation;
        // dx=dy=15: 450 >= 400 → pass.
        let a = Rect::new(0, 0, 10, 10);
        let close = Rect::new(24, 24, 30, 30);
        assert!(check_rect_spacing(&a, &close, S, SizingMode::Euclidean).is_some());
        let edge = Rect::new(25, 25, 30, 30);
        assert!(check_rect_spacing(&a, &edge, S, SizingMode::Euclidean).is_none());
    }

    #[test]
    fn region_spacing_finds_all_pairs() {
        let a = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(0, 50, 10, 60)]);
        let b = Region::from_rects([Rect::new(15, 0, 25, 10), Rect::new(15, 50, 25, 60)]);
        let v = check_region_spacing(&a, &b, S, SizingMode::Euclidean);
        assert_eq!(v.len(), 2);
        for violation in &v {
            assert_eq!(violation.measured, 5);
        }
    }

    #[test]
    fn region_spacing_empty_inputs() {
        let a = Region::from_rect(Rect::new(0, 0, 10, 10));
        assert!(check_region_spacing(&a, &Region::empty(), S, SizingMode::Euclidean).is_empty());
        assert!(check_region_spacing(&Region::empty(), &a, S, SizingMode::Euclidean).is_empty());
    }

    #[test]
    fn polygon_spacing_diagonal_edges() {
        let a = Polygon::new(vec![Point::new(0, 0), Point::new(30, 0), Point::new(0, 30)]).unwrap();
        let b = Polygon::new(vec![
            Point::new(40, 40),
            Point::new(70, 40),
            Point::new(70, 70),
        ])
        .unwrap();
        // Hypotenuse of a faces corner of b: distance from (40,40) to line
        // x+y=30 is 50/√2 ≈ 35.4 — passes at 20, fails at 40.
        assert!(check_polygon_spacing(&a, &b, 20, SizingMode::Euclidean).is_none());
        let v = check_polygon_spacing(&a, &b, 40, SizingMode::Euclidean).unwrap();
        assert_eq!(v.measured, 35);
    }

    #[test]
    fn expand_check_overlap_matches_distance_predicate() {
        let a = Region::from_rect(Rect::new(0, 0, 10, 10));
        let b = Region::from_rect(Rect::new(25, 25, 35, 35));
        assert!(expand_check_overlap(&a, &b, S, SizingMode::Euclidean).is_empty());
        assert_eq!(
            expand_check_overlap(&a, &b, S, SizingMode::Orthogonal).len(),
            1
        );
    }
}
