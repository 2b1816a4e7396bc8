//! Property-based tests for the geometry kernel's core invariants.

use diic_geom::boolean::{boolean_op, BoolOp};
use diic_geom::size::{closing, expand, opening, shrink};
use diic_geom::skeleton::Skeleton;
use diic_geom::width::shrink_expand_compare;
use diic_geom::{FlatGrid, GridIndex, Point, Rect, Region, MAX_COORD};
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-200i64..200, -200i64..200, 1i64..150, 1i64..150)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// Rectangles for the spatial-index properties: boxes and degenerate
/// points in one of three clusters — around the origin, or near either
/// end of the coordinate range, far enough apart to force a flat grid's
/// cells to grow — rails across the whole range, and boxes spanning it.
fn arb_index_rect() -> impl Strategy<Value = Rect> {
    let m = MAX_COORD;
    (0u8..16, 0u8..3, -60i64..60, -60i64..60, 0i64..90, 0i64..90).prop_map(
        move |(kind, cluster, x, y, w, h)| {
            let at = [0, m - 1000, -m][cluster as usize];
            let (x, y) = (at + x * 10, y * 10);
            match kind {
                0 => Rect::new(-m, -m, m, m),
                1 => Rect::new(-m, y, m, y + h),
                2 | 3 => Rect::new(x, y, x, y),
                _ => Rect::new(x, y, (x + w).min(m), y + h),
            }
        },
    )
}

fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect>> {
    proptest::collection::vec(arb_rect(), 0..max)
}

/// A rectangle guaranteed to satisfy a 20-unit minimum width rule.
fn arb_legal_rect() -> impl Strategy<Value = Rect> {
    (-200i64..200, -200i64..200, 20i64..150, 20i64..150)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn brute_area(rects: &[Rect]) -> i128 {
    // Sample-counting on the integer grid would be too slow; instead use
    // coordinate compression over both sets of edges.
    let mut xs: Vec<i64> = rects.iter().flat_map(|r| [r.x1, r.x2]).collect();
    let mut ys: Vec<i64> = rects.iter().flat_map(|r| [r.y1, r.y2]).collect();
    xs.sort_unstable();
    xs.dedup();
    ys.sort_unstable();
    ys.dedup();
    let mut total: i128 = 0;
    for wx in xs.windows(2) {
        for wy in ys.windows(2) {
            // Coordinate compression guarantees each cell is entirely inside
            // or outside every rect, so interior overlap decides coverage.
            let cell = Rect::new(wx[0], wy[0], wx[1], wy[1]);
            if rects.iter().any(|r| r.overlaps(&cell)) {
                total += cell.area();
            }
        }
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_area_matches_brute_force(rects in arb_rects(8)) {
        let u = boolean_op(&rects, &[], BoolOp::Union);
        let area: i128 = u.iter().map(Rect::area).sum();
        prop_assert_eq!(area, brute_area(&rects));
    }

    #[test]
    fn boolean_outputs_disjoint(a in arb_rects(6), b in arb_rects(6)) {
        for op in [BoolOp::Union, BoolOp::Intersection, BoolOp::Difference, BoolOp::Xor] {
            let out = boolean_op(&a, &b, op);
            for (i, r1) in out.iter().enumerate() {
                for r2 in out.iter().skip(i + 1) {
                    prop_assert!(!r1.overlaps(r2), "{:?} output overlaps: {} vs {}", op, r1, r2);
                }
            }
        }
    }

    #[test]
    fn inclusion_exclusion(a in arb_rects(6), b in arb_rects(6)) {
        let ra = Region::from_rects(a);
        let rb = Region::from_rects(b);
        let union = ra.union(&rb);
        let inter = ra.intersection(&rb);
        prop_assert_eq!(union.area() + inter.area(), ra.area() + rb.area());
        let xor = ra.xor(&rb);
        prop_assert_eq!(xor.area(), union.area() - inter.area());
        let diff = ra.difference(&rb);
        prop_assert_eq!(diff.area(), ra.area() - inter.area());
    }

    #[test]
    fn union_commutative_and_idempotent(a in arb_rects(6), b in arb_rects(6)) {
        let ra = Region::from_rects(a);
        let rb = Region::from_rects(b);
        prop_assert_eq!(ra.union(&rb).area(), rb.union(&ra).area());
        prop_assert_eq!(ra.union(&ra).area(), ra.area());
    }

    #[test]
    fn de_morgan_on_bounded_universe(a in arb_rects(5), b in arb_rects(5)) {
        let ra = Region::from_rects(a);
        let rb = Region::from_rects(b);
        let u = Region::from_rect(Rect::new(-500, -500, 500, 500));
        // U \ (A ∪ B) == (U \ A) ∩ (U \ B)
        let lhs = u.difference(&ra.union(&rb));
        let rhs = u.difference(&ra).intersection(&u.difference(&rb));
        prop_assert_eq!(lhs.area(), rhs.area());
        prop_assert!(lhs.xor(&rhs).is_empty());
    }

    #[test]
    fn opening_shrinks_closing_grows(rects in arb_rects(6), d in 1i64..30) {
        let r = Region::from_rects(rects);
        let opened = opening(&r, d).unwrap();
        let closed = closing(&r, d).unwrap();
        // opening(A) ⊆ A ⊆ closing(A)
        prop_assert!(opened.difference(&r).is_empty());
        prop_assert!(r.difference(&closed).is_empty());
    }

    #[test]
    fn expand_shrink_adjoint(rects in arb_rects(5), d in 1i64..30) {
        let r = Region::from_rects(rects);
        // shrink(expand(A, d), d) ⊇ A and expand(shrink(A, d), d) ⊆ A.
        let es = shrink(&expand(&r, d).unwrap(), d).unwrap();
        prop_assert!(r.difference(&es).is_empty());
        let se = expand(&shrink(&r, d).unwrap(), d).unwrap();
        prop_assert!(se.difference(&r).is_empty());
    }

    #[test]
    fn expand_area_monotone(rects in arb_rects(5), d in 0i64..30) {
        let r = Region::from_rects(rects);
        let e = expand(&r, d).unwrap();
        prop_assert!(e.area() >= r.area());
        prop_assert!(r.difference(&e).is_empty());
    }

    /// The paper's skeletal-connectivity theorem: if two elements are each of
    /// legal width and are skeletally connected, their union is of legal
    /// width (no sub-width area found by the exact orthogonal SEC check).
    #[test]
    fn skeleton_theorem_union_is_legal_width(a in arb_legal_rect(), b in arb_legal_rect()) {
        const MIN_W: i64 = 20;
        let sa = Skeleton::of_rect(&a, MIN_W / 2).unwrap();
        let sb = Skeleton::of_rect(&b, MIN_W / 2).unwrap();
        if sa.connected_to(&sb) {
            let union = Region::from_rects([a, b]);
            let violations = shrink_expand_compare(&union, MIN_W);
            prop_assert!(
                violations.is_empty(),
                "connected legal rects {} and {} produced sub-width union: {:?}",
                a, b, violations
            );
        }
    }

    /// The churnable grid answers what a scan of the rectangles does, and
    /// a grid built once answers exactly what the churnable one does over
    /// the same rectangles inserted in order: the positions, ascending,
    /// of what touches a box or holds a point.
    #[test]
    fn grid_indexes_match_brute_force_and_each_other(
        rects in proptest::collection::vec(arb_index_rect(), 0..60),
        copies in proptest::collection::vec(0usize..60, 0..6),
        queries in proptest::collection::vec(arb_index_rect(), 1..10),
        cell in 1i64..200,
    ) {
        let mut rects = rects;
        // Duplicates: some rectangles again, later in the list.
        for k in copies {
            if let Some(&r) = rects.get(k) {
                rects.push(r);
            }
        }
        let flat = FlatGrid::new(rects.clone(), cell);
        let mut grid = GridIndex::new(cell);
        for (k, r) in rects.iter().enumerate() {
            grid.insert(*r, k as u32);
        }
        prop_assert!(flat.cell_count() <= (4 * rects.len()).max(64), "{} cells", flat.cell_count());
        prop_assert!(flat.cell_size() >= cell);
        // Each query as drawn, and boxes of one to a few of the grid's
        // own cells around its corner: a few cells each, so the grid
        // walks them rather than scanning every rectangle.
        let c = flat.cell_size();
        let around = |q: &Rect, half: i64| {
            let (x, y) = (q.x1.clamp(-MAX_COORD, MAX_COORD), q.y1.clamp(-MAX_COORD, MAX_COORD));
            Rect::new(x - half, y - half, x + half, y + half)
        };
        let probes = queries.iter().flat_map(|q| [*q, around(q, c / 2), around(q, c), around(q, 2 * c)]);
        let mut got = vec![u32::MAX];
        for q in &probes.collect::<Vec<_>>() {
            let want = grid.query_handles(q);
            let touching = (0..rects.len() as u32).filter(|&k| rects[k as usize].touches(q));
            prop_assert_eq!(&want, &touching.collect::<Vec<_>>(), "{:?}", q);
            flat.query_into(q, &mut got);
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(&got, &want, "{:?}", q);
            prop_assert_eq!(flat.touches_any(q), !want.is_empty());
            for p in [Point::new(q.x1, q.y1), Point::new(q.x2, q.y1), Point::new(q.x1, q.y2)] {
                let at: Vec<u32> = flat.at(p).collect();
                let want: Vec<u32> = grid.at(p).copied().collect();
                prop_assert_eq!(at, want, "{:?}", p);
            }
        }
    }

    #[test]
    fn region_components_partition_area(rects in arb_rects(8)) {
        let r = Region::from_rects(rects);
        let comps = r.components();
        let total: i128 = comps.iter().map(Region::area).sum();
        prop_assert_eq!(total, r.area());
    }

    #[test]
    fn rect_distance_symmetry_and_triangle(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
        prop_assert_eq!(a.dist_linf(&b), b.dist_linf(&a));
        // L∞ <= L2 <= L∞·√2 (squared: linf² <= l2² <= 2·linf²).
        let linf = a.dist_linf(&b) as i128;
        let l2 = a.dist_sq(&b);
        prop_assert!(linf * linf <= l2);
        prop_assert!(l2 <= 2 * linf * linf);
    }

    #[test]
    fn point_in_region_consistent_with_rects(rects in arb_rects(6), x in -300i64..300, y in -300i64..300) {
        let p = Point::new(x, y);
        let r = Region::from_rects(rects.clone());
        // Region containment implies some input rect contains it, and
        // strict containment in an input rect implies region containment.
        if rects.iter().any(|rr| rr.contains_point_strict(p)) {
            prop_assert!(r.contains_point(p));
        }
        if r.contains_point(p) {
            prop_assert!(rects.iter().any(|rr| rr.contains_point(p)));
        }
    }
}
