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

    /// A grid built once, and the churnable index over the same
    /// rectangles inserted in order, answer what a scan of the
    /// rectangles does: the positions, ascending, of what touches a box
    /// or holds a point.
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
        // The cells stay the caller's size; the dense array is bounded by
        // the items, and past that bound the grid keys its occupied cells.
        // Either way it files at most 16 entries per item.
        prop_assert_eq!(flat.cell_size(), cell);
        if !flat.is_keyed() {
            prop_assert!(flat.cell_count() <= (4 * rects.len()).max(64), "{} cells", flat.cell_count());
        }
        prop_assert!(flat.entry_count() <= 16 * rects.len().max(64), "{} entries", flat.entry_count());
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
            prop_assert_eq!(grid.touches_any(q), !want.is_empty());
            for p in [Point::new(q.x1, q.y1), Point::new(q.x2, q.y1), Point::new(q.x1, q.y2)] {
                let at: Vec<u32> = flat.at(p).collect();
                let holding = (0..rects.len() as u32).filter(|&k| rects[k as usize].contains_point(p));
                prop_assert_eq!(at, holding.collect::<Vec<_>>(), "{:?}", p);
            }
        }
    }

    /// Two clusters of equal size, far apart: the grid answers what a
    /// scan does, and a query inside either cluster examines exactly the
    /// candidates it examines in a grid over the near cluster alone —
    /// the other cluster neither coarsens the cells nor shares one.
    #[test]
    fn far_apart_clusters_examine_only_their_own_cells(
        boxes in proptest::collection::vec((-60i64..60, -60i64..60, 0i64..90, 0i64..90), 1..40),
        far in (1i64 << 20)..(MAX_COORD / 2),
        queries in proptest::collection::vec((-70i64..70, -70i64..70, 0i64..200), 1..10),
        // At least 40 wide: a box then covers at most 16 cells, so the
        // grid files every box (it files up to 16 entries per item before
        // it puts its longest on the side list every query examines).
        cell in 40i64..200,
    ) {
        let near: Vec<Rect> = (boxes.iter())
            .map(|&(x, y, w, h)| Rect::new(x * 10, y * 10, x * 10 + w, y * 10 + h))
            .collect();
        // A whole number of cells away, so both clusters sit on the cells alike.
        let far = far - far % cell;
        let moved = |r: &Rect, d: i64| Rect::new(r.x1 + d, r.y1 + d, r.x2 + d, r.y2 + d);
        let both: Vec<Rect> = (near.iter().copied()).chain(near.iter().map(|r| moved(r, far))).collect();
        let alone = FlatGrid::new(near.clone(), cell);
        let flat = FlatGrid::new(both.clone(), cell);
        prop_assert_eq!(flat.cell_size(), cell);
        let bounds = near.iter().skip(1).fold(near[0], |b, r| b.bounding_union(r));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for &(x, y, side) in &queries {
            // Inside the near cluster's bounding box, so neither grid clamps it.
            let (x1, y1) = ((x * 10).clamp(bounds.x1, bounds.x2), (y * 10).clamp(bounds.y1, bounds.y2));
            let q = Rect::new(x1, y1, (x1 + side).min(bounds.x2), (y1 + side).min(bounds.y2));
            let alone_examined = alone.query_into(&q, &mut want);
            let key_side = |lo: i64, hi: i64| (hi.div_euclid(cell) - lo.div_euclid(cell) + 1) as usize;
            let walks_cells = key_side(q.x1, q.x2) * key_side(q.y1, q.y2) <= near.len();
            for shift in [0, far] {
                let q = moved(&q, shift);
                let examined = flat.query_into(&q, &mut got);
                let touching = (0..both.len() as u32).filter(|&k| both[k as usize].touches(&q));
                prop_assert_eq!(&got, &touching.collect::<Vec<_>>(), "{:?}", q);
                if walks_cells {
                    prop_assert_eq!(examined, alone_examined, "{:?}", q);
                }
            }
        }
    }

    /// Parallel rails one cell apart, each as long as there are rails:
    /// every rail is filed under fewer cells than there are items, yet
    /// all of them under n² — so the grid files the rails it can within
    /// 16 entries per item, puts the rest on the side list, and answers
    /// what a scan does.
    #[test]
    fn spread_rails_file_a_bounded_number_of_entries(
        n in 512usize..2048,
        cell in 1i64..50,
        queries in proptest::collection::vec((0usize..2048, 0usize..2048, 0i64..3), 1..10),
    ) {
        let rail = |i: usize| {
            let y = 2 * i as i64 * cell;
            Rect::new(0, y, (n as i64 - 1) * cell, y)
        };
        let rails: Vec<Rect> = (0..n).map(rail).collect();
        let flat = FlatGrid::new(rails.clone(), cell);
        prop_assert!(flat.entry_count() <= 16 * n, "{} entries", flat.entry_count());
        let mut got = Vec::new();
        for &(i, at, cells) in &queries {
            let (x, y) = ((at % n) as i64 * cell, 2 * (i % n) as i64 * cell);
            let q = Rect::new(x, y - cells * cell, x + cells * cell, y + cells * cell);
            flat.query_into(&q, &mut got);
            let touching = (0..n as u32).filter(|&k| rails[k as usize].touches(&q));
            prop_assert_eq!(&got, &touching.collect::<Vec<_>>(), "{:?}", q);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The churnable index under random inserts, removes and compactions,
    /// over up to about 2 000 slots — across its rebuild threshold many
    /// times, with range-wide boxes and clusters 2⁵² apart — answers what
    /// a scan of its live items does after every step: the handles,
    /// ascending, and payloads of what touches a box, whether anything
    /// does, and the item behind a handle. Compaction's remap keeps the
    /// handles in order.
    #[test]
    fn grid_index_churn_answers_what_a_scan_of_the_live_items_does(
        ops in proptest::collection::vec((0u8..16, 0usize..4096, arb_index_rect(), arb_index_rect()), 1000..3000),
        cell in 1i64..200,
    ) {
        let mut grid = GridIndex::new(cell);
        // The live items as (handle, rectangle, payload), ascending by handle.
        let mut live: Vec<(u32, Rect, usize)> = Vec::new();
        for (step, &(kind, pick, r, q)) in ops.iter().enumerate() {
            match kind {
                0 if pick % 64 == 0 => {
                    let map = grid.compact();
                    for item in &mut live {
                        item.0 = map[item.0 as usize].expect("a live handle survives compaction");
                    }
                    prop_assert!(live.windows(2).all(|w| w[0].0 < w[1].0));
                    prop_assert_eq!(grid.tombstones(), 0);
                }
                1..=5 if !live.is_empty() => {
                    let (h, _, v) = live.remove(pick % live.len());
                    prop_assert_eq!(grid.remove(h), Some(v));
                    prop_assert_eq!(grid.get(h), None);
                }
                _ => live.push((grid.insert(r, step), r, step)),
            }
            prop_assert_eq!(grid.len(), live.len());
            for query in [q, r] {
                let touching = live.iter().filter(|(_, b, _)| b.touches(&query));
                let (handles, payloads): (Vec<u32>, Vec<usize>) = touching.map(|&(h, _, v)| (h, v)).unzip();
                prop_assert_eq!(grid.query_handles(&query), handles.clone(), "step {}: {:?}", step, query);
                prop_assert_eq!(grid.query(&query).into_iter().copied().collect::<Vec<_>>(), payloads);
                prop_assert_eq!(grid.touches_any(&query), !handles.is_empty());
            }
            if let Some(&(h, b, v)) = live.get(pick % live.len().max(1)) {
                prop_assert_eq!(grid.get(h), Some((&b, &v)));
            }
        }
    }
}
