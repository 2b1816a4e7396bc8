//! Regions: canonical sets of disjoint rectangles with Boolean algebra.

use crate::boolean::{boolean_op, BoolOp};
use crate::{Coord, FlatGrid, GeomError, Point, Polygon, Rect, Wire};

/// A (possibly disconnected, possibly hole-y) rectilinear area, stored as a
/// normalised list of disjoint axis-aligned rectangles.
///
/// `Region` is a *measure-theoretic* area: zero-area rectangles vanish and
/// two regions that merely touch have an empty intersection. Touch/abutment
/// predicates for connectivity live on [`Rect`] and in
/// [`crate::skeleton`].
///
/// # Example
///
/// ```
/// use diic_geom::{Rect, Region};
/// let plus = Region::from_rects([
///     Rect::new(0, 10, 30, 20),
///     Rect::new(10, 0, 20, 30),
/// ]);
/// assert_eq!(plus.area(), 500);
/// assert!(plus.contains_point(diic_geom::Point::new(15, 15)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Region {
    rects: Vec<Rect>,
}

impl Region {
    /// The empty region.
    pub fn empty() -> Self {
        Region { rects: Vec::new() }
    }

    /// A region covering a single rectangle.
    pub fn from_rect(r: Rect) -> Self {
        if r.is_degenerate() {
            Region::empty()
        } else {
            Region { rects: vec![r] }
        }
    }

    /// A region covering the union of arbitrary (possibly overlapping)
    /// rectangles.
    pub fn from_rects<I: IntoIterator<Item = Rect>>(rects: I) -> Self {
        let raw: Vec<Rect> = rects.into_iter().collect();
        Region {
            rects: boolean_op(&raw, &[], BoolOp::Union),
        }
    }

    /// A region covering a rectilinear polygon.
    ///
    /// # Errors
    ///
    /// [`GeomError::NotRectilinear`] if the polygon has non-axis-parallel
    /// edges.
    pub fn from_polygon(poly: &Polygon) -> Result<Self, GeomError> {
        Ok(Region::from_rects(poly.to_rects()?))
    }

    /// A region covering a Manhattan wire.
    pub fn from_wire(wire: &Wire) -> Self {
        Region::from_rects(wire.to_rects())
    }

    /// The disjoint rectangles of the region.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of rectangles in the canonical decomposition.
    pub fn rect_count(&self) -> usize {
        self.rects.len()
    }

    /// True if the region covers no area.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Total covered area.
    pub fn area(&self) -> i128 {
        self.rects.iter().map(Rect::area).sum()
    }

    /// Bounding rectangle, or `None` if empty.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.rects.iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.bounding_union(r)))
    }

    /// True if `p` is inside or on the boundary of some rectangle.
    pub fn contains_point(&self, p: Point) -> bool {
        self.rects.iter().any(|r| r.contains_point(p))
    }

    /// Union with another region.
    pub fn union(&self, other: &Region) -> Region {
        Region {
            rects: boolean_op(&self.rects, &other.rects, BoolOp::Union),
        }
    }

    /// Intersection with another region.
    pub fn intersection(&self, other: &Region) -> Region {
        Region {
            rects: boolean_op(&self.rects, &other.rects, BoolOp::Intersection),
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Region) -> Region {
        Region {
            rects: boolean_op(&self.rects, &other.rects, BoolOp::Difference),
        }
    }

    /// Symmetric difference.
    pub fn xor(&self, other: &Region) -> Region {
        Region {
            rects: boolean_op(&self.rects, &other.rects, BoolOp::Xor),
        }
    }

    /// True if the regions share interior area.
    pub fn overlaps(&self, other: &Region) -> bool {
        // Cheap bbox rejection, then rect-pair test (regions are usually
        // small); fall back to a full intersection only when needed.
        match (self.bbox(), other.bbox()) {
            (Some(a), Some(b)) if a.overlaps(&b) => {}
            _ => return false,
        }
        self.rects
            .iter()
            .any(|ra| other.rects.iter().any(|rb| ra.overlaps(rb)))
    }

    /// True if the closed regions share at least one point (touching edges
    /// or corners count) — the predicate used for connectivity.
    pub fn touches(&self, other: &Region) -> bool {
        match (self.bbox(), other.bbox()) {
            (Some(a), Some(b)) if a.touches(&b) => {}
            _ => return false,
        }
        self.rects
            .iter()
            .any(|ra| other.rects.iter().any(|rb| ra.touches(rb)))
    }

    /// True if `other` is entirely covered by `self`.
    pub fn covers(&self, other: &Region) -> bool {
        other.difference(self).is_empty()
    }

    /// True if the closed region shares at least one point with `r`
    /// (touching edges or corners count) — the cheap single-rectangle
    /// form of [`Region::touches`], used by dirty-halo tests in the
    /// incremental checker.
    pub fn touches_rect(&self, r: &Rect) -> bool {
        match self.bbox() {
            Some(b) if b.touches(r) => {}
            _ => return false,
        }
        self.rects.iter().any(|own| own.touches(r))
    }

    /// The region inflated by `d` on every side: the union of every
    /// rectangle grown by `d` (the *halo* of the region). `d <= 0`
    /// returns the region unchanged — shrinking is [`crate::size::shrink`]'s
    /// job.
    pub fn inflate(&self, d: Coord) -> Region {
        if d <= 0 || self.rects.is_empty() {
            return self.clone();
        }
        Region::from_rects(
            self.rects
                .iter()
                .filter_map(|r| r.inflate(d))
                .collect::<Vec<_>>(),
        )
    }

    /// Splits the region into connected components (rectangles connected by
    /// shared edges or corners — closed-touch connectivity).
    ///
    /// Connectivity is discovered through a uniform-grid index (each
    /// rectangle only probes its spatial neighbourhood) and merged with a
    /// union-find, so the pass is near-linear in the rectangle count
    /// instead of the quadratic all-pairs scan it replaces. Components
    /// come out in a canonical order — ascending bounding-box corner,
    /// ties broken by the smallest member rectangle index — with each
    /// component's rectangles in their original (canonical decomposition)
    /// order.
    pub fn components(&self) -> Vec<Region> {
        let n = self.rects.len();
        if n <= 1 {
            return if n == 0 {
                Vec::new()
            } else {
                vec![self.clone()]
            };
        }
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], mut i: u32) -> u32 {
            while parent[i as usize] != i {
                // Path halving.
                parent[i as usize] = parent[parent[i as usize] as usize];
                i = parent[i as usize];
            }
            i
        }
        // Cell size from the typical rect extent so neighbourhood probes
        // stay local on both fine and coarse geometry.
        let typical = self
            .rects
            .iter()
            .take(64)
            .map(|r| (r.x2 - r.x1).min(r.y2 - r.y1))
            .max()
            .unwrap_or(1)
            .max(1);
        let index = FlatGrid::new(self.rects.clone(), typical.saturating_mul(4));
        let mut hits = Vec::new();
        for (i, r) in self.rects.iter().enumerate() {
            // Every touching pair (i, j) is united once, from the later
            // one's probe, lower `j` first.
            index.query_into(r, &mut hits);
            for &j in hits.iter().take_while(|&&j| (j as usize) < i) {
                let (ri, rj) = (find(&mut parent, i as u32), find(&mut parent, j));
                if ri != rj {
                    parent[ri as usize] = rj;
                }
            }
        }
        // Group members per root, preserving ascending rect order within
        // each group (iteration is in index order).
        let mut groups: std::collections::HashMap<u32, Vec<Rect>> =
            std::collections::HashMap::new();
        let mut first_member: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        for i in 0..n {
            let root = find(&mut parent, i as u32);
            groups.entry(root).or_default().push(self.rects[i]);
            first_member.entry(root).or_insert(i);
        }
        let mut comps: Vec<(usize, Region)> = groups
            .into_iter()
            .map(|(root, rects)| (first_member[&root], Region { rects }))
            .collect();
        comps.sort_by_key(|(first, r)| {
            let b = r.bbox().expect("component is non-empty");
            (b.x1, b.y1, *first)
        });
        comps.into_iter().map(|(_, r)| r).collect()
    }

    /// Reference quadratic connectivity scan — the all-pairs algorithm
    /// [`Region::components`] replaced — returning the component count
    /// only. Kept (doc-hidden) as the unit-test oracle's reference
    /// implementation.
    #[doc(hidden)]
    pub fn components_count_pairwise(&self) -> usize {
        let rs = &self.rects;
        let n = rs.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut [usize], mut i: usize) -> usize {
            while p[i] != i {
                p[i] = p[p[i]];
                i = p[i];
            }
            i
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if rs[i].touches(&rs[j]) {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        (0..n)
            .map(|i| find(&mut parent, i))
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

impl FromIterator<Rect> for Region {
    fn from_iter<I: IntoIterator<Item = Rect>>(iter: I) -> Self {
        Region::from_rects(iter)
    }
}

impl Extend<Rect> for Region {
    fn extend<I: IntoIterator<Item = Rect>>(&mut self, iter: I) {
        let mut raw = std::mem::take(&mut self.rects);
        raw.extend(iter);
        self.rects = boolean_op(&raw, &[], BoolOp::Union);
    }
}

impl From<Rect> for Region {
    fn from(r: Rect) -> Self {
        Region::from_rect(r)
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Region[{} rects, area {}]",
            self.rect_count(),
            self.area()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_region_identities() {
        let e = Region::empty();
        let a = Region::from_rect(Rect::new(0, 0, 10, 10));
        assert!(e.is_empty());
        assert_eq!(e.area(), 0);
        assert_eq!(e.bbox(), None);
        assert_eq!(a.union(&e), a);
        assert!(a.intersection(&e).is_empty());
        assert_eq!(a.difference(&e), a);
    }

    #[test]
    fn union_area_inclusion_exclusion() {
        let a = Region::from_rect(Rect::new(0, 0, 100, 100));
        let b = Region::from_rect(Rect::new(50, 50, 150, 150));
        assert_eq!(a.union(&b).area(), 10_000 + 10_000 - 2_500);
        assert_eq!(a.intersection(&b).area(), 2_500);
        assert_eq!(a.xor(&b).area(), 15_000);
        assert_eq!(a.difference(&b).area(), 7_500);
    }

    #[test]
    fn covers_and_overlap() {
        let big = Region::from_rect(Rect::new(0, 0, 100, 100));
        let small = Region::from_rect(Rect::new(20, 20, 40, 40));
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.overlaps(&small));
        let apart = Region::from_rect(Rect::new(200, 0, 300, 100));
        assert!(!big.overlaps(&apart));
        assert!(!big.touches(&apart));
    }

    #[test]
    fn touch_without_overlap() {
        let a = Region::from_rect(Rect::new(0, 0, 10, 10));
        let b = Region::from_rect(Rect::new(10, 0, 20, 10));
        assert!(a.touches(&b));
        assert!(!a.overlaps(&b));
        assert!(a.intersection(&b).is_empty());
        // Corner touch.
        let c = Region::from_rect(Rect::new(10, 10, 20, 20));
        assert!(a.touches(&c));
    }

    #[test]
    fn components_split() {
        let r = Region::from_rects([
            Rect::new(0, 0, 10, 10),
            Rect::new(10, 0, 20, 10), // touches first -> same component
            Rect::new(100, 100, 110, 110),
        ]);
        let comps = r.components();
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn components_grid_pass_matches_pairwise_scan() {
        // A mix of corner-touching chains, isolated islands and a long
        // spanning bar, checked against the reference quadratic scan.
        let mut rects = Vec::new();
        for i in 0..12i64 {
            rects.push(Rect::new(i * 20, i * 20, i * 20 + 20, i * 20 + 20)); // corner chain
            rects.push(Rect::new(i * 50, 1000, i * 50 + 30, 1030)); // overlapping row
            rects.push(Rect::new(
                i * 100,
                2000 + i * 100,
                i * 100 + 10,
                2010 + i * 100,
            ));
        }
        rects.push(Rect::new(-500, 990, 1500, 995)); // bar under the row
        let region = Region::from_rects(rects);
        let comps = region.components();
        // Reference: the quadratic all-pairs scan.
        assert_eq!(comps.len(), region.components_count_pairwise());
        // Every component's area sums back to the region.
        assert_eq!(comps.iter().map(|c| c.area()).sum::<i128>(), region.area());
        // Canonical order: ascending bbox corner.
        let keys: Vec<_> = comps
            .iter()
            .map(|c| {
                let b = c.bbox().unwrap();
                (b.x1, b.y1)
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn inflate_grows_halo() {
        let r = Region::from_rects([Rect::new(0, 0, 10, 10), Rect::new(100, 0, 110, 10)]);
        let h = r.inflate(20);
        assert!(h.contains_point(Point::new(-20, -20)));
        assert!(h.contains_point(Point::new(130, 30)));
        assert!(!h.contains_point(Point::new(50, 50)));
        assert_eq!(r.inflate(0), r);
        assert!(Region::empty().inflate(100).is_empty());
        // A big enough halo fuses the parts.
        assert_eq!(r.inflate(50).components().len(), 1);
    }

    #[test]
    fn touches_rect_closed_semantics() {
        let r = Region::from_rect(Rect::new(0, 0, 10, 10));
        assert!(r.touches_rect(&Rect::new(10, 10, 20, 20)), "corner touch");
        assert!(r.touches_rect(&Rect::new(5, 5, 6, 6)), "containment");
        assert!(!r.touches_rect(&Rect::new(11, 11, 20, 20)));
        assert!(!Region::empty().touches_rect(&Rect::new(0, 0, 1, 1)));
    }

    #[test]
    fn from_polygon_l_shape() {
        let l = Polygon::new(vec![
            Point::new(0, 0),
            Point::new(60, 0),
            Point::new(60, 20),
            Point::new(20, 20),
            Point::new(20, 60),
            Point::new(0, 60),
        ])
        .unwrap();
        let r = Region::from_polygon(&l).unwrap();
        assert_eq!(r.area() * 2, l.area2());
        assert!(r.contains_point(Point::new(10, 50)));
        assert!(!r.contains_point(Point::new(50, 50)));
    }

    #[test]
    fn from_wire() {
        let w = Wire::new(
            20,
            vec![Point::new(0, 0), Point::new(100, 0), Point::new(100, 100)],
        )
        .unwrap();
        let r = Region::from_wire(&w);
        // Two arm rects overlap in the corner square; union removes it once.
        assert_eq!(r.area(), 120 * 20 + 120 * 20 - 20 * 20);
    }

    #[test]
    fn extend_and_collect() {
        let mut r: Region = [Rect::new(0, 0, 10, 10)].into_iter().collect();
        r.extend([Rect::new(5, 0, 15, 10)]);
        assert_eq!(r.area(), 150);
    }

    #[test]
    fn degenerate_rect_is_empty_region() {
        assert!(Region::from_rect(Rect::new(5, 0, 5, 10)).is_empty());
    }
}
