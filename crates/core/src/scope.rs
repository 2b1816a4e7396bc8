//! The scope table: one description of the top-level hierarchy for the
//! stages that exploit it.
//!
//! The paper's cost claim is that hierarchy confines work: a definition
//! instantiated a thousand times should be understood once. Three stages
//! consume the hierarchy — the connection scan ([`crate::connect`]), the
//! net-list stage's point binding ([`crate::netgen`]) and the
//! hierarchical interaction search ([`crate::interact`]) — and all read
//! it from here, so they cannot disagree on which element belongs to
//! which instance.
//!
//! A **scope** is one top-level call with everything instantiated
//! beneath it, or the *loose* scope holding the top-level elements that
//! sit outside any call. Scopes are **positional**: the *k*-th call
//! among [`diic_cif::Layout::top_items`] is scope *k* and owns exactly
//! the element-id run [`crate::instantiate`] produced for that item —
//! membership never depends on what a call is named (names are
//! client-chosen through the edit API and need be neither unique nor
//! dot-free). The loose scope is always last.
//!
//! Both stages also ask which scopes lie near one another — the
//! interaction search within the technology's rule reach, the connection
//! scan touching, which is a subset of it. The table answers that once,
//! when it is built, from a grid over the scope bounding boxes
//! ([`ScopeTable::neighbours`]); testing every pair of scopes, as the
//! interaction search used to, is quadratic in the instance count and
//! was the whole of its superlinear cost at 10⁷ elements. The table
//! keeps that grid: the net-list stage asks it which scopes cover a
//! terminal or label point ([`ScopeTable::covering`]) and then looks the
//! point up in an index built once per definition, not once per chip.
//!
//! Scope boxes come from coordinates read from outside the program, so
//! the file denies `clippy::arithmetic_side_effects`: grid-cell counts
//! are taken in `i128` and saturate, counters and run offsets saturate,
//! and the one unchecked sum says why it cannot overflow.

#![deny(clippy::arithmetic_side_effects)]

use diic_cif::{Item, SymbolId};
use diic_geom::{Coord, GridIndex, Orientation, Point, Rect, Transform};
use std::collections::HashMap;
use std::ops::Range;

/// One top-level scope (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// The called symbol; `None` for the loose scope.
    pub symbol: Option<SymbolId>,
    /// Placement of the call (chip ← symbol); identity for the loose
    /// scope.
    pub transform: Transform,
    /// Bounding box of the scope's elements; `None` when it has none.
    pub bbox: Option<Rect>,
    /// A call scope's element ids — one contiguous run, ascending with
    /// the scope index. Empty for the loose scope, whose ids interleave
    /// with the calls (read them through [`ScopeTable::ids`]).
    run: Range<usize>,
    /// The first call scope of the same `(symbol, orientation)` — this
    /// scope itself when it is the first ([`crate::instantiate`] derives
    /// a definition once per orientation and only ever translates it).
    first: usize,
}

impl Scope {
    /// A call scope's element ids (empty for the loose scope — see
    /// [`ScopeTable::ids`]).
    pub fn run(&self) -> Range<usize> {
        self.run.clone()
    }

    /// Index of the first call scope instantiating the same definition
    /// under the same orientation: every scope of one such group is a
    /// translated copy of that one.
    pub fn first_of_definition(&self) -> usize {
        self.first
    }
}

/// The element ids of one scope, in ascending order: a contiguous run
/// for a call scope, an explicit list for the loose scope (or for any
/// caller-supplied id set).
#[derive(Debug, Clone, Copy)]
pub enum ScopeIds<'a> {
    /// `start .. start + len`.
    Run(usize, usize),
    /// An explicit ascending list.
    List(&'a [usize]),
}

impl ScopeIds<'_> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ScopeIds::Run(_, len) => *len,
            ScopeIds::List(ids) => ids.len(),
        }
    }

    /// True if the scope holds no element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element id at local position `local`.
    // A run's ids are indices into the view's element columns, so
    // `start + local` for a `local` inside the run is below a `Vec`
    // length and cannot overflow; no check on this hot path.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn get(&self, local: usize) -> usize {
        match self {
            ScopeIds::Run(start, _) => start + local,
            ScopeIds::List(ids) => ids[local],
        }
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|l| self.get(l))
    }
}

/// The scope pairs [`ScopeTable::neighbours`] found, and what finding
/// them cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Neighbours {
    /// Scope pairs `(si, sj)`, `si < sj`, whose bounding boxes come
    /// within the reach of one another, in ascending order.
    pub pairs: Vec<(usize, usize)>,
    /// Bounding-box tests performed to find them.
    pub tests: u64,
}

/// Exact counters of what the scope table was worth to one check: how
/// much of the chip sits in repeated definitions, what the neighbour
/// searches cost, how much of the connection stage was answered by
/// stamping a verdict row instead of scoring pairs, and what the
/// net-list stage indexed to bind its terminal and label points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Scopes in the table: one per top-level call, plus the loose
    /// scope.
    pub scopes: usize,
    /// Bounding-box tests the table's neighbour search performed (the
    /// double loop it replaces makes `scopes² / 2`).
    pub neighbour_tests: u64,
    /// Scope pairs it found within the technology's rule reach.
    pub neighbour_pairs: u64,
    /// Connection verdict rows derived by scoring element pairs — one
    /// per distinct definition-and-orientation, one per distinct
    /// neighbouring placement of two definitions.
    pub conn_rows_built: usize,
    /// Scopes and neighbouring scope pairs answered by stamping a row
    /// built for an earlier one.
    pub conn_rows_stamped: usize,
    /// Candidate element pairs the connection stage scored directly.
    pub conn_pairs_scored: u64,
    /// Candidate element pairs it did not have to score because a
    /// stamped row already held their verdicts.
    pub conn_pairs_stamped: u64,
    /// Elements in call scopes whose definition-and-orientation occurs
    /// more than once at the top level — the share of the chip the row
    /// cache can apply to.
    pub elements_in_repeated_scopes: usize,
    /// Bind indexes the net-list stage built: one per distinct
    /// definition-and-orientation with a netted element, one over the
    /// loose scope's.
    pub bind_indexes_built: usize,
    /// Elements those indexes hold between them (a chip-wide bind grid
    /// would hold every netted element).
    pub bind_index_entries: usize,
    /// Terminal and label points the net-list stage bound.
    pub bind_points: u64,
    /// Index lookups made for them: one per scope covering a point.
    pub bind_probes: u64,
}

impl ScopeStats {
    /// These counters with the net-list stage's (`bind_*`) taken from
    /// `netgen` — what [`crate::netgen::NetParts::build`] returned.
    #[must_use]
    pub fn with_binding_of(self, netgen: ScopeStats) -> ScopeStats {
        ScopeStats {
            bind_indexes_built: netgen.bind_indexes_built,
            bind_index_entries: netgen.bind_index_entries,
            bind_points: netgen.bind_points,
            bind_probes: netgen.bind_probes,
            ..self
        }
    }
}

impl std::fmt::Display for ScopeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scopes, {} neighbour tests -> {} neighbour pairs, \
             {} connection rows built + {} stamped, {} pairs scored + {} stamped, \
             {} elements in repeated scopes, \
             {} bind indexes built over {} entries, {} bind points -> {} bind probes",
            self.scopes,
            self.neighbour_tests,
            self.neighbour_pairs,
            self.conn_rows_built,
            self.conn_rows_stamped,
            self.conn_pairs_scored,
            self.conn_pairs_stamped,
            self.elements_in_repeated_scopes,
            self.bind_indexes_built,
            self.bind_index_entries,
            self.bind_points,
            self.bind_probes
        )
    }
}

/// The grid over the scope bounding boxes behind
/// [`ScopeTable::neighbours`] and [`ScopeTable::covering`].
#[derive(Debug, Clone)]
struct ScopeGrid {
    /// The live scopes kept out of the grid and tested directly,
    /// ascending: the wide ones (see [`ScopeTable::neighbours`]), or all
    /// of them when there are fewer than two.
    direct: Vec<(usize, Rect)>,
    /// Every other live scope's bounding box, payload the scope index,
    /// inserted ascending.
    grid: GridIndex<usize>,
    /// The reach the cells were sized and the wide scopes chosen for
    /// (never negative).
    reach: Coord,
}

/// The top-level scopes of one instantiated chip (see the module docs).
/// Built once per check, read by the connection, net-list and
/// interaction stages, dropped with the check; an edit session builds
/// one when it opens or rebuilds and does not keep it (an ordinary edit
/// re-checks a halo, not scopes).
#[derive(Debug, Clone)]
pub struct ScopeTable {
    /// Call scopes in top-item order, then the loose scope.
    scopes: Vec<Scope>,
    /// The loose scope's element ids, ascending.
    loose: Vec<usize>,
    repeated_elements: usize,
    /// The scope grid at the reach the table was built for.
    grid: ScopeGrid,
    /// [`ScopeTable::neighbours`] at that reach.
    near: Neighbours,
}

impl ScopeTable {
    /// Builds the table from the top-level items, the element run length
    /// [`crate::instantiate`] reported for each, and the view's bounding
    /// box column, and finds the scope pairs within `reach` of one
    /// another (the technology's rule reach,
    /// [`crate::interact::max_rule_range`]).
    pub fn build(
        items: &[Item],
        element_runs: impl IntoIterator<Item = usize>,
        bboxes: &[Rect],
        reach: Coord,
    ) -> ScopeTable {
        let union = |ids: &mut dyn Iterator<Item = usize>| {
            ids.map(|id| bboxes[id])
                .reduce(|acc, b| acc.bounding_union(&b))
        };
        let mut scopes = Vec::new();
        let mut loose = Vec::new();
        let mut groups: HashMap<(SymbolId, Orientation), (usize, usize)> = HashMap::new();
        let mut next = 0usize;
        for (item, len) in items.iter().zip(element_runs) {
            // The runs tile the view's columns (asserted below), so the
            // offsets stay below a `Vec` length; saturating costs nothing.
            let end = next.saturating_add(len);
            let run = next..end;
            next = end;
            match item {
                Item::Call(c) => {
                    let group = groups
                        .entry((c.target, c.transform.orient))
                        .or_insert((scopes.len(), 0));
                    group.1 = group.1.saturating_add(1);
                    scopes.push(Scope {
                        symbol: Some(c.target),
                        transform: c.transform,
                        bbox: union(&mut run.clone()),
                        run,
                        first: group.0,
                    });
                }
                Item::Element(_) => loose.extend(run),
            }
        }
        debug_assert_eq!(next, bboxes.len(), "the runs must cover the view");
        let repeated_elements = scopes
            .iter()
            .filter(|s| {
                let key = (s.symbol.expect("a call scope"), s.transform.orient);
                groups[&key].1 > 1
            })
            .map(|s| s.run.len())
            .sum();
        scopes.push(Scope {
            symbol: None,
            transform: Transform::IDENTITY,
            bbox: union(&mut loose.iter().copied()),
            run: 0..0,
            first: scopes.len(),
        });
        let grid = ScopeGrid::over(&scopes, reach);
        let near = grid.neighbours(&scopes);
        ScopeTable {
            scopes,
            loose,
            repeated_elements,
            grid,
            near,
        }
    }

    /// Every scope: the call scopes in top-item order, then the loose
    /// scope.
    pub fn scopes(&self) -> &[Scope] {
        &self.scopes
    }

    /// The call scopes only (every scope but the last).
    pub fn calls(&self) -> &[Scope] {
        &self.scopes[..self.loose_index()]
    }

    /// Index of the loose scope (always the last; a table always has
    /// one).
    pub fn loose_index(&self) -> usize {
        self.scopes.len().saturating_sub(1)
    }

    /// The element ids of scope `s`.
    pub fn ids(&self, s: usize) -> ScopeIds<'_> {
        if s == self.loose_index() {
            ScopeIds::List(&self.loose)
        } else {
            let run = &self.scopes[s].run;
            ScopeIds::Run(run.start, run.len())
        }
    }

    /// The scope pairs `si < sj` within the reach the table was built
    /// for, in ascending order.
    pub fn near(&self) -> &[(usize, usize)] {
        &self.near.pairs
    }

    /// The table's own counters; the connection stage adds its `conn_*`.
    pub fn stats(&self) -> ScopeStats {
        ScopeStats {
            scopes: self.scopes.len(),
            neighbour_tests: self.near.tests,
            neighbour_pairs: self.near.pairs.len() as u64,
            elements_in_repeated_scopes: self.repeated_elements,
            ..ScopeStats::default()
        }
    }

    /// The scope pairs `si < sj` whose bounding boxes come within
    /// `reach` of one another along both axes (`reach` 0: they touch),
    /// in ascending order. Scopes without elements pair with nothing.
    ///
    /// The search is a [`GridIndex`] over the scope bounding boxes with
    /// cells the size of a typical scope, so its cost follows the number
    /// of scopes and of near pairs, not their product. One guard keeps
    /// that true of any input: a scope whose box grown by the reach
    /// covers more grid cells than there are scopes (the loose scope of
    /// a chip with top-level routing; every scope, under a reach near
    /// `Coord::MAX`) stays out of the grid and is compared with every
    /// scope directly — the cheaper of the two by then.
    pub fn neighbours(&self, reach: Coord) -> Neighbours {
        ScopeGrid::over(&self.scopes, reach).neighbours(&self.scopes)
    }

    /// The scopes whose bounding box contains `p` (closed-sense), into
    /// `out`, ascending — a single-cell lookup in the grid
    /// [`ScopeTable::neighbours`] searched, plus a direct test of the
    /// scopes that grid leaves out. An element covering `p` belongs to
    /// one of these scopes; `out` is the caller's buffer, so binding a
    /// point allocates nothing.
    pub fn covering(&self, p: Point, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.grid.grid.at(p).copied());
        let direct = self.grid.direct.iter();
        out.extend(direct.filter(|(_, b)| b.contains_point(p)).map(|&(s, _)| s));
        // Each source ascends; a wide scope among gridded ones interleaves.
        if !out.is_sorted() {
            out.sort_unstable();
        }
    }

    /// The double loop [`ScopeTable::neighbours`] replaces — the
    /// reference its unit test compares against.
    #[cfg(test)]
    #[allow(clippy::arithmetic_side_effects)]
    fn neighbours_reference(&self, reach: Coord) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for si in 0..self.scopes.len() {
            for sj in si + 1..self.scopes.len() {
                let (Some(a), Some(b)) = (self.scopes[si].bbox, self.scopes[sj].bbox) else {
                    continue;
                };
                let (dx, dy) = a.gap(&b);
                if dx <= reach && dy <= reach {
                    out.push((si, sj));
                }
            }
        }
        out
    }
}

impl ScopeGrid {
    /// Indexes the bounding boxes of `scopes` for searches at `reach`.
    fn over(scopes: &[Scope], reach: Coord) -> ScopeGrid {
        let reach = reach.max(0);
        let live: Vec<(usize, Rect)> = live_boxes(scopes).collect();
        if live.len() < 2 {
            return ScopeGrid {
                direct: live,
                grid: GridIndex::new(1),
                reach,
            };
        }
        // Cells the size of the mean scope (or the reach, when that is
        // larger): a scope then covers a handful of cells and so does a
        // query.
        let side_sum: i128 = live
            .iter()
            .map(|(_, b)| b.width().max(b.height()) as i128)
            .sum();
        let mean_side = (side_sum.checked_div(live.len() as i128))
            .and_then(|mean| Coord::try_from(mean).ok())
            .unwrap_or(Coord::MAX);
        let cell = mean_side.max(reach).max(1);
        let cells_of = |r: &Rect| {
            let span = |lo: Coord, hi: Coord| {
                let cells =
                    i128::from(hi.div_euclid(cell)).saturating_sub(lo.div_euclid(cell).into());
                cells.saturating_add(1)
            };
            span(r.x1, r.x2).saturating_mul(span(r.y1, r.y2))
        };
        // A scope is *wide* when its query — its box grown by the reach
        // — covers more cells than there are scopes.
        let mut grid: GridIndex<usize> = GridIndex::new(cell);
        let mut direct: Vec<(usize, Rect)> = Vec::new();
        for &(s, bbox) in &live {
            if cells_of(&grown(&bbox, reach)) > live.len() as i128 {
                direct.push((s, bbox));
            } else {
                grid.insert(bbox, s);
            }
        }
        ScopeGrid {
            direct,
            grid,
            reach,
        }
    }

    /// [`ScopeTable::neighbours`] of the scopes this grid was built
    /// over, at the reach it was built for.
    fn neighbours(&self, scopes: &[Scope]) -> Neighbours {
        let reach = self.reach;
        let mut out = Neighbours::default();
        if live_boxes(scopes).nth(1).is_none() {
            return out;
        }
        let near = |a: &Rect, b: &Rect| {
            let (dx, dy) = a.gap(b);
            dx <= reach && dy <= reach
        };
        let wide = &self.direct;
        for (si, a) in live_boxes(scopes) {
            let mut test = |sj: usize, b: &Rect| {
                out.tests = out.tests.saturating_add(1);
                if near(&a, b) {
                    out.pairs.push((si, sj));
                }
            };
            if wide.binary_search_by_key(&si, |&(s, _)| s).is_ok() {
                // Against everything later; an earlier scope pairs with
                // this one from its own side.
                for (sj, b) in live_boxes(scopes).filter(|(sj, _)| *sj > si) {
                    test(sj, &b);
                }
                continue;
            }
            for (sj, b) in wide.iter().filter(|(sj, _)| *sj > si) {
                test(*sj, b);
            }
            for handle in self.grid.candidates(&grown(&a, reach)) {
                let (b, &sj) = self.grid.get(handle).expect("candidates are live");
                if sj > si {
                    test(sj, b);
                }
            }
        }
        // Each source emits ascending pairs; with wide scopes about, the
        // sources interleave.
        if !wide.is_empty() {
            out.pairs.sort_unstable();
        }
        debug_assert!(out.pairs.windows(2).all(|w| w[0] < w[1]));
        out
    }
}

/// The scopes that have elements, with their bounding boxes.
fn live_boxes(scopes: &[Scope]) -> impl Iterator<Item = (usize, Rect)> + '_ {
    (scopes.iter().enumerate()).filter_map(|(s, scope)| Some((s, scope.bbox?)))
}

/// `a` grown by `reach` on every side, saturating.
fn grown(a: &Rect, reach: Coord) -> Rect {
    Rect {
        x1: a.x1.saturating_sub(reach),
        y1: a.y1.saturating_sub(reach),
        x2: a.x2.saturating_add(reach),
        y2: a.y2.saturating_add(reach),
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use diic_cif::{Call, Element, LayerRef, Shape};
    use diic_geom::Vector;
    use proptest::prelude::*;

    fn call(symbol: u32, orient: Orientation, name: &str) -> Item {
        Item::Call(Call {
            target: SymbolId(symbol),
            transform: Transform::new(orient, Vector::ZERO),
            name: name.into(),
        })
    }

    fn loose_element() -> Item {
        Item::Element(Element {
            layer: LayerRef(0),
            shape: Shape::Box(Rect::new(0, 0, 1, 1)),
            net: None,
        })
    }

    #[test]
    fn scopes_are_positional_runs_and_loose_is_last() {
        // call(2) · loose · call(3) · empty call · loose · call(2): names
        // collide and one is dotted — neither matters.
        let items = vec![
            call(1, Orientation::R0, "x"),
            loose_element(),
            call(1, Orientation::R90, "x"),
            call(2, Orientation::R0, "a.b"),
            loose_element(),
            call(1, Orientation::R0, ""),
        ];
        let runs = [2usize, 1, 3, 0, 1, 2];
        let bboxes: Vec<Rect> = (0..9)
            .map(|i| Rect::new(i * 10, 0, i * 10 + 5, 5))
            .collect();
        let table = ScopeTable::build(&items, runs, &bboxes, 0);
        assert_eq!(table.scopes().len(), 5);
        assert_eq!(table.loose_index(), 4);
        let ids = |s: usize| table.ids(s).iter().collect::<Vec<_>>();
        assert_eq!(ids(0), vec![0, 1]);
        assert_eq!(ids(1), vec![3, 4, 5]);
        assert_eq!(ids(2), Vec::<usize>::new());
        assert_eq!(ids(3), vec![7, 8]);
        assert_eq!(ids(4), vec![2, 6]);
        assert_eq!(table.scopes()[2].bbox, None);
        assert_eq!(table.scopes()[0].bbox, Some(Rect::new(0, 0, 15, 5)));
        assert_eq!(table.scopes()[4].bbox, Some(Rect::new(20, 0, 65, 5)));
        // Scope 3 repeats scope 0's (symbol, orientation); scope 1 is the
        // same symbol rotated and stands alone.
        let firsts: Vec<usize> = table
            .calls()
            .iter()
            .map(|s| s.first_of_definition())
            .collect();
        assert_eq!(firsts, vec![0, 1, 2, 0]);
        let stats = table.stats();
        assert_eq!(stats.scopes, 5);
        assert_eq!(stats.elements_in_repeated_scopes, 4);
    }

    /// A table over explicit bounding boxes: scope `k` holds one element
    /// with bbox `k`, the last box is the loose scope's; `None` leaves a
    /// scope empty.
    fn table_of(bboxes: &[Option<Rect>], reach: Coord) -> ScopeTable {
        let (calls, loose) = bboxes.split_at(bboxes.len() - 1);
        let mut items: Vec<Item> = (0..calls.len())
            .map(|k| call(k as u32, Orientation::R0, "c"))
            .collect();
        items.push(loose_element());
        let runs: Vec<usize> = calls
            .iter()
            .chain(loose)
            .map(|b| b.is_some() as usize)
            .collect();
        let column: Vec<Rect> = bboxes.iter().flatten().copied().collect();
        ScopeTable::build(&items, runs, &column, reach)
    }

    fn arb_bbox() -> impl Strategy<Value = Option<Rect>> {
        // One in six scopes is empty; most are cell-sized, a few are
        // chip-sized.
        (0u8..6, -40i64..40, -40i64..40, 0i64..12, 0i64..12, 0u8..10).prop_map(
            |(empty, x, y, w, h, wide)| {
                if empty == 0 {
                    return None;
                }
                let scale = if wide == 0 { 40 } else { 1 };
                Some(Rect::new(
                    x * 10,
                    y * 10,
                    x * 10 + w * 10 * scale,
                    y * 10 + h * 10 * scale,
                ))
            },
        )
    }

    proptest! {
        #[test]
        fn neighbours_equal_the_double_loop(
            bboxes in proptest::collection::vec(arb_bbox(), 1..40),
            small_reach in 1i64..200,
            pick in 0usize..8,
        ) {
            // Zero, rule-sized, and reaches no coordinate can be inflated
            // by without overflowing.
            let reach = [0, Coord::MAX / 4, Coord::MAX - 1, Coord::MAX]
                .get(pick)
                .copied()
                .unwrap_or(small_reach);
            let table = table_of(&bboxes, 0);
            let near = table.neighbours(reach);
            prop_assert_eq!(&near.pairs, &table.neighbours_reference(reach));
            prop_assert!(near.tests >= near.pairs.len() as u64);
        }

        #[test]
        fn covering_equals_a_scan_of_the_boxes(
            bboxes in proptest::collection::vec(arb_bbox(), 1..40),
            reach in 0i64..200,
            points in proptest::collection::vec((-45i64..90, -45i64..90), 1..40),
        ) {
            // Whatever reach the kept grid was sized for, and whichever
            // scopes it left out as wide (or all of them: one live scope).
            let table = table_of(&bboxes, reach);
            let mut got = vec![usize::MAX];
            for (x, y) in points {
                // On box corners and edges (multiples of 10) and off them.
                let p = Point::new(x * 5, y * 5);
                table.covering(p, &mut got);
                let want: Vec<usize> = (0..bboxes.len())
                    .filter(|&s| bboxes[s].is_some_and(|b| b.contains_point(p)))
                    .collect();
                prop_assert_eq!(&got, &want, "{:?}", p);
            }
        }
    }
}
