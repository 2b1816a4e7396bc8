//! The scope table: one description of the top-level hierarchy for the
//! stages that exploit it, and the one plan of which element pairs the
//! two pair stages score where.
//!
//! The paper's cost claim is that hierarchy confines work: a definition
//! instantiated a thousand times should be understood once. Three stages
//! consume the hierarchy — the connection scan ([`crate::connect`]), the
//! net-list stage's point binding ([`crate::netgen`]) and the
//! interaction search ([`crate::interact`]) — and all read it from here,
//! so they cannot disagree on which element belongs to which instance.
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
//! # The pair plan
//!
//! The connection and interaction stages both score element pairs whose
//! boxes come within a reach of one another — 0 (touching) for
//! connections, the rule reach for interactions — and both are pure
//! functions of a pair's geometry up to translation. [`ScopeTable::rows`]
//! plans them once for both: a **row** per `(definition, orientation)`
//! holds a call scope's interior, and a row per `(definition,
//! definition, orientation, relative placement)` the pairs across two
//! call scopes within the reach (a definition is its content key,
//! [`Definitions`]), each filled by scanning the first scope (pair)
//! presenting its key and stamped onto every other. The loose elements
//! are never a row: they get one index per check, scanned against
//! itself, and every call scope within reach of them is scanned against
//! it, clipped to the loose box. Every scan is a [`Scan`] — the same query loop whatever
//! stage or caller drives it — cut into tiles of
//! [`DEFAULT_TILE_ELEMENTS`] scanned elements. What a scan searches is
//! its [`ScanIndex`]: a [`FlatGrid`] built once over the boxes of the
//! indexed elements and then only queried — a dense array of cells in
//! compressed-row form, so a query reads a few slices into a reused
//! buffer and hashes nothing. The table's own grid over the scope boxes
//! is a `FlatGrid` too; the candidates it offers are
//! [`ScopeStats::neighbour_tests`].
//!
//! The **direct scan** — every element of an id set against one index
//! over the set, [`Scan::direct`] — is the plan's base case: a chip of
//! loose elements only is exactly that scan, tiled, and over every id it
//! is the reference each pair stage is held to (the edit session runs it
//! over its halo).
//!
//! Scope boxes come from coordinates read from outside the program, so
//! the file denies `clippy::arithmetic_side_effects`: grid-cell counts
//! are taken in `i128` and saturate, counters and run offsets saturate,
//! and the one unchecked sum says why it cannot overflow.

#![deny(clippy::arithmetic_side_effects)]

use crate::library::{ContentKey, Definitions};
use diic_cif::Item;
use diic_geom::{Coord, FlatGrid, Orientation, Point, Rect, Transform};
use std::collections::HashMap;
use std::ops::Range;

/// One top-level scope (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// Placement of the call (chip ← symbol); identity for the loose
    /// scope.
    pub transform: Transform,
    /// Bounding box of the scope's elements; `None` when it has none.
    pub bbox: Option<Rect>,
    /// A call scope's element ids — one contiguous run, ascending with
    /// the scope index. Empty for the loose scope, whose ids interleave
    /// with the calls (read them through [`ScopeTable::ids`]).
    run: Range<usize>,
    /// The called symbol's content key ([`Definitions`]); `None` for
    /// the loose scope.
    definition: Option<ContentKey>,
    /// The first call scope of the same `(definition, orientation)` —
    /// this scope itself when it is the first ([`crate::instantiate`]
    /// derives a definition once per orientation and only ever
    /// translates it).
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

/// Scanned elements per tile of a [`Scan`]: small enough that a tile's
/// pair buffer stays cache-friendly, large enough that tile bookkeeping
/// is noise.
pub const DEFAULT_TILE_ELEMENTS: usize = 512;

/// One scan of a pair plan: each element of `ids` whose box touches
/// `clip` (every one, without a clip) searched against an index over
/// `against` (those touching `against_clip`). The clips are already
/// grown by the plan's reach, so they drop only elements that can pair
/// with nothing.
#[derive(Debug, Clone, Copy)]
pub struct Scan<'a> {
    /// The scanned elements.
    pub ids: ScopeIds<'a>,
    /// The box a scanned element must touch.
    pub clip: Option<Rect>,
    /// The indexed elements.
    pub against: ScopeIds<'a>,
    /// The box an indexed element must touch.
    pub against_clip: Option<Rect>,
    /// The scanned set is the indexed one: a pair is kept from its
    /// lower end only. Against a disjoint set every hit is a new pair.
    pub within: bool,
}

impl<'a> Scan<'a> {
    /// The direct scan: every element of `ids` against all of them.
    pub fn direct(ids: ScopeIds<'a>) -> Scan<'a> {
        Scan {
            ids,
            clip: None,
            against: ids,
            against_clip: None,
            within: true,
        }
    }

    /// The index [`Scan::pairs`] searches: a [`FlatGrid`] over the boxes
    /// of the indexed elements, cells at least `cell` wide.
    pub fn index(&self, bboxes: &[Rect], cell: Coord) -> ScanIndex {
        let kept = |id: &usize| self.against_clip.is_none_or(|c| c.touches(&bboxes[*id]));
        let ids: Vec<usize> = self.against.iter().filter(kept).collect();
        let grid = FlatGrid::new(ids.iter().map(|&id| bboxes[id]).collect(), cell);
        ScanIndex { grid, ids }
    }

    /// The scan's tiles: runs of at most [`DEFAULT_TILE_ELEMENTS`]
    /// positions in `ids`, ascending.
    pub fn tiles(&self) -> impl Iterator<Item = Range<usize>> {
        let len = self.ids.len();
        (0..len)
            .step_by(DEFAULT_TILE_ELEMENTS)
            .map(move |lo| lo..lo.saturating_add(DEFAULT_TILE_ELEMENTS).min(len))
    }

    /// Calls `pair(i, j)` for each scanned element `i` at the positions
    /// `tile` of `ids` and each element `j` of `index` (this scan's
    /// [`Scan::index`]) whose box comes within `reach` of `i`'s along
    /// both axes, `j > i` only in a `within` scan — ascending in `i`,
    /// then in `j`. This is the one query loop behind every pair scan:
    /// a tile of a plan, the direct scan over an edit's halo, and the
    /// reference over every id. Returns how many candidates the index
    /// examined to find them ([`FlatGrid::query_into`]).
    pub fn pairs(
        &self,
        bboxes: &[Rect],
        index: &ScanIndex,
        reach: Coord,
        tile: Range<usize>,
        mut pair: impl FnMut(usize, usize),
    ) -> u64 {
        let mut hits = Vec::new();
        let mut examined = 0u64;
        for local in tile {
            let i = self.ids.get(local);
            let bbox = &bboxes[i];
            if self.clip.is_some_and(|c| !c.touches(bbox)) {
                continue;
            }
            let found = index.grid.query_into(&grown(bbox, reach), &mut hits);
            examined = examined.saturating_add(found as u64);
            for j in hits.iter().map(|&k| index.ids[k as usize]) {
                if !self.within || j > i {
                    pair(i, j);
                }
            }
        }
        examined
    }
}

/// What a [`Scan`] searches ([`Scan::index`]): a grid over its indexed
/// elements' boxes, and the element id at each of the grid's positions.
/// The ids ascend, so a query's positions, ascending, are its ids
/// ascending.
#[derive(Debug, Clone)]
pub struct ScanIndex {
    grid: FlatGrid,
    ids: Vec<usize>,
}

/// What [`ScopeTable::rows`] planned: which row holds each call scope's
/// interior and each pair of call scopes within the reach, which scan
/// fills each row, and the loose scans.
#[derive(Debug, Clone)]
pub struct RowPlan<'a> {
    /// Per call scope, the row holding its interior.
    pub interior: Vec<usize>,
    /// `(si, sj, row)` for each pair of call scopes `si < sj` within
    /// the reach, ascending.
    pub cross: Vec<(usize, usize, usize)>,
    /// Per row, the scope pair whose scan fills it — `(s, s)` for an
    /// interior — and that scan. Interior rows come first, in the order
    /// of their first scope.
    pub rows: Vec<((usize, usize), Scan<'a>)>,
    /// The loose scans, never stored as a row: the loose elements
    /// against themselves, then each call scope within reach of them,
    /// ascending, against them — `(scanned scope, scan)`, the loose
    /// scope itself first. All search one index, the first scan's.
    /// Empty when there are no loose elements.
    pub loose: Vec<(usize, Scan<'a>)>,
}

/// What a row of a pair plan is a function of, up to a common
/// translation ([`ScopeTable::row_key`]): a definition placed at an
/// orientation — a call scope's interior — or two definitions, the
/// first's orientation and the second's placement relative to the
/// first. A definition is its content key ([`Definitions`]), within one
/// chip as across the cells of a library session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RowKey {
    /// One call scope's interior.
    Interior(ContentKey, Orientation),
    /// Two call scopes within the reach of one another.
    Across(ContentKey, ContentKey, Orientation, Transform),
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
/// searches cost, how much of the connection and interaction stages was
/// answered by stamping a row instead of scoring pairs, and what the
/// net-list stage indexed to bind its terminal and label points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeStats {
    /// Scopes in the table: one per top-level call, plus the loose
    /// scope.
    pub scopes: usize,
    /// Bounding-box tests the table's neighbour search performed: one per
    /// later scope sharing a grid cell with a scope's box grown by the
    /// reach (the double loop it replaces makes `scopes² / 2`).
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
    /// Candidate element pairs the interaction stage scores: each row of
    /// its plan (once, however many scopes it is stamped onto, and
    /// counted alike whether this check derived it or took it from a
    /// library session's shelf) and every pair of its loose scans.
    pub interact_pairs_scored: u64,
    /// Candidate element pairs a stamped interaction row handed to the
    /// net-reading half of the rules: the pairs whose outcome a net can
    /// change, once per scope (pair) the row was stamped onto.
    pub interact_pairs_stamped: u64,
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

    /// These counters with the interaction stage's (`interact_*`) taken
    /// from `interactions` — what [`crate::interact::check_interactions`]
    /// returned.
    #[must_use]
    pub fn with_interactions_of(self, interactions: ScopeStats) -> ScopeStats {
        ScopeStats {
            interact_pairs_scored: interactions.interact_pairs_scored,
            interact_pairs_stamped: interactions.interact_pairs_stamped,
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
             {} interaction pairs scored + {} stamped, \
             {} elements in repeated scopes, \
             {} bind indexes built over {} entries, {} bind points -> {} bind probes",
            self.scopes,
            self.neighbour_tests,
            self.neighbour_pairs,
            self.conn_rows_built,
            self.conn_rows_stamped,
            self.conn_pairs_scored,
            self.conn_pairs_stamped,
            self.interact_pairs_scored,
            self.interact_pairs_stamped,
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
    /// The scopes that have elements, ascending: the scope at each
    /// position of `grid`.
    live: Vec<usize>,
    /// Their bounding boxes.
    grid: FlatGrid,
    /// The reach the cells were sized for (never negative).
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
    /// [`crate::interact::max_rule_range`]), grouping the call scopes
    /// by `definitions`.
    pub fn build(
        definitions: &Definitions<'_>,
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
        let mut groups: HashMap<(ContentKey, Orientation), (usize, usize)> = HashMap::new();
        let mut next = 0usize;
        for (item, len) in items.iter().zip(element_runs) {
            // The runs tile the view's columns (asserted below), so the
            // offsets stay below a `Vec` length; saturating costs nothing.
            let end = next.saturating_add(len);
            let run = next..end;
            next = end;
            match item {
                Item::Call(c) => {
                    let definition = definitions.keys[c.target.0 as usize];
                    let group = (groups.entry((definition, c.transform.orient)))
                        .or_insert((scopes.len(), 0));
                    group.1 = group.1.saturating_add(1);
                    scopes.push(Scope {
                        definition: Some(definition),
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
                let key = (s.definition.expect("a call scope"), s.transform.orient);
                groups[&key].1 > 1
            })
            .map(|s| s.run.len())
            .sum();
        scopes.push(Scope {
            definition: None,
            transform: Transform::IDENTITY,
            bbox: union(&mut loose.iter().copied()),
            run: 0..0,
            first: scopes.len(),
        });
        let grid = ScopeGrid::over(&scopes, reach);
        let near = grid.neighbours();
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

    /// The pair plan at `reach` (see the module docs): 0 for the
    /// connection stage, the rule reach for the interaction stage — at
    /// most the reach the table was built for, whose near scope pairs it
    /// narrows. Rows are keyed per `(definition, orientation)` and per
    /// `(definition, definition, orientation, relative placement)`:
    /// [`crate::instantiate`] derives a definition once per orientation
    /// and only translates it, and a row holds what is a function of its
    /// scopes' geometry up to a common translation.
    pub fn rows(&self, reach: Coord) -> RowPlan<'_> {
        debug_assert!(reach <= self.grid.reach, "the near pairs bound the plan");
        let reach = reach.max(0);
        let calls = self.calls();
        let loose = self.loose_index();
        let within = |a: Option<Rect>, b: Option<Rect>| {
            a.zip(b).is_some_and(|(a, b)| {
                let (dx, dy) = a.gap(&b);
                dx <= reach && dy <= reach
            })
        };
        let clip = |s: usize| self.scopes[s].bbox.map(|b| grown(&b, reach));
        let mut rows = Vec::new();
        let mut interior: Vec<usize> = Vec::with_capacity(calls.len());
        for (s, scope) in calls.iter().enumerate() {
            let first = scope.first_of_definition();
            if first < s {
                interior.push(interior[first]);
            } else {
                interior.push(rows.len());
                rows.push(((s, s), Scan::direct(self.ids(s))));
            }
        }
        let mut loose_scans = Vec::new();
        if self.scopes[loose].bbox.is_some() {
            loose_scans.push((loose, Scan::direct(self.ids(loose))));
        }
        let mut keys: HashMap<RowKey, usize> = HashMap::new();
        let mut cross = Vec::new();
        for &(si, sj) in &self.near.pairs {
            let (a, b) = (&self.scopes[si], &self.scopes[sj]);
            if !within(a.bbox, b.bbox) {
                continue;
            }
            if sj == loose {
                let scan = Scan {
                    ids: self.ids(si),
                    clip: clip(loose),
                    against: self.ids(loose),
                    against_clip: None,
                    within: false,
                };
                loose_scans.push((si, scan));
                continue;
            }
            let row = *keys.entry(self.row_key(si, sj)).or_insert_with(|| {
                // Only elements within reach of the other scope's box
                // can pair with one of its elements.
                let scan = Scan {
                    ids: self.ids(si),
                    clip: clip(sj),
                    against: self.ids(sj),
                    against_clip: clip(si),
                    within: false,
                };
                rows.push(((si, sj), scan));
                rows.len().saturating_sub(1)
            });
            cross.push((si, sj, row));
        }
        RowPlan {
            interior,
            cross,
            rows,
            loose: loose_scans,
        }
    }

    /// The key of the row filled for call scopes `si` and `sj` (`si ==
    /// sj` for an interior) — what [`ScopeTable::rows`] groups them by.
    pub(crate) fn row_key(&self, si: usize, sj: usize) -> RowKey {
        let (a, b) = (&self.scopes[si], &self.scopes[sj]);
        // invariant: call scopes carry their definition.
        let definition = |s: &Scope| s.definition.expect("a call scope");
        if si == sj {
            RowKey::Interior(definition(a), a.transform.orient)
        } else {
            let placement = a.transform.inverse().after(&b.transform);
            RowKey::Across(definition(a), definition(b), a.transform.orient, placement)
        }
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
    /// The search is a [`FlatGrid`] over the scope bounding boxes with
    /// cells the size of a typical scope, queried with each box grown by
    /// the reach and widened to whole cells, so its cost follows the
    /// number of scopes and of near pairs, not their product. The grid keeps that true of any input:
    /// a scope covering more cells than there are scopes (the loose
    /// scope of a chip with top-level routing) sits on its side list,
    /// and a query that wide (every scope, under a reach near
    /// `Coord::MAX`) tests every scope directly — the cheaper of the two
    /// by then.
    pub fn neighbours(&self, reach: Coord) -> Neighbours {
        ScopeGrid::over(&self.scopes, reach).neighbours()
    }

    /// The scopes whose bounding box contains `p` (closed-sense), into
    /// `out`, ascending — a single-cell lookup in the grid
    /// [`ScopeTable::neighbours`] searched, merged with its side list.
    /// An element covering `p` belongs to one of these scopes; `out` is
    /// the caller's buffer, so binding a point allocates nothing.
    pub fn covering(&self, p: Point, out: &mut Vec<usize>) {
        out.clear();
        let live = &self.grid.live;
        out.extend(self.grid.grid.at(p).map(|k| live[k as usize]));
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
        let (live, boxes): (Vec<usize>, Vec<Rect>) = live_boxes(scopes).unzip();
        // Cells the size of the mean scope (or the reach, when that is
        // larger): a scope then covers a handful of cells and so does a
        // query.
        let side_sum: i128 = boxes
            .iter()
            .map(|b| b.width().max(b.height()) as i128)
            .sum();
        let mean_side = (side_sum.checked_div(boxes.len() as i128))
            .and_then(|mean| Coord::try_from(mean).ok())
            .unwrap_or(Coord::MAX);
        ScopeGrid {
            live,
            grid: FlatGrid::new(boxes, mean_side.max(reach)),
            reach,
        }
    }

    /// [`ScopeTable::neighbours`] of the scopes this grid was built
    /// over, at the reach it was built for. Each box grown by the reach
    /// and widened to whole cells queries the grid: the answer is the
    /// scopes sharing a cell with the grown box, each of the later ones
    /// tested once, and it ascends, so the pairs come out in order.
    fn neighbours(&self) -> Neighbours {
        let reach = self.reach;
        let near = |a: &Rect, b: &Rect| {
            let (dx, dy) = a.gap(b);
            dx <= reach && dy <= reach
        };
        let cell = self.grid.cell_size();
        let whole = |lo: Coord, hi: Coord| {
            let last = hi.div_euclid(cell).saturating_add(1).saturating_mul(cell);
            (
                lo.div_euclid(cell).saturating_mul(cell),
                last.saturating_sub(1),
            )
        };
        let boxes = self.grid.rects();
        let (mut out, mut hits) = (Neighbours::default(), Vec::new());
        for (k, a) in (0u32..).zip(boxes) {
            let g = grown(a, reach);
            let ((x1, x2), (y1, y2)) = (whole(g.x1, g.x2), whole(g.y1, g.y2));
            self.grid.query_into(&Rect { x1, y1, x2, y2 }, &mut hits);
            for &j in hits.iter().filter(|&&j| j > k) {
                out.tests = out.tests.saturating_add(1);
                if near(a, &boxes[j as usize]) {
                    let scope = |j: u32| self.live[j as usize];
                    out.pairs.push((scope(k), scope(j)));
                }
            }
        }
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
    use crate::binding::LayerBinding;
    use diic_cif::{Call, Element, LayerRef, Layout, Shape, Symbol, SymbolId};
    use diic_geom::Vector;
    use proptest::prelude::*;

    fn call(symbol: u32, orient: Orientation, name: &str) -> Item {
        Item::Call(Call {
            target: SymbolId(symbol),
            transform: Transform::new(orient, Vector::ZERO),
            name: name.into(),
        })
    }

    /// Definitions of `n` symbols of distinct content — symbol `k` holds
    /// one box `k + 1` wide — for items with no layout of their own.
    fn distinct(n: u64) -> Definitions<'static> {
        let mut layout = Layout::new();
        let layer = layout.intern_layer("NM");
        for k in 0..n {
            let shape = Shape::Box(Rect::new(0, 0, k as Coord + 1, 1));
            let element = Element {
                layer,
                shape,
                net: None,
            };
            layout.add_symbol(Symbol {
                cif_id: k as u32,
                name: None,
                device: None,
                items: vec![Item::Element(element)],
            });
        }
        let (binding, _) = LayerBinding::bind(&layout, &diic_tech::nmos::nmos_technology());
        Definitions::new(&layout, &binding, None)
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
        let table = ScopeTable::build(&distinct(3), &items, runs, &bboxes, 0);
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
        // Scope 3 repeats scope 0's (definition, orientation); scope 1
        // is the same symbol rotated and stands alone.
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

    #[test]
    fn rows_are_keyed_per_orientation_and_placement() {
        // Symbol 1 upright at x = 0, 10 and 20 (abutting), rotated at
        // 34; symbol 2 at 60; one loose element between the last two,
        // touching both.
        let at = |symbol: u32, orient: Orientation, x: i64| {
            Item::Call(Call {
                target: SymbolId(symbol),
                transform: Transform::new(orient, Vector::new(x, 0)),
                name: "c".into(),
            })
        };
        let items = vec![
            at(1, Orientation::R0, 0),
            at(1, Orientation::R0, 10),
            at(1, Orientation::R0, 20),
            at(1, Orientation::R90, 34),
            at(2, Orientation::R0, 60),
            loose_element(),
        ];
        let bboxes: Vec<Rect> = [(0, 10), (10, 20), (20, 30), (34, 44), (60, 70), (44, 60)]
            .map(|(x1, x2)| Rect::new(x1, 0, x2, 10))
            .to_vec();
        let table = ScopeTable::build(&distinct(3), &items, [1; 6], &bboxes, 5);
        let plan = table.rows(0);
        // One interior row per (definition, orientation).
        assert_eq!(plan.interior, vec![0, 0, 0, 1, 2]);
        // The two abutting placements share one row; the rotated call
        // and symbol 2 touch only the loose element.
        assert_eq!(plan.cross, vec![(0, 1, 3), (1, 2, 3)]);
        let filled: Vec<(usize, usize)> = plan.rows.iter().map(|(pair, _)| *pair).collect();
        assert_eq!(filled, vec![(0, 0), (3, 3), (4, 4), (0, 1)]);
        let loose: Vec<usize> = plan.loose.iter().map(|(s, _)| *s).collect();
        assert_eq!(loose, vec![5, 3, 4]);
        assert!(plan.loose[0].1.within && !plan.loose[1].1.within);
        // At reach 5 the rotated call, 4 away, nears symbol 1's last
        // placement: a new key.
        let plan = table.rows(5);
        assert_eq!(plan.cross, vec![(0, 1, 3), (1, 2, 3), (2, 3, 4)]);
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
        let definitions = distinct(calls.len() as u64);
        ScopeTable::build(&definitions, &items, runs, &column, reach)
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

    /// Top-level items over explicit element boxes: `(true, boxes)` a
    /// call of a symbol of its own holding them, `(false, boxes)` a loose
    /// element with the first of them.
    fn items_of(top: &[(bool, Vec<Rect>)]) -> (Vec<Item>, Vec<usize>, Vec<Rect>) {
        let (mut items, mut runs, mut column) = (Vec::new(), Vec::new(), Vec::new());
        for (k, (is_call, boxes)) in top.iter().enumerate() {
            let boxes = if *is_call { &boxes[..] } else { &boxes[..1] };
            items.push(if *is_call {
                call(k as u32, Orientation::R0, "c")
            } else {
                loose_element()
            });
            runs.push(boxes.len());
            column.extend_from_slice(boxes);
        }
        (items, runs, column)
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (-30i64..30, -30i64..30, 0i64..8, 0i64..8)
            .prop_map(|(x, y, w, h)| Rect::new(x * 10, y * 10, x * 10 + w * 10, y * 10 + h * 10))
    }

    proptest! {
        /// Every element pair within the reach is found by exactly one
        /// scan of the plan — a row's (every scope and scope pair is its
        /// own row here: each call has a symbol of its own) or a loose
        /// scan's — and no pair beyond it is.
        #[test]
        fn the_plan_finds_each_pair_within_reach_once(
            top in proptest::collection::vec(
                ((0u8..3).prop_map(|k| k > 0), proptest::collection::vec(arb_rect(), 1..5)),
                1..12,
            ),
            pick in 0usize..3,
        ) {
            let reach = [0, 15, 60][pick];
            let (items, runs, bboxes) = items_of(&top);
            let table = ScopeTable::build(&distinct(top.len() as u64), &items, runs, &bboxes, 60);
            let plan = table.rows(reach);
            prop_assert_eq!(plan.rows.len(), plan.interior.len() + plan.cross.len());
            let mut found = Vec::new();
            let scans = plan.rows.iter().map(|(_, scan)| scan);
            for scan in scans.chain(plan.loose.iter().map(|(_, scan)| scan)) {
                let index = scan.index(&bboxes, 40);
                for tile in scan.tiles() {
                    scan.pairs(&bboxes, &index, reach, tile, |i, j| {
                        found.push((i.min(j), i.max(j)));
                    });
                }
            }
            found.sort_unstable();
            let mut want = Vec::new();
            for i in 0..bboxes.len() {
                for j in i + 1..bboxes.len() {
                    let (dx, dy) = bboxes[i].gap(&bboxes[j]);
                    if dx <= reach && dy <= reach {
                        want.push((i, j));
                    }
                }
            }
            prop_assert_eq!(found, want);
        }

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
            // scopes it put on its side list as wide.
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
