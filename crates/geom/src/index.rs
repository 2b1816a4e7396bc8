//! Uniform-grid spatial indexes for interaction searches.
//!
//! The "check interactions" stage of the pipeline must find, for every
//! element, the nearby elements it could interact with. A uniform grid over
//! bucketed bounding boxes is simple, fast for layout data (bounded local
//! density), and needs no balancing. There are two, one per way an index
//! is used:
//!
//! * [`FlatGrid`] — **built once, then only queried**: every pair scan
//!   (a row fill, a loose scan, the direct scan over an edit's halo),
//!   every bind index, every dirty-region predicate of an edit. Its cells
//!   are one dense array in compressed-row form — a `starts` offset per
//!   cell into one `entries` list of positions — filled in two passes,
//!   so a query is a few slice reads: no hashing, and nothing allocated
//!   but the caller's reused buffer.
//! * [`GridIndex`] — **items come and go**: an edit session's element
//!   index and label index, which take inserts and removes on every edit,
//!   and the scope table's grid. Its cells are hashed buckets, so it
//!   needs no extent up front and a removal is local.
//!
//! Queries take `&self`, so a built index can be **shared across
//! threads** — the parallel searches build an index once and fan queries
//! out over a scoped thread pool.
//!
//! No rectangle costs more than the index holds: an item covering more
//! cells than the index has slots (with a floor of 64) stays out of the
//! cells on a side list and is tested directly, and a query that wide
//! scans the slots instead of walking its cells — the rule
//! `ScopeTable::neighbours` applies to scopes. A box spanning the whole
//! coordinate range is one entry, not a bucket for each of its 2⁸⁰-odd
//! cells. A [`FlatGrid`]'s array is bounded the same way: its cells grow
//! until there are at most four per item (64 at least), so far-apart
//! items make coarse cells, never a chip-sized array. Coordinates come
//! from outside the program, so the file denies
//! `clippy::arithmetic_side_effects`: every cell count is taken in
//! `u128` or saturates, and the hash and the counters say how they wrap
//! or why they cannot.

#![deny(clippy::arithmetic_side_effects)]

use crate::{Coord, Point, Rect};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Hashes a grid cell's `(x, y)` key with two folded multiplies: `x`
/// masked with the first key word is multiplied out to 128 bits and
/// folded onto itself, `y` masked with the second key word is xor-ed
/// in, and the sum is multiplied and folded once more.
///
/// Cell coordinates come from outside the program (CIF text, edit
/// JSON), so the hash is **keyed per index with process-random bits**
/// ([`std::collections::hash_map::RandomState`], as the string
/// interner's is): what a changed coordinate bit does to the first
/// product depends on the carries of a masked word nobody outside can
/// read, so no difference in `y` can be prepared ahead of time to
/// cancel it, and a file cannot pile its cells into one bucket. Every
/// output bit depends on every bit of both coordinates, which the map
/// needs of its low bits (the bucket) and its top seven (the control
/// tag) alike — also under a degenerate key, which the unit test
/// forces. This is not a PRF as the standard library's SipHash is — it
/// does not claim to resist a caller who can *measure* the key — and it
/// is several times cheaper per lookup, which every insert, query and
/// remove pays per covered cell. Nothing iterates the map, so no order
/// can leak.
#[derive(Debug, Clone)]
struct CellKeyHash([u64; 2]);

impl CellKeyHash {
    fn new_random() -> Self {
        let word = || {
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
        };
        CellKeyHash([word(), word()])
    }
}

impl BuildHasher for CellKeyHash {
    type Hasher = CellKeyHasher;

    fn build_hasher(&self) -> CellKeyHasher {
        CellKeyHasher {
            words: self.0,
            next: 0,
        }
    }
}

/// See [`CellKeyHash`]: `words` starts as the key and takes the two
/// coordinates xor-ed in.
struct CellKeyHasher {
    words: [u64; 2],
    next: usize,
}

impl Hasher for CellKeyHasher {
    fn finish(&self) -> u64 {
        let fold = |a: u64, b: u64| {
            // A 64 × 64-bit product fits 128 bits: the wrap never
            // happens, it only says so.
            let product = u128::from(a).wrapping_mul(u128::from(b));
            product as u64 ^ product.wrapping_shr(64) as u64
        };
        let x = fold(self.words[0], 0x9E37_79B9_7F4A_7C15);
        fold(x ^ self.words[1], 0xD6E8_FEB8_6659_FD93)
    }

    fn write(&mut self, _: &[u8]) {
        // invariant: the only key type of the map is `(Coord, Coord)`.
        unreachable!("the cell map is keyed by coordinate pairs only")
    }

    fn write_u64(&mut self, coordinate: u64) {
        // The key is a pair: the coordinates alternate between the words.
        self.words[self.next] ^= coordinate;
        self.next ^= 1;
    }

    fn write_i64(&mut self, coordinate: i64) {
        self.write_u64(coordinate as u64);
    }
}

/// A uniform-grid spatial index mapping rectangles to payload values.
///
/// # Example
///
/// ```
/// use diic_geom::{GridIndex, Rect};
/// let mut idx = GridIndex::new(100);
/// idx.insert(Rect::new(0, 0, 50, 50), "a");
/// idx.insert(Rect::new(500, 500, 550, 550), "b");
/// let near_origin = idx.query(&Rect::new(0, 0, 60, 60));
/// assert_eq!(near_origin, vec![&"a"]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell: Coord,
    items: Vec<(Rect, Option<T>)>,
    alive: usize,
    cells: HashMap<(Coord, Coord), Vec<u32>, CellKeyHash>,
    /// Handles of the live items too wide for the cells, ascending:
    /// every query tests them directly.
    wide: Vec<u32>,
}

/// The cell count a rectangle must pass to be *wide* in an index of
/// fewer slots than this (see the module docs): a small index still
/// walks a query's cells, and files an item under each of its cells.
const WIDE_FLOOR: usize = 64;

/// The cell keys a rectangle covers, as inclusive `(x, y)` key ranges.
#[derive(Debug, Clone, Copy)]
struct CellSpan {
    x: (Coord, Coord),
    y: (Coord, Coord),
}

impl CellSpan {
    /// The cells `r` covers at cells `cell` wide (`cell` ≥ 1).
    fn of(r: &Rect, cell: Coord) -> CellSpan {
        CellSpan {
            x: (r.x1.div_euclid(cell), r.x2.div_euclid(cell)),
            y: (r.y1.div_euclid(cell), r.y2.div_euclid(cell)),
        }
    }

    /// How many cells the span covers, saturating (`u64` holds the
    /// side of any span; the product of two may not).
    fn count(&self) -> u64 {
        let (x, y) = self.sides();
        x.saturating_mul(y)
    }

    /// How many cells the span covers along x and along y.
    fn sides(&self) -> (u64, u64) {
        let side = |(lo, hi): (Coord, Coord)| match hi < lo {
            true => 0,
            false => hi.abs_diff(lo).saturating_add(1),
        };
        (side(self.x), side(self.y))
    }

    /// True if the two spans cover a common cell.
    fn meets(&self, other: &CellSpan) -> bool {
        let overlap = |a: (Coord, Coord), b: (Coord, Coord)| a.0.max(b.0) <= a.1.min(b.1);
        overlap(self.x, other.x) && overlap(self.y, other.y)
    }

    fn keys(self) -> impl Iterator<Item = (Coord, Coord)> {
        let (y1, y2) = self.y;
        (self.x.0..=self.x.1).flat_map(move |kx| (y1..=y2).map(move |ky| (kx, ky)))
    }
}

/// The ascending merge of two ascending handle lists: a cell's and the
/// side list of wide items.
struct Ascending<'a>(&'a [u32], &'a [u32]);

impl Iterator for Ascending<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match (self.0.split_first(), self.1.split_first()) {
            (Some((&b, rest)), Some((&a, _))) if a > b => {
                self.0 = rest;
                Some(b)
            }
            (Some((&b, rest)), None) => {
                self.0 = rest;
                Some(b)
            }
            (_, Some((&a, rest))) => {
                self.1 = rest;
                Some(a)
            }
            (None, None) => None,
        }
    }
}

impl<T> GridIndex<T> {
    /// Creates an index with the given cell size (clamped to ≥ 1).
    /// A good cell size is a few times the typical feature pitch.
    pub fn new(cell_size: Coord) -> Self {
        GridIndex {
            cell: cell_size.max(1),
            items: Vec::new(),
            alive: 0,
            cells: HashMap::with_hasher(CellKeyHash::new_random()),
            wide: Vec::new(),
        }
    }

    /// The configured cell size.
    pub fn cell_size(&self) -> Coord {
        self.cell
    }

    /// Number of live indexed items.
    pub fn len(&self) -> usize {
        self.alive
    }

    /// True if no live items remain.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// Number of tombstoned item slots: handles that were removed but
    /// whose slots still occupy memory (handles are never reused, so
    /// slots accumulate under insert/remove churn until
    /// [`GridIndex::compact`] repacks them).
    pub fn tombstones(&self) -> usize {
        // invariant: every live item holds a slot, so this never saturates.
        self.items.len().saturating_sub(self.alive)
    }

    /// The slot count as a handle bound: handles are `u32`, so an index
    /// holds at most 2³² slots.
    fn slot_count(&self) -> u32 {
        // invariant: `insert` refuses the slot past `u32::MAX`.
        u32::try_from(self.items.len()).expect("slots are addressed by u32 handles")
    }

    /// Rebuilds the index in place, dropping every tombstoned slot and
    /// repacking the cell buckets — the recovery path for an index that
    /// has served heavy insert/remove churn (an edit session's
    /// persistent element index), whose slot vector and per-cell
    /// bookkeeping otherwise grow monotonically.
    ///
    /// Live items keep their relative (insertion) order, so queries
    /// return exactly the same payloads in exactly the same order as
    /// before the compaction. Handles are renumbered densely; the
    /// returned map gives each old handle's new handle (`None` for
    /// slots that were already dead). Callers holding handles must
    /// remap them.
    pub fn compact(&mut self) -> Vec<Option<u32>> {
        let old_items = std::mem::take(&mut self.items);
        self.cells.clear();
        self.wide.clear();
        self.alive = 0;
        let mut map = vec![None; old_items.len()];
        for (old_id, (rect, value)) in old_items.into_iter().enumerate() {
            if let Some(v) = value {
                map[old_id] = Some(self.insert(rect, v));
            }
        }
        map
    }

    /// Inserts a rectangle with its payload, returning a stable handle
    /// for [`GridIndex::remove`] / [`GridIndex::get`]. Handles are never
    /// reused, so query results stay in insertion order across
    /// incremental updates. A rectangle covering more cells than the
    /// index has slots (and more than 64) goes on the side list
    /// instead of into the cells.
    pub fn insert(&mut self, rect: Rect, value: T) -> u32 {
        // invariant: 2³² live slots would be hundreds of GB of items.
        let id = u32::try_from(self.items.len()).expect("slots are addressed by u32 handles");
        let span = self.span(&rect);
        if self.is_wide(&span) {
            self.wide.push(id);
        } else {
            for key in span.keys() {
                self.cells.entry(key).or_default().push(id);
            }
        }
        self.items.push((rect, Some(value)));
        // invariant: `alive` counts slots, which `u32` handles bound.
        self.alive = self.alive.saturating_add(1);
        id
    }

    /// Removes the item behind a handle, returning its payload (or
    /// `None` if the handle was already removed). The item's grid cells
    /// are cleaned eagerly, so query cost does not degrade under
    /// insert/remove churn — this is the incremental-update path the
    /// edit-session checker leans on.
    pub fn remove(&mut self, id: u32) -> Option<T> {
        let slot = self.items.get_mut(id as usize)?;
        let value = slot.1.take()?;
        let rect = slot.0;
        // invariant: the slot was live, so it was counted.
        self.alive = self.alive.saturating_sub(1);
        if let Ok(at) = self.wide.binary_search(&id) {
            self.wide.remove(at);
            return Some(value);
        }
        for key in self.span(&rect).keys() {
            if let Some(cell) = self.cells.get_mut(&key) {
                cell.retain(|&i| i != id);
                if cell.is_empty() {
                    self.cells.remove(&key);
                }
            }
        }
        Some(value)
    }

    /// The live item behind a handle.
    pub fn get(&self, id: u32) -> Option<(&Rect, &T)> {
        let (rect, value) = self.items.get(id as usize)?;
        value.as_ref().map(|v| (rect, v))
    }

    /// Returns payload references for all live items whose rectangle
    /// **touches** the query rectangle (closed-sense). Each item is
    /// returned once, in insertion order.
    pub fn query(&self, query: &Rect) -> Vec<&T> {
        self.query_handles(query)
            .into_iter()
            .map(|id| {
                self.items[id as usize]
                    .1
                    .as_ref()
                    .expect("matching ids are live")
            })
            .collect()
    }

    /// Like [`GridIndex::query`] but returns `(rect, payload)` pairs.
    pub fn query_pairs(&self, query: &Rect) -> Vec<(&Rect, &T)> {
        self.query_handles(query)
            .into_iter()
            .map(|id| {
                let (rect, value) = &self.items[id as usize];
                (rect, value.as_ref().expect("matching ids are live"))
            })
            .collect()
    }

    /// True if any live item touches the query rectangle — the
    /// allocation-free predicate form of [`GridIndex::query`], for hot
    /// "does this bbox touch the dirty region" loops.
    pub fn touches_any(&self, query: &Rect) -> bool {
        let span = self.span(query);
        if self.is_wide(&span) {
            return self.iter().any(|(rect, _)| rect.touches(query));
        }
        let touches = |id: &u32| self.items[*id as usize].0.touches(query);
        for key in span.keys() {
            if let Some(cell) = self.cells.get(&key) {
                if cell.iter().any(touches) {
                    return true;
                }
            }
        }
        self.wide.iter().any(touches)
    }

    /// Payloads of the live items whose rectangle contains `p`
    /// (closed-sense), in insertion order — exactly what
    /// [`GridIndex::query`] answers for the degenerate rectangle at `p`,
    /// without allocating: a point lies in one cell, and a cell lists its
    /// items once each in insertion order, so all there is to do is
    /// merge it with the side list of wide items, which ascends too.
    pub fn at(&self, p: Point) -> impl Iterator<Item = &T> + '_ {
        let key = (p.x.div_euclid(self.cell), p.y.div_euclid(self.cell));
        let cell = self.cells.get(&key).map_or(&[][..], Vec::as_slice);
        Ascending(cell, &self.wide).filter_map(move |id| {
            let (rect, value) = &self.items[id as usize];
            // Cells and the side list hold live items only.
            value.as_ref().filter(|_| rect.contains_point(p))
        })
    }

    /// Handles (ascending, deduplicated) of the live items that share a
    /// grid cell with the query — a superset of the items touching it,
    /// for a caller that applies its own test to each
    /// ([`GridIndex::get`] resolves a handle) and wants to know how many
    /// it made.
    pub fn candidates(&self, query: &Rect) -> Vec<u32> {
        let span = self.span(query);
        if self.is_wide(&span) {
            return self.scan_candidates(&span).collect();
        }
        let mut ids: Vec<u32> = Vec::new();
        for key in span.keys() {
            if let Some(cell) = self.cells.get(&key) {
                ids.extend_from_slice(cell);
            }
        }
        self.add_wide_candidates(&span, &mut ids);
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// [`GridIndex::candidates`] of several queries at once: the
    /// ascending, deduplicated union of their answers. Each cell the
    /// queries cover is visited once however many of them cover it, and
    /// the handles are sorted once — for a caller whose queries overlap
    /// (an edit's inflated footprints).
    pub fn candidates_many(&self, queries: &[Rect]) -> Vec<u32> {
        let (mut ids, mut keys) = (Vec::new(), Vec::new());
        for query in queries {
            let span = self.span(query);
            if self.is_wide(&span) {
                ids.extend(self.scan_candidates(&span));
            } else {
                keys.extend(span.keys());
                self.add_wide_candidates(&span, &mut ids);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            if let Some(cell) = self.cells.get(&key) {
                ids.extend_from_slice(cell);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Handles (ascending, deduplicated) of the live items whose
    /// rectangles touch the query — [`GridIndex::query`] for a caller
    /// that keys its own table by handle. Work is proportional to the
    /// covered cells' occupancy, not to the total item count, so hot
    /// query loops stay cheap on large indexes. Removed items never
    /// appear (their handles were scrubbed from the cells).
    pub fn query_handles(&self, query: &Rect) -> Vec<u32> {
        let mut ids = self.candidates(query);
        ids.retain(|&id| self.items[id as usize].0.touches(query));
        ids
    }

    /// Iterates over all live `(rect, payload)` items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Rect, &T)> {
        self.items
            .iter()
            .filter_map(|(r, t)| t.as_ref().map(|v| (r, v)))
    }

    /// Adds to `ids` the wide items that share a cell with `span` — the
    /// candidates the cells do not list.
    fn add_wide_candidates(&self, span: &CellSpan, ids: &mut Vec<u32>) {
        let meets = |id: &&u32| self.span(&self.items[**id as usize].0).meets(span);
        ids.extend(self.wide.iter().filter(meets));
    }

    /// Every live item that shares a cell with `span`, ascending, by a
    /// scan of the slots: the candidates of a query too wide to walk cell
    /// by cell.
    fn scan_candidates<'a>(&'a self, span: &'a CellSpan) -> impl Iterator<Item = u32> + 'a {
        (0..self.slot_count()).filter(|&id| {
            let (rect, value) = &self.items[id as usize];
            value.is_some() && self.span(rect).meets(span)
        })
    }

    /// True if a rectangle over `span` is too wide for the cells: it
    /// covers more of them than the index has slots, and more than
    /// [`WIDE_FLOOR`].
    fn is_wide(&self, span: &CellSpan) -> bool {
        let slots = self.items.len().max(WIDE_FLOOR);
        span.count() > u64::try_from(slots).unwrap_or(u64::MAX)
    }

    /// The cells a rectangle covers.
    fn span(&self, r: &Rect) -> CellSpan {
        CellSpan::of(r, self.cell)
    }
}

/// A uniform grid built once over a list of rectangles and then only
/// queried (see the module docs). Queries answer **positions** in that
/// list, ascending, so a caller keeps its own table of what each
/// position stands for.
///
/// The grid covers the bounding box of its items with a dense array of
/// `nx × ny` cells, each a run of `entries` between two `starts`. The
/// cells are the caller's size or larger: the size doubles until there
/// are at most `max(4n, 64)` of them. An item covering more cells (at the
/// caller's size) than `max(n, 64)` goes on a side list instead, which
/// every query tests directly.
///
/// # Example
///
/// ```
/// use diic_geom::{FlatGrid, Point, Rect};
/// let grid = FlatGrid::new(vec![Rect::new(0, 0, 50, 50), Rect::new(500, 500, 550, 550)], 100);
/// let mut hits = Vec::new();
/// grid.query_into(&Rect::new(0, 0, 60, 60), &mut hits);
/// assert_eq!(hits, [0]);
/// assert!(grid.touches_any(&Rect::new(550, 550, 600, 600)));
/// assert_eq!(grid.at(Point::new(520, 510)).collect::<Vec<_>>(), [1]);
/// ```
#[derive(Debug, Clone)]
pub struct FlatGrid {
    rects: Vec<Rect>,
    cell: Coord,
    /// The cell key `(x, y)` of the array's first cell.
    origin: (Coord, Coord),
    /// Columns and rows of the array; cell `(x, y)` is number
    /// `y · nx + x`.
    nx: usize,
    ny: usize,
    /// Cell `c` holds `entries[starts[c] .. starts[c + 1]]`.
    starts: Vec<u32>,
    /// The positions each cell holds, ascending within a cell.
    entries: Vec<u32>,
    /// Positions of the items too wide for the cells, ascending.
    wide: Vec<u32>,
}

/// The array cells a rectangle covers: inclusive column and row ranges.
type LocalSpan = ((usize, usize), (usize, usize));

impl FlatGrid {
    /// Indexes `rects` (position `k` is `rects[k]`) over cells at least
    /// `cell_size` wide (clamped to ≥ 1): counted, prefix-summed and
    /// filled in two passes over the items.
    pub fn new(rects: Vec<Rect>, cell_size: Coord) -> FlatGrid {
        // invariant: 2³² rectangles would be over a hundred GB.
        let n = u32::try_from(rects.len()).expect("positions are addressed by u32");
        let base = cell_size.max(1);
        let slots = u64::try_from(rects.len().max(WIDE_FLOOR)).unwrap_or(u64::MAX);
        let (mut wide, mut bounds) = (Vec::new(), None::<Rect>);
        for (k, r) in (0..n).zip(&rects) {
            if CellSpan::of(r, base).count() > slots {
                wide.push(k);
            } else {
                bounds = Some(bounds.map_or(*r, |b| b.bounding_union(r)));
            }
        }
        let mut grid = FlatGrid {
            rects,
            cell: base,
            origin: (0, 0),
            nx: 0,
            ny: 0,
            starts: vec![0],
            entries: Vec::new(),
            wide,
        };
        let Some(bounds) = bounds else {
            return grid;
        };
        let limit = u128::from(n).saturating_mul(4).max(WIDE_FLOOR as u128);
        let cells_at = |cell: Coord| {
            let (x, y) = CellSpan::of(&bounds, cell).sides();
            u128::from(x).saturating_mul(u128::from(y))
        };
        // Terminates: at `Coord::MAX` any box covers at most 4 × 4 cells.
        while cells_at(grid.cell) > limit {
            grid.cell = grid.cell.saturating_mul(2);
        }
        let span = CellSpan::of(&bounds, grid.cell);
        let (nx, ny) = span.sides();
        // invariant: the array holds at most `max(4n, 64)` cells.
        let side = |s: u64| usize::try_from(s).expect("the array is bounded by the items");
        (grid.origin, grid.nx, grid.ny) = ((span.x.0, span.y.0), side(nx), side(ny));
        let cells = grid.nx.saturating_mul(grid.ny);

        // Pass 1: `starts[c]` counts cell `c`'s entries, then holds where
        // they end. Pass 2 walks the items backwards and fills each cell
        // from its end, so a cell lists its positions ascending and
        // `starts[c]` ends up where they begin.
        let mut starts = vec![0u32; cells.saturating_add(1)];
        let filed = |k: &u32| grid.wide.binary_search(k).is_err();
        for k in (0..n).filter(filed) {
            for c in grid.cells_of(grid.local_span(&grid.rects[k as usize])) {
                starts[c] = starts[c].saturating_add(1);
            }
        }
        let mut total = 0u32;
        for start in &mut starts {
            // invariant: a grid of 2³² entries would be sixteen GB of them.
            total = total
                .checked_add(*start)
                .expect("entries are addressed by u32");
            *start = total;
        }
        let mut entries = vec![0u32; total as usize];
        for k in (0..n).rev().filter(filed) {
            for c in grid.cells_of(grid.local_span(&grid.rects[k as usize])) {
                // invariant: pass 1 counted this entry into the cell.
                starts[c] = starts[c].saturating_sub(1);
                entries[starts[c] as usize] = k;
            }
        }
        (grid.starts, grid.entries) = (starts, entries);
        grid
    }

    /// The indexed rectangles, by position.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The cell size the grid chose: the caller's, or a power-of-two
    /// multiple of it.
    pub fn cell_size(&self) -> Coord {
        self.cell
    }

    /// Cells in the dense array: at most `max(4n, 64)`.
    pub fn cell_count(&self) -> usize {
        self.nx.saturating_mul(self.ny)
    }

    /// Replaces `out` with the positions of the rectangles that
    /// **touch** `query` (closed-sense), ascending, each once — what
    /// [`GridIndex::query_handles`] answers for the same rectangles
    /// inserted in order. Nothing is allocated once `out` has grown to
    /// the answer's size.
    pub fn query_into(&self, query: &Rect, out: &mut Vec<u32>) {
        out.clear();
        let touches = |k: &&u32| self.rects[**k as usize].touches(query);
        let mut sorted = true;
        if let Some(span) = self.local_span(query) {
            if self.is_wide_query(span) {
                let all = (0u32..).zip(&self.rects);
                out.extend(all.filter(|(_, r)| r.touches(query)).map(|(k, _)| k));
                return;
            }
            let ((x1, x2), (y1, y2)) = span;
            for y in y1..=y2 {
                out.extend(self.row_run(y, x1, x2).iter().filter(touches));
            }
            sorted = x1 == x2 && y1 == y2;
        }
        let cells = out.len();
        out.extend(self.wide.iter().filter(touches));
        if !sorted || (cells > 0 && out.len() > cells) {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// True if any rectangle touches `query` — [`FlatGrid::query_into`]
    /// without the answer.
    pub fn touches_any(&self, query: &Rect) -> bool {
        let touches = |k: &u32| self.rects[*k as usize].touches(query);
        if let Some(span) = self.local_span(query) {
            if self.is_wide_query(span) {
                return self.rects.iter().any(|r| r.touches(query));
            }
            let ((x1, x2), (y1, y2)) = span;
            if (y1..=y2).any(|y| self.row_run(y, x1, x2).iter().any(touches)) {
                return true;
            }
        }
        self.wide.iter().any(touches)
    }

    /// Positions of the rectangles that contain `p` (closed-sense),
    /// ascending: one cell merged with the side list, nothing allocated.
    pub fn at(&self, p: Point) -> impl Iterator<Item = u32> + '_ {
        let local = |v: Coord, origin: Coord, len: usize| {
            let k = v.div_euclid(self.cell).checked_sub(origin)?;
            usize::try_from(k).ok().filter(|&k| k < len)
        };
        let cell = local(p.x, self.origin.0, self.nx)
            .zip(local(p.y, self.origin.1, self.ny))
            .map_or(&[][..], |(x, y)| self.row_run(y, x, x));
        Ascending(cell, &self.wide).filter(move |&k| self.rects[k as usize].contains_point(p))
    }

    /// The array cells `r` covers, clamped to the array; `None` if it
    /// misses the array.
    fn local_span(&self, r: &Rect) -> Option<LocalSpan> {
        let span = CellSpan::of(r, self.cell);
        let axis = |(lo, hi): (Coord, Coord), origin: Coord, len: usize| {
            let last = i128::try_from(len.checked_sub(1)?).ok()?;
            let (lo, hi) = (
                i128::from(lo).saturating_sub(origin.into()),
                i128::from(hi).saturating_sub(origin.into()),
            );
            let clamp = |v: i128| usize::try_from(v.clamp(0, last)).ok();
            (hi >= 0 && lo <= last).then_some(())?;
            Some((clamp(lo)?, clamp(hi)?))
        };
        Some((
            axis(span.x, self.origin.0, self.nx)?,
            axis(span.y, self.origin.1, self.ny)?,
        ))
    }

    /// True if a query over `span` should scan the items rather than
    /// walk its cells: it covers more cells than there are items.
    fn is_wide_query(&self, ((x1, x2), (y1, y2)): LocalSpan) -> bool {
        let side = |lo: usize, hi: usize| hi.saturating_sub(lo).saturating_add(1);
        side(x1, x2).saturating_mul(side(y1, y2)) > self.rects.len()
    }

    /// Cell numbers of a local span (none for `None`).
    fn cells_of(&self, span: Option<LocalSpan>) -> impl Iterator<Item = usize> {
        let nx = self.nx;
        span.into_iter().flat_map(move |((x1, x2), (y1, y2))| {
            (y1..=y2).flat_map(move |y| {
                let row = y.saturating_mul(nx);
                (x1..=x2).map(move |x| row.saturating_add(x))
            })
        })
    }

    /// The entries of the cells `x1 ..= x2` of row `y`: one slice, as a
    /// row's cells are consecutive in the array.
    fn row_run(&self, y: usize, x1: usize, x2: usize) -> &[u32] {
        let row = y.saturating_mul(self.nx);
        let from = self.starts[row.saturating_add(x1)] as usize;
        let to = self.starts[row.saturating_add(x2).saturating_add(1)] as usize;
        &self.entries[from..to]
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;

    #[test]
    fn empty_index() {
        let idx: GridIndex<u32> = GridIndex::new(100);
        assert!(idx.is_empty());
        assert!(idx.query(&Rect::new(0, 0, 10, 10)).is_empty());
    }

    #[test]
    fn cell_hash_is_keyed_per_index_and_spreads_a_dense_grid() {
        let hash = |key: &CellKeyHash, cell: (Coord, Coord)| key.hash_one(cell);
        let (a, b) = (CellKeyHash::new_random(), CellKeyHash::new_random());
        assert_ne!(a.0, b.0, "two indexes must not share a key");
        assert_ne!(hash(&a, (3, 4)), hash(&b, (3, 4)));
        assert_ne!(hash(&a, (3, 4)), hash(&a, (4, 3)));
        // A dense 64 × 64 block of cells (what a chip is) over 256
        // buckets and over the 128 control tags: no bucket or tag may
        // collect more than a few times its share of 16 / 32.
        for key in [a, b, CellKeyHash([1, 1]), CellKeyHash([0, u64::MAX])] {
            let (mut buckets, mut tags) = ([0u32; 256], [0u32; 128]);
            for x in -32..32 {
                for y in -32..32 {
                    let h = hash(&key, (x, y));
                    buckets[(h & 255) as usize] += 1;
                    tags[(h >> 57) as usize] += 1;
                }
            }
            assert!(buckets.iter().all(|&n| n < 64), "{key:?}: {buckets:?}");
            assert!(tags.iter().all(|&n| n < 128), "{key:?}: {tags:?}");
        }
    }

    #[test]
    fn candidates_are_a_superset_of_the_query() {
        let mut idx = GridIndex::new(100);
        let near = idx.insert(Rect::new(0, 0, 10, 10), 'a');
        let same_cell = idx.insert(Rect::new(60, 60, 70, 70), 'b');
        idx.insert(Rect::new(500, 500, 510, 510), 'c');
        let query = Rect::new(0, 0, 20, 20);
        assert_eq!(idx.candidates(&query), vec![near, same_cell]);
        assert_eq!(idx.query(&query), vec![&'a']);
    }

    #[test]
    fn at_visits_what_a_point_query_returns() {
        // Random rects (many spanning several cells, some degenerate)
        // around the origin, probed on cell boundaries and at negative
        // coordinates — fresh, after removals, and after a compaction.
        use proptest::TestRng;
        let agree = |idx: &GridIndex<u32>, rng: &mut TestRng, stage: &str| {
            let mut hits = 0;
            for k in 0..400 {
                let coord = |rng: &mut TestRng| match k % 3 {
                    0 => (rng.below(13) as i64 - 6) * 25, // a cell boundary
                    _ => rng.below(300) as i64 - 150,
                };
                let p = Point::new(coord(rng), coord(rng));
                let visited: Vec<u32> = idx.at(p).copied().collect();
                let queried: Vec<u32> = (idx.query(&Rect::new(p.x, p.y, p.x, p.y)).into_iter())
                    .copied()
                    .collect();
                assert_eq!(visited, queried, "{stage}: {p:?}");
                hits += visited.len();
            }
            assert!(
                hits > 200,
                "{stage}: the probes must hit something ({hits})"
            );
        };
        for case in 0..16 {
            let rng = &mut TestRng::for_case(0xA7, case);
            let mut idx = GridIndex::new(25);
            let handles: Vec<u32> = (0..120)
                .map(|v| {
                    let (x, y) = (rng.below(300) as i64 - 150, rng.below(300) as i64 - 150);
                    let (w, h) = (rng.below(80) as i64, rng.below(80) as i64);
                    idx.insert(Rect::new(x, y, x + w, y + h), v)
                })
                .collect();
            agree(&idx, rng, "fresh");
            for &h in handles.iter().filter(|&&h| h % 3 == 0) {
                idx.remove(h);
            }
            agree(&idx, rng, "after remove");
            idx.compact();
            agree(&idx, rng, "after compact");
        }
        let empty: GridIndex<u32> = GridIndex::new(25);
        assert_eq!(empty.at(Point::new(0, 0)).count(), 0);
    }

    /// The live handles whose rectangle shares a grid cell with `query`,
    /// ascending — what [`GridIndex::candidates`] answers, by a scan.
    fn sharing_a_cell<T>(idx: &GridIndex<T>, query: &Rect) -> Vec<u32> {
        let q = idx.span(query);
        (0..idx.slot_count())
            .filter(|&h| idx.get(h).is_some_and(|(r, _)| idx.span(r).meets(&q)))
            .collect()
    }

    #[test]
    fn candidates_many_is_the_union_of_candidates() {
        let mut idx = GridIndex::new(100);
        let handles: Vec<u32> = (0..12i64)
            .map(|i| idx.insert(Rect::new(i * 150, 0, i * 150 + 120, 80), i))
            .collect();
        let union = |idx: &GridIndex<i64>, queries: &[Rect]| {
            let mut all: Vec<u32> = queries.iter().flat_map(|q| idx.candidates(q)).collect();
            all.sort_unstable();
            all.dedup();
            all
        };
        assert!(idx.candidates_many(&[]).is_empty());
        // Repeated and overlapping queries: each handle once, ascending.
        let a = Rect::new(0, 0, 250, 50);
        let b = Rect::new(200, 0, 650, 50);
        let far = Rect::new(5000, 5000, 5100, 5100);
        for queries in [vec![a], vec![a, a], vec![b, a, b], vec![a, b, far]] {
            assert_eq!(idx.candidates_many(&queries), union(&idx, &queries));
        }
        assert_eq!(idx.candidates_many(&[a, a]), idx.candidates(&a));
        assert!(idx.candidates_many(&[far]).is_empty());
        // Handles removed before the call never come back.
        idx.remove(handles[1]);
        idx.remove(handles[3]);
        let got = idx.candidates_many(&[a, b]);
        assert_eq!(got, union(&idx, &[a, b]));
        assert!(!got.contains(&handles[1]) && !got.contains(&handles[3]));
        assert!(got.contains(&handles[2]));
    }

    #[test]
    fn a_box_spanning_the_coordinate_range_stays_out_of_the_cells() {
        // At the cell size of the NMOS interaction search a box over
        // ±MAX_COORD covers ~2⁸³ cells: filed cell by cell it would ask
        // for more memory than there is.
        let m = crate::MAX_COORD;
        let mut idx = GridIndex::new(3000);
        let small = idx.insert(Rect::new(0, 0, 2000, 750), "small");
        let huge = idx.insert(Rect::new(-m, -m, m, m), "huge");
        let wire = idx.insert(Rect::new(-m, 100, m, 600), "wire");
        assert_eq!(idx.wide, [huge, wire]);
        assert!(idx.cells.len() <= 2, "{} cells", idx.cells.len());
        let near = Rect::new(10, 10, 20, 200);
        assert_eq!(idx.query(&near), vec![&"small", &"huge", &"wire"]);
        assert_eq!(idx.candidates(&near), [small, huge, wire]);
        assert_eq!(idx.at(Point::new(m, m)).collect::<Vec<_>>(), vec![&"huge"]);
        assert!(idx.touches_any(&Rect::new(m, m, m, m)));
        // A query as wide scans the slots instead of walking its cells.
        let everywhere = Rect::new(-m, -m, m, m);
        assert_eq!(idx.query_handles(&everywhere), [small, huge, wire]);
        assert_eq!(
            idx.candidates_many(&[everywhere, near]),
            [small, huge, wire]
        );
        assert_eq!(idx.remove(huge), Some("huge"));
        assert_eq!(idx.wide, [wire]);
        assert_eq!(idx.query(&Rect::new(m, m, m, m)), Vec::<&&str>::new());
        let map = idx.compact();
        assert_eq!(map, [Some(0), None, Some(1)]);
        assert_eq!(idx.query(&everywhere), vec![&"small", &"wire"]);
        assert_eq!(idx.wide, [1]);
    }

    /// Random rectangles around the origin, one in eight wide (spanning
    /// hundreds of cells) and one in sixteen spanning the coordinate
    /// range.
    fn arb_rect() -> impl proptest::Strategy<Value = Rect> {
        use proptest::Strategy as _;
        (-40i64..40, -40i64..40, 0i64..8, 0i64..8, 0u8..16).prop_map(|(x, y, w, h, kind)| {
            let m = crate::MAX_COORD;
            match kind {
                0 => Rect::new(-m, y * 25, m, y * 25 + h * 25),
                1 | 2 => Rect::new(x * 25, y * 25, x * 25 + w * 2500, y * 25 + h * 2500),
                _ => Rect::new(x * 25, y * 25, x * 25 + w * 25, y * 25 + h * 25),
            }
        })
    }

    proptest::proptest! {
        #[test]
        fn every_query_answers_what_a_scan_of_the_slots_does(
            rects in proptest::collection::vec(arb_rect(), 0..90),
            removed in proptest::collection::vec(0usize..90, 0..30),
            queries in proptest::collection::vec(arb_rect(), 0..8),
        ) {
            let mut idx = GridIndex::new(25);
            for (v, r) in rects.iter().enumerate() {
                idx.insert(*r, v);
            }
            for &h in &removed {
                idx.remove(h as u32);
            }
            for stage in ["churned", "compacted"] {
                let mut union: Vec<u32> = Vec::new();
                for q in &queries {
                    let want = sharing_a_cell(&idx, q);
                    proptest::prop_assert_eq!(&idx.candidates(q), &want, "{} {:?}", stage, q);
                    union.extend(want);
                    let touching: Vec<u32> = (0..idx.slot_count())
                        .filter(|&h| idx.get(h).is_some_and(|(r, _)| r.touches(q)))
                        .collect();
                    proptest::prop_assert_eq!(&idx.query_handles(q), &touching);
                    proptest::prop_assert_eq!(idx.touches_any(q), !touching.is_empty());
                    let p = Point::new(q.x1, q.y2);
                    let at: Vec<usize> = idx.at(p).copied().collect();
                    let point = idx.query(&Rect::new(p.x, p.y, p.x, p.y));
                    proptest::prop_assert_eq!(at, point.into_iter().copied().collect::<Vec<_>>());
                }
                union.sort_unstable();
                union.dedup();
                proptest::prop_assert_eq!(idx.candidates_many(&queries), union);
                idx.compact();
            }
        }
    }

    #[test]
    fn query_returns_touching_items_once() {
        let mut idx = GridIndex::new(10);
        // Spans many cells; must still be returned exactly once.
        idx.insert(Rect::new(0, 0, 100, 100), 1u32);
        idx.insert(Rect::new(200, 200, 210, 210), 2);
        let hits = idx.query(&Rect::new(50, 50, 60, 60));
        assert_eq!(hits, vec![&1]);
    }

    #[test]
    fn closed_touch_semantics() {
        let mut idx = GridIndex::new(64);
        idx.insert(Rect::new(0, 0, 10, 10), "a");
        // Query sharing only the corner point (10,10).
        let hits = idx.query(&Rect::new(10, 10, 20, 20));
        assert_eq!(hits, vec![&"a"]);
        // Query 1 unit away: no hit.
        let miss = idx.query(&Rect::new(11, 11, 20, 20));
        assert!(miss.is_empty());
    }

    #[test]
    fn negative_coordinates() {
        let mut idx = GridIndex::new(50);
        idx.insert(Rect::new(-100, -100, -50, -50), 7u8);
        assert_eq!(idx.query(&Rect::new(-60, -60, -55, -55)), vec![&7]);
        assert!(idx.query(&Rect::new(0, 0, 10, 10)).is_empty());
    }

    #[test]
    fn dense_grid_all_found() {
        let mut idx = GridIndex::new(25);
        let mut expected = 0;
        for i in 0..20 {
            for j in 0..20 {
                idx.insert(Rect::new(i * 40, j * 40, i * 40 + 20, j * 40 + 20), (i, j));
                if i < 10 && j < 10 {
                    expected += 1;
                }
            }
        }
        let hits = idx.query(&Rect::new(0, 0, 10 * 40 - 21, 10 * 40 - 21));
        assert_eq!(hits.len(), expected);
    }

    #[test]
    fn query_pairs_exposes_rects() {
        let mut idx = GridIndex::new(100);
        let r = Rect::new(5, 5, 15, 15);
        idx.insert(r, 42u32);
        let pairs = idx.query_pairs(&Rect::new(0, 0, 10, 10));
        assert_eq!(pairs.len(), 1);
        assert_eq!(*pairs[0].0, r);
        assert_eq!(*pairs[0].1, 42);
    }

    #[test]
    fn len_and_iter() {
        let mut idx = GridIndex::new(10);
        idx.insert(Rect::new(0, 0, 5, 5), 'x');
        idx.insert(Rect::new(20, 20, 25, 25), 'y');
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.iter().count(), 2);
        assert_eq!(idx.cell_size(), 10);
    }

    #[test]
    fn remove_scrubs_cells_and_queries() {
        let mut idx = GridIndex::new(10);
        let a = idx.insert(Rect::new(0, 0, 50, 50), "a");
        let b = idx.insert(Rect::new(10, 10, 40, 40), "b");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.remove(a), Some("a"));
        assert_eq!(idx.remove(a), None, "double remove is a no-op");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.query(&Rect::new(0, 0, 100, 100)), vec![&"b"]);
        assert_eq!(idx.get(a), None);
        assert_eq!(idx.get(b).map(|(_, v)| *v), Some("b"));
        assert_eq!(idx.iter().count(), 1);
    }

    #[test]
    fn move_via_remove_and_insert() {
        // The incremental-update idiom the edit session uses: evict the
        // stale entry, insert the moved one (handles are never reused).
        let mut idx = GridIndex::new(10);
        let id = idx.insert(Rect::new(0, 0, 5, 5), 7u32);
        let v = idx.remove(id).unwrap();
        let id2 = idx.insert(Rect::new(100, 100, 105, 105), v);
        assert_ne!(id, id2, "handles are never reused");
        assert!(idx.query(&Rect::new(0, 0, 10, 10)).is_empty());
        assert_eq!(idx.query(&Rect::new(100, 100, 101, 101)), vec![&7]);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn incremental_churn_matches_fresh_build() {
        // Insert 60, remove every third, re-insert half: queries must
        // equal a from-scratch index over the surviving set.
        let mut idx = GridIndex::new(25);
        let mut ids = Vec::new();
        for i in 0..60i64 {
            ids.push(idx.insert(Rect::new(i * 30, 0, i * 30 + 20, 20), i));
        }
        for (k, &id) in ids.iter().enumerate() {
            if k % 3 == 0 {
                idx.remove(id);
            }
        }
        for i in 0..30i64 {
            if i % 2 == 0 {
                idx.insert(Rect::new(i * 30 + 5, 5, i * 30 + 15, 15), 100 + i);
            }
        }
        let mut fresh = GridIndex::new(25);
        let survivors: Vec<(Rect, i64)> = idx.iter().map(|(r, &v)| (*r, v)).collect();
        for (r, v) in &survivors {
            fresh.insert(*r, *v);
        }
        for q in 0..20i64 {
            let query = Rect::new(q * 90, 0, q * 90 + 100, 20);
            let got: Vec<i64> = idx.query(&query).into_iter().copied().collect();
            let want: Vec<i64> = fresh.query(&query).into_iter().copied().collect();
            assert_eq!(got, want, "churned index diverged for {query:?}");
        }
    }

    #[test]
    fn compact_preserves_queries_and_remaps_handles() {
        // Churn an index hard, snapshot its query answers, compact, and
        // demand byte-identical answers plus a sound handle map.
        let mut idx = GridIndex::new(25);
        let mut ids = Vec::new();
        for i in 0..80i64 {
            ids.push(idx.insert(Rect::new(i * 30, 0, i * 30 + 20, 20), i));
        }
        for (k, &id) in ids.iter().enumerate() {
            if k % 2 == 0 {
                idx.remove(id);
            }
        }
        for i in 0..20i64 {
            ids.push(idx.insert(Rect::new(i * 30 + 5, 5, i * 30 + 15, 15), 200 + i));
        }
        assert_eq!(idx.tombstones(), 40);
        let queries: Vec<Rect> = (0..30)
            .map(|q| Rect::new(q * 80, 0, q * 80 + 90, 20))
            .collect();
        let before: Vec<Vec<i64>> = queries
            .iter()
            .map(|q| idx.query(q).into_iter().copied().collect())
            .collect();
        let live_before: Vec<(Rect, i64)> = idx.iter().map(|(r, &v)| (*r, v)).collect();

        let map = idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.len(), live_before.len());
        let after: Vec<Vec<i64>> = queries
            .iter()
            .map(|q| idx.query(q).into_iter().copied().collect())
            .collect();
        assert_eq!(before, after, "compaction changed query answers");
        assert_eq!(
            idx.iter().map(|(r, &v)| (*r, v)).collect::<Vec<_>>(),
            live_before,
            "compaction reordered live items"
        );
        // Handle map: dead handles map to None, live ones resolve to the
        // same (rect, payload).
        for (k, &old) in ids.iter().enumerate() {
            let dead = k < 80 && k % 2 == 0;
            match map[old as usize] {
                None => assert!(dead, "live handle {old} lost in compaction"),
                Some(new) => {
                    assert!(!dead, "dead handle {old} resurrected");
                    assert!(idx.get(new).is_some());
                }
            }
        }
    }

    #[test]
    fn results_in_insertion_order() {
        let mut idx = GridIndex::new(10);
        // Inserted out of spatial order; both span several cells.
        idx.insert(Rect::new(50, 0, 120, 15), 2u32);
        idx.insert(Rect::new(0, 0, 100, 15), 1);
        assert_eq!(idx.query(&Rect::new(0, 0, 200, 200)), vec![&2, &1]);
    }

    #[test]
    fn concurrent_queries_are_deterministic() {
        // The parallel candidate searches assume a query answered from a
        // worker thread returns exactly what the same query returns
        // serially — same ids, same (insertion) order — because results
        // are sort-dedup'd from immutable buckets, never from per-query
        // mutable scratch.
        let mut idx = GridIndex::new(30);
        for i in 0..200i64 {
            // Overlapping rects spanning several cells, inserted out of
            // spatial order.
            let x = (i * 37) % 500;
            idx.insert(Rect::new(x, 0, x + 90, 60), i);
        }
        let queries: Vec<Rect> = (0..40)
            .map(|q| Rect::new(q * 13, 0, q * 13 + 120, 60))
            .collect();
        let serial: Vec<Vec<i64>> = queries
            .iter()
            .map(|q| idx.query(q).into_iter().copied().collect())
            .collect();
        let idx = &idx;
        let (serial, queries) = (&serial, &queries);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    for (q, expect) in queries.iter().zip(serial) {
                        let got: Vec<i64> = idx.query(q).into_iter().copied().collect();
                        assert_eq!(&got, expect, "concurrent query diverged for {q:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn shared_queries_across_threads() {
        // The parallel interaction search relies on `&GridIndex` being
        // usable from scoped worker threads.
        let mut idx = GridIndex::new(50);
        for i in 0..100i64 {
            idx.insert(Rect::new(i * 60, 0, i * 60 + 40, 40), i);
        }
        let idx = &idx;
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    s.spawn(move || {
                        (0..100)
                            .filter(|i| i % 4 == w)
                            .map(|i| idx.query(&Rect::new(i * 60, 0, i * 60 + 40, 40)).len())
                            .sum()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 100);
    }
}
