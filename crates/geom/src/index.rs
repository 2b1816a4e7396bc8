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
//!   are in compressed-row form — a `starts` offset per cell into one
//!   `entries` list of positions — counted, prefix-summed and filled
//!   backwards, so a query is a few slice reads: no hashing, and nothing
//!   allocated but the caller's reused buffer.
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
//! cells. A [`FlatGrid`] is bounded by its items as well. Its array is
//! dense only while that takes at most four cells per item (64 at
//! least), and past that it keeps only its occupied cells, found by key;
//! its cells stay the caller's size, so one far-away item neither makes
//! a chip-sized array nor crowds the rest into a few coarse cells. And
//! it files at most 16 entries per item, putting its longest items on
//! the side list past that, so long items far apart cannot make n²
//! entries. Coordinates come
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
/// The cells are the caller's size, always. Where a dense array over
/// the items' bounding box has at most `max(4n, 64)` cells, the grid is
/// that array, `nx × ny` cells each a run of `entries` between two
/// `starts`. Where it would have more — items far apart, as one box a
/// long way from a cluster — the grid keeps the same runs for the
/// occupied cells only, and finds a cell's run through their keys,
/// sorted by row and then by column. An item covering more cells than
/// `max(n, 64)` goes on a side list instead, which every query tests
/// directly, and so do the longest items once the rest would file more
/// than 16 entries per item (64 items at least).
///
/// Keying every grid would be one layout fewer, but a dense chip's
/// queries then binary-search rows and columns where the array indexes
/// them: the `edit-session` benchmark's median edit took 18 % longer.
///
/// # Example
///
/// ```
/// use diic_geom::{FlatGrid, Point, Rect};
/// let grid = FlatGrid::new(vec![Rect::new(0, 0, 50, 50), Rect::new(500, 500, 550, 550)], 100);
/// let mut hits = Vec::new();
/// let examined = grid.query_into(&Rect::new(0, 0, 60, 60), &mut hits);
/// assert_eq!((hits, examined), (vec![0], 1));
/// assert!(grid.touches_any(&Rect::new(550, 550, 600, 600)));
/// assert_eq!(grid.at(Point::new(520, 510)).collect::<Vec<_>>(), [1]);
/// ```
#[derive(Debug, Clone)]
pub struct FlatGrid {
    rects: Vec<Rect>,
    cell: Coord,
    /// How a cell's key finds its number.
    cells: Cells,
    /// Cell `c` holds `entries[starts[c] .. starts[c + 1]]`.
    starts: Vec<u32>,
    /// The positions each cell holds, ascending within a cell.
    entries: Vec<u32>,
    /// Positions of the items too wide for the cells, ascending.
    wide: Vec<u32>,
}

/// How a [`FlatGrid`] numbers its cells.
#[derive(Debug, Clone)]
enum Cells {
    /// Every cell of the items' bounding box: `nx` columns and `ny`
    /// rows from the key `origin`, cell `(x, y)` (relative to it)
    /// numbered `y · nx + x`.
    Dense {
        origin: (Coord, Coord),
        nx: usize,
        ny: usize,
    },
    /// The occupied cells only, numbered by row key and then by column
    /// key: the cells of row key `rows[r]` are numbers `firsts[r] ..
    /// firsts[r + 1]`, and cell `c`'s column key is `columns[c]`.
    /// `x_keys` is the least and the greatest column key.
    Keyed {
        rows: Vec<Coord>,
        firsts: Vec<u32>,
        columns: Vec<Coord>,
        x_keys: (Coord, Coord),
    },
}

/// The cells a query reads: rows of the grid (array rows, or positions
/// in a keyed grid's row list) and, in each, the columns `x` (relative
/// to the origin, or keys).
enum Window {
    /// The query misses every cell.
    Misses,
    /// The query covers more cells than there are items: test them all.
    Wide,
    Cells {
        rows: std::ops::Range<usize>,
        x: (Coord, Coord),
    },
}

impl FlatGrid {
    /// Indexes `rects` (position `k` is `rects[k]`) over cells
    /// `cell_size` wide (clamped to ≥ 1). Both forms file their entries
    /// in one counted, prefix-summed, backwards pass (`append_runs`):
    /// a dense grid over its array, a keyed one row by row.
    pub fn new(rects: Vec<Rect>, cell_size: Coord) -> FlatGrid {
        // invariant: 2³² rectangles would be over a hundred GB.
        let n = u32::try_from(rects.len()).expect("positions are addressed by u32");
        let cell = cell_size.max(1);
        let slots = u64::try_from(rects.len().max(WIDE_FLOOR)).unwrap_or(u64::MAX);
        let (mut wide, mut bounds, mut filed) = (Vec::new(), None::<Rect>, 0u64);
        for (k, r) in (0..n).zip(&rects) {
            let count = CellSpan::of(r, cell).count();
            if count > slots {
                wide.push(k);
            } else {
                bounds = Some(bounds.map_or(*r, |b| b.bounding_union(r)));
                filed = filed.saturating_add(count);
            }
        }
        if filed > slots.saturating_mul(ENTRIES_PER_SLOT) {
            bounds = set_aside_longest(&rects, cell, &mut wide, filed);
        }
        let mut grid = FlatGrid {
            rects,
            cell,
            cells: Cells::Dense {
                origin: (0, 0),
                nx: 0,
                ny: 0,
            },
            starts: vec![0],
            entries: Vec::new(),
            wide,
        };
        let Some(bounds) = bounds else {
            return grid;
        };
        let span = CellSpan::of(&bounds, cell);
        let (nx, ny) = span.sides();
        let limit = u128::from(n).saturating_mul(4).max(WIDE_FLOOR as u128);
        if u128::from(nx).saturating_mul(u128::from(ny)) > limit {
            grid.fill_keyed();
            return grid;
        }
        // invariant: the array holds at most `max(4n, 64)` cells.
        let side = |s: u64| usize::try_from(s).expect("the array is bounded by the items");
        let (nx, ny) = (side(nx), side(ny));
        let origin = (span.x.0, span.y.0);
        let (mut starts, mut entries) = (Vec::new(), Vec::new());
        let cover = |k: u32| {
            let span = CellSpan::of(&grid.rects[k as usize], cell);
            // invariant: the array spans every filed item.
            let ((x1, x2), (y1, y2)) =
                local_span(&span, origin, nx, ny).expect("a filed item lies in the array");
            Block {
                rows: y1..y2.saturating_add(1),
                stride: nx,
                columns: x1..x2.saturating_add(1),
            }
        };
        let positions = (0..n).filter(|k| grid.wide.binary_search(k).is_err());
        append_runs(
            &mut starts,
            &mut entries,
            nx.saturating_mul(ny),
            positions,
            cover,
        );
        starts.push(entry_number(entries.len()));
        grid.cells = Cells::Dense { origin, nx, ny };
        (grid.starts, grid.entries) = (starts, entries);
        grid
    }

    /// Builds the keyed form row by row: the occupied row keys, sorted;
    /// each filed position listed under every row it covers; then per
    /// row, its items' column keys, sorted — the row's cells — and each
    /// position filed under its cells. Nothing is held per entry but the
    /// entry itself.
    fn fill_keyed(&mut self) {
        let n = u32::try_from(self.rects.len()).unwrap_or(u32::MAX);
        let positions = || (0..n).filter(|k| self.wide.binary_search(k).is_err());
        let span = |k: u32| CellSpan::of(&self.rects[k as usize], self.cell);
        // The keys of `keys` in `(lo, hi)`, as a range of its indexes.
        let within = |keys: &[Coord], (lo, hi): (Coord, Coord)| {
            Block::line(
                keys.partition_point(|&key| key < lo)..keys.partition_point(|&key| key <= hi),
            )
        };
        let mut rows: Vec<Coord> = (positions().map(span))
            .flat_map(|s| s.y.0..=s.y.1)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let (mut in_row, mut listed) = (Vec::new(), Vec::new());
        append_runs(&mut in_row, &mut listed, rows.len(), positions(), |k| {
            within(&rows, span(k).y)
        });
        in_row.push(entry_number(listed.len()));

        let (mut firsts, mut columns, mut starts, mut entries) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut keys = Vec::new();
        for run in in_row.windows(2) {
            let items = &listed[run[0] as usize..run[1] as usize];
            keys.clear();
            keys.extend(items.iter().flat_map(|&k| {
                let s = span(k);
                s.x.0..=s.x.1
            }));
            keys.sort_unstable();
            keys.dedup();
            firsts.push(cell_number(columns.len()));
            let cover = |k| within(&keys, span(k).x);
            append_runs(
                &mut starts,
                &mut entries,
                keys.len(),
                items.iter().copied(),
                cover,
            );
            columns.extend_from_slice(&keys);
        }
        firsts.push(cell_number(columns.len()));
        starts.push(entry_number(entries.len()));
        let x_keys = (columns.iter().copied()).fold((Coord::MAX, Coord::MIN), |(lo, hi), x| {
            (lo.min(x), hi.max(x))
        });
        self.starts = starts;
        self.entries = entries;
        self.cells = Cells::Keyed {
            rows,
            firsts,
            columns,
            x_keys,
        };
    }

    /// The indexed rectangles, by position.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The cell size: the caller's (at least 1).
    pub fn cell_size(&self) -> Coord {
        self.cell
    }

    /// Cells the grid keeps a run for: the dense array (at most
    /// `max(4n, 64)` cells), or a keyed grid's occupied cells.
    pub fn cell_count(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Entries the cells hold, the side list not counted: at most
    /// `16 · max(n, 64)`, however long and far apart the items are.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// True if the grid keeps its occupied cells only, found by key —
    /// the dense array over its items would have been too large.
    pub fn is_keyed(&self) -> bool {
        matches!(self.cells, Cells::Keyed { .. })
    }

    /// Replaces `out` with the positions of the rectangles that
    /// **touch** `query` (closed-sense), ascending, each once — what
    /// [`GridIndex::query_handles`] answers for the same rectangles
    /// inserted in order — and returns how many candidates it examined
    /// to find them: the entries of the cells the query covers and the
    /// side list, or every rectangle for a query wider than the grid.
    /// Nothing is allocated once `out` has grown to the answer's size.
    pub fn query_into(&self, query: &Rect, out: &mut Vec<u32>) -> usize {
        out.clear();
        let touches = |k: &&u32| self.rects[**k as usize].touches(query);
        let mut sorted = true;
        let mut examined = self.wide.len();
        match self.window(query) {
            Window::Wide => {
                let all = (0u32..).zip(&self.rects);
                out.extend(all.filter(|(_, r)| r.touches(query)).map(|(k, _)| k));
                return self.rects.len();
            }
            Window::Misses => {}
            Window::Cells { rows, x } => {
                sorted = x.0 == x.1 && rows.len() == 1;
                for row in rows {
                    let run = self.run(row, x);
                    examined = examined.saturating_add(run.len());
                    out.extend(run.iter().filter(touches));
                }
            }
        }
        let cells = out.len();
        out.extend(self.wide.iter().filter(touches));
        if !sorted || (cells > 0 && out.len() > cells) {
            out.sort_unstable();
            out.dedup();
        }
        examined
    }

    /// True if any rectangle touches `query` — [`FlatGrid::query_into`]
    /// without the answer.
    pub fn touches_any(&self, query: &Rect) -> bool {
        let touches = |k: &u32| self.rects[*k as usize].touches(query);
        match self.window(query) {
            Window::Wide => return self.rects.iter().any(|r| r.touches(query)),
            Window::Misses => {}
            Window::Cells { mut rows, x } => {
                if rows.any(|row| self.run(row, x).iter().any(touches)) {
                    return true;
                }
            }
        }
        self.wide.iter().any(touches)
    }

    /// Positions of the rectangles that contain `p` (closed-sense),
    /// ascending: one cell merged with the side list, nothing allocated.
    pub fn at(&self, p: Point) -> impl Iterator<Item = u32> + '_ {
        let cell = match self.window(&Rect::new(p.x, p.y, p.x, p.y)) {
            Window::Cells { rows, x } if !rows.is_empty() => self.run(rows.start, x),
            _ => &[],
        };
        Ascending(cell, &self.wide).filter(move |&k| self.rects[k as usize].contains_point(p))
    }

    /// The cells a query over `r` reads.
    fn window(&self, r: &Rect) -> Window {
        let span = CellSpan::of(r, self.cell);
        let items = u64::try_from(self.rects.len()).unwrap_or(u64::MAX);
        match &self.cells {
            &Cells::Dense { origin, nx, ny } => {
                let Some(((x1, x2), (y1, y2))) = local_span(&span, origin, nx, ny) else {
                    return Window::Misses;
                };
                let side = |lo: usize, hi: usize| hi.saturating_sub(lo).saturating_add(1);
                if side(x1, x2).saturating_mul(side(y1, y2)) > self.rects.len() {
                    return Window::Wide;
                }
                // invariant: offsets into an array of at most `max(4n, 64)` cells.
                let offset = |v: usize| Coord::try_from(v).expect("an array offset");
                Window::Cells {
                    rows: y1..y2.saturating_add(1),
                    x: (offset(x1), offset(x2)),
                }
            }
            Cells::Keyed { rows, x_keys, .. } => {
                // The key range `(lo, hi)` clamped to `keys`.
                let clamp = |(lo, hi): (Coord, Coord), keys: (Coord, Coord)| {
                    (hi >= keys.0 && lo <= keys.1).then(|| (lo.max(keys.0), hi.min(keys.1)))
                };
                let (Some(&first), Some(&last)) = (rows.first(), rows.last()) else {
                    return Window::Misses;
                };
                let (Some(x), Some(y)) = (clamp(span.x, *x_keys), clamp(span.y, (first, last)))
                else {
                    return Window::Misses;
                };
                if (CellSpan { x, y }).count() > items {
                    return Window::Wide;
                }
                let from = rows.partition_point(|&k| k < y.0);
                let to = rows.partition_point(|&k| k <= y.1);
                Window::Cells { rows: from..to, x }
            }
        }
    }

    /// The entries of the cells in columns `x.0 ..= x.1` of row `row`:
    /// one slice, as a row's cells are consecutive in number.
    fn run(&self, row: usize, x: (Coord, Coord)) -> &[u32] {
        let (from, to) = match &self.cells {
            Cells::Dense { nx, .. } => {
                let first = row.saturating_mul(*nx);
                // invariant: a window's dense columns are offsets in the array.
                let at = |k: Coord| first.saturating_add(usize::try_from(k).expect("an offset"));
                (at(x.0), at(x.1).saturating_add(1))
            }
            Cells::Keyed {
                firsts, columns, ..
            } => {
                let first = firsts[row] as usize;
                let keys = &columns[first..firsts[row.saturating_add(1)] as usize];
                (
                    first.saturating_add(keys.partition_point(|&k| k < x.0)),
                    first.saturating_add(keys.partition_point(|&k| k <= x.1)),
                )
            }
        };
        &self.entries[self.starts[from] as usize..self.starts[to] as usize]
    }
}

/// The array cells `span` covers, clamped to an `nx × ny` array from
/// the key `origin`: inclusive column and row ranges, or `None` if it
/// misses the array.
fn local_span(span: &CellSpan, origin: (Coord, Coord), nx: usize, ny: usize) -> Option<LocalSpan> {
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
    Some((axis(span.x, origin.0, nx)?, axis(span.y, origin.1, ny)?))
}

/// The array cells a rectangle covers: inclusive column and row ranges.
type LocalSpan = ((usize, usize), (usize, usize));

/// The entries a [`FlatGrid`] files at most per slot (`max(n, 64)`
/// slots): past that many in all, its longest items go on the side list.
const ENTRIES_PER_SLOT: u64 = 16;

/// Moves the longest of the items of `rects` that `wide` does not hold
/// onto it, ascending, until the rest — which file `filed` entries now
/// — file at most `ENTRIES_PER_SLOT` per slot; returns their bounding
/// box. A grid's entries are thus bounded by its items, however far
/// apart long items lie.
fn set_aside_longest(rects: &[Rect], cell: Coord, wide: &mut Vec<u32>, filed: u64) -> Option<Rect> {
    let slots = u64::try_from(rects.len().max(WIDE_FLOOR)).unwrap_or(u64::MAX);
    let budget = slots.saturating_mul(ENTRIES_PER_SLOT);
    let covers = (0u32..)
        .zip(rects)
        .map(|(k, r)| (CellSpan::of(r, cell).count(), k));
    let mut longest: Vec<_> = covers.filter(|&(count, _)| count <= slots).collect();
    longest.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut total = filed;
    for (count, k) in longest {
        if total <= budget {
            break;
        }
        total = total.saturating_sub(count);
        wide.push(k);
    }
    wide.sort_unstable();
    (0u32..)
        .zip(rects)
        .filter(|(k, _)| wide.binary_search(k).is_err())
        .map(|(_, r)| *r)
        .reduce(|b, r| b.bounding_union(&r))
}

/// The buckets [`append_runs`] files one item under: bucket `row ·
/// stride + column` for each of `rows` and, in each, `columns` — a dense
/// grid's block of cells, or one range of a keyed grid's rows or of a
/// row's cells.
struct Block {
    rows: std::ops::Range<usize>,
    stride: usize,
    columns: std::ops::Range<usize>,
}

impl Block {
    /// The buckets `range`.
    fn line(range: std::ops::Range<usize>) -> Block {
        Block {
            rows: 0..1,
            stride: 0,
            columns: range,
        }
    }

    #[inline]
    fn for_each(self, mut visit: impl FnMut(usize)) {
        for row in self.rows {
            let first = row.saturating_mul(self.stride);
            (self.columns.clone()).for_each(|column| visit(first.saturating_add(column)));
        }
    }
}

/// Appends `buckets` runs to a compressed-row table: every position of
/// `items` (ascending) filed under each bucket `cover` names, so the
/// `b`-th bucket lists its positions, ascending, in `entries` from the
/// `b`-th start the call appends on. The caller closes the last run.
/// Each bucket is counted, the counts summed into where the runs end,
/// and the items walked backwards to fill each run from its end — so
/// nothing is held per entry but the entry.
fn append_runs(
    starts: &mut Vec<u32>,
    entries: &mut Vec<u32>,
    buckets: usize,
    items: impl DoubleEndedIterator<Item = u32> + Clone,
    cover: impl Fn(u32) -> Block,
) {
    let first = starts.len();
    // Room for the end the caller closes the last run with, too.
    starts.reserve(buckets.saturating_add(1));
    starts.resize(first.saturating_add(buckets), 0);
    let ends = &mut starts[first..];
    for k in items.clone() {
        cover(k).for_each(|b| ends[b] = ends[b].saturating_add(1));
    }
    let mut total = entry_number(entries.len());
    for end in ends.iter_mut() {
        // invariant: a grid of 2³² entries would be sixteen GB of them.
        total = total
            .checked_add(*end)
            .expect("entries are addressed by u32");
        *end = total;
    }
    entries.resize(total as usize, 0);
    for k in items.rev() {
        cover(k).for_each(|b| {
            // invariant: the count above filed this entry into the bucket.
            ends[b] = ends[b].saturating_sub(1);
            entries[ends[b] as usize] = k;
        });
    }
}

/// An entry count as a `u32`, which a grid's `starts` hold.
fn entry_number(count: usize) -> u32 {
    // invariant: `append_runs` refused to file past 2³² entries.
    u32::try_from(count).expect("entries are addressed by u32")
}

/// A keyed grid's cell count as a `u32`, which its `starts` fit under.
fn cell_number(count: usize) -> u32 {
    // invariant: every cell holds an entry, and entries are addressed by u32.
    u32::try_from(count).expect("cells are counted by entries")
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
