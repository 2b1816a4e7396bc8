//! The uniform grid behind every interaction search, and a wrapper
//! that lets items come and go.
//!
//! The "check interactions" stage of the pipeline must find, for every
//! element, the nearby elements it could interact with. A uniform grid
//! over bounding boxes is simple, fast for layout data (bounded local
//! density), and needs no balancing. There is one, [`FlatGrid`], built
//! once over a list of rectangles and then only queried. Its cells are
//! in compressed-row form — a `starts` offset per cell into one
//! `entries` list of positions — counted, prefix-summed and filled
//! backwards, so a query is a few slice reads: no hashing, and nothing
//! allocated but the caller's reused buffer. Every pair scan, bind
//! index, dirty-region predicate of an edit, the scope table's grid and
//! an edit session's label index are one.
//!
//! [`GridIndex`] is the same grid for items that come and go — an edit
//! session's element index, which takes inserts and removes on every
//! edit. It keeps a `FlatGrid` over the items live when it was last
//! built, appends the items inserted since to lists by that grid's
//! cells, and marks a removed item's slot dead; an insert rebuilds the
//! grid once the items it lists pass a share of the live count.
//!
//! Queries take `&self`, so a built index can be **shared across
//! threads** — the parallel searches build an index once and fan queries
//! out over a scoped thread pool.
//!
//! No rectangle costs more than the index holds: an item covering more
//! cells than the grid has items (with a floor of 64) stays out of the
//! cells on a side list and is tested directly, and a query that wide
//! tests every item instead of walking its cells. A box spanning the
//! whole coordinate range is one entry, not one for each of its 2⁸⁰-odd
//! cells. The grid's array is dense only while that takes at most four
//! cells per item (64 at least), and past that it keeps only its
//! occupied cells, found by key; its cells stay the caller's size, so
//! one far-away item neither makes a chip-sized array nor crowds the
//! rest into a few coarse cells. And it files at most 16 entries per
//! item, putting its longest items on the side list past that, so long
//! items far apart cannot make n² entries. Coordinates come from outside
//! the program, so the file denies `clippy::arithmetic_side_effects`:
//! every cell count is taken in `u128` or saturates, and the counters
//! say why they cannot wrap.

#![deny(clippy::arithmetic_side_effects)]

use crate::{Coord, Point, Rect};

/// The cell count a rectangle must pass to be *wide* in a grid of fewer
/// items than this (see the module docs): a small grid still walks a
/// query's cells, and files an item under each of its cells.
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
}

/// The ascending merge of two ascending position lists: a cell's and
/// the side list of wide items.
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

    /// The bytes the grid's buffers hold: its rectangles, its cells'
    /// runs and keys, and its side list.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let keys = match &self.cells {
            Cells::Dense { .. } => 0,
            Cells::Keyed {
                rows,
                firsts,
                columns,
                ..
            } => (rows.len().saturating_add(columns.len()))
                .saturating_mul(size_of::<Coord>())
                .saturating_add(firsts.len().saturating_mul(size_of::<u32>())),
        };
        let positions = (self.starts.len())
            .saturating_add(self.entries.len())
            .saturating_add(self.wide.len());
        (self.rects.len().saturating_mul(size_of::<Rect>()))
            .saturating_add(positions.saturating_mul(size_of::<u32>()))
            .saturating_add(keys)
    }

    /// True if the grid keeps its occupied cells only, found by key —
    /// the dense array over its items would have been too large.
    pub fn is_keyed(&self) -> bool {
        matches!(self.cells, Cells::Keyed { .. })
    }

    /// Replaces `out` with the positions of the rectangles that
    /// **touch** `query` (closed-sense), ascending, each once, and
    /// returns how many candidates it examined to find them: the entries
    /// of the cells the query covers and the side list, or every
    /// rectangle for a query wider than the grid.
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

    /// The cells `r` covers, as rows and the columns in each, if it lies
    /// within the grid's cells and covers at most `most` of them — every
    /// query touching it then reads one of them — and `None` if not.
    fn cells_within(
        &self,
        r: &Rect,
        most: u64,
    ) -> Option<(std::ops::Range<usize>, (Coord, Coord))> {
        let span = CellSpan::of(r, self.cell);
        (span.count() <= most).then_some(())?;
        match &self.cells {
            &Cells::Dense { origin, nx, ny } => {
                // The span as offsets from the array's origin, inside it.
                let inside = |(lo, hi): (Coord, Coord), origin: Coord, len: usize| {
                    let offset =
                        |k: Coord| usize::try_from(i128::from(k).saturating_sub(origin.into()));
                    let (lo, hi) = (offset(lo).ok()?, offset(hi).ok()?);
                    (hi < len).then_some((lo, hi))
                };
                let (x1, x2) = inside(span.x, origin.0, nx)?;
                let (y1, y2) = inside(span.y, origin.1, ny)?;
                // invariant: offsets into an array of at most `max(4n, 64)` cells.
                let offset = |v: usize| Coord::try_from(v).expect("an array offset");
                Some((y1..y2.saturating_add(1), (offset(x1), offset(x2))))
            }
            Cells::Keyed { rows, .. } => {
                let from = rows.partition_point(|&k| k < span.y.0);
                let to = rows.partition_point(|&k| k <= span.y.1);
                let (columns, keys) = span.sides();
                let count = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
                let occupied = count(to.saturating_sub(from)) == keys
                    && (from..to).all(|row| count(self.cells(row, span.x).len()) == columns);
                occupied.then_some((from..to, span.x))
            }
        }
    }

    /// The entries of the cells in columns `x.0 ..= x.1` of row `row`:
    /// one slice, as a row's cells are consecutive in number.
    fn run(&self, row: usize, x: (Coord, Coord)) -> &[u32] {
        self.entries_of(self.cells(row, x))
    }

    /// The entries of the cells numbered `cells`.
    fn entries_of(&self, cells: std::ops::Range<usize>) -> &[u32] {
        &self.entries[self.starts[cells.start] as usize..self.starts[cells.end] as usize]
    }

    /// The numbers of the cells in columns `x.0 ..= x.1` of row `row`.
    fn cells(&self, row: usize, x: (Coord, Coord)) -> std::ops::Range<usize> {
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
        from..to
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

/// A spatial index that takes inserts and removes: a [`FlatGrid`] over
/// the items live when it was last built (the *base*), plus the items
/// inserted since, tested directly. Those are appended to a list per
/// base cell they cover (or to one loose list, if they lie outside the
/// base's cells), so a query tests the ones in the cells it reads. A
/// removal marks the item's slot dead, and the base skips it until it
/// is rebuilt.
///
/// Handles are slot numbers and are never reused (until
/// [`GridIndex::compact`] renumbers them), so answers ascend by handle,
/// which is insertion order. An insert rebuilds the base once the items
/// inserted since pass an eighth of the live count, 64 at least: a
/// rebuild costs the live items, and each comes after that many
/// inserts, so an insert costs amortised O(1) however the items arrive.
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
    /// Every slot issued since the last compaction, by handle: the
    /// item's rectangle and its payload, `None` once removed.
    items: Vec<(Rect, Option<T>)>,
    alive: usize,
    /// The grid over the slots live when it was built, in handle order.
    base: FlatGrid,
    /// The handle at each position of `base`, ascending.
    based: Vec<u32>,
    /// The first slot `base` was built without: every slot from here on
    /// was inserted since, and is tested directly.
    fresh: usize,
    /// The live ones of those slots by the base's cells, ascending in
    /// each: under each cell they cover (see `lists_of`).
    fresh_cells: Vec<Vec<u32>>,
    /// The rest of the live ones, ascending.
    fresh_loose: Vec<u32>,
    /// How many times an insert has rebuilt the base.
    rebuilds: u64,
}

/// An insert rebuilds a [`GridIndex`]'s base once the items inserted
/// since pass the live count over this, or [`WIDE_FLOOR`] items.
/// Rebuilding costs about 70 ns per live item; on the benchmark's
/// 8 000-element edit chip, an eighth rebuilds once in about 36 call
/// moves.
const REBUILD_SHARE: usize = 8;

impl<T> GridIndex<T> {
    /// Creates an empty index with the given cell size (clamped to ≥ 1).
    /// A good cell size is a few times the typical feature pitch.
    pub fn new(cell_size: Coord) -> Self {
        GridIndex::from_items(Vec::new(), cell_size)
    }

    /// An index over `items`, whose handles are their positions, built in
    /// one [`FlatGrid::new`] pass.
    pub fn from_items(items: impl IntoIterator<Item = (Rect, T)>, cell_size: Coord) -> Self {
        let items: Vec<_> = (items.into_iter()).map(|(r, v)| (r, Some(v))).collect();
        let mut idx = GridIndex {
            alive: items.len(),
            items,
            base: FlatGrid::new(Vec::new(), cell_size),
            based: Vec::new(),
            fresh: 0,
            fresh_cells: Vec::new(),
            fresh_loose: Vec::new(),
            rebuilds: 0,
        };
        idx.rebuild();
        idx
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

    /// The bytes the index's buffers hold: its slots, its base grid, the
    /// base's handle table and the lists of the items inserted since.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let filed = self.fresh_cells.iter().map(Vec::len).sum::<usize>();
        let handles = (self.based.len())
            .saturating_add(filed)
            .saturating_add(self.fresh_loose.len());
        let lists = self.fresh_cells.len().saturating_mul(size_of::<Vec<u32>>());
        (self
            .items
            .len()
            .saturating_mul(size_of::<(Rect, Option<T>)>()))
        .saturating_add(handles.saturating_mul(size_of::<u32>()))
        .saturating_add(lists)
        .saturating_add(self.base.heap_bytes())
    }

    /// Rebuilds the index without its tombstoned slots — the recovery
    /// path for an index that has served heavy insert/remove churn,
    /// whose slot vector otherwise grows monotonically. (An edit
    /// session renumbers no handle while it lives: it sheds its element
    /// index's churn by reopening instead.)
    ///
    /// Live items keep their relative (insertion) order, so queries
    /// return exactly the same payloads in exactly the same order as
    /// before the compaction. Handles are renumbered densely; the
    /// returned map gives each old handle's new handle (`None` for
    /// slots that were already dead). Callers holding handles must
    /// remap them.
    pub fn compact(&mut self) -> Vec<Option<u32>> {
        let mut kept = 0u32;
        let map = (self.items.iter())
            .map(|(_, value)| {
                value.as_ref()?;
                // invariant: fewer live items than slots, which `u32` numbers.
                kept = kept.saturating_add(1);
                Some(kept.saturating_sub(1))
            })
            .collect();
        self.items.retain(|(_, value)| value.is_some());
        self.rebuild();
        map
    }

    /// Inserts a rectangle with its payload, returning a stable handle
    /// for [`GridIndex::remove`] / [`GridIndex::get`]. Handles are never
    /// reused, so query results stay in insertion order across
    /// incremental updates.
    pub fn insert(&mut self, rect: Rect, value: T) -> u32 {
        // invariant: 2³² live slots would be hundreds of GB of items.
        let id = u32::try_from(self.items.len()).expect("slots are addressed by u32 handles");
        self.items.push((rect, Some(value)));
        self.lists_of(&rect, |list| list.push(id));
        // invariant: `alive` counts slots, which `u32` handles bound.
        self.alive = self.alive.saturating_add(1);
        let inserted = self.items.len().saturating_sub(self.fresh);
        if inserted > (self.alive / REBUILD_SHARE).max(WIDE_FLOOR) {
            self.rebuild();
            self.rebuilds = self.rebuilds.saturating_add(1);
        }
        id
    }

    /// How many times an insert has rebuilt the base (the insert that
    /// crosses the threshold pays for it): a caller reads it before and
    /// after its inserts to tell whether they did. Building the index and
    /// [`GridIndex::compact`] are not counted.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Removes the item behind a handle, returning its payload (or
    /// `None` if the handle was already removed).
    pub fn remove(&mut self, id: u32) -> Option<T> {
        let (rect, value) = self.items.get_mut(id as usize)?;
        let (rect, value) = (*rect, value.take()?);
        // invariant: the slot was live, so it was counted.
        self.alive = self.alive.saturating_sub(1);
        if id as usize >= self.fresh {
            self.lists_of(&rect, |list| list.retain(|&h| h != id));
        }
        Some(value)
    }

    /// Calls `f` on each list a slot inserted since the base was built
    /// is filed in: those of the base's cells its rectangle covers, when
    /// it lies within them and covers at most 16, and the loose list
    /// otherwise.
    fn lists_of(&mut self, rect: &Rect, mut f: impl FnMut(&mut Vec<u32>)) {
        match self.base.cells_within(rect, ENTRIES_PER_SLOT) {
            Some((rows, x)) => {
                for cells in rows.map(|row| self.base.cells(row, x)) {
                    self.fresh_cells[cells].iter_mut().for_each(&mut f);
                }
            }
            None => f(&mut self.fresh_loose),
        }
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
        let payload = |id: u32| self.get(id).map(|(_, v)| v).expect("answers are live");
        self.query_handles(query).into_iter().map(payload).collect()
    }

    /// Handles (ascending) of the live items whose rectangles touch the
    /// query — [`GridIndex::query`] for a caller that keys its own table
    /// by handle.
    pub fn query_handles(&self, query: &Rect) -> Vec<u32> {
        self.query_handles_many(std::slice::from_ref(query))
    }

    /// [`GridIndex::query_handles`] of several queries at once: the
    /// ascending, deduplicated union of their answers, for a caller whose
    /// queries overlap (an edit's footprints). Each cell the queries read
    /// is read once, and its items are tested against the queries that
    /// read it only.
    pub fn query_handles_many(&self, queries: &[Rect]) -> Vec<u32> {
        let base = &self.base;
        let mut out = Vec::new();
        // `(cell, query)` for each cell a query reads; the queries wider
        // than the grid read every item instead.
        let (mut reads, mut wide) = (Vec::new(), Vec::new());
        for (q, query) in (0u32..).zip(queries) {
            match base.window(query) {
                Window::Wide => wide.push(query),
                Window::Misses => {}
                Window::Cells { rows, x } => {
                    let cells = rows.flat_map(|row| base.cells(row, x));
                    reads.extend(cells.map(|cell| (cell, q)));
                }
            }
        }
        reads.sort_unstable();
        let based = |k: &u32| self.based[*k as usize];
        for covering in reads.chunk_by(|a, b| a.0 == b.0) {
            let cell = covering[0].0;
            let hit = |r: &Rect| {
                covering
                    .iter()
                    .any(|&(_, q)| r.touches(&queries[q as usize]))
            };
            let filed = base.entries_of(cell..cell.saturating_add(1)).iter();
            let filed = filed.filter(|&&k| hit(&base.rects[k as usize])).map(based);
            out.extend(filed.filter(|&id| self.is_live(id)));
            let fresh = self.fresh_cells[cell].iter().copied();
            out.extend(fresh.filter(|&id| hit(&self.items[id as usize].0)));
        }
        // What no cell holds: the base's side list and the loose items.
        let hit = |r: &Rect| queries.iter().any(|q| r.touches(q));
        let aside = (base.wide.iter()).filter(|&&k| hit(&base.rects[k as usize]));
        out.extend(aside.map(based).filter(|&id| self.is_live(id)));
        let loose = self.fresh_loose.iter().copied();
        out.extend(loose.filter(|&id| hit(&self.items[id as usize].0)));
        for query in wide {
            let live = (0u32..).zip(&self.items).filter(|(_, (_, v))| v.is_some());
            out.extend(
                live.filter(|(_, (r, _))| r.touches(query))
                    .map(|(id, _)| id),
            );
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True if any live item touches the query rectangle.
    pub fn touches_any(&self, query: &Rect) -> bool {
        !self.query_handles(query).is_empty()
    }

    fn is_live(&self, id: u32) -> bool {
        self.items[id as usize].1.is_some()
    }

    /// Builds the base over the live slots, in handle order.
    fn rebuild(&mut self) {
        let live = (0u32..).zip(&self.items).filter(|(_, (_, v))| v.is_some());
        let (based, rects) = live.map(|(id, (rect, _))| (id, *rect)).unzip();
        self.base = FlatGrid::new(rects, self.base.cell_size());
        self.based = based;
        self.fresh = self.items.len();
        self.fresh_cells.iter_mut().for_each(Vec::clear);
        self.fresh_cells
            .resize_with(self.base.cell_count(), Vec::new);
        self.fresh_loose.clear();
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
        assert!(!idx.touches_any(&Rect::new(0, 0, 10, 10)));
    }

    #[test]
    fn a_box_spanning_the_coordinate_range_stays_out_of_the_cells() {
        // At the cell size of the NMOS interaction search a box over
        // ±MAX_COORD covers ~2⁸³ cells: filed cell by cell it would ask
        // for more memory than there is.
        let m = crate::MAX_COORD;
        let items = [
            (Rect::new(0, 0, 2000, 750), "small"),
            (Rect::new(-m, -m, m, m), "huge"),
            (Rect::new(-m, 100, m, 600), "wire"),
        ];
        let mut idx = GridIndex::from_items(items, 3000);
        assert_eq!(idx.base.wide, [1, 2]);
        assert!(
            idx.base.cell_count() <= 1,
            "{} cells",
            idx.base.cell_count()
        );
        let near = Rect::new(10, 10, 20, 200);
        assert_eq!(idx.query(&near), vec![&"small", &"huge", &"wire"]);
        assert!(idx.touches_any(&Rect::new(m, m, m, m)));
        // A query as wide tests every item instead of walking its cells.
        let everywhere = Rect::new(-m, -m, m, m);
        assert_eq!(idx.query_handles(&everywhere), [0, 1, 2]);
        assert_eq!(idx.query_handles_many(&[everywhere, near]), [0, 1, 2]);
        assert_eq!(idx.remove(1), Some("huge"));
        assert_eq!(idx.query(&Rect::new(m, m, m, m)), Vec::<&&str>::new());
        let map = idx.compact();
        assert_eq!(map, [Some(0), None, Some(1)]);
        assert_eq!(idx.query(&everywhere), vec![&"small", &"wire"]);
        assert_eq!(idx.base.wide, [1]);
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
                    let slots = (0..idx.items.len() as u32).filter(|&h| idx.get(h).is_some());
                    let touching: Vec<u32> = slots.filter(|&h| idx.items[h as usize].0.touches(q)).collect();
                    proptest::prop_assert_eq!(&idx.query_handles(q), &touching, "{} {:?}", stage, q);
                    proptest::prop_assert_eq!(idx.touches_any(q), !touching.is_empty());
                    union.extend(touching);
                }
                union.sort_unstable();
                union.dedup();
                proptest::prop_assert_eq!(idx.query_handles_many(&queries), union);
                idx.compact();
            }
        }
    }

    #[test]
    fn one_by_one_inserts_rebuild_the_base_a_logarithmic_number_of_times() {
        // Each rebuild waits for 64 inserts more, or an eighth of the
        // live count once that is larger: 10 000 inserts rebuild 7 times
        // up to 512 items and log₍₉⁄₈₎(10 000 / 512) ≈ 25 times after,
        // not once per insert.
        let mut idx = GridIndex::new(10);
        let (mut rebuilds, mut fresh) = (0, 0);
        for i in 0..10_000i64 {
            idx.insert(Rect::new(i * 3, 0, i * 3 + 2, 2), i);
            if idx.fresh != fresh {
                (rebuilds, fresh) = (rebuilds + 1, idx.fresh);
            }
            assert!(idx.items.len() - idx.fresh <= (idx.len() / REBUILD_SHARE).max(WIDE_FLOOR));
        }
        assert!((25..=35).contains(&rebuilds), "{rebuilds} rebuilds");
        assert_eq!(idx.rebuilds(), rebuilds, "every rebuild is counted");
        assert_eq!(idx.query(&Rect::new(30, 0, 31, 0)), vec![&10]);
    }

    #[test]
    fn the_insert_that_crosses_the_threshold_counts_a_rebuild() {
        // 100 items built at once: past them the floor of 64 fresh
        // inserts holds until the 65th, which rebuilds.
        let rect = |i: i64| Rect::new(i * 3, 0, i * 3 + 2, 2);
        let mut idx = GridIndex::from_items((0..100).map(|i| (rect(i), i)), 10);
        assert_eq!(idx.rebuilds(), 0, "building the index is not counted");
        for i in 100..164 {
            idx.insert(rect(i), i);
        }
        assert_eq!(idx.rebuilds(), 0, "64 inserts stay under the floor");
        idx.insert(rect(164), 164);
        assert_eq!(idx.rebuilds(), 1, "the 65th insert rebuilt the base");
        idx.remove(0);
        idx.compact();
        assert_eq!(idx.rebuilds(), 1, "compaction is not counted");
    }

    #[test]
    fn remove_scrubs_queries() {
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
        assert!(!idx.touches_any(&Rect::new(45, 45, 50, 50)));
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
        let answers = |idx: &GridIndex<i64>| -> Vec<Vec<i64>> {
            let answer = |q| idx.query(q).into_iter().copied().collect();
            queries.iter().map(answer).collect()
        };
        let before = answers(&idx);
        let map = idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.len(), 60);
        assert_eq!(before, answers(&idx), "compaction changed query answers");
        // Handle map: dead handles map to None, live ones resolve to the
        // same (rect, payload), in the same order.
        let mut last = None;
        for (k, &old) in ids.iter().enumerate() {
            let dead = k < 80 && k % 2 == 0;
            match map[old as usize] {
                None => assert!(dead, "live handle {old} lost in compaction"),
                Some(new) => {
                    assert!(!dead, "dead handle {old} resurrected");
                    assert!(last < Some(new), "compaction reordered live items");
                    last = Some(new);
                    let payload = *idx.get(new).unwrap().1;
                    assert_eq!(payload, if k < 80 { k as i64 } else { 120 + k as i64 });
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
    fn shared_queries_across_threads() {
        // The parallel searches rely on a built index being usable from
        // scoped worker threads, each answering what a serial query does.
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
            for _ in 0..4 {
                s.spawn(move || {
                    for (q, expect) in queries.iter().zip(serial) {
                        let got: Vec<i64> = idx.query(q).into_iter().copied().collect();
                        assert_eq!(&got, expect, "concurrent query diverged for {q:?}");
                    }
                });
            }
        });
    }
}
