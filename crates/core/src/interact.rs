//! Stage 6 — "check interactions": spacing via the rule matrix (Fig. 12).
//!
//! "At this point all elements are checked, all primitive symbols are
//! checked, connections between the elements and symbols are checked, and
//! net identifiers are available for each element. What remains to be
//! checked are the interactions between elements and/or primitive symbols.
//! The checks which remain are only spacing checks."
//!
//! Each layer-pair case splits into subcases (Fig. 12): same-net pairs are
//! usually not checked at all (Fig. 5a — electrically equivalent), device
//! overrides specialise the verdicts (Figs. 5b/6), and a transistor's
//! un-netted parts are checked only against *unrelated* elements.
//!
//! The stage runs in two phases:
//!
//! 1. **candidate enumeration** — either a flat search over one grid
//!    index of all instantiated elements, or a hierarchical search that
//!    caches geometric candidate pairs per symbol (intra-instance) and
//!    per symbol-pair-with-relative-placement (inter-instance) —
//!    Manhattan transforms preserve distances, so one instance's
//!    geometry answers for all its repeats. Candidates are produced in
//!    a canonical order (ascending element-id pairs within each work
//!    unit, units in a fixed walk order). Both searches are parallel:
//!    the flat search fans element-range queries over one shared
//!    [`GridIndex`], and the hierarchical search plans its distinct
//!    cache fills up front (one job per unique symbol / unique
//!    symbol-pair-with-relative-placement), fills them across the
//!    worker pool, and streams each scope's and scope pair's pairs
//!    from the filled caches — every fill is a pure function of its
//!    scope's element sets, so the cache contents match a serial run
//!    exactly.
//! 2. **pair evaluation** — the rule-matrix subcases and distance
//!    checks, embarrassingly parallel over the candidate tiles. With
//!    [`CheckOptions::parallelism`] > 1 the tiles are evaluated on a
//!    scoped thread pool and re-joined in tile order, so serial and
//!    parallel runs yield **byte-identical** violation lists and
//!    statistics.
//!
//! # Tiled streaming (bounded candidate memory)
//!
//! Materialising the full candidate-pair list would cost O(total pairs)
//! of memory — the binding constraint at million-element scale — so the
//! stage never holds it: the flat search walks a **deterministic tile
//! iterator** over the [`GridIndex`] ([`GridIndex::tiles`] — contiguous
//! insertion-order element ranges), and each worker owns one tile,
//! enumerates its pairs, evaluates them, and discards the buffer before
//! taking the next tile. A pair spanning two tiles is owned by its
//! **lower element's tile** (the enumeration keeps only `j > i`), so
//! every pair is enumerated and counted exactly once across tiles. The
//! hierarchical search streams the same way with its natural tiles —
//! one filled cache row per scope / scope pair. Tile results merge
//! positionally ([`run_ordered`]), so any worker count is
//! **byte-identical**, and [`InteractStats::peak_candidate_buffer`]
//! records the widest tile. The two tilings share only the per-tile
//! evaluator, so their equal `candidate_pairs` on every generated chip
//! (`tests/differential.rs`, beside a brute-force count) is what says
//! each counts every pair once.
//!
//! # Same-mask conflict graphs (multi-patterning)
//!
//! The first post-paper check family: a technology may declare a
//! `same_mask` distance per layer ([`diic_tech::RuleSet::same_mask`]).
//! Two features on that layer closer than the distance — but not
//! touching (touching features print as one mask feature) — cannot
//! share a mask, which makes them an edge of the layer's **conflict
//! graph**. A two-mask (double-patterning) decomposition is a
//! 2-colouring of that graph, which exists iff the graph is bipartite;
//! every **odd cycle** is therefore an undecomposable cluster,
//! reported as one [`ViolationKind::MaskOddCycle`] anchored at the odd
//! component's closest conflicting edge. Edges are collected during
//! the normal pair evaluation (geometrically — net topology and device
//! membership do not excuse a mask conflict) in both search shapes
//! (flat and hierarchical), then analysed once at the end of the run;
//! [`check_same_mask`] runs the same analysis standalone, which is how
//! the incremental session recomputes the (global, and therefore
//! un-clippable) property after an edit.

use crate::binding::{ChipView, Istr};
use crate::checker::CheckOptions;
use crate::library::{BoundTechnology, ContentHash, LibraryCache};
use crate::netgen::NetgenResult;
use crate::parallel::{effective_parallelism, run_ordered};
use crate::scope::{ScopeIds, ScopeTable};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::SymbolId;
use diic_geom::{Coord, GridIndex, Rect, SizingMode, Transform};
use diic_tech::{DeviceArchetype, LayerId, Technology};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Elements per tile of the flat search (and of the connection stage's
/// tiled scans): small enough that a tile's pair buffer stays
/// cache-friendly, large enough that tile bookkeeping is noise.
pub const DEFAULT_TILE_ELEMENTS: usize = 512;

/// Counters exposing how much work the topology saves (Fig. 12 pruning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InteractStats {
    /// Candidate pairs produced by the search.
    pub candidate_pairs: u64,
    /// Pairs with no rule in the matrix.
    pub no_rule: u64,
    /// Pairs suppressed because the elements share a net.
    pub same_net_suppressed: u64,
    /// Pairs suppressed because a transistor and its own terminals are
    /// related.
    pub related_suppressed: u64,
    /// Pairs waived by a device override (Fig. 6b).
    pub override_waived: u64,
    /// Distance evaluations performed.
    pub distance_checks: u64,
    /// Violations reported.
    pub violations: u64,
    /// Hierarchical cache hits (instance pairs answered from cache).
    pub cache_hits: u64,
    /// Hierarchical cache misses (instance pairs searched geometrically).
    pub cache_misses: u64,
    /// The largest **single** candidate-pair buffer held at any point:
    /// the widest tile of a whole-chip search, the (halo-bounded) pair
    /// list of a session re-check. In a parallel run, up to
    /// `parallelism` tile buffers are alive concurrently (one per
    /// worker), so total concurrent candidate memory is bounded by
    /// workers × this value.
    pub peak_candidate_buffer: u64,
}

impl InteractStats {
    /// Merges another stats record into this one (per-worker / per-tile
    /// counters). Every counter is a sum except
    /// [`InteractStats::peak_candidate_buffer`], which is a maximum —
    /// both folds are commutative and associative, so merging stays
    /// order-independent.
    pub fn absorb(&mut self, other: &InteractStats) {
        self.candidate_pairs += other.candidate_pairs;
        self.no_rule += other.no_rule;
        self.same_net_suppressed += other.same_net_suppressed;
        self.related_suppressed += other.related_suppressed;
        self.override_waived += other.override_waived;
        self.distance_checks += other.distance_checks;
        self.violations += other.violations;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.peak_candidate_buffer = self.peak_candidate_buffer.max(other.peak_candidate_buffer);
    }
}

/// The longest reach of any spacing rule or device override in the
/// technology: the radius within which two elements can possibly
/// interact. Interaction searches inflate query windows by this much.
pub fn max_rule_range(tech: &Technology) -> Coord {
    let mut m = 1;
    for (_, _, rule) in tech.rules().entries() {
        m = m
            .max(rule.diff_net)
            .max(rule.same_net.unwrap_or(0))
            .max(rule.unrelated_device.unwrap_or(0));
    }
    for dev in tech.devices() {
        for o in &dev.overrides {
            m = m.max(o.spacing.unwrap_or(0));
        }
    }
    for (_, d) in tech.rules().same_mask_entries() {
        m = m.max(d);
    }
    m
}

/// Grid cell size for interaction-scale spatial indexes, derived from
/// the technology's rule reach (a few times the largest rule, floored
/// so degenerate rule decks still get usable cells, saturated so
/// pathological near-`Coord::MAX` rules cannot overflow) instead of a
/// magic constant.
pub fn interaction_cell_size(tech: &Technology) -> Coord {
    max_rule_range(tech).saturating_mul(4).max(1000)
}

/// Runs the interaction checks over the whole chip. `bound` must be
/// `tech`'s binding — the rule reach, cell size and device-forming pairs
/// come from it — and `scopes`, which the hierarchical search
/// ([`CheckOptions::hierarchical`]) reads the top-level hierarchy from
/// and the flat search does not look at, must have been built for that
/// reach.
///
/// With a `cache` (library mode) the hierarchical candidate fills are
/// shared **across cells** through the content-keyed [`LibraryCache`];
/// the violation list and the statistics are byte-identical either way
/// — cross-cell cache traffic is counted on the cache itself, not in
/// [`InteractStats`].
pub fn check_interactions(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    nets: &NetgenResult,
    scopes: &ScopeTable,
    options: &CheckOptions,
    cache: Option<&LibraryCache>,
) -> (Vec<Violation>, InteractStats) {
    check_interactions_tiled(
        view,
        tech,
        bound,
        nets,
        scopes,
        options,
        cache,
        DEFAULT_TILE_ELEMENTS,
    )
}

/// [`check_interactions`] with the flat search's tile width spelled out
/// (the unit tests drive widths of 1 and 2 through it).
#[allow(clippy::too_many_arguments)]
fn check_interactions_tiled(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    nets: &NetgenResult,
    scopes: &ScopeTable,
    options: &CheckOptions,
    cache: Option<&LibraryCache>,
    tile_width: usize,
) -> (Vec<Violation>, InteractStats) {
    let mut stats = InteractStats::default();
    let workers = effective_parallelism(options.parallelism);
    let cx = EvalCx::new(
        view,
        tech,
        bound,
        nets,
        options,
        device_archetypes(view, tech, 0..view.devices.len()),
    );
    let (mut violations, edges) = if options.hierarchical {
        let plan = hierarchical_plan_fill(view, scopes, bound, workers, &mut stats, cache);
        hierarchical_tiled(&cx, &plan, workers, &mut stats)
    } else {
        flat_tiled(&cx, bound, workers, tile_width, &mut stats)
    };
    violations.extend(mask_cycle_violations(view, tech, options.metric, edges));
    stats.violations = violations.len() as u64;
    (violations, stats)
}

/// Runs the interaction checks **among a given element set**, for the
/// edit session's halo re-check: `ids` (ascending) is every element
/// within one rule reach of the dirty halo — the session derives it from
/// its persistent spatial index instead of scanning the whole element
/// list — and `clip_grid` is the grid over the halo's rects, which the
/// session also uses for its retraction predicate, so the two sides of
/// the retract/splice partition share one object by construction. Only
/// violations whose marker touches the halo are reported.
///
/// The scoping is *sound* because of two reach bounds: a spacing
/// violation's marker lies within the pair's gap distance
/// (≤ [`max_rule_range`]) of **both** elements, so every violation
/// anchored in the halo comes from a pair whose elements both sit
/// within one rule reach of it — exactly the element set searched here.
/// Conversely, violations whose marker misses the halo are dropped:
/// their unchanged copies live on in the cached report. Candidates are
/// enumerated with one grid search over the set; the violation
/// *multiset* equals the whole-chip search's (`tests/incremental.rs`),
/// so a canonically sorted patched report matches a full run under
/// either engine.
pub fn check_interactions_among(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    nets: &NetgenResult,
    options: &CheckOptions,
    ids: &[usize],
    clip_grid: &GridIndex<()>,
) -> (Vec<Violation>, InteractStats) {
    let mut stats = InteractStats::default();
    if ids.is_empty() {
        return (Vec::new(), stats);
    }
    let workers = effective_parallelism(options.parallelism);

    let local = local_candidates(
        view,
        ScopeIds::List(ids),
        bound.max_rule_range(),
        bound.cell_size(),
    );
    let pairs: Vec<(usize, usize)> = local
        .into_iter()
        .map(|(li, lj)| (ids[li], ids[lj]))
        .collect();
    let cx = EvalCx::new(
        view,
        tech,
        bound,
        nets,
        options,
        // The devices of the candidate elements only: this pass must
        // cost the edit, not the chip.
        device_archetypes(
            view,
            tech,
            ids.iter().filter_map(|&id| view.elements.get(id).device()),
        ),
    );
    // Same-mask edges are discarded here: bipartiteness is a *global*
    // property of the conflict graph — a halo-local edge subset cannot
    // decide odd-cycle membership, and a marker-in-halo filter would
    // retract/splice the wrong cycles. The session recomputes the
    // multi-patterning verdict with [`check_same_mask`].
    let chunks: Vec<&[(usize, usize)]> =
        pairs.chunks(pairs.len().div_ceil(workers).max(1)).collect();
    let results = run_ordered(chunks.len(), workers, |k| evaluate_tile(&cx, chunks[k]));
    let (mut violations, _edges) = merge_tiles(results, &mut stats);
    // The halo search buffers its (already halo-bounded) pair list whole.
    stats.peak_candidate_buffer = pairs.len() as u64;
    // Location-less violations count as inside every halo (they cannot
    // be anchored, so retraction and splicing must agree on them).
    violations.retain(|v| v.location.is_none_or(|l| clip_grid.touches_any(&l)));
    stats.violations = violations.len() as u64;
    (violations, stats)
}

// ---------------------------------------------------------------------
// Phase 1: candidate enumeration.
// ---------------------------------------------------------------------

/// One grid index over every instantiated element's bbox, payload = id.
fn element_grid(view: &ChipView, cell: Coord) -> GridIndex<usize> {
    let mut index: GridIndex<usize> = GridIndex::new(cell);
    for (id, bbox) in view.elements.bboxes().iter().enumerate() {
        index.insert(*bbox, id);
    }
    index
}

/// Candidate pairs `(a.id, j)` with `j > a.id` for every element in
/// `range`, queried against the shared grid index.
///
/// [`GridIndex::query`] returns ids in ascending insertion order
/// (documented and tested there), so the pairs come out already sorted
/// by `(a.id, j)`.
fn enumerate_range_pairs(
    view: &ChipView,
    index: &GridIndex<usize>,
    max_range: Coord,
    range: std::ops::Range<usize>,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, bbox) in view.elements.bboxes()[range.clone()].iter().enumerate() {
        let i = range.start + i;
        // invariant: max_range >= 0 (rule ranges are non-negative), and
        // inflate only fails on negative shrink past emptiness.
        let query = bbox
            .inflate(max_range)
            .expect("inflating by a positive range cannot fail");
        let near = index.query(&query).into_iter().copied().filter(|&j| j > i);
        out.extend(near.map(|j| (i, j)));
    }
    out
}

/// Flat search: one grid index over every instantiated element, walked
/// through [`GridIndex::tiles`] — each tile job enumerates its element
/// range's pairs into a tile-local buffer, evaluates them, and drops the
/// buffer before the worker takes its next tile. Pairs come out in
/// ascending `(i, j)` order, each pair owned by its lower element's
/// tile, and the positional tile merge keeps any worker count
/// byte-identical.
fn flat_tiled(
    cx: &EvalCx<'_>,
    bound: &BoundTechnology,
    workers: usize,
    tile_width: usize,
    stats: &mut InteractStats,
) -> (Vec<Violation>, Vec<MaskEdge>) {
    let view = cx.view;
    let index = element_grid(view, bound.cell_size());
    let tiles: Vec<std::ops::Range<u32>> = index.tiles(tile_width).collect();
    let results = run_ordered(tiles.len(), workers, |k| {
        let range = (tiles[k].start as usize)..(tiles[k].end as usize);
        let pairs = enumerate_range_pairs(view, &index, bound.max_rule_range(), range);
        evaluate_tile(cx, &pairs)
    });
    merge_tiles(results, stats)
}

/// Folds per-tile results, in tile order, into one violation list, one
/// edge list and the run's counters.
fn merge_tiles(
    results: Vec<(Vec<Violation>, Vec<MaskEdge>, InteractStats)>,
    stats: &mut InteractStats,
) -> (Vec<Violation>, Vec<MaskEdge>) {
    let mut out = Vec::new();
    let mut edges = Vec::new();
    for (vs, es, tile_stats) in results {
        out.extend(vs);
        edges.extend(es);
        stats.absorb(&tile_stats);
    }
    (out, edges)
}

/// Evaluates one tile's pair buffer serially, returning its violations
/// and tile-local counters (`candidate_pairs` and the tile's buffer
/// width; the caller folds tiles together with
/// [`InteractStats::absorb`], which sums counts and maxes the peak).
fn evaluate_tile(
    cx: &EvalCx<'_>,
    pairs: &[(usize, usize)],
) -> (Vec<Violation>, Vec<MaskEdge>, InteractStats) {
    let mut tile_stats = InteractStats {
        candidate_pairs: pairs.len() as u64,
        peak_candidate_buffer: pairs.len() as u64,
        ..InteractStats::default()
    };
    let mut vs = Vec::new();
    let mut edges = Vec::new();
    for &(i, j) in pairs {
        evaluate_pair(cx, i, j, &mut vs, &mut edges, &mut tile_stats);
    }
    (vs, edges, tile_stats)
}

/// The planned-and-filled hierarchical search: the scopes, which filled
/// cache row feeds each scope (`intra_source`) and each near scope pair
/// (`inter_source`), and the filled rows themselves (scope-local index
/// pairs), which [`hierarchical_tiled`] streams one row at a time.
struct HierPlan<'a> {
    scopes: &'a ScopeTable,
    intra_source: Vec<usize>,
    inter_source: Vec<(usize, usize, usize)>,
    /// Filled rows sit behind [`Arc`] so library-mode cache hits share
    /// one allocation across cells instead of copying the pair list.
    filled: Vec<Arc<Vec<(usize, usize)>>>,
}

/// Hierarchical candidate search with the paper's redundancy
/// elimination: geometric candidate pairs are cached per symbol
/// (intra-instance) and per symbol pair with relative placement
/// (inter-instance), so repeated instances are searched once. The
/// output order is canonical: intra-scope pairs in scope walk order,
/// then inter-scope pairs over the upper-triangular scope matrix.
///
/// The scopes — which element belongs to which top-level instance, and
/// which instances come within rule reach of one another — are read
/// from the [`ScopeTable`]; this function looks at no path string and
/// walks no scope pair that is not near.
///
/// The search runs in three deterministic steps so the cache fills can
/// be shared across threads:
///
/// 1. **plan** (serial, cheap) — walk the scopes and near scope pairs in
///    canonical order, deduplicating cache keys into an ordered job
///    list and recording which job feeds each scope / scope pair (the
///    first occurrence of a key is the cache miss, later ones the
///    hits — identical counters to a serial fill);
/// 2. **fill** — run the distinct geometric searches across the worker
///    pool ([`run_ordered`]); each is a pure function of its scope's
///    element sets, so parallel fills return exactly the serial values;
/// 3. **stream** — [`hierarchical_tiled`] maps one filled row at a time
///    to global ids and evaluates it.
fn hierarchical_plan_fill<'a>(
    view: &ChipView,
    table: &'a ScopeTable,
    bound: &BoundTechnology,
    workers: usize,
    stats: &mut InteractStats,
    cache: Option<&LibraryCache>,
) -> HierPlan<'a> {
    let scopes = table.scopes();
    let (max_range, cell, revision) = (bound.max_rule_range(), bound.cell_size(), bound.revision());

    // Step 1 — plan. Cache keys express "same geometry up to rigid
    // motion"; the first scope (pair) presenting a key owns the fill
    // job, later ones reuse its result.
    enum FillJob {
        /// Intra-scope search of the scope at this index.
        Intra(usize),
        /// Cross-scope search of the scope pair at these indices.
        Cross(usize, usize),
    }
    let mut jobs: Vec<FillJob> = Vec::new();

    // Intra-scope plan: scope walk order.
    let mut intra_key_to_job: HashMap<SymbolId, usize> = HashMap::new();
    let mut intra_source: Vec<usize> = Vec::with_capacity(scopes.len());
    for (si, scope) in scopes.iter().enumerate() {
        match scope.symbol {
            Some(sym) => {
                if let Some(&job) = intra_key_to_job.get(&sym) {
                    stats.cache_hits += 1;
                    intra_source.push(job);
                } else {
                    stats.cache_misses += 1;
                    intra_key_to_job.insert(sym, jobs.len());
                    intra_source.push(jobs.len());
                    jobs.push(FillJob::Intra(si));
                }
            }
            None => {
                intra_source.push(jobs.len());
                jobs.push(FillJob::Intra(si));
            }
        }
    }

    // Inter-scope plan: the scope pairs within rule reach of one
    // another, in ascending order.
    let mut inter_key_to_job: HashMap<(SymbolId, SymbolId, Transform), usize> = HashMap::new();
    let mut inter_source: Vec<(usize, usize, usize)> = Vec::with_capacity(table.near().len());
    for &(si, sj) in table.near() {
        let (sa, sb) = (&scopes[si], &scopes[sj]);
        match (sa.symbol, sb.symbol) {
            (Some(x), Some(y)) => {
                let rel = sa.transform.inverse().after(&sb.transform);
                let key = (x, y, rel);
                if let Some(&job) = inter_key_to_job.get(&key) {
                    stats.cache_hits += 1;
                    inter_source.push((si, sj, job));
                } else {
                    stats.cache_misses += 1;
                    inter_key_to_job.insert(key, jobs.len());
                    inter_source.push((si, sj, jobs.len()));
                    jobs.push(FillJob::Cross(si, sj));
                }
            }
            _ => {
                inter_source.push((si, sj, jobs.len()));
                jobs.push(FillJob::Cross(si, sj));
            }
        }
    }

    // Step 2 — fill every distinct cache entry (and each uncached scope
    // search) across the worker pool. In library mode each *symbol*
    // job additionally consults the batch's content-keyed cache: the
    // key hashes exactly what the fill is a pure function of (the
    // scopes' normalized bbox sequences + the bound-tech revision), so
    // a hit returns the bytes a local fill would have produced.
    // Symbol-less (loose top-level) scopes never touch the shared
    // cache — their geometry is cell-specific, and caching it would
    // grow the cache with rows no sibling can hit.
    let filled: Vec<Arc<Vec<(usize, usize)>>> = run_ordered(jobs.len(), workers, |k| {
        let compute = || match jobs[k] {
            FillJob::Intra(si) => local_candidates(view, table.ids(si), max_range, cell),
            FillJob::Cross(si, sj) => {
                cross_candidates(view, table.ids(si), table.ids(sj), max_range, cell)
            }
        };
        let keyed = cache.and_then(|cache| {
            let key = match jobs[k] {
                FillJob::Intra(si) => scopes[si]
                    .symbol
                    .map(|_| intra_content_key(view, table.ids(si), revision)),
                FillJob::Cross(si, sj) => scopes[si]
                    .symbol
                    .and(scopes[sj].symbol)
                    .map(|_| cross_content_key(view, table.ids(si), table.ids(sj), revision)),
            };
            key.map(|key| (cache, key))
        });
        match keyed {
            Some((cache, key)) => cache.get_or_fill(key, compute),
            None => Arc::new(compute()),
        }
    });

    HierPlan {
        scopes: table,
        intra_source,
        inter_source,
        filled,
    }
}

impl HierPlan<'_> {
    /// Number of assembly units: one per scope (intra pairs), then one
    /// per near scope pair (inter pairs).
    fn unit_count(&self) -> usize {
        self.scopes.scopes().len() + self.inter_source.len()
    }

    /// Unit `k`'s global candidate pairs: its filled cache row mapped
    /// to global ids. Units walk in canonical order: scopes first, then
    /// the near scope pairs.
    fn unit_pairs(&self, k: usize) -> Vec<(usize, usize)> {
        let scopes = self.scopes.scopes().len();
        let (si, sj, job) = if k < scopes {
            (k, k, self.intra_source[k])
        } else {
            self.inter_source[k - scopes]
        };
        let (a, b) = (self.scopes.ids(si), self.scopes.ids(sj));
        self.filled[job]
            .iter()
            .map(|&(la, lb)| (a.get(la), b.get(lb)))
            .collect()
    }
}

/// Evaluation of a filled hierarchical plan, streamed: the tiles are
/// the plan's units — one per scope (intra pairs), one per near scope
/// pair (inter pairs) — walked in unit order. Each unit maps its cache
/// row to global ids in a unit-local buffer (bounded by the widest
/// scope, not the instance count) and discards it after evaluation.
fn hierarchical_tiled(
    cx: &EvalCx<'_>,
    plan: &HierPlan<'_>,
    workers: usize,
    stats: &mut InteractStats,
) -> (Vec<Violation>, Vec<MaskEdge>) {
    let results = run_ordered(plan.unit_count(), workers, |k| {
        let pairs = plan.unit_pairs(k);
        evaluate_tile(cx, &pairs)
    });
    merge_tiles(results, stats)
}

/// Candidate close pairs within one element set (sorted local indices).
fn local_candidates(
    view: &ChipView,
    ids: ScopeIds<'_>,
    max_range: Coord,
    cell: Coord,
) -> Vec<(usize, usize)> {
    let bboxes = view.elements.bboxes();
    let mut index: GridIndex<usize> = GridIndex::new(cell);
    for (local, id) in ids.iter().enumerate() {
        index.insert(bboxes[id], local);
    }
    let mut out = Vec::new();
    for (li, id) in ids.iter().enumerate() {
        // invariant: non-negative range, as above.
        let query = bboxes[id].inflate(max_range).expect("inflate cannot fail");
        // Ascending-query-order results keep `out` lexicographically
        // sorted without an explicit sort.
        for &lj in index.query(&query) {
            if lj > li {
                out.push((li, lj));
            }
        }
    }
    debug_assert!(out.is_sorted());
    out
}

/// Candidate close pairs across two element sets (sorted local index
/// pairs).
fn cross_candidates(
    view: &ChipView,
    a: ScopeIds<'_>,
    b: ScopeIds<'_>,
    max_range: Coord,
    cell: Coord,
) -> Vec<(usize, usize)> {
    let bboxes = view.elements.bboxes();
    let mut index: GridIndex<usize> = GridIndex::new(cell);
    for (local, id) in b.iter().enumerate() {
        index.insert(bboxes[id], local);
    }
    let mut out = Vec::new();
    for (la, id) in a.iter().enumerate() {
        // invariant: non-negative range, as above.
        let query = bboxes[id].inflate(max_range).expect("inflate cannot fail");
        // Ascending-query-order results keep `out` lexicographically
        // sorted without an explicit sort.
        for &lb in index.query(&query) {
            out.push((la, lb));
        }
    }
    debug_assert!(out.is_sorted());
    out
}

/// Content key for an intra-scope fill: the scope's bbox sequence in
/// walk order, **normalized** by its first bbox's lower-left corner —
/// so every translated instance of the same definition, in any cell of
/// the batch, hashes identically. Rotated/mirrored instances hash
/// differently (their bbox sequences differ) and simply miss — a
/// conservative, correct outcome. The bound-technology revision pins
/// the rule reach and cell size the fill was computed under.
///
/// Bboxes are the *complete* input of [`local_candidates`] (layers and
/// shapes only matter at evaluation, which stays per-cell), so equal
/// keys imply byte-equal fills.
fn intra_content_key(view: &ChipView, ids: ScopeIds<'_>, revision: u64) -> (u64, u64) {
    let bboxes = view.elements.bboxes();
    let mut h = ContentHash::new();
    h.word(revision);
    h.word(1); // domain tag: intra
    h.word(ids.len() as u64);
    let (rx, ry) = ids
        .iter()
        .next()
        .map(|id| (bboxes[id].x1, bboxes[id].y1))
        .unwrap_or((0, 0));
    for id in ids.iter() {
        let b = bboxes[id];
        h.coord(b.x1 - rx);
        h.coord(b.y1 - ry);
        h.coord(b.x2 - rx);
        h.coord(b.y2 - ry);
    }
    h.digest()
}

/// Content key for a cross-scope fill: both scopes' bbox sequences,
/// normalized by scope `a`'s reference corner — one shared origin, so
/// the key captures the pair's **relative placement** exactly like the
/// per-run `(SymbolId, SymbolId, relative transform)` key, but by
/// content. See [`intra_content_key`] for why bboxes suffice.
fn cross_content_key(
    view: &ChipView,
    a: ScopeIds<'_>,
    b: ScopeIds<'_>,
    revision: u64,
) -> (u64, u64) {
    let bboxes = view.elements.bboxes();
    let mut h = ContentHash::new();
    h.word(revision);
    h.word(2); // domain tag: cross
    h.word(a.len() as u64);
    h.word(b.len() as u64);
    let (rx, ry) = a
        .iter()
        .next()
        .map(|id| (bboxes[id].x1, bboxes[id].y1))
        .unwrap_or((0, 0));
    for id in a.iter().chain(b.iter()) {
        let bb = bboxes[id];
        h.coord(bb.x1 - rx);
        h.coord(bb.y1 - ry);
        h.coord(bb.x2 - rx);
        h.coord(bb.y2 - ry);
    }
    h.digest()
}

// ---------------------------------------------------------------------
// Phase 2: pair evaluation.
// ---------------------------------------------------------------------

/// Read-only state shared by every evaluation worker.
struct EvalCx<'a> {
    view: &'a ChipView,
    tech: &'a Technology,
    nets: &'a NetgenResult,
    /// [`CheckOptions::same_net_suppression`].
    same_net_suppression: bool,
    /// [`CheckOptions::metric`].
    metric: SizingMode,
    /// Device-forming layer pairs (touching cross-layer pairs on these
    /// layers were already reported as implied devices by the
    /// connection stage), from the [`BoundTechnology`].
    forming: &'a HashSet<(LayerId, LayerId)>,
    /// The archetype behind each distinct device type among the devices
    /// this run can meet (a handful), resolved once: the pair loop finds
    /// a device's archetype by comparing interned handles instead of
    /// hashing its type name per pair.
    archetypes: Vec<(Istr, Option<&'a DeviceArchetype>)>,
}

impl<'a> EvalCx<'a> {
    fn new(
        view: &'a ChipView,
        tech: &'a Technology,
        bound: &'a BoundTechnology,
        nets: &'a NetgenResult,
        options: &CheckOptions,
        archetypes: Vec<(Istr, Option<&'a DeviceArchetype>)>,
    ) -> Self {
        EvalCx {
            view,
            tech,
            nets,
            same_net_suppression: options.same_net_suppression,
            metric: options.metric,
            forming: bound.forming(),
            archetypes,
        }
    }
}

/// Resolves the distinct device types of `devices` (indices into
/// `view.devices`) against the technology, once each.
fn device_archetypes<'a>(
    view: &ChipView,
    tech: &'a Technology,
    devices: impl IntoIterator<Item = usize>,
) -> Vec<(Istr, Option<&'a DeviceArchetype>)> {
    let mut out: Vec<(Istr, Option<&'a DeviceArchetype>)> = Vec::new();
    for d in devices {
        let ty = view.devices[d].device_type;
        if !out.iter().any(|(known, _)| *known == ty) {
            out.push((ty, tech.device(view.str(ty))));
        }
    }
    out
}

/// Decides and applies the rule for one element pair.
fn evaluate_pair(
    cx: &EvalCx<'_>,
    i: usize,
    j: usize,
    violations: &mut Vec<Violation>,
    edges: &mut Vec<MaskEdge>,
    stats: &mut InteractStats,
) {
    let (view, tech, nets) = (cx.view, cx.tech, cx.nets);
    let a = view.elements.get(i);
    let b = view.elements.get(j);

    // Same-mask conflict edges are purely geometric, so they are
    // collected *before* any electrical pruning: sharing a net or a
    // device does not put two features on different masks. Touching
    // features (dist == 0) print as one feature and never conflict.
    if a.layer() == b.layer() {
        if let Some(threshold) = tech.rules().same_mask(a.layer()) {
            if let Some((dist, _)) =
                diic_geom::batch::closest_approach(a.rects(), b.rects(), cx.metric)
            {
                if dist > 0 && dist < threshold {
                    edges.push(MaskEdge {
                        a: i,
                        b: j,
                        gap: dist,
                    });
                }
            }
        }
    }

    if a.device().is_some() && a.device() == b.device() {
        return; // internal to one device: stage 3's territory
    }

    let net_a = nets.element_net[i];
    let net_b = nets.element_net[j];
    let same_net = match (net_a, net_b) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    };

    // Device overrides (Fig. 6): an element inside a device may replace the
    // matrix rule for its interactions.
    let mut rule: Option<(Coord, bool)> = None; // (required, counts_same_net)
    let mut overridden = false;
    for (own, other) in [(i, j), (j, i)] {
        let eo = view.elements.get(own);
        let Some(d) = eo.device() else { continue };
        let ty = view.devices[d].device_type;
        // invariant: `archetypes` covers every device this run's
        // candidate elements belong to (see the two `EvalCx` builders).
        let resolved = cx.archetypes.iter().find(|(known, _)| *known == ty);
        let Some(arch) = resolved.expect("device type resolved up front").1 else {
            continue;
        };
        if let Some(o) = arch.find_override(eo.layer(), view.elements.layers()[other]) {
            overridden = true;
            match o.spacing {
                None => {
                    stats.override_waived += 1;
                    return; // waived entirely (resistor-to-isolation tie)
                }
                Some(s) => {
                    if same_net && !o.applies_same_net {
                        stats.same_net_suppressed += 1;
                        return;
                    }
                    rule = Some((s, same_net));
                }
            }
            break;
        }
    }

    if !overridden {
        let Some(matrix) = tech.rules().spacing(a.layer(), b.layer()) else {
            stats.no_rule += 1;
            return;
        };
        // Transistor relatedness: a transistor's un-netted parts are only
        // checked against unrelated elements.
        let mut required = None;
        for (inside, other) in [(i, j), (j, i)] {
            let Some(d) = view.elements.get(inside).device() else {
                continue;
            };
            let dev = &view.devices[d];
            if !dev.class.map(|c| c.is_transistor()).unwrap_or(false) {
                continue;
            }
            let other_net = nets.element_net[other];
            let related = match other_net {
                Some(n) => nets.device_terminal_nets[d].contains(&n),
                None => view
                    .elements
                    .get(other)
                    .device()
                    .map(|od| od == d)
                    .unwrap_or(false),
            };
            if related {
                stats.related_suppressed += 1;
                return;
            }
            required = Some(matrix.for_unrelated_device());
        }
        let req = match required {
            Some(r) => r,
            None => {
                if same_net && cx.same_net_suppression {
                    match matrix.for_same_net() {
                        None => {
                            stats.same_net_suppressed += 1;
                            return;
                        }
                        Some(s) => s,
                    }
                } else {
                    matrix.diff_net
                }
            }
        };
        rule = Some((req, same_net));
    }

    let Some((required, same_net)) = rule else {
        return;
    };

    // Distance: the closest-approach batch kernel over the two arena
    // runs. The marker is the tight [`diic_geom::spacing::gap_box`] of
    // the closest rect pair — every marker point is within the pair's
    // gap distance of both offending features, which is what lets the
    // incremental checker anchor spacing violations to a dirty halo (a
    // bounding-union marker could stretch arbitrarily far from the gap
    // along a long wire).
    stats.distance_checks += 1;
    let Some((dist, gap_loc)) = diic_geom::batch::closest_approach(a.rects(), b.rects(), cx.metric)
    else {
        return;
    };

    if dist == 0 {
        // Touching: same-layer pairs were resolved by the connection stage;
        // cross-layer device-forming overlaps were reported as implied
        // devices. What remains (e.g. base touching isolation under a
        // transistor override) is a genuine short.
        if a.layer() == b.layer() {
            return;
        }
        let key = if a.layer() <= b.layer() {
            (a.layer(), b.layer())
        } else {
            (b.layer(), a.layer())
        };
        if cx.forming.contains(&key) {
            return;
        }
    }

    if dist < required {
        // Orient the pair canonically before naming layers: the flat
        // search, the hierarchical search, and the edit session's halo
        // re-check enumerate pairs in different orders, and the rendered
        // violation must not encode which path produced it (see
        // `pair_context`).
        let (a, b) = if pair_key(view, tech, a) <= pair_key(view, tech, b) {
            (a, b)
        } else {
            (b, a)
        };
        violations.push(Violation {
            stage: CheckStage::Interactions,
            kind: ViolationKind::Spacing {
                layer_a: tech.layer(a.layer()).name.clone(),
                layer_b: tech.layer(b.layer()).name.clone(),
                measured: dist,
                required,
                same_net,
            },
            location: Some(gap_loc),
            context: pair_context(view, a, b),
        });
    }
}

/// Enumeration-independent sort key for one side of an element pair:
/// instance path, layer name, bounding box. Two elements that tie on
/// all three are interchangeable duplicates, so the residual ambiguity
/// cannot change a rendered violation.
fn pair_key<'v>(
    view: &'v ChipView,
    tech: &'v Technology,
    e: crate::binding::ElementRef<'_>,
) -> (&'v str, &'v str, Rect) {
    (
        view.str(e.path()),
        tech.layer(e.layer()).name.as_str(),
        e.bbox(),
    )
}

fn pair_context(
    view: &ChipView,
    a: crate::binding::ElementRef<'_>,
    b: crate::binding::ElementRef<'_>,
) -> String {
    if a.path() == b.path() {
        view.str(a.path()).to_string()
    } else {
        // Lexicographic, not enumeration order: the flat search hands
        // pairs over in element-id order, the hierarchical search in
        // scope-visit order, and the edit session's halo re-check in
        // clipped-subset order — the rendered context must not care
        // which path produced it (an `AddCall` edit appends a call
        // *after* top-level elements, where id order and scope order
        // disagree).
        let (pa, pb) = (view.str(a.path()), view.str(b.path()));
        if pa <= pb {
            format!("{pa} / {pb}")
        } else {
            format!("{pb} / {pa}")
        }
    }
}

// ---------------------------------------------------------------------
// Same-mask conflict graphs (multi-patterning).
// ---------------------------------------------------------------------

/// One conflict-graph edge: elements `a < b` on the same layer, closer
/// than the layer's `same_mask` distance but not touching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct MaskEdge {
    a: usize,
    b: usize,
    gap: Coord,
}

/// Analyses a collected edge set: BFS 2-colouring per connected
/// component (sorted adjacency, ascending roots — fully deterministic),
/// one [`ViolationKind::MaskOddCycle`] per non-bipartite component,
/// anchored at the closest (then lowest-id) edge whose endpoints took
/// the same colour, with `cycle` the length of the actual odd cycle
/// that edge closes through the BFS tree.
fn mask_cycle_violations(
    view: &ChipView,
    tech: &Technology,
    metric: SizingMode,
    mut edges: Vec<MaskEdge>,
) -> Vec<Violation> {
    if edges.is_empty() {
        return Vec::new();
    }
    // Canonical edge order regardless of which search shape collected
    // the edges; the dedup is belt and braces — the tiling contract
    // already enumerates every pair exactly once.
    edges.sort_unstable();
    edges.dedup();

    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for e in &edges {
        adj.entry(e.a).or_default().push(e.b);
        adj.entry(e.b).or_default().push(e.a);
    }
    let mut nodes: Vec<usize> = adj.keys().copied().collect();
    nodes.sort_unstable();
    for list in adj.values_mut() {
        list.sort_unstable();
        list.dedup();
    }

    let mut color: HashMap<usize, bool> = HashMap::new();
    let mut parent: HashMap<usize, usize> = HashMap::new();
    let mut depth: HashMap<usize, usize> = HashMap::new();
    let mut out = Vec::new();
    for &root in &nodes {
        if color.contains_key(&root) {
            continue;
        }
        color.insert(root, false);
        depth.insert(root, 0);
        let mut queue = std::collections::VecDeque::from([root]);
        let mut members: HashSet<usize> = HashSet::from([root]);
        while let Some(u) = queue.pop_front() {
            let cu = color[&u];
            for &v in &adj[&u] {
                if let std::collections::hash_map::Entry::Vacant(slot) = color.entry(v) {
                    slot.insert(!cu);
                    parent.insert(v, u);
                    depth.insert(v, depth[&u] + 1);
                    members.insert(v);
                    queue.push_back(v);
                }
            }
        }
        // An edge whose endpoints took the same colour closes an odd
        // cycle through the BFS tree; both endpoints of any edge share
        // a component, so testing one against `members` suffices.
        let witness = edges
            .iter()
            .filter(|e| members.contains(&e.a) && color[&e.a] == color[&e.b])
            .min_by_key(|e| (e.gap, e.a, e.b));
        let Some(e) = witness else { continue };
        let cycle = odd_cycle_len(&parent, &depth, e.a, e.b);
        let ea = view.elements.get(e.a);
        let eb = view.elements.get(e.b);
        let required = tech
            .rules()
            .same_mask(ea.layer())
            .expect("a mask edge implies a same_mask rule on its layer");
        let (_, gap_loc) = diic_geom::batch::closest_approach(ea.rects(), eb.rects(), metric)
            .expect("a mask edge implies a closest approach");
        out.push(Violation {
            stage: CheckStage::Interactions,
            kind: ViolationKind::MaskOddCycle {
                layer: tech.layer(ea.layer()).name.clone(),
                measured: e.gap,
                required,
                cycle,
            },
            location: Some(gap_loc),
            context: pair_context(view, ea, eb),
        });
    }
    out
}

/// Length of the odd cycle the tree-closing edge `(u, v)` forms: the
/// two BFS-tree paths up to the lowest common ancestor, plus the edge
/// itself. Same-colour endpoints make `depth[u] + depth[v]` even, so
/// the result is always odd.
fn odd_cycle_len(
    parent: &HashMap<usize, usize>,
    depth: &HashMap<usize, usize>,
    mut u: usize,
    mut v: usize,
) -> usize {
    let (du, dv) = (depth[&u], depth[&v]);
    while depth[&u] > depth[&v] {
        u = parent[&u];
    }
    while depth[&v] > depth[&u] {
        v = parent[&v];
    }
    while u != v {
        u = parent[&u];
        v = parent[&v];
    }
    du + dv - 2 * depth[&u] + 1
}

/// Runs the same-mask conflict-graph analysis standalone, over the
/// whole chip: enumerates conflicting same-layer pairs from one flat
/// grid index and hands the edge set to the same odd-cycle analysis
/// the interaction stage runs — so the violations are byte-identical
/// to the ones [`check_interactions`] appends under the same `metric`.
/// Returns nothing when the technology declares no `same_mask` rules.
///
/// This is the incremental session's recompute path: bipartiteness is
/// global, so after any edit the conflict verdict is re-derived from
/// scratch here rather than patched through the dirty halo.
pub fn check_same_mask(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    metric: SizingMode,
) -> Vec<Violation> {
    if !tech.rules().has_same_mask() {
        return Vec::new();
    }
    let max_range = bound.max_rule_range();
    let index = element_grid(view, bound.cell_size());
    let bboxes = view.elements.bboxes();
    let layers = view.elements.layers();
    let mut edges = Vec::new();
    for (i, bbox) in bboxes.iter().enumerate() {
        let Some(threshold) = tech.rules().same_mask(layers[i]) else {
            continue;
        };
        // invariant: non-negative range, as above.
        let query = bbox.inflate(max_range).expect("inflate cannot fail");
        for &j in index.query(&query) {
            if j <= i || layers[j] != layers[i] {
                continue;
            }
            let a = view.elements.get(i);
            let b = view.elements.get(j);
            if let Some((dist, _)) =
                diic_geom::batch::closest_approach(a.rects(), b.rects(), metric)
            {
                if dist > 0 && dist < threshold {
                    edges.push(MaskEdge {
                        a: i,
                        b: j,
                        gap: dist,
                    });
                }
            }
        }
    }
    mask_cycle_violations(view, tech, metric, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use crate::connect::check_connections;
    use crate::netgen::generate_netlist;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    /// Options selecting the flat or the hierarchical search.
    fn search(hierarchical: bool) -> CheckOptions {
        CheckOptions {
            hierarchical,
            ..CheckOptions::default()
        }
    }

    fn run_with(cif: &str, options: CheckOptions) -> (Vec<Violation>, InteractStats) {
        let tech = nmos_technology();
        let (view, nets, scopes) = build(cif, &tech);
        let bound = BoundTechnology::new(&tech);
        check_interactions(&view, &tech, &bound, &nets, &scopes, &options, None)
    }

    /// The flat search with default options.
    fn run(cif: &str) -> (Vec<Violation>, InteractStats) {
        run_with(cif, search(false))
    }

    /// A one-metal technology with a `same_mask` rule: spacing 750,
    /// conflict distance 1250 — gaps in (750, 1250) are spacing-clean
    /// but mask-conflicting.
    fn mp_tech() -> diic_tech::Technology {
        use diic_tech::{Layer, LayerKind, SpacingRule, Technology};
        let mut tech = Technology::new("mp", 250);
        let m = tech.add_layer(Layer::new("metal", "NM", LayerKind::Metal, 750));
        tech.rules_mut().set_spacing(m, m, SpacingRule::simple(750));
        tech.rules_mut().set_same_mask(m, 1250);
        tech
    }

    fn build(
        cif: &str,
        tech: &diic_tech::Technology,
    ) -> (ChipView, crate::netgen::NetgenResult, ScopeTable) {
        build_layout(&parse(cif).unwrap(), tech)
    }

    fn build_layout(
        layout: &diic_cif::Layout,
        tech: &diic_tech::Technology,
    ) -> (ChipView, crate::netgen::NetgenResult, ScopeTable) {
        let (binding, _) = LayerBinding::bind(layout, tech);
        let (mut view, runs) = instantiate(layout, tech, &binding, Default::default());
        let scopes = ScopeTable::build(
            layout.top_items(),
            runs.iter().map(|run| run.0),
            view.elements.bboxes(),
            max_rule_range(tech),
        );
        let (conn, _) = check_connections(&view, tech, &scopes, 1);
        let labels: Vec<_> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();
        let nets = generate_netlist(&mut view, tech, &conn.merges, &labels, &scopes, 1);
        (view, nets, scopes)
    }

    /// Triangle of metal boxes with pairwise gaps 950 / 1000 / 1000:
    /// every gap clears the 750 spacing rule but conflicts under the
    /// 1250 same-mask rule — an odd (3-)cycle.
    const ODD_TRIANGLE: &str = "L NM; B 2000 750 1000 375; B 2000 750 3950 375; \
                                B 2950 750 2475 2125; E";

    /// Four metal boxes in a ring: adjacent gaps 1000 (conflict),
    /// diagonal gaps 1000·√2 ≈ 1414 (clear under the Euclidean
    /// metric) — an even cycle, 2-colourable.
    const EVEN_RING: &str = "L NM; B 2000 750 1000 2125; B 2000 750 4000 2125; \
                             B 2000 750 1000 375; B 2000 750 4000 375; E";

    #[test]
    fn odd_cycle_flagged_in_every_search_shape() {
        let tech = mp_tech();
        let (view, nets, scopes) = build(ODD_TRIANGLE, &tech);
        let bound = BoundTechnology::new(&tech);
        let mut reference: Option<Vec<Violation>> = None;
        for hierarchical in [false, true] {
            for parallelism in [1usize, 3] {
                let options = CheckOptions {
                    parallelism,
                    ..search(hierarchical)
                };
                let (v, _) =
                    check_interactions(&view, &tech, &bound, &nets, &scopes, &options, None);
                let mask: Vec<&Violation> = v
                    .iter()
                    .filter(|x| matches!(x.kind, ViolationKind::MaskOddCycle { .. }))
                    .collect();
                assert_eq!(mask.len(), 1, "hier={hierarchical}: {v:?}");
                assert!(
                    matches!(
                        &mask[0].kind,
                        ViolationKind::MaskOddCycle {
                            measured: 1000,
                            required: 1250,
                            cycle: 3,
                            ..
                        }
                    ),
                    "{:?}",
                    mask[0].kind
                );
                assert!(mask[0].location.is_some());
                match &reference {
                    None => reference = Some(v),
                    Some(r) => assert_eq!(r, &v, "hier={hierarchical} workers={parallelism}"),
                }
            }
        }
    }

    #[test]
    fn even_ring_is_two_mask_decomposable() {
        let tech = mp_tech();
        let (view, nets, scopes) = build(EVEN_RING, &tech);
        let bound = BoundTechnology::new(&tech);
        let (v, _) = check_interactions(&view, &tech, &bound, &nets, &scopes, &search(false), None);
        assert!(
            !v.iter()
                .any(|x| matches!(x.kind, ViolationKind::MaskOddCycle { .. })),
            "an even cycle is bipartite: {v:?}"
        );
    }

    #[test]
    fn standalone_check_matches_inline_collection() {
        let tech = mp_tech();
        for cif in [ODD_TRIANGLE, EVEN_RING] {
            let (view, nets, scopes) = build(cif, &tech);
            let bound = BoundTechnology::new(&tech);
            let options = search(false);
            let (v, _) = check_interactions(&view, &tech, &bound, &nets, &scopes, &options, None);
            let inline: Vec<Violation> = v
                .into_iter()
                .filter(|x| matches!(x.kind, ViolationKind::MaskOddCycle { .. }))
                .collect();
            let standalone = check_same_mask(&view, &tech, &bound, options.metric);
            assert_eq!(inline, standalone, "cif={cif}");
        }
    }

    #[test]
    fn standalone_check_is_free_without_rules() {
        // nmos declares no same_mask rules: the standalone check
        // early-outs and the triangle is clean.
        let tech = nmos_technology();
        let (view, _, _) = build(ODD_TRIANGLE, &tech);
        let bound = BoundTechnology::new(&tech);
        assert!(check_same_mask(&view, &tech, &bound, SizingMode::Euclidean).is_empty());
    }

    #[test]
    fn touching_features_do_not_conflict() {
        // Two of the triangle's boxes fused into one touching pair:
        // touching features print as one mask feature, so the only
        // conflict edges left cannot close an odd cycle.
        let cif = "L NM; B 2000 750 1000 375; B 2000 750 2950 375; \
                   B 2950 750 2475 2125; E";
        let tech = mp_tech();
        let (view, nets, scopes) = build(cif, &tech);
        let bound = BoundTechnology::new(&tech);
        let (v, _) = check_interactions(&view, &tech, &bound, &nets, &scopes, &search(false), None);
        assert!(
            !v.iter()
                .any(|x| matches!(x.kind, ViolationKind::MaskOddCycle { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn same_mask_extends_rule_reach() {
        let tech = mp_tech();
        assert_eq!(
            max_rule_range(&tech),
            1250,
            "same_mask must widen the reach"
        );
    }

    #[test]
    fn metal_spacing_violation() {
        // Two metal wires 500 apart; rule is 750.
        let (v, _) = run("L NM; B 2000 750 1000 375; B 2000 750 1000 1625; E");
        assert_eq!(v.len(), 1);
        assert!(matches!(
            &v[0].kind,
            ViolationKind::Spacing {
                measured: 500,
                required: 750,
                ..
            }
        ));
    }

    #[test]
    fn fig5a_same_net_not_checked() {
        // The same geometry with both wires declared on one net: suppressed.
        let (v, stats) = run("L NM; 9N A; B 2000 750 1000 375; 9N A; B 2000 750 1000 1625; E");
        assert!(v.is_empty(), "{v:?}");
        assert!(stats.same_net_suppressed >= 1);
    }

    #[test]
    fn ablation_without_suppression_flags_same_net() {
        let opts = CheckOptions {
            same_net_suppression: false,
            ..search(false)
        };
        let (v, _) = run_with(
            "L NM; 9N A; B 2000 750 1000 375; 9N A; B 2000 750 1000 1625; E",
            opts,
        );
        assert_eq!(
            v.len(),
            1,
            "without topology the same-net pair is a false error"
        );
        assert!(matches!(
            &v[0].kind,
            ViolationKind::Spacing { same_net: true, .. }
        ));
    }

    #[test]
    fn fig4_corner_metric_difference() {
        // Metal corners at diagonal distance 500·√2 ≈ 707 < 750: violation
        // under Euclidean; L∞ = 500 also violates. Now at 550 apart each
        // axis: L2 ≈ 778 > 750 passes, L∞ = 550 fails (false error).
        let euclid = run("L NM; B 1000 750 500 375; B 1000 750 2050 1675; E");
        assert!(euclid.0.is_empty(), "{:?}", euclid.0);
        let orth = run_with(
            "L NM; B 1000 750 500 375; B 1000 750 2050 1675; E",
            CheckOptions {
                metric: SizingMode::Orthogonal,
                ..search(false)
            },
        );
        assert_eq!(orth.0.len(), 1, "orthogonal metric over-flags the corner");
    }

    #[test]
    fn no_rule_pairs_skipped() {
        let (v, stats) = run("L NM; B 2000 750 1000 375; L ND; B 2000 500 1000 1625; E");
        assert!(v.is_empty());
        assert!(stats.no_rule >= 1);
    }

    #[test]
    fn transistor_related_suppressed_unrelated_checked() {
        // A poly wire connected to the transistor's gate terminal may run
        // close to the device; an unrelated poly wire may not.
        let cif_related = "
            DS 1; 9D NMOS_ENH; 9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
            L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF;
            C 1 T 0 0;
            L NP; 9N in; W 500 -375 0 -3000 0;
            E";
        let (v, stats) = run(cif_related);
        assert!(v.is_empty(), "{v:?}");
        assert!(stats.related_suppressed >= 1);
        // Unrelated wire at 125 from the diffusion (rule: poly-diff 250).
        let cif_unrelated = "
            DS 1; 9D NMOS_ENH; 9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
            L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF;
            C 1 T 0 0;
            L NP; 9N foreign; W 500 875 -3000 875 3000;
            E";
        let (v2, _) = run(cif_unrelated);
        assert!(
            v2.iter()
                .any(|x| matches!(&x.kind, ViolationKind::Spacing { .. })),
            "unrelated poly near transistor diff must be checked: {v2:?}"
        );
    }

    #[test]
    fn hierarchical_matches_flat_verdicts() {
        // An array with injected spacing violations must yield identical
        // violation multisets under both engines.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..6 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 4000));
        }
        cif.push('E');
        let (flat, _) = run(&cif);
        let (hier, stats) = run_with(&cif, search(true));
        assert_eq!(flat.len(), hier.len());
        assert_eq!(flat.len(), 6); // one violation per instance
        assert!(stats.cache_hits >= 5, "stats: {stats:?}");
    }

    #[test]
    fn scopes_are_positional_whatever_the_calls_are_named() {
        // Three instances of a cell with one internal spacing fault,
        // the first two close enough to fault across their boundary;
        // the top-level calls renamed to dotted, empty and repeated
        // names. Keyed by name, the hierarchical search lost the
        // renamed scopes' elements (1 of 3, 1 of 3, 0 of 3 internal
        // faults) or indexed out of bounds (the last naming).
        let tech = nmos_technology();
        let cif = "DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;
                   C 1 T 0 0; C 1 T 2500 0; C 1 T 10000 0; E";
        for names in [
            ["i0", "i1", "i2"],
            ["a.b", "i1", "i2"],
            ["", "i1", "i2"],
            ["x", "x", "i2"],
            ["i1", "x", "x"],
        ] {
            let mut layout = parse(cif).unwrap();
            for (k, name) in names.iter().enumerate() {
                match layout.top_item_mut(k) {
                    diic_cif::Item::Call(c) => c.name = name.to_string(),
                    item => unreachable!("a call: {item:?}"),
                }
            }
            let (view, nets, scopes) = build_layout(&layout, &tech);
            let bound = BoundTechnology::new(&tech);
            let run = |hierarchical: bool| {
                let options = search(hierarchical);
                let (v, stats) =
                    check_interactions(&view, &tech, &bound, &nets, &scopes, &options, None);
                let mut rendered: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
                rendered.sort();
                (rendered, stats.candidate_pairs)
            };
            let (flat, hier) = (run(false), run(true));
            assert_eq!(flat, hier, "{names:?}");
            assert_eq!(flat.0.len(), 3 + 4, "{names:?}: {:#?}", flat.0);
        }
    }

    #[test]
    fn hierarchical_cross_instance_pairs() {
        // Instances placed too close: the wires of adjacent cells violate
        // metal spacing across the boundary.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; DF;\n");
        for i in 0..5 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2500)); // 500 gap
        }
        cif.push('E');
        let (flat, _) = run(&cif);
        let (hier, stats) = run_with(&cif, search(true));
        assert_eq!(flat.len(), 4, "{flat:?}");
        assert_eq!(hier.len(), 4);
        // 4 identical adjacent pairs: 1 miss + 3 hits.
        assert!(stats.cache_hits >= 3, "stats: {stats:?}");
    }

    #[test]
    fn parallel_evaluation_matches_serial_exactly() {
        // A dense array with both intra- and inter-instance violations.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..8 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2500));
        }
        cif.push('E');
        for hierarchical in [false, true] {
            let serial = run_with(&cif, search(hierarchical));
            for workers in [2usize, 3, 8, 0] {
                let parallel = run_with(
                    &cif,
                    CheckOptions {
                        parallelism: workers,
                        ..search(hierarchical)
                    },
                );
                assert_eq!(
                    serial.0, parallel.0,
                    "hier={hierarchical} workers={workers}: violation lists diverge"
                );
                assert_eq!(
                    serial.1, parallel.1,
                    "hier={hierarchical} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn flat_tiles_count_each_pair_once() {
        // Under tiling, `candidate_pairs` counts every enumerated pair
        // exactly once — a pair spanning two tiles is owned by its lower
        // element's tile — pinned against a brute-force count for every
        // tile width and worker count. Tiny tiles (1 element) force
        // every pair to span a tile boundary.
        // 5 wires in a 1250-pitch column: adjacent wires are within the
        // rule reach of one another.
        let mut cif = String::new();
        for i in 0..5 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 1250));
        }
        cif.push('E');
        let tech = nmos_technology();
        let (view, nets, scopes) = build(&cif, &tech);
        let bound = BoundTechnology::new(&tech);
        let reach = bound.max_rule_range();
        let bboxes = view.elements.bboxes();
        let within = |a: Rect, b: Rect| {
            (a.x1 - b.x2)
                .max(b.x1 - a.x2)
                .max(a.y1 - b.y2)
                .max(b.y1 - a.y2)
                <= reach
        };
        // The pairs each element owns: the higher elements within reach.
        let owned: Vec<u64> = (0..bboxes.len())
            .map(|i| {
                let higher = bboxes[i + 1..].iter();
                higher.filter(|&&b| within(bboxes[i], b)).count() as u64
            })
            .collect();
        let total: u64 = owned.iter().sum();
        assert!(total > 0);
        let mut reference: Option<(Vec<Violation>, u64)> = None;
        for tile_width in [1usize, 2, 512] {
            let widest = (owned.chunks(tile_width).map(|t| t.iter().sum::<u64>()))
                .max()
                .unwrap();
            assert!(tile_width >= 5 || widest < total);
            for workers in [1usize, 2, 3, 7] {
                let options = CheckOptions {
                    parallelism: workers,
                    ..search(false)
                };
                let (v, stats) = check_interactions_tiled(
                    &view, &tech, &bound, &nets, &scopes, &options, None, tile_width,
                );
                let at = format!("tile={tile_width} workers={workers}");
                assert_eq!(
                    stats.candidate_pairs, total,
                    "{at}: pairs double- or under-counted"
                );
                assert_eq!(stats.peak_candidate_buffer, widest, "{at}");
                match &reference {
                    None => reference = Some((v, stats.distance_checks)),
                    Some((rv, checks)) => {
                        assert_eq!(rv, &v, "{at}: violations diverge");
                        assert_eq!(*checks, stats.distance_checks, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn hierarchical_search_streams_per_scope() {
        // The hierarchical search's tiles are its scopes and near scope
        // pairs; the peak buffer must be the widest of them, not the
        // total across instances — the same pairs the flat search
        // counts.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..8 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2500));
        }
        cif.push('E');
        let (flat, hier) = (run(&cif), run_with(&cif, search(true)));
        assert_eq!(hier.1.candidate_pairs, flat.1.candidate_pairs);
        assert!(hier.1.cache_hits > 0);
        assert!(
            hier.1.peak_candidate_buffer < hier.1.candidate_pairs,
            "peak {} vs total {}",
            hier.1.peak_candidate_buffer,
            hier.1.candidate_pairs
        );
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let mut a = InteractStats {
            candidate_pairs: 1,
            distance_checks: 2,
            ..Default::default()
        };
        let b = InteractStats {
            candidate_pairs: 10,
            same_net_suppressed: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.candidate_pairs, 11);
        assert_eq!(a.distance_checks, 2);
        assert_eq!(a.same_net_suppressed, 3);
    }

    #[test]
    fn stats_absorb_maxes_peak_buffer() {
        // The peak is a high-water mark, not a sum: folding per-tile
        // records keeps the widest tile.
        let mut a = InteractStats {
            peak_candidate_buffer: 5,
            ..Default::default()
        };
        a.absorb(&InteractStats {
            peak_candidate_buffer: 9,
            ..Default::default()
        });
        a.absorb(&InteractStats {
            peak_candidate_buffer: 3,
            ..Default::default()
        });
        assert_eq!(a.peak_candidate_buffer, 9);
    }

    #[test]
    fn cell_size_derived_from_rules() {
        let tech = nmos_technology();
        let reach = max_rule_range(&tech);
        assert!(reach > 0);
        assert_eq!(interaction_cell_size(&tech), (reach * 4).max(1000));
    }

    #[test]
    fn cell_size_floored_for_empty_rule_deck() {
        // A technology with no rules and no devices: the reach floor of
        // 1 must still yield a usable (non-degenerate) cell size.
        let tech = diic_tech::Technology::new("empty", 250);
        assert_eq!(max_rule_range(&tech), 1);
        assert_eq!(interaction_cell_size(&tech), 1000);
    }

    #[test]
    fn cell_size_saturates_for_huge_rule_reach() {
        use diic_tech::{Layer, LayerKind, SpacingRule, Technology};
        let mut tech = Technology::new("huge", 250);
        let m = tech.add_layer(Layer::new("m", "M", LayerKind::Metal, 750));
        tech.rules_mut()
            .set_spacing(m, m, SpacingRule::simple(Coord::MAX));
        assert_eq!(max_rule_range(&tech), Coord::MAX);
        // reach * 4 would overflow; the derivation must saturate, not panic.
        assert_eq!(interaction_cell_size(&tech), Coord::MAX);
    }

    #[test]
    fn parallel_enumeration_matches_serial_exactly() {
        // Enumeration itself (not just evaluation) runs on the worker
        // pool: an array with repeated symbols (intra + inter cache
        // traffic) and loose top-level geometry must yield identical
        // pair lists, stats, and violations for any worker count.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..7 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2300));
        }
        cif.push_str("L NM; B 2000 700 1000 9000;\nE");
        let serial = run_with(&cif, search(true));
        assert!(serial.1.cache_hits > 0 && serial.1.cache_misses > 0);
        for workers in [2usize, 5, 0] {
            let parallel = run_with(
                &cif,
                CheckOptions {
                    parallelism: workers,
                    ..search(true)
                },
            );
            assert_eq!(serial.0, parallel.0, "workers={workers}");
            assert_eq!(serial.1, parallel.1, "workers={workers}");
        }
    }
}
