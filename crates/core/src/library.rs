//! Library mode: batch verification of many cells over shared,
//! content-keyed caches.
//!
//! A standard-cell library run verifies thousands of cell *variants*
//! against one technology. A loop of standalone [`crate::check`] calls
//! rebuilds three things from scratch per cell that are invariant or
//! shareable across the batch:
//!
//! 1. the **technology-derived constants** — rule reach, interaction
//!    cell size, device-forming layer pairs — recomputed by walking the
//!    whole rule deck on every call ([`BoundTechnology`] hoists them to
//!    once per technology);
//! 2. the **hierarchical interaction candidate cache**, keyed per run
//!    by scope identity (`SymbolId`), so identical subcells appearing
//!    in *sibling* variants are searched once per variant instead of
//!    once per library ([`LibraryCache`] re-keys the fills by
//!    definition **content hash** and shares them across cells);
//! 3. the **string interner**, rebuilt cold per cell even though
//!    sibling variants intern nearly identical path / net-key / device
//!    vocabularies (the batch driver seeds each cell's view from a
//!    long-lived per-worker interner, compacted between cells past a
//!    growth budget — [`crate::StringInterner::compact_stale`]).
//!
//! [`check_library`] schedules cells across the shared deterministic
//! worker pool ([`crate::parallel::run_ordered_with_state`]) —
//! cell-granular, results merged in input order — and emits every
//! cell's findings through its own [`Sink`]. The contract that makes
//! the sharing safe to adopt is **per-cell byte-identity**: each cell's
//! violations, net list, and interaction statistics are identical to a
//! standalone [`crate::check`] of that cell, for any worker count, with
//! or without interner compaction. The eleventh differential leg
//! (`tests/library.rs`) pins this on generated faulted libraries.
//!
//! Why identity survives each shared piece:
//!
//! * the [`BoundTechnology`] values equal the per-run computations by
//!   construction (same pure functions of the same technology);
//! * a shared cache row is only reused under a key that hashes the
//!   scopes' **normalized bbox sequences** (plus the bound-technology
//!   revision) — precisely the inputs the fill is a pure function of —
//!   so a hit returns the bytes a local fill would have produced, and
//!   the *per-cell* plan-phase hit/miss counters are untouched
//!   (cross-cell hits are batch-level statistics, counted here);
//! * interner handle values differ when a cell starts from a warm
//!   dictionary, but handles never reach rendered output: violations
//!   materialize their strings at creation and the net list
//!   canonicalises by key *strings* (see `netgen`'s byte-identity
//!   contract), so a seeded view renders identically.

use crate::binding::StringInterner;
use crate::checker::{CheckOptions, CheckReport};
use crate::engine::{CheckContext, Sink, StageEngine, StageTime};
use crate::interact::{interaction_cell_size, max_rule_range, InteractStats};
use crate::parallel::{effective_parallelism, run_ordered_with_state};
use diic_cif::Layout;
use diic_geom::Coord;
use diic_tech::{LayerId, Technology};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// BoundTechnology: per-technology constants, computed once.
// ---------------------------------------------------------------------

/// A technology with its interaction-scale constants precomputed: rule
/// reach ([`max_rule_range`]), grid cell size
/// ([`interaction_cell_size`]), and the device-forming layer pairs —
/// what the scope table, the interaction searches and an edit session's
/// halo are sized by. A standalone check builds one per run; a library
/// batch builds one per technology.
///
/// Each binding carries a process-unique `revision` (a monotone
/// counter) that the content-keyed [`LibraryCache`] folds into its
/// hash keys, so fills computed under one technology can never be
/// served under another — including a *mutated* copy of the same deck,
/// which gets a fresh binding and therefore a fresh revision.
#[derive(Debug, Clone)]
pub struct BoundTechnology {
    max_rule_range: Coord,
    cell_size: Coord,
    forming: HashSet<(LayerId, LayerId)>,
    revision: u64,
}

impl BoundTechnology {
    /// Precomputes the interaction constants for `tech`.
    pub fn new(tech: &Technology) -> Self {
        static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);
        BoundTechnology {
            max_rule_range: max_rule_range(tech),
            cell_size: interaction_cell_size(tech),
            forming: crate::connect::device_forming_pairs(tech),
            revision: NEXT_REVISION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The precomputed [`max_rule_range`].
    pub fn max_rule_range(&self) -> Coord {
        self.max_rule_range
    }

    /// The precomputed [`interaction_cell_size`].
    pub fn cell_size(&self) -> Coord {
        self.cell_size
    }

    /// The precomputed device-forming layer pairs
    /// (`connect::device_forming_pairs`).
    pub fn forming(&self) -> &HashSet<(LayerId, LayerId)> {
        &self.forming
    }

    /// This binding's process-unique revision stamp.
    pub fn revision(&self) -> u64 {
        self.revision
    }
}

// ---------------------------------------------------------------------
// Content hashing.
// ---------------------------------------------------------------------

/// 128-bit content hasher for cache keys: two independent 64-bit
/// streams (FNV-1a and a rotate/multiply mix) over the same word
/// sequence. A collision would silently serve one definition's
/// candidate fill for another, so the key space is wide enough that
/// the birthday bound on a 10⁴-entry cache is negligible.
#[derive(Clone, Copy)]
pub(crate) struct ContentHash {
    a: u64,
    b: u64,
}

impl ContentHash {
    pub(crate) fn new() -> Self {
        ContentHash {
            a: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            b: 0x9e37_79b9_7f4a_7c15, // golden-ratio constant
        }
    }

    pub(crate) fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.b = (self.b.rotate_left(23) ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }

    pub(crate) fn coord(&mut self, c: Coord) {
        self.word(c as u64);
    }

    pub(crate) fn digest(self) -> (u64, u64) {
        (self.a, self.b)
    }
}

// ---------------------------------------------------------------------
// LibraryCache: content-keyed candidate fills shared across cells.
// ---------------------------------------------------------------------

/// Concurrent content-keyed store of hierarchical candidate fills,
/// shared by every cell in a library batch.
///
/// The per-run hierarchical cache (`interact::hierarchical_plan_fill`)
/// dedups fills *within one cell* by scope identity. This cache sits
/// underneath it: each distinct fill job additionally looks up a
/// 128-bit hash of the definition **content** (the scopes' normalized
/// bbox sequences + the [`BoundTechnology::revision`]), so the same
/// subcell appearing in a sibling variant — a different `Layout`, a
/// different `SymbolId` space — reuses the identical fill bytes. Rows
/// are held behind [`Arc`], so a hit shares without copying.
///
/// Per-cell `InteractStats::cache_hits` / `cache_misses` keep their
/// standalone (plan-phase, within-cell) meaning; cross-cell sharing is
/// counted here and surfaced in [`LibraryStats`].
#[derive(Debug, Default)]
pub struct LibraryCache {
    map: Mutex<FillMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Content key → shared candidate-pair fill (shard-local index pairs).
type FillMap = HashMap<(u64, u64), Arc<Vec<(usize, usize)>>>;

impl LibraryCache {
    /// An empty cache.
    pub fn new() -> Self {
        LibraryCache::default()
    }

    /// Returns the fill stored under `key`, computing and inserting it
    /// via `fill` on a miss. The fill runs **outside** the lock — two
    /// workers racing on the same fresh key may both compute the (pure,
    /// identical) value; the first insert wins and the loser's copy is
    /// dropped, counted as a hit.
    pub(crate) fn get_or_fill<F>(&self, key: (u64, u64), fill: F) -> Arc<Vec<(usize, usize)>>
    where
        F: FnOnce() -> Vec<(usize, usize)>,
    {
        // invariant (this and below): a poisoned mutex means another
        // worker panicked mid-insert; the batch is already dead.
        if let Some(hit) = self.map.lock().expect("library cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let value = Arc::new(fill());
        let mut map = self.map.lock().expect("library cache poisoned");
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(e.get())
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                v.insert(Arc::clone(&value));
                value
            }
        }
    }

    /// Cross-cell cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cross-cell cache misses (= distinct fills computed) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct fills currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("library cache poisoned").len()
    }

    /// Whether the cache holds no fills yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total candidate pairs held across all stored fills.
    pub fn pair_count(&self) -> u64 {
        self.map
            .lock()
            .expect("library cache poisoned")
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }
}

/// The long-lived shared state of a library batch: one
/// [`BoundTechnology`] plus one [`LibraryCache`]. Build it once per
/// technology ([`LibrarySession::new`]) and feed any number of
/// [`check_library_in`] batches through it — the cache stays warm
/// across batches.
#[derive(Debug)]
pub struct LibrarySession {
    /// The precomputed technology constants.
    pub bound: BoundTechnology,
    /// The shared content-keyed candidate cache.
    pub cache: LibraryCache,
}

impl LibrarySession {
    /// A fresh session for `tech`. Every batch fed through this session
    /// must check against the *same* technology — the cache keys are
    /// stamped with this binding's revision.
    pub fn new(tech: &Technology) -> Self {
        LibrarySession {
            bound: BoundTechnology::new(tech),
            cache: LibraryCache::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Options, profile, stats, report.
// ---------------------------------------------------------------------

/// Options for a library batch.
#[derive(Debug, Clone)]
pub struct LibraryOptions {
    /// Per-cell check options. `parallelism` here is the *inner* worker
    /// count each cell's stages use — the default of 1 keeps each cell
    /// serial and lets the outer cell-granular scheduling own the
    /// cores, which is the right shape for thousands of small cells.
    pub cell: CheckOptions,
    /// Outer worker count: how many cells check concurrently. `0` = all
    /// available cores (via [`effective_parallelism`]).
    pub parallelism: usize,
    /// Seed each cell's view from a long-lived per-worker interner
    /// (warm path/net-key/device vocabulary). Off = every cell starts
    /// cold, exactly like standalone [`crate::check`]. Either setting
    /// is byte-identical in rendered output.
    pub shared_interner: bool,
    /// Interner growth budget in heap bytes: after a cell, a worker
    /// whose interner exceeds this compacts away entries not used for
    /// [`Self::interner_keep_epochs`] cells
    /// ([`StringInterner::compact_stale`]). `0` compacts after every
    /// cell.
    pub interner_budget_bytes: usize,
    /// How many cells (epochs) an interned string survives unused
    /// before compaction evicts it.
    pub interner_keep_epochs: u32,
}

impl Default for LibraryOptions {
    fn default() -> Self {
        LibraryOptions {
            cell: CheckOptions {
                // Cells are hierarchical designs; the content-keyed
                // cache only sees fills the hierarchical search plans.
                hierarchical: true,
                ..CheckOptions::default()
            },
            parallelism: 0,
            shared_interner: true,
            interner_budget_bytes: 4 << 20,
            interner_keep_epochs: 2,
        }
    }
}

/// Aggregated wall-clock profile of a batch: per-stage sums across all
/// cells plus the per-cell wall-clock distribution — batch hot spots
/// without a profiler run.
#[derive(Debug, Clone, Default)]
pub struct BatchProfile {
    /// Summed duration per stage name, in first-seen stage order.
    pub stage_totals: Vec<(String, Duration)>,
    /// Per-cell wall clock, in input (cell) order.
    pub cell_wall: Vec<Duration>,
}

impl BatchProfile {
    /// Folds one cell's stage profile and wall clock into the batch.
    pub fn absorb(&mut self, profile: &[StageTime], wall: Duration) {
        for st in profile {
            match self.stage_totals.iter_mut().find(|(n, _)| *n == st.name) {
                Some((_, d)) => *d += st.duration,
                None => self.stage_totals.push((st.name.clone(), st.duration)),
            }
        }
        self.cell_wall.push(wall);
    }

    /// Total wall clock summed over cells (not elapsed batch time —
    /// cells overlap under the outer pool).
    pub fn total_cell_wall(&self) -> Duration {
        self.cell_wall.iter().sum()
    }

    /// The `q`-quantile (0..=100) of per-cell wall clock, by the
    /// nearest-rank method. Zero when the batch is empty.
    pub fn percentile(&self, q: u32) -> Duration {
        if self.cell_wall.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.cell_wall.clone();
        sorted.sort_unstable();
        let rank = (q as usize * sorted.len()).div_ceil(100);
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Median per-cell wall clock.
    pub fn p50(&self) -> Duration {
        self.percentile(50)
    }

    /// 99th-percentile per-cell wall clock.
    pub fn p99(&self) -> Duration {
        self.percentile(99)
    }
}

/// Batch-level statistics: what the shared state saved and what it
/// cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LibraryStats {
    /// Cells checked.
    pub cells: usize,
    /// Cross-cell candidate-fill cache hits ([`LibraryCache::hits`]).
    pub shared_cache_hits: u64,
    /// Cross-cell candidate-fill cache misses (= distinct fills).
    pub shared_cache_misses: u64,
    /// Distinct fills resident in the shared cache after the batch.
    pub shared_cache_entries: usize,
    /// Candidate pairs resident in the shared cache after the batch.
    pub shared_cache_pairs: u64,
    /// Interner compactions fired across all workers.
    pub interner_compactions: u64,
    /// Largest per-worker interner entry count observed after any cell.
    pub interner_peak_strings: usize,
    /// Largest per-worker interner heap footprint (bytes) observed
    /// after any cell.
    pub interner_peak_bytes: usize,
    /// Per-cell interaction statistics summed over the batch (each
    /// cell's own stats stay byte-identical to its standalone run; this
    /// is their fold).
    pub interact: InteractStats,
}

/// Everything a batch run produces: per-cell reports (input order),
/// the per-cell sinks the caller's factory built, the aggregated
/// profile, and the batch statistics.
#[derive(Debug)]
pub struct LibraryReport<S> {
    /// One [`CheckReport`] per input layout, in input order — each
    /// byte-identical to a standalone [`crate::check`] of that layout.
    pub reports: Vec<CheckReport>,
    /// The per-cell sinks, in input order (each saw exactly its cell's
    /// violations).
    pub sinks: Vec<S>,
    /// Aggregated per-stage and per-cell timing.
    pub profile: BatchProfile,
    /// Batch-level shared-state statistics.
    pub stats: LibraryStats,
}

// ---------------------------------------------------------------------
// The batch driver.
// ---------------------------------------------------------------------

/// Checks every layout in `layouts` against `tech` in one batch over a
/// fresh [`LibrarySession`]. See [`check_library_in`] for the shape of
/// the run; use that entry point directly to keep the session's cache
/// warm across multiple batches.
///
/// `make_sink(i)` builds the sink cell `i` emits through; the sinks
/// come back in [`LibraryReport::sinks`]. For plain buffered reports
/// (violations in [`CheckReport::violations`], mirroring
/// [`crate::check`]) use [`check_library_buffered`].
pub fn check_library<S, F>(
    layouts: &[Layout],
    tech: &Technology,
    options: &LibraryOptions,
    make_sink: F,
) -> LibraryReport<S>
where
    S: Sink + Send,
    F: Fn(usize) -> S + Sync,
{
    let session = LibrarySession::new(tech);
    check_library_in(&session, layouts, tech, options, make_sink)
}

/// [`check_library`] over a caller-owned [`LibrarySession`] — the
/// session's content-keyed cache persists across calls, so successive
/// batches (library revisions, incremental variant drops) start warm.
/// `tech` must be the technology the session was built from.
///
/// Cells are scheduled cell-granular across the shared deterministic
/// worker pool; each worker carries one long-lived [`StringInterner`]
/// (when [`LibraryOptions::shared_interner`] is on) whose epoch
/// advances per cell and which compacts past the growth budget.
/// Results merge in input order, so reports, sinks, and the profile
/// are deterministic for any worker count; per-cell report bytes are
/// identical to standalone [`crate::check`] runs.
pub fn check_library_in<S, F>(
    session: &LibrarySession,
    layouts: &[Layout],
    tech: &Technology,
    options: &LibraryOptions,
    make_sink: F,
) -> LibraryReport<S>
where
    S: Sink + Send,
    F: Fn(usize) -> S + Sync,
{
    struct WorkerState {
        strings: StringInterner,
        compactions: u64,
        peak_strings: usize,
        peak_bytes: usize,
    }

    let workers = effective_parallelism(options.parallelism);
    let (cells, states) = run_ordered_with_state(
        layouts.len(),
        workers,
        || WorkerState {
            strings: StringInterner::default(),
            compactions: 0,
            peak_strings: 0,
            peak_bytes: 0,
        },
        |state: &mut WorkerState, i| {
            let t0 = Instant::now();
            let mut sink = make_sink(i);
            let engine = StageEngine::diic_pipeline();
            let mut ctx =
                CheckContext::in_library(&layouts[i], tech, &options.cell, &mut sink, session);
            if options.shared_interner {
                // Hand the worker's warm dictionary to this cell; it
                // comes back (with the cell's additions) after the run.
                let mut seed = std::mem::take(&mut state.strings);
                seed.advance_epoch();
                ctx = ctx.with_seed_strings(seed);
            }
            let profile = engine.run(&mut ctx);
            if options.shared_interner {
                let mut strings = ctx.take_strings().unwrap_or_default();
                state.peak_strings = state.peak_strings.max(strings.len());
                state.peak_bytes = state.peak_bytes.max(strings.heap_bytes());
                if strings.heap_bytes() > options.interner_budget_bytes {
                    // The remap is dropped: handles into the evicted
                    // generation live only inside finished views.
                    strings.compact_stale(options.interner_keep_epochs);
                    state.compactions += 1;
                }
                state.strings = strings;
            }
            let report = ctx.into_report(profile);
            (report, sink, t0.elapsed())
        },
    );

    let mut profile = BatchProfile::default();
    let mut stats = LibraryStats {
        cells: layouts.len(),
        shared_cache_hits: session.cache.hits(),
        shared_cache_misses: session.cache.misses(),
        shared_cache_entries: session.cache.len(),
        shared_cache_pairs: session.cache.pair_count(),
        ..LibraryStats::default()
    };
    for state in &states {
        stats.interner_compactions += state.compactions;
        stats.interner_peak_strings = stats.interner_peak_strings.max(state.peak_strings);
        stats.interner_peak_bytes = stats.interner_peak_bytes.max(state.peak_bytes);
    }
    let mut reports = Vec::with_capacity(cells.len());
    let mut sinks = Vec::with_capacity(cells.len());
    for (report, sink, wall) in cells {
        profile.absorb(&report.stage_profile, wall);
        stats.interact.absorb(&report.interact_stats);
        reports.push(report);
        sinks.push(sink);
    }
    LibraryReport {
        reports,
        sinks,
        profile,
        stats,
    }
}

/// [`check_library`] with plain buffering sinks: every cell's
/// violations end up in its [`CheckReport::violations`], exactly like
/// a loop of [`crate::check`] calls — the drop-in comparison point.
/// (The returned sinks are already drained: each cell's
/// [`CheckReport`] pulled its buffered violations on completion, the
/// same contract as [`crate::check_with_sink`].)
pub fn check_library_buffered(
    layouts: &[Layout],
    tech: &Technology,
    options: &LibraryOptions,
) -> LibraryReport<crate::engine::DiagnosticSink> {
    check_library(layouts, tech, options, |_| {
        crate::engine::DiagnosticSink::new()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_technology_matches_per_run_values() {
        let tech = diic_tech::nmos::nmos_technology();
        let bound = BoundTechnology::new(&tech);
        assert_eq!(bound.max_rule_range(), max_rule_range(&tech));
        assert_eq!(bound.cell_size(), interaction_cell_size(&tech));
        assert_eq!(
            bound.forming(),
            &crate::connect::device_forming_pairs(&tech)
        );
        let again = BoundTechnology::new(&tech);
        assert_ne!(bound.revision(), again.revision(), "revisions are unique");
    }

    #[test]
    fn cache_get_or_fill_counts_and_shares() {
        let cache = LibraryCache::new();
        let a = cache.get_or_fill((1, 2), || vec![(0, 1)]);
        let b = cache.get_or_fill((1, 2), || panic!("must not refill a stored key"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.pair_count(), 1);
        let c = cache.get_or_fill((3, 4), Vec::new);
        assert!(c.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn content_hash_separates_streams() {
        let mut x = ContentHash::new();
        let mut y = ContentHash::new();
        x.word(1);
        x.word(2);
        y.word(2);
        y.word(1);
        assert_ne!(x.digest(), y.digest(), "order must matter");
        let mut z = ContentHash::new();
        z.word(1);
        z.word(2);
        assert_eq!(x.digest(), z.digest(), "same sequence, same digest");
    }

    #[test]
    fn batch_profile_percentiles() {
        let mut p = BatchProfile::default();
        assert_eq!(p.p50(), Duration::ZERO);
        for ms in [5u64, 1, 3, 2, 4] {
            p.absorb(&[], Duration::from_millis(ms));
        }
        assert_eq!(p.p50(), Duration::from_millis(3));
        assert_eq!(p.p99(), Duration::from_millis(5));
        assert_eq!(p.percentile(0), Duration::from_millis(1));
        assert_eq!(p.total_cell_wall(), Duration::from_millis(15));
    }

    #[test]
    fn batch_profile_sums_stages_by_name() {
        let mut p = BatchProfile::default();
        let st = |n: &str, ms: u64| StageTime {
            name: n.to_string(),
            duration: Duration::from_millis(ms),
            violations: 0,
        };
        p.absorb(&[st("a", 1), st("b", 2)], Duration::from_millis(3));
        p.absorb(&[st("a", 10), st("b", 20)], Duration::from_millis(30));
        assert_eq!(
            p.stage_totals,
            vec![
                ("a".to_string(), Duration::from_millis(11)),
                ("b".to_string(), Duration::from_millis(22)),
            ]
        );
    }
}
