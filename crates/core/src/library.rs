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
//! 2. the **per-definition products** — each repeated definition's
//!    instantiation template, each device symbol's primitive-check
//!    verdict, and each interaction row the scope table's plan scores —
//!    derived again in every cell that carries the definition.
//!    Every check keys them by content ([`Definitions`]); the
//!    [`LibraryCache`] keeps each from the second cell that presents
//!    its key on, so a session derives each definition once;
//! 3. the **string interner**, rebuilt cold per cell even though
//!    sibling variants intern nearly identical path / net-key / device
//!    vocabularies (the batch driver seeds each cell's view from its
//!    worker's interner, which lives as long as one
//!    [`check_library_in`] call and so is bounded by the batch it
//!    serves).
//!
//! [`check_library`] schedules cells across the shared deterministic
//! worker pool ([`crate::parallel::run_ordered_with_state`]) —
//! cell-granular, results merged in input order — and emits every
//! cell's findings through its own [`Sink`]. The contract that makes
//! the sharing safe to adopt is **per-cell byte-identity**: each cell's
//! violations, net list, and interaction statistics are identical to a
//! standalone [`crate::check`] of that cell, for any worker count. The
//! eleventh differential leg (`tests/library.rs`) pins this on
//! generated faulted libraries.
//!
//! Why identity survives each shared piece:
//!
//! * the [`BoundTechnology`] values equal the per-run computations by
//!   construction (same pure functions of the same technology);
//! * a kept template, verdict or scored row is only reused under a
//!   key that hashes everything its derivation reads, so it is what the
//!   cell would have derived (debug builds derive every hit again and
//!   assert it); a kept template still counts as built for its cell in
//!   [`crate::InstantiateStats`], and a kept row leaves the *per-cell*
//!   plan-phase hit/miss counters of [`InteractStats`] untouched
//!   (cross-cell reuse is counted on the session's shelves);
//! * interner handle values differ when a cell starts from a warm
//!   dictionary, but handles never reach rendered output: violations
//!   materialize their strings at creation and the net list
//!   canonicalises by key *strings* (see `netgen`'s byte-identity
//!   contract), so a seeded view renders identically.

use crate::binding::{LayerBinding, StringInterner, Template};
use crate::checker::{CheckOptions, CheckReport};
use crate::engine::{run_pipeline, Sink, StageTime};
use crate::interact::{interaction_cell_size, max_rule_range, InteractStats, ScoredRow};
use crate::parallel::{effective_parallelism, run_ordered_with_state};
use crate::primitive_checks::PrimitiveCheckResult;
use crate::scope::RowKey;
use diic_cif::{hierarchy, Item, Layout, Shape, Symbol, SymbolId};
use diic_geom::{Coord, Orientation, Point, SizingMode};
use diic_tech::{LayerId, SpacingRule, Technology};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// BoundTechnology: per-technology constants, computed once.
// ---------------------------------------------------------------------

/// A technology with its interaction-scale constants precomputed: rule
/// reach ([`max_rule_range`]), grid cell size
/// ([`interaction_cell_size`]), and dense tables of the rules the pair
/// stages read per pair — the spacing matrix and the device-forming
/// layer pairs (`layers × layers`, both orders) and the same-mask
/// distances (one per layer) — so a pair's rule is an index, not a hash
/// lookup. They size the scope table, the interaction searches and an
/// edit session's halo. A standalone check builds one per run; a
/// library or edit session holds one for its life.
///
/// Each binding carries a process-unique `revision` (a monotone
/// counter) that the content-keyed [`LibraryCache`] folds into its
/// hash keys, so definitions derived under one technology can never be
/// served under another — including a *mutated* copy of the same deck,
/// which gets a fresh binding and therefore a fresh revision.
#[derive(Debug, Clone)]
pub struct BoundTechnology {
    max_rule_range: Coord,
    cell_size: Coord,
    /// The technology's layer count: the side of the square tables.
    layers: usize,
    /// Per layer pair, its spacing-matrix entry.
    spacing: Vec<Option<SpacingRule>>,
    /// Per layer pair, whether their interconnect overlap forms a device
    /// (`connect::device_forming_pairs`).
    forming: Vec<bool>,
    /// Per layer, its same-mask distance.
    same_mask: Vec<Option<Coord>>,
    revision: u64,
}

impl BoundTechnology {
    /// Precomputes the interaction constants and rule tables for `tech`.
    pub fn new(tech: &Technology) -> Self {
        static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);
        let layers = tech.layers().len();
        let at = |a: LayerId, b: LayerId| usize::from(a.0) * layers + usize::from(b.0);
        let mut spacing = vec![None; layers * layers];
        for (a, b, rule) in tech.rules().entries() {
            spacing[at(a, b)] = Some(rule);
            spacing[at(b, a)] = Some(rule);
        }
        let mut forming = vec![false; layers * layers];
        for (a, b) in crate::connect::device_forming_pairs(tech) {
            forming[at(a, b)] = true;
            forming[at(b, a)] = true;
        }
        let mut same_mask = vec![None; layers];
        for (layer, d) in tech.rules().same_mask_entries() {
            same_mask[usize::from(layer.0)] = Some(d);
        }
        BoundTechnology {
            max_rule_range: max_rule_range(tech),
            cell_size: interaction_cell_size(tech),
            layers,
            spacing,
            forming,
            same_mask,
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

    /// The spacing-matrix entry of a layer pair (either order): what
    /// [`diic_tech::RuleSet::spacing`] answers.
    #[inline]
    pub fn spacing(&self, a: LayerId, b: LayerId) -> Option<&SpacingRule> {
        self.spacing[self.pair(a, b)].as_ref()
    }

    /// True if interconnect on layers `a` and `b` (either order) forms a
    /// device where it overlaps (`connect::device_forming_pairs`).
    #[inline]
    pub fn forms_device(&self, a: LayerId, b: LayerId) -> bool {
        self.forming[self.pair(a, b)]
    }

    /// The same-mask distance of a layer: what
    /// [`diic_tech::RuleSet::same_mask`] answers.
    #[inline]
    pub fn same_mask(&self, layer: LayerId) -> Option<Coord> {
        self.same_mask[usize::from(layer.0)]
    }

    /// The index of a layer pair in the square tables.
    fn pair(&self, a: LayerId, b: LayerId) -> usize {
        usize::from(a.0) * self.layers + usize::from(b.0)
    }

    /// This binding's process-unique revision stamp.
    pub fn revision(&self) -> u64 {
        self.revision
    }
}

// ---------------------------------------------------------------------
// Content hashing.
// ---------------------------------------------------------------------

/// 128-bit content hasher for definition keys: two 64-bit lanes over
/// the same word sequence. Each word is xor-ed into a lane, and the lane
/// is multiplied out to 128 bits by its own multiplier and folded onto
/// itself. The lanes' start values and odd multipliers are
/// process-random bits drawn once per [`LibraryCache`], or per check
/// outside a library session (`Default`); `Debug` shows none of them.
///
/// A collision would silently serve one definition's template, primitive
/// verdict or scored row for another — across the cells, and in
/// a service the tenants, of one session. So the key space is wide
/// enough that the birthday bound on a 10⁴-entry cache is negligible,
/// and the hash is keyed, as the spatial index's cell hash and the
/// string interner's are: what a changed word does to a lane depends on
/// the carries of a product by a multiplier nobody outside the process
/// can read, so no file can be prepared to collide with another. This is
/// not a PRF as the standard library's SipHash is — it does not claim to
/// resist a caller who can *measure* the keys — and it is several times
/// cheaper per word, which every check pays per element of a definition.
#[derive(Clone, Copy)]
pub(crate) struct ContentHash {
    lanes: [u64; 2],
    multipliers: [u64; 2],
}

impl Default for ContentHash {
    fn default() -> Self {
        let word = || RandomState::new().build_hasher().finish();
        ContentHash {
            lanes: [word(), word()],
            multipliers: [word() | 1, word() | 1],
        }
    }
}

impl std::fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ContentHash(..)")
    }
}

impl ContentHash {
    fn word(&mut self, w: u64) {
        for (lane, &m) in self.lanes.iter_mut().zip(&self.multipliers) {
            *lane = fold(*lane ^ w, m);
        }
    }

    fn coord(&mut self, c: Coord) {
        self.word(c as u64);
    }

    /// A string: its length, then its bytes eight to a word.
    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    /// A point list: its length, then each point.
    fn points(&mut self, points: &[Point]) {
        self.word(points.len() as u64);
        for p in points {
            self.coord(p.x);
            self.coord(p.y);
        }
    }

    /// The key: each lane folded once more, by the other's multiplier.
    fn digest(self) -> ContentKey {
        let ([a, b], [ma, mb]) = (self.lanes, self.multipliers);
        (fold(a, mb), fold(b, ma))
    }
}

/// `x · m` to 128 bits, its halves xor-ed.
fn fold(x: u64, m: u64) -> u64 {
    let product = u128::from(x) * u128::from(m);
    product as u64 ^ (product >> 64) as u64
}

// ---------------------------------------------------------------------
// Definition keys: one content hash per symbol of a cell.
// ---------------------------------------------------------------------

/// A 128-bit content key ([`ContentHash::digest`]).
pub(crate) type ContentKey = (u64, u64);

/// A template's key: its definition and orientation.
pub(crate) type TemplateKey = (ContentKey, Orientation);

/// Every definition of one layout, named by content: the one identity
/// templates, the scope table's groups and rows, and primitive verdicts
/// are keyed by, within a layout as across a library session's cells. A
/// [`SymbolId`] only names.
///
/// A key covers exactly what the instantiation walk and the primitive
/// checks read of a definition: the device declaration (type, `9C`
/// flag, terminals with their bound layer and position), each element's
/// bound layer, shape and net name, each call's child key, transform
/// and name — and the [`BoundTechnology::revision`], which pins the
/// technology the products were derived under. The symbol's CIF number
/// and name are not in it: the walk never reads them. (A primitive
/// verdict adds the display name, which its lines carry.) A scored
/// interaction row reads less — its definitions' elements, layers and
/// device types — so names split a row's key where they need not. Keys are built children first, so a
/// definition's key covers everything it calls.
///
/// A check derives each product once. A library session's
/// [`LibraryCache`] is asked first, and keeps what a second cell
/// presents; this is the one place that knows whether there is one.
pub struct Definitions<'a> {
    session: Option<&'a LibrarySession>,
    /// What every key here is hashed with: the session's, or fresh.
    hash: ContentHash,
    /// Per symbol, the content key of its definition.
    pub(crate) keys: Vec<ContentKey>,
    /// Each `(definition, orientation)` the hierarchy places more than
    /// once, by its first symbol, children first: what
    /// [`crate::instantiate`] derives a template for.
    pub(crate) repeated: Vec<(SymbolId, Orientation)>,
}

impl<'a> Definitions<'a> {
    /// Keys every symbol of `layout`, layers bound by `binding`, under
    /// the hash key and technology revision of `session`, if any.
    pub fn new(
        layout: &Layout,
        binding: &LayerBinding,
        session: Option<&'a LibrarySession>,
    ) -> Self {
        let (hash, revision) = session.map_or_else(
            || (ContentHash::default(), 0),
            |s| (s.cache.hash, s.bound.revision()),
        );
        let hier = hierarchy::stats(layout);
        let mut keys = vec![(0, 0); layout.symbols().len()];
        let mut placements: HashMap<TemplateKey, u64> = HashMap::new();
        for &id in &hier.order {
            let key = definition_key(hash, layout.symbol(id), &keys, binding, revision);
            keys[id.0 as usize] = key;
            for orient in Orientation::ALL {
                let n = placements.entry((key, orient)).or_default();
                *n = n.saturating_add(hier.placements(id, orient));
            }
        }
        let repeated = (hier.order.iter())
            .flat_map(|&id| Orientation::ALL.map(|orient| (id, orient)))
            .filter(|&(id, orient)| {
                // The first symbol of a definition takes its count.
                let placed = placements.remove(&(keys[id.0 as usize], orient));
                placed.is_some_and(|m| m > 1)
            })
            .collect();
        Definitions {
            session,
            hash,
            keys,
            repeated,
        }
    }

    /// `derive`d, or the session's `shelf` answer under `key`.
    fn shelved<K: std::hash::Hash + Eq + Copy, V: Definition>(
        &self,
        shelf: impl FnOnce(&LibraryCache) -> &Shelf<K, V>,
        key: K,
        derive: impl Fn() -> V,
    ) -> Arc<V> {
        match self.session {
            Some(session) => shelf(&session.cache).get_or_derive(key, derive),
            None => Arc::new(derive()),
        }
    }

    /// The template of a definition placed at an orientation.
    pub(crate) fn template(
        &self,
        key: TemplateKey,
        derive: impl Fn() -> Template,
    ) -> Arc<Template> {
        self.shelved(|cache| &cache.templates, key, derive)
    }

    /// The primitive-symbol verdict of the device symbol `symbol`,
    /// displayed as `name`.
    pub(crate) fn verdict(
        &self,
        symbol: SymbolId,
        name: &str,
        derive: impl Fn() -> PrimitiveCheckResult,
    ) -> Arc<PrimitiveCheckResult> {
        let (a, b) = self.keys[symbol.0 as usize];
        let mut h = self.hash;
        h.word(a);
        h.word(b);
        h.text(name);
        self.shelved(|cache| &cache.verdicts, h.digest(), derive)
    }

    /// The interaction row of the pair plan's row `key` at `reach`,
    /// scored under `metric`. A scored row
    /// is a function of its definitions' elements, of the reach and of
    /// the metric its distances were measured in, so the plan's own key
    /// with those two covers it (the rules it applies are the
    /// technology's, whose revision every definition key carries).
    pub(crate) fn scored_row(
        &self,
        key: RowKey,
        reach: Coord,
        metric: SizingMode,
        derive: impl Fn() -> ScoredRow,
    ) -> Arc<ScoredRow> {
        self.shelved(|cache| &cache.rows, (key, reach, metric), derive)
    }
}

/// The content key of `symbol`'s definition, given its children's in
/// `keys` (see [`Definitions`]), hashed by `h`.
fn definition_key(
    mut h: ContentHash,
    symbol: &Symbol,
    keys: &[ContentKey],
    binding: &LayerBinding,
    revision: u64,
) -> ContentKey {
    h.word(revision);
    let layer = |h: &mut ContentHash, r| h.word(binding.layer(r).map_or(u64::MAX, |l| l.0.into()));
    match &symbol.device {
        None => h.word(0),
        Some(decl) => {
            h.word(1);
            h.text(&decl.device_type);
            h.word(decl.checked.into());
            h.word(decl.terminals.len() as u64);
            for term in &decl.terminals {
                h.text(&term.name);
                layer(&mut h, term.layer);
                h.points(&[term.position]);
            }
        }
    }
    h.word(symbol.items.len() as u64);
    for item in &symbol.items {
        match item {
            Item::Element(e) => {
                match &e.shape {
                    Shape::Box(r) => {
                        h.word(2);
                        h.points(&[Point::new(r.x1, r.y1), Point::new(r.x2, r.y2)]);
                    }
                    Shape::Wire(w) => {
                        h.word(3);
                        h.coord(w.width());
                        h.points(w.points());
                    }
                    Shape::Polygon(p) => {
                        h.word(4);
                        h.points(p.points());
                    }
                }
                layer(&mut h, e.layer);
                h.word(e.net.is_some().into());
                e.net.iter().for_each(|net| h.text(net));
            }
            Item::Call(c) => {
                let (a, b) = keys[c.target.0 as usize];
                h.word(5);
                h.word(a);
                h.word(b);
                h.word(c.transform.orient as u64);
                h.points(&[Point::new(c.transform.offset.x, c.transform.offset.y)]);
                h.text(&c.name);
            }
        }
    }
    h.digest()
}

/// A per-definition product a [`LibraryCache`] keeps.
pub(crate) trait Definition {
    /// The debug-build oracle: panics unless `self`, a hit, equals
    /// `fresh`, the same definition derived again.
    #[cfg(debug_assertions)]
    fn assert_same(&self, fresh: &Self);
}

/// Content key → derived definition, kept from its second sighting on:
/// a key seen once only joins the `seen` set, so a definition only one
/// cell has never stays resident — the cross-cell form of "derived once,
/// placed twice". The set is bounded: once it holds [`SEEN_LIMIT`] keys
/// it is emptied before the next joins, so a session that meets endless
/// unique definitions forgets their first sightings instead of growing.
struct Shelf<K, V> {
    map: Mutex<ShelfMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A [`Shelf`]'s keys: those kept, with their values, and those seen
/// once.
struct ShelfMap<K, V> {
    kept: HashMap<K, Arc<V>>,
    seen: HashSet<K>,
}

/// How many keys a [`Shelf`] remembers having seen once.
const SEEN_LIMIT: usize = 1 << 16;

impl<K, V> Default for Shelf<K, V> {
    fn default() -> Self {
        Shelf {
            map: Mutex::new(ShelfMap {
                kept: HashMap::new(),
                seen: HashSet::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K, V> Shelf<K, V> {
    fn stats(&self) -> DefinitionStats {
        let map = self.map.lock().expect("library cache poisoned");
        DefinitionStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: map.kept.len() as u64,
            seen: map.seen.len() as u64,
        }
    }
}

impl<K, V> std::fmt::Debug for Shelf<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shelf")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K: std::hash::Hash + Eq + Copy, V: Definition> Shelf<K, V> {
    /// The value kept under `key`, or `derive`'s, kept if `key` was
    /// seen before; true if it is `derive`'s. `derive` runs **outside**
    /// the lock; two workers racing on one key may both derive it, and
    /// the first to store wins. A debug build derives every hit again
    /// and asserts it equal.
    fn get_or_derive(&self, key: K, derive: impl Fn() -> V) -> Arc<V> {
        let (kept, seen) = {
            // invariant (this and below): a poisoned mutex means another
            // worker panicked mid-insert; the batch is already dead.
            let mut map = self.map.lock().expect("library cache poisoned");
            let kept = map.kept.get(&key).cloned();
            let seen = kept.is_none() && map.seen.contains(&key);
            if kept.is_none() && !seen {
                if map.seen.len() >= SEEN_LIMIT {
                    map.seen.clear();
                }
                map.seen.insert(key);
            }
            (kept, seen)
        };
        if let Some(kept) = kept {
            self.hits.fetch_add(1, Ordering::Relaxed);
            #[cfg(debug_assertions)]
            kept.assert_same(&derive());
            return kept;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(derive());
        if seen {
            let mut map = self.map.lock().expect("library cache poisoned");
            if map.seen.remove(&key) {
                map.kept.insert(key, Arc::clone(&value));
            }
        }
        value
    }
}

/// What one of a [`LibraryCache`]'s definition shelves did: lookups it
/// answered, definitions the cells derived themselves, and definitions
/// it keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefinitionStats {
    /// Lookups answered by a kept definition.
    pub hits: u64,
    /// Lookups the cell answered by deriving the definition.
    pub misses: u64,
    /// Definitions kept: each one a second cell presented.
    pub entries: u64,
    /// Definitions seen once and not kept (yet): keys only, at most
    /// 65 536 of them.
    pub seen: u64,
}

// ---------------------------------------------------------------------
// LibraryCache: the session's definition shelves.
// ---------------------------------------------------------------------

/// The per-definition products a library session's cells share, each
/// on its own shelf under the definition's content key
/// ([`Definitions`]): instantiation templates, one per definition and
/// orientation; primitive-symbol verdicts, one per device definition;
/// and scored interaction rows — what no net can change about a row's
/// candidate pairs — one per row of the scope table's pair plan
/// ([`crate::ScopeTable::rows`]) and sizing metric, whose key names its
/// definitions by content. Each is kept from the second cell that
/// presents its key on; until then only the key is. Values are held
/// behind [`Arc`], so a hit shares without copying.
///
/// Per-cell `InteractStats::cache_hits` / `cache_misses` keep their
/// standalone (plan-phase, within-cell) meaning; cross-cell sharing is
/// counted on the shelves and surfaced in [`LibraryStats`].
///
/// Every key is hashed with this cache's own process-random keys, which
/// each cell's [`Definitions`] take over.
#[derive(Debug, Default)]
pub struct LibraryCache {
    templates: Shelf<TemplateKey, Template>,
    verdicts: Shelf<ContentKey, PrimitiveCheckResult>,
    rows: Shelf<(RowKey, Coord, SizingMode), ScoredRow>,
    /// What every key of this cache's cells is hashed with.
    hash: ContentHash,
}

impl LibraryCache {
    /// What the template shelf did: instantiation templates kept and
    /// reused across cells.
    pub fn templates(&self) -> DefinitionStats {
        self.templates.stats()
    }

    /// What the verdict shelf did: primitive-symbol verdicts kept and
    /// reused across cells.
    pub fn verdicts(&self) -> DefinitionStats {
        self.verdicts.stats()
    }

    /// What the row shelf did: scored interaction rows kept and reused
    /// across cells (the name is the shelf's older one, from when it
    /// kept bare candidate fills).
    pub fn fills(&self) -> DefinitionStats {
        self.rows.stats()
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
    /// The shared definition shelves.
    pub cache: LibraryCache,
}

impl LibrarySession {
    /// A fresh session for `tech`. Every batch fed through this session
    /// must check against the *same* technology — the cache keys are
    /// stamped with this binding's revision.
    pub fn new(tech: &Technology) -> Self {
        LibrarySession {
            bound: BoundTechnology::new(tech),
            cache: LibraryCache::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Options, profile, stats, report.
// ---------------------------------------------------------------------

/// Options for a library batch.
#[derive(Debug, Clone, Default)]
pub struct LibraryOptions {
    /// Per-cell check options. `parallelism` here is the *inner* worker
    /// count each cell's stages use — the default of 1 keeps each cell
    /// serial and lets the outer cell-granular scheduling own the
    /// cores, which is the right shape for thousands of small cells.
    pub cell: CheckOptions,
    /// Outer worker count: how many cells check concurrently. `0` = all
    /// available cores (via [`effective_parallelism`]).
    pub parallelism: usize,
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
    /// `fills.hits`, kept under its old name for the frozen benchmark,
    /// which reads it.
    pub shared_cache_hits: u64,
    /// `fills.misses`, kept under its old name for the frozen benchmark,
    /// which reads it.
    pub shared_cache_misses: u64,
    /// Instantiation templates the session shared between cells
    /// ([`LibraryCache::templates`]).
    pub templates: DefinitionStats,
    /// Primitive-symbol verdicts the session shared between cells
    /// ([`LibraryCache::verdicts`]).
    pub verdicts: DefinitionStats,
    /// Scored interaction rows the session shared between cells
    /// ([`LibraryCache::fills`]).
    pub fills: DefinitionStats,
    /// Always 0: a worker's interner lives for one batch and is never
    /// compacted. Kept for the frozen benchmark, which reads it.
    pub interner_compactions: u64,
    /// The largest worker interner's string count at the end of the
    /// batch (an interner only grows within one).
    pub interner_peak_strings: usize,
    /// The largest worker interner's text bytes at the end of the batch.
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
/// worker pool; each worker carries one [`StringInterner`] from cell to
/// cell of this call, and drops it when the call returns. Results merge
/// in input order, so reports, sinks, and the profile are deterministic
/// for any worker count; per-cell report bytes are identical to
/// standalone [`crate::check`] runs.
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
    let workers = effective_parallelism(options.parallelism);
    let (cells, states) = run_ordered_with_state(
        layouts.len(),
        workers,
        StringInterner::default,
        |strings: &mut StringInterner, i| {
            let t0 = Instant::now();
            let mut sink = make_sink(i);
            // Hand the worker's warm dictionary to this cell; it comes
            // back (with the cell's additions) in the view.
            let seed = std::mem::take(strings);
            let (cell, bound, session) = (&layouts[i], &session.bound, Some(session));
            let (report, mut artefacts) =
                run_pipeline(cell, tech, &options.cell, bound, session, seed, &mut sink);
            *strings = std::mem::take(&mut artefacts.view.strings);
            drop(artefacts); // freeing the view is part of the cell's wall clock
            (report, sink, t0.elapsed())
        },
    );

    let mut profile = BatchProfile::default();
    let fills = session.cache.fills();
    let mut stats = LibraryStats {
        cells: layouts.len(),
        shared_cache_hits: fills.hits,
        shared_cache_misses: fills.misses,
        templates: session.cache.templates(),
        verdicts: session.cache.verdicts(),
        fills,
        ..LibraryStats::default()
    };
    for strings in &states {
        stats.interner_peak_strings = stats.interner_peak_strings.max(strings.len());
        stats.interner_peak_bytes = stats.interner_peak_bytes.max(strings.heap_bytes());
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
        let forming = crate::connect::device_forming_pairs(&tech);
        for a in (0..tech.layers().len()).map(|l| LayerId(l as u16)) {
            assert_eq!(bound.same_mask(a), tech.rules().same_mask(a));
            for b in (0..tech.layers().len()).map(|l| LayerId(l as u16)) {
                assert_eq!(bound.spacing(a, b), tech.rules().spacing(a, b));
                let key = (a.min(b), a.max(b));
                assert_eq!(bound.forms_device(a, b), forming.contains(&key));
            }
        }
        let again = BoundTechnology::new(&tech);
        assert_ne!(bound.revision(), again.revision(), "revisions are unique");
    }

    impl Definition for u32 {
        #[cfg(debug_assertions)]
        fn assert_same(&self, fresh: &u32) {
            assert_eq!(self, fresh);
        }
    }

    #[test]
    fn shelf_keeps_a_definition_from_its_second_sighting() {
        let shelf = Shelf::<u8, u32>::default();
        let misses = |shelf: &Shelf<u8, u32>| shelf.stats().misses;
        let first = shelf.get_or_derive(1, || 7);
        assert_eq!(
            (*first, misses(&shelf), shelf.stats().entries),
            (7, 1, 0),
            "seen once: not kept"
        );
        let second = shelf.get_or_derive(1, || 7);
        assert!(!Arc::ptr_eq(&first, &second), "the second sighting derives");
        assert_eq!(misses(&shelf), 2);
        let third = shelf.get_or_derive(1, || 7);
        assert!(Arc::ptr_eq(&second, &third), "and keeps what it derived");
        assert_eq!(misses(&shelf), 2, "a hit derives nothing");
        let other = shelf.get_or_derive(2, || 8);
        assert_eq!(*other, 8);
        let stats = shelf.stats();
        let counts = (stats.hits, stats.misses, stats.entries, stats.seen);
        assert_eq!(counts, (1, 3, 1, 1));
    }

    #[test]
    fn shelf_forgets_first_sightings_past_its_limit() {
        let shelf = Shelf::<u32, u32>::default();
        let limit = u32::try_from(SEEN_LIMIT).unwrap();
        (0..limit).for_each(|k| drop(shelf.get_or_derive(k, || k)));
        assert_eq!(shelf.stats().seen, u64::from(limit));
        shelf.get_or_derive(limit, || limit);
        assert_eq!(shelf.stats().seen, 1, "a full set is emptied first");
        shelf.get_or_derive(limit, || limit);
        shelf.get_or_derive(0, || 0);
        let stats = shelf.stats();
        assert_eq!(
            (stats.entries, stats.seen),
            (1, 1),
            "the last key is kept; the first is seen afresh"
        );
    }

    #[test]
    fn content_hash_separates_streams() {
        let cache = LibraryCache::default();
        let mut x = cache.hash;
        let mut y = cache.hash;
        x.word(1);
        x.word(2);
        y.word(2);
        y.word(1);
        assert_ne!(x.digest(), y.digest(), "order must matter");
        let mut z = cache.hash;
        z.word(1);
        z.word(2);
        assert_eq!(x.digest(), z.digest(), "same sequence, same digest");
        let mut other = LibraryCache::default().hash;
        other.word(1);
        other.word(2);
        assert_ne!(x.digest(), other.digest(), "each cache keys its own hashes");
        // Two top bits flipped, one word apart, cancel in an FNV-1a
        // stream whatever its start value: here they do not.
        let mut flipped = cache.hash;
        flipped.word(1 ^ 1 << 63);
        flipped.word(2 ^ 1 << 63);
        assert_ne!(flipped.digest(), z.digest(), "a word's top bit counts");
        let texts = |parts: &[&str]| {
            let mut h = cache.hash;
            parts.iter().for_each(|p| h.text(p));
            h.digest()
        };
        assert_ne!(
            texts(&["ab", "c"]),
            texts(&["a", "bc"]),
            "strings keep their bounds"
        );
        assert_ne!(texts(&["a"]), texts(&["a\0"]), "a zero byte is a byte");
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
