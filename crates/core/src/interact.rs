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
//! # One scored row per key, stamped
//!
//! The candidate pairs are the element pairs whose bounding boxes come
//! within the technology's rule reach ([`max_rule_range`]) of one
//! another. [`check_interactions`] enumerates them by the scope table's
//! pair plan at that reach ([`ScopeTable::rows`]), the plan the
//! connection stage reads at reach 0: a row per call scope's
//! `(definition, orientation)` and per `(definition, definition,
//! orientation, relative placement)` of two call scopes within reach, a
//! definition being its content key ([`Definitions`]) — Manhattan
//! placements preserve distances, so one instance's geometry answers for
//! all its repeats. The pairs with a loose top-level element on either
//! side come from the plan's loose scans: one index over the loose
//! elements, scanned against itself and by every call scope within
//! reach of it.
//!
//! The rules for one pair split in two halves. `score_pair` is what no
//! net can change: the device-internal skip, a device override's waiver
//! or spacing, the matrix rule with its transistor sides, and the
//! closest approach with its gap box and the touching exemptions.
//! `decide` is what reads nets: same-net suppression, transistor
//! relatedness, the required spacing, every counter of
//! [`InteractStats`] and the violation itself. Each distinct row is
//! **scored once**, across the worker pool, by the first scope (pair)
//! presenting its key (in library mode taken from, and kept in, the
//! session's [`crate::LibraryCache`]): its pair count, its `no_rule` and
//! `override_waived` counts, and only the pairs whose outcome reads
//! nets, each with its rule and distance, gap boxes in the first
//! scope's definition frame. Stamping the row onto a scope (pair) adds
//! the counts, maps the local ids to chip ids, moves the gap boxes by
//! the scope's offset and decides the open pairs by nets. The direct
//! scans — [`check_interactions_among`] and the loose tiles — compose
//! the two halves per pair, so the rules have one body.
//!
//! The stage then streams **units** — a row stamped onto one scope or
//! scope pair, or one tile of a loose scan ([`Scan::tiles`]) — in a
//! fixed order: the call scopes' interiors, the loose scope's, then the
//! scope pairs ascending. Each unit's pairs are decided (or, in a loose
//! tile, scored and decided) before a worker takes its next unit, so the
//! all-pairs list is never held: [`InteractStats::peak_candidate_buffer`]
//! records the widest unit's pair count, and a chip of loose elements
//! only — the direct scan, tiled — holds one tile at a time. Units merge
//! positionally ([`run_ordered`]), so serial and parallel runs
//! ([`CheckOptions::parallelism`]) yield **byte-identical** violation
//! lists and statistics.
//!
//! The direct scan over an id set ([`check_interactions_among`], every
//! element against one index over the set) is the plan's base case: the
//! edit session runs it over its halo, and over every id, with
//! [`check_same_mask`], it is the reference the plan is held to — the
//! same violation set and the same counters, `candidate_pairs` equal to
//! a brute-force count, on every generated chip (`tests/differential.rs`).
//!
//! # Same-mask conflict graphs (multi-patterning)
//!
//! A technology may declare a `same_mask` distance per layer
//! ([`diic_tech::RuleSet::same_mask`]): two features on that layer
//! closer than it, but not touching, cannot share a mask — an edge of
//! the layer's **conflict graph**, whatever their nets or devices. A
//! two-mask decomposition is a 2-colouring, so every **odd cycle** is an
//! undecomposable cluster, reported as one
//! [`ViolationKind::MaskOddCycle`] per odd component. Bipartiteness is
//! global, so one function produces it, [`check_same_mask`], and the
//! pair rules carry no edges: the stage appends its lines last, and the
//! edit session re-runs it after every edit.

use crate::binding::{ChipView, Istr};
use crate::checker::CheckOptions;
use crate::library::{BoundTechnology, Definition, Definitions};
use crate::netgen::GraphNets;
use crate::parallel::{effective_parallelism, run_ordered};
use crate::scope::{RowPlan, Scan, ScopeIds, ScopeStats, ScopeTable};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_geom::{batch, Coord, FlatGrid, Rect, SizingMode, Vector};
use diic_tech::{DeviceArchetype, SpacingRule, Technology};
use std::ops::Range;
use std::sync::Arc;

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
    /// Call scopes and scope pairs answered by a row scored for an
    /// earlier one.
    pub cache_hits: u64,
    /// Rows of the plan (each scored once, or taken from a library
    /// session's shelf).
    pub cache_misses: u64,
    /// The widest unit's candidate-pair count: of a whole-chip run's
    /// units (a row stamped onto one scope or scope pair, or a tile of a
    /// loose scan), the one with the most pairs; of a session re-check,
    /// its (halo-bounded) pair list, which it buffers whole. A whole-chip
    /// run holds no pair list: a stamp walks its row's scored pairs, a
    /// loose tile decides each pair as its scan finds it — so this bounds
    /// the work of one unit, and in a parallel run up to `parallelism`
    /// units are in flight at once (one per worker).
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

/// Runs the interaction checks over the whole chip by the scope table's
/// pair plan (see the module docs). `bound` must be `tech`'s binding —
/// the rule reach, cell size and rule tables come from it — and
/// `scopes` must have been built for that reach over `definitions`,
/// which a library session's cell takes its scored rows from (the
/// violation list and the statistics are byte-identical either way:
/// cross-cell reuse is counted on the session's shelves, not in
/// [`InteractStats`]). `nets` reads the net graph
/// ([`crate::netgen::NetParts::nets`]).
///
/// Also returns the stage's share of [`ScopeStats`]: the
/// `interact_pairs_scored` and `interact_pairs_stamped` counters, every
/// other field zero ([`ScopeStats::with_interactions_of`] folds them in).
pub fn check_interactions(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    nets: GraphNets<'_>,
    scopes: &ScopeTable,
    definitions: &Definitions<'_>,
    options: &CheckOptions,
) -> (Vec<Violation>, InteractStats, ScopeStats) {
    let workers = effective_parallelism(options.parallelism);
    let cx = EvalCx::new(
        view,
        tech,
        bound,
        nets,
        options,
        device_archetypes(view, tech, 0..view.devices.len()),
    );
    let plan = scopes.rows(bound.max_rule_range());
    let rows = score_rows(&cx, scopes, &plan, workers, definitions);
    let bboxes = view.elements.bboxes();
    let loose_index = plan
        .loose
        .first()
        .map(|(_, scan)| scan.index(bboxes, bound.cell_size()));
    let units = stream_order(&plan);
    let results = run_ordered(units.len(), workers, |k| {
        let mut found = Found::default();
        match &units[k] {
            &Unit::Row(si, sj, row) => {
                let (a, b) = (&scopes.scopes()[si], &scopes.scopes()[sj]);
                let ids = (a.run().start, b.run().start);
                rows[row].stamp(&cx, ids, a.transform.offset, &mut found);
            }
            Unit::Loose(scan, tile) => {
                // invariant: loose scans exist only beside their index.
                let index = loose_index
                    .as_ref()
                    .expect("a loose scan has the loose index");
                let reach = bound.max_rule_range();
                let scan = &plan.loose[*scan].1;
                scan.pairs(bboxes, index, reach, tile.clone(), |i, j| {
                    found.stats.candidate_pairs += 1;
                    evaluate_pair(&cx, i, j, &mut found);
                });
                found.stats.peak_candidate_buffer = found.stats.candidate_pairs;
            }
        }
        found
    });
    let stamps = plan.interior.len() + plan.cross.len();
    let mut stats = InteractStats {
        cache_hits: (stamps - plan.rows.len()) as u64,
        cache_misses: plan.rows.len() as u64,
        ..InteractStats::default()
    };
    // Every row of the plan counts, derived here or taken from a
    // library session's shelf: the counter is this check's, the same
    // whichever cell of a batch derived a shared row first.
    let mut work = ScopeStats {
        interact_pairs_scored: rows.iter().map(|row| row.counts.candidate_pairs).sum(),
        ..ScopeStats::default()
    };
    for (unit, found) in units.iter().zip(&results) {
        match *unit {
            Unit::Row(.., row) => work.interact_pairs_stamped += rows[row].open.len() as u64,
            Unit::Loose(..) => work.interact_pairs_scored += found.stats.candidate_pairs,
        }
    }
    let mut violations = merge_units(results, &mut stats);
    violations.extend(check_same_mask(view, tech, bound, options.metric));
    stats.violations = violations.len() as u64;
    (violations, stats, work)
}

/// Runs the pair rules **among a given element set** by the direct scan
/// — every element against one index over the set. It finds no
/// same-mask conflict: that verdict is global, and only
/// [`check_same_mask`] produces it. Over every id with no `clip`, plus
/// [`check_same_mask`], it is the reference [`check_interactions`] is
/// held to.
///
/// The edit session runs it over its halo, reading nets through its net
/// index's net keys ([`crate::netgen::NetIndex::nets`]): `ids` (ascending)
/// is every element within one rule reach of the dirty halo — the
/// session derives it from its persistent spatial index instead of
/// scanning the whole element list — and `clip` is the grid over the
/// halo's rects, which the session also uses for its retraction
/// predicate, so the two sides of the retract/splice partition share
/// one object by construction.
/// Only violations whose marker touches `clip` are then reported.
///
/// The scoping is *sound* because of two reach bounds: a spacing
/// violation's marker lies within the pair's gap distance
/// (≤ [`max_rule_range`]) of **both** elements, so every violation
/// anchored in the halo comes from a pair whose elements both sit
/// within one rule reach of it — exactly the element set searched here.
/// Conversely, violations whose marker misses the halo are dropped:
/// their unchanged copies live on in the cached report. The violation
/// *multiset* equals the whole-chip search's (`tests/incremental.rs`),
/// so a canonically sorted patched report matches a full run.
pub fn check_interactions_among(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    nets: GraphNets<'_>,
    options: &CheckOptions,
    ids: &[usize],
    clip: Option<&FlatGrid>,
) -> (Vec<Violation>, InteractStats) {
    let mut stats = InteractStats::default();
    if ids.is_empty() {
        return (Vec::new(), stats);
    }
    let workers = effective_parallelism(options.parallelism);
    let bboxes = view.elements.bboxes();
    let scan = Scan::direct(ScopeIds::List(ids));
    let index = scan.index(bboxes, bound.cell_size());
    let mut pairs = Vec::new();
    let reach = bound.max_rule_range();
    scan.pairs(bboxes, &index, reach, 0..ids.len(), |i, j| {
        pairs.push((i, j))
    });
    drop(index);
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
    let chunks: Vec<&[(usize, usize)]> =
        pairs.chunks(pairs.len().div_ceil(workers).max(1)).collect();
    let results = run_ordered(chunks.len(), workers, |k| {
        let mut found = Found::default();
        found.stats.candidate_pairs = chunks[k].len() as u64;
        for &(i, j) in chunks[k] {
            evaluate_pair(&cx, i, j, &mut found);
        }
        found
    });
    let mut violations = merge_units(results, &mut stats);
    // The direct scan buffers its (halo-bounded) pair list whole.
    stats.peak_candidate_buffer = pairs.len() as u64;
    // Location-less violations count as inside every halo (they cannot
    // be anchored, so retraction and splicing must agree on them).
    if let Some(clip) = clip {
        violations.retain(|v| v.location.is_none_or(|l| clip.touches_any(&l)));
    }
    stats.violations = violations.len() as u64;
    (violations, stats)
}

// ---------------------------------------------------------------------
// Phase 1: scored rows and their streaming order.
// ---------------------------------------------------------------------

/// One streamed unit of a whole-chip run.
enum Unit {
    /// Row `row` stamped onto call scopes `(si, sj)` — `si == sj` for an
    /// interior.
    Row(usize, usize, usize),
    /// The positions `tile` of the plan's loose scan `scan`.
    Loose(usize, Range<usize>),
}

/// The plan's units in their canonical order: every call scope's
/// interior row, the loose scope's scan, then the scope pairs ascending
/// — a call scope's rows with later call scopes before its scan against
/// the loose scope, the last scope.
fn stream_order(plan: &RowPlan<'_>) -> Vec<Unit> {
    let mut units: Vec<Unit> = (plan.interior.iter().enumerate())
        .map(|(s, &row)| Unit::Row(s, s, row))
        .collect();
    let tiles = |k: usize| (plan.loose[k].1.tiles()).map(move |tile| Unit::Loose(k, tile));
    if !plan.loose.is_empty() {
        units.extend(tiles(0));
    }
    let mut near_loose = (1..plan.loose.len()).peekable();
    for &(si, sj, row) in &plan.cross {
        while let Some(k) = near_loose.next_if(|&k| plan.loose[k].0 < si) {
            units.extend(tiles(k));
        }
        units.push(Unit::Row(si, sj, row));
    }
    for k in near_loose {
        units.extend(tiles(k));
    }
    units
}

/// A row scored once: what no net can change about its candidate pairs,
/// with element ids local to its two scopes (`i` in the first, `j` in
/// the second) and gap boxes in the first scope's definition frame —
/// relative to its placement's offset. A stamp onto other scopes adds
/// their first ids and the first one's offset, and decides the pairs
/// whose outcome reads nets ([`decide`]).
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ScoredRow {
    /// The counters no net can change: `candidate_pairs` (and, equal to
    /// it, `peak_candidate_buffer`), `no_rule` and `override_waived`.
    counts: InteractStats,
    /// The pairs whose outcome reads nets, ascending.
    open: Vec<(usize, usize, Open)>,
}

impl Definition for ScoredRow {
    #[cfg(debug_assertions)]
    fn assert_same(&self, fresh: &ScoredRow) {
        assert_eq!(self, fresh, "a kept scored row differs from its row's");
    }
}

impl ScoredRow {
    /// Scores the row `scan` fills — the scopes starting at element ids
    /// `(i0, j0)`, the first placed at `offset`.
    fn score(
        cx: &EvalCx<'_>,
        scan: &Scan<'_>,
        (i0, j0): (usize, usize),
        offset: Vector,
    ) -> ScoredRow {
        let bboxes = cx.view.elements.bboxes();
        let index = scan.index(bboxes, cx.bound.cell_size());
        let mut row = ScoredRow::default();
        let (reach, tile) = (cx.bound.max_rule_range(), 0..scan.ids.len());
        scan.pairs(bboxes, &index, reach, tile, |i, j| {
            row.counts.candidate_pairs += 1;
            if let Some(open) = score_pair(cx, i, j).tally(&mut row.counts) {
                row.open.push((i - i0, j - j0, open.moved(-offset)));
            }
        });
        row.counts.peak_candidate_buffer = row.counts.candidate_pairs;
        row
    }

    /// Stamps the row onto the scopes starting at element ids `(i0,
    /// j0)`, the first placed at `offset`: its counts as they are, its
    /// open pairs decided by nets.
    fn stamp(&self, cx: &EvalCx<'_>, (i0, j0): (usize, usize), offset: Vector, out: &mut Found) {
        out.stats.absorb(&self.counts);
        for (i, j, open) in &self.open {
            decide(cx, i + i0, j + j0, &open.moved(offset), out);
        }
    }
}

/// Scores every row of the plan across the worker pool, each by the
/// first scope (pair) presenting its key. A scored row is a pure
/// function of its scopes' elements up to translation, so parallel
/// scoring returns exactly the serial values. In library mode each row
/// is looked up on the session's row shelf first
/// ([`Definitions::scored_row`]): a hit returns the row a local scoring
/// would have produced. The flag is true for a row this check scored.
fn score_rows(
    cx: &EvalCx<'_>,
    table: &ScopeTable,
    plan: &RowPlan<'_>,
    workers: usize,
    definitions: &Definitions<'_>,
) -> Vec<Arc<ScoredRow>> {
    let reach = cx.bound.max_rule_range();
    run_ordered(plan.rows.len(), workers, |row| {
        let ((si, sj), scan) = plan.rows[row];
        definitions.scored_row(table.row_key(si, sj), reach, cx.metric, || {
            let (a, b) = (&table.scopes()[si], &table.scopes()[sj]);
            let ids = (a.run().start, b.run().start);
            ScoredRow::score(cx, &scan, ids, a.transform.offset)
        })
    })
}

/// What one unit (or one chunk of the direct scan) found: its
/// violations and its counters.
#[derive(Default)]
struct Found {
    violations: Vec<Violation>,
    stats: InteractStats,
}

/// Folds per-unit results, in unit order, into one violation list and
/// the run's counters.
fn merge_units(results: Vec<Found>, stats: &mut InteractStats) -> Vec<Violation> {
    let mut violations = Vec::new();
    for found in results {
        violations.extend(found.violations);
        stats.absorb(&found.stats);
    }
    violations
}

// ---------------------------------------------------------------------
// Phase 2: pair evaluation — scored, then decided.
// ---------------------------------------------------------------------

/// Read-only state shared by every evaluation worker.
struct EvalCx<'a> {
    view: &'a ChipView,
    tech: &'a Technology,
    /// The rule tables and reach.
    bound: &'a BoundTechnology,
    /// The nets pairs are told apart by, read off the net graph.
    nets: GraphNets<'a>,
    /// [`CheckOptions::same_net_suppression`].
    same_net_suppression: bool,
    /// [`CheckOptions::metric`].
    metric: SizingMode,
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
        nets: GraphNets<'a>,
        options: &CheckOptions,
        archetypes: Vec<(Istr, Option<&'a DeviceArchetype>)>,
    ) -> Self {
        EvalCx {
            view,
            tech,
            bound,
            nets,
            same_net_suppression: options.same_net_suppression,
            metric: options.metric,
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

/// What no net can change about one candidate pair ([`score_pair`]).
enum Score {
    /// Internal to one device: stage 3's territory.
    Internal,
    /// Waived by a device override (Fig. 6b).
    Waived,
    /// No rule in the matrix.
    NoRule,
    /// A rule applies; whether it is checked reads nets.
    Open(Open),
}

impl Score {
    /// Counts an outcome no net can change into `stats`; the pair, if
    /// its outcome reads nets.
    fn tally(self, stats: &mut InteractStats) -> Option<Open> {
        match self {
            Score::Internal => None,
            Score::Waived => {
                stats.override_waived += 1;
                None
            }
            Score::NoRule => {
                stats.no_rule += 1;
                None
            }
            Score::Open(open) => Some(open),
        }
    }
}

/// The rule a pair whose outcome reads nets is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// A device override's spacing (Fig. 6), checked between elements
    /// of one net only if it `applies_same_net`.
    Override {
        spacing: Coord,
        applies_same_net: bool,
    },
    /// The matrix rule for the two layers; `transistor[0]` /
    /// `transistor[1]` mark the first / second element as part of a
    /// transistor, which is checked only against unrelated elements.
    Matrix {
        rule: SpacingRule,
        transistor: [bool; 2],
    },
}

impl Rule {
    /// The widest spacing the rule can require, whatever the nets.
    fn widest(&self) -> Coord {
        match *self {
            Rule::Override { spacing, .. } => spacing,
            Rule::Matrix { rule, .. } => (rule.diff_net)
                .max(rule.same_net.unwrap_or(rule.diff_net))
                .max(rule.for_unrelated_device()),
        }
    }
}

/// A scored pair whose outcome reads nets: its rule, and its closest
/// approach with the approach's gap box — `None` when no spacing the
/// rule can require could be violated (the bounding boxes are at least
/// that far apart, the elements touch where touching is no spacing
/// fault, or one of them has no rectangles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Open {
    rule: Rule,
    approach: Option<(Coord, Rect)>,
}

impl Open {
    /// The same pair with its gap box moved by `v`.
    fn moved(&self, v: Vector) -> Open {
        Open {
            approach: self.approach.map(|(dist, gap)| (dist, gap.translate(v))),
            ..*self
        }
    }
}

/// Evaluates one candidate pair directly: [`score_pair`], then
/// [`decide`] if its outcome reads nets — the one rule body every scan
/// composes, and a stamped row splits.
fn evaluate_pair(cx: &EvalCx<'_>, i: usize, j: usize, out: &mut Found) {
    if let Some(open) = score_pair(cx, i, j).tally(&mut out.stats) {
        decide(cx, i, j, &open, out);
    }
}

/// The half of the rules for one element pair that no net can change:
/// the device-internal skip, a device override's waiver or spacing, the
/// matrix rule with its transistor sides, and the closest approach
/// with the touching exemptions. A function of the two elements'
/// geometry, layers and device declarations, so a row scored once
/// answers for every translated copy of it.
fn score_pair(cx: &EvalCx<'_>, i: usize, j: usize) -> Score {
    let view = cx.view;
    let a = view.elements.get(i);
    let b = view.elements.get(j);

    if a.device().is_some() && a.device() == b.device() {
        return Score::Internal; // stage 3's territory
    }

    // Device overrides (Fig. 6): an element inside a device may replace
    // the matrix rule for its interactions; the first side's wins.
    let overridden = [(a, b), (b, a)].into_iter().find_map(|(own, other)| {
        let ty = view.devices[own.device()?].device_type;
        // invariant: `archetypes` covers every device this run's
        // candidate elements belong to (see the two `EvalCx` builders).
        let resolved = cx.archetypes.iter().find(|(known, _)| *known == ty);
        let arch = resolved.expect("device type resolved up front").1?;
        arch.find_override(own.layer(), other.layer())
    });
    let rule = match overridden {
        Some(o) => match o.spacing {
            None => return Score::Waived, // resistor-to-isolation tie
            Some(spacing) => Rule::Override {
                spacing,
                applies_same_net: o.applies_same_net,
            },
        },
        None => {
            let Some(&rule) = cx.bound.spacing(a.layer(), b.layer()) else {
                return Score::NoRule;
            };
            let transistor = [a, b].map(|e| {
                let class = e.device().and_then(|d| view.devices[d].class);
                class.is_some_and(|c| c.is_transistor())
            });
            Rule::Matrix { rule, transistor }
        }
    };

    // Distance: the closest-approach batch kernel over the two arena
    // runs, skipped when the bounding boxes are already as far apart as
    // the rule can require. The marker is the tight
    // [`diic_geom::spacing::gap_box`] of the closest rect pair — every
    // marker point is within the pair's gap distance of both offending
    // features, which is what lets the incremental checker anchor
    // spacing violations to a dirty halo (a bounding-union marker could
    // stretch arbitrarily far from the gap along a long wire).
    let (dx, dy) = a.bbox().gap(&b.bbox());
    let approach = if dx.max(dy) >= rule.widest() {
        None
    } else {
        batch::closest_approach(a.rects(), b.rects(), cx.metric).filter(|&(dist, _)| {
            // Touching: same-layer pairs were resolved by the connection
            // stage; cross-layer device-forming overlaps were reported as
            // implied devices. What remains (e.g. base touching isolation
            // under a transistor override) is a genuine short.
            dist > 0 || (a.layer() != b.layer() && !cx.bound.forms_device(a.layer(), b.layer()))
        })
    };
    Score::Open(Open { rule, approach })
}

/// The half of the rules for the pair `(i, j)` (chip ids) that reads
/// nets: same-net suppression, transistor relatedness, the required
/// spacing, every counter, and the violation itself, its marker the
/// gap box of `open` (already in chip coordinates).
fn decide(cx: &EvalCx<'_>, i: usize, j: usize, open: &Open, out: &mut Found) {
    let (view, tech, nets) = (cx.view, cx.tech, &cx.nets);
    let stats = &mut out.stats;
    let same_net = match (nets.element_net(i), nets.element_net(j)) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    };
    let required = match open.rule {
        Rule::Override {
            spacing,
            applies_same_net,
        } => {
            if same_net && !applies_same_net {
                stats.same_net_suppressed += 1;
                return;
            }
            spacing
        }
        Rule::Matrix { rule, transistor } => {
            // Transistor relatedness: a transistor's un-netted parts are
            // only checked against unrelated elements.
            let mut required = None;
            for (inside, other) in [(i, j), (j, i)] {
                if !transistor[usize::from(inside != i)] {
                    continue;
                }
                // invariant: a transistor side is a device's element.
                let d = (view.elements.get(inside).device()).expect("a transistor's element");
                // An un-netted other end is on no terminal: the two ends
                // of a pair inside one device never get here.
                let related = (nets.element_net(other)).is_some_and(|n| nets.device_on(d, n));
                if related {
                    stats.related_suppressed += 1;
                    return;
                }
                required = Some(rule.for_unrelated_device());
            }
            match required {
                Some(r) => r,
                None if same_net && cx.same_net_suppression => match rule.for_same_net() {
                    None => {
                        stats.same_net_suppressed += 1;
                        return;
                    }
                    Some(s) => s,
                },
                None => rule.diff_net,
            }
        }
    };

    stats.distance_checks += 1;
    let Some((dist, gap_loc)) = open.approach else {
        return;
    };
    if dist < required {
        let (a, b) = (view.elements.get(i), view.elements.get(j));
        // Orient the pair canonically before naming layers: the plan's
        // units and the direct scan over the edit session's halo
        // enumerate pairs in different orders, and the rendered
        // violation must not encode which path produced it (see
        // `pair_context`).
        let (a, b) = match pair_order(view, tech, a, b).is_le() {
            true => (a, b),
            false => (b, a),
        };
        out.violations.push(Violation {
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

/// Enumeration-independent order of the two sides of an element pair:
/// instance path, layer name, bounding box. Two elements that tie on
/// all three are interchangeable duplicates, so the residual ambiguity
/// cannot change a rendered violation.
fn pair_order(
    view: &ChipView,
    tech: &Technology,
    a: crate::binding::ElementRef<'_>,
    b: crate::binding::ElementRef<'_>,
) -> std::cmp::Ordering {
    let layer = |e: crate::binding::ElementRef<'_>| tech.layer(e.layer()).name.as_str();
    (view.cmp_names(a.path(), b.path()))
        .then_with(|| layer(a).cmp(layer(b)))
        .then_with(|| a.bbox().cmp(&b.bbox()))
}

fn pair_context(
    view: &ChipView,
    a: crate::binding::ElementRef<'_>,
    b: crate::binding::ElementRef<'_>,
) -> String {
    let mut context = String::new();
    if a.path() == b.path() {
        view.write_name(a.path(), &mut context);
    } else {
        // Lexicographic, not enumeration order: the plan hands pairs
        // over in scope-visit order, the direct scan in element-id
        // order (over every id or over the edit session's halo) — the
        // rendered context must not care which path produced it (an
        // `AddCall` edit appends a call *after* top-level elements,
        // where id order and scope order disagree).
        let (pa, pb) = match view.cmp_names(a.path(), b.path()).is_le() {
            true => (a.path(), b.path()),
            false => (b.path(), a.path()),
        };
        view.write_name(pa, &mut context);
        context.push_str(" / ");
        view.write_name(pb, &mut context);
    }
    context
}

// ---------------------------------------------------------------------
// Same-mask conflict graphs (multi-patterning).
// ---------------------------------------------------------------------

/// One conflict-graph edge: elements `a < b` on the same layer, closer
/// than the layer's `same_mask` distance but not touching.
#[derive(Debug, Clone, Copy)]
struct MaskEdge {
    a: usize,
    b: usize,
    gap: Coord,
}

/// The conflict-graph edge between elements `a` and `b`, if they lie on
/// one layer with a `same_mask` rule, closer than its distance but not
/// touching (touching features print as one feature and never
/// conflict).
fn mask_edge(
    bound: &BoundTechnology,
    metric: SizingMode,
    a: crate::binding::ElementRef<'_>,
    b: crate::binding::ElementRef<'_>,
) -> Option<MaskEdge> {
    if a.layer() != b.layer() {
        return None;
    }
    let threshold = bound.same_mask(a.layer())?;
    let (gap, _) = batch::closest_approach(a.rects(), b.rects(), metric)?;
    (gap > 0 && gap < threshold).then_some(MaskEdge {
        a: a.id(),
        b: b.id(),
        gap,
    })
}

/// The same-mask verdict over the whole chip, and the one producer of
/// [`ViolationKind::MaskOddCycle`] lines: the direct scan over the
/// elements on `same_mask` layers collects the conflict edges, and one
/// breadth-first pass 2-colours the graph they form. Returns nothing,
/// and scans nothing, when the technology declares no `same_mask`
/// rules.
///
/// [`check_interactions`] appends these lines after the pair rules';
/// the edit session re-runs it after every edit, because bipartiteness
/// is global: an edit anywhere can open or close a cycle whose witness
/// lies far outside its halo.
pub fn check_same_mask(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    metric: SizingMode,
) -> Vec<Violation> {
    if !tech.rules().has_same_mask() {
        return Vec::new();
    }
    let (bboxes, layers) = (view.elements.bboxes(), view.elements.layers());
    let masked: Vec<usize> = (0..layers.len())
        .filter(|&i| bound.same_mask(layers[i]).is_some())
        .collect();
    let scan = Scan::direct(ScopeIds::List(&masked));
    let index = scan.index(bboxes, bound.cell_size());
    let mut edges = Vec::new();
    let (reach, tile) = (bound.max_rule_range(), 0..masked.len());
    scan.pairs(bboxes, &index, reach, tile, |i, j| {
        edges.extend(mask_edge(
            bound,
            metric,
            view.elements.get(i),
            view.elements.get(j),
        ));
    });
    mask_cycle_violations(view, tech, metric, &edges)
}

/// Analyses a conflict graph over dense arrays — the distinct endpoints
/// numbered compactly in id order, a CSR adjacency — by BFS
/// 2-colouring from ascending roots, each node's neighbours ascending,
/// so the result does not depend on the edges' order. One pass over the
/// edges then keeps each component's closest (then lowest-id) edge
/// whose endpoints took the same colour: one
/// [`ViolationKind::MaskOddCycle`] per non-bipartite component, in root
/// order, `cycle` the length of the odd cycle it closes through the
/// BFS tree.
fn mask_cycle_violations(
    view: &ChipView,
    tech: &Technology,
    metric: SizingMode,
    edges: &[MaskEdge],
) -> Vec<Violation> {
    let mut ids: Vec<usize> = edges.iter().flat_map(|e| [e.a, e.b]).collect();
    ids.sort_unstable();
    ids.dedup();
    // invariant: `ids` holds every endpoint.
    let node = |id: usize| ids.binary_search(&id).expect("an endpoint is numbered");
    let ends: Vec<(usize, usize)> = edges.iter().map(|e| (node(e.a), node(e.b))).collect();

    // CSR adjacency: node `u`'s neighbours are `adj[start[u]..start[u + 1]]`,
    // ascending.
    let n = ids.len();
    let mut start = vec![0; n + 1];
    for &(u, v) in &ends {
        start[u + 1] += 1;
        start[v + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let (mut next, mut adj) = (start.clone(), vec![0; start[n]]);
    for &(u, v) in &ends {
        for (from, to) in [(u, v), (v, u)] {
            adj[next[from]] = to;
            next[from] += 1;
        }
    }
    for k in 0..n {
        adj[start[k]..start[k + 1]].sort_unstable();
    }

    // One queue serves every component: each node enters it once.
    const UNSEEN: usize = usize::MAX;
    let mut component = vec![UNSEEN; n];
    let (mut colour, mut parent, mut depth) = (vec![false; n], vec![0; n], vec![0; n]);
    let (mut queue, mut head, mut components) = (Vec::with_capacity(n), 0, 0);
    for root in 0..n {
        if component[root] != UNSEEN {
            continue;
        }
        component[root] = components;
        parent[root] = root;
        queue.push(root);
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in &adj[start[u]..start[u + 1]] {
                if component[v] == UNSEEN {
                    component[v] = components;
                    colour[v] = !colour[u];
                    parent[v] = u;
                    depth[v] = depth[u] + 1;
                    queue.push(v);
                }
            }
        }
        components += 1;
    }

    // An edge whose endpoints took the same colour closes an odd cycle
    // through the BFS tree; each component keeps its least.
    let key = |k: usize| (edges[k].gap, edges[k].a, edges[k].b);
    let mut witness: Vec<Option<usize>> = vec![None; components];
    for (k, &(u, v)) in ends.iter().enumerate() {
        if colour[u] != colour[v] {
            continue;
        }
        let best = &mut witness[component[u]];
        if best.is_none_or(|b| key(k) < key(b)) {
            *best = Some(k);
        }
    }

    let mut out = Vec::new();
    for k in witness.into_iter().flatten() {
        let e = edges[k];
        let (u, v) = ends[k];
        let cycle = odd_cycle_len(&parent, &depth, u, v);
        let ea = view.elements.get(e.a);
        let eb = view.elements.get(e.b);
        let required = tech
            .rules()
            .same_mask(ea.layer())
            .expect("a mask edge implies a same_mask rule on its layer");
        let (_, gap_loc) = batch::closest_approach(ea.rects(), eb.rects(), metric)
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
fn odd_cycle_len(parent: &[usize], depth: &[usize], mut u: usize, mut v: usize) -> usize {
    let (du, dv) = (depth[u], depth[v]);
    while u != v {
        if depth[u] >= depth[v] {
            u = parent[u];
        } else {
            v = parent[v];
        }
    }
    du + dv - 2 * depth[u] + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use crate::connect::check_connections;
    use crate::netgen::NetParts;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    /// The stage's violations and counters, its `ScopeStats` dropped.
    fn stage(
        view: &ChipView,
        tech: &Technology,
        bound: &BoundTechnology,
        nets: GraphNets<'_>,
        scopes: &ScopeTable,
        definitions: &Definitions<'_>,
        options: &CheckOptions,
    ) -> (Vec<Violation>, InteractStats) {
        let (v, stats, _) =
            check_interactions(view, tech, bound, nets, scopes, definitions, options);
        (v, stats)
    }

    fn run_with(cif: &str, options: CheckOptions) -> (Vec<Violation>, InteractStats) {
        let tech = nmos_technology();
        let (view, parts, scopes, defs) = build(cif, &tech);
        let bound = BoundTechnology::new(&tech);
        stage(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options)
    }

    /// The stage with default options.
    fn run(cif: &str) -> (Vec<Violation>, InteractStats) {
        run_with(cif, CheckOptions::default())
    }

    /// The direct-scan reference: every element against one index over
    /// all of them, plus the standalone multi-patterning analysis.
    fn reference(
        view: &ChipView,
        tech: &Technology,
        nets: GraphNets<'_>,
        options: &CheckOptions,
    ) -> (Vec<Violation>, InteractStats) {
        let bound = BoundTechnology::new(tech);
        let all: Vec<usize> = (0..view.elements.len()).collect();
        let (mut v, mut stats) =
            check_interactions_among(view, tech, &bound, nets, options, &all, None);
        v.extend(check_same_mask(view, tech, &bound, options.metric));
        stats.violations = v.len() as u64;
        (v, stats)
    }

    /// The counters the plan is held to the direct scan on: all but the
    /// plan-only `cache_hits`, `cache_misses` and
    /// `peak_candidate_buffer`.
    fn shared(stats: &InteractStats) -> InteractStats {
        InteractStats {
            cache_hits: 0,
            cache_misses: 0,
            peak_candidate_buffer: 0,
            ..*stats
        }
    }

    /// Sorted debug renderings: "the same violations" as byte equality.
    fn canonical(violations: &[Violation]) -> Vec<String> {
        let mut rendered: Vec<String> = violations.iter().map(|x| format!("{x:?}")).collect();
        rendered.sort();
        rendered
    }

    /// The stage and the reference over one chip: asserts they find the
    /// same violations and counters, and returns the stage's run.
    fn against_reference(
        cif: &str,
        tech: &Technology,
        options: &CheckOptions,
    ) -> (Vec<Violation>, InteractStats) {
        let (view, parts, scopes, defs) = build(cif, tech);
        let bound = BoundTechnology::new(tech);
        let (v, stats) = stage(&view, tech, &bound, parts.nets(), &scopes, &defs, options);
        let (direct, direct_stats) = reference(&view, tech, parts.nets(), options);
        assert_eq!(canonical(&v), canonical(&direct), "{options:?}");
        assert_eq!(shared(&stats), shared(&direct_stats), "{options:?}");
        (v, stats)
    }

    /// [`against_reference`] in nmos with default options.
    fn run_against_reference(cif: &str) -> (Vec<Violation>, InteractStats) {
        against_reference(cif, &nmos_technology(), &CheckOptions::default())
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

    /// What [`build_layout`] returns: the stage's inputs.
    type Built = (ChipView, NetParts, ScopeTable, Definitions<'static>);

    fn build(cif: &str, tech: &diic_tech::Technology) -> Built {
        build_layout(&parse(cif).unwrap(), tech)
    }

    fn build_layout(layout: &diic_cif::Layout, tech: &diic_tech::Technology) -> Built {
        let (binding, _) = LayerBinding::bind(layout, tech);
        let defs = Definitions::new(layout, &binding, None);
        let (mut view, runs) = instantiate(layout, tech, &binding, &defs, Default::default());
        let scopes = ScopeTable::build(
            &defs,
            layout.top_items(),
            runs.iter().map(|run| run.0),
            view.elements.bboxes(),
            max_rule_range(tech),
        );
        let bound = BoundTechnology::new(tech);
        let (conn, _) = check_connections(&view, tech, &bound, &scopes, 1);
        let labels: Vec<_> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();
        let (mut parts, _) = NetParts::build(&mut view, &bound, &conn.merges, &labels, &scopes, 1);
        parts.assemble(&view);
        (view, parts, scopes, defs)
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
    fn odd_cycle_flagged_by_the_plan_and_the_reference() {
        let tech = mp_tech();
        let (view, parts, scopes, defs) = build(ODD_TRIANGLE, &tech);
        let bound = BoundTechnology::new(&tech);
        let options = CheckOptions::default();
        let (direct, _) = reference(&view, &tech, parts.nets(), &options);
        for parallelism in [1usize, 3] {
            let options = CheckOptions {
                parallelism,
                ..CheckOptions::default()
            };
            let (v, _) = stage(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
            let mask: Vec<&Violation> = v
                .iter()
                .filter(|x| matches!(x.kind, ViolationKind::MaskOddCycle { .. }))
                .collect();
            assert_eq!(mask.len(), 1, "{v:?}");
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
            assert_eq!(v, direct, "workers={parallelism}");
        }
    }

    #[test]
    fn even_ring_is_two_mask_decomposable() {
        let tech = mp_tech();
        let (view, parts, scopes, defs) = build(EVEN_RING, &tech);
        let bound = BoundTechnology::new(&tech);
        let options = CheckOptions::default();
        let (v, _) = stage(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
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
            let (view, parts, scopes, defs) = build(cif, &tech);
            let bound = BoundTechnology::new(&tech);
            let options = CheckOptions::default();
            let (v, _) = stage(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
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
        let (view, ..) = build(ODD_TRIANGLE, &tech);
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
        let (view, parts, scopes, defs) = build(cif, &tech);
        let bound = BoundTechnology::new(&tech);
        let options = CheckOptions::default();
        let (v, _) = stage(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
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
            ..CheckOptions::default()
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
                ..CheckOptions::default()
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
    fn stamped_rows_match_the_direct_scan() {
        // An array with injected spacing violations: one violation per
        // instance, from one row stamped five times.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..6 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 4000));
        }
        cif.push('E');
        let (v, stats) = run_against_reference(&cif);
        assert_eq!(v.len(), 6);
        assert!(stats.cache_hits >= 5, "stats: {stats:?}");
    }

    #[test]
    fn rows_are_keyed_per_orientation() {
        // One cell placed upright twice and rotated once: the rotated
        // instance fills a row of its own.
        let cif = "DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;
                   C 1 T 0 0; C 1 T 10000 0; C 1 R 0 1 T 20000 0; E";
        let (v, stats) = run_against_reference(cif);
        assert_eq!(v.len(), 3);
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 1));
    }

    #[test]
    fn scopes_are_positional_whatever_the_calls_are_named() {
        // Three instances of a cell with one internal spacing fault,
        // the first two close enough to fault across their boundary;
        // the top-level calls renamed to dotted, empty and repeated
        // names. Keyed by name, the scope-driven search lost the
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
            let (view, parts, scopes, defs) = build_layout(&layout, &tech);
            let bound = BoundTechnology::new(&tech);
            let options = CheckOptions::default();
            let (v, stats) = stage(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
            let (direct, direct_stats) = reference(&view, &tech, parts.nets(), &options);
            assert_eq!(canonical(&v), canonical(&direct), "{names:?}");
            assert_eq!(shared(&stats), shared(&direct_stats), "{names:?}");
            assert_eq!(v.len(), 3 + 4, "{names:?}: {v:#?}");
        }
    }

    #[test]
    fn cross_instance_pairs() {
        // Instances placed too close: the wires of adjacent cells violate
        // metal spacing across the boundary.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; DF;\n");
        for i in 0..5 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2500)); // 500 gap
        }
        cif.push('E');
        let (v, stats) = run_against_reference(&cif);
        assert_eq!(v.len(), 4, "{v:?}");
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
        let serial = run(&cif);
        for workers in [2usize, 3, 8, 0] {
            let parallel = run_with(
                &cif,
                CheckOptions {
                    parallelism: workers,
                    ..CheckOptions::default()
                },
            );
            assert_eq!(
                serial.0, parallel.0,
                "workers={workers}: violation lists diverge"
            );
            assert_eq!(serial.1, parallel.1, "workers={workers}");
        }
    }

    #[test]
    fn loose_tiles_count_each_pair_once() {
        // A chip of loose elements only is the direct scan, tiled: 1 200
        // wires on a 1 250 pitch, three tiles. `candidate_pairs` counts
        // every pair exactly once — a pair spanning two tiles is owned
        // by its lower element's — against a brute-force count, and the
        // peak buffer is the widest tile, for any worker count.
        let n = 1200;
        let mut cif = String::new();
        for i in 0..n {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 1250));
        }
        cif.push('E');
        let tech = nmos_technology();
        let (view, parts, scopes, defs) = build(&cif, &tech);
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
        let widest = (owned.chunks(crate::scope::DEFAULT_TILE_ELEMENTS))
            .map(|t| t.iter().sum::<u64>())
            .max()
            .unwrap();
        assert!(widest < total);
        let (direct, direct_stats) =
            reference(&view, &tech, parts.nets(), &CheckOptions::default());
        for workers in [1usize, 2, 3, 7] {
            let options = CheckOptions {
                parallelism: workers,
                ..CheckOptions::default()
            };
            let (v, stats) = stage(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
            assert_eq!(stats.candidate_pairs, total, "workers={workers}");
            assert_eq!(stats.peak_candidate_buffer, widest, "workers={workers}");
            assert_eq!(v, direct, "workers={workers}: the direct scan, tiled");
            assert_eq!(shared(&stats), shared(&direct_stats), "workers={workers}");
        }
    }

    #[test]
    fn rows_stream_per_scope() {
        // A whole-chip run's units are its scopes and near scope pairs;
        // the peak buffer must be the widest of them, not the total
        // across instances — the same pairs the direct scan counts.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..8 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2500));
        }
        cif.push('E');
        let (_, stats) = run_against_reference(&cif);
        assert!(stats.cache_hits > 0);
        assert!(
            stats.peak_candidate_buffer < stats.candidate_pairs,
            "peak {} vs total {}",
            stats.peak_candidate_buffer,
            stats.candidate_pairs
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
        // pool: an array with repeated symbols (row hits and misses) and
        // loose top-level geometry must yield identical pair lists,
        // stats, and violations for any worker count.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF;\n");
        for i in 0..7 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 2300));
        }
        cif.push_str("L NM; B 2000 700 1000 9000;\nE");
        let serial = run_against_reference(&cif);
        assert!(serial.1.cache_hits > 0 && serial.1.cache_misses > 0);
        for workers in [2usize, 5, 0] {
            let parallel = run_with(
                &cif,
                CheckOptions {
                    parallelism: workers,
                    ..CheckOptions::default()
                },
            );
            assert_eq!(serial.0, parallel.0, "workers={workers}");
            assert_eq!(serial.1, parallel.1, "workers={workers}");
        }
    }

    /// `cells` (symbol 1 and the symbols it calls) placed three times
    /// upright, `pitch` apart, then once rotated and once mirrored: one
    /// row stamped three times, and the same definition under two more
    /// orientations.
    fn placed(cells: &str, pitch: Coord) -> String {
        let at = |k: Coord| k * pitch;
        format!(
            "{cells}\nC 1 T 0 0; C 1 T {} 0; C 1 T {} 0; C 1 R 0 1 T {} 0; C 1 MX T {} 0;\nE",
            at(1),
            at(2),
            at(3),
            at(4)
        )
    }

    /// Holds the plan to the direct scan on `cif` with same-net
    /// suppression on and off, under both metrics, serial and on three
    /// workers, each run stamping rows; returns the counters of the
    /// first (default) run.
    fn assert_stamps_match(cif: &str, tech: &Technology) -> InteractStats {
        let mut first = None;
        for same_net_suppression in [true, false] {
            for metric in [SizingMode::Orthogonal, SizingMode::Euclidean] {
                for parallelism in [1, 3] {
                    let options = CheckOptions {
                        same_net_suppression,
                        metric,
                        parallelism,
                        ..CheckOptions::default()
                    };
                    let (_, stats) = against_reference(cif, tech, &options);
                    assert!(stats.cache_hits >= 2, "rows are stamped: {stats:?}");
                    first.get_or_insert(stats);
                }
            }
        }
        first.expect("at least one run")
    }

    /// Device overrides for stamping: two contact devices whose metal
    /// carries an override against metal (`TIE` checked on one net,
    /// `PLAIN` not), and a base resistor whose override waives
    /// isolation.
    const OVERRIDE_DECK: &str = r#"
        tech "stamps" {
            lambda 250;
            layer iso     { cif "BI"; kind isolation; min_width 2 lambda; }
            layer base    { cif "BB"; kind base;      min_width 2 lambda; }
            layer contact { cif "BC"; kind contact;   min_width 2 lambda; }
            layer metal   { cif "BM"; kind metal;     min_width 3 lambda; }
            space base base 3 lambda;
            space base iso 2 lambda;
            space metal metal 3 lambda;
            device TIE contact { requires_layer contact; override metal metal 4 lambda same_net; terminals A; }
            device PLAIN contact { requires_layer contact; override metal metal 4 lambda; terminals A; }
            device BASE_RESISTOR resistor { requires_layer base; override base iso waived; terminals A B; }
        }
    "#;

    #[test]
    fn stamped_overrides_match_the_direct_scan() {
        let tech = diic_tech::deck::compile_str(OVERRIDE_DECK).expect("the deck compiles");
        // Each contact's metal is joined to a wire on its net above it,
        // and 500 from a second wire on that net beside it; `PLAIN`
        // also sits 500 from a wire on another net. The resistor's base
        // touches an isolation box.
        let cells = "
            DS 2; 9 tie; 9D TIE; 9T A BM 0 0; L BC; B 500 500 0 0; L BM; B 1000 1000 0 0; DF;
            DS 3; 9 plain; 9D PLAIN; 9T A BM 0 0; L BC; B 500 500 0 0; L BM; B 1000 1000 0 0; DF;
            DS 4; 9 r; 9D BASE_RESISTOR; 9T A BB 0 -750; 9T B BB 0 750;
            L BB; B 500 2000 0 0; DF;
            DS 1;
            C 2 T 0 0; L BM; 9N a; B 1000 3000 0 2000; L BM; 9N a; B 1000 1000 1500 0;
            C 3 T 6000 0; L BM; 9N b; B 1000 3000 6000 2000; L BM; 9N b; B 1000 1000 7500 0;
            L BM; 9N c; B 1000 1000 4500 0;
            C 4 T 12000 0; L BI; B 2000 2000 13250 0;
            DF;";
        let stats = assert_stamps_match(&placed(cells, 40_000), &tech);
        assert!(stats.override_waived >= 5, "{stats:?}");
        assert!(
            stats.same_net_suppressed >= 5,
            "`PLAIN` on one net: {stats:?}"
        );
        assert!(
            stats.violations >= 10,
            "`TIE` on one net, `PLAIN` across: {stats:?}"
        );
    }

    #[test]
    fn stamped_transistors_match_the_direct_scan() {
        // A poly wire on the gate's net runs into the gate (related); an
        // unrelated one passes 125 from the diffusion. Placed close, so
        // the cross rows stamp transistor pairs too.
        let cells = "
            DS 2; 9D NMOS_ENH; 9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
            L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF;
            DS 1; C 2 T 0 0;
            L NP; 9N in; W 500 -375 0 -3000 0;
            L NP; 9N foreign; W 500 875 -3000 875 3000;
            DF;";
        let tech = nmos_technology();
        let far = assert_stamps_match(&placed(cells, 20_000), &tech);
        assert!(far.related_suppressed >= 5, "{far:?}");
        assert!(far.violations >= 5, "{far:?}");
        let near = assert_stamps_match(&placed(cells, 4_600), &tech);
        assert!(near.related_suppressed >= 5, "{near:?}");
    }

    #[test]
    fn stamped_same_net_pairs_match_the_direct_scan() {
        // Two wires on one net 500 apart, a third on another net 500
        // from the second.
        let cells = "DS 1; L NM; 9N a; B 2000 750 1000 375; 9N a; B 2000 750 1000 1625;
                     9N b; B 2000 750 1000 2875; DF;";
        let tech = nmos_technology();
        let stats = assert_stamps_match(&placed(cells, 10_000), &tech);
        assert!(stats.same_net_suppressed >= 5, "{stats:?}");
        assert!(stats.violations >= 5, "{stats:?}");
        let near = assert_stamps_match(&placed(cells, 2_500), &tech);
        assert!(
            near.violations > stats.violations,
            "across the cells: {near:?}"
        );
    }
}
