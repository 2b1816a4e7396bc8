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
//! # One plan, streamed
//!
//! The candidate pairs are the element pairs whose bounding boxes come
//! within the technology's rule reach ([`max_rule_range`]) of one
//! another. [`check_interactions`] enumerates them by the scope table's
//! pair plan at that reach ([`ScopeTable::rows`]), the plan the
//! connection stage reads at reach 0: a *candidate row* per call scope's
//! `(definition, orientation)` and per `(definition, definition,
//! orientation, relative placement)` of two call scopes within reach, a
//! definition being its content key ([`Definitions`]) — Manhattan
//! placements preserve distances, so one instance's geometry answers for
//! all its repeats. The distinct rows are filled once, across the worker
//! pool (in library mode taken from, and kept in, the session's
//! [`crate::LibraryCache`]), and stamped onto every scope and scope
//! pair presenting their key. The pairs with a loose top-level element
//! on either side come from the plan's loose scans: one index over the
//! loose elements, scanned against itself and by every call scope
//! within reach of it.
//!
//! The stage then streams **units** — a row stamped onto one scope or
//! scope pair, or one tile of a loose scan ([`Scan::tiles`]) — in a
//! fixed order: the call scopes' interiors, the loose scope's, then the
//! scope pairs ascending. Each unit's pairs are mapped to chip ids,
//! evaluated (the rule-matrix subcases and distance checks) and dropped
//! before a worker takes its next unit, so the all-pairs list is never
//! held: [`InteractStats::peak_candidate_buffer`] records the widest
//! unit, and a chip of loose elements only — the direct scan, tiled —
//! holds one tile at a time. Units merge positionally ([`run_ordered`]),
//! so serial and parallel runs ([`CheckOptions::parallelism`]) yield
//! **byte-identical** violation lists and statistics.
//!
//! The direct scan over an id set ([`check_interactions_among`], every
//! element against one index over the set) is the plan's base case: the
//! edit session runs it over its halo, and over every id, with
//! [`check_same_mask`], it is the reference the plan is held to — the
//! same violation set and the same `candidate_pairs`, equal to a
//! brute-force count, on every generated chip (`tests/differential.rs`).
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
//! membership do not excuse a mask conflict), then analysed once at the
//! end of the run; [`check_same_mask`] runs the same analysis
//! standalone, which is how the incremental session recomputes the
//! (global, and therefore un-clippable) property after an edit.

use crate::binding::{ChipView, Istr};
use crate::checker::CheckOptions;
use crate::library::{BoundTechnology, Definition, Definitions};
use crate::netgen::GraphNets;
use crate::parallel::{effective_parallelism, run_ordered};
use crate::scope::{RowPlan, Scan, ScopeIds, ScopeTable};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_geom::{batch, Coord, FlatGrid, Rect, SizingMode};
use diic_tech::{DeviceArchetype, LayerId, Technology};
use std::collections::{HashMap, HashSet};
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
    /// Call scopes and scope pairs answered by a candidate row filled
    /// for an earlier one.
    pub cache_hits: u64,
    /// Candidate rows filled (searched geometrically).
    pub cache_misses: u64,
    /// The largest **single** candidate-pair buffer held at any point:
    /// the widest unit of a whole-chip run (a row stamped onto one scope
    /// or scope pair, or a tile of a loose scan), the (halo-bounded)
    /// pair list of a session re-check. In a parallel run, up to
    /// `parallelism` unit buffers are alive concurrently (one per
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

/// Runs the interaction checks over the whole chip by the scope table's
/// pair plan (see the module docs). `bound` must be `tech`'s binding —
/// the rule reach, cell size and device-forming pairs come from it —
/// and `scopes` must have been built for that reach over `definitions`,
/// which a library session's cell takes its candidate fills from (the
/// violation list and the statistics are byte-identical either way:
/// cross-cell reuse is counted on the session's shelves, not in
/// [`InteractStats`]). `nets` reads the net graph
/// ([`crate::netgen::NetParts::nets`]).
pub fn check_interactions(
    view: &ChipView,
    tech: &Technology,
    bound: &BoundTechnology,
    nets: GraphNets<'_>,
    scopes: &ScopeTable,
    definitions: &Definitions<'_>,
    options: &CheckOptions,
) -> (Vec<Violation>, InteractStats) {
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
    let filled = fill_rows(view, scopes, &plan, bound, workers, definitions);
    let bboxes = view.elements.bboxes();
    let loose_index = plan
        .loose
        .first()
        .map(|(_, scan)| scan.index(bboxes, bound.cell_size()));
    let units = stream_order(&plan);
    let results = run_ordered(units.len(), workers, |k| {
        let pairs: Vec<(usize, usize)> = match &units[k] {
            &Unit::Row(si, sj, row) => {
                let (a, b) = (scopes.ids(si), scopes.ids(sj));
                let local = filled[row].iter();
                local.map(|&(la, lb)| (a.get(la), b.get(lb))).collect()
            }
            Unit::Loose(scan, tile) => {
                let mut pairs = Vec::new();
                // invariant: loose scans exist only beside their index.
                let index = loose_index
                    .as_ref()
                    .expect("a loose scan has the loose index");
                let reach = bound.max_rule_range();
                let scan = &plan.loose[*scan].1;
                scan.pairs(bboxes, index, reach, tile.clone(), |i, j| {
                    pairs.push((i, j))
                });
                pairs
            }
        };
        evaluate_tile(&cx, &pairs)
    });
    let stamps = plan.interior.len() + plan.cross.len();
    let mut stats = InteractStats {
        cache_hits: (stamps - plan.rows.len()) as u64,
        cache_misses: plan.rows.len() as u64,
        ..InteractStats::default()
    };
    let (mut violations, edges) = merge_tiles(results, &mut stats);
    violations.extend(mask_cycle_violations(view, tech, options.metric, edges));
    stats.violations = violations.len() as u64;
    (violations, stats)
}

/// Runs the interaction checks **among a given element set** by the
/// direct scan — every element against one index over the set. Over
/// every id, with [`check_same_mask`] for the multi-patterning verdict
/// and no `clip`, it is the reference [`check_interactions`] is held to.
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
    // Same-mask edges are discarded here: bipartiteness is a *global*
    // property of the conflict graph — a halo-local edge subset cannot
    // decide odd-cycle membership, and a marker-in-halo filter would
    // retract/splice the wrong cycles. The session recomputes the
    // multi-patterning verdict with [`check_same_mask`].
    let chunks: Vec<&[(usize, usize)]> =
        pairs.chunks(pairs.len().div_ceil(workers).max(1)).collect();
    let results = run_ordered(chunks.len(), workers, |k| evaluate_tile(&cx, chunks[k]));
    let (mut violations, _edges) = merge_tiles(results, &mut stats);
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
// Phase 1: candidate rows and their streaming order.
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

/// A row's candidate fill: the pairs of its scan, as indices local to
/// its two scopes, ascending.
pub(crate) type Fill = Vec<(usize, usize)>;

impl Definition for Fill {
    #[cfg(debug_assertions)]
    fn assert_same(&self, fresh: &Fill) {
        assert_eq!(self, fresh, "a kept candidate fill differs from its row's");
    }
}

/// Fills every row of the plan across the worker pool. Each fill is a
/// pure function of its scopes' element boxes, so parallel fills return
/// exactly the serial values. In library mode each fill is looked up on
/// the session's fill shelf first ([`Definitions::fill`]): a hit
/// returns the bytes a local fill would have produced.
fn fill_rows(
    view: &ChipView,
    table: &ScopeTable,
    plan: &RowPlan<'_>,
    bound: &BoundTechnology,
    workers: usize,
    definitions: &Definitions<'_>,
) -> Vec<Arc<Fill>> {
    let bboxes = view.elements.bboxes();
    let reach = bound.max_rule_range();
    run_ordered(plan.rows.len(), workers, |row| {
        let ((si, sj), scan) = plan.rows[row];
        definitions.fill(table.row_key(si, sj), reach, || {
            let (i0, j0) = (
                table.scopes()[si].run().start,
                table.scopes()[sj].run().start,
            );
            let index = scan.index(bboxes, bound.cell_size());
            let mut local = Vec::new();
            let tile = 0..scan.ids.len();
            scan.pairs(bboxes, &index, reach, tile, |i, j| {
                local.push((i - i0, j - j0))
            });
            local
        })
    })
}

/// Folds per-unit results, in unit order, into one violation list, one
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

/// Evaluates one unit's pair buffer serially, returning its violations
/// and unit-local counters (`candidate_pairs` and the buffer's width;
/// the caller folds units together with [`InteractStats::absorb`],
/// which sums counts and maxes the peak).
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

// ---------------------------------------------------------------------
// Phase 2: pair evaluation.
// ---------------------------------------------------------------------

/// Read-only state shared by every evaluation worker.
struct EvalCx<'a> {
    view: &'a ChipView,
    tech: &'a Technology,
    /// The nets pairs are told apart by, read off the net graph.
    nets: GraphNets<'a>,
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
        nets: GraphNets<'a>,
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
    let (view, tech, nets) = (cx.view, cx.tech, &cx.nets);
    let a = view.elements.get(i);
    let b = view.elements.get(j);

    // Same-mask conflict edges are purely geometric, so they are
    // collected *before* any electrical pruning: sharing a net or a
    // device does not put two features on different masks.
    if let Some(edge) = mask_edge(tech, cx.metric, a, b) {
        edges.push(edge);
    }

    if a.device().is_some() && a.device() == b.device() {
        return; // internal to one device: stage 3's territory
    }

    let net_a = nets.element_net(i);
    let net_b = nets.element_net(j);
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
            let other_net = nets.element_net(other);
            let related = match other_net {
                Some(n) => nets.device_on(d, n),
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
        // Orient the pair canonically before naming layers: the plan's
        // units and the direct scan over the edit session's halo
        // enumerate pairs in different orders, and the rendered
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
        // Lexicographic, not enumeration order: the plan hands pairs
        // over in scope-visit order, the direct scan in element-id
        // order (over every id or over the edit session's halo) — the
        // rendered context must not care which path produced it (an
        // `AddCall` edit appends a call *after* top-level elements,
        // where id order and scope order disagree).
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
    // Canonical edge order regardless of which scan collected the
    // edges; the dedup is belt and braces — the plan enumerates every
    // pair exactly once.
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

/// The conflict-graph edge between elements `a` and `b`, if they lie on
/// one layer with a `same_mask` rule, closer than its distance but not
/// touching (touching features print as one feature and never
/// conflict). Called per pair, almost always to answer no at once, so
/// it must inline into the pair loop; `#[inline]` does: `#[inline(always)]`
/// built identical x86-64 code, and `mega_chip(100_000)`'s interaction
/// stage at one worker timed alike under both (best 12.9 vs 13.0 ms).
#[inline]
fn mask_edge(
    tech: &Technology,
    metric: SizingMode,
    a: crate::binding::ElementRef<'_>,
    b: crate::binding::ElementRef<'_>,
) -> Option<MaskEdge> {
    if a.layer() != b.layer() {
        return None;
    }
    let threshold = tech.rules().same_mask(a.layer())?;
    let (gap, _) = batch::closest_approach(a.rects(), b.rects(), metric)?;
    (gap > 0 && gap < threshold).then_some(MaskEdge {
        a: a.id(),
        b: b.id(),
        gap,
    })
}

/// Runs the same-mask conflict-graph analysis standalone, over the
/// whole chip: the direct scan over the elements on `same_mask` layers
/// collects the conflict edges and hands them to the same odd-cycle
/// analysis the interaction stage runs — so the violations are
/// byte-identical to the ones [`check_interactions`] appends under the
/// same `metric`. Returns nothing when the technology declares no
/// `same_mask` rules.
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
    let (bboxes, layers) = (view.elements.bboxes(), view.elements.layers());
    let masked: Vec<usize> = (0..layers.len())
        .filter(|&i| tech.rules().same_mask(layers[i]).is_some())
        .collect();
    let scan = Scan::direct(ScopeIds::List(&masked));
    let index = scan.index(bboxes, bound.cell_size());
    let mut edges = Vec::new();
    let (reach, tile) = (bound.max_rule_range(), 0..masked.len());
    scan.pairs(bboxes, &index, reach, tile, |i, j| {
        edges.extend(mask_edge(
            tech,
            metric,
            view.elements.get(i),
            view.elements.get(j),
        ));
    });
    mask_cycle_violations(view, tech, metric, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use crate::connect::check_connections;
    use crate::netgen::NetParts;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn run_with(cif: &str, options: CheckOptions) -> (Vec<Violation>, InteractStats) {
        let tech = nmos_technology();
        let (view, parts, scopes, defs) = build(cif, &tech);
        let bound = BoundTechnology::new(&tech);
        check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options)
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
        let (mut v, stats) =
            check_interactions_among(view, tech, &bound, nets, options, &all, None);
        v.extend(check_same_mask(view, tech, &bound, options.metric));
        (v, stats)
    }

    /// Sorted debug renderings: "the same violations" as byte equality.
    fn canonical(violations: &[Violation]) -> Vec<String> {
        let mut rendered: Vec<String> = violations.iter().map(|x| format!("{x:?}")).collect();
        rendered.sort();
        rendered
    }

    /// The stage and the reference over one chip: asserts they find the
    /// same violations and candidate pairs, and returns the stage's run.
    fn run_against_reference(cif: &str) -> (Vec<Violation>, InteractStats) {
        let tech = nmos_technology();
        let (view, parts, scopes, defs) = build(cif, &tech);
        let bound = BoundTechnology::new(&tech);
        let options = CheckOptions::default();
        let (v, stats) =
            check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
        let (direct, direct_stats) = reference(&view, &tech, parts.nets(), &options);
        assert_eq!(canonical(&v), canonical(&direct));
        assert_eq!(stats.candidate_pairs, direct_stats.candidate_pairs);
        (v, stats)
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
        let (conn, _) = check_connections(&view, tech, &scopes, 1);
        let labels: Vec<_> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();
        let (mut parts, _) = NetParts::build(&mut view, tech, &conn.merges, &labels, &scopes, 1);
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
            let (v, _) =
                check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
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
        let (v, _) =
            check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
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
            let (v, _) =
                check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
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
        let (v, _) =
            check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
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
            let (v, stats) =
                check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
            let (direct, direct_stats) = reference(&view, &tech, parts.nets(), &options);
            assert_eq!(canonical(&v), canonical(&direct), "{names:?}");
            assert_eq!(stats.candidate_pairs, direct_stats.candidate_pairs);
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
        let (direct, _) = reference(&view, &tech, parts.nets(), &CheckOptions::default());
        for workers in [1usize, 2, 3, 7] {
            let options = CheckOptions {
                parallelism: workers,
                ..CheckOptions::default()
            };
            let (v, stats) =
                check_interactions(&view, &tech, &bound, parts.nets(), &scopes, &defs, &options);
            assert_eq!(stats.candidate_pairs, total, "workers={workers}");
            assert_eq!(stats.peak_candidate_buffer, widest, "workers={workers}");
            assert_eq!(v, direct, "workers={workers}: the direct scan, tiled");
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
}
