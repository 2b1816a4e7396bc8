//! The incremental re-check subsystem: edit sessions, dirty-halo
//! scoping, and report patching.
//!
//! The paper pitches layout verification as part of the *design loop* —
//! designers re-check after every edit, not once at tapeout. A
//! [`CheckSession`] makes that loop cheap: it owns the [`Layout`] and a
//! cached, canonically ordered [`CheckReport`], accepts a typed
//! [`EditSet`] (add / remove / move top-level items, replace a cell
//! definition), and re-checks only the disturbed neighbourhood — yet the
//! patched report is **byte-identical** to a from-scratch run
//! ([`canonical_check`]) on the edited layout.
//!
//! # How the patch stays exact
//!
//! Per edit the session computes a **dirty core**: the union of the
//! old and new footprints of every structurally changed element (edited
//! top-level items; every instance of a replaced definition, found
//! through the call-graph closure). From there:
//!
//! * **cheap global stages re-run in full** — layer binding, element
//!   (per-definition width) checks, primitive-symbol checks, ERC and
//!   net-list comparison. Their violations replace the cached ones
//!   wholesale; they are a small fraction of a full run.
//! * **the chip view is patched** — untouched top-level items keep
//!   their instantiated element/device runs (ids and device indices are
//!   renumbered in place); only dirty items re-instantiate. Auto net
//!   keys are stable functions of element identity (path, layer, bbox),
//!   so reuse does not rename distant nets.
//! * **connections are patched** — a connection verdict is a pure pair
//!   function, and its anchor (the bbox overlap) touches both elements,
//!   so pairs among the *seed set* (dirty elements plus everything
//!   whose bbox touches the dirty core) re-check while every other
//!   pair's cached verdict and merge survive.
//! * **the net graph is patched, the net list spliced** — net keys
//!   are interned once into stable integer nodes
//!   ([`crate::netgen::NetParts`]); the edit swaps the dirty rows,
//!   noting every node at which the graph changed, and
//!   [`crate::netgen::NetParts::splice`] rebuilds only the nets those
//!   nodes belong to — the same canonicalisation
//!   ([`diic_netlist::canonical_nets`]) a full build runs, over the
//!   affected components alone. Every other net's rows, and every
//!   surviving device's that sits on kept nets only, are copied from
//!   the cached net list in runs (a net list is flat columns over one
//!   text buffer), ids rewritten as they land. Canonicalisation follows
//!   the nets the edit touched, not the chip; in
//!   debug builds the result is asserted equal to the from-scratch
//!   [`crate::netgen::NetParts::assemble`].
//! * **net-wide effects are caught by a name diff** — connectivity is
//!   global (one added strap merges two nets chip-wide), so after the
//!   splice every surviving element whose net's canonical name
//!   changed, and every device whose terminal-net names changed, adds
//!   its footprint to the dirty core (only elements and terminals on a
//!   freshly built net can have — the copied nets kept their names). A
//!   merge or split always renames at least one side (the canonical
//!   name is the minimum alias), so every pair whose
//!   same-net/relatedness verdict could have flipped now has a dirty
//!   endpoint.
//! * **interactions re-run inside the halo only** — the dirty core is
//!   inflated by the technology's rule reach (the session's
//!   [`BoundTechnology`], built once at open), the elements within one
//!   more reach of it come out of the session's persistent index, and
//!   [`crate::interact::check_interactions_among`] searches that set.
//!   Spacing markers
//!   are tight gap boxes (within the pair's gap of *both* elements), so
//!   cached violations whose marker misses the halo are provably
//!   unchanged and are kept; everything anchored inside the halo is
//!   retracted and re-found fresh. The patched list is re-sorted with
//!   [`crate::report::canonical_sort`], which is the order
//!   [`canonical_check`] reports in — hence byte equality.
//!
//! What is *not* invalidated incrementally: ERC and the net-list
//! comparison re-run over the whole (spliced) net list every edit, and
//! per-definition checks re-run in full. `tests/incremental.rs` holds
//! the differential oracle: random edit sequences where the session
//! report must equal a from-scratch check at every step, serial and
//! parallel.
//!
//! # Example
//!
//! ```
//! use diic_core::incremental::{CheckSession, EditSet};
//! use diic_core::CheckOptions;
//! use diic_geom::Rect;
//! use diic_tech::nmos::nmos_technology;
//!
//! let tech = nmos_technology();
//! let layout = diic_cif::parse("L NM; B 2000 750 1000 375; E").unwrap();
//! let options = CheckOptions { erc: false, ..CheckOptions::default() };
//! let mut session = CheckSession::new(layout, &tech, &options);
//! assert!(session.report().violations.is_empty());
//!
//! // Drop a too-close metal stub next to the wire and re-check.
//! let mut edits = EditSet::new();
//! edits.add_box("NM", Rect::new(0, 1250, 2000, 2000), None);
//! session.apply(&edits).unwrap();
//! assert_eq!(session.report().violations.len(), 1);
//! assert_eq!(
//!     session.report().violations,
//!     session.full_check().violations
//! );
//! ```

use crate::binding::{
    assign_auto_net_keys, instantiate, instantiate_item, ChipView, Istr, LayerBinding,
};
use crate::checker::{check, CheckOptions, CheckReport};
use crate::connect::{check_connections, check_connections_among};
use crate::element_checks::check_elements;
use crate::engine::{composition_violations, DiagnosticSink, Sink};
use crate::interact::{check_interactions, check_interactions_among, check_same_mask};
use crate::library::BoundTechnology;
use crate::netgen::{
    element_is_netted, BindIndex, DeviceParts, NetParts, NetgenResult, TerminalNets,
};
use crate::primitive_checks::check_primitive_symbols;
use crate::report::{canonical_sort, merge_canonical};
use crate::scope::ScopeTable;
use crate::violations::{CheckStage, Violation};
use diic_cif::{Call, Element, Item, Layout, NetLabel, Shape, SymbolId};
use diic_geom::{Rect, Region, Transform, Vector};
use diic_tech::{LayerId, Technology};
use std::collections::HashSet;

/// One edit against the top level of a layout or its symbol table.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Append a primitive element at top level. The layer is named by
    /// its CIF name (interned on application; unknown names are
    /// reported by layer binding exactly as a full check would).
    AddElement {
        /// CIF layer name (e.g. `NM`).
        cif_layer: String,
        /// The geometry.
        shape: Shape,
        /// Optional declared net (`9N`).
        net: Option<String>,
    },
    /// Instantiate an existing symbol at top level (a new placement of
    /// a cell the layout already defines).
    AddCall {
        /// The symbol to instantiate.
        symbol: SymbolId,
        /// The placement transform.
        transform: Transform,
        /// Instance name (the CIF parser auto-names parsed calls
        /// `i<n>`; edit-added calls pick their own, which becomes the
        /// leading component of the instance's context paths).
        name: String,
    },
    /// Remove the top-level item at this index (element or call; later
    /// items shift down, exactly as in the layout itself).
    RemoveItem {
        /// Index into the current `Layout::top_items`.
        index: usize,
    },
    /// Translate the top-level item at this index (an element's shape,
    /// or a call's placement transform).
    MoveItem {
        /// Index into the current `Layout::top_items`.
        index: usize,
        /// Translation vector.
        by: Vector,
    },
    /// Replace a symbol definition's body items. Every instance of the
    /// symbol (and of symbols that call it, transitively) is
    /// invalidated.
    ReplaceSymbol {
        /// The definition to replace.
        symbol: SymbolId,
        /// The new body.
        items: Vec<Item>,
    },
}

/// An ordered batch of edits, applied sequentially (each edit sees the
/// indices left by the previous one).
#[derive(Debug, Clone, Default)]
pub struct EditSet {
    /// The edits, in application order.
    pub edits: Vec<Edit>,
}

impl EditSet {
    /// An empty edit set.
    pub fn new() -> Self {
        EditSet::default()
    }

    /// True if the set contains no edits.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Convenience: append a box element.
    pub fn add_box(&mut self, cif_layer: &str, rect: Rect, net: Option<&str>) -> &mut Self {
        self.edits.push(Edit::AddElement {
            cif_layer: cif_layer.to_string(),
            shape: Shape::Box(rect),
            net: net.map(str::to_string),
        });
        self
    }

    /// Convenience: append an instance of an existing symbol.
    pub fn add_call(&mut self, symbol: SymbolId, transform: Transform, name: &str) -> &mut Self {
        self.edits.push(Edit::AddCall {
            symbol,
            transform,
            name: name.to_string(),
        });
        self
    }

    /// Convenience: remove a top-level item.
    pub fn remove(&mut self, index: usize) -> &mut Self {
        self.edits.push(Edit::RemoveItem { index });
        self
    }

    /// Convenience: move a top-level item.
    pub fn translate(&mut self, index: usize, dx: i64, dy: i64) -> &mut Self {
        self.edits.push(Edit::MoveItem {
            index,
            by: Vector::new(dx, dy),
        });
        self
    }

    /// Convenience: replace a symbol's body.
    pub fn replace_symbol(&mut self, symbol: SymbolId, items: Vec<Item>) -> &mut Self {
        self.edits.push(Edit::ReplaceSymbol { symbol, items });
        self
    }
}

/// Why an [`EditSet`] was rejected (the session is left untouched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// An item index was out of bounds at its point in the sequence.
    ItemOutOfBounds {
        /// The offending index.
        index: usize,
        /// The top-item count at that point.
        len: usize,
    },
    /// A replaced symbol id does not exist.
    UnknownSymbol(SymbolId),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::ItemOutOfBounds { index, len } => {
                write!(f, "top-level item index {index} out of bounds (len {len})")
            }
            EditError::UnknownSymbol(s) => write!(f, "unknown symbol id {}", s.0),
        }
    }
}

impl std::error::Error for EditError {}

/// What one [`CheckSession::apply`] did — the observability handle the
/// benchmark's `edit-session` workload reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct EditStats {
    /// Top-level items re-instantiated (dirty).
    pub dirty_items: usize,
    /// Elements belonging to dirty items (structurally dirty).
    pub dirty_elements: usize,
    /// Elements whose net changed identity in the name diff.
    pub net_dirty_elements: usize,
    /// Seed elements the scoped connection pass examined.
    pub seed_elements: usize,
    /// Candidate pairs the scoped interaction pass evaluated.
    pub rechecked_pairs: u64,
    /// Cached violations retracted from the report.
    pub retracted: usize,
    /// Fresh violations spliced into the report (patched stages only).
    pub spliced: usize,
    /// True when the edit dirtied so much of the chip that the session
    /// fell back to a full rebuild (still byte-identical — just not
    /// faster than a from-scratch check).
    pub full_rebuild: bool,
    /// Why the session fell back to a full rebuild; `None` when it
    /// patched.
    pub rebuild_reason: Option<RebuildReason>,
    /// True when the edit was *net-neutral* — the patched net graph
    /// proved bit-identical to the cached one (same nodes, edges, and
    /// bindings), so the cached net list was reused without
    /// reassembly. Moving geometry with declared nets, or whole
    /// instances (auto keys are instance-local), typically qualifies.
    pub netlist_reused: bool,
    /// Nets the net-list splice built fresh (the components a changed
    /// graph row could reach); every other net was copied across from
    /// the cached list. Zero on a reused list and on a full rebuild.
    pub nets_respliced: usize,
    /// Live graph nodes in those components.
    pub nodes_respliced: usize,
    /// True when this apply compacted the session's persistent spatial
    /// index ([`diic_geom::GridIndex::compact`]) — tombstones from
    /// edit churn had come to outnumber the live elements.
    pub index_compacted: bool,
    /// Wall clock of the view patch (apply + instantiate dirty items).
    pub t_view: std::time::Duration,
    /// Wall clock of the scoped connection pass.
    pub t_conn: std::time::Duration,
    /// Wall clock of the net-graph patch + net-list splice + name diff.
    pub t_net: std::time::Duration,
    /// Wall clock of the scoped interaction pass.
    pub t_interact: std::time::Duration,
    /// Wall clock of the full-re-run global stages (binding, elements,
    /// primitives, composition).
    pub t_global: std::time::Duration,
    /// Wall clock of the report retract/splice/sort.
    pub t_patch: std::time::Duration,
    /// Wall clock of the commit: installing the new artefacts, dropping
    /// the ones they replace, and the occasional index compaction.
    /// With it the `t_*` fields add up to `apply`'s wall clock (on a
    /// full rebuild all of it is in `t_view`).
    pub t_commit: std::time::Duration,
}

/// Why an edit was not patched but re-checked from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// The edit dirtied at least 30 % of the chip's elements, where
    /// patching costs more than recomputing.
    DirtyFraction {
        /// Elements of the removed and re-instantiated items.
        dirty: usize,
        /// Elements of the chip before the edit.
        total: usize,
    },
}

/// Per-item instantiation run lengths (the unit of view reuse).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ItemRun {
    elems: usize,
    devices: usize,
}

/// A slot in the edited top-item list: where it came from and whether
/// it must re-instantiate.
#[derive(Debug, Clone, Copy)]
struct Slot {
    origin: Option<usize>,
    dirty: bool,
}

/// An element's entry in the session's persistent spatial index: a
/// session-unique tag (the index payload) and the grid handle for
/// removal.
#[derive(Debug, Clone, Copy)]
struct ElemTag {
    tag: u32,
    handle: u32,
}

/// An edit session: a layout under interactive editing with its cached,
/// canonically ordered check report and the artefacts needed to re-check
/// incrementally. See the module docs for the invalidation model.
#[derive(Debug)]
pub struct CheckSession {
    layout: Layout,
    tech: Technology,
    options: CheckOptions,
    /// The technology's rule reach (the halo width), index cell size
    /// and device-forming pairs, derived once at open.
    bound: BoundTechnology,
    binding: LayerBinding,
    labels: Vec<(NetLabel, Option<LayerId>)>,
    view: ChipView,
    runs: Vec<ItemRun>,
    merges: Vec<(usize, usize)>,
    parts: NetParts,
    element_net: Vec<Option<diic_netlist::NetId>>,
    device_terminal_nets: TerminalNets,
    /// Persistent spatial index over element bboxes (the
    /// [`diic_geom::GridIndex`] incremental-update path): dirty-region
    /// queries cost the neighbourhood, not a whole-chip scan.
    elem_index: diic_geom::GridIndex<u32>,
    elem_tags: Vec<ElemTag>,
    next_tag: u32,
    /// Tag → current element id. Stale (removed) tags keep garbage
    /// values; only live tags — which the index queries return — are
    /// ever read.
    tag_owner: Vec<usize>,
    report: CheckReport,
}

impl CheckSession {
    /// Opens a session: runs a full check and caches every artefact.
    /// The session owns the layout; edits go through
    /// [`CheckSession::apply`].
    pub fn new(layout: Layout, tech: &Technology, options: &CheckOptions) -> CheckSession {
        let tech = tech.clone();
        let options = options.clone();
        let bound = BoundTechnology::new(&tech);

        let (binding, bind_violations) = LayerBinding::bind(&layout, &tech);
        // The engine's front end, so opening a session stamps templates
        // and parallelises like an engine run; the per-item run lengths
        // it records are the unit the view patching reuses.
        let (mut view, run_lens) = instantiate(&layout, &tech, &binding, Default::default());
        let runs: Vec<ItemRun> = run_lens
            .into_iter()
            .map(|(elems, devices)| ItemRun { elems, devices })
            .collect();
        let mut instantiate_violations = std::mem::take(&mut view.violations);
        // The patch path cannot regenerate *clean* items' instantiation
        // violations (it never re-walks them), which is sound today only
        // because the walk produces none. If `ChipView::violations` ever
        // gains a producer, teach the session to cache them per item run
        // before relying on report patching.
        debug_assert!(
            instantiate_violations.is_empty(),
            "instantiate-time violations are not cached per item run yet; \
             CheckSession::apply would silently drop them for clean items"
        );

        let mut elem_index = diic_geom::GridIndex::new(bound.cell_size());
        let mut elem_tags = Vec::with_capacity(view.elements.len());
        let mut next_tag = 0u32;
        for &bbox in view.elements.bboxes() {
            let tag = next_tag;
            next_tag += 1;
            let handle = elem_index.insert(bbox, tag);
            elem_tags.push(ElemTag { tag, handle });
        }

        // The open-time stages emit through the Sink trait like any
        // engine run; a session just buffers (it must own its canonical
        // report — patching retracts and splices against it).
        let mut sink = DiagnosticSink::new();
        sink.absorb(bind_violations);
        sink.append(&mut instantiate_violations);
        sink.absorb(check_elements(&layout, &tech, &binding));
        let prim = check_primitive_symbols(&layout, &tech, &binding);
        let waived_devices = prim.waived;
        sink.absorb(prim.violations);

        // The session opens with the same scope-table connection pass
        // and netgen bind phase an engine run uses (both byte-identical
        // to serial); the patch paths below stay serial and read no
        // scopes — they are edit-sized. The table lives for this open
        // (or rebuild) only.
        let scopes = ScopeTable::build(
            layout.top_items(),
            runs.iter().map(|run| run.elems),
            view.elements.bboxes(),
            bound.max_rule_range(),
        );
        let (conn, scope_stats) =
            check_connections(&view, &tech, &scopes, options.effective_parallelism());
        sink.absorb(conn.violations);

        let labels: Vec<(NetLabel, Option<LayerId>)> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();
        let (mut parts, bind_stats) = NetParts::build(
            &mut view,
            &tech,
            &conn.merges,
            &labels,
            &scopes,
            options.effective_parallelism(),
        );
        let scope_stats = scope_stats.with_binding_of(bind_stats);
        let mut nets = parts.assemble(&view);
        sink.append(&mut nets.violations);

        let (ivs, stats) = check_interactions(&view, &tech, &bound, &nets, &scopes, &options, None);
        sink.absorb(ivs);

        sink.absorb(composition_violations(&nets.netlist, &tech, &options));
        let mut violations = sink.into_violations();
        canonical_sort(&mut violations);

        let NetgenResult {
            netlist,
            element_net,
            device_terminal_nets,
            ..
        } = nets;
        let report = CheckReport {
            violations,
            netlist,
            interact_stats: stats,
            stage_profile: Vec::new(),
            waived_devices,
            element_count: view.elements.len(),
            device_count: view.devices.len(),
            instantiate_stats: view.instantiate_stats,
            scope_stats,
        };

        CheckSession {
            layout,
            tech,
            options,
            bound,
            binding,
            labels,
            view,
            runs,
            merges: conn.merges,
            parts,
            element_net,
            device_terminal_nets,
            elem_index,
            elem_tags,
            next_tag,
            tag_owner: (0..next_tag as usize).collect(),
            report,
        }
    }

    /// The layout in its current (edited) state.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The cached report for the current layout, in canonical order —
    /// violations, net list and counts are byte-identical to
    /// [`CheckSession::full_check`]. `interact_stats` describes the
    /// *incremental* work of the last apply, not a full run.
    pub fn report(&self) -> &CheckReport {
        &self.report
    }

    /// A from-scratch check of the current layout, canonically sorted —
    /// the oracle [`CheckSession::report`] must match.
    pub fn full_check(&self) -> CheckReport {
        canonical_check(&self.layout, &self.tech, &self.options)
    }

    /// Applies an edit batch and patches the cached report. On error
    /// the session (including the layout) is untouched.
    pub fn apply(&mut self, edits: &EditSet) -> Result<EditStats, EditError> {
        let (mut stats, commit_start) = self.apply_phases(edits)?;
        // Read the clock out here so the commit also pays for dropping
        // what the phases left behind (the old view's columns, the
        // retired nets).
        if let Some(t0) = commit_start {
            stats.t_commit = t0.elapsed();
        }
        Ok(stats)
    }

    /// [`CheckSession::apply`]'s phases A–M; returns when the commit
    /// phase started (`None` on the full-rebuild fallback).
    fn apply_phases(
        &mut self,
        edits: &EditSet,
    ) -> Result<(EditStats, Option<std::time::Instant>), EditError> {
        let t_start = std::time::Instant::now();
        // -- Phase A: validate and simulate slot bookkeeping. ---------
        let n_old = self.layout.top_items().len();
        let mut slots: Vec<Slot> = (0..n_old)
            .map(|i| Slot {
                origin: Some(i),
                dirty: false,
            })
            .collect();
        let mut removed_origins: Vec<usize> = Vec::new();
        let mut replaced: Vec<SymbolId> = Vec::new();
        for edit in &edits.edits {
            match edit {
                Edit::AddElement { .. } => slots.push(Slot {
                    origin: None,
                    dirty: true,
                }),
                Edit::AddCall { symbol, .. } => {
                    if symbol.0 as usize >= self.layout.symbols().len() {
                        return Err(EditError::UnknownSymbol(*symbol));
                    }
                    slots.push(Slot {
                        origin: None,
                        dirty: true,
                    });
                }
                Edit::RemoveItem { index } => {
                    if *index >= slots.len() {
                        return Err(EditError::ItemOutOfBounds {
                            index: *index,
                            len: slots.len(),
                        });
                    }
                    if let Some(o) = slots.remove(*index).origin {
                        removed_origins.push(o);
                    }
                }
                Edit::MoveItem { index, .. } => {
                    if *index >= slots.len() {
                        return Err(EditError::ItemOutOfBounds {
                            index: *index,
                            len: slots.len(),
                        });
                    }
                    slots[*index].dirty = true;
                }
                Edit::ReplaceSymbol { symbol, .. } => {
                    if symbol.0 as usize >= self.layout.symbols().len() {
                        return Err(EditError::UnknownSymbol(*symbol));
                    }
                    replaced.push(*symbol);
                }
            }
        }

        // Dirty-symbol closure: a replaced definition invalidates every
        // symbol that (transitively) calls it. Ancestry edges come from
        // *other* symbols' bodies, which no edit touches, so the closure
        // is the same before and after application.
        let dirty_symbols = dirty_symbol_closure(&self.layout, &replaced);
        for slot in &mut slots {
            let Some(o) = slot.origin else { continue };
            if let Item::Call(c) = &self.layout.top_items()[o] {
                if dirty_symbols.contains(&c.target) {
                    slot.dirty = true;
                }
            }
        }

        // Degradation guard: when the edit dirties a large fraction of
        // the chip (a definition instantiated everywhere, a shuffled
        // floorplan), patching costs more than recomputing — the halo
        // covers everything and every cache misses. Rebuild instead;
        // the result is the same canonical report either way.
        let total_old = self.view.elements.len();
        let dirty_old: usize = removed_origins
            .iter()
            .copied()
            .chain(slots.iter().filter(|s| s.dirty).filter_map(|s| s.origin))
            .map(|o| self.runs[o].elems)
            .sum();
        if total_old > 0 && dirty_old * 10 >= total_old * 3 {
            let dirty_items = slots.iter().filter(|s| s.dirty).count();
            apply_layout_edits(&mut self.layout, edits);
            let layout = std::mem::take(&mut self.layout);
            *self = CheckSession::new(layout, &self.tech, &self.options);
            let stats = EditStats {
                dirty_items,
                dirty_elements: dirty_old,
                full_rebuild: true,
                rebuild_reason: Some(RebuildReason::DirtyFraction {
                    dirty: dirty_old,
                    total: total_old,
                }),
                t_view: t_start.elapsed(),
                ..EditStats::default()
            };
            return Ok((stats, None));
        }

        // -- Phase B: old footprints (from the cached view's runs), and
        // eviction of the stale entries from the persistent element
        // index (survivor entries stay put — their bboxes are
        // unchanged).
        let mut stats = EditStats::default();
        // Removed items never reach the new view's dirty loop below, but
        // their evicted footprints drive retraction and halo re-checks
        // all the same — count them as dirty work.
        stats.dirty_items += removed_origins.len();
        stats.dirty_elements += removed_origins
            .iter()
            .map(|&o| self.runs[o].elems)
            .sum::<usize>();
        let old_offsets = run_offsets(&self.runs);
        let mut foot: Vec<Rect> = Vec::new();
        for o in removed_origins
            .iter()
            .copied()
            .chain(slots.iter().filter(|s| s.dirty).filter_map(|s| s.origin))
        {
            let (e0, _) = old_offsets[o];
            let run_bboxes = &self.view.elements.bboxes()[e0..e0 + self.runs[o].elems];
            for (&bbox, t) in run_bboxes
                .iter()
                .zip(&self.elem_tags[e0..e0 + self.runs[o].elems])
            {
                foot.push(bbox);
                self.elem_index.remove(t.handle);
            }
        }

        // -- Phase C: apply the edits to the layout. ------------------
        apply_layout_edits(&mut self.layout, edits);
        debug_assert_eq!(slots.len(), self.layout.top_items().len());

        // -- Phase D: re-bind layers (the name set may have grown). ---
        let (binding, bind_violations) = LayerBinding::bind(&self.layout, &self.tech);

        // -- Phase E: patch the view, reusing clean runs. -------------
        let mut old_view = std::mem::take(&mut self.view);
        let old_runs = std::mem::take(&mut self.runs);
        let old_tags = std::mem::take(&mut self.elem_tags);
        let old_element_count = old_view.elements.len();
        // The interner survives the patch: it is append-only, so the
        // reused runs' `Istr` handles stay valid and fresh items intern
        // into the same table (stale strings simply stop being
        // referenced — compaction is not worth a whole-view rewrite per
        // edit, and the rebuild fallback resets the table anyway).
        let strings = std::mem::take(&mut old_view.strings);
        // Survivor element runs copy across as whole column runs (ids
        // renumber implicitly to their new positions); devices still
        // move one record at a time for the back-reference rewrite.
        let old_cols = old_view.elements;
        let mut old_devs: Vec<Option<crate::binding::DeviceInstance>> =
            old_view.devices.into_iter().map(Some).collect();

        let mut view = ChipView {
            strings,
            ..ChipView::default()
        };
        let mut tags: Vec<ElemTag> = Vec::with_capacity(old_element_count);
        let mut runs: Vec<ItemRun> = Vec::with_capacity(slots.len());
        let mut old_to_new: Vec<Option<usize>> = vec![None; old_element_count];
        // Device alignment for the terminal-net diff: new device id →
        // old device id (survivor runs only).
        let mut dev_old_of_new: Vec<Option<usize>> = Vec::new();
        for (k, slot) in slots.iter().enumerate() {
            let (e0, d0) = (view.elements.len(), view.devices.len());
            match (slot.dirty, slot.origin) {
                (false, Some(o)) => {
                    let (oe, od) = old_offsets[o];
                    let run = old_runs[o];
                    view.elements.append_run_from(
                        &old_cols,
                        oe..oe + run.elems,
                        d0 as i64 - od as i64,
                    );
                    for t in 0..run.elems {
                        old_to_new[oe + t] = Some(e0 + t);
                        tags.push(old_tags[oe + t]);
                    }
                    for t in 0..run.devices {
                        // invariant: each old device index belongs to
                        // exactly one reused run, so it is taken once.
                        let mut dv = old_devs[od + t].take().expect("runs are disjoint");
                        for id in dv.element_ids.iter_mut() {
                            *id = *id - oe + e0;
                        }
                        dev_old_of_new.push(Some(od + t));
                        view.devices.push(dv);
                    }
                    runs.push(run);
                }
                _ => {
                    stats.dirty_items += 1;
                    instantiate_item(
                        &self.layout,
                        &self.tech,
                        &binding,
                        &self.layout.top_items()[k],
                        &mut view,
                    );
                    for &bbox in &view.elements.bboxes()[e0..] {
                        let tag = self.next_tag;
                        self.next_tag += 1;
                        let handle = self.elem_index.insert(bbox, tag);
                        tags.push(ElemTag { tag, handle });
                    }
                    dev_old_of_new.extend(std::iter::repeat_n(None, view.devices.len() - d0));
                    runs.push(ItemRun {
                        elems: view.elements.len() - e0,
                        devices: view.devices.len() - d0,
                    });
                }
            }
        }
        let mut fresh_instantiate_violations = std::mem::take(&mut view.violations);

        // New footprints + dirty element flags.
        let n_new = view.elements.len();
        let mut dirty_elem = vec![false; n_new];
        let new_offsets = run_offsets(&runs);
        for (slot, (&(e0, _), run)) in slots.iter().zip(new_offsets.iter().zip(&runs)) {
            if slot.dirty {
                let run_bboxes = &view.elements.bboxes()[e0..e0 + run.elems];
                for (&bbox, dirty) in run_bboxes.iter().zip(&mut dirty_elem[e0..e0 + run.elems]) {
                    foot.push(bbox);
                    *dirty = true;
                    stats.dirty_elements += 1;
                }
            }
        }
        let d_conn = Region::from_rects(foot.iter().copied());
        let cell = self.bound.cell_size();
        let d_conn_grid = region_grid(&d_conn, cell);
        // Refresh the tag → element-id map (stale tags are never read:
        // the index only returns live ones).
        self.tag_owner.resize(self.next_tag as usize, usize::MAX);
        for (id, t) in tags.iter().enumerate() {
            self.tag_owner[t.tag as usize] = id;
        }
        let tag_owner = &self.tag_owner;
        // Seed set: dirty elements plus everything touching the dirty
        // footprints — the elements whose pair verdicts, duplicate-key
        // ordinals, or bindings could have changed. Queried from the
        // persistent index: cost follows the edit, not the chip.
        let mut seed = dirty_elem.clone();
        for r in d_conn.rects() {
            for &tag in self.elem_index.query(r) {
                seed[tag_owner[tag as usize]] = true;
            }
        }
        // Auto net keys: re-derive only identity groups with a changed
        // member (the seed mask covers removed duplicates — they share
        // their bbox with their survivors by definition).
        let rekeyed = assign_auto_net_keys(&mut view.elements, &mut view.strings, &seed);
        stats.t_view = t_start.elapsed();

        // -- Phase F: patch connections. ------------------------------
        let t0 = std::time::Instant::now();
        let seeds: Vec<usize> = (0..n_new).filter(|&i| seed[i]).collect();
        stats.seed_elements = seeds.len();
        let mut scoped_conn = check_connections_among(&view, &self.tech, &seeds);
        scoped_conn.merges.sort_unstable();
        // The cached merges among seed elements, which the scoped
        // pass's verdicts replace (kept for the net graph's edge diff).
        let mut old_seed_merges: Vec<(usize, usize)> = Vec::new();
        let mut merges: Vec<(usize, usize)> = self
            .merges
            .iter()
            .filter_map(|&(i, j)| {
                let (Some(ni), Some(nj)) = (old_to_new[i], old_to_new[j]) else {
                    return None;
                };
                // Pairs fully inside the seed set are the scoped pass's
                // verdicts; everything else is provably unchanged.
                if seed[ni] && seed[nj] {
                    old_seed_merges.push((ni, nj));
                    return None;
                }
                Some((ni, nj))
            })
            .collect();
        merges.extend_from_slice(&scoped_conn.merges);
        merges.sort_unstable();
        stats.t_conn = t0.elapsed();

        // -- Phase G: patch the net graph and splice the net list. ----
        // `touched` collects the nodes at which the graph changes — the
        // contract of `NetParts::splice`.
        let t0 = std::time::Instant::now();
        let mut touched: Vec<u32> = Vec::new();
        let old_element_node = std::mem::take(&mut self.parts.element_node);
        let mut element_node: Vec<Option<u32>> = vec![None; n_new];
        for (old, new) in old_to_new.iter().enumerate() {
            match new {
                Some(new) => element_node[*new] = old_element_node[old],
                None => touched.extend(old_element_node[old]),
            }
        }
        // Nodes are the view interner's raw indices, so patching them is
        // a handle read — no string ever re-interns here.
        for &id in &rekeyed {
            // Re-keyed survivors keep their netted-ness; fresh elements
            // are handled below. A kept merge of a re-keyed survivor
            // moves one edge end from the old node to the new: both are
            // touched, and the far end shared the old node's net.
            if let Some(node) = &mut element_node[id] {
                touched.push(*node);
                *node = view.elements.net_keys()[id].index();
                touched.push(*node);
            }
        }
        for id in 0..n_new {
            if dirty_elem[id] {
                element_node[id] =
                    element_is_netted(&view, id).then(|| view.elements.net_keys()[id].index());
                touched.extend(element_node[id]);
            }
        }
        // Connection edges that appeared or vanished among surviving
        // seed elements (a merge that lost an end to a removed element
        // is covered by that element's node above).
        old_seed_merges.sort_unstable();
        let new_seed_merges = &scoped_conn.merges;
        let gone = old_seed_merges
            .iter()
            .filter(|pair| new_seed_merges.binary_search(pair).is_err());
        let came = new_seed_merges
            .iter()
            .filter(|pair| old_seed_merges.binary_search(pair).is_err());
        for &(i, j) in gone.chain(came) {
            touched.extend(element_node[i]);
            touched.extend(element_node[j]);
        }
        // Net-neutral fast-path candidate: an edit that provably leaves
        // the net graph bit-identical (same item structure, no re-keyed
        // elements, every dirty element kept its node, and — checked
        // below — identical connection edges and device/label rows)
        // reuses the cached net list instead of reassembling it. A
        // moved instance (auto keys are instance-local) or a dragged
        // declared-net wire in free space is the common hit.
        let aligned = slots.len() == old_runs.len()
            && slots.iter().enumerate().all(|(i, s)| s.origin == Some(i))
            && runs == old_runs;
        let mut net_neutral = aligned
            && rekeyed.is_empty()
            && (0..n_new)
                .filter(|&i| dirty_elem[i])
                .all(|i| element_node[i] == old_element_node[i]);
        self.parts.element_node = element_node;
        let old_conn_edges = net_neutral.then(|| self.parts.conn_edges.clone());
        self.parts.set_conn_edges(&merges);
        if let Some(old_edges) = &old_conn_edges {
            net_neutral &= *old_edges == self.parts.conn_edges;
        }

        // Rebinding region: geometry changes plus re-keyed elements
        // (their interned node changed even though nothing moved). With
        // no surviving re-keys it is exactly the connection dirty
        // region, whose grid already exists.
        let d_bind_grid_wide = rekeyed.iter().any(|&id| !dirty_elem[id]).then(|| {
            let mut rects = foot.clone();
            rects.extend(rekeyed.iter().map(|&id| view.elements.bboxes()[id]));
            region_grid(&Region::from_rects(rects), cell)
        });
        let d_bind_grid = d_bind_grid_wide.as_ref().unwrap_or(&d_conn_grid);
        let rekeyed_flags = {
            let mut f = vec![false; n_new];
            for &id in &rekeyed {
                f[id] = true;
            }
            f
        };

        // Decide which devices and labels re-bind. A binding (point →
        // covering elements) can only have changed if geometry inside
        // the point's bbox changed — i.e. the point touches `d_bind`;
        // a device also re-rows when one of its own elements was
        // re-keyed (its join/bind edges reference the stale node).
        // The region's bounding box screens out the far-away points
        // (nearly all of them) before the hashed grid lookup.
        let d_bind_bounds = foot
            .iter()
            .copied()
            .chain(rekeyed.iter().map(|&id| view.elements.bboxes()[id]))
            .reduce(|a, b| a.bounding_union(&b));
        let point_rect = |p: diic_geom::Point| Rect::new(p.x, p.y, p.x, p.y);
        let in_d_bind = |p: diic_geom::Point| {
            d_bind_bounds.is_some_and(|b| b.contains_point(p))
                && d_bind_grid.touches_any(&point_rect(p))
        };
        let rerow: Vec<bool> = (0..view.devices.len())
            .map(|di| {
                let dev = &view.devices[di];
                dev_old_of_new[di].is_none()
                    || dev.element_ids.iter().any(|&eid| rekeyed_flags[eid])
                    || dev.terminals.iter().any(|(_, _, p)| in_d_bind(*p))
            })
            .collect();
        let relabel: Vec<bool> = self
            .labels
            .iter()
            .map(|(label, _)| in_d_bind(label.position))
            .collect();

        // The scoped bind index must be complete at **every** re-bound
        // point — a device re-rows all of its terminals even when only
        // one sits in the dirty region, so the scope is the union of
        // the re-bound points themselves (an element can only bind if
        // its bbox covers the point).
        let bind: Option<BindIndex> = if rerow.iter().any(|&b| b) || relabel.iter().any(|&b| b) {
            let mut pts: Vec<Rect> = Vec::new();
            for (di, &r) in rerow.iter().enumerate() {
                if r {
                    for (_, _, p) in &view.devices[di].terminals {
                        // 1-unit pad: Region drops zero-area rects.
                        pts.push(Rect::new(p.x - 1, p.y - 1, p.x + 1, p.y + 1));
                    }
                }
            }
            for ((label, _), &r) in self.labels.iter().zip(&relabel) {
                if r {
                    let p = label.position;
                    pts.push(Rect::new(p.x - 1, p.y - 1, p.x + 1, p.y + 1));
                }
            }
            let mut ids: Vec<usize> = Vec::new();
            for r in Region::from_rects(pts).rects() {
                ids.extend(
                    self.elem_index
                        .query(r)
                        .into_iter()
                        .map(|&tag| tag_owner[tag as usize]),
                );
            }
            ids.sort_unstable();
            ids.dedup();
            ids.retain(|&id| element_is_netted(&view, id));
            Some(BindIndex::build_among(&view, &self.tech, &ids))
        } else {
            None
        };

        // Device rows: reuse survivors, recompute the rest. A row that
        // was added, removed, or re-derived to something else touches
        // every node it names.
        let mut old_rows: Vec<Option<DeviceParts>> = std::mem::take(&mut self.parts.devices)
            .into_iter()
            .map(Some)
            .collect();
        let mut new_rows: Vec<DeviceParts> = Vec::with_capacity(view.devices.len());
        for di in 0..view.devices.len() {
            let row = match dev_old_of_new[di].and_then(|od| old_rows[od].take()) {
                Some(row) if !rerow[di] => row,
                old_row => {
                    // invariant: the bind index is built up front
                    // whenever any row is marked for re-derivation.
                    let b = bind
                        .as_ref()
                        .expect("bind index built when anything re-rows");
                    let row = self.parts.device_parts(&mut view, di, b);
                    if net_neutral {
                        // Under `aligned`, device di corresponds to old
                        // device di: a survivor's row was just taken, a
                        // re-instantiated device's is still in place.
                        let old = old_row
                            .as_ref()
                            .or_else(|| old_rows.get(di).and_then(Option::as_ref));
                        net_neutral = old == Some(&row);
                    }
                    if old_row.as_ref() != Some(&row) {
                        touched.extend(row.nodes());
                        touched.extend(old_row.iter().flat_map(DeviceParts::nodes));
                    }
                    row
                }
            };
            new_rows.push(row);
        }
        // What is left belonged to removed or re-instantiated devices.
        touched.extend(old_rows.iter().flatten().flat_map(DeviceParts::nodes));
        self.parts.devices = new_rows;

        // Label rows: re-bind those whose point sits in the rebinding
        // region.
        for (li, (label, layer)) in self.labels.iter().enumerate() {
            if relabel[li] {
                // invariant: same up-front construction as the device
                // rows — relabel[li] implies the index exists.
                let b = bind
                    .as_ref()
                    .expect("bind index built when anything re-binds");
                let row = self.parts.label_parts(&mut view, label, *layer, b);
                if self.parts.labels[li] != row {
                    net_neutral = false;
                    touched.extend(row.nodes());
                    touched.extend(self.parts.labels[li].nodes());
                    self.parts.labels[li] = row;
                }
            }
        }

        // -- Phase H: net-identity diff extends the dirty core. -------
        // A spliced net list moved every net outside the affected
        // components across unchanged, so only elements and terminals
        // on a fresh net can have changed identity — and their old net
        // is among the ones the splice retired.
        let mut int_foot = foot;
        let nets_new = if net_neutral {
            stats.netlist_reused = true;
            NetgenResult {
                netlist: std::mem::take(&mut self.report.netlist),
                element_net: std::mem::take(&mut self.element_net),
                device_terminal_nets: std::mem::take(&mut self.device_terminal_nets),
                violations: Vec::new(),
            }
        } else {
            let old_netlist = std::mem::take(&mut self.report.netlist);
            let splice = self.parts.splice(
                &view,
                old_netlist,
                &self.device_terminal_nets,
                &touched,
                &dev_old_of_new,
            );
            stats.nets_respliced = splice.fresh.iter().filter(|f| **f).count();
            stats.nodes_respliced = splice.nodes;
            // True if something that was on old net `old` and is on new
            // net `new` kept its net's canonical name.
            let same_name = |old: Option<diic_netlist::NetId>, new: diic_netlist::NetId| {
                !splice.fresh[new.0 as usize]
                    || old.and_then(|o| splice.retired_name(o))
                        == Some(splice.nets.netlist.net(new).name())
            };
            for (old, new) in old_to_new.iter().enumerate() {
                let Some(new) = *new else { continue };
                let Some(net) = splice.nets.element_net[new] else {
                    continue;
                };
                if !same_name(self.element_net[old], net) {
                    int_foot.push(view.elements.bboxes()[new]);
                    stats.net_dirty_elements += 1;
                }
            }
            for (di, old_di) in dev_old_of_new.iter().enumerate() {
                let Some(old_di) = *old_di else { continue };
                let old_terms = &self.device_terminal_nets[old_di];
                let new_terms = &splice.nets.device_terminal_nets[di];
                let same = old_terms.len() == new_terms.len()
                    && old_terms
                        .iter()
                        .zip(new_terms)
                        .all(|(&o, &n)| same_name(Some(o), n));
                if !same {
                    for &eid in &view.devices[di].element_ids {
                        int_foot.push(view.elements.bboxes()[eid]);
                    }
                }
            }
            splice.nets
        };
        let reach = self.bound.max_rule_range();
        let d_halo = Region::from_rects(int_foot).inflate(reach);
        // One grid serves both the scoped search's marker filter and
        // Phase K's retraction predicate — they must agree bit for bit.
        let d_halo_grid = region_grid(&d_halo, cell);
        stats.t_net = t0.elapsed();

        // -- Phase I: scoped interactions inside the halo. ------------
        let t0 = std::time::Instant::now();
        // Candidate elements (one rule reach around the halo) from the
        // persistent index: bbox ⊕ reach touches the halo ⇔ bbox
        // touches a halo rect ⊕ reach.
        let mut halo_ids: Vec<usize> = Vec::new();
        for r in d_halo.rects() {
            if let Some(q) = r.inflate(reach) {
                halo_ids.extend(
                    self.elem_index
                        .query(&q)
                        .into_iter()
                        .map(|&tag| tag_owner[tag as usize]),
                );
            }
        }
        halo_ids.sort_unstable();
        halo_ids.dedup();
        let (ivs, istats) = check_interactions_among(
            &view,
            &self.tech,
            &self.bound,
            &nets_new,
            &self.options,
            &halo_ids,
            &d_halo_grid,
        );
        stats.rechecked_pairs = istats.candidate_pairs;
        stats.t_interact = t0.elapsed();

        // -- Phase J: global stages re-run in full, emitted through the
        // Sink trait like any engine run. -----------------------------
        let t0 = std::time::Instant::now();
        let mut fresh_sink = DiagnosticSink::new();
        fresh_sink.absorb(bind_violations);
        fresh_sink.append(&mut fresh_instantiate_violations);
        fresh_sink.absorb(check_elements(&self.layout, &self.tech, &binding));
        let prim = check_primitive_symbols(&self.layout, &self.tech, &binding);
        let waived_devices = prim.waived;
        fresh_sink.absorb(prim.violations);
        fresh_sink.absorb(nets_new.violations.to_vec());
        fresh_sink.absorb(composition_violations(
            &nets_new.netlist,
            &self.tech,
            &self.options,
        ));
        stats.t_global = t0.elapsed();

        // -- Phase K: patch the report by merge-splice. ---------------
        let t0 = std::time::Instant::now();
        let anchored_in = |v: &Violation, grid: &diic_geom::GridIndex<()>| -> bool {
            v.location.is_none_or(|l| grid.touches_any(&l))
        };
        // The kept violations are a subsequence of the cached canonical
        // report, hence already canonically sorted.
        let mut kept: Vec<Violation> = Vec::with_capacity(self.report.violations.len());
        for v in &self.report.violations {
            let keep = match v.stage {
                CheckStage::Connections => !anchored_in(v, &d_conn_grid),
                // Mask odd cycles are a global (conflict-graph) verdict:
                // an edit anywhere can open or close a cycle whose
                // witness marker lies far outside the halo, so they are
                // always retracted and recomputed from scratch below.
                CheckStage::Interactions => {
                    !matches!(
                        v.kind,
                        crate::violations::ViolationKind::MaskOddCycle { .. }
                    ) && !anchored_in(v, &d_halo_grid)
                }
                _ => false, // replaced wholesale by the fresh global runs
            };
            if keep {
                kept.push(v.clone());
            }
        }
        stats.retracted = self.report.violations.len() - kept.len();
        fresh_sink.absorb(
            scoped_conn
                .violations
                .into_iter()
                .filter(|v| anchored_in(v, &d_conn_grid))
                .collect(),
        );
        fresh_sink.absorb(ivs);
        // Global recompute of the same-mask conflict graph (the scoped
        // interaction pass above discards its clip-local edges): free
        // when the technology declares no same_mask rules.
        fresh_sink.absorb(check_same_mask(
            &view,
            &self.tech,
            &self.bound,
            self.options.metric,
        ));
        let mut fresh = fresh_sink.into_violations();
        stats.spliced = fresh.len();
        // Only the fresh side pays a sort; the combined list is a
        // linear merge of the two sorted halves instead of re-sorting
        // everything each edit.
        canonical_sort(&mut fresh);
        #[cfg(debug_assertions)]
        let sort_oracle = {
            let mut all = kept.clone();
            all.extend(fresh.iter().cloned());
            canonical_sort(&mut all);
            all
        };
        let violations = merge_canonical(kept, fresh);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            violations, sort_oracle,
            "merge-splice diverged from canonical_sort"
        );
        stats.t_patch = t0.elapsed();

        // -- Phase L: commit. -----------------------------------------
        let t_commit = std::time::Instant::now();
        self.binding = binding;
        self.view = view;
        self.runs = runs;
        self.elem_tags = tags;
        self.merges = merges;
        let NetgenResult {
            netlist,
            element_net,
            device_terminal_nets,
            ..
        } = nets_new;
        self.element_net = element_net;
        self.device_terminal_nets = device_terminal_nets;
        self.report = CheckReport {
            violations,
            netlist,
            interact_stats: istats,
            stage_profile: Vec::new(),
            waived_devices,
            element_count: self.view.elements.len(),
            device_count: self.view.devices.len(),
            // Still the session's last whole instantiation (its open or
            // its latest full rebuild): a patch re-walks dirty items only.
            instantiate_stats: self.report.instantiate_stats,
            scope_stats: self.report.scope_stats,
        };

        // -- Phase M: compact the spatial index after heavy churn. ----
        // Tombstones and cell bookkeeping grow monotonically under
        // edits; once the dead slots outnumber the live elements (with
        // a floor so small sessions never bother), rebuild the index
        // and remap the retained handles. Queries return identical
        // results before and after, so no downstream state is touched.
        if self.elem_index.tombstones() > self.elem_index.len().max(64) {
            stats.index_compacted = self.compact_spatial_index();
        }
        Ok((stats, Some(t_commit)))
    }

    /// Rebuilds the spatial index without its tombstones and remaps
    /// the retained handles. True if anything was dropped.
    fn compact_spatial_index(&mut self) -> bool {
        if self.elem_index.tombstones() == 0 {
            return false;
        }
        let remap = self.elem_index.compact();
        for t in &mut self.elem_tags {
            // invariant: compaction only drops tombstoned handles,
            // and every tag references a live element.
            t.handle = remap[t.handle as usize].expect("live elements keep live handles");
        }
        true
    }

    /// Streams the cached canonical report through any
    /// [`Sink`] — pair it with a
    /// [`StreamingSink`](crate::engine::StreamingSink) to export a
    /// session's report without materialising a second copy, or with a
    /// [`SpillingSink`](crate::engine::SpillingSink) to bound even the
    /// export's sort buffer when the report outgrows RAM. (The
    /// session keeps its own canonical buffer: report patching retracts
    /// and splices against it.)
    pub fn emit_report(&self, sink: &mut dyn Sink) {
        for v in &self.report.violations {
            sink.push(v.clone());
        }
    }

    /// The options the session checks under.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// The technology the session checks against.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// An estimate of the session's resident heap, in bytes: the
    /// columnar element store, the string table (its text and its
    /// bookkeeping, both exact — each is a handful of flat buffers),
    /// device instances, the persistent net graph, the cached canonical
    /// report, and the spatial-index bookkeeping. Payload bytes
    /// elsewhere, not allocator-exact — the number a session *pool*
    /// budgets and evicts against (and the denominator of the e21
    /// sessions-per-GB figure).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let elements = self.view.elements.heap_bytes();
        let strings = self.view.strings.heap_bytes() + self.view.strings.table_bytes();
        let devices: usize = self
            .view
            .devices
            .iter()
            .map(|d| {
                size_of_val(d)
                    + d.terminals.len() * size_of::<(Istr, diic_tech::LayerId, diic_geom::Point)>()
                    + d.element_ids.len() * size_of::<usize>()
            })
            .sum();
        let graph = self.parts.element_node.len() * size_of::<Option<u32>>()
            + self.parts.resolution_bytes()
            + self.parts.conn_edges.len() * size_of::<(u32, u32)>()
            + self
                .parts
                .devices
                .iter()
                .map(|d| {
                    size_of_val(d)
                        + d.terms.len() * size_of::<(Istr, u32)>()
                        + d.edges.len() * size_of::<(u32, u32)>()
                })
                .sum::<usize>()
            + self
                .parts
                .labels
                .iter()
                .map(|l| size_of_val(l) + l.edges.len() * size_of::<(u32, u32)>())
                .sum::<usize>();
        let report: usize = self
            .report
            .violations
            .iter()
            .map(|v| size_of_val(v) + v.context.len())
            .sum();
        let index = self.elem_tags.len() * (size_of::<ElemTag>() + size_of::<(Rect, u32)>());
        elements + strings + devices + graph + report + index
    }

    /// Compacts the session's long-lived memory in place: rebuilds the
    /// spatial index without tombstones ([`diic_geom::GridIndex::compact`])
    /// and evicts interner strings orphaned by edit churn
    /// ([`crate::binding::StringInterner::compact`] — removed elements
    /// and replaced definitions leave dead paths and net keys behind),
    /// remapping every live handle: the element columns, the device
    /// instances, and the net graph's node indices
    /// ([`NetParts::remap_strings`]). The session pool fires this on
    /// eviction pressure; rendered reports before and after are
    /// byte-identical (`service_sessions_survive_compaction` in
    /// `tests/api.rs` and [`mod@self`]'s own unit test pin it).
    pub fn compact_memory(&mut self) -> SessionCompaction {
        let index_compacted = self.compact_spatial_index();
        let strings_before = self.view.strings.len();
        let bytes_before = self.view.strings.heap_bytes();

        // The keep set: every handle the view or the net graph still
        // references. Everything else is churn garbage.
        let mut keep = vec![false; strings_before];
        let mut mark = |index: u32| keep[index as usize] = true;
        for h in self.view.elements.net_keys() {
            mark(h.index());
        }
        for h in self.view.elements.paths() {
            mark(h.index());
        }
        for d in &self.view.devices {
            mark(d.path.index());
            mark(d.device_type.index());
            d.terminals
                .iter()
                .for_each(|(name, _, _)| mark(name.index()));
        }
        for node in self.parts.element_node.iter().flatten() {
            mark(*node);
        }
        for (a, b) in &self.parts.conn_edges {
            mark(*a);
            mark(*b);
        }
        for d in &self.parts.devices {
            d.names().for_each(|name| mark(name.index()));
            d.nodes().for_each(&mut mark);
        }
        self.parts
            .labels
            .iter()
            .flat_map(|l| l.nodes())
            .for_each(&mut mark);

        let remap = self.view.strings.compact(|id, _| keep[id.index() as usize]);
        self.view.elements.remap_strings(&remap);
        for d in &mut self.view.devices {
            // invariant: device handles were marked above.
            d.path = remap[d.path.index() as usize].expect("device path survives compaction");
            d.device_type =
                remap[d.device_type.index() as usize].expect("device type survives compaction");
            for (name, _, _) in &mut d.terminals {
                *name = remap[name.index() as usize].expect("terminal name survives compaction");
            }
        }
        self.parts.remap_strings(&remap);

        SessionCompaction {
            index_compacted,
            strings_evicted: strings_before - self.view.strings.len(),
            string_bytes_freed: bytes_before.saturating_sub(self.view.strings.heap_bytes()),
        }
    }
}

/// What one [`CheckSession::compact_memory`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCompaction {
    /// True if the spatial index had tombstones to drop.
    pub index_compacted: bool,
    /// Interner strings evicted as unreferenced.
    pub strings_evicted: usize,
    /// Interner heap bytes freed by the eviction.
    pub string_bytes_freed: usize,
}

/// A from-scratch [`check`] with the violations brought into canonical
/// order — the oracle an incremental session's patched report must equal
/// byte for byte.
pub fn canonical_check(layout: &Layout, tech: &Technology, options: &CheckOptions) -> CheckReport {
    let mut report = check(layout, tech, options);
    canonical_sort(&mut report.violations);
    report
}

/// Applies an edit batch to a layout (indices must already be
/// validated).
fn apply_layout_edits(layout: &mut Layout, edits: &EditSet) {
    for edit in &edits.edits {
        match edit {
            Edit::AddElement {
                cif_layer,
                shape,
                net,
            } => {
                let layer = layout.intern_layer(cif_layer);
                layout.push_top(Item::Element(Element {
                    layer,
                    shape: shape.clone(),
                    net: net.clone(),
                }));
            }
            Edit::AddCall {
                symbol,
                transform,
                name,
            } => {
                layout.push_top(Item::Call(Call {
                    target: *symbol,
                    transform: *transform,
                    name: name.clone(),
                }));
            }
            Edit::RemoveItem { index } => {
                layout.remove_top(*index);
            }
            Edit::MoveItem { index, by } => {
                let t = Transform::translate(*by);
                match layout.top_item_mut(*index) {
                    Item::Element(el) => el.shape = el.shape.transformed(&t),
                    Item::Call(c) => c.transform = t.after(&c.transform),
                }
            }
            Edit::ReplaceSymbol { symbol, items } => {
                layout.symbol_mut(*symbol).items = items.clone();
            }
        }
    }
}

/// A uniform grid over a region's rects, for fast "does this bbox touch
/// the dirty region" predicates (a whole-chip dirty region can hold
/// thousands of rects; the linear scan in [`Region::touches_rect`] is
/// the wrong tool for per-element loops).
fn region_grid(region: &Region, cell: i64) -> diic_geom::GridIndex<()> {
    let mut grid = diic_geom::GridIndex::new(cell);
    for r in region.rects() {
        grid.insert(*r, ());
    }
    grid
}

/// Prefix sums of the per-item runs: `(element_start, device_start)`.
fn run_offsets(runs: &[ItemRun]) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(runs.len());
    let (mut e, mut d) = (0usize, 0usize);
    for r in runs {
        out.push((e, d));
        e += r.elems;
        d += r.devices;
    }
    out
}

/// The replaced symbols plus everything that transitively calls them.
fn dirty_symbol_closure(layout: &Layout, replaced: &[SymbolId]) -> HashSet<SymbolId> {
    let mut callers: Vec<Vec<SymbolId>> = vec![Vec::new(); layout.symbols().len()];
    for (si, sym) in layout.symbols().iter().enumerate() {
        for call in sym.calls() {
            callers[call.target.0 as usize].push(SymbolId(si as u32));
        }
    }
    let mut dirty: HashSet<SymbolId> = HashSet::new();
    let mut queue: Vec<SymbolId> = replaced.to_vec();
    while let Some(s) = queue.pop() {
        if dirty.insert(s) {
            queue.extend(callers[s.0 as usize].iter().copied());
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn options() -> CheckOptions {
        CheckOptions {
            erc: false,
            ..CheckOptions::default()
        }
    }

    fn assert_matches_full(session: &CheckSession) {
        let full = session.full_check();
        assert_eq!(
            session.report().violations,
            full.violations,
            "patched report diverged from from-scratch check"
        );
        assert_eq!(session.report().netlist, full.netlist);
        assert_eq!(session.report().element_count, full.element_count);
        assert_eq!(session.report().device_count, full.device_count);
        assert_eq!(session.report().waived_devices, full.waived_devices);
    }

    /// The splice oracle, spelled out so it also runs in release builds
    /// (where `NetParts::splice`'s own `debug_assert_eq!` is compiled
    /// out): every net artefact the session caches equals a
    /// from-scratch assembly of its patched graph.
    fn assert_nets_match_scratch(session: &CheckSession) {
        let (scratch, node_net) = session.parts.assemble_from_scratch(&session.view);
        assert_eq!(session.report.netlist, scratch.netlist);
        assert_eq!(session.element_net, scratch.element_net);
        assert_eq!(session.device_terminal_nets, scratch.device_terminal_nets);
        // The cached table may stop short of strings interned since.
        let cached = session.parts.node_net();
        assert!(cached.len() <= node_net.len());
        for (node, want) in node_net.iter().enumerate() {
            assert_eq!(cached.get(node).copied().flatten(), *want, "node {node}");
        }
    }

    /// Applies `edits`, requiring the net-list **splice** to have run
    /// (not the reuse fast path, not the rebuild fallback), and holds
    /// the result to both oracles.
    fn apply_spliced(session: &mut CheckSession, edits: &EditSet) -> EditStats {
        let stats = session.apply(edits).unwrap();
        assert!(!stats.full_rebuild, "edit must stay under the threshold");
        assert_eq!(stats.rebuild_reason, None);
        assert!(!stats.netlist_reused, "edit must change the net graph");
        assert!(stats.nets_respliced > 0 || stats.nodes_respliced == 0);
        assert_nets_match_scratch(session);
        assert_matches_full(session);
        stats
    }

    /// Six parallel metal rails on nets A–F, far enough apart to be
    /// clean; rail `i` spans y = 3000 i .. 3000 i + 750.
    fn rails() -> CheckSession {
        let mut cif = String::new();
        for (i, name) in ["A", "B", "C", "D", "E", "F"].iter().enumerate() {
            cif.push_str(&format!(
                "L NM; 9N {name}; B 20000 750 10000 {};\n",
                375 + i * 3000
            ));
        }
        cif.push('E');
        CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), &options())
    }

    /// Symbol 1 a three-terminal transistor, symbol 2 a cell calling it
    /// with a wire on each terminal — definitions only, for edits (or a
    /// caller's own `C 2 …` lines) to call.
    const TRANSISTOR_CELL: &str = "DS 1; 9D NMOS_ENH;
         9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
         L NP; B 1500 500 250 0;
         L ND; B 500 2500 250 0;
         DF;
         DS 2; C 1 T 0 0;
         L NP; 9N in; W 500 -375 0 -3000 0;
         L ND; 9N gnd; W 500 250 -1000 250 -4000;
         L ND; 9N out; W 500 250 1000 250 4000;
         DF;\n";

    /// `definitions`, then `rails` undeclared metal rails 3000 apart.
    fn rails_beside(definitions: &str, rails: usize) -> CheckSession {
        let mut cif = String::from(definitions);
        for i in 0..rails {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        cif.push('E');
        CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), &options())
    }

    fn net_names(session: &CheckSession) -> Vec<&str> {
        session.report().netlist.nets().map(|n| n.name()).collect()
    }

    #[test]
    fn bridging_wire_merges_nets_and_its_removal_splits_them() {
        let mut session = rails();
        assert_eq!(net_names(&session), ["A", "B", "C", "D", "E", "F"]);

        // A strap across rails C and D on net "0": the merged net takes
        // the strap's name and sorts first, so every net id shifts.
        let mut bridge = EditSet::new();
        bridge.add_box("NM", Rect::new(500, 6000, 1250, 9750), Some("0"));
        let stats = apply_spliced(&mut session, &bridge);
        assert_eq!(net_names(&session), ["0", "A", "B", "E", "F"]);
        assert_eq!(stats.nets_respliced, 1);
        assert_eq!(stats.nodes_respliced, 3, "C, D and the strap");
        let merged = session.report().netlist.net(diic_netlist::NetId(0));
        assert!(merged.aliases().eq(["0", "C", "D"]));

        let mut unbridge = EditSet::new();
        unbridge.remove(6);
        let stats = apply_spliced(&mut session, &unbridge);
        assert_eq!(net_names(&session), ["A", "B", "C", "D", "E", "F"]);
        assert_eq!(stats.nets_respliced, 2);
        assert_eq!(stats.nodes_respliced, 2);
    }

    #[test]
    fn wire_onto_a_rail_resplices_the_largest_net() {
        // A VDD rail with twelve stubs hanging off it is one big net;
        // rails A–F stand beside it.
        let mut cif = String::from("L NM; 9N VDD; B 40000 750 20000 -2625;\n");
        for i in 0..12 {
            cif.push_str(&format!("L NM; B 750 2750 {} -3625;\n", 1000 + i * 3000));
        }
        for (i, name) in ["A", "B", "C", "D", "E", "F"].iter().enumerate() {
            cif.push_str(&format!(
                "L NM; 9N {name}; B 20000 750 10000 {};\n",
                375 + i * 3000
            ));
        }
        cif.push('E');
        let mut session = CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), &options());
        let vdd = session.report().netlist.net_by_name("VDD").unwrap();
        assert_eq!(session.report().netlist.net(vdd).aliases().len(), 13);

        // A strap from rail A down onto the VDD rail shorts the two.
        let mut short = EditSet::new();
        short.add_box("NM", Rect::new(17000, -3000, 17750, 750), Some("X"));
        let stats = apply_spliced(&mut session, &short);
        assert_eq!(stats.nets_respliced, 1);
        assert_eq!(stats.nodes_respliced, 13 + 2, "VDD's nodes, A and X");
        let a = session.report().netlist.net_by_name("A").unwrap();
        assert_eq!(session.report().netlist.net_by_name("VDD"), Some(a));
        assert_eq!(session.report().netlist.net(a).name(), "A");

        let mut unshort = EditSet::new();
        unshort.remove(19);
        apply_spliced(&mut session, &unshort);
        assert_eq!(session.report().netlist.net_by_name("VDD"), Some(vdd));
    }

    /// Six placements of a cell holding one transistor and its three
    /// wires (nets `i<k>.in` / `.gnd` / `.out`), and one placement of a
    /// plain two-wire cell.
    fn transistor_row() -> CheckSession {
        let mut cif = String::from(TRANSISTOR_CELL);
        cif.push_str(
            "DS 3; L NM; 9N p; B 2000 750 1000 375; L NM; 9N q; B 2000 750 1000 3375; DF;\n",
        );
        for i in 0..6 {
            cif.push_str(&format!("C 2 T {} 0;\n", i * 20000));
        }
        cif.push_str("C 3 T 0 30000;\nE");
        CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), &options())
    }

    #[test]
    fn adding_and_removing_device_cells_renumbers_kept_terminals() {
        let mut session = transistor_row();
        assert_eq!(session.report().device_count, 6);
        let cell = session.layout().symbol_by_cif_id(2).unwrap();

        let mut add = EditSet::new();
        add.add_call(cell, Transform::translate(Vector::new(120_000, 0)), "late");
        apply_spliced(&mut session, &add);
        assert_eq!(session.report().device_count, 7);
        let on_late = session.report().netlist.net_by_name("late.in").unwrap();
        let on_net = session.report().netlist.net(on_late).terminals();
        assert!(on_net.eq([(diic_netlist::DeviceId(6), "G")]));

        // Dropping the first placement shifts every device id; the
        // other cells' nets are untouched and only renumber.
        let mut drop_first = EditSet::new();
        drop_first.remove(0);
        let stats = apply_spliced(&mut session, &drop_first);
        assert_eq!(session.report().device_count, 6);
        assert_eq!(stats.nets_respliced, 0, "removal builds no net");
        let on_late = session.report().netlist.net_by_name("late.in").unwrap();
        let on_net = session.report().netlist.net(on_late).terminals();
        assert!(on_net.eq([(diic_netlist::DeviceId(5), "G")]));

        let mut drop_late = EditSet::new();
        drop_late.remove(6);
        apply_spliced(&mut session, &drop_late);
        assert_eq!(session.report().device_count, 5);
    }

    #[test]
    fn replace_symbol_below_the_threshold_splices() {
        let mut session = transistor_row();
        let before = session.report().netlist.net_count();
        // The two-wire cell's second wire moves onto the first: its
        // two nets become one.
        let sym = session.layout().symbol_by_cif_id(3).unwrap();
        let joined =
            parse("DS 9; L NM; 9N p; B 2000 750 1000 375; L NM; 9N q; B 2000 750 2500 375; DF; E")
                .unwrap();
        let mut edits = EditSet::new();
        edits.replace_symbol(sym, joined.symbols()[0].items.clone());
        let stats = apply_spliced(&mut session, &edits);
        assert_eq!(stats.nets_respliced, 1);
        assert_eq!(session.report().netlist.net_count(), before - 1);
    }

    #[test]
    fn splice_survives_interner_compaction() {
        // Churn, compact (which renumbers every node, so the cached
        // node → net table must move with them), then splice again.
        let churn = |session: &mut CheckSession, top_items: usize| {
            for step in 0..12i64 {
                let mut add = EditSet::new();
                add.add_box(
                    "NM",
                    Rect::new(30_000, step * 3000, 32_000, step * 3000 + 750),
                    None,
                );
                apply_spliced(session, &add);
                let mut remove = EditSet::new();
                remove.remove(top_items);
                apply_spliced(session, &remove);
            }
        };
        let mut session = rails();
        churn(&mut session, 6);
        let compaction = session.compact_memory();
        assert!(compaction.strings_evicted > 0, "{compaction:?}");
        assert_nets_match_scratch(&session);

        let mut bridge = EditSet::new();
        bridge.add_box("NM", Rect::new(500, 6000, 1250, 9750), Some("0"));
        apply_spliced(&mut session, &bridge);
        assert_eq!(net_names(&session), ["0", "A", "B", "E", "F"]);
        session.compact_memory();
        assert_nets_match_scratch(&session);
        let mut unbridge = EditSet::new();
        unbridge.remove(6);
        apply_spliced(&mut session, &unbridge);
        assert_eq!(net_names(&session), ["A", "B", "C", "D", "E", "F"]);

        // With transistors: a device row's terminal names are interner
        // handles too, and a splice that opens the device renders them.
        // The cells arrive after the churn, so their names sit above its
        // garbage and the compaction renumbers them: a name that missed
        // the keep set, or a holder the remap forgot, fails here.
        let mut session = rails_beside(TRANSISTOR_CELL, 12);
        churn(&mut session, 12);
        let cell = session.layout().symbol_by_cif_id(2).unwrap();
        let add_cell = |session: &mut CheckSession, name: &str, x: i64| {
            let mut add = EditSet::new();
            add.add_call(cell, Transform::translate(Vector::new(x, 0)), name);
            apply_spliced(session, &add);
        };
        add_cell(&mut session, "early", 100_000);
        let compaction = session.compact_memory();
        assert!(compaction.strings_evicted > 0, "{compaction:?}");
        assert_nets_match_scratch(&session);
        assert_matches_full(&session);
        // A fresh device renders its names through the remapped handles;
        // a poly stub on the end of the first cell's `in` wire opens the
        // row of the device that went through the compaction.
        add_cell(&mut session, "late", 120_000);
        let mut stub = EditSet::new();
        stub.add_box("NP", Rect::new(94_000, -250, 97_500, 250), None);
        apply_spliced(&mut session, &stub);
        session.compact_memory();
        assert_nets_match_scratch(&session);
        for index in [14, 12] {
            let mut remove = EditSet::new();
            remove.remove(index);
            apply_spliced(&mut session, &remove);
        }
        assert_eq!(session.report().device_count, 1);
    }

    #[test]
    fn phase_times_account_for_the_whole_apply() {
        let mut session = transistor_row();
        let cell = session.layout().symbol_by_cif_id(2).unwrap();
        let mut add = EditSet::new();
        add.add_call(cell, Transform::translate(Vector::new(120_000, 0)), "late");
        let t0 = std::time::Instant::now();
        let stats = session.apply(&add).unwrap();
        let wall = t0.elapsed();
        let phases = stats.t_view
            + stats.t_conn
            + stats.t_net
            + stats.t_interact
            + stats.t_global
            + stats.t_patch
            + stats.t_commit;
        assert!(stats.t_commit > std::time::Duration::ZERO);
        assert!(phases <= wall, "{phases:?} of {wall:?}");
    }

    #[test]
    fn full_rebuild_names_its_reason() {
        let mut session = rails();
        let mut edits = EditSet::new();
        edits.translate(0, 0, -5000).translate(1, 0, -5000);
        let stats = session.apply(&edits).unwrap();
        assert!(stats.full_rebuild);
        assert_eq!(
            stats.rebuild_reason,
            Some(RebuildReason::DirtyFraction { dirty: 2, total: 6 })
        );
        assert_eq!((stats.nets_respliced, stats.nodes_respliced), (0, 0));
        assert_nets_match_scratch(&session);
        assert_matches_full(&session);
    }

    #[test]
    fn empty_edit_set_changes_nothing() {
        let layout = parse("L NM; B 2000 750 1000 375; B 2000 750 1000 1625; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.clone();
        let stats = session.apply(&EditSet::new()).unwrap();
        assert_eq!(stats.dirty_items, 0);
        assert_eq!(stats.retracted, 0);
        assert_eq!(session.report().violations, before);
        assert_matches_full(&session);
    }

    #[test]
    fn add_then_remove_roundtrips() {
        let layout = parse("L NM; B 2000 750 1000 375; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());

        let mut add = EditSet::new();
        add.add_box("NM", Rect::new(0, 1250, 2000, 2000), None); // 500 gap, rule 750
        session.apply(&add).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);

        let mut remove = EditSet::new();
        remove.remove(1);
        session.apply(&remove).unwrap();
        assert!(
            session.report().violations.is_empty(),
            "{:?}",
            session.report().violations
        );
        assert_matches_full(&session);
    }

    #[test]
    fn move_element_relocates_violation() {
        let layout = parse("L NM; B 2000 750 1000 375; B 2000 750 1000 1625; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert_eq!(session.report().violations.len(), 1); // 500 gap

        let mut away = EditSet::new();
        away.translate(1, 0, 5000);
        session.apply(&away).unwrap();
        assert!(session.report().violations.is_empty());
        assert_matches_full(&session);

        let mut back = EditSet::new();
        back.translate(1, 0, -5000);
        session.apply(&back).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn out_of_bounds_edit_leaves_session_untouched() {
        let layout = parse("L NM; B 2000 750 1000 375; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.clone();
        let mut bad = EditSet::new();
        bad.remove(7);
        let err = session.apply(&bad).unwrap_err();
        assert_eq!(err, EditError::ItemOutOfBounds { index: 7, len: 1 });
        assert_eq!(session.report().violations, before);
        assert_matches_full(&session);
    }

    #[test]
    fn replace_symbol_invalidates_instances() {
        let layout = parse(
            "DS 1; L NM; B 2000 750 1000 375; DF;
             C 1 T 0 0; C 1 T 6000 0; E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());

        // New body: two wires 500 apart inside the definition — every
        // instance now carries an internal spacing violation.
        let sym = session.layout().symbol_by_cif_id(1).unwrap();
        let broken = parse("DS 9; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; DF; E").unwrap();
        let body = broken.symbols()[0].items.clone();
        let mut edits = EditSet::new();
        edits.replace_symbol(sym, body);
        session.apply(&edits).unwrap();
        assert_eq!(session.report().violations.len(), 2, "one per instance");
        assert_matches_full(&session);
    }

    #[test]
    fn added_call_is_instantiated_and_checked() {
        let layout = parse("DS 1; L NM; B 2000 750 1000 375; DF; C 1 T 0 0; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());

        // A second placement 1250 above the first: the two instances'
        // wires end up 500 apart (rule 750) — cross-instance violation.
        let sym = session.layout().symbol_by_cif_id(1).unwrap();
        let mut edits = EditSet::new();
        edits.add_call(sym, Transform::translate(Vector::new(0, 1250)), "added");
        session.apply(&edits).unwrap();
        assert_eq!(
            session.report().violations.len(),
            1,
            "{:?}",
            session.report().violations
        );
        assert_matches_full(&session);

        // The added instance behaves like any other item: move it away
        // and the violation disappears.
        let mut away = EditSet::new();
        away.translate(1, 0, 8000);
        session.apply(&away).unwrap();
        assert!(session.report().violations.is_empty());
        assert_matches_full(&session);
    }

    #[test]
    fn add_call_unknown_symbol_rejected() {
        let layout = parse("DS 1; L NM; B 2000 750 1000 375; DF; C 1 T 0 0; E").unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.clone();
        let mut bad = EditSet::new();
        bad.add_call(SymbolId(99), Transform::IDENTITY, "x");
        let err = session.apply(&bad).unwrap_err();
        assert_eq!(err, EditError::UnknownSymbol(SymbolId(99)));
        assert_eq!(session.report().violations, before);
        assert_matches_full(&session);
    }

    #[test]
    fn moved_call_is_rechecked() {
        let layout = parse(
            "DS 1; L NM; B 2000 750 1000 375; DF;
             C 1 T 0 0; C 1 T 6000 0; E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());
        // Slide the second instance next to the first: cross-instance
        // metal spacing violation.
        let mut edits = EditSet::new();
        edits.translate(1, -3500, 0); // gap becomes 500
        session.apply(&edits).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn net_merge_far_from_edit_is_caught() {
        // Two parallel metal wires 500 apart on different nets: one
        // spacing violation. A far-away strap connecting them makes the
        // pair same-net — the violation must vanish even though the
        // close pair is far outside the edit's geometric dirty region.
        let layout = parse(
            "L NM; 9N A; B 20000 750 10000 375;
             L NM; 9N B; B 20000 750 10000 1625;
             E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert_eq!(session.report().violations.len(), 1);

        let mut strap = EditSet::new();
        // Overlapping both rails at the far right end (x ≈ 19k): merges
        // nets A and B into one.
        strap.add_box("NM", Rect::new(19000, 0, 19750, 2000), Some("A"));
        session.apply(&strap).unwrap();
        assert_matches_full(&session);

        let mut unstrap = EditSet::new();
        unstrap.remove(2);
        session.apply(&unstrap).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn heavy_churn_compacts_the_index_and_stays_exact() {
        // A chip big enough that moving one 8-element cell stays under
        // the full-rebuild threshold (8 of 48 elements dirty); each
        // move evicts and re-inserts the cell's elements, leaving 8
        // tombstones per apply, so the threshold (dead > live, floored
        // at 64) trips within a handful of edits. Check byte equality
        // with the full run at every compaction boundary.
        let mut cif = String::from("DS 1;\n");
        for i in 0..8 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        cif.push_str("DF;\n");
        for i in 0..40 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        cif.push_str("C 1 T 50000 0;\nE");
        let layout = parse(&cif).unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        assert!(session.report().violations.is_empty());
        let mut compactions = 0;
        for step in 0..30 {
            let mut churn = EditSet::new();
            churn.translate(40, if step % 2 == 0 { 2500 } else { -2500 }, 0);
            let stats = session.apply(&churn).unwrap();
            assert!(!stats.full_rebuild, "churn edits must stay incremental");
            if stats.index_compacted {
                compactions += 1;
                assert_matches_full(&session);
            }
            if step % 10 == 0 {
                assert_matches_full(&session);
            }
        }
        assert!(
            compactions >= 2,
            "30 churn applies must trip the compaction threshold repeatedly \
             (got {compactions})"
        );
        // The session keeps working (and can compact again) afterwards.
        let mut after = EditSet::new();
        after.add_box("NM", Rect::new(0, 1250, 2000, 2000), None);
        session.apply(&after).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
    }

    #[test]
    fn compact_memory_evicts_churn_garbage_and_stays_exact() {
        // Add-then-remove churn leaves orphaned net keys and paths in
        // the interner (each added element at a distinct bbox interns a
        // fresh auto key). compact_memory must evict them, renumber
        // every live handle (columns, devices and their terminal names,
        // net-graph nodes), and leave the rendered report and the edit
        // loop byte-identical.
        // The base chip is wide enough that one-box churn stays under
        // the full-rebuild threshold (a rebuild resets the interner and
        // would hide the garbage this test is about).
        let contact = "DS 4; 9D CONTACT_D;
             L NC; B 500 500 0 0; L ND; B 1000 1000 0 0; L NM; B 1000 1000 0 0; DF;\n";
        let mut session = rails_beside(&format!("{TRANSISTOR_CELL}{contact}"), 40);
        for step in 0..24i64 {
            let mut add = EditSet::new();
            add.add_box(
                "NM",
                Rect::new(50_000, 10_000 + step * 3000, 52_000, 10_750 + step * 3000),
                None,
            );
            let stats = session.apply(&add).unwrap();
            assert!(!stats.full_rebuild, "churn edits must stay incremental");
            let mut remove = EditSet::new();
            remove.remove(40);
            session.apply(&remove).unwrap();
        }
        // A wired transistor arrives after the churn: its terminal names
        // — handles in the view's device instances and in the net graph's
        // device rows — sit above the garbage and must renumber with it.
        // So must the `A` of a contact that declares no terminal, which
        // only its row holds.
        for (cif_id, y, name) in [(2, 0, "t"), (4, 50_000, "c")] {
            let symbol = session.layout().symbol_by_cif_id(cif_id).unwrap();
            let mut add = EditSet::new();
            add.add_call(symbol, Transform::translate(Vector::new(100_000, y)), name);
            session.apply(&add).unwrap();
        }
        assert_eq!(session.report().device_count, 2);
        let before = session.memory_bytes();
        let compaction = session.compact_memory();
        assert!(
            compaction.strings_evicted > 0,
            "24 add/remove rounds must orphan interned keys: {compaction:?}"
        );
        assert!(compaction.string_bytes_freed > 0);
        assert!(session.memory_bytes() < before);
        assert_matches_full(&session);

        // The compacted session keeps editing (and re-interning) fine.
        let mut add = EditSet::new();
        add.add_box("NM", Rect::new(0, 1250, 2000, 2000), None);
        session.apply(&add).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
        session.compact_memory();
        assert_matches_full(&session);
        // … including one that re-binds the device instantiated before
        // the compactions: a diffusion strap over its drain wire.
        let mut strap = EditSet::new();
        strap.add_box("ND", Rect::new(100_000, 2000, 100_500, 6000), None);
        let stats = session.apply(&strap).unwrap();
        assert!(!stats.full_rebuild && !stats.netlist_reused, "{stats:?}");
        assert_matches_full(&session);
    }

    #[test]
    fn whole_chip_dirty_rail_edit() {
        // Moving a chip-spanning rail dirties everything; the patch
        // machinery must still agree with the full check.
        let layout = parse(
            "L NM; 9N VDD; B 30000 750 15000 375;
             L NM; B 2000 750 1000 1625;
             L NM; B 2000 750 8000 1625;
             E",
        )
        .unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &options());
        let before = session.report().violations.len();
        assert!(before > 0);
        let mut edits = EditSet::new();
        edits.translate(0, 0, -200); // rail slides closer to the stubs
        session.apply(&edits).unwrap();
        assert_matches_full(&session);
    }
}
