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
//! * **the global stages re-run at the grain of their verdicts** —
//!   layer binding, element (per-definition width) checks and the
//!   net-list comparison (a whole-list diff) re-run in full and replace
//!   their cached lines wholesale. The primitive-symbol checks read
//!   device *definitions* only, so they re-run only when the edit set
//!   replaces a symbol; otherwise their lines and the waived-device list
//!   carry over. ERC's four rules are predicates of one net, so they
//!   re-run on the nets the splice built fresh; a cached ERC line is
//!   retracted when its context — its net's canonical name — names a
//!   net the splice dissolved, and kept otherwise (a kept net has the
//!   same name, aliases, terminals and device classes; a reused net list
//!   keeps every line).
//! * **the chip view is patched in place** — untouched top-level items
//!   keep their instantiated element/device runs; only dirty items
//!   re-instantiate, and one whose run keeps its lengths (a move) is
//!   written back over its own run. Only the runs after the first item
//!   whose run changed length are laid back (ids and device indices
//!   renumbered as they land). Auto net keys are stable functions of
//!   element identity (path, layer, bbox), so reuse does not rename
//!   distant nets, and the groups an edit touched are found in the
//!   element index.
//! * **connections are patched** — a connection verdict is a pure pair
//!   function, and its anchor (the bbox overlap) touches both elements,
//!   so pairs among the *seed set* (dirty elements plus everything
//!   whose bbox touches the dirty core) re-check while every other
//!   pair's cached verdict and merge survive.
//! * **the net graph is patched, the net list spliced** — net keys
//!   are names with stable integer nodes (an instance's base plus a
//!   template-local node, or a walked string's own;
//!   [`crate::netgen::NetParts`]), and a re-walked item's names settle
//!   into the instances they spell, so a moved call keeps its nodes;
//!   the edit swaps the dirty rows,
//!   recording the rows and edges that left and entered
//!   ([`crate::netgen::GraphDelta`]), and the session's
//!   [`crate::netgen::NetIndex`] — built at open, patched by each delta:
//!   per node its rows, its edges, its elements and its net's key in
//!   the net list — finds the components those nodes reach by a search from
//!   them, and [`crate::netgen::NetIndex::splice`] rebuilds only those
//!   nets — the same canonicalisation ([`diic_netlist::canonical_nets`])
//!   a full build runs, over the affected components alone — and patches
//!   them into the cached net list in place
//!   ([`diic_netlist::Netlist::patch`]): every other net's rows and
//!   every surviving device's row stay, moved in their columns as
//!   blocks, their ids renumbered through the list's net keys; kept
//!   nets keep their keys, so nothing per node or per element
//!   renumbers, and the interaction search reads nets through the keys
//!   ([`crate::netgen::GraphNets`]).
//!   Canonicalisation follows the nets the edit touched, not the chip;
//!   in debug builds the result and the index are asserted equal to the
//!   from-scratch [`crate::netgen::NetParts::assemble`] and a fresh index.
//! * **net-wide effects are caught by a relation diff** — connectivity
//!   is global (one added strap merges two nets chip-wide), but an
//!   interaction verdict reads nets through two relations only: whether
//!   the pair shares a net, and whether a transistor holding one element
//!   has a terminal on the other's net ([`crate::netgen::GraphNets`]); it
//!   never reads a net's name (contexts are instance paths, and a
//!   spacing line carries `same_net` as a bool). A relation between two
//!   survivors can flip only where the splice re-derived a net: a
//!   survivor on a kept net keeps its key, and a fresh net is never a
//!   kept one, so a survivor that stayed and one that moved (to a fresh
//!   net from a retired one) were apart before and are apart after. The
//!   candidates are therefore the survivors on re-derived nodes (or
//!   re-keyed onto other nodes) and the surviving transistors with a
//!   re-derived terminal, found through the fresh nets' terminals; and
//!   of those only the ones on nets that split or merged — a retired net
//!   whose nodes all went to one fresh net, which holds no other retired
//!   net's nodes, was at most renamed, and flips nothing (nodes only the
//!   edit's own rows name count for neither). Candidates that made the
//!   same move keep their relation, so only the ones within reach of
//!   another move's bounding box are paired within rule reach, through
//!   one grid — a rail cut in two costs the elements along the cut —
//!   and only the ends of a pair whose old and new relation differ add
//!   their footprints to the dirty core. In debug builds every pair of
//!   survivors within reach whose relation differs is asserted to have
//!   an end there.
//! * **interactions re-run inside the halo only** — the dirty core's
//!   footprints are inflated by the technology's rule reach (the
//!   session's [`BoundTechnology`], the open's own) and kept as they
//!   are, no union taken: a rect touches a union of closed rects exactly
//!   when it touches one of them. The elements within one more reach of
//!   them come out of the session's persistent index
//!   ([`GridIndex::query_handles_many`]), and
//!   [`crate::interact::check_interactions_among`] searches that set by
//!   the direct scan, over a grid built once for it and only queried
//!   ([`FlatGrid`], as every dirty-region grid of an edit is; the
//!   element index is a `FlatGrid` too, plus lists by its cells of the
//!   elements entered since it was last built). Spacing markers
//!   are tight gap boxes (within the pair's gap of *both* elements), so
//!   cached violations whose marker misses the halo are provably
//!   unchanged and are kept; everything anchored inside the halo is
//!   retracted and re-found fresh. The fresh lines are sorted with
//!   [`crate::report::canonical_sort_keyed`] and merged into the kept
//!   ones ([`crate::report::merge_keyed`]) — the order
//!   [`canonical_check`] reports in, hence byte equality — each line's
//!   rendering kept beside it, so a kept line is never rendered again.
//! * **the reply is the patch's own** — the lines retracted against the
//!   lines found fresh, equal ones cancelled, in one merge walk over
//!   keys already rendered ([`crate::report::ReportDelta::between`]),
//!   is the multiset difference of the report before and after
//!   ([`CheckSession::last_delta`]); a full rebuild walks the two
//!   whole lists instead. In debug builds it is asserted equal to the
//!   diff of the two rendered reports.
//!
//! What is *not* invalidated incrementally: the net-list comparison
//! re-runs over the whole (spliced) net list every edit, and the
//! per-definition element checks re-run in full. In debug builds the
//! carried ERC and primitive-symbol lines and the waived list are
//! asserted equal to a whole-chip recompute, as the splice is asserted
//! against `assemble`. `tests/incremental.rs` holds the differential
//! oracle: random edit sequences where the session report must equal a
//! from-scratch check at every step, serial and parallel.
//!
//! What an edit still pays per chip, not per edit (the benchmark's
//! 8 101-element `edit-session` chip): the net patch's block moves of
//! the kept alias and net-terminal rows (one `copy_within` per block
//! whose offset changed), its walk of the device map and its rewrite of
//! every kept net's key and row end, O(nets + devices); re-canonicalising
//! the chip-wide VDD and GND nets whenever an edit touches one of them
//! (an inverter's edit does), which the search, the canonicalisation
//! and the relation diff all walk (the diff the elements on every
//! re-derived node, once). Beside them some plain integer
//! passes are linear too: the old → new id maps, the dirty and seed
//! masks, renumbering the cached merges, and moving the device rows
//! and element nodes that lie after the first item whose run changed
//! length.
//!
//! # One way in, one plan per edit
//!
//! **Opening** a session ([`CheckSession::new`]) — and the full rebuild
//! an edit falls back to when it dirties ≥ 30 % of the chip — *is* the
//! pipeline run [`check`] makes, and the session keeps the artefacts
//! that run hands back (binding, view, per-item run lengths, merges, net
//! graph and its node → net resolution) where [`check`] drops them, and
//! builds what only an edit needs beside them: the element index, the
//! net index over the graph and the `PointIndex` of label positions
//! and of the few devices the element index cannot find.
//! There is no second copy of the pipeline here. The rebuild and
//! [`CheckSession::compact_memory`] both reopen the session — one
//! private `reopen` drops the old artefacts, then opens again on the
//! current layout — so neither a name, a node nor an element-index
//! handle is ever renumbered: a session sheds the strings and nodes
//! edits orphaned, and the index slots they left dead, by starting
//! afresh.
//! An apply whose churn has left more dead index slots than live
//! elements ends in that reopen ([`EditStats::index_compacted`]).
//!
//! **An edit** ([`CheckSession::apply`]) first becomes an `EditPlan`: a
//! pure function of the layout, the per-item run lengths and the
//! [`EditSet`] that validates every index *as the edits before it left
//! the list*, simulates the slot list (where each surviving item came
//! from, which re-instantiate), closes the replaced symbols over their
//! callers, and counts dirty against total elements (the 30 % rule).
//! **Every rejection happens there, before anything is mutated** —
//! out-of-bounds items, unknown symbols, moves that would carry an item
//! past `±`[`MAX_COORD`] (however many in-range steps it takes), and
//! `replace_symbol` bodies that would leave the symbol table dangling,
//! recursive or deeper than [`MAX_CALL_DEPTH`] (the first hierarchy
//! walk of such a table overflows the stack), and `add_call` /
//! `replace_symbol` sets that would leave the layout instantiating more
//! than [`MAX_FLAT_ELEMENTS`] elements flat. A planned
//! edit cannot fail. The steps then run in order, each returning a named
//! product the next ones borrow, each under the [`EditStats`] clock in
//! brackets:
//!
//! 1. `evict_footprints` \[`t_view`\] — old footprints of every run that
//!    leaves the view, out of the element index;
//! 2. `patch_view` \[`t_view`\] — re-bind layers, then patch the view
//!    in place: a dirty item whose run keeps its lengths goes back over
//!    its own run, and only the runs after the first length change are
//!    laid back; the seed set, and the auto net keys of the identity
//!    groups it touches, from the element index;
//! 3. `patch_connections` \[`t_conn`\] — scoped pass over the seed set;
//! 4. `patch_net_graph` \[`t_net`\] — element nodes, connection edges,
//!    and the graph delta they make;
//! 5. `rebind_rows` \[`t_net`\] — device and label rows near the edit,
//!    found through the element index and the `PointIndex`;
//! 6. `splice_nets` \[`t_net`\] — the net index patched; the cached net
//!    list reused (a net-neutral edit) or spliced, with the nets it built
//!    fresh and the names of the ones it dissolved; the relation diff
//!    (`net_moves`, `flipped_endpoints`); the halo rects;
//! 7. `recheck_halo` \[`t_interact`\] — the elements within one reach of
//!    the halo, in one pass over the element index; interactions among
//!    them;
//! 8. `rerun_global_stages` \[`t_global`\] — element checks and the
//!    net-list comparison in full, primitive-symbol checks if a symbol
//!    was replaced, ERC over the fresh nets;
//! 9. `patch_report` \[`t_patch`\] — retract (ERC lines by retired net
//!    name, primitive-symbol lines only when they re-ran), splice,
//!    merge, and the delta;
//! 10. `commit` \[`t_commit`\] — install the products, and reopen
//!     after heavy churn of the element index.
//!
//! No step is longer than 150 lines (`clippy::too_many_lines` is denied
//! in this file, the threshold is in the root `clippy.toml`).
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

#![deny(clippy::too_many_lines)]

use crate::binding::{
    assign_auto_net_keys, instantiate_item, ChipView, InstantiateStats, Istr, LayerBinding, Name,
    StringInterner,
};
use crate::checker::{check, CheckOptions, CheckReport};
use crate::connect::{check_connections_among, ConnectionResult};
use crate::element_checks::check_elements;
use crate::engine::{
    erc_violations, netlist_mismatch_violations, run_pipeline, DiagnosticSink, SessionArtefacts,
    Sink,
};
use crate::interact::{check_interactions_among, check_same_mask, InteractStats};
use crate::library::{BoundTechnology, Definitions};
use crate::netgen::{
    element_is_netted, BindIndex, DeviceParts, GraphDelta, NetIndex, NetParts, NetSplice,
};
use crate::primitive_checks::check_primitive_symbols;
use crate::report::{
    canonical_sort, canonical_sort_keyed, merge_keyed, ranked, stage_rank, ReportDelta,
};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::hierarchy::{
    check_acyclic, flat_elements, HierarchyError, MAX_CALL_DEPTH, MAX_FLAT_ELEMENTS,
};
use diic_cif::{Call, Element, Item, Layout, NetLabel, Shape, SymbolId};
use diic_geom::{FlatGrid, GridIndex, Point, Rect, Transform, Vector, MAX_COORD};
use diic_netlist::{NetId, Netlist};
use diic_tech::Technology;

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
    /// A called or replaced symbol id does not exist — an
    /// [`Edit::AddCall`]'s or [`Edit::ReplaceSymbol`]'s symbol, or the
    /// target of a call in a replacement body.
    UnknownSymbol(SymbolId),
    /// With the set's [`Edit::ReplaceSymbol`] bodies in place, calls
    /// would form a cycle through this symbol.
    RecursiveSymbol(SymbolId),
    /// With the set's [`Edit::ReplaceSymbol`] bodies in place, this
    /// symbol's longest call chain would be more than [`MAX_CALL_DEPTH`]
    /// symbols long — the CIF parser's bound.
    TooDeep(SymbolId),
    /// With the set applied, the layout would instantiate more than
    /// [`MAX_FLAT_ELEMENTS`] elements flat — the CIF parser's bound.
    /// Checked for a set that adds a call or replaces a symbol: only
    /// those can multiply the count.
    TooLarge {
        /// The flat element count the set would leave (saturating).
        elements: u64,
    },
    /// An [`Edit::MoveItem`] would put a coordinate of the item — a point
    /// of an element's shape, or a call's translation — outside
    /// `±`[`MAX_COORD`], the bound the CIF parser and the wire decoder
    /// hold every coordinate to. Moves of one item within a set add up.
    OutOfRange {
        /// The moved item's index at its point in the sequence.
        index: usize,
        /// The translation that was refused.
        by: Vector,
    },
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::ItemOutOfBounds { index, len } => {
                write!(f, "top-level item index {index} out of bounds (len {len})")
            }
            EditError::OutOfRange { index, by } => write!(
                f,
                "top-level item {index} moved by ({}, {}) is outside the coordinate range \
                 ±{MAX_COORD}",
                by.x, by.y
            ),
            EditError::UnknownSymbol(s) => write!(f, "unknown symbol id {}", s.0),
            EditError::RecursiveSymbol(s) => {
                write!(f, "replace_symbol makes symbol id {} call itself", s.0)
            }
            EditError::TooDeep(s) => write!(
                f,
                "replace_symbol makes symbol id {} nest calls more than {MAX_CALL_DEPTH} deep",
                s.0
            ),
            EditError::TooLarge { elements } => write!(
                f,
                "the edit set makes the layout instantiate {elements} elements, more than the \
                 {MAX_FLAT_ELEMENTS} a check allows"
            ),
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
    /// Elements the view patch wrote: the re-instantiated ones, and the
    /// kept ones it laid back after the first item whose run changed
    /// length. Every element before that item stays where it was.
    pub elements_rewritten: usize,
    /// Surviving elements at either end of a pair within rule reach
    /// whose net relation the splice flipped — sharing a net, or a
    /// transistor holding one having a terminal on the other's net: the
    /// footprints the relation diff added to the halo. Zero when no net
    /// split or merged.
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
    /// graph row could reach); every other net was kept in place in the
    /// cached list. Zero on a reused list and on a full rebuild.
    pub nets_respliced: usize,
    /// Live graph nodes in those components.
    pub nodes_respliced: usize,
    /// Net-list rows the splice wrote — the fresh nets' aliases and
    /// terminals, new devices and their terminals, survivors' terminals
    /// moved onto fresh nets — not the kept rows it moved or renumbered.
    pub(crate) net_rows_written: usize,
    /// Elements the interaction pass searched: every element within one
    /// rule reach of the halo — the dirty and the net-dirty footprints,
    /// each inflated by the rule reach.
    pub halo_elements: usize,
    /// True when the per-definition primitive-symbol checks re-ran —
    /// the edit set replaced a symbol's body. Otherwise their report
    /// lines and the waived-device list carried over.
    pub primitives_rechecked: bool,
    /// True when this apply reopened the session at its end
    /// ([`CheckSession::compact_memory`]) to shed its element index's
    /// dead slots — tombstones from edit churn had come to outnumber the
    /// live elements. The report and net list are the same either way.
    pub index_compacted: bool,
    /// True when an insert of this apply rebuilt the base grid of the
    /// session's element index ([`diic_geom::GridIndex::rebuilds`]): the
    /// elements entered since its last rebuild had passed an eighth of
    /// the live count, and that insert paid for a pass over them all.
    pub index_rebuilt: bool,
    /// Wall clock of the view: evicting the old footprints, re-binding
    /// layers, patching the view in place (dirty items re-instantiated),
    /// the seed set and the auto net-key rekey. On a full rebuild, the
    /// whole re-open.
    pub t_view: std::time::Duration,
    /// Wall clock of the scoped connection pass.
    pub t_conn: std::time::Duration,
    /// Wall clock of the net-graph patch + net-list splice + relation
    /// diff.
    pub t_net: std::time::Duration,
    /// Wall clock of the scoped interaction pass.
    pub t_interact: std::time::Duration,
    /// Wall clock of the global stages: element checks and the net-list
    /// comparison in full, the primitive-symbol checks on a
    /// `replace_symbol`, ERC over the nets the splice built fresh.
    /// Layer binding is not among them: it runs in the view patch,
    /// under `t_view`.
    pub t_global: std::time::Duration,
    /// Wall clock of the report retract/splice/sort.
    pub t_patch: std::time::Duration,
    /// Wall clock of the commit: installing the new artefacts, dropping
    /// the ones they replace, and the occasional reopen that sheds the
    /// element index's churn.
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

/// A slot in the edited top-item list: where it came from and whether
/// it must re-instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    origin: Option<usize>,
    dirty: bool,
}

/// One [`EditSet`] resolved against the layout and the per-item runs it
/// is about to change: what [`CheckSession::apply`]'s steps read instead
/// of the edits. A pure function of its inputs, built before anything
/// is mutated — a set is rejected here or not at all.
#[derive(Debug)]
struct EditPlan {
    /// The top-item list as the set leaves it, in order.
    slots: Vec<Slot>,
    /// Old indices of the removed items, in removal order.
    removed: Vec<usize>,
    /// `(element, device)` id at which each old item's run starts.
    offsets: Vec<(usize, usize)>,
    /// Elements of the removed and the re-instantiated old items.
    dirty_elements: usize,
    /// Elements of the chip before the edit.
    total_elements: usize,
    /// The set replaces a symbol's body: the only edit that can change
    /// what the per-definition primitive-symbol checks report.
    replaces_symbol: bool,
}

impl EditPlan {
    /// Validates `edits` in sequence — an index addresses the list as
    /// the edits before it left it — and simulates the slot list.
    /// `runs` are the `(elements, devices)` run lengths of `layout`'s
    /// top-level items.
    fn new(
        layout: &Layout,
        runs: &[(usize, usize)],
        edits: &EditSet,
    ) -> Result<EditPlan, EditError> {
        let symbols = layout.symbols().len();
        let known = |symbol: SymbolId| {
            let known = (symbol.0 as usize) < symbols;
            (known.then_some(symbol.0 as usize)).ok_or(EditError::UnknownSymbol(symbol))
        };
        let in_bounds = |index: usize, len: usize| {
            (index < len)
                .then_some(index)
                .ok_or(EditError::ItemOutOfBounds { index, len })
        };
        let fresh = Slot {
            origin: None,
            dirty: true,
        };
        let mut slots: Vec<Slot> = (0..layout.top_items().len())
            .map(|i| Slot {
                origin: Some(i),
                dirty: false,
            })
            .collect();
        let mut removed = Vec::new();
        // Per slot, where its coordinates lie once the set has moved it
        // (`coordinate_extent`): each move is held to the range from
        // there, so in-range steps cannot walk an item out of it. Items
        // the set adds start at their own extent; kept ones are read
        // from the layout on their first move.
        let mut extents: Vec<Option<Rect>> = vec![None; slots.len()];
        // Per slot, the symbol it calls (`None`: an element) — what the
        // element budget counts.
        let mut targets: Vec<Option<SymbolId>> = (layout.top_items().iter())
            .map(|item| match item {
                Item::Call(c) => Some(c.target),
                Item::Element(_) => None,
            })
            .collect();
        let mut adds_call = false;
        // The body each replaced symbol ends up with (the last of
        // several replaces wins); empty until the set replaces one.
        let mut bodies: Vec<Option<&[Item]>> = Vec::new();
        for edit in &edits.edits {
            match edit {
                Edit::AddElement { shape, .. } => {
                    slots.push(fresh);
                    extents.push(Some(shape_extent(shape)));
                    targets.push(None);
                }
                Edit::AddCall {
                    symbol, transform, ..
                } => {
                    known(*symbol)?;
                    slots.push(fresh);
                    extents.push(Some(point_extent(transform.offset)));
                    targets.push(Some(*symbol));
                    adds_call = true;
                }
                Edit::RemoveItem { index } => {
                    let index = in_bounds(*index, slots.len())?;
                    removed.extend(slots.remove(index).origin);
                    extents.remove(index);
                    targets.remove(index);
                }
                Edit::MoveItem { index, by } => {
                    let index = in_bounds(*index, slots.len())?;
                    let extent = extents[index].unwrap_or_else(|| {
                        // invariant: only kept slots start without an extent.
                        let origin = slots[index].origin.expect("added slots carry an extent");
                        coordinate_extent(&layout.top_items()[origin])
                    });
                    let moved = translated_in_range(extent, *by)
                        .ok_or(EditError::OutOfRange { index, by: *by })?;
                    extents[index] = Some(moved);
                    slots[index].dirty = true;
                }
                Edit::ReplaceSymbol { symbol, items } => {
                    bodies.resize(symbols, None);
                    bodies[known(*symbol)?] = Some(items);
                }
            }
        }
        // A replace that leaves a symbol's body as it is changes
        // nothing: its callers stay clean.
        for (body, symbol) in bodies.iter_mut().zip(layout.symbols()) {
            if *body == Some(symbol.items.as_slice()) {
                *body = None;
            }
        }
        if bodies.iter().all(Option::is_none) {
            bodies.clear();
        }
        if !bodies.is_empty() {
            check_replaced_bodies(layout, &bodies)?;
        }
        if adds_call || !bodies.is_empty() {
            check_element_budget(layout, &bodies, &targets)?;
        }
        if !bodies.is_empty() {
            let dirty_symbols = dirty_symbol_closure(layout, &bodies);
            for slot in &mut slots {
                if let Some(Item::Call(c)) = slot.origin.map(|o| &layout.top_items()[o]) {
                    slot.dirty |= dirty_symbols[c.target.0 as usize];
                }
            }
        }
        let mut plan = EditPlan {
            slots,
            removed,
            offsets: run_offsets(runs),
            dirty_elements: 0,
            total_elements: runs.iter().map(|run| run.0).sum(),
            replaces_symbol: !bodies.is_empty(),
        };
        plan.dirty_elements = plan.stale_origins().map(|o| runs[o].0).sum();
        Ok(plan)
    }

    /// The old items whose runs leave the view: the removed ones, then
    /// the ones that re-instantiate.
    fn stale_origins(&self) -> impl Iterator<Item = usize> + '_ {
        let dirty = self.slots.iter().filter(|s| s.dirty);
        (self.removed.iter().copied()).chain(dirty.filter_map(|s| s.origin))
    }

    /// Degradation guard: when the edit dirties a large fraction of the
    /// chip (a definition instantiated everywhere, a shuffled
    /// floorplan), patching costs more than recomputing — the halo
    /// covers everything and every cache misses. Rebuild instead; the
    /// result is the same canonical report either way.
    fn rebuild_reason(&self) -> Option<RebuildReason> {
        let (dirty, total) = (self.dirty_elements, self.total_elements);
        (total > 0 && dirty * 10 >= total * 3)
            .then_some(RebuildReason::DirtyFraction { dirty, total })
    }
}

/// Where the view patch's re-lay put each element and device.
#[derive(Debug)]
struct Relaid {
    /// Old element id → new (`None` for a removed or re-instantiated one).
    old_to_new: Vec<Option<usize>>,
    /// New device id → old (`None` for a re-instantiated one).
    dev_old_of_new: Vec<Option<usize>>,
    /// The re-instantiated elements, ascending.
    fresh: Vec<usize>,
    /// The re-instantiated devices, ascending.
    fresh_devices: Vec<usize>,
    /// The `(element, device)` ids the re-lay started at: every element
    /// and device before them kept its id (or was re-instantiated in
    /// place).
    split: (usize, usize),
    /// Every item kept its slot and its run lengths.
    aligned: bool,
}

/// What the view patch hands the later steps: the patched view, how old
/// ids map onto it, and what the edit disturbed.
#[derive(Debug)]
struct ViewPatch {
    binding: LayerBinding,
    /// Layer-binding violations, then the dirty items' instantiation
    /// violations: the head of the re-run global stages' output.
    violations: Vec<Violation>,
    view: ChipView,
    /// Old element id → new (`None` for a removed or re-instantiated one).
    old_to_new: Vec<Option<usize>>,
    /// New device id → old (`None` for a re-instantiated one).
    dev_old_of_new: Vec<Option<usize>>,
    /// Per new element: belongs to a re-instantiated item.
    dirty: Vec<bool>,
    /// The re-instantiated elements, ascending.
    dirty_ids: Vec<usize>,
    /// The re-instantiated devices, ascending.
    fresh_devices: Vec<usize>,
    /// The `(element, device)` ids the re-lay started at.
    split: (usize, usize),
    /// The seed elements, ascending: dirty, or touching a dirty
    /// footprint — the elements whose pair verdicts, duplicate-key
    /// ordinals or bindings could have changed.
    seeds: Vec<usize>,
    /// `seeds` as a mask over the new elements.
    seed: Vec<bool>,
    /// Elements whose auto net key was re-derived.
    rekeyed: Vec<usize>,
    /// `rekeyed` as a mask over the new elements.
    rekeyed_mask: Vec<bool>,
    /// `(old id, index handle)` of every element whose run left the
    /// view, ascending by old id.
    evicted: Vec<(usize, u32)>,
    /// Old and new footprints with area of every dirty element: the
    /// connection dirty region, as the grid the steps test against (its
    /// rects are the footprints). Every dirty region of an edit is such a
    /// grid, built once and only queried, for fast "does this bbox touch
    /// the region" predicates: a whole-chip region can hold thousands of
    /// rects, and a linear scan such as [`diic_geom::Region::touches_rect`]
    /// is the wrong tool for per-element loops.
    d_conn_grid: FlatGrid,
    /// Every item kept its slot and its run lengths.
    aligned: bool,
}

/// What the connection patch hands the net steps and the report patch.
#[derive(Debug)]
struct ConnPatch {
    /// The chip's merges, kept ones renumbered, ascending.
    merges: Vec<(usize, usize)>,
    /// The scoped pass over the seed set (merges ascending).
    scoped: ConnectionResult,
    /// The graph edge of each merge, aligned with `merges`: a kept
    /// merge's carried across, the rest (`unset`) filled in by the graph
    /// patch once the element nodes are.
    edges: Vec<(u32, u32)>,
    /// Positions in `merges` of the scoped pass's merges and of the kept
    /// ones with a re-keyed end, ascending.
    unset: Vec<usize>,
    /// The cached merges among seed elements, which the scoped pass's
    /// verdicts replace, as new ids, ascending, each with its edge in
    /// the cached graph.
    old_seed_merges: Vec<((usize, usize), (u32, u32))>,
    /// The connection edges that left the graph with a cached merge: one
    /// that lost an end, and a kept one with a re-keyed end.
    gone_edges: Vec<(u32, u32)>,
}

/// The net graph's change so far: the rows and edges that left it and
/// entered it — what [`NetIndex::patch`] and [`NetIndex::splice`] read
/// — and whether it still provably equals the cached graph.
#[derive(Debug)]
struct GraphPatch {
    delta: GraphDelta,
    /// `(id, old node)` of every surviving element whose node the
    /// auto-key pass changed.
    rekeyed_from: Vec<(usize, u32)>,
    net_neutral: bool,
}

/// What the net steps hand the halo re-check, the global stages and
/// the report patch.
#[derive(Debug)]
struct NetPatch {
    netlist: Netlist,
    /// The nets of `nets` the splice built fresh, ascending — none on a
    /// reused list. Every other net was kept in place with its name,
    /// aliases, terminals and device classes, so ERC re-runs on these
    /// alone.
    fresh_nets: Vec<NetId>,
    /// Canonical names of the old nets the splice dissolved, ascending:
    /// the contexts of the cached ERC lines it retracts. A kept net's
    /// name is none of them — a name is a node key, and a node is in one
    /// net.
    retired_names: Vec<String>,
    /// The interaction halo: every dirty or net-dirty footprint with
    /// area, inflated by the rule reach — as they are, no union taken
    /// (a rect touches a union of closed rects exactly when it touches
    /// one of them). One grid over them serves the scoped search's
    /// marker filter and the report patch's retraction predicate — they
    /// must agree bit for bit.
    d_halo_grid: FlatGrid,
}

/// How a net-list splice moved what survives the edit between nets
/// ([`CheckSession::net_moves`]), restricted to the nets that split or
/// merged: the only moves that can flip a net relation.
#[derive(Debug, Default)]
struct NetMoves {
    /// `(element, old net, new net)` of each surviving netted element
    /// that moved — old nets as ids into the old list, new ones into the
    /// spliced list.
    elements: Vec<(usize, NetId, NetId)>,
    /// `(device, old net, new net)` of each terminal of a surviving
    /// transistor that moved, ascending by device.
    terminals: Vec<(usize, NetId, NetId)>,
}

/// The net relations an interaction verdict reads
/// ([`CheckSession::net_relations`]): the debug oracle of the relation
/// diff takes them before an edit and after it.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct NetRelations {
    /// Per element: its net (`None`: un-netted).
    element_net: Vec<Option<NetId>>,
    /// Per device: where its terminals' nets start in `term_net`, and
    /// one past the last device, where they end.
    term_start: Vec<usize>,
    term_net: Vec<NetId>,
}

#[cfg(debug_assertions)]
impl NetRelations {
    /// Elements `i` and `j` share a net.
    fn same_net(&self, i: usize, j: usize) -> bool {
        matches!((self.element_net[i], self.element_net[j]), (Some(a), Some(b)) if a == b)
    }

    /// Device `d` has a terminal on element `other`'s net.
    fn related(&self, d: usize, other: usize) -> bool {
        let terms = &self.term_net[self.term_start[d]..self.term_start[d + 1]];
        self.element_net[other].is_some_and(|net| terms.contains(&net))
    }
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
    pub(crate) view: ChipView,
    /// Per top-level item `(elements, devices)` run lengths: the unit
    /// of view reuse.
    runs: Vec<(usize, usize)>,
    merges: Vec<(usize, usize)>,
    parts: NetParts,
    /// The net graph's index — rows per node, edges, the elements on
    /// each node (by `elem_index` handle) and each node's net by its
    /// key in the report's net list — built at open and patched per
    /// edit, so the splice costs the nets it rebuilds.
    pub(crate) nets: NetIndex,
    /// Persistent spatial index over element bboxes (a
    /// [`diic_geom::GridIndex`]: a grid over the elements at its last
    /// rebuild plus the ones entered since): dirty-region queries cost
    /// the neighbourhood, not a whole-chip scan. Each entry's payload is
    /// its element's current id: no handle is renumbered while it lives,
    /// and the re-lay rewrites the payloads of the elements it moves.
    elem_index: GridIndex<u32>,
    /// Element id → its handle in `elem_index`.
    elem_handles: Vec<u32>,
    /// The label positions and the devices the element index cannot
    /// find by their terminals, for the re-bind step's question of which
    /// rows the edit reaches.
    points: PointIndex,
    report: CheckReport,
    /// Each report line's rendering, aligned with `report.violations`:
    /// the canonical sort key, computed once when the line entered the
    /// report, so neither the merge nor the delta renders a kept line.
    keys: Vec<String>,
    /// The lines the last [`CheckSession::apply`] added and removed.
    delta: ReportDelta,
    /// True once an apply has patched the session since it was opened:
    /// only then has a reopen churn garbage to shed.
    patched: bool,
}

impl CheckSession {
    /// Opens a session: runs the pipeline [`check`] runs and keeps
    /// every artefact. The session owns the layout; edits go through
    /// [`CheckSession::apply`].
    pub fn new(layout: Layout, tech: &Technology, options: &CheckOptions) -> CheckSession {
        let bound = BoundTechnology::new(tech);
        let seed = StringInterner::default();
        let mut sink = DiagnosticSink::new();
        let (mut report, artefacts) =
            run_pipeline(&layout, tech, options, &bound, None, seed, &mut sink);
        // The stage profile is dropped: `CheckReport::is_clean` reads
        // its per-stage counts, and a patched report would carry the
        // open's stale ones.
        report.stage_profile = Vec::new();
        let keys;
        (report.violations, keys) = canonical_sort_keyed(std::mem::take(&mut report.violations));
        let SessionArtefacts {
            binding,
            view,
            runs,
            merges,
            mut parts,
            ..
        } = artefacts;
        let bboxes = view.elements.bboxes();
        let ids = (0..).zip(bboxes).map(|(id, &b)| (b, id));
        let elem_index = GridIndex::from_items(ids, bound.cell_size());
        let elem_handles: Vec<u32> = (0..bboxes.len() as u32).collect();
        let nets = NetIndex::new(&mut parts, |id| elem_handles[id]);
        let points = PointIndex::build(&view, layout.labels(), &elem_handles, bound.cell_size());
        CheckSession {
            layout,
            tech: tech.clone(),
            options: options.clone(),
            bound,
            binding,
            view,
            runs,
            merges,
            parts,
            nets,
            points,
            elem_index,
            elem_handles,
            report,
            keys,
            delta: ReportDelta::default(),
            patched: false,
        }
    }

    /// Opens the session again on its current layout, technology and
    /// options ([`CheckSession::new`]), and hands back the old report's
    /// lines with their keys. The view, the net graph, the element index
    /// and the tables beside them go first, so the open never holds two
    /// of them at once.
    fn reopen(&mut self) -> (Vec<Violation>, Vec<String>) {
        use std::mem::take;
        let layout = take(&mut self.layout);
        let lines = (take(&mut self.report.violations), take(&mut self.keys));
        (self.view, self.parts, self.nets) = Default::default();
        (self.runs, self.merges, self.elem_handles) = Default::default();
        self.report.netlist = Netlist::default();
        self.elem_index = GridIndex::new(1);
        *self = CheckSession::new(layout, &self.tech, &self.options);
        lines
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

    /// The lines the last [`CheckSession::apply`] added to the report
    /// and removed from it, rendered as report lines: the multiset
    /// difference of the report before and after, `added` in the new
    /// report's order and `removed` in the old one's — byte for byte
    /// what diffing the two whole reports gives. It is taken from the
    /// patch (the lines it retracted against the lines it found fresh),
    /// so it costs the lines the edit changed, not the report. Empty
    /// before the first apply; an apply that fails leaves it as it was.
    pub fn last_delta(&self) -> &ReportDelta {
        &self.delta
    }

    /// A from-scratch check of the current layout, canonically sorted —
    /// the oracle [`CheckSession::report`] must match.
    pub fn full_check(&self) -> CheckReport {
        canonical_check(&self.layout, &self.tech, &self.options)
    }

    /// Applies an edit batch and patches the cached report: an
    /// `EditPlan`, then the steps below in order, each under the
    /// [`EditStats`] clock named beside it (the module docs list them).
    /// On error the session (including the layout) is untouched.
    pub fn apply(&mut self, edits: &EditSet) -> Result<EditStats, EditError> {
        let clock = std::time::Instant::now;
        let t0 = clock();
        let plan = EditPlan::new(&self.layout, &self.runs, edits)?;
        let mut stats = EditStats::default();
        if let Some(reason) = plan.rebuild_reason() {
            apply_layout_edits(&mut self.layout, edits);
            let (old, old_keys) = self.reopen();
            let new = ranked(&self.report.violations, &self.keys);
            self.delta = ReportDelta::between(ranked(&old, &old_keys), new);
            debug_assert_eq!(
                self.delta,
                ReportDelta::by_rendering(&old, &self.report.violations),
                "the rebuild's delta diverged from a rendered diff"
            );
            stats.dirty_items = plan.slots.iter().filter(|s| s.dirty).count();
            stats.dirty_elements = plan.dirty_elements;
            (stats.full_rebuild, stats.rebuild_reason) = (true, Some(reason));
            stats.t_view = t0.elapsed();
            return Ok(stats);
        }
        let (foot, evicted) = self.evict_footprints(&plan);
        apply_layout_edits(&mut self.layout, edits);
        let rebuilds = self.elem_index.rebuilds();
        let mut view = self.patch_view(&plan, foot, evicted, &mut stats);
        stats.index_rebuilt = self.elem_index.rebuilds() != rebuilds;
        stats.t_view = t0.elapsed();

        let t0 = clock();
        let mut conn = self.patch_connections(&view, &mut stats);
        stats.t_conn = t0.elapsed();

        let t0 = clock();
        #[cfg(debug_assertions)]
        let nets_before = self.net_relations(&self.report.netlist);
        let mut graph = self.patch_net_graph(&view, &mut conn);
        self.rebind_rows(&mut view, &mut graph);
        let nets = self.splice_nets(&mut view, graph, &mut stats);
        #[cfg(debug_assertions)]
        self.assert_flipped_pairs_meet_the_halo(&nets_before, &view, &nets);
        stats.t_net = t0.elapsed();

        let t0 = clock();
        let (interactions, interact_stats) = self.recheck_halo(&view, &nets, &mut stats);
        stats.rechecked_pairs = interact_stats.candidate_pairs;
        stats.t_interact = t0.elapsed();

        let t0 = clock();
        stats.primitives_rechecked = plan.replaces_symbol;
        let (global, waived) = self.rerun_global_stages(&mut view, &nets, plan.replaces_symbol);
        stats.t_global = t0.elapsed();

        let t0 = clock();
        let connections = std::mem::take(&mut conn.scoped.violations);
        let cached = (
            std::mem::take(&mut self.report.violations),
            std::mem::take(&mut self.keys),
        );
        let fresh = [global, connections, interactions];
        let (violations, keys, delta) = self.patch_report(cached, fresh, &view, &nets, &mut stats);
        let waived_devices =
            waived.unwrap_or_else(|| std::mem::take(&mut self.report.waived_devices));
        #[cfg(debug_assertions)]
        self.assert_carried_lines_match_a_recompute(&violations, &waived_devices, &view, &nets);
        stats.t_patch = t0.elapsed();

        // Consumes the products, so the commit also pays for dropping
        // what the steps left behind.
        let t0 = clock();
        (self.keys, self.delta) = (keys, delta);
        stats.index_compacted =
            self.commit(view, conn, nets, violations, interact_stats, waived_devices);
        stats.t_commit = t0.elapsed();
        Ok(stats)
    }

    /// The ids of the elements whose bbox touches one of `rects`, each
    /// once, ascending by index handle, from the persistent index: cost
    /// follows the queries, not the chip.
    fn elements_touching<'a>(&'a self, rects: &[Rect]) -> impl Iterator<Item = usize> + 'a {
        let handles = self.elem_index.query_handles_many(rects).into_iter();
        handles.map(|h| self.element_of(h))
    }

    /// The current id of the live element behind an index handle.
    fn element_of(&self, handle: u32) -> usize {
        // invariant: callers hold handles the index answered, or ones a
        // net index node names, and both are live.
        *self.elem_index.get(handle).expect("a live handle").1 as usize
    }

    /// The ids of the elements whose bbox ⊕ `reach` touches one of
    /// `rects`, ascending: the elements touching one of those rects ⊕
    /// `reach`, as inflating either box by the reach is the same test.
    fn elements_near(&self, rects: &[Rect], reach: i64) -> Vec<usize> {
        let queries: Vec<Rect> = rects.iter().filter_map(|r| r.inflate(reach)).collect();
        let mut ids: Vec<usize> = self.elements_touching(&queries).collect();
        ids.sort_unstable();
        ids
    }

    /// Step 1 (`t_view`): the footprints of every run that leaves the
    /// view, read from the cached view and evicted from the element
    /// index (survivor entries stay put — their bboxes are unchanged),
    /// with the evicted elements' old ids and handles, ascending.
    fn evict_footprints(&mut self, plan: &EditPlan) -> (Vec<Rect>, Vec<(usize, u32)>) {
        let (mut foot, mut evicted) = (Vec::new(), Vec::new());
        for o in plan.stale_origins() {
            let run = plan.offsets[o].0..plan.offsets[o].0 + self.runs[o].0;
            foot.extend_from_slice(&self.view.elements.bboxes()[run.clone()]);
            for (id, &handle) in run.clone().zip(&self.elem_handles[run]) {
                self.elem_index.remove(handle);
                evicted.push((id, handle));
            }
        }
        evicted.sort_unstable();
        (foot, evicted)
    }

    /// Step 2 (`t_view`), on the edited layout: re-binds layers (the
    /// name set may have grown) and patches the view where it lies
    /// ([`CheckSession::relay_view`]) — re-instantiated items enter the
    /// element index — then derives what the edit disturbed: `foot`
    /// grows by the new footprints, the seed set comes out of the index,
    /// auto net keys re-derive ([`CheckSession::rekey_auto_nets`]).
    fn patch_view(
        &mut self,
        plan: &EditPlan,
        mut foot: Vec<Rect>,
        evicted: Vec<(usize, u32)>,
        stats: &mut EditStats,
    ) -> ViewPatch {
        let (binding, mut violations) = LayerBinding::bind(&self.layout, &self.tech);
        // The names survive the patch: the string table, the instance
        // table and the node space are append-only and never renumbered,
        // so the kept runs' names stay valid and fresh items settle into
        // the same tables (stale strings and nodes simply stop being
        // referenced until a reopen starts fresh ones).
        let mut view = std::mem::take(&mut self.view);
        view.instantiate_stats = InstantiateStats::default();
        let relaid = self.relay_view(plan, &binding, &mut view, &mut foot, stats);
        // The patch cannot regenerate *clean* items' instantiation
        // violations (it never re-walks them), which is sound only
        // because the walk produces none. If `ChipView::violations` ever
        // gains a producer, cache them per item run before relying on
        // report patching.
        debug_assert!(
            view.violations.is_empty(),
            "instantiate-time violations are not cached per item run yet; \
             CheckSession::apply would silently drop them for clean items"
        );
        violations.append(&mut view.violations);

        // The connection dirty region is the footprints with area, as
        // they are: a bbox touches their union exactly when it touches
        // one of them, so no union is taken.
        foot.retain(|r| !r.is_degenerate());
        let mut dirty = vec![false; view.elements.len()];
        for &id in &relaid.fresh {
            dirty[id] = true;
        }
        let mut seeds = relaid.fresh.clone();
        seeds.extend(self.elements_touching(&foot));
        seeds.sort_unstable();
        seeds.dedup();
        let mut seed = vec![false; view.elements.len()];
        for &id in &seeds {
            seed[id] = true;
        }
        let rekeyed = self.rekey_auto_nets(&mut view, &seeds);
        let mut rekeyed_mask = vec![false; view.elements.len()];
        for &id in &rekeyed {
            rekeyed_mask[id] = true;
        }
        ViewPatch {
            binding,
            violations,
            view,
            old_to_new: relaid.old_to_new,
            dev_old_of_new: relaid.dev_old_of_new,
            dirty,
            dirty_ids: relaid.fresh,
            fresh_devices: relaid.fresh_devices,
            split: relaid.split,
            seeds,
            seed,
            rekeyed,
            rekeyed_mask,
            evicted,
            d_conn_grid: FlatGrid::new(foot, self.bound.cell_size()),
            aligned: relaid.aligned,
        }
    }

    /// Step 2's re-lay (`t_view`): writes the edited item list into
    /// `view`, in place. The items before the first slot whose run
    /// changes length are not touched, but for a re-instantiated one
    /// whose run keeps its lengths: it is walked into columns of its own
    /// and written over its run (`ElementColumns::overwrite_run`), so a
    /// move — most edits — costs its own item. From that first slot on
    /// (an item removed or added, or re-walked to another length) the
    /// rest is split off and laid back run by run. Element handles and
    /// their owners change only for the ids written.
    fn relay_view(
        &mut self,
        plan: &EditPlan,
        binding: &LayerBinding,
        view: &mut ChipView,
        foot: &mut Vec<Rect>,
        stats: &mut EditStats,
    ) -> Relaid {
        let (n_old, d_old) = (view.elements.len(), view.devices.len());
        let mut out = Relaid {
            old_to_new: (0..n_old).map(Some).collect(),
            dev_old_of_new: (0..d_old).map(Some).collect(),
            fresh: Vec::new(),
            fresh_devices: Vec::new(),
            split: (n_old, d_old),
            aligned: plan.slots.len() == self.runs.len(),
        };
        // Removed items never reach the loops below, but their evicted
        // footprints drive retraction and halo re-checks all the same —
        // count them as dirty work.
        stats.dirty_items = plan.removed.len();
        stats.dirty_elements = plan.removed.iter().map(|&o| self.runs[o].0).sum();
        let mut rewritten: Vec<std::ops::Range<usize>> = Vec::new();
        let mut k = 0;
        while let Some(&slot) = plan.slots.get(k).filter(|s| s.origin == Some(k)) {
            if slot.dirty {
                let ((oe, od), (elems, devices)) = (plan.offsets[k], self.runs[k]);
                let mut walked = ChipView {
                    strings: std::mem::take(&mut view.strings),
                    ..ChipView::default()
                };
                let item = &self.layout.top_items()[k];
                instantiate_item(&self.layout, &self.tech, binding, item, &mut walked);
                view.strings = std::mem::take(&mut walked.strings);
                let fits = walked.devices.len() == devices
                    && (view.elements).overwrite_run(oe..oe + elems, &walked.elements, od as i64);
                if !fits {
                    // Slot `k` is walked again where the split lays it.
                    break;
                }
                view.violations.append(&mut walked.violations);
                view.instantiate_stats.elements_walked += walked.instantiate_stats.elements_walked;
                for (t, mut dv) in walked.devices.into_iter().enumerate() {
                    for id in dv.element_ids.iter_mut() {
                        *id += oe;
                    }
                    view.devices[od + t] = dv;
                    out.dev_old_of_new[od + t] = None;
                    out.fresh_devices.push(od + t);
                }
                view.settle(oe..oe + elems, od..od + devices, false);
                out.old_to_new[oe..oe + elems].fill(None);
                self.enter_fresh_run(view, oe..oe + elems, &mut out.fresh, foot, stats);
                rewritten.push(oe..oe + elems);
            }
            k += 1;
        }

        // The rest, from slot `k`: split off, and laid back run by run.
        let (e_split, d_split) = plan.offsets.get(k).copied().unwrap_or((n_old, d_old));
        out.split = (e_split, d_split);
        let block = view.elements.split_off(e_split);
        let mut block_devs: Vec<_> = (view.devices.split_off(d_split).into_iter())
            .map(Some)
            .collect();
        let block_handles = self.elem_handles.split_off(e_split);
        let old_runs = self.runs.split_off(k);
        out.old_to_new[e_split..].fill(None);
        out.dev_old_of_new.truncate(d_split);
        for (j, slot) in plan.slots.iter().enumerate().skip(k) {
            let (e0, d0) = (view.elements.len(), view.devices.len());
            match slot.origin.filter(|_| !slot.dirty) {
                Some(o) => {
                    let ((se, sd), (elems, devices)) = (plan.offsets[o], old_runs[o - k]);
                    let (be, bd) = (se - e_split, sd - d_split);
                    view.elements
                        .append_run_from(&block, be..be + elems, d0 as i64 - sd as i64);
                    for t in 0..devices {
                        // invariant: each block device belongs to one run,
                        // which is laid back once.
                        let mut dv = block_devs[bd + t].take().expect("runs are disjoint");
                        for id in dv.element_ids.iter_mut() {
                            *id = *id - se + e0;
                        }
                        view.devices.push(dv);
                    }
                    self.elem_handles
                        .extend_from_slice(&block_handles[be..be + elems]);
                    for t in 0..elems {
                        out.old_to_new[se + t] = Some(e0 + t);
                    }
                    out.dev_old_of_new.extend((sd..sd + devices).map(Some));
                }
                None => {
                    let item = &self.layout.top_items()[j];
                    instantiate_item(&self.layout, &self.tech, binding, item, view);
                    view.settle(e0..view.elements.len(), d0..view.devices.len(), false);
                    let fresh = e0..view.elements.len();
                    self.enter_fresh_run(view, fresh, &mut out.fresh, foot, stats);
                    out.dev_old_of_new.resize(view.devices.len(), None);
                    out.fresh_devices.extend(d0..view.devices.len());
                }
            }
            let run = (view.elements.len() - e0, view.devices.len() - d0);
            out.aligned &= slot.origin == Some(j) && old_runs.get(j - k) == Some(&run);
            self.runs.push(run);
        }
        rewritten.push(e_split..view.elements.len());

        for id in rewritten.into_iter().flatten() {
            let owner = self.elem_index.get_mut(self.elem_handles[id]);
            // invariant: every element of the patched view is indexed.
            *owner.expect("a live handle") = id as u32;
            stats.elements_rewritten += 1;
        }
        debug_assert_eq!(self.elem_handles.len(), view.elements.len());
        out
    }

    /// Books the run `ids` of `view` as freshly walked: its elements
    /// enter the index (under new handles in `elem_handles`, which grows
    /// to cover them) and `fresh`, their footprints `foot`.
    fn enter_fresh_run(
        &mut self,
        view: &ChipView,
        ids: std::ops::Range<usize>,
        fresh: &mut Vec<usize>,
        foot: &mut Vec<Rect>,
        stats: &mut EditStats,
    ) {
        let bboxes = &view.elements.bboxes()[ids.clone()];
        foot.extend_from_slice(bboxes);
        let len = self.elem_handles.len().max(ids.end);
        self.elem_handles.resize(len, u32::MAX);
        for (id, &bbox) in ids.clone().zip(bboxes) {
            self.elem_handles[id] = self.elem_index.insert(bbox, id as u32);
        }
        stats.dirty_items += 1;
        stats.dirty_elements += ids.len();
        fresh.extend(ids);
    }

    /// Step 2's auto-key pass: re-derives the keys of the identity
    /// groups with a seed member. Duplicates share layer and bbox, so
    /// those groups are among the elements that share an undeclared
    /// seed's layer and bbox — which the element index finds, in
    /// ascending order once sorted, without a sweep of the chip.
    fn rekey_auto_nets(&self, view: &mut ChipView, seeds: &[usize]) -> Vec<usize> {
        let cols = &view.elements;
        let (layers, bboxes) = (cols.layers(), cols.bboxes());
        let undeclared = |id: usize| !cols.get(id).net_declared();
        let mut hot: Vec<(Rect, diic_tech::LayerId)> = (seeds.iter().copied())
            .filter(|&id| undeclared(id))
            .map(|id| (bboxes[id], layers[id]))
            .collect();
        hot.sort_unstable();
        hot.dedup();
        let boxes: Vec<Rect> = hot.iter().map(|&(bbox, _)| bbox).collect();
        let mut candidates: Vec<usize> = (self.elements_touching(&boxes))
            .filter(|&id| hot.binary_search(&(bboxes[id], layers[id])).is_ok())
            .collect();
        candidates.sort_unstable();
        assign_auto_net_keys(view, &candidates)
    }

    /// Step 3 (`t_conn`): re-scores the pairs among the seed elements
    /// ([`check_connections_among`]); every other cached merge is
    /// provably unchanged and only renumbers. The cached graph's edges
    /// are aligned with the cached merges, so a kept merge carries its
    /// edge across, and the edges that leave with a merge are read off
    /// as it goes.
    fn patch_connections(&self, vp: &ViewPatch, stats: &mut EditStats) -> ConnPatch {
        stats.seed_elements = vp.seeds.len();
        let mut scoped = check_connections_among(&vp.view, &self.tech, &self.bound, &vp.seeds);
        scoped.merges.sort_unstable();
        // Kept elements keep their order, so the cached merges stay
        // ascending as they renumber: the kept ones take the scoped
        // pass's in by one linear merge, and the ones among seeds (which
        // its verdicts replace) come out ascending too.
        debug_assert_eq!(self.merges.len(), self.parts.conn_edges.len());
        let (mut old_seed_merges, mut gone_edges, mut unset) = (Vec::new(), Vec::new(), Vec::new());
        let n = self.merges.len() + scoped.merges.len();
        let (mut merges, mut edges) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut fresh = scoped.merges.iter().copied().peekable();
        for (&(i, j), &edge) in self.merges.iter().zip(&self.parts.conn_edges) {
            let (Some(ni), Some(nj)) = (vp.old_to_new[i], vp.old_to_new[j]) else {
                gone_edges.push(edge);
                continue;
            };
            if vp.seed[ni] && vp.seed[nj] {
                old_seed_merges.push(((ni, nj), edge));
                continue;
            }
            while let Some(pair) = fresh.next_if(|&pair| pair < (ni, nj)) {
                unset.push(merges.len());
                merges.push(pair);
                edges.push(edge);
            }
            if vp.rekeyed_mask[ni] || vp.rekeyed_mask[nj] {
                // Its edge moves to the re-keyed end's new node.
                gone_edges.push(edge);
                unset.push(merges.len());
            }
            merges.push((ni, nj));
            edges.push(edge);
        }
        for pair in fresh {
            unset.push(merges.len());
            merges.push(pair);
        }
        edges.resize(merges.len(), (0, 0));
        debug_assert!(merges.is_sorted() && old_seed_merges.is_sorted());
        ConnPatch {
            merges,
            edges,
            unset,
            scoped,
            old_seed_merges,
            gone_edges,
        }
    }

    /// Step 4 (`t_net`): the net graph's element nodes and connection
    /// edges, and the delta they make. A node is arithmetic on its key
    /// ([`ChipView::node`]) — no string is read here. The element nodes
    /// before the re-lay's start keep
    /// their places; only the ones after it move.
    fn patch_net_graph(&mut self, vp: &ViewPatch, cp: &mut ConnPatch) -> GraphPatch {
        let keys = vp.view.elements.net_keys();
        let mut delta = GraphDelta {
            gone_edges: std::mem::take(&mut cp.gone_edges),
            ..GraphDelta::default()
        };
        let mut element_node = std::mem::take(&mut self.parts.element_node);
        for &(old, handle) in &vp.evicted {
            delta
                .gone_elements
                .extend(element_node[old].map(|node| (node, handle)));
        }
        let e_split = vp.split.0;
        let moved = element_node.split_off(e_split);
        element_node.resize(vp.dirty.len(), None);
        for (&node, new) in moved.iter().zip(&vp.old_to_new[e_split..]) {
            if let Some(new) = *new {
                element_node[new] = node;
            }
        }
        let mut rekeyed_from = Vec::new();
        for &id in vp.rekeyed.iter().filter(|&&id| !vp.dirty[id]) {
            // Re-keyed survivors keep their netted-ness; fresh elements
            // are handled below. A kept merge of a re-keyed survivor
            // moves one edge end from the old node to the new (step 3
            // took its old edge out; it comes back below).
            if let Some(node) = &mut element_node[id] {
                let handle = self.elem_handles[id];
                delta.gone_elements.push((*node, handle));
                rekeyed_from.push((id, *node));
                *node = vp.view.node(keys[id]);
                delta.new_elements.push((*node, handle));
            }
        }
        // Whether each dirty element kept the node of the old element of
        // its id — the one it replaced, under `aligned` (the net-neutral
        // candidate): still in place before the re-lay's start, in
        // `moved` after it.
        let mut kept_nodes = true;
        for &id in &vp.dirty_ids {
            let node = element_is_netted(&vp.view, id).then(|| vp.view.node(keys[id]));
            let was = match id.checked_sub(e_split) {
                None => element_node[id],
                Some(at) => moved.get(at).copied().flatten(),
            };
            kept_nodes &= was == node;
            element_node[id] = node;
            let handle = self.elem_handles[id];
            delta.new_elements.extend(node.map(|node| (node, handle)));
        }
        // The edges of the scoped pass's merges and of the re-keyed kept
        // ones, at their ends' nodes now.
        let edge = |(i, j): (usize, usize)| -> (u32, u32) {
            // invariant: merge endpoints are netted.
            let node = |id: usize| element_node[id].expect("merge endpoints are netted");
            (node(i), node(j))
        };
        for &at in &cp.unset {
            cp.edges[at] = edge(cp.merges[at]);
        }
        // Connection edges that appeared or vanished among surviving
        // seed elements (a merge that lost an end to a removed element
        // left in step 3), and the re-keyed ones' edges at their new
        // ends.
        let (old, new) = (&cp.old_seed_merges, &cp.scoped.merges);
        for &(pair, was) in old {
            match new.binary_search(&pair) {
                Err(_) => delta.gone_edges.push(was),
                Ok(_) if edge(pair) != was => {
                    delta.gone_edges.push(was);
                    delta.new_edges.push(edge(pair));
                }
                Ok(_) => {}
            }
        }
        let came = new
            .iter()
            .filter(|pair| (old.binary_search_by(|(p, _)| p.cmp(pair))).is_err());
        delta.new_edges.extend(came.map(|&pair| edge(pair)));
        let rekeyed = cp.unset.iter().map(|&at| cp.merges[at]);
        let rekeyed = rekeyed.filter(|&(i, j)| vp.rekeyed_mask[i] || vp.rekeyed_mask[j]);
        let rekeyed = rekeyed.filter(|pair| new.binary_search(pair).is_err());
        delta.new_edges.extend(rekeyed.map(edge));
        // Net-neutral candidate (see `splice_nets`): same item
        // structure, no re-keyed element, every dirty element kept its
        // node, identical connection edges — and, checked as they
        // re-derive, identical device and label rows.
        let net_neutral =
            vp.aligned && vp.rekeyed.is_empty() && kept_nodes && cp.edges == self.parts.conn_edges;
        self.parts.element_node = element_node;
        self.parts.conn_edges = std::mem::take(&mut cp.edges);
        GraphPatch {
            delta,
            rekeyed_from,
            net_neutral,
        }
    }

    /// Step 5 (`t_net`): re-derives the device and label rows whose
    /// binding the edit could have changed, reusing every other row. A
    /// row that was added, removed, or re-derived to something else
    /// leaves the graph and enters it anew in the delta.
    fn rebind_rows(&mut self, vp: &mut ViewPatch, gp: &mut GraphPatch) {
        let bboxes = vp.view.elements.bboxes();
        // Rebinding region: geometry changes plus re-keyed elements
        // (their node changed even though nothing moved). With
        // no surviving re-keys it is exactly the connection dirty
        // region, whose grid already exists.
        let foot = vp.d_conn_grid.rects().iter().copied();
        let d_bind = || foot.clone().chain(vp.rekeyed.iter().map(|&id| bboxes[id]));
        let d_bind_grid_wide = (vp.rekeyed.iter().any(|&id| !vp.dirty[id])).then(|| {
            let with_area: Vec<Rect> = d_bind().filter(|r| !r.is_degenerate()).collect();
            FlatGrid::new(with_area, self.bound.cell_size())
        });
        let d_bind_grid = d_bind_grid_wide.as_ref().unwrap_or(&vp.d_conn_grid);
        // Decide which devices and labels re-bind. A binding (point →
        // covering elements) can only have changed if geometry inside
        // the point's bbox changed — i.e. the point touches `d_bind`;
        // a device also re-rows when one of its own elements was
        // re-keyed (its join/bind edges reference the stale node).
        // The region's bounding box screens out the far-away points
        // (nearly all of them) before the grid lookup.
        let d_bind_bounds = d_bind().reduce(|a, b| a.bounding_union(&b));
        let in_d_bind = |p: Point| {
            d_bind_bounds.is_some_and(|b| b.contains_point(p))
                && d_bind_grid.touches_any(&Rect::new(p.x, p.y, p.x, p.y))
        };
        // The devices and labels with a point in it come out of the
        // point index, the fresh devices out of the view patch.
        let labels = self.layout.labels();
        let mut rerowed = vp.fresh_devices.clone();
        let owned = vp
            .rekeyed
            .iter()
            .map(|&id| vp.view.elements.get(id).device());
        rerowed.extend(owned.flatten());
        let mut relabelled = Vec::new();
        let d_bind_rects: Vec<Rect> = d_bind().collect();
        let device_of = |handle: u32| {
            let (_, &id) = self.elem_index.get(handle)?;
            vp.view.elements.get(id as usize).device()
        };
        let view = &vp.view;
        let candidates = self.elem_index.query_handles_many(&d_bind_rects);
        self.points.hits(
            view,
            &d_bind_rects,
            candidates,
            in_d_bind,
            device_of,
            |hit| match hit {
                PointOf::Device(di) => rerowed.push(di),
                PointOf::Label(li) => relabelled.push(li),
            },
        );
        rerowed.sort_unstable();
        rerowed.dedup();
        relabelled.sort_unstable();
        relabelled.dedup();

        // The scoped bind index must be complete at **every** re-bound
        // point — a device re-rows all of its terminals even when only
        // one sits in the dirty region, so the scope is the union of
        // the re-bound points themselves (an element can only bind if
        // its bbox covers the point).
        let points = (rerowed.iter())
            .flat_map(|&di| vp.view.devices[di].terminals.iter().map(|t| t.2))
            .chain(relabelled.iter().map(|&li| labels[li].position));
        let pads: Vec<Rect> = points
            .map(|p| Rect::new(p.x - 1, p.y - 1, p.x + 1, p.y + 1))
            .collect();
        let mut ids = self.elements_near(&pads, 0);
        ids.retain(|&id| element_is_netted(&vp.view, id));
        let bind = BindIndex::build_among(&vp.view, self.bound.cell_size(), &ids);

        self.rerow_devices(vp, gp, &rerowed, &bind);
        let labels = self.layout.labels();
        let elem_handles = &self.elem_handles;
        let fresh = vp.fresh_devices.iter().copied();
        self.points.enter(&vp.view, fresh, |id| elem_handles[id]);

        for &li in &relabelled {
            let label = &labels[li];
            let layer = vp.binding.layer(label.layer);
            let row = self.parts.label_parts(&mut vp.view, label, layer, &bind);
            if self.parts.labels[li] != row {
                gp.net_neutral = false;
                gp.delta.label_left(&self.parts.labels[li]);
                gp.delta.label_entered(&row);
                self.parts.labels[li] = row;
            }
        }
    }

    /// Step 5's device rows: the rows of the devices before the
    /// re-lay's start stay where they are, the rest move to their new
    /// ids, and each device of `rerowed` (ascending) re-derives its row
    /// against `bind`. A row that was added, removed, or re-derived to
    /// something else leaves the graph and enters it anew in the delta.
    fn rerow_devices(
        &mut self,
        vp: &mut ViewPatch,
        gp: &mut GraphPatch,
        rerowed: &[usize],
        bind: &BindIndex,
    ) {
        let d_split = vp.split.1;
        let mut rows = std::mem::take(&mut self.parts.devices);
        let moved = rows.split_off(d_split.min(rows.len()));
        let mut moved: Vec<Option<DeviceParts>> = moved.into_iter().map(Some).collect();
        for di in d_split..vp.view.devices.len() {
            let row = vp.dev_old_of_new[di].and_then(|od| moved[od - d_split].take());
            rows.push(row.unwrap_or_default());
        }
        // `rows[di]` is now a survivor's own row; for a re-instantiated
        // device, the row of the old device it was written over (before
        // the re-lay's start) or an empty one (after it).
        for &di in rerowed {
            let row = self.parts.device_parts(&mut vp.view, di, bind);
            let survivor = vp.dev_old_of_new[di].is_some();
            if gp.net_neutral {
                // Under `aligned`, device di corresponds to old device
                // di: a survivor's row, or the row a re-instantiated one
                // was written over.
                let old = match di.checked_sub(d_split) {
                    Some(at) if !survivor => moved.get(at).and_then(Option::as_ref),
                    _ => Some(&rows[di]),
                };
                gp.net_neutral = old == Some(&row);
            }
            if !survivor && di < d_split {
                gp.delta.device_left(&rows[di]);
            }
            if !survivor || rows[di] != row {
                gp.delta.device_entered(&row);
                survivor.then(|| gp.delta.device_left(&rows[di]));
            }
            rows[di] = row;
        }
        // What is left of the moved rows belonged to removed or
        // re-instantiated devices.
        for old in moved.iter().flatten() {
            gp.delta.device_left(old);
        }
        self.parts.devices = rows;
    }

    /// Step 6 (`t_net`): the new net list, and the halo its changes
    /// widen the dirty core to. A graph that provably equals the cached
    /// one reuses the cached list — a moved instance (auto keys are
    /// instance-local) or a declared-net wire dragged through free
    /// space is the common hit; anything else splices
    /// ([`NetIndex::splice`]), and then the survivors at either end of a
    /// pair whose net relation the splice flipped add their footprints
    /// ([`CheckSession::flipped_endpoints`]).
    ///
    /// Both paths stay because each wins on edits the benchmark has:
    /// 2.1 % of `edit-session`'s edits (1 445, seed 1) reuse, and with
    /// the reuse forced off (six alternating 20 s pairs at 64cdfd9)
    /// `op_p50_ms` read 1.612 → 1.644, slower in 6/6, `service-mix`
    /// 1.767 → 1.811 — a real 2.0 % for a flag the graph patch computes
    /// anyway.
    fn splice_nets(
        &mut self,
        vp: &mut ViewPatch,
        gp: GraphPatch,
        stats: &mut EditStats,
    ) -> NetPatch {
        let mut int_foot = vp.d_conn_grid.rects().to_vec();
        let mut netlist = std::mem::take(&mut self.report.netlist);
        self.nets.patch(&gp.delta, vp.view.node_count());
        stats.netlist_reused = gp.net_neutral;
        let (mut fresh_nets, mut retired_names) = (Vec::new(), Vec::new());
        if !gp.net_neutral {
            let splice = (self.nets).splice(
                &self.parts,
                &vp.view,
                &mut netlist,
                &gp.delta,
                &vp.dev_old_of_new,
            );
            stats.nets_respliced = splice.fresh.len();
            stats.nodes_respliced = splice.nodes;
            stats.net_rows_written = splice.rows_written;
            let moves = self.net_moves(vp, &gp.rekeyed_from, &splice, &netlist);
            let flipped = self.flipped_endpoints(&vp.view, &moves);
            stats.net_dirty_elements = flipped.len();
            let bboxes = vp.view.elements.bboxes();
            int_foot.extend(flipped.iter().map(|&id| bboxes[id]));
            retired_names = splice.retired_names;
            fresh_nets = splice.fresh;
        }
        // The footprints inflated, as they are: a Minkowski sum
        // distributes over a union. Zero-area ones drop out, as they
        // would from a `Region`.
        let reach = self.bound.max_rule_range();
        let d_halo: Vec<Rect> = (int_foot.iter())
            .filter(|r| !r.is_degenerate())
            .filter_map(|r| r.inflate(reach))
            .collect();
        NetPatch {
            netlist,
            fresh_nets,
            retired_names,
            d_halo_grid: FlatGrid::new(d_halo, self.bound.cell_size()),
        }
    }

    /// Step 6's relation diff, first half: how the splice moved the
    /// survivors and the surviving transistors' terminals between nets,
    /// where that can flip a relation. A survivor's node keeps its net
    /// unless the splice re-derived it ([`NetSplice::moved`]) or the
    /// auto-key pass moved the survivor to another node
    /// (`rekeyed_from`); each such move takes it from a retired net to a
    /// fresh one. A retired net whose moves all reach one fresh net,
    /// which no other retired net's moves reach, was renamed at most:
    /// two things on it were together before and are after, and it and
    /// anything else were apart before and are after. Only the moves
    /// between nets that split or merged are kept. A node that only the
    /// edit's own rows name — re-instantiated elements, fresh devices'
    /// terminals — carries nothing whose relation matters, so it makes
    /// no net split or merge. The transistors are found through the
    /// terminals of the fresh nets that did, never by a pass over the
    /// devices.
    fn net_moves(
        &self,
        vp: &ViewPatch,
        rekeyed_from: &[(usize, u32)],
        splice: &NetSplice,
        netlist: &Netlist,
    ) -> NetMoves {
        let new_net = |node: u32| self.nets.net_of(node, netlist);
        let mut fresh_terms: Vec<u32> = (vp.fresh_devices.iter())
            .flat_map(|&di| self.parts.devices[di].terms.iter().map(|&(_, node)| node))
            .collect();
        fresh_terms.sort_unstable();
        // Every survivor's move, and the move of every node a row other
        // than the edit's own names.
        let n = splice.moved.len() + rekeyed_from.len();
        let (mut elements, mut links) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for &(node, old) in &splice.moved {
            let (Some(old), Some(new)) = (old, new_net(node)) else {
                continue;
            };
            let fresh = fresh_terms.partition_point(|&n| n <= node)
                - fresh_terms.partition_point(|&n| n < node);
            let mut rows = self.nets.rows_naming(node) as usize - fresh;
            let before = elements.len();
            for handle in self.nets.elements_on(node) {
                let id = self.element_of(handle);
                if !vp.dirty[id] && !vp.rekeyed_mask[id] {
                    elements.push((id, old, new));
                }
                rows -= 1;
            }
            if (elements.len() > before || rows > 0) && links.last() != Some(&(old, new)) {
                links.push((old, new));
            }
        }
        for &(id, old) in rekeyed_from {
            // invariant: a re-keyed survivor's old node was live and
            // named by the delta, so the splice re-derived it, and its
            // new node is live.
            let old = splice.old_net(old).expect("re-keyed survivors had a net");
            let new = self.parts.element_node[id].and_then(new_net);
            let new = new.expect("re-keyed survivors are netted");
            elements.push((id, old, new));
            links.push((old, new));
        }
        links.sort_unstable();
        links.dedup();
        let split: Vec<NetId> = (links.chunk_by(|a, b| a.0 == b.0))
            .filter(|run| run.len() > 1)
            .map(|run| run[0].0)
            .collect();
        links.sort_unstable_by_key(|&(old, new)| (new, old));
        let merged: Vec<NetId> = (links.chunk_by(|a, b| a.1 == b.1))
            .filter(|run| run.len() > 1)
            .map(|run| run[0].1)
            .collect();
        if split.is_empty() && merged.is_empty() {
            return NetMoves::default();
        }
        let splits_or_merges = |old: NetId, new: NetId| {
            split.binary_search(&old).is_ok() || merged.binary_search(&new).is_ok()
        };
        elements.retain(|&(_, old, new)| splits_or_merges(old, new));

        let nets = || {
            let moved = links
                .iter()
                .filter(|&&(old, new)| splits_or_merges(old, new));
            moved.map(|&(_, new)| netlist.net(new).terminals())
        };
        let mut devices = Vec::with_capacity(nets().map(|terms| terms.len()).sum());
        devices.extend(nets().flatten().map(|(device, _)| device.0 as usize));
        devices.sort_unstable();
        devices.dedup();
        let mut terminals = Vec::with_capacity(devices.len());
        for di in devices {
            let transistor = (vp.view.devices[di].class).is_some_and(|c| c.is_transistor());
            if !transistor || vp.dev_old_of_new[di].is_none() {
                continue;
            }
            for &(_, node) in &self.parts.devices[di].terms {
                if let (Some(old), Some(new)) = (splice.old_net(node), new_net(node)) {
                    if splits_or_merges(old, new) {
                        terminals.push((di, old, new));
                    }
                }
            }
        }
        NetMoves {
            elements,
            terminals,
        }
    }

    /// Step 6's relation diff, second half: the survivors at either end
    /// of a pair within rule reach whose relation differs before and
    /// after the splice, ascending. A pair's verdict reads nets through
    /// two relations only: whether its elements share a net, and
    /// whether a transistor holding one has a terminal on the other's
    /// net. A moved survivor and one that did not move were on different
    /// nets before (a retired one and a kept one) and are after (a fresh
    /// one and a kept one); so were a moved survivor and a transistor
    /// terminal that did not move. So both ends of a flipped pair are
    /// among `moves`: its elements, and the elements of its transistors.
    /// Two in one class — the same move, or one transistor — keep their
    /// relation, so only the ones within reach of another class's box
    /// (its seams with theirs) are paired, through one grid: a net that
    /// split in two costs a pass over its moved elements and a search
    /// along the cut.
    fn flipped_endpoints(&self, view: &ChipView, moves: &NetMoves) -> Vec<usize> {
        let (elements, terminals) = (&moves.elements, &moves.terminals);
        if elements.is_empty() {
            // Either relation needs a moved element at one end.
            return Vec::new();
        }
        let terms = |device: Option<usize>| {
            let Some(d) = device else {
                return &terminals[..0];
            };
            let from = terminals.partition_point(|&(t, _, _)| t < d);
            &terminals[from..from + terminals[from..].partition_point(|&(t, _, _)| t == d)]
        };
        // Each candidate as `(element, class, its move)`: a transistor's
        // elements take the move its terminals and elements all made, or
        // a class of their own; every other element its move's.
        type Candidate = (usize, usize, Option<(NetId, NetId)>);
        let flipped = |&(i, _, a): &Candidate, &(j, _, b): &Candidate| {
            let (di, dj) = (view.elements.get(i).device(), view.elements.get(j).device());
            if di.is_some() && di == dj {
                return false;
            }
            if let (Some(a), Some(b)) = (a, b) {
                if (a.0 == b.0) != (a.1 == b.1) {
                    return true;
                }
            }
            [(di, b), (dj, a)].into_iter().any(|(inside, other)| {
                let (terms, Some((old, new))) = (terms(inside), other) else {
                    return false;
                };
                terms.iter().any(|t| t.1 == old) != terms.iter().any(|t| t.2 == new)
            })
        };
        let mut kinds: Vec<(NetId, NetId)> = elements.iter().map(|&(_, o, n)| (o, n)).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let mut members: Vec<Candidate> = (terminals.chunk_by(|a, b| a.0 == b.0).enumerate())
            .flat_map(|(k, run)| {
                view.devices[run[0].0]
                    .element_ids
                    .iter()
                    .map(move |&id| (id, k, None))
            })
            .collect();
        members.sort_unstable();
        let mut ids: Vec<Candidate> = Vec::with_capacity(elements.len() + members.len());
        for &(id, old, new) in elements {
            match members.binary_search_by_key(&id, |m| m.0) {
                Ok(at) => members[at].2 = Some((old, new)),
                Err(_) => ids.push((
                    id,
                    kinds.partition_point(|&k| k < (old, new)),
                    Some((old, new)),
                )),
            }
        }
        // A transistor whose terminals and elements made one move joins
        // that move's class.
        let mut device_class: Vec<usize> = (terminals.chunk_by(|a, b| a.0 == b.0).enumerate())
            .map(|(k, run)| {
                let one = (run[0].1, run[0].2);
                let one_move = run.iter().all(|t| (t.1, t.2) == one);
                match kinds.binary_search(&one) {
                    Ok(class) if one_move => class,
                    _ => kinds.len() + k,
                }
            })
            .collect();
        for &(_, k, own) in &members {
            if own.is_some_and(|own| kinds.get(device_class[k]) != Some(&own)) {
                device_class[k] = kinds.len() + k;
            }
        }
        ids.extend(
            members
                .into_iter()
                .map(|(id, k, own)| (id, device_class[k], own)),
        );

        let bboxes = view.elements.bboxes();
        let reach = self.bound.max_rule_range();
        let mut boxes: Vec<Option<Rect>> = vec![None; kinds.len() + terminals.len()];
        for &(id, class, _) in &ids {
            let b = &mut boxes[class];
            *b = Some(b.map_or(bboxes[id], |b| b.bounding_union(&bboxes[id])));
        }
        // Per class, where its box meets another class's box ⊕ reach.
        let (present, grown): (Vec<usize>, Vec<Rect>) = (boxes.iter().enumerate())
            .filter_map(|(class, b)| Some((class, b.and_then(|b| b.inflate(reach))?)))
            .unzip();
        let class_grid = FlatGrid::new(grown, self.bound.cell_size());
        let (mut hits, mut seams) = (Vec::new(), Vec::new());
        for (class, b) in boxes.iter().enumerate() {
            let Some(b) = b else {
                continue;
            };
            class_grid.query_into(b, &mut hits);
            let others = hits.iter().filter(|&&at| present[at as usize] != class);
            let rects = class_grid.rects();
            let meets = others.filter_map(|&at| b.intersection(&rects[at as usize]));
            seams.extend(meets.map(|seam| (class, seam)));
        }
        ids.retain(|&(id, class, _)| {
            let from = seams.partition_point(|&(c, _)| c < class);
            let mut mine = seams[from..].iter().take_while(|&&(c, _)| c == class);
            mine.any(|(_, seam)| seam.touches(&bboxes[id]))
        });

        let grid = FlatGrid::new(
            ids.iter().map(|&(id, _, _)| bboxes[id]).collect(),
            self.bound.cell_size(),
        );
        let mut ends = Vec::new();
        for a in &ids {
            let Some(query) = bboxes[a.0].inflate(reach) else {
                continue;
            };
            grid.query_into(&query, &mut hits);
            for b in hits.iter().map(|&at| &ids[at as usize]) {
                if b.0 > a.0 && b.1 != a.1 && flipped(a, b) {
                    ends.extend([a.0, b.0]);
                }
            }
        }
        ends.sort_unstable();
        ends.dedup();
        ends
    }

    /// Step 7 (`t_interact`): the interaction search among the elements
    /// within one rule reach of the halo (bbox ⊕ reach touches it), out
    /// of one pass over the element index.
    fn recheck_halo(
        &self,
        vp: &ViewPatch,
        np: &NetPatch,
        stats: &mut EditStats,
    ) -> (Vec<Violation>, InteractStats) {
        let reach = self.bound.max_rule_range();
        let halo_ids = self.elements_near(np.d_halo_grid.rects(), reach);
        stats.halo_elements = halo_ids.len();
        check_interactions_among(
            &vp.view,
            &self.tech,
            &self.bound,
            self.nets.nets(&self.parts),
            &self.options,
            &halo_ids,
            Some(&np.d_halo_grid),
        )
    }

    /// Step 8 (`t_global`): the global stages, each at the grain its
    /// verdict has — behind the layer-binding and instantiation
    /// violations the view patch produced. Element checks and the
    /// net-list comparison re-run in full; the primitive-symbol checks
    /// only when the set replaced a symbol's body (a definition is all
    /// they read); ERC on the nets the splice built fresh only (a rule
    /// is a predicate of one net). Returns the fresh lines, and the
    /// waived devices if the primitive-symbol checks re-ran.
    fn rerun_global_stages(
        &self,
        vp: &mut ViewPatch,
        np: &NetPatch,
        replaces_symbol: bool,
    ) -> (Vec<Violation>, Option<Vec<String>>) {
        let mut fresh = std::mem::take(&mut vp.violations);
        fresh.extend(check_elements(&self.layout, &self.tech, &vp.binding));
        let waived = replaces_symbol.then(|| {
            let definitions = Definitions::new(&self.layout, &vp.binding, None);
            let prim = check_primitive_symbols(&self.layout, &self.tech, &vp.binding, &definitions);
            fresh.extend(prim.violations);
            prim.waived
        });
        let netlist = &np.netlist;
        if self.options.erc {
            let nets = np.fresh_nets.iter().copied();
            fresh.extend(erc_violations(netlist, &self.tech, nets));
        }
        fresh.extend(netlist_mismatch_violations(netlist, &self.options));
        (fresh, waived)
    }

    /// Step 9 (`t_patch`): the new report by merge-splice — the cached
    /// violations the edit cannot have changed, merged with the fresh
    /// ones (`[global, connections, interactions]`) — with its keys, and
    /// the delta: the retracted lines against the fresh ones, equal lines
    /// cancelled, in one merge walk over keys already rendered.
    fn patch_report(
        &self,
        cached: (Vec<Violation>, Vec<String>),
        [mut fresh, connections, interactions]: [Vec<Violation>; 3],
        vp: &ViewPatch,
        np: &NetPatch,
        stats: &mut EditStats,
    ) -> (Vec<Violation>, Vec<String>, ReportDelta) {
        let anchored_in = |v: &Violation, grid: &FlatGrid| -> bool {
            v.location.is_none_or(|l| grid.touches_any(&l))
        };
        let primitives_rechecked = stats.primitives_rechecked;
        let retired = |v: &Violation| {
            let names = &np.retired_names;
            names
                .binary_search_by(|name| name.as_str().cmp(&v.context))
                .is_ok()
        };
        let keep = |v: &Violation| match v.stage {
            CheckStage::Connections => !anchored_in(v, &vp.d_conn_grid),
            // Mask odd cycles are a global (conflict-graph) verdict: an
            // edit anywhere can open or close a cycle whose witness
            // marker lies far outside the halo, so they are always
            // retracted and recomputed from scratch below.
            CheckStage::Interactions => {
                !matches!(v.kind, ViolationKind::MaskOddCycle { .. })
                    && !anchored_in(v, &np.d_halo_grid)
            }
            // An ERC line's context is its net's name: it goes with a
            // net the splice dissolved, and stays with a kept one.
            CheckStage::Composition => !retired(v),
            CheckStage::PrimitiveSymbols => !primitives_rechecked,
            // Replaced wholesale by the fresh global runs.
            CheckStage::Elements | CheckStage::NetList => false,
        };
        #[cfg(debug_assertions)]
        let old = cached.0.clone();
        // The kept violations are a subsequence of the cached canonical
        // report, hence already canonically sorted, and keep their keys;
        // the retracted ones leave theirs for the delta.
        let n = cached.0.len();
        let (mut kept, mut kept_keys) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut retracted: Vec<(usize, String)> = Vec::new();
        for (v, key) in cached.0.into_iter().zip(cached.1) {
            if keep(&v) {
                kept.push(v);
                kept_keys.push(key);
            } else {
                retracted.push((stage_rank(v.stage), key));
            }
        }
        stats.retracted = retracted.len();
        let anchored = |v: &Violation| anchored_in(v, &vp.d_conn_grid);
        fresh.extend(connections.into_iter().filter(anchored));
        fresh.extend(interactions);
        // Global recompute of the same-mask conflict graph (the scoped
        // interaction pass finds no conflict edges): free when the
        // technology declares no same_mask rules.
        let metric = self.options.metric;
        fresh.extend(check_same_mask(&vp.view, &self.tech, &self.bound, metric));
        stats.spliced = fresh.len();
        // Only the fresh side pays a sort (and its lines' rendering); the
        // combined list is a linear merge of the two sorted halves.
        let fresh = canonical_sort_keyed(fresh);
        let gone = retracted.iter().map(|(rank, key)| (*rank, key.as_str()));
        let delta = ReportDelta::between(gone, ranked(&fresh.0, &fresh.1));
        #[cfg(debug_assertions)]
        let sort_oracle = {
            let mut all = kept.clone();
            all.extend(fresh.0.iter().cloned());
            canonical_sort(&mut all);
            all
        };
        let (violations, keys) = merge_keyed((kept, kept_keys), fresh);
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                violations, sort_oracle,
                "merge-splice diverged from canonical_sort"
            );
            debug_assert_eq!(
                delta,
                ReportDelta::by_rendering(&old, &violations),
                "the patch's delta diverged from a rendered diff"
            );
        }
        (violations, keys, delta)
    }

    /// The net relations an interaction verdict reads, off the session's
    /// net graph as it stands: each element's net, and each device's
    /// terminal nets.
    #[cfg(debug_assertions)]
    fn net_relations(&self, list: &Netlist) -> NetRelations {
        let net = |node: u32| {
            // invariant: element and terminal nodes are live, and every
            // live node has a net.
            self.nets.net_of(node, list).expect("live nodes have nets")
        };
        let mut relations = NetRelations {
            element_net: (self.parts.element_node.iter())
                .map(|node| node.map(net))
                .collect(),
            term_start: vec![0],
            term_net: Vec::new(),
        };
        for row in &self.parts.devices {
            (relations.term_net).extend(row.terms.iter().map(|&(_, node)| net(node)));
            relations.term_start.push(relations.term_net.len());
        }
        relations
    }

    /// The debug oracle of the relation diff: every pair of survivors
    /// within rule reach whose net relations differ before and after the
    /// edit — sharing a net, or a transistor holding one having a
    /// terminal on the other's net, as the interaction search reads them
    /// — has an end whose footprint is in the halo, found by a pass over
    /// every such pair of the chip.
    #[cfg(debug_assertions)]
    fn assert_flipped_pairs_meet_the_halo(
        &self,
        old: &NetRelations,
        vp: &ViewPatch,
        np: &NetPatch,
    ) {
        let new = self.net_relations(&np.netlist);
        let mut old_of_new = vec![None; vp.dirty.len()];
        for (o, n) in vp.old_to_new.iter().enumerate() {
            if let Some(n) = *n {
                old_of_new[n] = Some(o);
            }
        }
        let view = &vp.view;
        let transistor = |id: usize| {
            let d = view.elements.get(id).device()?;
            let class = view.devices[d].class;
            class.is_some_and(|c| c.is_transistor()).then_some(d)
        };
        let relations = |nets: &NetRelations, (i, j): (usize, usize), (di, dj)| {
            let related = |d: Option<usize>, other| d.is_some_and(|d| nets.related(d, other));
            [nets.same_net(i, j), related(di, j), related(dj, i)]
        };
        let bboxes = view.elements.bboxes();
        let reach = self.bound.max_rule_range();
        let in_halo = |id: usize| {
            let Some(grown) = bboxes[id].inflate(reach) else {
                return false;
            };
            let mut hits = Vec::new();
            np.d_halo_grid.query_into(&grown, &mut hits);
            let rects = np.d_halo_grid.rects();
            (hits.iter()).any(|&at| rects[at as usize].contains_rect(&grown))
        };
        let grid = FlatGrid::new(bboxes.to_vec(), self.bound.cell_size());
        let mut hits = Vec::new();
        for i in (0..bboxes.len()).filter(|&i| !vp.dirty[i]) {
            let Some(query) = bboxes[i].inflate(reach) else {
                continue;
            };
            grid.query_into(&query, &mut hits);
            let later = hits.iter().map(|&j| j as usize);
            for j in later.filter(|&j| j > i && !vp.dirty[j]) {
                let (di, dj) = (view.elements.get(i).device(), view.elements.get(j).device());
                if di.is_some() && di == dj {
                    continue;
                }
                let (ti, tj) = (transistor(i), transistor(j));
                // invariant: survivors have old ids, and their devices
                // survived with them.
                let old_id = |id: usize| old_of_new[id].expect("a survivor");
                let old_device =
                    |d: Option<usize>| d.map(|d| vp.dev_old_of_new[d].expect("a survivor"));
                let was = relations(
                    old,
                    (old_id(i), old_id(j)),
                    (old_device(ti), old_device(tj)),
                );
                let now = relations(&new, (i, j), (ti, tj));
                debug_assert!(
                    was == now || in_halo(i) || in_halo(j),
                    "elements {i} and {j} changed net relations {was:?} → {now:?} outside the halo"
                );
            }
        }
    }

    /// The debug oracle of the lines step 8 did not recompute: the
    /// patched report's ERC and primitive-symbol lines, and the waived
    /// list, equal what the whole-chip stages make of the patched chip —
    /// as the net-list splice is asserted against `assemble`.
    #[cfg(debug_assertions)]
    fn assert_carried_lines_match_a_recompute(
        &self,
        violations: &[Violation],
        waived_devices: &[String],
        vp: &ViewPatch,
        np: &NetPatch,
    ) {
        let lines = |stage: CheckStage| -> Vec<&Violation> {
            violations.iter().filter(|v| v.stage == stage).collect()
        };
        let netlist = &np.netlist;
        let mut erc = Vec::new();
        if self.options.erc {
            erc = erc_violations(netlist, &self.tech, netlist.nets().map(|net| net.id()));
        }
        canonical_sort(&mut erc);
        debug_assert_eq!(
            lines(CheckStage::Composition),
            erc.iter().collect::<Vec<_>>(),
            "ERC over the fresh nets diverged from a whole-chip ERC"
        );
        let definitions = Definitions::new(&self.layout, &vp.binding, None);
        let mut prim = check_primitive_symbols(&self.layout, &self.tech, &vp.binding, &definitions);
        canonical_sort(&mut prim.violations);
        debug_assert_eq!(
            lines(CheckStage::PrimitiveSymbols),
            prim.violations.iter().collect::<Vec<_>>(),
            "carried primitive-symbol lines diverged from a recheck"
        );
        debug_assert_eq!(waived_devices, prim.waived, "carried waived list diverged");
    }

    /// Step 10 (`t_commit`): installs the products (dropping what they
    /// replace) and sheds the element index's churn. Its dead slots
    /// grow monotonically under edits, and no handle is renumbered while
    /// the session lives; once they outnumber the live elements (with a
    /// floor so small sessions never bother), the session reopens
    /// ([`CheckSession::compact_memory`]), as a full rebuild does. True
    /// if it reopened.
    fn commit(
        &mut self,
        vp: ViewPatch,
        cp: ConnPatch,
        np: NetPatch,
        violations: Vec<Violation>,
        interact_stats: InteractStats,
        waived_devices: Vec<String>,
    ) -> bool {
        self.binding = vp.binding;
        self.view = vp.view;
        self.merges = cp.merges;
        self.patched = true;
        self.report = CheckReport {
            violations,
            netlist: np.netlist,
            interact_stats,
            stage_profile: Vec::new(),
            waived_devices,
            element_count: self.view.elements.len(),
            device_count: self.view.devices.len(),
            // Still the session's last whole instantiation (its latest
            // open or reopen): a patch re-walks dirty items only.
            instantiate_stats: self.report.instantiate_stats,
            scope_stats: self.report.scope_stats,
        };
        self.elem_index.tombstones() > self.elem_index.len().max(64) && self.compact_memory()
    }

    /// Pushes a clone of each violation of the cached canonical report,
    /// in order, through any [`Sink`]. To export the report as text,
    /// [`CheckSession::write_report`] writes the lines the session
    /// already holds instead.
    pub fn emit_report(&self, sink: &mut dyn Sink) {
        for v in &self.report.violations {
            sink.push(v.clone());
        }
    }

    /// Writes the canonical report as text, one violation per line —
    /// byte for byte what [`CheckSession::emit_report`] through a
    /// [`StreamingSink`](crate::engine::StreamingSink) writes, and the
    /// rendering of [`crate::canonical_check`]. The lines are the ones
    /// the session keeps beside its report, so none is cloned, sorted or
    /// rendered; they reach `out` in writes of up to 256 KiB.
    pub fn write_report(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        const FLUSH_BYTES: usize = 256 * 1024;
        let bytes: usize = self.keys.iter().map(|line| line.len() + 1).sum();
        let mut text = String::with_capacity(bytes.min(FLUSH_BYTES));
        for line in &self.keys {
            text.push_str(line);
            text.push('\n');
            if text.len() >= FLUSH_BYTES {
                out.write_all(text.as_bytes())?;
                text.clear();
            }
        }
        if !text.is_empty() {
            out.write_all(text.as_bytes())?;
        }
        Ok(())
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
    /// columnar element store, the names (the string table's text and
    /// bookkeeping, the instance table and node blocks, the templates'
    /// local names — each a handful of flat buffers),
    /// device instances, the persistent net graph
    /// ([`NetParts::heap_bytes`]), the cached canonical report with its
    /// lines' keys, and the
    /// spatial index with its handle table. Payload bytes
    /// elsewhere, not allocator-exact — the number a session *pool*
    /// budgets and evicts against (and the denominator of the e21
    /// sessions-per-GB figure).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let elements = self.view.elements.heap_bytes();
        let strings = self.view.strings.heap_bytes()
            + self.view.strings.table_bytes()
            + self.view.names.heap_bytes();
        let devices: usize = self
            .view
            .devices
            .iter()
            .map(|d| {
                size_of_val(d)
                    + d.terminals.len() * size_of::<(Istr, diic_tech::LayerId, Point, Name)>()
                    + d.element_ids.len() * size_of::<usize>()
            })
            .sum();
        let lines = self.report.violations.iter().zip(&self.keys);
        let report: usize = lines
            .map(|(v, key)| size_of_val(v) + v.context.len() + size_of_val(key) + key.len())
            .sum();
        let index = self.elem_index.heap_bytes()
            + self.elem_handles.len() * size_of::<u32>()
            + self.points.labels.heap_bytes()
            + self.points.loose.len() * size_of::<u32>();
        let nets = self.parts.heap_bytes() + self.nets.heap_bytes();
        elements + strings + devices + nets + report + index
    }

    /// Sheds what edit churn left behind — the strings no element or
    /// graph row names any more, the element index's dead slots — by
    /// reopening the session on its current layout, technology and
    /// options, as the rebuild fallback does. The result is a fresh
    /// open's by construction: the same report lines and net list, and
    /// [`CheckSession::memory_bytes`] a fresh open's;
    /// [`CheckSession::last_delta`] is kept. Returns false, doing
    /// nothing, when no apply has patched the session since it was last
    /// opened: a fresh session has nothing to shed. The session pool
    /// calls this on memory pressure, before it evicts, and an apply
    /// whose churn leaves more dead element-index slots than live
    /// elements ends with it ([`EditStats::index_compacted`]).
    pub fn compact_memory(&mut self) -> bool {
        if !self.patched {
            return false;
        }
        let delta = std::mem::take(&mut self.delta);
        self.reopen();
        self.delta = delta;
        true
    }
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

/// What a point [`PointIndex`] finds belongs to.
#[derive(Debug, Clone, Copy)]
enum PointOf {
    /// A terminal of this device (by id in the current view).
    Device(usize),
    /// The position of this label.
    Label(usize),
}

/// How `rebind_rows` finds the device and label rows with a point in
/// the dirty region without screening every device. A device whose
/// terminal points each lie in the box of one of its own elements —
/// every device of an ordinary cell — is found through the element
/// index: the element whose box holds the point is among the index's
/// candidates for any rect that holds it. The other devices are kept by
/// their first element's handle, which the view patch never renumbers,
/// and tested one by one (a dead handle — its device left the view — is
/// dropped as it is met); labels, which no edit moves, sit in a grid of
/// their own. A device with terminals and no element has no handle to
/// keep: a session that ever holds one screens every device instead.
#[derive(Debug)]
struct PointIndex {
    /// The label positions, by label index.
    labels: FlatGrid,
    /// First-element handles of the devices with a terminal outside
    /// their own elements' boxes.
    loose: Vec<u32>,
    screen_all: bool,
}

impl PointIndex {
    /// The index of a view's devices (`handles` its element handles) and
    /// of `labels`, over cells of `cell`.
    fn build(view: &ChipView, labels: &[NetLabel], handles: &[u32], cell: i64) -> PointIndex {
        let positions = labels.iter().map(|l| point_extent_at(l.position));
        let mut points = PointIndex {
            labels: FlatGrid::new(positions.collect(), cell),
            loose: Vec::new(),
            screen_all: false,
        };
        points.enter(view, 0..view.devices.len(), |id| handles[id]);
        points
    }

    /// Takes in `devices` of `view`, fresh in it: the loose ones are
    /// kept by `handle` of their first element.
    fn enter(
        &mut self,
        view: &ChipView,
        devices: impl IntoIterator<Item = usize>,
        handle: impl Fn(usize) -> u32,
    ) {
        let bboxes = view.elements.bboxes();
        for dev in devices.into_iter().map(|di| &view.devices[di]) {
            let held = |p: Point| dev.element_ids.iter().any(|&e| bboxes[e].contains_point(p));
            match dev.element_ids.first() {
                _ if dev.terminals.iter().all(|t| held(t.2)) => {}
                Some(&first) => self.loose.push(handle(first)),
                None => self.screen_all = true,
            }
        }
    }

    /// Calls `found` for every device and label with a point in one of
    /// `rects` that `keep` accepts (repeats possible). `candidates` are
    /// the element-index handles [`GridIndex::query_handles_many`] gives
    /// for `rects`; `device_of` gives a live handle's device, `None` for
    /// a dead one.
    fn hits(
        &mut self,
        view: &ChipView,
        rects: &[Rect],
        candidates: Vec<u32>,
        keep: impl Fn(Point) -> bool,
        device_of: impl Fn(u32) -> Option<usize>,
        mut found: impl FnMut(PointOf),
    ) {
        let mut device = |di: usize| {
            if view.devices[di].terminals.iter().any(|t| keep(t.2)) {
                found(PointOf::Device(di));
            }
        };
        if self.screen_all {
            (0..view.devices.len()).for_each(&mut device);
        } else {
            let held = candidates.into_iter().filter_map(&device_of);
            held.for_each(&mut device);
            self.loose
                .retain(|&h| device_of(h).inspect(|&di| device(di)).is_some());
        }
        let mut hits = Vec::new();
        for rect in rects {
            self.labels.query_into(rect, &mut hits);
            for &li in &hits {
                let r = self.labels.rects()[li as usize];
                if keep(Point::new(r.x1, r.y1)) {
                    found(PointOf::Label(li as usize));
                }
            }
        }
    }
}

/// The degenerate rect of a point.
fn point_extent_at(p: Point) -> Rect {
    Rect::new(p.x, p.y, p.x, p.y)
}

/// Prefix sums of the per-item `(elements, devices)` run lengths: the
/// `(element, device)` id each run starts at.
fn run_offsets(runs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(runs.len());
    let (mut e, mut d) = (0usize, 0usize);
    for &(elems, devices) in runs {
        out.push((e, d));
        e += elems;
        d += devices;
    }
    out
}

/// The box around the coordinates a move translates: an element's shape
/// points (a box's corners), or a call's translation.
fn coordinate_extent(item: &Item) -> Rect {
    match item {
        Item::Element(el) => shape_extent(&el.shape),
        Item::Call(call) => point_extent(call.transform.offset),
    }
}

/// The box around a shape's points — a wire's width is no coordinate.
fn shape_extent(shape: &Shape) -> Rect {
    let points = match shape {
        Shape::Box(r) => return *r,
        Shape::Wire(w) => w.points(),
        Shape::Polygon(p) => p.points(),
    };
    let mut rects = points.iter().map(|p| point_extent(Vector::new(p.x, p.y)));
    let first = rects.next().unwrap_or_default();
    rects.fold(first, |a, b| a.bounding_union(&b))
}

fn point_extent(v: Vector) -> Rect {
    Rect::new(v.x, v.y, v.x, v.y)
}

/// `extent` translated by `by`, if every coordinate stays within
/// `±`[`MAX_COORD`].
fn translated_in_range(extent: Rect, by: Vector) -> Option<Rect> {
    let shift = |v: i64, d: i64| {
        (v.checked_add(d)).filter(|moved| (-MAX_COORD..=MAX_COORD).contains(moved))
    };
    Some(Rect::new(
        shift(extent.x1, by.x)?,
        shift(extent.y1, by.y)?,
        shift(extent.x2, by.x)?,
        shift(extent.y2, by.y)?,
    ))
}

/// The symbols with a body in `bodies` — the replaced ones — plus
/// everything that transitively calls them, as a flag per symbol.
/// Ancestry edges that matter come from *other* symbols' bodies, which
/// no edit touches (a replaced symbol is dirty whatever it calls), so
/// the closure is the same before and after application.
fn dirty_symbol_closure(layout: &Layout, bodies: &[Option<&[Item]>]) -> Vec<bool> {
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); bodies.len()];
    for (si, sym) in layout.symbols().iter().enumerate() {
        for call in sym.calls() {
            callers[call.target.0 as usize].push(si);
        }
    }
    let mut dirty = vec![false; bodies.len()];
    let mut queue: Vec<usize> = (0..bodies.len()).filter(|&s| bodies[s].is_some()).collect();
    while let Some(s) = queue.pop() {
        if !std::mem::replace(&mut dirty[s], true) {
            queue.extend_from_slice(&callers[s]);
        }
    }
    dirty
}

/// Rejects a symbol table that `bodies` — each replaced symbol's final
/// body — would leave calling a symbol it does not hold, recursive, or
/// nested deeper than [`MAX_CALL_DEPTH`]: the first walk of any of them
/// (`hierarchy::stats`, the template build) indexes past the table or
/// recurses until the stack overflows, which no caller can catch. The
/// rules and the walk are the CIF parser's
/// ([`diic_cif::hierarchy::check_acyclic`]).
fn check_replaced_bodies(layout: &Layout, bodies: &[Option<&[Item]>]) -> Result<(), EditError> {
    let calls = |symbol: usize| {
        let items = bodies[symbol].unwrap_or(&layout.symbols()[symbol].items);
        items.iter().filter_map(|item| match item {
            Item::Call(call) => Some(call.target),
            Item::Element(_) => None,
        })
    };
    let replaced = (0..bodies.len()).filter(|&s| bodies[s].is_some());
    let dangling = |target: &SymbolId| target.0 as usize >= bodies.len();
    if let Some(target) = replaced.flat_map(calls).find(dangling) {
        return Err(EditError::UnknownSymbol(target));
    }
    check_acyclic(bodies.len(), calls).map_err(|e| match e {
        HierarchyError::Cycle(s) => EditError::RecursiveSymbol(s),
        HierarchyError::TooDeep(s) => EditError::TooDeep(s),
    })
}

/// Rejects a set that would leave the layout instantiating more than
/// [`MAX_FLAT_ELEMENTS`] elements flat: `bodies` are the replaced
/// symbols' final bodies (checked by [`check_replaced_bodies`]) and
/// `targets` what each top-level slot calls (`None`: an element). The
/// bound and the count are the CIF parser's.
fn check_element_budget(
    layout: &Layout,
    bodies: &[Option<&[Item]>],
    targets: &[Option<SymbolId>],
) -> Result<(), EditError> {
    let body = |s: usize| match bodies.get(s) {
        Some(Some(items)) => *items,
        _ => &layout.symbols()[s].items,
    };
    let flat = flat_elements(layout.symbols().len(), body);
    let elements = (targets.iter())
        .map(|target| target.map_or(1, |t| flat[t.0 as usize]))
        .fold(0u64, u64::saturating_add);
    if elements > MAX_FLAT_ELEMENTS {
        return Err(EditError::TooLarge { elements });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netgen::NIL;
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
    /// (where `NetIndex::splice`'s own `debug_assert_eq!` is compiled
    /// out): the session's net list, and every node's net in its net
    /// index, equal a from-scratch assembly of its patched graph (an
    /// element's and a terminal's net are its node's).
    fn assert_nets_match_scratch(session: &CheckSession) {
        let (scratch, node_net) = session.parts.assemble_from_scratch(&session.view);
        assert_eq!(session.report.netlist, scratch);
        for (node, &want) in node_net.iter().enumerate() {
            let got = session.nets.net_of(node as u32, &session.report.netlist);
            let got = got.map_or(NIL, |n| n.0);
            assert_eq!(got, want, "node {node}");
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

    /// Four definitions — 1 a leaf, 2 calling 1, 3 calling 2, 4 an
    /// unrelated leaf — placed as `C 3`, `C 4`, `C 2`, `C 1` and one
    /// loose box.
    const CALL_CHAIN: &str = "DS 1; L NM; B 2000 750 1000 375; DF;
         DS 2; C 1 T 0 0; DF;
         DS 3; C 2 T 0 0; DF;
         DS 4; L NM; B 2000 750 1000 375; DF;
         C 3 T 0 0; C 4 T 0 10000; C 2 T 0 20000; C 1 T 0 30000;
         L NM; B 2000 750 1000 50375; E";

    /// A plan over `layout` with every item a run of one element.
    fn plan(layout: &Layout, edits: &EditSet) -> Result<EditPlan, EditError> {
        EditPlan::new(layout, &vec![(1, 0); layout.top_items().len()], edits)
    }

    fn call(target: SymbolId) -> Item {
        Item::Call(Call {
            target,
            transform: Transform::IDENTITY,
            name: "c".to_string(),
        })
    }

    fn kept(origin: usize, dirty: bool) -> Slot {
        Slot {
            origin: Some(origin),
            dirty,
        }
    }

    #[test]
    fn plan_indices_are_positional_within_the_set() {
        let layout = parse(CALL_CHAIN).unwrap();
        let before = layout.clone();
        // `move 0` after `remove 0` addresses the old item 1.
        let mut edits = EditSet::new();
        edits.remove(0).translate(0, 500, 0);
        let p = plan(&layout, &edits).unwrap();
        assert_eq!(p.removed, [0]);
        let expected = [
            kept(1, true),
            kept(2, false),
            kept(3, false),
            kept(4, false),
        ];
        assert_eq!(p.slots, expected);
        assert_eq!((p.dirty_elements, p.total_elements), (2, 5));
        assert_eq!(p.offsets[4], (4, 0));

        // An index valid before an earlier remove is rejected after it,
        // with the length at that point; nothing was touched.
        let mut edits = EditSet::new();
        edits.remove(2).translate(4, 500, 0);
        let err = plan(&layout, &edits).unwrap_err();
        assert_eq!(err, EditError::ItemOutOfBounds { index: 4, len: 4 });
        assert_eq!(layout, before);

        // A fresh slot added and removed again leaves no trace.
        let mut edits = EditSet::new();
        edits
            .add_box("NM", Rect::new(0, 0, 2000, 750), None)
            .remove(5);
        let p = plan(&layout, &edits).unwrap();
        assert!(p.removed.is_empty());
        assert_eq!(p.slots, [0, 1, 2, 3, 4].map(|i| kept(i, false)));
        assert_eq!(p.stale_origins().count(), 0);
        assert_eq!(p.rebuild_reason(), None);
    }

    #[test]
    fn plan_closure_dirties_exactly_the_callers_of_a_replaced_symbol() {
        let layout = parse(CALL_CHAIN).unwrap();
        let leaf = layout.symbol_by_cif_id(1).unwrap();
        let mut edits = EditSet::new();
        edits.replace_symbol(leaf, Vec::new());
        let p = plan(&layout, &edits).unwrap();
        // `C 3` reaches the leaf through two calls; `C 4` and the box
        // do not reach it at all.
        let dirty: Vec<bool> = p.slots.iter().map(|s| s.dirty).collect();
        assert_eq!(dirty, [true, false, true, true, false]);
        assert!(p.removed.is_empty());
        assert!(p.replaces_symbol);
    }

    #[test]
    fn plan_drops_a_replace_that_keeps_the_body() {
        let layout = parse(CALL_CHAIN).unwrap();
        let leaf = layout.symbol_by_cif_id(1).unwrap();
        let body = layout.symbol(leaf).items.clone();
        let unchanged = |edits: &EditSet| {
            let p = plan(&layout, edits).unwrap();
            !p.replaces_symbol && p.slots.iter().all(|s| !s.dirty) && p.dirty_elements == 0
        };
        let mut same = EditSet::new();
        same.replace_symbol(leaf, body.clone());
        assert!(unchanged(&same));
        // The last of several replaces is the one that counts.
        let mut back = EditSet::new();
        back.replace_symbol(leaf, Vec::new())
            .replace_symbol(leaf, body);
        assert!(unchanged(&back));
        let mut away = EditSet::new();
        away.replace_symbol(leaf, layout.symbol(leaf).items.clone())
            .replace_symbol(leaf, Vec::new());
        assert!(!unchanged(&away));
    }

    #[test]
    fn plan_rebuilds_from_thirty_percent_dirty() {
        let layout = parse("L NM; B 2000 750 1000 375; B 2000 750 1000 3375; E").unwrap();
        let mut edits = EditSet::new();
        edits.translate(0, 500, 0);
        let p = EditPlan::new(&layout, &[(3, 0), (7, 1)], &edits).unwrap();
        let reason = RebuildReason::DirtyFraction {
            dirty: 3,
            total: 10,
        };
        assert_eq!(p.rebuild_reason(), Some(reason));
        let p = EditPlan::new(&layout, &[(2, 0), (8, 1)], &edits).unwrap();
        assert_eq!((p.dirty_elements, p.total_elements), (2, 10));
        assert_eq!(p.rebuild_reason(), None);
        let p = EditPlan::new(&layout, &[(0, 0), (0, 0)], &edits).unwrap();
        assert_eq!(p.rebuild_reason(), None, "an empty chip patches");
    }

    #[test]
    fn plan_rejects_recursive_and_dangling_bodies() {
        let layout = parse(CALL_CHAIN).unwrap();
        let id = |cif| layout.symbol_by_cif_id(cif).unwrap();
        let replace = |bodies: &[(u32, u32)]| {
            let mut edits = EditSet::new();
            for &(symbol, callee) in bodies {
                edits.replace_symbol(id(symbol), vec![call(id(callee))]);
            }
            plan(&layout, &edits).map(|_| ())
        };
        // A body calling its own symbol; one calling a caller (3 → 2 →
        // 1 → 3); a cycle only the two replaces together close.
        assert_eq!(replace(&[(1, 1)]), Err(EditError::RecursiveSymbol(id(1))));
        assert_eq!(replace(&[(1, 3)]), Err(EditError::RecursiveSymbol(id(1))));
        let err = replace(&[(1, 4), (4, 1)]).unwrap_err();
        assert!(matches!(err, EditError::RecursiveSymbol(_)), "{err:?}");
        // The last body of a symbol wins: a second replace that breaks
        // the cycle the first would make is accepted, in either order.
        assert_eq!(replace(&[(1, 3), (1, 4)]), Ok(()));
        assert_eq!(replace(&[(1, 4), (1, 3)]).ok(), None);
        assert_eq!(replace(&[(4, 3), (2, 4), (4, 1)]), Ok(()));
        // A call to a symbol the table does not hold.
        let mut edits = EditSet::new();
        edits.replace_symbol(id(4), vec![call(SymbolId(99))]);
        let err = plan(&layout, &edits).unwrap_err();
        assert_eq!(err, EditError::UnknownSymbol(SymbolId(99)));
    }

    #[test]
    fn plan_bounds_the_call_depth_a_replace_would_leave() {
        // A chain as deep as the parser allows (symbol i calls i + 1),
        // plus one spare leaf: replacing the chain's leaf with a call of
        // the spare makes the chain one level too deep.
        let leaf = MAX_CALL_DEPTH - 1;
        let mut cif: String = (0..leaf)
            .map(|i| format!("DS {i}; C {};DF;", i + 1))
            .collect();
        for spare in [leaf, leaf + 1] {
            cif.push_str(&format!("DS {spare}; L NM; B 2000 750 1000 375; DF;"));
        }
        cif.push_str("C 0; E");
        let layout = parse(&cif).unwrap();
        let id = |cif| layout.symbol_by_cif_id(cif).unwrap();
        let mut edits = EditSet::new();
        edits.replace_symbol(id(leaf as u32), vec![call(id(leaf as u32 + 1))]);
        let err = plan(&layout, &edits).unwrap_err();
        assert_eq!(err, EditError::TooDeep(id(0)));
        assert!(err.to_string().contains("more than 256 deep"), "{err}");
        // The same call one level up stays inside the bound.
        let mut edits = EditSet::new();
        edits.replace_symbol(id(leaf as u32 - 1), vec![call(id(leaf as u32 + 1))]);
        assert!(plan(&layout, &edits).is_ok());
    }

    #[test]
    fn plan_bounds_the_element_count_a_set_would_leave() {
        // Symbol n calls n - 1 twice: one call of symbol 26 is 2^25
        // elements, two reach the budget exactly.
        let mut cif = String::from("DS 1; L NM; B 2000 750 1000 375; DF;");
        for n in 2..=27 {
            cif.push_str(&format!("DS {n}; C {}; C {} T 0 1000; DF;", n - 1, n - 1));
        }
        cif.push_str("C 26; E");
        let layout = parse(&cif).unwrap();
        let id = |cif| layout.symbol_by_cif_id(cif).unwrap();
        let add = |symbol, times: usize| {
            let mut edits = EditSet::new();
            for _ in 0..times {
                edits.add_call(symbol, Transform::IDENTITY, "x");
            }
            edits
        };
        assert!(plan(&layout, &add(id(26), 1)).is_ok());
        let err = plan(&layout, &add(id(26), 2)).unwrap_err();
        let elements = 3 << 25;
        assert_eq!(err, EditError::TooLarge { elements });
        assert!(err.to_string().contains("100663296 elements"), "{err}");
        // A removal in the same set makes room.
        let mut edits = add(id(26), 2);
        edits.remove(0);
        assert!(plan(&layout, &edits).is_ok());
        // A replace grows the count through the call already placed:
        // symbol 26 calling 25 (2^24 elements) four times reaches the
        // budget, five times pass it.
        let replace = |times: usize| {
            let mut edits = EditSet::new();
            edits.replace_symbol(id(26), vec![call(id(25)); times]);
            plan(&layout, &edits).map(|_| ())
        };
        assert_eq!(replace(4), Ok(()));
        assert_eq!(replace(5), Err(EditError::TooLarge { elements: 5 << 24 }));
        // Moves and element adds cannot multiply the count: unchecked.
        let mut edits = EditSet::new();
        edits.translate(0, 500, 0);
        assert!(plan(&layout, &edits).is_ok());
    }

    #[test]
    fn plan_holds_moves_to_the_coordinate_range() {
        let m = MAX_COORD;
        let layout = parse(&format!(
            "DS 1; L NM; B 2000 750 1000 375; DF; C 1 T {} 0; L NM; W 500 0 0 0 {}; E",
            m - 10,
            m - 20
        ))
        .unwrap();
        let moves = |steps: &[(usize, i64, i64)]| {
            let mut edits = EditSet::new();
            for &(index, dx, dy) in steps {
                edits.translate(index, dx, dy);
            }
            plan(&layout, &edits).map(|_| ())
        };
        let refused = |index, dx, dy| {
            Err(EditError::OutOfRange {
                index,
                by: Vector::new(dx, dy),
            })
        };
        // A call's translation, and a wire's points (not its width).
        assert_eq!(moves(&[(0, 10, 0)]), Ok(()));
        assert_eq!(moves(&[(0, 11, 0)]), refused(0, 11, 0));
        assert_eq!(moves(&[(1, 0, 20), (1, 0, -m)]), Ok(()));
        assert_eq!(moves(&[(1, 0, 21)]), refused(1, 0, 21));
        // Moves of one item add up within a set, and follow it as the
        // set shifts it; an added item starts at its own coordinates.
        assert_eq!(moves(&[(0, 5, 0), (0, 5, 0), (0, 1, 0)]), refused(0, 1, 0));
        let mut edits = EditSet::new();
        edits.translate(1, 0, 20).remove(0).translate(0, 0, 1);
        assert_eq!(plan(&layout, &edits).map(|_| ()), refused(0, 0, 1));
        let mut edits = EditSet::new();
        edits
            .add_box("NM", Rect::new(-m, 0, 0, 750), None)
            .translate(2, -1, 0);
        assert_eq!(plan(&layout, &edits).map(|_| ()), refused(2, -1, 0));
        // A vector past `i64` is refused, not overflowed.
        assert_eq!(moves(&[(0, i64::MAX, 0)]), refused(0, i64::MAX, 0));
        let err = moves(&[(0, 11, 0)]).unwrap_err().to_string();
        assert!(
            err.contains("outside the coordinate range ±4503599627370496"),
            "{err}"
        );
    }

    #[test]
    fn move_walk_is_refused_at_the_coordinate_range() {
        // A box walked right in in-range steps (each one a move the wire
        // decoder accepts) until one would carry it past `MAX_COORD`: that
        // move is refused before anything changes.
        let mut session = rails_beside("", 12);
        let step = MAX_COORD / 3;
        let mut walked = 0;
        let err = loop {
            let layout = session.layout().clone();
            let report = format!("{:?}", session.report());
            let mut edits = EditSet::new();
            edits.translate(0, step, 0);
            match session.apply(&edits) {
                Ok(_) => walked += 1,
                Err(err) => {
                    assert_eq!(*session.layout(), layout);
                    assert_eq!(format!("{:?}", session.report()), report);
                    break err;
                }
            }
        };
        assert_eq!(walked, 2, "the third step ends past the range");
        let by = Vector::new(step, 0);
        assert_eq!(err, EditError::OutOfRange { index: 0, by });
        assert_matches_full(&session);
        // The session keeps editing.
        let mut back = EditSet::new();
        back.translate(0, -2 * step, 0);
        session.apply(&back).unwrap();
        assert_matches_full(&session);
    }

    #[test]
    fn recursive_replace_is_rejected_and_leaves_the_session_untouched() {
        // Symbol 2 calls symbol 1; replacing 1 with a call of 2 closes
        // the cycle. Unchecked, the next hierarchy walk overflows the
        // stack and aborts the process.
        let cif = "DS 1; L NM; B 2000 750 1000 375; DF; DS 2; C 1 T 0 0; DF; C 2 T 0 0; E";
        let mut session = CheckSession::new(parse(cif).unwrap(), &nmos_technology(), &options());
        let layout = session.layout().clone();
        let report = format!("{:?}", session.report());
        let (callee, caller) = (SymbolId(0), SymbolId(1));
        let mut edits = EditSet::new();
        edits
            .translate(0, 500, 0)
            .replace_symbol(callee, vec![call(caller)]);
        let err = session.apply(&edits).unwrap_err();
        assert_eq!(err, EditError::RecursiveSymbol(callee));
        assert_eq!(*session.layout(), layout);
        assert_eq!(format!("{:?}", session.report()), report);
        assert_matches_full(&session);
        // Through the rebuild path too (a body item past the table).
        let mut edits = EditSet::new();
        edits.replace_symbol(callee, vec![call(SymbolId(7))]);
        let err = session.apply(&edits).unwrap_err();
        assert_eq!(err, EditError::UnknownSymbol(SymbolId(7)));
        assert_eq!(*session.layout(), layout);
        assert_eq!(format!("{:?}", session.report()), report);
    }

    #[test]
    fn net_neutral_edits_reuse_the_net_list() {
        let reused = |session: &mut CheckSession, edits: &EditSet| {
            let stats = session.apply(edits).unwrap();
            assert!(!stats.full_rebuild);
            assert_nets_match_scratch(session);
            assert_matches_full(session);
            (stats.netlist_reused, stats.nets_respliced)
        };
        // An isolated instance moves: its keys are instance-local.
        let mut session = transistor_row();
        let mut edits = EditSet::new();
        edits.translate(5, 0, 50_000);
        assert_eq!(reused(&mut session, &edits), (true, 0));
        // A declared-net wire dragged through free space …
        let mut session = rails();
        let mut edits = EditSet::new();
        edits.translate(5, 0, 1000);
        assert_eq!(reused(&mut session, &edits), (true, 0));
        // … until it lands on a rail: E and F merge.
        let mut edits = EditSet::new();
        edits.translate(5, 0, -4000);
        assert_eq!(reused(&mut session, &edits), (false, 1));
        assert_eq!(net_names(&session), ["A", "B", "C", "D", "E"]);
        // An isolated instance beside undeclared rails: the rails' auto
        // keys are not in play, the net list is reused all the same.
        let mut session = rails_beside(TRANSISTOR_CELL, 12);
        let cell = session.layout().symbol_by_cif_id(2).unwrap();
        let mut add = EditSet::new();
        add.add_call(cell, Transform::translate(Vector::new(100_000, 0)), "t");
        assert!(!reused(&mut session, &add).0);
        let mut edits = EditSet::new();
        edits.translate(12, 0, 20_000);
        assert_eq!(reused(&mut session, &edits), (true, 0));
    }

    /// The patched view, run table and element index equal a fresh
    /// open's: elements, devices and keys resolved in id order (interner
    /// handles may differ), run lengths, and one live index entry per
    /// element, under its bbox and owned back by it.
    fn assert_view_matches_open(session: &CheckSession) {
        let open = CheckSession::new(session.layout.clone(), &session.tech, &session.options);
        assert_eq!(
            session.view.resolved_tail(0, 0),
            open.view.resolved_tail(0, 0)
        );
        assert_eq!(session.runs, open.runs);
        assert_eq!(session.elem_index.len(), session.elem_handles.len());
        assert_eq!(session.elem_handles.len(), session.view.elements.len());
        let bboxes = session.view.elements.bboxes();
        for (id, &handle) in session.elem_handles.iter().enumerate() {
            let indexed = session
                .elem_index
                .get(handle)
                .map(|(bbox, &owner)| (*bbox, owner));
            assert_eq!(indexed, Some((bboxes[id], id as u32)), "element {id}");
        }
    }

    /// A symbol body of `n` metal boxes 3000 apart.
    fn boxes(n: i64) -> Vec<Item> {
        let body: String = (0..n)
            .map(|i| format!("L NM; B 2000 750 1000 {};", 375 + i * 3000))
            .collect();
        parse(&format!("DS 9; {body} DF; E")).unwrap().symbols()[0]
            .items
            .clone()
    }

    #[test]
    fn relaid_view_equals_a_fresh_open() {
        // Twelve rails, three wired transistors (runs with devices), and
        // two placements of a two-box cell: 12 + 15 + 4 elements.
        let mut cif = String::from(TRANSISTOR_CELL);
        cif.push_str("DS 3; L NM; B 2000 750 1000 375; L NM; B 2000 750 1000 3375; DF;\n");
        for i in 0..12 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        for i in 0..3 {
            cif.push_str(&format!("C 2 T {} 0;\n", 50_000 + i * 20_000));
        }
        cif.push_str("C 3 T 0 60000; C 3 T 10000 60000;\nE");
        let mut session = CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), &options());
        let symbol = |cif_id| session.layout().symbol_by_cif_id(cif_id).unwrap();
        let (transistor, cell) = (symbol(2), symbol(3));
        let rewritten = |session: &mut CheckSession, edits: &EditSet| {
            let stats = session.apply(edits).unwrap();
            assert!(!stats.full_rebuild, "{stats:?}");
            assert_view_matches_open(session);
            assert_nets_match_scratch(session);
            assert_matches_full(session);
            stats.elements_rewritten
        };
        // A moved transistor goes back over its own run, devices too.
        let mut edits = EditSet::new();
        edits.translate(13, 0, 5000);
        assert_eq!(rewritten(&mut session, &edits), 5);
        // A body one box longer: the first placement is walked, does not
        // fit its run, and both are laid back after the split; then one
        // box shorter again.
        let mut edits = EditSet::new();
        edits.replace_symbol(cell, boxes(3));
        assert_eq!(rewritten(&mut session, &edits), 6);
        let mut edits = EditSet::new();
        edits.replace_symbol(cell, boxes(2));
        assert_eq!(rewritten(&mut session, &edits), 4);
        // A rail removed from the middle: every run after it moves down.
        let mut edits = EditSet::new();
        edits.remove(5);
        assert_eq!(rewritten(&mut session, &edits), 31 - 6);
        // Appended items, and the last one removed or moved.
        let mut edits = EditSet::new();
        edits
            .add_box("NM", Rect::new(0, 40_000, 2000, 40_750), None)
            .add_call(
                transistor,
                Transform::translate(Vector::new(0, 90_000)),
                "t",
            );
        assert_eq!(rewritten(&mut session, &edits), 1 + 5);
        let mut edits = EditSet::new();
        edits.remove(17);
        assert_eq!(rewritten(&mut session, &edits), 0);
        let mut edits = EditSet::new();
        edits.translate(16, 0, 3000);
        assert_eq!(rewritten(&mut session, &edits), 1);
        // A move before a removal in one set: in place, then the split.
        let mut edits = EditSet::new();
        edits.translate(0, -3000, 0).remove(3);
        assert_eq!(rewritten(&mut session, &edits), 1 + (31 - 4));
    }

    #[test]
    fn rekey_from_the_index_matches_a_fresh_open() {
        // Two exact duplicates — undeclared, one layer, one bbox, so keys
        // `…` and `…:1` — and a stray box that moves onto them and off
        // again: listed after them, and before them, where its arrival
        // shifts both survivors' ordinals. Ten rails keep every edit
        // under the rebuild threshold.
        let dup = "L NM; B 2000 750 1000 375;";
        let stray = "L NM; B 2000 750 11000 375;";
        let group_bbox = Rect::new(0, 0, 2000, 750);
        let group_keys = |s: &CheckSession| -> Vec<(usize, String)> {
            let cols = &s.view.elements;
            (0..cols.len())
                .filter(|&id| cols.bboxes()[id] == group_bbox)
                .map(|id| (id, s.view.name_text(cols.net_keys()[id]).into_owned()))
                .collect()
        };
        for (items, stray_at) in [
            (format!("{dup}{dup}{stray}"), 2),
            (format!("{stray}{dup}{dup}"), 0),
        ] {
            let mut cif = items;
            for i in 1..=10 {
                cif.push_str(&format!("L NM; B 2000 750 1000 {};", 375 + i * 3000));
            }
            cif.push_str(" E");
            let mut session =
                CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), &options());
            assert!(group_keys(&session)[1].1.ends_with(":1"));
            for (dx, members) in [(-10_000, 3), (10_000, 2)] {
                let mut edits = EditSet::new();
                edits.translate(stray_at, dx, 0);
                let stats = session.apply(&edits).unwrap();
                assert!(!stats.full_rebuild, "{stats:?}");
                let open =
                    CheckSession::new(session.layout().clone(), &nmos_technology(), &options());
                let keys = group_keys(&session);
                assert_eq!(keys, group_keys(&open), "stray at {stray_at}, moved {dx}");
                assert_eq!(keys.len(), members);
                assert!(keys[members - 1].1.ends_with(&format!(":{}", members - 1)));
                assert_eq!(session.report().violations, open.report().violations);
                assert_eq!(session.report().netlist, open.report().netlist);
                assert_matches_full(&session);
            }
        }
    }

    #[test]
    fn element_index_stays_bounded_under_endless_churn() {
        // One 8-element cell moved there and back 3 000 times: every
        // edit re-inserts its elements under fresh index handles. The
        // index's slots must stay bounded by the live elements, and
        // every live entry must name its element's current id.
        let mut cif = String::from("DS 1;\n");
        for i in 0..8 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        cif.push_str("DF;\n");
        for i in 0..40 {
            cif.push_str(&format!("L NM; B 2000 750 1000 {};\n", 375 + i * 3000));
        }
        cif.push_str("C 1 T 50000 0;\nE");
        let mut session = CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), &options());
        let live = session.report().element_count;
        let mut bytes_at_100 = 0;
        for step in 1..=3000 {
            let mut churn = EditSet::new();
            churn.translate(40, if step % 2 == 1 { 2500 } else { -2500 }, 0);
            let stats = session.apply(&churn).unwrap();
            assert!(!stats.full_rebuild, "churn edits must stay incremental");
            let slots = session.elem_index.len() + session.elem_index.tombstones();
            assert!(slots <= 2 * live + 64, "step {step}: {slots} index slots");
            for (id, &handle) in session.elem_handles.iter().enumerate() {
                let owner = session.elem_index.get(handle).map(|(_, &owner)| owner);
                assert_eq!(owner, Some(id as u32), "step {step}: element {id}");
            }
            if step == 100 {
                bytes_at_100 = session.memory_bytes();
            }
        }
        let bytes = session.memory_bytes();
        let drift = bytes.abs_diff(bytes_at_100);
        assert!(drift * 20 <= bytes_at_100, "{bytes_at_100} → {bytes} bytes");
        assert_matches_full(&session);
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
        let merged = session.report().netlist.net(NetId(0));
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

    /// The lines of one report stage, rendered.
    fn lines_of(session: &CheckSession, stage: CheckStage) -> Vec<String> {
        let lines = session.report().violations.iter();
        lines
            .filter(|v| v.stage == stage)
            .map(|v| format!("{v:?}"))
            .collect()
    }

    /// Two transistors, each with its source on `GND` and drain on `VDD`
    /// diffusion wires: T1's gate on poly wire `A`, which dangles (one
    /// terminal), T2's on wire `B`, which a poly contact also sits on.
    /// Separate `VDD` and `GND` metal rails, and an `IO_PAD` with an
    /// undeclared box on it, far from everything.
    fn erc_chip(options: &CheckOptions) -> CheckSession {
        let mut cif = String::from(
            "DS 1; 9D NMOS_ENH;
             9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
             L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF;
             DS 4; 9D CONTACT_P; L NC; B 500 500 0 0; L NP; B 1000 1000 0 0;
             L NM; B 1000 1000 0 0; DF;\n",
        );
        for (y, gate) in [(0, "A"), (20_000, "B")] {
            cif.push_str(&format!(
                "C 1 T 0 {y}; L NP; 9N {gate}; W 500 -375 {y} -3000 {y};
                 L ND; 9N GND; W 500 250 {} 250 {};
                 L ND; 9N VDD; W 500 250 {} 250 {};\n",
                y - 1000,
                y - 4000,
                y + 1000,
                y + 4000
            ));
        }
        cif.push_str(
            "C 4 T -3000 20000;
             L NM; 9N VDD; B 750 30000 30000 10000;
             L NM; 9N GND; B 750 30000 33000 10000;
             L NM; 9N IO_PAD; B 4000 4000 60000 0;
             L NM; B 1000 1000 60000 0; E",
        );
        CheckSession::new(parse(&cif).unwrap(), &nmos_technology(), options)
    }

    /// Applies `edits` under the rebuild threshold and holds the session
    /// to the from-scratch check.
    fn apply_checked(session: &mut CheckSession, edits: &EditSet) -> EditStats {
        let stats = session.apply(edits).unwrap();
        assert!(!stats.full_rebuild, "{stats:?}");
        assert_matches_full(session);
        stats
    }

    #[test]
    fn erc_reruns_on_the_spliced_nets_only() {
        let dangling = "Erc { rule: DanglingNet, detail: \"net 'A' has 1 device terminal(s)\" }";
        let short = "Erc { rule: PowerGroundShort";
        let plain = CheckOptions::default();
        let intended = erc_chip(&plain).report().netlist.clone();
        let compared = CheckOptions {
            intended_netlist: Some(intended),
            ..CheckOptions::default()
        };
        for options in [plain, compared] {
            let mut session = erc_chip(&options);
            let has = |session: &CheckSession, line: &str| {
                lines_of(session, CheckStage::Composition)
                    .iter()
                    .any(|l| l.contains(line))
            };
            let at_open = lines_of(&session, CheckStage::Composition);
            assert_eq!(at_open.len(), 1, "{at_open:?}");
            assert!(has(&session, dangling));
            assert!(lines_of(&session, CheckStage::NetList).is_empty());

            // A poly strap from wire A to wire B: A's net gains T2's gate
            // and the contact, and stops dangling.
            let mut strap = EditSet::new();
            strap.add_box("NP", Rect::new(-3250, -500, -2750, 20_500), None);
            let stats = apply_checked(&mut session, &strap);
            assert!(
                !stats.netlist_reused && stats.nets_respliced == 1,
                "{stats:?}"
            );
            let after = lines_of(&session, CheckStage::Composition);
            assert!(after.is_empty(), "{after:?} {:?}", session.report());
            let mismatch = !lines_of(&session, CheckStage::NetList).is_empty();
            assert_eq!(mismatch, options.intended_netlist.is_some());

            // A metal strap across the rails shorts VDD to GND.
            let mut short_rails = EditSet::new();
            short_rails.add_box("NM", Rect::new(29_500, 0, 33_500, 750), None);
            apply_checked(&mut session, &short_rails);
            assert!(has(&session, short));

            // The inverses, in reverse order, restore the open's lines.
            for index in [14, 13] {
                let mut undo = EditSet::new();
                undo.remove(index);
                apply_checked(&mut session, &undo);
            }
            assert_eq!(lines_of(&session, CheckStage::Composition), at_open);
            assert!(lines_of(&session, CheckStage::NetList).is_empty());

            // A move far from all of them re-keys the box on the pad, so
            // the pad's net is spliced — and nothing is retracted.
            let mut far = EditSet::new();
            far.translate(12, 500, 0);
            let stats = apply_checked(&mut session, &far);
            assert!(
                !stats.netlist_reused && stats.nets_respliced == 1,
                "{stats:?}"
            );
            assert_eq!(stats.retracted, 0, "{stats:?}");
            assert_eq!(lines_of(&session, CheckStage::Composition), at_open);
        }
    }

    #[test]
    fn primitive_checks_rerun_only_when_a_definition_changes() {
        // Symbol 4 a clean poly contact, placed once beside twelve rails;
        // symbol 5 a contact whose metal misses the cut's enclosure,
        // waived by its immunity flag and never placed.
        let contacts = "DS 4; 9D CONTACT_P; L NC; B 500 500 0 0; L NP; B 1000 1000 0 0;
             L NM; B 1000 1000 0 0; DF;
             DS 5; 9 immune; 9D CONTACT_P; 9C; L NC; B 500 500 0 0; L NP; B 1000 1000 0 0;
             L NM; B 500 500 0 0; DF;
             C 4 T 50000 0;\n";
        let mut session = rails_beside(contacts, 12);
        let symbol = |session: &CheckSession, cif_id| session.layout().symbol_by_cif_id(cif_id);
        let (contact, immune) = (symbol(&session, 4).unwrap(), symbol(&session, 5).unwrap());
        let original = session.layout().symbol(contact).items.clone();
        let immune_body = session.layout().symbol(immune).items.clone();
        assert!(lines_of(&session, CheckStage::PrimitiveSymbols).is_empty());
        assert_eq!(session.report().waived_devices, ["immune"]);

        let mut layers = ["XA", "XB"].into_iter();
        let mut replace = |session: &mut CheckSession, body: Vec<Item>| {
            let mut edits = EditSet::new();
            edits.replace_symbol(contact, body);
            let stats = apply_checked(session, &edits);
            assert!(stats.primitives_rechecked, "{stats:?}");
            let lines = lines_of(session, CheckStage::PrimitiveSymbols);
            // An element on a CIF layer name the layout has never seen:
            // the binding grows, the cached lines and list carry over.
            if let Some(layer) = layers.next() {
                let mut add = EditSet::new();
                add.add_box(layer, Rect::new(0, -5000, 2000, -4250), None);
                let stats = apply_checked(session, &add);
                assert!(!stats.primitives_rechecked, "{stats:?}");
                assert_eq!(lines_of(session, CheckStage::PrimitiveSymbols), lines);
            }
            assert_eq!(session.report().waived_devices, ["immune"]);
            lines
        };
        // A poly that no longer encloses the cut.
        let mut broken = original.clone();
        let Item::Element(poly) = &mut broken[1] else {
            panic!("the contact's second item is its poly")
        };
        poly.shape = Shape::Box(Rect::new(-250, -250, 250, 250));
        let broken_lines = replace(&mut session, broken);
        assert_eq!(broken_lines.len(), 1, "{broken_lines:?}");
        // The immune symbol's body: its flag stays with its declaration,
        // so symbol 4 reports the metal it now lacks.
        let immune_lines = replace(&mut session, immune_body);
        assert_eq!(immune_lines.len(), 1, "{immune_lines:?}");
        assert_ne!(immune_lines, broken_lines);
        assert!(replace(&mut session, original).is_empty());

        // A far move re-checks no definition, and searches its halo only.
        let mut far = EditSet::new();
        far.translate(0, 0, -1000);
        let stats = apply_checked(&mut session, &far);
        assert!(!stats.primitives_rechecked, "{stats:?}");
        let elements = session.report().element_count;
        assert!(
            (1..elements / 2).contains(&stats.halo_elements),
            "{stats:?}"
        );
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
    fn a_call_move_writes_as_many_list_rows_on_a_taller_chip() {
        // The splice's work follows the nets an edit touches, not the
        // list: the same call move in row 0 of a 24 × 12 and a 24 × 24
        // array re-derives the same nets (the rails run along a row)
        // and writes the same rows, though the taller list has twice the
        // nets and devices to keep.
        let tech = nmos_technology();
        let mut seen = Vec::new();
        for ny in [12, 24] {
            let chip = diic_gen::generate(&diic_gen::ChipSpec::clean(24, ny));
            let layout = parse(&chip.cif).unwrap();
            let index = (layout.top_items().iter())
                .position(|item| matches!(item, Item::Call(_)))
                .expect("the array is calls");
            let mut session = CheckSession::new(layout, &tech, &options());
            let devices = session.report().netlist.device_count();
            // One λ up: off the rails it shared, so the splice runs.
            let mut edits = EditSet::new();
            edits.translate(index, 0, 250);
            let stats = apply_spliced(&mut session, &edits);
            assert!(stats.net_rows_written > 0);
            seen.push((devices, stats.nodes_respliced, stats.net_rows_written));
        }
        let [(small, nodes, rows), (tall, tall_nodes, tall_rows)] = seen[..] else {
            unreachable!("two chips");
        };
        assert!(tall > 3 * small / 2, "{small} → {tall} devices");
        assert_eq!(nodes, tall_nodes, "the same nets are re-derived");
        assert_eq!(rows, tall_rows, "list rows written");
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
    fn heavy_churn_reopens_the_session_and_stays_exact() {
        // A chip big enough that moving one 8-element cell stays under
        // the full-rebuild threshold (8 of 48 elements dirty); each
        // move evicts and re-inserts the cell's elements, leaving 8
        // dead index slots per apply, so the threshold (dead > live,
        // floored at 64) trips within a handful of edits. The apply
        // that trips it ends in a reopen: a fresh open's memory and
        // index, the from-scratch report, and the delta of the edit.
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
        let mut reopens = 0;
        for step in 0..30 {
            let mut churn = EditSet::new();
            churn.translate(40, if step % 2 == 0 { 2500 } else { -2500 }, 0);
            let before = session.report().violations.clone();
            let stats = session.apply(&churn).unwrap();
            assert!(!stats.full_rebuild, "churn edits must stay incremental");
            assert_eq!(
                session.last_delta(),
                &ReportDelta::by_rendering(&before, &session.report().violations)
            );
            if stats.index_compacted {
                reopens += 1;
                let fresh = CheckSession::new(session.layout.clone(), &tech, &options());
                assert_eq!(session.memory_bytes(), fresh.memory_bytes());
                assert_eq!(session.elem_index.tombstones(), 0);
                assert_matches_full(&session);
            } else {
                let dead = session.elem_index.tombstones();
                assert!(
                    dead <= session.elem_index.len().max(64),
                    "{dead} dead slots"
                );
            }
            if step % 10 == 0 {
                assert_matches_full(&session);
            }
        }
        assert!(
            reopens >= 2,
            "30 churn applies must trip the reopen threshold repeatedly (got {reopens})"
        );
        // The session keeps editing exactly afterwards.
        let mut after = EditSet::new();
        after.add_box("NM", Rect::new(0, 1250, 2000, 2000), None);
        session.apply(&after).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
        assert_nets_match_scratch(&session);
    }

    #[test]
    fn compact_memory_reopens_a_churned_session_as_a_fresh_open() {
        // Add-then-remove churn orphans interned keys and leaves dead
        // slots in the element index; a wired transistor and a contact
        // arrive after it. The base chip is wide enough that one-box
        // churn stays under the full-rebuild threshold (a rebuild would
        // reopen already).
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
        for (cif_id, y, name) in [(2, 0, "t"), (4, 50_000, "c")] {
            let symbol = session.layout().symbol_by_cif_id(cif_id).unwrap();
            let mut add = EditSet::new();
            add.add_call(symbol, Transform::translate(Vector::new(100_000, y)), name);
            session.apply(&add).unwrap();
        }
        assert_eq!(session.report().device_count, 2);
        let (report, delta) = (session.report().clone(), session.last_delta().clone());
        let before = session.memory_bytes();

        assert!(session.compact_memory(), "a patched session reopens");
        let fresh = CheckSession::new(session.layout().clone(), session.tech(), session.options());
        assert_eq!(session.memory_bytes(), fresh.memory_bytes());
        assert!(session.memory_bytes() < before, "the churn garbage is gone");
        assert_eq!(session.report().violations, report.violations);
        assert_eq!(session.report().netlist, report.netlist);
        assert_eq!(session.last_delta(), &delta);
        assert!(
            !session.compact_memory(),
            "a fresh open has nothing to shed"
        );
        assert_eq!(session.last_delta(), &delta);

        // The reopened session keeps editing exactly, including a
        // diffusion strap that re-binds the device placed before it.
        let mut add = EditSet::new();
        add.add_box("NM", Rect::new(0, 1250, 2000, 2000), None);
        session.apply(&add).unwrap();
        assert_eq!(session.report().violations.len(), 1);
        assert_matches_full(&session);
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
