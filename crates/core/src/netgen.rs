//! Stage 5 — "generate hierarchical net list".
//!
//! "While parsing the design, each element in the design is assigned a
//! unique net identifier using a dot notation to reference elements in an
//! instance from a higher level in the hierarchy. With this hierarchical
//! net list available, it is now possible to check electrical construction
//! rules or to check the net list against an input net list for
//! consistency."
//!
//! # One interner, end to end
//!
//! The net graph's node ids **are** the view interner's raw indices
//! ([`crate::binding::Istr::index`]): an element's node is its `net_key`
//! handle, and the fresh keys this stage creates — terminal keys
//! (`i0.G`), joining-device keys (`i0.#`), label nets — are interned
//! into [`ChipView::strings`]. No key string is ever copied into a
//! second table, and "same string ⇒ same node" holds across the whole
//! pipeline, which is what keeps an edit session's cached rows valid.
//! Node ids therefore depend on interning history (a from-scratch build
//! and a patched session may number them differently) — which is fine,
//! because [`assemble_netlist`] canonicalises purely by key *strings*:
//! net identity, aliases, and ordering never see the raw ids.
//!
//! # Binding through the scope table
//!
//! A transistor terminal or a `9L` label names the net of whatever
//! netted element covers its point. [`NetParts::build`] finds those
//! elements through the chip's [`ScopeTable`] — its third consumer,
//! after the connection scan and the interaction search: the table says
//! which top-level scopes' boxes cover the point
//! ([`ScopeTable::covering`], a single-cell lookup), and each covering
//! scope is asked through **one [`BindIndex`] per definition** — built
//! over the netted elements of the *first* scope presenting that
//! `(symbol, orientation)`, queried at the point translated into that
//! first scope's frame (every scope of the group is a translated copy of
//! the first; [`crate::instantiate`] only ever translates what it
//! derived). The candidates are tested on the scope's own elements, and
//! the answers of the covering scopes merge ascending by element id, so
//! a terminal binds to a neighbour's wire or a loose one exactly as it
//! would through one grid over every netted element of the chip — which
//! is what a chip that is one scope, or all loose, builds. That direct
//! binder, one [`BindIndex::build_among`] over an id set, is what an
//! edit session re-binds a halo with, and over every netted id it is the
//! reference the table-driven binder is held to row for row (a proptest,
//! in debug and release builds).
//!
//! # Parallelism
//!
//! Net-list generation splits into a **bind phase** and a serial fold
//! and assembly. The element-node map is a read-only column sweep
//! (`net_key` handle + device class per element), so it fans out over
//! the worker pool, as do the per-definition index builds. The bind
//! phase — each terminal's and each label's point to the ids of the
//! elements covering it — is a pure function per point of the
//! (read-only) view, the table and the shared indexes, so it fans out
//! too, in contiguous chunks of the device and label lists
//! ([`crate::parallel::run_ordered`]), and returns **element ids only**:
//! no key string is formatted and no row is built on a worker. The
//! serial fold then walks the devices and labels in order with one row
//! builder — each fresh key (`{path}.{terminal}`, `{path}.#`, a label's
//! net) formatted into a reused buffer and interned by reference, each
//! row's `terms` and `edges` allocated once at their final size — in the
//! order a one-worker build interns in, so the int-keyed graph is
//! numbered identically and the assembled net list is **byte-identical
//! for any worker count** ([`NetParts::build`], driven by
//! [`CheckOptions::parallelism`](crate::CheckOptions::parallelism); the
//! seventh differential-oracle leg in `tests/differential.rs` pins it).
//! The same builder serves an edit session's re-rows
//! ([`NetParts::device_parts`], [`NetParts::label_parts`]). The assembly
//! itself ([`NetParts::assemble`] → [`assemble_netlist`]) stays serial:
//! it is a global union-find plus canonical naming.
//!
//! # Splicing
//!
//! An edit session patches the graph's rows and then does **not**
//! re-run that fold: [`NetParts::splice`] re-derives only the connected
//! components a changed row can reach and copies every other net and
//! device row across from the previous net list in runs — a net list is
//! flat columns over one text buffer ([`diic_netlist::Netlist`]), so a
//! run of kept rows is one copy of its text and a shift of its spans —
//! so an edit's net phase canonicalises only the nets it touched. The
//! from-scratch assembly is the splice's reference (asserted equal in
//! debug builds, and by this module's tests in release builds).

use crate::binding::{ChipView, DeviceInstance, Istr, StringInterner};
use crate::connect::is_joining_class;
use crate::parallel::{run_chunked, run_ordered};
use crate::scope::{ScopeStats, ScopeTable};
use crate::violations::Violation;
use diic_cif::NetLabel;
use diic_geom::{GridIndex, Point};
use diic_netlist::{
    assemble_netlist, canonical_nets, AssembleDevice, NetId, Netlist, NetlistWriter,
};
use diic_tech::{DeviceClass, LayerId, Technology};
use std::borrow::Borrow;

/// Output of net-list generation.
#[derive(Debug, Clone, PartialEq)]
pub struct NetgenResult {
    /// The extracted net list.
    pub netlist: Netlist,
    /// Net of each element (index = element id); `None` for un-netted
    /// device internals (gates, resistor bodies).
    pub element_net: Vec<Option<NetId>>,
    /// Terminal nets per device instance (index = device id).
    pub device_terminal_nets: TerminalNets,
    /// Violations (currently none are produced here; reserved for
    /// extraction anomalies).
    pub violations: Vec<Violation>,
}

/// The terminal nets of every device, flattened: `terminal_nets[d]` is
/// device `d`'s nets in terminal order, one contiguous run of a single
/// allocation (an edit session rebuilds and drops this table on every
/// edit, and the interaction stage's relatedness test scans a run per
/// device-element pair).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TerminalNets {
    /// `starts[d]..starts[d + 1]` is device `d`'s run in `nets`.
    starts: Vec<u32>,
    nets: Vec<NetId>,
}

impl TerminalNets {
    /// Resolves every device row's terminal nodes through a node → net
    /// table.
    fn gather(rows: &[DeviceParts], node_net: &[Option<NetId>]) -> TerminalNets {
        let mut starts = Vec::with_capacity(rows.len() + 1);
        let mut nets = Vec::with_capacity(rows.iter().map(|r| r.terms.len()).sum());
        starts.push(0);
        for row in rows {
            nets.extend(row.terms.iter().filter_map(|(_, n)| node_net[*n as usize]));
            starts.push(nets.len() as u32);
        }
        TerminalNets { starts, nets }
    }
}

impl std::ops::Index<usize> for TerminalNets {
    type Output = [NetId];

    fn index(&self, device: usize) -> &[NetId] {
        &self.nets[self.starts[device] as usize..self.starts[device + 1] as usize]
    }
}

/// True if the element carries a net: interconnect and joining
/// (contact-class) device geometry. A transistor's un-netted parts must
/// not become phantom zero-terminal nets.
pub fn element_is_netted(view: &ChipView, id: usize) -> bool {
    match view.elements.get(id).device() {
        None => true,
        Some(d) => is_joining_class(view.devices[d].class),
    }
}

/// True if element `id` lies on `layer` and covers point `p`.
fn covers(view: &ChipView, id: usize, layer: LayerId, p: Point) -> bool {
    let e = view.elements.get(id);
    e.layer() == layer && e.rects().iter().any(|r| r.contains_point(p))
}

/// Spatial index over a set of bindable (netted) elements, for terminal
/// and label point binding. Cells are sized from the technology's rule
/// reach rather than a magic constant.
#[derive(Debug)]
pub struct BindIndex {
    index: GridIndex<usize>,
}

impl BindIndex {
    /// Indexes the given elements (ascending ids — callers must pass
    /// netted elements; only they can bind): an edit session's halo, or
    /// one definition's elements for the table-driven binder.
    pub fn build_among(view: &ChipView, tech: &Technology, ids: &[usize]) -> BindIndex {
        let mut index: GridIndex<usize> =
            GridIndex::new(crate::interact::interaction_cell_size(tech));
        let bboxes = view.elements.bboxes();
        for &id in ids {
            index.insert(bboxes[id], id);
        }
        BindIndex { index }
    }

    /// Appends to `out` the ids (ascending) of the indexed elements
    /// covering point `p` on `layer` — a single-cell lookup
    /// ([`GridIndex::at`]) into the caller's buffer; nothing is
    /// allocated per point.
    pub fn elements_at(&self, view: &ChipView, layer: LayerId, p: Point, out: &mut Vec<usize>) {
        out.extend(
            self.index
                .at(p)
                .copied()
                .filter(|&id| covers(view, id, layer, p)),
        );
    }
}

/// What the bind phase asks of an index: the netted elements covering a
/// point. Implemented by the direct [`BindIndex`] and by the
/// table-driven `ScopeBinder`, which must agree.
trait PointBinder: Sync {
    /// Appends to `out` the ids (ascending) of the elements covering `p`
    /// on `layer` and returns the index lookups it made; `scopes` is
    /// scratch.
    fn bind(
        &self,
        view: &ChipView,
        layer: LayerId,
        p: Point,
        scopes: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) -> u64;
}

impl PointBinder for BindIndex {
    fn bind(
        &self,
        view: &ChipView,
        layer: LayerId,
        p: Point,
        _: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) -> u64 {
        self.elements_at(view, layer, p, out);
        1
    }
}

/// The table-driven binder (see the module docs): one [`BindIndex`] per
/// distinct definition-and-orientation, over the first scope presenting
/// it, plus one over the loose scope — none for a scope without a netted
/// element.
struct ScopeBinder<'a> {
    scopes: &'a ScopeTable,
    indexes: Vec<BindIndex>,
    /// Per scope that is the first of its definition (or the loose one):
    /// its index in `indexes`.
    index_of: Vec<Option<u32>>,
    /// Elements the indexes hold between them.
    entries: usize,
}

impl<'a> ScopeBinder<'a> {
    fn build(
        view: &ChipView,
        tech: &Technology,
        scopes: &'a ScopeTable,
        element_node: &[Option<u32>],
        workers: usize,
    ) -> Self {
        let all = scopes.scopes();
        let owners: Vec<usize> = (0..all.len())
            .filter(|&s| all[s].first_of_definition() == s)
            .collect();
        let built = run_ordered(owners.len(), workers, |k| {
            let netted: Vec<usize> = (scopes.ids(owners[k]).iter())
                .filter(|&id| element_node[id].is_some())
                .collect();
            (!netted.is_empty())
                .then(|| (netted.len(), BindIndex::build_among(view, tech, &netted)))
        });
        let mut binder = ScopeBinder {
            scopes,
            indexes: Vec::new(),
            index_of: vec![None; all.len()],
            entries: 0,
        };
        for (owner, (len, index)) in owners
            .into_iter()
            .zip(built)
            .filter_map(|(o, b)| Some((o, b?)))
        {
            binder.index_of[owner] = Some(binder.indexes.len() as u32);
            binder.indexes.push(index);
            binder.entries += len;
        }
        binder
    }
}

impl PointBinder for ScopeBinder<'_> {
    fn bind(
        &self,
        view: &ChipView,
        layer: LayerId,
        p: Point,
        covering: &mut Vec<usize>,
        out: &mut Vec<usize>,
    ) -> u64 {
        self.scopes.covering(p, covering);
        let all = self.scopes.scopes();
        let (from, mut probes) = (out.len(), 0);
        for &s in covering.iter() {
            let scope = &all[s];
            let home = &all[scope.first_of_definition()];
            let Some(k) = self.index_of[scope.first_of_definition()] else {
                continue;
            };
            probes += 1;
            // The scope is its home translated: look `p` up where it falls
            // in the home's frame (wrapping, as the point it lands on is
            // inside the home's box whenever `p` is inside the scope's),
            // and test the candidates' counterparts in this scope.
            let (to, at) = (scope.transform.offset, home.transform.offset);
            let q = Point::new(
                p.x.wrapping_sub(to.x.wrapping_sub(at.x)),
                p.y.wrapping_sub(to.y.wrapping_sub(at.y)),
            );
            let shift = scope.run().start - home.run().start;
            let candidates = self.indexes[k as usize].index.at(q);
            out.extend(
                candidates
                    .map(|&id| id + shift)
                    .filter(|&id| covers(view, id, layer, p)),
            );
        }
        // Each scope answers ascending; loose ids interleave with the
        // call runs, and so may the runs of overlapping scopes.
        if probes > 1 && !out[from..].is_sorted() {
            out[from..].sort_unstable();
        }
        probes
    }
}

/// What the bind phase found: for every bound point, in point order —
/// each terminal of each terminal-separated device in device order, then
/// each label whose layer is known — the ids (ascending) of the netted
/// elements covering it, end to end in one buffer.
#[derive(Debug, Default)]
struct Bound {
    ids: Vec<usize>,
    /// `ends[k]` is where point `k`'s run in `ids` ends.
    ends: Vec<usize>,
    /// Index lookups made.
    probes: u64,
}

impl Bound {
    fn bind(
        &mut self,
        binder: &impl PointBinder,
        view: &ChipView,
        (layer, p): (LayerId, Point),
        scratch: &mut Vec<usize>,
    ) {
        self.probes += binder.bind(view, layer, p, scratch, &mut self.ids);
        self.ends.push(self.ids.len());
    }

    /// Binds every terminal of a terminal-separated device (a joining
    /// device binds nothing: its own geometry is its net).
    fn bind_device(
        &mut self,
        binder: &impl PointBinder,
        view: &ChipView,
        dev: &DeviceInstance,
        scratch: &mut Vec<usize>,
    ) {
        if !is_joining_class(dev.class) {
            for &(_, layer, pos) in &dev.terminals {
                self.bind(binder, view, (layer, pos), scratch);
            }
        }
    }

    fn append(&mut self, other: Bound) {
        let base = self.ids.len();
        self.ids.extend(other.ids);
        self.ends
            .extend(other.ends.into_iter().map(|end| base + end));
        self.probes += other.probes;
    }

    /// The ids bound at points `points.start .. points.end`.
    fn span(&self, points: std::ops::Range<usize>) -> &[usize] {
        let start = |k: usize| k.checked_sub(1).map_or(0, |k| self.ends[k]);
        &self.ids[start(points.start)..start(points.end)]
    }
}

/// Runs `bind(i, …)` for `i` in `0..n` over the worker pool in contiguous
/// chunks — each chunk filling one [`Bound`] of its own — and joins the
/// chunks in index order, so the result is the same for any worker
/// count.
fn bind_chunked(
    n: usize,
    workers: usize,
    bind: impl Fn(usize, &mut Bound, &mut Vec<usize>) + Sync,
) -> Bound {
    let chunk = match workers {
        0 | 1 => n,
        _ => n.div_ceil(workers * 4),
    }
    .max(1);
    let chunks = run_ordered(n.div_ceil(chunk), workers, |k| {
        let (mut bound, mut scratch) = (Bound::default(), Vec::new());
        for i in k * chunk..((k + 1) * chunk).min(n) {
            bind(i, &mut bound, &mut scratch);
        }
        bound
    });
    let mut chunks = chunks.into_iter();
    let mut bound = chunks.next().unwrap_or_default();
    chunks.for_each(|chunk| bound.append(chunk));
    bound
}

/// The serial half of row building, shared by the whole-chip fold and an
/// edit session's re-rows: consumes a [`Bound`] point by point, formats
/// each fresh key into one reused buffer and interns it by reference (a
/// hit allocates nothing), and allocates each row's vectors once, at
/// their final size.
struct RowBuilder<'a> {
    element_node: &'a [Option<u32>],
    bound: &'a Bound,
    /// The next point of `bound` to consume.
    next: usize,
    key: String,
}

impl<'a> RowBuilder<'a> {
    fn new(element_node: &'a [Option<u32>], bound: &'a Bound) -> Self {
        RowBuilder {
            element_node,
            bound,
            next: 0,
            key: String::new(),
        }
    }

    /// The node of the key `{path}.{tail}` (`{path}.#` without one).
    fn node(&mut self, strings: &mut StringInterner, path: Istr, tail: Option<Istr>) -> u32 {
        self.key.clear();
        self.key.push_str(strings.get(path));
        self.key.push('.');
        self.key.push_str(tail.map_or("#", |t| strings.get(t)));
        strings.intern(&self.key).index()
    }

    /// The node of an element a row joins or binds to.
    fn element(&self, eid: usize) -> u32 {
        // invariant: joining-class geometry is netted, and only netted
        // elements are indexed for binding.
        self.element_node[eid].expect("joined and bound elements are netted")
    }

    /// One device's row; a terminal-separated device consumes one bound
    /// point per terminal.
    fn device(&mut self, strings: &mut StringInterner, dev: &DeviceInstance) -> DeviceParts {
        if is_joining_class(dev.class) {
            // One net for the whole device.
            let node = self.node(strings, dev.path, None);
            let terms = match dev.terminals.is_empty() {
                // Still a device on its single net.
                true => vec![(strings.intern("A"), node)],
                false => dev.terminals.iter().map(|&(t, _, _)| (t, node)).collect(),
            };
            let joined = dev.element_ids.iter();
            return DeviceParts {
                terms,
                edges: joined.map(|&eid| (node, self.element(eid))).collect(),
            };
        }
        // Terminal-separated device: each terminal is its own key, bound
        // to the elements covering it.
        let points = self.next..self.next + dev.terminals.len();
        self.next = points.end;
        let mut row = DeviceParts {
            terms: Vec::with_capacity(dev.terminals.len()),
            edges: Vec::with_capacity(self.bound.span(points.clone()).len()),
        };
        for (&(tname, _, _), k) in dev.terminals.iter().zip(points) {
            let node = self.node(strings, dev.path, Some(tname));
            row.terms.push((tname, node));
            let bound = self.bound.span(k..k + 1).iter();
            row.edges
                .extend(bound.map(|&eid| (node, self.element(eid))));
        }
        row
    }

    /// One label's row; a label whose layer is known consumes one bound
    /// point.
    fn label(
        &mut self,
        strings: &mut StringInterner,
        label: &NetLabel,
        layer: Option<LayerId>,
    ) -> LabelParts {
        if layer.is_none() {
            return LabelParts::default();
        }
        let node = strings.intern(&label.net).index();
        let bound = self.bound.span(self.next..self.next + 1).iter();
        self.next += 1;
        LabelParts {
            node: Some(node),
            edges: bound.map(|&eid| (node, self.element(eid))).collect(),
        }
    }
}

/// One device's rows in the net graph: its terminal `(name, node)` pairs
/// and the connection edges its geometry/bindings contribute. Rows are
/// position-independent (they reference interned nodes, not element
/// ids), which is what lets an edit session splice cached rows of
/// untouched devices into a patched graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceParts {
    /// `(terminal-name, node)` pairs, in terminal order. The name is a
    /// handle in the owning view's interner, like the node beside it —
    /// a row owns no string, and both follow every interner remap.
    pub terms: Vec<(Istr, u32)>,
    /// Node-pair edges (device join edges or terminal bindings).
    pub edges: Vec<(u32, u32)>,
}

impl DeviceParts {
    /// Every node the row names: its terminals and both ends of its
    /// edges (with repeats).
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        let terms = self.terms.iter().map(|&(_, n)| n);
        terms.chain(self.edges.iter().flat_map(|&(a, b)| [a, b]))
    }
}

/// One label's rows: its net node (None if the label's layer is unknown)
/// and its binding edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelParts {
    /// The label net's node.
    pub node: Option<u32>,
    /// Label-to-covering-element edges.
    pub edges: Vec<(u32, u32)>,
}

impl LabelParts {
    /// Every node the row names (with repeats).
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        let node = self.node.into_iter();
        node.chain(self.edges.iter().flat_map(|&(a, b)| [a, b]))
    }
}

/// The int-keyed net graph behind net-list generation.
///
/// Nodes are **raw indices into the owning view's interner**
/// ([`ChipView::strings`]) — there is no second key table, so net node
/// keys are never re-interned, and the interner's append-only contract
/// makes nodes **stable across edits** (stale keys simply stop being
/// referenced). The element/device/label rows record which nodes are
/// live and how they connect. [`NetParts::assemble`] folds the graph
/// through [`assemble_netlist`] — the same canonicalisation the
/// [`diic_netlist::NetlistBuilder`] uses, keyed purely on the node's
/// *strings* — so a graph patched incrementally by a
/// [`crate::incremental::CheckSession`] produces a net list
/// byte-identical to a from-scratch build even where the two interned
/// the keys in different orders.
///
/// The graph also remembers the **node → net resolution of its last
/// assembly**. That table is what lets a session's ordinary edits
/// [`NetParts::splice`] the cached net list — rebuild only the nets a
/// changed row can reach, move every other net and device across —
/// instead of re-assembling the whole chip's strings;
/// [`NetParts::assemble`] stays the from-scratch reference the splice
/// is asserted against in debug builds.
#[derive(Debug, Clone, Default)]
pub struct NetParts {
    /// Node per element id; `None` for un-netted device internals.
    pub element_node: Vec<Option<u32>>,
    /// Node-pair edges from the connection stage's merges.
    pub conn_edges: Vec<(u32, u32)>,
    /// Per-device rows, aligned with `ChipView::devices`.
    pub devices: Vec<DeviceParts>,
    /// Per-label rows, aligned with the label list given to
    /// [`NetParts::build`].
    pub labels: Vec<LabelParts>,
    /// Net of each node as of the last [`NetParts::assemble`] /
    /// [`NetParts::splice`], indexed by node id: `Some` exactly for the
    /// nodes that were live then. Nodes interned since lie past its end.
    node_net: Vec<Option<NetId>>,
}

/// What [`NetParts::splice`] produced: the new resolution plus what
/// the caller needs to diff net identities against the old net list.
#[derive(Debug)]
pub struct NetSplice {
    /// The spliced resolution — equal to a from-scratch
    /// [`NetParts::assemble`] of the patched graph.
    pub nets: NetgenResult,
    /// Per new net id: true for the nets built fresh from the affected
    /// components. Every other net was copied across unchanged (same
    /// name, aliases and terminals, up to id renumbering).
    pub fresh: Vec<bool>,
    /// The old nets the splice dissolved, as ids into the old list,
    /// ascending. An element or terminal whose new net is fresh had
    /// its old net among these.
    pub retired: Vec<NetId>,
    /// Live nodes in the affected components (the splice's work).
    pub nodes: usize,
    /// The list that was spliced, kept for the retired nets' names.
    old: Netlist,
}

impl NetSplice {
    /// Canonical name of a dissolved old net.
    pub fn retired_name(&self, old: NetId) -> Option<&str> {
        let retired = self.retired.binary_search(&old).is_ok();
        retired.then(|| self.old.net(old).name())
    }
}

impl NetParts {
    /// Remaps every node through an interner compaction map
    /// ([`crate::binding::StringInterner::compact`]): nodes are raw
    /// interner indices, so when the owning view's table is compacted
    /// (a long-lived service session shedding edit-churn garbage) the
    /// whole graph renumbers with it, and so do the terminal-name handles
    /// its device rows carry. The caller must keep every string
    /// [`NetParts::for_each_string`] visits alive in the compaction —
    /// the remap is dense and order-preserving, so the graph stays
    /// isomorphic and [`NetParts::assemble`] (which canonicalises by the
    /// node *strings*) produces byte-identical net lists.
    pub fn remap_strings(&mut self, remap: &[Option<crate::binding::Istr>]) {
        self.map_strings(&mut |n| {
            // invariant: the compaction keep set includes every node
            // and every terminal name.
            remap[n as usize]
                .expect("live net nodes and terminal names survive compaction")
                .index()
        });
        // The cached resolution is indexed by node id: move each live
        // entry to its node's new position (evicted strings were dead
        // nodes, whose entries are `None` already).
        let mut node_net = vec![None; remap.iter().flatten().count()];
        for (old, net) in self.node_net.iter().enumerate() {
            if let (Some(net), Some(new)) = (net, remap[old]) {
                node_net[new.index() as usize] = Some(*net);
            }
        }
        self.node_net = node_net;
    }

    /// Visits (with repeats) every string of the owning view's interner
    /// the graph references — nodes and terminal names: the keep set of
    /// a compaction, and by construction exactly the handles
    /// [`NetParts::remap_strings`] rewrites (one walker serves both,
    /// hence `&mut self`; a visit writes each handle back unchanged).
    pub fn for_each_string(&mut self, visit: &mut impl FnMut(u32)) {
        self.map_strings(&mut |n| {
            visit(n);
            n
        });
    }

    /// Rewrites every interner handle the graph holds through `f`.
    fn map_strings(&mut self, f: &mut impl FnMut(u32) -> u32) {
        fn map_edges(edges: &mut [(u32, u32)], f: &mut impl FnMut(u32) -> u32) {
            for (a, b) in edges {
                (*a, *b) = (f(*a), f(*b));
            }
        }
        for node in self.element_node.iter_mut().flatten() {
            *node = f(*node);
        }
        map_edges(&mut self.conn_edges, f);
        for device in &mut self.devices {
            for (name, node) in &mut device.terms {
                *name = Istr::from_index(f(name.index()));
                *node = f(*node);
            }
            map_edges(&mut device.edges, f);
        }
        for label in &mut self.labels {
            if let Some(node) = &mut label.node {
                *node = f(*node);
            }
            map_edges(&mut label.edges, f);
        }
    }

    /// The cached node → net resolution.
    #[cfg(test)]
    pub(crate) fn node_net(&self) -> &[Option<NetId>] {
        &self.node_net
    }

    /// Heap bytes of the graph — rows, edges and the cached node → net
    /// resolution — as payload bytes: what a session pool budgets.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let edge = size_of::<(u32, u32)>();
        let devices = self.devices.iter().map(|d| {
            size_of_val(d) + d.terms.len() * size_of::<(Istr, u32)>() + d.edges.len() * edge
        });
        let labels = (self.labels.iter()).map(|l| size_of_val(l) + l.edges.len() * edge);
        self.element_node.len() * size_of::<Option<u32>>()
            + self.node_net.len() * size_of::<Option<NetId>>()
            + self.conn_edges.len() * edge
            + devices.chain(labels).sum::<usize>()
    }

    /// Builds the full graph for a view, binding terminal and label
    /// points through the scope table (see the module docs), and returns
    /// it with the table's [`ScopeStats`], this build's `bind_*`
    /// counters filled in.
    ///
    /// The element-node map, the per-definition index builds and the
    /// bind phase fan out over `workers` scoped threads; they are
    /// read-only and return element ids. The serial fold then builds
    /// every row, interning its fresh keys into the **view's** interner
    /// (hence the mutable view: the graph has no key store of its own)
    /// in device-then-label order, so node numbering, rows, and the
    /// assembled net list are **byte-identical for any worker count**.
    /// `labels` pairs each label — owned or borrowed — with its bound
    /// layer.
    pub fn build<L: Borrow<NetLabel> + Sync>(
        view: &mut ChipView,
        tech: &Technology,
        merges: &[(usize, usize)],
        labels: &[(L, Option<LayerId>)],
        scopes: &ScopeTable,
        workers: usize,
    ) -> (NetParts, ScopeStats) {
        let mut parts = NetParts::of_elements(view, merges, workers);
        let binder = ScopeBinder::build(view, tech, scopes, &parts.element_node, workers);
        let bound = parts.bind_and_fold(view, labels, &binder, workers);
        let stats = ScopeStats {
            bind_indexes_built: binder.indexes.len(),
            bind_index_entries: binder.entries,
            bind_points: bound.ends.len() as u64,
            bind_probes: bound.probes,
            ..scopes.stats()
        };
        (parts, stats)
    }

    /// [`NetParts::build`] through the direct binder: one [`BindIndex`]
    /// over every netted element of the chip — the reference the
    /// table-driven build must equal row for row.
    #[cfg(test)]
    pub(crate) fn build_direct<L: Borrow<NetLabel> + Sync>(
        view: &mut ChipView,
        tech: &Technology,
        merges: &[(usize, usize)],
        labels: &[(L, Option<LayerId>)],
        workers: usize,
    ) -> NetParts {
        let mut parts = NetParts::of_elements(view, merges, workers);
        let netted: Vec<usize> = (0..view.elements.len())
            .filter(|&id| parts.element_node[id].is_some())
            .collect();
        let binder = BindIndex::build_among(view, tech, &netted);
        parts.bind_and_fold(view, labels, &binder, workers);
        parts
    }

    /// The graph's element half: the element-node map — a parallel
    /// read-only sweep of the net-key and device columns; a node *is*
    /// its interned key's index, so no interner traffic at all — and the
    /// connection-merge edges over it.
    fn of_elements(view: &ChipView, merges: &[(usize, usize)], workers: usize) -> NetParts {
        let mut parts = NetParts {
            element_node: run_chunked(view.elements.len(), workers, |id| {
                element_is_netted(view, id).then(|| view.elements.net_keys()[id].index())
            }),
            ..NetParts::default()
        };
        parts.set_conn_edges(merges);
        parts
    }

    /// The graph's device and label half: the parallel bind phase
    /// through `binder`, then the serial fold into rows. Returns what
    /// was bound.
    fn bind_and_fold<L: Borrow<NetLabel> + Sync>(
        &mut self,
        view: &mut ChipView,
        labels: &[(L, Option<LayerId>)],
        binder: &impl PointBinder,
        workers: usize,
    ) -> Bound {
        let ro: &ChipView = view;
        let mut bound = bind_chunked(ro.devices.len(), workers, |di, bound, scratch| {
            bound.bind_device(binder, ro, &ro.devices[di], scratch);
        });
        bound.append(bind_chunked(labels.len(), workers, |li, bound, scratch| {
            let (label, layer) = &labels[li];
            if let Some(layer) = *layer {
                bound.bind(binder, ro, (layer, label.borrow().position), scratch);
            }
        }));

        // The fold's fresh keys are counted before it starts — one per
        // joining device, one per terminal otherwise, one per bound label
        // — so the view's table grows once, not mid-fold with a rehash of
        // every string it already holds.
        let device_keys = |d: &DeviceInstance| match is_joining_class(d.class) {
            true => 1,
            false => d.terminals.len(),
        };
        let fresh_keys = view.devices.iter().map(device_keys).sum::<usize>()
            + labels.iter().filter(|(_, layer)| layer.is_some()).count();
        view.strings.reserve(fresh_keys);
        let mut rows = RowBuilder::new(&self.element_node, &bound);
        self.devices = (view.devices.iter())
            .map(|dev| rows.device(&mut view.strings, dev))
            .collect();
        self.labels = (labels.iter())
            .map(|(label, layer)| rows.label(&mut view.strings, label.borrow(), *layer))
            .collect();
        debug_assert_eq!(rows.next, bound.ends.len(), "every bound point is consumed");
        bound
    }

    /// Recomputes the connection-merge edges from element-id pairs.
    pub fn set_conn_edges(&mut self, merges: &[(usize, usize)]) {
        self.conn_edges.clear();
        self.conn_edges.reserve(merges.len());
        for &(i, j) in merges {
            let (Some(a), Some(b)) = (self.element_node[i], self.element_node[j]) else {
                debug_assert!(false, "merge endpoints must be netted");
                continue;
            };
            self.conn_edges.push((a, b));
        }
    }

    /// Computes one device's row against a scoped bind index — an edit
    /// session re-binding a device whose neighbourhood changed — with
    /// the row builder the whole-chip fold uses, so a re-row and a
    /// rebuild intern in one order and produce equal rows.
    pub fn device_parts(&self, view: &mut ChipView, di: usize, bind: &BindIndex) -> DeviceParts {
        let mut bound = Bound::default();
        bound.bind_device(bind, view, &view.devices[di], &mut Vec::new());
        RowBuilder::new(&self.element_node, &bound).device(&mut view.strings, &view.devices[di])
    }

    /// Computes one label's row (see [`NetParts::device_parts`]).
    pub fn label_parts(
        &self,
        view: &mut ChipView,
        label: &NetLabel,
        layer: Option<LayerId>,
        bind: &BindIndex,
    ) -> LabelParts {
        let mut bound = Bound::default();
        if let Some(layer) = layer {
            bound.bind(bind, view, (layer, label.position), &mut Vec::new());
        }
        RowBuilder::new(&self.element_node, &bound).label(&mut view.strings, label, layer)
    }

    /// Every node the element and label rows, and the device rows
    /// `open` selects by device id, reference (with repeats).
    fn live_nodes<'a>(
        &'a self,
        open: impl Fn(usize) -> bool + 'a,
    ) -> impl Iterator<Item = u32> + 'a {
        let elements = self.element_node.iter().flatten().copied();
        let terminals = self
            .devices
            .iter()
            .enumerate()
            .filter(move |(di, _)| open(*di))
            .flat_map(|(_, d)| d.terms.iter().map(|&(_, n)| n));
        let labels = self.labels.iter().filter_map(|l| l.node);
        elements.chain(terminals).chain(labels)
    }

    /// Every edge of the graph bar the unopened device rows':
    /// connection merges, then device rows, then label rows.
    fn edges<'a>(
        &'a self,
        open: impl Fn(usize) -> bool + 'a,
    ) -> impl Iterator<Item = (u32, u32)> + 'a {
        let devices = self
            .devices
            .iter()
            .enumerate()
            .filter(move |(di, _)| open(*di))
            .flat_map(|(_, d)| d.edges.iter().copied());
        let labels = self.labels.iter().flat_map(|l| l.edges.iter().copied());
        self.conn_edges.iter().copied().chain(devices).chain(labels)
    }

    /// The per-element / per-terminal resolutions of a node → net table.
    fn resolve(&self, netlist: Netlist, node_net: &[Option<NetId>]) -> NetgenResult {
        NetgenResult {
            netlist,
            element_net: self
                .element_node
                .iter()
                .map(|n| n.and_then(|n| node_net[n as usize]))
                .collect(),
            device_terminal_nets: TerminalNets::gather(&self.devices, node_net),
            violations: Vec::new(),
        }
    }

    /// Assembles the canonical net list and per-element / per-terminal
    /// resolutions from the current graph, **from scratch**
    /// ([`assemble_netlist`] over every live node), and remembers the
    /// node → net resolution for a later [`NetParts::splice`]. Node
    /// keys render through the view's interner (the only key table
    /// there is).
    ///
    /// This is what a batch check, a session's open and its
    /// full-rebuild fallback run, and the reference the splice must
    /// equal.
    pub fn assemble(&mut self, view: &ChipView) -> NetgenResult {
        let (nets, node_net) = self.assemble_from_scratch(view);
        self.node_net = node_net;
        nets
    }

    /// [`NetParts::assemble`] without touching the cached resolution:
    /// the result and the dense node → net table it implies.
    pub(crate) fn assemble_from_scratch(
        &self,
        view: &ChipView,
    ) -> (NetgenResult, Vec<Option<NetId>>) {
        // The live nodes, ascending and once each: a bitmap over the
        // interner (nodes are its indices), each one's key resolved once.
        let mut live = vec![0u64; view.strings.len().div_ceil(64)];
        let mut count = 0;
        for n in self.live_nodes(|_| true) {
            let (word, bit) = (&mut live[n as usize / 64], 1u64 << (n % 64));
            count += (*word & bit == 0) as usize;
            *word |= bit;
        }
        let mut nodes: Vec<(u32, &str)> = Vec::with_capacity(count);
        for (w, mut word) in live.into_iter().enumerate() {
            while word != 0 {
                let n = w as u32 * 64 + word.trailing_zeros();
                nodes.push((n, view.strings.get(Istr::from_index(n))));
                word &= word - 1;
            }
        }
        let edges: Vec<(u32, u32)> = self.edges(|_| true).collect();

        let devices = (view.devices.iter().zip(&self.devices)).map(|(dev, row)| AssembleDevice {
            name: view.str(dev.path),
            device_type: view.str(dev.device_type),
            class: dev.class.unwrap_or(DeviceClass::Capacitor),
            terminals: row.terms.iter().map(|&(t, n)| (view.str(t), n)),
        });

        let (netlist, node_nets) = assemble_netlist(&nodes, &edges, devices);
        // Dense node → net map (nodes are view-interner indices).
        let mut node_net: Vec<Option<NetId>> = vec![None; view.strings.len()];
        for (&(node, _), &net) in nodes.iter().zip(&node_nets) {
            node_net[node as usize] = Some(net);
        }
        (self.resolve(netlist, &node_net), node_net)
    }

    /// Brings the net list of the last assembly up to date with the
    /// patched graph by **splicing**: only the nets a changed row can
    /// reach are canonicalised anew; every other net's rows, and every
    /// surviving device's that has no terminal on an affected net, are
    /// copied out of `old` in runs of neighbours — one copy of a run's
    /// text, no name compared, sorted or resolved for them. `old` rides
    /// along in the result, where the retired nets' names are read from
    /// ([`NetSplice::retired_name`]).
    ///
    /// `touched` names the nodes at which the graph changed since the
    /// last assembly. It must hold
    ///
    /// * every node a removed, added or re-keyed **element** row
    ///   referenced (before and after);
    /// * **both** endpoints of every edge that was added, and at least
    ///   one endpoint of every edge that was removed;
    /// * every node (terminals and edge endpoints) of every **device or
    ///   label row** that was added, removed or changed, before and
    ///   after.
    ///
    /// `dev_old_of_new[d]` is the old id of new device `d`, `None` for a
    /// device instantiated since; surviving devices keep their relative
    /// order. `old_terminal_nets` is the last assembly's
    /// [`NetgenResult::device_terminal_nets`].
    ///
    /// # Why the splice is exact
    ///
    /// Let `D_old` be the old nets holding a touched node and `D` the
    /// live nodes that either had no net (new nodes — all touched) or
    /// had one in `D_old`. No edge of the patched graph leaves `D`: an
    /// edge `(a, b)` with `a ∈ D`, `b ∉ D` is either new — then `b` is
    /// touched, so its old net is in `D_old` — or old, and then `a` and
    /// `b` shared an old net, which `a ∈ D` puts in `D_old`. Either
    /// way `b ∈ D`. So the components of `D` under the edges incident
    /// to `D` are whole nets of the patched graph, and a net outside
    /// `D_old` lost no node (a dead node is touched), gained none (that
    /// takes a crossing edge), lost no edge and kept its terminal rows:
    /// it is the same net, up to the renumbering of net and device ids
    /// — which is rewritten here through the old → new id maps. By the
    /// same token a surviving device none of whose old terminal nets is
    /// in `D_old` has an unchanged row that names no node of `D` (its
    /// edges run from a terminal's key to elements on that terminal's
    /// net), so the splice never opens it.
    ///
    /// In debug builds the result is asserted equal to
    /// [`NetParts::assemble`] from scratch.
    pub fn splice(
        &mut self,
        view: &ChipView,
        old: Netlist,
        old_terminal_nets: &TerminalNets,
        touched: &[u32],
        dev_old_of_new: &[Option<usize>],
    ) -> NetSplice {
        // Affected old nets, and the live nodes they and the new nodes
        // make up.
        let mut affected = vec![false; old.net_count()];
        for &t in touched {
            if let Some(Some(net)) = self.node_net.get(t as usize) {
                affected[net.0 as usize] = true;
            }
        }
        let cached = &self.node_net;
        let in_d = |n: u32| match cached.get(n as usize) {
            Some(Some(net)) => affected[net.0 as usize],
            _ => true,
        };
        // The device rows that can name a node of `D`.
        let opened: Vec<bool> = dev_old_of_new
            .iter()
            .map(|od| {
                od.is_none_or(|od| {
                    old_terminal_nets[od]
                        .iter()
                        .any(|net| affected[net.0 as usize])
                })
            })
            .collect();
        let mut d_nodes: Vec<u32> = self
            .live_nodes(|di| opened[di])
            .filter(|&n| in_d(n))
            .collect();
        d_nodes.sort_unstable();
        d_nodes.dedup();
        let nodes: Vec<(u32, &str)> = d_nodes
            .iter()
            .map(|&n| (n, view.strings.get(Istr::from_index(n))))
            .collect();
        let edges: Vec<(u32, u32)> = self
            .edges(|di| opened[di])
            .filter(|&(a, _)| in_d(a))
            .collect();
        debug_assert!(
            self.edges(|_| true).all(|(a, b)| in_d(a) == in_d(b)),
            "an edge crosses out of the affected components: `touched` is incomplete"
        );
        let (fresh_nets, d_node_nets) = canonical_nets(&nodes, &edges);

        // Merge the kept nets (already in canonical-name order) with
        // the fresh ones: the new order first, as `(fresh?, id in its
        // own list)`. Names cannot collide: a name is a node key, and a
        // node is in exactly one net.
        let mut retired = Vec::new();
        let mut order: Vec<(bool, u32)> =
            Vec::with_capacity(old.net_count() + fresh_nets.net_count());
        let mut fresh_ids = fresh_nets.nets().peekable();
        for net in old.nets() {
            if affected[net.id().0 as usize] {
                retired.push(net.id());
                continue;
            }
            while let Some(f) = fresh_ids.next_if(|f| f.name() < net.name()) {
                order.push((true, f.id().0));
            }
            order.push((false, net.id().0));
        }
        order.extend(fresh_ids.map(|f| (true, f.id().0)));
        let mut net_new_of_old = vec![None; old.net_count()];
        let mut new_of_fresh = vec![NetId(u32::MAX); fresh_nets.net_count()];
        for (new, &(is_fresh, id)) in order.iter().enumerate() {
            match is_fresh {
                true => new_of_fresh[id as usize] = NetId(new as u32),
                false => net_new_of_old[id as usize] = Some(NetId(new as u32)),
            }
        }
        // Then the rows, a run of neighbours from one list at a time.
        let mut list = NetlistWriter::new();
        list.reserve_text(old.text_bytes());
        for run in order.chunk_by(|a, b| a.0 == b.0 && a.1 + 1 == b.1) {
            let (is_fresh, first) = run[0];
            let from = if is_fresh { &fresh_nets } else { &old };
            list.copy_nets(from, first..first + run.len() as u32);
        }
        let fresh: Vec<bool> = order.iter().map(|&(is_fresh, _)| is_fresh).collect();

        // The node → net table: kept nets renumber, dissolved nets'
        // entries clear (their dead nodes stay cleared), and the
        // affected nodes take their fresh nets.
        self.node_net.resize(view.strings.len(), None);
        for entry in &mut self.node_net {
            *entry = entry.and_then(|net| net_new_of_old[net.0 as usize]);
        }
        for (&node, &local) in d_nodes.iter().zip(&d_node_nets) {
            self.node_net[node as usize] = Some(new_of_fresh[local.0 as usize]);
        }

        // Devices. An unopened survivor is on kept nets only, which at
        // most renumbered: its row is copied across, neighbours in one
        // run. An opened device — fresh, or with a terminal on an
        // affected net — is written from the view, its terminals' nets
        // re-read. (Which devices sit on a net, kept nets included, the
        // writer derives from the device rows when it finishes.)
        let kept_net = |net: NetId| {
            // invariant: an unopened device's nets were kept.
            net_new_of_old[net.0 as usize].expect("unopened devices sit on kept nets")
        };
        let copy_of: Vec<Option<u32>> = (opened.iter().zip(dev_old_of_new))
            .map(|(opened, od)| od.filter(|_| !opened).map(|od| od as u32))
            .collect();
        let mut di = 0;
        for run in copy_of.chunk_by(|a, b| a.is_some() && a.map(|od| od + 1) == *b) {
            if let Some(first) = run[0] {
                list.copy_devices(&old, first..first + run.len() as u32, kept_net);
            } else {
                let (dev, row) = (&view.devices[di], &self.devices[di]);
                list.device(
                    view.str(dev.path),
                    view.str(dev.device_type),
                    dev.class.unwrap_or(DeviceClass::Capacitor),
                );
                for &(tname, node) in &row.terms {
                    // invariant: terminal nodes are live, and every live
                    // node was resolved above.
                    let net = self.node_net[node as usize].expect("terminal nodes are live");
                    list.terminal(view.str(tname), net);
                }
            }
            di += run.len();
        }

        let spliced = NetSplice {
            nets: self.resolve(list.finish(), &self.node_net),
            fresh,
            retired,
            nodes: d_nodes.len(),
            old,
        };
        #[cfg(debug_assertions)]
        {
            let (scratch, node_net) = self.assemble_from_scratch(view);
            debug_assert_eq!(spliced.nets, scratch, "splice diverged from assembly");
            debug_assert_eq!(self.node_net, node_net, "cached node nets diverged");
        }
        spliced
    }
}

/// Generates the hierarchical net list.
///
/// * interconnect elements get their declared (`9N`, path-qualified) or
///   auto net keys;
/// * stage-4 merges unify keys;
/// * contact-class devices join all their elements and terminals into one
///   net; transistors/resistors expose per-terminal nets that bind to any
///   element covering the terminal point on the terminal's layer;
/// * `9L` labels name the net of the element covering the labelled point.
///
/// The view is mutable because the stage's fresh keys (terminal,
/// joining-device, and label nets) intern into the view's own string
/// table — the graph shares that one interner end to end.
///
/// This is [`NetParts::build`] — points bound through `scopes`, the bind
/// phase fanned out over `workers` scoped threads — followed by
/// [`NetParts::assemble`], which is serial and canonical, so any worker
/// count produces a byte-identical [`NetgenResult`]. An edit session
/// keeps the [`NetParts`] graph alive and patches it instead of
/// rebuilding.
pub fn generate_netlist<L: Borrow<NetLabel> + Sync>(
    view: &mut ChipView,
    tech: &Technology,
    merges: &[(usize, usize)],
    labels: &[(L, Option<LayerId>)],
    scopes: &ScopeTable,
    workers: usize,
) -> NetgenResult {
    let (mut parts, _) = NetParts::build(view, tech, merges, labels, scopes, workers);
    parts.assemble(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use crate::connect::check_connections_among;
    use diic_cif::{parse, Call, DeviceDecl, Element, Item, Layout, Shape, Symbol, Terminal};
    use diic_geom::{Orientation, Rect, Transform, Vector, Wire};
    use diic_tech::nmos::nmos_technology;
    use proptest::prelude::*;

    /// What one layout's net-list generation produced, by both binders.
    struct Extracted {
        nets: NetgenResult,
        /// The table-driven graph at the last worker count.
        parts: NetParts,
        view: ChipView,
        scopes: ScopeTable,
        stats: ScopeStats,
    }

    /// The table-driven graph and net list of a layout at each of
    /// `workers`, each from a pristine view and each asserted equal —
    /// rows, node numbering and result, field for field — to the direct
    /// binder's (one index over every netted element, one worker).
    fn extract_layout(layout: &Layout, tech: &Technology, workers: &[usize]) -> Extracted {
        let (binding, _) = LayerBinding::bind(layout, tech);
        let (pristine, runs) = instantiate(layout, tech, &binding, Default::default());
        let scopes = ScopeTable::build(
            layout.top_items(),
            runs.iter().map(|run| run.0),
            pristine.elements.bboxes(),
            crate::interact::max_rule_range(tech),
        );
        let all: Vec<usize> = (0..pristine.elements.len()).collect();
        let conn = check_connections_among(&pristine, tech, &all);
        let labels: Vec<(&NetLabel, Option<LayerId>)> = (layout.labels().iter())
            .map(|l| (l, binding.layer(l.layer)))
            .collect();

        let mut direct_view = pristine.clone();
        let mut direct = NetParts::build_direct(&mut direct_view, tech, &conn.merges, &labels, 1);
        let direct_nets = direct.assemble(&direct_view);
        let mut last = None;
        for &w in workers {
            let mut view = pristine.clone();
            let (mut parts, stats) =
                NetParts::build(&mut view, tech, &conn.merges, &labels, &scopes, w);
            assert_eq!(parts.devices, direct.devices, "workers={w}");
            assert_eq!(parts.labels, direct.labels, "workers={w}");
            assert_eq!(parts.element_node, direct.element_node, "workers={w}");
            assert_eq!(parts.conn_edges, direct.conn_edges, "workers={w}");
            assert_eq!(view.strings.len(), direct_view.strings.len(), "workers={w}");
            assert_eq!(parts.assemble(&view), direct_nets, "workers={w}");
            last = Some((parts, view, stats));
        }
        let (parts, view, stats) = last.expect("at least one worker count");
        Extracted {
            nets: direct_nets,
            parts,
            view,
            scopes,
            stats,
        }
    }

    fn extract(cif: &str) -> (NetgenResult, ChipView) {
        let x = extract_layout(&parse(cif).unwrap(), &nmos_technology(), &[1, 2]);
        (x.nets, x.view)
    }

    #[test]
    fn connected_wires_share_a_net() {
        let (r, _) = extract("L NM; 9N A; B 2000 750 1000 375; 9N B; B 2000 750 2200 375; E");
        let a = r.netlist.net_by_name("A").unwrap();
        let b = r.netlist.net_by_name("B").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn transistor_terminals_bind_to_covering_wires() {
        // Enhancement transistor with poly gate wire and diff S/D wires
        // covering its terminal points.
        let (r, _) = extract(
            "DS 1; 9 tr; 9D NMOS_ENH;
             9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
             L NP; B 1500 500 250 0;
             L ND; B 500 2500 250 0;
             DF;
             C 1 T 0 0;
             L NP; 9N in; W 500 -375 0 -3000 0;
             L ND; 9N gnd; W 500 250 -1000 250 -4000;
             L ND; 9N out; W 500 250 1000 250 4000;
             E",
        );
        assert_eq!(r.netlist.device_count(), 1);
        let dev = r.netlist.device(diic_netlist::DeviceId(0));
        assert_eq!(dev.device_type(), "NMOS_ENH");
        let g = r.netlist.net_by_name("in").unwrap();
        let s = r.netlist.net_by_name("gnd").unwrap();
        let d = r.netlist.net_by_name("out").unwrap();
        let find = |t: &str| dev.terminals().find(|(n, _)| *n == t).unwrap().1;
        assert_eq!(find("G"), g);
        assert_eq!(find("S"), s);
        assert_eq!(find("D"), d);
        // Three distinct nets (no shorting through the channel!).
        assert_ne!(s, d);
        assert_ne!(g, s);
    }

    #[test]
    fn contact_joins_layers_into_one_net() {
        let (r, _) = extract(
            "DS 1; 9D CONTACT_D; 9T A NM 0 0; 9T B ND 0 0;
             L NC; B 500 500 0 0; L ND; B 1000 1000 0 0; L NM; B 1000 1000 0 0; DF;
             C 1 T 0 0;
             L NM; 9N up; W 750 0 0 4000 0;
             L ND; 9N down; W 500 0 0 -4000 0;
             E",
        );
        let up = r.netlist.net_by_name("up").unwrap();
        let down = r.netlist.net_by_name("down").unwrap();
        assert_eq!(up, down, "contact must join metal and diffusion nets");
    }

    #[test]
    fn labels_name_nets() {
        let (r, _) = extract("L NM; B 2000 750 1000 375; 9L VDD NM 1000 375; E");
        assert!(r.netlist.net_by_name("VDD").is_some());
        // The rail element's net carries the VDD alias.
        let vdd = r.netlist.net_by_name("VDD").unwrap();
        assert!(r.netlist.net(vdd).aliases().any(|a| a == "VDD"));
        assert!(r.element_net[0] == Some(vdd));
    }

    #[test]
    fn hierarchical_dot_notation_nets() {
        let (r, _) = extract(
            "DS 1; L NM; 9N out; B 2000 750 1000 375; DF;
             C 1 T 0 0; C 1 T 10000 0; E",
        );
        assert!(r.netlist.net_by_name("i0.out").is_some());
        assert!(r.netlist.net_by_name("i1.out").is_some());
        assert_ne!(
            r.netlist.net_by_name("i0.out"),
            r.netlist.net_by_name("i1.out"),
            "instances must get distinct nets"
        );
    }

    #[test]
    fn transistor_internals_unnetted() {
        let (r, view) = extract(
            "DS 1; 9D NMOS_ENH; L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF; C 1; E",
        );
        for id in 0..view.elements.len() {
            assert!(r.element_net[id].is_none());
        }
    }

    #[test]
    fn node_keys_live_in_the_view_interner() {
        // The graph has no key table of its own: terminal keys and the
        // element nodes alike must resolve through the view's interner.
        let (_, view) = extract(
            "DS 1; 9D CONTACT_D; 9T A NM 0 0;
             L NC; B 500 500 0 0; L NM; B 1000 1000 0 0; DF;
             C 1 T 0 0; E",
        );
        assert!(
            view.strings.lookup("i0.#").is_some(),
            "joining-device key interned into the view table"
        );
    }

    /// [`crate::connect`]'s random two-level layouts (all eight
    /// orientations; abutting, overlapping, coincident and far
    /// placements; duplicates; loose elements between the calls), with
    /// what point binding turns on added at the top level: three-terminal
    /// transistors called directly, each declaring a fourth terminal far
    /// outside its own geometry (and so outside its own scope's box);
    /// loose wires and a neighbouring cell's boxes over those terminals;
    /// a cell holding nothing but a transistor (a definition without a
    /// netted element); and labels inside one scope, on the shared edge
    /// of two abutting ones, outside every scope, scattered over the
    /// array, and on a layer the technology does not know.
    fn bindable_layout(rng: &mut TestRng) -> Layout {
        let mut layout = crate::connect::tests::random_layout(rng);
        let [nm, np, nd] = ["NM", "NP", "ND"].map(|name| layout.intern_layer(name));
        let unknown = layout.intern_layer("ZZ");
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        let on = |layer, shape| {
            Item::Element(Element {
                layer,
                shape,
                net: None,
            })
        };
        let terminal = |name: &str, layer, x, y| Terminal {
            name: name.into(),
            layer,
            position: Point::new(x, y),
        };
        let transistor = layout.add_symbol(Symbol {
            cif_id: 80,
            name: None,
            device: Some(DeviceDecl {
                device_type: "NMOS_ENH".into(),
                checked: true,
                terminals: vec![
                    terminal("G", np, -375, 0),
                    terminal("S", nd, 250, -1000),
                    terminal("D", nd, 250, 1000),
                    terminal("X", nm, 4500, 375),
                ],
            }),
            items: vec![
                on(np, Shape::Box(Rect::new(-500, -250, 1000, 250))),
                on(nd, Shape::Box(Rect::new(0, -1250, 500, 1250))),
            ],
        });
        // Poly below, metal above: put where a terminal falls on a box.
        let pad = layout.add_symbol(Symbol {
            cif_id: 81,
            name: None,
            device: None,
            items: vec![
                on(np, Shape::Box(Rect::new(0, 0, 2000, 1500))),
                on(nm, Shape::Box(Rect::new(0, 2000, 2000, 2750))),
            ],
        });
        let call = |target, orient, at: Vector, name: String| {
            Item::Call(Call {
                target,
                transform: Transform::new(orient, at),
                name,
            })
        };
        let bare = layout.add_symbol(Symbol {
            cif_id: 82,
            name: None,
            device: None,
            items: vec![call(transistor, Orientation::R0, Vector::ZERO, "t".into())],
        });
        let spot =
            |rng: &mut TestRng| Vector::new(250 * pick(rng, 64) as i64, 250 * pick(rng, 40) as i64);

        let mut pads: Vec<Vector> = Vec::new();
        for k in 0..2 + pick(rng, 3) {
            let orient = match pick(rng, 2) {
                0 => Orientation::R0,
                _ => Orientation::ALL[pick(rng, 8)],
            };
            let t = Transform::new(orient, spot(rng));
            layout.push_top(call(transistor, orient, t.offset, format!("x{k}")));
            let gate = t.apply_point(Point::new(-375, 0));
            let far = t.apply_point(Point::new(4500, 375));
            if pick(rng, 2) == 0 {
                // A loose wire ending on the gate terminal.
                let from = Point::new(gate.x - 2000, gate.y);
                let wire = Wire::new(500, vec![from, gate]).unwrap();
                layout.push_top(on(np, Shape::Wire(wire)));
            }
            if pick(rng, 2) == 0 {
                // A neighbour's poly over the gate terminal …
                pads.push(Vector::new(gate.x - 1000, gate.y - 700));
            }
            if pick(rng, 3) > 0 {
                // … and one's metal under the far terminal.
                pads.push(Vector::new(far.x - 1000, far.y - 2375));
            }
        }
        // Two pads abutting along x = edge.x.
        let edge = spot(rng);
        pads.extend([edge - Vector::new(2000, 0), edge]);
        for (k, at) in pads.iter().enumerate() {
            layout.push_top(call(pad, Orientation::R0, *at, format!("p{k}")));
            if pick(rng, 3) == 0 {
                let at = spot(rng);
                layout.push_top(on(
                    nm,
                    Shape::Box(Rect::new(at.x, at.y, at.x + 3000, at.y + 750)),
                ));
            }
        }
        for k in 0..pick(rng, 3) {
            // Sometimes on a pad, so the pad's poly takes the gate.
            let at = match pick(rng, 2) {
                0 => pads[pick(rng, pads.len())] + Vector::new(1375, 700),
                _ => spot(rng),
            };
            layout.push_top(call(bare, Orientation::R0, at, format!("b{k}")));
        }

        let mut label = |name: &str, layer, at: Vector| {
            layout.push_label(NetLabel {
                net: name.into(),
                layer,
                position: Point::new(at.x, at.y),
            })
        };
        label("INSIDE", nm, pads[0] + Vector::new(1000, 2375));
        label("EDGE", nm, edge + Vector::new(0, 2375));
        label("NOWHERE", nm, Vector::new(-90_000, -90_000));
        label("UNKNOWN", unknown, pads[0] + Vector::new(1000, 2375));
        for _ in 0..pick(rng, 5) {
            // A name twice joins two nets; the rails run along y < 750.
            let name = ["VDD", "GND", "INSIDE"][pick(rng, 3)];
            let at = Vector::new(250 * pick(rng, 64) as i64, 375);
            label(name, [nm, np, nd][pick(rng, 3)], at);
        }
        layout
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Table-driven ≡ direct: binding through the scope table — one
        /// index per definition, points translated into the first
        /// scope's frame, the covering scopes' answers merged by id —
        /// produces the rows, the node numbering and the net list of one
        /// index over every netted element, for any worker count, in
        /// release builds too.
        #[test]
        fn table_driven_netgen_equals_the_direct_binder(seed in 0u64..u64::MAX) {
            let layout = bindable_layout(&mut TestRng::for_case(seed, 0));
            extract_layout(&layout, &nmos_technology(), &[1, 2, 3, 7]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Spliced ≡ from scratch, where it counts: `splice`'s own check
        /// is a `debug_assert`, so this one runs in release builds too.
        /// The graph of a random layout is patched four times over — two
        /// elements joined, a connection cut, a device dropped (ids
        /// shift), a device inserted with keys of its own — and after
        /// each patch the spliced list, the resolutions beside it and the
        /// cached node → net table equal an assembly of the patched graph
        /// from nothing; each splice starts from the one before it.
        #[test]
        fn a_spliced_net_list_equals_one_assembled_from_scratch(seed in 0u64..u64::MAX) {
            let layout = bindable_layout(&mut TestRng::for_case(seed, 0));
            let x = extract_layout(&layout, &nmos_technology(), &[1]);
            let (mut parts, mut view, mut nets) = (x.parts, x.view, x.nets);
            let rng = &mut TestRng::for_case(seed, 1);
            let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
            let netted: Vec<u32> = parts.element_node.iter().flatten().copied().collect();
            let (mut respliced, mut retired) = (0, 0);
            for step in 0..4 {
                let mut touched: Vec<u32> = Vec::new();
                let mut dev_old_of_new: Vec<Option<usize>> =
                    (0..view.devices.len()).map(Some).collect();
                match pick(rng, 4) {
                    0 if !parts.conn_edges.is_empty() => {
                        let cut = parts.conn_edges.remove(pick(rng, parts.conn_edges.len()));
                        touched.push(cut.0);
                    }
                    1 if !view.devices.is_empty() => {
                        let di = pick(rng, view.devices.len());
                        view.devices.remove(di);
                        dev_old_of_new.remove(di);
                        touched.extend(parts.devices.remove(di).nodes());
                    }
                    2 if !view.devices.is_empty() => {
                        let at = pick(rng, view.devices.len() + 1);
                        let mut dev = view.devices[pick(rng, view.devices.len())].clone();
                        dev.path = view.strings.intern(&format!("late{step}"));
                        let name = view.strings.intern("G");
                        let key = view.strings.intern(&format!("late{step}.G")).index();
                        let row = DeviceParts {
                            terms: vec![(name, key)],
                            edges: vec![(key, netted[pick(rng, netted.len())])],
                        };
                        touched.extend(row.nodes());
                        view.devices.insert(at, dev);
                        parts.devices.insert(at, row);
                        dev_old_of_new.insert(at, None);
                    }
                    _ => {
                        let join = (netted[pick(rng, netted.len())], netted[pick(rng, netted.len())]);
                        parts.conn_edges.push(join);
                        touched.extend([join.0, join.1]);
                    }
                }
                let splice = parts.splice(
                    &view,
                    nets.netlist,
                    &nets.device_terminal_nets,
                    &touched,
                    &dev_old_of_new,
                );
                let (scratch, node_net) = parts.assemble_from_scratch(&view);
                prop_assert_eq!(&splice.nets, &scratch, "step {}", step);
                // The cached table may stop short of strings interned since.
                prop_assert!(parts.node_net().len() <= node_net.len());
                for (node, want) in node_net.iter().enumerate() {
                    prop_assert_eq!(parts.node_net().get(node).copied().flatten(), *want);
                }
                prop_assert_eq!(splice.fresh.len(), scratch.netlist.net_count());
                prop_assert!(splice.retired.is_sorted());
                prop_assert!(splice.retired.iter().all(|&old| splice.retired_name(old).is_some()));
                respliced += splice.fresh.iter().filter(|fresh| **fresh).count();
                retired += splice.retired.len();
                nets = splice.nets;
            }
            // Every patch above touches a live net or makes one.
            prop_assert!(respliced > 0 && retired > 0);
        }
    }

    #[test]
    fn the_bindable_layouts_exercise_every_binding() {
        // The oracle above is only as good as its inputs: over its first
        // cases, terminals must bind to elements of their own scope, of
        // another call scope (through a translated lookup) and of the
        // loose scope; points must fall in several scopes at once and in
        // none; definitions must go without an index; labels must bind
        // and fail to.
        let tech = nmos_technology();
        let (mut own, mut other, mut translated, mut loose) = (0, 0, 0, 0);
        let (mut multi, mut unbound_terminals) = (0, 0);
        let (mut labels_bound, mut labels_unbound, mut labels_on_two) = (0, 0, 0);
        let (mut definitions, mut indexes) = (0, 0);
        for case in 0..48 {
            let layout = bindable_layout(&mut TestRng::for_case(11, case));
            let x = extract_layout(&layout, &tech, &[1]);
            let scope_of = |id: usize| {
                let calls = x.scopes.calls();
                let s = calls.partition_point(|c| c.run().end <= id);
                match calls.get(s) {
                    Some(c) if c.run().contains(&id) => s,
                    _ => x.scopes.loose_index(),
                }
            };
            let element_of = |node: u32| {
                (x.parts.element_node.iter())
                    .position(|n| *n == Some(node))
                    .expect("an element node")
            };
            let mut covering = Vec::new();
            for (dev, row) in x.view.devices.iter().zip(&x.parts.devices) {
                if is_joining_class(dev.class) {
                    continue;
                }
                let home = scope_of(dev.element_ids[0]);
                for &(_, _, p) in &dev.terminals {
                    x.scopes.covering(p, &mut covering);
                    multi += (covering.len() > 1) as usize;
                }
                unbound_terminals += row.terms.len() - {
                    let mut bound: Vec<u32> = row.edges.iter().map(|e| e.0).collect();
                    bound.dedup();
                    bound.len()
                };
                for &(_, node) in &row.edges {
                    let s = scope_of(element_of(node));
                    if s == x.scopes.loose_index() {
                        loose += 1;
                    } else if s == home {
                        own += 1;
                    } else {
                        other += 1;
                        translated += (x.scopes.calls()[s].first_of_definition() != s) as usize;
                    }
                }
            }
            for row in &x.parts.labels {
                match row.edges.len() {
                    0 => labels_unbound += 1,
                    1 => labels_bound += 1,
                    _ => labels_on_two += 1,
                }
            }
            let calls = x.scopes.calls();
            definitions += (0..calls.len())
                .filter(|&s| calls[s].first_of_definition() == s)
                .count();
            indexes += x.stats.bind_indexes_built;
            assert!(x.stats.bind_probes >= x.stats.bind_index_entries.min(1) as u64);
        }
        assert!(
            own > 10 && other > 50 && translated > 20 && loose > 50,
            "own {own}, other {other} ({translated} translated), loose {loose}"
        );
        assert!(
            multi > 100 && unbound_terminals > 50,
            "multi-scope points {multi}, unbound terminals {unbound_terminals}"
        );
        assert!(
            labels_bound > 40 && labels_unbound > 48 && labels_on_two > 40,
            "labels: bound {labels_bound}, unbound {labels_unbound}, on two {labels_on_two}"
        );
        assert!(
            indexes < definitions,
            "{indexes} indexes for {definitions} definitions"
        );
    }
}
