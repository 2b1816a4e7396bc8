//! Stage 5 — "generate hierarchical net list".
//!
//! "While parsing the design, each element in the design is assigned a
//! unique net identifier using a dot notation to reference elements in an
//! instance from a higher level in the hierarchy. With this hierarchical
//! net list available, it is now possible to check electrical construction
//! rules or to check the net list against an input net list for
//! consistency."
//!
//! # One node space, numbered by arithmetic
//!
//! A net-graph node is a net key's node in the view's node space
//! ([`ChipView::node`]): an element's node is its `net_key`'s, a
//! terminal's its device's terminal key's (`i0.G`, or a joining
//! device's `i0.#`) and a label's its net's. A key rooted at an
//! instance — every stamped element's and device's — is the instance's
//! node base plus the template-local node of its string, so neither the
//! element-node map nor the fold formats or hashes anything per element
//! or per terminal; only a label's net (and a walked name, once, when
//! the walk settles it) is looked up as text. A view holds one form per
//! text ([`crate::binding::Name`]), so "same text ⇒ same node" holds
//! across the whole pipeline, which is what keeps an edit session's
//! cached rows valid. Nodes are appended, never renumbered, so a node
//! id — and with it every node-indexed table of the graph and of a
//! session's [`NetIndex`], each as long as the node space
//! ([`ChipView::node_count`]) — holds for the view's life; a session
//! that sheds dead nodes reopens instead. Node ids therefore depend on
//! history (a from-scratch build and a patched session may number them
//! differently) — which is fine, because [`assemble_netlist`]
//! canonicalises purely by key *text*, which is made only there (and in
//! a splice, for the components it re-derives): the live nodes' keys
//! are rendered end to end into one buffer as the assembly reads them,
//! and net identity, aliases and ordering never see the raw ids.
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
//! `(definition, orientation)`, queried at the point translated into that
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
//! builder — each terminal's node read off its key, each label's net
//! looked up once, each row's `terms` and `edges` allocated once at
//! their final size — in the order a one-worker build takes, so the
//! int-keyed graph is numbered identically and the assembled net list
//! is **byte-identical for any worker count** ([`NetParts::build`], driven by
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
//! re-run that fold: [`NetIndex::splice`] re-derives only the connected
//! components a changed row can reach and patches them into the
//! session's net list in place ([`diic_netlist::Netlist::patch`]) —
//! the retired nets give way to the fresh ones, merged in by name; every
//! other net and device row stays where its text lies, moved in its
//! column as a block if at all, its ids renumbered through the list's
//! net keys (one entry per net, never one per terminal) — so an edit's
//! net phase canonicalises and writes only the nets it touched. The
//! [`NetIndex`] is what keeps the rest of the splice off the chip: the
//! session builds it once at open and patches it with each edit's
//! [`GraphDelta`], and it finds the affected components by a search
//! from the nodes the edit named (never a pass over every row). It
//! names each node's net by the net's key in the list — the one stable
//! identity a net has, which the list alone maps to ids
//! ([`Netlist::net_of_key`]) — so a splice rewrites the entries of the
//! nodes it re-derived and no other; the interaction search reads nets
//! off the graph by key ([`GraphNets`], which reads a batch check's
//! node → net table the same way). The
//! from-scratch assembly is the splice's reference (asserted equal in
//! debug builds, and by this module's tests in release builds).

use crate::binding::{ChipView, DeviceInstance, Istr, Name};
use crate::connect::is_joining_class;
use crate::library::BoundTechnology;
use crate::parallel::{run_chunked, run_ordered};
use crate::scope::{ScopeStats, ScopeTable};
use diic_cif::NetLabel;
use diic_geom::{Coord, FlatGrid, Point};
use diic_netlist::{assemble_netlist, canonical_nets, AssembleDevice, NetId, Netlist};
use diic_tech::{DeviceClass, LayerId};
use std::borrow::Borrow;

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
/// and label point binding: a [`FlatGrid`] over their boxes, cells sized
/// from the technology's rule reach rather than a magic constant, and
/// the element id at each of its positions.
#[derive(Debug)]
pub struct BindIndex {
    grid: FlatGrid,
    ids: Vec<usize>,
}

impl BindIndex {
    /// Indexes the given elements (ascending ids — callers must pass
    /// netted elements; only they can bind): an edit session's halo, or
    /// one definition's elements for the table-driven binder — in cells
    /// `cell` wide, the technology's [`BoundTechnology::cell_size`].
    pub fn build_among(view: &ChipView, cell: Coord, ids: &[usize]) -> BindIndex {
        let bboxes = view.elements.bboxes();
        let rects = ids.iter().map(|&id| bboxes[id]).collect();
        BindIndex {
            grid: FlatGrid::new(rects, cell),
            ids: ids.to_vec(),
        }
    }

    /// The ids (ascending) of the indexed elements whose box holds `p`:
    /// a single-cell lookup ([`FlatGrid::at`]), nothing allocated.
    fn holding(&self, p: Point) -> impl Iterator<Item = usize> + '_ {
        self.grid.at(p).map(|k| self.ids[k as usize])
    }

    /// Appends to `out` the ids (ascending) of the indexed elements
    /// covering point `p` on `layer`, into the caller's buffer; nothing
    /// is allocated per point.
    pub fn elements_at(&self, view: &ChipView, layer: LayerId, p: Point, out: &mut Vec<usize>) {
        out.extend(self.holding(p).filter(|&id| covers(view, id, layer, p)));
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
        cell: Coord,
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
                .then(|| (netted.len(), BindIndex::build_among(view, cell, &netted)))
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
            let candidates = self.indexes[k as usize].holding(q);
            out.extend(
                candidates
                    .map(|id| id + shift)
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
            for &(_, layer, pos, _) in &dev.terminals {
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
/// edit session's re-rows: consumes a [`Bound`] point by point and
/// allocates each row's vectors once, at their final size. A row's
/// nodes are its keys' ([`ChipView::node`]) — an instance's base plus a
/// local node — so nothing is formatted or hashed per row.
struct RowBuilder<'a> {
    element_node: &'a [Option<u32>],
    bound: &'a Bound,
    /// The next point of `bound` to consume.
    next: usize,
}

impl<'a> RowBuilder<'a> {
    fn new(element_node: &'a [Option<u32>], bound: &'a Bound) -> Self {
        RowBuilder {
            element_node,
            bound,
            next: 0,
        }
    }

    /// The node of an element a row joins or binds to.
    fn element(&self, eid: usize) -> u32 {
        // invariant: joining-class geometry is netted, and only netted
        // elements are indexed for binding.
        self.element_node[eid].expect("joined and bound elements are netted")
    }

    /// One device's row; a terminal-separated device consumes one bound
    /// point per terminal. `lone` names the one terminal of a joining
    /// device that declares none.
    fn device(&mut self, view: &ChipView, dev: &DeviceInstance, lone: Istr) -> DeviceParts {
        if let Some(net) = dev.net {
            // A joining device: one net for the whole device.
            let node = view.node(net);
            let terms = match dev.terminals.is_empty() {
                // Still a device on its single net.
                true => vec![(lone, node)],
                false => dev.terminals.iter().map(|t| (t.0, node)).collect(),
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
        for (&(tname, _, _, key), k) in dev.terminals.iter().zip(points) {
            let node = view.node(key);
            row.terms.push((tname, node));
            let bound = self.bound.span(k..k + 1).iter();
            row.edges
                .extend(bound.map(|&eid| (node, self.element(eid))));
        }
        row
    }

    /// One label's row, its net's key settled beforehand (`None` if the
    /// label's layer is unknown); a label whose layer is known consumes
    /// one bound point.
    fn label(&mut self, view: &ChipView, key: Option<Name>) -> LabelParts {
        let Some(key) = key else {
            return LabelParts::default();
        };
        let node = view.node(key);
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
/// position-independent (they reference nodes, not element ids),
/// which is what lets an edit session splice cached rows of
/// untouched devices into a patched graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceParts {
    /// `(terminal-name, node)` pairs, in terminal order. The name is a
    /// handle in the owning view's string table — a row owns no
    /// string.
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
/// Nodes are **the view's node space** ([`ChipView::node`]) — there is
/// no key table of the graph's own, and the space's append-only,
/// never-renumbered contract makes nodes **stable across edits** (stale
/// keys simply stop being referenced). The element/device/label rows
/// record which nodes are live and how they connect.
/// [`NetParts::assemble`] folds the graph through [`assemble_netlist`] —
/// the same canonicalisation the [`diic_netlist::NetlistBuilder`] uses,
/// keyed purely on the nodes' *texts* — so a graph patched
/// incrementally by a [`crate::incremental::CheckSession`] produces a
/// net list byte-identical to a from-scratch build even where the two
/// numbered the nodes in different orders.
///
/// The graph also remembers the **node → net table of its last
/// assembly**: a batch check's interaction search reads it
/// ([`NetParts::nets`]), and an edit session's [`NetIndex`] starts from
/// it (and takes it), and from then on splices the cached net list —
/// rebuilds only the nets a changed row can reach, moves every other
/// net and device across — instead of re-assembling the whole chip's
/// strings; [`NetParts::assemble`] stays the from-scratch reference the
/// splice is asserted against in debug builds.
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
    /// Net of each node as of the last [`NetParts::assemble`], indexed
    /// by node id: a net id exactly for the nodes that were live then,
    /// `NIL` otherwise. The ids of a written list are its keys, so a
    /// [`NetIndex`] takes this table as its node → key table at open;
    /// empty once one has.
    node_net: Vec<u32>,
}

impl NetParts {
    /// Heap bytes of the graph — rows, edges and the cached node → net
    /// table — as payload bytes: what a session pool budgets.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let edge = size_of::<(u32, u32)>();
        let devices = self.devices.iter().map(|d| {
            size_of_val(d) + d.terms.len() * size_of::<(Istr, u32)>() + d.edges.len() * edge
        });
        let labels = (self.labels.iter()).map(|l| size_of_val(l) + l.edges.len() * edge);
        self.element_node.len() * size_of::<Option<u32>>()
            + self.node_net.len() * size_of::<u32>()
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
    /// every row in device-then-label order — a label's net takes its
    /// node in the **view's** node space here, hence the mutable view —
    /// so node numbering, rows, and the assembled net list are
    /// **byte-identical for any worker count**.
    /// `labels` pairs each label — owned or borrowed — with its bound
    /// layer.
    pub fn build<L: Borrow<NetLabel> + Sync>(
        view: &mut ChipView,
        bound: &BoundTechnology,
        merges: &[(usize, usize)],
        labels: &[(L, Option<LayerId>)],
        scopes: &ScopeTable,
        workers: usize,
    ) -> (NetParts, ScopeStats) {
        let mut parts = NetParts::of_elements(view, merges, workers);
        let cell = bound.cell_size();
        let binder = ScopeBinder::build(view, cell, scopes, &parts.element_node, workers);
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
        bound: &BoundTechnology,
        merges: &[(usize, usize)],
        labels: &[(L, Option<LayerId>)],
        workers: usize,
    ) -> NetParts {
        let mut parts = NetParts::of_elements(view, merges, workers);
        let netted: Vec<usize> = (0..view.elements.len())
            .filter(|&id| parts.element_node[id].is_some())
            .collect();
        let binder = BindIndex::build_among(view, bound.cell_size(), &netted);
        parts.bind_and_fold(view, labels, &binder, workers);
        parts
    }

    /// The graph's element half: the element-node map — a parallel
    /// read-only sweep of the net-key and device columns; a node is
    /// arithmetic on its key ([`ChipView::node`]), so no string is
    /// touched at all — and the connection-merge edges over it.
    fn of_elements(view: &ChipView, merges: &[(usize, usize)], workers: usize) -> NetParts {
        let mut parts = NetParts {
            element_node: run_chunked(view.elements.len(), workers, |id| {
                element_is_netted(view, id).then(|| view.node(view.elements.net_keys()[id]))
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

        // The devices' keys are the walk's and the stamps'; only a
        // label's net is a name the fold looks up.
        let keys: Vec<Option<Name>> = (labels.iter())
            .map(|(label, layer)| layer.map(|_| view.key_of_text(&label.borrow().net)))
            .collect();
        let lone = view.strings.intern("A");
        let view: &ChipView = view;
        let mut rows = RowBuilder::new(&self.element_node, &bound);
        self.devices = (view.devices.iter())
            .map(|dev| rows.device(view, dev, lone))
            .collect();
        self.labels = keys.into_iter().map(|key| rows.label(view, key)).collect();
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
    /// rebuild produce equal rows.
    pub fn device_parts(&self, view: &mut ChipView, di: usize, bind: &BindIndex) -> DeviceParts {
        let mut bound = Bound::default();
        bound.bind_device(bind, view, &view.devices[di], &mut Vec::new());
        let lone = view.strings.intern("A");
        RowBuilder::new(&self.element_node, &bound).device(view, &view.devices[di], lone)
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
        let key = layer.map(|_| view.key_of_text(&label.net));
        RowBuilder::new(&self.element_node, &bound).label(view, key)
    }

    /// Every node the element, device and label rows reference, one
    /// entry per reference: element nodes, then terminal nodes, then
    /// label nets.
    fn live_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        let elements = self.element_node.iter().flatten().copied();
        let terminals = (self.devices.iter()).flat_map(|d| d.terms.iter().map(|&(_, n)| n));
        let labels = self.labels.iter().filter_map(|l| l.node);
        elements.chain(terminals).chain(labels)
    }

    /// Every edge of the graph: connection merges, then device rows,
    /// then label rows.
    fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let devices = self.devices.iter().flat_map(|d| d.edges.iter().copied());
        let labels = self.labels.iter().flat_map(|l| l.edges.iter().copied());
        self.conn_edges.iter().copied().chain(devices).chain(labels)
    }

    /// Assembles the canonical net list from the current graph, **from
    /// scratch** ([`assemble_netlist`] over every live node), and
    /// remembers the node → net table, which [`NetParts::nets`] reads and
    /// an edit session's [`NetIndex`] starts from. The live nodes' keys
    /// are rendered from their names here, where their text leaves the
    /// process.
    ///
    /// This is what a batch check, a session's open and its
    /// full-rebuild fallback run, and the reference
    /// [`NetIndex::splice`] must equal.
    pub fn assemble(&mut self, view: &ChipView) -> Netlist {
        let (netlist, node_net) = self.assemble_from_scratch(view);
        self.node_net = node_net;
        netlist
    }

    /// [`NetParts::assemble`] without touching the remembered table: the
    /// net list and its node → net table (`NIL` for a node not live).
    pub(crate) fn assemble_from_scratch(&self, view: &ChipView) -> (Netlist, Vec<u32>) {
        // The live nodes, ascending and once each: a bitmap over the
        // node space.
        let mut live = vec![0u64; view.node_count().div_ceil(64)];
        let mut count = 0;
        for n in self.live_nodes() {
            let (word, bit) = (&mut live[n as usize / 64], 1u64 << (n % 64));
            count += (*word & bit == 0) as usize;
            *word |= bit;
        }
        let mut ids: Vec<u32> = Vec::with_capacity(count);
        for (w, mut word) in live.into_iter().enumerate() {
            while word != 0 {
                ids.push(w as u32 * 64 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        // The text leaves the process here: every live key and device
        // path, rendered end to end into one buffer.
        let names = view.names.names_of(ids.iter().copied());
        let paths = view.devices.iter().map(|d| d.path);
        let text = Rendered::of(view, names.chain(paths));
        let nodes: Vec<(u32, &str)> = ids
            .iter()
            .enumerate()
            .map(|(k, &n)| (n, text.get(k)))
            .collect();
        let edges: Vec<(u32, u32)> = self.edges().collect();

        let devices =
            (view.devices.iter().zip(&self.devices).enumerate()).map(|(d, (dev, row))| {
                AssembleDevice {
                    name: text.get(ids.len() + d),
                    device_type: view.str(dev.device_type),
                    class: dev.class.unwrap_or(DeviceClass::Capacitor),
                    terminals: row.terms.iter().map(|&(t, n)| (view.str(t), n)),
                }
            });

        let (netlist, node_nets) = assemble_netlist(&nodes, &edges, devices);
        let mut node_net = vec![NIL; view.node_count()];
        for (&(node, _), &net) in nodes.iter().zip(&node_nets) {
            node_net[node as usize] = net.0;
        }
        (netlist, node_net)
    }

    /// The nets of the last [`NetParts::assemble`] as the interaction
    /// search reads them (a batch check's; a session reads its
    /// [`NetIndex::nets`], which has taken the table).
    pub fn nets(&self) -> GraphNets<'_> {
        GraphNets {
            element_node: &self.element_node,
            devices: &self.devices,
            net: &self.node_net,
        }
    }
}

/// Names rendered end to end into one buffer, read back by position.
#[derive(Debug, Clone, Default)]
struct Rendered {
    text: String,
    /// `ends[k]` is where name `k` ends.
    ends: Vec<usize>,
}

impl Rendered {
    /// The texts of `names`, in a buffer sized for them.
    fn of(view: &ChipView, names: impl Iterator<Item = Name> + Clone) -> Rendered {
        let mut rendered = Rendered {
            text: String::with_capacity(names.clone().map(|n| view.name_len(n)).sum()),
            ends: Vec::with_capacity(names.size_hint().0),
        };
        rendered.fill(view, names);
        rendered
    }

    /// Replaces the texts held with those of `names`, in the room the
    /// buffer has.
    fn fill(&mut self, view: &ChipView, names: impl Iterator<Item = Name>) {
        self.text.clear();
        self.ends.clear();
        for name in names {
            view.write_name(name, &mut self.text);
            self.ends.push(self.text.len());
        }
    }

    fn get(&self, k: usize) -> &str {
        let start = k.checked_sub(1).map_or(0, |k| self.ends[k]);
        &self.text[start..self.ends[k]]
    }
}

/// How the interaction search tells nets apart, read straight off the
/// net graph: element → node → the node's net identity — a net id of the
/// assembled list ([`NetParts::nets`]) or a net's key in the session's
/// list ([`NetIndex::nets`]). Either is equal exactly when the nets are, and
/// is compared for equality only, so nothing is resolved per element
/// when the list is assembled or renumbered.
#[derive(Debug, Clone, Copy)]
pub struct GraphNets<'a> {
    element_node: &'a [Option<u32>],
    devices: &'a [DeviceParts],
    /// Per node: its net identity (`NIL`: none).
    net: &'a [u32],
}

impl GraphNets<'_> {
    /// The net of element `id`; `None` for un-netted device internals.
    #[inline]
    pub fn element_net(&self, id: usize) -> Option<u32> {
        self.element_node[id].map(|node| self.net[node as usize])
    }

    /// True if device `device` has a terminal on `net` (an identity
    /// [`GraphNets::element_net`] gave).
    #[inline]
    pub(crate) fn device_on(&self, device: usize, net: u32) -> bool {
        let terms = self.devices[device].terms.iter();
        terms
            .map(|&(_, node)| self.net[node as usize])
            .any(|n| n == net)
    }
}

/// No entry / no net.
pub(crate) const NIL: u32 = u32::MAX;

/// A multimap from `u32` keys to `u32` values, its entries linked lists
/// in one arena: inserting is O(1), removing one value walks its key's
/// entries, and building it allocates nothing per key.
#[derive(Debug, Clone)]
struct Multimap {
    /// Per key: its first entry (`NIL`: none).
    head: Vec<u32>,
    /// `(value, next entry)`; a free entry holds `NIL` and the next free.
    entries: Vec<(u32, u32)>,
    /// The first free entry (`NIL`: none).
    free: u32,
}

impl Default for Multimap {
    fn default() -> Multimap {
        Multimap {
            head: Vec::new(),
            entries: Vec::new(),
            free: NIL,
        }
    }
}

impl Multimap {
    fn insert(&mut self, key: u32, value: u32) {
        let key = key as usize;
        if key >= self.head.len() {
            self.head.resize(key + 1, NIL);
        }
        let entry = (value, self.head[key]);
        let at = match self.free {
            NIL => {
                self.entries.push(entry);
                self.entries.len() as u32 - 1
            }
            at => {
                self.free = self.entries[at as usize].1;
                self.entries[at as usize] = entry;
                at
            }
        };
        self.head[key] = at;
    }

    /// Removes one `value` under `key`; false if there was none.
    fn remove(&mut self, key: u32, value: u32) -> bool {
        let (mut prev, mut at) = (NIL, self.head.get(key as usize).copied().unwrap_or(NIL));
        while at != NIL {
            let (v, next) = self.entries[at as usize];
            if v == value {
                match prev {
                    NIL => self.head[key as usize] = next,
                    prev => self.entries[prev as usize].1 = next,
                }
                self.entries[at as usize] = (NIL, self.free);
                self.free = at;
                return true;
            }
            (prev, at) = (at, next);
        }
        false
    }

    fn get(&self, key: u32) -> impl Iterator<Item = u32> + '_ {
        let mut at = self.head.get(key as usize).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            let (value, next) = *self.entries.get(at as usize)?;
            at = next;
            Some(value)
        })
    }

    fn heap_bytes(&self) -> usize {
        self.head.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The net graph's rows as they changed: the row references (an element
/// row's node with the element's key, a terminal's or a label's node)
/// and the edges that left the graph and that entered it — what a
/// [`NetIndex`] patches itself by, and whose nodes a
/// [`NetIndex::splice`] re-derives the nets of. A row that leaves and
/// comes back unchanged may appear on both sides.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    /// `(node, element key)` of every element row that left.
    pub gone_elements: Vec<(u32, u32)>,
    /// `(node, element key)` of every element row that entered.
    pub new_elements: Vec<(u32, u32)>,
    /// Terminal and label nodes whose rows left, one per reference.
    pub gone_refs: Vec<u32>,
    /// Terminal and label nodes whose rows entered, one per reference.
    pub new_refs: Vec<u32>,
    /// Edges that left.
    pub gone_edges: Vec<(u32, u32)>,
    /// Edges that entered.
    pub new_edges: Vec<(u32, u32)>,
}

impl GraphDelta {
    /// A device row left the graph.
    pub fn device_left(&mut self, row: &DeviceParts) {
        self.gone_refs.extend(row.terms.iter().map(|&(_, n)| n));
        self.gone_edges.extend_from_slice(&row.edges);
    }

    /// A device row entered the graph.
    pub fn device_entered(&mut self, row: &DeviceParts) {
        self.new_refs.extend(row.terms.iter().map(|&(_, n)| n));
        self.new_edges.extend_from_slice(&row.edges);
    }

    /// A label row left the graph.
    pub fn label_left(&mut self, row: &LabelParts) {
        self.gone_refs.extend(row.node);
        self.gone_edges.extend_from_slice(&row.edges);
    }

    /// A label row entered the graph.
    pub fn label_entered(&mut self, row: &LabelParts) {
        self.new_refs.extend(row.node);
        self.new_edges.extend_from_slice(&row.edges);
    }

    /// Every node the delta names (with repeats): the nodes at which the
    /// graph changed.
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        let elements = (self.gone_elements.iter()).chain(&self.new_elements);
        let refs = self.gone_refs.iter().chain(&self.new_refs).copied();
        let edges = self.gone_edges.iter().chain(&self.new_edges);
        (elements.map(|&(node, _)| node))
            .chain(refs)
            .chain(edges.flat_map(|&(a, b)| [a, b]))
    }
}

/// What an edit session keeps beside its [`NetParts`] so that a net-list
/// splice costs the nets it rebuilds, not the chip: per node, how many
/// rows name it (zero: dead), the other ends of its edges, the elements
/// on it (by a key the session chooses — its element index handles) and
/// its net's **key** in the session's net list
/// ([`Netlist::key_of`]), which a net keeps for as long as it lives
/// while the list renumbers around it — the list is the one place that
/// maps keys to ids ([`Netlist::net_of_key`]). Built once when a session
/// opens ([`NetIndex::new`], never by a batch check) and patched by every
/// edit's [`GraphDelta`].
#[derive(Debug, Clone, Default)]
pub struct NetIndex {
    /// Per node: the element, terminal and label rows that name it.
    refs: Vec<u32>,
    /// Per node: the other end of each edge at it (self-loops left out).
    edges: Multimap,
    /// Per node: the key of each element on it.
    elements: Multimap,
    /// Per node: its net's key (`NIL`: dead or never live).
    key: Vec<u32>,
    /// The texts a splice renders, kept from one splice to the next.
    text: Rendered,
}

/// What [`NetIndex::splice`] did to the list, beyond patching it: what
/// the caller needs to tell which net relations it can have changed.
#[derive(Debug)]
pub struct NetSplice {
    /// The nets built fresh from the affected components, by new id,
    /// ascending. Every other net was kept in place unchanged (same
    /// name, aliases and terminals, up to id renumbering).
    pub fresh: Vec<NetId>,
    /// The canonical names of the old nets the splice dissolved,
    /// ascending — read out of the list before it was patched. An
    /// element or terminal whose new net is fresh had its old net among
    /// these.
    pub retired_names: Vec<String>,
    /// Live nodes in the affected components (the splice's work).
    pub nodes: usize,
    /// Every node whose net the splice re-derived — the affected
    /// components' live nodes, and the dead nodes the delta named — with
    /// its net in the old list, ascending by node. Every other node kept
    /// its net, and that net is none of the fresh ones.
    pub moved: Vec<(u32, Option<NetId>)>,
    /// List rows the patch wrote ([`diic_netlist::Patched::rows_written`]):
    /// what the splice cost beyond the nets' own canonicalisation.
    pub(crate) rows_written: usize,
}

impl NetSplice {
    /// The net a re-derived node was on in the old list; `None` for a
    /// node that had none, or that the splice did not re-derive.
    pub fn old_net(&self, node: u32) -> Option<NetId> {
        let at = self.moved.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        self.moved[at].1
    }
}

impl NetIndex {
    /// The index of a freshly assembled graph, taking the node → net
    /// table [`NetParts::assemble`] left in `parts` as its keys (a
    /// written list's keys are its ids). `element_key` names each
    /// element id's key.
    ///
    /// Its per-node tables are as long as the node space was at that
    /// assembly ([`ChipView::node_count`]), and [`NetIndex::patch`]
    /// keeps them as long as the space it is given.
    pub fn new(parts: &mut NetParts, element_key: impl Fn(usize) -> u32) -> NetIndex {
        let key = std::mem::take(&mut parts.node_net);
        let mut index = NetIndex {
            refs: vec![0; key.len()],
            key,
            ..NetIndex::default()
        };
        index.edges.head = vec![NIL; index.refs.len()];
        index.elements.head = vec![NIL; index.refs.len()];
        index.edges.entries.reserve(2 * parts.conn_edges.len());
        index.elements.entries.reserve(parts.element_node.len());
        for (id, node) in parts.element_node.iter().enumerate() {
            if let Some(node) = *node {
                index.elements.insert(node, element_key(id));
            }
        }
        for node in parts.live_nodes() {
            index.refs[node as usize] += 1;
        }
        for (a, b) in parts.edges() {
            index.enter_edge(a, b);
        }
        index
    }

    fn enter_edge(&mut self, a: u32, b: u32) {
        if a != b {
            self.edges.insert(a, b);
            self.edges.insert(b, a);
        }
    }

    /// Brings the rows, edges and element keys up to date with `delta`,
    /// over a node space of `nodes` nodes now ([`ChipView::node_count`];
    /// the nets' keys wait for [`NetIndex::splice`]).
    pub fn patch(&mut self, delta: &GraphDelta, nodes: usize) {
        debug_assert!(nodes >= self.refs.len(), "nodes are only ever appended");
        self.refs.resize(nodes, 0);
        self.key.resize(nodes, NIL);
        self.edges.head.resize(nodes, NIL);
        self.elements.head.resize(nodes, NIL);
        for &(node, key) in &delta.gone_elements {
            let found = self.elements.remove(node, key);
            debug_assert!(found, "a leaving element row was indexed");
            self.refs[node as usize] -= 1;
        }
        for &node in &delta.gone_refs {
            self.refs[node as usize] -= 1;
        }
        for &(a, b) in delta.gone_edges.iter().filter(|(a, b)| a != b) {
            let found = self.edges.remove(a, b) && self.edges.remove(b, a);
            debug_assert!(found, "a leaving edge was indexed");
        }
        for &(node, key) in &delta.new_elements {
            self.elements.insert(node, key);
            self.refs[node as usize] += 1;
        }
        for &node in &delta.new_refs {
            self.refs[node as usize] += 1;
        }
        for &(a, b) in &delta.new_edges {
            self.enter_edge(a, b);
        }
    }

    /// The net a node is on in `list`, the list of the last splice (or
    /// of the open); `None` for a dead node.
    pub fn net_of(&self, node: u32, list: &Netlist) -> Option<NetId> {
        list.net_of_key(*self.key.get(node as usize)?)
    }

    /// The length of every per-node table: the node space the index
    /// was last opened or patched over.
    pub fn nodes(&self) -> usize {
        debug_assert!(
            [
                self.key.len(),
                self.edges.head.len(),
                self.elements.head.len()
            ]
            .iter()
            .all(|&n| n == self.refs.len()),
            "the per-node tables agree"
        );
        self.refs.len()
    }

    /// How many element, terminal and label rows name `node`.
    pub fn rows_naming(&self, node: u32) -> u32 {
        self.refs.get(node as usize).copied().unwrap_or(0)
    }

    /// The keys of the elements on `node`.
    pub fn elements_on(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        self.elements.get(node)
    }

    /// The graph's nets as the interaction search reads them, by key.
    pub fn nets<'a>(&'a self, parts: &'a NetParts) -> GraphNets<'a> {
        GraphNets {
            element_node: &parts.element_node,
            devices: &parts.devices,
            net: &self.key,
        }
    }

    /// Brings `list`, the net list of the last splice or of the open, up
    /// to date with the graph `parts` holds now, which `delta` (already
    /// [`NetIndex::patch`]ed in) took it to: only the nets a changed row
    /// can reach are canonicalised anew and patched into `list` in place
    /// ([`Netlist::patch`]); every other net's rows, and every surviving
    /// device's, stay as they are — no name compared, sorted, resolved or
    /// copied for them, only their ids renumbered. The retired nets'
    /// names are read out before the patch
    /// ([`NetSplice::retired_names`]).
    ///
    /// `dev_old_of_new[d]` is the old id of new device `d`, `None` for a
    /// device instantiated since; surviving devices keep their relative
    /// order.
    ///
    /// # Why the splice is exact
    ///
    /// Let `D_old` be the old nets holding a node the delta names, and
    /// `D` the live nodes that either had no net (new nodes — all named)
    /// or had one in `D_old`. No edge of the patched graph leaves `D`: an
    /// edge `(a, b)` with `a ∈ D`, `b ∉ D` is either new — then `b` is
    /// named, so its old net is in `D_old` — or old, and then `a` and
    /// `b` shared an old net, which `a ∈ D` puts in `D_old`. Either
    /// way `b ∈ D`. So the components of `D` are whole nets of the
    /// patched graph, and a net outside `D_old` lost no node (a dead
    /// node is named), gained none (that takes a crossing edge), lost no
    /// edge and kept its terminal rows: it is the same net, up to the
    /// renumbering of net and device ids. Nor does the splice look for
    /// `D` in the chip: every node of `D` is joined in the patched graph
    /// to a live node the delta names — follow its old net's path
    /// towards a named node, and the first edge on it that left has
    /// named ends — so `D` is what a search from those nodes reaches.
    /// Kept nets keep their keys in the list, so renumbering them
    /// touches no node's entry here. By the same token a
    /// surviving device's terminal on a kept net is on the same node as
    /// before (a row that changed names all its old nodes, retiring
    /// their nets), and one on a retired net has its node in `D`, where
    /// the fresh nets are read off.
    ///
    /// In debug builds the result, and the index, are asserted equal to
    /// a from-scratch [`NetParts::assemble`] and [`NetIndex::new`].
    pub fn splice(
        &mut self,
        parts: &NetParts,
        view: &ChipView,
        list: &mut Netlist,
        delta: &GraphDelta,
        dev_old_of_new: &[Option<usize>],
    ) -> NetSplice {
        // Affected old nets, and the live nodes the search from the
        // named ones reaches.
        let mut retired: Vec<NetId> = (delta.nodes())
            .filter_map(|node| self.net_of(node, list))
            .collect();
        retired.sort_unstable();
        retired.dedup();
        let mut retired_names: Vec<String> = (retired.iter())
            .map(|&net| list.net(net).name().to_string())
            .collect();
        retired_names.sort_unstable();
        let (d_nodes, d_edges) = self.reach(delta);
        let mut moved: Vec<(u32, Option<NetId>)> = (d_nodes.iter().copied())
            .chain(delta.nodes().filter(|&n| self.refs[n as usize] == 0))
            .map(|node| (node, self.net_of(node, list)))
            .collect();
        moved.sort_unstable();
        moved.dedup();
        // The re-derived nodes' keys are rewritten below; until then
        // each holds the node's place in `d_nodes`, which numbers the
        // components densely. Their keys' text, and the new devices'
        // paths, leave the process here.
        let new_devices: Vec<usize> = (dev_old_of_new.iter().enumerate())
            .filter_map(|(d, old)| old.is_none().then_some(d))
            .collect();
        let names = view.names.names_of(d_nodes.iter().copied());
        let paths = new_devices.iter().map(|&d| view.devices[d].path);
        let mut text = std::mem::take(&mut self.text);
        text.fill(view, names.chain(paths));
        let nodes: Vec<(u32, &str)> = (d_nodes.iter().enumerate())
            .map(|(at, &n)| {
                self.key[n as usize] = at as u32;
                (at as u32, text.get(at))
            })
            .collect();
        let path_of = |d: usize| {
            // invariant: the patch describes only the devices it has no
            // row for.
            let k = new_devices.binary_search(&d).expect("a new device");
            text.get(d_nodes.len() + k)
        };
        let local = |node: u32| self.key[node as usize];
        let edges: Vec<(u32, u32)> = (d_edges.iter())
            .map(|&(a, b)| (local(a), local(b)))
            .collect();
        let (fresh_nets, d_node_nets) = canonical_nets(&nodes, &edges);

        // Every terminal the patch writes is on a node of `D`, whose
        // fresh net its place in `d_nodes` names.
        let fresh_net = |node: u32| {
            debug_assert!(
                d_nodes.binary_search(&node).is_ok(),
                "node {node} is re-derived"
            );
            d_node_nets[local(node) as usize]
        };
        let patched = list.patch(
            &retired,
            &fresh_nets,
            dev_old_of_new,
            |d| {
                let (dev, row) = (&view.devices[d.0 as usize], &parts.devices[d.0 as usize]);
                AssembleDevice {
                    name: path_of(d.0 as usize),
                    device_type: view.str(dev.device_type),
                    class: dev.class.unwrap_or(DeviceClass::Capacitor),
                    terminals: (row.terms.iter())
                        .map(move |&(name, node)| (view.str(name), fresh_net(node))),
                }
            },
            |d, k| fresh_net(parts.devices[d.0 as usize].terms[k].1),
        );
        self.text = text;
        // Dead nodes lose their nets; re-derived ones take their fresh
        // nets' keys. Every other node's key is a kept net's still.
        for &(node, _) in &moved {
            self.key[node as usize] = NIL;
        }
        for (&node, &net) in d_nodes.iter().zip(&d_node_nets) {
            self.key[node as usize] = list.key_of(patched.fresh[net.0 as usize]);
        }

        let spliced = NetSplice {
            fresh: patched.fresh,
            retired_names,
            nodes: d_nodes.len(),
            moved,
            rows_written: patched.rows_written,
        };
        #[cfg(debug_assertions)]
        self.assert_matches_a_rebuild(parts, view, list);
        spliced
    }

    /// The live nodes a search from the live nodes `delta` names
    /// reaches, ascending, and the edges among them, each once. A node
    /// is marked visited by the top bit of its row count, cleared again
    /// before this returns.
    fn reach(&mut self, delta: &GraphDelta) -> (Vec<u32>, Vec<(u32, u32)>) {
        const VISITED: u32 = 1 << 31;
        let mut found: Vec<u32> = Vec::new();
        for node in delta.nodes() {
            let refs = &mut self.refs[node as usize];
            if *refs != 0 && *refs & VISITED == 0 {
                *refs |= VISITED;
                found.push(node);
            }
        }
        let (mut next, mut edges) = (0, Vec::new());
        while let Some(&a) = found.get(next) {
            next += 1;
            for b in self.edges.get(a) {
                let refs = &mut self.refs[b as usize];
                if *refs & VISITED == 0 {
                    *refs |= VISITED;
                    found.push(b);
                }
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        for &node in &found {
            self.refs[node as usize] &= !VISITED;
        }
        found.sort_unstable();
        (found, edges)
    }

    /// Heap bytes of the index, as payload bytes.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.refs.len() + self.key.len()) * size_of::<u32>()
            + self.edges.heap_bytes()
            + self.elements.heap_bytes()
            + self.text.text.len()
            + self.text.ends.len() * size_of::<usize>()
    }

    /// The debug oracle of a splice: the list and every node's net equal
    /// a from-scratch assembly (an element's and a terminal's net are its
    /// node's), and the rows and edges equal an index built from nothing.
    #[cfg(debug_assertions)]
    fn assert_matches_a_rebuild(&self, parts: &NetParts, view: &ChipView, netlist: &Netlist) {
        let (scratch, node_net) = parts.assemble_from_scratch(view);
        debug_assert_eq!(*netlist, scratch, "splice diverged from assembly");
        for (node, &want) in node_net.iter().enumerate() {
            let got = self.net_of(node as u32, netlist).map_or(NIL, |n| n.0);
            debug_assert_eq!(got, want, "node {node}'s net diverged");
            let key = self.key.get(node).copied().unwrap_or(NIL);
            debug_assert_eq!(key == NIL, want == NIL, "node {node} holds a dead key");
        }
        let mut fresh = parts.clone();
        fresh.node_net = node_net;
        let built = NetIndex::new(&mut fresh, |id| id as u32);
        for node in 0..self.refs.len().max(built.refs.len()) as u32 {
            let refs = |index: &NetIndex| index.refs.get(node as usize).copied().unwrap_or(0);
            debug_assert_eq!(refs(self), refs(&built), "node {node}'s row count diverged");
            let sorted = |index: &NetIndex| {
                let mut ends: Vec<u32> = index.edges.get(node).collect();
                ends.sort_unstable();
                ends
            };
            debug_assert_eq!(sorted(self), sorted(&built), "node {node}'s edges diverged");
            let count = |index: &NetIndex| index.elements_on(node).count();
            debug_assert_eq!(
                count(self),
                count(&built),
                "node {node}'s elements diverged"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use crate::connect::check_connections_among;
    use crate::library::Definitions;
    use diic_cif::{parse, Call, DeviceDecl, Element, Item, Layout, Shape, Symbol, Terminal};
    use diic_geom::{Orientation, Rect, Transform, Vector, Wire};
    use diic_tech::nmos::nmos_technology;
    use diic_tech::Technology;
    use proptest::prelude::*;

    /// What one layout's net-list generation produced, by both binders.
    struct Extracted {
        netlist: Netlist,
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
        let defs = Definitions::new(layout, &binding, None);
        let (pristine, runs) = instantiate(layout, tech, &binding, &defs, Default::default());
        let scopes = ScopeTable::build(
            &defs,
            layout.top_items(),
            runs.iter().map(|run| run.0),
            pristine.elements.bboxes(),
            crate::interact::max_rule_range(tech),
        );
        let all: Vec<usize> = (0..pristine.elements.len()).collect();
        let bound = BoundTechnology::new(tech);
        let conn = check_connections_among(&pristine, tech, &bound, &all);
        let labels: Vec<(&NetLabel, Option<LayerId>)> = (layout.labels().iter())
            .map(|l| (l, binding.layer(l.layer)))
            .collect();

        let mut direct_view = pristine.clone();
        let mut direct = NetParts::build_direct(&mut direct_view, &bound, &conn.merges, &labels, 1);
        let direct_netlist = direct.assemble(&direct_view);
        let mut last = None;
        for &w in workers {
            let mut view = pristine.clone();
            let (mut parts, stats) =
                NetParts::build(&mut view, &bound, &conn.merges, &labels, &scopes, w);
            assert_eq!(parts.devices, direct.devices, "workers={w}");
            assert_eq!(parts.labels, direct.labels, "workers={w}");
            assert_eq!(parts.element_node, direct.element_node, "workers={w}");
            assert_eq!(parts.conn_edges, direct.conn_edges, "workers={w}");
            assert_eq!(view.strings.len(), direct_view.strings.len(), "workers={w}");
            assert_eq!(parts.assemble(&view), direct_netlist, "workers={w}");
            assert_eq!(parts.node_net, direct.node_net, "workers={w}");
            last = Some((parts, view, stats));
        }
        let (parts, view, stats) = last.expect("at least one worker count");
        Extracted {
            netlist: direct_netlist,
            parts,
            view,
            scopes,
            stats,
        }
    }

    fn extract(cif: &str) -> Extracted {
        extract_layout(&parse(cif).unwrap(), &nmos_technology(), &[1, 2])
    }

    #[test]
    fn connected_wires_share_a_net() {
        let r = extract("L NM; 9N A; B 2000 750 1000 375; 9N B; B 2000 750 2200 375; E");
        let a = r.netlist.net_by_name("A").unwrap();
        let b = r.netlist.net_by_name("B").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn transistor_terminals_bind_to_covering_wires() {
        // Enhancement transistor with poly gate wire and diff S/D wires
        // covering its terminal points.
        let r = extract(
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
        let r = extract(
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
        let r = extract("L NM; B 2000 750 1000 375; 9L VDD NM 1000 375; E");
        assert!(r.netlist.net_by_name("VDD").is_some());
        // The rail element's net carries the VDD alias.
        let vdd = r.netlist.net_by_name("VDD").unwrap();
        assert!(r.netlist.net(vdd).aliases().any(|a| a == "VDD"));
        assert_eq!(r.parts.nets().element_net(0), Some(vdd.0));
    }

    #[test]
    fn hierarchical_dot_notation_nets() {
        let r = extract(
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
        let r = extract(
            "DS 1; 9D NMOS_ENH; L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF; C 1; E",
        );
        for id in 0..r.view.elements.len() {
            assert!(r.parts.nets().element_net(id).is_none());
        }
    }

    #[test]
    fn node_keys_are_the_views_names() {
        // The graph has no key table of its own: a device's key is a name
        // of the view — the walk's string for a contact placed once, its
        // instance's local string for one placed twice — and its node is
        // that name's.
        let r = extract(
            "DS 1; 9D CONTACT_D; 9T A NM 0 0;
             L NC; B 500 500 0 0; L NM; B 1250 1250 0 0; DF;
             DS 2; 9D CONTACT_D; 9T A NM 0 0;
             L NC; B 500 500 0 0; L NM; B 1000 1000 0 0; DF;
             C 1 T 0 0; C 2 T 5000 0; C 2 T 9000 0; E",
        );
        for (d, key) in ["i0.#", "i1.#", "i2.#"].into_iter().enumerate() {
            let name = r.view.lookup_name(key).expect("a name of the view");
            assert_eq!(r.view.devices[d].net, Some(name));
            assert_eq!(r.parts.devices[d].terms[0].1, r.view.node(name));
        }
        assert!(r.view.strings.lookup("i0.#").is_some(), "walked: interned");
        assert!(r.view.strings.lookup("i1.#").is_none(), "stamped: rooted");
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
        /// each patch the spliced list and the index's node → net answers
        /// equal an assembly of the patched graph from nothing; each splice starts from the one before it.
        #[test]
        fn a_spliced_net_list_equals_one_assembled_from_scratch(seed in 0u64..u64::MAX) {
            let layout = bindable_layout(&mut TestRng::for_case(seed, 0));
            let x = extract_layout(&layout, &nmos_technology(), &[1]);
            let (mut parts, mut view, mut netlist) = (x.parts, x.view, x.netlist);
            let mut index = NetIndex::new(&mut parts, |id| id as u32);
            let rng = &mut TestRng::for_case(seed, 1);
            let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
            let netted: Vec<u32> = parts.element_node.iter().flatten().copied().collect();
            let (mut respliced, mut retired) = (0, 0);
            for step in 0..4 {
                let mut delta = GraphDelta::default();
                let mut dev_old_of_new: Vec<Option<usize>> =
                    (0..view.devices.len()).map(Some).collect();
                match pick(rng, 4) {
                    0 if !parts.conn_edges.is_empty() => {
                        let cut = parts.conn_edges.remove(pick(rng, parts.conn_edges.len()));
                        delta.gone_edges.push(cut);
                    }
                    1 if !view.devices.is_empty() => {
                        let di = pick(rng, view.devices.len());
                        view.devices.remove(di);
                        dev_old_of_new.remove(di);
                        delta.device_left(&parts.devices.remove(di));
                    }
                    2 if !view.devices.is_empty() => {
                        let at = pick(rng, view.devices.len() + 1);
                        let mut dev = view.devices[pick(rng, view.devices.len())].clone();
                        dev.path = view.key_of_text(&format!("late{step}"));
                        let name = view.strings.intern("G");
                        let key = view.key_of_text(&format!("late{step}.G"));
                        let key = view.node(key);
                        let row = DeviceParts {
                            terms: vec![(name, key)],
                            edges: vec![(key, netted[pick(rng, netted.len())])],
                        };
                        delta.device_entered(&row);
                        view.devices.insert(at, dev);
                        parts.devices.insert(at, row);
                        dev_old_of_new.insert(at, None);
                    }
                    _ => {
                        let join = (netted[pick(rng, netted.len())], netted[pick(rng, netted.len())]);
                        parts.conn_edges.push(join);
                        delta.new_edges.push(join);
                    }
                }
                index.patch(&delta, view.node_count());
                let splice = index.splice(&parts, &view, &mut netlist, &delta, &dev_old_of_new);
                let (scratch, node_net) = parts.assemble_from_scratch(&view);
                prop_assert_eq!(&netlist, &scratch, "step {}", step);
                // Every node resolves through the list: a live one to its
                // net, by the key the index holds, a dead one to none.
                for (node, &want) in node_net.iter().enumerate() {
                    let got = index.net_of(node as u32, &netlist);
                    prop_assert_eq!(got.map_or(NIL, |n| n.0), want, "node {}", node);
                }
                prop_assert!(splice.fresh.is_sorted());
                prop_assert!(splice.fresh.iter().all(|net| (net.0 as usize) < scratch.net_count()));
                prop_assert!(splice.retired_names.is_sorted());
                respliced += splice.fresh.len();
                retired += splice.retired_names.len();
            }
            // Every patch above touches a live net or makes one.
            prop_assert!(respliced > 0 && retired > 0);
        }
    }

    #[test]
    fn a_sessions_net_index_spans_the_node_space() {
        // Every per-node table of a session's net index is as long as the
        // view's node space: at the open, and after edits that append
        // nodes (a call walked afresh) and leave them dead (a removal).
        use crate::incremental::{CheckSession, EditSet};
        use crate::CheckOptions;
        let layout = parse(
            "DS 1; 9D NMOS_ENH; 9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
             L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF;
             DS 2; C 1 T 0 0; L NM; 9N out; B 2000 750 1000 4000; DF;
             C 2 T 0 0; C 2 T 20000 0; C 2 T 40000 0; C 2 T 60000 0; C 2 T 80000 0;
             C 2 T 100000 0; C 2 T 120000 0; C 2 T 140000 0;
             L NM; B 2000 750 1000 40000; 9L VDD NM 1000 40000; E",
        )
        .unwrap();
        let cell = layout.symbol_by_cif_id(2).unwrap();
        let tech = nmos_technology();
        let mut session = CheckSession::new(layout, &tech, &CheckOptions::default());
        let spans = |s: &CheckSession| {
            assert_eq!(s.nets.nodes(), s.view.node_count());
            s.view.node_count()
        };
        let opened = spans(&session);
        assert!(opened > 0);
        let mut add = EditSet::new();
        add.add_call(cell, Transform::translate(Vector::new(0, 60_000)), "i99");
        session.apply(&add).unwrap();
        let added = spans(&session);
        assert!(added > opened, "a walked call appends its nodes");
        let mut remove = EditSet::new();
        remove.remove(0);
        session.apply(&remove).unwrap();
        assert_eq!(spans(&session), added, "nodes are never renumbered");
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
                for &(_, _, p, _) in &dev.terminals {
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
