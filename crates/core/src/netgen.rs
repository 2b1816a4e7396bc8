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
//! # Parallelism
//!
//! Net-list generation splits into a **per-scope union phase** and a
//! serial canonical assembly. The element-node map is a read-only
//! column sweep (`net_key` handle + device class per element), so it
//! fans out over the worker pool, as does the netted filter behind
//! [`BindIndex::build_parallel`] — the last serial build steps. The
//! terminal/label union phase — binding each device's terminals and
//! each label's point to the elements covering them — is a pure
//! function per device/label of the (read-only) view and the shared
//! [`BindIndex`], so it fans out too
//! ([`crate::parallel::run_chunked`]) as symbolic **draft rows**: the
//! covering element ids plus the fresh key *strings* a serial build
//! would intern, in intern order. The serial fold then interns the
//! drafts in device/label order — exactly the order a serial
//! [`NetParts::build`] interns in — so the int-keyed graph is numbered
//! identically and the assembled net list is **byte-identical for any
//! worker count** ([`NetParts::build_parallel`], driven by
//! [`CheckOptions::parallelism`](crate::CheckOptions::parallelism); the
//! seventh differential-oracle leg in `tests/differential.rs` pins it).
//! The assembly itself ([`NetParts::assemble`] →
//! [`assemble_netlist`]) stays serial: it is a global union-find plus
//! canonical naming.
//!
//! # Splicing
//!
//! An edit session patches the graph's rows and then does **not**
//! re-run that fold: [`NetParts::splice`] re-derives only the connected
//! components a changed row can reach and moves every other net and
//! device out of the previous net list, so an edit's net phase costs
//! the nets it touched rather than the chip's strings. The from-scratch
//! assembly is the splice's reference (asserted equal in debug builds).

use crate::binding::{ChipView, Istr, StringInterner};
use crate::connect::is_joining_class;
use crate::parallel::run_chunked;
use crate::violations::Violation;
use diic_cif::NetLabel;
use diic_geom::{GridIndex, Point};
use diic_netlist::{
    assemble_netlist, canonical_nets, AssembleDevice, Device, DeviceId, Net, NetId, Netlist,
};
use diic_tech::{DeviceClass, LayerId, Technology};

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

/// Spatial index over the bindable (netted) elements, for terminal and
/// label point binding. Cells are sized from the technology's rule reach
/// rather than a magic constant.
#[derive(Debug)]
pub struct BindIndex {
    index: GridIndex<usize>,
}

impl BindIndex {
    /// Indexes every netted element of the view, serially —
    /// [`BindIndex::build_parallel`] with one worker.
    pub fn build(view: &ChipView, tech: &Technology) -> BindIndex {
        BindIndex::build_parallel(view, tech, 1)
    }

    /// [`BindIndex::build`] with the netted filter — a device-column
    /// and class sweep per element — fanned out over `workers` scoped
    /// threads. The chunked results flatten in id order, so the index
    /// insertion order (and every ascending-id query answer) is
    /// byte-identical for any worker count.
    pub fn build_parallel(view: &ChipView, tech: &Technology, workers: usize) -> BindIndex {
        let ids: Vec<usize> = run_chunked(view.elements.len(), workers, |id| {
            element_is_netted(view, id).then_some(id)
        })
        .into_iter()
        .flatten()
        .collect();
        BindIndex::build_among(view, tech, &ids)
    }

    /// Indexes only the given elements (the incremental checker's scoped
    /// variant — callers must pass netted elements; only they can bind).
    pub fn build_among(view: &ChipView, tech: &Technology, ids: &[usize]) -> BindIndex {
        let mut index: GridIndex<usize> =
            GridIndex::new(crate::interact::interaction_cell_size(tech));
        let bboxes = view.elements.bboxes();
        for &id in ids {
            index.insert(bboxes[id], id);
        }
        BindIndex { index }
    }

    /// Ids (ascending) of netted elements covering point `p` on `layer`.
    pub fn elements_at(&self, view: &ChipView, layer: LayerId, p: Point) -> Vec<usize> {
        self.index
            .query(&diic_geom::Rect::new(p.x, p.y, p.x, p.y))
            .into_iter()
            .copied()
            .filter(|&id| {
                let e = view.elements.get(id);
                e.layer() == layer && e.rects().iter().any(|r| r.contains_point(p))
            })
            .collect()
    }
}

/// One device's rows in the net graph: its terminal `(name, node)` pairs
/// and the connection edges its geometry/bindings contribute. Rows are
/// position-independent (they reference interned nodes, not element
/// ids), which is what lets an edit session splice cached rows of
/// untouched devices into a patched graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceParts {
    /// `(terminal-name, node)` pairs, in terminal order.
    pub terms: Vec<(String, u32)>,
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
/// the caller needs to diff net identities without the old net list.
#[derive(Debug)]
pub struct NetSplice {
    /// The spliced resolution — equal to a from-scratch
    /// [`NetParts::assemble`] of the patched graph.
    pub nets: NetgenResult,
    /// Per new net id: true for the nets built fresh from the affected
    /// components. Every other net was moved across unchanged (same
    /// name, aliases and terminals, up to id renumbering).
    pub fresh: Vec<bool>,
    /// The old nets the splice dissolved, with their old ids,
    /// ascending. An element or terminal whose new net is fresh had
    /// its old net among these.
    pub retired: Vec<(NetId, Net)>,
    /// Live nodes in the affected components (the splice's work).
    pub nodes: usize,
}

impl NetSplice {
    /// Canonical name of a dissolved old net.
    pub fn retired_name(&self, old: NetId) -> Option<&str> {
        self.retired
            .binary_search_by_key(&old, |(id, _)| *id)
            .ok()
            .map(|k| self.retired[k].1.name.as_str())
    }
}

impl NetParts {
    /// Remaps every node through an interner compaction map
    /// ([`crate::binding::StringInterner::compact`]): nodes are raw
    /// interner indices, so when the owning view's table is compacted
    /// (a long-lived service session shedding edit-churn garbage) the
    /// whole graph renumbers with it. The caller must keep every node
    /// key alive in the compaction — the remap is dense and
    /// order-preserving, so the graph stays isomorphic and
    /// [`NetParts::assemble`] (which canonicalises by the node
    /// *strings*) produces byte-identical net lists.
    pub fn remap_strings(&mut self, remap: &[Option<crate::binding::Istr>]) {
        let map = |n: u32| -> u32 {
            // invariant: the compaction keep set includes every node.
            remap[n as usize]
                .expect("live net nodes survive compaction")
                .index()
        };
        for node in self.element_node.iter_mut().flatten() {
            *node = map(*node);
        }
        for (a, b) in &mut self.conn_edges {
            *a = map(*a);
            *b = map(*b);
        }
        for device in &mut self.devices {
            for (_, node) in &mut device.terms {
                *node = map(*node);
            }
            for (a, b) in &mut device.edges {
                *a = map(*a);
                *b = map(*b);
            }
        }
        for label in &mut self.labels {
            if let Some(node) = &mut label.node {
                *node = map(*node);
            }
            for (a, b) in &mut label.edges {
                *a = map(*a);
                *b = map(*b);
            }
        }
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

    /// The cached node → net resolution.
    #[cfg(test)]
    pub(crate) fn node_net(&self) -> &[Option<NetId>] {
        &self.node_net
    }

    /// Heap bytes of the cached node → net resolution.
    pub fn resolution_bytes(&self) -> usize {
        self.node_net.len() * std::mem::size_of::<Option<NetId>>()
    }

    /// Builds the full graph for a view, serially —
    /// [`NetParts::build_parallel`] with one worker.
    ///
    /// Needs the view mutably: fresh terminal / joining-device / label
    /// keys intern into the view's own table (the graph has no key
    /// store of its own).
    pub fn build(
        view: &mut ChipView,
        tech: &Technology,
        merges: &[(usize, usize)],
        labels: &[(NetLabel, Option<LayerId>)],
    ) -> NetParts {
        NetParts::build_parallel(view, tech, merges, labels, 1)
    }

    /// [`NetParts::build`] with the element-node map, the
    /// [`BindIndex`] filter, and the per-device / per-label union phase
    /// fanned out over `workers` scoped threads.
    ///
    /// The parallel jobs are read-only: the element-node map is a
    /// column sweep (an element's node is its `net_key` handle index),
    /// and the device/label jobs compute symbolic `DeviceDraft` /
    /// `LabelDraft` rows (covering-element ids plus fresh key strings
    /// in intern order). The serial fold then interns the drafts into
    /// the **view's** interner in device/label order — the same
    /// first-occurrence order a serial build interns in — so node
    /// numbering, rows, and the assembled net list are **byte-identical
    /// for any worker count**.
    pub fn build_parallel(
        view: &mut ChipView,
        tech: &Technology,
        merges: &[(usize, usize)],
        labels: &[(NetLabel, Option<LayerId>)],
        workers: usize,
    ) -> NetParts {
        let mut parts = NetParts::default();
        // Element nodes: a parallel read-only sweep of the net-key and
        // device columns. The node *is* the interned key's index — no
        // interner traffic at all.
        let ro: &ChipView = view;
        parts.element_node = run_chunked(ro.elements.len(), workers, |id| {
            element_is_netted(ro, id).then(|| ro.elements.net_keys()[id].index())
        });
        parts.set_conn_edges(merges);
        let bind = BindIndex::build_parallel(ro, tech, workers);
        // Union phase: chunked draft jobs over the device and label
        // lists (one contiguous chunk per job keeps run_ordered's
        // per-job overhead off the per-device scale).
        let dev_drafts = run_chunked(ro.devices.len(), workers, |di| device_draft(ro, di, &bind));
        let label_drafts = run_chunked(labels.len(), workers, |li| {
            let (label, layer) = &labels[li];
            label_draft(ro, label, *layer, &bind)
        });
        // Serial fold: intern fresh keys into the view's table in
        // device/label order.
        for draft in dev_drafts {
            let row = parts.intern_device_draft(&mut view.strings, draft);
            parts.devices.push(row);
        }
        for draft in label_drafts {
            let row = parts.intern_label_draft(&mut view.strings, draft);
            parts.labels.push(row);
        }
        parts
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

    /// Computes one device's row (used for initial build and for
    /// re-binding a device whose neighbourhood changed) — the draft
    /// computation plus an immediate intern into the view's table, so
    /// the incremental session's re-rows and the parallel build share
    /// one emission order.
    pub fn device_parts(
        &mut self,
        view: &mut ChipView,
        di: usize,
        bind: &BindIndex,
    ) -> DeviceParts {
        let draft = device_draft(view, di, bind);
        self.intern_device_draft(&mut view.strings, draft)
    }

    /// Computes one label's row (see [`NetParts::device_parts`]).
    pub fn label_parts(
        &mut self,
        view: &mut ChipView,
        label: &NetLabel,
        layer: Option<LayerId>,
        bind: &BindIndex,
    ) -> LabelParts {
        let draft = label_draft(view, label, layer, bind);
        self.intern_label_draft(&mut view.strings, draft)
    }

    /// Resolves a symbolic device draft against the view interner and
    /// the element-node map, in the draft's recorded intern order.
    /// Fresh keys are interned **by move** — a miss keeps the draft's
    /// own allocation instead of copying it.
    fn intern_device_draft(
        &mut self,
        strings: &mut StringInterner,
        draft: DeviceDraft,
    ) -> DeviceParts {
        let nodes: Vec<u32> = draft
            .keys
            .into_iter()
            .map(|k| strings.intern_owned(k.into()).index())
            .collect();
        DeviceParts {
            terms: draft
                .terms
                .into_iter()
                .map(|(tname, ki)| (tname, nodes[ki]))
                .collect(),
            edges: draft
                .edges
                .into_iter()
                .map(|(ki, eid)| {
                    // invariant: drafts only reference elements the
                    // union phase netted (message supplied per draft).
                    let node = self.element_node[eid].expect(draft.expect);
                    (nodes[ki], node)
                })
                .collect(),
        }
    }

    /// Resolves a symbolic label draft (see
    /// [`NetParts::intern_device_draft`]).
    fn intern_label_draft(
        &mut self,
        strings: &mut StringInterner,
        draft: LabelDraft,
    ) -> LabelParts {
        let Some(draft) = draft.0 else {
            return LabelParts::default();
        };
        let node = strings.intern_owned(draft.key.into()).index();
        LabelParts {
            node: Some(node),
            edges: draft
                .bound
                .into_iter()
                .map(|id| {
                    // invariant: a label binds only to elements the
                    // union phase assigned a node.
                    let elem = self.element_node[id].expect("bindable elements are netted");
                    (node, elem)
                })
                .collect(),
        }
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
        let mut live: Vec<u32> = self.live_nodes(|_| true).collect();
        live.sort_unstable();
        live.dedup();
        let nodes: Vec<(u32, &str)> = live
            .iter()
            .map(|&n| (n, view.strings.get(Istr::from_index(n))))
            .collect();
        let edges: Vec<(u32, u32)> = self.edges(|_| true).collect();

        let devices: Vec<AssembleDevice<'_>> = view
            .devices
            .iter()
            .zip(&self.devices)
            .map(|(dev, row)| AssembleDevice {
                name: view.str(dev.path),
                device_type: view.str(dev.device_type),
                class: dev.class.unwrap_or(DeviceClass::Capacitor),
                terminals: row.terms.iter().map(|(t, n)| (t.as_str(), *n)).collect(),
            })
            .collect();

        let (netlist, node_nets) = assemble_netlist(&nodes, &edges, &devices);
        // Dense node → net map (nodes are view-interner indices).
        let mut node_net: Vec<Option<NetId>> = vec![None; view.strings.len()];
        for (&node, &net) in live.iter().zip(&node_nets) {
            node_net[node as usize] = Some(net);
        }
        (self.resolve(netlist, &node_net), node_net)
    }

    /// Brings the net list of the last assembly up to date with the
    /// patched graph by **splicing**: only the nets a changed row can
    /// reach are rebuilt; every other [`Net`] and every surviving
    /// [`Device`] is moved out of `old` — no string is copied,
    /// re-rendered or dropped for them.
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
        let (old_nets, old_devices) = old.into_parts();

        // Affected old nets, and the live nodes they and the new nodes
        // make up.
        let mut affected = vec![false; old_nets.len()];
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
        // the fresh ones. Names cannot collide: a name is a node key,
        // and a node is in exactly one net.
        let mut net_new_of_old = vec![None; old_nets.len()];
        let mut renumbered = false;
        let mut new_of_fresh = Vec::with_capacity(fresh_nets.len());
        let mut retired = Vec::new();
        let mut nets: Vec<Net> = Vec::with_capacity(old_nets.len() + fresh_nets.len());
        let mut fresh: Vec<bool> = Vec::with_capacity(nets.capacity());
        let mut fresh_nets = fresh_nets.into_iter().peekable();
        for (old_id, net) in old_nets.into_iter().enumerate() {
            if affected[old_id] {
                retired.push((NetId(old_id as u32), net));
                continue;
            }
            while let Some(f) = fresh_nets.next_if(|f| f.name < net.name) {
                new_of_fresh.push(NetId(nets.len() as u32));
                nets.push(f);
                fresh.push(true);
            }
            renumbered |= nets.len() != old_id;
            net_new_of_old[old_id] = Some(NetId(nets.len() as u32));
            nets.push(net);
            fresh.push(false);
        }
        for f in fresh_nets {
            new_of_fresh.push(NetId(nets.len() as u32));
            nets.push(f);
            fresh.push(true);
        }

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

        // Devices: survivors move across (their strings untouched),
        // fresh instances render theirs. An opened device re-reads its
        // terminals' nets, and the fresh nets collect their terminals
        // in device order; an unopened one is on kept nets only, which
        // at most renumbered.
        let mut dev_new_of_old = vec![None; old_devices.len()];
        let mut old_devices = old_devices.into_iter().enumerate();
        let mut devices: Vec<Device> = Vec::with_capacity(view.devices.len());
        for (di, (dev, row)) in view.devices.iter().zip(&self.devices).enumerate() {
            let mut device = match dev_old_of_new[di] {
                Some(od) => {
                    dev_new_of_old[od] = Some(DeviceId(di as u32));
                    // invariant: survivors keep their relative order,
                    // so the skipped devices are exactly the removed.
                    let (_, device) = old_devices
                        .find(|(i, _)| *i == od)
                        .expect("surviving devices keep their relative order");
                    device
                }
                None => Device {
                    name: view.str(dev.path).to_string(),
                    device_type: view.str(dev.device_type).to_string(),
                    class: dev.class.unwrap_or(DeviceClass::Capacitor),
                    terminals: row
                        .terms
                        .iter()
                        .map(|(t, _)| (t.clone(), NetId(u32::MAX)))
                        .collect(),
                },
            };
            if opened[di] {
                debug_assert_eq!(device.terminals.len(), row.terms.len());
                for ((tname, net), (_, node)) in device.terminals.iter_mut().zip(&row.terms) {
                    // invariant: terminal nodes are live, and every
                    // live node was resolved above.
                    *net = self.node_net[*node as usize].expect("terminal nodes are live");
                    if fresh[net.0 as usize] {
                        nets[net.0 as usize]
                            .terminals
                            .push((DeviceId(di as u32), tname.clone()));
                    }
                }
            } else if renumbered {
                for (_, net) in &mut device.terminals {
                    // invariant: an unopened device's nets were kept.
                    *net =
                        net_new_of_old[net.0 as usize].expect("unopened devices sit on kept nets");
                }
            }
            devices.push(device);
        }

        // Kept nets name their devices by id: rewrite them if adding or
        // removing instances shifted any.
        let shifted = dev_new_of_old
            .iter()
            .enumerate()
            .any(|(od, nd)| *nd != Some(DeviceId(od as u32)));
        if shifted {
            for (net, _) in nets.iter_mut().zip(&fresh).filter(|(_, f)| !**f) {
                for (device, _) in &mut net.terminals {
                    // invariant: a removed device's terminal nodes are
                    // touched, so none of its nets was kept.
                    *device = dev_new_of_old[device.0 as usize]
                        .expect("kept nets carry surviving devices only");
                }
            }
        }

        let spliced = NetSplice {
            nets: self.resolve(Netlist::from_parts(nets, devices), &self.node_net),
            fresh,
            retired,
            nodes: d_nodes.len(),
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

/// One device's symbolic row before interning: the fresh node keys in
/// the exact order a serial build interns them, with terminals and
/// edges referencing key indices and covering-element ids. Pure data —
/// computable on any worker without touching the shared interner.
#[derive(Debug, Clone, Default)]
struct DeviceDraft {
    /// Fresh node keys, in serial intern order (one for a joining
    /// device, one per terminal otherwise).
    keys: Vec<String>,
    /// `(terminal-name, key index)` pairs, in terminal order.
    terms: Vec<(String, usize)>,
    /// `(key index, element id)` edges, in serial emission order.
    edges: Vec<(usize, usize)>,
    /// The element-node expectation message (differs between joining
    /// and terminal-separated rows).
    expect: &'static str,
}

/// One label's symbolic row before interning; `None` when the label's
/// layer is unknown.
#[derive(Debug, Clone, Default)]
struct LabelDraft(Option<LabelDraftInner>);

#[derive(Debug, Clone)]
struct LabelDraftInner {
    key: String,
    bound: Vec<usize>,
}

/// Computes one device's symbolic draft row (read-only — the parallel
/// union phase's job body).
fn device_draft(view: &ChipView, di: usize, bind: &BindIndex) -> DeviceDraft {
    let dev = &view.devices[di];
    let mut draft = DeviceDraft::default();
    if is_joining_class(dev.class) {
        // One net for the whole device.
        draft.expect = "joining device geometry is netted";
        draft.keys.push(format!("{}.#", view.str(dev.path)));
        for &eid in &dev.element_ids {
            draft.edges.push((0, eid));
        }
        for (tname, _, _) in &dev.terminals {
            draft.terms.push((tname.clone(), 0));
        }
        if dev.terminals.is_empty() {
            // Still a device on its single net.
            draft.terms.push(("A".to_string(), 0));
        }
    } else {
        // Terminal-separated device: each terminal is its own key,
        // bound to covering elements.
        draft.expect = "bindable elements are netted";
        for (tname, layer, pos) in &dev.terminals {
            let ki = draft.keys.len();
            draft.keys.push(format!("{}.{}", view.str(dev.path), tname));
            for id in bind.elements_at(view, *layer, *pos) {
                draft.edges.push((ki, id));
            }
            draft.terms.push((tname.clone(), ki));
        }
    }
    draft
}

/// Computes one label's symbolic draft row (read-only).
fn label_draft(
    view: &ChipView,
    label: &NetLabel,
    layer: Option<LayerId>,
    bind: &BindIndex,
) -> LabelDraft {
    let Some(layer) = layer else {
        return LabelDraft(None);
    };
    LabelDraft(Some(LabelDraftInner {
        key: label.net.clone(),
        bound: bind.elements_at(view, layer, label.position),
    }))
}

/// Generates the hierarchical net list, serially —
/// [`generate_netlist_parallel`] with one worker.
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
/// This is [`NetParts::build`] + [`NetParts::assemble`]; an edit session
/// keeps the [`NetParts`] graph alive and patches it instead of
/// rebuilding.
pub fn generate_netlist(
    view: &mut ChipView,
    tech: &Technology,
    merges: &[(usize, usize)],
    labels: &[(NetLabel, Option<LayerId>)],
) -> NetgenResult {
    generate_netlist_parallel(view, tech, merges, labels, 1)
}

/// [`generate_netlist`] with the per-scope union phase fanned out over
/// `workers` scoped threads ([`NetParts::build_parallel`]) — the
/// assembly stays serial and canonical, so any worker count produces a
/// byte-identical [`NetgenResult`].
pub fn generate_netlist_parallel(
    view: &mut ChipView,
    tech: &Technology,
    merges: &[(usize, usize)],
    labels: &[(NetLabel, Option<LayerId>)],
    workers: usize,
) -> NetgenResult {
    NetParts::build_parallel(view, tech, merges, labels, workers).assemble(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use crate::connect::check_connections_among;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn extract(cif: &str) -> (NetgenResult, ChipView) {
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let mut view = instantiate(&layout, &tech, &binding, 1, Default::default()).0;
        let all: Vec<usize> = (0..view.elements.len()).collect();
        let conn = check_connections_among(&view, &tech, &all);
        let labels: Vec<(NetLabel, Option<LayerId>)> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();
        let r = generate_netlist(&mut view, &tech, &conn.merges, &labels);
        (r, view)
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
        let dev = &r.netlist.devices()[0];
        assert_eq!(dev.device_type, "NMOS_ENH");
        let g = r.netlist.net_by_name("in").unwrap();
        let s = r.netlist.net_by_name("gnd").unwrap();
        let d = r.netlist.net_by_name("out").unwrap();
        let find = |t: &str| dev.terminals.iter().find(|(n, _)| n == t).unwrap().1;
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
        assert!(r.netlist.net(vdd).aliases.iter().any(|a| a == "VDD"));
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
}
