//! Net-list model: nets, devices, terminals — flat columns over one
//! text buffer.
//!
//! A [`Netlist`] owns no string per name. Every name it carries — net
//! aliases, device paths, device types, terminal names — is a *span* of
//! one text buffer, and its nets, aliases, devices and terminals are
//! rows of flat columns:
//!
//! * a **net row** is a name span (the span of its canonical alias), and
//!   its range of the **alias column** (spans, sorted by text within the
//!   net) and of the **net-terminal column** (`(device, terminal-name
//!   span)`, in device order);
//! * a **device row** is a name span, a type span, a class, and its
//!   range of the **device-terminal column** (`(terminal-name span,
//!   net)`, in terminal order).
//!
//! Ranges are contiguous and ascending — row *i*'s range starts where
//! row *i − 1*'s ended — so a row stores only where its range ends. The
//! net-terminal column is derived from the device-terminal column by a
//! counting sort, never written directly. Nets are ordered by canonical
//! name. Reads go through [`Netlist::net`] / [`Netlist::device`] and the
//! [`NetRef`] / [`DeviceRef`] accessors, which slice the text (checked);
//! the one way to write a list is a [`NetlistWriter`], which appends in
//! canonical order: all nets, then all devices, each item's text as the
//! item is appended.
//!
//! Two net lists are **equal** when they say the same thing — the same
//! names, aliases, terminals, types and classes in the same order — not
//! when their buffers happen to be laid out alike.

use crate::unionfind::UnionFind;
use diic_tech::DeviceClass;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

/// Identifier of a net in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a device in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// A run of bytes of a net list's text. Built only by
/// [`NetlistWriter::push_text`], which checks that the text stays under
/// 4 GiB — so `start + len` cannot wrap.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct NetRow {
    /// The span of the canonical alias.
    name: Span,
    /// Where this net's run of the alias column ends.
    aliases_end: u32,
    /// Where this net's run of the net-terminal column ends.
    terminals_end: u32,
}

#[derive(Debug, Clone, Copy)]
struct DeviceRow {
    name: Span,
    device_type: Span,
    class: DeviceClass,
    /// Where this device's run of the device-terminal column ends.
    terminals_end: u32,
}

/// Row `i`'s range of a column whose ranges are contiguous and ascending:
/// from where row `i − 1`'s ended to where its own does.
fn run_of<T>(rows: &[T], i: usize, end: impl Fn(&T) -> u32) -> Range<usize> {
    let start = i.checked_sub(1).map_or(0, |prev| end(&rows[prev]));
    start as usize..end(&rows[i]) as usize
}

/// An extracted or intended net list (see the [module docs](self) for
/// the layout).
///
/// Equality compares **content** — net names, aliases and terminals,
/// device names, types, classes and terminals, in order — through the
/// accessors; where the text lies in the buffer is not part of the
/// value. The name-lookup index is derived data, built lazily on the
/// first [`Netlist::net_by_name`] call — net-list construction is on the
/// incremental re-check path, where most rebuilt lists are never queried
/// by name — and a clone starts without it.
#[derive(Default)]
pub struct Netlist {
    text: String,
    nets: Vec<NetRow>,
    aliases: Vec<Span>,
    net_terminals: Vec<(DeviceId, Span)>,
    devices: Vec<DeviceRow>,
    device_terminals: Vec<(Span, NetId)>,
    /// Alias-column positions ordered by alias text (then position).
    by_name: OnceLock<Vec<u32>>,
}

impl Clone for Netlist {
    fn clone(&self) -> Self {
        Netlist {
            text: self.text.clone(),
            nets: self.nets.clone(),
            aliases: self.aliases.clone(),
            net_terminals: self.net_terminals.clone(),
            devices: self.devices.clone(),
            device_terminals: self.device_terminals.clone(),
            by_name: OnceLock::new(),
        }
    }
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.nets.len() == other.nets.len()
            && self.devices.len() == other.devices.len()
            && self.nets().zip(other.nets()).all(|(a, b)| {
                a.name() == b.name()
                    && a.aliases().eq(b.aliases())
                    && a.terminals().eq(b.terminals())
            })
            && self.devices().zip(other.devices()).all(|(a, b)| {
                a.name() == b.name()
                    && a.device_type() == b.device_type()
                    && a.class() == b.class()
                    && a.terminals().eq(b.terminals())
            })
    }
}

impl Eq for Netlist {}

impl std::fmt::Debug for Netlist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Netlist")
            .field("nets", &self.nets().collect::<Vec<_>>())
            .field("devices", &self.devices().collect::<Vec<_>>())
            .finish()
    }
}

impl Netlist {
    fn str(&self, span: Span) -> &str {
        &self.text[span.range()]
    }

    /// All nets, in canonical-name order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetRef<'_>> + Clone {
        (0..self.nets.len() as u32).map(move |id| NetRef { list: self, id })
    }

    /// All devices, in id order.
    pub fn devices(&self) -> impl ExactSizeIterator<Item = DeviceRef<'_>> + Clone {
        (0..self.devices.len() as u32).map(move |id| DeviceRef { list: self, id })
    }

    /// A net by id.
    ///
    /// # Panics
    ///
    /// Panics if the list has no such net.
    pub fn net(&self, id: NetId) -> NetRef<'_> {
        assert!((id.0 as usize) < self.nets.len(), "no net {id:?}");
        NetRef {
            list: self,
            id: id.0,
        }
    }

    /// A device by id.
    ///
    /// # Panics
    ///
    /// Panics if the list has no such device.
    pub fn device(&self, id: DeviceId) -> DeviceRef<'_> {
        assert!((id.0 as usize) < self.devices.len(), "no device {id:?}");
        DeviceRef {
            list: self,
            id: id.0,
        }
    }

    /// Finds the net that has `name` among its aliases (the last such
    /// net, should several carry it).
    ///
    /// The first call sorts the alias column's *positions* by alias
    /// text; every call is then a binary search over the spans. No
    /// string is copied.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        let alias = |k: u32| self.str(self.aliases[k as usize]);
        let order = self.by_name.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.aliases.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| alias(a).cmp(alias(b)).then(a.cmp(&b)));
            order
        });
        let after = order.partition_point(|&k| alias(k) <= name);
        let k = *order[..after].last().filter(|&&k| alias(k) == name)?;
        // Alias ranges are contiguous and ascending: the net holding
        // position `k` is the first whose range ends past it.
        let net = self.nets.partition_point(|row| row.aliases_end <= k);
        Some(NetId(net as u32))
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of aliases over all nets.
    pub fn alias_count(&self) -> usize {
        self.aliases.len()
    }

    /// Bytes of name text the list holds.
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }
}

/// One net of a [`Netlist`]: its canonical name (the shortest, then
/// lexicographically smallest alias, which favours short top-level names
/// like `VDD` over deep `a.b.c` paths), all its aliases (the dot-notation
/// identifiers that were merged into it), and the device terminals on it.
#[derive(Clone, Copy)]
pub struct NetRef<'a> {
    list: &'a Netlist,
    id: u32,
}

impl<'a> NetRef<'a> {
    fn row(self) -> &'a NetRow {
        &self.list.nets[self.id as usize]
    }

    /// The net's id.
    pub fn id(self) -> NetId {
        NetId(self.id)
    }

    /// Canonical name.
    pub fn name(self) -> &'a str {
        self.list.str(self.row().name)
    }

    /// All identifiers merged into this net, sorted.
    pub fn aliases(self) -> impl ExactSizeIterator<Item = &'a str> + Clone {
        let list = self.list;
        let run = run_of(&list.nets, self.id as usize, |row| row.aliases_end);
        list.aliases[run].iter().map(move |&span| list.str(span))
    }

    /// `(device, terminal-name)` pairs attached to this net, in device
    /// order.
    pub fn terminals(self) -> impl ExactSizeIterator<Item = (DeviceId, &'a str)> + Clone {
        let list = self.list;
        let run = run_of(&list.nets, self.id as usize, |row| row.terminals_end);
        (list.net_terminals[run].iter()).map(move |&(device, name)| (device, list.str(name)))
    }
}

impl std::fmt::Debug for NetRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name())
            .field("aliases", &self.aliases().collect::<Vec<_>>())
            .field("terminals", &self.terminals().collect::<Vec<_>>())
            .finish()
    }
}

/// One device instance of a [`Netlist`] with its typed terminals.
#[derive(Clone, Copy)]
pub struct DeviceRef<'a> {
    list: &'a Netlist,
    id: u32,
}

impl<'a> DeviceRef<'a> {
    fn row(self) -> &'a DeviceRow {
        &self.list.devices[self.id as usize]
    }

    /// The device's id.
    pub fn id(self) -> DeviceId {
        DeviceId(self.id)
    }

    /// Instance path (dot notation).
    pub fn name(self) -> &'a str {
        self.list.str(self.row().name)
    }

    /// The `9D` type name (e.g. `NMOS_ENH`).
    pub fn device_type(self) -> &'a str {
        self.list.str(self.row().device_type)
    }

    /// Electrical class.
    pub fn class(self) -> DeviceClass {
        self.row().class
    }

    /// `(terminal-name, net)` pairs, in terminal order.
    pub fn terminals(self) -> impl ExactSizeIterator<Item = (&'a str, NetId)> + Clone {
        let list = self.list;
        let run = run_of(&list.devices, self.id as usize, |row| row.terminals_end);
        (list.device_terminals[run].iter()).map(move |&(name, net)| (list.str(name), net))
    }
}

impl std::fmt::Debug for DeviceRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.name())
            .field("device_type", &self.device_type())
            .field("class", &self.class())
            .field("terminals", &self.terminals().collect::<Vec<_>>())
            .finish()
    }
}

/// True if alias `a` names a net ahead of alias `b`: the shorter wins,
/// then the lexicographically smaller.
fn names_ahead_of(a: &str, b: &str) -> bool {
    (a.len(), a) < (b.len(), b)
}

/// The one way to write a [`Netlist`]: append its nets, then its
/// devices, **in canonical order**, and [`NetlistWriter::finish`].
///
/// The caller owes the order — nets ascending by canonical name, each
/// net's aliases sorted, devices in id order, every terminal's net
/// already appended ([`assemble_netlist`] is the reference a written
/// list must equal). The writer owes the layout: each item's text is
/// appended as the item is — so a list's net text lies in alias-column
/// order, followed by its device text in row order (name, type,
/// terminal names) — which is what lets [`NetlistWriter::copy_nets`] and
/// [`NetlistWriter::copy_devices`] move a run of rows with one copy of
/// its text; a net's name is picked here (the alias that
/// names ahead of all the others); and the net-terminal column is
/// derived at the end.
#[derive(Debug, Default)]
pub struct NetlistWriter {
    list: Netlist,
}

impl NetlistWriter {
    /// A writer of an empty list.
    pub fn new() -> Self {
        NetlistWriter::default()
    }

    /// Makes room for `bytes` more of text.
    pub fn reserve_text(&mut self, bytes: usize) {
        self.list.text.reserve(bytes);
    }

    /// Where `len` more bytes of text would end — checked: a list whose
    /// text would pass 4 GiB stops here, its offsets do not wrap.
    fn end_after(&self, len: usize) -> u32 {
        u32::try_from(self.list.text.len() + len).expect("a net list holds less than 4 GiB of text")
    }

    fn push_text(&mut self, s: &str) -> Span {
        let end = self.end_after(s.len());
        self.list.text.push_str(s);
        Span {
            start: end - s.len() as u32,
            len: s.len() as u32,
        }
    }

    /// Appends bytes `text` of `from`'s buffer in one piece; the returned
    /// function takes a span of them to where it landed.
    fn copy_text(&mut self, from: &Netlist, text: Range<usize>) -> impl Fn(Span) -> Span {
        let landed = self.end_after(text.len()) - text.len() as u32;
        self.list.text.push_str(&from.text[text.clone()]);
        move |span| Span {
            start: span.start - text.start as u32 + landed,
            len: span.len,
        }
    }

    /// Appends a net of the given aliases (at least one; sorted).
    pub fn net<'a>(&mut self, aliases: impl IntoIterator<Item = &'a str>) -> NetId {
        debug_assert!(self.list.devices.is_empty(), "nets come before devices");
        let mut name: Option<(Span, &str)> = None;
        for alias in aliases {
            let span = self.push_text(alias);
            self.list.aliases.push(span);
            if name.is_none_or(|(_, best)| names_ahead_of(alias, best)) {
                name = Some((span, alias));
            }
        }
        let (name, _) = name.expect("a net has at least one alias");
        self.list.nets.push(NetRow {
            name,
            aliases_end: self.list.aliases.len() as u32,
            terminals_end: 0,
        });
        NetId(self.list.nets.len() as u32 - 1)
    }

    /// Appends nets `ids` of `from` as they are: one copy of the run's
    /// text, its alias spans and rows shifted to where they land.
    pub fn copy_nets(&mut self, from: &Netlist, ids: Range<u32>) {
        debug_assert!(self.list.devices.is_empty(), "nets come before devices");
        if ids.is_empty() {
            return;
        }
        let (first, last) = (ids.start as usize, ids.end as usize - 1);
        let aliases = run_of(&from.nets, first, |row| row.aliases_end).start
            ..run_of(&from.nets, last, |row| row.aliases_end).end;
        // A list's net text lies in alias-column order (see the type
        // docs), so the run's text is one piece.
        let text =
            from.aliases[aliases.start].range().start..from.aliases[aliases.end - 1].range().end;
        debug_assert!(from.aliases[aliases.clone()]
            .windows(2)
            .all(|w| w[0].range().end == w[1].range().start));
        let moved = self.copy_text(from, text);
        let alias_base = self.list.aliases.len() as u32;
        (self.list.aliases).extend(
            from.aliases[aliases.clone()]
                .iter()
                .map(|&span| moved(span)),
        );
        self.list
            .nets
            .extend(from.nets[first..=last].iter().map(|row| NetRow {
                name: moved(row.name),
                aliases_end: row.aliases_end - aliases.start as u32 + alias_base,
                terminals_end: 0,
            }));
    }

    /// Appends a device; its terminals follow through
    /// [`NetlistWriter::terminal`].
    pub fn device(&mut self, name: &str, device_type: &str, class: DeviceClass) -> DeviceId {
        let row = DeviceRow {
            name: self.push_text(name),
            device_type: self.push_text(device_type),
            class,
            terminals_end: self.list.device_terminals.len() as u32,
        };
        self.list.devices.push(row);
        DeviceId(self.list.devices.len() as u32 - 1)
    }

    /// Appends a terminal, on `net`, to the device appended last.
    pub fn terminal(&mut self, name: &str, net: NetId) {
        let name = self.push_text(name);
        self.list.device_terminals.push((name, net));
        let device = self.list.devices.last_mut();
        device.expect("a terminal follows its device").terminals_end += 1;
    }

    /// Appends devices `ids` of `from` — one copy of the run's text —
    /// with each terminal's net passed through `net_of`, which is called
    /// once per terminal, in order, with the device it belongs to and
    /// its place among that device's terminals.
    pub fn copy_devices(
        &mut self,
        from: &Netlist,
        ids: Range<u32>,
        mut net_of: impl FnMut(DeviceId, usize, NetId) -> NetId,
    ) {
        if ids.is_empty() {
            return;
        }
        let (first, last) = (ids.start as usize, ids.end as usize - 1);
        let terminals = run_of(&from.devices, first, |row| row.terminals_end).start
            ..run_of(&from.devices, last, |row| row.terminals_end).end;
        // A list's device text lies in row order and ends the buffer
        // (see the type docs), so the run's text is one piece.
        let text = from.devices[first].name.range().start
            ..(from.devices.get(last + 1)).map_or(from.text.len(), |next| next.name.range().start);
        let moved = self.copy_text(from, text);
        let terminal_base = self.list.device_terminals.len() as u32;
        self.list.device_terminals.reserve(terminals.len());
        let (mut device, mut start) = (first, terminals.start);
        for t in terminals.clone() {
            while from.devices[device].terminals_end as usize <= t {
                start = from.devices[device].terminals_end as usize;
                device += 1;
            }
            let (name, net) = from.device_terminals[t];
            let net = net_of(DeviceId(device as u32), t - start, net);
            self.list.device_terminals.push((moved(name), net));
        }
        self.list
            .devices
            .extend(from.devices[first..=last].iter().map(|row| DeviceRow {
                name: moved(row.name),
                device_type: moved(row.device_type),
                class: row.class,
                terminals_end: row.terminals_end - terminals.start as u32 + terminal_base,
            }));
    }

    /// The written list, its net-terminal column derived from the device
    /// terminals by a counting sort — which is what puts every net's
    /// terminals in device order.
    ///
    /// # Panics
    ///
    /// Panics if a terminal names a net that was never appended.
    pub fn finish(self) -> Netlist {
        let mut list = self.list;
        let mut next = vec![0u32; list.nets.len() + 1];
        for &(_, net) in &list.device_terminals {
            next[net.0 as usize + 1] += 1;
        }
        for net in 0..list.nets.len() {
            next[net + 1] += next[net];
            list.nets[net].terminals_end = next[net + 1];
        }
        // `next[net]` is now where net `net`'s run starts, and steps
        // through it as the terminals land.
        let empty = Span { start: 0, len: 0 };
        list.net_terminals = vec![(DeviceId(0), empty); list.device_terminals.len()];
        for device in 0..list.devices.len() {
            let run = run_of(&list.devices, device, |row| row.terminals_end);
            for &(name, net) in &list.device_terminals[run] {
                let slot = &mut next[net.0 as usize];
                list.net_terminals[*slot as usize] = (DeviceId(device as u32), name);
                *slot += 1;
            }
        }
        list
    }
}

/// A device staged in the builder: path, type, class, and terminal
/// `(name, interned net key)` pairs.
type StagedDevice = (String, String, DeviceClass, Vec<(String, u32)>);

/// A device staged for [`assemble_netlist`], borrowing its strings;
/// `terminals` is anything that yields its `(terminal-name, node)`
/// pairs — nothing is collected per device.
#[derive(Debug, Clone)]
pub struct AssembleDevice<'a, T> {
    /// Instance path (dot notation).
    pub name: &'a str,
    /// The `9D` type name.
    pub device_type: &'a str,
    /// Electrical class.
    pub class: DeviceClass,
    /// `(terminal-name, node)` pairs.
    pub terminals: T,
}

/// The canonical nets of a node graph as a device-less [`Netlist`], plus
/// the per-node net resolution (aligned with `nodes`): the connected
/// components, each named by its shortest (then lexicographically
/// smallest) alias, aliases sorted, nets ordered by canonical name.
///
/// This is the one place the ordering rules live. [`assemble_netlist`]
/// runs it over the whole graph; the edit session's splice runs it over
/// the affected components only and merges the result into the nets it
/// kept ([`NetlistWriter::copy_nets`] from either list). Node ids may be
/// sparse — every edge endpoint must appear in `nodes`.
pub fn canonical_nets(nodes: &[(u32, &str)], edges: &[(u32, u32)]) -> (Netlist, Vec<NetId>) {
    let (nets, node_nets, _) = components(nodes, edges);
    (nets.finish(), node_nets)
}

/// [`canonical_nets`], still open for devices, plus the dense node-id →
/// position-in-`nodes` table it resolved edges through (`u32::MAX` for
/// absent ids).
fn components(
    nodes: &[(u32, &str)],
    edges: &[(u32, u32)],
) -> (NetlistWriter, Vec<NetId>, Vec<u32>) {
    // Dense remap so union-find stays compact under sparse node ids.
    let max_node = nodes.iter().map(|&(n, _)| n).max().map_or(0, |n| n + 1);
    let mut dense: Vec<u32> = vec![u32::MAX; max_node as usize];
    let mut uf = UnionFind::with_nodes(nodes.len());
    for (at, (node, _)) in nodes.iter().enumerate() {
        dense[*node as usize] = at as u32;
    }
    for (a, b) in edges {
        uf.union(dense[*a as usize], dense[*b as usize]);
    }

    // Group the nodes by component root with a counting sort: `members`
    // holds node positions, root `r`'s between `start[r]` and
    // `start[r + 1]`.
    let roots: Vec<u32> = (0..nodes.len() as u32).map(|at| uf.find(at)).collect();
    let mut start = vec![0u32; nodes.len() + 1];
    for &root in &roots {
        start[root as usize + 1] += 1;
    }
    for root in 0..nodes.len() {
        start[root + 1] += start[root];
    }
    let mut next = start.clone();
    let mut members = vec![0u32; nodes.len()];
    for (at, &root) in roots.iter().enumerate() {
        let slot = &mut next[root as usize];
        members[*slot as usize] = at as u32;
        *slot += 1;
    }
    let name = |at: u32| nodes[at as usize].1;
    let group = |root: u32| start[root as usize] as usize..start[root as usize + 1] as usize;

    // Deterministic net order: by canonical (shortest, then smallest)
    // alias.
    let mut order: Vec<(&str, u32)> = (0..nodes.len() as u32)
        .filter(|&root| !group(root).is_empty())
        .map(|root| {
            let aliases = members[group(root)].iter().map(|&at| name(at));
            let canon = aliases.reduce(|best, alias| match names_ahead_of(alias, best) {
                true => alias,
                false => best,
            });
            (canon.expect("group is non-empty"), root)
        })
        .collect();
    order.sort_unstable_by(|a, b| a.0.cmp(b.0));

    let mut nets = NetlistWriter::new();
    nets.reserve_text(nodes.iter().map(|(_, name)| name.len()).sum());
    nets.list.aliases.reserve(nodes.len());
    nets.list.nets.reserve(order.len());
    let mut root_to_net: Vec<NetId> = vec![NetId(u32::MAX); nodes.len()];
    for (_, root) in order {
        let aliases = &mut members[group(root)];
        aliases.sort_unstable_by(|&a, &b| name(a).cmp(name(b)));
        root_to_net[root as usize] = nets.net(aliases.iter().map(|&at| name(at)));
    }

    let node_nets = roots.iter().map(|&root| root_to_net[root as usize]);
    (nets, node_nets.collect(), dense)
}

/// Assembles a canonical [`Netlist`] from an explicit node/edge/device
/// graph, returning it together with the per-node net resolution
/// (aligned with the `nodes` slice).
///
/// This is the single **from-scratch** canonicalisation:
/// [`NetlistBuilder::finish`] is a thin wrapper over it, and the batch
/// engine, an edit session's open and its full-rebuild fallback all
/// call it with a persistently interned graph. A session's ordinary
/// edits splice instead (`diic_core::netgen::NetIndex::splice`: the
/// same [`canonical_nets`] over the affected components, every other
/// row copied across in runs through a [`NetlistWriter`]) and in debug
/// builds assert the spliced list equal to this function's — a pure
/// function of (live nodes, connectivity, devices) — which is why a
/// patched session net list is byte-identical to a from-scratch build.
///
/// Canonical form: nets are the connected components of the node graph;
/// a net's canonical name is its shortest (then lexicographically
/// smallest) alias; aliases are sorted; nets are ordered by canonical
/// name; terminals appear in device order. Node ids may be sparse —
/// edge/terminal endpoints must all appear in `nodes`.
pub fn assemble_netlist<'a, T>(
    nodes: &[(u32, &str)],
    edges: &[(u32, u32)],
    devices: impl IntoIterator<Item = AssembleDevice<'a, T>>,
) -> (Netlist, Vec<NetId>)
where
    T: IntoIterator<Item = (&'a str, u32)>,
{
    let (mut list, node_nets, dense) = components(nodes, edges);
    for device in devices {
        list.device(device.name, device.device_type, device.class);
        for (name, node) in device.terminals {
            list.terminal(name, node_nets[dense[node as usize] as usize]);
        }
    }
    (list.finish(), node_nets)
}

/// Builder: intern net keys, merge them as connections are discovered, add
/// devices, then [`NetlistBuilder::finish`] into a canonical [`Netlist`].
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    uf: UnionFind,
    keys: HashMap<String, u32>,
    names: Vec<String>,
    edges: Vec<(u32, u32)>,
    devices: Vec<StagedDevice>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// Interns a net identifier, returning its node.
    pub fn node(&mut self, key: &str) -> u32 {
        if let Some(&n) = self.keys.get(key) {
            return n;
        }
        let n = self.uf.make();
        debug_assert_eq!(n as usize, self.names.len());
        self.keys.insert(key.to_string(), n);
        self.names.push(key.to_string());
        n
    }

    /// Records that two net identifiers are connected (merges their nets).
    pub fn connect(&mut self, a: &str, b: &str) {
        let na = self.node(a);
        let nb = self.node(b);
        self.edges.push((na, nb));
        self.uf.union(na, nb);
    }

    /// True if two identifiers are currently on the same net.
    pub fn connected(&mut self, a: &str, b: &str) -> bool {
        let na = self.node(a);
        let nb = self.node(b);
        self.uf.same(na, nb)
    }

    /// Adds a device with `(terminal-name, net-key)` pairs.
    pub fn add_device(
        &mut self,
        name: &str,
        device_type: &str,
        class: DeviceClass,
        terminals: &[(&str, &str)],
    ) {
        let terms: Vec<(String, u32)> = terminals
            .iter()
            .map(|(t, key)| (t.to_string(), self.node(key)))
            .collect();
        self.devices
            .push((name.to_string(), device_type.to_string(), class, terms));
    }

    /// Produces the canonical net list (through [`assemble_netlist`],
    /// the same path the incremental checker's patched graph takes).
    pub fn finish(self) -> Netlist {
        let nodes: Vec<(u32, &str)> = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
            .collect();
        let devices =
            (self.devices.iter()).map(|(name, device_type, class, terms)| AssembleDevice {
                name,
                device_type,
                class: *class,
                terminals: terms.iter().map(|(t, n)| (t.as_str(), *n)),
            });
        assemble_netlist(&nodes, &self.edges, devices).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pullup",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", "out"), ("S", "out"), ("D", "VDD")],
        );
        b.add_device(
            "pulldown",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "in"), ("S", "GND"), ("D", "out")],
        );
        b.finish()
    }

    #[test]
    fn build_inverter() {
        let n = inverter_netlist();
        assert_eq!(n.device_count(), 2);
        assert_eq!(n.net_count(), 4); // VDD, GND, in, out
        let out = n.net_by_name("out").unwrap();
        assert_eq!(n.net(out).terminals().len(), 3);
    }

    #[test]
    fn connect_merges_aliases() {
        let mut b = NetlistBuilder::new();
        b.connect("a.out", "b.in");
        b.connect("b.in", "x");
        let n = b.finish();
        assert_eq!(n.net_count(), 1);
        let id = n.net_by_name("x").unwrap();
        assert_eq!(n.net_by_name("a.out"), Some(id));
        assert_eq!(n.net(id).name(), "x"); // shortest alias wins
        assert!(n.net(id).aliases().eq(["a.out", "b.in", "x"]));
    }

    #[test]
    fn canonical_name_prefers_short_toplevel() {
        let mut b = NetlistBuilder::new();
        b.connect("i3.i2.vdd", "VDD");
        let n = b.finish();
        assert_eq!(n.net(NetId(0)).name(), "VDD");
    }

    #[test]
    fn device_terminals_resolve_through_merges() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "t1",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "g1"), ("S", "s1"), ("D", "d1")],
        );
        b.connect("d1", "wire");
        b.connect("wire", "g2");
        b.add_device(
            "t2",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "g2"), ("S", "s2"), ("D", "d2")],
        );
        let n = b.finish();
        let d1 = n.net_by_name("d1").unwrap();
        let g2 = n.net_by_name("g2").unwrap();
        assert_eq!(d1, g2);
        // Both devices appear on the shared net.
        let net = n.net(d1);
        assert!(net.terminals().eq([(DeviceId(0), "D"), (DeviceId(1), "G")]));
    }

    #[test]
    fn deterministic_order() {
        let a = inverter_netlist();
        let b = inverter_netlist();
        assert_eq!(a, b);
    }
}
