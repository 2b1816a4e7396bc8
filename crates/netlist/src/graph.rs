//! Net-list model: nets, devices, terminals.

use crate::unionfind::UnionFind;
use diic_tech::DeviceClass;
use std::collections::HashMap;

/// Identifier of a net in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Identifier of a device in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

/// A net: a canonical name, all its aliases (dot-notation identifiers that
/// were merged into it), and the device terminals on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Canonical name (the lexicographically smallest alias, which favours
    /// short top-level names like `VDD` over deep `a.b.c` paths).
    pub name: String,
    /// All identifiers merged into this net, sorted.
    pub aliases: Vec<String>,
    /// `(device, terminal-name)` pairs attached to this net.
    pub terminals: Vec<(DeviceId, String)>,
}

/// A device instance with its typed terminals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Instance path (dot notation).
    pub name: String,
    /// The `9D` type name (e.g. `NMOS_ENH`).
    pub device_type: String,
    /// Electrical class.
    pub class: DeviceClass,
    /// `(terminal-name, net)` pairs.
    pub terminals: Vec<(String, NetId)>,
}

/// An extracted or intended net list.
///
/// Equality compares the canonical content (nets and devices); the
/// name-lookup table is derived data, built lazily on the first
/// [`Netlist::net_by_name`] call — net-list construction is on the
/// incremental re-check path, where most rebuilt lists are never
/// queried by name.
#[derive(Debug, Default)]
pub struct Netlist {
    nets: Vec<Net>,
    devices: Vec<Device>,
    by_name: std::sync::OnceLock<HashMap<String, NetId>>,
}

impl Clone for Netlist {
    fn clone(&self) -> Self {
        Netlist {
            nets: self.nets.clone(),
            devices: self.devices.clone(),
            by_name: std::sync::OnceLock::new(),
        }
    }
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.nets == other.nets && self.devices == other.devices
    }
}

impl Eq for Netlist {}

impl Netlist {
    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// A device by id.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// Finds the net that has `name` among its aliases.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name
            .get_or_init(|| {
                let mut map = HashMap::new();
                for (i, net) in self.nets.iter().enumerate() {
                    for a in &net.aliases {
                        map.insert(a.clone(), NetId(i as u32));
                    }
                }
                map
            })
            .get(name)
            .copied()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Takes the net list apart **by value**, so a caller that owns it
    /// can move nets and devices into a successor instead of cloning
    /// their strings (the edit session's splice —
    /// `diic_core::netgen::NetParts::splice`).
    pub fn into_parts(self) -> (Vec<Net>, Vec<Device>) {
        (self.nets, self.devices)
    }

    /// Reassembles a net list from parts that are **already in
    /// canonical form** — nets ordered by canonical name with sorted
    /// aliases, every `NetId` / `DeviceId` back-reference an index
    /// into these very vectors, terminals in device order. Nothing is
    /// re-derived or checked here; [`assemble_netlist`] is the
    /// reference construction a spliced list must equal.
    pub fn from_parts(nets: Vec<Net>, devices: Vec<Device>) -> Netlist {
        Netlist {
            nets,
            devices,
            by_name: std::sync::OnceLock::new(),
        }
    }
}

/// A device staged in the builder: path, type, class, and terminal
/// `(name, interned net key)` pairs.
type StagedDevice = (String, String, DeviceClass, Vec<(String, u32)>);

/// A device staged for [`assemble_netlist`], borrowing its strings.
#[derive(Debug, Clone)]
pub struct AssembleDevice<'a> {
    /// Instance path (dot notation).
    pub name: &'a str,
    /// The `9D` type name.
    pub device_type: &'a str,
    /// Electrical class.
    pub class: DeviceClass,
    /// `(terminal-name, node)` pairs.
    pub terminals: Vec<(&'a str, u32)>,
}

/// The canonical nets of a node graph, **without terminals**, plus
/// the per-node net resolution (aligned with `nodes`): the connected
/// components, each named by its shortest (then lexicographically
/// smallest) alias, aliases sorted, nets ordered by canonical name.
///
/// This is the one place the naming and ordering rules live.
/// [`assemble_netlist`] runs it over the whole graph; the edit
/// session's splice runs it over the affected components only and
/// merges the result into the nets it kept. Node ids may be sparse —
/// every edge endpoint must appear in `nodes`.
pub fn canonical_nets(nodes: &[(u32, &str)], edges: &[(u32, u32)]) -> (Vec<Net>, Vec<NetId>) {
    let (nets, node_nets, _) = components(nodes, edges);
    (nets, node_nets)
}

/// [`canonical_nets`] plus the dense node-id → position-in-`nodes`
/// table it resolved edges through (`u32::MAX` for absent ids).
fn components(nodes: &[(u32, &str)], edges: &[(u32, u32)]) -> (Vec<Net>, Vec<NetId>, Vec<u32>) {
    // Dense remap so union-find stays compact under sparse node ids.
    let max_node = nodes.iter().map(|&(n, _)| n).max().map_or(0, |n| n + 1);
    let mut dense: Vec<u32> = vec![u32::MAX; max_node as usize];
    let mut uf = UnionFind::new();
    for (node, _) in nodes {
        dense[*node as usize] = uf.make();
    }
    for (a, b) in edges {
        uf.union(dense[*a as usize], dense[*b as usize]);
    }

    // Group aliases by component root (dense root ids index a Vec).
    let mut groups: Vec<Vec<&str>> = vec![Vec::new(); nodes.len()];
    for (node, name) in nodes {
        groups[uf.find(dense[*node as usize]) as usize].push(name);
    }
    // Deterministic net order: by canonical (shortest, then smallest)
    // alias.
    let mut roots: Vec<(&str, u32, Vec<&str>)> = groups
        .into_iter()
        .enumerate()
        .filter(|(_, aliases)| !aliases.is_empty())
        .map(|(root, aliases)| {
            let canon = *aliases
                .iter()
                .min_by_key(|a| (a.len(), **a))
                .expect("group is non-empty");
            (canon, root as u32, aliases)
        })
        .collect();
    roots.sort_unstable_by(|a, b| a.0.cmp(b.0));

    let mut root_to_net: Vec<NetId> = vec![NetId(u32::MAX); uf.len()];
    let mut nets: Vec<Net> = Vec::with_capacity(roots.len());
    for (canon, root, mut aliases) in roots {
        let id = NetId(nets.len() as u32);
        aliases.sort_unstable();
        root_to_net[root as usize] = id;
        nets.push(Net {
            name: canon.to_string(),
            aliases: aliases.into_iter().map(str::to_string).collect(),
            terminals: Vec::new(),
        });
    }

    let node_nets: Vec<NetId> = nodes
        .iter()
        .map(|&(node, _)| root_to_net[uf.find(dense[node as usize]) as usize])
        .collect();
    (nets, node_nets, dense)
}

/// Assembles a canonical [`Netlist`] from an explicit node/edge/device
/// graph, returning it together with the per-node net resolution
/// (aligned with the `nodes` slice).
///
/// This is the single **from-scratch** canonicalisation:
/// [`NetlistBuilder::finish`] is a thin wrapper over it, and the batch
/// engine, an edit session's open and its full-rebuild fallback all
/// call it with a persistently interned graph. A session's ordinary
/// edits splice instead (`diic_core::netgen::NetParts::splice`: the
/// same [`canonical_nets`] over the affected components, everything
/// else moved across through [`Netlist::into_parts`] /
/// [`Netlist::from_parts`]) and in debug builds assert the spliced list
/// equal to this function's — a pure function of (live nodes,
/// connectivity, devices) — which is why a patched session net list is
/// byte-identical to a from-scratch build.
///
/// Canonical form: nets are the connected components of the node graph;
/// a net's canonical name is its shortest (then lexicographically
/// smallest) alias; `aliases` are sorted; nets are ordered by canonical
/// name; terminals appear in device order. Node ids may be sparse —
/// edge/terminal endpoints must all appear in `nodes`.
pub fn assemble_netlist(
    nodes: &[(u32, &str)],
    edges: &[(u32, u32)],
    devices: &[AssembleDevice<'_>],
) -> (Netlist, Vec<NetId>) {
    let (mut nets, node_nets, dense) = components(nodes, edges);

    let mut out_devices: Vec<Device> = Vec::with_capacity(devices.len());
    for (di, dev) in devices.iter().enumerate() {
        let mut terminals = Vec::with_capacity(dev.terminals.len());
        for (tname, node) in &dev.terminals {
            let net = node_nets[dense[*node as usize] as usize];
            nets[net.0 as usize]
                .terminals
                .push((DeviceId(di as u32), (*tname).to_string()));
            terminals.push(((*tname).to_string(), net));
        }
        out_devices.push(Device {
            name: dev.name.to_string(),
            device_type: dev.device_type.to_string(),
            class: dev.class,
            terminals,
        });
    }

    (Netlist::from_parts(nets, out_devices), node_nets)
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
        let devices: Vec<AssembleDevice<'_>> = self
            .devices
            .iter()
            .map(|(name, device_type, class, terms)| AssembleDevice {
                name,
                device_type,
                class: *class,
                terminals: terms.iter().map(|(t, n)| (t.as_str(), *n)).collect(),
            })
            .collect();
        assemble_netlist(&nodes, &self.edges, &devices).0
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
        assert_eq!(n.net(out).terminals.len(), 3);
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
        assert_eq!(n.net(id).name, "x"); // shortest alias wins
        assert_eq!(n.net(id).aliases.len(), 3);
    }

    #[test]
    fn canonical_name_prefers_short_toplevel() {
        let mut b = NetlistBuilder::new();
        b.connect("i3.i2.vdd", "VDD");
        let n = b.finish();
        assert_eq!(n.net(NetId(0)).name, "VDD");
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
        assert_eq!(net.terminals.len(), 2);
    }

    #[test]
    fn deterministic_order() {
        let a = inverter_netlist();
        let b = inverter_netlist();
        assert_eq!(a, b);
    }
}
