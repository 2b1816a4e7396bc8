//! Property tests for net-list construction and comparison.

use diic_netlist::{
    assemble_netlist, canonical_nets, compare_by_structure, AssembleDevice, DeviceId, NetId,
    Netlist, NetlistBuilder, UnionFind,
};
use diic_tech::DeviceClass;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_find_partitions(merges in proptest::collection::vec((0u32..20, 0u32..20), 0..40)) {
        let mut uf = UnionFind::new();
        for _ in 0..20 {
            uf.make();
        }
        for &(a, b) in &merges {
            uf.union(a, b);
        }
        // Reflexive, symmetric, transitive via representative equality.
        for i in 0..20 {
            prop_assert!(uf.same(i, i));
        }
        for &(a, b) in &merges {
            prop_assert!(uf.same(a, b));
        }
        // Set count + singletons consistency.
        let sets = uf.set_count();
        prop_assert!(sets <= 20);
        prop_assert!(sets >= 1);
    }

    #[test]
    fn connect_is_order_independent(pairs in proptest::collection::vec((0u8..12, 0u8..12), 1..20)) {
        let build = |order: &[(u8, u8)]| {
            let mut b = NetlistBuilder::new();
            for i in 0..12u8 {
                b.node(&format!("n{i}"));
            }
            for &(x, y) in order {
                b.connect(&format!("n{x}"), &format!("n{y}"));
            }
            b.finish()
        };
        let forward = build(&pairs);
        let mut reversed = pairs.clone();
        reversed.reverse();
        let backward = build(&reversed);
        prop_assert_eq!(forward.net_count(), backward.net_count());
        // Same partitions: identical alias groupings.
        for net in forward.nets() {
            let id = backward.net_by_name(net.name()).unwrap();
            prop_assert!(net.aliases().eq(backward.net(id).aliases()));
        }
    }

    #[test]
    fn structural_compare_is_reflexive(n in 1usize..10, seed in 0u64..1000) {
        // A pseudo-random netlist must always match itself.
        let mut b1 = NetlistBuilder::new();
        let mut b2 = NetlistBuilder::new();
        for i in 0..n {
            let g = format!("g{}", (seed as usize + i * 7) % n);
            let d = format!("d{}", (seed as usize + i * 13) % n);
            for b in [&mut b1, &mut b2] {
                b.add_device(
                    &format!("t{i}"),
                    "NMOS_ENH",
                    DeviceClass::MosEnhancement,
                    &[("G", g.as_str()), ("S", "GND"), ("D", d.as_str())],
                );
            }
        }
        let a = b1.finish();
        let b = b2.finish();
        let d = compare_by_structure(&a, &b, 10);
        prop_assert!(d.matched, "{:?}", d.messages);
    }

    #[test]
    fn structural_compare_detects_retyping(n in 2usize..8) {
        // Changing one device's type must break the match.
        let build = |bad: Option<usize>| {
            let mut b = NetlistBuilder::new();
            for i in 0..n {
                let ty = if bad == Some(i) { "NMOS_DEP" } else { "NMOS_ENH" };
                let class = if bad == Some(i) {
                    DeviceClass::MosDepletion
                } else {
                    DeviceClass::MosEnhancement
                };
                b.add_device(
                    &format!("t{i}"),
                    ty,
                    class,
                    &[
                        ("G", format!("n{i}").as_str()),
                        ("S", "GND"),
                        ("D", format!("n{}", i + 1).as_str()),
                    ],
                );
            }
            b.finish()
        };
        let good = build(None);
        let bad = build(Some(0));
        let d = compare_by_structure(&good, &bad, 10);
        prop_assert!(!d.matched);
    }

    #[test]
    fn canonical_name_is_shortest(aliases in proptest::collection::vec("[a-z]{1,8}", 1..6)) {
        let mut b = NetlistBuilder::new();
        for w in aliases.windows(2) {
            b.connect(&w[0], &w[1]);
        }
        if aliases.len() == 1 {
            b.node(&aliases[0]);
        }
        let n = b.finish();
        // All aliases collapse into one net whose canonical name is the
        // shortest (ties broken lexicographically).
        let mut unique: Vec<String> = aliases.clone();
        unique.sort();
        unique.dedup();
        let expect = unique
            .iter()
            .min_by_key(|s| (s.len(), s.as_str()))
            .unwrap();
        prop_assert_eq!(n.net_count(), 1);
        prop_assert_eq!(n.net(NetId(0)).name(), expect);
    }
}

/// A device of a [`Graph`]: `(name, type, class, [(terminal, node)])`.
type GraphDevice = (String, &'static str, DeviceClass, Vec<(&'static str, u32)>);

/// A net of an [`Expected`] list: aliases (sorted) and `(device,
/// terminal)` pairs.
type ExpectedNet = (BTreeSet<String>, Vec<(u32, &'static str)>);

/// A random node / edge / device graph the way the checker hands one to
/// [`assemble_netlist`]: sparse node ids in no particular order, every
/// node name distinct, edges and terminals between known nodes.
struct Graph {
    nodes: Vec<(u32, String)>,
    edges: Vec<(u32, u32)>,
    devices: Vec<GraphDevice>,
}

impl Graph {
    fn random(rng: &mut TestRng) -> Graph {
        const PIECES: [&str; 8] = ["a", "b", ".", "#", "é", "日", "VDD", "i0"];
        const TYPES: [(&str, DeviceClass); 3] = [
            ("NMOS_ENH", DeviceClass::MosEnhancement),
            ("NMOS_DEP", DeviceClass::MosDepletion),
            ("CONTACT_D", DeviceClass::Contact),
        ];
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        let mut names = BTreeSet::new();
        let mut ids = BTreeSet::new();
        for _ in 0..1 + pick(rng, 24) {
            let name: String = (0..1 + pick(rng, 4))
                .map(|_| PIECES[pick(rng, PIECES.len())])
                .collect();
            names.insert(name);
            ids.insert(rng.below(400) as u32);
        }
        // Pair names with ids in an order of neither.
        let mut nodes: Vec<(u32, String)> = ids.into_iter().zip(names).collect();
        for k in (1..nodes.len()).rev() {
            nodes.swap(k, pick(rng, k + 1));
        }
        let node = |rng: &mut TestRng| nodes[pick(rng, nodes.len())].0;
        let edges = (0..pick(rng, nodes.len() + 2))
            .map(|_| (node(rng), node(rng)))
            .collect();
        let devices = (0..pick(rng, 8))
            .map(|k| {
                let (ty, class) = TYPES[pick(rng, 3)];
                let terminals = (0..pick(rng, 5))
                    .map(|_| (["G", "S", "D", "A"][pick(rng, 4)], node(rng)))
                    .collect();
                (format!("i{}.t{k}", pick(rng, 3)), ty, class, terminals)
            })
            .collect();
        Graph {
            nodes,
            edges,
            devices,
        }
    }

    fn assemble(&self) -> (Netlist, Vec<NetId>) {
        let nodes: Vec<(u32, &str)> = (self.nodes.iter())
            .map(|(id, name)| (*id, name.as_str()))
            .collect();
        let devices = (self.devices.iter()).map(|(name, ty, class, terminals)| AssembleDevice {
            name,
            device_type: ty,
            class: *class,
            terminals: terminals.iter().copied(),
        });
        assemble_netlist(&nodes, &self.edges, devices)
    }
}

/// What the net list of a [`Graph`] must be, worked out the slow way and
/// with nothing of `graph.rs`: components by flood fill over an
/// adjacency map, each net's aliases a sorted set, its name the shortest
/// then smallest of them, the nets in name order, terminals gathered
/// device by device.
struct Expected {
    nets: Vec<ExpectedNet>,
    /// Net index of each node id.
    net_of: BTreeMap<u32, usize>,
}

impl Expected {
    fn of(graph: &Graph) -> Expected {
        let mut adjacent: BTreeMap<u32, BTreeSet<u32>> = graph
            .nodes
            .iter()
            .map(|(id, _)| (*id, BTreeSet::new()))
            .collect();
        for &(a, b) in &graph.edges {
            adjacent.get_mut(&a).unwrap().insert(b);
            adjacent.get_mut(&b).unwrap().insert(a);
        }
        let name_of: BTreeMap<u32, &String> = graph.nodes.iter().map(|(id, n)| (*id, n)).collect();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut components: Vec<BTreeSet<u32>> = Vec::new();
        for &start in adjacent.keys() {
            if seen.contains(&start) {
                continue;
            }
            let mut component = BTreeSet::new();
            let mut frontier = vec![start];
            while let Some(node) = frontier.pop() {
                if component.insert(node) {
                    frontier.extend(&adjacent[&node]);
                }
            }
            seen.extend(&component);
            components.push(component);
        }
        let name = |component: &BTreeSet<u32>| {
            let aliases = component.iter().map(|id| name_of[id].clone());
            aliases
                .min_by_key(|alias| (alias.len(), alias.clone()))
                .unwrap()
        };
        components.sort_by_key(name);
        let net_of: BTreeMap<u32, usize> = (components.iter().enumerate())
            .flat_map(|(net, component)| component.iter().map(move |id| (*id, net)))
            .collect();
        let mut nets: Vec<ExpectedNet> = (components.iter())
            .map(|c| (c.iter().map(|id| name_of[id].clone()).collect(), Vec::new()))
            .collect();
        for (device, (_, _, _, terminals)) in graph.devices.iter().enumerate() {
            for &(terminal, node) in terminals {
                nets[net_of[&node]].1.push((device as u32, terminal));
            }
        }
        Expected { nets, net_of }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat net list against the naive one: every accessor, the
    /// per-node resolution, `net_by_name` for every alias, `Clone`, and
    /// equality — which is of content: the same list reached from a
    /// permuted graph is equal, a list that differs in one name, one
    /// terminal's net or one class is not.
    #[test]
    fn flat_net_list_matches_the_naive_one(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::for_case(seed, 0);
        let graph = Graph::random(rng);
        let want = Expected::of(&graph);
        let (list, node_nets) = graph.assemble();

        prop_assert_eq!(list.net_count(), want.nets.len());
        prop_assert_eq!(list.device_count(), graph.devices.len());
        prop_assert_eq!(list.alias_count(), graph.nodes.len());
        for (net, (aliases, terminals)) in list.nets().zip(&want.nets) {
            let name = aliases.iter().min_by_key(|a| (a.len(), a.as_str())).unwrap();
            prop_assert_eq!(net.name(), name);
            prop_assert!(net.aliases().eq(aliases.iter().map(String::as_str)));
            prop_assert_eq!(net.aliases().len(), aliases.len());
            prop_assert!(net.terminals().eq(terminals.iter().map(|&(d, t)| (DeviceId(d), t))));
            for alias in aliases {
                prop_assert_eq!(list.net_by_name(alias), Some(net.id()), "{:?}", alias);
            }
            prop_assert_eq!(list.net(net.id()).name(), net.name());
        }
        prop_assert!(list.nets().map(|n| n.name()).is_sorted());
        prop_assert_eq!(list.net_by_name("no such net"), None);
        for (device, (name, ty, class, terminals)) in list.devices().zip(&graph.devices) {
            prop_assert_eq!(device.name(), name);
            prop_assert_eq!(device.device_type(), *ty);
            prop_assert_eq!(device.class(), *class);
            let nets = terminals.iter().map(|&(t, node)| (t, NetId(want.net_of[&node] as u32)));
            prop_assert!(device.terminals().eq(nets));
            prop_assert_eq!(list.device(device.id()).name(), name);
        }
        for ((id, _), net) in graph.nodes.iter().zip(&node_nets) {
            prop_assert_eq!(net.0 as usize, want.net_of[id]);
        }
        let text: usize = graph.nodes.iter().map(|(_, name)| name.len()).sum::<usize>()
            + (graph.devices.iter())
                .map(|(name, ty, _, ts)| name.len() + ty.len() + ts.iter().map(|t| t.0.len()).sum::<usize>())
                .sum::<usize>();
        prop_assert_eq!(list.text_bytes(), text, "the text holds each name once and nothing else");

        // The nets alone are the same nets.
        let nodes: Vec<(u32, &str)> = graph.nodes.iter().map(|(id, n)| (*id, n.as_str())).collect();
        let (bare, bare_nets) = canonical_nets(&nodes, &graph.edges);
        prop_assert_eq!(&bare_nets, &node_nets);
        prop_assert_eq!(bare.device_count(), 0);
        for (a, b) in bare.nets().zip(list.nets()) {
            prop_assert!(a.aliases().eq(b.aliases()) && a.name() == b.name());
            prop_assert_eq!(a.terminals().len(), 0);
        }

        // A clone is equal and answers by name (its index is its own).
        let clone = list.clone();
        prop_assert_eq!(&clone, &list);
        let (_, probe) = &graph.nodes[0];
        prop_assert_eq!(clone.net_by_name(probe), list.net_by_name(probe));

        // Reached another way, the same list: from the graph with its
        // nodes, edges and edge ends the other way round.
        let mut mirrored = Graph {
            nodes: graph.nodes.iter().rev().cloned().collect(),
            edges: graph.edges.iter().rev().map(|&(a, b)| (b, a)).collect(),
            devices: graph.devices.clone(),
        };
        prop_assert_eq!(&mirrored.assemble().0, &list);

        // One difference in content is a difference.
        mirrored.nodes[0].1.push('~');
        prop_assert_ne!(&mirrored.assemble().0, &list, "an alias renamed");
        mirrored.nodes[0].1.pop();
        if !graph.devices.is_empty() {
            mirrored.devices[0].2 = DeviceClass::Resistor;
            prop_assert_ne!(&mirrored.assemble().0, &list, "a class changed");
            mirrored.devices[0].2 = graph.devices[0].2;
            mirrored.devices[0].1 = "OTHER";
            prop_assert_ne!(&mirrored.assemble().0, &list, "a type changed");
            mirrored.devices[0].1 = graph.devices[0].1;
        }
        if want.nets.len() > 1 {
            if let Some(terminal) = mirrored.devices.iter_mut().find_map(|d| d.3.first_mut()) {
                let elsewhere = graph.nodes.iter().find(|(id, _)| want.net_of[id] != want.net_of[&terminal.1]);
                terminal.1 = elsewhere.unwrap().0;
                prop_assert_ne!(&mirrored.assemble().0, &list, "a terminal moved to another net");
            }
        }
    }
}

/// One round of edits on a [`Graph`], the way an edit session's splice
/// sees them: some edges cut and some made, some devices dropped and
/// some inserted — or, one round in three, some replaced in place.
/// Returns the edited graph, per device of it its old id (`None`: new),
/// and the nodes the edits name.
fn edited(graph: &Graph, rng: &mut TestRng) -> (Graph, Vec<Option<usize>>, Vec<u32>) {
    let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
    let node = |rng: &mut TestRng| graph.nodes[pick(rng, graph.nodes.len())].0;
    let mut named = Vec::new();
    let mut edges = Vec::new();
    for &(a, b) in &graph.edges {
        match pick(rng, 4) {
            0 => named.extend([a, b]),
            _ => edges.push((a, b)),
        }
    }
    for _ in 0..pick(rng, 3) {
        let edge = (node(rng), node(rng));
        named.extend([edge.0, edge.1]);
        edges.push(edge);
    }
    let (mut devices, mut old_of_new) = (Vec::new(), Vec::new());
    let inserted = |rng: &mut TestRng, named: &mut Vec<u32>, k: usize| {
        let terminals: Vec<(&'static str, u32)> = (0..pick(rng, 4))
            .map(|_| (["G", "S", "D"][pick(rng, 3)], node(rng)))
            .collect();
        named.extend(terminals.iter().map(|&(_, n)| n));
        (
            format!("new.t{k}"),
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            terminals,
        )
    };
    // One round in three re-instantiates devices in place, as a moved
    // call does: every survivor keeps its id.
    let in_place = pick(rng, 3) == 0;
    for (old, device) in graph.devices.iter().enumerate() {
        if !in_place && pick(rng, 6) == 0 {
            devices.push(inserted(rng, &mut named, devices.len()));
            old_of_new.push(None);
        }
        if pick(rng, 5) == 0 {
            named.extend(device.3.iter().map(|&(_, n)| n));
            if in_place {
                devices.push(inserted(rng, &mut named, devices.len()));
                old_of_new.push(None);
            }
        } else {
            devices.push(device.clone());
            old_of_new.push(Some(old));
        }
    }
    for _ in 0..pick(rng, 2) * usize::from(!in_place) {
        devices.push(inserted(rng, &mut named, devices.len()));
        old_of_new.push(None);
    }
    let graph = Graph {
        nodes: graph.nodes.clone(),
        edges,
        devices,
    };
    (graph, old_of_new, named)
}

/// Patches the net list of a random graph through `rounds` rounds of
/// [`edited`] the way an edit session's splice does — the nets of the
/// named nodes retired, their components re-derived by
/// [`canonical_nets`] and merged in — and holds each patched list to a
/// from-scratch [`assemble_netlist`] of the same graph, through
/// `PartialEq` and `net_by_name`, and its text to at most twice the
/// live text. Returns how many patches compacted the text.
fn patch_rounds(seed: u64, rounds: usize) -> usize {
    let rng = &mut TestRng::for_case(seed, 0);
    let mut graph = Graph::random(rng);
    let (mut list, mut node_nets) = graph.assemble();
    let mut compactions = 0;
    for round in 0..rounds {
        let (next, old_of_new, named) = edited(&graph, rng);
        let net_of: BTreeMap<u32, NetId> = (graph.nodes.iter().map(|(id, _)| *id))
            .zip(node_nets.iter().copied())
            .collect();
        let mut retired: Vec<NetId> = named.iter().map(|node| net_of[node]).collect();
        retired.sort_unstable();
        retired.dedup();
        // Every node of a retired net is re-derived; the edges among
        // them are the edited graph's with an end there (both ends are).
        let nodes: Vec<(u32, &str)> = (next.nodes.iter())
            .filter(|(id, _)| retired.binary_search(&net_of[id]).is_ok())
            .map(|(id, name)| (*id, name.as_str()))
            .collect();
        let touched = |n: &u32| nodes.iter().any(|(id, _)| id == n);
        let edges: Vec<(u32, u32)> = (next.edges.iter().copied())
            .filter(|(a, b)| touched(a) || touched(b))
            .collect();
        prop_assert!(edges.iter().all(|(a, b)| touched(a) && touched(b)));
        let (fresh, fresh_nets) = canonical_nets(&nodes, &edges);
        let fresh_net =
            |node: u32| fresh_nets[nodes.iter().position(|(id, _)| *id == node).unwrap()];

        let before = list.clone();
        let text_before = list.text_bytes();
        let patched = list.patch(
            &retired,
            &fresh,
            &old_of_new,
            |d| {
                let (name, ty, class, terminals) = &next.devices[d.0 as usize];
                AssembleDevice {
                    name: name.as_str(),
                    device_type: ty,
                    class: *class,
                    terminals: terminals.iter().map(|&(t, node)| (t, fresh_net(node))),
                }
            },
            |d, k| fresh_net(next.devices[d.0 as usize].3[k].1),
        );
        let (want, want_nets) = next.assemble();
        prop_assert_eq!(&list, &want, "round {}", round);
        for (id, name) in &next.nodes {
            prop_assert_eq!(list.net_by_name(name), want.net_by_name(name), "{:?}", id);
        }
        // Every net of the patched list is a kept one, found by the key
        // it had and under its own name — across a text compaction too
        // — or a fresh one, under a key no net held before the patch.
        let mut landed = vec![0; want.net_count()];
        let mut keys_before: Vec<u32> = before.nets().map(|old| before.key_of(old.id())).collect();
        for old in before.nets() {
            let kept = list.net_of_key(before.key_of(old.id()));
            prop_assert_eq!(kept.is_none(), retired.binary_search(&old.id()).is_ok());
            if let Some(new) = kept {
                prop_assert_eq!(list.net(new).name(), old.name());
                landed[new.0 as usize] += 1;
            }
        }
        keys_before.sort_unstable();
        prop_assert_eq!(patched.fresh.len(), fresh.net_count());
        prop_assert!(patched.fresh.is_sorted());
        for (f, &new) in patched.fresh.iter().enumerate() {
            prop_assert_eq!(list.net(new).name(), fresh.net(NetId(f as u32)).name());
            prop_assert!(keys_before.binary_search(&list.key_of(new)).is_err());
            landed[new.0 as usize] += 1;
        }
        prop_assert!(landed.iter().all(|&n| n == 1));
        for net in list.nets() {
            prop_assert_eq!(list.net_of_key(list.key_of(net.id())), Some(net.id()));
        }
        prop_assert!(patched.rows_written >= fresh.alias_count());
        prop_assert!(
            list.text_bytes() <= 2 * want.text_bytes(),
            "garbage past the live text"
        );
        compactions += usize::from(list.text_bytes() < text_before);
        graph = next;
        node_nets = want_nets;
    }
    compactions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A list patched in place, round after round, equals the list
    /// assembled from scratch ([`patch_rounds`]).
    #[test]
    fn a_patched_list_equals_one_assembled_from_scratch(seed in 0u64..u64::MAX) {
        patch_rounds(seed, 12);
    }
}

#[test]
fn patch_rounds_cross_the_compaction_threshold() {
    // The property above is only as good as its rounds: over its first
    // seeds, the dropped text must pass the live text, and the list be
    // rewritten, many times.
    let compactions: usize = (0..64).map(|seed| patch_rounds(seed, 12)).sum();
    assert!(compactions > 32, "{compactions} compactions");
}
