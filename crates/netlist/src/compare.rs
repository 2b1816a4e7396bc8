//! Net-list consistency checking.
//!
//! "With this hierarchical net list available, it is now possible \[...\]
//! to check the net list against an input net list for consistency."
//!
//! Two comparison modes:
//!
//! * [`compare_by_names`] — when extracted and intended net lists share net
//!   names (aliases), report per-name discrepancies directly;
//! * [`compare_by_structure`] — name-independent graph-isomorphism-style
//!   matching by iterative colour refinement (the approach later made
//!   famous by Gemini \[Ebeling & Zajicek\]): devices and nets are
//!   alternately re-coloured by their neighbourhoods until stable, then
//!   colour multisets are compared.

use crate::graph::Netlist;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Result of a net-list comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistDiff {
    /// True if the net lists were found consistent.
    pub matched: bool,
    /// Human-readable discrepancies (empty when matched).
    pub messages: Vec<String>,
}

impl NetlistDiff {
    fn ok() -> Self {
        NetlistDiff {
            matched: true,
            messages: Vec::new(),
        }
    }
}

/// Compares two net lists by shared net names.
///
/// For every named net present in either list, the device-type multiset of
/// attached terminals must agree. Reports nets missing from one side and
/// nets with differing connectivity.
pub fn compare_by_names(extracted: &Netlist, intended: &Netlist) -> NetlistDiff {
    let mut diff = NetlistDiff::ok();
    let sig = |n: &Netlist, id: crate::graph::NetId| -> Vec<String> {
        let mut v: Vec<String> = n
            .net(id)
            .terminals()
            .map(|(d, t)| format!("{}:{}", n.device(d).device_type(), t))
            .collect();
        v.sort();
        v
    };
    let mut names: Vec<&str> = extracted
        .nets()
        .chain(intended.nets())
        .map(|n| n.name())
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        match (extracted.net_by_name(name), intended.net_by_name(name)) {
            (Some(e), Some(i)) => {
                let se = sig(extracted, e);
                let si = sig(intended, i);
                if se != si {
                    diff.matched = false;
                    diff.messages.push(format!(
                        "net '{name}': extracted connections {se:?} != intended {si:?}"
                    ));
                }
            }
            (Some(_), None) => {
                diff.matched = false;
                diff.messages
                    .push(format!("net '{name}' extracted but not intended"));
            }
            (None, Some(_)) => {
                diff.matched = false;
                diff.messages
                    .push(format!("net '{name}' intended but not extracted"));
            }
            (None, None) => unreachable!("name came from one of the lists"),
        }
    }
    diff
}

/// Compares two net lists structurally by iterative colour refinement.
///
/// Initial device colour = device type; initial net colour = terminal
/// count. Each round, a device's colour absorbs the colours of its nets by
/// terminal name, and a net's colour absorbs the (device colour, terminal
/// name) multiset. After `rounds` iterations (or stabilisation) the colour
/// multisets of the two net lists must be equal. This is sound (isomorphic
/// lists always match) and exact on all layouts without symmetric
/// ambiguities.
pub fn compare_by_structure(a: &Netlist, b: &Netlist, rounds: usize) -> NetlistDiff {
    if a.device_count() != b.device_count() {
        return NetlistDiff {
            matched: false,
            messages: vec![format!(
                "device counts differ: {} vs {}",
                a.device_count(),
                b.device_count()
            )],
        };
    }
    if a.net_count() != b.net_count() {
        return NetlistDiff {
            matched: false,
            messages: vec![format!(
                "net counts differ: {} vs {}",
                a.net_count(),
                b.net_count()
            )],
        };
    }
    let ca = refine(a, rounds);
    let cb = refine(b, rounds);
    let mut msgs = Vec::new();
    if multiset(&ca.devices) != multiset(&cb.devices) {
        msgs.push(describe_mismatch(a, b, &ca.devices, &cb.devices));
    }
    if multiset(&ca.nets) != multiset(&cb.nets) {
        msgs.push("net neighbourhood signatures differ".to_string());
    }
    NetlistDiff {
        matched: msgs.is_empty(),
        messages: msgs,
    }
}

struct Colors {
    devices: Vec<u64>,
    nets: Vec<u64>,
}

fn refine(n: &Netlist, rounds: usize) -> Colors {
    let mut dev: Vec<u64> = n.devices().map(|d| hash_one(&d.device_type())).collect();
    let mut net: Vec<u64> = n.nets().map(|x| hash_one(&x.terminals().len())).collect();
    for _ in 0..rounds {
        let new_net: Vec<u64> = n
            .nets()
            .enumerate()
            .map(|(i, x)| {
                let mut parts: Vec<u64> = x
                    .terminals()
                    .map(|(d, t)| hash_one(&(dev[d.0 as usize], t)))
                    .collect();
                parts.sort_unstable();
                hash_one(&(net[i], parts))
            })
            .collect();
        let new_dev: Vec<u64> = n
            .devices()
            .enumerate()
            .map(|(i, d)| {
                let mut parts: Vec<u64> = d
                    .terminals()
                    .map(|(t, x)| hash_one(&(t, net[x.0 as usize])))
                    .collect();
                parts.sort_unstable();
                hash_one(&(dev[i], parts))
            })
            .collect();
        if new_dev == dev && new_net == net {
            break;
        }
        dev = new_dev;
        net = new_net;
    }
    Colors {
        devices: dev,
        nets: net,
    }
}

fn hash_one<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

fn multiset(v: &[u64]) -> HashMap<u64, usize> {
    let mut m = HashMap::new();
    for &x in v {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

fn describe_mismatch(a: &Netlist, b: &Netlist, ca: &[u64], cb: &[u64]) -> String {
    let ma = multiset(ca);
    let mb = multiset(cb);
    // Name a device whose colour has no counterpart.
    for (i, c) in ca.iter().enumerate() {
        if ma.get(c) != mb.get(c) {
            return format!(
                "device '{}' ({}) has no structural counterpart",
                a.device(crate::graph::DeviceId(i as u32)).name(),
                a.device(crate::graph::DeviceId(i as u32)).device_type()
            );
        }
    }
    for (i, c) in cb.iter().enumerate() {
        if mb.get(c) != ma.get(c) {
            return format!(
                "device '{}' ({}) has no structural counterpart",
                b.device(crate::graph::DeviceId(i as u32)).name(),
                b.device(crate::graph::DeviceId(i as u32)).device_type()
            );
        }
    }
    "device neighbourhood signatures differ".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetlistBuilder;
    use diic_tech::DeviceClass;

    fn inverter(names: [&str; 4]) -> Netlist {
        let [vdd, gnd, input, output] = names;
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pu",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", output), ("S", output), ("D", vdd)],
        );
        b.add_device(
            "pd",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", input), ("S", gnd), ("D", output)],
        );
        b.finish()
    }

    #[test]
    fn identical_netlists_match_by_names() {
        let a = inverter(["VDD", "GND", "in", "out"]);
        let b = inverter(["VDD", "GND", "in", "out"]);
        let d = compare_by_names(&a, &b);
        assert!(d.matched, "{:?}", d.messages);
    }

    #[test]
    fn renamed_nets_fail_by_names_but_match_by_structure() {
        let a = inverter(["VDD", "GND", "in", "out"]);
        let b = inverter(["VDD", "GND", "a", "y"]);
        assert!(!compare_by_names(&a, &b).matched);
        let d = compare_by_structure(&a, &b, 8);
        assert!(d.matched, "{:?}", d.messages);
    }

    #[test]
    fn missing_connection_detected_structurally() {
        let a = inverter(["VDD", "GND", "in", "out"]);
        // Broken inverter: pull-down source floats instead of GND.
        let mut bb = NetlistBuilder::new();
        bb.add_device(
            "pu",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", "out"), ("S", "out"), ("D", "VDD")],
        );
        bb.add_device(
            "pd",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "in"), ("S", "float"), ("D", "out")],
        );
        // Add a GND net so counts match.
        bb.node("GND");
        let b = bb.finish();
        let d = compare_by_structure(&a, &b, 8);
        assert!(!d.matched);
        assert!(!d.messages.is_empty());
    }

    #[test]
    fn swapped_terminals_detected() {
        let a = inverter(["VDD", "GND", "in", "out"]);
        // Gate and drain swapped on the pull-down.
        let mut bb = NetlistBuilder::new();
        bb.add_device(
            "pu",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", "out"), ("S", "out"), ("D", "VDD")],
        );
        bb.add_device(
            "pd",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "out"), ("S", "GND"), ("D", "in")],
        );
        let b = bb.finish();
        let d = compare_by_structure(&a, &b, 8);
        assert!(!d.matched);
    }

    #[test]
    fn count_mismatch_short_circuits() {
        let a = inverter(["VDD", "GND", "in", "out"]);
        let mut bb = NetlistBuilder::new();
        bb.add_device(
            "only",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "in"), ("S", "GND"), ("D", "out")],
        );
        let b = bb.finish();
        let d = compare_by_structure(&a, &b, 8);
        assert!(!d.matched);
        assert!(d.messages[0].contains("device counts differ"));
    }

    #[test]
    fn name_comparison_reports_each_side() {
        let a = inverter(["VDD", "GND", "in", "out"]);
        let b = inverter(["VDD", "GND", "in2", "out"]);
        let d = compare_by_names(&a, &b);
        assert!(!d.matched);
        assert!(d
            .messages
            .iter()
            .any(|m| m.contains("extracted but not intended")));
        assert!(d
            .messages
            .iter()
            .any(|m| m.contains("intended but not extracted")));
    }

    #[test]
    fn larger_chain_matches_structurally() {
        let chain = |prefix: &str| {
            let mut b = NetlistBuilder::new();
            for i in 0..8 {
                let input = format!("{prefix}n{i}");
                let output = format!("{prefix}n{}", i + 1);
                b.add_device(
                    &format!("inv{i}"),
                    "NMOS_ENH",
                    DeviceClass::MosEnhancement,
                    &[("G", input.as_str()), ("S", "GND"), ("D", output.as_str())],
                );
                b.add_device(
                    &format!("pu{i}"),
                    "NMOS_DEP",
                    DeviceClass::MosDepletion,
                    &[("G", output.as_str()), ("S", output.as_str()), ("D", "VDD")],
                );
            }
            b.finish()
        };
        let d = compare_by_structure(&chain("a_"), &chain("b_"), 12);
        assert!(d.matched, "{:?}", d.messages);
    }
}
