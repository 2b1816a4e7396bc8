//! Non-geometric construction rules (the paper's fourth rule category).
//!
//! "1.) A net must have at least two 'devices' on it.
//!  2.) Power and ground must not be shorted.
//!  3.) A 'bus' may not connect to power or ground.
//!  4.) A depletion device may not connect to ground."

use crate::graph::{NetId, Netlist};
use diic_tech::{DeviceClass, Technology};

/// Which of the paper's four composition rules fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErcRule {
    /// A net with fewer than two device terminals.
    DanglingNet,
    /// Power and ground on the same net.
    PowerGroundShort,
    /// A bus net connected to power or ground.
    BusToRail,
    /// A depletion device terminal on a ground net.
    DepletionToGround,
}

impl std::fmt::Display for ErcRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErcRule::DanglingNet => write!(f, "net must have at least two devices on it"),
            ErcRule::PowerGroundShort => write!(f, "power and ground must not be shorted"),
            ErcRule::BusToRail => write!(f, "a bus may not connect to power or ground"),
            ErcRule::DepletionToGround => write!(f, "a depletion device may not connect to ground"),
        }
    }
}

/// An electrical-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErcViolation {
    /// The rule that fired.
    pub rule: ErcRule,
    /// The offending net.
    pub net: NetId,
    /// Human-readable details (net name, aliases involved).
    pub detail: String,
}

impl std::fmt::Display for ErcViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.rule, self.detail)
    }
}

/// Checks the four composition rules against a net list: [`check_erc_net`]
/// over every net, in net order.
pub fn check_erc(netlist: &Netlist, tech: &Technology) -> Vec<ErcViolation> {
    let mut out = Vec::new();
    for net in netlist.nets() {
        check_erc_net(netlist, net.id(), tech, &mut out);
    }
    out
}

/// Checks the four composition rules against one net of a net list,
/// appending what fires to `out`.
///
/// Every rule is a predicate of the net alone — its name, aliases,
/// terminals and the classes of the devices on them — so a caller that
/// knows which nets changed (an edit session's net-list splice) re-runs
/// only those. Net classification (power / ground / bus) comes from the
/// technology's naming configuration and considers **all aliases** of a
/// net — a net is a power net if any alias names it so.
pub fn check_erc_net(netlist: &Netlist, id: NetId, tech: &Technology, out: &mut Vec<ErcViolation>) {
    let net = netlist.net(id);
    // Auto net keys (checker-internal `#…` placeholders for undeclared
    // geometry) are not designer names and never classify a net — only
    // declared aliases are consulted. Besides being the right
    // semantics (an auto key that happens to embed an `IO_`-named
    // instance path must not exempt a dangling net), this skips the
    // bulk of a big chip's aliases. One pass over the aliases answers
    // all four questions: each alias is sliced out of the list's text
    // once.
    let (mut is_power, mut is_ground, mut is_io) = (false, false, false);
    let mut bus_alias = None;
    let named = net.aliases().filter(|a| !a.starts_with('#'));
    for a in named.map(local_name) {
        is_power |= tech.is_power(a);
        is_ground |= tech.is_ground(a);
        is_io |= tech.is_io(a);
        if bus_alias.is_none() && tech.is_bus(a) {
            bus_alias = Some(a);
        }
    }

    // Rule 2: power/ground short.
    if is_power && is_ground {
        out.push(ErcViolation {
            rule: ErcRule::PowerGroundShort,
            net: id,
            detail: format!("net '{}' carries both power and ground aliases", net.name()),
        });
    }

    // Rule 3: bus to rail.
    if let Some(bus) = bus_alias {
        if is_power || is_ground {
            out.push(ErcViolation {
                rule: ErcRule::BusToRail,
                net: id,
                detail: format!(
                    "bus '{bus}' is connected to {} net '{}'",
                    if is_power { "power" } else { "ground" },
                    net.name()
                ),
            });
        }
    }

    // Rule 1: dangling net. Power/ground rails and chip I/O ports are
    // exempt — they connect off chip; the paper's rule is about internal
    // signal nets.
    if !is_power && !is_ground && !is_io && net.terminals().len() < 2 {
        out.push(ErcViolation {
            rule: ErcRule::DanglingNet,
            net: id,
            detail: format!(
                "net '{}' has {} device terminal(s)",
                net.name(),
                net.terminals().len()
            ),
        });
    }

    // Rule 4: depletion device to ground.
    if is_ground {
        for (dev_id, term) in net.terminals() {
            let dev = netlist.device(dev_id);
            if dev.class() == DeviceClass::MosDepletion {
                out.push(ErcViolation {
                    rule: ErcRule::DepletionToGround,
                    net: id,
                    detail: format!(
                        "depletion device '{}' terminal {} on ground net '{}'",
                        dev.name(),
                        term,
                        net.name()
                    ),
                });
            }
        }
    }
}

/// The local (last) component of a dot-notation alias: `a.b.VDD` → `VDD`.
fn local_name(alias: &str) -> &str {
    alias.rsplit('.').next().unwrap_or(alias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetlistBuilder;
    use diic_tech::nmos::nmos_technology;

    fn rules_fired(n: &Netlist) -> Vec<ErcRule> {
        let tech = nmos_technology();
        check_erc(n, &tech).into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_inverter_passes() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pu",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", "out"), ("S", "out"), ("D", "VDD")],
        );
        b.add_device(
            "pd",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "in"), ("S", "GND"), ("D", "out")],
        );
        // `in` would dangle with one terminal; feed it from another device.
        b.add_device(
            "drv",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "x"), ("S", "y"), ("D", "in")],
        );
        b.add_device(
            "load",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "y"), ("S", "x"), ("D", "q")],
        );
        b.add_device(
            "load2",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "q"), ("S", "out"), ("D", "VDD")],
        );
        let n = b.finish();
        assert!(rules_fired(&n).is_empty(), "got {:?}", rules_fired(&n));
    }

    #[test]
    fn dangling_net_detected() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "t",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "floats"), ("S", "GND"), ("D", "VDD")],
        );
        let fired = rules_fired(&b.finish());
        assert!(fired.contains(&ErcRule::DanglingNet));
    }

    #[test]
    fn power_ground_short_detected() {
        let mut b = NetlistBuilder::new();
        b.connect("VDD", "GND");
        let fired = rules_fired(&b.finish());
        assert!(fired.contains(&ErcRule::PowerGroundShort));
    }

    #[test]
    fn hierarchical_power_alias_detected() {
        // A deep instance's local VDD merged with top-level GND.
        let mut b = NetlistBuilder::new();
        b.connect("i1.i3.VDD", "GND");
        let fired = rules_fired(&b.finish());
        assert!(fired.contains(&ErcRule::PowerGroundShort));
    }

    #[test]
    fn bus_to_rail_detected() {
        let mut b = NetlistBuilder::new();
        b.connect("BUS_DATA0", "VDD");
        let fired = rules_fired(&b.finish());
        assert!(fired.contains(&ErcRule::BusToRail));
        let mut b2 = NetlistBuilder::new();
        b2.connect("BUS_DATA0", "GND");
        assert!(rules_fired(&b2.finish()).contains(&ErcRule::BusToRail));
    }

    #[test]
    fn depletion_to_ground_detected() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pu",
            "NMOS_DEP",
            DeviceClass::MosDepletion,
            &[("G", "out"), ("S", "out"), ("D", "GND")],
        );
        let fired = rules_fired(&b.finish());
        assert!(fired.contains(&ErcRule::DepletionToGround));
    }

    #[test]
    fn enhancement_to_ground_is_fine() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pd",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "a"), ("S", "GND"), ("D", "b")],
        );
        b.add_device(
            "pd2",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "b"), ("S", "GND"), ("D", "a")],
        );
        let fired = rules_fired(&b.finish());
        assert!(!fired.contains(&ErcRule::DepletionToGround));
    }

    #[test]
    fn rails_exempt_from_dangling() {
        let mut b = NetlistBuilder::new();
        b.add_device(
            "pu",
            "NMOS_ENH",
            DeviceClass::MosEnhancement,
            &[("G", "a"), ("S", "a"), ("D", "VDD")],
        );
        let fired = rules_fired(&b.finish());
        assert!(!fired.contains(&ErcRule::DanglingNet));
        // VDD with one terminal must not fire DanglingNet:
        let tech = nmos_technology();
        let n = {
            let mut b = NetlistBuilder::new();
            b.add_device(
                "pu",
                "NMOS_ENH",
                DeviceClass::MosEnhancement,
                &[("G", "a"), ("S", "a"), ("D", "VDD")],
            );
            b.finish()
        };
        let v = check_erc(&n, &tech);
        assert!(v
            .iter()
            .all(|v| !(v.rule == ErcRule::DanglingNet && n.net(v.net).name() == "VDD")));
    }
}
