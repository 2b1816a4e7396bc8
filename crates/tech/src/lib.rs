//! # diic-tech — technology descriptions and design rules for DIIC
//!
//! The paper (§"Design Rules") argues design rules should be organised not
//! by mask level but by:
//!
//! 1. legal **devices** and related rules,
//! 2. legal **interconnect**: width and connection rules,
//! 3. **interaction** rules between devices and interconnect,
//! 4. **non-geometric construction** rules.
//!
//! This crate encodes exactly that structure:
//!
//! * [`Layer`]/[`LayerKind`] — mask layers with interconnect width rules;
//! * [`RuleSet`] — the upper-triangular layer-pair **interaction matrix**
//!   of the paper's Fig. 12, each entry split into *same-net* /
//!   *different-net* / *device-related* subcases;
//! * [`DeviceArchetype`]/[`InternalRule`] — declared device types (the
//!   `9D` extension) with their internal construction rules (enclosure,
//!   extension, overlap-of-overlap, forbidden layers) and their
//!   device-dependent interaction overrides (the paper's Fig. 6:
//!   a base-to-isolation short is an error for a transistor but legal for
//!   a resistor tie);
//! * [`Technology`] — the bundle, plus non-geometric rule configuration
//!   (power/ground net names, bus prefix);
//! * [`deck`] — the textual rule language, so rules can "become
//!   increasingly more specific" without recompiling: a deck compiles to
//!   a [`Technology`], and it is the only place a technology is written;
//! * [`nmos::nmos_technology`] — a Mead–Conway λ-rule silicon-gate NMOS
//!   process (λ = 250 centimicrons = 2.5 µm), the process family the
//!   paper's examples use, compiled once from `decks/nmos.deck`;
//! * [`bipolar::bipolar_technology`] — a minimal bipolar process exercising
//!   the device-dependent rules of Fig. 6, compiled once from
//!   `decks/bipolar.deck`.

pub mod bipolar;
pub mod deck;
pub mod device;
pub mod layer;
pub mod nmos;
pub mod rules;

pub use device::{DeviceArchetype, DeviceClass, InteractionOverride, InternalRule};
pub use layer::{Layer, LayerId, LayerKind};
pub use rules::{RuleSet, SpacingRule};

use std::collections::HashMap;

/// A complete process technology: layers, rules, devices, ERC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Technology {
    name: String,
    lambda: i64,
    layers: Vec<Layer>,
    by_cif: HashMap<String, LayerId>,
    by_name: HashMap<String, LayerId>,
    rules: RuleSet,
    devices: HashMap<String, DeviceArchetype>,
    /// Net names treated as power for ERC.
    pub power_nets: Vec<String>,
    /// Net names treated as ground for ERC.
    pub ground_nets: Vec<String>,
    /// Net-name prefix identifying buses for ERC.
    pub bus_prefix: String,
    /// Net-name prefix identifying chip I/O ports, exempt from the
    /// dangling-net rule (ports connect off chip).
    pub io_prefix: String,
}

impl Technology {
    /// Creates an empty technology with the given name and λ (in database
    /// units).
    pub fn new(name: &str, lambda: i64) -> Self {
        Technology {
            name: name.to_string(),
            lambda,
            layers: Vec::new(),
            by_cif: HashMap::new(),
            by_name: HashMap::new(),
            rules: RuleSet::default(),
            devices: HashMap::new(),
            power_nets: vec!["VDD".to_string()],
            ground_nets: vec!["GND".to_string(), "VSS".to_string()],
            bus_prefix: "BUS_".to_string(),
            io_prefix: "IO_".to_string(),
        }
    }

    /// Technology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// λ in database units.
    pub fn lambda(&self) -> i64 {
        self.lambda
    }

    /// Adds a layer; returns its id.
    pub fn add_layer(&mut self, layer: Layer) -> LayerId {
        let id = LayerId(self.layers.len() as u16);
        self.by_cif.insert(layer.cif_name.clone(), id);
        self.by_name.insert(layer.name.clone(), id);
        self.layers.push(layer);
        id
    }

    /// All layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Layer by id.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.layers[id.0 as usize]
    }

    /// Looks up a layer by its CIF name (e.g. `ND`).
    pub fn layer_by_cif(&self, cif_name: &str) -> Option<LayerId> {
        self.by_cif.get(cif_name).copied()
    }

    /// Looks up a layer by its canonical name (e.g. `diff`).
    pub fn layer_by_name(&self, name: &str) -> Option<LayerId> {
        self.by_name.get(name).copied()
    }

    /// The interaction rule set (mutable access for construction).
    pub fn rules_mut(&mut self) -> &mut RuleSet {
        &mut self.rules
    }

    /// The interaction rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Registers a device archetype under its `9D` type name.
    pub fn add_device(&mut self, dev: DeviceArchetype) {
        self.devices.insert(dev.type_name.clone(), dev);
    }

    /// Looks up a device archetype by `9D` type name.
    pub fn device(&self, type_name: &str) -> Option<&DeviceArchetype> {
        self.devices.get(type_name)
    }

    /// All registered device archetypes (sorted by type name for
    /// deterministic iteration).
    pub fn devices(&self) -> Vec<&DeviceArchetype> {
        let mut v: Vec<&DeviceArchetype> = self.devices.values().collect();
        v.sort_by(|a, b| a.type_name.cmp(&b.type_name));
        v
    }

    /// True if `net` is a power net name.
    pub fn is_power(&self, net: &str) -> bool {
        self.power_nets.iter().any(|n| n == net)
    }

    /// True if `net` is a ground net name.
    pub fn is_ground(&self, net: &str) -> bool {
        self.ground_nets.iter().any(|n| n == net)
    }

    /// True if `net` is a bus by naming convention.
    pub fn is_bus(&self, net: &str) -> bool {
        net.starts_with(&self.bus_prefix)
    }

    /// True if `net` is a chip I/O port by naming convention.
    pub fn is_io(&self, net: &str) -> bool {
        net.starts_with(&self.io_prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technology_lookup() {
        let t = nmos::nmos_technology();
        assert_eq!(t.name(), "nmos");
        assert_eq!(t.lambda(), 250);
        let diff = t.layer_by_cif("ND").unwrap();
        assert_eq!(t.layer(diff).name, "diff");
        assert_eq!(t.layer_by_name("diff"), Some(diff));
        assert!(t.layer_by_cif("XX").is_none());
    }

    #[test]
    fn erc_net_classification() {
        let t = nmos::nmos_technology();
        assert!(t.is_power("VDD"));
        assert!(t.is_ground("GND"));
        assert!(t.is_ground("VSS"));
        assert!(t.is_bus("BUS_A"));
        assert!(!t.is_bus("A"));
        assert!(!t.is_power("GND"));
    }

    #[test]
    fn devices_sorted() {
        let t = nmos::nmos_technology();
        let names: Vec<&str> = t.devices().iter().map(|d| d.type_name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(!names.is_empty());
    }
}
