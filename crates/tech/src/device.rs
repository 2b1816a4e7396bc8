//! Device archetypes: declared device types and their rules.
//!
//! "We are requiring that all 'devices' or elemental symbols be called out
//! specifically and their type defined. Implied devices are not allowed."
//! — the paper, §"Structured Design".
//!
//! An archetype describes what a well-formed device of a given `9D` type
//! looks like (its internal construction rules, checked once per primitive
//! symbol) and how its elements interact with the outside world
//! (device-dependent interaction overrides — the paper's Fig. 6).

use crate::layer::LayerId;
use diic_geom::Coord;

/// Electrical class of a device type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Enhancement-mode MOS transistor.
    MosEnhancement,
    /// Depletion-mode MOS transistor (load).
    MosDepletion,
    /// Resistor (diffusion or base).
    Resistor,
    /// Simple contact (metal to poly or diffusion).
    Contact,
    /// Butting contact (poly + diffusion + cut + metal).
    ButtingContact,
    /// Buried contact (poly to diffusion via buried window).
    BuriedContact,
    /// Bipolar NPN transistor.
    BipolarNpn,
    /// Capacitor.
    Capacitor,
}

impl DeviceClass {
    /// True for transistors (devices whose gate/implant "cannot be assigned
    /// to a net" — the *related* interaction subcase of Fig. 12).
    pub fn is_transistor(self) -> bool {
        matches!(
            self,
            DeviceClass::MosEnhancement | DeviceClass::MosDepletion | DeviceClass::BipolarNpn
        )
    }
}

/// A device-internal construction rule, checked once per primitive symbol
/// (the paper's "check primitive symbols" stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InternalRule {
    /// Geometry on `inner` must be enclosed by geometry on `outer` with at
    /// least `margin` on every side (e.g. contact cut inside metal).
    Enclosure {
        /// The enclosed layer.
        inner: LayerId,
        /// The enclosing layer.
        outer: LayerId,
        /// Required margin.
        margin: Coord,
    },
    /// The intersection `a ∩ b` (e.g. the MOS gate: poly ∩ diffusion) must
    /// be enclosed by geometry on `outer` with at least `margin` — the
    /// *overlap-of-overlap* rule (e.g. depletion implant over the gate).
    OverlapEnclosure {
        /// First intersecting layer.
        a: LayerId,
        /// Second intersecting layer.
        b: LayerId,
        /// The layer that must enclose the intersection.
        outer: LayerId,
        /// Required margin.
        margin: Coord,
    },
    /// Geometry on `layer` must extend beyond the gate region (`a ∩ b`) by
    /// at least `amount` on the sides where it crosses (e.g. poly gate
    /// overhang, diffusion source/drain extension). Checked as: the region
    /// `layer` minus the gate must reach `amount` from the gate on the
    /// crossing axis.
    GateExtension {
        /// The layer that must extend (poly or diffusion).
        layer: LayerId,
        /// First gate layer.
        a: LayerId,
        /// Second gate layer.
        b: LayerId,
        /// Required extension.
        amount: Coord,
    },
    /// The device must contain a non-empty intersection `a ∩ b` (e.g. a
    /// transistor must actually have a gate).
    RequiresOverlap {
        /// First layer.
        a: LayerId,
        /// Second layer.
        b: LayerId,
    },
    /// Geometry on `layer` must not intersect the gate region `a ∩ b`
    /// (e.g. no contact over the active gate — paper Fig. 7).
    NoLayerOverGate {
        /// The forbidden layer.
        layer: LayerId,
        /// First gate layer.
        a: LayerId,
        /// Second gate layer.
        b: LayerId,
    },
    /// The device must contain geometry on `layer`.
    RequiresLayer {
        /// The required layer.
        layer: LayerId,
    },
    /// Minimum width for device geometry on `layer` (devices may have
    /// tighter or looser width rules than interconnect).
    MinWidth {
        /// The constrained layer.
        layer: LayerId,
        /// Required width.
        width: Coord,
    },
}

/// A device-dependent interaction override (the paper's Fig. 6).
///
/// When an element inside this device (on `own_layer`) interacts with an
/// outside element on `other_layer`, the override replaces the matrix rule:
/// `spacing: None` waives the check (the resistor-to-isolation tie);
/// `spacing: Some(s)` enforces `s` even where the matrix has no rule or the
/// elements share a net (the resistor same-net exception of Fig. 5b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionOverride {
    /// Layer of the element inside this device.
    pub own_layer: LayerId,
    /// Layer of the other element.
    pub other_layer: LayerId,
    /// Required spacing; `None` waives the check entirely.
    pub spacing: Option<Coord>,
    /// If true the override applies even when both elements are on the same
    /// net (Fig. 5b: a short across a resistor is critical although it is
    /// electrically "equivalent").
    pub applies_same_net: bool,
}

/// A declared device type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceArchetype {
    /// The `9D` type name (e.g. `NMOS_ENH`).
    pub type_name: String,
    /// Electrical class.
    pub class: DeviceClass,
    /// Internal construction rules.
    pub internal_rules: Vec<InternalRule>,
    /// Device-dependent interaction overrides.
    pub overrides: Vec<InteractionOverride>,
    /// Terminal names the netlister expects (e.g. `["G", "S", "D"]`).
    pub terminal_names: Vec<String>,
}

impl DeviceArchetype {
    /// Creates an archetype with no rules.
    pub fn new(type_name: &str, class: DeviceClass) -> Self {
        DeviceArchetype {
            type_name: type_name.to_string(),
            class,
            internal_rules: Vec::new(),
            overrides: Vec::new(),
            terminal_names: Vec::new(),
        }
    }

    /// Finds an interaction override for the given layer pair.
    pub fn find_override(
        &self,
        own_layer: LayerId,
        other_layer: LayerId,
    ) -> Option<&InteractionOverride> {
        self.overrides
            .iter()
            .find(|o| o.own_layer == own_layer && o.other_layer == other_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_lookup() {
        let base = LayerId(0);
        let iso = LayerId(1);
        let mut dev = DeviceArchetype::new("NPN", DeviceClass::BipolarNpn);
        dev.overrides.push(InteractionOverride {
            own_layer: base,
            other_layer: iso,
            spacing: Some(500),
            applies_same_net: true,
        });
        assert!(dev.class.is_transistor());
        assert!(dev.internal_rules.is_empty() && dev.terminal_names.is_empty());
        let o = dev.find_override(base, iso).unwrap();
        assert_eq!(o.spacing, Some(500));
        assert!(dev.find_override(iso, base).is_none());
    }

    #[test]
    fn class_transistor_flags() {
        assert!(DeviceClass::MosEnhancement.is_transistor());
        assert!(DeviceClass::MosDepletion.is_transistor());
        assert!(!DeviceClass::Resistor.is_transistor());
        assert!(!DeviceClass::Contact.is_transistor());
    }
}
