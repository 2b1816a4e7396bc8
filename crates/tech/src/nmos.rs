//! The default silicon-gate NMOS technology (Mead–Conway λ rules).
//!
//! λ = 250 database units (2.5 µm at 1 unit = 1 centimicron), the process
//! generation of the paper's era. Layer CIF names follow the Mead–Conway
//! book: `ND` diffusion, `NP` poly, `NC` contact cut, `NM` metal, `NI`
//! depletion implant, `NB` buried window, `NG` overglass. The rules live
//! in `decks/nmos.deck` ([`NMOS_DECK`]), compiled once per process.

use crate::deck::{compile_builtin, NMOS_DECK};
use crate::Technology;
use std::sync::LazyLock;

static NMOS: LazyLock<Technology> = LazyLock::new(|| compile_builtin("decks/nmos.deck", NMOS_DECK));

/// The NMOS technology.
///
/// Interconnect rules: diffusion 2λ wide / 3λ space, poly 2λ / 2λ, metal
/// 3λ / 3λ, poly-to-unrelated-diffusion 1λ. Devices: enhancement and
/// depletion transistors, poly/diffusion contacts, butting and buried
/// contacts, and a diffusion resistor with the Fig. 5b same-net exception.
pub fn nmos_technology() -> Technology {
    NMOS.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceClass, InternalRule, LayerKind};

    #[test]
    fn layers_present_with_lambda_rules() {
        let t = nmos_technology();
        let diff = t.layer_by_name("diff").unwrap();
        let poly = t.layer_by_name("poly").unwrap();
        let metal = t.layer_by_name("metal").unwrap();
        assert_eq!(t.layer(diff).min_width, 500);
        assert_eq!(t.layer(poly).min_width, 500);
        assert_eq!(t.layer(metal).min_width, 750);
        assert_eq!(t.layer(metal).kind, LayerKind::Metal);
    }

    #[test]
    fn matrix_entries_match_mead_conway() {
        let t = nmos_technology();
        let diff = t.layer_by_name("diff").unwrap();
        let poly = t.layer_by_name("poly").unwrap();
        let metal = t.layer_by_name("metal").unwrap();
        assert_eq!(t.rules().spacing(diff, diff).unwrap().diff_net, 750);
        assert_eq!(t.rules().spacing(poly, poly).unwrap().diff_net, 500);
        assert_eq!(t.rules().spacing(poly, diff).unwrap().diff_net, 250);
        // Metal-diffusion: no rule (metal crosses everything).
        assert!(t.rules().spacing(metal, diff).is_none());
        assert!(t.rules().spacing(metal, poly).is_none());
        // Same-net pairs unchecked by default.
        assert_eq!(t.rules().spacing(diff, diff).unwrap().same_net, None);
    }

    #[test]
    fn enhancement_transistor_archetype() {
        let t = nmos_technology();
        let dev = t.device("NMOS_ENH").unwrap();
        assert_eq!(dev.class, DeviceClass::MosEnhancement);
        assert!(dev
            .internal_rules
            .iter()
            .any(|r| matches!(r, InternalRule::NoLayerOverGate { .. })));
        assert!(dev
            .internal_rules
            .iter()
            .any(|r| matches!(r, InternalRule::RequiresOverlap { .. })));
        assert_eq!(dev.terminal_names, vec!["G", "S", "D"]);
    }

    #[test]
    fn butting_contact_allows_contact_over_overlap() {
        let t = nmos_technology();
        let butting = t.device("BUTTING_CONTACT").unwrap();
        assert!(!butting
            .internal_rules
            .iter()
            .any(|r| matches!(r, InternalRule::NoLayerOverGate { .. })));
    }

    #[test]
    fn resistor_same_net_exception() {
        let t = nmos_technology();
        let diff = t.layer_by_name("diff").unwrap();
        let res = t.device("RESISTOR_D").unwrap();
        let o = res.find_override(diff, diff).unwrap();
        assert!(o.applies_same_net);
        assert_eq!(o.spacing, Some(750));
    }

    #[test]
    fn depletion_has_implant_enclosure() {
        let t = nmos_technology();
        let dep = t.device("NMOS_DEP").unwrap();
        assert!(dep
            .internal_rules
            .iter()
            .any(|r| matches!(r, InternalRule::OverlapEnclosure { margin: 375, .. })));
    }
}
