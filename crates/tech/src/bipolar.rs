//! A minimal bipolar technology exercising device-dependent rules
//! (paper Fig. 6).
//!
//! The same base-diffusion mask makes both transistor bases and resistors.
//! Shorting a transistor's base region to the surrounding isolation
//! "destroys the integrity of the device" — an error — while connecting a
//! base *resistor* to isolation "is a common technique to tie one end of a
//! resistor to ground and is quite legal". The rules live in
//! `decks/bipolar.deck` ([`BIPOLAR_DECK`]), compiled once per process.

use crate::deck::{compile_builtin, BIPOLAR_DECK};
use crate::Technology;
use std::sync::LazyLock;

static BIPOLAR: LazyLock<Technology> =
    LazyLock::new(|| compile_builtin("decks/bipolar.deck", BIPOLAR_DECK));

/// The bipolar technology (λ = 250 database units).
pub fn bipolar_technology() -> Technology {
    BIPOLAR.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InternalRule;

    #[test]
    fn fig6_device_dependent_overrides() {
        let t = bipolar_technology();
        let base = t.layer_by_name("base").unwrap();
        let iso = t.layer_by_name("iso").unwrap();
        // Transistor: strict spacing, same-net included.
        let npn = t.device("NPN").unwrap();
        let o = npn.find_override(base, iso).unwrap();
        assert_eq!(o.spacing, Some(500));
        assert!(o.applies_same_net);
        // Resistor: waived.
        let res = t.device("BASE_RESISTOR").unwrap();
        let o = res.find_override(base, iso).unwrap();
        assert_eq!(o.spacing, None);
    }

    #[test]
    fn generic_matrix_rule_exists() {
        let t = bipolar_technology();
        let base = t.layer_by_name("base").unwrap();
        let iso = t.layer_by_name("iso").unwrap();
        assert_eq!(t.rules().spacing(base, iso).unwrap().diff_net, 500);
    }

    #[test]
    fn npn_structure_rules() {
        let t = bipolar_technology();
        let npn = t.device("NPN").unwrap();
        assert!(npn.class.is_transistor());
        assert!(npn
            .internal_rules
            .iter()
            .any(|r| matches!(r, InternalRule::Enclosure { margin: 250, .. })));
    }
}
