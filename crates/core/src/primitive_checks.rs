//! Stage 3 — "check primitive symbols": device-internal rules.
//!
//! "Any element which is part of a primitive symbol is treated in the box
//! labelled 'check primitive symbols'. These checks are the most
//! complicated \[...\] enclosure rules, overlap rules, even overlap of
//! overlap rules (buried contact). \[...\] On the other hand there are not
//! very many different elemental symbols on a given chip (20 to 30)."
//!
//! Each device symbol *definition* is checked once against its archetype's
//! internal rules. The `9C` immunity flag waives the internal rules — "a
//! technique for flagging specific devices as checked to eliminate large
//! numbers of false errors". A library session goes one step further: a
//! device symbol is checked once per definition per session, and every
//! later cell presenting the same definition (its content and display
//! name) reuses the verdict ([`crate::library::LibraryCache`]).

use crate::binding::LayerBinding;
use crate::library::{Definition, Definitions};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::{DeviceDecl, Layout, Shape, Symbol, SymbolId};
use diic_geom::size::expand;
use diic_geom::{Rect, Region, Vector};
use diic_tech::{InternalRule, LayerId, Technology};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of checking all device symbol definitions (or, as a library
/// session keeps it, one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrimitiveCheckResult {
    /// Violations found.
    pub violations: Vec<Violation>,
    /// Device definitions waived by the `9C` immunity flag.
    pub waived: Vec<String>,
    /// Device definitions checked.
    pub checked: usize,
}

impl PrimitiveCheckResult {
    /// Appends `other`'s findings after this result's.
    fn absorb(&mut self, other: PrimitiveCheckResult) {
        self.violations.extend(other.violations);
        self.waived.extend(other.waived);
        self.checked += other.checked;
    }
}

impl Definition for PrimitiveCheckResult {
    #[cfg(debug_assertions)]
    fn assert_same(&self, fresh: &PrimitiveCheckResult) {
        assert_eq!(
            self, fresh,
            "a kept verdict must equal the check of its definition"
        );
    }
}

/// Checks every device symbol definition against its archetype. A
/// verdict is keyed by the symbol's content key ([`Definitions`]) and
/// display name; a library session's cache answers the verdicts it
/// keeps.
pub fn check_primitive_symbols(
    layout: &Layout,
    tech: &Technology,
    binding: &LayerBinding,
    definitions: &Definitions<'_>,
) -> PrimitiveCheckResult {
    let mut result = PrimitiveCheckResult::default();
    for (id, sym) in (0..).map(SymbolId).zip(layout.symbols()) {
        let Some(decl) = &sym.device else { continue };
        let name = sym.display_name();
        let derive = || check_device_symbol(sym, decl, &name, tech, binding);
        // A verdict the session keeps is copied; one it does not is moved.
        result.absorb(Arc::unwrap_or_clone(definitions.verdict(id, &name, derive)));
    }
    result
}

/// The verdict of one device symbol, `sym` with the declaration `decl`,
/// displayed as `name`.
fn check_device_symbol(
    sym: &Symbol,
    decl: &DeviceDecl,
    name: &str,
    tech: &Technology,
    binding: &LayerBinding,
) -> PrimitiveCheckResult {
    let mut result = PrimitiveCheckResult::default();

    // The paper: primitive symbols contain only geometry.
    if sym.calls().next().is_some() {
        result.violations.push(Violation {
            stage: CheckStage::PrimitiveSymbols,
            kind: ViolationKind::DeviceRule {
                device_type: decl.device_type.clone(),
                rule: "a primitive device symbol may contain only geometry, not calls".to_string(),
            },
            location: None,
            context: name.to_string(),
        });
    }

    let Some(archetype) = tech.device(&decl.device_type) else {
        result.violations.push(Violation {
            stage: CheckStage::PrimitiveSymbols,
            kind: ViolationKind::UnknownDeviceType {
                type_name: decl.device_type.clone(),
            },
            location: None,
            context: name.to_string(),
        });
        return result;
    };

    if decl.checked {
        // Immunity: internal rules waived.
        result.waived.push(name.to_string());
        return result;
    }
    result.checked += 1;

    let regions = layer_regions(sym, binding);
    let region_of = |l: LayerId| regions.get(&l).cloned().unwrap_or_default();

    for rule in &archetype.internal_rules {
        let fail: Option<(String, Option<Rect>)> = match rule {
            InternalRule::RequiresLayer { layer } => {
                if region_of(*layer).is_empty() {
                    Some((
                        format!("missing required {} geometry", tech.layer(*layer).name),
                        None,
                    ))
                } else {
                    None
                }
            }
            InternalRule::RequiresOverlap { a, b } => {
                let gate = region_of(*a).intersection(&region_of(*b));
                if gate.is_empty() {
                    Some((
                        format!(
                            "{} must cross {} (no gate region found)",
                            tech.layer(*a).name,
                            tech.layer(*b).name
                        ),
                        None,
                    ))
                } else {
                    None
                }
            }
            InternalRule::Enclosure {
                inner,
                outer,
                margin,
            } => {
                let inner_r = region_of(*inner);
                if inner_r.is_empty() {
                    None // nothing to enclose; RequiresLayer handles absence
                } else {
                    // invariant: rule margins are validated
                    // non-negative at technology construction.
                    let grown = expand(&inner_r, *margin).expect("margin >= 0");
                    if region_of(*outer).covers(&grown) {
                        None
                    } else {
                        Some((
                            format!(
                                "{} must enclose {} by {}",
                                tech.layer(*outer).name,
                                tech.layer(*inner).name,
                                margin
                            ),
                            inner_r.bbox(),
                        ))
                    }
                }
            }
            InternalRule::OverlapEnclosure {
                a,
                b,
                outer,
                margin,
            } => {
                let gate = region_of(*a).intersection(&region_of(*b));
                if gate.is_empty() {
                    None
                } else {
                    // invariant: non-negative margin, as above.
                    let grown = expand(&gate, *margin).expect("margin >= 0");
                    if region_of(*outer).covers(&grown) {
                        None
                    } else {
                        Some((
                            format!(
                                "{} must enclose the {}∩{} region by {}",
                                tech.layer(*outer).name,
                                tech.layer(*a).name,
                                tech.layer(*b).name,
                                margin
                            ),
                            gate.bbox(),
                        ))
                    }
                }
            }
            InternalRule::GateExtension {
                layer,
                a,
                b,
                amount,
            } => {
                let gate = region_of(*a).intersection(&region_of(*b));
                if gate.is_empty() {
                    None
                } else {
                    let lr = region_of(*layer);
                    let ok_x = lr.covers(&translate_region(&gate, *amount, 0))
                        && lr.covers(&translate_region(&gate, -*amount, 0));
                    let ok_y = lr.covers(&translate_region(&gate, 0, *amount))
                        && lr.covers(&translate_region(&gate, 0, -*amount));
                    if ok_x || ok_y {
                        None
                    } else {
                        Some((
                            format!(
                                "{} must extend {} beyond the gate",
                                tech.layer(*layer).name,
                                amount
                            ),
                            gate.bbox(),
                        ))
                    }
                }
            }
            InternalRule::NoLayerOverGate { layer, a, b } => {
                let gate = region_of(*a).intersection(&region_of(*b));
                let bad = region_of(*layer).intersection(&gate);
                if bad.is_empty() {
                    None
                } else {
                    Some((
                        format!(
                            "{} is not allowed over the active gate ({}∩{})",
                            tech.layer(*layer).name,
                            tech.layer(*a).name,
                            tech.layer(*b).name
                        ),
                        bad.bbox(),
                    ))
                }
            }
            InternalRule::MinWidth { layer, width } => {
                let mut worst: Option<Rect> = None;
                for e in sym.elements() {
                    if binding.layer(e.layer) != Some(*layer) {
                        continue;
                    }
                    let under = match &e.shape {
                        Shape::Box(r) => r.min_side() < *width,
                        Shape::Wire(w) => w.width() < *width,
                        Shape::Polygon(p) => {
                            !diic_geom::width::check_polygon_width(p, *width).is_empty()
                        }
                    };
                    if under {
                        worst = Some(e.shape.bbox());
                    }
                }
                worst.map(|r| {
                    (
                        format!("{} narrower than {}", tech.layer(*layer).name, width),
                        Some(r),
                    )
                })
            }
        };
        if let Some((msg, loc)) = fail {
            result.violations.push(Violation {
                stage: CheckStage::PrimitiveSymbols,
                kind: ViolationKind::DeviceRule {
                    device_type: decl.device_type.clone(),
                    rule: msg,
                },
                location: loc,
                context: name.to_string(),
            });
        }
    }

    // Terminals must sit on device geometry of their layer.
    for term in &decl.terminals {
        let Some(layer) = binding.layer(term.layer) else {
            continue;
        };
        if !region_of(layer).contains_point(term.position) {
            result.violations.push(Violation {
                stage: CheckStage::PrimitiveSymbols,
                kind: ViolationKind::TerminalOutsideDevice {
                    terminal: term.name.clone(),
                },
                location: Some(Rect::new(
                    term.position.x,
                    term.position.y,
                    term.position.x,
                    term.position.y,
                )),
                context: name.to_string(),
            });
        }
    }
    result
}

fn layer_regions(sym: &Symbol, binding: &LayerBinding) -> HashMap<LayerId, Region> {
    let mut map: HashMap<LayerId, Vec<Rect>> = HashMap::new();
    for e in sym.elements() {
        let Some(layer) = binding.layer(e.layer) else {
            continue;
        };
        let rects = match &e.shape {
            Shape::Box(r) => vec![*r],
            Shape::Wire(w) => w.to_rects(),
            Shape::Polygon(p) => p.to_rects().unwrap_or_else(|_| vec![p.bbox()]),
        };
        map.entry(layer).or_default().extend(rects);
    }
    map.into_iter()
        .map(|(l, rects)| (l, Region::from_rects(rects)))
        .collect()
}

fn translate_region(r: &Region, dx: i64, dy: i64) -> Region {
    Region::from_rects(
        r.rects()
            .iter()
            .map(|rect| rect.translate(Vector::new(dx, dy))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn run(cif: &str) -> PrimitiveCheckResult {
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let definitions = Definitions::new(&layout, &binding, None);
        check_primitive_symbols(&layout, &tech, &binding, &definitions)
    }

    /// A correct enhancement transistor: poly 2λ wide crossing a 2λ diff,
    /// both extending 2λ beyond the 2λ×2λ gate.
    const GOOD_ENH: &str = "
        DS 1; 9 tr; 9D NMOS_ENH;
        L NP; B 1500 500 250 0;
        L ND; B 500 2500 250 0;
        DF; C 1; E";

    #[test]
    fn good_transistor_passes() {
        let r = run(GOOD_ENH);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.checked, 1);
    }

    #[test]
    fn missing_gate_fails() {
        // Fig. 8 bottom: poly does not reach across the diffusion.
        let r = run("DS 1; 9D NMOS_ENH;
             L NP; B 500 500 -750 0;
             L ND; B 500 2500 250 0;
             DF; C 1; E");
        assert!(r.violations.iter().any(
            |v| matches!(&v.kind, ViolationKind::DeviceRule { rule, .. } if rule.contains("cross"))
        ));
    }

    #[test]
    fn short_gate_overhang_fails() {
        // Poly only extends 1λ beyond the gate.
        let r = run("DS 1; 9D NMOS_ENH;
             L NP; B 1000 500 250 0;
             L ND; B 500 2500 250 0;
             DF; C 1; E");
        assert!(r.violations.iter().any(
            |v| matches!(&v.kind, ViolationKind::DeviceRule { rule, .. } if rule.contains("extend"))
        ));
    }

    #[test]
    fn fig7_contact_over_gate_fails() {
        let r = run("DS 1; 9D NMOS_ENH;
             L NP; B 1500 500 250 0;
             L ND; B 500 2500 250 0;
             L NC; B 500 500 250 0;
             DF; C 1; E");
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::DeviceRule { rule, .. } if rule.contains("active gate"))));
    }

    #[test]
    fn fig7_butting_contact_passes() {
        // The same poly∩diff overlap with a contact over it is legal in a
        // butting contact: its archetype has no NoLayerOverGate rule.
        let r = run("DS 1; 9D BUTTING_CONTACT;
             L NP; B 1000 1000 0 -250;
             L ND; B 1000 1000 0 250;
             L NC; B 500 500 0 0;
             L NM; B 1000 1000 0 0;
             DF; C 1; E");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn immunity_flag_waives_rules() {
        // Same broken transistor as `missing_gate_fails`, marked 9C.
        let r = run("DS 1; 9 odd; 9D NMOS_ENH; 9C;
             L NP; B 500 500 -750 0;
             L ND; B 500 2500 250 0;
             DF; C 1; E");
        assert!(r.violations.is_empty());
        assert_eq!(r.waived, vec!["odd"]);
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn unknown_device_type_reported() {
        let r = run("DS 1; 9D WIDGET; L NP; B 500 500 0 0; DF; C 1; E");
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::UnknownDeviceType { .. }
        ));
    }

    #[test]
    fn contact_enclosure_rules() {
        // Good: 2λ cut, 1λ diff and metal margin all around.
        let good = run("DS 1; 9D CONTACT_D;
             L NC; B 500 500 0 0;
             L ND; B 1000 1000 0 0;
             L NM; B 1000 1000 0 0;
             DF; C 1; E");
        assert!(good.violations.is_empty(), "{:?}", good.violations);
        // Bad: metal flush with the cut on one side.
        let bad = run("DS 1; 9D CONTACT_D;
             L NC; B 500 500 0 0;
             L ND; B 1000 1000 0 0;
             L NM; B 750 1000 -125 0;
             DF; C 1; E");
        assert!(bad
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::DeviceRule { rule, .. } if rule.contains("enclose"))));
    }

    #[test]
    fn depletion_implant_overlap_of_overlap() {
        // Depletion transistor with implant exactly 1.5λ around the gate.
        let good = run("DS 1; 9D NMOS_DEP;
             L NP; B 1500 500 250 0;
             L ND; B 500 2500 250 0;
             L NI; B 1250 1250 250 0;
             DF; C 1; E");
        assert!(good.violations.is_empty(), "{:?}", good.violations);
        // Implant too small.
        let bad = run("DS 1; 9D NMOS_DEP;
             L NP; B 1500 500 250 0;
             L ND; B 500 2500 250 0;
             L NI; B 1000 1000 250 0;
             DF; C 1; E");
        assert!(!bad.violations.is_empty());
    }

    #[test]
    fn terminal_outside_geometry_flagged() {
        let r = run("DS 1; 9D CONTACT_D; 9T A NM 5000 5000;
             L NC; B 500 500 0 0;
             L ND; B 1000 1000 0 0;
             L NM; B 1000 1000 0 0;
             DF; C 1; E");
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::TerminalOutsideDevice { .. })));
    }

    #[test]
    fn device_with_calls_flagged() {
        let r = run("DS 2; L NM; B 1000 1000 0 0; DF;
             DS 1; 9D CONTACT_D; C 2;
             L NC; B 500 500 0 0; L ND; B 1000 1000 0 0; L NM; B 1000 1000 0 0;
             DF; C 1; E");
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(&v.kind, ViolationKind::DeviceRule { rule, .. } if rule.contains("only geometry"))));
    }
}
