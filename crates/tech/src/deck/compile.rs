//! Lowering a deck to a [`Technology`].
//!
//! Two passes over the statements: layers first (declaration order fixes
//! [`LayerId`] assignment, and later rules may reference
//! layers declared after them), then everything else in source order.
//! Every semantic error — unknown layer, duplicate rule, a fractional
//! distance that does not land on a database unit — is a [`Diagnostic`]
//! anchored to the offending span, so `render` points at deck source.

use super::ast::{Deck, DeviceItem, Dist, Spanned, Stmt};
use super::parser::parse;
use crate::{
    DeviceArchetype, InteractionOverride, InternalRule, Layer, LayerId, SpacingRule, Technology,
};
use diic_diag::Diagnostic;
use diic_geom::MAX_COORD;

/// Parses and compiles a deck source in one step.
///
/// # Errors
///
/// Any [`Diagnostic`] from [`parse`] or [`compile`].
pub fn compile_str(source: &str) -> Result<Technology, Diagnostic> {
    compile(&parse(source)?)
}

/// Lowers a parsed deck to a [`Technology`].
///
/// # Errors
///
/// [`Diagnostic`] on semantic problems: duplicate layers, rules, or
/// devices; unknown layer references; distances that do not resolve to
/// whole database units within `±`[`MAX_COORD`].
pub fn compile(deck: &Deck) -> Result<Technology, Diagnostic> {
    let lambda = deck.lambda.node;
    if lambda <= 0 {
        return Err(Diagnostic::new(
            "lambda must be a positive number of database units",
            deck.lambda.span,
        ));
    }
    let mut tech = Technology::new(&deck.name.node, lambda);

    // Pass 1: layers, in declaration order.
    for stmt in &deck.statements {
        let Stmt::Layer(l) = stmt else { continue };
        if tech.layer_by_name(&l.name.node).is_some() {
            return Err(Diagnostic::new(
                format!("duplicate layer `{}`", l.name.node),
                l.name.span,
            ));
        }
        if tech.layer_by_cif(&l.cif.node).is_some() {
            return Err(Diagnostic::new(
                format!("duplicate CIF layer name `{}`", l.cif.node),
                l.cif.span,
            ));
        }
        let width = resolve(&l.min_width, lambda)?;
        tech.add_layer(Layer::new(&l.name.node, &l.cif.node, l.kind.node, width));
    }

    // Pass 2: everything else.
    for stmt in &deck.statements {
        match stmt {
            Stmt::Layer(_) => {}
            Stmt::Space(sp) => {
                let a = layer_id(&tech, &sp.a)?;
                let b = layer_id(&tech, &sp.b)?;
                if tech.rules().spacing(a, b).is_some() {
                    return Err(Diagnostic::new(
                        format!(
                            "duplicate spacing rule for `{}` / `{}`",
                            sp.a.node, sp.b.node
                        ),
                        sp.span,
                    ));
                }
                let rule = SpacingRule {
                    diff_net: resolve(&sp.diff_net, lambda)?,
                    same_net: opt(&sp.same_net, lambda)?,
                    unrelated_device: opt(&sp.unrelated_device, lambda)?,
                };
                tech.rules_mut().set_spacing(a, b, rule);
            }
            Stmt::SameMask(m) => {
                let layer = layer_id(&tech, &m.layer)?;
                if tech.rules().same_mask(layer).is_some() {
                    return Err(Diagnostic::new(
                        format!("duplicate same_mask rule for `{}`", m.layer.node),
                        m.span,
                    ));
                }
                let d = resolve(&m.min_space, lambda)?;
                tech.rules_mut().set_same_mask(layer, d);
            }
            Stmt::Device(decl) => {
                if tech.device(&decl.name.node).is_some() {
                    return Err(Diagnostic::new(
                        format!("duplicate device `{}`", decl.name.node),
                        decl.name.span,
                    ));
                }
                let mut dev = DeviceArchetype::new(&decl.name.node, decl.class.node);
                for item in &decl.items {
                    match item {
                        DeviceItem::RequiresOverlap { a, b } => {
                            dev.internal_rules.push(InternalRule::RequiresOverlap {
                                a: layer_id(&tech, a)?,
                                b: layer_id(&tech, b)?,
                            });
                        }
                        DeviceItem::RequiresLayer { layer } => {
                            dev.internal_rules.push(InternalRule::RequiresLayer {
                                layer: layer_id(&tech, layer)?,
                            });
                        }
                        DeviceItem::Enclosure {
                            inner,
                            outer,
                            margin,
                        } => {
                            dev.internal_rules.push(InternalRule::Enclosure {
                                inner: layer_id(&tech, inner)?,
                                outer: layer_id(&tech, outer)?,
                                margin: resolve(margin, lambda)?,
                            });
                        }
                        DeviceItem::OverlapEnclosure {
                            a,
                            b,
                            outer,
                            margin,
                        } => {
                            dev.internal_rules.push(InternalRule::OverlapEnclosure {
                                a: layer_id(&tech, a)?,
                                b: layer_id(&tech, b)?,
                                outer: layer_id(&tech, outer)?,
                                margin: resolve(margin, lambda)?,
                            });
                        }
                        DeviceItem::GateExtension {
                            layer,
                            a,
                            b,
                            amount,
                        } => {
                            dev.internal_rules.push(InternalRule::GateExtension {
                                layer: layer_id(&tech, layer)?,
                                a: layer_id(&tech, a)?,
                                b: layer_id(&tech, b)?,
                                amount: resolve(amount, lambda)?,
                            });
                        }
                        DeviceItem::NoLayerOverGate { layer, a, b } => {
                            dev.internal_rules.push(InternalRule::NoLayerOverGate {
                                layer: layer_id(&tech, layer)?,
                                a: layer_id(&tech, a)?,
                                b: layer_id(&tech, b)?,
                            });
                        }
                        DeviceItem::MinWidth { layer, width } => {
                            dev.internal_rules.push(InternalRule::MinWidth {
                                layer: layer_id(&tech, layer)?,
                                width: resolve(width, lambda)?,
                            });
                        }
                        DeviceItem::Override {
                            own,
                            other,
                            spacing,
                            same_net,
                        } => {
                            dev.overrides.push(InteractionOverride {
                                own_layer: layer_id(&tech, own)?,
                                other_layer: layer_id(&tech, other)?,
                                spacing: opt(spacing, lambda)?,
                                applies_same_net: *same_net,
                            });
                        }
                        DeviceItem::Terminals(list) => {
                            dev.terminal_names = list.iter().map(|n| n.node.clone()).collect();
                        }
                    }
                }
                tech.add_device(dev);
            }
            Stmt::Power(list) => {
                tech.power_nets = list.iter().map(|n| n.node.clone()).collect();
            }
            Stmt::Ground(list) => {
                tech.ground_nets = list.iter().map(|n| n.node.clone()).collect();
            }
            Stmt::BusPrefix(p) => {
                tech.bus_prefix = p.node.clone();
            }
            Stmt::IoPrefix(p) => {
                tech.io_prefix = p.node.clone();
            }
        }
    }

    // Pass 3: cross-rule sanity. A same-mask distance that does not
    // exceed the layer's ordinary spacing rule can never contribute a
    // new conflict — every pair it would connect already violates
    // spacing — so the declaration is almost certainly a typo.
    for stmt in &deck.statements {
        let Stmt::SameMask(m) = stmt else { continue };
        let layer = layer_id(&tech, &m.layer)?;
        if let Some(rule) = tech.rules().spacing(layer, layer) {
            let d = resolve(&m.min_space, lambda)?;
            if d <= rule.diff_net {
                return Err(Diagnostic::new(
                    format!(
                        "same_mask distance {d} on `{}` does not exceed its spacing \
                         rule ({}): every conflict it could flag already violates \
                         spacing",
                        m.layer.node, rule.diff_net
                    ),
                    m.span,
                ));
            }
        }
    }
    Ok(tech)
}

fn layer_id(tech: &Technology, name: &Spanned<String>) -> Result<LayerId, Diagnostic> {
    tech.layer_by_name(&name.node)
        .ok_or_else(|| Diagnostic::new(format!("unknown layer `{}`", name.node), name.span))
}

/// Resolves a distance literal to database units, within the checker's
/// coordinate range (`±`[`MAX_COORD`]).
fn resolve(d: &Dist, lambda: i64) -> Result<i64, Diagnostic> {
    if d.den == 0 {
        return Err(Diagnostic::new("zero denominator in distance", d.span));
    }
    let unit = if d.lambda { lambda } else { 1 };
    let scaled = d
        .num
        .checked_mul(unit)
        .filter(|v| (-MAX_COORD..=MAX_COORD).contains(&(v / d.den)))
        .ok_or_else(|| {
            let message = format!("distance is outside the coordinate range ±{MAX_COORD}");
            Diagnostic::new(message, d.span)
        })?;
    if scaled % d.den != 0 {
        return Err(Diagnostic::new(
            format!(
                "distance does not resolve to whole database units \
                 ({scaled} is not divisible by {}; lambda = {lambda})",
                d.den
            ),
            d.span,
        ));
    }
    Ok(scaled / d.den)
}

fn opt(d: &Option<Dist>, lambda: i64) -> Result<Option<i64>, Diagnostic> {
    d.as_ref().map(|d| resolve(d, lambda)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractional_lambda_distances_resolve() {
        let tech = compile_str(
            "tech \"t\" { lambda 250; layer i { cif \"I\"; kind implant; min_width 3/2 lambda; } }",
        )
        .unwrap();
        let i = tech.layer_by_name("i").unwrap();
        assert_eq!(tech.layer(i).min_width, 375);
    }

    #[test]
    fn non_integral_distance_is_an_error() {
        let e = compile_str(
            "tech \"t\" { lambda 251; layer i { cif \"I\"; kind implant; min_width 3/2 lambda; } }",
        )
        .unwrap_err();
        assert!(e.message.contains("whole database units"), "{e}");
    }

    #[test]
    fn distances_past_the_coordinate_range_are_errors() {
        // A spacing of 2⁶³ − 1 compiled, then overflowed the checker's
        // rule inflation.
        let deck = |d: &str| {
            format!(
                "tech \"t\" {{ lambda 250; layer m {{ cif \"M\"; kind metal; min_width 1; }} \
                 space m m {d}; }}"
            )
        };
        for d in [
            "9223372036854775807",
            "4503599627370497",
            "18014398509481985/4 lambda",
        ] {
            let src = deck(d);
            let e = compile_str(&src).unwrap_err();
            assert_eq!(&src[e.span.start..e.span.end], d);
            assert!(e.message.contains("outside the coordinate range"), "{e}");
        }
        assert!(compile_str(&deck("4503599627370496")).is_ok());
    }

    #[test]
    fn unknown_layer_is_spanned() {
        let src = "tech \"t\" { lambda 1; space ghost ghost 3; }";
        let e = compile_str(src).unwrap_err();
        assert_eq!(&src[e.span.start..e.span.end], "ghost");
        assert!(e.message.contains("unknown layer `ghost`"));
    }

    #[test]
    fn duplicate_rules_are_rejected() {
        let layer = "layer a { cif \"A\"; kind metal; min_width 1; }";
        let dup_space = format!("tech \"t\" {{ lambda 1; {layer} space a a 3; space a a 4; }}");
        assert!(compile_str(&dup_space)
            .unwrap_err()
            .message
            .contains("duplicate spacing rule"));
        let dup_mask = format!("tech \"t\" {{ lambda 1; {layer} same_mask a 3; same_mask a 4; }}");
        assert!(compile_str(&dup_mask)
            .unwrap_err()
            .message
            .contains("duplicate same_mask"));
        let dup_layer = format!("tech \"t\" {{ lambda 1; {layer} {layer} }}");
        assert!(compile_str(&dup_layer)
            .unwrap_err()
            .message
            .contains("duplicate layer"));
    }

    #[test]
    fn same_mask_lands_in_the_rule_set() {
        let tech = compile_str(
            "tech \"t\" { lambda 250; layer m { cif \"M\"; kind metal; min_width 3 lambda; } \
             space m m 3 lambda; same_mask m 5 lambda; }",
        )
        .unwrap();
        let m = tech.layer_by_name("m").unwrap();
        assert_eq!(tech.rules().same_mask(m), Some(1250));
        assert!(tech.rules().has_same_mask());
    }

    #[test]
    fn erc_defaults_survive_when_unstated() {
        let tech =
            compile_str("tech \"t\" { lambda 1; layer m { cif \"M\"; kind metal; min_width 1; } }")
                .unwrap();
        assert!(tech.is_power("VDD"));
        assert!(tech.is_ground("VSS"));
    }
}
