//! The canonical deck printer.
//!
//! [`print()`] renders an AST in one fixed surface style (four-space
//! indent, shorthand `space` form when no options are set, `}` on its
//! own line for blocks). Because the AST is semantic, printing is
//! injective up to spans: `parse(print(parse(s)))` equals `parse(s)`
//! with spans stripped — the round-trip property
//! `tests/roundtrip.rs` pins on random decks.

use super::ast::{class_name, kind_name, Deck, DeviceItem, Dist, Spanned, Stmt};
use std::fmt::Write as _;

fn dist(d: &Dist) -> String {
    let mut s = d.num.to_string();
    if d.den != 1 {
        let _ = write!(s, "/{}", d.den);
    }
    if d.lambda {
        s.push_str(" lambda");
    }
    s
}

fn names(list: &[Spanned<String>]) -> String {
    list.iter()
        .map(|n| n.node.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Renders a deck in canonical form.
pub fn print(deck: &Deck) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "tech \"{}\" {{", deck.name.node);
    let _ = writeln!(s, "    lambda {};", deck.lambda.node);
    for stmt in &deck.statements {
        match stmt {
            Stmt::Layer(l) => {
                let _ = writeln!(
                    s,
                    "    layer {} {{ cif \"{}\"; kind {}; min_width {}; }}",
                    l.name.node,
                    l.cif.node,
                    kind_name(l.kind.node),
                    dist(&l.min_width)
                );
            }
            Stmt::Space(sp) => {
                let _ = write!(
                    s,
                    "    space {} {} {}",
                    sp.a.node,
                    sp.b.node,
                    dist(&sp.diff_net)
                );
                if sp.same_net.is_none() && sp.unrelated_device.is_none() {
                    s.push_str(";\n");
                } else {
                    s.push_str(" {");
                    if let Some(d) = &sp.same_net {
                        let _ = write!(s, " same_net {};", dist(d));
                    }
                    if let Some(d) = &sp.unrelated_device {
                        let _ = write!(s, " unrelated_device {};", dist(d));
                    }
                    s.push_str(" }\n");
                }
            }
            Stmt::SameMask(m) => {
                let _ = writeln!(s, "    same_mask {} {};", m.layer.node, dist(&m.min_space));
            }
            Stmt::Device(dev) => {
                let _ = writeln!(
                    s,
                    "    device {} {} {{",
                    dev.name.node,
                    class_name(dev.class.node)
                );
                for item in &dev.items {
                    let line = match item {
                        DeviceItem::RequiresOverlap { a, b } => {
                            format!("requires_overlap {} {}", a.node, b.node)
                        }
                        DeviceItem::RequiresLayer { layer } => {
                            format!("requires_layer {}", layer.node)
                        }
                        DeviceItem::Enclosure {
                            inner,
                            outer,
                            margin,
                        } => format!(
                            "enclosure {} in {} {}",
                            inner.node,
                            outer.node,
                            dist(margin)
                        ),
                        DeviceItem::OverlapEnclosure {
                            a,
                            b,
                            outer,
                            margin,
                        } => format!(
                            "overlap_enclosure {} {} in {} {}",
                            a.node,
                            b.node,
                            outer.node,
                            dist(margin)
                        ),
                        DeviceItem::GateExtension {
                            layer,
                            a,
                            b,
                            amount,
                        } => format!(
                            "gate_extension {} {} {} {}",
                            layer.node,
                            a.node,
                            b.node,
                            dist(amount)
                        ),
                        DeviceItem::NoLayerOverGate { layer, a, b } => {
                            format!("no_layer_over_gate {} {} {}", layer.node, a.node, b.node)
                        }
                        DeviceItem::MinWidth { layer, width } => {
                            format!("min_width {} {}", layer.node, dist(width))
                        }
                        DeviceItem::Override {
                            own,
                            other,
                            spacing,
                            same_net,
                        } => {
                            let mut line = format!("override {} {}", own.node, other.node);
                            match spacing {
                                Some(d) => {
                                    let _ = write!(line, " {}", dist(d));
                                }
                                None => line.push_str(" waived"),
                            }
                            if *same_net {
                                line.push_str(" same_net");
                            }
                            line
                        }
                        DeviceItem::Terminals(list) => format!("terminals {}", names(list)),
                    };
                    let _ = writeln!(s, "        {line};");
                }
                s.push_str("    }\n");
            }
            Stmt::Power(list) => {
                let _ = writeln!(s, "    power {};", names(list));
            }
            Stmt::Ground(list) => {
                let _ = writeln!(s, "    ground {};", names(list));
            }
            Stmt::BusPrefix(p) => {
                let _ = writeln!(s, "    bus_prefix \"{}\";", p.node);
            }
            Stmt::IoPrefix(p) => {
                let _ = writeln!(s, "    io_prefix \"{}\";", p.node);
            }
        }
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use crate::deck::parser::parse;
    use crate::deck::printer::print;

    #[test]
    fn printing_is_idempotent() {
        let src = r#"tech "t" { lambda 250;
            layer m { cif "M"; kind metal; min_width 3 lambda; }
            space m m 3 lambda { same_net 3 lambda; }
            same_mask m 5 lambda;
            device R resistor { requires_layer m; override m m waived; terminals A B; }
            ground GND VSS;
        }"#;
        let once = print(&parse(src).unwrap());
        let twice = print(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn shorthand_space_prints_without_a_block() {
        let src = "tech \"t\" { lambda 1; layer a { cif \"A\"; kind metal; min_width 1; } space a a 3 { } }";
        let out = print(&parse(src).unwrap());
        assert!(out.contains("space a a 3;"), "{out}");
    }
}
