//! The deck AST: span-carrying and semantic.
//!
//! Nodes store *meaning*, not surface syntax — the shorthand
//! `space a b 3 lambda;` and the empty-block form parse to the same
//! [`SpaceDecl`] — so the canonical printer ([`super::printer::print`])
//! round-trips: `parse ∘ print ∘ parse = parse` up to spans
//! ([`Deck::strip_spans`] zeroes them for comparison). Statements keep
//! their source order; layer declaration order is load-bearing (it fixes
//! `LayerId` assignment at compile).

use crate::{DeviceClass, LayerKind};
use diic_diag::Span;

/// A node plus the source span it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned<T> {
    /// The node.
    pub node: T,
    /// Its byte range in the source.
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Wraps a node.
    pub fn new(node: T, span: Span) -> Self {
        Spanned { node, span }
    }
}

/// A distance literal: `num[/den] [lambda]`. Resolved to database units
/// at compile time (`num × λ / den` when the `lambda` suffix is present,
/// `num / den` otherwise); a non-integral result is a compile error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dist {
    /// Numerator.
    pub num: i64,
    /// Denominator (1 unless the `/den` form was written).
    pub den: i64,
    /// True if the `lambda` suffix was present.
    pub lambda: bool,
    /// Source range of the whole literal.
    pub span: Span,
}

/// A parsed rule deck: one `tech "name" { … }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deck {
    /// Technology name (the string literal after `tech`).
    pub name: Spanned<String>,
    /// λ in database units (the mandatory first `lambda N;` statement).
    pub lambda: Spanned<i64>,
    /// The remaining statements, in source order.
    pub statements: Vec<Stmt>,
}

/// A top-level statement inside the `tech` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `layer name { cif "…"; kind …; min_width …; }`
    Layer(LayerDecl),
    /// `space a b d;` or `space a b d { same_net …; unrelated_device …; }`
    Space(SpaceDecl),
    /// `same_mask layer d;`
    SameMask(SameMaskDecl),
    /// `device NAME class { … }`
    Device(DeviceDecl),
    /// `power NET…;`
    Power(Vec<Spanned<String>>),
    /// `ground NET…;`
    Ground(Vec<Spanned<String>>),
    /// `bus_prefix "…";`
    BusPrefix(Spanned<String>),
    /// `io_prefix "…";`
    IoPrefix(Spanned<String>),
}

/// A mask layer declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDecl {
    /// Canonical layer name (e.g. `diff`).
    pub name: Spanned<String>,
    /// CIF layer name (e.g. `ND`).
    pub cif: Spanned<String>,
    /// Layer kind.
    pub kind: Spanned<LayerKind>,
    /// Minimum interconnect width.
    pub min_width: Dist,
    /// Source range of the whole declaration.
    pub span: Span,
}

/// One entry of the Fig. 12 interaction matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceDecl {
    /// First layer.
    pub a: Spanned<String>,
    /// Second layer.
    pub b: Spanned<String>,
    /// Different-net spacing.
    pub diff_net: Dist,
    /// Same-net spacing (`None` = unchecked, the usual case).
    pub same_net: Option<Dist>,
    /// Spacing against unrelated transistor parts (`None` = falls back
    /// to `diff_net`).
    pub unrelated_device: Option<Dist>,
    /// Source range of the whole declaration.
    pub span: Span,
}

/// A same-mask (multi-patterning) spacing rule for one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SameMaskDecl {
    /// The layer whose features must decompose onto two masks.
    pub layer: Spanned<String>,
    /// Features closer than this (but not touching) conflict.
    pub min_space: Dist,
    /// Source range of the whole declaration.
    pub span: Span,
}

/// A device archetype declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDecl {
    /// `9D` type name (e.g. `NMOS_ENH`).
    pub name: Spanned<String>,
    /// Device class.
    pub class: Spanned<DeviceClass>,
    /// Internal rules, overrides, and terminals, in source order.
    pub items: Vec<DeviceItem>,
    /// Source range of the whole declaration.
    pub span: Span,
}

/// One item inside a device block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceItem {
    /// `requires_overlap a b;`
    RequiresOverlap {
        /// First overlapping layer.
        a: Spanned<String>,
        /// Second overlapping layer.
        b: Spanned<String>,
    },
    /// `requires_layer l;`
    RequiresLayer {
        /// The required layer.
        layer: Spanned<String>,
    },
    /// `enclosure inner in outer margin;`
    Enclosure {
        /// Enclosed layer.
        inner: Spanned<String>,
        /// Enclosing layer.
        outer: Spanned<String>,
        /// Required margin.
        margin: Dist,
    },
    /// `overlap_enclosure a b in outer margin;`
    OverlapEnclosure {
        /// First layer of the overlap.
        a: Spanned<String>,
        /// Second layer of the overlap.
        b: Spanned<String>,
        /// Layer enclosing the overlap region.
        outer: Spanned<String>,
        /// Required margin.
        margin: Dist,
    },
    /// `gate_extension layer a b amount;`
    GateExtension {
        /// The layer that must extend past the gate.
        layer: Spanned<String>,
        /// First layer forming the gate.
        a: Spanned<String>,
        /// Second layer forming the gate.
        b: Spanned<String>,
        /// Required extension.
        amount: Dist,
    },
    /// `no_layer_over_gate layer a b;`
    NoLayerOverGate {
        /// The forbidden layer.
        layer: Spanned<String>,
        /// First layer forming the gate.
        a: Spanned<String>,
        /// Second layer forming the gate.
        b: Spanned<String>,
    },
    /// `min_width layer w;`
    MinWidth {
        /// The constrained layer.
        layer: Spanned<String>,
        /// Required width.
        width: Dist,
    },
    /// `override own other (d | waived) [same_net];`
    Override {
        /// The device's own layer.
        own: Spanned<String>,
        /// The interacting layer.
        other: Spanned<String>,
        /// Spacing (`None` = `waived`: the pair is not checked).
        spacing: Option<Dist>,
        /// True if the override applies even on the same net (Fig. 5b).
        same_net: bool,
    },
    /// `terminals NAME…;`
    Terminals(Vec<Spanned<String>>),
}

impl Deck {
    /// Zeroes every span in the tree, so two parses of equivalent sources
    /// compare equal regardless of layout (the round-trip property).
    pub fn strip_spans(&mut self) {
        fn s<T>(x: &mut Spanned<T>) {
            x.span = Span::DUMMY;
        }
        fn d(x: &mut Dist) {
            x.span = Span::DUMMY;
        }
        fn od(x: &mut Option<Dist>) {
            if let Some(x) = x {
                d(x);
            }
        }
        s(&mut self.name);
        s(&mut self.lambda);
        for stmt in &mut self.statements {
            match stmt {
                Stmt::Layer(l) => {
                    s(&mut l.name);
                    s(&mut l.cif);
                    s(&mut l.kind);
                    d(&mut l.min_width);
                    l.span = Span::DUMMY;
                }
                Stmt::Space(sp) => {
                    s(&mut sp.a);
                    s(&mut sp.b);
                    d(&mut sp.diff_net);
                    od(&mut sp.same_net);
                    od(&mut sp.unrelated_device);
                    sp.span = Span::DUMMY;
                }
                Stmt::SameMask(m) => {
                    s(&mut m.layer);
                    d(&mut m.min_space);
                    m.span = Span::DUMMY;
                }
                Stmt::Device(dev) => {
                    s(&mut dev.name);
                    s(&mut dev.class);
                    for item in &mut dev.items {
                        match item {
                            DeviceItem::RequiresOverlap { a, b } => {
                                s(a);
                                s(b);
                            }
                            DeviceItem::RequiresLayer { layer } => s(layer),
                            DeviceItem::Enclosure {
                                inner,
                                outer,
                                margin,
                            } => {
                                s(inner);
                                s(outer);
                                d(margin);
                            }
                            DeviceItem::OverlapEnclosure {
                                a,
                                b,
                                outer,
                                margin,
                            } => {
                                s(a);
                                s(b);
                                s(outer);
                                d(margin);
                            }
                            DeviceItem::GateExtension {
                                layer,
                                a,
                                b,
                                amount,
                            } => {
                                s(layer);
                                s(a);
                                s(b);
                                d(amount);
                            }
                            DeviceItem::NoLayerOverGate { layer, a, b } => {
                                s(layer);
                                s(a);
                                s(b);
                            }
                            DeviceItem::MinWidth { layer, width } => {
                                s(layer);
                                d(width);
                            }
                            DeviceItem::Override {
                                own,
                                other,
                                spacing,
                                same_net: _,
                            } => {
                                s(own);
                                s(other);
                                od(spacing);
                            }
                            DeviceItem::Terminals(names) => names.iter_mut().for_each(s),
                        }
                    }
                    dev.span = Span::DUMMY;
                }
                Stmt::Power(names) | Stmt::Ground(names) => names.iter_mut().for_each(s),
                Stmt::BusPrefix(p) | Stmt::IoPrefix(p) => s(p),
            }
        }
    }
}

/// The canonical surface name of a layer kind.
pub fn kind_name(k: LayerKind) -> &'static str {
    match k {
        LayerKind::Diffusion => "diffusion",
        LayerKind::Poly => "poly",
        LayerKind::Metal => "metal",
        LayerKind::Contact => "contact",
        LayerKind::Implant => "implant",
        LayerKind::Buried => "buried",
        LayerKind::Isolation => "isolation",
        LayerKind::Base => "base",
        LayerKind::Emitter => "emitter",
        LayerKind::Glass => "glass",
    }
}

/// The canonical surface name of a device class.
pub fn class_name(c: DeviceClass) -> &'static str {
    match c {
        DeviceClass::MosEnhancement => "mos_enhancement",
        DeviceClass::MosDepletion => "mos_depletion",
        DeviceClass::Resistor => "resistor",
        DeviceClass::Contact => "contact",
        DeviceClass::ButtingContact => "butting_contact",
        DeviceClass::BuriedContact => "buried_contact",
        DeviceClass::BipolarNpn => "bipolar_npn",
        DeviceClass::Capacitor => "capacitor",
    }
}
