//! The baseline **flat, mask-level checker** the paper critiques.
//!
//! "Traditional checkers deal with mask geometry, that is, the geometrical
//! form of the data just before pattern generation, in its fully
//! instantiated form. Any topological or device information about the
//! circuit is discarded."
//!
//! Faithfully reproduced here:
//!
//! * the layout is **fully instantiated** and unioned per mask layer —
//!   symbol and net information is thrown away;
//! * width = orthogonal *shrink-expand-compare* (exact on Manhattan
//!   geometry; its Euclidean form on a raster, which flags every convex
//!   corner — Fig. 4 — is experiment e4's, not the baseline's);
//! * spacing = orthogonal *expand-check-overlap* between connected
//!   components: the L∞ metric with its corner-to-corner false errors;
//! * no nets: electrically equivalent features are flagged (Fig. 5a);
//! * no devices: poly crossing diffusion is assumed to be a legal
//!   transistor (Fig. 8 — accidental crossings go **unchecked**), the
//!   device-dependent base/isolation rule of Fig. 6 cannot be
//!   distinguished (resistor ties are flagged), and a mask-level "no
//!   contact over gate" check flags every butting contact (Fig. 7).
//!
//! The baseline has no options and runs serially: it is the reference
//! the pipeline is measured against, not a workload of its own. Every walk is
//! deterministic because [`FlatLayers`] keeps the per-layer unions
//! sorted by layer id (never in hash order).

use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::{flatten, Layout};
use diic_geom::spacing::check_region_spacing;
use diic_geom::width::shrink_expand_compare;
use diic_geom::{Rect, Region, SizingMode};
use diic_tech::{LayerId, LayerKind, Technology};
use std::collections::HashMap;

/// The per-mask-layer unions the flat baseline operates on, **sorted by
/// layer id** so every downstream walk (and hence the violation order)
/// is deterministic — independent of hash order.
///
/// Built once per [`flat_check`] run by [`FlatLayers::build`] and shared
/// read-only by its width, spacing, and contact-over-gate phases.
#[derive(Debug, Clone, Default)]
pub struct FlatLayers {
    layers: Vec<(LayerId, Region)>,
}

impl FlatLayers {
    /// Flattens the layout and unions its geometry per mask layer, in
    /// ascending layer-id order: all topology discarded, exactly what a
    /// mask-level checker sees.
    pub fn build(layout: &Layout, tech: &Technology) -> FlatLayers {
        let flat = flatten(layout);
        let mut rects_per_layer: HashMap<LayerId, Vec<Rect>> = HashMap::new();
        for e in &flat {
            let Some(layer) = tech.layer_by_cif(layout.layer_name(e.layer)) else {
                continue; // unknown layers are the hierarchical front end's report
            };
            rects_per_layer
                .entry(layer)
                .or_default()
                .extend(e.shape.rects());
        }
        let mut layers: Vec<(LayerId, Region)> = (rects_per_layer.into_iter())
            .map(|(l, rects)| (l, Region::from_rects(rects)))
            .collect();
        layers.sort_by_key(|(l, _)| *l);
        FlatLayers { layers }
    }

    /// The union for one layer, if any geometry was drawn on it.
    pub fn get(&self, layer: LayerId) -> Option<&Region> {
        self.layers
            .binary_search_by_key(&layer, |(l, _)| *l)
            .ok()
            .map(|i| &self.layers[i].1)
    }

    /// `(layer, union)` pairs in ascending layer-id order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &Region)> {
        self.layers.iter().map(|(l, r)| (*l, r))
    }

    /// Number of layers with geometry.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the layout drew on no known layer.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The union of the first layer of the given kind, if drawn.
    fn kind_region(&self, tech: &Technology, kind: LayerKind) -> Option<&Region> {
        self.iter()
            .find(|(l, _)| tech.layer(*l).kind == kind)
            .map(|(_, r)| r)
    }
}

/// Width phase: orthogonal shrink-expand-compare per eligible layer, in
/// layer order.
fn flat_width_checks(layers: &FlatLayers, tech: &Technology) -> Vec<Violation> {
    let mut out = Vec::new();
    for (layer, region) in layers.iter() {
        let info = tech.layer(layer);
        if !(info.kind.is_interconnect() || info.kind == LayerKind::Contact) || region.is_empty() {
            continue;
        }
        let min_w = info.min_width;
        out.extend(
            shrink_expand_compare(region, min_w)
                .into_iter()
                .map(|v| Violation {
                    stage: CheckStage::Elements,
                    kind: ViolationKind::Width {
                        layer: info.name.clone(),
                        measured: v.measured,
                        required: min_w,
                    },
                    location: Some(v.location),
                    context: "flat".to_string(),
                }),
        );
    }
    out
}

/// Spacing phase: orthogonal expand-check-overlap between connected
/// components (same layer) and disjoint cross-layer features, in the
/// rule matrix's entry order. No net information exists.
fn flat_spacing_checks(layers: &FlatLayers, tech: &Technology) -> Vec<Violation> {
    let metric = SizingMode::Orthogonal;
    let mut out = Vec::new();
    for (a, b, rule) in tech.rules().entries() {
        let required = rule.diff_net;
        if a == b {
            let Some(region) = layers.get(a) else {
                continue;
            };
            let comps = region.components();
            for (i, ci) in comps.iter().enumerate() {
                for cj in &comps[i + 1..] {
                    for v in check_region_spacing(ci, cj, required, metric) {
                        out.push(spacing_violation(tech, a, a, &v));
                    }
                }
            }
        } else if let (Some(ra), Some(rb)) = (layers.get(a), layers.get(b)) {
            // Overlapping cross-layer geometry is assumed intentional (a
            // transistor, a contact): the mask-level checker cannot know
            // better. Only disjoint features are spacing-checked — so it
            // misses accidental crossings entirely (Fig. 8).
            for v in check_region_spacing(ra, rb, required, metric) {
                out.push(spacing_violation(tech, a, b, &v));
            }
        }
    }
    out
}

/// The mask-level Fig. 7 rule: no contact over the "active gate",
/// defined — wrongly, as the paper points out — as poly ∩ diffusion.
fn flat_gate_checks(layers: &FlatLayers, tech: &Technology) -> Vec<Violation> {
    let mut violations = Vec::new();
    let poly = layers.kind_region(tech, LayerKind::Poly);
    let diff = layers.kind_region(tech, LayerKind::Diffusion);
    let contact = layers.kind_region(tech, LayerKind::Contact);
    if let (Some(poly), Some(diff), Some(contact)) = (poly, diff, contact) {
        let gate = poly.intersection(diff);
        let bad = contact.intersection(&gate);
        for comp in bad.components() {
            violations.push(Violation {
                stage: CheckStage::PrimitiveSymbols,
                kind: ViolationKind::DeviceRule {
                    device_type: "mask-level".to_string(),
                    rule: "contact over poly∩diff (mask-level gate definition)".to_string(),
                },
                location: comp.bbox(),
                context: "flat".to_string(),
            });
        }
    }
    violations
}

/// Runs the flat checker: union per layer, then the width, spacing, and
/// contact-over-gate phases, in that order.
pub fn flat_check(layout: &Layout, tech: &Technology) -> Vec<Violation> {
    let layers = FlatLayers::build(layout, tech);
    let mut violations = flat_width_checks(&layers, tech);
    violations.extend(flat_spacing_checks(&layers, tech));
    violations.extend(flat_gate_checks(&layers, tech));
    violations
}

fn spacing_violation(
    tech: &Technology,
    a: LayerId,
    b: LayerId,
    v: &diic_geom::spacing::SpacingViolation,
) -> Violation {
    Violation {
        stage: CheckStage::Interactions,
        kind: ViolationKind::Spacing {
            layer_a: tech.layer(a).name.clone(),
            layer_b: tech.layer(b).name.clone(),
            measured: v.measured,
            required: v.required,
            same_net: false, // the flat checker has no concept of nets
        },
        location: Some(v.location),
        context: "flat".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn run(cif: &str) -> Vec<Violation> {
        let layout = parse(cif).unwrap();
        flat_check(&layout, &nmos_technology())
    }

    #[test]
    fn clean_rails_pass() {
        let v = run("L NM; B 10000 750 5000 375; B 10000 750 5000 3000; E");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn width_violation_found() {
        let v = run("L NM; B 2000 700 1000 350; E");
        assert!(v
            .iter()
            .any(|x| matches!(x.kind, ViolationKind::Width { .. })));
    }

    #[test]
    fn fig5a_same_net_false_error() {
        // Two features of one (declared!) net too close: the flat checker
        // has no nets and flags them anyway.
        let v = run("L NM; 9N A; B 2000 750 1000 375; 9N A; B 2000 750 1000 1625; E");
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0].kind, ViolationKind::Spacing { .. }));
    }

    #[test]
    fn fig8_accidental_crossing_unchecked() {
        // Poly accidentally crossing diffusion: the flat checker reports
        // NOTHING (it assumes a legal transistor) — an unchecked error.
        let v = run("L NP; W 500 0 1000 3000 1000; L ND; W 500 1500 0 1500 2000; E");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fig4_orthogonal_corner_false_error() {
        // Corners at L2 ≈ 778 (legal) but L∞ = 550 (< 750): false error
        // under the orthogonal expand-check-overlap baseline.
        let v = run("L NM; B 1000 750 500 375; B 1000 750 2050 1675; E");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn mask_level_contact_rule_flags_butting_contact() {
        // A (perfectly legal) butting contact: contact over poly∩diff.
        let v = run("DS 1; 9D BUTTING_CONTACT;
             L NP; B 1000 1000 0 -250; L ND; B 1000 1000 0 250;
             L NC; B 500 500 0 0; L NM; B 1000 1000 0 0; DF;
             C 1; E");
        assert!(
            v.iter().any(
                |x| matches!(&x.kind, ViolationKind::DeviceRule { rule, .. } if rule.contains("contact over"))
            ),
            "{v:?}"
        );
    }

    #[test]
    fn flat_layers_sorted_and_queryable() {
        let layout = parse("L NM; B 1000 750 0 0; L NP; B 1000 500 5000 0; E").unwrap();
        let tech = nmos_technology();
        let layers = FlatLayers::build(&layout, &tech);
        assert_eq!(layers.len(), 2);
        let ids: Vec<LayerId> = layers.iter().map(|(l, _)| l).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "layer walk must be in ascending id order");
        let metal = tech.layer_by_cif("NM").unwrap();
        assert!(layers.get(metal).is_some());
        assert!(layers.get(tech.layer_by_cif("NI").unwrap()).is_none());
    }
}
