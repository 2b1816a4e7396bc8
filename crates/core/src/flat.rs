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
//! * width = *shrink-expand-compare* (orthogonal, exact; or Euclidean on a
//!   raster, which flags every convex corner — Fig. 4);
//! * spacing = *expand-check-overlap* between connected components
//!   (orthogonal ⇒ L∞ metric with its corner-to-corner false errors, or
//!   Euclidean ⇒ L2);
//! * no nets: electrically equivalent features are flagged (Fig. 5a);
//! * no devices: poly crossing diffusion is assumed to be a legal
//!   transistor (Fig. 8 — accidental crossings go **unchecked**), the
//!   device-dependent base/isolation rule of Fig. 6 cannot be
//!   distinguished (resistor ties are flagged), and a mask-level "no
//!   contact over gate" check flags every butting contact (Fig. 7).
//!
//! The per-layer Boolean/expand-shrink work is embarrassingly parallel:
//! each width job (one mask layer) and spacing job (one component of a
//! same-layer rule entry, or one cross-layer rule entry) is independent.
//! With [`FlatOptions::parallelism`] > 1 the jobs run on the shared
//! scoped worker pool ([`crate::parallel::run_ordered`]) and merge in
//! job order, so serial and parallel runs are **byte-identical**. The
//! job walk itself is deterministic because [`FlatLayers`] keeps the
//! per-layer unions sorted by layer id (never in hash order).

use crate::parallel::{effective_parallelism, run_ordered};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::{flatten, Layout};
use diic_geom::raster::euclidean_shrink_expand_compare;
use diic_geom::spacing::check_region_spacing;
use diic_geom::width::shrink_expand_compare;
use diic_geom::{Coord, Rect, Region, SizingMode};
use diic_tech::{LayerId, LayerKind, Technology};
use std::collections::HashMap;

/// Baseline options.
#[derive(Debug, Clone, Copy)]
pub struct FlatOptions {
    /// Sizing/distance flavour for both width and spacing baselines.
    pub metric: SizingMode,
    /// Raster resolution for Euclidean shrink-expand-compare.
    pub raster_resolution: i64,
    /// Apply the mask-level "no contact over poly∩diff" rule (Fig. 7).
    pub contact_over_gate_rule: bool,
    /// Worker threads for the per-layer Boolean/expand-shrink work.
    /// `1` (the default) runs [`flat_check`] serially; `0` uses all
    /// available cores — the same clamping as
    /// [`crate::CheckOptions::parallelism`], via the shared
    /// [`effective_parallelism`]. Any value yields byte-identical
    /// reports. This is the baseline's only worker knob:
    /// `CheckOptions::parallelism` governs the DIIC pipeline alone.
    pub parallelism: usize,
}

impl Default for FlatOptions {
    fn default() -> Self {
        FlatOptions {
            metric: SizingMode::Orthogonal,
            raster_resolution: 25,
            contact_over_gate_rule: true,
            parallelism: 1,
        }
    }
}

impl FlatOptions {
    /// The effective worker count for a [`flat_check`] run — `0`
    /// clamped to all cores through the same function that resolves
    /// `CheckOptions::parallelism`.
    pub fn effective_parallelism(&self) -> usize {
        effective_parallelism(self.parallelism)
    }
}

/// The per-mask-layer unions the flat baseline operates on, **sorted by
/// layer id** so every downstream walk (and hence the violation order)
/// is deterministic — independent of hash order and worker count.
///
/// Built once per [`flat_check`] run by [`FlatLayers::build`] and shared
/// read-only by its width, spacing, and contact-over-gate phases.
#[derive(Debug, Clone, Default)]
pub struct FlatLayers {
    layers: Vec<(LayerId, Region)>,
}

impl FlatLayers {
    /// Flattens the layout and unions its geometry per mask layer: all
    /// topology discarded, exactly what a mask-level checker sees. The
    /// flatten walk is serial (it is a fraction of the Boolean work);
    /// each layer's union is an independent pure job spread across
    /// `workers` scoped threads ([`run_ordered`]) in ascending layer-id
    /// order, so any worker count produces a byte-identical artefact.
    pub fn build(layout: &Layout, tech: &Technology, workers: usize) -> FlatLayers {
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
        let mut keyed: Vec<(LayerId, Vec<Rect>)> = rects_per_layer.into_iter().collect();
        keyed.sort_by_key(|(l, _)| *l);
        let unions = run_ordered(keyed.len(), workers, |k| {
            Region::from_rects(keyed[k].1.iter().copied())
        });
        FlatLayers {
            layers: keyed.iter().map(|(l, _)| *l).zip(unions).collect(),
        }
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

/// Width phase: shrink-expand-compare per layer, one job per eligible
/// layer, merged in layer order.
fn flat_width_checks(
    layers: &FlatLayers,
    tech: &Technology,
    options: &FlatOptions,
    workers: usize,
) -> Vec<Violation> {
    let eligible: Vec<(LayerId, &Region)> = layers
        .iter()
        .filter(|(layer, region)| {
            let info = tech.layer(*layer);
            (info.kind.is_interconnect() || info.kind == LayerKind::Contact) && !region.is_empty()
        })
        .collect();
    run_ordered(eligible.len(), workers, |k| {
        let (layer, region) = eligible[k];
        let info = tech.layer(layer);
        let min_w = info.min_width;
        let mut out = Vec::new();
        match options.metric {
            SizingMode::Orthogonal => {
                for v in shrink_expand_compare(region, min_w) {
                    out.push(Violation {
                        stage: CheckStage::Elements,
                        kind: ViolationKind::Width {
                            layer: info.name.clone(),
                            measured: v.measured,
                            required: min_w,
                        },
                        location: Some(v.location),
                        context: "flat".to_string(),
                    });
                }
            }
            SizingMode::Euclidean => {
                for loc in euclidean_shrink_expand_compare(region, min_w, options.raster_resolution)
                {
                    out.push(Violation {
                        stage: CheckStage::Elements,
                        kind: ViolationKind::Width {
                            layer: info.name.clone(),
                            measured: loc.min_side().min(min_w - 1),
                            required: min_w,
                        },
                        location: Some(loc),
                        context: "flat".to_string(),
                    });
                }
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One unit of the spacing phase's deterministic job list.
enum SpacingJob<'a> {
    /// Check component `i` of a same-layer entry against components
    /// `i+1..` (indices into the per-entry component store).
    Same {
        entry: usize,
        layer: LayerId,
        required: Coord,
        i: usize,
    },
    /// Check one disjoint cross-layer rule entry over the two layers'
    /// unions.
    Cross {
        a: LayerId,
        b: LayerId,
        ra: &'a Region,
        rb: &'a Region,
        required: Coord,
    },
}

/// Spacing phase: expand-check-overlap between connected components
/// (same layer) and disjoint cross-layer features, per the rule matrix.
/// No net information exists. Jobs follow the matrix's deterministic
/// entry order — per-component for same-layer entries (the quadratic
/// part), per-entry for cross-layer ones — and merge in job order.
fn flat_spacing_checks(
    layers: &FlatLayers,
    tech: &Technology,
    options: &FlatOptions,
    workers: usize,
) -> Vec<Violation> {
    // Connected components per same-layer entry, computed once up front
    // and shared read-only by the jobs.
    let mut components: Vec<Vec<Region>> = Vec::new();
    let mut jobs: Vec<SpacingJob> = Vec::new();
    for (a, b, rule) in tech.rules().entries() {
        let required = rule.diff_net;
        if a == b {
            let Some(region) = layers.get(a) else {
                continue;
            };
            let comps = region.components();
            let entry = components.len();
            jobs.extend(
                (0..comps.len().saturating_sub(1)).map(|i| SpacingJob::Same {
                    entry,
                    layer: a,
                    required,
                    i,
                }),
            );
            components.push(comps);
        } else if let (Some(ra), Some(rb)) = (layers.get(a), layers.get(b)) {
            jobs.push(SpacingJob::Cross {
                a,
                b,
                ra,
                rb,
                required,
            });
        }
    }
    run_ordered(jobs.len(), workers, |k| {
        let mut out = Vec::new();
        match jobs[k] {
            SpacingJob::Same {
                entry,
                layer,
                required,
                i,
            } => {
                let comps = &components[entry];
                for j in (i + 1)..comps.len() {
                    for v in check_region_spacing(&comps[i], &comps[j], required, options.metric) {
                        out.push(spacing_violation(tech, layer, layer, &v));
                    }
                }
            }
            SpacingJob::Cross {
                a,
                b,
                ra,
                rb,
                required,
            } => {
                // Overlapping cross-layer geometry is assumed intentional (a
                // transistor, a contact): the mask-level checker cannot know
                // better. Only disjoint features are spacing-checked — so it
                // misses accidental crossings entirely (Fig. 8).
                for v in check_region_spacing(ra, rb, required, options.metric) {
                    out.push(spacing_violation(tech, a, b, &v));
                }
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
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
/// contact-over-gate phases (in that order), parallel per
/// [`FlatOptions::parallelism`].
pub fn flat_check(layout: &Layout, tech: &Technology, options: &FlatOptions) -> Vec<Violation> {
    let workers = options.effective_parallelism();
    let layers = FlatLayers::build(layout, tech, workers);
    let mut violations = flat_width_checks(&layers, tech, options, workers);
    violations.extend(flat_spacing_checks(&layers, tech, options, workers));
    if options.contact_over_gate_rule {
        violations.extend(flat_gate_checks(&layers, tech));
    }
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
        flat_check(&layout, &nmos_technology(), &FlatOptions::default())
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
    fn euclidean_sec_flags_corners_of_legal_square() {
        // A perfectly legal metal square: Euclidean shrink-expand-compare
        // reports four corner slivers (Fig. 4's classic false errors).
        let layout = parse("L NM; B 3000 3000 1500 1500; E").unwrap();
        let v = flat_check(
            &layout,
            &nmos_technology(),
            &FlatOptions {
                metric: SizingMode::Euclidean,
                raster_resolution: 10,
                ..FlatOptions::default()
            },
        );
        let widths = v
            .iter()
            .filter(|x| matches!(x.kind, ViolationKind::Width { .. }))
            .count();
        assert_eq!(widths, 4, "{v:?}");
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
        let layers = FlatLayers::build(&layout, &tech, 1);
        assert_eq!(layers.len(), 2);
        let ids: Vec<LayerId> = layers.iter().map(|(l, _)| l).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "layer walk must be in ascending id order");
        let metal = tech.layer_by_cif("NM").unwrap();
        assert!(layers.get(metal).is_some());
        assert!(layers.get(tech.layer_by_cif("NI").unwrap()).is_none());
    }

    #[test]
    fn parallel_flat_is_byte_identical() {
        // A layout exercising all three phases: narrow wire (width),
        // close wires (same-layer spacing), poly near diff (cross-layer
        // spacing via the matrix), butting contact (gate rule).
        let cif = "DS 1; 9D BUTTING_CONTACT;
             L NP; B 1000 1000 0 -250; L ND; B 1000 1000 0 250;
             L NC; B 500 500 0 0; L NM; B 1000 1000 0 0; DF;
             C 1;
             L NM; B 2000 700 9000 350;
             L NM; B 2000 750 9000 2000; B 2000 750 9000 2500;
             E";
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let serial = flat_check(&layout, &tech, &FlatOptions::default());
        assert!(!serial.is_empty());
        for workers in [2usize, 3, 8, 0] {
            let parallel = flat_check(
                &layout,
                &tech,
                &FlatOptions {
                    parallelism: workers,
                    ..FlatOptions::default()
                },
            );
            assert_eq!(serial, parallel, "workers={workers}: flat reports diverge");
        }
    }

    #[test]
    fn zero_parallelism_clamps_like_check_options() {
        // The cross-validation contract: FlatOptions resolves 0 through
        // the same effective_parallelism as CheckOptions.
        let opts = FlatOptions {
            parallelism: 0,
            ..FlatOptions::default()
        };
        assert_eq!(
            opts.effective_parallelism(),
            crate::parallel::effective_parallelism(0)
        );
        assert!(opts.effective_parallelism() >= 1);
    }
}
