//! Stage 4 — "check legal connections": skeletal connectivity.
//!
//! "In doing this, elements which interact and are on the same layer are
//! checked against the connection rules for legal connections. The legal
//! connection criterion used here is that of skeletal connectivity. \[...\]
//! Note that if two elements are each of legal width and are skeletally
//! connected, then the union of the elements is of legal width."
//!
//! This stage also enforces declared-device typing (Fig. 8): interconnect
//! on a device-forming layer pair (poly × diffusion) that overlaps outside
//! a device symbol is an **undeclared device** — the single biggest class
//! of unchecked errors in mask-level checkers, which "will not recognize
//! the accidental crossing of poly and diffusion as an error since it
//! forms a legal transistor".
//!
//! # Parallelism
//!
//! A connection verdict (touch + skeletal connectivity, or the Fig. 8
//! cross-layer overlap test) is a pure function of one element pair, so
//! the stage shards like the interaction search: the elements are
//! indexed once in one [`GridIndex`], the index's insertion-order
//! [`GridIndex::tiles`] partition the id space, and each worker scans
//! one tile's elements against the shared index
//! ([`check_connections_parallel`], driven by
//! [`CheckOptions::parallelism`](crate::CheckOptions::parallelism)). A
//! pair spanning two tiles is owned by its **lower element's tile** (the
//! scan keeps only `j > i` — the same ownership rule the tiled
//! interaction search uses), so every candidate pair is scored exactly
//! once, and the per-tile results — violations, merges,
//! `pairs_examined` — merge positionally
//! ([`run_ordered`]): any worker count is
//! byte-identical to serial, which the seventh differential-oracle leg
//! (`tests/differential.rs`) pins on generated chips.
//!
//! The incremental checker's scoped pass ([`check_connections_among`])
//! stays serial — its seed sets are already edit-sized.

use crate::binding::ChipView;
use crate::parallel::run_ordered;
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_geom::{batch, GridIndex};
use diic_tech::{DeviceClass, InternalRule, LayerId, Technology};
use std::collections::HashSet;

/// Output of the connection-checking stage.
#[derive(Debug, Clone, Default)]
pub struct ConnectionResult {
    /// Violations (illegal connections, implied devices).
    pub violations: Vec<Violation>,
    /// Element-id pairs found legally connected (to merge in net-list
    /// generation).
    pub merges: Vec<(usize, usize)>,
    /// Number of same-layer touching pairs examined.
    pub pairs_examined: usize,
}

/// True if a device class joins all of its elements into one net
/// (contacts of all kinds).
pub fn is_joining_class(class: Option<DeviceClass>) -> bool {
    matches!(
        class,
        Some(DeviceClass::Contact)
            | Some(DeviceClass::ButtingContact)
            | Some(DeviceClass::BuriedContact)
    )
}

/// The layer pairs whose interconnect overlap forms an undeclared device,
/// derived from the technology's archetypes: any `RequiresOverlap { a, b }`
/// rule on interconnect layers.
pub fn device_forming_pairs(tech: &Technology) -> HashSet<(LayerId, LayerId)> {
    let mut out = HashSet::new();
    for dev in tech.devices() {
        for rule in &dev.internal_rules {
            if let InternalRule::RequiresOverlap { a, b } = rule {
                if tech.layer(*a).kind.is_interconnect() && tech.layer(*b).kind.is_interconnect() {
                    let (x, y) = if a <= b { (*a, *b) } else { (*b, *a) };
                    out.insert((x, y));
                }
            }
        }
    }
    out
}

/// Elements per tile for [`check_connections_parallel`] — the same
/// insertion-order tile width the tiled interaction search defaults to,
/// for the same reason: small enough that a tile is cache-friendly,
/// large enough that tile bookkeeping is noise.
const CONNECT_TILE_ELEMENTS: usize = crate::interact::DEFAULT_TILE_ELEMENTS;

/// Runs the connection checks over the instantiated chip, serially —
/// [`check_connections_parallel`] with one worker.
pub fn check_connections(view: &ChipView, tech: &Technology) -> ConnectionResult {
    check_connections_parallel(view, tech, 1)
}

/// [`check_connections`] with the element scan sharded by grid tile
/// across `workers` scoped threads.
///
/// One [`GridIndex`] over every element is built and shared; its
/// insertion-order [`GridIndex::tiles`] are the work units. Each tile
/// job scans its elements against the whole index, keeping only pairs
/// `j > i` — a pair spanning tiles is owned by its lower element's tile,
/// so every pair is scored exactly once — and the per-tile results merge
/// positionally: **any worker count yields a byte-identical
/// [`ConnectionResult`]** (violations, merges, and `pairs_examined`).
pub fn check_connections_parallel(
    view: &ChipView,
    tech: &Technology,
    workers: usize,
) -> ConnectionResult {
    let forming = device_forming_pairs(tech);
    let mut index: GridIndex<usize> = GridIndex::new(crate::interact::interaction_cell_size(tech));
    // One pass down the dense bbox column — no per-element structs.
    for (id, bbox) in view.elements.bboxes().iter().enumerate() {
        index.insert(*bbox, id);
    }
    // Slots are element ids (inserted in id order), so the tile ranges
    // partition the id space in ascending order.
    let tiles: Vec<std::ops::Range<u32>> = index.tiles(CONNECT_TILE_ELEMENTS).collect();
    let shards = run_ordered(tiles.len(), workers, |k| {
        let mut shard = ConnectionResult::default();
        for i in tiles[k].clone() {
            scan_element(view, tech, &index, &forming, i as usize, &mut shard);
        }
        shard
    });
    let mut result = ConnectionResult::default();
    for mut shard in shards {
        result.violations.append(&mut shard.violations);
        result.merges.append(&mut shard.merges);
        result.pairs_examined += shard.pairs_examined;
    }
    result
}

/// Runs the connection checks over the pairs **among** the given
/// elements only (ascending ids). This is the incremental checker's
/// scoped pass: a connection verdict (touch + skeletal connectivity) is
/// a pure pair function, so pairs with an endpoint outside the seed set
/// keep their cached verdicts, and every pair whose verdict could have
/// changed has both endpoints in the seed set (any element whose
/// geometry changed — or that sits inside the dirty footprint a changed
/// element left behind — is a seed).
pub fn check_connections_among(
    view: &ChipView,
    tech: &Technology,
    ids: &[usize],
) -> ConnectionResult {
    let mut result = ConnectionResult::default();
    let forming = device_forming_pairs(tech);

    // Index the seed elements by bbox, with cells sized from the
    // technology's rule reach (see `interact::interaction_cell_size`).
    let mut index: GridIndex<usize> = GridIndex::new(crate::interact::interaction_cell_size(tech));
    for &id in ids {
        index.insert(view.elements.bboxes()[id], id);
    }

    for &i in ids {
        scan_element(view, tech, &index, &forming, i, &mut result);
    }
    result
}

/// Scores every candidate pair `(i, j)` with `j > i` for one element —
/// the **single** scan body behind the serial scoped pass
/// ([`check_connections_among`]) and the tiled parallel one
/// ([`check_connections_parallel`]), so the byte-identity contract
/// between them cannot drift. [`GridIndex::query`] returns ids in
/// ascending insertion order, so each element's pairs come out sorted.
fn scan_element(
    view: &ChipView,
    tech: &Technology,
    index: &GridIndex<usize>,
    forming: &HashSet<(LayerId, LayerId)>,
    i: usize,
    result: &mut ConnectionResult,
) {
    let a = view.elements.get(i);
    for &j in index.query(&a.bbox()) {
        if j <= i {
            continue;
        }
        let b = view.elements.get(j);
        // Pairs within one device instance are stage-3 territory.
        if a.device().is_some() && a.device() == b.device() {
            continue;
        }
        // The covered rectangles are contiguous arena runs — the touch
        // test is a batch pair sweep over two plain slices.
        if !batch::any_touch(a.rects(), b.rects()) {
            continue;
        }

        if a.layer() == b.layer() {
            result.pairs_examined += 1;
            handle_same_layer(view, tech, i, j, result);
        } else {
            // Cross-layer overlap on a device-forming pair = implied
            // device (Fig. 8), unless it is a device's own geometry
            // overlapping — the declared-device case handled above by
            // the same-instance skip; a device element overlapping
            // *another* instance's geometry is still parasitic.
            let key = if a.layer() <= b.layer() {
                (a.layer(), b.layer())
            } else {
                (b.layer(), a.layer())
            };
            if forming.contains(&key) && batch::any_overlap(a.rects(), b.rects()) {
                result.violations.push(Violation {
                    stage: CheckStage::Connections,
                    kind: ViolationKind::ImpliedDevice {
                        layer_a: tech.layer(a.layer()).name.clone(),
                        layer_b: tech.layer(b.layer()).name.clone(),
                    },
                    location: overlap_bbox(view, i, j),
                    context: context_of(view, i, j),
                });
            }
        }
    }
}

fn handle_same_layer(
    view: &ChipView,
    tech: &Technology,
    i: usize,
    j: usize,
    result: &mut ConnectionResult,
) {
    let a = view.elements.get(i);
    let b = view.elements.get(j);
    let a_join = a
        .device()
        .map(|d| is_joining_class(view.devices[d].class))
        .unwrap_or(false);
    let b_join = b
        .device()
        .map(|d| is_joining_class(view.devices[d].class))
        .unwrap_or(false);

    match (a.device().is_some(), b.device().is_some()) {
        (false, false) => {
            // Interconnect ↔ interconnect: skeletal connectivity
            // decides — an overlap sweep over the two skeleton arena
            // runs (an empty run is an under-width element, which
            // cannot legally connect; `any_overlap` is vacuously false).
            let connected = batch::any_overlap(a.skeleton(), b.skeleton());
            if connected {
                result.merges.push((i, j));
            } else {
                result.violations.push(Violation {
                    stage: CheckStage::Connections,
                    kind: ViolationKind::IllegalConnection {
                        layer: tech.layer(a.layer()).name.clone(),
                    },
                    location: overlap_bbox(view, i, j),
                    context: context_of(view, i, j),
                });
            }
        }
        // A contact-class device joins everything it touches on its layers.
        (true, false) if a_join => result.merges.push((i, j)),
        (false, true) if b_join => result.merges.push((i, j)),
        (true, true) if a_join && b_join => result.merges.push((i, j)),
        // Transistor/resistor geometry connects only through declared
        // terminals (net-list generation handles those); silent here.
        _ => {}
    }
}

fn overlap_bbox(view: &ChipView, i: usize, j: usize) -> Option<diic_geom::Rect> {
    let bb = view.elements.bboxes();
    bb[i].intersection(&bb[j]).or(Some(bb[i]))
}

fn context_of(view: &ChipView, i: usize, j: usize) -> String {
    let a = view.str(view.elements.paths()[i]);
    let b = view.str(view.elements.paths()[j]);
    if a == b {
        a.to_string()
    } else if a.is_empty() || b.is_empty() {
        format!("{a}{b}")
    } else {
        format!("{a} / {b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    fn run(cif: &str) -> ConnectionResult {
        let layout = parse(cif).unwrap();
        let tech = nmos_technology();
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let view = instantiate(&layout, &tech, &binding, 1, Default::default()).0;
        check_connections(&view, &tech)
    }

    #[test]
    fn overlapping_wires_merge() {
        // Two metal wires overlapping by a full min width.
        let r = run("L NM; 9N A; B 2000 750 1000 375; 9N B; B 2000 750 2200 375; E");
        assert_eq!(r.merges.len(), 1);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn fig15_butted_boxes_flagged() {
        // Touching end to end without overlap: not skeletally connected.
        let r = run("L NM; B 2000 750 1000 375; B 2000 750 3000 375; E");
        assert!(r.merges.is_empty());
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::IllegalConnection { .. }
        ));
    }

    #[test]
    fn fig8_accidental_transistor_flagged() {
        // Poly interconnect crossing diffusion interconnect: implied device.
        let r = run("L NP; W 500 0 1000 3000 1000; L ND; W 500 1500 0 1500 2000; E");
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::ImpliedDevice { .. }
        ));
    }

    #[test]
    fn declared_transistor_not_flagged() {
        // The same crossing inside a declared device symbol: fine.
        let r =
            run("DS 1; 9D NMOS_ENH; L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF; C 1; E");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn poly_wire_over_foreign_transistor_diff_flagged() {
        // A poly wire crossing a *device's* diffusion is still parasitic.
        let r = run(
            "DS 1; 9D NMOS_ENH; L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF;
             C 1 T 0 0;
             L NP; W 500 -2000 750 2000 750; E",
        );
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::ImpliedDevice { .. })));
    }

    #[test]
    fn metal_crossing_everything_is_fine() {
        let r = run("L NM; W 750 0 0 5000 0; L NP; W 500 2000 -2000 2000 2000; E");
        assert!(r.violations.is_empty());
        assert!(r.merges.is_empty());
    }

    #[test]
    fn contact_device_joins_touching_interconnect() {
        let r = run("DS 1; 9D CONTACT_D;
             L NC; B 500 500 0 0; L ND; B 1000 1000 0 0; L NM; B 1000 1000 0 0; DF;
             C 1 T 0 0;
             L NM; 9N OUT; W 750 0 0 5000 0;
             L ND; 9N OUT; W 500 0 0 -5000 0; E");
        // Metal wire merges with contact metal; diff wire with contact diff.
        assert_eq!(r.merges.len(), 2, "{:?}", r.violations);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn transistor_geometry_does_not_join_by_touch() {
        // A diff wire overlapping a transistor's diffusion merges nothing
        // here (terminal connections are net-list generation's job).
        let r = run(
            "DS 1; 9D NMOS_ENH; L NP; B 1500 500 250 0; L ND; B 500 2500 250 0; DF;
             C 1 T 0 0;
             L ND; W 500 250 -1000 250 -4000; E",
        );
        assert!(r.merges.is_empty());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn under_width_touch_is_illegal_connection() {
        // A legal wire touched by an under-width stub: the stub has no
        // skeleton, so the connection is illegal (plus the stub is a width
        // violation from stage 2, reported separately).
        let r = run("L NM; B 2000 750 1000 375; B 400 400 2200 375; E");
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(
            r.violations[0].kind,
            ViolationKind::IllegalConnection { .. }
        ));
    }
}
