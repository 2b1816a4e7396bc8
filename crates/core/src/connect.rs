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
//! # One verdict per definition
//!
//! A connection verdict (touch + skeletal connectivity, or the Fig. 8
//! cross-layer overlap test) is a pure function of one element pair —
//! its layers, rectangles, skeletons and device classes. Translating both
//! elements by one offset changes none of them, and
//! [`crate::instantiate`] only ever translates what it derived per
//! `(symbol, orientation)`. So [`check_connections`] follows the scope
//! table's pair plan at reach 0 ([`ScopeTable::rows`]) and scores each
//! row — a definition's interior, or two touching definitions at one
//! relative placement — once, into a *verdict row* of `(local i, local
//! j, verdict)` entries plus the row's `pairs_examined`, by running the
//! per-pair body (`score_pair`) over the scan that fills it. Every other
//! instance is an id-offset stamp of the row; its violations are
//! rendered per instance, from its own elements. (The orientation is in
//! both keys because rectangle and skeleton decompositions are
//! translation- but not rotation-equivariant.) Pairs with a loose
//! top-level element on either side are scored by the plan's loose
//! scans, by the same body. Rows live for one call.
//!
//! The direct scan — every element against one grid over all of them —
//! is the base case of the plan, not a second path: a chip of loose
//! elements only builds exactly that one index and scans it tile by
//! tile, and the result for any chip is **byte-identical** to
//! [`check_connections_among`] over all ids (violations, merges and
//! `pairs_examined`, in ascending `(i, j)` order), which a proptest pins
//! in debug and release builds.
//!
//! # Parallelism
//!
//! The scans that fill the rows, and the loose scans, are cut into the
//! plan's tiles ([`Scan::tiles`]) and run across `workers` scoped
//! threads ([`run_ordered`]); a pair is scored exactly once whatever the
//! tiling, and the assembly orders verdicts by their element ids, not by
//! which worker found them, so any worker count yields the same bytes —
//! the seventh differential-oracle leg (`tests/differential.rs`) pins it
//! on generated chips. Stamping is serial: it is a copy.
//!
//! The incremental checker's scoped pass ([`check_connections_among`])
//! stays serial — its seed sets are already edit-sized.

use crate::binding::ChipView;
use crate::interact::interaction_cell_size;
use crate::parallel::run_ordered;
use crate::scope::{Scan, ScopeIds, ScopeStats, ScopeTable};
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

/// What the stage concluded about one touching element pair. (A pair it
/// is silent about — transistor geometry touching interconnect, a
/// cross-layer touch that forms nothing — has no verdict.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Legally connected: one net.
    Merge,
    /// Same-layer interconnect touching without skeletal connectivity.
    IllegalConnection,
    /// Interconnect overlapping on a device-forming layer pair.
    ImpliedDevice,
}

/// The verdicts of one scan — a row, when the scan covered a
/// definition — with element ids `i < j` (chip ids out of a scan, ids
/// local to the two scopes once [`Scored::localize`]d into a row), in
/// ascending `(i, j)` order.
#[derive(Debug, Default)]
struct Scored {
    verdicts: Vec<(usize, usize, Verdict)>,
    /// Same-layer touching pairs among the scored ones.
    examined: usize,
    /// Candidate pairs handed to [`ScanCx::score_pair`].
    scored: u64,
}

impl Scored {
    fn append(&mut self, mut other: Scored) {
        self.verdicts.append(&mut other.verdicts);
        self.examined += other.examined;
        self.scored += other.scored;
    }

    /// Rebases chip ids to scope-local ones: `i` in the scope starting
    /// at `i0`, `j` in the one starting at `j0`.
    fn localize(&mut self, (i0, j0): (usize, usize)) {
        for (i, j, _) in &mut self.verdicts {
            *i -= i0;
            *j -= j0;
        }
    }
}

/// Read-only state of one run of the stage.
struct ScanCx<'a> {
    view: &'a ChipView,
    tech: &'a Technology,
    forming: HashSet<(LayerId, LayerId)>,
    /// Index cells, sized from the technology's rule reach
    /// ([`interaction_cell_size`]).
    cell: diic_geom::Coord,
}

impl<'a> ScanCx<'a> {
    fn new(view: &'a ChipView, tech: &'a Technology) -> Self {
        ScanCx {
            view,
            tech,
            forming: device_forming_pairs(tech),
            cell: interaction_cell_size(tech),
        }
    }

    /// Runs `scan` over the positions `tile` at reach 0 — touching
    /// boxes — scoring each pair it finds into `out`: the **single**
    /// pair loop behind the scoped pass ([`check_connections_among`])
    /// and every scan of the whole-chip one ([`check_connections`]), so
    /// the byte-identity contract between them cannot drift. A scan
    /// yields each element's pairs in ascending order.
    fn score_scan(
        &self,
        scan: &Scan<'_>,
        index: &GridIndex<usize>,
        tile: std::ops::Range<usize>,
        out: &mut Scored,
    ) {
        let bboxes = self.view.elements.bboxes();
        scan.pairs(bboxes, index, 0, tile, |i, j| {
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            out.scored += 1;
            let (examined, verdict) = self.score_pair(lo, hi);
            out.examined += examined as usize;
            if let Some(verdict) = verdict {
                out.verdicts.push((lo, hi, verdict));
            }
        });
    }

    /// The stage's judgement of one pair `i < j` with touching bounding
    /// boxes: whether it counts as examined (same layer, touching) and
    /// the verdict, if there is one.
    fn score_pair(&self, i: usize, j: usize) -> (bool, Option<Verdict>) {
        let view = self.view;
        let a = view.elements.get(i);
        let b = view.elements.get(j);
        // Pairs within one device instance are stage-3 territory.
        if a.device().is_some() && a.device() == b.device() {
            return (false, None);
        }
        // The covered rectangles are contiguous arena runs — the touch
        // test is a batch pair sweep over two plain slices.
        if !batch::any_touch(a.rects(), b.rects()) {
            return (false, None);
        }
        if a.layer() != b.layer() {
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
            let implied = self.forming.contains(&key) && batch::any_overlap(a.rects(), b.rects());
            return (false, implied.then_some(Verdict::ImpliedDevice));
        }
        let joins = |d: Option<usize>| d.is_some_and(|d| is_joining_class(view.devices[d].class));
        let verdict = match (a.device().is_some(), b.device().is_some()) {
            // Interconnect ↔ interconnect: skeletal connectivity
            // decides — an overlap sweep over the two skeleton arena
            // runs (an empty run is an under-width element, which
            // cannot legally connect; `any_overlap` is vacuously false).
            (false, false) => Some(if batch::any_overlap(a.skeleton(), b.skeleton()) {
                Verdict::Merge
            } else {
                Verdict::IllegalConnection
            }),
            // A contact-class device joins everything it touches on its layers.
            (true, false) if joins(a.device()) => Some(Verdict::Merge),
            (false, true) if joins(b.device()) => Some(Verdict::Merge),
            (true, true) if joins(a.device()) && joins(b.device()) => Some(Verdict::Merge),
            // Transistor/resistor geometry connects only through declared
            // terminals (net-list generation handles those); silent here.
            _ => None,
        };
        (true, verdict)
    }

    /// Records one verdict in the result: a merge as the id pair, a
    /// fault rendered from the two elements it is about.
    fn render(&self, (i, j, verdict): (usize, usize, Verdict), result: &mut ConnectionResult) {
        let layer_name = |id: usize| {
            let layer = self.view.elements.layers()[id];
            self.tech.layer(layer).name.clone()
        };
        let kind = match verdict {
            Verdict::Merge => return result.merges.push((i, j)),
            Verdict::IllegalConnection => ViolationKind::IllegalConnection {
                layer: layer_name(i),
            },
            Verdict::ImpliedDevice => ViolationKind::ImpliedDevice {
                layer_a: layer_name(i),
                layer_b: layer_name(j),
            },
        };
        result.violations.push(Violation {
            stage: CheckStage::Connections,
            kind,
            location: overlap_bbox(self.view, i, j),
            context: context_of(self.view, i, j),
        });
    }
}

/// Runs the connection checks over the instantiated chip, following the
/// scope table's pair plan at reach 0 (see the module docs): each
/// definition's interior and each distinct placement of two touching
/// definitions scored once and stamped, everything involving a loose
/// element scored by the loose scans, the scans tiled across `workers`
/// threads.
///
/// Returns the result — **byte-identical, for any worker count, to
/// [`check_connections_among`] over every id** — and the table's
/// [`ScopeStats`] with this run's row-cache counters filled in.
pub fn check_connections(
    view: &ChipView,
    tech: &Technology,
    scopes: &ScopeTable,
    workers: usize,
) -> (ConnectionResult, ScopeStats) {
    let cx = ScanCx::new(view, tech);
    let calls = scopes.calls();
    let plan = scopes.rows(0);
    let mut stats = scopes.stats();

    // The scans: each row that can hold a pair (an interior needs two
    // elements), each with its own index, then the loose scans, which
    // share the first one's. `Some(row)` marks a row's scan.
    let mut scans: Vec<(Option<usize>, Scan<'_>)> = Vec::new();
    for (row, &(_, scan)) in plan.rows.iter().enumerate() {
        if !scan.within || scan.ids.len() >= 2 {
            scans.push((Some(row), scan));
        }
    }
    let rows_built = scans.len();
    scans.extend(plan.loose.iter().map(|&(_, scan)| (None, scan)));
    let bboxes = view.elements.bboxes();
    let index_count = rows_built + usize::from(!plan.loose.is_empty());
    let indexes = run_ordered(index_count, workers, |k| scans[k].1.index(bboxes, cx.cell));
    let tiles: Vec<(usize, std::ops::Range<usize>)> = (scans.iter().enumerate())
        .flat_map(|(k, (_, scan))| scan.tiles().map(move |tile| (k, tile)))
        .collect();
    let parts = run_ordered(tiles.len(), workers, |t| {
        let (k, tile) = tiles[t].clone();
        let mut part = Scored::default();
        cx.score_scan(&scans[k].1, &indexes[k.min(rows_built)], tile, &mut part);
        part
    });
    drop(indexes);
    // Per plan row, its verdicts (`None`: it had nothing to score).
    let mut rows: Vec<Option<Scored>> = plan.rows.iter().map(|_| None).collect();
    let mut loose_scored = Scored::default();
    for (&(k, _), part) in tiles.iter().zip(parts) {
        stats.conn_pairs_scored += part.scored;
        match scans[k].0 {
            Some(row) => rows[row].get_or_insert_with(Scored::default).append(part),
            None => loose_scored.append(part),
        }
    }
    for (row, scored) in rows.iter_mut().enumerate() {
        if let Some(scored) = scored {
            let (si, sj) = plan.rows[row].0;
            scored.localize((calls[si].run().start, calls[sj].run().start));
        }
    }
    // A scope scanned against the loose elements finds pairs on both
    // sides of itself.
    let by_ids = |v: &(usize, usize, Verdict)| (v.0, v.1);
    if !loose_scored.verdicts.is_sorted_by_key(by_ids) {
        loose_scored.verdicts.sort_unstable_by_key(by_ids);
    }

    // Assemble in ascending (i, j): call scopes ascend with their ids,
    // so each scope's verdicts — its interior row, then its rows with
    // later scopes — follow the previous scope's, and the loose
    // verdicts merge in by id.
    let mut result = ConnectionResult {
        pairs_examined: loose_scored.examined,
        ..ConnectionResult::default()
    };
    let mut loose_verdicts = loose_scored.verdicts.into_iter().peekable();
    let mut stamped: Vec<(usize, usize, Verdict)> = Vec::new();
    let mut used = vec![false; rows.len()];
    let mut cross = plan.cross.iter().peekable();
    for (s, &interior) in plan.interior.iter().enumerate() {
        stamped.clear();
        let mut stamp = |row: usize, i0: usize, j0: usize| {
            let Some(row_verdicts) = &rows[row] else {
                return;
            };
            // The first use of a row is the instance that was scored.
            if std::mem::replace(&mut used[row], true) {
                stats.conn_rows_stamped += 1;
                stats.conn_pairs_stamped += row_verdicts.scored;
            }
            let shifted = row_verdicts.verdicts.iter();
            stamped.extend(shifted.map(|&(i, j, v)| (i + i0, j + j0, v)));
            result.pairs_examined += row_verdicts.examined;
        };
        let start = calls[s].run().start;
        stamp(interior, start, start);
        while let Some(&&(_, sj, row)) = cross.peek().filter(|c| c.0 == s) {
            stamp(row, start, calls[sj].run().start);
            cross.next();
        }
        if !stamped.is_sorted_by_key(by_ids) {
            stamped.sort_unstable_by_key(by_ids);
        }
        for &verdict in &stamped {
            while let Some(first) = loose_verdicts.next_if(|l| by_ids(l) < by_ids(&verdict)) {
                cx.render(first, &mut result);
            }
            cx.render(verdict, &mut result);
        }
    }
    for verdict in loose_verdicts {
        cx.render(verdict, &mut result);
    }
    stats.conn_rows_built = rows_built;
    (result, stats)
}

/// Runs the connection checks over the pairs **among** the given
/// elements only (ascending ids), serially, by the direct scan: one grid
/// over the elements, each scored against it. This is the incremental
/// checker's scoped pass: a connection verdict (touch + skeletal
/// connectivity) is a pure pair function, so pairs with an endpoint
/// outside the seed set keep their cached verdicts, and every pair whose
/// verdict could have changed has both endpoints in the seed set (any
/// element whose geometry changed — or that sits inside the dirty
/// footprint a changed element left behind — is a seed). Over every id
/// it is the reference [`check_connections`] is held to.
pub fn check_connections_among(
    view: &ChipView,
    tech: &Technology,
    ids: &[usize],
) -> ConnectionResult {
    let cx = ScanCx::new(view, tech);
    let scan = Scan::direct(ScopeIds::List(ids));
    let mut scored = Scored::default();
    let index = scan.index(view.elements.bboxes(), cx.cell);
    cx.score_scan(&scan, &index, 0..ids.len(), &mut scored);
    let mut result = ConnectionResult {
        pairs_examined: scored.examined,
        ..ConnectionResult::default()
    };
    for verdict in scored.verdicts {
        cx.render(verdict, &mut result);
    }
    result
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
pub(crate) mod tests {
    use super::*;
    use crate::binding::{instantiate, LayerBinding};
    use diic_cif::{parse, Call, DeviceDecl, Element, Item, Layout, Shape, Symbol, Terminal};
    use diic_geom::{Orientation, Point, Rect, Transform, Vector, Wire};
    use diic_tech::nmos::nmos_technology;
    use proptest::prelude::*;

    /// The table-driven result of a layout at each of `workers`, each
    /// asserted equal — field for field, in order — to the direct scan
    /// over all ids; returns the direct scan's result and the stats of
    /// the last table-driven run.
    fn run_layout(
        layout: &diic_cif::Layout,
        tech: &Technology,
        workers: &[usize],
    ) -> (ConnectionResult, ScopeStats) {
        let (binding, _) = LayerBinding::bind(layout, tech);
        let (view, runs) = instantiate(layout, tech, &binding, Default::default());
        let scopes = ScopeTable::build(
            layout.top_items(),
            runs.iter().map(|run| run.0),
            view.elements.bboxes(),
            crate::interact::max_rule_range(tech),
        );
        let all: Vec<usize> = (0..view.elements.len()).collect();
        let direct = check_connections_among(&view, tech, &all);
        let mut stats = ScopeStats::default();
        for &w in workers {
            let (tabled, s) = check_connections(&view, tech, &scopes, w);
            assert_eq!(tabled.violations, direct.violations, "workers={w}");
            assert_eq!(tabled.merges, direct.merges, "workers={w}");
            assert_eq!(tabled.pairs_examined, direct.pairs_examined, "workers={w}");
            stats = s;
        }
        (direct, stats)
    }

    fn run(cif: &str) -> ConnectionResult {
        run_layout(&parse(cif).unwrap(), &nmos_technology(), &[1, 2]).0
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

    #[test]
    fn a_row_of_abutting_cells_is_scored_once_and_stamped() {
        // A metal rail butting into the next cell's (an illegal
        // connection across every boundary), overlapping metal boxes (a
        // merge inside every cell), and one loose wire into cell 2's rail.
        let mut cif = String::from(
            "DS 1; L NM; B 4000 750 2000 375; B 2000 750 1000 2000; B 2000 750 2200 2000; DF;\n",
        );
        for i in 0..5 {
            cif.push_str(&format!("C 1 T {} 0;\n", i * 4000));
        }
        cif.push_str("L NM; W 750 9000 400 9000 -2000;\nE");
        let (r, stats) = run_layout(&parse(&cif).unwrap(), &nmos_technology(), &[1, 3]);
        assert_eq!(r.merges.len(), 5 + 1, "one per cell, one with the wire");
        assert_eq!(r.violations.len(), 4, "{:?}", r.violations);
        assert_eq!(stats.scopes, 6);
        assert_eq!(stats.elements_in_repeated_scopes, 15);
        assert_eq!(stats.conn_rows_built, 2, "one interior, one boundary");
        assert_eq!(stats.conn_rows_stamped, 4 + 3);
        assert!(stats.conn_pairs_stamped > stats.conn_pairs_scored);
    }

    /// A random two-level layout for the stamped ≡ scanned oracle: a few
    /// 4000 × 4000 cells of boxes (some under width), odd-width wires,
    /// butted pairs, poly × diffusion crossings, a rail reaching both
    /// cell edges, exact duplicates and calls of contact and transistor
    /// device symbols; a top level that places them under any
    /// orientation on a pitch that makes neighbours abut, overlap,
    /// coincide or stand apart, with loose boxes and chip-crossing wires
    /// between the calls.
    pub(crate) fn random_layout(rng: &mut TestRng) -> Layout {
        const CELL: i64 = 4000;
        let mut layout = Layout::new();
        let [nm, np, nd, nc] = ["NM", "NP", "ND", "NC"].map(|name| layout.intern_layer(name));
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        let within = |rng: &mut TestRng, span: i64| rng.below(span as u64) as i64;
        let on = |layer, shape| {
            Item::Element(Element {
                layer,
                shape,
                net: None,
            })
        };
        let wire = |width: i64, points: &[(i64, i64)]| {
            let points = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
            Shape::Wire(Wire::new(width, points).unwrap())
        };
        let contact = layout.add_symbol(Symbol {
            cif_id: 90,
            name: None,
            device: Some(DeviceDecl {
                device_type: "CONTACT_D".into(),
                checked: true,
                terminals: Vec::new(),
            }),
            items: vec![
                on(nc, Shape::Box(Rect::new(-250, -250, 250, 250))),
                on(nd, Shape::Box(Rect::new(-500, -500, 500, 500))),
                on(nm, Shape::Box(Rect::new(-500, -500, 500, 500))),
            ],
        });
        let transistor = layout.add_symbol(Symbol {
            cif_id: 91,
            name: None,
            device: Some(DeviceDecl {
                device_type: "NMOS_ENH".into(),
                checked: true,
                terminals: vec![Terminal {
                    name: "G".into(),
                    layer: np,
                    position: Point::new(-375, 0),
                }],
            }),
            items: vec![
                on(np, Shape::Box(Rect::new(-500, -250, 1000, 250))),
                on(nd, Shape::Box(Rect::new(0, -1250, 500, 1250))),
            ],
        });
        let place = |rng: &mut TestRng, target, at: Vector, name: String| {
            // Half the placements upright, so definitions repeat under
            // one orientation; the rest under any of the eight.
            let orient = match pick(rng, 2) {
                0 => Orientation::R0,
                _ => Orientation::ALL[pick(rng, 8)],
            };
            Item::Call(Call {
                target,
                transform: Transform::new(orient, at),
                name,
            })
        };

        let mut cells = vec![contact, transistor];
        for n in 0..1 + pick(rng, 3) {
            let layer = |rng: &mut TestRng| [nm, np, nd][pick(rng, 3)];
            // The rail: abutting neighbours butt it, overlapping ones
            // merge it.
            let mut items = vec![on(nm, Shape::Box(Rect::new(0, 0, CELL, 750)))];
            for k in 0..2 + pick(rng, 5) {
                let (x, y) = (within(rng, CELL - 500), 1000 + within(rng, CELL - 1500));
                let item = match pick(rng, 6) {
                    0 => {
                        // Under-width stubs included.
                        let (w, h) = (300 + within(rng, 2200), 300 + within(rng, 1200));
                        on(layer(rng), Shape::Box(Rect::new(x, y, x + w, y + h)))
                    }
                    1 => {
                        let width = [299, 500, 751, 1001][pick(rng, 4)];
                        let bend = (x + 500 + within(rng, 2500), y);
                        let end = (bend.0, y - 500 - within(rng, 2000));
                        on(layer(rng), wire(width, &[(x, y), bend, end]))
                    }
                    2 => {
                        // A butted pair: the second box follows.
                        let l = layer(rng);
                        items.push(on(l, Shape::Box(Rect::new(x, y, x + 1000, y + 750))));
                        on(l, Shape::Box(Rect::new(x + 1000, y, x + 2000, y + 750)))
                    }
                    3 => {
                        // Poly crossing diffusion inside the definition.
                        items.push(on(np, wire(500, &[(x - 800, y), (x + 800, y)])));
                        on(nd, wire(500, &[(x, y - 800), (x, y + 800)]))
                    }
                    4 => place(rng, contact, Vector::new(x, y), format!("c{k}")),
                    _ => place(rng, transistor, Vector::new(x, y), format!("t{k}")),
                };
                if pick(rng, 5) == 0 {
                    items.push(item.clone()); // an exact duplicate
                }
                items.push(item);
            }
            cells.push(layout.add_symbol(Symbol {
                cif_id: n as u32 + 1,
                name: None,
                device: None,
                items,
            }));
        }

        let pitch = [CELL, CELL - 750, CELL / 2, 3 * CELL][pick(rng, 4)];
        let columns = 2 + pick(rng, 4);
        let span = pitch * columns as i64 + CELL;
        for k in 0..3 + pick(rng, 10) {
            // Mostly the plain cells; a slot can be taken twice.
            let target = cells[cells.len() - 1 - pick(rng, cells.len().min(3))];
            let slot = pick(rng, 2 * columns);
            let at = Vector::new(
                (slot % columns) as i64 * pitch,
                (slot / columns) as i64 * pitch,
            );
            layout.push_top(place(rng, target, at, format!("i{k}")));
            for _ in 0..pick(rng, 3) {
                let (x, y) = (within(rng, span), within(rng, 2 * pitch + CELL));
                let layer = [nm, np, nd][pick(rng, 3)];
                let shape = match pick(rng, 3) {
                    0 => Shape::Box(Rect::new(x, y, x + 300 + within(rng, 3000), y + 750)),
                    1 => wire(751, &[(-1000, y), (span, y)]),
                    _ => wire(500, &[(x, -1000), (x, 2 * pitch + CELL)]),
                };
                layout.push_top(on(layer, shape));
            }
        }
        layout
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Stamped ≡ scanned: the table-driven result equals the direct
        /// scan over all ids — violations, merges and `pairs_examined`,
        /// in order — for any worker count, in release builds too.
        #[test]
        fn table_driven_connections_equal_the_direct_scan(seed in 0u64..u64::MAX) {
            let layout = random_layout(&mut TestRng::for_case(seed, 0));
            run_layout(&layout, &nmos_technology(), &[1, 2, 3, 7]);
        }
    }

    #[test]
    fn the_random_layouts_exercise_every_path() {
        // The oracle above is only as good as its inputs: over its first
        // cases, rows must be stamped, pairs scored directly, and both
        // kinds of fault and merges found.
        let (mut stamped, mut scored, mut merges) = (0, 0, 0);
        let (mut illegal, mut implied) = (0, 0);
        for case in 0..48 {
            let layout = random_layout(&mut TestRng::for_case(7, case));
            let (r, stats) = run_layout(&layout, &nmos_technology(), &[1]);
            stamped += stats.conn_rows_stamped;
            scored += stats.conn_pairs_scored;
            merges += r.merges.len();
            for v in &r.violations {
                match v.kind {
                    ViolationKind::IllegalConnection { .. } => illegal += 1,
                    ViolationKind::ImpliedDevice { .. } => implied += 1,
                    _ => unreachable!("not a connection-stage violation: {v:?}"),
                }
            }
        }
        assert!(stamped > 100, "rows stamped: {stamped}");
        assert!(
            scored > 1000 && merges > 100,
            "scored {scored}, merges {merges}"
        );
        assert!(
            illegal > 50 && implied > 50,
            "illegal {illegal}, implied {implied}"
        );
    }
}
