//! Chip assembly: inverter arrays with chained rows, demo cells, and
//! injected errors.

use crate::cells::{self, ids, PITCH_X, PITCH_Y};
use crate::inject::{ErrorKind, GroundTruthEntry};
use crate::l;
use diic_geom::Rect;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::Write as _;

/// What to generate.
#[derive(Debug, Clone)]
pub struct ChipSpec {
    /// Columns of inverters per row (chained left to right).
    pub nx: usize,
    /// Rows.
    pub ny: usize,
    /// Errors to inject (each consumes one distinct cell).
    pub errors: Vec<ErrorKind>,
    /// Include the butting-contact and resistor demo cells below the array.
    pub demo_cells: bool,
    /// Build the golden (intended) net list for the array. On by
    /// default; [`mega_chip`] turns it off — at 10⁷ elements the golden
    /// net list alone would cost gigabytes, and the mega workloads never
    /// compare against it.
    pub golden_netlist: bool,
    /// RNG seed for error placement.
    pub seed: u64,
    /// Make the inverter *definition* content-unique: `Some(tag)` emits
    /// [`cells::inverter_unique`] (one extra clean same-net box at a
    /// tag-dependent position) instead of the stock [`cells::inverter`]
    /// under the same symbol id. `None` (the default) shares the stock
    /// definition — chips generated with equal tags (or all with
    /// `None`) have content-identical inverter subcells, which is what
    /// the library batch's content-keyed definition shelves share across
    /// cells; distinct tags defeat that sharing on purpose.
    pub unique_tag: Option<u32>,
}

impl ChipSpec {
    /// A clean array.
    pub fn clean(nx: usize, ny: usize) -> Self {
        ChipSpec {
            nx,
            ny,
            errors: Vec::new(),
            demo_cells: true,
            golden_netlist: true,
            seed: 42,
            unique_tag: None,
        }
    }

    /// An array with the given injected errors.
    pub fn with_errors(nx: usize, ny: usize, errors: Vec<ErrorKind>, seed: u64) -> Self {
        ChipSpec {
            errors,
            seed,
            ..ChipSpec::clean(nx, ny)
        }
    }
}

/// A generated chip.
#[derive(Debug, Clone)]
pub struct GeneratedChip {
    /// Extended-CIF text.
    pub cif: String,
    /// Ground truth for the injected errors.
    pub ground_truth: Vec<GroundTruthEntry>,
    /// The intended (golden) net list of the clean array, for consistency
    /// checking. Only meaningful for clean chips.
    pub intended_netlist: diic_netlist::Netlist,
    /// Cells in the array.
    pub cell_count: usize,
}

impl GeneratedChip {
    /// Ground truth in the checker's accounting type.
    pub fn injected(&self) -> Vec<diic_core::InjectedError> {
        self.ground_truth.iter().map(|g| g.to_injected()).collect()
    }
}

/// Generates a chip per the spec.
///
/// # Panics
///
/// Panics if more errors are requested than cells exist (each error needs
/// its own cell).
pub fn generate(spec: &ChipSpec) -> GeneratedChip {
    let total_cells = spec.nx * spec.ny;
    assert!(
        spec.errors.len() <= total_cells,
        "need at least one cell per injected error"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Assign each error a distinct cell.
    let mut cell_order: Vec<usize> = (0..total_cells).collect();
    cell_order.shuffle(&mut rng);
    let assignments: Vec<(ErrorKind, usize)> =
        spec.errors.iter().copied().zip(cell_order).collect();

    let mut cif = String::new();
    let mut ground_truth = Vec::new();

    // Library: base symbols always; broken variants only when used (their
    // definitions would otherwise add un-injected definition errors).
    cells::tenh(&mut cif);
    cells::tdep(&mut cif);
    cells::cd(&mut cif);
    cells::cp(&mut cif);
    match spec.unique_tag {
        Some(tag) => cells::inverter_unique(&mut cif, tag),
        None => cells::inverter(&mut cif),
    }
    if spec.demo_cells {
        cells::bc(&mut cif);
        cells::res(&mut cif);
    }
    let uses = |k: ErrorKind| assignments.iter().any(|(e, _)| *e == k);
    if uses(ErrorKind::DepletionToGround) {
        cells::inverter_dep_gnd(&mut cif);
    }
    if uses(ErrorKind::BadGateOverhang) {
        cells::tenh_short(&mut cif);
        cells::inverter_with_bad_transistor(&mut cif, ids::INV_BAD_TR, ids::TENH_SHORT);
    }
    if uses(ErrorKind::ContactOverGate) {
        cells::tenh_contact(&mut cif);
        cells::inverter_with_bad_transistor(&mut cif, ids::INV_BAD_CONTACT, ids::TENH_CONTACT);
    }

    // Which variant (if any) each cell uses. Built once so the array
    // loop stays O(cells) rather than O(cells × errors) — at mega-chip
    // scale the linear scan per cell would dominate generation.
    let variant_map: std::collections::HashMap<usize, u32> = assignments
        .iter()
        .filter(|(kind, _)| kind.is_variant())
        .map(|(kind, c)| {
            let id = match kind {
                ErrorKind::DepletionToGround => ids::INV_DEP_GND,
                ErrorKind::BadGateOverhang => ids::INV_BAD_TR,
                ErrorKind::ContactOverGate => ids::INV_BAD_CONTACT,
                _ => unreachable!(),
            };
            (*c, id)
        })
        .collect();
    let variant_of = |cell: usize| -> u32 { variant_map.get(&cell).copied().unwrap_or(ids::INV) };

    // The array.
    for row in 0..spec.ny {
        let oy = row as i64 * PITCH_Y;
        for col in 0..spec.nx {
            let ox = col as i64 * PITCH_X;
            let cell = row * spec.nx + col;
            let _ = writeln!(cif, "C {} T {} {};", variant_of(cell), ox, oy);
        }
        // Row I/O labels (exempt from the dangling-net rule).
        let _ = writeln!(cif, "9L IO_IN{} NP 0 {};", row, oy + l(11));
        let _ = writeln!(
            cif,
            "9L IO_OUT{} NP {} {};",
            row,
            (spec.nx as i64 - 1) * PITCH_X + l(22),
            oy + l(11)
        );
    }

    // Demo cells below the array.
    if spec.demo_cells {
        // Butting contact with its three wires.
        let (bx, by) = (l(8), -l(12));
        let _ = writeln!(cif, "C {} T {} {};", ids::BC, bx, by);
        let _ = writeln!(
            cif,
            "L NP; 9N IO_BC; W {} {} {} {} {};",
            l(2),
            bx,
            by - l(2),
            bx,
            by - l(8)
        );
        let _ = writeln!(
            cif,
            "L ND; 9N IO_BC; W {} {} {} {} {};",
            l(2),
            bx,
            by + l(2),
            bx,
            by + l(8)
        );
        let _ = writeln!(
            cif,
            "L NM; 9N IO_BC; W {} {} {} {} {};",
            l(3),
            bx,
            by,
            bx + l(8),
            by
        );
        // Resistor with end wires.
        let (rx, ry) = (l(32), -l(12));
        let _ = writeln!(cif, "C {} T {} {};", ids::RES, rx, ry);
        let _ = writeln!(
            cif,
            "L ND; 9N IO_RA; W {} {} {} {} {};",
            l(2),
            rx,
            ry - l(3),
            rx,
            ry - l(8)
        );
        let _ = writeln!(
            cif,
            "L ND; 9N IO_RB; W {} {} {} {} {};",
            l(2),
            rx,
            ry + l(3),
            rx,
            ry + l(8)
        );
    }

    // Stub-based injections.
    for (idx, (kind, cell)) in assignments.iter().enumerate() {
        let row = cell / spec.nx;
        let col = cell % spec.nx;
        let (ox, oy) = (col as i64 * PITCH_X, row as i64 * PITCH_Y);
        let at = |x: i64, y: i64| (ox + x, oy + y);
        match kind {
            ErrorKind::NarrowWire => {
                let (cx, cy) = at(3375, 5600);
                let _ = writeln!(cif, "L NM; 9N IO_W{idx}; B 2000 700 {cx} {cy};");
                ground_truth.push(GroundTruthEntry {
                    kind: *kind,
                    location: Rect::new(cx - 1000, cy - 350, cx + 1000, cy + 350),
                    category: kind.category(),
                    description: format!("{kind} stub in cell {cell}"),
                });
            }
            ErrorKind::CloseSpacing => {
                let (cx, cy) = at(3375, 5250);
                let _ = writeln!(cif, "L NM; 9N IO_S{idx}; B 2000 750 {cx} {cy};");
                ground_truth.push(GroundTruthEntry {
                    kind: *kind,
                    location: Rect::new(cx - 1000, cy - 375, cx + 1000, cy + 375),
                    category: kind.category(),
                    description: format!("{kind} stub in cell {cell}"),
                });
            }
            ErrorKind::AccidentalTransistor => {
                let (cx, cy) = at(3250, 8250);
                let _ = writeln!(cif, "L ND; 9N IO_X{idx}; B 1500 500 {cx} {cy};");
                let _ = writeln!(cif, "L NP; 9N IO_Y{idx}; B 500 1500 {cx} {cy};");
                ground_truth.push(GroundTruthEntry {
                    kind: *kind,
                    location: Rect::new(cx - 250, cy - 250, cx + 250, cy + 250),
                    category: kind.category(),
                    description: format!("{kind} in cell {cell}"),
                });
            }
            ErrorKind::ButtedBoxes => {
                let (x1, y1) = at(2925, 5625);
                let (x2, _) = at(4025, 5625);
                let _ = writeln!(cif, "L NM; 9N IO_B{idx}; B 1100 750 {x1} {y1};");
                let _ = writeln!(cif, "L NM; 9N IO_B{idx}; B 1100 750 {x2} {y1};");
                let butt_x = x1 + 550;
                ground_truth.push(GroundTruthEntry {
                    kind: *kind,
                    location: Rect::new(butt_x - 100, y1 - 375, butt_x + 100, y1 + 375),
                    category: kind.category(),
                    description: format!("{kind} in cell {cell}"),
                });
            }
            ErrorKind::PowerGroundShort => {
                let (cx, _) = at(2500, 0);
                let _ = writeln!(cif, "L NM; W 750 {} {} {} {};", cx, oy + 375, cx, oy + 9625);
                ground_truth.push(GroundTruthEntry {
                    kind: *kind,
                    location: Rect::new(0, 0, 0, 0),
                    category: kind.category(),
                    description: format!("{kind} in cell {cell}"),
                });
            }
            ErrorKind::BusToRail => {
                let (cx, cy) = at(2750, 375);
                let _ = writeln!(cif, "L NM; B 2000 750 {cx} {cy};");
                let _ = writeln!(cif, "9L BUS_INJ{idx} NM {cx} {cy};");
                ground_truth.push(GroundTruthEntry {
                    kind: *kind,
                    location: Rect::new(0, 0, 0, 0),
                    category: kind.category(),
                    description: format!("{kind} in cell {cell}"),
                });
            }
            ErrorKind::DepletionToGround
            | ErrorKind::BadGateOverhang
            | ErrorKind::ContactOverGate => {
                // Variant cells were placed above; record ground truth.
                ground_truth.push(GroundTruthEntry {
                    kind: *kind,
                    location: Rect::new(0, 0, 0, 0),
                    category: kind.category(),
                    description: format!("{kind} variant in cell {cell}"),
                });
            }
        }
    }

    cif.push_str("E\n");

    GeneratedChip {
        cif,
        ground_truth,
        intended_netlist: if spec.golden_netlist {
            intended_netlist(spec)
        } else {
            diic_netlist::NetlistBuilder::new().finish()
        },
        cell_count: total_cells,
    }
}

/// A library-scale clean workload: the smallest near-square inverter
/// array whose **flattened element count** reaches `target_elements` —
/// the chip the bounded-memory pipeline (sharded instantiation, tiled
/// interactions, streaming and spilling sinks) is sized against. At
/// `10^6`–`10^7` the CIF text stays modest (one call line per cell —
/// hierarchy is the point) while the instantiated view carries millions
/// of elements. The golden net list is skipped: the mega workloads never
/// run net-list consistency, and at `10^7` elements the golden list
/// alone would rival the chip view in memory.
///
/// No demo cells and no injected errors: the array is rule-clean, so a
/// checker that reports anything on it is wrong, which is what the
/// release-mode CI smoke asserts.
pub fn mega_chip(target_elements: u64) -> GeneratedChip {
    // Probe one cell for its flattened element count (the cell library
    // is code, not data — measuring beats hard-coding a constant that
    // silently drifts when the cell changes). A 1×1 array adds two row
    // labels but labels are not elements.
    let probe = generate(&ChipSpec {
        demo_cells: false,
        golden_netlist: false,
        ..ChipSpec::clean(1, 1)
    });
    let probe_layout = diic_cif::parse(&probe.cif).expect("generated chips always parse");
    let per_cell = diic_cif::hierarchy::stats(&probe_layout)
        .flat_element_count
        .max(1);
    let cells = target_elements.div_ceil(per_cell).max(1);
    let nx = (cells as f64).sqrt().ceil() as usize;
    let ny = (cells as usize).div_ceil(nx);
    generate(&ChipSpec {
        demo_cells: false,
        golden_netlist: false,
        ..ChipSpec::clean(nx, ny)
    })
}

/// Builds the golden net list of the **clean** array (inverter chains per
/// row, plus the demo cells when enabled).
pub fn intended_netlist(spec: &ChipSpec) -> diic_netlist::Netlist {
    use diic_tech::DeviceClass;
    let mut b = diic_netlist::NetlistBuilder::new();
    for row in 0..spec.ny {
        for col in 0..spec.nx {
            let n_in = format!("r{row}n{col}");
            let n_out = format!("r{row}n{}", col + 1);
            let cell = format!("r{row}c{col}");
            b.add_device(
                &format!("{cell}.pd"),
                "NMOS_ENH",
                DeviceClass::MosEnhancement,
                &[("G", n_in.as_str()), ("S", "GND"), ("D", n_out.as_str())],
            );
            b.add_device(
                &format!("{cell}.pu"),
                "NMOS_DEP",
                DeviceClass::MosDepletion,
                &[("G", n_out.as_str()), ("S", n_out.as_str()), ("D", "VDD")],
            );
            b.add_device(
                &format!("{cell}.cgnd"),
                "CONTACT_D",
                DeviceClass::Contact,
                &[("A", "GND"), ("B", "GND")],
            );
            b.add_device(
                &format!("{cell}.cvdd"),
                "CONTACT_D",
                DeviceClass::Contact,
                &[("A", "VDD"), ("B", "VDD")],
            );
            b.add_device(
                &format!("{cell}.cp1"),
                "CONTACT_P",
                DeviceClass::Contact,
                &[("A", n_out.as_str()), ("B", n_out.as_str())],
            );
            b.add_device(
                &format!("{cell}.cp2"),
                "CONTACT_P",
                DeviceClass::Contact,
                &[("A", n_out.as_str()), ("B", n_out.as_str())],
            );
        }
    }
    if spec.demo_cells {
        b.add_device(
            "bc0",
            "BUTTING_CONTACT",
            DeviceClass::ButtingContact,
            &[("A", "IO_BC"), ("B", "IO_BC")],
        );
        b.add_device(
            "res0",
            "RESISTOR_D",
            DeviceClass::Resistor,
            &[("A", "IO_RA"), ("B", "IO_RB")],
        );
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_chip_parses() {
        let chip = generate(&ChipSpec::clean(3, 2));
        let layout = diic_cif::parse(&chip.cif).unwrap();
        assert_eq!(chip.cell_count, 6);
        assert!(layout.symbols().len() >= 5);
        let stats = diic_cif::hierarchy::stats(&layout);
        assert!(stats.flat_element_count > 0);
    }

    #[test]
    fn injected_chip_has_ground_truth() {
        let chip = generate(&ChipSpec::with_errors(
            4,
            2,
            vec![ErrorKind::NarrowWire, ErrorKind::PowerGroundShort],
            7,
        ));
        assert_eq!(chip.ground_truth.len(), 2);
        diic_cif::parse(&chip.cif).unwrap();
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = ChipSpec::with_errors(3, 3, vec![ErrorKind::CloseSpacing], 9);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.cif, b.cif);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    #[should_panic(expected = "one cell per injected error")]
    fn too_many_errors_panics() {
        generate(&ChipSpec::with_errors(
            1,
            1,
            vec![ErrorKind::NarrowWire; 2],
            1,
        ));
    }

    #[test]
    fn mega_chip_reaches_its_element_target() {
        let chip = mega_chip(2_000);
        let layout = diic_cif::parse(&chip.cif).unwrap();
        let stats = diic_cif::hierarchy::stats(&layout);
        assert!(
            stats.flat_element_count >= 2_000,
            "got {} flattened elements",
            stats.flat_element_count
        );
        // Near-square and not wildly overshooting: at most one extra
        // row/column of cells beyond the target.
        let per_cell = stats.flat_element_count / chip.cell_count as u64;
        assert!(
            stats.flat_element_count
                < 2_000 + 2 * per_cell * (chip.cell_count as f64).sqrt() as u64,
            "overshot: {} elements for target 2000",
            stats.flat_element_count
        );
        assert!(chip.ground_truth.is_empty(), "mega chip is clean");
        assert_eq!(
            chip.intended_netlist.device_count(),
            0,
            "mega chips skip the golden net list"
        );
    }

    #[test]
    fn golden_netlist_gate_controls_intended_netlist() {
        let with = generate(&ChipSpec::clean(2, 1));
        assert!(with.intended_netlist.device_count() > 0);
        let without = generate(&ChipSpec {
            golden_netlist: false,
            ..ChipSpec::clean(2, 1)
        });
        assert_eq!(without.intended_netlist.device_count(), 0);
        // The gate only affects the golden net list, never the layout.
        assert_eq!(with.cif, without.cif);
    }

    #[test]
    fn intended_netlist_scales() {
        let n = intended_netlist(&ChipSpec::clean(2, 2));
        assert_eq!(n.device_count(), 2 * 2 * 6 + 2);
    }
}
