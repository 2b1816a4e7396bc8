//! Variant-library generation: many small cells with deliberately
//! shared subcell definitions.
//!
//! A standard-cell library batch (`diic_core::check_library`) wins
//! exactly where sibling cells share definition *content* — its
//! definition shelves are content-keyed, so the claim "X% shared subcells
//! gives Y% cache hits" needs a workload whose overlap ratio is a
//! **knob**, not an accident. [`LibrarySpec::shared_fraction`] is that
//! knob: a *shared* cell uses the stock inverter definition
//! (content-identical across every shared cell in the library), while
//! a *unique* cell uses [`crate::cells::inverter_unique`] — the same
//! devices and nets plus clean tag-positioned rail boxes, so its
//! definition content collides with (almost) nothing. Faulted cells
//! ([`LibrarySpec::error_rate`]) carry one injected error each, with
//! the usual ground-truth ledger, so the batch-vs-standalone
//! byte-identity oracle exercises dirty reports too.

use crate::chip::{generate, ChipSpec, GeneratedChip};
use crate::inject::ErrorKind;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// What library to generate.
#[derive(Debug, Clone)]
pub struct LibrarySpec {
    /// Number of cells (each a small inverter row with its own
    /// definitions — one `Layout` per cell).
    pub cells: usize,
    /// Fraction of cells using the stock (content-shared) inverter
    /// definition; the rest get tag-unique definitions.
    pub shared_fraction: f64,
    /// Probability that a cell carries one injected error.
    pub error_rate: f64,
    /// RNG seed: cell shapes, tags, and error choices all derive from
    /// it deterministically.
    pub seed: u64,
}

impl LibrarySpec {
    /// The default library shape: half the cells share the stock
    /// definition, one cell in five is faulted.
    pub fn new(cells: usize, seed: u64) -> Self {
        LibrarySpec {
            cells,
            shared_fraction: 0.5,
            error_rate: 0.2,
            seed,
        }
    }
}

/// A generated cell library.
#[derive(Debug, Clone)]
pub struct GeneratedLibrary {
    /// The cells, each with its own CIF text and ground truth.
    pub cells: Vec<GeneratedChip>,
    /// How many cells use the stock (shared) inverter definition.
    pub shared_cells: usize,
    /// How many cells carry an injected error.
    pub faulted_cells: usize,
}

/// [`cell_library_with`] under [`LibrarySpec::new`]'s defaults — the
/// shape the benches and the differential oracle use.
pub fn cell_library(n: usize, seed: u64) -> GeneratedLibrary {
    cell_library_with(&LibrarySpec::new(n, seed))
}

/// Generates a cell library per the spec. Cells are 2–4 inverters in a
/// row (no demo cells, no golden net list — library cells are checked
/// for rule cleanliness, not netlist consistency), deterministic for a
/// given spec.
pub fn cell_library_with(spec: &LibrarySpec) -> GeneratedLibrary {
    // Uniform draw in [0,1) from the seeded stream; RngCore only, so
    // the output is pinned by the rand version already in the tree.
    fn chance(rng: &mut StdRng, p: f64) -> bool {
        ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut cells = Vec::with_capacity(spec.cells);
    let mut shared_cells = 0usize;
    let mut faulted_cells = 0usize;
    for i in 0..spec.cells {
        let nx = 2 + (rng.next_u64() % 3) as usize;
        let shared = chance(&mut rng, spec.shared_fraction);
        let unique_tag = if shared {
            shared_cells += 1;
            None
        } else {
            Some(rng.next_u64() as u32)
        };
        let errors = if chance(&mut rng, spec.error_rate) {
            faulted_cells += 1;
            let kind = ErrorKind::ALL[(rng.next_u64() % ErrorKind::ALL.len() as u64) as usize];
            vec![kind]
        } else {
            Vec::new()
        };
        cells.push(generate(&ChipSpec {
            errors,
            demo_cells: false,
            golden_netlist: false,
            seed: spec.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            unique_tag,
            ..ChipSpec::clean(nx, 1)
        }));
    }
    GeneratedLibrary {
        cells,
        shared_cells,
        faulted_cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_is_deterministic_and_parses() {
        let a = cell_library(12, 7);
        let b = cell_library(12, 7);
        assert_eq!(a.cells.len(), 12);
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.cif, cb.cif);
            assert_eq!(ca.ground_truth, cb.ground_truth);
            diic_cif::parse(&ca.cif).unwrap();
        }
        assert_eq!(a.shared_cells, b.shared_cells);
        assert_eq!(a.faulted_cells, b.faulted_cells);
    }

    #[test]
    fn shared_fraction_is_a_real_knob() {
        let all = cell_library_with(&LibrarySpec {
            shared_fraction: 1.0,
            ..LibrarySpec::new(20, 3)
        });
        assert_eq!(all.shared_cells, 20);
        let none = cell_library_with(&LibrarySpec {
            shared_fraction: 0.0,
            ..LibrarySpec::new(20, 3)
        });
        assert_eq!(none.shared_cells, 0);
        let mixed = cell_library(200, 3);
        assert!(
            (60..=140).contains(&mixed.shared_cells),
            "shared_fraction 0.5 gave {} of 200",
            mixed.shared_cells
        );
    }

    #[test]
    fn error_rate_populates_ground_truth() {
        let lib = cell_library_with(&LibrarySpec {
            error_rate: 1.0,
            ..LibrarySpec::new(10, 11)
        });
        assert_eq!(lib.faulted_cells, 10);
        for cell in &lib.cells {
            assert_eq!(cell.ground_truth.len(), 1);
        }
        let clean = cell_library_with(&LibrarySpec {
            error_rate: 0.0,
            ..LibrarySpec::new(10, 11)
        });
        assert_eq!(clean.faulted_cells, 0);
        assert!(clean.cells.iter().all(|c| c.ground_truth.is_empty()));
    }

    #[test]
    fn unique_cells_differ_in_definition_content() {
        let lib = cell_library_with(&LibrarySpec {
            shared_fraction: 0.0,
            error_rate: 0.0,
            ..LibrarySpec::new(6, 5)
        });
        // Every pair of unique cells should emit different CIF (the
        // tag boxes move), even when their array widths agree.
        for i in 0..lib.cells.len() {
            for j in (i + 1)..lib.cells.len() {
                assert_ne!(lib.cells[i].cif, lib.cells[j].cif, "cells {i} and {j}");
            }
        }
    }
}
