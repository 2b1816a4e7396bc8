//! The paper's figure-level results as goldens: the `--quick` table of
//! every experiment whose output holds no wall-clock time (e1–e8, e10,
//! e13–e15) must match `tests/golden/figures/<name>.txt` byte for byte,
//! so a refactor that moves a figure shows up as a failing test rather
//! than as a table nobody re-read.
//!
//! To bless new output after an intentional change to a figure:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test figures
//! ```

use diic_bench::Scale;
use std::path::PathBuf;

/// A named experiment and the table it renders.
type Figure = (&'static str, fn() -> String);

const FIGURES: &[Figure] = &[
    ("e1", || diic_bench::e1_error_regions(Scale { quick: true })),
    ("e2", diic_bench::e2_figure_pathologies),
    ("e3", diic_bench::e3_expand_shrink),
    ("e4", diic_bench::e4_width_spacing_pathologies),
    ("e5", diic_bench::e5_electrical_equivalence),
    ("e6", diic_bench::e6_device_dependent),
    ("e7", diic_bench::e7_contact_over_gate),
    ("e8", diic_bench::e8_accidental_transistors),
    ("e10", diic_bench::e10_skeletal_connectivity),
    ("e13", diic_bench::e13_relational_rule),
    ("e14", diic_bench::e14_self_sufficiency),
    ("e15", diic_bench::e15_composition_rules),
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/figures")
        .join(format!("{name}.txt"))
}

#[test]
fn figure_tables_match_their_goldens() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for &(name, render) in FIGURES {
        let table = render();
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &table).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!("{name}: missing golden file {path:?} — bless with UPDATE_GOLDEN=1")
        });
        if table != want {
            failures.push(format!(
                "{name}: table drifted from {path:?}\n--- blessed\n{want}\n--- got\n{table}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
