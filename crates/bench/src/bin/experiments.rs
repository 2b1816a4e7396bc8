//! The experiment harness: regenerates every figure-level result of the
//! paper as printed tables.
//!
//! ```text
//! cargo run -p diic-bench --bin experiments --release           # everything
//! cargo run -p diic-bench --bin experiments -- --quick          # small sizes
//! cargo run -p diic-bench --bin experiments -- e1 e9 --quick    # a subset
//! ```

use diic_bench::Scale;

/// A named experiment: label plus the closure that renders its table.
type Experiment = (&'static str, Box<dyn Fn() -> String>);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale { quick };
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();

    let experiments: Vec<Experiment> = vec![
        ("e1", Box::new(move || diic_bench::e1_error_regions(scale))),
        ("e2", Box::new(diic_bench::e2_figure_pathologies)),
        ("e3", Box::new(diic_bench::e3_expand_shrink)),
        ("e4", Box::new(diic_bench::e4_width_spacing_pathologies)),
        ("e5", Box::new(diic_bench::e5_electrical_equivalence)),
        ("e6", Box::new(diic_bench::e6_device_dependent)),
        ("e7", Box::new(diic_bench::e7_contact_over_gate)),
        ("e8", Box::new(diic_bench::e8_accidental_transistors)),
        (
            "e9",
            Box::new(move || diic_bench::e9_pipeline_scaling(scale)),
        ),
        ("e10", Box::new(diic_bench::e10_skeletal_connectivity)),
        (
            "e11",
            Box::new(move || diic_bench::e11_interaction_matrix(scale)),
        ),
        (
            "e12",
            Box::new(move || diic_bench::e12_proximity_expand(scale)),
        ),
        ("e13", Box::new(diic_bench::e13_relational_rule)),
        ("e14", Box::new(diic_bench::e14_self_sufficiency)),
        ("e15", Box::new(diic_bench::e15_composition_rules)),
        ("e21", Box::new(move || diic_bench::e21_service_load(scale))),
    ];

    println!("DIIC experiment harness — McGrath & Whitney, DAC 1980");
    println!("======================================================\n");
    for (name, f) in &experiments {
        if selected.is_empty() || selected.contains(name) {
            println!("{}", f());
        }
    }
}
