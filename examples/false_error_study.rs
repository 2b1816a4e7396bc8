//! The paper's headline experiment (Fig. 1): generate an NMOS inverter
//! array with injected errors, run both the DIIC pipeline and the
//! traditional flat mask-level checker, and account real / false /
//! unchecked errors against ground truth.
//!
//! ```text
//! cargo run --release --example false_error_study [nx ny]
//! ```

use diic::core::{account, check_cif, flat_check, CheckOptions};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::tech::nmos::nmos_technology;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nx: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(6);
    let ny: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);

    let tech = nmos_technology();
    let errors = vec![
        ErrorKind::NarrowWire,
        ErrorKind::CloseSpacing,
        ErrorKind::AccidentalTransistor,
        ErrorKind::ButtedBoxes,
        ErrorKind::PowerGroundShort,
        ErrorKind::BadGateOverhang,
        ErrorKind::ContactOverGate,
    ];
    let chip = generate(&ChipSpec::with_errors(nx, ny, errors, 91));
    println!(
        "chip: {}x{} inverters ({} cells), {} injected errors",
        nx,
        ny,
        chip.cell_count,
        chip.ground_truth.len()
    );
    for g in &chip.ground_truth {
        println!("  injected: {}", g.description);
    }
    let injected = chip.injected();

    let report = check_cif(&chip.cif, &tech, &CheckOptions::default()).unwrap();
    let diic = account(&report.violations, &injected, 800);

    let layout = diic::cif::parse(&chip.cif).unwrap();
    let flat = flat_check(&layout, &tech);
    let flat_regions = account(&flat, &injected, 800);

    println!();
    println!(
        "{:<8} {:>9} {:>12} {:>13} {:>16} {:>12}",
        "checker", "reported", "real (R2)", "false (R3)", "unchecked (R1)", "false:real"
    );
    for (name, r) in [("DIIC", &diic), ("flat", &flat_regions)] {
        let ratio = if r.false_to_real_ratio().is_finite() {
            format!("{:.1}", r.false_to_real_ratio())
        } else {
            "inf".into()
        };
        println!(
            "{:<8} {:>9} {:>12} {:>13} {:>16} {:>12}",
            name, r.reported, r.real_flagged, r.false_errors, r.unchecked, ratio
        );
    }
    println!();
    println!("paper: \"the ratio of false to real errors can be 10 to 1 or higher\"");
    println!("       (grow the array to watch the flat checker's ratio climb)");
}
