//! Quickstart: build a tiny extended-CIF layout, run the full DIIC
//! pipeline, and read the report.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use diic::core::{check_cif, format_report, CheckOptions};
use diic::tech::nmos::nmos_technology;

fn main() {
    let tech = nmos_technology();

    // A declared enhancement transistor with its gate, source and drain
    // wired up — plus two deliberate mistakes: a 700-wide metal stub
    // (metal needs 750) and an accidental poly crossing over diffusion.
    let cif = "
        (a declared NMOS transistor symbol with terminals)
        DS 1; 9 pulldown; 9D NMOS_ENH;
        9T G NP -375 0; 9T S ND 250 -1000; 9T D ND 250 1000;
        L NP; B 1500 500 250 0;
        L ND; B 500 2500 250 0;
        DF;

        C 1 T 0 0;
        L NP; 9N IO_IN;  W 500 -375 0 -3000 0;
        L ND; 9N GND;    W 500 250 -1000 250 -4000;
        L ND; 9N IO_OUT; W 500 250 1000 250 4000;

        (mistake 1: an under-width metal stub)
        L NM; 9N IO_STUB; B 2000 700 6000 0;

        (mistake 2: poly accidentally crossing diffusion - an undeclared device)
        L NP; 9N IO_X; W 500 -1000 3000 2000 3000;
        E";

    let report = check_cif(cif, &tech, &CheckOptions::default()).expect("CIF parses");

    println!("== DIIC quickstart ==");
    println!(
        "{} elements, {} device instance(s), {} net(s) extracted",
        report.element_count,
        report.device_count,
        report.netlist.net_count()
    );
    println!();
    println!("{}", format_report(&report.violations));
    println!("extracted nets:");
    for net in report.netlist.nets() {
        println!(
            "  {:<10} ({} terminal(s), aliases: {})",
            net.name(),
            net.terminals().len(),
            net.aliases().collect::<Vec<_>>().join(", ")
        );
    }
}
