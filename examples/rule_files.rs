//! Rule decks and device-dependent rules: compile the checked-in NMOS
//! deck, tighten a rule in its text, show the rendered diagnostic a
//! typo gets, and show the Fig. 6 device-dependent verdicts under the
//! bipolar technology.
//!
//! ```text
//! cargo run --example rule_files
//! ```

use diic::core::{check_cif, CheckOptions};
use diic::deck::{compile_str, NMOS_DECK};
use diic::tech::bipolar::bipolar_technology;

fn main() {
    // The checked-in deck is the NMOS technology's source text.
    println!("== nmos.deck ({} lines) ==", NMOS_DECK.lines().count());
    let body = NMOS_DECK.lines().skip_while(|l| !l.starts_with("tech"));
    for line in body.take(14) {
        println!("  {line}");
    }
    println!("  ...");
    let nmos = compile_str(NMOS_DECK).expect("the checked-in deck compiles");
    println!(
        "  compiled: technology `{}`, {} layers, {} spacing rules\n",
        nmos.name(),
        nmos.layers().len(),
        nmos.rules().len()
    );

    // Tighten metal spacing from 3λ to 4λ and watch a pair flip verdict.
    let relaxed_rule = "space metal metal 3 lambda;";
    assert!(NMOS_DECK.contains(relaxed_rule));
    let tightened = NMOS_DECK.replace(relaxed_rule, "space metal metal 4 lambda;");
    let tight = compile_str(&tightened).expect("the edited deck compiles");
    let pair = "L NM; B 2000 750 1000 375; B 2000 750 1000 2000; E"; // 875 apart
    let relaxed_report = check_cif(
        pair,
        &nmos,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    let tight_report = check_cif(
        pair,
        &tight,
        &CheckOptions {
            erc: false,
            ..Default::default()
        },
    )
    .unwrap();
    println!("== metal pair 875 apart ==");
    println!(
        "  under 3λ rule: {} violation(s)",
        relaxed_report.violations.len()
    );
    println!(
        "  under 4λ rule: {} violation(s)\n",
        tight_report.violations.len()
    );

    // A typo in a deck is a rendered diagnostic, not a panic.
    let typo = NMOS_DECK.replace(relaxed_rule, "space metal metl 3 lambda;");
    let error = compile_str(&typo).expect_err("`metl` names no layer");
    println!("== a typo in the deck ==");
    print!("{}", error.render("nmos.deck", &typo));
    println!();

    // Fig. 6 under the bipolar technology.
    let bip = bipolar_technology();
    let npn = "
        DS 1; 9 t; 9D NPN; 9T B BB 0 0; 9T E BE 0 0; 9T C BB 250 250;
        L BB; B 2000 2000 0 0; L BE; B 500 500 0 0; DF;
        C 1 T 0 0;
        L BI; 9N GND; B 2000 2000 2000 0; E";
    let res = "
        DS 2; 9 r; 9D BASE_RESISTOR; 9T A BB 0 -750; 9T B BB 0 750;
        L BB; B 500 2000 0 0; DF;
        C 2 T 0 0;
        L BI; 9N GND; B 2000 2000 1250 0; E";
    let opt = CheckOptions {
        erc: false,
        ..Default::default()
    };
    let r1 = check_cif(npn, &bip, &opt).unwrap();
    let r2 = check_cif(res, &bip, &opt).unwrap();
    println!("== Fig. 6: the same base/isolation contact, two devices ==");
    println!(
        "  NPN transistor base touching isolation: {} violation(s) (device integrity)",
        r1.violations.len()
    );
    println!(
        "  base resistor tied to isolation:        {} violation(s) (legal ground tie)",
        r2.violations.len()
    );
}
