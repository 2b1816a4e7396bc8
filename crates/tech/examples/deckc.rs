//! `deckc` — compile rule decks from the command line.
//!
//! ```text
//! cargo run -p diic-tech --example deckc -- crates/tech/decks/nmos.deck
//! ```
//!
//! Compiles each file argument and prints a one-line summary, or the
//! rendered diagnostic on failure. Exit status is non-zero if any deck
//! fails — CI uses this as the every-checked-in-deck smoke test.

use std::process::ExitCode;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: deckc <file.deck>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        match diic_tech::deck::compile_str(&source) {
            Ok(tech) => println!(
                "{path}: ok — technology `{}` (lambda {}), {} layers, {} spacing rules, {} devices",
                tech.name(),
                tech.lambda(),
                tech.layers().len(),
                tech.rules().len(),
                tech.devices().len()
            ),
            Err(e) => {
                eprint!("{}", e.render(path, &source));
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
