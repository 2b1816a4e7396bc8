//! Golden-file and fuzz tests for the text front ends' one diagnostic
//! type: every class of malformed CIF or rule deck must produce a
//! **spanned** [`Diagnostic`] (never a panic), and its rustc-style
//! rendering must match the blessed text in
//! `tests/golden/{cif,deck}/<case>.txt` byte for byte.
//!
//! To bless new output after an intentional diagnostic change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test diagnostics
//! ```

use diic::api::wire;
use diic::cif::{hierarchy::MAX_CALL_DEPTH, Diagnostic, Span};
use diic::core::EditSet;
use diic::deck::{compile_str, BIPOLAR_DECK, NMOS_DECK};
use diic::gen::{generate, random_edit_set, ChipSpec, ErrorKind};
use diic::geom::Rect;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// One malformed deck per diagnostic class the deck front end emits.
const DECK_CASES: &[(&str, &str)] = &[
    // Lexer: a string literal that never closes.
    ("unterminated-string", "tech \"nmos\n"),
    // Lexer: a byte outside the language.
    (
        "stray-character",
        "tech \"t\" {\n    lambda 250;\n    @layer m;\n}\n",
    ),
    // Parser: a statement keyword the grammar does not know.
    (
        "unknown-statement",
        "tech \"t\" {\n    lambda 250;\n    widget metal 3 lambda;\n}\n",
    ),
    // Parser: a number where the grammar wants one but the token is `;`.
    ("missing-number", "tech \"t\" {\n    lambda;\n}\n"),
    // Parser: a missing semicolon mid-block.
    (
        "missing-semicolon",
        "tech \"t\" {\n    lambda 250\n    space a a 3 lambda;\n}\n",
    ),
    // Parser: truncated input — the file ends inside the tech block.
    ("unexpected-eof", "tech \"t\" {\n    lambda 250;\n"),
    // Parser: a layer kind outside the enumeration.
    (
        "bad-layer-kind",
        "tech \"t\" {\n    lambda 250;\n    layer m { cif \"NM\"; kind plutonium; min_width 2 lambda; }\n}\n",
    ),
    // Parser: a device class outside the enumeration.
    (
        "bad-device-class",
        "tech \"t\" {\n    lambda 250;\n    layer m { cif \"NM\"; kind metal; min_width 2 lambda; }\n    device X flux_capacitor { terminals A B; }\n}\n",
    ),
    // Compile: a rule naming a layer the deck never declared.
    (
        "unknown-layer",
        "tech \"t\" {\n    lambda 250;\n    space metal metal 3 lambda;\n}\n",
    ),
    // Compile: the same layer declared twice.
    (
        "duplicate-layer",
        "tech \"t\" {\n    lambda 250;\n    layer m { cif \"NM\"; kind metal; min_width 2 lambda; }\n    layer m { cif \"NM\"; kind metal; min_width 2 lambda; }\n}\n",
    ),
    // Compile: a same_mask distance no tighter than the spacing rule
    // (the conflict graph would be empty by construction).
    (
        "same-mask-not-tighter",
        "tech \"t\" {\n    lambda 250;\n    layer m { cif \"NM\"; kind metal; min_width 2 lambda; }\n    space m m 3 lambda;\n    same_mask m 3 lambda;\n}\n",
    ),
];

/// One malformed layout per diagnostic class the CIF front end emits.
const CIF_CASES: &[(&str, &str)] = &[
    // Lexer.
    ("stray-character", "L NM;\nB 2000 750 0 0 #;\nE"),
    ("unclosed-comment", "L NM; (a comment\nB 2000 750 0 0; E"),
    ("lone-minus", "L NM;\nB 2000 750 - 0;\nE"),
    (
        "number-too-large",
        "L NM;\nB 99999999999999999999 750 0 0;\nE",
    ),
    ("i64-min", "L NM;\nB 2000 750 -9223372036854775808 0;\nE"),
    // Parser: commands and their arguments.
    ("unknown-command", "L NM;\nQ 1 2;\nE"),
    ("unknown-d-command", "DX 1;\nE"),
    ("number-at-command", "L NM;\n-5;\nE"),
    ("missing-number", "L NM;\nB 2000 ;\nE"),
    ("missing-semicolon", "DS 1;\nL NM; B 2000 750 0 0;\nDF\nE"),
    ("missing-layer-name", "L ;\nE"),
    ("element-before-layer", "B 2000 750 0 0;\nE"),
    ("bad-box", "L NM;\nB 0 750 0 0;\nE"),
    ("bad-polygon", "L NM;\nP 0 0 1000 0;\nE"),
    ("bad-wire", "L NM;\nW 0 0 0 1000 0;\nE"),
    ("bad-rotation", "DS 1; DF;\nC 1 R 1 1;\nE"),
    ("bad-mirror", "DS 1; DF;\nC 1 MZ;\nE"),
    // Parser: definitions and calls.
    ("nested-ds", "DS 1;\n  DS 2;\nDF; DF; E"),
    ("unmatched-df", "L NM;\nDF;\nE"),
    ("unclosed-ds", "DS 1;\nL NM; B 2000 750 0 0;\nE"),
    ("duplicate-symbol", "DS 1; DF;\nDS 1; DF;\nE"),
    ("bad-ds-scale", "DS 1 0 1;\nDF; E"),
    ("symbol-id-out-of-range", "DS 1; DF;\nC 4294967297;\nE"),
    ("undefined-symbol", "DS 1; DF;\nC 1 T 0 0;\nC 7 T 10 0;\nE"),
    ("recursion", "DS 1; C 2; DF;\nDS 2; C 1; DF;\nC 1;\nE"),
    // Parser: arithmetic.
    (
        "ds-scale-overflow",
        "DS 1 9223372036854775807 1;\nL NM; B 2 2 0 0;\nDF; E",
    ),
    (
        "coordinate-out-of-range",
        "L NM;\nB 2 2 9223372036854775807 0;\nE",
    ),
    ("box-corner-overflow", "L NM;\nB 4 2 4503599627370496 0;\nE"),
    (
        "call-translation-overflow",
        "DS 1; DF;\nC 1 T 4503599627370496 0 T 1 0;\nE",
    ),
    // Extensions.
    ("bad-extension", "DS 1;\n9T G NP 10;\nDF; E"),
    ("unknown-extension", "9Q x;\nE"),
    ("device-outside-symbol", "9D NMOS_ENH;\nE"),
];

/// `DS 0; C 1; DF;` … one line per symbol: a call chain `n` deep.
fn call_chain(n: usize) -> String {
    let mut cif: String = (1..n)
        .map(|i| format!("DS {}; C {i}; DF;\n", i - 1))
        .collect();
    cif.push_str(&format!("DS {}; L NM; B 2 2 0 0; DF;\nC 0;\nE", n - 1));
    cif
}

fn golden_path(front_end: &str, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(front_end)
        .join(format!("{name}.txt"))
}

/// Checks (or, under `UPDATE_GOLDEN`, blesses) one rendering per case.
fn assert_blessed<T>(
    front_end: &str,
    cases: &[(&str, &str)],
    compile: impl Fn(&str) -> Result<T, Diagnostic>,
) {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for &(name, source) in cases {
        let Err(err) = compile(source) else {
            panic!("{front_end}/{name}: malformed input was accepted");
        };
        // Every diagnostic is anchored: a real span inside the source
        // (or just past its end for EOF errors), never the dummy.
        assert!(
            err.span.start <= err.span.end && err.span.end <= source.len(),
            "{front_end}/{name}: span {:?} escapes the source",
            err.span
        );
        let rendered = err.render(&format!("{name}.{front_end}"), source);
        assert!(rendered.contains('^'), "{name}: no caret underline");
        let path = golden_path(front_end, name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!("{name}: missing golden file {path:?} — bless with UPDATE_GOLDEN=1")
        });
        if rendered != want {
            failures.push(format!(
                "{name}: diagnostic drifted from {path:?}\n--- blessed\n{want}\n--- got\n{rendered}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn malformed_decks_render_blessed_diagnostics() {
    assert_blessed("deck", DECK_CASES, compile_str);
}

#[test]
fn malformed_layouts_render_blessed_diagnostics() {
    let chain = call_chain(MAX_CALL_DEPTH + 1);
    // Symbol n calls n - 1 twice: one call of symbol 28 is 2^27
    // elements, past `MAX_FLAT_ELEMENTS`.
    let mut doubling = String::from("DS 1; L NM; B 2 2 0 0; DF;\n");
    for n in 2..=28 {
        doubling.push_str(&format!("DS {n}; C {}; C {}; DF;\n", n - 1, n - 1));
    }
    doubling.push_str("L NM; B 2 2 9 9;\nC 28;\nE");
    let mut cases = CIF_CASES.to_vec();
    cases.push(("call-depth", &chain));
    cases.push(("element-budget", &doubling));
    assert_blessed("cif", &cases, diic::cif::parse);
}

/// Truncates `source`, corrupts it with a stray `?` or a multi-byte
/// `é`, and splices a 20-digit number into it, at every 37th byte: each
/// variant must give `Ok` or a [`Diagnostic`] whose span lies in the
/// input and whose rendering has a caret — never a panic.
fn fuzz<T>(name: &str, source: &str, front_end: impl Fn(&str) -> Result<T, Diagnostic>) {
    let mut rejected = 0;
    for cut in (0..=source.len()).step_by(37) {
        if !source.is_char_boundary(cut) {
            continue;
        }
        let (head, tail) = source.split_at(cut);
        let variants = [
            head.to_string(),
            format!("{head}?{tail}"),
            format!("{head}\u{e9}{tail}"),
            format!("{head} 99999999999999999999 {tail}"),
        ];
        for input in &variants {
            let Err(e) = front_end(input) else { continue };
            rejected += 1;
            assert!(
                e.span.start <= e.span.end && e.span.end <= input.len(),
                "{name} cut at {cut}: span {:?} escapes the input",
                e.span
            );
            let rendered = e.render(name, input);
            assert!(rendered.contains('^'), "{name} cut at {cut}: {rendered}");
        }
    }
    assert!(rejected > 0, "{name}: the fuzz rejected nothing");
}

#[test]
fn no_input_panics_either_front_end() {
    let chip = generate(&ChipSpec::with_errors(2, 1, vec![ErrorKind::NarrowWire], 5));
    fuzz("chip.cif", &chip.cif, diic::cif::parse);
    fuzz("nmos.deck", NMOS_DECK, compile_str);
    fuzz("bipolar.deck", BIPOLAR_DECK, compile_str);
}

/// A JSON body read the way `wire::parse_body` reads one: a parse error
/// is a diagnostic at the byte it names.
fn parse_json(text: &str) -> Result<serde_json::Value, Diagnostic> {
    serde_json::from_str(text)
        .map_err(|e| Diagnostic::new(e.message, Span::new(e.offset, e.offset)))
}

#[test]
fn no_edit_body_panics_the_json_front_end() {
    let chip = generate(&ChipSpec::with_errors(3, 2, vec![ErrorKind::NarrowWire], 5));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let bounds = Rect::new(-2500, -6000, 3 * 6750 + 2500, 2 * 10000 + 2500);
    let mut rng = StdRng::seed_from_u64(11);
    // Every kind of edit the generator makes, in one body.
    let mut edits = EditSet::new();
    for step in 0..24 {
        let set = random_edit_set(&layout, bounds, step, &mut rng);
        edits.edits.extend(set.edits);
    }
    let body = wire::edit_set_to_json(&edits, &layout).to_string();
    let decoded = wire::edit_set_from_json(&parse_json(&body).unwrap(), &layout);
    assert_eq!(
        decoded.expect("the body decodes").edits.len(),
        edits.edits.len()
    );
    fuzz("edits.json", &body, |text| {
        let value = parse_json(text)?;
        // A body that parses but does not decode is a `400`, not a
        // diagnostic: only a panic fails here.
        let _ = wire::edit_set_from_json(&value, &layout);
        Ok(())
    });
}
