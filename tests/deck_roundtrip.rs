//! The printer round-trip property: `parse ∘ print ∘ parse = parse`
//! (up to spans). The canonical printer must emit text that parses
//! back to the very same AST — for the checked-in decks, for every
//! generator-produced deck variation, and idempotently (printing the
//! reparsed deck reproduces the first printed text byte for byte).

use diic::deck::{compile_str, parse, print, Deck, BIPOLAR_DECK, NMOS_DECK};
use proptest::prelude::*;

/// Parses, strips spans, and returns the AST — the comparable form.
fn ast_of(source: &str) -> Deck {
    let mut deck = parse(source).unwrap_or_else(|e| panic!("{}", e.render("<test>", source)));
    deck.strip_spans();
    deck
}

#[test]
fn built_in_decks_round_trip() {
    for deck in [NMOS_DECK, BIPOLAR_DECK] {
        let first = ast_of(deck);
        let printed = print(&first);
        let second = ast_of(&printed);
        assert_eq!(first, second, "print() lost or mangled a statement");
        // Idempotence: the canonical form is a fixed point.
        assert_eq!(printed, print(&second));
        // And the canonical form still compiles to the same technology.
        assert_eq!(compile_str(&printed).unwrap(), compile_str(deck).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated deck round-trips through the canonical printer
    /// and compiles to the same technology either way.
    #[test]
    fn generated_decks_round_trip(seed in 0u64..1_000_000) {
        let source = diic_gen::random_deck(seed);
        let first = ast_of(&source);
        let printed = print(&first);
        let second = ast_of(&printed);
        prop_assert_eq!(&first, &second, "seed {}: round trip diverged", seed);
        prop_assert_eq!(&printed, &print(&second), "seed {}: print not idempotent", seed);
        prop_assert_eq!(
            compile_str(&printed).unwrap(),
            compile_str(&source).unwrap(),
            "seed {}: canonical form compiles differently", seed
        );
    }
}
