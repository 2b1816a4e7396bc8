//! Random rule-deck generation for the deck-compilation differential
//! leg.
//!
//! [`random_deck`] returns the *text* of a rule deck, which the
//! differential tests compile through `diic::deck` and run the checker
//! under. Every generated deck is [`NMOS_DECK`] parsed, varied and
//! printed back: a **recall-preserving variation** of the built-in NMOS
//! technology. Layers, CIF names, minimum widths, devices and their
//! internal rules are identical, and spacing distances only ever
//! *tighten* (grow) — so any fault `inject` plants against the
//! baseline rules still measures under its rule's threshold and must
//! be flagged under the generated deck too. On top of that a deck may
//! declare a `same_mask` rule on metal, exercising the
//! multi-patterning check under the fault corpus.

use diic_tech::deck::{
    parse, print, DeviceItem, Dist, SameMaskDecl, Span, Spanned, Stmt, NMOS_DECK,
};

/// The spacing rules a generated deck tightens; a rule's index + 1 salts
/// its pick.
const WIDENED: [(&str, &str); 4] = [
    ("diff", "diff"),
    ("poly", "poly"),
    ("metal", "metal"),
    ("contact", "contact"),
];

/// A deterministic spacing pick: the baseline distance in λ, plus a
/// seed-dependent tightening of 0–2 λ.
fn widen(seed: u64, salt: u64, base: i64) -> i64 {
    // splitmix64 — tiny, deterministic, and independent of the rand
    // compat shim so deck text never changes underneath the corpus.
    let mut z = seed ^ (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    base + (z % 3) as i64
}

/// A whole number of λ, as a generated statement writes it.
fn lambdas(num: i64) -> Dist {
    Dist {
        num,
        den: 1,
        lambda: true,
        span: Span::DUMMY,
    }
}

/// Generates one rule deck as text, deterministically from `seed`.
///
/// The deck compiles to a technology that differs from
/// [`diic_tech::nmos::nmos_technology`] only in its name, in (some)
/// spacing distances — never loosened; the diffusion resistor's
/// same-net override follows the diffusion spacing — and, for two seeds
/// in three, a `same_mask` distance on metal strictly above the metal
/// spacing rule.
pub fn random_deck(seed: u64) -> String {
    let mut deck = parse(NMOS_DECK).expect("the built-in deck parses");
    deck.name.node = format!("nmos-gen-{seed}");

    let mut widened = [None; WIDENED.len()];
    for stmt in &mut deck.statements {
        let Stmt::Space(sp) = stmt else { continue };
        let pair = (sp.a.node.as_str(), sp.b.node.as_str());
        let Some(i) = WIDENED.iter().position(|&p| p == pair) else {
            continue;
        };
        let d = &mut sp.diff_net;
        assert!(d.lambda && d.den == 1, "`space {pair:?}` is not whole λ");
        d.num = widen(seed, i as u64 + 1, d.num);
        widened[i] = Some(d.num);
    }
    let [diff_diff, _, metal_metal, _] =
        widened.map(|d| d.expect("NMOS_DECK declares every widened spacing rule"));

    let resistor = deck
        .statements
        .iter_mut()
        .find_map(|stmt| match stmt {
            Stmt::Device(dev) if dev.name.node == "RESISTOR_D" => {
                dev.items.iter_mut().find_map(|item| match item {
                    DeviceItem::Override {
                        own,
                        other,
                        spacing: Some(d),
                        ..
                    } if own.node == "diff" && other.node == "diff" => Some(d),
                    _ => None,
                })
            }
            _ => None,
        })
        .expect("NMOS_DECK's RESISTOR_D overrides diff/diff spacing");
    *resistor = lambdas(diff_diff);

    let r = seed % 3;
    if r > 0 {
        deck.statements.push(Stmt::SameMask(SameMaskDecl {
            layer: Spanned::new("metal".to_string(), Span::DUMMY),
            min_space: lambdas(metal_metal + 1 + r as i64),
            span: Span::DUMMY,
        }));
    }
    print(&deck)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(random_deck(7), random_deck(7));
        assert_ne!(random_deck(7), random_deck(8));
    }

    #[test]
    fn spacing_only_tightens() {
        for seed in 0..32 {
            let deck = random_deck(seed);
            for (pair, base) in [
                ("space diff diff", 3),
                ("space poly poly", 2),
                ("space metal metal", 3),
                ("space contact contact", 2),
            ] {
                let line = deck
                    .lines()
                    .find(|l| l.trim_start().starts_with(pair))
                    .unwrap_or_else(|| panic!("seed {seed}: missing `{pair}`"));
                let d: i64 = line
                    .split_whitespace()
                    .nth(3)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("seed {seed}: unparsable `{line}`"));
                assert!(d >= base, "seed {seed}: `{line}` loosens the {base}λ rule");
                assert!(d <= base + 2, "seed {seed}: `{line}` overshoots");
            }
        }
    }

    #[test]
    fn same_mask_appears_and_exceeds_spacing() {
        let mut with = 0;
        for seed in 0..12 {
            let deck = random_deck(seed);
            if let Some(line) = deck
                .lines()
                .find(|l| l.trim_start().starts_with("same_mask metal"))
            {
                with += 1;
                let mask: i64 = line.split_whitespace().nth(2).unwrap().parse().unwrap();
                let space: i64 = deck
                    .lines()
                    .find(|l| l.trim_start().starts_with("space metal metal"))
                    .unwrap()
                    .split_whitespace()
                    .nth(3)
                    .unwrap()
                    .parse()
                    .unwrap();
                assert!(
                    mask > space,
                    "seed {seed}: same_mask {mask}λ must exceed spacing {space}λ"
                );
            }
        }
        assert!(with >= 4, "expected same_mask decks among 12 seeds: {with}");
    }
}
