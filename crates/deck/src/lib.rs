//! # diic-deck — rule decks as data
//!
//! The paper's thesis is that layout verification is *driven by a
//! technology description*: layers, widths, spacings, device rules. In
//! the rest of this workspace that description is a compiled-in Rust
//! value ([`diic_tech::Technology`]) — this crate makes it a **text
//! artifact**. A rule deck is a small declarative file:
//!
//! ```text
//! tech "nmos" {
//!     lambda 250;
//!     layer metal { cif "NM"; kind metal; min_width 3 lambda; }
//!     space metal metal 3 lambda;
//!     same_mask metal 5 lambda;   # multi-patterning decomposability
//! }
//! ```
//!
//! and the crate provides the full front end for it:
//!
//! * a lexer and recursive-descent [`parser`] producing a span-carrying
//!   AST ([`ast`]);
//! * rustc-style diagnostics — source line, caret underline,
//!   expected-token hints: the workspace's one [`Diagnostic`] type
//!   (`diic_diag`, re-exported here), which the CIF parser reports too,
//!   rendered by [`Diagnostic::render`];
//! * a canonical [`printer`] with the round-trip property
//!   `parse ∘ print ∘ parse = parse` (up to spans);
//! * a [`compile()`] pass lowering a deck to the
//!   [`diic_tech::Technology`] every checking stage consumes.
//!
//! The built-in NMOS process ships as `decks/nmos.deck` ([`NMOS_DECK`]);
//! compiling it reproduces `diic_tech::nmos::nmos_technology()` exactly,
//! and the tenth differential leg (`tests/differential.rs` at the
//! workspace root) pins the two to byte-identical check reports over the
//! faulted-chip proptest corpus. The `same_mask` statement is the first
//! post-paper rule family: it feeds the multi-patterning conflict-graph
//! check in `diic-core` (odd cycles are undecomposable). The language
//! reference lives in `docs/deck-language.md`.
//!
//! ```
//! use diic_deck::{compile_str, NMOS_DECK};
//!
//! let tech = compile_str(NMOS_DECK)?;
//! assert_eq!(tech.name(), "nmos");
//! assert_eq!(tech.lambda(), 250);
//! # Ok::<(), diic_deck::Diagnostic>(())
//! ```

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;
pub mod printer;

pub use ast::{
    Deck, DeviceDecl, DeviceItem, Dist, LayerDecl, SameMaskDecl, SpaceDecl, Spanned, Stmt,
};
pub use compile::{compile, compile_str};
pub use diic_diag::{Diagnostic, Span};
pub use parser::parse;
pub use printer::print;

/// The built-in NMOS rule deck (`decks/nmos.deck`): the Mead–Conway
/// λ-rule process of `diic_tech::nmos`, expressed as data.
pub const NMOS_DECK: &str = include_str!("../decks/nmos.deck");
