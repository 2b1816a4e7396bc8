//! Rule decks: the technology description as text.
//!
//! The paper's thesis is that layout verification is *driven by a
//! technology description*: layers, widths, spacings, device rules. A
//! rule deck is that description as a small declarative file, and it is
//! the only form this workspace writes one in — the built-in processes
//! ([`crate::nmos`], [`crate::bipolar`]) are compiled from
//! `decks/nmos.deck` and `decks/bipolar.deck`:
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
//! The front end:
//!
//! * a lexer and recursive-descent [`parser`] producing a span-carrying
//!   AST ([`ast`]);
//! * rustc-style diagnostics — source line, caret underline,
//!   expected-token hints: the workspace's one [`Diagnostic`] type
//!   (`diic_diag`, re-exported here), which the CIF parser reports too,
//!   rendered by [`Diagnostic::render`];
//! * a canonical [`printer`] with the round-trip property
//!   `parse ∘ print ∘ parse = parse` (up to spans);
//! * a [`compile()`] pass lowering a deck to the [`crate::Technology`]
//!   every checking stage consumes.
//!
//! The `same_mask` statement is the first post-paper rule family: it
//! feeds the multi-patterning conflict-graph check in `diic-core` (odd
//! cycles are undecomposable). The language reference lives in
//! `docs/deck-language.md`.
//!
//! ```
//! use diic_tech::deck::{compile_str, NMOS_DECK};
//!
//! let tech = compile_str(NMOS_DECK)?;
//! assert_eq!(tech.name(), "nmos");
//! assert_eq!(tech.lambda(), 250);
//! # Ok::<(), diic_tech::deck::Diagnostic>(())
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
/// λ-rule process behind [`crate::nmos::nmos_technology`].
pub const NMOS_DECK: &str = include_str!("../../decks/nmos.deck");

/// The built-in bipolar rule deck (`decks/bipolar.deck`): the Fig. 6
/// process behind [`crate::bipolar::bipolar_technology`].
pub const BIPOLAR_DECK: &str = include_str!("../../decks/bipolar.deck");

/// Compiles a deck that ships with the crate; a diagnostic is a bug in
/// the checked-in file, so it panics with the rendered caret view.
pub(crate) fn compile_builtin(file: &str, source: &str) -> crate::Technology {
    compile_str(source).unwrap_or_else(|e| panic!("{}", e.render(file, source)))
}
