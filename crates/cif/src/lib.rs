//! # diic-cif — extended Caltech Intermediate Form (CIF) for DIIC
//!
//! The paper's checker consumes "an extension of CIF \[Sproull, Lyon,
//! Trimberger 1979\]. This data form allows symbol definitions, calls to
//! symbol definitions, and primitive geometrical constructs. The extension
//! \[...\] allows a net identifier to be attached to each primitive element
//! and a device 'type' identifier to each primitive symbol."
//!
//! This crate implements:
//!
//! * a CIF 2.0 **lexer and parser** (`DS`/`DF`, `C` with `T`/`MX`/`MY`/`R`
//!   transform lists, `L`, `B`, `W`, `P`, comments, `E`);
//! * the paper's **extensions**, encoded as CIF user-extension (`9…`)
//!   commands:
//!   - `9 <name>;` — symbol name (the historical Caltech convention),
//!   - `9N <net>;` — net identifier for the **next** primitive element,
//!   - `9D <type>;` — declares the enclosing symbol a primitive **device**
//!     of the given type (transistor, contact, …),
//!   - `9C;` — marks the enclosing device *checked* (the immunity flag that
//!     waives its internal rules — for special devices that intentionally
//!     break the rules),
//!   - `9T <terminal> <layer> <x> <y>;` — declares a named device terminal
//!     at a local point on a layer (used by net-list generation),
//!   - `9L <net> <layer> <x> <y>;` — a net label at a point (used to name
//!     power/ground/bus nets at the chip level);
//! * the hierarchical **layout model** ([`Layout`], [`Symbol`], [`Element`],
//!   [`Call`]) in which "the chip is never fully instantiated" — plus an
//!   explicit [`flatten()`](flatten::flatten) pass used only by the *baseline* flat checker the
//!   paper critiques;
//! * hierarchy validation (undefined symbols, call cycles, call chains
//!   deeper than [`MAX_CALL_DEPTH`](hierarchy::MAX_CALL_DEPTH)) and
//!   statistics;
//! * a writer producing round-trippable CIF text.
//!
//! Every parse error — hostile input included: numbers past `i64`,
//! coordinates, `DS` scales, box corners and call translations outside
//! `±`[`MAX_COORD`](diic_geom::MAX_COORD) — is a [`Diagnostic`]
//! spanning the command it is about, the error type the rule-deck
//! compiler shares (`diic_diag`, re-exported here).
//!
//! Per the DIIC design style, calls may be rotated only by the four axis
//! directions (`R 1 0`, `R 0 1`, `R -1 0`, `R 0 -1`); arbitrary-angle
//! rotations are a parse error (documented substitution, see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! let text = "
//! DS 1 1 1;
//! 9 inv;
//! L NP; B 20 60 10,30;
//! DF;
//! C 1 T 0 0;
//! C 1 T 100 0;
//! E
//! ";
//! let layout = diic_cif::parse(text)?;
//! assert_eq!(layout.symbols().len(), 1);
//! assert_eq!(layout.top_items().len(), 2);
//!
//! let error = diic_cif::parse("C 1; C 2; E").unwrap_err();
//! assert_eq!(error.message, "call references undefined symbol 1");
//! assert!(error.render("chip.cif", "C 1; C 2; E").contains("chip.cif:1:1"));
//! # Ok::<(), diic_cif::Diagnostic>(())
//! ```

pub mod flatten;
pub mod hierarchy;
pub mod layout;
pub mod parse;
pub mod token;
pub mod write;

pub use diic_diag::{Diagnostic, Span};
pub use flatten::{flatten, FlatElement};
pub use layout::{
    Call, DeviceDecl, Element, Item, LayerRef, Layout, NetLabel, Shape, Symbol, SymbolId, Terminal,
};
pub use parse::parse;
pub use write::to_cif;
