//! # diic — Design Integrity and Immunity Checking
//!
//! A comprehensive Rust reproduction of McGrath & Whitney, *"Design
//! Integrity and Immunity Checking: A New Look at Layout Verification and
//! Design Rule Checking"*, Proc. 17th Design Automation Conference (DAC),
//! 1980.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geom`] — integer geometry kernel (Boolean sweep, sizing, width /
//!   spacing algorithms, skeletal connectivity, rasters, spatial index);
//! * [`cif`] — extended CIF parser/writer (net identifiers `9N`, device
//!   types `9D`, immunity `9C`, terminals `9T`, labels `9L`), hierarchy
//!   tools and the flattener; its errors, like the deck's, are the one
//!   spanned, caret-rendered `Diagnostic` type;
//! * [`tech`] — technologies: layers, the Fig. 12 interaction matrix,
//!   device archetypes, default NMOS and bipolar processes;
//! * [`deck`] (`tech::deck`) — the rule-deck language: lexer, parser,
//!   spanned diagnostics, canonical printer, and compilation to a
//!   [`tech`] `Technology`; the NMOS and bipolar processes are compiled
//!   from its checked-in `.deck` files;
//! * [`netlist`] — hierarchical net lists, consistency comparison, and the
//!   four non-geometric construction rules;
//! * [`process`] — 2-D process modelling: Gaussian exposure (Eq. 1),
//!   proximity-effect expansion, exposure-based spacing, relational rules;
//! * [`core`] — the six-stage DIIC pipeline and the flat mask-level
//!   baseline checker;
//! * [`gen`] — synthetic NMOS workloads with ground-truth error ledgers;
//! * [`api`] — check-as-a-service: an HTTP session API over the
//!   incremental checker (concurrent edit sessions, streamed canonical
//!   reports, batch library verification; `examples/diic_serve.rs`
//!   binds it to a socket).
//!
//! # Quickstart
//!
//! ```
//! use diic::core::{check_cif, CheckOptions};
//! use diic::tech::nmos::nmos_technology;
//!
//! let tech = nmos_technology();
//! let report = check_cif(
//!     "L NM; 9N VDD; B 4000 750 2000 375; L NM; 9N GND; B 4000 750 2000 2375; E",
//!     &tech,
//!     &CheckOptions { erc: false, ..CheckOptions::default() },
//! )?;
//! assert!(report.is_clean());
//! // The net list is read through accessors: names are `&str`s sliced
//! // out of its one text buffer.
//! let vdd = report.netlist.net_by_name("VDD").expect("the rail is a net");
//! assert_eq!(report.netlist.net(vdd).name(), "VDD");
//! assert!(report.netlist.nets().map(|net| net.name()).eq(["GND", "VDD"]));
//! # Ok::<(), diic::cif::Diagnostic>(())
//! ```

pub use diic_api as api;
pub use diic_cif as cif;
pub use diic_core as core;
pub use diic_gen as gen;
pub use diic_geom as geom;
pub use diic_netlist as netlist;
pub use diic_process as process;
pub use diic_tech as tech;
pub use diic_tech::deck;
