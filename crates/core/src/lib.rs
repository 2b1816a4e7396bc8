//! # diic-core — Design Integrity and Immunity Checking
//!
//! The primary contribution of McGrath & Whitney (DAC 1980): a layout
//! verifier that keeps **topological and device information** instead of
//! checking bare mask geometry, eliminating most false and unchecked
//! errors.
//!
//! # Architecture: the pipeline is a function
//!
//! The paper's Fig. 10 pipeline is one straight-line run ([`engine`]):
//! every step in this order, each step's artefact handed to the next by
//! value:
//!
//! ```text
//! check(layout, tech, options)
//!   ├─ instantiate   bind layers, build the ChipView          (binding, scope)
//!   ├─ elements      interconnect width per definition        (element_checks)
//!   ├─ primitives    device-internal rules, 9C immunity       (primitive_checks)
//!   ├─ connections   skeletal connectivity, implied devices   (connect)
//!   ├─ netlist       hierarchical net-list generation         (netgen)
//!   ├─ interactions  rule-matrix spacing, serial or parallel  (interact)
//!   └─ composition   ERC + net-list consistency               (engine)
//! ```
//!
//! Every step moves its findings into the caller's [`Sink`] — a
//! [`DiagnosticSink`] for [`check`] — so no violation vector is ever
//! cloned, and every step's wall clock lands in
//! [`CheckReport::stage_profile`] under the name above. The flat
//! mask-level baseline the paper measures itself against is a separate
//! checker ([`flat_check`], module [`flat`]).
//!
//! Every heavy stage is **parallel and deterministic** on one shared
//! worker discipline (module [`parallel`]: ordered job list,
//! work-stealing pool, positional merge — byte-identical for any worker
//! count, all behind [`CheckOptions::parallelism`]). Module [`scope`]
//! describes the top-level hierarchy and plans, once for both pair
//! stages, which element pairs are scored where
//! ([`ScopeTable::rows`]): one row per definition-and-orientation and
//! one per distinct placement of two near definitions, filled once and
//! stamped onto every repeat, and the loose top-level elements scanned
//! against one index of their own, tile by tile. The connection stage
//! follows that plan at reach 0, the interaction stage at the rule
//! reach — filling its rows across the pool and evaluating candidates
//! there too; the netgen bind phase binds terminal and label points
//! through the same table — one index per definition — and returns
//! element ids to a serial fold that builds the rows in canonical order.
//! Instantiation stamps templates on the calling thread, and the flat
//! baseline runs serially. The plan's base case is the **direct scan** —
//! every element of an id set against one index over the set — which
//! is also each pair stage's door for the edit session's halo and, over
//! every id, the reference the plan is held to: `tests/differential.rs`
//! checks on generated chips with injected faults that the plan, serial
//! and wide, finds the direct scan's violation *set* and candidate
//! pairs; its seventh leg pins the parallel connections/netgen stages
//! against serial.
//!
//! # Memory model
//!
//! Candidate and diagnostic memory is **O(tile), not O(chip)** (the
//! instantiated [`ChipView`] itself remains O(elements) — it *is* the
//! chip, its per-element `path` / `net_key` hierarchical [`Name`]s — an
//! instance and a string its definition holds once — to shrink that
//! floor): instantiation derives each repeated definition once and
//! stamps its instances ([`binding::instantiate`] — the templates are a
//! few KB per definition and live for that call), the interaction stage
//! streams candidate pairs unit by unit — a row stamped onto one scope
//! or scope pair, or one tile of a loose scan; one buffer per live
//! worker — and never materialises the all-pairs list (peak buffer
//! recorded in [`InteractStats::peak_candidate_buffer`]), and every
//! stage emits diagnostics through the [`Sink`] trait, whose
//! [`StreamingSink`] / [`CountingSink`] implementations retain at most
//! one bounded chunk ([`check_with_sink`]). Even a *globally sorted*
//! report — the one remaining O(chip) term — stays bounded through the
//! [`SpillingSink`]: past its budget, canonically sorted chunks spill
//! as length-prefixed runs into one unlinked temp file (module
//! [`spill`]) and `finish()` k-way merges them straight into the
//! writer, holding one chunk plus a small cursor buffer per run. Every
//! sink is byte-identical to the buffering one — the ninth differential
//! leg (`tests/sinks.rs`) proves it on generated chips, the spilled leg
//! at budgets down to 1.
//!
//! The full architecture — object model, parallelism model, memory
//! model, and the test-oracle map — is documented in
//! `docs/ARCHITECTURE.md` at the repository root.
//!
//! The checking stages themselves (paper Fig. 10):
//!
//! 1. **Parse CIF** (in [`diic_cif`]) — extended with net identifiers
//!    (`9N`), device types (`9D`), immunity flags (`9C`), terminals (`9T`)
//!    and net labels (`9L`);
//! 2. **Check elements** — interconnect width, once per symbol
//!    *definition* ([`element_checks`]);
//! 3. **Check primitive symbols** — device-internal enclosure / overlap /
//!    overlap-of-overlap rules, with the `9C` immunity waiver
//!    ([`primitive_checks`]);
//! 4. **Check legal connections** — skeletal connectivity (Fig. 11) and
//!    undeclared-device detection (Fig. 8) ([`connect`]);
//! 5. **Generate hierarchical net list** — dot-notation net identifiers,
//!    device terminals ([`netgen`]);
//! 6. **Check interactions** — spacing only, driven by the Fig. 12
//!    upper-triangular layer-pair matrix with same-net / unrelated-device
//!    subcases and device overrides (Figs. 5–6), searched by the scope
//!    table's plan with candidate rows stamped per repeat ([`interact`]);
//!
//! plus the non-geometric construction rules and net-list consistency
//! check.
//!
//! # Example
//!
//! ```
//! use diic_core::{check_cif, CheckOptions};
//! use diic_tech::nmos::nmos_technology;
//!
//! let tech = nmos_technology();
//! let options = CheckOptions { erc: false, ..CheckOptions::default() };
//! let report = check_cif(
//!     "L NM; B 2000 700 1000 350; E", // a 700-wide wire; metal needs 750
//!     &tech,
//!     &options,
//! )?;
//! assert_eq!(report.violations.len(), 1);
//!
//! // Malformed text is a spanned diagnostic, not a report.
//! let error = check_cif("L NM; B 2000 wide 1000 350; E", &tech, &options).unwrap_err();
//! assert_eq!(error.message, "expected a number for B width");
//! assert!(error.render("wire.cif", "L NM; B 2000 wide 1000 350; E").contains('^'));
//! # Ok::<(), diic_cif::Diagnostic>(())
//! ```

pub mod binding;
pub mod checker;
pub mod connect;
pub mod element_checks;
pub mod engine;
pub mod flat;
pub mod incremental;
pub mod interact;
pub mod library;
pub mod netgen;
pub mod parallel;
pub mod primitive_checks;
pub mod report;
pub mod scope;
pub mod spill;
pub mod violations;

pub use binding::{
    instantiate, ChipView, DeviceInstance, ElementColumns, ElementRef, InstantiateStats, Istr,
    LayerBinding, Name, StringInterner,
};
pub use checker::{check, check_cif, check_with_sink, CheckOptions, CheckReport};
pub use connect::{check_connections, check_connections_among, ConnectionResult};
#[doc(hidden)]
pub use engine::StageEngine;
pub use engine::{
    CountingSink, DiagnosticSink, Sink, SpillStats, SpillingSink, StageTime, StreamingSink,
};
pub use flat::{flat_check, FlatLayers};
pub use incremental::{
    canonical_check, CheckSession, Edit, EditError, EditSet, EditStats, RebuildReason,
};
pub use interact::{check_same_mask, interaction_cell_size, max_rule_range, InteractStats};
pub use library::{
    check_library, check_library_buffered, check_library_in, BatchProfile, BoundTechnology,
    DefinitionStats, Definitions, LibraryCache, LibraryOptions, LibraryReport, LibrarySession,
    LibraryStats,
};
pub use parallel::{effective_parallelism, env_parallelism};
pub use report::{
    account, canonical_sort, canonical_sort_keyed, category_of, format_report, merge_keyed,
    render_line, ErrorRegions, InjectedError, ReportDelta,
};
pub use scope::{Neighbours, RowPlan, Scan, ScanIndex, Scope, ScopeIds, ScopeStats, ScopeTable};
pub use spill::SpillFile;
pub use violations::{CheckStage, Violation, ViolationKind};

/// [`instantiate`] under the name and signature the frozen repo
/// benchmark (`benchmark/`, which a change may not edit) calls it by;
/// the worker count is ignored. Not an entry point of its own: nothing
/// else uses it.
#[doc(hidden)]
pub fn instantiate_parallel(
    layout: &diic_cif::Layout,
    tech: &diic_tech::Technology,
    binding: &LayerBinding,
    _workers: usize,
) -> ChipView {
    let definitions = Definitions::new(layout, binding, None);
    instantiate(layout, tech, binding, &definitions, Default::default()).0
}
