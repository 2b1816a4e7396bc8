//! The stage engine: the Fig. 10 pipeline as a trait-based stage set.
//!
//! Instead of hard-wiring the six checking stages as sequential function
//! calls, the pipeline is a [`StageEngine`] holding boxed
//! [`PipelineStage`]s. Every stage reads and writes one shared
//! [`CheckContext`] — the layout, technology, options, and the artefacts
//! earlier stages produced (binding, [`ChipView`], connection merges,
//! net list) — and reports findings by **moving** them into the
//! context's [`DiagnosticSink`], so no stage ever clones its violation
//! vector. The engine times every stage generically and returns a
//! [`StageTime`] profile, which [`crate::checker::check_with_engine`]
//! returns in [`CheckReport::stage_profile`].
//!
//! Two stage sets ship with the crate:
//!
//! * [`StageEngine::diic_pipeline`] — the paper's six stages plus
//!   instantiation and the composition (ERC / net-list consistency)
//!   tail;
//! * [`StageEngine::flat_baseline`] — the mask-level baseline checker as
//!   an alternative four-stage set (union, width, spacing, Fig. 7 gate
//!   rule — each separately profiled, the width/spacing phases parallel
//!   per [`CheckOptions::parallelism`]), so ablation harnesses drive
//!   both checkers through one interface.
//!
//! Custom stages (lint passes, exporters, extra rule decks) implement
//! [`PipelineStage`] and are added with [`StageEngine::register`]; they
//! appear in the per-stage profile like the built-in ones.

use crate::binding::{ChipView, LayerBinding};
use crate::checker::{CheckOptions, CheckReport};
use crate::connect::{check_connections, ConnectionResult};
use crate::element_checks::check_elements;
use crate::flat::{
    flat_gate_checks, flat_spacing_checks, flat_width_checks, FlatLayers, FlatOptions,
};
use crate::interact::{check_interactions, InteractStats};
use crate::library::{BoundTechnology, LibraryCache, LibrarySession};
use crate::netgen::{NetParts, NetgenResult, TerminalNets};
use crate::parallel::effective_parallelism;
use crate::primitive_checks::check_primitive_symbols;
use crate::scope::{ScopeStats, ScopeTable};
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::Layout;
use diic_netlist::{check_erc_net, compare_by_structure, NetId, NetlistBuilder};
use diic_tech::Technology;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Where stages deposit violations, by move.
///
/// Every producer in the pipeline — the [`PipelineStage`]s of both
/// stage sets, and the incremental session's patch phases — emits
/// through this trait, so the decision of *what happens to a
/// violation* (buffer it, stream it to a writer, just count it) is the
/// caller's, not the stage's. Three implementations ship with the
/// crate:
///
/// * [`DiagnosticSink`] — buffers everything in one vector (the
///   classic report path);
/// * [`StreamingSink`] — holds at most one bounded chunk in memory,
///   flushing each chunk (canonically sorted) to a writer — the
///   bounded-memory report path for million-element chips;
/// * [`SpillingSink`] — like [`StreamingSink`] but the writer receives
///   the **fully sorted** report: chunks past the in-memory budget
///   spill to on-disk sorted runs ([`crate::spill`]) and
///   [`SpillingSink::finish`] streams their k-way merge;
/// * [`CountingSink`] — retains nothing, counting per report stage.
///
/// The ingestion contract all implementations share: violations are
/// accepted **append-only, in arrival order** — a sink may batch or
/// discard, but never reorder what a caller observes through
/// [`Sink::len`], and [`Sink::take_buffered`] returns whatever is
/// retained in arrival order.
pub trait Sink: std::fmt::Debug {
    /// Accepts one violation.
    fn push(&mut self, v: Violation);

    /// Drains `vs` into the sink, leaving it empty (for violation
    /// vectors embedded in stage result structs). This keeps the
    /// zero-copy discipline: diagnostics move, they are never cloned on
    /// their way out of a stage.
    fn append(&mut self, vs: &mut Vec<Violation>) {
        for v in vs.drain(..) {
            self.push(v);
        }
    }

    /// Moves a whole vector of violations into the sink (the
    /// owned-vector form of [`Sink::append`] — both funnel through one
    /// path so the ordering contract cannot fork).
    fn absorb(&mut self, vs: Vec<Violation>) {
        let mut vs = vs;
        self.append(&mut vs);
    }

    /// Number of violations **accepted** so far (streamed or counted
    /// ones included — this is what the engine's per-stage profile
    /// reads, so it must not reset on flush).
    fn len(&self) -> usize;

    /// True if nothing has been accepted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes whatever the sink still holds **in memory**, in arrival
    /// order. A buffering sink returns everything it accepted; a
    /// streaming or counting sink returns nothing (its violations left
    /// through the writer, or were never retained).
    fn take_buffered(&mut self) -> Vec<Violation> {
        Vec::new()
    }
}

impl<S: Sink + ?Sized> Sink for &mut S {
    fn push(&mut self, v: Violation) {
        (**self).push(v);
    }
    fn append(&mut self, vs: &mut Vec<Violation>) {
        (**self).append(vs);
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn take_buffered(&mut self) -> Vec<Violation> {
        (**self).take_buffered()
    }
}

/// The buffering [`Sink`]: owns every violation of a run in one vector.
#[derive(Debug, Default)]
pub struct DiagnosticSink {
    violations: Vec<Violation>,
}

impl DiagnosticSink {
    /// An empty sink.
    pub fn new() -> Self {
        DiagnosticSink::default()
    }

    /// Consumes the sink, yielding the collected violations in **report
    /// order**.
    ///
    /// The ordering contract (which report patching depends on): the
    /// list is exactly the concatenation of each stage's violations in
    /// stage *registration* order, and within one stage in the order
    /// the stage pushed them — ingestion is append-only through
    /// [`Sink::append`], nothing is ever reordered or deduplicated
    /// here. A canonical refinement of this order (sorted within each
    /// stage) is produced by [`crate::report::canonical_sort`]; the
    /// incremental checker keeps its patched reports in that canonical
    /// form.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }
}

impl Sink for DiagnosticSink {
    fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }

    fn append(&mut self, vs: &mut Vec<Violation>) {
        self.violations.append(vs);
    }

    fn len(&self) -> usize {
        self.violations.len()
    }

    fn take_buffered(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

/// A bounded-memory [`Sink`]: retains at most `chunk_capacity`
/// violations, flushing each full chunk — canonically sorted within
/// itself ([`crate::report::canonical_sort`]) — to the writer as one
/// debug-rendered line per violation. Pairing this with the tiled
/// interaction search and sharded instantiation keeps a whole check run
/// at O(tile) memory end to end.
///
/// Write errors are deferred (the [`Sink`] methods cannot fail) and
/// surfaced by [`StreamingSink::finish`].
///
/// **Error latch.** The first write failure poisons the sink: the
/// failed chunk is dropped (a partial `write_all` may have left its
/// prefix in the writer, but [`StreamingSink::written`] does not count
/// it — `written` means *durably written in full chunks*), every
/// subsequent [`Sink::push`] is discarded without buffering or
/// counting, and [`StreamingSink::finish`] returns the original error.
/// A poisoned sink therefore stops mutating both its own state and the
/// writer the moment the error occurs, instead of interleaving later
/// chunks after a torn one.
pub struct StreamingSink<W: std::io::Write> {
    out: W,
    chunk: Vec<Violation>,
    capacity: usize,
    accepted: usize,
    written: usize,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> StreamingSink<W> {
    /// A sink flushing to `out` every `chunk_capacity` violations
    /// (clamped to ≥ 1; `1` streams every violation immediately).
    pub fn new(out: W, chunk_capacity: usize) -> Self {
        StreamingSink {
            out,
            chunk: Vec::new(),
            capacity: chunk_capacity.max(1),
            accepted: 0,
            written: 0,
            error: None,
        }
    }

    /// Violations written **durably** to the writer so far: complete
    /// chunks whose `write_all` succeeded. Excludes the pending chunk
    /// and any chunk lost to a write error (even if a prefix of its
    /// bytes reached the writer before the failure).
    pub fn written(&self) -> usize {
        self.written
    }

    /// True once a write error has latched: the sink is poisoned, all
    /// further input is dropped, and [`StreamingSink::finish`] will
    /// return the error.
    pub fn errored(&self) -> bool {
        self.error.is_some()
    }

    fn flush_chunk(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        crate::report::canonical_sort(&mut self.chunk);
        // Format the whole (bounded) chunk and write it in one call:
        // a raw `File` writer then pays one syscall per chunk, not one
        // per violation — no `BufWriter` required of the caller.
        let flushed = self.chunk.len();
        let mut text = String::new();
        for v in self.chunk.drain(..) {
            use std::fmt::Write as _;
            let _ = writeln!(text, "{v:?}");
        }
        match self.out.write_all(text.as_bytes()) {
            Ok(()) => self.written += flushed,
            Err(e) => self.error = Some(e),
        }
    }

    /// Flushes the pending chunk and returns the writer — or the first
    /// deferred write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if self.error.is_none() {
            self.flush_chunk();
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.out),
        }
    }
}

impl<W: std::io::Write> std::fmt::Debug for StreamingSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingSink")
            .field("capacity", &self.capacity)
            .field("accepted", &self.accepted)
            .field("written", &self.written)
            .field("pending", &self.chunk.len())
            .field("errored", &self.error.is_some())
            .finish()
    }
}

impl<W: std::io::Write> Sink for StreamingSink<W> {
    fn push(&mut self, v: Violation) {
        if self.error.is_some() {
            // The latch: a poisoned sink accepts nothing further.
            return;
        }
        self.accepted += 1;
        self.chunk.push(v);
        if self.chunk.len() >= self.capacity {
            self.flush_chunk();
        }
    }

    fn len(&self) -> usize {
        self.accepted
    }
}

/// Statistics of a finished [`SpillingSink`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs spilled to disk (0 = the whole report fit the
    /// in-memory budget and was sorted and written directly).
    pub runs: usize,
    /// Bytes of encoded run records spilled to disk.
    pub spilled_bytes: u64,
    /// Violations written to the output writer (the full report).
    pub written: usize,
}

/// The external-sort [`Sink`]: a bounded in-memory budget, on-disk
/// sorted runs past it, and a k-way merge at the end — the writer
/// receives the report in **global canonical order**
/// ([`crate::report::canonical_sort`] order, byte-identical to sorting
/// a [`DiagnosticSink`]'s buffer) while the process never holds more
/// than `budget` violations plus O(runs) merge cursors in memory.
///
/// Accepted violations accumulate in one chunk; when the chunk reaches
/// the budget it is canonically sorted and appended as a *run* to a
/// single unlinked temp file ([`crate::spill::SpillFile`] — see that
/// module for the record format). [`SpillingSink::finish`] then streams
/// the heap-merge of all runs (plus the final partial chunk) to the
/// writer as one debug-rendered line per violation. A report that
/// never exceeds the budget spills nothing: it is sorted in memory and
/// written directly, so small chips pay no I/O beyond the final write.
///
/// **Error latch.** Spill and merge I/O can fail mid-run; the first
/// failure poisons the sink exactly like [`StreamingSink`]: further
/// input is dropped uncounted, no further writes are attempted, and
/// [`SpillingSink::finish`] returns the error.
pub struct SpillingSink<W: std::io::Write> {
    out: W,
    chunk: Vec<Violation>,
    budget: usize,
    accepted: usize,
    spill: Option<crate::spill::SpillFile>,
    spill_dir: Option<std::path::PathBuf>,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> SpillingSink<W> {
    /// A sink merging to `out`, spilling every `budget` violations
    /// (clamped to ≥ 1; `1` makes every violation its own run — the
    /// degenerate all-merge configuration the differential oracle
    /// exercises). Runs spill to the system temp directory; see
    /// [`SpillingSink::with_spill_dir`].
    pub fn new(out: W, budget: usize) -> Self {
        SpillingSink {
            out,
            chunk: Vec::new(),
            budget: budget.max(1),
            accepted: 0,
            spill: None,
            spill_dir: None,
            error: None,
        }
    }

    /// Directs run spilling into `dir` instead of the system temp
    /// directory (the file is still unlinked/deleted automatically).
    #[must_use]
    pub fn with_spill_dir(mut self, dir: std::path::PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// True once a spill or write error has latched (see the type-level
    /// docs); [`SpillingSink::finish`] will return the error.
    pub fn errored(&self) -> bool {
        self.error.is_some()
    }

    /// Sorted runs spilled so far (the final partial chunk spills at
    /// [`SpillingSink::finish`], so this can grow by one more).
    pub fn spilled_runs(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.runs())
    }

    fn spill_chunk(&mut self) {
        if self.chunk.is_empty() || self.error.is_some() {
            self.chunk.clear();
            return;
        }
        crate::report::canonical_sort(&mut self.chunk);
        let result = (|| -> std::io::Result<()> {
            if self.spill.is_none() {
                self.spill = Some(crate::spill::SpillFile::create_in(
                    self.spill_dir.as_deref(),
                )?);
            }
            // invariant: just created above when absent.
            let spill = self.spill.as_mut().expect("created above");
            spill.append_run(&self.chunk)
        })();
        self.chunk.clear();
        if let Err(e) = result {
            self.error = Some(e);
        }
    }

    /// Merges every spilled run (and the pending chunk) into the
    /// writer in global canonical order, returning the writer and the
    /// run statistics — or the first deferred error.
    pub fn finish(mut self) -> std::io::Result<(W, SpillStats)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut stats = SpillStats {
            written: self.accepted,
            ..SpillStats::default()
        };
        // Batch merged lines so the writer sees large writes, not one
        // syscall per violation.
        const FLUSH_BYTES: usize = 256 * 1024;
        let mut text = String::new();
        if let Some(mut spill) = self.spill.take() {
            // External path: the pending chunk becomes the last run,
            // then everything merges from disk.
            self.spill = Some(spill);
            self.spill_chunk();
            if let Some(e) = self.error.take() {
                return Err(e);
            }
            // invariant: spill_chunk either latched an error (returned
            // above) or left a spill file holding at least this chunk.
            spill = self.spill.take().expect("spill survives spill_chunk");
            stats.runs = spill.runs();
            stats.spilled_bytes = spill.bytes();
            let out = &mut self.out;
            spill.merge(&mut |_, line| {
                text.push_str(&line);
                text.push('\n');
                if text.len() >= FLUSH_BYTES {
                    out.write_all(text.as_bytes())?;
                    text.clear();
                }
                Ok(())
            })?;
        } else {
            // In-memory path: the whole report fit the budget.
            crate::report::canonical_sort(&mut self.chunk);
            for v in self.chunk.drain(..) {
                use std::fmt::Write as _;
                let _ = writeln!(text, "{v:?}");
                if text.len() >= FLUSH_BYTES {
                    self.out.write_all(text.as_bytes())?;
                    text.clear();
                }
            }
        }
        if !text.is_empty() {
            self.out.write_all(text.as_bytes())?;
        }
        Ok((self.out, stats))
    }
}

impl<W: std::io::Write> std::fmt::Debug for SpillingSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillingSink")
            .field("budget", &self.budget)
            .field("accepted", &self.accepted)
            .field("pending", &self.chunk.len())
            .field("runs", &self.spilled_runs())
            .field("errored", &self.error.is_some())
            .finish()
    }
}

impl<W: std::io::Write> Sink for SpillingSink<W> {
    fn push(&mut self, v: Violation) {
        if self.error.is_some() {
            // The latch: a poisoned sink accepts nothing further.
            return;
        }
        self.accepted += 1;
        self.chunk.push(v);
        if self.chunk.len() >= self.budget {
            self.spill_chunk();
        }
    }

    fn len(&self) -> usize {
        self.accepted
    }
}

/// A retention-free [`Sink`]: counts violations per report stage and in
/// total, holding nothing — the cheapest way to answer "how many, and
/// where" on a chip whose full report would not fit in memory.
#[derive(Debug, Default)]
pub struct CountingSink {
    total: usize,
    by_stage: [usize; crate::report::STAGE_COUNT],
}

impl CountingSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Violations accepted for one report stage.
    pub fn count(&self, stage: CheckStage) -> usize {
        self.by_stage[crate::report::stage_rank(stage)]
    }

    /// Violations accepted in total.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl Sink for CountingSink {
    fn push(&mut self, v: Violation) {
        self.total += 1;
        self.by_stage[crate::report::stage_rank(v.stage)] += 1;
    }

    fn len(&self) -> usize {
        self.total
    }
}

/// Shared state threaded through a pipeline run.
///
/// The context owns everything a stage may need: the borrowed inputs
/// (`layout`, `tech`), the run `options`, the sink, and the artefacts
/// produced by earlier stages (`binding`, `view`, `connections`,
/// `nets`). Later stages use the panicking accessors ([`Self::view`],
/// [`Self::nets`], …) which name the stage that must run first, so a
/// mis-assembled custom engine fails loudly instead of silently
/// reporting nothing.
///
/// **Violations live in the sink, not in the artefacts.** The built-in
/// stages drain the `violations` vector of every result they store
/// (that is the zero-copy contract), so a custom stage reading
/// `ctx.view().violations` or `ctx.connections().violations` will find
/// them empty — inspect [`CheckContext::sink`] instead.
#[derive(Debug)]
pub struct CheckContext<'a> {
    /// The parsed layout under check.
    pub layout: &'a Layout,
    /// The technology (layers, rule matrix, device archetypes).
    pub tech: &'a Technology,
    /// Options for this run (borrowed — a run never mutates them).
    pub options: &'a CheckOptions,
    /// Violation sink shared by all stages. All violations found so
    /// far — including those drained out of `view`, `connections` and
    /// `nets` below — went through it. A context built with
    /// [`CheckContext::new`] owns a buffering [`DiagnosticSink`];
    /// [`CheckContext::new_with_sink`] borrows any [`Sink`] (streaming,
    /// counting, custom) instead.
    pub sink: Box<dyn Sink + 'a>,
    /// Layer binding, set by the instantiate stage.
    pub binding: Option<LayerBinding>,
    /// Instantiated chip view, set by the instantiate stage (its
    /// `violations` have been moved into the sink).
    pub view: Option<ChipView>,
    /// The view's top-level scopes, set by the instantiate stage from the
    /// run lengths it instantiated — what the connection stage and the
    /// hierarchical interaction search read the hierarchy from.
    pub scopes: Option<ScopeTable>,
    /// What the scope table was worth to this run: the table's own
    /// counts, plus the connection stage's row-cache counters.
    pub scope_stats: ScopeStats,
    /// Connection-stage output (merges for net-list generation; its
    /// `violations` have been moved into the sink).
    pub connections: Option<ConnectionResult>,
    /// Net-list generation output (its `violations` have been moved
    /// into the sink).
    pub nets: Option<NetgenResult>,
    /// Per top-level item `(elements, devices)` run lengths, kept by the
    /// instantiate stage: the unit an edit session re-instantiates by.
    pub(crate) runs: Vec<(usize, usize)>,
    /// The net graph the net-list stage assembled `nets` from, kept for
    /// an edit session to patch.
    pub(crate) net_parts: Option<NetParts>,
    /// Per-layer mask unions, set by the flat-union stage (the flat
    /// baseline's counterpart of the instantiate stage).
    pub flat_layers: Option<FlatLayers>,
    /// Interaction-stage statistics.
    pub interact_stats: InteractStats,
    /// Devices waived by the `9C` immunity flag.
    pub waived_devices: Vec<String>,
    /// The technology's interaction-scale constants (rule reach, grid
    /// cell size, device-forming pairs): built once when the context
    /// is, or borrowed from the library batch's session.
    pub(crate) bound: Cow<'a, BoundTechnology>,
    /// The library batch's cross-cell content-keyed candidate cache.
    /// `None` keeps candidate fills run-local — the standalone
    /// [`crate::check`] behaviour; either way the run's output bytes
    /// are identical.
    pub(crate) cache: Option<&'a LibraryCache>,
    /// A warm [`StringInterner`] the instantiate stage seeds the view's
    /// string table from (the library batch driver's per-worker session
    /// dictionary). `None` starts cold. Handle *values* differ between
    /// the two, but handles never reach rendered output (violations
    /// materialize strings at creation; the net list canonicalises by
    /// key strings), so either way the report bytes are identical.
    pub(crate) seed_strings: Option<crate::binding::StringInterner>,
}

impl<'a> CheckContext<'a> {
    /// A fresh context with no stage artefacts yet, buffering its
    /// violations in an owned [`DiagnosticSink`].
    pub fn new(layout: &'a Layout, tech: &'a Technology, options: &'a CheckOptions) -> Self {
        let bound = Cow::Owned(BoundTechnology::new(tech));
        let sink = Box::new(DiagnosticSink::new());
        CheckContext::with_sink(layout, tech, options, sink, bound, None)
    }

    /// A fresh context emitting through a borrowed [`Sink`] — the
    /// bounded-memory entry point: pair it with a [`StreamingSink`] or
    /// [`CountingSink`] and the run never buffers its report
    /// (the resulting [`CheckReport::violations`] is then empty; the
    /// sink saw everything).
    pub fn new_with_sink(
        layout: &'a Layout,
        tech: &'a Technology,
        options: &'a CheckOptions,
        sink: &'a mut dyn Sink,
    ) -> Self {
        let bound = Cow::Owned(BoundTechnology::new(tech));
        CheckContext::with_sink(layout, tech, options, Box::new(sink), bound, None)
    }

    /// A fresh context for one cell of a library batch: the technology
    /// constants and the cross-cell candidate cache come from the
    /// batch's `session`, which must have been built for `tech`.
    pub(crate) fn in_library(
        layout: &'a Layout,
        tech: &'a Technology,
        options: &'a CheckOptions,
        sink: &'a mut dyn Sink,
        session: &'a LibrarySession,
    ) -> Self {
        let bound = Cow::Borrowed(&session.bound);
        let cache = Some(&session.cache);
        CheckContext::with_sink(layout, tech, options, Box::new(sink), bound, cache)
    }

    fn with_sink(
        layout: &'a Layout,
        tech: &'a Technology,
        options: &'a CheckOptions,
        sink: Box<dyn Sink + 'a>,
        bound: Cow<'a, BoundTechnology>,
        cache: Option<&'a LibraryCache>,
    ) -> Self {
        CheckContext {
            layout,
            tech,
            options,
            sink,
            binding: None,
            view: None,
            scopes: None,
            scope_stats: ScopeStats::default(),
            connections: None,
            nets: None,
            runs: Vec::new(),
            net_parts: None,
            flat_layers: None,
            interact_stats: InteractStats::default(),
            waived_devices: Vec::new(),
            bound,
            cache,
            seed_strings: None,
        }
    }

    /// Builder-style warm interner seed (see
    /// [`CheckContext::seed_strings`]).
    #[must_use]
    pub(crate) fn with_seed_strings(mut self, seed: crate::binding::StringInterner) -> Self {
        self.seed_strings = Some(seed);
        self
    }

    /// Takes the view's string table out of a finished context (the
    /// library batch driver reclaims its per-worker session interner
    /// this way, now holding the cell's additions). Call after the
    /// engine ran and before [`CheckContext::into_report`] — the report
    /// only reads counts and already-materialized strings.
    pub(crate) fn take_strings(&mut self) -> Option<crate::binding::StringInterner> {
        self.view.as_mut().map(|v| std::mem::take(&mut v.strings))
    }

    // invariant (this and the accessors below): stage-order contract —
    // the engine runs producers before consumers, so a populated field
    // here is a precondition of being scheduled at all; a panic is a
    // mis-registered custom stage set, not an input- or I/O-reachable
    // state.

    /// The layer binding (requires the instantiate stage).
    pub fn binding(&self) -> &LayerBinding {
        self.binding
            .as_ref()
            .expect("layer binding not available: run the instantiate stage first")
    }

    /// The instantiated chip view (requires the instantiate stage).
    pub fn view(&self) -> &ChipView {
        self.view
            .as_ref()
            .expect("chip view not available: run the instantiate stage first")
    }

    /// The view's top-level scopes (requires the instantiate stage).
    pub fn scopes(&self) -> &ScopeTable {
        self.scopes
            .as_ref()
            .expect("scope table not available: run the instantiate stage first")
    }

    /// Mutable chip view (the net-list stage interns its fresh node
    /// keys into the view's string table).
    pub fn view_mut(&mut self) -> &mut ChipView {
        self.view
            .as_mut()
            .expect("chip view not available: run the instantiate stage first")
    }

    /// The connection results (requires the connections stage).
    pub fn connections(&self) -> &ConnectionResult {
        self.connections
            .as_ref()
            .expect("connection results not available: run the connections stage first")
    }

    /// The generated net list (requires the net-list stage).
    pub fn nets(&self) -> &NetgenResult {
        self.nets
            .as_ref()
            .expect("net list not available: run the net-list stage first")
    }

    /// The per-layer mask unions (requires the flat-union stage).
    pub fn flat_layers(&self) -> &FlatLayers {
        self.flat_layers
            .as_ref()
            .expect("flat layer unions not available: run the flat-union stage first")
    }

    /// Folds the finished context and a stage profile into a report.
    /// The report's `violations` are whatever the sink retained in
    /// memory — everything for a buffering context, nothing for a
    /// streaming or counting one.
    pub fn into_report(mut self, profile: Vec<StageTime>) -> CheckReport {
        self.take_report(profile)
    }

    /// [`Self::into_report`] without a stage profile, plus the artefacts
    /// an edit session patches from then on: the one way a
    /// [`crate::incremental::CheckSession`] opens and rebuilds. Requires
    /// a finished [`StageEngine::diic_pipeline`] run.
    pub(crate) fn into_session_parts(mut self) -> (CheckReport, SessionArtefacts) {
        let report = self.take_report(Vec::new());
        // invariant: the stage-order contract, as for the accessors.
        let missing = "session artefacts not available: run the DIIC pipeline first";
        let nets = self.nets.expect(missing);
        let artefacts = SessionArtefacts {
            bound: self.bound.into_owned(),
            binding: self.binding.expect(missing),
            view: self.view.expect(missing),
            runs: self.runs,
            merges: self.connections.expect(missing).merges,
            parts: self.net_parts.expect(missing),
            element_net: nets.element_net,
            device_terminal_nets: nets.device_terminal_nets,
        };
        (report, artefacts)
    }

    fn take_report(&mut self, profile: Vec<StageTime>) -> CheckReport {
        let (element_count, device_count, instantiate_stats) = self
            .view
            .as_ref()
            .map(|v| (v.elements.len(), v.devices.len(), v.instantiate_stats))
            .unwrap_or_default();
        CheckReport {
            violations: self.sink.take_buffered(),
            netlist: (self.nets.as_mut())
                .map(|n| std::mem::take(&mut n.netlist))
                .unwrap_or_else(|| NetlistBuilder::new().finish()),
            interact_stats: self.interact_stats,
            stage_profile: profile,
            waived_devices: std::mem::take(&mut self.waived_devices),
            element_count,
            device_count,
            instantiate_stats,
            scope_stats: self.scope_stats,
        }
    }
}

/// What a finished [`StageEngine::diic_pipeline`] run leaves an edit
/// session beside the report.
#[derive(Debug)]
pub(crate) struct SessionArtefacts {
    pub bound: BoundTechnology,
    pub binding: LayerBinding,
    pub view: ChipView,
    /// Per top-level item `(elements, devices)` run lengths.
    pub runs: Vec<(usize, usize)>,
    pub merges: Vec<(usize, usize)>,
    pub parts: NetParts,
    pub element_net: Vec<Option<NetId>>,
    pub device_terminal_nets: TerminalNets,
}

/// One stage of a checking pipeline.
pub trait PipelineStage {
    /// Stable stage name, used for timing profiles and diagnostics.
    fn name(&self) -> &'static str;

    /// The report stage ([`CheckStage`]) this stage primarily feeds, if
    /// any. Infrastructure stages (instantiation, exporters) return
    /// `None`.
    fn stage(&self) -> Option<CheckStage> {
        None
    }

    /// Runs the stage against the shared context.
    fn run(&self, ctx: &mut CheckContext<'_>);
}

/// Wall-clock record for one executed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTime {
    /// The stage's [`PipelineStage::name`].
    pub name: String,
    /// Time spent inside [`PipelineStage::run`].
    pub duration: Duration,
    /// Violations the stage pushed into the sink.
    pub violations: usize,
}

/// An ordered, extensible set of pipeline stages.
#[derive(Default)]
pub struct StageEngine {
    stages: Vec<Box<dyn PipelineStage>>,
}

impl StageEngine {
    /// An empty engine; add stages with [`Self::register`].
    pub fn new() -> Self {
        StageEngine::default()
    }

    /// Appends a stage to the pipeline.
    pub fn register(&mut self, stage: Box<dyn PipelineStage>) -> &mut Self {
        self.stages.push(stage);
        self
    }

    /// Builder-style [`Self::register`].
    #[must_use]
    pub fn with_stage(mut self, stage: Box<dyn PipelineStage>) -> Self {
        self.stages.push(stage);
        self
    }

    /// Names of the registered stages, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// The paper's Fig. 10 pipeline: instantiate, elements, primitive
    /// symbols, connections, net list, interactions, composition.
    pub fn diic_pipeline() -> Self {
        StageEngine::new()
            .with_stage(Box::new(InstantiateStage))
            .with_stage(Box::new(ElementsStage))
            .with_stage(Box::new(PrimitivesStage))
            .with_stage(Box::new(ConnectionsStage))
            .with_stage(Box::new(NetgenStage))
            .with_stage(Box::new(InteractionsStage))
            .with_stage(Box::new(CompositionStage))
    }

    /// The flat mask-level baseline as an alternative stage set: union
    /// per layer, then the width, spacing, and contact-over-gate phases
    /// as separately profiled stages. The width and spacing stages run
    /// their per-layer/per-rule jobs across the scoped worker pool when
    /// [`CheckOptions::parallelism`] asks for it — like the interaction
    /// stage, byte-identical to serial.
    pub fn flat_baseline(options: FlatOptions) -> Self {
        StageEngine::new()
            .with_stage(Box::new(FlatUnionStage { options }))
            .with_stage(Box::new(FlatWidthStage { options }))
            .with_stage(Box::new(FlatSpacingStage { options }))
            .with_stage(Box::new(FlatGateStage { options }))
    }

    /// Runs every stage in order, timing each generically.
    pub fn run(&self, ctx: &mut CheckContext<'_>) -> Vec<StageTime> {
        self.stages
            .iter()
            .map(|stage| {
                let before = ctx.sink.len();
                let t0 = Instant::now();
                stage.run(ctx);
                StageTime {
                    name: stage.name().to_string(),
                    duration: t0.elapsed(),
                    violations: ctx.sink.len() - before,
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for StageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageEngine")
            .field("stages", &self.stage_names())
            .finish()
    }
}

/// Binds layers and instantiates the chip view (the pipeline's front
/// end; not one of the paper's numbered checking stages) through
/// [`crate::binding::instantiate`]: each repeated definition derived
/// once and stamped. The per-item run lengths it returns become the
/// context's [`ScopeTable`].
pub struct InstantiateStage;

impl PipelineStage for InstantiateStage {
    fn name(&self) -> &'static str {
        "instantiate"
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let (binding, bind_violations) = LayerBinding::bind(ctx.layout, ctx.tech);
        ctx.sink.absorb(bind_violations);
        let seed = ctx.seed_strings.take().unwrap_or_default();
        let (mut view, runs) = crate::binding::instantiate(ctx.layout, ctx.tech, &binding, seed);
        ctx.sink.append(&mut view.violations);
        let scopes = ScopeTable::build(
            ctx.layout.top_items(),
            runs.iter().map(|&(elements, _)| elements),
            view.elements.bboxes(),
            ctx.bound.max_rule_range(),
        );
        ctx.scope_stats = scopes.stats();
        ctx.scopes = Some(scopes);
        ctx.runs = runs;
        ctx.binding = Some(binding);
        ctx.view = Some(view);
    }
}

/// Stage 2 — "check elements": interconnect width per definition.
pub struct ElementsStage;

impl PipelineStage for ElementsStage {
    fn name(&self) -> &'static str {
        "elements"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::Elements)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let vs = check_elements(ctx.layout, ctx.tech, ctx.binding());
        ctx.sink.absorb(vs);
    }
}

/// Stage 3 — "check primitive symbols": device-internal rules with the
/// `9C` immunity waiver.
pub struct PrimitivesStage;

impl PipelineStage for PrimitivesStage {
    fn name(&self) -> &'static str {
        "primitives"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::PrimitiveSymbols)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let prim = check_primitive_symbols(ctx.layout, ctx.tech, ctx.binding());
        ctx.sink.absorb(prim.violations);
        ctx.waived_devices = prim.waived;
    }
}

/// Stage 4 — "check legal connections": skeletal connectivity and
/// undeclared-device detection, read through the scope table — each
/// definition's interior and each distinct placement of two touching
/// definitions scored once and stamped, the scans tiled across the
/// scoped worker pool ([`CheckOptions::parallelism`]) — byte-identical
/// to the direct scan for any worker count.
pub struct ConnectionsStage;

impl PipelineStage for ConnectionsStage {
    fn name(&self) -> &'static str {
        "connections"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::Connections)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let workers = effective_parallelism(ctx.options.parallelism);
        let (mut conn, stats) = check_connections(ctx.view(), ctx.tech, ctx.scopes(), workers);
        ctx.sink.append(&mut conn.violations);
        ctx.scope_stats = stats;
        ctx.connections = Some(conn);
    }
}

/// Stage 5 — "generate hierarchical net list". Terminal and label
/// points bind through the scope table — one index per definition, not
/// one over the chip — across the scoped worker pool
/// ([`CheckOptions::parallelism`]), which returns element ids only; the
/// serial fold builds the rows and interns their keys in device/label
/// order, so any worker count yields a byte-identical net list.
pub struct NetgenStage;

impl PipelineStage for NetgenStage {
    fn name(&self) -> &'static str {
        "netlist"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::NetList)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let workers = effective_parallelism(ctx.options.parallelism);
        // Field by field, not through the accessors: the view is
        // borrowed mutably (fresh node keys intern into its table)
        // beside the merges, labels and scopes the stage only reads.
        let (Some(view), Some(binding), Some(scopes), Some(conn)) = (
            ctx.view.as_mut(),
            ctx.binding.as_ref(),
            ctx.scopes.as_ref(),
            ctx.connections.as_ref(),
        ) else {
            // invariant: the stage-order contract (see the accessors).
            panic!(
                "net-list inputs not available: run the instantiate and connections stages first"
            )
        };
        let labels: Vec<_> = (ctx.layout.labels().iter())
            .map(|l| (l, binding.layer(l.layer)))
            .collect();
        let (mut parts, stats) =
            NetParts::build(view, ctx.tech, &conn.merges, &labels, scopes, workers);
        let mut nets = parts.assemble(view);
        ctx.scope_stats = ctx.scope_stats.with_binding_of(stats);
        ctx.sink.append(&mut nets.violations);
        ctx.nets = Some(nets);
        ctx.net_parts = Some(parts);
    }
}

/// Stage 6 — "check interactions": spacing via the rule matrix, searched
/// serially or across a scoped thread pool
/// ([`CheckOptions::parallelism`]).
pub struct InteractionsStage;

impl PipelineStage for InteractionsStage {
    fn name(&self) -> &'static str {
        "interactions"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::Interactions)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let (ivs, stats) = check_interactions(
            ctx.view(),
            ctx.tech,
            &ctx.bound,
            ctx.nets(),
            ctx.scopes(),
            ctx.options,
            ctx.cache,
        );
        ctx.sink.absorb(ivs);
        ctx.interact_stats = stats;
    }
}

/// The non-geometric construction rules (ERC) over the given nets of
/// `netlist`, as report lines: [`CheckStage::Composition`], no
/// location, the net's canonical name as context. The one wrapper of
/// [`check_erc_net`]: [`CompositionStage`] passes every net, the
/// incremental session the nets its net-list splice built fresh (every
/// rule is a predicate of one net, so a net the splice copied across
/// keeps its lines).
pub(crate) fn erc_violations(
    netlist: &diic_netlist::Netlist,
    tech: &Technology,
    nets: impl IntoIterator<Item = NetId>,
) -> Vec<Violation> {
    let mut found = Vec::new();
    for net in nets {
        check_erc_net(netlist, net, tech, &mut found);
    }
    (found.into_iter())
        .map(|e| Violation {
            stage: CheckStage::Composition,
            kind: ViolationKind::Erc {
                rule: e.rule,
                detail: e.detail,
            },
            location: None,
            context: netlist.net(e.net).name().to_string(),
        })
        .collect()
}

/// The net-list consistency check against
/// [`CheckOptions::intended_netlist`], as [`CheckStage::NetList`] lines
/// (none without an intended list). A whole-list comparison: the
/// incremental session re-runs it in full on every edit.
pub(crate) fn netlist_mismatch_violations(
    netlist: &diic_netlist::Netlist,
    options: &CheckOptions,
) -> Vec<Violation> {
    let Some(intended) = &options.intended_netlist else {
        return Vec::new();
    };
    let diff = compare_by_structure(netlist, intended, 12);
    if diff.matched {
        return Vec::new();
    }
    (diff.messages.into_iter())
        .map(|msg| Violation {
            stage: CheckStage::NetList,
            kind: ViolationKind::NetlistMismatch { detail: msg },
            location: None,
            context: String::new(),
        })
        .collect()
}

/// The composition tail: non-geometric construction rules (ERC) over
/// every net, and the net-list consistency check.
pub struct CompositionStage;

impl PipelineStage for CompositionStage {
    fn name(&self) -> &'static str {
        "composition"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::Composition)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let netlist = &ctx.nets().netlist;
        let mut vs = Vec::new();
        if ctx.options.erc {
            vs = erc_violations(netlist, ctx.tech, netlist.nets().map(|net| net.id()));
        }
        vs.extend(netlist_mismatch_violations(netlist, ctx.options));
        ctx.sink.absorb(vs);
    }
}

/// Flat front end: flatten the layout and union it per mask layer (the
/// baseline's counterpart of the instantiate stage — all topology is
/// discarded here). The per-layer unions run across the worker pool
/// (`flat_stage_workers`), byte-identical to serial.
pub struct FlatUnionStage {
    /// Baseline knobs (worker count).
    pub options: FlatOptions,
}

impl PipelineStage for FlatUnionStage {
    fn name(&self) -> &'static str {
        "flat-union"
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let workers = flat_stage_workers(&self.options, ctx);
        ctx.flat_layers = Some(FlatLayers::build(ctx.layout, ctx.tech, workers));
    }
}

/// The worker count for a flat stage: the stage's own
/// [`FlatOptions::parallelism`] when explicitly set, otherwise the
/// run-wide [`CheckOptions::parallelism`] — so neither knob is silently
/// dead in engine runs.
fn flat_stage_workers(options: &FlatOptions, ctx: &CheckContext<'_>) -> usize {
    if options.parallelism == 1 {
        effective_parallelism(ctx.options.parallelism)
    } else {
        options.effective_parallelism()
    }
}

/// Flat width phase: shrink-expand-compare per layer, parallel over
/// layers (`flat_stage_workers`).
pub struct FlatWidthStage {
    /// Baseline knobs (metric, raster resolution).
    pub options: FlatOptions,
}

impl PipelineStage for FlatWidthStage {
    fn name(&self) -> &'static str {
        "flat-width"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::Elements)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let workers = flat_stage_workers(&self.options, ctx);
        let vs = flat_width_checks(ctx.flat_layers(), ctx.tech, &self.options, workers);
        ctx.sink.absorb(vs);
    }
}

/// Flat spacing phase: expand-check-overlap per rule entry / component,
/// parallel over the job list (`flat_stage_workers`).
pub struct FlatSpacingStage {
    /// Baseline knobs (metric).
    pub options: FlatOptions,
}

impl PipelineStage for FlatSpacingStage {
    fn name(&self) -> &'static str {
        "flat-spacing"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::Interactions)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        let workers = flat_stage_workers(&self.options, ctx);
        let vs = flat_spacing_checks(ctx.flat_layers(), ctx.tech, &self.options, workers);
        ctx.sink.absorb(vs);
    }
}

/// Flat Fig. 7 phase: the mask-level "no contact over poly∩diff" rule
/// (skipped when [`FlatOptions::contact_over_gate_rule`] is off).
pub struct FlatGateStage {
    /// Baseline knobs (Fig. 7 rule toggle).
    pub options: FlatOptions,
}

impl PipelineStage for FlatGateStage {
    fn name(&self) -> &'static str {
        "flat-gate"
    }

    fn stage(&self) -> Option<CheckStage> {
        Some(CheckStage::PrimitiveSymbols)
    }

    fn run(&self, ctx: &mut CheckContext<'_>) {
        if self.options.contact_over_gate_rule {
            let vs = flat_gate_checks(ctx.flat_layers(), ctx.tech);
            ctx.sink.absorb(vs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_with_engine;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

    #[test]
    fn diic_pipeline_stage_order() {
        let engine = StageEngine::diic_pipeline();
        assert_eq!(
            engine.stage_names(),
            vec![
                "instantiate",
                "elements",
                "primitives",
                "connections",
                "netlist",
                "interactions",
                "composition"
            ]
        );
    }

    #[test]
    fn custom_stage_runs_and_is_profiled() {
        struct TagStage;
        impl PipelineStage for TagStage {
            fn name(&self) -> &'static str {
                "tag"
            }
            fn run(&self, ctx: &mut CheckContext<'_>) {
                ctx.sink.push(Violation {
                    stage: CheckStage::Composition,
                    kind: ViolationKind::NonManhattan,
                    location: None,
                    context: "tag-stage".into(),
                });
            }
        }
        let mut engine = StageEngine::diic_pipeline();
        engine.register(Box::new(TagStage));
        let layout = parse("L NM; B 2000 750 1000 375; E").unwrap();
        let tech = nmos_technology();
        let report = check_with_engine(
            &engine,
            &layout,
            &tech,
            &CheckOptions {
                erc: false,
                ..CheckOptions::default()
            },
        );
        let tag = report
            .stage_profile
            .iter()
            .find(|s| s.name == "tag")
            .expect("custom stage missing from profile");
        assert_eq!(tag.violations, 1);
        assert!(report.violations.iter().any(|v| v.context == "tag-stage"));
    }

    #[test]
    fn flat_baseline_engine_matches_flat_check() {
        let layout = parse("L NM; B 2000 700 1000 350; E").unwrap();
        let tech = nmos_technology();
        let direct = crate::flat::flat_check(&layout, &tech, &FlatOptions::default());
        let report = check_with_engine(
            &StageEngine::flat_baseline(FlatOptions::default()),
            &layout,
            &tech,
            &CheckOptions::default(),
        );
        assert_eq!(report.violations, direct);
        assert_eq!(report.element_count, 0, "flat baseline builds no view");
        assert_eq!(
            report
                .stage_profile
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            vec!["flat-union", "flat-width", "flat-spacing", "flat-gate"],
        );
    }

    #[test]
    fn parallel_flat_baseline_engine_is_byte_identical() {
        let layout = parse(
            "L NM; B 2000 700 1000 350;
             L NM; B 2000 750 1000 2000; B 2000 750 1000 2500; E",
        )
        .unwrap();
        let tech = nmos_technology();
        let engine = StageEngine::flat_baseline(FlatOptions::default());
        let serial = check_with_engine(&engine, &layout, &tech, &CheckOptions::default());
        assert!(!serial.violations.is_empty());
        for parallelism in [2usize, 4, 0] {
            let parallel = check_with_engine(
                &engine,
                &layout,
                &tech,
                &CheckOptions {
                    parallelism,
                    ..CheckOptions::default()
                },
            );
            assert_eq!(serial.violations, parallel.violations, "{parallelism}");
        }
        // The FlatOptions knob is live in engine runs too: an explicit
        // non-default value wins over a serial CheckOptions.
        let via_flat_options = check_with_engine(
            &StageEngine::flat_baseline(FlatOptions {
                parallelism: 3,
                ..FlatOptions::default()
            }),
            &layout,
            &tech,
            &CheckOptions::default(),
        );
        assert_eq!(serial.violations, via_flat_options.violations);
    }

    #[test]
    fn sink_moves_violations() {
        let mut sink = DiagnosticSink::new();
        let mut owned = vec![Violation {
            stage: CheckStage::Elements,
            kind: ViolationKind::NonManhattan,
            location: None,
            context: String::new(),
        }];
        sink.append(&mut owned);
        assert!(owned.is_empty());
        assert_eq!(sink.len(), 1);
        sink.absorb(Vec::new());
        assert_eq!(sink.into_violations().len(), 1);
    }

    fn sample_violation(context: &str) -> Violation {
        Violation {
            stage: CheckStage::Elements,
            kind: ViolationKind::NonManhattan,
            location: None,
            context: context.into(),
        }
    }

    #[test]
    fn streaming_sink_flushes_bounded_chunks() {
        let mut sink = StreamingSink::new(Vec::new(), 2);
        sink.push(sample_violation("a"));
        assert_eq!(sink.written(), 0, "below capacity: nothing flushed yet");
        sink.push(sample_violation("b"));
        assert_eq!(sink.written(), 2, "full chunk flushed");
        sink.push(sample_violation("c"));
        assert_eq!(sink.len(), 3, "len counts accepted, not written");
        assert!(sink.take_buffered().is_empty(), "streaming retains nothing");
        let out = sink.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3, "finish flushes the tail:\n{text}");
        for ctx in ["\"a\"", "\"b\"", "\"c\""] {
            assert!(text.contains(ctx), "missing {ctx} in:\n{text}");
        }
    }

    /// A writer accepting at most `budget` bytes, then failing — the
    /// mid-chunk partial-write case: `write_all` sees a short `Ok`
    /// first, so some bytes land before the error surfaces.
    #[derive(Debug)]
    struct FailingWriter {
        budget: usize,
        taken: usize,
    }

    impl std::io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let room = self.budget - self.taken;
            if room == 0 {
                return Err(std::io::Error::other("writer full"));
            }
            let n = room.min(buf.len());
            self.taken += n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_sink_latches_on_mid_chunk_write_failure() {
        // Room for a few bytes only: the first chunk's write_all makes
        // partial progress, then fails.
        let mut sink = StreamingSink::new(
            FailingWriter {
                budget: 5,
                taken: 0,
            },
            2,
        );
        sink.push(sample_violation("a"));
        assert!(!sink.errored());
        sink.push(sample_violation("b")); // fills the chunk → torn write
        assert!(sink.errored(), "partial write_all must latch the error");
        assert_eq!(
            sink.written(),
            0,
            "written means durably written: a torn chunk does not count"
        );
        let accepted = sink.len();
        // The poisoned sink drops everything that follows — no
        // buffering, no counting, no further writer traffic.
        sink.push(sample_violation("c"));
        sink.push(sample_violation("d"));
        assert_eq!(sink.len(), accepted, "poisoned sink accepts nothing");
        let err = sink
            .finish()
            .expect_err("finish surfaces the latched error");
        assert_eq!(err.to_string(), "writer full");
    }

    #[test]
    fn spilling_sink_in_memory_path_sorts_without_io() {
        // Under budget: nothing spills, the writer gets the canonically
        // sorted report in one shot.
        let mut sink = SpillingSink::new(Vec::new(), 100);
        sink.push(sample_violation("b"));
        sink.push(sample_violation("a"));
        assert_eq!(sink.spilled_runs(), 0);
        let (out, stats) = sink.finish().unwrap();
        assert_eq!(stats.runs, 0, "under budget: no run files");
        assert_eq!(stats.written, 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"a\"") && lines[1].contains("\"b\""),
            "canonical order in-memory:\n{text}"
        );
    }

    #[test]
    fn spilling_sink_merges_runs_in_canonical_order() {
        // Budget 2 over 5 violations pushed in reverse order: two
        // spilled runs plus a pending chunk, merged fully sorted.
        let mut sink = SpillingSink::new(Vec::new(), 2);
        for ctx in ["e", "d", "c", "b", "a"] {
            sink.push(sample_violation(ctx));
        }
        assert_eq!(sink.spilled_runs(), 2);
        let (out, stats) = sink.finish().unwrap();
        assert_eq!(stats.runs, 3, "final partial chunk spills at finish");
        assert_eq!(stats.written, 5);
        assert!(stats.spilled_bytes > 0);
        let text = String::from_utf8(out).unwrap();
        let contexts: Vec<&str> = ["\"a\"", "\"b\"", "\"c\"", "\"d\"", "\"e\""].to_vec();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (line, ctx) in lines.iter().zip(&contexts) {
            assert!(line.contains(ctx), "expected {ctx} in {line}");
        }
    }

    #[test]
    fn spilling_sink_latches_on_final_write_failure() {
        let mut sink = SpillingSink::new(
            FailingWriter {
                budget: 3,
                taken: 0,
            },
            1, // every violation its own run
        );
        sink.push(sample_violation("a"));
        sink.push(sample_violation("b"));
        assert_eq!(sink.spilled_runs(), 2, "runs spill to disk error-free");
        // The merge hits the failing output writer at finish.
        let err = sink.finish().expect_err("merge write error surfaces");
        assert_eq!(err.to_string(), "writer full");
    }

    #[test]
    fn counting_sink_counts_per_stage_without_retaining() {
        let mut sink = CountingSink::new();
        sink.push(sample_violation("x"));
        sink.absorb(vec![sample_violation("y"), {
            let mut v = sample_violation("z");
            v.stage = CheckStage::Interactions;
            v
        }]);
        assert_eq!(sink.total(), 3);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.count(CheckStage::Elements), 2);
        assert_eq!(sink.count(CheckStage::Interactions), 1);
        assert_eq!(sink.count(CheckStage::Composition), 0);
        assert!(sink.take_buffered().is_empty());
    }

    #[test]
    fn engine_run_through_streaming_sink_matches_buffered() {
        // The same stage set driven through a StreamingSink must find
        // the same violations (read back from the writer) and count
        // them identically in the per-stage profile.
        let layout =
            parse("L NM; B 2000 700 1000 350; B 2000 750 1000 2000; B 2000 750 1000 2500; E")
                .unwrap();
        let tech = nmos_technology();
        let options = CheckOptions {
            erc: false,
            ..CheckOptions::default()
        };
        let buffered = check_with_engine(&StageEngine::diic_pipeline(), &layout, &tech, &options);
        assert!(!buffered.violations.is_empty());

        let mut sink = StreamingSink::new(Vec::new(), 1);
        let streamed = crate::checker::check_with_sink(
            &StageEngine::diic_pipeline(),
            &layout,
            &tech,
            &options,
            &mut sink,
        );
        assert!(streamed.violations.is_empty(), "nothing buffered");
        assert_eq!(streamed.element_count, buffered.element_count);
        assert_eq!(
            streamed
                .stage_profile
                .iter()
                .map(|s| (s.name.as_str(), s.violations))
                .collect::<Vec<_>>(),
            buffered
                .stage_profile
                .iter()
                .map(|s| (s.name.as_str(), s.violations))
                .collect::<Vec<_>>(),
            "per-stage counts must agree across sinks"
        );
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let mut streamed_lines: Vec<&str> = text.lines().collect();
        streamed_lines.sort_unstable();
        let mut expect: Vec<String> = buffered
            .violations
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        expect.sort_unstable();
        assert_eq!(streamed_lines, expect);
    }

    #[test]
    fn missing_stage_panics_with_guidance() {
        let layout = parse("E").unwrap();
        let tech = nmos_technology();
        let options = CheckOptions::default();
        let ctx = CheckContext::new(&layout, &tech, &options);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.view()))
            .expect_err("accessor must panic before instantiate");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("instantiate"), "unhelpful panic: {msg}");
    }
}
