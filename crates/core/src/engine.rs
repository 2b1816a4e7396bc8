//! The pipeline run, and the sinks it reports through.
//!
//! The paper's Fig. 10 pipeline is one function, `run_pipeline`: bind
//! layers and instantiate the chip view, check elements, primitive
//! symbols and connections, generate the net list, check interactions,
//! then the construction rules (ERC, net-list consistency) — always
//! all of them, always in that order. What a step produces (binding,
//! [`ChipView`], scope table, connection merges, net list) is a local
//! handed by value to the steps after it. What a step *finds* it moves
//! into a caller-chosen [`Sink`], so no violation vector is ever
//! cloned. Each step is timed into one [`StageTime`] of
//! [`CheckReport::stage_profile`].
//!
//! [`crate::check`] and [`crate::check_with_sink`] run it and drop the
//! artefacts; a library batch runs it per cell with the batch's
//! technology constants, cache and warm interner; an edit session's
//! open runs it and keeps the artefacts it patches from then on.

use crate::binding::{instantiate_in, ChipView, LayerBinding, StringInterner};
use crate::checker::{CheckOptions, CheckReport};
use crate::connect::check_connections;
use crate::element_checks::check_elements;
use crate::interact::check_interactions_in;
use crate::library::{BoundTechnology, CellDefinitions, LibraryCache};
use crate::netgen::NetParts;
use crate::parallel::effective_parallelism;
use crate::primitive_checks::check_primitive_symbols_in;
use crate::scope::ScopeTable;
use crate::violations::{CheckStage, Violation, ViolationKind};
use diic_cif::Layout;
use diic_netlist::{check_erc_net, compare_by_structure, NetId};
use diic_tech::Technology;
use std::time::{Duration, Instant};

/// Where the pipeline deposits violations, by move.
///
/// Every producer — each step of a pipeline run, and an edit session's
/// report export — emits through this trait, so the decision of *what
/// happens to a violation* (buffer it, stream it to a writer, just
/// count it) is the caller's, not the step's. Four implementations ship
/// with the crate:
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
    /// ones included — this is what the pipeline's per-stage profile
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
    /// list is exactly the concatenation of each step's violations in
    /// pipeline order (the order of [`CheckReport::stage_profile`]),
    /// and within one step in the order it pushed them — ingestion is
    /// append-only through [`Sink::append`], nothing is ever reordered
    /// or deduplicated here. A canonical refinement of this order
    /// (sorted within each stage) is produced by
    /// [`crate::report::canonical_sort`]; the incremental checker keeps
    /// its patched reports in that canonical form.
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
/// debug-rendered line per violation. Paired with the tiled interaction
/// search, a check run's candidate and diagnostic memory stays O(tile)
/// (the chip view itself is O(elements)).
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

/// Wall-clock record for one pipeline step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTime {
    /// The step: `instantiate`, `elements`, `primitives`,
    /// `connections`, `netlist`, `interactions` or `composition`.
    pub name: String,
    /// Time spent in the step.
    pub duration: Duration,
    /// Violations the step moved into the sink.
    pub violations: usize,
}

/// The handle the frozen repo benchmark (`benchmark/`, which a change
/// may not edit) builds and passes to [`crate::check_with_sink`]. It
/// selects nothing — there is one pipeline. Not an entry point of its
/// own.
#[doc(hidden)]
#[derive(Debug)]
pub struct StageEngine;

impl StageEngine {
    /// The handle (see the type docs).
    pub fn diic_pipeline() -> Self {
        StageEngine
    }
}

/// What a pipeline run leaves an edit session beside the report.
#[derive(Debug)]
pub(crate) struct SessionArtefacts {
    pub binding: LayerBinding,
    pub view: ChipView,
    /// Per top-level item `(elements, devices)` run lengths.
    pub runs: Vec<(usize, usize)>,
    pub merges: Vec<(usize, usize)>,
    pub parts: NetParts,
}

/// Runs `step` on the wall clock and records it in `profile` as `name`,
/// with the violations it moved into `sink`.
fn timed<T>(
    profile: &mut Vec<StageTime>,
    name: &str,
    sink: &mut dyn Sink,
    step: impl FnOnce(&mut dyn Sink) -> T,
) -> T {
    let before = sink.len();
    let t0 = Instant::now();
    let out = step(&mut *sink);
    profile.push(StageTime {
        name: name.to_string(),
        duration: t0.elapsed(),
        violations: sink.len() - before,
    });
    out
}

/// The paper's Fig. 10 pipeline over `layout`, every step in order (see
/// the module docs), each violation moved into `sink`. `bound` must have
/// been built for `tech`. `cache` shares instantiation templates,
/// primitive verdicts and interaction candidate fills across a library
/// batch's cells (keyed by content, [`CellDefinitions`]; no key is
/// computed without it), and `seed` is the interner the view's string
/// table starts from (a batch worker's warm one). Neither changes a byte
/// of the report: a shared fill, template or verdict is what the cell
/// would have derived, and interner handles never reach rendered output.
///
/// The report's `violations` are what `sink` still buffers: everything
/// for a [`DiagnosticSink`], nothing for a streaming or counting one.
pub(crate) fn run_pipeline(
    layout: &Layout,
    tech: &Technology,
    options: &CheckOptions,
    bound: &BoundTechnology,
    cache: Option<&LibraryCache>,
    seed: StringInterner,
    sink: &mut dyn Sink,
) -> (CheckReport, SessionArtefacts) {
    let workers = effective_parallelism(options.parallelism);
    let mut profile = Vec::with_capacity(7);
    let (binding, shared, mut view, runs, scopes) =
        timed(&mut profile, "instantiate", sink, |sink| {
            let (binding, bind_violations) = LayerBinding::bind(layout, tech);
            sink.absorb(bind_violations);
            let shared =
                cache.map(|cache| CellDefinitions::new(cache, layout, &binding, bound.revision()));
            let (mut view, runs) = instantiate_in(layout, tech, &binding, seed, shared.as_ref());
            sink.append(&mut view.violations);
            let scopes = ScopeTable::build(
                layout.top_items(),
                runs.iter().map(|&(elements, _)| elements),
                view.elements.bboxes(),
                bound.max_rule_range(),
            );
            (binding, shared, view, runs, scopes)
        });
    timed(&mut profile, "elements", sink, |sink| {
        sink.absorb(check_elements(layout, tech, &binding));
    });
    let waived_devices = timed(&mut profile, "primitives", sink, |sink| {
        let prim = check_primitive_symbols_in(layout, tech, &binding, shared.as_ref());
        sink.absorb(prim.violations);
        prim.waived
    });
    let (merges, conn_stats) = timed(&mut profile, "connections", sink, |sink| {
        let (conn, stats) = check_connections(&view, tech, &scopes, workers);
        sink.absorb(conn.violations);
        (conn.merges, stats)
    });
    let (parts, netlist, scope_stats) = timed(&mut profile, "netlist", sink, |_| {
        let labels: Vec<_> = (layout.labels().iter())
            .map(|l| (l, binding.layer(l.layer)))
            .collect();
        // Fresh node keys intern into the view's string table.
        let (mut parts, bind_stats) =
            NetParts::build(&mut view, tech, &merges, &labels, &scopes, workers);
        let netlist = parts.assemble(&view);
        (parts, netlist, conn_stats.with_binding_of(bind_stats))
    });
    let interact_stats = timed(&mut profile, "interactions", sink, |sink| {
        let nets = parts.nets();
        let shared = shared.as_ref();
        let (found, stats) =
            check_interactions_in(&view, tech, bound, nets, &scopes, options, shared);
        sink.absorb(found);
        stats
    });
    timed(&mut profile, "composition", sink, |sink| {
        if options.erc {
            let every_net = netlist.nets().map(|net| net.id());
            sink.absorb(erc_violations(&netlist, tech, every_net));
        }
        sink.absorb(netlist_mismatch_violations(&netlist, options));
    });

    let report = CheckReport {
        violations: sink.take_buffered(),
        netlist,
        interact_stats,
        stage_profile: profile,
        waived_devices,
        element_count: view.elements.len(),
        device_count: view.devices.len(),
        instantiate_stats: view.instantiate_stats,
        scope_stats,
    };
    let artefacts = SessionArtefacts {
        binding,
        view,
        runs,
        merges,
        parts,
    };
    (report, artefacts)
}

/// The non-geometric construction rules (ERC) over the given nets of
/// `netlist`, as report lines: [`CheckStage::Composition`], no
/// location, the net's canonical name as context. The one wrapper of
/// [`check_erc_net`]: the pipeline passes every net, the
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

#[cfg(test)]
mod tests {
    use super::*;
    use diic_cif::parse;
    use diic_tech::nmos::nmos_technology;

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
    fn check_through_streaming_sink_matches_buffered() {
        // The pipeline driven through a StreamingSink must find the
        // same violations (read back from the writer) and count them
        // identically in the per-stage profile.
        let layout =
            parse("L NM; B 2000 700 1000 350; B 2000 750 1000 2000; B 2000 750 1000 2500; E")
                .unwrap();
        let tech = nmos_technology();
        let options = CheckOptions {
            erc: false,
            ..CheckOptions::default()
        };
        let buffered = crate::checker::check(&layout, &tech, &options);
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
}
