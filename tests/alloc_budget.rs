//! Counted budgets, not timings: allocator calls per flat element for
//! instantiation, for building the net graph, for assembling the net
//! list, and for a whole check; the calls of a small library batch (a
//! check's fixed cost), of a fixed run of edits on a session (an edit's
//! cost) and of a report read through the service. A name used to be a heap object of its
//! own — a `Box<str>` per interned string, a `String` per net-list
//! name, alias and terminal — and the net-list stage used to draft every
//! device row twice; what the pipeline allocates now is its columns, its
//! per-device rows and its text buffers, and this test keeps it there.
//! One test in the file, counted on its own thread at one worker, so the
//! counts repeat exactly from run to run.

use diic::cif::NetLabel;
use diic::core::netgen::NetParts;
use diic::core::{
    check_connections, check_library_buffered, check_with_sink, instantiate, max_rule_range,
    BoundTechnology, CheckOptions, CheckSession, CountingSink, Definitions, EditSet, LayerBinding,
    LibraryOptions, ScopeTable, StageEngine,
};
use diic::tech::nmos::nmos_technology;
use diic::tech::LayerId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls (allocations and reallocations) this thread made.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls each thread makes.
struct Counting;

fn count() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls of the library batch below when this budget was
/// set: 28 107 in a release build, 113 304 in a debug one (whose
/// oracles allocate, and derive every kept template, verdict and
/// scored interaction row again). A batch may take 5 % more, no
/// further.
const LIBRARY_BATCH_CALLS: u64 = if cfg!(debug_assertions) {
    113_304
} else {
    28_107
};

/// Allocator calls of the edit run below when this budget was set:
/// 17 142 in a release build, 603 691 in a debug one (whose oracles
/// re-check the chip). A run may take 5 % more, no further.
const EDIT_RUN_CALLS: u64 = if cfg!(debug_assertions) {
    603_691
} else {
    17_142
};

/// Allocator calls of the report read below when this budget was set:
/// 14 in a release build and a debug one alike, for 138 lines. A read
/// may take 5 % more, no further.
const REPORT_READ_CALLS: u64 = 14;

/// Allocator calls `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

#[test]
fn building_the_net_graph_stays_within_its_allocation_budget() {
    let tech = nmos_technology();
    let chip = diic::gen::mega_chip(10_000);
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let (binding, _) = LayerBinding::bind(&layout, &tech);
    let labels: Vec<(&NetLabel, Option<LayerId>)> = (layout.labels().iter())
        .map(|l| (l, binding.layer(l.layer)))
        .collect();
    let bound = BoundTechnology::new(&tech);
    let engine = StageEngine::diic_pipeline();
    let options = CheckOptions {
        parallelism: 1,
        ..CheckOptions::default()
    };

    // Twice from scratch: the counts must repeat exactly.
    let runs: Vec<(usize, [u64; 4])> = (0..2)
        .map(|_| {
            // The definitions' content keys are part of instantiating.
            let (instantiate, (definitions, (mut view, runs))) = counted(|| {
                let definitions = Definitions::new(&layout, &binding, None);
                let view = instantiate(&layout, &tech, &binding, &definitions, Default::default());
                (definitions, view)
            });
            let scopes = ScopeTable::build(
                &definitions,
                layout.top_items(),
                runs.iter().map(|run| run.0),
                view.elements.bboxes(),
                max_rule_range(&tech),
            );
            let (conn, _) = check_connections(&view, &tech, &bound, &scopes, 1);
            let (build, (mut parts, stats)) =
                counted(|| NetParts::build(&mut view, &bound, &conn.merges, &labels, &scopes, 1));
            let (assemble, netlist) = counted(|| parts.assemble(&view));
            assert_eq!(netlist.device_count(), view.devices.len());
            assert_eq!(stats.bind_indexes_built, 1, "one cell, no loose element");
            let (check, report) = counted(|| {
                check_with_sink(&engine, &layout, &tech, &options, &mut CountingSink::new())
            });
            assert_eq!(report.element_count, view.elements.len());
            (view.elements.len(), [instantiate, build, assemble, check])
        })
        .collect();
    assert_eq!(runs[0], runs[1], "the counts repeat exactly");

    let (elements, [instantiate, build, assemble, check]) = runs[0];
    let per_element = |calls: u64| calls as f64 / elements as f64;
    println!(
        "{elements} elements: instantiate {instantiate} allocator calls ({:.2} per element), \
         NetParts::build {build} ({:.2}), assemble {assemble} ({:.2}), build + assemble {:.2}, \
         whole check {check} ({:.2})",
        per_element(instantiate),
        per_element(build),
        per_element(assemble),
        per_element(build + assemble),
        per_element(check),
    );
    assert!(
        per_element(instantiate) <= 0.75,
        "instantiate: {instantiate} calls"
    );
    assert!(per_element(build) <= 1.2, "NetParts::build: {build} calls");
    assert!(
        per_element(build + assemble) <= 0.6,
        "build + assemble: {build} + {assemble} calls"
    );
    assert!(per_element(check) <= 1.5, "check_with_sink: {check} calls");

    // The fixed cost of a check, where no scale term hides it: a batch
    // of tiny library cells, one worker, counted twice.
    let library = diic::gen::cell_library(64, 3);
    let cells: Vec<_> = (library.cells.iter())
        .map(|cell| diic::cif::parse(&cell.cif).unwrap())
        .collect();
    let library_options = LibraryOptions {
        cell: options.clone(),
        parallelism: 1,
    };
    let batches: Vec<u64> = (0..2)
        .map(|_| counted(|| check_library_buffered(&cells, &tech, &library_options)).0)
        .collect();
    assert_eq!(batches[0], batches[1], "the library counts repeat exactly");
    let per_cell = batches[0] as f64 / cells.len() as f64;
    println!(
        "{} library cells: check_library_buffered {} allocator calls ({per_cell:.1} per cell)",
        cells.len(),
        batches[0]
    );
    assert!(
        batches[0] * 100 <= LIBRARY_BATCH_CALLS * 105,
        "check_library_buffered: {} calls, {per_cell:.1} per cell",
        batches[0]
    );

    // An edit's cost: 16 moves of top-level items, each undone, on a
    // session over a clean 24 × 12 chip, counted twice on fresh sessions.
    let chip = diic::gen::generate(&diic::gen::ChipSpec::clean(24, 12));
    let layout = diic::cif::parse(&chip.cif).unwrap();
    let items = layout.top_items().len();
    let moves: Vec<EditSet> = (0..16usize)
        .flat_map(|k| {
            let (index, dx) = ((k * 97) % items, 250 * (1 + k as i64 % 3));
            let (mut there, mut back) = (EditSet::new(), EditSet::new());
            there.translate(index, dx, 0);
            back.translate(index, -dx, 0);
            [there, back]
        })
        .collect();
    let runs: Vec<u64> = (0..2)
        .map(|_| {
            let mut session = CheckSession::new(layout.clone(), &tech, &options);
            let calls = counted(|| {
                for edits in &moves {
                    session
                        .apply(edits)
                        .expect("a move within the chip applies");
                }
            });
            calls.0
        })
        .collect();
    assert_eq!(runs[0], runs[1], "the edit counts repeat exactly");
    println!(
        "{} edits on a {items}-item session: {} allocator calls ({:.1} per edit)",
        moves.len(),
        runs[0],
        runs[0] as f64 / moves.len() as f64
    );
    assert!(
        runs[0] * 100 <= EDIT_RUN_CALLS * 105,
        "CheckSession::apply: {} calls over {} edits",
        runs[0],
        moves.len()
    );

    // A report read's cost: one `GET /sessions/{id}/report` through the
    // service, counted twice, on a session whose report has at least 100
    // lines. The session holds every line rendered, so a read copies
    // none of them and allocates less often than it writes lines.
    let app = diic::api::router(diic::api::App::new(diic::api::RegistryConfig::default()));
    let errors = diic::gen::ErrorKind::ALL.iter().copied().cycle().take(64);
    let chip = diic::gen::generate(&diic::gen::ChipSpec::with_errors(8, 8, errors.collect(), 5));
    let cif = serde_json::Value::from(chip.cif.as_str());
    let body = format!(r#"{{"cif": {cif}, "options": {{"parallelism": 1}}}}"#);
    let opened = app.oneshot(axum::Request::new(axum::Method::Post, "/sessions").with_body(body));
    assert_eq!(opened.status, axum::StatusCode::CREATED);
    let opened = opened.into_bytes().expect("in-process bodies collect");
    let opened: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&opened).unwrap()).expect("the open answers JSON");
    let id = opened
        .get("id")
        .and_then(serde_json::Value::as_i64)
        .unwrap();
    let path = format!("/sessions/{id}/report");
    let reads: Vec<(u64, usize)> = (0..2)
        .map(|_| {
            let (calls, bytes) = counted(|| {
                let resp = app.oneshot(axum::Request::new(axum::Method::Get, &path));
                assert_eq!(resp.status, axum::StatusCode::OK);
                resp.into_bytes().expect("in-process bodies collect")
            });
            (calls, bytes.iter().filter(|&&b| b == b'\n').count())
        })
        .collect();
    assert_eq!(reads[0], reads[1], "the read counts repeat exactly");
    let (calls, lines) = reads[0];
    println!("a {lines}-line report read: {calls} allocator calls");
    assert!(lines >= 100, "the report needs at least 100 lines: {lines}");
    assert!(
        calls < lines as u64,
        "a report read allocates per line: {calls} calls for {lines} lines"
    );
    assert!(
        calls * 100 <= REPORT_READ_CALLS * 105,
        "GET /sessions/{{id}}/report: {calls} calls for {lines} lines"
    );
}
