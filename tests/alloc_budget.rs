//! Counted budgets, not timings: allocator calls per flat element for
//! instantiation, for building the net graph, for assembling the net
//! list, and for a whole check; the calls of a small library batch (a
//! check's fixed cost) and of a fixed run of edits on a session (an
//! edit's cost). A name used to be a heap object of its
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
    CheckOptions, CheckSession, CountingSink, Definitions, EditSet, LayerBinding, LibraryOptions,
    ScopeTable, StageEngine,
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
/// set: 29 169 in a release build, 112 489 in a debug one (whose
/// oracles allocate, and derive every kept template, verdict and
/// candidate fill again). A batch may take 5 % more, no further.
const LIBRARY_BATCH_CALLS: u64 = if cfg!(debug_assertions) {
    112_489
} else {
    29_169
};

/// Allocator calls of the edit run below when this budget was set:
/// 19 197 in a release build, 605 634 in a debug one (whose oracles
/// re-check the chip). A run may take 5 % more, no further.
const EDIT_RUN_CALLS: u64 = if cfg!(debug_assertions) {
    605_634
} else {
    19_197
};

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
            let (conn, _) = check_connections(&view, &tech, &scopes, 1);
            let (build, (mut parts, stats)) =
                counted(|| NetParts::build(&mut view, &tech, &conn.merges, &labels, &scopes, 1));
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
}
