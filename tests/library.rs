//! The **eleventh differential leg**: library-mode batch verification
//! against standalone checks.
//!
//! `check_library` hoists three per-run rebuilds into shared state —
//! the bound technology constants, the session's content-keyed
//! definition shelves (instantiation templates, primitive verdicts and
//! scored interaction rows), and per-worker string interners warm
//! from cell to cell of one batch. The contract that makes all three
//! safe is **per-cell byte-identity**: every cell's report out of a
//! batch must equal a standalone `check()` of that cell — violations,
//! net list, interaction statistics, element/device counts — for any
//! outer worker count (the "wide" count honours `CHECK_PARALLELISM`,
//! like the other legs), on faulted variant libraries as well as clean
//! ones.
//!
//! On top of identity, the leg pins the *point* of the mode: a library
//! whose cells share definition content must produce cross-cell hits
//! (and a fully unique library must not produce spurious ones — the
//! content keys are discriminating, not just permissive). Every shelf
//! keeps a definition from its second sighting, hits it wherever only
//! what its derivation never reads differs, and misses it wherever
//! anything the key covers differs.

use diic::cif::Layout;
use diic::core::{
    check, check_library_buffered, env_parallelism, CheckReport, LibraryOptions, LibraryReport,
};
use diic::gen::library::LibrarySpec;
use diic::gen::{cell_library, cell_library_with};
use diic::tech::nmos::nmos_technology;
use proptest::prelude::*;

/// The parallel worker count exercised against serial runs.
fn wide_workers() -> usize {
    env_parallelism().unwrap_or(0) // 0 = all available cores
}

fn parse_all(cells: &[diic::gen::GeneratedChip]) -> Vec<Layout> {
    cells
        .iter()
        .map(|c| diic::cif::parse(&c.cif).expect("generated cells always parse"))
        .collect()
}

/// Asserts one batch run is per-cell byte-identical to standalone
/// checks of the same layouts under the batch's per-cell options.
fn assert_batch_matches_standalone(
    layouts: &[Layout],
    options: &LibraryOptions,
) -> LibraryReport<diic::core::DiagnosticSink> {
    let tech = nmos_technology();
    let standalone: Vec<CheckReport> = layouts
        .iter()
        .map(|l| check(l, &tech, &options.cell))
        .collect();
    let batch = check_library_buffered(layouts, &tech, options);
    assert_eq!(batch.reports.len(), standalone.len());
    assert_eq!(batch.stats.cells, layouts.len());
    for (i, (b, s)) in batch.reports.iter().zip(&standalone).enumerate() {
        assert_eq!(b.violations, s.violations, "cell {i}: violations diverge");
        assert_eq!(b.netlist, s.netlist, "cell {i}: net list diverges");
        assert_eq!(
            b.interact_stats, s.interact_stats,
            "cell {i}: interaction statistics diverge"
        );
        // A kept template counts as built for its cell; a warm string
        // table interns fewer strings, and nothing else differs.
        let mut instantiated = s.instantiate_stats;
        instantiated.strings_interned = b.instantiate_stats.strings_interned;
        assert_eq!(b.instantiate_stats, instantiated, "cell {i}: instantiation");
        // A scored interaction row taken from the session's shelf counts
        // as the cell's own, so every scope counter agrees.
        assert_eq!(b.scope_stats, s.scope_stats, "cell {i}: scope statistics");
        assert_eq!(b.waived_devices, s.waived_devices, "cell {i}");
        assert_eq!(b.element_count, s.element_count, "cell {i}");
        assert_eq!(b.device_count, s.device_count, "cell {i}");
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Faulted variant libraries: batch reports are byte-identical to
    /// per-cell standalone checks, serial and wide.
    #[test]
    fn batch_equals_standalone(
        cells in 1usize..8,
        shared_pct in 0u32..101,
        error_pct in 0u32..101,
        seed in 0u64..1000,
    ) {
        let lib = cell_library_with(&LibrarySpec {
            shared_fraction: shared_pct as f64 / 100.0,
            error_rate: error_pct as f64 / 100.0,
            ..LibrarySpec::new(cells, seed)
        });
        let layouts = parse_all(&lib.cells);
        let wide = wide_workers();
        for parallelism in [1usize, wide] {
            assert_batch_matches_standalone(&layouts, &LibraryOptions {
                parallelism,
                ..LibraryOptions::default()
            });
        }
    }
}

/// A library of content-shared cells produces cross-cell cache hits —
/// the throughput mechanism exists, not just the identity contract.
#[test]
fn shared_definitions_hit_the_cross_cell_cache() {
    let lib = cell_library_with(&LibrarySpec {
        shared_fraction: 1.0,
        error_rate: 0.0,
        ..LibrarySpec::new(8, 21)
    });
    let layouts = parse_all(&lib.cells);
    let batch = assert_batch_matches_standalone(&layouts, &LibraryOptions::default());
    assert!(
        batch.stats.shared_cache_hits > 0,
        "8 content-identical cells produced no cross-cell cache hits: {:?}",
        batch.stats
    );
    // Every cell past the first should be served mostly from the cache:
    // distinct fills are bounded by one cell's worth of jobs, not the
    // batch's.
    assert!(
        batch.stats.shared_cache_hits > batch.stats.shared_cache_misses,
        "sharing should dominate on an all-shared library: {:?}",
        batch.stats
    );
    // All cells are clean by construction.
    for (i, report) in batch.reports.iter().enumerate() {
        assert!(
            report.violations.is_empty(),
            "shared clean cell {i} reported {:?}",
            report.violations
        );
    }
}

/// Content keys discriminate: a fully unique library (distinct tag
/// geometry in every cell) gets no intra-definition sharing windfall
/// from sibling cells with different array widths — hits can only come
/// from *within*-library coincidences (same nx ⇒ identical loose-free
/// scope pair layouts never arise; the tag boxes differ), so the hit
/// rate stays far below the all-shared case.
#[test]
fn unique_definitions_mostly_miss() {
    let spec = |shared| LibrarySpec {
        shared_fraction: shared,
        error_rate: 0.0,
        ..LibrarySpec::new(8, 33)
    };
    let tech = nmos_technology();
    let unique = check_library_buffered(
        &parse_all(&cell_library_with(&spec(0.0)).cells),
        &tech,
        &LibraryOptions::default(),
    );
    let shared = check_library_buffered(
        &parse_all(&cell_library_with(&spec(1.0)).cells),
        &tech,
        &LibraryOptions::default(),
    );
    let rate = |r: &LibraryReport<_>| {
        let (h, m) = (r.stats.shared_cache_hits, r.stats.shared_cache_misses);
        h as f64 / (h + m).max(1) as f64
    };
    assert!(
        rate(&unique) < rate(&shared),
        "unique library hit rate {:.2} not below shared {:.2}",
        rate(&unique),
        rate(&shared)
    );
}

/// The aggregating profile and stats cover the batch: one wall-clock
/// sample per cell, stage totals for the whole pipeline, and the
/// summed interaction stats equal the fold of the per-cell reports.
#[test]
fn batch_profile_and_stats_aggregate() {
    let lib = cell_library(6, 5);
    let layouts = parse_all(&lib.cells);
    let tech = nmos_technology();
    let batch = check_library_buffered(&layouts, &tech, &LibraryOptions::default());
    assert_eq!(batch.profile.cell_wall.len(), 6);
    assert!(batch.profile.p50() <= batch.profile.p99());
    let stage_names: Vec<&str> = batch
        .profile
        .stage_totals
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(
        stage_names,
        [
            "instantiate",
            "elements",
            "primitives",
            "connections",
            "netlist",
            "interactions",
            "composition"
        ]
    );
    let mut folded = diic::core::InteractStats::default();
    for r in &batch.reports {
        folded.absorb(&r.interact_stats);
    }
    assert_eq!(batch.stats.interact, folded);
}

/// `check_library` honours a caller sink factory: per-cell sinks see
/// exactly their cell's violations, in canonical per-cell order.
#[test]
fn sink_factory_receives_per_cell_violations() {
    let lib = cell_library_with(&LibrarySpec {
        error_rate: 1.0,
        ..LibrarySpec::new(4, 9)
    });
    let layouts = parse_all(&lib.cells);
    let tech = nmos_technology();
    let options = LibraryOptions::default();
    let batch = diic::core::check_library(&layouts, &tech, &options, |_| {
        diic::core::CountingSink::default()
    });
    for (i, (sink, layout)) in batch.sinks.iter().zip(&layouts).enumerate() {
        let standalone = check(layout, &tech, &options.cell);
        assert_eq!(
            sink.total(),
            standalone.violations.len(),
            "cell {i}: counting sink disagrees with standalone violation count"
        );
    }
}

/// The stock cell of an all-shared, fault-free library: four device
/// symbols (each placed twice or more) and the inverter, placed in a
/// row of two to four.
fn stock_cell_cif() -> String {
    let lib = cell_library_with(&LibrarySpec {
        shared_fraction: 1.0,
        error_rate: 0.0,
        ..LibrarySpec::new(1, 5)
    });
    lib.cells[0].cif.clone()
}

/// The symbol displayed as `name` in `layout`.
fn symbol_named<'a>(layout: &'a mut Layout, name: &str) -> &'a mut diic::cif::Symbol {
    let id = layout
        .symbol_by_name(name)
        .expect("the stock cell names its symbols");
    layout.symbol_mut(id)
}

/// Checks `[a, a, b]` in one serial batch, each cell byte-identical to a
/// standalone check (and again wide), and returns the template, verdict
/// and candidate-fill hits — all of them `b`'s: the first `a` only shows
/// the session its definitions, and the second keeps them.
fn hits_of_the_third(a: &Layout, b: &Layout) -> (u64, u64, u64) {
    let cells = [a.clone(), a.clone(), b.clone()];
    let serial = assert_batch_matches_standalone(
        &cells,
        &LibraryOptions {
            parallelism: 1,
            ..LibraryOptions::default()
        },
    );
    assert_batch_matches_standalone(
        &cells,
        &LibraryOptions {
            parallelism: wide_workers(),
            ..LibraryOptions::default()
        },
    );
    let stats = serial.stats;
    (stats.templates.hits, stats.verdicts.hits, stats.fills.hits)
}

/// Definition keys must not match where the content differs, and must
/// where only what the walk and the checks never read differs. Each case
/// is a stock cell `b` next to the unchanged stock cell `a`: the changed
/// definitions (and, for templates and fills, every definition calling
/// them) miss, every other one hits, and every cell is byte-identical to
/// its standalone check.
///
/// Every fill of the stock cell is a row of inverters, so a change
/// inside `inv` misses all of them. That includes a renamed call or net
/// inside `inv`: a fill reads only element boxes, but it is keyed by the
/// definition's content key, which covers names. (Fills keyed by their
/// boxes alone shared those two.)
#[test]
fn definition_keys_separate_what_differs() {
    let a = diic::cif::parse(&stock_cell_cif()).unwrap();
    let (templates, verdicts, fills) = hits_of_the_third(&a, &a);
    assert_eq!(
        (templates, verdicts, fills),
        (5, 4, 2),
        "the stock cell presents five templates, four device verdicts and two fills"
    );

    let variant = |change: &dyn Fn(&mut Layout)| {
        let mut b = a.clone();
        change(&mut b);
        hits_of_the_third(&a, &b)
    };
    // A call name inside the inverter: its paths change.
    let renamed_call = variant(&|l| {
        let inv = symbol_named(l, "inv");
        let call = inv.items.iter_mut().find_map(|item| match item {
            diic::cif::Item::Call(c) => Some(c),
            _ => None,
        });
        call.unwrap().name.push('x');
    });
    assert_eq!(renamed_call, (templates - 1, verdicts, 0), "call name");
    // A declared net name inside the inverter.
    let renamed_net = variant(&|l| {
        let inv = symbol_named(l, "inv");
        let net = inv.items.iter_mut().find_map(|item| match item {
            diic::cif::Item::Element(e) => e.net.as_mut(),
            _ => None,
        });
        net.unwrap().push('x');
    });
    assert_eq!(renamed_net, (templates - 1, verdicts, 0), "net name");
    // A device symbol's name: the walk never reads it, its verdict's
    // lines carry it.
    let renamed_device = variant(&|l| symbol_named(l, "tenh").name = Some("tenh2".into()));
    assert_eq!(
        renamed_device,
        (templates, verdicts - 1, fills),
        "device name"
    );
    // The immunity flag on one cell only: the device and the inverter
    // calling it.
    let immune = variant(&|l| symbol_named(l, "tenh").device.as_mut().unwrap().checked = true);
    assert_eq!(immune, (templates - 2, verdicts - 1, 0), "9C flag");
    // A terminal one unit off: the device and the inverter calling it.
    let moved_terminal = variant(&|l| {
        let decl = symbol_named(l, "tenh").device.as_mut().unwrap();
        decl.terminals[0].position.x += 1;
    });
    assert_eq!(moved_terminal, (templates - 2, verdicts - 1, 0), "terminal");

    // The order in which the text first names its layers: the contact
    // (cut, diffusion, metal) defined before the transistor (poly,
    // diffusion). Other layer references, the same bound layers.
    let cif = stock_cell_cif();
    let block = |from: &str, to: &str| {
        let start = cif.find(from).unwrap();
        start..start + cif[start..].find(to).unwrap()
    };
    let (tenh, cd) = (block("DS 1 ", "DS 2 "), block("DS 3 ", "DS 4 "));
    let reordered = format!(
        "{}{}{}{}",
        &cif[cd.clone()],
        &cif[tenh.clone()],
        &cif[tenh.end..cd.start],
        &cif[cd.end..]
    );
    let b = diic::cif::parse(&reordered).unwrap();
    assert_ne!(
        a.layer_names(),
        b.layer_names(),
        "the layers are named in another order"
    );
    assert_eq!(
        hits_of_the_third(&a, &b),
        (templates, verdicts, fills),
        "layer order"
    );
}

/// The definition shelves keep what a second cell presents and nothing
/// else: a one-cell batch keeps nothing, a library of unique inverters
/// keeps only the device definitions every cell shares (and no fill:
/// every fill is a row of inverters), and the stock library keeps each
/// of its definitions exactly once and hits it in every cell after the
/// second. The old fill counters copy the fill shelf's.
#[test]
fn definitions_are_kept_from_their_second_sighting() {
    let tech = nmos_technology();
    let serial = LibraryOptions {
        parallelism: 1,
        ..LibraryOptions::default()
    };
    let library = |cells, shared| {
        let lib = cell_library_with(&LibrarySpec {
            shared_fraction: shared,
            error_rate: 0.0,
            ..LibrarySpec::new(cells, 17)
        });
        check_library_buffered(&parse_all(&lib.cells), &tech, &serial).stats
    };

    let one = library(1, 1.0);
    for shelf in [one.templates, one.verdicts, one.fills] {
        assert_eq!((shelf.entries, shelf.hits), (0, 0), "{one:?}");
        assert_eq!(
            shelf.seen, shelf.misses,
            "every definition is a key seen once: {one:?}"
        );
    }

    // Unique inverters: eight cells keep what two do — the four device
    // definitions — and no inverter.
    let (two, eight) = (library(2, 0.0), library(8, 0.0));
    assert_eq!(two.templates.entries, 4, "{two:?}");
    assert_eq!(
        (two.fills.entries, eight.fills.entries),
        (0, 0),
        "{eight:?}"
    );
    assert!(
        eight.fills.seen > two.fills.seen,
        "each unique inverter's rows stay keys seen once: {eight:?}"
    );
    assert!(
        eight.templates.seen > two.templates.seen,
        "each unique inverter stays a key seen once: {eight:?}"
    );
    assert_eq!(
        (eight.templates.entries, eight.verdicts.entries),
        (two.templates.entries, two.verdicts.entries),
        "{eight:?}"
    );

    // The stock library: every cell presents the same definitions.
    let stock = library(8, 1.0);
    for shelf in [stock.templates, stock.verdicts, stock.fills] {
        assert!(shelf.entries > 0, "{stock:?}");
        assert_eq!(
            shelf.misses,
            2 * shelf.entries,
            "derived by the first two cells"
        );
        assert_eq!(shelf.hits, 6 * shelf.entries, "hit by each later cell");
        assert_eq!(shelf.seen, 0, "every key seen was kept");
    }
    assert_eq!(
        (stock.shared_cache_hits, stock.shared_cache_misses),
        (stock.fills.hits, stock.fills.misses),
        "the old fill counters copy the shelf's"
    );
    assert_eq!(
        stock.fills.hits + stock.fills.misses,
        stock.interact.cache_misses,
        "every row a cell fills is one lookup"
    );
}

/// A kept scored interaction row answers for its definition wherever a
/// later cell places it: its gap boxes are stored relative to the
/// placement and land at the new one. And the rows are kept per sizing
/// metric: two cells' diagonal corners, 550 apart on each axis, violate
/// the 750 metal rule under the orthogonal metric and clear it under the
/// Euclidean one, so a Euclidean batch that took an orthogonal row
/// would report them.
#[test]
fn kept_rows_land_at_each_placement_and_per_metric() {
    use diic::core::{check_library_in, DiagnosticSink, LibrarySession};
    use diic::geom::{Rect, SizingMode};

    let tech = nmos_technology();
    let session = LibrarySession::new(&tech);
    // One cell: two metal boxes 500 apart, and a box whose corner is 550
    // from the second one's on each axis.
    let body = "DS 1; L NM; B 2000 750 1000 375; B 2000 750 1000 1625; \
                B 1000 750 3050 2925; DF;";
    let offsets = [(0, 0), (7_123, -3_000), (-40_000, 11_250)];
    let cells: Vec<Layout> = (offsets.iter())
        .map(|&(x, y)| diic::cif::parse(&format!("{body} C 1 T {x} {y}; E")).unwrap())
        .collect();
    let mut hits = 0;
    for metric in [SizingMode::Orthogonal, SizingMode::Euclidean] {
        let options = LibraryOptions {
            cell: diic::core::CheckOptions {
                metric,
                parallelism: 1,
                ..diic::core::CheckOptions::default()
            },
            parallelism: 1,
        };
        let batch = check_library_in(&session, &cells, &tech, &options, |_| DiagnosticSink::new());
        // Seen by the first cell, kept by the second, taken by the third.
        let fills = batch.stats.fills;
        assert_eq!(fills.hits, hits + 1, "{metric:?}: {fills:?}");
        hits = fills.hits;
        // The third cell took its row from the shelf, and counts it as
        // its standalone check does.
        let last = &batch.reports[2];
        let alone = check(&cells[2], &tech, &options.cell);
        assert!(alone.scope_stats.interact_pairs_scored > 0);
        assert_eq!(last.scope_stats, alone.scope_stats, "{metric:?}");
        for ((report, cell), &(x, y)) in batch.reports.iter().zip(&cells).zip(&offsets) {
            let alone = check(cell, &tech, &options.cell);
            assert_eq!(
                report.violations, alone.violations,
                "{metric:?} at ({x}, {y})"
            );
            let gap = Rect::new(x, y + 750, x + 2000, y + 1250);
            assert!(
                report.violations.iter().any(|v| v.location == Some(gap)),
                "{metric:?}: the gap box lands at ({x}, {y}): {:#?}",
                report.violations
            );
            let corners = (report.violations.iter())
                .filter(|v| v.location.is_some_and(|l| l.x1 >= x + 2000))
                .count();
            let want = usize::from(metric == SizingMode::Orthogonal);
            assert_eq!(corners, want, "{metric:?} at ({x}, {y})");
        }
    }
    assert_eq!(session.cache.fills().entries, 2, "one row per metric");
}

/// A cell's scope counters are its own, whichever cell of a wide batch
/// derived a shared scored row first: five runs of one library at two
/// workers give identical per-cell `ScopeStats`, each its standalone
/// check's.
#[test]
fn wide_batches_count_each_cell_as_its_standalone_check() {
    let tech = nmos_technology();
    let layouts = parse_all(&cell_library(48, 3).cells);
    let options = LibraryOptions {
        cell: diic::core::CheckOptions {
            parallelism: 1,
            ..diic::core::CheckOptions::default()
        },
        parallelism: 2,
    };
    let alone: Vec<_> = (layouts.iter())
        .map(|l| check(l, &tech, &options.cell).scope_stats)
        .collect();
    assert!(alone.iter().any(|s| s.interact_pairs_scored > 0));
    for run in 0..5 {
        let batch = check_library_buffered(&layouts, &tech, &options);
        let stats: Vec<_> = batch.reports.iter().map(|r| r.scope_stats).collect();
        assert_eq!(stats, alone, "run {run}");
    }
}
