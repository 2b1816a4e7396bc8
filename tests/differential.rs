//! The differential test oracle for the paper's central claim: the
//! interaction search by the scope table's plan — candidate rows filled
//! once per definition and per relative placement, and stamped — finds
//! **exactly** what the direct scan over every element finds, only
//! faster — and parallelism changes nothing at all. (The mask-level
//! *baseline* checker finds different things by design — that asymmetry
//! is the paper's point — so its own serial/parallel identity is checked
//! separately below.)
//!
//! Every generated chip (with injected faults from `diic-gen`'s ledger)
//! is checked two ways, scope-driven at one worker and at the wide
//! worker count, and the two reports must be **byte-identical** (ordered
//! lists and statistics). Their interaction lines must equal, **after a
//! canonical sort**, the direct-scan reference on the same view
//! (`check_interactions_among` over every id, plus `check_same_mask`):
//! the plan walks scopes and scope pairs, the reference element ids. Both
//! must report the same `candidate_pairs`, equal to a brute-force count
//! of the element pairs within rule reach: the two tile the pair space
//! differently and share only the query loop and the per-pair evaluator,
//! so the three-way agreement says each counts every pair exactly once.
//! On top of the equivalence, every injected fault must be recalled by
//! both paths (region 1 of the paper's Fig. 1 accounting stays empty).
//!
//! The "wide" worker count honours the `CHECK_PARALLELISM` environment
//! variable (CI forces it to `1` and to `$(nproc)` in separate steps),
//! defaulting to all available cores.
//!
//! (The fifth leg is the incremental oracle in `tests/incremental.rs`.
//! The sixth compared the tiled search to a buffered all-pairs path and
//! was retired with that path: *each pair counted once* is the count
//! assertion above, *bounded memory* is `peak_candidate_buffer <
//! candidate_pairs` in `tests/pipeline.rs` and `mega_smoke`.)
//!
//! The **seventh leg** (`parallel_connections_and_netgen_equal_serial`)
//! pins the two stages between instantiation and the interaction
//! search: the scope-table connection pass (verdict rows scored once
//! per definition and stamped) must equal the direct scan over every
//! element — violations, merges and `pairs_examined`, in order — at one
//! worker and at any other count, and net-list generation binding its
//! terminal and label points through the scope table (one index per
//! definition) must assemble, at any worker count, the net list the
//! direct binder (one index over every netted element) assembles.
//! Alongside it, `interned_strings_round_trip` proves the `ChipView`'s
//! names are a pure storage decision: every rendered `path` /
//! `net_key` resolves back to its own name (a view holds one form per
//! text), a view built over a warm string table renders the same text
//! as a cold one, and elements of one instance share one path.
//!
//! (The eighth leg round-tripped the columnar element store through
//! boxed `ChipElement` records, and was retired with that record: the
//! instantiation walk writes the columns directly. The **ninth leg** —
//! the disk-spilling sink against the buffered canonical report — lives
//! in `tests/sinks.rs`.)
//!
//! The **tenth leg** (`fresh_deck_compile_equals_cached_nmos`) pins
//! reports to `Technology`'s value, not its hash maps: `nmos_technology()`
//! is one cached compile of `decks/nmos.deck`, and a fresh
//! `diic::deck::compile_str(NMOS_DECK)` builds the same value with new
//! `HashMap` seeds, so every faulted chip must check **byte-identically**
//! under the two, serial and wide. Alongside it,
//! `random_decks_preserve_fault_recall` compiles generator-produced
//! deck variations (spacing only ever tightened, `same_mask` sometimes
//! added) and re-runs the recall oracle under them: rule decks that
//! tighten rules never lose injected faults.

use diic::cif::{Call, Element, Item, LayerRef, Shape, Symbol, SymbolId};
use diic::core::netgen::NetParts;
use diic::core::{
    account, canonical_check, check_cif, check_connections, check_connections_among,
    effective_parallelism, env_parallelism, instantiate, max_rule_range, BoundTechnology,
    CheckOptions, CheckReport, CheckStage, Definitions, InstantiateStats, InteractStats,
    LayerBinding, ScopeStats, ScopeTable, StringInterner, Violation,
};
use diic::gen::{generate, ChipSpec, ErrorKind};
use diic::geom::{Rect, Transform};
use diic::tech::nmos::nmos_technology;
use diic::tech::Technology;
use diic_bench::InteractionInputs;
use proptest::prelude::*;

/// The parallel worker count exercised against serial runs.
fn wide_workers() -> usize {
    env_parallelism().unwrap_or(0) // 0 = all available cores
}

/// Canonical form of a report's violation set: sorted debug renderings,
/// so "identical after canonical sort" is literal byte equality.
fn canonical(violations: &[Violation]) -> Vec<String> {
    let mut v: Vec<String> = violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort();
    v
}

fn run(cif: &str, tech: &Technology, parallelism: usize) -> CheckReport {
    check_cif(
        cif,
        tech,
        &CheckOptions {
            parallelism,
            ..CheckOptions::default()
        },
    )
    .expect("generated chips always parse")
}

/// The element pairs whose bounding boxes come within the technology's
/// rule reach of one another, counted over every pair — what the plan
/// and the direct scan must both enumerate, by a route that shares no
/// code with them.
fn brute_force_pairs(chip_cif: &str, tech: &Technology) -> u64 {
    let layout = diic::cif::parse(chip_cif).expect("generated chips always parse");
    let (binding, _) = LayerBinding::bind(&layout, tech);
    let definitions = Definitions::new(&layout, &binding, None);
    let (view, _) = instantiate(&layout, tech, &binding, &definitions, Default::default());
    let reach = max_rule_range(tech);
    let boxes = view.elements.bboxes();
    let within = |a: &Rect, b: &Rect| {
        (a.x1 - b.x2)
            .max(b.x1 - a.x2)
            .max(a.y1 - b.y2)
            .max(b.y1 - a.y2)
            <= reach
    };
    (boxes.iter().enumerate())
        .map(|(i, a)| boxes[i + 1..].iter().filter(|b| within(a, b)).count() as u64)
        .sum()
}

/// Checks the two-way contract for one generated chip against the
/// direct-scan reference; returns the serial and wide reports.
fn assert_two_way(chip_cif: &str, tech: &Technology) -> [CheckReport; 2] {
    let serial = run(chip_cif, tech, 1);
    let wide = run(chip_cif, tech, wide_workers());

    // Serial vs parallel: byte-identical ordered reports.
    assert_eq!(
        serial.violations, wide.violations,
        "parallel run diverges from serial"
    );
    assert_eq!(serial.interact_stats, wide.interact_stats);

    // The plan vs the direct scan on the same view: identical
    // interaction lines after canonical sort.
    let layout = diic::cif::parse(chip_cif).expect("generated chips always parse");
    let inputs = InteractionInputs::build(&layout, tech);
    let (direct, direct_stats) = inputs.direct_scan(tech, &CheckOptions::default());
    let interactions: Vec<Violation> = (serial.by_stage(CheckStage::Interactions).into_iter())
        .cloned()
        .collect();
    assert_eq!(
        canonical(&interactions),
        canonical(&direct),
        "the plan and the direct scan disagree on the violation set"
    );
    // Each pair counted once, by both tilings, and every verdict the
    // stamped rows rebuild counted as the direct scan counts it; the
    // plan-only counters (row hits and misses, the widest unit) are
    // exempt.
    let shared = |s: &InteractStats| InteractStats {
        cache_hits: 0,
        cache_misses: 0,
        peak_candidate_buffer: 0,
        ..*s
    };
    assert_eq!(
        shared(&serial.interact_stats),
        shared(&direct_stats),
        "the plan and the direct scan disagree on the interaction counters"
    );
    assert_eq!(
        serial.interact_stats.candidate_pairs,
        brute_force_pairs(chip_cif, tech),
        "the candidate-pair count is not the brute-force count"
    );
    [serial, wide]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The oracle proper: ≥ 64 proptest-generated chips with injected
    /// faults, both paths agree with each other and with the direct
    /// scan, and every injected fault is recalled by both.
    #[test]
    fn scope_driven_equals_direct_scan_with_fault_recall(
        nx in 2usize..5,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
    ) {
        let tech = nmos_technology();
        let cells = nx * ny;
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(cells)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let injected = chip.injected();
        let reports = assert_two_way(&chip.cif, &tech);
        for (path, report) in ["serial", "wide"].iter().zip(&reports)
        {
            let regions = account(&report.violations, &injected, 800);
            prop_assert_eq!(
                regions.unchecked, 0,
                "{}: {} of {} injected faults missed (nx={} ny={} seed={} mask={:#b})",
                path, regions.unchecked, regions.injected, nx, ny, seed, mask
            );
        }
    }

    /// The **seventh leg**: the scope-table connection pass must equal
    /// the direct scan over every element at one worker and at any other
    /// count, and net-list generation through the scope table the
    /// direct binder's, at any worker count — stage outputs compared
    /// directly (violations, merges, pairs
    /// examined, the assembled net list and every element's net), not
    /// just the end-to-end report.
    #[test]
    fn parallel_connections_and_netgen_equal_serial(
        nx in 2usize..5,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
    ) {
        let tech = nmos_technology();
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let layout = diic::cif::parse(&chip.cif).expect("generated chips always parse");
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let definitions = Definitions::new(&layout, &binding, None);
        let (mut view, runs) =
            instantiate(&layout, &tech, &binding, &definitions, Default::default());
        let scopes = ScopeTable::build(
            &definitions,
            layout.top_items(),
            runs.iter().map(|run| run.0),
            view.elements.bboxes(),
            max_rule_range(&tech),
        );
        let labels: Vec<_> = layout
            .labels()
            .iter()
            .map(|l| (l.clone(), binding.layer(l.layer)))
            .collect();

        let all: Vec<usize> = (0..view.elements.len()).collect();
        let bound = BoundTechnology::new(&tech);
        let conn_serial = check_connections_among(&view, &tech, &bound, &all);
        // The reference: a table that calls the whole chip one loose
        // scope builds the direct binder — one index over every netted
        // element — and nothing per definition.
        let whole_chip = [Item::Element(Element {
            layer: LayerRef(0),
            shape: Shape::Box(Rect::new(0, 0, 1, 1)),
            net: None,
        })];
        let one_scope = ScopeTable::build(
            &definitions,
            &whole_chip,
            [view.elements.len()],
            view.elements.bboxes(),
            max_rule_range(&tech),
        );
        let (mut parts_serial, _) =
            NetParts::build(&mut view, &bound, &conn_serial.merges, &labels, &one_scope, 1);
        let netlist_serial = parts_serial.assemble(&view);
        let wide = effective_parallelism(wide_workers());
        for workers in [1usize, 2, 3, wide] {
            let (conn, _) = check_connections(&view, &tech, &bound, &scopes, workers);
            prop_assert_eq!(
                &conn.violations, &conn_serial.violations,
                "connections: {} workers diverge (nx={} ny={} seed={} mask={:#b})",
                workers, nx, ny, seed, mask
            );
            prop_assert_eq!(&conn.merges, &conn_serial.merges, "workers={}", workers);
            prop_assert_eq!(conn.pairs_examined, conn_serial.pairs_examined);

            let (mut parts, _) =
                NetParts::build(&mut view, &bound, &conn.merges, &labels, &scopes, workers);
            let netlist = parts.assemble(&view);
            // Terminal nets are held by the net-list equality: each device
            // of the list carries its terminals' nets.
            prop_assert_eq!(
                &netlist, &netlist_serial,
                "netgen: {} workers diverge (nx={} ny={} seed={} mask={:#b})",
                workers, nx, ny, seed, mask
            );
            let (nets, nets_serial) = (parts.nets(), parts_serial.nets());
            for id in 0..view.elements.len() {
                prop_assert_eq!(
                    nets.element_net(id), nets_serial.element_net(id),
                    "element {}'s net: {} workers diverge", id, workers
                );
            }
        }
    }

    /// The name round-trip oracle: holding `path` / `net_key` as
    /// hierarchical names and device types as interned handles must not
    /// change a single rendered string. Every name resolves back to
    /// itself through a read-only lookup, a view built over a warm table
    /// (other handle values) renders exactly the cold view's strings,
    /// and elements sharing an instance share one path.
    #[test]
    fn interned_strings_round_trip(
        nx in 2usize..5,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
    ) {
        let tech = nmos_technology();
        // Faulted chips, like the other legs: injected errors perturb
        // instance geometry and paths, so the oracle sees genuinely
        // distinct string populations, not one clean array per size.
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let layout = diic::cif::parse(&chip.cif).expect("generated chips always parse");
        let (binding, _) = LayerBinding::bind(&layout, &tech);
        let definitions = Definitions::new(&layout, &binding, None);
        let (serial, _) = instantiate(&layout, &tech, &binding, &definitions, Default::default());
        // A table that already holds the chip's strings, in another
        // order: every handle value differs from the cold view's.
        let mut warm = StringInterner::default();
        let cold: Vec<&str> = serial.strings.iter().collect();
        for text in cold.iter().rev() {
            warm.intern(text);
        }
        let (seeded, _) = instantiate(&layout, &tech, &binding, &definitions, warm);

        let mut distinct = std::collections::HashSet::new();
        for e in &serial.elements {
            // Round trip: the rendered name resolves back to the name
            // that rendered it (a view holds one form per text).
            prop_assert_eq!(
                serial.lookup_name(&serial.name_text(e.net_key())),
                Some(e.net_key())
            );
            prop_assert_eq!(serial.lookup_name(&serial.name_text(e.path())), Some(e.path()));
            distinct.insert(serial.name_text(e.path()).into_owned());
        }
        prop_assert!(
            distinct.len() < serial.elements.len() || serial.elements.len() <= 1,
            "generated chips share instance paths; interning found none shared"
        );
        // The warm view renders the same strings element for element,
        // device for device.
        prop_assert_eq!(serial.elements.len(), seeded.elements.len());
        for (a, b) in serial.elements.iter().zip(&seeded.elements) {
            prop_assert_eq!(serial.name_text(a.net_key()), seeded.name_text(b.net_key()));
            prop_assert_eq!(serial.name_text(a.path()), seeded.name_text(b.path()));
        }
        for (a, b) in serial.devices.iter().zip(&seeded.devices) {
            prop_assert_eq!(serial.name_text(a.path), seeded.name_text(b.path));
            prop_assert_eq!(serial.str(a.device_type), seeded.str(b.device_type));
        }
    }

    /// The **tenth leg**: a freshly compiled NMOS deck and the cached
    /// `nmos_technology()` — one value, two sets of hash-map seeds — give
    /// byte-identical reports over the faulted corpus, serial and wide.
    #[test]
    fn fresh_deck_compile_equals_cached_nmos(
        nx in 2usize..5,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
    ) {
        let cached = nmos_technology();
        let fresh = diic::deck::compile_str(diic::deck::NMOS_DECK)
            .expect("the checked-in NMOS deck compiles");

        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let wide = wide_workers();
        for parallelism in [1usize, wide] {
            let under_cached = run(&chip.cif, &cached, parallelism);
            let under_fresh = run(&chip.cif, &fresh, parallelism);
            prop_assert_eq!(
                &under_fresh.violations, &under_cached.violations,
                "workers={}: a fresh compile diverges (nx={} ny={} seed={} mask={:#b})",
                parallelism, nx, ny, seed, mask
            );
            prop_assert_eq!(under_fresh.interact_stats, under_cached.interact_stats);
            prop_assert_eq!(&under_fresh.netlist, &under_cached.netlist);
        }
    }

    /// Generated rule decks (tightened spacings, sometimes a
    /// `same_mask` rule) keep the two-way contract **and** full fault
    /// recall: a deck that only tightens rules can add violations but
    /// never lose an injected fault.
    #[test]
    fn random_decks_preserve_fault_recall(
        nx in 2usize..4,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
        deck_seed in 0u64..1_000,
    ) {
        let tech = diic::deck::compile_str(&diic::gen::random_deck(deck_seed))
            .expect("generated decks always compile");
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let injected = chip.injected();
        let reports = assert_two_way(&chip.cif, &tech);
        for (path, report) in ["serial", "wide"].iter().zip(&reports)
        {
            let regions = account(&report.violations, &injected, 800);
            prop_assert_eq!(
                regions.unchecked, 0,
                "{}: deck {} lost {} of {} injected faults \
                 (nx={} ny={} seed={} mask={:#b})",
                path, deck_seed, regions.unchecked, regions.injected, nx, ny, seed, mask
            );
        }
    }
}

/// A clean chip must stay clean on both paths (no false errors
/// introduced by parallelism or the candidate rows).
#[test]
fn clean_chip_is_clean_on_all_paths() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::clean(4, 2));
    for report in assert_two_way(&chip.cif, &tech) {
        assert!(report.is_clean(), "{:#?}", report.violations);
    }
}

/// The candidate rows must actually be stamped on the arrays the oracle
/// generates — otherwise the differential test compares the direct scan
/// against itself.
#[test]
fn oracle_workload_exercises_the_cache() {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        4,
        2,
        vec![ErrorKind::NarrowWire, ErrorKind::CloseSpacing],
        7,
    ));
    let [serial, _] = assert_two_way(&chip.cif, &tech);
    assert!(serial.interact_stats.cache_hits > 0, "no row stamped");
    assert!(serial.interact_stats.cache_misses > 0);
}

/// The call name and the definition name a wrap inserts.
const WRAP: &str = "WRAP";

/// `layout` with its top-level items `lo..hi` moved, in order, into a
/// fresh symbol called at the identity as [`WRAP`], in their place.
/// Element ids keep their order: the call's run is the moved items'.
fn wrapped(layout: &diic::cif::Layout, lo: usize, hi: usize) -> diic::cif::Layout {
    let mut out = layout.clone();
    let tail: Vec<Item> = (lo..layout.top_items().len())
        .map(|_| out.remove_top(lo))
        .collect();
    let cif_id = layout.symbols().iter().map(|s| s.cif_id).max().unwrap_or(0) + 1;
    let symbol = out.add_symbol(Symbol {
        cif_id,
        name: Some(WRAP.to_string()),
        device: None,
        items: tail[..hi - lo].to_vec(),
    });
    out.push_top(Item::Call(Call {
        target: symbol,
        transform: Transform::IDENTITY,
        name: WRAP.to_string(),
    }));
    for item in &tail[hi - lo..] {
        out.push_top(item.clone());
    }
    out
}

/// A report line with the wrap's path segment removed: `WRAP.` and a
/// bare `WRAP` path dropped from each side of a context, the sides
/// rejoined the way their stage joins them (a connection line names a
/// pair with a loose element by the other side alone), and the wrap's
/// definition named as the top level it came from. Applied to both
/// sides of the comparison, so the pair's sides are put in order.
fn unwrapped(v: &Violation) -> String {
    let strip = |path: &str| {
        let path = path.strip_prefix(WRAP).unwrap_or(path);
        path.strip_prefix('.').unwrap_or(path).to_string()
    };
    let mut parts: Vec<String> = v.context.split(" / ").map(strip).collect();
    parts.sort();
    let context = match parts.as_slice() {
        [a, b] if a == b => a.clone(),
        [a, b] if v.stage == CheckStage::Connections && (a.is_empty() || b.is_empty()) => {
            format!("{a}{b}")
        }
        [a, b] => format!("{a} / {b}"),
        _ if v.stage == CheckStage::Elements && v.context == WRAP => "<top>".to_string(),
        _ => parts.concat(),
    };
    format!(
        "{:?}",
        Violation {
            context,
            ..v.clone()
        }
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// **Wrap invariance**, a metamorphic leg: moving any contiguous run
    /// of a faulted chip's top-level items into a fresh symbol called at
    /// the identity moves elements between the loose scans and the
    /// candidate rows of the scope table's plan, and must leave the
    /// canonical report unchanged once the inserted path segment is
    /// removed. (ERC is off: it names a net by a preferred alias, and a
    /// wrap deepens some aliases, so it can rename a net.)
    #[test]
    fn wrapping_top_items_in_a_symbol_changes_nothing(
        nx in 2usize..4,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
        from in 0usize..1000,
        len in 0usize..1000,
    ) {
        let tech = nmos_technology();
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let layout = diic::cif::parse(&chip.cif).expect("generated chips always parse");
        let n = layout.top_items().len();
        let lo = from % n;
        let hi = lo + 1 + len % (n - lo);
        let options = CheckOptions {
            erc: false,
            ..CheckOptions::default()
        };
        let canonical_lines = |layout: &diic::cif::Layout| {
            let report = canonical_check(layout, &tech, &options);
            let mut lines: Vec<String> = report.violations.iter().map(unwrapped).collect();
            lines.sort();
            lines
        };
        prop_assert_eq!(
            canonical_lines(&layout),
            canonical_lines(&wrapped(&layout, lo, hi)),
            "items {}..{} of {} (nx={} ny={} seed={} mask={:#b})",
            lo, hi, n, nx, ny, seed, mask
        );
    }
}

/// `layout` with the symbol `original` copied under a fresh id and name,
/// and the calls to it — at the top level and inside every symbol, in
/// that order — whose bit of `pick` is set pointed at the copy (the
/// bits cycle past the 64th call).
fn cloned(layout: &diic::cif::Layout, original: SymbolId, pick: u64) -> diic::cif::Layout {
    let mut out = layout.clone();
    let source = layout.symbol(original);
    let cif_id = layout.symbols().iter().map(|s| s.cif_id).max().unwrap_or(0) + 1;
    let copy = out.add_symbol(Symbol {
        cif_id,
        name: Some(format!("{}_COPY", source.display_name())),
        device: None,
        items: source.items.clone(),
    });
    let mut calls = 0u32;
    let mut repoint = |item: &mut Item| {
        if let Item::Call(c) = item {
            if c.target == original {
                if pick.rotate_right(calls % 64) & 1 == 1 {
                    c.target = copy;
                }
                calls += 1;
            }
        }
    };
    (0..out.top_items().len()).for_each(|i| repoint(out.top_item_mut(i)));
    for s in 0..layout.symbols().len() {
        let symbol = out.symbol_mut(SymbolId(s as u32));
        symbol.items.iter_mut().for_each(&mut repoint);
    }
    out
}

/// What a check of `layout` must keep when a definition is cloned: the
/// canonical report, its net list and every counter of the stages that
/// group by definition.
fn clone_invariants(
    layout: &diic::cif::Layout,
    tech: &Technology,
    parallelism: usize,
) -> (CheckReport, InstantiateStats, ScopeStats, InteractStats) {
    let options = CheckOptions {
        parallelism,
        ..CheckOptions::default()
    };
    let report = canonical_check(layout, tech, &options);
    let stats = (
        report.instantiate_stats,
        report.scope_stats,
        report.interact_stats,
    );
    (report, stats.0, stats.1, stats.2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// **Clone invariance**, a metamorphic leg: copying a non-device
    /// symbol of a faulted chip under a fresh id and name, and pointing
    /// any subset of its calls at the copy, must change nothing — not
    /// the canonical report or the net list, and not what the stages
    /// that group by definition built: templates and walked elements
    /// (`InstantiateStats`), connection rows and bind indexes
    /// (`ScopeStats`), candidate rows (`InteractStats::cache_misses`).
    /// A definition is its content, not its `SymbolId`. (A device
    /// symbol's verdict lines carry its display name, so copying one
    /// adds lines by design.)
    #[test]
    fn cloning_a_definition_changes_nothing(
        nx in 2usize..5,
        ny in 1usize..3,
        seed in 0u64..1_000_000,
        mask in 1u16..512,
        which in 0usize..1000,
        pick in 0u64..u64::MAX,
    ) {
        let tech = nmos_technology();
        let errors: Vec<ErrorKind> = ErrorKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .take(nx * ny)
            .collect();
        let chip = generate(&ChipSpec::with_errors(nx, ny, errors, seed));
        let layout = diic::cif::parse(&chip.cif).expect("generated chips always parse");
        let candidates: Vec<SymbolId> = (0..layout.symbols().len() as u32)
            .map(SymbolId)
            .filter(|&id| !layout.symbol(id).is_device())
            .collect();
        let original = candidates[which % candidates.len()];
        let clone = cloned(&layout, original, pick);
        for parallelism in [1, wide_workers()] {
            let (want, want_instantiate, want_scopes, want_interact) =
                clone_invariants(&layout, &tech, parallelism);
            let (got, got_instantiate, got_scopes, got_interact) =
                clone_invariants(&clone, &tech, parallelism);
            let case = format!(
                "symbol {} calls {:#x}, workers={} (nx={} ny={} seed={} mask={:#b})",
                layout.symbol(original).display_name(), pick, parallelism, nx, ny, seed, mask
            );
            prop_assert_eq!(&got.violations, &want.violations, "{}", case);
            prop_assert_eq!(&got.netlist, &want.netlist, "{}", case);
            prop_assert_eq!(got_instantiate, want_instantiate, "{}", case);
            prop_assert_eq!(got_scopes, want_scopes, "{}", case);
            prop_assert_eq!(got_interact, want_interact, "{}", case);
        }
    }
}

/// Two symbols of one content under different ids and names, each
/// placed once, are one definition: one template, one interior row for
/// each pair stage, stamped onto the second placement.
#[test]
fn content_identical_symbols_share_one_template_and_one_row() {
    let tech = nmos_technology();
    let cif = "DS 1; 9 a; L NM; B 3000 750 1500 375; L NP; B 500 2000 250 1500; DF;\n\
               DS 2; 9 b; L NM; B 3000 750 1500 375; L NP; B 500 2000 250 1500; DF;\n\
               C 1 T 0 0; C 2 T 100000 0; E";
    let options = CheckOptions {
        erc: false,
        ..CheckOptions::default()
    };
    let report = check_cif(cif, &tech, &options).expect("the chip parses");
    assert!(report.is_clean(), "{:#?}", report.violations);
    let stamped = report.instantiate_stats;
    assert_eq!(
        (stamped.templates_built, stamped.instances_stamped),
        (1, 2),
        "{stamped}"
    );
    let scopes = report.scope_stats;
    assert_eq!(
        (scopes.conn_rows_built, scopes.conn_rows_stamped),
        (1, 1),
        "{scopes}"
    );
    let rows = report.interact_stats;
    assert_eq!((rows.cache_misses, rows.cache_hits), (1, 1), "{rows:?}");
}
