//! Release-mode library smoke: generate a thousand-cell variant
//! library, batch-verify it over the shared content-keyed caches, and
//! assert the byte-identity contract plus a throughput floor.
//!
//! ```text
//! cargo run -p diic-bench --bin library_smoke --release -- [cells] [min_cells_per_second]
//! ```
//!
//! The run verifies the library twice: a loop of standalone `check()`
//! calls (the per-cell baseline and the identity oracle) and one
//! `check_library` batch on all cores. It asserts:
//!
//! * every batch per-cell report is byte-identical to its standalone
//!   counterpart (violations, net list, interaction stats, counts);
//! * the session's kept scored interaction rows, templates and primitive
//!   verdicts actually hit across cells (the library generator makes
//!   half the cells share definition content, so zero hits means the
//!   mechanism regressed);
//! * batch throughput meets the cells/second floor (0 disables).
//!
//! CI wraps this in `/usr/bin/time -v` and additionally gates peak RSS:
//! with only definitions a second cell presents kept by the session,
//! resident memory scales with the largest cell plus the kept
//! definitions — not with the library size.

use diic_core::{check, check_library_buffered, LibraryOptions};
use diic_tech::nmos::nmos_technology;
use std::time::Instant;

fn main() {
    let cells: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("cells must be a number"))
        .unwrap_or(1000);
    let floor: f64 = std::env::args()
        .nth(2)
        .map(|a| a.parse().expect("min_cells_per_second must be a number"))
        .unwrap_or(0.0);

    let t0 = Instant::now();
    let lib = diic_gen::cell_library(cells, 80);
    let layouts: Vec<diic_cif::Layout> = lib
        .cells
        .iter()
        .map(|c| diic_cif::parse(&c.cif).expect("generated cells always parse"))
        .collect();
    println!(
        "generated + parsed {cells} cells ({} shared-content, {} faulted) in {:.1}s",
        lib.shared_cells,
        lib.faulted_cells,
        t0.elapsed().as_secs_f64()
    );

    let tech = nmos_technology();
    let options = LibraryOptions::default();

    let t0 = Instant::now();
    let standalone: Vec<_> = layouts
        .iter()
        .map(|l| check(l, &tech, &options.cell))
        .collect();
    let t_loop = t0.elapsed();
    println!(
        "standalone loop: {:.1}s ({:.0} cells/s)",
        t_loop.as_secs_f64(),
        cells as f64 / t_loop.as_secs_f64()
    );

    let t0 = Instant::now();
    let batch = check_library_buffered(&layouts, &tech, &options);
    let elapsed = t0.elapsed();
    let cells_per_second = cells as f64 / elapsed.as_secs_f64();
    println!(
        "batch (shared caches, all cores): {:.1}s ({cells_per_second:.0} cells/s, ×{:.2} vs loop)",
        elapsed.as_secs_f64(),
        t_loop.as_secs_f64() / elapsed.as_secs_f64()
    );
    let stats = &batch.stats;
    let (templates, verdicts, fills) = (stats.templates, stats.verdicts, stats.fills);
    for (name, shelf) in [
        ("templates", templates),
        ("primitive verdicts", verdicts),
        ("scored interaction rows", fills),
    ] {
        println!(
            "kept {name}: {} hits / {} misses ({} entries, {} seen once)",
            shelf.hits, shelf.misses, shelf.entries, shelf.seen
        );
    }
    println!(
        "interner: peak {} strings / {:.1} MB",
        stats.interner_peak_strings,
        stats.interner_peak_bytes as f64 / 1e6
    );
    println!(
        "cell wall clock: p50 {:.2} ms, p99 {:.2} ms",
        batch.profile.p50().as_secs_f64() * 1e3,
        batch.profile.p99().as_secs_f64() * 1e3
    );

    assert_eq!(batch.reports.len(), standalone.len());
    for (i, (b, s)) in batch.reports.iter().zip(&standalone).enumerate() {
        assert_eq!(b.violations, s.violations, "cell {i}: violations diverge");
        assert_eq!(b.netlist, s.netlist, "cell {i}: net list diverges");
        assert_eq!(
            b.interact_stats, s.interact_stats,
            "cell {i}: stats diverge"
        );
        assert_eq!(b.element_count, s.element_count, "cell {i}");
        assert_eq!(b.device_count, s.device_count, "cell {i}");
    }
    println!("all {cells} per-cell reports byte-identical to standalone checks");

    assert!(
        templates.hits > 0 && verdicts.hits > 0 && fills.hits > 0,
        "cells sharing definitions must reuse their templates, verdicts and fills: {:?}",
        batch.stats
    );
    assert!(
        cells_per_second >= floor,
        "batch throughput {cells_per_second:.0} cells/s below the floor {floor:.0}"
    );

    // Self-reported peak RSS (VmHWM) — the same number CI's
    // `/usr/bin/time -v` gates on, available where that tool is not.
    let peak_kb = diic_bench::peak_rss_kb();
    if peak_kb > 0 {
        println!("peak RSS {:.0} MB (VmHWM)", peak_kb as f64 / 1e3);
    }
    println!("library smoke OK");
}
