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
//! * the content-keyed candidate cache actually hit across cells
//!   (the library generator makes half the cells share definition
//!   content, so zero hits means the mechanism regressed);
//! * batch throughput meets the cells/second floor (0 disables).
//!
//! CI wraps this in `/usr/bin/time -v` and additionally gates peak RSS:
//! with candidate fills shared by content and the session interners
//! compacted between cells, resident memory scales with the largest
//! cell plus the shared cache — not with the library size.

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
    println!(
        "shared cache: {} hits / {} misses ({} entries, {} cached pairs); \
         interner: {} compactions, peak {} strings / {:.1} MB",
        batch.stats.shared_cache_hits,
        batch.stats.shared_cache_misses,
        batch.stats.shared_cache_entries,
        batch.stats.shared_cache_pairs,
        batch.stats.interner_compactions,
        batch.stats.interner_peak_strings,
        batch.stats.interner_peak_bytes as f64 / 1e6
    );
    let (templates, verdicts) = (batch.stats.templates, batch.stats.verdicts);
    println!(
        "definitions kept: templates {} hits / {} misses ({} entries), \
         primitive verdicts {} hits / {} misses ({} entries)",
        templates.hits,
        templates.misses,
        templates.entries,
        verdicts.hits,
        verdicts.misses,
        verdicts.entries
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
        batch.stats.shared_cache_hits > 0,
        "a half-shared library must hit the content-keyed cache: {:?}",
        batch.stats
    );
    assert!(
        templates.hits > 0 && verdicts.hits > 0,
        "cells sharing definitions must reuse their templates and verdicts: {:?}",
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
