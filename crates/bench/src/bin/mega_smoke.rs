//! Release-mode mega-chip smoke: generate a library-scale clean array,
//! run the bounded-memory pipeline over it, and assert the verdict.
//!
//! ```text
//! cargo run -p diic-bench --bin mega_smoke --release -- [target_elements] [count|spill]
//! ```
//!
//! Two sink modes:
//!
//! * **count** (default) — counting sink, nothing violation-shaped is
//!   ever buffered; asserts the clean chip checks clean and the tiled
//!   candidate peak is bounded.
//! * **spill** — disables same-net suppression so the clean array
//!   produces O(interactions) report volume, then streams the full
//!   sorted report through a [`SpillingSink`] (budget
//!   `MEGA_SPILL_BUDGET` violations, default 65536) into a hashing
//!   writer; asserts the merge was genuinely multi-run. This is the
//!   mode whose peak RSS the `mega-smoke-1e7` CI step gates — a sorted
//!   multi-hundred-MB report with in-RAM report state bounded by one
//!   run plus the merge cursors.
//!
//! CI wraps this in `/usr/bin/time -v` and enforces a peak-RSS ceiling:
//! with candidate memory bounded by the widest tile and report memory
//! bounded by the spill budget, resident memory scales with the
//! instantiated view, not with the all-pairs list or the report. Exits
//! non-zero (panics) on any assertion.

use diic_bench::FnvWriter;
use diic_core::{check_with_sink, CheckOptions, CountingSink, SpillingSink, StageEngine};
use diic_tech::nmos::nmos_technology;
use std::time::Instant;

fn main() {
    let target: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("target_elements must be a number"))
        .unwrap_or(1_000_000);
    let mode = std::env::args().nth(2).unwrap_or_else(|| "count".into());

    let t0 = Instant::now();
    let chip = diic_gen::mega_chip(target);
    let layout = diic_cif::parse(&chip.cif).expect("generated chips always parse");
    println!(
        "generated + parsed {} cells in {:.1}s",
        chip.cell_count,
        t0.elapsed().as_secs_f64()
    );

    let tech = nmos_technology();
    let options = CheckOptions {
        erc: false,
        parallelism: 0,
        // The spill mode wants report volume; a rule-clean chip only
        // produces it with same-net suppression off (every intra-net
        // spacing pair reports).
        same_net_suppression: mode != "spill",
        ..CheckOptions::default()
    };
    let engine = StageEngine::diic_pipeline();

    let t0 = Instant::now();
    let (report, reported) = match mode.as_str() {
        "count" => {
            let mut sink = CountingSink::new();
            let report = check_with_sink(&engine, &layout, &tech, &options, &mut sink);
            (report, sink.total())
        }
        "spill" => {
            let budget: usize = std::env::var("MEGA_SPILL_BUDGET")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64 * 1024);
            let mut sink = SpillingSink::new(FnvWriter::new(), budget);
            let report = check_with_sink(&engine, &layout, &tech, &options, &mut sink);
            let (out, stats) = sink.finish().expect("hash writes cannot fail");
            let (hash, bytes) = out.digest();
            println!(
                "spilled {} violations over {} runs ({:.1} MB on disk), merged \
                 {:.1} MB of report (fnv {hash:016x})",
                stats.written,
                stats.runs,
                stats.spilled_bytes as f64 / 1e6,
                bytes as f64 / 1e6,
            );
            assert!(
                stats.runs > 1,
                "the spill budget must force a multi-run merge — got {} run(s)",
                stats.runs
            );
            assert!(
                stats.written > 0,
                "same-net suppression off must produce report volume"
            );
            (report, stats.written)
        }
        other => panic!("unknown sink mode {other:?} (use count or spill)"),
    };
    let elapsed = t0.elapsed();
    println!(
        "checked {} elements / {} devices in {:.1}s ({:.0} elements/s)",
        report.element_count,
        report.device_count,
        elapsed.as_secs_f64(),
        report.element_count as f64 / elapsed.as_secs_f64()
    );
    println!(
        "candidate pairs {} — peak candidate buffer {} (tiled)",
        report.interact_stats.candidate_pairs, report.interact_stats.peak_candidate_buffer
    );
    println!("instantiate: {}", report.instantiate_stats);
    println!("scopes: {}", report.scope_stats);
    println!(
        "strings: {} interned by instantiation; net list {} nets, {} aliases, {} bytes of text",
        report.instantiate_stats.strings_interned,
        report.netlist.net_count(),
        report.netlist.alias_count(),
        report.netlist.text_bytes()
    );
    for s in &report.stage_profile {
        println!(
            "  {:<12} {:>8.1} ms",
            s.name,
            s.duration.as_secs_f64() * 1e3
        );
    }

    assert!(
        report.element_count as u64 >= target,
        "mega chip fell short of the element target: {} < {target}",
        report.element_count
    );
    if mode == "count" {
        assert_eq!(
            reported, 0,
            "the clean mega array must check clean — the checker regressed"
        );
    }
    assert!(
        report.interact_stats.peak_candidate_buffer < report.interact_stats.candidate_pairs,
        "tiled peak {} not bounded below total pairs {}",
        report.interact_stats.peak_candidate_buffer,
        report.interact_stats.candidate_pairs
    );
    // Self-reported peak RSS (VmHWM) — the same number CI's
    // `/usr/bin/time -v` gates on, available where that tool is not.
    let peak_kb = diic_bench::peak_rss_kb();
    if peak_kb > 0 {
        println!("peak RSS {:.0} MB (VmHWM)", peak_kb as f64 / 1e3);
    }
    println!("mega smoke OK ({mode})");
}
