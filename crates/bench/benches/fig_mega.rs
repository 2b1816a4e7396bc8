//! Bounded-memory bench: the buffering sink vs the counting and
//! spilling sinks on a mega-chip slice, plus a wall-clock gate over the
//! end-to-end check, so a batch-kernel or candidate-search regression
//! fails the bench run loudly instead of drifting in unread medians.

use criterion::{criterion_group, Criterion};
use diic_core::{check, check_with_sink, CheckOptions, CountingSink, SpillingSink, StageEngine};
use diic_tech::nmos::nmos_technology;

fn bench(c: &mut Criterion) {
    let tech = nmos_technology();
    let chip = diic_gen::mega_chip(20_000);
    let layout = diic_cif::parse(&chip.cif).unwrap();
    let mut g = c.benchmark_group("fig_mega");
    g.sample_size(10);
    g.bench_function("buffering-sink", |b| {
        b.iter(|| {
            check(
                &layout,
                &tech,
                &CheckOptions {
                    erc: false,
                    parallelism: 0,
                    ..CheckOptions::default()
                },
            )
        })
    });
    g.bench_function("counting-sink", |b| {
        b.iter(|| {
            let mut sink = CountingSink::new();
            check_with_sink(
                &StageEngine::diic_pipeline(),
                &layout,
                &tech,
                &CheckOptions {
                    erc: false,
                    parallelism: 0,
                    ..CheckOptions::default()
                },
                &mut sink,
            )
        })
    });
    // The spilled report path end to end: same-net suppression off so
    // the clean slice produces report volume, a budget far below it so
    // every iteration writes sorted runs to disk and k-way merges them
    // back — pricing the external sort against the in-RAM paths above.
    g.bench_function("spilling-sink", |b| {
        b.iter(|| {
            let mut sink = SpillingSink::new(std::io::sink(), 256);
            check_with_sink(
                &StageEngine::diic_pipeline(),
                &layout,
                &tech,
                &CheckOptions {
                    erc: false,
                    parallelism: 0,
                    same_net_suppression: false,
                    ..CheckOptions::default()
                },
                &mut sink,
            );
            let (_, stats) = sink.finish().expect("sink writes cannot fail");
            assert!(stats.runs > 1, "budget 256 must spill the mega slice");
            stats
        })
    });
    g.finish();
}

criterion_group!(benches, bench);

/// The wall-clock assertion: the check of a 20k-element mega
/// slice must finish within `FIG_MEGA_MAX_MS` milliseconds (default
/// 10 000 — generous against runner noise, loud against algorithmic
/// regressions in the columnar batch kernels or the candidate search,
/// which blow past it by orders of magnitude). Takes the best of
/// three runs so a one-off scheduler stall cannot fail the gate.
fn wall_clock_gate() {
    let tech = nmos_technology();
    let chip = diic_gen::mega_chip(20_000);
    let layout = diic_cif::parse(&chip.cif).unwrap();
    let max_ms: u64 = std::env::var("FIG_MEGA_MAX_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let opts = CheckOptions {
        erc: false,
        parallelism: 0,
        ..CheckOptions::default()
    };
    let best = (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            criterion::black_box(check(&layout, &tech, &opts));
            t0.elapsed()
        })
        .min()
        .expect("three timed runs");
    println!(
        "fig_mega wall-clock gate: best check {:.1} ms (ceiling {max_ms} ms)",
        best.as_secs_f64() * 1e3
    );
    assert!(
        best.as_millis() as u64 <= max_ms,
        "mega check took {:.1} ms, over the {max_ms} ms ceiling — \
         a kernel or candidate-search regression",
        best.as_secs_f64() * 1e3
    );
}

fn main() {
    benches();
    wall_clock_gate();
}
