//! Fig. 1 bench: full DIIC pipeline vs flat mask-level checking on the
//! same generated chip (who pays what for correctness).

use criterion::{criterion_group, criterion_main, Criterion};
use diic_core::{check, flat_check, CheckOptions};
use diic_gen::{generate, ChipSpec, ErrorKind};
use diic_tech::nmos::nmos_technology;

fn bench(c: &mut Criterion) {
    let tech = nmos_technology();
    let chip = generate(&ChipSpec::with_errors(
        6,
        4,
        vec![ErrorKind::NarrowWire, ErrorKind::CloseSpacing],
        91,
    ));
    let layout = diic_cif::parse(&chip.cif).unwrap();
    let mut g = c.benchmark_group("fig01");
    g.sample_size(10);
    g.bench_function("diic_pipeline_6x4", |b| {
        b.iter(|| check(&layout, &tech, &CheckOptions::default()))
    });
    g.bench_function("flat_checker_6x4", |b| {
        b.iter(|| flat_check(&layout, &tech))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
