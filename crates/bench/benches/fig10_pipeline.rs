//! Fig. 9/10 bench: the interaction search by the scope table's plan
//! (candidate rows filled once per definition and stamped) vs the direct
//! scan over every element, on the same view, as the array grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diic_bench::InteractionInputs;
use diic_core::CheckOptions;
use diic_gen::{generate, ChipSpec};
use diic_tech::nmos::nmos_technology;

fn bench(c: &mut Criterion) {
    let tech = nmos_technology();
    let options = CheckOptions::default();
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    for (nx, ny) in [(4, 2), (8, 4), (12, 6)] {
        let chip = generate(&ChipSpec {
            demo_cells: false,
            ..ChipSpec::clean(nx, ny)
        });
        let layout = diic_cif::parse(&chip.cif).unwrap();
        let inputs = InteractionInputs::build(&layout, &tech);
        g.bench_with_input(
            BenchmarkId::new("hierarchical", nx * ny),
            &inputs,
            |b, i| b.iter(|| i.scope_driven(&tech, &options)),
        );
        g.bench_with_input(BenchmarkId::new("flat_search", nx * ny), &inputs, |b, i| {
            b.iter(|| i.direct_scan(&tech, &options))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
