//! Throughput of the discrete-event simulator itself: how fast the
//! schedule replay runs at BlueGene/P-like rank counts. This is what
//! bounds the turnaround of the fig8/fig9 sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hsumma_core::simdrive::{simulate, Schedule, SimEngine};
use hsumma_matrix::GridShape;
use hsumma_netsim::{Platform, SimBcast};

fn bench_sim(c: &mut Criterion) {
    let platform = Platform::bluegene_p_effective();
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for side in [16usize, 32, 64] {
        let grid = GridShape::new(side, side);
        let n = side * 64;
        let b = 32;
        // One A-message + one B-message per rank per step, roughly.
        group.throughput(Throughput::Elements((grid.size() * n / b * 2) as u64));
        group.bench_with_input(
            BenchmarkId::new("summa_flat", grid.size()),
            &side,
            |bench, _| {
                bench.iter(|| {
                    simulate(
                        &Schedule::summa(grid, n, b, SimBcast::Flat),
                        &platform,
                        SimEngine::Threads,
                        true,
                    )
                });
            },
        );
        let groups = GridShape::new(side / 4, side / 4);
        group.bench_with_input(
            BenchmarkId::new("hsumma_flat", grid.size()),
            &side,
            |bench, _| {
                bench.iter(|| {
                    simulate(
                        &Schedule::hsumma(grid, groups, n, b, b, SimBcast::Flat, SimBcast::Flat),
                        &platform,
                        SimEngine::Threads,
                        true,
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
