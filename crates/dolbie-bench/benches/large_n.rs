//! Large-N engine microbenchmarks: per-round cost of the sequential
//! `Dolbie`, the fused and SIMD round kernels (`FusedDolbie`), and the
//! fixed-shape compensated summation primitive they share.
//!
//! Criterion keeps the fleets small enough to iterate quickly
//! (N <= 10^5); the full sweep to N = 10^6 with RSS tracking is the
//! `large_n` experiment (`scripts/bench_large_n.sh`), which also checks
//! bitwise equivalence and writes `BENCH_large_n.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dolbie_core::cost::{DynCost, LatencyCost};
use dolbie_core::kernel::{FusedDolbie, KernelVariant};
use dolbie_core::{pairwise_neumaier_sum, run_episode_with_static_costs, Dolbie};
use std::hint::black_box;

fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn latency_fleet(n: usize, seed: u64) -> Vec<DynCost> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let speed = 64.0 + 448.0 * splitmix(&mut state);
            Box::new(LatencyCost::new(256.0, speed, 0.05)) as DynCost
        })
        .collect()
}

/// Rounds/sec of a short episode over a static fleet, per engine.
fn bench_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_n_rounds");
    const ROUNDS: usize = 10;
    for n in [1_000usize, 10_000, 100_000] {
        let costs = latency_fleet(n, 0x1a6e);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| {
                let mut balancer = Dolbie::new(n);
                black_box(run_episode_with_static_costs(&mut balancer, &costs, ROUNDS));
            });
        });
        group.bench_with_input(BenchmarkId::new("fused", n), &n, |b, _| {
            b.iter(|| {
                let mut kernel = FusedDolbie::from_costs(&costs).unwrap();
                black_box(kernel.run(ROUNDS));
            });
        });
        group.bench_with_input(BenchmarkId::new("simd", n), &n, |b, _| {
            b.iter(|| {
                let mut kernel =
                    FusedDolbie::from_costs(&costs).unwrap().with_variant(KernelVariant::Simd);
                black_box(kernel.run(ROUNDS));
            });
        });
    }
    group.finish();
}

/// The shared summation primitive on its own: naive accumulation as the
/// baseline vs the fixed-shape Neumaier/pairwise reduction.
fn bench_summation(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_n_summation");
    for n in [10_000usize, 1_000_000] {
        let mut state = 99u64;
        let values: Vec<f64> = (0..n).map(|_| splitmix(&mut state) - 0.5).collect();
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(values.iter().sum::<f64>()));
        });
        group.bench_with_input(BenchmarkId::new("pairwise_neumaier", n), &n, |b, _| {
            b.iter(|| black_box(pairwise_neumaier_sum(black_box(&values))));
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_round_throughput, bench_summation
);
criterion_main!(benches);
