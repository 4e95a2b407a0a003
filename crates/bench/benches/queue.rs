//! The heap-queue acceptance benchmark: heap-ordered vs. linear-scan
//! candidate queues on a Figure-9-style workload (10k × 10k uniform
//! points, DoubleNn, paper region). The bit-identical `BatchStats` check
//! is the `linear_equivalence` test; this criterion target measures a
//! small slice so `cargo bench queue` stays interactive.

use criterion::{criterion_group, criterion_main, Criterion};
use tnn_bench::fixture_tree;
use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, TnnConfig};
use tnn_datasets::paper_region;
use tnn_sim::{run_batch, run_batch_linear, BatchConfig};

fn bench_queue_backends(c: &mut Criterion) {
    let s = fixture_tree(10_000, 1);
    let r = fixture_tree(10_000, 2);
    let cfg = BatchConfig {
        params: BroadcastParams::new(64),
        tnn: TnnConfig::exact(Algorithm::DoubleNn),
        queries: 64,
        seed: 0xF19,
        check_oracle: false,
    };

    // Identical results are a precondition for a meaningful comparison.
    let heap_stats = run_batch(&s, &r, &paper_region(), &cfg);
    let linear_stats = run_batch_linear(&s, &r, &paper_region(), &cfg);
    assert_eq!(heap_stats, linear_stats, "backends diverged");

    let mut g = c.benchmark_group("queue/double_nn_10k");
    g.sample_size(10);
    g.bench_function("heap", |b| {
        b.iter(|| run_batch(&s, &r, &paper_region(), &cfg))
    });
    g.bench_function("linear_reference", |b| {
        b.iter(|| run_batch_linear(&s, &r, &paper_region(), &cfg))
    });
    g.finish();
}

criterion_group!(benches, bench_queue_backends);
criterion_main!(benches);
