//! The acceptance gate of the heap-queue optimization: for fixed seeds,
//! [`tnn_sim::run_tnn_batch`] (heap-ordered candidate queues) and
//! [`tnn_sim::run_batch_linear`] (the paper-literal O(n) scan reference)
//! must produce **bit-identical** `BatchStats` — same pages, same finish
//! times, same answers — across all four algorithms and ANN modes.

use std::sync::Arc;
use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, AnnMode, Query};
use tnn_datasets::uniform_points;
use tnn_geom::{Point, Rect};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_sim::{run_batch_linear, run_tnn_batch, BatchConfig};

fn tree(n: usize, seed: u64, params: &BroadcastParams) -> Arc<RTree> {
    let region = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
    let pts = uniform_points(n, &region, seed);
    Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
}

#[test]
fn batch_stats_bit_identical_across_backends() {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
    let trees = [tree(400, 21, &params), tree(350, 22, &params)];
    for alg in Algorithm::ALL {
        for (seed, ann) in [
            (0xBEu64, [AnnMode::Exact; 2]),
            (0x5EED, [AnnMode::Dynamic { factor: 1.0 }; 2]),
        ] {
            let cfg = BatchConfig {
                params,
                query: Query::tnn(Point::ORIGIN).algorithm(alg).ann_modes(&ann),
                queries: 32,
                seed,
                check_oracle: false,
            };
            let heap = run_tnn_batch(&trees, &region, &cfg);
            let linear = run_batch_linear(&trees, &region, &cfg);
            assert_eq!(heap, linear, "{} seed {seed:#x}", alg.name());
        }
    }
}

#[test]
fn batch_stats_bit_identical_with_oracle_checks() {
    let params = BroadcastParams::new(128);
    let region = Rect::from_coords(0.0, 0.0, 10_000.0, 10_000.0);
    let trees = [tree(250, 31, &params), tree(300, 32, &params)];
    let cfg = BatchConfig {
        params,
        query: Query::tnn(Point::ORIGIN).algorithm(Algorithm::HybridNn),
        queries: 24,
        seed: 0xC0FFEE,
        check_oracle: true,
    };
    let heap = run_tnn_batch(&trees, &region, &cfg);
    let linear = run_batch_linear(&trees, &region, &cfg);
    assert_eq!(heap, linear);
    assert_eq!(heap.fail_rate, 0.0);
}
