//! # tnn-bench
//!
//! Criterion wall-clock benchmarks for the TNN broadcast reproduction.
//!
//! The paper's own metrics (access time, tune-in time in *pages*) are
//! regenerated by the `tnn-sim` binaries; the benches here measure the
//! computational cost of the reproduction itself — geometry kernels,
//! R-tree construction and queries, broadcast-schedule arithmetic, and
//! one full simulated query per algorithm and per figure workload — so
//! that performance regressions in the simulator are caught. End-to-end
//! and per-layer timings of the whole system come from the separate
//! `perfbench` package (`python3 perfbench/run.py`).
//!
//! Shared fixtures live in this library crate so all bench targets use
//! identical workloads.

#![forbid(unsafe_code)]

use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_datasets::{paper_region, uniform_points};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};

/// Deterministic uniform dataset over the paper region.
pub fn fixture_points(n: usize, seed: u64) -> Vec<Point> {
    uniform_points(n, &paper_region(), seed)
}

/// STR-packed tree over a fixture dataset with 64-byte-page capacities.
pub fn fixture_tree(n: usize, seed: u64) -> Arc<RTree> {
    let params = BroadcastParams::new(64);
    Arc::new(
        RTree::build(
            &fixture_points(n, seed),
            params.rtree_params(),
            PackingAlgorithm::Str,
        )
        .expect("fixture datasets are valid"),
    )
}

/// A two-channel environment over fixture datasets.
pub fn fixture_env(s_n: usize, r_n: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    MultiChannelEnv::new(
        vec![fixture_tree(s_n, 11), fixture_tree(r_n, 23)],
        params,
        &[101, 20_003],
    )
}

/// Deterministic query points inside the paper region.
pub fn fixture_queries(n: usize) -> Vec<Point> {
    uniform_points(n, &paper_region(), 0xABCD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        assert_eq!(fixture_points(100, 1), fixture_points(100, 1));
        let env = fixture_env(200, 300);
        assert_eq!(env.channel(0).tree().num_objects(), 200);
        assert_eq!(env.channel(1).tree().num_objects(), 300);
    }
}
