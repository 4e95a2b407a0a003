//! One-shot Prometheus snapshot of a live serving stack: spins up a
//! traced, caching, faulted [`tnn_serve::Server`] and a
//! [`tnn_shard::ShardRouter`] over small uniform environments, pushes a
//! short mixed workload through both, publishes every layer's stats
//! into one [`tnn_serve::MetricsRegistry`], and prints the rendered
//! text exposition to stdout — the quickest way to eyeball the full
//! metric surface (`tnn_serve_*`, `tnn_cache_*`, `tnn_faults_*`,
//! `tnn_shard_*`, `tnn_trace_*`) or to diff it in CI.
//!
//! ```sh
//! cargo run -p tnn-sim --bin metrics_dump
//! ```
//!
//! Environment knobs: `TNN_DUMP_POINTS` (points per channel, default
//! 1,500) and `TNN_DUMP_QUERIES` (queries per layer, default 120).

#![forbid(unsafe_code)]
// R1-approved timing module (see check/r1.allow): this binary reads no
// clock itself, but keep the posture explicit and uniform with its
// siblings.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, Query};
use tnn_datasets::{paper_region, uniform_points};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, ChannelFaults, FaultPlan, MetricsRegistry, RetryPolicy, ServeConfig,
    Server, ShutdownMode, TraceConfig,
};
use tnn_shard::{ShardConfig, ShardRouter};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn build_env(points: usize, seed: u64) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = paper_region();
    let trees: Vec<Arc<RTree>> = (0..2)
        .map(|i| {
            let pts = uniform_points(points, &region, seed + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, &[0, 0])
}

fn main() {
    let points = env_usize("TNN_DUMP_POINTS", 1_500).max(32);
    let queries = env_usize("TNN_DUMP_QUERIES", 120).max(8);
    let region = paper_region();
    let qpoints = uniform_points(queries, &region, 0xD0_0D);
    let registry = MetricsRegistry::new();

    // A traced, caching server under a light fault plan: exercises the
    // serve, cache, fault, and trace metric families in one pass. The
    // repeat-heavy workload (every point offered twice) guarantees
    // cache traffic.
    let server = Server::spawn_with_faults(
        build_env(points, 0xA11CE),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(2 * queries)
            .backpressure(Backpressure::Block)
            .cache(CacheConfig::new().capacity(queries))
            .batch_window(8)
            .retry(RetryPolicy::new().max_attempts(4))
            .trace(TraceConfig::on()),
        FaultPlan::new(0xD0_5E).all_channels(2, ChannelFaults::NONE.drop_rate(60).jitter(1)),
    );
    let workload: Vec<Query> = qpoints
        .iter()
        .chain(qpoints.iter())
        .map(|&p| Query::tnn(p).algorithm(Algorithm::HybridNn))
        .collect();
    for ticket in server.submit_batch(workload) {
        ticket
            .expect("Block admits everything")
            .wait()
            .expect("dump queries are valid");
    }
    // Shutdown first: workers book counters in micro-batches after
    // resolving tickets, so the pre-shutdown fold can lag the truth.
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "dump server lost tickets: {stats:?}");
    server.publish_metrics(&registry);

    // A traced shard router over its own environment: adds the
    // tnn_shard_* family (the router's serve fold lands in the same
    // tnn_serve_* series — published last, it overwrites the
    // single-server values above with the fleet fold; run the dump
    // twice with one layer disabled to separate them).
    let router = ShardRouter::spawn(
        build_env(points, 0xB0B),
        ShardConfig::new()
            .shards(4)
            .serve(ServeConfig::new().workers(1).trace(TraceConfig::on())),
    );
    for &p in &qpoints {
        router
            .run(&Query::tnn(p).algorithm(Algorithm::HybridNn))
            .expect("dump queries are valid");
    }
    let shard_stats = router.shutdown(ShutdownMode::Drain);
    assert!(
        shard_stats.conserved(),
        "dump router lost tickets: {shard_stats:?}"
    );
    router.publish_metrics(&registry);

    let text = registry.render_prometheus();
    // The one-line smoke contract CI leans on: every layer's family
    // must be present in a single snapshot, latency histograms included.
    // Series names themselves live only in their stats declarations.
    for layer in ["serve", "cache", "faults", "shard", "trace"] {
        let header = format!("# TYPE tnn_{layer}_");
        assert!(
            text.contains(&header),
            "missing tnn_{layer}_* family:\n{text}"
        );
    }
    assert!(text.contains("_bucket{"), "no histogram rendered:\n{text}");
    print!("{text}");
    eprintln!(
        "metrics_dump: {} series over {} queries x 2 layers",
        registry.len(),
        queries
    );
}
