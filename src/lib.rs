//! # tnn — transitive nearest-neighbor queries over multi-channel wireless broadcast
//!
//! A from-scratch Rust reproduction of *Zhang, Lee, Mitra, Zheng:
//! Processing Transitive Nearest-Neighbor Queries in Multi-Channel Access
//! Environments* (EDBT 2008), packaged as one facade crate.
//!
//! Given a query point `p` and two datasets `S`, `R` broadcast cyclically
//! on two wireless channels, a **TNN query** returns the pair
//! `(s, r) ∈ S × R` minimizing `dis(p, s) + dis(s, r)` — e.g. the post
//! office and the restaurant with the smallest total detour.
//!
//! All queries go through one [`QueryEngine`](prelude::QueryEngine) over
//! a shared multi-channel environment; requests are described with the
//! builder-style [`Query`](prelude::Query) type and return a unified
//! [`QueryOutcome`](prelude::QueryOutcome):
//!
//! ```
//! use std::sync::Arc;
//! use tnn::prelude::*;
//!
//! // Two small datasets, broadcast on two channels.
//! let params = BroadcastParams::new(64);
//! let post_offices: Vec<Point> =
//!     (0..60).map(|i| Point::new((i * 97 % 391) as f64, (i * 61 % 401) as f64)).collect();
//! let restaurants: Vec<Point> =
//!     (0..80).map(|i| Point::new((i * 53 % 379) as f64, (i * 89 % 397) as f64)).collect();
//! let s = Arc::new(RTree::build(&post_offices, params.rtree_params(), PackingAlgorithm::Str)?);
//! let r = Arc::new(RTree::build(&restaurants, params.rtree_params(), PackingAlgorithm::Str)?);
//! let env = MultiChannelEnv::new(vec![s, r], params, &[17, 42]);
//!
//! // A mobile client runs Hybrid-NN over the air.
//! let engine = QueryEngine::new(env);
//! let outcome = engine.run(
//!     &Query::tnn(Point::new(200.0, 200.0)).algorithm(Algorithm::HybridNn),
//! )?;
//! println!("total distance {:.1}, access {} slots, tune-in {} pages",
//!          outcome.total_dist.expect("exact algorithms always answer"),
//!          outcome.access_time(), outcome.tune_in());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every query kind runs over any `k ≥ 2`-channel environment: the four
//! TNN algorithms generalize to `k`-hop routes `p → s₁ → … → s_k` (the
//! paper's chained future-work item is plain `Query::tnn` over `k`
//! channels), as do order-free TNN
//! (`Query::order_free`, any visit order) and round-trip TNN
//! (`Query::round_trip`, closed tour). Per-query knobs ride the builder:
//! `.ann_modes(..)` for per-channel approximate-search pruning and
//! `.phases(..)` for zero-clone per-query phase randomization. The
//! pre-engine free functions (`run_query`, `chain_tnn`, …) were
//! deprecated in 0.2.0 and are gone; see `docs/API.md` for the
//! migration guide.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`geom`] (`tnn-geom`) | points, MBRs, the transitive metrics `MinTransDist` / `MinMaxTransDist`, exact circle/ellipse–rectangle overlap areas |
//! | [`rtree`] (`tnn-rtree`) | packed R-tree (STR / Hilbert / Nearest-X), in-memory queries |
//! | [`broadcast`] (`tnn-broadcast`) | `(1, m)` air-indexed broadcast programs, channels, `Arc`-shared environments, zero-clone phase overlays |
//! | [`core`] (`tnn-core`) | the `QueryEngine`, the four TNN algorithms, ANN optimization, chained-TNN extension, exact oracle |
//! | [`datasets`] (`tnn-datasets`) | the paper's synthetic workloads and clustered real-data stand-ins |
//! | [`qos`] (`tnn-qos`) | quality-of-service primitives: priority classes, deadlines, retry policies, the strict-priority multi-level queue, the sharded LRU result cache |
//! | [`faults`] (`tnn-serve`) | deterministic fault injection: seedable per-channel drop/outage schedules, engine panics, worker kills |
//! | [`serve`] (`tnn-serve`) | the concurrent serving front-end: worker pool, priority lanes with deadlines and backpressure, result cache, tickets, a fail-closed retry ladder, self-healing workers, graceful shutdown |
//! | [`shard`] (`tnn-shard`) | spatially-sharded scatter-gather serving: grid partitioning, one server per shard, transitive-bound shard pruning, byte-identical merged answers |
//! | [`trace`] (`tnn-trace`) | std-only observability: per-query span traces, the metrics registry with Prometheus text export, log₂ latency histograms, the slow-query flight recorder |
//! | [`sim`] (`tnn-sim`) | the experiment harness regenerating every figure/table of the paper |

#![warn(missing_docs)]

pub use tnn_broadcast as broadcast;
pub use tnn_core as core;
pub use tnn_datasets as datasets;
pub use tnn_geom as geom;
pub use tnn_qos as qos;
pub use tnn_rtree as rtree;
pub use tnn_serve as serve;
pub use tnn_serve::faults;
pub use tnn_shard as shard;
pub use tnn_sim as sim;
pub use tnn_trace as trace;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use tnn_broadcast::{
        BroadcastParams, Channel, ChannelView, MultiChannelEnv, PhaseOverlay, Tuner,
    };
    pub use tnn_core::{
        exact_chain_tnn, exact_tnn, Algorithm, AnnMode, Query, QueryEngine, QueryKey, QueryKind,
        QueryOutcome, RouteStop, TnnError, TnnPair,
    };
    pub use tnn_geom::{transitive_dist, Circle, Ellipse, Point, Rect};
    pub use tnn_qos::{CacheConfig, Deadline, Priority, Qos, RetryPolicy};
    pub use tnn_rtree::{PackingAlgorithm, RTree, RTreeParams};
    pub use tnn_serve::{
        Backpressure, ChannelFaults, ClassStats, FaultPlan, FaultStats, ServeConfig, ServeStats,
        Server, ShutdownMode, Ticket, TuneIn,
    };
    pub use tnn_shard::{ShardConfig, ShardOutcome, ShardPlan, ShardRouter, ShardStats};
    pub use tnn_trace::{
        FlightRecorder, LatencyHistogram, MetricsRegistry, QueryTrace, RecorderConfig, Span,
        SpanKind, TraceConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_round_trip() {
        let params = BroadcastParams::new(64);
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 7 % 53) as f64, (i * 11 % 59) as f64))
            .collect();
        let s = Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let r = Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let env = MultiChannelEnv::new(vec![s, r], params, &[0, 0]);
        let engine = QueryEngine::new(env);
        let outcome = engine
            .run(&Query::tnn(Point::new(25.0, 25.0)).algorithm(Algorithm::DoubleNn))
            .unwrap();
        assert!(!outcome.failed());
        assert_eq!(outcome.route.len(), 2);
    }
}
