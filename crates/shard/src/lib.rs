//! # tnn-shard
//!
//! Spatially-sharded scatter-gather serving for transitive
//! nearest-neighbor queries.
//!
//! One [`tnn_serve::Server`] scales by workers; this crate scales by
//! *data*: [`ShardPlan`] splits every channel's dataset by a uniform
//! grid of spatial shards, and [`ShardRouter`] runs one server per shard
//! and answers each query by **scatter → prune → gather → merge**:
//!
//! 1. **Scatter** the query to shard-local servers. Each eligible shard
//!    (one holding objects of every channel) answers over its own slice;
//!    any shard-local route is globally feasible, so the best sub-total
//!    is a valid transitive bound `B` on the true optimum. Shards whose
//!    MBR lies entirely beyond the current bound are pruned before they
//!    are ever contacted ([`tnn_geom::Rect::min_dist_sq`], the same
//!    arithmetic the in-tree search prunes with).
//! 2. **Gather** every candidate within the `B`-circle around the query
//!    point from every shard sub-tree — Theorem 1 of the paper, applied
//!    at the cluster level, guarantees the circle contains every stop of
//!    the optimal route.
//! 3. **Merge** the per-channel layers through
//!    [`tnn_core::merge_route_layers`] — the *same* k-layer chain join
//!    every unsharded pipeline ends in — so the final route and total
//!    are **byte-identical** to an unsharded
//!    [`tnn_core::QueryEngine::run`] (gated across shard counts, all
//!    four algorithms, and every query kind in
//!    `crates/bench/tests/shard_equivalence.rs`).
//!
//! Like the rest of the workspace this crate is dependency-free:
//! `std::thread` workers under the shard servers, ranked `std::sync`
//! locks around the topology, no async runtime.

#![warn(missing_docs)]

mod config;
mod partition;
mod router;
mod stats;

pub use config::ShardConfig;
pub use partition::ShardPlan;
pub use router::{ShardOutcome, ShardRouter};
pub use stats::ShardStats;
