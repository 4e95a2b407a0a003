//! # tnn-core
//!
//! Transitive nearest-neighbor (TNN) query processing over multi-channel
//! wireless broadcast — the primary contribution of *Zhang, Lee, Mitra,
//! Zheng: Processing Transitive Nearest-Neighbor Queries in Multi-Channel
//! Access Environments* (EDBT 2008).
//!
//! Given a query point `p` and two datasets `S`, `R` broadcast on two
//! channels, a TNN query returns the pair `(s, r) ∈ S × R` minimizing the
//! transitive distance `dis(p, s) + dis(s, r)`. This crate generalizes
//! the whole pipeline to `k ≥ 2` channels: the same four algorithms find
//! the minimum-length route `p → s₁ → … → s_k` with one stop per
//! channel, and `k = 2` reproduces the paper bit-for-bit.
//!
//! ## Algorithms ([`Algorithm`])
//!
//! All follow the estimate–filter paradigm (§3.1): estimate a search
//! radius `d` from a *feasible* pair so that `circle(p, d)` provably
//! contains the answer (Theorem 1), then filter with window queries on
//! both channels and a local join.
//!
//! * [`Algorithm::WindowBased`] — the single-channel baseline \[19\],
//!   adapted: NN of `p` in `S`, then NN of `s` in `R` (sequential),
//!   parallel filter.
//! * [`Algorithm::ApproximateTnn`] — baseline \[19\]: radius from the
//!   uniform-density estimate (eq. 1); no index search in the estimate
//!   phase, but the answer is **not guaranteed** (fails on skewed data,
//!   Table 3).
//! * [`Algorithm::DoubleNn`] — new (§4.1): both NN searches run from `p`
//!   **in parallel**; `d = dis(p, s) + dis(s, r)`.
//! * [`Algorithm::HybridNn`] — new (§4.2): starts like Double-NN; when
//!   one channel finishes first the other search is *re-targeted* —
//!   either the query point switches to `s` (case 2) or the metric
//!   switches to the transitive bounds `MinTransDist` /
//!   `MinMaxTransDist` (case 3) — to shrink the search range.
//!
//! ## ANN optimization (§5, [`AnnMode`])
//!
//! The estimate-phase searches can trade exactness for energy with
//! probabilistic pruning: a node is pruned when the overlap between its
//! MBR and the current search region (circle, or transitive-distance
//! ellipse) is at most an `α` fraction of the MBR area, with `α` scaled
//! dynamically by node depth (eq. 4). The final TNN answer is *never*
//! affected — only the filter radius grows (Theorem 1).
//!
//! ## Extensions (the paper's future-work list, §7)
//!
//! * item 1, `k ≥ 2` datasets on `k` channels visited in category
//!   order, is plain [`Query::tnn`] over a `k`-channel environment (any
//!   algorithm; the chained workloads use [`Algorithm::DoubleNn`]);
//! * [`Query::order_free`] — item 2: the visiting order is not specified
//!   (the shortest route over every visit order);
//! * [`Query::round_trip`] — item 3: a complete tour returning to the
//!   source (`dis(p,s₁) + Σ dis(sᵢ,sᵢ₊₁) + dis(s_k,p)`).
//!
//! ## The unified API ([`QueryEngine`])
//!
//! All query kinds run through one engine: build a [`QueryEngine`] over a
//! cheaply shareable [`tnn_broadcast::MultiChannelEnv`], describe the
//! request with the builder-style [`Query`] type (`Query::tnn(p)
//! .algorithm(..).ann_modes(..).phases(..)`), and get a unified
//! [`QueryOutcome`] with per-hop channel costs back. The pre-engine free
//! functions (`run_query`, `chain_tnn`, `order_free_tnn`,
//! `round_trip_tnn`) were deprecated in 0.2.0 and are gone; see
//! `docs/API.md` at the repository root for the migration guide.

#![warn(missing_docs)]

mod ann;
mod config;
mod engine;
mod error;
mod exact;
mod join;
mod key;
mod merge;
mod mode;
mod result;

pub mod algorithms;
pub mod task;

pub use ann::{dynamic_alpha, AnnMode};
pub use config::{Algorithm, AnnSpec};
pub use engine::{Query, QueryEngine, QueryKind, QueryOutcome, RouteStop};
pub use error::TnnError;
pub use exact::{exact_chain_tnn, exact_tnn};
pub use key::QueryKey;
pub use merge::{merge_route_layers, pad_radius, MergedRoute, RouteObjective};
pub use mode::SearchMode;
pub use result::{ChannelCost, TnnPair};

pub use algorithms::{approximate_radius, approximate_radius_for_env, QueryScratch};
pub use join::JoinScratch;
