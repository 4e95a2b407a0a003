//! # tnn-trace
//!
//! Cross-layer observability for the broadcast-TNN serving stack: the
//! answer to "why was *this* query slow?" in the paper's own cost
//! vocabulary.
//!
//! Five pieces, all std-only and dependency-free so every layer
//! (serve, qos, faults, shard, sim) can record into them without new
//! edges in the crate graph:
//!
//! * **Span/event model** — [`QueryTrace`] records stamped phases
//!   ([`SpanKind`]: admission wait, cache probe, queue residency,
//!   engine run, retry backoff, shard scatter/gather/merge) plus the engine's paper-native counters (node visits ≙
//!   tune-in pages, delayed-pruning hits, the peak queued + parked
//!   entry count) threaded through `tnn_core::QueryOutcome`.
//! * **Metrics registry** — [`MetricsRegistry`] holds named counters,
//!   gauges, and [`LatencyHistogram`]s and renders the Prometheus text
//!   exposition format via [`MetricsRegistry::render_prometheus`];
//!   layers publish snapshots of their stats structs, so hot paths are
//!   never rewired through the registry.
//! * **Stats declarations** — [`stats!`] declares a stats family once
//!   (field, doc, series name, HELP text) and generates its `merge`,
//!   `fold` and `publish_series`; the metric kind follows the field
//!   type through [`Metric`].
//! * **Flight recorder** — [`FlightRecorder`] retains the N slowest
//!   and all errored or retried traces in bounded, lock-striped
//!   pools, queryable from `tnn_serve::Server` / `tnn_shard::ShardRouter`
//!   and reconciled against measured latency by the live-stack test in
//!   `crates/bench/tests/metrics_golden.rs`.
//! * **Ranked locks** — [`lock::OrderedMutex`] and
//!   [`lock::OrderedRwLock`] are the workspace's only locks; each takes
//!   a [`lock::LockRank`], the one declaration of the lock hierarchy,
//!   and debug builds panic on an out-of-order acquisition.
//!
//! ## Determinism and zero cost when off
//!
//! This crate never reads a clock: every [`std::time::Duration`] is
//! stamped by a caller on an approved timing path, so it needs no
//! exemption from the `clippy.toml` wall-clock ban (R1). With
//! `TraceConfig::Off` (the default) the serving layers take no stamps
//! and record nothing, and the byte-transparency gate
//! `crates/bench/tests/trace_equivalence.rs` holds traced ≡ untraced
//! for outcomes and stats counters. See `docs/OBSERVABILITY.md`.

#![warn(missing_docs)]

mod histogram;
pub mod lock;
mod recorder;
mod registry;
mod span;
mod stats;

pub use histogram::LatencyHistogram;
pub use recorder::FlightRecorder;
pub use registry::MetricsRegistry;
pub use span::{QueryTrace, RecorderConfig, Span, SpanKind, TraceConfig};
pub use stats::{Merge, Metric};
