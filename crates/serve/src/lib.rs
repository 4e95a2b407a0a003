//! # tnn-serve
//!
//! A concurrent, QoS-aware query-serving front-end over the
//! [`tnn_core::QueryEngine`] — the executor-facing surface of the
//! broadcast-TNN reproduction: request queueing with priority classes
//! and deadlines, backpressure, a sharded result cache, and
//! micro-batching over the `Sync`, O(1)-clonable engine the core crates
//! provide.
//!
//! Deliberately dependency-free: built on `std::thread`, `Condvar`,
//! the ranked std locks of `tnn_trace::lock`, and the equally std-only
//! QoS primitives of [`tnn_qos`], so it runs in the same offline
//! environment as the rest of the workspace (no async runtime required
//! — the engine's per-query latency is microseconds, so OS threads with
//! a bounded queue are the right tool).
//!
//! ## Shape
//!
//! * [`Server::spawn`] starts `N` worker threads over one shared
//!   environment; each worker owns an O(1)-cloned engine handle and one
//!   recycled [`tnn_core::QueryScratch`], so the per-query hot path is
//!   the same zero-alloc [`tnn_core::QueryEngine::run_with`] path the
//!   batch runners use.
//! * [`Server::submit_with`] admits a [`tnn_core::Query`] under
//!   explicit [`Qos`] terms — a [`Priority`] class ([`Priority::Interactive`]
//!   `>` [`Priority::Batch`] `>` [`Priority::Background`], strictly
//!   drained most-urgent-first with per-class lane bounds) and an
//!   optional [`Deadline`] (enforced at admission, at shed-victim
//!   selection, and at dequeue; missed deadlines resolve
//!   [`tnn_core::TnnError::DeadlineExceeded`]). [`Server::submit`] is
//!   the QoS-oblivious shorthand (batch class, no deadline).
//! * A **sharded LRU result cache** keyed on [`tnn_core::QueryKey`]
//!   answers repeated queries — probed at admission (a hit resolves the
//!   ticket inside `submit`, touching no worker) and again at dequeue
//!   (duplicates queued behind their first occurrence skip the engine)
//!   — with bytes identical to a fresh engine run, because the engine
//!   is deterministic in exactly the keyed fields. An entry lives until
//!   LRU eviction: the key carries the environment's epoch and
//!   fingerprint, so an entry written before [`Server::swap_env`]
//!   misses after it.
//! * Full lanes apply an explicit [`Backpressure`] policy —
//!   [`Backpressure::Block`] the caller, [`Backpressure::Reject`] with
//!   [`tnn_core::TnnError::Overloaded`], or [`Backpressure::Shed`]
//!   queued work, evicting *expired* queries before sacrificing viable
//!   ones.
//! * [`Ticket::poll`] / [`Ticket::wait`] read the outcome; both are
//!   idempotent (wait twice, poll after wait — always the same cached
//!   outcome, never a hang). [`Ticket::latency`] reports exact
//!   submission-to-resolution wall time, stamped by the resolver.
//! * [`Server::shutdown`] drains or cancels deterministically: when it
//!   returns, every admitted ticket has resolved.
//! * [`Server::spawn_with_faults`] runs the same pool under a
//!   deterministic [`FaultPlan`]: injected tune-in failures enter a
//!   deadline-aware retry ladder ([`RetryPolicy`]) that fails closed —
//!   a ladder that spends [`RetryPolicy::max_attempts`] resolves
//!   [`tnn_core::TnnError::ChannelUnavailable`], and errors are never
//!   cached — injected engine panics resolve
//!   [`tnn_core::TnnError::Internal`] behind the per-job panic boundary
//!   that every server, faulted or not, runs its engine calls behind,
//!   and killed workers respawn in place (at most 32 restarts pool-wide;
//!   the 33rd fails the server closed). See `docs/ROBUSTNESS.md`.
//!
//! ## Guarantees
//!
//! Concurrency, priorities, and caching may reorder or short-circuit
//! *completion*, never *answers*: every outcome delivered through a
//! ticket is byte-identical to a direct [`tnn_core::QueryEngine::run`]
//! of the same query. The property gates live in
//! `crates/bench/tests/serve_equivalence.rs` (scheduling) and
//! `crates/bench/tests/qos_equivalence.rs` (cache hits, within-class
//! FIFO order); the in-crate `server::tests` pin strict priority and
//! within-class FIFO order for everything queued before the first pop.
//! The ticket-conservation invariant ([`ServeStats::conserved`] — per
//! class, with every completion classified by exactly one cache
//! outcome) holds on every snapshot.
//! Its deterministic checks are `crates/bench/tests/stats_conservation.rs`
//! and `crates/serve/tests/server.rs::block_wait_keeps_every_snapshot_conserved`,
//! which covers the window (a submitter waiting under
//! [`Backpressure::Block`]) that the soaks of
//! `crates/bench/tests/serve_stress.rs` rarely reach.

#![warn(missing_docs)]

mod config;
pub mod faults;
mod server;
mod ticket;

pub use config::{Backpressure, ServeConfig, ShutdownMode};
pub use server::{ClassStats, ServeStats, Server};
pub use ticket::Ticket;

// The observability vocabulary ([`ServeConfig::trace`],
// [`Server::recorder`], [`Server::publish_metrics`]), re-exported so
// serving code speaks tracing without naming `tnn_trace` directly.
// `LatencyHistogram` moved to `tnn-trace` (it is the registry's
// histogram value type); this re-export keeps the original
// `tnn_serve::LatencyHistogram` path working.
pub use tnn_trace::{
    FlightRecorder, LatencyHistogram, MetricsRegistry, QueryTrace, RecorderConfig, Span, SpanKind,
    TraceConfig,
};

// The QoS vocabulary callers need to speak the submission API, re-
// exported so `tnn_serve` alone suffices for everyday serving code.
pub use tnn_qos::{CacheConfig, CacheStats, Deadline, Priority, Qos, RetryPolicy};

// The fault vocabulary for chaos-mode servers ([`Server::spawn_with_faults`]).
pub use faults::{ChannelFaults, FaultPlan, FaultStats, TuneIn};
