//! # tnn-qos
//!
//! Quality-of-service primitives for the TNN serving layer — the pieces
//! that turn a worker pool into a traffic-shaping front end:
//!
//! * [`Priority`] — three strict service classes (`Interactive` >
//!   `Batch` > `Background`);
//! * [`Deadline`] — an optional per-request expiry instant, built from a
//!   TTL ([`Deadline::within`]) or an absolute [`std::time::Instant`];
//! * [`Qos`] — the per-submission bundle of both;
//! * [`RetryPolicy`] — capped exponential backoff with deterministic
//!   jitter, bounded by a total attempt count;
//! * [`MultiLevelQueue`] — a strict-priority submission queue with
//!   per-class bounds and deadline-aware victim selection
//!   (shedding evicts already-dead work before sacrificing anything
//!   still viable);
//! * [`ResultCache`] — a sharded, lock-striped, O(1) LRU result cache
//!   with hit/miss/eviction accounting; an entry lives until eviction,
//!   so callers put the version of their data into the key.
//!
//! The crate is deliberately **dependency-free and generic**: the queue
//! holds any item type and the cache any `Hash + Eq` key, so the
//! primitives sit below `tnn-serve` (which instantiates them with its
//! job type and `tnn_core::QueryKey`) without touching the query types.
//! The design follows the admission-policy lesson of the multi-access
//! serving literature: once a shared channel saturates, *what you
//! refuse* — not raw throughput — dominates tail behaviour.

#![warn(missing_docs)]

mod cache;
mod deadline;
mod priority;
mod queue;
mod retry;
mod spec;

pub use cache::{CacheConfig, CacheStats, ResultCache};
pub use deadline::Deadline;
pub use priority::Priority;
pub use queue::MultiLevelQueue;
pub use retry::RetryPolicy;
pub use spec::Qos;
