//! Deterministic, seedable fault injection for the broadcast-TNN stack.
//!
//! The paper's setting is wireless multi-channel broadcast, where clients
//! routinely miss packets, lose a channel mid-cycle, or tune in to stale
//! index segments. This module models those failures — plus server-side
//! ones (engine panics, worker deaths) — as an explicit, reproducible
//! schedule that the serving layer consults, instead of assuming every
//! read succeeds and every thread lives forever:
//!
//! * [`FaultPlan`] — a seedable schedule: per-channel drop rates, arrival
//!   jitter, and periodic outages ([`ChannelFaults`]), engine-panic and
//!   worker-kill injection keyed by job sequence number, budget-capped
//!   ([`FaultPlan::fault_horizon`], [`FaultPlan::max_faults_per_query`]).
//! * [`FaultyChannelView`] — a wrapper over
//!   [`tnn_broadcast::ChannelView`] that surfaces injected tune-in
//!   failures as the recoverable
//!   [`tnn_core::TnnError::ChannelUnavailable`] instead of silently
//!   succeeding.
//! * [`FaultInjector`] / [`FaultStats`] — the shared decision point the
//!   server probes per execution attempt, with exact counts of every
//!   injected fault.
//!
//! **Everything is a pure function of `(seed, job sequence, channel,
//! attempt)`** — never of wall-clock time or thread scheduling — so one
//! `(seed, plan)` pair produces bit-identical [`FaultStats`] across
//! worker counts and runs (gated by
//! `crates/bench/tests/fault_equivalence.rs`; worker-kill injection is
//! the one exception, since a killed worker abandons whatever else rode
//! in its micro-batch). A zero plan ([`FaultPlan::none`]) injects
//! nothing and leaves the pipeline byte-identical to an un-wrapped run.

mod plan;
mod stats;
mod view;

pub use plan::{ChannelFaults, FaultPlan, TuneIn};
pub use stats::{FaultInjector, FaultStats};
pub use view::FaultyChannelView;
