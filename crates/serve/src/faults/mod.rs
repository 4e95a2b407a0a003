//! Deterministic, seedable fault injection for the broadcast-TNN stack.
//!
//! The paper's setting is wireless multi-channel broadcast, where a
//! client either tunes in to a channel's index or fails to: it misses a
//! packet, or finds the channel dark. This module models those failures
//! — plus server-side ones (engine panics, worker deaths) — as an
//! explicit, reproducible schedule that the serving layer consults,
//! instead of assuming every read succeeds and every thread lives
//! forever:
//!
//! * [`FaultPlan`] — a seedable schedule: per-channel drop rates and
//!   periodic outages ([`ChannelFaults`]), and engine-panic and
//!   worker-kill injection keyed by job sequence number.
//! * [`FaultPlan::check_tune_in`] / [`FaultStats`] — the tune-in round
//!   the server runs per execution attempt, and the exact counts of
//!   every injected fault, which the server books under its state lock
//!   when it decides the fault. A failed tune-in surfaces as the
//!   recoverable [`tnn_core::TnnError::ChannelUnavailable`] and enters
//!   the server's retry ladder.
//!
//! **Everything is a pure function of `(seed, job sequence, channel,
//! attempt)`** — never of wall-clock time or thread scheduling — so one
//! `(seed, plan)` pair produces bit-identical [`FaultStats`] across
//! worker counts and runs (gated by
//! `crates/bench/tests/fault_equivalence.rs`; worker-kill injection is
//! the one exception, since a killed worker abandons whatever else rode
//! in its micro-batch). A zero plan ([`FaultPlan::none`]) injects
//! nothing: its answers are byte-identical to a server spawned without
//! a plan.

mod plan;
mod stats;

pub use plan::{ChannelFaults, FaultPlan, TuneIn};
pub use stats::FaultStats;
