//! The per-query span/event model: [`QueryTrace`], [`SpanKind`], and
//! the [`TraceConfig`] switch that keeps all of it zero-cost when off.
//!
//! A trace is *assembled by the layer that owns the clock*: this crate
//! never reads a time source itself — every duration is handed in by
//! callers that are already on the workspace's approved timing paths
//! (the serve worker loop, ticket resolution, the sim/bench binaries).
//! That keeps rule R1 (no wall clocks outside the modules that
//! `#[expect]` clippy's `disallowed_methods`) satisfied with tracing
//! compiled in everywhere.

use std::time::Duration;

/// The phase a [`Span`] measures, across every serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Admission-control work in `submit` before the job is enqueued
    /// (deadline check, cache probe, backpressure).
    AdmissionWait,
    /// The worker's dequeue-time result-cache probe alone. The
    /// admission-time probe falls inside [`SpanKind::AdmissionWait`], and
    /// a query answered by that probe is not traced at all.
    CacheProbe,
    /// Time spent queued between enqueue and a worker picking the job.
    QueueResidency,
    /// The engine run itself (all attempts' compute, excluding backoff).
    EngineRun,
    /// Backoff sleeps between retry attempts on faulted channels.
    RetryBackoff,
    /// Shard fan-out: submitting the query to every relevant shard.
    ShardScatter,
    /// Shard fan-in: waiting for the slowest sub-query ticket.
    ShardGather,
    /// Merging per-shard candidate answers into the final route.
    ShardMerge,
}

impl SpanKind {
    /// Stable lowercase name, used by exporters and dump tools.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::AdmissionWait => "admission_wait",
            SpanKind::CacheProbe => "cache_probe",
            SpanKind::QueueResidency => "queue_residency",
            SpanKind::EngineRun => "engine_run",
            SpanKind::RetryBackoff => "retry_backoff",
            SpanKind::ShardScatter => "shard_scatter",
            SpanKind::ShardGather => "shard_gather",
            SpanKind::ShardMerge => "shard_merge",
        }
    }
}

/// One stamped phase of a query's life: what happened and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which phase this span measures.
    pub kind: SpanKind,
    /// Wall time spent in the phase, stamped by the owning layer.
    pub duration: Duration,
}

/// The full observable record of one query: stamped phase spans plus
/// the engine's paper-native cost counters.
///
/// The counters mirror the paper's evaluation metrics — tune-in time
/// (pages downloaded ≙ node visits), the delayed-pruning parked-entry
/// count, and the client-memory peak (§4.2.4) — so a slow query can
/// be explained in the paper's own vocabulary, not just wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// The server-assigned admission sequence number (unique per
    /// server), linking the trace back to its ticket.
    pub seq: u64,
    /// Stamped phases in the order they were recorded.
    pub spans: Vec<Span>,
    /// Attempts consumed: 1 for a clean run, more under retry, 0 when
    /// the deadline passed before the first.
    pub attempts: u32,
    /// `true` when the query resolved to an error.
    pub errored: bool,
    /// Pages downloaded ≙ R-tree nodes visited (estimate + filter).
    pub node_visits: u64,
    /// Delayed-pruning hits: entries parked instead of expanded (§4.2.4).
    pub prune_hits: u64,
    /// Peak queued + parked entries over all hops
    /// (`tnn_core::QueryOutcome::peak_queue`; the parked list puts it
    /// above the paper's `(H−1)(M−1)` queue bound).
    pub peak_queue: u64,
    /// Tune-in slots: total pages downloaded across channels.
    pub tune_in: u64,
    /// End-to-end latency as measured by the ticket resolver.
    pub total: Duration,
}

impl QueryTrace {
    /// A fresh trace for admission sequence number `seq`.
    pub fn new(seq: u64) -> Self {
        QueryTrace {
            seq,
            ..QueryTrace::default()
        }
    }

    /// Appends a stamped span.
    pub fn span(&mut self, kind: SpanKind, duration: Duration) {
        self.spans.push(Span { kind, duration });
    }

    /// Total duration across all spans of `kind` (a query may retry, so
    /// kinds can repeat).
    pub fn duration_of(&self, kind: SpanKind) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.duration)
            .sum()
    }

    /// Sum of every span — should reconcile with [`Self::total`] up to
    /// the measurement seams between layers.
    pub fn span_sum(&self) -> Duration {
        self.spans.iter().map(|s| s.duration).sum()
    }

    /// `true` when the flight recorder must keep this trace regardless
    /// of speed: the query resolved to an error, or it needed more than
    /// one attempt (a retry that then answered is the one fault signal
    /// an `Ok` answer carries).
    pub fn flagged(&self) -> bool {
        self.errored || self.attempts > 1
    }
}

/// Whether (and how) a server traces queries. `Off` is the default and
/// is *byte-transparent*: outcomes and stats are identical with tracing
/// on or off (gated by `crates/bench/tests/trace_equivalence.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceConfig {
    /// No spans, no recorder: the serving hot path takes no stamps.
    #[default]
    Off,
    /// Trace every query and retain the interesting ones.
    On(RecorderConfig),
}

impl TraceConfig {
    /// Tracing with the default [`RecorderConfig`] retention.
    pub fn on() -> Self {
        TraceConfig::On(RecorderConfig::default())
    }

    /// `true` when queries are being traced.
    pub fn is_on(&self) -> bool {
        matches!(self, TraceConfig::On(_))
    }

    /// The recorder retention policy, when tracing is on.
    pub fn recorder(&self) -> Option<RecorderConfig> {
        match self {
            TraceConfig::Off => None,
            TraceConfig::On(cfg) => Some(*cfg),
        }
    }
}

/// Retention policy for the [`crate::FlightRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Keep the N slowest traces (by [`QueryTrace::total`]), total
    /// across all stripes.
    pub slowest: usize,
    /// Ring capacity for errored or retried traces, total across all
    /// stripes; the oldest flagged trace is evicted when full.
    pub flagged: usize,
    /// Lock stripes; recording contends only within `seq % stripes`.
    pub stripes: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            slowest: 32,
            flagged: 128,
            stripes: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_sum_and_per_kind_durations_add_up() {
        let mut t = QueryTrace::new(7);
        t.span(SpanKind::AdmissionWait, Duration::from_micros(5));
        t.span(SpanKind::QueueResidency, Duration::from_micros(40));
        t.span(SpanKind::EngineRun, Duration::from_micros(100));
        t.span(SpanKind::RetryBackoff, Duration::from_micros(30));
        t.span(SpanKind::EngineRun, Duration::from_micros(90));
        assert_eq!(t.seq, 7);
        assert_eq!(t.span_sum(), Duration::from_micros(265));
        assert_eq!(
            t.duration_of(SpanKind::EngineRun),
            Duration::from_micros(190)
        );
        assert_eq!(t.duration_of(SpanKind::ShardMerge), Duration::ZERO);
        assert!(!t.flagged());
    }

    #[test]
    fn errored_or_retried_traces_are_flagged() {
        let mut t = QueryTrace::new(1);
        t.attempts = 1;
        assert!(!t.flagged(), "one clean attempt");
        t.attempts = 2;
        assert!(t.flagged(), "answered after a retry");
        t.attempts = 1;
        t.errored = true;
        assert!(t.flagged(), "resolved to an error");
        // An exhausted ladder is both.
        t.attempts = 4;
        assert!(t.flagged());
    }

    #[test]
    fn trace_config_defaults_off_and_exposes_recorder() {
        assert_eq!(TraceConfig::default(), TraceConfig::Off);
        assert!(!TraceConfig::Off.is_on());
        assert_eq!(TraceConfig::Off.recorder(), None);
        let on = TraceConfig::on();
        assert!(on.is_on());
        assert_eq!(on.recorder(), Some(RecorderConfig::default()));
        let custom = TraceConfig::On(RecorderConfig {
            slowest: 4,
            flagged: 2,
            stripes: 1,
        });
        assert_eq!(custom.recorder().unwrap().slowest, 4);
    }

    #[test]
    fn span_kind_names_are_stable_and_distinct() {
        let kinds = [
            SpanKind::AdmissionWait,
            SpanKind::CacheProbe,
            SpanKind::QueueResidency,
            SpanKind::EngineRun,
            SpanKind::RetryBackoff,
            SpanKind::ShardScatter,
            SpanKind::ShardGather,
            SpanKind::ShardMerge,
        ];
        let names: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
        assert!(names.contains("engine_run"));
    }
}
