//! Server tuning knobs: [`ServeConfig`], [`Backpressure`],
//! [`ShutdownMode`], and [`Degradation`].

use tnn_qos::{CacheConfig, Priority, RetryPolicy, ShedDiscipline};
use tnn_trace::TraceConfig;

/// What [`crate::Server::submit`] does when the submission lane of the
/// query's priority class is at capacity.
///
/// The trade-off mirrors the admission/contention choices of the
/// multi-access serving literature: `Block` pushes the queueing delay
/// back into the client (closed-loop behaviour), `Reject` keeps the
/// client non-blocking and makes overload explicit, and `Shed` favours
/// fresh queries over stale ones when answers lose value with age.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitting thread until a worker frees a slot in the
    /// class's lane (or the server shuts down, or the query's own
    /// deadline passes). Submission never fails with
    /// [`tnn_core::TnnError::Overloaded`].
    Block,
    /// Refuse the new query immediately: `submit` returns
    /// [`tnn_core::TnnError::Overloaded`] and nothing is enqueued.
    Reject,
    /// Admit the new query by evicting a still-queued one from the same
    /// class. Which one is governed by [`ServeConfig::shed`]: under the
    /// default [`ShedDiscipline::ExpiredFirst`] the oldest *expired*
    /// query goes first (its ticket resolves
    /// [`tnn_core::TnnError::DeadlineExceeded`]), and only a lane with
    /// no expired work sacrifices its oldest (ticket resolves
    /// [`tnn_core::TnnError::Overloaded`]). Submission itself never
    /// fails.
    Shed,
}

/// How [`crate::Server::shutdown`] treats queued-but-unstarted work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Workers finish every queued job before exiting; every admitted
    /// ticket resolves with its real outcome.
    Drain,
    /// Queued jobs resolve immediately with
    /// [`tnn_core::TnnError::Cancelled`]; jobs already picked up by a
    /// worker run to completion. Deterministic: when `shutdown` returns,
    /// every admitted ticket has resolved one way or the other.
    Cancel,
}

/// What a worker does when the retry ladder gives up on a query whose
/// channels stay unreachable ([`tnn_core::TnnError::ChannelUnavailable`]
/// after [`RetryPolicy::max_attempts`], or an exhausted per-class retry
/// budget).
///
/// Both fallback modes run outside the fault schedule (they model tuning
/// to a replica carrier the plan does not cover), tag the outcome
/// [`tnn_core::QueryOutcome::degraded`], and **never** store it in the
/// result cache: a degraded answer must not be replayed under a
/// full-fidelity [`tnn_core::QueryKey`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Degradation {
    /// No fallback: the ticket resolves with the final
    /// [`tnn_core::TnnError::ChannelUnavailable`]. The default — opting
    /// into degraded answers is an explicit choice.
    #[default]
    Fail,
    /// Fall back to [`tnn_core::Algorithm::ApproximateTnn`] for
    /// TNN-kind queries (the paper's estimate-free pipeline: cheapest
    /// possible tune-in, may fail on skewed data); other query kinds
    /// have no approximate variant and fall back replica-style.
    Approximate,
    /// Re-run the query at full fidelity against a replica carrier:
    /// same bytes as the primary would have produced, tagged degraded
    /// because it was not served by the scheduled channels.
    Replica,
}

/// Configuration for [`crate::Server::spawn`].
///
/// ```
/// use tnn_qos::{CacheConfig, Priority, ShedDiscipline};
/// use tnn_serve::{Backpressure, ServeConfig};
/// let cfg = ServeConfig::new()
///     .workers(4)
///     .queue_capacity(256)
///     .class_capacity(Priority::Background, 32)
///     .backpressure(Backpressure::Shed)
///     .shed_discipline(ShedDiscipline::ExpiredFirst)
///     .cache(CacheConfig::new().capacity(8192))
///     .batch_window(32);
/// assert_eq!(cfg.workers, 4);
/// assert_eq!(cfg.class_capacity[Priority::Background.index()], 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads, each owning a cloned engine handle and one
    /// recycled [`tnn_core::QueryScratch`]. `0` is allowed and means a
    /// *paused* server: submissions queue (and backpressure applies)
    /// but nothing executes until shutdown resolves the backlog as
    /// cancelled — see [`crate::Server::spawn_engine`].
    pub workers: usize,
    /// Default bound of each priority class's submission lane (jobs
    /// admitted but not yet picked up). Clamped to at least 1. The
    /// total backlog is bounded by the *sum* of the per-class bounds.
    pub queue_capacity: usize,
    /// Per-class lane bounds, indexed by [`Priority::index`]; `0` (the
    /// default) means "inherit [`ServeConfig::queue_capacity`]". A
    /// tight `Background` bound keeps best-effort floods from holding
    /// memory that interactive traffic will never have to wait on.
    pub class_capacity: [usize; Priority::COUNT],
    /// Policy when the class's lane is full.
    pub backpressure: Backpressure,
    /// Victim selection for [`Backpressure::Shed`] (default: evict
    /// expired work before sacrificing anything still viable).
    pub shed: ShedDiscipline,
    /// The result cache over `(query, channel count)` keys
    /// ([`tnn_core::QueryKey`]). Enabled by default — hits are
    /// byte-identical to fresh engine runs (the engine is
    /// deterministic), so the cache is invisible except in latency and
    /// the [`crate::ServeStats`] cache counters. Disable it
    /// ([`CacheConfig::disabled`]) for honest throughput measurements
    /// of repeated workloads.
    pub cache: CacheConfig,
    /// Upper bound on jobs one worker pops per wake-up. Values above 1
    /// amortize the queue lock and condvar traffic over micro-batches
    /// under load while leaving latency untouched when the queue is
    /// short (a worker never waits to fill a batch). Clamped to at
    /// least 1.
    pub batch_window: usize,
    /// How workers pace retries of recoverable tune-in failures
    /// ([`tnn_core::TnnError::ChannelUnavailable`]). Retries never
    /// outlive the submitter's deadline: the ladder re-checks it before
    /// every attempt and bounds each backoff sleep by the time left.
    pub retry: RetryPolicy,
    /// The fallback once the retry ladder gives up (default:
    /// [`Degradation::Fail`]).
    pub degradation: Degradation,
    /// Upper bound on worker respawns, cumulative across the pool: a
    /// worker whose serving round panics (an injected kill, or a bug
    /// outside the per-job isolation) restarts in place until the pool
    /// has spent this many restarts, after which the next death fails
    /// the server closed (emergency cancel) — endless respawn would
    /// mask a crash loop.
    pub max_worker_restarts: u32,
    /// Per-class pools of retry attempts, indexed by
    /// [`Priority::index`]; `0` (the default) means unlimited. A bounded
    /// Background pool keeps a storm of failing best-effort queries
    /// from occupying workers with backoff sleeps that Interactive
    /// traffic then queues behind.
    pub retry_budget: [u64; Priority::COUNT],
    /// Cross-layer query tracing ([`TraceConfig::Off`] by default).
    /// When on, workers stamp per-query phase spans (admission wait,
    /// queue residency, cache probe, engine run, retry backoff) and a
    /// bounded [`tnn_trace::FlightRecorder`] retains the slowest and
    /// every degraded-or-errored [`tnn_trace::QueryTrace`]
    /// ([`crate::Server::recorder`]). Tracing observes and never
    /// steers: delivered outcomes and [`crate::ServeStats`] counters
    /// are byte-identical either way (gated by
    /// `crates/bench/tests/trace_equivalence.rs`).
    pub trace: TraceConfig,
}

impl ServeConfig {
    /// The default configuration: one worker per available CPU, a
    /// 1024-slot lane per class, [`Backpressure::Block`],
    /// expired-first shedding, the default result cache, and a 16-job
    /// batch window.
    pub fn new() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 1024,
            class_capacity: [0; Priority::COUNT],
            backpressure: Backpressure::Block,
            shed: ShedDiscipline::ExpiredFirst,
            cache: CacheConfig::new(),
            batch_window: 16,
            retry: RetryPolicy::new(),
            degradation: Degradation::Fail,
            max_worker_restarts: 32,
            retry_budget: [0; Priority::COUNT],
            trace: TraceConfig::Off,
        }
    }

    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the default per-class submission-lane bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the lane bound of one priority class (`0` restores
    /// "inherit [`ServeConfig::queue_capacity`]").
    pub fn class_capacity(mut self, class: Priority, capacity: usize) -> Self {
        self.class_capacity[class.index()] = capacity;
        self
    }

    /// Sets the full-lane policy.
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the [`Backpressure::Shed`] victim discipline.
    pub fn shed_discipline(mut self, shed: ShedDiscipline) -> Self {
        self.shed = shed;
        self
    }

    /// Configures (or disables) the result cache.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the per-wake-up micro-batch bound.
    pub fn batch_window(mut self, window: usize) -> Self {
        self.batch_window = window;
        self
    }

    /// Sets the retry pacing policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets the exhausted-retries fallback.
    pub fn degradation(mut self, mode: Degradation) -> Self {
        self.degradation = mode;
        self
    }

    /// Sets the pool-wide worker-respawn bound.
    pub fn max_worker_restarts(mut self, restarts: u32) -> Self {
        self.max_worker_restarts = restarts;
        self
    }

    /// Bounds one class's pool of retry attempts (`0` restores
    /// unlimited).
    pub fn retry_budget(mut self, class: Priority, attempts: u64) -> Self {
        self.retry_budget[class.index()] = attempts;
        self
    }

    /// Sets the tracing mode ([`TraceConfig::on`] for the default
    /// flight-recorder retention, or `TraceConfig::On` with explicit
    /// [`tnn_trace::RecorderConfig`] bounds).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// The effective lane bound of `class` after inheritance and
    /// clamping — what the server actually enforces.
    pub fn lane_capacity(&self, class: Priority) -> usize {
        let cap = self.class_capacity[class.index()];
        if cap == 0 {
            self.queue_capacity.max(1)
        } else {
            cap
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = ServeConfig::default()
            .workers(3)
            .queue_capacity(7)
            .backpressure(Backpressure::Shed)
            .shed_discipline(ShedDiscipline::OldestFirst)
            .cache(CacheConfig::disabled())
            .batch_window(5)
            .retry(RetryPolicy::NONE.max_attempts(9))
            .degradation(Degradation::Approximate)
            .max_worker_restarts(2)
            .retry_budget(Priority::Background, 64)
            .trace(TraceConfig::on());
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_capacity, 7);
        assert_eq!(cfg.backpressure, Backpressure::Shed);
        assert_eq!(cfg.shed, ShedDiscipline::OldestFirst);
        assert!(!cfg.cache.enabled);
        assert_eq!(cfg.batch_window, 5);
        assert_eq!(cfg.retry.max_attempts, 9);
        assert_eq!(cfg.degradation, Degradation::Approximate);
        assert_eq!(cfg.max_worker_restarts, 2);
        assert_eq!(cfg.retry_budget[Priority::Background.index()], 64);
        assert!(cfg.trace.is_on());
        assert!(ServeConfig::new().workers >= 1);
        assert_eq!(ServeConfig::new().backpressure, Backpressure::Block);
        assert_eq!(ServeConfig::new().shed, ShedDiscipline::ExpiredFirst);
        assert!(ServeConfig::new().cache.enabled);
        // Fault-free defaults: no degradation, unlimited retry pools.
        assert_eq!(ServeConfig::new().degradation, Degradation::Fail);
        assert_eq!(ServeConfig::new().retry_budget, [0; Priority::COUNT]);
        assert!(ServeConfig::new().retry.max_attempts > 1);
        // Tracing is opt-in: plain spawns keep the exact untraced path.
        assert!(!ServeConfig::new().trace.is_on());
    }

    #[test]
    fn class_capacities_inherit_the_queue_bound() {
        let cfg = ServeConfig::new()
            .queue_capacity(10)
            .class_capacity(Priority::Background, 3);
        assert_eq!(cfg.lane_capacity(Priority::Interactive), 10);
        assert_eq!(cfg.lane_capacity(Priority::Batch), 10);
        assert_eq!(cfg.lane_capacity(Priority::Background), 3);
        // Degenerate bounds clamp to one slot.
        assert_eq!(
            ServeConfig::new()
                .queue_capacity(0)
                .lane_capacity(Priority::Batch),
            1
        );
    }
}
