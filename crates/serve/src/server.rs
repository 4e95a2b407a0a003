//! The worker-pool server: strict-priority multi-level submission queue,
//! deadline enforcement, backpressure, an admission-time result cache,
//! micro-batched dispatch, fault-schedule execution (retry ladder,
//! degradation, panic isolation, worker respawn), and deterministic
//! shutdown.

#![expect(
    clippy::disallowed_methods,
    reason = "deadline checks, latency histograms and retry backoff measure real elapsed time; fault decisions stay pure functions of (seed, channel, seq, attempt)"
)]

use crate::config::{Backpressure, Degradation, ServeConfig, ShutdownMode};
use crate::ticket::{Ticket, TicketCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tnn_broadcast::MultiChannelEnv;
use tnn_core::{Algorithm, Query, QueryEngine, QueryKey, QueryOutcome, QueryScratch, TnnError};
use tnn_faults::{FaultInjector, FaultPlan, FaultStats};
use tnn_qos::{Deadline, Lookup, MultiLevelQueue, Priority, Qos, ResultCache, RetryBudget};
use tnn_trace::lock::{LockRank, OrderedMutex, OrderedMutexGuard};
use tnn_trace::{FlightRecorder, LatencyHistogram, MetricsRegistry, QueryTrace, SpanKind};

tnn_trace::stats! {
    /// Admission/completion counters of one priority class.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClassStats {
        /// Submissions naming this class whose admission is decided
        /// (including refused ones), booked in the same step as
        /// `accepted` or `rejected`.
        pub submitted: u64 => "tnn_serve_submitted_total",
            "Queries submitted, including refused ones",
        /// Queries admitted (including later-shed/expired ones; admission
        /// cache hits count here too — they are accepted *and* completed in
        /// one step).
        pub accepted: u64 => "tnn_serve_accepted_total", "Queries admitted into the queue",
        /// Queries refused at the door: lane full under
        /// [`Backpressure::Reject`], or submitted during/after shutdown.
        pub rejected: u64 => "tnn_serve_rejected_total", "Queries refused at the door",
        /// Admitted queries evicted by [`Backpressure::Shed`] while still
        /// viable (tickets resolved [`TnnError::Overloaded`]).
        pub shed: u64 => "tnn_serve_shed_total", "Viable queries evicted by load shedding",
        /// Admitted queries resolved [`TnnError::Cancelled`] by a
        /// [`ShutdownMode::Cancel`] shutdown (or the final shutdown sweep).
        pub cancelled: u64 => "tnn_serve_cancelled_total", "Queries cancelled at shutdown",
        /// Queries whose outcome was delivered (engine-run, engine-error, or
        /// cache hit — all count as completions).
        pub completed: u64 => "tnn_serve_completed_total", "Queries whose outcome was delivered",
        /// Admitted queries whose deadline passed before a worker could
        /// answer — refused dead at admission, evicted as the expired shed
        /// victim, or discarded at dequeue (tickets resolved
        /// [`TnnError::DeadlineExceeded`]).
        pub expired: u64 => "tnn_serve_expired_total", "Queries whose deadline passed unanswered",
        /// Jobs admitted but not yet picked up, at snapshot time.
        pub queued: usize => "tnn_serve_queued", "Jobs admitted but not yet picked up",
        /// Jobs being executed by a worker, at snapshot time.
        pub in_flight: usize => "tnn_serve_in_flight", "Jobs being executed by a worker",
        /// Retry attempts charged to this class: each time a job's tune-in
        /// failed recoverably and the ladder paused to try again.
        pub retried: u64 => "tnn_serve_retried_total", "Retry attempts charged to the class",
        /// Completions answered by a degradation fallback (the delivered
        /// [`QueryOutcome`] carries `degraded = true`). A subset of
        /// [`ClassStats::completed`].
        pub degraded: u64 => "tnn_serve_degraded_total",
            "Completions answered by a degradation fallback",
        /// Submission-to-resolution latency of this class's completions
        /// (log₂ µs buckets; see [`LatencyHistogram`]). Jobs resolved by
        /// panic-unwind accounting are counted in `completed` but carry no
        /// latency observation.
        pub latency: LatencyHistogram => "tnn_serve_latency", "Submission-to-resolution latency",
    }
}

impl ClassStats {
    /// Per-class ticket conservation: every submission naming this class
    /// is accounted for exactly once, and degraded completions never
    /// exceed completions (they are a subset).
    pub fn conserved(&self) -> bool {
        let ClassStats {
            submitted,
            accepted,
            rejected,
            shed,
            cancelled,
            completed,
            expired,
            queued,
            in_flight,
            // Retry attempts obey no identity: one job may retry any
            // number of times.
            retried: _,
            degraded,
            // Bounded by `completed` in [`ServeStats::conserved`].
            latency: _,
        } = *self;
        submitted == accepted + rejected
            && accepted == completed + shed + cancelled + expired + queued as u64 + in_flight as u64
            && degraded <= completed
    }
}

tnn_trace::stats! {
    /// Admission/completion counters, snapshotted atomically (all counters
    /// mutate under one lock, so [`ServeStats::conserved`] holds for *every*
    /// snapshot, not just quiescent ones). The flat class counters are
    /// totals over [`ServeStats::classes`], set by
    /// [`ServeStats::retotaled`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServeStats {
        /// Submissions whose admission is decided, accepted or refused.
        /// Booked in the same step as `accepted` or `rejected`: a
        /// submitter still waiting for a slot under
        /// [`Backpressure::Block`] is not counted yet.
        pub submitted: u64,
        /// Queries admitted into the queue (including later-shed ones and
        /// admission cache hits).
        pub accepted: u64,
        /// Queries refused at the door (full lane under
        /// [`Backpressure::Reject`], or shutdown).
        pub rejected: u64,
        /// Still-viable queries evicted by [`Backpressure::Shed`].
        pub shed: u64,
        /// Queries resolved [`TnnError::Cancelled`] at shutdown.
        pub cancelled: u64,
        /// Queries whose outcome was delivered (cache hits included).
        pub completed: u64,
        /// Queries resolved [`TnnError::DeadlineExceeded`] — at admission,
        /// by expiry-aware shedding, or at dequeue.
        pub expired: u64,
        /// Jobs admitted but not yet picked up, at snapshot time.
        pub queued: usize,
        /// Jobs being executed by a worker, at snapshot time.
        pub in_flight: usize,
        /// Completions served straight from the result cache (byte-identical
        /// to an engine run of the same query).
        pub cache_hits: u64 => "tnn_serve_cache_hits_total",
            "Completions served straight from the result cache",
        /// Completions that ran the engine because no cache entry existed
        /// (the outcome was then stored).
        pub cache_misses: u64 => "tnn_serve_cache_misses_total",
            "Completions that ran the engine on a cache miss",
        /// Completions that ran the engine because the cache entry's TTL had
        /// elapsed (the outcome re-stored, refreshing the entry).
        pub cache_expired: u64 => "tnn_serve_cache_expired_total",
            "Completions that refreshed a TTL-expired cache entry",
        /// Completions that never touched the cache: caching disabled, a
        /// degenerate (`k < 2`) environment, an error outcome (errors are
        /// never cached), a degraded outcome (fallback answers must not be
        /// replayed under a full-fidelity key), or a job abandoned by a
        /// dying worker.
        pub cache_bypass: u64 => "tnn_serve_cache_bypass_total",
            "Completions that never touched the cache",
        /// Total retry attempts over all classes.
        pub retried: u64,
        /// Total degraded completions over all classes.
        pub degraded: u64,
        /// Worker serving rounds that panicked and respawned in place (an
        /// injected kill, or a bug that escaped per-job isolation). Bounded
        /// by [`ServeConfig::max_worker_restarts`]; beyond the bound the
        /// server fails closed.
        pub worker_restarts: u64 => "tnn_serve_worker_restarts_total",
            "Worker serving rounds that panicked and respawned",
        /// The same counters split by priority class (cache counters and
        /// worker restarts are tracked globally, not per class).
        pub classes: [ClassStats; Priority::COUNT],
    }
}

impl ServeStats {
    /// The ticket-conservation invariant, now three-way:
    ///
    /// 1. every submission is accounted for exactly once
    ///    (`submitted = accepted + rejected` and `accepted = completed +
    ///    shed + cancelled + expired + queued + in_flight`);
    /// 2. the same holds within every priority class, and the classes
    ///    sum to the totals;
    /// 3. every completion is classified by exactly one cache outcome
    ///    (`completed = cache_hits + cache_misses + cache_expired +
    ///    cache_bypass`).
    ///
    /// Holds for every snapshot; after a shutdown `queued` and
    /// `in_flight` are 0, so clause 1 reduces to `submitted = rejected +
    /// shed + cancelled + expired + completed`.
    pub fn conserved(&self) -> bool {
        let ServeStats {
            submitted,
            accepted,
            rejected,
            shed,
            cancelled,
            completed,
            expired,
            queued,
            in_flight,
            cache_hits,
            cache_misses,
            cache_expired,
            cache_bypass,
            // Class sums, checked by the `retotaled` comparison.
            retried: _,
            degraded: _,
            // Observability: the fail-closed bound on restarts is
            // enforced by `max_worker_restarts` at respawn time.
            worker_restarts: _,
            classes,
        } = *self;
        *self == self.retotaled()
            && submitted == accepted + rejected
            && accepted == completed + shed + cancelled + expired + queued as u64 + in_flight as u64
            && completed == cache_hits + cache_misses + cache_expired + cache_bypass
            && classes
                .iter()
                .all(|c| c.conserved() && c.latency.count() <= c.completed)
    }

    /// `self` with every flat total of a class counter recomputed as the
    /// sum over [`ServeStats::classes`] — the one place those totals are
    /// set.
    pub fn retotaled(self) -> ServeStats {
        let ClassStats {
            submitted,
            accepted,
            rejected,
            shed,
            cancelled,
            completed,
            expired,
            queued,
            in_flight,
            retried,
            degraded,
            latency: _,
        } = ClassStats::fold(&self.classes);
        ServeStats {
            submitted,
            accepted,
            rejected,
            shed,
            cancelled,
            completed,
            expired,
            queued,
            in_flight,
            retried,
            degraded,
            ..self
        }
    }

    /// The per-class counters for `class`.
    pub fn class(&self, class: Priority) -> &ClassStats {
        &self.classes[class.index()]
    }

    /// Cache hit fraction of all completions, 0.0 before any complete.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.completed as f64
        }
    }

    /// Publishes this snapshot into `registry`: the cache-outcome
    /// classification and the worker-restart tally under `tnn_serve_*`,
    /// then every class's counters and latency histogram labelled
    /// `{class="..."}`. All counter fields of a live server's snapshots
    /// only ever grow, so repeated publications are monotone (Prometheus
    /// counter semantics).
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        self.publish_series(registry, "");
        for class in Priority::ALL {
            let labels = format!("{{class=\"{}\"}}", class.name());
            self.class(class).publish_series(registry, &labels);
        }
    }
}

/// One admitted query and the server's handle on its ticket.
struct Job {
    query: Query,
    /// The cell and submission stamp shared with the client's
    /// [`Ticket`].
    ticket: Ticket,
    class: Priority,
    deadline: Deadline,
    /// The query's cache identity — `Some` exactly when the result cache
    /// will be consulted for it (cache enabled, cacheable environment).
    key: Option<QueryKey>,
    /// The admission probe found a TTL-expired entry: this run refreshes
    /// it (classified `cache_expired`, not `cache_misses`).
    refresh: bool,
    /// Admission sequence number — the logical clock every fault
    /// decision is keyed by (see [`FaultPlan`]), assigned under the
    /// state lock at enqueue.
    seq: u64,
    /// When the job entered the queue — stamped only under
    /// [`tnn_trace::TraceConfig::On`] (`None` keeps the untraced
    /// admission path stamp-free), splitting admission wait from queue
    /// residency in the job's [`QueryTrace`].
    enqueued_at: Option<Instant>,
}

impl Drop for Job {
    fn drop(&mut self) {
        // Safety net: a job dropped without resolution (a worker
        // panicking mid-batch unwinds its local jobs through here) must
        // not strand its waiters. The job died to a server-side defect,
        // not to scheduling, so the waiter sees `Internal` — every
        // deliberate resolution path settles first ([`Inner::settle`]),
        // making this a no-op there.
        self.ticket.cell.resolve(Err(TnnError::Internal));
    }
}

/// Mutable queue state — every field mutates under one mutex, which is
/// what makes the [`ServeStats`] conservation invariant snapshot-exact.
struct State {
    queue: MultiLevelQueue<Job>,
    shutdown: Option<ShutdownMode>,
    /// The live counters: per class and the global cache/restart
    /// tallies. `queued` is read off the queue and the flat totals are
    /// summed ([`ServeStats::retotaled`]) at snapshot time, so both stay
    /// zero here.
    stats: ServeStats,
    /// Next admission sequence number (assigned to enqueued jobs only,
    /// so a single-threaded submitter gets a deterministic numbering).
    next_seq: u64,
}

/// How one ticket ends: the result it resolves with and the one
/// terminal counter it books.
enum Settlement {
    /// An outcome was delivered (an answer or an engine error), with the
    /// way it used the result cache.
    Completed(Result<QueryOutcome, TnnError>, CacheUse),
    /// The deadline passed unanswered: [`TnnError::DeadlineExceeded`].
    Expired,
    /// Evicted by [`Backpressure::Shed`] while still viable:
    /// [`TnnError::Overloaded`].
    Shed,
    /// Cancelled by shutdown: [`TnnError::Cancelled`].
    Cancelled,
    /// Refused at the door with this error.
    Rejected(TnnError),
}

/// The cache classification of one completion — exactly one per
/// completion, the third clause of [`ServeStats::conserved`].
enum CacheUse {
    Hit,
    Miss,
    /// The run refreshed a TTL-expired entry.
    Refresh,
    /// The cache was never touched (disabled, keyless, or an error or
    /// degraded outcome, which are never stored).
    Bypass,
}

impl Inner {
    /// Settles one ticket — the only place a ticket resolves, bar
    /// [`Job`]'s drop-time safety net. Resolves the cell and books
    /// exactly one terminal counter of `class` into `stats`: the live
    /// counters at admission and shutdown, a [`BatchGuard`]'s batch
    /// tally at dispatch. A completion also books its cache class, its
    /// degraded flag and a latency sample. `trace` (worker-settled jobs
    /// under tracing) is stamped with the result and offered to the
    /// flight recorder once the ticket resolved.
    fn settle(
        &self,
        stats: &mut ServeStats,
        class: Priority,
        ticket: &Ticket,
        settlement: Settlement,
        mut trace: Option<QueryTrace>,
    ) {
        let counters = &mut stats.classes[class.index()];
        let (result, completed) = match settlement {
            Settlement::Completed(result, cache) => {
                counters.completed += 1;
                if matches!(&result, Ok(outcome) if outcome.degraded) {
                    counters.degraded += 1;
                }
                *match cache {
                    CacheUse::Hit => &mut stats.cache_hits,
                    CacheUse::Miss => &mut stats.cache_misses,
                    CacheUse::Refresh => &mut stats.cache_expired,
                    CacheUse::Bypass => &mut stats.cache_bypass,
                } += 1;
                (result, true)
            }
            Settlement::Expired => {
                counters.expired += 1;
                (Err(TnnError::DeadlineExceeded), false)
            }
            Settlement::Shed => {
                counters.shed += 1;
                (Err(TnnError::Overloaded), false)
            }
            Settlement::Cancelled => {
                counters.cancelled += 1;
                (Err(TnnError::Cancelled), false)
            }
            Settlement::Rejected(err) => {
                counters.rejected += 1;
                (Err(err), false)
            }
        };
        if let Some(t) = trace.as_mut() {
            // The engine's paper-native cost counters — tune-in pages,
            // node visits, delayed-pruning hits, the `(H−1)(M−1)`-bounded
            // peak queue — and the degradation flag of a delivered
            // answer.
            match &result {
                Ok(outcome) => {
                    t.degraded = outcome.degraded;
                    t.node_visits = outcome.node_visits();
                    t.prune_hits = outcome.prune_hits();
                    t.peak_queue = outcome.peak_queue();
                    t.tune_in = outcome.tune_in();
                }
                Err(_) => t.errored = true,
            }
        }
        ticket.cell.resolve(result);
        if completed {
            stats.classes[class.index()]
                .latency
                .record(Instant::now().saturating_duration_since(ticket.submitted_at));
        }
        if let (Some(recorder), Some(mut trace)) = (&self.recorder, trace) {
            trace.total = Instant::now().saturating_duration_since(ticket.submitted_at);
            recorder.record(trace);
        }
    }

    /// Settles every queued job [`Settlement::Cancelled`].
    fn cancel_backlog(&self, state: &mut State) {
        while let Some((class, job)) = state.queue.pop() {
            self.settle(
                &mut state.stats,
                class,
                &job.ticket,
                Settlement::Cancelled,
                None,
            );
        }
    }
}

struct Inner {
    state: OrderedMutex<State>,
    /// Wakes workers when jobs arrive (or shutdown begins).
    work: Condvar,
    /// Wakes `Block`ed submitters when a worker frees queue slots.
    space: Condvar,
    /// The shared result cache; `None` when disabled by configuration.
    cache: Option<ResultCache<QueryKey, QueryOutcome>>,
    /// The fault schedule workers execute under; `None` for servers
    /// spawned without one (the plain [`Server::spawn`] path keeps the
    /// exact PR 5 hot path — not even a zero-plan probe per job).
    faults: Option<FaultInjector>,
    /// Per-class retry-attempt pools ([`ServeConfig::retry_budget`]).
    budget: RetryBudget,
    /// The slow-query flight recorder; `Some` exactly when
    /// [`ServeConfig::trace`] is on. Workers record each executed
    /// job's [`QueryTrace`] here *after* resolving its ticket, holding
    /// no other lock.
    recorder: Option<FlightRecorder>,
    config: ServeConfig,
}

/// A concurrent query-serving front-end over a [`QueryEngine`].
///
/// `N` worker threads each own an O(1)-cloned engine handle and one
/// recycled [`tnn_core::QueryScratch`]; clients submit [`Query`]s through
/// a strict-priority bounded queue with an explicit [`Backpressure`]
/// policy and get non-blocking [`Ticket`]s back. Per-submission
/// [`Qos`] terms carry a priority class and an optional deadline
/// ([`Server::submit_with`]); a sharded result cache answers repeated
/// queries without touching a worker. Concurrency and caching may
/// reorder or short-circuit *completion*, never *answers*: every outcome
/// delivered through a ticket is byte-identical to a direct
/// [`QueryEngine::run`] of the same query (gated by
/// `crates/bench/tests/serve_equivalence.rs` and
/// `crates/bench/tests/qos_equivalence.rs`).
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
/// use tnn_core::Query;
/// use tnn_geom::Point;
/// use tnn_rtree::{PackingAlgorithm, RTree};
/// use tnn_serve::{Qos, ServeConfig, Server, ShutdownMode};
///
/// let params = BroadcastParams::new(64);
/// let tree = |salt: usize| {
///     let pts: Vec<Point> = (0..40)
///         .map(|i| Point::new(((i * 7 + salt) % 53) as f64, ((i * 11 + salt) % 59) as f64))
///         .collect();
///     Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
/// };
/// let env = MultiChannelEnv::new(vec![tree(0), tree(5)], params, &[3, 17]);
///
/// let server = Server::spawn(env, ServeConfig::new().workers(2));
/// let query = Query::tnn(Point::new(20.0, 20.0));
/// let qos = Qos::interactive().deadline_in(Duration::from_secs(5));
/// let ticket = server.submit_with(query.clone(), qos).unwrap();
/// let outcome = ticket.wait().unwrap();
/// assert_eq!(outcome.route.len(), 2);
/// // A repeat of the same query completes from the cache — same bytes.
/// let again = server.submit(query).unwrap().wait().unwrap();
/// assert_eq!(again, outcome);
/// let stats = server.shutdown(ShutdownMode::Drain);
/// assert!(stats.conserved());
/// assert_eq!(stats.cache_hits, 1);
/// ```
pub struct Server {
    inner: Arc<Inner>,
    engine: QueryEngine,
    workers: OrderedMutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Spawns a server over `env`. See [`Server::spawn_engine`] for the
    /// full contract.
    pub fn spawn(env: MultiChannelEnv, config: ServeConfig) -> Self {
        Server::spawn_engine(QueryEngine::new(env), config)
    }

    /// [`Server::spawn`] under a [`FaultPlan`]: workers execute every
    /// job through the plan's injected drops, outages, jitter, panics,
    /// and kills. See [`Server::spawn_engine_with_faults`].
    pub fn spawn_with_faults(env: MultiChannelEnv, config: ServeConfig, plan: FaultPlan) -> Self {
        Server::spawn_engine_with_faults(QueryEngine::new(env), config, plan)
    }

    /// Spawns `config.workers` worker threads over (clones of) `engine`.
    ///
    /// `config.workers = 0` is allowed and means a *paused* server:
    /// submissions queue up (and backpressure applies) but nothing
    /// executes; [`Server::shutdown`] then resolves the backlog as
    /// cancelled regardless of mode. `queue_capacity` and `batch_window`
    /// are clamped to at least 1.
    pub fn spawn_engine(engine: QueryEngine, config: ServeConfig) -> Self {
        Server::spawn_engine_faulted(engine, config, None)
    }

    /// [`Server::spawn_engine`] under a [`FaultPlan`]: before each
    /// execution attempt a worker probes every channel through the
    /// plan; a drop or outage surfaces as
    /// [`TnnError::ChannelUnavailable`] and enters the retry ladder
    /// ([`ServeConfig::retry`], then [`ServeConfig::degradation`]);
    /// injected engine panics resolve only their own ticket
    /// ([`TnnError::Internal`]); injected worker kills unwind a whole
    /// serving round and exercise in-place respawn
    /// ([`ServeStats::worker_restarts`]). A zero plan injects nothing:
    /// outcomes are byte-identical to a plain [`Server::spawn_engine`]
    /// (gated by `crates/bench/tests/fault_equivalence.rs`). Read the
    /// injected-fault tallies back with [`Server::fault_stats`].
    pub fn spawn_engine_with_faults(
        engine: QueryEngine,
        config: ServeConfig,
        plan: FaultPlan,
    ) -> Self {
        Server::spawn_engine_faulted(engine, config, Some(FaultInjector::new(plan)))
    }

    fn spawn_engine_faulted(
        engine: QueryEngine,
        config: ServeConfig,
        faults: Option<FaultInjector>,
    ) -> Self {
        let config = ServeConfig {
            queue_capacity: config.queue_capacity.max(1),
            batch_window: config.batch_window.max(1),
            ..config
        };
        // Caching needs a k ≥ 2 environment: anything else errors on
        // every query, and errors are never cached.
        let cache = (config.cache.enabled && engine.channels() >= 2)
            .then(|| ResultCache::new(config.cache));
        let recorder = config.trace.recorder().map(FlightRecorder::new);
        let inner = Arc::new(Inner {
            state: OrderedMutex::new(
                LockRank::ServeState,
                State {
                    queue: MultiLevelQueue::new(),
                    shutdown: None,
                    stats: ServeStats::default(),
                    next_seq: 0,
                },
            ),
            work: Condvar::new(),
            space: Condvar::new(),
            cache,
            faults,
            budget: RetryBudget::new(config.retry_budget),
            recorder,
            config,
        });
        #[expect(
            clippy::expect_used,
            reason = "construction-time OS spawn failure has no caller to report to; a server that cannot start its pool must not pretend it did"
        )]
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let engine = engine.clone();
                std::thread::Builder::new()
                    .name(format!("tnn-serve-{i}"))
                    .spawn(move || worker_loop(&inner, &engine))
                    .expect("spawn tnn-serve worker thread")
            })
            .collect();
        Server {
            inner,
            engine,
            workers: OrderedMutex::new(LockRank::ServeWorkers, workers),
        }
    }

    /// The engine the workers execute against (workers hold O(1) clones
    /// sharing this environment).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Publishes `env` as the serving environment without stopping the
    /// server: workers pick up the new snapshot on their next job, while
    /// jobs already executing finish on the snapshot they started with.
    /// Queries admitted after the swap carry the new environment's
    /// epoch/fingerprint in their cache keys, so pre-swap cache entries
    /// miss instead of replaying stale answers (churn regression:
    /// `crates/serve/tests/churn.rs`).
    ///
    /// # Errors
    /// [`TnnError::WrongChannelCount`] when `env`'s channel count
    /// differs from the engine's — a swap may change data, never shape
    /// (see [`QueryEngine::swap_env`]). The server keeps serving the
    /// old environment on error.
    pub fn swap_env(&self, env: MultiChannelEnv) -> Result<(), TnnError> {
        self.engine.swap_env(env)
    }

    /// The normalized configuration the server runs with.
    pub fn config(&self) -> ServeConfig {
        self.inner.config
    }

    /// Submits one query under default QoS terms ([`Priority::Batch`],
    /// no deadline) and returns its completion [`Ticket`]. See
    /// [`Server::submit_with`].
    ///
    /// # Errors
    /// As [`Server::submit_with`].
    ///
    /// # Panics
    /// As [`Server::submit_with`].
    pub fn submit(&self, query: Query) -> Result<Ticket, TnnError> {
        self.submit_with(query, Qos::default())
    }

    /// Submits one query under explicit [`Qos`] terms and returns its
    /// completion [`Ticket`].
    ///
    /// The priority class selects the submission lane (strictly drained
    /// most-urgent-first) and the lane bound backpressure applies
    /// against. The deadline is enforced three times: a query already
    /// expired at admission resolves [`TnnError::DeadlineExceeded`]
    /// without queueing, expiry-aware [`Backpressure::Shed`] evicts
    /// expired work first, and a worker discards (rather than runs) a
    /// job whose deadline passed while queued. A result-cache hit
    /// resolves the ticket at admission with bytes identical to a fresh
    /// engine run.
    ///
    /// # Errors
    /// [`TnnError::Overloaded`] when the class lane is full under
    /// [`Backpressure::Reject`]; [`TnnError::Cancelled`] when the server
    /// is shutting down (under [`Backpressure::Block`] this can surface
    /// after a wait). Query-level errors (wrong channel count, empty
    /// channels, non-finite points) are *not* raised here — they travel
    /// through the ticket, exactly as [`QueryEngine::run`] would return
    /// them. A pre-expired deadline also travels through the ticket
    /// (the submission itself succeeded).
    ///
    /// # Panics
    /// Panics — on the submitting thread, before anything is enqueued —
    /// when per-channel phases or ANN modes do not match the engine's
    /// channel count (the same conditions under which
    /// [`QueryEngine::run`] panics; see [`Query::check_channels`]).
    pub fn submit_with(&self, query: Query, qos: Qos) -> Result<Ticket, TnnError> {
        query.check_channels(self.engine.channels());
        // Key derivation (hashing + small allocations) happens before
        // the state lock — the admission critical section stays short.
        let key = self.derive_key(&query);
        // Stamped before admission: under `Block` the wait for a queue
        // slot is part of the client-observed latency.
        let submitted_at = Instant::now();
        let state = self.inner.state.lock();
        let (state, result, enqueued) = self.admit(state, query, key, qos, submitted_at);
        drop(state);
        if enqueued {
            self.inner.work.notify_one();
        }
        result
    }

    /// Submits many queries under one queue-lock acquisition and default
    /// QoS terms. See [`Server::submit_batch_qos`].
    ///
    /// # Panics
    /// As [`Server::submit_with`] — every query is validated before the
    /// first one is enqueued.
    pub fn submit_batch(
        &self,
        queries: impl IntoIterator<Item = Query>,
    ) -> Vec<Result<Ticket, TnnError>> {
        self.submit_batch_qos(queries.into_iter().map(|query| (query, Qos::default())))
    }

    /// Submits many `(query, qos)` pairs under one queue-lock
    /// acquisition, wakes the workers once, and returns one [`Ticket`]
    /// result per query in order. Workers then drain the backlog in
    /// micro-batches of up to [`ServeConfig::batch_window`] jobs per
    /// wake-up, amortizing the wake/steal overhead that per-query
    /// submission would pay `n` times. Front-ends whose inbound traffic
    /// carries heterogeneous priorities and deadlines submit it here as
    /// one batch.
    ///
    /// Per-query admission follows [`Server::submit_with`] exactly (a
    /// [`Backpressure::Reject`] overflow rejects only the overflowing
    /// queries). The whole batch is admitted atomically with respect to
    /// the workers: no job of the batch starts executing before the
    /// last one is enqueued (unless a [`Backpressure::Block`] wait has
    /// to yield the lock mid-batch), so strict-priority draining applies
    /// to the batch as a whole.
    ///
    /// # Panics
    /// As [`Server::submit_with`] — every query is validated before the
    /// first one is enqueued.
    pub fn submit_batch_qos(
        &self,
        submissions: impl IntoIterator<Item = (Query, Qos)>,
    ) -> Vec<Result<Ticket, TnnError>> {
        let submissions: Vec<(Query, Qos)> = submissions.into_iter().collect();
        for (query, _) in &submissions {
            query.check_channels(self.engine.channels());
        }
        // Keys for the whole batch are derived before the lock — the
        // batch-long critical section does no hashing or allocation.
        let keys: Vec<Option<QueryKey>> = submissions
            .iter()
            .map(|(query, _)| self.derive_key(query))
            .collect();
        // One stamp for the whole batch, taken at entry: time spent
        // blocked mid-batch counts toward the latency of every later
        // query in it — the client handed them all over at this instant.
        let submitted_at = Instant::now();
        let mut out = Vec::with_capacity(submissions.len());
        let mut state = self.inner.state.lock();
        let mut admitted = false;
        for ((query, qos), key) in submissions.into_iter().zip(keys) {
            let (next, result, enqueued) = self.admit(state, query, key, qos, submitted_at);
            state = next;
            admitted |= enqueued;
            out.push(result);
        }
        drop(state);
        if admitted {
            self.inner.work.notify_all();
        }
        out
    }

    /// The query's cache identity, derived only when the cache exists
    /// (the spawn gate guarantees a cacheable `k ≥ 2` environment then).
    /// Stamped against the *current* environment snapshot: the key
    /// carries the env's epoch and content fingerprint, so entries
    /// written before a [`Server::swap_env`] can never answer queries
    /// admitted after it. A worker re-stamps the key if the environment
    /// moved between admission and execution.
    fn derive_key(&self, query: &Query) -> Option<QueryKey> {
        self.inner
            .cache
            .is_some()
            .then(|| query.cache_key(&self.engine.env()))
    }

    /// Admission under the state lock: deadline check, cache probe,
    /// backpressure, enqueue, ticket mint. Returns the (possibly
    /// re-acquired, for `Block`) guard so batch submission stays under
    /// one logical critical section, plus whether a job actually entered
    /// the queue (cache hits and dead-on-arrival deadlines resolve
    /// without one, so no worker wake-up is owed).
    ///
    /// The decision is booked in one step once it is made: `submitted`
    /// with `accepted`, or with the `rejected` the refusal settles. A
    /// `Block` wait releases the lock before anything is booked, so
    /// [`ServeStats::conserved`] holds on every snapshot.
    fn admit<'a>(
        &self,
        mut state: OrderedMutexGuard<'a, State>,
        query: Query,
        key: Option<QueryKey>,
        qos: Qos,
        submitted_at: Instant,
    ) -> (OrderedMutexGuard<'a, State>, Result<Ticket, TnnError>, bool) {
        let class = qos.priority;
        let ticket = Ticket {
            cell: TicketCell::new(),
            submitted_at,
        };
        let mut refresh = false;
        // `Some` settles the ticket at the door; `None` enqueues it.
        let settled = 'decide: {
            if state.shutdown.is_some() {
                break 'decide Some(Settlement::Rejected(TnnError::Cancelled));
            }
            // Deadline at admission: dead-on-arrival work resolves
            // without costing a slot (or a cache probe — the client said
            // "by then").
            if qos.deadline.expired(Instant::now()) {
                break 'decide Some(Settlement::Expired);
            }
            // Admission-time cache probe: a hit completes right here —
            // byte-identical bytes, zero queue traffic. Probed at a fresh
            // `now`, not `submitted_at`: a batch stamp can be arbitrarily
            // stale after a mid-batch Block wait, and TTL expiry must be
            // judged against the present.
            if let (Some(cache), Some(candidate)) = (&self.inner.cache, &key) {
                match cache.lookup(candidate, Instant::now()) {
                    Lookup::Hit(outcome) => {
                        break 'decide Some(Settlement::Completed(Ok(outcome), CacheUse::Hit));
                    }
                    Lookup::Expired => refresh = true,
                    Lookup::Miss => {}
                }
            }
            let capacity = self.inner.config.lane_capacity(class);
            loop {
                if state.shutdown.is_some() {
                    break 'decide Some(Settlement::Rejected(TnnError::Cancelled));
                }
                // The deadline can pass while Block-waiting for a slot.
                if qos.deadline.expired(Instant::now()) {
                    break 'decide Some(Settlement::Expired);
                }
                if state.queue.len_of(class) < capacity {
                    break 'decide None;
                }
                match self.inner.config.backpressure {
                    Backpressure::Block => {
                        // A full lane means there is work: make sure a
                        // worker is awake to drain it before sleeping on
                        // the space condvar (a batched submitter
                        // publishes its work notification only after the
                        // whole batch). A deadline bounds the sleep — on
                        // a wedged or paused server no space wake-up ever
                        // comes, and the query must still resolve
                        // `DeadlineExceeded` on time (checked at the top
                        // of the loop).
                        self.inner.work.notify_all();
                        state = match qos.deadline.remaining(Instant::now()) {
                            Some(left) => state.wait_timeout(&self.inner.space, left).0,
                            None => state.wait(&self.inner.space),
                        };
                    }
                    Backpressure::Reject => {
                        break 'decide Some(Settlement::Rejected(TnnError::Overloaded));
                    }
                    Backpressure::Shed => {
                        let now = Instant::now();
                        #[expect(
                            clippy::expect_used,
                            reason = "Shed is only reached when the lane is full, and a full lane always yields a victim"
                        )]
                        let (victim, was_expired) = state
                            .queue
                            .shed_victim(class, self.inner.config.shed, |job| {
                                job.deadline.expired(now)
                            })
                            .expect("full lane has a victim");
                        let settlement = if was_expired {
                            Settlement::Expired
                        } else {
                            Settlement::Shed
                        };
                        self.inner.settle(
                            &mut state.stats,
                            victim.class,
                            &victim.ticket,
                            settlement,
                            None,
                        );
                        break 'decide None;
                    }
                }
            }
        };
        let counters = &mut state.stats.classes[class.index()];
        counters.submitted += 1;
        let result = match &settled {
            Some(Settlement::Rejected(err)) => Err(err.clone()),
            _ => {
                counters.accepted += 1;
                Ok(Ticket {
                    cell: Arc::clone(&ticket.cell),
                    submitted_at,
                })
            }
        };
        if let Some(end) = settled {
            self.inner
                .settle(&mut state.stats, class, &ticket, end, None);
            return (state, result, false);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push_back(
            class,
            Job {
                query,
                ticket,
                class,
                deadline: qos.deadline,
                key,
                refresh,
                seq,
                enqueued_at: self.inner.recorder.is_some().then(Instant::now),
            },
        );
        (state, result, true)
    }

    /// A consistent snapshot of the admission/completion counters.
    pub fn stats(&self) -> ServeStats {
        let state = self.inner.state.lock();
        let mut stats = state.stats;
        for class in Priority::ALL {
            stats.classes[class.index()].queued = state.queue.len_of(class);
        }
        stats.retotaled()
    }

    /// Counters of the shared result cache (entry counts, evictions),
    /// `None` when caching is disabled. The per-completion hit/miss
    /// classification lives in [`ServeStats`].
    pub fn cache_stats(&self) -> Option<tnn_qos::CacheStats> {
        self.inner.cache.as_ref().map(ResultCache::stats)
    }

    /// Exact tallies of the injected faults so far, `None` for a server
    /// spawned without a [`FaultPlan`]. For plans without worker kills
    /// the tallies are bit-identical across worker counts and reruns of
    /// the same admission sequence (see [`FaultStats`]).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.faults.as_ref().map(FaultInjector::stats)
    }

    /// The slow-query flight recorder, `None` unless
    /// [`ServeConfig::trace`] is on. Holds the N slowest and every
    /// degraded-or-errored [`QueryTrace`] of worker-executed jobs
    /// (admission-time cache hits and refusals resolve without a
    /// worker and are counted in [`ServeStats`] only).
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.inner.recorder.as_ref()
    }

    /// Publishes a snapshot of this server's metrics into `registry`:
    /// per-class admission/completion counters and latency histograms
    /// under `tnn_serve_*`, the cache-outcome classification, the
    /// result cache's own `tnn_cache_*` counters and the fault
    /// injector's `tnn_faults_*` tallies when present, and the flight
    /// recorder's retention counters under `tnn_trace_*`.
    ///
    /// Every counter is published from a stats snapshot whose fields
    /// only ever grow, so repeated publications are monotone —
    /// Prometheus counter semantics ([`MetricsRegistry::render_prometheus`]).
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        self.stats().publish_metrics(registry);
        if let Some(cache) = self.cache_stats() {
            cache.publish_metrics(registry);
        }
        if let Some(faults) = self.fault_stats() {
            faults.publish_metrics(registry);
        }
        if let Some(recorder) = self.recorder() {
            registry.counter(
                "tnn_trace_recorded_total",
                "Query traces offered to the flight recorder",
                recorder.recorded(),
            );
            registry.gauge(
                "tnn_trace_retained",
                "Query traces currently retained by the flight recorder",
                recorder.len() as f64,
            );
        }
    }

    /// Shuts the server down and joins every worker thread.
    ///
    /// Deterministic contract, regardless of mode and timing: when this
    /// returns, **every admitted ticket has resolved** — with its real
    /// outcome ([`ShutdownMode::Drain`], or any job already picked up by
    /// a worker), or with [`TnnError::Cancelled`]
    /// ([`ShutdownMode::Cancel`] backlog, and any backlog left when no
    /// worker survives to drain it, e.g. on a paused server). Concurrent
    /// `submit` calls from other threads fail with
    /// [`TnnError::Cancelled`] from the moment shutdown begins.
    ///
    /// Idempotent: later calls (including the implicit drain in `Drop`)
    /// join nothing and return the final stats; the first mode wins.
    pub fn shutdown(&self, mode: ShutdownMode) -> ServeStats {
        // Hold the handle lock across begin + join + sweep so a
        // concurrent shutdown call returns only after the first one has
        // fully quiesced the server.
        let mut handles = self.workers.lock();
        self.begin_shutdown(mode);
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
        // Final sweep: with zero (or crashed) workers the backlog is
        // still sitting in the queue; no ticket may outlive shutdown
        // unresolved.
        let mut state = self.inner.state.lock();
        self.inner.cancel_backlog(&mut state);
        drop(state);
        drop(handles);
        self.stats()
    }

    fn begin_shutdown(&self, mode: ShutdownMode) {
        let mut state = self.inner.state.lock();
        if state.shutdown.is_none() {
            state.shutdown = Some(mode);
        }
        if state.shutdown == Some(ShutdownMode::Cancel) {
            // Resolve the backlog here, not in the workers: every queued
            // ticket has resolved by the time `shutdown` returns even if
            // all workers are busy mid-batch.
            self.inner.cancel_backlog(&mut state);
        }
        drop(state);
        self.inner.work.notify_all();
        self.inner.space.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let live = !self.workers.get_mut().is_empty();
        let state = self.inner.state.lock();
        let pending = !state.queue.is_empty();
        drop(state);
        if live || pending {
            self.shutdown(ShutdownMode::Drain);
        }
    }
}

/// Accounting guard for one popped micro-batch. The normal path settles
/// the per-class completed/expired counts (and the cache classification)
/// in one lock per batch (not per job); if the worker unwinds mid-batch
/// (an injected fault, or a real engine bug — either way the server must
/// not corrupt), the guard's `Drop` books the abandoned jobs as
/// *completed with a bypassed cache* — their tickets resolve
/// [`TnnError::Internal`] through [`Job`]'s drop right after this, so an
/// outcome **was** delivered — keeping [`ServeStats::conserved`] true and
/// `in_flight` exact. The worker itself respawns (bounded by
/// [`ServeConfig::max_worker_restarts`]); the server keeps serving.
struct BatchGuard<'a> {
    inner: &'a Inner,
    /// Jobs popped per class, all counted `in_flight` until settled.
    taken: [usize; Priority::COUNT],
    /// What the batch has settled so far, merged into the server's
    /// counters in one step.
    booked: ServeStats,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock();
        for (i, class) in self.booked.classes.iter_mut().enumerate() {
            let abandoned = self.taken[i] as u64 - class.completed - class.expired;
            // Abandoned jobs (worker unwound mid-batch) resolve
            // `Err(Internal)` when the batch buffer drops: the client got
            // an answer, so they complete — with no cache interaction.
            class.completed += abandoned;
            self.booked.cache_bypass += abandoned;
            state.stats.classes[i].in_flight -= self.taken[i];
        }
        state.stats.merge(&self.booked);
    }
}

/// Panic payload of an injected engine panic — a private type so tests
/// and the worker can tell injected unwinds from real bugs.
struct InjectedPanic;

/// Panic payload of an injected worker kill (abandons the whole
/// micro-batch, not just one query).
struct InjectedKill;

/// What one execution of a job produced.
enum Executed {
    /// The job ran (possibly after retries, possibly degraded, possibly
    /// to an error). `retries` counts the backoff pauses actually taken.
    Done {
        result: Result<QueryOutcome, TnnError>,
        retries: u64,
    },
    /// The deadline expired before any attempt could finish (`retries`
    /// still counts the backoff pauses taken on the way there).
    Expired { retries: u64 },
}

/// One worker thread: run serving rounds, and if a round unwinds (an
/// injected worker kill, or a real bug that escaped the per-query
/// isolation) respawn **in place** — the same OS thread re-enters the
/// serving loop — up to [`ServeConfig::max_worker_restarts`] restarts
/// pool-wide. Beyond the bound the server assumes a crash loop and fails
/// closed: emergency [`ShutdownMode::Cancel`] so submitters fail fast
/// instead of feeding a dying pool.
fn worker_loop(inner: &Inner, engine: &QueryEngine) {
    loop {
        if catch_unwind(AssertUnwindSafe(|| worker_rounds(inner, engine))).is_ok() {
            return; // clean shutdown
        }
        // The round unwound. Its batch guard already settled the
        // abandoned jobs (tickets resolved `Err(Internal)` as the batch
        // buffer dropped); all that is left is to count the restart and
        // decide whether this pool is still healthy.
        let mut state = inner.state.lock();
        state.stats.worker_restarts += 1;
        if state.stats.worker_restarts > u64::from(inner.config.max_worker_restarts) {
            if state.shutdown.is_none() {
                state.shutdown = Some(ShutdownMode::Cancel);
            }
            inner.cancel_backlog(&mut state);
            drop(state);
            inner.work.notify_all();
            inner.space.notify_all();
            return;
        }
    }
}

/// The serving rounds of one worker: wait for jobs, pop a micro-batch of
/// up to [`ServeConfig::batch_window`] in strict priority order, execute
/// it against a thread-local scratch (skipping jobs whose deadline
/// passed while queued, filling the result cache with fresh
/// non-degraded outcomes), resolve each ticket, repeat until shutdown.
/// May unwind mid-batch under an injected worker kill; [`worker_loop`]
/// catches and respawns.
fn worker_rounds(inner: &Inner, engine: &QueryEngine) {
    let mut scratch = engine.scratch();
    let mut local: Vec<Job> = Vec::with_capacity(inner.config.batch_window);
    'serve: loop {
        {
            let mut state = inner.state.lock();
            loop {
                match state.shutdown {
                    // Cancel already resolved the backlog; nothing left
                    // for workers to do.
                    Some(ShutdownMode::Cancel) => break 'serve,
                    Some(ShutdownMode::Drain) if state.queue.is_empty() => break 'serve,
                    _ => {}
                }
                if !state.queue.is_empty() {
                    break;
                }
                state = state.wait(&inner.work);
            }
            let n = inner.config.batch_window.min(state.queue.len());
            for _ in 0..n {
                // `n` was clamped to the queue length under this same
                // guard, so pop cannot come up dry — but a defect here
                // must stop the batch, not the worker.
                let Some((class, job)) = state.queue.pop() else {
                    break;
                };
                state.stats.classes[class.index()].in_flight += 1;
                local.push(job);
            }
            drop(state);
            // n slots freed — let Block'ed submitters race for them.
            inner.space.notify_all();
        }
        // Tickets resolve as each job finishes; the counters catch up in
        // the guard's single per-batch settlement (a snapshot may
        // briefly see a resolved job still in flight — conservation
        // holds either way).
        let mut guard = BatchGuard {
            inner,
            taken: [0; Priority::COUNT],
            booked: ServeStats::default(),
        };
        for job in &local {
            guard.taken[job.class.index()] += 1;
        }
        for job in local.drain(..) {
            if let Some(faults) = &inner.faults {
                if faults.worker_kill(job.seq) {
                    // Quiet unwind (skips the panic hook): this job and
                    // the rest of the batch resolve `Err(Internal)` via
                    // their drops, the guard books them, and
                    // `worker_loop` respawns the thread.
                    resume_unwind(Box::new(InjectedKill));
                }
            }
            let now = Instant::now();
            // Trace assembly starts at dequeue: admission wait and
            // queue residency are reconstructed from the job's stamps.
            // `None` whenever tracing is off — the untraced path takes
            // no stamps and allocates nothing.
            let mut trace = inner.recorder.as_ref().map(|_| {
                let mut t = QueryTrace::new(job.seq);
                if let Some(enqueued_at) = job.enqueued_at {
                    t.span(
                        SpanKind::AdmissionWait,
                        enqueued_at.saturating_duration_since(job.ticket.submitted_at),
                    );
                    t.span(
                        SpanKind::QueueResidency,
                        now.saturating_duration_since(enqueued_at),
                    );
                }
                t
            });
            // Deadline at dequeue: a job that died waiting is discarded,
            // not run — the worker's time goes to viable work.
            if job.deadline.expired(now) {
                inner.settle(
                    &mut guard.booked,
                    job.class,
                    &job.ticket,
                    Settlement::Expired,
                    trace,
                );
                continue;
            }
            // One environment snapshot pins this job's whole execution
            // — cache identity, fault probes, engine run — to a single
            // epoch, even while a concurrent [`Server::swap_env`]
            // publishes the next one mid-batch.
            let env = engine.env();
            // Re-stamp the cache identity if the environment moved
            // since admission: the job probes and fills the cache under
            // the identity of the environment it actually runs on (the
            // admission-time key would miss forever and, worse, write
            // an entry no future submission could ever hit). A re-stamp
            // also clears the refresh flag — the expired entry it
            // described belongs to the dead epoch.
            let (key, mut refresh) = match &job.key {
                Some(key) if !key.matches_env(&env) => (Some(job.query.cache_key(&env)), false),
                other => (other.clone(), job.refresh),
            };
            // Second cache probe, at dequeue: duplicates that were still
            // queued behind their first occurrence (an admission probe
            // runs before any of them executes — batch admission even
            // holds the queue lock across the whole batch) hit here
            // instead of re-running the engine. A hit also skips the
            // fault schedule entirely: a cached answer needs no tune-in.
            let cacheable = match (&key, &inner.cache) {
                (Some(key), Some(cache)) => {
                    let probe_started = trace.as_ref().map(|_| Instant::now());
                    let looked = cache.lookup(key, now);
                    if let (Some(t), Some(started)) = (trace.as_mut(), probe_started) {
                        t.span(
                            SpanKind::CacheProbe,
                            Instant::now().saturating_duration_since(started),
                        );
                    }
                    match looked {
                        Lookup::Hit(outcome) => {
                            let hit = Settlement::Completed(Ok(outcome), CacheUse::Hit);
                            inner.settle(&mut guard.booked, job.class, &job.ticket, hit, trace);
                            continue;
                        }
                        lookup => {
                            refresh = refresh || matches!(lookup, Lookup::Expired);
                            true
                        }
                    }
                }
                // A keyless (or cacheless) job never consults the cache.
                _ => false,
            };
            let run_started = trace.as_ref().map(|_| Instant::now());
            let mut ladder = LadderTimings::default();
            let executed = run_job(inner, engine, &env, &job, &mut scratch, &mut ladder);
            if let (Some(t), Some(started)) = (trace.as_mut(), run_started) {
                let elapsed = Instant::now().saturating_duration_since(started);
                t.span(
                    SpanKind::EngineRun,
                    elapsed
                        .saturating_sub(ladder.backoff)
                        .saturating_sub(ladder.degraded),
                );
                if !ladder.backoff.is_zero() {
                    t.span(SpanKind::RetryBackoff, ladder.backoff);
                }
                if !ladder.degraded.is_zero() {
                    t.span(SpanKind::Degradation, ladder.degraded);
                }
            }
            let (settlement, retries, attempts) = match executed {
                Executed::Expired { retries } => (Settlement::Expired, retries, retries),
                Executed::Done { result, retries } => {
                    // `cacheable` implies a key and a cache were present
                    // at dispatch; matching on all three keeps the
                    // worker panic-free if that coupling ever breaks.
                    let cache_use = match (&result, &key, &inner.cache) {
                        (Ok(outcome), Some(key), Some(cache)) if cacheable && !outcome.degraded => {
                            cache.insert(key.clone(), outcome.clone(), Instant::now());
                            if refresh {
                                CacheUse::Refresh
                            } else {
                                CacheUse::Miss
                            }
                        }
                        // Errors and degraded outcomes are never cached:
                        // a transient fault must not mask the exact
                        // answer a later healthy run would produce.
                        _ => CacheUse::Bypass,
                    };
                    (
                        Settlement::Completed(result, cache_use),
                        retries,
                        retries + 1,
                    )
                }
            };
            guard.booked.classes[job.class.index()].retried += retries;
            if let Some(t) = trace.as_mut() {
                t.attempts = attempts as u32;
            }
            inner.settle(&mut guard.booked, job.class, &job.ticket, settlement, trace);
        }
        drop(guard);
    }
    engine.recycle(scratch);
}

/// Off-engine wall time [`run_job`] spent in the retry ladder,
/// accumulated for span stamping: backoff sleeps between attempts, and
/// the degraded-fallback run. The engine-run span is the run's elapsed
/// time minus these.
#[derive(Default)]
struct LadderTimings {
    backoff: Duration,
    degraded: Duration,
}

/// Executes one job under the server's fault schedule and retry policy.
///
/// Fault-free servers take a single straight-line engine run — the exact
/// pre-fault hot path, no probes and no ladder. Faulted servers probe
/// every channel tune-in first; a recoverable
/// [`TnnError::ChannelUnavailable`] enters the retry ladder (capped
/// exponential backoff with deterministic jitter, bounded by
/// [`tnn_qos::RetryPolicy::max_attempts`], the per-class
/// [`RetryBudget`], and the job's deadline — a retry never outlives the
/// submitter's deadline), and exhausting the ladder falls through to the
/// configured [`Degradation`].
fn run_job(
    inner: &Inner,
    engine: &QueryEngine,
    env: &MultiChannelEnv,
    job: &Job,
    scratch: &mut QueryScratch,
    timings: &mut LadderTimings,
) -> Executed {
    let Some(faults) = &inner.faults else {
        return Executed::Done {
            result: engine.run_on(env, &job.query, scratch),
            retries: 0,
        };
    };
    let policy = inner.config.retry;
    let mut attempt: u32 = 0; // failed tune-ins so far (advances outages)
    let mut retries: u64 = 0;
    loop {
        if job.deadline.expired(Instant::now()) {
            return Executed::Expired { retries };
        }
        match faults.check_tune_in(env, job.seq, attempt) {
            Ok(()) => {
                let inject = faults.engine_panic(job.seq);
                return Executed::Done {
                    result: run_isolated(engine, env, &job.query, scratch, inject),
                    retries,
                };
            }
            Err(err) => {
                attempt += 1;
                let can_retry =
                    attempt < policy.max_attempts.max(1) && inner.budget.try_charge(job.class);
                if !can_retry {
                    let fallback_started = inner.recorder.as_ref().map(|_| Instant::now());
                    let result = degrade(inner, engine, env, job, scratch, err);
                    if let Some(started) = fallback_started {
                        timings.degraded += Instant::now().saturating_duration_since(started);
                    }
                    return Executed::Done { result, retries };
                }
                retries += 1;
                let mut pause = policy.backoff(attempt, job.seq);
                if let Some(left) = job.deadline.remaining(Instant::now()) {
                    pause = pause.min(left);
                }
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                    timings.backoff += pause;
                }
            }
        }
    }
}

/// Runs `query` with the engine panic boundary in place: a panic (an
/// injected one, or a real engine bug) resolves to
/// [`TnnError::Internal`] instead of killing the worker, and the scratch
/// — which may hold arbitrary partial state after an unwind — is
/// replaced before reuse.
fn run_isolated(
    engine: &QueryEngine,
    env: &MultiChannelEnv,
    query: &Query,
    scratch: &mut QueryScratch,
    inject_panic: bool,
) -> Result<QueryOutcome, TnnError> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            // Quiet unwind: injected chaos must not spam the panic hook,
            // while real bugs still print a backtrace.
            resume_unwind(Box::new(InjectedPanic));
        }
        engine.run_on(env, query, scratch)
    }));
    match caught {
        Ok(result) => result,
        Err(_) => {
            *scratch = engine.scratch();
            Err(TnnError::Internal)
        }
    }
}

/// The last rung of the ladder: what a job does once retries are
/// exhausted. Fallback runs execute *outside* the fault schedule (they
/// model a replica or a cheaper code path that does not contend for the
/// faulty channels), and any outcome they produce is tagged
/// [`QueryOutcome::degraded`] — delivered to the client, never cached.
fn degrade(
    inner: &Inner,
    engine: &QueryEngine,
    env: &MultiChannelEnv,
    job: &Job,
    scratch: &mut QueryScratch,
    err: TnnError,
) -> Result<QueryOutcome, TnnError> {
    let fallback = match inner.config.degradation {
        Degradation::Fail => return Err(err),
        // `Query::algorithm` rewrites only TNN-kind queries; chain and
        // round-trip variants fall back to a replica-style exact rerun.
        Degradation::Approximate => job.query.clone().algorithm(Algorithm::ApproximateTnn),
        Degradation::Replica => job.query.clone(),
    };
    run_isolated(engine, env, &fallback, scratch, false).map(|mut outcome| {
        outcome.degraded = true;
        outcome
    })
}
