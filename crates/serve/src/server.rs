//! The worker-pool server: strict-priority multi-level submission queue,
//! deadline enforcement, backpressure, an admission-time result cache,
//! micro-batched dispatch with per-job panic isolation, fault-schedule
//! execution (retry ladder, worker respawn), and deterministic shutdown.

#![expect(
    clippy::disallowed_methods,
    reason = "deadline checks, latency histograms and retry backoff measure real elapsed time; fault decisions stay pure functions of (seed, channel, seq, attempt)"
)]

use crate::config::{Backpressure, ServeConfig, ShutdownMode};
use crate::faults::{FaultPlan, FaultStats};
use crate::ticket::{Ticket, TicketCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tnn_broadcast::MultiChannelEnv;
use tnn_core::{Query, QueryEngine, QueryKey, QueryOutcome, QueryScratch, TnnError};
use tnn_qos::{Deadline, MultiLevelQueue, Priority, Qos, ResultCache};
use tnn_trace::lock::{LockRank, OrderedMutex, OrderedMutexGuard};
use tnn_trace::{FlightRecorder, LatencyHistogram, MetricsRegistry, QueryTrace, SpanKind};

/// Upper bound on jobs one worker pops per wake-up. A window above 1
/// amortizes the queue lock and condvar traffic over micro-batches under
/// load, and a worker never waits to fill one, so a short queue pays no
/// latency for it. `BENCH_pr5`'s grid of window × queue capacity showed
/// a window of 1 paying a wake-up per job (`docs/PERF.md`), and 16 is
/// the window every caller ran.
const BATCH_WINDOW: usize = 16;

/// Upper bound on worker respawns, cumulative across the pool: a worker
/// whose serving round panics (an injected kill, or a bug outside the
/// per-job isolation) restarts in place until the pool has spent this
/// many restarts, and the next death fails the server closed (emergency
/// cancel), since endless respawn would mask a crash loop.
const MAX_WORKER_RESTARTS: u64 = 32;

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
        /// Submission-to-resolution latency of this class's completions
        /// (log₂ µs buckets; see [`LatencyHistogram`]). Jobs resolved by
        /// panic-unwind accounting are counted in `completed` but carry no
        /// latency observation.
        pub latency: LatencyHistogram => "tnn_serve_latency", "Submission-to-resolution latency",
    }
}

impl ClassStats {
    /// Per-class ticket conservation: every submission naming this class
    /// is accounted for exactly once.
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
            // Bounded by `completed` in [`ServeStats::conserved`].
            latency: _,
        } = *self;
        submitted == accepted + rejected
            && accepted == completed + shed + cancelled + expired + queued as u64 + in_flight as u64
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
        /// Completions that never touched the cache: caching disabled, a
        /// degenerate (`k < 2`) environment, an error outcome (errors are
        /// never cached), or a job abandoned by a dying worker.
        pub cache_bypass: u64 => "tnn_serve_cache_bypass_total",
            "Completions that never touched the cache",
        /// Total retry attempts over all classes.
        pub retried: u64,
        /// Worker serving rounds that panicked and respawned in place (an
        /// injected kill, or a bug that escaped per-job isolation). At most
        /// 32 restarts pool-wide; the 33rd fails the server closed.
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
    ///    (`completed = cache_hits + cache_misses + cache_bypass`).
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
            cache_bypass,
            // Class sums, checked by the `retotaled` comparison.
            retried: _,
            // Observability: the fail-closed bound on restarts is
            // enforced by `MAX_WORKER_RESTARTS` at respawn time.
            worker_restarts: _,
            classes,
        } = *self;
        *self == self.retotaled()
            && submitted == accepted + rejected
            && accepted == completed + shed + cancelled + expired + queued as u64 + in_flight as u64
            && completed == cache_hits + cache_misses + cache_bypass
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
        self.ticket
            .cell
            .resolve(Err(TnnError::Internal), Instant::now());
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
    /// The injected-fault tallies, booked when a fault is decided (all
    /// zero without a fault plan).
    faults: FaultStats,
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
    /// The engine ran on a miss and its answer was stored.
    Miss,
    /// The cache was never touched (disabled, keyless, or an error
    /// outcome, which is never stored).
    Bypass,
}

impl Inner {
    /// Settles one ticket — the only place a ticket resolves, bar
    /// [`Job`]'s drop-time safety net. Resolves the cell and books
    /// exactly one terminal counter of `class` into `stats`: the live
    /// counters at admission and shutdown, a [`BatchGuard`]'s batch
    /// tally at dispatch. A completion also books its cache class and a
    /// latency sample. `trace` (worker-settled jobs under tracing) is
    /// stamped with the result and offered to the flight recorder once
    /// the ticket resolved. The clock is read once: the ticket's
    /// resolution stamp, the latency sample and the trace's `total` are
    /// the same instant, so the histogram and the trace report exactly
    /// the [`Ticket::latency`] the client reads.
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
                *match cache {
                    CacheUse::Hit => &mut stats.cache_hits,
                    CacheUse::Miss => &mut stats.cache_misses,
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
            // The engine's paper-native cost counters of a delivered
            // answer — tune-in pages, node visits, delayed-pruning hits,
            // the peak queued + parked entries.
            match &result {
                Ok(outcome) => {
                    t.node_visits = outcome.node_visits();
                    t.prune_hits = outcome.prune_hits();
                    t.peak_queue = outcome.peak_queue();
                    t.tune_in = outcome.tune_in();
                }
                Err(_) => t.errored = true,
            }
        }
        let at = Instant::now();
        ticket.cell.resolve(result, at);
        let latency = at.saturating_duration_since(ticket.submitted_at);
        if completed {
            stats.classes[class.index()].latency.record(latency);
        }
        if let (Some(recorder), Some(mut trace)) = (&self.recorder, trace) {
            trace.total = latency;
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
    /// spawned without one, whose jobs skip the tune-in probe, the
    /// deadline re-check and the retry ladder.
    faults: Option<FaultPlan>,
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
    /// Spawns `config.workers` worker threads, each holding an O(1)
    /// clone of one engine over `env`.
    ///
    /// `config.workers = 0` is allowed and means a *paused* server:
    /// submissions queue up (and backpressure applies) but nothing
    /// executes; [`Server::shutdown`] then resolves the backlog as
    /// cancelled regardless of mode. `queue_capacity` is clamped to at
    /// least 1.
    ///
    /// Every engine run sits behind a panic boundary: a panicking run
    /// resolves only its own ticket [`TnnError::Internal`], and the rest
    /// of its micro-batch is served as usual.
    pub fn spawn(env: MultiChannelEnv, config: ServeConfig) -> Self {
        Server::spawn_faulted(env, config, None)
    }

    /// [`Server::spawn`] under a [`FaultPlan`]: before each execution
    /// attempt a worker probes every channel through the plan; a drop
    /// or outage surfaces as [`TnnError::ChannelUnavailable`] and enters
    /// the retry ladder ([`ServeConfig::retry`]), which fails closed
    /// with that error once its attempts are spent; injected engine
    /// panics resolve only their own ticket ([`TnnError::Internal`]), as
    /// real ones do on every server; injected worker kills unwind a
    /// whole serving round and exercise in-place respawn
    /// ([`ServeStats::worker_restarts`]). A zero plan injects nothing:
    /// outcomes are byte-identical to a plain [`Server::spawn`] (gated
    /// by `crates/bench/tests/fault_equivalence.rs`). Read the
    /// injected-fault tallies back with [`Server::fault_stats`].
    pub fn spawn_with_faults(env: MultiChannelEnv, config: ServeConfig, plan: FaultPlan) -> Self {
        Server::spawn_faulted(env, config, Some(plan))
    }

    fn spawn_faulted(env: MultiChannelEnv, config: ServeConfig, faults: Option<FaultPlan>) -> Self {
        let engine = QueryEngine::new(env);
        let config = ServeConfig {
            queue_capacity: config.queue_capacity.max(1),
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
                    faults: FaultStats::default(),
                    next_seq: 0,
                },
            ),
            work: Condvar::new(),
            space: Condvar::new(),
            cache,
            faults,
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
    /// backpressure, enqueue, ticket mint. Returns the guard (re-acquired
    /// after a `Block` wait), so a caller can admit several jobs under
    /// one lock, plus whether a job actually entered the queue (cache
    /// hits and dead-on-arrival deadlines resolve without one, so no
    /// worker wake-up is owed). [`Server::submit_with`] admits one job
    /// and wakes one worker; the in-crate tests hold the lock across
    /// several admissions to queue them all before the first pop.
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
            // byte-identical bytes, zero queue traffic.
            if let (Some(cache), Some(candidate)) = (&self.inner.cache, &key) {
                if let Some(outcome) = cache.lookup(candidate) {
                    break 'decide Some(Settlement::Completed(Ok(outcome), CacheUse::Hit));
                }
            }
            loop {
                if state.shutdown.is_some() {
                    break 'decide Some(Settlement::Rejected(TnnError::Cancelled));
                }
                // The deadline can pass while Block-waiting for a slot.
                if qos.deadline.expired(Instant::now()) {
                    break 'decide Some(Settlement::Expired);
                }
                if state.queue.len_of(class) < self.inner.config.queue_capacity {
                    break 'decide None;
                }
                match self.inner.config.backpressure {
                    Backpressure::Block => {
                        // A deadline bounds the sleep: on a wedged or
                        // paused server no space wake-up ever comes, and
                        // the query must still resolve
                        // `DeadlineExceeded` on time (checked at the top
                        // of the loop).
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
                            .shed_victim(class, |job| job.deadline.expired(now))
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
        self.inner
            .faults
            .as_ref()
            .map(|_| self.inner.state.lock().faults)
    }

    /// The slow-query flight recorder, `None` unless
    /// [`ServeConfig::trace`] is on. Holds the N slowest and every
    /// errored or retried [`QueryTrace`] of worker-executed jobs
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
/// (an injected worker kill, or a bug outside the per-job panic boundary
/// — either way the server must not corrupt), the guard's `Drop` books
/// the abandoned jobs as *completed with a bypassed cache* — their
/// tickets resolve [`TnnError::Internal`] through [`Job`]'s drop right
/// after this, so an outcome **was** delivered — keeping
/// [`ServeStats::conserved`] true and `in_flight` exact. The worker
/// itself respawns (bounded by [`MAX_WORKER_RESTARTS`]);
/// the server keeps serving.
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

/// Panic payload of an injected engine panic, raised with
/// `resume_unwind` so it skips the panic hook. The panic boundary
/// treats it exactly as a real engine panic.
struct InjectedPanic;

/// Panic payload of an injected worker kill (abandons the whole
/// micro-batch, not just one query).
struct InjectedKill;

/// What one execution of a job produced.
enum Executed {
    /// The job ran (possibly after retries, possibly to an error).
    /// `retries` counts the backoff pauses actually taken.
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
/// serving loop — up to [`MAX_WORKER_RESTARTS`] restarts
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
        if state.stats.worker_restarts > MAX_WORKER_RESTARTS {
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
/// up to [`BATCH_WINDOW`] in strict priority order, execute
/// it against a thread-local scratch (skipping jobs whose deadline
/// passed while queued, filling the result cache with fresh answers),
/// resolve each ticket, repeat until shutdown.
/// May unwind mid-batch under an injected worker kill; [`worker_loop`]
/// catches and respawns.
fn worker_rounds(inner: &Inner, engine: &QueryEngine) {
    let mut scratch = engine.scratch();
    let mut local: Vec<Job> = Vec::with_capacity(BATCH_WINDOW);
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
            let n = BATCH_WINDOW.min(state.queue.len());
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
            if let Some(plan) = &inner.faults {
                if plan.worker_kill(job.seq) {
                    inner.state.lock().faults.worker_kills += 1;
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
            // an entry no future submission could ever hit).
            let key = match &job.key {
                Some(key) if !key.matches_env(&env) => Some(job.query.cache_key(&env)),
                other => other.clone(),
            };
            // Second cache probe, at dequeue: duplicates that were still
            // queued behind their first occurrence (each missed its
            // admission probe because none of them had run yet) hit here
            // instead of re-running the engine. A hit also skips the
            // fault schedule entirely: a cached answer needs no tune-in.
            // A keyless (or cacheless) job never consults the cache.
            if let (Some(key), Some(cache)) = (&key, &inner.cache) {
                let probe_started = trace.as_ref().map(|_| Instant::now());
                let looked = cache.lookup(key);
                if let (Some(t), Some(started)) = (trace.as_mut(), probe_started) {
                    t.span(
                        SpanKind::CacheProbe,
                        Instant::now().saturating_duration_since(started),
                    );
                }
                if let Some(outcome) = looked {
                    let hit = Settlement::Completed(Ok(outcome), CacheUse::Hit);
                    inner.settle(&mut guard.booked, job.class, &job.ticket, hit, trace);
                    continue;
                }
            }
            let run_started = trace.as_ref().map(|_| Instant::now());
            let mut backoff = Duration::ZERO;
            let executed = run_job(inner, engine, &env, &job, &mut scratch, &mut backoff);
            if let (Some(t), Some(started)) = (trace.as_mut(), run_started) {
                let elapsed = Instant::now().saturating_duration_since(started);
                t.span(SpanKind::EngineRun, elapsed.saturating_sub(backoff));
                if !backoff.is_zero() {
                    t.span(SpanKind::RetryBackoff, backoff);
                }
            }
            let (settlement, retries, attempts) = match executed {
                Executed::Expired { retries } => (Settlement::Expired, retries, retries),
                Executed::Done { result, retries } => {
                    // The miss was probed above under the same key and
                    // cache, so the answer is stored where it missed.
                    let cache_use = match (&result, &key, &inner.cache) {
                        (Ok(outcome), Some(key), Some(cache)) => {
                            cache.insert(key.clone(), outcome.clone());
                            CacheUse::Miss
                        }
                        // Errors are never cached: a transient fault must
                        // not mask the exact answer a later healthy run
                        // would produce.
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

/// Executes one job: the engine run behind the panic boundary of
/// [`run_isolated`], the one engine call of every server.
///
/// A server without a fault plan runs the engine straight away, with no
/// probe, no ladder and no extra clock read. A faulted server first
/// probes every channel tune-in; a recoverable
/// [`TnnError::ChannelUnavailable`] enters the retry ladder (capped
/// exponential backoff with deterministic jitter, bounded by
/// [`tnn_qos::RetryPolicy::max_attempts`] and the job's deadline — a
/// retry never outlives the submitter's deadline). A ladder that spends
/// its attempts fails closed with the last `ChannelUnavailable`; one
/// that meets the deadline first resolves [`Executed::Expired`]. The
/// backoff sleeps are added to `backoff`, so the caller's engine-run
/// span can leave them out.
fn run_job(
    inner: &Inner,
    engine: &QueryEngine,
    env: &MultiChannelEnv,
    job: &Job,
    scratch: &mut QueryScratch,
    backoff: &mut Duration,
) -> Executed {
    let mut retries: u64 = 0;
    let mut inject = false;
    if let Some(plan) = &inner.faults {
        let policy = inner.config.retry;
        let mut attempt: u32 = 0; // failed tune-ins so far (advances outages)
        loop {
            if job.deadline.expired(Instant::now()) {
                return Executed::Expired { retries };
            }
            let round =
                plan.check_tune_in(env.len(), job.seq, attempt, &mut inner.state.lock().faults);
            let Err(err) = round else {
                break;
            };
            attempt += 1;
            if attempt >= policy.max_attempts.max(1) {
                return Executed::Done {
                    result: Err(err),
                    retries,
                };
            }
            retries += 1;
            let mut pause = policy.backoff(attempt, job.seq);
            if let Some(left) = job.deadline.remaining(Instant::now()) {
                pause = pause.min(left);
            }
            if !pause.is_zero() {
                std::thread::sleep(pause);
                *backoff += pause;
            }
        }
        inject = plan.engine_panic(job.seq);
        if inject {
            inner.state.lock().faults.engine_panics += 1;
        }
    }
    Executed::Done {
        result: run_isolated(engine, env, &job.query, scratch, inject),
        retries,
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

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_broadcast::BroadcastParams;
    use tnn_geom::{Point, Rect};
    use tnn_qos::CacheConfig;
    use tnn_rtree::{PackingAlgorithm, RTree};

    /// `k` uniform channels of 120 points (`k ≤ 3`).
    fn env(k: usize) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let trees = (0..k as u64)
            .map(|i| {
                let pts = tnn_datasets::uniform_points(120, &region, 0x150 + i);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, &[3, 8, 13][..k])
    }

    fn point(i: usize) -> Point {
        Point::new(((i * 131) % 1000) as f64, ((i * 173) % 1000) as f64)
    }

    /// The three classes in turn, most urgent first.
    fn class_of(i: usize) -> Qos {
        [Qos::interactive(), Qos::batch(), Qos::background()][i % 3]
    }

    /// Admits every submission under one held state lock with one
    /// submission stamp, then wakes the workers: everything is queued
    /// before the first pop, and latency order is completion order.
    /// Submissions must fit their lanes: a `Block` wait here would sleep
    /// with no worker woken.
    fn admit_all(server: &Server, submissions: Vec<(Query, Qos)>) -> Vec<Ticket> {
        // Keys are derived before the lock, as `submit_with` does.
        let keys: Vec<_> = submissions
            .iter()
            .map(|(query, _)| server.derive_key(query))
            .collect();
        let submitted_at = Instant::now();
        let mut state = server.inner.state.lock();
        let mut tickets = Vec::new();
        for ((query, qos), key) in submissions.into_iter().zip(keys) {
            let (next, ticket, _) = server.admit(state, query, key, qos, submitted_at);
            state = next;
            tickets.push(ticket.unwrap());
        }
        drop(state);
        server.inner.work.notify_all();
        tickets
    }

    /// A server without a fault plan catches a real engine panic per
    /// job: only the panicking job resolves `Internal`, its batch-mates
    /// get their answers, and no worker restarts.
    #[test]
    fn a_plain_server_isolates_a_real_engine_panic_per_job() {
        let server = Server::spawn(
            env(2),
            ServeConfig::new().workers(1).cache(CacheConfig::disabled()),
        );
        let good = Query::tnn(Point::new(300.0, 400.0));
        // Three phases on a two-channel environment: `run_on` panics.
        // `submit` would refuse it on the caller's thread, so the test
        // admits it directly, in one micro-batch with two good ones.
        let bad = good.clone().phases(&[0, 0, 0]);
        let tickets = admit_all(
            &server,
            [good.clone(), bad, good.clone()]
                .into_iter()
                .map(|query| (query, Qos::default()))
                .collect(),
        );
        let answer = server.engine().run(&good);
        assert_eq!(tickets[1].wait(), Err(TnnError::Internal));
        assert_eq!(tickets[0].wait(), answer);
        assert_eq!(tickets[2].wait(), answer);
        let stats = server.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.worker_restarts, 0);
        assert_eq!(stats.completed, 3);
        assert!(stats.conserved(), "{stats:?}");
    }

    /// Everything queued before the first pop is served in strict
    /// priority order, FIFO within a class. In that service order —
    /// sorted by (class, submission index) — the completed tickets form
    /// a prefix (a `Cancel` shutdown cuts the order, never inverts it)
    /// and their latencies never fall. Cases: a background block
    /// submitted ahead of an interactive one, and the three classes
    /// interleaved at k = 2 and 3, under `Drain`; the interleaving again
    /// under `Cancel`.
    #[test]
    fn jobs_queued_before_the_first_pop_complete_in_priority_then_fifo_order() {
        let background_first: fn(usize) -> Qos =
            |i| [Qos::background(), Qos::interactive()][usize::from(i >= 30)];
        let cases = [
            (2, background_first, ShutdownMode::Drain),
            (2, class_of, ShutdownMode::Drain),
            (3, class_of, ShutdownMode::Drain),
            (2, class_of, ShutdownMode::Cancel),
        ];
        for (k, class, mode) in cases {
            let server = Server::spawn(
                env(k),
                ServeConfig::new().workers(1).cache(CacheConfig::disabled()),
            );
            let submissions: Vec<_> = (0..60 + 30 * k)
                .map(|i| (Query::tnn(point(i)), class(i)))
                .collect();
            let mut order: Vec<(usize, usize)> = submissions
                .iter()
                .enumerate()
                .map(|(i, (_, qos))| (qos.priority.index(), i))
                .collect();
            order.sort_unstable();
            let tickets = admit_all(&server, submissions);
            // Let the worker pop a micro-batch first, so that a `Cancel`
            // cuts the service order after a non-empty prefix.
            let (_, first) = order[0];
            assert!(tickets[first].wait().is_ok());
            let stats = server.shutdown(mode);
            assert!(stats.conserved(), "{stats:?}");
            let mut cancelled = 0;
            let mut last = Duration::ZERO;
            for (class, i) in order {
                match tickets[i].poll().expect("shutdown resolves everything") {
                    Ok(_) => {
                        assert_eq!(
                            cancelled, 0,
                            "job {i} (class {class}) ran after a more urgent or \
                             older one was cancelled (k={k}, {mode:?})"
                        );
                        let latency = tickets[i].latency().unwrap();
                        assert!(
                            latency >= last,
                            "job {i} (class {class}) completed out of priority \
                             or FIFO order (k={k}, {mode:?})"
                        );
                        last = latency;
                    }
                    Err(TnnError::Cancelled) => cancelled += 1,
                    Err(other) => panic!("unexpected outcome {other:?}"),
                }
            }
            if mode == ShutdownMode::Drain {
                assert_eq!(cancelled, 0, "drain completes everything");
            }
        }
    }

    /// Identical queries queued before the first pop run the engine once
    /// on a one-worker server: all eight miss the admission probe (none
    /// has run yet), the worker's first run fills the cache, and the
    /// seven duplicates queued behind it hit the dequeue probe —
    /// byte-identical answers, one engine run.
    #[test]
    fn identical_queued_misses_run_the_engine_once() {
        let server = Server::spawn(env(2), ServeConfig::new().workers(1));
        let query = Query::order_free(Point::new(250.0, 750.0)).issued_at(5);
        let want = server.engine().run(&query).unwrap();
        let tickets = admit_all(&server, vec![(query, Qos::default()); 8]);
        for ticket in tickets {
            assert_eq!(
                ticket.wait().unwrap(),
                want,
                "same bytes for every duplicate"
            );
        }
        let stats = server.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.cache_misses, 1, "one engine run for eight arrivals");
        assert_eq!(stats.cache_hits, 7, "{stats:?}");
        assert_eq!(stats.completed, 8);
        assert!(stats.conserved(), "{stats:?}");
    }

    /// Each class's latency histogram holds exactly the latencies its
    /// tickets report: one sample per completed ticket, with the same
    /// sum at the histogram's microsecond grain. 300 submissions over
    /// the three classes: 100 queries queued twice each before the
    /// first pop (one miss and one dequeue hit per query), then each
    /// submitted once more (admission hits).
    #[test]
    fn class_latency_histograms_record_the_ticket_latencies() {
        let server = Server::spawn(env(2), ServeConfig::new().workers(1));
        let query = |i: usize| Query::tnn(point(i % 100));
        let twice: Vec<_> = (0..200).map(|i| (query(i), class_of(i))).collect();
        let mut tickets: Vec<(Priority, Ticket)> = twice
            .iter()
            .map(|(_, qos)| qos.priority)
            .zip(admit_all(&server, twice.clone()))
            .collect();
        for (_, ticket) in &tickets {
            ticket.wait().unwrap();
        }
        for i in 200..300 {
            let qos = class_of(i);
            tickets.push((qos.priority, server.submit_with(query(i), qos).unwrap()));
        }
        let stats = server.shutdown(ShutdownMode::Drain);
        // All 200 first-round jobs missed at admission, so one miss per
        // query means 100 dequeue hits; the last 100 hit at admission.
        assert_eq!((stats.cache_misses, stats.cache_hits), (100, 200));
        for class in Priority::ALL {
            let latencies: Vec<Duration> = tickets
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, ticket)| ticket.latency().unwrap())
                .collect();
            let histogram = stats.class(class).latency;
            assert_eq!(
                histogram.count(),
                latencies.len() as u64,
                "{}",
                class.name()
            );
            let micros = latencies
                .iter()
                .map(|l| Duration::from_micros(l.as_micros() as u64))
                .sum::<Duration>();
            assert_eq!(histogram.sum(), micros, "{}", class.name());
        }
    }
}
