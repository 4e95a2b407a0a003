//! The unified query surface: [`QueryEngine`], builder-style [`Query`]
//! requests, and the [`QueryOutcome`] they all return.
//!
//! The engine treats the channel count `k` as a first-class parameter:
//! every query kind — the four TNN algorithms, order-free and round-trip
//! routes — runs over any `k ≥ 2`-channel environment, with
//! the paper's two-channel pipeline reproduced bit-for-bit at `k = 2`:
//!
//! ```
//! use std::sync::Arc;
//! use tnn_core::{Algorithm, AnnMode, Query, QueryEngine};
//! use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
//! use tnn_geom::Point;
//! use tnn_rtree::{PackingAlgorithm, RTree};
//!
//! let params = BroadcastParams::new(64);
//! let pts: Vec<Point> =
//!     (0..60).map(|i| Point::new((i * 7 % 53) as f64, (i * 11 % 59) as f64)).collect();
//! let tree = |seed: usize| {
//!     let shifted: Vec<Point> =
//!         pts.iter().map(|p| Point::new(p.x + seed as f64, p.y)).collect();
//!     Arc::new(RTree::build(&shifted, params.rtree_params(), PackingAlgorithm::Str).unwrap())
//! };
//! let env = MultiChannelEnv::new(vec![tree(0), tree(1)], params, &[17, 42]);
//!
//! let engine = QueryEngine::new(env);
//! let outcome = engine
//!     .run(&Query::tnn(Point::new(25.0, 25.0)).algorithm(Algorithm::HybridNn))
//!     .unwrap();
//! assert_eq!(outcome.route.len(), 2);
//! # let _ = AnnMode::Exact;
//! ```
//!
//! The engine wraps a [`MultiChannelEnv`] whose internals are shared
//! behind an `Arc`, so cloning the engine (or the environment) is O(1)
//! and handles can be spread across worker threads or a future async
//! executor. Per-query phase randomization threads a
//! [`PhaseOverlay`] into the query tasks
//! instead of materializing a re-phased environment, and pooled
//! [`QueryScratch`] buffers make the casual [`QueryEngine::run`] path
//! allocation-light while [`QueryEngine::run_with`] stays zero-alloc for
//! batch runners that own one scratch per worker.

use crate::algorithms::{run_query_overlay, QueryScratch};
use crate::{Algorithm, AnnMode, AnnSpec, ChannelCost, TnnError, TnnPair};
use std::sync::Arc;
use tnn_broadcast::{InlineVec, MultiChannelEnv, PhaseOverlay, PhaseVec};
use tnn_geom::Point;
use tnn_rtree::ObjectId;
use tnn_trace::lock::{LockRank, OrderedMutex, OrderedRwLock};

/// What kind of route a [`Query`] asks for. Every kind runs over any
/// `k ≥ 2`-channel environment; `k = 2` is the paper's special case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// TNN in channel order (`p → s₁ → … → s_k`) under the given
    /// algorithm — over `k > 2` channels, the chain of the paper's
    /// future-work item 1.
    Tnn(Algorithm),
    /// Order-free TNN: the shortest route visiting every channel's
    /// dataset in *any* order (future-work item 2).
    OrderFree,
    /// Round-trip TNN: the shortest closed tour
    /// `p → s₁ → … → s_k → p` in channel order (future-work item 3).
    RoundTrip,
}

/// A builder-style query request: what to compute, from where, when, and
/// under which per-channel knobs.
///
/// Construct with [`Query::tnn`] / [`Query::order_free`] /
/// [`Query::round_trip`], refine with the
/// builder methods, then hand to [`QueryEngine::run`]. Defaults: Hybrid-NN
/// for plain TNN, exact (eNN) search on every channel, issue slot 0, the
/// environment's own channel phases, and final answer-object retrieval
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    kind: QueryKind,
    point: Point,
    issued_at: u64,
    ann: AnnSpec,
    phases: Option<PhaseVec>,
    retrieve_answer_objects: bool,
}

impl Query {
    fn new(kind: QueryKind, point: Point) -> Self {
        Query {
            kind,
            point,
            issued_at: 0,
            ann: AnnSpec::default(),
            phases: None,
            retrieve_answer_objects: true,
        }
    }

    /// A plain TNN query from `p` (defaults to [`Algorithm::HybridNn`]).
    pub fn tnn(p: Point) -> Self {
        Query::new(QueryKind::Tnn(Algorithm::HybridNn), p)
    }

    /// An order-free TNN query from `p`.
    pub fn order_free(p: Point) -> Self {
        Query::new(QueryKind::OrderFree, p)
    }

    /// A round-trip TNN query from `p`.
    pub fn round_trip(p: Point) -> Self {
        Query::new(QueryKind::RoundTrip, p)
    }

    /// Selects the TNN algorithm (only meaningful for [`Query::tnn`]
    /// requests; the extensions always estimate with Double-NN).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        if let QueryKind::Tnn(_) = self.kind {
            self.kind = QueryKind::Tnn(algorithm);
        }
        self
    }

    /// The same request from point `p` — re-targets a template query,
    /// keeping its kind, issue slot, ANN modes, phases and retrieval flag.
    pub fn at(mut self, p: Point) -> Self {
        self.point = p;
        self
    }

    /// The global slot at which the client receives the query.
    pub fn issued_at(mut self, slot: u64) -> Self {
        self.issued_at = slot;
        self
    }

    /// One ANN pruning mode for every channel.
    pub fn ann(mut self, mode: AnnMode) -> Self {
        self.ann = AnnSpec::Uniform(mode);
        self
    }

    /// Explicit per-channel ANN pruning modes, in channel order; the
    /// length is checked against the engine's channel count at execution
    /// time (panicking on mismatch, like [`MultiChannelEnv::new`] does
    /// for phases).
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn ann_modes(mut self, modes: &[AnnMode]) -> Self {
        assert!(!modes.is_empty(), "at least one ANN mode is required");
        self.ann = AnnSpec::PerChannel(InlineVec::from_slice(modes));
        self
    }

    /// Per-query channel phases, substituted for the environment's
    /// without cloning it (checked against the channel count at execution
    /// time; inline storage up to four channels).
    pub fn phases(mut self, phases: &[u64]) -> Self {
        self.phases = Some(PhaseVec::from_slice(phases));
        self
    }

    /// Whether the client finally downloads the answer objects' data
    /// pages (the paper's cost model; default `true`).
    pub fn retrieve_answer_objects(mut self, retrieve: bool) -> Self {
        self.retrieve_answer_objects = retrieve;
        self
    }

    /// The query's kind.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The query point.
    pub fn point(&self) -> Point {
        self.point
    }

    /// The slot at which the client receives the query (see
    /// [`Query::issued_at`]).
    pub fn issue_slot(&self) -> u64 {
        self.issued_at
    }

    /// The per-channel ANN specification the query carries (see
    /// [`Query::ann`] / [`Query::ann_modes`]).
    pub fn ann_spec(&self) -> &AnnSpec {
        &self.ann
    }

    /// The per-query phase substitution, if any (see [`Query::phases`]).
    pub fn phase_overrides(&self) -> Option<&[u64]> {
        self.phases.as_deref()
    }

    /// Whether the client finally downloads the answer objects' data
    /// pages (see [`Query::retrieve_answer_objects`]).
    pub fn retrieves_answer_objects(&self) -> bool {
        self.retrieve_answer_objects
    }

    /// Runs the same per-channel arity checks [`QueryEngine::run_with`]
    /// performs, eagerly. Serving front-ends call this at admission time
    /// so a malformed query panics on the *submitting* thread instead of
    /// poisoning a worker that picks the job up later.
    ///
    /// # Panics
    /// Panics when per-channel phases or ANN modes do not match the
    /// `k`-channel environment (the same conditions under which
    /// [`QueryEngine::run`] panics).
    pub fn check_channels(&self, k: usize) {
        if let Some(phases) = &self.phases {
            assert_eq!(
                phases.len(),
                k,
                "one phase per channel is required (got {} for {k} channels)",
                phases.len()
            );
        }
        // Degenerate k < 2 environments are a *recoverable* error
        // (`TnnError::WrongChannelCount`) in the pipeline, which wins
        // over the ANN arity panic — mirror that precedence here.
        if k >= 2 {
            self.ann.check_channels(k);
        }
    }

    /// Validates the query against `env` the way every
    /// [`QueryEngine::run`] does before any page is read, in one order for
    /// every kind: the phase-arity panic, the channel-count error, the
    /// ANN-arity panic, the non-finite error, then the first empty
    /// channel.
    ///
    /// # Errors
    /// [`TnnError::WrongChannelCount`] for environments with fewer than
    /// two channels; [`TnnError::NonFiniteQuery`] for NaN/infinite query
    /// points; [`TnnError::EmptyChannel`] when a channel broadcasts an
    /// empty dataset.
    ///
    /// # Panics
    /// As [`Query::check_channels`].
    pub fn validate(&self, env: &MultiChannelEnv) -> Result<(), TnnError> {
        let k = env.len();
        self.check_channels(k);
        if k < 2 {
            return Err(TnnError::WrongChannelCount {
                needed: 2,
                available: k,
            });
        }
        if !self.point.is_finite() {
            return Err(TnnError::NonFiniteQuery);
        }
        match env
            .channels()
            .iter()
            .position(|c| c.tree().num_objects() == 0)
        {
            Some(channel) => Err(TnnError::EmptyChannel { channel }),
            None => Ok(()),
        }
    }
}

/// One stop of a [`QueryOutcome`] route: where, which object, and on
/// which channel it was found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteStop {
    /// The stop's location.
    pub point: Point,
    /// The object at the stop.
    pub object: ObjectId,
    /// The channel (= dataset) index the object came from.
    pub channel: usize,
}

/// The one result shape of every query kind, with per-hop channel costs.
///
/// Every kind runs the same estimate → filter → join → retrieve pipeline
/// (see [`crate::algorithms`]), which builds the outcome directly from
/// the merged route; the equivalence gate in `crates/bench/tests`
/// asserts the engine's two-channel outcomes are byte-identical to a
/// frozen copy of the paper's pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// What was asked.
    pub kind: QueryKind,
    /// The route stops in visit order (one per channel); empty when the
    /// query failed (possible only for [`Algorithm::ApproximateTnn`]).
    pub route: Vec<RouteStop>,
    /// Total route length: transitive distance for TNN/order-free,
    /// full loop length for round-trip. `None` when the query failed.
    pub total_dist: Option<f64>,
    /// The filter-phase search radius.
    pub search_radius: f64,
    /// Slot at which the query was issued.
    pub issued_at: u64,
    /// Slot at which the estimate phase finished and the filter phase
    /// started (the issue slot for Approximate-TNN, which estimates
    /// locally).
    pub estimate_end: u64,
    /// Slot at which the whole query finished.
    pub completed_at: u64,
    /// Filter-phase candidate counts per channel, in channel order.
    pub candidates: Vec<usize>,
    /// Per-channel cost breakdown, in channel order — each route hop's
    /// channel indexes into this.
    pub channels: Vec<ChannelCost>,
}

impl QueryOutcome {
    /// **Access time** (paper metric): elapsed slots from issue to
    /// completion.
    pub fn access_time(&self) -> u64 {
        self.completed_at - self.issued_at
    }

    /// **Tune-in time** (paper metric): total pages downloaded over all
    /// channels.
    pub fn tune_in(&self) -> u64 {
        self.channels.iter().map(|c| c.total_pages()).sum()
    }

    /// Tune-in time of the estimate phase only.
    pub fn tune_in_estimate(&self) -> u64 {
        self.channels.iter().map(|c| c.estimate_pages).sum()
    }

    /// Tune-in time of the filter phase only.
    pub fn tune_in_filter(&self) -> u64 {
        self.channels.iter().map(|c| c.filter_pages).sum()
    }

    /// Peak client-queue occupancy (live queue + delayed-pruning parked
    /// list, max over channels), the client-memory figure of §4.2.4;
    /// the parked list puts it above the paper's `(H−1)(M−1)` queue
    /// bound (see [`ChannelCost::peak_queue`]). Zero for Approximate-TNN,
    /// which runs no estimate searches.
    pub fn peak_queue(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.peak_queue)
            .max()
            .unwrap_or(0)
    }

    /// Total delayed-pruning hits across channels: condemned entries
    /// the estimate searches parked instead of expanding (§4.2.4).
    pub fn prune_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.prune_hits).sum()
    }

    /// Index nodes visited ≙ index pages downloaded by the estimate and
    /// filter searches (in the broadcast cost model every visited node
    /// is one downloaded page; answer retrieval reads data pages, which
    /// [`QueryOutcome::tune_in`] adds on top).
    pub fn node_visits(&self) -> u64 {
        self.tune_in_estimate() + self.tune_in_filter()
    }

    /// `true` when no route was found.
    pub fn failed(&self) -> bool {
        self.route.is_empty()
    }

    /// Total filter-phase candidates over all channels.
    pub fn total_candidates(&self) -> usize {
        self.candidates.iter().sum()
    }

    /// The answer as a two-channel [`TnnPair`] — **plain TNN outcomes only**,
    /// `None` otherwise. Variant routes do not fit `TnnPair`'s field
    /// contract (an order-free route may visit the `R` channel first,
    /// and a round-trip `total_dist` includes the return leg), so they
    /// must be read through [`QueryOutcome::route`] /
    /// [`QueryOutcome::total_dist`] instead.
    pub fn tnn_pair(&self) -> Option<TnnPair> {
        if !matches!(self.kind, QueryKind::Tnn(_)) {
            return None;
        }
        match self.route.as_slice() {
            [first, second] => Some(TnnPair {
                s: (first.point, first.object),
                r: (second.point, second.object),
                dist: self.total_dist?,
            }),
            _ => None,
        }
    }
}

/// Upper bound on pooled scratches — enough for one per hardware thread
/// on large machines while bounding idle memory.
const MAX_POOLED_SCRATCH: usize = 64;

/// The unified query-execution engine over one shared multi-channel
/// environment.
///
/// See [`Query`] for an end-to-end example. Cloning an engine is O(1)
/// and shares the environment cell: clones (worker handles) observe
/// every [`QueryEngine::swap_env`] the moment it lands. Each clone
/// starts an empty scratch pool.
///
/// # Mutable environments
///
/// The engine holds the **current** environment snapshot behind a cell;
/// [`QueryEngine::swap_env`] publishes the next epoch while in-flight
/// queries keep running on the snapshot they took at dispatch (an
/// environment clone is O(1), so the read path stays cheap). The channel
/// count is fixed at construction — swaps must preserve it, mirroring
/// how every admitted query was validated against it.
#[derive(Debug)]
pub struct QueryEngine {
    /// The current environment snapshot, shared across engine clones.
    /// Readers clone it out (O(1)) and never hold the guard across a
    /// query; `swap_env` is the only writer.
    env: Arc<OrderedRwLock<MultiChannelEnv>>,
    /// Channel count, fixed at construction and invariant under swaps —
    /// reading it never takes the env lock.
    channels: usize,
    /// Recycled per-query buffers for the pooling [`QueryEngine::run`]
    /// path. `run_with` never touches this.
    pool: OrderedMutex<Vec<QueryScratch>>,
}

impl QueryEngine {
    /// An engine over `env`.
    pub fn new(env: MultiChannelEnv) -> Self {
        let channels = env.len();
        QueryEngine {
            env: Arc::new(OrderedRwLock::new(LockRank::CoreEnvCell, env)),
            channels,
            pool: OrderedMutex::new(LockRank::CoreScratchPool, Vec::new()),
        }
    }

    /// The current environment snapshot — an O(1) clone out of the
    /// shared cell. The snapshot is immutable and stays consistent in
    /// the caller's hands even while a concurrent
    /// [`QueryEngine::swap_env`] publishes the next epoch.
    pub fn env(&self) -> MultiChannelEnv {
        self.env.read().clone()
    }

    /// Number of broadcast channels — fixed at construction, invariant
    /// under [`QueryEngine::swap_env`], and readable without touching
    /// the environment cell.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Publishes `env` as the engine's next environment snapshot. Every
    /// engine clone (worker handles included) observes the swap on its
    /// next dispatch; queries already executing finish on the snapshot
    /// they started with. Callers advance epochs via
    /// [`MultiChannelEnv::advance`] / [`MultiChannelEnv::advance_channel`]
    /// so downstream caches see the identity change.
    ///
    /// # Errors
    /// [`TnnError::WrongChannelCount`] when `env`'s channel count
    /// differs from the engine's — admitted queries were validated
    /// against the original count, so a swap may change *data*, never
    /// *shape*.
    pub fn swap_env(&self, env: MultiChannelEnv) -> Result<(), TnnError> {
        if env.len() != self.channels {
            return Err(TnnError::WrongChannelCount {
                needed: self.channels,
                available: env.len(),
            });
        }
        *self.env.write() = env;
        Ok(())
    }

    /// Executes `query`, drawing a pooled [`QueryScratch`] (grown by
    /// earlier queries) and returning it afterwards. Worker loops that
    /// own a scratch should prefer [`QueryEngine::run_with`], which skips
    /// the pool lock entirely.
    ///
    /// # Errors
    /// [`TnnError::WrongChannelCount`] for environments with fewer than
    /// two channels (every query kind runs over any `k ≥ 2`);
    /// [`TnnError::NonFiniteQuery`] for NaN/infinite query points;
    /// [`TnnError::EmptyChannel`] when a channel broadcasts an empty
    /// dataset.
    ///
    /// # Panics
    /// Panics when per-channel phases or ANN modes in the query do not
    /// match the channel count.
    pub fn run(&self, query: &Query) -> Result<QueryOutcome, TnnError> {
        let mut scratch = self.scratch();
        let outcome = self.run_with(query, &mut scratch);
        self.recycle(scratch);
        outcome
    }

    /// [`QueryEngine::run`] with a caller-owned scratch — the zero-alloc
    /// hot path for batch runners holding one [`QueryScratch`] per worker
    /// thread. Takes the engine's current environment snapshot; callers
    /// that must pin a specific snapshot across several runs (serving
    /// workers keying a cache) use [`QueryEngine::run_on`].
    ///
    /// # Errors
    /// As [`QueryEngine::run`].
    ///
    /// # Panics
    /// As [`QueryEngine::run`].
    pub fn run_with(
        &self,
        query: &Query,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome, TnnError> {
        let env = self.env();
        self.run_on(&env, query, scratch)
    }

    /// [`QueryEngine::run_with`] against an explicit environment
    /// snapshot — the epoch-consistent path for serving workers: take
    /// one snapshot, derive the cache key from it, and execute on it,
    /// so a concurrent [`QueryEngine::swap_env`] can never wedge an
    /// answer from one epoch under a key from another.
    ///
    /// # Errors
    /// As [`QueryEngine::run`].
    ///
    /// # Panics
    /// As [`QueryEngine::run`].
    pub fn run_on(
        &self,
        env: &MultiChannelEnv,
        query: &Query,
        scratch: &mut QueryScratch,
    ) -> Result<QueryOutcome, TnnError> {
        query.validate(env)?;
        let overlay = match &query.phases {
            Some(phases) => PhaseOverlay::new(env, phases),
            None => PhaseOverlay::identity(env),
        };
        run_query_overlay(&overlay, query, scratch)
    }

    /// Draws a [`QueryScratch`] from the engine's pool (or a fresh one
    /// when the pool is empty). Long-lived worker loops — the serving
    /// front-end in `tnn-serve`, the batch runners — take one scratch up
    /// front, drive every query through [`QueryEngine::run_with`], and
    /// [`QueryEngine::recycle`] it on exit, so buffers grown by earlier
    /// queries keep amortizing across workers and server generations.
    pub fn scratch(&self) -> QueryScratch {
        self.pool.lock().pop().unwrap_or_default()
    }

    /// Returns a scratch drawn with [`QueryEngine::scratch`] to the pool
    /// (dropped silently once the pool cap is reached).
    pub fn recycle(&self, scratch: QueryScratch) {
        let mut pool = self.pool.lock();
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(scratch);
        }
    }
}

impl Clone for QueryEngine {
    fn clone(&self) -> Self {
        QueryEngine {
            // Clones share the cell, not just the snapshot: a swap on
            // any handle is observed by all of them.
            env: Arc::clone(&self.env),
            channels: self.channels,
            pool: OrderedMutex::new(LockRank::CoreScratchPool, Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tnn_broadcast::BroadcastParams;
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn cloud(n: usize, salt: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    ((i + salt) * 37 % 211) as f64,
                    ((i + salt) * 53 % 223) as f64,
                )
            })
            .collect()
    }

    fn build_env(layers: &[Vec<Point>], phases: &[u64]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = layers
            .iter()
            .map(|pts| {
                Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, phases)
    }

    fn two_channel() -> MultiChannelEnv {
        build_env(&[cloud(90, 1), cloud(110, 8)], &[13, 31])
    }

    #[test]
    fn phases_overlay_matches_rephased_env() {
        let env = two_channel();
        let engine = QueryEngine::new(env.clone());
        let p = Point::new(40.0, 160.0);
        let phases = [4_321u64, 987];
        let rephased = QueryEngine::new(env.with_phases(&phases));
        let expect = rephased
            .run(&Query::tnn(p).algorithm(Algorithm::DoubleNn))
            .unwrap();
        let got = engine
            .run(&Query::tnn(p).algorithm(Algorithm::DoubleNn).phases(&phases))
            .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn tnn_runs_over_three_and_four_channels() {
        for k in [3usize, 4] {
            let layers: Vec<Vec<Point>> = (0..k).map(|i| cloud(60 + 10 * i, 7 * i)).collect();
            let phases: Vec<u64> = (0..k as u64).map(|i| i * 13 + 3).collect();
            let env = build_env(&layers, &phases);
            let engine = QueryEngine::new(env.clone());
            let p = Point::new(150.0, 150.0);
            for alg in Algorithm::ALL {
                let got = engine
                    .run(&Query::tnn(p).algorithm(alg).issued_at(5))
                    .unwrap();
                assert_eq!(got.channels.len(), k, "{}", alg.name());
                assert_eq!(got.candidates.len(), k, "{}", alg.name());
                if alg.is_exact() {
                    assert_eq!(got.route.len(), k, "{}", alg.name());
                    let trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
                    let (_, oracle_total) = crate::exact_chain_tnn(p, &trees);
                    assert!(
                        (got.total_dist.unwrap() - oracle_total).abs() < 1e-9,
                        "{} at k={k}",
                        alg.name()
                    );
                    assert!(got.tnn_pair().is_none(), "k-hop routes are not pairs");
                }
            }
        }
    }

    #[test]
    fn variants_run_at_two_and_three_channels() {
        for layers in [
            vec![cloud(90, 1), cloud(110, 8)],
            vec![cloud(60, 1), cloud(70, 8), cloud(50, 15)],
        ] {
            let k = layers.len();
            let env = build_env(&layers, &vec![0; k]);
            let engine = QueryEngine::new(env);
            let p = Point::new(111.0, 55.0);
            let free = engine.run(&Query::order_free(p)).unwrap();
            assert_eq!(free.route.len(), k);
            assert!(free.route.first().map(|s| s.channel).is_some());

            let tour = engine.run(&Query::round_trip(p)).unwrap();
            assert_eq!(tour.route.len(), k);
            // A closed tour is never shorter than the best one-way route.
            assert!(tour.total_dist.unwrap() >= free.total_dist.unwrap() - 1e-9);
        }
    }

    /// A uniform ANN mode and the same mode spelled out per channel are
    /// one request: their outcomes are identical.
    #[test]
    fn per_channel_ann_modes_match_core_config() {
        let engine = QueryEngine::new(two_channel());
        let p = Point::new(60.0, 60.0);
        for mode in [AnnMode::Exact, AnnMode::Dynamic { factor: 1.0 }] {
            let query = Query::tnn(p).algorithm(Algorithm::DoubleNn);
            let uniform = engine.run(&query.clone().ann(mode)).unwrap();
            let per_channel = engine.run(&query.ann_modes(&[mode; 2])).unwrap();
            assert_eq!(uniform, per_channel, "{mode:?}");
        }
    }

    #[test]
    fn pooled_and_scratch_runs_agree() {
        let env = two_channel();
        let engine = QueryEngine::new(env);
        let query = Query::tnn(Point::new(10.0, 10.0));
        let pooled = engine.run(&query).unwrap();
        let mut scratch = QueryScratch::default();
        let direct = engine.run_with(&query, &mut scratch).unwrap();
        assert_eq!(pooled, direct);
        // A second pooled run reuses the recycled scratch.
        assert_eq!(engine.run(&query).unwrap(), pooled);
    }

    #[test]
    fn engine_clone_shares_environment() {
        let env = two_channel();
        let engine = QueryEngine::new(env);
        let copy = engine.clone();
        assert!(std::ptr::eq(engine.env().channels(), copy.env().channels()));
        let q = Query::round_trip(Point::new(90.0, 90.0));
        assert_eq!(engine.run(&q).unwrap(), copy.run(&q).unwrap());
    }

    #[test]
    fn swap_env_publishes_to_every_clone() {
        let engine = QueryEngine::new(two_channel());
        let copy = engine.clone();
        let q = Query::tnn(Point::new(77.0, 99.0));
        let before = engine.run(&q).unwrap();
        // Swap in an advanced environment with channel 0's dataset moved.
        let env = engine.env();
        let params = *env.channel(0).params();
        let shifted: Vec<Point> = cloud(90, 1)
            .iter()
            .map(|p| Point::new(p.x + 40.0, p.y + 40.0))
            .collect();
        let tree =
            Arc::new(RTree::build(&shifted, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        engine.swap_env(env.advance_channel(0, tree)).unwrap();
        assert_eq!(engine.env().epoch(), 1);
        assert_eq!(copy.env().epoch(), 1, "clones share the cell");
        let after_original = engine.run(&q).unwrap();
        let after_copy = copy.run(&q).unwrap();
        assert_eq!(after_original, after_copy);
        assert_ne!(
            before, after_original,
            "moved dataset must change the answer"
        );
        // A fresh engine over the swapped snapshot agrees byte-for-byte.
        let fresh = QueryEngine::new(engine.env());
        assert_eq!(fresh.run(&q).unwrap(), after_original);
    }

    #[test]
    fn swap_env_rejects_channel_count_changes() {
        let engine = QueryEngine::new(two_channel());
        let three = build_env(&[cloud(20, 0), cloud(20, 3), cloud(20, 6)], &[0, 0, 0]);
        assert_eq!(
            engine.swap_env(three).unwrap_err(),
            TnnError::WrongChannelCount {
                needed: 2,
                available: 3
            }
        );
        assert_eq!(engine.channels(), 2);
        assert_eq!(engine.env().epoch(), 0, "rejected swap changes nothing");
    }

    #[test]
    fn run_on_pins_a_snapshot_across_a_swap() {
        let engine = QueryEngine::new(two_channel());
        let q = Query::tnn(Point::new(40.0, 160.0));
        let pinned = engine.env();
        let before = engine.run(&q).unwrap();
        // Swap to a different dataset; the pinned snapshot still answers
        // like the original environment.
        let params = *pinned.channel(0).params();
        let tree = Arc::new(
            RTree::build(&cloud(33, 5), params.rtree_params(), PackingAlgorithm::Str).unwrap(),
        );
        engine.swap_env(pinned.advance_channel(0, tree)).unwrap();
        let mut scratch = QueryScratch::default();
        let on_pinned = engine.run_on(&pinned, &q, &mut scratch).unwrap();
        assert_eq!(on_pinned, before, "in-flight view stays consistent");
        assert_ne!(engine.run(&q).unwrap(), before);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let env = two_channel();
        let engine = QueryEngine::new(env);
        let outcomes: Vec<QueryOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let engine = &engine;
                    scope.spawn(move || {
                        engine
                            .run(&Query::tnn(Point::new(10.0 * i as f64, 50.0)))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| !o.failed()));
    }

    #[test]
    fn wrong_channel_counts_error() {
        // Every query kind runs over k ≥ 2 channels; a single channel is
        // rejected with the recoverable error for every kind.
        let env1 = build_env(&[cloud(20, 0)], &[0]);
        let engine = QueryEngine::new(env1);
        let p = Point::ORIGIN;
        for query in [
            Query::tnn(p),
            Query::tnn(p).algorithm(Algorithm::DoubleNn),
            Query::order_free(p),
            Query::round_trip(p),
        ] {
            assert!(
                matches!(
                    engine.run(&query),
                    Err(TnnError::WrongChannelCount {
                        needed: 2,
                        available: 1
                    })
                ),
                "{:?}",
                query.kind()
            );
        }
        // Three channels are fine for every kind now.
        let env3 = build_env(&[cloud(20, 0), cloud(20, 3), cloud(20, 6)], &[0, 0, 0]);
        let engine = QueryEngine::new(env3);
        assert!(engine.run(&Query::tnn(p)).is_ok());
        assert!(engine
            .run(&Query::tnn(p).algorithm(Algorithm::DoubleNn))
            .is_ok());
        assert!(engine.run(&Query::order_free(p)).is_ok());
        assert!(engine.run(&Query::round_trip(p)).is_ok());
        assert!(matches!(
            engine.run(
                &Query::tnn(Point::new(f64::NAN, 0.0))
                    .algorithm(Algorithm::DoubleNn)
                    .phases(&[0, 0, 0])
            ),
            Err(TnnError::NonFiniteQuery)
        ));
    }

    #[test]
    fn wrong_kind_errors_before_ann_count_panics() {
        // A per-channel ANN list that matches the *environment* must not
        // panic when the query kind itself does not fit the channel
        // count — the recoverable error wins.
        let env1 = build_env(&[cloud(20, 0)], &[0]);
        let engine = QueryEngine::new(env1);
        let result = engine.run(&Query::tnn(Point::ORIGIN).ann_modes(&[AnnMode::Exact]));
        assert!(matches!(
            result,
            Err(TnnError::WrongChannelCount {
                needed: 2,
                available: 1
            })
        ));
    }

    #[test]
    fn empty_channels_error_through_the_engine() {
        let params = BroadcastParams::new(64);
        let full = Arc::new(
            RTree::build(&cloud(30, 2), params.rtree_params(), PackingAlgorithm::Str).unwrap(),
        );
        let empty = Arc::new(RTree::empty(params.rtree_params()));
        let env = MultiChannelEnv::new(vec![full, empty], params, &[0, 0]);
        let engine = QueryEngine::new(env);
        let p = Point::ORIGIN;
        for query in [
            Query::tnn(p),
            Query::tnn(p).algorithm(Algorithm::DoubleNn),
            Query::order_free(p),
            Query::round_trip(p),
        ] {
            assert_eq!(
                engine.run(&query).unwrap_err(),
                TnnError::EmptyChannel { channel: 1 },
                "{:?}",
                query.kind()
            );
        }
    }

    #[test]
    fn delete_to_empty_then_insert_recovers_for_every_algorithm() {
        // The degenerate mutation transitions must surface as recoverable
        // errors, never panics: deleting a channel's last object yields a
        // valid empty tree (queries → EmptyChannel), and inserting into
        // the empty channel makes it queryable again.
        use tnn_rtree::{DeltaOverlay, ObjectId};
        let engine = QueryEngine::new(two_channel());
        let p = Point::new(50.0, 50.0);
        // Delete every object on channel 1 through the overlay.
        let env = engine.env();
        let mut delta = DeltaOverlay::new(Arc::clone(env.channel(1).tree_arc()));
        let ids: Vec<ObjectId> = delta.live_points().iter().map(|&(_, id)| id).collect();
        for id in ids {
            assert!(delta.delete(id));
        }
        let emptied = delta.materialize().unwrap();
        engine
            .swap_env(env.advance_channel(1, Arc::new(emptied)))
            .unwrap();
        let queries = [
            Query::tnn(p).algorithm(Algorithm::DoubleNn),
            Query::tnn(p).algorithm(Algorithm::HybridNn),
            Query::tnn(p).algorithm(Algorithm::WindowBased),
            Query::tnn(p).algorithm(Algorithm::ApproximateTnn),
            Query::order_free(p),
            Query::round_trip(p),
        ];
        for query in &queries {
            assert_eq!(
                engine.run(query).unwrap_err(),
                TnnError::EmptyChannel { channel: 1 },
                "{:?}",
                query.kind()
            );
        }
        // Insert into the emptied channel and every kind works again.
        let env = engine.env();
        let mut refill = DeltaOverlay::new(Arc::clone(env.channel(1).tree_arc()));
        refill.insert(ObjectId(0), Point::new(55.0, 55.0)).unwrap();
        refill.insert(ObjectId(1), Point::new(60.0, 45.0)).unwrap();
        let refilled = refill.materialize().unwrap();
        engine
            .swap_env(env.advance_channel(1, Arc::new(refilled)))
            .unwrap();
        assert_eq!(engine.env().epoch(), 2);
        for query in &queries {
            let outcome = engine.run(query).unwrap();
            assert!(!outcome.failed(), "{:?}", query.kind());
        }
    }

    #[test]
    #[should_panic(expected = "one phase per channel")]
    fn phase_count_mismatch_panics() {
        let engine = QueryEngine::new(two_channel());
        let _ = engine.run(&Query::tnn(Point::ORIGIN).phases(&[1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "one ANN mode per channel")]
    fn ann_count_mismatch_panics() {
        let engine = QueryEngine::new(two_channel());
        let _ = engine.run(&Query::tnn(Point::ORIGIN).ann_modes(&[AnnMode::Exact; 3]));
    }

    /// Every kind validates in one order: the ANN-arity panic wins over
    /// the non-finite error, as serve admission (`Query::check_channels`)
    /// expects.
    #[test]
    fn ann_count_mismatch_panics_before_non_finite_error_for_every_kind() {
        let engine = QueryEngine::new(two_channel());
        let nan = Point::new(f64::NAN, 0.0);
        for query in [
            Query::tnn(nan),
            Query::tnn(nan).algorithm(Algorithm::DoubleNn),
            Query::order_free(nan),
            Query::round_trip(nan),
        ] {
            let query = query.ann_modes(&[AnnMode::Exact; 3]);
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&query)))
                    .expect_err("three ANN modes on two channels must panic");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("one ANN mode per channel"),
                "{:?}: {message}",
                query.kind()
            );
        }
    }

    /// The accessors of a real engine outcome agree with its raw
    /// per-channel fields.
    #[test]
    fn outcome_metrics_match_core_run_accessors() {
        let engine = QueryEngine::new(two_channel());
        let got = engine
            .run(&Query::tnn(Point::new(33.0, 44.0)).issued_at(9))
            .unwrap();
        let c = &got.channels;
        assert_eq!(got.access_time(), got.completed_at - 9);
        assert_eq!(got.tune_in(), c[0].total_pages() + c[1].total_pages());
        assert_eq!(
            got.tune_in_estimate(),
            c[0].estimate_pages + c[1].estimate_pages
        );
        assert_eq!(got.tune_in_filter(), c[0].filter_pages + c[1].filter_pages);
        assert_eq!(
            got.total_candidates(),
            got.candidates[0] + got.candidates[1]
        );
        assert!(!got.failed());
        assert!((9..=got.completed_at).contains(&got.estimate_end));
        assert_eq!(got.peak_queue(), c[0].peak_queue.max(c[1].peak_queue));
        assert_eq!(got.prune_hits(), c[0].prune_hits + c[1].prune_hits);
        assert_eq!(
            got.node_visits(),
            got.tune_in() - c[0].retrieve_pages - c[1].retrieve_pages
        );
    }

    /// A hand-built two-channel outcome with no route (a failed query).
    fn sample_outcome() -> QueryOutcome {
        QueryOutcome {
            kind: QueryKind::Tnn(Algorithm::HybridNn),
            route: Vec::new(),
            total_dist: None,
            search_radius: 10.0,
            issued_at: 100,
            estimate_end: 150,
            completed_at: 260,
            candidates: vec![3, 4],
            channels: vec![
                ChannelCost {
                    estimate_pages: 5,
                    filter_pages: 7,
                    retrieve_pages: 16,
                    finish_time: 260,
                    peak_queue: 9,
                    prune_hits: 4,
                },
                ChannelCost {
                    estimate_pages: 2,
                    filter_pages: 3,
                    retrieve_pages: 16,
                    finish_time: 250,
                    peak_queue: 11,
                    prune_hits: 1,
                },
            ],
        }
    }

    fn stop(x: f64, object: u32, channel: usize) -> RouteStop {
        RouteStop {
            point: Point::new(x, 0.0),
            object: ObjectId(object),
            channel,
        }
    }

    #[test]
    fn metric_arithmetic() {
        let run = sample_outcome();
        assert_eq!(run.access_time(), 160);
        assert_eq!(run.tune_in(), 5 + 7 + 16 + 2 + 3 + 16);
        assert_eq!(run.tune_in_estimate(), 7);
        assert_eq!(run.tune_in_filter(), 10);
        assert_eq!(run.node_visits(), 17);
        assert_eq!(run.peak_queue(), 11, "max over channels");
        assert_eq!(run.prune_hits(), 5, "sum over channels");
        assert_eq!(run.total_candidates(), 7);
        assert!(run.failed());
        assert!(run.tnn_pair().is_none());
        assert!(
            run.route.first().map(|s| s.channel).is_none(),
            "no route, no order"
        );
        assert_eq!(run.channels[0].total_pages(), 28);
    }

    #[test]
    fn answer_pair_only_for_two_stop_routes() {
        let mut run = sample_outcome();
        run.route = vec![stop(1.0, 4, 0), stop(2.0, 9, 1)];
        run.total_dist = Some(2.0);
        let pair = run.tnn_pair().expect("two stops form a pair");
        assert_eq!(pair.s, (Point::new(1.0, 0.0), ObjectId(4)));
        assert_eq!(pair.r, (Point::new(2.0, 0.0), ObjectId(9)));
        assert_eq!(pair.dist, 2.0);
        run.route.push(stop(3.0, 1, 2));
        assert!(run.tnn_pair().is_none(), "3-hop routes do not fit a pair");
        assert!(!run.failed());
    }

    #[test]
    fn tnn_pair_is_none_for_non_tnn_kinds() {
        let mut run = sample_outcome();
        run.route = vec![stop(1.0, 4, 0), stop(2.0, 9, 1)];
        run.total_dist = Some(2.0);
        assert!(run.tnn_pair().is_some());
        for kind in [QueryKind::OrderFree, QueryKind::RoundTrip] {
            run.kind = kind;
            assert!(run.tnn_pair().is_none(), "{kind:?}");
        }
    }

    /// The paper's §4.2.4 client-memory bound `(H−1)(M−1)`, observed
    /// end-to-end through the engine outcome: every search-running
    /// algorithm stays within a generous multiple of the per-channel
    /// bound, and Approximate-TNN (no searches) reports zero.
    #[test]
    fn outcome_peak_queue_respects_paper_memory_bound() {
        let env = build_env(&[cloud(900, 3), cloud(800, 11)], &[9, 27]);
        let engine = QueryEngine::new(env.clone());
        let bound = env
            .channels()
            .iter()
            .map(|ch| {
                let h = ch.tree().height() as u64;
                let m = ch.tree().params().fanout as u64;
                4 * (h - 1) * (m - 1) + m + 1
            })
            .max()
            .unwrap();
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let got = engine
                .run(&Query::tnn(Point::new(120.0, 120.0)).algorithm(alg))
                .unwrap();
            assert!(
                (1..=bound).contains(&got.peak_queue()),
                "{}: peak queue {} vs paper-derived bound {bound}",
                alg.name(),
                got.peak_queue()
            );
        }
        let approx = engine
            .run(&Query::tnn(Point::new(120.0, 120.0)).algorithm(Algorithm::ApproximateTnn))
            .unwrap();
        assert_eq!(approx.peak_queue(), 0, "no estimate searches, no queue");
        assert_eq!(approx.prune_hits(), 0);
    }

    #[test]
    fn overflowing_distances_do_not_panic_the_join() {
        // Points at ±1e200 are finite, so `RTree::build` and
        // `Query::validate` accept them, but every route total overflows
        // to +inf. The join must still pick a route (the lowest indices
        // win the all-inf tie) instead of indexing with a "none found"
        // sentinel.
        let far = |salt: f64| {
            vec![
                Point::new(1e200, -1e200 * salt),
                Point::new(-1e200, 1e200),
                Point::new(1e200 * salt, 1e200),
            ]
        };
        for k in [2usize, 3] {
            let layers: Vec<Vec<Point>> = (0..k).map(|i| far(0.5 + i as f64 * 0.25)).collect();
            let engine = QueryEngine::new(build_env(&layers, &vec![0; k]));
            for alg in Algorithm::ALL {
                let got = engine.run(&Query::tnn(Point::ORIGIN).algorithm(alg));
                match got {
                    Ok(outcome) => {
                        assert_eq!(outcome.route.len(), k, "{} at k={k}", alg.name());
                        assert_eq!(outcome.total_dist, Some(f64::INFINITY));
                    }
                    // The search algorithms lose every candidate at this
                    // magnitude and report an empty channel instead.
                    Err(e) => {
                        assert!(
                            alg != Algorithm::ApproximateTnn
                                && matches!(e, TnnError::EmptyChannel { .. }),
                            "{} at k={k}: {e:?}",
                            alg.name()
                        );
                    }
                }
            }
        }
    }
}
