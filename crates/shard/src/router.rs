//! The scatter-gather router: one [`tnn_serve::Server`] pool per
//! eligible shard, a transitive-bound pruner in front of them, and a
//! final merge through the same k-layer chain join the unsharded
//! pipelines use.
//!
//! ## Why the sharded answer is byte-identical
//!
//! Every query kind minimizes a sum of hop distances along its route, so
//! the triangle inequality bounds each stop of an optimal route by the
//! route's own total `T*`: `dis(p, s) ≤ T*` for the open kinds and
//! `2·dis(p, s) ≤ T*` for round-trip tours. Any *feasible* route total
//! `B ≥ T*` therefore yields a circle around `p` guaranteed to contain
//! every optimal stop — exactly Theorem 1 of the paper, applied at the
//! cluster level. The router obtains `B` by scattering the query to
//! shard-local servers (each answers over its own slice, and any
//! shard-local route is globally feasible because shard objects are
//! real dataset objects), gathers all candidates within the `B`-circle
//! from every shard sub-tree, and joins them with
//! [`tnn_core::merge_route_layers`] — the *same* function the unsharded
//! pipelines call, folding the same distances in the same order, so the
//! winning route and its total come out bit-for-bit identical.
//!
//! Shards whose MBR lower bound [`Rect::min_dist_sq`] exceeds the
//! current bound are pruned from both phases; pruning can only skip
//! sub-trees that provably contain no optimal stop, so it never changes
//! the answer (gated in `crates/bench/tests/shard_equivalence.rs`).
//!
//! [`Rect::min_dist_sq`]: tnn_geom::Rect::min_dist_sq

use crate::config::ShardConfig;
use crate::partition::ShardPlan;
use crate::stats::ShardStats;
use std::time::Duration;
use tnn_broadcast::MultiChannelEnv;
use tnn_core::{
    approximate_radius_for_env, merge_route_layers, pad_radius, Algorithm, JoinScratch,
    MergedRoute, Query, QueryKind, RouteObjective, RouteStop, TnnError,
};
use tnn_geom::{Circle, Point};
use tnn_rtree::ObjectId;
use tnn_serve::{ServeStats, Server, ShutdownMode, Ticket};
use tnn_trace::lock::{LockRank, OrderedMutex, OrderedRwLock};
use tnn_trace::{FlightRecorder, MetricsRegistry, QueryTrace, SpanKind};

/// The result of one sharded query: the merged route (byte-identical to
/// an unsharded [`tnn_core::QueryEngine::run`] of the same query) plus
/// per-query scatter-gather accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// What was asked.
    pub kind: QueryKind,
    /// The merged route, one stop per channel in visit order. Empty only
    /// for a failed [`Algorithm::ApproximateTnn`] query (the one
    /// non-guaranteed algorithm).
    pub route: Vec<RouteStop>,
    /// The route's total length under the kind's objective; `None` when
    /// the query failed.
    pub total_dist: Option<f64>,
    /// The gather radius actually searched (the transitive bound after
    /// scatter, padded like the engine's filter radius).
    pub search_radius: f64,
    /// Sub-queries admitted by shard servers for this query.
    pub shards_scattered: usize,
    /// Shards the transitive bound pruned from the scatter phase.
    pub shards_pruned: usize,
    /// Whether the gather bound had to be computed locally because no
    /// shard could answer a whole sub-query (no eligible shard, or all
    /// scatters were refused).
    pub fallback: bool,
}

/// One environment epoch's serving structure: the environment, its
/// partitioning, and the shard servers built over it. Swapped as a unit
/// by [`ShardRouter::swap_env`] — queries hold a read guard on the
/// current topology for their whole scatter-gather pass, so a swap or a
/// shutdown (which take the write side) never tears a query between
/// epochs or between a live and a stopped fleet.
struct Topology {
    env: MultiChannelEnv,
    plan: ShardPlan,
    /// One server per eligible shard (a shard holding objects of every
    /// channel), in ascending shard order; an ineligible shard serves
    /// nothing and has no entry. Emptied by [`ShardRouter::shutdown`],
    /// which banks the servers' final stats in the ledger first.
    servers: Vec<ShardServer>,
    /// Set by [`ShardRouter::shutdown`]: the router refuses every query
    /// and swap from then on.
    shut: bool,
}

/// An eligible shard and the server answering its sub-queries.
struct ShardServer {
    shard: usize,
    server: Server,
}

fn build_topology(env: MultiChannelEnv, config: &ShardConfig) -> Topology {
    let plan = ShardPlan::build(&env, config);
    let servers = plan
        .eligible_shards()
        .iter()
        .map(|&shard| ShardServer {
            shard,
            server: Server::spawn(plan.shard_env(shard).clone(), config.serve),
        })
        .collect();
    Topology {
        env,
        plan,
        servers,
        shut: false,
    }
}

/// Scatter-gather front-end over a spatially sharded environment.
///
/// [`ShardRouter::spawn`] partitions the environment (see
/// [`ShardPlan`]), starts one [`Server`] per *eligible* shard (a shard
/// holding objects of every channel), and then answers queries by
/// scatter → prune → gather → merge:
///
/// 1. **Scatter** the query to the primary shard (smallest
///    [`tnn_geom::Rect::min_max_dist_sq`] to the query point — the
///    shard guaranteed to contain a nearby object), seeding the
///    transitive bound `B` with its sub-route total; then to every
///    other eligible shard the bound does not prune, tightening `B`
///    with each sub-result.
/// 2. **Gather** every candidate within the `B`-circle from every
///    shard sub-tree (pruning whole sub-trees by root-MBR distance).
/// 3. **Merge** the per-channel candidate layers through
///    [`tnn_core::merge_route_layers`] — the same k-layer chain join
///    the unsharded pipelines end in — into the final route.
///
/// ```
/// use std::sync::Arc;
/// use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
/// use tnn_core::Query;
/// use tnn_geom::Point;
/// use tnn_rtree::{PackingAlgorithm, RTree};
/// use tnn_serve::{ServeConfig, ShutdownMode};
/// use tnn_shard::{ShardConfig, ShardRouter};
///
/// let params = BroadcastParams::new(64);
/// let pts: Vec<Point> =
///     (0..60).map(|i| Point::new((i * 7 % 53) as f64, (i * 11 % 59) as f64)).collect();
/// let tree = |seed: usize| {
///     let shifted: Vec<Point> =
///         pts.iter().map(|p| Point::new(p.x + seed as f64, p.y)).collect();
///     Arc::new(RTree::build(&shifted, params.rtree_params(), PackingAlgorithm::Str).unwrap())
/// };
/// let env = MultiChannelEnv::new(vec![tree(0), tree(1)], params, &[17, 42]);
///
/// let router = ShardRouter::spawn(
///     env,
///     ShardConfig::new().shards(4).serve(ServeConfig::new().workers(1)),
/// );
/// let outcome = router.run(&Query::tnn(Point::new(25.0, 25.0))).unwrap();
/// assert_eq!(outcome.route.len(), 2);
/// router.shutdown(ShutdownMode::Drain);
/// ```
pub struct ShardRouter {
    /// The current serving topology (environment + plan + shard
    /// servers). Queries read-lock it for their whole scatter-gather
    /// pass; [`ShardRouter::swap_env`] and [`ShardRouter::shutdown`]
    /// write-lock it, so each takes effect between queries.
    topology: OrderedRwLock<Topology>,
    config: ShardConfig,
    /// The router's one stats ledger: its scatter-gather counters, and
    /// in [`ShardStats::serve`] the final stats of every shard server
    /// that is no longer live (retired by a swap or stopped by
    /// shutdown). [`ShardRouter::stats`] adds the live servers' fold.
    ledger: OrderedMutex<ShardStats>,
    /// The router-level flight recorder, `Some` when the shard servers'
    /// [`tnn_serve::ServeConfig::trace`] is on. Router traces carry the
    /// scatter/gather waits (derived from sub-ticket latencies — this
    /// crate reads no clock itself) and the folded engine counters of
    /// every scattered sub-outcome; per-sub-query traces live in each
    /// shard server's own recorder.
    recorder: Option<FlightRecorder>,
}

impl ShardRouter {
    /// Spawns a router over `env`.
    pub fn spawn(env: MultiChannelEnv, config: ShardConfig) -> Self {
        let recorder = config.serve.trace.recorder().map(FlightRecorder::new);
        ShardRouter {
            topology: OrderedRwLock::new(LockRank::ShardTopology, build_topology(env, &config)),
            config,
            ledger: OrderedMutex::new(LockRank::ShardLedger, ShardStats::default()),
            recorder,
        }
    }

    /// A snapshot of the full (unsharded) environment currently being
    /// served — O(1): channels sit behind a shared `Arc`. Carries the
    /// epoch/fingerprint of the topology queries run against right now.
    pub fn env(&self) -> MultiChannelEnv {
        self.topology.read().env.clone()
    }

    /// The configuration the router was spawned with.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// A snapshot of the partitioning the router currently scatters
    /// over (rebuilt by every [`ShardRouter::swap_env`]).
    pub fn plan(&self) -> ShardPlan {
        self.topology.read().plan.clone()
    }

    /// Publishes `env` as the serving environment: re-partitions the
    /// data, spawns fresh shard servers over the new slices, and swaps
    /// them in atomically (in-flight queries finish on the topology they
    /// started with — the swap waits for their read guards). The old
    /// servers are drained and their final serving stats banked in the
    /// ledger before any query runs on the new topology, so
    /// [`ShardStats`] conservation holds across the swap. Scatter
    /// sub-queries admitted after the swap carry the new environment's
    /// epoch/fingerprint in their cache keys, so shard caches can never
    /// replay pre-swap answers — and the old servers' caches retire
    /// wholesale with them.
    ///
    /// # Errors
    /// [`TnnError::WrongChannelCount`] when `env`'s channel count
    /// differs from the current environment's (a swap changes data,
    /// never shape), and [`TnnError::Cancelled`] after
    /// [`ShardRouter::shutdown`] — a shut-down router stays shut, also
    /// when the shutdown lands while the new servers are being built.
    pub fn swap_env(&self, env: MultiChannelEnv) -> Result<(), TnnError> {
        {
            let topology = self.topology.read();
            if topology.shut {
                return Err(TnnError::Cancelled);
            }
            let needed = topology.env.len();
            if env.len() != needed {
                return Err(TnnError::WrongChannelCount {
                    needed,
                    available: env.len(),
                });
            }
        }
        // Partitioning and server spawn happen *before* the write lock:
        // queries keep flowing on the old topology while the new one
        // warms up.
        let fresh = build_topology(env, &self.config);
        let mut topology = self.topology.write();
        if topology.shut {
            // Shut down meanwhile. The fresh servers never saw a query;
            // dropping a server drains it.
            drop(topology);
            drop(fresh);
            return Err(TnnError::Cancelled);
        }
        let old = std::mem::replace(&mut *topology, fresh);
        // The retirees are idle — every query that scattered to them has
        // finished, or the write guard would not be ours — so draining
        // them here is quick, and banking their final counters before the
        // guard drops keeps every stats snapshot exact.
        let retired: Vec<ServeStats> = old
            .servers
            .iter()
            .map(|s| s.server.shutdown(ShutdownMode::Drain))
            .collect();
        let mut ledger = self.ledger.lock();
        ledger.serve.merge(&ServeStats::fold(&retired));
        ledger.retired_replicas += retired.len() as u64;
        ledger.env_swaps += 1;
        Ok(())
    }

    /// Runs `query`: scatter → prune → gather → merge.
    ///
    /// # Errors
    /// [`TnnError::Cancelled`] once [`ShardRouter::shutdown`] has run,
    /// as [`Server::submit`] does. Otherwise exactly the validation
    /// errors of [`tnn_core::QueryEngine::run`]:
    /// [`TnnError::WrongChannelCount`], [`TnnError::NonFiniteQuery`],
    /// [`TnnError::EmptyChannel`] — with identical precedence, so the
    /// equivalence gates compare errors too. Scatter-phase refusals or
    /// sub-query errors never fail the query; they only weaken the
    /// gather bound.
    ///
    /// # Panics
    /// As [`tnn_core::QueryEngine::run`]: per-channel phase or ANN-mode
    /// lists that do not match the environment's channel count.
    pub fn run(&self, query: &Query) -> Result<ShardOutcome, TnnError> {
        // The read guard pins one topology for the whole scatter-gather
        // pass: a concurrent swap_env or shutdown waits until every
        // in-flight query releases it, so no query ever mixes epochs or
        // scatters past shutdown.
        let topology = self.topology.read();
        if topology.shut {
            return Err(TnnError::Cancelled);
        }
        let seq = {
            let mut ledger = self.ledger.lock();
            ledger.queries += 1;
            ledger.queries - 1
        };
        let mut trace = self.recorder.as_ref().map(|_| QueryTrace::new(seq));
        // The tally never books `scattered` or `scatter_rejected`: the
        // shard servers' own ledgers count every submission, and
        // `stats` reads both fields from them.
        let mut tally = ShardStats::default();
        let routed = self.route(&topology, query, &mut tally, &mut trace);
        self.ledger.lock().merge(&tally);
        if routed.is_ok() {
            self.seal_trace(trace);
        }
        routed
    }

    /// The scatter-gather pass of [`ShardRouter::run`], tallying into
    /// `tally` (merged into the ledger once, whatever the exit).
    fn route(
        &self,
        topology: &Topology,
        query: &Query,
        tally: &mut ShardStats,
        trace: &mut Option<QueryTrace>,
    ) -> Result<ShardOutcome, TnnError> {
        query.validate(&topology.env)?;
        let p = query.point();
        let kind = query.kind();
        let (algorithm, objective) = RouteObjective::plan(kind);

        // Approximate-TNN's radius is a *global* density artifact (eq. 1
        // over the full region and cardinalities); shard sub-queries
        // would each derive a different radius from their slice and the
        // non-guaranteed failure behavior would diverge from the
        // unsharded run. So: no scatter — gather with exactly the
        // full-environment radius and join, reproducing the engine's
        // answer (including its failures) bit-for-bit.
        if algorithm == Algorithm::ApproximateTnn {
            let radius = pad_radius(approximate_radius_for_env(&topology.env));
            let layers = gather(topology, p, radius, tally);
            let mut join = JoinScratch::default();
            let merged = merge_route_layers(&mut join, objective, p, &layers, None);
            return Ok(outcome(kind, merged, radius, 0, tally, false));
        }

        // -- Scatter: seed and tighten the transitive bound B ---------
        let mut bound = f64::INFINITY;
        let mut scattered = 0;
        // The primary shard minimizes min_max_dist_sq to p — the classic
        // R-tree guarantee that it *does* contain an object near p, so
        // its sub-route seeds a tight bound. `None` when no shard is
        // eligible.
        let primary = topology.servers.iter().min_by(|a, b| {
            let da = shard_mbr(&topology.plan, a.shard).min_max_dist_sq(p);
            let db = shard_mbr(&topology.plan, b.shard).min_max_dist_sq(p);
            da.total_cmp(&db)
        });
        if let Some(primary) = primary {
            // The scatter wait is the primary sub-ticket's own
            // submission-to-resolution latency — this crate reads no
            // clock (R1), the shard server stamped it.
            let primary_wait = scatter(&[primary], query, &mut bound, &mut scattered, tally, trace);
            if let (Some(t), Some(latency)) = (trace.as_mut(), primary_wait) {
                t.span(SpanKind::ShardScatter, latency);
            }
            // Every stop of an optimal route lies within B of p (B/2
            // for tours) — shards entirely farther than that cannot
            // improve the route and are pruned. Survivors run
            // concurrently across their shard servers; the waits fold
            // the bound down in ascending shard order.
            let survivors: Vec<&ShardServer> = topology
                .servers
                .iter()
                .filter(|s| s.shard != primary.shard)
                .filter(|s| {
                    let far = objective
                        .out_of_reach(shard_mbr(&topology.plan, s.shard).min_dist(p), bound);
                    tally.scatter_pruned += u64::from(far);
                    !far
                })
                .collect();
            // Surviving sub-queries run concurrently, so the gather
            // wait is the *max* sub-ticket latency, not the sum.
            let gather_wait = scatter(&survivors, query, &mut bound, &mut scattered, tally, trace);
            if let (Some(t), Some(wait)) = (trace.as_mut(), gather_wait) {
                if !wait.is_zero() {
                    t.span(SpanKind::ShardGather, wait);
                }
            }
        }
        let fallback = !bound.is_finite();
        if fallback {
            // No shard answered (no eligible shard, or every scatter was
            // refused): bound the gather with any feasible route,
            // computed locally — first object of each channel, walked in
            // channel order (plus the hop home for tours). Correctness
            // only needs *feasibility*.
            tally.fallbacks += 1;
            let firsts = topology.env.channels().iter().map(|channel| {
                #[expect(
                    clippy::expect_used,
                    reason = "Query::validate rejected empty channels before any query runs, so every tree yields an object"
                )]
                let (stop, _) = channel
                    .tree()
                    .objects_in_leaf_order()
                    .next()
                    .expect("validation rejected empty channels");
                stop
            });
            bound = objective.route_total(p, firsts);
        }

        // -- Gather and merge -----------------------------------------
        let radius = pad_radius(objective.filter_radius(bound));
        let layers = gather(topology, p, radius, tally);
        let mut join = JoinScratch::default();
        // The gather bound comes from a feasible route, so every layer
        // holds that route's stop and the merge cannot come up empty —
        // but a defect here must surface as an error, not a panic in
        // whatever thread runs the router.
        let merged =
            merge_route_layers(&mut join, objective, p, &layers, None).ok_or(TnnError::Internal)?;
        Ok(outcome(
            kind,
            Some(merged),
            radius,
            scattered,
            tally,
            fallback,
        ))
    }

    /// Seals and records a router-level trace. Its total is the span
    /// sum — every duration here is derived from sub-ticket latencies,
    /// this crate never reads a clock (R1 determinism) — so totals are
    /// an under-estimate that excludes the local gather/merge work.
    fn seal_trace(&self, trace: Option<QueryTrace>) {
        if let (Some(recorder), Some(mut trace)) = (&self.recorder, trace) {
            trace.total = trace.span_sum();
            recorder.record(trace);
        }
    }

    /// A snapshot of the router's stats: the ledger (its counters, and
    /// the final stats of every server retired by a swap or stopped by
    /// [`ShardRouter::shutdown`]) plus the fold of the live shard
    /// servers' serving stats, read under one topology guard so a
    /// concurrent swap never counts a server twice or not at all. After
    /// shutdown no server is live and the snapshot stays frozen.
    ///
    /// The shard servers take submissions from the router only, so
    /// `scattered` and `scatter_rejected` are the fold's `accepted` and
    /// `rejected`: each server books an admission decision atomically,
    /// and a snapshot taken mid-scatter conserves.
    pub fn stats(&self) -> ShardStats {
        let topology = self.topology.read();
        let live: Vec<ServeStats> = topology.servers.iter().map(|s| s.server.stats()).collect();
        let mut stats = self.ledger.lock().clone();
        stats.serve.merge(&ServeStats::fold(&live));
        stats.scattered = stats.serve.accepted;
        stats.scatter_rejected = stats.serve.rejected;
        stats
    }

    /// Shuts every shard server down under `mode` and returns the final
    /// stats. Idempotent; later [`ShardRouter::stats`] calls return the
    /// same numbers, and later [`ShardRouter::run`] and
    /// [`ShardRouter::swap_env`] calls return [`TnnError::Cancelled`].
    pub fn shutdown(&self, mode: ShutdownMode) -> ShardStats {
        // Stop the fleet first, under a read guard: in-flight sub-queries
        // resolve per `mode` and later scatters are refused, so every
        // query still running finishes promptly (one waiting on a paused
        // server's backlog included).
        {
            let topology = self.topology.read();
            for s in &topology.servers {
                s.server.shutdown(mode);
            }
        }
        // Then bank the fleet. The write guard waits those queries out,
        // so no scatter can grow the ledger past it. Servers shut above
        // just return their final stats again; a swap that landed in
        // between published fresh ones, which shut here.
        let mut topology = self.topology.write();
        if !topology.shut {
            let stopped: Vec<ServeStats> = topology
                .servers
                .iter()
                .map(|s| s.server.shutdown(mode))
                .collect();
            self.ledger.lock().serve.merge(&ServeStats::fold(&stopped));
            topology.servers.clear();
            topology.shut = true;
        }
        drop(topology);
        self.stats()
    }

    /// The router-level flight recorder, `None` unless the shard
    /// servers' [`tnn_serve::ServeConfig::trace`] is on. Router traces
    /// carry the scatter/gather waits (derived from sub-ticket
    /// latencies) and the folded engine counters of every scattered
    /// sub-outcome; the per-sub-query traces live in each shard server's
    /// own recorder.
    ///
    /// Router traces never set [`tnn_serve::QueryTrace::attempts`]: the
    /// shard servers run without a fault plan, so no sub-query ever
    /// retries, and a router trace is flagged exactly when it errored.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Publishes a snapshot of the router's metrics into `registry`:
    /// the scatter-gather counters under `tnn_shard_*`, the fleet fold
    /// of every shard server's serving stats under `tnn_serve_*` (see
    /// [`ShardStats::publish_metrics`]), and the router recorder's
    /// retention counters when tracing is on. Monotone across repeated
    /// publications, like [`Server::publish_metrics`].
    pub fn publish_metrics(&self, registry: &MetricsRegistry) {
        self.stats().publish_metrics(registry);
        if let Some(recorder) = &self.recorder {
            registry.counter(
                "tnn_shard_trace_recorded_total",
                "Router-level query traces offered to the flight recorder",
                recorder.recorded(),
            );
            registry.gauge(
                "tnn_shard_trace_retained",
                "Router-level query traces currently retained",
                recorder.len() as f64,
            );
        }
    }
}

/// Submits `query` to each of `shards`, then waits the admitted
/// sub-tickets in shard order, folding each sub-route total down into
/// `bound` and each sub-outcome into `trace`, and counting admissions
/// into `scattered`. Returns the slowest sub-ticket's latency, `None`
/// when no sub-query was admitted.
fn scatter(
    shards: &[&ShardServer],
    query: &Query,
    bound: &mut f64,
    scattered: &mut usize,
    tally: &mut ShardStats,
    trace: &mut Option<QueryTrace>,
) -> Option<Duration> {
    // A refused sub-query is booked as rejected by its server alone.
    let tickets: Vec<Ticket> = shards
        .iter()
        .filter_map(|s| s.server.submit(query.clone()).ok())
        .collect();
    *scattered += tickets.len();
    let mut slowest = None;
    for ticket in tickets {
        match ticket.wait() {
            Ok(outcome) => {
                if let Some(t) = trace.as_mut() {
                    fold_sub_outcome(t, &outcome);
                }
                if let Some(total) = outcome.total_dist {
                    if total < *bound {
                        *bound = total;
                    }
                }
            }
            Err(_) => {
                tally.scatter_errors += 1;
                if let Some(t) = trace.as_mut() {
                    t.errored = true;
                }
            }
        }
        slowest = slowest.max(ticket.latency());
    }
    slowest
}

/// Collects every candidate within `radius` of `p`, per channel,
/// walking shards in ascending index. Whole sub-trees are skipped
/// when their root MBR lies entirely outside the circle — the same
/// test [`tnn_rtree::RTree::range_circle`] applies at its root, so
/// pruning skips only provably hit-free searches.
fn gather(
    topology: &Topology,
    p: Point,
    radius: f64,
    tally: &mut ShardStats,
) -> Vec<Vec<(Point, ObjectId)>> {
    let r_sq = radius * radius;
    let circle = Circle::new(p, radius);
    let mut layers: Vec<Vec<(Point, ObjectId)>> = vec![Vec::new(); topology.env.len()];
    for s in 0..topology.plan.num_shards() {
        for (c, layer) in layers.iter_mut().enumerate() {
            let tree = topology.plan.tree(s, c);
            if tree.num_objects() == 0 {
                continue;
            }
            if tree.root_mbr().min_dist_sq(p) > r_sq {
                tally.gather_pruned += 1;
                continue;
            }
            tally.gather_probed += 1;
            // Shard trees keep the source's ids, so the merged route's
            // stops are the same bytes an unsharded run reports.
            layer.extend(tree.range_circle(&circle).hits);
        }
    }
    layers
}

/// A routed query's outcome: `scattered` sub-queries were admitted,
/// and its prune count is the query's own tally. No merged route means
/// the query failed.
fn outcome(
    kind: QueryKind,
    merged: Option<MergedRoute>,
    radius: f64,
    scattered: usize,
    tally: &ShardStats,
    fallback: bool,
) -> ShardOutcome {
    let (total_dist, route) = match merged {
        Some(merged) => (Some(merged.total_dist), merged.into_route()),
        None => (None, Vec::new()),
    };
    ShardOutcome {
        kind,
        total_dist,
        route,
        search_radius: radius,
        shards_scattered: scattered,
        shards_pruned: tally.scatter_pruned as usize,
        fallback,
    }
}

#[expect(
    clippy::expect_used,
    reason = "only called with the shards of `Topology::servers`, the eligible ones, whose cells have MBRs by construction"
)]
fn shard_mbr(plan: &ShardPlan, shard: usize) -> tnn_geom::Rect {
    plan.mbr(shard).expect("eligible shards hold objects")
}

/// Folds one scattered sub-outcome's engine counters into the
/// router-level trace: visits, tune-in slots, and prune hits add up
/// across shards; the peak queue is a max (sub-queries run concurrently
/// on distinct broadcast clients).
fn fold_sub_outcome(trace: &mut QueryTrace, outcome: &tnn_core::QueryOutcome) {
    trace.node_visits += outcome.node_visits();
    trace.tune_in += outcome.tune_in();
    trace.prune_hits += outcome.prune_hits();
    trace.peak_queue = trace.peak_queue.max(outcome.peak_queue());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tnn_broadcast::BroadcastParams;
    use tnn_core::QueryEngine;
    use tnn_datasets::uniform_points;
    use tnn_geom::Rect;
    use tnn_rtree::{PackingAlgorithm, RTree};
    use tnn_serve::ServeConfig;

    fn build_env(layers: &[Vec<Point>]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = layers
            .iter()
            .map(|pts| {
                let tree = if pts.is_empty() {
                    RTree::empty(params.rtree_params())
                } else {
                    RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap()
                };
                Arc::new(tree)
            })
            .collect();
        let phases: Vec<u64> = (0..layers.len() as u64).map(|i| i * 5 + 3).collect();
        MultiChannelEnv::new(trees, params, &phases)
    }

    fn sample_env(k: usize) -> MultiChannelEnv {
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let layers: Vec<Vec<Point>> = (0..k)
            .map(|i| uniform_points(140 + 25 * i, &region, 0xD1CE + i as u64))
            .collect();
        build_env(&layers)
    }

    fn small_serve() -> ServeConfig {
        ServeConfig::new().workers(1).queue_capacity(32)
    }

    fn query_mix(p: Point) -> Vec<Query> {
        let mut queries: Vec<Query> = Algorithm::ALL
            .iter()
            .map(|&alg| Query::tnn(p).algorithm(alg))
            .collect();
        queries.push(Query::order_free(p));
        queries.push(Query::round_trip(p));
        queries
    }

    #[test]
    fn sharded_routes_match_the_unsharded_engine() {
        for k in [2usize, 3] {
            let env = sample_env(k);
            let engine = QueryEngine::new(env.clone());
            let router = ShardRouter::spawn(
                env.clone(),
                ShardConfig::new().shards(4).serve(small_serve()),
            );
            for p in [
                Point::new(481.0, 522.0),
                Point::new(3.0, 995.0),
                Point::new(-250.0, 400.0),
            ] {
                for query in query_mix(p) {
                    let got = router.run(&query).unwrap();
                    let want = engine.run(&query).unwrap();
                    assert_eq!(got.route, want.route, "k={k} {query:?}");
                    assert_eq!(got.total_dist, want.total_dist, "k={k} {query:?}");
                }
            }
            let stats = router.shutdown(ShutdownMode::Drain);
            assert!(stats.conserved(), "{stats:?}");
        }
    }

    #[test]
    fn validation_errors_match_the_engine() {
        // Empty channel 1: same error, same index.
        let region = Rect::from_coords(0.0, 0.0, 100.0, 100.0);
        let env = build_env(&[uniform_points(30, &region, 7), Vec::new()]);
        let engine = QueryEngine::new(env.clone());
        let router = ShardRouter::spawn(env, ShardConfig::new().shards(2).serve(small_serve()));
        let q = Query::tnn(Point::new(5.0, 5.0));
        assert_eq!(router.run(&q).unwrap_err(), engine.run(&q).unwrap_err());

        // One-channel environment: recoverable channel-count error.
        let env1 = build_env(&[uniform_points(30, &region, 8)]);
        let engine1 = QueryEngine::new(env1.clone());
        let router1 = ShardRouter::spawn(env1, ShardConfig::new().shards(2).serve(small_serve()));
        assert_eq!(router1.run(&q).unwrap_err(), engine1.run(&q).unwrap_err());

        // Non-finite query point.
        let env2 = sample_env(2);
        let engine2 = QueryEngine::new(env2.clone());
        let router2 = ShardRouter::spawn(env2, ShardConfig::new().shards(2).serve(small_serve()));
        let bad = Query::tnn(Point::new(f64::NAN, 1.0)).algorithm(Algorithm::DoubleNn);
        assert_eq!(
            router2.run(&bad).unwrap_err(),
            engine2.run(&bad).unwrap_err()
        );
        router2.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn ann_count_mismatch_panics_before_non_finite_error_for_every_kind() {
        let router = ShardRouter::spawn(
            sample_env(2),
            ShardConfig::new().shards(2).serve(small_serve()),
        );
        let nan = Point::new(f64::NAN, 0.0);
        for query in [
            Query::tnn(nan),
            Query::tnn(nan).algorithm(Algorithm::DoubleNn),
            Query::order_free(nan),
            Query::round_trip(nan),
        ] {
            let query = query.ann_modes(&[tnn_core::AnnMode::Exact; 3]);
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.run(&query)))
                    .expect_err("three ANN modes on two channels must panic");
            let message = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("one ANN mode per channel"),
                "{:?}: {message}",
                query.kind()
            );
        }
        router.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn clustered_data_prunes_distant_shards() {
        // Two tight clusters in opposite corners; querying inside one
        // cluster must prune the sub-trees (and scatter) of the other.
        let region_a = Rect::from_coords(0.0, 0.0, 60.0, 60.0);
        let region_b = Rect::from_coords(940.0, 940.0, 1000.0, 1000.0);
        let mut s = uniform_points(60, &region_a, 11);
        s.extend(uniform_points(60, &region_b, 12));
        let mut r = uniform_points(60, &region_a, 13);
        r.extend(uniform_points(60, &region_b, 14));
        let env = build_env(&[s, r]);
        let router = ShardRouter::spawn(env, ShardConfig::new().shards(4).serve(small_serve()));
        let outcome = router.run(&Query::tnn(Point::new(10.0, 10.0))).unwrap();
        assert_eq!(outcome.route.len(), 2);
        let stats = router.shutdown(ShutdownMode::Drain);
        assert!(
            stats.gather_pruned > 0,
            "far-corner sub-trees must be pruned: {stats:?}"
        );
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn approximate_queries_reproduce_engine_failures() {
        // Skewed data far from the query point: the approximate radius
        // misses, and the sharded run must fail exactly like the engine.
        let region = Rect::from_coords(900.0, 900.0, 1000.0, 1000.0);
        let env = build_env(&[
            uniform_points(80, &region, 21),
            uniform_points(80, &region, 22),
        ]);
        let engine = QueryEngine::new(env.clone());
        let router = ShardRouter::spawn(env, ShardConfig::new().shards(4).serve(small_serve()));
        let q = Query::tnn(Point::new(5.0, 5.0)).algorithm(Algorithm::ApproximateTnn);
        let got = router.run(&q).unwrap();
        let want = engine.run(&q).unwrap();
        assert_eq!(got.total_dist, want.total_dist);
        assert_eq!(got.route, want.route);
        assert!(
            want.failed(),
            "this layout should defeat the approximate radius"
        );
        router.shutdown(ShutdownMode::Drain);
    }

    /// With no eligible shard nothing scatters, so the gather bound is
    /// the locally computed feasible route; the answer must still be the
    /// engine's, bit for bit.
    #[test]
    fn fallback_route_reproduces_the_engine_when_no_shard_is_eligible() {
        // Two shards cut the union region on y (`grid_dims(2)` is 1 × 2):
        // channel 0 lies wholly below the cut, every other channel above
        // it, so no shard holds objects of every channel.
        let low = Rect::from_coords(0.0, 0.0, 1000.0, 300.0);
        let high = Rect::from_coords(0.0, 700.0, 1000.0, 1000.0);
        for k in [2usize, 3] {
            let layers: Vec<Vec<Point>> = (0..k)
                .map(|i| {
                    let region = if i == 0 { &low } else { &high };
                    uniform_points(90 + 20 * i, region, 0xFA11 + i as u64)
                })
                .collect();
            let env = build_env(&layers);
            let engine = QueryEngine::new(env.clone());
            let router = ShardRouter::spawn(env, ShardConfig::new().shards(2).serve(small_serve()));
            assert!(router.plan().eligible_shards().is_empty(), "k={k}");
            for p in [Point::new(480.0, 520.0), Point::new(-90.0, 40.0)] {
                let mut queries: Vec<Query> = Algorithm::ALL
                    .iter()
                    .map(|&alg| Query::tnn(p).algorithm(alg))
                    .collect();
                queries.push(Query::order_free(p));
                queries.push(Query::round_trip(p));
                for query in queries {
                    let got = router.run(&query).unwrap();
                    let want = engine.run(&query).unwrap();
                    assert_eq!(got.route, want.route, "k={k} {query:?}");
                    assert_eq!(
                        got.total_dist.map(f64::to_bits),
                        want.total_dist.map(f64::to_bits),
                        "k={k} {query:?}"
                    );
                    let approximate = query.kind() == QueryKind::Tnn(Algorithm::ApproximateTnn);
                    assert_eq!(got.fallback, !approximate, "k={k} {query:?}");
                    assert_eq!(got.shards_scattered, 0, "k={k} {query:?}");
                }
            }
            let stats = router.shutdown(ShutdownMode::Drain);
            assert_eq!(
                stats.fallbacks,
                2 * (Algorithm::ALL.len() as u64 + 1),
                "k={k}"
            );
            assert!(stats.conserved(), "{stats:?}");
        }
    }

    #[test]
    fn stats_account_for_every_scatter_submission() {
        let env = sample_env(2);
        let router = ShardRouter::spawn(env, ShardConfig::new().shards(4).serve(small_serve()));
        for i in 0..12u32 {
            let p = Point::new(f64::from(i) * 80.0, f64::from(i) * 70.0);
            router.run(&Query::order_free(p)).unwrap();
        }
        let stats = router.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.queries, 12);
        assert!(stats.scattered > 0);
        assert!(stats.conserved(), "{stats:?}");
        assert_eq!(stats.serve.completed, stats.scattered);
    }

    #[test]
    fn tracing_records_router_level_traces_and_publishes_metrics() {
        let env = sample_env(2);
        let router = ShardRouter::spawn(
            env,
            ShardConfig::new()
                .shards(4)
                .serve(small_serve().trace(tnn_serve::TraceConfig::on())),
        );
        assert!(router.recorder().is_some());
        let p = Point::new(420.0, 510.0);
        for query in query_mix(p) {
            let _ = router.run(&query);
        }
        let recorder = router.recorder().expect("tracing is on");
        let recorded = recorder.recorded();
        assert!(recorded > 0);
        let slowest = recorder.slowest();
        // A scattered query folds the sub-outcomes' engine counters and
        // carries a scatter span derived from the primary sub-ticket.
        let traced = slowest
            .iter()
            .find(|t| !t.duration_of(SpanKind::ShardScatter).is_zero())
            .expect("a scattered query was retained");
        assert!(traced.node_visits > 0, "{traced:?}");
        assert!(traced.tune_in > 0, "{traced:?}");
        assert_eq!(traced.total, traced.span_sum(), "no clock in this crate");
        // No shard server has a fault plan, so no sub-query retries:
        // router traces keep `attempts == 0` and flag only errors.
        for t in slowest.iter().chain(&recorder.flagged()) {
            assert_eq!(t.attempts, 0, "{t:?}");
            assert_eq!(t.flagged(), t.errored, "{t:?}");
        }

        let registry = MetricsRegistry::new();
        router.publish_metrics(&registry);
        let text = registry.render_prometheus();
        for series in [
            "tnn_shard_queries_total",
            "tnn_serve_completed_total",
            "tnn_shard_trace_recorded_total",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }

        let stats = router.shutdown(ShutdownMode::Drain);
        assert!(recorded <= stats.queries, "recorded at most once per query");
        assert!(stats.conserved(), "{stats:?}");
    }

    /// `env` with every channel's data replaced by a fresh uniform
    /// sample — same shape, next epoch.
    fn advanced(env: &MultiChannelEnv, seed: u64) -> MultiChannelEnv {
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let trees = (0..env.len())
            .map(|i| {
                let pts = uniform_points(120 + 20 * i, &region, seed + i as u64);
                Arc::new(
                    RTree::build(
                        &pts,
                        env.channel(0).params().rtree_params(),
                        PackingAlgorithm::Str,
                    )
                    .unwrap(),
                )
            })
            .collect();
        env.advance(trees)
    }

    #[test]
    fn env_swap_publishes_new_answers_and_banks_retired_stats() {
        let env = sample_env(2);
        let router = ShardRouter::spawn(
            env.clone(),
            ShardConfig::new().shards(4).serve(small_serve()),
        );
        for i in 0..8u32 {
            let p = Point::new(f64::from(i) * 110.0, f64::from(i) * 90.0);
            router.run(&Query::tnn(p)).unwrap();
        }
        let before = router.stats();
        assert!(before.serve.completed > 0);

        let next = advanced(&env, 0xBEEF);
        router.swap_env(next.clone()).unwrap();
        assert_eq!(router.env().epoch(), env.epoch() + 1);
        assert_eq!(router.env().fingerprint(), next.fingerprint());

        // Post-swap answers come from the new data, byte-identical to
        // an unsharded engine over the swapped-in environment.
        let engine = QueryEngine::new(next);
        for p in [Point::new(481.0, 522.0), Point::new(40.0, 900.0)] {
            for query in query_mix(p) {
                let got = router.run(&query).unwrap();
                let want = engine.run(&query).unwrap();
                assert_eq!(got.route, want.route, "{query:?}");
                assert_eq!(got.total_dist, want.total_dist, "{query:?}");
            }
        }

        let stats = router.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.env_swaps, 1);
        assert!(stats.retired_replicas > 0, "{stats:?}");
        assert!(
            stats.serve.completed >= before.serve.completed,
            "pre-swap completions were dropped: {before:?} vs {stats:?}"
        );
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn swap_under_concurrent_load_conserves_stats() {
        let env = sample_env(2);
        let next = advanced(&env, 0xFACE);
        let old_engine = QueryEngine::new(env.clone());
        let new_engine = QueryEngine::new(next.clone());
        let router = ShardRouter::spawn(env, ShardConfig::new().shards(4).serve(small_serve()));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3u64)
                .map(|t| {
                    let router = &router;
                    let old_engine = &old_engine;
                    let new_engine = &new_engine;
                    scope.spawn(move || {
                        for i in 0..10u64 {
                            let p = Point::new(
                                ((t * 10 + i) * 97 % 1000) as f64,
                                ((t * 10 + i) * 61 % 1000) as f64,
                            );
                            let query = Query::tnn(p);
                            let got = router.run(&query).unwrap();
                            // A query pinned to either epoch's topology is
                            // fine — but it must match *one* of them
                            // exactly, never a mix.
                            let old = old_engine.run(&query).unwrap();
                            let new = new_engine.run(&query).unwrap();
                            assert!(
                                (got.route == old.route && got.total_dist == old.total_dist)
                                    || (got.route == new.route && got.total_dist == new.total_dist),
                                "query at {p:?} matched neither epoch"
                            );
                        }
                    })
                })
                .collect();
            router.swap_env(next.clone()).unwrap();
            for worker in workers {
                worker.join().unwrap();
            }
        });
        let stats = router.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.env_swaps, 1);
        assert!(stats.retired_replicas > 0, "{stats:?}");
        assert!(stats.conserved(), "{stats:?}");
    }

    #[test]
    fn swap_env_rejects_shape_changes_and_stays_shut() {
        let env = sample_env(2);
        let router = ShardRouter::spawn(
            env.clone(),
            ShardConfig::new().shards(2).serve(small_serve()),
        );
        assert_eq!(
            router.swap_env(sample_env(3)),
            Err(TnnError::WrongChannelCount {
                needed: 2,
                available: 3,
            })
        );
        router.shutdown(ShutdownMode::Drain);
        assert_eq!(
            router.swap_env(advanced(&env, 0xD00D)),
            Err(TnnError::Cancelled)
        );
    }

    #[test]
    fn run_after_shutdown_is_cancelled_and_stats_stay_conserved() {
        let router = ShardRouter::spawn(
            sample_env(2),
            ShardConfig::new().shards(4).serve(small_serve()),
        );
        let q = Query::tnn(Point::new(481.0, 522.0));
        router.run(&q).unwrap();
        let frozen = router.shutdown(ShutdownMode::Drain);
        assert!(frozen.conserved(), "{frozen:?}");
        for query in query_mix(Point::new(100.0, 700.0)) {
            assert_eq!(router.run(&query), Err(TnnError::Cancelled));
        }
        let after = router.stats();
        assert!(after.conserved(), "{after:?}");
        assert_eq!(after.queries, frozen.queries);
        assert_eq!(after.scatter_rejected, frozen.scatter_rejected);
        assert_eq!(after.fallbacks, frozen.fallbacks);
    }

    /// One formula before and after shutdown: on an idle router the
    /// snapshot just before `shutdown`, the one it returns and the one
    /// after it are the same numbers.
    #[test]
    fn idle_router_stats_are_the_same_across_shutdown() {
        let env = sample_env(2);
        let router = ShardRouter::spawn(
            env.clone(),
            ShardConfig::new().shards(4).serve(small_serve()),
        );
        for i in 0..6u32 {
            let p = Point::new(f64::from(i) * 150.0, f64::from(i) * 120.0);
            router.run(&Query::order_free(p)).unwrap();
        }
        router.swap_env(advanced(&env, 0x1D1E)).unwrap();
        router.run(&Query::tnn(Point::new(500.0, 500.0))).unwrap();
        // A ticket resolves before its worker books the batch: wait
        // until no sub-query is still counted in flight.
        while router.stats().serve.in_flight > 0 {
            std::thread::yield_now();
        }
        let before = router.stats();
        let frozen = router.shutdown(ShutdownMode::Drain);
        let after = router.stats();
        assert!(before.serve.completed > 0 && before.retired_replicas > 0);
        assert_eq!(before, frozen);
        assert_eq!(frozen, after);
        for stats in [&before, &frozen, &after] {
            assert!(stats.conserved(), "{stats:?}");
        }
    }

    /// A snapshot taken while a query is mid-scatter conserves too: the
    /// shard servers book a sub-query the moment they admit it, and
    /// `stats` reads the router's scatter counters from those ledgers.
    #[test]
    fn snapshots_taken_mid_scatter_conserve() {
        let router = ShardRouter::spawn(
            sample_env(2),
            ShardConfig::new().shards(4).serve(small_serve()),
        );
        let done = AtomicBool::new(false);
        let mut scattered = 0;
        let (snapshots, bad) = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let (mut snapshots, mut bad) = (0u32, 0u32);
                while !done.load(Ordering::Acquire) {
                    snapshots += 1;
                    bad += u32::from(!router.stats().conserved());
                }
                (snapshots, bad)
            });
            for i in 0..300u32 {
                let p = Point::new(f64::from(i * 37 % 1000), f64::from(i * 53 % 1000));
                scattered += router.run(&Query::order_free(p)).unwrap().shards_scattered;
            }
            done.store(true, Ordering::Release);
            watcher.join().unwrap()
        });
        assert!(snapshots > 0);
        assert_eq!(bad, 0, "{bad} of {snapshots} snapshots did not conserve");
        let stats = router.shutdown(ShutdownMode::Drain);
        assert!(stats.conserved(), "{stats:?}");
        assert_eq!(stats.scattered, scattered as u64);
    }

    #[test]
    fn swap_env_racing_shutdown_never_outlives_the_frozen_fold() {
        let env = sample_env(2);
        let nexts: Vec<MultiChannelEnv> = (0..4).map(|i| advanced(&env, 0xA11 + i)).collect();
        for round in 0..4 {
            let router = ShardRouter::spawn(
                env.clone(),
                ShardConfig::new().shards(4).serve(small_serve()),
            );
            let mut swaps = 0;
            std::thread::scope(|scope| {
                let swapper = scope.spawn(|| {
                    nexts
                        .iter()
                        .map(|next| router.swap_env(next.clone()))
                        .collect::<Vec<_>>()
                });
                let querier = scope.spawn(|| {
                    for i in 0..6u32 {
                        let p = Point::new(f64::from(i) * 150.0, 500.0);
                        match router.run(&Query::tnn(p)) {
                            Ok(outcome) => assert_eq!(outcome.route.len(), 2),
                            Err(e) => assert_eq!(e, TnnError::Cancelled),
                        }
                    }
                });
                if round % 2 == 1 {
                    std::thread::yield_now();
                }
                router.shutdown(ShutdownMode::Drain);
                let results = swapper.join().unwrap();
                for result in &results {
                    assert!(
                        matches!(result, Ok(()) | Err(TnnError::Cancelled)),
                        "round {round}: {result:?}"
                    );
                }
                swaps = results.iter().filter(|r| r.is_ok()).count() as u64;
                querier.join().unwrap();
            });
            assert_eq!(
                router.run(&Query::tnn(Point::new(1.0, 1.0))),
                Err(TnnError::Cancelled)
            );
            assert_eq!(router.swap_env(nexts[0].clone()), Err(TnnError::Cancelled));
            let probe = Query::tnn(Point::new(1.0, 1.0));
            for s in &router.topology.read().servers {
                assert_eq!(
                    s.server.submit(probe.clone()).err(),
                    Some(TnnError::Cancelled),
                    "round {round}: a shard server outlived shutdown"
                );
            }
            let stats = router.stats();
            assert!(stats.conserved(), "round {round}: {stats:?}");
            assert_eq!(stats.env_swaps, swaps, "round {round}");
        }
    }
}
