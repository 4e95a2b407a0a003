//! The four TNN query-processing algorithms and the one query pipeline
//! every [`crate::QueryKind`] runs.
//!
//! All share the estimate–filter skeleton of §3.1, generalized from the
//! paper's two-channel special case to `k ≥ 2` channels. The pipeline
//! reads the request straight from the validated [`crate::Query`]: its
//! kind picks the estimate algorithm and the [`RouteObjective`], its
//! [`crate::AnnSpec`] is resolved per channel by the estimate searches,
//! and its point, issue slot and retrieval flag feed the stages below.
//! It runs five named stages:
//!
//! 1. **estimate** (algorithm-specific): the search-based estimates
//!    (Window-Based, Double-NN, Hybrid-NN) find a feasible stop `nᵢ` on
//!    every channel; Approximate-TNN computes a radius locally;
//! 2. **radius**: `Estimate::radius` turns the estimate into the filter
//!    radius `d` for the query's [`RouteObjective`] — the feasible chain
//!    for TNN queries, its minimum over every visit order for order-free
//!    queries, half the closed tour for round trips (the §7 future-work
//!    variants);
//! 3. **filter**: window queries over `circle(p, d)` on every channel in
//!    parallel;
//! 4. **join**: [`crate::merge_route_layers`] under the same objective
//!    (the chain DP over per-layer bucket grids, at every `k`);
//! 5. **retrieve**: the answer objects' data pages.
//!
//! Every estimate search runs over the arrival-sorted candidate stack (see
//! [`crate::task::queue`], where the lockstep properties hold it to the
//! paper-literal linear scan). `filter_and_finish` builds the one
//! [`QueryOutcome`] every query returns, straight from the merged
//! route's stops.
//!
//! Driven through [`crate::QueryEngine::run_with`] with a reused
//! [`QueryScratch`], every growth-prone buffer (NN queues and parked
//! lists, window queues and hit lists, join order/cut/grid/DP tables,
//! order-free permutation table) is recycled across queries; what
//! remains per query is a handful of k-element transient vectors (the
//! estimate task fan-out, the filter-task list, the candidate counts,
//! and the returned route/cost vectors). Per-query phase randomization
//! goes through a [`PhaseOverlay`] without cloning the environment.

mod approximate;
mod double_nn;
mod hybrid_nn;
mod window_based;

pub use approximate::{approximate_radius, approximate_radius_for_env};

use crate::join::JoinScratch;
use crate::merge::{merge_route_layers, pad_radius, RouteObjective};
use crate::task::{NnScratch, NnSearchTask, WindowQueryTask, WindowScratch};
use crate::SearchMode;
use crate::{Algorithm, AnnSpec, ChannelCost, Query, QueryOutcome, TnnError};
use tnn_broadcast::{InlineVec, PhaseOverlay, Tuner};
use tnn_geom::{Circle, Point};
use tnn_rtree::ObjectId;

/// Per-channel estimate-phase tuners, inline up to four channels (the
/// evaluation's workloads never spill).
pub(crate) type TunerVec = InlineVec<Tuner, 4>;

/// Per-channel estimate-phase queue statistics, inline up to four
/// channels like [`TunerVec`].
pub(crate) type HopStatsVec = InlineVec<HopStats, 4>;

/// Per-channel estimate stops `n₁…n_k`, inline up to four channels like
/// [`TunerVec`].
pub(crate) type StopVec = InlineVec<Point, 4>;

/// Client-side queue accounting of one hop's estimate-phase NN search,
/// surfaced on [`ChannelCost`] for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HopStats {
    /// Peak queued + parked entries (see
    /// [`crate::task::BroadcastNnSearch::peak_memory`]; not bounded by
    /// the paper's `(H−1)(M−1)`).
    pub peak_queue: u64,
    /// Entries still parked (pruned by §4.2.4) when the search ended.
    pub prune_hits: u64,
}

/// Reusable per-worker buffers for the whole query pipeline: one NN
/// search task and one window query per channel, plus the local join —
/// k-ary, growing on demand to the environment's channel count, so the
/// two-channel TNN and every `k > 2` route share one shape. After the
/// first query has grown the buffers, subsequent queries through
/// [`crate::QueryEngine::run_with`] allocate only small k-element
/// transient vectors (see the module docs).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Estimate-phase NN task buffers, one per channel.
    pub(crate) nn: Vec<NnScratch>,
    /// Filter-phase window query buffers, one per channel.
    pub(crate) window: Vec<WindowScratch>,
    /// Join working memory.
    pub(crate) join: JoinScratch,
    /// Cached visit-order permutation table for order-free queries
    /// (depends only on the channel count; rebuilt when it changes).
    pub(crate) order_table: Vec<Vec<usize>>,
}

impl QueryScratch {
    /// The join's working memory, read-only: its work counters
    /// ([`JoinScratch::chain_evaluations`],
    /// [`JoinScratch::grid_cells_tested`]) summed over every query run
    /// through this scratch.
    pub fn join(&self) -> &JoinScratch {
        &self.join
    }

    /// Exact `MinTransDist` evaluations of the estimate searches, summed
    /// over every channel and every query run through this scratch: a
    /// host-independent count of the pruning work of Hybrid-NN's
    /// transitive searches, zero for the other algorithms.
    pub fn transitive_lower_bounds(&self) -> u64 {
        self.nn.iter().map(|nn| nn.transitive_lower_bounds).sum()
    }

    /// Grows the per-channel buffers to at least `k` channels.
    pub(crate) fn ensure_channels(&mut self, k: usize) {
        while self.nn.len() < k {
            self.nn.push(NnScratch::default());
        }
        while self.window.len() < k {
            self.window.push(WindowScratch::default());
        }
    }

    /// The first `k` NN scratches, mutably — one per estimate-phase
    /// search task.
    pub(crate) fn nn_slice(&mut self, k: usize) -> &mut [NnScratch] {
        self.ensure_channels(k);
        &mut self.nn[..k]
    }

    /// Ensures the cached permutation table covers `0..k` (all `k!`
    /// visit orders, lexicographic, identity first).
    pub(crate) fn ensure_order_table(&mut self, k: usize) {
        if self.order_table.first().map(Vec::len) != Some(k) {
            self.order_table = permutations(k);
        }
    }
}

/// All permutations of `0..k`, lexicographically, identity first — the
/// candidate visit orders of an order-free query.
pub(crate) fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn rec(used: &mut Vec<bool>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let k = used.len();
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(used, cur, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    rec(&mut vec![false; k], &mut Vec::with_capacity(k), &mut out);
    out
}

/// The query pipeline behind every query kind, over a
/// [`PhaseOverlay`] — per-query phase randomization without cloning the
/// environment. The query's kind selects the estimate algorithm and the
/// [`RouteObjective`] (the filter radius and the join, see the module
/// docs); the §7 extensions all estimate with Double-NN.
///
/// The caller validates first ([`crate::Query::validate`], as
/// [`crate::QueryEngine::run_on`] does), so every channel count, ANN
/// arity and channel content seen here is one the query fits.
///
/// # Errors
/// [`TnnError::EmptyChannel`] when an estimate search ends without
/// reaching any data point.
pub(crate) fn run_query_overlay(
    overlay: &PhaseOverlay<'_>,
    query: &Query,
    scratch: &mut QueryScratch,
) -> Result<QueryOutcome, TnnError> {
    let (algorithm, objective) = RouteObjective::plan(query.kind());
    let k = overlay.len();
    scratch.ensure_channels(k);
    if objective == RouteObjective::OrderFree {
        scratch.ensure_order_table(k);
    }
    let (p, issued_at, ann) = (query.point(), query.issue_slot(), query.ann_spec());
    let est = match algorithm {
        Algorithm::WindowBased => window_based::estimate(overlay, p, issued_at, ann, scratch)?,
        Algorithm::ApproximateTnn => approximate::estimate(overlay.env(), issued_at),
        Algorithm::DoubleNn => double_nn::estimate(overlay, p, issued_at, ann, scratch)?,
        Algorithm::HybridNn => hybrid_nn::estimate(overlay, p, issued_at, ann, scratch)?,
    };
    Ok(filter_and_finish(overlay, query, est, objective, scratch))
}

/// What an estimate phase establishes about the answer.
pub(crate) enum Bound {
    /// A feasible stop `nᵢ` per channel, in channel order (the
    /// search-based estimates).
    Stops(StopVec),
    /// A radius computed without searching (Approximate-TNN).
    Radius(f64),
}

/// Result of an estimate phase: its bound plus cost accounting.
pub(crate) struct Estimate {
    /// The stops or radius the filter radius is derived from.
    pub bound: Bound,
    /// Estimate-phase page accounting, one tuner per channel.
    pub tuners: TunerVec,
    /// Global slot at which the estimate finished (the filter phase
    /// starts here on every channel).
    pub end: u64,
    /// Per-channel queue statistics of the estimate searches (all zero
    /// for Approximate-TNN, which runs no searches).
    pub hops: HopStatsVec,
}

impl Estimate {
    /// The filter radius `d` for `objective` — the one place an estimate
    /// becomes a search range: [`RouteObjective::filter_radius`] of the
    /// feasible route through the stops, in channel order, or for
    /// `OrderFree` the shortest over the visit `orders` (the optimal
    /// route's prefix legs cover its members' distance from `p` in any
    /// order).
    ///
    /// An Approximate-TNN radius is returned as is; it proves nothing,
    /// which is why that algorithm can fail.
    pub(crate) fn radius(&self, p: Point, objective: RouteObjective, orders: &[Vec<usize>]) -> f64 {
        let stops = match &self.bound {
            Bound::Stops(stops) => stops,
            Bound::Radius(radius) => return *radius,
        };
        let total = if objective == RouteObjective::OrderFree {
            orders
                .iter()
                .map(|order| objective.route_total(p, order.iter().map(|&i| stops[i])))
                .fold(f64::INFINITY, f64::min)
        } else {
            objective.route_total(p, stops.iter().copied())
        };
        objective.filter_radius(total)
    }
}

/// The filter, join and retrieve stages shared by every query kind, over
/// `k ≥ 2` channels — the only builder of a [`QueryOutcome`].
pub(crate) fn filter_and_finish(
    overlay: &PhaseOverlay<'_>,
    query: &Query,
    est: Estimate,
    objective: RouteObjective,
    scratch: &mut QueryScratch,
) -> QueryOutcome {
    let k = overlay.len();
    let (p, issued_at) = (query.point(), query.issue_slot());
    // Field destructuring keeps the window, join and permutation-table
    // borrows disjoint.
    let QueryScratch {
        window,
        join,
        order_table,
        ..
    } = scratch;
    let radius = est.radius(p, objective, order_table);
    let range = Circle::new(p, pad_radius(radius));

    // Filter phase: window queries on every channel, in parallel (each
    // has its own timeline starting at the estimate end).
    let mut windows: Vec<WindowQueryTask<'_>> = Vec::with_capacity(k);
    let mut filter_end = est.end;
    for (i, w_scratch) in window.iter_mut().take(k).enumerate() {
        let mut w = WindowQueryTask::with_scratch(overlay.view(i), range, est.end, w_scratch);
        filter_end = filter_end.max(w.run_to_completion());
        windows.push(w);
    }

    let candidates: Vec<usize> = windows.iter().map(|w| w.hits().len()).collect();
    // Local join through the shared candidate-merge entry point: the
    // grid-pruned chain DP, at every k.
    let layers: InlineVec<&[(Point, ObjectId)], 4> = windows.iter().map(|w| w.hits()).collect();
    let (total_dist, route) =
        match merge_route_layers(join, objective, p, &layers, Some(order_table)) {
            Some(merged) => (Some(merged.total_dist), merged.into_route()),
            None => (None, Vec::new()),
        };

    let mut channels: Vec<ChannelCost> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| ChannelCost {
            estimate_pages: est.tuners[i].pages,
            filter_pages: w.tuner().pages,
            retrieve_pages: 0,
            finish_time: est.tuners[i].finish_time.unwrap_or(issued_at).max(w.now()),
            peak_queue: est.hops[i].peak_queue,
            prune_hits: est.hops[i].prune_hits,
        })
        .collect();
    for (w, w_scratch) in windows.into_iter().zip(window.iter_mut()) {
        w.recycle(w_scratch);
    }

    // Retrieval phase: wake up when the answer objects' data pages are on
    // air. The join is local computation, which the paper neglects, so
    // retrieval starts as soon as every candidate stream is complete.
    if query.retrieves_answer_objects() {
        for stop in &route {
            let (done, pages) = overlay
                .view(stop.channel)
                .retrieve_object(stop.object, filter_end);
            let cost = &mut channels[stop.channel];
            cost.retrieve_pages = pages;
            cost.finish_time = cost.finish_time.max(done);
        }
    }

    let completed_at = channels
        .iter()
        .map(|c| c.finish_time)
        .max()
        .unwrap_or(est.end)
        .max(est.end);

    QueryOutcome {
        kind: query.kind(),
        route,
        total_dist,
        search_radius: radius,
        issued_at,
        estimate_end: est.end,
        completed_at,
        candidates,
        channels,
    }
}

/// Event loop running `k` NN search tasks concurrently in global time
/// order: repeatedly steps the task with the earliest `next_arrival`
/// (lowest channel index wins ties, making runs deterministic) and fires
/// `on_completion(i, finished_best, at, tasks)` whenever task `i`
/// finishes while at least one other task is still running — the hook
/// the generalized Hybrid-NN uses to re-target the surviving neighbor
/// hops. `at` is the finishing task's clock, the global time of the
/// switch.
///
/// `next_arrival` reads the top of a task's stack in O(1), so the
/// interleaving loop adds only an O(k) scan per step.
pub(crate) fn run_interleaved(
    tasks: &mut [NnSearchTask<'_>],
    mut on_completion: impl FnMut(usize, Option<(Point, ObjectId, f64)>, u64, &mut [NnSearchTask<'_>]),
) {
    loop {
        let mut next: Option<(u64, usize)> = None;
        for (i, t) in tasks.iter().enumerate() {
            if let Some(arrival) = t.next_arrival() {
                if next.is_none_or(|(best, _)| arrival < best) {
                    next = Some((arrival, i));
                }
            }
        }
        let Some((_, i)) = next else { break };
        tasks[i].step();
        if tasks[i].is_done() {
            let best = tasks[i].best();
            let at = tasks[i].now();
            let others_running = tasks
                .iter()
                .enumerate()
                .any(|(j, t)| j != i && !t.is_done());
            if others_running {
                on_completion(i, best, at, tasks);
            }
        }
    }
}

/// Shared estimate fan-out: spawns one NN search from `from` on every
/// channel (all `k` searches start "at the earliest opportunity", §4.1)
/// for the caller to run through [`run_interleaved`] and pass back
/// through [`harvest_searches`].
pub(crate) fn spawn_parallel_searches<'a>(
    overlay: &PhaseOverlay<'a>,
    from: Point,
    issued_at: u64,
    ann: &AnnSpec,
    scratch: &mut [NnScratch],
) -> Vec<NnSearchTask<'a>> {
    scratch
        .iter_mut()
        .enumerate()
        .map(|(i, nn_scratch)| {
            NnSearchTask::with_scratch(
                overlay.view(i),
                SearchMode::Point { q: from },
                ann.mode(i),
                issued_at,
                nn_scratch,
            )
        })
        .collect()
}

/// Collects the finished tasks into an [`Estimate`] — each task's best
/// point as its channel's stop, plus its tuner, clock and queue
/// statistics — recycling the task buffers into `scratch`. Returns
/// [`TnnError::EmptyChannel`] when a search ended without reaching any
/// data point.
pub(crate) fn harvest_searches(
    tasks: Vec<NnSearchTask<'_>>,
    scratch: &mut [NnScratch],
) -> Result<Estimate, TnnError> {
    let mut stops = StopVec::new();
    let mut tuners = TunerVec::new();
    let mut end = 0u64;
    let mut hops = HopStatsVec::new();
    for (i, (task, nn_scratch)) in tasks.into_iter().zip(scratch.iter_mut()).enumerate() {
        let (pt, _, _) = task.best().ok_or(TnnError::EmptyChannel { channel: i })?;
        stops.push(pt);
        tuners.push(*task.tuner());
        end = end.max(task.now());
        hops.push(HopStats {
            peak_queue: task.peak_memory() as u64,
            prune_hits: task.parked_len() as u64,
        });
        task.recycle(nn_scratch);
    }
    Ok(Estimate {
        bound: Bound::Stops(stops),
        tuners,
        end,
        hops,
    })
}

/// Runs `query` over `env`'s own phases — the single-query entry point
/// of the core unit tests.
#[cfg(test)]
pub(crate) fn run_query(
    env: &tnn_broadcast::MultiChannelEnv,
    query: &Query,
    scratch: &mut QueryScratch,
) -> Result<QueryOutcome, TnnError> {
    crate::QueryEngine::new(env.clone()).run_with(query, scratch)
}

/// End-to-end tests of the order-free and round-trip query kinds.
#[cfg(test)]
mod variants {
    mod tests;
}

/// Degenerate inputs on every algorithm: empty channels error out, and
/// single-point channels answer exactly.
#[cfg(test)]
mod equivalence_tests {
    use super::*;
    use std::sync::Arc;
    use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn build_env(layers: &[Vec<Point>], page: usize, phases: &[u64]) -> MultiChannelEnv {
        let params = BroadcastParams::new(page);
        let trees = layers
            .iter()
            .map(|pts| {
                Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, phases)
    }

    /// Empty channels error out on every algorithm — the
    /// degenerate-input regression for the former `expect("non-empty S")`
    /// panics.
    #[test]
    fn empty_channels_error_on_all_algorithms_and_backends() {
        let params = BroadcastParams::new(64);
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i * 7 % 53) as f64, (i * 11 % 59) as f64))
            .collect();
        let full =
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let empty = Arc::new(RTree::empty(params.rtree_params()));
        for (layout, expect_channel) in [
            (vec![Arc::clone(&empty), Arc::clone(&full)], 0usize),
            (vec![Arc::clone(&full), Arc::clone(&empty)], 1),
            (
                vec![Arc::clone(&full), Arc::clone(&empty), Arc::clone(&full)],
                1,
            ),
        ] {
            let k = layout.len();
            let env = MultiChannelEnv::new(layout, params, &vec![0; k]);
            let p = Point::new(10.0, 10.0);
            for alg in Algorithm::ALL {
                let query = Query::tnn(p).algorithm(alg);
                let run = run_query(&env, &query, &mut QueryScratch::default());
                assert_eq!(
                    run.unwrap_err(),
                    TnnError::EmptyChannel {
                        channel: expect_channel
                    },
                    "{}",
                    alg.name()
                );
            }
        }
    }

    /// Single-point datasets work on every algorithm (no panic, exact
    /// answer) — the other half of the degenerate-input regression.
    #[test]
    fn single_point_channels_answer_exactly() {
        let params = BroadcastParams::new(64);
        let lone_s = vec![Point::new(10.0, 10.0)];
        let lone_r = vec![Point::new(20.0, 10.0)];
        let env = build_env(&[lone_s, lone_r], 64, &[3, 7]);
        let _ = params;
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            for issued_at in [0u64, 99] {
                let query = Query::tnn(Point::new(0.0, 0.0))
                    .algorithm(alg)
                    .issued_at(issued_at);
                let run = run_query(&env, &query, &mut QueryScratch::default()).unwrap();
                let pair = run.tnn_pair().expect("single-point channels still answer");
                let expect = Point::new(0.0, 0.0).dist(Point::new(10.0, 10.0)) + 10.0;
                assert!((pair.dist - expect).abs() < 1e-9, "{}", alg.name());
            }
        }
    }
}
