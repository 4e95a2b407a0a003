//! TNN variants from the paper's future-work list (§7), generalized to
//! `k ≥ 2` channels:
//!
//! * **Order-free TNN** (item 2: "the visiting order of the types of
//!   objects of interest is not specified"): find the shortest route
//!   visiting one object of every dataset in *any* order — for two
//!   channels, the better of `p → s → r` and `p → r → s`.
//! * **Round-trip TNN** (item 3: "a complete travel route, which includes
//!   the route to return to the source point"): minimize the closed tour
//!   `p → s₁ → … → s_k → p` in channel order.
//!
//! Both reuse the Double-NN estimate (parallel NN searches from `p` on
//! every channel) and generalize Theorem 1:
//!
//! * order-free: the winning route's total `T*` is at most the best
//!   feasible chain through the per-channel NNs over all visit orders,
//!   and every member of the optimal route lies within `T*` of `p` (its
//!   prefix legs already cover the distance) — so `circle(p, d)` with
//!   `d = min_σ chain(p, n_{σ(1)}, …, n_{σ(k)})` suffices;
//! * round-trip: for any tour through `x`, the triangle inequality gives
//!   `2·dis(p, x) ≤ tour length`, so `circle(p, d/2)` with `d` the
//!   feasible NN tour suffices.
//!
//! The order-free join evaluates all `k!` visit orders over the candidate
//! sets (each via the layered sweep join), so its local cost grows
//! factorially with the channel count — fine for the broadcast scenarios'
//! `k ≤ 4`, and the paper neglects local computation throughout.

use super::{
    chain_length, check_channels_non_empty, harvest_searches, run_interleaved,
    spawn_parallel_searches, HopStatsVec, QueryScratch, TunerVec,
};
use crate::merge::{merge_route_layers, MergedRoute, RouteObjective};
use crate::task::queue::CandidateQueue;
use crate::task::{WindowQueryTask, WindowScratch};
use crate::{AnnSpec, ChannelCost, QueryKind, QueryOutcome, TnnError, TnnPair};
use tnn_broadcast::{PhaseOverlay, Tuner};
use tnn_geom::{Circle, Point};
use tnn_rtree::ObjectId;

/// Which dataset a two-channel order-free answer visits first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitOrder {
    /// `p → s → r` (the plain TNN order).
    SFirst,
    /// `p → r → s` (the reversed order).
    RFirst,
}

fn validate(overlay: &PhaseOverlay<'_>, p: Point, ann: &AnnSpec) -> Result<(), TnnError> {
    let k = overlay.len();
    if k < 2 {
        return Err(TnnError::WrongChannelCount {
            needed: 2,
            available: k,
        });
    }
    if !p.is_finite() {
        return Err(TnnError::NonFiniteQuery);
    }
    ann.check_channels(k);
    check_channels_non_empty(overlay)
}

/// Shared estimate: parallel NN searches from `p` on every channel,
/// returning the per-channel NN points with their estimate costs.
#[allow(clippy::type_complexity)]
fn parallel_estimate<Q: CandidateQueue>(
    overlay: &PhaseOverlay<'_>,
    p: Point,
    issued_at: u64,
    ann: &AnnSpec,
    scratch: &mut QueryScratch<Q>,
) -> Result<(Vec<(Point, ObjectId)>, TunerVec, u64, HopStatsVec), TnnError> {
    let k = overlay.len();
    let mut tasks =
        spawn_parallel_searches(overlay, p, issued_at, |i| ann.mode(i), scratch.nn_slice(k));
    run_interleaved(&mut tasks, |_, _, _, _| {});
    harvest_searches(tasks, scratch.nn_slice(k))
}

/// Runs the filter windows on every channel out of the caller's scratch
/// buffers and returns the completed tasks (the joins read the hit lists
/// in place; recycle the tasks when done) plus the filter finish time.
fn filter<'a>(
    overlay: &PhaseOverlay<'a>,
    range: Circle,
    start: u64,
    window: &mut [WindowScratch],
) -> (Vec<WindowQueryTask<'a>>, u64) {
    let mut tasks = Vec::with_capacity(overlay.len());
    let mut end = start;
    for (i, w_scratch) in window.iter_mut().take(overlay.len()).enumerate() {
        let mut w = WindowQueryTask::with_scratch(overlay.view(i), range, start, w_scratch);
        end = end.max(w.run_to_completion());
        tasks.push(w);
    }
    (tasks, end)
}

/// Per-channel cost assembly shared by both variants, including the
/// final retrieval of the answer objects' data pages.
#[allow(clippy::too_many_arguments)] // plain accounting glue, one value per field
fn assemble(
    kind: QueryKind,
    overlay: &PhaseOverlay<'_>,
    issued_at: u64,
    est_tuners: &TunerVec,
    est_end: u64,
    est_hops: &HopStatsVec,
    filter_tuners: &[Tuner],
    filter_end: u64,
    merged: MergedRoute,
    search_radius: f64,
    retrieve: bool,
) -> QueryOutcome {
    let k = overlay.len();
    let mut channels = vec![ChannelCost::default(); k];
    for i in 0..k {
        channels[i].estimate_pages = est_tuners[i].pages;
        channels[i].filter_pages = filter_tuners[i].pages;
        channels[i].peak_queue = est_hops[i].peak_queue;
        channels[i].prune_hits = est_hops[i].prune_hits;
        channels[i].finish_time = est_tuners[i]
            .finish_time
            .unwrap_or(issued_at)
            .max(filter_tuners[i].finish_time.unwrap_or(issued_at))
            .max(est_end);
    }
    let total_dist = Some(merged.total_dist);
    let route = merged.into_route();
    if retrieve {
        for stop in &route {
            let (done, pages) = overlay
                .view(stop.channel)
                .retrieve_object(stop.object, filter_end);
            let cost = &mut channels[stop.channel];
            cost.retrieve_pages += pages;
            cost.finish_time = cost.finish_time.max(done);
        }
    }
    let completed_at = channels
        .iter()
        .map(|c| c.finish_time)
        .max()
        .unwrap_or(filter_end)
        .max(filter_end);
    QueryOutcome {
        kind,
        route,
        total_dist,
        search_radius,
        issued_at,
        estimate_end: None,
        completed_at,
        candidates: Vec::new(),
        channels,
        degraded: false,
    }
}

/// The order-free pipeline behind [`crate::Query::order_free`]: runs over
/// a [`PhaseOverlay`] (zero-clone per-query phases), supports per-channel
/// ANN modes through [`AnnSpec`], and reuses the caller's k-ary
/// [`QueryScratch`].
///
/// # Errors
/// [`TnnError::WrongChannelCount`] for fewer than two channels;
/// [`TnnError::NonFiniteQuery`] for NaN/infinite query points;
/// [`TnnError::EmptyChannel`] for channels broadcasting empty datasets.
///
/// # Panics
/// Panics when a per-channel [`AnnSpec`] does not match the channel
/// count.
pub fn order_free_tnn_overlay<Q: CandidateQueue>(
    overlay: &PhaseOverlay<'_>,
    p: Point,
    issued_at: u64,
    ann: &AnnSpec,
    retrieve_answer_objects: bool,
    scratch: &mut QueryScratch<Q>,
) -> Result<QueryOutcome, TnnError> {
    validate(overlay, p, ann)?;
    let k = overlay.len();
    let (nns, est_tuners, est_end, est_hops) =
        parallel_estimate(overlay, p, issued_at, ann, scratch)?;
    scratch.ensure_visit_orders(k);

    // Best feasible chain through the per-channel NNs over all visit
    // orders; earlier (lexicographic) orders win ties.
    let mut radius = f64::INFINITY;
    for order in &scratch.visit_orders {
        let d = chain_length(p, order.iter().map(|&i| nns[i].0));
        if d < radius {
            radius = d;
        }
    }

    let range = Circle::new(p, radius * (1.0 + 4.0 * f64::EPSILON));
    // Field destructuring keeps the window, join, and permutation-table
    // borrows disjoint.
    let QueryScratch {
        window,
        join,
        visit_orders,
        ..
    } = scratch;
    let (windows, filter_end) = filter(overlay, range, est_end, window);
    let filter_tuners: Vec<Tuner> = windows.iter().map(|w| *w.tuner()).collect();

    let layers: Vec<&[(Point, ObjectId)]> = windows.iter().map(|w| w.hits()).collect();
    let merged = merge_route_layers(
        join,
        RouteObjective::OrderFree,
        p,
        &layers,
        Some(visit_orders),
    )
    .expect("the estimate chain lies inside the range, so no layer is empty");
    for (w, w_scratch) in windows.into_iter().zip(window.iter_mut()) {
        w.recycle(w_scratch);
    }
    Ok(assemble(
        QueryKind::OrderFree,
        overlay,
        issued_at,
        &est_tuners,
        est_end,
        &est_hops,
        &filter_tuners,
        filter_end,
        merged,
        radius,
        retrieve_answer_objects,
    ))
}

/// The round-trip pipeline behind [`crate::Query::round_trip`]: minimizes
/// the closed tour `dis(p, s₁) + Σ dis(sᵢ, sᵢ₊₁) + dis(s_k, p)` with
/// `sᵢ` drawn from channel `i`, visiting the channels in order. Runs over
/// a [`PhaseOverlay`], supports per-channel ANN modes, and reuses the
/// caller's [`QueryScratch`].
///
/// The filter uses `circle(p, d/2)`: any optimal-tour member `x`
/// satisfies `2·dis(p, x) ≤ tour ≤ d` by the triangle inequality.
///
/// # Errors
/// As [`order_free_tnn_overlay`].
///
/// # Panics
/// Panics when a per-channel [`AnnSpec`] does not match the channel
/// count.
pub fn round_trip_tnn_overlay<Q: CandidateQueue>(
    overlay: &PhaseOverlay<'_>,
    p: Point,
    issued_at: u64,
    ann: &AnnSpec,
    retrieve_answer_objects: bool,
    scratch: &mut QueryScratch<Q>,
) -> Result<QueryOutcome, TnnError> {
    validate(overlay, p, ann)?;
    let (nns, est_tuners, est_end, est_hops) =
        parallel_estimate(overlay, p, issued_at, ann, scratch)?;
    let d_loop =
        chain_length(p, nns.iter().map(|&(pt, _)| pt)) + nns.last().expect("k ≥ 2 hops").0.dist(p);

    let range = Circle::new(p, d_loop * 0.5 * (1.0 + 4.0 * f64::EPSILON));
    let QueryScratch { window, join, .. } = scratch;
    let (windows, filter_end) = filter(overlay, range, est_end, window);
    let filter_tuners: Vec<Tuner> = windows.iter().map(|w| *w.tuner()).collect();

    let layers: Vec<&[(Point, ObjectId)]> = windows.iter().map(|w| w.hits()).collect();
    let merged = merge_route_layers(join, RouteObjective::RoundTrip, p, &layers, None)
        .expect("the estimate tour lies inside the half-radius range");
    for (w, w_scratch) in windows.into_iter().zip(window.iter_mut()) {
        w.recycle(w_scratch);
    }
    Ok(assemble(
        QueryKind::RoundTrip,
        overlay,
        issued_at,
        &est_tuners,
        est_end,
        &est_hops,
        &filter_tuners,
        filter_end,
        merged,
        d_loop * 0.5,
        retrieve_answer_objects,
    ))
}

/// The two-channel round-trip join: minimum of
/// `dis(p,s) + dis(s,r) + dis(r,p)` over the candidate sets, with early
/// exit over `s` ordered by `dis(p, s)` (for any `r`,
/// `dis(s,r) + dis(r,p) ≥ dis(s,p)`, so the tour through `s` is at least
/// `2·dis(p,s)`). The `k > 2` generalization is
/// [`crate::chain_loop_join`].
pub fn round_trip_join(
    p: Point,
    s_cands: &[(Point, ObjectId)],
    r_cands: &[(Point, ObjectId)],
) -> Option<TnnPair> {
    if s_cands.is_empty() || r_cands.is_empty() {
        return None;
    }
    let mut order: Vec<usize> = (0..s_cands.len()).collect();
    order.sort_by(|&a, &b| p.dist_sq(s_cands[a].0).total_cmp(&p.dist_sq(s_cands[b].0)));
    let mut best: Option<TnnPair> = None;
    for &si in &order {
        let (s_pt, s_id) = s_cands[si];
        let d_ps = p.dist(s_pt);
        if let Some(b) = &best {
            if 2.0 * d_ps >= b.dist {
                break;
            }
        }
        for &(r_pt, r_id) in r_cands {
            let loop_len = d_ps + s_pt.dist(r_pt) + r_pt.dist(p);
            if best.as_ref().is_none_or(|b| loop_len < b.dist) {
                best = Some(TnnPair {
                    s: (s_pt, s_id),
                    r: (r_pt, r_id),
                    dist: loop_len,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::permutations;
    use crate::task::queue::ArrivalHeap;
    use crate::AnnMode;
    use std::sync::Arc;
    use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn order_free(
        env: &MultiChannelEnv,
        p: Point,
        issued_at: u64,
        ann: AnnMode,
        retrieve: bool,
    ) -> Result<QueryOutcome, TnnError> {
        order_free_tnn_overlay(
            &PhaseOverlay::identity(env),
            p,
            issued_at,
            &AnnSpec::Uniform(ann),
            retrieve,
            &mut QueryScratch::<ArrivalHeap>::default(),
        )
    }

    fn round_trip(
        env: &MultiChannelEnv,
        p: Point,
        issued_at: u64,
        ann: AnnMode,
        retrieve: bool,
    ) -> Result<QueryOutcome, TnnError> {
        round_trip_tnn_overlay(
            &PhaseOverlay::identity(env),
            p,
            issued_at,
            &AnnSpec::Uniform(ann),
            retrieve,
            &mut QueryScratch::<ArrivalHeap>::default(),
        )
    }

    /// Forward length `p → stop₁ → … → stop_k` of an outcome's route.
    fn one_way(p: Point, run: &QueryOutcome) -> f64 {
        chain_length(p, run.route.iter().map(|s| s.point))
    }

    fn env_k(layers: &[Vec<Point>], phases: &[u64]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = layers
            .iter()
            .map(|pts| {
                Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, phases)
    }

    fn env(s: &[Point], r: &[Point]) -> MultiChannelEnv {
        env_k(&[s.to_vec(), r.to_vec()], &[13, 31])
    }

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

    #[test]
    fn permutations_are_lexicographic_identity_first() {
        let perms = permutations(3);
        assert_eq!(perms.len(), 6);
        assert_eq!(perms[0], vec![0, 1, 2]);
        assert_eq!(perms[5], vec![2, 1, 0]);
        assert_eq!(permutations(2), vec![vec![0, 1], vec![1, 0]]);
    }

    #[test]
    fn order_free_matches_brute_force() {
        let s = cloud(90, 1);
        let r = cloud(70, 8);
        let e = env(&s, &r);
        for (px, py) in [(10.0, 10.0), (120.0, 80.0), (200.0, 150.0)] {
            let p = Point::new(px, py);
            let run = order_free(&e, p, 0, AnnMode::Exact, false).unwrap();
            let mut best = f64::INFINITY;
            for &sp in &s {
                for &rp in &r {
                    best = best
                        .min(p.dist(sp) + sp.dist(rp))
                        .min(p.dist(rp) + rp.dist(sp));
                }
            }
            assert!((run.total_dist.unwrap() - best).abs() < 1e-9, "query {p:?}");
        }
    }

    #[test]
    fn order_free_three_channels_matches_brute_force() {
        let layers = vec![cloud(25, 1), cloud(30, 8), cloud(20, 15)];
        let e = env_k(&layers, &[3, 17, 91]);
        for (px, py) in [(40.0, 40.0), (160.0, 120.0)] {
            let p = Point::new(px, py);
            let run = order_free(&e, p, 0, AnnMode::Exact, false).unwrap();
            // Brute force over all orders and all triples.
            let mut best = f64::INFINITY;
            for order in permutations(3) {
                for &a in &layers[order[0]] {
                    for &b in &layers[order[1]] {
                        for &c in &layers[order[2]] {
                            best = best.min(p.dist(a) + a.dist(b) + b.dist(c));
                        }
                    }
                }
            }
            let total = run.total_dist.unwrap();
            assert!(
                (total - best).abs() < 1e-9,
                "query {p:?}: got {total} expected {best}"
            );
            assert_eq!(run.route.len(), 3);
            // The stops visit each channel exactly once.
            let mut seen: Vec<usize> = run.route.iter().map(|s| s.channel).collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2]);
            // The reported total is realized by the reported stops.
            assert!((one_way(p, &run) - total).abs() < 1e-9);
        }
    }

    #[test]
    fn order_free_never_worse_than_fixed_order() {
        let s = cloud(60, 2);
        let r = cloud(80, 5);
        let e = env(&s, &r);
        let p = Point::new(77.0, 99.0);
        let free = order_free(&e, p, 0, AnnMode::Exact, false).unwrap();
        let fixed = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
        assert!(free.total_dist.unwrap() <= fixed.dist + 1e-9);
    }

    #[test]
    fn order_free_reports_consistent_order() {
        // Put R's points very close to p and S far: visiting R first wins.
        let s: Vec<Point> = (0..30)
            .map(|i| Point::new(500.0 + i as f64, 500.0))
            .collect();
        let r: Vec<Point> = (0..30).map(|i| Point::new(10.0 + i as f64, 10.0)).collect();
        let e = env(&s, &r);
        let p = Point::new(0.0, 0.0);
        let run = order_free(&e, p, 0, AnnMode::Exact, false).unwrap();
        assert_eq!(run.visit_order(), Some(VisitOrder::RFirst));
        assert_eq!(run.route[0].channel, 1);
        assert_eq!(run.route[1].channel, 0);
    }

    #[test]
    fn round_trip_matches_brute_force() {
        let s = cloud(70, 3);
        let r = cloud(60, 11);
        let e = env(&s, &r);
        for (px, py) in [(30.0, 170.0), (150.0, 40.0)] {
            let p = Point::new(px, py);
            let run = round_trip(&e, p, 0, AnnMode::Exact, false).unwrap();
            let mut best = f64::INFINITY;
            for &sp in &s {
                for &rp in &r {
                    best = best.min(p.dist(sp) + sp.dist(rp) + rp.dist(p));
                }
            }
            assert!((run.total_dist.unwrap() - best).abs() < 1e-9, "query {p:?}");
        }
    }

    #[test]
    fn round_trip_three_channels_matches_brute_force() {
        let layers = vec![cloud(25, 4), cloud(22, 12), cloud(28, 21)];
        let e = env_k(&layers, &[7, 3, 55]);
        for (px, py) in [(60.0, 60.0), (150.0, 110.0)] {
            let p = Point::new(px, py);
            let run = round_trip(&e, p, 0, AnnMode::Exact, false).unwrap();
            let mut best = f64::INFINITY;
            for &a in &layers[0] {
                for &b in &layers[1] {
                    for &c in &layers[2] {
                        best = best.min(p.dist(a) + a.dist(b) + b.dist(c) + c.dist(p));
                    }
                }
            }
            let total = run.total_dist.unwrap();
            assert!(
                (total - best).abs() < 1e-9,
                "query {p:?}: got {total} expected {best}"
            );
            // Channel order, closed at p.
            assert_eq!(
                run.route.iter().map(|s| s.channel).collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
            let back = run.route.last().unwrap().point.dist(p);
            assert!((one_way(p, &run) + back - total).abs() < 1e-9);
        }
    }

    #[test]
    fn round_trip_value_is_symmetric_in_dataset_roles() {
        let s = cloud(50, 4);
        let r = cloud(55, 9);
        let p = Point::new(111.0, 55.0);
        let run_sr = round_trip(&env(&s, &r), p, 0, AnnMode::Exact, false).unwrap();
        let run_rs = round_trip(&env(&r, &s), p, 0, AnnMode::Exact, false).unwrap();
        assert!((run_sr.total_dist.unwrap() - run_rs.total_dist.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn round_trip_is_at_least_one_way() {
        let s = cloud(40, 6);
        let r = cloud(45, 13);
        let e = env(&s, &r);
        let p = Point::new(60.0, 60.0);
        let rt = round_trip(&e, p, 0, AnnMode::Exact, false).unwrap();
        let ow = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
        assert!(rt.total_dist.unwrap() >= ow.dist - 1e-9);
    }

    #[test]
    fn variants_validate_inputs() {
        let s = cloud(10, 0);
        let e = env(&s, &s);
        assert!(matches!(
            order_free(&e, Point::new(f64::NAN, 0.0), 0, AnnMode::Exact, false),
            Err(TnnError::NonFiniteQuery)
        ));
        assert!(matches!(
            round_trip(&e, Point::new(0.0, f64::INFINITY), 0, AnnMode::Exact, false),
            Err(TnnError::NonFiniteQuery)
        ));
        let params = BroadcastParams::new(64);
        let full =
            Arc::new(RTree::build(&s, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let empty = Arc::new(RTree::empty(params.rtree_params()));
        let degenerate = MultiChannelEnv::new(vec![full, empty], params, &[0, 0]);
        assert_eq!(
            order_free(&degenerate, Point::ORIGIN, 0, AnnMode::Exact, false).unwrap_err(),
            TnnError::EmptyChannel { channel: 1 }
        );
        assert_eq!(
            round_trip(&degenerate, Point::ORIGIN, 0, AnnMode::Exact, false).unwrap_err(),
            TnnError::EmptyChannel { channel: 1 }
        );
    }

    #[test]
    fn variants_account_costs() {
        let s = cloud(80, 7);
        let r = cloud(90, 15);
        let e = env(&s, &r);
        let p = Point::new(100.0, 100.0);
        let run = round_trip(&e, p, 5, AnnMode::Exact, true).unwrap();
        assert!(run.tune_in() > 0);
        assert!(run.access_time() > 0);
        // Retrieval downloaded both objects' pages (16 each at 64 B).
        assert_eq!(
            run.channels[0].retrieve_pages + run.channels[1].retrieve_pages,
            32
        );
    }

    #[test]
    fn round_trip_join_empty_sides() {
        assert!(round_trip_join(Point::ORIGIN, &[], &[]).is_none());
        let one = vec![(Point::new(1.0, 0.0), ObjectId(0))];
        assert!(round_trip_join(Point::ORIGIN, &one, &[]).is_none());
        let pair = round_trip_join(Point::ORIGIN, &one, &one).unwrap();
        assert!((pair.dist - 2.0).abs() < 1e-12);
    }
}
