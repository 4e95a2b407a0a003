//! Hybrid-NN-Search (paper §4.2, Algorithm 2), generalized to `k ≥ 2`
//! channels.
//!
//! Starts exactly like Double-NN (case 1: all `k` searches from `p` in
//! parallel). Whenever one hop's search finishes while others still run,
//! the finisher re-targets its still-running **neighbor hops** to shrink
//! their search ranges:
//!
//! * **Case 2, downstream** — hop `i` finishes with `nᵢ`: the hop `i+1`
//!   search re-anchors at `nᵢ` (its query point switches from `p` to
//!   `nᵢ`, or — when a later hop already re-targeted it to the
//!   transitive metric — its source focus moves to `nᵢ`), finding the
//!   neighbor of `nᵢ` on the remaining portion of channel `i+1`'s tree.
//! * **Case 3, upstream** — hop `i` finishes with `nᵢ`: the hop `i−1`
//!   search switches to the transitive metric, branch-and-bounding with
//!   `MinTransDist` / `MinMaxTransDist` to find the point minimizing
//!   `dis(a, s) + dis(s, nᵢ)` on the remaining portion, where `a` is the
//!   hop's current anchor (`p`, or the upstream result that case 2
//!   already re-anchored it to).
//!
//! For `k = 2` exactly one switch can fire and the two rules are the
//! paper's case 2 / case 3 verbatim. Either way the estimate ends with a
//! feasible chain through the hops' final results and radius
//! `d = dis(p, n₁) + Σ dis(nᵢ, nᵢ₊₁)`; delayed pruning (§4.2.4)
//! guarantees every re-targeted search still has every candidate it
//! needs, per hop.

use super::{harvest_searches, run_interleaved, spawn_parallel_searches, Estimate, QueryScratch};
use crate::{AnnSpec, SearchMode, TnnError};
use tnn_broadcast::PhaseOverlay;
use tnn_geom::Point;

pub(crate) fn estimate(
    overlay: &PhaseOverlay<'_>,
    p: Point,
    issued_at: u64,
    ann: &AnnSpec,
    scratch: &mut QueryScratch,
) -> Result<Estimate, TnnError> {
    let k = overlay.len();
    let mut tasks = spawn_parallel_searches(overlay, p, issued_at, ann, scratch.nn_slice(k));
    run_interleaved(&mut tasks, |i, finished_best, at, tasks| {
        let Some((n_i, _, _)) = finished_best else {
            return; // nothing to re-target around (caught as EmptyChannel later)
        };
        // Case 3: the upstream neighbor switches to the transitive metric
        // through its current anchor and the finished hop's result.
        if i > 0 && !tasks[i - 1].is_done() {
            let anchor = tasks[i - 1].mode().anchor();
            tasks[i - 1].switch_to_transitive(anchor, n_i, at);
        }
        // Case 2: the downstream neighbor re-anchors at the finished
        // hop's result, keeping a transitive target if it has one.
        if i + 1 < tasks.len() && !tasks[i + 1].is_done() {
            match tasks[i + 1].mode() {
                SearchMode::Point { .. } => tasks[i + 1].switch_query_point(n_i, at),
                SearchMode::Transitive { r, .. } => tasks[i + 1].switch_to_transitive(n_i, r, at),
            }
        }
    });
    harvest_searches(tasks, scratch.nn_slice(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteObjective;
    use crate::{Algorithm, Query};
    use std::sync::Arc;
    use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn fresh() -> super::QueryScratch {
        super::QueryScratch::default()
    }

    fn ov(env: &MultiChannelEnv) -> PhaseOverlay<'_> {
        PhaseOverlay::identity(env)
    }

    fn rq(env: &MultiChannelEnv, query: &Query) -> crate::QueryOutcome {
        crate::algorithms::run_query(env, query, &mut fresh()).unwrap()
    }

    fn env(s: &[Point], r: &[Point], phases: [u64; 2]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let ts = RTree::build(s, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        let tr = RTree::build(r, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        MultiChannelEnv::new(vec![Arc::new(ts), Arc::new(tr)], params, &phases)
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

    fn grid(n: usize, salt: usize) -> Vec<Point> {
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
    fn end_to_end_answer_is_exact_small_s() {
        // Small S, large R → case 2 territory (S finishes first).
        let s = grid(30, 1);
        let r = grid(900, 9);
        let e = env(&s, &r, [3, 55]);
        for (px, py) in [(20.0, 20.0), (150.0, 100.0), (80.0, 210.0)] {
            let p = Point::new(px, py);
            let run = rq(
                &e,
                &Query::tnn(p).algorithm(Algorithm::HybridNn).issued_at(2),
            );
            let got = run.tnn_pair().expect("hybrid never fails");
            let oracle = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
            assert!(
                (got.dist - oracle.dist).abs() < 1e-9,
                "case-2 query {p:?}: got {} expected {}",
                got.dist,
                oracle.dist
            );
        }
    }

    #[test]
    fn end_to_end_answer_is_exact_small_r() {
        // Large S, small R → case 3 territory (R finishes first).
        let s = grid(900, 4);
        let r = grid(30, 13);
        let e = env(&s, &r, [21, 5]);
        for (px, py) in [(10.0, 190.0), (130.0, 60.0)] {
            let p = Point::new(px, py);
            let run = rq(
                &e,
                &Query::tnn(p).algorithm(Algorithm::HybridNn).issued_at(7),
            );
            let got = run.tnn_pair().expect("hybrid never fails");
            let oracle = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
            assert!(
                (got.dist - oracle.dist).abs() < 1e-9,
                "case-3 query {p:?}: got {} expected {}",
                got.dist,
                oracle.dist
            );
        }
    }

    #[test]
    fn three_channel_retargeting_stays_exact() {
        // A tiny middle hop finishes first, re-targeting both neighbors
        // (upstream goes transitive, downstream re-anchors); asymmetric
        // outer hops then finish in either order. The answer must still
        // match the chain oracle.
        let layouts: [[usize; 3]; 3] = [[700, 20, 500], [25, 600, 700], [650, 550, 18]];
        for (case, sizes) in layouts.iter().enumerate() {
            let layers: Vec<Vec<Point>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| grid(n, 3 * i + 1))
                .collect();
            let e = env_k(&layers, &[40, 3, 17]);
            for (px, py) in [(10.0, 10.0), (140.0, 90.0)] {
                let p = Point::new(px, py);
                let run = rq(
                    &e,
                    &Query::tnn(p).algorithm(Algorithm::HybridNn).issued_at(1),
                );
                let trees: Vec<&RTree> = e.channels().iter().map(|c| c.tree()).collect();
                let (_, oracle_total) = crate::exact_chain_tnn(p, &trees);
                let got = run.total_dist.expect("hybrid never fails");
                assert!(
                    (got - oracle_total).abs() < 1e-9,
                    "case {case} query {p:?}: got {got} expected {oracle_total}"
                );
            }
        }
    }

    #[test]
    fn four_channel_hybrid_matches_double_answers() {
        // The re-targeting is a cost optimization; both algorithms must
        // return the same (exact) chain totals at k = 4.
        let layers: Vec<Vec<Point>> = (0..4).map(|i| grid(150 + 60 * i, 7 * i + 2)).collect();
        let e = env_k(&layers, &[1, 22, 333, 4_444]);
        for (px, py) in [(55.0, 66.0), (190.0, 20.0)] {
            let p = Point::new(px, py);
            let hybrid = rq(&e, &Query::tnn(p).algorithm(Algorithm::HybridNn));
            let double = rq(&e, &Query::tnn(p).algorithm(Algorithm::DoubleNn));
            assert!(
                (hybrid.total_dist.unwrap() - double.total_dist.unwrap()).abs() < 1e-9,
                "query {p:?}"
            );
        }
    }

    #[test]
    fn hybrid_and_double_have_same_access_pattern_start() {
        // Both algorithms begin identically (case 1); their estimate
        // phases start at the same root arrivals.
        let s = grid(200, 0);
        let r = grid(200, 3);
        let e = env(&s, &r, [0, 9]);
        let p = Point::new(100.0, 100.0);
        let h = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh()).unwrap();
        let d = super::super::double_nn::estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh())
            .unwrap();
        // Same estimate end (the paper: "Double-NN and Hybrid-NN always
        // have the same access time") — identical queues, possibly fewer
        // downloads for hybrid after the switch, but the same last
        // arrival governs both unless hybrid prunes the tail, in which
        // case it can only end earlier.
        assert!(h.end <= d.end);
    }

    #[test]
    fn hybrid_radius_never_exceeds_double_radius_case3() {
        // In case 3 hybrid minimizes the transitive distance over the
        // remaining S-tree, which includes the whole tree when the switch
        // happens at the root — its radius is then ≤ Double-NN's.
        // (With partial progress the guarantee is heuristic; we check the
        // strong small-R case where the switch fires immediately.)
        let s = grid(900, 4);
        let r = grid(12, 13);
        let e = env(&s, &r, [50, 0]);
        for (px, py) in [(30.0, 30.0), (170.0, 120.0), (60.0, 200.0)] {
            let p = Point::new(px, py);
            let h = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh())
                .unwrap()
                .radius(p, RouteObjective::Chain, &[]);
            let d =
                super::super::double_nn::estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh())
                    .unwrap()
                    .radius(p, RouteObjective::Chain, &[]);
            assert!(h <= d + 1e-9, "hybrid {h} > double {d} at {p:?}");
        }
    }

    #[test]
    fn ann_configuration_still_returns_exact_answer() {
        // ANN enlarges the radius but Theorem 1 keeps the answer exact.
        let s = grid(300, 2);
        let r = grid(250, 8);
        let e = env(&s, &r, [7, 19]);
        let p = Point::new(111.0, 99.0);
        let query = Query::tnn(p).algorithm(Algorithm::HybridNn).ann_modes(
            &[crate::AnnMode::Dynamic {
                factor: 1.0 / 150.0,
            }; 2],
        );
        let run = rq(&e, &query);
        let got = run.tnn_pair().unwrap();
        let oracle = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
        assert!((got.dist - oracle.dist).abs() < 1e-9);
    }
}
