//! Double-NN-Search (paper §4.1, Algorithm 1), generalized to `k ≥ 2`
//! channels.
//!
//! All `k` nearest-neighbor queries run from the query point `p` **in
//! parallel**, starting "at the earliest opportunity, i.e., as soon as the
//! index roots appear in the channels". The radius is the feasible chain
//! through the per-channel NNs `nᵢ = p.NN(Sᵢ)`:
//! `d = dis(p, n₁) + Σ dis(nᵢ, nᵢ₊₁)` — Theorem 1 generalizes by the
//! triangle inequality (every member of the optimal chain lies within the
//! chain total, hence within `d`, of `p`), so the filter range contains
//! the answer. For `k = 2` this is exactly Algorithm 1's
//! `d = dis(p, s) + dis(s, r)` with `s = p.NN(S)`, `r = p.NN(R)`.

use super::{harvest_searches, run_interleaved, spawn_parallel_searches, Estimate, QueryScratch};
use crate::{AnnSpec, TnnError};
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
    // No re-targeting: the completion hook is a no-op.
    run_interleaved(&mut tasks, |_, _, _, _| {});
    // The stops are the per-channel NNs; Algorithm 1 line 4, k-ary,
    // d ← dis(p, n₁) + Σ dis(nᵢ, nᵢ₊₁), is `Estimate::radius`.
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
    fn radius_uses_both_nns_from_p() {
        let s = grid(100, 0);
        let r = grid(130, 5);
        let e = env(&s, &r, [3, 77]);
        let p = Point::new(90.0, 110.0);
        let est = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh()).unwrap();
        let s_star = s
            .iter()
            .min_by(|a, b| p.dist(**a).total_cmp(&p.dist(**b)))
            .unwrap();
        let r_star = r
            .iter()
            .min_by(|a, b| p.dist(**a).total_cmp(&p.dist(**b)))
            .unwrap();
        let expect = p.dist(*s_star) + s_star.dist(*r_star);
        assert!((est.radius(p, RouteObjective::Chain, &[]) - expect).abs() < 1e-9);
    }

    #[test]
    fn k_ary_radius_is_chain_through_per_channel_nns() {
        let layers = vec![grid(90, 0), grid(110, 7), grid(70, 19)];
        let e = env_k(&layers, &[3, 17, 91]);
        let p = Point::new(120.0, 90.0);
        let est = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh()).unwrap();
        let mut expect = 0.0;
        let mut prev = p;
        for layer in &layers {
            let nn = layer
                .iter()
                .min_by(|a, b| p.dist(**a).total_cmp(&p.dist(**b)))
                .unwrap();
            expect += prev.dist(*nn);
            prev = *nn;
        }
        assert!((est.radius(p, RouteObjective::Chain, &[]) - expect).abs() < 1e-9);
        assert_eq!(est.tuners.len(), 3);
    }

    #[test]
    fn double_radius_never_below_window_based_radius() {
        // The window-based radius uses s.NN(R), which minimizes the second
        // leg, so Double-NN's radius is always at least as large.
        let s = grid(140, 2);
        let r = grid(160, 11);
        let e = env(&s, &r, [9, 31]);
        for (px, py) in [(10.0, 10.0), (100.0, 50.0), (200.0, 200.0)] {
            let p = Point::new(px, py);
            let d_dbl = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh())
                .unwrap()
                .radius(p, RouteObjective::Chain, &[]);
            let d_win = super::super::window_based::estimate(
                &ov(&e),
                p,
                0,
                &AnnSpec::default(),
                &mut fresh(),
            )
            .unwrap()
            .radius(p, RouteObjective::Chain, &[]);
            assert!(d_dbl >= d_win - 1e-9);
        }
    }

    #[test]
    fn end_to_end_answer_is_exact() {
        let s = grid(150, 1);
        let r = grid(120, 9);
        let e = env(&s, &r, [17, 3]);
        for (px, py) in [(0.0, 0.0), (150.0, 100.0), (-40.0, 260.0)] {
            let p = Point::new(px, py);
            let run = crate::algorithms::run_query(
                &e,
                &Query::tnn(p).algorithm(Algorithm::DoubleNn).issued_at(4),
                &mut fresh(),
            )
            .unwrap();
            let got = run.tnn_pair().expect("double-NN never fails");
            let oracle = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
            assert!(
                (got.dist - oracle.dist).abs() < 1e-9,
                "query {p:?}: got {} expected {}",
                got.dist,
                oracle.dist
            );
        }
    }

    #[test]
    fn three_channel_run_matches_chain_oracle() {
        let layers = vec![grid(80, 1), grid(60, 9), grid(100, 21)];
        let e = env_k(&layers, &[5, 55, 555]);
        let p = Point::new(100.0, 100.0);
        let run = crate::algorithms::run_query(
            &e,
            &Query::tnn(p).algorithm(Algorithm::DoubleNn),
            &mut fresh(),
        )
        .unwrap();
        let trees: Vec<&RTree> = e.channels().iter().map(|c| c.tree()).collect();
        let (_, oracle_total) = crate::exact_chain_tnn(p, &trees);
        assert!((run.total_dist.unwrap() - oracle_total).abs() < 1e-9);
        assert_eq!(run.route.len(), 3);
        assert_eq!(run.channels.len(), 3);
        assert_eq!(run.candidates.len(), 3);
    }

    #[test]
    fn estimate_phases_overlap_in_time() {
        // Parallel searches: both channels' estimate downloads start
        // within one bucket of the issue time, unlike Window-Based where
        // channel 1 waits for channel 0 to finish.
        let s = grid(400, 0);
        let r = grid(400, 7);
        let e = env(&s, &r, [0, 0]);
        let p = Point::new(105.0, 105.0);
        let est = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh()).unwrap();
        let bucket0 = e.channel(0).layout().bucket_len();
        let bucket1 = e.channel(1).layout().bucket_len();
        // First download on each channel happens within its first bucket
        // (finish_time - pages gives a coarse lower bound on the start).
        assert!(est.tuners[0].finish_time.unwrap() <= bucket0 + e.channel(0).layout().index_len());
        assert!(est.tuners[1].finish_time.unwrap() <= bucket1 + e.channel(1).layout().index_len());
    }
}
