//! Window-Based-TNN-Search \[19\], adapted to the multi-channel
//! environment (paper §3.1) and generalized to `k ≥ 2` channels.
//!
//! Estimate phase — **sequential**: find `n₁ = p.NN(S₁)` on channel 1,
//! then `n₂ = n₁.NN(S₂)` on channel 2, and so on down the hops (each
//! query cannot start before its predecessor finishes, which is exactly
//! the deficiency §3.2 calls out — and it compounds with `k`); radius
//! `d = dis(p, n₁) + Σ dis(nᵢ, nᵢ₊₁)`. The filter phase runs on all
//! channels in parallel (the adaptation to simultaneous access).

use super::{Bound, Estimate, HopStats, HopStatsVec, QueryScratch, StopVec, TunerVec};
use crate::task::NnSearchTask;
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
    let mut tuners = TunerVec::new();
    let mut hops = HopStatsVec::new();
    let mut stops = StopVec::new();
    let mut from = p;
    let mut now = issued_at;
    let mut end = issued_at;
    for (i, nn_scratch) in scratch.nn_slice(k).iter_mut().enumerate() {
        // Hop i: nᵢ = n_{i−1}.NN(Sᵢ), starting only after hop i−1
        // finished.
        let mut task = NnSearchTask::with_scratch(
            overlay.view(i),
            SearchMode::Point { q: from },
            ann.mode(i),
            now,
            nn_scratch,
        );
        now = task.run_to_completion();
        end = end.max(now);
        let best = task.best();
        tuners.push(*task.tuner());
        hops.push(HopStats {
            peak_queue: task.peak_memory() as u64,
            prune_hits: task.parked_len() as u64,
        });
        task.recycle(nn_scratch);
        let (pt, _, _) = best.ok_or(TnnError::EmptyChannel { channel: i })?;
        stops.push(pt);
        from = pt;
    }

    Ok(Estimate {
        bound: Bound::Stops(stops),
        tuners,
        end,
        hops,
    })
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

    fn env(s: &[Point], r: &[Point]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let ts = RTree::build(s, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        let tr = RTree::build(r, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        MultiChannelEnv::new(vec![Arc::new(ts), Arc::new(tr)], params, &[5, 42])
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
    fn radius_is_window_based_formula() {
        let s = grid(120, 0);
        let r = grid(150, 7);
        let e = env(&s, &r);
        let p = Point::new(100.0, 100.0);
        let est = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh()).unwrap();
        // s* = p's true NN in S; r* = s*'s true NN in R.
        let s_star = s
            .iter()
            .min_by(|a, b| p.dist(**a).total_cmp(&p.dist(**b)))
            .unwrap();
        let r_star = r
            .iter()
            .min_by(|a, b| s_star.dist(**a).total_cmp(&s_star.dist(**b)))
            .unwrap();
        let expect = p.dist(*s_star) + s_star.dist(*r_star);
        assert!((est.radius(p, RouteObjective::Chain, &[]) - expect).abs() < 1e-9);
    }

    #[test]
    fn k_ary_radius_walks_greedy_nn_hops() {
        let layers = vec![grid(90, 3), grid(120, 11), grid(70, 29)];
        let e = env_k(&layers, &[5, 42, 7]);
        let p = Point::new(60.0, 140.0);
        let est = estimate(&ov(&e), p, 0, &AnnSpec::default(), &mut fresh()).unwrap();
        let mut expect = 0.0;
        let mut from = p;
        for layer in &layers {
            let nn = layer
                .iter()
                .min_by(|a, b| from.dist(**a).total_cmp(&from.dist(**b)))
                .unwrap();
            expect += from.dist(*nn);
            from = *nn;
        }
        assert!((est.radius(p, RouteObjective::Chain, &[]) - expect).abs() < 1e-9);
    }

    #[test]
    fn second_search_starts_after_first() {
        let s = grid(200, 0);
        let r = grid(200, 3);
        let e = env(&s, &r);
        let p = Point::new(50.0, 60.0);
        let est = estimate(&ov(&e), p, 11, &AnnSpec::default(), &mut fresh()).unwrap();
        // Channel 1's estimate pages can only have been downloaded after
        // channel 0 finished; its tuner finish time must exceed channel
        // 0's.
        let f0 = est.tuners[0].finish_time.unwrap();
        let f1 = est.tuners[1].finish_time.unwrap();
        assert!(f1 > f0);
    }

    #[test]
    fn hop_finishes_are_strictly_ordered_at_k3() {
        let layers = vec![grid(150, 1), grid(150, 5), grid(150, 9)];
        let e = env_k(&layers, &[0, 0, 0]);
        let est = estimate(
            &ov(&e),
            Point::new(80.0, 80.0),
            0,
            &AnnSpec::default(),
            &mut fresh(),
        )
        .unwrap();
        let f: Vec<u64> = est.tuners.iter().map(|t| t.finish_time.unwrap()).collect();
        assert!(f[0] < f[1] && f[1] < f[2], "sequential hops: {f:?}");
    }

    #[test]
    fn end_to_end_answer_is_exact() {
        let s = grid(150, 1);
        let r = grid(180, 9);
        let e = env(&s, &r);
        let p = Point::new(120.0, 80.0);
        let run = crate::algorithms::run_query(
            &e,
            &Query::tnn(p).algorithm(Algorithm::WindowBased),
            &mut fresh(),
        )
        .unwrap();
        let got = run.tnn_pair().expect("window-based never fails");
        let oracle = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
        assert!((got.dist - oracle.dist).abs() < 1e-9);
    }
}
