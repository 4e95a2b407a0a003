//! Approximate-TNN-Search \[19\] (paper §3.1, eq. 1), generalized to
//! `k ≥ 2` channels.
//!
//! Skips the estimate-phase index searches entirely: the search radius is
//! computed locally from the dataset cardinalities under a uniformity
//! assumption,
//!
//! ```text
//! r_k(S) = ln(n) · sqrt(k / (π·n)),   n = |S|   (unit square)
//! d      = Σᵢ r₁(Sᵢ)                  (scaled to the actual region)
//! ```
//!
//! — each hop of the route contributes its dataset's expected
//! nearest-neighbor radius, so for two channels this is the paper's
//! `d = r₁(S) + r₁(R)` exactly. This gives the best possible access time
//! (the filter phase starts immediately) but the range is **not
//! guaranteed** to contain the answer — on skewed datasets the query
//! fails (paper §6.3, Table 3) — and on uniform data the range is
//! unnecessarily large, inflating tune-in time (§6.1.2, Fig. 11(d)).

use super::{Bound, Estimate, HopStats, HopStatsVec, TunerVec};
use tnn_broadcast::{MultiChannelEnv, Tuner};
use tnn_geom::Rect;

/// The paper's eq. 1 in the unit square: the radius around a random point
/// expected to enclose at least `k` objects of an `n`-object uniform
/// dataset.
pub fn approximate_radius(n: usize, k: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    (n.ln()).max(0.0) * (k as f64 / (std::f64::consts::PI * n)).sqrt()
}

/// The Approximate-TNN search radius for a `k`-channel environment:
/// `d = Σᵢ r₁(Sᵢ)`, scaled from the unit square to the broadcast region
/// (the union of every dataset's bounding rectangle — the client knows
/// region and cardinalities a priori from the broadcast metadata; no page
/// needs to be downloaded).
pub fn approximate_radius_for_env(env: &MultiChannelEnv) -> f64 {
    let region = env
        .channels()
        .iter()
        .map(|c| c.tree().bounding_rect())
        .reduce(|a: Rect, b| a.union(&b))
        .expect("environments hold at least one channel");
    // "The radius can be easily scaled to a square of other size": eq. 1
    // is derived for the unit square, so scale by the region's side.
    let side = region.area().sqrt();
    let unit_radius: f64 = env
        .channels()
        .iter()
        .map(|c| approximate_radius(c.tree().num_objects(), 1))
        .sum();
    unit_radius * side
}

pub(crate) fn estimate(env: &MultiChannelEnv, issued_at: u64) -> Estimate {
    let mut tuners = TunerVec::new();
    let mut hops = HopStatsVec::new();
    for _ in 0..env.len() {
        tuners.push(Tuner::new());
        hops.push(HopStats::default());
    }
    Estimate {
        bound: Bound::Radius(approximate_radius_for_env(env)),
        tuners,
        end: issued_at, // purely local computation; nothing on air
        hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteObjective;
    use crate::{Algorithm, Query, QueryScratch};
    use std::sync::Arc;
    use tnn_broadcast::BroadcastParams;
    use tnn_geom::Point;
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn env_k(layers: &[Vec<Point>]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = layers
            .iter()
            .map(|pts| {
                Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, &vec![0; layers.len()])
    }

    fn env(s: &[Point], r: &[Point]) -> MultiChannelEnv {
        env_k(&[s.to_vec(), r.to_vec()])
    }

    fn uniformish(n: usize, salt: usize, side: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = ((i + salt) as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let x = (a >> 32) as f64 / u32::MAX as f64 * side;
                let y = (a & 0xFFFF_FFFF) as f64 / u32::MAX as f64 * side;
                Point::new(x, y)
            })
            .collect()
    }

    #[test]
    fn radius_formula_matches_eq1() {
        // n = 10,000, k = 1: ln(10⁴)·sqrt(1/(π·10⁴)).
        let got = approximate_radius(10_000, 1);
        let expect = (10_000f64).ln() * (1.0 / (std::f64::consts::PI * 10_000.0)).sqrt();
        assert!((got - expect).abs() < 1e-12);
        // Radius shrinks with density (larger n).
        assert!(approximate_radius(100_000, 1) < approximate_radius(1_000, 1));
        // More required neighbors → larger radius.
        assert!(approximate_radius(1_000, 4) > approximate_radius(1_000, 1));
        // Degenerate cases.
        assert_eq!(approximate_radius(0, 1), 0.0);
        assert_eq!(approximate_radius(1, 1), 0.0);
    }

    #[test]
    fn env_radius_sums_per_channel_terms() {
        let layers = vec![
            uniformish(500, 0, 1000.0),
            uniformish(400, 9, 1000.0),
            uniformish(300, 17, 1000.0),
        ];
        let e3 = env_k(&layers);
        let region = layers
            .iter()
            .flat_map(|l| l.iter().copied())
            .collect::<Vec<_>>();
        let side = Rect::bounding(&region).unwrap().area().sqrt();
        let expect =
            (approximate_radius(500, 1) + approximate_radius(400, 1) + approximate_radius(300, 1))
                * side;
        assert!((approximate_radius_for_env(&e3) - expect).abs() < 1e-9 * expect.max(1.0));
    }

    #[test]
    fn estimate_has_no_air_cost() {
        let s = uniformish(500, 0, 1000.0);
        let r = uniformish(400, 9, 1000.0);
        let e = env(&s, &r);
        let est = estimate(&e, 77);
        assert_eq!(est.end, 77);
        assert_eq!(est.tuners.len(), 2);
        assert_eq!(est.tuners[0].pages, 0);
        assert_eq!(est.tuners[1].pages, 0);
        assert!(est.radius(Point::ORIGIN, RouteObjective::Chain, &[]) > 0.0);
    }

    #[test]
    fn succeeds_on_uniform_data() {
        let s = uniformish(800, 1, 1000.0);
        let r = uniformish(700, 5, 1000.0);
        let e = env(&s, &r);
        let p = Point::new(500.0, 500.0);
        let run = crate::algorithms::run_query(
            &e,
            &Query::tnn(p).algorithm(Algorithm::ApproximateTnn),
            &mut QueryScratch::default(),
        )
        .unwrap();
        let got = run.tnn_pair().expect("uniform data should succeed");
        let oracle = crate::exact_tnn(p, e.channel(0).tree(), e.channel(1).tree());
        assert!((got.dist - oracle.dist).abs() < 1e-9);
    }

    #[test]
    fn succeeds_on_uniform_three_channel_data() {
        let layers = vec![
            uniformish(700, 2, 1000.0),
            uniformish(600, 6, 1000.0),
            uniformish(800, 10, 1000.0),
        ];
        let e = env_k(&layers);
        let p = Point::new(480.0, 510.0);
        let run = crate::algorithms::run_query(
            &e,
            &Query::tnn(p).algorithm(Algorithm::ApproximateTnn),
            &mut QueryScratch::default(),
        )
        .unwrap();
        assert!(!run.failed(), "uniform data should succeed");
        let trees: Vec<&RTree> = e.channels().iter().map(|c| c.tree()).collect();
        let (_, oracle_total) = crate::exact_chain_tnn(p, &trees);
        assert!((run.total_dist.unwrap() - oracle_total).abs() < 1e-9);
    }

    #[test]
    fn fails_or_errs_on_extreme_skew() {
        // All mass in one far corner; the uniformity-based radius around a
        // far-away query point encloses nothing.
        let s: Vec<Point> = (0..200)
            .map(|i| Point::new(9_990.0 + (i % 10) as f64, 9_990.0 + (i / 10 % 10) as f64))
            .collect();
        let r = s.clone();
        let e = env(&s, &r);
        let p = Point::new(10.0, 10.0);
        let run = crate::algorithms::run_query(
            &e,
            &Query::tnn(p).algorithm(Algorithm::ApproximateTnn),
            &mut QueryScratch::default(),
        )
        .unwrap();
        // The candidate sets are empty → the query fails outright.
        assert!(run.failed());
        assert_eq!(run.candidates, vec![0, 0]);
    }
}
