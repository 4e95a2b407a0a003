//! Property tests for TNN query processing: every exact algorithm must
//! return the true optimum on arbitrary datasets, phases and query
//! points — at the paper's two channels and beyond; ANN pruning must
//! never change the final answer (Theorem 1); and the cost accounting
//! must satisfy basic sanity laws.
//!
//! These run one [`Query`] at a time through a fresh [`QueryEngine`] over
//! the environment's own phases (the engine is also property-tested for
//! byte-identity against a frozen copy of the two-channel pipeline in
//! `crates/bench/tests`).

use proptest::prelude::*;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{
    exact_chain_tnn, exact_tnn, Algorithm, AnnMode, Query, QueryEngine, QueryOutcome, QueryScratch,
};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};

#[derive(Debug, Clone)]
struct Scenario {
    s: Vec<Point>,
    r: Vec<Point>,
    phases: [u64; 2],
    page: usize,
    query: Point,
    issued_at: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let pts = |max: usize| {
        prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)),
            1..max,
        )
    };
    (
        pts(250),
        pts(250),
        (0u64..100_000, 0u64..100_000),
        prop::sample::select(vec![64usize, 128]),
        (-200.0f64..1200.0, -200.0f64..1200.0),
        0u64..50_000,
    )
        .prop_map(|(s, r, (ph0, ph1), page, (qx, qy), issued_at)| Scenario {
            s,
            r,
            phases: [ph0, ph1],
            page,
            query: Point::new(qx, qy),
            issued_at,
        })
}

fn build_env(sc: &Scenario) -> MultiChannelEnv {
    let params = BroadcastParams::new(sc.page);
    let ts = RTree::build(&sc.s, params.rtree_params(), PackingAlgorithm::Str).unwrap();
    let tr = RTree::build(&sc.r, params.rtree_params(), PackingAlgorithm::Str).unwrap();
    MultiChannelEnv::new(vec![Arc::new(ts), Arc::new(tr)], params, &sc.phases)
}

fn build_env_k(layers: &[Vec<Point>], phases: &[u64], page: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(page);
    let trees = layers
        .iter()
        .map(|pts| {
            Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, phases)
}

fn run(env: &MultiChannelEnv, query: &Query) -> QueryOutcome {
    QueryEngine::new(env.clone()).run(query).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Window-Based, Double-NN and Hybrid-NN always return the exact TNN.
    #[test]
    fn exact_algorithms_match_oracle(sc in scenario_strategy()) {
        let env = build_env(&sc);
        let oracle = exact_tnn(sc.query, env.channel(0).tree(), env.channel(1).tree());
        for alg in [Algorithm::WindowBased, Algorithm::DoubleNn, Algorithm::HybridNn] {
            let run = run(&env, &Query::tnn(sc.query).algorithm(alg).issued_at(sc.issued_at));
            let got = run.tnn_pair().unwrap_or_else(|| panic!("{} failed", alg.name()));
            prop_assert!(
                (got.dist - oracle.dist).abs() < 1e-9,
                "{}: got {} expected {}",
                alg.name(), got.dist, oracle.dist
            );
        }
    }

    /// ANN pruning never changes the answer of the exact algorithms
    /// (Theorem 1: the enlarged radius still contains the optimum).
    #[test]
    fn ann_preserves_answers(sc in scenario_strategy(), factor in 0.01f64..4.0) {
        let env = build_env(&sc);
        let oracle = exact_tnn(sc.query, env.channel(0).tree(), env.channel(1).tree());
        for alg in [Algorithm::WindowBased, Algorithm::DoubleNn, Algorithm::HybridNn] {
            let query = Query::tnn(sc.query)
                .algorithm(alg)
                .issued_at(sc.issued_at)
                .ann_modes(&[AnnMode::Dynamic { factor }; 2]);
            let got = run(&env, &query).tnn_pair().unwrap();
            prop_assert!(
                (got.dist - oracle.dist).abs() < 1e-9,
                "{} + ANN({factor}): got {} expected {}",
                alg.name(), got.dist, oracle.dist
            );
        }
    }

    /// The reported answer pair always realizes the reported distance;
    /// both members lie inside the search circle; and for the exact
    /// algorithms (whose radius comes from a feasible pair) the answer's
    /// transitive distance never exceeds the radius.
    #[test]
    fn answers_are_internally_consistent(sc in scenario_strategy()) {
        let env = build_env(&sc);
        for alg in Algorithm::ALL {
            let run = run(&env, &Query::tnn(sc.query).algorithm(alg).issued_at(sc.issued_at));
            if let Some(pair) = run.tnn_pair() {
                let recomputed = sc.query.dist(pair.s.0) + pair.s.0.dist(pair.r.0);
                prop_assert!((recomputed - pair.dist).abs() < 1e-9);
                // Theorem 1: candidates are drawn from circle(p, d).
                prop_assert!(sc.query.dist(pair.s.0) <= run.search_radius + 1e-9);
                prop_assert!(sc.query.dist(pair.r.0) <= run.search_radius + 1e-9);
                if alg.is_exact() {
                    prop_assert!(pair.dist <= run.search_radius + 1e-9,
                        "{}: answer {} outside radius {}", alg.name(), pair.dist, run.search_radius);
                }
            }
        }
    }

    /// Cost-accounting laws: completion after issue, estimate before
    /// completion, phase page sums equal channel totals, access time
    /// covers the estimate phase.
    #[test]
    fn cost_accounting_laws(sc in scenario_strategy()) {
        let env = build_env(&sc);
        for alg in Algorithm::ALL {
            let run = run(&env, &Query::tnn(sc.query).algorithm(alg).issued_at(sc.issued_at));
            prop_assert!(run.issued_at == sc.issued_at);
            let estimate_end = run.estimate_end;
            prop_assert!(estimate_end >= run.issued_at);
            prop_assert!(run.completed_at >= estimate_end);
            let per_channel: u64 = run.channels.iter().map(|c| c.total_pages()).sum();
            prop_assert_eq!(per_channel, run.tune_in());
            prop_assert!(run.access_time() >= estimate_end - run.issued_at);
            // Exact algorithms always answer.
            if alg.is_exact() {
                prop_assert!(!run.failed());
            }
        }
    }

    /// Channel phases never affect the *answer* (only the costs).
    #[test]
    fn phases_do_not_change_answers(
        sc in scenario_strategy(),
        alt_phases in (0u64..100_000, 0u64..100_000),
    ) {
        let env_a = build_env(&sc);
        let mut sc_b = sc.clone();
        sc_b.phases = [alt_phases.0, alt_phases.1];
        let env_b = build_env(&sc_b);
        for alg in [Algorithm::WindowBased, Algorithm::DoubleNn] {
            let run_a = run(&env_a, &Query::tnn(sc.query).algorithm(alg).issued_at(sc.issued_at));
            let run_b = run(&env_b, &Query::tnn(sc.query).algorithm(alg).issued_at(sc.issued_at));
            let (a, b) = (run_a.tnn_pair().unwrap(), run_b.tnn_pair().unwrap());
            prop_assert!((a.dist - b.dist).abs() < 1e-9, "{}", alg.name());
        }
    }

    /// Approximate-TNN never downloads estimate pages, starts its filter
    /// phase immediately, and any answer it gives is built from
    /// candidates inside its circle.
    #[test]
    fn approximate_tnn_properties(sc in scenario_strategy()) {
        let env = build_env(&sc);
        let run = run(&env, &Query::tnn(sc.query).algorithm(Algorithm::ApproximateTnn).issued_at(sc.issued_at));
        prop_assert_eq!(run.tune_in_estimate(), 0);
        prop_assert_eq!(run.estimate_end, sc.issued_at);
        if let Some(pair) = run.tnn_pair() {
            prop_assert!(sc.query.dist(pair.s.0) <= run.search_radius + 1e-9);
            prop_assert!(sc.query.dist(pair.r.0) <= run.search_radius + 1e-9);
        }
    }

    /// Hybrid-NN's filter radius never exceeds Double-NN's in case-3
    /// situations where R is tiny (the switch fires at once), matching
    /// §6.1.2's tune-in analysis.
    #[test]
    fn hybrid_radius_bounded_by_double_when_r_tiny(
        s in prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)), 200..400),
        r in prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)), 1..5),
        qx in 0.0f64..1000.0,
        qy in 0.0f64..1000.0,
    ) {
        let sc = Scenario {
            s, r, phases: [11, 3], page: 64,
            query: Point::new(qx, qy), issued_at: 0,
        };
        let env = build_env(&sc);
        let hybrid = run(&env, &Query::tnn(sc.query).algorithm(Algorithm::HybridNn));
        let double = run(&env, &Query::tnn(sc.query).algorithm(Algorithm::DoubleNn));
        prop_assert!(hybrid.search_radius <= double.search_radius + 1e-9);
    }

    /// Every exact algorithm returns the true optimal chain at three and
    /// four channels — the generalized core against the exact chain
    /// oracle, with per-hop costs and a full k-stop route.
    #[test]
    fn exact_algorithms_match_chain_oracle_at_k(
        layers in prop::collection::vec(
            prop::collection::vec(
                (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)),
                1..120,
            ),
            3..5,
        ),
        phase_seed in 0u64..100_000,
        (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
        issued_at in 0u64..20_000,
    ) {
        let k = layers.len();
        let phases: Vec<u64> =
            (0..k as u64).map(|i| phase_seed.wrapping_mul(i + 1) % 60_000).collect();
        let env = build_env_k(&layers, &phases, 64);
        let p = Point::new(qx, qy);
        let trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
        let (_, oracle_total) = exact_chain_tnn(p, &trees);
        for alg in [Algorithm::WindowBased, Algorithm::DoubleNn, Algorithm::HybridNn] {
            let run = run(&env, &Query::tnn(p).algorithm(alg).issued_at(issued_at));
            prop_assert_eq!(run.route.len(), k, "{}", alg.name());
            prop_assert_eq!(run.channels.len(), k, "{}", alg.name());
            let got = run.total_dist.unwrap();
            prop_assert!(
                (got - oracle_total).abs() < 1e-9,
                "{} at k={}: got {} expected {}",
                alg.name(), k, got, oracle_total
            );
            // Every stop lies inside the filter circle (Theorem 1,
            // generalized).
            for stop in &run.route {
                prop_assert!(p.dist(stop.point) <= run.search_radius + 1e-9);
            }
        }
    }

    /// Duplicate points — shared across channels and repeated within one
    /// — never confuse the pipeline: the optimum matches the oracle and
    /// the route realizes the reported total.
    #[test]
    fn duplicate_points_across_channels(
        base in prop::collection::vec(
            (0.0f64..200.0, 0.0f64..200.0).prop_map(|(x, y)| Point::new(x, y)),
            1..40,
        ),
        dups in 1usize..4,
        k in 2usize..5,
        (qx, qy) in (0.0f64..200.0, 0.0f64..200.0),
    ) {
        // Every channel broadcasts the same multiset of points, each
        // repeated `dups` times.
        let layer: Vec<Point> = base
            .iter()
            .flat_map(|&pt| std::iter::repeat_n(pt, dups))
            .collect();
        let layers: Vec<Vec<Point>> = (0..k).map(|_| layer.clone()).collect();
        let env = build_env_k(&layers, &vec![7; k], 64);
        let p = Point::new(qx, qy);
        // With identical layers the optimal chain parks at p's NN:
        // d = dis(p, nn) and every later hop repeats the same point.
        let nn = base
            .iter()
            .map(|&pt| p.dist(pt))
            .fold(f64::INFINITY, f64::min);
        for alg in [Algorithm::WindowBased, Algorithm::DoubleNn, Algorithm::HybridNn] {
            let run = run(&env, &Query::tnn(p).algorithm(alg));
            let got = run.total_dist.unwrap();
            prop_assert!(
                (got - nn).abs() < 1e-9,
                "{} k={} dups={}: got {} expected {}",
                alg.name(), k, dups, got, nn
            );
            // The route realizes the total.
            let mut recomputed = 0.0;
            let mut prev = p;
            for stop in &run.route {
                recomputed += prev.dist(stop.point);
                prev = stop.point;
            }
            prop_assert!((recomputed - got).abs() < 1e-9);
        }
    }

    /// Pooled engine runs and caller-scratch runs are deterministic and
    /// identical at k > 2, across repeated executions on the same pool.
    #[test]
    fn pooled_vs_scratch_determinism_beyond_two_channels(
        layers in prop::collection::vec(
            prop::collection::vec(
                (0.0f64..500.0, 0.0f64..500.0).prop_map(|(x, y)| Point::new(x, y)),
                1..80,
            ),
            3..5,
        ),
        (qx, qy) in (0.0f64..500.0, 0.0f64..500.0),
    ) {
        let k = layers.len();
        let env = build_env_k(&layers, &vec![13; k], 64);
        let engine = QueryEngine::new(env);
        let p = Point::new(qx, qy);
        let mut scratch = QueryScratch::default();
        for alg in Algorithm::ALL {
            let query = Query::tnn(p).algorithm(alg).issued_at(9);
            let pooled_a = engine.run(&query).unwrap();
            let direct = engine.run_with(&query, &mut scratch).unwrap();
            // A second pooled run draws the recycled (grown) scratch.
            let pooled_b = engine.run(&query).unwrap();
            prop_assert_eq!(&pooled_a, &direct, "{}", alg.name());
            prop_assert_eq!(&pooled_a, &pooled_b, "{}", alg.name());
        }
    }
}
