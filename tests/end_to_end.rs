//! End-to-end integration tests spanning every crate: datasets → R-tree →
//! broadcast program → query engine → metrics, on paper-shaped workloads.

use std::sync::Arc;
use tnn::prelude::*;
use tnn_datasets::{city_like, paper_region, unif, uniform_points};

fn env_from(s: &[Point], r: &[Point], cap: usize, phases: [u64; 2]) -> MultiChannelEnv {
    let params = BroadcastParams::new(cap);
    let s_tree = Arc::new(RTree::build(s, params.rtree_params(), PackingAlgorithm::Str).unwrap());
    let r_tree = Arc::new(RTree::build(r, params.rtree_params(), PackingAlgorithm::Str).unwrap());
    MultiChannelEnv::new(vec![s_tree, r_tree], params, &phases)
}

fn engine_from(s: &[Point], r: &[Point], cap: usize, phases: [u64; 2]) -> QueryEngine {
    QueryEngine::new(env_from(s, r, cap, phases))
}

fn oracle_dist(engine: &QueryEngine, q: Point) -> f64 {
    exact_tnn(
        q,
        engine.env().channel(0).tree(),
        engine.env().channel(1).tree(),
    )
    .dist
}

#[test]
fn all_exact_algorithms_agree_with_oracle_on_paper_workload() {
    // UNIF(-6.2) × UNIF(-5.8): 960 × 2,411 points, the paper's region.
    let engine = engine_from(&unif(-6.2, 1), &unif(-5.8, 2), 64, [123, 456_789]);
    let queries = uniform_points(25, &paper_region(), 42);
    for (i, &q) in queries.iter().enumerate() {
        let oracle = oracle_dist(&engine, q);
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let run = engine
                .run(&Query::tnn(q).algorithm(alg).issued_at(i as u64 * 1_000))
                .unwrap();
            let got = run.total_dist.unwrap();
            assert!((got - oracle).abs() < 1e-6, "{} query {q:?}", alg.name());
        }
    }
}

#[test]
fn skewed_data_never_breaks_exact_algorithms() {
    let city = city_like(7);
    let engine = engine_from(&city, &unif(-5.8, 3), 64, [0, 777]);
    let queries = uniform_points(15, &paper_region(), 99);
    for &q in &queries {
        let oracle = oracle_dist(&engine, q);
        let run = engine
            .run(&Query::tnn(q).algorithm(Algorithm::HybridNn))
            .unwrap();
        assert!((run.total_dist.unwrap() - oracle).abs() < 1e-6);
    }
}

#[test]
fn ann_is_transparent_to_answers_across_page_capacities() {
    for cap in [64usize, 128, 256, 512] {
        let engine = engine_from(&unif(-6.2, 4), &unif(-6.2, 5), cap, [11, 22]);
        let queries = uniform_points(10, &paper_region(), cap as u64);
        for &q in &queries {
            let oracle = oracle_dist(&engine, q);
            let m = AnnMode::Dynamic { factor: 0.05 };
            let run = engine
                .run(
                    &Query::tnn(q)
                        .algorithm(Algorithm::DoubleNn)
                        .ann_modes(&[m, m]),
                )
                .unwrap();
            assert!((run.total_dist.unwrap() - oracle).abs() < 1e-6, "cap {cap}");
        }
    }
}

#[test]
fn metamorphic_scaling_scales_distances() {
    // Scaling every coordinate by k scales the TNN distance by k and
    // leaves the answer pair's identity unchanged.
    let s: Vec<Point> = uniform_points(300, &Rect::from_coords(0.0, 0.0, 1_000.0, 1_000.0), 6);
    let r: Vec<Point> = uniform_points(400, &Rect::from_coords(0.0, 0.0, 1_000.0, 1_000.0), 7);
    let k = 3.5;
    let s_scaled: Vec<Point> = s.iter().map(|p| Point::new(p.x * k, p.y * k)).collect();
    let r_scaled: Vec<Point> = r.iter().map(|p| Point::new(p.x * k, p.y * k)).collect();

    let engine_a = engine_from(&s, &r, 64, [5, 9]);
    let engine_b = engine_from(&s_scaled, &r_scaled, 64, [5, 9]);
    let q = Point::new(400.0, 600.0);
    let q_scaled = Point::new(q.x * k, q.y * k);

    let run_a = engine_a
        .run(&Query::tnn(q).algorithm(Algorithm::HybridNn))
        .unwrap();
    let run_b = engine_b
        .run(&Query::tnn(q_scaled).algorithm(Algorithm::HybridNn))
        .unwrap();
    let (a, b) = (run_a.tnn_pair().unwrap(), run_b.tnn_pair().unwrap());
    assert!((a.dist * k - b.dist).abs() < 1e-6);
    assert_eq!(a.s.1, b.s.1);
    assert_eq!(a.r.1, b.r.1);
}

#[test]
fn metamorphic_phases_change_costs_not_answers() {
    // One engine, per-query phase overlays: the answers must be
    // phase-independent while the costs are not.
    let engine = engine_from(&unif(-6.2, 8), &unif(-6.2, 9), 64, [0, 0]);
    let q = Point::new(20_000.0, 18_000.0);
    let mut answers = Vec::new();
    let mut costs = Vec::new();
    for phases in [[0u64, 0], [1_000, 2_000], [77_777, 3], [500, 123_456]] {
        let run = engine
            .run(&Query::tnn(q).algorithm(Algorithm::DoubleNn).phases(&phases))
            .unwrap();
        answers.push(run.total_dist.unwrap());
        costs.push(run.access_time());
    }
    for w in answers.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-9);
    }
    // Costs genuinely vary with the phases (the programs are long enough
    // that four different alignments cannot all collide).
    let all_equal = costs.windows(2).all(|w| w[0] == w[1]);
    assert!(!all_equal, "access time should depend on channel phases");
}

#[test]
fn tune_in_grows_with_search_radius() {
    // The filter phase must retrieve more pages for larger radii:
    // compare Double-NN (larger radius by construction) with
    // Window-Based on a workload where the difference is material.
    let engine = engine_from(&unif(-7.0, 10), &unif(-5.0, 11), 64, [31, 41]);
    let queries = uniform_points(30, &paper_region(), 5);
    let mut double_filter = 0u64;
    let mut window_filter = 0u64;
    for &q in &queries {
        let d = engine
            .run(&Query::tnn(q).algorithm(Algorithm::DoubleNn))
            .unwrap();
        let w = engine
            .run(&Query::tnn(q).algorithm(Algorithm::WindowBased))
            .unwrap();
        assert!(d.search_radius >= w.search_radius - 1e-9);
        double_filter += d.tune_in_filter();
        window_filter += w.tune_in_filter();
    }
    assert!(double_filter >= window_filter);
}

#[test]
fn double_and_hybrid_share_access_time_windows_differs() {
    // §6.1.1: "Double-NN and Hybrid-NN algorithms always have the same
    // access time" (up to hybrid finishing early after pruning).
    let engine = engine_from(&unif(-5.8, 12), &unif(-5.8, 13), 64, [900, 8_100]);
    let queries = uniform_points(20, &paper_region(), 17);
    for &q in &queries {
        let d = engine
            .run(&Query::tnn(q).algorithm(Algorithm::DoubleNn))
            .unwrap();
        let h = engine
            .run(&Query::tnn(q).algorithm(Algorithm::HybridNn))
            .unwrap();
        assert!(h.access_time() <= d.access_time());
        let w = engine
            .run(&Query::tnn(q).algorithm(Algorithm::WindowBased))
            .unwrap();
        assert!(w.access_time() >= d.access_time());
    }
}

#[test]
fn failure_injection_degenerate_datasets() {
    // Single points, duplicated points, far-away queries.
    let s = vec![Point::new(10.0, 10.0)];
    let r = vec![Point::new(20.0, 10.0); 25]; // 25 duplicates
    let engine = engine_from(&s, &r, 64, [2, 3]);
    for q in [
        Point::new(0.0, 0.0),
        Point::new(1e6, -1e6),
        Point::new(10.0, 10.0),
    ] {
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let run = engine.run(&Query::tnn(q).algorithm(alg)).unwrap();
            let got = run.total_dist.unwrap();
            let expect = q.dist(Point::new(10.0, 10.0)) + 10.0;
            assert!((got - expect).abs() < 1e-9, "{} at {q:?}", alg.name());
        }
    }
}

#[test]
fn non_finite_queries_are_rejected() {
    let engine = engine_from(&unif(-7.0, 14), &unif(-7.0, 15), 64, [0, 0]);
    let err = engine
        .run(&Query::tnn(Point::new(f64::NAN, 1.0)).algorithm(Algorithm::DoubleNn))
        .unwrap_err();
    assert_eq!(err, tnn_core::TnnError::NonFiniteQuery);
}

#[test]
fn wrong_channel_count_is_rejected() {
    let params = BroadcastParams::new(64);
    let t = Arc::new(
        RTree::build(
            &unif(-7.0, 16),
            params.rtree_params(),
            PackingAlgorithm::Str,
        )
        .unwrap(),
    );
    let engine = QueryEngine::new(MultiChannelEnv::new(vec![t], params, &[0]));
    let err = engine
        .run(&Query::tnn(Point::new(1.0, 1.0)).algorithm(Algorithm::DoubleNn))
        .unwrap_err();
    assert!(matches!(
        err,
        tnn_core::TnnError::WrongChannelCount {
            needed: 2,
            available: 1
        }
    ));
}

#[test]
fn retrieval_toggle_only_affects_costs() {
    let engine = engine_from(&unif(-6.2, 17), &unif(-6.2, 18), 64, [7, 70]);
    let q = Point::new(15_000.0, 22_000.0);
    let base = Query::tnn(q).algorithm(Algorithm::DoubleNn);
    let run_with = engine
        .run(&base.clone().retrieve_answer_objects(true))
        .unwrap();
    let run_without = engine.run(&base.retrieve_answer_objects(false)).unwrap();
    assert_eq!(
        run_with.total_dist.unwrap(),
        run_without.total_dist.unwrap()
    );
    // 16 data pages per object on 64-byte pages, two objects.
    assert_eq!(run_with.tune_in() - run_without.tune_in(), 32);
    assert!(run_with.access_time() >= run_without.access_time());
}

/// Every query kind over 3- and 4-channel environments: exact answers
/// against the chain oracle, per-hop channel costs, and coherent variant
/// routes — the k-ary pipeline end to end.
#[test]
fn k_channel_queries_end_to_end() {
    let params = BroadcastParams::new(64);
    for k in [3usize, 4] {
        let trees: Vec<Arc<RTree>> = (0..k)
            .map(|i| {
                let pts = unif(-5.4, 30 + i as u64);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let phases: Vec<u64> = (0..k as u64).map(|i| i * 7_777 + 13).collect();
        let engine = QueryEngine::new(MultiChannelEnv::new(trees, params, &phases));
        let queries = uniform_points(8, &paper_region(), 1_000 + k as u64);
        let env = engine.env();
        for &q in &queries {
            let oracle_trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
            let (_, oracle_total) = exact_chain_tnn(q, &oracle_trees);
            for alg in [
                Algorithm::WindowBased,
                Algorithm::DoubleNn,
                Algorithm::HybridNn,
            ] {
                let run = engine.run(&Query::tnn(q).algorithm(alg)).unwrap();
                assert_eq!(run.route.len(), k, "{} at k={k}", alg.name());
                assert_eq!(run.channels.len(), k);
                assert!(
                    (run.total_dist.unwrap() - oracle_total).abs() < 1e-6,
                    "{} at k={k}, query {q:?}",
                    alg.name()
                );
                // Per-hop costs: every channel participated in the filter
                // phase and route stop i indexes channel i.
                for (i, stop) in run.route.iter().enumerate() {
                    assert_eq!(stop.channel, i);
                }
                assert!(run.tune_in() > 0);
            }
            // The variants produce coherent k-hop routes.
            let free = engine.run(&Query::order_free(q)).unwrap();
            assert_eq!(free.route.len(), k);
            assert!(free.total_dist.unwrap() <= oracle_total + 1e-6);
            let tour = engine.run(&Query::round_trip(q)).unwrap();
            assert_eq!(tour.route.len(), k);
            assert!(tour.total_dist.unwrap() >= free.total_dist.unwrap() - 1e-6);
        }
    }
}
