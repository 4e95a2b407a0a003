//! End-to-end tests of the order-free and round-trip query kinds (the
//! paper's future-work items 2 and 3), which run the shared pipeline
//! under their own [`crate::RouteObjective`].

use crate::algorithms::permutations;
use crate::{AnnMode, Query, QueryEngine, QueryOutcome, RouteObjective, TnnError};
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};

/// Runs `query` from `issued_at` under one ANN mode on every channel.
fn run_kind(
    env: &MultiChannelEnv,
    query: Query,
    issued_at: u64,
    ann: AnnMode,
    retrieve: bool,
) -> Result<QueryOutcome, TnnError> {
    QueryEngine::new(env.clone()).run(
        &query
            .issued_at(issued_at)
            .ann(ann)
            .retrieve_answer_objects(retrieve),
    )
}

fn order_free(
    env: &MultiChannelEnv,
    p: Point,
    issued_at: u64,
    ann: AnnMode,
    retrieve: bool,
) -> Result<QueryOutcome, TnnError> {
    run_kind(env, Query::order_free(p), issued_at, ann, retrieve)
}

fn round_trip(
    env: &MultiChannelEnv,
    p: Point,
    issued_at: u64,
    ann: AnnMode,
    retrieve: bool,
) -> Result<QueryOutcome, TnnError> {
    run_kind(env, Query::round_trip(p), issued_at, ann, retrieve)
}

/// Forward length `p → stop₁ → … → stop_k` of an outcome's route.
fn one_way(p: Point, run: &QueryOutcome) -> f64 {
    RouteObjective::Chain.route_total(p, run.route.iter().map(|s| s.point))
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
    let full = Arc::new(RTree::build(&s, params.rtree_params(), PackingAlgorithm::Str).unwrap());
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
