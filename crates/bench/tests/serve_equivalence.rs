//! The acceptance gate of the serving subsystem: **serve ≡ engine**.
//!
//! For arbitrary query sets × algorithms × ANN modes × per-query phases
//! × k ∈ {2, 3, 4} channels × worker counts ∈ {1, 2, 4} × all three
//! backpressure policies, every outcome delivered through a
//! [`Server`] ticket must be byte-identical to a direct
//! [`QueryEngine::run`] of the same [`Query`] — concurrency may reorder
//! *completion*, never *answers*. The cached k! permutation table of
//! order-free queries under concurrent server workers is covered too.
//! Serving runs the production engine only; the paper-literal linear
//! queue is compared against the arrival heap inside the NN search task,
//! by the two lockstep properties in `tnn_core::task`.

use proptest::prelude::*;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, AnnMode, Query, QueryEngine, QueryOutcome, QueryScratch, TnnError};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{Backpressure, ServeConfig, Server, ShutdownMode};

fn build_env(layers: &[Vec<Point>], phases: &[u64]) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let trees = layers
        .iter()
        .map(|pts| {
            Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, phases)
}

fn pts_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)),
        1..max,
    )
}

/// The full request mix over one query point: every TNN algorithm under
/// exact and dynamic ANN, a phased Double-NN query and the two variant
/// kinds — with per-query
/// phases on half of them so both the overlay and the identity paths
/// serve.
fn query_mix(p: Point, k: usize, phases: &[u64], ann_factor: f64, issued_at: u64) -> Vec<Query> {
    let dyn_modes = vec![AnnMode::Dynamic { factor: ann_factor }; k];
    let mut queries = Vec::new();
    for alg in Algorithm::ALL {
        queries.push(Query::tnn(p).algorithm(alg).issued_at(issued_at));
        queries.push(
            Query::tnn(p)
                .algorithm(alg)
                .ann_modes(&dyn_modes)
                .phases(phases)
                .issued_at(issued_at)
                .retrieve_answer_objects(false),
        );
    }
    queries.push(
        Query::tnn(p)
            .algorithm(Algorithm::DoubleNn)
            .issued_at(issued_at)
            .phases(phases),
    );
    queries.push(Query::order_free(p).issued_at(issued_at));
    queries.push(Query::round_trip(p).issued_at(issued_at).phases(phases));
    queries
}

/// Runs `queries` directly and through a freshly spawned server with the
/// given worker count and policy, asserting byte-identity per query.
/// The queue capacity covers the whole batch, so `Reject`/`Shed` never
/// fire and every policy must deliver identical answers.
fn assert_serve_equals_engine(
    env: &MultiChannelEnv,
    queries: &[Query],
    workers: usize,
    policy: Backpressure,
) {
    let engine = QueryEngine::new(env.clone());
    let expect: Vec<Result<_, TnnError>> = queries.iter().map(|q| engine.run(q)).collect();
    let server = Server::spawn(
        env.clone(),
        ServeConfig::new()
            .workers(workers)
            .queue_capacity(queries.len().max(1))
            .backpressure(policy),
    );
    let tickets: Vec<_> = queries.iter().map(|q| server.submit(q.clone())).collect();
    for ((ticket, expect), query) in tickets.into_iter().zip(&expect).zip(queries) {
        let got = ticket.expect("capacity covers every query").wait();
        assert_eq!(
            &got, expect,
            "serve ≠ engine at workers={workers}, policy={policy:?}, query={query:?}"
        );
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "ticket leak: {stats:?}");
    assert_eq!(stats.completed, queries.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full matrix: k ∈ {2, 3, 4} ×
    /// workers ∈ {1, 2, 4} × {Block, Reject, Shed}, over a generated
    /// environment, query points, phases, and ANN factor.
    #[test]
    fn served_outcomes_are_byte_identical_to_engine_runs(
        k in prop::sample::select(vec![2usize, 3, 4]),
        layer_seed in pts_strategy(120),
        extra in pts_strategy(90),
        (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
        (qx2, qy2) in (0.0f64..1000.0, 0.0f64..1000.0),
        phase_base in 0u64..50_000,
        ann_factor in 0.0f64..2.0,
        issued_at in 0u64..20_000,
    ) {
        // k layers derived deterministically from two generated clouds.
        let layers: Vec<Vec<Point>> = (0..k)
            .map(|i| {
                let src = if i % 2 == 0 { &layer_seed } else { &extra };
                src.iter()
                    .map(|p| Point::new(p.x + 3.0 * i as f64, p.y + 7.0 * i as f64))
                    .collect()
            })
            .collect();
        let env_phases: Vec<u64> = (0..k as u64).map(|i| i * 13 + 1).collect();
        let env = build_env(&layers, &env_phases);
        let query_phases: Vec<u64> = (0..k as u64).map(|i| phase_base + i * 997).collect();
        let mut queries = query_mix(Point::new(qx, qy), k, &query_phases, ann_factor, issued_at);
        queries.extend(query_mix(Point::new(qx2, qy2), k, &query_phases, ann_factor, 0));
        for workers in [1usize, 2, 4] {
            for policy in [Backpressure::Block, Backpressure::Reject, Backpressure::Shed] {
                assert_serve_equals_engine(&env, &queries, workers, policy);
            }
        }
    }
}

/// Order-free queries cache the k! visit-order permutation table inside
/// each worker's scratch. Many k = 4 order-free queries issued through
/// concurrent server workers must return exactly the visit orders
/// (and full outcomes) of a single-threaded run that reuses one scratch
/// across all queries — guarding the cached table against any future
/// interior mutability or cross-thread sharing.
#[test]
fn order_free_permutation_cache_is_stable_under_concurrency() {
    let k = 4;
    let layers: Vec<Vec<Point>> = (0..k)
        .map(|i| {
            (0..70 + 10 * i)
                .map(|j| {
                    Point::new(
                        ((j * 37 + i * 101) % 911) as f64,
                        ((j * 53 + i * 67) % 877) as f64,
                    )
                })
                .collect()
        })
        .collect();
    let env = build_env(&layers, &[5, 11, 17, 23]);
    let engine = QueryEngine::new(env.clone());
    let queries: Vec<Query> = (0..64)
        .map(|i| {
            Query::order_free(Point::new(
                ((i * 131) % 1000) as f64,
                ((i * 173) % 1000) as f64,
            ))
        })
        .collect();

    // Single-threaded reference: one scratch reused across every query,
    // so the permutation table is built once and recycled 63 times.
    let mut scratch = QueryScratch::default();
    let expect: Vec<_> = queries
        .iter()
        .map(|q| engine.run_with(q, &mut scratch).unwrap())
        .collect();

    for workers in [2usize, 4] {
        let server = Server::spawn(
            env.clone(),
            ServeConfig::new()
                .workers(workers)
                .queue_capacity(queries.len()),
        );
        let tickets: Vec<_> = queries.iter().map(|q| server.submit(q.clone())).collect();
        for (ticket, expect) in tickets.into_iter().zip(&expect) {
            let got = ticket.unwrap().wait().unwrap();
            let first = |o: &QueryOutcome| o.route.first().map(|s| s.channel);
            assert_eq!(first(&got), first(expect), "workers={workers}");
            assert_eq!(&got, expect, "workers={workers}");
        }
        let stats = server.shutdown(ShutdownMode::Drain);
        assert!(stats.conserved());
    }
}

/// Recoverable query-level errors must also be identical through the
/// server: empty channels and non-finite points travel through tickets
/// exactly as `engine.run` returns them.
#[test]
fn query_errors_are_identical_through_the_server() {
    let params = BroadcastParams::new(64);
    let pts: Vec<Point> = (0..40)
        .map(|i| Point::new((i * 13 % 97) as f64, (i * 29 % 89) as f64))
        .collect();
    let full = Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
    let empty = Arc::new(RTree::empty(params.rtree_params()));
    let env = MultiChannelEnv::new(vec![full, empty], params, &[0, 0]);
    let engine = QueryEngine::new(env.clone());
    let server = Server::spawn(env, ServeConfig::new().workers(2));
    for query in [
        Query::tnn(Point::ORIGIN),
        Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
        Query::order_free(Point::ORIGIN),
        Query::round_trip(Point::ORIGIN),
        Query::tnn(Point::new(f64::INFINITY, 0.0)),
    ] {
        let expect = engine.run(&query);
        assert!(expect.is_err());
        assert_eq!(server.submit(query).unwrap().wait(), expect);
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.completed, 5);
    assert!(stats.conserved());
}
