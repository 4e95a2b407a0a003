//! The acceptance gate of the sharded serving layer: **shard ≡ engine**.
//!
//! For arbitrary query sets × shard counts {1, 2, 4, 8} × all four
//! algorithms (plus the chained, order-free, and round-trip kinds) ×
//! k ∈ {2, 3, 4} channels, every route and total a
//! [`ShardRouter`] merges from its scatter-gather phases must be
//! **byte-identical** to an unsharded [`QueryEngine::run`] of the same
//! [`Query`] — sharding may redistribute *work*, never change
//! *answers*. Validation errors must match too, with the same payloads.

use proptest::prelude::*;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, AnnMode, Query, QueryEngine, TnnError};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{ServeConfig, ShutdownMode};
use tnn_shard::{ShardConfig, ShardRouter};

fn build_env(layers: &[Vec<Point>], phases: &[u64]) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let trees = layers
        .iter()
        .map(|pts| {
            let tree = if pts.is_empty() {
                RTree::empty(params.rtree_params())
            } else {
                RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap()
            };
            Arc::new(tree)
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

/// Every query kind from one point: the four TNN algorithms (exact and
/// dynamic-ANN — ANN may only grow the filter radius, never change the
/// answer), plus the two variant kinds.
fn query_mix(p: Point, k: usize, ann_factor: f64, issued_at: u64) -> Vec<Query> {
    let dyn_modes = vec![AnnMode::Dynamic { factor: ann_factor }; k];
    let mut queries = Vec::new();
    for alg in Algorithm::ALL {
        queries.push(Query::tnn(p).algorithm(alg).issued_at(issued_at));
        queries.push(Query::tnn(p).algorithm(alg).ann_modes(&dyn_modes));
    }
    queries.push(Query::order_free(p));
    queries.push(Query::round_trip(p).issued_at(issued_at));
    queries
}

/// Runs `queries` through a fresh router under `config` and asserts
/// every merged route and total is byte-identical to the engine's.
fn assert_sharded_equals_engine(
    env: &MultiChannelEnv,
    queries: &[Query],
    config: ShardConfig,
    label: &str,
) {
    let engine = QueryEngine::new(env.clone());
    let router = ShardRouter::spawn(env.clone(), config);
    for query in queries {
        let got = router.run(query).expect("validated queries run");
        let want = engine.run(query).expect("validated queries run");
        assert_eq!(
            got.route, want.route,
            "route diverged at {label}, query={query:?}"
        );
        assert_eq!(
            got.total_dist, want.total_dist,
            "total diverged at {label}, query={query:?}"
        );
    }
    let stats = router.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "ticket leak at {label}: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full grid: shard counts {1, 2, 4, 8} × the whole query mix.
    #[test]
    fn sharded_answers_are_byte_identical_to_the_engine(
        k in prop::sample::select(vec![2usize, 3, 4]),
        layer_seed in pts_strategy(90),
        extra in pts_strategy(60),
        (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
        ann_factor in 0.0f64..2.0,
        issued_at in 0u64..20_000,
    ) {
        let layers: Vec<Vec<Point>> = (0..k)
            .map(|i| {
                let src = if i % 2 == 0 { &layer_seed } else { &extra };
                src.iter()
                    .map(|p| Point::new(p.x + 3.0 * i as f64, p.y + 7.0 * i as f64))
                    .collect()
            })
            .collect();
        let phases: Vec<u64> = (0..k as u64).map(|i| i * 13 + 1).collect();
        let env = build_env(&layers, &phases);
        let queries = query_mix(Point::new(qx, qy), k, ann_factor, issued_at);
        let serve = ServeConfig::new().workers(1).queue_capacity(8);
        for shards in [1usize, 2, 4, 8] {
            assert_sharded_equals_engine(
                &env,
                &queries,
                ShardConfig::new().shards(shards).serve(serve),
                &format!("k={k} shards={shards}"),
            );
        }
    }
}

/// Validation failures carry the same error payloads as the engine —
/// including the *first* empty channel's index.
#[test]
fn validation_errors_match_the_engine_exactly() {
    let pts: Vec<Point> = (0..40)
        .map(|i| Point::new((i * 37 % 211) as f64, (i * 59 % 223) as f64))
        .collect();
    let serve = ServeConfig::new().workers(1).queue_capacity(8);

    // Channel 1 of 3 is empty.
    let env = build_env(&[pts.clone(), Vec::new(), pts.clone()], &[1, 2, 3]);
    let engine = QueryEngine::new(env.clone());
    let router = ShardRouter::spawn(env, ShardConfig::new().shards(4).serve(serve));
    for query in [
        Query::tnn(Point::new(5.0, 5.0)),
        Query::tnn(Point::new(5.0, 5.0)).algorithm(Algorithm::DoubleNn),
        Query::order_free(Point::new(5.0, 5.0)),
        Query::round_trip(Point::new(5.0, 5.0)),
    ] {
        assert_eq!(
            router.run(&query).unwrap_err(),
            engine.run(&query).unwrap_err()
        );
        assert_eq!(
            router.run(&query).unwrap_err(),
            TnnError::EmptyChannel { channel: 1 }
        );
    }
    router.shutdown(ShutdownMode::Drain);

    // Single-channel environment: the recoverable channel-count error.
    let env1 = build_env(std::slice::from_ref(&pts), &[1]);
    let engine1 = QueryEngine::new(env1.clone());
    let router1 = ShardRouter::spawn(env1, ShardConfig::new().serve(serve));
    let q = Query::tnn(Point::new(5.0, 5.0));
    assert_eq!(router1.run(&q).unwrap_err(), engine1.run(&q).unwrap_err());

    // Non-finite query points, every kind.
    let env2 = build_env(&[pts.clone(), pts], &[1, 2]);
    let engine2 = QueryEngine::new(env2.clone());
    let router2 = ShardRouter::spawn(env2, ShardConfig::new().shards(2).serve(serve));
    for bad in [
        Query::tnn(Point::new(f64::NAN, 0.0)),
        Query::order_free(Point::new(0.0, f64::INFINITY)),
        Query::round_trip(Point::new(f64::NEG_INFINITY, 0.0)),
    ] {
        assert_eq!(
            router2.run(&bad).unwrap_err(),
            engine2.run(&bad).unwrap_err()
        );
        assert_eq!(router2.run(&bad).unwrap_err(), TnnError::NonFiniteQuery);
    }
    router2.shutdown(ShutdownMode::Drain);
}
