//! The acceptance gate of the QoS layer: **cache ≡ engine**.
//!
//! For arbitrary query sets × all four algorithms × ANN modes ×
//! per-query phases × k ∈ {2, 3, 4} channels, every outcome served from
//! the result cache must be **byte-identical** to a fresh
//! [`QueryEngine::run`] of the same [`Query`] — caching may
//! short-circuit *work*, never change *answers*. The second gate pins
//! the scheduling contract: for a single submitter, completion within a
//! priority class is FIFO in submission order (strict-priority draining
//! reorders *between* classes only).

mod common;

use common::queue_behind_a_busy_worker;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, AnnMode, Query, QueryEngine};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{CacheConfig, Qos, ServeConfig, Server, ShutdownMode};

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
/// are cached. All entries are key-distinct, so a primed cache must hit
/// every one of them.
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

/// Primes a caching server with `queries`, repeats them, and asserts
/// every repeat (a) was served from the cache and (b) is byte-identical
/// to a fresh, uncached engine run.
fn assert_cache_hits_equal_engine(env: &MultiChannelEnv, queries: &[Query], workers: usize) {
    let server = Server::spawn(
        env.clone(),
        ServeConfig::new()
            .workers(workers)
            .queue_capacity(queries.len().max(1))
            .cache(CacheConfig::new().capacity(4 * queries.len())),
    );
    // Prime: the first pass runs everything through the engine and
    // fills the cache (entries are key-distinct, so no pass-1 hits).
    for query in queries {
        let _ = server
            .submit(query.clone())
            .expect("capacity covers the pass")
            .wait();
    }
    let primed = server.stats();
    assert_eq!(primed.cache_hits, 0, "pass 1 cannot hit a cold cache");
    // Repeat: every query must now be answered from the cache, with
    // bytes identical to an uncached engine run of the same query.
    let fresh_engine = QueryEngine::new(env.clone());
    let tickets: Vec<_> = queries.iter().map(|q| server.submit(q.clone())).collect();
    for (ticket, query) in tickets.into_iter().zip(queries) {
        let got = ticket.expect("capacity covers the pass").wait();
        let fresh = fresh_engine.run(query);
        assert_eq!(
            got, fresh,
            "cache hit ≠ fresh engine run at workers={workers}, query={query:?}"
        );
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(
        stats.cache_hits - primed.cache_hits,
        queries.len() as u64,
        "pass 2 must be all hits: {stats:?}"
    );
    assert!(stats.conserved(), "ticket leak: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cache-hit byte-identity over the full matrix (k ∈ {2, 3, 4} ×
    /// workers ∈ {1, 4}).
    #[test]
    fn cache_hits_are_byte_identical_to_fresh_engine_runs(
        k in prop::sample::select(vec![2usize, 3, 4]),
        layer_seed in pts_strategy(110),
        extra in pts_strategy(80),
        (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
        phase_base in 0u64..50_000,
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
        let env_phases: Vec<u64> = (0..k as u64).map(|i| i * 13 + 1).collect();
        let env = build_env(&layers, &env_phases);
        let query_phases: Vec<u64> = (0..k as u64).map(|i| phase_base + i * 997).collect();
        let queries = query_mix(Point::new(qx, qy), k, &query_phases, ann_factor, issued_at);
        for workers in [1usize, 4] {
            assert_cache_hits_equal_engine(&env, &queries, workers);
        }
    }
}

fn mid_env(k: usize) -> MultiChannelEnv {
    let layers: Vec<Vec<Point>> = (0..k)
        .map(|i| {
            (0..80 + 15 * i)
                .map(|j| {
                    Point::new(
                        ((j * 37 + i * 101) % 911) as f64,
                        ((j * 53 + i * 67) % 877) as f64,
                    )
                })
                .collect()
        })
        .collect();
    let phases: Vec<u64> = (0..k as u64).map(|i| i * 11 + 3).collect();
    build_env(&layers, &phases)
}

/// For a single submitter, priority scheduling never reorders results
/// *within* a class: a mixed-class set queued on one worker before its
/// next pop completes each class FIFO in submission order (strict
/// priority reorders the classes themselves). The instants just before
/// and after each submission bracket the ticket's submission stamp, so
/// its latency places its resolution within that bracket; a job counts
/// as reordered only when it surely resolved after the next job of its
/// class.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the submission brackets are real elapsed time"
)]
fn within_class_completion_is_fifo_for_a_single_submitter() {
    for k in [2usize, 3] {
        let class_of = |i: usize| match i % 3 {
            0 => Qos::interactive(),
            1 => Qos::batch(),
            _ => Qos::background(),
        };
        let (server, tickets) = queue_behind_a_busy_worker(
            &mid_env(k),
            ServeConfig::new().cache(CacheConfig::disabled()),
            |server| {
                (0..90)
                    .map(|i| {
                        let p = Point::new(((i * 131) % 1000) as f64, ((i * 173) % 1000) as f64);
                        let before = Instant::now();
                        let ticket = server.submit_with(Query::tnn(p), class_of(i)).unwrap();
                        (ticket, before, Instant::now())
                    })
                    .collect::<Vec<_>>()
            },
        );
        let stats = server.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.completed, 90 + 1, "the 90 and the blocker");
        assert!(stats.conserved());
        for class in 0..3usize {
            let resolved: Vec<_> = tickets
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == class)
                .map(|(_, (ticket, before, after))| {
                    let latency = ticket.latency().expect("drained tickets are resolved");
                    (*before + latency, *after + latency)
                })
                .collect();
            for window in resolved.windows(2) {
                let ((earliest, _), (_, latest)) = (window[0], window[1]);
                assert!(
                    earliest <= latest,
                    "within-class completion reordered at k={k}, class {class}"
                );
            }
        }
    }
}

/// Priming through *different* workers and hitting through others never
/// changes bytes either: many submitters prime and repeat a shared
/// query set concurrently; every resolved outcome equals the engine's.
#[test]
fn concurrent_priming_and_hitting_stays_byte_identical() {
    let env = mid_env(3);
    let engine = QueryEngine::new(env.clone());
    let queries: Vec<Query> = (0..32)
        .map(|i| {
            Query::tnn(Point::new(
                ((i * 239) % 1000) as f64,
                ((i * 419) % 1000) as f64,
            ))
        })
        .collect();
    let expect: Vec<_> = queries.iter().map(|q| engine.run(q).unwrap()).collect();
    let server = Server::spawn(env, ServeConfig::new().workers(4));
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let server = &server;
            let queries = &queries;
            let expect = &expect;
            scope.spawn(move || {
                for round in 0..8 {
                    // Rotate the submission order per thread and round so
                    // primes and hits interleave across workers.
                    for i in 0..queries.len() {
                        let j = (i + t * 7 + round * 13) % queries.len();
                        let got = server.submit(queries[j].clone()).unwrap().wait().unwrap();
                        assert_eq!(got, expect[j], "thread {t}, round {round}");
                    }
                }
            });
        }
    });
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.completed, 4 * 8 * 32);
    assert!(stats.cache_hits > 0, "repeats must hit: {stats:?}");
    assert!(stats.conserved());
}
