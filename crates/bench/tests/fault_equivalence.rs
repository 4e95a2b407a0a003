//! The acceptance gate of the fault-injection layer:
//!
//! 1. **Zero-fault transparency** — a server spawned with
//!    [`FaultPlan::none`] delivers outcomes byte-identical to a direct
//!    [`QueryEngine::run`], across every TNN algorithm and k ∈ {2, 3, 4}
//!    channels. The fault machinery may exist; it must not be
//!    observable.
//! 2. **Replay determinism** — the same `(seed, plan)` over the same
//!    admission sequence produces *bit-identical* [`FaultStats`]
//!    regardless of worker count, because every fault decision is a pure
//!    function of `(seed, job seq, channel, attempt)`, never of
//!    scheduling. (Worker kills are excluded by construction: a kill
//!    abandons whichever batch-mates the scheduler happened to co-pop.)

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, Query, QueryEngine, TnnError};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, ChannelFaults, FaultPlan, RetryPolicy, ServeConfig, Server,
    ShutdownMode,
};

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

/// Every TNN algorithm plus the two variant kinds over one point.
fn query_mix(p: Point, phases: &[u64], issued_at: u64) -> Vec<Query> {
    let mut queries = Vec::new();
    for alg in Algorithm::ALL {
        queries.push(Query::tnn(p).algorithm(alg).issued_at(issued_at));
        queries.push(
            Query::tnn(p)
                .algorithm(alg)
                .phases(phases)
                .issued_at(issued_at),
        );
    }
    queries.push(Query::order_free(p).issued_at(issued_at));
    queries.push(Query::round_trip(p).issued_at(issued_at).phases(phases));
    queries
}

/// Serve `queries` through a zero-fault-plan server and assert outcome
/// byte-identity with direct engine runs, plus clean fault tallies.
fn assert_zero_plan_transparent(env: &MultiChannelEnv, queries: &[Query], workers: usize) {
    let engine = QueryEngine::new(env.clone());
    let expect: Vec<Result<_, TnnError>> = queries.iter().map(|q| engine.run(q)).collect();
    let server = Server::spawn_with_faults(
        env.clone(),
        ServeConfig::new()
            .workers(workers)
            .queue_capacity(queries.len().max(1)),
        FaultPlan::none(),
    );
    let tickets: Vec<_> = queries.iter().map(|q| server.submit(q.clone())).collect();
    for ((ticket, expect), query) in tickets.into_iter().zip(&expect).zip(queries) {
        let got = ticket.expect("capacity covers every query").wait();
        assert_eq!(
            &got, expect,
            "zero-fault serve ≠ engine at workers={workers}, query={query:?}"
        );
    }
    let faults = server.fault_stats().expect("faulted spawn exposes stats");
    assert_eq!(faults.injected(), 0, "a zero plan injects nothing");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "ticket leak: {stats:?}");
    assert_eq!((stats.retried, stats.worker_restarts), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Zero-fault plans are transparent across k ∈ {2, 3, 4}, every
    /// algorithm, and workers ∈ {1, 4}.
    #[test]
    fn zero_fault_plan_is_byte_transparent(
        k in prop::sample::select(vec![2usize, 3, 4]),
        layer_seed in pts_strategy(100),
        extra in pts_strategy(70),
        (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
        phase_base in 0u64..50_000,
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
        let queries = query_mix(Point::new(qx, qy), &query_phases, issued_at);
        for workers in [1usize, 4] {
            assert_zero_plan_transparent(&env, &queries, workers);
        }
    }

    /// One fixed `(seed, plan)` over one admission sequence yields
    /// bit-identical [`tnn_serve::FaultStats`] for 1, 2, and 4 workers —
    /// and across reruns. Preconditions that make this exact: no worker
    /// kills in the plan, cache disabled, Block backpressure, no
    /// deadlines, single-threaded submission.
    #[test]
    fn fault_stats_are_bit_identical_across_worker_counts(
        seed in 0u64..1_000_000,
        layer_seed in pts_strategy(80),
        drop_per_mille in 0u32..400,
        outage_len in 0u64..3,
        panic_seq in 0u64..24,
    ) {
        let layers: Vec<Vec<Point>> = (0..2)
            .map(|i| {
                layer_seed
                    .iter()
                    .map(|p| Point::new(p.x + 5.0 * i as f64, p.y + 2.0 * i as f64))
                    .collect()
            })
            .collect();
        let env = build_env(&layers, &[3, 8]);
        let plan = FaultPlan::new(seed)
            .channel(0, ChannelFaults::NONE.drop_rate(drop_per_mille))
            .channel(1, ChannelFaults::NONE.outage(5, outage_len))
            .panic_at(panic_seq);
        let queries: Vec<Query> = (0..24)
            .map(|i| {
                Query::tnn(Point::new(
                    ((i * 131) % 1000) as f64,
                    ((i * 173) % 1000) as f64,
                ))
            })
            .collect();
        let run = |workers: usize| {
            let server = Server::spawn_with_faults(
                env.clone(),
                ServeConfig::new()
                    .workers(workers)
                    .queue_capacity(queries.len())
                    .backpressure(Backpressure::Block)
                    .cache(CacheConfig::disabled())
                    .retry(
                        RetryPolicy::new()
                            .max_attempts(6)
                            .base(Duration::from_micros(50))
                            .cap(Duration::from_micros(400)),
                    ),
                plan.clone(),
            );
            // Single-threaded submission: the admission sequence — the
            // sole input to every fault draw — is identical per run.
            let tickets: Vec<_> = queries
                .iter()
                .map(|q| server.submit(q.clone()).unwrap())
                .collect();
            for t in &tickets {
                let _ = t.wait();
            }
            let faults = server.fault_stats().unwrap();
            let stats = server.shutdown(ShutdownMode::Drain);
            assert!(stats.conserved(), "ticket leak: {stats:?}");
            assert_eq!(stats.completed, queries.len() as u64);
            faults
        };
        let reference = run(1);
        prop_assert_eq!(run(1), reference, "rerun at 1 worker diverged");
        prop_assert_eq!(run(2), reference, "2 workers diverged");
        prop_assert_eq!(run(4), reference, "4 workers diverged");
    }
}
