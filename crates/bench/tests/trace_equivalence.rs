//! The observability acceptance gate: **tracing is byte-transparent**.
//!
//! For arbitrary query sets over all four TNN algorithms (plus the
//! variant kinds) × k ∈ {2, 3, 4} channels × worker counts, a server
//! spawned with
//! [`TraceConfig::on()`] must deliver outcomes **byte-identical** to an
//! identically configured server with tracing off, and every counter
//! field of the final [`ServeStats`] must match — spans, the flight
//! recorder, and the extra `Instant` stamps may cost wall time, never
//! answers or accounting. On top of transparency, the flight recorder
//! must conserve: exactly one trace offered per worker-executed job,
//! retention bounded by the configured capacities, and every retained
//! sequence number a real admission.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, AnnMode, Query, TnnError};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, ChannelFaults, FaultPlan, Priority, RecorderConfig, RetryPolicy,
    ServeConfig, ServeStats, Server, ShutdownMode, SpanKind, TraceConfig,
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

/// All four algorithms (exact and dynamic ANN) plus the variant kinds
/// over one query point — the same mix the serve gate runs.
fn query_mix(p: Point, k: usize, phases: &[u64], ann_factor: f64) -> Vec<Query> {
    let dyn_modes = vec![AnnMode::Dynamic { factor: ann_factor }; k];
    let mut queries = Vec::new();
    for alg in Algorithm::ALL {
        queries.push(Query::tnn(p).algorithm(alg));
        queries.push(
            Query::tnn(p)
                .algorithm(alg)
                .ann_modes(&dyn_modes)
                .phases(phases),
        );
    }
    queries.push(Query::tnn(p).algorithm(Algorithm::DoubleNn).phases(phases));
    queries.push(Query::order_free(p));
    queries.push(Query::round_trip(p).phases(phases));
    queries
}

/// Every counter field of two stats snapshots must match; only the
/// latency *distributions* (wall-clock buckets) may differ, and even
/// their observation counts must agree.
fn assert_counters_eq(off: &ServeStats, on: &ServeStats) {
    for class in Priority::ALL {
        let (a, b) = (off.class(class), on.class(class));
        assert_eq!(
            (
                a.submitted,
                a.accepted,
                a.rejected,
                a.shed,
                a.cancelled,
                a.completed,
                a.expired,
                a.queued,
                a.in_flight,
                a.retried,
                a.latency.count(),
            ),
            (
                b.submitted,
                b.accepted,
                b.rejected,
                b.shed,
                b.cancelled,
                b.completed,
                b.expired,
                b.queued,
                b.in_flight,
                b.retried,
                b.latency.count(),
            ),
            "class {class:?} counters diverge under tracing: off={a:?} on={b:?}"
        );
    }
    assert_eq!(
        (
            off.cache_hits,
            off.cache_misses,
            off.cache_bypass,
            off.worker_restarts,
        ),
        (
            on.cache_hits,
            on.cache_misses,
            on.cache_bypass,
            on.worker_restarts,
        ),
        "flat counters diverge under tracing: off={off:?} on={on:?}"
    );
}

/// Runs `queries` through an untraced and a traced server (identical
/// configs otherwise), asserting byte-identical outcomes, equal
/// counters, and flight-recorder conservation.
fn assert_trace_transparent(
    env: &MultiChannelEnv,
    queries: &[Query],
    workers: usize,
    cache: CacheConfig,
) {
    let config = || {
        ServeConfig::new()
            .workers(workers)
            .queue_capacity(queries.len().max(1))
            .backpressure(Backpressure::Block)
            .cache(cache)
    };
    let off = Server::spawn(env.clone(), config());
    let on = Server::spawn(env.clone(), config().trace(TraceConfig::on()));
    assert!(off.recorder().is_none(), "Off must not build a recorder");
    let off_tickets: Vec<_> = queries.iter().map(|q| off.submit(q.clone())).collect();
    let on_tickets: Vec<_> = queries.iter().map(|q| on.submit(q.clone())).collect();
    for ((off_t, on_t), query) in off_tickets.into_iter().zip(on_tickets).zip(queries) {
        let want: Result<_, TnnError> = off_t.expect("capacity covers every query").wait();
        let got = on_t.expect("capacity covers every query").wait();
        assert_eq!(
            got, want,
            "traced ≠ untraced at workers={workers}, query={query:?}"
        );
    }
    let off_stats = off.shutdown(ShutdownMode::Drain);
    // Shutdown joins the workers first: a ticket resolves *before* its
    // trace is offered, so the recorder is only guaranteed caught up
    // once the worker threads are gone.
    let on_stats = on.shutdown(ShutdownMode::Drain);
    assert!(off_stats.conserved() && on_stats.conserved());
    assert_counters_eq(&off_stats, &on_stats);
    let recorder = on.recorder().expect("On builds a recorder");
    let slowest = recorder.slowest();
    assert!(slowest.len() <= recorder.slowest_capacity());
    assert!(recorder.flagged().len() <= recorder.flagged_capacity());
    let mut seqs: Vec<u64> = slowest.iter().map(|t| t.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), slowest.len(), "a seat was double-filled");
    for trace in &slowest {
        assert!(!trace.spans.is_empty(), "retained trace without spans");
    }
    let (recorded, max_seq) = (recorder.recorded(), slowest.iter().map(|t| t.seq).max());
    // One trace per worker-executed job. Cache hits at *admission*
    // (a repeat submitted after its leader already completed — a race
    // between the submit loop and the worker) resolve without a worker
    // and are untraced by design, so the exact offer count floats
    // between `completed - cache_hits` and `completed`; with the cache
    // disabled the bound collapses to equality.
    assert!(
        recorded <= on_stats.completed && recorded >= on_stats.completed - on_stats.cache_hits,
        "trace offers must conserve completions: recorded={recorded}, {on_stats:?}"
    );
    if let Some(max_seq) = max_seq {
        assert!(max_seq < on_stats.accepted, "a trace names a ghost seq");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The transparency matrix: k ∈ {2, 3, 4}, workers ∈ {1, 2, 4}
    /// (single-worker runs keep the cache on — its hit/miss
    /// classification is deterministic there; multi-worker runs disable
    /// it so the classification cannot race).
    #[test]
    fn tracing_never_changes_outcomes_or_counters(
        k in prop::sample::select(vec![2usize, 3, 4]),
        layer_seed in pts_strategy(80),
        extra in pts_strategy(60),
        (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
        (qx2, qy2) in (0.0f64..1000.0, 0.0f64..1000.0),
        phase_base in 0u64..50_000,
        ann_factor in 0.0f64..2.0,
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
        let mut queries = query_mix(Point::new(qx, qy), k, &query_phases, ann_factor);
        queries.extend(query_mix(Point::new(qx2, qy2), k, &query_phases, ann_factor));
        // Repeats so the cached single-worker run exercises hits too.
        let repeats: Vec<Query> = queries.iter().take(4).cloned().collect();
        queries.extend(repeats);
        assert_trace_transparent(&env, &queries, 1, CacheConfig::new().capacity(64));
        for workers in [2usize, 4] {
            assert_trace_transparent(&env, &queries, workers, CacheConfig::disabled());
        }
    }
}

/// Transparency must also hold under a fault schedule: the fault draws
/// are pure functions of the admission sequence, so a traced and an
/// untraced server under the same [`FaultPlan`] (drops + an outage,
/// retries that fail closed — no kills, which abandon traces by design)
/// must agree on every outcome and counter. The traced one must also
/// retain every exhausted ladder as an errored trace with all its
/// attempts and backoff spans, and the queries that retried and then
/// answered, since a retry is the one fault signal an `Ok` answer
/// carries.
#[test]
fn tracing_is_transparent_under_faults_and_flags_failed_and_retried_queries() {
    let k = 2;
    let layers: Vec<Vec<Point>> = (0..k)
        .map(|i| {
            (0..60)
                .map(|j| {
                    Point::new(
                        ((j * 37 + i * 101) % 911) as f64,
                        ((j * 53 + i * 67) % 877) as f64,
                    )
                })
                .collect()
        })
        .collect();
    let env = build_env(&layers, &[3, 11]);
    let n = 160u64;
    let max_attempts = 2;
    let plan = || {
        FaultPlan::new(0x7_11CE)
            .channel(0, ChannelFaults::NONE.drop_rate(250))
            .channel(1, ChannelFaults::NONE.outage(12, 3))
    };
    let config = || {
        ServeConfig::new()
            .workers(1)
            .queue_capacity(n as usize)
            .backpressure(Backpressure::Block)
            .cache(CacheConfig::disabled())
            .retry(
                RetryPolicy::new()
                    .max_attempts(max_attempts)
                    .base(Duration::from_micros(10))
                    .cap(Duration::from_micros(40)),
            )
    };
    // A flagged ring as large as the run, so retention evicts nothing.
    let trace = TraceConfig::On(RecorderConfig {
        flagged: n as usize,
        ..RecorderConfig::default()
    });
    let off = Server::spawn_with_faults(env.clone(), config(), plan());
    let on = Server::spawn_with_faults(env.clone(), config().trace(trace), plan());
    let queries: Vec<Query> = (0..n)
        .map(|i| {
            Query::tnn(Point::new(
                ((i * 131) % 1000) as f64,
                ((i * 173) % 1000) as f64,
            ))
            .algorithm(Algorithm::HybridNn)
        })
        .collect();
    let off_tickets: Vec<_> = queries.iter().map(|q| off.submit(q.clone())).collect();
    let on_tickets: Vec<_> = queries.into_iter().map(|q| on.submit(q)).collect();
    let mut exhausted = 0;
    for (off_t, on_t) in off_tickets.into_iter().zip(on_tickets) {
        let got = on_t.unwrap().wait();
        assert_eq!(got, off_t.unwrap().wait());
        match got {
            Ok(_) => {}
            Err(TnnError::ChannelUnavailable { .. }) => exhausted += 1,
            Err(err) => panic!("only an exhausted ladder may fail here: {err:?}"),
        }
    }
    let off_stats = off.shutdown(ShutdownMode::Drain);
    // Join the workers (shutdown) before reading the recorder: tickets
    // resolve before their traces are offered.
    let on_stats = on.shutdown(ShutdownMode::Drain);
    let recorder = on.recorder().unwrap();
    let flagged = recorder.flagged();
    let recorded = recorder.recorded();
    assert_counters_eq(&off_stats, &on_stats);
    assert_eq!(recorded, n, "every job ran a worker round");
    assert!(exhausted > 0, "the plan must exhaust some ladders");
    let errored: Vec<_> = flagged.iter().filter(|t| t.errored).collect();
    assert_eq!(
        errored.len(),
        exhausted,
        "every exhausted ladder is retained"
    );
    for trace in &errored {
        assert_eq!(trace.attempts, max_attempts, "{trace:?}");
        assert!(
            !trace.duration_of(SpanKind::RetryBackoff).is_zero(),
            "retries must stamp backoff spans: {trace:?}"
        );
    }
    let recovered: Vec<_> = flagged.iter().filter(|t| !t.errored).collect();
    assert!(
        !recovered.is_empty(),
        "a query that retried and then answered must be retained"
    );
    for trace in &recovered {
        assert!(trace.attempts > 1, "{trace:?}");
        assert!(
            !trace.duration_of(SpanKind::RetryBackoff).is_zero(),
            "{trace:?}"
        );
    }
}
