//! Regression tests for the fault-injection serving path: panic
//! isolation, worker respawn (and its bound), deadline-aware retries,
//! and the fail-closed end of the retry ladder (bounded by
//! `max_attempts`, never cached).

#![expect(
    clippy::disallowed_methods,
    reason = "R1 covers non-test code; these tests bound waits and deadlines with real elapsed time"
)]
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "R2 (fail-closed) covers the crate's non-test code only"
)]

use std::sync::Arc;
use std::time::Duration;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Query, TnnError};
use tnn_geom::Rect;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    ChannelFaults, FaultPlan, Priority, Qos, RetryPolicy, ServeConfig, Server, ShutdownMode,
};

fn env(k: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..k)
        .map(|i| {
            let pts = tnn_datasets::uniform_points(100 + 25 * i, &region, 0xFA117 + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    let phases: Vec<u64> = (0..k as u64).map(|i| i * 5 + 3).collect();
    MultiChannelEnv::new(trees, params, &phases)
}

fn queries(n: usize) -> Vec<Query> {
    tnn_datasets::uniform_points(n, &Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 0xDEAD)
        .into_iter()
        .map(Query::tnn)
        .collect()
}

/// A plan whose channels are *always* mid-outage at attempt 0 and for
/// far more attempts than any policy in these tests retries.
fn permanent_outage(k: usize, seed: u64) -> FaultPlan {
    FaultPlan::new(seed).all_channels(k, ChannelFaults::NONE.outage(1, 1 << 40))
}

#[test]
fn injected_engine_panic_is_isolated_and_serving_continues() {
    // Panic exactly on the second admitted job (seq 1). The panic must
    // resolve that ticket `Internal` without killing the worker — and
    // the jobs before and after it get real answers.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1),
        FaultPlan::new(7).panic_at(1),
    );
    let qs = queries(3);
    let expect: Vec<_> = qs.iter().map(|q| server.engine().run(q).unwrap()).collect();
    assert_eq!(
        server.submit(qs[0].clone()).unwrap().wait().unwrap(),
        expect[0]
    );
    assert_eq!(
        server.submit(qs[1].clone()).unwrap().wait().unwrap_err(),
        TnnError::Internal
    );
    // The regression this pins down: a panicked query used to fail the
    // server closed — now the very next submission is served normally.
    assert_eq!(
        server.submit(qs[2].clone()).unwrap().wait().unwrap(),
        expect[2]
    );
    let faults = server.fault_stats().unwrap();
    assert_eq!(faults.engine_panics, 1);
    assert_eq!(faults.worker_kills, 0);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_restarts, 0, "panics are isolated, not fatal");
    assert_eq!(stats.completed, 3);
    assert!(stats.conserved());
}

#[test]
fn worker_kill_respawns_in_place_and_keeps_serving() {
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1),
        FaultPlan::new(7).kill_at(0),
    );
    let qs = queries(2);
    // The killed worker abandons the job: its ticket resolves `Internal`
    // when the batch buffer unwinds.
    assert_eq!(
        server.submit(qs[0].clone()).unwrap().wait().unwrap_err(),
        TnnError::Internal
    );
    // The same OS thread respawns and serves the next submission.
    let expect = server.engine().run(&qs[1]).unwrap();
    assert_eq!(
        server.submit(qs[1].clone()).unwrap().wait().unwrap(),
        expect
    );
    assert_eq!(server.fault_stats().unwrap().worker_kills, 1);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.completed, 2, "abandoned jobs still complete");
    assert!(stats.conserved());
}

/// A pool spends at most 32 worker restarts: 33 single jobs, each
/// killed, are each admitted and resolved, and the 33rd restart fails
/// the server closed.
#[test]
fn restart_bound_fails_the_server_closed() {
    const BOUND: u64 = 32;
    let plan = (0..=BOUND).fold(FaultPlan::new(7), FaultPlan::kill_at);
    let server = Server::spawn_with_faults(env(2), ServeConfig::new().workers(1), plan);
    let qs = queries(BOUND as usize + 2);
    for query in &qs[..=BOUND as usize] {
        assert_eq!(
            server.submit(query.clone()).unwrap().wait().unwrap_err(),
            TnnError::Internal
        );
    }
    // Restart 33 exceeds the bound: the pool declares a crash loop and
    // fails closed. The ticket resolving (`Job::drop`) races the
    // restart accounting by a hair, so spin briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().worker_restarts <= BOUND {
        assert!(std::time::Instant::now() < deadline, "restart not counted");
        std::thread::yield_now();
    }
    assert_eq!(
        server.submit(qs[BOUND as usize + 1].clone()).unwrap_err(),
        TnnError::Cancelled,
        "a crash-looping server refuses new work instead of stranding it"
    );
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_restarts, BOUND + 1);
    assert!(stats.conserved());
}

#[test]
fn expired_deadline_under_outage_resolves_deadline_exceeded() {
    // A 0-TTL deadline dies while queued; the dequeue check refuses to
    // burn retry time on it even though the channels are mid-outage.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1),
        permanent_outage(2, 11),
    );
    let ticket = server
        .submit_with(
            queries(1)[0].clone(),
            Qos::new().deadline_in(Duration::ZERO),
        )
        .unwrap();
    assert_eq!(ticket.wait().unwrap_err(), TnnError::DeadlineExceeded);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.expired, 1);
    assert!(stats.conserved());
}

#[test]
fn deadline_expiring_mid_retry_resolves_instead_of_hanging() {
    // Alive at dequeue, dead before the ladder can ever tune in: the
    // retry loop must notice and resolve `DeadlineExceeded` — a retry
    // never outlives the submitter's deadline.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1).retry(
            RetryPolicy::new()
                .max_attempts(u32::MAX)
                .base(Duration::from_micros(500))
                .cap(Duration::from_millis(2)),
        ),
        permanent_outage(2, 13),
    );
    let ticket = server
        .submit_with(
            queries(1)[0].clone(),
            Qos::new().deadline_in(Duration::from_millis(20)),
        )
        .unwrap();
    assert_eq!(
        ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("no hang"),
        Err(TnnError::DeadlineExceeded)
    );
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.expired, 1);
    assert!(stats.retried > 0, "the ladder ran before the deadline hit");
    assert!(stats.conserved());
}

#[test]
fn exhausted_ladder_fails_closed_and_is_never_cached() {
    // Endless outage: every attempt fails, so each job spends its whole
    // ladder and resolves the last `ChannelUnavailable`. The second,
    // identical submission must run its own ladder: an error is never
    // stored, so there is nothing for it to hit.
    let max_attempts = 3;
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1).retry(
            RetryPolicy::new()
                .max_attempts(max_attempts)
                .base(Duration::from_micros(100)),
        ),
        permanent_outage(2, 17),
    );
    let query = queries(1)[0].clone();
    for _ in 0..2 {
        let err = server.submit(query.clone()).unwrap().wait().unwrap_err();
        assert!(
            matches!(err, TnnError::ChannelUnavailable { .. }),
            "an exhausted ladder surfaces the recoverable error: {err:?}"
        );
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.retried, 2 * u64::from(max_attempts - 1));
    assert_eq!(stats.cache_hits, 0, "errors are not replayed");
    assert_eq!(stats.cache_bypass, 2);
    assert_eq!(stats.completed, 2);
    assert!(stats.conserved());
}

#[test]
fn retries_escape_a_finite_outage_with_the_exact_answer() {
    // Outage of length 2 at every 4th sequence position: attempts count
    // the outage down, so a 4-attempt ladder always escapes — and the
    // answer it then produces is byte-identical to a fault-free run.
    let server = Server::spawn_with_faults(
        env(2),
        ServeConfig::new().workers(1).retry(
            RetryPolicy::new()
                .max_attempts(4)
                .base(Duration::from_micros(100))
                .cap(Duration::from_micros(800)),
        ),
        FaultPlan::new(23).all_channels(2, ChannelFaults::NONE.outage(4, 2)),
    );
    let qs = queries(8);
    for q in &qs {
        let expect = server.engine().run(q).unwrap();
        let got = server.submit(q.clone()).unwrap().wait().unwrap();
        assert_eq!(got, expect);
    }
    let faults = server.fault_stats().unwrap();
    assert!(faults.outages > 0, "the outage schedule actually fired");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.retried > 0);
    assert_eq!(stats.completed, 8);
    assert!(stats.conserved());
}

#[test]
fn max_attempts_bounds_the_ladder_exactly() {
    // Under an endless outage a job makes exactly `max_attempts` tune-in
    // attempts — one outage each — with a backoff pause between two of
    // them, whatever its class: no class has a pool of its own.
    for max_attempts in [1u32, 2, 5] {
        let server = Server::spawn_with_faults(
            env(2),
            ServeConfig::new().workers(1).retry(
                RetryPolicy::new()
                    .max_attempts(max_attempts)
                    .base(Duration::from_micros(50)),
            ),
            permanent_outage(2, 29),
        );
        let classes = [Priority::Interactive, Priority::Batch, Priority::Background];
        for (q, class) in queries(3).into_iter().zip(classes) {
            let err = server
                .submit_with(q, Qos::new().priority(class))
                .unwrap()
                .wait()
                .unwrap_err();
            assert!(
                matches!(err, TnnError::ChannelUnavailable { .. }),
                "{err:?}"
            );
        }
        let faults = server.fault_stats().unwrap();
        assert_eq!(faults.outages, 3 * u64::from(max_attempts));
        assert_eq!(faults.clean_rounds, 0);
        let stats = server.shutdown(ShutdownMode::Drain);
        for class in classes {
            assert_eq!(
                stats.class(class).retried,
                u64::from(max_attempts - 1),
                "{class:?} at max_attempts {max_attempts}"
            );
        }
        assert_eq!(stats.retried, 3 * u64::from(max_attempts - 1));
        assert!(stats.conserved());
    }
}

#[test]
fn zero_fault_plan_keeps_stats_clean() {
    let server =
        Server::spawn_with_faults(env(2), ServeConfig::new().workers(2), FaultPlan::none());
    let qs = queries(10);
    for q in &qs {
        let expect = server.engine().run(q).unwrap();
        assert_eq!(server.submit(q.clone()).unwrap().wait().unwrap(), expect);
    }
    let faults = server.fault_stats().unwrap();
    assert_eq!(faults.injected(), 0);
    assert_eq!(faults.clean_rounds, 10);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!((stats.retried, stats.worker_restarts), (0, 0));
    assert!(stats.conserved());
}

#[test]
fn latency_histograms_cover_every_completion() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(2));
    let tickets: Vec<_> = queries(30)
        .into_iter()
        .map(|q| server.submit(q).unwrap())
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    let recorded: u64 = stats.classes.iter().map(|c| c.latency.count()).sum();
    assert_eq!(recorded, 30, "every completion records one latency");
    let batch = &stats.classes[Priority::Batch.index()];
    assert!(batch.latency.p50() <= batch.latency.p99());
    assert!(batch.latency.p99() > Duration::ZERO);
    assert!(stats.conserved());
}
