//! Behavioural tests for the serving subsystem: ticket lifecycle,
//! backpressure policies, shutdown determinism, and the double-wait
//! regression.

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
use tnn_core::{Algorithm, Query, TnnError};
use tnn_geom::{Point, Rect};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{Backpressure, ServeConfig, Server, ShutdownMode};

fn env(k: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..k)
        .map(|i| {
            let pts = tnn_datasets::uniform_points(120 + 30 * i, &region, 0xC0FFEE + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    let phases: Vec<u64> = (0..k as u64).map(|i| i * 7 + 2).collect();
    MultiChannelEnv::new(trees, params, &phases)
}

fn points(n: usize) -> Vec<Point> {
    tnn_datasets::uniform_points(n, &Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 0xBEEF)
}

/// Spin until the server has completed `n` jobs (bounded).
fn await_completed(server: &Server, n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().completed < n {
        assert!(
            std::time::Instant::now() < deadline,
            "server did not complete {n} jobs in time: {:?}",
            server.stats()
        );
        std::thread::yield_now();
    }
}

#[test]
fn served_outcomes_equal_direct_engine_runs() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(2));
    for p in points(20) {
        let query = Query::tnn(p).algorithm(Algorithm::HybridNn).issued_at(3);
        let expect = server.engine().run(&query).unwrap();
        let got = server.submit(query).unwrap().wait().unwrap();
        assert_eq!(got, expect);
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.completed, 20);
    assert!(stats.conserved());
}

#[test]
fn wait_is_idempotent_and_poll_after_wait_returns_cache() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1));
    let ticket = server
        .submit(Query::chain(Point::new(480.0, 520.0)))
        .unwrap();
    let first = ticket.wait();
    // The double-wait footgun: a second wait (and a poll after wait)
    // must return the cached outcome immediately — never hang or panic.
    let second = ticket.wait();
    let polled = ticket.poll().expect("resolved ticket polls Some");
    assert_eq!(first, second);
    assert_eq!(first, polled);
    assert!(ticket.is_done());
    assert!(ticket.latency().is_some());
    // wait_timeout on a resolved ticket is immediate too.
    assert_eq!(
        ticket.wait_timeout(Duration::from_millis(1)),
        Some(first.clone())
    );
    // And the outcome is still the engine's.
    assert_eq!(
        first.unwrap(),
        server
            .engine()
            .run(&Query::chain(Point::new(480.0, 520.0)))
            .unwrap()
    );
}

#[test]
fn reject_policy_errors_at_the_door_when_paused() {
    // A paused (zero-worker) server makes queue occupancy deterministic.
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(0)
            .queue_capacity(2)
            .backpressure(Backpressure::Reject),
    );
    let pts = points(3);
    let t1 = server.submit(Query::tnn(pts[0])).unwrap();
    let t2 = server.submit(Query::tnn(pts[1])).unwrap();
    let refused = server.submit(Query::tnn(pts[2]));
    assert_eq!(refused.unwrap_err(), TnnError::Overloaded);
    assert!(t1.poll().is_none());
    assert!(!t2.is_done());
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.rejected, stats.queued), (2, 1, 2));
    assert!(stats.conserved());
    // Shutdown of a paused server resolves the backlog as cancelled —
    // no ticket ever outlives shutdown unresolved.
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cancelled, 2);
    assert!(stats.conserved());
    assert_eq!(t1.wait().unwrap_err(), TnnError::Cancelled);
    assert_eq!(t2.wait().unwrap_err(), TnnError::Cancelled);
}

/// A submitter waiting for a slot under `Block` is not yet decided, so
/// it is not counted either: `conserved()` holds on every snapshot
/// taken while it waits, not only at quiescence. Shutdown then refuses
/// it with `Cancelled`.
#[test]
fn block_wait_keeps_every_snapshot_conserved() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(0)
            .queue_capacity(1)
            .backpressure(Backpressure::Block),
    );
    let pts = points(2);
    let queued = server.submit(Query::tnn(pts[0])).unwrap();
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| server.submit(Query::tnn(pts[1])));
        // A waiting submitter leaves no mark in the counters (that is
        // the property under test), so there is no signal to wait for:
        // watch a fixed window instead. The submitter reaches its wait
        // within microseconds.
        // A failure is recorded, not asserted, until shutdown has freed
        // the waiter: the scope cannot unwind past a blocked thread.
        let watch = std::time::Instant::now() + Duration::from_millis(100);
        let mut violation = None;
        while std::time::Instant::now() < watch && violation.is_none() {
            let stats = server.stats();
            if !stats.conserved() || (stats.accepted, stats.queued) != (1, 1) {
                violation = Some(stats);
            }
        }
        let waiting = !blocked.is_finished();
        server.shutdown(ShutdownMode::Cancel);
        let refused = blocked.join().unwrap();
        assert_eq!(violation, None, "mid-Block snapshot");
        assert!(waiting, "the lane is full: the submitter must wait");
        assert_eq!(refused.unwrap_err(), TnnError::Cancelled);
    });
    assert_eq!(queued.wait().unwrap_err(), TnnError::Cancelled);
    let stats = server.stats();
    assert!(stats.conserved(), "{stats:?}");
    assert_eq!(
        (stats.submitted, stats.rejected, stats.cancelled),
        (2, 1, 1)
    );
}

#[test]
fn shed_policy_evicts_the_oldest_queued_query() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(0)
            .queue_capacity(2)
            .backpressure(Backpressure::Shed),
    );
    let pts = points(3);
    let t1 = server.submit(Query::tnn(pts[0])).unwrap();
    let t2 = server.submit(Query::tnn(pts[1])).unwrap();
    // Queue full: admitting the third sheds the *oldest* (t1).
    let t3 = server.submit(Query::tnn(pts[2])).unwrap();
    assert_eq!(t1.wait().unwrap_err(), TnnError::Overloaded);
    assert!(!t2.is_done());
    assert!(!t3.is_done());
    let stats = server.stats();
    assert_eq!((stats.accepted, stats.shed, stats.queued), (3, 1, 2));
    assert!(stats.conserved());
    let stats = server.shutdown(ShutdownMode::Cancel);
    assert_eq!(stats.cancelled, 2);
    assert!(stats.conserved());
}

#[test]
fn block_policy_completes_everything_through_a_tiny_queue() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(1)
            .queue_capacity(2)
            .backpressure(Backpressure::Block)
            .batch_window(2),
    );
    let tickets: Vec<_> = points(40)
        .into_iter()
        .map(|p| server.submit(Query::tnn(p)).expect("Block never refuses"))
        .collect();
    for t in &tickets {
        assert!(t.wait().is_ok());
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(
        (stats.accepted, stats.completed, stats.rejected),
        (40, 40, 0)
    );
    assert!(stats.conserved());
}

#[test]
fn submit_batch_matches_per_query_submission() {
    let server = Server::spawn(env(3), ServeConfig::new().workers(2).batch_window(4));
    let queries: Vec<Query> = points(12)
        .into_iter()
        .map(|p| Query::tnn(p).algorithm(Algorithm::DoubleNn))
        .collect();
    let expect: Vec<_> = queries
        .iter()
        .map(|q| server.engine().run(q).unwrap())
        .collect();
    let tickets = server.submit_batch(queries);
    assert_eq!(tickets.len(), 12);
    for (ticket, expect) in tickets.into_iter().zip(expect) {
        assert_eq!(ticket.unwrap().wait().unwrap(), expect);
    }
}

#[test]
fn dropped_ticket_does_not_leak_a_queue_slot() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(1)
            .queue_capacity(1)
            .backpressure(Backpressure::Reject),
    );
    let p = points(1)[0];
    // Fire-and-forget: drop the ticket without ever waiting.
    drop(server.submit(Query::tnn(p)).unwrap());
    await_completed(&server, 1);
    // The slot came back (it was freed when the worker popped the job,
    // not when the ticket was dropped) — a second submission is admitted.
    let t = server.submit(Query::tnn(p)).unwrap();
    assert!(t.wait().is_ok());
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.completed, 2);
    assert!(stats.conserved());
}

#[test]
fn drain_shutdown_finishes_the_backlog() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1).batch_window(1));
    let tickets: Vec<_> = server
        .submit_batch(points(30).into_iter().map(Query::tnn))
        .into_iter()
        .map(|t| t.unwrap())
        .collect();
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.completed, 30);
    assert_eq!(stats.cancelled, 0);
    assert!(stats.conserved());
    for t in &tickets {
        assert!(t.wait().is_ok(), "drained tickets carry real outcomes");
    }
}

#[test]
fn cancel_shutdown_resolves_every_ticket_deterministically() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1).batch_window(1));
    let tickets: Vec<_> = server
        .submit_batch(points(50).into_iter().map(Query::tnn))
        .into_iter()
        .map(|t| t.unwrap())
        .collect();
    let stats = server.shutdown(ShutdownMode::Cancel);
    assert!(stats.conserved());
    assert_eq!(stats.completed + stats.cancelled, 50);
    let mut completed = 0u64;
    let mut cancelled = 0u64;
    for t in &tickets {
        // Every ticket is resolved by now — poll, never wait.
        match t.poll().expect("shutdown resolves every ticket") {
            Ok(_) => completed += 1,
            Err(TnnError::Cancelled) => cancelled += 1,
            Err(other) => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!((completed, cancelled), (stats.completed, stats.cancelled));
}

#[test]
fn submissions_during_shutdown_are_refused() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1));
    let p = points(1)[0];
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            // Submit until the shutdown takes effect; each pre-shutdown
            // submission must still resolve.
            let mut okayed = 0u64;
            loop {
                match server.submit(Query::tnn(p)) {
                    Ok(ticket) => {
                        let _ = ticket.wait();
                        okayed += 1;
                    }
                    Err(e) => {
                        assert_eq!(e, TnnError::Cancelled);
                        return okayed;
                    }
                }
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let stats = server.shutdown(ShutdownMode::Drain);
        let okayed = submitter.join().unwrap();
        assert!(stats.conserved());
        // The loop's closing refusal may land after `shutdown` already
        // returned its snapshot (the admission-time cache makes the
        // submitter a pure spinner, so it no longer reliably wins that
        // race); count it from a snapshot taken after the submitter
        // exited, as the stress suite does.
        let stats = server.stats();
        assert!(stats.conserved());
        assert!(stats.rejected >= 1, "the loop ends on a refusal");
        assert!(okayed <= stats.accepted);
    });
}

#[test]
fn shutdown_is_idempotent_and_drop_is_safe_after_it() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(2));
    let t = server.submit(Query::order_free(points(1)[0])).unwrap();
    let first = server.shutdown(ShutdownMode::Drain);
    let second = server.shutdown(ShutdownMode::Cancel);
    assert_eq!(first, second, "second shutdown observes the same stats");
    assert!(t.poll().is_some());
    drop(server);
}

#[test]
fn query_errors_travel_through_tickets_not_submit() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1));
    let ticket = server
        .submit(Query::tnn(Point::new(f64::NAN, 1.0)))
        .expect("malformed points are a query-level error, not admission");
    assert_eq!(ticket.wait().unwrap_err(), TnnError::NonFiniteQuery);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
#[should_panic(expected = "one phase per channel")]
fn phase_arity_panics_on_the_submitting_thread() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1));
    let _ = server.submit(Query::tnn(Point::ORIGIN).phases(&[1, 2, 3]));
}

#[test]
fn variant_queries_serve_like_tnn_ones() {
    let server = Server::spawn(env(3), ServeConfig::new().workers(2));
    for p in points(6) {
        for query in [Query::order_free(p), Query::round_trip(p), Query::chain(p)] {
            let expect = server.engine().run(&query).unwrap();
            assert_eq!(server.submit(query).unwrap().wait().unwrap(), expect);
        }
    }
}

#[test]
fn stats_merge_preserves_conservation_and_sums_totals() {
    // Two live servers with different traffic shapes; each snapshot is
    // conserved, and the fold of the two must be conserved with summed
    // totals — the multi-server aggregation the shard router relies on.
    let server_a = Server::spawn(env(2), ServeConfig::new().workers(1));
    let server_b = Server::spawn(env(3), ServeConfig::new().workers(2));
    for p in points(12) {
        let _ = server_a.submit(Query::tnn(p)).unwrap();
        let _ = server_b.submit(Query::chain(p)).unwrap();
        let _ = server_b.submit(Query::round_trip(p)).unwrap();
    }
    let a = server_a.shutdown(ShutdownMode::Drain);
    let b = server_b.shutdown(ShutdownMode::Drain);
    assert!(a.conserved() && b.conserved());

    let folded = tnn_serve::ServeStats::fold([&a, &b]);
    assert!(
        folded.conserved(),
        "folded snapshot broke conservation: {folded:?}"
    );
    assert_eq!(folded.submitted, a.submitted + b.submitted);
    assert_eq!(folded.completed, a.completed + b.completed);
    assert_eq!(folded.cache_hits, a.cache_hits + b.cache_hits);
    for i in 0..folded.classes.len() {
        assert_eq!(
            folded.classes[i].submitted,
            a.classes[i].submitted + b.classes[i].submitted
        );
        assert_eq!(
            folded.classes[i].latency.count(),
            a.classes[i].latency.count() + b.classes[i].latency.count()
        );
    }

    // merge == fold of two, and the empty fold is the zero snapshot.
    let mut merged = a;
    merged.merge(&b);
    assert_eq!(merged, folded);
    let empty = tnn_serve::ServeStats::fold([]);
    assert_eq!(empty, tnn_serve::ServeStats::default());
    assert!(empty.conserved());
}

#[test]
fn stats_merge_of_mid_flight_snapshots_is_conserved() {
    // Conservation is snapshot-exact per server, so folding snapshots
    // taken while work is queued/in flight must also be conserved.
    let server = Server::spawn(env(2), ServeConfig::new().workers(1).queue_capacity(64));
    let tickets: Vec<_> = points(30)
        .into_iter()
        .map(|p| server.submit(Query::tnn(p)).unwrap())
        .collect();
    let live_a = server.stats();
    let live_b = server.stats();
    let folded = tnn_serve::ServeStats::fold([&live_a, &live_b]);
    assert!(
        folded.conserved(),
        "mid-flight fold broke conservation: {folded:?}"
    );
    for t in tickets {
        let _ = t.wait();
    }
    server.shutdown(ShutdownMode::Drain);
}
