//! Behavioural tests for the QoS layer: deadline enforcement at all
//! three points (admission, shed, dequeue), the expiry-aware Shed
//! redesign, per-class lanes and stats, and the result-cache lifecycle.

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
use std::time::{Duration, Instant};
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Query, TnnError};
use tnn_geom::{Point, Rect};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, ChannelFaults, FaultPlan, Priority, Qos, RetryPolicy, ServeConfig,
    Server, ShutdownMode,
};

fn env(k: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..k)
        .map(|i| {
            let pts = tnn_datasets::uniform_points(150 + 20 * i, &region, 0x0D15EA5E + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    let phases: Vec<u64> = (0..k as u64).map(|i| i * 5 + 1).collect();
    MultiChannelEnv::new(trees, params, &phases)
}

fn points(n: usize) -> Vec<Point> {
    tnn_datasets::uniform_points(n, &Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 0xFACADE)
}

/// A deadline already in the past resolves `DeadlineExceeded` at
/// admission — accepted, never queued, never run.
#[test]
fn pre_expired_deadline_resolves_at_admission() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1));
    let qos = Qos::interactive().deadline_at(Instant::now() - Duration::from_millis(1));
    let ticket = server.submit_with(Query::tnn(points(1)[0]), qos).unwrap();
    // Resolved synchronously: poll (never wait) must already see it.
    assert_eq!(
        ticket.poll().expect("dead-on-arrival resolves in submit"),
        Err(TnnError::DeadlineExceeded)
    );
    let latency = ticket.latency().expect("resolved tickets have a latency");
    assert!(latency < Duration::from_secs(1), "no worker round-trip");
    let stats = server.stats();
    let interactive = stats.class(Priority::Interactive);
    assert_eq!((interactive.accepted, interactive.expired), (1, 1));
    assert_eq!(interactive.completed, 0);
    assert!(stats.conserved());
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.expired, 1);
    assert!(stats.conserved());
}

/// A job whose deadline passes while it waits in the queue is discarded
/// at dequeue: the worker never runs it, and its ticket resolves
/// `DeadlineExceeded`.
#[test]
fn deadline_expiring_in_queue_is_discarded_at_dequeue() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new().workers(1).cache(CacheConfig::disabled()),
    );
    // A wall of real work keeps the single worker busy for far longer
    // than the stamped deadline...
    let wall_tickets: Vec<_> = points(1000)
        .into_iter()
        .map(|p| server.submit(Query::tnn(p)))
        .collect();
    // ...so this query reliably expires while queued behind it.
    let doomed = server
        .submit_with(
            Query::tnn(points(1)[0]),
            Qos::new().deadline_in(Duration::from_millis(1)),
        )
        .unwrap();
    assert_eq!(doomed.wait(), Err(TnnError::DeadlineExceeded));
    for ticket in wall_tickets {
        assert!(ticket.unwrap().wait().is_ok(), "the wall itself completes");
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 1000);
    assert!(stats.conserved());
}

/// A deadline bounds a `Block` wait: on a paused server with a full
/// lane — where no space wake-up will ever come — the submission still
/// resolves `DeadlineExceeded` when its deadline passes, instead of
/// blocking the submitter forever.
#[test]
fn deadline_bounds_a_block_wait_on_a_wedged_server() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(0) // paused: the lane can never drain
            .queue_capacity(1)
            .backpressure(Backpressure::Block),
    );
    let pts = points(2);
    let filler = server.submit(Query::tnn(pts[0])).unwrap();
    let t0 = Instant::now();
    let ticket = server
        .submit_with(
            Query::tnn(pts[1]),
            Qos::new().deadline_in(Duration::from_millis(30)),
        )
        .expect("an expired deadline travels through the ticket");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the blocked submit returned via its deadline, not a hang"
    );
    assert_eq!(ticket.wait(), Err(TnnError::DeadlineExceeded));
    assert!(!filler.is_done());
    let stats = server.stats();
    assert_eq!((stats.expired, stats.queued), (1, 1));
    assert!(stats.conserved());
    let stats = server.shutdown(ShutdownMode::Cancel);
    assert_eq!(stats.cancelled, 1);
    assert!(stats.conserved());
}

/// The Shed redesign's regression gate: an unexpired ticket survives a
/// storm of expired ones — expiry-aware shedding evicts dead work first
/// and only sacrifices viable queries when no expired victim exists.
#[test]
fn expiry_aware_shed_spares_viable_work_under_an_expired_storm() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(0) // paused: queue occupancy is deterministic
            .queue_capacity(3)
            .backpressure(Backpressure::Shed),
    );
    let pts = points(6);
    // The oldest queued query is viable for another 10 seconds...
    let survivor = server
        .submit_with(
            Query::tnn(pts[0]),
            Qos::new().deadline_in(Duration::from_secs(10)),
        )
        .unwrap();
    // ...while the two behind it die in 20 ms.
    let doomed: Vec<_> = (1..3)
        .map(|i| {
            server
                .submit_with(
                    Query::tnn(pts[i]),
                    Qos::new().deadline_in(Duration::from_millis(20)),
                )
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(40));
    // The storm: two overflowing submissions, each of which must evict
    // an expired victim — never the older-but-viable survivor.
    let fresh: Vec<_> = (3..5)
        .map(|i| server.submit(Query::tnn(pts[i])).unwrap())
        .collect();
    for ticket in &doomed {
        assert_eq!(
            ticket.poll().expect("shed victims resolve immediately"),
            Err(TnnError::DeadlineExceeded)
        );
    }
    assert!(!survivor.is_done(), "viable work outlives the storm");
    let stats = server.stats();
    assert_eq!((stats.expired, stats.shed, stats.queued), (2, 0, 3));
    assert!(stats.conserved());
    // Only once no expired victim exists does shedding fall back to the
    // oldest viable query.
    let last = server.submit(Query::tnn(pts[5])).unwrap();
    assert_eq!(survivor.wait(), Err(TnnError::Overloaded));
    let stats = server.shutdown(ShutdownMode::Cancel);
    assert_eq!((stats.expired, stats.shed, stats.cancelled), (2, 1, 3));
    assert!(stats.conserved());
    for ticket in fresh.iter().chain([&last]) {
        assert_eq!(ticket.wait(), Err(TnnError::Cancelled));
    }
}

/// Lanes are bounded per class: a background flood fills only its own
/// lane, and interactive admissions are untouched by it.
#[test]
fn per_class_lanes_have_independent_capacity() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new()
            .workers(0)
            .queue_capacity(1)
            .backpressure(Backpressure::Reject),
    );
    let pts = points(8);
    assert!(server
        .submit_with(Query::tnn(pts[0]), Qos::background())
        .is_ok());
    for p in &pts[1..5] {
        assert_eq!(
            server
                .submit_with(Query::tnn(*p), Qos::background())
                .unwrap_err(),
            TnnError::Overloaded,
            "background lane holds one job"
        );
    }
    assert!(
        server
            .submit_with(Query::tnn(pts[5]), Qos::interactive())
            .is_ok(),
        "the flooded background lane does not tax interactive admission"
    );
    assert_eq!(
        server
            .submit_with(Query::tnn(pts[6]), Qos::interactive())
            .unwrap_err(),
        TnnError::Overloaded
    );
    let stats = server.stats();
    let bg = stats.class(Priority::Background);
    let fg = stats.class(Priority::Interactive);
    assert_eq!(
        (bg.submitted, bg.accepted, bg.rejected, bg.queued),
        (5, 1, 4, 1)
    );
    assert_eq!(
        (fg.submitted, fg.accepted, fg.rejected, fg.queued),
        (2, 1, 1, 1)
    );
    assert!(stats.conserved());
    let stats = server.shutdown(ShutdownMode::Cancel);
    assert_eq!(stats.cancelled, 2);
    assert!(stats.conserved());
}

/// A repeated query completes from the result cache at admission time —
/// same bytes as the engine, no worker involved, counted as a hit.
#[test]
fn cache_hits_complete_at_admission_with_identical_bytes() {
    let server = Server::spawn(env(3), ServeConfig::new().workers(1));
    let query = Query::tnn(points(1)[0]).issued_at(11);
    let expect = server.engine().run(&query).unwrap();
    let first = server.submit(query.clone()).unwrap().wait().unwrap();
    let hit = server.submit(query.clone()).unwrap();
    // The hit resolved inside submit — poll it, never wait.
    let outcome = hit
        .poll()
        .expect("admission hit resolves synchronously")
        .unwrap();
    assert_eq!(first, expect);
    assert_eq!(outcome, expect, "cache hit is byte-identical");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    assert_eq!(stats.completed, 2);
    assert!(stats.conserved());
    assert!(stats.cache_hit_rate() > 0.0);
    let cache = server.cache_stats().expect("cache enabled by default");
    assert_eq!((cache.hits, cache.insertions), (1, 1));
}

/// Queries differing in any outcome-affecting field miss each other's
/// cache entries; errors are never cached at all.
#[test]
fn distinct_keys_and_errors_do_not_hit() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(1));
    let p = points(1)[0];
    server.submit(Query::tnn(p)).unwrap().wait().unwrap();
    // Same point, different issue slot: a different answer schedule.
    server
        .submit(Query::tnn(p).issued_at(5))
        .unwrap()
        .wait()
        .unwrap();
    // Errors run the engine every time (classified bypass, never stored).
    let nan = Query::tnn(Point::new(f64::NAN, 0.0));
    for _ in 0..2 {
        assert_eq!(
            server.submit(nan.clone()).unwrap().wait(),
            Err(TnnError::NonFiniteQuery)
        );
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.cache_bypass, 2);
    assert!(stats.conserved());
}

/// Disabling the cache reproduces uncached serving: every completion is
/// a bypass and repeats run the engine.
#[test]
fn disabled_cache_bypasses_everything() {
    let server = Server::spawn(
        env(2),
        ServeConfig::new().workers(1).cache(CacheConfig::disabled()),
    );
    let query = Query::tnn(points(1)[0]);
    let a = server.submit(query.clone()).unwrap().wait().unwrap();
    let b = server.submit(query).unwrap().wait().unwrap();
    assert_eq!(a, b);
    assert!(server.cache_stats().is_none());
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_bypass, 2);
    assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    assert!(stats.conserved());
}

/// Spawns a one-worker server over `env` and runs `submit` on it while
/// the worker sleeps in a retry backoff on a blocker job (an outage
/// darkens channel 0 for job 0 alone), so that everything `submit`
/// admits is queued before the worker's next pop. The blocker is a
/// batch-class query away from every submission point and completes
/// with the rest. Should the blocker resolve before `submit` returns,
/// the set-up starts over on a fresh server with twice the backoff.
fn queue_behind_a_busy_worker<T>(
    env: &MultiChannelEnv,
    config: ServeConfig,
    mut submit: impl FnMut(&Server) -> T,
) -> (Server, T) {
    let mut pause = Duration::from_millis(25);
    for _ in 0..8 {
        let plan = FaultPlan::new(0).channel(0, ChannelFaults::NONE.outage(u64::MAX, 1));
        let retry = RetryPolicy::new().max_attempts(2).base(pause).cap(pause);
        let server = Server::spawn_with_faults(env.clone(), config.workers(1).retry(retry), plan);
        let blocker = server.submit(Query::tnn(Point::new(-1.0, -1.0))).unwrap();
        while server.stats().in_flight == 0 {
            std::thread::yield_now();
        }
        let submitted = submit(&server);
        if !blocker.is_done() {
            return (server, submitted);
        }
        server.shutdown(ShutdownMode::Drain);
        pause *= 2;
    }
    panic!("the submissions never fitted inside the blocker's backoff");
}

/// Mixed-class submissions queued on one worker before its next pop
/// keep strict priority: every interactive job completes before any
/// background one starts. The instants just before and after each
/// submission bracket the ticket's submission stamp, so its latency
/// places its resolution within that bracket; an order counts as
/// inverted only when the later job surely resolved first.
#[test]
fn strict_priority_never_inverts_across_an_atomic_batch() {
    let pts = points(60);
    let (server, tickets) = queue_behind_a_busy_worker(
        &env(2),
        ServeConfig::new().cache(CacheConfig::disabled()),
        |server| {
            let background = pts[..30].iter().map(|p| (p, Qos::background()));
            let interactive = pts[30..].iter().map(|p| (p, Qos::interactive()));
            background
                .chain(interactive)
                .map(|(p, qos)| {
                    let before = Instant::now();
                    let ticket = server.submit_with(Query::tnn(*p), qos).unwrap();
                    (ticket, before, Instant::now())
                })
                .collect::<Vec<_>>()
        },
    );
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.completed, 60 + 1, "the 60 and the blocker");
    assert!(stats.conserved());
    // The earliest and the latest instant each ticket can have resolved.
    let resolved: Vec<(Instant, Instant)> = tickets
        .iter()
        .map(|(ticket, before, after)| {
            let latency = ticket.latency().unwrap();
            (*before + latency, *after + latency)
        })
        .collect();
    let (background, interactive) = resolved.split_at(30);
    let last_interactive = interactive.iter().map(|r| r.0).max().unwrap();
    let first_background = background.iter().map(|r| r.1).min().unwrap();
    assert!(
        last_interactive <= first_background,
        "a background job completed before an interactive one"
    );
    // And within each class, completion stays FIFO in submission order.
    for class in [background, interactive] {
        for window in class.windows(2) {
            assert!(window[0].0 <= window[1].1, "within-class order inverted");
        }
    }
}

/// Shutdown modes respect classes too: per-class conservation holds and
/// every ticket resolves, whatever lane it sat in.
#[test]
fn cancel_shutdown_accounts_per_class() {
    let server = Server::spawn(env(2), ServeConfig::new().workers(0));
    let pts = points(9);
    let tickets: Vec<_> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let qos = match i % 3 {
                0 => Qos::interactive(),
                1 => Qos::batch(),
                _ => Qos::background(),
            };
            server.submit_with(Query::tnn(*p), qos).unwrap()
        })
        .collect();
    let stats = server.shutdown(ShutdownMode::Cancel);
    assert!(stats.conserved());
    for class in Priority::ALL {
        let c = stats.class(class);
        assert_eq!((c.accepted, c.cancelled), (3, 3), "{}", class.name());
        assert!(c.conserved(), "{}", class.name());
    }
    for ticket in &tickets {
        assert_eq!(ticket.wait(), Err(TnnError::Cancelled));
    }
}
