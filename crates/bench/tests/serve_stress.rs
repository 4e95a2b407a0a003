//! Concurrency stress/soak for the serving subsystem — **ignored by
//! default** (run via `cargo test -p tnn-bench --test serve_stress --
//! --ignored`, which is what the `stress` CI job does; `TNN_STRESS_SECS`
//! scales the per-policy soak, default 2 seconds).
//!
//! Eight submitter threads hammer a 2-worker server with a tiny queue
//! bound under each backpressure policy, shutdown lands while work is
//! still in flight, and afterwards the harness asserts:
//! * **no deadlock** — every submitter and worker thread exits;
//! * **no lost tickets** — the conservation invariant
//!   `submitted = completed + rejected + shed + cancelled` holds, the
//!   client-side counts match the server's, and every ticket any client
//!   kept is resolved;
//! * **clean shutdown with in-flight work** — `shutdown` returns with
//!   queue and in-flight counts at zero.
//!
//! The drill repeats as a **mixed-priority storm** (`hammer_qos`):
//! submitters spread over all three service classes with a mix of tight,
//! generous, and absent deadlines, reconciling the per-class
//! conservation invariant against per-class client tallies. A **chaos storm**
//! (`hammer_chaos`) reruns the drill under an aggressive [`FaultPlan`] —
//! drops, outages, engine panics, and scheduled worker kills —
//! asserting the server keeps serving across respawns with zero lost
//! tickets and the invariant exact in every mid-storm snapshot. The
//! deterministic no-priority-inversion gate and the bounded chaos smoke
//! run in tier-1.

#![expect(
    clippy::disallowed_methods,
    reason = "R1 covers non-test code; the soaks pace submitters and bound waits with real elapsed time"
)]

mod common;

use common::queue_behind_a_busy_worker;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Query, TnnError};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, ChannelFaults, FaultPlan, Priority, Qos, RetryPolicy, ServeConfig, Server,
    ShutdownMode,
};

const SUBMITTERS: usize = 8;

fn stress_secs() -> f64 {
    std::env::var("TNN_STRESS_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0)
}

fn small_env() -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let trees: Vec<Arc<RTree>> = (0..2)
        .map(|c| {
            let pts: Vec<Point> = (0..250)
                .map(|i| {
                    Point::new(
                        ((i * 37 + c * 131) % 997) as f64,
                        ((i * 59 + c * 211) % 983) as f64,
                    )
                })
                .collect();
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, &[7, 19])
}

/// Per-submitter tallies, reconciled against the server's stats.
#[derive(Default)]
struct ClientTally {
    ok: u64,
    overloaded: u64,
    cancelled: u64,
}

/// Hammers one server configuration for `secs`, shuts down `mode`-wise
/// while submitters are still firing, and checks conservation from both
/// sides of the API.
fn hammer(policy: Backpressure, mode: ShutdownMode, secs: f64) {
    let server = Server::spawn(
        small_env(),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(4)
            .backpressure(policy),
    );
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = &server;
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    let mut kept = Vec::new();
                    let mut i = 0u64;
                    // Run until the shutdown refusal arrives (not until
                    // the deadline): the point is that shutdown lands
                    // while this thread still has requests in flight.
                    loop {
                        let p = Point::new(
                            ((t as u64 * 7919 + i * 127) % 1000) as f64,
                            ((t as u64 * 104_729 + i * 211) % 1000) as f64,
                        );
                        i += 1;
                        match server.submit(Query::tnn(p)) {
                            Ok(ticket) => {
                                tally.ok += 1;
                                // Mix waiting styles: some tickets are
                                // awaited inline, some polled, most
                                // dropped without waiting.
                                match i % 11 {
                                    0 => {
                                        let _ = ticket.wait();
                                    }
                                    1 => kept.push(ticket),
                                    2 => {
                                        let _ = ticket.poll();
                                    }
                                    _ => drop(ticket),
                                }
                            }
                            Err(TnnError::Overloaded) => tally.overloaded += 1,
                            Err(TnnError::Cancelled) => {
                                tally.cancelled += 1;
                                break;
                            }
                            Err(other) => panic!("unexpected submit error {other:?}"),
                        }
                    }
                    (tally, kept)
                })
            })
            .collect();
        // Let the storm build, then shut down mid-flight.
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown(mode);
        let mut client_ok = 0u64;
        let mut client_overloaded = 0u64;
        let mut client_cancelled = 0u64;
        for handle in handles {
            let (tally, kept) = handle
                .join()
                .expect("submitter must not die: deadlock/panic");
            client_ok += tally.ok;
            client_overloaded += tally.overloaded;
            client_cancelled += tally.cancelled;
            for ticket in &kept {
                assert!(ticket.is_done(), "ticket unresolved after shutdown");
            }
        }
        // Reconcile against a snapshot taken only after every submitter
        // has exited: their last refused submissions are counted after
        // `shutdown` already returned.
        let stats = server.stats();
        // Client-side and server-side accounting must agree exactly.
        assert_eq!(client_ok, stats.accepted, "{policy:?}/{mode:?}");
        match policy {
            // Only Reject refuses with Overloaded at the door; under
            // Shed the overload lands on the evicted ticket instead.
            Backpressure::Reject => {
                assert_eq!(
                    client_overloaded + client_cancelled,
                    stats.rejected,
                    "{mode:?}"
                )
            }
            _ => assert_eq!(client_cancelled, stats.rejected, "{policy:?}/{mode:?}"),
        }
        stats
    });
    // No lost tickets: every submission is accounted for exactly once,
    // and the server is fully quiescent.
    assert!(stats.conserved(), "conservation violated: {stats:?}");
    assert_eq!(stats.queued, 0, "{policy:?}/{mode:?}");
    assert_eq!(stats.in_flight, 0, "{policy:?}/{mode:?}");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.shed + stats.cancelled,
        "lost tickets: {stats:?}"
    );
    assert!(
        stats.completed > 0,
        "soak must actually execute queries: {stats:?}"
    );
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_block_policy_drain_shutdown() {
    hammer(Backpressure::Block, ShutdownMode::Drain, stress_secs());
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_block_policy_cancel_shutdown() {
    hammer(Backpressure::Block, ShutdownMode::Cancel, stress_secs());
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_reject_policy() {
    hammer(Backpressure::Reject, ShutdownMode::Cancel, stress_secs());
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_shed_policy() {
    hammer(Backpressure::Shed, ShutdownMode::Drain, stress_secs());
}

/// Per-submitter tallies of the mixed-priority storm, one row per class.
#[derive(Default, Clone, Copy)]
struct ClassTally {
    ok: u64,
    overloaded: u64,
    cancelled: u64,
}

/// Mixed-priority 8-way storm: submitter `t` rides class `t % 3` and
/// stamps a deadline on half its queries (some generous, some that will
/// expire in the queue), shutdown lands mid-flight, and afterwards the
/// per-class conservation invariant must reconcile exactly against each
/// class's client-side tally — on top of the global invariant, which now
/// also folds the cache classification of every completion.
fn hammer_qos(policy: Backpressure, mode: ShutdownMode, secs: f64) {
    let server = Server::spawn(
        small_env(),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(4)
            .backpressure(policy),
    );
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let classes = [Priority::Interactive, Priority::Batch, Priority::Background];
    let (tallies, stats) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = &server;
                let class = classes[t % classes.len()];
                scope.spawn(move || {
                    let mut tally = ClassTally::default();
                    let mut kept = Vec::new();
                    let mut i = 0u64;
                    loop {
                        let p = Point::new(
                            ((t as u64 * 7919 + i * 127) % 1000) as f64,
                            ((t as u64 * 104_729 + i * 211) % 1000) as f64,
                        );
                        i += 1;
                        let qos = match i % 4 {
                            // Deadlines that expire inside a saturated
                            // queue, generous ones, and none at all.
                            0 => Qos::new()
                                .priority(class)
                                .deadline_in(Duration::from_micros(200)),
                            1 => Qos::new()
                                .priority(class)
                                .deadline_in(Duration::from_secs(30)),
                            _ => Qos::new().priority(class),
                        };
                        match server.submit_with(Query::tnn(p), qos) {
                            Ok(ticket) => {
                                tally.ok += 1;
                                match i % 11 {
                                    0 => {
                                        let _ = ticket.wait();
                                    }
                                    1 => kept.push(ticket),
                                    2 => {
                                        let _ = ticket.poll();
                                    }
                                    _ => drop(ticket),
                                }
                            }
                            Err(TnnError::Overloaded) => tally.overloaded += 1,
                            Err(TnnError::Cancelled) => {
                                tally.cancelled += 1;
                                break;
                            }
                            Err(other) => panic!("unexpected submit error {other:?}"),
                        }
                    }
                    (class, tally, kept)
                })
            })
            .collect();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown(mode);
        let mut tallies = [ClassTally::default(); 3];
        for handle in handles {
            let (class, tally, kept) = handle
                .join()
                .expect("submitter must not die: deadlock/panic");
            let slot = &mut tallies[class.index()];
            slot.ok += tally.ok;
            slot.overloaded += tally.overloaded;
            slot.cancelled += tally.cancelled;
            for ticket in &kept {
                assert!(ticket.is_done(), "ticket unresolved after shutdown");
            }
        }
        // Snapshot only after every submitter exited (their closing
        // refusals land after `shutdown` returned).
        (tallies, server.stats())
    });
    assert!(stats.conserved(), "conservation violated: {stats:?}");
    assert_eq!(
        (stats.queued, stats.in_flight),
        (0, 0),
        "{policy:?}/{mode:?}"
    );
    for class in classes {
        let server_side = stats.class(class);
        let client_side = &tallies[class.index()];
        assert!(server_side.conserved(), "{}: {server_side:?}", class.name());
        assert_eq!(
            client_side.ok,
            server_side.accepted,
            "{} accepted mismatch under {policy:?}/{mode:?}",
            class.name()
        );
        match policy {
            Backpressure::Reject => assert_eq!(
                client_side.overloaded + client_side.cancelled,
                server_side.rejected,
                "{}",
                class.name()
            ),
            _ => assert_eq!(
                client_side.cancelled,
                server_side.rejected,
                "{}",
                class.name()
            ),
        }
    }
    assert!(stats.completed > 0, "soak must execute queries: {stats:?}");
    if policy == Backpressure::Shed {
        // The 200 µs deadlines under a saturated 4-slot queue guarantee
        // expiries; expiry-aware shedding must be observed doing its job.
        assert!(stats.expired > 0, "no deadline ever fired: {stats:?}");
    }
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_mixed_priority_storm_shed_drain() {
    hammer_qos(Backpressure::Shed, ShutdownMode::Drain, stress_secs());
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_mixed_priority_storm_shed_cancel() {
    hammer_qos(Backpressure::Shed, ShutdownMode::Cancel, stress_secs());
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_mixed_priority_storm_reject_cancel() {
    hammer_qos(Backpressure::Reject, ShutdownMode::Cancel, stress_secs());
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_mixed_priority_storm_block_drain() {
    hammer_qos(Backpressure::Block, ShutdownMode::Drain, stress_secs());
}

/// Chaos soak: the full mixed-priority storm runs under an aggressive
/// fault schedule — per-channel drops, periodic outages, engine
/// panics, and worker kills — with a deep retry ladder that fails
/// closed, and shutdown lands mid-storm. The server must keep
/// serving across ≥ 2 worker kills, lose zero tickets, and keep the
/// conservation invariant exact in every snapshot it takes. Submitters
/// do block mid-`submit` under `Block` backpressure, but the soak
/// rarely takes a snapshot inside that wait, so it does not reliably
/// check conservation there: the deterministic cover of that window is
/// `block_wait_keeps_every_snapshot_conserved` in
/// `crates/serve/tests/server.rs`.
fn hammer_chaos(mode: ShutdownMode, secs: f64) {
    let plan = FaultPlan::new(0xC4405)
        .channel(0, ChannelFaults::NONE.drop_rate(60))
        .channel(1, ChannelFaults::NONE.outage(32, 3))
        .panic_rate(4)
        .kill_at(50)
        .kill_at(150)
        .kill_at(400);
    let server = Server::spawn_with_faults(
        small_env(),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(4)
            .backpressure(Backpressure::Block)
            .retry(
                RetryPolicy::new()
                    .max_attempts(6)
                    .base(Duration::from_micros(50))
                    .cap(Duration::from_micros(500)),
            ),
        plan,
    );
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let classes = [Priority::Interactive, Priority::Batch, Priority::Background];
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let server = &server;
                let class = classes[t % classes.len()];
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut kept = Vec::new();
                    let mut i = 0u64;
                    loop {
                        let p = Point::new(
                            ((t as u64 * 7919 + i * 127) % 1000) as f64,
                            ((t as u64 * 104_729 + i * 211) % 1000) as f64,
                        );
                        i += 1;
                        let qos = match i % 5 {
                            0 => Qos::new()
                                .priority(class)
                                .deadline_in(Duration::from_millis(2)),
                            1 => Qos::new()
                                .priority(class)
                                .deadline_in(Duration::from_secs(30)),
                            _ => Qos::new().priority(class),
                        };
                        match server.submit_with(Query::tnn(p), qos) {
                            Ok(ticket) => {
                                ok += 1;
                                match i % 11 {
                                    0 => {
                                        // Delivered outcomes are either a
                                        // real answer or one of the
                                        // fault-path errors — never a
                                        // hang, never anything else.
                                        match ticket.wait() {
                                            Ok(_)
                                            | Err(TnnError::Internal)
                                            | Err(TnnError::DeadlineExceeded)
                                            | Err(TnnError::ChannelUnavailable { .. })
                                            | Err(TnnError::Cancelled) => {}
                                            Err(other) => {
                                                panic!("unexpected outcome {other:?}")
                                            }
                                        }
                                    }
                                    1 => kept.push(ticket),
                                    2 => {
                                        let _ = ticket.poll();
                                    }
                                    _ => drop(ticket),
                                }
                            }
                            Err(TnnError::Cancelled) => break ok,
                            Err(other) => panic!("unexpected submit error {other:?}"),
                        }
                        // The full invariant must hold in *every*
                        // mid-storm snapshot, kills and respawns
                        // included.
                        if i.is_multiple_of(64) {
                            let snap = server.stats();
                            assert!(snap.conserved(), "mid-storm violation: {snap:?}");
                        }
                    }
                })
            })
            .collect();
        // Record violations instead of asserting inline: shutdown must
        // still run, or the blocked submitters would spin forever and
        // the test would hang rather than fail.
        let mut violation = None;
        while Instant::now() < deadline && violation.is_none() {
            std::thread::sleep(Duration::from_millis(10));
            let snap = server.stats();
            if !snap.conserved() {
                violation = Some(format!("{snap:?}"));
            }
        }
        server.shutdown(mode);
        let client_ok: u64 = handles
            .into_iter()
            .map(|h| h.join().expect("submitter must not die: deadlock/panic"))
            .sum();
        assert!(
            violation.is_none(),
            "observer snapshot violation: {}",
            violation.unwrap()
        );
        let stats = server.stats();
        assert_eq!(client_ok, stats.accepted, "{mode:?}");
        stats
    });
    assert!(stats.conserved(), "conservation violated: {stats:?}");
    assert_eq!((stats.queued, stats.in_flight), (0, 0), "{mode:?}");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.shed + stats.cancelled + stats.expired,
        "lost tickets: {stats:?}"
    );
    assert!(stats.completed > 0, "chaos soak must serve: {stats:?}");
    assert!(
        stats.worker_restarts >= 2,
        "the storm must outlive ≥ 2 worker kills: {stats:?}"
    );
    assert!(
        stats.retried > 0,
        "the outage schedule never fired: {stats:?}"
    );
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_chaos_storm_drain() {
    hammer_chaos(ShutdownMode::Drain, stress_secs());
}

#[test]
#[ignore = "stress/soak — run by the stress CI job"]
fn soak_chaos_storm_cancel() {
    hammer_chaos(ShutdownMode::Cancel, stress_secs());
}

/// Bounded chaos smoke — deterministic enough for tier-1: a fixed 300-
/// submission burst through a faulted 2-worker server with two scheduled
/// worker kills, periodic outages, and one scheduled panic. Every ticket
/// resolves (an answer, or `Internal` for the killed jobs), both kills
/// respawn, and no ticket is lost.
#[test]
fn chaos_smoke_bounded_storm_survives_kills_and_outages() {
    let plan = FaultPlan::new(0x57081)
        .channel(0, ChannelFaults::NONE.drop_rate(80))
        .channel(1, ChannelFaults::NONE.outage(16, 2))
        .panic_at(200)
        .kill_at(40)
        .kill_at(120);
    let server = Server::spawn_with_faults(
        small_env(),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(8)
            .backpressure(Backpressure::Block)
            .retry(
                RetryPolicy::new()
                    .max_attempts(6)
                    .base(Duration::from_micros(50))
                    .cap(Duration::from_micros(500)),
            ),
        plan,
    );
    let tickets: Vec<_> = std::thread::scope(|scope| {
        let submit = |t: u64| {
            let server = &server;
            scope.spawn(move || {
                (0..150u64)
                    .map(|i| {
                        let p = Point::new(
                            ((t * 7919 + i * 127) % 1000) as f64,
                            ((t * 104_729 + i * 211) % 1000) as f64,
                        );
                        server.submit(Query::tnn(p)).expect("Block never refuses")
                    })
                    .collect::<Vec<_>>()
            })
        };
        let a = submit(1);
        let b = submit(2);
        let mut tickets = a.join().unwrap();
        tickets.extend(b.join().unwrap());
        tickets
    });
    let mut answered = 0u64;
    let mut internal = 0u64;
    for ticket in &tickets {
        match ticket.wait() {
            Ok(_) => answered += 1,
            Err(TnnError::Internal) => internal += 1,
            Err(other) => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(answered + internal, 300, "every ticket resolves");
    // Two kills abandon at most a micro-batch each (no more than the 8
    // queued jobs of the one class in use), plus the panicked query;
    // everything else gets a real answer.
    assert!(
        answered >= 300 - 2 * 8 - 1,
        "too many casualties: {answered}"
    );
    let faults = server.fault_stats().unwrap();
    assert_eq!(faults.worker_kills, 2);
    assert!(faults.outages > 0);
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_restarts, 2, "both kills respawned");
    assert_eq!(stats.completed, 300);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.shed + stats.cancelled,
        "lost tickets: {stats:?}"
    );
    assert!(stats.conserved(), "conservation violated: {stats:?}");
}

/// No priority inversion at shutdown — deterministic, so it runs in
/// tier-1 too (not only the soak job). A mixed-class set queued on one
/// worker before its next pop is popped in strict priority order;
/// whichever mode lands, the set of jobs that *completed* must be a
/// prefix of that order: a completed background job implies every
/// interactive and batch job completed, and a completed batch job
/// implies every interactive one did. Shutdown lands once the worker has
/// served one job past the blocker, so under `Cancel` it has popped a
/// micro-batch and the prefix is not empty.
#[test]
fn no_priority_inversion_at_drain_or_cancel() {
    for mode in [ShutdownMode::Drain, ShutdownMode::Cancel] {
        let class_of = |i: usize| match i / 20 {
            0 => Qos::interactive(),
            1 => Qos::batch(),
            _ => Qos::background(),
        };
        let (server, tickets) =
            queue_behind_a_busy_worker(&small_env(), ServeConfig::new(), |server| {
                (0..60)
                    .map(|i| {
                        let p = Point::new(((i * 89) % 997) as f64, ((i * 139) % 983) as f64);
                        server.submit_with(Query::tnn(p), class_of(i))
                    })
                    .collect::<Vec<_>>()
            });
        while server.stats().completed < 2 {
            std::thread::yield_now();
        }
        let stats = server.shutdown(mode);
        assert!(stats.conserved());
        let mut completed = [0usize; 3];
        let mut cancelled = [0usize; 3];
        for (i, ticket) in tickets.into_iter().enumerate() {
            match ticket
                .unwrap()
                .poll()
                .expect("shutdown resolves everything")
            {
                Ok(_) => completed[i / 20] += 1,
                Err(TnnError::Cancelled) => cancelled[i / 20] += 1,
                Err(other) => panic!("unexpected outcome {other:?}"),
            }
        }
        if completed[2] > 0 {
            assert_eq!(
                (cancelled[0], cancelled[1]),
                (0, 0),
                "a background job ran while higher classes were cancelled ({mode:?})"
            );
        }
        if completed[1] > 0 {
            assert_eq!(
                cancelled[0], 0,
                "a batch job ran while interactive work was cancelled ({mode:?})"
            );
        }
        if mode == ShutdownMode::Drain {
            assert_eq!(completed, [20, 20, 20], "drain completes everything");
        }
    }
}
