//! Behavioural tests for serving under data churn: environment swaps
//! must kill stale cache entries (epoch-stamped keys), post-swap
//! answers must match a fresh engine over the new data, and identical
//! queued misses must run the engine once.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "R2 (fail-closed) covers the crate's non-test code only"
)]

use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Query, TnnError};
use tnn_geom::{Point, Rect};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{ServeConfig, Server, ShutdownMode};

fn env_seeded(k: usize, seed: u64) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..k)
        .map(|i| {
            let pts = tnn_datasets::uniform_points(150 + 20 * i, &region, seed + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    let phases: Vec<u64> = (0..k as u64).map(|i| i * 5 + 1).collect();
    MultiChannelEnv::new(trees, params, &phases)
}

/// New trees for every channel of `env` — same shape, next epoch.
fn advanced(env: &MultiChannelEnv, seed: u64) -> MultiChannelEnv {
    let params = *env.channel(0).params();
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let trees: Vec<Arc<RTree>> = (0..env.len())
        .map(|i| {
            let pts = tnn_datasets::uniform_points(130 + 10 * i, &region, seed + i as u64);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    env.advance(trees)
}

/// Swapping the environment must make every pre-swap cache entry miss:
/// a query primed before the swap runs fresh afterwards and returns the
/// new data's answer, never the cached pre-swap one.
#[test]
fn env_swap_invalidates_stale_cache_entries() {
    let env = env_seeded(2, 0xC0FFEE);
    let server = Server::spawn(env.clone(), ServeConfig::new().workers(1));
    let query = Query::tnn(Point::new(481.0, 522.0)).issued_at(9);

    // Prime the cache and prove it hits.
    let old_answer = server.submit(query.clone()).unwrap().wait().unwrap();
    let hit = server.submit(query.clone()).unwrap().wait().unwrap();
    assert_eq!(hit, old_answer);
    assert_eq!(server.stats().cache_hits, 1);

    let next = advanced(&env, 0xD00F);
    server.swap_env(next.clone()).unwrap();
    assert_eq!(server.engine().env().epoch(), env.epoch() + 1);

    // Same query bytes, new epoch: the old entry must not be served.
    let fresh = server.submit(query.clone()).unwrap().wait().unwrap();
    let want = server.engine().run(&query).unwrap();
    assert_eq!(fresh, want, "post-swap answer must come from the new data");
    assert_ne!(
        fresh.route, old_answer.route,
        "swapped-in data was chosen to change this answer"
    );
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_hits, 1, "no hit may cross the swap");
    assert_eq!(stats.cache_misses, 2);
    assert!(stats.conserved(), "{stats:?}");
}

/// After a swap, the cache works normally at the new epoch: a repeat
/// query hits, and the hit is byte-identical to a fresh engine run over
/// the swapped-in environment.
#[test]
fn post_swap_cache_hit_equals_fresh_run() {
    let env = env_seeded(3, 0xAB1E);
    let server = Server::spawn(env.clone(), ServeConfig::new().workers(1));
    let next = advanced(&env, 0x5EED);
    server.swap_env(next.clone()).unwrap();

    let query = Query::chain(Point::new(40.0, 900.0)).issued_at(3);
    let first = server.submit(query.clone()).unwrap().wait().unwrap();
    let hit = server.submit(query.clone()).unwrap().wait().unwrap();
    let fresh = tnn_core::QueryEngine::new(next).run(&query).unwrap();
    assert_eq!(first, fresh);
    assert_eq!(hit, fresh, "post-swap hit is byte-identical to fresh run");
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    assert!(stats.conserved(), "{stats:?}");
}

/// A swap cannot change the environment's shape, and a shut-down server
/// refuses swaps outright.
#[test]
fn swap_env_rejects_shape_changes() {
    let server = Server::spawn(env_seeded(2, 0xFEED), ServeConfig::new().workers(1));
    assert_eq!(
        server.swap_env(env_seeded(3, 0xFEED)),
        Err(TnnError::WrongChannelCount {
            needed: 2,
            available: 3,
        })
    );
    server.shutdown(ShutdownMode::Drain);
}

/// Identical queries admitted in one batch run the engine once on a
/// one-worker server: all eight miss the admission probe (none has run
/// yet), the worker's first run fills the cache, and the seven
/// duplicates queued behind it hit the dequeue probe — byte-identical
/// answers, one engine run.
#[test]
fn identical_queued_misses_run_the_engine_once() {
    let env = env_seeded(2, 0xF11E);
    let server = Server::spawn(env.clone(), ServeConfig::new().workers(1));
    let query = Query::order_free(Point::new(250.0, 750.0)).issued_at(5);
    let want = server.engine().run(&query).unwrap();

    // One batch, one queue-lock acquisition: all eight are admitted
    // before the worker can run any of them.
    let tickets = server.submit_batch(std::iter::repeat_n(query, 8));
    for ticket in tickets {
        let outcome = ticket.unwrap().wait().unwrap();
        assert_eq!(outcome, want, "every duplicate gets the same bytes");
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.cache_misses, 1, "one engine run for eight arrivals");
    assert_eq!(stats.cache_hits, 7, "{stats:?}");
    assert_eq!(stats.completed, 8);
    assert!(stats.conserved(), "{stats:?}");
}
