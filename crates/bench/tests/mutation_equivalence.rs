//! The acceptance gate of mutable environments: **updated ≡ rebuilt**.
//!
//! For arbitrary interleaved insert/delete schedules applied through
//! [`DeltaOverlay`], the materialized tree must be **byte-identical**
//! to a tree rebuilt from scratch over the same live set — and every
//! query outcome over the updated environment must match the rebuilt
//! environment exactly, across all four algorithms and k ∈ {2, 3, 4}
//! channels. Degenerate schedules
//! (delete-to-empty channels) must degrade to the engine's recoverable
//! `EmptyChannel` error, identically on both sides.
//!
//! The second gate pins cache identity across epochs: after an
//! environment swap, a served answer (cold or cached) must be
//! byte-identical to a fresh engine run over the new environment —
//! pre-swap cache entries can never leak through.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, Query, QueryEngine};
use tnn_geom::Point;
use tnn_rtree::{DeltaOverlay, ObjectId, PackingAlgorithm, RTree, RTreeParams};
use tnn_serve::{ServeConfig, Server, ShutdownMode};

/// One edit against a channel. Ids are drawn from a small range on
/// purpose: schedules collide with base objects (overwrites), with
/// their own inserts (upserts), and delete ids that never existed.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Point),
    Delete(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    ((0u32..2), (0u32..48), (0.0f64..1000.0, 0.0f64..1000.0)).prop_map(|(kind, id, (x, y))| {
        if kind == 0 {
            Op::Insert(id, Point::new(x, y))
        } else {
            Op::Delete(id)
        }
    })
}

fn channel_strategy() -> impl Strategy<Value = (Vec<Point>, Vec<Op>)> {
    (
        prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)),
            1..24,
        ),
        prop::collection::vec(op_strategy(), 0..32),
    )
}

fn params() -> BroadcastParams {
    BroadcastParams::new(64)
}

fn rtree_params() -> RTreeParams {
    params().rtree_params()
}

/// Applies `schedule` through a [`DeltaOverlay`] over `base` and — in
/// parallel — through a plain reference map (the executable spec of
/// what the schedule's net effect should be).
fn apply_schedule(base: &[Point], schedule: &[Op]) -> (DeltaOverlay, BTreeMap<u32, Point>) {
    let base_tree = Arc::new(RTree::build(base, rtree_params(), PackingAlgorithm::Str).unwrap());
    let mut overlay = DeltaOverlay::new(base_tree);
    let mut reference: BTreeMap<u32, Point> = base
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as u32, p))
        .collect();
    for op in schedule {
        match *op {
            Op::Insert(id, p) => {
                overlay.insert(ObjectId(id), p).unwrap();
                reference.insert(id, p);
            }
            Op::Delete(id) => {
                let was_live = overlay.delete(ObjectId(id));
                assert_eq!(was_live, reference.remove(&id).is_some());
            }
        }
    }
    assert_eq!(overlay.len(), reference.len());
    (overlay, reference)
}

/// The from-scratch rebuild of `reference`, preserving original ids.
fn rebuild(reference: &BTreeMap<u32, Point>) -> RTree {
    if reference.is_empty() {
        return RTree::empty(rtree_params());
    }
    let pairs: Vec<(Point, ObjectId)> = reference
        .iter()
        .map(|(&id, &p)| (p, ObjectId(id)))
        .collect();
    RTree::build_with_ids(&pairs, rtree_params(), PackingAlgorithm::Str).unwrap()
}

/// A tree over `points` in the given order with dense ids, what a cycle
/// cut assigns when it renumbers the (canonically ordered) live set.
fn dense_tree(points: &[Point]) -> RTree {
    if points.is_empty() {
        RTree::empty(rtree_params())
    } else {
        RTree::build(points, rtree_params(), PackingAlgorithm::Str).unwrap()
    }
}

/// Every TNN algorithm plus the two variant kinds over one point.
fn query_mix(p: Point) -> Vec<Query> {
    let mut queries: Vec<Query> = Algorithm::ALL
        .iter()
        .map(|&alg| Query::tnn(p).algorithm(alg).issued_at(7))
        .collect();
    queries.push(Query::order_free(p).issued_at(7));
    queries.push(Query::round_trip(p).issued_at(7));
    queries
}

fn assert_envs_answer_identically(
    updated: &MultiChannelEnv,
    rebuilt: &MultiChannelEnv,
    queries: &[Query],
) {
    let updated_engine = QueryEngine::new(updated.clone());
    let rebuilt_engine = QueryEngine::new(rebuilt.clone());
    for query in queries {
        assert_eq!(
            updated_engine.run(query),
            rebuilt_engine.run(query),
            "updated and rebuilt environments diverged on {query:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Updated ≡ rebuilt, end to end: materialized overlays are
    /// byte-identical to from-scratch builds, and the environments over
    /// them answer every query identically (answers *and* errors).
    #[test]
    fn interleaved_schedules_equal_rebuild_from_scratch(
        channels in prop::collection::vec(channel_strategy(), 2..5),
        (qx, qy) in (0.0f64..1000.0, 0.0f64..1000.0),
    ) {
        let mut updated_trees = Vec::new();
        let mut rebuilt_trees = Vec::new();
        for (base, schedule) in &channels {
            let (overlay, reference) = apply_schedule(base, schedule);
            let updated = overlay.materialize().unwrap();
            let rebuilt = rebuild(&reference);
            prop_assert_eq!(
                updated.content_fingerprint(),
                rebuilt.content_fingerprint(),
                "live-set fingerprints diverged"
            );
            prop_assert_eq!(
                format!("{updated:?}"),
                format!("{rebuilt:?}"),
                "materialized tree is not byte-identical to the rebuild"
            );
            // Channel trees renumber the canonical live set densely,
            // derived through two independent paths: the overlay's
            // merged view vs the reference map.
            let from_overlay: Vec<Point> =
                overlay.live_points().iter().map(|&(p, _)| p).collect();
            let from_reference: Vec<Point> = reference.values().copied().collect();
            updated_trees.push(Arc::new(dense_tree(&from_overlay)));
            rebuilt_trees.push(Arc::new(dense_tree(&from_reference)));
        }
        let phases: Vec<u64> = (0..channels.len() as u64).map(|i| i * 5 + 1).collect();
        let updated_env = MultiChannelEnv::new(updated_trees, params(), &phases);
        let rebuilt_env = MultiChannelEnv::new(rebuilt_trees, params(), &phases);
        // Equal content ⇒ equal identity: caches keyed on the
        // fingerprint treat the two environments as the same data.
        prop_assert_eq!(updated_env.fingerprint(), rebuilt_env.fingerprint());
        let queries = query_mix(Point::new(qx, qy));
        assert_envs_answer_identically(&updated_env, &rebuilt_env, &queries);
    }

    /// Cache identity across epochs: prime a caching server, swap in a
    /// mutated environment, and every post-swap answer — including a
    /// repeat that hits the new epoch's cache — must be byte-identical
    /// to a fresh engine run over the swapped-in environment.
    #[test]
    fn post_swap_answers_equal_fresh_runs(
        channels in prop::collection::vec(channel_strategy(), 2..4),
        (qx, qy) in (0.0f64..1000.0, 0.0f64..1000.0),
    ) {
        let phases: Vec<u64> = (0..channels.len() as u64).map(|i| i * 5 + 1).collect();
        let base_env = MultiChannelEnv::new(
            channels
                .iter()
                .map(|(base, _)| {
                    Arc::new(RTree::build(base, rtree_params(), PackingAlgorithm::Str).unwrap())
                })
                .collect(),
            params(),
            &phases,
        );
        let next_env = base_env.advance(
            channels
                .iter()
                .map(|(base, schedule)| {
                    let (overlay, _) = apply_schedule(base, schedule);
                    let live: Vec<Point> =
                        overlay.live_points().iter().map(|&(p, _)| p).collect();
                    Arc::new(dense_tree(&live))
                })
                .collect(),
        );
        prop_assume!(next_env.channels().iter().all(|c| c.tree().num_objects() > 0));

        let server = Server::spawn(base_env.clone(), ServeConfig::new().workers(1));
        let fresh = QueryEngine::new(next_env.clone());
        let queries = query_mix(Point::new(qx, qy));
        // Prime the cache at the base epoch...
        for query in &queries {
            server.submit(query.clone()).unwrap().wait().ok();
        }
        server.swap_env(next_env).unwrap();
        prop_assert_eq!(server.engine().env().epoch(), base_env.epoch() + 1);
        // ...then every post-swap submission (first a cold run at the
        // new epoch, then a cached repeat) must equal the fresh engine.
        for round in 0..2 {
            for query in &queries {
                let got = server.submit(query.clone()).unwrap().wait();
                let want = fresh.run(query);
                prop_assert_eq!(
                    got,
                    want,
                    "round {} diverged from the fresh engine on {:?}",
                    round,
                    query
                );
            }
        }
        let stats = server.shutdown(ShutdownMode::Drain);
        prop_assert!(stats.conserved(), "{stats:?}");
    }
}

/// A materialized overlay keeps its object ids, so after an insert
/// under a fresh id they are no longer `0..n`. Cutting a cycle over
/// that tree must broadcast it exactly like the dense rebuild of the
/// same live set: the same pages, arrival times and answer points, with
/// each answer's id the live set's id at the dense answer's rank.
#[test]
fn sparse_id_cycle_cut_equals_the_dense_rebuild() {
    let base: Vec<Point> = (0..100)
        .map(|i| Point::new((i * 37 % 101) as f64 * 9.0, (i * 61 % 97) as f64 * 9.0))
        .collect();
    let other: Vec<Point> = (0..80)
        .map(|i| Point::new((i * 13 % 83) as f64 * 11.0, (i * 29 % 79) as f64 * 11.0))
        .collect();
    let base_tree = Arc::new(dense_tree(&base));
    let mut overlay = DeltaOverlay::new(Arc::clone(&base_tree));
    assert!(overlay.delete(ObjectId(42)));
    let fresh = Point::new(400.5, 400.5);
    overlay.insert(ObjectId(100), fresh).unwrap();
    let live = overlay.live_points();

    let phases = [3, 8];
    let env = MultiChannelEnv::new(
        vec![base_tree, Arc::new(dense_tree(&other))],
        params(),
        &phases,
    );
    let sparse = env.advance_channel(0, Arc::new(overlay.materialize().unwrap()));
    let dense_points: Vec<Point> = live.iter().map(|&(p, _)| p).collect();
    let dense = env.advance_channel(0, Arc::new(dense_tree(&dense_points)));

    let sparse_engine = QueryEngine::new(sparse);
    let dense_engine = QueryEngine::new(dense);
    let mut saw_fresh = false;
    for p in [
        fresh,
        Point::new(0.0, 0.0),
        Point::new(450.0, 120.0),
        Point::new(880.0, 870.0),
    ] {
        for query in query_mix(p) {
            let got = sparse_engine.run(&query).unwrap();
            let want = dense_engine.run(&query).unwrap();
            assert_eq!(got.channels, want.channels, "pages and times for {query:?}");
            assert_eq!(got.completed_at, want.completed_at);
            assert_eq!(got.total_dist, want.total_dist);
            assert_eq!(got.route.len(), want.route.len());
            for (g, w) in got.route.iter().zip(&want.route) {
                assert_eq!((g.point, g.channel), (w.point, w.channel));
                if w.channel == 0 {
                    assert_eq!(g.object, live[w.object.index()].1);
                    saw_fresh |= g.object == ObjectId(100);
                } else {
                    assert_eq!(g.object, w.object);
                }
            }
        }
    }
    assert!(
        saw_fresh,
        "some query retrieves the freshly inserted object"
    );
}
