//! Routes at k = 2, 3 and 4, pinned bit for bit.
//!
//! The exact chain oracle, the heap ≡ linear gate and the shard ≡ engine
//! gate all reach the same route join, so none of them can see a bug
//! inside it. This test pins its answers independently: a fixed set
//! of queries over clustered CITY-like channels, each recorded as its
//! filter candidate counts, its route's object ids (with channels) and
//! the exact bits of its total in `tests/golden/chain_routes.txt`. The
//! queries cover TNN, order-free and round trip at k = 2, Hybrid-NN TNN,
//! order-free and round trip at k = 3, and a Double-NN chain at k = 4.
//! Any change to the join that moves a route or a single bit of a total
//! fails here.

use std::fmt::Write as _;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, Query, QueryEngine};
use tnn_datasets::{city_like, paper_region};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};

const GOLDEN: &str = include_str!("golden/chain_routes.txt");

/// Query points per query kind.
const QUERIES: usize = 24;

/// Seed of channel 0's dataset; channel `c` uses `DATA_SEED + c`.
const DATA_SEED: u64 = 0x7A11_0000;

fn city_env(k: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let trees = (0..k as u64)
        .map(|c| {
            let pts = city_like(DATA_SEED + c);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, &vec![0; k])
}

/// Query points spread over the region by an additive-recurrence
/// (golden-ratio) sequence: deterministic, and they land both inside the
/// clusters and in the voids between them.
fn query_points() -> Vec<Point> {
    let region = paper_region();
    let (a1, a2) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_3);
    (1..=QUERIES)
        .map(|i| {
            let (u, v) = ((0.5 + a1 * i as f64) % 1.0, (0.5 + a2 * i as f64) % 1.0);
            Point::new(
                region.min.x + u * region.width(),
                region.min.y + v * region.height(),
            )
        })
        .collect()
}

/// A labelled query kind: its label, channel count and query builder.
type Run = (&'static str, usize, fn(Point) -> Query);

fn render() -> String {
    let points = query_points();
    let mut out = String::new();
    let runs: [Run; 7] = [
        ("tnn_k2", 2, Query::tnn),
        ("order_free_k2", 2, Query::order_free),
        ("round_trip_k2", 2, Query::round_trip),
        ("hybrid_nn_k3", 3, |p| {
            Query::tnn(p).algorithm(Algorithm::HybridNn)
        }),
        ("order_free_k3", 3, Query::order_free),
        ("round_trip_k3", 3, Query::round_trip),
        ("chain_k4", 4, |p| {
            Query::tnn(p).algorithm(Algorithm::DoubleNn)
        }),
    ];
    for (label, k, make) in runs {
        let engine = QueryEngine::new(city_env(k));
        let mut scratch = engine.scratch();
        for (qi, &p) in points.iter().enumerate() {
            let outcome = engine
                .run_with(&make(p), &mut scratch)
                .expect("valid query over non-empty channels");
            let total = outcome.total_dist.expect("exact algorithms never fail");
            let stops: Vec<String> = outcome
                .route
                .iter()
                .map(|s| format!("{}@{}", s.object.0, s.channel))
                .collect();
            writeln!(
                out,
                "{label} q{qi:02} candidates={:?} route={} total={:#018x}",
                outcome.candidates,
                stops.join(","),
                total.to_bits()
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn chain_routes_match_the_golden_file() {
    let rendered = render();
    if rendered != GOLDEN {
        let first_diff = rendered
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "routes drifted from tests/golden/chain_routes.txt at line {}:\n\
             rendered: {:?}\n  golden: {:?}\n--- full rendering ---\n{rendered}",
            first_diff + 1,
            rendered.lines().nth(first_diff),
            GOLDEN.lines().nth(first_diff),
        );
    }
}
