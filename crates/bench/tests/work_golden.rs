//! Host-independent work counters, pinned per query pool.
//!
//! Wall time on a shared host is too noisy to gate a regression, so this
//! test pins the work itself: for two fixed query pools, the sums of the
//! paper's page counters (access time, tune-in, index node visits), of the
//! estimate searches' prune hits, the largest peak queue, the sum of the
//! filter candidates, of the route join's two work counters
//! (candidate evaluations and grid cells tested) and of the estimate
//! searches' exact `MinTransDist` evaluations are written to
//! `tests/golden/work.txt` and byte-compared. The first two pools mirror
//! the benchmark's two engine workloads at a debug-friendly size:
//! Hybrid-NN TNN over three clustered CITY-like channels, and over two
//! uniform channels. Smaller pools over the same uniform channels then
//! pin the other three algorithms and Hybrid-NN under the paper's
//! dynamic ANN threshold (eq. 4, `factor = 1`); the Approximate-TNN line
//! also counts the queries left without a route. Smaller pools over the
//! clustered channels pin the `k = 3` join under Window-Based and
//! Double-NN and for order-free and round-trip queries, and a pool over
//! four clustered channels pins the `k = 4` join.
//!
//! A change that moves any count fails here and prints the full
//! rendering; a change that means to move one updates the file in the
//! same commit and explains the diff.

use std::fmt::Write as _;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, AnnMode, Query, QueryEngine, QueryKind};
use tnn_datasets::{city_like, paper_region, uniform_points};
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};

const GOLDEN: &str = include_str!("golden/work.txt");

/// Queries per pool of the two benchmark-shaped pools.
const QUERIES: usize = 256;

/// Queries per pool of the per-algorithm and ANN lines.
const SMALL_QUERIES: usize = 64;

/// Seed of channel 0's dataset, the benchmark's; channel `c` uses
/// `DATA_SEED + c`.
const DATA_SEED: u64 = 0x7A11_0000;

fn env(points: Vec<Vec<Point>>) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let k = points.len();
    let trees = points
        .iter()
        .map(|pts| {
            Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, &vec![0; k])
}

/// SplitMix64, for the pool's points and phases.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` copies of `template` at uniform points of the region, each issued
/// at a random phase of every channel's cycle.
fn pool(env: &MultiChannelEnv, seed: u64, n: usize, template: &Query) -> Vec<Query> {
    let region = paper_region();
    let mut rng = Mix(seed);
    (0..n)
        .map(|_| {
            let p = Point::new(
                region.min.x + rng.unit() * region.width(),
                region.min.y + rng.unit() * region.height(),
            );
            let phases: Vec<u64> = env
                .channels()
                .iter()
                .map(|c| rng.next() % c.layout().cycle_len().max(1))
                .collect();
            template.clone().at(p).phases(&phases)
        })
        .collect()
}

/// One line of per-pool sums over `n` queries shaped like `template`.
fn render_pool(
    out: &mut String,
    label: &str,
    env: MultiChannelEnv,
    seed: u64,
    n: usize,
    template: &Query,
) {
    let queries = pool(&env, seed, n, template);
    let engine = QueryEngine::new(env);
    // A new engine's pool is empty, so this scratch is fresh and its join
    // and estimate counters sum over this pool alone.
    let mut scratch = engine.scratch();
    let (mut access, mut tune_in, mut node_visits) = (0, 0, 0);
    let (mut prune_hits, mut peak_queue, mut candidates) = (0, 0, 0);
    let mut no_route = 0;
    let exact = template.kind() != QueryKind::Tnn(Algorithm::ApproximateTnn);
    for query in &queries {
        let outcome = engine
            .run_with(query, &mut scratch)
            .expect("valid query over non-empty channels");
        assert!(
            !exact || !outcome.failed(),
            "{label}: an exact algorithm never fails"
        );
        no_route += usize::from(outcome.failed());
        access += outcome.access_time();
        tune_in += outcome.tune_in();
        node_visits += outcome.node_visits();
        prune_hits += outcome.prune_hits();
        peak_queue = peak_queue.max(outcome.peak_queue());
        candidates += outcome.total_candidates();
    }
    write!(
        out,
        "{label} queries={} access_pages={access} tune_in_pages={tune_in} \
         node_visits={node_visits} prune_hits={prune_hits} peak_queue_max={peak_queue} \
         candidates={candidates} join_evaluations={} \
         grid_cells_tested={} transitive_lower_bounds={}",
        queries.len(),
        scratch.join().chain_evaluations(),
        scratch.join().grid_cells_tested(),
        scratch.transitive_lower_bounds(),
    )
    .unwrap();
    if !exact {
        write!(out, " no_route={no_route}").unwrap();
    }
    out.push('\n');
}

fn render() -> String {
    let mut out = String::new();
    let hybrid = Query::tnn(Point::ORIGIN).algorithm(Algorithm::HybridNn);
    let city = env((0..3).map(|c| city_like(DATA_SEED + c)).collect());
    render_pool(&mut out, "city_k3", city.clone(), 1, QUERIES, &hybrid);
    let uniform = env((0..2)
        .map(|c| uniform_points(10_000, &paper_region(), DATA_SEED + c))
        .collect());
    render_pool(&mut out, "uniform_k2", uniform.clone(), 2, QUERIES, &hybrid);
    // One shared seed, so the small pools ask the same questions and
    // their lines compare algorithm against algorithm.
    for (label, template) in [
        (
            "uniform_k2/window_based",
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::WindowBased),
        ),
        (
            "uniform_k2/double_nn",
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
        ),
        (
            "uniform_k2/approximate_tnn",
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::ApproximateTnn),
        ),
        (
            "uniform_k2/hybrid_nn_dynamic_1",
            hybrid.clone().ann(AnnMode::Dynamic { factor: 1.0 }),
        ),
    ] {
        render_pool(
            &mut out,
            label,
            uniform.clone(),
            3,
            SMALL_QUERIES,
            &template,
        );
    }
    // The other kinds of query over the clustered channels, again on one
    // shared seed: the k-ary join's work at k = 3 under each algorithm
    // and objective.
    for (label, template) in [
        (
            "city_k3/window_based",
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::WindowBased),
        ),
        (
            "city_k3/double_nn",
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
        ),
        ("city_k3/order_free", Query::order_free(Point::ORIGIN)),
        ("city_k3/round_trip", Query::round_trip(Point::ORIGIN)),
    ] {
        render_pool(&mut out, label, city.clone(), 4, SMALL_QUERIES, &template);
    }
    let city_k4 = env((0..4).map(|c| city_like(DATA_SEED + c)).collect());
    render_pool(&mut out, "city_k4", city_k4, 5, SMALL_QUERIES, &hybrid);
    out
}

#[test]
fn work_counters_match_the_golden_file() {
    let rendered = render();
    assert!(
        rendered == GOLDEN,
        "work counters drifted from tests/golden/work.txt\n\
         --- rendered ---\n{rendered}--- golden ---\n{GOLDEN}"
    );
}
