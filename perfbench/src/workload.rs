//! What the three workloads share: their sizes, seeded inputs, the set-up
//! of a front-end, the update batch, the exact oracle, and the served and
//! sharded replays that check serving against the embedded engine.

use crate::rng::{stream, SplitMix64};
use crate::spans::Tracer;
use std::sync::Arc;
use std::time::Instant;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{exact_chain_tnn, exact_tnn, Algorithm, Query, QueryEngine, QueryOutcome, TnnError};
use tnn_geom::Point;
use tnn_rtree::{DeltaOverlay, ObjectId, PackingAlgorithm, RTree};
use tnn_serve::{ServeConfig, Server, ShutdownMode};
use tnn_shard::{ShardConfig, ShardRouter};

/// Broadcast page capacity of every workload (the paper's default).
pub const PAGE: usize = 64;

/// Seed of channel 0's dataset; channel `c` uses `DATA_SEED + c`.
pub const DATA_SEED: u64 = 0x7A11_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniformK2,
    CityK3,
    ZipfChurnK2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::UniformK2, Workload::CityK3, Workload::ZipfChurnK2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformK2 => "uniform_k2",
            Workload::CityK3 => "city_k3",
            Workload::ZipfChurnK2 => "zipf_churn_k2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. `Plan::full` is what the benchmark runs; `Plan::small`
/// keeps the same shape at test size.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Points per channel of the uniform datasets.
    pub uniform_points: usize,
    /// Distinct queries per timed pass on `uniform_k2`.
    pub uniform_pool: usize,
    /// Distinct queries per timed pass on `city_k3`.
    pub city_pool: usize,
    /// Fewest passes in a timed phase: over the query pool (embedded) or
    /// over the segment draw sets (served). The exact counters are taken
    /// over the first pass.
    pub min_passes: usize,
    /// Queries per timed round on the embedded workloads.
    pub chunk: usize,
    /// Distinct queries the Zipf draws of `zipf_churn_k2` pick from.
    pub zipf_pool: usize,
    /// Queries between two update barriers on `zipf_churn_k2`.
    pub segment: usize,
    /// Distinct segment draws on `zipf_churn_k2`; segments cycle through
    /// them, so every draw set is served once per pass.
    pub draw_sets: usize,
    /// Most tickets the served client keeps outstanding.
    pub window: usize,
    /// Queries the served client submits between two sleeps.
    pub block: usize,
    /// Front-end set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Update batches per run on the embedded workloads.
    pub update_batches: usize,
    /// Distinct update batches a run cycles through.
    pub distinct_updates: usize,
    /// Deletes (and as many inserts) per update batch.
    pub update_size: usize,
    /// Every this-many-th pool query is checked against the exact oracle.
    pub oracle_every: usize,
    /// Queries replayed through the shard router (and, on the embedded
    /// workloads, through a server).
    pub replay: usize,
}

impl Plan {
    pub fn full() -> Plan {
        Plan {
            uniform_points: 10_000,
            uniform_pool: 4_096,
            city_pool: 4_096,
            min_passes: 2,
            chunk: 16,
            zipf_pool: 2_000,
            segment: 2_000,
            draw_sets: 4,
            window: 512,
            block: 256,
            setup_reps: 31,
            update_batches: 601,
            distinct_updates: 8,
            update_size: 50,
            oracle_every: 64,
            replay: 256,
        }
    }

    pub fn small() -> Plan {
        Plan {
            uniform_points: 2_000,
            uniform_pool: 256,
            city_pool: 32,
            min_passes: 2,
            chunk: 8,
            zipf_pool: 200,
            segment: 300,
            draw_sets: 2,
            window: 64,
            block: 32,
            setup_reps: 3,
            update_batches: 3,
            distinct_updates: 2,
            update_size: 10,
            oracle_every: 8,
            replay: 24,
        }
    }
}

pub fn params() -> BroadcastParams {
    BroadcastParams::new(PAGE)
}

/// The workload's datasets, one per channel. They are fixed, as the
/// paper's are: the seed picks the query stream and the updates, not the
/// data, so runs with different seeds load the same layers equally.
pub fn generate(workload: Workload, plan: &Plan) -> Vec<Vec<Point>> {
    match workload {
        Workload::UniformK2 | Workload::ZipfChurnK2 => (0..2)
            .map(|c| {
                tnn_datasets::uniform_points(
                    plan.uniform_points,
                    &tnn_datasets::paper_region(),
                    DATA_SEED + c,
                )
            })
            .collect(),
        Workload::CityK3 => (0..3)
            .map(|c| tnn_datasets::city_like(DATA_SEED + c))
            .collect(),
    }
}

/// Generates the datasets `reps` times under `datasets.generate` spans
/// (the traced run's generator timing) and returns the last copy.
pub fn generate_timed(
    workload: Workload,
    plan: &Plan,
    reps: usize,
    tracer: &mut Tracer,
) -> Vec<Vec<Point>> {
    let mut points = Vec::new();
    for _ in 0..reps.max(1) {
        points = tracer.span("datasets.generate", || generate(workload, plan));
    }
    points
}

/// Points → packed trees → broadcast environment.
pub fn build_env(points: &[Vec<Point>], tracer: &mut Tracer) -> MultiChannelEnv {
    let params = params();
    let trees: Vec<Arc<RTree>> = points
        .iter()
        .map(|pts| {
            tracer.span("rtree.build", || {
                Arc::new(
                    RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str)
                        .expect("generated datasets are non-empty and finite"),
                )
            })
        })
        .collect();
    let phases = vec![0; trees.len()];
    tracer.span("broadcast.env_new", || {
        MultiChannelEnv::new(trees, params, &phases)
    })
}

/// Builds a front-end `reps` times under `setup` spans and returns the
/// seconds each build took with the last front-end. Earlier front-ends
/// are dropped outside the timed interval.
pub fn timed_setups<T>(
    reps: usize,
    tracer: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> T,
) -> (Vec<f64>, T) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let span = tracer.enter("setup", None, 1);
        let t0 = Instant::now();
        let front = build(tracer);
        seconds.push(t0.elapsed().as_secs_f64());
        tracer.exit(span);
        drop(last.replace(front));
    }
    (seconds, last.expect("at least one set-up ran"))
}

/// `total` timed repetitions of some side work, spread evenly over a
/// timed phase of `seconds`: the `i`-th falls due `i · seconds / total`
/// into the phase.
#[derive(Debug)]
pub struct Spread {
    total: usize,
    done: usize,
    every: f64,
    start: Instant,
}

impl Spread {
    pub fn new(total: usize, seconds: f64) -> Spread {
        Spread {
            total,
            done: 0,
            every: seconds / total.max(1) as f64,
            start: Instant::now(),
        }
    }

    /// `true` (and counted as done) when the next repetition is due.
    pub fn due(&mut self) -> bool {
        let due = self.done < self.total
            && self.start.elapsed().as_secs_f64() >= self.done as f64 * self.every;
        self.done += usize::from(due);
        due
    }

    /// The repetitions still owed, now counted as done.
    pub fn owed(&mut self) -> usize {
        let owed = self.total - self.done;
        self.done = self.total;
        owed
    }
}

/// `n` Hybrid-NN queries, uniform over the paper region, each with its
/// own random phase on every channel.
///
/// The points are stratified: the region is cut into a grid of at least
/// `n` cells and each query takes a uniform point in its own cell, with
/// the cells picked in random order. Every point is still uniform over
/// the region, but a pool covers dense and empty areas in the same
/// proportion whatever the seed, so the pool's mean cost varies far less
/// between seeds than with independent draws.
pub fn query_pool(env: &MultiChannelEnv, n: usize, rng: &mut SplitMix64) -> Vec<Query> {
    let region = tnn_datasets::paper_region();
    let cols = (n as f64).sqrt().ceil().max(1.0) as usize;
    let rows = n.div_ceil(cols).max(1);
    let mut cells: Vec<usize> = (0..cols * rows).collect();
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let (w, h) = (region.width() / cols as f64, region.height() / rows as f64);
    cells
        .into_iter()
        .take(n)
        .map(|cell| {
            let p = Point::new(
                region.min.x + ((cell % cols) as f64 + rng.unit()) * w,
                region.min.y + ((cell / cols) as f64 + rng.unit()) * h,
            );
            let phases: Vec<u64> = env
                .channels()
                .iter()
                .map(|c| rng.below(c.layout().cycle_len().max(1)))
                .collect();
            Query::tnn(p).algorithm(Algorithm::HybridNn).phases(&phases)
        })
        .collect()
}

/// One update batch on channel 0: `size` deletes and `size` inserts
/// through a `DeltaOverlay` over `base`, then the cycle cut — a dense
/// rebuild from the live positions, since a broadcast layout needs dense
/// object ids — and the epoch advance of `env` to the new tree. Returns
/// the successor environment; the caller publishes it to its front-end.
pub fn update_batch(
    env: &MultiChannelEnv,
    base: &Arc<RTree>,
    size: usize,
    rng: &mut SplitMix64,
    tracer: &mut Tracer,
) -> MultiChannelEnv {
    let base = Arc::clone(base);
    let n = base.num_objects();
    let region = tnn_datasets::paper_region();
    let delta = tracer.span("rtree.delta_edit", || {
        let mut delta = DeltaOverlay::new(base);
        let mut deleted = 0;
        while deleted < size.min(n) {
            deleted += usize::from(delta.delete(ObjectId(rng.below(n as u64) as u32)));
        }
        for j in 0..size {
            let p = Point::new(
                region.min.x + rng.unit() * region.width(),
                region.min.y + rng.unit() * region.height(),
            );
            delta
                .insert(ObjectId((n + j) as u32), p)
                .expect("generated points are finite");
        }
        delta
    });
    let tree = tracer.span("rtree.rebuild", || {
        let live: Vec<Point> = delta.live_points().into_iter().map(|(p, _)| p).collect();
        RTree::build(&live, params().rtree_params(), PackingAlgorithm::Str)
            .expect("an update batch keeps the channel non-empty")
    });
    tracer.span("broadcast.advance", || {
        env.advance_channel(0, Arc::new(tree))
    })
}

/// The update batches of a run. They cycle through a few fixed batches,
/// each applied to the same base tree, so every batch is timed many times
/// on identical work and keeps its fastest repeat, for the reason `Best`
/// gives. Each batch still advances the environment it is handed, so the
/// epochs chain as they do under churn.
pub struct UpdateBatches {
    base: Arc<RTree>,
    seed: u64,
    size: usize,
    /// The fastest repeat of each distinct batch, in ms.
    best_ms: Vec<f64>,
    done: usize,
}

impl UpdateBatches {
    /// Batches over channel 0 of `env`, drawn from `seed`.
    pub fn new(env: &MultiChannelEnv, seed: u64, plan: &Plan) -> UpdateBatches {
        UpdateBatches {
            base: Arc::clone(env.channel(0).tree_arc()),
            seed,
            size: plan.update_size,
            best_ms: vec![f64::INFINITY; plan.distinct_updates],
            done: 0,
        }
    }

    /// Applies the next batch, advancing `env`, and publishes the
    /// successor through `swap`, timing both under an `update` span.
    /// Returns the successor and whether it is a valid cut that `swap`
    /// accepted.
    pub fn apply(
        &mut self,
        env: &MultiChannelEnv,
        tracer: &mut Tracer,
        swap: impl FnOnce(MultiChannelEnv) -> Result<(), TnnError>,
    ) -> (MultiChannelEnv, bool) {
        let k = self.done % self.best_ms.len();
        let mut rng = SplitMix64::new(stream(self.seed, 0x400 + k as u64));
        let span = tracer.enter("update", None, 1);
        let t0 = Instant::now();
        let next = update_batch(env, &self.base, self.size, &mut rng, tracer);
        let swapped = tracer.span("frontend.swap_env", || swap(next.clone()));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tracer.exit(span);
        self.best_ms[k] = self.best_ms[k].min(ms);
        self.done += 1;
        let valid = swapped.is_ok() && cut_is_valid(&next, self.base.num_objects());
        (next, valid)
    }

    /// Batches applied so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// The mean over the distinct batches of their fastest repeat, in ms.
    pub fn best_ms(&self) -> f64 {
        self.best_ms.iter().sum::<f64>() / self.best_ms.len() as f64
    }
}

/// `true` when channel 0 of `env` is a valid packed tree of `n` objects
/// (checked after every cycle cut).
pub fn cut_is_valid(env: &MultiChannelEnv, n: usize) -> bool {
    let tree = env.channel(0).tree();
    tree.validate().is_ok() && tree.num_objects() == n
}

/// The exact optimum route length from `p` over `env`'s datasets.
pub fn oracle_dist(env: &MultiChannelEnv, p: Point) -> f64 {
    if env.len() == 2 {
        exact_tnn(p, env.channel(0).tree(), env.channel(1).tree()).dist
    } else {
        let trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
        exact_chain_tnn(p, &trees).1
    }
}

/// `true` when `outcome` is a full route whose length is the exact
/// optimum from the query point.
pub fn matches_oracle(env: &MultiChannelEnv, query: &Query, outcome: &QueryOutcome) -> bool {
    let oracle = oracle_dist(env, query.point());
    outcome.route.len() == env.len()
        && outcome
            .total_dist
            .is_some_and(|d| (d - oracle).abs() <= 1e-9 * oracle.max(1.0))
}

/// Nearest-rank percentile (`q` in `0..=1`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// What the shard replay counted; its timings are the `shard.run` spans.
#[derive(Debug, Default)]
pub struct ShardReplay {
    pub scatter_pruned_per_query: f64,
    pub gather_prune_rate: f64,
    /// Queries whose sharded answer differs from the unsharded engine's
    /// (or that errored on either side).
    pub mismatches: u64,
    pub conserved: bool,
}

/// Replays `queries` through a 2-shard × 1-worker router and checks every
/// answer against the unsharded engine on the same environment.
pub fn shard_replay(env: &MultiChannelEnv, queries: &[Query], tracer: &mut Tracer) -> ShardReplay {
    let engine = QueryEngine::new(env.clone());
    let router = ShardRouter::spawn(
        env.clone(),
        ShardConfig::new()
            .shards(2)
            .serve(ServeConfig::new().workers(1)),
    );
    let mut out = ShardReplay::default();
    for (i, query) in queries.iter().enumerate() {
        let want = engine.run(query);
        let span = tracer.enter("shard.run", Some(i as u64), 1);
        let got = router.run(query);
        tracer.exit(span);
        let same = match (&got, &want) {
            (Ok(g), Ok(w)) => g.route == w.route && g.total_dist == w.total_dist,
            _ => false,
        };
        out.mismatches += u64::from(!same);
    }
    let stats = router.shutdown(ShutdownMode::Drain);
    let queries = stats.queries.max(1) as f64;
    out.scatter_pruned_per_query = stats.scatter_pruned as f64 / queries;
    out.gather_prune_rate = stats.gather_prune_rate();
    out.conserved = stats.conserved();
    out
}

/// What the served replay of the embedded workloads counted; its timings
/// are the `serve.submit` spans.
#[derive(Debug, Default)]
pub struct ServedReplay {
    pub hits: u64,
    pub misses: u64,
    pub mismatches: u64,
    pub conserved: bool,
}

/// Replays `queries` through a 1-worker server with the default cache, in
/// groups of `batch` submitted one query at a time, checking every answer
/// against the engine.
pub fn served_replay(
    env: &MultiChannelEnv,
    queries: &[Query],
    batch: usize,
    tracer: &mut Tracer,
) -> ServedReplay {
    let engine = QueryEngine::new(env.clone());
    let server = Server::spawn(env.clone(), ServeConfig::new().workers(1));
    let mut out = ServedReplay::default();
    for (b, chunk) in queries.chunks(batch.max(1)).enumerate() {
        let span = tracer.enter("serve.submit", Some((b * batch) as u64), chunk.len() as u32);
        let tickets: Vec<_> = chunk.iter().map(|q| server.submit(q.clone())).collect();
        tracer.exit(span);
        for (ticket, query) in tickets.into_iter().zip(chunk) {
            let got = ticket.and_then(|t| t.wait());
            let same = matches!((&got, engine.run(query)), (Ok(g), Ok(w)) if *g == w);
            out.mismatches += u64::from(!same);
        }
    }
    let stats = server.shutdown(ShutdownMode::Drain);
    out.hits = stats.cache_hits;
    out.misses = stats.cache_misses;
    out.conserved = stats.conserved();
    out
}
