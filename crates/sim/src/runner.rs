//! The query-batch runner: the paper's methodology (§6) as an engine.
//!
//! For one configuration (datasets, page capacity, and a [`Query`]
//! template carrying the kind, algorithm and ANN modes — plain TNN and
//! chained batches alike) it executes `N` queries. Per query, a point is
//! drawn uniformly over the evaluation region and **each channel gets an
//! independent random phase** — the paper's "two random numbers are
//! generated to simulate the waiting time to get the two roots". Queries
//! are deterministic in the seed and identical across algorithm
//! configurations, so algorithm comparisons are paired.
//!
//! ## Performance shape
//!
//! All batches are driven through one shared [`QueryEngine`]; work is
//! spread over all CPUs in contiguous chunks, and each worker thread owns
//! one [`QueryScratch`] passed to [`QueryEngine::run_with`], so the
//! per-query hot path performs no buffer allocations after the first
//! query has grown them. Per-query phase randomization rides the engine's
//! `PhaseOverlay` — no channel vector is cloned per query (the former
//! `with_phases` hot-path cost). Per-query
//! metric samples are written into a pre-sized slot array and reduced
//! **in query order**, making every [`BatchStats`] bit-identical for a
//! fixed seed regardless of thread count or scheduling.

use crate::metrics::QuerySample;
use crate::BatchStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::str::FromStr;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{exact_chain_tnn, exact_tnn, Query, QueryEngine, QueryScratch};
use tnn_geom::{Point, Rect};
use tnn_rtree::RTree;

/// Tolerance when comparing an algorithm's answer against the oracle: an
/// answer farther than this (relatively) counts as failed.
const FAIL_EPS: f64 = 1e-6;

/// One batch to execute.
#[derive(Clone)]
pub struct BatchConfig {
    /// Broadcast parameters (page capacity, interleaving, object size).
    pub params: BroadcastParams,
    /// The query every batch member runs: its kind, algorithm, ANN
    /// modes and retrieval flag. The runner re-targets it per query with
    /// [`Query::at`] and [`Query::phases`], so its own point and phases
    /// are ignored.
    pub query: Query,
    /// Number of queries (the paper uses 1,000).
    pub queries: usize,
    /// Batch seed; queries and phases derive deterministically from it.
    pub seed: u64,
    /// Compare every answer against the exact oracle (needed for fail
    /// rates; costs one in-memory TNN per query).
    pub check_oracle: bool,
}

/// Reads the batch size from `TNN_QUERIES` (default 1,000 — the paper's
/// query count per configuration) through [`parse_positive`].
pub fn queries_per_batch() -> usize {
    env_positive("TNN_QUERIES", 1_000)
}

/// Parses one experiment input — an environment variable or a command
/// line argument, named by `name` — as a positive integer of an unsigned
/// type `T`. Anything else panics with `name` in the message: a typo must
/// not silently fall back to a default, and a 0 must not turn a batch
/// into a vacuous pass over zero queries.
pub fn parse_positive<T: FromStr + PartialOrd + Default>(name: &str, raw: &str) -> T {
    match raw.parse() {
        Ok(n) if n > T::default() => n,
        _ => panic!("{name} must be a positive integer, got {raw:?}"),
    }
}

/// Reads the environment variable `name` through [`parse_positive`];
/// `default` when it is unset.
pub(crate) fn env_positive<T: FromStr + PartialOrd + Default>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(raw) => parse_positive(name, &raw),
        Err(std::env::VarError::NotPresent) => default,
        Err(err) => panic!("{name}: {err}"),
    }
}

fn worker_threads(queries: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(queries.max(1))
}

/// Parallel scaffolding of the batch runner: splits `queries`
/// into contiguous chunks across all CPUs, runs `run_one(query_index,
/// slot)` per query, and reduces the samples **in query order** — so
/// every [`BatchStats`] is bit-identical for a fixed seed regardless of
/// thread count or scheduling.
fn run_samples(queries: usize, run_chunk: impl Fn(usize, &mut [QuerySample]) + Sync) -> BatchStats {
    let threads = worker_threads(queries);
    let chunk_len = queries.div_ceil(threads.max(1)).max(1);
    let mut samples = vec![QuerySample::default(); queries];
    std::thread::scope(|scope| {
        for (t, chunk) in samples.chunks_mut(chunk_len).enumerate() {
            let run_chunk = &run_chunk;
            scope.spawn(move || run_chunk(t * chunk_len, chunk));
        }
    });
    BatchStats::from_samples(&samples)
}

/// Executes one batch of TNN queries over `k ≥ 2` trees, one broadcast
/// channel per tree, and aggregates the paper's metrics; the paper's
/// own two-channel workload passes `&[s_tree, r_tree]`. The configured
/// query runs the generalized `k`-hop pipeline; per-channel ANN modes in
/// `cfg.query` must number one per channel (a uniform [`Query::ann`]
/// fits any `k`). With `check_oracle` every answer is verified against
/// the exact oracle.
///
/// Work is spread over all CPUs in contiguous chunks with an in-order
/// reduction, so results are bit-identical in the seed regardless of
/// thread count.
pub fn run_tnn_batch(trees: &[Arc<RTree>], region: &Rect, cfg: &BatchConfig) -> BatchStats {
    let engine = QueryEngine::new(MultiChannelEnv::new(
        trees.to_vec(),
        cfg.params,
        &vec![0; trees.len()],
    ));
    run_samples(cfg.queries, |first, chunk| {
        // One scratch per worker: no buffer allocations per query.
        let mut scratch = QueryScratch::default();
        let mut phases: Vec<u64> = Vec::with_capacity(engine.channels());
        for (j, slot) in chunk.iter_mut().enumerate() {
            *slot = run_one(
                &engine,
                region,
                cfg,
                (first + j) as u64,
                &mut scratch,
                &mut phases,
            );
        }
    })
}

fn run_one(
    engine: &QueryEngine,
    region: &Rect,
    cfg: &BatchConfig,
    query_index: u64,
    scratch: &mut QueryScratch,
    phases: &mut Vec<u64>,
) -> QuerySample {
    // Per-query randomness independent of the algorithm configuration, so
    // different algorithms see identical workloads.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ query_index.wrapping_mul(0x9E3779B97F4A7C15));
    let p = Point::new(
        rng.gen_range(region.min.x..=region.max.x),
        rng.gen_range(region.min.y..=region.max.y),
    );
    let env = engine.env();
    // Per-query phases go through the engine's `PhaseOverlay`: nothing is
    // cloned — the old `env.with_phases(&phases)` materialized a fresh
    // channel vector on every query of every batch. One independent
    // random phase per channel, drawn in channel order (so the k = 2
    // case reproduces the paper's "two random numbers" bit-for-bit).
    phases.clear();
    phases.extend(
        env.channels()
            .iter()
            .map(|c| rng.gen_range(0..c.layout().cycle_len().max(1))),
    );
    let query = cfg.query.clone().at(p).phases(phases);

    let run = engine
        .run_with(&query, scratch)
        .expect("k >= 2 channels, finite query");
    let no_answer = run.failed();
    let failed = if cfg.check_oracle {
        match run.total_dist {
            None => true,
            Some(dist) => {
                let oracle = if engine.channels() == 2 {
                    exact_tnn(p, env.channel(0).tree(), env.channel(1).tree()).dist
                } else {
                    let trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
                    exact_chain_tnn(p, &trees).1
                };
                dist > oracle * (1.0 + FAIL_EPS) + FAIL_EPS
            }
        }
    } else {
        no_answer
    };
    QuerySample {
        access: run.access_time(),
        tune_in: run.tune_in(),
        tune_estimate: run.tune_in_estimate(),
        tune_filter: run.tune_in_filter(),
        radius: run.search_radius,
        candidates: run.total_candidates(),
        no_answer,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_core::Algorithm;
    use tnn_datasets::uniform_points;
    use tnn_rtree::PackingAlgorithm;

    fn tree(n: usize, seed: u64, params: &BroadcastParams) -> Arc<RTree> {
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let pts = uniform_points(n, &region, seed);
        Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
    }

    #[test]
    fn batch_is_deterministic_across_thread_schedules() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let s = tree(150, 1, &params);
        let r = tree(120, 2, &params);
        let cfg = BatchConfig {
            params,
            query: Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
            queries: 40,
            seed: 99,
            check_oracle: true,
        };
        let a = run_tnn_batch(&[Arc::clone(&s), Arc::clone(&r)], &region, &cfg);
        let b = run_tnn_batch(&[s, r], &region, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.queries, 40);
        assert_eq!(a.fail_rate, 0.0, "exact algorithm must never fail");
        assert!(a.mean_access > 0.0);
        assert!(a.mean_tune_in > 0.0);
    }

    #[test]
    fn exact_algorithms_never_fail_in_batches() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let s = tree(100, 3, &params);
        let r = tree(200, 4, &params);
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let cfg = BatchConfig {
                params,
                query: Query::tnn(Point::ORIGIN).algorithm(alg),
                queries: 25,
                seed: 7,
                check_oracle: true,
            };
            let stats = run_tnn_batch(&[Arc::clone(&s), Arc::clone(&r)], &region, &cfg);
            assert_eq!(stats.fail_rate, 0.0, "{}", alg.name());
        }
    }

    #[test]
    fn k_channel_tnn_batches_run_and_are_deterministic() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        for k in [2usize, 3, 4] {
            let trees: Vec<Arc<RTree>> = (0..k)
                .map(|i| tree(60 + 20 * i, 40 + i as u64, &params))
                .collect();
            for alg in [Algorithm::DoubleNn, Algorithm::HybridNn] {
                let cfg = BatchConfig {
                    params,
                    query: Query::tnn(Point::ORIGIN).algorithm(alg),
                    queries: 16,
                    seed: 0xA1,
                    check_oracle: true,
                };
                let a = run_tnn_batch(&trees, &region, &cfg);
                let b = run_tnn_batch(&trees, &region, &cfg);
                assert_eq!(a, b, "{} k={k}", alg.name());
                assert_eq!(a.queries, 16);
                assert_eq!(a.fail_rate, 0.0, "{} k={k}", alg.name());
                assert!(a.mean_tune_in > 0.0);
            }
        }
    }

    fn chain_config(queries: usize, seed: u64) -> BatchConfig {
        BatchConfig {
            params: BroadcastParams::new(64),
            query: Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
            queries,
            seed,
            check_oracle: false,
        }
    }

    #[test]
    fn chain_batch_runs() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let trees = vec![
            tree(50, 5, &params),
            tree(60, 6, &params),
            tree(40, 7, &params),
        ];
        let stats = run_tnn_batch(&trees, &region, &chain_config(10, 3));
        assert_eq!(stats.queries, 10);
        assert_eq!(stats.fail_rate, 0.0);
        assert!(stats.mean_tune_in > 0.0);
        assert!(
            stats.mean_candidates > 0.0,
            "chained batches count candidates"
        );
    }

    #[test]
    fn chain_batch_is_deterministic() {
        let params = BroadcastParams::new(64);
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let trees = vec![tree(80, 8, &params), tree(70, 9, &params)];
        let cfg = chain_config(24, 5);
        let a = run_tnn_batch(&trees, &region, &cfg);
        let b = run_tnn_batch(&trees, &region, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.queries, 24);
    }

    #[test]
    fn parse_positive_accepts_positive_integers() {
        assert_eq!(parse_positive::<usize>("TNN_QUERIES", "1"), 1);
        assert_eq!(parse_positive::<usize>("TNN_QUERIES", "200"), 200);
        assert_eq!(parse_positive::<u64>("TNN_SEED", "3988201480"), 0xEDB7_2008);
    }

    #[test]
    #[should_panic(expected = "TNN_QUERIES must be a positive integer, got \"0\"")]
    fn parse_positive_rejects_zero() {
        parse_positive::<usize>("TNN_QUERIES", "0");
    }

    #[test]
    fn parse_positive_rejects_malformed_input_naming_the_input() {
        for raw in [
            "",
            "x",
            "1e3",
            "-4",
            " 12",
            "12 ",
            "1_000",
            "18446744073709551616",
        ] {
            let err = std::panic::catch_unwind(|| parse_positive::<u64>("TNN_SEED", raw))
                .expect_err(&format!("{raw:?} must be rejected"));
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.starts_with("TNN_SEED must be"), "{msg}");
        }
    }
}
