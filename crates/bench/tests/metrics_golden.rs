//! The metric surface, pinned byte for byte, and checked live.
//!
//! One hand-built [`ServeStats`], [`ShardStats`], [`CacheStats`] and
//! [`FaultStats`] — every field a distinct non-zero value, every
//! priority class its own values and latency observations — are
//! published into one [`MetricsRegistry`], and the Prometheus
//! exposition must equal `tests/golden/metrics.prom` exactly: series
//! names, HELP texts, metric kinds, labels and values. No server runs,
//! so nothing depends on timing or thread scheduling.
//!
//! The live-stack test then runs a traced, caching, faulted [`Server`]
//! and a traced 4-shard [`ShardRouter`], and checks what only a real run
//! can show: every layer's family renders, the rendered completion
//! counters add up to the server's own count, and each retained trace's
//! spans account for its measured latency. Run it with `--nocapture` to
//! print the live exposition.

use std::sync::Arc;
use std::time::Duration;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
use tnn_core::{Algorithm, Query};
use tnn_datasets::{paper_region, uniform_points};
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_serve::{
    Backpressure, CacheConfig, CacheStats, ChannelFaults, ClassStats, FaultPlan, FaultStats,
    LatencyHistogram, MetricsRegistry, Priority, RetryPolicy, ServeConfig, ServeStats, Server,
    ShutdownMode, TraceConfig,
};
use tnn_shard::{ShardConfig, ShardRouter, ShardStats};

const GOLDEN: &str = include_str!("golden/metrics.prom");

/// Hands out 1, 2, 3, … so no two fields share a value.
struct Distinct(u64);

impl Distinct {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    fn size(&mut self) -> usize {
        self.next() as usize
    }
}

fn class_stats(v: &mut Distinct, class: Priority) -> ClassStats {
    let mut latency = LatencyHistogram::default();
    let base = 10u64.pow(class.index() as u32 + 1);
    for micros in [base, 3 * base, 7 * base, 250 * base] {
        latency.record(Duration::from_micros(micros));
    }
    ClassStats {
        submitted: v.next(),
        accepted: v.next(),
        rejected: v.next(),
        shed: v.next(),
        cancelled: v.next(),
        completed: v.next(),
        expired: v.next(),
        queued: v.size(),
        in_flight: v.size(),
        retried: v.next(),
        latency: {
            // Drawn and dropped for a series the stats no longer carry,
            // as in `serve_stats`.
            v.next();
            latency
        },
    }
}

fn serve_stats(v: &mut Distinct) -> ServeStats {
    ServeStats {
        submitted: v.next(),
        accepted: v.next(),
        rejected: v.next(),
        shed: v.next(),
        cancelled: v.next(),
        completed: v.next(),
        expired: v.next(),
        queued: v.size(),
        in_flight: v.size(),
        cache_hits: v.next(),
        cache_misses: v.next(),
        cache_bypass: {
            // Drawn and dropped, as for `retried`.
            v.next();
            v.next()
        },
        retried: {
            // One value is drawn and dropped here, for a series the
            // stats no longer carry, so every later series keeps the
            // value pinned in the golden file.
            v.next();
            v.next()
        },
        worker_restarts: {
            // Drawn and dropped, as for `retried`.
            v.next();
            v.next()
        },
        classes: Priority::ALL.map(|class| class_stats(v, class)),
    }
}

fn render() -> String {
    let mut v = Distinct(0);
    let serve = serve_stats(&mut v);
    let shard = ShardStats {
        queries: v.next(),
        scattered: v.next(),
        scatter_rejected: v.next(),
        scatter_errors: v.next(),
        scatter_pruned: v.next(),
        gather_probed: v.next(),
        gather_pruned: v.next(),
        fallbacks: v.next(),
        env_swaps: {
            // One value is drawn and dropped here, for a series the
            // stats no longer carry, as for `retried` above.
            v.next();
            v.next()
        },
        retired_replicas: v.next(),
        serve,
    };
    let cache = CacheStats {
        hits: v.next(),
        misses: v.next(),
        insertions: {
            // Drawn and dropped, as for `retried`.
            v.next();
            v.next()
        },
        evictions: v.next(),
        len: v.size(),
    };
    let faults = FaultStats {
        drops: v.next(),
        outages: v.next(),
        engine_panics: {
            // Drawn and dropped, as for `retried`.
            v.next();
            v.next()
        },
        worker_kills: v.next(),
        clean_rounds: v.next(),
    };
    let registry = MetricsRegistry::new();
    serve.publish_metrics(&registry);
    shard.publish_metrics(&registry);
    cache.publish_metrics(&registry);
    faults.publish_metrics(&registry);
    registry.render_prometheus()
}

#[test]
fn metric_surface_matches_the_golden_exposition() {
    let rendered = render();
    if rendered != GOLDEN {
        let first_diff = rendered
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "metric exposition drifted from tests/golden/metrics.prom at line {}:\n\
             rendered: {:?}\n  golden: {:?}\n--- full rendering ---\n{rendered}",
            first_diff + 1,
            rendered.lines().nth(first_diff),
            GOLDEN.lines().nth(first_diff),
        );
    }
}

#[test]
fn rendering_is_deterministic() {
    assert_eq!(render(), render());
}

// Points per channel and queries per layer of the live-stack test.
const LIVE_POINTS: usize = 1_500;
const LIVE_QUERIES: usize = 120;

/// Traces faster than this are mostly the seams between layers, so their
/// spans are not expected to add up to the total.
const SEAM_FLOOR: Duration = Duration::from_micros(16);

fn live_env(seed: u64) -> MultiChannelEnv {
    let params = BroadcastParams::new(64);
    let region = paper_region();
    let trees: Vec<Arc<RTree>> = (0..2)
        .map(|i| {
            let pts = uniform_points(LIVE_POINTS, &region, seed + i);
            Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, &[0, 0])
}

/// The log₂-microsecond latency bucket `d` falls in.
fn log2_bucket(d: Duration) -> u32 {
    let us = d.as_micros().max(1) as u64;
    63 - us.leading_zeros()
}

/// Sum of the rendered per-class `tnn_serve_completed_total` samples.
fn rendered_completed(text: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with("tnn_serve_completed_total{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .expect("counter samples are integers")
        })
        .sum()
}

#[test]
fn live_stack_renders_every_family_and_reconciles_traces() {
    let qpoints = uniform_points(LIVE_QUERIES, &paper_region(), 0xD0_0D);
    let registry = MetricsRegistry::new();

    // A traced, caching server under a light fault plan covers the
    // serve, cache, faults and trace families in one pass. Every point
    // is offered twice, so the cache sees traffic.
    let server = Server::spawn_with_faults(
        live_env(0xA11CE),
        ServeConfig::new()
            .workers(2)
            .queue_capacity(2 * LIVE_QUERIES)
            .backpressure(Backpressure::Block)
            .cache(CacheConfig::new().capacity(LIVE_QUERIES))
            .retry(RetryPolicy::new().max_attempts(4))
            .trace(TraceConfig::on()),
        FaultPlan::new(0xD0_5E).all_channels(2, ChannelFaults::NONE.drop_rate(60)),
    );
    let workload: Vec<Query> = qpoints
        .iter()
        .chain(&qpoints)
        .map(|&p| Query::tnn(p).algorithm(Algorithm::HybridNn))
        .collect();
    for query in workload {
        server
            .submit(query)
            .expect("Block admits everything")
            .wait()
            .expect("live queries are valid");
    }
    // Shutdown first: workers book counters and offer traces after
    // resolving tickets, so only the post-shutdown state is final.
    let stats = server.shutdown(ShutdownMode::Drain);
    assert!(stats.conserved(), "server lost tickets: {stats:?}");

    let recorder = server.recorder().expect("tracing is on");
    assert!(recorder.recorded() > 0, "no traces recorded");
    let retained: Vec<_> = recorder
        .slowest()
        .into_iter()
        .chain(recorder.flagged())
        .collect();
    assert!(!retained.is_empty(), "flight recorder retained nothing");
    let mut reconciled = 0;
    for t in &retained {
        assert!(!t.spans.is_empty(), "retained trace has no spans: {t:?}");
        if t.total < SEAM_FLOOR {
            continue;
        }
        reconciled += 1;
        assert!(
            log2_bucket(t.span_sum()).abs_diff(log2_bucket(t.total)) <= 1,
            "span sum {:?} does not reconcile with total {:?}: {t:?}",
            t.span_sum(),
            t.total,
        );
    }
    assert!(reconciled > 0, "no retained trace reached {SEAM_FLOOR:?}");

    server.publish_metrics(&registry);
    let text = registry.render_prometheus();
    assert_eq!(
        rendered_completed(&text),
        stats.completed,
        "rendered snapshot diverges from the server's stats"
    );
    assert!(
        text.contains("tnn_trace_recorded_total"),
        "recorder series missing from the snapshot:\n{text}"
    );

    // A traced shard router adds the shard family. Its serve fold lands
    // in the same tnn_serve_* series and, published last, replaces the
    // single server's values. Router-level trace totals are span sums
    // by construction, so only the server's traces reconcile above.
    let router = ShardRouter::spawn(
        live_env(0xB0B),
        ShardConfig::new()
            .shards(4)
            .serve(ServeConfig::new().workers(1).trace(TraceConfig::on())),
    );
    for &p in &qpoints {
        router
            .run(&Query::tnn(p).algorithm(Algorithm::HybridNn))
            .expect("live queries are valid");
    }
    let shard_stats = router.shutdown(ShutdownMode::Drain);
    assert!(
        shard_stats.conserved(),
        "router lost tickets: {shard_stats:?}"
    );
    router.publish_metrics(&registry);

    let text = registry.render_prometheus();
    for layer in ["serve", "cache", "faults", "shard", "trace"] {
        assert!(
            text.contains(&format!("# TYPE tnn_{layer}_")),
            "missing tnn_{layer}_* family:\n{text}"
        );
    }
    assert!(text.contains("_bucket{"), "no histogram rendered:\n{text}");
    assert_eq!(
        rendered_completed(&text),
        shard_stats.serve.completed,
        "rendered snapshot diverges from the router's serve fold"
    );
    print!("{text}");
}
