//! The metric surface, pinned byte for byte.
//!
//! One hand-built [`ServeStats`], [`ShardStats`], [`CacheStats`] and
//! [`FaultStats`] — every field a distinct non-zero value, every
//! priority class its own values and latency observations — are
//! published into one [`MetricsRegistry`], and the Prometheus
//! exposition must equal `tests/golden/metrics.prom` exactly: series
//! names, HELP texts, metric kinds, labels and values. No server runs,
//! so nothing depends on timing or thread scheduling.

use std::time::Duration;
use tnn_serve::{
    CacheStats, ClassStats, FaultStats, LatencyHistogram, MetricsRegistry, Priority, ServeStats,
};
use tnn_shard::ShardStats;

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
        degraded: v.next(),
        latency,
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
        cache_expired: v.next(),
        cache_bypass: v.next(),
        cache_coalesced: v.next(),
        retried: v.next(),
        degraded: v.next(),
        worker_restarts: v.next(),
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
        replicas_spawned: v.next(),
        env_swaps: v.next(),
        retired_replicas: v.next(),
        serve,
    };
    let cache = CacheStats {
        hits: v.next(),
        misses: v.next(),
        expired: v.next(),
        insertions: v.next(),
        evictions: v.next(),
        len: v.size(),
    };
    let faults = FaultStats {
        drops: v.next(),
        outages: v.next(),
        jitter_slots: v.next(),
        engine_panics: v.next(),
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
