//! The two metric sets a run reports: end-to-end (untraced run) and per
//! layer (traced run). Their names and units are the ones
//! `BENCHMARK.json` declares.

use crate::report::Report;
use crate::spans::Tracer;
use crate::sys::peak_rss_mb;
use crate::workload::{median, percentile, ShardReplay};

/// Best-of-repeats timings of a timed phase.
///
/// A phase repeats the same work: every pass over the query pool
/// (embedded workloads) or every cycle of the segment draw sets (served)
/// runs identical queries. The work is cut into rounds — a chunk of the
/// pool, or one segment — and each round key keeps the fastest of its
/// repeats. On a shared host, identical passes of one run took up to 1.6×
/// the CPU time of the fastest ones, because other tenants slow the core
/// in bursts. Interference only ever adds time, so the fastest repeat is
/// the program's own cost, while a median over repeats mostly measures the
/// neighbours.
#[derive(Debug, Default)]
pub struct Best {
    queries: usize,
    wall_s: Vec<f64>,
    cpu_ns: Vec<f64>,
}

impl Best {
    /// Rounds of `queries[k]` queries under key `k`.
    pub fn new(queries: impl IntoIterator<Item = usize>) -> Best {
        let mut best = Best::default();
        for n in queries {
            best.queries += n;
            best.wall_s.push(f64::INFINITY);
            best.cpu_ns.push(f64::INFINITY);
        }
        best
    }

    /// Records one repeat of round `key`.
    pub fn record(&mut self, key: usize, wall_s: f64, cpu_ns: u64) {
        self.wall_s[key] = self.wall_s[key].min(wall_s);
        self.cpu_ns[key] = self.cpu_ns[key].min(cpu_ns as f64);
    }

    /// Queries per wall second over the best repeat of every round.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s.iter().sum::<f64>()
    }

    /// CPU µs per query over the best repeat of every round.
    pub fn cpu_us(&self) -> f64 {
        self.cpu_ns.iter().sum::<f64>() / 1e3 / self.queries as f64
    }
}

/// The best latency of every query slot over the repeats of its round, as
/// `Best` keeps the best round times.
#[derive(Debug, Default)]
pub struct BestLatency {
    /// The offset of each key's slots in `latency_us`.
    first_slot: Vec<usize>,
    latency_us: Vec<f64>,
}

impl BestLatency {
    /// Rounds with `slots[k]` query slots under key `k`.
    pub fn new(slots: impl IntoIterator<Item = usize>) -> BestLatency {
        let mut best = BestLatency::default();
        for n in slots {
            best.first_slot.push(best.latency_us.len());
            best.latency_us
                .extend(std::iter::repeat_n(f64::INFINITY, n));
        }
        best
    }

    /// Records one repeat of round `key`: the latency of each of its
    /// slots, in slot order.
    pub fn record(&mut self, key: usize, latency_us: &[f64]) {
        let slots = &mut self.latency_us[self.first_slot[key]..][..latency_us.len()];
        for (best, &l) in slots.iter_mut().zip(latency_us) {
            *best = best.min(l);
        }
    }

    /// Percentile of the slots' best latencies, in µs.
    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile(&self.latency_us, q)
    }
}

/// The timings of an untraced run.
pub struct EndToEnd<'a> {
    /// Seconds per front-end set-up.
    pub setup_s: &'a [f64],
    pub best: &'a Best,
    pub latency: &'a BestLatency,
    /// Milliseconds per update batch, as the workload reduces its batches.
    pub update_ms: f64,
}

pub fn end_to_end(report: &mut Report, t: EndToEnd) {
    let ok_share = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    let e = &report.exact;
    let metrics = [
        ("setup_s", median(t.setup_s), "s"),
        ("qps", t.best.qps(), "1/s"),
        ("cpu_us_per_query", t.best.cpu_us(), "us"),
        ("latency_p50_us", t.latency.percentile_us(0.5), "us"),
        ("latency_p99_us", t.latency.percentile_us(0.99), "us"),
        ("ok_share", ok_share, "share"),
        ("access_pages_mean", e.mean(e.access_pages), "pages"),
        ("tune_in_pages_mean", e.mean(e.tune_in_pages), "pages"),
        ("update_ms", t.update_ms, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
}

/// What a traced run measured beside its spans.
pub struct Layers<'a> {
    pub tracer: &'a Tracer,
    /// Cache hits and misses of the served queries.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Environment epochs those queries were served in.
    pub epochs: u64,
    pub shard: &'a ShardReplay,
    /// The untraced and the traced passes.
    pub untraced: &'a Best,
    pub traced: &'a Best,
}

pub fn per_layer(report: &mut Report, l: Layers) {
    let t = l.tracer;
    let ms = |v: Vec<f64>| median(&v) / 1e6;
    let us = |v: Vec<f64>| median(&v) / 1e3;
    let e = &report.exact;
    let engine_ns = t.self_times_per_item("core.run_with");
    let shard_ns = t.self_times_per_item("shard.run");
    let candidates: Vec<f64> = e.candidates.iter().map(|&c| c as f64).collect();
    let served = (l.cache_hits + l.cache_misses).max(1) as f64;
    let metrics = [
        (
            "datasets.generate_ms",
            ms(t.self_times_per_item("datasets.generate")),
            "ms",
        ),
        (
            "rtree.build_ms",
            ms(t.child_self_times("setup", "rtree.build")),
            "ms",
        ),
        (
            "broadcast.env_build_ms",
            ms(t.child_self_times("setup", "broadcast.env_new")),
            "ms",
        ),
        (
            "rtree.delta_edit_us",
            us(t.child_self_times("update", "rtree.delta_edit")),
            "us",
        ),
        (
            "rtree.rebuild_ms",
            ms(t.child_self_times("update", "rtree.rebuild")),
            "ms",
        ),
        (
            "broadcast.advance_us",
            us(t.child_self_times("update", "broadcast.advance")),
            "us",
        ),
        (
            "frontend.swap_env_us",
            us(t.child_self_times("update", "frontend.swap_env")),
            "us",
        ),
        ("core.node_visits_mean", e.mean(e.node_visits), "pages"),
        (
            "core.tune_in_estimate_mean",
            e.mean(e.tune_in_estimate),
            "pages",
        ),
        (
            "core.tune_in_filter_mean",
            e.mean(e.tune_in_filter),
            "pages",
        ),
        ("core.prune_hits_mean", e.mean(e.prune_hits), "count"),
        ("core.peak_queue_max", e.peak_queue_max as f64, "count"),
        (
            "core.candidates_mean",
            e.mean(e.candidates.iter().sum()),
            "count",
        ),
        (
            "core.candidates_p99",
            percentile(&candidates, 0.99),
            "count",
        ),
        (
            "core.engine_us_p50",
            percentile(&engine_ns, 0.5) / 1e3,
            "us",
        ),
        (
            "core.engine_us_p99",
            percentile(&engine_ns, 0.99) / 1e3,
            "us",
        ),
        ("qos.hit_share", l.cache_hits as f64 / served, "share"),
        (
            "qos.misses_per_swap",
            l.cache_misses as f64 / l.epochs.max(1) as f64,
            "count",
        ),
        (
            "serve.submit_us_p50",
            us(t.self_times_per_item("serve.submit")),
            "us",
        ),
        ("shard.run_us_p50", percentile(&shard_ns, 0.5) / 1e3, "us"),
        ("shard.run_us_p99", percentile(&shard_ns, 0.99) / 1e3, "us"),
        (
            "shard.scatter_pruned_per_query",
            l.shard.scatter_pruned_per_query,
            "count",
        ),
        (
            "shard.gather_prune_rate",
            l.shard.gather_prune_rate,
            "share",
        ),
        (
            "trace.overhead_pct",
            100.0 * (l.untraced.qps() / l.traced.qps() - 1.0),
            "%",
        ),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
}

/// Writes the traced run's spans, noting a write failure as a problem.
pub fn write_spans(tracer: &Tracer, path: Option<&std::path::Path>, report: &mut Report) {
    if let Some(path) = path {
        if let Err(e) = tracer.write_tsv(path) {
            report.problem(format!("could not write spans to {}: {e}", path.display()));
        }
    }
}
