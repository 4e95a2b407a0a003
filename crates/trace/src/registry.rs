//! A named-metric registry with Prometheus text exposition:
//! [`MetricsRegistry`].
//!
//! The registry is *publish-style*: layers snapshot their own stats
//! structs (`ServeStats`, `ShardStats`, `FaultStats`, `CacheStats`) and
//! publish the values under stable names — the serving hot paths are
//! never rewired through the registry, so publishing costs nothing
//! until someone asks for a dump. Each series name and HELP text is
//! written once, next to its field in the family's
//! [`stats!`](crate::stats!) declaration. Counters published from those structs
//! are monotone because the structs themselves only grow.

use crate::lock::{LockRank, OrderedMutex};
use crate::LatencyHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A single published metric value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    // Boxed: the histogram's 32 buckets dwarf the scalar variants.
    Histogram(Box<LatencyHistogram>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

/// All series of one metric *family* (same base name, possibly several
/// label sets), with its help text.
#[derive(Debug, Clone)]
struct Family {
    help: String,
    series: BTreeMap<String, Value>,
}

/// A registry of named counters, gauges, and histograms, rendered in
/// the Prometheus text exposition format.
///
/// Metric names follow the workspace scheme `tnn_<layer>_<what>` and
/// may carry a literal label suffix, e.g.
/// `tnn_serve_completed{class="interactive"}` — series sharing a base
/// name form one family and are rendered under a single
/// `# HELP`/`# TYPE` header. Re-publishing a name overwrites its value
/// (last write wins), which keeps publishing idempotent.
///
/// ```
/// use tnn_trace::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.counter("tnn_demo_total", "Demo counter.", 3);
/// let text = reg.render_prometheus();
/// assert!(text.contains("# TYPE tnn_demo_total counter"));
/// assert!(text.contains("tnn_demo_total 3"));
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    registry: OrderedMutex<BTreeMap<String, Family>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            registry: OrderedMutex::new(LockRank::TraceRegistry, BTreeMap::new()),
        }
    }
}

/// The base name of a possibly-labelled series name.
fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn publish(&self, name: &str, help: &str, value: Value) {
        debug_assert!(
            !name.is_empty()
                && family_of(name)
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let mut registry = self.registry.lock();
        let family = registry
            .entry(family_of(name).to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                series: BTreeMap::new(),
            });
        family.series.insert(name.to_string(), value);
    }

    /// Publishes (or overwrites) a monotone counter.
    pub fn counter(&self, name: &str, help: &str, value: u64) {
        self.publish(name, help, Value::Counter(value));
    }

    /// Publishes (or overwrites) a point-in-time gauge.
    pub fn gauge(&self, name: &str, help: &str, value: f64) {
        self.publish(name, help, Value::Gauge(value));
    }

    /// Publishes (or overwrites) a latency histogram; rendered with
    /// cumulative `_bucket` series plus honest `_sum`/`_count`.
    pub fn histogram(&self, name: &str, help: &str, hist: &LatencyHistogram) {
        self.publish(name, help, Value::Histogram(Box::new(*hist)));
    }

    /// Number of published series across all families.
    pub fn len(&self) -> usize {
        let registry = self.registry.lock();
        registry.values().map(|f| f.series.len()).sum()
    }

    /// `true` when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders every family in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, histogram `_bucket`/`_sum`/
    /// `_count` expansion, `le` bounds in seconds).
    pub fn render_prometheus(&self) -> String {
        let registry = self.registry.lock();
        let mut out = String::new();
        for (family_name, family) in registry.iter() {
            let kind = family
                .series
                .values()
                .next()
                .map(Value::kind)
                .unwrap_or("untyped");
            let _ = writeln!(out, "# HELP {family_name} {}", family.help);
            let _ = writeln!(out, "# TYPE {family_name} {kind}");
            for (name, value) in family.series.iter() {
                match value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "{name} {v}");
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "{name} {v}");
                    }
                    Value::Histogram(h) => render_histogram(&mut out, name, h),
                }
            }
        }
        out
    }
}

/// Seconds with enough precision for microsecond-granular bounds.
fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// Splices a label into a possibly-already-labelled series name:
/// `name{a="b"}` + `le="x"` → `name{a="b",le="x"}`.
fn with_label(name: &str, suffix: &str, label: &str) -> String {
    match name.split_once('{') {
        Some((base, rest)) => format!("{base}{suffix}{{{label},{rest}"),
        None => format!("{name}{suffix}{{{label}}}"),
    }
}

fn render_histogram(out: &mut String, name: &str, h: &LatencyHistogram) {
    let mut cumulative = 0u64;
    for (i, &bucket) in h.buckets().iter().enumerate() {
        cumulative += bucket;
        if bucket == 0 {
            continue; // sparse: only emit buckets that moved the count
        }
        // Bucket i spans [2^i, 2^(i+1)) µs; its inclusive upper bound.
        let le = secs(Duration::from_micros((1u64 << (i + 1)) - 1));
        let series = with_label(name, "_bucket", &format!("le=\"{le}\""));
        let _ = writeln!(out, "{series} {cumulative}");
    }
    let inf = with_label(name, "_bucket", "le=\"+Inf\"");
    let _ = writeln!(out, "{inf} {}", h.count());
    let (sum_base, count_base) = match name.split_once('{') {
        Some((base, rest)) => (
            format!("{base}_sum{{{rest}"),
            format!("{base}_count{{{rest}"),
        ),
        None => (format!("{name}_sum"), format!("{name}_count")),
    };
    let _ = writeln!(out, "{sum_base} {}", secs(h.sum()));
    let _ = writeln!(out, "{count_base} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_with_headers() {
        let reg = MetricsRegistry::new();
        reg.counter("tnn_serve_completed", "Completed queries.", 10);
        reg.gauge("tnn_serve_queue_depth", "Live queue depth.", 2.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP tnn_serve_completed Completed queries."));
        assert!(text.contains("# TYPE tnn_serve_completed counter"));
        assert!(text.contains("tnn_serve_completed 10"));
        assert!(text.contains("# TYPE tnn_serve_queue_depth gauge"));
        assert!(text.contains("tnn_serve_queue_depth 2"));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn labelled_series_share_one_family_header() {
        let reg = MetricsRegistry::new();
        reg.counter("tnn_c{class=\"a\"}", "Per-class.", 1);
        reg.counter("tnn_c{class=\"b\"}", "Per-class.", 2);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE tnn_c counter").count(), 1);
        assert!(text.contains("tnn_c{class=\"a\"} 1"));
        assert!(text.contains("tnn_c{class=\"b\"} 2"));
    }

    #[test]
    fn republishing_overwrites_idempotently() {
        let reg = MetricsRegistry::new();
        reg.counter("tnn_x", "X.", 1);
        reg.counter("tnn_x", "X.", 5);
        assert_eq!(reg.len(), 1);
        assert!(reg.render_prometheus().contains("tnn_x 5"));
    }

    #[test]
    fn histograms_expand_to_cumulative_buckets_sum_and_count() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(10)); // bucket 3: [8, 16) µs
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(100)); // bucket 6: [64, 128) µs
        let reg = MetricsRegistry::new();
        reg.histogram("tnn_lat", "Latency.", &h);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE tnn_lat histogram"));
        assert!(text.contains("tnn_lat_bucket{le=\"0.000015\"} 2"));
        assert!(text.contains("tnn_lat_bucket{le=\"0.000127\"} 3"));
        assert!(text.contains("tnn_lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tnn_lat_sum 0.000120"));
        assert!(text.contains("tnn_lat_count 3"));
    }

    #[test]
    fn labelled_histograms_splice_le_before_existing_labels() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(10));
        let reg = MetricsRegistry::new();
        reg.histogram("tnn_lat{class=\"batch\"}", "Latency.", &h);
        let text = reg.render_prometheus();
        assert!(text.contains("tnn_lat_bucket{le=\"0.000015\",class=\"batch\"} 1"));
        assert!(text.contains("tnn_lat_bucket{le=\"+Inf\",class=\"batch\"} 1"));
        assert!(text.contains("tnn_lat_sum{class=\"batch\"} 0.000010"));
        assert!(text.contains("tnn_lat_count{class=\"batch\"} 1"));
    }

    #[test]
    fn render_is_deterministically_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("tnn_b", "B.", 2);
        reg.counter("tnn_a", "A.", 1);
        let text = reg.render_prometheus();
        let a = text.find("tnn_a 1").unwrap();
        let b = text.find("tnn_b 2").unwrap();
        assert!(a < b, "families render in name order");
        assert_eq!(text, reg.render_prometheus());
    }
}
