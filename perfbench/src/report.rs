//! The run report: the exact counters, the metrics by name and unit, and
//! the one-line JSON result.

use tnn_core::QueryOutcome;

/// Counters that depend only on the seed, never on timing. They are taken
/// over the first pass of the timed phase, so two runs with one seed
/// report them identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact {
    /// Engine executions counted: every pool query on the embedded
    /// workloads, every cache miss on `zipf_churn_k2`.
    pub runs: u64,
    /// Paper access time, in pages (broadcast slots), summed.
    pub access_pages: u64,
    /// Paper tune-in time, in pages downloaded, summed.
    pub tune_in_pages: u64,
    pub node_visits: u64,
    pub tune_in_estimate: u64,
    pub tune_in_filter: u64,
    pub prune_hits: u64,
    pub peak_queue_max: u64,
    /// Filter-phase candidates of each run, summed over channels.
    pub candidates: Vec<u64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Update batches applied.
    pub updates: u64,
    /// A fingerprint of the query stream the run drew.
    pub stream: u64,
}

impl Exact {
    /// Counts one engine execution.
    pub fn add_run(&mut self, o: &QueryOutcome) {
        self.runs += 1;
        self.access_pages += o.access_time();
        self.tune_in_pages += o.tune_in();
        self.node_visits += o.node_visits();
        self.tune_in_estimate += o.tune_in_estimate();
        self.tune_in_filter += o.tune_in_filter();
        self.prune_hits += o.prune_hits();
        self.peak_queue_max = self.peak_queue_max.max(o.peak_queue());
        self.candidates.push(o.total_candidates() as u64);
    }

    /// Folds a query's bits into the stream fingerprint.
    pub fn add_to_stream(&mut self, bits: u64) {
        self.stream = (self.stream ^ bits)
            .wrapping_mul(0x100_0000_01B3)
            .rotate_left(17);
    }

    /// `sum` per counted run.
    pub fn mean(&self, sum: u64) -> f64 {
        sum as f64 / self.runs.max(1) as f64
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed besides per-query answers (conservation,
    /// traced ≡ untraced, cycle-cut validity, …).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub exact: Exact,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
