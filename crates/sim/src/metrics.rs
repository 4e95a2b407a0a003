//! Aggregated statistics over a query batch.

/// Aggregates over one batch of queries for one configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Queries executed.
    pub queries: usize,
    /// Mean access time in pages (the paper's Fig. 9 metric).
    pub mean_access: f64,
    /// Mean tune-in time in pages (the paper's Fig. 11–13 metric).
    pub mean_tune_in: f64,
    /// Mean estimate-phase tune-in (both channels).
    pub mean_tune_estimate: f64,
    /// Mean filter-phase tune-in (both channels).
    pub mean_tune_filter: f64,
    /// Mean search radius of the filter phase.
    pub mean_radius: f64,
    /// Mean number of filter-phase candidates (both channels).
    pub mean_candidates: f64,
    /// Fraction of queries with no answer at all.
    pub no_answer_rate: f64,
    /// Fraction of failed queries: no answer **or** a sub-optimal answer
    /// (measured against the exact oracle) — the paper's Table 3 metric.
    pub fail_rate: f64,
}

/// The raw metrics of one executed query, recorded into a pre-sized slot
/// array by the batch workers and reduced in query order so aggregation
/// is independent of thread count.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QuerySample {
    pub access: u64,
    pub tune_in: u64,
    pub tune_estimate: u64,
    pub tune_filter: u64,
    pub radius: f64,
    pub candidates: usize,
    pub no_answer: bool,
    pub failed: bool,
}

/// Incremental accumulator for [`BatchStats`].
#[derive(Debug, Clone, Default)]
pub(crate) struct StatsAccumulator {
    n: usize,
    access: f64,
    tune_in: f64,
    tune_estimate: f64,
    tune_filter: f64,
    radius: f64,
    candidates: f64,
    no_answer: usize,
    failed: usize,
}

impl StatsAccumulator {
    /// Records one query's sample.
    pub fn record_sample(&mut self, s: &QuerySample) {
        self.n += 1;
        self.access += s.access as f64;
        self.tune_in += s.tune_in as f64;
        self.tune_estimate += s.tune_estimate as f64;
        self.tune_filter += s.tune_filter as f64;
        self.radius += s.radius;
        self.candidates += s.candidates as f64;
        self.no_answer += usize::from(s.no_answer);
        self.failed += usize::from(s.failed);
    }

    pub fn finish(self) -> BatchStats {
        let n = self.n.max(1) as f64;
        BatchStats {
            queries: self.n,
            mean_access: self.access / n,
            mean_tune_in: self.tune_in / n,
            mean_tune_estimate: self.tune_estimate / n,
            mean_tune_filter: self.tune_filter / n,
            mean_radius: self.radius / n,
            mean_candidates: self.candidates / n,
            no_answer_rate: self.no_answer as f64 / n,
            fail_rate: self.failed as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_averages() {
        let mut acc = StatsAccumulator::default();
        acc.record_sample(&QuerySample {
            access: 100,
            tune_in: 10,
            tune_estimate: 4,
            tune_filter: 6,
            radius: 5.0,
            candidates: 3,
            no_answer: false,
            failed: false,
        });
        acc.record_sample(&QuerySample {
            access: 200,
            tune_in: 20,
            tune_estimate: 8,
            tune_filter: 12,
            radius: 15.0,
            candidates: 5,
            no_answer: true,
            failed: true,
        });
        let stats = acc.finish();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.mean_access, 150.0);
        assert_eq!(stats.mean_tune_in, 15.0);
        assert_eq!(stats.mean_tune_estimate, 6.0);
        assert_eq!(stats.mean_tune_filter, 9.0);
        assert_eq!(stats.mean_radius, 10.0);
        assert_eq!(stats.mean_candidates, 4.0);
        assert_eq!(stats.no_answer_rate, 0.5);
        assert_eq!(stats.fail_rate, 0.5);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let stats = StatsAccumulator::default().finish();
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.mean_access, 0.0);
    }
}
