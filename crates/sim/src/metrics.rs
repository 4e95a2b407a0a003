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

impl BatchStats {
    /// Averages one batch's samples, given in query order. Each mean is a
    /// left fold from `+0.0` in that order, so it does not depend on the
    /// thread count (`Iterator::sum` over `f64` starts at `-0.0` instead).
    pub(crate) fn from_samples(samples: &[QuerySample]) -> BatchStats {
        let n = samples.len().max(1) as f64;
        let mean = |field: fn(&QuerySample) -> f64| {
            samples.iter().fold(0.0, |total, s| total + field(s)) / n
        };
        BatchStats {
            queries: samples.len(),
            mean_access: mean(|s| s.access as f64),
            mean_tune_in: mean(|s| s.tune_in as f64),
            mean_tune_estimate: mean(|s| s.tune_estimate as f64),
            mean_tune_filter: mean(|s| s.tune_filter as f64),
            mean_radius: mean(|s| s.radius),
            mean_candidates: mean(|s| s.candidates as f64),
            no_answer_rate: mean(|s| f64::from(u8::from(s.no_answer))),
            fail_rate: mean(|s| f64::from(u8::from(s.failed))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_averages() {
        let stats = BatchStats::from_samples(&[
            QuerySample {
                access: 100,
                tune_in: 10,
                tune_estimate: 4,
                tune_filter: 6,
                radius: 5.0,
                candidates: 3,
                no_answer: false,
                failed: false,
            },
            QuerySample {
                access: 200,
                tune_in: 20,
                tune_estimate: 8,
                tune_filter: 12,
                radius: 15.0,
                candidates: 5,
                no_answer: true,
                failed: true,
            },
        ]);
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
        let stats = BatchStats::from_samples(&[]);
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.mean_access, 0.0);
    }
}
