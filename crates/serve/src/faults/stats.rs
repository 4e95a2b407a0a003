//! The shared decision point and its accounting: [`FaultInjector`],
//! [`FaultStats`].

use crate::faults::plan::{FaultPlan, TuneIn};
use std::sync::atomic::{AtomicU64, Ordering};
use tnn_broadcast::MultiChannelEnv;
use tnn_core::TnnError;

tnn_trace::stats! {
    /// Exact counts of every fault decision an injector has handed out.
    ///
    /// For plans without worker kills, the counts are a pure function of
    /// `(seed, plan, admission sequence)` — bit-identical across worker
    /// counts and reruns (a killed worker abandons the rest of its
    /// micro-batch before those jobs are ever probed, which is why kills
    /// break replay-exactness; see [`FaultPlan::worker_kill`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
    pub struct FaultStats {
        /// Tune-in attempts that lost their packet ([`TuneIn::Dropped`]).
        pub drops: u64 => "tnn_faults_drops_total", "Tune-in attempts that lost their packet",
        /// Tune-in attempts that found a channel dark ([`TuneIn::Outage`]).
        pub outages: u64 => "tnn_faults_outages_total",
            "Tune-in attempts that found a channel dark",
        /// Engine runs panicked by injection.
        pub engine_panics: u64 => "tnn_faults_engine_panics_total",
            "Engine runs panicked by injection",
        /// Worker threads killed by injection.
        pub worker_kills: u64 => "tnn_faults_worker_kills_total",
            "Worker threads killed by injection",
        /// Tune-in rounds (one per execution attempt) that cleared every
        /// channel without a fault.
        pub clean_rounds: u64 => "tnn_faults_clean_rounds_total",
            "Tune-in rounds that cleared every channel without a fault",
    }
}

impl FaultStats {
    /// Total faults injected (drops + outages + panics + kills).
    pub fn injected(&self) -> u64 {
        self.drops + self.outages + self.engine_panics + self.worker_kills
    }

    /// Publishes the fault tallies into `registry` under `tnn_faults_*`
    /// names. All tallies are cumulative, so repeated publications are
    /// monotone (Prometheus counter semantics).
    pub fn publish_metrics(&self, registry: &tnn_trace::MetricsRegistry) {
        self.publish_series(registry, "");
    }
}

/// The shared, thread-safe decision point the serving layer probes: a
/// [`FaultPlan`] plus atomic fault accounting.
///
/// Decisions delegate to the plan (pure functions of job sequence and
/// attempt); only the *counting* is shared state, so concurrent workers
/// can probe without coordination and [`FaultInjector::stats`] still
/// tallies exactly.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    drops: AtomicU64,
    outages: AtomicU64,
    engine_panics: AtomicU64,
    worker_kills: AtomicU64,
    clean_rounds: AtomicU64,
}

impl FaultInjector {
    /// Wraps a plan with zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            drops: AtomicU64::new(0),
            outages: AtomicU64::new(0),
            engine_panics: AtomicU64::new(0),
            worker_kills: AtomicU64::new(0),
            clean_rounds: AtomicU64::new(0),
        }
    }

    /// One tune-in round for attempt `attempt` of job `seq`: asks the
    /// plan for every channel of `env` in order, first fault wins.
    /// `Ok(())` means the client reached all `k` roots and the engine
    /// run may proceed; the error is always the recoverable
    /// [`TnnError::ChannelUnavailable`], with `retry_after = 1` for a
    /// transient drop (an immediate retry redraws) or the remaining
    /// outage width for a dark channel.
    pub fn check_tune_in(
        &self,
        env: &MultiChannelEnv,
        seq: u64,
        attempt: u32,
    ) -> Result<(), TnnError> {
        for i in 0..env.channels().len() {
            match self.plan.tune_in(i, seq, attempt) {
                TuneIn::Ok => {}
                TuneIn::Dropped => {
                    self.drops.fetch_add(1, Ordering::Relaxed);
                    return Err(TnnError::ChannelUnavailable {
                        channel: i,
                        retry_after: 1,
                    });
                }
                TuneIn::Outage { retry_after } => {
                    self.outages.fetch_add(1, Ordering::Relaxed);
                    return Err(TnnError::ChannelUnavailable {
                        channel: i,
                        retry_after,
                    });
                }
            }
        }
        self.clean_rounds.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `true` when job `seq`'s engine run should panic (counted).
    pub fn engine_panic(&self, seq: u64) -> bool {
        let hit = self.plan.engine_panic(seq);
        if hit {
            self.engine_panics.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// `true` when picking up job `seq` should kill the worker (counted).
    pub fn worker_kill(&self, seq: u64) -> bool {
        let hit = self.plan.worker_kill(seq);
        if hit {
            self.worker_kills.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// A snapshot of the fault tallies.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            drops: self.drops.load(Ordering::Relaxed),
            outages: self.outages.load(Ordering::Relaxed),
            engine_panics: self.engine_panics.load(Ordering::Relaxed),
            worker_kills: self.worker_kills.load(Ordering::Relaxed),
            clean_rounds: self.clean_rounds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::plan::ChannelFaults;
    use std::sync::Arc;
    use tnn_broadcast::BroadcastParams;
    use tnn_geom::Point;
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn env(k: usize) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = (0..k)
            .map(|salt| {
                let pts: Vec<Point> = (0..40)
                    .map(|i| {
                        Point::new(((i * 7 + salt) % 53) as f64, ((i * 11 + salt) % 59) as f64)
                    })
                    .collect();
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let phases: Vec<u64> = (0..k as u64).map(|i| i * 13).collect();
        MultiChannelEnv::new(trees, params, &phases)
    }

    #[test]
    fn zero_plan_rounds_are_clean_and_counted() {
        let env = env(3);
        let inj = FaultInjector::new(FaultPlan::none());
        for seq in 0..10 {
            assert_eq!(inj.check_tune_in(&env, seq, 0), Ok(()));
        }
        let stats = inj.stats();
        assert_eq!(stats.clean_rounds, 10);
        assert_eq!(stats.injected(), 0);
        assert_eq!(
            stats,
            FaultStats {
                clean_rounds: 10,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn first_faulty_channel_wins_and_counts_once() {
        let env = env(3);
        let plan = FaultPlan::new(0)
            .channel(1, ChannelFaults::NONE.outage(1, 5))
            .channel(2, ChannelFaults::NONE.outage(1, 5));
        let inj = FaultInjector::new(plan);
        assert_eq!(
            inj.check_tune_in(&env, 0, 0),
            Err(TnnError::ChannelUnavailable {
                channel: 1,
                retry_after: 5
            })
        );
        let stats = inj.stats();
        assert_eq!(stats.outages, 1);
        assert_eq!(stats.clean_rounds, 0);
    }

    #[test]
    fn outage_surfaces_channel_unavailable_with_countdown() {
        let env = env(2);
        let inj =
            FaultInjector::new(FaultPlan::new(1).channel(1, ChannelFaults::NONE.outage(8, 2)));
        assert_eq!(
            inj.check_tune_in(&env, 8, 0),
            Err(TnnError::ChannelUnavailable {
                channel: 1,
                retry_after: 2
            })
        );
        assert_eq!(inj.check_tune_in(&env, 8, 2), Ok(()));
    }

    #[test]
    fn drops_report_retry_after_one() {
        let env = env(2);
        let inj =
            FaultInjector::new(FaultPlan::new(4).channel(0, ChannelFaults::NONE.drop_rate(1000)));
        assert_eq!(
            inj.check_tune_in(&env, 0, 0),
            Err(TnnError::ChannelUnavailable {
                channel: 0,
                retry_after: 1
            })
        );
        assert_eq!(inj.stats().drops, 1);
    }

    #[test]
    fn identical_probe_sequences_yield_identical_stats() {
        let env = env(2);
        let plan = FaultPlan::new(77)
            .all_channels(2, ChannelFaults::NONE.drop_rate(200))
            .panic_rate(100);
        let run = |plan: FaultPlan| {
            let inj = FaultInjector::new(plan);
            for seq in 0..300 {
                let mut attempt = 0;
                while inj.check_tune_in(&env, seq, attempt).is_err() && attempt < 5 {
                    attempt += 1;
                }
                inj.engine_panic(seq);
            }
            inj.stats()
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b);
        assert!(a.drops > 0);
        assert!(a.engine_panics > 0);
    }

    #[test]
    fn kills_count() {
        let inj = FaultInjector::new(FaultPlan::new(0).kill_at(3));
        assert!(!inj.worker_kill(2));
        assert!(inj.worker_kill(3));
        assert_eq!(inj.stats().worker_kills, 1);
    }
}
