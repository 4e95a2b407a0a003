//! The fault accounting: [`FaultStats`], and the tune-in round that
//! tallies into it, [`FaultPlan::check_tune_in`].

use crate::faults::plan::{FaultPlan, TuneIn};
use tnn_core::TnnError;

tnn_trace::stats! {
    /// Exact counts of every fault decision a server has acted on, booked
    /// under its state lock when the fault is decided.
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

impl FaultPlan {
    /// One tune-in round for attempt `attempt` of job `seq` over
    /// `channels` channels: asks the plan for every channel in order,
    /// first fault wins, and tallies the round into `tally`. `Ok(())`
    /// means the client reached all `k` roots and the engine run may
    /// proceed; the error is always the recoverable
    /// [`TnnError::ChannelUnavailable`], with `retry_after = 1` for a
    /// transient drop (an immediate retry redraws) or the remaining
    /// outage width for a dark channel.
    pub fn check_tune_in(
        &self,
        channels: usize,
        seq: u64,
        attempt: u32,
        tally: &mut FaultStats,
    ) -> Result<(), TnnError> {
        for channel in 0..channels {
            let retry_after = match self.tune_in(channel, seq, attempt) {
                TuneIn::Ok => continue,
                TuneIn::Dropped => {
                    tally.drops += 1;
                    1
                }
                TuneIn::Outage { retry_after } => {
                    tally.outages += 1;
                    retry_after
                }
            };
            return Err(TnnError::ChannelUnavailable {
                channel,
                retry_after,
            });
        }
        tally.clean_rounds += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::plan::ChannelFaults;
    use crate::{ServeConfig, Server, ShutdownMode};
    use std::sync::Arc;
    use tnn_broadcast::{BroadcastParams, MultiChannelEnv};
    use tnn_core::Query;
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
        let plan = FaultPlan::none();
        let mut tally = FaultStats::default();
        for seq in 0..10 {
            assert_eq!(plan.check_tune_in(3, seq, 0, &mut tally), Ok(()));
        }
        assert_eq!(tally.clean_rounds, 10);
        assert_eq!(tally.injected(), 0);
        assert_eq!(
            tally,
            FaultStats {
                clean_rounds: 10,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn first_faulty_channel_wins_and_counts_once() {
        let plan = FaultPlan::new(0)
            .channel(1, ChannelFaults::NONE.outage(1, 5))
            .channel(2, ChannelFaults::NONE.outage(1, 5));
        let mut tally = FaultStats::default();
        assert_eq!(
            plan.check_tune_in(3, 0, 0, &mut tally),
            Err(TnnError::ChannelUnavailable {
                channel: 1,
                retry_after: 5
            })
        );
        assert_eq!(tally.outages, 1);
        assert_eq!(tally.clean_rounds, 0);
    }

    #[test]
    fn outage_surfaces_channel_unavailable_with_countdown() {
        let plan = FaultPlan::new(1).channel(1, ChannelFaults::NONE.outage(8, 2));
        let mut tally = FaultStats::default();
        assert_eq!(
            plan.check_tune_in(2, 8, 0, &mut tally),
            Err(TnnError::ChannelUnavailable {
                channel: 1,
                retry_after: 2
            })
        );
        assert_eq!(plan.check_tune_in(2, 8, 2, &mut tally), Ok(()));
    }

    #[test]
    fn drops_report_retry_after_one() {
        let plan = FaultPlan::new(4).channel(0, ChannelFaults::NONE.drop_rate(1000));
        let mut tally = FaultStats::default();
        assert_eq!(
            plan.check_tune_in(2, 0, 0, &mut tally),
            Err(TnnError::ChannelUnavailable {
                channel: 0,
                retry_after: 1
            })
        );
        assert_eq!(tally.drops, 1);
    }

    #[test]
    fn identical_probe_sequences_yield_identical_stats() {
        let plan = FaultPlan::new(77)
            .all_channels(2, ChannelFaults::NONE.drop_rate(200))
            .panic_rate(100);
        let run = |plan: &FaultPlan| {
            let mut tally = FaultStats::default();
            for seq in 0..300 {
                let mut attempt = 0;
                while plan.check_tune_in(2, seq, attempt, &mut tally).is_err() && attempt < 5 {
                    attempt += 1;
                }
                tally.engine_panics += u64::from(plan.engine_panic(seq));
            }
            tally
        };
        let a = run(&plan);
        let b = run(&plan.clone());
        assert_eq!(a, b);
        assert!(a.drops > 0);
        assert!(a.engine_panics > 0);
    }

    /// A kill is booked before the killed job's ticket resolves, so the
    /// tally is exact right after `wait()`.
    #[test]
    fn kills_count() {
        let server = Server::spawn_with_faults(
            env(2),
            ServeConfig::new().workers(1),
            FaultPlan::new(0).kill_at(3),
        );
        for i in 0..5u32 {
            let ticket = server
                .submit(Query::tnn(Point::new(f64::from(i) * 9.0, 20.0)))
                .unwrap();
            let _ = ticket.wait();
            let kills = u64::from(i >= 3);
            assert_eq!(server.fault_stats().unwrap().worker_kills, kills);
        }
        let stats = server.shutdown(ShutdownMode::Drain);
        assert_eq!(stats.worker_restarts, 1);
        assert!(stats.conserved(), "{stats:?}");
    }
}
