//! The fault schedule: [`FaultPlan`], [`ChannelFaults`], [`TuneIn`].

/// SplitMix64 finalizer — the same mixer the load harness uses for its
/// deterministic workloads. Every fault decision funnels through this,
/// which is what makes the plan a pure function of its inputs.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One decision word per `(seed, salt, channel, seq, attempt)` tuple.
#[inline]
fn decide(seed: u64, salt: u64, channel: u64, seq: u64, attempt: u32) -> u64 {
    mix(seed ^ mix(salt ^ mix(channel ^ mix(seq ^ mix(attempt as u64)))))
}

const SALT_DROP: u64 = 0xD1;
const SALT_PANIC: u64 = 0xBA;

/// The fault schedule of one broadcast channel.
///
/// All rates are **per mille** (`0..=1000`) so the plan stays `Eq` and
/// hashable (no floats); schedules are expressed in *logical* units (job
/// sequence numbers and retry attempts), never wall-clock time, so the
/// same plan replays identically at any speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ChannelFaults {
    /// Probability (‰) that one tune-in attempt loses the packet — a
    /// transient [`TuneIn::Dropped`]; an immediate retry redraws.
    pub drop_per_mille: u32,
    /// Periodic outage: the channel is dark for jobs whose sequence
    /// number falls in the first `outage_len` positions of every
    /// `outage_period`-wide window. `0` disables outages.
    pub outage_period: u64,
    /// Width of each outage window, in retry attempts: an affected job's
    /// attempt `a` still finds the channel dark while `a` is less than
    /// the remaining window, so [`TuneIn::Outage::retry_after`] counts
    /// down by one per retry and the ladder eventually clears it.
    pub outage_len: u64,
}

impl ChannelFaults {
    /// No faults on this channel.
    pub const NONE: ChannelFaults = ChannelFaults {
        drop_per_mille: 0,
        outage_period: 0,
        outage_len: 0,
    };

    /// Sets the per-tune-in drop probability (‰, clamped to 1000).
    pub fn drop_rate(mut self, per_mille: u32) -> Self {
        self.drop_per_mille = per_mille.min(1000);
        self
    }

    /// Sets a periodic outage: `len` dark positions per `period`-wide
    /// sequence window.
    pub fn outage(mut self, period: u64, len: u64) -> Self {
        self.outage_period = period;
        self.outage_len = len;
        self
    }
}

/// The classified result of one injected tune-in decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuneIn {
    /// Tune-in succeeds.
    Ok,
    /// The packet was lost in transit; retrying immediately redraws.
    Dropped,
    /// The channel is dark; it clears after `retry_after` more attempts.
    Outage {
        /// Remaining attempts until the outage window has passed.
        retry_after: u64,
    },
}

/// A deterministic, seedable fault schedule for one serving run.
///
/// Every decision the plan hands out is a pure function of
/// `(seed, channel, job sequence, attempt)` — replaying the same plan
/// over the same admission sequence injects exactly the same faults,
/// regardless of worker count, machine speed, or wall-clock time. A
/// default plan ([`FaultPlan::none`]) injects nothing.
///
/// ```
/// use tnn_serve::faults::{ChannelFaults, FaultPlan, TuneIn};
///
/// let plan = FaultPlan::new(42)
///     .channel(0, ChannelFaults::NONE.drop_rate(100))
///     .channel(1, ChannelFaults::NONE.outage(16, 3));
/// // Same inputs, same decision — forever.
/// assert_eq!(plan.tune_in(1, 16, 0), plan.tune_in(1, 16, 0));
/// // Channel 1 is dark for the first 3 positions of every 16-wide
/// // window, and each retry attempt counts the outage down by one.
/// assert_eq!(plan.tune_in(1, 16, 0), TuneIn::Outage { retry_after: 3 });
/// assert_eq!(plan.tune_in(1, 16, 2), TuneIn::Outage { retry_after: 1 });
/// assert_eq!(plan.tune_in(1, 16, 3), TuneIn::Ok);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw.
    pub seed: u64,
    /// Per-channel schedules, indexed by channel; channels past the end
    /// of the vector are fault-free.
    pub channels: Vec<ChannelFaults>,
    /// Probability (‰) that a job's engine run panics (keyed by job
    /// sequence; the panic is injected once and the ticket resolves
    /// [`tnn_core::TnnError::Internal`]).
    pub panic_per_mille: u32,
    /// Job sequence numbers whose engine run panics unconditionally.
    pub panic_seqs: Vec<u64>,
    /// Job sequence numbers that hard-kill the executing worker thread
    /// (the panic unwinds the whole micro-batch, exercising respawn).
    pub kill_seqs: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan: injects nothing, ever.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with the given seed and no faults scheduled yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets channel `i`'s fault schedule (growing the table as needed).
    pub fn channel(mut self, i: usize, faults: ChannelFaults) -> Self {
        if self.channels.len() <= i {
            self.channels.resize(i + 1, ChannelFaults::NONE);
        }
        self.channels[i] = faults;
        self
    }

    /// Applies one schedule to every channel in `0..k`.
    pub fn all_channels(mut self, k: usize, faults: ChannelFaults) -> Self {
        for i in 0..k {
            self = self.channel(i, faults);
        }
        self
    }

    /// Sets the engine-panic injection rate (‰, clamped to 1000).
    pub fn panic_rate(mut self, per_mille: u32) -> Self {
        self.panic_per_mille = per_mille.min(1000);
        self
    }

    /// Schedules an unconditional engine panic for job `seq`.
    pub fn panic_at(mut self, seq: u64) -> Self {
        self.panic_seqs.push(seq);
        self
    }

    /// Schedules a worker kill for job `seq`.
    pub fn kill_at(mut self, seq: u64) -> Self {
        self.kill_seqs.push(seq);
        self
    }

    /// The tune-in decision for `(channel, seq, attempt)`: outage first
    /// (a dark channel drops everything), then the per-attempt packet
    /// drop draw.
    pub fn tune_in(&self, channel: usize, seq: u64, attempt: u32) -> TuneIn {
        let Some(spec) = self.channels.get(channel) else {
            return TuneIn::Ok;
        };
        if spec.outage_period > 0 && spec.outage_len > 0 {
            let pos = seq % spec.outage_period;
            let left = spec.outage_len.saturating_sub(pos);
            if left > u64::from(attempt) {
                return TuneIn::Outage {
                    retry_after: left - u64::from(attempt),
                };
            }
        }
        if spec.drop_per_mille > 0
            && decide(self.seed, SALT_DROP, channel as u64, seq, attempt) % 1000
                < u64::from(spec.drop_per_mille)
        {
            return TuneIn::Dropped;
        }
        TuneIn::Ok
    }

    /// `true` when job `seq`'s engine run should panic (scheduled
    /// explicitly or drawn from [`FaultPlan::panic_per_mille`]).
    pub fn engine_panic(&self, seq: u64) -> bool {
        self.panic_seqs.contains(&seq)
            || (self.panic_per_mille > 0
                && decide(self.seed, SALT_PANIC, 0, seq, 0) % 1000
                    < u64::from(self.panic_per_mille))
    }

    /// `true` when picking up job `seq` should kill the worker thread.
    /// Kill injection is list-only (no rate): which *other* jobs a dying
    /// worker abandons depends on micro-batch composition, so kills are
    /// the one fault whose side effects are not replay-deterministic —
    /// keeping the list explicit keeps chaos runs interpretable.
    pub fn worker_kill(&self, seq: u64) -> bool {
        self.kill_seqs.contains(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_never_faults() {
        let plan = FaultPlan::none();
        for seq in 0..100 {
            for ch in 0..4 {
                assert_eq!(plan.tune_in(ch, seq, 0), TuneIn::Ok);
            }
            assert!(!plan.engine_panic(seq));
            assert!(!plan.worker_kill(seq));
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let plan = FaultPlan::new(7)
            .all_channels(3, ChannelFaults::NONE.drop_rate(300))
            .channel(1, ChannelFaults::NONE.outage(8, 2))
            .panic_rate(50);
        let replay = plan.clone();
        for seq in 0..200 {
            for ch in 0..3 {
                for attempt in 0..4 {
                    assert_eq!(
                        plan.tune_in(ch, seq, attempt),
                        replay.tune_in(ch, seq, attempt)
                    );
                }
            }
            assert_eq!(plan.engine_panic(seq), replay.engine_panic(seq));
        }
    }

    #[test]
    fn different_seeds_draw_different_faults() {
        let a = FaultPlan::new(1).all_channels(1, ChannelFaults::NONE.drop_rate(500));
        let b = FaultPlan::new(2).all_channels(1, ChannelFaults::NONE.drop_rate(500));
        let diverges = (0..64).any(|seq| a.tune_in(0, seq, 0) != b.tune_in(0, seq, 0));
        assert!(diverges);
    }

    #[test]
    fn drop_rate_is_roughly_calibrated() {
        let plan = FaultPlan::new(99).all_channels(1, ChannelFaults::NONE.drop_rate(250));
        let drops = (0..4000)
            .filter(|&seq| plan.tune_in(0, seq, 0) == TuneIn::Dropped)
            .count();
        // 250‰ of 4000 = 1000 expected; allow a generous band.
        assert!((700..1300).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn outages_count_down_by_attempt_and_clear() {
        let plan = FaultPlan::new(0).channel(0, ChannelFaults::NONE.outage(10, 3));
        // seq 10 is position 0 of its window: 3 attempts of darkness.
        assert_eq!(plan.tune_in(0, 10, 0), TuneIn::Outage { retry_after: 3 });
        assert_eq!(plan.tune_in(0, 10, 1), TuneIn::Outage { retry_after: 2 });
        assert_eq!(plan.tune_in(0, 10, 2), TuneIn::Outage { retry_after: 1 });
        assert_eq!(plan.tune_in(0, 10, 3), TuneIn::Ok);
        // seq 12 is position 2: one attempt of darkness left.
        assert_eq!(plan.tune_in(0, 12, 0), TuneIn::Outage { retry_after: 1 });
        assert_eq!(plan.tune_in(0, 12, 1), TuneIn::Ok);
        // seq 13 is clear from the start.
        assert_eq!(plan.tune_in(0, 13, 0), TuneIn::Ok);
    }

    #[test]
    fn builder_round_trip() {
        let plan = FaultPlan::new(5)
            .channel(2, ChannelFaults::NONE.drop_rate(2000))
            .panic_at(3)
            .kill_at(4)
            .panic_rate(1);
        assert_eq!(plan.seed, 5);
        assert_eq!(plan.channels.len(), 3);
        assert_eq!(plan.channels[2].drop_per_mille, 1000); // clamped
        assert_eq!(plan.channels[0], ChannelFaults::NONE);
        assert_eq!(plan.panic_seqs, vec![3]);
        assert_eq!(plan.kill_seqs, vec![4]);
        assert!(plan.engine_panic(3));
        assert!(plan.worker_kill(4));
        assert!(!plan.worker_kill(3));
    }
}
