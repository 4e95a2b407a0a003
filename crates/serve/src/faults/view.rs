//! [`FaultyChannelView`]: a [`ChannelView`] that can fail to tune in.

use crate::faults::plan::{FaultPlan, TuneIn};
use tnn_broadcast::ChannelView;
use tnn_core::TnnError;
use tnn_rtree::{NodeId, ObjectId};

/// A borrowed view of one broadcast channel under a [`FaultPlan`]: the
/// fallible twin of [`ChannelView`].
///
/// Where a plain view's arrival arithmetic always succeeds, a faulty
/// view first consults the plan's tune-in decision for its
/// `(channel, seq, attempt)` context: an injected drop or outage
/// surfaces as the recoverable [`TnnError::ChannelUnavailable`] (with
/// `retry_after` telling the caller how many attempts until the channel
/// clears), and a successful tune-in adds the plan's drawn arrival
/// jitter — the client waited longer, the answer is unchanged. Under a
/// zero plan every method agrees exactly with the wrapped view.
///
/// ```
/// # use std::sync::Arc;
/// # use tnn_broadcast::{BroadcastParams, Channel};
/// # use tnn_geom::Point;
/// # use tnn_rtree::{PackingAlgorithm, RTree};
/// use tnn_core::TnnError;
/// use tnn_serve::faults::{ChannelFaults, FaultPlan, FaultyChannelView};
///
/// # let params = BroadcastParams::new(64);
/// # let pts: Vec<Point> =
/// #     (0..40).map(|i| Point::new((i * 7 % 53) as f64, (i * 11 % 59) as f64)).collect();
/// # let tree = Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
/// # let channel = Channel::new(tree, params, 3);
/// let plan = FaultPlan::new(9).channel(0, ChannelFaults::NONE.outage(4, 2));
/// // seq 4 lands on an outage: tune-in fails recoverably…
/// let dark = FaultyChannelView::new(channel.view(), &plan, 0, 4, 0);
/// assert_eq!(
///     dark.try_next_root_arrival(0),
///     Err(TnnError::ChannelUnavailable { channel: 0, retry_after: 2 }),
/// );
/// // …and two attempts later the same job tunes in fine.
/// let clear = FaultyChannelView::new(channel.view(), &plan, 0, 4, 2);
/// assert_eq!(clear.try_next_root_arrival(0), Ok(channel.next_root_arrival(0)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FaultyChannelView<'a> {
    view: ChannelView<'a>,
    plan: &'a FaultPlan,
    channel: usize,
    seq: u64,
    attempt: u32,
}

impl<'a> FaultyChannelView<'a> {
    /// Wraps `view` as channel `channel` of `plan`, for attempt
    /// `attempt` of the job with sequence number `seq`.
    pub fn new(
        view: ChannelView<'a>,
        plan: &'a FaultPlan,
        channel: usize,
        seq: u64,
        attempt: u32,
    ) -> Self {
        FaultyChannelView {
            view,
            plan,
            channel,
            seq,
            attempt,
        }
    }

    /// The wrapped (infallible) view.
    #[inline]
    pub fn inner(&self) -> ChannelView<'a> {
        self.view
    }

    /// The channel index this view injects faults for.
    #[inline]
    pub fn channel_index(&self) -> usize {
        self.channel
    }

    /// The plan's tune-in decision for this view's context. Pure: the
    /// same view context always classifies the same way.
    #[inline]
    pub fn decision(&self) -> TuneIn {
        self.plan.tune_in(self.channel, self.seq, self.attempt)
    }

    /// The fault this view injects, if any: `ChannelUnavailable` with
    /// `retry_after = 1` for a transient drop (an immediate retry
    /// redraws) or the remaining outage width for a dark channel, plus
    /// the jitter a successful tune-in pays.
    #[inline]
    fn gate(&self) -> Result<u64, TnnError> {
        match self.decision() {
            TuneIn::Ok { jitter } => Ok(jitter),
            TuneIn::Dropped => Err(TnnError::ChannelUnavailable {
                channel: self.channel,
                retry_after: 1,
            }),
            TuneIn::Outage { retry_after } => Err(TnnError::ChannelUnavailable {
                channel: self.channel,
                retry_after,
            }),
        }
    }

    /// Fallible [`ChannelView::next_node_arrival`]: the injected jitter
    /// delays the observed arrival; a drop or outage fails recoverably.
    pub fn try_next_node_arrival(&self, node: NodeId, now: u64) -> Result<u64, TnnError> {
        let jitter = self.gate()?;
        Ok(self.view.next_node_arrival(node, now) + jitter)
    }

    /// Fallible [`ChannelView::next_root_arrival`].
    pub fn try_next_root_arrival(&self, now: u64) -> Result<u64, TnnError> {
        self.try_next_node_arrival(NodeId::ROOT, now)
    }

    /// Fallible [`ChannelView::retrieve_object`]: jitter delays the
    /// download start; a drop or outage fails recoverably.
    pub fn try_retrieve_object(&self, object: ObjectId, now: u64) -> Result<(u64, u64), TnnError> {
        let jitter = self.gate()?;
        Ok(self.view.retrieve_object(object, now + jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::plan::ChannelFaults;
    use std::sync::Arc;
    use tnn_broadcast::{BroadcastParams, Channel};
    use tnn_geom::Point;
    use tnn_rtree::{PackingAlgorithm, RTree};

    fn channel(phase: u64) -> Channel {
        let params = BroadcastParams::new(64);
        let pts: Vec<Point> = (0..48)
            .map(|i| Point::new((i * 7 % 113) as f64, (i * 13 % 127) as f64))
            .collect();
        let tree = RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap();
        Channel::new(Arc::new(tree), params, phase)
    }

    #[test]
    fn zero_plan_view_agrees_with_wrapped_view() {
        let ch = channel(17);
        let plan = FaultPlan::none();
        let object = ch.tree().objects_in_leaf_order().next().unwrap().1;
        for seq in [0u64, 5, 99] {
            let faulty = FaultyChannelView::new(ch.view(), &plan, 0, seq, 0);
            for now in [0u64, 9, 500, 44_444] {
                assert_eq!(
                    faulty.try_next_root_arrival(now),
                    Ok(ch.next_root_arrival(now))
                );
                assert_eq!(
                    faulty.try_next_node_arrival(NodeId(1), now),
                    Ok(ch.next_node_arrival(NodeId(1), now))
                );
                assert_eq!(
                    faulty.try_retrieve_object(object, now),
                    Ok(ch.retrieve_object(object, now))
                );
            }
        }
    }

    #[test]
    fn outage_surfaces_channel_unavailable_with_countdown() {
        let ch = channel(0);
        let plan = FaultPlan::new(1).channel(3, ChannelFaults::NONE.outage(8, 2));
        let dark = FaultyChannelView::new(ch.view(), &plan, 3, 8, 0);
        assert_eq!(
            dark.try_next_root_arrival(0),
            Err(TnnError::ChannelUnavailable {
                channel: 3,
                retry_after: 2
            })
        );
        assert_eq!(dark.channel_index(), 3);
        let clear = FaultyChannelView::new(ch.view(), &plan, 3, 8, 2);
        assert_eq!(clear.try_next_root_arrival(0), Ok(ch.next_root_arrival(0)));
    }

    #[test]
    fn drops_report_retry_after_one() {
        let ch = channel(0);
        let plan = FaultPlan::new(4).channel(0, ChannelFaults::NONE.drop_rate(1000));
        let view = FaultyChannelView::new(ch.view(), &plan, 0, 0, 0);
        assert_eq!(
            view.try_next_root_arrival(10),
            Err(TnnError::ChannelUnavailable {
                channel: 0,
                retry_after: 1
            })
        );
    }

    #[test]
    fn jitter_delays_arrivals_but_never_reorders_before_now() {
        let ch = channel(5);
        let plan = FaultPlan::new(8).channel(0, ChannelFaults::NONE.jitter(32));
        let mut delayed = false;
        for seq in 0..50 {
            let view = FaultyChannelView::new(ch.view(), &plan, 0, seq, 0);
            let plain = ch.next_root_arrival(100);
            let jittered = view.try_next_root_arrival(100).unwrap();
            assert!(jittered >= plain);
            assert!(jittered <= plain + 32);
            delayed |= jittered > plain;
        }
        assert!(delayed);
    }
}
