//! The multi-channel access environment: several broadcast channels
//! observable simultaneously by one client.

use crate::{BroadcastParams, Channel};
use std::sync::Arc;
use tnn_rtree::{fingerprint, RTree};

/// A set of co-existing broadcast channels, one dataset each, that a
/// multi-radio mobile client can monitor **simultaneously** — the paper's
/// central premise ("a mobile device has the ability to process queries
/// using the information simultaneously received from multiple channels").
///
/// A TNN query uses two channels (S on channel 0, R on channel 1); the
/// chained-TNN extension uses one channel per dataset. The channel count
/// `k` is a first-class parameter: nothing in the environment is
/// specialized to two channels.
///
/// The channel list is held behind an `Arc`, so **cloning an environment
/// is O(1)** — one atomic increment, no per-channel work. Query engines,
/// worker threads, and (future) async executors can each hold their own
/// handle to one shared environment. Per-query phase randomization goes
/// through [`crate::PhaseOverlay`], which borrows the environment and
/// clones nothing.
///
/// # Epochs and mutation
///
/// Environments are **versioned snapshots**: every value is immutable,
/// and a data update produces a *new* environment via
/// [`MultiChannelEnv::advance`] / [`MultiChannelEnv::advance_channel`]
/// with the [`MultiChannelEnv::epoch`] bumped. In-flight readers keep
/// their clone (and thus a consistent view) while writers publish the
/// next snapshot — the `Arc<[Channel]>` machinery makes both sides O(1)
/// apart from the replaced channels themselves. The epoch together with
/// the content [`MultiChannelEnv::fingerprint`] is the environment's
/// cache identity: `QueryKey` in `tnn-core` folds both, so result-cache
/// entries from a replaced environment can never be served again.
#[derive(Debug, Clone)]
pub struct MultiChannelEnv {
    channels: Arc<[Channel]>,
    /// Mutation counter: 0 at construction, +1 per `advance*` call.
    epoch: u64,
    /// Content identity folded over every channel (see `fingerprint()`).
    fingerprint: u64,
}

/// Folds the channel count plus every channel's `(content, phase)` pair.
/// The phases belong here (not in the per-channel fingerprint): they are
/// environment-level schedule alignment, and they change query outcomes
/// whenever a query does not override them.
fn fingerprint_of(channels: &[Channel]) -> u64 {
    fingerprint(
        std::iter::once(channels.len() as u64)
            .chain(channels.iter().flat_map(|c| [c.fingerprint(), c.phase()])),
    )
}

impl MultiChannelEnv {
    /// Builds an environment broadcasting each tree on its own channel
    /// with the given phase offsets. A fresh environment starts at epoch
    /// 0.
    ///
    /// # Panics
    /// Panics when `trees` and `phases` differ in length.
    pub fn new(trees: Vec<Arc<RTree>>, params: BroadcastParams, phases: &[u64]) -> Self {
        assert_eq!(
            trees.len(),
            phases.len(),
            "one phase per channel is required"
        );
        let channels: Vec<Channel> = trees
            .into_iter()
            .zip(phases)
            .map(|(tree, &phase)| Channel::new(tree, params, phase))
            .collect();
        let fingerprint = fingerprint_of(&channels);
        MultiChannelEnv {
            channels: channels.into(),
            epoch: 0,
            fingerprint,
        }
    }

    /// The channels, in dataset order.
    #[inline]
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Channel `i`.
    #[inline]
    pub fn channel(&self, i: usize) -> &Channel {
        &self.channels[i]
    }

    /// Number of channels.
    #[inline]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// A copy of the environment with different per-channel phases —
    /// O(channels), sharing all trees and layouts but materializing a new
    /// channel list.
    ///
    /// Prefer [`crate::PhaseOverlay`] on hot paths: it borrows this
    /// environment and threads the substitute phases into the query tasks
    /// directly, cloning nothing per query.
    ///
    /// # Panics
    /// Panics when `phases` does not match the channel count.
    pub fn with_phases(&self, phases: &[u64]) -> Self {
        assert_eq!(
            self.channels.len(),
            phases.len(),
            "one phase per channel is required"
        );
        let channels: Vec<Channel> = self
            .channels
            .iter()
            .zip(phases)
            .map(|(c, &p)| c.with_phase(p))
            .collect();
        let fingerprint = fingerprint_of(&channels);
        MultiChannelEnv {
            channels: channels.into(),
            // Re-phasing is not a data mutation: the epoch carries over,
            // but the fingerprint reflects the new alignment (phases
            // change outcomes for queries without a phase override).
            epoch: self.epoch,
            fingerprint,
        }
    }

    /// `true` when the environment has no channels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// The environment's mutation epoch: 0 for a freshly built
    /// environment, incremented by every [`MultiChannelEnv::advance`] /
    /// [`MultiChannelEnv::advance_channel`]. Together with
    /// [`MultiChannelEnv::fingerprint`] this is the identity caches fold
    /// into their keys.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A deterministic 64-bit identity of the environment's **content**:
    /// channel count plus every channel's data fingerprint and phase.
    /// Two environments broadcasting the same datasets under the same
    /// parameters and phases share a fingerprint even across processes.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The next snapshot: every channel's dataset replaced by the
    /// corresponding tree, keeping each channel's parameters and phase,
    /// with the epoch bumped. Readers holding a clone of `self` are
    /// unaffected — this is the writer half of the epoch-versioned
    /// snapshot contract.
    ///
    /// # Panics
    /// Panics when `trees` does not match the channel count.
    pub fn advance(&self, trees: Vec<Arc<RTree>>) -> Self {
        assert_eq!(
            self.channels.len(),
            trees.len(),
            "one tree per channel is required"
        );
        let channels: Vec<Channel> = self
            .channels
            .iter()
            .zip(trees)
            .map(|(c, tree)| Channel::new(tree, *c.params(), c.phase()))
            .collect();
        let fingerprint = fingerprint_of(&channels);
        MultiChannelEnv {
            channels: channels.into(),
            epoch: self.epoch + 1,
            fingerprint,
        }
    }

    /// The next snapshot with only channel `i`'s dataset replaced —
    /// every other channel is shared (O(1) per untouched channel), the
    /// epoch is bumped. The common churn path: one dataset's broadcast
    /// cycle is re-cut while the rest stay on air.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn advance_channel(&self, i: usize, tree: Arc<RTree>) -> Self {
        assert!(i < self.channels.len(), "channel index out of range");
        let channels: Vec<Channel> = self
            .channels
            .iter()
            .enumerate()
            .map(|(j, c)| {
                if j == i {
                    Channel::new(Arc::clone(&tree), *c.params(), c.phase())
                } else {
                    c.clone()
                }
            })
            .collect();
        let fingerprint = fingerprint_of(&channels);
        MultiChannelEnv {
            channels: channels.into(),
            epoch: self.epoch + 1,
            fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_geom::Point;
    use tnn_rtree::PackingAlgorithm;

    fn tree(n: usize, params: &BroadcastParams) -> Arc<RTree> {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i * 3 % 31) as f64, (i * 5 % 37) as f64))
            .collect();
        Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
    }

    #[test]
    fn builds_one_channel_per_tree() {
        let params = BroadcastParams::new(64);
        let env =
            MultiChannelEnv::new(vec![tree(20, &params), tree(50, &params)], params, &[3, 99]);
        assert_eq!(env.len(), 2);
        assert!(!env.is_empty());
        assert_eq!(env.channel(0).phase(), 3);
        assert_eq!(env.channel(1).phase(), 99);
        assert_eq!(env.channel(0).tree().num_objects(), 20);
        assert_eq!(env.channel(1).tree().num_objects(), 50);
    }

    #[test]
    #[should_panic(expected = "one phase per channel")]
    fn mismatched_phases_panic() {
        let params = BroadcastParams::new(64);
        MultiChannelEnv::new(vec![tree(10, &params)], params, &[1, 2]);
    }

    #[test]
    fn clone_shares_the_channel_list() {
        let params = BroadcastParams::new(64);
        let env =
            MultiChannelEnv::new(vec![tree(20, &params), tree(50, &params)], params, &[3, 99]);
        let copy = env.clone();
        // O(1) clone: both handles point at the same channel slice.
        assert!(std::ptr::eq(env.channels(), copy.channels()));
        // with_phases produces an independent list (the legacy copying
        // path) without touching the original.
        let rephased = env.with_phases(&[7, 8]);
        assert!(!std::ptr::eq(env.channels(), rephased.channels()));
        assert_eq!(env.channel(0).phase(), 3);
        assert_eq!(rephased.channel(0).phase(), 7);
    }

    #[test]
    fn advance_bumps_the_epoch_and_changes_the_fingerprint() {
        let params = BroadcastParams::new(64);
        let env =
            MultiChannelEnv::new(vec![tree(20, &params), tree(50, &params)], params, &[3, 99]);
        assert_eq!(env.epoch(), 0);
        let next = env.advance_channel(0, tree(21, &params));
        assert_eq!(next.epoch(), 1);
        assert_ne!(next.fingerprint(), env.fingerprint());
        // The untouched channel is shared, phases and params carry over.
        assert!(std::ptr::eq(
            env.channel(1).tree_arc().as_ref(),
            next.channel(1).tree_arc().as_ref()
        ));
        assert_eq!(next.channel(0).phase(), 3);
        assert_eq!(next.channel(1).phase(), 99);
        // The reader's snapshot is untouched.
        assert_eq!(env.epoch(), 0);
        assert_eq!(env.channel(0).tree().num_objects(), 20);
        // A whole-environment advance replaces every channel.
        let all = next.advance(vec![tree(5, &params), tree(6, &params)]);
        assert_eq!(all.epoch(), 2);
        assert_eq!(all.channel(0).tree().num_objects(), 5);
        assert_eq!(all.channel(1).tree().num_objects(), 6);
    }

    #[test]
    fn fingerprint_tracks_content_and_phases() {
        let params = BroadcastParams::new(64);
        let a = MultiChannelEnv::new(vec![tree(20, &params), tree(50, &params)], params, &[3, 99]);
        let b = MultiChannelEnv::new(vec![tree(20, &params), tree(50, &params)], params, &[3, 99]);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same data, params, phases → same identity"
        );
        // An advance to *identical* trees still changes the epoch, so
        // the (epoch, fingerprint) pair stays distinct even though the
        // content identity matches.
        let same = a.advance(vec![tree(20, &params), tree(50, &params)]);
        assert_eq!(same.fingerprint(), a.fingerprint());
        assert_eq!(same.epoch(), 1);
        // Re-phasing changes the fingerprint but not the epoch.
        let rephased = a.with_phases(&[4, 99]);
        assert_eq!(rephased.epoch(), 0);
        assert_ne!(rephased.fingerprint(), a.fingerprint());
        // Different data changes the fingerprint.
        let other =
            MultiChannelEnv::new(vec![tree(21, &params), tree(50, &params)], params, &[3, 99]);
        assert_ne!(other.fingerprint(), a.fingerprint());
    }

    /// The fingerprint values themselves, pinned: nothing persists them,
    /// but a change to the fold or to what it covers should be a
    /// deliberate edit of these constants, not a side effect.
    #[test]
    fn fingerprint_values_are_pinned() {
        let params = BroadcastParams::new(64);
        let small = tree(20, &params);
        assert_eq!(small.content_fingerprint(), 0x63af_7a2b_5b2e_3ff4);
        let env = MultiChannelEnv::new(vec![small, tree(50, &params)], params, &[3, 99]);
        assert_eq!(env.fingerprint(), 0x1606_23da_1720_655f);
    }

    #[test]
    #[should_panic(expected = "one tree per channel")]
    fn mismatched_advance_panics() {
        let params = BroadcastParams::new(64);
        let env = MultiChannelEnv::new(vec![tree(10, &params)], params, &[1]);
        env.advance(vec![tree(10, &params), tree(10, &params)]);
    }

    #[test]
    fn channels_are_independent_programs() {
        let params = BroadcastParams::new(64);
        let env =
            MultiChannelEnv::new(vec![tree(20, &params), tree(500, &params)], params, &[0, 0]);
        assert_ne!(
            env.channel(0).layout().cycle_len(),
            env.channel(1).layout().cycle_len()
        );
    }
}
