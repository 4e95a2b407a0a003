//! Zero-clone per-query phase randomization: [`PhaseOverlay`] and the
//! small-vector storage ([`InlineVec`]) backing it.
//!
//! The paper's experiment methodology draws fresh random phases for every
//! query ("two random numbers are generated to simulate the waiting time
//! to get the two roots"). Re-materializing a [`MultiChannelEnv`] per
//! query — `env.with_phases(&phases)` — allocates a channel vector and
//! touches three `Arc` reference counts per channel, on the hottest path
//! of every batch runner. A `PhaseOverlay` instead *borrows* the shared
//! environment and carries only the substitute phases, handing the query
//! tasks [`ChannelView`]s that fold the phase into the arrival arithmetic
//! directly. Nothing is cloned, and for `k ≤ 4` channels the phases live
//! inline on the stack.

use crate::{Channel, ChannelView, MultiChannelEnv};

/// A small vector with inline storage for up to `N` elements, spilling to
/// the heap beyond that — the storage behind k-ary query state
/// (per-channel phases, per-channel ANN modes) whose common case is tiny
/// (`k = 2` for plain TNN) but whose shape must not hardcode 2.
///
/// Invariant: when `len <= N` the elements live in `inline[..len]` and
/// `spill` is empty; once the length exceeds `N` *all* elements live in
/// `spill`. Building one from a slice of at most `N` elements performs no
/// allocation.
#[derive(Debug, Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Copies `items` in; allocation-free when `items.len() <= N`.
    pub fn from_slice(items: &[T]) -> Self {
        let mut v = InlineVec::new();
        v.extend_from_slice(items);
        v
    }

    /// Appends one element, spilling to the heap at the `N + 1`-th.
    pub fn push(&mut self, item: T) {
        if self.len < N {
            self.inline[self.len] = item;
        } else {
            if self.len == N {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(item);
        }
        self.len += 1;
    }

    /// Copies a slice onto the end.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        for &item in items {
            self.push(item);
        }
    }

    /// Removes all elements, keeping any heap capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(items: &[T]) -> Self {
        InlineVec::from_slice(items)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

/// Per-channel phases with inline storage for up to four channels — the
/// chained-TNN workloads of the evaluation never exceed that, so building
/// one per query costs no allocation.
pub type PhaseVec = InlineVec<u64, 4>;

/// A borrowed [`MultiChannelEnv`] with (optionally) substituted
/// per-channel phases — the zero-clone way to re-randomize root waiting
/// times per query.
///
/// Query pipelines consume the environment exclusively through
/// [`PhaseOverlay::view`]: an [`identity`](PhaseOverlay::identity)
/// overlay hands out each channel's own phase, while
/// [`new`](PhaseOverlay::new) substitutes fresh ones. Either way no
/// channel is cloned and no allocation happens for `k ≤ 4` channels —
/// compare [`MultiChannelEnv::with_phases`], which materializes a new
/// channel vector per call.
#[derive(Debug, Clone)]
pub struct PhaseOverlay<'a> {
    env: &'a MultiChannelEnv,
    phases: Option<PhaseVec>,
}

impl<'a> PhaseOverlay<'a> {
    /// An overlay that changes nothing: every view carries its channel's
    /// own phase.
    pub fn identity(env: &'a MultiChannelEnv) -> Self {
        PhaseOverlay { env, phases: None }
    }

    /// An overlay substituting `phases[i]` for channel `i`'s phase.
    ///
    /// # Panics
    /// Panics when `phases` does not match the channel count (the same
    /// contract as [`MultiChannelEnv::new`] / `with_phases`).
    pub fn new(env: &'a MultiChannelEnv, phases: &[u64]) -> Self {
        assert_eq!(env.len(), phases.len(), "one phase per channel is required");
        PhaseOverlay {
            env,
            phases: Some(PhaseVec::from_slice(phases)),
        }
    }

    /// The borrowed environment.
    #[inline]
    pub fn env(&self) -> &'a MultiChannelEnv {
        self.env
    }

    /// Number of channels.
    #[inline]
    pub fn len(&self) -> usize {
        self.env.len()
    }

    /// `true` when the environment has no channels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.env.is_empty()
    }

    /// The underlying channel `i` (phase *not* substituted — use
    /// [`PhaseOverlay::view`] for query work).
    #[inline]
    pub fn channel(&self, i: usize) -> &'a Channel {
        self.env.channel(i)
    }

    /// The view of channel `i` under this overlay's phase for it.
    #[inline]
    pub fn view(&self, i: usize) -> ChannelView<'a> {
        let channel = self.env.channel(i);
        match &self.phases {
            Some(phases) => channel.view_with_phase(phases[i]),
            None => channel.view(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BroadcastParams;
    use std::sync::Arc;
    use tnn_geom::Point;
    use tnn_rtree::{NodeId, PackingAlgorithm, RTree};

    #[test]
    fn inline_vec_spills_and_preserves_order() {
        let mut v: InlineVec<u64, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(5);
        v.push(6);
        assert_eq!(v.as_slice(), &[5, 6]);
        v.push(7);
        assert_eq!(v.as_slice(), &[5, 6, 7]);
        assert_eq!(v[1], 6);
        let w: InlineVec<u64, 2> = InlineVec::from_slice(&[5, 6, 7]);
        assert_eq!(v, w);
        let mut c = w.clone();
        c.clear();
        assert!(c.is_empty());
        c.extend_from_slice(&[1]);
        assert_eq!(c.as_slice(), &[1]);
        let collected: InlineVec<u64, 2> = (0..4).collect();
        assert_eq!(collected.as_slice(), &[0, 1, 2, 3]);
    }

    fn env(phases: &[u64]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = phases
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let pts: Vec<Point> = (0..30 + i * 7)
                    .map(|j| Point::new((j * 3 % 31) as f64, (j * 5 % 37) as f64))
                    .collect();
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        MultiChannelEnv::new(trees, params, phases)
    }

    #[test]
    fn identity_overlay_uses_channel_phases() {
        let e = env(&[3, 99]);
        let ov = PhaseOverlay::identity(&e);
        assert_eq!(ov.len(), 2);
        assert_eq!(ov.view(0).phase(), 3);
        assert_eq!(ov.view(1).phase(), 99);
    }

    #[test]
    fn overlay_matches_with_phases_arithmetic() {
        let e = env(&[0, 0, 0]);
        let phases = [17u64, 4_321, 999];
        let ov = PhaseOverlay::new(&e, &phases);
        let cloned = e.with_phases(&phases);
        for i in 0..3 {
            for now in [0u64, 11, 777, 50_000] {
                assert_eq!(
                    ov.view(i).next_root_arrival(now),
                    cloned.channel(i).view().next_root_arrival(now),
                    "channel {i} at {now}"
                );
                assert_eq!(
                    ov.view(i).next_node_arrival(NodeId(1), now),
                    cloned.channel(i).view().next_node_arrival(NodeId(1), now)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one phase per channel")]
    fn overlay_checks_phase_count() {
        let e = env(&[0, 0]);
        let _ = PhaseOverlay::new(&e, &[1, 2, 3]);
    }
}
