//! The vocabulary a [`Query`](crate::Query) is described in: the TNN
//! algorithm and the per-channel ANN specification.

use crate::AnnMode;
use tnn_broadcast::InlineVec;

/// The TNN query-processing algorithm to run (paper §3–§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Window-Based-TNN-Search \[19\], adapted to multi-channel: NN of `p`
    /// in `S`, then NN of that `s` in `R` (sequential estimate), parallel
    /// filter phase.
    WindowBased,
    /// Approximate-TNN-Search \[19\]: search radius computed from the
    /// uniform-density formula (eq. 1); skips the estimate-phase index
    /// searches entirely but may fail on skewed data.
    ApproximateTnn,
    /// Double-NN-Search (§4.1, Algorithm 1): both NN queries run from `p`
    /// in parallel as soon as the roots appear.
    DoubleNn,
    /// Hybrid-NN-Search (§4.2, Algorithm 2): like Double-NN, but the
    /// search finishing first re-targets the other (query-point switch or
    /// transitive-metric switch) to shrink the search range.
    HybridNn,
}

impl Algorithm {
    /// All four algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::WindowBased,
        Algorithm::ApproximateTnn,
        Algorithm::DoubleNn,
        Algorithm::HybridNn,
    ];

    /// Short human-readable name (matches the paper's figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::WindowBased => "Window-Based-TNN",
            Algorithm::ApproximateTnn => "Approximate-TNN",
            Algorithm::DoubleNn => "Double-NN",
            Algorithm::HybridNn => "Hybrid-NN",
        }
    }

    /// `true` for the algorithms that always return the correct answer
    /// (everything except Approximate-TNN, see Table 3).
    pub fn is_exact(&self) -> bool {
        !matches!(self, Algorithm::ApproximateTnn)
    }
}

/// How a query chooses ANN modes without committing to a channel count:
/// either one mode for every channel (whatever `k` turns out to be) or an
/// explicit per-channel list that must match `k` exactly.
///
/// This is what [`Query`](crate::Query) carries; it resolves against the
/// engine's channel count at execution time via [`AnnSpec::mode`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnnSpec {
    /// The same mode on every channel, independent of channel count.
    Uniform(AnnMode),
    /// One explicit mode per channel, length-checked against the
    /// environment at execution time (inline up to two channels).
    PerChannel(InlineVec<AnnMode, 2>),
}

impl AnnSpec {
    /// Verifies this spec fits a `k`-channel environment.
    ///
    /// # Panics
    /// Panics when a [`AnnSpec::PerChannel`] list has the wrong length
    /// (the same contract as [`MultiChannelEnv::new`]'s phase check).
    ///
    /// [`MultiChannelEnv::new`]: tnn_broadcast::MultiChannelEnv::new
    pub fn check_channels(&self, k: usize) {
        if let AnnSpec::PerChannel(modes) = self {
            assert_eq!(modes.len(), k, "one ANN mode per channel is required");
        }
    }

    /// The mode for channel `i` (call [`AnnSpec::check_channels`] first).
    #[inline]
    pub fn mode(&self, i: usize) -> AnnMode {
        match self {
            AnnSpec::Uniform(mode) => *mode,
            AnnSpec::PerChannel(modes) => modes[i],
        }
    }
}

impl Default for AnnSpec {
    fn default() -> Self {
        AnnSpec::Uniform(AnnMode::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, QueryKind};
    use tnn_geom::Point;

    #[test]
    fn names_and_exactness() {
        assert_eq!(Algorithm::DoubleNn.name(), "Double-NN");
        assert!(Algorithm::DoubleNn.is_exact());
        assert!(Algorithm::WindowBased.is_exact());
        assert!(Algorithm::HybridNn.is_exact());
        assert!(!Algorithm::ApproximateTnn.is_exact());
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn config_builders() {
        let q = Query::tnn(Point::ORIGIN)
            .algorithm(Algorithm::DoubleNn)
            .ann_modes(&[AnnMode::Exact, AnnMode::Dynamic { factor: 1.0 }]);
        assert_eq!(q.kind(), QueryKind::Tnn(Algorithm::DoubleNn));
        q.ann_spec().check_channels(2);
        assert_eq!(q.ann_spec().mode(0), AnnMode::Exact);
        assert_eq!(q.ann_spec().mode(1), AnnMode::Dynamic { factor: 1.0 });
        assert!(q.retrieves_answer_objects());
    }

    #[test]
    fn k_ary_modes_for_chained_queries() {
        let modes = [
            AnnMode::Exact,
            AnnMode::Dynamic { factor: 0.5 },
            AnnMode::Fixed { alpha: 0.1 },
        ];
        let q = Query::tnn(Point::ORIGIN)
            .algorithm(Algorithm::DoubleNn)
            .ann_modes(&modes);
        assert_eq!(
            q.ann_spec(),
            &AnnSpec::PerChannel(InlineVec::from_slice(&modes))
        );
        q.ann_spec().check_channels(3);
        for (i, mode) in modes.iter().enumerate() {
            assert_eq!(q.ann_spec().mode(i), *mode);
        }
    }

    #[test]
    #[should_panic(expected = "at least one ANN mode")]
    fn empty_ann_modes_panic() {
        let _ = Query::tnn(Point::ORIGIN).ann_modes(&[]);
    }

    #[test]
    fn ann_spec_resolution() {
        let uniform = AnnSpec::Uniform(AnnMode::Dynamic { factor: 1.0 });
        uniform.check_channels(5);
        assert_eq!(uniform.mode(3), AnnMode::Dynamic { factor: 1.0 });

        let per = AnnSpec::PerChannel(InlineVec::from_slice(&[
            AnnMode::Exact,
            AnnMode::Fixed { alpha: 0.2 },
        ]));
        per.check_channels(2);
        assert_eq!(per.mode(1), AnnMode::Fixed { alpha: 0.2 });
        assert_eq!(AnnSpec::default().mode(0), AnnMode::Exact);
    }

    #[test]
    #[should_panic(expected = "one ANN mode per channel")]
    fn ann_spec_checks_channel_count() {
        AnnSpec::PerChannel(InlineVec::from_slice(&[AnnMode::Exact; 2])).check_channels(3);
    }
}
