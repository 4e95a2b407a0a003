//! Query-execution configuration.

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

/// Per-channel ANN pruning modes — k-ary, length-checked storage with an
/// inline fast path for the common two-channel case (no allocation up to
/// `k = 2`).
///
/// Dereferences to `[AnnMode]`, so indexing (`modes[0]`), iteration, and
/// `len()` all work as on a slice.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnnModes(InlineVec<AnnMode, 2>);

impl AnnModes {
    /// Exact (eNN) search on every one of `k` channels.
    pub fn exact(k: usize) -> Self {
        AnnModes::uniform(AnnMode::Exact, k)
    }

    /// The same `mode` on every one of `k` channels.
    pub fn uniform(mode: AnnMode, k: usize) -> Self {
        AnnModes((0..k).map(|_| mode).collect())
    }

    /// Copies per-channel modes in (allocation-free for `k ≤ 2`).
    ///
    /// # Panics
    /// Panics on an empty slice — every channel needs a mode.
    pub fn from_slice(modes: &[AnnMode]) -> Self {
        assert!(!modes.is_empty(), "at least one ANN mode is required");
        AnnModes(InlineVec::from_slice(modes))
    }

    /// The modes as a slice.
    pub fn as_slice(&self) -> &[AnnMode] {
        self.0.as_slice()
    }
}

impl std::ops::Deref for AnnModes {
    type Target = [AnnMode];
    fn deref(&self) -> &[AnnMode] {
        self.0.as_slice()
    }
}

impl From<[AnnMode; 2]> for AnnModes {
    fn from(modes: [AnnMode; 2]) -> Self {
        AnnModes::from_slice(&modes)
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
    /// environment at execution time.
    PerChannel(AnnModes),
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

    /// Materializes the per-channel modes for a `k`-channel environment.
    ///
    /// # Panics
    /// As [`AnnSpec::check_channels`].
    pub fn modes(&self, k: usize) -> AnnModes {
        self.check_channels(k);
        match self {
            AnnSpec::Uniform(mode) => AnnModes::uniform(*mode, k),
            AnnSpec::PerChannel(modes) => modes.clone(),
        }
    }
}

impl Default for AnnSpec {
    fn default() -> Self {
        AnnSpec::Uniform(AnnMode::Exact)
    }
}

/// Full configuration of one TNN query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TnnConfig {
    /// Which algorithm to run.
    pub algorithm: Algorithm,
    /// ANN pruning mode per channel (`ann[0]` for the `S` channel,
    /// `ann[1]` for the `R` channel, and so on for chained queries).
    /// [`AnnMode::Exact`] everywhere reproduces the eNN behaviour of
    /// §6.1; the §6.2 experiments mix exact and dynamic modes per dataset
    /// density. The length must match the environment's channel count at
    /// execution time.
    pub ann: AnnModes,
    /// When `true` (paper model), the client finally wakes up to download
    /// the data pages of the answer objects; their cost is included in
    /// both metrics.
    pub retrieve_answer_objects: bool,
}

impl TnnConfig {
    /// Configuration for `algorithm` with exact (eNN) search on both
    /// channels of the paper's two-channel TNN query and final object
    /// retrieval on. For `k > 2` channels use [`TnnConfig::exact_for`].
    pub fn exact(algorithm: Algorithm) -> Self {
        TnnConfig::exact_for(algorithm, 2)
    }

    /// Configuration for `algorithm` over a `k`-channel environment with
    /// exact (eNN) search on every channel and final object retrieval on.
    pub fn exact_for(algorithm: Algorithm, k: usize) -> Self {
        TnnConfig {
            algorithm,
            ann: AnnModes::exact(k),
            retrieve_answer_objects: true,
        }
    }

    /// Same configuration with the given per-channel ANN modes — k-ary:
    /// one entry per channel, in channel order.
    ///
    /// # Panics
    /// Panics on an empty slice; a length mismatch against the
    /// environment's channel count panics at execution time (the same
    /// contract as [`MultiChannelEnv::new`]'s phase check).
    ///
    /// [`MultiChannelEnv::new`]: tnn_broadcast::MultiChannelEnv::new
    pub fn with_ann_modes(mut self, modes: &[AnnMode]) -> Self {
        self.ann = AnnModes::from_slice(modes);
        self
    }
}

impl Default for TnnConfig {
    fn default() -> Self {
        TnnConfig::exact(Algorithm::HybridNn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let c = TnnConfig::exact(Algorithm::DoubleNn)
            .with_ann_modes(&[AnnMode::Exact, AnnMode::Dynamic { factor: 1.0 }]);
        assert_eq!(c.algorithm, Algorithm::DoubleNn);
        assert_eq!(c.ann[0], AnnMode::Exact);
        assert_eq!(c.ann[1], AnnMode::Dynamic { factor: 1.0 });
        assert_eq!(c.ann.len(), 2);
        assert!(c.retrieve_answer_objects);
    }

    #[test]
    fn exact_for_builds_k_channel_configs() {
        let c = TnnConfig::exact_for(Algorithm::HybridNn, 4);
        assert_eq!(c.ann.len(), 4);
        assert!(c.ann.iter().all(|m| *m == AnnMode::Exact));
        assert_eq!(TnnConfig::exact(Algorithm::HybridNn).ann.len(), 2);
    }

    #[test]
    fn k_ary_modes_for_chained_queries() {
        let modes = [
            AnnMode::Exact,
            AnnMode::Dynamic { factor: 0.5 },
            AnnMode::Fixed { alpha: 0.1 },
        ];
        let c = TnnConfig::exact(Algorithm::DoubleNn).with_ann_modes(&modes);
        assert_eq!(c.ann.len(), 3);
        assert_eq!(c.ann.as_slice(), &modes);
    }

    #[test]
    #[should_panic(expected = "at least one ANN mode")]
    fn empty_ann_modes_panic() {
        let _ = TnnConfig::default().with_ann_modes(&[]);
    }

    #[test]
    fn ann_spec_resolution() {
        let uniform = AnnSpec::Uniform(AnnMode::Dynamic { factor: 1.0 });
        uniform.check_channels(5);
        assert_eq!(uniform.mode(3), AnnMode::Dynamic { factor: 1.0 });
        assert_eq!(uniform.modes(3).len(), 3);

        let per = AnnSpec::PerChannel(AnnModes::from_slice(&[
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
        AnnSpec::PerChannel(AnnModes::exact(2)).check_channels(3);
    }
}
