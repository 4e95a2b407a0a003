//! Approximate-NN pruning (paper §5): the probabilistic pruning condition
//! and the dynamic threshold `α`.

/// The pruning regime of one broadcast search.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum AnnMode {
    /// Exact NN search (eNN): only guaranteed pruning
    /// (`lower_bound > upper_bound`). Equivalent to `α = 0` (§5.1: "when
    /// α is 0, ANN becomes eNN"). The default mode.
    #[default]
    Exact,
    /// The paper's dynamic threshold (eq. 4):
    /// `α = node_depth / tree_height × factor`, so nodes near the root
    /// are pruned almost exactly while nodes near the leaves are pruned
    /// aggressively. The paper uses `factor = 1` for Double-NN and
    /// Window-Based, `factor = 1/150` or `1/200` for Hybrid-NN.
    Dynamic {
        /// The adjustment factor of eq. 4.
        factor: f64,
    },
    /// A static threshold independent of depth, as in Lin et al. \[14\] —
    /// kept for the ablation showing why the dynamic version is needed
    /// ("a fixed value for α may not be suitable for all R-tree nodes").
    Fixed {
        /// The static threshold.
        alpha: f64,
    },
}

impl AnnMode {
    /// The pruning threshold `α ∈ [0, 1]` for a node at `depth` (root =
    /// 0) in a tree of `height` levels.
    #[inline]
    pub fn alpha(&self, depth: u32, height: u32) -> f64 {
        match *self {
            AnnMode::Exact => 0.0,
            AnnMode::Dynamic { factor } => dynamic_alpha(depth, height, factor),
            AnnMode::Fixed { alpha } => alpha.clamp(0.0, 1.0),
        }
    }

    /// `true` when this mode can prune nodes that might contain the exact
    /// NN (any non-exact mode).
    #[inline]
    pub fn is_approximate(&self) -> bool {
        !matches!(self, AnnMode::Exact)
    }

    /// The ANN pruning decision (Heuristics 1 & 2): prune when the
    /// search-region overlap fraction of the node's MBR is at most `α`.
    #[inline]
    pub fn prunes(&self, overlap_ratio: f64, depth: u32, height: u32) -> bool {
        if let AnnMode::Exact = self {
            return false;
        }
        overlap_ratio <= self.alpha(depth, height)
    }
}

/// The paper's eq. 4: `α = Node_depth / Rtree_height × factor`, clamped
/// into `[0, 1]`.
#[inline]
pub fn dynamic_alpha(depth: u32, height: u32, factor: f64) -> f64 {
    if height == 0 {
        return 0.0;
    }
    (depth as f64 / height as f64 * factor).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_mode_never_prunes() {
        let m = AnnMode::Exact;
        assert_eq!(m.alpha(5, 10), 0.0);
        assert!(!m.is_approximate());
        assert!(!m.prunes(0.0, 9, 10));
    }

    #[test]
    fn dynamic_alpha_grows_with_depth() {
        let m = AnnMode::Dynamic { factor: 1.0 };
        assert_eq!(m.alpha(0, 10), 0.0);
        assert_eq!(m.alpha(5, 10), 0.5);
        assert_eq!(m.alpha(9, 10), 0.9);
        assert!(m.alpha(3, 10) < m.alpha(7, 10));
        assert!(m.is_approximate());
    }

    #[test]
    fn dynamic_alpha_scales_with_factor() {
        assert_eq!(dynamic_alpha(5, 10, 1.0 / 150.0), 0.5 / 150.0);
        // Clamping at 1.
        assert_eq!(dynamic_alpha(9, 10, 100.0), 1.0);
        // Degenerate height.
        assert_eq!(dynamic_alpha(0, 0, 1.0), 0.0);
    }

    #[test]
    fn pruning_condition_is_at_most_alpha() {
        let m = AnnMode::Dynamic { factor: 1.0 };
        // depth 5 of 10 → α = 0.5.
        assert!(m.prunes(0.5, 5, 10));
        assert!(m.prunes(0.3, 5, 10));
        assert!(!m.prunes(0.51, 5, 10));
        // Root is never pruned under the dynamic rule (α = 0 and a node
        // overlapping nothing is already gone via the exact bound).
        assert!(!m.prunes(0.001, 0, 10));
        assert!(m.prunes(0.0, 0, 10));
    }

    #[test]
    fn fixed_mode_ignores_depth() {
        let m = AnnMode::Fixed { alpha: 0.4 };
        assert_eq!(m.alpha(0, 10), 0.4);
        assert_eq!(m.alpha(9, 10), 0.4);
        assert!(m.prunes(0.4, 0, 10));
        assert!(!m.prunes(0.41, 9, 10));
        // Out-of-range thresholds are clamped.
        assert_eq!(AnnMode::Fixed { alpha: 7.0 }.alpha(1, 2), 1.0);
    }
}
