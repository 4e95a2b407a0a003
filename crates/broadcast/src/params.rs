//! Broadcast-program parameters (paper Table 2).

use tnn_rtree::RTreeParams;

/// The page capacities evaluated in the paper (Table 2: "64 – 512 bytes").
pub const PAGE_CAPACITIES: [usize; 4] = [64, 128, 256, 512];

/// Parameters of a broadcast program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastParams {
    /// Page capacity in bytes (Table 2: 64–512). One R-tree node occupies
    /// exactly one page; data objects occupy
    /// `ceil(data_content_bytes / page_capacity)` pages.
    pub page_capacity: usize,
    /// The `m` of the `(1, m)` interleaving scheme \[10\]: the index is
    /// broadcast `m` times per cycle, before each of the `m` data
    /// fractions.
    pub interleave_m: u32,
    /// Size of one data object's content in bytes (Table 2: 1 KiB).
    pub data_content_bytes: usize,
}

impl BroadcastParams {
    /// Paper defaults: 64-byte pages, `(1, 4)` interleaving, 1 KiB objects.
    pub const fn new(page_capacity: usize) -> Self {
        BroadcastParams {
            page_capacity,
            interleave_m: 4,
            data_content_bytes: 1024,
        }
    }

    /// The R-tree node capacities implied by this page size.
    pub const fn rtree_params(&self) -> RTreeParams {
        RTreeParams::for_page_capacity(self.page_capacity)
    }

    /// Pages needed to carry one data object's content.
    pub const fn pages_per_object(&self) -> u64 {
        self.data_content_bytes.div_ceil(self.page_capacity) as u64
    }

    /// `true` when the configuration is usable: positive page size, at
    /// least one interleave fraction and a branching index.
    pub const fn is_valid(&self) -> bool {
        self.page_capacity > 0 && self.interleave_m >= 1 && self.rtree_params().is_valid()
    }
}

impl Default for BroadcastParams {
    fn default() -> Self {
        BroadcastParams::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let p = BroadcastParams::default();
        assert_eq!(p.page_capacity, 64);
        assert_eq!(p.interleave_m, 4);
        assert_eq!(p.data_content_bytes, 1024);
        assert_eq!(p.pages_per_object(), 16);
        assert!(p.is_valid());
    }

    #[test]
    fn pages_per_object_by_capacity() {
        assert_eq!(BroadcastParams::new(64).pages_per_object(), 16);
        assert_eq!(BroadcastParams::new(128).pages_per_object(), 8);
        assert_eq!(BroadcastParams::new(256).pages_per_object(), 4);
        assert_eq!(BroadcastParams::new(512).pages_per_object(), 2);
    }

    #[test]
    fn zero_data_is_allowed_for_index_only_ablations() {
        let p = BroadcastParams {
            page_capacity: 64,
            interleave_m: 1,
            data_content_bytes: 0,
        };
        assert_eq!(p.pages_per_object(), 0);
        assert!(p.is_valid());
    }

    #[test]
    fn invalid_configurations_detected() {
        let p = BroadcastParams {
            interleave_m: 0,
            ..BroadcastParams::default()
        };
        assert!(!p.is_valid());
        // A 16-byte page cannot hold two child entries.
        assert!(!BroadcastParams::new(16).is_valid());
    }
}
