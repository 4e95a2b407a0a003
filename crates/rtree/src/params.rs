//! Node-capacity parameters derived from broadcast page budgets.

/// Byte cost of one index pointer on air (paper Table 2).
pub const INDEX_POINTER_BYTES: usize = 2;
/// Byte cost of one coordinate on air (paper Table 2).
pub const COORDINATE_BYTES: usize = 4;
/// Byte cost of an MBR (four coordinates).
pub const MBR_BYTES: usize = 4 * COORDINATE_BYTES;
/// Byte cost of a point (two coordinates).
pub const POINT_BYTES: usize = 2 * COORDINATE_BYTES;
/// Byte cost of an internal-node entry: child MBR + arrival pointer.
pub const INTERNAL_ENTRY_BYTES: usize = MBR_BYTES + INDEX_POINTER_BYTES;
/// Byte cost of a leaf entry: point + data-page pointer.
pub const LEAF_ENTRY_BYTES: usize = POINT_BYTES + INDEX_POINTER_BYTES;

/// Maximum entry counts for R-tree nodes.
///
/// In the broadcast setting one packed node occupies exactly one page, so
/// the capacities follow from the page size and the byte costs of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum number of children of an internal node.
    pub fanout: usize,
    /// Maximum number of points in a leaf node.
    pub leaf_capacity: usize,
}

impl RTreeParams {
    /// Explicit capacities (mostly for tests and ablations).
    pub const fn new(fanout: usize, leaf_capacity: usize) -> Self {
        RTreeParams {
            fanout,
            leaf_capacity,
        }
    }

    /// Capacities for a broadcast page of `page_capacity` bytes, following
    /// the paper's sizes: an internal entry costs 18 B (16 B MBR + 2 B
    /// arrival pointer), a leaf entry 10 B (8 B point + 2 B data pointer).
    ///
    /// A 64-byte page gives fanout 3 and leaf capacity 6; with ~100,000
    /// points this yields a tree of height 10 — the configuration the
    /// paper reports in §4.2.4 (`H = 10`, `M = 3`).
    pub const fn for_page_capacity(page_capacity: usize) -> Self {
        let fanout = page_capacity / INTERNAL_ENTRY_BYTES;
        let leaf_capacity = page_capacity / LEAF_ENTRY_BYTES;
        RTreeParams {
            fanout,
            leaf_capacity,
        }
    }

    /// `true` when both capacities allow branching.
    pub const fn is_valid(&self) -> bool {
        self.fanout >= 2 && self.leaf_capacity >= 1
    }
}

impl Default for RTreeParams {
    /// Defaults to the paper's smallest page (64 bytes): fanout 3, leaf
    /// capacity 6.
    fn default() -> Self {
        RTreeParams::for_page_capacity(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_capacities_match_paper() {
        let p64 = RTreeParams::for_page_capacity(64);
        assert_eq!(p64.fanout, 3);
        assert_eq!(p64.leaf_capacity, 6);

        let p128 = RTreeParams::for_page_capacity(128);
        assert_eq!(p128.fanout, 7);
        assert_eq!(p128.leaf_capacity, 12);

        let p256 = RTreeParams::for_page_capacity(256);
        assert_eq!(p256.fanout, 14);
        assert_eq!(p256.leaf_capacity, 25);

        let p512 = RTreeParams::for_page_capacity(512);
        assert_eq!(p512.fanout, 28);
        assert_eq!(p512.leaf_capacity, 51);
    }

    #[test]
    fn default_is_64_byte_page() {
        assert_eq!(RTreeParams::default(), RTreeParams::for_page_capacity(64));
    }

    #[test]
    fn validity() {
        assert!(RTreeParams::new(2, 1).is_valid());
        assert!(!RTreeParams::new(1, 6).is_valid());
        assert!(!RTreeParams::new(3, 0).is_valid());
    }
}
