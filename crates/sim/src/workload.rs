//! The dataset catalog: every workload of §6, generated deterministically
//! and cached as built R-trees per page capacity.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tnn_broadcast::BroadcastParams;
use tnn_datasets as data;
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_trace::lock::{LockRank, OrderedMutex};

/// One of the paper's datasets. Uniform density exponents are stored in
/// tenths (`-58` means `10^-5.8`) so specs stay hashable.
///
/// The `S`/`R` variants are independently seeded families, matching the
/// paper's "another set of eight uniform datasets … with the same density
/// range and area, but different points".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetSpec {
    /// First uniform family (used on the S channel), density `10^(e/10)`.
    UnifS(i32),
    /// Second uniform family (used on the R channel).
    UnifR(i32),
    /// First size family (S channel), `n` points.
    SizeS(usize),
    /// Second size family (R channel), `n` points.
    SizeR(usize),
    /// Clustered CITY stand-in (≈5,922 points).
    CityLike,
    /// Clustered POST stand-in (≈123,593 points, scaled to the common
    /// region).
    PostLike,
}

impl DatasetSpec {
    /// The eight density exponents (in tenths) of the UNIF family.
    pub const UNIF_TENTHS: [i32; 8] = [-70, -66, -62, -58, -54, -50, -46, -42];

    /// Generates the dataset's points (deterministic).
    pub fn points(&self) -> Vec<Point> {
        match *self {
            DatasetSpec::UnifS(t) => data::unif(t as f64 / 10.0, 0x5000 + t.unsigned_abs() as u64),
            DatasetSpec::UnifR(t) => data::unif(t as f64 / 10.0, 0x9000 + t.unsigned_abs() as u64),
            DatasetSpec::SizeS(n) => data::size_family(n, 0x1000 + n as u64),
            DatasetSpec::SizeR(n) => data::size_family(n, 0x2000 + n as u64),
            DatasetSpec::CityLike => data::city_like(0xC17),
            DatasetSpec::PostLike => data::post_like(0x9057),
        }
    }

    /// Number of points without generating them (for labels and density
    /// ordering).
    pub fn size(&self) -> usize {
        match *self {
            DatasetSpec::UnifS(t) | DatasetSpec::UnifR(t) => {
                data::unif_size(t as f64 / 10.0, &data::paper_region())
            }
            DatasetSpec::SizeS(n) | DatasetSpec::SizeR(n) => n,
            DatasetSpec::CityLike => 5_922,
            DatasetSpec::PostLike => 123_593,
        }
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DatasetSpec::UnifS(t) | DatasetSpec::UnifR(t) => {
                write!(f, "UNIF({:.1})", t as f64 / 10.0)
            }
            DatasetSpec::SizeS(n) | DatasetSpec::SizeR(n) => write!(f, "{n}"),
            DatasetSpec::CityLike => write!(f, "CITY"),
            DatasetSpec::PostLike => write!(f, "POST"),
        }
    }
}

/// A cache of built R-trees keyed by `(dataset, page_capacity)` — tree
/// construction (STR packing of up to 123k points) dominates experiment
/// startup, and most figures reuse datasets across many configurations.
pub struct Catalog {
    cache: OrderedMutex<HashMap<(DatasetSpec, usize), Arc<RTree>>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            cache: OrderedMutex::new(LockRank::SimCatalog, HashMap::new()),
        }
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The R-tree for `spec` under `params` (built on first use; STR
    /// packing, as in the paper).
    pub fn tree(&self, spec: DatasetSpec, params: &BroadcastParams) -> Arc<RTree> {
        let key = (spec, params.page_capacity);
        if let Some(t) = self.cache.lock().get(&key) {
            return Arc::clone(t);
        }
        // Build outside the lock: different datasets can build in
        // parallel, and a rare duplicate build is harmless.
        let pts = spec.points();
        let tree = Arc::new(
            RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str)
                .expect("catalog datasets are non-empty and finite"),
        );
        self.cache
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::clone(&tree));
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unif_sizes_match_paper() {
        assert_eq!(DatasetSpec::UnifS(-70).size(), 152);
        assert_eq!(DatasetSpec::UnifR(-42).size(), 95_969);
    }

    #[test]
    fn s_and_r_families_differ() {
        let s = DatasetSpec::UnifS(-62).points();
        let r = DatasetSpec::UnifR(-62).points();
        assert_eq!(s.len(), r.len());
        assert_ne!(s, r);
    }

    #[test]
    fn catalog_caches_trees() {
        let catalog = Catalog::new();
        let params = BroadcastParams::new(64);
        let a = catalog.tree(DatasetSpec::UnifS(-70), &params);
        let b = catalog.tree(DatasetSpec::UnifS(-70), &params);
        assert!(Arc::ptr_eq(&a, &b));
        // Different page capacity → different tree.
        let c = catalog.tree(DatasetSpec::UnifS(-70), &BroadcastParams::new(128));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.num_objects(), 152);
    }

    #[test]
    fn labels() {
        assert_eq!(DatasetSpec::UnifS(-58).to_string(), "UNIF(-5.8)");
        assert_eq!(DatasetSpec::SizeR(10_000).to_string(), "10000");
        assert_eq!(DatasetSpec::CityLike.to_string(), "CITY");
    }
}
