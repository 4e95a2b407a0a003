//! # tnn-rtree
//!
//! A packed (bulk-loaded), immutable R-tree over 2-D points, built for the
//! wireless-broadcast reproduction of the EDBT 2008 TNN paper.
//!
//! Characteristics tailored to air indexing:
//!
//! * **Packing algorithms** ([`PackingAlgorithm`]): STR [Leutenegger et
//!   al., ICDE'97] — the paper's choice — plus Hilbert-sort [Kamel &
//!   Faloutsos, CIKM'93] and Nearest-X [Roussopoulos & Leifker,
//!   SIGMOD'85] for ablations.
//! * **Page-derived node capacities** ([`RTreeParams::for_page_capacity`]):
//!   fanout and leaf capacity follow the paper's byte budget (Table 2:
//!   2-byte pointers, 4-byte coordinates), so a 64-byte page yields fanout
//!   3 and a ~100k-point tree of height 10, matching §4.2.4.
//! * **Preorder node numbering**: node ids equal the depth-first preorder
//!   rank, which is exactly the page offset of the node inside a broadcast
//!   index segment; parent ids always precede child ids.
//! * **In-memory queries** for ground truth and baselines: best-first NN,
//!   k-NN, incremental distance browsing, and circular/rectangular range
//!   queries, all reporting visit statistics.
//!
//! The packed tree itself is immutable: broadcast programs are recomputed
//! per cycle from a static snapshot, as in the paper ("the locations of
//! the points in all the datasets are known a priori, and no insertion
//! and deletion are involved"). Churning datasets are handled one level
//! up by [`DeltaOverlay`], a log-structured edit log merged at query
//! time and folded into a fresh packed snapshot per cycle via canonical
//! materialization.

#![warn(missing_docs)]

mod build;
mod delta;
mod error;
mod ids;
mod node;
mod params;
mod query;
mod tree;

pub use build::PackingAlgorithm;
pub use delta::DeltaOverlay;
pub use error::RTreeError;
pub use ids::IdTable;
pub use node::{ChildEntry, Entries, LeafEntry, Node, NodeId, ObjectId};
pub use params::RTreeParams;
pub use query::{NnIter, NnResult, RangeResult};
pub use tree::{fingerprint, RTree};
