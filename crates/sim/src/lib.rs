//! # tnn-sim
//!
//! The experiment harness reproducing every measured table and figure of
//! the EDBT 2008 TNN paper's evaluation (§6):
//!
//! | experiment | `all-experiments` name | paper section |
//! |---|---|---|
//! | Figure 9 (a–d): access time | `fig9` | §6.1.1 |
//! | Figure 11 (a–d): tune-in time vs. density | `fig11` | §6.1.2 |
//! | Figure 12 (a–d): ANN vs. eNN optimization | `fig12` | §6.2 |
//! | Figure 13 (a–b): Hybrid-NN with ANN | `fig13` | §6.2.2 |
//! | Table 3: Approximate-TNN fail rates | `table3` | §6.3 |
//! | design ablations (packing, interleaving, …) | `ablations` | — |
//!
//! Run everything with `cargo run --release -p tnn-sim --bin
//! all-experiments`, or only some experiments by naming them
//! (`... --bin all-experiments -- fig9 table3`). The channel-count axis
//! (k = 2, 3, 4, oracle-checked) is ablation 6 of `ablations`. Set
//! `TNN_QUERIES` (default 1000, the paper's count) and `TNN_SEED` to
//! control batch size and reproducibility. Both must be positive
//! integers: anything else stops the run (see [`parse_positive`]).
//!
//! The harness mirrors the paper's methodology: for each configuration it
//! issues `TNN_QUERIES` queries at points uniform over the 39,000²
//! region, with **independent random phases per channel per query**
//! simulating the waiting times for the two roots, and reports access
//! time and tune-in time in pages.

#![warn(missing_docs)]

pub mod experiments;
mod metrics;
mod report;
mod runner;
mod workload;

pub use metrics::BatchStats;
pub use report::{format_table, write_csv, Table};
pub use runner::{parse_positive, queries_per_batch, run_tnn_batch, BatchConfig};
pub use workload::{Catalog, DatasetSpec};
