//! The paper's experiments, one module per figure/table, plus design
//! ablations. Each module exposes `run(&Context) -> Vec<Table>`.

pub mod ablations;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig9;
pub mod table3;

use crate::runner::env_positive;
use crate::{
    format_table, queries_per_batch, run_batch, write_csv, BatchConfig, BatchStats, Catalog,
    DatasetSpec, Table,
};
use std::path::PathBuf;
use std::sync::Arc;
use tnn_broadcast::BroadcastParams;
use tnn_core::Query;
use tnn_datasets::paper_region;
use tnn_rtree::RTree;

/// Shared experiment context: dataset cache, batch sizing, output
/// directory.
pub struct Context {
    /// Built-tree cache.
    pub catalog: Catalog,
    /// Queries per configuration (paper: 1,000; `TNN_QUERIES` overrides).
    pub queries: usize,
    /// Master seed (`TNN_SEED` overrides; must be a positive integer).
    pub seed: u64,
    /// Directory for CSV output (`TNN_OUT`, default `results/`).
    pub out_dir: PathBuf,
}

impl Context {
    /// Builds a context from the environment.
    pub fn from_env() -> Self {
        Context {
            catalog: Catalog::new(),
            queries: queries_per_batch(),
            seed: env_positive("TNN_SEED", 0xEDB7_2008),
            out_dir: PathBuf::from(std::env::var("TNN_OUT").unwrap_or_else(|_| "results".into())),
        }
    }

    /// Runs one `(S, R, page, query)` batch.
    pub fn batch(
        &self,
        s: DatasetSpec,
        r: DatasetSpec,
        params: BroadcastParams,
        query: Query,
        check_oracle: bool,
    ) -> BatchStats {
        let s_tree = self.catalog.tree(s, &params);
        let r_tree = self.catalog.tree(r, &params);
        self.batch_trees(&s_tree, &r_tree, params, query, check_oracle)
    }

    /// Runs one batch over pre-built trees.
    pub fn batch_trees(
        &self,
        s_tree: &Arc<RTree>,
        r_tree: &Arc<RTree>,
        params: BroadcastParams,
        query: Query,
        check_oracle: bool,
    ) -> BatchStats {
        let cfg = BatchConfig {
            params,
            query,
            queries: self.queries,
            seed: self.seed,
            check_oracle,
        };
        run_batch(s_tree, r_tree, &paper_region(), &cfg)
    }

    /// Prints a table and writes its CSV twin.
    pub fn emit(&self, table: &Table, csv_name: &str) {
        println!("{}", format_table(table));
        if let Err(e) = write_csv(table, &self.out_dir, csv_name) {
            eprintln!("warning: could not write {csv_name}.csv: {e}");
        }
    }
}

/// Formats a float with one decimal for table cells.
pub(crate) fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percentage with two decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}
