//! The paper's experiments, one module per figure/table, plus design
//! ablations. Each module exposes `run(&Context) -> Vec<Table>`;
//! [`Experiment`] names them and [`select`] picks them by name.

pub mod ablations;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig9;
pub mod table3;

use crate::runner::env_positive;
use crate::{
    format_table, queries_per_batch, run_tnn_batch, write_csv, BatchConfig, BatchStats, Catalog,
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
        run_tnn_batch(
            &[Arc::clone(s_tree), Arc::clone(r_tree)],
            &paper_region(),
            &cfg,
        )
    }

    /// Prints a table and writes its CSV twin.
    pub fn emit(&self, table: &Table, csv_name: &str) {
        println!("{}", format_table(table));
        if let Err(e) = write_csv(table, &self.out_dir, csv_name) {
            eprintln!("warning: could not write {csv_name}.csv: {e}");
        }
    }
}

/// One experiment of the evaluation, named on the `all-experiments`
/// command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 9: access time.
    Fig9,
    /// Figure 11: tune-in time vs. density.
    Fig11,
    /// Figure 12: ANN vs. eNN optimization.
    Fig12,
    /// Figure 13: Hybrid-NN with ANN.
    Fig13,
    /// Table 3: Approximate-TNN fail rates.
    Table3,
    /// The design ablations.
    Ablations,
}

impl Experiment {
    /// Every experiment, in the order `all-experiments` runs them.
    pub const ALL: [Experiment; 6] = [
        Experiment::Fig9,
        Experiment::Fig11,
        Experiment::Fig12,
        Experiment::Fig13,
        Experiment::Table3,
        Experiment::Ablations,
    ];

    /// The name that selects it.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Fig9 => "fig9",
            Experiment::Fig11 => "fig11",
            Experiment::Fig12 => "fig12",
            Experiment::Fig13 => "fig13",
            Experiment::Table3 => "table3",
            Experiment::Ablations => "ablations",
        }
    }

    /// Runs it; one table per CSV.
    pub fn run(self, ctx: &Context) -> Vec<Table> {
        match self {
            Experiment::Fig9 => fig9::run(ctx),
            Experiment::Fig11 => fig11::run(ctx),
            Experiment::Fig12 => fig12::run(ctx),
            Experiment::Fig13 => fig13::run(ctx),
            Experiment::Table3 => table3::run(ctx),
            Experiment::Ablations => ablations::run(ctx),
        }
    }

    /// The CSV name of its `i`-th table: `fig9a`, `fig9b`, …; `table3`,
    /// then `table3_control1`, …; `ablation1`, `ablation2`, ….
    pub fn csv_name(self, i: usize) -> String {
        match self {
            Experiment::Table3 if i == 0 => "table3".into(),
            Experiment::Table3 => format!("table3_control{i}"),
            Experiment::Ablations => format!("ablation{}", i + 1),
            _ => format!("{}{}", self.name(), char::from(b'a' + i as u8)),
        }
    }
}

/// The experiments that `all-experiments` arguments select: every named
/// one, once, in [`Experiment::ALL`] order; no names select them all. An
/// unknown name is an error that names it and lists the valid names.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Experiment>, String> {
    if let Some(unknown) = names
        .iter()
        .map(AsRef::as_ref)
        .find(|&n| Experiment::ALL.iter().all(|e| e.name() != n))
    {
        let valid: Vec<&str> = Experiment::ALL.iter().map(|e| e.name()).collect();
        return Err(format!(
            "unknown experiment {unknown:?}; valid names: {}",
            valid.join(", ")
        ));
    }
    Ok(Experiment::ALL
        .into_iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n.as_ref() == e.name()))
        .collect())
}

/// Formats a float with one decimal for table cells.
pub(crate) fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percentage with two decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_name_selects_exactly_its_experiment() {
        for (name, experiment) in [
            ("fig9", Experiment::Fig9),
            ("fig11", Experiment::Fig11),
            ("fig12", Experiment::Fig12),
            ("fig13", Experiment::Fig13),
            ("table3", Experiment::Table3),
            ("ablations", Experiment::Ablations),
        ] {
            assert_eq!(select(&[name]), Ok(vec![experiment]));
        }
        // Several names run in the fixed order, each once.
        assert_eq!(
            select(&["table3", "fig9", "table3"]),
            Ok(vec![Experiment::Fig9, Experiment::Table3])
        );
    }

    #[test]
    fn no_names_select_all_six_in_run_order() {
        let all = select::<&str>(&[]).unwrap();
        let names: Vec<&str> = all.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["fig9", "fig11", "fig12", "fig13", "table3", "ablations"]
        );
    }

    #[test]
    fn an_unknown_name_is_an_error_naming_it() {
        let err = select(&["fig9", "fig10"]).unwrap_err();
        assert!(err.contains("\"fig10\""), "{err}");
        assert!(
            err.contains("fig9, fig11, fig12, fig13, table3, ablations"),
            "{err}"
        );
    }

    #[test]
    fn csv_names_follow_each_experiment_scheme() {
        let names = |e: Experiment| -> Vec<String> { (0..3).map(|i| e.csv_name(i)).collect() };
        assert_eq!(names(Experiment::Fig9), ["fig9a", "fig9b", "fig9c"]);
        assert_eq!(names(Experiment::Fig13), ["fig13a", "fig13b", "fig13c"]);
        assert_eq!(
            names(Experiment::Table3),
            ["table3", "table3_control1", "table3_control2"]
        );
        assert_eq!(
            names(Experiment::Ablations),
            ["ablation1", "ablation2", "ablation3"]
        );
    }
}
