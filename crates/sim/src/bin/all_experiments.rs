//! Regenerates every table and figure of the paper's evaluation plus the
//! ablations, printing results and writing CSVs under `results/`
//! (override with `TNN_OUT`). Name experiments to run only those
//! (`all-experiments fig9 table3`); an unknown name stops the run.

#![expect(
    clippy::disallowed_methods,
    reason = "all-experiments stamps its progress lines with elapsed wall time; no experiment result depends on a clock"
)]

use std::time::Instant;
use tnn_sim::experiments::{select, Context};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&names).unwrap_or_else(|err| panic!("{err}"));
    let ctx = Context::from_env();
    eprintln!(
        "all-experiments: {} queries per configuration, seed {:#x}, output to {}",
        ctx.queries,
        ctx.seed,
        ctx.out_dir.display()
    );
    let t0 = Instant::now();
    for experiment in experiments {
        for (i, table) in experiment.run(&ctx).into_iter().enumerate() {
            ctx.emit(&table, &experiment.csv_name(i));
        }
        eprintln!(
            "[all-experiments] {} done at {:.1?}",
            experiment.name(),
            t0.elapsed()
        );
    }
    eprintln!(
        "[all-experiments] all experiments finished in {:.1?}",
        t0.elapsed()
    );
}
