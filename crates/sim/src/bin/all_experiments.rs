//! Regenerates every table and figure of the paper's evaluation plus the
//! ablations, printing results and writing CSVs under `results/`
//! (override with `TNN_OUT`).

#![expect(
    clippy::disallowed_methods,
    reason = "all-experiments stamps its progress lines with elapsed wall time; no experiment result depends on a clock"
)]

use std::time::Instant;
use tnn_sim::experiments::{ablations, fig11, fig12, fig13, fig9, table3, Context};

fn main() {
    let ctx = Context::from_env();
    eprintln!(
        "all-experiments: {} queries per configuration, seed {:#x}, output to {}",
        ctx.queries,
        ctx.seed,
        ctx.out_dir.display()
    );
    let t0 = Instant::now();

    for (name, tables) in [
        ("fig9", fig9::run(&ctx)),
        ("fig11", fig11::run(&ctx)),
        ("fig12", fig12::run(&ctx)),
        ("fig13", fig13::run(&ctx)),
    ] {
        for (i, table) in tables.into_iter().enumerate() {
            ctx.emit(&table, &format!("{name}{}", char::from(b'a' + i as u8)));
        }
        eprintln!("[all-experiments] {name} done at {:.1?}", t0.elapsed());
    }
    for (i, table) in table3::run(&ctx).into_iter().enumerate() {
        let name = if i == 0 {
            "table3".into()
        } else {
            format!("table3_control{i}")
        };
        ctx.emit(&table, &name);
    }
    eprintln!("[all-experiments] table3 done at {:.1?}", t0.elapsed());
    for (i, table) in ablations::run(&ctx).into_iter().enumerate() {
        ctx.emit(&table, &format!("ablation{}", i + 1));
    }
    eprintln!(
        "[all-experiments] all experiments finished in {:.1?}",
        t0.elapsed()
    );
}
