//! Runs the design ablations (traversal order, packing, interleaving,
//! page capacity, α policy, chained TNN).

use tnn_sim::experiments::{ablations, Context};

fn main() {
    let ctx = Context::from_env();
    eprintln!(
        "ablations: {} queries per configuration (TNN_QUERIES to change)",
        ctx.queries
    );
    for (i, table) in ablations::run(&ctx).into_iter().enumerate() {
        let name = format!("ablation{}", i + 1);
        ctx.emit(&table, &name);
    }
}
