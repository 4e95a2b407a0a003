//! Regenerates Figure 13 (Hybrid-NN with ANN, paper §6.2.2).

use tnn_sim::experiments::{fig13, Context};

fn main() {
    let ctx = Context::from_env();
    eprintln!(
        "fig13: {} queries per configuration (TNN_QUERIES to change)",
        ctx.queries
    );
    for (i, table) in fig13::run(&ctx).into_iter().enumerate() {
        let name = format!("fig13{}", char::from(b'a' + i as u8));
        ctx.emit(&table, &name);
    }
}
