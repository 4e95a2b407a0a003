//! Regenerates Figure 12 (ANN vs. eNN optimization, paper §6.2).

use tnn_sim::experiments::{fig12, Context};

fn main() {
    let ctx = Context::from_env();
    eprintln!(
        "fig12: {} queries per configuration (TNN_QUERIES to change)",
        ctx.queries
    );
    for (i, table) in fig12::run(&ctx).into_iter().enumerate() {
        let name = format!("fig12{}", char::from(b'a' + i as u8));
        ctx.emit(&table, &name);
    }
}
