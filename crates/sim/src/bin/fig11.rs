//! Regenerates Figure 11 (tune-in time vs. density, paper §6.1.2).

use tnn_sim::experiments::{fig11, Context};

fn main() {
    let ctx = Context::from_env();
    eprintln!(
        "fig11: {} queries per configuration (TNN_QUERIES to change)",
        ctx.queries
    );
    for (i, table) in fig11::run(&ctx).into_iter().enumerate() {
        let name = format!("fig11{}", char::from(b'a' + i as u8));
        ctx.emit(&table, &name);
    }
}
