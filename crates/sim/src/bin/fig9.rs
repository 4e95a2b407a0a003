//! Regenerates Figure 9 (access time, paper §6.1.1).

use tnn_sim::experiments::{fig9, Context};

fn main() {
    let ctx = Context::from_env();
    eprintln!(
        "fig9: {} queries per configuration (TNN_QUERIES to change)",
        ctx.queries
    );
    for (i, table) in fig9::run(&ctx).into_iter().enumerate() {
        let name = format!("fig9{}", char::from(b'a' + i as u8));
        ctx.emit(&table, &name);
    }
}
