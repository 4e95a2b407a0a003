//! Regenerates Table 3 (Approximate-TNN fail rates, paper §6.3).

use tnn_sim::experiments::{table3, Context};

fn main() {
    let ctx = Context::from_env();
    eprintln!(
        "table3: {} queries per configuration (TNN_QUERIES to change)",
        ctx.queries
    );
    for (i, table) in table3::run(&ctx).into_iter().enumerate() {
        let name = if i == 0 {
            "table3".into()
        } else {
            format!("table3_control{i}")
        };
        ctx.emit(&table, &name);
    }
}
