//! **Figure 13 — Hybrid-NN with ANN** (paper §6.2.2).
//!
//! Mean tune-in time of Hybrid-NN with exact search vs. with the ANN
//! estimate phase at the paper's Hybrid factors, `1/150` and `1/200`
//! (applied on both channels; case-3 searches use the ellipse–rectangle
//! Heuristic 2):
//!
//! * (a) `S = UNIF(−5.0)`, `R` density sweep;
//! * (b) `S = UNIF(−5.4)`, `R` density sweep.

use super::{f1, pct, Context};
use crate::{DatasetSpec, Table};
use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, AnnMode, Query};
use tnn_geom::Point;

fn panel(ctx: &Context, title: &str, s_tenths: i32) -> Table {
    let params = BroadcastParams::new(64);
    let mut table = Table::new(
        title,
        &[
            "R density",
            "Hybrid eNN",
            "ANN f=1/150",
            "saved(1/150)",
            "ANN f=1/200",
            "saved(1/200)",
        ],
    );
    for &t in &DatasetSpec::UNIF_TENTHS {
        let s = DatasetSpec::UnifS(s_tenths);
        let r = DatasetSpec::UnifR(t);
        let enn = ctx.batch(
            s,
            r,
            params,
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::HybridNn),
            false,
        );
        let mut row = vec![
            format!("UNIF({:.1})", t as f64 / 10.0),
            f1(enn.mean_tune_in),
        ];
        for denom in [150.0, 200.0] {
            let mode = AnnMode::Dynamic {
                factor: 1.0 / denom,
            };
            let ann = ctx.batch(
                s,
                r,
                params,
                Query::tnn(Point::ORIGIN)
                    .algorithm(Algorithm::HybridNn)
                    .ann_modes(&[mode, mode]),
                false,
            );
            row.push(f1(ann.mean_tune_in));
            row.push(pct(1.0 - ann.mean_tune_in / enn.mean_tune_in.max(1e-9)));
        }
        table.push_row(row);
    }
    table
}

/// Runs both panels.
pub fn run(ctx: &Context) -> Vec<Table> {
    vec![
        panel(
            ctx,
            "Fig 13(a): Hybrid-NN tune-in with ANN, S=UNIF(-5.0) [pages]",
            -50,
        ),
        panel(
            ctx,
            "Fig 13(b): Hybrid-NN tune-in with ANN, S=UNIF(-5.4) [pages]",
            -54,
        ),
    ]
}
