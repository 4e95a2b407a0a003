//! **Figure 11 — tune-in time vs. density** (paper §6.1.2).
//!
//! Mean tune-in time (pages) of Window-Based, Double-NN and Hybrid-NN
//! with exact search, sweeping `R`'s density for three fixed `S`:
//!
//! * (a) `S = UNIF(−4.2)` (dense S: `size(S) ≥ 0.4·size(R)` mostly —
//!   Double ≈ Window, Hybrid pays for its smaller range);
//! * (b) `S = UNIF(−5.0)` (the sweet band `0.01 ≤ size(S)/size(R) ≤ 0.4`
//!   appears at the dense end of the sweep — Hybrid wins there);
//! * (c) `S = UNIF(−7.0)` (tiny S: `size(S) < 0.01·size(R)` at the dense
//!   end — Window-Based wins);
//! * (d) `S = UNIF(−5.0)` including Approximate-TNN, whose formula-based
//!   range inflates tune-in dramatically.

use super::{f1, Context};
use crate::{DatasetSpec, Table};
use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, Query};
use tnn_geom::Point;

fn panel(ctx: &Context, title: &str, s_tenths: i32, include_approx: bool) -> Table {
    let params = BroadcastParams::new(64);
    let mut algos = vec![
        Algorithm::WindowBased,
        Algorithm::DoubleNn,
        Algorithm::HybridNn,
    ];
    if include_approx {
        algos.push(Algorithm::ApproximateTnn);
    }
    let mut header = vec!["R density"];
    header.extend(algos.iter().map(|a| a.name()));
    let mut table = Table::new(title, &header);
    for &t in &DatasetSpec::UNIF_TENTHS {
        let mut row = vec![format!("UNIF({:.1})", t as f64 / 10.0)];
        for &alg in &algos {
            let stats = ctx.batch(
                DatasetSpec::UnifS(s_tenths),
                DatasetSpec::UnifR(t),
                params,
                Query::tnn(Point::ORIGIN).algorithm(alg),
                false,
            );
            row.push(f1(stats.mean_tune_in));
        }
        table.push_row(row);
    }
    table
}

/// Runs all four panels.
pub fn run(ctx: &Context) -> Vec<Table> {
    vec![
        panel(
            ctx,
            "Fig 11(a): tune-in time, S=UNIF(-4.2), R density sweep [pages]",
            -42,
            false,
        ),
        panel(
            ctx,
            "Fig 11(b): tune-in time, S=UNIF(-5.0), R density sweep [pages]",
            -50,
            false,
        ),
        panel(
            ctx,
            "Fig 11(c): tune-in time, S=UNIF(-7.0), R density sweep [pages]",
            -70,
            false,
        ),
        panel(
            ctx,
            "Fig 11(d): tune-in time incl. Approximate-TNN, S=UNIF(-5.0) [pages]",
            -50,
            true,
        ),
    ]
}
