//! **Figure 9 — access time** (paper §6.1.1).
//!
//! Four panels, all reporting mean access time (pages) of the four
//! algorithms with exact search:
//!
//! * (a) `size(S) = 10,000` fixed, `size(R)` sweeping the size family;
//! * (b) `size(R) = 10,000` fixed, `size(S)` sweeping;
//! * (c) `S = UNIF(−5.8)`, `R` sweeping the density family;
//! * (d) `S = UNIF(−5.0)`, `R` sweeping the density family.
//!
//! Expected shape: Approximate-TNN lowest (no estimate phase); Double-NN
//! = Hybrid-NN, both below Window-Based by ~7–15% when the sizes are
//! within `[1/40, 1.8×]` of each other, converging outside that band.

use super::{f1, Context};
use crate::{DatasetSpec, Table};
use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, Query};
use tnn_datasets::SIZE_FAMILY;
use tnn_geom::Point;

const ALGOS: [Algorithm; 4] = [
    Algorithm::WindowBased,
    Algorithm::ApproximateTnn,
    Algorithm::DoubleNn,
    Algorithm::HybridNn,
];

fn header() -> Vec<&'static str> {
    let mut h = vec!["sweep"];
    h.extend(ALGOS.iter().map(|a| a.name()));
    h
}

fn panel(
    ctx: &Context,
    title: &str,
    sweep: impl Iterator<Item = (String, DatasetSpec, DatasetSpec)>,
) -> Table {
    let params = BroadcastParams::new(64);
    let mut table = Table::new(title, &header());
    for (label, s, r) in sweep {
        let mut row = vec![label];
        for alg in ALGOS {
            let stats = ctx.batch(
                s,
                r,
                params,
                Query::tnn(Point::ORIGIN).algorithm(alg),
                false,
            );
            row.push(f1(stats.mean_access));
        }
        table.push_row(row);
    }
    table
}

/// Runs all four panels.
pub fn run(ctx: &Context) -> Vec<Table> {
    let a = panel(
        ctx,
        "Fig 9(a): access time, size(S)=10,000, size(R) sweep [pages]",
        SIZE_FAMILY.iter().map(|&n| {
            (
                n.to_string(),
                DatasetSpec::SizeS(10_000),
                DatasetSpec::SizeR(n),
            )
        }),
    );
    let b = panel(
        ctx,
        "Fig 9(b): access time, size(R)=10,000, size(S) sweep [pages]",
        SIZE_FAMILY.iter().map(|&n| {
            (
                n.to_string(),
                DatasetSpec::SizeS(n),
                DatasetSpec::SizeR(10_000),
            )
        }),
    );
    let c = panel(
        ctx,
        "Fig 9(c): access time, S=UNIF(-5.8), R density sweep [pages]",
        DatasetSpec::UNIF_TENTHS.iter().map(|&t| {
            (
                format!("UNIF({:.1})", t as f64 / 10.0),
                DatasetSpec::UnifS(-58),
                DatasetSpec::UnifR(t),
            )
        }),
    );
    let d = panel(
        ctx,
        "Fig 9(d): access time, S=UNIF(-5.0), R density sweep [pages]",
        DatasetSpec::UNIF_TENTHS.iter().map(|&t| {
            (
                format!("UNIF({:.1})", t as f64 / 10.0),
                DatasetSpec::UnifS(-50),
                DatasetSpec::UnifR(t),
            )
        }),
    );
    vec![a, b, c, d]
}
