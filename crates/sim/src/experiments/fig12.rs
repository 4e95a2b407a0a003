//! **Figure 12 — the ANN optimization vs. eNN** (paper §6.2).
//!
//! Mean tune-in time of Window-Based and Double-NN with exact search vs.
//! with the approximate-NN estimate phase (Heuristic 1, dynamic α of
//! eq. 4 with `factor = 0.02`, `DYN_FACTOR`; the paper uses 1):
//!
//! * (a) equal-size datasets (`S` and `R` at the same density), ANN on
//!   both channels — the paper reports 11–20% tune-in reduction;
//! * (b) `density(S) > density(R)`: the density-aware strategy sets the
//!   *sparse* side exact (α = 0) and the dense side dynamic;
//! * (c) `density(R) > density(S)`: the mirror case;
//! * (d) real-like datasets (`S` = CITY stand-in, `R` = POST stand-in)
//!   across all four page capacities, sparse side exact.

use super::{f1, pct, Context};
use crate::{BatchStats, DatasetSpec, Table};
use tnn_broadcast::{BroadcastParams, PAGE_CAPACITIES};
use tnn_core::{Algorithm, AnnMode, Query};
use tnn_geom::Point;

/// The dynamic-α adjustment factor used for Window-Based and Double-NN.
///
/// The paper quotes `factor = 1` for these algorithms; in this
/// reproduction the net-savings regime sits at factor ≈ 0.02–0.05
/// (calibrated by sweeping — see the α-policy ablation, `alpha_policy`
/// in `crates/sim/src/experiments/ablations.rs`). The
/// two-orders-of-magnitude spread between the paper's own Double (1) and
/// Hybrid (1/150) factors shows the effective α scale is
/// implementation-specific; what reproduces is the *mechanism*: dynamic
/// depth-scaled pruning trades a slightly larger radius for a cheaper
/// estimate phase, with a tuning factor per algorithm.
const DYN_FACTOR: f64 = 0.02;

/// The dynamic α of eq. 4 at [`DYN_FACTOR`].
const DYN: AnnMode = AnnMode::Dynamic { factor: DYN_FACTOR };

fn header() -> Vec<&'static str> {
    vec![
        "sweep",
        "Window eNN",
        "Window ANN",
        "Window saved",
        "Double eNN",
        "Double ANN",
        "Double saved",
    ]
}

fn row(
    ctx: &Context,
    label: String,
    s: DatasetSpec,
    r: DatasetSpec,
    params: BroadcastParams,
    ann: [AnnMode; 2],
) -> Vec<String> {
    let mut cells = vec![label];
    for alg in [Algorithm::WindowBased, Algorithm::DoubleNn] {
        let enn: BatchStats = ctx.batch(
            s,
            r,
            params,
            Query::tnn(Point::ORIGIN).algorithm(alg),
            false,
        );
        let ann_stats: BatchStats = ctx.batch(
            s,
            r,
            params,
            Query::tnn(Point::ORIGIN).algorithm(alg).ann_modes(&ann),
            false,
        );
        let saved = 1.0 - ann_stats.mean_tune_in / enn.mean_tune_in.max(1e-9);
        cells.push(f1(enn.mean_tune_in));
        cells.push(f1(ann_stats.mean_tune_in));
        cells.push(pct(saved));
    }
    cells
}

/// Runs all four panels.
pub fn run(ctx: &Context) -> Vec<Table> {
    let p64 = BroadcastParams::new(64);

    // (a) equal sizes, ANN on both channels.
    let mut a = Table::new(
        format!(
            "Fig 12(a): ANN vs eNN tune-in, equal-density datasets, factor={DYN_FACTOR} [pages]"
        ),
        &header(),
    );
    for &t in &DatasetSpec::UNIF_TENTHS {
        a.push_row(row(
            ctx,
            format!("UNIF({:.1})", t as f64 / 10.0),
            DatasetSpec::UnifS(t),
            DatasetSpec::UnifR(t),
            p64,
            [DYN, DYN],
        ));
    }

    // (b) S denser than R: α_R = 0 (sparse side exact), α_S dynamic.
    let mut b = Table::new(
        "Fig 12(b): ANN tune-in, density(S)>density(R), S=UNIF(-4.6), sparse side exact [pages]",
        &header(),
    );
    for &t in &[-70, -66, -62, -58, -54] {
        b.push_row(row(
            ctx,
            format!("R=UNIF({:.1})", t as f64 / 10.0),
            DatasetSpec::UnifS(-46),
            DatasetSpec::UnifR(t),
            p64,
            [DYN, AnnMode::Exact],
        ));
    }

    // (c) R denser than S: α_S = 0, α_R dynamic.
    let mut c = Table::new(
        "Fig 12(c): ANN tune-in, density(R)>density(S), S=UNIF(-6.2), sparse side exact [pages]",
        &header(),
    );
    for &t in &[-54, -50, -46, -42] {
        c.push_row(row(
            ctx,
            format!("R=UNIF({:.1})", t as f64 / 10.0),
            DatasetSpec::UnifS(-62),
            DatasetSpec::UnifR(t),
            p64,
            [AnnMode::Exact, DYN],
        ));
    }

    // (d) real-like datasets across page capacities; CITY is the sparse
    // side (α = 0), POST the dense side (dynamic).
    let mut d = Table::new(
        "Fig 12(d): ANN tune-in on real-like data (S=CITY, R=POST) across page capacities [pages]",
        &header(),
    );
    for &cap in &PAGE_CAPACITIES {
        d.push_row(row(
            ctx,
            format!("{cap} B"),
            DatasetSpec::CityLike,
            DatasetSpec::PostLike,
            BroadcastParams::new(cap),
            [AnnMode::Exact, DYN],
        ));
    }

    vec![a, b, c, d]
}
