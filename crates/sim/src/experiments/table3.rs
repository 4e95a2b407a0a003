//! **Table 3 — Approximate-TNN fail rate by distribution combination**
//! (paper §6.3).
//!
//! A query *fails* when Approximate-TNN returns no pair (empty candidate
//! set) or a sub-optimal pair (checked against the exact oracle). Fail
//! rates are averaged over the page capacities {64, 128, 256, 512} and,
//! for the mixed combinations, over the eight uniform datasets — the
//! paper's protocol ("we use CITY dataset and change the eight uniform
//! ones … average fail rates are calculated").
//!
//! Paper reference values: uni-uni 0%, uni-real 9.08%, real-uni 9.08%,
//! real-real 43.2%. The real datasets here are clustered stand-ins (see
//! `crates/datasets/src/clustered.rs`), so the expectation is the
//! *shape*: zero for uniform pairs, moderate for mixed, large for
//! real-real.
//!
//! A second table confirms the paper's side claim that "Double-NN and
//! Hybrid-NN never fail".

use super::{pct, Context};
use crate::{DatasetSpec, Table};
use tnn_broadcast::{BroadcastParams, PAGE_CAPACITIES};
use tnn_core::{Algorithm, Query};
use tnn_geom::Point;

/// The four distribution combinations, each as a list of (S, R) pairs.
fn combos() -> Vec<(&'static str, Vec<(DatasetSpec, DatasetSpec)>)> {
    let uni_uni: Vec<_> = DatasetSpec::UNIF_TENTHS
        .iter()
        .map(|&t| (DatasetSpec::UnifS(t), DatasetSpec::UnifR(t)))
        .collect();
    let uni_real: Vec<_> = DatasetSpec::UNIF_TENTHS
        .iter()
        .map(|&t| (DatasetSpec::UnifS(t), DatasetSpec::CityLike))
        .collect();
    let real_uni: Vec<_> = DatasetSpec::UNIF_TENTHS
        .iter()
        .map(|&t| (DatasetSpec::CityLike, DatasetSpec::UnifR(t)))
        .collect();
    let real_real = vec![(DatasetSpec::CityLike, DatasetSpec::PostLike)];
    vec![
        ("uni-uni", uni_uni),
        ("uni-real", uni_real),
        ("real-uni", real_uni),
        ("real-real", real_real),
    ]
}

/// Runs the fail-rate measurement.
pub fn run(ctx: &Context) -> Vec<Table> {
    let mut main = Table::new(
        "Table 3: Approximate-TNN average fail rate by distribution combination",
        &["combination", "fail rate", "no-answer rate", "paper"],
    );
    let paper_ref = ["0%", "9.08%", "9.08%", "43.2%"];
    for ((name, pairs), paper) in combos().into_iter().zip(paper_ref) {
        let mut fail_sum = 0.0;
        let mut none_sum = 0.0;
        let mut n = 0usize;
        for &(s, r) in &pairs {
            for &cap in &PAGE_CAPACITIES {
                let stats = ctx.batch(
                    s,
                    r,
                    BroadcastParams::new(cap),
                    Query::tnn(Point::ORIGIN).algorithm(Algorithm::ApproximateTnn),
                    true,
                );
                fail_sum += stats.fail_rate;
                none_sum += stats.no_answer_rate;
                n += 1;
            }
        }
        main.push_row(vec![
            name.to_string(),
            pct(fail_sum / n as f64),
            pct(none_sum / n as f64),
            paper.to_string(),
        ]);
    }

    // The control: exact algorithms never fail, on the hardest combo.
    let mut control = Table::new(
        "Table 3 control: exact algorithms on real-real (must all be 0%)",
        &["algorithm", "fail rate"],
    );
    for alg in [
        Algorithm::WindowBased,
        Algorithm::DoubleNn,
        Algorithm::HybridNn,
    ] {
        let stats = ctx.batch(
            DatasetSpec::CityLike,
            DatasetSpec::PostLike,
            BroadcastParams::new(64),
            Query::tnn(Point::ORIGIN).algorithm(alg),
            true,
        );
        control.push_row(vec![alg.name().to_string(), pct(stats.fail_rate)]);
    }

    vec![main, control]
}
