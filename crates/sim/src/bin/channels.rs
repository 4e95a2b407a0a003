//! k-channel smoke runner: executes one oracle-checked TNN batch per
//! `(k, algorithm)` combination over k = 2, 3, 4 broadcast channels and
//! prints the cost table — the CI gate for the k-ary pipeline
//! generalization. Pass explicit channel counts as arguments
//! (`channels 2 3 4`); `TNN_QUERIES` / `TNN_SEED` control the batch.
//! A malformed or zero argument or variable stops the run with its name.

use std::sync::Arc;
use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, Query};
use tnn_datasets::paper_region;
use tnn_geom::Point;
use tnn_rtree::{PackingAlgorithm, RTree};
use tnn_sim::experiments::Context;
use tnn_sim::{parse_positive, run_tnn_batch, BatchConfig, Table};

fn main() {
    let ctx = Context::from_env();
    let ks: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .map(|a| parse_positive("channel count argument", &a))
            .collect();
        if args.is_empty() {
            vec![2, 3, 4]
        } else {
            args
        }
    };
    eprintln!(
        "channels: {} queries per configuration over k = {ks:?} (TNN_QUERIES to change)",
        ctx.queries
    );
    let params = BroadcastParams::new(64);
    let region = paper_region();
    let mut table = Table::new(
        "k-channel smoke: oracle-checked TNN batches per channel count",
        &[
            "k",
            "algorithm",
            "mean access [pages]",
            "mean tune-in [pages]",
            "fail rate",
        ],
    );
    for &k in &ks {
        assert!(k >= 2, "TNN needs at least two channels");
        let trees: Vec<Arc<RTree>> = (0..k)
            .map(|i| {
                let pts = tnn_datasets::unif(-5.4, 0x9000 + i as u64);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let cfg = BatchConfig {
                params,
                query: Query::tnn(Point::ORIGIN).algorithm(alg),
                queries: ctx.queries,
                seed: ctx.seed,
                check_oracle: true,
            };
            let stats = run_tnn_batch(&trees, &region, &cfg);
            assert_eq!(
                stats.fail_rate,
                0.0,
                "{} must stay exact at k = {k}",
                alg.name()
            );
            table.push_row(vec![
                k.to_string(),
                alg.name().into(),
                format!("{:.1}", stats.mean_access),
                format!("{:.1}", stats.mean_tune_in),
                format!("{:.4}", stats.fail_rate),
            ]);
        }
    }
    ctx.emit(&table, "channels_smoke");
}
