//! Calibration sweep for the dynamic-α ANN factor (paper eq. 4).
//!
//! Prints tune-in, phase breakdown and filter radius for a grid of
//! factors, per algorithm — the tool used to pick the factors baked into
//! the Figure 12/13 experiments. Run with:
//!
//! ```sh
//! TNN_QUERIES=200 cargo run --release -p tnn-sim --example ann_calibration
//! ```

use tnn_broadcast::BroadcastParams;
use tnn_core::{Algorithm, AnnMode, Query};
use tnn_geom::Point;
use tnn_sim::experiments::Context;
use tnn_sim::DatasetSpec;

fn main() {
    let ctx = Context::from_env();
    let params = BroadcastParams::new(64);
    for (s, r, label) in [
        (
            DatasetSpec::UnifS(-50),
            DatasetSpec::UnifR(-50),
            "S=UNIF(-5.0) R=UNIF(-5.0)",
        ),
        (
            DatasetSpec::UnifS(-58),
            DatasetSpec::UnifR(-58),
            "S=UNIF(-5.8) R=UNIF(-5.8)",
        ),
        (
            DatasetSpec::UnifS(-50),
            DatasetSpec::UnifR(-42),
            "S=UNIF(-5.0) R=UNIF(-4.2)",
        ),
    ] {
        println!("== {label}");
        for alg in [
            Algorithm::DoubleNn,
            Algorithm::WindowBased,
            Algorithm::HybridNn,
        ] {
            let enn = ctx.batch(
                s,
                r,
                params,
                Query::tnn(Point::ORIGIN).algorithm(alg),
                false,
            );
            println!(
                "{:18} eNN       tune-in {:8.1} (est {:6.1}/filt {:6.1}) radius {:7.1}",
                alg.name(),
                enn.mean_tune_in,
                enn.mean_tune_estimate,
                enn.mean_tune_filter,
                enn.mean_radius
            );
            for f in [0.05, 0.02, 0.01, 1.0 / 150.0, 0.005, 0.002] {
                let m = AnnMode::Dynamic { factor: f };
                let st = ctx.batch(
                    s,
                    r,
                    params,
                    Query::tnn(Point::ORIGIN).algorithm(alg).ann_modes(&[m, m]),
                    false,
                );
                println!(
                    "{:18} f={:<7.4} tune-in {:8.1} (est {:6.1}/filt {:6.1}) radius {:7.1} saved {:+.1}%",
                    alg.name(),
                    f,
                    st.mean_tune_in,
                    st.mean_tune_estimate,
                    st.mean_tune_filter,
                    st.mean_radius,
                    (1.0 - st.mean_tune_in / enn.mean_tune_in) * 100.0
                );
            }
        }
    }
}
