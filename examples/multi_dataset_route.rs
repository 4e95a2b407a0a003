//! Chained TNN over more than two datasets — the paper's future-work
//! item 1, served by the k-ary core pipeline as a plain Double-NN
//! `Query::tnn` over three channels:
//! pharmacy → florist → restaurant, each category on its own broadcast
//! channel, visited in order with minimum total walking distance.
//!
//! ```sh
//! cargo run --release --example multi_dataset_route
//! ```

use std::sync::Arc;
use tnn::prelude::*;
use tnn_core::exact_chain_tnn;
use tnn_datasets::uniform_points;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let city = Rect::from_coords(0.0, 0.0, 8_000.0, 8_000.0);
    let categories = [
        ("pharmacies", 150usize),
        ("florists", 90),
        ("restaurants", 400),
    ];

    let params = BroadcastParams::new(64);
    let mut trees = Vec::new();
    for (i, (name, n)) in categories.iter().enumerate() {
        let pts = uniform_points(*n, &city, 0xF10 + i as u64);
        let tree = Arc::new(RTree::build(
            &pts,
            params.rtree_params(),
            PackingAlgorithm::Str,
        )?);
        println!(
            "channel {i}: {n} {name}, index {} pages, cycle-relevant height {}",
            tree.num_nodes(),
            tree.height()
        );
        trees.push(tree);
    }
    let engine = QueryEngine::new(MultiChannelEnv::new(trees, params, &[100, 2_000, 30_000]));

    let home = Point::new(3_900.0, 4_100.0);
    println!("\nstarting at ({:.0}, {:.0})", home.x, home.y);

    // One chained query over all three channels — the engine treats the
    // channel count as a first-class parameter.
    let run = engine.run(
        &Query::tnn(home)
            .algorithm(Algorithm::DoubleNn)
            .ann(AnnMode::Exact),
    )?;
    let total = run.total_dist.expect("chained estimates are feasible");
    println!(
        "\nbest route ({} stops, total {:.1} m, radius {:.1} m):",
        run.route.len(),
        total,
        run.search_radius,
    );
    let mut at = home;
    for (i, stop) in run.route.iter().enumerate() {
        println!(
            "  {}. {} #{} at ({:6.0},{:6.0})  — leg {:7.1} m (channel {})",
            i + 1,
            categories[i].0.trim_end_matches('s'),
            stop.object,
            stop.point.x,
            stop.point.y,
            at.dist(stop.point),
            stop.channel,
        );
        at = stop.point;
    }
    println!(
        "\ncosts: access {} pages, tune-in {} pages across {} channels",
        run.access_time(),
        run.tune_in(),
        run.channels.len(),
    );

    // The broadcast answer matches the in-memory oracle.
    let env = engine.env();
    let oracle_trees: Vec<&RTree> = env.channels().iter().map(|c| c.tree()).collect();
    let (_, oracle_total) = exact_chain_tnn(home, &oracle_trees);
    assert!((total - oracle_total).abs() < 1e-6);
    println!("verified against the exact chain oracle ({oracle_total:.1} m).");
    Ok(())
}
