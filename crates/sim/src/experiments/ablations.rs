//! Design ablations beyond the paper's figures:
//!
//! 1. **Best-First vs. arrival-ordered traversal on air** — quantifies
//!    §2.2's claim that backtracking Best-First "deteriorates severely"
//!    on a broadcast medium.
//! 2. **Packing algorithm** (STR vs. Hilbert vs. Nearest-X) — why the
//!    paper bulk-loads with STR.
//! 3. **`(1, m)` interleave factor** — the access-time/cycle-length
//!    trade-off of the air-indexing scheme.
//! 4. **Page capacity** — Table 2's 64–512 B sweep applied to all
//!    algorithms.
//! 5. **Fixed vs. dynamic α** — why eq. 4 beats the static threshold of
//!    Lin et al. \[14\].
//! 6. **Channel count for the core algorithms** — the k-ary
//!    generalization of Window-Based, Double-NN, and Hybrid-NN over
//!    k = 2, 3, 4 channels, oracle-checked: how the sequential
//!    Window-Based estimate, the parallel Double-NN fan-out and the
//!    neighbor-hop re-targeting of Hybrid-NN scale with hops.
//! 7. **Order-free and round-trip variants** — the future-work
//!    objectives against plain TNN on the same workload.

use super::{f1, Context};
use crate::{run_tnn_batch, BatchConfig, DatasetSpec, Table};
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, Channel, PAGE_CAPACITIES};
use tnn_core::{Algorithm, AnnMode, Query, SearchMode};
use tnn_datasets::paper_region;
use tnn_geom::Point;
use tnn_rtree::{NodeId, PackingAlgorithm, RTree};

/// Exact NN on a broadcast channel with the classical Best-First order
/// (by `MinDist`, Hjaltason & Samet), i.e. *with backtracking*: every pop
/// waits for the node's next on-air time, which regularly rolls over to
/// the next bucket once the traversal jumps around the preorder layout.
/// Returns `(access_pages, tune_in_pages)`.
fn best_first_on_air(channel: &Channel, q: Point, start: u64) -> (u64, u64) {
    let view = channel.view();
    let tree = channel.tree();
    let mut heap: Vec<(f64, NodeId)> = vec![(tree.bounding_rect().min_dist(q), NodeId::ROOT)];
    let mut best = f64::INFINITY;
    let mut now = start;
    let mut pages = 0u64;
    while let Some(idx) = heap
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .map(|(i, _)| i)
    {
        let (mindist, id) = heap.swap_remove(idx);
        if mindist > best {
            continue; // pruned, no cost
        }
        // Random access is impossible: wait for the node's next arrival.
        let arrival = view.next_node_arrival(id, now);
        now = arrival + 1;
        pages += 1;
        let node = view.node(id);
        if let Some(children) = node.children() {
            for c in children {
                heap.push((c.mbr.min_dist(q), c.child));
            }
        } else if let Some(points) = node.points() {
            for e in points {
                best = best.min(q.dist(e.point));
            }
        }
    }
    (now - start, pages)
}

/// Ablation 1: Best-First vs. arrival-ordered NN search on one channel.
fn traversal_order(ctx: &Context) -> Table {
    let params = BroadcastParams::new(64);
    let mut table = Table::new(
        "Ablation: NN traversal order on a broadcast channel (S=UNIF(-5.0))",
        &["strategy", "mean access [pages]", "mean tune-in [pages]"],
    );
    let tree = ctx.catalog.tree(DatasetSpec::UnifS(-50), &params);
    let channel = Channel::new(Arc::clone(&tree), params, 0);
    let region = paper_region();
    let n = ctx.queries.min(200); // BF is slow by design; cap the batch
    let mut bf = (0u64, 0u64);
    let mut ao = (0u64, 0u64);
    for i in 0..n as u64 {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed ^ i);
        let q = Point::new(
            rng.gen_range(region.min.x..=region.max.x),
            rng.gen_range(region.min.y..=region.max.y),
        );
        let phase = rng.gen_range(0..channel.layout().cycle_len());
        let ch = channel.with_phase(phase);
        let (acc, pages) = best_first_on_air(&ch, q, 0);
        bf.0 += acc;
        bf.1 += pages;
        let mut task =
            tnn_core::task::NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
        let finish = task.run_to_completion();
        ao.0 += finish;
        ao.1 += task.tuner().pages;
    }
    let n = n as f64;
    table.push_row(vec![
        "Best-First (backtracking)".into(),
        f1(bf.0 as f64 / n),
        f1(bf.1 as f64 / n),
    ]);
    table.push_row(vec![
        "arrival-ordered (ours)".into(),
        f1(ao.0 as f64 / n),
        f1(ao.1 as f64 / n),
    ]);
    table
}

/// Ablation 2: packing algorithm.
fn packing(ctx: &Context) -> Table {
    let params = BroadcastParams::new(64);
    let mut table = Table::new(
        "Ablation: R-tree packing algorithm (Double-NN, S=UNIF(-5.0), R=UNIF(-5.0))",
        &["packing", "mean access [pages]", "mean tune-in [pages]"],
    );
    let s_pts = DatasetSpec::UnifS(-50).points();
    let r_pts = DatasetSpec::UnifR(-50).points();
    for algo in PackingAlgorithm::ALL {
        let s = Arc::new(RTree::build(&s_pts, params.rtree_params(), algo).unwrap());
        let r = Arc::new(RTree::build(&r_pts, params.rtree_params(), algo).unwrap());
        let stats = ctx.batch_trees(
            &s,
            &r,
            params,
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
            false,
        );
        table.push_row(vec![
            algo.name().to_string(),
            f1(stats.mean_access),
            f1(stats.mean_tune_in),
        ]);
    }
    table
}

/// Ablation 3: the `(1, m)` interleave factor.
fn interleave(ctx: &Context) -> Table {
    let mut table = Table::new(
        "Ablation: (1,m) interleave factor (Double-NN, S=R=UNIF(-5.0))",
        &[
            "m",
            "cycle [pages]",
            "mean access [pages]",
            "mean tune-in [pages]",
        ],
    );
    for m in [1u32, 2, 4, 8, 16] {
        let params = BroadcastParams {
            page_capacity: 64,
            interleave_m: m,
            data_content_bytes: 1024,
        };
        let s = ctx.catalog.tree(DatasetSpec::UnifS(-50), &params);
        let r = ctx.catalog.tree(DatasetSpec::UnifR(-50), &params);
        let cycle = tnn_broadcast::BroadcastLayout::new(&s, &params).cycle_len();
        let stats = ctx.batch_trees(
            &s,
            &r,
            params,
            Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
            false,
        );
        table.push_row(vec![
            m.to_string(),
            cycle.to_string(),
            f1(stats.mean_access),
            f1(stats.mean_tune_in),
        ]);
    }
    table
}

/// Ablation 4: page capacity (Table 2's range) for all exact algorithms.
fn page_capacity(ctx: &Context) -> Table {
    let mut table = Table::new(
        "Ablation: page capacity (S=R=UNIF(-5.0))",
        &[
            "capacity [B]",
            "Window access",
            "Window tune-in",
            "Double access",
            "Double tune-in",
            "Hybrid access",
            "Hybrid tune-in",
        ],
    );
    for &cap in &PAGE_CAPACITIES {
        let params = BroadcastParams::new(cap);
        let mut row = vec![cap.to_string()];
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let stats = ctx.batch(
                DatasetSpec::UnifS(-50),
                DatasetSpec::UnifR(-50),
                params,
                Query::tnn(Point::ORIGIN).algorithm(alg),
                false,
            );
            row.push(f1(stats.mean_access));
            row.push(f1(stats.mean_tune_in));
        }
        table.push_row(row);
    }
    table
}

/// Ablation 5: fixed α (Lin et al. \[14\]) vs. the paper's dynamic α.
fn alpha_policy(ctx: &Context) -> Table {
    let params = BroadcastParams::new(64);
    let s = DatasetSpec::UnifS(-50);
    let r = DatasetSpec::UnifR(-50);
    let mut table = Table::new(
        "Ablation: ANN threshold policy (Double-NN, S=R=UNIF(-5.0))",
        &["policy", "mean tune-in [pages]", "mean radius"],
    );
    let enn = ctx.batch(
        s,
        r,
        params,
        Query::tnn(Point::ORIGIN).algorithm(Algorithm::DoubleNn),
        false,
    );
    table.push_row(vec![
        "eNN (α=0)".into(),
        f1(enn.mean_tune_in),
        f1(enn.mean_radius),
    ]);
    for alpha in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let mode = AnnMode::Fixed { alpha };
        let stats = ctx.batch(
            s,
            r,
            params,
            Query::tnn(Point::ORIGIN)
                .algorithm(Algorithm::DoubleNn)
                .ann_modes(&[mode, mode]),
            false,
        );
        table.push_row(vec![
            format!("fixed α={alpha}"),
            f1(stats.mean_tune_in),
            f1(stats.mean_radius),
        ]);
    }
    let dynamic = AnnMode::Dynamic { factor: 1.0 };
    let stats = ctx.batch(
        s,
        r,
        params,
        Query::tnn(Point::ORIGIN)
            .algorithm(Algorithm::DoubleNn)
            .ann_modes(&[dynamic, dynamic]),
        false,
    );
    table.push_row(vec![
        "dynamic (eq. 4, factor=1)".into(),
        f1(stats.mean_tune_in),
        f1(stats.mean_radius),
    ]);
    table
}

/// Ablation 6: channel count for the core TNN algorithms — the k-ary
/// generalization over k = 2, 3, 4 channels, exercising the sequential
/// Window-Based hops, the parallel Double-NN fan-out, and Hybrid-NN's
/// neighbor-hop re-targeting at every k (oracle-checked).
fn core_channel_count(ctx: &Context) -> Table {
    let params = BroadcastParams::new(64);
    let mut table = Table::new(
        "Extension: core TNN algorithms over k channels (UNIF(-5.4) per channel)",
        &[
            "k",
            "Window access",
            "Window tune-in",
            "Double access",
            "Double tune-in",
            "Hybrid access",
            "Hybrid tune-in",
        ],
    );
    let region = paper_region();
    for k in [2usize, 3, 4] {
        let trees: Vec<Arc<RTree>> = (0..k)
            .map(|i| {
                let pts = tnn_datasets::unif(-5.4, 0x8100 + i as u64);
                Arc::new(RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let mut row = vec![k.to_string()];
        for alg in [
            Algorithm::WindowBased,
            Algorithm::DoubleNn,
            Algorithm::HybridNn,
        ] {
            let cfg = BatchConfig {
                params,
                query: Query::tnn(Point::ORIGIN).algorithm(alg),
                queries: ctx.queries.min(300),
                seed: ctx.seed,
                check_oracle: true,
            };
            let stats = run_tnn_batch(&trees, &region, &cfg);
            assert_eq!(
                stats.fail_rate,
                0.0,
                "{} must stay exact at k={k}",
                alg.name()
            );
            row.push(f1(stats.mean_access));
            row.push(f1(stats.mean_tune_in));
        }
        table.push_row(row);
    }
    table
}

/// Ablation 7: the order-free and round-trip variants (future-work items
/// 2 and 3) against plain TNN on the same workload.
fn variants(ctx: &Context) -> Table {
    use rand::{Rng, SeedableRng};
    let params = BroadcastParams::new(64);
    let s = ctx.catalog.tree(DatasetSpec::UnifS(-54), &params);
    let r = ctx.catalog.tree(DatasetSpec::UnifR(-54), &params);
    let engine = tnn_core::QueryEngine::new(tnn_broadcast::MultiChannelEnv::new(
        vec![Arc::clone(&s), Arc::clone(&r)],
        params,
        &[0, 0],
    ));
    let region = paper_region();
    let n = ctx.queries.min(300);
    let mut acc = [(0.0f64, 0u64, 0u64); 3]; // (dist, access, tune-in) per variant
    let mut r_first = 0usize;
    for i in 0..n as u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed ^ i.wrapping_mul(0x2545F491));
        let p = Point::new(
            rng.gen_range(region.min.x..=region.max.x),
            rng.gen_range(region.min.y..=region.max.y),
        );
        let phases = [
            rng.gen_range(0..engine.env().channel(0).layout().cycle_len()),
            rng.gen_range(0..engine.env().channel(1).layout().cycle_len()),
        ];
        let plain = engine
            .run(
                &tnn_core::Query::tnn(p)
                    .algorithm(Algorithm::DoubleNn)
                    .phases(&phases),
            )
            .expect("valid env");
        let free = engine
            .run(&tnn_core::Query::order_free(p).phases(&phases))
            .expect("valid env");
        let tour = engine
            .run(&tnn_core::Query::round_trip(p).phases(&phases))
            .expect("valid env");
        acc[0].0 += plain.total_dist.expect("exact");
        acc[0].1 += plain.access_time();
        acc[0].2 += plain.tune_in();
        acc[1].0 += free.total_dist.expect("exact");
        acc[1].1 += free.access_time();
        acc[1].2 += free.tune_in();
        acc[2].0 += tour.total_dist.expect("exact");
        acc[2].1 += tour.access_time();
        acc[2].2 += tour.tune_in();
        if free.route.first().map(|s| s.channel) == Some(1) {
            r_first += 1;
        }
    }
    let mut table = Table::new(
        "Extension: order-free and round-trip TNN (S=R=UNIF(-5.4))",
        &[
            "variant",
            "mean route [m]",
            "mean access [pages]",
            "mean tune-in [pages]",
        ],
    );
    let nf = n as f64;
    for (name, (dist, access, tune)) in [
        ("fixed order p->s->r", acc[0]),
        ("order-free", acc[1]),
        ("round trip", acc[2]),
    ] {
        table.push_row(vec![
            name.into(),
            f1(dist / nf),
            f1(access as f64 / nf),
            f1(tune as f64 / nf),
        ]);
    }
    table.push_row(vec![
        format!("(order-free picked R first in {r_first}/{n} queries)"),
        String::new(),
        String::new(),
        String::new(),
    ]);
    table
}

/// Runs every ablation.
pub fn run(ctx: &Context) -> Vec<Table> {
    vec![
        traversal_order(ctx),
        packing(ctx),
        interleave(ctx),
        page_capacity(ctx),
        alpha_policy(ctx),
        core_channel_count(ctx),
        variants(ctx),
    ]
}
