//! The acceptance gate of the k-ary pipeline generalization: at `k = 2`
//! the generalized core must be **byte-identical** to the paper's
//! two-channel pipeline across all four algorithms, ANN modes, per-query
//! phases and retrieval flags.
//!
//! The reference is a *frozen* reimplementation of the pre-k-ary
//! two-channel code path (the shape removed by the generalization),
//! written against the public task primitives: a two-task `run_parallel`
//! event loop, the four two-channel estimates, the two-window filter with
//! its own literal nested-loop join, and the two-stop retrieval tail. Its
//! outcomes are compared field-for-field against the engine's
//! [`QueryOutcome`]s.

use proptest::prelude::*;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, MultiChannelEnv, Tuner};
use tnn_core::task::{NnScratch, NnSearchTask, WindowQueryTask, WindowScratch};
use tnn_core::{
    approximate_radius, Algorithm, AnnMode, ChannelCost, Query, QueryEngine, QueryKind,
    QueryOutcome, RouteStop, SearchMode, TnnPair,
};
use tnn_geom::{Circle, Point};
use tnn_rtree::{ObjectId, PackingAlgorithm, RTree};

fn build_env(layers: &[Vec<Point>], phases: &[u64], page: usize) -> MultiChannelEnv {
    let params = BroadcastParams::new(page);
    let trees = layers
        .iter()
        .map(|pts| {
            Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
        })
        .collect();
    MultiChannelEnv::new(trees, params, phases)
}

fn pts_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y)),
        1..max,
    )
}

// ---------------------------------------------------------------------------
// The frozen two-channel pipeline (pre-k-ary reference implementation).
// ---------------------------------------------------------------------------

/// The frozen two-task event loop without re-targeting (Double-NN and
/// the variant estimates): steps the earlier arrival, channel 0 winning
/// ties, until both searches complete.
fn frozen_run_parallel(a: &mut NnSearchTask<'_>, b: &mut NnSearchTask<'_>) {
    loop {
        match (a.next_arrival(), b.next_arrival()) {
            (None, None) => break,
            (Some(_), None) => {
                a.step();
            }
            (None, Some(_)) => {
                b.step();
            }
            (Some(x), Some(y)) => {
                if x <= y {
                    a.step();
                } else {
                    b.step();
                }
            }
        }
    }
}

struct FrozenEstimate {
    radius: f64,
    tuners: [Tuner; 2],
    end: u64,
    /// Per-channel `(peak_queue, prune_hits)` of the estimate searches,
    /// measured straight off the frozen task handles.
    hops: [(u64, u64); 2],
}

/// The `(peak_queue, prune_hits)` reading of one completed search task.
fn hop_stats(task: &NnSearchTask<'_>) -> (u64, u64) {
    (task.peak_memory() as u64, task.parked_len() as u64)
}

/// The frozen two-channel estimate phase of each algorithm.
fn frozen_estimate(
    env: &MultiChannelEnv,
    alg: Algorithm,
    p: Point,
    issued_at: u64,
    ann: [AnnMode; 2],
) -> FrozenEstimate {
    match alg {
        Algorithm::WindowBased => {
            let mut nn1 = NnSearchTask::with_scratch(
                env.channel(0),
                SearchMode::Point { q: p },
                ann[0],
                issued_at,
                &mut NnScratch::default(),
            );
            let t1 = nn1.run_to_completion();
            let (s_pt, _, _) = nn1.best().expect("non-empty S");
            let mut nn2 = NnSearchTask::with_scratch(
                env.channel(1),
                SearchMode::Point { q: s_pt },
                ann[1],
                t1,
                &mut NnScratch::default(),
            );
            let t2 = nn2.run_to_completion();
            let (r_pt, _, _) = nn2.best().expect("non-empty R");
            FrozenEstimate {
                radius: p.dist(s_pt) + s_pt.dist(r_pt),
                tuners: [*nn1.tuner(), *nn2.tuner()],
                end: t1.max(t2),
                hops: [hop_stats(&nn1), hop_stats(&nn2)],
            }
        }
        Algorithm::ApproximateTnn => {
            let region = env
                .channel(0)
                .tree()
                .bounding_rect()
                .union(&env.channel(1).tree().bounding_rect());
            let side = region.area().sqrt();
            let r_s = approximate_radius(env.channel(0).tree().num_objects(), 1);
            let r_r = approximate_radius(env.channel(1).tree().num_objects(), 1);
            FrozenEstimate {
                radius: (r_s + r_r) * side,
                tuners: [Tuner::new(), Tuner::new()],
                end: issued_at,
                hops: [(0, 0), (0, 0)],
            }
        }
        Algorithm::DoubleNn | Algorithm::HybridNn => {
            let mut a = NnSearchTask::with_scratch(
                env.channel(0),
                SearchMode::Point { q: p },
                ann[0],
                issued_at,
                &mut NnScratch::default(),
            );
            let mut b = NnSearchTask::with_scratch(
                env.channel(1),
                SearchMode::Point { q: p },
                ann[1],
                issued_at,
                &mut NnScratch::default(),
            );
            if alg == Algorithm::HybridNn {
                // Split the borrow: the hook needs the *other* task. The
                // frozen loop reports which side finished; apply the
                // switch after the fact is impossible (the loop goes on),
                // so replicate the old in-loop switching inline.
                let mut fired = false;
                loop {
                    match (a.next_arrival(), b.next_arrival()) {
                        (None, None) => break,
                        (Some(_), None) => {
                            a.step();
                        }
                        (None, Some(_)) => {
                            b.step();
                        }
                        (Some(x), Some(y)) => {
                            if x <= y {
                                a.step();
                            } else {
                                b.step();
                            }
                        }
                    }
                    if !fired {
                        if a.is_done() && !b.is_done() {
                            fired = true;
                            // Case 2: S finished first — switch R's query
                            // point to s.
                            if let Some((s_pt, _, _)) = a.best() {
                                b.switch_query_point(s_pt, a.now());
                            }
                        } else if b.is_done() && !a.is_done() {
                            fired = true;
                            // Case 3: R finished first — switch S to the
                            // transitive metric.
                            if let Some((r_pt, _, _)) = b.best() {
                                a.switch_to_transitive(p, r_pt, b.now());
                            }
                        }
                    }
                }
            } else {
                frozen_run_parallel(&mut a, &mut b);
            }
            let (s_pt, _, _) = a.best().expect("non-empty S");
            let (r_pt, _, _) = b.best().expect("non-empty R");
            FrozenEstimate {
                radius: p.dist(s_pt) + s_pt.dist(r_pt),
                tuners: [*a.tuner(), *b.tuner()],
                end: a.now().max(b.now()),
                hops: [hop_stats(&a), hop_stats(&b)],
            }
        }
    }
}

/// The frozen two-channel join, Algorithm 1's nested loop (lines 7–17)
/// without its prunes: for each `s` in index order, its best `r` on
/// `(leg sum, r index)`, where the leg sum is `dis(s, r)`, plus `dis(r, p)`
/// on a tour; then the strictly smaller total `dis(p, s) + leg sum` wins.
/// Shares no code with the engine's join.
fn frozen_join(
    p: Point,
    s_cands: &[(Point, ObjectId)],
    r_cands: &[(Point, ObjectId)],
    tour: bool,
) -> Option<TnnPair> {
    let mut best: Option<TnnPair> = None;
    for &(s_pt, s_id) in s_cands {
        let mut leg: Option<(f64, (Point, ObjectId))> = None;
        for &(r_pt, r_id) in r_cands {
            let back = if tour { r_pt.dist(p) } else { 0.0 };
            let sum = s_pt.dist(r_pt) + back;
            if leg.is_none_or(|(b, _)| sum < b) {
                leg = Some((sum, (r_pt, r_id)));
            }
        }
        let (sum, r) = leg?;
        let total = p.dist(s_pt) + sum;
        if best.as_ref().is_none_or(|b| total < b.dist) {
            best = Some(TnnPair {
                s: (s_pt, s_id),
                r,
                dist: total,
            });
        }
    }
    best
}

/// The frozen filter + join + retrieve tail, emitting the expected
/// engine outcome for a plain TNN query.
fn frozen_tnn(
    env: &MultiChannelEnv,
    alg: Algorithm,
    p: Point,
    issued_at: u64,
    ann: [AnnMode; 2],
    retrieve: bool,
) -> QueryOutcome {
    let est = frozen_estimate(env, alg, p, issued_at, ann);
    let range = Circle::new(p, est.radius * (1.0 + 4.0 * f64::EPSILON));

    let mut w0 = WindowQueryTask::with_scratch(
        env.channel(0),
        range,
        est.end,
        &mut WindowScratch::default(),
    );
    let f0_end = w0.run_to_completion();
    let mut w1 = WindowQueryTask::with_scratch(
        env.channel(1),
        range,
        est.end,
        &mut WindowScratch::default(),
    );
    let f1_end = w1.run_to_completion();

    let candidates = vec![w0.hits().len(), w1.hits().len()];
    let filter_pages = [w0.tuner().pages, w1.tuner().pages];
    let answer = frozen_join(p, w0.hits(), w1.hits(), false);

    let mut channels = vec![
        ChannelCost {
            estimate_pages: est.tuners[0].pages,
            filter_pages: filter_pages[0],
            retrieve_pages: 0,
            finish_time: est.tuners[0].finish_time.unwrap_or(issued_at).max(f0_end),
            peak_queue: est.hops[0].0,
            prune_hits: est.hops[0].1,
        },
        ChannelCost {
            estimate_pages: est.tuners[1].pages,
            filter_pages: filter_pages[1],
            retrieve_pages: 0,
            finish_time: est.tuners[1].finish_time.unwrap_or(issued_at).max(f1_end),
            peak_queue: est.hops[1].0,
            prune_hits: est.hops[1].1,
        },
    ];
    if retrieve {
        if let Some(pair) = &answer {
            let start = f0_end.max(f1_end);
            let (done0, pages0) = env.channel(0).view().retrieve_object(pair.s.1, start);
            let (done1, pages1) = env.channel(1).view().retrieve_object(pair.r.1, start);
            channels[0].retrieve_pages = pages0;
            channels[0].finish_time = channels[0].finish_time.max(done0);
            channels[1].retrieve_pages = pages1;
            channels[1].finish_time = channels[1].finish_time.max(done1);
        }
    }
    let completed_at = channels[0]
        .finish_time
        .max(channels[1].finish_time)
        .max(est.end);

    QueryOutcome {
        kind: QueryKind::Tnn(alg),
        route: answer
            .iter()
            .flat_map(|pair| {
                [
                    RouteStop {
                        point: pair.s.0,
                        object: pair.s.1,
                        channel: 0,
                    },
                    RouteStop {
                        point: pair.r.0,
                        object: pair.r.1,
                        channel: 1,
                    },
                ]
            })
            .collect(),
        total_dist: answer.map(|pair| pair.dist),
        search_radius: est.radius,
        issued_at,
        estimate_end: est.end,
        completed_at,
        candidates,
        channels,
    }
}

/// The frozen two-channel variant tail shared by order-free and
/// round-trip: filter both windows, join, account, retrieve.
#[allow(clippy::too_many_arguments)]
fn frozen_variant_outcome(
    env: &MultiChannelEnv,
    kind: QueryKind,
    issued_at: u64,
    est_tuners: [Tuner; 2],
    est_end: u64,
    est_hops: [(u64, u64); 2],
    radius: f64,
    stops: Vec<(Point, ObjectId, usize)>,
    total_dist: f64,
    filter_tuners: [Tuner; 2],
    filter_end: u64,
    candidates: [usize; 2],
    retrieve: bool,
) -> QueryOutcome {
    let mut channels = [ChannelCost::default(), ChannelCost::default()];
    for k in 0..2 {
        channels[k].estimate_pages = est_tuners[k].pages;
        channels[k].filter_pages = filter_tuners[k].pages;
        channels[k].peak_queue = est_hops[k].0;
        channels[k].prune_hits = est_hops[k].1;
        channels[k].finish_time = est_tuners[k]
            .finish_time
            .unwrap_or(issued_at)
            .max(filter_tuners[k].finish_time.unwrap_or(issued_at))
            .max(est_end);
    }
    if retrieve {
        for &(_, object, ch) in &stops {
            let (done, pages) = env.channel(ch).view().retrieve_object(object, filter_end);
            channels[ch].retrieve_pages += pages;
            channels[ch].finish_time = channels[ch].finish_time.max(done);
        }
    }
    let completed_at = channels[0]
        .finish_time
        .max(channels[1].finish_time)
        .max(filter_end);
    QueryOutcome {
        kind,
        route: stops
            .into_iter()
            .map(|(point, object, channel)| RouteStop {
                point,
                object,
                channel,
            })
            .collect(),
        total_dist: Some(total_dist),
        search_radius: radius,
        issued_at,
        estimate_end: est_end,
        completed_at,
        candidates: candidates.to_vec(),
        channels: channels.to_vec(),
    }
}

/// Frozen two-channel order-free and round-trip pipelines.
fn frozen_variant(
    env: &MultiChannelEnv,
    kind: QueryKind,
    p: Point,
    issued_at: u64,
    retrieve: bool,
) -> QueryOutcome {
    // Double-NN estimate (no re-targeting).
    let est = frozen_estimate(env, Algorithm::DoubleNn, p, issued_at, [AnnMode::Exact; 2]);
    // Recompute the two NN points (the frozen estimate only exposes the
    // radius): rerun the two searches — cheap and deterministic.
    let mut a = NnSearchTask::with_scratch(
        env.channel(0),
        SearchMode::Point { q: p },
        AnnMode::Exact,
        issued_at,
        &mut NnScratch::default(),
    );
    a.run_to_completion();
    let mut b = NnSearchTask::with_scratch(
        env.channel(1),
        SearchMode::Point { q: p },
        AnnMode::Exact,
        issued_at,
        &mut NnScratch::default(),
    );
    b.run_to_completion();
    let (s_pt, _, _) = a.best().expect("non-empty S");
    let (r_pt, _, _) = b.best().expect("non-empty R");

    let radius = match kind {
        QueryKind::OrderFree => {
            let d_sr = p.dist(s_pt) + s_pt.dist(r_pt);
            let d_rs = p.dist(r_pt) + r_pt.dist(s_pt);
            d_sr.min(d_rs)
        }
        QueryKind::RoundTrip => (p.dist(s_pt) + s_pt.dist(r_pt) + r_pt.dist(p)) * 0.5,
        _ => unreachable!("variant kinds only"),
    };
    let range = Circle::new(p, radius * (1.0 + 4.0 * f64::EPSILON));
    let mut w0 = WindowQueryTask::with_scratch(
        env.channel(0),
        range,
        est.end,
        &mut WindowScratch::default(),
    );
    let f0 = w0.run_to_completion();
    let mut w1 = WindowQueryTask::with_scratch(
        env.channel(1),
        range,
        est.end,
        &mut WindowScratch::default(),
    );
    let f1 = w1.run_to_completion();
    let filter_end = f0.max(f1);
    let filter_tuners = [*w0.tuner(), *w1.tuner()];
    let candidates = [w0.hits().len(), w1.hits().len()];

    let (stops, total) = match kind {
        QueryKind::OrderFree => {
            let forward = frozen_join(p, w0.hits(), w1.hits(), false);
            let backward = frozen_join(p, w1.hits(), w0.hits(), false);
            let (pair, s_first) = match (forward, backward) {
                (Some(f), Some(b)) if b.dist < f.dist => (b, false),
                (Some(f), _) => (f, true),
                (None, Some(b)) => (b, false),
                (None, None) => unreachable!("the estimate pair lies inside the range"),
            };
            let stops = if s_first {
                vec![(pair.s.0, pair.s.1, 0), (pair.r.0, pair.r.1, 1)]
            } else {
                vec![(pair.s.0, pair.s.1, 1), (pair.r.0, pair.r.1, 0)]
            };
            (stops, pair.dist)
        }
        QueryKind::RoundTrip => {
            let pair = frozen_join(p, w0.hits(), w1.hits(), true)
                .expect("the estimate pair lies inside the half-radius range");
            (
                vec![(pair.s.0, pair.s.1, 0), (pair.r.0, pair.r.1, 1)],
                pair.dist,
            )
        }
        _ => unreachable!(),
    };
    frozen_variant_outcome(
        env,
        kind,
        issued_at,
        est.tuners,
        est.end,
        est.hops,
        radius,
        stops,
        total,
        filter_tuners,
        filter_end,
        candidates,
        retrieve,
    )
}

// ---------------------------------------------------------------------------
// The gates.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plain TNN at k = 2: the generalized engine must equal the frozen
    /// two-channel pipeline for every algorithm and ANN mode, with
    /// per-query phases riding the overlay on the engine side and a
    /// rephased environment on the frozen side.
    #[test]
    fn engine_tnn_is_byte_identical_to_frozen_two_channel(
        s in pts_strategy(180),
        r in pts_strategy(180),
        (ph0, ph1) in (0u64..50_000, 0u64..50_000),
        (qx, qy) in (-100.0f64..1100.0, -100.0f64..1100.0),
        issued_at in 0u64..20_000,
        ann_factor in 0.0f64..2.0,
        retrieve in prop::sample::select(vec![false, true]),
    ) {
        let env = build_env(&[s, r], &[0, 0], 64);
        let engine = QueryEngine::new(env.clone());
        let p = Point::new(qx, qy);
        let phases = [ph0, ph1];
        let rephased = env.with_phases(&phases);
        for alg in Algorithm::ALL {
            for ann in [AnnMode::Exact, AnnMode::Dynamic { factor: ann_factor }] {
                let expect = frozen_tnn(
                    &rephased, alg, p, issued_at, [ann, ann], retrieve,
                );
                let query = Query::tnn(p)
                    .algorithm(alg)
                    .ann_modes(&[ann, ann])
                    .issued_at(issued_at)
                    .retrieve_answer_objects(retrieve)
                    .phases(&phases);
                let got = engine.run(&query).unwrap();
                prop_assert_eq!(&got, &expect, "{} / {:?}", alg.name(), ann);
            }
        }
    }

    /// Order-free and round-trip variants at k = 2: engine == frozen.
    #[test]
    fn engine_variants_are_byte_identical_to_frozen(
        s in pts_strategy(150),
        r in pts_strategy(150),
        (ph0, ph1) in (0u64..40_000, 0u64..40_000),
        (qx, qy) in (0.0f64..1000.0, 0.0f64..1000.0),
        retrieve in prop::sample::select(vec![false, true]),
    ) {
        let env = build_env(&[s, r], &[ph0, ph1], 64);
        let engine = QueryEngine::new(env.clone());
        let p = Point::new(qx, qy);

        for kind in [QueryKind::OrderFree, QueryKind::RoundTrip] {
            let query = match kind {
                QueryKind::OrderFree => Query::order_free(p),
                _ => Query::round_trip(p),
            }
            .issued_at(3)
            .retrieve_answer_objects(retrieve);
            let expect = frozen_variant(&env, kind, p, 3, retrieve);
            let got = engine.run(&query).unwrap();
            prop_assert_eq!(&got, &expect, "{:?}", kind);
        }
    }
}

/// The pooled `run` path and the caller-scratch `run_with` path must
/// agree with each other and with the frozen pipeline on a fixed
/// deterministic workload (a cheap smoke gate that needs no proptest
/// shrinking when it fires).
#[test]
fn pooled_scratch_and_frozen_agree_deterministically() {
    let cloud = |n: usize, salt: usize| -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    ((i + salt) * 37 % 211) as f64,
                    ((i + salt) * 53 % 223) as f64,
                )
            })
            .collect()
    };
    let env = build_env(&[cloud(200, 1), cloud(250, 9)], &[11, 222], 64);
    let engine = QueryEngine::new(env.clone());
    let mut scratch = tnn_core::QueryScratch::default();
    for i in 0..40u64 {
        let p = Point::new((i * 31 % 211) as f64, (i * 17 % 223) as f64);
        let alg = Algorithm::ALL[(i % 4) as usize];
        let query = Query::tnn(p).algorithm(alg).issued_at(i * 97);
        let pooled = engine.run(&query).unwrap();
        let direct = engine.run_with(&query, &mut scratch).unwrap();
        let expect = frozen_tnn(&env, alg, p, i * 97, [AnnMode::Exact; 2], true);
        assert_eq!(pooled, expect, "pooled vs frozen, query {i}");
        assert_eq!(direct, expect, "scratch vs frozen, query {i}");
    }
}
