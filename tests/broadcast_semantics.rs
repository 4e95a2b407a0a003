//! Integration tests for the broadcast semantics as seen from the query
//! layer: linear-medium constraints, page accounting, and the paper's
//! structural claims about the client model.

use std::sync::Arc;
use tnn::prelude::*;
use tnn_broadcast::PageContent;
use tnn_core::task::{NnSearchTask, WindowQueryTask};
use tnn_core::SearchMode;
use tnn_datasets::{paper_region, unif, uniform_points};
use tnn_rtree::NodeId;

fn channel(pts: &[Point], phase: u64) -> Channel {
    let params = BroadcastParams::new(64);
    let tree = Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap());
    Channel::new(tree, params, phase)
}

#[test]
fn every_download_happens_when_the_page_is_on_air() {
    // Replay an NN search and verify each processed arrival slot really
    // carries an index page on the virtual schedule.
    let pts = unif(-6.6, 21);
    let ch = channel(&pts, 987_654);
    let q = Point::new(12_345.0, 23_456.0);
    let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 1_000);
    while let Some(arrival) = task.step() {
        match ch.page_at(arrival) {
            PageContent::IndexNode(_) => {}
            other => panic!("download at {arrival} hit {other:?}, not an index page"),
        }
    }
}

#[test]
fn searches_respect_the_linear_medium() {
    // Arrivals are non-decreasing: the client never rewinds the channel.
    let pts = unif(-5.8, 22);
    let ch = channel(&pts, 5);
    let q = Point::new(30_000.0, 5_000.0);
    let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
    let mut last = 0u64;
    while let Some(a) = task.step() {
        assert!(a >= last);
        last = a;
    }
    // Window queries too.
    let mut w = WindowQueryTask::new(&ch, Circle::new(q, 4_000.0), 0);
    let mut last = 0u64;
    while let Some(a) = w.step() {
        assert!(a >= last);
        last = a;
    }
}

#[test]
fn tune_in_counts_exactly_the_downloads() {
    let pts = unif(-6.2, 23);
    let ch = channel(&pts, 77);
    let q = Point::new(20_000.0, 20_000.0);
    let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
    let mut downloads = 0u64;
    while task.step().is_some() {
        downloads += 1;
    }
    assert_eq!(task.tuner().pages, downloads);
}

#[test]
fn nn_search_never_downloads_more_than_the_index_length() {
    let pts = unif(-5.4, 24);
    let ch = channel(&pts, 0);
    for q in uniform_points(10, &paper_region(), 31) {
        let mut task = NnSearchTask::new(&ch, SearchMode::Point { q }, AnnMode::Exact, 0);
        task.run_to_completion();
        assert!(task.tuner().pages <= ch.layout().index_len());
    }
}

#[test]
fn root_wait_is_bounded_by_one_bucket() {
    let pts = unif(-6.6, 25);
    let ch = channel(&pts, 123);
    for start in [0u64, 999, 12_345, 999_999] {
        let arrival = ch.view().next_root_arrival(start);
        assert!(arrival - start < ch.layout().bucket_len());
        assert_eq!(ch.page_at(arrival), PageContent::IndexNode(NodeId::ROOT));
    }
}

#[test]
fn larger_pages_reduce_tune_in_pages() {
    // Table 2's page-capacity sweep: with bigger pages, fewer pages are
    // needed for the same query (fanout grows, height shrinks).
    let s = unif(-5.8, 26);
    let r = unif(-5.8, 27);
    let q = Point::new(19_000.0, 21_000.0);
    let mut tune_ins = Vec::new();
    for cap in [64usize, 128, 256, 512] {
        let params = BroadcastParams::new(cap);
        let st = Arc::new(RTree::build(&s, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let rt = Arc::new(RTree::build(&r, params.rtree_params(), PackingAlgorithm::Str).unwrap());
        let env = MultiChannelEnv::new(vec![st, rt], params, &[3, 33]);
        let run = QueryEngine::new(env)
            .run(&Query::tnn(q).algorithm(Algorithm::DoubleNn))
            .unwrap();
        tune_ins.push(run.tune_in());
    }
    for w in tune_ins.windows(2) {
        assert!(
            w[1] <= w[0],
            "tune-in should not grow with page capacity: {tune_ins:?}"
        );
    }
}

#[test]
fn interleave_m_trades_cycle_length_for_index_frequency() {
    let pts = unif(-5.8, 28);
    let params_m1 = tnn_broadcast::BroadcastParams {
        page_capacity: 64,
        interleave_m: 1,
        data_content_bytes: 1024,
    };
    let params_m8 = tnn_broadcast::BroadcastParams {
        interleave_m: 8,
        ..params_m1
    };
    let tree =
        Arc::new(RTree::build(&pts, params_m1.rtree_params(), PackingAlgorithm::Str).unwrap());
    let ch1 = Channel::new(Arc::clone(&tree), params_m1, 0);
    let ch8 = Channel::new(tree, params_m8, 0);
    // More index copies per cycle → shorter expected root wait…
    assert!(ch8.layout().bucket_len() < ch1.layout().bucket_len());
    // …at the price of a longer total cycle (more replicated index pages).
    assert!(ch8.layout().cycle_len() > ch1.layout().cycle_len());
}
