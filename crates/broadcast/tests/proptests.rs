//! Property tests for the virtual broadcast schedule: the closed-form
//! arrival arithmetic must agree with brute-force scanning of the page
//! stream for arbitrary programs and phases.

use proptest::prelude::*;
use std::sync::Arc;
use tnn_broadcast::{BroadcastParams, Channel, PageContent};
use tnn_geom::Point;
use tnn_rtree::{NodeId, PackingAlgorithm, RTree};

fn channel_strategy() -> impl Strategy<Value = (Channel, u64)> {
    (
        1usize..120, // number of objects
        prop::sample::select(vec![64usize, 128, 256]),
        1u32..6,      // interleave m
        0u64..10_000, // phase
        0u64..5_000,  // probe time
    )
        .prop_map(|(n, page, m, phase, now)| {
            let params = BroadcastParams {
                page_capacity: page,
                interleave_m: m,
                data_content_bytes: 1024,
            };
            let pts: Vec<Point> = (0..n)
                .map(|i| Point::new((i * 17 % 257) as f64, (i * 23 % 263) as f64))
                .collect();
            let tree = RTree::build(&pts, params.rtree_params(), PackingAlgorithm::Str).unwrap();
            (Channel::new(Arc::new(tree), params, phase), now)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `next_node_arrival` returns the first slot ≥ now carrying the node.
    #[test]
    fn node_arrival_is_first_on_air_slot((ch, now) in channel_strategy(), node_sel in 0usize..50) {
        let node = NodeId((node_sel % ch.tree().num_nodes()) as u32);
        let arr = ch.view().next_node_arrival(node, now);
        prop_assert!(arr >= now);
        prop_assert!(arr - now < ch.layout().bucket_len());
        prop_assert_eq!(ch.page_at(arr), PageContent::IndexNode(node));
        for t in now..arr {
            prop_assert_ne!(ch.page_at(t), PageContent::IndexNode(node));
        }
    }

    /// Data arrivals match the page stream and recur once per cycle.
    #[test]
    fn data_arrival_matches_stream((ch, now) in channel_strategy(), j_sel in 0u64..100_000) {
        let l = ch.layout();
        prop_assume!(l.data_len() > 0);
        let j = j_sel % l.data_len();
        let arr = l.next_data_arrival(j, now, ch.phase());
        prop_assert!(arr >= now);
        prop_assert!(arr - now < l.cycle_len());
        match ch.page_at(arr) {
            PageContent::Data { object, part } => {
                let expect_slot = (j / l.pages_per_object()) * l.pages_per_object();
                prop_assert_eq!(l.data_slot(object), expect_slot);
                prop_assert_eq!(part, j % l.pages_per_object());
            }
            other => prop_assert!(false, "expected data page, got {other:?}"),
        }
    }

    /// Object retrieval downloads exactly pages_per_object pages and always
    /// finishes within two cycles.
    #[test]
    fn object_retrieval_is_bounded((ch, now) in channel_strategy(), rank in 0usize..200) {
        let objects: Vec<_> = ch.tree().objects_in_leaf_order().collect();
        let (_, object) = objects[rank % objects.len()];
        let (finish, pages) = ch.view().retrieve_object(object, now);
        prop_assert_eq!(pages, ch.layout().pages_per_object());
        prop_assert!(finish >= now);
        prop_assert!(finish - now <= 2 * ch.layout().cycle_len() + pages);
    }

    /// The root recurs every bucket: two consecutive arrivals differ by
    /// exactly bucket_len.
    #[test]
    fn root_period_is_bucket((ch, now) in channel_strategy()) {
        let a0 = ch.view().next_root_arrival(now);
        let a1 = ch.view().next_root_arrival(a0 + 1);
        prop_assert_eq!(a1 - a0, ch.layout().bucket_len());
    }
}
