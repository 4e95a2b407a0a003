//! Spatial partitioning of a multi-channel environment into shards.
//!
//! Every channel's dataset is split by the *same* grid of cells — a shard
//! holds one sub-tree per channel. Shard sub-trees are bulk-loaded with
//! the source's own [`ObjectId`]s ([`RTree::build_with_ids`]; the
//! broadcast layout maps ids of any spread to their data slots), so a
//! sharded answer's stops are the same bytes an unsharded run reports.
//!
//! The grid tiles the union of every channel's bounding rectangle, and
//! assignment is deterministic: a point joins the lowest-indexed cell
//! that contains it.

use crate::config::ShardConfig;
use std::sync::Arc;
use tnn_broadcast::{Channel, MultiChannelEnv};
use tnn_geom::{Point, Rect};
use tnn_rtree::{ObjectId, RTree};

/// One shard: a full `k`-channel sub-environment plus the routing
/// metadata the scatter-gather layer prunes with.
#[derive(Debug, Clone)]
struct ShardData {
    /// The shard's own `k`-channel environment — same broadcast
    /// parameters and phases as the source, one sub-tree per channel
    /// (empty channels are represented by [`RTree::empty`]).
    env: MultiChannelEnv,
    /// Union of the non-empty sub-trees' root MBRs — the tightest
    /// rectangle enclosing every object the shard holds (`None` for an
    /// entirely empty shard).
    mbr: Option<Rect>,
    /// Whether every channel of the shard is non-empty — only such
    /// shards can answer a whole `k`-hop sub-query on their own.
    eligible: bool,
}

/// The partitioning of one [`MultiChannelEnv`] into shards: the cells,
/// the per-shard sub-environments, and the per-shard routing metadata.
///
/// Built once per environment epoch by [`ShardPlan::build`]; the
/// [`crate::ShardRouter`] prunes and scatters against it on every query
/// (and builds a fresh plan when [`crate::ShardRouter::swap_env`]
/// publishes a new environment). Cloning is cheap: trees are shared
/// [`Arc`]s.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    k: usize,
    cells: Vec<Rect>,
    shards: Vec<ShardData>,
    eligible: Vec<usize>,
}

impl ShardPlan {
    /// Partitions `env` into [`ShardConfig::shards`] grid shards.
    ///
    /// Every object of every channel lands in exactly one shard, with
    /// its original [`ObjectId`] preserved. A zero-channel environment
    /// yields a zero-shard plan (the router rejects its queries before
    /// ever touching the plan).
    pub fn build(env: &MultiChannelEnv, config: &ShardConfig) -> ShardPlan {
        let k = env.len();
        if k == 0 {
            return ShardPlan {
                k,
                cells: Vec::new(),
                shards: Vec::new(),
                eligible: Vec::new(),
            };
        }
        let params = *env.channel(0).params();
        let phases: Vec<u64> = env.channels().iter().map(Channel::phase).collect();
        let cells = grid_cells(union_region(env), config.shards.max(1));

        let mut buckets: Vec<Vec<Vec<(Point, ObjectId)>>> =
            (0..cells.len()).map(|_| vec![Vec::new(); k]).collect();
        for (c, channel) in env.channels().iter().enumerate() {
            for (point, object) in channel.tree().objects_in_leaf_order() {
                buckets[assign(&cells, point)][c].push((point, object));
            }
        }

        let shards: Vec<ShardData> = buckets
            .into_iter()
            .map(|channels| {
                let trees: Vec<Arc<RTree>> = channels
                    .iter()
                    .zip(env.channels())
                    .map(|(objects, channel)| {
                        let source = channel.tree();
                        if objects.is_empty() {
                            Arc::new(RTree::empty(source.params()))
                        } else {
                            #[expect(
                                clippy::expect_used,
                                reason = "plan construction is pre-serving; a malformed bucket must abort the build, not limp into traffic"
                            )]
                            let tree =
                                RTree::build_with_ids(objects, source.params(), source.packing())
                                    .expect("a non-empty bucket bulk-loads");
                            Arc::new(tree)
                        }
                    })
                    .collect();
                let mbr = trees
                    .iter()
                    .filter(|t| t.num_objects() > 0)
                    .map(|t| t.root_mbr())
                    .reduce(|a, b| a.union(&b));
                let eligible = trees.iter().all(|t| t.num_objects() > 0);
                let env = MultiChannelEnv::new(trees, params, &phases);
                ShardData { env, mbr, eligible }
            })
            .collect();
        let eligible = (0..shards.len()).filter(|&i| shards[i].eligible).collect();
        ShardPlan {
            k,
            cells,
            shards,
            eligible,
        }
    }

    /// Number of channels the plan was built over.
    pub fn channels(&self) -> usize {
        self.k
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partition cells, in shard order.
    pub fn cells(&self) -> &[Rect] {
        &self.cells
    }

    /// Shard `i`'s sub-environment.
    pub fn shard_env(&self, i: usize) -> &MultiChannelEnv {
        &self.shards[i].env
    }

    /// Shard `i`'s channel-`c` sub-tree, holding its objects under their
    /// ids in the source channel tree.
    pub fn tree(&self, i: usize, c: usize) -> &RTree {
        self.shards[i].env.channel(c).tree()
    }

    /// The tightest rectangle enclosing every object shard `i` holds
    /// (`None` when the shard is empty). Tighter than the partition
    /// cell, so pruning against it is strictly stronger.
    pub fn mbr(&self, i: usize) -> Option<Rect> {
        self.shards[i].mbr
    }

    /// Whether every channel of shard `i` is non-empty.
    pub fn is_eligible(&self, i: usize) -> bool {
        self.shards[i].eligible
    }

    /// Indices of eligible shards, ascending.
    pub fn eligible_shards(&self) -> &[usize] {
        &self.eligible
    }
}

/// Union of the non-empty channels' bounding rectangles — the region the
/// grid tiles. Degenerate when every channel is empty.
fn union_region(env: &MultiChannelEnv) -> Rect {
    env.channels()
        .iter()
        .filter(|c| c.tree().num_objects() > 0)
        .map(|c| c.tree().bounding_rect())
        .reduce(|a, b| a.union(&b))
        .unwrap_or(Rect::from_coords(0.0, 0.0, 0.0, 0.0))
}

/// `cols × rows = n` with `cols` the largest divisor of `n` at most
/// `√n` — as square a grid as `n` divides into.
fn grid_dims(n: usize) -> (usize, usize) {
    let mut cols = 1;
    for d in 1..=n {
        if n.is_multiple_of(d) && d * d <= n {
            cols = d;
        }
    }
    (cols, n / cols)
}

/// Exactly `n` cells tiling `region` row-major. Adjacent cells share
/// their edge coordinate (computed once per grid line), so the tiling
/// has no float gaps for boundary points to fall through.
fn grid_cells(region: Rect, n: usize) -> Vec<Rect> {
    let (cols, rows) = grid_dims(n);
    let edge = |lo: f64, hi: f64, i: usize, steps: usize| {
        let t = i as f64 / steps as f64;
        if i == steps {
            hi
        } else if (hi - lo).is_finite() {
            lo + (hi - lo) * t
        } else {
            // A span wider than f64::MAX (so lo < 0 < hi): the two terms
            // cannot overflow, and both grow with t.
            lo * (1.0 - t) + hi * t
        }
    };
    let xs: Vec<f64> = (0..=cols)
        .map(|i| edge(region.min.x, region.max.x, i, cols))
        .collect();
    let ys: Vec<f64> = (0..=rows)
        .map(|i| edge(region.min.y, region.max.y, i, rows))
        .collect();
    let mut cells = Vec::with_capacity(n);
    for r in 0..rows {
        for c in 0..cols {
            cells.push(Rect::from_coords(xs[c], ys[r], xs[c + 1], ys[r + 1]));
        }
    }
    cells
}

/// The lowest-indexed cell containing `p`. Every point of the region
/// lies in one — the outer grid lines are the region's own edges, the
/// inner ones are finite and ascending, and adjacent cells share them —
/// so the `0` only keeps this total.
fn assign(cells: &[Rect], p: Point) -> usize {
    cells.iter().position(|cell| cell.contains(p)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardConfig;
    use tnn_broadcast::BroadcastParams;
    use tnn_datasets::uniform_points;
    use tnn_rtree::PackingAlgorithm;

    fn build_env(layers: &[Vec<Point>]) -> MultiChannelEnv {
        let params = BroadcastParams::new(64);
        let trees = layers
            .iter()
            .map(|pts| {
                Arc::new(RTree::build(pts, params.rtree_params(), PackingAlgorithm::Str).unwrap())
            })
            .collect();
        let phases: Vec<u64> = (0..layers.len() as u64).map(|i| i * 7 + 2).collect();
        MultiChannelEnv::new(trees, params, &phases)
    }

    fn sample_env(k: usize) -> MultiChannelEnv {
        let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let layers: Vec<Vec<Point>> = (0..k)
            .map(|i| uniform_points(150 + 40 * i, &region, 0xBEEF + i as u64))
            .collect();
        build_env(&layers)
    }

    #[test]
    fn grid_dims_follow_the_divisor_rule() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(2), (1, 2));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(6), (2, 3));
        assert_eq!(grid_dims(8), (2, 4));
        assert_eq!(grid_dims(9), (3, 3));
        assert_eq!(grid_dims(7), (1, 7));
    }

    #[test]
    fn grid_plan_covers_every_object_exactly_once_with_ids() {
        let env = sample_env(3);
        for shards in [1usize, 2, 4, 8] {
            let plan = ShardPlan::build(&env, &ShardConfig::new().shards(shards));
            assert_eq!(plan.num_shards(), shards);
            assert_eq!(plan.cells().len(), shards);
            for (c, channel) in env.channels().iter().enumerate() {
                let mut original: Vec<(Point, ObjectId)> =
                    channel.tree().objects_in_leaf_order().collect();
                let mut sharded: Vec<(Point, ObjectId)> = (0..shards)
                    .flat_map(|s| plan.tree(s, c).objects_in_leaf_order())
                    .collect();
                let key = |&(p, id): &(Point, ObjectId)| (p.x.to_bits(), p.y.to_bits(), id.0);
                original.sort_by_key(key);
                sharded.sort_by_key(key);
                assert_eq!(original, sharded, "channel {c} at {shards} shards");
            }
        }
    }

    #[test]
    fn shard_mbrs_bound_their_objects_and_flag_eligibility() {
        let env = sample_env(2);
        let plan = ShardPlan::build(&env, &ShardConfig::new().shards(4));
        assert!(
            !plan.eligible_shards().is_empty(),
            "uniform data fills some shard"
        );
        for s in 0..plan.num_shards() {
            let holds_objects = (0..2).any(|c| plan.tree(s, c).num_objects() > 0);
            assert_eq!(plan.mbr(s).is_some(), holds_objects);
            if let Some(mbr) = plan.mbr(s) {
                for c in 0..2 {
                    for (p, _) in plan.tree(s, c).objects_in_leaf_order() {
                        assert!(mbr.contains(p), "shard {s} object {p:?} outside {mbr:?}");
                    }
                }
            }
            assert_eq!(
                plan.is_eligible(s),
                (0..2).all(|c| plan.tree(s, c).num_objects() > 0)
            );
        }
    }

    #[test]
    fn shard_envs_inherit_params_and_phases() {
        let env = sample_env(2);
        let plan = ShardPlan::build(&env, &ShardConfig::new().shards(2));
        for s in 0..plan.num_shards() {
            let shard_env = plan.shard_env(s);
            assert_eq!(shard_env.len(), env.len());
            for (a, b) in shard_env.channels().iter().zip(env.channels()) {
                assert_eq!(a.phase(), b.phase());
                assert_eq!(a.params(), b.params());
            }
        }
    }

    #[test]
    fn boundary_points_join_exactly_one_grid_cell() {
        // Points sitting exactly on interior grid lines must not be
        // duplicated or lost.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(500.0, 500.0),
            Point::new(1000.0, 1000.0),
            Point::new(500.0, 0.0),
            Point::new(0.0, 500.0),
            Point::new(250.0, 750.0),
        ];
        let env = build_env(&[pts.clone(), pts.clone()]);
        let plan = ShardPlan::build(&env, &ShardConfig::new().shards(4));
        for c in 0..2 {
            let total: usize = (0..plan.num_shards())
                .map(|s| plan.tree(s, c).num_objects())
                .sum();
            assert_eq!(total, pts.len());
        }
    }

    #[test]
    fn regions_wider_than_f64_max_still_tile() {
        // The x span overflows f64; the grid lines must stay finite so
        // every point lands in the cell that contains it.
        let pts = vec![
            Point::new(-f64::MAX, 0.0),
            Point::new(0.0, 1.0),
            Point::new(f64::MAX, 2.0),
        ];
        let env = build_env(&[pts.clone(), pts.clone()]);
        let plan = ShardPlan::build(&env, &ShardConfig::new().shards(4));
        for (s, cell) in plan.cells().iter().enumerate() {
            for (p, _) in plan.tree(s, 0).objects_in_leaf_order() {
                assert!(cell.contains(p), "{p:?} outside cell {s} {cell:?}");
            }
        }
        assert_eq!(plan.eligible_shards(), [0, 3]);
        assert_eq!(plan.tree(0, 1).num_objects(), 2);
    }

    #[test]
    fn zero_channel_env_builds_an_empty_plan() {
        let params = BroadcastParams::new(64);
        let env = MultiChannelEnv::new(Vec::new(), params, &[]);
        let plan = ShardPlan::build(&env, &ShardConfig::new());
        assert_eq!(plan.num_shards(), 0);
        assert_eq!(plan.channels(), 0);
    }
}
