//! The exact TNN oracle: in-memory ground truth for correctness tests and
//! the Table 3 fail-rate measurement.

use crate::{merge_route_layers, JoinScratch, RouteObjective, TnnPair};
use tnn_geom::Point;
use tnn_rtree::{ObjectId, RTree};

/// Computes the true optimum `argmin_{(s,r)} dis(p, s) + dis(s, r)` over
/// two in-memory R-trees.
///
/// Sweeps `S` by increasing `dis(p, s)` (incremental distance browsing)
/// and looks up each candidate's nearest neighbor in `R`; once
/// `dis(p, s)` alone reaches the best total, no further `s` can win, so
/// the sweep terminates after a handful of candidates in practice.
pub fn exact_tnn(p: Point, s_tree: &RTree, r_tree: &RTree) -> TnnPair {
    let mut best: Option<TnnPair> = None;
    for (s_pt, s_id, d_ps) in s_tree.nn_iter(p) {
        if let Some(b) = &best {
            if d_ps >= b.dist {
                break;
            }
        }
        let nn = r_tree
            .nearest_neighbor(s_pt)
            .expect("R-trees always hold at least one object");
        let total = d_ps + nn.dist;
        if best.as_ref().is_none_or(|b| total < b.dist) {
            best = Some(TnnPair {
                s: (s_pt, s_id),
                r: (nn.point, nn.object),
                dist: total,
            });
        }
    }
    best.expect("R-trees always hold at least one object")
}

/// Exact chained TNN over `k` in-memory trees (ground truth for the
/// chained extension): minimizes `dis(p, s₁) + Σ dis(sᵢ, sᵢ₊₁)`.
///
/// Materializes all layers and runs the engine's chain join over them
/// ([`merge_route_layers`] under [`RouteObjective::Chain`]). Its bucket
/// grids and lazy head step prune most pairs, but the worst case stays
/// the nested loop's `O(Σ nᵢ·nᵢ₊₁)`, and every call materializes the
/// whole datasets: an oracle for tests and sampled checks, not a query
/// path.
pub fn exact_chain_tnn(p: Point, trees: &[&RTree]) -> (Vec<(Point, ObjectId)>, f64) {
    let layers: Vec<Vec<(Point, ObjectId)>> = trees
        .iter()
        .map(|t| t.objects_in_leaf_order().collect())
        .collect();
    let mut join = JoinScratch::default();
    let route = merge_route_layers(&mut join, RouteObjective::Chain, p, &layers, None)
        .expect("R-trees always hold at least one object");
    let stops = route
        .stops
        .into_iter()
        .map(|(pt, id, _)| (pt, id))
        .collect();
    (stops, route.total_dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_geom::transitive_dist;
    use tnn_rtree::{PackingAlgorithm, RTreeParams};

    fn tree(coords: &[(f64, f64)]) -> RTree {
        let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        RTree::build(&pts, RTreeParams::default(), PackingAlgorithm::Str).unwrap()
    }

    fn pseudo(n: usize, salt: u64) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let a = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt);
                let x = (a >> 33) % 10_000;
                let y = (a >> 13) % 10_000;
                (x as f64, y as f64)
            })
            .collect()
    }

    #[test]
    fn oracle_matches_brute_force() {
        let s_coords = pseudo(120, 1);
        let r_coords = pseudo(150, 2);
        let s_tree = tree(&s_coords);
        let r_tree = tree(&r_coords);
        for p in [
            Point::new(0.0, 0.0),
            Point::new(5_000.0, 5_000.0),
            Point::new(12_000.0, -500.0),
        ] {
            let got = exact_tnn(p, &s_tree, &r_tree);
            let mut best = f64::INFINITY;
            for &(sx, sy) in &s_coords {
                for &(rx, ry) in &r_coords {
                    best = best.min(transitive_dist(p, Point::new(sx, sy), Point::new(rx, ry)));
                }
            }
            assert!((got.dist - best).abs() < 1e-9, "query {p:?}");
            // The reported pair realizes the reported distance.
            assert!((transitive_dist(p, got.s.0, got.r.0) - got.dist).abs() < 1e-9);
        }
    }

    #[test]
    fn oracle_on_single_point_trees() {
        let s_tree = tree(&[(1.0, 0.0)]);
        let r_tree = tree(&[(1.0, 7.0)]);
        let got = exact_tnn(Point::ORIGIN, &s_tree, &r_tree);
        assert!((got.dist - 8.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_is_direction_sensitive() {
        // TNN is not symmetric in (S, R): p→s→r differs from p→r→s.
        let a = tree(&[(10.0, 0.0)]);
        let b = tree(&[(1.0, 0.0)]);
        let p = Point::ORIGIN;
        let ab = exact_tnn(p, &a, &b);
        let ba = exact_tnn(p, &b, &a);
        assert!((ab.dist - 19.0).abs() < 1e-12); // 10 + 9
        assert!((ba.dist - 10.0).abs() < 1e-12); // 1 + 9
    }

    #[test]
    fn chain_oracle_two_layers_matches_pair_oracle() {
        let s_coords = pseudo(40, 3);
        let r_coords = pseudo(50, 4);
        let s_tree = tree(&s_coords);
        let r_tree = tree(&r_coords);
        let p = Point::new(3_000.0, 3_000.0);
        let pair = exact_tnn(p, &s_tree, &r_tree);
        let (path, total) = exact_chain_tnn(p, &[&s_tree, &r_tree]);
        assert_eq!(path.len(), 2);
        assert!((total - pair.dist).abs() < 1e-9);
    }
}
