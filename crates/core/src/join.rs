//! The filter-phase local join: find the minimum-transitive-distance pair
//! among the retrieved candidates.
//!
//! The paper's Algorithm 1 (lines 7–17) is a bound-pruned nested loop; we
//! keep that shape but run every comparison in squared-distance space and
//! accelerate the inner NN lookup with an x-sorted plane sweep when the
//! candidate sets are large (the join runs on the client from
//! already-downloaded data, and the paper explicitly neglects its
//! computational cost — this only keeps simulations fast). All working
//! memory lives in a reusable [`JoinScratch`], so a batch of queries
//! performs no join allocations after the first.

use crate::TnnPair;
use tnn_geom::Point;
use tnn_rtree::ObjectId;

/// Candidate-set size beyond which the inner loop switches from a linear
/// scan to the x-sorted sweep (sorting only pays off once the scan is
/// long enough).
const SWEEP_JOIN_THRESHOLD: usize = 48;

/// Reusable buffers for [`tnn_join_with`] and the k-layer
/// [`chain_join_with`]: the `s`-candidate visit order, the x-sorted
/// inner-layer index, and the chain DP's per-layer cost/backpointer
/// tables. One scratch serves both the two-channel join and every hop of
/// a `k`-layer join, so a batch of queries performs no join allocations
/// after the buffers have grown to the workload's candidate counts.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// `(dis²(p, s), index)` sorted ascending.
    s_order: Vec<(f64, u32)>,
    /// `(x, y, index)` sorted by x (then index).
    r_by_x: Vec<(f64, f64, u32)>,
    /// The downstream layer of the current chain-DP transition, sorted by
    /// x (then index).
    layer_by_x: Vec<(Point, u32)>,
    /// Chain DP: suffix cost per layer item, one table per layer.
    chain_cost: Vec<Vec<f64>>,
    /// Chain DP: best-successor backpointers, one table per layer.
    chain_next: Vec<Vec<u32>>,
}

/// Finds the pair `(s, r)` minimizing `dis(p, s) + dis(s, r)` over the
/// candidate sets, or `None` when either set is empty.
///
/// Ties are broken toward smaller squared distance, then smaller
/// candidate index — deterministic for deterministic inputs and
/// independent of the inner-loop strategy.
pub fn tnn_join(
    p: Point,
    s_cands: &[(Point, ObjectId)],
    r_cands: &[(Point, ObjectId)],
) -> Option<TnnPair> {
    tnn_join_with(&mut JoinScratch::default(), p, s_cands, r_cands)
}

/// [`tnn_join`] with caller-provided scratch buffers (zero allocations
/// once the buffers have grown to the workload's candidate counts).
pub fn tnn_join_with(
    scratch: &mut JoinScratch,
    p: Point,
    s_cands: &[(Point, ObjectId)],
    r_cands: &[(Point, ObjectId)],
) -> Option<TnnPair> {
    if s_cands.is_empty() || r_cands.is_empty() {
        return None;
    }

    // Visit s candidates in ascending dis(p, s): once dis(p, s) alone
    // reaches the best total, no later s can win (Algorithm 1 line 8).
    // Squared distances order identically; the index tie-break keeps the
    // unstable sort deterministic.
    scratch.s_order.clear();
    scratch.s_order.extend(
        s_cands
            .iter()
            .enumerate()
            .map(|(i, &(pt, _))| (p.dist_sq(pt), i as u32)),
    );
    scratch
        .s_order
        .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let sweep = r_cands.len() > SWEEP_JOIN_THRESHOLD;
    if sweep {
        scratch.r_by_x.clear();
        scratch.r_by_x.extend(
            r_cands
                .iter()
                .enumerate()
                .map(|(i, &(pt, _))| (pt.x, pt.y, i as u32)),
        );
        scratch
            .r_by_x
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
    }

    let mut best: Option<TnnPair> = None;
    for &(_, si) in &scratch.s_order {
        let (s_pt, s_id) = s_cands[si as usize];
        let d_ps = p.dist(s_pt);
        if let Some(b) = &best {
            if d_ps >= b.dist {
                break;
            }
        }
        let (ri, d_sr_sq) = if sweep {
            nearest_by_sweep(&scratch.r_by_x, s_pt)
        } else {
            nearest_by_scan(r_cands, s_pt)
        };
        let (r_pt, r_id) = r_cands[ri];
        let total = d_ps + d_sr_sq.sqrt();
        if best.as_ref().is_none_or(|b| total < b.dist) {
            best = Some(TnnPair {
                s: (s_pt, s_id),
                r: (r_pt, r_id),
                dist: total,
            });
        }
    }
    best
}

/// Linear inner NN in squared space; returns `(index, dis²)`. Picks the
/// smallest `(dis², index)` pair, matching [`nearest_by_sweep`] exactly.
fn nearest_by_scan(r_cands: &[(Point, ObjectId)], q: Point) -> (usize, f64) {
    let mut best = (usize::MAX, f64::INFINITY);
    for (i, &(pt, _)) in r_cands.iter().enumerate() {
        let d2 = q.dist_sq(pt);
        if d2 < best.1 {
            best = (i, d2);
        }
    }
    best
}

/// Inner NN over the x-sorted candidate index: expands outward from the
/// query's x position and stops each direction once the x gap alone
/// exceeds the best squared distance. Returns `(index, dis²)`, choosing
/// the smallest `(dis², index)` pair so the result is independent of the
/// sweep direction.
fn nearest_by_sweep(r_by_x: &[(f64, f64, u32)], q: Point) -> (usize, f64) {
    let start = r_by_x.partition_point(|e| e.0 < q.x);
    let mut best_d2 = f64::INFINITY;
    let mut best_idx = u32::MAX;
    for e in &r_by_x[start..] {
        let dx = e.0 - q.x;
        if dx * dx > best_d2 {
            break;
        }
        let dy = e.1 - q.y;
        let d2 = dx * dx + dy * dy;
        if d2 < best_d2 || (d2 == best_d2 && e.2 < best_idx) {
            best_d2 = d2;
            best_idx = e.2;
        }
    }
    for e in r_by_x[..start].iter().rev() {
        let dx = e.0 - q.x;
        if dx * dx > best_d2 {
            break;
        }
        let dy = e.1 - q.y;
        let d2 = dx * dx + dy * dy;
        if d2 < best_d2 || (d2 == best_d2 && e.2 < best_idx) {
            best_d2 = d2;
            best_idx = e.2;
        }
    }
    (best_idx as usize, best_d2)
}

/// Chained-TNN join (the future-work generalization): given candidate
/// layers `C₁ … C_k`, finds the chain `p → s₁ → … → s_k` with `sᵢ ∈ Cᵢ`
/// of minimum total length, by dynamic programming backwards over the
/// layers. Returns `None` when any layer is empty.
///
/// Layers are anything slice-like (`Vec`s or borrowed `&[_]` hit lists),
/// so the broadcast pipeline can join straight out of reused window-task
/// buffers without copying them into owned vectors first.
pub fn chain_join<L: AsRef<[(Point, ObjectId)]>>(
    p: Point,
    layers: &[L],
) -> Option<(Vec<(Point, ObjectId)>, f64)> {
    chain_join_with(&mut JoinScratch::default(), p, layers)
}

/// [`chain_join`] with caller-provided scratch buffers — the k-layer
/// sibling of [`tnn_join_with`], reusing the same [`JoinScratch`].
///
/// Each layer transition is the x-sorted sweep of the two-channel join,
/// iterated pairwise down the layers: large downstream layers are sorted
/// by x once per transition and each upstream point expands outward from
/// its x position, stopping a direction when the x gap plus the smallest
/// downstream suffix cost already reaches its best total (`dis ≥ |Δx|`
/// and `cost ≥ min cost` bound the objective from below).
pub fn chain_join_with<L: AsRef<[(Point, ObjectId)]>>(
    scratch: &mut JoinScratch,
    p: Point,
    layers: &[L],
) -> Option<(Vec<(Point, ObjectId)>, f64)> {
    chain_join_core(scratch, p, layers, false)
}

/// The closed-tour k-layer join: minimizes
/// `dis(p, s₁) + Σ dis(sᵢ, sᵢ₊₁) + dis(s_k, p)` — the round-trip TNN
/// objective over `k ≥ 2` layers. Returns `None` when any layer is empty.
pub fn chain_loop_join<L: AsRef<[(Point, ObjectId)]>>(
    p: Point,
    layers: &[L],
) -> Option<(Vec<(Point, ObjectId)>, f64)> {
    chain_loop_join_with(&mut JoinScratch::default(), p, layers)
}

/// [`chain_loop_join`] with caller-provided scratch buffers.
pub fn chain_loop_join_with<L: AsRef<[(Point, ObjectId)]>>(
    scratch: &mut JoinScratch,
    p: Point,
    layers: &[L],
) -> Option<(Vec<(Point, ObjectId)>, f64)> {
    chain_join_core(scratch, p, layers, true)
}

/// The two-channel round-trip join: minimum of
/// `dis(p,s) + dis(s,r) + dis(r,p)` over the candidate sets, with early
/// exit over `s` ordered by `dis(p, s)` (for any `r`,
/// `dis(s,r) + dis(r,p) ≥ dis(s,p)`, so the tour through `s` is at least
/// `2·dis(p,s)`). The `k > 2` generalization is [`chain_loop_join`].
pub fn round_trip_join(
    p: Point,
    s_cands: &[(Point, ObjectId)],
    r_cands: &[(Point, ObjectId)],
) -> Option<TnnPair> {
    if s_cands.is_empty() || r_cands.is_empty() {
        return None;
    }
    let mut order: Vec<usize> = (0..s_cands.len()).collect();
    order.sort_by(|&a, &b| p.dist_sq(s_cands[a].0).total_cmp(&p.dist_sq(s_cands[b].0)));
    let mut best: Option<TnnPair> = None;
    for &si in &order {
        let (s_pt, s_id) = s_cands[si];
        let d_ps = p.dist(s_pt);
        if let Some(b) = &best {
            if 2.0 * d_ps >= b.dist {
                break;
            }
        }
        for &(r_pt, r_id) in r_cands {
            let loop_len = d_ps + s_pt.dist(r_pt) + r_pt.dist(p);
            if best.as_ref().is_none_or(|b| loop_len < b.dist) {
                best = Some(TnnPair {
                    s: (s_pt, s_id),
                    r: (r_pt, r_id),
                    dist: loop_len,
                });
            }
        }
    }
    best
}

/// Shared implementation of the open-chain and closed-tour k-layer joins.
/// `close_tour` seeds the last layer's suffix costs with the return leg
/// `dis(s_k, p)` instead of zero.
///
/// Ties are broken toward the smaller `(total, index)` pair in every
/// transition and in the head step, matching the plain nested-loop order
/// — deterministic and independent of whether a transition took the scan
/// or the sweep path.
fn chain_join_core<L: AsRef<[(Point, ObjectId)]>>(
    scratch: &mut JoinScratch,
    p: Point,
    layers: &[L],
    close_tour: bool,
) -> Option<(Vec<(Point, ObjectId)>, f64)> {
    if layers.is_empty() || layers.iter().any(|l| l.as_ref().is_empty()) {
        return None;
    }
    let k = layers.len();
    // Grow the per-layer DP tables to k layers, reusing inner capacity.
    while scratch.chain_cost.len() < k {
        scratch.chain_cost.push(Vec::new());
        scratch.chain_next.push(Vec::new());
    }
    for (i, layer) in layers.iter().enumerate() {
        let n = layer.as_ref().len();
        let cost = &mut scratch.chain_cost[i];
        cost.clear();
        if i == k - 1 {
            if close_tour {
                cost.extend(layer.as_ref().iter().map(|&(pt, _)| pt.dist(p)));
            } else {
                cost.extend(std::iter::repeat_n(0.0, n));
            }
        } else {
            cost.extend(std::iter::repeat_n(f64::INFINITY, n));
        }
        let next = &mut scratch.chain_next[i];
        next.clear();
        next.extend(std::iter::repeat_n(0u32, n));
    }

    // Backward DP: cost[i][j] = best suffix length starting at layer i's
    // item j. Each transition is a (weighted) nearest-neighbor problem
    // over the downstream layer; large layers take the x-sorted sweep.
    for i in (0..k - 1).rev() {
        let downstream = layers[i + 1].as_ref();
        let (cost_i, cost_next) = {
            let (head, tail) = scratch.chain_cost.split_at_mut(i + 1);
            (&mut head[i], &tail[0][..downstream.len()])
        };
        let next_i = &mut scratch.chain_next[i];
        let sweep = downstream.len() > SWEEP_JOIN_THRESHOLD;
        let min_future = cost_next.iter().copied().fold(f64::INFINITY, f64::min);
        if sweep {
            scratch.layer_by_x.clear();
            scratch.layer_by_x.extend(
                downstream
                    .iter()
                    .enumerate()
                    .map(|(j, &(pt, _))| (pt, j as u32)),
            );
            scratch
                .layer_by_x
                .sort_unstable_by(|a, b| a.0.x.total_cmp(&b.0.x).then(a.1.cmp(&b.1)));
        }
        for (j, &(pt, _)) in layers[i].as_ref().iter().enumerate() {
            let (best, arg) = if sweep {
                weighted_nearest_by_sweep(&scratch.layer_by_x, cost_next, min_future, pt)
            } else {
                weighted_nearest_by_scan(downstream, cost_next, pt)
            };
            cost_i[j] = best;
            next_i[j] = arg;
        }
    }

    // Head step from p into layer 0.
    let (mut j, mut total) = (0usize, f64::INFINITY);
    for (j0, &(pt, _)) in layers[0].as_ref().iter().enumerate() {
        let c = p.dist(pt) + scratch.chain_cost[0][j0];
        if c < total {
            total = c;
            j = j0;
        }
    }
    let mut path = Vec::with_capacity(k);
    for (i, layer) in layers.iter().enumerate() {
        path.push(layer.as_ref()[j]);
        if i + 1 < k {
            j = scratch.chain_next[i][j] as usize;
        }
    }
    Some((path, total))
}

/// Linear inner loop of one chain-DP transition: minimizes
/// `dis(q, cand) + cost[cand]` over the downstream layer, preferring the
/// smaller `(total, index)` pair on ties.
fn weighted_nearest_by_scan(cands: &[(Point, ObjectId)], cost: &[f64], q: Point) -> (f64, u32) {
    let mut best = (f64::INFINITY, u32::MAX);
    for (j, &(pt, _)) in cands.iter().enumerate() {
        let total = q.dist(pt) + cost[j];
        if total < best.0 {
            best = (total, j as u32);
        }
    }
    best
}

/// Sweep inner loop of one chain-DP transition over the x-sorted
/// downstream layer: expands outward from the query's x position and
/// stops a direction once `|Δx| + min_cost` alone reaches the best total
/// (`dis(q, cand) ≥ |Δx|` and `cost[cand] ≥ min_cost`). Picks the
/// smallest `(total, index)` pair, matching [`weighted_nearest_by_scan`]
/// exactly, so the result is independent of the sweep direction.
fn weighted_nearest_by_sweep(
    by_x: &[(Point, u32)],
    cost: &[f64],
    min_cost: f64,
    q: Point,
) -> (f64, u32) {
    let start = by_x.partition_point(|e| e.0.x < q.x);
    let mut best = (f64::INFINITY, u32::MAX);
    for &(pt, j) in &by_x[start..] {
        let dx = pt.x - q.x;
        if dx + min_cost > best.0 {
            break;
        }
        let total = q.dist(pt) + cost[j as usize];
        if total < best.0 || (total == best.0 && j < best.1) {
            best = (total, j);
        }
    }
    for &(pt, j) in by_x[..start].iter().rev() {
        let dx = q.x - pt.x;
        if dx + min_cost > best.0 {
            break;
        }
        let total = q.dist(pt) + cost[j as usize];
        if total < best.0 || (total == best.0 && j < best.1) {
            best = (total, j);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn_geom::transitive_dist;

    fn pts(coords: &[(f64, f64)]) -> Vec<(Point, ObjectId)> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Point::new(x, y), ObjectId(i as u32)))
            .collect()
    }

    #[test]
    fn join_matches_brute_force_small() {
        let p = Point::new(0.0, 0.0);
        let s = pts(&[(1.0, 0.0), (5.0, 5.0), (2.0, 2.0)]);
        let r = pts(&[(1.0, 1.0), (10.0, 0.0), (3.0, 2.0)]);
        let got = tnn_join(p, &s, &r).unwrap();
        let mut best = f64::INFINITY;
        for &(sp, _) in &s {
            for &(rp, _) in &r {
                best = best.min(transitive_dist(p, sp, rp));
            }
        }
        assert!((got.dist - best).abs() < 1e-12);
    }

    #[test]
    fn join_matches_brute_force_large_indexed_path() {
        // More than SWEEP_JOIN_THRESHOLD (48) r-candidates exercises the
        // x-sorted sweep inner loop.
        let p = Point::new(50.0, 50.0);
        let s: Vec<(Point, ObjectId)> = (0..80)
            .map(|i| {
                (
                    Point::new((i * 13 % 97) as f64, (i * 7 % 89) as f64),
                    ObjectId(i),
                )
            })
            .collect();
        let r: Vec<(Point, ObjectId)> = (0..120)
            .map(|i| {
                (
                    Point::new((i * 11 % 101) as f64, (i * 17 % 103) as f64),
                    ObjectId(i),
                )
            })
            .collect();
        let got = tnn_join(p, &s, &r).unwrap();
        let mut best = f64::INFINITY;
        for &(sp, _) in &s {
            for &(rp, _) in &r {
                best = best.min(transitive_dist(p, sp, rp));
            }
        }
        assert!((got.dist - best).abs() < 1e-9);
    }

    #[test]
    fn sweep_and_scan_inner_loops_agree() {
        // The x-sorted sweep must pick exactly the same (dis², index) as
        // the plain scan, including duplicate-coordinate tie cases.
        let mut r: Vec<(Point, ObjectId)> = (0..200)
            .map(|i| {
                (
                    Point::new((i * 29 % 97) as f64, (i * 31 % 89) as f64),
                    ObjectId(i),
                )
            })
            .collect();
        // Force coordinate duplicates.
        r.push(r[17]);
        r.push(r[3]);
        let mut by_x: Vec<(f64, f64, u32)> = r
            .iter()
            .enumerate()
            .map(|(i, &(pt, _))| (pt.x, pt.y, i as u32))
            .collect();
        by_x.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        for qi in 0..150 {
            let q = Point::new((qi * 13 % 120) as f64 - 10.0, (qi * 7 % 110) as f64 - 5.0);
            let scan = nearest_by_scan(&r, q);
            let sweep = nearest_by_sweep(&by_x, q);
            assert_eq!(scan, sweep, "query {q:?}");
        }
    }

    #[test]
    fn join_with_reused_scratch_matches_fresh() {
        let p = Point::new(40.0, 40.0);
        let mut scratch = JoinScratch::default();
        for salt in 0..5usize {
            let s: Vec<(Point, ObjectId)> = (0..60)
                .map(|i| {
                    (
                        Point::new(((i + salt) * 13 % 97) as f64, ((i + salt) * 7 % 89) as f64),
                        ObjectId(i as u32),
                    )
                })
                .collect();
            let r: Vec<(Point, ObjectId)> = (0..90)
                .map(|i| {
                    (
                        Point::new(
                            ((i + salt) * 11 % 101) as f64,
                            ((i + salt) * 17 % 103) as f64,
                        ),
                        ObjectId(i as u32),
                    )
                })
                .collect();
            let fresh = tnn_join(p, &s, &r).unwrap();
            let reused = tnn_join_with(&mut scratch, p, &s, &r).unwrap();
            assert_eq!(fresh.s, reused.s);
            assert_eq!(fresh.r, reused.r);
            assert_eq!(fresh.dist, reused.dist);
        }
    }

    #[test]
    fn join_empty_side_is_none() {
        let p = Point::ORIGIN;
        let s = pts(&[(1.0, 1.0)]);
        assert!(tnn_join(p, &s, &[]).is_none());
        assert!(tnn_join(p, &[], &s).is_none());
    }

    #[test]
    fn join_single_pair() {
        let p = Point::ORIGIN;
        let s = pts(&[(3.0, 4.0)]);
        let r = pts(&[(3.0, 8.0)]);
        let got = tnn_join(p, &s, &r).unwrap();
        assert!((got.dist - 9.0).abs() < 1e-12);
        assert_eq!(got.s.1, ObjectId(0));
    }

    #[test]
    fn chain_join_two_layers_equals_tnn_join() {
        let p = Point::new(1.0, 1.0);
        let s = pts(&[(2.0, 1.0), (0.0, 5.0), (4.0, 4.0)]);
        let r = pts(&[(2.0, 3.0), (9.0, 9.0)]);
        let (path, total) = chain_join(p, &[s.clone(), r.clone()]).unwrap();
        let pair = tnn_join(p, &s, &r).unwrap();
        assert!((total - pair.dist).abs() < 1e-12);
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].0, pair.s.0);
        assert_eq!(path[1].0, pair.r.0);
    }

    #[test]
    fn chain_join_three_layers_brute_force() {
        let p = Point::ORIGIN;
        let a = pts(&[(1.0, 0.0), (0.0, 2.0)]);
        let b = pts(&[(2.0, 1.0), (3.0, 3.0), (1.0, 2.0)]);
        let c = pts(&[(4.0, 0.0), (2.0, 4.0)]);
        let (_, total) = chain_join(p, &[a.clone(), b.clone(), c.clone()]).unwrap();
        let mut best = f64::INFINITY;
        for &(ap, _) in &a {
            for &(bp, _) in &b {
                for &(cp, _) in &c {
                    best = best.min(p.dist(ap) + ap.dist(bp) + bp.dist(cp));
                }
            }
        }
        assert!((total - best).abs() < 1e-12);
    }

    #[test]
    fn chain_join_empty_layer_is_none() {
        let p = Point::ORIGIN;
        let a = pts(&[(1.0, 0.0)]);
        assert!(chain_join(p, &[a, vec![]]).is_none());
        assert!(chain_join::<Vec<(Point, ObjectId)>>(p, &[]).is_none());
    }

    #[test]
    fn round_trip_join_empty_sides() {
        assert!(round_trip_join(Point::ORIGIN, &[], &[]).is_none());
        let one = vec![(Point::new(1.0, 0.0), ObjectId(0))];
        assert!(round_trip_join(Point::ORIGIN, &one, &[]).is_none());
        let pair = round_trip_join(Point::ORIGIN, &one, &one).unwrap();
        assert!((pair.dist - 2.0).abs() < 1e-12);
    }
}
