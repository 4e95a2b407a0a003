//! The filter-phase local join: find the minimum-transitive-distance route
//! among the retrieved candidates.
//!
//! The paper's Algorithm 1 (lines 7–17) is a bound-pruned nested loop over
//! two channels. One join serves every number of layers `k`, the paper's
//! `k = 2` included, for the open chain and the closed tour alike. It
//! first cuts every layer to the items within a cheap feasible route's
//! total of `p` (Theorem 1's argument, applied once more inside the join),
//! then runs a dynamic program over the cut layers. Each of its
//! transitions is a weighted nearest-neighbor search
//! (`min dis(q, s) + cost(s)`) over a bucket grid whose cells carry their
//! points' bounding box and minimum suffix cost, and its head step visits
//! the first layer in index order and skips an item whose `dis(p, s)`
//! alone exceeds the best total — Algorithm 1's line-8 prune, for k
//! layers. Every search is capped by the total it has to beat, so it too
//! skips what cannot beat the best route, as Algorithm 1 does, and an
//! inner layer's suffix costs are computed only for the grid cells a
//! search reaches under their lower bounds. Every prune compares a
//! floating-point lower bound strictly against the best total, so the
//! join returns exactly the nested loop's answer, ties and total bits
//! included.
//!
//! The join runs on the client from already-downloaded data, and the paper
//! explicitly neglects its computational cost; the acceleration only keeps
//! simulations fast. All working memory lives in a reusable
//! [`JoinScratch`], so a batch of queries performs no join allocations
//! after the first.

use tnn_geom::{Point, Rect};
use tnn_rtree::ObjectId;

/// A joined route's stops, each tagged with its layer's index.
pub(crate) type Stops = Vec<(Point, ObjectId, usize)>;

/// The largest downstream layer a chain-DP transition scans linearly;
/// a larger one is searched through the bucket grid (bucketing only pays
/// off once the scan is long enough).
const MAX_SCANNED_LAYER: usize = 48;

/// Reusable buffers for the route join ([`crate::merge_route_layers`]):
/// the cheap route and cut layers and the DP's per-layer suffix costs,
/// successors and bucket grids, plus the join's work counters. One scratch serves every join of every `k`,
/// so a batch of queries performs no join allocations after the buffers
/// have grown to the workload's candidate counts.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// The cheap feasible route, one stop per layer.
    route: Vec<Point>,
    /// Each layer cut to the items within the cheap route's total of `p`,
    /// in their original order.
    cut: Vec<Vec<(Point, ObjectId)>>,
    /// The DP's state, one per layer.
    dp: Vec<DpLayer>,
    /// The join's work so far.
    work: JoinWork,
}

/// Host-independent work counters of the join.
#[derive(Debug, Default)]
struct JoinWork {
    /// Candidate distance evaluations.
    evaluations: u64,
    /// Grid cells tested, scanned or not.
    cells_tested: u64,
}

impl JoinScratch {
    /// Candidate distance evaluations the join has made through this
    /// scratch so far, at every `k` and for both objectives: every
    /// candidate of every layer the cheap-route descent scans, every
    /// candidate of every scanned grid cell or scanned cut layer, plus
    /// every first-layer candidate the head step visits. A
    /// host-independent work counter; the plain nested loop makes
    /// `Σ nᵢ·nᵢ₊₁ + n₀` of them per join.
    pub fn chain_evaluations(&self) -> u64 {
        self.work.evaluations
    }

    /// Grid cells the DP's grid searches have tested through this scratch
    /// so far, whether the cell's bound rejected it or its items were
    /// scanned; zero while every transition scans its layer linearly. A
    /// host-independent work counter of the cell walk, which
    /// [`JoinScratch::chain_evaluations`] does not see.
    pub fn grid_cells_tested(&self) -> u64 {
        self.work.cells_tested
    }
}

/// The route join: given candidate layers `C₁ … C_k`, finds the chain
/// `p → s₁ → … → s_k` with `sᵢ ∈ Cᵢ` of minimum total length, by dynamic
/// programming backwards over the layers. At `k = 2` this is the paper's
/// TNN join (Algorithm 1, lines 7–17); larger `k` is the chained-TNN
/// generalization of its future work. Returns the stops in layer order,
/// each tagged with its layer index, or `None` when any layer is empty.
///
/// Layers are anything slice-like (`Vec`s or borrowed `&[_]` hit lists),
/// so the broadcast pipeline can join straight out of reused window-task
/// buffers without copying them into owned vectors first. The caller's
/// scratch buffers make it allocation-free once they have grown to the
/// workload's candidate counts.
///
/// The join first bounds the optimum by a cheap feasible route: the
/// greedy chain from `p` (the nearest item of each layer in turn), then
/// coordinate descent that re-picks each stop against its two legs until
/// the total stops falling. Every stop of a route no longer than that
/// bound lies within it of `p` (within half of it on a closed tour), so
/// each layer is cut to those items, with a margin of a few ulps for
/// rounding, in their original order, and the DP runs over the cut
/// layers. Over the perfbench `city_k3` query pool (seed 22: 4,096
/// queries, one join each, 1,128 candidates per join on average) the cut
/// keeps 539 of them (48%).
///
/// Each DP transition `cost(q) = min dis(q, s) + cost(s)` over a
/// downstream layer of more than 48 candidates runs over a bucket grid
/// of about `n / 8` cells, each holding its points' bounding box and
/// minimum suffix cost. The search walks rings of cells outward from
/// `q`'s cell, skips a cell when `dis(q, cell box) + cell min cost`
/// exceeds the best total, and stops when the distance to the unvisited
/// rings plus the layer's minimum cost does. Its best total starts at a
/// cap, the total a route through `q` may still spend past `q`: the
/// bound less `dis(p, q)`, and in the head step also the best route's
/// total so far less `dis(p, q)`. The head step visits the first layer in
/// index order and skips a candidate whose `dis(p, s₁)` alone exceeds the
/// best total, so the first transition runs only for the candidates it
/// does not skip (123 of 136.5 per join on the pool).
///
/// The suffix costs of a gridded inner layer (neither the first nor the
/// last, and of more than 48 candidates) are computed on demand. Its
/// cells start from a lower bound, the smallest box-to-box gap to a
/// downstream cell plus that cell's bound, and a search that reaches a
/// cell under its bound first forces the exact costs of the cell's items,
/// each by its own capped search, then tests the cell again. On the pool
/// this makes 3,757 candidate evaluations and tests 804 grid cells per
/// join, the bound tests included, against 4,682 and 1,189 when every
/// inner cost was computed up front (`docs/PERF.md`). The cut, the caps
/// and the bounds keep the optimal route and the order of the kept items,
/// and a forced cost is the one an up-front pass computes, so the result
/// is the plain nested loop's, bit for bit, with ties broken toward the
/// smaller `(total, index)` ([`chain_dp`] has the argument).
pub(crate) fn chain_join_with<L: AsRef<[(Point, ObjectId)]>>(
    scratch: &mut JoinScratch,
    p: Point,
    layers: &[L],
) -> Option<(Stops, f64)> {
    chain_join_core(scratch, p, layers, false)
}

/// The closed-tour join: minimizes
/// `dis(p, s₁) + Σ dis(sᵢ, sᵢ₊₁) + dis(s_k, p)` — the round-trip TNN
/// objective, folded as `dis(p, s₁) + (dis(s₁, s₂) + (… + dis(s_k, p)))`
/// at every `k`, with caller-provided scratch buffers. Returns `None`
/// when any layer is empty.
pub(crate) fn chain_loop_join_with<L: AsRef<[(Point, ObjectId)]>>(
    scratch: &mut JoinScratch,
    p: Point,
    layers: &[L],
) -> Option<(Stops, f64)> {
    chain_join_core(scratch, p, layers, true)
}

/// Shared implementation of the open-chain and closed-tour k-layer joins.
/// It bounds the optimum by a cheap feasible route, cuts every layer to
/// the items that can lie on a route within that bound ([`Reach`]), and
/// runs the DP ([`chain_dp`]) over the cut layers, every search of it
/// capped by the same bound. The bound comes in two steps: the greedy
/// chain ([`greedy_route`]) cuts the layers first, and coordinate descent
/// over those ([`descend`]) lowers the bound, which cuts them once more.
///
/// The cut keeps every stop of the DP's own optimal route and the
/// relative order of the kept items. Dropped items only ever lose
/// `(total, index)` comparisons, so every comparison between kept items
/// resolves as before: the route and the total bits are those of the DP
/// over the uncut layers.
fn chain_join_core<L: AsRef<[(Point, ObjectId)]>>(
    scratch: &mut JoinScratch,
    p: Point,
    layers: &[L],
    close_tour: bool,
) -> Option<(Stops, f64)> {
    if layers.is_empty() || layers.iter().any(|l| l.as_ref().is_empty()) {
        return None;
    }
    let k = layers.len();
    let mut buffers = std::mem::take(&mut scratch.cut);
    if buffers.len() < k {
        buffers.resize_with(k, Vec::new);
    }
    let cut = &mut buffers[..k];
    let (route, evaluations) = (&mut scratch.route, &mut scratch.work.evaluations);

    let greedy = greedy_route(route, evaluations, p, layers, close_tour);
    let reach = Reach::new(p, greedy, k, close_tour);
    for (kept, layer) in cut.iter_mut().zip(layers) {
        kept.clear();
        kept.extend(layer.as_ref().iter().filter(|&&(pt, _)| reach.keeps(pt)));
    }
    let bound = descend(route, evaluations, p, cut, close_tour, greedy);
    let reach = Reach::new(p, bound, k, close_tour);
    if bound < greedy {
        for kept in cut.iter_mut() {
            kept.retain(|&(pt, _)| reach.keeps(pt));
        }
    }

    let joined = chain_dp(scratch, p, cut, close_tour, reach.limit);
    scratch.cut = buffers;
    Some(joined)
}

/// Fills `route` with the greedy chain, from `p` the nearest item of each
/// layer in turn, and returns its total. Every item scanned counts into
/// `evaluations`.
fn greedy_route<L: AsRef<[(Point, ObjectId)]>>(
    route: &mut Vec<Point>,
    evaluations: &mut u64,
    p: Point,
    layers: &[L],
    close_tour: bool,
) -> f64 {
    route.clear();
    let mut prev = p;
    for layer in layers {
        let layer = layer.as_ref();
        prev = argmin(layer, |pt| prev.dist_sq(pt));
        *evaluations += layer.len() as u64;
        route.push(prev);
    }
    suffix_total(p, route, close_tour)
}

/// Improves `route`, whose total is `bound`, by coordinate descent and
/// returns the lowest total seen. Each stop is re-picked as the item of
/// its layer minimizing its two incident legs (the last stop: its last
/// leg, plus the return leg on a closed tour), until a sweep no longer
/// strictly lowers the total. Totals strictly decrease over a finite set
/// of routes, so the descent ends without a cap. Every item scanned
/// counts into `evaluations`.
///
/// Running over the layers cut to the greedy chain's total loses nothing:
/// a route the descent moves to is shorter than that chain, so its stops
/// lie within the cut.
fn descend(
    route: &mut [Point],
    evaluations: &mut u64,
    p: Point,
    layers: &[Vec<(Point, ObjectId)>],
    close_tour: bool,
    mut bound: f64,
) -> f64 {
    let k = layers.len();
    loop {
        for (i, layer) in layers.iter().enumerate() {
            let before = if i == 0 { p } else { route[i - 1] };
            let after = if i + 1 < k {
                Some(route[i + 1])
            } else {
                close_tour.then_some(p)
            };
            route[i] = argmin(layer, |pt| {
                before.dist(pt) + after.map_or(0.0, |a| pt.dist(a))
            });
            *evaluations += layer.len() as u64;
        }
        let total = suffix_total(p, route, close_tour);
        if total < bound {
            bound = total;
        } else {
            return bound;
        }
    }
}

/// The point with the smallest `key` in a non-empty layer (the first on a
/// tie, and the first item when no key is below infinity).
fn argmin(layer: &[(Point, ObjectId)], key: impl Fn(Point) -> f64) -> Point {
    let mut best = (f64::INFINITY, layer[0].0);
    for &(pt, _) in layer {
        let v = key(pt);
        if v < best.0 {
            best = (v, pt);
        }
    }
    best.1
}

/// The total of `route`, folded as [`chain_dp`] folds it: the return leg
/// or zero, then each leg added from the back (addition commutes, so
/// `t += d` is the DP's `d + t`), then the first leg from `p`.
/// Floating-point addition is monotone, so the DP's minimum over all
/// routes never exceeds this fold of one of them.
fn suffix_total(p: Point, route: &[Point], close_tour: bool) -> f64 {
    let last = route[route.len() - 1];
    let mut t = if close_tour { last.dist(p) } else { 0.0 };
    for leg in route.windows(2).rev() {
        t += leg[0].dist(leg[1]);
    }
    p.dist(route[0]) + t
}

/// Which items can lie on a route of total at most a bound: those with
/// `dis(p, s) ≤ bound`, or `2·dis(p, s) ≤ bound` on a closed tour (a tour
/// through `s` goes out to it and comes back). This is Theorem 1's
/// argument once more, with a cheap route's total for the estimate's.
struct Reach {
    p: Point,
    limit: f64,
    scale: f64,
}

impl Reach {
    /// The reach of routes through `k` layers with total at most `bound`.
    fn new(p: Point, bound: f64, k: usize, close_tour: bool) -> Self {
        // The margin. Let u = ε/2 and n the number of legs. A `dist` that
        // does not overflow is within 3u·D + 2^-537 of the true distance
        // D: one rounding each for the difference, the squares, their sum
        // and the square root, and 2^-537 is the root of the subnormal
        // rounding of a square. A fold of n non-negative legs is at least
        // their sum times (1 − u)^(n−1). So the triangle inequality puts
        // each stop of a route of computed total T ≤ bound at a computed
        // distance (doubled on a tour) of at most
        // (1 + (n + 5)u)·T + (n + 2)·2^-537, and rounding the limit costs
        // 2u more. (n + 4)ε = (2n + 8)u and √MIN_POSITIVE = 2^-511 cover
        // both. A distance that overflows to infinity is kept, since
        // nothing bounds its error; a NaN bound keeps everything.
        let legs = k + usize::from(close_tour);
        Reach {
            p,
            limit: bound * (1.0 + (legs + 4) as f64 * f64::EPSILON) + f64::MIN_POSITIVE.sqrt(),
            scale: if close_tour { 2.0 } else { 1.0 },
        }
    }

    #[inline]
    fn keeps(&self, pt: Point) -> bool {
        let d = self.scale * self.p.dist(pt);
        !(d > self.limit && d.is_finite())
    }
}

/// The cap of a chain-DP search from an item at computed distance `d`
/// from `p`, on routes of total at most `total`: `total − d`, widened by
/// a rounding margin so that it admits every suffix cost `σ` with
/// `fl(d + σ) ≤ total`, ties included. It is `+∞` when `d` overflows,
/// since nothing bounds that distance's error, and when the difference is
/// NaN (`+∞ − +∞`).
#[inline]
fn search_cap(total: f64, d: f64) -> f64 {
    // The margin, with u = ε/2 and the distance error of `Reach::new`.
    // Let s be a stop of the DP's optimal route, of computed total T*,
    // and σ its computed suffix cost. Two totals are passed in:
    // - The head step's running best, `best ≥ T*` while it runs. A
    //   rounded sum of non-negative terms is at least (1 − u) times their
    //   sum, so fl(d + σ) ≤ best gives σ ≤ (1 + 2u)·best − d.
    // - The cut's limit L, which is at least (1 + (2n + 6)u)·B + 2^-512
    //   for n legs once its own two roundings are paid. The fold puts the
    //   j ≤ n − 1 legs from p to s, of computed sum P, at P + σ ≤
    //   (1 + ju)·B, and the triangle inequality with each distance's error
    //   puts d at most (1 + 6u)·P + (j + 1)·2^-536. So σ ≤
    //   (1 + (n + 5)u)·B − d + n·2^-536, which L − d exceeds by
    //   (n + 1)u·B.
    // The subtraction and the two additions below round by at most
    // 3u·total; the product by 4ε = 2^-50 is exact above the subnormals,
    // and adds 8u·total. The net 5u·total covers the first case's 2u, and
    // √MIN_POSITIVE = 2^-511 covers the absolute terms and an underflowed
    // product.
    //
    // Rounding is monotone, so fl(total − d) alone admits σ whenever
    // d + σ ≤ total holds exactly. That holds in the second case, and in
    // the first whenever fl(d + σ) < best: a d + σ ≥ best would round to
    // at least the double best. So the margin only matters for a tie,
    // fl(d + σ) = best < d + σ, and the head step, visiting layer 0 in
    // index order, meets such a tie only at a higher index than best's,
    // which loses it anyway. No answer of the join depends on the margin,
    // then; it keeps the caps valid in any visit order, and the tests
    // `search_cap_margin_covers_a_tie_at_the_best_total` and
    // `search_cap_admits_every_suffix_within_its_total` hold it.
    let cap = (total - d) + total * (4.0 * f64::EPSILON) + f64::MIN_POSITIVE.sqrt();
    if d.is_finite() && !cap.is_nan() {
        cap
    } else {
        f64::INFINITY
    }
}

/// The chain DP over non-empty layers: the suffix costs of layers
/// `1 … k − 1`, then the lazy head step from `p`. `close_tour` seeds the
/// last layer's suffix costs with the return leg `dis(s_k, p)` instead of
/// zero.
///
/// The last layer's costs are known from the start, and a scanned inner
/// layer (at most 48 items) gets each of its costs up front, by one search
/// into the next layer. A gridded inner layer's costs are computed on
/// demand ([`DpLayer`]): each of its grid cells starts from a lower bound
/// of its items' suffix costs ([`CostGrid::bound_cells`]), and a search
/// that reaches a cell under that bound first forces the exact costs of
/// the cell's items, then re-tests the cell and scans it. A forced cost is
/// a search into the next layer, itself on demand.
///
/// Every search is capped ([`search_cap`]) by the total it has to beat.
/// The search that gives an item `s` past layer 0 its suffix cost gets
/// `limit − dis(p, s)`, where `limit` is the cut's [`Reach`] limit of the
/// bound `B`. The head step's search from `s₁` gets the smaller of that
/// and `best − dis(p, s₁)`, with `best` the running best total. A search
/// that finds no total within its cap gives its item the cost `+∞` and no
/// successor. Neither the caps nor the on-demand costs change an answer:
///
/// * Capped costs are never below the exact ones. The last layer's are
///   exact, and floating-point addition is monotone, so by induction
///   towards the head every total a search compares is at least its
///   exact value; so is the `+∞` of a search that found nothing.
/// * On the DP's own optimal route, of total `T* ≤ B`, they are equal.
///   Each stop `s` has `dis(p, s) + suffix(s) ≤ T*` by the triangle
///   inequality, and `T* ≤ best` while the head step runs, so the exact
///   suffix cost lies within the cap, up to rounding that the margin
///   covers. By induction from the last stop, the stop's successor keeps
///   its exact cost while every other item's can only rise, so the
///   search returns the exact `(total, index)`.
/// * Raising the cost of an item off that route can only make it lose a
///   `(total, index)` comparison that it already lost, or tied at a
///   higher index.
/// * A forced cost is the search an up-front pass would make, with the
///   same cap, and it is memoized, so it is that pass's value whatever
///   order the searches force it in. A search under cell bounds returns
///   what it returns under the cells' exact minima. Rounding is
///   monotone, so `fl(dis(q, box) + bound)` never exceeds
///   `fl(dis(q, s) + cost(s))` for an item `s` of the cell: a cell skipped
///   under its bound is one its exact minimum skips too, and the walk
///   over rings, cut off by the smallest bound, ends no earlier.
///
/// So the route and the total bits are those of the uncapped DP.
///
/// Ties are broken toward the smaller `(total, index)` pair in every
/// transition and in the head step, matching the plain nested-loop order
/// — deterministic and independent of whether a transition scanned its
/// layer or searched its grid, and of the order the cells were visited
/// or forced.
fn chain_dp(
    scratch: &mut JoinScratch,
    p: Point,
    layers: &[Vec<(Point, ObjectId)>],
    close_tour: bool,
    limit: f64,
) -> (Stops, f64) {
    debug_assert!(layers.iter().all(|l| !l.is_empty()));
    let k = layers.len();
    // One DP layer per layer, reusing inner capacity (layer 0's is unused).
    if scratch.dp.len() < k {
        scratch.dp.resize_with(k, DpLayer::default);
    }
    let JoinScratch { dp, work, .. } = scratch;
    let dp = &mut dp[..k];
    let cut = Cut { p, limit };

    // Layers k−1 … 1, back to front, so that each is set up over a
    // downstream layer that already is. Layer 0 is left to the head step.
    for i in (1..k).rev() {
        let (head, below) = dp.split_at_mut(i + 1);
        let (this, layer) = (&mut head[i], &layers[i]);
        let gridded = layer.len() > MAX_SCANNED_LAYER;
        this.cost.clear();
        this.next.clear();
        if i + 1 == k {
            // The last layer's suffix costs: the return leg, or nothing.
            if close_tour {
                this.cost.extend(layer.iter().map(|&(pt, _)| pt.dist(p)));
            } else {
                this.cost.resize(layer.len(), 0.0);
            }
            if gridded {
                this.grid.build(layer, Some(&this.cost));
            }
        } else if gridded {
            this.next.resize(layer.len(), NO_SUCCESSOR);
            this.grid.build(layer, None);
            let (next_layer, next) = (&layers[i + 1], &below[0]);
            if next_layer.len() > MAX_SCANNED_LAYER {
                this.grid
                    .bound_cells(|bbox| next.grid.box_bound(bbox, work));
            } else {
                this.grid.bound_cells(|bbox| {
                    work.evaluations += next_layer.len() as u64;
                    next_layer
                        .iter()
                        .zip(&next.cost)
                        .map(|(&(pt, _), &cost)| bbox.min_dist(pt) + cost)
                        .fold(f64::INFINITY, f64::min)
                });
            }
        } else {
            for &(pt, _) in layer {
                let (c, j) = transition(&layers[i + 1..], below, cut, pt, cut.cap(pt), work);
                this.cost.push(c);
                this.next.push(j);
            }
        }
    }

    // Head step from p, lazily: visit layer 0 in index order and skip an
    // item whose distance alone exceeds the best total (every suffix cost
    // is non-negative), running the first transition only for the items
    // visited, each capped by the best total as well.
    let first = &layers[0];
    // (total, layer-0 index, its successor in layer 1)
    let mut best = (f64::INFINITY, u32::MAX, 0u32);
    for (j0, &(pt, _)) in (0u32..).zip(first) {
        let d = p.dist(pt);
        if d > best.0 {
            continue;
        }
        work.evaluations += 1;
        let (suffix, next) = if k > 1 {
            let cap = search_cap(limit.min(best.0), d);
            transition(&layers[1..], &mut dp[1..], cut, pt, cap, work)
        } else if close_tour {
            (pt.dist(p), 0)
        } else {
            (0.0, 0)
        };
        let total = d + suffix;
        if improves(total, j0, (best.0, best.1)) {
            best = (total, j0, next);
        }
    }

    let (total, j0, mut j) = best;
    let mut path = Vec::with_capacity(k);
    path.push((first[j0 as usize].0, first[j0 as usize].1, 0));
    for (i, layer) in layers.iter().enumerate().skip(1) {
        path.push((layer[j as usize].0, layer[j as usize].1, i));
        if i + 1 < k {
            j = dp[i].next[j as usize];
        }
    }
    (path, total)
}

/// Whether `(total, index)` is smaller than `best` in lexicographic
/// order — the one tie-break rule of every chain-join comparison. An
/// uncapped search over an all-infinite layer therefore still yields
/// index 0, never [`NO_SUCCESSOR`].
#[inline]
fn improves(total: f64, index: u32, best: (f64, u32)) -> bool {
    total < best.0 || (total == best.0 && index < best.1)
}

/// The index a capped search answers with when no total lies within its
/// cap.
const NO_SUCCESSOR: u32 = u32::MAX;

/// The chain DP's state of one layer past the head, recycled in
/// [`JoinScratch`]. A scanned or last layer holds its suffix costs in
/// `cost`; a gridded inner layer holds them in its grid's items, forced
/// cell by cell.
#[derive(Debug, Default)]
struct DpLayer {
    /// Suffix cost per item, by layer index, of a scanned or last layer.
    cost: Vec<f64>,
    /// Best successor per item of an inner layer, by layer index
    /// ([`NO_SUCCESSOR`] while a gridded layer's item is not forced, or
    /// when its search found nothing within its cap).
    next: Vec<u32>,
    /// The bucket grid over a layer of more than [`MAX_SCANNED_LAYER`]
    /// items.
    grid: CostGrid,
}

/// The cut's bound on the routes from `p`, which caps the search that
/// gives an item past layer 0 its suffix cost.
#[derive(Clone, Copy)]
struct Cut {
    p: Point,
    limit: f64,
}

impl Cut {
    /// The cap of the search from item `s`: [`search_cap`] of the limit
    /// at `dis(p, s)`.
    #[inline]
    fn cap(self, s: Point) -> f64 {
        search_cap(self.limit, self.p.dist(s))
    }
}

/// One chain-DP transition from `q` into `layers[0]`, whose DP state is
/// `dp[0]`, with the layers downstream of it in `layers[1..]` and
/// `dp[1..]`: `(min dis(q, s) + cost(s), its index)` when that total is at
/// most `cap`, else `(+∞, NO_SUCCESSOR)` (so also for a NaN cap). A layer
/// of at most [`MAX_SCANNED_LAYER`] items is scanned; a larger one is
/// searched through its grid, whose unforced cells get their items' costs
/// by this same search one layer down, each under the [`Cut`]'s cap of
/// its item. Counts the candidate distance evaluations and grid cells
/// tested into `work`.
fn transition(
    layers: &[Vec<(Point, ObjectId)>],
    dp: &mut [DpLayer],
    cut: Cut,
    q: Point,
    cap: f64,
    work: &mut JoinWork,
) -> (f64, u32) {
    let layer = &layers[0];
    let (this, below) = dp.split_first_mut().expect("a DP layer per layer");
    let best = if layer.len() > MAX_SCANNED_LAYER {
        let DpLayer { next, grid, .. } = this;
        // The last layer's cells are all exact, so only an inner layer's
        // grid ever calls back here.
        grid.nearest(q, cap, work, &mut |s, j, work| {
            let (cost, succ) = transition(&layers[1..], below, cut, s, cut.cap(s), work);
            next[j as usize] = succ;
            cost
        })
    } else {
        work.evaluations += layer.len() as u64;
        weighted_nearest_by_scan(layer, &this.cost, q, cap)
    };
    found(best)
}

/// A search's answer as a suffix cost: the cap is no cost, so an item
/// whose search found nothing within it costs more and must not pass the
/// cap on upstream.
#[inline]
fn found(best: (f64, u32)) -> (f64, u32) {
    if best.1 == NO_SUCCESSOR {
        (f64::INFINITY, NO_SUCCESSOR)
    } else {
        best
    }
}

/// Linear inner loop of one chain-DP transition: minimizes
/// `dis(q, cand) + cost[cand]` over the downstream layer, preferring the
/// smaller `(total, index)` pair, among the totals of at most `cap`;
/// `(cap, NO_SUCCESSOR)` when there are none.
fn weighted_nearest_by_scan(
    cands: &[(Point, ObjectId)],
    cost: &[f64],
    q: Point,
    cap: f64,
) -> (f64, u32) {
    let mut best = (cap, NO_SUCCESSOR);
    for (j, &(pt, _)) in cands.iter().enumerate() {
        let total = q.dist(pt) + cost[j];
        if improves(total, j as u32, best) {
            best = (total, j as u32);
        }
    }
    best
}

/// One axis of a [`CostGrid`]: slabs split at ascending interior
/// boundaries, slab `c` holding the coordinates `v` with
/// `edges[c − 1] ≤ v < edges[c]` (the outer slabs are unbounded outward).
/// Slab membership is decided by these comparisons alone, so a
/// coordinate's slab and the boundaries are consistent in floating point
/// and the ring bounds of [`CostGrid::ring_bound`] hold exactly.
#[derive(Debug, Default)]
struct GridAxis {
    lo: f64,
    /// Slabs per unit length, for the first guess of [`GridAxis::slab`].
    per_unit: f64,
    /// The interior slab boundaries, ascending (one fewer than slabs).
    edges: Vec<f64>,
}

impl GridAxis {
    /// `n` equal slabs over `[lo, hi]`; one slab when the extent is empty
    /// or not finite.
    fn reset(&mut self, lo: f64, hi: f64, n: usize) {
        let extent = hi - lo;
        self.edges.clear();
        self.lo = lo;
        self.per_unit = 0.0;
        if n > 1 && extent > 0.0 && extent.is_finite() {
            let width = extent / n as f64;
            self.per_unit = n as f64 / extent;
            self.edges.extend((1..n).map(|c| lo + c as f64 * width));
        }
    }

    fn len(&self) -> usize {
        self.edges.len() + 1
    }

    /// The slab holding `v` (outer slabs take everything beyond the grid).
    fn slab(&self, v: f64) -> usize {
        let last = self.edges.len();
        // A saturating first guess, corrected against the boundaries.
        let mut c = (((v - self.lo) * self.per_unit) as usize).min(last);
        while c > 0 && v < self.edges[c - 1] {
            c -= 1;
        }
        while c < last && v >= self.edges[c] {
            c += 1;
        }
        c
    }
}

/// One cell of a [`CostGrid`]: the bounding box of its points and the
/// minimum of their suffix costs, or a lower bound on it until the cell
/// is forced.
#[derive(Debug, Clone, Copy)]
struct GridCell {
    bbox: Rect,
    min_cost: f64,
    /// Whether the items' costs, and so `min_cost`, are exact.
    exact: bool,
}

impl GridCell {
    /// No points yet: an inverted box that the first `expand` replaces.
    const EMPTY: GridCell = GridCell {
        bbox: Rect {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        },
        min_cost: f64::INFINITY,
        exact: true,
    };
}

/// The cells a ring walk of a [`CostGrid`] visits around a query: ring 0
/// is the block of cells `x.0 ..= x.1` by `y.0 ..= y.1` that the query's
/// box overlaps, and ring `r` the cells `r` steps outside it.
#[derive(Clone, Copy)]
struct Rings {
    cols: usize,
    rows: usize,
    x: (usize, usize),
    y: (usize, usize),
}

impl Rings {
    /// Calls `visit` on every cell of ring `r` inside the grid, row by
    /// row.
    #[inline]
    fn visit(self, r: usize, mut visit: impl FnMut(usize)) {
        let (cols, (x0, x1), (y0, y1)) = (self.cols, self.x, self.y);
        let (left, right) = (x0.saturating_sub(r), (x1 + r).min(cols - 1));
        for row in y0.saturating_sub(r)..=(y1 + r).min(self.rows - 1) {
            if r == 0 || row + r == y0 || row == y1 + r {
                for col in left..=right {
                    visit(row * cols + col);
                }
            } else {
                if x0 >= r {
                    visit(row * cols + x0 - r);
                }
                if x1 + r < cols {
                    visit(row * cols + x1 + r);
                }
            }
        }
    }
}

/// A uniform bucket grid over one layer of the chain DP, for weighted
/// nearest-neighbor searches `min dis(q, s) + cost(s)` into it. Its
/// buffers are reused from join to join.
#[derive(Debug, Default)]
struct CostGrid {
    x: GridAxis,
    y: GridAxis,
    /// Counting-sort offsets: cell `c` holds `items[start[c]..start[c + 1]]`
    /// (cells numbered row by row).
    start: Vec<u32>,
    /// `(point, suffix cost, layer index)`, grouped by cell; a cost is
    /// meaningful once its cell is exact.
    items: Vec<(Point, f64, u32)>,
    cells: Vec<GridCell>,
    /// Each layer item's cell, the counting-sort key.
    cell_of: Vec<u32>,
    /// The minimum cell cost, a lower bound on every item's suffix cost.
    min_cost: f64,
}

impl CostGrid {
    /// Buckets `layer` into about `n / 8` cells over its bounding box,
    /// shaped to its aspect ratio, with its items' suffix costs `cost`
    /// when they are known; without them, every cell waits for
    /// [`CostGrid::bound_cells`] and is forced on demand. Capped searches
    /// end within a few rings, so coarse cells pay: against `n / 2`
    /// cells, a `city_k3` join tested 1,189 cells instead of 3,104 and
    /// made 4,682 candidate evaluations instead of 4,059, in about 40
    /// instead of 48 µs, before inner costs were computed on demand
    /// (`docs/PERF.md`).
    fn build(&mut self, layer: &[(Point, ObjectId)], cost: Option<&[f64]>) {
        let mut bbox = GridCell::EMPTY.bbox;
        for &(pt, _) in layer {
            bbox.expand(pt);
        }
        let target = (layer.len() / 8).max(1);
        let (w, h) = (bbox.width(), bbox.height());
        let usable = |e: f64| e > 0.0 && e.is_finite();
        let (cols, rows) = match (usable(w), usable(h)) {
            (true, true) => {
                let cols = (target as f64 * w / h)
                    .sqrt()
                    .round()
                    .clamp(1.0, target as f64) as usize;
                (cols, (target / cols).max(1))
            }
            (true, false) => (target, 1),
            (false, true) => (1, target),
            (false, false) => (1, 1),
        };
        self.x.reset(bbox.min.x, bbox.max.x, cols);
        self.y.reset(bbox.min.y, bbox.max.y, rows);
        let cols = self.x.len();
        let n_cells = cols * self.y.len();

        // Counting sort by cell: counts, then begin offsets, then place
        // (which advances each offset to its cell's end), then shift back.
        self.start.clear();
        self.start.resize(n_cells + 1, 0);
        self.cell_of.clear();
        for &(pt, _) in layer {
            let c = self.y.slab(pt.y) * cols + self.x.slab(pt.x);
            self.cell_of.push(c as u32);
            self.start[c + 1] += 1;
        }
        for c in 0..n_cells {
            self.start[c + 1] += self.start[c];
        }
        self.items.clear();
        self.items.resize(layer.len(), (Point::ORIGIN, 0.0, 0));
        self.cells.clear();
        self.cells.resize(n_cells, GridCell::EMPTY);
        self.min_cost = f64::INFINITY;
        for (j, (&(pt, _), &c)) in layer.iter().zip(&self.cell_of).enumerate() {
            let c = c as usize;
            let item_cost = cost.map_or(f64::INFINITY, |cost| cost[j]);
            self.items[self.start[c] as usize] = (pt, item_cost, j as u32);
            self.start[c] += 1;
            let cell = &mut self.cells[c];
            cell.bbox.expand(pt);
            cell.min_cost = cell.min_cost.min(item_cost);
            cell.exact = cost.is_some();
            self.min_cost = self.min_cost.min(item_cost);
        }
        self.start.copy_within(0..n_cells, 1);
        self.start[0] = 0;
    }

    fn is_empty(&self, c: usize) -> bool {
        self.start[c] == self.start[c + 1]
    }

    /// Sets every non-empty cell's cost to `bound` of its box, a lower
    /// bound on its items' suffix costs, and the grid's minimum to the
    /// smallest of them.
    fn bound_cells(&mut self, mut bound: impl FnMut(&Rect) -> f64) {
        self.min_cost = f64::INFINITY;
        for c in 0..self.cells.len() {
            if !self.is_empty(c) {
                let cell = &mut self.cells[c];
                cell.min_cost = bound(&cell.bbox);
                self.min_cost = self.min_cost.min(cell.min_cost);
            }
        }
    }

    /// The cells a ring walk around `query` visits.
    fn rings(&self, query: &Rect) -> Rings {
        Rings {
            cols: self.x.len(),
            rows: self.y.len(),
            x: (self.x.slab(query.min.x), self.x.slab(query.max.x)),
            y: (self.y.slab(query.min.y), self.y.slab(query.max.y)),
        }
    }

    /// Whether ring `r` of `rings` around `query` may still hold a total
    /// of at most `best`: ring 0 always, a later ring while it lies in the
    /// grid and its distance from `query` plus the grid's minimum cost is
    /// at most `best`.
    #[inline]
    fn ring_in_reach(&self, query: &Rect, rings: Rings, r: usize, best: f64) -> bool {
        r == 0 || matches!(self.ring_bound(query, rings, r), Some(b) if b + self.min_cost <= best)
    }

    /// `(min total, its index)` of `dis(q, s) + cost(s)` over the layer
    /// when that total is at most `cap`, else `(cap, NO_SUCCESSOR)`,
    /// walking rings of cells outward from `q`'s cell. The walk starts
    /// from the cap as its best total, so a tight cap ends it early. A
    /// cell that passes its test before it is exact gets its items' costs
    /// from `force(point, layer index, work)` and is tested again.
    fn nearest(
        &mut self,
        q: Point,
        cap: f64,
        work: &mut JoinWork,
        force: &mut dyn FnMut(Point, u32, &mut JoinWork) -> f64,
    ) -> (f64, u32) {
        let query = Rect::point(q);
        let rings = self.rings(&query);
        let mut best = (cap, NO_SUCCESSOR);
        for r in 0.. {
            if !self.ring_in_reach(&query, rings, r, best.0) {
                break;
            }
            rings.visit(r, |c| self.scan_cell(c, q, &mut best, work, force));
        }
        best
    }

    /// A lower bound on `dis(s, t) + cost(t)` over every point `s` in
    /// `query` and item `t` of the layer: the minimum over cells of
    /// `dis(query, cell box) + cell cost`, by a ring walk outward from the
    /// block of cells that `query` overlaps. Counts the cells tested into
    /// `work`.
    fn box_bound(&self, query: &Rect, work: &mut JoinWork) -> f64 {
        let rings = self.rings(query);
        let mut best = f64::INFINITY;
        for r in 0.. {
            if !self.ring_in_reach(query, rings, r, best) {
                break;
            }
            rings.visit(r, |c| {
                work.cells_tested += 1;
                if !self.is_empty(c) {
                    let cell = &self.cells[c];
                    best = best.min(box_gap(query, &cell.bbox) + cell.min_cost);
                }
            });
        }
        best
    }

    /// A lower bound on `dis(s, t)` over every point `s` of `query` and
    /// every point `t` in the cells at ring `r ≥ 1` of `rings` or beyond,
    /// or `None` when no cell lies there. Those points lie past one of the
    /// four slab boundaries enclosing the inner rings, and the bound is
    /// the distance from `query` to the nearest such boundary, taken with
    /// [`Point::dist`] to a point on it.
    fn ring_bound(&self, query: &Rect, rings: Rings, r: usize) -> Option<f64> {
        let (lo, hi) = (query.min, query.max);
        let mut bound: Option<f64> = None;
        let mut side = |from: Point, edge: Point| {
            let d = from.dist(edge);
            bound = Some(bound.map_or(d, |b| b.min(d)));
        };
        if rings.x.0 >= r {
            side(lo, Point::new(self.x.edges[rings.x.0 - r], lo.y));
        }
        if rings.x.1 + r < rings.cols {
            side(hi, Point::new(self.x.edges[rings.x.1 + r - 1], hi.y));
        }
        if rings.y.0 >= r {
            side(lo, Point::new(lo.x, self.y.edges[rings.y.0 - r]));
        }
        if rings.y.1 + r < rings.rows {
            side(hi, Point::new(hi.x, self.y.edges[rings.y.1 + r - 1]));
        }
        bound
    }

    /// Tests cell `c` and scans it into `best` unless
    /// `dis(q, cell box) + cell cost` already exceeds it (the box
    /// distance is [`Point::dist`] to the clamped point, so it never
    /// exceeds a member's distance in floating point either). A cell that
    /// passes before it is exact is forced first and tested again.
    #[inline]
    fn scan_cell(
        &mut self,
        c: usize,
        q: Point,
        best: &mut (f64, u32),
        work: &mut JoinWork,
        force: &mut dyn FnMut(Point, u32, &mut JoinWork) -> f64,
    ) {
        work.cells_tested += 1;
        let (a, b) = (self.start[c] as usize, self.start[c + 1] as usize);
        let cell = self.cells[c];
        if a == b || cell.min_cost > best.0 {
            return;
        }
        let gap = cell.bbox.min_dist(q);
        if gap + cell.min_cost > best.0 {
            return;
        }
        if !cell.exact && gap + self.force(c, force, work) > best.0 {
            return;
        }
        work.evaluations += (b - a) as u64;
        for &(pt, cost, j) in &self.items[a..b] {
            let total = q.dist(pt) + cost;
            if improves(total, j, *best) {
                *best = (total, j);
            }
        }
    }

    /// Gives the items of cell `c` their exact suffix costs through
    /// `force` and returns their minimum, now the cell's exact cost.
    #[cold]
    fn force(
        &mut self,
        c: usize,
        force: &mut dyn FnMut(Point, u32, &mut JoinWork) -> f64,
        work: &mut JoinWork,
    ) -> f64 {
        let (a, b) = (self.start[c] as usize, self.start[c + 1] as usize);
        let mut min_cost = f64::INFINITY;
        for item in &mut self.items[a..b] {
            item.1 = force(item.0, item.2, work);
            min_cost = min_cost.min(item.1);
        }
        let cell = &mut self.cells[c];
        cell.min_cost = min_cost;
        cell.exact = true;
        min_cost
    }
}

/// The distance between two boxes, taken with [`Point::dist`] between a
/// point of each that are closest on both axes. Rounding is monotone, so
/// it never exceeds the computed distance between a point of one box and
/// a point of the other.
fn box_gap(a: &Rect, b: &Rect) -> f64 {
    // The two coordinates, one from each box, closest on one axis (equal
    // where the boxes overlap on it).
    let axis = |a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64| {
        if a_hi < b_lo {
            (a_hi, b_lo)
        } else if b_hi < a_lo {
            (a_lo, b_hi)
        } else {
            (0.0, 0.0)
        }
    };
    let (ax, bx) = axis(a.min.x, a.max.x, b.min.x, b.max.x);
    let (ay, by) = axis(a.min.y, a.max.y, b.min.y, b.max.y);
    Point::new(ax, ay).dist(Point::new(bx, by))
}

/// Test fixtures shared with the merge tests: the plain nested-loop
/// reference, a seeded generator and the layer shapes of the reference
/// properties.
#[cfg(test)]
pub(crate) mod testkit {
    use super::Stops;
    use tnn_geom::Point;
    use tnn_rtree::ObjectId;

    /// The plain nested-loop chain DP: every transition scans every pair
    /// and the head step every first-layer item, ties to the smaller
    /// `(total, index)`. Shares no code with the joins under test.
    pub(crate) fn reference_chain(
        p: Point,
        layers: &[Vec<(Point, ObjectId)>],
        close_tour: bool,
    ) -> Option<(Stops, f64)> {
        if layers.is_empty() || layers.iter().any(Vec::is_empty) {
            return None;
        }
        let k = layers.len();
        let mut cost: Vec<Vec<f64>> = vec![Vec::new(); k];
        let mut next: Vec<Vec<usize>> = vec![Vec::new(); k];
        cost[k - 1] = layers[k - 1]
            .iter()
            .map(|&(pt, _)| if close_tour { pt.dist(p) } else { 0.0 })
            .collect();
        for i in (0..k - 1).rev() {
            for &(q, _) in &layers[i] {
                let mut best = (f64::INFINITY, usize::MAX);
                for (j, &(pt, _)) in layers[i + 1].iter().enumerate() {
                    let total = q.dist(pt) + cost[i + 1][j];
                    if total < best.0 || (total == best.0 && j < best.1) {
                        best = (total, j);
                    }
                }
                cost[i].push(best.0);
                next[i].push(best.1);
            }
        }
        let mut best = (f64::INFINITY, usize::MAX);
        for (j, &(pt, _)) in layers[0].iter().enumerate() {
            let total = p.dist(pt) + cost[0][j];
            if total < best.0 || (total == best.0 && j < best.1) {
                best = (total, j);
            }
        }
        let (total, mut j) = best;
        let mut path = Vec::with_capacity(k);
        for (i, layer) in layers.iter().enumerate() {
            let (pt, object) = layer[j];
            path.push((pt, object, i));
            if i + 1 < k {
                j = next[i][j];
            }
        }
        Some((path, total))
    }

    /// SplitMix64, for deterministic fixtures.
    pub(crate) struct Mix(pub(crate) u64);

    impl Mix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Layer shapes of the reference property: uniform, clustered, one
    /// vertical line, one horizontal line, and a coarse lattice (duplicate
    /// points and exact ties).
    pub(crate) const SHAPES: u8 = 5;

    pub(crate) fn shaped_layer(
        rng: &mut Mix,
        n: usize,
        shape: u8,
        layer: u32,
    ) -> Vec<(Point, ObjectId)> {
        let centers: Vec<Point> = (0..3)
            .map(|_| Point::new(rng.unit() * 1000.0, rng.unit() * 1000.0))
            .collect();
        (0..n)
            .map(|i| {
                let pt = match shape {
                    0 => Point::new(rng.unit() * 1000.0, rng.unit() * 1000.0),
                    1 => {
                        let c = centers[rng.below(3) as usize];
                        Point::new(c.x + rng.unit() * 40.0, c.y + rng.unit() * 40.0)
                    }
                    2 => Point::new(500.0, rng.unit() * 1000.0),
                    3 => Point::new(rng.unit() * 1000.0, 500.0),
                    _ => Point::new(rng.below(4) as f64 * 250.0, rng.below(4) as f64 * 250.0),
                };
                (pt, ObjectId(layer * 1000 + i as u32))
            })
            .collect()
    }

    pub(crate) fn assert_same_route(
        got: Option<(Stops, f64)>,
        want: &Option<(Stops, f64)>,
        what: &str,
    ) {
        let (got, want) = (got.expect(what), want.as_ref().expect(what));
        assert_eq!(got.0, want.0, "{what}: route");
        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: total bits");
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use proptest::prelude::*;
    use tnn_geom::transitive_dist;

    /// [`chain_join_with`] on fresh scratch buffers.
    fn chain_join<L: AsRef<[(Point, ObjectId)]>>(p: Point, layers: &[L]) -> Option<(Stops, f64)> {
        chain_join_with(&mut JoinScratch::default(), p, layers)
    }

    /// [`chain_loop_join_with`] on fresh scratch buffers.
    fn chain_loop_join<L: AsRef<[(Point, ObjectId)]>>(
        p: Point,
        layers: &[L],
    ) -> Option<(Stops, f64)> {
        chain_loop_join_with(&mut JoinScratch::default(), p, layers)
    }

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
        let (_, total) = chain_join(p, &[s.clone(), r.clone()]).unwrap();
        let mut best = f64::INFINITY;
        for &(sp, _) in &s {
            for &(rp, _) in &r {
                best = best.min(transitive_dist(p, sp, rp));
            }
        }
        assert!((total - best).abs() < 1e-12);
    }

    #[test]
    fn join_matches_brute_force_large_indexed_path() {
        // Both layers ring p, so the cut keeps all of them, and the 120
        // r-candidates (more than MAX_SCANNED_LAYER = 48) send the
        // transition through the bucket grid.
        let p = Point::new(50.0, 50.0);
        let ring = |n: u32, radius: f64, step: u32| -> Vec<(Point, ObjectId)> {
            (0..n)
                .map(|i| {
                    let angle = f64::from(i * step % n) / f64::from(n) * std::f64::consts::TAU;
                    let pt = Point::new(p.x + radius * angle.cos(), p.y + radius * angle.sin());
                    (pt, ObjectId(i))
                })
                .collect()
        };
        let (s, r) = (ring(80, 40.0, 13), ring(120, 45.0, 7));
        let mut scratch = JoinScratch::default();
        let (_, total) = chain_join_with(&mut scratch, p, &[s.clone(), r.clone()]).unwrap();
        assert!(scratch.grid_cells_tested() > 0, "the grid path ran");
        let mut best = f64::INFINITY;
        for &(sp, _) in &s {
            for &(rp, _) in &r {
                best = best.min(transitive_dist(p, sp, rp));
            }
        }
        assert!((total - best).abs() < 1e-9);
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
            let layers = [s, r];
            let fresh = chain_join(p, &layers);
            assert_same_route(chain_join_with(&mut scratch, p, &layers), &fresh, "chain");
            let fresh = chain_loop_join(p, &layers);
            assert_same_route(
                chain_loop_join_with(&mut scratch, p, &layers),
                &fresh,
                "tour",
            );
        }
    }

    #[test]
    fn join_single_pair() {
        let p = Point::ORIGIN;
        let s = pts(&[(3.0, 4.0)]);
        let r = pts(&[(3.0, 8.0)]);
        let (path, total) = chain_join(p, &[s, r]).unwrap();
        assert!((total - 9.0).abs() < 1e-12);
        assert_eq!(path[0].1, ObjectId(0));
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
    fn join_empty_side_is_none() {
        let p = Point::ORIGIN;
        let s = pts(&[(1.0, 1.0)]);
        assert!(chain_join(p, &[s.clone(), vec![]]).is_none());
        assert!(chain_join(p, &[vec![], s]).is_none());
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
        let (p, none) = (Point::ORIGIN, Vec::new());
        assert!(chain_loop_join(p, &[none.clone(), none.clone()]).is_none());
        let one = pts(&[(1.0, 0.0)]);
        assert!(chain_loop_join(p, &[one.clone(), none]).is_none());
        let (_, total) = chain_loop_join(p, &[one.clone(), one]).unwrap();
        assert!((total - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn chain_joins_equal_the_nested_loop(
            cases in prop::collection::vec(
                (1usize..=4, 0u8..SHAPES, 0u64..u64::MAX, -600.0f64..1600.0, -600.0f64..1600.0),
                1..4,
            ),
        ) {
            // One scratch across cases of different sizes and shapes.
            let mut scratch = JoinScratch::default();
            for (k, shape, seed, px, py) in cases {
                let mut rng = Mix(seed);
                let layers: Vec<Vec<(Point, ObjectId)>> = (0..k as u32)
                    .map(|i| {
                        let n = 1 + rng.below(199) as usize;
                        shaped_layer(&mut rng, n, shape, i)
                    })
                    .collect();
                let p = Point::new(px, py);
                let open = reference_chain(p, &layers, false);
                let tour = reference_chain(p, &layers, true);
                assert_same_route(chain_join(p, &layers), &open, "fresh chain");
                assert_same_route(chain_join_with(&mut scratch, p, &layers), &open, "chain");
                assert_same_route(chain_loop_join_with(&mut scratch, p, &layers), &tour, "tour");
            }
        }

        #[test]
        fn on_demand_suffix_costs_equal_the_nested_loop_under_ties(
            cases in prop::collection::vec((3usize..=4, 0u64..u64::MAX, 0u8..3), 1..3),
        ) {
            // Layer i holds more than MAX_SCANNED_LAYER points snapped to
            // a 9 × 9 lattice of 3 by 4 steps at (60·i, 0): duplicates and
            // exact route ties are common, the route runs from cluster to
            // cluster, and the cut keeps every inner layer whole, so each
            // inner layer's suffix costs are forced cell by cell. From a p
            // far off along the clusters' line, the route is nearly
            // straight: a route through any inner point other than the
            // best is longer than the bound, so many forced searches find
            // nothing within their cap. From a p far off to the side or
            // on a lattice point, they mostly find their successor.
            let mut scratch = JoinScratch::default();
            for (k, seed, place) in cases {
                let mut rng = Mix(seed);
                let lattice = |rng: &mut Mix, i: u32| {
                    Point::new(
                        f64::from(i) * 60.0 + rng.below(9) as f64 * 3.0,
                        rng.below(9) as f64 * 4.0,
                    )
                };
                let layers: Vec<Vec<(Point, ObjectId)>> = (0..k as u32)
                    .map(|i| {
                        let n = (MAX_SCANNED_LAYER + 1) as u32 + rng.below(200) as u32;
                        (0..n).map(|j| (lattice(&mut rng, i), ObjectId(i * 1000 + j))).collect()
                    })
                    .collect();
                let p = match place {
                    0 => lattice(&mut rng, 1),
                    1 => Point::new(-1e4, 16.0),
                    _ => Point::new(rng.unit() * 240.0, -2e4),
                };
                let open = reference_chain(p, &layers, false);
                let tour = reference_chain(p, &layers, true);
                assert_same_route(chain_join_with(&mut scratch, p, &layers), &open, "chain");
                assert_same_route(chain_loop_join_with(&mut scratch, p, &layers), &tour, "tour");
            }
        }

        #[test]
        fn search_cap_admits_every_suffix_within_its_total(
            cases in prop::collection::vec(
                (0u64..u64::MAX, -60i32..60, -60i32..60),
                1..64,
            ),
        ) {
            // A suffix cost σ whose route total fl(d + σ) is within the
            // total, ties included, lies within the cap, across scales.
            for (seed, d_exp, sigma_exp) in cases {
                let mut rng = Mix(seed);
                let d = rng.unit() * 2f64.powi(d_exp);
                let sigma = rng.unit() * 2f64.powi(sigma_exp);
                let total = d + sigma;
                for t in [total, total.next_up()] {
                    prop_assert!(
                        sigma <= search_cap(t, d),
                        "d {}, σ {}, total {}",
                        d,
                        sigma,
                        t
                    );
                }
            }
        }

        #[test]
        fn capped_grid_search_equals_the_capped_scan(
            cases in prop::collection::vec(
                (0u64..u64::MAX, -600.0f64..1600.0, -600.0f64..1600.0),
                1..4,
            ),
        ) {
            let mut grid = CostGrid::default();
            for (seed, qx, qy) in cases {
                let mut rng = Mix(seed);
                let q = Point::new(qx, qy);
                for shape in 0..SHAPES {
                    let n = MAX_SCANNED_LAYER + 1 + rng.below(200) as usize;
                    let layer = shaped_layer(&mut rng, n, shape, 0);
                    // Non-negative costs with repeats, zeros and some +∞.
                    let mut cost: Vec<f64> = Vec::with_capacity(n);
                    for j in 0..n {
                        cost.push(match rng.below(8) {
                            0 => f64::INFINITY,
                            1 if j > 0 => cost[rng.below(j as u64) as usize],
                            2 => 0.0,
                            _ => rng.unit() * 500.0,
                        });
                    }
                    let exact = weighted_nearest_by_scan(&layer, &cost, q, f64::INFINITY);
                    let j = rng.below(n as u64) as usize;
                    let some = q.dist(layer[j].0) + cost[j];
                    let caps = [
                        some,
                        some.next_up(),
                        some.next_down(),
                        exact.0,
                        exact.0.next_down(),
                        0.0,
                        f64::INFINITY,
                        f64::NAN,
                    ];
                    for cap in caps {
                        let want = if exact.0 <= cap {
                            exact
                        } else {
                            (f64::INFINITY, NO_SUCCESSOR)
                        };
                        let mut work = JoinWork::default();
                        let scan = found(weighted_nearest_by_scan(&layer, &cost, q, cap));
                        // A grid built with its costs, and one whose cells
                        // start from random lower bounds (a share of their
                        // minimum cost, the points in a cell's box being
                        // its own) and are forced on demand.
                        grid.build(&layer, Some(&cost));
                        let known = found(grid.nearest(q, cap, &mut work, &mut |_, _, _| {
                            unreachable!("every cell is exact")
                        }));
                        grid.build(&layer, None);
                        grid.bound_cells(|bbox| {
                            let min_cost = layer
                                .iter()
                                .zip(&cost)
                                .filter(|&(&(pt, _), _)| bbox.contains(pt))
                                .fold(f64::INFINITY, |m, (_, &c)| m.min(c));
                            match rng.below(3) {
                                0 => 0.0,
                                1 => min_cost,
                                _ => min_cost * rng.unit(),
                            }
                        });
                        let mut forced = 0;
                        let on_demand = found(grid.nearest(q, cap, &mut work, &mut |_, j, _| {
                            forced += 1;
                            cost[j as usize]
                        }));
                        prop_assert!(forced <= n, "each item is forced at most once");
                        for (what, answer) in [("scan", scan), ("grid", known), ("on demand", on_demand)] {
                            prop_assert_eq!(
                                (answer.0.to_bits(), answer.1),
                                (want.0.to_bits(), want.1),
                                "shape {}, cap {}: {}",
                                shape,
                                cap,
                                what
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn chain_join_handles_overflowing_distances_on_the_grid() {
        // Layers past the scan threshold at ±1e200: every total is +inf,
        // so the lowest indices win, through the grid path too.
        let mut rng = Mix(7);
        let layers: Vec<Vec<(Point, ObjectId)>> = (0..3u32)
            .map(|l| {
                (0..60)
                    .map(|i| {
                        let sign = |b: bool| if b { 1e200 } else { -1e200 };
                        let pt = Point::new(
                            sign(rng.below(2) == 0) * rng.unit(),
                            sign(rng.below(2) == 0) * rng.unit(),
                        );
                        (pt, ObjectId(l * 100 + i))
                    })
                    .collect()
            })
            .collect();
        let p = Point::new(1e200, -1e200);
        let open = reference_chain(p, &layers, false);
        assert_eq!(open.as_ref().unwrap().1, f64::INFINITY);
        assert_same_route(chain_join(p, &layers), &open, "chain");
        let tour = reference_chain(p, &layers, true);
        assert_same_route(chain_loop_join(p, &layers), &tour, "tour");
    }

    #[test]
    fn cut_keeps_stops_that_lie_exactly_at_the_bound() {
        // Integer coordinates on the axes keep every distance and total
        // exact, so the cheap route's total B equals the optimum and the
        // winner's farthest stop lies exactly on the cut's boundary.
        let p = Point::ORIGIN;
        let cases = [
            // Open chain along the x axis, B = 3: the last stop (3, 0)
            // lies at B from p, like the decoys (-3, 0) and (0, -3).
            (
                false,
                vec![
                    pts(&[(-2.0, 0.0), (1.0, 0.0), (4.0, 0.0)]),
                    pts(&[(-3.0, 0.0), (5.0, 0.0), (2.0, 0.0)]),
                    pts(&[(7.0, 0.0), (0.0, -3.0), (3.0, 0.0), (3.5, 0.0)]),
                ],
                3.0,
                3.0,
            ),
            // Closed tour out to (2, 0) and back, B = 4: the turning
            // stop lies at B/2 from p.
            (
                true,
                vec![
                    pts(&[(-4.0, 0.0), (1.0, 0.0)]),
                    pts(&[(0.0, 5.0), (2.0, 0.0)]),
                    pts(&[(6.0, 0.0), (1.0, 0.0)]),
                ],
                4.0,
                2.0,
            ),
            // Two open routes tie at B = 3, one along each axis, both
            // ending at B from p.
            (
                false,
                vec![
                    pts(&[(0.0, 1.0), (1.0, 0.0)]),
                    pts(&[(2.0, 0.0), (0.0, 2.0)]),
                    pts(&[(3.0, 0.0), (0.0, 3.0)]),
                ],
                3.0,
                3.0,
            ),
            // Two closed tours tie at B = 4: back from (1, 0) or from p
            // itself.
            (
                true,
                vec![
                    pts(&[(1.0, 0.0), (-3.0, 0.0)]),
                    pts(&[(2.0, 0.0)]),
                    pts(&[(1.0, 0.0), (0.0, 0.0)]),
                ],
                4.0,
                2.0,
            ),
        ];
        for (i, (close_tour, layers, total, farthest)) in cases.into_iter().enumerate() {
            let want = reference_chain(p, &layers, close_tour);
            let (route, got) = want.clone().expect("non-empty layers");
            assert_eq!(got, total, "case {i}: total");
            let reach = route
                .iter()
                .map(|&(pt, _, _)| p.dist(pt))
                .fold(0.0, f64::max);
            assert_eq!(reach, farthest, "case {i}: farthest stop");
            let joined = if close_tour {
                chain_loop_join(p, &layers)
            } else {
                chain_join(p, &layers)
            };
            assert_same_route(joined, &want, &format!("case {i}"));
        }
    }

    #[test]
    fn cut_margin_covers_rounding_past_the_bound() {
        // One item per layer, so the only route is the optimum. Its
        // rounded total falls one ulp short of its farthest stop's
        // rounded distance from p (doubled on the tour): without the
        // margin the cut would drop that stop.
        let p = Point::ORIGIN;
        let cases = [
            (false, [(3.735, 0.0), (3.81, 0.0), (7.781, 0.0)]),
            (true, [(1.4, 0.0), (9.9, 0.0), (0.1, 0.0)]),
        ];
        for (close_tour, stops) in cases {
            let layers: Vec<Vec<(Point, ObjectId)>> = stops.iter().map(|&c| pts(&[c])).collect();
            let want = reference_chain(p, &layers, close_tour);
            let (route, total) = want.clone().expect("non-empty layers");
            let scale = if close_tour { 2.0 } else { 1.0 };
            let reach = route
                .iter()
                .map(|&(pt, _, _)| scale * p.dist(pt))
                .fold(0.0, f64::max);
            assert!(reach > total, "{reach} > {total}");
            let joined = if close_tour {
                chain_loop_join(p, &layers)
            } else {
                chain_join(p, &layers)
            };
            assert_same_route(joined, &want, &format!("close_tour = {close_tour}"));
        }
    }

    #[test]
    fn search_cap_margin_covers_a_tie_at_the_best_total() {
        // Two open routes tie at the total 10: p → a → r through the lower
        // first-layer index, whose suffix cost σ rounds d + σ down to 10,
        // and p → (4, 0) → (4, −6). Computed without the margin, the cap
        // 10 − d falls one ulp short of σ, so a search from a, capped at
        // that total, would miss r, and a visit order that met the other
        // route first would lose the tie. The head step visits a first,
        // under the cut's cap, so the join must win the tie either way,
        // and the cap itself must admit σ. Fifty decoys behind p send the
        // search through the grid.
        let p = Point::ORIGIN;
        let (a, r) = ((5.0, 5.0), (7.928_932_188_134_525, 5.0));
        let first = pts(&[a, (4.0, 0.0)]);
        let mut second = pts(&[(4.0, -6.0), r]);
        second.extend((0..50).map(|i| {
            let angle = (100.0 + 70.0 * f64::from(i) / 49.0).to_radians();
            (
                Point::new(9.0 * angle.cos(), 9.0 * angle.sin()),
                ObjectId(2 + i),
            )
        }));
        let (d, sigma) = (p.dist(first[0].0), first[0].0.dist(second[1].0));
        assert_eq!(d + sigma, 10.0);
        assert!(10.0 - d < sigma, "{} < {sigma}", 10.0 - d);
        assert!(sigma <= search_cap(10.0, d), "the margin admits σ");
        let layers = [first, second];
        let want = reference_chain(p, &layers, false);
        let (route, total) = want.clone().expect("non-empty layers");
        assert_eq!(
            (route[0].1, route[1].1, total),
            (ObjectId(0), ObjectId(1), 10.0)
        );
        let mut scratch = JoinScratch::default();
        assert_same_route(chain_join_with(&mut scratch, p, &layers), &want, "chain");
        assert!(scratch.grid_cells_tested() > 0, "the grid path ran");
    }

    #[test]
    fn search_cap_keeps_a_stop_whose_distance_from_p_overflows() {
        // The middle stop lies 2e154 from p, whose square overflows, so
        // its computed distance is +∞ while every leg and the total are
        // finite. Its search must stay uncapped.
        let p = Point::ORIGIN;
        let layers = [
            pts(&[(1e154, 0.0)]),
            pts(&[(2e154, 0.0)]),
            pts(&[(2e154, 1.0)]),
        ];
        assert_eq!(p.dist(layers[1][0].0), f64::INFINITY);
        let want = reference_chain(p, &layers, false);
        assert!(want.as_ref().expect("non-empty layers").1.is_finite());
        assert_same_route(chain_join(p, &layers), &want, "chain");
    }

    /// `k` clustered layers of 2,000 points over the paper region, like
    /// the CITY-like channels: settlements gathered in 12 clusters plus a
    /// 10% uniform background.
    fn clustered_layers(seed: u64, k: u32) -> Vec<Vec<(Point, ObjectId)>> {
        let mut rng = Mix(seed);
        (0..k)
            .map(|l| {
                let centers: Vec<Point> = (0..12)
                    .map(|_| Point::new(rng.unit() * 39_000.0, rng.unit() * 39_000.0))
                    .collect();
                (0..2_000u32)
                    .map(|i| {
                        let pt = if rng.below(10) == 0 {
                            Point::new(rng.unit() * 39_000.0, rng.unit() * 39_000.0)
                        } else {
                            let c = centers[rng.below(12) as usize];
                            let spread = 200.0 + 800.0 * rng.unit();
                            Point::new(
                                c.x + spread * (rng.unit() - rng.unit()),
                                c.y + spread * (rng.unit() - rng.unit()),
                            )
                        };
                        (pt, ObjectId(l * 10_000 + i))
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn grid_join_evaluates_a_small_share_of_the_pairs() {
        let queries = [
            Point::new(19_500.0, 19_500.0),
            Point::new(4_000.0, 31_000.0),
            Point::new(-2_000.0, 8_000.0),
        ];
        let mut scratch = JoinScratch::default();
        // At k = 2 the greedy route's scan of both layers alone is 1/1,000
        // of the nested loop. At k = 3 the searches test 492 cells over
        // the three queries (7 + 435 + 50), the tests of the inner layer's
        // cell bounds included. Computing every inner suffix cost up front
        // tested 829 (7 + 772 + 50), and uncapped searches 988
        // (10 + 920 + 58). The evaluations come closest to their share at
        // query 2: 7,220 against 7,274.
        for (layers, share, cell_bound) in [
            (clustered_layers(0x7A11, 3), 1_100, 550),
            (clustered_layers(0x7A12, 2), 800, u64::MAX),
        ] {
            let k = layers.len();
            let n: Vec<u64> = layers.iter().map(|l| l.len() as u64).collect();
            let nested_loop = n.windows(2).map(|w| w[0] * w[1]).sum::<u64>() + n[0];
            let cells = scratch.grid_cells_tested();
            for (qi, &p) in queries.iter().enumerate() {
                let before = scratch.chain_evaluations();
                let got = chain_join_with(&mut scratch, p, &layers);
                let evaluations = scratch.chain_evaluations() - before;
                assert_same_route(got, &reference_chain(p, &layers, false), "chain");
                assert!(
                    evaluations * share < nested_loop,
                    "k = {k}, query {qi}: {evaluations} of {nested_loop} nested-loop evaluations"
                );
            }
            let cells = scratch.grid_cells_tested() - cells;
            assert!(cells > 0, "k = {k}: the grid path ran");
            assert!(
                cells < cell_bound,
                "k = {k}: {cells} grid cells tested, not below {cell_bound}"
            );
        }
        // Layers of at most MAX_SCANNED_LAYER items are scanned, never
        // bucketed: the join does work but tests no grid cell.
        let mut rng = Mix(0x7A13);
        let small: Vec<Vec<(Point, ObjectId)>> = (0..3)
            .map(|i| shaped_layer(&mut rng, MAX_SCANNED_LAYER, 0, i))
            .collect();
        let (evaluations, cells) = (scratch.chain_evaluations(), scratch.grid_cells_tested());
        let got = chain_join_with(&mut scratch, queries[0], &small);
        assert_same_route(got, &reference_chain(queries[0], &small, false), "scan");
        assert!(
            scratch.chain_evaluations() > evaluations,
            "the scan path counts"
        );
        assert_eq!(scratch.grid_cells_tested(), cells, "no grid cell tested");
    }
}
