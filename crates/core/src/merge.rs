//! Candidate-merge entry points: the join stage of the query pipeline,
//! factored out so layers that *gather* candidates elsewhere (the
//! scatter-gather shard router in `tnn-shard`) can merge them through
//! **the exact code path the engine uses** — same joins, same
//! floating-point association order, same tie-breaks — and obtain
//! bit-identical routes and totals.
//!
//! The one query pipeline in [`crate::algorithms`] calls
//! [`merge_route_layers`] for its final join under the query kind's
//! [`RouteObjective`], so the engine-equivalence property gates
//! (`crates/bench/tests/*.rs`) transitively pin this module: it *cannot*
//! drift from the engine without breaking them.
//!
//! ## Bit-level contract
//!
//! For the same winning route the reported total is bit-identical no
//! matter which candidate superset it was selected from, because every
//! objective folds distances along the route only, by one rule at every
//! `k`:
//!
//! * [`RouteObjective::Chain`]: the chain DP's backward fold through its
//!   suffix costs, `dis(p,s₁) + (dis(s₁,s₂) + (… + 0))`
//!   ([`chain_join_with`]).
//! * [`RouteObjective::OrderFree`]: the winner is selected on the chain
//!   DP's totals over every visit order (earlier orders win ties), then
//!   the reported total is re-derived as the forward fold over the stops
//!   — exactly [`RouteObjective::route_total`].
//! * [`RouteObjective::RoundTrip`]: the closed-tour DP's backward fold,
//!   `dis(p,s₁) + (dis(s₁,s₂) + (… + dis(s_k,p)))`
//!   ([`chain_loop_join_with`]).
//!
//! Candidate-*order* dependence is confined to exact-tie breaking
//! (identical `(total, index)` keys), which cannot occur for
//! general-position inputs.
//!
//! ## Radius rules
//!
//! The rules that turn a feasible route into a search range live here
//! too, beside the objective they depend on: [`RouteObjective::plan`]
//! (which estimate and which objective a query kind runs),
//! [`RouteObjective::route_total`] and [`RouteObjective::filter_radius`]
//! (a feasible route's total and the radius it proves), and
//! [`pad_radius`] (the floating-point guard on that radius). The
//! pipeline's filter stage and the shard router's gather both call them,
//! so their radii agree bit for bit.

use crate::algorithms::permutations;
use crate::join::{chain_join_with, chain_loop_join_with, JoinScratch, Stops};
use crate::{Algorithm, QueryKind, RouteStop};
use tnn_geom::Point;
use tnn_rtree::ObjectId;

/// Which route objective a candidate merge minimizes — the join-stage
/// counterpart of [`crate::QueryKind`] (all four TNN algorithms share
/// the `Chain` objective; they differ only in how the candidate window
/// was estimated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteObjective {
    /// Open route `p → s₁ → … → s_k` visiting the layers in order
    /// ([`crate::QueryKind::Tnn`], the chain over all `k` channels).
    Chain,
    /// Open route over the best of all `k!` layer visit orders
    /// ([`crate::QueryKind::OrderFree`]).
    OrderFree,
    /// Closed tour returning to `p` ([`crate::QueryKind::RoundTrip`]).
    RoundTrip,
}

impl RouteObjective {
    /// The estimate algorithm and the objective a query of `kind` runs
    /// under: a plain TNN query keeps its algorithm and the `Chain`
    /// objective; the §7 extensions all estimate with Double-NN.
    pub fn plan(kind: QueryKind) -> (Algorithm, RouteObjective) {
        match kind {
            QueryKind::Tnn(algorithm) => (algorithm, RouteObjective::Chain),
            QueryKind::OrderFree => (Algorithm::DoubleNn, RouteObjective::OrderFree),
            QueryKind::RoundTrip => (Algorithm::DoubleNn, RouteObjective::RoundTrip),
        }
    }

    /// The total of the feasible route `p → stops₀ → … → stops_last`,
    /// visited in the given order: the forward fold `dis(p, s₁) +
    /// dis(s₁, s₂) + …`, plus the hop home `dis(s_last, p)` for
    /// `RoundTrip`. Any such total bounds the optimum from above.
    pub fn route_total(self, p: Point, stops: impl IntoIterator<Item = Point>) -> f64 {
        let (mut total, mut last) = (0.0, p);
        for stop in stops {
            total += last.dist(stop);
            last = stop;
        }
        if self == RouteObjective::RoundTrip {
            total += last.dist(p);
        }
        total
    }

    /// The filter radius a feasible route total proves (Theorem 1,
    /// generalized by the triangle inequality): every stop of an optimal
    /// open route lies within `total` of `p`, and every stop of an
    /// optimal tour within `total / 2`, since any tour through `x` is at
    /// least `2·dis(p, x)` long.
    pub fn filter_radius(self, total: f64) -> f64 {
        total / self.legs_to_reach()
    }

    /// Whether a stop `dist` away from `p` lies beyond the reach of a
    /// feasible route of `total` — no optimal route can visit it. The
    /// test multiplies `dist` rather than comparing it with
    /// [`RouteObjective::filter_radius`]: halving a subnormal total can
    /// round, so the two forms can disagree there.
    pub fn out_of_reach(self, dist: f64, total: f64) -> bool {
        dist * self.legs_to_reach() > total
    }

    /// How many legs of a route through stop `x` each span at least
    /// `dis(p, x)`: two for a tour (out and back), one for an open route.
    fn legs_to_reach(self) -> f64 {
        if self == RouteObjective::RoundTrip {
            2.0
        } else {
            1.0
        }
    }
}

/// Pads a filter radius by a few ULPs. The search range is mathematically
/// *closed*: the feasible route that produced the radius lies exactly on
/// its boundary, so sqrt/square rounding must not exclude boundary
/// candidates.
pub fn pad_radius(radius: f64) -> f64 {
    radius * (1.0 + 4.0 * f64::EPSILON)
}

/// A merged route: one stop per layer tagged with its layer index, in
/// visit order, plus the objective value realized by those stops.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRoute {
    /// `(point, object, layer)` stops in visit order. `Chain` and
    /// `RoundTrip` visit layers in index order; `OrderFree` reports the
    /// winning order.
    pub stops: Vec<(Point, ObjectId, usize)>,
    /// The objective value of `stops` (for `RoundTrip` including the
    /// return leg to `p`).
    pub total_dist: f64,
}

impl MergedRoute {
    /// The stops as [`RouteStop`]s in visit order — the route of a
    /// [`crate::QueryOutcome`].
    pub fn into_route(self) -> Vec<RouteStop> {
        self.stops
            .into_iter()
            .map(|(point, object, channel)| RouteStop {
                point,
                object,
                channel,
            })
            .collect()
    }
}

/// Merges per-layer candidate lists into the minimum-objective route —
/// the engine's own join stage over caller-gathered candidates.
///
/// Returns `None` when any layer is empty (no feasible route). Layers
/// are anything slice-like, so shard gatherers can pass owned
/// concatenation buffers and the pipelines their borrowed window hit
/// lists alike.
///
/// `orders` optionally supplies the visit-order table for
/// `OrderFree` (all permutations of `0..k`, lexicographic,
/// identity first — [`crate::QueryScratch`] caches exactly this); pass
/// `None` to have it computed on the fly.
pub fn merge_route_layers<L: AsRef<[(Point, ObjectId)]>>(
    join: &mut JoinScratch,
    objective: RouteObjective,
    p: Point,
    layers: &[L],
    orders: Option<&[Vec<usize>]>,
) -> Option<MergedRoute> {
    let k = layers.len();
    if k == 0 || layers.iter().any(|l| l.as_ref().is_empty()) {
        return None;
    }
    match objective {
        RouteObjective::Chain | RouteObjective::RoundTrip => {
            let (stops, total_dist) = if objective == RouteObjective::Chain {
                chain_join_with(join, p, layers)?
            } else {
                chain_loop_join_with(join, p, layers)?
            };
            Some(MergedRoute { stops, total_dist })
        }
        RouteObjective::OrderFree => {
            let stops = order_free_merge(join, p, layers, orders)?;
            let total_dist = objective.route_total(p, stops.iter().map(|s| s.0));
            Some(MergedRoute { stops, total_dist })
        }
    }
}

/// The best order-free candidate so far: total, stops tagged with their
/// position in the visit order, and that order.
type BestOrder<'a> = (f64, Stops, &'a [usize]);

/// Minimum-length route over all visit orders: every permutation goes
/// through the chain join and earlier (lexicographic) orders win ties.
/// Returns the stops in visit order.
fn order_free_merge<L: AsRef<[(Point, ObjectId)]>>(
    join: &mut JoinScratch,
    p: Point,
    layers: &[L],
    orders: Option<&[Vec<usize>]>,
) -> Option<Stops> {
    let k = layers.len();
    let computed;
    let orders: &[Vec<usize>] = match orders {
        Some(orders) => orders,
        None => {
            computed = permutations(k);
            &computed
        }
    };
    let mut best: Option<BestOrder<'_>> = None;
    let mut ordered: Vec<&[(Point, ObjectId)]> = Vec::with_capacity(k);
    for order in orders {
        ordered.clear();
        ordered.extend(order.iter().map(|&i| layers[i].as_ref()));
        if let Some((path, total)) = chain_join_with(join, p, &ordered) {
            if best.as_ref().is_none_or(|(b, _, _)| total < *b) {
                best = Some((total, path, order));
            }
        }
    }
    let (_, mut stops, order) = best?;
    for (stop, &layer) in stops.iter_mut().zip(order) {
        stop.2 = layer;
    }
    Some(stops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::testkit::{reference_chain, shaped_layer, Mix, SHAPES};
    use proptest::prelude::*;

    fn layer(coords: &[(f64, f64)], salt: u32) -> Vec<(Point, ObjectId)> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Point::new(x, y), ObjectId(salt * 100 + i as u32)))
            .collect()
    }

    fn clouds(k: usize, n: usize) -> Vec<Vec<(Point, ObjectId)>> {
        (0..k)
            .map(|c| {
                (0..n)
                    .map(|i| {
                        (
                            Point::new(
                                ((i * 37 + c * 13 + 7) % 211) as f64 + 0.25 * c as f64,
                                ((i * 53 + c * 29 + 3) % 223) as f64 + 0.125 * i as f64,
                            ),
                            ObjectId(i as u32),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn empty_layer_merges_to_none() {
        let mut join = JoinScratch::default();
        let a = layer(&[(1.0, 1.0)], 0);
        for objective in [
            RouteObjective::Chain,
            RouteObjective::OrderFree,
            RouteObjective::RoundTrip,
        ] {
            assert!(merge_route_layers(
                &mut join,
                objective,
                Point::ORIGIN,
                &[a.clone(), vec![]],
                None
            )
            .is_none());
            assert!(merge_route_layers::<Vec<(Point, ObjectId)>>(
                &mut join,
                objective,
                Point::ORIGIN,
                &[],
                None
            )
            .is_none());
        }
    }

    #[test]
    fn chain_merge_matches_brute_force_and_folds() {
        let mut join = JoinScratch::default();
        for k in [2usize, 3, 4] {
            let layers = clouds(k, 40);
            let p = Point::new(77.0, 99.0);
            let got = merge_route_layers(&mut join, RouteObjective::Chain, p, &layers, None)
                .expect("non-empty layers");
            assert_eq!(got.stops.len(), k);
            assert_eq!(
                got.stops.iter().map(|s| s.2).collect::<Vec<_>>(),
                (0..k).collect::<Vec<_>>()
            );
            // Exhaustive check at k = 2 (larger k covered by the join's
            // own brute-force tests).
            if k == 2 {
                let mut best = f64::INFINITY;
                for &(s, _) in &layers[0] {
                    for &(r, _) in &layers[1] {
                        best = best.min(p.dist(s) + s.dist(r));
                    }
                }
                assert!((got.total_dist - best).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn order_free_total_is_the_forward_fold_over_its_stops() {
        let mut join = JoinScratch::default();
        for k in [2usize, 3, 4] {
            let layers = clouds(k, 25);
            let p = Point::new(10.0, 200.0);
            let got = merge_route_layers(&mut join, RouteObjective::OrderFree, p, &layers, None)
                .expect("non-empty layers");
            assert_eq!(
                got.total_dist.to_bits(),
                RouteObjective::Chain
                    .route_total(p, got.stops.iter().map(|s| s.0))
                    .to_bits()
            );
            let mut visited: Vec<usize> = got.stops.iter().map(|s| s.2).collect();
            visited.sort_unstable();
            assert_eq!(visited, (0..k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn order_free_cached_orders_match_on_the_fly_orders() {
        let mut join = JoinScratch::default();
        let layers = clouds(3, 30);
        let p = Point::new(150.0, 40.0);
        let cached = permutations(3);
        let with_cache = merge_route_layers(
            &mut join,
            RouteObjective::OrderFree,
            p,
            &layers,
            Some(&cached),
        )
        .unwrap();
        let without =
            merge_route_layers(&mut join, RouteObjective::OrderFree, p, &layers, None).unwrap();
        assert_eq!(with_cache, without);
    }

    #[test]
    fn round_trip_merge_closes_the_tour() {
        let mut join = JoinScratch::default();
        for k in [2usize, 3] {
            let layers = clouds(k, 20);
            let p = Point::new(120.0, 120.0);
            let got = merge_route_layers(&mut join, RouteObjective::RoundTrip, p, &layers, None)
                .expect("non-empty layers");
            let one_way = RouteObjective::Chain.route_total(p, got.stops.iter().map(|s| s.0));
            let back = got.stops.last().unwrap().0.dist(p);
            assert!((one_way + back - got.total_dist).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_over_a_superset_returns_the_same_route() {
        // The shard contract in miniature: merging a superset that still
        // contains the optimum yields the identical stops and bits.
        let mut join = JoinScratch::default();
        let p = Point::new(50.0, 50.0);
        for objective in [
            RouteObjective::Chain,
            RouteObjective::OrderFree,
            RouteObjective::RoundTrip,
        ] {
            for k in [2usize, 3] {
                let full = clouds(k, 60);
                let small: Vec<Vec<(Point, ObjectId)>> = full
                    .iter()
                    .map(|l| {
                        let mut l: Vec<_> = l.clone();
                        l.sort_by(|a, b| p.dist_sq(a.0).total_cmp(&p.dist_sq(b.0)));
                        l.truncate(45);
                        l
                    })
                    .collect();
                let a = merge_route_layers(&mut join, objective, p, &full, None).unwrap();
                let b = merge_route_layers(&mut join, objective, p, &small, None).unwrap();
                if b.total_dist == a.total_dist {
                    assert_eq!(a.stops, b.stops, "{objective:?} k={k}");
                    assert_eq!(a.total_dist.to_bits(), b.total_dist.to_bits());
                }
            }
        }
    }

    proptest! {
        #[test]
        fn order_free_merge_equals_the_nested_loop_over_every_order(
            k in 2usize..=4,
            shape in 0u8..SHAPES,
            seed in 0u64..u64::MAX,
            px in -600.0f64..1600.0,
            py in -600.0f64..1600.0,
        ) {
            let mut rng = Mix(seed);
            let layers: Vec<Vec<(Point, ObjectId)>> = (0..k as u32)
                .map(|i| {
                    let n = 1 + rng.below(60) as usize;
                    shaped_layer(&mut rng, n, shape, i)
                })
                .collect();
            let p = Point::new(px, py);
            // The nested loop over every visit order; earlier orders win
            // ties, as in the merge.
            let (mut best, mut stops) = (f64::INFINITY, Vec::new());
            for order in permutations(k) {
                let ordered: Vec<Vec<(Point, ObjectId)>> =
                    order.iter().map(|&i| layers[i].clone()).collect();
                let (path, total) = reference_chain(p, &ordered, false).expect("non-empty");
                if stops.is_empty() || total < best {
                    best = total;
                    stops = path
                        .into_iter()
                        .zip(&order)
                        .map(|((pt, object, _), &layer)| (pt, object, layer))
                        .collect();
                }
            }
            let got = merge_route_layers(
                &mut JoinScratch::default(),
                RouteObjective::OrderFree,
                p,
                &layers,
                None,
            )
            .expect("non-empty layers");
            assert_eq!(got.stops, stops, "route");
            assert_eq!(
                got.total_dist.to_bits(),
                RouteObjective::Chain
                    .route_total(p, stops.iter().map(|s| s.0))
                    .to_bits(),
                "total bits"
            );
        }
    }
}
