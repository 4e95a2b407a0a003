//! Clustered (skewed) synthetic datasets: Gaussian-mixture stand-ins for
//! the paper's real CITY and POST datasets.
//!
//! The originals (≈6,000 Greek cities; >100,000 north-east-US post
//! offices, both from the rtreeportal archive cited as \[1\]) are not
//! redistributable. What every TNN algorithm actually reacts to is
//! **non-uniform local density** — the Approximate-TNN radius formula
//! (paper eq. 1) assumes global uniformity and breaks exactly when local
//! density deviates from it, which drives the Table 3 fail rates. A
//! power-law Gaussian mixture with a small uniform background reproduces
//! that property; absolute coordinates are irrelevant to the metrics.

use crate::{paper_region, post_region, scale_points};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tnn_geom::{Point, Rect};

/// Specification of a Gaussian-mixture clustered dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Total number of points.
    pub n: usize,
    /// Number of Gaussian clusters.
    pub clusters: usize,
    /// Fraction of points drawn as diffuse "rural" background — scattered
    /// around the cluster *centers* (with 4× the cluster spread) rather
    /// than uniformly, so that the unpopulated voids stay empty
    /// (0.0 … 1.0).
    pub background_frac: f64,
    /// Smallest cluster standard deviation, as a fraction of the region
    /// side.
    pub spread_min: f64,
    /// Largest cluster standard deviation, as a fraction of the region
    /// side.
    pub spread_max: f64,
    /// Power-law exponent for cluster weights: cluster `i` (1-based) gets
    /// weight `i^(−power)`. Zero gives equal-sized clusters; larger values
    /// concentrate mass in few clusters (population-like skew).
    pub power: f64,
    /// Number of macro regions ("landmasses") that cluster centers are
    /// confined to; `0` spreads the centers uniformly over the whole
    /// region. Real geographic datasets concentrate on a fraction of
    /// their bounding rectangle (coastlines, states) leaving large voids
    /// — the property that breaks the uniformity assumption of
    /// Approximate-TNN (paper Table 3).
    pub macro_clusters: usize,
    /// Standard deviation of cluster centers around their macro anchor,
    /// as a fraction of the region side.
    pub macro_spread: f64,
}

/// Generates a clustered dataset over `region`, deterministic in `seed`.
///
/// Cluster centers are uniform over the region; cluster sizes follow the
/// spec's power law; each cluster is an isotropic Gaussian whose standard
/// deviation is drawn log-uniformly between the spread bounds. Samples
/// falling outside the region are redrawn a few times, then clamped, so
/// the advertised point count is exact.
pub fn clustered(spec: &ClusterSpec, region: &Rect, seed: u64) -> Vec<Point> {
    assert!(spec.clusters >= 1, "need at least one cluster");
    assert!(
        (0.0..=1.0).contains(&spec.background_frac),
        "background fraction must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let side = region.width().max(region.height());

    // Macro anchors ("landmasses"), when configured: cluster centers
    // gather around them, leaving the rest of the region as void.
    let anchors: Vec<Point> = (0..spec.macro_clusters)
        .map(|_| {
            Point::new(
                rng.gen_range(region.min.x..=region.max.x),
                rng.gen_range(region.min.y..=region.max.y),
            )
        })
        .collect();

    // Cluster centers and spreads.
    let centers: Vec<Point> = (0..spec.clusters)
        .map(|i| {
            if anchors.is_empty() {
                Point::new(
                    rng.gen_range(region.min.x..=region.max.x),
                    rng.gen_range(region.min.y..=region.max.y),
                )
            } else {
                let anchor = anchors[i % anchors.len()];
                sample_gaussian_in_region(&mut rng, anchor, spec.macro_spread * side, region)
            }
        })
        .collect();
    let spreads: Vec<f64> = (0..spec.clusters)
        .map(|_| {
            let lo = spec.spread_min.max(1e-6).ln();
            let hi = spec.spread_max.max(spec.spread_min.max(1e-6)).ln();
            (if hi > lo { rng.gen_range(lo..=hi) } else { lo }).exp() * side
        })
        .collect();

    // Power-law weights → cumulative distribution over clusters.
    let weights: Vec<f64> = (1..=spec.clusters)
        .map(|i| (i as f64).powf(-spec.power))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(spec.clusters);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }

    let n_background = (spec.n as f64 * spec.background_frac).round() as usize;
    let n_clustered = spec.n - n_background;

    let mut points = Vec::with_capacity(spec.n);
    for _ in 0..n_clustered {
        let u: f64 = rng.gen();
        let k = cumulative
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(spec.clusters - 1);
        points.push(sample_gaussian_in_region(
            &mut rng, centers[k], spreads[k], region,
        ));
    }
    // Diffuse background around the populated areas (villages, rural
    // offices) — deliberately *not* uniform over the region, so that the
    // voids of real geographic data are reproduced.
    for i in 0..n_background {
        let k = if centers.is_empty() {
            0
        } else {
            i % centers.len()
        };
        points.push(sample_gaussian_in_region(
            &mut rng,
            centers[k],
            spreads[k] * 4.0,
            region,
        ));
    }
    points
}

/// One Gaussian sample around `center` with deviation `sigma`, redrawn up
/// to 16 times to land inside `region`, then clamped.
fn sample_gaussian_in_region(rng: &mut StdRng, center: Point, sigma: f64, region: &Rect) -> Point {
    for _ in 0..16 {
        let (gx, gy) = box_muller(rng);
        let p = Point::new(center.x + gx * sigma, center.y + gy * sigma);
        if region.contains(p) {
            return p;
        }
    }
    let (gx, gy) = box_muller(rng);
    region.closest_point(Point::new(center.x + gx * sigma, center.y + gy * sigma))
}

/// A pair of independent standard normal samples (Box–Muller transform).
fn box_muller(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// CITY-like dataset: ≈5,922 points in the paper region, heavily
/// clustered — the stand-in for the paper's "nearly 6,000 cities and
/// villages of Greece". Settlements gather on a handful of "landmass"
/// macro regions (coastal Greece), leaving large voids (the sea) that
/// defeat the uniformity assumption of Approximate-TNN exactly as the
/// real dataset does.
pub fn city_like(seed: u64) -> Vec<Point> {
    clustered(
        &ClusterSpec {
            n: 5_922,
            clusters: 40,
            background_frac: 0.10,
            spread_min: 0.003,
            spread_max: 0.02,
            power: 1.0,
            macro_clusters: 7,
            macro_spread: 0.16,
        },
        &paper_region(),
        seed,
    )
}

/// POST-like dataset: ≈123,593 points, population-like skew, generated in
/// the native 1,000,000² region and scaled to the paper region exactly as
/// the paper scales its datasets — the stand-in for "more than 100,000
/// post offices in the north-east of the United States" (whose bounding
/// rectangle is mostly ocean and sparsely populated land).
pub fn post_like(seed: u64) -> Vec<Point> {
    let native = clustered(
        &ClusterSpec {
            n: 123_593,
            clusters: 220,
            background_frac: 0.06,
            spread_min: 0.002,
            spread_max: 0.02,
            power: 1.1,
            macro_clusters: 6,
            macro_spread: 0.10,
        },
        &post_region(),
        seed,
    );
    scale_points(&native, &post_region(), &paper_region())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_point_counts() {
        assert_eq!(city_like(1).len(), 5_922);
        let spec = ClusterSpec {
            n: 1_000,
            clusters: 5,
            background_frac: 0.1,
            spread_min: 0.01,
            spread_max: 0.02,
            power: 1.0,
            macro_clusters: 0,
            macro_spread: 0.0,
        };
        assert_eq!(clustered(&spec, &paper_region(), 3).len(), 1_000);
    }

    #[test]
    fn all_points_inside_region() {
        let region = paper_region();
        for p in city_like(5) {
            assert!(region.contains(p), "{p:?} escaped the region");
        }
    }

    #[test]
    fn post_like_is_scaled_into_paper_region() {
        let region = paper_region();
        let pts = post_like(2);
        assert_eq!(pts.len(), 123_593);
        for p in pts.iter().take(2_000) {
            assert!(region.contains(*p));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(city_like(9), city_like(9));
        assert_ne!(city_like(9), city_like(10));
    }

    #[test]
    fn clustering_is_actually_skewed() {
        // Split the region into a 10×10 grid; a clustered dataset must
        // concentrate far more mass in its densest cell than a uniform one
        // would (uniform ≈ 1% per cell).
        let pts = city_like(11);
        let side = crate::PAPER_SIDE;
        let mut counts = [0usize; 100];
        for p in &pts {
            let gx = ((p.x / side * 10.0) as usize).min(9);
            let gy = ((p.y / side * 10.0) as usize).min(9);
            counts[gy * 10 + gx] += 1;
        }
        let max_frac = *counts.iter().max().unwrap() as f64 / pts.len() as f64;
        assert!(
            max_frac > 0.05,
            "densest cell only holds {max_frac:.3} of the points"
        );
        // And substantial voids must exist (the "sea" of the real CITY
        // dataset): many grid cells hold essentially nothing.
        let empty = counts.iter().filter(|&&c| c < 3).count();
        assert!(empty > 25, "only {empty} near-empty cells");
    }

    #[test]
    fn background_fraction_zero_and_one() {
        let region = paper_region();
        let base = ClusterSpec {
            n: 500,
            clusters: 3,
            background_frac: 0.0,
            spread_min: 0.005,
            spread_max: 0.01,
            power: 0.0,
            macro_clusters: 2,
            macro_spread: 0.05,
        };
        assert_eq!(clustered(&base, &region, 1).len(), 500);
        let all_bg = ClusterSpec {
            background_frac: 1.0,
            ..base
        };
        assert_eq!(clustered(&all_bg, &region, 1).len(), 500);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_panics() {
        let spec = ClusterSpec {
            n: 10,
            clusters: 0,
            background_frac: 0.0,
            spread_min: 0.01,
            spread_max: 0.02,
            power: 1.0,
            macro_clusters: 0,
            macro_spread: 0.0,
        };
        clustered(&spec, &paper_region(), 1);
    }

    #[test]
    fn box_muller_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let (a, b) = box_muller(&mut rng);
            sum += a + b;
            sum_sq += a * a + b * b;
        }
        let mean = sum / (2.0 * n as f64);
        let var = sum_sq / (2.0 * n as f64);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
