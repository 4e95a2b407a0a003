//! Bulk-loaded trees, pinned node for node.
//!
//! Every broadcast page offset is a preorder node id, so a packer change
//! that moves one entry moves pages, arrival times and answers. This test
//! pins the packers' output independently of `content_fingerprint` (which
//! hashes leaf order only and may itself change): for each point set,
//! packing algorithm and page size it records the node count, the height
//! and a digest over every node's level, MBR bits, child ids and leaf
//! `(point bits, object id)` entries in `tests/golden/bulk_load.txt`.
//! The point sets lean on ties: duplicate lattices, a vertical line,
//! a single point and a mix of `0.0` and `-0.0`.

use std::fmt::Write as _;
use tnn_datasets::{city_like, uniform_points};
use tnn_geom::{Point, Rect};
use tnn_rtree::{Entries, PackingAlgorithm, RTree, RTreeParams};

const GOLDEN: &str = include_str!("golden/bulk_load.txt");

/// The test's own digest: word-wise FNV-1a over the tree's full shape.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn point(&mut self, p: Point) {
        self.word(p.x.to_bits());
        self.word(p.y.to_bits());
    }

    fn rect(&mut self, r: &Rect) {
        self.point(r.min);
        self.point(r.max);
    }
}

fn digest(tree: &RTree) -> u64 {
    let mut d = Digest::new();
    for node in tree.nodes() {
        d.word(u64::from(node.level));
        d.rect(&node.mbr);
        match &node.entries {
            Entries::Internal(children) => {
                d.word(children.len() as u64);
                for c in children {
                    d.rect(&c.mbr);
                    d.word(u64::from(c.child.0));
                }
            }
            Entries::Leaf(points) => {
                d.word(points.len() as u64 | 1 << 63);
                for e in points {
                    d.point(e.point);
                    d.word(u64::from(e.object.0));
                }
            }
        }
    }
    d.0
}

/// The point sets, each with its label.
fn point_sets() -> Vec<(&'static str, Vec<Point>)> {
    let region = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
    let uniform = uniform_points(3_000, &region, 0xB01C_0001);
    // A 20 × 20 lattice, every point three times, in row-major order.
    let lattice: Vec<Point> = (0..1_200)
        .map(|i| {
            let cell = i / 3;
            Point::new((cell % 20) as f64, (cell / 20) as f64)
        })
        .collect();
    // One vertical line with repeated y values.
    let collinear: Vec<Point> = (0..700)
        .map(|i| Point::new(5.0, ((i * 37) % 250) as f64))
        .collect();
    // Coordinates drawn from {-0.0, 0.0, ±1.0} so total-order ties and
    // signed zeros meet.
    let zeros: Vec<Point> = (0..500u64)
        .map(|i| {
            let pick = |k: u64| match k % 5 {
                0 => -0.0,
                1 => 0.0,
                2 => 1.0,
                3 => -1.0,
                _ => 0.0,
            };
            Point::new(pick(i * 7 + i / 5), pick(i * 3 + i / 11))
        })
        .collect();
    // The uniform set in a scrambled input order (ids follow the slice).
    let mut scrambled = uniform.clone();
    let len = scrambled.len();
    for i in 0..len {
        scrambled.swap(i, (i * 2_654_435_761) % len);
    }
    vec![
        ("uniform", uniform),
        ("city", city_like(0xB01C_0002)),
        ("lattice", lattice),
        ("collinear", collinear),
        ("single", vec![Point::new(3.0, 4.0)]),
        ("signed_zero", zeros),
        ("scrambled", scrambled),
    ]
}

fn render() -> String {
    let mut out = String::new();
    for (label, points) in point_sets() {
        for algo in PackingAlgorithm::ALL {
            for page in [64usize, 128, 512] {
                let tree = RTree::build(&points, RTreeParams::for_page_capacity(page), algo)
                    .expect("valid non-empty input");
                tree.validate().expect("a packed tree is valid");
                writeln!(
                    out,
                    "{label} {} page={page} nodes={} height={} digest={:#018x}",
                    algo.name(),
                    tree.num_nodes(),
                    tree.height(),
                    digest(&tree)
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn bulk_loaded_trees_match_the_golden_file() {
    let rendered = render();
    if rendered != GOLDEN {
        let first_diff = rendered
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(rendered.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "bulk-loaded trees drifted from tests/golden/bulk_load.txt at line {}:\n\
             rendered: {:?}\n  golden: {:?}\n--- full rendering ---\n{rendered}",
            first_diff + 1,
            rendered.lines().nth(first_diff),
            GOLDEN.lines().nth(first_diff),
        );
    }
}
