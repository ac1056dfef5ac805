//! Property-based tests of the geometric one-deep applications: skyline
//! canonical-form invariants against a brute-force height oracle, convex
//! hull convexity/containment, and closest-pair agreement with the
//! quadratic oracle.

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::dc::closest::brute_force_closest;
use parallel_archetypes::dc::geometry::cross;
use parallel_archetypes::dc::skeleton::run_shared;
use parallel_archetypes::dc::{
    concat_skyline, convex_hull, global_closest, Building, OneDeepClosest, OneDeepHull,
    OneDeepSkyline, Point,
};

fn arb_building() -> impl Strategy<Value = Building> {
    (0i32..200, 1i32..50, 1i32..30)
        .prop_map(|(l, h, w)| Building::new(l as f64, h as f64, (l + w) as f64))
}

fn arb_building_blocks() -> impl Strategy<Value = Vec<Vec<Building>>> {
    vec(vec(arb_building(), 0..25), 1..5)
}

/// Height of a set of buildings at a point, by brute force.
fn brute_height(buildings: &[Building], x: f64) -> f64 {
    buildings
        .iter()
        .filter(|b| b.left <= x && x < b.right)
        .map(|b| b.height)
        .fold(0.0, f64::max)
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    vec((0i32..1000, 0i32..1000), 2..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| Point::new(x as f64, y as f64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skyline_matches_brute_force_heights(blocks in arb_building_blocks()) {
        let all: Vec<Building> = blocks.iter().flatten().copied().collect();
        let out = run_shared(&OneDeepSkyline, blocks);
        let sky = concat_skyline(&out);

        // Canonical form: strictly increasing x, no consecutive equal
        // heights, ends at ground level.
        for w in sky.windows(2) {
            prop_assert!(w[0].x < w[1].x);
            prop_assert!(w[0].h != w[1].h);
        }
        if let Some(last) = sky.last() {
            prop_assert_eq!(last.h, 0.0);
        }

        // Sample heights between every pair of vertices and at midpoints,
        // and compare with the brute-force oracle.
        let height_at = |x: f64| -> f64 {
            let idx = sky.partition_point(|p| p.x <= x);
            if idx == 0 { 0.0 } else { sky[idx - 1].h }
        };
        for b in &all {
            for x in [b.left + 1e-9, (b.left + b.right) / 2.0, b.right - 1e-9] {
                prop_assert_eq!(height_at(x), brute_height(&all, x), "at x={}", x);
            }
        }
    }

    #[test]
    fn hull_is_convex_and_contains_every_point(pts in arb_points(60)) {
        let hull = convex_hull(&pts);
        let n = hull.len();
        if n >= 3 {
            // Strictly convex, counter-clockwise.
            for i in 0..n {
                prop_assert!(
                    cross(&hull[i], &hull[(i + 1) % n], &hull[(i + 2) % n]) > 0.0
                );
            }
            // Containment: every input point is inside or on the hull.
            for q in &pts {
                for i in 0..n {
                    prop_assert!(cross(&hull[i], &hull[(i + 1) % n], q) >= -1e-9);
                }
            }
        }
        // Hull vertices are input points.
        for v in &hull {
            prop_assert!(pts.iter().any(|p| p == v));
        }
    }

    #[test]
    fn one_deep_hull_equals_direct_hull(pts in arb_points(60), nblocks in 1usize..5) {
        let expected = convex_hull(&pts);
        let per = pts.len().div_ceil(nblocks);
        let mut inputs: Vec<Vec<Point>> = pts.chunks(per).map(<[Point]>::to_vec).collect();
        inputs.resize(nblocks, Vec::new());
        let out = run_shared(&OneDeepHull::new(), inputs);
        for block in &out {
            prop_assert_eq!(block, &expected);
        }
    }

    #[test]
    fn one_deep_closest_matches_brute_force(pts in arb_points(50), nblocks in 1usize..5) {
        let expected = brute_force_closest(&pts);
        let per = pts.len().div_ceil(nblocks);
        let mut inputs: Vec<Vec<Point>> = pts.chunks(per).map(<[Point]>::to_vec).collect();
        inputs.resize(nblocks, Vec::new());
        let out = run_shared(&OneDeepClosest::new(), inputs);
        let got = global_closest(&out);
        prop_assert!((got - expected).abs() < 1e-9, "{} vs {}", got, expected);
    }
}
