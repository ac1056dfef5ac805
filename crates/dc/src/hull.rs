//! Convex hull — one of the problems the paper names as "amenable to
//! one-deep solutions" (§2.5).
//!
//! One-deep structure: a **non-trivial split** partitions the points into
//! `N` vertical slabs using sampled x-coordinates (so slab hulls have
//! bounded candidate overlap); the **solve** computes each slab's hull with
//! Andrew's monotone chain; the **merge** exploits the fact that every
//! vertex of the global hull is a vertex of its slab's hull, so the slab
//! hulls are a small candidate set: each process shares its slab hull with
//! every other process (an all-to-all of hull copies), and each assembles
//! the global hull from the union of candidates. The output is therefore
//! replicated — the degenerate-merge limit where "combining the results …
//! through concatenation" is replaced by a cheap final hull of candidates.

use crate::geometry::{cmp_xy, cross, Point};
use crate::mergesort::concat;
use crate::skeleton::OneDeep;

/// Andrew's monotone-chain convex hull. Returns the hull in
/// counter-clockwise order starting from the lexicographically smallest
/// point; collinear boundary points are excluded. Inputs of size < 3
/// return the (deduplicated, sorted) input.
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(cmp_xy);
    pts.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    let n = pts.len();
    if n < 3 {
        return pts;
    }
    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
    // Lower hull.
    for p in &pts {
        while hull.len() >= 2 && cross(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0 {
            hull.pop();
        }
        hull.push(*p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for p in pts.iter().rev() {
        while hull.len() >= lower_len
            && cross(&hull[hull.len() - 2], &hull[hull.len() - 1], p) <= 0.0
        {
            hull.pop();
        }
        hull.push(*p);
    }
    hull.pop(); // last point equals the first
    hull
}

/// The one-deep convex hull algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct OneDeepHull {
    /// x-coordinate samples per process for slab splitter computation.
    pub oversample: usize,
}

impl OneDeepHull {
    /// With the default oversampling factor.
    pub fn new() -> Self {
        OneDeepHull { oversample: 8 }
    }
}

impl OneDeep for OneDeepHull {
    type In = Vec<Point>;
    type Mid = Vec<Point>; // the slab hull
    type Out = Vec<Point>; // the global hull (replicated)
    type SplitParams = Vec<f64>; // slab boundaries
    type MergeParams = ();
    type SplitSample = Vec<f64>; // sampled x coordinates
    type MergeSample = ();

    fn split_sample(&self, local: &Vec<Point>) -> Vec<f64> {
        if local.is_empty() {
            return Vec::new();
        }
        let k = self.oversample.max(1).min(local.len());
        (0..k)
            .map(|i| local[((2 * i + 1) * local.len()) / (2 * k)].x)
            .collect()
    }

    fn split_params(&self, samples: &[Vec<f64>], nparts: usize) -> Vec<f64> {
        let mut all: Vec<f64> = samples.iter().flatten().copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
        if all.is_empty() || nparts <= 1 {
            return Vec::new();
        }
        (1..nparts).map(|i| all[(i * all.len()) / nparts]).collect()
    }

    fn split_partition(
        &self,
        local: Vec<Point>,
        splitters: &Vec<f64>,
        nparts: usize,
        _self_idx: usize,
    ) -> Vec<Vec<Point>> {
        let mut out: Vec<Vec<Point>> = (0..nparts).map(|_| Vec::new()).collect();
        for p in local {
            let slab = splitters.partition_point(|s| *s < p.x);
            out[slab].push(p);
        }
        out
    }

    fn split_assemble(&self, pieces: Vec<Vec<Point>>) -> Vec<Point> {
        concat(pieces)
    }

    fn solve(&self, local: Vec<Point>) -> Vec<Point> {
        convex_hull(&local)
    }

    fn merge_sample(&self, _local: &Vec<Point>) {}
    fn merge_params(&self, _samples: &[()], _nparts: usize) {}

    fn merge_partition(
        &self,
        local: Vec<Point>,
        _params: &(),
        nparts: usize,
        _self_idx: usize,
    ) -> Vec<Vec<Point>> {
        // Share the slab hull with everyone (hulls are small).
        (0..nparts).map(|_| local.clone()).collect()
    }

    fn merge_assemble(&self, pieces: Vec<Vec<Point>>) -> Vec<Point> {
        let candidates: Vec<Point> = concat(pieces);
        convex_hull(&candidates)
    }

    // ---- cost model --------------------------------------------------------
    fn split_cost(&self, local: &Vec<Point>) -> f64 {
        2.0 * local.len() as f64
    }
    fn solve_cost(&self, local: &Vec<Point>) -> f64 {
        let n = local.len().max(1) as f64;
        6.0 * n * n.log2().max(1.0)
    }
    fn merge_assemble_cost(&self, pieces: &[Vec<Point>]) -> f64 {
        let n = pieces.iter().map(Vec::len).sum::<usize>().max(1) as f64;
        6.0 * n * n.log2().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_shared, run_spmd};
    use archetype_core::ExecutionMode;
    use archetype_mp::{run_spmd as mp_run, MachineModel};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn hull_of_square_with_interior_points() {
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0),
            p(0.0, 1.0),
            p(0.5, 0.5),
            p(0.3, 0.7),
        ];
        let h = convex_hull(&pts);
        assert_eq!(h.len(), 4);
        assert_eq!(h[0], p(0.0, 0.0)); // starts at lexicographic minimum
    }

    #[test]
    fn hull_small_inputs() {
        assert!(convex_hull(&[]).is_empty());
        assert_eq!(convex_hull(&[p(1.0, 1.0)]), vec![p(1.0, 1.0)]);
        assert_eq!(convex_hull(&[p(1.0, 1.0), p(1.0, 1.0)]), vec![p(1.0, 1.0)]);
        assert_eq!(
            convex_hull(&[p(2.0, 0.0), p(0.0, 0.0)]),
            vec![p(0.0, 0.0), p(2.0, 0.0)]
        );
    }

    #[test]
    fn hull_excludes_collinear_points() {
        let pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0), p(1.0, 1.0)];
        let h = convex_hull(&pts);
        assert_eq!(h.len(), 3);
        assert!(!h.contains(&p(1.0, 0.0)));
    }

    fn pseudo_random_points(n: usize, seed: u64) -> Vec<Point> {
        // Deterministic LCG; coordinates in the unit disk-ish region.
        let mut s = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| p(next() * 100.0, next() * 100.0)).collect()
    }

    fn hull_is_convex_ccw(h: &[Point]) -> bool {
        let n = h.len();
        if n < 3 {
            return true;
        }
        (0..n).all(|i| cross(&h[i], &h[(i + 1) % n], &h[(i + 2) % n]) > 0.0)
    }

    fn all_points_inside(h: &[Point], pts: &[Point]) -> bool {
        if h.len() < 3 {
            return true;
        }
        let n = h.len();
        pts.iter()
            .all(|q| (0..n).all(|i| cross(&h[i], &h[(i + 1) % n], q) >= -1e-9))
    }

    #[test]
    fn hull_is_convex_and_contains_all_points() {
        let pts = pseudo_random_points(500, 7);
        let h = convex_hull(&pts);
        assert!(hull_is_convex_ccw(&h));
        assert!(all_points_inside(&h, &pts));
    }

    #[test]
    fn one_deep_hull_matches_direct_hull() {
        for n in [1usize, 2, 4, 7] {
            let all = pseudo_random_points(400, 42);
            let expected = convex_hull(&all);
            let inputs: Vec<Vec<Point>> = all.chunks(400 / n + 1).map(<[Point]>::to_vec).collect();
            let inputs = {
                let mut v = inputs;
                v.resize(n, Vec::new());
                v.truncate(n);
                v
            };
            // Re-flatten to ensure we kept every point despite resizing.
            let kept: usize = inputs.iter().map(Vec::len).sum();
            assert_eq!(kept, 400);
            let out = run_shared(&OneDeepHull::new(), inputs, ExecutionMode::Sequential, None);
            for block in &out {
                assert_eq!(block, &expected, "n={n}: replicated hull must match");
            }
        }
    }

    #[test]
    fn modes_and_spmd_agree() {
        let all = pseudo_random_points(300, 99);
        let inputs: Vec<Vec<Point>> = all.chunks(75).map(<[Point]>::to_vec).collect();
        let alg = OneDeepHull::new();
        let seq = run_shared(&alg, inputs.clone(), ExecutionMode::Sequential, None);
        let par = run_shared(&alg, inputs.clone(), ExecutionMode::Parallel, None);
        assert_eq!(seq, par);
        let spmd = mp_run(inputs.len(), MachineModel::ibm_sp(), |ctx| {
            run_spmd(&OneDeepHull::new(), ctx, inputs[ctx.rank()].clone())
        });
        assert_eq!(seq, spmd.results);
    }

    #[test]
    fn empty_processes_are_tolerated() {
        let inputs = vec![
            vec![p(0.0, 0.0), p(4.0, 0.0), p(2.0, 3.0)],
            vec![],
            vec![p(2.0, 1.0)], // interior
        ];
        let out = run_shared(&OneDeepHull::new(), inputs, ExecutionMode::Sequential, None);
        assert_eq!(out[0].len(), 3);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
    }
}
