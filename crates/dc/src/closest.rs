//! Closest pair of points — the other problem the paper names as amenable
//! to one-deep solutions ("finding the two nearest neighbors in a set of
//! points in a plane", §2.5).
//!
//! One-deep structure: a non-trivial **split** partitions the points into
//! `N` vertical slabs (sampled splitters, as in the hull); the **solve**
//! finds each slab's closest-pair distance with the classic sequential
//! divide-and-conquer algorithm; the **merge** computes the global
//! candidate distance `δ = min_i d_i`, and each process sends every other
//! process the points lying within `δ` of that process's x-extent, so any
//! cross-slab pair closer than `δ` is examined by the slab that owns one of
//! its endpoints. Each process returns the minimum of its local distance
//! and its cross-pair distances; the global answer is the minimum over
//! processes (see [`global_closest`]).

use archetype_mp::Payload;

use crate::geometry::{cmp_xy, Point};
use crate::mergesort::concat;
use crate::skeleton::OneDeep;

/// Brute-force closest distance, `O(n²)`; the oracle for tests and the
/// base case of the divide-and-conquer solve.
pub fn brute_force_closest(pts: &[Point]) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..pts.len() {
        for j in i + 1..pts.len() {
            best = best.min(pts[i].dist(&pts[j]));
        }
    }
    best
}

fn closest_rec(pts: &[Point]) -> f64 {
    let n = pts.len();
    if n <= 3 {
        return brute_force_closest(pts);
    }
    let mid = n / 2;
    let midx = pts[mid].x;
    let d = closest_rec(&pts[..mid]).min(closest_rec(&pts[mid..]));
    // Strip around the dividing line, checked in y-order.
    let mut strip: Vec<Point> = pts
        .iter()
        .copied()
        .filter(|p| (p.x - midx).abs() < d)
        .collect();
    strip.sort_by(|a, b| a.y.partial_cmp(&b.y).expect("non-NaN"));
    let mut best = d;
    for i in 0..strip.len() {
        for j in i + 1..strip.len() {
            if strip[j].y - strip[i].y >= best {
                break;
            }
            best = best.min(strip[i].dist(&strip[j]));
        }
    }
    best
}

/// Sequential divide-and-conquer closest-pair distance,
/// `O(n log² n)`. Returns `f64::INFINITY` for fewer than two points.
pub fn sequential_closest(points: &[Point]) -> f64 {
    let mut pts = points.to_vec();
    pts.sort_by(cmp_xy);
    closest_rec(&pts)
}

/// A local subsolution, or a strip of candidate points sent to a peer.
#[derive(Clone, Debug)]
pub struct ClosestMid {
    /// True on the piece a process keeps for itself (its full point set).
    pub home: bool,
    /// Closest distance found within the sending slab.
    pub best: f64,
    /// The points: the whole slab on the home piece, candidates otherwise.
    pub pts: Vec<Point>,
}

impl Payload for ClosestMid {
    fn size_bytes(&self) -> usize {
        1 + 8 + self.pts.len() * std::mem::size_of::<Point>()
    }
}

/// The one-deep closest-pair algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct OneDeepClosest {
    /// x-coordinate samples per process for slab splitter computation.
    pub oversample: usize,
}

impl OneDeepClosest {
    /// With the default oversampling factor.
    pub fn new() -> Self {
        OneDeepClosest { oversample: 8 }
    }
}

impl OneDeep for OneDeepClosest {
    type In = Vec<Point>;
    type Mid = ClosestMid;
    type Out = f64;
    type SplitParams = Vec<f64>;
    /// `(δ, per-process x extents)`.
    type MergeParams = (f64, Vec<(f64, f64)>);
    type SplitSample = Vec<f64>;
    /// `(dᵢ, min_xᵢ, max_xᵢ)`.
    type MergeSample = (f64, f64, f64);

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
        let mut all: Vec<Point> = concat(pieces);
        all.sort_by(cmp_xy);
        all
    }

    fn solve(&self, local: Vec<Point>) -> ClosestMid {
        let best = if local.len() >= 2 {
            closest_rec(&local) // already sorted by split_assemble
        } else {
            f64::INFINITY
        };
        ClosestMid {
            home: true,
            best,
            pts: local,
        }
    }

    fn merge_sample(&self, local: &ClosestMid) -> (f64, f64, f64) {
        let min_x = local.pts.first().map(|p| p.x).unwrap_or(f64::INFINITY);
        let max_x = local.pts.last().map(|p| p.x).unwrap_or(f64::NEG_INFINITY);
        (local.best, min_x, max_x)
    }

    fn merge_params(&self, samples: &[(f64, f64, f64)], _nparts: usize) -> (f64, Vec<(f64, f64)>) {
        let delta = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
        let extents = samples.iter().map(|s| (s.1, s.2)).collect();
        (delta, extents)
    }

    fn merge_partition(
        &self,
        local: ClosestMid,
        params: &(f64, Vec<(f64, f64)>),
        nparts: usize,
        self_idx: usize,
    ) -> Vec<ClosestMid> {
        let (delta, extents) = params;
        let mut out = Vec::with_capacity(nparts);
        #[allow(clippy::needless_range_loop)] // d indexes both slots and extents
        for d in 0..nparts {
            if d == self_idx {
                out.push(ClosestMid {
                    home: true,
                    best: local.best,
                    pts: local.pts.clone(),
                });
            } else if delta.is_finite() {
                let (lo, hi) = extents[d];
                let candidates: Vec<Point> = local
                    .pts
                    .iter()
                    .copied()
                    .filter(|p| p.x >= lo - delta && p.x <= hi + delta)
                    .collect();
                out.push(ClosestMid {
                    home: false,
                    best: local.best,
                    pts: candidates,
                });
            } else {
                // δ is infinite only when every slab holds at most one
                // point; send them all (at most one per process) so the
                // cross pairs are still examined.
                out.push(ClosestMid {
                    home: false,
                    best: local.best,
                    pts: local.pts.clone(),
                });
            }
        }
        out
    }

    fn merge_assemble(&self, pieces: Vec<ClosestMid>) -> f64 {
        let mut delta = pieces.iter().map(|p| p.best).fold(f64::INFINITY, f64::min);
        let home = pieces.iter().find(|p| p.home).expect("home piece present");
        for piece in &pieces {
            if piece.home {
                continue;
            }
            for q in &piece.pts {
                for p in &home.pts {
                    // Cheap axis rejection before the full distance.
                    if (p.x - q.x).abs() < delta {
                        delta = delta.min(p.dist(q));
                    }
                }
            }
        }
        delta
    }

    // ---- cost model --------------------------------------------------------
    fn split_cost(&self, local: &Vec<Point>) -> f64 {
        2.0 * local.len() as f64
    }
    fn solve_cost(&self, local: &Vec<Point>) -> f64 {
        let n = local.len().max(1) as f64;
        10.0 * n * n.log2().max(1.0)
    }
    fn merge_assemble_cost(&self, pieces: &[ClosestMid]) -> f64 {
        let foreign: usize = pieces.iter().filter(|p| !p.home).map(|p| p.pts.len()).sum();
        let home = pieces
            .iter()
            .find(|p| p.home)
            .map(|p| p.pts.len())
            .unwrap_or(0);
        4.0 * (foreign * home.max(1)) as f64
    }
}

/// The global closest-pair distance from the per-process outputs.
pub fn global_closest(outs: &[f64]) -> f64 {
    outs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A subsolution of the recursive closest-pair algorithm: the slab's
/// closest distance plus its **boundary candidates** — the points lying
/// within `best` of the slab's x-extremes, sorted by (x, y). Only those
/// can ever participate in a cross-slab strip higher up the combining
/// tree (ancestor boundaries lie outside this subtree's x-range and the
/// candidate radius only shrinks as `best` improves), so interior points
/// are pruned before travelling — which is what keeps the upward
/// communication of the SPMD recursion proportional to strip density
/// rather than to the full point set.
#[derive(Clone, Debug)]
pub struct ClosestSolution {
    /// Closest distance found so far within this subtree's points.
    pub best: f64,
    /// Boundary-candidate points of the subtree, sorted by (x, y).
    pub pts: Vec<Point>,
}

/// Drop points that can never appear in an ancestor boundary strip:
/// those farther than `best` from both x-extremes of the (x-sorted) set.
fn prune_candidates(best: f64, pts: Vec<Point>) -> Vec<Point> {
    let (Some(first), Some(last)) = (pts.first(), pts.last()) else {
        return pts;
    };
    if !best.is_finite() || first.x + best >= last.x - best {
        return pts; // the two candidate bands overlap: keep everything
    }
    let lo = first.x + best;
    let hi = last.x - best;
    pts.into_iter().filter(|q| q.x < lo || q.x > hi).collect()
}

impl Payload for ClosestSolution {
    fn size_bytes(&self) -> usize {
        8 + self.pts.len() * std::mem::size_of::<Point>()
    }
}

/// Closest pair in general recursive divide-and-conquer form
/// ([`crate::recursive::Recursive`]): divide by bucketing the points into
/// `k` vertical slabs at sampled x-splitters (linear, no sorting); solve
/// a slab with the classic sequential divide-and-conquer; combine by
/// taking the minimum of the subtree distances and scanning the y-sorted
/// strip around every slab boundary for closer cross-slab pairs.
/// Whatever the recursion shape, the result is the exact distance of the
/// same closest pair, so the algorithm matches [`sequential_closest`]
/// and [`OneDeepClosest`] at every depth.
#[derive(Clone, Copy, Debug)]
pub struct RecursiveClosest {
    /// x-coordinate samples per slab for splitter selection.
    pub oversample: usize,
}

impl RecursiveClosest {
    /// With the default oversampling factor (8 samples per slab).
    pub fn new() -> Self {
        RecursiveClosest { oversample: 8 }
    }
}

impl Default for RecursiveClosest {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::recursive::Recursive for RecursiveClosest {
    type Problem = Vec<Point>;
    type Solution = ClosestSolution;

    fn size(&self, p: &Vec<Point>) -> usize {
        p.len()
    }

    fn divide(&self, p: Vec<Point>, k: usize) -> Vec<Vec<Point>> {
        // Sampled x-splitters cut the plane into k vertical slabs —
        // disjoint x-ranges in increasing order, one binary search per
        // point (shared with the recursive quicksort's divide).
        crate::quicksort::bucket_by_sampled_splitters(p, k, self.oversample, |q| q.x)
    }

    fn solve(&self, mut p: Vec<Point>) -> ClosestSolution {
        p.sort_by(cmp_xy);
        let best = if p.len() >= 2 {
            closest_rec(&p)
        } else {
            f64::INFINITY
        };
        ClosestSolution {
            best,
            pts: prune_candidates(best, p),
        }
    }

    fn combine(&self, parts: Vec<ClosestSolution>) -> ClosestSolution {
        let mut best = parts.iter().map(|s| s.best).fold(f64::INFINITY, f64::min);
        let mut all: Vec<Point> = Vec::with_capacity(parts.iter().map(|s| s.pts.len()).sum());
        for part in parts {
            if let (Some(left), Some(right)) = (all.last(), part.pts.first()) {
                // Vertical strip around the slab boundary between what we
                // have accumulated (all x ≤ boundary) and this part.
                let bx = 0.5 * (left.x + right.x);
                let mut strip: Vec<Point> = all
                    .iter()
                    .chain(part.pts.iter())
                    .filter(|q| (q.x - bx).abs() < best)
                    .copied()
                    .collect();
                strip.sort_by(|a, b| a.y.partial_cmp(&b.y).expect("non-NaN"));
                for i in 0..strip.len() {
                    for j in i + 1..strip.len() {
                        if strip[j].y - strip[i].y >= best {
                            break;
                        }
                        best = best.min(strip[i].dist(&strip[j]));
                    }
                }
            }
            all.extend(part.pts);
        }
        ClosestSolution {
            best,
            pts: prune_candidates(best, all),
        }
    }

    // ---- cost model ------------------------------------------------------
    fn divide_cost(&self, p: &Vec<Point>) -> f64 {
        // Splitter sampling plus one binary search per point.
        2.0 * p.len() as f64 + 64.0
    }
    fn solve_cost(&self, p: &Vec<Point>) -> f64 {
        let n = p.len().max(1) as f64;
        10.0 * n * n.log2().max(1.0)
    }
    fn combine_cost(&self, parts: &[ClosestSolution]) -> f64 {
        let total: usize = parts.iter().map(|s| s.pts.len()).sum();
        8.0 * total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_shared, run_spmd};
    use archetype_mp::{run_spmd as mp_run, MachineModel};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn pseudo_random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| p(next() * 1000.0, next() * 1000.0))
            .collect()
    }

    #[test]
    fn sequential_matches_brute_force() {
        for seed in 1..6u64 {
            let pts = pseudo_random_points(200, seed);
            let fast = sequential_closest(&pts);
            let slow = brute_force_closest(&pts);
            assert!((fast - slow).abs() < 1e-9, "seed={seed}: {fast} vs {slow}");
        }
    }

    #[test]
    fn trivial_inputs() {
        assert_eq!(sequential_closest(&[]), f64::INFINITY);
        assert_eq!(sequential_closest(&[p(1.0, 1.0)]), f64::INFINITY);
        assert_eq!(sequential_closest(&[p(0.0, 0.0), p(3.0, 4.0)]), 5.0);
    }

    #[test]
    fn coincident_points_give_zero() {
        let pts = vec![p(5.0, 5.0), p(5.0, 5.0), p(9.0, 9.0)];
        assert_eq!(sequential_closest(&pts), 0.0);
    }

    #[test]
    fn one_deep_matches_sequential() {
        for n in [1usize, 2, 4, 6] {
            let all = pseudo_random_points(600, 11);
            let expected = sequential_closest(&all);
            let inputs: Vec<Vec<Point>> = all.chunks(600 / n).map(<[Point]>::to_vec).collect();
            let inputs = {
                let mut v = inputs;
                v.resize(n, Vec::new());
                v.truncate(n);
                v
            };
            let out = run_shared(&OneDeepClosest::new(), inputs);
            let got = global_closest(&out);
            assert!((got - expected).abs() < 1e-9, "n={n}: {got} vs {expected}");
        }
    }

    #[test]
    fn cross_slab_pair_is_found() {
        // The closest pair straddles the slab boundary: each slab's local
        // best is large, the true pair crosses.
        let inputs = vec![
            vec![p(0.0, 0.0), p(49.9, 0.0)],
            vec![p(50.1, 0.0), p(100.0, 0.0)],
        ];
        let all: Vec<Point> = inputs.iter().flatten().copied().collect();
        let expected = sequential_closest(&all); // 0.2 across the boundary
        let out = run_shared(&OneDeepClosest::new(), inputs);
        let got = global_closest(&out);
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
        assert!((got - 0.2).abs() < 1e-6);
    }

    #[test]
    fn modes_and_spmd_agree() {
        let all = pseudo_random_points(400, 23);
        let expected = sequential_closest(&all);
        let inputs: Vec<Vec<Point>> = all.chunks(100).map(<[Point]>::to_vec).collect();
        let alg = OneDeepClosest::new();
        let seq = run_shared(&alg, inputs.clone());
        let spmd = mp_run(inputs.len(), MachineModel::ibm_sp(), |ctx| {
            run_spmd(&OneDeepClosest::new(), ctx, inputs[ctx.rank()].clone())
        });
        assert_eq!(global_closest(&seq), global_closest(&spmd.results));
        assert!((global_closest(&spmd.results) - expected).abs() < 1e-9);
    }

    #[test]
    fn recursive_closest_matches_sequential_at_every_depth() {
        use crate::recursive::{run_shared as run_rec, CutoffPolicy};
        let pts = pseudo_random_points(500, 7);
        let expected = sequential_closest(&pts);
        for depth in 0..4 {
            for k in [2usize, 3] {
                let got = run_rec(
                    &RecursiveClosest::new(),
                    pts.clone(),
                    &CutoffPolicy::exact_depth(depth, k),
                );
                assert!(
                    (got.best - expected).abs() < 1e-12,
                    "depth={depth} k={k}: {} vs {expected}",
                    got.best
                );
                assert!(got.pts.len() <= pts.len(), "pruning never invents points");
            }
        }
    }

    #[test]
    fn recursive_closest_finds_cross_slab_pairs() {
        use crate::recursive::{run_shared as run_rec, CutoffPolicy};
        // The closest pair straddles every boundary a 4-way cut makes.
        let pts = vec![
            p(0.0, 0.0),
            p(24.9, 0.0),
            p(25.1, 0.0),
            p(50.0, 0.0),
            p(75.0, 0.0),
            p(100.0, 0.0),
            p(125.0, 0.0),
            p(150.0, 0.0),
        ];
        let got = run_rec(
            &RecursiveClosest::new(),
            pts,
            &CutoffPolicy::exact_depth(1, 4),
        );
        assert!((got.best - 0.2).abs() < 1e-9, "{}", got.best);
    }

    #[test]
    fn recursive_closest_spmd_matches_sequential_oracle() {
        use crate::recursive::{run_spmd_recursive, CutoffPolicy};
        let pts = pseudo_random_points(400, 31);
        let expected = sequential_closest(&pts);
        for depth in [0usize, 2, 3] {
            let inp = pts.clone();
            let out = mp_run(6, MachineModel::ibm_sp(), move |ctx| {
                let local = (ctx.rank() == 0).then(|| inp.clone());
                run_spmd_recursive(
                    &RecursiveClosest::new(),
                    ctx,
                    local,
                    &CutoffPolicy::exact_depth(depth, 2),
                    None,
                )
            });
            let got = out.results[0].as_ref().expect("root has the solution");
            assert!((got.best - expected).abs() < 1e-12, "depth={depth}");
        }
    }

    #[test]
    fn recursive_closest_degenerate_inputs() {
        use crate::recursive::{run_shared as run_rec, CutoffPolicy};
        let policy = CutoffPolicy::exact_depth(3, 2);
        let empty = run_rec(&RecursiveClosest::new(), Vec::new(), &policy);
        assert_eq!(empty.best, f64::INFINITY);
        let single = run_rec(&RecursiveClosest::new(), vec![p(1.0, 1.0)], &policy);
        assert_eq!(single.best, f64::INFINITY);
        let coincident = run_rec(
            &RecursiveClosest::new(),
            vec![p(5.0, 5.0), p(5.0, 5.0), p(9.0, 9.0)],
            &policy,
        );
        assert_eq!(coincident.best, 0.0);
    }

    #[test]
    fn sparse_processes_with_too_few_points() {
        let inputs = vec![vec![p(0.0, 0.0)], vec![], vec![p(0.0, 1.5)]];
        let out = run_shared(&OneDeepClosest::new(), inputs);
        assert!((global_closest(&out) - 1.5).abs() < 1e-9);
    }
}
