//! The skyline problem (paper §2.5.1): merge a collection of rectangular
//! buildings into a single skyline.
//!
//! The one-deep version mirrors one-deep mergesort: a degenerate split
//! (buildings are pre-distributed), a local solve (sequential
//! divide-and-conquer skyline per process), and a merge phase that samples
//! the local skylines' extents, computes vertical splitter lines, cuts every
//! local skyline into `N` regions, redistributes so process `i` receives all
//! skyline pieces in region `i`, and merges them locally. The concatenation
//! of the local skylines is the final skyline.

use crate::geometry::{canonicalize_skyline, Building, SkyPoint};
use crate::mergesort::concat;
use crate::skeleton::OneDeep;

/// Merge two piecewise-constant skylines into their pointwise maximum.
///
/// Unlike textbook skyline merges this does *not* assume the inputs end at
/// height zero: a clipped skyline piece may end at positive height that
/// persists to the region boundary, and the sweep keeps applying `max`
/// with each side's running height to the end.
pub fn merge_skylines(a: &[SkyPoint], b: &[SkyPoint]) -> Vec<SkyPoint> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0usize, 0usize);
    let (mut ha, mut hb) = (0.0f64, 0.0f64);
    while ia < a.len() || ib < b.len() {
        let xa = a.get(ia).map(|p| p.x).unwrap_or(f64::INFINITY);
        let xb = b.get(ib).map(|p| p.x).unwrap_or(f64::INFINITY);
        let x = xa.min(xb);
        if xa <= x {
            ha = a[ia].h;
            ia += 1;
        }
        if xb <= x {
            hb = b[ib].h;
            ib += 1;
        }
        out.push(SkyPoint::new(x, ha.max(hb)));
    }
    canonicalize_skyline(&out)
}

/// Sequential divide-and-conquer skyline of a set of buildings —
/// the paper's base algorithm and the local solve of the one-deep version.
pub fn sequential_skyline(buildings: &[Building]) -> Vec<SkyPoint> {
    match buildings.len() {
        0 => Vec::new(),
        1 => {
            let b = buildings[0];
            if b.height == 0.0 {
                Vec::new()
            } else {
                vec![SkyPoint::new(b.left, b.height), SkyPoint::new(b.right, 0.0)]
            }
        }
        n => {
            let (l, r) = buildings.split_at(n / 2);
            merge_skylines(&sequential_skyline(l), &sequential_skyline(r))
        }
    }
}

/// Clip a skyline to the half-open range `[a, b)`: the points inside the
/// range plus, when `a` is finite, a point fixing the height active at `a`.
pub fn clip_skyline(sky: &[SkyPoint], a: f64, b: f64) -> Vec<SkyPoint> {
    let mut out = Vec::new();
    if a.is_finite() {
        // Height in force at position `a`: the last change at x <= a.
        let idx = sky.partition_point(|p| p.x <= a);
        let h = if idx == 0 { 0.0 } else { sky[idx - 1].h };
        out.push(SkyPoint::new(a, h));
    }
    out.extend(sky.iter().copied().filter(|p| p.x > a && p.x < b));
    canonicalize_skyline(&out)
}

/// The one-deep skyline algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct OneDeepSkyline;

impl OneDeep for OneDeepSkyline {
    type In = Vec<Building>;
    type Mid = Vec<SkyPoint>;
    type Out = Vec<SkyPoint>;
    type SplitParams = ();
    type MergeParams = Vec<f64>; // the vertical splitter lines
    type SplitSample = ();
    type MergeSample = (f64, f64); // (leftmost, rightmost) of the local skyline

    // Degenerate split.
    fn split_sample(&self, _local: &Vec<Building>) {}
    fn split_params(&self, _samples: &[()], _nparts: usize) {}
    fn split_partition(
        &self,
        local: Vec<Building>,
        _p: &(),
        nparts: usize,
        self_idx: usize,
    ) -> Vec<Vec<Building>> {
        let mut out: Vec<Vec<Building>> = (0..nparts).map(|_| Vec::new()).collect();
        out[self_idx] = local;
        out
    }
    fn split_assemble(&self, pieces: Vec<Vec<Building>>) -> Vec<Building> {
        concat(pieces)
    }

    fn solve(&self, local: Vec<Building>) -> Vec<SkyPoint> {
        sequential_skyline(&local)
    }

    // "Sample the data locally … find the leftmost and the rightmost
    // points of each local skyline."
    fn merge_sample(&self, local: &Vec<SkyPoint>) -> (f64, f64) {
        match (local.first(), local.last()) {
            (Some(f), Some(l)) => (f.x, l.x),
            _ => (f64::INFINITY, f64::NEG_INFINITY),
        }
    }

    // "Compute splitters, which are the locations of vertical lines that
    // cut all local skylines into N regions."
    fn merge_params(&self, samples: &[(f64, f64)], nparts: usize) -> Vec<f64> {
        let lo = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
        let hi = samples
            .iter()
            .map(|s| s.1)
            .fold(f64::NEG_INFINITY, f64::max);
        if nparts <= 1 || !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return vec![f64::INFINITY; nparts.saturating_sub(1)];
        }
        (1..nparts)
            .map(|i| lo + (hi - lo) * i as f64 / nparts as f64)
            .collect()
    }

    // "Use these splitters to split each skyline into N adjacent regions."
    fn merge_partition(
        &self,
        local: Vec<SkyPoint>,
        splitters: &Vec<f64>,
        nparts: usize,
        _self_idx: usize,
    ) -> Vec<Vec<SkyPoint>> {
        let mut out = Vec::with_capacity(nparts);
        let mut lo = f64::NEG_INFINITY;
        for d in 0..nparts {
            let hi = if d < splitters.len() {
                splitters[d]
            } else {
                f64::INFINITY
            };
            out.push(clip_skyline(&local, lo, hi));
            lo = hi;
        }
        out
    }

    // "In each process combine the buildings using the merge algorithm
    // from the sequential algorithm."
    fn merge_assemble(&self, pieces: Vec<Vec<SkyPoint>>) -> Vec<SkyPoint> {
        let mut acc: Vec<SkyPoint> = Vec::new();
        for p in pieces {
            acc = merge_skylines(&acc, &p);
        }
        acc
    }

    // ---- cost model --------------------------------------------------------
    fn solve_cost(&self, local: &Vec<Building>) -> f64 {
        let n = local.len().max(1) as f64;
        8.0 * n * n.log2().max(1.0)
    }
    fn merge_partition_cost(&self, local: &Vec<SkyPoint>) -> f64 {
        2.0 * local.len() as f64
    }
    fn merge_assemble_cost(&self, pieces: &[Vec<SkyPoint>]) -> f64 {
        4.0 * pieces.iter().map(Vec::len).sum::<usize>() as f64
    }
}

/// Concatenate per-process skyline blocks into the global skyline.
pub fn concat_skyline(blocks: &[Vec<SkyPoint>]) -> Vec<SkyPoint> {
    let all: Vec<SkyPoint> = blocks.iter().flatten().copied().collect();
    canonicalize_skyline(&all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_shared, run_spmd};
    use archetype_mp::{run_spmd as mp_run, MachineModel};

    fn b(l: f64, h: f64, r: f64) -> Building {
        Building::new(l, h, r)
    }

    #[test]
    fn single_building_skyline() {
        let sky = sequential_skyline(&[b(1.0, 5.0, 3.0)]);
        assert_eq!(sky, vec![SkyPoint::new(1.0, 5.0), SkyPoint::new(3.0, 0.0)]);
    }

    #[test]
    fn classic_textbook_case() {
        // The canonical LeetCode-style example.
        let buildings = [
            b(2.0, 10.0, 9.0),
            b(3.0, 15.0, 7.0),
            b(5.0, 12.0, 12.0),
            b(15.0, 10.0, 20.0),
            b(19.0, 8.0, 24.0),
        ];
        let sky = sequential_skyline(&buildings);
        let expected = vec![
            SkyPoint::new(2.0, 10.0),
            SkyPoint::new(3.0, 15.0),
            SkyPoint::new(7.0, 12.0),
            SkyPoint::new(12.0, 0.0),
            SkyPoint::new(15.0, 10.0),
            SkyPoint::new(20.0, 8.0),
            SkyPoint::new(24.0, 0.0),
        ];
        assert_eq!(sky, expected);
    }

    #[test]
    fn overlapping_equal_heights_fuse() {
        let sky = sequential_skyline(&[b(0.0, 4.0, 2.0), b(1.0, 4.0, 3.0)]);
        assert_eq!(sky, vec![SkyPoint::new(0.0, 4.0), SkyPoint::new(3.0, 0.0)]);
    }

    #[test]
    fn merge_handles_persistent_heights() {
        // A piece ending at positive height must keep dominating.
        let a = vec![SkyPoint::new(0.0, 5.0)]; // height 5 forever after 0
        let b_ = vec![SkyPoint::new(1.0, 2.0), SkyPoint::new(2.0, 0.0)];
        let m = merge_skylines(&a, &b_);
        assert_eq!(m, vec![SkyPoint::new(0.0, 5.0)]);
    }

    #[test]
    fn clip_inserts_boundary_height() {
        let sky = vec![SkyPoint::new(0.0, 5.0), SkyPoint::new(10.0, 0.0)];
        let piece = clip_skyline(&sky, 4.0, 8.0);
        assert_eq!(piece, vec![SkyPoint::new(4.0, 5.0)]);
        let piece2 = clip_skyline(&sky, -100.0, 5.0);
        assert_eq!(piece2, vec![SkyPoint::new(0.0, 5.0)]);
    }

    fn building_blocks(nblocks: usize, per: usize) -> Vec<Vec<Building>> {
        (0..nblocks)
            .map(|k| {
                (0..per)
                    .map(|i| {
                        let seed = (k * per + i) as f64;
                        let left = (seed * 7.3) % 100.0;
                        let width = 1.0 + (seed * 3.1) % 9.0;
                        let height = 1.0 + (seed * 5.7) % 50.0;
                        b(left, height, left + width)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn one_deep_matches_sequential() {
        for n in [1usize, 2, 4, 6] {
            let input = building_blocks(n, 60);
            let all: Vec<Building> = input.iter().flatten().copied().collect();
            let expected = sequential_skyline(&all);
            let out = run_shared(&OneDeepSkyline, input);
            assert_eq!(concat_skyline(&out), expected, "n={n}");
        }
    }

    #[test]
    fn modes_and_spmd_agree() {
        let input = building_blocks(4, 40);
        let all: Vec<Building> = input.iter().flatten().copied().collect();
        let expected = sequential_skyline(&all);
        let seq = run_shared(&OneDeepSkyline, input.clone());
        let spmd = mp_run(4, MachineModel::ibm_sp(), |ctx| {
            run_spmd(&OneDeepSkyline, ctx, input[ctx.rank()].clone())
        });
        assert_eq!(seq, spmd.results);
        assert_eq!(concat_skyline(&spmd.results), expected);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let out = run_shared(&OneDeepSkyline, vec![vec![], vec![]]);
        assert!(concat_skyline(&out).is_empty());

        let one = vec![vec![b(0.0, 1.0, 1.0)], vec![]];
        let out = run_shared(&OneDeepSkyline, one);
        assert_eq!(
            concat_skyline(&out),
            vec![SkyPoint::new(0.0, 1.0), SkyPoint::new(1.0, 0.0)]
        );
    }

    #[test]
    fn disjoint_towers_across_processes() {
        // Buildings that do not overlap at all across processes.
        let input = vec![
            vec![b(0.0, 3.0, 1.0)],
            vec![b(10.0, 7.0, 11.0)],
            vec![b(20.0, 1.0, 21.0)],
        ];
        let all: Vec<Building> = input.iter().flatten().copied().collect();
        let expected = sequential_skyline(&all);
        let out = run_shared(&OneDeepSkyline, input);
        assert_eq!(concat_skyline(&out), expected);
    }
}
