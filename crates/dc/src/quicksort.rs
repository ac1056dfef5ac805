//! One-deep quicksort (paper §2.5.2): the mirror image of one-deep
//! mergesort — a **non-trivial split** phase (select `N−1` pivots by
//! sampling and partition the *unsorted* data into key ranges) and a
//! **degenerate merge** ("the final sorted list is the concatenation of
//! the local lists").

use std::marker::PhantomData;

use crate::mergesort::{concat, SortItem};
use crate::skeleton::OneDeep;
use crate::traditional::sort_flops;

/// The one-deep quicksort algorithm. `oversample` controls pivot quality
/// exactly as in [`crate::mergesort::OneDeepMergesort`].
pub struct OneDeepQuicksort<T> {
    /// Samples per process used to compute pivots.
    pub oversample: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> OneDeepQuicksort<T> {
    /// With the default oversampling factor (8 samples per process).
    pub fn new() -> Self {
        Self::with_oversample(8)
    }

    /// With an explicit oversampling factor (≥ 1).
    pub fn with_oversample(oversample: usize) -> Self {
        assert!(oversample >= 1);
        OneDeepQuicksort {
            oversample,
            _marker: PhantomData,
        }
    }
}

impl<T> Default for OneDeepQuicksort<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Evenly spaced sample of up to `k` elements of *unsorted* data.
pub(crate) fn sample_unsorted<T: Copy>(data: &[T], k: usize) -> Vec<T> {
    if data.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(data.len());
    (0..k)
        .map(|i| data[((2 * i + 1) * data.len()) / (2 * k)])
        .collect()
}

/// The sample → sort → splitter → bucket divide shared by the recursive
/// quicksort and closest-pair applications: take `oversample · k`
/// evenly spaced samples, sort their keys, pick `k − 1` splitters, and
/// partition the data into `k` key ranges with one binary search per
/// element. The strict `<` in the bucketing puts every key equal to a
/// splitter in the splitter's own bucket, so buckets are disjoint,
/// increasing key ranges — an invariant the closest-pair combine's
/// slab-boundary strips rely on.
pub(crate) fn bucket_by_sampled_splitters<T, K, F>(
    data: Vec<T>,
    k: usize,
    oversample: usize,
    key: F,
) -> Vec<Vec<T>>
where
    T: Copy,
    K: PartialOrd + Copy,
    F: Fn(&T) -> K,
{
    let mut samples: Vec<K> = sample_unsorted(&data, oversample.max(1) * k)
        .iter()
        .map(&key)
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("comparable keys"));
    let splitters: Vec<K> = if samples.is_empty() {
        Vec::new()
    } else {
        (1..k).map(|i| samples[(i * samples.len()) / k]).collect()
    };
    let mut out: Vec<Vec<T>> = (0..k).map(|_| Vec::new()).collect();
    for v in data {
        let kv = key(&v);
        let bucket = splitters.partition_point(|s| *s < kv);
        out[bucket].push(v);
    }
    out
}

impl<T: SortItem> OneDeep for OneDeepQuicksort<T> {
    type In = Vec<T>;
    type Mid = Vec<T>;
    type Out = Vec<T>;
    type SplitParams = Vec<T>; // the N−1 pivots
    type MergeParams = ();
    type SplitSample = Vec<T>;
    type MergeSample = ();

    fn split_sample(&self, local: &Vec<T>) -> Vec<T> {
        sample_unsorted(local, self.oversample)
    }

    fn split_params(&self, samples: &[Vec<T>], nparts: usize) -> Vec<T> {
        let mut all: Vec<T> = samples.iter().flatten().copied().collect();
        all.sort_unstable();
        if all.is_empty() || nparts <= 1 {
            return Vec::new();
        }
        (1..nparts).map(|i| all[(i * all.len()) / nparts]).collect()
    }

    fn split_partition(
        &self,
        local: Vec<T>,
        pivots: &Vec<T>,
        nparts: usize,
        _self_idx: usize,
    ) -> Vec<Vec<T>> {
        // "partitions data into segments P_1 … P_N such that data in
        // segment P_i is between p_i and p_{i+1}".
        let mut out: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
        for v in local {
            let bucket = pivots.partition_point(|p| *p < v);
            out[bucket].push(v);
        }
        out
    }

    fn split_assemble(&self, pieces: Vec<Vec<T>>) -> Vec<T> {
        concat(pieces)
    }

    fn solve(&self, mut local: Vec<T>) -> Vec<T> {
        local.sort_unstable();
        local
    }

    // Degenerate merge: concatenation of the local lists.
    fn merge_sample(&self, _local: &Vec<T>) {}
    fn merge_params(&self, _samples: &[()], _nparts: usize) {}
    fn merge_partition(
        &self,
        local: Vec<T>,
        _params: &(),
        nparts: usize,
        self_idx: usize,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..nparts).map(|_| Vec::new()).collect();
        out[self_idx] = local;
        out
    }
    fn merge_assemble(&self, pieces: Vec<Vec<T>>) -> Vec<T> {
        concat(pieces)
    }

    // ---- cost model --------------------------------------------------------
    fn split_cost(&self, local: &Vec<T>) -> f64 {
        // One binary search over the pivots per element.
        2.0 * local.len() as f64
    }
    fn params_cost(&self, nparts: usize) -> f64 {
        sort_flops(nparts * self.oversample)
    }
    fn solve_cost(&self, local: &Vec<T>) -> f64 {
        sort_flops(local.len())
    }
}

/// Quicksort in general recursive divide-and-conquer form
/// ([`crate::recursive::Recursive`]): divide by sampling `k − 1` pivots
/// and bucketing the *unsorted* data into key ranges, sort sequentially
/// at the cutoff, and combine by concatenation (the degenerate merge).
/// The bucket boundaries depend only on the data, so any recursion shape
/// produces the identical sorted vector.
pub struct RecursiveQuicksort<T> {
    /// Samples per pivot used when dividing (≥ 1).
    pub oversample: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> RecursiveQuicksort<T> {
    /// With the default oversampling factor (8 samples per pivot).
    pub fn new() -> Self {
        Self::with_oversample(8)
    }

    /// With an explicit oversampling factor (≥ 1).
    pub fn with_oversample(oversample: usize) -> Self {
        assert!(oversample >= 1);
        RecursiveQuicksort {
            oversample,
            _marker: PhantomData,
        }
    }
}

impl<T> Default for RecursiveQuicksort<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SortItem> crate::recursive::Recursive for RecursiveQuicksort<T> {
    type Problem = Vec<T>;
    type Solution = Vec<T>;

    fn size(&self, p: &Vec<T>) -> usize {
        p.len()
    }

    fn divide(&self, p: Vec<T>, k: usize) -> Vec<Vec<T>> {
        bucket_by_sampled_splitters(p, k, self.oversample, |v| *v)
    }

    fn solve(&self, mut p: Vec<T>) -> Vec<T> {
        p.sort_unstable();
        p
    }

    fn combine(&self, parts: Vec<Vec<T>>) -> Vec<T> {
        concat(parts)
    }

    // ---- cost model ------------------------------------------------------
    fn divide_cost(&self, p: &Vec<T>) -> f64 {
        // Pivot sort plus one binary search per element.
        sort_flops(self.oversample) + 2.0 * p.len() as f64
    }
    fn solve_cost(&self, p: &Vec<T>) -> f64 {
        sort_flops(p.len())
    }
    fn combine_cost(&self, parts: &[Vec<T>]) -> f64 {
        parts.iter().map(Vec::len).sum::<usize>() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_shared, run_spmd};
    use archetype_mp::{run_spmd as mp_run, run_spmd_with, MachineModel, RunConfig};

    fn blocks(nblocks: usize, per: usize) -> Vec<Vec<i64>> {
        (0..nblocks)
            .map(|b| {
                (0..per)
                    .map(|i| ((b * per + i) as i64 * 16807) % 65521 - 32000)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sorts_with_plain_concatenation_merge() {
        let alg = OneDeepQuicksort::<i64>::new();
        for n in [1usize, 2, 5, 8] {
            let input = blocks(n, 400);
            let mut expected: Vec<i64> = input.iter().flatten().copied().collect();
            expected.sort_unstable();
            let out = run_shared(&alg, input);
            let flat: Vec<i64> = out.iter().flatten().copied().collect();
            assert_eq!(flat, expected, "n={n}");
            // Degenerate merge means blocks are already disjoint key ranges.
            for w in out.windows(2) {
                if let (Some(a), Some(b)) = (w[0].last(), w[1].first()) {
                    assert!(a <= b);
                }
            }
        }
    }

    #[test]
    fn modes_and_spmd_agree() {
        let input = blocks(4, 300);
        let alg = OneDeepQuicksort::<i64>::new();
        let seq = run_shared(&alg, input.clone());
        let spmd = mp_run(4, MachineModel::ibm_sp(), |ctx| {
            let alg = OneDeepQuicksort::<i64>::new();
            run_spmd(&alg, ctx, input[ctx.rank()].clone())
        });
        assert_eq!(seq, spmd.results);
    }

    #[test]
    fn all_equal_keys_do_not_break_partitioning() {
        let alg = OneDeepQuicksort::<i64>::new();
        let input = vec![vec![7; 100], vec![7; 100], vec![7; 100]];
        let out = run_shared(&alg, input);
        let flat: Vec<i64> = out.iter().flatten().copied().collect();
        assert_eq!(flat, vec![7; 300]);
    }

    #[test]
    fn trace_shows_nontrivial_split_then_degenerate_merge() {
        use archetype_core::PhaseKind::{self, Merge, Solve, Split};
        let alg = OneDeepQuicksort::<i64>::new();
        let input = blocks(3, 50);
        let out = run_spmd_with(3, MachineModel::ibm_sp(), RunConfig::traced(), |ctx| {
            run_spmd(&alg, ctx, input[ctx.rank()].clone())
        });
        for rt in &out.trace.expect("traced run").ranks {
            let kinds: Vec<PhaseKind> = rt.phases().unwrap().iter().map(|&(k, _)| k).collect();
            assert_eq!(kinds, [Split, Solve, Merge], "rank {}", rt.rank);
        }
    }

    #[test]
    fn recursive_quicksort_matches_oracles_at_every_depth() {
        use crate::recursive::{run_shared as run_rec, run_spmd_recursive, CutoffPolicy};
        let input: Vec<i64> = blocks(1, 500).pop().unwrap();
        let mut expected = input.clone();
        expected.sort_unstable();
        for depth in 0..4 {
            let got = run_rec(
                &RecursiveQuicksort::<i64>::new(),
                input.clone(),
                &CutoffPolicy::exact_depth(depth, 3),
            );
            assert_eq!(got, expected, "depth={depth}");
        }
        let inp = input.clone();
        let out = mp_run(5, MachineModel::ibm_sp(), move |ctx| {
            let local = (ctx.rank() == 0).then(|| inp.clone());
            run_spmd_recursive(
                &RecursiveQuicksort::<i64>::new(),
                ctx,
                local,
                &CutoffPolicy::exact_depth(3, 2),
                None,
            )
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &expected);
    }

    #[test]
    fn recursive_quicksort_survives_all_equal_keys() {
        use crate::recursive::{run_shared as run_rec, CutoffPolicy};
        // Every element lands in one bucket; the depth cap terminates the
        // recursion and the answer is still correct.
        let got = run_rec(
            &RecursiveQuicksort::<i64>::new(),
            vec![7i64; 200],
            &CutoffPolicy::exact_depth(5, 2),
        );
        assert_eq!(got, vec![7i64; 200]);
    }

    #[test]
    fn empty_blocks_are_fine() {
        let alg = OneDeepQuicksort::<i64>::new();
        let input = vec![vec![], vec![3, 1, 2], vec![]];
        let out = run_shared(&alg, input);
        let flat: Vec<i64> = out.iter().flatten().copied().collect();
        assert_eq!(flat, vec![1, 2, 3]);
    }
}
