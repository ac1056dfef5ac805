//! One-deep mergesort (paper §2.4, Figures 4–5) — the archetype's primary
//! application, plus the sequential reference algorithm.
//!
//! The one-deep version:
//! - **split** is degenerate ("the initial distribution of data among
//!   processes is taken to be the split");
//! - **solve** sorts each local block with an efficient sequential sort;
//! - **merge** computes `N−1` splitters from regularly sampled local data
//!   (parallel sorting by regular sampling, the paper's cited approach),
//!   splits each local sorted run at the splitters, redistributes the
//!   sublists all-to-all so process `i` receives every element in the
//!   `i`-th key range, and merges the received sorted runs locally.
//!
//! After the algorithm, process `i`'s block is sorted and entirely between
//! its neighbours' blocks, so the concatenation of blocks is sorted.
//!
//! Every merge here is [`merge_two`]: it writes into its left run's
//! buffer from the back. The recursive form's divide splits the tails
//! off, so the first part keeps the whole buffer of the problem it came
//! from and each combine merges into memory that is already there.

use std::marker::PhantomData;

use archetype_mp::FixedSize;

use crate::skeleton::OneDeep;
use crate::traditional::{merge_flops, merge_two, sort_flops};

/// Elements sortable by the one-deep mergesort: POD, totally ordered.
pub trait SortItem: FixedSize + Ord + Send + Sync {}
impl<T: FixedSize + Ord + Send + Sync> SortItem for T {}

/// The one-deep mergesort algorithm.
///
/// `oversample` is the number of regular samples taken per process for
/// splitter computation; `nparts · oversample` samples are sorted
/// centrally (replicated), from which `nparts − 1` splitters are chosen.
/// Larger values balance better at slightly higher parameter cost.
pub struct OneDeepMergesort<T> {
    /// Samples per process used to compute splitters.
    pub oversample: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> OneDeepMergesort<T> {
    /// With the default oversampling factor (8 samples per process).
    pub fn new() -> Self {
        Self::with_oversample(8)
    }

    /// With an explicit oversampling factor (≥ 1).
    pub fn with_oversample(oversample: usize) -> Self {
        assert!(oversample >= 1);
        OneDeepMergesort {
            oversample,
            _marker: PhantomData,
        }
    }
}

impl<T> Default for OneDeepMergesort<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Evenly spaced sample of `k` elements from a slice (fewer if the slice
/// is shorter).
fn regular_sample<T: Copy>(data: &[T], k: usize) -> Vec<T> {
    if data.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(data.len());
    // Midpoints of k equal strata: index (2i+1)·len / 2k < len.
    (0..k)
        .map(|i| data[((2 * i + 1) * data.len()) / (2 * k)])
        .collect()
}

/// Merge `k` sorted runs into one sorted vector (tournament by repeated
/// pairwise merging, `O(n log k)`), stably: equal keys keep the order of
/// their runs. Each pair merges into its left run's buffer
/// ([`merge_two`]).
pub fn merge_k<T: Ord>(mut runs: Vec<Vec<T>>) -> Vec<T> {
    runs.retain(|r| !r.is_empty());
    if runs.is_empty() {
        return Vec::new();
    }
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_two(a, b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().expect("one run remains")
}

impl<T: SortItem> OneDeep for OneDeepMergesort<T> {
    type In = Vec<T>;
    type Mid = Vec<T>;
    type Out = Vec<T>;
    type SplitParams = ();
    type MergeParams = Vec<T>;
    type SplitSample = ();
    type MergeSample = Vec<T>;

    // Degenerate split: the initial distribution *is* the split.
    fn split_sample(&self, _local: &Vec<T>) {}
    fn split_params(&self, _samples: &[()], _nparts: usize) {}
    fn split_partition(
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
    fn split_assemble(&self, pieces: Vec<Vec<T>>) -> Vec<T> {
        concat(pieces)
    }

    fn solve(&self, mut local: Vec<T>) -> Vec<T> {
        local.sort_unstable();
        local
    }

    fn merge_sample(&self, local: &Vec<T>) -> Vec<T> {
        regular_sample(local, self.oversample)
    }

    fn merge_params(&self, samples: &[Vec<T>], nparts: usize) -> Vec<T> {
        let mut all: Vec<T> = samples.iter().flatten().copied().collect();
        all.sort_unstable();
        if all.is_empty() || nparts <= 1 {
            return Vec::new();
        }
        (1..nparts).map(|i| all[(i * all.len()) / nparts]).collect()
    }

    fn merge_partition(
        &self,
        local: Vec<T>,
        splitters: &Vec<T>,
        nparts: usize,
        _self_idx: usize,
    ) -> Vec<Vec<T>> {
        // local is sorted; cut it at the splitters with binary search.
        let mut out: Vec<Vec<T>> = Vec::with_capacity(nparts);
        let mut rest = local;
        for s in splitters {
            let cut = rest.partition_point(|v| v <= s);
            let tail = rest.split_off(cut);
            out.push(rest);
            rest = tail;
        }
        out.push(rest);
        while out.len() < nparts {
            out.push(Vec::new());
        }
        out
    }

    fn merge_assemble(&self, pieces: Vec<Vec<T>>) -> Vec<T> {
        merge_k(pieces)
    }

    // ---- cost model (Figure 6) -------------------------------------------
    fn solve_cost(&self, local: &Vec<T>) -> f64 {
        sort_flops(local.len())
    }
    fn params_cost(&self, nparts: usize) -> f64 {
        sort_flops(nparts * self.oversample)
    }
    fn merge_partition_cost(&self, local: &Vec<T>) -> f64 {
        // binary searches + split bookkeeping: ~log n per splitter plus
        // linear repacking.
        local.len() as f64
    }
    fn merge_assemble_cost(&self, pieces: &[Vec<T>]) -> f64 {
        let total: usize = pieces.iter().map(Vec::len).sum();
        let k = pieces.iter().filter(|p| !p.is_empty()).count().max(1);
        merge_flops(total) * (k as f64).log2().max(1.0)
    }
}

/// Mergesort in general recursive divide-and-conquer form
/// ([`crate::recursive::Recursive`]): divide a block positionally into
/// `k` balanced chunks, sort chunks sequentially at the cutoff, and
/// `k`-way-merge subsolutions up the combining tree; with `k = 2` no
/// combine allocates, since the first chunk keeps the divided block's
/// buffer and the merge writes there. Depth-insensitive by
/// construction — any recursion shape yields the identical sorted vector
/// — so it matches [`OneDeepMergesort`] and [`sequential_mergesort`] as
/// oracles at every depth and rank count.
pub struct RecursiveMergesort<T> {
    _marker: PhantomData<fn() -> T>,
}

impl<T> RecursiveMergesort<T> {
    /// Construct the algorithm (it has no tuning parameters: the divide
    /// is positional, so no sampling is involved).
    pub fn new() -> Self {
        RecursiveMergesort {
            _marker: PhantomData,
        }
    }
}

impl<T> Default for RecursiveMergesort<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Concatenate `pieces` in order into the first non-empty one's buffer,
/// grown once for the rest; where `flatten().collect()` starts from a
/// zero size hint and regrows by doubling.
pub(crate) fn concat<T>(pieces: Vec<Vec<T>>) -> Vec<T> {
    let total: usize = pieces.iter().map(Vec::len).sum();
    let mut pieces = pieces.into_iter().skip_while(Vec::is_empty);
    let mut out = pieces.next().unwrap_or_default();
    out.reserve_exact(total - out.len());
    for mut piece in pieces {
        out.append(&mut piece);
    }
    out
}

/// Split a vector positionally into `k` balanced contiguous chunks. The
/// tails are split off, so the first chunk keeps the whole input buffer
/// and a merge into it ([`merge_two`]) needs no new memory.
pub(crate) fn chunk_evenly<T>(mut data: Vec<T>, k: usize) -> Vec<Vec<T>> {
    let n = data.len();
    let mut out = Vec::with_capacity(k);
    for j in (1..k).rev() {
        let (start, _) = archetype_mp::topology::block_range(n, k, j);
        out.push(data.split_off(start));
    }
    out.push(data);
    out.reverse();
    out
}

impl<T: SortItem> crate::recursive::Recursive for RecursiveMergesort<T> {
    type Problem = Vec<T>;
    type Solution = Vec<T>;

    fn size(&self, p: &Vec<T>) -> usize {
        p.len()
    }

    fn divide(&self, p: Vec<T>, k: usize) -> Vec<Vec<T>> {
        chunk_evenly(p, k)
    }

    fn solve(&self, mut p: Vec<T>) -> Vec<T> {
        p.sort_unstable();
        p
    }

    fn combine(&self, parts: Vec<Vec<T>>) -> Vec<T> {
        merge_k(parts)
    }

    // ---- cost model ------------------------------------------------------
    fn divide_cost(&self, p: &Vec<T>) -> f64 {
        // The split inspects/copies the whole block (the paper's first
        // inefficiency of the traditional structure).
        p.len() as f64
    }
    fn solve_cost(&self, p: &Vec<T>) -> f64 {
        sort_flops(p.len())
    }
    fn combine_cost(&self, parts: &[Vec<T>]) -> f64 {
        let total: usize = parts.iter().map(Vec::len).sum();
        let k = parts.iter().filter(|p| !p.is_empty()).count().max(1);
        merge_flops(total) * (k as f64).log2().max(1.0)
    }
}

/// Sequential mergesort — the baseline all Figure 6 speedups are relative
/// to, and the reference implementation in correctness tests. It is the
/// standard library's stable [`slice::sort`], itself a merge sort, and
/// the fastest sequential one known here: a hand-written top-down kernel
/// (leaf cut-off to `sort`, merges through one scratch buffer) took 51 ms
/// on 2²⁰ random `i64` where this takes 30. Stable, so the output equals
/// `Vec::sort`'s element for element.
pub fn sequential_mergesort<T: Ord>(mut data: Vec<T>) -> Vec<T> {
    data.sort();
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::{run_shared, run_spmd};
    use archetype_core::ExecutionMode;
    use archetype_mp::{run_spmd as mp_run, MachineModel};

    fn blocks(nblocks: usize, per: usize) -> Vec<Vec<i64>> {
        (0..nblocks)
            .map(|b| {
                (0..per)
                    .map(|i| ((b * per + i) as i64 * 48271) % 99991 - 50000)
                    .collect()
            })
            .collect()
    }

    fn flat_sorted(blocks: &[Vec<i64>]) -> Vec<i64> {
        let mut all: Vec<i64> = blocks.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn sequential_mergesort_sorts() {
        let input = blocks(1, 1234).pop().unwrap();
        let mut expected = input.clone();
        expected.sort_unstable();
        assert_eq!(sequential_mergesort(input), expected);
        assert_eq!(sequential_mergesort(Vec::<i64>::new()), vec![]);
        assert_eq!(sequential_mergesort(vec![5]), vec![5]);
    }

    #[test]
    fn sequential_mergesort_is_the_stable_sort() {
        use crate::traditional::tests::{keyed, origins};
        // Few distinct keys, so ties are everywhere; short and long
        // inputs, odd lengths included.
        for n in [1, 20, 4097, 8195, 20_479] {
            let keys: Vec<u8> = (0..n as u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 27) as u8)
                .collect();
            let input = keyed('x', &keys);
            let mut expected = input.clone();
            expected.sort();
            let got = sequential_mergesort(input);
            assert!(origins(&got) == origins(&expected), "n={n}");
        }
    }

    #[test]
    fn merge_k_merges_many_runs() {
        let runs = vec![vec![1, 5, 9], vec![2, 6], vec![], vec![3, 4, 7, 8]];
        assert_eq!(merge_k(runs), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(merge_k(Vec::<Vec<i32>>::new()), Vec::<i32>::new());
    }

    #[test]
    fn merge_k_is_stable_over_three_to_five_runs() {
        use crate::traditional::tests::{keyed, origins};
        let runs: [&[u8]; 5] = [&[1, 2, 2, 7], &[0, 2, 7, 7], &[2, 2], &[], &[1, 7, 9]];
        for k in 3..=5 {
            let runs: Vec<_> = runs[..k]
                .iter()
                .zip("abcde".chars())
                .map(|(keys, side)| keyed(side, keys))
                .collect();
            let mut expected: Vec<_> = runs.iter().flatten().copied().collect();
            expected.sort();
            assert_eq!(origins(&merge_k(runs)), origins(&expected), "k={k}");
        }
    }

    #[test]
    fn concat_keeps_order_and_the_first_non_empty_buffer() {
        let mut first = Vec::with_capacity(6);
        first.extend([1, 2, 3]);
        let ptr = first.as_ptr();
        let out = concat(vec![vec![], first, vec![], vec![4], vec![5, 6]]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(out.as_ptr(), ptr, "appended in place");
        let lone = vec![7, 8];
        let ptr = lone.as_ptr();
        let out = concat(vec![vec![], lone, vec![]]);
        assert_eq!(out.as_ptr(), ptr, "a lone piece is moved, not copied");
        assert!(concat(Vec::<Vec<i32>>::new()).is_empty());
        assert!(concat(vec![Vec::<i32>::new(); 3]).is_empty());
    }

    #[test]
    fn one_deep_sorts_and_blocks_are_ordered() {
        let alg = OneDeepMergesort::<i64>::new();
        for n in [1usize, 2, 4, 7] {
            let input = blocks(n, 500);
            let expected = flat_sorted(&input);
            let out = run_shared(&alg, input, ExecutionMode::Sequential, None);
            // Concatenation is the sorted array...
            let flat: Vec<i64> = out.iter().flatten().copied().collect();
            assert_eq!(flat, expected, "n={n}");
            // ...and each block is itself sorted ("process i's list is
            // larger than process i-1's and smaller than process i+1's").
            for w in out.windows(2) {
                if let (Some(a), Some(b)) = (w[0].last(), w[1].first()) {
                    assert!(a <= b);
                }
            }
        }
    }

    #[test]
    fn version1_sequential_equals_parallel() {
        let alg = OneDeepMergesort::<i64>::new();
        let seq = run_shared(&alg, blocks(6, 333), ExecutionMode::Sequential, None);
        let par = run_shared(&alg, blocks(6, 333), ExecutionMode::Parallel, None);
        assert_eq!(seq, par);
    }

    #[test]
    fn version2_spmd_equals_version1() {
        let alg = OneDeepMergesort::<i64>::new();
        for n in [1usize, 3, 4, 8] {
            let input = blocks(n, 250);
            let shared = run_shared(&alg, input.clone(), ExecutionMode::Sequential, None);
            let out = mp_run(n, MachineModel::ibm_sp(), |ctx| {
                let alg = OneDeepMergesort::<i64>::new();
                run_spmd(&alg, ctx, input[ctx.rank()].clone())
            });
            assert_eq!(shared, out.results, "n={n}");
        }
    }

    #[test]
    fn uneven_blocks_still_sort() {
        let alg = OneDeepMergesort::<i64>::new();
        let input = vec![vec![5, 3, 1], vec![], vec![9, 9, 9, 9, 2, 0, -7]];
        let expected = flat_sorted(&input);
        let out = run_shared(&alg, input, ExecutionMode::Parallel, None);
        let flat: Vec<i64> = out.iter().flatten().copied().collect();
        assert_eq!(flat, expected);
    }

    #[test]
    fn duplicates_are_preserved() {
        let alg = OneDeepMergesort::<i64>::new();
        let input = vec![vec![2, 2, 2, 2], vec![2, 2, 1, 3]];
        let out = run_shared(&alg, input, ExecutionMode::Sequential, None);
        let flat: Vec<i64> = out.iter().flatten().copied().collect();
        assert_eq!(flat, vec![1, 2, 2, 2, 2, 2, 2, 3]);
    }

    #[test]
    fn oversampling_improves_balance() {
        // With heavy oversampling, block sizes should be near n/P for
        // uniform-ish data.
        let alg = OneDeepMergesort::<i64>::with_oversample(64);
        let n = 8;
        let per = 2000;
        let out = run_shared(&alg, blocks(n, per), ExecutionMode::Parallel, None);
        let sizes: Vec<usize> = out.iter().map(Vec::len).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(
            max < 2.0 * per as f64,
            "largest block {max} should be < 2x ideal {per}"
        );
    }

    #[test]
    fn recursive_mergesort_matches_oracles_at_every_depth() {
        use crate::recursive::{run_shared as run_rec, CutoffPolicy};
        let input: Vec<i64> = blocks(1, 700).pop().unwrap();
        let expected = sequential_mergesort(input.clone());
        for depth in 0..4 {
            for k in [2usize, 3] {
                let got = run_rec(
                    &RecursiveMergesort::<i64>::new(),
                    input.clone(),
                    &CutoffPolicy::exact_depth(depth, k),
                    ExecutionMode::Sequential,
                    None,
                );
                assert_eq!(got, expected, "depth={depth} k={k}");
            }
        }
    }

    #[test]
    fn recursive_mergesort_spmd_matches_one_deep() {
        use crate::recursive::{run_spmd_recursive, CutoffPolicy};
        let input: Vec<i64> = blocks(1, 600).pop().unwrap();
        let expected = sequential_mergesort(input.clone());
        for p in [1usize, 4, 8] {
            let inp = input.clone();
            let out = mp_run(p, MachineModel::ibm_sp(), move |ctx| {
                let local = (ctx.rank() == 0).then(|| inp.clone());
                run_spmd_recursive(
                    &RecursiveMergesort::<i64>::new(),
                    ctx,
                    local,
                    &CutoffPolicy::exact_depth(4, 2),
                    None,
                )
            });
            assert_eq!(out.results[0].as_ref().unwrap(), &expected, "p={p}");
        }
    }

    #[test]
    fn chunk_evenly_is_balanced_and_order_preserving() {
        let v: Vec<i64> = (0..10).collect();
        let chunks = chunk_evenly(v.clone(), 3);
        assert_eq!(chunks.len(), 3);
        let flat: Vec<i64> = chunks.iter().flatten().copied().collect();
        assert_eq!(flat, v);
        assert!(chunks.iter().all(|c| (3..=4).contains(&c.len())));
        // Degenerate shapes.
        assert_eq!(chunk_evenly(Vec::<i64>::new(), 4), vec![vec![]; 4]);
        let single = chunk_evenly(vec![9i64], 3);
        assert_eq!(single.iter().flatten().count(), 1);
    }

    #[test]
    fn one_deep_beats_traditional_in_virtual_time() {
        // The headline claim of Figure 6 in miniature.
        use crate::traditional::tree_mergesort_spmd;
        let p = 16;
        let per = 4000;
        let input = blocks(p, per);
        let flat: Vec<i64> = input.iter().flatten().copied().collect();

        let t_onedeep = mp_run(p, MachineModel::intel_delta(), |ctx| {
            let alg = OneDeepMergesort::<i64>::new();
            run_spmd(&alg, ctx, input[ctx.rank()].clone());
        })
        .elapsed_virtual;

        let t_trad = mp_run(p, MachineModel::intel_delta(), |ctx| {
            let inp = (ctx.rank() == 0).then(|| flat.clone());
            tree_mergesort_spmd(ctx, inp);
        })
        .elapsed_virtual;

        assert!(
            t_onedeep < t_trad,
            "one-deep ({t_onedeep}) must beat traditional ({t_trad})"
        );
    }
}
