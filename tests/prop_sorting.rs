//! Property-based tests of the one-deep sorting applications: for
//! arbitrary inputs and block structures, the output is sorted, is a
//! permutation of the input, has ordered block boundaries, and is
//! identical across execution modes. The merges beneath them are the
//! stable sort of their runs laid end to end, and a two-way merge writes
//! into its left run's buffer whenever that has room.

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::core::ExecutionMode;
use parallel_archetypes::dc::mergesort::merge_k;
use parallel_archetypes::dc::skeleton::run_shared;
use parallel_archetypes::dc::traditional::merge_two;
use parallel_archetypes::dc::{sequential_mergesort, OneDeepMergesort, OneDeepQuicksort};

/// Arbitrary block structure: up to 6 blocks of up to 80 items each,
/// possibly empty, possibly with duplicates.
fn arb_blocks() -> impl Strategy<Value = Vec<Vec<i64>>> {
    vec(vec(-1000i64..1000, 0..80), 1..6)
}

fn sorted_copy(blocks: &[Vec<i64>]) -> Vec<i64> {
    let mut all: Vec<i64> = blocks.iter().flatten().copied().collect();
    all.sort_unstable();
    all
}

/// An item whose order sees the key only.
#[derive(Clone, Copy, Debug)]
struct ByKey {
    key: u8,
    tag: usize,
}
impl PartialEq for ByKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for ByKey {}
impl PartialOrd for ByKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

fn pairs(v: &[ByKey]) -> Vec<(u8, usize)> {
    v.iter().map(|k| (k.key, k.tag)).collect()
}

/// Run `run` of a merge: `keys` sorted, each tagged with its run and its
/// position in it, so the tags show which of two equal keys came first.
fn sorted_run(run: usize, mut keys: Vec<u8>) -> Vec<ByKey> {
    keys.sort_unstable();
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| ByKey {
            key,
            tag: 1000 * run + i,
        })
        .collect()
}

/// `Vec::sort` (stable) of the runs laid end to end.
fn stable_sort_of(runs: &[&[ByKey]]) -> Vec<(u8, usize)> {
    let mut all: Vec<ByKey> = runs.concat();
    all.sort();
    pairs(&all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_deep_mergesort_sorts_any_input(blocks in arb_blocks()) {
        let alg = OneDeepMergesort::<i64>::new();
        let expected = sorted_copy(&blocks);
        let out = run_shared(&alg, blocks, ExecutionMode::Sequential, None);
        // Concatenation is the sorted permutation of the input.
        let flat: Vec<i64> = out.iter().flatten().copied().collect();
        prop_assert_eq!(flat, expected);
        // Block boundaries are ordered.
        for w in out.windows(2) {
            if let (Some(a), Some(b)) = (w[0].last(), w[1].first()) {
                prop_assert!(a <= b);
            }
        }
    }

    #[test]
    fn one_deep_quicksort_sorts_any_input(blocks in arb_blocks()) {
        let alg = OneDeepQuicksort::<i64>::new();
        let expected = sorted_copy(&blocks);
        let out = run_shared(&alg, blocks, ExecutionMode::Sequential, None);
        let flat: Vec<i64> = out.iter().flatten().copied().collect();
        prop_assert_eq!(flat, expected);
    }

    #[test]
    fn modes_agree_for_any_input(blocks in arb_blocks()) {
        let alg = OneDeepMergesort::<i64>::new();
        let seq = run_shared(&alg, blocks.clone(), ExecutionMode::Sequential, None);
        let par = run_shared(&alg, blocks, ExecutionMode::Parallel, None);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn sequential_mergesort_matches_std(mut input in vec(-5000i64..5000, 0..300)) {
        let got = sequential_mergesort(input.clone());
        input.sort_unstable();
        prop_assert_eq!(got, input);
    }

    // Short and long inputs; few keys, so ties are everywhere; `(key,
    // tag)` ordered by key alone, so only a stable sort reproduces
    // `Vec::sort` tag for tag.
    #[test]
    fn sequential_mergesort_is_vec_sort_element_for_element(
        keys in vec(0u8..24, 0..14_000),
    ) {
        let input: Vec<ByKey> = keys
            .iter()
            .enumerate()
            .map(|(tag, &key)| ByKey { key, tag })
            .collect();
        let mut expected = input.clone();
        expected.sort();
        let got = sequential_mergesort(input);
        prop_assert_eq!(pairs(&got), pairs(&expected));
    }

    // Few keys, so ties are everywhere; either run may be empty, and `a`
    // has exactly its own room, room for `b`, or more.
    #[test]
    fn merge_two_is_the_stable_sort_of_a_then_b_in_both_orders(
        x in vec(0u8..6, 0..60),
        y in vec(0u8..6, 0..60),
        spare in 0usize..3,
    ) {
        let (x, y) = (sorted_run(0, x), sorted_run(1, y));
        for (mut a, b) in [(x.clone(), y.clone()), (y, x)] {
            if spare > 0 {
                a.reserve_exact(b.len() + spare - 1);
            }
            let reuses = a.capacity() >= a.len() + b.len();
            let ptr = a.as_ptr();
            let expected = stable_sort_of(&[&a, &b]);
            let merged = merge_two(a, b);
            prop_assert_eq!(pairs(&merged), expected);
            if reuses {
                prop_assert!(merged.as_ptr() == ptr, "a had room, yet the merge moved");
            }
        }
    }

    #[test]
    fn merge_k_is_the_stable_sort_of_its_runs(runs in vec(vec(0u8..6, 0..40), 3..6)) {
        let runs: Vec<Vec<ByKey>> = runs
            .into_iter()
            .enumerate()
            .map(|(r, keys)| sorted_run(r, keys))
            .collect();
        let expected = stable_sort_of(&runs.iter().map(Vec::as_slice).collect::<Vec<_>>());
        prop_assert_eq!(pairs(&merge_k(runs)), expected);
    }

    #[test]
    fn oversample_parameter_never_affects_correctness(
        blocks in arb_blocks(),
        oversample in 1usize..40,
    ) {
        let alg = OneDeepMergesort::<i64>::with_oversample(oversample);
        let expected = sorted_copy(&blocks);
        let out = run_shared(&alg, blocks, ExecutionMode::Sequential, None);
        let flat: Vec<i64> = out.iter().flatten().copied().collect();
        prop_assert_eq!(flat, expected);
    }
}
