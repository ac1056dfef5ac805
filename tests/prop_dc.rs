//! Cross-archetype equivalence property tests for divide-and-conquer:
//! for arbitrary inputs, rank counts, recursion depths, and branching
//! factors, every dc application computes the same answer through four
//! executions —
//!
//! 1. the sequential reference algorithm,
//! 2. the shared-memory recursive skeleton (`run_shared_recursive`),
//! 3. the one-deep SPMD skeleton (`dc::skeleton::run_spmd`), and
//! 4. the recursive SPMD skeleton on nested groups
//!    (`run_spmd_recursive`) —
//!
//! which is the paper's semantics-preservation claim extended to the
//! general recursive archetype.

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::dc::skeleton::run_spmd as one_deep_spmd;
use parallel_archetypes::dc::{
    global_closest, run_shared_recursive, run_spmd_recursive, sequential_closest,
    sequential_mergesort, CutoffPolicy, OneDeepClosest, OneDeepMergesort, OneDeepQuicksort, Point,
    RecursiveClosest, RecursiveMergesort, RecursiveQuicksort,
};
use parallel_archetypes::mp::topology::block_range;
use parallel_archetypes::mp::{run_spmd, MachineModel};

/// Arbitrary input: up to 150 items, possibly empty, with duplicates.
fn arb_input() -> impl Strategy<Value = Vec<i64>> {
    vec(-500i64..500, 0..150)
}

/// Slice an input into `p` per-rank blocks for the one-deep oracle.
fn blocks_of(input: &[i64], p: usize) -> Vec<Vec<i64>> {
    (0..p)
        .map(|r| {
            let (s, l) = block_range(input.len(), p, r);
            input[s..s + l].to_vec()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mergesort_four_way_equivalence(
        input in arb_input(),
        p in 1usize..9,
        depth in 0usize..4,
        branching in 2usize..4,
    ) {
        let expected = sequential_mergesort(input.clone());
        let policy = CutoffPolicy::exact_depth(depth, branching);

        let shared = run_shared_recursive(
            &RecursiveMergesort::<i64>::new(),
            input.clone(),
            &policy,
        );
        prop_assert_eq!(&shared, &expected);

        let one_deep_in = blocks_of(&input, p);
        let one_deep = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            let alg = OneDeepMergesort::<i64>::new();
            one_deep_spmd(&alg, ctx, one_deep_in[ctx.rank()].clone())
        });
        let one_deep_flat: Vec<i64> = one_deep.results.into_iter().flatten().collect();
        prop_assert_eq!(&one_deep_flat, &expected);

        let inp = input.clone();
        let recursive = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            let local = (ctx.rank() == 0).then(|| inp.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
        });
        prop_assert_eq!(recursive.results[0].as_ref().unwrap(), &expected);
    }

    #[test]
    fn quicksort_four_way_equivalence(
        input in arb_input(),
        p in 1usize..9,
        depth in 0usize..4,
    ) {
        let mut expected = input.clone();
        expected.sort_unstable();
        let policy = CutoffPolicy::exact_depth(depth, 2);

        let shared = run_shared_recursive(
            &RecursiveQuicksort::<i64>::new(),
            input.clone(),
            &policy,
        );
        prop_assert_eq!(&shared, &expected);

        let one_deep_in = blocks_of(&input, p);
        let one_deep = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            let alg = OneDeepQuicksort::<i64>::new();
            one_deep_spmd(&alg, ctx, one_deep_in[ctx.rank()].clone())
        });
        let one_deep_flat: Vec<i64> = one_deep.results.into_iter().flatten().collect();
        prop_assert_eq!(&one_deep_flat, &expected);

        let inp = input.clone();
        let recursive = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            let local = (ctx.rank() == 0).then(|| inp.clone());
            run_spmd_recursive(&RecursiveQuicksort::<i64>::new(), ctx, local, &policy, None)
        });
        prop_assert_eq!(recursive.results[0].as_ref().unwrap(), &expected);
    }

    #[test]
    fn closest_pair_four_way_equivalence(
        coords in vec((-1000i32..1000, -1000i32..1000), 0..80),
        p in 1usize..9,
        depth in 0usize..4,
    ) {
        let pts: Vec<Point> = coords
            .iter()
            .map(|&(x, y)| Point::new(x as f64, y as f64))
            .collect();
        let expected = sequential_closest(&pts);
        let policy = CutoffPolicy::exact_depth(depth, 2);

        let shared = run_shared_recursive(
            &RecursiveClosest::new(),
            pts.clone(),
            &policy,
        );
        prop_assert!(
            close(shared.best, expected),
            "shared {} vs {}", shared.best, expected
        );

        let one_deep_in: Vec<Vec<Point>> = (0..p)
            .map(|r| {
                let (s, l) = block_range(pts.len(), p, r);
                pts[s..s + l].to_vec()
            })
            .collect();
        let one_deep = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            one_deep_spmd(&OneDeepClosest::new(), ctx, one_deep_in[ctx.rank()].clone())
        });
        prop_assert!(close(global_closest(&one_deep.results), expected));

        let inp = pts.clone();
        let recursive = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            let local = (ctx.rank() == 0).then(|| inp.clone());
            run_spmd_recursive(&RecursiveClosest::new(), ctx, local, &policy, None)
        });
        let got = recursive.results[0].as_ref().unwrap().best;
        prop_assert!(close(got, expected), "recursive {} vs {}", got, expected);
    }

    #[test]
    fn recursive_spmd_is_depth_invariant(
        input in arb_input(),
        p in 1usize..9,
    ) {
        // The same problem at every forced depth gives bit-identical
        // results (the model-chosen policy is covered by the fixed-input
        // tests in perfmodel.rs and equivalence.rs).
        let reference = sequential_mergesort(input.clone());
        for depth in 0..=4 {
            let policy = CutoffPolicy::exact_depth(depth, 2);
            let inp = input.clone();
            let out = run_spmd(p, MachineModel::cray_t3d(), move |ctx| {
                let local = (ctx.rank() == 0).then(|| inp.clone());
                run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
            });
            prop_assert_eq!(out.results[0].as_ref().unwrap(), &reference, "depth {}", depth);
        }
    }
}

/// Equal up to rounding noise (both sides are exact pair distances, so
/// in practice the comparison is exact; infinities must match too).
fn close(a: f64, b: f64) -> bool {
    (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9
}
