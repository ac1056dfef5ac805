//! Tests that applications follow their archetype's phase structure and
//! communication discipline — the paper's claim that the archetype is a
//! checkable design artifact, not just documentation.

mod common;

use common::phase_kinds;
use parallel_archetypes::core::PhaseKind;
use parallel_archetypes::dc::skeleton::{run_spmd as dc_spmd, OneDeep};
use parallel_archetypes::dc::{OneDeepMergesort, OneDeepQuicksort, OneDeepSkyline};
use parallel_archetypes::mesh::GlobalVar;
use parallel_archetypes::mp::{run_spmd, run_spmd_with, MachineModel, Payload, RunConfig};

/// Every rank's phase kinds from a traced one-deep run of `alg`.
fn one_deep_tracks<A>(alg: &A, blocks: Vec<A::In>) -> Vec<Vec<PhaseKind>>
where
    A: OneDeep,
    A::In: Payload + Clone,
    A::Mid: Payload,
    A::SplitSample: Payload + Sync,
    A::MergeSample: Payload + Sync,
    A::Out: Send,
{
    let out = run_spmd_with(
        blocks.len(),
        MachineModel::ibm_sp(),
        RunConfig::traced(),
        |ctx| {
            dc_spmd(alg, ctx, blocks[ctx.rank()].clone());
        },
    );
    out.trace
        .expect("traced run")
        .ranks
        .iter()
        .map(phase_kinds)
        .collect()
}

#[test]
fn every_one_deep_application_has_split_solve_merge() {
    use PhaseKind::{Merge, Solve, Split};
    let blocks = vec![vec![3i64, 1], vec![2, 4]];
    let expected = vec![vec![Split, Solve, Merge]; 2];
    assert_eq!(
        one_deep_tracks(&OneDeepMergesort::<i64>::new(), blocks.clone()),
        expected
    );
    assert_eq!(
        one_deep_tracks(&OneDeepQuicksort::<i64>::new(), blocks),
        expected
    );
    assert_eq!(
        one_deep_tracks(&OneDeepSkyline, vec![vec![], vec![]]),
        expected
    );
}

#[test]
fn archetype_metadata_is_exposed() {
    use parallel_archetypes::core::archetype::{MESH_SPECTRAL, ONE_DEEP_DC, RECURSIVE_DC};
    assert_eq!(ONE_DEEP_DC.name, "one-deep divide-and-conquer");
    assert_eq!(MESH_SPECTRAL.name, "mesh-spectral");
    assert!(MESH_SPECTRAL
        .communication
        .iter()
        .any(|c| c.contains("boundary")));
    assert_eq!(RECURSIVE_DC.name, "recursive divide-and-conquer");
    assert!(RECURSIVE_DC
        .communication
        .iter()
        .any(|c| c.contains("Ctx::scoped")));
}

#[test]
fn recursive_dc_trace_is_preorder_over_recursive_dc_phases() {
    use parallel_archetypes::core::archetype::RECURSIVE_DC;
    use parallel_archetypes::dc::{run_spmd_recursive, CutoffPolicy, RecursiveMergesort};
    use PhaseKind::{Merge, Recurse, Solve};

    let out = run_spmd_with(4, MachineModel::ibm_sp(), RunConfig::traced(), |ctx| {
        let input = (ctx.rank() == 0).then(|| (0..64i64).rev().collect());
        let policy = CutoffPolicy::exact_depth(2, 2);
        run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, input, &policy, None)
    });
    assert_eq!(out.results[0], Some((0..64).collect()));
    let tracks: Vec<Vec<PhaseKind>> = out
        .trace
        .expect("traced")
        .ranks
        .iter()
        .map(phase_kinds)
        .collect();
    // Depth-2 binary recursion on four ranks: each rank walks its path
    // from the root to its own leaf, and roots the combines above it.
    assert_eq!(tracks[0], [Recurse, Recurse, Solve, Merge, Merge]);
    assert_eq!(tracks[1], [Recurse, Recurse, Solve]);
    assert_eq!(tracks[2], [Recurse, Recurse, Solve, Merge]);
    assert_eq!(tracks[3], [Recurse, Recurse, Solve]);
    assert!(RECURSIVE_DC.grammar().matches(&tracks[0]));
    // Every recorded phase kind belongs to the archetype's vocabulary.
    let vocabulary = RECURSIVE_DC.phases();
    for kind in tracks.iter().flatten() {
        assert!(
            vocabulary.contains(kind),
            "{kind} is not a recursive-DC phase"
        );
    }
}

#[test]
fn global_var_copy_consistency_survives_mixed_updates() {
    let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
        let mut v = GlobalVar::new(0i64);
        v.reduce_from(ctx, ctx.rank() as i64, |a, b| a + b); // 0+1+..+5 = 15
        let doubled = *v.get() * 2;
        v.broadcast_from(ctx, 3, (ctx.rank() == 3).then_some(doubled));
        assert!(v.check_consistent(ctx));
        *v.get()
    });
    assert!(out.results.iter().all(|&v| v == 30));
}

#[test]
fn leak_detection_enforces_matched_protocols() {
    // A well-formed archetype program leaves no unconsumed messages; the
    // runner verifies this (here: positive case — the negative case is
    // covered in archetype-mp's own tests).
    let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
        let x = ctx.all_reduce(1u32, |a, b| a + b);
        ctx.barrier();
        x
    });
    assert_eq!(out.results, vec![4, 4, 4, 4]);
}
