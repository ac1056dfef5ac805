//! Cross-archetype conformance suite: every `PhaseTrace` an archetype
//! skeleton emits must be *accepted by the archetype's declared phase
//! grammar* (`ArchetypeInfo::grammar` in `crates/core/src/archetype.rs`),
//! over random inputs and process counts.
//!
//! This turns the archetype metadata into an enforced contract — the
//! paper's claim that "the initial archetype-based program is correct by
//! construction" checked mechanically for all four archetypes of the
//! taxonomy: divide-and-conquer (one-deep and recursive forms),
//! mesh-spectral, task-farm, and pipeline.

use proptest::prelude::*;

use parallel_archetypes::compose::{
    forecast_input, forecast_plan, run_plan_traced, ForecastConfig, Plan, SweepJob,
};
use parallel_archetypes::core::archetype::{
    ArchetypeInfo, MESH_SPECTRAL, ONE_DEEP_DC, PIPELINE, RECURSIVE_DC, TASK_FARM,
};
use parallel_archetypes::core::{ExecutionMode, PhaseKind, PhaseTrace};
use parallel_archetypes::dc::skeleton::run_shared;
use parallel_archetypes::dc::{
    run_shared_recursive, run_spmd_recursive, CutoffPolicy, OneDeepMergesort, RecursiveMergesort,
};
use parallel_archetypes::farm::apps::GridSweepFarm;
use parallel_archetypes::farm::{run_farm_traced, FarmConfig};
use parallel_archetypes::mesh::apps::poisson::{poisson_spmd_traced, sine_problem};
use parallel_archetypes::mp::{run_spmd, MachineModel};
use parallel_archetypes::pipeline::{run_pipeline_traced, PipelineConfig};

/// Assert a trace is a sentence of the archetype's grammar, with a
/// diagnostic naming the archetype and showing the offending trace.
fn assert_conforms(info: &ArchetypeInfo, kinds: &[PhaseKind], context: &str) {
    assert!(
        info.grammar.matches(kinds),
        "{context}: trace {kinds:?} rejected by the {} grammar",
        info.name
    );
}

mod common;
use common::{grid_for, AddStage, NStage, SpawnFarm};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_deep_dc_traces_conform(
        nblocks in 1usize..9,
        per in 1usize..60,
        seed in any::<u32>(),
    ) {
        let blocks: Vec<Vec<i64>> = (0..nblocks)
            .map(|b| {
                (0..per)
                    .map(|i| i64::from(seed) + (b * per + i) as i64 * 7919 % 1000)
                    .collect()
            })
            .collect();
        for mode in [ExecutionMode::Sequential, ExecutionMode::Parallel] {
            let t = PhaseTrace::new();
            run_shared(&OneDeepMergesort::<i64>::new(), blocks.clone(), mode, Some(&t));
            assert_conforms(&ONE_DEEP_DC, &t.kinds(), "run_shared mergesort");
            prop_assert!(t.kinds().iter().all(|k| ONE_DEEP_DC.phases.contains(k)));
        }
    }

    #[test]
    fn recursive_dc_shared_traces_conform(
        n in 1usize..400,
        branching in 2usize..5,
        cutoff in 1usize..64,
        depth in 0usize..4,
    ) {
        let input: Vec<i64> = (0..n as i64).map(|i| i * 48271 % 9973).collect();
        let t = PhaseTrace::new();
        run_shared_recursive(
            &RecursiveMergesort::<i64>::new(),
            input,
            &CutoffPolicy::new(branching, cutoff, depth),
            ExecutionMode::Sequential,
            Some(&t),
        );
        assert_conforms(&RECURSIVE_DC, &t.kinds(), "run_shared_recursive mergesort");
        prop_assert!(t.kinds().iter().all(|k| RECURSIVE_DC.phases.contains(k)));
    }

    #[test]
    fn recursive_dc_spmd_rank0_traces_conform(
        p in 1usize..9,
        n in 1usize..500,
        depth in 0usize..4,
    ) {
        let input: Vec<i64> = (0..n as i64).map(|i| (n as i64 - i) * 31 % 257).collect();
        let policy = CutoffPolicy::new(2, 32, depth);
        let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            let local = (ctx.rank() == 0).then(|| input.clone());
            let t = PhaseTrace::new();
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, Some(&t));
            t.kinds()
        });
        // Rank 0 walks its root path of the recursion tree — the k=1
        // degenerate tree the grammar also accepts.
        assert_conforms(&RECURSIVE_DC, &out.results[0], "run_spmd_recursive rank 0");
    }

    #[test]
    fn mesh_spectral_traces_conform(
        p in 1usize..9,
        n in 8usize..24,
        iter_cap in 1usize..40,
    ) {
        let spec = sine_problem(n, 1e-7, iter_cap);
        let pg = grid_for(p);
        let trace = PhaseTrace::new();
        run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            poisson_spmd_traced(ctx, &spec, pg, Some(&trace)).iters
        });
        assert_conforms(&MESH_SPECTRAL, &trace.kinds(), "poisson_spmd_traced");
    }

    #[test]
    fn task_farm_traces_conform(
        p in 1usize..9,
        roots in 0u64..40,
        spawn in 0u64..6,
        steal in any::<bool>(),
    ) {
        let trace = PhaseTrace::new();
        let farm = SpawnFarm { roots, spawn };
        run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            let config = FarmConfig { steal, ..FarmConfig::default() };
            run_farm_traced(&farm, ctx, config, Some(&trace)).0
        });
        assert_conforms(&TASK_FARM, &trace.kinds(), "run_farm_traced");
        prop_assert!(trace.kinds().iter().all(|k| TASK_FARM.phases.contains(k)));
    }

    #[test]
    fn composed_plan_traces_conform_to_the_derived_grammar(
        p in 1usize..9,
        sweep_points in 8u32..32,
        mesh_n in 8usize..16,
        mesh_iters in 5usize..40,
    ) {
        // The flagship composite — (farm ∥ mesh) → recursive DC → pipeline
        // — must emit a composite trace accepted by the grammar *derived*
        // from its members' archetype grammars, at every process count.
        let cfg = ForecastConfig { sweep_points, mesh_n, mesh_iters };
        let plan = forecast_plan(cfg);
        let trace = PhaseTrace::new();
        run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            run_plan_traced(ctx, &plan, forecast_input(), Some(&trace)).1
        });
        let kinds = trace.kinds();
        prop_assert!(
            plan.grammar().matches(&kinds),
            "p={p}: composite trace {kinds:?} rejected by the derived grammar"
        );
    }

    #[test]
    fn replicated_plan_traces_conform_sequenced_and_interleaved(
        p in 1usize..9,
        copies in 1usize..4,
        points in 4u32..16,
    ) {
        // A Replicate of farm sweeps: the canonical branch-ordered trace
        // must satisfy both the sequence-composed grammar and its
        // shuffle-closed (interleaved) variant.
        let plan = Plan::replicate(
            copies,
            Plan::atom(SweepJob {
                farm: GridSweepFarm { lo: 0.0, hi: 1.0, points },
            }),
        );
        let input = parallel_archetypes::compose::Value::Tuple(vec![
            parallel_archetypes::compose::Value::Unit;
            copies
        ]);
        let trace = PhaseTrace::new();
        run_spmd(p, MachineModel::cray_t3d(), |ctx| {
            run_plan_traced(ctx, &plan, input.clone(), Some(&trace)).0
        });
        let kinds = trace.kinds();
        prop_assert!(
            plan.grammar().matches(&kinds),
            "p={p} copies={copies}: {kinds:?} rejected by the derived grammar"
        );
        // The interleaved matcher searches order-preserving shuffles
        // (worst-case exponential, viability-pruned to near-linear on
        // canonical traces) — keep it off the pathologically long ones.
        if kinds.len() <= 60 {
            prop_assert!(
                plan.grammar_interleaved().matches(&kinds),
                "p={p} copies={copies}: {kinds:?} rejected by the interleaved grammar"
            );
        }
    }

    #[test]
    fn pipeline_traces_conform(
        p in 1usize..9,
        items in 0u64..80,
        n_stages in 0usize..5,
        window in 1usize..6,
    ) {
        let trace = PhaseTrace::new();
        let pipe = NStage {
            items,
            stages: (0..n_stages as u64).map(AddStage).collect(),
        };
        let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            let config = PipelineConfig { window, ..PipelineConfig::default() };
            run_pipeline_traced(&pipe, ctx, config, Some(&trace)).1
        });
        prop_assert_eq!(out.results[0].forwarded > 0, p > 1 && items > 0, "streams");
        assert_conforms(&PIPELINE, &trace.kinds(), "run_pipeline_traced");
        prop_assert!(trace.kinds().iter().all(|k| PIPELINE.phases.contains(k)));
    }
}

/// The grammars are not vacuous: each rejects a plausible-but-wrong
/// trace (phase missing, out of order, or unbalanced).
#[test]
fn grammars_reject_malformed_traces() {
    use PhaseKind::*;
    assert!(!ONE_DEEP_DC.grammar.matches(&[Solve, Split, Merge]));
    assert!(!RECURSIVE_DC.grammar.matches(&[Recurse, Solve])); // missing Merge
    assert!(!MESH_SPECTRAL.grammar.matches(&[Io, GridOp])); // missing final Io
    assert!(!TASK_FARM.grammar.matches(&[Seed, Steal, Terminate])); // Steal without Work
    assert!(!PIPELINE.grammar.matches(&[Ingest, Transform, Emit])); // missing Drain
}
