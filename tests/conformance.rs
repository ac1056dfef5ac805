//! Cross-archetype conformance suite: the phase track a traced run
//! returns must be *accepted by the archetype's declared phase grammar*
//! (`ArchetypeInfo::grammar()`, a `PatternExpr`, in
//! `crates/core/src/archetype.rs`), over random inputs and process
//! counts. A composite plan's track is checked against `Plan::grammar()`,
//! which sequences its members' grammars in canonical branch order.
//!
//! Skeletons record their phases once, with `Ctx::trace_phase`, so the
//! trace checked here is the one the Chrome timeline and the critical
//! path read. Rank 0's track is a sentence of its archetype's grammar
//! for every skeleton; for the one-deep DC, the farm and the mesh every
//! rank's track is. This turns the archetype metadata into an enforced
//! contract — the paper's claim that "the initial archetype-based
//! program is correct by construction" checked mechanically for all four
//! archetypes of the taxonomy: divide-and-conquer (one-deep and
//! recursive forms), mesh-spectral, task-farm, and pipeline.

use proptest::prelude::*;

use parallel_archetypes::compose::{
    forecast_input, forecast_plan, try_run_plan, ForecastConfig, ParMode, Plan, SortJob, SweepJob,
    TopKJob, Value,
};
use parallel_archetypes::core::archetype::{
    ArchetypeInfo, MESH_SPECTRAL, ONE_DEEP_DC, PIPELINE, RECURSIVE_DC, TASK_FARM,
};
use parallel_archetypes::core::PhaseKind;
use parallel_archetypes::dc::skeleton::{run_spmd as dc_spmd, OneDeep};
use parallel_archetypes::dc::{
    run_spmd_recursive, Building, CutoffPolicy, OneDeepMergesort, OneDeepQuicksort, OneDeepSkyline,
    RecursiveMergesort,
};
use parallel_archetypes::farm::apps::GridSweepFarm;
use parallel_archetypes::farm::{run_farm, run_farm_ft, FarmConfig, FtFarmConfig};
use parallel_archetypes::mesh::apps::airshed::{airshed_spmd, AirshedSpec};
use parallel_archetypes::mesh::apps::cfd::{cfd_spmd, shock_sine_init, CfdSpec};
use parallel_archetypes::mesh::apps::poisson::{poisson_spmd, sine_problem};
use parallel_archetypes::mesh::apps::spectral_flow::{swirl_spmd, SwirlSpec};
use parallel_archetypes::mp::{
    run_spmd_ft, run_spmd_with, Ctx, FaultPlan, MachineModel, Payload, RunConfig, RunTrace,
    TraceIncomplete,
};
use parallel_archetypes::pipeline::{run_pipeline, PipelineConfig};

mod common;
use common::{grid_for, phase_kinds, AddStage, NStage, SpawnFarm};

/// Assert a trace is a sentence of the archetype's grammar, with a
/// diagnostic naming the archetype and showing the offending trace.
fn assert_conforms(info: &ArchetypeInfo, kinds: &[PhaseKind], context: &str) {
    assert!(
        info.grammar().matches(kinds),
        "{context}: trace {kinds:?} rejected by the {} grammar",
        info.name
    );
    let vocabulary = info.phases();
    assert!(
        kinds.iter().all(|k| vocabulary.contains(k)),
        "{context}: trace {kinds:?} leaves the {} vocabulary",
        info.name
    );
}

/// Run `body` on `p` ranks, traced, and return the trace.
fn traced<R: Send>(p: usize, model: MachineModel, body: impl Fn(&mut Ctx) -> R + Sync) -> RunTrace {
    run_spmd_with(p, model, RunConfig::traced(), body)
        .trace
        .expect("a traced run carries its trace")
}

/// Assert every rank's track of `trace` conforms to `info`.
fn assert_every_rank_conforms(info: &ArchetypeInfo, trace: &RunTrace, context: &str) {
    for track in &trace.ranks {
        let context = format!("{context}, rank {}", track.rank);
        assert_conforms(info, &phase_kinds(track), &context);
    }
}

/// Every rank's track of a traced one-deep run of `alg` on `blocks`.
fn one_deep_trace<A>(alg: &A, blocks: Vec<A::In>) -> RunTrace
where
    A: OneDeep,
    A::In: Payload + Clone,
    A::Mid: Payload,
    A::SplitSample: Payload + Sync,
    A::MergeSample: Payload + Sync,
    A::Out: Send,
{
    traced(blocks.len(), MachineModel::ibm_sp(), |ctx| {
        dc_spmd(alg, ctx, blocks[ctx.rank()].clone());
    })
}

/// Rank 0's track of a traced plan run under `ParMode::Serialize`, in
/// which rank 0 roots every atom.
fn serialized_plan_track(
    p: usize,
    model: MachineModel,
    plan: &Plan,
    input: Value,
) -> Vec<PhaseKind> {
    let trace = traced(p, model, |ctx| {
        try_run_plan(ctx, plan, input.clone(), ParMode::Serialize).expect("no fault plan")
    });
    phase_kinds(&trace.ranks[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_deep_dc_traces_conform(
        p in 1usize..9,
        per in 1usize..60,
        seed in any::<u32>(),
        app in 0usize..3,
    ) {
        let blocks: Vec<Vec<i64>> = (0..p)
            .map(|b| {
                (0..per)
                    .map(|i| i64::from(seed) + (b * per + i) as i64 * 7919 % 1000)
                    .collect()
            })
            .collect();
        let (trace, name) = match app {
            0 => (one_deep_trace(&OneDeepMergesort::<i64>::new(), blocks), "mergesort"),
            1 => (one_deep_trace(&OneDeepQuicksort::<i64>::new(), blocks), "quicksort"),
            _ => {
                let buildings = blocks
                    .iter()
                    .map(|b| {
                        b.iter()
                            .map(|&x| Building::new(x as f64, (x % 7 + 1) as f64, (x + 3) as f64))
                            .collect()
                    })
                    .collect();
                (one_deep_trace(&OneDeepSkyline, buildings), "skyline")
            }
        };
        assert_every_rank_conforms(&ONE_DEEP_DC, &trace, &format!("one-deep {name}, p={p}"));
    }

    #[test]
    fn recursive_dc_spmd_rank0_traces_conform(
        p in 1usize..9,
        n in 1usize..500,
        depth in 0usize..4,
    ) {
        let input: Vec<i64> = (0..n as i64).map(|i| (n as i64 - i) * 31 % 257).collect();
        let policy = CutoffPolicy::new(2, 32, depth);
        let trace = traced(p, MachineModel::ibm_sp(), move |ctx| {
            let local = (ctx.rank() == 0).then(|| input.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
        });
        // Rank 0 walks its root path of the recursion tree — the k=1
        // degenerate tree the grammar also accepts.
        assert_conforms(&RECURSIVE_DC, &phase_kinds(&trace.ranks[0]), "run_spmd_recursive rank 0");
    }

    #[test]
    fn mesh_spectral_traces_conform(
        p in 1usize..9,
        n in 8usize..24,
        iter_cap in 1usize..40,
        app in 0usize..4,
    ) {
        // Every app on the mesh skeleton: Poisson (exchange, sweep,
        // reduction), CFD (a reduction before the exchange, a broadcast
        // after the sweep), airshed (exchange, sweep, reduction) and
        // spectral flow (exchange, row op, sweep).
        let pg = grid_for(p);
        let model = MachineModel::ibm_sp();
        let (trace, name) = match app {
            0 => {
                let spec = sine_problem(n, 1e-7, iter_cap);
                (traced(p, model, |ctx| poisson_spmd(ctx, &spec, pg).iters), "poisson_spmd")
            }
            1 => {
                let spec = CfdSpec { nx: n, ny: n, lx: 1.0, ly: 1.0, cfl: 0.4, steps: iter_cap };
                let init = |i, j| shock_sine_init(&spec, i, j);
                (traced(p, model, |ctx| cfd_spmd(ctx, &spec, pg, init).time), "cfd_spmd")
            }
            2 => {
                let spec = AirshedSpec {
                    nx: n,
                    ny: n,
                    wind: (0.4, 0.1),
                    diffusion: 0.05,
                    j_rate: 0.3,
                    k_rate: 2.0,
                    dt: 0.2,
                    steps: iter_cap,
                    source: (n / 3, n / 2, 0.5),
                };
                (traced(p, model, |ctx| airshed_spmd(ctx, &spec, pg).peak_o3), "airshed_spmd")
            }
            _ => {
                let spec = SwirlSpec { nr: n, ntheta: 16, rmax: 1.0, nu: 1e-3, dt: 5e-4, steps: iter_cap };
                (traced(p, model, |ctx| swirl_spmd(ctx, &spec).is_some()), "swirl_spmd")
            }
        };
        assert_every_rank_conforms(&MESH_SPECTRAL, &trace, &format!("{name}, p={p}"));
    }

    #[test]
    fn task_farm_traces_conform(
        p in 1usize..9,
        roots in 0u64..40,
        spawn in 0u64..6,
        steal in any::<bool>(),
    ) {
        let farm = SpawnFarm { roots, spawn };
        let trace = traced(p, MachineModel::ibm_sp(), |ctx| {
            let config = FarmConfig { steal, ..FarmConfig::default() };
            run_farm(&farm, ctx, config).0
        });
        assert_every_rank_conforms(&TASK_FARM, &trace, &format!("run_farm, p={p}"));
    }

    #[test]
    fn ft_farm_master_traces_conform(
        p in 1usize..9,
        roots in 0u64..40,
        spawn in 0u64..6,
        batch in 1usize..9,
    ) {
        let farm = SpawnFarm { roots, spawn };
        let trace = traced(p, MachineModel::ibm_sp(), |ctx| {
            run_farm_ft(&farm, ctx, FtFarmConfig { batch }).0
        });
        assert_conforms(&TASK_FARM, &phase_kinds(&trace.ranks[0]), &format!("run_farm_ft, p={p}"));
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
        let kinds = serialized_plan_track(p, MachineModel::ibm_sp(), &plan, forecast_input());
        prop_assert!(
            plan.grammar().matches(&kinds),
            "p={p}: composite trace {kinds:?} rejected by the derived grammar"
        );
    }

    #[test]
    fn replicated_plan_traces_conform_sequenced(
        p in 1usize..9,
        copies in 1usize..4,
        points in 4u32..16,
    ) {
        // A Replicate of farm sweeps: the canonical branch-ordered trace
        // must satisfy the sequence-composed grammar.
        let plan = Plan::replicate(
            copies,
            Plan::atom(SweepJob {
                farm: GridSweepFarm { lo: 0.0, hi: 1.0, points },
            }),
        );
        let input = Value::Tuple(vec![Value::Unit; copies]);
        let kinds = serialized_plan_track(p, MachineModel::cray_t3d(), &plan, input);
        prop_assert!(
            plan.grammar().matches(&kinds),
            "p={p} copies={copies}: {kinds:?} rejected by the derived grammar"
        );
    }

    #[test]
    fn retried_plan_traces_conform_and_show_the_recovery(
        p in 1usize..9,
        sort_losses in 1u32..4,
        digest_losses in 0u32..4,
        n in 1usize..200,
    ) {
        // A two-stage plan — recursive DC sort → pipeline digest — whose
        // atoms lose attempts within the retry budget. Node ids: 0 is
        // the Seq, 1 the sort, 2 the digest.
        let plan = Plan::atom(SortJob::default()).then(Plan::atom(TopKJob::default()));
        let samples: Vec<f64> = (0..n).map(|i| (i * 37 % 101) as f64).collect();
        let input = Value::Tuple(vec![Value::F64s(samples.clone()), Value::F64s(samples)]);
        let faults = FaultPlan::new(7).fail_atom(1, sort_losses).fail_atom(2, digest_losses);
        let out = run_spmd_ft(p, MachineModel::ibm_sp(), RunConfig::traced(), faults, |ctx| {
            try_run_plan(ctx, &plan, input.clone(), ParMode::Allocate)
                .expect("within the retry budget")
                .1
                .retries
        });
        let retries = u64::from(sort_losses + digest_losses);
        prop_assert!(out.results.iter().all(|r| matches!(r, Ok(n) if *n == retries)));
        let kinds = phase_kinds(&out.trace.expect("every rank completed").ranks[0]);
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count() as u64;
        prop_assert_eq!(count(PhaseKind::Detect), retries, "{:?}", kinds);
        prop_assert_eq!(count(PhaseKind::Recover), retries, "{:?}", kinds);
        prop_assert!(
            plan.grammar().matches(&kinds),
            "p={p}: retried trace {kinds:?} rejected by the derived grammar"
        );
    }

    #[test]
    fn pipeline_traces_conform(
        p in 1usize..9,
        items in 0u64..80,
        n_stages in 0usize..5,
        window in 1usize..6,
    ) {
        let pipe = NStage {
            items,
            stages: (0..n_stages as u64).map(AddStage).collect(),
        };
        let out = run_spmd_with(p, MachineModel::ibm_sp(), RunConfig::traced(), |ctx| {
            let config = PipelineConfig { window, ..PipelineConfig::default() };
            run_pipeline(&pipe, ctx, config).1
        });
        prop_assert_eq!(out.results[0].forwarded > 0, p > 1 && items > 0, "streams");
        let trace = out.trace.expect("traced run");
        assert_conforms(&PIPELINE, &phase_kinds(&trace.ranks[0]), &format!("run_pipeline, p={p}"));
    }
}

/// The grammars are not vacuous: each rejects a plausible-but-wrong
/// trace (phase missing, out of order, or unbalanced).
#[test]
fn grammars_reject_malformed_traces() {
    use PhaseKind::*;
    assert!(!ONE_DEEP_DC.grammar().matches(&[Solve, Split, Merge]));
    assert!(!RECURSIVE_DC.grammar().matches(&[Recurse, Solve])); // missing Merge
    assert!(!MESH_SPECTRAL.grammar().matches(&[Io, GridOp])); // missing final Io
    assert!(!TASK_FARM.grammar().matches(&[Seed, Steal, Terminate])); // Steal without Work
    assert!(!PIPELINE.grammar().matches(&[Ingest, Transform, Emit])); // missing Drain
}

/// A track whose ring wrapped has lost its oldest phases; the accessor
/// refuses it with a typed error instead of answering from the rest.
#[test]
fn a_farm_track_that_dropped_events_is_refused() {
    let farm = SpawnFarm {
        roots: 30,
        spawn: 2,
    };
    let config = RunConfig::traced().with_trace_capacity(8);
    let out = run_spmd_with(3, MachineModel::ibm_sp(), config, |ctx| {
        run_farm(&farm, ctx, FarmConfig::default()).0
    });
    let trace = out.trace.expect("traced run");
    for track in &trace.ranks {
        assert!(track.dropped > 0, "an 8-event ring must wrap");
        assert_eq!(
            track.phases(),
            Err(TraceIncomplete {
                rank: track.rank,
                dropped: track.dropped,
            })
        );
    }
}
