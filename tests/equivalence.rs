//! Cross-crate integration tests of the paper's central claim: the
//! archetype transformations preserve semantics, so the sequential
//! version 1, the distributed-memory version 2 and the sequential
//! reference algorithm of every application compute the same thing — and
//! that rerunning any archetype at any process count reproduces results,
//! clocks and statistics bit for bit, however the host schedules the
//! ranks.

use proptest::prelude::*;

use parallel_archetypes::compose::{
    forecast_input, forecast_plan, run_plan, try_run_plan, ForecastConfig, ParMode, Plan,
    PoissonJob, SweepJob, Value,
};
use parallel_archetypes::core::ExecutionMode;
use parallel_archetypes::dc::skeleton::{run_shared, run_spmd as dc_spmd};
use parallel_archetypes::dc::{
    concat_skyline, global_closest, sequential_closest, sequential_mergesort, sequential_skyline,
    Building, OneDeepClosest, OneDeepHull, OneDeepMergesort, OneDeepQuicksort, OneDeepSkyline,
    Point,
};
use parallel_archetypes::farm::apps::sweep::GridSweepFarm;
use parallel_archetypes::mesh::apps::airshed::{airshed_shared, airshed_spmd, AirshedSpec};
use parallel_archetypes::mesh::apps::cfd::{cfd_shared, cfd_spmd, shock_sine_init, CfdSpec};
use parallel_archetypes::mesh::apps::poisson::{poisson_shared, poisson_spmd, sine_problem};
use parallel_archetypes::mp::{run_spmd, run_spmd_with, MachineModel, ProcessGrid2, RunConfig};

mod common;
use common::{
    assert_bit_identical_runs, grid_for, phase_kinds, with_phases, AddStage, NStage, SpawnFarm,
};

fn int_blocks(nblocks: usize, per: usize, seed: i64) -> Vec<Vec<i64>> {
    (0..nblocks)
        .map(|b| {
            (0..per)
                .map(|i| ((b * per + i) as i64 * 48271 + seed) % 65521 - 32000)
                .collect()
        })
        .collect()
}

#[test]
fn mergesort_three_way_equivalence() {
    let alg = OneDeepMergesort::<i64>::new();
    for p in [1usize, 2, 5, 8] {
        let input = int_blocks(p, 400, 7);
        let seq = run_shared(&alg, input.clone());
        let spmd = run_spmd(p, MachineModel::intel_delta(), |ctx| {
            let alg = OneDeepMergesort::<i64>::new();
            dc_spmd(&alg, ctx, input[ctx.rank()].clone())
        })
        .results;
        assert_eq!(seq, spmd, "p={p}");
        // And all agree with the reference sequential algorithm.
        let flat: Vec<i64> = seq.into_iter().flatten().collect();
        let reference = sequential_mergesort(input.into_iter().flatten().collect());
        assert_eq!(flat, reference);
    }
}

#[test]
fn quicksort_three_way_equivalence() {
    let alg = OneDeepQuicksort::<i64>::new();
    for p in [1usize, 3, 4, 7] {
        let input = int_blocks(p, 300, 99);
        let seq = run_shared(&alg, input.clone());
        let spmd = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            let alg = OneDeepQuicksort::<i64>::new();
            dc_spmd(&alg, ctx, input[ctx.rank()].clone())
        })
        .results;
        assert_eq!(seq, spmd, "p={p}");
        let flat: Vec<i64> = seq.into_iter().flatten().collect();
        let reference = sequential_mergesort(input.into_iter().flatten().collect());
        assert_eq!(flat, reference, "p={p}");
    }
}

#[test]
fn skyline_three_way_equivalence() {
    let inputs: Vec<Vec<Building>> = (0..5)
        .map(|b| {
            (0..40)
                .map(|i| {
                    let s = (b * 40 + i) as f64;
                    let left = (s * 3.7) % 200.0;
                    Building::new(left, 1.0 + (s * 7.1) % 30.0, left + 1.0 + (s * 2.3) % 12.0)
                })
                .collect()
        })
        .collect();
    let all: Vec<Building> = inputs.iter().flatten().copied().collect();
    let seq = run_shared(&OneDeepSkyline, inputs.clone());
    let spmd = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
        dc_spmd(&OneDeepSkyline, ctx, inputs[ctx.rank()].clone())
    })
    .results;
    assert_eq!(seq, spmd);
    assert_eq!(concat_skyline(&seq), sequential_skyline(&all));
}

#[test]
fn hull_and_closest_pair_equivalence() {
    let pts: Vec<Point> = (0..400)
        .map(|i| {
            let s = i as f64;
            Point::new((s * 37.1) % 500.0, (s * 59.3) % 500.0)
        })
        .collect();
    let inputs: Vec<Vec<Point>> = pts.chunks(100).map(<[Point]>::to_vec).collect();

    let hull_seq = run_shared(&OneDeepHull::new(), inputs.clone());
    let hull_spmd = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
        dc_spmd(&OneDeepHull::new(), ctx, inputs[ctx.rank()].clone())
    })
    .results;
    assert_eq!(hull_seq, hull_spmd);

    let close_seq = run_shared(&OneDeepClosest::new(), inputs.clone());
    let close_spmd = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
        dc_spmd(&OneDeepClosest::new(), ctx, inputs[ctx.rank()].clone())
    })
    .results;
    let expected = sequential_closest(&pts);
    assert!((global_closest(&close_seq) - expected).abs() < 1e-9);
    assert!((global_closest(&close_spmd) - expected).abs() < 1e-9);
}

#[test]
fn poisson_equivalence_across_process_grids() {
    let spec = sine_problem(18, 1e-4, 2_000);
    let reference = poisson_shared(&spec, ExecutionMode::Sequential);
    for (px, py) in [(1, 2), (3, 3), (2, 4)] {
        let pg = ProcessGrid2::new(px, py);
        let out = run_spmd(pg.len(), MachineModel::cray_t3d(), move |ctx| {
            poisson_spmd(ctx, &spec, pg)
        });
        assert_eq!(out.results[0].iters, reference.iters, "{px}x{py}");
        assert_eq!(
            out.results[0].grid.as_ref().unwrap(),
            reference.grid.as_ref().unwrap(),
            "{px}x{py}"
        );
    }
}

#[test]
fn cfd_equivalence_on_workstation_network_model() {
    // The machine model must never affect results — only timing.
    let spec = CfdSpec {
        nx: 20,
        ny: 10,
        lx: 1.0,
        ly: 0.5,
        cfl: 0.4,
        steps: 6,
    };
    let reference = cfd_shared(&spec, |i, j| shock_sine_init(&spec, i, j));
    for model in [
        MachineModel::intel_delta(),
        MachineModel::workstation_network(),
        MachineModel::zero_comm(),
    ] {
        let pg = ProcessGrid2::new(2, 2);
        let out = run_spmd(4, model, move |ctx| {
            cfd_spmd(ctx, &spec, pg, |i, j| shock_sine_init(&spec, i, j))
        });
        assert_eq!(
            out.results[0].grid.as_ref().unwrap(),
            reference.grid.as_ref().unwrap(),
            "{}",
            model.name
        );
    }
}

#[test]
fn airshed_equivalence() {
    let spec = AirshedSpec {
        nx: 14,
        ny: 12,
        wind: (0.3, -0.2),
        diffusion: 0.04,
        j_rate: 0.3,
        k_rate: 2.0,
        dt: 0.2,
        steps: 10,
        source: (7, 6, 0.5),
    };
    let reference = airshed_shared(&spec);
    let pg = ProcessGrid2::new(2, 3);
    let out = run_spmd(6, MachineModel::ibm_sp(), move |ctx| {
        airshed_spmd(ctx, &spec, pg)
    });
    assert_eq!(
        out.results[0].grid.as_ref().unwrap(),
        reference.grid.as_ref().unwrap()
    );
    assert_eq!(out.results[0].peak_o3, reference.peak_o3);
}

#[test]
fn recursive_dc_runs_are_bit_identical() {
    // Determinism of the recursive skeleton on nested groups: repeated
    // runs of the same program produce bit-identical results, virtual
    // clocks, statistics, and per-rank phase traces.
    use parallel_archetypes::dc::{run_spmd_recursive, CutoffPolicy, RecursiveMergesort};

    let input = int_blocks(1, 3000, 17).pop().unwrap();
    let policy = CutoffPolicy::new(2, 64, 10);
    let a = assert_bit_identical_runs("recursive dc", || {
        let inp = input.clone();
        // Results, per-rank phase traces, and traffic statistics all
        // ride inside the snapshot comparison.
        with_phases(run_spmd_with(
            6,
            MachineModel::intel_delta(),
            RunConfig::traced(),
            move |ctx| {
                let local = (ctx.rank() == 0).then(|| inp.clone());
                let result = run_spmd_recursive(
                    &RecursiveMergesort::<i64>::new(),
                    ctx,
                    local,
                    &policy,
                    None,
                );
                let stats = ctx.stats();
                (result, stats.msgs_sent, stats.bytes_sent)
            },
        ))
    });
    // And the answer is right.
    let reference = sequential_mergesort(input.clone());
    assert_eq!(a.results[0].0 .0.as_ref().unwrap(), &reference);
}

#[test]
fn recursive_dc_result_is_machine_model_invariant() {
    // The machine model changes clocks and the model-derived cutoff, but
    // never the result.
    use parallel_archetypes::dc::perfmodel::recursion_policy;
    use parallel_archetypes::dc::{run_spmd_recursive, RecursiveMergesort};

    let input = int_blocks(1, 4000, 5).pop().unwrap();
    let reference = sequential_mergesort(input.clone());
    for model in [
        MachineModel::cray_t3d(),
        MachineModel::ibm_sp(),
        MachineModel::workstation_network(),
    ] {
        let policy = recursion_policy(&model, 2, 8);
        let inp = input.clone();
        let out = run_spmd(8, model, move |ctx| {
            let local = (ctx.rank() == 0).then(|| inp.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
        });
        assert_eq!(
            out.results[0].as_ref().unwrap(),
            &reference,
            "{}",
            model.name
        );
    }
}

#[test]
fn pipeline_runs_are_bit_identical() {
    // Determinism of the pipeline skeleton: repeated runs of the same
    // stream produce bit-identical summaries, statistics, virtual
    // clocks, and per-rank phase traces — reusing the shared snapshot
    // helper rather than a fourth hand-rolled copy.
    use parallel_archetypes::pipeline::apps::ImageChain;
    use parallel_archetypes::pipeline::{run_pipeline, run_sequential, PipelineConfig};

    let chain = ImageChain::new(96, 64, 16, 6);
    let a = assert_bit_identical_runs("pipeline image chain", || {
        let c = chain.clone();
        with_phases(run_spmd_with(
            7,
            MachineModel::intel_delta(),
            RunConfig::traced(),
            move |ctx| {
                let (summary, stats) = run_pipeline(&c, ctx, PipelineConfig::default());
                (summary, stats, ctx.stats().msgs_sent)
            },
        ))
    });
    // And the summary matches the host-side sequential oracle.
    let (reference, _) = run_sequential(&chain);
    assert_eq!(a.results[0].0 .0, reference);
}

#[test]
fn pipeline_result_is_machine_model_and_config_invariant() {
    // The machine model and the process count change clocks and the
    // model-derived layout (one rank, paired, fused or split segments,
    // replica counts), but never a bit of the emitted result: not for
    // the image chain, the synthetic top-k stream or the forecast's.
    use parallel_archetypes::pipeline::apps::TopKStream;
    use parallel_archetypes::pipeline::{run_pipeline, run_sequential, PipelineConfig};

    let chain = common::image_chain();
    let synthetic = TopKStream::new(48, 64, 8, 32, 3.0);
    let forecast = common::forecast_topk();
    let chain_ref = common::image_bits(&run_sequential(&chain).0);
    let synthetic_ref = common::digest_bits(&run_sequential(&synthetic).0);
    let forecast_ref = common::digest_bits(&run_sequential(&forecast).0);
    for model in [
        MachineModel::cray_t3d(),
        MachineModel::ibm_sp(),
        MachineModel::workstation_network(),
        MachineModel::zero_comm(),
    ] {
        for p in 1..=8usize {
            for window in [1usize, 8] {
                let out = run_spmd(p, model, |ctx| {
                    let config = PipelineConfig {
                        window,
                        ..PipelineConfig::default()
                    };
                    (
                        run_pipeline(&chain, ctx, config).0,
                        run_pipeline(&synthetic, ctx, config).0,
                        run_pipeline(&forecast, ctx, config).0,
                    )
                });
                for (rank, (image, digest, topk)) in out.results.iter().enumerate() {
                    let at = format!("{} p={p} window={window} rank={rank}", model.name);
                    assert_eq!(common::image_bits(image), chain_ref, "image chain, {at}");
                    assert_eq!(
                        common::digest_bits(digest),
                        synthetic_ref,
                        "top-k stream, {at}"
                    );
                    assert_eq!(
                        common::digest_bits(topk),
                        forecast_ref,
                        "forecast top-k, {at}"
                    );
                }
            }
        }
    }
}

#[test]
fn virtual_time_is_machine_dependent_but_results_are_not() {
    let input = int_blocks(4, 500, 3);
    let run_on = |model: MachineModel| {
        run_spmd(4, model, |ctx| {
            let alg = OneDeepMergesort::<i64>::new();
            dc_spmd(&alg, ctx, input[ctx.rank()].clone())
        })
    };
    let fast = run_on(MachineModel::cray_t3d());
    let slow = run_on(MachineModel::workstation_network());
    assert_eq!(fast.results, slow.results, "results identical");
    assert!(
        fast.elapsed_virtual < slow.elapsed_virtual,
        "the T3D model must be faster than Ethernet workstations"
    );
}

// ---------------------------------------------------------------------------
// Composed plans: the same determinism contract as the atom archetypes.
// ---------------------------------------------------------------------------

fn forecast_mini() -> ForecastConfig {
    ForecastConfig {
        sweep_points: 32,
        mesh_n: 14,
        mesh_iters: 60,
    }
}

#[test]
fn composed_plan_runs_are_bit_identical() {
    for p in [1usize, 4, 6] {
        assert_bit_identical_runs(&format!("forecast composite p={p}"), || {
            run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                let (value, stats) =
                    run_plan(ctx, &forecast_plan(forecast_mini()), forecast_input());
                (value, stats, ctx.now().to_bits())
            })
        });
    }
}

#[test]
fn composed_plan_results_and_stats_are_machine_model_invariant() {
    let run_on = |model: MachineModel| {
        run_spmd(6, model, |ctx| {
            run_plan(ctx, &forecast_plan(forecast_mini()), forecast_input())
        })
    };
    let sp = run_on(MachineModel::ibm_sp());
    let t3d = run_on(MachineModel::cray_t3d());
    let delta = run_on(MachineModel::intel_delta());
    assert_eq!(sp.results, t3d.results, "ibm_sp vs cray_t3d");
    assert_eq!(sp.results, delta.results, "ibm_sp vs intel_delta");
    assert!(
        sp.elapsed_virtual != t3d.elapsed_virtual,
        "clocks may (and do) differ across machine models"
    );
}

#[test]
fn composed_plan_results_and_stats_are_process_count_and_schedule_invariant() {
    let reference = run_spmd(1, MachineModel::ibm_sp(), |ctx| {
        run_plan(ctx, &forecast_plan(forecast_mini()), forecast_input())
    })
    .results[0]
        .clone();
    for p in [2usize, 3, 5, 7, 8] {
        for mode in [ParMode::Allocate, ParMode::Serialize] {
            let out = run_spmd(p, MachineModel::cray_t3d(), move |ctx| {
                try_run_plan(ctx, &forecast_plan(forecast_mini()), forecast_input(), mode)
            });
            for (r, got) in out.results.iter().enumerate() {
                assert_eq!(got, &Ok(reference.clone()), "p={p} mode={mode:?} rank={r}");
            }
        }
    }
}

/// `2 × (sweep ∥ 2 × poisson)`: sections nested three deep, so at p = 8
/// branch roots sit on ranks that are roots of nothing else.
fn nested_plan() -> Plan {
    let sweep = Plan::atom(SweepJob {
        farm: GridSweepFarm {
            lo: 0.0,
            hi: 2.0,
            points: 24,
        },
    });
    let poisson = Plan::atom(PoissonJob {
        spec: sine_problem(10, 1e-14, 12),
    });
    Plan::replicate(2, Plan::par(vec![sweep, Plan::replicate(2, poisson)]))
}

#[test]
fn a_traced_plan_run_is_the_untraced_run_bit_for_bit() {
    // Phases are a diagnostic, recorded for a reader and never priced as
    // traffic: tracing the run changes no value, no statistic, no byte
    // sent and no clock.
    let plans = [
        ("forecast", forecast_plan(forecast_mini()), forecast_input()),
        ("nested", nested_plan(), Value::Unit),
    ];
    for (name, plan, input) in &plans {
        for p in 1usize..=8 {
            for mode in [ParMode::Allocate, ParMode::Serialize] {
                let run = |run_config: RunConfig| {
                    run_spmd_with(p, MachineModel::ibm_sp(), run_config, |ctx| {
                        try_run_plan(ctx, plan, input.clone(), mode)
                    })
                };
                let (plain, traced) = (run(RunConfig::default()), run(RunConfig::traced()));
                let at = format!("{name} p={p} {mode:?}");
                let trace = traced.trace.as_ref().expect("traced run");
                assert!(
                    !phase_kinds(&trace.ranks[0]).is_empty(),
                    "{at}: the trace was recorded"
                );
                assert_eq!(
                    plain.results, traced.results,
                    "{at}: value and ComposeStats"
                );
                assert_eq!(
                    plain.stats.per_rank, traced.stats.per_rank,
                    "{at}: RankStats"
                );
                let bits = |ts: &[f64]| ts.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&plain.rank_times),
                    bits(&traced.rank_times),
                    "{at}: per-rank clocks"
                );
                assert_eq!(
                    plain.elapsed_virtual.to_bits(),
                    traced.elapsed_virtual.to_bits(),
                    "{at}: elapsed virtual time"
                );
            }
        }
    }
    // The panicking entry point is the same run.
    let (plan, input) = (&plans[1].1, &plans[1].2);
    let plain = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
        run_plan(ctx, plan, input.clone())
    });
    let configured = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
        try_run_plan(ctx, plan, input.clone(), ParMode::Allocate).expect("no fault plan")
    });
    assert_eq!(plain.results, configured.results);
    assert_eq!(plain.stats.per_rank, configured.stats.per_rank);
}

// ---------------------------------------------------------------------------
// Rerun determinism, every archetype × p ∈ 1..8, over random inputs: ranks
// are real threads racing over lock-free queues, so deliveries interleave
// differently every run; nothing observable may change.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn farm_reruns_are_bit_identical(
        p in 1usize..9,
        points in 1u32..48,
        steal in any::<bool>(),
        roots in 0u64..24,
        spawn in 0u64..5,
    ) {
        use parallel_archetypes::farm::apps::GridSweepFarm;
        use parallel_archetypes::farm::{run_farm, FarmConfig};

        // Score-table farm: irregular costs, order-canonicalized output.
        let farm = GridSweepFarm { lo: -1.0, hi: 2.0, points };
        assert_bit_identical_runs(&format!("grid sweep farm p={p}"), || {
            let farm = farm.clone();
            run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                let config = FarmConfig { steal, ..FarmConfig::default() };
                let (out, stats) = run_farm(&farm, ctx, config);
                // Scores to bits: "bit-identical" means exactly that.
                let bits: Vec<(u32, u64)> =
                    out.into_iter().map(|(i, s)| (i, s.to_bits())).collect();
                (bits, stats.executed, ctx.stats().msgs_sent, ctx.stats().bytes_sent)
            })
        });
        // Dynamic task spawning, with and without stealing; the phase
        // trace must be the same sentence every run.
        let farm = SpawnFarm { roots, spawn };
        assert_bit_identical_runs(&format!("spawn farm p={p}"), || {
            with_phases(run_spmd_with(p, MachineModel::cray_t3d(), RunConfig::traced(), |ctx| {
                let config = FarmConfig { steal, ..FarmConfig::default() };
                run_farm(&farm, ctx, config).0
            }))
        });
    }

    #[test]
    fn recursive_dc_reruns_are_bit_identical(
        p in 1usize..9,
        n in 1usize..600,
        branching in 2usize..4,
        cutoff in 1usize..64,
        depth in 0usize..4,
    ) {
        use parallel_archetypes::dc::{run_spmd_recursive, CutoffPolicy, RecursiveMergesort};

        let input: Vec<i64> = (0..n as i64).map(|i| (i * 48271 + 11) % 9973 - 4000).collect();
        let policy = CutoffPolicy::new(branching, cutoff, depth);
        assert_bit_identical_runs(&format!("recursive dc p={p} n={n}"), || {
            let inp = input.clone();
            run_spmd(p, MachineModel::intel_delta(), move |ctx| {
                let local = (ctx.rank() == 0).then(|| inp.clone());
                let sorted = run_spmd_recursive(
                    &RecursiveMergesort::<i64>::new(), ctx, local, &policy, None,
                );
                (sorted, ctx.stats().msgs_sent, ctx.stats().bytes_sent)
            })
        });
    }

    #[test]
    fn pipeline_reruns_are_bit_identical(
        p in 1usize..9,
        items in 0u64..80,
        n_stages in 0usize..5,
        window in 1usize..6,
    ) {
        use parallel_archetypes::pipeline::{run_pipeline, PipelineConfig};

        let pipe = NStage {
            items,
            stages: (0..n_stages as u64).map(AddStage).collect(),
        };
        let run = assert_bit_identical_runs(
            &format!("pipeline p={p} items={items} stages={n_stages}"),
            || {
                run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                    let config = PipelineConfig { window, ..PipelineConfig::default() };
                    let (out, stats) = run_pipeline(&pipe, ctx, config);
                    (out, stats, ctx.stats().msgs_sent)
                })
            },
        );
        prop_assert_eq!(run.results[0].1.forwarded > 0, p > 1 && items > 0, "streams");
    }

    #[test]
    fn mesh_reruns_are_bit_identical(
        p in 1usize..9,
        n in 8usize..20,
        iter_cap in 1usize..60,
    ) {
        let spec = sine_problem(n, 1e-6, iter_cap);
        let pg = grid_for(p);
        assert_bit_identical_runs(&format!("poisson mesh p={p} n={n}"), || {
            run_spmd(p, MachineModel::cray_t3d(), move |ctx| {
                let out = poisson_spmd(ctx, &spec, pg);
                let grid_bits: Option<Vec<u64>> = out
                    .grid
                    .map(|g| g.iter().map(|x| x.to_bits()).collect());
                (out.iters, grid_bits)
            })
        });
    }

    #[test]
    fn composed_plan_reruns_are_bit_identical(
        p in 1usize..9,
        sweep_points in 8u32..24,
        mesh_n in 8usize..14,
        mesh_iters in 5usize..30,
    ) {
        // The flagship composite — (farm ∥ mesh) → recursive DC →
        // pipeline — over the model-driven allocator: scoped contexts,
        // tag namespaces, and subgroup collectives all cross the mesh.
        let cfg = ForecastConfig { sweep_points, mesh_n, mesh_iters };
        assert_bit_identical_runs(&format!("forecast composite p={p}"), || {
            run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                let (value, stats) = run_plan(ctx, &forecast_plan(cfg), forecast_input());
                (value, stats, ctx.now().to_bits())
            })
        });
    }
}

/// Sibling scopes that reuse identical tags stay isolated, and the
/// outcome does not depend on how their traffic interleaves.
#[test]
fn scoped_sibling_isolation_reruns_are_bit_identical() {
    let out = assert_bit_identical_runs("scoped siblings", || {
        run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let half: Vec<usize> = if ctx.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            let marker = (ctx.rank() / 2) as u64;
            let got = ctx.scoped(&half, 1, |ctx| {
                let partner = 1 - ctx.rank();
                ctx.send(partner, 40, marker * 100);
                ctx.send(partner, 41, marker);
                let late: u64 = ctx.recv(partner, 41);
                let early: u64 = ctx.recv(partner, 40);
                (early, late)
            });
            let world = ctx.all_reduce(1u64, |a, b| a + b);
            (got, world, ctx.now().to_bits())
        })
    });
    assert!(out.wall_us > 0, "every run reports its measured wall time");
}
