//! Edge-case integration tests: degenerate sizes, single-process runs,
//! pathological inputs, and failure-path behaviour that the per-module
//! suites don't cover.

use parallel_archetypes::core::ExecutionMode;
use parallel_archetypes::dc::skeleton::{run_shared, run_spmd as dc_spmd};
use parallel_archetypes::dc::{convex_hull, OneDeepHull, OneDeepMergesort, Point};
use parallel_archetypes::mesh::apps::em_fdtd::{em_shared, em_spmd, EmSpec};
use parallel_archetypes::mesh::apps::poisson::{poisson_shared, poisson_spmd, sine_problem};
use parallel_archetypes::mesh::DistGrid2;
use parallel_archetypes::mp::{run_spmd, MachineModel, ProcessGrid2, ProcessGrid3};

#[test]
fn single_process_spmd_is_the_sequential_program() {
    // P = 1 must work for everything and equal the sequential version.
    let spec = sine_problem(12, 1e-3, 500);
    let seq = poisson_shared(&spec, ExecutionMode::Sequential);
    let out = run_spmd(1, MachineModel::ibm_sp(), move |ctx| {
        poisson_spmd(ctx, &spec, ProcessGrid2::new(1, 1))
    });
    assert_eq!(out.results[0].grid, seq.grid);

    let em = EmSpec::new(6, 3);
    let ref_fields = em_shared(&em);
    let out = run_spmd(1, MachineModel::ibm_sp(), move |ctx| {
        em_spmd(ctx, &em, ProcessGrid3::new(1, 1, 1))
    });
    assert_eq!(out.results[0].ez.as_ref().unwrap(), &ref_fields.ez);
}

#[test]
fn one_deep_with_more_processes_than_items() {
    let alg = OneDeepMergesort::<i64>::new();
    // 8 blocks, only 3 items total.
    let mut input = vec![Vec::new(); 8];
    input[2] = vec![5];
    input[5] = vec![1, 9];
    let out = run_shared(&alg, input.clone());
    let flat: Vec<i64> = out.iter().flatten().copied().collect();
    assert_eq!(flat, vec![1, 5, 9]);
    // SPMD too.
    let spmd = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
        let alg = OneDeepMergesort::<i64>::new();
        dc_spmd(&alg, ctx, input[ctx.rank()].clone())
    });
    let flat: Vec<i64> = spmd.results.iter().flatten().copied().collect();
    assert_eq!(flat, vec![1, 5, 9]);
}

#[test]
fn hull_of_collinear_points_through_the_skeleton() {
    // All points on one line: the hull degenerates to the two endpoints.
    let pts: Vec<Point> = (0..40)
        .map(|i| Point::new(i as f64, 2.0 * i as f64))
        .collect();
    let direct = convex_hull(&pts);
    assert_eq!(direct.len(), 2);
    let inputs: Vec<Vec<Point>> = pts.chunks(10).map(<[Point]>::to_vec).collect();
    let out = run_shared(&OneDeepHull::new(), inputs);
    for block in &out {
        assert_eq!(block, &direct);
    }
}

#[test]
fn grid_with_more_processes_than_rows_still_partitions() {
    // 10 rows over 7 processes: some blocks get 1 row, others 2.
    let pg = ProcessGrid2::new(7, 1);
    let out = run_spmd(7, MachineModel::ibm_sp(), |ctx| {
        let mut g =
            DistGrid2::from_global(ctx.rank(), pg, 10, 4, 1, -1.0, |i, j| (i * 4 + j) as f64);
        g.exchange_ghosts(ctx);
        g.gather_global(ctx)
    });
    let full = out.results[0].as_ref().unwrap();
    let expected: Vec<f64> = (0..40).map(|k| k as f64).collect();
    assert_eq!(full, &expected);
}

#[test]
fn stats_expose_comm_compute_split() {
    let out = run_spmd(4, MachineModel::workstation_network(), |ctx| {
        ctx.charge_seconds(0.5);
        ctx.all_reduce(1.0f64, |a, b| a + b);
    });
    let stats = &out.stats;
    assert_eq!(stats.per_rank.len(), 4);
    assert!(stats.total_msgs() > 0);
    assert!(stats.max_compute_time() >= 0.5);
    assert!(stats.comm_fraction() > 0.0 && stats.comm_fraction() < 1.0);
}

#[test]
fn nested_groups_after_regrouping() {
    // Split into scopes, compute, re-split differently, compute again —
    // the two generations of scopes must not see each other's traffic.
    let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
        let evens_or_odds: Vec<usize> = (ctx.rank() % 2..6).step_by(2).collect();
        let a = ctx.scoped(&evens_or_odds, 0, |ctx| {
            ctx.all_reduce(ctx.global_rank() as u64, |x, y| x + y)
        });
        let half: Vec<usize> = if ctx.rank() < 3 {
            vec![0, 1, 2]
        } else {
            vec![3, 4, 5]
        };
        let b = ctx.scoped(&half, 0, |ctx| {
            ctx.all_reduce(ctx.global_rank() as u64, |x, y| x + y)
        });
        (a, b)
    });
    // Evens {0,2,4} sum 6; odds {1,3,5} sum 9. Halves {0,1,2}=3, {3,4,5}=12.
    for (r, &(a, b)) in out.results.iter().enumerate() {
        assert_eq!(a, if r % 2 == 0 { 6 } else { 9 });
        assert_eq!(b, if r < 3 { 3 } else { 12 });
    }
}

#[test]
fn virtual_clock_is_monotone_within_a_rank() {
    let out = run_spmd(3, MachineModel::intel_delta(), |ctx| {
        let mut stamps = Vec::new();
        for _ in 0..5 {
            ctx.barrier();
            stamps.push(ctx.now());
            ctx.charge_flops(1000.0);
            stamps.push(ctx.now());
        }
        stamps
    });
    for stamps in &out.results {
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn tiny_poisson_grid_with_no_interior() {
    // A 2x2 grid is all boundary: zero iterations of actual work, but the
    // solver must terminate and agree across versions.
    let spec = sine_problem(2, 1e-6, 50);
    let seq = poisson_shared(&spec, ExecutionMode::Sequential);
    let out = run_spmd(2, MachineModel::ibm_sp(), move |ctx| {
        poisson_spmd(ctx, &spec, ProcessGrid2::new(1, 2))
    });
    assert_eq!(out.results[0].grid, seq.grid);
    assert_eq!(out.results[0].iters, seq.iters);
}
