//! Integration tests of the task-farm archetype: phase-structure
//! assertions (the paper's "archetype as checkable artifact" claim,
//! extended to the farm), the branch-and-bound port, and cross-app
//! determinism under virtual time.

use parallel_archetypes::bnb::{knapsack_dp, solve_farm, solve_sequential, Knapsack};
use parallel_archetypes::core::archetype::TASK_FARM;
use parallel_archetypes::core::PhaseKind;
use parallel_archetypes::farm::apps::{GridSweepFarm, MandelbrotFarm, SweepFarm};
use parallel_archetypes::farm::{run_farm, Farm, FarmConfig};
use parallel_archetypes::mp::{run_spmd, run_spmd_with, MachineModel, RunConfig};

use proptest::collection::vec;
use proptest::prelude::*;

mod common;
use common::{assert_bit_identical_runs, phase_kinds};

#[test]
fn farm_archetype_metadata_is_exposed() {
    assert_eq!(TASK_FARM.name, "task-farm");
    assert_eq!(
        TASK_FARM.phases(),
        &[
            PhaseKind::Seed,
            PhaseKind::Work,
            PhaseKind::Steal,
            PhaseKind::Detect,
            PhaseKind::Recover,
            PhaseKind::Terminate
        ]
    );
    assert!(TASK_FARM
        .communication
        .iter()
        .any(|c| c.contains("termination")));
}

#[test]
fn farm_run_follows_the_archetype_phase_pattern() {
    let farm = MandelbrotFarm::classic(32, 32, 8, 100);
    let out = run_spmd_with(4, MachineModel::ibm_sp(), RunConfig::traced(), |ctx| {
        run_farm(&farm, ctx, FarmConfig::default()).0
    });
    let vocabulary = TASK_FARM.phases();
    for track in &out.trace.expect("traced run").ranks {
        let kinds = phase_kinds(track);
        assert_eq!(kinds.first(), Some(&PhaseKind::Seed));
        assert_eq!(kinds.last(), Some(&PhaseKind::Terminate));
        assert!(kinds.contains(&PhaseKind::Work));
        assert!(kinds.contains(&PhaseKind::Steal));
        // Every phase the farm records belongs to its archetype vocabulary.
        assert!(kinds.iter().all(|k| vocabulary.contains(k)));
    }
}

#[test]
fn knapsack_farm_port_matches_oracle_and_is_deterministic() {
    let items: Vec<(u64, u64)> = vec![
        (12, 24),
        (7, 13),
        (11, 23),
        (8, 15),
        (9, 16),
        (5, 11),
        (14, 28),
        (6, 11),
        (10, 19),
        (4, 9),
        (13, 25),
        (3, 7),
    ];
    let cap = 45;
    let oracle = knapsack_dp(&items, cap) as f64;
    let (seq, _) = solve_sequential(&Knapsack::new(&items, cap));
    assert_eq!(seq, oracle);

    let mut reference = None;
    for p in [1usize, 2, 4, 8] {
        let items = items.clone();
        // Bit-identical stats and clocks across repeated runs (the
        // shared snapshot helper), identical optima on every rank and
        // every process count.
        let a = assert_bit_identical_runs(&format!("knapsack farm p={p}"), || {
            let items = items.clone();
            run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                solve_farm(&Knapsack::new(&items, cap), ctx, FarmConfig::default())
            })
        });
        assert!(a.results.iter().all(|&(v, _, _)| v == oracle), "p={p}");
        if p == 1 {
            reference = Some(a.results[0].0);
        }
        assert_eq!(a.results[0].0, reference.unwrap());
    }
}

#[test]
fn mandelbrot_renders_identically_at_every_process_count() {
    let farm = MandelbrotFarm::seahorse(96, 64, 16, 400);
    let mut checksum = None;
    for p in [1usize, 3, 6, 8] {
        let f = farm.clone();
        let out = run_spmd(p, MachineModel::intel_delta(), move |ctx| {
            run_farm(&f, ctx, FarmConfig::default()).0
        });
        let c = out.results[0].checksum;
        assert!(out.results.iter().all(|o| o.checksum == c));
        if let Some(expected) = checksum {
            assert_eq!(c, expected, "p={p} rendered a different image");
        }
        checksum = Some(c);
    }
}

#[test]
fn sweep_finds_the_same_maximum_regardless_of_machine_model() {
    let sweep = SweepFarm {
        lo: 0.0,
        hi: 3.0,
        seeds: 16,
        max_depth: 5,
    };
    let mut best = None;
    for model in [
        MachineModel::ibm_sp(),
        MachineModel::cray_t3d(),
        MachineModel::workstation_network(),
    ] {
        let s = sweep.clone();
        let out = run_spmd(4, model, move |ctx| {
            run_farm(&s, ctx, FarmConfig::default()).0
        });
        let score = out.results[0].best_score;
        if let Some(expected) = best {
            assert_eq!(score, expected, "model {} diverged", model.name);
        }
        best = Some(score);
    }
}

#[test]
fn farm_virtual_time_scales_with_ranks() {
    // The acceptance-style check at test scale: a compute-heavy farm
    // must show real virtual-time speedup from 1 to 8 ranks.
    let farm = MandelbrotFarm::seahorse(128, 96, 16, 1000);
    let time = |p: usize| {
        let f = farm.clone();
        run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            run_farm(&f, ctx, FarmConfig::default()).0
        })
        .elapsed_virtual
    };
    let t1 = time(1);
    let t8 = time(8);
    assert!(
        t1 / t8 >= 3.0,
        "8-rank farm should be >= 3x the 1-rank baseline at test scale (got {:.2}x)",
        t1 / t8
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `GridSweepFarm::reduce` merges into its left argument; whatever
    // two disjoint index-sorted runs a schedule hands it, in either
    // order, the table must be the plain two-way merge. `shape` forces
    // the runs a farm actually produces beside the arbitrary interleave:
    // all of one side below the other (a rank's own deal, or a steal
    // from the far end) and either side empty.
    #[test]
    fn grid_sweep_reduce_is_the_two_way_merge_in_either_order(
        owner in vec(0u8..3, 0..120),
        shape in 0u8..5,
        cut in 0usize..120,
    ) {
        // Scores name the side they came from, so a misplaced or
        // duplicated entry cannot cancel out.
        let indices: Vec<u32> = (0..owner.len() as u32)
            .filter(|&i| owner[i as usize] != 2)
            .collect();
        let cut = cut.min(indices.len());
        let in_a = |pos: usize, i: u32| match shape {
            0 => owner[i as usize] == 0,
            1 => pos < cut,
            2 => pos >= cut,
            3 => false,
            _ => true,
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (pos, &i) in indices.iter().enumerate() {
            if in_a(pos, i) {
                a.push((i, f64::from(i)));
            } else {
                b.push((i, f64::from(i) + 0.25));
            }
        }

        let mut merged = [a.clone(), b.clone()].concat();
        merged.sort_by_key(|&(i, _)| i);

        let farm = GridSweepFarm { lo: 0.0, hi: 1.0, points: 1 };
        prop_assert_eq!(&farm.reduce(a.clone(), b.clone()), &merged);
        prop_assert_eq!(&farm.reduce(b, a), &merged);
    }
}
