//! The farm's queue *is* its schedule: which task a rank pops next and
//! which tasks it donates decide every later round. These tests pin the
//! schedule as exact integers (statistics) and exact bit patterns
//! (per-rank virtual clocks), recorded while the queue was still a
//! `BinaryHeap<Entry>`, so an order slip in the priority-bucketed queue
//! shows as an integer diff and not as a timing.

use parallel_archetypes::bnb::{solve_farm, BnbStats, Knapsack};
use parallel_archetypes::farm::apps::{GridSweepFarm, SweepFarm};
use parallel_archetypes::farm::{run_farm, Farm, FarmConfig, FarmStats};
use parallel_archetypes::mp::{run_spmd, MachineModel, SpmdResult};

mod common;
use common::assert_bit_identical_runs;

/// The benchmark's 19-item instance (`apps_fixed_size`): even weights,
/// value = weight, odd capacity, so the bound equals the capacity at
/// every node and the frontier is one enormous tie.
fn knapsack_run(p: usize) -> SpmdResult<(u64, BnbStats, FarmStats)> {
    let items: Vec<(u64, u64)> = (0..19u64)
        .map(|i| {
            let w = (i * 7 % 30 + 1) * 2;
            (w, w)
        })
        .collect();
    let capacity = (items.iter().map(|(w, _)| w).sum::<u64>() / 2) | 1;
    run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
        let problem = Knapsack::new(&items, capacity);
        let (best, bnb, farm) = solve_farm(&problem, ctx, FarmConfig::default());
        (best as u64, bnb, farm)
    })
}

#[test]
fn knapsack_schedule_is_the_recorded_one() {
    let expected = [
        (
            1,
            BnbStats {
                expanded: 166_584,
                pruned: 84_881,
            },
            FarmStats {
                seeded: 1,
                executed: 167_560,
                spawned: 251_465,
                dropped: 83_906,
                stolen: 0,
                steal_exchanges: 0,
                rounds: 103,
            },
        ),
        (
            2,
            BnbStats {
                expanded: 164_668,
                pruned: 82_965,
            },
            FarmStats {
                seeded: 1,
                executed: 165_797,
                spawned: 206_967,
                dropped: 41_171,
                stolen: 38_726,
                steal_exchanges: 86,
                rounds: 43,
            },
        ),
    ];
    for (p, bnb, farm) in expected {
        let out = knapsack_run(p);
        for got in &out.results {
            assert_eq!(*got, (286, bnb, farm), "p={p}");
        }
    }
    assert_bit_identical_runs("knapsack p=4", || knapsack_run(4));
}

/// Statistics and per-rank final clocks (as bit patterns) of `farm` under
/// `FarmConfig::default()` on the IBM SP model.
fn farm_run<F: Farm>(farm: &F, p: usize) -> (FarmStats, Vec<u64>) {
    let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
        run_farm(farm, ctx, FarmConfig::default()).1
    });
    assert!(out.results.iter().all(|s| *s == out.results[0]));
    (
        out.results[0],
        out.rank_times.iter().map(|t| t.to_bits()).collect(),
    )
}

fn stats(
    seeded: u64,
    executed: u64,
    spawned: u64,
    dropped: u64,
    stolen: u64,
    steal_exchanges: u64,
    rounds: u64,
) -> FarmStats {
    FarmStats {
        seeded,
        executed,
        spawned,
        dropped,
        stolen,
        steal_exchanges,
        rounds,
    }
}

#[test]
fn sweep_schedules_are_the_recorded_ones() {
    // All-equal priorities (pure FIFO): the forecast's sweep atom.
    let grid = GridSweepFarm {
        lo: 0.0,
        hi: 4.0,
        points: 6000,
    };
    let recorded: [(usize, FarmStats, &[u64]); 3] = [
        (1, stats(6000, 6000, 0, 0, 0, 0, 77), &[0x3fd922bb15eb23e0]),
        (
            2,
            stats(6000, 6000, 0, 0, 0, 44, 22),
            &[0x3fc9fccd083d4187, 0x3fc9fb7010eb65f2],
        ),
        (
            4,
            stats(6000, 6000, 0, 0, 0, 8, 2),
            &[
                0x3fba1c3bdd448e0d,
                0x3fba1bfefcac13b3,
                0x3fba1ef5cbe84536,
                0x3fba1c3bdd448e0d,
            ],
        ),
    ];
    for (p, want, clocks) in recorded {
        let (got, got_clocks) = farm_run(&grid, p);
        assert_eq!(got, want, "grid sweep p={p}");
        assert_eq!(got_clocks, clocks, "grid sweep clocks p={p}");
    }

    // Mostly distinct priorities, spawning and hint-dropping.
    let adaptive = SweepFarm {
        lo: 0.0,
        hi: 4.0,
        seeds: 64,
        max_depth: 12,
    };
    let recorded: [(usize, FarmStats, &[u64]); 3] = [
        (1, stats(64, 698, 646, 12, 0, 0, 3), &[0x3f86930454229702]),
        (
            2,
            stats(64, 758, 702, 8, 71, 8, 4),
            &[0x3f814ac5f6efb5ed, 0x3f8135528ac8a16f],
        ),
        (
            4,
            stats(64, 945, 978, 97, 48, 12, 3),
            &[
                0x3f90e8ed1a0cd2d8,
                0x3f90e7bc3c5bd0e7,
                0x3f90f3a6d0205d17,
                0x3f90e8ed1a0cd2d8,
            ],
        ),
    ];
    for (p, want, clocks) in recorded {
        let (got, got_clocks) = farm_run(&adaptive, p);
        assert_eq!(got, want, "adaptive sweep p={p}");
        assert_eq!(got_clocks, clocks, "adaptive sweep clocks p={p}");
    }
}
