//! The farm's queue *is* its schedule: which task a rank pops next and
//! which tasks it donates decide every later round. These tests pin the
//! schedule as exact integers (statistics) and exact bit patterns
//! (per-rank virtual clocks), recorded while the queue was still a
//! `BinaryHeap<Entry>`, so an order slip in the priority-bucketed queue
//! shows as an integer diff and not as a timing.
//!
//! The Mandelbrot and image-chain pins were recorded from the one-pixel
//! escape loop and the per-cell `at`/`set` stencils, before the kernels
//! were rewritten to lockstep lanes (eight, then sixteen in AVX2
//! registers) and row slices: the renders, raw stage outputs and
//! per-rank clocks must not move by a bit. The image chain's clocks at
//! p ≥ 2 were re-recorded once since, when the pipeline planner changed
//! layouts; the test says which moved and why.

use parallel_archetypes::bnb::{solve_farm, BnbStats, Knapsack};
use parallel_archetypes::farm::apps::{GridSweepFarm, MandelOut, MandelbrotFarm, SweepFarm};
use parallel_archetypes::farm::{run_farm, Farm, FarmConfig, FarmStats};
use parallel_archetypes::mp::{run_spmd, MachineModel, SpmdResult};
use parallel_archetypes::pipeline::apps::ImageChain;
use parallel_archetypes::pipeline::{run_pipeline, Pipeline, PipelineConfig};

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
    // All-equal priorities (pure FIFO): the forecast's sweep atom, whose
    // 375 tasks are blocks of sixteen points. Re-recorded when a task
    // became a block of eight points instead of one, and again at
    // sixteen; every other pin in this file predates both changes.
    let grid = GridSweepFarm {
        lo: 0.0,
        hi: 4.0,
        points: 6000,
    };
    let recorded: [(usize, FarmStats, &[u64]); 3] = [
        (1, stats(375, 375, 0, 0, 0, 0, 15), &[0x3fd9104c7e5dd3ef]),
        (
            2,
            stats(375, 375, 0, 0, 11, 14, 7),
            &[0x3fcaef4bd8df0b21, 0x3fcaedeee18d2f8c],
        ),
        (
            4,
            stats(375, 375, 0, 0, 29, 12, 3),
            &[
                0x3fc0158808d3a6bf,
                0x3fc016bad15f2175,
                0x3fc0142b1181cb2a,
                0x3fc0155dda0d45e0,
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

/// The render and per-rank final clocks (as bit patterns) of `farm` on
/// `p` ranks under `FarmConfig::default()`.
fn mandel_run(farm: &MandelbrotFarm, p: usize) -> (MandelOut, Vec<u64>) {
    let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
        run_farm(farm, ctx, FarmConfig::default()).0
    });
    assert!(out.results.iter().all(|o| *o == out.results[0]));
    (
        out.results[0],
        out.rank_times.iter().map(|t| t.to_bits()).collect(),
    )
}

/// The summary (`tiles`, `checksum`, `sum` and `max` bits) and per-rank
/// final clock bits of `chain` on `p` ranks.
fn chain_run(chain: &ImageChain, p: usize) -> ([u64; 4], Vec<u64>) {
    let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
        run_pipeline(chain, ctx, PipelineConfig::default()).0
    });
    assert!(out.results.iter().all(|s| *s == out.results[0]));
    let s = out.results[0];
    (
        [s.tiles, s.checksum, s.sum.to_bits(), s.max.to_bits()],
        out.rank_times.iter().map(|t| t.to_bits()).collect(),
    )
}

/// FNV-1a over the raw pixel bits of every tile in stream order, as
/// ingested and after each stage: what the quantiser would hide (it maps
/// most one-ulp blur differences to the same level).
fn raw_stage_hash(chain: &ImageChain) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut fold = |pixels: &[f64]| {
        for v in pixels {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for seq in 0.. {
        let Some(mut tile) = chain.ingest(seq) else {
            break;
        };
        fold(&tile.pixels);
        for stage in chain.stages() {
            tile = stage.transform(seq, tile);
            fold(&tile.pixels);
        }
    }
    h
}

#[test]
fn mandelbrot_renders_and_clocks_are_the_recorded_ones() {
    // The benchmark's render: 7 768 of its 19 200 pixels run all 1 500
    // iterations.
    let seahorse = MandelbrotFarm::seahorse(160, 120, 20, 1500);
    let want = MandelOut {
        tiles: 48,
        iters: 12_577_756,
        inside: 7768,
        checksum: 0x07808bf19329a5fa,
    };
    let recorded: [(usize, &[u64]); 4] = [
        (1, &[0x3ff41fe35fb648fe]),
        (2, &[0x3fe6c27c189e0071, 0x3fe6c2264aed641f]),
        (
            4,
            &[
                0x3fdf11d6f01d8ff4,
                0x3fdf11c4d7afbc37,
                0x3fdf12828b7ec898,
                0x3fdf11d6f01d8ff4,
            ],
        ),
        (
            8,
            &[
                0x3fd72295563dfa2d,
                0x3fd722833dd02670,
                0x3fd72340f19f32d1,
                0x3fd72295563dfa2d,
                0x3fd72340f19f32d1,
                0x3fd7232ed9315f14,
                0x3fd723ec8d006b75,
                0x3fd72340f19f32d1,
            ],
        ),
    ];
    for (p, clocks) in recorded {
        assert_eq!(
            mandel_run(&seahorse, p),
            (want, clocks.to_vec()),
            "seahorse p={p}"
        );
    }

    // Ragged: 13-px tiles leave edge tiles 6 wide and 9 high, and no
    // tile's area (169, 78, 117, 54) is a multiple of eight.
    let classic = MandelbrotFarm::classic(97, 61, 13, 300);
    let want = MandelOut {
        tiles: 40,
        iters: 406_977,
        inside: 1265,
        checksum: 0xd47f68e6b6f29044,
    };
    let recorded: [(usize, &[u64]); 4] = [
        (1, &[0x3fa4d760a48585e4]),
        (2, &[0x3f95665580c11e29, 0x3f955b9bcaad93ea]),
        (
            4,
            &[
                0x3f900f092c36079c,
                0x3f900de7a558cbce,
                0x3f9019c2e24991db,
                0x3f900f092c36079c,
            ],
        ),
        (
            8,
            &[
                0x3f8f10c288877ea3,
                0x3f8f0e7f7acd0706,
                0x3f8f2635f4ae9321,
                0x3f8f10c288877ea3,
                0x3f8f2635f4ae9321,
                0x3f8f23f2e6f41b84,
                0x3f8f3ba960d5a79f,
                0x3f8f2635f4ae9321,
            ],
        ),
    ];
    for (p, clocks) in recorded {
        assert_eq!(
            mandel_run(&classic, p),
            (want, clocks.to_vec()),
            "classic p={p}"
        );
    }
}

#[test]
fn image_chain_summaries_clocks_and_raw_pixels_are_the_recorded_ones() {
    // The summaries and raw pixels predate every kernel and placement
    // change. The clocks were re-recorded when the planner began pricing
    // whole layouts by their per-item bottleneck; the p = 1 clocks and
    // the 512 × 384 p = 3 ones (the same single-replica segment) stayed.
    //
    // The benchmark's chain, virtual ms before → after: p = 2, both
    // ranks transform (was: rank 1 alone) 303.14 → 157.22; p = 5 and 8,
    // one fused segment on every middle rank (was: one segment per
    // stage) 288.42 → 101.75 and 73.53 → 51.49.
    let chain = ImageChain::new(512, 384, 32, 24);
    assert_eq!(raw_stage_hash(&chain), 0x7b07d70bb6528f08);
    let want = [
        0xc0,
        0x39fb1aef9020f365,
        0x406a700000000000,
        0x3fa0000000000000,
    ];
    let recorded: [(usize, &[u64]); 5] = [
        (1, &[0x3fd380eea7e8e7a6]),
        (2, &[0x3fc41e44d223542d, 0x3fc41fa59f2a214a]),
        (
            3,
            &[0x3fd36b6c782f97b4, 0x3fd36aa718f6a842, 0x3fd36b4286c485ee],
        ),
        (
            5,
            &[
                0x3fba0c8dcba9f49e,
                0x3fba09784ec636d5,
                0x3fba098b7b4eee81,
                0x3fba0be605fdad82,
                0x3fba0c4d155c88bc,
            ],
        ),
        (
            8,
            &[
                0x3faa56dfeceb3dde,
                0x3faa5c6321067255,
                0x3faa565e8050661a,
                0x3faa56dfeceb3dde,
                0x3faa515cb8d00967,
                0x3faa56dfeceb3dde,
                0x3faa50db4c3531a3,
                0x3faa515cb8d00967,
            ],
        ),
    ];
    for (p, clocks) in recorded {
        assert_eq!(
            chain_run(&chain, p),
            (want, clocks.to_vec()),
            "512x384 p={p}"
        );
    }

    // Ragged 13-px tiles (edge tiles 9 wide, 5 high) and few passes:
    // 64 µs of stages per tile. Virtual ms before → after: p = 2 paired
    // 3.408 → 2.536; p = 3 one rank, since a middle rank would add 15 µs
    // of messaging per tile to offload 5 µs of ingest and emit,
    // 3.921 → 3.027; p = 5 and 8, blur | gradient + quantize with the
    // spare ranks idle (was: one segment per stage) 3.548 → 3.482 and
    // 3.636 → 3.570.
    let chain = ImageChain::new(100, 70, 13, 5);
    assert_eq!(raw_stage_hash(&chain), 0x236493bffccd76d2);
    let want = [
        0x30,
        0x4329568c9e543c35,
        0x4042800000000000,
        0x3fc0000000000000,
    ];
    let recorded: [(usize, &[u64]); 5] = [
        (1, &[0x3f678705425f2021]),
        (2, &[0x3f646ece6ffda02a, 0x3f64c701b1b0e78f]),
        (
            3,
            &[0x3f68cc2396fcab1d, 0x3f686973fa84f204, 0x3f687655e6605923],
        ),
        (
            5,
            &[
                0x3f6c8639f180ed58,
                0x3f6c238a5509343f,
                0x3f6c25efe62029aa,
                0x3f6c71413bf809f0,
                0x3f6c7e2327d3710f,
            ],
        ),
        (
            8,
            &[
                0x3f6ce683fce1b106,
                0x3f6d3eb73e94f86b,
                0x3f6cde6d333434bd,
                0x3f6ce683fce1b106,
                0x3f6c8e50bb2e69a1,
                0x3f6ce683fce1b106,
                0x3f6c8639f180ed58,
                0x3f6c8e50bb2e69a1,
            ],
        ),
    ];
    for (p, clocks) in recorded {
        assert_eq!(
            chain_run(&chain, p),
            (want, clocks.to_vec()),
            "100x70 p={p}"
        );
    }
}
