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
//!
//! The recursive mergesort pin covers the recursive divide-and-conquer
//! descent at odd rank counts and uneven subgroups: its per-rank
//! messages, bytes and clocks are the schedule of the nested scopes.
//!
//! The mesh pin covers the four 2-D mesh-spectral apps (Poisson, CFD,
//! airshed, spectral flow) on uneven block splits: the gathered grid,
//! every rank's clock and every rank's traffic.

use parallel_archetypes::bnb::{solve_farm, BnbStats, Knapsack};
use parallel_archetypes::dc::{run_spmd_recursive, CutoffPolicy, RecursiveMergesort};
use parallel_archetypes::farm::apps::{GridSweepFarm, MandelOut, MandelbrotFarm, SweepFarm};
use parallel_archetypes::farm::{run_farm, Farm, FarmConfig, FarmStats};
use parallel_archetypes::mesh::apps::airshed::{airshed_spmd, AirshedSpec};
use parallel_archetypes::mesh::apps::cfd::{cfd_spmd, shock_sine_init, CfdSpec};
use parallel_archetypes::mesh::apps::poisson::{poisson_spmd, sine_problem, PoissonSpec};
use parallel_archetypes::mesh::apps::spectral_flow::{swirl_spmd, SwirlSpec};
use parallel_archetypes::mp::{run_spmd, MachineModel, SpmdResult};
use parallel_archetypes::pipeline::apps::ImageChain;
use parallel_archetypes::pipeline::{run_pipeline, Pipeline, PipelineConfig};

mod common;
use common::{assert_bit_identical_runs, grid_for};

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

/// The recursive mergesort's per-rank clocks (as bit patterns) and
/// `(msgs_sent, bytes_sent)` on `p` ranks at branching `k`. The keys,
/// the size floor and the depth cap make the recursion end three ways:
/// at singleton groups, at the depth cap, and at the size floor after a
/// size broadcast inside a group of two or more.
fn recursive_sort_run(p: usize, k: usize) -> (Vec<u64>, Vec<(u64, u64)>) {
    let keys: Vec<i64> = (0..3000u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as i64 - (1 << 23))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let policy = CutoffPolicy::new(k, 800, 3);
    let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
        let input = (ctx.rank() == 0).then(|| keys.clone());
        run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, input, &policy, None)
    });
    assert_eq!(out.results[0].as_ref(), Some(&sorted), "p={p} k={k}");
    (
        out.rank_times.iter().map(|t| t.to_bits()).collect(),
        out.stats
            .per_rank
            .iter()
            .map(|s| (s.msgs_sent, s.bytes_sent))
            .collect(),
    )
}

#[test]
fn recursive_mergesort_clocks_and_traffic_are_the_recorded_ones() {
    // Recorded while the recursion ran on a dedicated subgroup type with
    // its own collectives, before it moved onto `Ctx::scoped`: the
    // descent's messages, bytes and per-rank clocks must not move by a
    // bit. Odd rank counts and branching 3 give uneven subgroups at every
    // level.
    #[allow(clippy::type_complexity)]
    let recorded: [((usize, usize), &[u64], &[(u64, u64)]); 8] = [
        (
            (2, 2),
            &[0x3f59c8d2f57923a0, 0x3f5176b78104a021],
            &[(2, 12008), (1, 12000)],
        ),
        (
            (2, 3),
            &[0x3f59ddcbab020709, 0x3f42f03444a49d82, 0x3f518bb0368d838a],
            &[(5, 18024), (1, 6000), (1, 12000)],
        ),
        (
            (2, 5),
            &[
                0x3f5cd65e5c9a0bd1,
                0x3f2111bee91bd69b,
                0x3f4344171ac82b26,
                0x3f548442e8258852,
                0x3f4fcfba8ef4c7a4,
            ],
            &[(8, 18048), (0, 0), (2, 6008), (3, 18008), (1, 6000)],
        ),
        (
            (2, 8),
            &[
                0x3f5d004fc7abd2a3,
                0x3f2111bee91bd69b,
                0x3f436e0885d9f1f8,
                0x3f36b7f1176c4bfe,
                0x3f54ae3453374f24,
                0x3f40fa04998558f7,
                0x3f5011ceb28c2aa4,
                0x3f48118d6af4894f,
            ],
            &[
                (8, 18048),
                (0, 0),
                (4, 6024),
                (0, 0),
                (7, 18040),
                (0, 0),
                (4, 6024),
                (0, 0),
            ],
        ),
        (
            (3, 2),
            &[0x3f59c8d2f57923a0, 0x3f5176b78104a021],
            &[(2, 12008), (1, 12000)],
        ),
        (
            (3, 3),
            &[0x3f53834a023c5010, 0x3f47aa46b415430e, 0x3f47d4381f2709e0],
            &[(4, 16016), (1, 8000), (1, 8000)],
        ),
        (
            (3, 5),
            &[
                0x3f564932fa938224,
                0x3f3b6ef752ae1fea,
                0x3f4d3618a4c3a735,
                0x3f46846c69a43524,
                0x3f47fe298a38d0b2,
            ],
            &[(7, 20032), (1, 4000), (4, 12016), (1, 4000), (1, 8000)],
        ),
        (
            (3, 8),
            &[
                0x3f564932fa938223,
                0x3f34d295acc85e2f,
                0x3f35267882ebebd3,
                0x3f4995ec9d87d0ce,
                0x3f43363b96b15446,
                0x3f43602d01c31b18,
                0x3f4d600a0fd56e07,
                0x3f46ae5dd4b5fbf6,
            ],
            &[
                (9, 21368),
                (1, 2664),
                (2, 2672),
                (5, 13344),
                (3, 2680),
                (1, 2664),
                (4, 12016),
                (1, 4000),
            ],
        ),
    ];
    for ((k, p), clocks, traffic) in recorded {
        let (got_clocks, got_traffic) = recursive_sort_run(p, k);
        assert_eq!(got_clocks, clocks, "clocks k={k} p={p}");
        assert_eq!(got_traffic, traffic, "msgs and bytes k={k} p={p}");
    }
}

/// FNV-1a over a stream of `u64`s.
fn fnv(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b).wrapping_mul(0x100000001b3)
    })
}

/// One mesh app's recorded run: a hash of rank 0's gathered grid bits
/// followed by the bits of its scalar results, then every rank's final
/// clock bits and `(msgs_sent, bytes_sent)`.
type MeshRecord = (u64, Vec<u64>, Vec<(u64, u64)>);

fn mesh_record<R: Send>(
    out: parallel_archetypes::mp::SpmdResult<R>,
    bits: impl Fn(&R) -> Vec<u64>,
) -> MeshRecord {
    (
        fnv(bits(&out.results[0])),
        out.rank_times.iter().map(|t| t.to_bits()).collect(),
        out.stats
            .per_rank
            .iter()
            .map(|s| (s.msgs_sent, s.bytes_sent))
            .collect(),
    )
}

/// Poisson, CFD, airshed and spectral flow on `p` ranks, each on a grid
/// that no process grid of the sweep divides evenly.
fn mesh_runs(p: usize) -> [MeshRecord; 4] {
    let pg = grid_for(p);
    let model = MachineModel::ibm_sp();
    // Stops on its tolerance, not its cap; 21 × 17 with h from nx.
    let poisson = PoissonSpec {
        nx: 21,
        ny: 17,
        ..sine_problem(21, 1e-4, 2_000)
    };
    let poisson = mesh_record(
        run_spmd(p, model, move |ctx| poisson_spmd(ctx, &poisson, pg)),
        |r| {
            let grid = r.grid.as_ref().expect("rank 0 gathers");
            let mut bits: Vec<u64> = grid.iter().map(|v| v.to_bits()).collect();
            bits.extend([r.iters as u64, r.diffmax.to_bits()]);
            bits
        },
    );
    let cfd = CfdSpec {
        nx: 26,
        ny: 13,
        lx: 1.0,
        ly: 0.5,
        cfl: 0.4,
        steps: 10,
    };
    let cfd = mesh_record(
        run_spmd(p, model, move |ctx| {
            cfd_spmd(ctx, &cfd, pg, |i, j| shock_sine_init(&cfd, i, j))
        }),
        |r| {
            let grid = r.grid.as_ref().expect("rank 0 gathers");
            let mut bits: Vec<u64> = grid.iter().flatten().map(|v| v.to_bits()).collect();
            bits.push(r.time.to_bits());
            bits
        },
    );
    let airshed = AirshedSpec {
        nx: 22,
        ny: 15,
        wind: (0.4, 0.1),
        diffusion: 0.05,
        j_rate: 0.3,
        k_rate: 2.0,
        dt: 0.2,
        steps: 10,
        source: (5, 8, 0.5),
    };
    let airshed = mesh_record(
        run_spmd(p, model, move |ctx| airshed_spmd(ctx, &airshed, pg)),
        |r| {
            let grid = r.grid.as_ref().expect("rank 0 gathers");
            let mut bits: Vec<u64> = grid.iter().flatten().map(|v| v.to_bits()).collect();
            bits.push(r.peak_o3.to_bits());
            bits
        },
    );
    let swirl = SwirlSpec {
        nr: 26,
        ntheta: 32,
        rmax: 1.0,
        nu: 1e-3,
        dt: 5e-4,
        steps: 8,
    };
    let swirl = mesh_record(
        run_spmd(p, model, move |ctx| swirl_spmd(ctx, &swirl)),
        |r| {
            let grid = r.as_ref().expect("rank 0 gathers");
            grid.iter().map(|v| v.to_bits()).collect()
        },
    );
    [poisson, cfd, airshed, swirl]
}

#[test]
fn mesh_results_clocks_and_traffic_are_the_recorded_ones() {
    // Recorded while each app ran its own time loop and cloned its grid
    // every step, before the four moved onto one stencil driver: the
    // gathered grids, every rank's clock and traffic must not move by a
    // bit. Every version 2 agrees bitwise with its version 1, so a
    // result hash is the same at every p.
    let hashes = [
        0x632433868bac1063,
        0xb483cc8800a10bf4,
        0xb4a2295778be573e,
        0x1c264a4ed7773ac1,
    ];
    #[allow(clippy::type_complexity)]
    let recorded: [(usize, [(&[u64], &[(u64, u64)]); 4]); 3] = [
        (
            1,
            [
                // poisson
                (&[0x3f81f4ea4d3b474c], &[(0, 0)]),
                // cfd
                (&[0x3f63efa10d2b61ac], &[(0, 0)]),
                // airshed
                (&[0x3f50385c67dfe32a], &[(0, 0)]),
                // swirl
                (&[0x3f70e72df7093660], &[(0, 0)]),
            ],
        ),
        (
            4,
            [
                // poisson
                (
                    &[
                        0x3faa0aad1ab71690,
                        0x3faa00d4afe9fa6f,
                        0x3faa00bffab27bc0,
                        0x3faa00f484149bf7,
                    ],
                    &[(1228, 54032), (1229, 52280), (1229, 52296), (1229, 49760)],
                ),
                // cfd
                (
                    &[
                        0x3f6937e89e76ecba,
                        0x3f67e520f53ceada,
                        0x3f67e520f53ceada,
                        0x3f6843fadcc31b48,
                    ],
                    &[(60, 6720), (41, 8736), (51, 9552), (41, 8736)],
                ),
                // airshed
                (
                    &[
                        0x3f6070908bd3de38,
                        0x3f5f1cfbb949624b,
                        0x3f5f03a3415cfeff,
                        0x3f5f1cfbb949624b,
                    ],
                    &[(40, 4720), (41, 6328), (41, 6832), (41, 6328)],
                ),
                // swirl
                (
                    &[
                        0x3f5cd2e83eaaa95b,
                        0x3f5b1578dcf2fe5e,
                        0x3f5aec333e584911,
                        0x3f5a98fc34abccf2,
                    ],
                    &[(8, 4096), (17, 9984), (17, 9728), (9, 5632)],
                ),
            ],
        ),
        (
            6,
            [
                // poisson
                (
                    &[
                        0x3fafb4c238dc88ed,
                        0x3fafa5e05b252d0a,
                        0x3fafab3f21096aed,
                        0x3fafa551829107e6,
                        0x3fafaa7e6e4501db,
                        0x3fafa9ef95b0dcb7,
                    ],
                    &[
                        (921, 44208),
                        (1843, 76664),
                        (922, 42192),
                        (1536, 47144),
                        (1536, 69248),
                        (1229, 42152),
                    ],
                ),
                // cfd
                (
                    &[
                        0x3f6b27b309cbd589,
                        0x3f69d8dfc32ae89b,
                        0x3f69d8dfc32ae89b,
                        0x3f6a37b9aab11909,
                        0x3f69ce63686676e7,
                        0x3f6a2d3d4feca755,
                    ],
                    &[
                        (60, 6080),
                        (61, 11504),
                        (41, 7264),
                        (51, 8080),
                        (61, 11504),
                        (41, 7264),
                    ],
                ),
                // airshed
                (
                    &[
                        0x3f62c69cca87d434,
                        0x3f61a553489b1e3a,
                        0x3f61f9b0d55cdcf2,
                        0x3f619ad6edd6ac84,
                        0x3f61ef347a986b3f,
                        0x3f61e4b81fd3f98a,
                    ],
                    &[
                        (30, 3920),
                        (61, 8040),
                        (31, 5240),
                        (51, 5400),
                        (51, 7960),
                        (41, 5320),
                    ],
                ),
                // swirl
                (
                    &[
                        0x3f578c0dbfdc2383,
                        0x3f55e208422b3c6a,
                        0x3f55b8c2a390871d,
                        0x3f557a844f6cee67,
                        0x3f55513eb0d2391a,
                        0x3f54fe07a725bcfa,
                    ],
                    &[
                        (8, 4096),
                        (17, 9472),
                        (17, 9216),
                        (17, 9216),
                        (17, 9216),
                        (9, 5120),
                    ],
                ),
            ],
        ),
    ];
    for (p, apps) in recorded {
        let got = mesh_runs(p);
        for (((name, hash), (clocks, traffic)), (got_hash, got_clocks, got_traffic)) in
            ["poisson", "cfd", "airshed", "swirl"]
                .iter()
                .zip(hashes)
                .zip(apps)
                .zip(got)
        {
            assert_eq!(got_hash, hash, "{name} result p={p}");
            assert_eq!(got_clocks, clocks, "{name} clocks p={p}");
            assert_eq!(got_traffic, traffic, "{name} msgs and bytes p={p}");
        }
    }
}
