//! Property-based tests of the message-passing substrate and numerical
//! kernels: collectives against their sequential definitions, virtual-time
//! determinism and monotonicity, FFT round-trips, and redistribution
//! round-trips for arbitrary matrix shapes. Nothing serializes ranks
//! through the virtual clock: the lock-free channels see genuinely
//! concurrent producers in every one of these.

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::mesh::redist::{cols_to_rows, rows_to_cols, RowDist};
use parallel_archetypes::mp::topology::{block_owner, block_range};
use parallel_archetypes::mp::{run_spmd, MachineModel};
use parallel_archetypes::numerics::{fft, ifft, Complex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_reduce_equals_sequential_fold(
        values in vec(-1000i64..1000, 1..12),
    ) {
        let n = values.len();
        let expected: i64 = values.iter().sum();
        let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
            ctx.all_reduce(values[ctx.rank()], |a, b| a + b)
        });
        for v in out.results {
            prop_assert_eq!(v, expected);
        }
    }

    #[test]
    fn all_gather_preserves_rank_order(values in vec(any::<u32>(), 1..10)) {
        let n = values.len();
        let out = run_spmd(n, MachineModel::cray_t3d(), |ctx| {
            ctx.all_gather(values[ctx.rank()])
        });
        for got in out.results {
            prop_assert_eq!(&got, &values);
        }
    }

    #[test]
    fn all_to_all_is_a_transpose(n in 1usize..9, seed in any::<u32>()) {
        let out = run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
            let items: Vec<u64> = (0..ctx.nprocs() as u64)
                .map(|d| ctx.rank() as u64 * 1000 + d + seed as u64)
                .collect();
            ctx.all_to_all(items)
        });
        for (me, got) in out.results.iter().enumerate() {
            for (s, &v) in got.iter().enumerate() {
                prop_assert_eq!(v, s as u64 * 1000 + me as u64 + seed as u64);
            }
        }
    }

    #[test]
    fn virtual_time_is_deterministic(n in 1usize..9, work in 0.0f64..10.0) {
        let run = || {
            run_spmd(n, MachineModel::intel_delta(), |ctx| {
                ctx.charge_seconds(work * (ctx.rank() + 1) as f64);
                ctx.barrier();
                ctx.all_reduce(1u64, |a, b| a + b);
                ctx.now()
            })
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.results, &b.results);
        prop_assert_eq!(a.rank_times, b.rank_times);
    }

    #[test]
    fn more_compute_never_reduces_elapsed_time(n in 2usize..8, work in 0.0f64..5.0) {
        let elapsed = |w: f64| {
            run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
                ctx.charge_seconds(w);
                ctx.barrier();
            })
            .elapsed_virtual
        };
        prop_assert!(elapsed(work + 1.0) >= elapsed(work));
    }

    #[test]
    fn fft_round_trip_on_arbitrary_signals(
        re in vec(-100.0f64..100.0, 1..65),
    ) {
        // Pad to the next power of two.
        let n = re.len().next_power_of_two();
        let mut signal: Vec<Complex> = re.iter().map(|&r| Complex::new(r, -r / 3.0)).collect();
        signal.resize(n, Complex::ZERO);
        let back = ifft(&fft(&signal));
        for (a, b) in back.iter().zip(&signal) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_parseval(re in vec(-10.0f64..10.0, 1..33)) {
        let n = re.len().next_power_of_two();
        let mut signal: Vec<Complex> = re.iter().map(|&r| Complex::from_re(r)).collect();
        signal.resize(n, Complex::ZERO);
        let spectrum = fft(&signal);
        let et: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let ef: f64 = spectrum.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((et - ef).abs() <= 1e-9 * et.max(1.0));
    }

    #[test]
    fn redistribution_round_trip(
        p in 1usize..6,
        nrows in 1usize..20,
        ncols in 1usize..20,
    ) {
        run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            let rd = RowDist::from_global(ctx.rank(), ctx.nprocs(), nrows, ncols, |r, c| {
                (r * 1000 + c) as f64
            });
            let cd = rows_to_cols(ctx, &rd);
            let back = cols_to_rows(ctx, &cd);
            assert_eq!(back, rd);
        });
    }

    #[test]
    fn world_scatter_gather_round_trips(
        n in 1usize..9,
        root in any::<u32>(),
        lens in vec(0usize..6, 1..9),
    ) {
        // Scatter arbitrary (possibly empty) per-rank payloads from an
        // arbitrary root, then gather them back: the root must recover
        // exactly what it dealt, in rank order.
        let root = root as usize % n;
        let dealt = lens.clone();
        let out = run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
            let values: Option<Vec<Vec<u64>>> = (ctx.rank() == root).then(|| {
                (0..ctx.nprocs())
                    .map(|r| vec![r as u64 * 1000 + 7; dealt[r % dealt.len()]])
                    .collect()
            });
            let mine: Vec<u64> = ctx.scatter(root, values);
            ctx.gather(root, mine)
        });
        let gathered = out.results[root].as_ref().expect("root gathers");
        for (r, piece) in gathered.iter().enumerate() {
            prop_assert_eq!(piece, &vec![r as u64 * 1000 + 7; lens[r % lens.len()]]);
        }
        for (r, res) in out.results.iter().enumerate() {
            prop_assert_eq!(res.is_some(), r == root);
        }
    }

    #[test]
    fn group_scatter_all_to_all_round_trip(
        n in 1usize..9,
        at in 0usize..8,
        seed in any::<u32>(),
    ) {
        // Split the world in two groups, each run as a scope (degenerate
        // splits — a full-world group or singleton groups — included),
        // then inside each: scatter from local root 0 (empty payloads
        // included) and check the all_to_all transpose identity,
        // concurrently in both groups.
        let boundary = at % n;
        let out = run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
            let members = class_of(ctx.rank(), ctx.nprocs(), boundary);
            ctx.scoped(&members, 0, |ctx| {
                let k = ctx.nprocs();
                let values = (ctx.rank() == 0).then(|| {
                    (0..k)
                        .map(|i| vec![u64::from(seed) + i as u64; i % 3])
                        .collect::<Vec<Vec<u64>>>()
                });
                let mine: Vec<u64> = ctx.scatter(0, values);
                // Personalized exchange: slot s of the result holds what
                // member s addressed to me.
                let items: Vec<(u64, u64)> =
                    (0..k as u64).map(|d| (ctx.rank() as u64, d)).collect();
                let got = ctx.all_to_all(items);
                (ctx.rank(), mine, got)
            })
        });
        for (grank, mine, got) in out.results {
            prop_assert_eq!(mine, vec![u64::from(seed) + grank as u64; grank % 3]);
            for (s, &(from, to)) in got.iter().enumerate() {
                prop_assert_eq!(from, s as u64);
                prop_assert_eq!(to, grank as u64);
            }
        }
    }

    #[test]
    fn group_world_agrees_with_global_collectives(
        n in 1usize..9,
        value in any::<u32>(),
    ) {
        // A scope over every rank must compute exactly what the world
        // collectives do, and leave the world's collective sequence
        // where it was: the world collectives run after it match up.
        let out = run_spmd(n, MachineModel::cray_t3d(), move |ctx| {
            let everyone: Vec<usize> = (0..ctx.nprocs()).collect();
            let base = u64::from(value) + ctx.rank() as u64;
            let (ga, gg) = ctx.scoped(&everyone, 0, |ctx| {
                (ctx.all_reduce(base, u64::wrapping_add), ctx.all_gather(base))
            });
            let wa = ctx.all_reduce(base, u64::wrapping_add);
            let wg = ctx.all_gather(base);
            (ga, gg, wa, wg)
        });
        for (ga, gg, wa, wg) in out.results {
            prop_assert_eq!(ga, wa);
            prop_assert_eq!(gg, wg);
        }
    }

    #[test]
    fn sibling_group_tags_stay_isolated(
        n in 2usize..9,
        rounds_a in 1usize..4,
        rounds_b in 1usize..4,
    ) {
        // Two sibling scopes run *different numbers* of collectives
        // carrying values stamped with their identity; nothing may leak
        // across, and a world collective afterwards still matches.
        let out = run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
            let half = ctx.nprocs() / 2;
            let members = class_of(ctx.rank(), ctx.nprocs(), half);
            let my_color = u64::from(ctx.rank() < half);
            let rounds = if my_color == 1 { rounds_a } else { rounds_b };
            let seen = ctx.scoped(&members, 0, |ctx| {
                let mut seen = Vec::new();
                for _ in 0..rounds {
                    seen.extend(ctx.all_to_all(vec![my_color; ctx.nprocs()]));
                }
                seen
            });
            let world = ctx.all_reduce(1u64, |a, b| a + b);
            (seen, my_color, world)
        });
        for (seen, color, world) in out.results {
            prop_assert!(seen.iter().all(|&v| v == color));
            prop_assert_eq!(world, n as u64);
        }
    }

    #[test]
    fn group_reduce_agrees_with_gather_fold_and_all_reduce(
        values in vec(0u64..1_000_000, 1..10),
        extra in 0usize..3,
    ) {
        // A scope over the first `n` of `n + extra` ranks.
        let n = values.len();
        let out = run_spmd(n + extra, MachineModel::cray_t3d(), |ctx| {
            if ctx.rank() >= n {
                return None;
            }
            let members: Vec<usize> = (0..n).collect();
            Some(ctx.scoped(&members, 0, |ctx| {
                let red = ctx.reduce(0, values[ctx.rank()], u64::wrapping_add);
                let all = ctx.all_reduce(values[ctx.rank()], u64::wrapping_add);
                let gathered = ctx.gather(0, values[ctx.rank()]);
                (red, all, gathered)
            }))
        });
        let expected: u64 = values.iter().sum();
        for (r, got) in out.results.iter().enumerate() {
            let Some((red, all, gathered)) = got else {
                prop_assert!(r >= n);
                continue;
            };
            prop_assert_eq!(*all, expected);
            if r == 0 {
                prop_assert_eq!(red.unwrap(), expected);
                prop_assert_eq!(gathered.as_ref().unwrap().iter().sum::<u64>(), expected);
            } else {
                prop_assert!(red.is_none());
            }
        }
    }

    #[test]
    fn group_collectives_are_repeatable(
        n in 2usize..9,
        at in 0usize..8,
        value in any::<u32>(),
    ) {
        // Sibling scopes exercise rank translation and scope matching
        // under racing deliveries; a rerun must produce the same
        // per-rank tuples and the same virtual clocks.
        let boundary = at % n;
        let run = || {
            run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
                let members = class_of(ctx.rank(), ctx.nprocs(), boundary);
                let base = u64::from(value) + ctx.rank() as u64;
                let (red, gat) = ctx.scoped(&members, 0, |ctx| {
                    (ctx.all_reduce(base, u64::wrapping_add), ctx.all_gather(base))
                });
                let world = ctx.all_reduce(base, u64::wrapping_add);
                (red, gat, world)
            })
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.results, &b.results);
        prop_assert_eq!(a.rank_times, b.rank_times);
    }

    #[test]
    fn block_range_and_owner_are_inverse(n in 1usize..200, parts in 1usize..17) {
        let mut covered = 0usize;
        for idx in 0..parts {
            let (start, len) = block_range(n, parts, idx);
            prop_assert_eq!(start, covered);
            covered += len;
            for g in start..start + len {
                prop_assert_eq!(block_owner(n, parts, g), idx);
            }
        }
        prop_assert_eq!(covered, n);
    }
}

/// The ranks on `rank`'s side of `boundary` among `n`: `0..boundary` or
/// `boundary..n` — one of two sibling groups, as a scope's member list.
fn class_of(rank: usize, n: usize, boundary: usize) -> Vec<usize> {
    if rank < boundary {
        (0..boundary).collect()
    } else {
        (boundary..n).collect()
    }
}
