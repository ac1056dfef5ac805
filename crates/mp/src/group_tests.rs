//! Tests of collectives inside a process group: a [`Ctx::scoped`] section over a
//! subset of the ranks, formed here by splitting the world on a colour
//! per rank as `MPI_Comm_split` does. Inside the section ranks and
//! collectives are group-local, and sibling groups run concurrently
//! without seeing each other's messages.
//!
//! [`Ctx::scoped`]: crate::Ctx::scoped

mod tests {
    use crate::model::MachineModel;
    use crate::runner::run_spmd;
    use crate::Ctx;

    /// This rank's colour class under `colors`, as a member list.
    fn class_of(ctx: &Ctx, colors: &[usize]) -> Vec<usize> {
        let mine = colors[ctx.rank()];
        (0..ctx.nprocs()).filter(|&r| colors[r] == mine).collect()
    }

    #[test]
    fn concurrent_group_reductions_do_not_interfere() {
        // The task-parallel composition: two groups run *different numbers*
        // of collectives concurrently, and a world collective afterwards
        // still matches because group collectives never touched the
        // world's sequence.
        let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| usize::from(r >= 3)).collect();
            let members = class_of(ctx, &colors);
            let rounds = if ctx.rank() < 3 { 5 } else { 2 };
            let acc = ctx.scoped(&members, 0, |ctx| {
                let mut acc = 0i64;
                for _ in 0..rounds {
                    acc = ctx.all_reduce(ctx.global_rank() as i64, |a, b| a + b);
                }
                ctx.barrier();
                acc
            });
            let world = ctx.all_reduce(acc, |a, b| a + b);
            (acc, world)
        });
        // Group A = {0,1,2}: sum 3; group B = {3..7}: sum 25.
        for (r, &(acc, world)) in out.results.iter().enumerate() {
            assert_eq!(acc, if r < 3 { 3 } else { 25 }, "rank {r}");
            assert_eq!(world, 3 * 3 + 25 * 5);
        }
    }

    #[test]
    fn group_broadcast_and_gather() {
        let out = run_spmd(7, MachineModel::ibm_sp(), |ctx| {
            // One group of the primes, one of the rest.
            let primes = [2usize, 3, 5];
            let colors: Vec<usize> = (0..ctx.nprocs())
                .map(|r| usize::from(!primes.contains(&r)))
                .collect();
            let members = class_of(ctx, &colors);
            ctx.scoped(&members, 0, |ctx| {
                let me = ctx.global_rank() as u64;
                let v = ctx.broadcast(0, (ctx.rank() == 0).then_some(me));
                let gathered = ctx.gather(0, me);
                let all = ctx.all_gather(me);
                (v, gathered, all)
            })
        });
        // Prime group broadcast root is global rank 2; other group's is 0.
        assert_eq!(out.results[3].0, 2);
        assert_eq!(out.results[5].0, 2);
        assert_eq!(out.results[6].0, 0);
        // Gathers collect the global ranks in group order, at the root only.
        assert_eq!(out.results[2].1.as_ref().unwrap(), &vec![2, 3, 5]);
        assert_eq!(out.results[0].1.as_ref().unwrap(), &vec![0, 1, 4, 6]);
        for r in [1, 3, 4, 5, 6] {
            assert!(out.results[r].1.is_none(), "rank {r}");
        }
        for (r, (_, _, all)) in out.results.iter().enumerate() {
            let want = if [2, 3, 5].contains(&r) {
                vec![2, 3, 5]
            } else {
                vec![0, 1, 4, 6]
            };
            assert_eq!(all, &want, "rank {r}");
        }
    }

    #[test]
    fn singleton_group_works() {
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let me = ctx.rank();
            ctx.scoped(&[me], 0, |ctx| {
                ctx.barrier();
                ctx.all_reduce(me as i64 * 10, |a, b| a + b)
            })
        });
        assert_eq!(out.results, vec![0, 10, 20]);
    }

    #[test]
    fn singleton_group_broadcast_gather_and_all_gather() {
        // Every degenerate single-member collective must complete without
        // communicating and return the member's own contribution.
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let me = ctx.rank() as u64;
            ctx.scoped(&[ctx.rank()], 0, |ctx| {
                let b = ctx.broadcast(0, Some(me * 7));
                let gathered = ctx.gather(0, me).expect("root of self");
                let all = ctx.all_gather(me);
                (b, gathered, all)
            })
        });
        for (r, (b, gathered, all)) in out.results.iter().enumerate() {
            assert_eq!(*b, r as u64 * 7);
            assert_eq!(gathered, &vec![r as u64]);
            assert_eq!(all, &vec![r as u64]);
        }
        // No messages may have crossed ranks for singleton collectives.
        assert_eq!(out.stats.total_msgs(), 0);
    }

    #[test]
    fn empty_payload_broadcast_round_trips() {
        // A zero-byte payload must traverse the broadcast tree intact:
        // the cost model sees 0 bytes, the matching still works.
        let out = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
            let members: Vec<usize> = (0..ctx.nprocs()).collect();
            ctx.scoped(&members, 0, |ctx| {
                let v: Vec<u64> = ctx.broadcast(2, (ctx.rank() == 2).then(Vec::new));
                let unit: () = ctx.broadcast(0, (ctx.rank() == 0).then_some(()));
                (v, unit)
            })
        });
        for (v, ()) in &out.results {
            assert!(v.is_empty());
        }
        // Empty payloads still pay per-message latency, never per-byte.
        assert!(out.elapsed_virtual >= MachineModel::ibm_sp().latency);
    }

    #[test]
    fn empty_payload_all_gather_preserves_shapes() {
        // Mixed empty/non-empty contributions: slots must line up with
        // group ranks and empties must stay empty.
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let members: Vec<usize> = (0..ctx.nprocs()).collect();
            ctx.scoped(&members, 0, |ctx| {
                let me = ctx.rank();
                let mine = if me.is_multiple_of(2) {
                    Vec::new()
                } else {
                    vec![me as u64; me]
                };
                let gathered = ctx.gather(0, mine);
                let all = ctx.all_gather(me as u64);
                let empties = ctx.all_gather(Vec::<u8>::new());
                (gathered, all, empties)
            })
        });
        let gathered = out.results[0].0.as_ref().expect("group root");
        assert_eq!(gathered.len(), 4);
        assert!(gathered[0].is_empty() && gathered[2].is_empty());
        assert_eq!(gathered[1], vec![1]);
        assert_eq!(gathered[3], vec![3, 3, 3]);
        for (_, all, empties) in &out.results {
            assert_eq!(all, &vec![0, 1, 2, 3]);
            assert_eq!(empties, &vec![Vec::<u8>::new(); 4]);
        }
    }

    #[test]
    fn group_scatter_delivers_one_piece_each() {
        let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
            let members = class_of(ctx, &colors);
            ctx.scoped(&members, 0, |ctx| {
                let values = (ctx.rank() == 1).then(|| {
                    (0..ctx.nprocs() as u64)
                        .map(|i| vec![i * 10 + ctx.global_rank() as u64 % 2])
                        .collect()
                });
                ctx.scatter(1, values)
            })
        });
        for (r, v) in out.results.iter().enumerate() {
            assert_eq!(v, &vec![(r as u64 / 2) * 10 + r as u64 % 2], "rank {r}");
        }
    }

    #[test]
    fn group_scatter_and_all_to_all_degenerate_cases() {
        // Singleton groups must complete without any messages; empty
        // payloads must keep their slots.
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let me = ctx.rank() as u64;
            ctx.scoped(&[ctx.rank()], 0, |ctx| {
                let s: Vec<u64> = ctx.scatter(0, Some(vec![vec![me]]));
                let a = ctx.all_to_all(vec![Vec::<u64>::new()]);
                (s, a)
            })
        });
        for (r, (s, a)) in out.results.iter().enumerate() {
            assert_eq!(s, &vec![r as u64]);
            assert_eq!(a, &vec![Vec::<u64>::new()]);
        }
        assert_eq!(out.stats.total_msgs(), 0);
    }

    #[test]
    fn group_all_to_all_transposes_within_the_group() {
        let out = run_spmd(7, MachineModel::ibm_sp(), |ctx| {
            // Odd ranks form the group; evens sit out entirely.
            if ctx.rank() % 2 == 1 {
                let members: Vec<usize> = (1..ctx.nprocs()).step_by(2).collect();
                Some(ctx.scoped(&members, 0, |ctx| {
                    let items: Vec<(u64, u64)> = (0..ctx.nprocs() as u64)
                        .map(|d| (ctx.rank() as u64, d))
                        .collect();
                    ctx.all_to_all(items)
                }))
            } else {
                None
            }
        });
        for (r, got) in out.results.iter().enumerate() {
            if r % 2 == 1 {
                let got = got.as_ref().expect("group member");
                assert_eq!(got.len(), 3);
                for (s, &(from, to)) in got.iter().enumerate() {
                    assert_eq!(from, s as u64, "slot s holds member s's item");
                    assert_eq!(to, (r / 2) as u64, "and it was addressed to me");
                }
            } else {
                assert!(got.is_none());
            }
        }
    }

    #[test]
    fn group_reduce_matches_all_reduce_for_commutative_ops() {
        let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
            let members = class_of(ctx, &colors);
            ctx.scoped(&members, 0, |ctx| {
                let me = ctx.global_rank() as u64;
                let red = ctx.reduce(0, me, |a, b| a + b);
                let all = ctx.all_reduce(me, |a, b| a + b);
                (red, all)
            })
        });
        for (r, (red, all)) in out.results.iter().enumerate() {
            assert_eq!(*all, if r % 2 == 0 { 6 } else { 9 }, "rank {r}");
            if r < 2 {
                assert_eq!(red.unwrap(), *all, "group root rank {r}");
            } else {
                assert!(red.is_none());
            }
        }
    }

    #[test]
    fn singleton_group_reduce_is_message_free() {
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let me = ctx.rank() as u64;
            ctx.scoped(&[ctx.rank()], 0, |ctx| ctx.reduce(0, me * 5, |a, b| a + b))
        });
        for (r, v) in out.results.iter().enumerate() {
            assert_eq!(*v, Some(r as u64 * 5));
        }
        assert_eq!(out.stats.total_msgs(), 0);
    }

    #[test]
    fn group_reduce_empty_payloads_round_trip() {
        // Zero-byte contributions must traverse the combining tree and
        // keep their (empty) shape; only latency is charged.
        let out = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
            let members: Vec<usize> = (0..ctx.nprocs()).collect();
            ctx.scoped(&members, 0, |ctx| {
                ctx.reduce(1, Vec::<u64>::new(), |mut a, mut b| {
                    a.append(&mut b);
                    a
                })
            })
        });
        assert_eq!(out.results[1], Some(Vec::new()));
        assert!(out
            .results
            .iter()
            .enumerate()
            .all(|(r, v)| r == 1 || v.is_none()));
        assert!(out.elapsed_virtual >= MachineModel::ibm_sp().latency);
    }

    #[test]
    fn group_all_reduce_non_power_of_two() {
        for size in [3usize, 5, 6, 7] {
            let out = run_spmd(size + 1, MachineModel::ibm_sp(), move |ctx| {
                // A group of all but the last rank; the last sits out and
                // takes part in nothing (no deadlock).
                let members: Vec<usize> = (0..size).collect();
                (ctx.rank() < size)
                    .then(|| ctx.scoped(&members, 0, |ctx| ctx.all_reduce(1u64, |a, b| a + b)))
            });
            let want: Vec<Option<u64>> = (0..=size)
                .map(|r| (r < size).then_some(size as u64))
                .collect();
            assert_eq!(out.results, want, "size={size}");
        }
    }
}
