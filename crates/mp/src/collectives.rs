//! Collective operations over the whole SPMD process set.
//!
//! These are the communication patterns the paper derives from the
//! archetypes' dataflow (§2.3 and §3.3): broadcast, gather (and
//! gather+broadcast), all-to-all for data redistribution, and reductions —
//! with **recursive doubling** (the paper's Figure 8) as the default
//! all-reduce algorithm. A gather-then-broadcast all-reduce is also
//! provided for the ablation benchmarks.
//!
//! Every collective must be called by *all* ranks, in the same order, like
//! MPI collectives; tags are namespaced by a per-rank sequence counter so
//! back-to-back collectives cannot interfere.

use crate::ctx::Ctx;
use crate::payload::{Payload, Shared};

impl Ctx {
    /// Dissemination barrier: ⌈log₂ n⌉ rounds of shifted exchanges.
    /// After it returns, every rank's virtual clock is at least the
    /// maximum clock any rank had when entering the barrier.
    pub fn barrier(&mut self) {
        self.trace_collective("barrier");
        let n = self.nprocs();
        let base = self.next_collective_tag();
        let rank = self.rank();
        let mut k = 1usize;
        let mut step = 0u64;
        while k < n {
            let to = (rank + k) % n;
            let from = (rank + n - k) % n;
            self.send(to, base | step, ());
            let () = self.recv(from, base | step);
            k <<= 1;
            step += 1;
        }
    }

    /// Binomial-tree broadcast from `root`. On the root, `value` must be
    /// `Some`; on other ranks it is ignored and may be `None`. Returns the
    /// broadcast value on every rank.
    ///
    /// The payload travels the tree as a [`Shared`] handle: every forward
    /// clones a refcount, not the data. Each receiver then makes the one
    /// deep copy it returns, on its own thread, and the root gets back
    /// the very buffer it supplied, uncopied, once the receivers have
    /// released it: n − 1 copies in all. The root's wait is bounded (see
    /// `Shared::materialize`): a program whose receivers only enter the
    /// broadcast after hearing from the root still completes, the root
    /// then copying instead. A payload under 128 KiB is not waited for:
    /// whichever rank materializes it last moves it, the others copy.
    /// Use [`Ctx::broadcast_shared`] to keep the handle and copy nothing.
    ///
    /// On a one-rank scope the value comes straight back, unwrapped: no
    /// handle is allocated, and the trace and the tag sequence are the
    /// ones a wider broadcast leaves.
    pub fn broadcast<T: Payload + Clone + Sync>(&mut self, root: usize, value: Option<T>) -> T {
        if self.nprocs() == 1 {
            self.trace_collective("broadcast");
            self.next_collective_tag();
            return value.expect("broadcast root must supply a value");
        }
        let handle = self.broadcast_shared(root, value.map(Shared::new));
        handle.materialize(self.rank() == root, || self.peers_alive())
    }

    /// [`Ctx::broadcast`] without materializing an owned value: returns
    /// the reference-counted payload handle directly, so a fan-out of any
    /// size performs zero deep copies on every rank.
    pub fn broadcast_shared<T: Payload + Sync>(
        &mut self,
        root: usize,
        value: Option<Shared<T>>,
    ) -> Shared<T> {
        self.trace_collective("broadcast");
        let n = self.nprocs();
        let base = self.next_collective_tag();
        let rank = self.rank();
        let relative = (rank + n - root) % n;

        let mut val = if relative == 0 {
            Some(value.expect("broadcast root must supply a value"))
        } else {
            None
        };

        // Receive phase: find the bit at which our binomial-tree parent
        // addresses us.
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = (relative - mask + root) % n;
                val = Some(self.recv_shared(src, base));
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below the bit where we received.
        // This is a pure fan-out (no receives interleave with it), so the
        // sends publish quietly and one finish_fanout pays a single
        // publication fence plus one wake check per child, instead of a
        // full fence/wake handshake per message. Clock and stats
        // accounting are identical to plain sends, keeping results
        // bit-identical.
        mask >>= 1;
        let v = val.expect("broadcast value must be set by receive phase");
        let mut children = Vec::new();
        while mask > 0 {
            if relative + mask < n {
                let dst = (relative + mask + root) % n;
                self.send_shared_quiet(dst, base, &v);
                children.push(dst);
            }
            mask >>= 1;
        }
        self.finish_fanout(children.into_iter());
        v
    }

    /// Linear gather to `root`: returns `Some(values)` on the root with
    /// `values[r]` the contribution of rank `r`, `None` elsewhere.
    pub fn gather<T: Payload>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        self.trace_collective("gather");
        let n = self.nprocs();
        let base = self.next_collective_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            out[root] = Some(value);
            #[allow(clippy::needless_range_loop)] // r is also the source rank
            for r in 0..n {
                if r != root {
                    out[r] = Some(self.recv(r, base));
                }
            }
            Some(out.into_iter().map(|v| v.expect("all gathered")).collect())
        } else {
            self.send(root, base, value);
            None
        }
    }

    /// Ring all-gather: after `n − 1` shift steps every rank holds the
    /// contribution of every rank, indexed by rank.
    ///
    /// Blocks travel the ring as [`Shared`] handles — each hop forwards a
    /// refcount instead of deep-copying the block. A rank then copies the
    /// other ranks' n − 1 blocks, on its own thread, and takes its own
    /// block back uncopied once the others have released it (as
    /// [`Ctx::broadcast`]'s root does, and under the same 128 KiB
    /// threshold): n(n − 1) copies in all, the collective's product and
    /// nothing more. Use [`Ctx::all_gather_shared`] to keep the handles
    /// and copy nothing.
    pub fn all_gather<T: Payload + Clone + Sync>(&mut self, value: T) -> Vec<T> {
        let rank = self.rank();
        let mut handles = self.all_gather_shared(Shared::new(value));
        let own = handles.remove(rank);
        let mut out: Vec<T> = handles
            .into_iter()
            .map(|h| h.materialize(false, || true))
            .collect();
        out.insert(rank, own.materialize(true, || self.peers_alive()));
        out
    }

    /// [`Ctx::all_gather`] without materializing owned blocks: every rank
    /// receives refcounted handles onto the single allocation each rank
    /// contributed, for zero deep copies anywhere in the ring.
    pub fn all_gather_shared<T: Payload + Sync>(&mut self, value: Shared<T>) -> Vec<Shared<T>> {
        self.trace_collective("all_gather");
        let n = self.nprocs();
        let base = self.next_collective_tag();
        let rank = self.rank();
        let mut out: Vec<Option<Shared<T>>> = (0..n).map(|_| None).collect();
        out[rank] = Some(value);
        let right = (rank + 1) % n;
        let left = (rank + n - 1) % n;
        for step in 0..n.saturating_sub(1) {
            // Pass along the block that is `step` hops behind us in the ring.
            let send_idx = (rank + n - step) % n;
            let recv_idx = (rank + n - step - 1) % n;
            let outgoing = out[send_idx].as_ref().expect("block must be present");
            self.send_shared(right, base | step as u64, outgoing);
            out[recv_idx] = Some(self.recv_shared(left, base | step as u64));
        }
        out.into_iter()
            .map(|v| v.expect("ring completed"))
            .collect()
    }

    /// Linear scatter from `root`: the root supplies one value per rank
    /// (`values[r]` goes to rank `r`); every rank returns its own piece.
    pub fn scatter<T: Payload>(&mut self, root: usize, values: Option<Vec<T>>) -> T {
        self.trace_collective("scatter");
        let n = self.nprocs();
        let base = self.next_collective_tag();
        if self.rank() == root {
            let values = values.expect("scatter root must supply values");
            assert_eq!(values.len(), n, "scatter needs one value per rank");
            // Pure fan-out: quiet sends + one batched wake round (see
            // broadcast_shared's send phase).
            let mut own = None;
            for (r, v) in values.into_iter().enumerate() {
                if r == root {
                    own = Some(v);
                } else {
                    self.send_quiet(r, base, v);
                }
            }
            self.finish_fanout((0..n).filter(|&r| r != root));
            own.expect("root keeps its own piece")
        } else {
            self.recv(root, base)
        }
    }

    /// Personalized all-to-all exchange: `items[d]` is delivered to rank
    /// `d`; the return value's slot `s` holds what rank `s` sent here.
    /// This is the communication pattern of the one-deep archetype's
    /// split/merge redistribution and of the mesh archetype's grid
    /// redistribution.
    pub fn all_to_all<T: Payload>(&mut self, items: Vec<T>) -> Vec<T> {
        self.trace_collective("all_to_all");
        let n = self.nprocs();
        assert_eq!(items.len(), n, "all_to_all needs one item per rank");
        let base = self.next_collective_tag();
        let rank = self.rank();
        let mut inbox: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut outbox: Vec<Option<T>> = items.into_iter().map(Some).collect();
        inbox[rank] = outbox[rank].take();
        for offset in 1..n {
            let dst = (rank + offset) % n;
            let src = (rank + n - offset) % n;
            let outgoing = outbox[dst].take().expect("one item per destination");
            self.send(dst, base | offset as u64, outgoing);
            inbox[src] = Some(self.recv(src, base | offset as u64));
        }
        inbox
            .into_iter()
            .map(|v| v.expect("exchange completed"))
            .collect()
    }

    /// Binomial-tree reduction to `root` with operator `op`.
    /// `op` must be associative (and is applied in deterministic order).
    /// Returns `Some(result)` on root, `None` elsewhere.
    pub fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Payload,
        F: Fn(T, T) -> T,
    {
        self.trace_collective("reduce");
        let n = self.nprocs();
        let base = self.next_collective_tag();
        let rank = self.rank();
        let relative = (rank + n - root) % n;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask == 0 {
                let peer = relative | mask;
                if peer < n {
                    let src = (peer + root) % n;
                    let other: T = self.recv(src, base);
                    acc = op(acc, other);
                }
            } else {
                let dst = (relative - mask + root) % n;
                self.send(dst, base, acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// All-reduce by **recursive doubling** (paper Figure 8), the
    /// archetype library's default reduction: after ⌈log₂ n⌉ exchange
    /// rounds every rank holds the reduction of all contributions.
    ///
    /// Handles non-power-of-two `n` with the standard pre/post folding of
    /// the `n − 2^⌊log₂ n⌋` extra ranks.
    ///
    /// ```
    /// use archetype_mp::{run_spmd, MachineModel};
    ///
    /// // Every rank learns the maximum rank number.
    /// let out = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
    ///     ctx.all_reduce(ctx.rank() as u64, u64::max)
    /// });
    /// assert_eq!(out.results, vec![4, 4, 4, 4, 4]);
    /// ```
    pub fn all_reduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Payload + Clone,
        F: Fn(T, T) -> T,
    {
        self.trace_collective("all_reduce");
        let n = self.nprocs();
        let base = self.next_collective_tag();
        let rank = self.rank();
        let pof2 = if n.is_power_of_two() {
            n
        } else {
            n.next_power_of_two() / 2
        };
        let rem = n - pof2;

        let mut acc = value;

        // Fold the first `rem` even-position extras onto their odd partners
        // so exactly `pof2` ranks remain.
        let my_idx: Option<usize> = if rank < 2 * rem {
            if rank.is_multiple_of(2) {
                self.send(rank + 1, base | 0xFF00, acc.clone());
                None
            } else {
                let other: T = self.recv(rank - 1, base | 0xFF00);
                acc = op(other, acc);
                Some(rank / 2)
            }
        } else {
            Some(rank - rem)
        };

        if let Some(idx) = my_idx {
            // Recursive doubling among the `pof2` participants.
            let to_rank = |i: usize| if i < rem { 2 * i + 1 } else { i + rem };
            let mut mask = 1usize;
            let mut step = 0u64;
            while mask < pof2 {
                let peer = to_rank(idx ^ mask);
                self.send(peer, base | step, acc.clone());
                let other: T = self.recv(peer, base | step);
                // Apply in index order for determinism regardless of side.
                acc = if idx & mask == 0 {
                    op(acc, other)
                } else {
                    op(other, acc)
                };
                mask <<= 1;
                step += 1;
            }
            // Send the final value back to the folded partner.
            if rank < 2 * rem {
                self.send(rank - 1, base | 0xFF01, acc.clone());
            }
        } else {
            acc = self.recv(rank + 1, base | 0xFF01);
        }
        acc
    }

    /// All-reduce implemented as gather-to-root + sequential fold +
    /// broadcast. Provided as the baseline for the ablation bench
    /// comparing against recursive doubling.
    pub fn all_reduce_via_gather<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Payload + Clone + Sync,
        F: Fn(T, T) -> T,
    {
        self.trace_collective("all_reduce_via_gather");
        let gathered = self.gather(0, value);
        let folded = gathered.map(|vs| {
            let mut it = vs.into_iter();
            let first = it.next().expect("n >= 1");
            it.fold(first, &op)
        });
        self.broadcast(0, folded)
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultPlan;
    use crate::model::MachineModel;
    use crate::runner::{run_spmd, run_spmd_ft, RunConfig};

    /// Exercise every collective for a spread of process counts including
    /// non-powers-of-two, which stress the remainder handling.
    const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 13, 16];

    #[test]
    fn barrier_synchronizes_clocks() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::zero_comm(), |ctx| {
                // Rank r computes for r seconds, then all must observe >= n-1.
                ctx.charge_seconds(ctx.rank() as f64);
                ctx.barrier();
                ctx.now()
            });
            let max_entry = (n - 1) as f64;
            for t in &out.results {
                assert!(*t >= max_entry, "n={n}: clock {t} < {max_entry}");
            }
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for &n in SIZES {
            for root in 0..n {
                let out = run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
                    let v = if ctx.rank() == root {
                        Some(vec![root as i64, 42])
                    } else {
                        None
                    };
                    ctx.broadcast(root, v)
                });
                for r in &out.results {
                    assert_eq!(*r, vec![root as i64, 42], "n={n} root={root}");
                }
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                ctx.gather(0, ctx.rank() as u64 * 10)
            });
            let expected: Vec<u64> = (0..n as u64).map(|r| r * 10).collect();
            assert_eq!(out.results[0], Some(expected));
            for r in 1..n {
                assert_eq!(out.results[r], None);
            }
        }
    }

    #[test]
    fn all_gather_gives_everyone_everything() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                ctx.all_gather(vec![ctx.rank() as i32; 2])
            });
            let expected: Vec<Vec<i32>> = (0..n as i32).map(|r| vec![r; 2]).collect();
            for r in &out.results {
                assert_eq!(*r, expected);
            }
        }
    }

    #[test]
    fn scatter_delivers_one_piece_each() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                let values = if ctx.rank() == 0 {
                    Some((0..ctx.nprocs() as i64).map(|i| i * i).collect())
                } else {
                    None
                };
                ctx.scatter(0, values)
            });
            for (r, v) in out.results.iter().enumerate() {
                assert_eq!(*v, (r * r) as i64);
            }
        }
    }

    #[test]
    fn all_to_all_transposes() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                // items[d] = (my_rank, d)
                let items: Vec<(u64, u64)> = (0..ctx.nprocs() as u64)
                    .map(|d| (ctx.rank() as u64, d))
                    .collect();
                ctx.all_to_all(items)
            });
            for (me, got) in out.results.iter().enumerate() {
                for (s, &(from, to)) in got.iter().enumerate() {
                    assert_eq!(from, s as u64, "slot s holds rank s's item");
                    assert_eq!(to, me as u64, "and it was addressed to me");
                }
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for &n in SIZES {
            for root in 0..n {
                let out = run_spmd(n, MachineModel::ibm_sp(), move |ctx| {
                    ctx.reduce(root, (ctx.rank() + 1) as u64, |a, b| a + b)
                });
                let expected = (n * (n + 1) / 2) as u64;
                for (r, v) in out.results.iter().enumerate() {
                    if r == root {
                        assert_eq!(*v, Some(expected), "n={n} root={root}");
                    } else {
                        assert_eq!(*v, None);
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_recursive_doubling_matches_sum() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                ctx.all_reduce((ctx.rank() + 1) as u64, |a, b| a + b)
            });
            let expected = (n * (n + 1) / 2) as u64;
            for v in &out.results {
                assert_eq!(*v, expected, "n={n}");
            }
        }
    }

    #[test]
    fn all_reduce_max_and_min() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                let x = ctx.rank() as f64;
                let mx = ctx.all_reduce(x, f64::max);
                let mn = ctx.all_reduce(x, f64::min);
                (mx, mn)
            });
            for &(mx, mn) in &out.results {
                assert_eq!(mx, (n - 1) as f64);
                assert_eq!(mn, 0.0);
            }
        }
    }

    #[test]
    fn all_reduce_via_gather_agrees_with_recursive_doubling() {
        for &n in SIZES {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                let a = ctx.all_reduce(ctx.rank() as i64 + 1, |x, y| x + y);
                let b = ctx.all_reduce_via_gather(ctx.rank() as i64 + 1, |x, y| x + y);
                (a, b)
            });
            for &(a, b) in &out.results {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn recursive_doubling_is_cheaper_than_gather_broadcast_at_scale() {
        // The paper's motivation for recursive doubling: log vs linear cost.
        let n = 16;
        let t_rd = run_spmd(n, MachineModel::workstation_network(), |ctx| {
            ctx.all_reduce(1.0f64, |a, b| a + b);
        })
        .elapsed_virtual;
        let t_gb = run_spmd(n, MachineModel::workstation_network(), |ctx| {
            ctx.all_reduce_via_gather(1.0f64, |a, b| a + b);
        })
        .elapsed_virtual;
        assert!(
            t_rd < t_gb,
            "recursive doubling ({t_rd}) should beat gather+broadcast ({t_gb})"
        );
    }

    /// A program that relies on an eager broadcast: rank 1 enters the
    /// broadcast only after a message the root sends once its broadcast
    /// has returned. The root's wait for its buffer gives up and copies,
    /// so the program completes with the values an eager broadcast gives.
    #[test]
    fn a_receiver_that_waits_on_the_root_before_a_broadcast_still_gets_it() {
        for n in [2, 3, 4] {
            let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
                let rank = ctx.rank();
                if rank == 0 {
                    let got = ctx.broadcast(0, Some(vec![10u64; 1 << 15]));
                    ctx.send(1, 7, 99u64);
                    (got, 99)
                } else if rank == 1 {
                    let token: u64 = ctx.recv(0, 7);
                    (ctx.broadcast(0, None), token)
                } else {
                    (ctx.broadcast(0, None), 99)
                }
            });
            for (rank, r) in out.results.iter().enumerate() {
                assert_eq!(*r, (vec![10u64; 1 << 15], 99), "n={n}, rank {rank}");
            }
        }
    }

    /// A receiver that dies before it enters the broadcast: the run ends
    /// and reports that rank's panic; the root's wait for its buffer sees
    /// the death and copies instead of hanging.
    #[test]
    fn a_receiver_that_panics_before_a_broadcast_is_reported_not_waited_on() {
        for n in [2, 3, 5] {
            let out = run_spmd_ft(
                n,
                MachineModel::zero_comm(),
                RunConfig::default(),
                FaultPlan::new(0),
                |ctx| {
                    if ctx.rank() == n - 1 {
                        // Let the root's send land first on some runs.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        panic!("receiver lost before the broadcast");
                    }
                    let v = (ctx.rank() == 0).then(|| vec![3u8; 1 << 18]);
                    ctx.broadcast(0, v)
                },
            );
            let failures = out.failures();
            assert!(
                failures
                    .iter()
                    .any(|f| f.rank == n - 1 && f.message.contains("receiver lost")),
                "n={n}: {failures:?}"
            );
        }
    }

    #[test]
    fn world_empty_payload_broadcast_and_all_gather() {
        // Zero-byte payloads travel the shared-payload fast path intact.
        let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
            let v: Vec<f64> = ctx.broadcast(1, (ctx.rank() == 1).then(Vec::new));
            let all = ctx.all_gather(Vec::<u8>::new());
            (v, all)
        });
        for (v, all) in &out.results {
            assert!(v.is_empty());
            assert_eq!(all.len(), 6);
            assert!(all.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn collectives_back_to_back_do_not_interfere() {
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let a = ctx.all_reduce(1u64, |x, y| x + y);
            let b = ctx.all_reduce(2u64, |x, y| x + y);
            let c = ctx.broadcast(0, Some(ctx.rank() as u64)).min(99);
            ctx.barrier();
            (a, b, c)
        });
        for &(a, b, c) in &out.results {
            assert_eq!((a, b, c), (4, 8, 0));
        }
    }
}
