//! Process subgroups: task-parallel composition of data-parallel
//! computations.
//!
//! The paper's future-work list asks for "a theory and strategy for
//! archetype composition … for example task-parallel compositions of
//! data-parallel computations" (§7; also the group-communication archetype
//! of the paper's reference 12). This module provides the substrate for that:
//! a [`Group`] names a subset of ranks and offers the collective
//! operations *within* the subset, with a tag namespace derived from the
//! member list so that disjoint groups can run their collectives
//! concurrently without interfering and without desynchronizing the
//! global collective sequence.

use crate::ctx::{Ctx, Tag};
use crate::payload::{Payload, Shared};

const GROUP_TAG_BASE: u64 = 1 << 62;

/// A subset of the SPMD ranks with its own collective operations.
///
/// All members must construct the group with the *same* member list (in
/// the same order) and then execute the same sequence of group operations
/// — the usual SPMD contract, scoped to the subset. Operations take the
/// rank's [`Ctx`] explicitly; the group only translates ranks and
/// namespaces tags.
///
/// ```
/// use archetype_mp::{run_spmd, Group, MachineModel};
///
/// // Evens and odds each sum their ranks, concurrently.
/// let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
///     let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
///     let mut g = Group::split(ctx, &colors);
///     g.all_reduce(ctx, ctx.rank() as u64, |a, b| a + b)
/// });
/// assert_eq!(out.results, vec![2, 4, 2, 4]); // 0+2 and 1+3
/// ```
#[derive(Clone, Debug)]
pub struct Group {
    members: Vec<usize>,
    my_index: usize,
    gid: u64,
    seq: u64,
}

impl Group {
    /// Create this rank's view of the group. Returns `None` if the calling
    /// rank is not in `members`.
    ///
    /// # Panics
    /// Panics if `members` is empty or contains duplicates or
    /// out-of-range ranks.
    pub fn new(ctx: &Ctx, members: Vec<usize>) -> Option<Group> {
        Self::new_salted(ctx, members, 0)
    }

    /// [`Group::new`] with a namespace salt folded into the tag-space
    /// hash. Used by [`Group::split_nested`] so a subgroup whose member
    /// list *equals* its parent's (a degenerate split with one color)
    /// still gets a tag namespace disjoint from the parent's — the
    /// member list alone cannot distinguish them.
    fn new_salted(ctx: &Ctx, members: Vec<usize>, salt: u64) -> Option<Group> {
        assert!(!members.is_empty(), "a group needs at least one member");
        let mut seen = vec![false; ctx.nprocs()];
        for &m in &members {
            assert!(m < ctx.nprocs(), "member {m} out of range");
            assert!(!seen[m], "duplicate member {m}");
            seen[m] = true;
        }
        // Tag namespace from the salt and the member list (FNV-1a over
        // the ranks), so different groups get (almost surely) disjoint
        // tag spaces.
        let mut gid: u64 = 0xcbf29ce484222325 ^ salt;
        gid = gid.wrapping_mul(0x100000001b3);
        for &m in &members {
            gid ^= m as u64 + 1;
            gid = gid.wrapping_mul(0x100000001b3);
        }
        let my_index = members.iter().position(|&m| m == ctx.rank())?;
        Some(Group {
            members,
            my_index,
            gid: gid & 0x3FFF_FFFF, // keep room for seq/step bits
            seq: 0,
        })
    }

    /// Split the world into contiguous groups by `color`: every rank calls
    /// this with its own color; ranks sharing a color form one group.
    /// `colors` must be the full per-rank color table (replicated —
    /// computable from rank alone in SPMD style).
    pub fn split(ctx: &Ctx, colors: &[usize]) -> Group {
        assert_eq!(colors.len(), ctx.nprocs());
        let my_color = colors[ctx.rank()];
        let members: Vec<usize> = (0..ctx.nprocs())
            .filter(|&r| colors[r] == my_color)
            .collect();
        Group::new(ctx, members).expect("own rank is in its color class")
    }

    /// The group of all ranks — the root of a nested-split recursion tree.
    pub fn world(ctx: &Ctx) -> Group {
        Group::new(ctx, (0..ctx.nprocs()).collect()).expect("own rank is in the world")
    }

    /// Split *this* group into subgroups by per-member color: `colors[i]`
    /// is the color of group index `i` (the table is replicated, like
    /// [`Group::split`]'s). Members sharing a color form one subgroup,
    /// preserving their relative order. The subgroup's tag namespace is
    /// derived from its member list *salted with the parent's namespace*
    /// — so sibling subgroups at any nesting depth communicate without
    /// interfering, and even a degenerate one-color split (subgroup ==
    /// parent) gets a namespace disjoint from the parent's. This is the
    /// substrate of the recursive divide-and-conquer archetype's descent
    /// onto disjoint subcommunicators.
    pub fn split_nested(&self, ctx: &Ctx, colors: &[usize]) -> Group {
        assert_eq!(colors.len(), self.len(), "one color per group member");
        let my_color = colors[self.my_index];
        let members: Vec<usize> = self
            .members
            .iter()
            .copied()
            .zip(colors)
            .filter(|&(_, c)| *c == my_color)
            .map(|(m, _)| m)
            .collect();
        Group::new_salted(ctx, members, self.gid.wrapping_add(1))
            .expect("own rank is in its color class")
    }

    /// This rank's index within the group.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of group members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the group has exactly one member.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Global rank of group index `i`.
    pub fn global_rank(&self, i: usize) -> usize {
        self.members[i]
    }

    fn next_tag(&mut self) -> Tag {
        let t = GROUP_TAG_BASE | (self.gid << 24) | (self.seq << 8);
        self.seq += 1;
        t
    }

    /// Point-to-point send to group index `to`.
    pub fn send<T: Payload>(&self, ctx: &mut Ctx, to: usize, tag: Tag, value: T) {
        ctx.send(
            self.members[to],
            GROUP_TAG_BASE | (self.gid << 24) | tag,
            value,
        );
    }

    /// Point-to-point receive from group index `from`.
    pub fn recv<T: Payload>(&self, ctx: &mut Ctx, from: usize, tag: Tag) -> T {
        ctx.recv(self.members[from], GROUP_TAG_BASE | (self.gid << 24) | tag)
    }

    /// Dissemination barrier within the group.
    pub fn barrier(&mut self, ctx: &mut Ctx) {
        let n = self.len();
        let base = self.next_tag();
        let me = self.my_index;
        let mut k = 1usize;
        let mut step = 0u64;
        while k < n {
            let to = self.members[(me + k) % n];
            let from = self.members[(me + n - k) % n];
            ctx.send(to, base | step, ());
            let () = ctx.recv(from, base | step);
            k <<= 1;
            step += 1;
        }
    }

    /// Binomial broadcast from group index `root`, copying as
    /// [`Ctx::broadcast`] does: the value travels the tree as one
    /// [`Shared`] handle, and each member materializes it by the same
    /// rule (receivers copy on their own thread; the root of a value of
    /// 128 KiB or more takes its own buffer back uncopied).
    pub fn broadcast<T: Payload + Clone + Sync>(
        &mut self,
        ctx: &mut Ctx,
        root: usize,
        value: Option<T>,
    ) -> T {
        let n = self.len();
        let base = self.next_tag();
        let relative = (self.my_index + n - root) % n;
        let mut val = if relative == 0 {
            Some(Shared::new(
                value.expect("group broadcast root must supply a value"),
            ))
        } else {
            None
        };
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = self.members[(relative - mask + root) % n];
                val = Some(ctx.recv_shared(src, base));
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        let v = val.expect("set by receive phase");
        while mask > 0 {
            if relative + mask < n {
                let dst = self.members[(relative + mask + root) % n];
                ctx.send_shared(dst, base, &v);
            }
            mask >>= 1;
        }
        v.materialize(relative == 0, || ctx.peers_alive())
    }

    /// Recursive-doubling all-reduce within the group.
    pub fn all_reduce<T, F>(&mut self, ctx: &mut Ctx, value: T, op: F) -> T
    where
        T: Payload + Clone,
        F: Fn(T, T) -> T,
    {
        let n = self.len();
        let base = self.next_tag();
        let me = self.my_index;
        let pof2 = if n.is_power_of_two() {
            n
        } else {
            n.next_power_of_two() / 2
        };
        let rem = n - pof2;
        let mut acc = value;

        let my_idx: Option<usize> = if me < 2 * rem {
            if me.is_multiple_of(2) {
                ctx.send(self.members[me + 1], base | 0xF0, acc.clone());
                None
            } else {
                let other: T = ctx.recv(self.members[me - 1], base | 0xF0);
                acc = op(other, acc);
                Some(me / 2)
            }
        } else {
            Some(me - rem)
        };

        if let Some(idx) = my_idx {
            let to_global = |i: usize| self.members[if i < rem { 2 * i + 1 } else { i + rem }];
            let mut mask = 1usize;
            let mut step = 0u64;
            while mask < pof2 {
                let peer = to_global(idx ^ mask);
                ctx.send(peer, base | step, acc.clone());
                let other: T = ctx.recv(peer, base | step);
                acc = if idx & mask == 0 {
                    op(acc, other)
                } else {
                    op(other, acc)
                };
                mask <<= 1;
                step += 1;
            }
            if me < 2 * rem {
                ctx.send(self.members[me - 1], base | 0xF1, acc.clone());
            }
        } else {
            acc = ctx.recv(self.members[me + 1], base | 0xF1);
        }
        acc
    }

    /// All-gather within the group: every member returns the
    /// contributions of all members, indexed by group rank. Implemented
    /// as a gather to group index 0 followed by a binomial broadcast.
    /// Elements must be [`FixedSize`](crate::FixedSize) so the gathered
    /// vector is itself a payload, and `Sync` so the broadcast can share
    /// it.
    ///
    /// ```
    /// use archetype_mp::{run_spmd, Group, MachineModel};
    ///
    /// let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
    ///     let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
    ///     let mut g = Group::split(ctx, &colors);
    ///     g.all_gather(ctx, ctx.rank() as u64)
    /// });
    /// assert_eq!(out.results[0], vec![0, 2]); // even group, in group order
    /// assert_eq!(out.results[3], vec![1, 3]); // odd group
    /// ```
    pub fn all_gather<T: crate::FixedSize + Sync>(&mut self, ctx: &mut Ctx, value: T) -> Vec<T> {
        let gathered = self.gather(ctx, 0, value);
        self.broadcast(ctx, 0, gathered)
    }

    /// Linear scatter from group index `root`: the root supplies one value
    /// per member (`values[i]` goes to group index `i`); every member
    /// returns its own piece. The group-scoped counterpart of
    /// [`Ctx::scatter`], used by the recursive divide-and-conquer skeleton
    /// to deal subproblems down the recursion tree.
    pub fn scatter<T: Payload>(&mut self, ctx: &mut Ctx, root: usize, values: Option<Vec<T>>) -> T {
        let n = self.len();
        let base = self.next_tag();
        if self.my_index == root {
            let values = values.expect("group scatter root must supply values");
            assert_eq!(values.len(), n, "group scatter needs one value per member");
            let mut own = None;
            for (i, v) in values.into_iter().enumerate() {
                if i == root {
                    own = Some(v);
                } else {
                    ctx.send(self.members[i], base, v);
                }
            }
            own.expect("root keeps its own piece")
        } else {
            ctx.recv(self.members[root], base)
        }
    }

    /// Personalized all-to-all exchange within the group: `items[d]` is
    /// delivered to group index `d`; the return value's slot `s` holds
    /// what group index `s` sent here. The group-scoped counterpart of
    /// [`Ctx::all_to_all`] — the redistribution pattern of a one-deep
    /// split/merge phase, scoped to a subgroup so that sibling subgroups
    /// can redistribute concurrently.
    pub fn all_to_all<T: Payload>(&mut self, ctx: &mut Ctx, items: Vec<T>) -> Vec<T> {
        let n = self.len();
        assert_eq!(items.len(), n, "group all_to_all needs one item per member");
        let base = self.next_tag();
        let me = self.my_index;
        let mut inbox: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut outbox: Vec<Option<T>> = items.into_iter().map(Some).collect();
        inbox[me] = outbox[me].take();
        for offset in 1..n {
            let dst = (me + offset) % n;
            let src = (me + n - offset) % n;
            let outgoing = outbox[dst].take().expect("one item per destination");
            ctx.send(self.members[dst], base | offset as u64, outgoing);
            inbox[src] = Some(ctx.recv(self.members[src], base | offset as u64));
        }
        inbox
            .into_iter()
            .map(|v| v.expect("exchange completed"))
            .collect()
    }

    /// Root-only reduction to group index `root`: returns
    /// `Some(op(v₀, op(v₁, …)))` — the fold of all members' contributions
    /// in ascending group order — on the root and `None` elsewhere. The
    /// group-scoped counterpart of an `MPI_Reduce`, completing the
    /// collective family ([`Group::all_reduce`] for everyone-gets-it,
    /// [`Group::gather`] for the unfolded vector).
    ///
    /// `op` must be associative but — unlike [`Group::all_reduce`]'s —
    /// need **not** be commutative: the binomial combining tree always
    /// folds a contiguous, ascending range of group ranks, so the result
    /// equals the left-to-right fold exactly. Costs ⌈log₂ n⌉ message
    /// rounds (plus one hop when `root != 0`) instead of the gather's
    /// n − 1 into one rank.
    ///
    /// ```
    /// use archetype_mp::{run_spmd, Group, MachineModel};
    ///
    /// let out = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
    ///     let mut g = Group::world(ctx);
    ///     // Non-commutative op: string-ish concatenation by powers.
    ///     g.reduce(ctx, 2, vec![ctx.rank() as u64], |mut a, b| {
    ///         a.extend(b);
    ///         a
    ///     })
    /// });
    /// assert_eq!(out.results[2], Some(vec![0, 1, 2, 3, 4])); // ascending fold
    /// assert_eq!(out.results[0], None);
    /// ```
    pub fn reduce<T, F>(&mut self, ctx: &mut Ctx, root: usize, value: T, op: F) -> Option<T>
    where
        T: Payload,
        F: Fn(T, T) -> T,
    {
        let n = self.len();
        let base = self.next_tag();
        let me = self.my_index;
        let mut acc = Some(value);
        // Binomial tree rooted at group index 0, combining ascending
        // contiguous ranges so the fold order is exactly group order.
        let mut step = 1usize;
        let mut round = 0u64;
        while step < n {
            if me % (2 * step) == step {
                ctx.send(
                    self.members[me - step],
                    base | round,
                    acc.take().expect("contribution not yet donated"),
                );
                break;
            }
            if me.is_multiple_of(2 * step) && me + step < n {
                let other: T = ctx.recv(self.members[me + step], base | round);
                acc = Some(op(
                    acc.take().expect("accumulating rank holds a value"),
                    other,
                ));
            }
            step <<= 1;
            round += 1;
        }
        // Index 0 now holds the full fold; ship it to a non-zero root.
        if root == 0 {
            return if me == 0 { acc } else { None };
        }
        match me {
            0 => {
                ctx.send(
                    self.members[root],
                    base | 63,
                    acc.expect("index 0 holds the fold"),
                );
                None
            }
            _ if me == root => Some(ctx.recv(self.members[0], base | 63)),
            _ => None,
        }
    }

    /// Linear gather to group index `root`.
    pub fn gather<T: Payload>(&mut self, ctx: &mut Ctx, root: usize, value: T) -> Option<Vec<T>> {
        let n = self.len();
        let base = self.next_tag();
        if self.my_index == root {
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            out[root] = Some(value);
            #[allow(clippy::needless_range_loop)] // r is also the source index
            for r in 0..n {
                if r != root {
                    out[r] = Some(ctx.recv(self.members[r], base));
                }
            }
            Some(out.into_iter().map(|v| v.expect("gathered")).collect())
        } else {
            ctx.send(self.members[root], base, value);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;
    use crate::runner::run_spmd;

    #[test]
    fn split_forms_disjoint_groups() {
        let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
            // Even/odd split.
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
            let g = Group::split(ctx, &colors);
            (g.len(), g.rank(), g.global_rank(g.rank()))
        });
        for (r, &(len, idx, global)) in out.results.iter().enumerate() {
            assert_eq!(len, 3);
            assert_eq!(global, r);
            assert_eq!(idx, r / 2);
        }
    }

    #[test]
    fn concurrent_group_reductions_do_not_interfere() {
        // The task-parallel composition: two groups run *different numbers*
        // of collectives concurrently — which would desynchronize global
        // collective tags, but group tags are namespaced by member list.
        let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| usize::from(r >= 3)).collect();
            let mut g = Group::split(ctx, &colors);
            let mut acc = 0i64;
            let rounds = if ctx.rank() < 3 { 5 } else { 2 };
            for _ in 0..rounds {
                acc = g.all_reduce(ctx, ctx.rank() as i64, |a, b| a + b);
            }
            g.barrier(ctx);
            // After the task-parallel phase, a *global* collective still
            // works because group ops never touched the global sequence.
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
            let mut g = Group::split(ctx, &colors);
            let v = g.broadcast(ctx, 0, (g.rank() == 0).then(|| ctx.rank() as u64));
            let gathered = g.gather(ctx, 0, ctx.rank() as u64);
            (v, gathered)
        });
        // Prime group broadcast root is global rank 2; other group's is 0.
        assert_eq!(out.results[3].0, 2);
        assert_eq!(out.results[5].0, 2);
        assert_eq!(out.results[6].0, 0);
        // Gathers collect the global ranks in group order.
        assert_eq!(out.results[2].1.as_ref().unwrap(), &vec![2, 3, 5]);
        assert_eq!(out.results[0].1.as_ref().unwrap(), &vec![0, 1, 4, 6]);
    }

    #[test]
    fn singleton_group_works() {
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..3).collect(); // everyone alone
            let mut g = Group::split(ctx, &colors);
            g.barrier(ctx);
            g.all_reduce(ctx, ctx.rank() as i64 * 10, |a, b| a + b)
        });
        assert_eq!(out.results, vec![0, 10, 20]);
    }

    #[test]
    fn singleton_group_broadcast_gather_and_all_gather() {
        // Every degenerate single-member collective must complete without
        // communicating and return the member's own contribution.
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..3).collect(); // everyone alone
            let mut g = Group::split(ctx, &colors);
            let b = g.broadcast(ctx, 0, Some(ctx.rank() as u64 * 7));
            let gathered = g.gather(ctx, 0, ctx.rank() as u64).expect("root of self");
            let all = g.all_gather(ctx, ctx.rank() as u64);
            (b, gathered, all)
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
            let colors = vec![0usize; ctx.nprocs()];
            let mut g = Group::split(ctx, &colors);
            let v: Vec<u64> = g.broadcast(ctx, 2, (g.rank() == 2).then(Vec::new));
            let unit: () = g.broadcast(ctx, 0, (g.rank() == 0).then_some(()));
            (v, unit)
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
            let colors = vec![0usize; ctx.nprocs()];
            let mut g = Group::split(ctx, &colors);
            let gathered = g.gather(
                ctx,
                0,
                if g.rank().is_multiple_of(2) {
                    Vec::new()
                } else {
                    vec![g.rank() as u64; g.rank()]
                },
            );
            let all = g.all_gather(ctx, g.rank() as u64);
            (gathered, all)
        });
        let gathered = out.results[0].0.as_ref().expect("group root");
        assert_eq!(gathered.len(), 4);
        assert!(gathered[0].is_empty() && gathered[2].is_empty());
        assert_eq!(gathered[1], vec![1]);
        assert_eq!(gathered[3], vec![3, 3, 3]);
        for (_, all) in &out.results {
            assert_eq!(all, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn world_empty_payload_broadcast_and_all_gather() {
        // The same degenerate cases against the world-level collectives
        // in `collectives.rs`, which take the shared-payload fast path.
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
    fn nested_split_forms_disjoint_subgroups() {
        let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            let world = Group::world(ctx);
            // Halves, then quarters, by contiguous index ranges.
            let halves: Vec<usize> = (0..world.len()).map(|i| i / 4).collect();
            let half = world.split_nested(ctx, &halves);
            let quarters: Vec<usize> = (0..half.len()).map(|i| i / 2).collect();
            let quarter = half.split_nested(ctx, &quarters);
            (
                half.len(),
                half.rank(),
                quarter.len(),
                quarter.rank(),
                quarter.global_rank(0),
            )
        });
        for (r, &(hl, hr, ql, qr, qroot)) in out.results.iter().enumerate() {
            assert_eq!(hl, 4);
            assert_eq!(hr, r % 4);
            assert_eq!(ql, 2);
            assert_eq!(qr, r % 2);
            assert_eq!(qroot, r - r % 2, "quarter root is the even partner");
        }
    }

    #[test]
    fn degenerate_one_color_nested_split_gets_a_fresh_tag_namespace() {
        // A one-color nested split yields a subgroup with the *same*
        // member list as its parent; the salt must still give it a
        // disjoint tag namespace, and interleaved parent/child
        // collectives must not alias each other's messages.
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let mut world = Group::world(ctx);
            let same = world.split_nested(ctx, &vec![0; world.len()]);
            assert_eq!(same.members, world.members, "identical member list");
            assert_ne!(same.gid, world.gid, "namespaces must differ");
            // Repeating the split reproduces the same child namespace...
            let again = world.split_nested(ctx, &vec![0; world.len()]);
            assert_eq!(again.gid, same.gid);
            // ...and a grandchild differs from both.
            let mut grand = same.split_nested(ctx, &vec![0; same.len()]);
            assert_ne!(grand.gid, same.gid);
            assert_ne!(grand.gid, world.gid);
            // Interleaved collectives on all three levels stay coherent.
            let a = world.broadcast(ctx, 0, (world.rank() == 0).then_some(11u64));
            let mut same = same;
            let b = same.all_reduce(ctx, ctx.rank() as u64, |x, y| x + y);
            let c = grand.broadcast(ctx, 0, (grand.rank() == 0).then_some(33u64));
            (a, b, c)
        });
        for &(a, b, c) in &out.results {
            assert_eq!((a, b, c), (11, 6, 33));
        }
    }

    #[test]
    fn sibling_subgroups_at_same_depth_cannot_observe_each_other() {
        // Each sibling runs a *different number* of collectives carrying
        // values stamped with the sibling's identity; every value a member
        // observes must come from its own sibling, and a global collective
        // afterwards still matches — the recursion-tree isolation property
        // the recursive D&C skeleton leans on.
        let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            let world = Group::world(ctx);
            let colors: Vec<usize> = (0..world.len()).map(|i| i / 2).collect();
            let mut pair = world.split_nested(ctx, &colors);
            let my_color = ctx.rank() / 2;
            let rounds = my_color + 1; // sibling j runs j+1 collectives
            let mut seen = Vec::new();
            for _ in 0..rounds {
                let got = pair.all_to_all(ctx, vec![my_color as u64; pair.len()]);
                seen.extend(got);
            }
            let gathered = pair.gather(ctx, 0, my_color as u64 * 100 + ctx.rank() as u64);
            let world_sum = ctx.all_reduce(1u64, |a, b| a + b);
            (seen, gathered, world_sum)
        });
        for (r, (seen, gathered, world_sum)) in out.results.iter().enumerate() {
            let color = (r / 2) as u64;
            assert_eq!(seen.len(), 2 * (r / 2 + 1));
            assert!(
                seen.iter().all(|&v| v == color),
                "rank {r} observed a sibling's message: {seen:?}"
            );
            if r % 2 == 0 {
                let g = gathered.as_ref().expect("pair root");
                assert_eq!(g, &vec![color * 100 + r as u64, color * 100 + r as u64 + 1]);
            } else {
                assert!(gathered.is_none());
            }
            assert_eq!(*world_sum, 8);
        }
    }

    #[test]
    fn group_scatter_delivers_one_piece_each() {
        let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
            let mut g = Group::split(ctx, &colors);
            let values = (g.rank() == 1).then(|| {
                (0..g.len() as u64)
                    .map(|i| vec![i * 10 + ctx.rank() as u64 % 2])
                    .collect()
            });
            g.scatter(ctx, 1, values)
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
            let colors: Vec<usize> = (0..3).collect(); // everyone alone
            let mut g = Group::split(ctx, &colors);
            let s: Vec<u64> = g.scatter(ctx, 0, Some(vec![vec![ctx.rank() as u64]]));
            let a = g.all_to_all(ctx, vec![Vec::<u64>::new()]);
            (s, a)
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
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
            if ctx.rank() % 2 == 1 {
                let mut g = Group::split(ctx, &colors);
                let items: Vec<(u64, u64)> =
                    (0..g.len() as u64).map(|d| (g.rank() as u64, d)).collect();
                Some(g.all_to_all(ctx, items))
            } else {
                None
            }
        });
        for (r, got) in out.results.iter().enumerate() {
            if r % 2 == 1 {
                let got = got.as_ref().expect("group member");
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
    fn group_reduce_folds_in_ascending_group_order() {
        // Non-commutative op (ordered concatenation) over a non-contiguous
        // group with a non-zero root, across power-of-two and odd sizes.
        for p in [2usize, 3, 4, 5, 7, 8] {
            let out = run_spmd(p + 1, MachineModel::ibm_sp(), move |ctx| {
                // All but the last rank form the group.
                let colors: Vec<usize> = (0..ctx.nprocs())
                    .map(|r| usize::from(r == ctx.nprocs() - 1))
                    .collect();
                let mut g = Group::split(ctx, &colors);
                if ctx.rank() == ctx.nprocs() - 1 {
                    return None;
                }
                let root = (p - 1).min(2);
                g.reduce(ctx, root, vec![g.rank() as u64], |mut a, b| {
                    a.extend(b);
                    a
                })
            });
            let root = (p - 1).min(2);
            for (r, got) in out.results.iter().enumerate() {
                if r == root {
                    let expected: Vec<u64> = (0..p as u64).collect();
                    assert_eq!(got.as_ref(), Some(&expected), "p={p}");
                } else {
                    assert!(got.is_none(), "p={p} rank={r}");
                }
            }
        }
    }

    #[test]
    fn group_reduce_matches_all_reduce_for_commutative_ops() {
        let out = run_spmd(6, MachineModel::ibm_sp(), |ctx| {
            let colors: Vec<usize> = (0..ctx.nprocs()).map(|r| r % 2).collect();
            let mut g = Group::split(ctx, &colors);
            let red = g.reduce(ctx, 0, ctx.rank() as u64, |a, b| a + b);
            let all = g.all_reduce(ctx, ctx.rank() as u64, |a, b| a + b);
            (red, all)
        });
        for (r, (red, all)) in out.results.iter().enumerate() {
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
            let colors: Vec<usize> = (0..3).collect(); // everyone alone
            let mut g = Group::split(ctx, &colors);
            g.reduce(ctx, 0, ctx.rank() as u64 * 5, |a, b| a + b)
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
            let colors = vec![0usize; ctx.nprocs()];
            let mut g = Group::split(ctx, &colors);
            g.reduce(ctx, 1, Vec::<u64>::new(), |mut a, mut b| {
                a.append(&mut b);
                a
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
                // Group of all but the last rank; the last sits out but must
                // still participate in nothing (no deadlock).
                let colors: Vec<usize> = (0..ctx.nprocs())
                    .map(|r| usize::from(r == ctx.nprocs() - 1))
                    .collect();
                let mut g = Group::split(ctx, &colors);
                if g.len() > 1 {
                    g.all_reduce(ctx, 1u64, |a, b| a + b)
                } else {
                    0
                }
            });
            for (r, &v) in out.results.iter().enumerate() {
                if r < size {
                    assert_eq!(v, size as u64, "size={size} rank={r}");
                }
            }
        }
    }
}
