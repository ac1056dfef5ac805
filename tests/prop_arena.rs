//! Property tests for the substrate's payload-box arena and the
//! transport's recycled ring blocks: recycled runs must be bit-identical
//! to fresh runs.
//!
//! `Ctx::send` allocates each message's payload box from the sending
//! rank's arena and `Ctx::recv` returns the emptied block to the
//! receiving rank's arena; the SPSC links additionally hand their
//! drained ring blocks back to the producer. Both travel with the
//! network through the per-size recycle cache, so a *pooled* repeated
//! run executes on warm memory while an *unpooled* run builds everything
//! fresh. This property hammers that machinery with mixed-size payloads
//! (distinct `(size, align)` arena classes) and asserts that results,
//! per-rank clocks, and stats never depend on whether the memory was
//! recycled — mirroring the recycle-cache hammer that guards network
//! recycling itself. Payloads of 9 to 64 bytes ride in the cell beside
//! their packet; they are sent under colliding tags in two scopes and
//! received in a shuffled order, so cell packets wait in the receiver's
//! pending stash too.

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::mp::{run_spmd_with, Ctx, MachineModel, RunConfig, Shared};

/// Send one payload of each cell size (9, 16, 33, 40 and 64 bytes) to
/// `to`, tags `tag..tag + 5`.
fn send_cells(ctx: &mut Ctx, to: usize, tag: u64, x: u64) {
    ctx.send(to, tag, [x as u8; 9]);
    ctx.send(to, tag + 1, (x, !x));
    ctx.send(to, tag + 2, [x as u8 ^ 0x5A; 33]);
    ctx.send(to, tag + 3, [x.rotate_left(7); 5]);
    ctx.send(to, tag + 4, [x.wrapping_mul(3); 8]);
}

/// Receive [`send_cells`]' five payloads from `from` in the order
/// `perm` gives, folding them into one number.
fn recv_cells(ctx: &mut Ctx, from: usize, tag: u64, perm: [u64; 5]) -> u64 {
    let mut acc = 0u64;
    for k in perm {
        let t = tag + k;
        let v = match k {
            0 => ctx.recv::<[u8; 9]>(from, t)[8] as u64,
            1 => {
                let (a, b) = ctx.recv::<(u64, u64)>(from, t);
                a ^ b.rotate_left(1)
            }
            2 => ctx.recv::<[u8; 33]>(from, t)[32] as u64,
            3 => ctx.recv::<[u64; 5]>(from, t)[4],
            _ => ctx.recv::<[u64; 8]>(from, t)[7],
        };
        acc = acc.wrapping_mul(31).wrapping_add(v ^ k);
    }
    acc
}

/// A permutation of `0..5` drawn from `x`.
fn shuffled(mut x: u64) -> [u64; 5] {
    let mut perm = [0, 1, 2, 3, 4];
    for i in (1..5).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, (x >> 33) as usize % (i + 1));
    }
    perm
}

/// The mixed-size messaging workload: ring exchanges carrying several
/// distinct payload layouts (scalar tuple, fixed arrays of two sizes,
/// byte vectors of fuzzed lengths, strings) plus the fan-out/fan-in
/// collectives, so both the arena classes and the batched-wakeup send
/// paths are exercised. Deterministic given (rank, sizes, seed).
fn body(sizes: &[usize], seed: u64, ctx: &mut Ctx) -> (u64, u64, u64) {
    let n = ctx.nprocs();
    let me = ctx.rank();
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let mut acc = seed ^ me as u64;
    for (round, &sz) in sizes.iter().enumerate() {
        let tag = ctx.phase_tag();
        ctx.send(right, tag | 1, (acc, round as u64));
        ctx.send(right, tag | 2, [me as u64 + 1; 4]);
        ctx.send(right, tag | 3, [round as u64; 8]);
        ctx.send(
            right,
            tag | 4,
            vec![(me as u8).wrapping_add(round as u8); sz],
        );
        ctx.send(right, tag | 5, format!("r{me}:{round}"));
        let t: (u64, u64) = ctx.recv(left, tag | 1);
        let a4: [u64; 4] = ctx.recv(left, tag | 2);
        let a8: [u64; 8] = ctx.recv(left, tag | 3);
        let v: Vec<u8> = ctx.recv(left, tag | 4);
        let s: String = ctx.recv(left, tag | 5);
        acc = acc
            .wrapping_mul(0x100000001b3)
            .wrapping_add(t.0 ^ t.1)
            .wrapping_add(a4[0] * a8[7])
            .wrapping_add(v.iter().map(|&b| b as u64).sum::<u64>())
            .wrapping_add(s.len() as u64);
        // Cell payloads under the same tags in the world and in a scope
        // over every rank: the scope's receives stash the world's
        // packets, which the world then takes in another order.
        let tag = ctx.phase_tag();
        send_cells(ctx, right, tag, acc);
        let all: Vec<usize> = (0..n).collect();
        let scoped = ctx.scoped(&all, round as u64, |ctx| {
            send_cells(ctx, right, tag, acc ^ 1);
            recv_cells(ctx, left, tag, shuffled(seed ^ round as u64))
        });
        let world = recv_cells(ctx, left, tag, shuffled(seed.rotate_left(9) + round as u64));
        acc = acc.wrapping_add(scoped).wrapping_mul(3).wrapping_add(world);
    }
    // Collectives: scatter and broadcast ride the quiet fan-out path,
    // gather/all_reduce the plain one.
    let pieces = (me == 0).then(|| (0..n).map(|r| vec![r as u64; 3]).collect::<Vec<_>>());
    let mine: Vec<u64> = ctx.scatter(0, pieces);
    acc = acc.wrapping_add(mine.iter().sum::<u64>());
    let root_val = (me == 0).then(|| Shared::new(vec![seed; 8]));
    let sh = ctx.broadcast_shared(0, root_val);
    acc = acc.wrapping_add(sh.get().iter().fold(0u64, |x, y| x.wrapping_add(*y)));
    let gathered = ctx
        .gather(0, acc)
        .map_or(0, |v| v.iter().fold(0u64, |x, y| x.wrapping_add(*y)));
    let total = ctx.all_reduce(acc, |a, b| a.wrapping_add(b));
    (acc, total, gathered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recycled_runs_are_bit_identical_to_fresh(
        n in 2usize..6,
        sizes in vec(1usize..1024, 2..6),
        seed in any::<u64>(),
    ) {
        let model = MachineModel::ibm_sp();
        let fresh_cfg = RunConfig { pooled: false, ..RunConfig::default() };
        // Fresh baseline: new network, empty arenas and freelists.
        let fresh = run_spmd_with(n, model, fresh_cfg, |ctx| body(&sizes, seed, ctx));
        // Repeated pooled runs: the first warms the cache entry; the
        // later ones run entirely on recycled arenas/freelists.
        for round in 0..3 {
            let recycled =
                run_spmd_with(n, model, RunConfig::default(), |ctx| body(&sizes, seed, ctx));
            prop_assert_eq!(
                &recycled.results, &fresh.results,
                "results diverged on round {}", round
            );
            prop_assert_eq!(
                &recycled.rank_times, &fresh.rank_times,
                "clocks diverged on round {}", round
            );
            prop_assert_eq!(
                recycled.elapsed_virtual.to_bits(), fresh.elapsed_virtual.to_bits(),
                "elapsed diverged on round {}", round
            );
            prop_assert_eq!(
                &recycled.stats.per_rank, &fresh.stats.per_rank,
                "stats diverged on round {}", round
            );
        }
    }
}
