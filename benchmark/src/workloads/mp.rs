//! `mp_small_msgs` and `mp_bulk`: the message-passing substrate alone —
//! no compose, no archetypes, no compute in the body.
//!
//! A batch is one `run_spmd_with` on the pooled executor. The small
//! workload counts messages delivered, the bulk one MiB delivered; both
//! counts come from the run's own `RunStats` and are exact. Payload
//! *contents* come from the seed and are checked on arrival; payload
//! *sizes and counts* are fixed, so every seed measures the same load.

use std::time::Instant;

use archetype_mp::{run_spmd_with, Ctx, RunConfig, Shared};

use super::{model, Batch, RunSummary, Workload};
use crate::rng::Rng;
use crate::spans::Spans;

/// Ping-pong round trips (8-byte payload, ranks 0↔1) per batch.
const PINGPONG_ROUNDS: u64 = 1500;
/// Ring shifts (64-byte payload, every rank) per batch.
const RING_SHIFTS: u64 = 750;
/// `all_reduce(i64)` calls per batch.
const ALL_REDUCES: u64 = 500;
/// `barrier` calls per batch.
const BARRIERS: u64 = 500;

/// A cheap position hash: the word message `i` of stream `key` carries.
fn word(key: u64, i: u64) -> u64 {
    let z = (key ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 29)
}

/// `mp_small_msgs`.
pub struct MpSmallMsgs {
    seed: u64,
    ranks: usize,
}

impl MpSmallMsgs {
    /// The workload over `ranks` ranks.
    pub fn new(seed: u64, ranks: usize) -> MpSmallMsgs {
        MpSmallMsgs { seed, ranks }
    }

    /// The SPMD body: returns a checksum of everything this rank received.
    fn body(ctx: &mut Ctx, key: u64) -> u64 {
        let (rank, n) = (ctx.rank(), ctx.nprocs());
        let mut sum = 0u64;
        if rank < 2 {
            let partner = 1 - rank;
            for round in 0..PINGPONG_ROUNDS {
                if rank == 0 {
                    ctx.send(partner, round, word(key, round));
                    sum = sum.wrapping_add(ctx.recv::<u64>(partner, round));
                } else {
                    let echoed: u64 = ctx.recv(partner, round);
                    ctx.send(partner, round, echoed);
                }
            }
        }
        let (right, left) = ((rank + 1) % n, (rank + n - 1) % n);
        for shift in 0..RING_SHIFTS {
            let tag = PINGPONG_ROUNDS + shift;
            ctx.send(right, tag, [word(key, shift) ^ rank as u64; 8]);
            let got: [u64; 8] = ctx.recv(left, tag);
            sum = sum.wrapping_add(got[7]);
        }
        for i in 0..ALL_REDUCES {
            let mine = (word(key, i) >> 8) as i64 + rank as i64;
            sum = sum.wrapping_add(ctx.all_reduce(mine, |a, b| a + b) as u64);
        }
        for _ in 0..BARRIERS {
            ctx.barrier();
        }
        sum
    }

    /// What [`MpSmallMsgs::body`] must return on `rank`, computed without
    /// any message passing.
    fn expected(key: u64, rank: usize, n: usize) -> u64 {
        let mut sum = 0u64;
        if rank == 0 {
            for round in 0..PINGPONG_ROUNDS {
                sum = sum.wrapping_add(word(key, round));
            }
        }
        let left = (rank + n - 1) % n;
        for shift in 0..RING_SHIFTS {
            sum = sum.wrapping_add(word(key, shift) ^ left as u64);
        }
        for i in 0..ALL_REDUCES {
            let total: i64 = (0..n).map(|r| (word(key, i) >> 8) as i64 + r as i64).sum();
            sum = sum.wrapping_add(total as u64);
        }
        sum
    }
}

impl Workload for MpSmallMsgs {
    type Report = Vec<u64>;

    fn batch(&mut self, index: u64, run: RunConfig, spans: &mut Spans) -> Batch<Vec<u64>> {
        let key = Rng::new(self.seed, index).next_u64();
        let start = Instant::now();
        let batch_span = spans.begin("batch", index);
        let result = spans.within("mp.run_spmd", index, || {
            run_spmd_with(self.ranks, model(), run, |ctx| Self::body(ctx, key))
        });
        spans.end(batch_span);
        let wall = start.elapsed();

        let ops = result.stats.total_msgs();
        let (sums, summary) = RunSummary::split(result);
        let ok = (0..self.ranks).all(|r| sums[r] == Self::expected(key, r, self.ranks));
        Batch {
            ops,
            failed: if ok { 0 } else { ops },
            wall,
            report: sums,
            runs: vec![summary],
        }
    }
}

/// Words (`u64`) in 1 MiB.
const MIB_WORDS: usize = (1 << 20) / 8;
/// Words in one 256 KiB `all_gather` / `all_to_all` part.
const PART_WORDS: usize = MIB_WORDS / 4;
/// Repetitions of the five collectives per batch.
const BULK_REPS: usize = 24;
/// Stride of the arrival check: every word would make the checksum, not
/// the transport, the thing measured.
const CHECK_STRIDE: usize = 509;

/// Strided checksum of a received buffer (its length included).
fn sample(words: &[u64]) -> u64 {
    words
        .iter()
        .step_by(CHECK_STRIDE)
        .fold(words.len() as u64, |h, w| h.rotate_left(5) ^ w)
}

/// `mp_bulk`.
pub struct MpBulk {
    ranks: usize,
    /// 4 MiB of seeded words every payload is cut from.
    data: Vec<u64>,
    /// What [`MpBulk::body`] must return on each rank.
    expected: Vec<u64>,
}

impl MpBulk {
    /// The workload over `ranks` ranks, its payload pool drawn from `seed`.
    pub fn new(seed: u64, ranks: usize) -> MpBulk {
        let mut rng = Rng::new(seed, 0);
        let data: Vec<u64> = (0..4 * MIB_WORDS).map(|_| rng.next_u64()).collect();
        let expected = (0..ranks)
            .map(|rank| {
                let mut sum = sample(&data[..MIB_WORDS])
                    .wrapping_add(sample(&data))
                    .wrapping_add(sample(&data[..MIB_WORDS]));
                for from in 0..ranks {
                    sum = sum.wrapping_add(sample(Self::part(&data, from, 0)));
                    sum = sum.wrapping_add(sample(Self::part(&data, from, rank + 1)));
                }
                sum.wrapping_mul(BULK_REPS as u64)
            })
            .collect();
        MpBulk {
            ranks,
            data,
            expected,
        }
    }

    /// The 256 KiB part rank `from` contributes in slot `slot` (0 is its
    /// `all_gather` block, `d + 1` its `all_to_all` item for rank `d`).
    fn part(data: &[u64], from: usize, slot: usize) -> &[u64] {
        let at = ((from * 5 + slot) % 16) * PART_WORDS;
        &data[at..at + PART_WORDS]
    }

    /// The SPMD body: returns a checksum of everything this rank received.
    fn body(ctx: &mut Ctx, data: &[u64]) -> u64 {
        let (rank, n) = (ctx.rank(), ctx.nprocs());
        let root = rank == 0;
        let mut sum = 0u64;
        for _ in 0..BULK_REPS {
            // At the arena's per-class cap, above it, and zero-copy.
            let one = ctx.broadcast(0, root.then(|| data[..MIB_WORDS].to_vec()));
            let four = ctx.broadcast(0, root.then(|| data.to_vec()));
            let shared =
                ctx.broadcast_shared(0, root.then(|| Shared::new(data[..MIB_WORDS].to_vec())));
            sum = sum
                .wrapping_add(sample(&one))
                .wrapping_add(sample(&four))
                .wrapping_add(sample(shared.get()));
            let gathered = ctx.all_gather(Self::part(data, rank, 0).to_vec());
            let items = (0..n)
                .map(|d| Self::part(data, rank, d + 1).to_vec())
                .collect();
            let exchanged = ctx.all_to_all(items);
            for block in gathered.iter().chain(&exchanged) {
                sum = sum.wrapping_add(sample(block));
            }
        }
        sum
    }
}

impl Workload for MpBulk {
    type Report = Vec<u64>;

    fn batch(&mut self, index: u64, run: RunConfig, spans: &mut Spans) -> Batch<Vec<u64>> {
        let start = Instant::now();
        let batch_span = spans.begin("batch", index);
        let result = spans.within("mp.run_spmd", index, || {
            run_spmd_with(self.ranks, model(), run, |ctx| Self::body(ctx, &self.data))
        });
        spans.end(batch_span);
        let wall = start.elapsed();

        // Op = one MiB delivered.
        let ops = result.stats.total_bytes() >> 20;
        let (sums, summary) = RunSummary::split(result);
        Batch {
            ops,
            failed: if sums == self.expected { 0 } else { ops },
            wall,
            report: sums,
            runs: vec![summary],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_arrive_as_predicted_on_both_backends() {
        for ranks in [2, 3] {
            let mut w = MpSmallMsgs::new(11, ranks);
            let mut spans = Spans::new(false);
            let real = w.batch(0, RunConfig::real(), &mut spans);
            let virt = w.batch(0, RunConfig::virtual_time(), &mut spans);
            assert_eq!(real.failed, 0);
            assert!(real.ops >= 2 * PINGPONG_ROUNDS + ranks as u64 * RING_SHIFTS);
            assert!(real.same_logical_run(&virt));
            assert_ne!(
                w.batch(1, RunConfig::real(), &mut spans).report,
                real.report
            );
        }
    }

    #[test]
    fn bulk_payloads_arrive_as_predicted_and_ops_are_whole_mib() {
        let mut w = MpBulk::new(5, 2);
        let b = w.batch(0, RunConfig::real(), &mut Spans::new(false));
        assert_eq!(b.failed, 0);
        // Per repetition at 2 ranks: 1 + 4 + 1 MiB broadcast, 2 × 256 KiB
        // gathered, 2 × 256 KiB exchanged.
        assert_eq!(b.ops, 7 * BULK_REPS as u64);
        assert_eq!(
            b.runs[0].per_rank.iter().map(|r| r.bytes_sent).sum::<u64>(),
            b.ops << 20
        );
    }
}
