//! Deep-copy accounting for the collective fan-out paths.
//!
//! The substrate's contract: a `broadcast` or `all_gather` of a heap
//! payload of at least 128 KiB copies each value once per rank that
//! receives it, on that rank, and hands the rank that supplied a value
//! its own allocation back — n − 1 copies per `broadcast`, n(n − 1) per
//! `all_gather`. The
//! forwarding hops inside the collective clone a refcount, never the
//! data, and the `_shared` variants copy nothing at all. Verified with
//! payload types whose `Clone` increments a counter.

use std::sync::atomic::{AtomicUsize, Ordering};

use parallel_archetypes::mp::{run_spmd, MachineModel, Payload, Shared};

/// Declares a counted payload type plus its global clone counter. Each
/// test uses its own type so concurrently running tests cannot interfere.
macro_rules! counted_payload {
    ($ty:ident, $counter:ident) => {
        static $counter: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug, PartialEq)]
        struct $ty(Vec<u8>);

        impl Clone for $ty {
            fn clone(&self) -> Self {
                $counter.fetch_add(1, Ordering::Relaxed);
                $ty(self.0.clone())
            }
        }

        impl Payload for $ty {
            fn size_bytes(&self) -> usize {
                self.0.len()
            }
        }
    };
}

/// Process counts of the exact-count tests: the smallest tree and ring,
/// a power of two, and more ranks than most hosts have cores.
const SIZES: [usize; 3] = [2, 4, 16];

/// Address of a buffer's allocation, to tell a lent buffer from a copy.
fn addr(v: &[u8]) -> usize {
    v.as_ptr() as usize
}

#[test]
fn broadcast_deep_copies_at_most_once_per_rank() {
    counted_payload!(BcastBuf, BCAST_CLONES);
    const BYTES: usize = 1 << 20;
    const ROUNDS: usize = 4;
    for n in SIZES {
        let before = BCAST_CLONES.load(Ordering::Relaxed);
        let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
            let mut v = (ctx.rank() == 0).then(|| BcastBuf(vec![42u8; BYTES]));
            let lent = v.as_ref().map(|b| addr(&b.0));
            let mut got = 0;
            for _ in 0..ROUNDS {
                let b = ctx.broadcast(0, v.take());
                assert_eq!(b.0, vec![42u8; BYTES], "n={n}, rank {}", ctx.rank());
                got = addr(&b.0);
                v = lent.is_some().then_some(b);
            }
            (lent, got)
        });
        // Every receiver copies once; the root copies nothing and gets
        // back the very buffer it lent, to lend again.
        let clones = BCAST_CLONES.load(Ordering::Relaxed) - before;
        assert_eq!(
            clones,
            ROUNDS * (n - 1),
            "n={n}: deep copies of {ROUNDS} broadcasts"
        );
        let (lent, root_got) = out.results[0];
        assert_eq!(Some(root_got), lent, "n={n}: the root's own buffer");
        for (rank, &(_, got)) in out.results.iter().enumerate().skip(1) {
            assert_ne!(got, root_got, "n={n}: rank {rank} holds a copy");
        }
    }
}

#[test]
fn broadcast_shared_deep_copies_nothing() {
    counted_payload!(SharedBuf, SHARED_CLONES);
    let out = run_spmd(16, MachineModel::ibm_sp(), |ctx| {
        let v = (ctx.rank() == 0).then(|| Shared::new(SharedBuf(vec![7u8; 1024])));
        let got = ctx.broadcast_shared(0, v);
        got.0[0]
    });
    assert!(out.results.iter().all(|&b| b == 7));
    assert_eq!(
        SHARED_CLONES.load(Ordering::Relaxed),
        0,
        "broadcast_shared must never deep-copy the payload"
    );
}

#[test]
fn all_gather_shared_deep_copies_nothing() {
    counted_payload!(GatherBuf, GATHER_CLONES);
    const N: usize = 12;
    let out = run_spmd(N, MachineModel::ibm_sp(), |ctx| {
        let mine = Shared::new(GatherBuf(vec![ctx.rank() as u8; 512]));
        let all = ctx.all_gather_shared(mine);
        all.iter().map(|b| b.0[0] as usize).collect::<Vec<_>>()
    });
    for got in &out.results {
        assert_eq!(*got, (0..N).collect::<Vec<_>>());
    }
    assert_eq!(
        GATHER_CLONES.load(Ordering::Relaxed),
        0,
        "all_gather_shared must never deep-copy blocks while they ride the ring"
    );
}

#[test]
fn all_gather_deep_copies_at_most_once_per_block_per_rank() {
    counted_payload!(OwnedGatherBuf, OWNED_GATHER_CLONES);
    const BYTES: usize = 128 << 10;
    for n in SIZES {
        let before = OWNED_GATHER_CLONES.load(Ordering::Relaxed);
        let out = run_spmd(n, MachineModel::ibm_sp(), |ctx| {
            let rank = ctx.rank();
            let mine = OwnedGatherBuf(vec![rank as u8; BYTES]);
            let lent = addr(&mine.0);
            let all = ctx.all_gather(mine);
            for (from, block) in all.iter().enumerate() {
                assert_eq!(block.0, vec![from as u8; BYTES], "n={n}, rank {rank}");
            }
            (lent, addr(&all[rank].0))
        });
        // Owned output means n blocks on each of n ranks — that
        // replication is the collective's *product*. A rank copies the
        // n − 1 blocks it receives and takes its own back uncopied.
        let clones = OWNED_GATHER_CLONES.load(Ordering::Relaxed) - before;
        assert_eq!(clones, n * (n - 1), "n={n}: deep copies of one all_gather");
        for (rank, &(lent, own)) in out.results.iter().enumerate() {
            assert_eq!(own, lent, "n={n}: rank {rank}'s own block");
        }
    }
}

#[test]
fn shared_handles_read_without_copying() {
    counted_payload!(ReadBuf, READ_CLONES);
    let out = run_spmd(4, MachineModel::zero_comm(), |ctx| {
        let v = (ctx.rank() == 2).then(|| Shared::new(ReadBuf(vec![9u8; 64])));
        let got = ctx.broadcast_shared(2, v);
        // Deref reads the shared allocation in place.
        got.0.iter().map(|&b| b as u64).sum::<u64>()
    });
    assert!(out.results.iter().all(|&s| s == 9 * 64));
    assert_eq!(READ_CLONES.load(Ordering::Relaxed), 0);
}
