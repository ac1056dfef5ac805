//! The transport under the SPMD network: in-repo lock-free queues.
//!
//! Every mesh link of an SPMD network has a *statically single sender*
//! (the `(src, dst)` channel is only ever pushed by rank `src`'s thread),
//! so links ride the **segmented SPSC ring** ([`link_channel`]): blocks
//! of 2 KiB of slots, each slot published by a release store of its
//! `ready` flag, producer and consumer cursors on separate cache lines,
//! and drained blocks handed back through one spare pointer. A mesh slot
//! is two 64-byte cache lines, asserted at compile time: a [`Packet`]
//! and its flag fill the first, and a [`PayloadCell`] the second. A
//! message whose payload rides inline in the packet writes and reads the
//! first line only; one whose payload rides in the cell (drop-free, 9 to
//! 64 bytes) moves both, and the cell is written before the flag's
//! release store and read before the flag is cleared ([`SlotCell`]). A
//! message does no atomic read-modify-write (one per block per side, the
//! spare swap), steady-state traffic allocates nothing, and a condvar
//! slow path runs only for parking on an empty queue (the safety
//! argument is on `SpscQueue`). The worker pool's dispatch channels are
//! the same queue ([`spsc_channel`]), with one-line slots, 32 to a
//! block, and no cell. The multi-producer generalization ([`real_channel`], a
//! Vyukov-style MPSC queue) has no user inside the crate; it stays as the
//! throughput comparison point the repo benchmark measures.
//!
//! The machine-model clock is a pure accounting overlay on top of this
//! transport ([`crate::Ctx`] stamps and settles arrival times; nothing
//! here knows about virtual time), which is why every run reports both a
//! modeled `elapsed_virtual` and a measured `wall_us`. The queues are
//! held against an independent reference (`std::sync::mpsc`) by the
//! differential property tests in `tests/prop_mailbox.rs`.
//!
//! # The parked-flag (Dekker) sleep/wake protocol
//!
//! Both queues block their single consumer through one private type,
//! `Parker`, so the handshake exists once. A blocking receive never
//! takes the sleep lock while messages are available, and a producer
//! never takes it unless the consumer is (or is about to be) parked:
//!
//! * **Consumer** (`Parker::recv`): pop if a message is there; else
//!   **spin** — poll the queue and the sender count for at most
//!   [`SPIN_BUDGET`], with a `yield_now()` between bursts of polls so an
//!   oversubscribed host hands the core to the producer; only then
//!   **park** — lock `sleep` → set `parked` → `fence(SeqCst)` → *final
//!   check* (message or disconnect) → wait on the condvar (releasing
//!   `sleep`).
//! * **Producer** (push): publish the message → `fence(SeqCst)` → read
//!   `parked` → if set, acquire `sleep` and `notify_one`.
//!
//! A spinning consumer has `parked == false` and needs no wake — it is
//! running, and its next poll sees the publish — so producers skip the
//! mutex and the futex wake for it exactly as for a consumer that is busy
//! computing. The spin changes *when* the consumer enters the park
//! sequence, not the sequence, whose argument is: the two `SeqCst` fences
//! order the flag against the queue contents, so either the producer's
//! publish happens-before the consumer's final check (the consumer sees
//! the message and never waits), or the consumer's `parked` store
//! happens-before the producer's flag read (the producer sees the flag
//! and notifies). Acquiring `sleep` before notifying closes the remaining
//! window — the consumer holds `sleep` from before its `parked` store
//! until the `wait` call atomically releases it, so a producer that saw
//! the flag cannot notify *between* the final check and the wait.
//! (`tests::handshake_model_*` enumerate every interleaving.)
//!
//! The **disconnect path** (last sender handle dropping) wakes the
//! consumer the same way but *unconditionally*: it decrements `senders`
//! with `AcqRel`, then acquires `sleep` and notifies without consulting
//! `parked`. The consumer's `senders == 0` re-check runs under the same
//! lock, so the wakeup cannot be lost no matter where the consumer is
//! between parking and waiting. Both wake paths use `notify_one`: the
//! queues are strictly single-consumer.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::packet::{Packet, PayloadCell};

/// Error returned by a receive on an empty channel whose senders have
/// all disconnected (the transport-level death signal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnected;

/// Publication fence for a batched fan-out: after a series of
/// `send_publish` calls, one `SeqCst` fence orders *all* the published
/// messages against the subsequent per-queue `parked` reads (see
/// [`SpscSender::wake`]), so a fan-out of k sends pays one fence
/// instead of k.
pub(crate) fn publish_fence() {
    fence(Ordering::SeqCst);
}

/// How long a blocking receive polls before it parks: what one park
/// costs (futex sleep + cross-CPU wake, ~20 µs one way on the 2-core
/// reference host), so the spin at most doubles any wait and a reply one
/// message latency (~1 µs) away never parks. `mp_small_msgs`, ranks
/// pinned, by budget: 0 µs 82 k ops/s, 5 µs 650 k, 10 µs 1.23 M, 20 µs
/// 1.29 M, 40 µs 1.15 M, 100 µs 1.16 M — flat from 10 µs; beyond 20 µs
/// long load-imbalance waits burn CPU on the compute-bound workloads.
pub const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Polls per spin burst (~1 µs) between clock reads and `yield_now()`s;
/// 8 to 128 measure alike, and on one core the yield keeps parent speed.
pub(crate) const POLLS_PER_YIELD: u32 = 32;

/// In which phase of the blocking receive one consumer's messages were
/// delivered. Plain integers owned by the consumer; they depend on
/// timing, unlike [`crate::RunStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecvCounts {
    /// The message was already queued: no waiting at all.
    pub immediate: u64,
    /// The message arrived while the consumer was spinning.
    pub spun: u64,
    /// The consumer parked (a futex sleep, and a wake for the producer).
    pub parked: u64,
}

/// The consumer's parking spot and the senders' half of the handshake.
#[derive(Default)]
struct Parker {
    /// Live sender handles, counted from the channel factory's first
    /// one; 0 means disconnected.
    senders: AtomicUsize,
    /// Set (under `sleep`) while the consumer is parked.
    parked: AtomicBool,
    sleep: Mutex<()>,
    wake: Condvar,
    /// Times the consumer set `parked` / a sender took `sleep`.
    #[cfg(test)]
    parks: AtomicUsize,
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl Parker {
    /// Producer half of the handshake. Must run after a `SeqCst` fence
    /// that follows the publish.
    fn wake_if_parked(&self) {
        if self.parked.load(Ordering::Relaxed) {
            self.wake_consumer();
        }
    }

    /// Notify under the sleep lock (what makes the wakeup race-free).
    fn wake_consumer(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        drop(self.sleep.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_one();
    }

    fn add_sender(&self) {
        self.senders.fetch_add(1, Ordering::Relaxed);
    }

    /// A sender handle dropped; the last one wakes the consumer
    /// unconditionally (the disconnect path of the module docs).
    fn drop_sender(&self) {
        if self.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.wake_consumer();
        }
    }

    /// One consumer poll: a message, the conclusive `Disconnected` once
    /// every sender is gone, or `None` (empty, senders alive).
    fn poll<T>(&self, try_pop: &mut impl FnMut() -> Option<T>) -> Option<Result<T, Disconnected>> {
        if let Some(v) = try_pop() {
            return Some(Ok(v));
        }
        // The last sender's teardown happens-before the counter hitting
        // zero, so one final drain decides conclusively.
        (self.senders.load(Ordering::SeqCst) == 0).then(|| try_pop().ok_or(Disconnected))
    }

    /// Consumer half: block until `try_pop` yields a message or every
    /// sender is gone — pop, else spin for `SPIN_BUDGET`, else park.
    fn recv<T>(
        &self,
        counts: &mut RecvCounts,
        mut try_pop: impl FnMut() -> Option<T>,
    ) -> Result<T, Disconnected> {
        // Fast path: no lock and no clock read while messages are
        // available.
        if let Some(v) = try_pop() {
            counts.immediate += 1;
            return Ok(v);
        }
        let spin_started = Instant::now();
        loop {
            for _ in 0..POLLS_PER_YIELD {
                std::hint::spin_loop();
                if let Some(r) = self.poll(&mut try_pop) {
                    counts.spun += u64::from(r.is_ok());
                    return r;
                }
            }
            if spin_started.elapsed() >= SPIN_BUDGET {
                break;
            }
            std::thread::yield_now();
        }
        loop {
            let guard = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
            self.parked.store(true, Ordering::Relaxed);
            #[cfg(test)]
            self.parks.fetch_add(1, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if let Some(r) = self.poll(&mut try_pop) {
                self.parked.store(false, Ordering::Relaxed);
                counts.parked += u64::from(r.is_ok());
                return r;
            }
            // The timeout is belt-and-braces only — the flag protocol
            // above already rules out lost wakeups.
            let (g, _) = self
                .wake
                .wait_timeout(guard, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            drop(g);
            self.parked.store(false, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-free MPSC queue (multi-producer links; throughput baseline).
// ---------------------------------------------------------------------------

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: Option<T>,
}

impl<T> Node<T> {
    fn boxed(value: Option<T>) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value,
        }))
    }
}

/// Vyukov-style intrusive MPSC queue with blocking receive.
///
/// Producers publish with one `swap` + one `store` (wait-free); the
/// single consumer pops without any lock while messages are available.
/// Blocking, wakeup and disconnect go through the shared `Parker` (module
/// docs), so the message hot path never contends on a lock.
///
/// Nodes are heap-allocated per push: with *multiple* producers, reusing
/// memory would need a multi-popper lock-free stack (ABA-prone without
/// tagged pointers). The mesh links ride the single-producer ring
/// ([`SpscQueue`]) instead, whose blocks return to their one producer.
struct RealQueue<T> {
    /// Most recently pushed node; producers swap themselves in here.
    head: AtomicPtr<Node<T>>,
    /// Oldest node (a consumed stub); owned by the single consumer.
    tail: UnsafeCell<*mut Node<T>>,
    /// Messages currently queued (exact once the queue is quiescent).
    len: AtomicUsize,
    /// Cleared when the receiver drops, so sends can fail fast.
    receiver_alive: AtomicBool,
    parker: Parker,
}

// SAFETY: the queue hands each `T` from exactly one producer to the
// single consumer; all shared pointers are managed through atomics, and
// `tail` is only touched by the consumer (or by `Drop`, which has
// exclusive access).
unsafe impl<T: Send> Send for RealQueue<T> {}
unsafe impl<T: Send> Sync for RealQueue<T> {}

impl<T> RealQueue<T> {
    fn new() -> Self {
        let stub = Node::boxed(None);
        RealQueue {
            head: AtomicPtr::new(stub),
            tail: UnsafeCell::new(stub),
            len: AtomicUsize::new(0),
            receiver_alive: AtomicBool::new(true),
            parker: Parker::default(),
        }
    }

    /// Producer side: wait-free publish, then wake a parked consumer.
    fn push(&self, value: T) {
        let node = Node::boxed(Some(value));
        let prev = self.head.swap(node, Ordering::AcqRel);
        // SAFETY: `prev` is a live node — nodes are only freed by the
        // consumer *after* their successor link is published, and the
        // previous head has no successor until this store.
        unsafe { (*prev).next.store(node, Ordering::Release) };
        self.len.fetch_add(1, Ordering::Release);
        fence(Ordering::SeqCst);
        self.parker.wake_if_parked();
    }

    /// Consumer side: pop the oldest message, or `None` when empty.
    ///
    /// # Safety
    /// Must only be called by the single consumer (or with otherwise
    /// exclusive access to `tail`).
    unsafe fn try_pop(&self) -> Option<T> {
        let tail = *self.tail.get();
        let mut next = (*tail).next.load(Ordering::Acquire);
        if next.is_null() {
            if self.head.load(Ordering::Acquire) == tail {
                return None; // truly empty
            }
            // A producer swapped `head` but hasn't linked `next` yet;
            // the link is one store away, so spin (yielding, for
            // single-core hosts where the producer needs the CPU).
            let mut spins = 0u32;
            loop {
                next = (*tail).next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        let value = (*next).value.take().expect("pushed node carries a value");
        *self.tail.get() = next;
        drop(Box::from_raw(tail));
        self.len.fetch_sub(1, Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for RealQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: free every remaining node, including the stub.
        let mut p = *self.tail.get_mut();
        while !p.is_null() {
            // SAFETY: nodes between tail and head are live and owned by
            // the queue once no handles remain.
            let node = unsafe { Box::from_raw(p) };
            p = node.next.load(Ordering::Relaxed);
        }
    }
}

/// Producer handle of the lock-free MPSC channel.
/// Cloneable (multi-producer).
pub struct RealSender<T> {
    queue: Arc<RealQueue<T>>,
}

impl<T> RealSender<T> {
    /// Enqueue `value`; hands it back when the receiver has dropped.
    pub fn send(&self, value: T) -> Result<(), T> {
        if !self.queue.receiver_alive.load(Ordering::Acquire) {
            return Err(value);
        }
        self.queue.push(value);
        Ok(())
    }
}

impl<T> Clone for RealSender<T> {
    fn clone(&self) -> Self {
        self.queue.parker.add_sender();
        RealSender {
            queue: Arc::clone(&self.queue),
        }
    }
}

impl<T> Drop for RealSender<T> {
    fn drop(&mut self) {
        self.queue.parker.drop_sender();
    }
}

/// Consumer handle of the lock-free MPSC channel
/// (single-consumer: not cloneable).
pub struct RealReceiver<T> {
    queue: Arc<RealQueue<T>>,
}

impl<T> RealReceiver<T> {
    /// Blocking receive; fails once the queue is empty and every sender
    /// has dropped.
    pub fn recv(&self) -> Result<T, Disconnected> {
        // SAFETY: `RealReceiver` is not Clone, so this is the single
        // consumer.
        let try_pop = || unsafe { self.queue.try_pop() };
        self.queue.parker.recv(&mut RecvCounts::default(), try_pop)
    }

    /// Messages currently queued (exact when the queue is quiescent).
    pub fn len(&self) -> usize {
        self.queue.len.load(Ordering::Acquire)
    }

    /// True when no message is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RealReceiver<T> {
    fn drop(&mut self) {
        self.queue.receiver_alive.store(false, Ordering::Release);
    }
}

/// Create a lock-free MPSC channel.
pub fn real_channel<T>() -> (RealSender<T>, RealReceiver<T>) {
    let queue = Arc::new(RealQueue::new());
    queue.parker.add_sender();
    (
        RealSender {
            queue: Arc::clone(&queue),
        },
        RealReceiver { queue },
    )
}

// ---------------------------------------------------------------------------
// Segmented SPSC ring (the mesh-link fast path).
// ---------------------------------------------------------------------------

/// Bytes of slots in one block of the SPSC ring: 32 one-line slots, or
/// 16 two-line mesh slots. A collective's fan-in or a pipeline's credit
/// window fits in one or two blocks, and a link that never has a block's
/// worth of messages in flight lives on two blocks forever (the one
/// being filled and the spare).
const BLOCK_BYTES: usize = 2048;

/// Slots per block of a queue whose slots carry no cell
/// ([`spsc_channel`]): 32, each a cache line at most.
const BLOCK: usize = BLOCK_BYTES / 64;

/// Slots per block of a mesh link ([`link_channel`]): 16 two-line slots.
pub const LINK_BLOCK: usize = BLOCK_BYTES / std::mem::size_of::<Slot<Packet, PayloadCell>>();

/// What a slot holds beside its value, in a cache line of its own:
/// nothing (`()`, every queue but a mesh link) or a mesh link's
/// [`PayloadCell`]. The producer writes the cell, and the consumer reads
/// it, only for a value that [`SlotCell::filled`] says has one, so a
/// value without one moves its slot's first line only.
pub trait SlotCell<T>: Copy {
    /// The cell beside a value that has none.
    const EMPTY: Self;

    /// Whether `value` travels with a filled cell.
    fn filled(value: &T) -> bool;
}

impl<T> SlotCell<T> for () {
    const EMPTY: Self = ();

    fn filled(_: &T) -> bool {
        false
    }
}

/// One message slot: the value, the flag that publishes it and, on a
/// line of its own, the value's cell.
#[repr(C)]
struct Slot<T, C> {
    value: UnsafeCell<MaybeUninit<T>>,
    /// Set by the producer with a release store once `value` (and a
    /// filled cell) is written; cleared by the consumer with a plain
    /// store once it has moved them out.
    ready: AtomicBool,
    cell: UnsafeCell<C>,
}

// A mesh slot is two cache lines and starts on a line (blocks are
// 64-byte aligned and begin with their slots): a 56-byte `Packet` and its
// flag on the first, the payload cell on the second. A block's slots
// are 2 KiB, as for every other queue, so a link holds no more memory.
const _: () = assert!(std::mem::size_of::<Slot<Packet, PayloadCell>>() == 128);
const _: () = assert!(std::mem::offset_of!(Slot<Packet, PayloadCell>, cell) == 64);
const _: () = assert!(std::mem::offset_of!(Block<Packet, PayloadCell, LINK_BLOCK>, slots) == 0);
const _: () = assert!(LINK_BLOCK * 128 == BLOCK_BYTES);

/// `N` slots and the link to the block after them.
#[repr(align(64))]
struct Block<T, C, const N: usize> {
    slots: [Slot<T, C>; N],
    /// Stored by the producer before it publishes this block's last slot;
    /// meaningless (a stale link or null) until then.
    next: AtomicPtr<Block<T, C, N>>,
}

impl<T, C: SlotCell<T>, const N: usize> Block<T, C, N> {
    fn boxed() -> *mut Block<T, C, N> {
        Box::into_raw(Box::new(Block {
            slots: std::array::from_fn(|_| Slot {
                value: UnsafeCell::new(MaybeUninit::uninit()),
                ready: AtomicBool::new(false),
                cell: UnsafeCell::new(C::EMPTY),
            }),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// One side's position in the ring, alone on its cache lines (128
/// bytes: the adjacent-line prefetcher pulls lines in pairs), so the
/// producer and the consumer share no line but the slot in hand.
#[repr(align(128))]
struct Cursor<T, C, const N: usize> {
    /// The block holding slot `count % N`. Only this side's thread
    /// reads or writes it.
    block: UnsafeCell<*mut Block<T, C, N>>,
    /// Messages published (producer) or taken (consumer) so far. Its one
    /// writer is this side's thread, with plain stores; the other side
    /// never reads it, and `len` reads both counts.
    count: AtomicUsize,
}

impl<T, C, const N: usize> Cursor<T, C, N> {
    fn at(block: *mut Block<T, C, N>) -> Self {
        Cursor {
            block: UnsafeCell::new(block),
            count: AtomicUsize::new(0),
        }
    }
}

/// A value alone on its cache lines.
#[repr(align(128))]
struct Padded<T>(T);

/// Single-producer single-consumer queue: a chain of blocks of `N`
/// slots.
///
/// A message shares only its slot between the two threads — for a mesh
/// link its first cache line, and its second when the payload rides in
/// the cell — and does no atomic read-modify-write: the producer writes
/// the value (and a filled cell), stores its count and sets the slot's
/// `ready` flag with a release store; the consumer reads the flag with an
/// acquire load, moves the value (and a filled cell) out, clears the
/// flag and stores its own count. Once per block each side
/// swaps the one `spare` pointer, which is how drained blocks return to
/// the producer, so steady-state traffic allocates nothing.
///
/// Why it is sound:
///
/// * **Who writes what.** `producer` (its block pointer and count) is
///   written only by the sending thread, `consumer` only by the
///   receiving thread; the single-producer contract of
///   [`SpscSender::send`] and the uncloneable [`SpscReceiver`] make each
///   a single thread at a time. A slot's value and cell are written by
///   the producer only while its flag is clear and read by the consumer
///   only while it is set. Both sides ask the value itself whether its
///   cell is filled ([`SlotCell::filled`]), so they agree on it.
/// * **The flag pairs a release with an acquire.** The producer's
///   `ready` store (release) comes after its writes to the value, to the
///   cell, to its count and, on a block's last slot, to `next`; the
///   consumer's `ready` load (acquire) comes before it reads any of
///   them, so a set flag means all four are visible.
/// * **A block is handed back only after the producer has linked past
///   it.** The producer stores `next` and moves its own cursor to the new
///   block *before* it publishes the old block's last slot, so once the
///   consumer has taken that slot the producer will never touch the old
///   block again. Only then does the consumer swap it into `spare`
///   (release); the producer takes it with an acquire swap, so it sees
///   every flag cleared (the consumer cleared them slot by slot). Its
///   stale `next` is never followed: before the producer publishes the
///   block's last slot again it stores the new link, or reads that `next`
///   already holds it (its own last store, which the consumer's acquire
///   of that slot then sees). A block the swap
///   displaces (the producer took no spare since the last one) is freed
///   by the consumer.
/// * **What `Drop` frees.** With exclusive access, `Drop` walks from the
///   consumer's slot to the producer's, dropping each of the `sent −
///   taken` queued values exactly once and freeing every block it leaves,
///   then frees the producer's block and the spare. A value moved out by
///   the consumer is never dropped again: only the count range is walked.
///   Cells are `Copy` and need no drop.
///
/// Blocking, wakeup and disconnect go through the shared `Parker`
/// (module docs).
struct SpscQueue<T, C, const N: usize> {
    producer: Cursor<T, C, N>,
    consumer: Cursor<T, C, N>,
    /// A drained block waiting for the producer's next block boundary, or
    /// null. Alone on its lines: both sides swap it once per block, and
    /// the flags beside it (`receiver_alive`, the parker's) are read on
    /// every message.
    spare: Padded<AtomicPtr<Block<T, C, N>>>,
    /// Cleared when the receiver drops, so sends can fail fast.
    receiver_alive: AtomicBool,
    /// Counts live `SpscSender` handles. (Handles may be cloned — scoped
    /// contexts need that — as long as pushes stay serialized; see
    /// [`SpscSender::send`].)
    parker: Parker,
    /// Debug-only concurrent-push detector for the single-producer
    /// contract (release builds pay nothing).
    #[cfg(debug_assertions)]
    pushing: AtomicBool,
    /// Blocks allocated over the queue's life.
    #[cfg(test)]
    blocks_allocated: AtomicUsize,
}

// SAFETY: values cross from the single producer to the single consumer;
// each cursor is touched only by its own side, slots are handed over by
// their `ready` flags, blocks by `next` and `spare` (type docs), and
// `Drop` has exclusive access.
unsafe impl<T: Send, C: Send, const N: usize> Send for SpscQueue<T, C, N> {}
unsafe impl<T: Send, C: Send, const N: usize> Sync for SpscQueue<T, C, N> {}

impl<T, C: SlotCell<T>, const N: usize> SpscQueue<T, C, N> {
    fn new() -> Self {
        let first = Block::boxed();
        SpscQueue {
            producer: Cursor::at(first),
            consumer: Cursor::at(first),
            spare: Padded(AtomicPtr::new(ptr::null_mut())),
            receiver_alive: AtomicBool::new(true),
            parker: Parker::default(),
            #[cfg(debug_assertions)]
            pushing: AtomicBool::new(false),
            #[cfg(test)]
            blocks_allocated: AtomicUsize::new(1),
        }
    }

    /// The spare block, or a new one when the consumer has none to give
    /// (the producer's half of the hand-back).
    fn next_block(&self) -> *mut Block<T, C, N> {
        let spare = self.spare.0.swap(ptr::null_mut(), Ordering::Acquire);
        if !spare.is_null() {
            return spare;
        }
        #[cfg(test)]
        self.blocks_allocated.fetch_add(1, Ordering::Relaxed);
        Block::boxed()
    }

    /// Producer side, publish only: enqueue without the fence/wake step.
    /// The caller must follow up with [`publish_fence`] and
    /// `Parker::wake_if_parked` before blocking on anything, or the
    /// consumer may sleep on a full queue until its belt-and-braces
    /// timeout.
    ///
    /// # Safety
    /// Must only be called by the single producer; concurrent pushes are
    /// undefined behaviour (debug builds detect and panic).
    unsafe fn publish(&self, value: T, cell: C) {
        #[cfg(debug_assertions)]
        assert!(
            !self.pushing.swap(true, Ordering::Acquire),
            "concurrent push on an SPSC queue (single-producer contract violated)"
        );
        // SAFETY (the derefs below): the caller is the one producer, so
        // the producer cursor is ours, and its block is live — the
        // consumer frees or hands back only blocks the producer has left.
        // Slot `i` is free: the consumer cleared its flag before the
        // block came back, or the block is new.
        let sent = self.producer.count.load(Ordering::Relaxed);
        let block = *self.producer.block.get();
        let i = sent % N;
        if i == N - 1 {
            // Link past this block before its last slot goes out (type
            // docs): the consumer steps straight onto `next` after it.
            let next = self.next_block();
            // A link that cycles through two blocks links the same
            // block every time: skip the store, which would take the
            // line back from the consumer that read it last time.
            if (*block).next.load(Ordering::Relaxed) != next {
                (*block).next.store(next, Ordering::Relaxed);
            }
            *self.producer.block.get() = next;
        }
        let slot = &(*block).slots[i];
        if C::filled(&value) {
            *slot.cell.get() = cell;
        }
        (*slot.value.get()).write(value);
        // The count before the flag, so a reader that sees the consumer's
        // count cover this slot sees this count too (`len` ≥ 0).
        self.producer.count.store(sent + 1, Ordering::Relaxed);
        slot.ready.store(true, Ordering::Release);
        #[cfg(debug_assertions)]
        self.pushing.store(false, Ordering::Release);
    }

    /// Consumer side: pop the oldest message, or `None` when empty. A
    /// filled cell is copied to `cell`; otherwise `cell` is left as it
    /// is, so a message without one reads nothing beyond its first line.
    ///
    /// # Safety
    /// Must only be called by the single consumer.
    unsafe fn try_pop(&self, cell: &mut C) -> Option<T> {
        // SAFETY (the derefs below): the caller is the one consumer, so
        // the consumer cursor is ours, and its block is live until this
        // thread hands it back. A set flag, acquired, means the value is
        // written (with its cell, if filled) and, on the last slot, `next`
        // is linked.
        let taken = self.consumer.count.load(Ordering::Relaxed);
        let block = *self.consumer.block.get();
        let i = taken % N;
        let slot = &(*block).slots[i];
        if !slot.ready.load(Ordering::Acquire) {
            return None;
        }
        let value = (*slot.value.get()).assume_init_read();
        if C::filled(&value) {
            *cell = *slot.cell.get();
        }
        slot.ready.store(false, Ordering::Relaxed);
        if i == N - 1 {
            // The producer linked `next` before it published this slot
            // and has left the block for good: hand it back.
            *self.consumer.block.get() = (*block).next.load(Ordering::Relaxed);
            let displaced = self.spare.0.swap(block, Ordering::AcqRel);
            if !displaced.is_null() {
                drop(Box::from_raw(displaced));
            }
        }
        self.consumer.count.store(taken + 1, Ordering::Release);
        Some(value)
    }

    /// Messages queued: published minus taken. The consumer's count is
    /// read first, and the producer stores its count before the flag the
    /// consumer acquires, so the difference never underflows; it is exact
    /// once both sides are quiescent.
    fn len(&self) -> usize {
        let taken = self.consumer.count.load(Ordering::Acquire);
        self.producer.count.load(Ordering::Acquire) - taken
    }

    /// Blocks held: the chain from the consumer's block to the
    /// producer's, and the spare. Needs both sides quiescent.
    #[cfg(test)]
    fn retained_blocks(&self) -> usize {
        // SAFETY: with both sides quiescent nobody writes the cursors.
        let (mut block, last) = unsafe { (*self.consumer.block.get(), *self.producer.block.get()) };
        let mut held = 1 + usize::from(!self.spare.0.load(Ordering::Acquire).is_null());
        while block != last {
            // SAFETY: with both sides quiescent the chain is stable and
            // every block on it is live.
            block = unsafe { (*block).next.load(Ordering::Acquire) };
            held += 1;
        }
        held
    }
}

impl<T, C, const N: usize> Drop for SpscQueue<T, C, N> {
    fn drop(&mut self) {
        let sent = *self.producer.count.get_mut();
        let mut taken = *self.consumer.count.get_mut();
        let mut block = *self.consumer.block.get_mut();
        while taken != sent {
            let i = taken % N;
            // SAFETY: exclusive access; slots `taken..sent` hold the
            // queued values, each dropped once here, and a block is freed
            // only after its last slot, once its successor is read.
            unsafe {
                (*(*block).slots[i].value.get()).assume_init_drop();
                if i == N - 1 {
                    let next = (*block).next.load(Ordering::Relaxed);
                    drop(Box::from_raw(block));
                    block = next;
                }
            }
            taken += 1;
        }
        // SAFETY: `block` is now the producer's block (the walk ended at
        // its count); it and the spare are live, distinct and owned by
        // the queue alone, and neither holds a value.
        unsafe {
            drop(Box::from_raw(block));
            let spare = *self.spare.0.get_mut();
            if !spare.is_null() {
                drop(Box::from_raw(spare));
            }
        }
    }
}

/// Producer handle of the lock-free SPSC channel.
///
/// Handles are cloneable so that scoped contexts can hold extra views of
/// a link, but the queue remains **single-producer**: all sends across
/// all clones must be externally serialized (see [`SpscSender::send`]).
/// In this crate that invariant is structural — each mesh link's send
/// side is owned by exactly one rank's thread, and pool worker handles
/// are handed between dispatchers through mutexes.
pub struct SpscSender<T, C = (), const N: usize = BLOCK> {
    queue: Arc<SpscQueue<T, C, N>>,
}

/// The send side of a mesh link ([`link_channel`]).
pub type LinkSender = SpscSender<Packet, PayloadCell, LINK_BLOCK>;

/// The receive side of a mesh link ([`link_channel`]).
pub type LinkReceiver = SpscReceiver<Packet, PayloadCell, LINK_BLOCK>;

impl<T> SpscSender<T> {
    /// Enqueue `value`; hands it back when the receiver has dropped.
    ///
    /// # Safety
    /// Sends on this channel (across *all* clones of the handle) must
    /// never run concurrently: the caller guarantees a happens-before
    /// edge between any two sends. Debug builds detect violations and
    /// panic.
    pub unsafe fn send(&self, value: T) -> Result<(), T> {
        self.send_with(value, ())
    }

    /// Enqueue without the fence/wake step — the batched-fan-out fast
    /// path; see [`SpscSender::send_publish_with`].
    ///
    /// # Safety
    /// As for [`SpscSender::send`].
    pub(crate) unsafe fn send_publish(&self, value: T) -> Result<(), T> {
        self.send_publish_with(value, ())
    }
}

impl<T, C: SlotCell<T>, const N: usize> SpscSender<T, C, N> {
    /// Enqueue `value` with `cell` beside it (written only when
    /// [`SlotCell::filled`] says `value` has one); hands `value` back
    /// when the receiver has dropped.
    ///
    /// # Safety
    /// As for [`SpscSender::send`].
    pub unsafe fn send_with(&self, value: T, cell: C) -> Result<(), T> {
        self.send_publish_with(value, cell)?;
        publish_fence();
        self.wake();
        Ok(())
    }

    /// Enqueue without the fence/wake step — the batched-fan-out fast
    /// path. After a series of `send_publish_with` calls the producer
    /// must run [`publish_fence`] once and then [`SpscSender::wake`] on
    /// each touched channel before blocking on anything.
    ///
    /// # Safety
    /// As for [`SpscSender::send`].
    pub(crate) unsafe fn send_publish_with(&self, value: T, cell: C) -> Result<(), T> {
        if !self.receiver_alive() {
            return Err(value);
        }
        self.queue.publish(value, cell);
        Ok(())
    }

    /// The wake half of a batched fan-out; must run after
    /// [`publish_fence`].
    pub(crate) fn wake(&self) {
        self.queue.parker.wake_if_parked();
    }

    /// False once the receiver has dropped (its rank died): whatever is
    /// still queued on the link will never be received.
    pub(crate) fn receiver_alive(&self) -> bool {
        self.queue.receiver_alive.load(Ordering::Acquire)
    }
}

impl<T, C, const N: usize> Clone for SpscSender<T, C, N> {
    fn clone(&self) -> Self {
        self.queue.parker.add_sender();
        SpscSender {
            queue: Arc::clone(&self.queue),
        }
    }
}

impl<T, C, const N: usize> Drop for SpscSender<T, C, N> {
    fn drop(&mut self) {
        self.queue.parker.drop_sender();
    }
}

/// Consumer handle of the lock-free SPSC channel (single-consumer: not
/// cloneable).
pub struct SpscReceiver<T, C = (), const N: usize = BLOCK> {
    queue: Arc<SpscQueue<T, C, N>>,
}

impl<T> SpscReceiver<T> {
    /// Blocking receive; fails once the queue is empty and every sender
    /// has dropped.
    pub fn recv(&self) -> Result<T, Disconnected> {
        self.recv_counted(&mut RecvCounts::default(), &mut ())
    }

    /// Non-blocking receive: `Ok(Some(v))` on a message, `Ok(None)` on a
    /// (currently) empty queue with live senders, `Err` once the queue is
    /// drained and every sender has dropped. Lets a consumer park itself
    /// on an *external* condvar (the worker pool's shared roster) instead
    /// of this queue's private one.
    pub(crate) fn try_recv(&self) -> Result<Option<T>, Disconnected> {
        // SAFETY: `SpscReceiver` is not Clone, so this is the single
        // consumer.
        let mut try_pop = || unsafe { self.queue.try_pop(&mut ()) };
        self.queue.parker.poll(&mut try_pop).transpose()
    }
}

impl<T, C: SlotCell<T>, const N: usize> SpscReceiver<T, C, N> {
    /// Blocking receive of a value, copying its cell to `cell` when the
    /// value has one (and leaving `cell` alone otherwise), and recording
    /// in `counts` which phase of the wait delivered it; fails once the
    /// queue is empty and every sender has dropped.
    pub(crate) fn recv_counted(
        &self,
        counts: &mut RecvCounts,
        cell: &mut C,
    ) -> Result<T, Disconnected> {
        // SAFETY: `SpscReceiver` is not Clone, so this is the single
        // consumer.
        let try_pop = || unsafe { self.queue.try_pop(cell) };
        self.queue.parker.recv(counts, try_pop)
    }

    /// Messages currently queued: sent minus received, from two counts
    /// with one writer each. Exact when the channel is quiescent.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no message is currently queued (same caveat as
    /// [`SpscReceiver::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T, C, const N: usize> Drop for SpscReceiver<T, C, N> {
    fn drop(&mut self) {
        self.queue.receiver_alive.store(false, Ordering::Release);
    }
}

/// A queue of `N`-slot blocks whose slots hold a `T` and a `C`.
fn channel<T, C: SlotCell<T>, const N: usize>() -> (SpscSender<T, C, N>, SpscReceiver<T, C, N>) {
    let queue = Arc::new(SpscQueue::new());
    queue.parker.add_sender();
    (
        SpscSender {
            queue: Arc::clone(&queue),
        },
        SpscReceiver { queue },
    )
}

/// Create a lock-free SPSC channel: 32 slots to a block, no cell.
pub fn spsc_channel<T>() -> (SpscSender<T>, SpscReceiver<T>) {
    channel()
}

/// Create a mesh link: the SPSC ring with two-line slots, 16 to a block,
/// whose second line carries a [`PacketBody::Cell`] payload.
///
/// [`PacketBody::Cell`]: crate::packet::PacketBody::Cell
pub fn link_channel() -> (LinkSender, LinkReceiver) {
    channel()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBody;

    /// Shrink an iteration count under Miri (interpreted execution is
    /// orders of magnitude slower); every code path is still covered.
    fn scaled(n: u64) -> u64 {
        if cfg!(miri) {
            (n / 100).max(4)
        } else {
            n
        }
    }

    #[test]
    fn real_channel_fifo_single_producer() {
        let (tx, rx) = real_channel();
        for i in 0..100u64 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.len(), 100);
        for i in 0..100u64 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn real_channel_disconnects_after_drain() {
        let (tx, rx) = real_channel();
        tx.send(7u32).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(Disconnected));
    }

    #[test]
    fn real_channel_send_fails_after_receiver_drop() {
        let (tx, rx) = real_channel();
        drop(rx);
        assert_eq!(tx.send(1u8), Err(1u8));
    }

    #[test]
    fn real_channel_blocking_recv_wakes_on_send() {
        let (tx, rx) = real_channel();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(42u64).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn real_channel_blocking_recv_wakes_on_last_sender_drop() {
        let (tx, rx) = real_channel::<u8>();
        let tx2 = tx.clone();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        std::thread::sleep(Duration::from_millis(20));
        drop(tx2); // only the *last* drop may disconnect
        assert_eq!(h.join().unwrap(), Err(Disconnected));
    }

    #[test]
    fn real_channel_multi_producer_per_sender_fifo() {
        // 4 producers × 500 messages, tagged by producer; the consumer
        // must observe each producer's stream in order even under real
        // contention.
        const PRODUCERS: u64 = 4;
        let per = scaled(500);
        let (tx, rx) = real_channel();
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        tx.send((p, i)).unwrap();
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; PRODUCERS as usize];
        let mut total = 0u64;
        while let Ok((p, i)) = rx.recv() {
            assert_eq!(i, next[p as usize], "producer {p} reordered");
            next[p as usize] += 1;
            total += 1;
        }
        assert_eq!(total, PRODUCERS * per);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn real_channel_drops_undelivered_payloads() {
        // Nodes left in the queue when the handles drop must free their
        // payloads (no leak): observe via Arc strong counts.
        let payload = Arc::new(5u64);
        let (tx, rx) = real_channel();
        tx.send(Arc::clone(&payload)).unwrap();
        tx.send(Arc::clone(&payload)).unwrap();
        assert_eq!(Arc::strong_count(&payload), 3);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn spsc_channel_fifo_and_disconnect() {
        let (tx, rx) = spsc_channel();
        for i in 0..100u64 {
            // SAFETY: one thread, one handle.
            unsafe { tx.send(i).unwrap() };
        }
        assert_eq!(rx.len(), 100);
        for i in 0..100u64 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert!(rx.is_empty());
        drop(tx);
        assert_eq!(rx.recv(), Err(Disconnected));
    }

    #[test]
    fn spsc_send_fails_after_receiver_drop() {
        let (tx, rx) = spsc_channel();
        drop(rx);
        // SAFETY: one thread, one handle.
        assert_eq!(unsafe { tx.send(1u8) }, Err(1u8));
    }

    /// A value that counts its drops.
    struct Tracked {
        seq: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn spsc_fifo_and_drop_at_block_boundaries() {
        // `offset` messages pass through first, so the queued ones start
        // at different slots of a block; half of them are then received
        // in order, and the handles drop with the rest still queued.
        for offset in [0, 1, BLOCK - 1, BLOCK] {
            for queued in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK] {
                let at = format!("offset {offset}, {queued} queued");
                let drops = Arc::new(AtomicUsize::new(0));
                let tracked = |seq| Tracked {
                    seq,
                    drops: Arc::clone(&drops),
                };
                let (tx, rx) = spsc_channel();
                // SAFETY (every send here): one thread, one handle.
                for seq in 0..offset as u64 {
                    assert!(unsafe { tx.send(tracked(seq)) }.is_ok());
                    assert_eq!(rx.recv().map(|t| t.seq), Ok(seq));
                }
                for seq in 0..queued as u64 {
                    assert!(unsafe { tx.send(tracked(seq)) }.is_ok());
                }
                assert_eq!(rx.len(), queued, "{at}");
                let received = queued / 2;
                for seq in 0..received as u64 {
                    assert_eq!(rx.recv().map(|t| t.seq), Ok(seq), "{at}");
                }
                assert_eq!(drops.load(Ordering::Relaxed), offset + received);
                drop(tx);
                drop(rx);
                assert_eq!(drops.load(Ordering::Relaxed), offset + queued, "{at}");
            }
        }
    }

    #[test]
    fn spsc_len_counts_across_block_boundaries() {
        let (tx, rx) = spsc_channel();
        for n in 1..=3 * BLOCK {
            // SAFETY: one thread, one handle.
            unsafe { tx.send(n).unwrap() };
            assert_eq!(rx.len(), n);
        }
        for n in (0..3 * BLOCK).rev() {
            rx.recv().unwrap();
            assert_eq!(rx.len(), n);
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn spsc_ping_pong_reuses_the_spare_block() {
        // One message in flight between two threads: each link lives on
        // its first block and one more, handed back and forth as the
        // spare, however long the exchange runs.
        let (ping_tx, ping_rx) = spsc_channel();
        let (pong_tx, pong_rx) = spsc_channel();
        let echo = std::thread::spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                // SAFETY: this thread holds the only `pong_tx`.
                unsafe { pong_tx.send(v).unwrap() };
            }
            ping_rx
        });
        for i in 0..scaled(20_000) {
            // SAFETY: this thread holds the only `ping_tx`.
            unsafe { ping_tx.send(i).unwrap() };
            assert_eq!(pong_rx.recv(), Ok(i));
        }
        drop(ping_tx);
        let ping_rx = echo.join().unwrap();
        for rx in [&ping_rx, &pong_rx] {
            assert_eq!(rx.queue.blocks_allocated.load(Ordering::Relaxed), 2);
            assert_eq!(rx.queue.retained_blocks(), 2);
        }
        // A burst three blocks deep takes two more blocks; once drained,
        // the link keeps two again and a ping-pong allocates nothing.
        let (tx, rx) = spsc_channel();
        // SAFETY (every send below): one thread, one handle.
        for i in 0..3 * BLOCK as u64 {
            unsafe { tx.send(i).unwrap() };
        }
        assert_eq!(rx.queue.retained_blocks(), 4);
        for i in 0..3 * BLOCK as u64 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.queue.retained_blocks(), 2);
        for i in 0..3 * BLOCK as u64 {
            unsafe { tx.send(i).unwrap() };
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.queue.blocks_allocated.load(Ordering::Relaxed), 4);
        assert_eq!(rx.queue.retained_blocks(), 2);
    }

    /// Packet `seq` of a mesh link test stream: inline, in a full
    /// 64-byte cell, or in a 16-byte cell, by turns.
    fn link_packet(seq: u64) -> (Packet, PayloadCell) {
        fn boxed<T>(_: T) -> Box<dyn std::any::Any + Send> {
            unreachable!("fits the packet or the cell")
        }
        let (body, cell) = match seq % 3 {
            0 => PacketBody::of(seq, boxed),
            1 => PacketBody::of([seq; 8], boxed),
            _ => PacketBody::of((seq as u32, !seq), boxed),
        };
        let packet = Packet {
            scope: 0,
            tag: seq,
            bytes: 0,
            arrival_time: 0.0,
            body,
        };
        (packet, cell)
    }

    /// Check a packet made by [`link_packet`] and return its `seq`.
    fn link_seq(packet: Packet, cell: PayloadCell) -> u64 {
        let seq = packet.tag;
        // SAFETY (the takes): the link hands each packet out with the
        // cell that travelled beside it.
        match (seq % 3, packet.body) {
            (0, PacketBody::Inline(v)) => assert_eq!(v.take::<u64>().ok(), Some(seq)),
            (1, PacketBody::Cell(ty)) => {
                assert_eq!(unsafe { cell.take::<[u64; 8]>(ty) }.ok(), Some([seq; 8]));
            }
            (2, PacketBody::Cell(ty)) => {
                let got = unsafe { cell.take::<(u32, u64)>(ty) }.ok();
                assert_eq!(got, Some((seq as u32, !seq)));
            }
            _ => panic!("packet {seq}: unexpected body"),
        }
        seq
    }

    #[test]
    fn link_slots_are_two_lines_in_blocks_of_2_kib() {
        assert_eq!(LINK_BLOCK, 16);
        assert_eq!(BLOCK, 32);
        let link_block = std::mem::size_of::<Block<Packet, PayloadCell, LINK_BLOCK>>();
        let plain_block = std::mem::size_of::<Block<Packet, (), BLOCK>>();
        // The slots, then `next` on a line of its own.
        assert_eq!(
            (link_block, plain_block),
            (BLOCK_BYTES + 64, BLOCK_BYTES + 64)
        );
        let (inline, _) = link_packet(3);
        let (cell, _) = link_packet(4);
        assert!(!PayloadCell::filled(&inline) && PayloadCell::filled(&cell));
    }

    #[test]
    fn link_cells_ride_beside_their_packets_across_block_boundaries() {
        for queued in [
            1,
            LINK_BLOCK - 1,
            LINK_BLOCK,
            LINK_BLOCK + 1,
            3 * LINK_BLOCK + 5,
        ] {
            let (tx, rx) = link_channel();
            // SAFETY (every send here): one thread, one handle.
            for seq in 0..queued as u64 {
                let (packet, cell) = link_packet(seq);
                assert!(unsafe { tx.send_with(packet, cell) }.is_ok());
            }
            assert_eq!(rx.len(), queued);
            for seq in 0..queued as u64 / 2 {
                let mut cell = PayloadCell::EMPTY;
                assert_eq!(
                    rx.recv_counted(&mut RecvCounts::default(), &mut cell)
                        .map(|p| link_seq(p, cell)),
                    Ok(seq)
                );
            }
            // The rest are dropped with the queue.
        }
    }

    #[test]
    fn link_threaded_stream_keeps_each_cell_with_its_packet() {
        let (tx, rx) = link_channel();
        let count = scaled(30_000);
        let h = std::thread::spawn(move || {
            for seq in 0..count {
                let (packet, cell) = link_packet(seq);
                // SAFETY: this thread holds the only sender.
                unsafe { tx.send_with(packet, cell) }.expect("receiver alive");
                if seq % (LINK_BLOCK as u64 + 3) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut cell = PayloadCell::EMPTY;
        for seq in 0..count {
            assert_eq!(
                rx.recv_counted(&mut RecvCounts::default(), &mut cell)
                    .map(|p| link_seq(p, cell)),
                Ok(seq)
            );
        }
        assert_eq!(
            rx.recv_counted(&mut RecvCounts::default(), &mut cell).err(),
            Some(Disconnected)
        );
        h.join().unwrap();
    }

    #[test]
    fn spsc_blocking_recv_wakes_on_send() {
        let (tx, rx) = spsc_channel();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        // SAFETY: this thread holds the only sender.
        unsafe { tx.send(42u64).unwrap() };
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn spsc_threaded_stream_pauses_at_block_ends() {
        // The producer pauses at block ends, by turns: until the consumer
        // has taken everything up to a block's last slot (it crosses the
        // boundary and hands the block back while the producer waits) or
        // up to the slot before it (it waits on the last slot), for one
        // yield, or not at all.
        const B: u64 = BLOCK as u64;
        let (tx, rx) = spsc_channel();
        let count = scaled(50_000);
        let taken = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&taken);
        let drained_to = move |i: u64| {
            while seen.load(Ordering::Acquire) <= i as usize {
                std::thread::yield_now();
            }
        };
        let h = std::thread::spawn(move || {
            for i in 0..count {
                // SAFETY: this thread holds the only sender.
                unsafe { tx.send(i).unwrap() };
                match ((i / B) % 4, i % B) {
                    (0, s) if s == B - 1 => drained_to(i),
                    (1, s) if s == B - 2 => drained_to(i),
                    (2, s) if s == B - 1 => std::thread::yield_now(),
                    _ => {}
                }
            }
        });
        for i in 0..count {
            assert_eq!(rx.recv(), Ok(i));
            taken.store(i as usize + 1, Ordering::Release);
        }
        assert_eq!(rx.recv(), Err(Disconnected));
        h.join().unwrap();
    }

    /// Both channels behind one face, so every `Parker` test below runs
    /// against both queues. `Self` is the receive side.
    trait Chan: Send + Sync + Sized + 'static {
        type Tx: Send + 'static;
        fn pair() -> (Self::Tx, Self);
        fn send(tx: &Self::Tx, v: u64);
        fn recv(&self, counts: &mut RecvCounts) -> Result<u64, Disconnected>;
        fn parker(&self) -> &Parker;
        fn parks(&self) -> usize {
            self.parker().parks.load(Ordering::Relaxed)
        }
        fn wakes(&self) -> usize {
            self.parker().wakes.load(Ordering::Relaxed)
        }
    }

    impl Chan for SpscReceiver<u64> {
        type Tx = SpscSender<u64>;
        fn pair() -> (Self::Tx, Self) {
            spsc_channel()
        }
        fn send(tx: &Self::Tx, v: u64) {
            // SAFETY: every test moves the one handle to one thread.
            unsafe { tx.send(v) }.unwrap();
        }
        fn recv(&self, counts: &mut RecvCounts) -> Result<u64, Disconnected> {
            self.recv_counted(counts, &mut ())
        }
        fn parker(&self) -> &Parker {
            &self.queue.parker
        }
    }

    impl Chan for RealReceiver<u64> {
        type Tx = RealSender<u64>;
        fn pair() -> (Self::Tx, Self) {
            real_channel()
        }
        fn send(tx: &Self::Tx, v: u64) {
            tx.send(v).unwrap();
        }
        fn recv(&self, counts: &mut RecvCounts) -> Result<u64, Disconnected> {
            // SAFETY: `RealReceiver` is not Clone: the single consumer.
            let try_pop = || unsafe { self.queue.try_pop() };
            self.queue.parker.recv(counts, try_pop)
        }
        fn parker(&self) -> &Parker {
            &self.queue.parker
        }
    }

    /// The last sender drops against a consumer that is draining `msgs`
    /// messages (varied per round, so the drop lands at every point of
    /// the consumer's pop / spin / park sequence); the consumer must get
    /// every message and then the disconnect. With `drop_in_spin` the
    /// producer holds its drop until the consumer has popped the last
    /// message — the drop then lands inside the spin of the next receive.
    /// Returns in how many rounds the consumer never parked.
    fn race_last_sender_drop<C: Chan>(drop_in_spin: bool) -> u64 {
        let mut never_parked = 0;
        for round in 0..scaled(200) {
            let (tx, rx) = C::pair();
            let msgs = round % 4;
            let popped = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&popped);
            let consumer = std::thread::spawn(move || {
                let mut counts = RecvCounts::default();
                while rx.recv(&mut counts).is_ok() {
                    seen.fetch_add(1, Ordering::Release);
                }
                (counts, rx.parks())
            });
            for i in 0..msgs {
                C::send(&tx, i);
            }
            if drop_in_spin {
                while popped.load(Ordering::Acquire) < msgs as usize {
                    std::thread::yield_now();
                }
            } else if round % 2 == 0 {
                std::thread::yield_now();
            }
            drop(tx);
            let (counts, parks) = consumer.join().unwrap();
            assert_eq!(counts.immediate + counts.spun + counts.parked, msgs);
            never_parked += u64::from(parks == 0);
        }
        never_parked
    }

    /// Regression test for sleep/wake races around the last-sender drop:
    /// a consumer parking on an emptying queue must always observe the
    /// disconnect, no matter how the drop interleaves with its
    /// park/fence/check sequence. Before the protocol was documented and
    /// audited this was the path a lost wakeup would deadlock (modulo
    /// the belt-and-braces timeout).
    #[test]
    fn last_sender_drop_races_with_parking_consumer() {
        race_last_sender_drop::<SpscReceiver<u64>>(false);
        race_last_sender_drop::<RealReceiver<u64>>(false);
    }

    /// A dead peer is detected from inside the spin, without parking.
    #[test]
    fn last_sender_drop_is_seen_while_spinning() {
        let spsc = race_last_sender_drop::<SpscReceiver<u64>>(true);
        let mpsc = race_last_sender_drop::<RealReceiver<u64>>(true);
        // Interpreted, a handful of polls already outlasts the budget.
        if !cfg!(miri) {
            assert!(
                spsc > 0 && mpsc > 0,
                "never seen in the spin: {spsc} {mpsc}"
            );
        }
    }

    /// Exact version of the two spin properties, on a bare `Parker` with
    /// the producer's step run at a chosen poll of the first spin burst
    /// (which always runs, whatever the clock says).
    #[test]
    fn message_or_disconnect_inside_the_spin_never_parks() {
        let parker = Parker::default();
        parker.add_sender();
        let mut counts = RecvCounts::default();
        let mut polls = 0;
        let got = parker.recv(&mut counts, || {
            polls += 1;
            // "Published" on the 5th poll; the producer's half follows.
            (polls == 5).then(|| {
                parker.wake_if_parked();
                7u64
            })
        });
        assert_eq!(got, Ok(7));
        assert_eq!(counts.spun, 1);
        assert_eq!(counts.immediate + counts.parked, 0);
        let mut polls = 0;
        let got = parker.recv(&mut counts, || {
            polls += 1;
            if polls == 5 {
                parker.drop_sender(); // the last sender
            }
            None::<u64>
        });
        assert_eq!(got, Err(Disconnected));
        assert_eq!(counts.spun, 1, "a disconnect is not a delivery");
        assert_eq!(parker.parks.load(Ordering::Relaxed), 0);
        // Only the unconditional disconnect wake touched `sleep`.
        assert_eq!(parker.wakes.load(Ordering::Relaxed), 1);
    }

    /// Ping-pong: each reply is published one message latency after the
    /// consumer enters `recv`, i.e. inside its spin. One message is in
    /// flight at a time, so a sender finds `parked` set at most once per
    /// park: it must never take `sleep` for a spinning consumer.
    fn ping_pong_spins<C: Chan>() {
        let (ping_tx, ping_rx) = C::pair();
        let (pong_tx, pong_rx) = C::pair();
        let rounds = scaled(2000);
        let echo = std::thread::spawn(move || {
            let mut counts = RecvCounts::default();
            while let Ok(v) = ping_rx.recv(&mut counts) {
                C::send(&pong_tx, v);
            }
            (counts, ping_rx.parks(), ping_rx.wakes())
        });
        let mut counts = RecvCounts::default();
        for i in 0..rounds {
            C::send(&ping_tx, i);
            assert_eq!(pong_rx.recv(&mut counts), Ok(i));
        }
        drop(ping_tx);
        let (echo_counts, echo_parks, echo_wakes) = echo.join().unwrap();
        for (c, parks, wakes) in [
            (counts, pong_rx.parks(), pong_rx.wakes()),
            (echo_counts, echo_parks, echo_wakes),
        ] {
            assert_eq!(c.immediate + c.spun + c.parked, rounds);
            assert!(c.parked as usize <= parks);
            // + 1: the unconditional disconnect wake.
            assert!(wakes <= parks + 1, "{wakes} wakes for {parks} parks");
            if !cfg!(miri) {
                assert!(c.spun > 0, "no receive was satisfied by the spin: {c:?}");
            }
        }
    }

    #[test]
    fn ping_pong_is_delivered_by_the_spin_without_waking() {
        ping_pong_spins::<SpscReceiver<u64>>();
        ping_pong_spins::<RealReceiver<u64>>();
    }

    /// The spin is bounded: a consumer left without traffic ends up
    /// parked, and a later push still wakes it.
    fn idle_consumer_parks_then_wakes<C: Chan>() {
        let (tx, rx) = C::pair();
        let rx = Arc::new(rx);
        let consumer = {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || {
                let mut counts = RecvCounts::default();
                (rx.recv(&mut counts), counts)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while !rx.parker().parked.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "consumer still spinning");
            std::thread::yield_now();
        }
        C::send(&tx, 42);
        let (got, counts) = consumer.join().unwrap();
        assert_eq!(got, Ok(42));
        assert_eq!(counts.parked, 1);
        assert_eq!(counts.immediate + counts.spun, 0);
    }

    #[test]
    fn spin_is_bounded_and_a_parked_consumer_still_wakes() {
        idle_consumer_parks_then_wakes::<SpscReceiver<u64>>();
        idle_consumer_parks_then_wakes::<RealReceiver<u64>>();
    }

    // -- The handshake as a sequentially consistent model ---------------
    //
    // One state per (shared variables, consumer pc, producer pc); every
    // atomic access, lock operation and condvar call of `Parker` is one
    // step, the spin budget may expire before any poll, and `wait` has no
    // timeout, so a lost wakeup is a stuck state. `explore` visits every
    // reachable state of every interleaving.

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Who {
        Consumer,
        Producer,
    }

    /// Consumer pc; `parked` says whether the poll runs inside the park
    /// sequence (flag set, `sleep` held) or in the spin.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum C {
        Pop {
            parked: bool,
        },
        Senders {
            parked: bool,
        },
        Drain {
            parked: bool,
        },
        Lock,
        SetFlag,
        /// A parked poll returned: clear the flag, then drop the guard.
        Clear {
            done: bool,
        },
        Unlock {
            done: bool,
        },
        Wait,
        Asleep,
        /// Back from `wait`: drop the guard, clear the flag, loop.
        WokeUnlock,
        WokeClear,
        Done,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Op {
        Push,
        Drop,
    }

    /// Producer stage within its current op.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum P {
        Start,
        ReadFlag,
        Lock,
        Unlock,
        Notify,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct Model {
        queued: u8,
        senders: u8,
        parked: bool,
        lock: Option<Who>,
        /// The consumer is inside `wait` and has not been notified.
        waiting: bool,
        delivered: u8,
        c: C,
        op: usize,
        p: P,
    }

    /// The protocol, or one of two broken variants the search must catch.
    #[derive(Clone, Copy, PartialEq)]
    enum Rules {
        Sound,
        NotifyWithoutLock,
        NoFinalCheck,
    }

    fn consumer_steps(m: Model, rules: Rules, out: &mut Vec<Model>) {
        let deliver = |m: Model, parked: bool| Model {
            queued: m.queued - 1,
            delivered: m.delivered + 1,
            c: if parked {
                C::Clear { done: false }
            } else {
                C::Pop { parked: false }
            },
            ..m
        };
        match m.c {
            C::Pop { parked } => {
                if m.queued > 0 {
                    out.push(deliver(m, parked));
                } else {
                    out.push(Model {
                        c: C::Senders { parked },
                        ..m
                    });
                }
                if !parked {
                    out.push(Model { c: C::Lock, ..m }); // budget spent
                }
            }
            C::Senders { parked } => out.push(Model {
                c: match (m.senders, parked) {
                    (0, _) => C::Drain { parked },
                    (_, true) => C::Wait,
                    (_, false) => C::Pop { parked: false },
                },
                ..m
            }),
            C::Drain { parked } if m.queued > 0 => out.push(deliver(m, parked)),
            C::Drain { parked } => out.push(Model {
                c: if parked {
                    C::Clear { done: true }
                } else {
                    C::Done
                },
                ..m
            }),
            C::Lock if m.lock.is_none() => out.push(Model {
                lock: Some(Who::Consumer),
                c: C::SetFlag,
                ..m
            }),
            C::SetFlag => out.push(Model {
                parked: true,
                c: if rules == Rules::NoFinalCheck {
                    C::Wait
                } else {
                    C::Pop { parked: true }
                },
                ..m
            }),
            C::Clear { done } => out.push(Model {
                parked: false,
                c: C::Unlock { done },
                ..m
            }),
            C::Unlock { done } => out.push(Model {
                lock: None,
                c: if done {
                    C::Done
                } else {
                    C::Pop { parked: false }
                },
                ..m
            }),
            // `wait` releases the lock and sleeps in one atomic step.
            C::Wait => out.push(Model {
                lock: None,
                waiting: true,
                c: C::Asleep,
                ..m
            }),
            C::Asleep if !m.waiting && m.lock.is_none() => out.push(Model {
                lock: Some(Who::Consumer),
                c: C::WokeUnlock,
                ..m
            }),
            C::WokeUnlock => out.push(Model {
                lock: None,
                c: C::WokeClear,
                ..m
            }),
            C::WokeClear => out.push(Model {
                parked: false,
                c: C::Lock,
                ..m
            }),
            C::Lock | C::Asleep | C::Done => {} // blocked, or finished
        }
    }

    fn producer_steps(m: Model, ops: &[Op], rules: Rules, out: &mut Vec<Model>) {
        let Some(&op) = ops.get(m.op) else {
            return;
        };
        let next_op = Model {
            op: m.op + 1,
            p: P::Start,
            ..m
        };
        let wake = if rules == Rules::NotifyWithoutLock {
            P::Notify
        } else {
            P::Lock
        };
        match (m.p, op) {
            (P::Start, Op::Push) => out.push(Model {
                queued: m.queued + 1,
                p: P::ReadFlag,
                ..m
            }),
            // The disconnect wake does not consult the flag.
            (P::Start, Op::Drop) => out.push(Model {
                senders: m.senders - 1,
                p: wake,
                ..m
            }),
            (P::ReadFlag, _) if m.parked => out.push(Model { p: wake, ..m }),
            (P::ReadFlag, _) => out.push(next_op),
            (P::Lock, _) if m.lock.is_none() => out.push(Model {
                lock: Some(Who::Producer),
                p: P::Unlock,
                ..m
            }),
            (P::Lock, _) => {} // blocked
            (P::Unlock, _) => out.push(Model {
                lock: None,
                p: P::Notify,
                ..m
            }),
            (P::Notify, _) => out.push(Model {
                waiting: false,
                ..next_op
            }),
        }
    }

    /// Visit every reachable state; `Err` is a state nothing can leave
    /// with a message undelivered or the disconnect unseen.
    fn explore(ops: &[Op], rules: Rules) -> Result<usize, Model> {
        let start = Model {
            queued: 0,
            senders: 1,
            parked: false,
            lock: None,
            waiting: false,
            delivered: 0,
            c: C::Pop { parked: false },
            op: 0,
            p: P::Start,
        };
        let pushes = ops.iter().filter(|&&op| op == Op::Push).count() as u8;
        let mut seen = std::collections::HashSet::from([start]);
        let mut todo = vec![start];
        let mut next = Vec::new();
        while let Some(m) = todo.pop() {
            consumer_steps(m, rules, &mut next);
            producer_steps(m, ops, rules, &mut next);
            // Nothing can move: fine only with every op done, every
            // message delivered and, after a drop, the disconnect seen
            // (without one the consumer rightly sleeps on).
            let settled =
                m.op == ops.len() && m.delivered == pushes && (m.c == C::Done) == (m.senders == 0);
            if next.is_empty() && !settled {
                return Err(m);
            }
            todo.extend(next.drain(..).filter(|n| seen.insert(*n)));
        }
        Ok(seen.len())
    }

    const SCHEDULES: [&[Op]; 5] = [
        &[Op::Push],
        &[Op::Push, Op::Push],
        &[Op::Drop],
        &[Op::Push, Op::Drop],
        &[Op::Push, Op::Push, Op::Drop],
    ];

    #[test]
    fn handshake_model_never_strands_the_consumer() {
        for ops in SCHEDULES {
            let states = explore(ops, Rules::Sound).unwrap_or_else(|m| {
                panic!("{ops:?}: consumer stranded in {m:?}");
            });
            assert!(states > 20, "{ops:?}: only {states} states explored");
        }
    }

    /// The search has teeth: notifying without taking `sleep`, or waiting
    /// without the final check, strands the consumer in some schedule.
    #[test]
    fn handshake_model_catches_broken_protocols() {
        for rules in [Rules::NotifyWithoutLock, Rules::NoFinalCheck] {
            assert!(SCHEDULES.iter().any(|ops| explore(ops, rules).is_err()));
        }
    }

    #[test]
    fn publish_then_wake_delivers_to_parked_consumer() {
        // The batched fan-out path: publish (no wake), fence, wake. The
        // parked consumer must observe the message promptly through the
        // explicit wake, not just the fallback timeout.
        let (tx, rx) = spsc_channel();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        // SAFETY: this thread holds the only sender.
        unsafe { tx.send_publish(9u64).unwrap() };
        publish_fence();
        tx.wake();
        assert_eq!(h.join().unwrap(), 9);
    }
}
