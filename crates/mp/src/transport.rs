//! The transport under the SPMD network: in-repo lock-free queues.
//!
//! Every mesh link of an SPMD network has a *statically single sender*
//! (the `(src, dst)` channel is only ever pushed by rank `src`'s thread),
//! so links ride the **lock-free SPSC queue** ([`spsc_channel`]): a
//! one-store publish, a consumer pop that never takes a lock while
//! messages are available, a per-link node freelist that makes
//! steady-state traffic allocation-free, and a condvar slow path only for
//! parking on an empty queue. The worker pool's dispatch channels are the
//! same queue. The multi-producer generalization ([`real_channel`], a
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
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

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
const POLLS_PER_YIELD: u32 = 32;

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
/// Nodes are heap-allocated per push: with *multiple* producers a node
/// freelist would need a multi-popper lock-free stack (ABA-prone without
/// tagged pointers), so recycling lives in the single-producer queue
/// ([`SpscQueue`]) that the mesh links actually use.
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
// Lock-free SPSC queue with node recycling (the mesh-link fast path).
// ---------------------------------------------------------------------------

/// Consumed nodes retained per queue for reuse; beyond this they are
/// freed. 256 nodes cover every in-flight window the archetypes produce
/// (pipeline credit windows, collective fan-outs) while bounding what an
/// idle cached network pins.
const SPSC_FREELIST_CAP: usize = 256;

/// Intrusive single-producer single-consumer queue with a node freelist.
///
/// The single producer publishes with *one* release store (no swap, and
/// no unlinked window for the consumer to spin on); consumed nodes are
/// recycled through a Treiber stack pushed by the consumer and popped
/// only by the producer, so steady-state traffic allocates nothing. The
/// single-popper discipline is what makes the bare Treiber stack sound:
/// a loaded freelist head can only be unlinked by the one popper, so its
/// `next` pointer is stable until the popper's CAS and the classic ABA
/// hazard (head reappearing with a different successor) cannot occur.
///
/// Blocking, wakeup and disconnect go through the shared `Parker`
/// (module docs).
struct SpscQueue<T> {
    /// Most recently pushed node; owned by the single producer.
    head: UnsafeCell<*mut Node<T>>,
    /// Oldest node (a consumed stub); owned by the single consumer.
    tail: UnsafeCell<*mut Node<T>>,
    /// Recycled nodes: pushed by the consumer, popped by the producer.
    free: AtomicPtr<Node<T>>,
    /// Approximate freelist occupancy bounding retained nodes.
    free_len: AtomicUsize,
    /// Messages currently queued. Shared with the sibling links of one
    /// mailbox when built via [`spsc_channel_with`], so a mailbox's
    /// leak check is one load instead of n.
    len: Arc<AtomicUsize>,
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
}

// SAFETY: values cross from the single producer to the single consumer;
// `head` is only touched by the producer, `tail` only by the consumer,
// the freelist is managed through atomics with one pusher and one
// popper, and `Drop` has exclusive access.
unsafe impl<T: Send> Send for SpscQueue<T> {}
unsafe impl<T: Send> Sync for SpscQueue<T> {}

impl<T> SpscQueue<T> {
    fn new(len: Arc<AtomicUsize>) -> Self {
        let stub = Node::boxed(None);
        SpscQueue {
            head: UnsafeCell::new(stub),
            tail: UnsafeCell::new(stub),
            free: AtomicPtr::new(ptr::null_mut()),
            free_len: AtomicUsize::new(0),
            len,
            receiver_alive: AtomicBool::new(true),
            parker: Parker::default(),
            #[cfg(debug_assertions)]
            pushing: AtomicBool::new(false),
        }
    }

    /// Pop a recycled node, or `None` when the freelist is empty.
    ///
    /// # Safety
    /// Must only be called by the single producer (single-popper
    /// discipline — see the type docs).
    unsafe fn pop_free(&self) -> Option<*mut Node<T>> {
        loop {
            let cur = self.free.load(Ordering::Acquire);
            if cur.is_null() {
                return None;
            }
            // `cur` cannot be unlinked by anyone else (we are the only
            // popper), so reading its successor is race-free; the CAS
            // fails only when the consumer pushed more nodes on top.
            let next = (*cur).next.load(Ordering::Relaxed);
            if self
                .free
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.free_len.fetch_sub(1, Ordering::Relaxed);
                return Some(cur);
            }
        }
    }

    /// Park a consumed node for reuse (or free it past the cap).
    ///
    /// # Safety
    /// Must only be called by the single consumer, with `node` unlinked
    /// from the queue chain.
    unsafe fn recycle(&self, node: *mut Node<T>) {
        if self.free_len.load(Ordering::Relaxed) >= SPSC_FREELIST_CAP {
            drop(Box::from_raw(node));
            return;
        }
        self.free_len.fetch_add(1, Ordering::Relaxed);
        loop {
            let cur = self.free.load(Ordering::Relaxed);
            (*node).next.store(cur, Ordering::Relaxed);
            // Release so the producer's Acquire pop observes our writes
            // to the node (the `value.take()` that emptied it).
            if self
                .free
                .compare_exchange_weak(cur, node, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Producer side, publish only: enqueue without the fence/wake step.
    /// The caller must follow up with [`publish_fence`] and
    /// `Parker::wake_if_parked` before blocking on anything, or the consumer may sleep on a full queue
    /// until its belt-and-braces timeout.
    ///
    /// # Safety
    /// Must only be called by the single producer; concurrent pushes are
    /// undefined behaviour (debug builds detect and panic).
    unsafe fn publish(&self, value: T) {
        #[cfg(debug_assertions)]
        assert!(
            !self.pushing.swap(true, Ordering::Acquire),
            "concurrent push on an SPSC queue (single-producer contract violated)"
        );
        let node = self.pop_free().unwrap_or_else(|| Node::boxed(None));
        (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
        (*node).value = Some(value);
        let head = *self.head.get();
        // The one-store publish: linking the new node makes it visible
        // to the consumer together with its value (Release).
        (*head).next.store(node, Ordering::Release);
        *self.head.get() = node;
        self.len.fetch_add(1, Ordering::Release);
        #[cfg(debug_assertions)]
        self.pushing.store(false, Ordering::Release);
    }

    /// Consumer side: pop the oldest message, or `None` when empty.
    ///
    /// # Safety
    /// Must only be called by the single consumer.
    unsafe fn try_pop(&self) -> Option<T> {
        let tail = *self.tail.get();
        let next = (*tail).next.load(Ordering::Acquire);
        if next.is_null() {
            // Unlike the MPSC queue there is no unlinked window: the
            // producer's single release store publishes node and link
            // together, so a null `next` means truly empty.
            return None;
        }
        let value = (*next).value.take().expect("pushed node carries a value");
        *self.tail.get() = next;
        self.recycle(tail);
        self.len.fetch_sub(1, Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: free the live chain (tail..head, including
        // the stub) and the freelist. The two chains are disjoint — a
        // node is recycled only after being unlinked from the queue.
        let mut p = *self.tail.get_mut();
        while !p.is_null() {
            let node = unsafe { Box::from_raw(p) };
            p = node.next.load(Ordering::Relaxed);
        }
        let mut f = *self.free.get_mut();
        while !f.is_null() {
            let node = unsafe { Box::from_raw(f) };
            f = node.next.load(Ordering::Relaxed);
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
pub struct SpscSender<T> {
    queue: Arc<SpscQueue<T>>,
}

impl<T> SpscSender<T> {
    /// Enqueue `value`; hands it back when the receiver has dropped.
    ///
    /// # Safety
    /// Sends on this channel (across *all* clones of the handle) must
    /// never run concurrently: the caller guarantees a happens-before
    /// edge between any two sends. Debug builds detect violations and
    /// panic.
    pub unsafe fn send(&self, value: T) -> Result<(), T> {
        self.send_publish(value)?;
        publish_fence();
        self.wake();
        Ok(())
    }

    /// Enqueue without the fence/wake step — the batched-fan-out fast
    /// path. After a series of `send_publish` calls the producer must
    /// run [`publish_fence`] once and then [`SpscSender::wake`] on each
    /// touched channel before blocking on anything.
    ///
    /// # Safety
    /// As for [`SpscSender::send`].
    pub(crate) unsafe fn send_publish(&self, value: T) -> Result<(), T> {
        if !self.queue.receiver_alive.load(Ordering::Acquire) {
            return Err(value);
        }
        self.queue.publish(value);
        Ok(())
    }

    /// The wake half of a batched fan-out; must run after
    /// [`publish_fence`].
    pub(crate) fn wake(&self) {
        self.queue.parker.wake_if_parked();
    }
}

impl<T> Clone for SpscSender<T> {
    fn clone(&self) -> Self {
        self.queue.parker.add_sender();
        SpscSender {
            queue: Arc::clone(&self.queue),
        }
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.queue.parker.drop_sender();
    }
}

/// Consumer handle of the lock-free SPSC channel (single-consumer: not
/// cloneable).
pub struct SpscReceiver<T> {
    queue: Arc<SpscQueue<T>>,
}

impl<T> SpscReceiver<T> {
    /// Blocking receive; fails once the queue is empty and every sender
    /// has dropped.
    pub fn recv(&self) -> Result<T, Disconnected> {
        self.recv_counted(&mut RecvCounts::default())
    }

    /// [`SpscReceiver::recv`], recording in `counts` which phase of the
    /// wait delivered the message.
    pub(crate) fn recv_counted(&self, counts: &mut RecvCounts) -> Result<T, Disconnected> {
        // SAFETY: `SpscReceiver` is not Clone, so this is the single
        // consumer.
        let try_pop = || unsafe { self.queue.try_pop() };
        self.queue.parker.recv(counts, try_pop)
    }

    /// Non-blocking receive: `Ok(Some(v))` on a message, `Ok(None)` on a
    /// (currently) empty queue with live senders, `Err` once the queue is
    /// drained and every sender has dropped. Lets a consumer park itself
    /// on an *external* condvar (the worker pool's shared roster) instead
    /// of this queue's private one.
    pub(crate) fn try_recv(&self) -> Result<Option<T>, Disconnected> {
        // SAFETY: `SpscReceiver` is not Clone, so this is the single
        // consumer.
        let mut try_pop = || unsafe { self.queue.try_pop() };
        self.queue.parker.poll(&mut try_pop).transpose()
    }

    /// Messages currently queued. Exact at quiescence for a channel from
    /// [`spsc_channel`]; for mesh links built with a shared counter (see
    /// [`crate::mailbox::build_network`]) this counts in-flight messages
    /// across *all* links sharing the counter.
    pub fn len(&self) -> usize {
        self.queue.len.load(Ordering::Acquire)
    }

    /// True when no message is currently queued (same caveat as
    /// [`SpscReceiver::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nodes currently parked on the freelist (tests/diagnostics).
    #[cfg(test)]
    fn recycled_nodes(&self) -> usize {
        self.queue.free_len.load(Ordering::Relaxed)
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        self.queue.receiver_alive.store(false, Ordering::Release);
    }
}

/// Create a lock-free SPSC channel with a private length counter.
pub fn spsc_channel<T>() -> (SpscSender<T>, SpscReceiver<T>) {
    spsc_channel_with(Arc::new(AtomicUsize::new(0)))
}

/// Create a lock-free SPSC channel whose length counter is the given
/// (possibly shared) cell. [`crate::mailbox::build_network`] shares one
/// cell across all links of a destination's mailbox, making the post-run
/// leak check a single load per mailbox instead of n per-channel reads.
pub(crate) fn spsc_channel_with<T>(len: Arc<AtomicUsize>) -> (SpscSender<T>, SpscReceiver<T>) {
    let queue = Arc::new(SpscQueue::new(len));
    queue.parker.add_sender();
    (
        SpscSender {
            queue: Arc::clone(&queue),
        },
        SpscReceiver { queue },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(unsafe { tx.send(1u8) }, Err(1u8));
    }

    #[test]
    fn spsc_recycles_nodes_in_steady_state() {
        let (tx, rx) = spsc_channel();
        // Prime: one send/recv parks the consumed stub on the freelist.
        unsafe { tx.send(0u64).unwrap() };
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recycled_nodes(), 1);
        // Steady-state ping-pong shape: every push reuses the node the
        // previous pop recycled, so the freelist never grows past the
        // in-flight window.
        for i in 1..scaled(10_000) {
            unsafe { tx.send(i).unwrap() };
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.recycled_nodes(), 1);
        // Bursts park as many nodes as were simultaneously in flight...
        for i in 0..64u64 {
            unsafe { tx.send(i).unwrap() };
        }
        for _ in 0..64u64 {
            rx.recv().unwrap();
        }
        assert_eq!(rx.recycled_nodes(), 64);
        // ...and the cap bounds retention for oversized bursts.
        for i in 0..2 * SPSC_FREELIST_CAP as u64 {
            unsafe { tx.send(i).unwrap() };
        }
        for _ in 0..2 * SPSC_FREELIST_CAP as u64 {
            rx.recv().unwrap();
        }
        assert!(rx.recycled_nodes() <= SPSC_FREELIST_CAP);
    }

    #[test]
    fn spsc_blocking_recv_wakes_on_send() {
        let (tx, rx) = spsc_channel();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        unsafe { tx.send(42u64).unwrap() };
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn spsc_threaded_stream_is_fifo_with_recycling() {
        let (tx, rx) = spsc_channel();
        let count = scaled(50_000);
        let h = std::thread::spawn(move || {
            for i in 0..count {
                unsafe { tx.send(i).unwrap() };
                if i % 1024 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..count {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.recv(), Err(Disconnected));
        h.join().unwrap();
    }

    #[test]
    fn spsc_drops_undelivered_payloads_and_recycled_nodes() {
        let payload = Arc::new(5u64);
        let (tx, rx) = spsc_channel();
        // Exercise the freelist before leaving values in flight, so Drop
        // must free both chains.
        unsafe { tx.send(Arc::clone(&payload)).unwrap() };
        rx.recv().unwrap();
        unsafe { tx.send(Arc::clone(&payload)).unwrap() };
        unsafe { tx.send(Arc::clone(&payload)).unwrap() };
        assert_eq!(Arc::strong_count(&payload), 3);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
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
            self.recv_counted(counts)
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
    fn spsc_channels_share_a_length_cell() {
        let cell = Arc::new(AtomicUsize::new(0));
        let (tx_a, rx_a) = spsc_channel_with(Arc::clone(&cell));
        let (tx_b, rx_b) = spsc_channel_with(Arc::clone(&cell));
        unsafe {
            tx_a.send(1u64).unwrap();
            tx_b.send(2u64).unwrap();
        }
        assert_eq!(cell.load(Ordering::Acquire), 2);
        rx_a.recv().unwrap();
        assert_eq!(cell.load(Ordering::Acquire), 1);
        rx_b.recv().unwrap();
        assert_eq!(cell.load(Ordering::Acquire), 0);
    }

    #[test]
    fn publish_then_wake_delivers_to_parked_consumer() {
        // The batched fan-out path: publish (no wake), fence, wake. The
        // parked consumer must observe the message promptly through the
        // explicit wake, not just the fallback timeout.
        let (tx, rx) = spsc_channel();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        unsafe { tx.send_publish(9u64).unwrap() };
        publish_fence();
        tx.wake();
        assert_eq!(h.join().unwrap(), 9);
    }
}
