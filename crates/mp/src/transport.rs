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
//! Both queues park their single consumer with the same flag
//! protocol, so a blocking receive never takes the sleep lock while
//! messages are available and a producer never takes it unless a
//! consumer is (or is about to be) parked:
//!
//! * **Consumer** (inside `RealQueue::recv` / `SpscQueue::recv`):
//!   lock `sleep` → set `parked` → `fence(SeqCst)` → *final empty
//!   check* → wait on the condvar (releasing `sleep`).
//! * **Producer** (push): publish the message → `fence(SeqCst)` → read
//!   `parked` → if set, acquire `sleep` and `notify_one`.
//!
//! The two `SeqCst` fences order the flag against the queue contents:
//! either the producer's publish happens-before the consumer's final
//! empty check (the consumer sees the message and never waits), or the
//! consumer's `parked` store happens-before the producer's flag read
//! (the producer sees the flag and notifies). Acquiring `sleep` before
//! notifying closes the remaining window — the consumer holds `sleep`
//! from before its `parked` store until the `wait` call atomically
//! releases it, so a producer that saw the flag cannot notify *between*
//! the final check and the wait.
//!
//! The **disconnect path** (last sender handle dropping) wakes the
//! consumer the same way but *unconditionally*: it decrements `senders`
//! with `AcqRel`, then acquires `sleep` and notifies without consulting
//! `parked`. Consulting the flag would be an optimization only; taking
//! the lock unconditionally keeps the teardown path trivially correct —
//! the consumer's `senders == 0` re-check runs under the same lock, so
//! the wakeup cannot be lost no matter where the consumer is between
//! parking and waiting. Both wake paths use `notify_one`: the queues are
//! strictly single-consumer, so at most one thread ever waits on the
//! condvar and `notify_all` was pure overhead.

use std::cell::UnsafeCell;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

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
/// The `sleep`/`wake` pair is used *only* to park the consumer on an
/// empty queue — producers touch the mutex only when they observe a
/// parked consumer (see the module-level protocol description), so the
/// message hot path never contends on a lock.
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
    /// Live `RealSender` handles; 0 means disconnected.
    senders: AtomicUsize,
    /// Cleared when the receiver drops, so sends can fail fast.
    receiver_alive: AtomicBool,
    /// Set (under `sleep`) while the consumer is parked.
    parked: AtomicBool,
    sleep: Mutex<()>,
    wake: Condvar,
}

// SAFETY: the queue hands each `T` from exactly one producer to the
// single consumer; all shared pointers are managed through atomics, and
// `tail` is only touched by the consumer (or by `Drop`, which has
// exclusive access).
unsafe impl<T: Send> Send for RealQueue<T> {}
unsafe impl<T: Send> Sync for RealQueue<T> {}

impl<T> RealQueue<T> {
    fn new() -> Self {
        RealQueue {
            head: AtomicPtr::new(Node::boxed(None)),
            tail: UnsafeCell::new(ptr::null_mut()),
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receiver_alive: AtomicBool::new(true),
            parked: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
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
        // Producer half of the parked-flag protocol (module docs):
        // publish, fence, read the flag, notify under the sleep lock.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            drop(self.sleep.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_one();
        }
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

    /// Consumer side: block until a message arrives or every sender is
    /// gone.
    ///
    /// # Safety
    /// Single-consumer, as for [`RealQueue::try_pop`].
    unsafe fn recv(&self) -> Result<T, Disconnected> {
        // Fast path: no lock while messages are available.
        if let Some(v) = self.try_pop() {
            return Ok(v);
        }
        loop {
            // Consumer half of the parked-flag protocol (module docs):
            // lock, set the flag, fence, final empty check, then wait.
            let guard = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
            self.parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if let Some(v) = self.try_pop() {
                self.parked.store(false, Ordering::Relaxed);
                return Ok(v);
            }
            if self.senders.load(Ordering::SeqCst) == 0 {
                self.parked.store(false, Ordering::Relaxed);
                // The last sender's teardown happens-before the counter
                // hitting zero, so one final drain decides conclusively.
                return self.try_pop().ok_or(Disconnected);
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

    /// Initialize `tail` from `head` once, before the first pop. Called
    /// by the factory functions (the stub is created before any handle
    /// exists, so a plain load is exact).
    fn init_tail(&self) {
        let stub = self.head.load(Ordering::Relaxed);
        unsafe { *self.tail.get() = stub };
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
        self.queue.senders.fetch_add(1, Ordering::Relaxed);
        RealSender {
            queue: Arc::clone(&self.queue),
        }
    }
}

impl<T> Drop for RealSender<T> {
    fn drop(&mut self) {
        if self.queue.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: wake the receiver unconditionally (see
            // the module-level disconnect-path discussion — acquiring
            // the sleep lock is what makes the wakeup race-free).
            drop(
                self.queue
                    .sleep
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            self.queue.wake.notify_one();
        }
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
        unsafe { self.queue.recv() }
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
    queue.init_tail();
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
/// Parking/wakeup and disconnect use the same Dekker parked-flag
/// protocol as [`RealQueue`] (see the module docs).
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
    /// Live `SpscSender` handles; 0 means disconnected. (Handles may be
    /// cloned — scoped contexts need that — as long as pushes stay
    /// serialized; see [`SpscSender::send`].)
    senders: AtomicUsize,
    /// Cleared when the receiver drops, so sends can fail fast.
    receiver_alive: AtomicBool,
    /// Set (under `sleep`) while the consumer is parked.
    parked: AtomicBool,
    sleep: Mutex<()>,
    wake: Condvar,
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
            senders: AtomicUsize::new(1),
            receiver_alive: AtomicBool::new(true),
            parked: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
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
    /// [`SpscQueue::wake_if_parked`] (or use [`SpscQueue::push`]) before
    /// blocking on anything, or the consumer may sleep on a full queue
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

    /// Producer half of the parked-flag wake check (module docs). Must
    /// run after a `SeqCst` fence that follows the publish.
    fn wake_if_parked(&self) {
        if self.parked.load(Ordering::Relaxed) {
            drop(self.sleep.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_one();
        }
    }

    /// Producer side: publish + fence + wake, the full send.
    ///
    /// # Safety
    /// Single-producer, as for [`SpscQueue::publish`].
    unsafe fn push(&self, value: T) {
        self.publish(value);
        fence(Ordering::SeqCst);
        self.wake_if_parked();
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

    /// Consumer side: block until a message arrives or every sender is
    /// gone. Same protocol as [`RealQueue::recv`].
    ///
    /// # Safety
    /// Single-consumer.
    unsafe fn recv(&self) -> Result<T, Disconnected> {
        if let Some(v) = self.try_pop() {
            return Ok(v);
        }
        loop {
            let guard = self.sleep.lock().unwrap_or_else(PoisonError::into_inner);
            self.parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if let Some(v) = self.try_pop() {
                self.parked.store(false, Ordering::Relaxed);
                return Ok(v);
            }
            if self.senders.load(Ordering::SeqCst) == 0 {
                self.parked.store(false, Ordering::Relaxed);
                return self.try_pop().ok_or(Disconnected);
            }
            let (g, _) = self
                .wake
                .wait_timeout(guard, Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            drop(g);
            self.parked.store(false, Ordering::Relaxed);
        }
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
        if !self.queue.receiver_alive.load(Ordering::Acquire) {
            return Err(value);
        }
        self.queue.push(value);
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
        self.queue.wake_if_parked();
    }
}

impl<T> Clone for SpscSender<T> {
    fn clone(&self) -> Self {
        self.queue.senders.fetch_add(1, Ordering::Relaxed);
        SpscSender {
            queue: Arc::clone(&self.queue),
        }
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        if self.queue.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Unconditional-lock disconnect wake (module docs).
            drop(
                self.queue
                    .sleep
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            self.queue.wake.notify_one();
        }
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
        // SAFETY: `SpscReceiver` is not Clone, so this is the single
        // consumer.
        unsafe { self.queue.recv() }
    }

    /// Non-blocking receive: `Ok(Some(v))` on a message, `Ok(None)` on a
    /// (currently) empty queue with live senders, `Err` once the queue is
    /// drained and every sender has dropped. Lets a consumer park itself
    /// on an *external* condvar (the worker pool's shared roster) instead
    /// of this queue's private one.
    pub(crate) fn try_recv(&self) -> Result<Option<T>, Disconnected> {
        // SAFETY: `SpscReceiver` is not Clone, so this is the single
        // consumer.
        unsafe {
            if let Some(v) = self.queue.try_pop() {
                return Ok(Some(v));
            }
            if self.queue.senders.load(Ordering::SeqCst) == 0 {
                // Teardown happens-before the counter hitting zero, so
                // one final drain decides conclusively (as in `recv`).
                return self
                    .queue
                    .try_pop()
                    .map_or(Err(Disconnected), |v| Ok(Some(v)));
            }
            Ok(None)
        }
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

    /// Regression test for sleep/wake races around the last-sender drop:
    /// a consumer parking on an emptying queue must always observe the
    /// disconnect, no matter how the drop interleaves with its
    /// park/fence/check sequence. Before the protocol was documented and
    /// audited this was the path a lost wakeup would deadlock (modulo
    /// the belt-and-braces timeout).
    #[test]
    fn last_sender_drop_races_with_parking_consumer() {
        for round in 0..scaled(200) {
            let (tx, rx) = spsc_channel::<u64>();
            let msgs = round % 4; // vary how much drain precedes the park
            let consumer = std::thread::spawn(move || {
                let mut got = 0u64;
                while rx.recv().is_ok() {
                    got += 1;
                }
                got
            });
            for i in 0..msgs {
                unsafe { tx.send(i).unwrap() };
            }
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            drop(tx);
            assert_eq!(consumer.join().unwrap(), msgs);
        }
        // Same race on the MPSC queue's disconnect path.
        for round in 0..scaled(200) {
            let (tx, rx) = real_channel::<u64>();
            let msgs = round % 4;
            let consumer = std::thread::spawn(move || {
                let mut got = 0u64;
                while rx.recv().is_ok() {
                    got += 1;
                }
                got
            });
            for i in 0..msgs {
                tx.send(i).unwrap();
            }
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            drop(tx);
            assert_eq!(consumer.join().unwrap(), msgs);
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
