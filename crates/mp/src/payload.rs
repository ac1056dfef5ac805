//! Message payload typing, size accounting, and shared (zero-copy)
//! payload handles.
//!
//! The virtual-time model charges per byte transferred, so every message
//! payload must report its size on the wire. [`Payload`] is the trait the
//! communicator requires; [`FixedSize`] is a marker for plain-old-data types
//! whose wire size equals `size_of::<T>()`, with blanket [`Payload`]
//! implementations for `T`, `Vec<T>` and `Box<[T]>`.
//!
//! [`Shared`] is an `Arc`-backed payload handle used by the fan-out
//! collectives: forwarding a `Shared` along a broadcast tree or an
//! all-gather ring clones a reference count, not the data, so the wire
//! *cost* of every hop is still charged by the virtual-time model while
//! the host copies nothing in transit. The owned collectives
//! (`broadcast`, `all_gather`) then materialize by one rule
//! (`Shared::materialize`): each receiver copies the value once, on its
//! own thread, and the rank that supplied a value of 128 KiB or more
//! takes its own allocation back uncopied once the receivers have
//! released their handles — the rendezvous protocol of large-message
//! MPI, bounded so it cannot hang.
//!
//! Application crates implement [`FixedSize`] for their own POD structs with
//! the [`impl_fixed_size!`](crate::impl_fixed_size) macro.

use std::alloc::{dealloc, Layout};
use std::ptr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::transport::POLLS_PER_YIELD;

/// Marker for plain-old-data message elements: `Copy` types with no heap
/// indirection, whose transmitted size is exactly `size_of::<Self>()`.
///
/// # Safety-adjacent contract
/// This is not `unsafe`, but implementations must be honest about size:
/// the cost model (not memory safety) depends on it.
pub trait FixedSize: Copy + Send + 'static {}

/// Implements [`FixedSize`] for one or more POD types.
///
/// ```
/// use archetype_mp::impl_fixed_size;
///
/// #[derive(Clone, Copy)]
/// struct Building { left: f64, height: f64, right: f64 }
/// impl_fixed_size!(Building);
/// ```
#[macro_export]
macro_rules! impl_fixed_size {
    ($($t:ty),* $(,)?) => {
        $(impl $crate::payload::FixedSize for $t {})*
    };
}

impl_fixed_size!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<T: FixedSize, const N: usize> FixedSize for [T; N] {}
impl<A: FixedSize, B: FixedSize> FixedSize for (A, B) {}
impl<A: FixedSize, B: FixedSize, C: FixedSize> FixedSize for (A, B, C) {}
impl<A: FixedSize, B: FixedSize, C: FixedSize, D: FixedSize> FixedSize for (A, B, C, D) {}

/// A value that can travel in a message: sendable across threads and able to
/// report its wire size in bytes for the cost model.
pub trait Payload: Send + 'static {
    /// Number of bytes this value occupies on the (simulated) wire.
    fn size_bytes(&self) -> usize;
}

impl<T: FixedSize> Payload for T {
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }
}

impl<T: FixedSize> Payload for Vec<T> {
    fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<T: FixedSize> Payload for Box<[T]> {
    fn size_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl Payload for String {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

/// Nested vectors (e.g. one block per destination) transmit the sum of
/// their parts; the per-message latency is charged once by the send itself.
impl<T: FixedSize> Payload for Vec<Vec<T>> {
    fn size_bytes(&self) -> usize {
        self.iter()
            .map(|v| v.len() * std::mem::size_of::<T>())
            .sum()
    }
}

/// A reference-counted payload handle.
///
/// `Shared<T>` wraps its value in an [`Arc`] so a message can be fanned
/// out to many destinations — or forwarded hop by hop through a
/// collective — without deep-copying the value. Cloning a `Shared` is a
/// refcount increment. Reading through [`Shared::get`] copies nothing;
/// an owned `broadcast` or `all_gather` copies the value once per rank
/// that receives it and, for a value of 128 KiB or more, never on the
/// rank that supplied it.
///
/// The virtual-time cost model is unaffected: every send of a `Shared`
/// still charges the full wire size of the payload, exactly as the
/// simulated network would. Only *host* copy work is elided.
///
/// ```
/// use archetype_mp::{run_spmd, MachineModel, Shared};
///
/// // A large buffer broadcast as a handle: no per-hop deep copies.
/// let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
///     let v = (ctx.rank() == 0).then(|| Shared::new(vec![9u8; 1 << 16]));
///     let shared = ctx.broadcast_shared(0, v);
///     shared.get().len()
/// });
/// assert!(out.results.iter().all(|&n| n == 1 << 16));
/// ```
#[derive(Debug)]
pub struct Shared<T: ?Sized>(Arc<T>);

impl<T> Shared<T> {
    /// Wrap `value` without copying it.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(value))
    }

    /// Borrow the wrapped value.
    pub fn get(&self) -> &T {
        &self.0
    }

    /// The substrate's one materialization rule for a handle a
    /// collective forwarded: every deep copy is made once, by the rank
    /// that keeps it.
    ///
    /// A rank that received the handle (`lent == false`) copies the value
    /// on its own thread — so the copy is allocated, and later freed, on
    /// the rank that uses it — and releases the handle. The rank that
    /// supplied the value (`lent == true`) takes its own allocation back
    /// uncopied once every other handle is released: it polls the count,
    /// yielding between bursts as a blocking receive does. The wait is
    /// bounded: it ends in a plain copy as soon as `peers_alive` reports
    /// a dead rank, or once [`RENDEZVOUS_PATIENCE`] passes with the
    /// handle count unchanged — a holder that never materializes (a
    /// program that only enters the collective after hearing from the
    /// owner) costs one copy, never a hang. A value smaller than
    /// [`RENDEZVOUS_MIN_BYTES`] is cheaper to copy than to wait for: on
    /// every rank it is moved out by the last holder and copied by the
    /// others, with no waiting (the eager protocol).
    pub(crate) fn materialize(self, lent: bool, peers_alive: impl Fn() -> bool) -> T
    where
        T: Payload + Clone,
    {
        if self.0.size_bytes() < RENDEZVOUS_MIN_BYTES {
            return Arc::try_unwrap(self.0).unwrap_or_else(|arc| T::clone(&arc));
        }
        if !lent {
            return T::clone(&self.0);
        }
        let mut arc = self.0;
        let mut holders = Arc::strong_count(&arc);
        let mut since = Instant::now();
        loop {
            for _ in 0..POLLS_PER_YIELD {
                if Arc::strong_count(&arc) == 1 {
                    match Arc::try_unwrap(arc) {
                        Ok(value) => return value,
                        Err(still_shared) => arc = still_shared,
                    }
                }
                std::hint::spin_loop();
            }
            let now_holding = Arc::strong_count(&arc);
            if now_holding != holders {
                holders = now_holding;
                since = Instant::now();
            } else if since.elapsed() >= RENDEZVOUS_PATIENCE || !peers_alive() {
                return T::clone(&arc);
            }
            std::thread::yield_now();
        }
    }

    pub(crate) fn from_arc(arc: Arc<T>) -> Self {
        Shared(arc)
    }

    pub(crate) fn as_arc(&self) -> &Arc<T> {
        &self.0
    }
}

impl<T: ?Sized> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: ?Sized> std::ops::Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        *self.0 == *other.0
    }
}

impl<T: Payload + Sync> Payload for Shared<T> {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
}

/// How long [`Shared::materialize`]'s owner waits with the handle count
/// unchanged before it copies instead. A receiver that has the message
/// copies and releases within one copy time (under a millisecond for
/// the benchmark's 4 MiB broadcast on the 2-core reference host), so
/// only a holder that has not entered the collective reaches the bound;
/// 20 ms is also what the copy-count tests need to hold under
/// `--test-threads 32`, ranks far outnumbering cores. The wait restarts
/// when the count changes, at most twice per receiver, so an owner
/// waits at most 2n − 1 periods over n ranks.
pub(crate) const RENDEZVOUS_PATIENCE: Duration = Duration::from_millis(20);

/// Smallest value whose lender waits for its buffer back rather than
/// copying (see [`Shared::materialize`]). glibc serves a request of
/// 128 KiB or more from `mmap` or the top of the heap, so an eager copy
/// of that size comes back as page faults and trims: with every value
/// waited for, `mp_bulk` (256 KiB to 4 MiB) ran 4.3× faster, but
/// `serve_few_large`, whose broadcasts are 8 bytes to 53 KB, lost 9 %
/// (2 of 10 pairs won): its roots waited a median 7 µs (616 B) to
/// 13 µs (53 KB) for a receiver to wake and copy. With this threshold
/// it reads 1.03× and `mp_bulk` 4.2× (10 pairs each, 2-vCPU VM).
pub(crate) const RENDEZVOUS_MIN_BYTES: usize = 128 << 10;

/// Most bytes one arena retains across all size classes; reclaims past
/// the cap free the block instead. 1 MiB per rank bounds what an idle
/// cached network pins while covering the archetypes' payload mix.
const ARENA_MAX_HELD_BYTES: usize = 1 << 20;

/// Most free blocks retained per (size, align) class.
const ARENA_MAX_BLOCKS_PER_CLASS: usize = 128;

/// Per-rank recycling arena for the substrate's per-message payload box
/// (`PacketBody::Owned(Box<dyn Any>)`). Payloads that fit in the packet
/// ([`crate::packet::InlineValue::fits`]) or in the cell beside it
/// ([`crate::packet::PayloadCell::fits`]) never reach it: what does is a
/// payload with drop glue (a `Vec`, a `String`) or one over 64 bytes.
///
/// Each rank owns one arena, threaded through [`crate::Ctx`] and parked
/// in the per-size network-recycle cache between runs.
/// `Ctx::send` allocates the payload box from the *sender's* arena;
/// `Ctx::recv` moves the value out and returns the emptied block to the
/// *receiver's* arena. Blocks therefore migrate between ranks with the
/// traffic — which is exactly right: under bidirectional steady-state
/// traffic every rank's freelist is replenished by what it receives, and
/// a one-directional stream is bounded by the receiver's retention caps.
///
/// The freelists are one short list of classes, searched in order: a
/// program boxes few distinct layouts, and comparing a handful of
/// `(size, align)` pairs is cheaper than hashing one.
///
/// # Ownership and soundness rules
/// * Freelists are keyed by the **exact** `(size, align)` pair of the
///   allocation, so a recycled block is only ever reused for a type with
///   the identical [`Layout`] — `Box::from_raw` on such a block is sound
///   because the global allocator only cares that pointer and layout
///   match the original allocation.
/// * Zero-sized types bypass the arena entirely (`Box::new` on a ZST
///   does not allocate).
/// * A block enters the freelist only *after* its value has been moved
///   out (`ptr::read`), so the arena never owns live values — dropping
///   the arena deallocates raw memory, never runs payload destructors.
/// * The arena is deliberately **not** `Sync`: it is owned by one rank
///   at a time and handed between threads (run → cache → next run) by
///   value, so no operation ever synchronizes.
pub(crate) struct PayloadArena {
    /// Free blocks, one list per exact layout retained so far.
    classes: Vec<FreeList>,
    /// Total bytes across all retained blocks.
    held_bytes: usize,
}

/// The free blocks of one layout.
struct FreeList {
    layout: Layout,
    blocks: Vec<*mut u8>,
}

// SAFETY: the raw pointers are uniquely-owned free blocks (no aliasing,
// no live values); moving them to another thread is moving ownership of
// plain memory.
unsafe impl Send for PayloadArena {}

impl PayloadArena {
    /// An empty arena (no blocks retained).
    pub(crate) fn new() -> Self {
        PayloadArena {
            classes: Vec::new(),
            held_bytes: 0,
        }
    }

    /// Box `value`, reusing a recycled block of the identical layout
    /// when one is available.
    pub(crate) fn alloc_box<T: Send + 'static>(&mut self, value: T) -> Box<T> {
        let layout = Layout::new::<T>();
        if layout.size() == 0 {
            return Box::new(value);
        }
        let class = self.classes.iter_mut().find(|c| c.layout == layout);
        if let Some(block) = class.and_then(|c| c.blocks.pop()) {
            self.held_bytes -= layout.size();
            let p = block as *mut T;
            // SAFETY: `block` was allocated by the global allocator with
            // exactly this layout (class key), is unaliased, and holds
            // no live value; writing then re-boxing transfers ownership
            // back to `Box`.
            unsafe {
                ptr::write(p, value);
                return Box::from_raw(p);
            }
        }
        Box::new(value)
    }

    /// Move the value out of `boxed` and retain its block for reuse
    /// (or free it when past the retention caps).
    pub(crate) fn reclaim<T>(&mut self, boxed: Box<T>) -> T {
        let layout = Layout::new::<T>();
        if layout.size() == 0 {
            return *boxed;
        }
        let p = Box::into_raw(boxed);
        // SAFETY: `p` came from `Box::into_raw`, so it is valid for
        // reads of `T` and we own the allocation; after this read the
        // block holds no live value.
        let value = unsafe { ptr::read(p) };
        if self.held_bytes + layout.size() <= ARENA_MAX_HELD_BYTES {
            let blocks = match self.classes.iter().position(|c| c.layout == layout) {
                Some(i) => &mut self.classes[i].blocks,
                None => {
                    self.classes.push(FreeList {
                        layout,
                        blocks: Vec::new(),
                    });
                    &mut self.classes.last_mut().expect("just pushed").blocks
                }
            };
            if blocks.len() < ARENA_MAX_BLOCKS_PER_CLASS {
                blocks.push(p.cast());
                self.held_bytes += layout.size();
                return value;
            }
        }
        // SAFETY: allocated by the global allocator with `layout`.
        unsafe { dealloc(p.cast(), layout) };
        value
    }

    /// Bytes currently retained (tests/diagnostics).
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        self.held_bytes
    }
}

impl Drop for PayloadArena {
    fn drop(&mut self) {
        for class in &self.classes {
            for &p in &class.blocks {
                // SAFETY: every retained block was allocated by the
                // global allocator with this class's layout and holds no
                // live value (see `reclaim`).
                unsafe { dealloc(p, class.layout) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes_match_size_of() {
        assert_eq!(Payload::size_bytes(&0u64), 8);
        assert_eq!(Payload::size_bytes(&0f32), 4);
        assert_eq!(Payload::size_bytes(&(1u32, 2u32)), 8);
    }

    #[test]
    fn vec_size_is_len_times_elem() {
        let v = vec![0f64; 100];
        assert_eq!(v.size_bytes(), 800);
        let empty: Vec<i32> = Vec::new();
        assert_eq!(empty.size_bytes(), 0);
    }

    #[test]
    fn nested_vec_sums_parts() {
        let v = vec![vec![0u8; 3], vec![0u8; 5]];
        assert_eq!(v.size_bytes(), 8);
    }

    #[test]
    fn custom_pod_struct_via_macro() {
        #[derive(Clone, Copy)]
        struct P {
            _x: f64,
            _y: f64,
        }
        impl_fixed_size!(P);
        let v = vec![P { _x: 0.0, _y: 0.0 }; 4];
        assert_eq!(v.size_bytes(), 4 * std::mem::size_of::<P>());
    }

    #[test]
    fn string_size_is_byte_length() {
        assert_eq!(Payload::size_bytes(&String::from("abcd")), 4);
    }

    #[test]
    fn shared_reports_inner_wire_size() {
        let s = Shared::new(vec![0u32; 16]);
        assert_eq!(s.size_bytes(), 64);
        assert_eq!(s.clone().size_bytes(), 64);
    }

    #[test]
    fn shared_materialize_moves_when_unique() {
        for len in [3, RENDEZVOUS_MIN_BYTES] {
            let v = vec![1u8; len];
            let addr = v.as_ptr();
            let back = Shared::new(v).materialize(true, || true);
            assert_eq!(back, vec![1; len]);
            assert_eq!(back.as_ptr(), addr, "the owner's own allocation");
        }
    }

    #[test]
    fn shared_materialize_copies_when_aliased() {
        let big = |b: u8| vec![b; RENDEZVOUS_MIN_BYTES];
        // A receiver copies even while the owner still holds its handle.
        let a = Shared::new(big(7));
        let copy = a.clone().materialize(false, || true);
        assert_eq!(copy, big(7));
        assert_ne!(copy.as_ptr(), a.get().as_ptr());
        // The owner waits for a release happening on another thread…
        let addr = a.get().as_ptr();
        let b = a.clone();
        let back = std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                drop(b);
            });
            a.materialize(true, || true)
        });
        assert_eq!(back.as_ptr(), addr);
        // …copies at once when a peer is dead…
        let a = Shared::new(big(5));
        let dead_holder = a.clone();
        let started = Instant::now();
        assert_eq!(a.materialize(true, || false), big(5));
        assert!(started.elapsed() < RENDEZVOUS_PATIENCE);
        assert_eq!(*dead_holder.get(), big(5));
        // …and copies after the patience when a holder never releases.
        let a = Shared::new(big(3));
        let late_holder = a.clone();
        let started = Instant::now();
        assert_eq!(a.materialize(true, || true), big(3));
        assert!(started.elapsed() >= RENDEZVOUS_PATIENCE);
        assert_eq!(*late_holder.get(), big(3));
        // A value under the threshold is copied at once, without waiting.
        let small = vec![9u8; RENDEZVOUS_MIN_BYTES - 1];
        let a = Shared::new(small.clone());
        let holder = a.clone();
        let started = Instant::now();
        let copy = a.materialize(true, || true);
        assert!(started.elapsed() < RENDEZVOUS_PATIENCE);
        assert_eq!(copy, small);
        assert_ne!(copy.as_ptr(), holder.get().as_ptr());
    }

    #[test]
    fn arena_reuses_blocks_of_identical_layout() {
        let mut arena = PayloadArena::new();
        let b = arena.alloc_box(41u64);
        let addr = &*b as *const u64 as usize;
        assert_eq!(arena.reclaim(b), 41);
        assert_eq!(arena.held_bytes(), 8);
        // Same layout → the recycled block comes straight back.
        let b2 = arena.alloc_box(42u64);
        assert_eq!(&*b2 as *const u64 as usize, addr);
        assert_eq!(*b2, 42);
        assert_eq!(arena.held_bytes(), 0);
        // A different layout must NOT reuse it.
        assert_eq!(arena.reclaim(b2), 42);
        let b3 = arena.alloc_box([0u8; 3]);
        assert_ne!(&*b3 as *const [u8; 3] as usize, addr);
    }

    #[test]
    fn arena_moves_values_intact_and_runs_no_destructors() {
        let probe = Arc::new(0u8);
        let mut arena = PayloadArena::new();
        let boxed = arena.alloc_box(vec![Arc::clone(&probe); 3]);
        let back = arena.reclaim(boxed);
        assert_eq!(back.len(), 3);
        assert_eq!(Arc::strong_count(&probe), 4, "no clone was dropped");
        drop(back);
        drop(arena); // frees raw blocks only; the probe is untouched
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn arena_bypasses_zero_sized_types() {
        let mut arena = PayloadArena::new();
        let b = arena.alloc_box(());
        arena.reclaim(b);
        assert_eq!(arena.held_bytes(), 0);
    }

    #[test]
    fn arena_retention_is_capped() {
        let mut arena = PayloadArena::new();
        // Per-class block cap.
        let boxes: Vec<_> = (0..2 * ARENA_MAX_BLOCKS_PER_CLASS)
            .map(|i| arena.alloc_box(i as u64))
            .collect();
        for b in boxes {
            arena.reclaim(b);
        }
        assert_eq!(arena.held_bytes(), 8 * ARENA_MAX_BLOCKS_PER_CLASS);
        // Global byte cap: big blocks stop being retained past 1 MiB.
        let big: Vec<_> = (0..20).map(|_| arena.alloc_box([0u64; 1 << 14])).collect();
        for b in big {
            arena.reclaim(b);
        }
        assert!(arena.held_bytes() <= ARENA_MAX_HELD_BYTES);
    }
}
