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
//! the host does O(1) deep copies per rank instead of O(log n) or O(n).
//!
//! Application crates implement [`FixedSize`] for their own POD structs with
//! the [`impl_fixed_size!`](crate::impl_fixed_size) macro.

use std::alloc::{dealloc, Layout};
use std::collections::HashMap;
use std::ptr;
use std::sync::Arc;

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
/// refcount increment; the underlying `T` is deep-copied at most once per
/// rank, and only when [`Shared::into_inner`] finds other live handles.
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

    /// Recover an owned `T`: moves out when this is the last handle,
    /// otherwise performs the (single) deep copy.
    pub fn into_inner(self) -> T
    where
        T: Clone,
    {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
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

/// Most bytes one arena retains across all size classes; reclaims past
/// the cap free the block instead. 1 MiB per rank bounds what an idle
/// cached network pins while covering the archetypes' payload mix.
const ARENA_MAX_HELD_BYTES: usize = 1 << 20;

/// Most free blocks retained per (size, align) class.
const ARENA_MAX_BLOCKS_PER_CLASS: usize = 128;

/// Per-rank recycling arena for the substrate's per-message payload box
/// (`PacketBody::Owned(Box<dyn Any>)`).
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
    /// Free blocks, keyed by exact (size, align).
    classes: HashMap<(usize, usize), Vec<*mut u8>>,
    /// Total bytes across all retained blocks.
    held_bytes: usize,
}

// SAFETY: the raw pointers are uniquely-owned free blocks (no aliasing,
// no live values); moving them to another thread is moving ownership of
// plain memory.
unsafe impl Send for PayloadArena {}

impl PayloadArena {
    /// An empty arena (no blocks retained).
    pub(crate) fn new() -> Self {
        PayloadArena {
            classes: HashMap::new(),
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
        if let Some(block) = self
            .classes
            .get_mut(&(layout.size(), layout.align()))
            .and_then(Vec::pop)
        {
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
        let class = self
            .classes
            .entry((layout.size(), layout.align()))
            .or_default();
        if class.len() >= ARENA_MAX_BLOCKS_PER_CLASS
            || self.held_bytes + layout.size() > ARENA_MAX_HELD_BYTES
        {
            // SAFETY: allocated by the global allocator with `layout`.
            unsafe { dealloc(p.cast(), layout) };
        } else {
            self.held_bytes += layout.size();
            class.push(p.cast());
        }
        value
    }

    /// Bytes currently retained (tests/diagnostics).
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        self.held_bytes
    }
}

impl Drop for PayloadArena {
    fn drop(&mut self) {
        for (&(size, align), blocks) in &self.classes {
            let layout =
                Layout::from_size_align(size, align).expect("class keys come from valid layouts");
            for &p in blocks {
                // SAFETY: every retained block was allocated by the
                // global allocator with this class's layout and holds no
                // live value (see `reclaim`).
                unsafe { dealloc(p, layout) };
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
    fn shared_into_inner_moves_when_unique() {
        let s = Shared::new(vec![1i64, 2, 3]);
        assert_eq!(s.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_into_inner_copies_when_aliased() {
        let a = Shared::new(vec![7u8; 4]);
        let b = a.clone();
        assert_eq!(a.into_inner(), vec![7; 4]);
        assert_eq!(*b.get(), vec![7; 4]);
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
