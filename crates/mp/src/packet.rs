//! Internal wire format of the simulated network.
//!
//! A [`Packet`] is 56 bytes. A mesh link's slot is two cache lines: the
//! packet and its `ready` flag fill the first, and a 64-byte
//! [`PayloadCell`] fills the second (`transport.rs` asserts both at
//! compile time). A drop-free payload of at most 8 bytes (an integer, a
//! float, a pair of `u32`s, `()`) rides inside the packet as an
//! [`InlineValue`], so such a message writes and reads the first line
//! only. A drop-free payload of 9 to 64 bytes (a pair of `u64`s, an
//! `[f64; 8]`) rides in the cell beside the packet
//! ([`PacketBody::Cell`]): the message moves the two lines of its slot
//! and touches no heap block. Larger or `Drop` payloads travel boxed,
//! from the sending rank's payload arena.

use std::any::{Any, TypeId};
use std::mem::{self, MaybeUninit};
use std::sync::Arc;

use crate::transport::SlotCell;

/// The type-erased contents of a [`Packet`].
///
/// Point-to-point sends carry [`PacketBody::Inline`] data when the
/// payload type fits the packet ([`InlineValue::fits`]),
/// [`PacketBody::Cell`] data when it fits the cell beside it
/// ([`PayloadCell::fits`]), and [`PacketBody::Owned`] data otherwise;
/// `PacketBody::of` makes that choice.
/// Fan-out collectives carry [`PacketBody::Shared`] data, a
/// reference-counted handle to a single allocation that every hop of the
/// collective forwards by refcount; see [`crate::Shared`].
pub enum PacketBody {
    /// Exclusively owned payload, moved to the receiver.
    Owned(Box<dyn Any + Send>),
    /// Reference-counted payload shared across a collective's fan-out.
    Shared(Arc<dyn Any + Send + Sync>),
    /// Small drop-free payload stored in the packet itself.
    Inline(InlineValue),
    /// Drop-free payload of 9 to 64 bytes, stored in the [`PayloadCell`]
    /// that travels beside the packet; the body names its type.
    Cell(CellType),
}

impl PacketBody {
    /// The body carrying `value`, and the cell beside it: inline when
    /// `T` fits the packet, in the cell when it fits there, else boxed
    /// by `boxed`. The choice is a constant per type, so it costs
    /// nothing at run time.
    pub(crate) fn of<T: Send + 'static>(
        value: T,
        boxed: impl FnOnce(T) -> Box<dyn Any + Send>,
    ) -> (PacketBody, PayloadCell) {
        match InlineValue::new(value) {
            Ok(inline) => (PacketBody::Inline(inline), PayloadCell::EMPTY),
            Err(value) => match PayloadCell::new(value) {
                Ok((ty, cell)) => (PacketBody::Cell(ty), cell),
                Err(value) => (PacketBody::Owned(boxed(value)), PayloadCell::EMPTY),
            },
        }
    }
}

/// A payload of at most 8 bytes with no drop glue, stored by value.
///
/// The value sits in one 8-byte word; `type_id` names its type exactly
/// (the full [`TypeId`], never a truncated hash), so [`InlineValue::take`]
/// refuses every other type, including one of the same size.
pub struct InlineValue {
    type_id: fn() -> TypeId,
    word: MaybeUninit<u64>,
}

impl InlineValue {
    /// Whether a `T` rides inline: no drop glue, at most 8 bytes, and an
    /// alignment the word satisfies. A constant per type, so the choice
    /// between inline and boxed costs nothing at run time.
    pub const fn fits<T>() -> bool {
        !mem::needs_drop::<T>() && mem::size_of::<T>() <= 8 && mem::align_of::<T>() <= 8
    }

    /// Store `value` inline, or hand it back when `T` does not fit.
    pub fn new<T: Send + 'static>(value: T) -> Result<Self, T> {
        if !const { Self::fits::<T>() } {
            return Err(value);
        }
        let mut word = MaybeUninit::<u64>::uninit();
        // SAFETY: `T` fits, so it is at most 8 bytes at an alignment of at
        // most 8: the word's start is a valid, aligned place for one `T`.
        unsafe { word.as_mut_ptr().cast::<T>().write(value) };
        Ok(InlineValue {
            type_id: TypeId::of::<T>,
            word,
        })
    }

    /// Move the value out if it is a `T`; otherwise hand `self` back.
    pub fn take<T: 'static>(self) -> Result<T, Self> {
        if (self.type_id)() != TypeId::of::<T>() {
            return Err(self);
        }
        // SAFETY: the type ids are equal, so `new::<T>` wrote a `T` at
        // the word's start, and `self` is consumed, so it is read once.
        // `T` has no drop glue, which is why an `InlineValue` dropped
        // without `take` leaks nothing.
        Ok(unsafe { self.word.as_ptr().cast::<T>().read() })
    }
}

impl std::fmt::Debug for InlineValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InlineValue(..)")
    }
}

/// The type of the value in the [`PayloadCell`] beside a
/// [`PacketBody::Cell`] packet: the full [`TypeId`], as for
/// [`InlineValue`], so [`PayloadCell::take`] refuses every other type.
pub struct CellType(fn() -> TypeId);

impl std::fmt::Debug for CellType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CellType(..)")
    }
}

/// A mesh link slot's second cache line: the bytes of a
/// [`PacketBody::Cell`] payload, which travel beside their packet — in
/// the slot, and with it through the receiver's pending stash. Beside
/// any other packet the cell is [`PayloadCell::EMPTY`], and neither end
/// of the link reads or writes it.
#[derive(Clone, Copy)]
pub struct PayloadCell(MaybeUninit<[u64; 8]>);

impl PayloadCell {
    /// The cell beside a packet whose body is not [`PacketBody::Cell`].
    pub const EMPTY: PayloadCell = PayloadCell(MaybeUninit::uninit());

    /// Whether a `T` fits the cell: no drop glue, at most 64 bytes, and
    /// an alignment the cell satisfies. A type that also fits
    /// [`InlineValue`] rides in the packet instead.
    pub const fn fits<T>() -> bool {
        !mem::needs_drop::<T>() && mem::size_of::<T>() <= 64 && mem::align_of::<T>() <= 8
    }

    /// Store `value` in a cell, with the type that names it, or hand it
    /// back when `T` does not fit.
    pub fn new<T: Send + 'static>(value: T) -> Result<(CellType, PayloadCell), T> {
        if !const { Self::fits::<T>() } {
            return Err(value);
        }
        let mut cell = PayloadCell::EMPTY;
        // SAFETY: `T` fits, so it is at most 64 bytes at an alignment of
        // at most 8: the cell's start is a valid, aligned place for a `T`.
        unsafe { cell.0.as_mut_ptr().cast::<T>().write(value) };
        Ok((CellType(TypeId::of::<T>), cell))
    }

    /// Move the value out if `ty` names a `T`; otherwise hand `ty` back.
    ///
    /// # Safety
    /// `self` must be (a copy of) the cell that [`PayloadCell::new`]
    /// returned with `ty`, and `ty`'s value must be taken at most once.
    /// The transport and the mailbox keep each cell beside its packet,
    /// which is how a receive holds both.
    pub unsafe fn take<T: 'static>(self, ty: CellType) -> Result<T, CellType> {
        if (ty.0)() != TypeId::of::<T>() {
            return Err(ty);
        }
        // SAFETY: the type ids are equal, so `new::<T>` wrote a `T` at the
        // cell's start (the caller's contract), read here once. `T` has no
        // drop glue, so a cell that is never taken leaks nothing.
        Ok(unsafe { self.0.as_ptr().cast::<T>().read() })
    }
}

/// A mesh link writes and reads a slot's cell only for a packet whose
/// payload rides there.
impl SlotCell<Packet> for PayloadCell {
    const EMPTY: Self = PayloadCell::EMPTY;

    fn filled(packet: &Packet) -> bool {
        matches!(packet.body, PacketBody::Cell(_))
    }
}

/// A message in flight. The payload is type-erased; [`crate::Ctx::recv`]
/// (or [`crate::Ctx::recv_shared`]) takes it back as the concrete type
/// the receiver expects — a type mismatch between matched send/recv pairs
/// is a program bug and panics with a diagnostic. The sender is not
/// stored: every link has one sending rank, and the mailbox knows which.
pub struct Packet {
    /// Scope id of the sending context ([`crate::Ctx::scoped`]): `0` for
    /// the world, a member-list-derived hash inside a scoped section.
    /// Matching requires scope equality, so traffic from sibling scopes —
    /// even with colliding tags — can never satisfy each other's receives.
    pub scope: u64,
    /// User- or collective-assigned tag used for matching.
    pub tag: u64,
    /// Payload size in bytes, as reported by [`crate::Payload::size_bytes`].
    pub bytes: usize,
    /// Virtual time at which the message is fully available at the receiver.
    pub arrival_time: f64,
    /// The type-erased payload.
    pub body: PacketBody,
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("scope", &self.scope)
            .field("tag", &self.tag)
            .field("bytes", &self.bytes)
            .field("arrival_time", &self.arrival_time)
            .field(
                "body",
                &match self.body {
                    PacketBody::Owned(_) => "Owned(..)",
                    PacketBody::Shared(_) => "Shared(..)",
                    PacketBody::Inline(_) => "Inline(..)",
                    PacketBody::Cell(_) => "Cell(..)",
                },
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(body: PacketBody) -> Packet {
        Packet {
            scope: 0,
            tag: 7,
            bytes: 24,
            arrival_time: 1.5,
            body,
        }
    }

    /// `value` through an inline packet body and back as a `T`.
    fn inline_roundtrip<T: Send + 'static>(value: T) -> T {
        let p = packet(PacketBody::Inline(
            InlineValue::new(value).ok().expect("fits inline"),
        ));
        let PacketBody::Inline(v) = p.body else {
            panic!("expected inline body");
        };
        v.take::<T>().expect("type should match")
    }

    #[test]
    fn packet_roundtrips_owned_payload_through_any() {
        let p = packet(PacketBody::Owned(Box::new(vec![1i64, 2, 3])));
        let PacketBody::Owned(b) = p.body else {
            panic!("expected owned body");
        };
        let v = b.downcast::<Vec<i64>>().expect("type should match");
        assert_eq!(*v, vec![1, 2, 3]);
    }

    #[test]
    fn packet_roundtrips_shared_payload_through_any() {
        let arc: Arc<dyn std::any::Any + Send + Sync> = Arc::new(vec![9u32, 8]);
        let PacketBody::Shared(a) = packet(PacketBody::Shared(arc)).body else {
            panic!("expected shared body");
        };
        let v = a.downcast::<Vec<u32>>().expect("type should match");
        assert_eq!(*v, vec![9, 8]);
    }

    #[test]
    fn inline_values_roundtrip_bit_exactly() {
        assert_eq!(inline_roundtrip(0xA5u8), 0xA5);
        assert!(inline_roundtrip(true));
        assert_eq!(inline_roundtrip('€'), '€');
        assert_eq!(inline_roundtrip(u64::MAX - 1), u64::MAX - 1);
        let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        assert_eq!(inline_roundtrip(nan).to_bits(), nan.to_bits());
        assert_eq!(inline_roundtrip(-0.0f64).to_bits(), (-0.0f64).to_bits());
        assert_eq!(inline_roundtrip((7u32, u32::MAX)), (7, u32::MAX));
        assert_eq!(inline_roundtrip(*b"8 bytes!"), *b"8 bytes!");
        inline_roundtrip(());
    }

    #[test]
    fn inline_take_refuses_a_same_size_type() {
        fn refused<T: Send + 'static, U: 'static>(value: T) -> bool {
            let v = InlineValue::new(value).ok().expect("fits inline");
            v.take::<U>().is_err()
        }
        assert!(refused::<u64, i64>(1));
        assert!(refused::<f64, u64>(1.0));
        assert!(refused::<u64, f64>(1));
        assert!(refused::<[u8; 8], u64>([0; 8]));
        assert!(refused::<u64, [u8; 8]>(0));
        // A refused take hands the value back intact.
        let v = InlineValue::new(42u64).expect("fits inline");
        let v = v.take::<i64>().expect_err("i64 is not u64");
        assert_eq!(v.take::<u64>().expect("u64"), 42);
    }

    #[test]
    fn large_or_drop_payloads_do_not_fit_inline() {
        assert!(InlineValue::fits::<u64>() && InlineValue::fits::<()>());
        assert_eq!(InlineValue::new([1u8; 9]).err(), Some([1u8; 9]));
        assert_eq!(InlineValue::new((1u64, 2u64)).err(), Some((1, 2)));
        assert_eq!(InlineValue::new(vec![3u8]).err(), Some(vec![3u8]));
        assert_eq!(
            InlineValue::new(String::from("x")).err().as_deref(),
            Some("x")
        );
        // Eight bytes, but with a destructor.
        assert_eq!(InlineValue::new(Box::new(5u64)).err(), Some(Box::new(5)));
        // Zero bytes, but aligned beyond the word.
        #[repr(align(16))]
        struct Wide;
        assert!(!InlineValue::fits::<Wide>());
    }

    /// Which body [`PacketBody::of`] gives a `T`.
    fn kind_of<T: Send + 'static>(value: T) -> &'static str {
        match PacketBody::of(value, |v| Box::new(v)).0 {
            PacketBody::Inline(_) => "inline",
            PacketBody::Cell(_) => "cell",
            PacketBody::Owned(_) => "owned",
            PacketBody::Shared(_) => "shared",
        }
    }

    #[test]
    fn only_drop_free_payloads_of_9_to_64_bytes_use_the_cell() {
        assert_eq!(kind_of(7u64), "inline");
        assert_eq!(kind_of([1u8; 8]), "inline");
        assert_eq!(kind_of(()), "inline");
        assert_eq!(kind_of([1u8; 9]), "cell");
        assert_eq!(kind_of((2u64, 3u64)), "cell");
        assert_eq!(kind_of([0.5f64; 5]), "cell");
        assert_eq!(kind_of([4u64; 8]), "cell");
        assert_eq!(kind_of([1u8; 64]), "cell");
        assert_eq!(kind_of([1u8; 65]), "owned");
        assert_eq!(kind_of(vec![3u8]), "owned");
        assert_eq!(kind_of(String::from("x")), "owned");
        assert_eq!(kind_of(Box::new(5u64)), "owned");
        // Sixteen bytes, but aligned beyond the cell.
        #[derive(Clone, Copy)]
        #[repr(align(16))]
        struct Wide(#[allow(dead_code)] u64);
        assert!(!PayloadCell::fits::<Wide>());
        assert_eq!(kind_of(Wide(1)), "owned");
    }

    /// `value` through a cell packet body and back as a `T`.
    fn cell_roundtrip<T: Send + 'static>(value: T) -> T {
        let (body, cell) = PacketBody::of(value, |_| unreachable!("fits the cell"));
        let PacketBody::Cell(ty) = packet(body).body else {
            panic!("expected cell body");
        };
        // SAFETY: `cell` is the one `of` returned beside `ty`.
        unsafe { cell.take::<T>(ty) }.expect("type should match")
    }

    #[test]
    fn cell_values_roundtrip_bit_exactly() {
        let bytes = |n: u8| -> [u8; 64] { std::array::from_fn(|i| (i as u8).wrapping_mul(n)) };
        assert_eq!(cell_roundtrip(*b"nine byte"), *b"nine byte");
        assert_eq!(cell_roundtrip((u64::MAX, 7u64)), (u64::MAX, 7));
        let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let floats = cell_roundtrip([nan, -0.0, 1.5, f64::MIN_POSITIVE]);
        assert_eq!(
            floats.map(f64::to_bits),
            [nan, -0.0, 1.5, f64::MIN_POSITIVE].map(f64::to_bits)
        );
        assert_eq!(cell_roundtrip([9u8; 33]), [9; 33]);
        assert_eq!(cell_roundtrip([u64::MAX - 3; 5]), [u64::MAX - 3; 5]);
        assert_eq!(cell_roundtrip(bytes(3)), bytes(3));
        // A type with padding: its padding bytes are never read as data.
        assert_eq!(cell_roundtrip((1u8, 2u64, 3u16)), (1, 2, 3));
    }

    #[test]
    fn cell_take_refuses_a_same_size_type() {
        fn refused<T: Send + 'static, U: 'static>(value: T) -> bool {
            let (ty, cell) = PayloadCell::new(value).ok().expect("fits the cell");
            // SAFETY: `cell` is the one `new` returned beside `ty`.
            unsafe { cell.take::<U>(ty) }.is_err()
        }
        assert!(refused::<(u64, u64), [u64; 2]>((1, 2)));
        assert!(refused::<[u64; 2], (u64, u64)>([1, 2]));
        assert!(refused::<[u8; 16], [u64; 2]>([0; 16]));
        assert!(refused::<[f64; 8], [u64; 8]>([0.0; 8]));
        // A refused take hands the type back, and the cell still holds
        // the value.
        let (ty, cell) = PayloadCell::new([6u32; 3]).expect("fits the cell");
        // SAFETY (both takes): `cell` is the one `new` returned beside
        // `ty`, and only the second take moves the value out.
        let ty = unsafe { cell.take::<[i32; 3]>(ty) }.expect_err("not a [u32; 3]");
        assert_eq!(
            unsafe { cell.take::<[u32; 3]>(ty) }.expect("[u32; 3]"),
            [6; 3]
        );
    }

    #[test]
    fn debug_format_mentions_tag_and_body_kind() {
        let p = packet(PacketBody::Inline(
            InlineValue::new(()).expect("fits inline"),
        ));
        let s = format!("{p:?}");
        assert!(s.contains("tag: 7") && s.contains("Inline(..)"), "{s}");
    }
}
