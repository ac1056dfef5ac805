//! Internal wire format of the simulated network.
//!
//! A [`Packet`] is 56 bytes, so a transport slot (the packet and its
//! `ready` flag) is exactly one 64-byte cache line; `transport.rs`
//! asserts that at compile time. A drop-free payload of at most 8 bytes
//! (an integer, a float, a pair of `u32`s, `()`) rides inside the packet
//! as an [`InlineValue`], so such a message moves one cache line between
//! the cores and touches no heap block. Larger or `Drop` payloads travel
//! boxed, from the sending rank's payload arena.

use std::any::{Any, TypeId};
use std::mem::{self, MaybeUninit};
use std::sync::Arc;

/// The type-erased contents of a [`Packet`].
///
/// Point-to-point sends carry [`PacketBody::Inline`] data when the
/// payload type fits ([`InlineValue::fits`]) and [`PacketBody::Owned`]
/// data otherwise — either way the receiver takes it without copying.
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

    #[test]
    fn debug_format_mentions_tag_and_body_kind() {
        let p = packet(PacketBody::Inline(
            InlineValue::new(()).expect("fits inline"),
        ));
        let s = format!("{p:?}");
        assert!(s.contains("tag: 7") && s.contains("Inline(..)"), "{s}");
    }
}
