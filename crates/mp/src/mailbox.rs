//! Per-rank mailboxes: one unbounded channel per (receiver, sender) pair
//! plus a tag-indexed out-of-order buffer so receives can match on tags.
//!
//! Keeping a dedicated channel per sender preserves per-sender FIFO order
//! (like MPI's non-overtaking rule) while letting a receiver block on a
//! specific sender without inspecting traffic from others. Messages pulled
//! off the channel while waiting for a different tag are buffered in a
//! per-sender `HashMap<(Scope, Tag), VecDeque>` — matching a buffered
//! (scope, tag) pair is O(1) instead of a linear scan over everything
//! pending, while per-(sender, scope, tag) FIFO order is preserved by the
//! queue within each bucket. A bucket that empties is removed, and its
//! queue's buffer is kept for the next bucket (up to `SPARE_BUCKETS`
//! of them), so steady out-of-order traffic allocates nothing while the
//! bucket count stays bounded by what is actually pending. A packet
//! whose payload rides in its link's cell ([`PacketBody::Cell`]) waits
//! in its bucket with the cell beside it. The scope key is what isolates
//! [`crate::Ctx::scoped`] sections: sibling scopes may reuse identical
//! tags without their traffic ever cross-matching.
//!
//! The channels underneath are the lock-free SPSC links of
//! [`crate::transport`].
//!
//! [`PacketBody::Cell`]: crate::packet::PacketBody::Cell
//!
//! ## Ordering contract
//!
//! Every receive in this substrate is **sender-addressed**: there is no
//! receive-from-any primitive, so the only order a program can observe is
//! per-(sender, scope, tag) FIFO.
//! **Cross-sender arrival order is unspecified**: messages from
//! different senders genuinely race. Code must
//! never infer anything from the host-level interleaving of different
//! senders' traffic — the leak check ([`Mailbox::unconsumed`]) and the
//! fault-tolerant death signal ([`SenderDisconnected`]) are only
//! meaningful at quiescence or after a sender provably terminated.

use std::collections::{HashMap, VecDeque};

use crate::fault::PeerGone;
use crate::packet::{Packet, PayloadCell};
use crate::transport::{link_channel, LinkReceiver, LinkSender, RecvCounts};

/// Most emptied bucket queues a mailbox keeps for reuse.
const SPARE_BUCKETS: usize = 8;

/// A packet waiting in the pending stash, with the cell that travelled
/// beside it (unused unless its body is a cell).
type Stashed = (Packet, PayloadCell);

/// Error returned by [`Mailbox::try_recv_matching`] when the sending
/// rank has terminated (channel empty and disconnected).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SenderDisconnected;

/// The receive side owned by one rank: `from[s]` is the channel carrying
/// messages sent by rank `s`, and `pending[s]` holds messages from `s`
/// already pulled off the channel but not yet matched, bucketed by
/// (scope, tag).
pub struct Mailbox {
    from: Vec<LinkReceiver>,
    pending: Vec<HashMap<(u64, u64), VecDeque<Stashed>>>,
    /// Emptied buckets' queues, buffers kept, for the next new bucket.
    spare: Vec<VecDeque<Stashed>>,
    /// Messages sitting in `pending` buckets, maintained incrementally so
    /// [`Mailbox::unconsumed`] never walks the n maps.
    pending_len: usize,
    /// How this rank's channel receives were satisfied since the last
    /// [`Mailbox::take_recv_counts`].
    recv_counts: RecvCounts,
}

impl Mailbox {
    /// Blocking receive of the next message from `sender` carrying `tag`
    /// inside scope `scope` (see [`crate::Ctx::scoped`]; the world is
    /// scope `0`).
    ///
    /// Messages from `sender` with other (scope, tag) pairs are buffered,
    /// preserving their order, until a matching receive is posted — so a
    /// message sent inside one scoped section can never satisfy a receive
    /// posted in a different scope, even if the raw tags collide.
    ///
    /// When the packet's body is
    /// [`PacketBody::Cell`](crate::packet::PacketBody::Cell), the cell
    /// that travelled beside it is copied to `cell`; otherwise `cell` is
    /// left as it is.
    ///
    /// # Panics
    /// Panics if the sending rank has terminated without ever sending a
    /// matching message (which in a correct SPMD program is a deadlock
    /// bug), with a payload that marks the failure as caused by `sender`.
    pub fn recv_matching(
        &mut self,
        sender: usize,
        scope: u64,
        tag: u64,
        cell: &mut PayloadCell,
    ) -> Packet {
        self.try_recv_matching(sender, scope, tag, cell)
            .unwrap_or_else(|SenderDisconnected| sender_gone(sender, scope, tag))
    }

    /// Like [`Mailbox::recv_matching`], but returns `Err` instead of
    /// panicking when `sender`'s rank has terminated (its channel endpoint
    /// dropped) without a matching message in flight. Messages the sender
    /// put on the wire *before* dying are still delivered normally — the
    /// error surfaces only once the channel is both empty and
    /// disconnected, which is the fault-tolerant protocols' death signal.
    pub fn try_recv_matching(
        &mut self,
        sender: usize,
        scope: u64,
        tag: u64,
        cell: &mut PayloadCell,
    ) -> Result<Packet, SenderDisconnected> {
        if let Some(q) = self.pending[sender].get_mut(&(scope, tag)) {
            if let Some((pkt, stashed)) = q.pop_front() {
                if q.is_empty() {
                    let q = self.pending[sender]
                        .remove(&(scope, tag))
                        .expect("the bucket just matched");
                    if self.spare.len() < SPARE_BUCKETS {
                        self.spare.push(q);
                    }
                }
                self.pending_len -= 1;
                *cell = stashed;
                return Ok(pkt);
            }
        }
        loop {
            let pkt = self.from[sender]
                .recv_counted(&mut self.recv_counts, cell)
                .map_err(|_| SenderDisconnected)?;
            if pkt.scope == scope && pkt.tag == tag {
                return Ok(pkt);
            }
            let spare = &mut self.spare;
            self.pending[sender]
                .entry((pkt.scope, pkt.tag))
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push_back((pkt, *cell));
            self.pending_len += 1;
        }
    }

    /// Number of unmatched messages addressed to this rank — buffered in
    /// `pending` or still in flight on a channel. The buffered count is
    /// kept incrementally, so this never walks the n pending maps; the
    /// in-flight part reads each channel's sent and taken counts, which
    /// the ring keeps anyway, so no message pays for this check. Exact
    /// only at quiescence, like every use of the leak check (see the
    /// ordering contract above).
    pub fn unconsumed(&self) -> usize {
        self.pending_len + self.from.iter().map(LinkReceiver::len).sum::<usize>()
    }

    /// The receive-phase counters accumulated since the last call,
    /// resetting them (a recycled mailbox starts its next run at zero).
    pub fn take_recv_counts(&mut self) -> RecvCounts {
        std::mem::take(&mut self.recv_counts)
    }
}

/// Unwind a rank whose receive from `sender` can never be satisfied,
/// with a payload that names `sender` as the cause.
#[cold]
#[inline(never)]
fn sender_gone(sender: usize, scope: u64, tag: u64) -> ! {
    PeerGone::raise(
        sender,
        format!(
            "rank terminated while a receive (from={sender}, scope={scope}, tag={tag}) was pending"
        ),
    )
}

/// Builds the full `n × n` mesh of channels and splits it into the send
/// sides (`senders[dest][src]`, the link on which `src` sends to `dest`)
/// and the per-rank receive sides.
///
/// Each link is single-producer: whoever holds `senders[dest][src]` (and
/// its clones) must serialize sends on it — see
/// [`SpscSender::send`](crate::transport::SpscSender::send)'s contract.
pub fn build_network(n: usize) -> (Vec<Vec<LinkSender>>, Vec<Mailbox>) {
    let mut senders: Vec<Vec<LinkSender>> = Vec::with_capacity(n);
    let mut mailboxes: Vec<Mailbox> = Vec::with_capacity(n);
    for _dest in 0..n {
        let mut row_tx = Vec::with_capacity(n);
        let mut row_rx = Vec::with_capacity(n);
        for _src in 0..n {
            let (tx, rx) = link_channel();
            row_tx.push(tx);
            row_rx.push(rx);
        }
        senders.push(row_tx);
        mailboxes.push(Mailbox {
            from: row_rx,
            pending: (0..n).map(|_| HashMap::new()).collect(),
            spare: Vec::new(),
            pending_len: 0,
            recv_counts: RecvCounts::default(),
        });
    }
    (senders, mailboxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{InlineValue, PacketBody};

    /// Single-threaded fixture (the threaded interleaving fuzz lives in
    /// `tests/prop_mailbox.rs`). `tx[dest][src]` sends through [`Link`].
    fn net(n: usize) -> (Vec<Vec<Link>>, Vec<Mailbox>) {
        let (tx, mb) = build_network(n);
        let tx = tx
            .into_iter()
            .map(|row| row.into_iter().map(Link).collect())
            .collect();
        (tx, mb)
    }

    struct Link(LinkSender);

    impl Link {
        fn send(&self, p: Packet) -> Result<(), ()> {
            // SAFETY: every test here sends from its one thread.
            unsafe { self.0.send_with(p, PayloadCell::EMPTY) }.map_err(drop)
        }

        /// Send `value` as `Ctx::send` sends a payload of 9 to 64 bytes:
        /// in the cell beside the packet.
        fn send_cell<T: Send + 'static>(&self, tag: u64, value: T) {
            let (body, cell) = PacketBody::of(value, |_| unreachable!("fits the cell"));
            let p = Packet {
                scope: 0,
                tag,
                bytes: std::mem::size_of::<T>(),
                arrival_time: 0.0,
                body,
            };
            // SAFETY: every test here sends from its one thread.
            unsafe { self.0.send_with(p, cell) }.expect("receiver alive");
        }
    }

    impl Mailbox {
        /// [`Mailbox::recv_matching`], returning the packet with its cell.
        fn recv_cell(&mut self, sender: usize, scope: u64, tag: u64) -> (Packet, PayloadCell) {
            let mut cell = PayloadCell::EMPTY;
            let packet = self.recv_matching(sender, scope, tag, &mut cell);
            (packet, cell)
        }
    }

    fn pkt(tag: u64, val: i32) -> Packet {
        pkt_scoped(0, tag, val)
    }

    /// An `i32` message, carried inline as `Ctx::send` carries it.
    fn pkt_scoped(scope: u64, tag: u64, val: i32) -> Packet {
        Packet {
            scope,
            tag,
            bytes: 4,
            arrival_time: 0.0,
            body: PacketBody::Inline(InlineValue::new(val).expect("an i32 fits inline")),
        }
    }

    fn val((p, _): (Packet, PayloadCell)) -> i32 {
        let PacketBody::Inline(v) = p.body else {
            panic!("expected inline body");
        };
        v.take::<i32>().expect("i32 payload")
    }

    #[test]
    fn fifo_order_within_same_tag() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(5, 10)).unwrap();
        tx[0][1].send(pkt(5, 20)).unwrap();
        let a = mb[0].recv_cell(1, 0, 5);
        let b = mb[0].recv_cell(1, 0, 5);
        assert_eq!(val(a), 10);
        assert_eq!(val(b), 20);
    }

    #[test]
    fn fifo_order_preserved_through_pending_buffer() {
        let (tx, mut mb) = net(2);
        // Three same-tag messages buffered while waiting for another tag.
        tx[0][1].send(pkt(9, 1)).unwrap();
        tx[0][1].send(pkt(9, 2)).unwrap();
        tx[0][1].send(pkt(9, 3)).unwrap();
        tx[0][1].send(pkt(8, 99)).unwrap();
        assert_eq!(val(mb[0].recv_cell(1, 0, 8)), 99);
        assert_eq!(val(mb[0].recv_cell(1, 0, 9)), 1);
        assert_eq!(val(mb[0].recv_cell(1, 0, 9)), 2);
        assert_eq!(val(mb[0].recv_cell(1, 0, 9)), 3);
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn tag_matching_skips_and_buffers() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(1, 100)).unwrap();
        tx[0][1].send(pkt(2, 200)).unwrap();
        // Ask for tag 2 first; tag-1 message must be buffered, not lost.
        let b = mb[0].recv_cell(1, 0, 2);
        assert_eq!(val(b), 200);
        let a = mb[0].recv_cell(1, 0, 1);
        assert_eq!(val(a), 100);
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn unconsumed_counts_pending_and_queued() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(9, 1)).unwrap();
        tx[0][1].send(pkt(8, 2)).unwrap();
        tx[0][1].send(pkt(9, 3)).unwrap();
        // Matching tag 8 buffers the first tag-9 packet.
        mb[0].recv_cell(1, 0, 8);
        assert_eq!(mb[0].unconsumed(), 2);
    }

    #[test]
    fn senders_are_independent() {
        let (tx, mut mb) = net(3);
        tx[2][0].send(pkt(1, 7)).unwrap();
        tx[2][1].send(pkt(1, 8)).unwrap();
        // Receive from rank 1 first even though rank 0's message arrived first.
        let b = mb[2].recv_cell(1, 0, 1);
        assert_eq!(val(b), 8);
        let a = mb[2].recv_cell(0, 0, 1);
        assert_eq!(val(a), 7);
    }

    #[test]
    fn many_distinct_tags_match_without_scanning() {
        let (tx, mut mb) = net(2);
        for t in 0..256u64 {
            tx[0][1].send(pkt(t, t as i32)).unwrap();
        }
        // Receive in reverse order: every receive after the first hits the
        // tag index rather than re-scanning the whole pending set.
        for t in (0..256u64).rev() {
            assert_eq!(val(mb[0].recv_cell(1, 0, t)), t as i32);
        }
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn same_tag_different_scopes_do_not_alias() {
        let (tx, mut mb) = net(2);
        // Two messages with the same (sender, tag) but different scopes;
        // each receive must match only its own scope, in either order.
        tx[0][1].send(pkt_scoped(7, 3, 111)).unwrap();
        tx[0][1].send(pkt_scoped(0, 3, 222)).unwrap();
        assert_eq!(val(mb[0].recv_cell(1, 0, 3)), 222);
        assert_eq!(val(mb[0].recv_cell(1, 7, 3)), 111);
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn try_recv_surfaces_disconnection_only_after_draining() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(4, 5)).unwrap();
        drop(tx); // the sending rank dies with one message in flight
        let mut cell = PayloadCell::EMPTY;
        let delivered = mb[0].try_recv_matching(1, 0, 4, &mut cell).unwrap();
        assert_eq!(val((delivered, PayloadCell::EMPTY)), 5);
        let err = mb[0].try_recv_matching(1, 0, 4, &mut cell).unwrap_err();
        assert_eq!(err, SenderDisconnected);
    }

    #[test]
    fn fifo_order_holds_within_one_scope_across_interleaved_scopes() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt_scoped(5, 9, 1)).unwrap();
        tx[0][1].send(pkt_scoped(6, 9, 10)).unwrap();
        tx[0][1].send(pkt_scoped(5, 9, 2)).unwrap();
        tx[0][1].send(pkt_scoped(6, 9, 20)).unwrap();
        assert_eq!(val(mb[0].recv_cell(1, 5, 9)), 1);
        assert_eq!(val(mb[0].recv_cell(1, 5, 9)), 2);
        assert_eq!(val(mb[0].recv_cell(1, 6, 9)), 10);
        assert_eq!(val(mb[0].recv_cell(1, 6, 9)), 20);
        assert_eq!(mb[0].unconsumed(), 0);
    }

    /// The `T` in a packet sent with [`Link::send_cell`].
    fn cell_val<T: 'static>((p, cell): (Packet, PayloadCell)) -> T {
        let PacketBody::Cell(ty) = p.body else {
            panic!("expected cell body");
        };
        // SAFETY: the mailbox hands each packet out with its own cell.
        unsafe { cell.take::<T>(ty) }.expect("payload type")
    }

    #[test]
    fn stashed_cell_packets_keep_their_bytes() {
        let (tx, mut mb) = net(2);
        // Cell packets of several sizes between inline ones, enough to
        // cross link blocks, all stashed while the receive waits for the
        // last tag.
        for round in 0..12u64 {
            tx[0][1].send_cell(6 * round, [round as u8; 9]);
            tx[0][1].send_cell(6 * round + 1, (round, !round));
            tx[0][1].send(pkt(6 * round + 2, round as i32)).unwrap();
            tx[0][1].send_cell(6 * round + 3, [round; 5]);
            tx[0][1].send_cell(6 * round + 4, [round as u32 + 1; 16]);
            tx[0][1].send_cell(6 * round + 5, [round as u8; 33]);
        }
        tx[0][1].send(pkt(1000, -1)).unwrap();
        assert_eq!(val(mb[0].recv_cell(1, 0, 1000)), -1);
        assert_eq!(mb[0].unconsumed(), 72);
        for round in (0..12u64).rev() {
            let mut at = |k| mb[0].recv_cell(1, 0, 6 * round + k);
            assert_eq!(cell_val::<[u8; 33]>(at(5)), [round as u8; 33]);
            assert_eq!(cell_val::<[u32; 16]>(at(4)), [round as u32 + 1; 16]);
            assert_eq!(cell_val::<[u64; 5]>(at(3)), [round; 5]);
            assert_eq!(val(at(2)), round as i32);
            assert_eq!(cell_val::<(u64, u64)>(at(1)), (round, !round));
            assert_eq!(cell_val::<[u8; 9]>(at(0)), [round as u8; 9]);
        }
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn emptied_buckets_are_kept_for_reuse_up_to_a_bound() {
        let (tx, mut mb) = net(2);
        // Two tags a round, sequence-numbered, received in reverse: the
        // first of each pair is stashed in a new bucket, which empties.
        for round in 0..100u64 {
            tx[0][1].send(pkt(2 * round, 1)).unwrap();
            tx[0][1].send(pkt(2 * round + 1, 2)).unwrap();
            assert_eq!(val(mb[0].recv_cell(1, 0, 2 * round + 1)), 2);
            assert_eq!(val(mb[0].recv_cell(1, 0, 2 * round)), 1);
        }
        assert_eq!((mb[0].pending[1].len(), mb[0].spare.len()), (0, 1));
        // Many buckets at once: every emptied one past the bound is freed.
        for t in 0..20u64 {
            tx[0][1].send(pkt(t, t as i32)).unwrap();
        }
        tx[0][1].send(pkt(99, 0)).unwrap();
        assert_eq!(val(mb[0].recv_cell(1, 0, 99)), 0);
        assert_eq!(mb[0].pending[1].len(), 20);
        for t in 0..20u64 {
            assert_eq!(val(mb[0].recv_cell(1, 0, t)), t as i32);
        }
        assert_eq!(mb[0].pending[1].len(), 0);
        assert_eq!(mb[0].spare.len(), SPARE_BUCKETS);
    }
}
