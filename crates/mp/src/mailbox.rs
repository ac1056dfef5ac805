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
//! queue within each bucket. The scope key is what isolates
//! [`crate::Ctx::scoped`] sections: sibling scopes may reuse identical
//! tags without their traffic ever cross-matching.
//!
//! The channels underneath are the lock-free SPSC links of
//! [`crate::transport`].
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::packet::Packet;
use crate::transport::{spsc_channel_with, RecvCounts, SpscReceiver, SpscSender};

/// Error returned by [`Mailbox::try_recv_matching`] when the sending
/// rank has terminated (channel empty and disconnected).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SenderDisconnected;

/// The receive side owned by one rank: `from[s]` is the channel carrying
/// messages sent by rank `s`, and `pending[s]` holds messages from `s`
/// already pulled off the channel but not yet matched, bucketed by
/// (scope, tag).
pub struct Mailbox {
    from: Vec<SpscReceiver<Packet>>,
    pending: Vec<HashMap<(u64, u64), VecDeque<Packet>>>,
    /// Messages put on the wire to this mailbox but not yet pulled off a
    /// channel. One cell shared by all of this mailbox's channels (see
    /// [`build_network`]): senders increment it, channel pops decrement
    /// it, making the whole-mailbox in-flight count a single load.
    inflight: Arc<AtomicUsize>,
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
    /// # Panics
    /// Panics if the sending rank has terminated without ever sending a
    /// matching message (which in a correct SPMD program is a deadlock bug).
    pub fn recv_matching(&mut self, sender: usize, scope: u64, tag: u64) -> Packet {
        self.try_recv_matching(sender, scope, tag)
            .unwrap_or_else(|SenderDisconnected| {
                panic!(
                    "rank terminated while a receive (from={sender}, scope={scope}, tag={tag}) \
                     was pending"
                )
            })
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
    ) -> Result<Packet, SenderDisconnected> {
        if let Some(q) = self.pending[sender].get_mut(&(scope, tag)) {
            if let Some(pkt) = q.pop_front() {
                if q.is_empty() {
                    self.pending[sender].remove(&(scope, tag));
                }
                self.pending_len -= 1;
                return Ok(pkt);
            }
        }
        loop {
            let pkt = self.from[sender]
                .recv_counted(&mut self.recv_counts)
                .map_err(|_| SenderDisconnected)?;
            if pkt.scope == scope && pkt.tag == tag {
                return Ok(pkt);
            }
            self.pending[sender]
                .entry((pkt.scope, pkt.tag))
                .or_default()
                .push_back(pkt);
            self.pending_len += 1;
        }
    }

    /// Number of unmatched messages addressed to this rank — buffered in
    /// `pending` or still in flight on a channel. O(1): one counter plus
    /// one shared-cell load, regardless of rank count, which is what
    /// keeps the post-run leak check out of the `run_spmd` hot path
    /// (it used to walk n pending maps and n channel lengths per rank —
    /// n² loads per run). Exact only at quiescence, like every use of
    /// the leak check (see the ordering contract above).
    pub fn unconsumed(&self) -> usize {
        self.pending_len + self.inflight.load(Ordering::Acquire)
    }

    /// The receive-phase counters accumulated since the last call,
    /// resetting them (a recycled mailbox starts its next run at zero).
    pub fn take_recv_counts(&mut self) -> RecvCounts {
        std::mem::take(&mut self.recv_counts)
    }
}

/// Builds the full `n × n` mesh of channels and splits it into the send
/// sides (`senders[dest][src]`, the link on which `src` sends to `dest`)
/// and the per-rank receive sides.
///
/// Each link is single-producer: whoever holds `senders[dest][src]` (and
/// its clones) must serialize sends on it — see
/// [`SpscSender::send`]'s contract.
pub fn build_network(n: usize) -> (Vec<Vec<SpscSender<Packet>>>, Vec<Mailbox>) {
    let mut senders: Vec<Vec<SpscSender<Packet>>> = Vec::with_capacity(n);
    let mut mailboxes: Vec<Mailbox> = Vec::with_capacity(n);
    for _dest in 0..n {
        let mut row_tx = Vec::with_capacity(n);
        let mut row_rx = Vec::with_capacity(n);
        // All of one destination's channels share one in-flight counter,
        // so the mailbox's leak check is a single load (`unconsumed`).
        let inflight = Arc::new(AtomicUsize::new(0));
        for _src in 0..n {
            let (tx, rx) = spsc_channel_with(Arc::clone(&inflight));
            row_tx.push(tx);
            row_rx.push(rx);
        }
        senders.push(row_tx);
        mailboxes.push(Mailbox {
            from: row_rx,
            pending: (0..n).map(|_| HashMap::new()).collect(),
            inflight,
            pending_len: 0,
            recv_counts: RecvCounts::default(),
        });
    }
    (senders, mailboxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketBody;

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

    struct Link(SpscSender<Packet>);

    impl Link {
        fn send(&self, p: Packet) -> Result<(), ()> {
            // SAFETY: every test here sends from its one thread.
            unsafe { self.0.send(p) }.map_err(drop)
        }
    }

    fn pkt(from: usize, tag: u64, val: i32) -> Packet {
        pkt_scoped(from, 0, tag, val)
    }

    fn pkt_scoped(from: usize, scope: u64, tag: u64, val: i32) -> Packet {
        Packet {
            from,
            scope,
            tag,
            bytes: 4,
            arrival_time: 0.0,
            body: PacketBody::Owned(Box::new(val)),
        }
    }

    fn val(p: Packet) -> i32 {
        let PacketBody::Owned(b) = p.body else {
            panic!("expected owned body");
        };
        *b.downcast::<i32>().unwrap()
    }

    #[test]
    fn fifo_order_within_same_tag() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(1, 5, 10)).unwrap();
        tx[0][1].send(pkt(1, 5, 20)).unwrap();
        let a = mb[0].recv_matching(1, 0, 5);
        let b = mb[0].recv_matching(1, 0, 5);
        assert_eq!(val(a), 10);
        assert_eq!(val(b), 20);
    }

    #[test]
    fn fifo_order_preserved_through_pending_buffer() {
        let (tx, mut mb) = net(2);
        // Three same-tag messages buffered while waiting for another tag.
        tx[0][1].send(pkt(1, 9, 1)).unwrap();
        tx[0][1].send(pkt(1, 9, 2)).unwrap();
        tx[0][1].send(pkt(1, 9, 3)).unwrap();
        tx[0][1].send(pkt(1, 8, 99)).unwrap();
        assert_eq!(val(mb[0].recv_matching(1, 0, 8)), 99);
        assert_eq!(val(mb[0].recv_matching(1, 0, 9)), 1);
        assert_eq!(val(mb[0].recv_matching(1, 0, 9)), 2);
        assert_eq!(val(mb[0].recv_matching(1, 0, 9)), 3);
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn tag_matching_skips_and_buffers() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(1, 1, 100)).unwrap();
        tx[0][1].send(pkt(1, 2, 200)).unwrap();
        // Ask for tag 2 first; tag-1 message must be buffered, not lost.
        let b = mb[0].recv_matching(1, 0, 2);
        assert_eq!(val(b), 200);
        let a = mb[0].recv_matching(1, 0, 1);
        assert_eq!(val(a), 100);
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn unconsumed_counts_pending_and_queued() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(1, 9, 1)).unwrap();
        tx[0][1].send(pkt(1, 8, 2)).unwrap();
        tx[0][1].send(pkt(1, 9, 3)).unwrap();
        // Matching tag 8 buffers the first tag-9 packet.
        mb[0].recv_matching(1, 0, 8);
        assert_eq!(mb[0].unconsumed(), 2);
    }

    #[test]
    fn senders_are_independent() {
        let (tx, mut mb) = net(3);
        tx[2][0].send(pkt(0, 1, 7)).unwrap();
        tx[2][1].send(pkt(1, 1, 8)).unwrap();
        // Receive from rank 1 first even though rank 0's message arrived first.
        let b = mb[2].recv_matching(1, 0, 1);
        assert_eq!(val(b), 8);
        let a = mb[2].recv_matching(0, 0, 1);
        assert_eq!(val(a), 7);
    }

    #[test]
    fn many_distinct_tags_match_without_scanning() {
        let (tx, mut mb) = net(2);
        for t in 0..256u64 {
            tx[0][1].send(pkt(1, t, t as i32)).unwrap();
        }
        // Receive in reverse order: every receive after the first hits the
        // tag index rather than re-scanning the whole pending set.
        for t in (0..256u64).rev() {
            assert_eq!(val(mb[0].recv_matching(1, 0, t)), t as i32);
        }
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn same_tag_different_scopes_do_not_alias() {
        let (tx, mut mb) = net(2);
        // Two messages with the same (sender, tag) but different scopes;
        // each receive must match only its own scope, in either order.
        tx[0][1].send(pkt_scoped(1, 7, 3, 111)).unwrap();
        tx[0][1].send(pkt_scoped(1, 0, 3, 222)).unwrap();
        assert_eq!(val(mb[0].recv_matching(1, 0, 3)), 222);
        assert_eq!(val(mb[0].recv_matching(1, 7, 3)), 111);
        assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn try_recv_surfaces_disconnection_only_after_draining() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt(1, 4, 5)).unwrap();
        drop(tx); // the sending rank dies with one message in flight
        let delivered = mb[0].try_recv_matching(1, 0, 4).unwrap();
        assert_eq!(val(delivered), 5);
        let err = mb[0].try_recv_matching(1, 0, 4).unwrap_err();
        assert_eq!(err, SenderDisconnected);
    }

    #[test]
    fn fifo_order_holds_within_one_scope_across_interleaved_scopes() {
        let (tx, mut mb) = net(2);
        tx[0][1].send(pkt_scoped(1, 5, 9, 1)).unwrap();
        tx[0][1].send(pkt_scoped(1, 6, 9, 10)).unwrap();
        tx[0][1].send(pkt_scoped(1, 5, 9, 2)).unwrap();
        tx[0][1].send(pkt_scoped(1, 6, 9, 20)).unwrap();
        assert_eq!(val(mb[0].recv_matching(1, 5, 9)), 1);
        assert_eq!(val(mb[0].recv_matching(1, 5, 9)), 2);
        assert_eq!(val(mb[0].recv_matching(1, 6, 9)), 10);
        assert_eq!(val(mb[0].recv_matching(1, 6, 9)), 20);
        assert_eq!(mb[0].unconsumed(), 0);
    }
}
