//! Fuzz-style interleaving tests of the mailbox's tag-indexed pending
//! buffer: randomized send orders across many tags, drained in
//! randomized receive orders, must never reorder same-tag messages and
//! must leave nothing behind after quiescence.
//!
//! These drive `mp::mailbox` directly (no SPMD runner), so the pending
//! buffer is exercised in isolation: every receive for a tag whose
//! messages were pulled off the channel while matching *other* tags hits
//! the buffered path.
//!
//! The `threaded_*` properties run the same matching contract with
//! genuinely concurrent sender threads — per-tag FIFO and per-sender
//! independence must hold with nothing serializing deliveries.
//!
//! The queues underneath are the only transport, so they are held
//! against an independent reference: the `*_matches_the_mpsc_oracle`
//! properties drive [`spsc_channel`] and [`real_channel`] side by side
//! with `std::sync::mpsc` — **the oracle** — and require the same
//! per-sender order, the same delivered count, and `Disconnected` exactly
//! when the oracle disconnects.

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::mp::mailbox::{build_network, Mailbox};
use parallel_archetypes::mp::packet::{Packet, PacketBody};
use parallel_archetypes::mp::transport::{
    real_channel, spsc_channel, Disconnected, RealReceiver, RealSender, SpscReceiver, SpscSender,
    SPIN_BUDGET,
};

/// One mesh link's send side, as handed out by [`build_network`].
struct Link(SpscSender<Packet>);

impl Link {
    /// Every test below gives each link to exactly one sending thread,
    /// which is the single-producer contract `SpscSender::send` needs.
    fn send(&self, p: Packet) -> Result<(), ()> {
        // SAFETY: see above — one thread per link, for its whole life.
        unsafe { self.0.send(p) }.map_err(drop)
    }
}

/// `build_network` with its send sides wrapped in [`Link`].
fn network(n: usize) -> (Vec<Vec<Link>>, Vec<Mailbox>) {
    let (tx, mb) = build_network(n);
    let tx = tx
        .into_iter()
        .map(|row| row.into_iter().map(Link).collect())
        .collect();
    (tx, mb)
}

fn pkt(from: usize, tag: u64, value: u64) -> Packet {
    Packet {
        from,
        scope: 0,
        tag,
        bytes: 8,
        arrival_time: 0.0,
        body: PacketBody::Owned(Box::new(value)),
    }
}

fn value(p: Packet) -> u64 {
    let PacketBody::Owned(b) = p.body else {
        panic!("expected owned body");
    };
    *b.downcast::<u64>().expect("u64 payload")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn randomized_interleavings_preserve_per_tag_fifo(
        tags in vec(0u64..6, 1..60),
        drain_order in vec(any::<u32>(), 1..60),
    ) {
        // Send messages with random tags, stamping each with its global
        // send index; then drain in a (different) randomized tag order.
        let (tx, mut mb) = network(2);
        let mut per_tag: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags.iter().enumerate() {
            tx[0][1].send(pkt(1, t, i as u64)).unwrap();
            per_tag.entry(t).or_default().push_back(i as u64);
        }
        prop_assert_eq!(mb[0].unconsumed(), tags.len());

        let mut remaining: Vec<u64> = per_tag.keys().copied().collect();
        remaining.sort_unstable();
        let mut pick = 0usize;
        while !remaining.is_empty() {
            // Choose the next tag to receive pseudo-randomly from the
            // drain_order stream.
            let choice = drain_order[pick % drain_order.len()] as usize % remaining.len();
            pick += 1;
            let t = remaining[choice];
            let got = value(mb[0].recv_matching(1, 0, t));
            let expected = per_tag.get_mut(&t).unwrap().pop_front().unwrap();
            prop_assert_eq!(
                got, expected,
                "same-tag messages must arrive in send order"
            );
            if per_tag[&t].is_empty() {
                remaining.remove(choice);
            }
        }
        // Quiescence: every message matched, nothing buffered or queued.
        prop_assert_eq!(mb[0].unconsumed(), 0);
    }

    #[test]
    fn interleaved_sends_and_receives_never_leak(
        script in vec((0u64..4, any::<bool>()), 1..80),
    ) {
        // A mixed schedule: each step either sends on a random tag or
        // receives the oldest outstanding message of a random
        // already-sent tag. Receiving a tag whose turn hasn't come yet
        // forces other tags through the pending buffer.
        let (tx, mut mb) = network(2);
        let mut outstanding: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        let mut sent = 0u64;
        for &(tag, do_send) in &script {
            let has_pending = outstanding.values().any(|q| !q.is_empty());
            if do_send || !has_pending {
                tx[0][1].send(pkt(1, tag, sent)).unwrap();
                outstanding.entry(tag).or_default().push_back(sent);
                sent += 1;
            } else {
                // Receive from the first non-empty tag at or after `tag`
                // (cyclically) — deterministic but order-scrambling.
                let keys: Vec<u64> = {
                    let mut k: Vec<u64> = outstanding
                        .iter()
                        .filter(|(_, q)| !q.is_empty())
                        .map(|(&t, _)| t)
                        .collect();
                    k.sort_unstable();
                    k
                };
                let t = *keys
                    .iter()
                    .find(|&&t| t >= tag)
                    .unwrap_or(&keys[0]);
                let got = value(mb[0].recv_matching(1, 0, t));
                let expected = outstanding.get_mut(&t).unwrap().pop_front().unwrap();
                prop_assert_eq!(got, expected);
            }
        }
        // Drain everything still outstanding, smallest tag first.
        let mut keys: Vec<u64> = outstanding.keys().copied().collect();
        keys.sort_unstable();
        for t in keys {
            while let Some(expected) = outstanding.get_mut(&t).unwrap().pop_front() {
                prop_assert_eq!(value(mb[0].recv_matching(1, 0, t)), expected);
            }
        }
        prop_assert_eq!(mb[0].unconsumed(), 0, "no leaks after quiescence");
    }

    #[test]
    fn per_sender_buffers_are_independent_under_interleaving(
        tags_a in vec(0u64..4, 1..30),
        tags_b in vec(0u64..4, 1..30),
    ) {
        // Two senders interleave arbitrary tag streams at one receiver;
        // per-(sender, tag) FIFO must hold for each independently even
        // when all of one sender's traffic is buffered while draining
        // the other.
        let (tx, mut mb) = network(3);
        for (i, &t) in tags_a.iter().enumerate() {
            tx[2][0].send(pkt(0, t, i as u64)).unwrap();
        }
        for (i, &t) in tags_b.iter().enumerate() {
            tx[2][1].send(pkt(1, t, 1000 + i as u64)).unwrap();
        }
        // Drain sender 1 completely first (buffering everything of
        // sender 0 is impossible — separate channels — but tag matching
        // within sender 1 still scrambles), then sender 0.
        let mut expect_b: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags_b.iter().enumerate() {
            expect_b.entry(t).or_default().push_back(1000 + i as u64);
        }
        let mut b_keys: Vec<u64> = expect_b.keys().copied().collect();
        b_keys.sort_unstable();
        b_keys.reverse(); // drain highest tag first: maximal buffering
        for t in b_keys {
            while let Some(e) = expect_b.get_mut(&t).unwrap().pop_front() {
                prop_assert_eq!(value(mb[2].recv_matching(1, 0, t)), e);
            }
        }
        let mut expect_a: std::collections::HashMap<u64, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags_a.iter().enumerate() {
            expect_a.entry(t).or_default().push_back(i as u64);
        }
        let mut a_keys: Vec<u64> = expect_a.keys().copied().collect();
        a_keys.sort_unstable();
        for t in a_keys {
            while let Some(e) = expect_a.get_mut(&t).unwrap().pop_front() {
                prop_assert_eq!(value(mb[2].recv_matching(0, 0, t)), e);
            }
        }
        prop_assert_eq!(mb[2].unconsumed(), 0);
    }

    #[test]
    fn threaded_senders_preserve_per_sender_fifo(
        tags_a in vec(0u64..4, 1..40),
        tags_b in vec(0u64..4, 1..40),
        drain_order in vec(any::<u32>(), 1..40),
    ) {
        // Two *threads* blast tag streams at one receiver concurrently —
        // nothing serializes deliveries across senders. The receiver
        // drains (sender, tag) streams in a scrambled order; per-sender
        // per-tag FIFO must still hold, and blocking receives must wake
        // correctly even when posted before the message exists.
        let (mut tx, mut mb) = network(3);
        let row = tx.remove(2); // senders[2][src]: links into rank 2
        let mut row = row.into_iter();
        let s0 = row.next().unwrap();
        let s1 = row.next().unwrap();
        let ta = tags_a.clone();
        let tb = tags_b.clone();
        let h0 = std::thread::spawn(move || {
            for (i, &t) in ta.iter().enumerate() {
                s0.send(pkt(0, t, i as u64)).unwrap();
                if i % 7 == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let h1 = std::thread::spawn(move || {
            for (i, &t) in tb.iter().enumerate() {
                s1.send(pkt(1, t, 1000 + i as u64)).unwrap();
                if i % 5 == 0 {
                    std::thread::yield_now();
                }
            }
        });

        // Expected per-(sender, tag) streams.
        let mut expect: std::collections::HashMap<(usize, u64), std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for (i, &t) in tags_a.iter().enumerate() {
            expect.entry((0, t)).or_default().push_back(i as u64);
        }
        for (i, &t) in tags_b.iter().enumerate() {
            expect.entry((1, t)).or_default().push_back(1000 + i as u64);
        }
        let mut remaining: Vec<(usize, u64)> = expect.keys().copied().collect();
        remaining.sort_unstable();
        let mut pick = 0usize;
        while !remaining.is_empty() {
            let choice = drain_order[pick % drain_order.len()] as usize % remaining.len();
            pick += 1;
            let (s, t) = remaining[choice];
            // Blocks until the concurrent sender produces this message.
            let got = value(mb[2].recv_matching(s, 0, t));
            let expected = expect.get_mut(&(s, t)).unwrap().pop_front().unwrap();
            prop_assert_eq!(got, expected, "per-sender FIFO broke for sender {} tag {}", s, t);
            if expect[&(s, t)].is_empty() {
                remaining.remove(choice);
            }
        }
        h0.join().unwrap();
        h1.join().unwrap();
        prop_assert_eq!(mb[2].unconsumed(), 0);
    }

    #[test]
    fn threaded_cross_sender_arrival_order_is_unspecified(
        n_each in 1usize..30,
        stagger in any::<bool>(),
    ) {
        // Contract test (see mp::mailbox docs): cross-sender arrival
        // order is unspecified, and matching must be insensitive to it.
        // Two concurrent senders race the same tag at one receiver; the
        // receiver *chooses* which sender to drain first, and the values
        // observed depend only on that choice — never on which thread's
        // messages physically landed first.
        let (mut tx, mut mb) = network(3);
        let row = tx.remove(2);
        let mut row = row.into_iter();
        let s0 = row.next().unwrap();
        let s1 = row.next().unwrap();
        let handles = [
            std::thread::spawn(move || {
                for i in 0..n_each {
                    s0.send(pkt(0, 7, i as u64)).unwrap();
                }
            }),
            std::thread::spawn(move || {
                for i in 0..n_each {
                    if stagger {
                        std::thread::yield_now();
                    }
                    s1.send(pkt(1, 7, 1000 + i as u64)).unwrap();
                }
            }),
        ];
        // Drain sender 1 first, then sender 0 — regardless of real-time
        // arrival interleaving, each stream reads back pure and in order.
        for i in 0..n_each {
            prop_assert_eq!(value(mb[2].recv_matching(1, 0, 7)), 1000 + i as u64);
        }
        for i in 0..n_each {
            prop_assert_eq!(value(mb[2].recv_matching(0, 0, 7)), i as u64);
        }
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(mb[2].unconsumed(), 0);
    }

    // Lockstep differential: one script of sends and receives applied to
    // the queue under test and to the oracle, single-threaded, so every
    // queue state (empty, one node, bursts, the node-freelist steady
    // state) is compared value by value.
    #[test]
    fn spsc_lockstep_matches_the_mpsc_oracle(
        script in vec((any::<bool>(), any::<u32>()), 1..300),
    ) {
        lockstep::<Spsc>(&script);
    }

    #[test]
    fn mpsc_lockstep_matches_the_mpsc_oracle(
        script in vec((any::<bool>(), any::<u32>()), 1..300),
    ) {
        lockstep::<Mpsc>(&script);
    }

    // Threaded differential: producers race a busy, spinning or parked
    // consumer through the publish/park (Dekker) handshake, the
    // recycling CAS loops, and the last-sender-drop wake. `pauses` picks
    // each send's delay from `PAUSES`, so one run delivers messages on
    // the immediate, the spun and the parked path of the receive.
    #[test]
    fn spsc_threaded_matches_the_mpsc_oracle(
        values in vec(any::<u32>(), 0..300),
        pauses in vec(0..PAUSES.len(), 1..50),
        park in any::<bool>(),
    ) {
        threaded::<Spsc>(&[values], &pauses, park);
    }

    #[test]
    fn mpsc_threaded_matches_the_mpsc_oracle(
        streams in vec(vec(any::<u32>(), 0..120), 1..5),
        pauses in vec(0..PAUSES.len(), 1..50),
        park in any::<bool>(),
    ) {
        threaded::<Mpsc>(&streams, &pauses, park);
    }
}

/// A message of the differential tests: (producer index, payload).
type Msg = (usize, u32);

/// A queue under test, reduced to the operations the oracle also has.
trait Queue {
    type Tx: Send + 'static;
    type Rx: Send + 'static;
    /// A channel with one send handle per producer thread.
    fn channel(producers: usize) -> (Vec<Self::Tx>, Self::Rx);
    fn send(tx: &Self::Tx, m: Msg);
    fn recv(rx: &Self::Rx) -> Result<Msg, Disconnected>;
    fn len(rx: &Self::Rx) -> usize;
}

struct Spsc;
impl Queue for Spsc {
    type Tx = SpscSender<Msg>;
    type Rx = SpscReceiver<Msg>;
    fn channel(producers: usize) -> (Vec<Self::Tx>, Self::Rx) {
        assert_eq!(producers, 1, "single-producer queue");
        let (tx, rx) = spsc_channel();
        (vec![tx], rx)
    }
    fn send(tx: &Self::Tx, m: Msg) {
        // SAFETY: `channel` hands out one handle, moved to one thread.
        unsafe { tx.send(m) }.expect("receiver alive");
    }
    fn recv(rx: &Self::Rx) -> Result<Msg, Disconnected> {
        rx.recv()
    }
    fn len(rx: &Self::Rx) -> usize {
        rx.len()
    }
}

struct Mpsc;
impl Queue for Mpsc {
    type Tx = RealSender<Msg>;
    type Rx = RealReceiver<Msg>;
    fn channel(producers: usize) -> (Vec<Self::Tx>, Self::Rx) {
        let (tx, rx) = real_channel();
        ((0..producers).map(|_| tx.clone()).collect(), rx)
    }
    fn send(tx: &Self::Tx, m: Msg) {
        tx.send(m).expect("receiver alive");
    }
    fn recv(rx: &Self::Rx) -> Result<Msg, Disconnected> {
        rx.recv()
    }
    fn len(rx: &Self::Rx) -> usize {
        rx.len()
    }
}

/// `(true, v)` sends `v` to both queues; `(false, _)` receives from both
/// if the oracle has a message. The queue's length must track the
/// oracle's after every step.
fn lockstep<Q: Queue>(script: &[(bool, u32)]) {
    use std::sync::mpsc;
    let (mut txs, rx) = Q::channel(1);
    let tx = txs.pop().expect("one handle");
    let (otx, orx) = mpsc::channel::<Msg>();
    let mut queued = 0usize;
    for &(send, v) in script {
        if send {
            Q::send(&tx, (0, v));
            otx.send((0, v)).expect("oracle receiver alive");
            queued += 1;
        } else if let Ok(want) = orx.try_recv() {
            assert_eq!(Q::recv(&rx), Ok(want));
            queued -= 1;
        }
        assert_eq!(Q::len(&rx), queued);
    }
    // Hang up with `queued` messages in flight: both must deliver all of
    // them first and only then report the disconnect.
    drop(tx);
    drop(otx);
    for want in orx.iter() {
        assert_eq!(Q::recv(&rx), Ok(want));
    }
    assert_eq!(Q::recv(&rx), Err(Disconnected));
}

/// Producer-side delay after a send, in spin budgets of the receive:
/// none (the consumer finds the next message queued), half a budget (the
/// consumer is inside its spin), two and twenty (the consumer has parked).
const PAUSES: [f64; 4] = [0.0, 0.5, 2.0, 20.0];

/// One producer thread per stream feeds the queue under test and the
/// oracle; one consumer thread each drains until disconnect. With `park`
/// the consumers are (very likely) parked on an empty queue both before
/// the first send and before the last sender drops — the sleeps and
/// pauses only steer coverage; every assertion holds under every
/// interleaving.
fn threaded<Q: Queue>(streams: &[Vec<u32>], pauses: &[usize], park: bool) {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    let (txs, rx) = Q::channel(streams.len());
    let (otx, orx) = mpsc::channel::<Msg>();
    let consumer = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Ok(m) = Q::recv(&rx) {
            got.push(m);
        }
        got
    });
    let oracle = std::thread::spawn(move || orx.iter().collect::<Vec<Msg>>());
    let producers: Vec<_> = txs
        .into_iter()
        .zip(streams)
        .enumerate()
        .map(|(p, (tx, stream))| {
            let (stream, pauses, otx) = (stream.clone(), pauses.to_vec(), otx.clone());
            std::thread::spawn(move || {
                if park {
                    std::thread::sleep(Duration::from_millis(2));
                }
                for (i, v) in stream.into_iter().enumerate() {
                    Q::send(&tx, (p, v));
                    otx.send((p, v)).expect("oracle receiver alive");
                    let pause = SPIN_BUDGET.mul_f64(PAUSES[pauses[i % pauses.len()]]);
                    let sent = Instant::now();
                    while sent.elapsed() < pause {
                        std::hint::spin_loop();
                    }
                }
                if park {
                    std::thread::sleep(Duration::from_millis(2));
                }
                // `tx` and `otx` drop here: the last drop must wake a
                // parked consumer with the disconnect.
            })
        })
        .collect();
    drop(otx);
    for h in producers {
        h.join().expect("producer");
    }
    let got = consumer.join().expect("consumer");
    let want = oracle.join().expect("oracle consumer");
    assert_eq!(got.len(), want.len(), "delivered count");
    for p in 0..streams.len() {
        let of = |all: &[Msg]| {
            all.iter()
                .filter(|m| m.0 == p)
                .map(|m| m.1)
                .collect::<Vec<_>>()
        };
        assert_eq!(of(&got), of(&want), "producer {p}'s stream");
    }
}
