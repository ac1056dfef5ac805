//! Event tracing: per-rank ring-buffer recorders, Chrome-trace export,
//! and virtual-time critical-path analysis.
//!
//! Tracing is enabled per run via [`crate::RunConfig::traced`]; the
//! result surfaces as [`crate::SpmdResult`]`::trace`. Design constraints
//! (they must not undo the allocation-free hot path):
//!
//! * **One branch when off.** Every hook in [`crate::Ctx`] is gated by a
//!   precomputed `trace_hot: bool` — exactly the `fault_hot` pattern —
//!   so untraced runs pay a single predictable branch per operation.
//! * **No allocation or locking when on.** Each rank owns a
//!   [`TraceRecorder`] whose event buffer is preallocated at install
//!   time; recording is a bounds-checked store into that buffer (a ring:
//!   when full, the oldest events are overwritten and counted in
//!   [`RankTrace::dropped`]). Events are fixed-size [`Copy`] values —
//!   labels are inlined, never heap strings — and the recorder is
//!   thread-private, so there is no lock anywhere on the path.
//! * **No observer effect.** Hooks read the clock and counters; they
//!   never touch them, never add virtual time, and never change what
//!   goes on the wire. `tests/prop_trace.rs` holds traced runs
//!   bit-identical to untraced ones across archetypes.
//!
//! Every event carries both timestamps: the rank's **virtual time** (the
//! modeled quantity all analysis uses) and a **wall-clock** offset in
//! nanoseconds from the run's dispatch instant (diagnostic only — it is
//! the one field that legitimately differs between repeated runs, which
//! is why [`RankTrace::logical_events`] zeroes it for comparisons).
//!
//! Offline, send and receive events pair up *without any wire-level
//! bookkeeping*: the mailbox matches FIFO per `(sender, scope, tag)`, so
//! zipping the k-th recorded send against the k-th recorded receive of
//! the same key reproduces the exact matching the run performed. That
//! pairing drives both the Perfetto flow arrows of
//! [`RunTrace::chrome_json`] and the dependency DAG walked by
//! [`RunTrace::critical_path`].

use std::collections::HashMap;
use std::time::Instant;

use archetype_core::PhaseKind;

/// Maximum bytes of a [`Label`]; longer strings are truncated at a char
/// boundary. 23 bytes + length byte keep the whole label in 24 bytes.
pub const LABEL_BYTES: usize = 23;

/// A short, fixed-capacity, inline string: the allocation-free label
/// attached to phase events. Built from `&str` by truncation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    len: u8,
    bytes: [u8; LABEL_BYTES],
}

impl Label {
    /// Empty label.
    pub const fn empty() -> Self {
        Label {
            len: 0,
            bytes: [0; LABEL_BYTES],
        }
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("label built from &str")
    }

    /// True when the label holds no text.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        let mut end = s.len().min(LABEL_BYTES);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; LABEL_BYTES];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        Label {
            len: end as u8,
            bytes,
        }
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed trace event. Fixed-size and [`Copy`] so recording is a
/// plain store; ranks in `to`/`from` are **world** ranks (scoped sends
/// are translated through the peer table before recording), which is
/// what lets per-rank streams pair up globally.
///
/// All `vt` fields are virtual seconds; `wall_ns` is nanoseconds since
/// the run's dispatch instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A point-to-point send (including those issued by collectives).
    /// `vt` is the sender's clock after the send-overhead charge;
    /// `arrival_vt` is the stamped arrival time at the destination.
    Send {
        /// Destination world rank.
        to: u32,
        /// Scope id the message was sent in.
        scope: u64,
        /// Message tag.
        tag: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Sender's virtual time after the send completed.
        vt: f64,
        /// Virtual arrival time stamped on the packet.
        arrival_vt: f64,
        /// Wall-clock offset (ns since dispatch).
        wall_ns: u64,
    },
    /// A matched receive. The window `vt_posted..vt` is the receive's
    /// whole cost: waiting until `arrival_vt` (if the message arrives
    /// "in the future"), then the receive overhead.
    Recv {
        /// Source world rank.
        from: u32,
        /// Scope id the receive matched in.
        scope: u64,
        /// Message tag.
        tag: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Receiver's virtual time when the receive was posted.
        vt_posted: f64,
        /// Virtual arrival time carried by the matched packet.
        arrival_vt: f64,
        /// Receiver's virtual time after the receive completed.
        vt: f64,
        /// Wall-clock offset (ns since dispatch).
        wall_ns: u64,
    },
    /// Entry into a collective operation (the sends/receives it issues
    /// follow as their own events).
    Collective {
        /// Collective name (`"barrier"`, `"all_reduce"`, …).
        name: &'static str,
        /// Virtual time at entry.
        vt: f64,
        /// Wall-clock offset (ns since dispatch).
        wall_ns: u64,
    },
    /// Entry into an archetype protocol phase, recorded by
    /// [`crate::Ctx::trace_phase`]. A rank's phase events in order
    /// ([`RankTrace::phases`]) are the sentence its archetype's grammar
    /// checks.
    Phase {
        /// Which phase of the archetype's grammar this is; exports print
        /// it by its [`PhaseKind::name`].
        kind: PhaseKind,
        /// Free-form label (stage name, batch id, …), truncated to
        /// [`LABEL_BYTES`].
        label: Label,
        /// Virtual time at phase entry.
        vt: f64,
        /// Wall-clock offset (ns since dispatch).
        wall_ns: u64,
    },
    /// The rank's body started executing on a pool worker (or dedicated
    /// thread); always the first event of a traced rank.
    PoolDispatch {
        /// Virtual time at dispatch (0.0 unless the recorder was
        /// installed mid-run).
        vt: f64,
        /// Wall-clock offset (ns since dispatch).
        wall_ns: u64,
    },
    /// The plan service started executing a wave of admitted plans.
    WaveStart {
        /// Wave index within the serve call.
        wave: u32,
        /// Number of plans in the wave.
        plans: u32,
        /// Virtual time at wave start.
        vt: f64,
        /// Wall-clock offset (ns since dispatch).
        wall_ns: u64,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp (receives report their completion
    /// time).
    pub fn vt(&self) -> f64 {
        match *self {
            TraceEvent::Send { vt, .. }
            | TraceEvent::Recv { vt, .. }
            | TraceEvent::Collective { vt, .. }
            | TraceEvent::Phase { vt, .. }
            | TraceEvent::PoolDispatch { vt, .. }
            | TraceEvent::WaveStart { vt, .. } => vt,
        }
    }

    /// The same event with its wall-clock offset zeroed: the *logical*
    /// event, equal across repeated same-seed runs.
    pub fn logical(mut self) -> Self {
        match &mut self {
            TraceEvent::Send { wall_ns, .. }
            | TraceEvent::Recv { wall_ns, .. }
            | TraceEvent::Collective { wall_ns, .. }
            | TraceEvent::Phase { wall_ns, .. }
            | TraceEvent::PoolDispatch { wall_ns, .. }
            | TraceEvent::WaveStart { wall_ns, .. } => *wall_ns = 0,
        }
        self
    }
}

/// Per-rank event recorder: a preallocated ring buffer plus the run's
/// shared wall-clock anchor. Owned by exactly one rank's [`crate::Ctx`];
/// recording is lock-free and allocation-free (module docs).
pub struct TraceRecorder {
    /// Recorded events. Until the ring wraps this is in recording order;
    /// afterwards `head` marks the oldest slot.
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to overwrite once `events.len() == capacity`.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// The run's dispatch instant — one anchor shared by every rank, so
    /// wall offsets are comparable across tracks.
    epoch: Instant,
}

impl TraceRecorder {
    /// A recorder holding at most `capacity` events (oldest dropped
    /// beyond that), timestamping against `epoch`.
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
            epoch,
        }
    }

    /// Nanoseconds since the run's dispatch instant.
    #[inline]
    pub fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append an event (overwriting the oldest if the ring is full).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Dismantle into the rank's finished trace, rotating the ring so
    /// events come out oldest-first.
    pub fn into_rank_trace(mut self, rank: usize) -> RankTrace {
        self.events.rotate_left(self.head);
        RankTrace {
            rank,
            events: self.events,
            dropped: self.dropped,
        }
    }
}

/// One rank's finished event stream, oldest event first.
#[derive(Debug)]
pub struct RankTrace {
    /// World rank that recorded these events.
    pub rank: usize,
    /// Events in recording order (virtual time is nondecreasing).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around (0 when the buffer sufficed;
    /// raise [`crate::RunConfig`]`::trace_capacity` otherwise).
    pub dropped: u64,
}

impl RankTrace {
    /// The events with wall-clock offsets zeroed — the deterministic
    /// stream that repeated same-seed runs reproduce bit-identically.
    pub fn logical_events(&self) -> Vec<TraceEvent> {
        self.events.iter().map(|e| e.logical()).collect()
    }

    /// The rank's archetype phases in recording order, as `(kind,
    /// label)` pairs. Refuses with [`TraceIncomplete`] when the ring
    /// dropped events: the oldest phases may be among them, and a
    /// partial track must not pass for a whole one.
    pub fn phases(&self) -> Result<Vec<(PhaseKind, Label)>, TraceIncomplete> {
        if self.dropped > 0 {
            return Err(TraceIncomplete {
                rank: self.rank,
                dropped: self.dropped,
            });
        }
        Ok(self
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Phase { kind, label, .. } => Some((kind, label)),
                _ => None,
            })
            .collect())
    }
}

/// A rank's track lost events to ring wrap-around, so
/// [`RankTrace::phases`] will not answer from it; raise
/// [`crate::RunConfig`]`::trace_capacity`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceIncomplete {
    /// World rank whose track is incomplete.
    pub rank: usize,
    /// Events its ring dropped.
    pub dropped: u64,
}

impl std::fmt::Display for TraceIncomplete {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {}'s trace dropped {} event(s); raise trace_capacity",
            self.rank, self.dropped
        )
    }
}

impl std::error::Error for TraceIncomplete {}

/// A whole run's trace: one [`RankTrace`] per world rank plus the final
/// clocks the exporters need to close trailing spans.
#[derive(Debug)]
pub struct RunTrace {
    /// Per-rank event streams, indexed by world rank.
    pub ranks: Vec<RankTrace>,
    /// Final virtual clock of each rank.
    pub rank_times: Vec<f64>,
    /// Elapsed virtual time of the run (max over `rank_times`).
    pub elapsed_virtual: f64,
}

/// Key under which sends and receives pair: the mailbox matches FIFO per
/// `(sender, receiver, scope, tag)`, so recorded order within a key is
/// the matching order.
type FlowKey = (u32, u32, u64, u64);

impl RunTrace {
    /// Total events recorded across all ranks.
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Total events lost to ring wrap-around across all ranks.
    pub fn total_dropped(&self) -> u64 {
        self.ranks.iter().map(|r| r.dropped).sum()
    }

    /// Pair every receive with the send that produced its message:
    /// returns `(recv_rank, recv_event_idx) -> (send_rank, send_event_idx)`.
    /// Pairing is exact for complete streams; ring-dropped events leave
    /// the affected receives unpaired (consumers degrade gracefully).
    fn pair_messages(&self) -> HashMap<(usize, usize), (usize, usize)> {
        let mut sends: HashMap<FlowKey, Vec<(usize, usize)>> = HashMap::new();
        let mut recvs: HashMap<FlowKey, Vec<(usize, usize)>> = HashMap::new();
        for rt in &self.ranks {
            for (i, e) in rt.events.iter().enumerate() {
                match *e {
                    TraceEvent::Send { to, scope, tag, .. } => sends
                        .entry((rt.rank as u32, to, scope, tag))
                        .or_default()
                        .push((rt.rank, i)),
                    TraceEvent::Recv {
                        from, scope, tag, ..
                    } => recvs
                        .entry((from, rt.rank as u32, scope, tag))
                        .or_default()
                        .push((rt.rank, i)),
                    _ => {}
                }
            }
        }
        let mut pairs = HashMap::new();
        for (key, rlist) in recvs {
            if let Some(slist) = sends.get(&key) {
                for (r, s) in rlist.iter().zip(slist) {
                    pairs.insert(*r, *s);
                }
            }
        }
        pairs
    }

    /// Export the run as Chrome Trace Event JSON, loadable in Perfetto
    /// (`ui.perfetto.dev`) or `chrome://tracing`.
    ///
    /// Each rank becomes one process (`pid = rank`) with two tracks:
    /// `phases` (tid 0 — archetype phase spans, pool dispatch, wave
    /// starts) and `comm` (tid 1 — receive-wait slices, send slices,
    /// collective markers). Every paired message contributes a
    /// `"s"`/`"f"` flow event pair, drawn by Perfetto as an arrow from
    /// the send slice to the end of the matching receive slice.
    /// Timestamps are virtual microseconds (`vt × 1e6`); wall-clock
    /// offsets ride along in each event's `args.wall_ns`.
    pub fn chrome_json(&self) -> String {
        let pairs = self.pair_messages();
        // Flow ids must be stable per pair: number them in (rank, idx)
        // order of the receive side.
        let mut flow_ids: HashMap<(usize, usize), u64> = HashMap::new();
        {
            let mut keys: Vec<_> = pairs.keys().copied().collect();
            keys.sort_unstable();
            for (n, k) in keys.into_iter().enumerate() {
                flow_ids.insert(k, n as u64);
            }
        }
        // Reverse index: (send_rank, send_idx) -> flow id.
        let send_flow: HashMap<(usize, usize), u64> =
            pairs.iter().map(|(r, s)| (*s, flow_ids[r])).collect();

        let us = |vt: f64| vt * 1.0e6;
        let mut out = String::with_capacity(256 + self.total_events() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, line: String| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };

        for rt in &self.ranks {
            let pid = rt.rank;
            let end_vt = self.rank_times.get(pid).copied().unwrap_or(0.0);
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"rank {pid}\"}}}}"
                ),
            );
            for (tid, tname) in [(0, "phases"), (1, "comm")] {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"name\":\"{tname}\"}}}}"
                    ),
                );
            }

            // Phase spans close at the next phase entry (or run end).
            let phase_starts: Vec<(usize, f64)> = rt
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    TraceEvent::Phase { vt, .. } => Some((i, *vt)),
                    _ => None,
                })
                .collect();

            // Emit per track in vt order. Events are recorded in clock
            // order, so a single pass per track is already monotone.
            let mut next_phase = 0usize;
            for (i, e) in rt.events.iter().enumerate() {
                match *e {
                    TraceEvent::Phase {
                        kind,
                        label,
                        vt,
                        wall_ns,
                    } => {
                        next_phase += 1;
                        let end = phase_starts
                            .get(next_phase)
                            .map(|&(_, v)| v)
                            .unwrap_or(end_vt)
                            .max(vt);
                        let name = if label.is_empty() {
                            kind.name().to_string()
                        } else {
                            format!("{kind}:{}", json_escape(label.as_str()))
                        };
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\
                                 \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":0,\
                                 \"args\":{{\"wall_ns\":{wall_ns}}}}}",
                                us(vt),
                                us(end - vt),
                            ),
                        );
                    }
                    TraceEvent::PoolDispatch { vt, wall_ns } => push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"pool_dispatch\",\"cat\":\"runner\",\"ph\":\"i\",\
                             \"s\":\"t\",\"ts\":{:.3},\"pid\":{pid},\"tid\":0,\
                             \"args\":{{\"wall_ns\":{wall_ns}}}}}",
                            us(vt),
                        ),
                    ),
                    TraceEvent::WaveStart {
                        wave,
                        plans,
                        vt,
                        wall_ns,
                    } => push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"wave {wave}\",\"cat\":\"serve\",\"ph\":\"i\",\
                             \"s\":\"t\",\"ts\":{:.3},\"pid\":{pid},\"tid\":0,\
                             \"args\":{{\"plans\":{plans},\"wall_ns\":{wall_ns}}}}}",
                            us(vt),
                        ),
                    ),
                    TraceEvent::Collective { name, vt, wall_ns } => push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"name\":\"{name}\",\"cat\":\"collective\",\"ph\":\"i\",\
                             \"s\":\"t\",\"ts\":{:.3},\"pid\":{pid},\"tid\":1,\
                             \"args\":{{\"wall_ns\":{wall_ns}}}}}",
                            us(vt),
                        ),
                    ),
                    TraceEvent::Send {
                        to,
                        scope,
                        tag,
                        bytes,
                        vt,
                        arrival_vt,
                        wall_ns,
                    } => {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"name\":\"send\\u2192{to}\",\"cat\":\"msg\",\"ph\":\"X\",\
                                 \"ts\":{:.3},\"dur\":0.2,\"pid\":{pid},\"tid\":1,\
                                 \"args\":{{\"scope\":{scope},\"tag\":{tag},\"bytes\":{bytes},\
                                 \"arrival_vt\":{arrival_vt},\"wall_ns\":{wall_ns}}}}}",
                                us(vt),
                            ),
                        );
                        if let Some(id) = send_flow.get(&(pid, i)) {
                            push(
                                &mut out,
                                &mut first,
                                format!(
                                    "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\
                                     \"id\":{id},\"ts\":{:.3},\"pid\":{pid},\"tid\":1}}",
                                    us(vt),
                                ),
                            );
                        }
                    }
                    TraceEvent::Recv {
                        from,
                        scope,
                        tag,
                        bytes,
                        vt_posted,
                        arrival_vt,
                        vt,
                        wall_ns,
                    } => {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                "{{\"name\":\"recv\\u2190{from}\",\"cat\":\"msg\",\"ph\":\"X\",\
                                 \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":1,\
                                 \"args\":{{\"scope\":{scope},\"tag\":{tag},\"bytes\":{bytes},\
                                 \"arrival_vt\":{arrival_vt},\"wall_ns\":{wall_ns}}}}}",
                                us(vt_posted),
                                us(vt - vt_posted),
                            ),
                        );
                        if let Some(id) = flow_ids.get(&(pid, i)) {
                            push(
                                &mut out,
                                &mut first,
                                format!(
                                    "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\
                                     \"bp\":\"e\",\"id\":{id},\"ts\":{:.3},\
                                     \"pid\":{pid},\"tid\":1}}",
                                    us(vt),
                                ),
                            );
                        }
                    }
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Walk the send/receive dependency DAG backwards from the rank that
    /// finished last and report the virtual-time critical path: which
    /// phases the path's local segments ran under, and which
    /// sender→receiver edges it blocked on.
    ///
    /// The path's total equals [`RunTrace::elapsed_virtual`] by
    /// construction (it ends at the max clock), so it is always ≥ the
    /// max per-rank compute time — the [`crate::RunStats`] lower bound
    /// it is validated against.
    pub fn critical_path(&self, top_k: usize) -> CriticalPathReport {
        let pairs = self.pair_messages();
        let end_rank = (0..self.rank_times.len())
            .max_by(|&a, &b| {
                self.rank_times[a]
                    .partial_cmp(&self.rank_times[b])
                    .expect("clocks are never NaN")
            })
            .unwrap_or(0);

        let mut by_phase: HashMap<String, f64> = HashMap::new();
        let mut by_edge: HashMap<(usize, usize), f64> = HashMap::new();
        let mut wait_vt = 0.0f64;
        let mut hops = 0usize;

        // Attribute local interval [a, b] on `rank` to the phases active
        // over it (the phase entered latest before each point).
        let attribute_local = |by_phase: &mut HashMap<String, f64>, rank: usize, a: f64, b: f64| {
            if b <= a {
                return;
            }
            let events = &self.ranks[rank].events;
            // Phase entries at or before b, newest first.
            let mut cursor = b;
            let mut entries: Vec<(f64, String)> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Phase {
                        kind, label, vt, ..
                    } if *vt < b => Some((
                        *vt,
                        if label.is_empty() {
                            kind.name().to_string()
                        } else {
                            format!("{kind}:{}", label.as_str())
                        },
                    )),
                    _ => None,
                })
                .collect();
            entries.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("clocks are never NaN"));
            while let Some((vt, name)) = entries.pop() {
                if cursor <= a {
                    break;
                }
                let lo = vt.max(a);
                if lo < cursor {
                    *by_phase.entry(name).or_default() += cursor - lo;
                    cursor = lo;
                }
            }
            if cursor > a {
                *by_phase.entry("(untracked)".to_string()).or_default() += cursor - a;
            }
        };

        let mut rank = end_rank;
        let mut t = self.rank_times.get(end_rank).copied().unwrap_or(0.0);
        // Each hop consumes at least one receive event, so the total
        // event count bounds the walk even on degenerate clocks.
        let max_hops = self.total_events() + 1;
        loop {
            // Latest blocking receive at or before t on this rank.
            let blocking = self.ranks[rank]
                .events
                .iter()
                .enumerate()
                .rev()
                .find_map(|(i, e)| match *e {
                    TraceEvent::Recv {
                        from,
                        vt_posted,
                        arrival_vt,
                        vt,
                        ..
                    } if vt <= t && arrival_vt > vt_posted => {
                        Some((i, from as usize, vt_posted, arrival_vt))
                    }
                    _ => None,
                });
            match blocking {
                None => {
                    attribute_local(&mut by_phase, rank, 0.0, t);
                    break;
                }
                Some((idx, from, vt_posted, arrival_vt)) => {
                    // Local work after the message landed (includes the
                    // receive overhead — substrate cost on this rank).
                    attribute_local(&mut by_phase, rank, arrival_vt, t);
                    hops += 1;
                    match pairs.get(&(rank, idx)) {
                        Some(&(srank, sidx)) => {
                            // The edge's path contribution is the
                            // message *transit* (send → arrival). The
                            // receiver may have stalled far longer
                            // (since `vt_posted`), but that stall
                            // overlaps the sender's concurrent work —
                            // charging it would double-count and is how
                            // "blocked" time once exceeded the total.
                            let svt = self.ranks[srank].events[sidx].vt();
                            let wait = (arrival_vt - svt).max(0.0);
                            wait_vt += wait;
                            *by_edge.entry((from, rank)).or_default() += wait;
                            rank = srank;
                            t = svt;
                        }
                        None => {
                            // Pair lost to ring wrap: the sender's
                            // timeline is gone, so fall back to the
                            // receiver's stall and stay on this rank.
                            let wait = arrival_vt - vt_posted;
                            wait_vt += wait;
                            *by_edge.entry((from, rank)).or_default() += wait;
                            attribute_local(&mut by_phase, rank, 0.0, vt_posted);
                            break;
                        }
                    }
                    if hops >= max_hops {
                        break;
                    }
                }
            }
        }

        let total_vt = self.rank_times.get(end_rank).copied().unwrap_or(0.0);
        let mut top_phases: Vec<(String, f64)> = by_phase.into_iter().collect();
        top_phases.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("never NaN")
                .then(a.0.cmp(&b.0))
        });
        top_phases.truncate(top_k);
        let mut top_edges: Vec<(usize, usize, f64)> =
            by_edge.into_iter().map(|((f, t), w)| (f, t, w)).collect();
        top_edges.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .expect("never NaN")
                .then((a.0, a.1).cmp(&(b.0, b.1)))
        });
        top_edges.truncate(top_k);

        CriticalPathReport {
            total_vt,
            wait_vt,
            local_vt: total_vt - wait_vt,
            end_rank,
            hops,
            top_phases,
            top_edges,
        }
    }
}

/// Minimal JSON string escaping for labels (phase labels are the only
/// free-form text that reaches the exporter).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// What [`RunTrace::critical_path`] found: the virtual-time path ending
/// at the slowest rank, decomposed into local work (attributed to
/// phases) and message transit (attributed to edges).
#[derive(Clone, Debug)]
pub struct CriticalPathReport {
    /// Length of the path = the run's elapsed virtual time.
    pub total_vt: f64,
    /// Virtual time the path spent in flight on messages (send →
    /// arrival transit of each crossed edge; a receiver's longer stall
    /// overlaps its sender's concurrent work and is deliberately not
    /// counted — it would double-count path time).
    pub wait_vt: f64,
    /// Virtual time the path spent in local work (`total - wait`).
    pub local_vt: f64,
    /// The rank whose final clock ends the path.
    pub end_rank: usize,
    /// Number of cross-rank hops (blocking receives) on the path.
    pub hops: usize,
    /// Top-k phases by local virtual time on the path, descending.
    pub top_phases: Vec<(String, f64)>,
    /// Top-k `(sender, receiver, wait_vt)` edges by wait time, descending.
    pub top_edges: Vec<(usize, usize, f64)>,
}

impl std::fmt::Display for CriticalPathReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "critical path: {:.6}s virtual (local {:.6}s, in flight {:.6}s), \
             {} hop(s), ends at rank {}",
            self.total_vt, self.local_vt, self.wait_vt, self.hops, self.end_rank
        )?;
        writeln!(f, "  top phases on the path:")?;
        for (name, vt) in &self.top_phases {
            writeln!(f, "    {vt:>12.6}s  {name}")?;
        }
        writeln!(f, "  top blocking edges:")?;
        for (from, to, vt) in &self.top_edges {
            writeln!(f, "    {vt:>12.6}s  rank {from} \u{2192} rank {to}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anchor() -> Instant {
        Instant::now()
    }

    #[test]
    fn labels_truncate_at_char_boundaries() {
        let l = Label::from("short");
        assert_eq!(l.as_str(), "short");
        let long = "x".repeat(40);
        assert_eq!(Label::from(long.as_str()).as_str(), &long[..LABEL_BYTES]);
        // Multi-byte char straddling the cut must be dropped whole.
        let tricky = format!("{}é", "a".repeat(LABEL_BYTES - 1));
        let t = Label::from(tricky.as_str());
        assert_eq!(t.as_str(), &"a".repeat(LABEL_BYTES - 1));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = TraceRecorder::new(3, anchor());
        for i in 0..5u64 {
            r.record(TraceEvent::Collective {
                name: "barrier",
                vt: i as f64,
                wall_ns: i,
            });
        }
        let t = r.into_rank_trace(0);
        assert_eq!(t.dropped, 2);
        let vts: Vec<f64> = t.events.iter().map(TraceEvent::vt).collect();
        assert_eq!(vts, vec![2.0, 3.0, 4.0]);
    }

    fn phase(kind: PhaseKind, label: &str, vt: f64) -> TraceEvent {
        TraceEvent::Phase {
            kind,
            label: Label::from(label),
            vt,
            wall_ns: 0,
        }
    }

    #[test]
    fn records_in_order() {
        let mut r = TraceRecorder::new(8, anchor());
        r.record(phase(PhaseKind::Solve, "local sort", 0.0));
        r.record(TraceEvent::Collective {
            name: "all_to_all",
            vt: 1.0,
            wall_ns: 0,
        });
        r.record(phase(PhaseKind::Merge, "merge", 2.0));
        let phases = r.into_rank_trace(0).phases().expect("nothing dropped");
        let kinds: Vec<PhaseKind> = phases.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, [PhaseKind::Solve, PhaseKind::Merge]);
        assert_eq!(phases[0].1.as_str(), "local sort");
    }

    #[test]
    fn counts_by_kind() {
        use PhaseKind::{GridOp, Io, Reduction};
        let mut r = TraceRecorder::new(8, anchor());
        for (kind, vt) in [(GridOp, 0.0), (GridOp, 1.0), (Reduction, 2.0)] {
            r.record(phase(kind, "", vt));
        }
        let phases = r.into_rank_trace(0).phases().expect("nothing dropped");
        let count = |kind| phases.iter().filter(|(k, _)| *k == kind).count();
        assert_eq!(count(GridOp), 2);
        assert_eq!(count(Reduction), 1);
        assert_eq!(count(Io), 0);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        // Every rank records into its own ring, with no lock: four
        // ranks recording at once lose nothing and mix nothing.
        let out = crate::run_spmd_with(
            4,
            crate::MachineModel::zero_comm(),
            crate::RunConfig::traced(),
            |ctx| {
                for _ in 0..100 {
                    ctx.trace_phase(PhaseKind::GridOp, "x");
                }
            },
        );
        let trace = out.trace.expect("traced run");
        for rt in &trace.ranks {
            let phases = rt.phases().expect("nothing dropped");
            assert_eq!(phases.len(), 100, "rank {}", rt.rank);
            assert!(phases
                .iter()
                .all(|(k, l)| *k == PhaseKind::GridOp && l.as_str() == "x"));
        }
    }

    #[test]
    fn phases_refuse_a_track_that_dropped_events() {
        let mut r = TraceRecorder::new(2, anchor());
        for vt in 0..3 {
            r.record(phase(PhaseKind::Work, "", vt as f64));
        }
        let err = r.into_rank_trace(5).phases().unwrap_err();
        assert_eq!(
            err,
            TraceIncomplete {
                rank: 5,
                dropped: 1
            }
        );
        assert!(err.to_string().contains("trace_capacity"), "{err}");
    }

    #[test]
    fn logical_events_zero_wall_only() {
        let e = TraceEvent::Send {
            to: 1,
            scope: 0,
            tag: 7,
            bytes: 64,
            vt: 1.5,
            arrival_vt: 1.6,
            wall_ns: 12345,
        };
        match e.logical() {
            TraceEvent::Send {
                wall_ns, vt, tag, ..
            } => {
                assert_eq!(wall_ns, 0);
                assert_eq!(vt, 1.5);
                assert_eq!(tag, 7);
            }
            _ => unreachable!(),
        }
    }

    /// Hand-built two-rank trace: rank 0 computes then sends; rank 1
    /// blocks on the receive. The critical path must cross the edge.
    fn two_rank_trace() -> RunTrace {
        let send = TraceEvent::Send {
            to: 1,
            scope: 0,
            tag: 9,
            bytes: 8,
            vt: 5.0,
            arrival_vt: 6.0,
            wall_ns: 1,
        };
        let recv = TraceEvent::Recv {
            from: 0,
            scope: 0,
            tag: 9,
            bytes: 8,
            vt_posted: 1.0,
            arrival_vt: 6.0,
            vt: 6.5,
            wall_ns: 2,
        };
        let phase0 = TraceEvent::Phase {
            kind: PhaseKind::Work,
            label: Label::from("producer"),
            vt: 0.0,
            wall_ns: 0,
        };
        RunTrace {
            ranks: vec![
                RankTrace {
                    rank: 0,
                    events: vec![phase0, send],
                    dropped: 0,
                },
                RankTrace {
                    rank: 1,
                    events: vec![recv],
                    dropped: 0,
                },
            ],
            rank_times: vec![5.0, 7.0],
            elapsed_virtual: 7.0,
        }
    }

    #[test]
    fn critical_path_crosses_the_blocking_edge() {
        let trace = two_rank_trace();
        let report = trace.critical_path(5);
        assert_eq!(report.end_rank, 1);
        assert!((report.total_vt - 7.0).abs() < 1e-12);
        assert_eq!(report.hops, 1);
        // The edge costs the message transit (send at 5.0, arrival at
        // 6.0) — not the receiver's stall since 1.0, which overlaps the
        // producer's concurrent work.
        assert!((report.wait_vt - 1.0).abs() < 1e-12);
        assert!((report.local_vt - 6.0).abs() < 1e-12);
        // Edge 0→1 dominates the waits.
        assert_eq!(report.top_edges[0].0, 0);
        assert_eq!(report.top_edges[0].1, 1);
        // The producer's phase appears in the local attribution.
        assert!(report
            .top_phases
            .iter()
            .any(|(name, _)| name == "work:producer"));
        // Never below the max per-rank "compute" (here: everything).
        assert!(report.total_vt >= trace.elapsed_virtual - 1e-12);
    }

    #[test]
    fn chrome_json_has_tracks_and_matched_flows() {
        let trace = two_rank_trace();
        let json = trace.chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("rank 0"));
        assert!(json.contains("rank 1"));
        let starts = json.matches("\"ph\":\"s\"").count();
        let finishes = json.matches("\"ph\":\"f\"").count();
        assert_eq!(starts, 1, "one matched pair -> one flow start");
        assert_eq!(starts, finishes, "flow starts and finishes must pair");
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }
}
