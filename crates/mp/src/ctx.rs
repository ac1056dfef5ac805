//! Per-rank execution context: the handle an SPMD process uses to send,
//! receive, and charge compute time against the virtual clock.

use std::sync::Arc;

use crate::fault::{CrashSite, FaultPlan, InjectedCrash, RankDead};
use crate::mailbox::Mailbox;
use crate::model::MachineModel;
use crate::packet::{Packet, PacketBody};
use crate::payload::{Payload, PayloadArena, Shared};
use crate::stats::RankStats;
use crate::trace::{TraceEvent, TraceRecorder};
use crate::transport::{publish_fence, SpscSender};

/// Message tag. Tags with the top bit set are reserved for collectives.
pub type Tag = u64;

pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 63;

/// The per-rank handle passed to the SPMD body by [`crate::run_spmd`].
///
/// One `Ctx` is owned by exactly one thread; interior state (the clock,
/// statistics, the collective sequence number) therefore needs no locking.
/// Each `Ctx` owns the send sides of its outgoing channels, so if a rank
/// panics, peers blocked on a receive from it observe channel closure and
/// fail fast with a "rank terminated" diagnostic instead of deadlocking.
pub struct Ctx {
    rank: usize,
    nprocs: usize,
    /// `senders[dest]` is the link on which *this* rank sends to `dest`:
    /// only this rank's thread ever pushes on it, which is the
    /// single-producer contract [`Ctx::push`] relies on.
    senders: Vec<SpscSender<Packet>>,
    mailbox: Mailbox,
    /// This rank's payload-box freelist: `send` allocates from it,
    /// `recv` returns emptied blocks to it, and it travels with the
    /// mailbox through the network-recycle cache so steady-state
    /// messaging allocates nothing (see
    /// [`PayloadArena`](crate::payload::PayloadArena)'s ownership rules).
    arena: PayloadArena,
    model: MachineModel,
    clock: f64,
    stats: RankStats,
    /// Sequence number stamped into collective tags so that back-to-back
    /// collectives cannot confuse each other's messages.
    pub(crate) coll_seq: u64,
    /// Declared per-process working set, feeding the memory-pressure model.
    working_set_bytes: f64,
    /// Scope id stamped into outgoing packets and required of matching
    /// receives: `0` at the world, a member-list-derived hash inside a
    /// [`Ctx::scoped`] section. Sibling scopes therefore cannot observe
    /// each other's traffic even when their tags collide.
    scope: u64,
    /// `peers[local]` is the *world* rank behind local rank `local` in the
    /// current scope — the mailbox's channels are indexed by world rank,
    /// so scoped receives translate through this table. Identity at the
    /// world.
    peers: Vec<usize>,
    /// Shared fault schedule installed by [`crate::run_spmd_ft`]; `None`
    /// (the default) keeps every injection hook to a single branch.
    fault: Option<Arc<FaultPlan>>,
    /// Precomputed [`FaultPlan::hooks_live`] of the installed plan: false
    /// for no plan *and* for an inert plan, so idle fault-aware runs skip
    /// the per-operation hooks (and their counters) entirely and pay
    /// exactly one predictable branch per send/receive.
    fault_hot: bool,
    /// Per-rank event recorder installed by the runner for traced runs
    /// ([`crate::RunConfig`]`::traced`); `None` — the default — keeps
    /// every trace hook to a single branch. Boxed so the untraced `Ctx`
    /// carries one pointer, not a ring buffer.
    tracer: Option<Box<TraceRecorder>>,
    /// Precomputed `tracer.is_some()`, mirroring `fault_hot`: the hot
    /// path tests one bool instead of matching on the `Option`.
    trace_hot: bool,
    /// Operation counters keying the crash schedule: world-rank-local
    /// indices of sends, receives, and [`Ctx::fault_point`] calls. They
    /// deliberately survive [`Ctx::scoped`] sections — a crash site
    /// addresses the rank's k-th operation of the whole run.
    send_ops: u64,
    recv_ops: u64,
    phase_ops: u64,
}

impl Ctx {
    pub(crate) fn new(
        rank: usize,
        nprocs: usize,
        senders: Vec<SpscSender<Packet>>,
        mailbox: Mailbox,
        arena: PayloadArena,
        model: MachineModel,
    ) -> Self {
        Ctx {
            rank,
            nprocs,
            senders,
            mailbox,
            arena,
            model,
            clock: 0.0,
            stats: RankStats::default(),
            coll_seq: 0,
            working_set_bytes: 0.0,
            scope: 0,
            peers: (0..nprocs).collect(),
            fault: None,
            fault_hot: false,
            tracer: None,
            trace_hot: false,
            send_ops: 0,
            recv_ops: 0,
            phase_ops: 0,
        }
    }

    /// Install the shared fault schedule (called by [`crate::run_spmd_ft`]
    /// before the body runs).
    pub(crate) fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_hot = plan.hooks_live();
        self.fault = Some(plan);
    }

    /// Install the per-rank event recorder (called by the runner before
    /// the body runs when the [`crate::RunConfig`] asks for tracing).
    pub(crate) fn install_tracer(&mut self, tracer: Box<TraceRecorder>) {
        self.trace_hot = true;
        self.tracer = Some(tracer);
    }

    /// Remove and return the recorder (called by the runner after the
    /// body completes, before the network is recycled).
    pub(crate) fn take_tracer(&mut self) -> Option<Box<TraceRecorder>> {
        self.trace_hot = false;
        self.tracer.take()
    }

    /// True when this run is recording trace events — lets callers skip
    /// building expensive labels for untraced runs.
    pub fn is_traced(&self) -> bool {
        self.trace_hot
    }

    /// Record a trace event. Callers gate on `trace_hot`, so the unwrap
    /// of the recorder never fires on the untraced path.
    #[inline]
    fn trace(&mut self, event: TraceEvent) {
        let rec = self.tracer.as_mut().expect("trace_hot implies a recorder");
        rec.record(event);
    }

    /// Nanoseconds since the run's dispatch instant (traced runs only).
    #[inline]
    fn trace_wall_ns(&self) -> u64 {
        self.tracer
            .as_ref()
            .expect("trace_hot implies a recorder")
            .wall_ns()
    }

    /// Record entry into an archetype protocol phase. One branch and
    /// nothing else when the run is untraced, so skeletons call it
    /// unconditionally; `label` is truncated to the inline
    /// [`crate::trace::Label`] capacity without allocating.
    pub fn trace_phase(&mut self, kind: &'static str, label: &str) {
        if !self.trace_hot {
            return;
        }
        let event = TraceEvent::Phase {
            kind,
            label: label.into(),
            vt: self.clock,
            wall_ns: self.trace_wall_ns(),
        };
        self.trace(event);
    }

    /// Record the start of a plan-service wave (called by the compose
    /// layer's serve loop). A no-op for untraced runs.
    pub fn trace_wave_start(&mut self, wave: usize, plans: usize) {
        if !self.trace_hot {
            return;
        }
        let event = TraceEvent::WaveStart {
            wave: wave as u32,
            plans: plans as u32,
            vt: self.clock,
            wall_ns: self.trace_wall_ns(),
        };
        self.trace(event);
    }

    /// Record entry into a collective (called at the top of every
    /// collective in [`crate::collectives`]).
    pub(crate) fn trace_collective(&mut self, name: &'static str) {
        if !self.trace_hot {
            return;
        }
        let event = TraceEvent::Collective {
            name,
            vt: self.clock,
            wall_ns: self.trace_wall_ns(),
        };
        self.trace(event);
    }

    /// Record the rank's dispatch onto its worker (runner-internal;
    /// always the first event of a traced rank).
    pub(crate) fn trace_pool_dispatch(&mut self) {
        if !self.trace_hot {
            return;
        }
        let event = TraceEvent::PoolDispatch {
            vt: self.clock,
            wall_ns: self.trace_wall_ns(),
        };
        self.trace(event);
    }

    /// The active fault schedule, if this run is executing under
    /// [`crate::run_spmd_ft`]. Recovery choreography (the pipeline's
    /// replica failover, the farm's re-execution protocol) consults the
    /// shared plan so that every rank derives the same failure schedule
    /// without extra communication.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// This process's rank in `0..nprocs()` — within the current scope
    /// (see [`Ctx::scoped`]); equal to the world rank outside any scope.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of SPMD processes in the current scope (the whole run
    /// outside any [`Ctx::scoped`] section).
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// This process's rank in the *world*, regardless of how deeply the
    /// context is currently scoped.
    pub fn global_rank(&self) -> usize {
        self.peers[self.rank]
    }

    /// World ranks of the current scope's members, indexed by scope rank.
    pub fn peers(&self) -> &[usize] {
        &self.peers
    }

    /// The machine model driving the virtual clock.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Current virtual time of this rank, in seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Statistics accumulated so far by this rank.
    pub fn stats(&self) -> RankStats {
        self.stats
    }

    /// Declare the per-process working set (bytes). Subsequent compute
    /// charges are scaled by the machine's memory model — see
    /// [`crate::MemoryModel`] — reproducing paging effects.
    pub fn set_working_set(&mut self, bytes: f64) {
        self.working_set_bytes = bytes;
    }

    /// Advance the virtual clock by `seconds` of computation (already
    /// scaled; not subject to the memory model).
    pub fn charge_seconds(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0, "negative compute charge");
        self.clock += seconds;
        self.stats.compute_time += seconds;
    }

    /// Charge `flops` flop-equivalents of computation, scaled by the
    /// memory-pressure model for the declared working set.
    ///
    /// ```
    /// use archetype_mp::{run_spmd, MachineModel};
    ///
    /// // 1e8 flops on a 100 Mflop/s machine is one virtual second.
    /// let out = run_spmd(1, MachineModel::ibm_sp(), |ctx| {
    ///     ctx.charge_flops(1.0e8);
    ///     ctx.now()
    /// });
    /// assert!((out.results[0] - 1.0).abs() < 1e-12);
    /// ```
    pub fn charge_flops(&mut self, flops: f64) {
        let slow = self.model.memory.slowdown(self.working_set_bytes);
        self.charge_seconds(self.model.compute_time(flops) * slow);
    }

    /// Convenience: charge `items × flops_per_item` flop-equivalents.
    pub fn charge_items(&mut self, items: usize, flops_per_item: f64) {
        self.charge_flops(items as f64 * flops_per_item);
    }

    /// Charge send-side costs and put a packet on the wire to `to`.
    fn send_packet(&mut self, to: usize, tag: Tag, bytes: usize, body: PacketBody) {
        self.try_send_packet(to, tag, bytes, body)
            .expect("receiving rank's mailbox closed (rank panicked?)");
    }

    /// Like [`Ctx::send_packet`], but reports a dead destination instead
    /// of panicking (the fault-tolerant protocols' send primitive).
    fn try_send_packet(
        &mut self,
        to: usize,
        tag: Tag,
        bytes: usize,
        body: PacketBody,
    ) -> Result<(), RankDead> {
        self.try_send_packet_inner(to, tag, bytes, body, false)
    }

    /// Shared implementation of the loud and quiet send paths. `quiet`
    /// publishes without the per-message fence/wake handshake — the
    /// fan-out collectives' batching hook (see [`Ctx::finish_fanout`]);
    /// all clock/stats accounting is identical either way, which is what
    /// keeps batched fan-outs bit-identical to per-message sends.
    fn try_send_packet_inner(
        &mut self,
        to: usize,
        tag: Tag,
        bytes: usize,
        body: PacketBody,
        quiet: bool,
    ) -> Result<(), RankDead> {
        assert!(to < self.nprocs, "send to rank {to} out of range");
        let mut arrival_time = self.clock + self.model.wire_time(bytes);
        if self.fault_hot {
            arrival_time += self.fault_send_hook(to, tag);
        }
        self.clock += self.model.send_overhead;
        self.stats.overhead_time += self.model.send_overhead;
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        let dest = self.peers[to];
        if self.trace_hot {
            let event = TraceEvent::Send {
                to: dest as u32,
                scope: self.scope,
                tag,
                bytes: bytes as u64,
                vt: self.clock,
                arrival_vt: arrival_time,
                wall_ns: self.trace_wall_ns(),
            };
            self.trace(event);
        }
        let pkt = Packet {
            from: self.rank,
            scope: self.scope,
            tag,
            bytes,
            arrival_time,
            body,
        };
        self.push(to, pkt, quiet)
            .map_err(|_| RankDead { rank: dest })
    }

    /// Put `pkt` on the link to scope rank `to` — the one place a mesh
    /// link is pushed. `quiet` skips the per-message fence/wake (see
    /// [`Ctx::finish_fanout`]). Hands the packet back when the
    /// destination's mailbox has been torn down.
    fn push(&mut self, to: usize, pkt: Packet, quiet: bool) -> Result<(), Packet> {
        let tx = &self.senders[to];
        // SAFETY: sends on one link never run concurrently. Every handle
        // of link `(src, dst)` lives in rank `src`'s `Ctx` — the runner
        // gives each rank its own row of the mesh and `Ctx::scoped`
        // clones only into `self.senders` — and `&mut self` makes pushes
        // through one `Ctx` exclusive. Between runs a recycled network
        // changes hands through the runner's cache mutex and the pool's
        // dispatch, which order the previous owner's pushes before ours.
        unsafe {
            if quiet {
                tx.send_publish(pkt)
            } else {
                tx.send(pkt)
            }
        }
    }

    /// Quiet variant of [`Ctx::send`] for fan-out loops: publishes the
    /// message without the per-message wake handshake. The caller must
    /// invoke [`Ctx::finish_fanout`] over the same destinations before
    /// blocking on anything.
    pub(crate) fn send_quiet<T: Payload>(&mut self, to: usize, tag: Tag, value: T) {
        let bytes = value.size_bytes();
        let body = PacketBody::Owned(self.arena.alloc_box(value));
        self.try_send_packet_inner(to, tag, bytes, body, true)
            .expect("receiving rank's mailbox closed (rank panicked?)");
    }

    /// Quiet variant of [`Ctx::send_shared`] (see [`Ctx::send_quiet`]).
    pub(crate) fn send_shared_quiet<T: Payload + Sync>(
        &mut self,
        to: usize,
        tag: Tag,
        value: &Shared<T>,
    ) {
        let bytes = value.size_bytes();
        let arc = std::sync::Arc::clone(value.as_arc());
        self.try_send_packet_inner(to, tag, bytes, PacketBody::Shared(arc), true)
            .expect("receiving rank's mailbox closed (rank panicked?)");
    }

    /// Complete a batch of quiet sends: one publication fence for the
    /// whole fan-out, then one parked-flag check per destination. A
    /// fan-out of k messages thus pays 1 fence + k flag reads instead of
    /// k fences + k flag reads.
    pub(crate) fn finish_fanout(&mut self, dests: impl Iterator<Item = usize>) {
        publish_fence();
        for to in dests {
            self.senders[to].wake();
        }
    }

    /// Fault hooks on the send path: count the operation, fire a
    /// scheduled crash, and return the injected extra latency (0.0 for
    /// most messages). Only called when a plan is installed.
    fn fault_send_hook(&mut self, to: usize, tag: Tag) -> f64 {
        let op = self.send_ops;
        self.send_ops += 1;
        let me = self.peers[self.rank];
        let delay = {
            let plan = self.fault.as_ref().expect("fault plan installed");
            let site = CrashSite::Send(op);
            if plan.crash_hits(me, site) {
                std::panic::panic_any(InjectedCrash {
                    rank: me,
                    clock: self.clock,
                    stats: self.stats,
                    site,
                });
            }
            plan.delay_of(me, self.peers[to], tag, op)
        };
        if delay > 0.0 {
            self.stats.fault_events += 1;
        }
        delay
    }

    /// Fault hooks on the receive path: count the operation and fire a
    /// scheduled crash. Only called when a plan is installed.
    fn fault_recv_hook(&mut self) {
        let op = self.recv_ops;
        self.recv_ops += 1;
        let me = self.peers[self.rank];
        let site = CrashSite::Recv(op);
        if self
            .fault
            .as_ref()
            .expect("fault plan installed")
            .crash_hits(me, site)
        {
            std::panic::panic_any(InjectedCrash {
                rank: me,
                clock: self.clock,
                stats: self.stats,
                site,
            });
        }
    }

    /// Declare a protocol phase boundary — the crash sites recovery
    /// choreography can reason about. Archetype skeletons call this once
    /// per unit of protocol progress (a farm batch, a pipeline item); a
    /// [`FaultPlan`] with a matching [`CrashSite::Phase`] entry kills the
    /// rank here with a real panic. A no-op without an installed plan.
    pub fn fault_point(&mut self) {
        if !self.fault_hot {
            return;
        }
        let op = self.phase_ops;
        self.phase_ops += 1;
        let me = self.peers[self.rank];
        let site = CrashSite::Phase(op);
        if self
            .fault
            .as_ref()
            .expect("fault plan installed")
            .crash_hits(me, site)
        {
            std::panic::panic_any(InjectedCrash {
                rank: me,
                clock: self.clock,
                stats: self.stats,
                site,
            });
        }
    }

    /// Advance the clock past a received packet's arrival and charge
    /// receive-side overhead. Waiting (the clock jump) and the CPU
    /// overhead are charged to separate counters so profiling can tell
    /// blocked-on-peer from substrate cost.
    fn settle_recv(&mut self, arrival_time: f64) {
        if arrival_time > self.clock {
            self.stats.wait_time += arrival_time - self.clock;
            self.clock = arrival_time;
        }
        self.clock += self.model.recv_overhead;
        self.stats.overhead_time += self.model.recv_overhead;
    }

    /// Record a completed receive: `vt_posted` is the clock captured
    /// before matching, everything else comes from the settled packet.
    fn trace_recv(&mut self, sender_world: usize, pkt: &Packet, vt_posted: f64) {
        let event = TraceEvent::Recv {
            from: sender_world as u32,
            scope: pkt.scope,
            tag: pkt.tag,
            bytes: pkt.bytes as u64,
            vt_posted,
            arrival_vt: pkt.arrival_time,
            vt: self.clock,
            wall_ns: self.trace_wall_ns(),
        };
        self.trace(event);
    }

    /// Block for the next matching packet and charge receive-side costs.
    fn recv_packet(&mut self, from: usize, tag: Tag) -> Packet {
        assert!(from < self.nprocs, "recv from rank {from} out of range");
        if self.fault_hot {
            self.fault_recv_hook();
        }
        let vt_posted = self.clock;
        let sender = self.peers[from];
        let pkt = self.mailbox.recv_matching(sender, self.scope, tag);
        self.settle_recv(pkt.arrival_time);
        if self.trace_hot {
            self.trace_recv(sender, &pkt, vt_posted);
        }
        pkt
    }

    /// Like [`Ctx::recv_packet`], but returns `Err` when `from`'s rank has
    /// died with no matching message in flight. No receive-side time is
    /// charged on the error path — the caller models its own detection
    /// timeout, keeping clocks deterministic.
    fn try_recv_packet(&mut self, from: usize, tag: Tag) -> Result<Packet, RankDead> {
        assert!(from < self.nprocs, "recv from rank {from} out of range");
        if self.fault_hot {
            self.fault_recv_hook();
        }
        let vt_posted = self.clock;
        let sender = self.peers[from];
        let pkt = self
            .mailbox
            .try_recv_matching(sender, self.scope, tag)
            .map_err(|_| RankDead { rank: sender })?;
        self.settle_recv(pkt.arrival_time);
        if self.trace_hot {
            self.trace_recv(sender, &pkt, vt_posted);
        }
        Ok(pkt)
    }

    #[cold]
    fn type_mismatch<T>(&self, from: usize, tag: Tag) -> ! {
        panic!(
            "type mismatch receiving (from={from}, tag={tag}) at rank {}: expected {}",
            self.rank,
            std::any::type_name::<T>()
        )
    }

    /// Send `value` to rank `to` with tag `tag`. Non-blocking (buffered),
    /// like an eager-protocol MPI send; costs this rank `send_overhead`
    /// of virtual time and stamps the packet's arrival time.
    ///
    /// ```
    /// use archetype_mp::{run_spmd, MachineModel};
    ///
    /// // Rank 0 sends a vector; rank 1 returns its sum.
    /// let out = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
    ///     if ctx.rank() == 0 {
    ///         ctx.send(1, 7, vec![1i64, 2, 3]);
    ///         0
    ///     } else {
    ///         ctx.recv::<Vec<i64>>(0, 7).iter().sum()
    ///     }
    /// });
    /// assert_eq!(out.results[1], 6);
    /// ```
    pub fn send<T: Payload>(&mut self, to: usize, tag: Tag, value: T) {
        let bytes = value.size_bytes();
        let body = PacketBody::Owned(self.arena.alloc_box(value));
        self.send_packet(to, tag, bytes, body);
    }

    /// Send the payload behind `value` to rank `to` without copying it:
    /// the packet carries a refcounted handle to the same allocation. The
    /// virtual-time cost is identical to [`Ctx::send`] — the simulated
    /// wire still moves every byte — only host copy work is elided. The
    /// receiver must use [`Ctx::recv_shared`].
    pub fn send_shared<T: Payload + Sync>(&mut self, to: usize, tag: Tag, value: &Shared<T>) {
        let bytes = value.size_bytes();
        let arc = std::sync::Arc::clone(value.as_arc());
        self.send_packet(to, tag, bytes, PacketBody::Shared(arc));
    }

    /// Blocking receive of a `T` from rank `from` with tag `tag`.
    ///
    /// Advances the virtual clock to the message arrival time if the
    /// message "arrives in the future", then adds receive overhead.
    ///
    /// # Panics
    /// Panics if the matched message's payload is not a `T` — that is a
    /// protocol bug in the SPMD program — or if the message was sent with
    /// [`Ctx::send_shared`] (receive those with [`Ctx::recv_shared`]).
    pub fn recv<T: Payload>(&mut self, from: usize, tag: Tag) -> T {
        let pkt = self.recv_packet(from, tag);
        match pkt.body {
            PacketBody::Owned(b) => match b.downcast::<T>() {
                // Moving the value out hands the emptied box to this
                // rank's arena — the "freelists returned on recv" half
                // of the allocation-free steady state.
                Ok(v) => self.arena.reclaim(v),
                Err(_) => self.type_mismatch::<T>(from, tag),
            },
            PacketBody::Shared(_) => panic!(
                "rank {}: message (from={from}, tag={tag}) was sent with send_shared; \
                 receive it with recv_shared",
                self.rank
            ),
        }
    }

    /// Blocking receive of a shared payload from rank `from` with tag
    /// `tag`. Accepts messages sent with either [`Ctx::send`] (the owned
    /// value is wrapped without copying) or [`Ctx::send_shared`].
    pub fn recv_shared<T: Payload + Sync>(&mut self, from: usize, tag: Tag) -> Shared<T> {
        let pkt = self.recv_packet(from, tag);
        match pkt.body {
            PacketBody::Shared(arc) => match arc.downcast::<T>() {
                Ok(a) => Shared::from_arc(a),
                Err(_) => self.type_mismatch::<T>(from, tag),
            },
            PacketBody::Owned(b) => match b.downcast::<T>() {
                Ok(v) => Shared::new(self.arena.reclaim(v)),
                Err(_) => self.type_mismatch::<T>(from, tag),
            },
        }
    }

    /// Fault-aware send: like [`Ctx::send`], but (a) a dead destination is
    /// reported as `Err(RankDead)` instead of a panic, and (b) an active
    /// [`FaultPlan`] may drop or duplicate the message on this channel.
    ///
    /// Drops are modeled as virtual retransmissions: each dropped attempt
    /// charges the plan's retransmit timeout to this rank's clock, and
    /// only the surviving copy is put on the wire (capped at
    /// [`crate::fault::MAX_SEND_ATTEMPTS`] attempts, so sends always
    /// terminate). Duplicates really transmit two copies; the matching
    /// [`Ctx::recv_ft`] evaluates the same pure decision function and
    /// discards the extra copy. Both endpoints therefore agree on the
    /// number of copies in flight without any extra communication — the
    /// property that keeps fault schedules deterministic. Because the
    /// drop/duplicate decision is keyed by `(sender, receiver, tag)`,
    /// callers must use per-message-unique tags (the FT protocols embed a
    /// sequence number — see [`crate::tags::ft_tag`]).
    pub fn send_ft<T: Payload + Clone>(
        &mut self,
        to: usize,
        tag: Tag,
        value: T,
    ) -> Result<(), RankDead> {
        let (drops, dup) = match &self.fault {
            Some(plan) if plan.message_faults_enabled() => {
                let me = self.peers[self.rank];
                let peer = self.peers[to];
                let mut attempt = 0u64;
                while plan.drop_at(me, peer, tag, attempt) {
                    attempt += 1;
                }
                (attempt, plan.dup_of(me, peer, tag))
            }
            _ => (0, false),
        };
        if drops > 0 {
            let timeout = self
                .fault
                .as_ref()
                .expect("drops imply an installed plan")
                .retransmit_timeout();
            let penalty = drops as f64 * timeout;
            self.clock += penalty;
            // Retransmission stalls are wait, not CPU overhead: the rank
            // sits out the modeled timeout exactly as it would a late
            // arrival.
            self.stats.wait_time += penalty;
            self.stats.fault_events += drops;
        }
        let bytes = value.size_bytes();
        // Both copies are always attempted (and charged) even if the first
        // fails: whether the receiver's mailbox has closed yet is a
        // real-time race, and an early return here would let that race
        // leak into the sender's clock and operation counters.
        let first = if dup {
            self.stats.fault_events += 1;
            let body = PacketBody::Owned(self.arena.alloc_box(value.clone()));
            self.try_send_packet(to, tag, bytes, body)
        } else {
            Ok(())
        };
        let body = PacketBody::Owned(self.arena.alloc_box(value));
        let second = self.try_send_packet(to, tag, bytes, body);
        first.and(second)
    }

    /// Fault-aware receive matching [`Ctx::send_ft`]: returns
    /// `Err(RankDead)` when `from`'s rank has terminated with no matching
    /// message in flight, and silently discards the second copy of a
    /// message the active [`FaultPlan`] duplicated. No receive-side time
    /// is charged on the error path — recovery protocols charge their own
    /// deterministic detection timeout instead.
    pub fn recv_ft<T: Payload>(&mut self, from: usize, tag: Tag) -> Result<T, RankDead> {
        let dup = match &self.fault {
            Some(plan) if plan.message_faults_enabled() => {
                plan.dup_of(self.peers[from], self.peers[self.rank], tag)
            }
            _ => false,
        };
        let pkt = self.try_recv_packet(from, tag)?;
        if dup {
            // The sender transmitted two copies; drain and drop the second.
            self.try_recv_packet(from, tag)?;
        }
        match pkt.body {
            PacketBody::Owned(b) => match b.downcast::<T>() {
                Ok(v) => Ok(self.arena.reclaim(v)),
                Err(_) => self.type_mismatch::<T>(from, tag),
            },
            PacketBody::Shared(_) => panic!(
                "rank {}: message (from={from}, tag={tag}) was sent with send_shared; \
                 receive it with recv_shared",
                self.rank
            ),
        }
    }

    /// Send to `to` and receive from `from` in one exchange step. The send
    /// is issued first, so symmetric exchanges (`sendrecv` with a partner)
    /// do not deadlock.
    pub fn sendrecv<T: Payload, U: Payload>(
        &mut self,
        to: usize,
        send_value: T,
        from: usize,
        tag: Tag,
    ) -> U {
        self.send(to, tag, send_value);
        self.recv(from, tag)
    }

    /// Narrow this context to a subset of the current scope's ranks and
    /// run `f` against the narrowed view: inside `f`, [`Ctx::rank`] /
    /// [`Ctx::nprocs`] describe the subset, point-to-point and collective
    /// operations address subset-local ranks, and **all** traffic — user
    /// tags, collectives, archetype protocols — is matched in a fresh
    /// scope derived from the member list, the parent scope, and `salt`.
    /// Disjoint sibling scopes therefore run *any* SPMD code
    /// concurrently without interfering, which is what lets whole
    /// archetype skeletons (`run_farm`, `run_pipeline`,
    /// `run_spmd_recursive`, mesh solvers) execute unchanged on a process
    /// subgroup — the substrate of the composition archetype in
    /// `crates/compose`.
    ///
    /// `members` lists the participating ranks as *current-scope* ranks,
    /// strictly increasing; every member must call `scoped` with the same
    /// list and `salt` (the usual SPMD contract, restricted to the
    /// subset). Non-members simply don't call. The clock, statistics, and
    /// working set carry across the boundary: virtual time spent inside
    /// the scope is this rank's time like any other.
    ///
    /// ```
    /// use archetype_mp::{run_spmd, MachineModel};
    ///
    /// // Halves run *different numbers* of collectives concurrently —
    /// // impossible on the world, routine inside disjoint scopes.
    /// let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
    ///     let half: Vec<usize> = if ctx.rank() < 2 { vec![0, 1] } else { vec![2, 3] };
    ///     let sum = ctx.scoped(&half, 7, |ctx| {
    ///         let rounds = if ctx.peers()[0] == 0 { 3 } else { 1 };
    ///         let mut acc = 0;
    ///         for _ in 0..rounds {
    ///             acc = ctx.all_reduce(ctx.global_rank() as u64, |a, b| a + b);
    ///         }
    ///         acc
    ///     });
    ///     ctx.all_reduce(sum, |a, b| a + b) // the world is intact afterwards
    /// });
    /// assert_eq!(out.results, vec![12, 12, 12, 12]); // 2*(0+1) + 2*(2+3)
    /// ```
    ///
    /// # Panics
    /// Panics if `members` is empty, not strictly increasing, out of
    /// range, or does not contain the calling rank.
    pub fn scoped<R>(&mut self, members: &[usize], salt: u64, f: impl FnOnce(&mut Ctx) -> R) -> R {
        assert!(!members.is_empty(), "a scope needs at least one member");
        for w in members.windows(2) {
            assert!(w[0] < w[1], "scope members must be strictly increasing");
        }
        assert!(
            *members.last().expect("nonempty") < self.nprocs,
            "scope member out of range"
        );
        let my_index = members
            .iter()
            .position(|&m| m == self.rank)
            .expect("the calling rank must be a member of the scope");

        let global: Vec<usize> = members.iter().map(|&m| self.peers[m]).collect();
        let sub_senders: Vec<SpscSender<Packet>> =
            members.iter().map(|&m| self.senders[m].clone()).collect();
        // Child scope id: FNV-1a over the parent scope, the salt, and the
        // members' world identities — so siblings (disjoint member lists),
        // nesting levels (different parents), and repeated sections over
        // the same members (different salts) all get distinct scopes.
        let mut h: u64 = 0xcbf29ce484222325 ^ self.scope;
        h = h.wrapping_mul(0x100000001b3);
        h ^= salt;
        h = h.wrapping_mul(0x100000001b3);
        for &g in &global {
            h ^= g as u64 + 1;
            h = h.wrapping_mul(0x100000001b3);
        }

        let saved_rank = std::mem::replace(&mut self.rank, my_index);
        let saved_nprocs = std::mem::replace(&mut self.nprocs, members.len());
        let saved_scope = std::mem::replace(&mut self.scope, h);
        let saved_seq = std::mem::replace(&mut self.coll_seq, 0);
        let saved_senders = std::mem::replace(&mut self.senders, sub_senders);
        let saved_peers = std::mem::replace(&mut self.peers, global);

        let out = f(self);

        self.rank = saved_rank;
        self.nprocs = saved_nprocs;
        self.scope = saved_scope;
        self.coll_seq = saved_seq;
        self.senders = saved_senders;
        self.peers = saved_peers;
        out
    }

    /// Dismantle the context, returning its channel endpoints and payload
    /// arena so the runner can recycle the network for the next
    /// `run_spmd` call.
    pub(crate) fn into_parts(self) -> (Vec<SpscSender<Packet>>, Mailbox, PayloadArena) {
        (self.senders, self.mailbox, self.arena)
    }

    /// Reserve a fresh tag namespace for a user-level communication phase
    /// (e.g. a ghost exchange). Like collectives, every rank must execute
    /// the same sequence of phase-tag reservations, which SPMD programs do
    /// by construction; the low 16 bits are free for sub-message numbering.
    pub fn phase_tag(&mut self) -> Tag {
        self.next_collective_tag()
    }

    pub(crate) fn next_collective_tag(&mut self) -> u64 {
        let t = COLLECTIVE_TAG_BASE | (self.coll_seq << 16);
        self.coll_seq += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use crate::model::MachineModel;
    use crate::runner::run_spmd;

    #[test]
    fn ping_pong_transfers_value_and_advances_clock() {
        let out = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![1i64, 2, 3]);
                ctx.recv::<Vec<i64>>(1, 2)
            } else {
                let v: Vec<i64> = ctx.recv(0, 1);
                let doubled: Vec<i64> = v.iter().map(|x| x * 2).collect();
                ctx.send(0, 2, doubled.clone());
                doubled
            }
        });
        assert_eq!(out.results[0], vec![2, 4, 6]);
        assert_eq!(out.results[1], vec![2, 4, 6]);
        // Round trip must cost at least two latencies.
        assert!(out.elapsed_virtual >= 2.0 * MachineModel::ibm_sp().latency);
    }

    #[test]
    fn receive_waits_for_computing_sender() {
        let m = MachineModel::zero_comm();
        let out = run_spmd(2, m, |ctx| {
            if ctx.rank() == 0 {
                ctx.charge_seconds(5.0);
                ctx.send(1, 0, 1u8);
                ctx.now()
            } else {
                let _: u8 = ctx.recv(0, 0);
                ctx.now()
            }
        });
        // Receiver did no compute but must still end at >= 5.0 virtual.
        assert!(out.results[1] >= 5.0);
    }

    #[test]
    fn bigger_messages_arrive_later() {
        let m = MachineModel::ibm_sp();
        let arrival = |n: usize| {
            run_spmd(2, m, move |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 0, vec![0u8; n]);
                    0.0
                } else {
                    let _: Vec<u8> = ctx.recv(0, 0);
                    ctx.now()
                }
            })
            .results[1]
        };
        assert!(arrival(1_000_000) > arrival(10));
    }

    #[test]
    fn sendrecv_symmetric_exchange_does_not_deadlock() {
        let out = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            let partner = 1 - ctx.rank();
            let got: u64 = ctx.sendrecv(partner, ctx.rank() as u64, partner, 7);
            got
        });
        assert_eq!(out.results, vec![1, 0]);
    }

    #[test]
    fn working_set_scales_compute_charges() {
        let m = MachineModel::ibm_sp_with_memory(1e6, 1.0);
        let out = run_spmd(1, m, |ctx| {
            ctx.charge_flops(1e6);
            let small = ctx.now();
            ctx.set_working_set(2e6); // 2x capacity -> slowdown 2
            ctx.charge_flops(1e6);
            (small, ctx.now())
        });
        let (small, total) = out.results[0];
        let second = total - small;
        assert!((second - 2.0 * small).abs() < 1e-9);
    }

    #[test]
    fn scoped_siblings_with_colliding_tags_stay_isolated() {
        // Both halves run the *same* program with the same tags — only
        // the scope ids differ. Every value observed must come from the
        // caller's own half.
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            let half: Vec<usize> = if ctx.rank() < 2 {
                vec![0, 1]
            } else {
                vec![2, 3]
            };
            let marker = (ctx.rank() / 2) as u64;
            let got = ctx.scoped(&half, 1, |ctx| {
                let partner = 1 - ctx.rank();
                // Extra unmatched-order traffic to stress the buffer.
                ctx.send(partner, 40, marker * 100);
                ctx.send(partner, 41, marker);
                let late: u64 = ctx.recv(partner, 41);
                let early: u64 = ctx.recv(partner, 40);
                (early, late)
            });
            let world = ctx.all_reduce(1u64, |a, b| a + b);
            (got, world)
        });
        for (r, ((early, late), world)) in out.results.iter().enumerate() {
            let m = (r / 2) as u64;
            assert_eq!((*early, *late), (m * 100, m), "rank {r}");
            assert_eq!(*world, 4);
        }
    }

    #[test]
    fn nested_scopes_translate_ranks_and_restore_the_parent() {
        let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            let half: Vec<usize> = if ctx.rank() < 4 {
                vec![0, 1, 2, 3]
            } else {
                vec![4, 5, 6, 7]
            };
            let (inner_sum, inner_peers) = ctx.scoped(&half, 2, |ctx| {
                assert_eq!(ctx.nprocs(), 4);
                let quarter: Vec<usize> = if ctx.rank() < 2 {
                    vec![0, 1]
                } else {
                    vec![2, 3]
                };
                ctx.scoped(&quarter, 3, |ctx| {
                    assert_eq!(ctx.nprocs(), 2);
                    let s = ctx.all_reduce(ctx.global_rank() as u64, |a, b| a + b);
                    (s, ctx.peers().to_vec())
                })
            });
            assert_eq!(ctx.nprocs(), 8, "world restored");
            assert_eq!(ctx.global_rank(), ctx.rank());
            (inner_sum, inner_peers)
        });
        for (r, (sum, peers)) in out.results.iter().enumerate() {
            let base = r - r % 2;
            assert_eq!(*sum, (base + base + 1) as u64, "rank {r}");
            assert_eq!(peers, &vec![base, base + 1], "rank {r}");
        }
    }

    #[test]
    fn repeated_scoped_sections_over_same_members_get_distinct_scopes() {
        // Two back-to-back sections over the same member list but
        // different salts: a send left pending from the first section
        // (matched later) must not satisfy the second section's receive.
        let out = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            let all = [0usize, 1];
            if ctx.rank() == 0 {
                ctx.scoped(&all, 10, |ctx| ctx.send(1, 9, 111u64));
                ctx.scoped(&all, 11, |ctx| ctx.send(1, 9, 222u64));
                0
            } else {
                // Receive the *second* section's message first.
                let b = ctx.scoped(&all, 11, |ctx| ctx.recv::<u64>(0, 9));
                let a = ctx.scoped(&all, 10, |ctx| ctx.recv::<u64>(0, 9));
                assert_eq!((a, b), (111, 222));
                a + b
            }
        });
        assert_eq!(out.results[1], 333);
    }

    #[test]
    #[should_panic(expected = "must be a member")]
    fn scoped_requires_membership() {
        run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 1 {
                ctx.scoped(&[0], 0, |_| ());
            }
        });
    }

    #[test]
    #[should_panic]
    fn type_mismatch_panics() {
        run_spmd(2, MachineModel::zero_comm(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, 1u32);
            } else {
                let _: u64 = ctx.recv(0, 0);
            }
        });
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let out = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0f64; 10]);
                ctx.send(1, 1, 3u8);
            } else {
                let _: Vec<f64> = ctx.recv(0, 0);
                let _: u8 = ctx.recv(0, 1);
            }
            ctx.stats()
        });
        assert_eq!(out.results[0].msgs_sent, 2);
        assert_eq!(out.results[0].bytes_sent, 81);
        assert_eq!(out.results[1].msgs_sent, 0);
        assert!(out.results[1].comm_time() > 0.0);
        assert!(out.results[1].overhead_time > 0.0);
    }
}
