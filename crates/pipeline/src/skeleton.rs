//! The pipeline skeleton: traits, configuration, planner, and the SPMD
//! driver with credit-based bounded streaming.
//!
//! See the crate-level docs for the archetype's shape. The planner
//! prices every layout it can place on the ranks by its modelled
//! per-item bottleneck and runs the cheapest (see `Plan`): one rank
//! with no messages, two ranks that both transform, or ingest and emit
//! ranks around replicated stage segments. A streaming layout has one
//! *level* per pipeline role — ingest, one level per stage segment,
//! emit — connected by *edges*. On edge `l`:
//!
//! 1. **Items** flow downstream tagged `pipe_tag(Item, l)`, each
//!    carrying its stream sequence number. An item with sequence `s`
//!    is produced by replica `s mod q` of level `l` and consumed by
//!    replica `s mod r` of level `l + 1` — the round-robin split/merge
//!    that makes replication order-preserving without any reordering
//!    buffer: every consumer performs blocking matched receives in
//!    ascending sequence order, and per-(sender, tag) FIFO does the
//!    rest.
//! 2. **Credits** flow upstream tagged `pipe_tag(Credit, l)`. A
//!    producer starts with [`PipelineConfig::window`] credits per
//!    consumer, spends one per item, and blocks for a credit-return
//!    when out; a consumer returns one credit per item *after*
//!    forwarding it downstream, so backpressure from a slow stage
//!    propagates all the way to ingest — in virtual time as well as in
//!    bounded memory. Credit edges are ordinary mesh links, and a
//!    credit is a `()`, which rides inside its packet on the link's
//!    recycled ring blocks — the credit chatter of a long stream
//!    allocates nothing in steady state.
//! 3. **End of stream** is an explicit marker sent once per (producer,
//!    consumer) pair after the producer's last item; consumers drain one
//!    from every producer, producers then reclaim their outstanding
//!    credits — the Drain phase that leaves the network quiescent (the
//!    runner's leak check verifies this).
//!
//! Deadlock freedom: the stage graph is a DAG and every consumer
//! receives in ascending sequence order, so the globally smallest
//! unconsumed sequence number is always receivable — a producer blocked
//! on a credit is waiting on a consumer that can still make progress.
//!
//! Because the schedule depends only on sequence numbers and the plan
//! (never on host timing), runs are deterministic: identical results,
//! identical virtual clocks, identical statistics on every execution.
//!
//! ## Replica failover
//!
//! When a [`FaultPlan`](archetype_mp::FaultPlan) is installed, every
//! transform replica declares a protocol phase boundary
//! ([`Ctx::fault_point`]) before each receive, so a scheduled
//! `Phase(k)` crash kills the replica after it has processed — and
//! forwarded, and credited — exactly `k` of its items. Because the
//! fault schedule is a pure function of the shared plan, *every* rank
//! computes the same routing table: items a dead replica would have owned
//! are re-routed to the next live replica of its level (cyclically),
//! end-of-stream markers carry the stream length so drain-time liveness
//! is computed identically everywhere, and the finale degrades from
//! collectives to pairwise exchanges among the survivors. Recovered
//! runs produce bit-identical output to fault-free runs; the ingest and
//! emit ranks are not replicated, so their death — like a crash at a
//! send/receive site mid-protocol — remains unrecoverable and surfaces
//! as typed per-rank failures.

use archetype_core::PhaseKind;
use archetype_mp::tags::{pipe_tag, PipeTag};
use archetype_mp::{impl_fixed_size, Ctx, MachineModel, Payload};

/// Modeled flop-equivalents charged per item by stages and hooks that do
/// not override their cost methods.
pub const DEFAULT_STAGE_FLOPS: f64 = 100.0;

/// Modeled flop-equivalents per stage charged on every rank for probing
/// stage costs and computing the placement plan.
const PLAN_FLOPS_PER_STAGE: f64 = 50.0;

/// One transform stage of a pipeline over items of type `T`.
///
/// Stages are pure item transformers: `transform` consumes an item and
/// returns its successor in the chain. The [`Stage::flops`] cost hook
/// prices an item for the virtual clock *and* for the placement planner;
/// it must be computable from any stream item regardless of its position
/// in the chain (cost may depend on the item's shape — e.g. pixel or
/// sample counts, which stages preserve — not on values only a specific
/// stage produces).
pub trait Stage<T>: Sync {
    /// Transform stream item number `seq`.
    fn transform(&self, seq: u64, item: T) -> T;

    /// Modeled cost of transforming `item`, in flop-equivalents.
    fn flops(&self, _item: &T) -> f64 {
        DEFAULT_STAGE_FLOPS
    }

    /// Stage name for plan labels and traces.
    fn name(&self) -> &'static str {
        "stage"
    }
}

/// A pipeline computation: an ordered stream, a chain of [`Stage`]s, and
/// an in-order fold of the final items.
///
/// The skeleton calls `ingest(0), ingest(1), …` until it returns `None`
/// (on the ingest rank; other ranks call it only for the probe prefix —
/// it must be deterministic, the usual SPMD contract), threads every item
/// through `stages()` in order, and folds the fully transformed items
/// into the output with `emit`, strictly in stream order.
pub trait Pipeline: Sync {
    /// One stream item. Items migrate between ranks, so they must report
    /// their wire size ([`Payload`]).
    type Item: Payload;
    /// The folded output. Broadcast from the emit rank at the end, so
    /// every rank returns the same value.
    type Out: Payload + Clone + Sync;

    /// Produce stream item `seq`, or `None` when the stream has ended
    /// (after which all larger sequence numbers must be `None` too).
    /// Must be deterministic.
    fn ingest(&self, seq: u64) -> Option<Self::Item>;

    /// Modeled cost of producing one item.
    fn ingest_flops(&self, _item: &Self::Item) -> f64 {
        DEFAULT_STAGE_FLOPS
    }

    /// The transform chain, in order. May be empty.
    fn stages(&self) -> Vec<&dyn Stage<Self::Item>>;

    /// The initial value of the output fold.
    fn out_identity(&self) -> Self::Out;

    /// Fold the fully transformed item `seq` into the output. Called in
    /// strictly ascending `seq` order, so the fold may be
    /// order-sensitive.
    fn emit(&self, acc: Self::Out, seq: u64, item: Self::Item) -> Self::Out;

    /// Modeled cost of folding one item.
    fn emit_flops(&self, _item: &Self::Item) -> f64 {
        DEFAULT_STAGE_FLOPS
    }
}

/// Tuning knobs for [`run_pipeline`]. `PipelineConfig::default()` enables
/// replication with a 4-item window — the archetype's intended shape.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Flow-control window: the maximum number of in-flight items per
    /// (producer, consumer) pair on every edge. Must be at least 1.
    pub window: usize,
    /// Whether spare ranks replicate heavy stages. Disabling it keeps
    /// the pipeline correct but leaves spare ranks idle.
    pub replicate: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window: 4,
            replicate: true,
        }
    }
}

/// Replication stops when a replica's per-item compute would fall below
/// `per-item messaging overhead / COMM_FRACTION` — the pipeline's version
/// of the farm's target ratio of communication to compute. Looser than
/// the farm's 0.05 batching target: a pipeline replica's alternative is
/// idling, so a replica is worth keeping until messaging reaches a tenth
/// of its compute.
const COMM_FRACTION: f64 = 0.1;

/// How many stream items are probed (via [`Stage::flops`]) to price the
/// stages for the placement plan.
const PROBE: usize = 8;

/// Deterministic, globally combined execution statistics of a pipeline
/// run. Every rank returns the same values.
///
/// The last three shape fields name the layout that ran:
///
/// | layout | `segments` | `replicas` | `idle_ranks` |
/// |---|---|---|---|
/// | one rank (every `p`) | 0 | 0 | `p − 1` |
/// | paired (`p = 2`) | 1 | 2 | 0 |
/// | `k` segments (`p ≥ 3`) | `k` | transform ranks | left by the cutoff |
/// | no stages, ingest to emit (`p ≥ 2`) | 0 | 0 | `p − 2` |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Stream items ingested (equals items emitted: nothing is dropped).
    pub items: u64,
    /// Stage applications (`items × stages` in every layout).
    pub transforms: u64,
    /// Item messages sent across stream edges (0 on one rank, one per
    /// item when paired).
    pub forwarded: u64,
    /// Credit-return messages sent upstream.
    pub credits: u64,
    /// Item sends that had to block for a credit-return first — the
    /// count of backpressure stalls.
    pub stalls: u64,
    /// Stage segments in the plan (contiguous runs of fused stages): 0
    /// on one rank, 1 when paired (the whole chain).
    pub segments: u64,
    /// Ranks running stage segments, replicas included: 0 on one rank,
    /// 2 when paired (both ranks run the whole chain).
    pub replicas: u64,
    /// Ranks with no role: `p − 1` on one rank, otherwise the middle
    /// ranks no segment uses (those left by the replication cutoff).
    pub idle_ranks: u64,
    /// Transform replicas with a scheduled crash whose stream share the
    /// router re-routes to the next live replica of their level.
    pub failovers: u64,
}

impl_fixed_size!(PipelineStats);

impl PipelineStats {
    fn combine(a: PipelineStats, b: PipelineStats) -> PipelineStats {
        PipelineStats {
            items: a.items + b.items,
            transforms: a.transforms + b.transforms,
            forwarded: a.forwarded + b.forwarded,
            credits: a.credits + b.credits,
            stalls: a.stalls + b.stalls,
            // Plan shape is computed identically on every rank; max
            // recovers it past ranks that recorded nothing.
            segments: a.segments.max(b.segments),
            replicas: a.replicas.max(b.replicas),
            idle_ranks: a.idle_ranks.max(b.idle_ranks),
            failovers: a.failovers.max(b.failovers),
        }
    }
}

/// One message of the stream protocol.
enum StreamMsg<T> {
    /// Stream item `seq` (4-byte kind + 8-byte sequence header on the
    /// wire, plus the item itself).
    Item(u64, T),
    /// End of stream from this producer, carrying the total stream
    /// length so drain-time liveness is computable on every rank.
    Eos(u64),
}

impl<T: Payload> Payload for StreamMsg<T> {
    fn size_bytes(&self) -> usize {
        match self {
            StreamMsg::Item(_, t) => 12 + t.size_bytes(),
            StreamMsg::Eos(_) => 12,
        }
    }
}

/// Deterministic item-to-replica routing for one pipeline level, shared
/// in spirit by every rank: the fault-free assignment is round-robin
/// (`seq % q`), and a replica scheduled to die after processing `k`
/// items stops being assigned work from its `k`-th item on — its share
/// shifts to the next live replica, cyclically. Because the death
/// schedule is a pure function of the globally shared fault plan, all
/// ranks' routers agree without communication.
struct Router {
    /// Per-replica scheduled death: `Some(k)` means the replica's
    /// `Phase(k)` crash fires after it has processed exactly `k` items.
    deaths: Vec<Option<u64>>,
    /// Items assigned to each replica so far in the simulation.
    counts: Vec<u64>,
    /// Owner replica index of each simulated sequence number.
    owners: Vec<usize>,
}

impl Router {
    fn new(deaths: Vec<Option<u64>>) -> Self {
        let n = deaths.len();
        assert!(n > 0, "a pipeline level cannot be empty");
        Router {
            deaths,
            counts: vec![0; n],
            owners: Vec::new(),
        }
    }

    fn alive_in_sim(&self, j: usize) -> bool {
        self.deaths[j].is_none_or(|k| self.counts[j] < k)
    }

    fn advance_to(&mut self, seq: u64) {
        while (self.owners.len() as u64) <= seq {
            let s = self.owners.len();
            let q = self.deaths.len();
            let mut j = s % q;
            let mut probes = 0;
            while !self.alive_in_sim(j) {
                j = (j + 1) % q;
                probes += 1;
                assert!(
                    probes < q,
                    "every replica of a pipeline level is scheduled to die \
                     before stream item {s}; the pipeline cannot recover"
                );
            }
            self.counts[j] += 1;
            self.owners.push(j);
        }
    }

    /// The replica index that owns stream item `seq`.
    fn owner(&mut self, seq: u64) -> usize {
        self.advance_to(seq);
        self.owners[seq as usize]
    }

    /// Whether replica `j` is still alive once the stream (of `n` items
    /// in total) has drained — i.e. whether its scheduled death never
    /// fires. A replica dies after processing its `k`-th assigned item
    /// (or, when assigned exactly `k`, at the phase boundary before its
    /// end-of-stream drain), so it survives iff `k` exceeds its share.
    fn live_at_drain(&mut self, j: usize, n: u64) -> bool {
        if n > 0 {
            self.advance_to(n - 1);
        }
        let assigned = self.owners[..n as usize]
            .iter()
            .filter(|&&o| o == j)
            .count() as u64;
        self.deaths[j].is_none_or(|k| k > assigned)
    }
}

/// One stage segment of the placement plan: stages `stages.0..stages.1`
/// executed by `replicas` ranks starting at `first_rank`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Segment {
    stages: (usize, usize),
    first_rank: usize,
    replicas: usize,
}

/// The placement plan: which ranks ingest, transform and emit. Computed
/// identically on every rank from the probe prices; the items, their
/// order and every output bit are the same in every layout.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Plan {
    /// Rank 0 ingests, runs the whole chain and emits with no messages;
    /// the other ranks wait for the output it broadcasts. The only
    /// layout at `p = 1`, and the cheapest wherever an item's work is
    /// too fine to pay for its messages.
    OneRank,
    /// `p = 2`, both ranks running the whole (non-empty) chain: rank 0
    /// ingests every item and transforms the even ones before sending
    /// them, rank 1 transforms the odd ones after receiving them and
    /// emits every item in order. One message per item.
    Paired,
    /// Rank 0 ingests, rank `p − 1` emits, and the ranks between run
    /// `segments` in stream order; `idle` ranks are left over by the
    /// replication cutoff. A stage-less chain has no segments: its
    /// items go from ingest straight to emit.
    Segmented { segments: Vec<Segment>, idle: usize },
}

impl Plan {
    /// The layout's shape as reported in [`PipelineStats`]: segments,
    /// transform ranks, idle ranks.
    fn shape(&self, nprocs: usize) -> (usize, usize, usize) {
        match self {
            Plan::OneRank => (0, 0, nprocs - 1),
            Plan::Paired => (1, 2, 0),
            Plan::Segmented { segments, idle } => (
                segments.len(),
                segments.iter().map(|s| s.replicas).sum(),
                *idle,
            ),
        }
    }

    /// The per-level rank lists: `[ingest] ++ segments ++ [emit]` for a
    /// streaming layout, none for one rank.
    fn levels(&self, nprocs: usize) -> Vec<Vec<usize>> {
        let segments = match self {
            Plan::OneRank => return Vec::new(),
            Plan::Paired => &[][..],
            Plan::Segmented { segments, .. } => segments,
        };
        let mut levels = vec![vec![0]];
        for seg in segments {
            levels.push((seg.first_rank..seg.first_rank + seg.replicas).collect());
        }
        levels.push(vec![nprocs - 1]);
        levels
    }
}

/// Modelled seconds per item of each pipeline role, averaged over the
/// probe prefix of the stream.
#[derive(Clone, Debug, Default, PartialEq)]
struct Prices {
    ingest: f64,
    stages: Vec<f64>,
    emit: f64,
}

/// Contiguous partition of `costs` into `parts` segments minimizing the
/// maximum segment cost (classic linear partition DP; stage counts are
/// tiny). Returns the segment boundaries as `(start, end)` pairs.
fn partition_stages(costs: &[f64], parts: usize) -> Vec<(usize, usize)> {
    let n = costs.len();
    let parts = parts.min(n).max(1);
    let mut prefix = vec![0.0; n + 1];
    for (i, &c) in costs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let seg_cost = |a: usize, b: usize| prefix[b] - prefix[a];
    // best[k][i]: minimal max-cost partitioning of costs[..i] into k parts.
    let mut best = vec![vec![f64::INFINITY; n + 1]; parts + 1];
    let mut cut = vec![vec![0usize; n + 1]; parts + 1];
    best[0][0] = 0.0;
    for k in 1..=parts {
        for i in k..=n {
            for j in (k - 1)..i {
                let c = best[k - 1][j].max(seg_cost(j, i));
                // Strict improvement keeps the earliest cut, so the plan
                // is deterministic under cost ties.
                if c < best[k][i] {
                    best[k][i] = c;
                    cut[k][i] = j;
                }
            }
        }
    }
    let mut bounds = Vec::with_capacity(parts);
    let mut i = n;
    for k in (1..=parts).rev() {
        let j = cut[k][i];
        bounds.push((j, i));
        i = j;
    }
    bounds.reverse();
    bounds
}

/// Build the placement plan for `nprocs ≥ 2` ranks: price every layout
/// by its modelled per-item bottleneck — the busiest role's compute
/// plus the message overheads it pays per item — and take the cheapest;
/// a tie goes to the layout on fewer ranks.
fn build_plan(
    nprocs: usize,
    prices: &Prices,
    model: &MachineModel,
    config: &PipelineConfig,
) -> Plan {
    // Per item, an ingest or emit rank sends (receives) the item and
    // receives (sends) its credit; a middle replica receives the item,
    // forwards it and credits it.
    let endpoint = model.send_overhead + model.recv_overhead;
    let replica = model.recv_overhead + 2.0 * model.send_overhead;
    let chain: f64 = prices.stages.iter().sum();
    let mut candidates = vec![(prices.ingest + chain + prices.emit, Plan::OneRank)];
    if prices.stages.is_empty() {
        // No chain to share: a stream can only go from ingest straight
        // to emit, past the middle ranks.
        let cost = prices.ingest.max(prices.emit) + endpoint;
        let plan = Plan::Segmented {
            segments: Vec::new(),
            idle: nprocs - 2,
        };
        candidates.push((cost, plan));
    } else if nprocs == 2 {
        let half = chain / 2.0;
        let cost = (prices.ingest + half).max(half + prices.emit) + endpoint;
        candidates.push((cost, Plan::Paired));
    }
    let middle = nprocs - 2;
    for k in 1..=middle.min(prices.stages.len()) {
        let bounds = partition_stages(&prices.stages, k);
        let seg_cost: Vec<f64> = bounds
            .iter()
            .map(|&(a, b)| prices.stages[a..b].iter().sum())
            .collect();
        let (replicas, idle) = replicate(&seg_cost, middle, replica, config);
        let cost = seg_cost
            .iter()
            .zip(&replicas)
            .map(|(&c, &r)| (c + replica) / r as f64)
            .fold(prices.ingest.max(prices.emit) + endpoint, f64::max);
        let mut segments = Vec::with_capacity(k);
        let mut next_rank = 1;
        for (&stages, &r) in bounds.iter().zip(&replicas) {
            segments.push(Segment {
                stages,
                first_rank: next_rank,
                replicas: r,
            });
            next_rank += r;
        }
        candidates.push((cost, Plan::Segmented { segments, idle }));
    }
    // Fewer ranks in use means more idle ones; `min_by` keeps the first
    // of layouts equal on both counts.
    let idle = |plan: &Plan| plan.shape(nprocs).2;
    candidates
        .into_iter()
        .min_by(|(a, pa), (b, pb)| a.total_cmp(b).then(idle(pb).cmp(&idle(pa))))
        .map(|(_, plan)| plan)
        .expect("one rank is always a candidate")
}

/// Deal `middle` ranks to segments of per-item cost `seg_cost`: one
/// each, then greedily to the bottleneck. Returns the replica counts and
/// the ranks left idle.
fn replicate(
    seg_cost: &[f64],
    middle: usize,
    overhead_secs: f64,
    config: &PipelineConfig,
) -> (Vec<usize>, usize) {
    let mut replicas = vec![1usize; seg_cost.len()];
    let mut spare = middle - seg_cost.len();
    if !config.replicate {
        return (replicas, spare);
    }
    let floor = overhead_secs / COMM_FRACTION;
    while spare > 0 {
        // The bottleneck segment gets the next rank — unless even the
        // bottleneck is already communication-bound, in which case more
        // replicas only add messaging and the remaining ranks stay idle.
        let (i, _) = seg_cost
            .iter()
            .zip(&replicas)
            .map(|(&c, &r)| c / r as f64)
            .enumerate()
            .fold((0usize, f64::NEG_INFINITY), |acc, (i, c)| {
                if c > acc.1 {
                    (i, c)
                } else {
                    acc
                }
            });
        if seg_cost[i] / ((replicas[i] + 1) as f64) < floor {
            break;
        }
        replicas[i] += 1;
        spare -= 1;
    }
    (replicas, spare)
}

/// The downstream half of one edge, owned by a producer: router-driven
/// item sends under credit flow control, then EOS + credit reclaim.
/// With no fault plan the router degenerates to round-robin.
struct Outflow<T> {
    edge: u64,
    consumers: Vec<usize>,
    router: Router,
    credits: Vec<usize>,
    sent: Vec<u64>,
    drawn: Vec<u64>,
    window: usize,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<T: Payload> Outflow<T> {
    fn new(edge: u64, consumers: Vec<usize>, router: Router, window: usize) -> Self {
        assert!(window >= 1, "flow-control window must be at least 1");
        let n = consumers.len();
        assert_eq!(n, router.deaths.len(), "router must cover every consumer");
        Outflow {
            edge,
            consumers,
            router,
            credits: vec![window; n],
            sent: vec![0; n],
            drawn: vec![0; n],
            window,
            _marker: std::marker::PhantomData,
        }
    }

    fn send_item(&mut self, ctx: &mut Ctx, stats: &mut PipelineStats, seq: u64, item: T) {
        let j = self.router.owner(seq);
        if self.credits[j] == 0 {
            stats.stalls += 1;
            self.recv_credit(ctx, j);
            self.credits[j] += 1;
        }
        self.credits[j] -= 1;
        self.sent[j] += 1;
        stats.forwarded += 1;
        ctx.send(
            self.consumers[j],
            pipe_tag(PipeTag::Item, self.edge),
            StreamMsg::Item(seq, item),
        );
    }

    /// Credits ride the fault-aware channel (consumers must be able to
    /// credit a producer that has since died), so they are received with
    /// its symmetric primitive. A consumer credits every item routed to
    /// it before its scheduled death, so the credit is always in flight.
    fn recv_credit(&mut self, ctx: &mut Ctx, j: usize) {
        let () = ctx
            .recv_ft(self.consumers[j], pipe_tag(PipeTag::Credit, self.edge))
            .expect("consumer died with credits outstanding (routing bug)");
        self.drawn[j] += 1;
    }

    /// Send EOS (carrying the stream length `n`) to every consumer still
    /// alive at drain time, then reclaim the credits still in flight so
    /// the network ends quiescent. Dead consumers credited everything
    /// they were routed before dying, so reclaim covers them too.
    fn finish(mut self, ctx: &mut Ctx, n: u64) {
        // Credit conservation: window = live credits + in-flight ones.
        debug_assert!(self
            .credits
            .iter()
            .zip(&self.drawn)
            .zip(&self.sent)
            .all(|((&c, &d), &s)| c as u64 + (s - d) == self.window as u64));
        for j in 0..self.consumers.len() {
            if self.router.live_at_drain(j, n) {
                ctx.send(
                    self.consumers[j],
                    pipe_tag(PipeTag::Item, self.edge),
                    StreamMsg::<T>::Eos(n),
                );
            }
        }
        for j in 0..self.consumers.len() {
            while self.drawn[j] < self.sent[j] {
                self.recv_credit(ctx, j);
            }
        }
    }
}

/// The upstream half of one edge, owned by a consumer: blocking matched
/// receives of this consumer's routed share in ascending sequence order,
/// credit returns, EOS drain.
struct Inflow {
    edge: u64,
    producers: Vec<usize>,
    /// Routing of the *producing* level — which replica forwards item
    /// `seq` on this edge.
    upstream: Router,
    /// Routing of this consumer's own level — which sequence numbers are
    /// this replica's share.
    mine: Router,
    my_index: usize,
    cursor: u64,
    /// Total stream length, learned from the first EOS.
    total: Option<u64>,
    last_from: usize,
}

impl Inflow {
    fn new(
        edge: u64,
        producers: Vec<usize>,
        upstream: Router,
        mine: Router,
        my_index: usize,
    ) -> Self {
        assert_eq!(producers.len(), upstream.deaths.len());
        Inflow {
            edge,
            producers,
            upstream,
            mine,
            my_index,
            cursor: 0,
            total: None,
            last_from: 0,
        }
    }

    /// The next item of this consumer's routed share, or `None` after
    /// draining EOS from every surviving producer.
    ///
    /// Termination of the share search: if the router ever marks this
    /// replica dead in simulation, the replica's own `fault_point` fires
    /// at that very op — so a rank searching here is alive in simulation
    /// and owns infinitely many simulated sequence numbers.
    fn next<T: Payload>(&mut self, ctx: &mut Ctx) -> Option<(u64, T)> {
        if self.total.is_some() {
            return None;
        }
        let mut s = self.cursor;
        while self.mine.owner(s) != self.my_index {
            s += 1;
        }
        // The producer routed item `s`; if the stream ends first, that
        // producer is necessarily alive at drain (it processed fewer
        // items than the simulation allowed it) and sends EOS instead.
        let prod = self.upstream.owner(s);
        let msg: StreamMsg<T> = ctx.recv(self.producers[prod], pipe_tag(PipeTag::Item, self.edge));
        match msg {
            StreamMsg::Item(seq, item) => {
                assert_eq!(seq, s, "in-order delivery violated on edge {}", self.edge);
                self.last_from = prod;
                self.cursor = s + 1;
                Some((s, item))
            }
            StreamMsg::Eos(n) => {
                // Every producer alive at drain closes the edge with one
                // EOS per surviving consumer; dead producers send none.
                for i in 0..self.producers.len() {
                    if i != prod && self.upstream.live_at_drain(i, n) {
                        let m: StreamMsg<T> =
                            ctx.recv(self.producers[i], pipe_tag(PipeTag::Item, self.edge));
                        assert!(
                            matches!(m, StreamMsg::Eos(_)),
                            "every surviving producer must close edge {} with EOS",
                            self.edge
                        );
                    }
                }
                self.total = Some(n);
                None
            }
        }
    }

    /// The stream length learned at drain. Only valid after [`Inflow::next`]
    /// has returned `None`.
    fn stream_len(&self) -> u64 {
        self.total.expect("stream fully drained")
    }

    /// Return one credit for the last received item. Called *after* the
    /// item has been forwarded downstream, so backpressure propagates.
    /// Sent on the fault-aware channel: the producer may have reached
    /// its scheduled death right after forwarding its last item, in
    /// which case the credit lands in a dead mailbox — harmless, and
    /// charged identically either way.
    fn credit(&self, ctx: &mut Ctx, stats: &mut PipelineStats) {
        stats.credits += 1;
        let _ = ctx.send_ft(
            self.producers[self.last_from],
            pipe_tag(PipeTag::Credit, self.edge),
            (),
        );
    }
}

/// Probe the first `PROBE` stream items and price ingest, each stage and
/// emit per item in modeled seconds.
fn probe_prices<P: Pipeline>(
    pipe: &P,
    stages: &[&dyn Stage<P::Item>],
    model: &MachineModel,
) -> Prices {
    let mut prices = Prices {
        stages: vec![0.0; stages.len()],
        ..Prices::default()
    };
    let mut n = 0u32;
    for seq in 0..PROBE as u64 {
        let Some(item) = pipe.ingest(seq) else { break };
        n += 1;
        prices.ingest += model.compute_time(pipe.ingest_flops(&item));
        for (secs, st) in prices.stages.iter_mut().zip(stages) {
            *secs += model.compute_time(st.flops(&item));
        }
        prices.emit += model.compute_time(pipe.emit_flops(&item));
    }
    if n > 0 {
        let n = f64::from(n);
        prices.ingest /= n;
        prices.emit /= n;
        for secs in &mut prices.stages {
            *secs /= n;
        }
    }
    prices
}

/// Run `stages` on item `seq`, charging each one's cost.
fn transform<T>(
    ctx: &mut Ctx,
    stats: &mut PipelineStats,
    stages: &[&dyn Stage<T>],
    seq: u64,
    mut item: T,
) -> T {
    for st in stages {
        ctx.charge_flops(st.flops(&item));
        item = st.transform(seq, item);
        stats.transforms += 1;
    }
    item
}

/// The one-rank layout's work: ingest every item, run the whole chain
/// on it and fold it, with no messages.
fn fold_alone<P: Pipeline>(
    pipe: &P,
    ctx: &mut Ctx,
    stats: &mut PipelineStats,
    stages: &[&dyn Stage<P::Item>],
) -> P::Out {
    ctx.trace_phase(PhaseKind::Ingest, "stream source");
    if !stages.is_empty() {
        ctx.trace_phase(PhaseKind::Transform, "all stages fused");
    }
    let mut folded = pipe.out_identity();
    let mut seq = 0u64;
    while let Some(item) = pipe.ingest(seq) {
        ctx.charge_flops(pipe.ingest_flops(&item));
        let item = transform(ctx, stats, stages, seq, item);
        ctx.charge_flops(pipe.emit_flops(&item));
        folded = pipe.emit(folded, seq, item);
        stats.items += 1;
        seq += 1;
    }
    ctx.trace_phase(PhaseKind::Drain, "end of stream");
    folded
}

/// Execute `pipe` as an SPMD pipeline on this rank. Must be called by
/// every rank of the run (collectively, like the other archetype
/// drivers). Returns the folded output and globally combined statistics
/// — identical on every rank, and identical across repeated runs.
///
/// Every rank records its own role with [`Ctx::trace_phase`]. Rank 0's
/// track is a sentence of the pipeline grammar: Ingest; Transform when
/// it transforms (the fused one-rank chain, or the paired layout's even
/// items); a Detect/Recover pair per scheduled replica death in the
/// routing table; Drain; and Emit on entering the output finale.
pub fn run_pipeline<P: Pipeline>(
    pipe: &P,
    ctx: &mut Ctx,
    config: PipelineConfig,
) -> (P::Out, PipelineStats) {
    let p = ctx.nprocs();
    let me = ctx.rank();
    let stages = pipe.stages();
    let s_count = stages.len();
    let mut stats = PipelineStats::default();

    // --- Plan: price every role on a probe prefix, place the cheapest
    // layout. One rank has no layout to choose, so it skips the probe;
    // the planning charge is the same at every p.
    let plan = if p == 1 {
        Plan::OneRank
    } else {
        let model = *ctx.model();
        let prices = probe_prices(pipe, &stages, &model);
        build_plan(p, &prices, &model, &config)
    };
    ctx.charge_items(s_count + 1, PLAN_FLOPS_PER_STAGE);

    // Scheduled deaths per level, identical on every rank (a pure
    // function of the shared fault plan). Ingest and emit never declare
    // fault points, so their levels never fail over.
    let levels = plan.levels(p);
    let level_deaths: Vec<Vec<Option<u64>>> = levels
        .iter()
        .enumerate()
        .map(|(l, ranks)| match ctx.fault_plan() {
            Some(fp) if l > 0 && l < levels.len() - 1 => ranks
                .iter()
                .map(|&r| fp.first_phase_crash(ctx.peers()[r]))
                .collect(),
            _ => vec![None; ranks.len()],
        })
        .collect();
    let scheduled_deaths: u64 = level_deaths
        .iter()
        .flatten()
        .filter(|d| d.is_some())
        .count() as u64;

    if me == 0 {
        let (segments, replicas, idle) = plan.shape(p);
        stats.segments = segments as u64;
        stats.replicas = replicas as u64;
        stats.idle_ranks = idle as u64;
        stats.failovers = scheduled_deaths;
    }

    // --- One rank: rank 0 runs the whole chain message-free. -------------
    if plan == Plan::OneRank {
        let mut acc = None;
        if me == 0 {
            let folded = fold_alone(pipe, ctx, &mut stats, &stages);
            ctx.trace_phase(PhaseKind::Emit, "fold output, broadcast");
            if p == 1 {
                return (folded, stats);
            }
            acc = Some(folded);
        }
        let out = ctx.broadcast(0, acc);
        let stats = ctx.all_reduce(stats, PipelineStats::combine);
        return (out, stats);
    }
    // Paired, the ingest rank transforms the even items and the emit
    // rank the odd ones.
    let paired = plan == Plan::Paired;

    let my_level_pos = levels
        .iter()
        .enumerate()
        .skip(1)
        .take(levels.len() - 2)
        .find_map(|(l, ranks)| ranks.iter().position(|&r| r == me).map(|i| (l, i)));
    let router_for = |l: usize| Router::new(level_deaths[l].clone());

    let mut acc: Option<P::Out> = None;
    // The stream length, learned by every streaming rank at drain time
    // (the ingest rank generates it; the others read it off the EOS).
    let mut stream_len: Option<u64> = None;
    if me == 0 {
        // --- Ingest: stream the source through edge 0. --------------------
        ctx.trace_phase(PhaseKind::Ingest, "stream source");
        if paired {
            ctx.trace_phase(PhaseKind::Transform, "all stages, even items");
        }
        let mut out: Outflow<P::Item> =
            Outflow::new(0, levels[1].clone(), router_for(1), config.window);
        let mut seq = 0u64;
        while let Some(mut item) = pipe.ingest(seq) {
            ctx.charge_flops(pipe.ingest_flops(&item));
            if paired && seq.is_multiple_of(2) {
                item = transform(ctx, &mut stats, &stages, seq, item);
            }
            out.send_item(ctx, &mut stats, seq, item);
            seq += 1;
        }
        for _ in 0..scheduled_deaths {
            ctx.trace_phase(PhaseKind::Detect, "scheduled replica death");
            ctx.trace_phase(PhaseKind::Recover, "share to next live replica");
        }
        ctx.trace_phase(PhaseKind::Drain, "end-of-stream wave");
        out.finish(ctx, seq);
        stream_len = Some(seq);
    } else if me == p - 1 {
        // --- Emit: in-order fold of the last edge. ------------------------
        ctx.trace_phase(PhaseKind::Emit, "in-order fold");
        let last = levels.len() - 1;
        let mut inflow = Inflow::new(
            (last - 1) as u64,
            levels[last - 1].clone(),
            router_for(last - 1),
            router_for(last),
            0,
        );
        let mut folded = pipe.out_identity();
        while let Some((seq, mut item)) = inflow.next::<P::Item>(ctx) {
            if paired && !seq.is_multiple_of(2) {
                item = transform(ctx, &mut stats, &stages, seq, item);
            }
            ctx.charge_flops(pipe.emit_flops(&item));
            folded = pipe.emit(folded, seq, item);
            stats.items += 1;
            inflow.credit(ctx, &mut stats);
        }
        acc = Some(folded);
        stream_len = Some(inflow.stream_len());
    } else if let (Some((level, replica)), Plan::Segmented { segments, .. }) = (my_level_pos, &plan)
    {
        // --- Transform: one segment replica. ------------------------------
        let seg = &segments[level - 1];
        if ctx.is_traced() {
            // Label built only when a recorder is listening.
            let label = format!("stages {}..{} r{replica}", seg.stages.0, seg.stages.1);
            ctx.trace_phase(PhaseKind::Transform, &label);
        }
        let my_stages = &stages[seg.stages.0..seg.stages.1];
        let mut inflow = Inflow::new(
            (level - 1) as u64,
            levels[level - 1].clone(),
            router_for(level - 1),
            router_for(level),
            replica,
        );
        let mut out: Outflow<P::Item> = Outflow::new(
            level as u64,
            levels[level + 1].clone(),
            router_for(level + 1),
            config.window,
        );
        loop {
            // The protocol's phase boundary: a scheduled Phase(k) crash
            // fires here, after this replica has processed (forwarded,
            // credited) exactly k items — the count the routers assume.
            ctx.fault_point();
            let Some((seq, item)) = inflow.next::<P::Item>(ctx) else {
                break;
            };
            let item = transform(ctx, &mut stats, my_stages, seq, item);
            out.send_item(ctx, &mut stats, seq, item);
            inflow.credit(ctx, &mut stats);
        }
        out.finish(ctx, inflow.stream_len());
    }
    // Ranks beyond the replication cutoff idle until the finale.

    if me == 0 {
        ctx.trace_phase(PhaseKind::Emit, "output finale");
    }
    if scheduled_deaths == 0 {
        // --- Finale: share the output, combine the statistics. ------------
        let out = ctx.broadcast(p - 1, acc);
        let stats = ctx.all_reduce(stats, PipelineStats::combine);
        return (out, stats);
    }

    // --- Survivor finale: with ranks scheduled to die, the collective
    // trees above would route through dead ranks; exchange pairwise with
    // the emit rank among survivors instead. Every rank computes the
    // same survivor set from the routers; only the emit rank needs the
    // stream length for that, and it has it.
    let fin = pipe_tag(PipeTag::Item, levels.len() as u64);
    if me == p - 1 {
        let n = stream_len.expect("emit rank drained the stream");
        let mut routers: Vec<Router> = (0..levels.len()).map(router_for).collect();
        let survivors: Vec<usize> = (0..p - 1)
            .filter(|&r| {
                !levels.iter().enumerate().any(|(l, ranks)| {
                    ranks
                        .iter()
                        .position(|&x| x == r)
                        .is_some_and(|j| !routers[l].live_at_drain(j, n))
                })
            })
            .collect();
        let mut total = stats;
        for &r in &survivors {
            let theirs: PipelineStats = ctx.recv(r, fin);
            total = PipelineStats::combine(total, theirs);
        }
        let folded = acc.expect("emit rank folded the stream");
        for &r in &survivors {
            ctx.send(r, fin, folded.clone());
            ctx.send(r, fin, total);
        }
        (folded, total)
    } else {
        ctx.send(p - 1, fin, stats);
        let out: P::Out = ctx.recv(p - 1, fin);
        let stats: PipelineStats = ctx.recv(p - 1, fin);
        (out, stats)
    }
}

/// Host-side sequential oracle: run the whole pipeline in one loop with
/// no SPMD context and no cost accounting. Useful as the reference the
/// equivalence tests compare every parallel run against.
pub fn run_sequential<P: Pipeline>(pipe: &P) -> (P::Out, u64) {
    let stages = pipe.stages();
    let mut acc = pipe.out_identity();
    let mut seq = 0u64;
    while let Some(mut item) = pipe.ingest(seq) {
        for st in &stages {
            item = st.transform(seq, item);
        }
        acc = pipe.emit(acc, seq, item);
        seq += 1;
    }
    (acc, seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_core::archetype::PIPELINE;
    use archetype_mp::{run_spmd, run_spmd_with, MachineModel, RunConfig};

    /// Modeled flops per item of the fixtures' ingest and emit hooks, and
    /// of their light stages: 20 µs and 200 µs on the IBM SP, against
    /// 10 µs of messaging per item at each end. Priced so, a fixture's
    /// stream is worth streaming at every `p ≥ 2` on every machine model
    /// the tests use, and the tests exercise the streaming layouts.
    const END_FLOPS: f64 = 2_000.0;
    const STAGE_FLOPS: f64 = 20_000.0;

    /// Sum of squares as a two-stage chain — the simplest pipeline.
    struct Squares(u64);
    struct Double;
    struct SquareStage;
    impl Stage<u64> for Double {
        fn transform(&self, _seq: u64, item: u64) -> u64 {
            item * 2
        }
        fn flops(&self, _item: &u64) -> f64 {
            STAGE_FLOPS
        }
        fn name(&self) -> &'static str {
            "double"
        }
    }
    impl Stage<u64> for SquareStage {
        fn transform(&self, _seq: u64, item: u64) -> u64 {
            item * item
        }
        fn flops(&self, _item: &u64) -> f64 {
            STAGE_FLOPS
        }
        fn name(&self) -> &'static str {
            "square"
        }
    }
    impl Pipeline for Squares {
        type Item = u64;
        type Out = u64;
        fn ingest(&self, seq: u64) -> Option<u64> {
            (seq < self.0).then_some(seq)
        }
        fn ingest_flops(&self, _item: &u64) -> f64 {
            END_FLOPS
        }
        fn stages(&self) -> Vec<&dyn Stage<u64>> {
            vec![&Double, &SquareStage]
        }
        fn out_identity(&self) -> u64 {
            0
        }
        fn emit(&self, acc: u64, _seq: u64, item: u64) -> u64 {
            acc + item
        }
        fn emit_flops(&self, _item: &u64) -> f64 {
            END_FLOPS
        }
    }

    #[test]
    fn matches_sequential_oracle_for_many_process_counts() {
        let (expected, n) = run_sequential(&Squares(100));
        assert_eq!(n, 100);
        for p in 1..=8usize {
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                run_pipeline(&Squares(100), ctx, PipelineConfig::default())
            });
            for (r, (sum, stats)) in out.results.iter().enumerate() {
                assert_eq!(*sum, expected, "p={p} rank={r}");
                assert_eq!(stats.items, 100, "p={p}");
                assert_eq!(stats.transforms, 200, "p={p}");
                assert_eq!(stats.forwarded > 0, p > 1, "p={p}: streams");
            }
        }
    }

    #[test]
    fn empty_stream_terminates_cleanly() {
        // With no item to price, every role costs nothing and no message
        // can pay for itself: an empty stream runs on one rank at every p.
        for p in [1usize, 2, 4, 6] {
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                run_pipeline(&Squares(0), ctx, PipelineConfig::default())
            });
            for (sum, stats) in &out.results {
                assert_eq!(*sum, 0);
                assert_eq!(stats.items, 0);
                assert_eq!(stats.stalls, 0);
                assert_eq!((stats.forwarded, stats.replicas), (0, 0));
                assert_eq!(stats.idle_ranks, p as u64 - 1);
            }
        }
    }

    #[test]
    fn single_item_stream_works() {
        let out = run_spmd(5, MachineModel::ibm_sp(), |ctx| {
            run_pipeline(&Squares(1), ctx, PipelineConfig::default())
        });
        for (sum, stats) in &out.results {
            assert_eq!(*sum, 0);
            assert_eq!((stats.items, stats.transforms), (1, 2));
            // Ingest → chain → emit: the item crosses both edges.
            assert_eq!(stats.forwarded, 2);
            assert_eq!(stats.credits, 2);
        }
    }

    /// Order-sensitive fold: concatenating `seq:item;` proves in-order
    /// delivery at emit — any reordering changes the string.
    struct Ordered(u64);
    impl Pipeline for Ordered {
        type Item = u64;
        type Out = String;
        fn ingest(&self, seq: u64) -> Option<u64> {
            (seq < self.0).then_some(seq * 7 % 13)
        }
        fn ingest_flops(&self, _item: &u64) -> f64 {
            END_FLOPS
        }
        fn stages(&self) -> Vec<&dyn Stage<u64>> {
            vec![&Double, &SquareStage, &Double]
        }
        fn out_identity(&self) -> String {
            String::new()
        }
        fn emit(&self, mut acc: String, seq: u64, item: u64) -> String {
            use std::fmt::Write;
            write!(acc, "{seq}:{item};").unwrap();
            acc
        }
        fn emit_flops(&self, _item: &u64) -> f64 {
            END_FLOPS
        }
    }

    #[test]
    fn delivery_is_in_order_across_replicated_stages() {
        let (expected, _) = run_sequential(&Ordered(60));
        for p in [1usize, 2, 3, 5, 8] {
            let out = run_spmd(p, MachineModel::cray_t3d(), |ctx| {
                run_pipeline(&Ordered(60), ctx, PipelineConfig::default())
            });
            for (s, stats) in &out.results {
                assert_eq!(
                    *s, expected,
                    "p={p}: in-order fold must match the sequential oracle"
                );
                assert_eq!(stats.forwarded > 0, p > 1, "p={p}: streams");
            }
        }
    }

    /// One stage far heavier than the rest: spare ranks must replicate it.
    struct Lopsided(u64);
    struct Heavy;
    impl Stage<u64> for Heavy {
        fn transform(&self, _seq: u64, item: u64) -> u64 {
            item + 1
        }
        fn flops(&self, _item: &u64) -> f64 {
            1_000_000.0
        }
        fn name(&self) -> &'static str {
            "heavy"
        }
    }
    impl Pipeline for Lopsided {
        type Item = u64;
        type Out = u64;
        fn ingest(&self, seq: u64) -> Option<u64> {
            (seq < self.0).then_some(seq)
        }
        fn stages(&self) -> Vec<&dyn Stage<u64>> {
            vec![&Double, &Heavy]
        }
        fn out_identity(&self) -> u64 {
            0
        }
        fn emit(&self, acc: u64, _seq: u64, item: u64) -> u64 {
            acc + item
        }
    }

    /// Heavy *and* order-sensitive: two compute-bound stages (so spare
    /// ranks replicate the fused chain — a failover needs a level with
    /// at least two replicas) feeding the concatenating fold of
    /// [`Ordered`].
    struct HeavyOrdered(u64);
    struct HeavyScale;
    impl Stage<u64> for HeavyScale {
        fn transform(&self, _seq: u64, item: u64) -> u64 {
            item * 3 + 1
        }
        fn flops(&self, _item: &u64) -> f64 {
            1_000_000.0
        }
        fn name(&self) -> &'static str {
            "heavy-scale"
        }
    }
    struct HeavyXor;
    impl Stage<u64> for HeavyXor {
        fn transform(&self, seq: u64, item: u64) -> u64 {
            item ^ (seq % 8)
        }
        fn flops(&self, _item: &u64) -> f64 {
            1_000_000.0
        }
        fn name(&self) -> &'static str {
            "heavy-xor"
        }
    }
    impl Pipeline for HeavyOrdered {
        type Item = u64;
        type Out = String;
        fn ingest(&self, seq: u64) -> Option<u64> {
            (seq < self.0).then_some(seq * 7 % 13)
        }
        fn stages(&self) -> Vec<&dyn Stage<u64>> {
            vec![&HeavyScale, &HeavyXor]
        }
        fn out_identity(&self) -> String {
            String::new()
        }
        fn emit(&self, mut acc: String, seq: u64, item: u64) -> String {
            use std::fmt::Write;
            write!(acc, "{seq}:{item};").unwrap();
            acc
        }
    }

    /// A stream whose roles cost what the test says, in flops per item:
    /// `ingest`, one [`Costed`] stage per entry of `stages`, and `emit`
    /// (an order-sensitive fold).
    struct Priced {
        items: u64,
        ingest: f64,
        stages: Vec<Costed>,
        emit: f64,
    }
    struct Costed(f64);
    impl Stage<u64> for Costed {
        fn transform(&self, seq: u64, item: u64) -> u64 {
            item.wrapping_mul(3) ^ seq
        }
        fn flops(&self, _item: &u64) -> f64 {
            self.0
        }
    }
    impl Pipeline for Priced {
        type Item = u64;
        type Out = u64;
        fn ingest(&self, seq: u64) -> Option<u64> {
            (seq < self.items).then_some(seq + 1)
        }
        fn ingest_flops(&self, _item: &u64) -> f64 {
            self.ingest
        }
        fn stages(&self) -> Vec<&dyn Stage<u64>> {
            self.stages.iter().map(|s| s as &dyn Stage<u64>).collect()
        }
        fn out_identity(&self) -> u64 {
            0
        }
        fn emit(&self, acc: u64, _seq: u64, item: u64) -> u64 {
            acc.wrapping_mul(1_000_003).wrapping_add(item)
        }
        fn emit_flops(&self, _item: &u64) -> f64 {
            self.emit
        }
    }

    #[test]
    fn heavy_stage_attracts_the_spare_ranks() {
        // On the IBM SP a 50 µs stage before an 800 µs one: fused, the
        // chain stops at five replicas (a sixth would compute less than
        // the cutoff), so the light stage on its own rank and five
        // replicas of the heavy one put all six middle ranks to work.
        let lopsided = || Priced {
            items: 64,
            ingest: 100.0,
            stages: vec![Costed(5_000.0), Costed(80_000.0)],
            emit: 100.0,
        };
        let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            run_pipeline(&lopsided(), ctx, PipelineConfig::default())
        });
        let (_, stats) = &out.results[0];
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.replicas, 6, "all six middle ranks in use");
        assert_eq!(stats.idle_ranks, 0);
        // And replication buys virtual time against the unreplicated plan.
        let flat = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
            let config = PipelineConfig {
                replicate: false,
                ..PipelineConfig::default()
            };
            run_pipeline(&lopsided(), ctx, config)
        });
        assert!(flat.results[0].1.idle_ranks > 0);
        assert_eq!(flat.results[0].0, out.results[0].0);
        assert!(
            out.elapsed_virtual < flat.elapsed_virtual,
            "replicating the bottleneck must shorten the run: {} vs {}",
            out.elapsed_virtual,
            flat.elapsed_virtual
        );
    }

    #[test]
    fn results_are_invariant_to_window_replication_and_machine() {
        let reference = run_sequential(&Ordered(40)).0;
        for window in [1usize, 2, 16] {
            for replicate in [false, true] {
                for model in [
                    MachineModel::ibm_sp(),
                    MachineModel::workstation_network(),
                    MachineModel::zero_comm(),
                ] {
                    let out = run_spmd(6, model, move |ctx| {
                        let config = PipelineConfig { window, replicate };
                        run_pipeline(&Ordered(40), ctx, config)
                    });
                    for (s, stats) in &out.results {
                        let at = format!("window={window} replicate={replicate} {}", model.name);
                        assert_eq!(*s, reference, "{at}");
                        assert!(stats.forwarded > 0, "{at}: streams");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_window_stalls_the_producer() {
        // 10 µs to ingest and to emit, 20 µs to transform: worth a
        // middle rank at p = 3, which then lags the ingest rank.
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let config = PipelineConfig {
                window: 2,
                ..PipelineConfig::default()
            };
            let pipe = Priced {
                items: 50,
                ingest: 1_000.0,
                stages: vec![Costed(2_000.0)],
                emit: 1_000.0,
            };
            run_pipeline(&pipe, ctx, config).1
        });
        // 50 items through a 2-credit window must block repeatedly.
        assert!(out.results[0].stalls > 0);
        assert_eq!(out.results[0].credits, out.results[0].forwarded);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            run_spmd(7, MachineModel::intel_delta(), |ctx| {
                let (out, stats) = run_pipeline(&Ordered(30), ctx, PipelineConfig::default());
                (out, stats, ctx.now())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.rank_times, b.rank_times);
    }

    #[test]
    fn stageless_pipeline_streams_straight_to_emit() {
        /// 17 items whose ingest and emit cost `end_flops` each.
        struct NoStages {
            end_flops: f64,
        }
        impl Pipeline for NoStages {
            type Item = u64;
            type Out = u64;
            fn ingest(&self, seq: u64) -> Option<u64> {
                (seq < 17).then_some(seq)
            }
            fn ingest_flops(&self, _item: &u64) -> f64 {
                self.end_flops
            }
            fn stages(&self) -> Vec<&dyn Stage<u64>> {
                Vec::new()
            }
            fn out_identity(&self) -> u64 {
                0
            }
            fn emit(&self, acc: u64, _seq: u64, item: u64) -> u64 {
                acc + item
            }
            fn emit_flops(&self, _item: &u64) -> f64 {
                self.end_flops
            }
        }
        // Costly ends stream from ingest to emit past the middle ranks;
        // cheap ones (1 µs each, against 10 µs of messaging at each end)
        // stay on one rank.
        for (end_flops, streams) in [(END_FLOPS, true), (DEFAULT_STAGE_FLOPS, false)] {
            for p in [1usize, 2, 5] {
                let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                    run_pipeline(&NoStages { end_flops }, ctx, PipelineConfig::default())
                });
                let shape = if streams && p > 1 {
                    (17, 0, 0, p as u64 - 2)
                } else {
                    (0, 0, 0, p as u64 - 1)
                };
                for (sum, stats) in &out.results {
                    assert_eq!(*sum, (0..17).sum::<u64>(), "p={p}");
                    assert_eq!(stats.transforms, 0);
                    assert_eq!(
                        (
                            stats.forwarded,
                            stats.segments,
                            stats.replicas,
                            stats.idle_ranks
                        ),
                        shape,
                        "p={p} end_flops={end_flops}"
                    );
                }
            }
        }
    }

    /// Rank 0's phase kinds in a traced run.
    fn root_kinds(trace: Option<archetype_mp::RunTrace>) -> Vec<PhaseKind> {
        trace.expect("traced run").ranks[0]
            .phases()
            .expect("nothing dropped")
            .iter()
            .map(|&(k, _)| k)
            .collect()
    }

    #[test]
    fn phase_trace_is_accepted_by_the_pipeline_grammar() {
        let vocabulary = PIPELINE.phases();
        for p in [1usize, 2, 4, 8] {
            let out = run_spmd_with(p, MachineModel::ibm_sp(), RunConfig::traced(), |ctx| {
                run_pipeline(&Squares(20), ctx, PipelineConfig::default()).1
            });
            assert_eq!(out.results[0].forwarded > 0, p > 1, "p={p}: streams");
            let kinds = root_kinds(out.trace);
            assert!(
                PIPELINE.grammar().matches(&kinds),
                "p={p}: {kinds:?} rejected by the pipeline grammar"
            );
            assert!(kinds.iter().all(|k| vocabulary.contains(k)));
        }
    }

    #[test]
    fn router_reroutes_a_dead_replicas_share() {
        // Three replicas; replica 1 dies after processing 2 items.
        let mut r = Router::new(vec![None, Some(2), None]);
        // Fault-free prefix: 0→0, 1→1, 2→2, 3→0, 4→1 (replica 1's 2nd).
        assert_eq!(
            (0..5).map(|s| r.owner(s)).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1]
        );
        // From here replica 1 is dead; its share shifts to replica 2.
        assert_eq!(r.owner(5), 2);
        assert_eq!(r.owner(6), 0);
        assert_eq!(
            r.owner(7),
            2,
            "dead replica's slot goes to the next live one"
        );
        assert!(!r.live_at_drain(1, 8));
        assert!(r.live_at_drain(0, 8) && r.live_at_drain(2, 8));
        // A death scheduled beyond the stream never fires.
        let mut late = Router::new(vec![None, Some(100)]);
        assert!(late.live_at_drain(1, 10));
    }

    #[test]
    #[should_panic(expected = "cannot recover")]
    fn router_panics_when_a_whole_level_dies() {
        let mut r = Router::new(vec![Some(1), Some(0)]);
        for s in 0..4 {
            r.owner(s);
        }
    }

    #[test]
    fn replica_failover_is_bit_identical_to_the_fault_free_run() {
        use archetype_mp::{run_spmd_ft, CrashSite, FaultPlan};
        // p=8 on Lopsided gives the heavy segment several replicas; kill
        // one of them mid-stream and compare against an inert plan.
        let clean = run_spmd_ft(
            8,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            FaultPlan::new(4),
            |ctx| run_pipeline(&Lopsided(64), ctx, PipelineConfig::default()),
        );
        let plan = FaultPlan::new(4).crash(3, CrashSite::Phase(5));
        let faulty = run_spmd_ft(
            8,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            plan,
            |ctx| run_pipeline(&Lopsided(64), ctx, PipelineConfig::default()),
        );
        let (clean_out, _) = clean.results[0].as_ref().expect("clean run");
        let failure = faulty.results[3].as_ref().expect_err("rank 3 crashed");
        assert!(failure.injected);
        assert_eq!(faulty.leaked_messages, 0);
        for rank in [0usize, 1, 2, 4, 5, 6, 7] {
            let (out, stats) = faulty.results[rank].as_ref().expect("survivor");
            assert_eq!(out, clean_out, "rank {rank}");
            assert_eq!(stats.failovers, 1);
        }
    }

    #[test]
    fn order_sensitive_fold_survives_a_replica_death() {
        use archetype_mp::{run_spmd_ft, CrashSite, FaultPlan};
        // HeavyOrdered's fused chain is replicated on every middle rank
        // from p=4 up (at p=3 its one middle rank is a whole level, so its
        // death is unrecoverable — covered by
        // router_panics_when_a_whole_level_dies).
        let expected = run_sequential(&HeavyOrdered(60)).0;
        for p in [4usize, 6, 8] {
            // Kill the first transform replica after 3 items: the
            // concatenated fold string detects any reordering or loss.
            let plan = FaultPlan::new(p as u64).crash(1, CrashSite::Phase(3));
            let out = run_spmd_ft(
                p,
                MachineModel::cray_t3d(),
                RunConfig::default(),
                plan,
                |ctx| run_pipeline(&HeavyOrdered(60), ctx, PipelineConfig::default()).0,
            );
            assert_eq!(out.leaked_messages, 0, "p={p}");
            for (rank, res) in out.results.iter().enumerate() {
                match res {
                    Ok(s) => assert_eq!(*s, expected, "p={p} rank={rank}"),
                    Err(f) => {
                        assert_eq!(rank, 1, "p={p}: only the killed replica may fail");
                        assert!(f.injected);
                    }
                }
            }
        }
    }

    #[test]
    fn immediate_replica_death_reroutes_everything() {
        use archetype_mp::{run_spmd_ft, CrashSite, FaultPlan};
        let expected = run_sequential(&HeavyOrdered(30)).0;
        // Phase(0): the replica dies before receiving a single item; its
        // whole share lands on the other replica of its level.
        let plan = FaultPlan::new(2).crash(2, CrashSite::Phase(0));
        let out = run_spmd_ft(
            6,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            plan,
            |ctx| run_pipeline(&HeavyOrdered(30), ctx, PipelineConfig::default()).0,
        );
        assert_eq!(out.leaked_messages, 0);
        for (rank, res) in out.results.iter().enumerate() {
            match res {
                Ok(s) => assert_eq!(*s, expected, "rank={rank}"),
                Err(f) => {
                    assert_eq!(rank, 2);
                    assert!(f.injected);
                }
            }
        }
    }

    #[test]
    fn failover_trace_conforms_to_the_extended_grammar() {
        use archetype_mp::{run_spmd_ft, CrashSite, FaultPlan};
        // The routing table accounts for a scheduled death from the
        // start; one beyond the replica's share never fires, so every
        // rank completes and the traced run reports its trace.
        let plan = FaultPlan::new(6).crash(2, CrashSite::Phase(1000));
        let out = run_spmd_ft(
            6,
            MachineModel::ibm_sp(),
            RunConfig::traced(),
            plan,
            |ctx| run_pipeline(&HeavyOrdered(40), ctx, PipelineConfig::default()),
        );
        let (_, stats) = out.results[0].as_ref().expect("every rank completes");
        assert_eq!(stats.failovers, 1);
        let kinds = root_kinds(out.trace);
        assert!(kinds.contains(&PhaseKind::Detect));
        assert!(kinds.contains(&PhaseKind::Recover));
        assert!(
            PIPELINE.grammar().matches(&kinds),
            "{kinds:?} rejected by the pipeline grammar"
        );
    }

    #[test]
    fn partition_balances_contiguously() {
        let costs = [1.0, 1.0, 8.0, 1.0, 1.0];
        let bounds = partition_stages(&costs, 3);
        assert_eq!(bounds, vec![(0, 2), (2, 3), (3, 5)]);
        assert_eq!(partition_stages(&costs, 1), vec![(0, 5)]);
        let all = partition_stages(&costs, 9);
        assert_eq!(all.len(), 5, "never more segments than stages");
    }

    /// Per-item prices in microseconds.
    fn prices_us(ingest: f64, stages: &[f64], emit: f64) -> Prices {
        Prices {
            ingest: ingest * 1e-6,
            stages: stages.iter().map(|s| s * 1e-6).collect(),
            emit: emit * 1e-6,
        }
    }

    fn plan_at(p: usize, prices: &Prices) -> Plan {
        build_plan(
            p,
            prices,
            &MachineModel::ibm_sp(),
            &PipelineConfig::default(),
        )
    }

    #[test]
    fn a_stream_too_fine_for_its_messages_stays_on_one_rank() {
        // The forecast's top-k chunk: 17.9 µs of work against 10 µs of
        // messaging per item at each end (IBM SP).
        let topk = prices_us(5.12, &[7.68, 1.28], 3.84);
        for p in [2usize, 3, 4, 8, 16] {
            assert_eq!(plan_at(p, &topk), Plan::OneRank, "p={p}");
            assert_eq!(Plan::OneRank.shape(p), (0, 0, p - 1));
        }
    }

    #[test]
    fn two_ranks_pair_up_and_more_fuse_before_they_split() {
        // The image chain's 32 × 32 tile: blur, gradient, quantize.
        let chain = prices_us(20.48, &[1474.56, 61.44, 20.48], 10.24);
        assert_eq!(plan_at(2, &chain), Plan::Paired);
        assert_eq!(Plan::Paired.shape(2), (1, 2, 0));
        // At p = 16 one fused segment beats the blur on replicas of its
        // own, and the cutoff leaves four of fourteen middle ranks idle.
        assert_eq!(plan_at(16, &chain).shape(16), (1, 10, 4));
    }

    #[test]
    fn equal_bottlenecks_go_to_the_layout_on_fewer_ranks() {
        // At p = 5 two segments (blur | the rest, one rank idle) and
        // three (one stage each) share the blur's bottleneck exactly.
        let ragged = prices_us(3.0, &[50.0, 10.0, 3.0], 2.0);
        let plan = plan_at(5, &ragged);
        assert_eq!(plan.shape(5), (2, 2, 1), "{plan:?}");
    }

    #[test]
    fn paired_ranks_share_the_chain() {
        // Cray T3D: 8 µs of stages per item against 2 µs of messaging.
        // Each item is transformed exactly once, on one rank or the
        // other, so the order-sensitive fold matches the oracle.
        let pipe = Priced {
            items: 9,
            ingest: 100.0,
            stages: vec![Costed(200.0), Costed(200.0)],
            emit: 100.0,
        };
        let (expected, _) = run_sequential(&pipe);
        let out = run_spmd(2, MachineModel::cray_t3d(), |ctx| {
            run_pipeline(&pipe, ctx, PipelineConfig::default())
        });
        for (out, stats) in &out.results {
            assert_eq!(*out, expected);
            assert_eq!(
                (stats.segments, stats.replicas, stats.idle_ranks),
                (1, 2, 0)
            );
            assert_eq!((stats.forwarded, stats.credits), (9, 9));
            assert_eq!(stats.transforms, 18);
        }
    }

    #[test]
    fn the_planner_prices_the_mean_of_the_first_eight_items() {
        // Stream item `seq` is `seq + 1` and costs 1 000 × (seq + 1) flops
        // in the one stage, so the stage price is the mean over however
        // many items are probed.
        struct Growing;
        impl Stage<u64> for Growing {
            fn transform(&self, _seq: u64, item: u64) -> u64 {
                item
            }
            fn flops(&self, item: &u64) -> f64 {
                1_000.0 * *item as f64
            }
        }
        let pipe = Priced {
            items: 50,
            ingest: 1_000.0,
            stages: Vec::new(),
            emit: 1_000.0,
        };
        let prices = probe_prices(&pipe, &[&Growing], &MachineModel::ibm_sp());
        // 4 500 flops, the mean of items 1–8, at the IBM SP's rate.
        assert_eq!(prices.stages, [4.5e-5]);
    }
}
