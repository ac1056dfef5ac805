//! The task-farm skeleton: trait, configuration, and the SPMD driver.
//!
//! See the crate-level docs for the archetype's shape. The protocol per
//! round is, on every rank in lockstep:
//!
//! 1. **Work**: pop up to `batch` tasks from the local priority queue
//!    (highest [`Farm::priority`] first, FIFO among ties); tasks failing
//!    [`Farm::keep`] against the current steering hint are dropped free of
//!    charge; each executed task may emit partial results and spawn new
//!    tasks, which enter the local queue immediately.
//! 2. **Steal**: pair with `rank ^ (1 << (round mod ⌈log₂ p⌉))`, exchange
//!    load reports (steal-request), then each side ships half of any
//!    surplus — coldest tasks first — in a steal-reply. Both replies are
//!    always sent (possibly empty) so the protocol is symmetric and
//!    deadlock-free under blocking matched receives.
//! 3. **Wave**: a token starting at rank 0 walks the ring accumulating
//!    `(pending task count, merged hint)`; the last rank broadcasts the
//!    verdict. Terminate exactly when a wave proves zero pending tasks
//!    everywhere.
//!
//! Because the schedule is fixed and clocks are driven only by the
//! machine model, runs are deterministic: identical results, identical
//! virtual times, identical statistics on every execution.

use std::collections::btree_map::{Entry, OccupiedEntry};
use std::collections::{BTreeMap, VecDeque};

use archetype_core::{PhaseKind, PhaseTrace};
use archetype_mp::tags::{farm_tag, FarmTag};
use archetype_mp::{impl_fixed_size, CostMeter, Ctx, MachineModel, Payload};

/// Modeled flop-equivalents charged per executed task when the farm does
/// not override [`Farm::task_flops`] or charge explicitly.
pub const DEFAULT_TASK_FLOPS: f64 = 100.0;

/// Modeled flop-equivalents charged per seed task for generating and
/// dealing the initial pool.
pub(crate) const SEED_FLOPS_PER_TASK: f64 = 20.0;

/// A task-farm computation: an irregular pool of tasks drained by
/// workers, combined by an associative **and commutative** reduction.
///
/// The skeleton calls `seed` once (on every rank — it must be
/// deterministic), `work` once per task, and `reduce` to fold emitted
/// partial results into the per-rank accumulator and to combine the
/// per-rank accumulators at the end. Optional methods refine the
/// schedule: `priority` orders the local queue (best-first search),
/// `task_flops` prices a task for the virtual clock, and the *hint*
/// family shares steering state between ranks (e.g. a branch-and-bound
/// incumbent) on every termination wave — `keep` may then drop queued
/// tasks that the globally merged hint has made irrelevant.
pub trait Farm: Sync {
    /// One unit of work. Must report its wire size ([`Payload`]) because
    /// tasks migrate between ranks in steal-reply messages.
    type Task: Payload;
    /// A partial result. Combined with [`Farm::reduce`], which must be
    /// associative and commutative (the final combination runs as a
    /// recursive-doubling all-reduce).
    type Out: Payload + Clone;
    /// Steering state merged across ranks by every wave (`Sync` because
    /// the wave verdict travels the broadcast tree as a shared payload).
    /// Use `()` for farms that need none.
    type Hint: Payload + Clone + Default + Sync;

    /// The initial task pool. Called on every rank; must return the same
    /// tasks in the same order everywhere (the usual SPMD contract).
    /// Tasks are dealt round-robin: rank `r` keeps task `i` iff
    /// `i % nprocs == r`.
    fn seed(&self) -> Vec<Self::Task>;

    /// Process one task: emit partial results and spawn follow-on tasks
    /// through `scope`. Charged `task_flops(task)` plus whatever the body
    /// adds via [`WorkScope::charge_flops`].
    fn work(&self, task: Self::Task, scope: &mut WorkScope<'_, Self>);

    /// The identity element of [`Farm::reduce`] (the accumulator's
    /// initial value).
    fn out_identity(&self) -> Self::Out;

    /// Combine two partial results. Must be associative and commutative.
    ///
    /// [`WorkScope::emit`] calls `reduce(acc, out)` once per emitted
    /// result, with the rank's whole accumulator as `a`. A scalar `Out`
    /// need not care; a collection-valued one must fold `b` *into* `a`
    /// in O(|b|) amortised — rebuilding the accumulator on every emit
    /// makes the farm quadratic in its task count, in wall time only
    /// (the virtual clock charges `task_flops`, not the fold).
    fn reduce(&self, a: Self::Out, b: Self::Out) -> Self::Out;

    /// Modeled base cost of `task` in flop-equivalents. Farms with
    /// data-dependent cost should return a floor here and charge the
    /// rest via [`WorkScope::charge_flops`].
    fn task_flops(&self, _task: &Self::Task) -> f64 {
        DEFAULT_TASK_FLOPS
    }

    /// Local queue priority: higher runs first; equal priorities run in
    /// FIFO order. Defaults to FIFO for everything. Ties are O(1): the
    /// queue keeps one FIFO per distinct priority, so its cost grows with
    /// the number of distinct values queued, not with the frontier — a
    /// coarse priority (a bound, a depth) is as cheap as none.
    fn priority(&self, _task: &Self::Task) -> f64 {
        0.0
    }

    /// Project the steering hint out of a local accumulator. The global
    /// hint every rank sees is the [`Farm::merge_hint`] of all ranks'
    /// local hints, refreshed by each wave.
    fn local_hint(&self, _acc: &Self::Out) -> Self::Hint {
        Self::Hint::default()
    }

    /// Merge two hints. Must be associative, commutative, and
    /// *monotone*: merging can only strengthen a hint, never weaken it
    /// (this is what makes hint-based dropping and the wave's pending
    /// count sound).
    fn merge_hint(&self, a: Self::Hint, _b: Self::Hint) -> Self::Hint {
        a
    }

    /// Whether a queued task is still worth executing given the current
    /// hint. Tasks failing this at pop time are dropped without charge
    /// and counted in [`FarmStats::dropped`]. Must be monotone in the
    /// hint: once false under some hint, it stays false under any
    /// stronger (further-merged) hint.
    fn keep(&self, _task: &Self::Task, _hint: &Self::Hint) -> bool {
        true
    }
}

/// The handle [`Farm::work`] uses to emit results, spawn tasks, read the
/// steering hint, and charge data-dependent compute cost.
pub struct WorkScope<'a, F: Farm + ?Sized> {
    farm: &'a F,
    hint: &'a F::Hint,
    acc: &'a mut Option<F::Out>,
    spawned: &'a mut Vec<F::Task>,
    extra_flops: f64,
}

impl<'a, F: Farm + ?Sized> WorkScope<'a, F> {
    /// Internal constructor shared with the fault-tolerant driver
    /// (`ft` module), which executes tasks outside the lockstep loop.
    pub(crate) fn new(
        farm: &'a F,
        hint: &'a F::Hint,
        acc: &'a mut Option<F::Out>,
        spawned: &'a mut Vec<F::Task>,
    ) -> Self {
        WorkScope {
            farm,
            hint,
            acc,
            spawned,
            extra_flops: 0.0,
        }
    }

    /// Flop-equivalents charged through [`WorkScope::charge_flops`] so
    /// far — read back by the drivers to price the task.
    pub(crate) fn extra_flops(&self) -> f64 {
        self.extra_flops
    }
}

impl<F: Farm + ?Sized> WorkScope<'_, F> {
    /// The globally merged steering hint as of the last wave (plus this
    /// rank's own contributions folded in locally).
    pub fn hint(&self) -> &F::Hint {
        self.hint
    }

    /// This rank's accumulator so far — useful when a decision should use
    /// local results that are fresher than the last wave's hint.
    pub fn acc(&self) -> &F::Out {
        self.acc.as_ref().expect("accumulator present during work")
    }

    /// Fold a partial result into this rank's accumulator, immediately:
    /// one [`Farm::reduce`]`(acc, out)` per call, in emission order, so
    /// the reduction tree — and with it the result's bits — is fixed by
    /// the task order alone. See [`Farm::reduce`] for what that asks of
    /// a collection-valued `Out`.
    pub fn emit(&mut self, out: F::Out) {
        let cur = self.acc.take().expect("accumulator present during work");
        *self.acc = Some(self.farm.reduce(cur, out));
    }

    /// Add a follow-on task to this rank's queue. It becomes poppable
    /// within the same batch (so best-first searches expand newly spawned
    /// high-priority tasks immediately).
    pub fn spawn(&mut self, task: F::Task) {
        self.spawned.push(task);
    }

    /// Charge additional flop-equivalents beyond [`Farm::task_flops`] —
    /// the mechanism for pricing data-dependent work (e.g. the actual
    /// iteration count of an escape-time kernel).
    pub fn charge_flops(&mut self, flops: f64) {
        debug_assert!(flops >= 0.0, "negative compute charge");
        self.extra_flops += flops;
    }
}

/// How many tasks a rank drains per round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Batching {
    /// Always drain up to this many tasks per round.
    Fixed(usize),
    /// Size the batch from the machine model so that the round's
    /// communication (steal exchange + wave) costs at most
    /// [`FarmConfig::comm_fraction`] of the round's modeled compute,
    /// using a [`CostMeter`] running average of executed-task cost.
    Adaptive,
}

/// Tuning knobs for [`run_farm`]. `FarmConfig::default()` enables
/// adaptive batching and stealing — the archetype's intended shape.
#[derive(Clone, Copy, Debug)]
pub struct FarmConfig {
    /// Batch sizing policy.
    pub batch: Batching,
    /// Whether the pairwise steal exchange runs. Disabling it keeps the
    /// farm correct (the wave still terminates it) but lets imbalance
    /// from irregular task costs or spawning go uncorrected.
    pub steal: bool,
    /// Adaptive batching's target ratio of per-round communication cost
    /// to per-round compute cost.
    pub comm_fraction: f64,
    /// Lower bound on the adaptive batch.
    pub min_batch: usize,
    /// Upper bound on the adaptive batch.
    pub max_batch: usize,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            batch: Batching::Adaptive,
            steal: true,
            comm_fraction: 0.05,
            min_batch: 1,
            max_batch: 4096,
        }
    }
}

/// Deterministic, globally summed execution statistics of a farm run.
/// Every rank returns the same values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Tasks produced by [`Farm::seed`].
    pub seeded: u64,
    /// Tasks executed by [`Farm::work`].
    pub executed: u64,
    /// Tasks spawned during execution.
    pub spawned: u64,
    /// Tasks dropped by [`Farm::keep`] without execution.
    pub dropped: u64,
    /// Tasks that migrated between ranks in steal replies.
    pub stolen: u64,
    /// Steal-request exchanges performed (pairs count once per side).
    pub steal_exchanges: u64,
    /// Work/steal/wave rounds executed (lockstep, so the max over ranks
    /// equals every rank's count).
    pub rounds: u64,
}

impl_fixed_size!(FarmStats);

impl FarmStats {
    fn combine(a: FarmStats, b: FarmStats) -> FarmStats {
        FarmStats {
            seeded: a.seeded + b.seeded,
            executed: a.executed + b.executed,
            spawned: a.spawned + b.spawned,
            dropped: a.dropped + b.dropped,
            stolen: a.stolen + b.stolen,
            steal_exchanges: a.steal_exchanges + b.steal_exchanges,
            rounds: a.rounds.max(b.rounds),
        }
    }
}

/// One priority level of the [`Queue`]: its tasks in arrival order.
///
/// A level holding a single task keeps it inline and a longer one boxes
/// its deque, so the map's nodes stay small and a farm whose priorities
/// are all distinct never allocates a deque. Measured on the queue
/// alone, 200 k distinct priorities pushed then popped: heap 165–170 ns
/// per task, this 150–162 ns (unboxed deque 170–174 ns; without the
/// inline case a `BTreeMap<key, VecDeque>` was 1.9× slower than the
/// heap).
enum Bucket<T> {
    One(T),
    // Boxed on purpose (the measurement above): an inline deque fattens
    // every map node for the sake of the levels that have ties.
    #[allow(clippy::box_collection)]
    Many(Box<VecDeque<T>>),
}

/// The local task queue of one rank: tasks grouped by priority once, at
/// insertion, so popping and donating only index.
///
/// The order is the total order the farm protocol is defined by — `pop`
/// yields `(priority descending, arrival ascending)`, `take_coldest`
/// `(priority ascending, arrival descending)`, priorities compared by
/// `f64::total_cmp` so `-0.0 < +0.0` and NaNs are ordinary (and
/// deterministic) keys. Levels live in a `BTreeMap` keyed by the
/// order-preserving integer image of the priority; within a level
/// arrival order *is* FIFO order, so no sequence number is stored. A
/// push or pop costs one lookup among the *distinct* priorities — O(1)
/// on ties however long the frontier — where a heap of `(pri, seq)`
/// entries paid an O(log n) cache-missing sift per task and a whole-heap
/// rebuild per steal (130 ns per node on the knapsack's 100 k-entry,
/// single-priority frontier). A B-tree keyed `(pri, seq)` was the other
/// candidate — same order, less code — but it keeps a per-task log n on
/// ties: 61–65 ns per pop-and-push on a 125 k-task single-priority
/// frontier against 6–8 ns here (heap: 110 ns), and no better than this
/// on distinct priorities (155 ns).
struct Queue<T> {
    levels: BTreeMap<i64, Bucket<T>>,
    len: usize,
}

/// Map a priority to an integer whose `Ord` is `f64::total_cmp` (the
/// transform `total_cmp` itself compares through).
fn level_key(pri: f64) -> i64 {
    let bits = pri.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl<T> Queue<T> {
    fn new() -> Self {
        Queue {
            levels: BTreeMap::new(),
            len: 0,
        }
    }

    fn push(&mut self, pri: f64, task: T) {
        self.len += 1;
        match self.levels.entry(level_key(pri)) {
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(task));
            }
            Entry::Occupied(mut slot) => match slot.get_mut() {
                Bucket::Many(tasks) => tasks.push_back(task),
                Bucket::One(_) => {
                    // Second task at this level: spill the inline one.
                    let spill = Bucket::Many(Box::new(VecDeque::with_capacity(4)));
                    if let (Bucket::One(first), Bucket::Many(tasks)) =
                        (slot.insert(spill), slot.get_mut())
                    {
                        tasks.extend([first, task]);
                    }
                }
            },
        }
    }

    /// The oldest task of the hottest level.
    fn pop(&mut self) -> Option<T> {
        let hottest = self.levels.last_entry()?;
        self.len -= 1;
        Some(take(hottest, End::Oldest))
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Remove the `k` coldest tasks — lowest priority, newest first —
    /// the classic steal-from-the-cold-end policy, in that order: the
    /// backs of the coldest levels, O(1) per donated task.
    fn take_coldest(&mut self, k: usize) -> Vec<T> {
        let k = k.min(self.len);
        self.len -= k;
        (0..k)
            .map(|_| {
                let coldest = self.levels.first_entry().expect("len counts queued tasks");
                take(coldest, End::Newest)
            })
            .collect()
    }
}

/// Which end of a level a task leaves from.
enum End {
    Oldest,
    Newest,
}

/// Take one task out of `level`, which leaves the map with its last task
/// (so a level in the map is never empty).
fn take<T>(mut level: OccupiedEntry<'_, i64, Bucket<T>>, end: End) -> T {
    if let Bucket::Many(tasks) = level.get_mut() {
        if tasks.len() > 1 {
            let task = match end {
                End::Oldest => tasks.pop_front(),
                End::Newest => tasks.pop_back(),
            };
            return task.expect("more than one task queued");
        }
    }
    match level.remove() {
        Bucket::One(task) => task,
        Bucket::Many(mut tasks) => tasks.pop_front().expect("a level holds a task"),
    }
}

/// A batch of migrating tasks (steal-reply payload): 8 bytes of header
/// plus the tasks' own wire sizes.
struct TaskBatch<T>(Vec<T>);

impl<T: Payload> Payload for TaskBatch<T> {
    fn size_bytes(&self) -> usize {
        8 + self.0.iter().map(Payload::size_bytes).sum::<usize>()
    }
}

/// The wave token / verdict: the global pending-task count and the merged
/// steering hint.
#[derive(Clone)]
struct WaveToken<H> {
    pending: u64,
    hint: H,
}

impl<H: Payload> Payload for WaveToken<H> {
    fn size_bytes(&self) -> usize {
        8 + self.hint.size_bytes()
    }
}

/// Estimated per-round communication cost of the farm protocol: the
/// steal request/reply pair plus the termination wave, priced by the
/// machine model. The wave is a *serial* ring of `p` hops followed by a
/// verdict fan-out, and every rank's clock is dragged to the round's
/// end by the verdict, so the whole O(p) chain is paid per round — not
/// just this rank's own handful of messages.
fn round_comm_seconds(model: &MachineModel, nprocs: usize) -> f64 {
    let msgs = 3.0 + nprocs as f64;
    msgs * (model.wire_time(64) + model.recv_overhead)
}

/// Measured average cost of one executed task in seconds; falls back to
/// the default task price before anything has run.
fn avg_task_seconds(model: &MachineModel, meter: &CostMeter, executed: u64) -> f64 {
    if executed > 0 {
        (meter.elapsed() / executed as f64).max(1e-30)
    } else {
        model.compute_time(DEFAULT_TASK_FLOPS).max(1e-30)
    }
}

fn adaptive_batch(
    config: &FarmConfig,
    model: &MachineModel,
    nprocs: usize,
    meter: &CostMeter,
    executed: u64,
    max_task_seconds: f64,
) -> usize {
    // Until at least one task has been measured, stay conservative: a
    // wrong bootstrap estimate here could drain the whole pool in one
    // round and leave the steal phase nothing to balance.
    if executed == 0 {
        return config.min_batch.max(1);
    }
    let lo = config.min_batch.max(1);
    let hi = config.max_batch.max(lo);
    let avg_task = avg_task_seconds(model, meter, executed);
    // Target round duration: long enough to amortize the round's
    // communication, and — for heavily irregular farms — at least a
    // couple of the most expensive tasks seen, so that expensive tasks
    // on different ranks run within the *same* round instead of each
    // serializing a round of its own (the wave syncs every rank's clock
    // to the round's slowest, so per-round imbalance is paid globally).
    let comm = round_comm_seconds(model, nprocs);
    let target = (comm / config.comm_fraction.max(1e-6)).max(4.0 * max_task_seconds);
    let b = (target / avg_task).ceil() as usize;
    b.clamp(lo, hi)
}

/// Execute `farm` as an SPMD task-farm on this rank. Must be called by
/// every rank of the run (collectively, like the archetype drivers).
/// Returns the globally reduced output and globally summed statistics —
/// identical on every rank, and identical across repeated runs.
pub fn run_farm<F: Farm>(farm: &F, ctx: &mut Ctx, config: FarmConfig) -> (F::Out, FarmStats) {
    run_farm_traced(farm, ctx, config, None)
}

/// [`run_farm`] with phase tracing: rank 0 records the archetype's phase
/// sequence (Seed, then Work/Steal per round, then Terminate) into
/// `trace` so tests can assert the farm follows its pattern.
pub fn run_farm_traced<F: Farm>(
    farm: &F,
    ctx: &mut Ctx,
    config: FarmConfig,
    trace: Option<&PhaseTrace>,
) -> (F::Out, FarmStats) {
    let p = ctx.nprocs();
    let me = ctx.rank();
    let record = |ctx: &mut Ctx, kind: PhaseKind, label: &str| {
        // Every rank stamps the phase into the substrate trace (spans in
        // the per-rank tracks); the legacy PhaseTrace summary stays
        // rank-0-only.
        ctx.trace_phase(kind.name(), label);
        if ctx.rank() == 0 {
            if let Some(t) = trace {
                t.record(kind, label);
            }
        }
    };

    // --- Seed: deterministic pool, dealt round-robin. --------------------
    record(ctx, PhaseKind::Seed, "seed pool, round-robin deal");
    let mut stats = FarmStats::default();
    let mut queue: Queue<F::Task> = Queue::new();
    let seed = farm.seed();
    ctx.charge_items(seed.len().max(1), SEED_FLOPS_PER_TASK);
    for (i, task) in seed.into_iter().enumerate() {
        if i % p == me {
            stats.seeded += 1;
            queue.push(farm.priority(&task), task);
        }
    }

    let mut acc: Option<F::Out> = Some(farm.out_identity());
    let mut hint: F::Hint = farm.local_hint(acc.as_ref().expect("acc"));
    let mut meter = CostMeter::new(*ctx.model());
    let mut max_task_seconds = 0.0f64;
    let steal_dims = (usize::BITS - (p - 1).leading_zeros()).max(1) as u64;
    let model = *ctx.model();

    let mut round: u64 = 0;
    loop {
        stats.rounds += 1;

        // --- Work: drain a batch from the local queue. -------------------
        record(ctx, PhaseKind::Work, "drain batch");
        let batch = match config.batch {
            Batching::Fixed(b) => b.max(1),
            Batching::Adaptive => {
                adaptive_batch(&config, &model, p, &meter, stats.executed, max_task_seconds)
            }
        };
        let mut executed_this_round = 0usize;
        let mut spawned: Vec<F::Task> = Vec::new();
        while executed_this_round < batch {
            let Some(task) = queue.pop() else { break };
            if !farm.keep(&task, &hint) {
                stats.dropped += 1;
                continue; // dropping is free; keep draining
            }
            let base = farm.task_flops(&task);
            let mut scope = WorkScope {
                farm,
                hint: &hint,
                acc: &mut acc,
                spawned: &mut spawned,
                extra_flops: 0.0,
            };
            farm.work(task, &mut scope);
            let flops = base + scope.extra_flops;
            ctx.charge_flops(flops);
            let before = meter.elapsed();
            meter.charge_flops(flops);
            max_task_seconds = max_task_seconds.max(meter.elapsed() - before);
            stats.executed += 1;
            executed_this_round += 1;
            // Spawned tasks enter the queue immediately, so a best-first
            // farm can expand a just-spawned high-priority task within
            // the same batch.
            for t in spawned.drain(..) {
                stats.spawned += 1;
                queue.push(farm.priority(&t), t);
            }
        }

        // --- Steal: pairwise load exchange on a hypercube schedule. ------
        if config.steal && p > 1 {
            record(ctx, PhaseKind::Steal, "steal-request/steal-reply exchange");
            let partner = me ^ (1usize << (round % steal_dims));
            if partner < p {
                let req = farm_tag(FarmTag::StealRequest, round);
                let rep = farm_tag(FarmTag::StealReply, round);
                // Loads are queue lengths. Cost imbalance is handled by
                // the time-targeted batch, not the load metric: a rank
                // holding expensive tasks drains fewer of them per
                // round, so its count stays high and donates work, while
                // a rank burning through cheap tasks empties its queue
                // and absorbs it — the classic steal-when-starved
                // dynamics, expressed in counts.
                let my_load = queue.len() as u64;
                ctx.send(partner, req, my_load);
                let their_load: u64 = ctx.recv(partner, req);
                stats.steal_exchanges += 1;
                let outgoing = if my_load > their_load + 1 {
                    queue.take_coldest(((my_load - their_load) / 2) as usize)
                } else {
                    Vec::new()
                };
                stats.stolen += outgoing.len() as u64;
                // Both sides always answer, possibly with an empty batch,
                // so the blocking receives below always match.
                ctx.send(partner, rep, TaskBatch(outgoing));
                let incoming: TaskBatch<F::Task> = ctx.recv(partner, rep);
                for task in incoming.0 {
                    queue.push(farm.priority(&task), task);
                }
            }
        }

        // --- Wave: termination detection + hint steering. ----------------
        // The raw queue length is a sound overestimate of pending work:
        // the wave never terminates the farm while anything is queued,
        // and tasks the hint has made irrelevant drain free of charge
        // (and get counted as dropped) in the next Work phase. Counting
        // length instead of surviving `keep` avoids re-evaluating the
        // keep test — for branch-and-bound, an O(items) bound — over the
        // whole frontier every round.
        let my_pending = queue.len() as u64;
        let my_hint = farm.merge_hint(hint.clone(), farm.local_hint(acc.as_ref().expect("acc")));
        let verdict = if p == 1 {
            WaveToken {
                pending: my_pending,
                hint: my_hint,
            }
        } else {
            let wave = farm_tag(FarmTag::Wave, round);
            // Ring pass 0 → 1 → … → p-1, accumulating the token; the
            // last rank then fans the verdict out on the binomial
            // broadcast tree (log p, instead of p-1 serialized sends).
            let token = if me == 0 {
                Some(WaveToken {
                    pending: my_pending,
                    hint: my_hint,
                })
            } else {
                let t: WaveToken<F::Hint> = ctx.recv(me - 1, wave);
                Some(WaveToken {
                    pending: t.pending + my_pending,
                    hint: farm.merge_hint(t.hint, my_hint),
                })
            };
            if me < p - 1 {
                ctx.send(me + 1, wave, token.expect("token accumulated"));
                ctx.broadcast(p - 1, None)
            } else {
                ctx.broadcast(p - 1, token)
            }
        };
        hint = verdict.hint;
        if verdict.pending == 0 {
            break;
        }
        round += 1;
    }

    // --- Terminate: combine accumulators and statistics. -----------------
    record(
        ctx,
        PhaseKind::Terminate,
        "quiescence proven; final reduction",
    );
    let out = ctx.all_reduce(acc.take().expect("acc"), |a, b| farm.reduce(a, b));
    let global_stats = ctx.all_reduce(stats, FarmStats::combine);
    (out, global_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};
    use std::collections::BinaryHeap;

    /// The queue this crate shipped before the priority-bucketed one,
    /// kept as the differential oracle: a max-heap of `(pri, seq)`
    /// entries, FIFO (smallest sequence number first) among equal
    /// priorities, `f64::total_cmp` keeping the order total.
    struct HeapEntry<T> {
        pri: f64,
        seq: u64,
        task: T,
    }

    impl<T> PartialEq for HeapEntry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == std::cmp::Ordering::Equal
        }
    }
    impl<T> Eq for HeapEntry<T> {}
    impl<T> PartialOrd for HeapEntry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for HeapEntry<T> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.pri
                .total_cmp(&other.pri)
                .then(other.seq.cmp(&self.seq))
        }
    }

    struct HeapQueue<T> {
        heap: BinaryHeap<HeapEntry<T>>,
        next_seq: u64,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, pri: f64, task: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(HeapEntry { pri, seq, task });
        }

        fn pop(&mut self) -> Option<T> {
            self.heap.pop().map(|e| e.task)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        /// The `k` coldest entries, coldest first: O(n) selection, a
        /// sort of the donated prefix, and a rebuild of the heap.
        fn take_coldest(&mut self, k: usize) -> Vec<T> {
            let mut all: Vec<HeapEntry<T>> = std::mem::take(&mut self.heap).into_vec();
            let k = k.min(all.len());
            if k > 0 && k < all.len() {
                all.select_nth_unstable(k - 1);
            }
            let rest = all.split_off(k);
            self.heap = rest.into_iter().collect();
            all.sort();
            all.into_iter().map(|e| e.task).collect()
        }
    }

    /// SplitMix64: the differential test's seeded interleavings.
    struct SplitMix(u64);
    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn bucketed_queue_matches_the_heap_oracle_on_random_interleavings() {
        let exotic = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001), // a second NaN payload
            1.5,
            -1.5,
            f64::MIN_POSITIVE,
        ];
        type Priorities<'a> = (&'a str, Box<dyn Fn(&mut SplitMix, u64) -> f64 + 'a>);
        let families: [Priorities; 5] = [
            ("all equal", Box::new(|_, _| 7.0)),
            (
                "all distinct",
                Box::new(|_, id| (id as f64).sin() * 1e6 + id as f64),
            ),
            ("few-valued", Box::new(|rng, _| rng.below(4) as f64 - 1.0)),
            (
                "exotic",
                Box::new(|rng, _| exotic[rng.below(exotic.len() as u64) as usize]),
            ),
            (
                "mixed",
                Box::new(|rng, id| match rng.below(3) {
                    0 => exotic[rng.below(exotic.len() as u64) as usize],
                    1 => rng.below(6) as f64,
                    _ => id as f64 * 0.25,
                }),
            ),
        ];
        for (family, pri) in &families {
            for seed in 0..24u64 {
                let mut rng = SplitMix(seed);
                let mut queue: Queue<u64> = Queue::new();
                let mut oracle: HeapQueue<u64> = HeapQueue::new();
                let mut next_id = 0u64;
                for step in 0..600 {
                    let at = format!("{family}, seed {seed}, step {step}");
                    match rng.below(10) {
                        0..=4 => {
                            // A burst, as a task spawning children does.
                            for _ in 0..=rng.below(6) {
                                let p = pri(&mut rng, next_id);
                                queue.push(p, next_id);
                                oracle.push(p, next_id);
                                next_id += 1;
                            }
                        }
                        5..=7 => assert_eq!(queue.pop(), oracle.pop(), "pop: {at}"),
                        _ => {
                            // k = 0, k within the queue, k = len and k > len.
                            let len = oracle.len();
                            let k = match rng.below(8) {
                                0 => 0,
                                1 => len,
                                2 => len + 1 + rng.below(5) as usize,
                                _ => rng.below(len as u64 + 1) as usize,
                            };
                            assert_eq!(
                                queue.take_coldest(k),
                                oracle.take_coldest(k),
                                "take_coldest({k}) of {len}: {at}"
                            );
                        }
                    }
                    assert_eq!(queue.len(), oracle.len(), "len: {at}");
                }
                // Drain: the whole remaining order must agree.
                while let Some(want) = oracle.pop() {
                    assert_eq!(queue.pop(), Some(want), "drain: {family}, seed {seed}");
                }
                assert_eq!(queue.pop(), None);
                assert_eq!(queue.len(), 0);
            }
        }
    }

    #[test]
    fn level_key_orders_like_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in samples {
            for b in samples {
                assert_eq!(
                    level_key(a).cmp(&level_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    /// Sum of squares with one task per integer — the simplest farm.
    struct Squares(u64);
    impl Farm for Squares {
        type Task = u64;
        type Out = u64;
        type Hint = ();
        fn seed(&self) -> Vec<u64> {
            (0..self.0).collect()
        }
        fn work(&self, task: u64, scope: &mut WorkScope<'_, Self>) {
            scope.emit(task * task);
        }
        fn out_identity(&self) -> u64 {
            0
        }
        fn reduce(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    fn squares_expected(n: u64) -> u64 {
        (0..n).map(|i| i * i).sum()
    }

    #[test]
    fn farm_sums_squares_for_many_process_counts() {
        for p in [1usize, 2, 3, 5, 8] {
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                run_farm(&Squares(200), ctx, FarmConfig::default())
            });
            for (r, (sum, stats)) in out.results.iter().enumerate() {
                assert_eq!(*sum, squares_expected(200), "p={p} rank={r}");
                assert_eq!(stats.seeded, 200);
                assert_eq!(stats.executed, 200);
                assert_eq!(stats.spawned, 0);
            }
        }
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            run_farm(&Squares(0), ctx, FarmConfig::default())
        });
        for (sum, stats) in &out.results {
            assert_eq!(*sum, 0);
            assert_eq!(stats.executed, 0);
            assert_eq!(stats.rounds, 1);
        }
    }

    #[test]
    fn single_task_farm_works() {
        let out = run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            run_farm(&Squares(1), ctx, FarmConfig::default()).0
        });
        assert!(out.results.iter().all(|&s| s == 0));
    }

    /// A farm whose seed tasks spawn a geometric tree of children: seed
    /// task `k` spawns `k` children, each of which is a leaf. Exercises
    /// spawning and (with the skewed seed) stealing.
    struct Spawner {
        roots: u64,
    }
    impl Farm for Spawner {
        type Task = (u64, bool); // (weight, is_root)
        type Out = u64;
        type Hint = ();
        fn seed(&self) -> Vec<(u64, bool)> {
            (0..self.roots).map(|k| (k, true)).collect()
        }
        fn work(&self, (k, is_root): (u64, bool), scope: &mut WorkScope<'_, Self>) {
            if is_root {
                for i in 0..k {
                    scope.spawn((i, false));
                }
            } else {
                scope.emit(k + 1);
            }
        }
        fn out_identity(&self) -> u64 {
            0
        }
        fn reduce(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    #[test]
    fn spawned_tasks_are_executed_and_counted() {
        let roots = 12u64;
        // Σ_k Σ_{i<k} (i+1) = Σ_k k(k+1)/2
        let expected: u64 = (0..roots).map(|k| k * (k + 1) / 2).sum();
        for p in [1usize, 4] {
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                run_farm(&Spawner { roots }, ctx, FarmConfig::default())
            });
            for (sum, stats) in &out.results {
                assert_eq!(*sum, expected, "p={p}");
                let children: u64 = (0..roots).sum();
                assert_eq!(stats.spawned, children);
                assert_eq!(stats.executed, roots + children);
            }
        }
    }

    /// All heavy spawning happens on one seed task, so without stealing
    /// one rank would own nearly the whole pool.
    struct Lopsided;
    impl Farm for Lopsided {
        type Task = u64;
        type Out = u64;
        type Hint = ();
        fn seed(&self) -> Vec<u64> {
            vec![1000, 0, 0, 0] // task 0 (rank 0's) spawns 200 children
        }
        fn work(&self, task: u64, scope: &mut WorkScope<'_, Self>) {
            if task == 1000 {
                for i in 0..200 {
                    scope.spawn(i);
                }
            } else {
                scope.emit(1);
            }
        }
        fn out_identity(&self) -> u64 {
            0
        }
        fn reduce(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn task_flops(&self, _t: &u64) -> f64 {
            50_000.0 // heavy tasks: small batches, many steal chances
        }
    }

    #[test]
    fn stealing_migrates_tasks_and_preserves_results() {
        let body = |steal: bool| {
            move |ctx: &mut Ctx| {
                let config = FarmConfig {
                    steal,
                    batch: Batching::Fixed(4),
                    ..FarmConfig::default()
                };
                run_farm(&Lopsided, ctx, config)
            }
        };
        let with = run_spmd(4, MachineModel::ibm_sp(), body(true));
        let without = run_spmd(4, MachineModel::ibm_sp(), body(false));
        let (sum_w, stats_w) = &with.results[0];
        let (sum_wo, stats_wo) = &without.results[0];
        assert_eq!(*sum_w, 203); // 3 trivial seeds + 200 children
        assert_eq!(sum_w, sum_wo, "stealing must not change the result");
        assert!(stats_w.stolen > 0, "lopsided farm must migrate tasks");
        assert_eq!(stats_wo.stolen, 0);
        assert!(
            with.elapsed_virtual < without.elapsed_virtual,
            "stealing should shorten the lopsided run: {} vs {}",
            with.elapsed_virtual,
            without.elapsed_virtual
        );
    }

    #[test]
    fn fixed_and_adaptive_batching_agree_on_results() {
        let run = |batch: Batching| {
            run_spmd(4, MachineModel::intel_delta(), move |ctx| {
                let config = FarmConfig {
                    batch,
                    ..FarmConfig::default()
                };
                run_farm(&Squares(300), ctx, config).0
            })
            .results
        };
        assert_eq!(run(Batching::Fixed(1)), run(Batching::Adaptive));
        assert_eq!(run(Batching::Fixed(64)), run(Batching::Adaptive));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            run_spmd(6, MachineModel::workstation_network(), |ctx| {
                let (out, stats) = run_farm(&Spawner { roots: 20 }, ctx, FarmConfig::default());
                (out, stats, ctx.now())
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.rank_times, b.rank_times);
    }

    /// Hint-directed dropping: tasks carry a value; the hint is the best
    /// value seen; keep() drops tasks not exceeding the hint.
    struct BestOnly;
    impl Farm for BestOnly {
        type Task = u64;
        type Out = u64; // max
        type Hint = u64;
        fn seed(&self) -> Vec<u64> {
            (0..100).collect()
        }
        fn priority(&self, t: &u64) -> f64 {
            *t as f64
        }
        fn work(&self, task: u64, scope: &mut WorkScope<'_, Self>) {
            scope.emit(task);
        }
        fn out_identity(&self) -> u64 {
            0
        }
        fn reduce(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn local_hint(&self, acc: &u64) -> u64 {
            *acc
        }
        fn merge_hint(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn keep(&self, task: &u64, hint: &u64) -> bool {
            *task > *hint
        }
    }

    #[test]
    fn hint_dropping_prunes_dominated_tasks() {
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            run_farm(&BestOnly, ctx, FarmConfig::default())
        });
        for (best, stats) in &out.results {
            assert_eq!(*best, 99);
            assert!(stats.dropped > 0, "dominated tasks should be dropped");
            assert_eq!(stats.executed + stats.dropped, 100);
        }
    }

    #[test]
    fn phase_trace_follows_the_archetype_pattern() {
        let trace = PhaseTrace::new();
        run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            run_farm_traced(&Squares(50), ctx, FarmConfig::default(), Some(&trace)).0
        });
        let kinds = trace.kinds();
        assert_eq!(kinds.first(), Some(&PhaseKind::Seed));
        assert_eq!(kinds.last(), Some(&PhaseKind::Terminate));
        assert!(kinds.contains(&PhaseKind::Work));
        assert!(kinds.contains(&PhaseKind::Steal));
        assert!(kinds[1..kinds.len() - 1]
            .iter()
            .all(|k| matches!(k, PhaseKind::Work | PhaseKind::Steal)));
    }
}
