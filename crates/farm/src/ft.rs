//! Fault-tolerant task-farm driver: master–worker with death detection
//! and deterministic batch re-execution.
//!
//! The lockstep farm in [`skeleton`](crate::skeleton) assumes every rank
//! survives: a single crashed rank wedges the steal exchange and the
//! termination wave. This module trades the decentralized shape for a
//! classic master–worker farm that *recovers* from worker crashes:
//!
//! * **Depth-1 orders.** Rank 0 (the master) holds the task pool, chunks
//!   it into batches, and keeps at most one outstanding batch per worker,
//!   retaining a copy of every assigned batch until its result arrives.
//! * **Death detection.** All master↔worker traffic uses the fault-aware
//!   channel ([`Ctx::send_ft`] / [`Ctx::recv_ft`]) on the `ft_tag`
//!   namespace. A worker's death surfaces as `Err(RankDead)` on the
//!   master's blocking result receive — never mid-protocol — and costs
//!   the master a fixed 1 ms of virtual time (the modeled heartbeat
//!   timeout).
//! * **Deterministic recovery.** A lost batch is requeued at the front
//!   and re-executed by the next idle worker. Because workers are pure
//!   (same batch in, same partial result and spawned tasks out) and the
//!   final fold walks partial results in *batch-path order* — a key
//!   derived from the batch's position in the spawn tree, independent of
//!   which worker ran it when — a recovered run's result is bit-identical
//!   to the fault-free run's.
//! * **Degraded modes.** With every worker dead the master executes the
//!   remaining batches locally; with one rank the whole farm runs
//!   locally, message-free. The master's own death is unrecoverable:
//!   workers blocked on their next order observe it and fail with a
//!   descriptive panic, which [`run_spmd_ft`](archetype_mp::run_spmd_ft)
//!   converts into per-rank [`RankFailure`](archetype_mp::RankFailure)s.
//!
//! Unlike the lockstep farm, this driver does not steal, does not steer:
//! the [`Farm::keep`]/hint machinery sees only the default hint, spawned
//! tasks return to the master for global re-batching, and tasks run in
//! FIFO batch order rather than priority order. The reduction follows
//! the spawn tree, so [`Farm::reduce`] needs associativity only at the
//! granularity the tree implies — the same contract the lockstep farm's
//! `all_reduce` already demands.
//!
//! **Why both farms stay.** Neither driver replaces the other. One dead
//! rank wedges the lockstep farm's pairwise steal exchange and its ring
//! wave, which this driver survives. This driver, in turn, has no
//! stealing, steering or priority order, and it routes every batch and
//! every spawned task through rank 0, which works no task itself while
//! a worker lives. On a fault-free run that costs it virtual time.
//! Measured on `MandelbrotFarm::classic(512, 512, 16, 1000)`, both
//! drivers with their default configs and the IBM SP model, both
//! producing the same image (wall: median of 9 runs, 2-vCPU Xeon host):
//!
//! | p | virtual ms, lockstep / FT | messages, lockstep / FT | wall ms, lockstep / FT |
//! |---|---|---|---|
//! | 4 | 1 568.3 / 2 204.4 | 44 / 70 | 30.5 / 35.3 |
//! | 8 | 850.9 / 1 173.0 | 108 / 78 | 29.1 / 31.9 |

use std::collections::{BTreeMap, VecDeque};

use archetype_core::PhaseKind;
use archetype_mp::tags::{ft_tag, FtTag};
use archetype_mp::{impl_fixed_size, Ctx, Payload};

use crate::skeleton::{Farm, WorkScope, SEED_FLOPS_PER_TASK};

/// Tuning knobs for [`run_farm_ft`].
#[derive(Clone, Copy, Debug)]
pub struct FtFarmConfig {
    /// Tasks per work order (and per re-batched spawn chunk). The FT farm
    /// has no adaptive batching: recovery wants batch contents to be a
    /// pure function of the spawn tree, not of measured task cost.
    pub batch: usize,
}

impl Default for FtFarmConfig {
    fn default() -> Self {
        FtFarmConfig { batch: 32 }
    }
}

/// Virtual seconds the master charges itself each time it detects a dead
/// worker — the modeled heartbeat timeout of a real failure detector.
const DETECT_TIMEOUT: f64 = 1e-3;

/// Execution statistics of a fault-tolerant farm run, computed by the
/// master and shipped to every surviving rank with the shutdown order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtFarmStats {
    /// Tasks produced by [`Farm::seed`].
    pub seeded: u64,
    /// Tasks whose results were incorporated (counted once per task even
    /// when a lost batch was re-executed).
    pub executed: u64,
    /// Tasks spawned during execution and re-batched by the master.
    pub spawned: u64,
    /// Work orders created (seed chunks plus spawn chunks).
    pub batches: u64,
    /// Batches lost to a worker death and re-executed elsewhere.
    pub reassigned: u64,
    /// Workers whose death the master detected.
    pub workers_lost: u64,
}

impl_fixed_size!(FtFarmStats);

/// A master→worker order: either a batch of tasks or the final shutdown
/// carrying the globally folded result and statistics.
#[derive(Clone)]
enum WorkOrder<T, O> {
    Batch { id: u64, tasks: Vec<T> },
    Shutdown { out: O, stats: FtFarmStats },
}

impl<T: Payload, O: Payload> Payload for WorkOrder<T, O> {
    fn size_bytes(&self) -> usize {
        match self {
            WorkOrder::Batch { tasks, .. } => {
                16 + tasks.iter().map(Payload::size_bytes).sum::<usize>()
            }
            WorkOrder::Shutdown { out, stats } => 8 + out.size_bytes() + stats.size_bytes(),
        }
    }
}

/// A worker→master batch result: the locally folded partial output and
/// any tasks the batch spawned (returned for global re-batching).
#[derive(Clone)]
struct BatchResult<T, O> {
    id: u64,
    out: O,
    spawned: Vec<T>,
}

impl<T: Payload, O: Payload> Payload for BatchResult<T, O> {
    fn size_bytes(&self) -> usize {
        16 + self.out.size_bytes() + self.spawned.iter().map(Payload::size_bytes).sum::<usize>()
    }
}

/// A batch the master has created and not yet incorporated: its handle
/// `id` (echoed by the worker for cross-checking), its position in the
/// spawn tree (`path`), and a retained copy of its tasks for recovery.
struct PendingBatch<F: Farm + ?Sized> {
    id: u64,
    path: Vec<u64>,
    tasks: Vec<F::Task>,
}

/// Execute one batch of tasks: fold emitted partials from the identity,
/// collect spawned tasks, and price the work. Pure in the batch contents
/// — the property recovery relies on.
fn execute_tasks<F: Farm + ?Sized>(
    farm: &F,
    hint: &F::Hint,
    tasks: Vec<F::Task>,
) -> (F::Out, Vec<F::Task>, f64) {
    let mut acc = Some(farm.out_identity());
    let mut spawned = Vec::new();
    let mut flops = 0.0;
    for task in tasks {
        let base = farm.task_flops(&task);
        let mut scope = WorkScope::new(farm, hint, &mut acc, &mut spawned);
        farm.work(task, &mut scope);
        flops += base + scope.extra_flops();
    }
    let out = acc.take().expect("accumulator present after batch");
    (out, spawned, flops)
}

/// The master's bookkeeping for results and follow-on work.
struct Master<F: Farm + ?Sized> {
    queue: VecDeque<PendingBatch<F>>,
    partials: BTreeMap<Vec<u64>, F::Out>,
    next_id: u64,
    batch_size: usize,
    stats: FtFarmStats,
}

impl<F: Farm + ?Sized> Master<F> {
    fn new(batch_size: usize) -> Self {
        Master {
            queue: VecDeque::new(),
            partials: BTreeMap::new(),
            next_id: 0,
            batch_size: batch_size.max(1),
            stats: FtFarmStats::default(),
        }
    }

    /// Chunk `tasks` into child batches of `path` and enqueue them. Child
    /// paths extend the parent's path with the chunk index, so a batch's
    /// position in the final fold is a pure function of the spawn tree —
    /// independent of scheduling, reassignment, or arrival order.
    fn enqueue_children(&mut self, path: &[u64], tasks: Vec<F::Task>) {
        let mut chunk_index = 0u64;
        let mut chunk: Vec<F::Task> = Vec::new();
        for task in tasks {
            chunk.push(task);
            if chunk.len() == self.batch_size {
                self.push_batch(path, chunk_index, std::mem::take(&mut chunk));
                chunk_index += 1;
            }
        }
        if !chunk.is_empty() {
            self.push_batch(path, chunk_index, chunk);
        }
    }

    fn push_batch(&mut self, parent: &[u64], index: u64, tasks: Vec<F::Task>) {
        let mut path = parent.to_vec();
        path.push(index);
        let id = self.next_id;
        self.next_id += 1;
        self.stats.batches += 1;
        self.queue.push_back(PendingBatch { id, path, tasks });
    }

    /// Record a completed batch's partial result and re-batch its spawns.
    fn incorporate(&mut self, batch: PendingBatch<F>, out: F::Out, spawned: Vec<F::Task>) {
        self.stats.executed += batch.tasks.len() as u64;
        self.stats.spawned += spawned.len() as u64;
        self.partials.insert(batch.path.clone(), out);
        self.enqueue_children(&batch.path, spawned);
    }

    /// Fold the recorded partials in spawn-tree (path) order.
    fn fold(self, farm: &F) -> (F::Out, FtFarmStats) {
        let mut out = farm.out_identity();
        for (_, partial) in self.partials {
            out = farm.reduce(out, partial);
        }
        (out, self.stats)
    }
}

/// Execute `farm` fault-tolerantly. Must be called collectively by every
/// rank of the run; every surviving rank returns the same globally folded
/// output and the master's statistics.
///
/// Under an active [`FaultPlan`](archetype_mp::FaultPlan) the driver
/// tolerates worker crashes (batches are re-executed; the result is
/// bit-identical to the fault-free run), message drops and duplicates on
/// its own channel, and arbitrary delays. The master's death is fatal:
/// workers fail with a descriptive panic that
/// [`run_spmd_ft`](archetype_mp::run_spmd_ft) reports per rank.
///
/// The master records Seed, then a Work record per collection round
/// with a Detect/Recover pair per detected death, then Terminate — the
/// fault-tolerant extension of the task-farm phase grammar — with
/// [`Ctx::trace_phase`]; workers record nothing.
pub fn run_farm_ft<F>(farm: &F, ctx: &mut Ctx, config: FtFarmConfig) -> (F::Out, FtFarmStats)
where
    F: Farm + ?Sized,
    F::Task: Clone,
{
    if ctx.nprocs() == 1 || ctx.rank() == 0 {
        master(farm, ctx, config)
    } else {
        worker(farm, ctx)
    }
}

fn master<F>(farm: &F, ctx: &mut Ctx, config: FtFarmConfig) -> (F::Out, FtFarmStats)
where
    F: Farm + ?Sized,
    F::Task: Clone,
{
    let p = ctx.nprocs();
    let hint = F::Hint::default();

    ctx.trace_phase(PhaseKind::Seed, "seed pool, chunked into work orders");
    let mut m: Master<F> = Master::new(config.batch);
    let seed = farm.seed();
    ctx.charge_items(seed.len().max(1), SEED_FLOPS_PER_TASK);
    m.stats.seeded = seed.len() as u64;
    m.enqueue_children(&[], seed);

    // Per-worker protocol state. Orders and results carry a per-pair
    // sequence number in their tag so every message is unique on the
    // fault-aware channel (drop/dup decisions are keyed by tag).
    let mut alive = vec![true; p];
    let mut outstanding: Vec<Option<PendingBatch<F>>> = (0..p).map(|_| None).collect();
    let mut order_seq = vec![0u64; p];
    let mut done_seq = vec![0u64; p];

    loop {
        ctx.trace_phase(PhaseKind::Work, "assign orders, collect batch results");

        // Assign the front of the queue to idle workers believed alive.
        // Send failures are deliberately ignored: whether a dying
        // worker's mailbox has closed yet is a real-time race, so death
        // is detected only on the (deterministic) result receive below.
        for w in 1..p {
            if !alive[w] || outstanding[w].is_some() {
                continue;
            }
            let Some(batch) = m.queue.pop_front() else {
                break;
            };
            let order: WorkOrder<F::Task, F::Out> = WorkOrder::Batch {
                id: batch.id,
                tasks: batch.tasks.clone(),
            };
            let tag = ft_tag(FtTag::Order, order_seq[w]);
            order_seq[w] += 1;
            let _ = ctx.send_ft(w, tag, order);
            outstanding[w] = Some(batch);
        }

        if outstanding.iter().all(Option::is_none) {
            if m.queue.is_empty() {
                break;
            }
            // Every worker is dead but work remains: degrade to local
            // execution so the farm still completes.
            ctx.trace_phase(PhaseKind::Detect, "no live workers remain");
            ctx.trace_phase(
                PhaseKind::Recover,
                "master executes remaining batches locally",
            );
            while let Some(batch) = m.queue.pop_front() {
                let (out, spawned, flops) = execute_tasks(farm, &hint, batch.tasks.clone());
                ctx.charge_flops(flops);
                m.incorporate(batch, out, spawned);
            }
            break;
        }

        // Collect one result from every busy worker, in rank order. A
        // dead worker surfaces as Err(RankDead) once its delivered
        // messages are drained; its batch is requeued at the front.
        for w in 1..p {
            let Some(batch) = outstanding[w].take() else {
                continue;
            };
            let tag = ft_tag(FtTag::Done, done_seq[w]);
            match ctx.recv_ft::<BatchResult<F::Task, F::Out>>(w, tag) {
                Ok(res) => {
                    done_seq[w] += 1;
                    debug_assert_eq!(res.id, batch.id, "result for a different order");
                    m.incorporate(batch, res.out, res.spawned);
                }
                Err(_) => {
                    ctx.trace_phase(PhaseKind::Detect, "worker heartbeat timed out");
                    ctx.trace_phase(PhaseKind::Recover, "requeue lost batch for re-execution");
                    ctx.charge_seconds(DETECT_TIMEOUT);
                    alive[w] = false;
                    m.stats.workers_lost += 1;
                    m.stats.reassigned += 1;
                    m.queue.push_front(batch);
                }
            }
        }
    }

    ctx.trace_phase(
        PhaseKind::Terminate,
        "pool drained; fold and broadcast shutdown",
    );
    let (out, stats) = m.fold(farm);
    for w in 1..p {
        if !alive[w] {
            continue;
        }
        let order: WorkOrder<F::Task, F::Out> = WorkOrder::Shutdown {
            out: out.clone(),
            stats,
        };
        let tag = ft_tag(FtTag::Order, order_seq[w]);
        order_seq[w] += 1;
        let _ = ctx.send_ft(w, tag, order);
    }
    // Final heartbeat acknowledgments keep the channel balanced (no
    // unconsumed messages on surviving ranks). A worker that crashes
    // between shutdown and its ack is simply ignored.
    for (w, live) in alive.iter().enumerate().take(p).skip(1) {
        if *live {
            let _ = ctx.recv_ft::<u64>(w, ft_tag(FtTag::Heartbeat, 0));
        }
    }
    (out, stats)
}

fn worker<F>(farm: &F, ctx: &mut Ctx) -> (F::Out, FtFarmStats)
where
    F: Farm + ?Sized,
    F::Task: Clone,
{
    let hint = F::Hint::default();
    let mut orders = 0u64;
    let mut dones = 0u64;
    loop {
        let tag = ft_tag(FtTag::Order, orders);
        let order: WorkOrder<F::Task, F::Out> = match ctx.recv_ft(0, tag) {
            Ok(order) => order,
            Err(_) => panic!(
                "task-farm master (rank 0) died before rank {}'s next order; \
                 the farm cannot recover from a master failure",
                ctx.rank()
            ),
        };
        orders += 1;
        match order {
            WorkOrder::Batch { id, tasks } => {
                // The protocol's phase boundary: a scheduled Phase(k)
                // crash fires on this worker's k-th accepted batch.
                ctx.fault_point();
                let (out, spawned, flops) = execute_tasks(farm, &hint, tasks);
                ctx.charge_flops(flops);
                let result: BatchResult<F::Task, F::Out> = BatchResult { id, out, spawned };
                let _ = ctx.send_ft(0, ft_tag(FtTag::Done, dones), result);
                dones += 1;
            }
            WorkOrder::Shutdown { out, stats } => {
                let _ = ctx.send_ft(0, ft_tag(FtTag::Heartbeat, 0), dones);
                return (out, stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, run_spmd_ft, CrashSite, FaultPlan, MachineModel, RunConfig};

    /// Sum of squares of 0..100 — one task per integer.
    struct Squares;
    impl Farm for Squares {
        type Task = u64;
        type Out = u64;
        type Hint = ();
        fn seed(&self) -> Vec<u64> {
            (0..100).collect()
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

    const SQUARES_SUM: u64 = 328350; // Σ i² for i in 0..100

    /// Roots spawn three children each; count every executed task. Uses
    /// floating-point accumulation so bit-identity is meaningful.
    struct Spawner;
    impl Farm for Spawner {
        type Task = (u64, bool);
        type Out = f64;
        type Hint = ();
        fn seed(&self) -> Vec<(u64, bool)> {
            (0..40).map(|k| (k, true)).collect()
        }
        fn work(&self, (k, is_root): (u64, bool), scope: &mut WorkScope<'_, Self>) {
            scope.emit(1.0 / (k as f64 + 1.0));
            if is_root {
                for j in 0..3 {
                    scope.spawn((k * 10 + j, false));
                }
            }
        }
        fn out_identity(&self) -> f64 {
            0.0
        }
        fn reduce(&self, a: f64, b: f64) -> f64 {
            a + b
        }
    }

    #[test]
    fn ft_farm_matches_expected_sum_without_faults() {
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            run_farm_ft(&Squares, ctx, FtFarmConfig::default())
        });
        for (sum, stats) in &out.results {
            assert_eq!(*sum, SQUARES_SUM);
            assert_eq!(stats.seeded, 100);
            assert_eq!(stats.executed, 100);
            assert_eq!(stats.workers_lost, 0);
        }
    }

    #[test]
    fn single_rank_runs_locally() {
        let out = run_spmd(1, MachineModel::zero_comm(), |ctx| {
            run_farm_ft(&Squares, ctx, FtFarmConfig::default()).0
        });
        assert_eq!(out.results[0], SQUARES_SUM);
    }

    #[test]
    fn worker_crash_recovers_bit_identically() {
        let clean = run_spmd_ft(
            4,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            FaultPlan::new(7),
            |ctx| run_farm_ft(&Spawner, ctx, FtFarmConfig::default()),
        );
        let plan = FaultPlan::new(7).crash(2, CrashSite::Phase(0));
        let faulty = run_spmd_ft(
            4,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            plan,
            |ctx| run_farm_ft(&Spawner, ctx, FtFarmConfig::default()),
        );
        let (clean_out, _) = clean.results[0].as_ref().expect("clean run succeeds");
        let failure = faulty.results[2].as_ref().expect_err("rank 2 crashed");
        assert!(failure.injected);
        for rank in [0usize, 1, 3] {
            let (out, stats) = faulty.results[rank].as_ref().expect("survivor");
            assert_eq!(out.to_bits(), clean_out.to_bits());
            assert_eq!(stats.workers_lost, 1);
            assert!(stats.reassigned >= 1);
        }
        // Pins the master's detection timeout with the recovery it prices.
        assert_eq!(faulty.rank_times[0], 0.0017483714285714282);
    }

    #[test]
    fn all_workers_dead_master_degrades_to_local_execution() {
        let plan = FaultPlan::new(3)
            .crash(1, CrashSite::Phase(0))
            .crash(2, CrashSite::Phase(0));
        let out = run_spmd_ft(
            3,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            plan,
            |ctx| run_farm_ft(&Squares, ctx, FtFarmConfig::default()).0,
        );
        assert_eq!(
            *out.results[0].as_ref().expect("master survives"),
            SQUARES_SUM
        );
        assert!(out.results[1].is_err() && out.results[2].is_err());
    }

    #[test]
    fn master_crash_fails_every_rank_with_typed_errors() {
        let plan = FaultPlan::new(11).crash(0, CrashSite::Send(0));
        let out = run_spmd_ft(
            3,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            plan,
            |ctx| run_farm_ft(&Squares, ctx, FtFarmConfig::default()).0,
        );
        assert!(out.results[0].as_ref().is_err_and(|f| f.injected));
        for rank in [1usize, 2] {
            let failure = out.results[rank].as_ref().expect_err("worker orphaned");
            assert!(!failure.injected);
            assert!(failure.message.contains("master"), "{}", failure.message);
        }
    }

    #[test]
    fn drops_and_duplicates_on_the_ft_channel_do_not_change_results() {
        let clean = run_spmd_ft(
            4,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            FaultPlan::new(5),
            |ctx| run_farm_ft(&Spawner, ctx, FtFarmConfig::default()).0,
        );
        let noisy_plan = FaultPlan::new(5)
            .drops(0.2)
            .duplicates(0.2)
            .delays(0.3, 1e-4);
        let noisy = run_spmd_ft(
            4,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            noisy_plan,
            |ctx| run_farm_ft(&Spawner, ctx, FtFarmConfig::default()).0,
        );
        assert!(noisy.all_ok());
        for rank in 0..4 {
            let a = clean.results[rank].as_ref().expect("clean");
            let b = noisy.results[rank].as_ref().expect("noisy");
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(noisy.stats.total_fault_events() > 0);
    }

    #[test]
    fn master_track_conforms_and_a_crashed_run_carries_no_trace() {
        // Fault-free: the master's track is a task-farm sentence and
        // the workers record no phase.
        let clean = run_spmd_ft(
            3,
            MachineModel::ibm_sp(),
            RunConfig::traced(),
            FaultPlan::new(9),
            |ctx| run_farm_ft(&Squares, ctx, FtFarmConfig::default()).0,
        );
        let trace = clean.trace.expect("every rank completed");
        let kinds: Vec<PhaseKind> = trace.ranks[0]
            .phases()
            .expect("nothing dropped")
            .iter()
            .map(|&(k, _)| k)
            .collect();
        assert_eq!(kinds.first(), Some(&PhaseKind::Seed));
        assert_eq!(kinds.last(), Some(&PhaseKind::Terminate));
        assert!(
            archetype_core::archetype::TASK_FARM
                .grammar()
                .matches(&kinds),
            "trace {kinds:?} must conform to the task-farm phase grammar"
        );
        for rt in &trace.ranks[1..] {
            assert_eq!(rt.phases().expect("nothing dropped"), []);
        }
        // A worker death is recovered, but its recorder went down with
        // it, so the run reports no trace rather than a partial one.
        let plan = FaultPlan::new(9).crash(1, CrashSite::Phase(1));
        let out = run_spmd_ft(
            3,
            MachineModel::ibm_sp(),
            RunConfig::traced(),
            plan,
            |ctx| run_farm_ft(&Squares, ctx, FtFarmConfig::default()).0,
        );
        assert_eq!(*out.results[0].as_ref().expect("master"), SQUARES_SUM);
        assert!(out.results[1].is_err());
        assert!(out.trace.is_none());
    }

    #[test]
    fn same_plan_same_seed_is_deterministic() {
        let run = || {
            run_spmd_ft(
                4,
                MachineModel::ibm_sp(),
                RunConfig::default(),
                FaultPlan::new(21)
                    .crash(3, CrashSite::Phase(0))
                    .delays(0.2, 1e-4),
                |ctx| run_farm_ft(&Spawner, ctx, FtFarmConfig::default()).0,
            )
        };
        let a = run();
        let b = run();
        for rank in 0..4 {
            match (&a.results[rank], &b.results[rank]) {
                (Ok(x), Ok(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (Err(x), Err(y)) => assert_eq!(x.rank, y.rank),
                _ => panic!("outcome differed between identical runs"),
            }
        }
        assert_eq!(a.stats.total_fault_events(), b.stats.total_fault_events());
    }
}
