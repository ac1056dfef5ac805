//! SPMD runner: wires up the network, runs one rank per worker thread,
//! and reports results plus virtual-time and traffic statistics.
//!
//! There is one execution path, configured by [`RunConfig`]. By default
//! ranks dispatch onto the persistent worker pool ([`crate::pool`]) and
//! the run **recycles the channel network**: a run that ends with every
//! message consumed returns its `n × n` channel mesh to a per-size cache,
//! so repeated calls stop paying n×thread-spawn plus n² channel
//! construction per invocation. `pooled: false` spawns fresh OS threads
//! and a fresh network instead — the seed behaviour, kept as the
//! comparison baseline for the `substrate_overhead` bench and as the
//! fresh-network reference of `tests/prop_arena.rs`.
//!
//! Virtual-time semantics do not depend on the configuration: clocks are
//! driven only by the machine model and message arrival times, never by
//! host scheduling, so `determinism_same_program_same_clocks` holds
//! regardless of which threads execute which rank. Every run — default,
//! traced, fault-injected — reports both the modeled `elapsed_virtual`
//! and the measured `wall_us`.
//!
//! Four entry points share that path: [`run_spmd`] (default config,
//! panics on failure), [`run_spmd_with`] (explicit config, panics),
//! [`try_run_spmd`] (explicit config, typed [`SpmdError`]) and
//! [`run_spmd_ft`] (per-rank outcomes under a [`FaultPlan`]).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::ctx::Ctx;
use crate::fault::{FaultPlan, InjectedCrash};
use crate::mailbox::{build_network, Mailbox};
use crate::model::MachineModel;
use crate::packet::Packet;
use crate::payload::PayloadArena;
use crate::pool;
use crate::stats::{RankStats, RunStats};
use crate::trace::{RunTrace, TraceRecorder};
use crate::transport::{RecvCounts, SpscSender};

/// Lock a mutex, tolerating poison: a rank that panicked while holding
/// the runner's bookkeeping locks must not wedge every later `run_spmd`
/// in the process (the data under these locks stays consistent — each
/// critical section is a single assignment or cache operation).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a finished SPMD run reports.
#[derive(Debug)]
pub struct SpmdResult<R> {
    /// Per-rank return values of the body, indexed by rank.
    pub results: Vec<R>,
    /// Elapsed virtual time: the maximum final clock across ranks.
    pub elapsed_virtual: f64,
    /// Final per-rank clocks.
    pub rank_times: Vec<f64>,
    /// Communication/computation statistics per rank.
    pub stats: RunStats,
    /// Measured wall-clock time of the run (dispatch to last rank done),
    /// in microseconds. With [`SpmdResult::recv_counts`], the only
    /// fields that legitimately differ between repeated runs.
    pub wall_us: u64,
    /// Per rank, how its channel receives were satisfied: message already
    /// queued, arrived within the transport's spin, or after parking.
    /// Timing-dependent, hence beside `stats` and not inside it.
    pub recv_counts: Vec<RecvCounts>,
    /// Per-rank event streams of a traced run ([`RunConfig::traced`]);
    /// `None` unless tracing was requested. Export with
    /// [`RunTrace::chrome_json`], analyze with [`RunTrace::critical_path`].
    pub trace: Option<RunTrace>,
}

impl<R> SpmdResult<R> {
    /// Speedup of this run relative to a modeled sequential time.
    pub fn speedup_vs(&self, sequential_time: f64) -> f64 {
        if self.elapsed_virtual > 0.0 {
            sequential_time / self.elapsed_virtual
        } else {
            f64::INFINITY
        }
    }
}

/// Why one rank of an SPMD run failed: the structured form of a rank
/// panic, reported by [`try_run_spmd`] / [`run_spmd_ft`] instead of
/// resuming the unwind on the caller's thread.
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// World rank that failed.
    pub rank: usize,
    /// The rank's panic message (or a description of the injected crash
    /// site for scheduled faults).
    pub message: String,
    /// True when the failure was scheduled by a [`FaultPlan`] crash site;
    /// false for genuine program panics.
    pub injected: bool,
    /// The rank's virtual clock at the moment of an injected crash (0.0
    /// for genuine panics, whose context is lost to the unwind).
    pub clock: f64,
    /// Statistics accumulated up to an injected crash (default for
    /// genuine panics).
    pub stats: RankStats,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.injected {
            "injected crash"
        } else {
            "panic"
        };
        write!(f, "rank {} failed ({kind}): {}", self.rank, self.message)
    }
}

impl std::error::Error for RankFailure {}

/// Error returned by the fallible entry point, [`try_run_spmd`].
#[derive(Clone, Debug)]
pub enum SpmdError {
    /// One or more ranks failed. The channel network of a failed run is
    /// always quarantined (dropped), never recycled: a dead rank may
    /// have left messages in flight.
    Ranks {
        /// The failed ranks, in rank order.
        failures: Vec<RankFailure>,
    },
    /// Every rank completed but the run ended with unreceived messages
    /// (mismatched send/recv in the SPMD program) while
    /// [`RunConfig::check_leaks`] was set. The network is quarantined.
    Leaked {
        /// Messages left in mailboxes or in flight.
        count: usize,
    },
}

impl SpmdError {
    /// The failed ranks, in rank order (empty for a leak).
    pub fn failures(&self) -> &[RankFailure] {
        match self {
            SpmdError::Ranks { failures } => failures,
            SpmdError::Leaked { .. } => &[],
        }
    }
}

impl std::fmt::Display for SpmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpmdError::Ranks { failures } => {
                write!(f, "{} rank(s) failed:", failures.len())?;
                for failure in failures {
                    write!(f, " [{failure}]")?;
                }
                Ok(())
            }
            SpmdError::Leaked { count } => write!(
                f,
                "run finished with {count} unreceived message(s): \
                 mismatched send/recv in the SPMD program"
            ),
        }
    }
}

impl std::error::Error for SpmdError {}

/// Everything a fault-injected SPMD run ([`run_spmd_ft`]) reports. Unlike
/// [`SpmdResult`], per-rank outcomes are `Result`s: scheduled crashes are
/// expected events, and surviving ranks' values remain available next to
/// the structured failures of the ranks that died.
#[derive(Debug)]
pub struct FtSpmdResult<R> {
    /// Per-rank outcomes, indexed by rank.
    pub results: Vec<Result<R, RankFailure>>,
    /// Elapsed virtual time: the maximum final clock across ranks
    /// (crashed ranks contribute their clock at the moment of death).
    pub elapsed_virtual: f64,
    /// Final per-rank clocks (clock at death for crashed ranks).
    pub rank_times: Vec<f64>,
    /// Communication/computation statistics per rank (up to the moment of
    /// death for crashed ranks).
    pub stats: RunStats,
    /// Measured wall-clock time of the run (dispatch to last rank done),
    /// in microseconds.
    pub wall_us: u64,
    /// Per rank, how its channel receives were satisfied (see
    /// [`SpmdResult::recv_counts`]); zeros for a rank that died.
    pub recv_counts: Vec<RecvCounts>,
    /// Messages left unconsumed in the network when the run ended. Always
    /// 0 for fully successful runs of leak-free programs; a run with dead
    /// ranks may legitimately strand in-flight messages (the network is
    /// quarantined, so they can never contaminate a later run).
    pub leaked_messages: usize,
}

impl<R> FtSpmdResult<R> {
    /// True if every rank completed (no scheduled crash fired and nothing
    /// panicked).
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// The failures, in rank order (empty when [`FtSpmdResult::all_ok`]).
    pub fn failures(&self) -> Vec<&RankFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }
}

/// One rank's endpoints: the send sides of its outgoing channels, its
/// mailbox, and its payload-box arena. Owned by the rank's `Ctx` while
/// running; returned afterwards so a clean network — warm freelists
/// included — can be recycled.
struct RankLinks {
    senders: Vec<SpscSender<Packet>>,
    mailbox: Mailbox,
    arena: PayloadArena,
}

/// Per-size cache of quiescent networks. Only networks whose every
/// channel and pending buffer is empty (leak check passed) are returned
/// here, so recycling can never leak a stale packet into the next run.
static NETWORK_CACHE: OnceLock<Mutex<NetworkCache>> = OnceLock::new();

/// Networks kept per process count; each costs `n²` empty channels.
const CACHED_NETWORKS_PER_SIZE: usize = 2;

/// Upper bound on the total number of empty channels retained across all
/// cached networks, so sweeping many process counts (or one huge run)
/// cannot pin unbounded memory for the process lifetime. 32k channels ≈
/// the meshes of two 128-rank runs. When a releasing run would push the
/// cache over this budget, the least-recently-released entries are
/// evicted to make room — so under plan-service churn across many
/// distinct subgroup sizes the cache tracks the *live* size mix instead
/// of pinning the budget with whatever sizes happened to run first.
const CACHE_CHANNEL_BUDGET: usize = 32 * 1024;

/// One cached quiescent network and the release stamp eviction orders by.
struct CachedNetwork {
    links: Vec<RankLinks>,
    /// Value of [`NetworkCache::clock`] when this network was released;
    /// entries with the smallest stamp are evicted first.
    stamp: u64,
}

#[derive(Default)]
struct NetworkCache {
    by_size: HashMap<usize, Vec<CachedNetwork>>,
    /// Total channels (`Σ n²`) currently held in `by_size`.
    channels: usize,
    /// Monotone release counter backing the LRU stamps.
    clock: u64,
}

impl NetworkCache {
    /// Drop the least-recently-released cached network. Within a slot
    /// entries are pushed in release order, so the front of the slot with
    /// the globally smallest stamp is the eviction victim. Slots never
    /// stay empty, so the key count is bounded by the live entry count.
    fn evict_stalest(&mut self) {
        let victim = self
            .by_size
            .iter()
            .min_by_key(|(_, slot)| slot.first().map_or(u64::MAX, |e| e.stamp))
            .map(|(&nprocs, _)| nprocs);
        let Some(nprocs) = victim else {
            return;
        };
        let slot = self.by_size.get_mut(&nprocs).expect("victim key exists");
        slot.remove(0);
        self.channels -= nprocs * nprocs;
        if slot.is_empty() {
            self.by_size.remove(&nprocs);
        }
    }
}

fn network_cache() -> &'static Mutex<NetworkCache> {
    NETWORK_CACHE.get_or_init(|| Mutex::new(NetworkCache::default()))
}

/// Build a fresh network, transposed so each rank *owns* its outgoing
/// channel ends: when a rank panics its senders drop, and peers blocked
/// on receives from it fail fast rather than deadlocking.
fn fresh_network(nprocs: usize) -> Vec<RankLinks> {
    let (senders_by_dest, mailboxes) = build_network(nprocs);
    mailboxes
        .into_iter()
        .enumerate()
        .map(|(src, mailbox)| RankLinks {
            senders: (0..nprocs)
                .map(|dest| senders_by_dest[dest][src].clone())
                .collect(),
            mailbox,
            arena: PayloadArena::new(),
        })
        .collect()
}

fn acquire_network(nprocs: usize) -> Vec<RankLinks> {
    {
        let mut cache = lock_unpoisoned(network_cache());
        if let Some(entry) = cache.by_size.get_mut(&nprocs).and_then(Vec::pop) {
            cache.channels -= nprocs * nprocs;
            if cache.by_size.get(&nprocs).is_some_and(Vec::is_empty) {
                cache.by_size.remove(&nprocs);
            }
            return entry.links;
        }
    }
    fresh_network(nprocs)
}

fn release_network(nprocs: usize, links: Vec<RankLinks>) {
    let channels = nprocs * nprocs;
    if channels > CACHE_CHANNEL_BUDGET {
        return; // can never fit, even with an empty cache
    }
    let mut cache = lock_unpoisoned(network_cache());
    if cache
        .by_size
        .get(&nprocs)
        .is_some_and(|slot| slot.len() >= CACHED_NETWORKS_PER_SIZE)
    {
        return; // per-size cap reached
    }
    // Evict least-recently-released networks until the newcomer fits.
    // Only quiescent networks are ever cached, so eviction just frees
    // empty channels — it cannot affect what a later fresh-or-recycled
    // acquisition observes (the bit-identical-to-fresh guarantee).
    while cache.channels + channels > CACHE_CHANNEL_BUDGET {
        cache.evict_stalest();
    }
    cache.clock += 1;
    let stamp = cache.clock;
    cache
        .by_size
        .entry(nprocs)
        .or_default()
        .push(CachedNetwork { links, stamp });
    cache.channels += channels;
}

type RankOutcome<R> = (R, f64, RankStats, Option<Box<TraceRecorder>>, RankLinks);
type JobResult<R> = Result<RankOutcome<R>, Box<dyn std::any::Any + Send>>;

/// Turn a caught panic payload into a structured failure. Injected
/// crashes carry their context ([`InjectedCrash`]); genuine panics yield
/// whatever message the payload holds.
fn classify_panic(rank: usize, payload: Box<dyn std::any::Any + Send>) -> RankFailure {
    match payload.downcast::<InjectedCrash>() {
        Ok(crash) => RankFailure {
            rank: crash.rank,
            message: format!("injected crash at {}", crash.site),
            injected: true,
            clock: crash.clock,
            stats: crash.stats,
        },
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            RankFailure {
                rank,
                message,
                injected: false,
                clock: 0.0,
                stats: RankStats::default(),
            }
        }
    }
}

/// How an SPMD run executes: whether ranks dispatch onto the persistent
/// pool, whether the post-run leak check is enforced, and whether events
/// are traced. The default is exactly [`run_spmd`]'s behaviour (pooled,
/// leak-checked, untraced), so
/// `run_spmd_with(n, model, RunConfig::default(), body)` ≡
/// `run_spmd(n, model, body)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Dispatch ranks onto the persistent worker pool and recycle the
    /// network (true, the default), or spawn fresh threads per call.
    pub pooled: bool,
    /// Fail the run if it ends with unreceived messages (true by
    /// default): a panic from [`run_spmd_with`], [`SpmdError::Leaked`]
    /// from [`try_run_spmd`].
    pub check_leaks: bool,
    /// Record per-rank event traces into [`SpmdResult::trace`] (false by
    /// default). Tracing never perturbs results, clocks, or statistics —
    /// the observer-effect guard in `tests/prop_trace.rs` holds them
    /// bit-identical to untraced runs.
    pub traced: bool,
    /// Ring-buffer capacity (events per rank) of a traced run; beyond
    /// it the oldest events are dropped and counted. Ignored unless
    /// `traced` is set.
    pub trace_capacity: usize,
}

/// Default per-rank event capacity of traced runs: enough for the test
/// and bench workloads in-repo without preallocating megabytes per rank.
pub const DEFAULT_TRACE_CAPACITY: usize = 16 * 1024;

impl RunConfig {
    /// The default configuration, spelled out: pooled dispatch, leak
    /// check on, tracing off. (Named for the headline figure a caller is
    /// after; every run reports both figures.)
    pub fn virtual_time() -> Self {
        RunConfig {
            pooled: true,
            check_leaks: true,
            traced: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Synonym for [`RunConfig::virtual_time`], for callers that read
    /// the measured [`SpmdResult::wall_us`].
    pub fn real() -> Self {
        Self::virtual_time()
    }

    /// The default configuration with event tracing on: the run returns
    /// its per-rank event streams in [`SpmdResult::trace`].
    pub fn traced() -> Self {
        Self::virtual_time().with_tracing()
    }

    /// This configuration with tracing switched on.
    pub fn with_tracing(self) -> Self {
        RunConfig {
            traced: true,
            ..self
        }
    }

    /// This configuration with the given traced ring-buffer capacity
    /// (events per rank); implies nothing about `traced` itself.
    pub fn with_trace_capacity(self, events: usize) -> Self {
        RunConfig {
            trace_capacity: events,
            ..self
        }
    }
}

// `#[derive(Default)]` on a struct with `bool` fields would default them
// to `false`; the semantic default is run_spmd's behaviour.
impl std::default::Default for RunConfig {
    fn default() -> Self {
        Self::virtual_time()
    }
}

/// The one execution and result-assembly path: runs one rank per worker,
/// contains every panic, and returns per-rank outcomes with clocks,
/// statistics, the leak count and the measured wall time — plus the
/// event streams of a traced run in which every rank completed.
///
/// Network lifecycle: a *fully successful* pooled run with no stranded
/// messages returns its network to the recycle cache; any run with a
/// failed rank — or with messages left in flight — quarantines it (the
/// links are simply dropped), so stale packets and dead channels can
/// never contaminate a later run.
fn run_ranks<F, R>(
    nprocs: usize,
    model: MachineModel,
    fault: Option<Arc<FaultPlan>>,
    config: RunConfig,
    body: F,
) -> (FtSpmdResult<R>, Option<RunTrace>)
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    assert!(nprocs > 0, "need at least one process");
    let RunConfig {
        pooled,
        traced,
        trace_capacity,
        ..
    } = config;
    let links = if pooled {
        acquire_network(nprocs)
    } else {
        fresh_network(nprocs)
    };

    let slots: Vec<Mutex<Option<JobResult<R>>>> = (0..nprocs).map(|_| Mutex::new(None)).collect();
    let body = &body;
    let fault = &fault;
    // One wall-clock anchor shared by every rank's recorder, taken
    // before dispatch so all tracks measure from the same instant.
    let started = Instant::now();
    let run_rank = move |rank: usize, links: RankLinks| -> JobResult<R> {
        catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = Ctx::new(
                rank,
                nprocs,
                links.senders,
                links.mailbox,
                links.arena,
                model,
            );
            if let Some(plan) = fault {
                ctx.install_fault_plan(Arc::clone(plan));
            }
            if traced {
                ctx.install_tracer(Box::new(TraceRecorder::new(trace_capacity, started)));
                ctx.trace_pool_dispatch();
            }
            let r = body(&mut ctx);
            let now = ctx.now();
            let stats = ctx.stats();
            let tracer = ctx.take_tracer();
            let (senders, mailbox, arena) = ctx.into_parts();
            (
                r,
                now,
                stats,
                tracer,
                RankLinks {
                    senders,
                    mailbox,
                    arena,
                },
            )
        }))
    };
    let run_rank = &run_rank;
    let slots_ref = &slots;
    if pooled {
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = links
            .into_iter()
            .enumerate()
            .map(|(rank, l)| {
                Box::new(move || {
                    *lock_unpoisoned(&slots_ref[rank]) = Some(run_rank(rank, l));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::run_scoped(jobs);
    } else {
        std::thread::scope(|scope| {
            for (rank, l) in links.into_iter().enumerate() {
                scope.spawn(move || {
                    *lock_unpoisoned(&slots_ref[rank]) = Some(run_rank(rank, l));
                });
            }
        });
    }
    // Measured after the dispatch barrier: every rank has returned, so
    // this spans the whole SPMD computation.
    let wall_us = started.elapsed().as_micros() as u64;

    let mut results = Vec::with_capacity(nprocs);
    let mut rank_times = Vec::with_capacity(nprocs);
    let mut per_rank = Vec::with_capacity(nprocs);
    let mut recv_counts = vec![RecvCounts::default(); nprocs];
    let mut rank_traces = Vec::with_capacity(if traced { nprocs } else { 0 });
    let mut links_back = Vec::with_capacity(nprocs);
    for (rank, slot) in slots.iter().enumerate() {
        let outcome = match lock_unpoisoned(slot).take() {
            Some(Ok((r, now, stats, tracer, mut l))) => {
                recv_counts[rank] = l.mailbox.take_recv_counts();
                links_back.push(l);
                rank_traces.extend(tracer.map(|t| t.into_rank_trace(rank)));
                Ok((r, now, stats))
            }
            Some(Err(payload)) => Err(classify_panic(rank, payload)),
            // A worker's panic guard was escaped (double panic in the job):
            // the pool still signals completion, but the slot stays empty.
            None => Err(RankFailure {
                rank,
                message: "rank's job vanished (worker panic guard escaped)".to_string(),
                injected: false,
                clock: 0.0,
                stats: RankStats::default(),
            }),
        };
        // A dead rank contributes its clock and statistics at death.
        let (now, stats) = match &outcome {
            Ok((_, now, stats)) => (*now, *stats),
            Err(failure) => (failure.clock, failure.stats),
        };
        rank_times.push(now);
        per_rank.push(stats);
        results.push(outcome.map(|(r, ..)| r));
    }
    let all_ok = links_back.len() == nprocs;

    // The leak count runs here — after every rank has returned — so it
    // sees a quiescent network: no send can still be in flight, making
    // the count exact rather than racing against slower peers. With dead
    // ranks the count covers the survivors' mailboxes (the dead ranks'
    // endpoints went down with their unwinds).
    let leaked: usize = links_back.iter().map(|l| l.mailbox.unconsumed()).sum();
    if pooled && all_ok && leaked == 0 {
        release_network(nprocs, links_back);
    }

    let elapsed_virtual = rank_times.iter().copied().fold(0.0, f64::max);
    let trace = (traced && all_ok).then(|| RunTrace {
        ranks: rank_traces,
        rank_times: rank_times.clone(),
        elapsed_virtual,
    });
    let run = FtSpmdResult {
        results,
        elapsed_virtual,
        rank_times,
        stats: RunStats { per_rank },
        wall_us,
        recv_counts,
        leaked_messages: leaked,
    };
    (run, trace)
}

/// Run `body` as an SPMD computation with `nprocs` processes on the given
/// machine model. Panics in any rank propagate; on completion every sent
/// message must have been received (leak check), which catches mismatched
/// protocols early.
///
/// Ranks execute on a persistent worker pool and the channel network is
/// recycled between calls, so calling this in a loop costs a pool
/// dispatch — not `nprocs` thread spawns plus `nprocs²` channel
/// constructions — per invocation.
///
/// ```
/// use archetype_mp::{run_spmd, MachineModel};
///
/// // Ranks pass their rank number around a ring.
/// let out = run_spmd(3, MachineModel::cray_t3d(), |ctx| {
///     let right = (ctx.rank() + 1) % ctx.nprocs();
///     let left = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
///     ctx.send(right, 0, ctx.rank() as u64);
///     ctx.recv::<u64>(left, 0)
/// });
/// assert_eq!(out.results, vec![2, 0, 1]);
/// assert!(out.elapsed_virtual > 0.0);
/// ```
pub fn run_spmd<F, R>(nprocs: usize, model: MachineModel, body: F) -> SpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    run_spmd_with(nprocs, model, RunConfig::default(), body)
}

/// [`run_spmd`] with an explicit [`RunConfig`] — unpooled, without the
/// leak check, or traced:
///
/// ```
/// use archetype_mp::{run_spmd_with, MachineModel, RunConfig};
///
/// let body = |ctx: &mut archetype_mp::Ctx| {
///     ctx.all_reduce(ctx.rank() as u64 + 1, |a, b| a + b)
/// };
/// let plain = run_spmd_with(4, MachineModel::ibm_sp(), RunConfig::default(), body);
/// let traced = run_spmd_with(4, MachineModel::ibm_sp(), RunConfig::traced(), body);
/// assert_eq!(plain.results, traced.results);
/// assert_eq!(plain.rank_times, traced.rank_times);
/// assert!(traced.trace.is_some());
/// ```
///
/// # Panics
/// Re-raises the first failed rank's panic (the message keeps the
/// original panic text, so callers matching on it still work), and
/// panics on leaked messages when [`RunConfig::check_leaks`] is set.
pub fn run_spmd_with<F, R>(
    nprocs: usize,
    model: MachineModel,
    config: RunConfig,
    body: F,
) -> SpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    match try_run_spmd(nprocs, model, config, body) {
        Ok(out) => out,
        Err(SpmdError::Ranks { failures }) => panic!("{}", failures[0].message),
        Err(leaked @ SpmdError::Leaked { .. }) => panic!("{leaked}"),
    }
}

/// The fallible entry point: like [`run_spmd_with`], but rank panics and
/// leaked messages are reported as a structured [`SpmdError`] instead of
/// being re-raised — one panicking rank cannot take the calling thread
/// down, the worker pool stays usable for the next run, and the dirty
/// channel network is quarantined rather than recycled.
///
/// ```
/// use archetype_mp::{try_run_spmd, MachineModel, RunConfig};
///
/// let err = try_run_spmd(2, MachineModel::zero_comm(), RunConfig::default(), |ctx| {
///     if ctx.rank() == 1 {
///         panic!("boom");
///     }
///     ctx.rank()
/// })
/// .unwrap_err();
/// assert_eq!(err.failures().len(), 1);
/// assert_eq!(err.failures()[0].rank, 1);
/// assert!(err.failures()[0].message.contains("boom"));
/// ```
pub fn try_run_spmd<F, R>(
    nprocs: usize,
    model: MachineModel,
    config: RunConfig,
    body: F,
) -> Result<SpmdResult<R>, SpmdError>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    let (run, trace) = run_ranks(nprocs, model, None, config, body);
    let mut results = Vec::with_capacity(nprocs);
    let mut failures = Vec::new();
    for outcome in run.results {
        match outcome {
            Ok(r) => results.push(r),
            Err(failure) => failures.push(failure),
        }
    }
    // A failed rank takes precedence over the leak it may have caused.
    if !failures.is_empty() {
        return Err(SpmdError::Ranks { failures });
    }
    if config.check_leaks && run.leaked_messages > 0 {
        return Err(SpmdError::Leaked {
            count: run.leaked_messages,
        });
    }
    Ok(SpmdResult {
        results,
        elapsed_virtual: run.elapsed_virtual,
        rank_times: run.rank_times,
        stats: run.stats,
        wall_us: run.wall_us,
        recv_counts: run.recv_counts,
        trace,
    })
}

/// Run `body` under a deterministic fault schedule: `plan` is shared by
/// every rank (see [`FaultPlan`]), scheduled crashes really panic the
/// rank and are reported as structured per-rank failures, and the
/// channel network is quarantined whenever anything failed or leaked.
///
/// This is the chaos-testing entry point: with an inert plan
/// (`FaultPlan::new(seed)`) it behaves exactly like [`run_spmd`] modulo
/// the `Result`-wrapped outcomes — the configuration whose overhead the
/// `substrate_overhead` bench pins.
///
/// Crash sites are keyed by operation counts, never by time, so which
/// ranks die and what the survivors compute is deterministic even though
/// the disconnect-based death signal travels in real time. Fault-injected
/// runs do not report traces: a crashed rank's recorder dies with its
/// unwind, and a partial-trace API is not worth the asymmetry.
pub fn run_spmd_ft<F, R>(
    nprocs: usize,
    model: MachineModel,
    plan: FaultPlan,
    body: F,
) -> FtSpmdResult<R>
where
    F: Fn(&mut Ctx) -> R + Sync,
    R: Send,
{
    run_ranks(
        nprocs,
        model,
        Some(Arc::new(plan)),
        RunConfig::default(),
        body,
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_runs_body_once() {
        let out = run_spmd(1, MachineModel::ibm_sp(), |ctx| {
            ctx.charge_flops(100.0);
            ctx.rank()
        });
        assert_eq!(out.results, vec![0]);
        assert!(out.elapsed_virtual > 0.0);
    }

    #[test]
    fn elapsed_is_max_over_ranks() {
        let out = run_spmd(4, MachineModel::zero_comm(), |ctx| {
            ctx.charge_seconds(ctx.rank() as f64);
        });
        assert_eq!(out.elapsed_virtual, 3.0);
        assert_eq!(out.rank_times, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn determinism_same_program_same_clocks() {
        let run = || {
            run_spmd(8, MachineModel::intel_delta(), |ctx| {
                let x = ctx.all_reduce(ctx.rank() as f64, |a, b| a + b);
                ctx.charge_flops(x * 10.0);
                ctx.barrier();
                ctx.now()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.rank_times, b.rank_times,
            "virtual time must be deterministic"
        );
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn pooled_and_unpooled_agree() {
        let body = |ctx: &mut Ctx| {
            let s = ctx.all_reduce(ctx.rank() as u64 + 1, |a, b| a + b);
            ctx.barrier();
            (s, ctx.now())
        };
        let pooled = run_spmd(6, MachineModel::ibm_sp(), body);
        let fresh = RunConfig {
            pooled: false,
            ..RunConfig::default()
        };
        let unpooled = run_spmd_with(6, MachineModel::ibm_sp(), fresh, body);
        assert_eq!(pooled.results, unpooled.results);
        assert_eq!(pooled.rank_times, unpooled.rank_times);
    }

    #[test]
    fn repeated_runs_recycle_the_network() {
        // Uses a process count no other test in this crate runs at, so
        // concurrent tests cannot pop the cached network between the runs
        // and the observation below.
        const N: usize = 23;
        for _ in 0..3 {
            run_spmd(N, MachineModel::zero_comm(), |ctx| {
                ctx.all_reduce(1u64, |a, b| a + b)
            });
        }
        let cached = network_cache()
            .lock()
            .unwrap()
            .by_size
            .get(&N)
            .map_or(0, Vec::len);
        assert!(cached >= 1, "a clean {N}-rank network should be cached");
    }

    #[test]
    fn oversized_networks_are_not_retained() {
        // 200² channels exceed the cache budget on their own; the run
        // must succeed and the network must be dropped, not cached.
        const N: usize = 200;
        run_spmd(N, MachineModel::zero_comm(), |ctx| ctx.rank());
        let cached = network_cache()
            .lock()
            .unwrap()
            .by_size
            .get(&N)
            .map_or(0, Vec::len);
        assert_eq!(cached, 0, "an over-budget network must not be cached");
    }

    #[test]
    fn mixed_size_churn_keeps_cache_occupancy_bounded() {
        // Plan-service churn: many distinct subgroup sizes, far more
        // total channel demand than the budget. Sizes 33..56 are unique
        // to this test (and to the process), so the recency assertions
        // below cannot race other tests' cache traffic.
        const SIZES: std::ops::Range<usize> = 33..56;
        let demand: usize = SIZES.map(|n| CACHED_NETWORKS_PER_SIZE * n * n).sum();
        assert!(
            demand > CACHE_CHANNEL_BUDGET,
            "the hammer must oversubscribe the budget to exercise eviction"
        );
        for n in SIZES {
            // Two clean runs per size: fills the per-size slot.
            for _ in 0..CACHED_NETWORKS_PER_SIZE {
                run_spmd(n, MachineModel::zero_comm(), |ctx| {
                    ctx.all_reduce(1u64, |a, b| a + b)
                });
            }
        }
        let cache = network_cache().lock().unwrap();
        assert!(
            cache.channels <= CACHE_CHANNEL_BUDGET,
            "occupancy {} exceeds the channel budget",
            cache.channels
        );
        let recomputed: usize = cache
            .by_size
            .iter()
            .map(|(&n, slot)| n * n * slot.len())
            .sum();
        assert_eq!(cache.channels, recomputed, "channel accounting drifted");
        for slot in cache.by_size.values() {
            assert!(!slot.is_empty(), "empty slots must be pruned");
            assert!(slot.len() <= CACHED_NETWORKS_PER_SIZE);
        }
        // LRU means the *latest* sizes survive and the earliest were
        // evicted to make room for them.
        let freshest = SIZES.end - 1;
        assert!(
            cache.by_size.contains_key(&freshest),
            "the most recently released size must still be cached"
        );
        let evicted = SIZES.filter(|&n| !cache.by_size.contains_key(&n)).count();
        assert!(
            evicted > 0,
            "oversubscribing the budget must evict some stale sizes"
        );
    }

    /// The last-sender-drop race at `Ctx` level: rank 1 drains what
    /// rank 0 sent and parks on the next receive while rank 0 dies at its
    /// first fault point — the unwind drops rank 0's link ends with rank
    /// 1 anywhere between its empty check and its wait, and the parked
    /// receiver must wake with `RankDead`, never hang.
    #[test]
    fn ft_runs_measure_wall_time_and_wake_a_crashed_peers_parked_receiver() {
        use crate::fault::{CrashSite, RankDead};
        for round in 0..200u64 {
            let msgs = round % 4; // vary how much drain precedes the park
            let plan = FaultPlan::new(round).crash(0, CrashSite::Phase(0));
            let out = run_spmd_ft(2, MachineModel::zero_comm(), plan, move |ctx| {
                if ctx.rank() == 0 {
                    for i in 0..msgs {
                        ctx.send_ft(1, i, i).expect("rank 1 is alive");
                    }
                    if round % 2 == 0 {
                        std::thread::yield_now();
                    }
                    ctx.fault_point();
                    unreachable!("rank 0 dies at its first fault point");
                }
                let mut got = 0u64;
                loop {
                    match ctx.recv_ft::<u64>(0, got) {
                        Ok(v) => {
                            assert_eq!(v, got);
                            got += 1;
                        }
                        Err(dead) => return (got, dead),
                    }
                }
            });
            let crash = out.results[0].as_ref().expect_err("rank 0 crashed");
            assert!(crash.injected, "round {round}: {crash}");
            let survivor = out.results[1].as_ref().expect("rank 1 survives");
            assert_eq!(*survivor, (msgs, RankDead { rank: 0 }), "round {round}");
            assert!(out.wall_us > 0, "an FT run reports its measured wall time");
        }
    }

    /// Every message is pulled off its channel exactly once, in exactly
    /// one phase, so per rank the three counters sum to the messages
    /// addressed to it — on every run of a recycled network, which must
    /// start again from zero.
    #[test]
    fn recv_counts_account_for_every_message_of_each_run() {
        for _run in 0..3 {
            let out = run_spmd(3, MachineModel::zero_comm(), |ctx| {
                let right = (ctx.rank() + 1) % ctx.nprocs();
                let left = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
                for round in 0..50u64 {
                    // Tag 1 overtakes tag 0: one receive goes through
                    // the pending buffer, still one channel pop each.
                    ctx.send(right, 0, round);
                    ctx.send(right, 1, round);
                    assert_eq!(ctx.recv::<u64>(left, 1), round);
                    assert_eq!(ctx.recv::<u64>(left, 0), round);
                }
                ctx.barrier();
            });
            assert_eq!(out.recv_counts.len(), 3);
            // A ring plus a symmetric barrier: every rank receives what
            // it sends.
            for (c, s) in out.recv_counts.iter().zip(&out.stats.per_rank) {
                assert_eq!(c.immediate + c.spun + c.parked, s.msgs_sent, "{c:?}");
            }
        }
    }

    #[test]
    fn run_config_default_is_run_spmd() {
        let cfg = RunConfig::default();
        assert_eq!(cfg, RunConfig::virtual_time());
        assert_eq!(cfg, RunConfig::real());
        assert!(cfg.pooled);
        assert!(cfg.check_leaks);
        assert!(!cfg.traced);
        assert_eq!(cfg.trace_capacity, DEFAULT_TRACE_CAPACITY);
        assert_eq!(RunConfig::traced(), cfg.with_tracing());
    }

    #[test]
    fn traced_runs_surface_per_rank_event_streams() {
        let cfg = RunConfig::traced();
        let out = run_spmd_with(3, MachineModel::ibm_sp(), cfg, |ctx| {
            let right = (ctx.rank() + 1) % ctx.nprocs();
            let left = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
            ctx.send(right, 0, ctx.rank() as u64);
            ctx.recv::<u64>(left, 0)
        });
        let trace = out.trace.as_ref().expect("traced run must carry a trace");
        assert_eq!(trace.ranks.len(), 3);
        assert_eq!(trace.total_dropped(), 0);
        for rt in &trace.ranks {
            use crate::trace::TraceEvent;
            assert!(
                matches!(rt.events.first(), Some(TraceEvent::PoolDispatch { .. })),
                "dispatch must open rank {}'s stream",
                rt.rank
            );
            let sends = rt
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Send { .. }))
                .count();
            let recvs = rt
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Recv { .. }))
                .count();
            assert_eq!((sends, recvs), (1, 1), "ring body is one send, one recv");
        }
        // Untraced runs carry nothing.
        let plain = run_spmd(2, MachineModel::ibm_sp(), |ctx| ctx.rank());
        assert!(plain.trace.is_none());
    }

    #[test]
    fn trace_ring_capacity_drops_oldest_but_not_results() {
        let cfg = RunConfig::traced().with_trace_capacity(4);
        let out = run_spmd_with(2, MachineModel::ibm_sp(), cfg, |ctx| {
            let mut acc = 0u64;
            for i in 0..16u64 {
                if ctx.rank() == 0 {
                    ctx.send(1, i, i);
                } else {
                    acc += ctx.recv::<u64>(0, i);
                }
            }
            acc
        });
        assert_eq!(out.results[1], (0..16).sum::<u64>());
        let trace = out.trace.expect("traced");
        assert!(trace.total_dropped() > 0, "tiny ring must wrap");
        assert!(trace.ranks.iter().all(|r| r.events.len() <= 4));
    }

    #[test]
    #[should_panic(expected = "unreceived message")]
    fn leak_check_catches_unmatched_send() {
        run_spmd(2, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, 1u8);
                ctx.send(1, 0, 2u8); // never received
            } else {
                let _: u8 = ctx.recv(0, 0);
            }
        });
    }

    #[test]
    fn leaky_quiet_runs_do_not_poison_later_runs() {
        // A quiet run that leaves messages in flight must not hand its
        // dirty network to a subsequent same-size run.
        let quiet = RunConfig {
            check_leaks: false,
            ..RunConfig::default()
        };
        run_spmd_with(3, MachineModel::zero_comm(), quiet, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 77, vec![1u8, 2, 3]); // never received
            }
        });
        let out = run_spmd_with(3, MachineModel::zero_comm(), quiet, |ctx| {
            // If the dirty network were recycled, the stale tag-77 packet
            // could satisfy this receive with wrong data.
            if ctx.rank() == 1 {
                ctx.send(0, 5, 9u64);
            } else if ctx.rank() == 0 {
                return ctx.recv::<u64>(1, 5);
            }
            0
        });
        assert_eq!(out.results[0], 9);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            if ctx.rank() == 1 {
                panic!("rank 1 exploded");
            }
            // Other ranks wait on rank 1 and observe its termination.
            let _: u8 = ctx.recv(1, 0);
        });
    }

    #[test]
    fn speedup_vs_divides() {
        let out = run_spmd(2, MachineModel::zero_comm(), |ctx| {
            ctx.charge_seconds(1.0);
        });
        assert!((out.speedup_vs(2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn many_processes_work() {
        // 100 simulated processors on a small host: the point of the design.
        let out = run_spmd(100, MachineModel::intel_delta(), |ctx| {
            ctx.all_reduce(1u64, |a, b| a + b)
        });
        assert!(out.results.iter().all(|&v| v == 100));
    }
}
