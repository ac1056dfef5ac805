//! The plan service: sustained multi-tenant composition on the pooled
//! executor.
//!
//! [`run_plan`](crate::run_plan) executes one plan and tears down; a
//! [`PlanService`] keeps the substrate hot across **batches of
//! heterogeneous plans from many tenants**. Its dataflow:
//!
//! 1. **Submission** ([`PlanService::submit`]): each `(tenant, plan,
//!    input)` passes the admission controller — a queue-capacity check
//!    and a cost ceiling priced from the plan's flop estimate — and
//!    lands in the FIFO queue, or comes back as a typed [`AdmitError`].
//!    Plan *structure* is keyed on the way in
//!    ([`Plan::structure_hash`]): the cost estimate is computed once per
//!    distinct `(structure, input shape)` and reused across identical
//!    submissions ([`CacheStats`] counts the hits, and the distinct
//!    shapes seen).
//! 2. **Packing** ([`pack_waves`]): the queue is cut into *waves* of up
//!    to `max_concurrent` plans; within a wave the largest-remainder
//!    allocator ([`crate::allocate`]) — the same one `Par` branches use
//!    — apportions the world's ranks cost-proportionally, one disjoint
//!    contiguous subgroup per plan. Allocations are memoized per
//!    `(cost vector, p)`. Where every plan of a wave got the same share
//!    the subgroups are interchangeable, and the heaviest plan goes to
//!    the ranks carrying the least modelled load from earlier waves —
//!    there is no inter-wave barrier, so that load is what a rank's next
//!    plan waits on. Unequal shares keep admission order.
//! 3. **Scoped execution** ([`PlanService::serve`]): one SPMD run
//!    executes the whole schedule. Every rank walks the same static wave
//!    plan; per wave it enters its subgroup's [`Ctx::scoped`] section
//!    and runs the assigned plan with
//!    [`try_run_plan`](crate::try_run_plan) — concurrent
//!    plans' traffic cannot collide because sibling scopes are fully
//!    isolated. No inter-wave barrier is needed: the schedule is static,
//!    so matched sends/receives exist within scopes only.
//! 4. **Stats return**: each subgroup root records its plan's outcome
//!    and virtual finish time; the records are gathered to rank 0 and
//!    built once into the [`ServeReport`] — per-submission results or
//!    typed [`PlanError`]s, per-tenant [`TenantStats`] (schedule- and
//!    `p`-invariant), and a completion-latency [`Digest`] with p50/p99.
//!    A record moves to rank 0 and is never copied; every other rank
//!    returns the report of an empty batch (see [`ServeReport`]).
//!
//! Determinism: virtual clocks are driven solely by the machine model,
//! so given the same submission sequence (and fault seed, under
//! [`PlanService::serve_ft`]) the results, per-tenant stats, and latency
//! percentiles are bit-identical across runs; only measured wall time
//! differs.
//!
//! Accounting: [`PlanService::metrics_text`] renders the Prometheus text
//! exposition straight from the service's state — tenant totals, cache
//! counters, the queue — plus one private block of plain counters for
//! what that state does not hold (admissions, rejections, waves, the
//! last batch's gauges, per-tenant latency summaries). Same history,
//! same bytes. Every admitted plan gets exactly one outcome there:
//! completed, failed, or still queued — a batch lost to a failed rank
//! or to a panicking plan counts each of its plans as failed.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use archetype_mp::{
    run_spmd_ft, run_spmd_with, Ctx, FaultPlan, MachineModel, Payload, RankFailure, RunConfig,
    SpmdResult,
};
use archetype_pipeline::apps::Digest;

use crate::alloc::allocate;
use crate::exec::{mix, try_run_plan, ComposeStats, ParMode, PlanError};
use crate::plan::Plan;
use crate::value::Value;

/// Tenant identity: submissions, stats, and rejections are accounted per
/// tenant.
pub type TenantId = u32;

/// Scope-salt namespace of the service's per-wave subgroups, keeping
/// their traffic disjoint from plan-internal `Par` scopes.
const SERVE_SALT: u64 = 0x5345_5256; // "SERV"

/// Top-k capacity of the completion-latency digests.
const LATENCY_TOP_K: usize = 10;
/// Histogram buckets of the completion-latency digests.
const LATENCY_BUCKETS: usize = 256;
/// Upper bounds of the wave-occupancy histogram (plans per wave); a
/// `+Inf` bucket follows.
const OCCUPANCY_BOUNDS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Tuning knobs of a [`PlanService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Most plans packed into one wave (each gets ≥ 1 rank, so the
    /// effective bound is `min(max_concurrent, nprocs)`). `1` serializes:
    /// every plan runs alone on the full world — the baseline the
    /// `serve_scaling` bench measures concurrent admission against.
    pub max_concurrent: usize,
    /// Admission bound on queued submissions; beyond it `submit` returns
    /// [`AdmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Admission bound on a submission's estimated flops; beyond it
    /// `submit` returns [`AdmitError::CostCeiling`].
    pub cost_ceiling: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_concurrent: 8,
            queue_capacity: 4096,
            cost_ceiling: f64::INFINITY,
        }
    }
}

/// Typed admission rejection, returned by [`PlanService::submit`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmitError {
    /// The submission queue is at [`ServeConfig::queue_capacity`].
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The plan's estimated work exceeds [`ServeConfig::cost_ceiling`].
    CostCeiling {
        /// The submission's estimated flops.
        estimated_flops: f64,
        /// The configured ceiling it exceeded.
        ceiling: f64,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::QueueFull { capacity } => {
                write!(f, "submission queue is full ({capacity} plans)")
            }
            AdmitError::CostCeiling {
                estimated_flops,
                ceiling,
            } => write!(
                f,
                "plan estimated at {estimated_flops:.3e} flops exceeds the \
                 admission ceiling of {ceiling:.3e}"
            ),
        }
    }
}

impl AdmitError {
    /// Stable label of the rejection class, used as the `reason` label
    /// of the service's `planserve_rejected_total` metric.
    pub fn reason(&self) -> &'static str {
        match self {
            AdmitError::QueueFull { .. } => "queue_full",
            AdmitError::CostCeiling { .. } => "cost_ceiling",
        }
    }
}

impl std::error::Error for AdmitError {}

/// Hit/miss counters of the service's structure caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Submissions whose plan shape ([`Plan::structure_hash`]) was seen
    /// before.
    pub shape_hits: u64,
    /// Plan shapes seen for the first time.
    pub shape_misses: u64,
    /// Cost estimates answered from the cache.
    pub cost_hits: u64,
    /// Cost estimates priced fresh.
    pub cost_misses: u64,
    /// Wave allocations answered from the cache.
    pub alloc_hits: u64,
    /// Wave allocations computed fresh.
    pub alloc_misses: u64,
}

/// The service's memo tables, keyed on [`Plan::structure_hash`].
#[derive(Default)]
struct PlanCache {
    shapes: HashSet<u64>,
    costs: HashMap<(u64, u64), f64>,
    allocs: HashMap<(Vec<u64>, usize), Arc<Vec<usize>>>,
    stats: CacheStats,
}

impl PlanCache {
    fn shape(&mut self, hash: u64) {
        if self.shapes.insert(hash) {
            self.stats.shape_misses += 1;
        } else {
            self.stats.shape_hits += 1;
        }
    }

    fn cost(&mut self, hash: u64, input: &Value, plan: &Plan) -> f64 {
        let key = (hash, input.fingerprint());
        if let Some(&c) = self.costs.get(&key) {
            self.stats.cost_hits += 1;
            return c;
        }
        self.stats.cost_misses += 1;
        let c = plan.estimate_flops_lenient(input);
        self.costs.insert(key, c);
        c
    }

    fn alloc(&mut self, costs: &[f64], p: usize) -> Arc<Vec<usize>> {
        let key = (costs.iter().map(|c| c.to_bits()).collect::<Vec<u64>>(), p);
        if let Some(a) = self.allocs.get(&key) {
            self.stats.alloc_hits += 1;
            return Arc::clone(a);
        }
        self.stats.alloc_misses += 1;
        let a = Arc::new(allocate(costs, p));
        self.allocs.insert(key, Arc::clone(&a));
        a
    }
}

/// One admitted submission awaiting service.
struct Submission {
    tenant: TenantId,
    plan: Plan,
    input: Value,
    cost: f64,
}

/// One wave of the packed schedule: `plans[j]` (a queue index) runs on
/// the contiguous rank range `starts[j] .. starts[j] + sizes[j]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wave {
    /// Queue indices of the wave's plans, in rank order: the wave's
    /// members are a FIFO cut of the queue, but which subgroup each runs
    /// on is the packer's choice.
    pub plans: Vec<usize>,
    /// Rank share of each plan (≥ 1, summing to `p`).
    pub sizes: Vec<usize>,
    /// First rank of each plan's subgroup (`starts[0] == 0`, contiguous).
    pub starts: Vec<usize>,
}

/// Pack `costs.len()` queued plans into waves of at most
/// `max_concurrent` over `p` ranks: FIFO cuts, then the
/// largest-remainder [`crate::allocate`] apportions ranks within each
/// wave cost-proportionally. Every wave's sizes sum to exactly `p` with
/// one rank minimum per plan, so admission can never oversubscribe.
///
/// A wave whose shares are all equal has interchangeable subgroups; its
/// plans are placed heaviest first (ties: earlier admission) onto the
/// subgroup whose ranks carry the least accumulated load (ties: lower
/// ranks), a rank's load being Σ cost ÷ share over the earlier waves'
/// plans it hosted. With one rank per plan that keeps the rank loads
/// within the largest single plan of each other after every wave. A wave
/// with unequal shares keeps admission order. A pure function of its
/// arguments.
pub fn pack_waves(costs: &[f64], p: usize, max_concurrent: usize) -> Vec<Wave> {
    pack_waves_with(costs, p, max_concurrent, &mut |c, p| allocate(c, p)).0
}

/// [`pack_waves`] with a pluggable allocator, so the service can thread
/// its memo table through without changing the schedule. Also returns
/// the modelled per-rank loads the schedule ends with.
fn pack_waves_with(
    costs: &[f64],
    p: usize,
    max_concurrent: usize,
    alloc: &mut dyn FnMut(&[f64], usize) -> Vec<usize>,
) -> (Vec<Wave>, Vec<f64>) {
    assert!(p >= 1, "a service needs at least one rank");
    let per_wave = max_concurrent.max(1).min(p);
    let mut waves = Vec::new();
    let mut loads = vec![0.0f64; p];
    let mut slots: Vec<usize> = Vec::with_capacity(per_wave);
    let mut heaviest_first: Vec<usize> = Vec::with_capacity(per_wave);
    let mut next = 0usize;
    while next < costs.len() {
        let k = per_wave.min(costs.len() - next);
        let sizes = alloc(&costs[next..next + k], p);
        let mut starts = vec![0usize; k];
        for j in 1..k {
            starts[j] = starts[j - 1] + sizes[j - 1];
        }
        let mut plans: Vec<usize> = (next..next + k).collect();
        if k > 1 && sizes.iter().all(|&s| s == sizes[0]) {
            // Each slot takes exactly one plan, so "heaviest onto the
            // least loaded slot left" is two stable sorts and a zip.
            let slot_load = |j: usize| {
                loads[starts[j]..starts[j] + sizes[j]]
                    .iter()
                    .fold(0.0f64, |a, &b| a.max(b))
            };
            slots.clear();
            slots.extend(0..k);
            slots.sort_by(|&a, &b| slot_load(a).total_cmp(&slot_load(b)));
            heaviest_first.clear();
            heaviest_first.extend(next..next + k);
            heaviest_first.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
            for (&slot, &plan) in slots.iter().zip(&heaviest_first) {
                plans[slot] = plan;
            }
        }
        // Every rank of a plan's subgroup carries its cost ÷ share.
        for ((&plan, &start), &size) in plans.iter().zip(&starts).zip(&sizes) {
            let per_rank = costs[plan] / size as f64;
            for load in &mut loads[start..start + size] {
                *load += per_rank;
            }
        }
        waves.push(Wave {
            plans,
            sizes,
            starts,
        });
        next += k;
    }
    (waves, loads)
}

/// Per-tenant service accounting. Everything here counts *logical*
/// execution, so the record is identical across schedules
/// (`max_concurrent`), process counts, and machine models.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Admitted plans a batch took off the queue, each also counted as
    /// completed or failed; queued plans are not counted yet.
    pub submitted: u64,
    /// Plans that completed with a value.
    pub completed: u64,
    /// Plans that failed with a typed [`PlanError`], or were lost with
    /// their batch to a failed rank ([`PlanService::serve_ft`]).
    pub failed: u64,
    /// Submissions rejected at admission ([`AdmitError`]): counted in the
    /// service's totals as `submit` returns them, and folded into the
    /// next [`PlanService::serve`] or [`PlanService::serve_ft`] report
    /// (never into a raw [`PlanService::serve_spmd`] report).
    pub rejected: u64,
    /// Combined [`ComposeStats`] of the tenant's completed plans.
    pub compose: ComposeStats,
}

impl TenantStats {
    fn absorb(&mut self, other: &TenantStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.compose = ComposeStats::combine(self.compose, other.compose);
    }
}

/// What one service run returns. Rank 0 builds it from every plan's
/// record; every other rank returns the report of an empty batch: no
/// outcomes, no tenants, an empty latency digest over `[0, 1)`, no
/// per-tenant digests and `waves == 0`.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Per-submission outcome, in admission order: the plan's output
    /// value, or the typed error that felled it.
    pub outcomes: Vec<Result<Value, PlanError>>,
    /// Per-tenant accounting, ascending by tenant id.
    pub tenants: Vec<(TenantId, TenantStats)>,
    /// Completion-time digest over the batch's completed plans (virtual
    /// seconds from batch start); p50/p99 come from here.
    pub latency: Digest,
    /// Per-tenant completion-time digests (same bucket range as
    /// [`ServeReport::latency`]), ascending by tenant id — the source of
    /// the service's per-tenant latency metrics.
    pub tenant_latency: Vec<(TenantId, Digest)>,
    /// Waves the schedule packed the batch into.
    pub waves: u64,
}

/// A [`ServeReport`] plus the run's timing and the service's cache
/// counters.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Rank 0's report.
    pub report: ServeReport,
    /// Modeled virtual time of the whole batch.
    pub elapsed_virtual: f64,
    /// Measured wall time of the whole batch, microseconds.
    pub wall_us: u64,
    /// Cumulative cache counters after this batch.
    pub cache: CacheStats,
}

/// A subgroup root's record of one finished plan. Not `Clone`: a record
/// moves to rank 0 once and is never copied.
struct PlanDone {
    id: u64,
    tenant: TenantId,
    finish: f64,
    outcome: Result<(Value, ComposeStats), PlanError>,
}

/// The per-rank batch of finished-plan records, gathered to rank 0.
struct DoneBatch(Vec<PlanDone>);

impl Payload for DoneBatch {
    fn size_bytes(&self) -> usize {
        self.0
            .iter()
            .map(|d| {
                20 + match &d.outcome {
                    Ok((v, _)) => v.size_bytes() + std::mem::size_of::<ComposeStats>(),
                    Err(_) => 32,
                }
            })
            .sum()
    }
}

/// A persistent multi-tenant plan server over the pooled executor. See
/// the module docs for the dataflow.
///
/// ```
/// use archetype_compose::{forecast_input, forecast_plan, ForecastConfig, PlanService, ServeConfig};
/// use archetype_mp::MachineModel;
///
/// let mut svc = PlanService::new(4, ServeConfig::default());
/// let cfg = ForecastConfig { sweep_points: 16, mesh_n: 10, mesh_iters: 25 };
/// for tenant in 0..3 {
///     svc.submit(tenant, forecast_plan(cfg), forecast_input()).unwrap();
/// }
/// let out = svc.serve(MachineModel::ibm_sp());
/// assert_eq!(out.report.outcomes.len(), 3);
/// assert!(out.report.outcomes.iter().all(|o| o.is_ok()));
/// // Identical plans count as one shape and share one cost estimate.
/// assert_eq!(out.cache.shape_misses, 1);
/// assert_eq!(out.cache.shape_hits, 2);
/// ```
pub struct PlanService {
    nprocs: usize,
    config: ServeConfig,
    cache: PlanCache,
    queue: Vec<Submission>,
    /// Rejections since the last report that folded them in; already
    /// counted in `tenants`.
    pending_rejections: BTreeMap<TenantId, u64>,
    tenants: BTreeMap<TenantId, TenantStats>,
    counters: Counters,
}

/// What [`PlanService::metrics_text`] reports beyond the state the
/// service keeps anyway (tenant totals, cache counters, the queue). A
/// series renders once touched: a `None`, or a count still at zero, has
/// no sample yet.
#[derive(Default)]
struct Counters {
    admitted: u64,
    rejected_cost_ceiling: u64,
    rejected_queue_full: u64,
    /// Batches that packed at least one wave.
    batches: u64,
    /// Waves packed, present once any batch was packed (even an empty
    /// one); also the wave-occupancy histogram's count.
    waves: Option<u64>,
    /// Waves per [`OCCUPANCY_BOUNDS`] bucket (not cumulative).
    occupancy: [u64; OCCUPANCY_BOUNDS.len()],
    /// Plans over every packed wave: the histogram's sum.
    plans_packed: u64,
    /// Modelled max ÷ mean rank load of the last batch that loaded a rank.
    imbalance: Option<f64>,
    /// Virtual seconds of the last batch served.
    last_batch_virtual: Option<f64>,
    /// Per tenant with a completed plan: the latency sum across batches,
    /// quantiles of the last such batch. The summary's count is the
    /// tenant's `completed` total.
    latency: BTreeMap<TenantId, LatencySummary>,
}

/// One tenant's completion-latency summary, less its count.
#[derive(Default)]
struct LatencySummary {
    sum: f64,
    p50: f64,
    p99: f64,
}

/// A sample value as the exposition format spells it: `+Inf`, otherwise
/// the shortest round-tripping decimal.
struct Sample(f64);

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == f64::INFINITY {
            f.write_str("+Inf")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A metric family's `# HELP` and `# TYPE` lines.
fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Tenant-labelled series sort as their label strings do ("10" < "2").
fn by_label<T>(rows: impl Iterator<Item = (TenantId, T)>) -> Vec<(String, T)> {
    let mut rows: Vec<(String, T)> = rows.map(|(t, x)| (t.to_string(), x)).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

impl PlanService {
    /// A service over `nprocs` ranks.
    ///
    /// # Panics
    /// Panics if `nprocs == 0`.
    pub fn new(nprocs: usize, config: ServeConfig) -> PlanService {
        assert!(nprocs >= 1, "a service needs at least one rank");
        PlanService {
            nprocs,
            config,
            cache: PlanCache::default(),
            queue: Vec::new(),
            pending_rejections: BTreeMap::new(),
            tenants: BTreeMap::new(),
            counters: Counters::default(),
        }
    }

    /// Ranks the service schedules over.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Cumulative per-tenant accounting, ascending by tenant id: every
    /// rejection so far, and every plan a returned batch took off the
    /// queue — completed, failed, or lost with its batch to a failed rank
    /// (counted failed).
    pub fn tenant_totals(&self) -> Vec<(TenantId, TenantStats)> {
        self.tenants.iter().map(|(&t, &s)| (t, s)).collect()
    }

    /// Admit one submission, or reject it with a typed [`AdmitError`].
    /// On admission, returns the submission's id — its index (and its
    /// [`ServeReport::outcomes`] position) in the current batch.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        plan: Plan,
        input: Value,
    ) -> Result<u64, AdmitError> {
        if self.queue.len() >= self.config.queue_capacity {
            self.tenants.entry(tenant).or_default().rejected += 1;
            *self.pending_rejections.entry(tenant).or_default() += 1;
            self.counters.rejected_queue_full += 1;
            return Err(AdmitError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let hash = plan.structure_hash();
        self.cache.shape(hash);
        let cost = self.cache.cost(hash, &input, &plan);
        if cost > self.config.cost_ceiling {
            self.tenants.entry(tenant).or_default().rejected += 1;
            *self.pending_rejections.entry(tenant).or_default() += 1;
            self.counters.rejected_cost_ceiling += 1;
            return Err(AdmitError::CostCeiling {
                estimated_flops: cost,
                ceiling: self.config.cost_ceiling,
            });
        }
        let id = self.queue.len() as u64;
        self.queue.push(Submission {
            tenant,
            plan,
            input,
            cost,
        });
        self.counters.admitted += 1;
        Ok(id)
    }

    /// Pack the current queue into the wave schedule that is about to
    /// execute, threading the allocation memo, and count it.
    fn pack(&mut self) -> Vec<Wave> {
        let costs: Vec<f64> = self.queue.iter().map(|s| s.cost).collect();
        let cache = &mut self.cache;
        let (waves, loads) = pack_waves_with(
            &costs,
            self.nprocs,
            self.config.max_concurrent,
            &mut |c, p| cache.alloc(c, p).as_ref().clone(),
        );
        let m = &mut self.counters;
        *m.waves.get_or_insert(0) += waves.len() as u64;
        for wave in &waves {
            let plans = wave.plans.len();
            if let Some(i) = OCCUPANCY_BOUNDS.iter().position(|&b| plans <= b) {
                m.occupancy[i] += 1;
            }
            m.plans_packed += plans as u64;
        }
        if !waves.is_empty() {
            m.batches += 1;
        }
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if mean > 0.0 {
            let max = loads.iter().fold(0.0f64, |a, &b| a.max(b));
            m.imbalance = Some(max / mean);
        }
        waves
    }

    /// The one batch path: pack the queue into waves, drain it, execute
    /// the schedule with `run`, and account for what came back. A batch
    /// in which any rank failed is lost whole: each drained plan counts
    /// as submitted and failed for its tenant. So is a batch whose `run`
    /// panics (a plan panicked under [`run_spmd_with`]); the panic then
    /// resumes in the caller.
    fn batch<R: RankReport>(
        &mut self,
        run: impl FnOnce(usize, &(dyn Fn(&mut Ctx) -> ServeReport + Sync)) -> SpmdResult<R>,
    ) -> SpmdResult<R> {
        let waves = self.pack();
        let subs = Arc::new(std::mem::take(&mut self.queue));
        let body = serve_body(Arc::clone(&subs), Arc::new(waves));
        let nprocs = self.nprocs;
        let ran = std::panic::catch_unwind(AssertUnwindSafe(|| run(nprocs, &body)));
        let report = match &ran {
            Ok(result) if result.results.iter().all(|r| r.report().is_some()) => result.results[0]
                .report()
                .map(|r| (r, result.elapsed_virtual)),
            _ => None,
        };
        match report {
            Some((report, elapsed_virtual)) => self.absorb(report, elapsed_virtual),
            None => {
                for sub in subs.iter() {
                    let t = self.tenants.entry(sub.tenant).or_default();
                    t.submitted += 1;
                    t.failed += 1;
                }
            }
        }
        ran.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// Drain the queue and execute it as one SPMD run, returning the raw
    /// [`SpmdResult`]: rank 0's result is the batch's [`ServeReport`],
    /// gathered to rank 0 and built once; every other rank's is the
    /// report of an empty batch. Pending rejections are *not* folded in:
    /// they wait for the next [`PlanService::serve`] or
    /// [`PlanService::serve_ft`] report. This is the entry point
    /// determinism tests snapshot (results, per-rank clocks, elapsed
    /// virtual time).
    pub fn serve_spmd(&mut self, model: MachineModel, run: RunConfig) -> SpmdResult<ServeReport> {
        self.batch(|p, body| run_spmd_with(p, model, run, body))
    }

    /// Serve the queued batch and fold the pending rejections into the
    /// report.
    pub fn serve(&mut self, model: MachineModel) -> ServeOutcome {
        let result = self.batch(|p, body| run_spmd_with(p, model, RunConfig::default(), body));
        let report = result.results.into_iter().next().expect("one rank minimum");
        self.outcome(report, result.elapsed_virtual, result.wall_us)
    }

    /// Serve the queued batch under a deterministic [`FaultPlan`]. Injected
    /// atom exhaustion surfaces *inside* the report as per-submission
    /// [`PlanError`]s. A failed rank loses the whole batch: the call
    /// returns every rank's [`RankFailure`], in rank order, each drained
    /// plan counts as failed in [`PlanService::tenant_totals`], and the
    /// pending rejections wait for the next report.
    pub fn serve_ft(
        &mut self,
        model: MachineModel,
        fault: FaultPlan,
    ) -> Result<ServeOutcome, Vec<RankFailure>> {
        let result = self.batch(|p, body| run_spmd_ft(p, model, RunConfig::default(), fault, body));
        if !result.all_ok() {
            return Err(result.results.into_iter().filter_map(Result::err).collect());
        }
        let report = result.results.into_iter().next().expect("one rank minimum");
        Ok(self.outcome(
            report.expect("every rank completed"),
            result.elapsed_virtual,
            result.wall_us,
        ))
    }

    /// A returned batch's outcome: its report with the pending
    /// rejections folded in (tenants with only rejections gain an
    /// entry), which clears them.
    fn outcome(&mut self, mut report: ServeReport, elapsed: f64, wall_us: u64) -> ServeOutcome {
        let mut tenants: BTreeMap<_, _> = report.tenants.into_iter().collect();
        for (t, n) in std::mem::take(&mut self.pending_rejections) {
            tenants
                .entry(t)
                .or_insert_with(TenantStats::default)
                .rejected += n;
        }
        report.tenants = tenants.into_iter().collect();
        ServeOutcome {
            report,
            elapsed_virtual: elapsed,
            wall_us,
            cache: self.cache.stats,
        }
    }

    /// Fold a served batch into the cumulative per-tenant totals and the
    /// counters behind [`PlanService::metrics_text`].
    fn absorb(&mut self, report: &ServeReport, elapsed_virtual: f64) {
        for (t, s) in &report.tenants {
            self.tenants.entry(*t).or_default().absorb(s);
        }
        for (t, digest) in &report.tenant_latency {
            let l = self.counters.latency.entry(*t).or_default();
            l.sum += digest.sum;
            l.p50 = digest.percentile(0.50);
            l.p99 = digest.percentile(0.99);
        }
        self.counters.last_batch_virtual = Some(elapsed_virtual);
    }

    /// Render the service's metrics in the Prometheus text exposition
    /// format: thirteen families in name order, each series once it has
    /// been touched. Admissions, rejections, waves and per-tenant latency
    /// are counted as they happen; completions, failures, the queue depth
    /// and the cumulative [`CacheStats`] are read off the service's state.
    /// Same history, same bytes.
    pub fn metrics_text(&self) -> String {
        let m = &self.counters;
        let c = self.cache.stats;
        let mut out = String::new();
        let o = &mut out;

        header(
            o,
            "planserve_admitted_total",
            "counter",
            "Submissions accepted by the admission controller.",
        );
        if m.admitted > 0 {
            let _ = writeln!(o, "planserve_admitted_total {}", m.admitted);
        }
        header(
            o,
            "planserve_batches_total",
            "counter",
            "Batches served (serve / serve_ft calls that executed).",
        );
        if m.batches > 0 {
            let _ = writeln!(o, "planserve_batches_total {}", m.batches);
        }
        let caches = [
            ("alloc", c.alloc_hits, c.alloc_misses),
            ("cost", c.cost_hits, c.cost_misses),
            ("shape", c.shape_hits, c.shape_misses),
        ];
        header(
            o,
            "planserve_cache_hits_total",
            "counter",
            "Structure-cache lookups answered from cache, by cache.",
        );
        for (cache, hits, _) in caches {
            let _ = writeln!(o, "planserve_cache_hits_total{{cache=\"{cache}\"}} {hits}");
        }
        header(
            o,
            "planserve_cache_misses_total",
            "counter",
            "Structure-cache lookups computed fresh, by cache.",
        );
        for (cache, _, misses) in caches {
            let _ = writeln!(
                o,
                "planserve_cache_misses_total{{cache=\"{cache}\"}} {misses}"
            );
        }
        header(
            o,
            "planserve_last_batch_virtual_seconds",
            "gauge",
            "Modeled virtual time of the most recently served batch.",
        );
        if let Some(v) = m.last_batch_virtual {
            let _ = writeln!(o, "planserve_last_batch_virtual_seconds {}", Sample(v));
        }
        let tenants = by_label(
            self.tenants
                .iter()
                .filter(|(_, s)| s.submitted > 0)
                .map(|(&t, s)| (t, s)),
        );
        header(
            o,
            "planserve_plans_completed_total",
            "counter",
            "Plans that completed with a value, by tenant.",
        );
        for (t, s) in &tenants {
            let _ = writeln!(
                o,
                "planserve_plans_completed_total{{tenant=\"{t}\"}} {}",
                s.completed
            );
        }
        header(
            o,
            "planserve_plans_failed_total",
            "counter",
            "Plans that failed with a typed PlanError, or were lost with their batch to a failed rank, by tenant.",
        );
        for (t, s) in &tenants {
            let _ = writeln!(
                o,
                "planserve_plans_failed_total{{tenant=\"{t}\"}} {}",
                s.failed
            );
        }
        header(
            o,
            "planserve_queue_depth",
            "gauge",
            "Submissions currently queued awaiting service.",
        );
        let _ = writeln!(
            o,
            "planserve_queue_depth {}",
            Sample(self.queue.len() as f64)
        );
        header(
            o,
            "planserve_rank_load_imbalance",
            "gauge",
            "Modelled max rank load over mean rank load (cost / share summed per rank) of the last packed batch.",
        );
        if let Some(v) = m.imbalance {
            let _ = writeln!(o, "planserve_rank_load_imbalance {}", Sample(v));
        }
        // The labels are `AdmitError::reason`'s, in string order.
        header(
            o,
            "planserve_rejected_total",
            "counter",
            "Submissions rejected at admission, by AdmitError reason.",
        );
        for (reason, n) in [
            ("cost_ceiling", m.rejected_cost_ceiling),
            ("queue_full", m.rejected_queue_full),
        ] {
            if n > 0 {
                let _ = writeln!(o, "planserve_rejected_total{{reason=\"{reason}\"}} {n}");
            }
        }
        let name = "planserve_tenant_latency_virtual_seconds";
        header(
            o,
            name,
            "summary",
            "Plan completion latency in virtual seconds, by tenant (quantiles from the last batch).",
        );
        for (t, (l, count)) in by_label(
            m.latency
                .iter()
                .map(|(&t, l)| (t, (l, self.tenants[&t].completed))),
        ) {
            let _ = writeln!(
                o,
                "{name}{{tenant=\"{t}\",quantile=\"0.5\"}} {}",
                Sample(l.p50)
            );
            let _ = writeln!(
                o,
                "{name}{{tenant=\"{t}\",quantile=\"0.99\"}} {}",
                Sample(l.p99)
            );
            let _ = writeln!(o, "{name}_sum{{tenant=\"{t}\"}} {}", Sample(l.sum));
            let _ = writeln!(o, "{name}_count{{tenant=\"{t}\"}} {count}");
        }
        let name = "planserve_wave_occupancy";
        header(o, name, "histogram", "Plans packed per executed wave.");
        if let Some(waves) = m.waves.filter(|&w| w > 0) {
            let mut cumulative = 0;
            for (bound, n) in OCCUPANCY_BOUNDS.iter().zip(m.occupancy) {
                cumulative += n;
                let _ = writeln!(o, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(o, "{name}_bucket{{le=\"+Inf\"}} {waves}");
            let _ = writeln!(o, "{name}_sum {}", m.plans_packed);
            let _ = writeln!(o, "{name}_count {waves}");
        }
        header(
            o,
            "planserve_waves_total",
            "counter",
            "Waves executed across all served batches.",
        );
        if let Some(w) = m.waves {
            let _ = writeln!(o, "planserve_waves_total {w}");
        }
        out
    }
}

/// A rank's result under either runner: its report, or (under
/// [`run_spmd_ft`]) the failure that lost the batch.
trait RankReport {
    fn report(&self) -> Option<&ServeReport>;
}

impl RankReport for ServeReport {
    fn report(&self) -> Option<&ServeReport> {
        Some(self)
    }
}

impl RankReport for Result<ServeReport, RankFailure> {
    fn report(&self) -> Option<&ServeReport> {
        self.as_ref().ok()
    }
}

/// The SPMD body executing a packed schedule: a pure function of the
/// shared submission list and wave plan, so every rank walks the same
/// schedule. Rank 0 returns the batch's report, every other rank the
/// report of an empty batch.
fn serve_body(
    subs: Arc<Vec<Submission>>,
    waves: Arc<Vec<Wave>>,
) -> impl Fn(&mut Ctx) -> ServeReport + Sync {
    move |ctx| {
        let me = ctx.rank();
        let everyone: Vec<usize> = (0..ctx.nprocs()).collect();
        let mut mine: Vec<PlanDone> = Vec::new();
        for (w, wave) in waves.iter().enumerate() {
            ctx.trace_wave_start(w, wave.plans.len());
            let j = (0..wave.plans.len())
                .rfind(|&j| wave.starts[j] <= me)
                .expect("every rank belongs to a branch");
            let members = &everyone[wave.starts[j]..wave.starts[j] + wave.sizes[j]];
            let sub = &subs[wave.plans[j]];
            let salt = mix(SERVE_SALT, mix(w as u64 + 1, j as u64 + 1));
            let outcome = ctx.scoped(members, salt, |ctx| {
                let input = if ctx.rank() == 0 {
                    sub.input.clone()
                } else {
                    Value::Unit
                };
                try_run_plan(ctx, &sub.plan, input, ParMode::Allocate)
            });
            if me == wave.starts[j] {
                mine.push(PlanDone {
                    id: wave.plans[j] as u64,
                    tenant: sub.tenant,
                    finish: ctx.now(),
                    outcome,
                });
            }
        }

        // Every root's records move to rank 0, which sorts them back into
        // admission order and builds the one report.
        match ctx.gather(0, DoneBatch(mine)) {
            Some(batches) => {
                let mut done: Vec<PlanDone> = batches.into_iter().flat_map(|b| b.0).collect();
                done.sort_by_key(|d| d.id);
                build_report(done, waves.len() as u64)
            }
            None => build_report(Vec::new(), 0),
        }
    }
}

/// The report of a batch's records, already in admission order.
fn build_report(done: Vec<PlanDone>, waves: u64) -> ServeReport {
    let hi = done
        .iter()
        .filter(|d| d.outcome.is_ok())
        .map(|d| d.finish)
        .fold(0.0f64, f64::max);
    let hi = if hi > 0.0 { hi * (1.0 + 1e-9) } else { 1.0 };
    let mut latency = Digest::new(LATENCY_TOP_K, LATENCY_BUCKETS, 0.0, hi);
    let mut tenant_latency: BTreeMap<TenantId, Digest> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(done.len());
    let mut tenants: BTreeMap<TenantId, TenantStats> = BTreeMap::new();
    for d in done {
        let t = tenants.entry(d.tenant).or_default();
        t.submitted += 1;
        match d.outcome {
            Ok((value, stats)) => {
                t.completed += 1;
                t.compose = ComposeStats::combine(t.compose, stats);
                latency.add(d.finish);
                tenant_latency
                    .entry(d.tenant)
                    .or_insert_with(|| Digest::new(LATENCY_TOP_K, LATENCY_BUCKETS, 0.0, hi))
                    .add(d.finish);
                outcomes.push(Ok(value));
            }
            Err(e) => {
                t.failed += 1;
                outcomes.push(Err(e));
            }
        }
    }
    ServeReport {
        outcomes,
        tenants: tenants.into_iter().collect(),
        latency,
        tenant_latency: tenant_latency.into_iter().collect(),
        waves,
    }
}

#[cfg(test)]
mod tests {
    use archetype_core::{ArchetypeInfo, PhaseKind};
    use archetype_mp::{CrashSite, MachineModel};

    use super::*;
    use crate::job::ArchetypeJob;

    /// A cheap deterministic atom: folds any input value to an `F64` and
    /// nudges it, so arbitrary plan shapes type-check from a `Unit` root
    /// input (every `Par` fans `Unit` out). A negative weight is a bug in
    /// the atom: it panics.
    struct Fold {
        weight: f64,
    }

    fn fold_value(v: &Value) -> f64 {
        match v {
            Value::Unit => 1.0,
            Value::U64(x) => *x as f64,
            Value::F64(x) => *x,
            Value::I64s(xs) => xs.iter().map(|&x| x as f64).sum(),
            Value::F64s(xs) => xs.iter().sum(),
            Value::Tuple(parts) => parts.iter().map(fold_value).sum(),
        }
    }

    impl ArchetypeJob for Fold {
        type In = Value;
        type Out = Value;

        fn name(&self) -> &'static str {
            "fold"
        }

        fn info(&self) -> &'static ArchetypeInfo {
            &archetype_core::archetype::ONE_DEEP_DC
        }

        fn estimate_flops(&self, _input: &Value) -> f64 {
            self.weight
        }

        fn run(&self, ctx: &mut Ctx, input: Value) -> Value {
            assert!(self.weight >= 0.0, "the atom exploded");
            for kind in [PhaseKind::Split, PhaseKind::Solve, PhaseKind::Merge] {
                ctx.trace_phase(kind, "fold");
            }
            Value::F64(fold_value(&input) * 1.5 + self.weight)
        }

        fn fingerprint(&self) -> u64 {
            self.weight.to_bits()
        }
    }

    fn fold_plan(weight: f64) -> Plan {
        Plan::seq(vec![
            Plan::atom(Fold { weight }).alongside(Plan::atom(Fold {
                weight: weight * 2.0,
            })),
            Plan::atom(Fold { weight: 1.0 }),
        ])
    }

    #[test]
    fn identical_submissions_share_cached_shape_cost_and_allocation() {
        let mut svc = PlanService::new(6, ServeConfig::default());
        for t in 0..4 {
            svc.submit(t % 2, fold_plan(3.0), Value::Unit).unwrap();
        }
        let out = svc.serve(MachineModel::ibm_sp());
        assert_eq!(out.cache.shape_misses, 1);
        assert_eq!(out.cache.shape_hits, 3);
        assert_eq!(out.cache.cost_misses, 1);
        assert_eq!(out.cache.cost_hits, 3);

        // A second identical batch reuses even the wave allocations.
        let before = out.cache;
        for t in 0..4 {
            svc.submit(t % 2, fold_plan(3.0), Value::Unit).unwrap();
        }
        let out2 = svc.serve(MachineModel::ibm_sp());
        assert_eq!(out2.cache.shape_hits, before.shape_hits + 4);
        assert!(out2.cache.alloc_hits > before.alloc_hits);
        assert_eq!(
            out2.report, out.report,
            "identical batches, identical reports"
        );
    }

    #[test]
    fn admission_rejections_are_typed_and_accounted() {
        let mut svc = PlanService::new(
            4,
            ServeConfig {
                queue_capacity: 2,
                cost_ceiling: 10.0,
                ..ServeConfig::default()
            },
        );
        assert_eq!(svc.submit(7, fold_plan(1.0), Value::Unit), Ok(0));
        let err = svc
            .submit(7, fold_plan(100.0), Value::Unit)
            .expect_err("over the ceiling");
        assert!(matches!(err, AdmitError::CostCeiling { ceiling, .. } if ceiling == 10.0));
        assert_eq!(svc.submit(8, fold_plan(2.0), Value::Unit), Ok(1));
        let err = svc
            .submit(9, fold_plan(1.0), Value::Unit)
            .expect_err("queue is full");
        assert_eq!(err, AdmitError::QueueFull { capacity: 2 });
        assert!(err.to_string().contains("full"));

        let out = svc.serve(MachineModel::ibm_sp());
        let find = |t: TenantId| {
            out.report
                .tenants
                .iter()
                .find(|(id, _)| *id == t)
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert_eq!(find(7).completed, 1);
        assert_eq!(find(7).rejected, 1);
        assert_eq!(find(8).completed, 1);
        assert_eq!(find(9).rejected, 1);
        assert_eq!(find(9).submitted, 0, "tenant 9 never ran a plan");
        assert_eq!(svc.tenant_totals(), out.report.tenants);
    }

    #[test]
    fn concurrent_and_serial_schedules_agree_on_outcomes_and_stats() {
        let run = |max_concurrent: usize| {
            let mut svc = PlanService::new(
                8,
                ServeConfig {
                    max_concurrent,
                    ..ServeConfig::default()
                },
            );
            for i in 0..10u32 {
                svc.submit(i % 3, fold_plan(f64::from(i % 4) + 1.0), Value::Unit)
                    .unwrap();
            }
            svc.serve(MachineModel::cray_t3d())
        };
        let serial = run(1);
        let packed = run(4);
        assert_eq!(serial.report.outcomes, packed.report.outcomes);
        assert_eq!(serial.report.tenants, packed.report.tenants);
        assert_eq!(serial.report.waves, 10);
        assert!(packed.report.waves < 10);
        assert!(
            packed.elapsed_virtual < serial.elapsed_virtual,
            "packing must beat serial: {} vs {}",
            packed.elapsed_virtual,
            serial.elapsed_virtual
        );
    }

    #[test]
    fn injected_atom_exhaustion_is_a_per_submission_error() {
        let mut svc = PlanService::new(4, ServeConfig::default());
        svc.submit(1, fold_plan(1.0), Value::Unit).unwrap();
        // Node 1 is the first plan's Par; its first atom is node 2. Doom
        // it past the default 3-retry budget.
        let fault = FaultPlan::new(11).fail_atom(2, 9);
        let out = svc
            .serve_ft(MachineModel::ibm_sp(), fault)
            .expect("no rank crashed");
        assert_eq!(out.report.outcomes.len(), 1);
        let err = out.report.outcomes[0].as_ref().expect_err("doomed atom");
        assert!(matches!(err, PlanError::AtomExhausted { node: 2, .. }));
        let (_, stats) = out.report.tenants[0];
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(out.report.latency.count, 0, "failed plans leave no latency");
        assert!(out.wall_us > 0, "an FT batch reports its wall time");
    }

    #[test]
    fn an_injected_crash_fails_the_whole_batch_typed() {
        let mut svc = PlanService::new(
            3,
            ServeConfig {
                cost_ceiling: 10.0,
                ..ServeConfig::default()
            },
        );
        let err = svc
            .submit(5, fold_plan(100.0), Value::Unit)
            .expect_err("over the ceiling");
        assert!(matches!(err, AdmitError::CostCeiling { .. }));
        svc.submit(1, fold_plan(1.0), Value::Unit).unwrap();
        let fault = FaultPlan::new(11).crash(0, CrashSite::Send(0));
        let failures = svc
            .serve_ft(MachineModel::ibm_sp(), fault)
            .expect_err("rank 0 dies");
        assert!(!failures.is_empty());
        assert!(failures.iter().any(|f| f.injected));
        // The lost plan fails with its batch; the rejection stays counted.
        let lost = TenantStats {
            submitted: 1,
            failed: 1,
            ..TenantStats::default()
        };
        let rejected = TenantStats {
            rejected: 1,
            ..TenantStats::default()
        };
        assert_eq!(svc.tenant_totals(), vec![(1, lost), (5, rejected)]);
    }

    #[test]
    fn a_rejection_outlives_a_batch_that_panics() {
        let mut svc = PlanService::new(
            2,
            ServeConfig {
                cost_ceiling: 10.0,
                ..ServeConfig::default()
            },
        );
        svc.submit(5, fold_plan(100.0), Value::Unit)
            .expect_err("over the ceiling");
        svc.submit(1, Plan::atom(Fold { weight: -1.0 }), Value::Unit)
            .unwrap();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.serve(MachineModel::ibm_sp())
        }));
        assert!(run.is_err(), "the atom's panic reaches the caller");
        let lost = TenantStats {
            submitted: 1,
            failed: 1,
            ..TenantStats::default()
        };
        let rejected = TenantStats {
            rejected: 1,
            ..TenantStats::default()
        };
        assert_eq!(svc.tenant_totals(), vec![(1, lost), (5, rejected)]);
        let out = svc.serve(MachineModel::ibm_sp());
        assert_eq!(out.report.tenants, vec![(5, rejected)]);
    }

    #[test]
    fn pack_waves_covers_every_plan_exactly_once() {
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let waves = pack_waves(&costs, 5, 3);
        let mut seen = vec![0u32; costs.len()];
        for w in &waves {
            assert_eq!(w.sizes.iter().sum::<usize>(), 5);
            assert!(w.sizes.iter().all(|&s| s >= 1));
            assert_eq!(w.starts[0], 0);
            for i in &w.plans {
                seen[*i] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
        assert_eq!(waves.len(), 3); // ceil(7 / 3)
    }
}
