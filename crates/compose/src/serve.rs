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
//!    Plan *structure* is memoized on the way in
//!    ([`Plan::structure_hash`]): node/atom counts, the derived
//!    composite grammar, and the cost estimate are computed once per
//!    distinct `(structure, input shape)` and reused across identical
//!    submissions ([`CacheStats`] counts the hits).
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
//!    [`try_run_plan_with`](crate::try_run_plan_with) — concurrent
//!    plans' traffic cannot collide because sibling scopes are fully
//!    isolated. No inter-wave barrier is needed: the schedule is static,
//!    so matched sends/receives exist within scopes only.
//! 4. **Stats return**: each subgroup root records its plan's outcome
//!    and virtual finish time; a final `all_gather` assembles, on every
//!    rank identically, the [`ServeReport`] — per-submission results or
//!    typed [`PlanError`]s, per-tenant [`TenantStats`] (schedule- and
//!    `p`-invariant), and a completion-latency [`Digest`] with p50/p99.
//!
//! Determinism: virtual clocks are driven solely by the machine model,
//! so given the same submission sequence (and fault seed, under
//! [`PlanService::serve_ft`]) the results, per-tenant stats, and latency
//! percentiles are bit-identical across runs; only measured wall time
//! differs.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use archetype_core::PatternExpr;
use archetype_mp::{
    run_spmd_ft, run_spmd_with, Ctx, FaultPlan, MachineModel, Payload, RunConfig, SpmdError,
    SpmdResult,
};
use archetype_pipeline::apps::Digest;

use crate::alloc::allocate;
use crate::exec::{mix, try_run_plan_with, ComposeConfig, ComposeStats, PlanError};
use crate::metrics::{MetricKind, Metrics};
use crate::plan::Plan;
use crate::value::Value;

/// Tenant identity: submissions, stats, and rejections are accounted per
/// tenant.
pub type TenantId = u32;

/// Scope-salt namespace of the service's per-wave subgroups, keeping
/// their traffic disjoint from plan-internal `Par` scopes.
const SERVE_SALT: u64 = 0x5345_5256; // "SERV"

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
    /// Executor configuration for every plan run (scheduling mode, retry
    /// budget under fault injection).
    pub compose: ComposeConfig,
    /// Top-k capacity of the completion-latency digest.
    pub latency_top_k: usize,
    /// Histogram buckets of the completion-latency digest.
    pub latency_buckets: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_concurrent: 8,
            queue_capacity: 4096,
            cost_ceiling: f64::INFINITY,
            compose: ComposeConfig::default(),
            latency_top_k: 10,
            latency_buckets: 256,
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
    /// Plan-shape lookups (node/atom counts + derived grammar) answered
    /// from the cache.
    pub shape_hits: u64,
    /// Plan shapes derived fresh.
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

/// Memoized structural derivations of one plan shape.
struct PlanShape {
    nodes: u64,
    atoms: u64,
    grammar: PatternExpr,
}

/// The service's memo tables, keyed on [`Plan::structure_hash`].
#[derive(Default)]
struct PlanCache {
    shapes: HashMap<u64, Arc<PlanShape>>,
    costs: HashMap<(u64, u64), f64>,
    allocs: HashMap<(Vec<u64>, usize), Arc<Vec<usize>>>,
    stats: CacheStats,
}

impl PlanCache {
    fn shape(&mut self, hash: u64, plan: &Plan) -> Arc<PlanShape> {
        if let Some(s) = self.shapes.get(&hash) {
            self.stats.shape_hits += 1;
            return Arc::clone(s);
        }
        self.stats.shape_misses += 1;
        let s = Arc::new(PlanShape {
            nodes: plan.nodes(),
            atoms: plan.atoms(),
            grammar: plan.grammar(),
        });
        self.shapes.insert(hash, Arc::clone(&s));
        s
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
    /// Plans admitted (and therefore executed) for this tenant.
    pub submitted: u64,
    /// Plans that completed with a value.
    pub completed: u64,
    /// Plans that failed with a typed [`PlanError`].
    pub failed: u64,
    /// Submissions rejected at admission ([`AdmitError`]); filled by the
    /// service wrapper, always `0` inside a raw [`PlanService::serve_spmd`]
    /// report.
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

/// What one service run returns — identical on every rank.
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
    /// The per-rank-identical report.
    pub report: ServeReport,
    /// Modeled virtual time of the whole batch.
    pub elapsed_virtual: f64,
    /// Measured wall time of the whole batch, microseconds.
    pub wall_us: u64,
    /// Cumulative cache counters after this batch.
    pub cache: CacheStats,
}

/// A subgroup root's record of one finished plan.
#[derive(Clone)]
struct PlanDone {
    id: u64,
    tenant: TenantId,
    finish: f64,
    outcome: Result<(Value, ComposeStats), PlanError>,
}

/// The per-rank batch of finished-plan records, gathered world-wide.
#[derive(Clone)]
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
/// // Identical plans share one cached shape and cost estimate.
/// assert_eq!(out.cache.shape_misses, 1);
/// assert_eq!(out.cache.shape_hits, 2);
/// ```
pub struct PlanService {
    nprocs: usize,
    config: ServeConfig,
    cache: PlanCache,
    queue: Vec<Submission>,
    rejected: BTreeMap<TenantId, u64>,
    tenants: BTreeMap<TenantId, TenantStats>,
    metrics: Metrics,
}

/// The service's metric registry, with every series name declared up
/// front so `metrics_text` always exposes the full schema.
fn service_metrics() -> Metrics {
    let mut m = Metrics::new();
    m.describe(
        "planserve_queue_depth",
        MetricKind::Gauge,
        "Submissions currently queued awaiting service.",
    );
    m.describe(
        "planserve_admitted_total",
        MetricKind::Counter,
        "Submissions accepted by the admission controller.",
    );
    m.describe(
        "planserve_rejected_total",
        MetricKind::Counter,
        "Submissions rejected at admission, by AdmitError reason.",
    );
    m.describe(
        "planserve_batches_total",
        MetricKind::Counter,
        "Batches served (serve / serve_ft calls that executed).",
    );
    m.describe(
        "planserve_waves_total",
        MetricKind::Counter,
        "Waves executed across all served batches.",
    );
    m.describe_histogram(
        "planserve_wave_occupancy",
        "Plans packed per executed wave.",
        &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
    );
    m.describe(
        "planserve_rank_load_imbalance",
        MetricKind::Gauge,
        "Modelled max rank load over mean rank load (cost / share summed per rank) of the last packed batch.",
    );
    m.describe(
        "planserve_plans_completed_total",
        MetricKind::Counter,
        "Plans that completed with a value, by tenant.",
    );
    m.describe(
        "planserve_plans_failed_total",
        MetricKind::Counter,
        "Plans that failed with a typed PlanError, by tenant.",
    );
    m.describe(
        "planserve_cache_hits_total",
        MetricKind::Counter,
        "Structure-cache lookups answered from cache, by cache.",
    );
    m.describe(
        "planserve_cache_misses_total",
        MetricKind::Counter,
        "Structure-cache lookups computed fresh, by cache.",
    );
    m.describe(
        "planserve_tenant_latency_virtual_seconds",
        MetricKind::Summary,
        "Plan completion latency in virtual seconds, by tenant (quantiles from the last batch).",
    );
    m.describe(
        "planserve_last_batch_virtual_seconds",
        MetricKind::Gauge,
        "Modeled virtual time of the most recently served batch.",
    );
    m
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
            rejected: BTreeMap::new(),
            tenants: BTreeMap::new(),
            metrics: service_metrics(),
        }
    }

    /// Ranks the service schedules over.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Submissions currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Cumulative per-tenant accounting across every served batch (and
    /// rejections recorded since), ascending by tenant id.
    pub fn tenant_totals(&self) -> Vec<(TenantId, TenantStats)> {
        let mut totals = self.tenants.clone();
        for (&t, &n) in &self.rejected {
            totals.entry(t).or_default().rejected += n;
        }
        totals.into_iter().collect()
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
            *self.rejected.entry(tenant).or_default() += 1;
            let err = AdmitError::QueueFull {
                capacity: self.config.queue_capacity,
            };
            self.metrics
                .inc("planserve_rejected_total", &[("reason", err.reason())], 1);
            return Err(err);
        }
        let hash = plan.structure_hash();
        let _shape = self.cache.shape(hash, &plan);
        let cost = self.cache.cost(hash, &input, &plan);
        if cost > self.config.cost_ceiling {
            *self.rejected.entry(tenant).or_default() += 1;
            let err = AdmitError::CostCeiling {
                estimated_flops: cost,
                ceiling: self.config.cost_ceiling,
            };
            self.metrics
                .inc("planserve_rejected_total", &[("reason", err.reason())], 1);
            return Err(err);
        }
        let id = self.queue.len() as u64;
        self.queue.push(Submission {
            tenant,
            plan,
            input,
            cost,
        });
        self.metrics.inc("planserve_admitted_total", &[], 1);
        Ok(id)
    }

    /// The memoized grammar of a previously submitted plan shape, if the
    /// cache holds it.
    pub fn cached_grammar(&self, plan: &Plan) -> Option<&PatternExpr> {
        self.cache
            .shapes
            .get(&plan.structure_hash())
            .map(|s| &s.grammar)
    }

    /// The memoized `(nodes, atoms)` counts of a previously submitted
    /// plan shape, if the cache holds it.
    pub fn cached_shape_counts(&self, plan: &Plan) -> Option<(u64, u64)> {
        self.cache
            .shapes
            .get(&plan.structure_hash())
            .map(|s| (s.nodes, s.atoms))
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
        self.metrics
            .inc("planserve_waves_total", &[], waves.len() as u64);
        for wave in &waves {
            self.metrics
                .observe("planserve_wave_occupancy", &[], wave.plans.len() as f64);
        }
        if !waves.is_empty() {
            self.metrics.inc("planserve_batches_total", &[], 1);
        }
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if mean > 0.0 {
            let max = loads.iter().fold(0.0f64, |a, &b| a.max(b));
            self.metrics
                .set("planserve_rank_load_imbalance", &[], max / mean);
        }
        waves
    }

    /// Drain the queue and execute it as one SPMD run, returning the raw
    /// [`SpmdResult`] whose per-rank results are identical
    /// [`ServeReport`]s. Rejection accounting is *not* folded in here —
    /// use [`PlanService::serve`] for the full wrapper. This is the
    /// entry point determinism tests snapshot (results, per-rank clocks,
    /// elapsed virtual time).
    pub fn serve_spmd(&mut self, model: MachineModel, run: RunConfig) -> SpmdResult<ServeReport> {
        let waves = self.pack();
        let subs = Arc::new(std::mem::take(&mut self.queue));
        let body = serve_body(Arc::clone(&subs), Arc::new(waves), self.config);
        let result = run_spmd_with(self.nprocs, model, run, body);
        self.absorb(&result.results[0]);
        self.record_report_metrics(&result.results[0], result.elapsed_virtual);
        result
    }

    /// Serve the queued batch and fold rejection accounting into the
    /// report.
    pub fn serve(&mut self, model: MachineModel) -> ServeOutcome {
        self.serve_with(model, RunConfig::default())
    }

    /// [`PlanService::serve`] with an explicit [`RunConfig`].
    pub fn serve_with(&mut self, model: MachineModel, run: RunConfig) -> ServeOutcome {
        let rejected = std::mem::take(&mut self.rejected);
        let result = self.serve_spmd(model, run);
        let mut report = result.results.into_iter().next().expect("one rank minimum");
        fold_rejections(&mut report, &rejected, &mut self.tenants);
        ServeOutcome {
            report,
            elapsed_virtual: result.elapsed_virtual,
            wall_us: result.wall_us,
            cache: self.cache.stats,
        }
    }

    /// Serve the queued batch under a deterministic [`FaultPlan`]. Injected
    /// atom exhaustion surfaces *inside* the report as per-submission
    /// [`PlanError`]s; an injected rank crash fails the whole batch with
    /// [`SpmdError::Ranks`] (the drained submissions are dropped).
    pub fn serve_ft(
        &mut self,
        model: MachineModel,
        fault: FaultPlan,
    ) -> Result<ServeOutcome, SpmdError> {
        let rejected = std::mem::take(&mut self.rejected);
        let waves = self.pack();
        let subs = Arc::new(std::mem::take(&mut self.queue));
        let body = serve_body(Arc::clone(&subs), Arc::new(waves), self.config);
        let ft = run_spmd_ft(self.nprocs, model, fault, body);
        let failures: Vec<_> = ft
            .results
            .iter()
            .filter_map(|r| r.as_ref().err().cloned())
            .collect();
        if !failures.is_empty() {
            return Err(SpmdError::Ranks { failures });
        }
        let mut report = ft
            .results
            .into_iter()
            .next()
            .expect("one rank minimum")
            .expect("no failures");
        self.absorb(&report);
        self.record_report_metrics(&report, ft.elapsed_virtual);
        fold_rejections(&mut report, &rejected, &mut self.tenants);
        Ok(ServeOutcome {
            report,
            elapsed_virtual: ft.elapsed_virtual,
            wall_us: ft.wall_us,
            cache: self.cache.stats,
        })
    }

    /// Fold a batch report into the cumulative per-tenant totals.
    fn absorb(&mut self, report: &ServeReport) {
        for (t, s) in &report.tenants {
            self.tenants.entry(*t).or_default().absorb(s);
        }
    }

    /// Fold one batch's report into the metrics registry.
    fn record_report_metrics(&mut self, report: &ServeReport, elapsed_virtual: f64) {
        for (t, s) in &report.tenants {
            let tenant = t.to_string();
            let labels: [(&'static str, &str); 1] = [("tenant", &tenant)];
            self.metrics
                .inc("planserve_plans_completed_total", &labels, s.completed);
            self.metrics
                .inc("planserve_plans_failed_total", &labels, s.failed);
        }
        for (t, digest) in &report.tenant_latency {
            let tenant = t.to_string();
            let labels: [(&'static str, &str); 1] = [("tenant", &tenant)];
            self.metrics.observe_summary(
                "planserve_tenant_latency_virtual_seconds",
                &labels,
                digest.sum,
                digest.count,
                &[
                    (0.5, digest.percentile(0.50)),
                    (0.99, digest.percentile(0.99)),
                ],
            );
        }
        self.metrics
            .set("planserve_last_batch_virtual_seconds", &[], elapsed_virtual);
    }

    /// Render the service's metrics in the Prometheus text exposition
    /// format. Live counters (admissions, rejections, waves, per-tenant
    /// completions and latency) are joined by point-in-time mirrors of
    /// the queue depth and the cumulative [`CacheStats`].
    pub fn metrics_text(&self) -> String {
        let mut m = self.metrics.clone();
        m.set("planserve_queue_depth", &[], self.queue.len() as f64);
        let c = self.cache.stats;
        for (cache, hits, misses) in [
            ("shape", c.shape_hits, c.shape_misses),
            ("cost", c.cost_hits, c.cost_misses),
            ("alloc", c.alloc_hits, c.alloc_misses),
        ] {
            m.sync_counter("planserve_cache_hits_total", &[("cache", cache)], hits);
            m.sync_counter("planserve_cache_misses_total", &[("cache", cache)], misses);
        }
        m.render()
    }
}

/// Merge admission rejections into a batch report (and the cumulative
/// totals): tenants with only rejections gain a fresh entry.
fn fold_rejections(
    report: &mut ServeReport,
    rejected: &BTreeMap<TenantId, u64>,
    totals: &mut BTreeMap<TenantId, TenantStats>,
) {
    for (&t, &n) in rejected {
        totals.entry(t).or_default().rejected += n;
        match report.tenants.binary_search_by_key(&t, |(id, _)| *id) {
            Ok(i) => report.tenants[i].1.rejected += n,
            Err(i) => {
                let stats = TenantStats {
                    rejected: n,
                    ..TenantStats::default()
                };
                report.tenants.insert(i, (t, stats));
            }
        }
    }
}

/// The SPMD body executing a packed schedule: a pure function of the
/// shared submission list and wave plan, so every rank walks the same
/// schedule and returns the identical report.
fn serve_body(
    subs: Arc<Vec<Submission>>,
    waves: Arc<Vec<Wave>>,
    config: ServeConfig,
) -> impl Fn(&mut Ctx) -> ServeReport + Sync {
    move |ctx| {
        let mut mine: Vec<PlanDone> = Vec::new();
        for (w, wave) in waves.iter().enumerate() {
            ctx.trace_wave_start(w, wave.plans.len());
            let me = ctx.rank();
            let j = (0..wave.plans.len())
                .rfind(|&j| wave.starts[j] <= me)
                .expect("every rank belongs to a branch");
            let members: Vec<usize> = (wave.starts[j]..wave.starts[j] + wave.sizes[j]).collect();
            let sub = &subs[wave.plans[j]];
            let salt = mix(SERVE_SALT, mix(w as u64 + 1, j as u64 + 1));
            let outcome = ctx.scoped(&members, salt, |ctx| {
                let input = if ctx.rank() == 0 {
                    sub.input.clone()
                } else {
                    Value::Unit
                };
                try_run_plan_with(ctx, &sub.plan, input, config.compose, None)
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

        // Assemble the world-identical report: every root's records,
        // sorted back into admission order.
        let batches: Vec<DoneBatch> = ctx.all_gather(DoneBatch(mine));
        let mut done: Vec<PlanDone> = batches.into_iter().flat_map(|b| b.0).collect();
        done.sort_by_key(|d| d.id);

        let hi = done
            .iter()
            .filter(|d| d.outcome.is_ok())
            .map(|d| d.finish)
            .fold(0.0f64, f64::max);
        let hi = if hi > 0.0 { hi * (1.0 + 1e-9) } else { 1.0 };
        let mut latency = Digest::new(config.latency_top_k, config.latency_buckets, 0.0, hi);
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
                        .or_insert_with(|| {
                            Digest::new(config.latency_top_k, config.latency_buckets, 0.0, hi)
                        })
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
            waves: waves.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use archetype_core::{ArchetypeInfo, PhaseKind, PhaseTrace};
    use archetype_mp::{CrashSite, MachineModel};

    use super::*;
    use crate::job::ArchetypeJob;

    /// A cheap deterministic atom: folds any input value to an `F64` and
    /// nudges it, so arbitrary plan shapes type-check from a `Unit` root
    /// input (every `Par` fans `Unit` out).
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

        fn run(&self, ctx: &mut Ctx, input: Value, trace: Option<&PhaseTrace>) -> Value {
            let _ = ctx;
            if let Some(t) = trace {
                t.record(PhaseKind::Split, "fold split");
                t.record(PhaseKind::Solve, "fold solve");
                t.record(PhaseKind::Merge, "fold merge");
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
        assert!(svc.cached_grammar(&fold_plan(3.0)).is_some());
        assert!(svc.cached_grammar(&fold_plan(4.0)).is_none());
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
        let mut svc = PlanService::new(3, ServeConfig::default());
        svc.submit(1, fold_plan(1.0), Value::Unit).unwrap();
        let fault = FaultPlan::new(11).crash(0, CrashSite::Send(0));
        let err = svc
            .serve_ft(MachineModel::ibm_sp(), fault)
            .expect_err("rank 0 dies");
        assert!(!err.failures().is_empty());
        assert!(err.failures().iter().any(|f| f.injected));
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
