//! The plan executor: groups, handoffs, traces, statistics.
//!
//! [`run_plan`] walks a [`Plan`] collectively on the current process
//! group, maintaining one invariant throughout: **the plan value on an
//! edge is held by rank 0 of the group executing that edge**. From it,
//! each constructor's communication is derived:
//!
//! - **Atom** — the group enters a fresh [`Ctx::scoped`] section (so the
//!   archetype's internal protocol, whatever tags it uses, is isolated
//!   from every sibling and from the executor's own traffic), the root
//!   broadcasts the input to the members, and the job runs collectively;
//!   the root keeps the output.
//! - **Seq** — stages execute in order on the whole group; the value
//!   stays at the root between stages, so consecutive stages hand off
//!   without communication.
//! - **Par / Replicate** — the root splits the tuple input, prices each
//!   branch through its jobs' flop estimates, and broadcasts the cost
//!   vector; every rank then computes the same proportional allocation
//!   ([`crate::allocate`]) and joins its contiguous branch subgroup. The
//!   root ships branch inputs to the branch roots (bit-59
//!   [`archetype_mp::tags::compose_tag`] namespace), branches recurse
//!   concurrently inside disjoint scopes, and branch roots ship outputs
//!   (with their trace slices, when the run is traced) back to the root,
//!   which assembles the output tuple — in branch order, so results,
//!   clocks, and the composite trace are deterministic. Groups too small to host every
//!   branch (`p < k`), or a [`ParMode::Serialize`] config, run the
//!   branches one after another on the whole group instead — same
//!   results, same statistics, different schedule.
//!
//! Phases are a diagnostic: they are recorded only when the caller
//! handed [`run_plan_traced`] a [`PhaseTrace`] to read them from, and
//! they are never priced as traffic — so a traced and an untraced run of
//! one plan are the same logical run, bit for bit. An untraced run (every
//! [`crate::PlanService`] plan) builds no `Phase`, no label and no
//! `PhaseTrace` at all.
//!
//! Statistics ([`ComposeStats`]) count *logical* structure — atoms run,
//! stages, branches, handoffs and their bytes — so they are identical
//! across process counts, machine models, and `Par` modes; determinism
//! of results and virtual clocks across repeated runs follows from the
//! substrate's.

use std::fmt;

use archetype_core::{Phase, PhaseKind, PhaseTrace};
use archetype_mp::tags::{compose_tag, ComposeTag};
use archetype_mp::{impl_fixed_size, Ctx, FaultPlan, Payload};

use crate::alloc::allocate;
use crate::plan::{Plan, PlanNode};
use crate::value::Value;

/// How `Par`/`Replicate` nodes use the group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParMode {
    /// Branches run concurrently on disjoint subgroups sized by the
    /// model-driven allocator (serializing only when the group is
    /// smaller than the branch count).
    #[default]
    Allocate,
    /// Branches run one after another on the full group — the baseline
    /// the `compose_scaling` bench compares cost-proportional allocation
    /// against.
    Serialize,
}

/// Bounded replay of atoms whose attempts a
/// [`FaultPlan`] fails (see [`FaultPlan::atom_failures`] /
/// [`FaultPlan::fail_atom`]). A failed attempt runs the atom to
/// completion, loses its result, charges an exponential virtual-time
/// backoff, and replays from the edge-value checkpoint the executor's
/// root retains; a schedule that outlasts the budget surfaces as
/// [`PlanError::AtomExhausted`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Replays allowed per atom beyond its first attempt.
    pub max_retries: u32,
    /// Virtual seconds charged after the first lost attempt; doubles per
    /// subsequent loss (bounded by `max_retries`).
    pub backoff_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_secs: 1e-3,
        }
    }
}

/// Typed failure of a plan run under fault injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// An atom's failure schedule outlasts its retry budget. Because the
    /// schedule is a pure function of the [`FaultPlan`], every rank
    /// derives the identical error before any plan traffic is exchanged.
    AtomExhausted {
        /// Plan-preorder id of the doomed atom node.
        node: u64,
        /// The atom job's name.
        atom: String,
        /// Attempts the schedule would consume (`max_retries + 1` at the
        /// point the budget is exceeded).
        attempts: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::AtomExhausted {
                node,
                atom,
                attempts,
            } => write!(
                f,
                "atom {atom} (plan node {node}) lost {attempts} attempt(s), \
                 exhausting its retry budget"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Tuning knobs for [`run_plan_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ComposeConfig {
    /// Branch scheduling policy.
    pub par: ParMode,
    /// Atom replay budget under fault injection (inert without a
    /// [`FaultPlan`] in the context).
    pub retry: RetryPolicy,
}

/// Deterministic, structural statistics of a plan run — identical on
/// every rank, across runs, process counts, machine models, and
/// [`ParMode`]s (they count the plan's logical execution, not its
/// schedule).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComposeStats {
    /// Atom executions ([`crate::ArchetypeJob::run`] calls, counted once
    /// per atom instance regardless of group size).
    pub atoms: u64,
    /// `Seq` stages executed.
    pub seq_stages: u64,
    /// `Par`/`Replicate` sections executed.
    pub par_sections: u64,
    /// Branches executed across all sections (replicate copies included).
    pub branches: u64,
    /// Branches that were replicate copies.
    pub replicated: u64,
    /// Logical inter-stage value transfers: one input and one output per
    /// branch of every section.
    pub handoffs: u64,
    /// Total payload bytes of those transfers (branch inputs + outputs).
    pub handoff_bytes: u64,
    /// Plan nodes executed (replicate bodies counted once per copy).
    pub plan_nodes: u64,
    /// Deepest nesting level reached.
    pub max_depth: u64,
    /// Atom attempts whose results were lost to fault injection and
    /// replayed from their input checkpoints (0 without a fault plan).
    pub retries: u64,
}

impl_fixed_size!(ComposeStats);

impl ComposeStats {
    /// Merge two stat records: counters add, depths max. Used by the
    /// executor's collective reduction and by the plan service to fold
    /// per-submission stats into per-tenant totals.
    pub fn combine(a: ComposeStats, b: ComposeStats) -> ComposeStats {
        ComposeStats {
            atoms: a.atoms + b.atoms,
            seq_stages: a.seq_stages + b.seq_stages,
            par_sections: a.par_sections + b.par_sections,
            branches: a.branches + b.branches,
            replicated: a.replicated + b.replicated,
            handoffs: a.handoffs + b.handoffs,
            handoff_bytes: a.handoff_bytes + b.handoff_bytes,
            plan_nodes: a.plan_nodes + b.plan_nodes,
            max_depth: a.max_depth.max(b.max_depth),
            retries: a.retries + b.retries,
        }
    }
}

/// A branch input shipped root-to-root, with the run's trace switch:
/// only rank 0's `trace` argument is authoritative, so it travels with
/// the work to wherever a phase could be recorded.
struct BranchInput {
    value: Value,
    traced: bool,
}

/// A branch output and its trace slice (empty when untraced), shipped
/// root-to-root.
struct Handoff {
    value: Value,
    trace: Vec<Phase>,
}

// Diagnostics are not traffic: both are priced as the value alone.
impl Payload for BranchInput {
    fn size_bytes(&self) -> usize {
        self.value.size_bytes()
    }
}

impl Payload for Handoff {
    fn size_bytes(&self) -> usize {
        self.value.size_bytes()
    }
}

pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut h = 0x9e3779b97f4a7c15u64 ^ a;
    h = h.wrapping_mul(0x100000001b3);
    h ^= b;
    h.wrapping_mul(0x100000001b3)
}

/// Split a `Par`/`Replicate` input into one part per branch.
fn split_parts(v: Value, k: usize) -> Vec<Value> {
    match v {
        Value::Tuple(parts) => {
            assert_eq!(
                parts.len(),
                k,
                "a Par/Replicate over {k} branches needs a {k}-tuple input (got {} parts)",
                parts.len()
            );
            parts
        }
        Value::Unit => vec![Value::Unit; k],
        other => panic!(
            "a Par/Replicate over {k} branches needs a Tuple or Unit input, got {}",
            other.shape()
        ),
    }
}

struct Walker {
    config: ComposeConfig,
    stats: ComposeStats,
    /// Whether phases are recorded. Read on scope roots only, where it
    /// is rank 0's verdict: a branch root receives it with its input.
    traced: bool,
}

impl Walker {
    /// Execute one plan node on the current scope. `input` is `Some`
    /// exactly on the scope's rank 0; likewise the returned value and
    /// trace slice (empty everywhere when the run is untraced).
    fn node(
        &mut self,
        ctx: &mut Ctx,
        plan: &Plan,
        input: Option<Value>,
        node_id: u64,
        salt: u64,
        depth: u64,
    ) -> (Option<Value>, Vec<Phase>) {
        let root = ctx.rank() == 0;
        if root {
            self.stats.plan_nodes += 1;
            self.stats.max_depth = self.stats.max_depth.max(depth);
        }
        match &plan.node {
            PlanNode::Atom(job) => {
                // How many leading attempts the fault plan loses is a
                // pure function of (plan seed, node id), so every rank of
                // the group derives the identical retry schedule without
                // exchanging a verdict. Exhausted schedules were rejected
                // by the collective pre-scan in `try_run_plan_with`.
                let failed = ctx.fault_plan().map_or(0u32, |fp| {
                    let mut a = 0;
                    while fp.atom_fails(node_id, a) {
                        a += 1;
                    }
                    a
                });
                debug_assert!(
                    failed <= self.config.retry.max_retries,
                    "doomed atoms must be rejected before execution"
                );
                let members: Vec<usize> = (0..ctx.nprocs()).collect();
                let mut input = input;
                let mut phases = Vec::new();
                for attempt in 0..=failed {
                    let last = attempt == failed;
                    // The edge value is the checkpoint: the root re-feeds
                    // a clone into every replay and surrenders the
                    // original only to the final attempt.
                    let checkpoint = if last { input.take() } else { input.clone() };
                    // Attempt 0 keeps the historical scope salt so
                    // fault-free runs stay bit-identical; replays re-salt
                    // to isolate their traffic from the lost attempt's.
                    let scope_salt = if attempt == 0 {
                        mix(salt, node_id)
                    } else {
                        mix(mix(salt, node_id), u64::from(attempt))
                    };
                    let stats = &mut self.stats;
                    let traced = self.traced;
                    let (out, ph) = ctx.scoped(&members, scope_salt, |ctx| {
                        let root = ctx.rank() == 0;
                        let local = (root && traced).then(PhaseTrace::new);
                        let mut phases = Vec::new();
                        if local.is_some() && ctx.nprocs() > 1 {
                            phases.push(Phase::new(
                                PhaseKind::Communication,
                                format!("replicate input of {}", job.name()),
                            ));
                        }
                        let v = ctx.broadcast(0, checkpoint);
                        let out = job.run(ctx, v, local.as_ref());
                        if let Some(local) = local {
                            phases.extend(local.phases());
                        }
                        if root && last {
                            stats.atoms += 1;
                        }
                        (root.then_some(out), phases)
                    });
                    if last {
                        phases.extend(ph);
                        return (out, phases);
                    }
                    // The attempt ran to completion but its result is
                    // lost (and its trace with it): charge the bounded
                    // exponential backoff and replay from the checkpoint.
                    drop(out);
                    ctx.charge_seconds(
                        self.config.retry.backoff_secs * f64::from(1u32 << attempt.min(20)),
                    );
                    if root {
                        self.stats.retries += 1;
                    }
                    if root && self.traced {
                        phases.push(Phase::new(
                            PhaseKind::Detect,
                            format!("atom {} lost attempt {attempt}", job.name()),
                        ));
                        phases.push(Phase::new(
                            PhaseKind::Recover,
                            format!("replaying {} from its input checkpoint", job.name()),
                        ));
                    }
                }
                unreachable!("the final attempt returns from the loop")
            }
            PlanNode::Seq(stages) => {
                if root {
                    self.stats.seq_stages += stages.len() as u64;
                }
                let mut v = input;
                let mut phases = Vec::new();
                let mut child = node_id + 1;
                for stage in stages {
                    let (nv, ph) = self.node(ctx, stage, v, child, salt, depth + 1);
                    child += stage.nodes();
                    v = nv;
                    phases.extend(ph);
                }
                (v, phases)
            }
            PlanNode::Par(branches) => {
                let refs: Vec<&Plan> = branches.iter().collect();
                let mut bases = Vec::with_capacity(refs.len());
                let mut base = node_id + 1;
                for b in &refs {
                    bases.push(base);
                    base += b.nodes();
                }
                self.section(ctx, &refs, &bases, input, node_id, salt, depth, false)
            }
            PlanNode::Replicate(copies, inner) => {
                let refs: Vec<&Plan> = (0..*copies).map(|_| inner.as_ref()).collect();
                let bases = vec![node_id + 1; *copies];
                self.section(ctx, &refs, &bases, input, node_id, salt, depth, true)
            }
        }
    }

    /// Execute a `Par`/`Replicate` section: `branches[j]` over part `j`
    /// of the tuple input, starting its subtree's node ids at `bases[j]`.
    #[allow(clippy::too_many_arguments)] // internal walker plumbing
    fn section(
        &mut self,
        ctx: &mut Ctx,
        branches: &[&Plan],
        bases: &[u64],
        input: Option<Value>,
        node_id: u64,
        salt: u64,
        depth: u64,
        is_replicate: bool,
    ) -> (Option<Value>, Vec<Phase>) {
        let k = branches.len();
        let p = ctx.nprocs();
        let root = ctx.rank() == 0;
        if root {
            self.stats.par_sections += 1;
            self.stats.branches += k as u64;
            if is_replicate {
                self.stats.replicated += k as u64;
            }
        }

        let mut parts: Option<Vec<Value>> = input.map(|v| split_parts(v, k));
        let parts_bytes: u64 = parts.iter().flatten().map(|v| v.size_bytes() as u64).sum();

        let parallel = self.config.par == ParMode::Allocate && k > 1 && p >= k;
        let mut phases = Vec::new();
        let mut outs: Option<Vec<Value>> = if root { Some(Vec::new()) } else { None };

        if !parallel {
            // Serialized: every branch runs on the whole group, in order.
            for (j, branch) in branches.iter().enumerate() {
                let part = parts
                    .as_mut()
                    .map(|ps| std::mem::replace(&mut ps[j], Value::Unit));
                let (ov, ph) = self.node(
                    ctx,
                    branch,
                    part,
                    bases[j],
                    mix(salt, j as u64 + 1),
                    depth + 1,
                );
                if let Some(outs) = outs.as_mut() {
                    outs.push(ov.expect("the scope root holds every branch output"));
                }
                phases.extend(ph);
            }
        } else {
            // Price the branches and share the verdict, so every rank
            // computes the identical allocation.
            let costs: Option<Vec<f64>> = parts.as_ref().map(|ps| {
                branches
                    .iter()
                    .zip(ps)
                    .map(|(b, part)| b.estimate_flops(part))
                    .collect()
            });
            if root && self.traced {
                phases.push(Phase::new(
                    PhaseKind::Communication,
                    "par fan-out: cost broadcast + branch inputs",
                ));
            }
            let costs: Vec<f64> = ctx.broadcast(0, costs);
            let sizes = allocate(&costs, p);
            let mut starts = vec![0usize; k];
            for j in 1..k {
                starts[j] = starts[j - 1] + sizes[j - 1];
            }
            let me = ctx.rank();
            let my_branch = (0..k).rfind(|&j| starts[j] <= me).expect("rank in range");

            // Branch inputs travel root-to-root in the parent scope.
            if root {
                let mut ps = parts.take().expect("root holds the input");
                for j in (1..k).rev() {
                    let part = BranchInput {
                        value: ps.pop().expect("one part per branch"),
                        traced: self.traced,
                    };
                    ctx.send(starts[j], compose_tag(ComposeTag::Input, node_id), part);
                }
                parts = Some(ps); // now just branch 0's part
            }
            let my_input: Option<Value> = if me == starts[my_branch] {
                if my_branch == 0 {
                    Some(parts.take().expect("root").pop().expect("branch 0 part"))
                } else {
                    let part: BranchInput = ctx.recv(0, compose_tag(ComposeTag::Input, node_id));
                    self.traced = part.traced;
                    Some(part.value)
                }
            } else {
                None
            };

            // Concurrent descent inside disjoint scopes.
            let members: Vec<usize> =
                (starts[my_branch]..starts[my_branch] + sizes[my_branch]).collect();
            let branch = branches[my_branch];
            let base = bases[my_branch];
            let walker = &mut *self;
            let (ov, ph) = ctx.scoped(&members, mix(mix(salt, node_id), my_branch as u64), |ctx| {
                walker.node(
                    ctx,
                    branch,
                    my_input,
                    base,
                    mix(salt, my_branch as u64 + 1),
                    depth + 1,
                )
            });

            // Branch outputs (with trace slices, if any) gather back to
            // the root.
            if me == starts[my_branch] && my_branch != 0 {
                ctx.send(
                    0,
                    compose_tag(ComposeTag::Output, node_id),
                    Handoff {
                        value: ov.expect("a branch root holds its output"),
                        trace: ph,
                    },
                );
            } else if root {
                let outs_vec = outs.as_mut().expect("root collects");
                outs_vec.push(ov.expect("branch 0's root is the section root"));
                phases.extend(ph);
                for &start in starts.iter().skip(1) {
                    let h: Handoff = ctx.recv(start, compose_tag(ComposeTag::Output, node_id));
                    outs_vec.push(h.value);
                    phases.extend(h.trace);
                }
                if self.traced {
                    phases.push(Phase::new(
                        PhaseKind::Communication,
                        "par gather: branch outputs",
                    ));
                }
            }
        }

        if root {
            let out_bytes: u64 = outs
                .as_ref()
                .expect("root collects")
                .iter()
                .map(|v| v.size_bytes() as u64)
                .sum();
            self.stats.handoffs += 2 * k as u64;
            self.stats.handoff_bytes += parts_bytes + out_bytes;
        }
        (outs.map(Value::Tuple), phases)
    }
}

/// Find the first atom (in plan preorder, the executor's node-id order)
/// whose leading-failure schedule outlasts the retry budget. Pure in the
/// fault plan, so every rank of every group agrees on the verdict.
fn doomed_atom(plan: &Plan, fp: &FaultPlan, retry: RetryPolicy, node_id: u64) -> Option<PlanError> {
    match &plan.node {
        PlanNode::Atom(job) => {
            let mut a = 0u32;
            while fp.atom_fails(node_id, a) {
                a += 1;
                if a > retry.max_retries {
                    return Some(PlanError::AtomExhausted {
                        node: node_id,
                        atom: job.name().to_string(),
                        attempts: a,
                    });
                }
            }
            None
        }
        PlanNode::Seq(xs) | PlanNode::Par(xs) => {
            let mut child = node_id + 1;
            for x in xs {
                if let Some(e) = doomed_atom(x, fp, retry, child) {
                    return Some(e);
                }
                child += x.nodes();
            }
            None
        }
        // Replicate copies share their body's node ids (and thus a
        // failure schedule), so one scan covers every copy.
        PlanNode::Replicate(_, inner) => doomed_atom(inner, fp, retry, node_id + 1),
    }
}

/// Execute `plan` collectively on the current group: `input` feeds the
/// first stage (only rank 0's copy is used), and every rank returns the
/// identical final output and [`ComposeStats`].
///
/// Must be called by every rank of the group, like the archetype
/// drivers; composes with [`Ctx::scoped`], so a plan can itself appear
/// inside a larger scoped computation.
pub fn run_plan(ctx: &mut Ctx, plan: &Plan, input: Value) -> (Value, ComposeStats) {
    run_plan_with(ctx, plan, input, ComposeConfig::default(), None)
}

/// [`run_plan`] that surfaces retry exhaustion as a typed
/// [`PlanError`] instead of panicking. Without a fault plan in the
/// context it cannot fail.
pub fn try_run_plan(ctx: &mut Ctx, plan: &Plan, input: Value) -> PlanResult {
    try_run_plan_with(ctx, plan, input, ComposeConfig::default(), None)
}

/// What a fallible plan run returns on every rank.
pub type PlanResult = Result<(Value, ComposeStats), PlanError>;

/// [`run_plan_with`], fallible. The doom verdict is a pure function of
/// the plan structure and the group's [`FaultPlan`], so it is computed
/// *before* any plan traffic: either every rank returns the identical
/// `Err` immediately (nothing sent, nothing leaked), or the plan runs —
/// replaying lost atom attempts within [`RetryPolicy`]'s budget — and
/// every rank returns the identical `Ok`.
///
/// `trace` is the one switch for phase recording, and like `input` only
/// rank 0's copy is used: the verdict travels with each branch input, so
/// passing it on rank 0 alone or on every rank yields the same complete
/// composite trace. With `None` there — every [`crate::PlanService`]
/// run, [`run_plan`], [`try_run_plan`] — atoms run untraced and no phase
/// or label is built anywhere; either way the run's results, statistics,
/// traffic and virtual clocks are the same.
pub fn try_run_plan_with(
    ctx: &mut Ctx,
    plan: &Plan,
    input: Value,
    config: ComposeConfig,
    trace: Option<&PhaseTrace>,
) -> PlanResult {
    if let Some(err) = ctx
        .fault_plan()
        .and_then(|fp| doomed_atom(plan, fp, config.retry, 0))
    {
        return Err(err);
    }
    let root = ctx.rank() == 0;
    let mut walker = Walker {
        config,
        stats: ComposeStats::default(),
        traced: trace.is_some(),
    };
    let (out, phases) = walker.node(ctx, plan, root.then_some(input), 0, 0, 0);
    let out = ctx.broadcast(0, out);
    let stats = ctx.all_reduce(walker.stats, ComposeStats::combine);
    if root {
        if let Some(t) = trace {
            for ph in phases {
                t.record(ph.kind, ph.label);
            }
        }
    }
    Ok((out, stats))
}

/// [`run_plan`] with phase tracing: rank 0 records the canonical
/// composite trace — every atom's phase sequence in plan order, with the
/// executor's own `Communication` phases for input replication, `Par`
/// fan-out, and output gather — which [`Plan::grammar`] accepts by
/// construction. Only rank 0's `trace` is read (other ranks may pass the
/// same one or `None`); recording changes nothing else about the run.
pub fn run_plan_traced(
    ctx: &mut Ctx,
    plan: &Plan,
    input: Value,
    trace: Option<&PhaseTrace>,
) -> (Value, ComposeStats) {
    run_plan_with(ctx, plan, input, ComposeConfig::default(), trace)
}

/// [`run_plan_traced`] with explicit scheduling configuration.
///
/// # Panics
/// Panics (identically on every rank, before any communication) if the
/// group's fault plan dooms an atom beyond the retry budget; use
/// [`try_run_plan_with`] to get the typed [`PlanError`] instead.
pub fn run_plan_with(
    ctx: &mut Ctx,
    plan: &Plan,
    input: Value,
    config: ComposeConfig,
    trace: Option<&PhaseTrace>,
) -> (Value, ComposeStats) {
    match try_run_plan_with(ctx, plan, input, config, trace) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use archetype_core::{ArchetypeInfo, PhaseKind, PhaseTrace};
    use archetype_mp::{run_spmd, run_spmd_ft, Ctx, FaultPlan, MachineModel};

    use super::*;
    use crate::job::ArchetypeJob;
    use crate::plan::Plan;
    use crate::value::Value;

    /// A deterministic atom that counts its executions — so tests can see
    /// replays — and its pricings, and emits a trace its declared grammar
    /// accepts.
    struct Scale {
        factor: f64,
        runs: Arc<AtomicU64>,
        priced: Arc<AtomicU64>,
    }

    impl ArchetypeJob for Scale {
        type In = Value;
        type Out = Value;

        fn name(&self) -> &'static str {
            "scale"
        }

        fn info(&self) -> &'static ArchetypeInfo {
            &archetype_core::archetype::ONE_DEEP_DC
        }

        fn estimate_flops(&self, _input: &Value) -> f64 {
            self.priced.fetch_add(1, Ordering::Relaxed);
            self.factor
        }

        fn run(&self, ctx: &mut Ctx, input: Value, trace: Option<&PhaseTrace>) -> Value {
            if ctx.rank() == 0 {
                self.runs.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(t) = trace {
                t.record(PhaseKind::Split, "scale split");
                t.record(PhaseKind::Solve, "scale solve");
                t.record(PhaseKind::Merge, "scale merge");
            }
            match input {
                Value::F64(x) => Value::F64(x * self.factor + 1.0),
                other => panic!("scale expects F64, got {}", other.shape()),
            }
        }
    }

    fn two_stage(runs: &Arc<AtomicU64>) -> Plan {
        Plan::seq(vec![
            Plan::atom(Scale {
                factor: 3.0,
                runs: runs.clone(),
                priced: Arc::default(),
            }),
            Plan::atom(Scale {
                factor: 5.0,
                runs: runs.clone(),
                priced: Arc::default(),
            }),
        ])
    }

    #[test]
    fn lost_attempts_replay_from_the_checkpoint() {
        let clean_runs = Arc::new(AtomicU64::new(0));
        let clean = run_spmd(3, MachineModel::ibm_sp(), {
            let runs = clean_runs.clone();
            move |ctx| run_plan(ctx, &two_stage(&runs), Value::F64(2.0))
        });
        let runs = Arc::new(AtomicU64::new(0));
        // Node ids: 0 = the Seq, 1 and 2 = the atoms. Lose the first
        // atom's first two attempts.
        let plan = FaultPlan::new(9).fail_atom(1, 2);
        let faulty = run_spmd_ft(3, MachineModel::ibm_sp(), plan, {
            let runs = runs.clone();
            move |ctx| run_plan(ctx, &two_stage(&runs), Value::F64(2.0))
        });
        let (clean_value, clean_stats) = &clean.results[0];
        for r in &faulty.results {
            let (value, stats) = r.as_ref().expect("retries recover");
            assert_eq!(value, clean_value);
            assert_eq!(stats.retries, 2);
            assert_eq!(stats.atoms, clean_stats.atoms);
        }
        assert_eq!(faulty.leaked_messages, 0);
        // The lost attempts really executed: 2 replays + 2 final runs.
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        assert_eq!(clean_runs.load(Ordering::Relaxed), 2);
        assert!(
            faulty.elapsed_virtual > clean.elapsed_virtual,
            "replays and backoff must cost virtual time"
        );
    }

    #[test]
    fn retry_exhaustion_is_a_typed_collective_error() {
        let runs = Arc::new(AtomicU64::new(0));
        // Default budget is 3 retries; 5 scheduled losses doom node 2.
        let plan = FaultPlan::new(9).fail_atom(2, 5);
        let out = run_spmd_ft(3, MachineModel::ibm_sp(), plan, {
            let runs = runs.clone();
            move |ctx| try_run_plan(ctx, &two_stage(&runs), Value::F64(2.0))
        });
        for r in &out.results {
            let err = r
                .as_ref()
                .expect("no rank panics")
                .as_ref()
                .expect_err("doomed plan");
            assert_eq!(
                *err,
                PlanError::AtomExhausted {
                    node: 2,
                    atom: "scale".into(),
                    attempts: 4,
                }
            );
        }
        assert_eq!(out.leaked_messages, 0);
        // The doom verdict is pre-communication: nothing ran at all.
        assert_eq!(runs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn run_plan_panics_on_exhaustion_with_the_typed_message() {
        let runs = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan::new(9).fail_atom(1, 9);
        let out = run_spmd_ft(2, MachineModel::ibm_sp(), plan, {
            let runs = runs.clone();
            move |ctx| run_plan(ctx, &two_stage(&runs), Value::F64(2.0))
        });
        for r in &out.results {
            let failure = r.as_ref().expect_err("run_plan panics when doomed");
            assert!(failure.message.contains("exhausting its retry budget"));
        }
    }

    #[test]
    fn retried_traces_conform_to_the_derived_grammar() {
        let runs = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan::new(9).fail_atom(1, 1).fail_atom(2, 3);
        let trace = PhaseTrace::new();
        let shape = two_stage(&runs);
        let grammar = shape.grammar();
        run_spmd_ft(3, MachineModel::ibm_sp(), plan, move |ctx| {
            let t = (ctx.rank() == 0).then_some(&trace);
            let (_, stats) = run_plan_traced(ctx, &shape, Value::F64(2.0), t);
            if let Some(t) = t {
                let kinds = t.kinds();
                assert!(
                    kinds.contains(&PhaseKind::Detect) && kinds.contains(&PhaseKind::Recover),
                    "retries must surface in the trace: {kinds:?}"
                );
                assert!(
                    grammar.matches(&kinds),
                    "{kinds:?} rejected by the derived grammar"
                );
            }
            stats.retries
        });
    }

    #[test]
    fn an_inert_fault_plan_is_bit_identical_to_no_fault_plan() {
        let runs = Arc::new(AtomicU64::new(0));
        let clean = run_spmd(3, MachineModel::ibm_sp(), {
            let runs = runs.clone();
            move |ctx| run_plan(ctx, &two_stage(&runs), Value::F64(2.0))
        });
        let inert = run_spmd_ft(3, MachineModel::ibm_sp(), FaultPlan::new(9), {
            let runs = runs.clone();
            move |ctx| run_plan(ctx, &two_stage(&runs), Value::F64(2.0))
        });
        let (clean_value, clean_stats) = &clean.results[0];
        for r in &inert.results {
            let (value, stats) = r.as_ref().expect("inert plan");
            assert_eq!(value, clean_value);
            assert_eq!(stats, clean_stats);
        }
        assert_eq!(
            inert.elapsed_virtual.to_bits(),
            clean.elapsed_virtual.to_bits(),
            "idle fault hooks must not perturb the virtual clock"
        );
    }

    #[test]
    fn a_shared_par_plan_prices_each_branch_once() {
        let priced = Arc::new(AtomicU64::new(0));
        let build = || {
            let scale = |factor: f64| {
                Plan::atom(Scale {
                    factor,
                    runs: Arc::default(),
                    priced: priced.clone(),
                })
            };
            scale(3.0).alongside(scale(5.0))
        };
        // Runs a clone, as a plan pool hands them out: same atoms.
        let run = |plan: &Plan, x: f64| {
            let plan = plan.clone();
            let before = priced.load(Ordering::Relaxed);
            let out = run_spmd(3, MachineModel::ibm_sp(), move |ctx| {
                let input = Value::Tuple(vec![Value::F64(x), Value::F64(x)]);
                run_plan(ctx, &plan, input)
            });
            (out, priced.load(Ordering::Relaxed) - before)
        };
        // A debug build re-prices every memo hit to police the
        // fingerprint contract; only an optimized build skips the call.
        let on_hit = if cfg!(debug_assertions) { 2 } else { 0 };

        let pooled = build();
        let (first, cold) = run(&pooled, 2.0);
        let (again, warm) = run(&pooled, 2.0);
        let (_, reshaped) = run(&pooled, 4.0);
        let (fresh, rebuilt) = run(&build(), 2.0);
        assert_eq!(cold, 2, "one pricing per branch");
        assert_eq!(warm, on_hit, "a shared atom is priced once per input shape");
        assert_eq!(reshaped, 2, "a new input shape re-prices");
        assert_eq!(rebuilt, 2, "new atoms carry no memo");

        // Remembered and recomputed prices schedule identically.
        for other in [&again, &fresh] {
            assert_eq!(other.results, first.results);
            assert_eq!(
                other.elapsed_virtual.to_bits(),
                first.elapsed_virtual.to_bits()
            );
            assert_eq!(other.rank_times, first.rank_times);
        }
    }
}
