//! The plan algebra: how archetype instances compose.
//!
//! A [`Plan`] is a tree over four constructors —
//!
//! - [`Plan::atom`]: one archetype run ([`crate::ArchetypeJob`]);
//! - [`Plan::seq`]: stages executed one after another, each stage's
//!   output feeding the next stage's input;
//! - [`Plan::par`]: branches executed **concurrently on disjoint process
//!   subgroups**, rank shares chosen by the model-driven allocator
//!   ([`crate::allocate`]); the input must be a
//!   [`Value::Tuple`](crate::Value) with one element per branch (or
//!   `Unit`, fanned out as `Unit` to every branch), and the output is the
//!   tuple of branch outputs in branch order;
//! - [`Plan::replicate`]: `n` concurrent copies of the same sub-plan over
//!   the `n` elements of a tuple input — `par` with a shared body.
//!
//! Because `Seq` chains `Par` outputs into later stages' inputs, any DAG
//! of stages with fan-out/fan-in expressible as tuples can be written as
//! a plan. The derived composite grammar ([`Plan::grammar`]) is built
//! from the members' archetype grammars by sequence composition, in
//! canonical branch order.

use std::sync::Arc;

use archetype_core::{PatternExpr, PhaseKind};

use crate::job::{ArchetypeJob, DynJob, JobAdapter};
use crate::value::Value;

/// A composed computation over archetype instances. See the module docs
/// for the algebra; construction is by [`Plan::atom`] and the
/// combinators, execution by [`crate::run_plan`].
#[derive(Clone)]
pub struct Plan {
    pub(crate) node: PlanNode,
}

#[derive(Clone)]
pub(crate) enum PlanNode {
    Atom(Arc<dyn DynJob>),
    Seq(Vec<Plan>),
    Par(Vec<Plan>),
    Replicate(usize, Box<Plan>),
}

impl Plan {
    /// A single archetype run as a plan leaf.
    pub fn atom<J: ArchetypeJob + 'static>(job: J) -> Plan {
        Plan {
            node: PlanNode::Atom(Arc::new(JobAdapter::new(job))),
        }
    }

    /// Sequential composition: each stage's output is the next stage's
    /// input.
    ///
    /// # Panics
    /// Panics if `stages` is empty.
    pub fn seq(stages: Vec<Plan>) -> Plan {
        assert!(!stages.is_empty(), "a Seq needs at least one stage");
        Plan {
            node: PlanNode::Seq(stages),
        }
    }

    /// Task-parallel composition: branches run concurrently on disjoint
    /// subgroups sized by estimated cost.
    ///
    /// # Panics
    /// Panics if `branches` is empty.
    pub fn par(branches: Vec<Plan>) -> Plan {
        assert!(!branches.is_empty(), "a Par needs at least one branch");
        Plan {
            node: PlanNode::Par(branches),
        }
    }

    /// `copies` concurrent instances of the same sub-plan, one per
    /// element of a tuple input.
    ///
    /// # Panics
    /// Panics if `copies == 0`.
    pub fn replicate(copies: usize, inner: Plan) -> Plan {
        assert!(copies >= 1, "Replicate needs at least one copy");
        Plan {
            node: PlanNode::Replicate(copies, Box::new(inner)),
        }
    }

    /// Sugar: `self` then `next` (flattens nested `then` chains).
    pub fn then(self, next: Plan) -> Plan {
        match self.node {
            PlanNode::Seq(mut stages) => {
                stages.push(next);
                Plan::seq(stages)
            }
            node => Plan::seq(vec![Plan { node }, next]),
        }
    }

    /// Sugar: `self` running concurrently alongside `other`.
    pub fn alongside(self, other: Plan) -> Plan {
        Plan::par(vec![self, other])
    }

    /// Number of plan nodes in this subtree (each `Replicate` body
    /// counted once) — the preorder-id stride the executor uses to keep
    /// node identities consistent across ranks that descend different
    /// branches.
    pub fn nodes(&self) -> u64 {
        match &self.node {
            PlanNode::Atom(_) => 1,
            PlanNode::Seq(xs) | PlanNode::Par(xs) => 1 + xs.iter().map(Plan::nodes).sum::<u64>(),
            PlanNode::Replicate(_, inner) => 1 + inner.nodes(),
        }
    }

    /// Structural identity of the plan: an FNV-1a fold, in preorder, of
    /// each node's constructor tag, child count, and — for atoms — the
    /// job's name and [`ArchetypeJob::fingerprint`]. Two plans with equal
    /// hashes have the same tree shape over interchangeable atoms, so the
    /// plan service memoizes derived grammars and allocations under this
    /// key across identical submissions.
    pub fn structure_hash(&self) -> u64 {
        fn fnv(h: u64, x: u64) -> u64 {
            let mut h = h;
            for shift in [0u32, 16, 32, 48] {
                h ^= (x >> shift) & 0xffff;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        fn go(p: &Plan, mut h: u64) -> u64 {
            match &p.node {
                PlanNode::Atom(job) => {
                    h = fnv(h, 1);
                    for b in job.name().bytes() {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x100_0000_01b3);
                    }
                    fnv(h, job.fingerprint())
                }
                PlanNode::Seq(xs) => {
                    h = fnv(fnv(h, 2), xs.len() as u64);
                    xs.iter().fold(h, |h, x| go(x, h))
                }
                PlanNode::Par(xs) => {
                    h = fnv(fnv(h, 3), xs.len() as u64);
                    xs.iter().fold(h, |h, x| go(x, h))
                }
                PlanNode::Replicate(n, inner) => go(inner, fnv(fnv(h, 4), *n as u64)),
            }
        }
        go(self, 0xcbf2_9ce4_8422_2325)
    }

    /// Number of atom *executions* a run of this plan performs
    /// (`Replicate` bodies counted once per copy).
    pub fn atoms(&self) -> u64 {
        match &self.node {
            PlanNode::Atom(_) => 1,
            PlanNode::Seq(xs) | PlanNode::Par(xs) => xs.iter().map(Plan::atoms).sum(),
            PlanNode::Replicate(n, inner) => *n as u64 * inner.atoms(),
        }
    }

    /// Machine-independent estimate of the plan's total work in
    /// flop-equivalents, given its input. `Par`/`Replicate` inputs are
    /// split per branch when the value is a matching tuple; stages of a
    /// `Seq` after the first are priced against the `Seq`'s own input
    /// (intermediate shapes are unknown without running) — an
    /// approximation that is exact for self-contained stages and
    /// adequate for proportional rank sharing.
    pub fn estimate_flops(&self, input: &Value) -> f64 {
        self.price(input, &|job, input| job.estimate_flops(input))
    }

    /// [`Plan::estimate_flops`], tolerant of shape mismatches: atoms
    /// whose typed input cannot be recovered from the value at hand
    /// (e.g. a later `Seq` stage whose real input only exists at run
    /// time) contribute `0` instead of panicking. The plan service
    /// prices admission with this — an under-estimate only skews the
    /// scheduler's rank shares, never results.
    pub fn estimate_flops_lenient(&self, input: &Value) -> f64 {
        self.price(input, &|job, input| {
            job.try_estimate_flops(input).unwrap_or(0.0)
        })
    }

    /// The walk both estimates share; `atom` prices one leaf.
    fn price<F: Fn(&dyn DynJob, &Value) -> f64>(&self, input: &Value, atom: &F) -> f64 {
        match &self.node {
            PlanNode::Atom(job) => atom(job.as_ref(), input),
            PlanNode::Seq(xs) => xs.iter().map(|s| s.price(input, atom)).sum(),
            PlanNode::Par(xs) => match input {
                Value::Tuple(parts) if parts.len() == xs.len() => xs
                    .iter()
                    .zip(parts)
                    .map(|(b, part)| b.price(part, atom))
                    .sum(),
                other => xs.iter().map(|b| b.price(other, atom)).sum(),
            },
            PlanNode::Replicate(n, inner) => match input {
                Value::Tuple(parts) if parts.len() == *n => {
                    parts.iter().map(|part| inner.price(part, atom)).sum()
                }
                other => *n as f64 * inner.price(other, atom),
            },
        }
    }

    /// The derived composite grammar of the **canonical** composite
    /// trace: the phase track of rank 0 of a traced run under
    /// [`crate::ParMode::Serialize`], where rank 0 roots every atom.
    /// Members' grammars appear in plan order — `Seq` stages
    /// concatenate, `Par`/`Replicate` branch traces are flattened in
    /// branch order between optional [`PhaseKind::Communication`]
    /// brackets (the cost broadcast / fan-out and the output gather),
    /// and every atom attempt is its grammar after an optional
    /// `Communication` (its input replication), with a
    /// `Detect`/`Recover` pair after each attempt a fault plan loses.
    pub fn grammar(&self) -> PatternExpr {
        let comm = || PatternExpr::opt(PatternExpr::Kind(PhaseKind::Communication));
        let branches = |members: Vec<PatternExpr>| {
            PatternExpr::seq(vec![comm(), PatternExpr::seq(members), comm()])
        };
        match &self.node {
            // A lost attempt ran to completion, so its phases stay in
            // the trace, followed by the Detect/Recover pair of its loss:
            // `(comm? atom Detect Recover)* comm? atom`.
            PlanNode::Atom(job) => {
                let attempt = || PatternExpr::seq(vec![comm(), job.info().grammar()]);
                let lost = PatternExpr::seq(vec![
                    attempt(),
                    PatternExpr::Kind(PhaseKind::Detect),
                    PatternExpr::Kind(PhaseKind::Recover),
                ]);
                PatternExpr::seq(vec![PatternExpr::Star(Box::new(lost)), attempt()])
            }
            PlanNode::Seq(xs) => PatternExpr::seq(xs.iter().map(Plan::grammar).collect()),
            PlanNode::Par(xs) => branches(xs.iter().map(Plan::grammar).collect()),
            PlanNode::Replicate(n, inner) => branches((0..*n).map(|_| inner.grammar()).collect()),
        }
    }

    /// Indented description of the plan tree with per-atom archetypes.
    pub fn describe(&self) -> String {
        fn go(p: &Plan, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match &p.node {
                PlanNode::Atom(job) => {
                    out.push_str(&format!("{pad}atom {} [{}]\n", job.name(), job.info().name));
                }
                PlanNode::Seq(xs) => {
                    out.push_str(&format!("{pad}seq\n"));
                    for x in xs {
                        go(x, indent + 1, out);
                    }
                }
                PlanNode::Par(xs) => {
                    out.push_str(&format!("{pad}par\n"));
                    for x in xs {
                        go(x, indent + 1, out);
                    }
                }
                PlanNode::Replicate(n, inner) => {
                    out.push_str(&format!("{pad}replicate x{n}\n"));
                    go(inner, indent + 1, out);
                }
            }
        }
        let mut s = String::new();
        go(self, 0, &mut s);
        s
    }
}
