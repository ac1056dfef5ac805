//! Archetype and phase metadata.
//!
//! The paper treats an archetype as a nameable design artifact: a
//! computational pattern plus a parallelization strategy, with a phase
//! structure (split/solve/merge; grid-op/row-op/reduction/…) from which the
//! dataflow and communication pattern is *derived*. These types give that
//! artifact a concrete representation used by documentation, tracing, and
//! tests that assert an application follows its archetype's pattern.

/// The kinds of phases/operations that appear in the two archetypes of the
/// paper (and compose into their dataflow patterns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Recursive D&C: divide the problem and descend into disjoint
    /// process subgroups (one level of the recursion tree).
    Recurse,
    /// One-deep D&C: compute split parameters and partition the input.
    Split,
    /// One-deep D&C: solve each subproblem independently (sequentially).
    Solve,
    /// One-deep D&C: repartition subsolutions and merge locally.
    Merge,
    /// Mesh-spectral: the same operation applied at every grid point
    /// (optionally reading neighbours — which requires ghost exchange).
    GridOp,
    /// Mesh-spectral: independent operation on every row.
    RowOp,
    /// Mesh-spectral: independent operation on every column.
    ColOp,
    /// Mesh-spectral: associative combination of all grid values.
    Reduction,
    /// Mesh-spectral: file input/output.
    Io,
    /// Communication inserted by the archetype: redistribution,
    /// boundary exchange, broadcast of globals.
    Communication,
    /// Task-farm: generate the initial task pool and deal it to workers.
    Seed,
    /// Task-farm: workers drain batches of tasks from their local queues
    /// (possibly spawning new tasks).
    Work,
    /// Task-farm: load balancing — a steal-request/steal-reply exchange
    /// that moves surplus tasks between ranks.
    Steal,
    /// Task-farm: distributed termination detection (the wave that proves
    /// global quiescence) and the final reduction.
    Terminate,
    /// Pipeline: produce the input stream, one item at a time.
    Ingest,
    /// Pipeline: one stage (or fused segment of stages) of the transform
    /// chain, applied to every stream item in sequence order.
    Transform,
    /// Pipeline: end-of-stream propagation — the EOS markers that flush
    /// every stage and reclaim outstanding flow-control credits.
    Drain,
    /// Pipeline: the in-order fold of final items into the output.
    Emit,
    /// Fault tolerance: a rank failure is observed (channel disconnection
    /// or virtual-time heartbeat timeout) and charged its deterministic
    /// detection cost.
    Detect,
    /// Fault tolerance: the failed rank's outstanding work is re-executed
    /// or re-routed (farm batch reassignment, pipeline replica failover,
    /// composition atom replay).
    Recover,
}

impl PhaseKind {
    /// Every phase kind, in declaration order.
    const ALL: [PhaseKind; 20] = [
        PhaseKind::Recurse,
        PhaseKind::Split,
        PhaseKind::Solve,
        PhaseKind::Merge,
        PhaseKind::GridOp,
        PhaseKind::RowOp,
        PhaseKind::ColOp,
        PhaseKind::Reduction,
        PhaseKind::Io,
        PhaseKind::Communication,
        PhaseKind::Seed,
        PhaseKind::Work,
        PhaseKind::Steal,
        PhaseKind::Terminate,
        PhaseKind::Ingest,
        PhaseKind::Transform,
        PhaseKind::Drain,
        PhaseKind::Emit,
        PhaseKind::Detect,
        PhaseKind::Recover,
    ];

    /// Stable lowercase name of the phase kind — the `kind` string
    /// stamped into substrate trace events (`Ctx::trace_phase`) and
    /// printed by `Display`.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Recurse => "recurse",
            PhaseKind::Split => "split",
            PhaseKind::Solve => "solve",
            PhaseKind::Merge => "merge",
            PhaseKind::GridOp => "grid-op",
            PhaseKind::RowOp => "row-op",
            PhaseKind::ColOp => "col-op",
            PhaseKind::Reduction => "reduction",
            PhaseKind::Io => "io",
            PhaseKind::Communication => "communication",
            PhaseKind::Seed => "seed",
            PhaseKind::Work => "work",
            PhaseKind::Steal => "steal",
            PhaseKind::Terminate => "terminate",
            PhaseKind::Ingest => "ingest",
            PhaseKind::Transform => "transform",
            PhaseKind::Drain => "drain",
            PhaseKind::Emit => "emit",
            PhaseKind::Detect => "detect",
            PhaseKind::Recover => "recover",
        }
    }

    /// The kind whose [`PhaseKind::name`] is `name`, if any: how a
    /// phase event read back from a run's trace becomes a grammar token.
    pub fn from_name(name: &str) -> Option<PhaseKind> {
        PhaseKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A grammar over [`PhaseKind`] sequences: the machine-checkable shape of
/// an archetype's phase structure.
///
/// Every [`ArchetypeInfo`] declares one. Skeletons record each phase
/// they enter with `Ctx::trace_phase`, and `tests/conformance.rs` asserts
/// that the phase track a traced run returns (`RankTrace::phases`) is
/// *accepted* by its archetype's grammar — turning the metadata into an
/// enforced contract rather than documentation. Patterns are ordinary regular operators
/// plus [`PhasePattern::Tree`], the Dyck-style balanced pattern that a
/// preorder recursion trace (recursive divide-and-conquer) requires and
/// regular operators cannot express.
///
/// ```
/// use archetype_core::archetype::{PhaseKind, PhasePattern};
/// use PhaseKind::{Merge, Solve, Split};
///
/// const G: PhasePattern = PhasePattern::Seq(&[
///     PhasePattern::Kind(Split),
///     PhasePattern::Plus(&PhasePattern::Kind(Solve)),
///     PhasePattern::Kind(Merge),
/// ]);
/// assert!(G.matches(&[Split, Solve, Solve, Merge]));
/// assert!(!G.matches(&[Split, Merge]));
/// ```
#[derive(Clone, Copy, Debug)]
pub enum PhasePattern {
    /// Exactly one phase of this kind.
    Kind(PhaseKind),
    /// Exactly one phase, of any of these kinds.
    AnyOf(&'static [PhaseKind]),
    /// Each sub-pattern in order.
    Seq(&'static [PhasePattern]),
    /// Zero or more repetitions.
    Star(&'static PhasePattern),
    /// One or more repetitions.
    Plus(&'static PhasePattern),
    /// Zero or one occurrence.
    Opt(&'static PhasePattern),
    /// A preorder recursion-tree trace: `T := leaf | open T+ close`.
    Tree {
        /// Phase recorded on entering an internal node.
        open: PhaseKind,
        /// Phase recorded at a leaf (the sequential cutoff).
        leaf: PhaseKind,
        /// Phase recorded when an internal node combines its children.
        close: PhaseKind,
    },
}

impl PhasePattern {
    /// True if `kinds` as a whole is a sentence of this grammar
    /// (matched by [`PatternExpr::matches`] on its owned form).
    pub fn matches(&self, kinds: &[PhaseKind]) -> bool {
        PatternExpr::from_static(self).matches(kinds)
    }
}

/// An **owned, runtime-composable** phase grammar: the dynamic
/// counterpart of [`PhasePattern`], built when the shape of a computation
/// is only known at run time — most importantly by the composition
/// subsystem (`crates/compose`), which derives the grammar of a whole
/// *plan* of archetype instances from its members' static grammars.
///
/// Two composition operators go beyond [`PhasePattern`]'s regular
/// repertoire:
///
/// - [`PatternExpr::seq`] — members execute one after another, so their
///   traces concatenate (a `Seq` stage chain, or `Par` branches flattened
///   in branch order, which is how the composition executor canonicalizes
///   concurrent branches into one deterministic trace);
/// - [`PatternExpr::interleave`] — members execute concurrently and their
///   traces may shuffle arbitrarily while each preserves its own order
///   (checking a trace merged by timestamp rather than by branch).
///   Matching tries every order-preserving assignment of trace elements
///   to members (exponential in the worst case — intended for the short
///   traces conformance tests check); branch-order concatenation is one
///   such assignment, so whatever `seq` accepts, `interleave` accepts too.
///
/// ```
/// use archetype_core::archetype::{PatternExpr, PhaseKind, ONE_DEEP_DC, TASK_FARM};
/// use PhaseKind::{Merge, Seed, Solve, Split, Terminate, Work};
///
/// // A farm followed by a one-deep D&C, as a derived composite grammar.
/// let g = PatternExpr::seq(vec![
///     PatternExpr::from_static(&TASK_FARM.grammar),
///     PatternExpr::from_static(&ONE_DEEP_DC.grammar),
/// ]);
/// assert!(g.matches(&[Seed, Work, Terminate, Split, Solve, Merge]));
/// assert!(!g.matches(&[Split, Solve, Merge, Seed, Work, Terminate]));
///
/// // Run concurrently instead: any shuffle of the two traces is legal.
/// let i = PatternExpr::interleave(vec![
///     PatternExpr::from_static(&TASK_FARM.grammar),
///     PatternExpr::from_static(&ONE_DEEP_DC.grammar),
/// ]);
/// assert!(i.matches(&[Seed, Split, Work, Solve, Terminate, Merge]));
/// ```
#[derive(Clone, Debug)]
pub enum PatternExpr {
    /// Exactly one phase of this kind.
    Kind(PhaseKind),
    /// Exactly one phase, of any of these kinds.
    AnyOf(Vec<PhaseKind>),
    /// Each sub-pattern in order (members' traces concatenate).
    Seq(Vec<PatternExpr>),
    /// Zero or more repetitions.
    Star(Box<PatternExpr>),
    /// One or more repetitions.
    Plus(Box<PatternExpr>),
    /// Zero or one occurrence.
    Opt(Box<PatternExpr>),
    /// A preorder recursion-tree trace: `T := leaf | open T+ close`.
    Tree {
        /// Phase recorded on entering an internal node.
        open: PhaseKind,
        /// Phase recorded at a leaf (the sequential cutoff).
        leaf: PhaseKind,
        /// Phase recorded when an internal node combines its children.
        close: PhaseKind,
    },
    /// Any order-preserving shuffle of the members' traces (concurrent
    /// composition). Matching is exponential in the worst case; use for
    /// the short traces that conformance checks examine.
    Interleave(Vec<PatternExpr>),
}

impl PatternExpr {
    /// Sequential composition: members' traces concatenate in order.
    pub fn seq(parts: Vec<PatternExpr>) -> PatternExpr {
        PatternExpr::Seq(parts)
    }

    /// Concurrent composition: members' traces shuffle, each preserving
    /// its own order.
    pub fn interleave(parts: Vec<PatternExpr>) -> PatternExpr {
        PatternExpr::Interleave(parts)
    }

    /// Zero-or-one occurrence of `inner`.
    pub fn opt(inner: PatternExpr) -> PatternExpr {
        PatternExpr::Opt(Box::new(inner))
    }

    /// Convert a static archetype grammar into an owned expression, so it
    /// can be composed with others at run time.
    pub fn from_static(p: &PhasePattern) -> PatternExpr {
        match p {
            PhasePattern::Kind(k) => PatternExpr::Kind(*k),
            PhasePattern::AnyOf(ks) => PatternExpr::AnyOf(ks.to_vec()),
            PhasePattern::Seq(parts) => {
                PatternExpr::Seq(parts.iter().map(PatternExpr::from_static).collect())
            }
            PhasePattern::Star(inner) => {
                PatternExpr::Star(Box::new(PatternExpr::from_static(inner)))
            }
            PhasePattern::Plus(inner) => {
                PatternExpr::Plus(Box::new(PatternExpr::from_static(inner)))
            }
            PhasePattern::Opt(inner) => PatternExpr::Opt(Box::new(PatternExpr::from_static(inner))),
            PhasePattern::Tree { open, leaf, close } => PatternExpr::Tree {
                open: *open,
                leaf: *leaf,
                close: *close,
            },
        }
    }

    /// True if `kinds` as a whole is a sentence of this grammar.
    pub fn matches(&self, kinds: &[PhaseKind]) -> bool {
        self.ends(kinds, 0).contains(&kinds.len())
    }

    /// All positions a match starting at `pos` can end at (deduplicated,
    /// ascending). Traces are short, so plain backtracking is plenty;
    /// `Interleave` adds the shuffle search.
    fn ends(&self, kinds: &[PhaseKind], pos: usize) -> Vec<usize> {
        let mut out = match self {
            PatternExpr::Kind(k) => {
                if kinds.get(pos) == Some(k) {
                    vec![pos + 1]
                } else {
                    vec![]
                }
            }
            PatternExpr::AnyOf(ks) => match kinds.get(pos) {
                Some(k) if ks.contains(k) => vec![pos + 1],
                _ => vec![],
            },
            PatternExpr::Seq(parts) => {
                let mut frontier = vec![pos];
                for part in parts {
                    let mut next = Vec::new();
                    for &p in &frontier {
                        next.extend(part.ends(kinds, p));
                    }
                    next.sort_unstable();
                    next.dedup();
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                frontier
            }
            PatternExpr::Star(inner) => {
                let mut reach = vec![pos];
                let mut frontier = vec![pos];
                while !frontier.is_empty() {
                    let mut next = Vec::new();
                    for &p in &frontier {
                        for e in inner.ends(kinds, p) {
                            if e > p && !reach.contains(&e) {
                                reach.push(e);
                                next.push(e);
                            }
                        }
                    }
                    frontier = next;
                }
                reach
            }
            PatternExpr::Plus(inner) => {
                let mut out = Vec::new();
                for first in inner.ends(kinds, pos) {
                    out.extend(PatternExpr::Star(inner.clone()).ends(kinds, first));
                }
                out
            }
            PatternExpr::Opt(inner) => {
                let mut out = vec![pos];
                out.extend(inner.ends(kinds, pos));
                out
            }
            PatternExpr::Tree { open, leaf, close } => {
                match Self::tree_end(kinds, pos, *open, *leaf, *close) {
                    Some(e) => vec![e],
                    None => vec![],
                }
            }
            PatternExpr::Interleave(parts) => {
                // An interleaving of k members matching kinds[pos..e]: try
                // every order-preserving assignment of elements to members
                // by peeling distinct *subsequences*. Implemented as: the
                // suffix kinds[pos..] is split; a full-prefix match is
                // found by checking, for each candidate end e, whether
                // kinds[pos..e] shuffles into the members.
                let mut out = Vec::new();
                for e in pos..=kinds.len() {
                    if Self::shuffles(parts, &kinds[pos..e]) {
                        out.push(e);
                    }
                }
                out
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Deterministic recursive-descent parse of one tree starting at
    /// `pos`; returns the position after it.
    fn tree_end(
        kinds: &[PhaseKind],
        pos: usize,
        open: PhaseKind,
        leaf: PhaseKind,
        close: PhaseKind,
    ) -> Option<usize> {
        match kinds.get(pos)? {
            k if *k == leaf => Some(pos + 1),
            k if *k == open => {
                let mut p = Self::tree_end(kinds, pos + 1, open, leaf, close)?;
                while let Some(next) = kinds.get(p) {
                    if *next == close {
                        return Some(p + 1);
                    }
                    p = Self::tree_end(kinds, p, open, leaf, close)?;
                }
                None
            }
            _ => None,
        }
    }

    /// True if `kinds` (whole) is an order-preserving shuffle of one
    /// sentence per member. Backtracking over per-member subsequences,
    /// pruned by **exact** prefix viability ([`PatternExpr::accepts_prefix`]):
    /// a token is only ever assigned to a member whose subsequence can
    /// still extend to a sentence, so canonical (branch-ordered) traces
    /// match in near-linear time even when sibling alphabets coincide.
    fn shuffles(parts: &[PatternExpr], kinds: &[PhaseKind]) -> bool {
        fn go(
            parts: &[PatternExpr],
            kinds: &[PhaseKind],
            pos: usize,
            taken: &mut Vec<Vec<PhaseKind>>,
        ) -> bool {
            if pos == kinds.len() {
                return parts.iter().zip(taken.iter()).all(|(p, t)| p.matches(t));
            }
            for m in 0..parts.len() {
                taken[m].push(kinds[pos]);
                if parts[m].accepts_prefix(&taken[m], 0) && go(parts, kinds, pos + 1, taken) {
                    return true;
                }
                taken[m].pop();
            }
            false
        }
        let mut taken = vec![Vec::new(); parts.len()];
        go(parts, kinds, 0, &mut taken)
    }

    /// Exact prefix viability: true iff some sentence of this grammar
    /// starts with `kinds[pos..]` (a complete sentence counts — the
    /// extension may be empty).
    fn accepts_prefix(&self, kinds: &[PhaseKind], pos: usize) -> bool {
        if pos >= kinds.len() {
            return true; // empty remainder: every pattern has a sentence
        }
        match self {
            PatternExpr::Kind(k) => kinds.len() - pos == 1 && kinds[pos] == *k,
            PatternExpr::AnyOf(ks) => kinds.len() - pos == 1 && ks.contains(&kinds[pos]),
            PatternExpr::Seq(parts) => {
                let mut frontier = vec![pos];
                for part in parts {
                    // The remainder may end inside `part`...
                    if frontier.iter().any(|&p| part.accepts_prefix(kinds, p)) {
                        return true;
                    }
                    // ...or `part` completes and a later part consumes on.
                    let mut next = Vec::new();
                    for &p in &frontier {
                        next.extend(part.ends(kinds, p));
                    }
                    next.sort_unstable();
                    next.dedup();
                    frontier = next;
                    if frontier.is_empty() {
                        return false;
                    }
                }
                frontier.contains(&kinds.len())
            }
            PatternExpr::Star(inner) | PatternExpr::Plus(inner) => {
                // One repetition may be cut off by the end of the
                // remainder; complete repetitions advance the position.
                let mut reach = vec![pos];
                let mut frontier = vec![pos];
                while !frontier.is_empty() {
                    if frontier.iter().any(|&p| inner.accepts_prefix(kinds, p)) {
                        return true;
                    }
                    let mut next = Vec::new();
                    for &p in &frontier {
                        for e in inner.ends(kinds, p) {
                            if e > p && !reach.contains(&e) {
                                reach.push(e);
                                next.push(e);
                            }
                        }
                    }
                    frontier = next;
                }
                reach.contains(&kinds.len())
            }
            PatternExpr::Opt(inner) => inner.accepts_prefix(kinds, pos),
            PatternExpr::Tree { open, leaf, close } => {
                // Incremental parse of a preorder tree trace: every open
                // node can still be completed, so any scan that neither
                // violates the grammar nor continues past a completed
                // root is a viable prefix.
                let mut child_counts: Vec<usize> = Vec::new();
                let mut root_done = false;
                for k in &kinds[pos..] {
                    if root_done {
                        return false;
                    }
                    if k == leaf {
                        match child_counts.last_mut() {
                            Some(c) => *c += 1,
                            None => root_done = true,
                        }
                    } else if k == open {
                        child_counts.push(0);
                    } else if k == close {
                        match child_counts.pop() {
                            Some(c) if c >= 1 => match child_counts.last_mut() {
                                Some(parent) => *parent += 1,
                                None => root_done = true,
                            },
                            _ => return false, // empty node or stray close
                        }
                    } else {
                        return false;
                    }
                }
                true
            }
            PatternExpr::Interleave(parts) => {
                // A viable interleave prefix is a shuffle of viable
                // member prefixes.
                fn go(
                    parts: &[PatternExpr],
                    kinds: &[PhaseKind],
                    pos: usize,
                    taken: &mut Vec<Vec<PhaseKind>>,
                ) -> bool {
                    if pos == kinds.len() {
                        return true; // all members hold viable prefixes
                    }
                    for m in 0..parts.len() {
                        taken[m].push(kinds[pos]);
                        if parts[m].accepts_prefix(&taken[m], 0) && go(parts, kinds, pos + 1, taken)
                        {
                            return true;
                        }
                        taken[m].pop();
                    }
                    false
                }
                let mut taken = vec![Vec::new(); parts.len()];
                go(parts, &kinds[pos..], 0, &mut taken)
            }
        }
    }
}

/// Static description of an archetype: its name, characteristic phase
/// vocabulary, and phase grammar. Used in documentation output, by
/// `describe()` helpers on the application types, and by the conformance
/// suite that grammar-checks emitted phase traces.
#[derive(Clone, Debug)]
pub struct ArchetypeInfo {
    /// Archetype name, e.g. `"one-deep divide-and-conquer"`.
    pub name: &'static str,
    /// The phase kinds this archetype composes.
    pub phases: &'static [PhaseKind],
    /// The communication operations its dataflow pattern requires.
    pub communication: &'static [&'static str],
    /// The grammar every emitted phase trace must satisfy.
    pub grammar: PhasePattern,
}

/// The one-deep divide-and-conquer archetype (paper §2).
pub const ONE_DEEP_DC: ArchetypeInfo = ArchetypeInfo {
    name: "one-deep divide-and-conquer",
    phases: &[PhaseKind::Split, PhaseKind::Solve, PhaseKind::Merge],
    communication: &[
        "all-to-all redistribution (split and merge phases)",
        "gather+broadcast or all-to-all before sequential parameter computation",
        "broadcast after parameter computation",
    ],
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Split),
        PhasePattern::Kind(PhaseKind::Solve),
        PhasePattern::Kind(PhaseKind::Merge),
    ]),
};

/// The mesh-spectral archetype (paper §3).
pub const MESH_SPECTRAL: ArchetypeInfo = ArchetypeInfo {
    name: "mesh-spectral",
    phases: &[
        PhaseKind::GridOp,
        PhaseKind::RowOp,
        PhaseKind::ColOp,
        PhaseKind::Reduction,
        PhaseKind::Io,
        PhaseKind::Communication,
    ],
    communication: &[
        "grid redistribution (rows <-> columns)",
        "boundary (ghost) exchange",
        "broadcast of global data",
        "reduction (recursive doubling / all-to-one / one-to-all)",
    ],
    // Distribute, then any number of archetype-inserted-communication /
    // grid-row-col op / reduction rounds, then collect.
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Io),
        PhasePattern::Star(&PhasePattern::Seq(&[
            PhasePattern::Opt(&PhasePattern::Kind(PhaseKind::Communication)),
            PhasePattern::AnyOf(&[PhaseKind::GridOp, PhaseKind::RowOp, PhaseKind::ColOp]),
            PhasePattern::Opt(&PhasePattern::Kind(PhaseKind::Reduction)),
        ])),
        PhasePattern::Kind(PhaseKind::Io),
    ]),
};

/// The general recursive divide-and-conquer archetype: divide into `k`
/// subproblems, recurse on disjoint process subgroups until a
/// performance-model-chosen cutoff, solve sequentially at the leaves, and
/// merge subsolutions up a combining tree. The one-deep archetype
/// ([`ONE_DEEP_DC`]) is its depth-one special case; the paper (§2.1.1)
/// presents the recursive form as the "traditional" structure whose
/// communication the archetype derives from the recursion tree.
pub const RECURSIVE_DC: ArchetypeInfo = ArchetypeInfo {
    name: "recursive divide-and-conquer",
    phases: &[PhaseKind::Recurse, PhaseKind::Solve, PhaseKind::Merge],
    communication: &[
        "group broadcast of the subproblem size before each cutoff decision",
        "group scatter of subproblems to subgroup roots (recursion descent)",
        "group gather of subsolutions to the group root (combining tree)",
        "nested Ctx::scoped subgroups whose traffic is matched only within each scope",
    ],
    // A preorder recursion-tree trace; a rank's root-path trace (one
    // subtree per level) is the k=1 special case.
    grammar: PhasePattern::Tree {
        open: PhaseKind::Recurse,
        leaf: PhaseKind::Solve,
        close: PhaseKind::Merge,
    },
};

/// The task-farm (master–worker) archetype: an irregular pool of
/// independent tasks — possibly spawning further tasks — drained by
/// workers in batches, rebalanced by work stealing, and terminated by a
/// distributed quiescence wave. The paper's future-work list (§7) asks
/// for archetypes beyond the two deterministic ones; the farm covers the
/// irregular-workload family (branch-and-bound search, fractal tiles,
/// parameter sweeps).
pub const TASK_FARM: ArchetypeInfo = ArchetypeInfo {
    name: "task-farm",
    phases: &[
        PhaseKind::Seed,
        PhaseKind::Work,
        PhaseKind::Steal,
        PhaseKind::Detect,
        PhaseKind::Recover,
        PhaseKind::Terminate,
    ],
    communication: &[
        "steal-request / steal-reply exchange (pairwise, hypercube schedule)",
        "steering-hint ring wave (incumbent sharing)",
        "termination-detection wave (global quiescence proof)",
        "final reduction of per-worker partial results",
        "work-order / batch-result exchange with heartbeat timeout (FT farm)",
    ],
    // Seed, then one Work (optionally followed by a steal exchange — the
    // hypercube partner may be out of range on non-power-of-two runs,
    // and optionally followed by detect/recover pairs when the
    // fault-tolerant farm observes dead workers and reassigns their
    // batches) per round, then the termination wave's verdict.
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Seed),
        PhasePattern::Plus(&PhasePattern::Seq(&[
            PhasePattern::Kind(PhaseKind::Work),
            PhasePattern::Opt(&PhasePattern::Kind(PhaseKind::Steal)),
            PhasePattern::Star(&PhasePattern::Seq(&[
                PhasePattern::Kind(PhaseKind::Detect),
                PhasePattern::Kind(PhaseKind::Recover),
            ])),
        ])),
        PhasePattern::Kind(PhaseKind::Terminate),
    ]),
};

/// The pipeline (stream) archetype: a linear chain of stages applied to
/// every item of an ordered stream, run with bounded credit-based flow
/// control and round-robin stage replication. The paper's future-work
/// list (§7) asks for archetypes beyond the two deterministic ones; the
/// pipeline covers the streaming family (filter chains, online
/// aggregation) while keeping the workspace's determinism guarantee via
/// in-order delivery at the emit stage.
pub const PIPELINE: ArchetypeInfo = ArchetypeInfo {
    name: "pipeline",
    phases: &[
        PhaseKind::Ingest,
        PhaseKind::Transform,
        PhaseKind::Detect,
        PhaseKind::Recover,
        PhaseKind::Drain,
        PhaseKind::Emit,
    ],
    communication: &[
        "item stream between consecutive stages (round-robin split/merge across replicas)",
        "credit-return messages bounding in-flight items to O(depth x window)",
        "end-of-stream markers flushing every stage (drain)",
        "broadcast of the folded output and reduction of statistics",
        "re-routing of a dead replica's share to its successor (replica failover)",
    ],
    // Between ingest and drain: transforms, interspersed with
    // detect/recover records when a dead replica's share of the stream is
    // failed over to a surviving one.
    grammar: PhasePattern::Seq(&[
        PhasePattern::Kind(PhaseKind::Ingest),
        PhasePattern::Star(&PhasePattern::AnyOf(&[
            PhaseKind::Transform,
            PhaseKind::Detect,
            PhaseKind::Recover,
        ])),
        PhasePattern::Kind(PhaseKind::Drain),
        PhasePattern::Kind(PhaseKind::Emit),
    ]),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetype_constants_are_consistent() {
        assert!(ONE_DEEP_DC.phases.contains(&PhaseKind::Split));
        assert!(ONE_DEEP_DC.phases.contains(&PhaseKind::Solve));
        assert!(ONE_DEEP_DC.phases.contains(&PhaseKind::Merge));
        assert!(MESH_SPECTRAL.phases.contains(&PhaseKind::GridOp));
        assert!(!MESH_SPECTRAL.phases.contains(&PhaseKind::Split));
        assert!(!ONE_DEEP_DC.communication.is_empty());
        assert!(TASK_FARM.phases.contains(&PhaseKind::Seed));
        assert!(TASK_FARM.phases.contains(&PhaseKind::Steal));
        assert!(!TASK_FARM.phases.contains(&PhaseKind::Merge));
        assert!(TASK_FARM.communication.iter().any(|c| c.contains("steal")));
        assert!(RECURSIVE_DC.phases.contains(&PhaseKind::Recurse));
        assert!(RECURSIVE_DC.phases.contains(&PhaseKind::Solve));
        assert!(RECURSIVE_DC.phases.contains(&PhaseKind::Merge));
        assert!(!ONE_DEEP_DC.phases.contains(&PhaseKind::Recurse));
        assert!(RECURSIVE_DC
            .communication
            .iter()
            .any(|c| c.contains("scatter")));
    }

    #[test]
    fn phase_kind_display_names() {
        assert_eq!(PhaseKind::Split.to_string(), "split");
        assert_eq!(PhaseKind::GridOp.to_string(), "grid-op");
        assert_eq!(PhaseKind::Communication.to_string(), "communication");
        assert_eq!(PhaseKind::Seed.to_string(), "seed");
        assert_eq!(PhaseKind::Terminate.to_string(), "terminate");
        assert_eq!(PhaseKind::Recurse.to_string(), "recurse");
    }

    #[test]
    fn from_name_inverts_name() {
        for k in PhaseKind::ALL {
            assert_eq!(PhaseKind::from_name(k.name()), Some(k));
        }
        assert_eq!(PhaseKind::from_name("no-such-phase"), None);
        assert_eq!(PhaseKind::from_name(""), None);
    }

    #[test]
    fn pipeline_metadata_is_consistent() {
        assert_eq!(PIPELINE.name, "pipeline");
        assert!(PIPELINE.phases.contains(&PhaseKind::Ingest));
        assert!(PIPELINE.phases.contains(&PhaseKind::Drain));
        assert!(!PIPELINE.phases.contains(&PhaseKind::Work));
        assert!(PIPELINE.communication.iter().any(|c| c.contains("credit")));
        assert_eq!(PhaseKind::Ingest.to_string(), "ingest");
        assert_eq!(PhaseKind::Drain.to_string(), "drain");
    }

    #[test]
    fn one_deep_grammar_accepts_exactly_split_solve_merge() {
        use PhaseKind::{Merge, Solve, Split};
        let g = &ONE_DEEP_DC.grammar;
        assert!(g.matches(&[Split, Solve, Merge]));
        assert!(!g.matches(&[Split, Merge]));
        assert!(!g.matches(&[Split, Solve, Merge, Merge]));
        assert!(!g.matches(&[]));
    }

    #[test]
    fn recursive_grammar_accepts_preorder_trees_only() {
        use PhaseKind::{Merge, Recurse, Solve};
        let g = &RECURSIVE_DC.grammar;
        assert!(g.matches(&[Solve]));
        assert!(g.matches(&[Recurse, Solve, Solve, Merge]));
        // The depth-2 binary tree from the dc skeleton's own test.
        assert!(g.matches(&[
            Recurse, Recurse, Solve, Solve, Merge, Recurse, Solve, Solve, Merge, Merge
        ]));
        // A rank's root path: one subtree per level.
        assert!(g.matches(&[Recurse, Recurse, Solve, Merge, Merge]));
        // Unbalanced or empty nodes are rejected.
        assert!(!g.matches(&[Recurse, Solve, Solve]));
        assert!(!g.matches(&[Recurse, Merge]));
        assert!(!g.matches(&[Solve, Solve]));
    }

    #[test]
    fn farm_grammar_requires_seed_rounds_terminate() {
        use PhaseKind::{Seed, Steal, Terminate, Work};
        let g = &TASK_FARM.grammar;
        assert!(g.matches(&[Seed, Work, Terminate]));
        assert!(g.matches(&[Seed, Work, Steal, Work, Steal, Terminate]));
        assert!(g.matches(&[Seed, Work, Work, Steal, Terminate]));
        assert!(!g.matches(&[Seed, Terminate]));
        assert!(!g.matches(&[Work, Steal, Terminate]));
        assert!(!g.matches(&[Seed, Steal, Work, Terminate]));
    }

    #[test]
    fn farm_grammar_accepts_detect_recover_rounds() {
        use PhaseKind::{Detect, Recover, Seed, Terminate, Work};
        let g = &TASK_FARM.grammar;
        // A worker death observed after a round: detect, reassign, rework.
        assert!(g.matches(&[Seed, Work, Detect, Recover, Work, Terminate]));
        // Two deaths in one round.
        assert!(g.matches(&[Seed, Work, Detect, Recover, Detect, Recover, Terminate]));
        // Recovery without detection (or the reverse) is rejected.
        assert!(!g.matches(&[Seed, Work, Recover, Terminate]));
        assert!(!g.matches(&[Seed, Work, Detect, Terminate]));
        assert!(!g.matches(&[Seed, Detect, Recover, Terminate]));
    }

    #[test]
    fn mesh_grammar_brackets_op_rounds_with_io() {
        use PhaseKind::{ColOp, Communication, GridOp, Io, Reduction, RowOp};
        let g = &MESH_SPECTRAL.grammar;
        assert!(g.matches(&[Io, Io]));
        assert!(g.matches(&[Io, Communication, GridOp, Reduction, GridOp, Io]));
        assert!(g.matches(&[Io, RowOp, ColOp, Reduction, Io]));
        assert!(!g.matches(&[GridOp, Io]));
        assert!(!g.matches(&[Io, Reduction, Io]));
    }

    #[test]
    fn pipeline_grammar_is_ingest_transforms_drain_emit() {
        use PhaseKind::{Drain, Emit, Ingest, Transform};
        let g = &PIPELINE.grammar;
        assert!(g.matches(&[Ingest, Drain, Emit]));
        assert!(g.matches(&[Ingest, Transform, Transform, Transform, Drain, Emit]));
        assert!(!g.matches(&[Ingest, Transform, Emit]));
        assert!(!g.matches(&[Transform, Drain, Emit]));
        assert!(!g.matches(&[Ingest, Drain, Emit, Emit]));
    }

    #[test]
    fn pipeline_grammar_accepts_failover_records() {
        use PhaseKind::{Detect, Drain, Emit, Ingest, Recover, Transform};
        let g = &PIPELINE.grammar;
        // A replica death mid-stream: its items re-route to a survivor.
        assert!(g.matches(&[Ingest, Transform, Detect, Recover, Transform, Drain, Emit]));
        assert!(g.matches(&[Ingest, Detect, Recover, Drain, Emit]));
        // Failover records cannot replace the drain/emit finale.
        assert!(!g.matches(&[Ingest, Transform, Detect, Recover]));
        assert!(!g.matches(&[Detect, Recover, Drain, Emit]));
    }

    #[test]
    fn pattern_expr_round_trips_every_static_grammar() {
        use PhaseKind::*;
        // from_static must accept exactly what the static grammar accepts,
        // spot-checked on each archetype's canonical traces.
        let cases: Vec<(&ArchetypeInfo, Vec<PhaseKind>, Vec<PhaseKind>)> = vec![
            (&ONE_DEEP_DC, vec![Split, Solve, Merge], vec![Split, Merge]),
            (
                &RECURSIVE_DC,
                vec![Recurse, Solve, Solve, Merge],
                vec![Recurse, Solve],
            ),
            (
                &TASK_FARM,
                vec![Seed, Work, Steal, Terminate],
                vec![Seed, Terminate],
            ),
            (
                &PIPELINE,
                vec![Ingest, Transform, Drain, Emit],
                vec![Ingest, Emit],
            ),
            (
                &MESH_SPECTRAL,
                vec![Io, Communication, GridOp, Reduction, Io],
                vec![Io, Reduction, Io],
            ),
        ];
        for (info, yes, no) in cases {
            let e = PatternExpr::from_static(&info.grammar);
            assert!(e.matches(&yes), "{}: {yes:?}", info.name);
            assert!(info.grammar.matches(&yes), "{}: static {yes:?}", info.name);
            assert!(!e.matches(&no), "{}: {no:?}", info.name);
            assert!(!info.grammar.matches(&no), "{}: static {no:?}", info.name);
        }
    }

    #[test]
    fn seq_composition_concatenates_member_grammars() {
        use PhaseKind::*;
        let g = PatternExpr::seq(vec![
            PatternExpr::from_static(&TASK_FARM.grammar),
            PatternExpr::from_static(&MESH_SPECTRAL.grammar),
            PatternExpr::from_static(&ONE_DEEP_DC.grammar),
        ]);
        assert!(g.matches(&[Seed, Work, Terminate, Io, GridOp, Io, Split, Solve, Merge]));
        // Members out of order are rejected.
        assert!(!g.matches(&[Io, GridOp, Io, Seed, Work, Terminate, Split, Solve, Merge]));
        // A member missing entirely is rejected.
        assert!(!g.matches(&[Seed, Work, Terminate, Split, Solve, Merge]));
    }

    #[test]
    fn interleave_accepts_shuffles_and_rejects_reordered_members() {
        use PhaseKind::*;
        let g = PatternExpr::interleave(vec![
            PatternExpr::from_static(&TASK_FARM.grammar),
            PatternExpr::from_static(&ONE_DEEP_DC.grammar),
        ]);
        // Branch-ordered concatenation is one legal shuffle...
        assert!(g.matches(&[Seed, Work, Terminate, Split, Solve, Merge]));
        // ...as is a genuine interleaving...
        assert!(g.matches(&[Seed, Split, Work, Solve, Merge, Terminate]));
        // ...but each member's internal order must hold.
        assert!(!g.matches(&[Work, Seed, Terminate, Split, Solve, Merge]));
        assert!(!g.matches(&[Seed, Work, Terminate, Merge, Solve, Split]));
    }

    #[test]
    fn interleave_of_tree_grammars_works() {
        use PhaseKind::*;
        // Two concurrent recursive D&C branches, merged by timestamp.
        let g = PatternExpr::interleave(vec![
            PatternExpr::from_static(&RECURSIVE_DC.grammar),
            PatternExpr::from_static(&RECURSIVE_DC.grammar),
        ]);
        assert!(g.matches(&[Recurse, Solve, Solve, Solve, Merge, Solve]));
        assert!(!g.matches(&[Solve])); // the other branch's trace is empty
        assert!(!g.matches(&[Solve, Merge])); // no split yields two trees
    }

    #[test]
    fn star_of_nullable_pattern_terminates() {
        use PhaseKind::{GridOp, Io};
        // Star over an Opt could loop forever without the strict-advance
        // guard; it must just accept.
        const G: PhasePattern = PhasePattern::Star(&PhasePattern::Opt(&PhasePattern::Kind(GridOp)));
        assert!(G.matches(&[]));
        assert!(G.matches(&[GridOp, GridOp]));
        assert!(!G.matches(&[Io]));
    }
}
