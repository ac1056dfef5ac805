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
    /// Stable lowercase name of the phase kind, printed by `Display` —
    /// the one place the names are spelled. A trace stores the kind
    /// itself (`Ctx::trace_phase`); its Chrome export and critical-path
    /// report print it through this name.
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
}

impl std::fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A grammar over [`PhaseKind`] sequences: the machine-checkable shape of
/// an archetype's phase structure.
///
/// Every [`ArchetypeInfo`] builds one ([`ArchetypeInfo::grammar`]), and
/// the composition subsystem (`crates/compose`) derives the grammar of a
/// whole *plan* by sequencing its members' grammars. Skeletons record
/// each phase they enter with `Ctx::trace_phase`, and
/// `tests/conformance.rs` asserts that the phase track a traced run
/// returns (`RankTrace::phases`) is *accepted* by its grammar — turning
/// the metadata into an enforced contract rather than documentation.
/// Patterns are ordinary regular operators plus [`PatternExpr::Tree`],
/// the Dyck-style balanced pattern that a preorder recursion trace
/// (recursive divide-and-conquer) requires and regular operators cannot
/// express.
///
/// ```
/// use archetype_core::archetype::{PatternExpr, PhaseKind, ONE_DEEP_DC, TASK_FARM};
/// use PhaseKind::{Merge, Seed, Solve, Split, Terminate, Work};
///
/// // A farm followed by a one-deep D&C, as a derived composite grammar.
/// let g = PatternExpr::seq(vec![TASK_FARM.grammar(), ONE_DEEP_DC.grammar()]);
/// assert!(g.matches(&[Seed, Work, Terminate, Split, Solve, Merge]));
/// assert!(!g.matches(&[Split, Solve, Merge, Seed, Work, Terminate]));
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
}

impl PatternExpr {
    /// Sequential composition: members' traces concatenate in order.
    pub fn seq(parts: Vec<PatternExpr>) -> PatternExpr {
        PatternExpr::Seq(parts)
    }

    /// Zero-or-one occurrence of `inner`.
    pub fn opt(inner: PatternExpr) -> PatternExpr {
        PatternExpr::Opt(Box::new(inner))
    }

    /// True if `kinds` as a whole is a sentence of this grammar.
    pub fn matches(&self, kinds: &[PhaseKind]) -> bool {
        self.ends(kinds, 0).contains(&kinds.len())
    }

    /// All positions a match starting at `pos` can end at (deduplicated,
    /// ascending). Traces are short, so plain backtracking is plenty.
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

    /// Push every phase kind this grammar mentions onto `out`, in the
    /// order it mentions them (a tree's open, leaf, close), repeats
    /// included.
    fn mentions(&self, out: &mut Vec<PhaseKind>) {
        match self {
            PatternExpr::Kind(k) => out.push(*k),
            PatternExpr::AnyOf(ks) => out.extend(ks),
            PatternExpr::Seq(parts) => parts.iter().for_each(|p| p.mentions(out)),
            PatternExpr::Star(inner) | PatternExpr::Plus(inner) | PatternExpr::Opt(inner) => {
                inner.mentions(out)
            }
            PatternExpr::Tree { open, leaf, close } => out.extend([*open, *leaf, *close]),
        }
    }
}

/// Zero or more repetitions of `inner`.
fn star(inner: PatternExpr) -> PatternExpr {
    PatternExpr::Star(Box::new(inner))
}

/// Static description of an archetype: its name, the communication its
/// dataflow requires, and its phase grammar, from which its phase
/// vocabulary follows. Used in documentation output, by `describe()`
/// helpers on the application types, by the composition subsystem, and
/// by the conformance suite that grammar-checks recorded phase tracks.
///
/// ```
/// use archetype_core::archetype::{PhaseKind, ONE_DEEP_DC};
/// use PhaseKind::{Merge, Solve, Split};
///
/// let g = ONE_DEEP_DC.grammar();
/// assert!(g.matches(&[Split, Solve, Merge]));
/// assert!(!g.matches(&[Split, Merge]));
/// assert_eq!(ONE_DEEP_DC.phases(), [Split, Solve, Merge]);
/// ```
#[derive(Clone, Debug)]
pub struct ArchetypeInfo {
    /// Archetype name, e.g. `"one-deep divide-and-conquer"`.
    pub name: &'static str,
    /// The communication operations its dataflow pattern requires.
    pub communication: &'static [&'static str],
    grammar: fn() -> PatternExpr,
}

impl ArchetypeInfo {
    /// The grammar every phase track of this archetype must satisfy.
    pub fn grammar(&self) -> PatternExpr {
        (self.grammar)()
    }

    /// The phase kinds this archetype composes: its grammar's alphabet,
    /// in order of first occurrence.
    pub fn phases(&self) -> Vec<PhaseKind> {
        let mut mentions = Vec::new();
        self.grammar().mentions(&mut mentions);
        let mut out: Vec<PhaseKind> = Vec::new();
        for k in mentions {
            if !out.contains(&k) {
                out.push(k);
            }
        }
        out
    }
}

/// The one-deep divide-and-conquer archetype (paper §2).
pub const ONE_DEEP_DC: ArchetypeInfo = ArchetypeInfo {
    name: "one-deep divide-and-conquer",
    communication: &[
        "all-to-all redistribution (split and merge phases)",
        "gather+broadcast or all-to-all before sequential parameter computation",
        "broadcast after parameter computation",
    ],
    grammar: || {
        use PhaseKind::{Merge, Solve, Split};
        PatternExpr::seq(vec![
            PatternExpr::Kind(Split),
            PatternExpr::Kind(Solve),
            PatternExpr::Kind(Merge),
        ])
    },
};

/// The mesh-spectral archetype (paper §3).
pub const MESH_SPECTRAL: ArchetypeInfo = ArchetypeInfo {
    name: "mesh-spectral",
    communication: &[
        "grid redistribution (rows <-> columns)",
        "boundary (ghost) exchange",
        "broadcast of global data",
        "reduction (recursive doubling / all-to-one / one-to-all)",
    ],
    // Distribute, then any number of archetype-inserted-communication /
    // grid-row-col op / reduction rounds, then collect.
    grammar: || {
        use PhaseKind::{ColOp, Communication, GridOp, Io, Reduction, RowOp};
        PatternExpr::seq(vec![
            PatternExpr::Kind(Io),
            star(PatternExpr::seq(vec![
                PatternExpr::opt(PatternExpr::Kind(Communication)),
                PatternExpr::AnyOf(vec![GridOp, RowOp, ColOp]),
                PatternExpr::opt(PatternExpr::Kind(Reduction)),
            ])),
            PatternExpr::Kind(Io),
        ])
    },
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
    communication: &[
        "group broadcast of the subproblem size before each cutoff decision",
        "group scatter of subproblems to subgroup roots (recursion descent)",
        "group gather of subsolutions to the group root (combining tree)",
        "nested Ctx::scoped subgroups whose traffic is matched only within each scope",
    ],
    // A preorder recursion-tree trace; a rank's root-path trace (one
    // subtree per level) is the k=1 special case.
    grammar: || PatternExpr::Tree {
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
    grammar: || {
        use PhaseKind::{Detect, Recover, Seed, Steal, Terminate, Work};
        PatternExpr::seq(vec![
            PatternExpr::Kind(Seed),
            PatternExpr::Plus(Box::new(PatternExpr::seq(vec![
                PatternExpr::Kind(Work),
                PatternExpr::opt(PatternExpr::Kind(Steal)),
                star(PatternExpr::seq(vec![
                    PatternExpr::Kind(Detect),
                    PatternExpr::Kind(Recover),
                ])),
            ]))),
            PatternExpr::Kind(Terminate),
        ])
    },
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
    grammar: || {
        use PhaseKind::{Detect, Drain, Emit, Ingest, Recover, Transform};
        PatternExpr::seq(vec![
            PatternExpr::Kind(Ingest),
            star(PatternExpr::AnyOf(vec![Transform, Detect, Recover])),
            PatternExpr::Kind(Drain),
            PatternExpr::Kind(Emit),
        ])
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archetype_constants_are_consistent() {
        let has = |info: &ArchetypeInfo, k| info.phases().contains(&k);
        assert!(has(&ONE_DEEP_DC, PhaseKind::Split));
        assert!(has(&ONE_DEEP_DC, PhaseKind::Solve));
        assert!(has(&ONE_DEEP_DC, PhaseKind::Merge));
        assert!(has(&MESH_SPECTRAL, PhaseKind::GridOp));
        assert!(!has(&MESH_SPECTRAL, PhaseKind::Split));
        assert!(!ONE_DEEP_DC.communication.is_empty());
        assert!(has(&TASK_FARM, PhaseKind::Seed));
        assert!(has(&TASK_FARM, PhaseKind::Steal));
        assert!(!has(&TASK_FARM, PhaseKind::Merge));
        assert!(TASK_FARM.communication.iter().any(|c| c.contains("steal")));
        assert!(has(&RECURSIVE_DC, PhaseKind::Recurse));
        assert!(has(&RECURSIVE_DC, PhaseKind::Solve));
        assert!(has(&RECURSIVE_DC, PhaseKind::Merge));
        assert!(!has(&ONE_DEEP_DC, PhaseKind::Recurse));
        assert!(RECURSIVE_DC
            .communication
            .iter()
            .any(|c| c.contains("scatter")));
    }

    #[test]
    fn phases_are_the_grammar_alphabet() {
        use PhaseKind::*;
        assert_eq!(ONE_DEEP_DC.phases(), [Split, Solve, Merge]);
        assert_eq!(
            MESH_SPECTRAL.phases(),
            [Io, Communication, GridOp, RowOp, ColOp, Reduction]
        );
        assert_eq!(RECURSIVE_DC.phases(), [Recurse, Solve, Merge]);
        assert_eq!(
            TASK_FARM.phases(),
            [Seed, Work, Steal, Detect, Recover, Terminate]
        );
        assert_eq!(
            PIPELINE.phases(),
            [Ingest, Transform, Detect, Recover, Drain, Emit]
        );
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
    fn pipeline_metadata_is_consistent() {
        assert_eq!(PIPELINE.name, "pipeline");
        assert!(PIPELINE.phases().contains(&PhaseKind::Ingest));
        assert!(PIPELINE.phases().contains(&PhaseKind::Drain));
        assert!(!PIPELINE.phases().contains(&PhaseKind::Work));
        assert!(PIPELINE.communication.iter().any(|c| c.contains("credit")));
        assert_eq!(PhaseKind::Ingest.to_string(), "ingest");
        assert_eq!(PhaseKind::Drain.to_string(), "drain");
    }

    #[test]
    fn one_deep_grammar_accepts_exactly_split_solve_merge() {
        use PhaseKind::{Merge, Solve, Split};
        let g = ONE_DEEP_DC.grammar();
        assert!(g.matches(&[Split, Solve, Merge]));
        assert!(!g.matches(&[Split, Merge]));
        assert!(!g.matches(&[Split, Solve, Merge, Merge]));
        assert!(!g.matches(&[]));
    }

    #[test]
    fn recursive_grammar_accepts_preorder_trees_only() {
        use PhaseKind::{Merge, Recurse, Solve};
        let g = RECURSIVE_DC.grammar();
        assert!(g.matches(&[Solve]));
        assert!(g.matches(&[Recurse, Solve, Solve, Merge]));
        // The depth-2 binary tree from the dc skeleton's own test.
        assert!(g.matches(&[
            Recurse, Recurse, Solve, Solve, Merge, Recurse, Solve, Solve, Merge, Merge
        ]));
        // A rank's root path: one subtree per level.
        assert!(g.matches(&[Recurse, Recurse, Solve, Merge, Merge]));
        // Unbalanced, unclosed or empty nodes are rejected.
        assert!(!g.matches(&[Recurse, Solve, Solve]));
        assert!(!g.matches(&[Recurse, Solve]));
        assert!(!g.matches(&[Recurse, Merge]));
        assert!(!g.matches(&[Solve, Solve]));
    }

    #[test]
    fn farm_grammar_requires_seed_rounds_terminate() {
        use PhaseKind::{Seed, Steal, Terminate, Work};
        let g = TASK_FARM.grammar();
        assert!(g.matches(&[Seed, Work, Terminate]));
        assert!(g.matches(&[Seed, Work, Steal, Terminate]));
        assert!(g.matches(&[Seed, Work, Steal, Work, Steal, Terminate]));
        assert!(g.matches(&[Seed, Work, Work, Steal, Terminate]));
        assert!(!g.matches(&[Seed, Terminate]));
        assert!(!g.matches(&[Work, Steal, Terminate]));
        assert!(!g.matches(&[Seed, Steal, Work, Terminate]));
    }

    #[test]
    fn farm_grammar_accepts_detect_recover_rounds() {
        use PhaseKind::{Detect, Recover, Seed, Terminate, Work};
        let g = TASK_FARM.grammar();
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
        let g = MESH_SPECTRAL.grammar();
        assert!(g.matches(&[Io, Io]));
        assert!(g.matches(&[Io, Communication, GridOp, Reduction, Io]));
        assert!(g.matches(&[Io, Communication, GridOp, Reduction, GridOp, Io]));
        assert!(g.matches(&[Io, RowOp, ColOp, Reduction, Io]));
        assert!(!g.matches(&[GridOp, Io]));
        assert!(!g.matches(&[Io, Reduction, Io]));
    }

    #[test]
    fn pipeline_grammar_is_ingest_transforms_drain_emit() {
        use PhaseKind::{Drain, Emit, Ingest, Transform};
        let g = PIPELINE.grammar();
        assert!(g.matches(&[Ingest, Drain, Emit]));
        assert!(g.matches(&[Ingest, Transform, Drain, Emit]));
        assert!(g.matches(&[Ingest, Transform, Transform, Transform, Drain, Emit]));
        assert!(!g.matches(&[Ingest, Transform, Emit]));
        assert!(!g.matches(&[Ingest, Emit]));
        assert!(!g.matches(&[Transform, Drain, Emit]));
        assert!(!g.matches(&[Ingest, Drain, Emit, Emit]));
    }

    #[test]
    fn pipeline_grammar_accepts_failover_records() {
        use PhaseKind::{Detect, Drain, Emit, Ingest, Recover, Transform};
        let g = PIPELINE.grammar();
        // A replica death mid-stream: its items re-route to a survivor.
        assert!(g.matches(&[Ingest, Transform, Detect, Recover, Transform, Drain, Emit]));
        assert!(g.matches(&[Ingest, Detect, Recover, Drain, Emit]));
        // Failover records cannot replace the drain/emit finale.
        assert!(!g.matches(&[Ingest, Transform, Detect, Recover]));
        assert!(!g.matches(&[Detect, Recover, Drain, Emit]));
    }

    #[test]
    fn seq_composition_concatenates_member_grammars() {
        use PhaseKind::*;
        let g = PatternExpr::seq(vec![
            TASK_FARM.grammar(),
            MESH_SPECTRAL.grammar(),
            ONE_DEEP_DC.grammar(),
        ]);
        assert!(g.matches(&[Seed, Work, Terminate, Io, GridOp, Io, Split, Solve, Merge]));
        // Members out of order are rejected.
        assert!(!g.matches(&[Io, GridOp, Io, Seed, Work, Terminate, Split, Solve, Merge]));
        // A member missing entirely is rejected.
        assert!(!g.matches(&[Seed, Work, Terminate, Split, Solve, Merge]));
    }

    #[test]
    fn star_of_nullable_pattern_terminates() {
        use PhaseKind::{GridOp, Io};
        // Star over an Opt could loop forever without the strict-advance
        // guard; it must just accept.
        let g = star(PatternExpr::opt(PatternExpr::Kind(GridOp)));
        assert!(g.matches(&[]));
        assert!(g.matches(&[GridOp, GridOp]));
        assert!(!g.matches(&[Io]));
    }
}
