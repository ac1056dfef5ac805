//! The general **recursive** divide-and-conquer skeleton on nested
//! process groups.
//!
//! The paper's one-deep archetype (implemented in [`crate::skeleton`])
//! deliberately flattens the recursion to a single split/solve/merge
//! level; its §2.1.1 "traditional" form is the fully recursive structure.
//! This module generalizes both: a problem expressed through the
//! [`Recursive`] trait is divided into `k` subproblems per level, the
//! recursion descends until a cutoff chosen by a performance model
//! ([`CutoffPolicy`], see [`crate::perfmodel`]), leaves are solved with
//! the sequential algorithm, and subsolutions merge back up a combining
//! tree.
//!
//! Two drivers execute the same trait:
//!
//! - [`run_shared`] runs the recursion on shared memory — sequentially or
//!   with rayon-style fork/join via
//!   [`archetype_core::parfor_map_vec`] — with identical
//!   results in both modes;
//! - [`run_spmd_recursive`] runs it over the message-passing substrate:
//!   each level splits the current [`Group`] into `k` disjoint
//!   subcommunicators ([`Group::split_nested`]), scatters the
//!   subproblems to the subgroup roots ([`Group::scatter`]), recurses
//!   concurrently (sibling groups' tags are namespaced, so their traffic
//!   cannot interfere), and gathers subsolutions back to each group root
//!   for combining — all charged against the virtual clock.
//!
//! The one-deep skeleton is the `max_depth == 1` shape of this recursion
//! with `k == nprocs`; the equivalence of the sequential, shared,
//! one-deep, and recursive executions is asserted per application in
//! `tests/prop_dc.rs`.

use archetype_core::{parfor_map_vec, ExecutionMode, PhaseKind, PhaseTrace};
use archetype_mp::{Ctx, Group, Payload};

/// A problem expressed as general recursive divide-and-conquer.
///
/// Implementations must be **depth-insensitive**: dividing further (or
/// not at all) may change the work schedule but never the final solution.
/// That property is what lets one implementation run at any recursion
/// depth, on any number of processes, and still match the sequential
/// oracle — the archetype's semantics-preservation claim, recursively.
pub trait Recursive: Sync {
    /// A (sub)problem.
    type Problem: Send;
    /// A (sub)solution.
    type Solution: Send;

    /// Number of items in the problem, consulted by the cutoff policy.
    fn size(&self, p: &Self::Problem) -> usize;

    /// Divide a problem into exactly `k` subproblems (`k ≥ 2`), in order.
    /// Subproblems may be empty; each must be strictly smaller than the
    /// input whenever the input has at least two items, or the policy's
    /// depth cap is what terminates the recursion.
    fn divide(&self, p: Self::Problem, k: usize) -> Vec<Self::Problem>;

    /// Solve a problem with the sequential algorithm (the cutoff solve).
    fn solve(&self, p: Self::Problem) -> Self::Solution;

    /// Combine subsolutions, given in divide order.
    fn combine(&self, parts: Vec<Self::Solution>) -> Self::Solution;

    // ---- modeled costs (flop-equivalents) for the virtual clock ----------

    /// Cost of dividing the problem (the paper's first inefficiency: the
    /// split "can require inspection of all the input data").
    fn divide_cost(&self, _p: &Self::Problem) -> f64 {
        0.0
    }
    /// Cost of the sequential solve.
    fn solve_cost(&self, _p: &Self::Problem) -> f64 {
        0.0
    }
    /// Cost of combining the subsolutions.
    fn combine_cost(&self, _parts: &[Self::Solution]) -> f64 {
        0.0
    }
}

/// When to stop recursing: a branching factor plus two cutoffs — a
/// problem-size floor (normally chosen from the machine model, see
/// [`crate::perfmodel::recursion_policy`]) and a hard depth cap.
///
/// The SPMD driver additionally stops at singleton groups, where no
/// further process parallelism exists; the two drivers still compute the
/// same solution because [`Recursive`] implementations are
/// depth-insensitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutoffPolicy {
    /// Subproblems per divide (`k ≥ 2`).
    pub branching: usize,
    /// Problems smaller than this are solved sequentially. A floor of 2
    /// is always applied: single-item problems never divide.
    pub min_items: usize,
    /// Hard cap on recursion depth (`0` = solve sequentially at once).
    pub max_depth: usize,
}

impl CutoffPolicy {
    /// A policy with an explicit size floor and depth cap.
    ///
    /// # Panics
    /// Panics if `branching < 2`.
    pub fn new(branching: usize, min_items: usize, max_depth: usize) -> Self {
        assert!(branching >= 2, "divide needs at least two subproblems");
        CutoffPolicy {
            branching,
            min_items,
            max_depth,
        }
    }

    /// Recurse to exactly `depth` levels (no size floor) with the given
    /// branching factor — the fully specified shape used by equivalence
    /// tests; `exact_depth(0, k)` is pure sequential execution.
    pub fn exact_depth(depth: usize, branching: usize) -> Self {
        Self::new(branching, 0, depth)
    }

    /// True if a problem of `size` items may be divided at all.
    pub fn size_allows(&self, size: usize) -> bool {
        size >= self.min_items.max(2)
    }

    /// True if a problem of `size` items at recursion `depth` should be
    /// divided rather than solved sequentially.
    pub fn should_recurse(&self, size: usize, depth: usize) -> bool {
        depth < self.max_depth && self.size_allows(size)
    }
}

/// Execute the recursion on shared memory.
///
/// In [`ExecutionMode::Parallel`] each divide's subproblems run as a
/// fork/join ("every time the problem is split into concurrently
/// executable subproblems a new process is created"); results are
/// identical in both modes for deterministic algorithms. The trace
/// records `Recurse` entering each internal node, `Solve` at each leaf,
/// and `Merge` before each combine — in deterministic preorder in
/// sequential mode.
///
/// ```
/// use archetype_core::ExecutionMode;
/// use archetype_dc::{run_shared_recursive, CutoffPolicy, RecursiveMergesort};
///
/// let alg = RecursiveMergesort::<i64>::new();
/// let out = run_shared_recursive(
///     &alg,
///     vec![3, 1, 2],
///     &CutoffPolicy::exact_depth(1, 2),
///     ExecutionMode::Sequential,
///     None,
/// );
/// assert_eq!(out, vec![1, 2, 3]);
/// ```
pub fn run_shared<A: Recursive>(
    alg: &A,
    problem: A::Problem,
    policy: &CutoffPolicy,
    mode: ExecutionMode,
    trace: Option<&PhaseTrace>,
) -> A::Solution {
    shared_node(alg, problem, 0, policy, mode, trace)
}

fn shared_node<A: Recursive>(
    alg: &A,
    problem: A::Problem,
    depth: usize,
    policy: &CutoffPolicy,
    mode: ExecutionMode,
    trace: Option<&PhaseTrace>,
) -> A::Solution {
    if !policy.should_recurse(alg.size(&problem), depth) {
        if let Some(t) = trace {
            t.record(PhaseKind::Solve, "sequential solve at the cutoff");
        }
        return alg.solve(problem);
    }
    if let Some(t) = trace {
        t.record(PhaseKind::Recurse, "divide and descend");
    }
    let parts = alg.divide(problem, policy.branching);
    assert_eq!(
        parts.len(),
        policy.branching,
        "divide must return exactly k subproblems"
    );
    let sols = parfor_map_vec(mode, parts, |_i, part| {
        shared_node(alg, part, depth + 1, policy, mode, trace)
    });
    if let Some(t) = trace {
        t.record(PhaseKind::Merge, "combine subsolutions");
    }
    alg.combine(sols)
}

/// Execute the recursion over the SPMD substrate on nested process
/// groups. Must be called by every rank from within
/// [`archetype_mp::run_spmd`]; `input` must be `Some` on rank 0 and
/// `None` elsewhere, and the solution is returned on rank 0.
///
/// Each level of the recursion, executed by every member of the current
/// group:
///
/// 1. the subproblem size is group-broadcast so all members take the
///    same cutoff branch (skipped when the depth cap or a singleton
///    group already decides locally);
/// 2. the root divides and **group-scatters** the `k` subproblems over
///    the nested subgroup formed by the `k` subgroup roots — exactly
///    `k − 1` messages, no matter how large the group is;
/// 3. the group splits into `k` disjoint subcommunicators
///    ([`Group::split_nested`]) that recurse **concurrently** — sibling
///    subtrees may reach different depths without interfering, because
///    group tags are namespaced by member list;
/// 4. subsolutions **gather** over the same roots-subgroup back to the
///    group root, which combines them — the combining tree, with all
///    groups at one level merging in parallel.
///
/// Compute phases are charged to the virtual clock through the
/// algorithm's `*_cost` hooks, so repeated runs produce bit-identical
/// results, clocks, and traces.
pub fn run_spmd_recursive<A>(
    alg: &A,
    ctx: &mut Ctx,
    input: Option<A::Problem>,
    policy: &CutoffPolicy,
    trace: Option<&PhaseTrace>,
) -> Option<A::Solution>
where
    A: Recursive,
    A::Problem: Payload,
    A::Solution: Payload,
{
    assert_eq!(
        ctx.rank() == 0,
        input.is_some(),
        "the problem starts on rank 0 (None elsewhere)"
    );
    let mut world = Group::world(ctx);
    spmd_node(alg, ctx, &mut world, input, 0, policy, trace)
}

fn spmd_node<A>(
    alg: &A,
    ctx: &mut Ctx,
    group: &mut Group,
    problem: Option<A::Problem>,
    depth: usize,
    policy: &CutoffPolicy,
    trace: Option<&PhaseTrace>,
) -> Option<A::Solution>
where
    A: Recursive,
    A::Problem: Payload,
    A::Solution: Payload,
{
    let g = group.len();
    // Depth caps and singleton groups cut off without communicating; the
    // size-based cutoff needs the root's problem size replicated first.
    let cut = depth >= policy.max_depth || g == 1 || {
        let size = group.broadcast(ctx, 0, problem.as_ref().map(|p| alg.size(p) as u64));
        !policy.size_allows(size as usize)
    };
    if cut {
        return problem.map(|p| {
            ctx.charge_flops(alg.solve_cost(&p));
            ctx.trace_phase(PhaseKind::Solve.name(), "sequential solve at the cutoff");
            if let Some(t) = trace {
                t.record(PhaseKind::Solve, "sequential solve at the cutoff");
            }
            alg.solve(p)
        });
    }

    ctx.trace_phase(
        PhaseKind::Recurse.name(),
        "divide and descend into subgroups",
    );
    if let Some(t) = trace {
        t.record(PhaseKind::Recurse, "divide and descend into subgroups");
    }
    let k = policy.branching.min(g);
    // Contiguous, balanced subgroups; roots[j] is subgroup j's first member.
    let colors: Vec<usize> = (0..g).map(|i| i * k / g).collect();
    let roots: Vec<usize> = (0..k)
        .map(|j| colors.iter().position(|&c| c == j).expect("color nonempty"))
        .collect();
    let me = group.rank();
    let is_sub_root = roots[colors[me]] == me;

    // The k subgroup roots form their own nested subgroup (the non-roots
    // form an unused sibling), over which the division is scattered and
    // the subsolutions gathered: k − 1 messages each way per level, with
    // the group root — a subgroup root itself — at index 0 of both.
    let cross_colors: Vec<usize> = (0..g).map(|i| usize::from(roots[colors[i]] != i)).collect();
    let mut cross = group.split_nested(ctx, &cross_colors);

    let mine: Option<A::Problem> = if is_sub_root {
        let parts: Option<Vec<A::Problem>> = problem.map(|p| {
            ctx.charge_flops(alg.divide_cost(&p));
            let parts = alg.divide(p, k);
            assert_eq!(parts.len(), k, "divide must return exactly k subproblems");
            parts
        });
        Some(cross.scatter(ctx, 0, parts))
    } else {
        None
    };

    let mut sub = group.split_nested(ctx, &colors);
    let sub_solution = spmd_node(alg, ctx, &mut sub, mine, depth + 1, policy, trace);

    // Combining tree: subgroup roots' solutions gather to the group root,
    // which merges them; all groups of a level combine concurrently.
    if !is_sub_root {
        return None;
    }
    let gathered = cross.gather(
        ctx,
        0,
        sub_solution.expect("a subgroup root holds its subgroup's solution"),
    );
    gathered.map(|parts| {
        ctx.charge_flops(alg.combine_cost(&parts));
        ctx.trace_phase(PhaseKind::Merge.name(), "combine subsolutions up the tree");
        if let Some(t) = trace {
            t.record(PhaseKind::Merge, "combine subsolutions up the tree");
        }
        alg.combine(parts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    /// A toy recursive problem: sum a vector, dividing it into k chunks.
    struct TreeSum;

    impl Recursive for TreeSum {
        type Problem = Vec<u64>;
        type Solution = u64;

        fn size(&self, p: &Vec<u64>) -> usize {
            p.len()
        }
        fn divide(&self, p: Vec<u64>, k: usize) -> Vec<Vec<u64>> {
            crate::mergesort::chunk_evenly(p, k)
        }
        fn solve(&self, p: Vec<u64>) -> u64 {
            p.iter().sum()
        }
        fn combine(&self, parts: Vec<u64>) -> u64 {
            parts.iter().sum()
        }
        fn solve_cost(&self, p: &Vec<u64>) -> f64 {
            p.len() as f64
        }
    }

    fn numbers(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 2654435761) % 1000).collect()
    }

    #[test]
    fn shared_recursion_matches_sequential_at_every_depth() {
        let input = numbers(257);
        let expected: u64 = input.iter().sum();
        for depth in 0..5 {
            for k in [2usize, 3, 4] {
                for mode in ExecutionMode::both() {
                    let got = run_shared(
                        &TreeSum,
                        input.clone(),
                        &CutoffPolicy::exact_depth(depth, k),
                        mode,
                        None,
                    );
                    assert_eq!(got, expected, "depth={depth} k={k} {mode}");
                }
            }
        }
    }

    #[test]
    fn trace_records_preorder_recursion_shape() {
        use PhaseKind::{Merge, Recurse, Solve};
        let t = PhaseTrace::new();
        run_shared(
            &TreeSum,
            numbers(64),
            &CutoffPolicy::exact_depth(2, 2),
            ExecutionMode::Sequential,
            Some(&t),
        );
        // Preorder of the full binary tree of depth 2.
        assert!(t.matches(&[
            Recurse, Recurse, Solve, Solve, Merge, Recurse, Solve, Solve, Merge, Merge
        ]));
        assert_eq!(t.count(Recurse), 3);
        assert_eq!(t.count(Solve), 4);
    }

    #[test]
    fn size_floor_stops_recursion() {
        let t = PhaseTrace::new();
        let policy = CutoffPolicy::new(2, 1000, 10);
        let got = run_shared(
            &TreeSum,
            numbers(100),
            &policy,
            ExecutionMode::Sequential,
            Some(&t),
        );
        assert_eq!(got, numbers(100).iter().sum::<u64>());
        assert!(t.matches(&[PhaseKind::Solve]), "below the floor: no divide");
    }

    #[test]
    fn single_item_problems_never_divide() {
        let policy = CutoffPolicy::exact_depth(50, 2);
        assert!(!policy.should_recurse(1, 0));
        assert!(!policy.should_recurse(0, 0));
        assert!(policy.should_recurse(2, 0));
        let got = run_shared(&TreeSum, vec![7], &policy, ExecutionMode::Sequential, None);
        assert_eq!(got, 7);
    }

    #[test]
    fn spmd_recursion_matches_shared_for_all_ranks_and_depths() {
        let input = numbers(300);
        let expected: u64 = input.iter().sum();
        for p in [1usize, 2, 3, 5, 8] {
            for depth in 0..4 {
                let policy = CutoffPolicy::exact_depth(depth, 2);
                let inp = input.clone();
                let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
                    let input = (ctx.rank() == 0).then(|| inp.clone());
                    run_spmd_recursive(&TreeSum, ctx, input, &policy, None)
                });
                assert_eq!(out.results[0], Some(expected), "p={p} depth={depth}");
                for r in 1..p {
                    assert_eq!(out.results[r], None, "p={p} depth={depth}");
                }
            }
        }
    }

    #[test]
    fn depth_zero_spmd_is_message_free_sequential_execution() {
        let input = numbers(128);
        let expected: u64 = input.iter().sum();
        let out = run_spmd(6, MachineModel::ibm_sp(), move |ctx| {
            let inp = (ctx.rank() == 0).then(|| input.clone());
            run_spmd_recursive(&TreeSum, ctx, inp, &CutoffPolicy::exact_depth(0, 2), None)
        });
        assert_eq!(out.results[0], Some(expected));
        assert_eq!(out.stats.total_msgs(), 0, "depth 0 must not communicate");
        // Only rank 0 computes; elapsed equals its solve charge.
        let m = MachineModel::ibm_sp();
        assert!((out.elapsed_virtual - 128.0 * m.flop_time).abs() < 1e-15);
    }

    #[test]
    fn rank0_spmd_trace_walks_its_root_path() {
        use PhaseKind::{Merge, Recurse, Solve};
        let input = numbers(200);
        let out = run_spmd(8, MachineModel::ibm_sp(), move |ctx| {
            let inp = (ctx.rank() == 0).then(|| input.clone());
            let t = PhaseTrace::new();
            run_spmd_recursive(
                &TreeSum,
                ctx,
                inp,
                &CutoffPolicy::exact_depth(3, 2),
                Some(&t),
            );
            t.kinds()
        });
        // Rank 0 is the root at every level: it recurses three times,
        // solves its leaf, then merges on the way back up.
        assert_eq!(
            out.results[0],
            vec![Recurse, Recurse, Recurse, Solve, Merge, Merge, Merge]
        );
        // Rank 7 descends with its groups but roots none of them until its
        // own singleton leaf.
        assert_eq!(out.results[7], vec![Recurse, Recurse, Recurse, Solve]);
    }

    #[test]
    fn branching_wider_than_group_is_clamped() {
        let input = numbers(90);
        let expected: u64 = input.iter().sum();
        let out = run_spmd(3, MachineModel::ibm_sp(), move |ctx| {
            let inp = (ctx.rank() == 0).then(|| input.clone());
            run_spmd_recursive(&TreeSum, ctx, inp, &CutoffPolicy::exact_depth(2, 8), None)
        });
        assert_eq!(out.results[0], Some(expected));
    }

    #[test]
    #[should_panic]
    fn branching_below_two_is_rejected() {
        let _ = CutoffPolicy::new(1, 0, 3);
    }
}
