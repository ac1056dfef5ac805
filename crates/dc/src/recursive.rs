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
//! - [`run_shared`] runs the recursion on shared memory as version 1:
//!   each divide's subproblems are a [`archetype_core::parfor_map_vec`],
//!   solved one after another;
//! - [`run_spmd_recursive`] runs it over the message-passing substrate:
//!   each level splits the current group of ranks into `k` disjoint
//!   subgroups, scatters the subproblems to the subgroup roots, recurses
//!   concurrently with each subgroup in its own [`Ctx::scoped`] section
//!   (sibling scopes' traffic cannot interfere), and gathers subsolutions
//!   back to each group root for combining — all charged against the
//!   virtual clock.
//!
//! The one-deep skeleton is the `max_depth == 1` shape of this recursion
//! with `k == nprocs`; the equivalence of the sequential, shared,
//! one-deep, and recursive executions is asserted per application in
//! `tests/prop_dc.rs`.
//!
//! **Why depth 1 does not replace the one-deep skeleton.**
//! [`run_spmd_recursive`] starts with the whole problem on the group
//! root and ends with the whole solution there. At depth 1 the root
//! therefore scatters and gathers all `n` items and combines the `p`
//! subsolutions alone. [`crate::skeleton::run_spmd`] starts and ends
//! with the data spread over every rank and redistributes it
//! all-to-all. Measured on 2¹⁶ keys and the Intel Delta model,
//! `RecursiveMergesort` under `CutoffPolicy::exact_depth(1, p)` (input
//! on rank 0) against `OneDeepMergesort` (the same keys in per-rank
//! blocks):
//!
//! | p | virtual ms, one-deep / recursive | messages, one-deep / recursive | bytes, one-deep / recursive |
//! |---|---|---|---|
//! | 4 | 54.9 / 86.7 | 48 / 9 | 394 000 / 786 456 |
//! | 16 | 22.7 / 59.3 | 960 / 45 | 506 888 / 983 160 |
//!
//! The one-deep skeleton is the paper's archetype and runs Figure 6;
//! this one runs deeper trees and inputs that start on one rank, such as
//! the composition subsystem's `SortJob`.

use archetype_core::{parfor_map_vec, PhaseKind};
use archetype_mp::{Ctx, Payload};

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
/// Each divide's subproblems are a `parfor` ("every time the problem is
/// split into concurrently executable subproblems a new process is
/// created") run as a plain loop, so the subtrees are solved left to
/// right. It records no phases: it has no [`Ctx`] to record them in
/// (the SPMD driver records them on every rank).
///
/// ```
/// use archetype_dc::{run_shared_recursive, CutoffPolicy, RecursiveMergesort};
///
/// let alg = RecursiveMergesort::<i64>::new();
/// let out = run_shared_recursive(&alg, vec![3, 1, 2], &CutoffPolicy::exact_depth(1, 2));
/// assert_eq!(out, vec![1, 2, 3]);
/// ```
pub fn run_shared<A: Recursive>(
    alg: &A,
    problem: A::Problem,
    policy: &CutoffPolicy,
) -> A::Solution {
    shared_node(alg, problem, 0, policy)
}

fn shared_node<A: Recursive>(
    alg: &A,
    problem: A::Problem,
    depth: usize,
    policy: &CutoffPolicy,
) -> A::Solution {
    if !policy.should_recurse(alg.size(&problem), depth) {
        return alg.solve(problem);
    }
    let parts = alg.divide(problem, policy.branching);
    assert_eq!(
        parts.len(),
        policy.branching,
        "divide must return exactly k subproblems"
    );
    let sols = parfor_map_vec(parts, |_i, part| shared_node(alg, part, depth + 1, policy));
    alg.combine(sols)
}

/// Execute the recursion over the SPMD substrate on nested process
/// groups. Must be called by every rank from within
/// [`archetype_mp::run_spmd`]; `input` must be `Some` on rank 0 and
/// `None` elsewhere, and the solution is returned on rank 0.
///
/// The whole recursion runs inside one [`Ctx::scoped`] section over
/// every rank, so the caller's collective sequence is untouched. Each
/// level of the recursion, executed by every member of the current
/// group (the current scope):
///
/// 1. the subproblem size is broadcast so all members take the same
///    cutoff branch (skipped when the depth cap or a singleton group
///    already decides locally);
/// 2. the root divides and **scatters** the `k` subproblems in a scope
///    over the `k` subgroup roots alone — exactly `k − 1` messages, no
///    matter how large the group is;
/// 3. the group splits into `k` contiguous subgroups, each of which
///    recurses **concurrently** in its own nested scope — sibling
///    subtrees may reach different depths without interfering, because
///    each scope's traffic is matched only within that scope;
/// 4. subsolutions **gather** over a scope of the same roots back to the
///    group root, which combines them — the combining tree, with all
///    groups at one level merging in parallel.
///
/// Compute phases are charged to the virtual clock through the
/// algorithm's `*_cost` hooks, so repeated runs produce bit-identical
/// results, clocks, and traces. Every rank records `Recurse` at each
/// level it descends, `Solve` at its leaf and `Merge` at each combine it
/// roots with [`Ctx::trace_phase`]; rank 0's track walks the root path
/// of the recursion tree.
///
/// The last parameter is ignored and can only be `None`: it once took a
/// phase recorder, and stays only because the frozen `benchmark/` calls
/// this function with five arguments.
pub fn run_spmd_recursive<A>(
    alg: &A,
    ctx: &mut Ctx,
    input: Option<A::Problem>,
    policy: &CutoffPolicy,
    _unused: Option<std::convert::Infallible>,
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
    let everyone: Vec<usize> = (0..ctx.nprocs()).collect();
    ctx.scoped(&everyone, RECURSION_SALT, |ctx| {
        spmd_node(alg, ctx, input, 0, policy)
    })
}

/// Salt of the scope the whole recursion runs in.
const RECURSION_SALT: u64 = 0xdc;
/// Salts of the three scopes each level enters: the roots' scatter, the
/// subgroup's descent and the roots' gather.
const SCATTER_SALT: u64 = 1;
const DESCEND_SALT: u64 = 2;
const GATHER_SALT: u64 = 3;

fn spmd_node<A>(
    alg: &A,
    ctx: &mut Ctx,
    problem: Option<A::Problem>,
    depth: usize,
    policy: &CutoffPolicy,
) -> Option<A::Solution>
where
    A: Recursive,
    A::Problem: Payload,
    A::Solution: Payload,
{
    let g = ctx.nprocs();
    // Depth caps and singleton groups cut off without communicating; the
    // size-based cutoff needs the root's problem size replicated first.
    let cut = depth >= policy.max_depth || g == 1 || {
        let size = ctx.broadcast(0, problem.as_ref().map(|p| alg.size(p) as u64));
        !policy.size_allows(size as usize)
    };
    if cut {
        return problem.map(|p| {
            ctx.charge_flops(alg.solve_cost(&p));
            ctx.trace_phase(PhaseKind::Solve, "sequential solve at the cutoff");
            alg.solve(p)
        });
    }

    ctx.trace_phase(PhaseKind::Recurse, "divide and descend into subgroups");
    let k = policy.branching.min(g);
    // Contiguous, balanced subgroups: subgroup j is roots[j]..roots[j + 1].
    let roots: Vec<usize> = (0..k).map(|j| (j * g).div_ceil(k)).collect();
    let me = ctx.rank();
    let j = roots.partition_point(|&r| r <= me) - 1;
    let subgroup: Vec<usize> = (roots[j]..roots.get(j + 1).copied().unwrap_or(g)).collect();
    let is_sub_root = roots[j] == me;

    // The k subgroup roots scatter the division and gather the
    // subsolutions in scopes of their own: k − 1 messages each way per
    // level, with the group root — a subgroup root itself — at index 0.
    let mine: Option<A::Problem> = is_sub_root.then(|| {
        let parts: Option<Vec<A::Problem>> = problem.map(|p| {
            ctx.charge_flops(alg.divide_cost(&p));
            let parts = alg.divide(p, k);
            assert_eq!(parts.len(), k, "divide must return exactly k subproblems");
            parts
        });
        ctx.scoped(&roots, SCATTER_SALT, |ctx| ctx.scatter(0, parts))
    });

    let sub_solution = ctx.scoped(&subgroup, DESCEND_SALT, |ctx| {
        spmd_node(alg, ctx, mine, depth + 1, policy)
    });

    // Combining tree: subgroup roots' solutions gather to the group root,
    // which merges them; all groups of a level combine concurrently.
    if !is_sub_root {
        return None;
    }
    let solution = sub_solution.expect("a subgroup root holds its subgroup's solution");
    let gathered = ctx.scoped(&roots, GATHER_SALT, |ctx| ctx.gather(0, solution));
    gathered.map(|parts| {
        ctx.charge_flops(alg.combine_cost(&parts));
        ctx.trace_phase(PhaseKind::Merge, "combine subsolutions up the tree");
        alg.combine(parts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use archetype_mp::{run_spmd, run_spmd_with, MachineModel, RunConfig};

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
                let got = run_shared(
                    &TreeSum,
                    input.clone(),
                    &CutoffPolicy::exact_depth(depth, k),
                );
                assert_eq!(got, expected, "depth={depth} k={k}");
            }
        }
    }

    /// The sum on rank 0 and every rank's phase kinds, from a traced
    /// SPMD recursion over `input` on `p` ranks.
    fn traced_tracks(
        p: usize,
        input: Vec<u64>,
        policy: CutoffPolicy,
    ) -> (u64, Vec<Vec<PhaseKind>>) {
        let out = run_spmd_with(p, MachineModel::ibm_sp(), RunConfig::traced(), move |ctx| {
            let inp = (ctx.rank() == 0).then(|| input.clone());
            run_spmd_recursive(&TreeSum, ctx, inp, &policy, None)
        });
        let tracks = out
            .trace
            .expect("traced run")
            .ranks
            .iter()
            .map(|rt| {
                rt.phases()
                    .expect("nothing dropped")
                    .iter()
                    .map(|&(k, _)| k)
                    .collect()
            })
            .collect();
        (out.results[0].expect("rank 0 holds the sum"), tracks)
    }

    #[test]
    fn trace_records_preorder_recursion_shape() {
        use PhaseKind::{Merge, Recurse, Solve};
        // The full binary tree of depth 2 on four ranks: every rank
        // descends both levels to its own leaf, and each internal node's
        // root records its combine.
        let (sum, tracks) = traced_tracks(4, numbers(64), CutoffPolicy::exact_depth(2, 2));
        assert_eq!(sum, numbers(64).iter().sum::<u64>());
        assert_eq!(
            tracks,
            vec![
                vec![Recurse, Recurse, Solve, Merge, Merge],
                vec![Recurse, Recurse, Solve],
                vec![Recurse, Recurse, Solve, Merge],
                vec![Recurse, Recurse, Solve],
            ]
        );
        let count = |kind| tracks.iter().flatten().filter(|&&k| k == kind).count();
        assert_eq!(count(Solve), 4, "one leaf per rank");
        assert_eq!(count(Merge), 3, "one combine per internal node");
    }

    #[test]
    fn size_floor_stops_recursion() {
        let policy = CutoffPolicy::new(2, 1000, 10);
        let (sum, tracks) = traced_tracks(4, numbers(100), policy);
        assert_eq!(sum, numbers(100).iter().sum::<u64>());
        assert_eq!(tracks[0], [PhaseKind::Solve], "below the floor: no divide");
        assert!(tracks[1..].iter().all(Vec::is_empty));
    }

    #[test]
    fn single_item_problems_never_divide() {
        let policy = CutoffPolicy::exact_depth(50, 2);
        assert!(!policy.should_recurse(1, 0));
        assert!(!policy.should_recurse(0, 0));
        assert!(policy.should_recurse(2, 0));
        let got = run_shared(&TreeSum, vec![7], &policy);
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
        let (_, tracks) = traced_tracks(8, numbers(200), CutoffPolicy::exact_depth(3, 2));
        // Rank 0 is the root at every level: it recurses three times,
        // solves its leaf, then merges on the way back up.
        assert_eq!(
            tracks[0],
            vec![Recurse, Recurse, Recurse, Solve, Merge, Merge, Merge]
        );
        // Rank 7 descends with its groups but roots none of them until its
        // own singleton leaf.
        assert_eq!(tracks[7], vec![Recurse, Recurse, Recurse, Solve]);
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
