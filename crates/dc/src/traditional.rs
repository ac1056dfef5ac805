//! Traditional recursive divide-and-conquer (paper §2.1.1, Figure 1) —
//! the baseline the one-deep archetype is measured against.
//!
//! Two executions are provided:
//!
//! - [`run_fork_join`]: a generic binary fork/join skeleton on shared memory
//!   (rayon `join` in parallel mode), the direct transcription of Figure 1;
//! - [`tree_mergesort_spmd`]: the distributed-memory variant used for the
//!   Figure 6 comparison — data fans out from process 0 down a binary tree
//!   of splits, leaves solve locally, and subsolutions merge back up the
//!   tree. This exhibits exactly the inefficiencies the paper names: the
//!   split inspects all input data, and concurrency decays toward the root
//!   (the final merge is one process touching all `n` elements).

use archetype_core::ExecutionMode;
use archetype_mp::{Ctx, FixedSize};

/// A problem expressed as traditional *binary* recursive divide-and-conquer
/// (the paper's Figure 1 baseline). The general `k`-way, group-aware form
/// lives in [`crate::recursive::Recursive`].
pub trait ForkJoin: Sync {
    /// Problem type.
    type Problem: Send;
    /// Solution type.
    type Solution: Send;

    /// True when the problem should be solved directly.
    fn is_base(&self, p: &Self::Problem) -> bool;
    /// Solve a base-case problem directly.
    fn base_solve(&self, p: Self::Problem) -> Self::Solution;
    /// Split a problem into two subproblems.
    fn divide(&self, p: Self::Problem) -> (Self::Problem, Self::Problem);
    /// Combine two subsolutions.
    fn combine(&self, a: Self::Solution, b: Self::Solution) -> Self::Solution;
}

/// Execute a [`ForkJoin`] problem; in parallel mode each split spawns the
/// two subproblems with `rayon::join` ("every time the problem is split
/// into concurrently-executable subproblems a new process is created").
pub fn run_fork_join<A: ForkJoin>(alg: &A, p: A::Problem, mode: ExecutionMode) -> A::Solution {
    if alg.is_base(&p) {
        return alg.base_solve(p);
    }
    let (left, right) = alg.divide(p);
    let (a, b) = match mode {
        ExecutionMode::Sequential => (
            run_fork_join(alg, left, mode),
            run_fork_join(alg, right, mode),
        ),
        ExecutionMode::Parallel => rayon::join(
            || run_fork_join(alg, left, mode),
            || run_fork_join(alg, right, mode),
        ),
    };
    alg.combine(a, b)
}

/// Modeled flop cost per element of one comparison-and-move in a merge
/// or sort inner loop. Shared by the Figure 6 cost model so the
/// traditional and one-deep algorithms are charged consistently.
pub const SORT_FLOPS_PER_CMP: f64 = 4.0;

/// Flop model of sequentially sorting `n` items: `c · n log₂ n`.
pub fn sort_flops(n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    SORT_FLOPS_PER_CMP * n as f64 * (n as f64).log2()
}

/// Flop model of merging sorted runs totalling `n` items.
pub fn merge_flops(n: usize) -> f64 {
    SORT_FLOPS_PER_CMP * n as f64
}

/// Distributed traditional mergesort over the message-passing substrate.
///
/// The full input starts at rank 0 (the paper's first inefficiency: the
/// split "can require inspection of all the input data"). It is halved down
/// a binary tree of processes, sorted at the leaves, and pairwise-merged
/// back up; rank 0 returns the fully sorted data, other ranks return their
/// (empty) remainder. `nprocs` need not be a power of two — a rank splits
/// as long as it has a subtree partner in range.
///
/// Returns the sorted data on rank 0 and `None` elsewhere.
pub fn tree_mergesort_spmd<T>(ctx: &mut Ctx, input: Option<Vec<T>>) -> Option<Vec<T>>
where
    T: FixedSize + Ord,
{
    let n = ctx.nprocs();
    let me = ctx.rank();
    const TAG_SPLIT: u64 = 0x7001;
    const TAG_MERGE: u64 = 0x7002;

    // --- split phase: fan out down the binary tree -------------------------
    // Round k (k = ceil(log2 n)-1 .. 0): rank r < 2^k with r + 2^k < n sends
    // the upper half of its current data to rank r + 2^k.
    let mut levels = 0usize;
    while (1usize << levels) < n {
        levels += 1;
    }

    let mut data: Vec<T> = if me == 0 {
        input.expect("rank 0 must supply the input")
    } else {
        Vec::new()
    };

    for k in (0..levels).rev() {
        let bit = 1usize << k;
        let group = bit << 1;
        if me.is_multiple_of(group) && me + bit < n {
            // Inspecting/copying the data to split it costs linear work.
            ctx.charge_items(data.len(), 1.0);
            let upper = data.split_off(data.len() / 2);
            ctx.send(me + bit, TAG_SPLIT, upper);
        } else if me % group == bit {
            data = ctx.recv(me - bit, TAG_SPLIT);
        }
    }

    // --- solve phase: leaves sort locally ----------------------------------
    ctx.charge_flops(sort_flops(data.len()));
    data.sort_unstable();

    // --- merge phase: fan back in up the tree ------------------------------
    for k in 0..levels {
        let bit = 1usize << k;
        let group = bit << 1;
        if me % group == bit {
            ctx.send(me - bit, TAG_MERGE, std::mem::take(&mut data));
        } else if me.is_multiple_of(group) && me + bit < n {
            let other: Vec<T> = ctx.recv(me + bit, TAG_MERGE);
            ctx.charge_flops(merge_flops(data.len() + other.len()));
            data = merge_two(data, other);
        }
    }

    if me == 0 {
        Some(data)
    } else {
        None
    }
}

/// Distributed traditional mergesort starting from *distributed* data —
/// the variant measured in Figure 6, where both algorithms begin with the
/// input already in per-process blocks. Each rank sorts its block, then
/// subsolutions merge pairwise up a binary tree; concurrency decays toward
/// the root, whose final merge touches all `n` elements sequentially (the
/// paper's second inefficiency: "the amount of actual concurrency varies
/// over the lifetime of the algorithm").
///
/// Returns the sorted data on rank 0 and `None` elsewhere.
pub fn tree_mergesort_distributed_spmd<T>(ctx: &mut Ctx, local: Vec<T>) -> Option<Vec<T>>
where
    T: FixedSize + Ord,
{
    let n = ctx.nprocs();
    let me = ctx.rank();
    const TAG_MERGE: u64 = 0x7003;

    let mut levels = 0usize;
    while (1usize << levels) < n {
        levels += 1;
    }

    let mut data = local;
    ctx.charge_flops(sort_flops(data.len()));
    data.sort_unstable();

    for k in 0..levels {
        let bit = 1usize << k;
        let group = bit << 1;
        if me % group == bit {
            ctx.send(me - bit, TAG_MERGE, std::mem::take(&mut data));
        } else if me.is_multiple_of(group) && me + bit < n {
            let other: Vec<T> = ctx.recv(me + bit, TAG_MERGE);
            ctx.charge_flops(merge_flops(data.len() + other.len()));
            data = merge_two(data, other);
        }
    }

    if me == 0 {
        Some(data)
    } else {
        None
    }
}

/// One two-way merge in flight: two sorted runs read front to back and
/// the cursor their elements are moved to. While it exists it owns every
/// element not yet moved; dropping it — after [`Merge::run`] returns or
/// while a panicking `Ord::cmp` unwinds through it — moves the rest of
/// `left`, then the rest of `right`, to `dst`, so afterwards the
/// destination holds each element exactly once, whatever happened.
struct Merge<T> {
    left: *const T,
    left_len: usize,
    right: *const T,
    right_len: usize,
    dst: *mut T,
}

impl<T: Ord> Merge<T> {
    /// Move elements to `dst` in order until one run is empty, taking
    /// from `left` on ties. The loop selects the source with arithmetic
    /// on the comparison's result rather than a branch on it: on random
    /// keys that branch mispredicts every other element, and was most of
    /// the cost of the `Peekable` merge this replaces (11 → 3.5 ms per
    /// 2 × 512 K random keys into a warm buffer).
    ///
    /// # Safety
    /// `left` and `right` must point to `left_len` and `right_len`
    /// initialised elements that nothing else will read or drop; `dst`
    /// must be valid for `left_len + right_len` writes and may overlap
    /// `right` only so that `right` starts `left_len` elements past
    /// `dst` (the in-place layout: an unread element is never
    /// overwritten, because the write cursor trails the `right` cursor
    /// by the count of `left` elements still to come).
    unsafe fn run(&mut self) {
        while self.left_len > 0 && self.right_len > 0 {
            // SAFETY: both runs are non-empty, so both cursors point at
            // initialised elements, and `dst` has room for every element
            // not yet moved; with `left` non-empty `dst` is still short
            // of `right`, so source and destination are distinct. All
            // cursors are updated before the next comparison, so an
            // unwinding `cmp` sees a consistent state.
            unsafe {
                let take_right = *self.right < *self.left;
                let src = if take_right { self.right } else { self.left };
                std::ptr::copy_nonoverlapping(src, self.dst, 1);
                self.dst = self.dst.add(1);
                self.right = self.right.add(take_right as usize);
                self.right_len -= take_right as usize;
                self.left = self.left.add(!take_right as usize);
                self.left_len -= !take_right as usize;
            }
        }
    }
}

impl<T> Drop for Merge<T> {
    fn drop(&mut self) {
        // SAFETY: `run`'s contract — the unread parts of both runs are
        // initialised and `dst` has room for exactly that many elements.
        // `left` never overlaps `dst`; `right` may (in place it *is*
        // `dst` once `left` is used up), hence the overlapping copy.
        unsafe {
            std::ptr::copy_nonoverlapping(self.left, self.dst, self.left_len);
            std::ptr::copy(self.right, self.dst.add(self.left_len), self.right_len);
        }
    }
}

/// Gives `vec` its final length when dropped, i.e. also when a merge
/// into its spare capacity unwinds — so the elements moved there are
/// dropped with it, once.
struct SetLenOnDrop<'a, T> {
    vec: &'a mut Vec<T>,
    len: usize,
}

impl<T> Drop for SetLenOnDrop<'_, T> {
    fn drop(&mut self) {
        // SAFETY: the only user, `merge_two`, declares this guard before
        // its `Merge`, so it drops after the merge has moved all `len`
        // elements into the buffer (reserved with that capacity).
        unsafe { self.vec.set_len(self.len) }
    }
}

/// Merge two sorted vectors into one sorted vector, stably: equal keys
/// keep their input order, `a`'s before `b`'s. One allocation (the
/// result); the elements are moved, never cloned.
pub fn merge_two<T: Ord>(mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
    let (left_len, right_len) = (a.len(), b.len());
    let mut out = Vec::with_capacity(left_len + right_len);
    {
        let out = SetLenOnDrop {
            len: left_len + right_len,
            vec: &mut out,
        };
        // SAFETY: setting the lengths to zero hands the elements over to
        // `merge` (the vectors then free only their buffers, which
        // outlive `merge`, declared after them); `out`'s fresh buffer
        // overlaps neither and has room for all of them.
        unsafe {
            a.set_len(0);
            b.set_len(0);
            let mut merge = Merge {
                left: a.as_ptr(),
                left_len,
                right: b.as_ptr(),
                right_len,
                dst: out.vec.as_mut_ptr(),
            };
            merge.run();
        }
    }
    out
}

/// Merge the sorted halves `run[..mid]` and `run[mid..]` in place,
/// stably, through `scratch`'s spare capacity (at least `mid` elements;
/// its length stays zero).
pub(crate) fn merge_halves<T: Ord>(run: &mut [T], mid: usize, scratch: &mut Vec<T>) {
    assert!(mid <= run.len() && scratch.is_empty() && scratch.capacity() >= mid);
    let base = run.as_mut_ptr();
    // SAFETY: the left half is moved bitwise to `scratch` (capacity
    // checked above), leaving a hole of `mid` elements in front of the
    // right half — exactly `Merge::run`'s in-place layout. `merge` owns
    // the moved elements and puts each back into `run` before it is
    // gone, so `run` is whole again on return and on unwind, and
    // `scratch` (length zero) never drops anything.
    unsafe {
        std::ptr::copy_nonoverlapping(base, scratch.as_mut_ptr(), mid);
        let mut merge = Merge {
            left: scratch.as_ptr(),
            left_len: mid,
            right: base.add(mid),
            right_len: run.len() - mid,
            dst: base,
        };
        merge.run();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    struct MergesortRec;
    impl ForkJoin for MergesortRec {
        type Problem = Vec<i64>;
        type Solution = Vec<i64>;
        fn is_base(&self, p: &Vec<i64>) -> bool {
            p.len() <= 8
        }
        fn base_solve(&self, mut p: Vec<i64>) -> Vec<i64> {
            p.sort_unstable();
            p
        }
        fn divide(&self, mut p: Vec<i64>) -> (Vec<i64>, Vec<i64>) {
            let right = p.split_off(p.len() / 2);
            (p, right)
        }
        fn combine(&self, a: Vec<i64>, b: Vec<i64>) -> Vec<i64> {
            merge_two(a, b)
        }
    }

    fn scrambled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % 65537 - 32768).collect()
    }

    #[test]
    fn recursive_skeleton_sorts_in_both_modes() {
        let input = scrambled(3000);
        let mut expected = input.clone();
        expected.sort_unstable();
        for mode in ExecutionMode::both() {
            let got = run_fork_join(&MergesortRec, input.clone(), mode);
            assert_eq!(got, expected, "{mode}");
        }
    }

    #[test]
    fn recursive_base_case_only() {
        let got = run_fork_join(&MergesortRec, vec![3, 1, 2], ExecutionMode::Parallel);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn merge_two_interleaves() {
        assert_eq!(
            merge_two(vec![1, 3, 5], vec![2, 3, 6, 7]),
            vec![1, 2, 3, 3, 5, 6, 7]
        );
        assert_eq!(merge_two(Vec::<i32>::new(), vec![1]), vec![1]);
        assert_eq!(merge_two(vec![1], Vec::<i32>::new()), vec![1]);
    }

    /// An item ordered by `key` alone: `origin` is invisible to `Ord`, so
    /// it shows which of two equal keys came first.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Keyed {
        pub(crate) key: u8,
        pub(crate) origin: (char, usize),
    }
    impl PartialEq for Keyed {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Keyed {}
    impl PartialOrd for Keyed {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Keyed {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    pub(crate) fn keyed(side: char, keys: &[u8]) -> Vec<Keyed> {
        keys.iter()
            .enumerate()
            .map(|(i, &key)| Keyed {
                key,
                origin: (side, i),
            })
            .collect()
    }

    pub(crate) fn origins(merged: &[Keyed]) -> Vec<(u8, char, usize)> {
        merged
            .iter()
            .map(|k| (k.key, k.origin.0, k.origin.1))
            .collect()
    }

    #[test]
    fn merge_two_is_stable_a_before_b_on_ties() {
        let merged = merge_two(keyed('a', &[1, 1, 2, 4, 4]), keyed('b', &[0, 1, 1, 4, 5]));
        assert_eq!(
            origins(&merged),
            vec![
                (0, 'b', 0),
                (1, 'a', 0),
                (1, 'a', 1),
                (1, 'b', 1),
                (1, 'b', 2),
                (2, 'a', 2),
                (4, 'a', 3),
                (4, 'a', 4),
                (4, 'b', 3),
                (5, 'b', 4),
            ]
        );
        // One key everywhere: all of `a` in order, then all of `b`.
        let merged = merge_two(keyed('a', &[7; 5]), keyed('b', &[7; 3]));
        let expected: Vec<_> = (0..5)
            .map(|i| (7, 'a', i))
            .chain((0..3).map(|i| (7, 'b', i)))
            .collect();
        assert_eq!(origins(&merged), expected);
    }

    #[test]
    fn merge_two_handles_empty_and_disjoint_sides() {
        assert_eq!(merge_two(Vec::<i32>::new(), Vec::new()), Vec::<i32>::new());
        assert_eq!(merge_two(vec![1, 2, 3], Vec::new()), vec![1, 2, 3]);
        assert_eq!(merge_two(Vec::new(), vec![1, 2, 3]), vec![1, 2, 3]);
        // All of `a` below all of `b`, and the reverse.
        assert_eq!(merge_two(vec![1, 2], vec![3, 4, 5]), vec![1, 2, 3, 4, 5]);
        assert_eq!(merge_two(vec![3, 4, 5], vec![1, 2]), vec![1, 2, 3, 4, 5]);
        // Zero-sized elements: pointer arithmetic must not be what
        // counts them.
        assert_eq!(merge_two(vec![(); 3], vec![(); 4]).len(), 7);
        // Owned (non-`Copy`) elements are moved, not duplicated.
        let words = |w: &[&str]| w.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            merge_two(words(&["ant", "cat"]), words(&["bee", "dog", "eel"])),
            words(&["ant", "bee", "cat", "dog", "eel"])
        );
    }

    /// An element that counts its drops and whose comparison panics on
    /// request — the unsafe merge must drop each element exactly once,
    /// however the merge ends.
    struct Tracked<'a> {
        key: u32,
        drops: &'a std::cell::RefCell<Vec<u32>>,
        comparisons_left: &'a std::cell::Cell<i64>,
    }
    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.drops.borrow_mut().push(self.key);
        }
    }
    impl PartialEq for Tracked<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl Eq for Tracked<'_> {}
    impl PartialOrd for Tracked<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tracked<'_> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let left = self.comparisons_left.get();
            assert!(left != 0, "comparison budget exhausted");
            self.comparisons_left.set(left - 1);
            self.key.cmp(&other.key)
        }
    }

    /// Every key of `evens ∪ odds` dropped exactly once.
    fn assert_each_dropped_once(drops: &std::cell::RefCell<Vec<u32>>, n: u32) {
        let mut seen = drops.borrow().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn unsafe_merges_drop_every_element_exactly_once_even_when_cmp_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let n = 40u32;
        // Budget −1 never panics; the others panic at the first, a
        // middle and the last possible comparison.
        for budget in [-1i64, 0, 1, 17, 38] {
            for in_place in [false, true] {
                let drops = std::cell::RefCell::new(Vec::new());
                let comparisons_left = std::cell::Cell::new(budget);
                let run = |keys: std::ops::Range<u32>, parity: u32| -> Vec<Tracked<'_>> {
                    keys.filter(|k| k % 2 == parity)
                        .map(|key| Tracked {
                            key,
                            drops: &drops,
                            comparisons_left: &comparisons_left,
                        })
                        .collect()
                };
                let (evens, odds) = (run(0..n, 0), run(0..n, 1));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let merged = if in_place {
                        let mut all = evens;
                        let mid = all.len();
                        all.extend(odds);
                        let mut scratch = Vec::with_capacity(mid);
                        merge_halves(&mut all, mid, &mut scratch);
                        all
                    } else {
                        merge_two(evens, odds)
                    };
                    assert!(drops.borrow().is_empty(), "nothing dropped by merging");
                    merged.iter().map(|t| t.key).collect::<Vec<_>>()
                }));
                match outcome {
                    Ok(keys) => {
                        assert_eq!(budget, -1, "a finite budget of {budget} must panic");
                        assert_eq!(keys, (0..n).collect::<Vec<_>>());
                    }
                    Err(_) => assert!(budget >= 0),
                }
                assert_each_dropped_once(&drops, n);
            }
        }
    }

    #[test]
    fn merge_halves_is_stable_and_leaves_scratch_empty() {
        let mut run = keyed('a', &[1, 3, 3, 9]);
        run.extend(keyed('b', &[0, 3, 9, 9, 9]));
        let mut scratch = Vec::with_capacity(4);
        merge_halves(&mut run, 4, &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(
            origins(&run),
            vec![
                (0, 'b', 0),
                (1, 'a', 0),
                (3, 'a', 1),
                (3, 'a', 2),
                (3, 'b', 1),
                (9, 'a', 3),
                (9, 'b', 2),
                (9, 'b', 3),
                (9, 'b', 4),
            ]
        );
        // Degenerate splits are no-ops.
        let mut solo = vec![1, 2, 3];
        let mut scratch = Vec::with_capacity(3);
        merge_halves(&mut solo, 0, &mut scratch);
        merge_halves(&mut solo, 3, &mut scratch);
        assert_eq!(solo, vec![1, 2, 3]);
    }

    #[test]
    fn tree_mergesort_sorts_for_many_process_counts() {
        for p in [1usize, 2, 3, 4, 6, 8, 13] {
            let input = scrambled(997);
            let mut expected = input.clone();
            expected.sort_unstable();
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                let inp = (ctx.rank() == 0).then(|| input.clone());
                tree_mergesort_spmd(ctx, inp)
            });
            assert_eq!(
                out.results[0].as_ref().expect("root has data"),
                &expected,
                "p={p}"
            );
            for r in 1..p {
                assert!(out.results[r].is_none());
            }
        }
    }

    #[test]
    fn tree_mergesort_speedup_saturates() {
        // The paper's point: concurrency decays toward the root, so speedup
        // grows sublinearly. Compare modeled times at P=4 and P=32 and check
        // the efficiency (speedup/P) drops substantially.
        let n_items = 1 << 16;
        let run_at = |p: usize| {
            let input = scrambled(n_items);
            run_spmd(p, MachineModel::intel_delta(), move |ctx| {
                let inp = (ctx.rank() == 0).then(|| input.clone());
                tree_mergesort_spmd(ctx, inp);
            })
            .elapsed_virtual
        };
        let t1 = run_at(1);
        let t4 = run_at(4);
        let t32 = run_at(32);
        let eff4 = t1 / t4 / 4.0;
        let eff32 = t1 / t32 / 32.0;
        assert!(t4 < t1, "some speedup at P=4");
        assert!(
            eff32 < eff4 * 0.8,
            "efficiency must decay: {eff4} -> {eff32}"
        );
    }

    #[test]
    fn tree_mergesort_distributed_sorts() {
        for p in [1usize, 2, 3, 5, 8] {
            let input = scrambled(500);
            let mut expected = input.clone();
            expected.sort_unstable();
            let blocks: Vec<Vec<i64>> = (0..p)
                .map(|r| {
                    let (s, l) = archetype_mp::topology::block_range(input.len(), p, r);
                    input[s..s + l].to_vec()
                })
                .collect();
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                tree_mergesort_distributed_spmd(ctx, blocks[ctx.rank()].clone())
            });
            assert_eq!(out.results[0].as_ref().unwrap(), &expected, "p={p}");
        }
    }

    #[test]
    fn sort_flops_model_is_superlinear() {
        assert!(sort_flops(2000) > 2.0 * sort_flops(1000));
        assert_eq!(sort_flops(0), 1.0);
        assert_eq!(sort_flops(1), 1.0);
    }
}
