//! Traditional recursive divide-and-conquer (paper §2.1.1, Figure 1) —
//! the baseline the one-deep archetype is measured against.
//!
//! [`tree_mergesort_distributed_spmd`] is the distributed-memory variant
//! used for the Figure 6 comparison: each process sorts its block of the
//! input, and subsolutions merge pairwise back up a binary tree of
//! processes. This exhibits the inefficiency the paper names for the
//! combine: concurrency decays toward the root, whose final merge is one
//! process touching all `n` elements. The general `k`-way form of
//! Figure 1, on shared memory and on nested process groups — including
//! the split that inspects all the input on one process — is
//! [`crate::recursive`].

use archetype_mp::{Ctx, FixedSize};

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

/// One two-way merge in flight, from the back, into the buffer of its
/// left run: `dst[..a_len]` is what is left of `a` (still in place),
/// `b[..b_len]` what is left of `b`, and `dst[a_len + b_len..]` the
/// merged suffix written so far. The `b_len` slots in between are the
/// gap the next element goes to. While it exists it owns every element
/// of both unread prefixes; dropping it — after [`Merge::run`] returns
/// or while a panicking `Ord::cmp` unwinds through it — moves `b`'s
/// unread prefix into the gap, so afterwards `dst[..a_len + b_len]`
/// (the whole result) holds each element exactly once, whatever
/// happened.
struct Merge<T> {
    dst: *mut T,
    a_len: usize,
    b: *const T,
    b_len: usize,
}

impl<T: Ord> Merge<T> {
    /// Move the larger of the two runs' last elements to the end of the
    /// gap until one run is empty, taking from `b` on ties — so equal
    /// keys of `a` still land in front of `b`'s. The loop selects the
    /// source with arithmetic on the comparison's result rather than a
    /// branch on it: on random keys that branch mispredicts every other
    /// element, and was most of the cost of the `Peekable` merge this
    /// replaces (11 → 3.5 ms per 2 × 512 K random keys into a warm
    /// buffer).
    ///
    /// # Safety
    /// `dst` must be valid for `a_len + b_len` elements of which the
    /// first `a_len` are initialised, and `b` must point to `b_len`
    /// initialised elements outside that range; nothing else may read
    /// or drop any of them while the merge exists.
    unsafe fn run(&mut self) {
        while self.a_len > 0 && self.b_len > 0 {
            // SAFETY: both runs are non-empty, so both last elements are
            // initialised, and the gap's last slot (`a_len + b_len − 1`)
            // lies past `a`'s last (`a_len − 1`) because `b_len > 0`, so
            // source and destination are distinct. The lengths are
            // updated before the next comparison, so an unwinding `cmp`
            // sees a consistent state.
            unsafe {
                let a_last = self.dst.add(self.a_len - 1);
                let b_last = self.b.add(self.b_len - 1);
                let take_a = *b_last < *a_last;
                let src = if take_a { a_last.cast_const() } else { b_last };
                std::ptr::copy_nonoverlapping(src, self.dst.add(self.a_len + self.b_len - 1), 1);
                self.a_len -= take_a as usize;
                self.b_len -= !take_a as usize;
            }
        }
    }
}

impl<T> Drop for Merge<T> {
    fn drop(&mut self) {
        // SAFETY: `run`'s contract — `b`'s unread prefix is initialised
        // and lies outside `dst`'s range, and the gap it goes to is
        // exactly `b_len` slots right after `a`'s unread prefix.
        unsafe { std::ptr::copy_nonoverlapping(self.b, self.dst.add(self.a_len), self.b_len) }
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
        // its `Merge`, so it drops after the merge has put all `len`
        // elements into the buffer (reserved with that capacity).
        unsafe { self.vec.set_len(self.len) }
    }
}

/// Merge two sorted vectors into one sorted vector, stably: equal keys
/// keep their input order, `a`'s before `b`'s. The merge writes into
/// `a`'s buffer from the back, so it allocates nothing when `a` already
/// has room for `b` (a left part that [`Vec::split_off`] cut its right
/// part from, as every mergesort divide here does) and grows it once
/// otherwise; the elements are moved, never cloned.
pub fn merge_two<T: Ord>(mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
    let (a_len, b_len) = (a.len(), b.len());
    a.reserve_exact(b_len);
    {
        let a = SetLenOnDrop {
            len: a_len + b_len,
            vec: &mut a,
        };
        // SAFETY: setting `b`'s length to zero hands its elements over to
        // `merge` (`b` then frees only its buffer, which outlives
        // `merge`, declared after it); `a`'s buffer, a separate
        // allocation, holds its own `a_len` elements and has room for
        // `b_len` more, and the guard above gives it the full length
        // once `merge` is gone.
        unsafe {
            b.set_len(0);
            let mut merge = Merge {
                dst: a.vec.as_mut_ptr(),
                a_len,
                b: b.as_ptr(),
                b_len,
            };
            merge.run();
        }
    }
    a
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use archetype_mp::{run_spmd, MachineModel};

    fn scrambled(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i * 48271) % 65537 - 32768).collect()
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
        assert_eq!(
            merge_two(Vec::with_capacity(8), vec![1, 2, 3]),
            vec![1, 2, 3]
        );
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
            // Either run may be `a`, and `a` may have to grow or not.
            for (a_parity, a_has_room) in [(0, false), (0, true), (1, false), (1, true)] {
                let drops = std::cell::RefCell::new(Vec::new());
                let comparisons_left = std::cell::Cell::new(budget);
                let run = |parity: u32| -> Vec<Tracked<'_>> {
                    (0..n)
                        .filter(|k| k % 2 == parity)
                        .map(|key| Tracked {
                            key,
                            drops: &drops,
                            comparisons_left: &comparisons_left,
                        })
                        .collect()
                };
                let (mut a, b) = (run(a_parity), run(1 - a_parity));
                if a_has_room {
                    a.reserve_exact(b.len());
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let merged = merge_two(a, b);
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

    /// `merge_two(a, b)` is the stable sort of `a` followed by `b`.
    fn assert_merges_like_the_stable_sort(a: Vec<Keyed>, b: Vec<Keyed>) {
        let mut expected: Vec<Keyed> = a.iter().chain(&b).copied().collect();
        expected.sort();
        assert_eq!(origins(&merge_two(a, b)), origins(&expected));
    }

    #[test]
    fn merge_two_is_stable_on_keyed_ties_in_both_argument_orders() {
        let shapes: [(&[u8], &[u8]); 6] = [
            (&[1, 1, 2, 4, 4], &[0, 1, 1, 4, 5]),
            (&[7; 5], &[7; 3]),
            (&[0, 3, 3, 3, 9], &[3]),
            (&[2, 2], &[0, 1, 2, 2, 2, 3]),
            (&[5], &[5]),
            (&[], &[1, 1]),
        ];
        for (x, y) in shapes {
            for room in [false, true] {
                for (mut a, b) in [
                    (keyed('a', x), keyed('b', y)),
                    (keyed('b', y), keyed('a', x)),
                ] {
                    if room {
                        a.reserve_exact(b.len());
                    }
                    assert_merges_like_the_stable_sort(a, b);
                }
            }
        }
    }

    #[test]
    fn merge_two_writes_into_a_buffer_that_has_room() {
        let cases: [(Vec<i64>, Vec<i64>); 5] = [
            (vec![1, 4, 9], vec![0, 4, 5, 10]),
            (vec![1, 2, 3], vec![]),
            (vec![], vec![2, 3, 3]),
            (vec![], vec![]),
            (vec![6, 7], vec![1, 2, 3]),
        ];
        for (a, b) in cases {
            for spare in [0, 1, 5] {
                let mut a = a.clone();
                a.reserve_exact(b.len() + spare);
                let ptr = a.as_ptr();
                let mut expected: Vec<i64> = a.iter().chain(&b).copied().collect();
                expected.sort_unstable();
                let merged = merge_two(a, b.clone());
                assert_eq!(merged, expected);
                assert_eq!(merged.as_ptr(), ptr, "{expected:?}: a new buffer");
            }
        }
        // The mergesort divide's left part: `split_off` leaves it the
        // whole parent buffer, so its combine writes there.
        let mut left: Vec<i64> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let right = left.split_off(600);
        let ptr = left.as_ptr();
        left.sort_unstable();
        let mut right = right;
        right.sort_unstable();
        let merged = merge_two(left, right);
        assert_eq!(merged.as_ptr(), ptr);
        assert_eq!(merged, (0..1000).collect::<Vec<_>>());
    }

    /// `input` cut into `p` contiguous blocks, one per rank.
    fn distributed(input: &[i64], p: usize) -> Vec<Vec<i64>> {
        (0..p)
            .map(|r| {
                let (s, l) = archetype_mp::topology::block_range(input.len(), p, r);
                input[s..s + l].to_vec()
            })
            .collect()
    }

    #[test]
    fn tree_mergesort_sorts_for_many_process_counts() {
        for p in [1usize, 2, 3, 4, 6, 8, 13] {
            let input = scrambled(997);
            let mut expected = input.clone();
            expected.sort_unstable();
            let blocks = distributed(&input, p);
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                tree_mergesort_distributed_spmd(ctx, blocks[ctx.rank()].clone())
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
        let input = scrambled(1 << 16);
        let run_at = |p: usize| {
            let blocks = distributed(&input, p);
            run_spmd(p, MachineModel::intel_delta(), move |ctx| {
                tree_mergesort_distributed_spmd(ctx, blocks[ctx.rank()].clone());
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
            let blocks = distributed(&input, p);
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
