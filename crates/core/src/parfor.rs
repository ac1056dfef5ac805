//! The paper's exploitable-concurrency constructs.
//!
//! `parfor` is CC++'s parallel loop (paper Figure 4); `forall` is HPF's
//! (Figures 10 and 13). The archetype contract is that iterations are
//! **independent**: the body may not observe another iteration's effects.
//! Version 1 of an archetype program runs them as plain loops in index
//! order (§1.2); the parallel program is the SPMD skeleton, so these
//! functions mark where the concurrency is rather than exploit it. The
//! bodies are `Fn`, not `FnMut`, so an iteration cannot reach another
//! through captured state without interior mutability.

/// Run `body(i)` for every `i` in `0..n`, in index order. The paper's
/// `parfor (i = 0; i < n; i++)`.
pub fn parfor<F: Fn(usize)>(n: usize, body: F) {
    (0..n).for_each(body)
}

/// Run `body(i)` for every `i` in `0..n` and collect the results in index
/// order.
pub fn parfor_map<F: Fn(usize) -> R, R>(n: usize, body: F) -> Vec<R> {
    (0..n).map(body).collect()
}

/// Apply `body(chunk_index, chunk)` to disjoint mutable chunks of `data`
/// of size `chunk_len` (the final chunk may be shorter). This is the
/// "each process operates on its local section" pattern expressed on
/// shared memory.
pub fn parfor_chunks<T, F: Fn(usize, &mut [T])>(data: &mut [T], chunk_len: usize, body: F) {
    assert!(chunk_len > 0, "chunk length must be positive");
    for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
        body(i, chunk);
    }
}

/// Consume `items`, applying `body(index, item)` to each, and collect the
/// results in index order. The moving equivalent of [`parfor_map`], used by
/// skeleton drivers that pass ownership of local blocks through phases.
pub fn parfor_map_vec<T, R, F: Fn(usize, T) -> R>(items: Vec<T>, body: F) -> Vec<R> {
    items
        .into_iter()
        .enumerate()
        .map(|(i, t)| body(i, t))
        .collect()
}

/// Reduce `body(0) ⊕ body(1) ⊕ … ⊕ body(n−1)` with the associative
/// operator `op` from its `identity`, folding left to right. The SPMD
/// skeletons reduce the same terms in another association
/// (`Ctx::all_reduce`), so the two agree bit for bit only for exactly
/// associative operators (integer sum, max, min); floating-point sums may
/// differ by rounding, the nondeterminism the paper explicitly allows for
/// reductions (§3.2).
pub fn parfor_reduce<F: Fn(usize) -> R, R, Op: Fn(R, R) -> R>(
    n: usize,
    identity: R,
    body: F,
    op: Op,
) -> R {
    (0..n).map(body).fold(identity, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn parfor_runs_every_iteration_once() {
        let hits = Cell::new(0u64);
        parfor(1000, |_i| hits.set(hits.get() + 1));
        assert_eq!(hits.get(), 1000);
    }

    #[test]
    fn parfor_map_preserves_index_order() {
        let v = parfor_map(257, |i| i as i64 - 3);
        assert_eq!(v.len(), 257);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as i64 - 3);
        }
    }

    #[test]
    fn parfor_chunks_partitions_disjointly() {
        let mut data = vec![0u32; 103];
        parfor_chunks(&mut data, 10, |ci, chunk| {
            for x in chunk.iter_mut() {
                *x += 1 + ci as u32;
            }
        });
        // Every element written exactly once, by its chunk's index.
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, 1 + (i / 10) as u32, "idx {i}");
        }
    }

    #[test]
    fn parfor_chunks_handles_short_tail() {
        let mut data = vec![0u8; 7];
        parfor_chunks(&mut data, 3, |ci, chunk| {
            assert!(chunk.len() == 3 || (ci == 2 && chunk.len() == 1));
        });
    }

    #[test]
    fn reduce_integer_sum_is_the_closed_form() {
        for n in [0usize, 1, 2, 1000] {
            let sum = parfor_reduce(n, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(sum, (n as u64).saturating_sub(1) * n as u64 / 2, "n={n}");
        }
    }

    #[test]
    fn reduce_max_finds_the_largest_term() {
        let max = parfor_reduce(500, i64::MIN, |i| ((i * 37) % 101) as i64, i64::max);
        assert_eq!(max, 100);
    }

    #[test]
    fn reduce_empty_range_returns_identity() {
        let r = parfor_reduce(0, 42i32, |_| 0, |a, b| a + b);
        assert_eq!(r, 42);
    }
}
