//! The one-deep divide-and-conquer skeleton (paper §2.1.2–§2.3).
//!
//! An algorithm instance describes, through the [`OneDeep`] trait, how to:
//!
//! 1. **Split** — sample the local input, combine samples into split
//!    parameters, partition local input into one piece per process, and
//!    assemble received pieces into the new local input;
//! 2. **Solve** — solve the local subproblem sequentially;
//! 3. **Merge** — sample the local subsolution, combine samples into merge
//!    parameters ("splitters"), repartition the local subsolution, and
//!    locally merge the received pieces.
//!
//! Either phase may be *degenerate* (paper: "for many problems either the
//! split or the merge step is degenerate"): a degenerate partition puts the
//! whole local block in the process's own slot and empty blocks elsewhere.
//!
//! Two drivers execute the same trait:
//!
//! - [`run_shared`] is the paper's "version 1": a `parfor` over process
//!   indices on shared memory, run as a plain loop;
//! - [`run_spmd`] is "version 2": one SPMD process per block over the
//!   message-passing substrate, with all-to-all redistribution and
//!   replicated parameter computation, charged against the virtual clock.
//!
//! Equality of the two executions is the paper's semantics-preservation
//! claim, asserted by this crate's tests for every application.

use archetype_core::{parfor_map, parfor_map_vec, PhaseKind};
use archetype_mp::{Ctx, Payload};

/// A problem expressed in one-deep divide-and-conquer form.
///
/// `In` is a process's block of problem input, `Mid` its subsolution after
/// the solve phase, and `Out` its block of the final output. The `*_cost`
/// hooks report modeled flop counts for the virtual clock; they default to
/// zero (useful for tests) and are overridden by the applications.
pub trait OneDeep: Sync {
    /// A local block of problem input.
    type In: Send + Sync;
    /// A local subsolution.
    type Mid: Send + Sync;
    /// A local block of the final output.
    type Out: Send;
    /// Parameters of the split phase (e.g. pivots). `()` when degenerate.
    type SplitParams: Clone + Send + Sync;
    /// Parameters of the merge phase (e.g. splitters). `()` when degenerate.
    type MergeParams: Clone + Send + Sync;
    /// Per-process sample from which split parameters are computed.
    type SplitSample: Clone + Send;
    /// Per-process sample from which merge parameters are computed.
    type MergeSample: Clone + Send;

    // ---- split phase -----------------------------------------------------

    /// Sample the local input ("parameters for the split are computed using
    /// a small sample of the problem data").
    fn split_sample(&self, local: &Self::In) -> Self::SplitSample;

    /// Combine all processes' samples into the split parameters.
    fn split_params(&self, samples: &[Self::SplitSample], nparts: usize) -> Self::SplitParams;

    /// Partition the local input into `nparts` pieces; piece `d` will be
    /// delivered to process `d`. `self_idx` is this process's index, so a
    /// degenerate split can keep everything local.
    fn split_partition(
        &self,
        local: Self::In,
        params: &Self::SplitParams,
        nparts: usize,
        self_idx: usize,
    ) -> Vec<Self::In>;

    /// Assemble the pieces received from all processes (in source order)
    /// into this process's new local input.
    fn split_assemble(&self, pieces: Vec<Self::In>) -> Self::In;

    // ---- solve phase -----------------------------------------------------

    /// Solve the local subproblem with a sequential algorithm.
    fn solve(&self, local: Self::In) -> Self::Mid;

    // ---- merge phase -----------------------------------------------------

    /// Sample the local subsolution.
    fn merge_sample(&self, local: &Self::Mid) -> Self::MergeSample;

    /// Combine all processes' samples into the merge parameters
    /// (the "splitters" of the paper's mergesort).
    fn merge_params(&self, samples: &[Self::MergeSample], nparts: usize) -> Self::MergeParams;

    /// Repartition the local subsolution into `nparts` pieces for
    /// redistribution; piece `d` goes to process `d`.
    fn merge_partition(
        &self,
        local: Self::Mid,
        params: &Self::MergeParams,
        nparts: usize,
        self_idx: usize,
    ) -> Vec<Self::Mid>;

    /// Locally merge the pieces received from all processes (in source
    /// order) into this process's block of the final output.
    fn merge_assemble(&self, pieces: Vec<Self::Mid>) -> Self::Out;

    // ---- modeled costs (flop-equivalents) for the virtual clock ----------

    /// Cost of sampling + partitioning the local input in the split phase.
    fn split_cost(&self, _local: &Self::In) -> f64 {
        0.0
    }
    /// Cost of computing split/merge parameters from `nparts` samples.
    fn params_cost(&self, _nparts: usize) -> f64 {
        0.0
    }
    /// Cost of the sequential local solve.
    fn solve_cost(&self, _local: &Self::In) -> f64 {
        0.0
    }
    /// Cost of sampling + repartitioning the local subsolution.
    fn merge_partition_cost(&self, _local: &Self::Mid) -> f64 {
        0.0
    }
    /// Cost of the local merge of received pieces.
    fn merge_assemble_cost(&self, _pieces: &[Self::Mid]) -> f64 {
        0.0
    }
}

/// Transpose a `src × dest` matrix of pieces into `dest × src` — the
/// shared-memory equivalent of the all-to-all exchange.
pub fn transpose<T>(rows: Vec<Vec<T>>) -> Vec<Vec<T>> {
    if rows.is_empty() {
        return Vec::new();
    }
    let ncols = rows[0].len();
    debug_assert!(rows.iter().all(|r| r.len() == ncols));
    let mut cols: Vec<Vec<T>> = (0..ncols).map(|_| Vec::with_capacity(rows.len())).collect();
    for row in rows {
        for (c, item) in row.into_iter().enumerate() {
            cols[c].push(item);
        }
    }
    cols
}

/// Execute the one-deep skeleton on shared memory ("version 1").
///
/// `inputs[i]` is the initial block of logical process `i`; the return
/// value's slot `i` is that process's block of the output. Every `parfor`
/// over process indices runs as a `for`, which is the paper's
/// sequentially-debuggable initial version; [`run_spmd`] must return the
/// same blocks for deterministic algorithms. With no [`Ctx`] to record
/// into, it records no phases; [`run_spmd`] records them on every rank.
///
/// ```
/// use archetype_dc::{run_shared, OneDeepMergesort};
///
/// let alg = OneDeepMergesort::<i64>::new();
/// let out = run_shared(&alg, vec![vec![3, 1], vec![2]]);
/// let flat: Vec<i64> = out.into_iter().flatten().collect();
/// assert_eq!(flat, vec![1, 2, 3]);
/// ```
pub fn run_shared<A: OneDeep>(alg: &A, inputs: Vec<A::In>) -> Vec<A::Out> {
    let n = inputs.len();
    assert!(n > 0, "need at least one block");

    // Split phase.
    let samples = parfor_map(n, |i| alg.split_sample(&inputs[i]));
    let sparams = alg.split_params(&samples, n);
    let partitioned = parfor_map_vec(inputs, |i, local| {
        alg.split_partition(local, &sparams, n, i)
    });
    let exchanged = transpose(partitioned);
    let locals = parfor_map_vec(exchanged, |_i, pieces| alg.split_assemble(pieces));

    // Solve phase.
    let mids = parfor_map_vec(locals, |_i, local| alg.solve(local));

    // Merge phase.
    let msamples = parfor_map(n, |i| alg.merge_sample(&mids[i]));
    let mparams = alg.merge_params(&msamples, n);
    let repartitioned = parfor_map_vec(mids, |i, local| alg.merge_partition(local, &mparams, n, i));
    let exchanged = transpose(repartitioned);
    parfor_map_vec(exchanged, |_i, pieces| alg.merge_assemble(pieces))
}

/// Execute the one-deep skeleton as one SPMD process ("version 2").
///
/// Must be called from within [`archetype_mp::run_spmd`] by every rank.
/// Split/merge parameters are computed redundantly in every process from
/// all-gathered samples (one of the strategies in paper §2.2); data moves
/// via all-to-all exchanges. Compute phases are charged to the virtual
/// clock through the algorithm's `*_cost` hooks.
///
/// Every rank records Split, Solve and Merge with [`Ctx::trace_phase`],
/// so each rank's track of a traced run is the one-deep sentence.
pub fn run_spmd<A>(alg: &A, ctx: &mut Ctx, local: A::In) -> A::Out
where
    A: OneDeep,
    A::In: Payload,
    A::Mid: Payload,
    A::SplitSample: Payload + Sync,
    A::MergeSample: Payload + Sync,
{
    let n = ctx.nprocs();
    let me = ctx.rank();

    // Split phase: samples -> (replicated) parameters -> all-to-all.
    ctx.trace_phase(PhaseKind::Split, "split parameters, all-to-all");
    ctx.charge_flops(alg.split_cost(&local));
    let samples = ctx.all_gather(alg.split_sample(&local));
    let sparams = alg.split_params(&samples, n);
    ctx.charge_flops(alg.params_cost(n));
    let pieces = alg.split_partition(local, &sparams, n, me);
    let received = ctx.all_to_all(pieces);
    let local = alg.split_assemble(received);

    // Solve phase.
    ctx.trace_phase(PhaseKind::Solve, "local solve");
    ctx.charge_flops(alg.solve_cost(&local));
    let mid = alg.solve(local);

    // Merge phase: samples -> (replicated) parameters -> all-to-all -> merge.
    ctx.trace_phase(PhaseKind::Merge, "splitters, all-to-all, merge");
    ctx.charge_flops(alg.merge_partition_cost(&mid));
    let msamples = ctx.all_gather(alg.merge_sample(&mid));
    let mparams = alg.merge_params(&msamples, n);
    ctx.charge_flops(alg.params_cost(n));
    let pieces = alg.merge_partition(mid, &mparams, n, me);
    let received = ctx.all_to_all(pieces);
    ctx.charge_flops(alg.merge_assemble_cost(&received));
    alg.merge_assemble(received)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_is_involution() {
        let m = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let t = transpose(m.clone());
        assert_eq!(t, vec![vec![1, 4], vec![2, 5], vec![3, 6]]);
        assert_eq!(transpose(t), m);
    }

    #[test]
    fn transpose_empty() {
        let m: Vec<Vec<u8>> = vec![];
        assert!(transpose(m).is_empty());
    }

    /// A toy one-deep algorithm: "sort" blocks of numbers with degenerate
    /// split and splitter-free merge (route every value to the process that
    /// owns its residue class, then sort locally). Exercises the driver
    /// plumbing without real sampling.
    struct ResidueRoute;

    impl OneDeep for ResidueRoute {
        type In = Vec<u64>;
        type Mid = Vec<u64>;
        type Out = Vec<u64>;
        type SplitParams = ();
        type MergeParams = ();
        type SplitSample = ();
        type MergeSample = ();

        fn split_sample(&self, _l: &Vec<u64>) {}
        fn split_params(&self, _s: &[()], _n: usize) {}
        fn split_partition(
            &self,
            local: Vec<u64>,
            _p: &(),
            nparts: usize,
            self_idx: usize,
        ) -> Vec<Vec<u64>> {
            // Degenerate split: keep everything local.
            let mut out: Vec<Vec<u64>> = (0..nparts).map(|_| Vec::new()).collect();
            out[self_idx] = local;
            out
        }
        fn split_assemble(&self, pieces: Vec<Vec<u64>>) -> Vec<u64> {
            pieces.into_iter().flatten().collect()
        }
        fn solve(&self, mut local: Vec<u64>) -> Vec<u64> {
            local.sort_unstable();
            local
        }
        fn merge_sample(&self, _l: &Vec<u64>) {}
        fn merge_params(&self, _s: &[()], _n: usize) {}
        fn merge_partition(
            &self,
            local: Vec<u64>,
            _p: &(),
            nparts: usize,
            _self_idx: usize,
        ) -> Vec<Vec<u64>> {
            let mut out: Vec<Vec<u64>> = (0..nparts).map(|_| Vec::new()).collect();
            for v in local {
                out[(v % nparts as u64) as usize].push(v);
            }
            out
        }
        fn merge_assemble(&self, pieces: Vec<Vec<u64>>) -> Vec<u64> {
            let mut all: Vec<u64> = pieces.into_iter().flatten().collect();
            all.sort_unstable();
            all
        }
    }

    fn toy_inputs(n: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| {
                (0..50u64)
                    .map(|j| (j * 7919 + i as u64 * 104729) % 1000)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn spmd_agrees_with_shared() {
        use archetype_mp::{run_spmd as mp_run, MachineModel};
        for n in [1usize, 2, 3, 4, 5, 7, 8] {
            let shared = run_shared(&ResidueRoute, toy_inputs(n));
            let inputs = toy_inputs(n);
            let spmd = mp_run(n, MachineModel::ibm_sp(), |ctx| {
                let local = inputs[ctx.rank()].clone();
                run_spmd(&ResidueRoute, ctx, local)
            });
            assert_eq!(shared, spmd.results, "n={n}");
        }
    }

    #[test]
    fn every_output_block_holds_one_residue_class() {
        let n = 4;
        let out = run_shared(&ResidueRoute, toy_inputs(n));
        for (i, block) in out.iter().enumerate() {
            assert!(block.iter().all(|v| (*v % n as u64) as usize == i));
            assert!(block.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn trace_records_split_solve_merge() {
        use archetype_mp::{run_spmd_with, MachineModel, RunConfig};
        use PhaseKind::{Merge, Solve, Split};
        let inputs = toy_inputs(2);
        let out = run_spmd_with(2, MachineModel::ibm_sp(), RunConfig::traced(), |ctx| {
            run_spmd(&ResidueRoute, ctx, inputs[ctx.rank()].clone())
        });
        for rt in &out.trace.expect("traced run").ranks {
            let kinds: Vec<PhaseKind> = rt.phases().unwrap().iter().map(|&(k, _)| k).collect();
            assert_eq!(kinds, [Split, Solve, Merge], "rank {}", rt.rank);
        }
    }
}
