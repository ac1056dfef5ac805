//! Analytic performance model for the one-deep divide-and-conquer
//! archetype.
//!
//! The paper (§1.1) proposes that archetypes "may also be helpful in
//! developing performance models for classes of programs with common
//! structure", citing the authors' mesh/mesh-spectral performance-model
//! report. This module is that idea applied to one-deep sorting: a closed
//! form for the SPMD execution time from the machine parameters alone —
//! no simulation — validated against the virtual-time simulator in tests.

use archetype_mp::MachineModel;

use crate::recursive::CutoffPolicy;
use crate::traditional::{merge_flops, sort_flops};

/// Closed-form prediction of the one-deep mergesort SPMD time for `n`
/// items on `p` processes with `oversample` samples per process.
///
/// Terms follow the phases of the skeleton:
/// local sort; sample all-gather (ring, `p − 1` rounds); splitter sort;
/// repartition; all-to-all exchange (`p − 1` rounds moving `(1 − 1/p)` of
/// the local block); local multiway merge.
pub fn predict_one_deep_mergesort(
    model: &MachineModel,
    n: usize,
    p: usize,
    oversample: usize,
) -> f64 {
    let ft = model.flop_time;
    let local = n as f64 / p as f64;
    let elem = 8.0; // bytes per i64/f64 item
    let rounds = (p - 1) as f64;
    let per_msg = model.send_overhead + model.latency + model.recv_overhead;

    // Solve phase: local sequential sort.
    let t_solve = sort_flops(local as usize) * ft;

    // Sample all-gather: ring of p−1 rounds, each carrying one sample set.
    let sample_bytes = oversample as f64 * elem;
    let t_allgather = rounds * (per_msg + sample_bytes * model.byte_time);

    // Splitter computation (replicated).
    let t_params = sort_flops(p * oversample) * ft;

    // Repartition bookkeeping.
    let t_partition = local * ft;

    // All-to-all: p−1 exchange rounds; the whole non-resident fraction of
    // the local block crosses the wire.
    let t_exchange = rounds * per_msg + local * (1.0 - 1.0 / p as f64) * elem * model.byte_time;

    // Local multiway merge of ~p runs.
    let t_merge = merge_flops(local as usize) * (p as f64).log2().max(1.0) * ft;

    t_solve + t_allgather + t_params + t_partition + t_exchange + t_merge
}

/// Smallest block size for which dividing a sort in two across two
/// processes beats solving it sequentially under `model` — the
/// performance-model-chosen recursion cutoff of the recursive
/// divide-and-conquer skeleton.
///
/// The comparison is the closed-form analogue of one recursion level:
/// sequential time `sort(n)` against divide (linear inspection) + one
/// subproblem shipped out and one subsolution shipped back (`n/2`
/// elements each way) + the slower child's `sort(n/2)` + the combining
/// merge. Below the returned size, communication dominates the saved
/// compute and the skeleton solves sequentially.
pub fn sort_recursion_cutoff(model: &MachineModel, elem_bytes: usize) -> usize {
    let ft = model.flop_time;
    let per_msg = model.send_overhead + model.latency + model.recv_overhead;
    let mut n = 4usize;
    while n < (1 << 30) {
        let seq = sort_flops(n) * ft;
        let half = n / 2;
        let wire = per_msg + (half * elem_bytes) as f64 * model.byte_time;
        let split = (n as f64 + merge_flops(n)) * ft // divide + combine
            + 2.0 * wire // subproblem down, subsolution up
            + sort_flops(half) * ft; // the critical-path child
        if split < seq {
            return n;
        }
        n *= 2;
    }
    1 << 30
}

/// The model-derived [`CutoffPolicy`] for the recursive sorting
/// applications: recurse `branching`-way while blocks stay above the
/// machine's [`sort_recursion_cutoff`], with a generous depth cap as a
/// termination backstop for pathological divides.
pub fn recursion_policy(model: &MachineModel, branching: usize, elem_bytes: usize) -> CutoffPolicy {
    CutoffPolicy::new(branching, sort_recursion_cutoff(model, elem_bytes), 40)
}

/// [`sort_recursion_cutoff`]'s analogue for the recursive closest-pair
/// application, using its cost model (`10 n log₂ n` solve, linear
/// splitter divide and strip combine, 16-byte points on the wire).
pub fn closest_recursion_cutoff(model: &MachineModel) -> usize {
    let ft = model.flop_time;
    let per_msg = model.send_overhead + model.latency + model.recv_overhead;
    let solve = |n: usize| 10.0 * n.max(1) as f64 * (n.max(1) as f64).log2().max(1.0);
    let mut n = 4usize;
    while n < (1 << 30) {
        let seq = solve(n) * ft;
        let half = n / 2;
        let wire = per_msg + (half * 16) as f64 * model.byte_time;
        let split = (2.0 * n as f64 + 8.0 * n as f64) * ft // divide + combine
            + 2.0 * wire // subproblem down, candidates up
            + solve(half) * ft; // the critical-path child
        if split < seq {
            return n;
        }
        n *= 2;
    }
    1 << 30
}

/// The model-derived [`CutoffPolicy`] for the recursive closest-pair
/// application.
pub fn closest_recursion_policy(model: &MachineModel, branching: usize) -> CutoffPolicy {
    CutoffPolicy::new(branching, closest_recursion_cutoff(model), 40)
}

/// Machine-independent estimate of the total work of sorting `n` items
/// recursively: the sequential `c·n·log₂n` solve plus one linear merge
/// pass per recursion level down to `cutoff`-sized leaves. This is the
/// estimate a composition allocator (`crates/compose`) prices a sort
/// stage with when sharing ranks between plan branches — flop-equivalents
/// only, so the same plan allocates identically on every machine model.
///
/// ```
/// use archetype_dc::perfmodel::mergesort_work_flops;
/// // More merge levels -> more total work; never below the plain sort.
/// assert!(mergesort_work_flops(4096, 64) > mergesort_work_flops(4096, 1024));
/// assert!(mergesort_work_flops(4096, 8192) >= 4.0 * 4096.0 * 12.0);
/// ```
pub fn mergesort_work_flops(n: usize, cutoff: usize) -> f64 {
    let levels = if n <= cutoff.max(1) {
        0.0
    } else {
        (n as f64 / cutoff.max(1) as f64).log2().ceil()
    };
    sort_flops(n) + levels * merge_flops(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mergesort::OneDeepMergesort;
    use crate::skeleton::run_spmd as dc_spmd;
    use archetype_mp::{run_spmd, MachineModel};

    fn simulated_time(n: usize, p: usize, oversample: usize, model: MachineModel) -> f64 {
        let data: Vec<i64> = (0..n as i64).map(|i| (i * 48271) % 99991).collect();
        let blocks: Vec<Vec<i64>> = (0..p)
            .map(|r| {
                let (s, l) = archetype_mp::topology::block_range(n, p, r);
                data[s..s + l].to_vec()
            })
            .collect();
        run_spmd(p, model, |ctx| {
            let alg = OneDeepMergesort::<i64>::with_oversample(oversample);
            dc_spmd(&alg, ctx, blocks[ctx.rank()].clone());
        })
        .elapsed_virtual
    }

    #[test]
    fn prediction_tracks_simulation_within_35_percent() {
        for model in [MachineModel::intel_delta(), MachineModel::ibm_sp()] {
            for p in [2usize, 4, 8, 16] {
                let n = 200_000;
                let sim = simulated_time(n, p, 16, model);
                let pred = predict_one_deep_mergesort(&model, n, p, 16);
                let ratio = pred / sim;
                assert!(
                    (0.65..=1.35).contains(&ratio),
                    "{} p={p}: predicted {pred:.4}, simulated {sim:.4} (ratio {ratio:.2})",
                    model.name
                );
            }
        }
    }

    #[test]
    fn predicted_speedup_is_monotone_then_saturating() {
        let model = MachineModel::intel_delta();
        let n = 1_000_000;
        let speedup =
            |p| sort_flops(n) * model.flop_time / predict_one_deep_mergesort(&model, n, p, 16);
        let (s8, s32, s64) = (speedup(8), speedup(32), speedup(64));
        assert!(s8 < s32 && s32 < s64, "{s8} {s32} {s64}");
        // Efficiency must fall with p (communication grows).
        assert!(s64 / 64.0 < s8 / 8.0);
    }

    #[test]
    fn recursion_cutoff_tracks_network_quality() {
        // A faster network should let the recursion profitably divide
        // smaller blocks; zero-cost communication always pays.
        let fast = sort_recursion_cutoff(&MachineModel::cray_t3d(), 8);
        let slow = sort_recursion_cutoff(&MachineModel::workstation_network(), 8);
        let free = sort_recursion_cutoff(&MachineModel::zero_comm(), 8);
        assert!(fast < slow, "t3d cutoff {fast} < ethernet cutoff {slow}");
        assert!(free <= fast);
        assert!(fast < 1 << 20, "a real machine still has a finite cutoff");
        // Heavier elements raise the cutoff (more bytes per item moved).
        assert!(
            sort_recursion_cutoff(&MachineModel::ibm_sp(), 64)
                >= sort_recursion_cutoff(&MachineModel::ibm_sp(), 8)
        );
        // The closest-pair cutoff follows the same ordering.
        assert!(
            closest_recursion_cutoff(&MachineModel::cray_t3d())
                <= closest_recursion_cutoff(&MachineModel::workstation_network())
        );
        assert!(closest_recursion_cutoff(&MachineModel::ibm_sp()) < 1 << 20);
    }

    #[test]
    fn recursion_policy_is_usable_end_to_end() {
        use crate::mergesort::RecursiveMergesort;
        use crate::recursive::run_spmd_recursive;
        let model = MachineModel::cray_t3d();
        let policy = recursion_policy(&model, 2, 8);
        assert!(policy.min_items >= 2);
        let data: Vec<i64> = (0..40_000).map(|i| (i * 48271) % 99991).collect();
        let mut expected = data.clone();
        expected.sort_unstable();
        let out = run_spmd(8, model, move |ctx| {
            let local = (ctx.rank() == 0).then(|| data.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &expected);
    }

    #[test]
    fn zero_comm_prediction_is_pure_compute() {
        let model = MachineModel::zero_comm();
        let n = 100_000;
        let p = 8;
        let pred = predict_one_deep_mergesort(&model, n, p, 8);
        let compute_only =
            (sort_flops(n / p) + sort_flops(p * 8) + (n / p) as f64 + merge_flops(n / p) * 3.0)
                * model.flop_time;
        assert!((pred - compute_only).abs() < 1e-12);
    }
}
