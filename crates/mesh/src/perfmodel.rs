//! Analytic performance model for mesh-spectral stencil computations.
//!
//! The archetype-based performance-model idea of the paper (§1.1, citing
//! the authors' technical report on mesh and mesh-spectral performance
//! analysis): because the archetype fixes the communication pattern, the
//! per-step time of a stencil application is a closed form in the machine
//! parameters — compute on the local block, a ghost exchange proportional
//! to the block perimeter, and optionally a logarithmic reduction. The
//! predictions are validated against the virtual-time simulator in tests,
//! and can answer distribution questions (block vs strip) without running
//! anything.

use archetype_mp::{MachineModel, ProcessGrid2};

/// Closed-form per-step time of a 2-D stencil computation on an
/// `nx × ny` grid of `elem_bytes`-sized cells over `pgrid`, doing
/// `flops_per_cell` work per cell, exchanging `ghost` boundary layers with
/// up to four neighbours, plus `reductions` all-reduces per step.
#[allow(clippy::too_many_arguments)]
pub fn predict_stencil_step(
    model: &MachineModel,
    nx: usize,
    ny: usize,
    elem_bytes: usize,
    pgrid: ProcessGrid2,
    flops_per_cell: f64,
    ghost: usize,
    reductions: usize,
) -> f64 {
    let local_x = (nx as f64 / pgrid.px as f64).ceil();
    let local_y = (ny as f64 / pgrid.py as f64).ceil();
    let per_msg = model.send_overhead + model.latency + model.recv_overhead;

    // Compute on the (largest) local block.
    let t_compute = local_x * local_y * flops_per_cell * model.flop_time;

    // Ghost exchange: an interior process posts all sends first, then
    // drains the receives, so the four transfers overlap — the critical
    // path is the per-side CPU overheads plus one latency plus the wire
    // time of the largest face.
    let north_south = if pgrid.px > 1 { 2.0 } else { 0.0 };
    let east_west = if pgrid.py > 1 { 2.0 } else { 0.0 };
    let n_sides = north_south + east_west;
    let wire_ns = ghost as f64 * local_y * elem_bytes as f64 * model.byte_time;
    let wire_ew = ghost as f64 * local_x * elem_bytes as f64 * model.byte_time;
    let max_wire = if north_south > 0.0 { wire_ns } else { 0.0 }.max(if east_west > 0.0 {
        wire_ew
    } else {
        0.0
    });
    let t_exchange = if n_sides > 0.0 {
        n_sides * (model.send_overhead + model.recv_overhead) + model.latency + max_wire
    } else {
        0.0
    };

    // Recursive-doubling all-reduce: each round is one overlapped
    // send+receive on the critical path; non-powers-of-two pay two extra
    // fold/unfold rounds (scalar payloads — wire time negligible).
    let p = pgrid.len();
    let t_reduce = if p > 1 {
        let mut rounds =
            (p.next_power_of_two().trailing_zeros() - u32::from(!p.is_power_of_two())) as f64;
        if !p.is_power_of_two() {
            rounds += 2.0;
        }
        reductions as f64 * rounds * per_msg
    } else {
        0.0
    };

    t_compute + t_exchange + t_reduce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::poisson::{poisson_spmd, sine_problem};
    use archetype_mp::{run_spmd, MachineModel};

    #[test]
    fn prediction_tracks_poisson_simulation_within_35_percent() {
        let n = 256;
        let steps = 20;
        let model = MachineModel::ibm_sp();
        let spec = sine_problem(n, 0.0, steps);
        for p in [4usize, 9, 16] {
            let pg = ProcessGrid2::near_square(p);
            let sim = run_spmd(p, model, move |ctx| {
                poisson_spmd(ctx, &spec, pg);
            })
            .elapsed_virtual;
            // The Poisson SPMD loop charges 8 flops/cell and performs one
            // ghost exchange + one max-reduction per sweep.
            let pred = steps as f64 * predict_stencil_step(&model, n, n, 8, pg, 8.0, 1, 1);
            let ratio = pred / sim;
            assert!(
                (0.65..=1.35).contains(&ratio),
                "p={p}: predicted {pred:.4}, simulated {sim:.4} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn model_prefers_blocks_over_strips() {
        // The ablation result, derived analytically: for a square grid the
        // near-square decomposition exchanges less than 1×P strips.
        let model = MachineModel::ibm_sp();
        for p in [16usize, 36, 64] {
            let block =
                predict_stencil_step(&model, 512, 512, 8, ProcessGrid2::near_square(p), 8.0, 1, 1);
            let strip =
                predict_stencil_step(&model, 512, 512, 8, ProcessGrid2::new(1, p), 8.0, 1, 1);
            assert!(block < strip, "p={p}: block {block} vs strip {strip}");
        }
    }

    #[test]
    fn speedup_declines_when_compute_shrinks() {
        // The Figure 12/17 mechanism in closed form: on a small grid the
        // marginal efficiency of extra processors collapses.
        let model = MachineModel::ibm_sp();
        let eff = |p: usize, n: usize| {
            let t_seq = (n * n) as f64 * 8.0 * model.flop_time;
            let pg = ProcessGrid2::near_square(p);
            t_seq / predict_stencil_step(&model, n, n, 8, pg, 8.0, 1, 1) / p as f64
        };
        assert!(eff(64, 64) < 0.3, "tiny grid, many procs: {}", eff(64, 64));
        assert!(eff(4, 1024) > 0.8, "big grid, few procs: {}", eff(4, 1024));
    }

    #[test]
    fn single_process_has_no_communication_terms() {
        let model = MachineModel::ibm_sp();
        let t = predict_stencil_step(&model, 100, 100, 8, ProcessGrid2::new(1, 1), 5.0, 1, 0);
        assert!((t - 100.0 * 100.0 * 5.0 * model.flop_time).abs() < 1e-12);
    }
}
