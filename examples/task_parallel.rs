//! Task-parallel composition of data-parallel computations — the paper's
//! future-work item on archetype composition, demonstrated at the
//! substrate level: eight processes split into two groups, each running
//! in its own `Ctx::scoped` section, that run *different* data-parallel
//! computations concurrently (different numbers of collectives each),
//! then combine their results with a world-level reduction.
//!
//! Group A (ranks 0–3): distributed dot product of two vectors.
//! Group B (ranks 4–7): distributed power iteration estimating the
//! dominant eigenvalue of a small matrix.
//!
//! Run with: `cargo run --example task_parallel --release`

use parallel_archetypes::mp::{run_spmd, MachineModel};

fn main() {
    let n = 100_000usize;
    let out = run_spmd(8, MachineModel::ibm_sp(), |ctx| {
        let group: Vec<usize> = if ctx.rank() < 4 {
            (0..4).collect()
        } else {
            (4..8).collect()
        };
        let task_result = ctx.scoped(&group, 0, |ctx| {
            let me = ctx.rank();
            let gp = ctx.nprocs();
            if ctx.global_rank() < 4 {
                // --- Task A: dot product of x·y with x_i = sin(i), y_i = cos(i).
                let (start, len) = parallel_archetypes::mp::topology::block_range(n, gp, me);
                let local: f64 = (start..start + len)
                    .map(|i| (i as f64).sin() * (i as f64).cos())
                    .sum();
                ctx.charge_items(len, 10.0);
                ctx.all_reduce(local, |a, b| a + b)
            } else {
                // --- Task B: power iteration on the 4x4 matrix A = tridiag(1,2,1),
                // one row per process; dominant eigenvalue is 2 + 2cos(π/5).
                let row = me; // 4 rows, 4 processes
                let a = |i: usize, j: usize| -> f64 {
                    if i == j {
                        2.0
                    } else if i.abs_diff(j) == 1 {
                        1.0
                    } else {
                        0.0
                    }
                };
                let mut x = [1.0f64; 4];
                let mut lambda = 0.0;
                for _ in 0..60 {
                    // Each process computes its row of A·x, then all-gathers.
                    let yi: f64 = (0..4).map(|j| a(row, j) * x[j]).sum();
                    let y = ctx.gather(0, yi);
                    let y = ctx.broadcast(0, y.map(|v| [v[0], v[1], v[2], v[3]]));
                    let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
                    lambda = norm / x.iter().map(|v| v * v).sum::<f64>().sqrt();
                    x = [y[0] / norm, y[1] / norm, y[2] / norm, y[3] / norm];
                    ctx.charge_items(4, 8.0);
                }
                lambda * x.iter().map(|v| v * v).sum::<f64>().sqrt() // = λ since x normalized
            }
        });

        // Rejoin the world: combine both tasks' results in one reduction
        // (sum over distinct per-group representatives).
        let contribution = if ctx.rank() == group[0] {
            task_result
        } else {
            0.0
        };
        let combined = ctx.all_reduce(contribution, |a, b| a + b);
        (task_result, combined)
    });

    let dot = out.results[0].0;
    let lambda = out.results[7].0;
    let expected_lambda = 2.0 + 2.0 * (std::f64::consts::PI / 5.0).cos();
    println!("task A (ranks 0-3): dot product        = {dot:.6}");
    println!("task B (ranks 4-7): dominant eigenvalue = {lambda:.6} (exact {expected_lambda:.6})");
    println!("world reduction combined both: {:.6}", out.results[0].1);
    println!("virtual time: {:.3} ms", out.elapsed_virtual * 1e3);
    assert!((lambda - expected_lambda).abs() < 1e-6);
    assert!((out.results[0].1 - (dot + lambda)).abs() < 1e-9);
}
