//! Adaptive parameter sweep on the task-farm archetype: maximize a
//! multimodal objective by recursive bisection, where the steering hint
//! (the best score found anywhere) prunes unpromising subtrees and the
//! per-evaluation cost varies ~115x across the parameter range (18 to
//! 2 062 series terms).
//!
//! Run with: `cargo run --example param_sweep --release`

use parallel_archetypes::farm::apps::SweepFarm;
use parallel_archetypes::farm::{run_farm, FarmConfig};
use parallel_archetypes::mp::{run_spmd, MachineModel};

fn main() {
    let sweep = SweepFarm {
        lo: 0.0,
        hi: 3.0,
        seeds: 48,
        max_depth: 10,
    };
    let full_tree: u64 = sweep.seeds as u64 * ((1u64 << (sweep.max_depth + 1)) - 1);
    println!(
        "maximizing f(x) = sin 5x + 0.6 sin(17x+1) + 0.3 sin 31x on [{}, {}]",
        sweep.lo, sweep.hi
    );
    println!(
        "{} seed intervals, depth {}: complete tree would evaluate {} points",
        sweep.seeds, sweep.max_depth, full_tree
    );

    let mut t1 = 0.0f64;
    for p in [1usize, 4, 8] {
        let s = sweep.clone();
        let out = run_spmd(p, MachineModel::ibm_sp(), move |ctx| {
            run_farm(&s, ctx, FarmConfig::default())
        });
        let (best, stats) = &out.results[0];
        if p == 1 {
            t1 = out.elapsed_virtual;
        }
        println!(
            "p={p}: best f({:.6}) = {:.6} after {} evals ({:.1}% of tree), \
             {} terms summed, {} stolen, {:.1} ms virtual (speedup {:.2}x)",
            best.best_x,
            best.best_score,
            best.evals,
            100.0 * best.evals as f64 / full_tree as f64,
            best.terms,
            stats.stolen,
            out.elapsed_virtual * 1e3,
            t1 / out.elapsed_virtual,
        );
        // Admissible pruning: the best score is process-count-invariant.
        assert!(out
            .results
            .iter()
            .all(|(o, _)| o.best_score == best.best_score));
    }
}
