//! Quickstart: the archetype method end to end on one-deep mergesort.
//!
//! Demonstrates the paper's development strategy:
//! 1. version 1 — the debuggable initial program, every `parfor` a `for`;
//! 2. version 2, SPMD — the distributed-memory program over the
//!    message-passing substrate, with virtual-time statistics.
//!
//! Run with: `cargo run --example quickstart --release`

use parallel_archetypes::dc::skeleton::{run_shared, run_spmd};
use parallel_archetypes::dc::OneDeepMergesort;
use parallel_archetypes::mp::{self, MachineModel};

fn main() {
    // A workload: 8 blocks of pseudo-random integers, as if the data were
    // already distributed over 8 processes (the degenerate split).
    let nblocks = 8;
    let per_block = 50_000;
    let blocks: Vec<Vec<i64>> = (0..nblocks)
        .map(|b| {
            (0..per_block)
                .map(|i| (((b * per_block + i) as i64) * 48271) % 1_000_003 - 500_000)
                .collect()
        })
        .collect();

    let alg = OneDeepMergesort::<i64>::new();

    // --- Version 1: parfor loops run as for loops. ------------------------
    let v1 = run_shared(&alg, blocks.clone());
    println!(
        "version 1 (sequential): {} blocks, total {} items, first block [{}..={}]",
        v1.len(),
        v1.iter().map(Vec::len).sum::<usize>(),
        v1[0].first().unwrap(),
        v1[0].last().unwrap(),
    );

    // --- Version 2: SPMD over message passing with a machine model. ------
    let out = mp::run_spmd(nblocks, MachineModel::ibm_sp(), |ctx| {
        let alg = OneDeepMergesort::<i64>::new();
        run_spmd(&alg, ctx, blocks[ctx.rank()].clone())
    });
    println!(
        "version 2 (SPMD):       identical to version 1: {}",
        out.results == v1
    );
    println!(
        "  simulated {} processes on {}: {:.1} ms virtual time, {} messages, {:.2} MB moved",
        nblocks,
        MachineModel::ibm_sp().name,
        out.elapsed_virtual * 1e3,
        out.stats.total_msgs(),
        out.stats.total_bytes() as f64 / 1e6,
    );

    // Verify global sortedness across block boundaries.
    let flat: Vec<i64> = out.results.iter().flatten().copied().collect();
    assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    println!("global order verified across {} items", flat.len());
}
