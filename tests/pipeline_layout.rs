//! The pipeline planner places a stream by its modelled per-item
//! bottleneck: on one rank when an item's work is too fine to pay for
//! its messages, on two ranks that both transform at `p = 2`, and as
//! fused, replicated segments above that. These tests pin each layout on
//! the streams that motivated it; `tests/equivalence.rs` checks that no
//! layout changes a bit of the output.

use parallel_archetypes::mp::{run_spmd, MachineModel};
use parallel_archetypes::pipeline::{run_pipeline, run_sequential, Pipeline, PipelineConfig};

mod common;
use common::{digest_bits, forecast_topk, image_bits, image_chain};

#[test]
fn a_stream_too_fine_for_its_messages_runs_on_one_rank() {
    let stream = forecast_topk();
    let (expected, chunks) = run_sequential(&stream);
    assert_eq!(chunks, 103);
    for p in [2usize, 3, 8] {
        let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            run_pipeline(&stream, ctx, PipelineConfig::default())
        });
        for (rank, (digest, stats)) in out.results.iter().enumerate() {
            assert_eq!(
                digest_bits(digest),
                digest_bits(&expected),
                "p={p} rank={rank}"
            );
            assert_eq!(
                (stats.forwarded, stats.credits),
                (0, 0),
                "p={p}: no item sent"
            );
            assert_eq!(stats.items, chunks);
            assert_eq!(stats.transforms, 2 * chunks);
            assert_eq!(
                (stats.segments, stats.replicas, stats.idle_ranks),
                (0, 0, p as u64 - 1),
                "p={p}"
            );
        }
    }
}

#[test]
fn two_ranks_both_transform_the_image_chain() {
    let chain = image_chain();
    let (expected, tiles) = run_sequential(&chain);
    let stages = chain.stages().len() as u64;
    let one = run_spmd(1, MachineModel::ibm_sp(), |ctx| {
        run_pipeline(&chain, ctx, PipelineConfig::default())
    });
    let two = run_spmd(2, MachineModel::ibm_sp(), |ctx| {
        run_pipeline(&chain, ctx, PipelineConfig::default())
    });
    for (summary, stats) in &two.results {
        assert_eq!(image_bits(summary), image_bits(&expected));
        assert_eq!(stats.forwarded, tiles, "one message per item");
        assert_eq!(stats.transforms, tiles * stages);
        assert_eq!(
            (stats.segments, stats.replicas, stats.idle_ranks),
            (1, 2, 0)
        );
    }
    assert!(
        two.elapsed_virtual < 0.6 * one.elapsed_virtual,
        "paired {} s against one rank {} s",
        two.elapsed_virtual,
        one.elapsed_virtual
    );
}

#[test]
fn four_ranks_fuse_the_image_chain_on_two_replicas() {
    let chain = image_chain();
    let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
        run_pipeline(&chain, ctx, PipelineConfig::default()).1
    });
    let stats = out.results[0];
    assert_eq!(
        (stats.segments, stats.replicas, stats.idle_ranks),
        (1, 2, 0)
    );
}
