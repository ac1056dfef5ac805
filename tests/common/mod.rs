//! Shared helpers and fixtures for the integration-test suites.
#![allow(dead_code)] // each suite uses its own subset

use parallel_archetypes::core::PhaseKind;
use parallel_archetypes::farm::{Farm, WorkScope};
use parallel_archetypes::mp::{ProcessGrid2, RankTrace, SpmdResult};
use parallel_archetypes::pipeline::apps::{ChunkedStream, Digest, ImageChain, ImageSummary};
use parallel_archetypes::pipeline::{Pipeline, Stage as PipeStage};

/// The phase kinds one rank recorded, in order: the sentence its
/// archetype's grammar checks. Panics when the rank's ring dropped
/// events, since a partial track proves nothing.
pub fn phase_kinds(track: &RankTrace) -> Vec<PhaseKind> {
    track
        .phases()
        .unwrap_or_else(|e| panic!("{e}"))
        .iter()
        .map(|&(kind, _)| kind)
        .collect()
}

/// A traced run with each rank's result paired with the phase kinds its
/// track recorded, so a determinism snapshot compares the traces too.
pub fn with_phases<R>(out: SpmdResult<R>) -> SpmdResult<(R, Vec<PhaseKind>)> {
    let trace = out.trace.expect("a traced run carries its trace");
    SpmdResult {
        results: out
            .results
            .into_iter()
            .zip(&trace.ranks)
            .map(|(r, track)| (r, phase_kinds(track)))
            .collect(),
        elapsed_virtual: out.elapsed_virtual,
        rank_times: out.rank_times,
        stats: out.stats,
        wall_us: out.wall_us,
        recv_counts: out.recv_counts,
        leaked_messages: out.leaked_messages,
        trace: None,
    }
}

/// Run `run` twice and assert the two executions are bit-identical: the
/// per-rank results (which may bundle traces and statistics), every
/// rank's final virtual clock, and the elapsed virtual time. This is the
/// workspace's determinism snapshot, shared by the per-archetype
/// equivalence tests so each crate doesn't grow its own copy.
///
/// Returns the first run for follow-up assertions (e.g. comparing
/// against a sequential oracle).
pub fn assert_bit_identical_runs<R, F>(label: &str, run: F) -> SpmdResult<R>
where
    R: PartialEq + std::fmt::Debug,
    F: Fn() -> SpmdResult<R>,
{
    let a = run();
    let b = run();
    assert_eq!(
        a.results, b.results,
        "{label}: results must be identical across runs"
    );
    for (r, (ta, tb)) in a.rank_times.iter().zip(&b.rank_times).enumerate() {
        assert!(
            ta.to_bits() == tb.to_bits(),
            "{label}: rank {r} clock must be bit-identical ({ta} vs {tb})"
        );
    }
    assert_eq!(
        a.elapsed_virtual.to_bits(),
        b.elapsed_virtual.to_bits(),
        "{label}: elapsed virtual time must be bit-identical"
    );
    a
}

/// A minimal farm whose roots spawn child tasks, stressing the
/// work-redistribution protocol.
pub struct SpawnFarm {
    pub roots: u64,
    pub spawn: u64,
}
impl Farm for SpawnFarm {
    type Task = (u64, bool);
    type Out = u64;
    type Hint = ();
    fn seed(&self) -> Vec<(u64, bool)> {
        (0..self.roots).map(|k| (k, true)).collect()
    }
    fn work(&self, (k, root): (u64, bool), scope: &mut WorkScope<'_, Self>) {
        if root {
            for i in 0..self.spawn {
                scope.spawn((k * 100 + i, false));
            }
        } else {
            scope.emit(k);
        }
    }
    fn out_identity(&self) -> u64 {
        0
    }
    fn reduce(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// A minimal pipeline with a configurable stage count. Its ingest and
/// emit cost 20 µs per item on the IBM SP and each stage 200 µs, against
/// 10 µs of messaging per item at each end: a non-empty stream is worth
/// streaming there at every `p ≥ 2`, whatever its stage count, so the
/// suites exercise the streaming layouts.
pub struct NStage {
    pub items: u64,
    pub stages: Vec<AddStage>,
}
#[derive(Clone, Copy)]
pub struct AddStage(pub u64);
impl PipeStage<u64> for AddStage {
    fn transform(&self, _seq: u64, item: u64) -> u64 {
        item.wrapping_add(self.0)
    }
    fn flops(&self, _item: &u64) -> f64 {
        20_000.0
    }
}
impl Pipeline for NStage {
    type Item = u64;
    type Out = u64;
    fn ingest(&self, seq: u64) -> Option<u64> {
        (seq < self.items).then_some(seq)
    }
    fn ingest_flops(&self, _item: &u64) -> f64 {
        2_000.0
    }
    fn stages(&self) -> Vec<&dyn PipeStage<u64>> {
        self.stages
            .iter()
            .map(|s| s as &dyn PipeStage<u64>)
            .collect()
    }
    fn out_identity(&self) -> u64 {
        0
    }
    fn emit(&self, acc: u64, _seq: u64, item: u64) -> u64 {
        acc.wrapping_add(item)
    }
    fn emit_flops(&self, _item: &u64) -> f64 {
        2_000.0
    }
}

/// The apps' benchmark image chain: 48 tiles of 32 × 32, 24 blur passes.
pub fn image_chain() -> ImageChain {
    ImageChain::new(256, 192, 32, 24)
}

/// The forecast composite's top-k atom: 6 576 keys in 64-sample chunks.
pub fn forecast_topk() -> ChunkedStream {
    let values = (0..6576u64)
        .map(|i| (i * 7919 % 1000) as f64 / 100.0)
        .collect();
    ChunkedStream::new(values, 64, 8, 64, 3.0)
}

/// An image summary's bits, for exact comparison.
pub fn image_bits(s: &ImageSummary) -> [u64; 4] {
    [s.tiles, s.checksum, s.sum.to_bits(), s.max.to_bits()]
}

/// A top-k digest's bits, for exact comparison.
pub fn digest_bits(d: &Digest) -> Vec<u64> {
    let mut bits = vec![
        d.count,
        d.sum.to_bits(),
        d.k,
        d.lo.to_bits(),
        d.hi.to_bits(),
    ];
    bits.extend(d.top.iter().map(|v| v.to_bits()));
    bits.extend(&d.hist);
    bits
}

/// A process grid for `p` ranks.
pub fn grid_for(p: usize) -> ProcessGrid2 {
    match p {
        4 => ProcessGrid2::new(2, 2),
        6 => ProcessGrid2::new(2, 3),
        8 => ProcessGrid2::new(2, 4),
        _ => ProcessGrid2::new(1, p),
    }
}
