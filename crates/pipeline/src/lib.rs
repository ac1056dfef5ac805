//! # archetype-pipeline — the pipeline (stream) archetype
//!
//! The paper's central claim is that a parallel *archetype* — a
//! computational pattern plus a parallelization strategy, from which the
//! communication structure is derived — is a reusable, nameable artifact.
//! This crate adds the classic **pipeline** archetype to the library: an
//! ordered stream of items flows through a linear chain of transform
//! stages, each stage mapped onto its own SPMD ranks, with bounded
//! credit-based flow control and deterministic in-order emission.
//!
//! A pipeline is described once by implementing [`Pipeline`] — `ingest`
//! produces item `seq` of the stream (or `None` at the end), `stages`
//! names the transform chain (each a [`Stage`] with a cost hook), and
//! `emit` folds final items, in stream order, into the output — and
//! executed by [`run_pipeline`] on the substrate's pooled SPMD executor.
//! The skeleton derives the archetype's communication pattern from that
//! description:
//!
//! * **Stage placement and replication.** Ingest, every stage and emit
//!   are priced per item off the
//!   [`MachineModel`](archetype_mp::MachineModel) cost meter (the
//!   [`Pipeline::ingest_flops`], [`Stage::flops`] and
//!   [`Pipeline::emit_flops`] hooks over a probe prefix of the stream),
//!   and every layout the ranks allow is priced by its per-item
//!   bottleneck — the busiest role's compute plus the send and receive
//!   overheads it pays per item. The cheapest runs; a tie goes to the
//!   layout on fewer ranks. The layouts are: **one rank**, which runs
//!   the whole stream with no messages while the others wait for the
//!   output (the only layout at `p = 1`, and the choice for a stream too
//!   fine to pay for its messages); **paired**, at `p = 2`, where both
//!   ranks run the whole chain — rank 0 ingests and transforms the even
//!   items, rank 1 transforms the odd ones and emits; and, at `p ≥ 3`,
//!   rank 0 ingesting, the last rank emitting and the ranks between
//!   running the stages in `k` contiguous segments for each `k` the
//!   ranks and stages allow (a stage-less chain instead streams from
//!   ingest straight to emit, at any `p ≥ 2`). A segment layout gives
//!   each segment one rank and deals the spare ranks to the bottleneck
//!   segment as extra replicas — items split round-robin across replicas
//!   and merge back in order downstream — and, mirroring the farm's
//!   comm-fraction batching, replication stops when a replica's per-item
//!   compute would fall below ten times the per-item messaging overhead
//!   (a communication-to-compute ratio of 0.1). [`PipelineStats`] names
//!   the layout that ran.
//! * **Bounded credit-based flow control.** Every stream edge carries at
//!   most [`PipelineConfig::window`] in-flight items per (producer,
//!   consumer) pair ([`archetype_mp::tags`] namespaces the item and
//!   credit-return traffic), so memory stays O(depth × window) however
//!   long the stream is, and a slow stage backpressures the whole chain
//!   in virtual time exactly as a real bounded-buffer pipeline would.
//! * **Deterministic in-order delivery.** Items carry their sequence
//!   number, replicas are chosen round-robin by sequence number, and the
//!   emit stage performs blocking matched receives in sequence order —
//!   so results, virtual clocks, and [`PipelineStats`] are bit-identical
//!   across runs and process counts.
//!
//! ```
//! use archetype_pipeline::{run_pipeline, Pipeline, PipelineConfig, Stage};
//! use archetype_mp::{run_spmd, MachineModel};
//!
//! /// Square every item of the stream 0..100 and sum the results.
//! struct Squares;
//! struct Sq;
//! impl Stage<u64> for Sq {
//!     fn transform(&self, _seq: u64, item: u64) -> u64 {
//!         item * item
//!     }
//! }
//! impl Pipeline for Squares {
//!     type Item = u64;
//!     type Out = u64;
//!     fn ingest(&self, seq: u64) -> Option<u64> {
//!         (seq < 100).then_some(seq)
//!     }
//!     fn stages(&self) -> Vec<&dyn Stage<u64>> {
//!         vec![&Sq]
//!     }
//!     fn out_identity(&self) -> u64 {
//!         0
//!     }
//!     fn emit(&self, acc: u64, _seq: u64, item: u64) -> u64 {
//!         acc + item
//!     }
//! }
//!
//! let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
//!     run_pipeline(&Squares, ctx, PipelineConfig::default()).0
//! });
//! assert!(out.results.iter().all(|&s| s == (0..100u64).map(|i| i * i).sum()));
//! ```

#![deny(missing_docs)]

pub mod apps;
pub mod skeleton;

pub use skeleton::{run_pipeline, run_sequential, Pipeline, PipelineConfig, PipelineStats, Stage};
