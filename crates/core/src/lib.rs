//! # archetype-core — the archetype framework
//!
//! Shared machinery for the parallel program archetypes of Massingill &
//! Chandy (IPPS 1999). An *archetype* combines a computational pattern with
//! a parallelization strategy; its defining practical property (paper §1.2)
//! is that the **initial archetype-based version of a program can be
//! executed sequentially**, giving the same results as parallel execution
//! for deterministic programs, so debugging happens in the sequential
//! domain.
//!
//! This crate provides exactly that: the paper's CC++ parfor / HPF
//! `forall` constructs as [`fn@parfor`] and its siblings, functions that
//! run their independent iterations as plain loops — version 1. The
//! parallel program is the SPMD skeleton of each archetype over
//! `archetype-mp`, checked against that loop. It also provides
//! archetype/phase metadata ([`archetype`]), whose grammars tests match
//! against the phases a traced run records to assert that applications
//! follow their archetype's dataflow pattern.
//!
//! ```
//! use archetype_core::parfor_map;
//!
//! let squares = parfor_map(100, |i| i * i);
//! assert_eq!(squares[7], 49); // iterations run in index order
//! ```

#![deny(missing_docs)]

pub mod archetype;
pub mod mode;
pub mod parfor;

pub use archetype::{ArchetypeInfo, PatternExpr, PhaseKind};
pub use mode::ExecutionMode;
pub use parfor::{parfor, parfor_chunks, parfor_map, parfor_map_vec, parfor_reduce};
