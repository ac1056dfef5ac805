//! # parallel-archetypes
//!
//! A Rust implementation of **"Parallel Program Archetypes"** (Berna L.
//! Massingill and K. Mani Chandy, Caltech, IPPS 1999): reusable parallel
//! program skeletons that combine a *computational pattern* with a
//! *parallelization strategy*, from which the program's dataflow and
//! communication structure follows.
//!
//! The workspace implements the paper's two archetypes in full —
//! **one-deep divide-and-conquer** ([`dc`]) and **mesh-spectral**
//! ([`mesh`]) — on top of a from-scratch SPMD message-passing substrate
//! with a virtual-time machine model ([`mp`]), plain-loop `parfor`
//! helpers for version-1 programs ([`core`]), and the
//! numerical kernels the applications need ([`numerics`]).
//!
//! ## The archetype method, in code
//!
//! The paper's development strategy maps to this API as:
//!
//! 1. write the algorithm once against an archetype trait (e.g.
//!    [`dc::OneDeep`]);
//! 2. run **version 1** with [`dc::run_shared`]: every `parfor` a plain
//!    loop, the sequential program the paper debugs;
//! 3. run **version 2** with [`dc::run_spmd`] inside [`mp::run_spmd`]:
//!    the same trait executed as a distributed-memory SPMD program with
//!    all-to-all redistribution, ghost exchange, and reductions, costed
//!    against a LogGP-style machine model so speedup studies of up to
//!    ~100 simulated processors run deterministically on a laptop.
//!
//! The semantics-preservation property — both versions agree — is
//! asserted across this workspace's test suite.
//!
//! ## Quick example
//!
//! ```
//! use parallel_archetypes::dc::{run_shared, OneDeepMergesort};
//!
//! let alg = OneDeepMergesort::<i64>::new();
//! let blocks = vec![vec![5, 2, 9], vec![1, 8], vec![7, 3]];
//! let sorted = run_shared(&alg, blocks);
//! let flat: Vec<i64> = sorted.into_iter().flatten().collect();
//! assert_eq!(flat, vec![1, 2, 3, 5, 7, 8, 9]);
//! ```
//!
//! See `examples/` for runnable demonstrations and `crates/bench` for the
//! per-figure reproduction harness (README's Benchmarks section says how
//! to run it).

/// The archetype framework: `parfor` helpers and archetype phase
/// metadata and grammars (re-export of `archetype-core`).
pub use archetype_core as core;

/// One-deep divide-and-conquer archetype and applications (re-export of
/// `archetype-dc`).
pub use archetype_dc as dc;

/// Mesh-spectral archetype and applications (re-export of
/// `archetype-mesh`).
pub use archetype_mesh as mesh;

/// Branch-and-bound — the nondeterministic archetype from the paper's
/// future-work list (re-export of `archetype-bnb`).
pub use archetype_bnb as bnb;

/// Task-farm (master–worker) archetype: adaptive batching, work
/// stealing, wave-based termination (re-export of `archetype-farm`).
pub use archetype_farm as farm;

/// Pipeline (stream) archetype: bounded credit-based flow control, stage
/// replication, deterministic in-order emission (re-export of
/// `archetype-pipeline`).
pub use archetype_pipeline as pipeline;

/// The composition archetype: the plan algebra, model-driven allocator,
/// and executor running DAGs of archetype instances on disjoint process
/// groups (`crates/compose`).
pub use archetype_compose as compose;

/// SPMD message-passing substrate with virtual-time machine models
/// (re-export of `archetype-mp`).
pub use archetype_mp as mp;

/// Numerical kernels: complex arithmetic, FFT, stencils (re-export of
/// `archetype-numerics`).
pub use archetype_numerics as numerics;
