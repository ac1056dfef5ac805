//! # archetype-dc — the one-deep divide-and-conquer archetype
//!
//! Implementation of §2 of Massingill & Chandy, "Parallel Program
//! Archetypes" (IPPS 1999): the **one-deep divide-and-conquer** archetype —
//! a single level of split → solve → merge across `N` processes — together
//! with the **traditional recursive** divide-and-conquer baseline it is
//! compared against in the paper's Figure 6, and the paper's applications:
//!
//! | Application | Split | Merge | Paper section |
//! |---|---|---|---|
//! | [`mergesort::OneDeepMergesort`] | degenerate | splitters + redistribution + local merge | §2.4 |
//! | [`quicksort::OneDeepQuicksort`] | pivots + redistribution | degenerate (concatenation) | §2.5.2 |
//! | [`skyline::OneDeepSkyline`] | degenerate | vertical cut lines + redistribution + skyline merge | §2.5.1 |
//! | [`hull::OneDeepHull`] | x-slab partition | candidate exchange + final hull | §2.5 (named) |
//! | [`closest::OneDeepClosest`] | x-slab partition | δ-strip exchange + cross-pair check | §2.5 (named) |
//!
//! Every algorithm is expressed once against the [`skeleton::OneDeep`]
//! trait and can be executed two ways with identical results (the
//! paper's semantics-preservation property):
//!
//! 1. [`skeleton::run_shared`] — the debuggable "version 1", its `parfor`s
//!    run as plain loops;
//! 2. [`skeleton::run_spmd`] inside [`archetype_mp::run_spmd`] — the
//!    distributed-memory "version 2" with all-to-all redistribution,
//!    costed against the virtual clock for speedup studies.
//!
//! The crate also implements the **general recursive** form of the
//! archetype ([`recursive`]): a [`recursive::Recursive`] problem divides
//! into `k` subproblems per level and descends a tree of nested process
//! groups, each an [`archetype_mp::Ctx::scoped`] section, until a
//! performance-model-chosen cutoff ([`perfmodel::recursion_policy`]),
//! solving sequentially at the leaves and merging up a combining tree —
//! executed by [`recursive::run_shared`] on shared memory and
//! [`recursive::run_spmd_recursive`] over the substrate.
//! [`mergesort::RecursiveMergesort`], [`quicksort::RecursiveQuicksort`],
//! and [`closest::RecursiveClosest`] port the applications onto it, with
//! their one-deep and sequential versions kept as oracles.

pub mod closest;
pub mod geometry;
pub mod hull;
pub mod mergesort;
pub mod perfmodel;
pub mod quicksort;
pub mod recursive;
pub mod skeleton;
pub mod skyline;
pub mod traditional;

pub use closest::{global_closest, sequential_closest, OneDeepClosest, RecursiveClosest};
pub use geometry::{Building, Point, SkyPoint};
pub use hull::{convex_hull, OneDeepHull};
pub use mergesort::{sequential_mergesort, OneDeepMergesort, RecursiveMergesort};
pub use quicksort::{OneDeepQuicksort, RecursiveQuicksort};
pub use recursive::{
    run_shared as run_shared_recursive, run_spmd_recursive, CutoffPolicy, Recursive,
};
pub use skeleton::{run_shared, run_spmd, OneDeep};
pub use skyline::{concat_skyline, sequential_skyline, OneDeepSkyline};
pub use traditional::tree_mergesort_distributed_spmd;
