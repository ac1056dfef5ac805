//! # archetype-mp — message-passing substrate for parallel program archetypes
//!
//! This crate is the distributed-memory substrate on which the archetype
//! skeletons of Massingill & Chandy ("Parallel Program Archetypes", IPPS
//! 1999) are built. The paper's measurements used NX on the Intel Delta and
//! MPI / Fortran M on the IBM SP; this crate provides the same programming
//! model — SPMD processes, blocking matched point-to-point messages, and the
//! collective operations the paper's communication patterns require
//! (broadcast, gather, all-gather, scatter, all-to-all, reduce, and
//! all-reduce via recursive doubling, plus a dissemination barrier).
//! The same collectives run over any subset of the ranks inside a
//! [`Ctx::scoped`] section, whose traffic is matched only within it —
//! the substrate of task-parallel compositions and of recursive
//! divide-and-conquer on nested process groups.
//!
//! ## Virtual time
//!
//! Because the original hardware (mesh-connected multicomputers with tens of
//! processors) is not available, every simulated process additionally keeps a
//! **virtual clock** driven by a [`MachineModel`] — a LogGP-style cost model
//! with per-flop compute time, per-message latency and overhead, and
//! per-byte transfer time. Sends stamp messages with an arrival time
//! (`sender_time + overhead + latency + bytes × byte_time`); receives advance
//! the receiver's clock to at least the arrival time. The elapsed virtual
//! time of an SPMD run is the maximum final clock over all ranks, which lets
//! us regenerate the paper's speedup curves for up to ~100 simulated
//! processors, deterministically, on a small host.
//!
//! Real wall-clock execution is unaffected: the processes are genuine OS
//! threads exchanging messages through channels, so the same code is
//! timed for real by the standalone `benchmark/` package, end to end and
//! layer by layer.
//!
//! ## One transport, two figures
//!
//! Ranks exchange messages over one transport — the in-repo lock-free
//! queues of [`transport`]; the virtual clock is an accounting overlay on
//! top of it, so every run reports both the modeled `elapsed_virtual` and
//! the measured [`runner::SpmdResult::wall_us`].
//!
//! ## Substrate hot path
//!
//! [`run_spmd`] executes ranks on a **persistent worker pool**
//! ([`pool`]) and recycles the channel network of cleanly finished runs,
//! so repeated invocations cost a dispatch, not `n` thread spawns plus
//! `n²` channel constructions (`RunConfig { pooled: false, .. }` keeps
//! the spawn-per-call path as a baseline). Fan-out collectives (`broadcast`,
//! `all_gather`) forward [`Shared`] refcounted payloads instead of
//! deep-copying per hop; the `*_shared` variants expose those handles
//! directly for zero-copy pipelines. Neither changes virtual-time
//! semantics: clocks are driven solely by the machine model, so runs
//! stay deterministic.
//!
//! ## Quick example
//!
//! ```
//! use archetype_mp::{run_spmd, MachineModel};
//!
//! // Each of 4 ranks contributes rank+1; recursive doubling sums them.
//! let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
//!     ctx.all_reduce(ctx.rank() as i64 + 1, |a, b| a + b)
//! });
//! assert!(out.results.iter().all(|&s| s == 10));
//! assert!(out.elapsed_virtual > 0.0);
//! ```

#![deny(missing_docs)]

pub mod collectives;
pub mod costmeter;
pub mod ctx;
pub mod fault;
#[cfg(test)]
#[path = "group_tests.rs"]
mod group;
pub mod mailbox;
pub mod model;
pub mod packet;
pub mod payload;
pub mod pool;
pub mod runner;
pub mod stats;
pub mod tags;
pub mod topology;
pub mod trace;
pub mod transport;

pub use costmeter::CostMeter;
pub use ctx::{Ctx, Tag};
pub use fault::{CrashSite, CrashSpec, FaultPlan, InjectedCrash, RankDead};
pub use model::{MachineModel, MemoryModel};
pub use payload::{FixedSize, Payload, Shared};
pub use runner::{run_spmd, run_spmd_ft, run_spmd_with, RankFailure, RunConfig, SpmdResult};
pub use stats::{RankStats, RunStats};
pub use tags::{compose_tag, farm_tag, ft_tag, pipe_tag, ComposeTag, FarmTag, FtTag, PipeTag};
pub use topology::{ProcessGrid2, ProcessGrid3};
pub use trace::{
    CriticalPathReport, Label, RankTrace, RunTrace, TraceEvent, TraceIncomplete, TraceRecorder,
};
pub use transport::RecvCounts;
