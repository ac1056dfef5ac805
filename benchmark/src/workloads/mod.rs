//! The five workloads. Each is a closed loop with one client: the
//! benchmark's main thread submits a *batch* (the timed unit) of a fixed
//! count of *ops* and blocks until the program has finished it.
//!
//! Batch sizes are frozen here; how many batches a run times is set by
//! `--seconds`. Inputs come from `--seed`, and are built so that the
//! seed changes *which* inputs a batch holds and in what order, never
//! how much work a batch is: runs with different seeds measure the same
//! load.

use std::time::Duration;

use archetype_mp::{MachineModel, RankStats, RunConfig, RunTrace, SpmdResult};

use crate::spans::Spans;

pub mod apps;
pub mod mp;
pub mod serve;

/// The machine model every run prices virtual time with.
pub fn model() -> MachineModel {
    MachineModel::ibm_sp()
}

/// What one SPMD run reported, minus its per-rank return values.
pub struct RunSummary {
    /// Per-rank message, byte and virtual-time accounting.
    pub per_rank: Vec<RankStats>,
    /// Final per-rank virtual clocks.
    pub rank_times: Vec<f64>,
    /// Modeled elapsed time of the run.
    pub elapsed_virtual: f64,
    /// The program's own wall-time figure (dispatch to last rank done).
    pub wall_us: u64,
    /// Event streams, when the run was traced.
    pub trace: Option<RunTrace>,
}

impl RunSummary {
    /// Split a finished run into its per-rank results and its summary.
    pub fn split<R>(result: SpmdResult<R>) -> (Vec<R>, RunSummary) {
        let summary = RunSummary {
            per_rank: result.stats.per_rank,
            rank_times: result.rank_times,
            elapsed_virtual: result.elapsed_virtual,
            wall_us: result.wall_us,
            trace: result.trace,
        };
        (result.results, summary)
    }
}

/// One finished batch.
pub struct Batch<R> {
    /// Ops the batch attempted.
    pub ops: u64,
    /// Ops that failed: an `Err` outcome, a rejected submission, or an
    /// output differing from its reference.
    pub failed: u64,
    /// Wall time of the calls into the program (input building excluded).
    pub wall: Duration,
    /// The program's outputs, comparable across backends.
    pub report: R,
    /// The SPMD runs the batch made, in order.
    pub runs: Vec<RunSummary>,
}

impl<R: PartialEq> Batch<R> {
    /// True when two batches of the same inputs are the same *logical*
    /// run: equal outputs, statistics and virtual clocks, bit for bit.
    /// Only wall time may differ — the contract between the virtual and
    /// the real backend.
    pub fn same_logical_run(&self, other: &Batch<R>) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.report == other.report
            && self.ops == other.ops
            && self.failed == other.failed
            && self.runs.len() == other.runs.len()
            && self.runs.iter().zip(&other.runs).all(|(a, b)| {
                a.per_rank == b.per_rank
                    && bits(&a.rank_times) == bits(&b.rank_times)
                    && a.elapsed_virtual.to_bits() == b.elapsed_virtual.to_bits()
            })
    }
}

/// A workload: batches by index. Batch `i` of a given seed always holds
/// the same inputs.
pub trait Workload {
    /// Program outputs of one batch.
    type Report: PartialEq;

    /// Build batch `index` (untimed), run it under `run` (timed), check
    /// its outputs. Calls into the program are wrapped in `spans`.
    fn batch(&mut self, index: u64, run: RunConfig, spans: &mut Spans) -> Batch<Self::Report>;

    /// This workload as the subject of the compose-layer probes, when
    /// it is a plan service.
    fn as_serve(&mut self) -> Option<&mut serve::ServeWorkload> {
        None
    }

    /// This workload as the subject of the archetype-layer probes, when
    /// it is the application set.
    fn as_apps(&mut self) -> Option<&mut apps::AppsWorkload> {
        None
    }
}

/// Order-sensitive FNV-1a digest of a word stream: how bulky outputs
/// (a sorted vector, a solution grid) are kept comparable.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
