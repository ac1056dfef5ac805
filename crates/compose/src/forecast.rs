//! The flagship composite: a forecast-style workload spanning all four
//! archetype crates in one plan.
//!
//! ```text
//! par ┬ atom sweep   [task-farm]      irregular parameter sweep
//!     └ atom poisson [mesh-spectral]  fixed-budget Jacobi solve
//! seq → atom sort    [recursive D&C]  merge + sort both result sets
//! seq → atom top-k   [pipeline]       streaming digest of the sorted data
//! ```
//!
//! The two `Par` branches model a forecasting run: an emissions-scenario
//! sweep (a task farm whose per-point cost varies ~115×) alongside a
//! pollutant-dispersion solve (a Poisson relaxation with a fixed
//! iteration budget). Their outputs — scenario severity scores and field
//! samples — merge into one dataset that a recursive-D&C mergesort
//! orders and a bounded-stream pipeline digests into top-k values and
//! percentiles.
//!
//! Everything downstream consumes *values*, so results are bit-identical
//! across process counts, machine models, and `Par` scheduling — the
//! sweep's score table is index-merged (schedule-independent), the
//! Jacobi field is exact, the sort is a sort, and the digest folds in
//! stream order. `examples/forecast_plan.rs` runs the plan end to end;
//! the `compose_scaling` bench gates its speedup over serialized
//! branches.

use archetype_core::archetype::{MESH_SPECTRAL, PIPELINE, RECURSIVE_DC, TASK_FARM};
use archetype_core::ArchetypeInfo;
use archetype_dc::perfmodel::mergesort_work_flops;
use archetype_dc::{run_spmd_recursive, CutoffPolicy, RecursiveMergesort};
use archetype_farm::apps::GridSweepFarm;
use archetype_farm::{run_farm, FarmConfig};
use archetype_mesh::apps::poisson::{
    poisson_estimate_flops, poisson_spmd, sine_problem, PoissonSpec,
};
use archetype_mp::{Ctx, ProcessGrid2};
use archetype_pipeline::apps::ChunkedStream;
use archetype_pipeline::{run_pipeline, PipelineConfig};

use crate::exec::mix;
use crate::job::ArchetypeJob;
use crate::plan::Plan;
use crate::value::Value;

/// Fixed-point scale for sorting `f64` measurements as `i64` keys
/// (deterministic, order-preserving for the value ranges involved).
const SORT_SCALE: f64 = 1e7;

/// The parameter-sweep branch: a [`GridSweepFarm`] whose output is the
/// full score table, returned as plain values.
pub struct SweepJob {
    /// The grid sweep to run.
    pub farm: GridSweepFarm,
}

impl ArchetypeJob for SweepJob {
    type In = ();
    type Out = Vec<f64>;

    fn name(&self) -> &'static str {
        "sweep"
    }

    fn info(&self) -> &'static ArchetypeInfo {
        &TASK_FARM
    }

    fn estimate_flops(&self, _input: &()) -> f64 {
        self.farm.total_flops()
    }

    fn run(&self, ctx: &mut Ctx, _input: ()) -> Vec<f64> {
        let (scores, _stats) = run_farm(&self.farm, ctx, FarmConfig::default());
        scores.into_iter().map(|(_, s)| s).collect()
    }

    fn fingerprint(&self) -> u64 {
        mix(
            mix(self.farm.lo.to_bits(), self.farm.hi.to_bits()),
            u64::from(self.farm.points),
        )
    }
}

/// The dispersion-solve branch: a fixed-budget Jacobi relaxation whose
/// output is the solution field (row-major, every grid point).
pub struct PoissonJob {
    /// The problem to solve.
    pub spec: PoissonSpec,
}

impl PoissonJob {
    /// A 2-D process grid for `p` ranks (factored near-square).
    fn grid_for(p: usize) -> ProcessGrid2 {
        let mut px = (p as f64).sqrt() as usize;
        while px > 1 && !p.is_multiple_of(px) {
            px -= 1;
        }
        ProcessGrid2::new(px.max(1), p / px.max(1))
    }
}

impl ArchetypeJob for PoissonJob {
    type In = ();
    type Out = Vec<f64>;

    fn name(&self) -> &'static str {
        "poisson"
    }

    fn info(&self) -> &'static ArchetypeInfo {
        &MESH_SPECTRAL
    }

    fn estimate_flops(&self, _input: &()) -> f64 {
        poisson_estimate_flops(&self.spec)
    }

    fn run(&self, ctx: &mut Ctx, _input: ()) -> Vec<f64> {
        let grid = Self::grid_for(ctx.nprocs());
        let result = poisson_spmd(ctx, &self.spec, grid);
        result.grid.unwrap_or_default() // the solution lands on rank 0
    }

    fn fingerprint(&self) -> u64 {
        // The rhs/boundary fn pointers are not part of the identity; all
        // in-repo specs come from `sine_problem`.
        mix(
            mix(self.spec.nx as u64, self.spec.ny as u64),
            mix(self.spec.tolerance.to_bits(), self.spec.max_iters as u64),
        )
    }
}

/// The merge/sort stage: concatenates the branch outputs, quantizes to
/// fixed-point keys, and sorts with the recursive divide-and-conquer
/// mergesort on nested process groups.
pub struct SortJob {
    /// Recursion policy of the underlying `run_spmd_recursive`.
    pub policy: CutoffPolicy,
}

impl Default for SortJob {
    fn default() -> Self {
        SortJob {
            policy: CutoffPolicy::new(2, 64, 4),
        }
    }
}

impl ArchetypeJob for SortJob {
    type In = (Vec<f64>, Vec<f64>);
    type Out = Vec<i64>;

    fn name(&self) -> &'static str {
        "sort"
    }

    fn info(&self) -> &'static ArchetypeInfo {
        &RECURSIVE_DC
    }

    fn estimate_flops(&self, input: &(Vec<f64>, Vec<f64>)) -> f64 {
        mergesort_work_flops(input.0.len() + input.1.len(), self.policy.min_items)
    }

    fn run(&self, ctx: &mut Ctx, (scores, field): (Vec<f64>, Vec<f64>)) -> Vec<i64> {
        // Only the root's keys enter the recursion; spare the other
        // ranks the quantization pass over their (discarded) copies.
        let local = (ctx.rank() == 0).then(|| {
            scores
                .iter()
                .chain(field.iter())
                .map(|&v| (v * SORT_SCALE).round() as i64)
                .collect::<Vec<i64>>()
        });
        run_spmd_recursive(
            &RecursiveMergesort::<i64>::new(),
            ctx,
            local,
            &self.policy,
            None,
        )
        .unwrap_or_default() // the sorted keys land on rank 0
    }

    fn fingerprint(&self) -> u64 {
        mix(
            mix(self.policy.branching as u64, self.policy.min_items as u64),
            self.policy.max_depth as u64,
        )
    }
}

/// The digest stage: streams the sorted keys (as values) through the
/// normalize/trim chain into a top-k + percentile digest, summarized as
/// `[count, mean, p50, p99, top…]`.
pub struct TopKJob {
    /// Samples per stream chunk.
    pub chunk_len: usize,
    /// Top-k capacity.
    pub k: usize,
    /// Histogram buckets.
    pub buckets: usize,
    /// Trim cutoff (after log-compression).
    pub cutoff: f64,
}

impl Default for TopKJob {
    fn default() -> Self {
        TopKJob {
            chunk_len: 64,
            k: 8,
            buckets: 64,
            cutoff: 3.0,
        }
    }
}

impl ArchetypeJob for TopKJob {
    type In = Vec<i64>;
    type Out = Vec<f64>;

    fn name(&self) -> &'static str {
        "top-k"
    }

    fn info(&self) -> &'static ArchetypeInfo {
        &PIPELINE
    }

    fn estimate_flops(&self, input: &Vec<i64>) -> f64 {
        input.len() as f64 * ChunkedStream::flops_per_sample(self.k)
    }

    fn run(&self, ctx: &mut Ctx, input: Vec<i64>) -> Vec<f64> {
        let values: Vec<f64> = input.iter().map(|&q| q as f64 / SORT_SCALE).collect();
        let stream = ChunkedStream::new(values, self.chunk_len, self.k, self.buckets, self.cutoff);
        let (digest, _stats) = run_pipeline(&stream, ctx, PipelineConfig::default());
        let mut out = vec![
            digest.count as f64,
            digest.mean(),
            digest.percentile(0.5),
            digest.percentile(0.99),
        ];
        out.extend(digest.top.iter().copied());
        out
    }

    fn fingerprint(&self) -> u64 {
        mix(
            mix(self.chunk_len as u64, self.k as u64),
            mix(self.buckets as u64, self.cutoff.to_bits()),
        )
    }
}

/// Configuration of the flagship forecast composite.
#[derive(Clone, Copy, Debug)]
pub struct ForecastConfig {
    /// Evaluation points of the parameter sweep.
    pub sweep_points: u32,
    /// Poisson grid extent (`n × n`).
    pub mesh_n: usize,
    /// Poisson iteration budget.
    pub mesh_iters: usize,
}

impl Default for ForecastConfig {
    /// The `compose_scaling` benchmark shape: the sweep carries most of
    /// the flops, so the allocator keeps the latency-bound mesh solve on
    /// a small subgroup — where it is *fastest* — instead of spreading
    /// it across the world, which is exactly the regime where
    /// cost-proportional composition beats serializing the branches.
    fn default() -> Self {
        ForecastConfig {
            sweep_points: 6000,
            mesh_n: 24,
            mesh_iters: 600,
        }
    }
}

/// Build the flagship plan:
/// `(sweep ∥ poisson) → sort → top-k`.
pub fn forecast_plan(cfg: ForecastConfig) -> Plan {
    let sweep = Plan::atom(SweepJob {
        farm: GridSweepFarm {
            lo: 0.0,
            hi: 2.0,
            points: cfg.sweep_points,
        },
    });
    let poisson = Plan::atom(PoissonJob {
        // An effectively unreachable tolerance keeps the budget binding,
        // so the allocator's estimate is exact.
        spec: sine_problem(cfg.mesh_n, 1e-14, cfg.mesh_iters),
    });
    sweep
        .alongside(poisson)
        .then(Plan::atom(SortJob::default()))
        .then(Plan::atom(TopKJob::default()))
}

/// The input value the forecast plan consumes: both branches are
/// self-contained, so the `Par` fans out `Unit`.
pub fn forecast_input() -> Value {
    Value::Unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_plan, try_run_plan, ParMode};
    use archetype_mp::{run_spmd, MachineModel};

    fn mini() -> ForecastConfig {
        ForecastConfig {
            sweep_points: 24,
            mesh_n: 12,
            mesh_iters: 40,
        }
    }

    #[test]
    fn forecast_results_are_process_count_invariant() {
        let reference = run_spmd(1, MachineModel::ibm_sp(), |ctx| {
            run_plan(ctx, &forecast_plan(mini()), forecast_input()).0
        })
        .results[0]
            .clone();
        match &reference {
            Value::F64s(v) => assert!(v.len() >= 4, "summary has header + top-k"),
            other => panic!("expected F64s, got {}", other.shape()),
        }
        for p in [2usize, 3, 5, 8] {
            let out = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
                run_plan(ctx, &forecast_plan(mini()), forecast_input()).0
            });
            for (r, v) in out.results.iter().enumerate() {
                assert_eq!(v, &reference, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn serialized_and_allocated_schedules_agree_on_results_and_stats() {
        let run = |mode: ParMode, p: usize| {
            run_spmd(p, MachineModel::cray_t3d(), move |ctx| {
                try_run_plan(ctx, &forecast_plan(mini()), forecast_input(), mode)
                    .expect("no fault plan")
            })
        };
        let a = run(ParMode::Allocate, 6);
        let b = run(ParMode::Serialize, 6);
        assert_eq!(a.results[0].0, b.results[0].0);
        assert_eq!(
            a.results[0].1, b.results[0].1,
            "stats are schedule-invariant"
        );
        assert!(
            a.elapsed_virtual < b.elapsed_virtual,
            "cost-proportional allocation should beat serialization: {} vs {}",
            a.elapsed_virtual,
            b.elapsed_virtual
        );
    }

    #[test]
    fn forecast_stats_count_the_plan_structure() {
        let out = run_spmd(4, MachineModel::ibm_sp(), |ctx| {
            run_plan(ctx, &forecast_plan(mini()), forecast_input()).1
        });
        let stats = out.results[0];
        assert_eq!(stats.atoms, 4);
        assert_eq!(stats.par_sections, 1);
        assert_eq!(stats.branches, 2);
        assert_eq!(stats.seq_stages, 3);
        assert_eq!(stats.handoffs, 4);
        assert!(stats.handoff_bytes > 0);
    }
}
