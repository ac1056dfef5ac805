//! `serve_many_small` and `serve_few_large`: one persistent
//! [`PlanService`], used two opposite ways.
//!
//! * **many small** — 1200 plans of the `serve_scaling` mix per batch
//!   (sweep / Poisson singletons, a two-branch sort→top-k composite, the
//!   mini forecast every eighth, 5 tenants), `max_concurrent = ranks`.
//!   Each plan gets one rank and a few tens of microseconds of work, so
//!   the per-plan service path dominates.
//! * **few large** — 4 default-size forecast composites per batch,
//!   `max_concurrent = 1`: every plan spans every rank, so the time goes
//!   to `Par` hand-offs, ghost exchange, stealing and merges; admission,
//!   packing and the caches see 4 submissions.
//!
//! Every batch holds the same multiset of plans; the seed only shuffles
//! their order (and so which plans share a wave).

use std::time::Instant;

use archetype_compose::{
    forecast_plan, ForecastConfig, Plan, PlanService, PoissonJob, ServeConfig, ServeReport,
    SortJob, SweepJob, TopKJob, Value,
};
use archetype_farm::apps::GridSweepFarm;
use archetype_mesh::apps::poisson::sine_problem;
use archetype_mp::RunConfig;

use super::{model, Batch, RunSummary, Workload};
use crate::rng::Rng;
use crate::spans::Spans;

/// Plans per `serve_many_small` batch.
const MANY_SMALL_PLANS: usize = 1200;
/// Plans per `serve_few_large` batch.
const FEW_LARGE_PLANS: usize = 4;
/// Tenants submissions rotate across.
const TENANTS: u32 = 5;

fn sweep_plan(points: u32) -> Plan {
    Plan::atom(SweepJob {
        farm: GridSweepFarm {
            lo: 0.0,
            hi: 2.0,
            points,
        },
    })
}

/// Outputs of one served batch.
#[derive(PartialEq)]
pub struct ServeBatch {
    /// The service's report (outcomes, tenant stats, latency digests).
    pub report: ServeReport,
    /// Submissions the admission controller refused.
    pub rejected: u64,
}

/// A persistent plan service plus the plan multiset each batch submits.
pub struct ServeWorkload {
    svc: PlanService,
    max_concurrent: usize,
    seed: u64,
    /// The distinct plans of the mix.
    pool: Vec<Plan>,
    /// Pool index per submission slot, before the per-batch shuffle.
    slots: Vec<usize>,
    /// Slots the per-batch shuffle permutes.
    movable: Vec<usize>,
}

impl ServeWorkload {
    fn new(seed: u64, ranks: usize, max_concurrent: usize) -> ServeWorkload {
        ServeWorkload {
            svc: PlanService::new(
                ranks,
                ServeConfig {
                    max_concurrent,
                    ..ServeConfig::default()
                },
            ),
            max_concurrent,
            seed,
            pool: Vec::new(),
            slots: Vec::new(),
            movable: Vec::new(),
        }
    }

    /// The `serve_many_small` service and mix.
    pub fn many_small(seed: u64, ranks: usize) -> ServeWorkload {
        let mut w = ServeWorkload::new(seed, ranks, ranks);
        // The three singleton/composite families of `serve_scaling`, one
        // pool entry per parameter combination it draws from.
        let sweeps: Vec<usize> = (0..5).map(|k| w.add(sweep_plan(16 + k * 8))).collect();
        let poissons: Vec<usize> = (0..12)
            .map(|k| {
                let (n, iters) = (8 + (k % 4) * 2, 20 + (k / 4) * 20);
                w.add(Plan::atom(PoissonJob {
                    spec: sine_problem(n, 1e-14, iters),
                }))
            })
            .collect();
        let composites: Vec<usize> = (0..3)
            .map(|k| {
                w.add(
                    sweep_plan(12 + k * 12)
                        .alongside(sweep_plan(20))
                        .then(Plan::atom(SortJob::default()))
                        .then(Plan::atom(TopKJob::default())),
                )
            })
            .collect();
        let mini_forecast = w.add(forecast_plan(ForecastConfig {
            sweep_points: 24,
            mesh_n: 12,
            mesh_iters: 40,
        }));
        let families = [sweeps, poissons, composites];
        let mut drawn = 0usize;
        for slot in 0..MANY_SMALL_PLANS {
            if slot % 8 == 7 {
                w.slots.push(mini_forecast);
            } else {
                // Round-robin over families and, within one, over its
                // variants: the same multiset whatever the seed.
                let family = &families[drawn % 3];
                w.slots.push(family[(drawn / 3) % family.len()]);
                w.movable.push(slot);
                drawn += 1;
            }
        }
        w
    }

    /// The `serve_few_large` service and mix.
    pub fn few_large(seed: u64, ranks: usize) -> ServeWorkload {
        let mut w = ServeWorkload::new(seed, ranks, 1);
        let base = ForecastConfig::default();
        // Four sizes around the default whose total is 4x the default.
        for delta in [-150i32, -50, 50, 150] {
            let plan = forecast_plan(ForecastConfig {
                sweep_points: base.sweep_points.saturating_add_signed(delta),
                ..base
            });
            let index = w.add(plan);
            w.slots.push(index);
        }
        assert_eq!(w.slots.len(), FEW_LARGE_PLANS);
        w.movable = (0..FEW_LARGE_PLANS).collect();
        w
    }

    fn add(&mut self, plan: Plan) -> usize {
        self.pool.push(plan);
        self.pool.len() - 1
    }

    /// Most plans the service packs into one wave.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// The service itself, for its cache counters and metrics text.
    pub fn service(&self) -> &PlanService {
        &self.svc
    }

    /// The plans of batch `index`, in submission order.
    pub fn plans(&self, index: u64) -> Vec<Plan> {
        let mut picked: Vec<usize> = self.movable.iter().map(|&s| self.slots[s]).collect();
        Rng::new(self.seed, index).shuffle(&mut picked);
        let mut order = self.slots.clone();
        for (&slot, plan) in self.movable.iter().zip(picked) {
            order[slot] = plan;
        }
        order.into_iter().map(|i| self.pool[i].clone()).collect()
    }
}

impl Workload for ServeWorkload {
    type Report = ServeBatch;

    fn batch(&mut self, index: u64, run: RunConfig, spans: &mut Spans) -> Batch<ServeBatch> {
        let plans = self.plans(index);
        let ops = plans.len() as u64;

        let start = Instant::now();
        let batch_span = spans.begin("batch", index);
        let submit_span = spans.begin("compose.submit", index);
        let mut rejected = 0u64;
        for (slot, plan) in plans.into_iter().enumerate() {
            let tenant = slot as u32 % TENANTS;
            if self.svc.submit(tenant, plan, Value::Unit).is_err() {
                rejected += 1;
            }
        }
        spans.end(submit_span);
        // `serve_spmd` is `serve_with` minus the rejection fold; it also
        // returns the run's statistics and trace, which the layers need.
        let result = spans.within("compose.serve", index, || self.svc.serve_spmd(model(), run));
        spans.end(batch_span);
        let wall = start.elapsed();

        let (mut reports, summary) = RunSummary::split(result);
        let report = reports.swap_remove(0);
        let errors = report.outcomes.iter().filter(|o| o.is_err()).count() as u64;
        let missing = (ops - rejected).saturating_sub(report.outcomes.len() as u64);
        Batch {
            ops,
            failed: rejected + errors + missing,
            wall,
            report: ServeBatch { report, rejected },
            runs: vec![summary],
        }
    }

    fn as_serve(&mut self) -> Option<&mut ServeWorkload> {
        Some(self)
    }
}
