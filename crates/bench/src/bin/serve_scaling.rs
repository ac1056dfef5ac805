//! Plan-service throughput snapshot: pushes a mixed multi-tenant batch
//! of ≥ 1000 plans through the persistent [`PlanService`] at 8 ranks
//! under the virtual-time model and writes `BENCH_serve.json` at the
//! workspace root.
//!
//! The batch rotates cheap single-atom plans (farm sweeps, mesh Poisson
//! solves, two-branch sort/digest composites) across five tenants, with
//! the mini forecast composite mixed in every eighth submission. All
//! headline numbers are *virtual-time* measurements — deterministic by
//! construction. Two fatal bars gate CI:
//!
//! 1. same-seed service runs must be bit-identical: outcomes, per-tenant
//!    stats, the latency digest, and the elapsed virtual clock;
//! 2. concurrent admission (packed waves on disjoint subgroups) must
//!    beat the serial one-plan-at-a-time schedule by ≥ 1.5× at 8 ranks,
//!    with identical outcomes and tenant stats.
//!
//! `SERVE_BENCH_STRICT=1` additionally makes the absolute throughput and
//! p99-latency floors fatal (virtual-time numbers, so a miss means the
//! schedule regressed, not that the host was busy).
//!
//! Run with `cargo run --release -p archetype-bench --bin serve_scaling`.

use archetype_compose::{
    forecast_plan, ForecastConfig, Plan, PlanService, PoissonJob, ServeConfig, ServeOutcome,
    SortJob, SweepJob, TopKJob, Value,
};
use archetype_farm::apps::GridSweepFarm;
use archetype_mesh::apps::poisson::sine_problem;
use archetype_mp::MachineModel;

/// Plans per batch (the ISSUE floor is 1000).
const PLANS: usize = 1200;
/// Tenants the batch rotates across.
const TENANTS: u32 = 5;
/// Seed of the deterministic plan mix.
const SEED: u64 = 0x5EED_5E4E;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sweep_plan(points: u32) -> Plan {
    Plan::atom(SweepJob {
        farm: GridSweepFarm {
            lo: 0.0,
            hi: 2.0,
            points,
        },
    })
}

fn poisson_plan(n: usize, iters: usize) -> Plan {
    Plan::atom(PoissonJob {
        spec: sine_problem(n, 1e-14, iters),
    })
}

/// The deterministic mixed batch: cheap sweep/poisson singletons, a
/// two-branch sort/digest composite, and the mini forecast composite
/// every eighth submission.
fn mixed_plan(i: usize, rng: &mut u64) -> Plan {
    if i % 8 == 7 {
        return forecast_plan(ForecastConfig {
            sweep_points: 24,
            mesh_n: 12,
            mesh_iters: 40,
        });
    }
    match splitmix(rng) % 3 {
        0 => sweep_plan(16 + (splitmix(rng) % 5) as u32 * 8),
        1 => poisson_plan(
            8 + (splitmix(rng) % 4) as usize * 2,
            20 + (splitmix(rng) % 3) as usize * 20,
        ),
        _ => sweep_plan(12 + (splitmix(rng) % 3) as u32 * 12)
            .alongside(sweep_plan(20))
            .then(Plan::atom(SortJob::default()))
            .then(Plan::atom(TopKJob::default())),
    }
}

/// Queue the full deterministic batch into a fresh service.
fn fill(svc: &mut PlanService) {
    let mut rng = SEED;
    for i in 0..PLANS {
        let tenant = i as u32 % TENANTS;
        svc.submit(tenant, mixed_plan(i, &mut rng), Value::Unit)
            .expect("batch fits the default queue capacity");
    }
}

fn service(p: usize, max_concurrent: usize) -> PlanService {
    let mut svc = PlanService::new(
        p,
        ServeConfig {
            max_concurrent,
            ..ServeConfig::default()
        },
    );
    fill(&mut svc);
    svc
}

fn serve(p: usize, max_concurrent: usize, model: MachineModel) -> ServeOutcome {
    service(p, max_concurrent).serve(model)
}

fn main() {
    let model = MachineModel::ibm_sp();

    // --- The headline run: packed schedule, 8 ranks. ----------------------
    let packed = serve(8, 8, model);
    assert_eq!(packed.report.outcomes.len(), PLANS);
    assert!(
        packed.report.outcomes.iter().all(|o| o.is_ok()),
        "the mixed batch is fault-free: every plan must complete"
    );
    assert_eq!(packed.report.tenants.len(), TENANTS as usize);

    // --- Bar 1: same-seed runs are bit-identical. -------------------------
    let rerun = serve(8, 8, model);
    assert_eq!(
        rerun.report, packed.report,
        "same submissions, same seed: outcomes, tenant stats, and the \
         latency digest must be bit-identical"
    );
    assert_eq!(
        rerun.elapsed_virtual.to_bits(),
        packed.elapsed_virtual.to_bits(),
        "the virtual clock is part of the deterministic contract"
    );

    // --- Bar 2: concurrent admission beats serial by >= 1.5x. -------------
    let serial = serve(8, 1, model);
    assert_eq!(
        serial.report.outcomes, packed.report.outcomes,
        "the schedule must not change results"
    );
    assert_eq!(
        serial.report.tenants, packed.report.tenants,
        "tenant stats are schedule-invariant"
    );
    assert_eq!(serial.report.waves, PLANS as u64);
    let speedup = serial.elapsed_virtual / packed.elapsed_virtual;
    assert!(
        speedup >= 1.5,
        "concurrent admission must beat serial one-plan-at-a-time by \
         >= 1.5x at 8 ranks (got {speedup:.2}x)"
    );

    // --- Scaling row: the same batch on 16 ranks. -------------------------
    let wide = serve(16, 8, model);
    assert_eq!(
        wide.report.outcomes, packed.report.outcomes,
        "results are process-count invariant"
    );

    let pps = |out: &ServeOutcome| PLANS as f64 / out.elapsed_virtual;
    let p50_ms = packed.report.latency.percentile(0.5) * 1e3;
    let p99_ms = packed.report.latency.percentile(0.99) * 1e3;
    // Wall figures come from the warm rerun of the headline schedule.
    let wall_pps = PLANS as f64 / (rerun.wall_us as f64 / 1e6);

    // --- Optional strict bars: absolute virtual-time floors. --------------
    if std::env::var("SERVE_BENCH_STRICT").is_ok_and(|v| v == "1") {
        let v_pps = pps(&packed);
        assert!(
            v_pps >= 3000.0,
            "virtual throughput floor: {v_pps:.0} plans/s < 3000"
        );
        assert!(
            p99_ms <= 300.0,
            "virtual p99 completion-latency ceiling: {p99_ms:.1} ms > 300 ms"
        );
    }

    let cache = packed.cache;
    let json = format!(
        r#"{{
  "bench": "serve_scaling",
  "model": "{}",
  "plans": {PLANS},
  "tenants": {TENANTS},
  "waves_8_ranks": {},
  "virtual_s_8_ranks": {:.4},
  "plans_per_sec_virtual_8_ranks": {:.1},
  "latency_virtual_ms": {{ "p50": {p50_ms:.3}, "p99": {p99_ms:.3}, "mean": {:.3} }},
  "serial_virtual_s_8_ranks": {:.4},
  "concurrency_speedup_8_ranks": {speedup:.2},
  "virtual_s_16_ranks": {:.4},
  "plans_per_sec_virtual_16_ranks": {:.1},
  "cache": {{
    "shape_hits": {}, "shape_misses": {},
    "cost_hits": {}, "cost_misses": {},
    "alloc_hits": {}, "alloc_misses": {}
  }},
  "real_8_ranks": {{ "wall_us": {}, "plans_per_sec_wall": {wall_pps:.1}, "report_matches_virtual": true }}
}}
"#,
        model.name,
        packed.report.waves,
        packed.elapsed_virtual,
        pps(&packed),
        packed.report.latency.mean() * 1e3,
        serial.elapsed_virtual,
        wide.elapsed_virtual,
        pps(&wide),
        cache.shape_hits,
        cache.shape_misses,
        cache.cost_hits,
        cache.cost_misses,
        cache.alloc_hits,
        cache.alloc_misses,
        rerun.wall_us,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    print!("{json}");
    println!("wrote BENCH_serve.json");
}
