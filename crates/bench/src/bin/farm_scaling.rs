//! Task-farm scaling snapshot: runs the Mandelbrot tile farm, the
//! adaptive parameter sweep, and the farm-ported knapsack search across
//! process counts under the virtual-time model and writes
//! `BENCH_farm.json` at the workspace root.
//!
//! The headline numbers are *virtual-time* measurements — deterministic
//! by construction, so this snapshot is stable across hosts and runs and
//! a regression in it means the archetype's schedule changed, not that
//! the machine was busy. The Mandelbrot farm's measured `wall_us`
//! columns are recorded from the same runs, next to the modeled
//! `virtual_ms` ones; those are host-dependent, so the JSON records
//! `available_parallelism`, a rank count the host has no cores for gets
//! `null` (with the reason in `wall_scaling_refused`), and the ≥2×
//! 8-rank wall-speedup floor — a warning by default, fatal under
//! `REAL_SPEEDUP_STRICT` — is skipped on such a host.
//!
//! Run with `cargo run --release -p archetype-bench --bin farm_scaling`.

use archetype_bench::{host_cores, scaling_refusal};
use archetype_bnb::{knapsack_dp, solve_farm, Knapsack};
use archetype_farm::apps::{MandelbrotFarm, SweepFarm};
use archetype_farm::{run_farm, FarmConfig};
use archetype_mp::{run_spmd, MachineModel};

fn main() {
    let model = MachineModel::ibm_sp();

    // --- Mandelbrot tile farm: 1..16 ranks. ------------------------------
    let mandel = MandelbrotFarm::seahorse(512, 384, 32, 3000);
    let mut mandel_times = Vec::new();
    let mut mandel_stolen = Vec::new();
    let mut mandel_wall = Vec::new();
    let mut checksum = 0u64;
    for p in [1usize, 2, 4, 8, 16] {
        let f = mandel.clone();
        let out = run_spmd(p, model, move |ctx| {
            run_farm(&f, ctx, FarmConfig::default())
        });
        let (render, stats) = &out.results[0];
        if p == 1 {
            checksum = render.checksum;
        }
        assert_eq!(
            render.checksum, checksum,
            "farm must render the identical image at every process count"
        );
        mandel_times.push((p, out.elapsed_virtual));
        mandel_stolen.push((p, stats.stolen));
        if p <= 8 {
            mandel_wall.push((p, out.wall_us));
        }
    }
    let t1 = mandel_times[0].1;
    let speedup_8 = t1 / mandel_times.iter().find(|(p, _)| *p == 8).unwrap().1;
    let speedup_16 = t1 / mandel_times.iter().find(|(p, _)| *p == 16).unwrap().1;

    let wall_1 = mandel_wall[0].1 as f64;
    let wall_8 = mandel_wall.iter().find(|(p, _)| *p == 8).unwrap().1 as f64;
    let real_wall_speedup_8 = wall_1 / wall_8;
    let refusal = scaling_refusal(8);

    // --- Parameter sweep: hint-directed pruning. --------------------------
    let sweep = SweepFarm {
        lo: 0.0,
        hi: 3.0,
        seeds: 48,
        max_depth: 10,
    };
    let s1 = {
        let s = sweep.clone();
        run_spmd(1, model, move |ctx| {
            run_farm(&s, ctx, FarmConfig::default())
        })
    };
    let s8 = {
        let s = sweep.clone();
        run_spmd(8, model, move |ctx| {
            run_farm(&s, ctx, FarmConfig::default())
        })
    };
    assert_eq!(
        s1.results[0].0.best_score, s8.results[0].0.best_score,
        "admissible pruning: best score is process-count-invariant"
    );
    let sweep_speedup = s1.elapsed_virtual / s8.elapsed_virtual;
    let sweep_evals_8 = s8.results[0].0.evals;

    // --- Knapsack on the farm skeleton. -----------------------------------
    // A hard (subset-sum-style) instance: value = weight with all
    // weights even and an odd capacity, so no exact fill exists and the
    // fractional bound equals the capacity at every node — pruning never
    // fires and the search tree is genuinely large. (Random-density
    // instances prune to a few dozen nodes and would only measure
    // protocol overhead.)
    let mut s = 0xfeedu64;
    let items: Vec<(u64, u64)> = (0..20)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = ((s >> 33) % 30 + 1) * 2;
            (w, w)
        })
        .collect();
    let capacity = (items.iter().map(|(w, _)| w).sum::<u64>() / 2) | 1;
    let oracle = knapsack_dp(&items, capacity) as f64;
    let k1 = {
        let items = items.clone();
        run_spmd(1, model, move |ctx| {
            solve_farm(&Knapsack::new(&items, capacity), ctx, FarmConfig::default())
        })
    };
    let k8 = {
        let items = items.clone();
        run_spmd(8, model, move |ctx| {
            solve_farm(&Knapsack::new(&items, capacity), ctx, FarmConfig::default())
        })
    };
    assert_eq!(k1.results[0].0, oracle, "1-rank farm must find the optimum");
    assert_eq!(k8.results[0].0, oracle, "8-rank farm must find the optimum");
    let knap_speedup = k1.elapsed_virtual / k8.elapsed_virtual;
    let knap_expanded_8 = k8.results[0].1.expanded;

    let fmt_times = |v: &[(usize, f64)]| {
        v.iter()
            .map(|(p, t)| format!("\"{p}\": {:.2}", t * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let fmt_counts = |v: &[(usize, u64)]| {
        v.iter()
            .map(|(p, n)| format!("\"{p}\": {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    // Wall time at a rank count the host has no cores for is not a
    // point on a scaling curve.
    let wall_by_ranks = mandel_wall
        .iter()
        .map(|&(p, us)| match scaling_refusal(p) {
            None => format!("\"{p}\": {us}"),
            Some(_) => format!("\"{p}\": null"),
        })
        .collect::<Vec<_>>()
        .join(", ");
    let (wall_speedup_json, refusal_json) = match &refusal {
        None => (format!("{real_wall_speedup_8:.2}"), "null".to_string()),
        Some(why) => ("null".to_string(), format!("\"{why}\"")),
    };

    let json = format!(
        r#"{{
  "bench": "farm_scaling",
  "model": "{}",
  "host": {{ "available_parallelism": {} }},
  "mandelbrot": {{
    "config": "seahorse 512x384, 32px tiles, max_iter 3000",
    "virtual_ms_by_ranks": {{ {} }},
    "wall_us_by_ranks": {{ {} }},
    "tiles_stolen_by_ranks": {{ {} }},
    "speedup_8_ranks_vs_1": {speedup_8:.2},
    "speedup_16_ranks_vs_1": {speedup_16:.2},
    "real_wall_speedup_8_ranks_vs_1": {wall_speedup_json},
    "wall_scaling_refused": {refusal_json}
  }},
  "param_sweep": {{
    "config": "48 seeds, depth 10, hint-pruned",
    "virtual_ms_1_rank": {:.2},
    "virtual_ms_8_ranks": {:.2},
    "speedup_8_ranks_vs_1": {sweep_speedup:.2},
    "evals_8_ranks": {sweep_evals_8}
  }},
  "knapsack_farm": {{
    "config": "subset-sum-hard, 20 items",
    "virtual_ms_1_rank": {:.2},
    "virtual_ms_8_ranks": {:.2},
    "speedup_8_ranks_vs_1": {knap_speedup:.2},
    "nodes_expanded_8_ranks": {knap_expanded_8}
  }}
}}
"#,
        model.name,
        host_cores(),
        fmt_times(&mandel_times),
        wall_by_ranks,
        fmt_counts(&mandel_stolen),
        s1.elapsed_virtual * 1e3,
        s8.elapsed_virtual * 1e3,
        k1.elapsed_virtual * 1e3,
        k8.elapsed_virtual * 1e3,
    );

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_farm.json");
    std::fs::write(&path, &json).expect("write BENCH_farm.json");
    print!("{json}");
    println!("wrote {}", path.display());

    // Virtual-time speedups are deterministic, so this bar is fatal
    // everywhere (unlike the wall-clock bars in substrate_overhead).
    assert!(
        speedup_8 >= 4.0,
        "8-rank Mandelbrot farm must be >= 4x the 1-rank baseline (got {speedup_8:.2}x)"
    );

    // Real wall-clock speedup depends on how many cores the host actually
    // has (a 1-core box *cannot* speed up), so the ≥2× floor is checked
    // only where the 8 ranks have cores, and is fatal only when
    // explicitly requested — the CI wall-clock job sets
    // REAL_SPEEDUP_STRICT on a multi-core runner.
    let strict = std::env::var_os("REAL_SPEEDUP_STRICT").is_some();
    if let Some(why) = &refusal {
        println!("8-rank wall-speedup floor skipped: {why} ({real_wall_speedup_8:.2}x measured)");
    } else if real_wall_speedup_8 < 2.0 {
        let msg = format!(
            "8-rank Mandelbrot farm should be >= 2x \
             the 1-rank wall time (got {real_wall_speedup_8:.2}x)"
        );
        assert!(!strict, "{msg}");
        eprintln!("WARNING: {msg}");
    }
}
