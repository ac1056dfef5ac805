//! Recursive divide-and-conquer scaling snapshot: runs the recursive
//! mergesort, quicksort, and closest-pair applications on nested process
//! groups under the virtual-time model and writes `BENCH_dc.json` at the
//! workspace root.
//!
//! The headline numbers are *virtual-time* measurements — deterministic
//! by construction, so this snapshot is stable across hosts and runs; a
//! regression here means the archetype's communication schedule or cost
//! model changed, not that the machine was busy. The recursive
//! mergesort's host-dependent `wall_us` columns are recorded from the
//! same runs, next to the modeled `virtual_ms` ones.
//!
//! Run with `cargo run --release -p archetype-bench --bin dc_scaling`.

use archetype_dc::perfmodel::{closest_recursion_policy, recursion_policy, sort_recursion_cutoff};
use archetype_dc::{
    run_spmd_recursive, sequential_closest, Point, RecursiveClosest, RecursiveMergesort,
    RecursiveQuicksort,
};
use archetype_mp::{run_spmd, MachineModel};

fn points(n: usize) -> Vec<Point> {
    let coords = archetype_bench::random_i64s(2 * n, 0x9017);
    coords
        .chunks_exact(2)
        .map(|c| {
            Point::new(
                c[0] as f64 / 100_000.0, // [-10_000, 10_000)
                c[1] as f64 / 100_000.0,
            )
        })
        .collect()
}

fn main() {
    let model = MachineModel::cray_t3d();
    let cutoff = sort_recursion_cutoff(&model, 8);
    let policy = recursion_policy(&model, 2, 8);

    // --- Recursive mergesort: 1..8 ranks, model-chosen cutoff. ------------
    let n = 1 << 20;
    let data = archetype_bench::random_i64s(n, 0x5eed);
    let mut expected = data.clone();
    expected.sort_unstable();
    let mut merge_times = Vec::new();
    let mut merge_wall = Vec::new();
    for p in [1usize, 2, 4, 8] {
        let d = data.clone();
        let out = run_spmd(p, model, move |ctx| {
            let local = (ctx.rank() == 0).then(|| d.clone());
            run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
        });
        assert_eq!(
            out.results[0].as_ref().expect("root holds the result"),
            &expected,
            "recursive mergesort must sort at every process count"
        );
        merge_times.push((p, out.elapsed_virtual));
        merge_wall.push((p, out.wall_us));
    }
    let t1 = merge_times[0].1;
    let merge_speedup_8 = t1 / merge_times.iter().find(|(p, _)| *p == 8).unwrap().1;

    // --- Recursive quicksort: 8 ranks vs 1. --------------------------------
    let qdata = archetype_bench::random_i64s(1 << 19, 0xfeed);
    let mut qexpected = qdata.clone();
    qexpected.sort_unstable();
    let quick_time = |p: usize| {
        let d = qdata.clone();
        let qe = qexpected.clone();
        let out = run_spmd(p, model, move |ctx| {
            let local = (ctx.rank() == 0).then(|| d.clone());
            run_spmd_recursive(&RecursiveQuicksort::<i64>::new(), ctx, local, &policy, None)
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &qe, "quicksort p={p}");
        out.elapsed_virtual
    };
    let qt1 = quick_time(1);
    let qt8 = quick_time(8);

    // --- Recursive closest pair: 8 ranks vs 1. ------------------------------
    let pts = points(60_000);
    let cexpected = sequential_closest(&pts);
    let closest_policy = closest_recursion_policy(&model, 2);
    let closest_time = |p: usize| {
        let d = pts.clone();
        let out = run_spmd(p, model, move |ctx| {
            let local = (ctx.rank() == 0).then(|| d.clone());
            run_spmd_recursive(&RecursiveClosest::new(), ctx, local, &closest_policy, None)
        });
        let got = out.results[0].as_ref().unwrap().best;
        assert!(
            (got - cexpected).abs() < 1e-12,
            "closest p={p}: {got} vs {cexpected}"
        );
        out.elapsed_virtual
    };
    let ct1 = closest_time(1);
    let ct8 = closest_time(8);

    let fmt_times = |v: &[(usize, f64)]| {
        v.iter()
            .map(|(p, t)| format!("\"{p}\": {:.2}", t * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let fmt_walls = |v: &[(usize, u64)]| {
        v.iter()
            .map(|(p, w)| format!("\"{p}\": {w}"))
            .collect::<Vec<_>>()
            .join(", ")
    };

    let json = format!(
        r#"{{
  "bench": "dc_scaling",
  "model": "{}",
  "cutoff_items_from_perfmodel": {cutoff},
  "recursive_mergesort": {{
    "config": "2^20 i64, branching 2, model-chosen cutoff",
    "virtual_ms_by_ranks": {{ {} }},
    "wall_us_by_ranks": {{ {} }},
    "speedup_8_ranks_vs_1": {merge_speedup_8:.2}
  }},
  "recursive_quicksort": {{
    "config": "2^19 i64, branching 2, model-chosen cutoff",
    "virtual_ms_1_rank": {:.2},
    "virtual_ms_8_ranks": {:.2},
    "speedup_8_ranks_vs_1": {:.2}
  }},
  "recursive_closest_pair": {{
    "config": "60k points, branching 2, model-chosen cutoff",
    "virtual_ms_1_rank": {:.2},
    "virtual_ms_8_ranks": {:.2},
    "speedup_8_ranks_vs_1": {:.2}
  }}
}}
"#,
        model.name,
        fmt_times(&merge_times),
        fmt_walls(&merge_wall),
        qt1 * 1e3,
        qt8 * 1e3,
        qt1 / qt8,
        ct1 * 1e3,
        ct8 * 1e3,
        ct1 / ct8,
    );

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dc.json");
    std::fs::write(&path, &json).expect("write BENCH_dc.json");
    print!("{json}");
    println!("wrote {}", path.display());

    // Virtual-time speedups are deterministic, so this bar is fatal
    // everywhere (mirroring the farm snapshot gate).
    assert!(
        merge_speedup_8 >= 3.0,
        "8-rank recursive mergesort must be >= 3x the 1-rank baseline (got {merge_speedup_8:.2}x)"
    );
}
