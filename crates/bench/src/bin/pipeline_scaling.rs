//! Pipeline scaling snapshot: runs the streaming image-filter chain and
//! the top-k/percentile aggregator across process counts under the
//! virtual-time model and writes `BENCH_pipeline.json` at the workspace
//! root.
//!
//! The headline numbers are *virtual-time* measurements — deterministic
//! by construction, so this snapshot is stable across hosts and runs and
//! a regression in it means the archetype's schedule changed, not that
//! the machine was busy. CI gates on three fatal bars for the image
//! chain: ≥3× at 8 ranks, under 0.6× the 1-rank time at 2 ranks, and no
//! rise in virtual time from 1 to 16 ranks. The image chain's
//! host-dependent `wall_us` columns are recorded from the same runs,
//! next to the modeled `virtual_ms` ones.
//!
//! Run with `cargo run --release -p archetype-bench --bin pipeline_scaling`.

use archetype_mp::{run_spmd, MachineModel};
use archetype_pipeline::apps::{ImageChain, TopKStream};
use archetype_pipeline::{run_pipeline, run_sequential, PipelineConfig};

fn main() {
    let model = MachineModel::ibm_sp();

    // --- Image-filter chain: 1..16 ranks. --------------------------------
    let chain = ImageChain::new(256, 192, 32, 24);
    let (reference, tiles) = run_sequential(&chain);
    let mut image_times = Vec::new();
    let mut image_replicas = Vec::new();
    let mut image_wall = Vec::new();
    for p in [1usize, 2, 4, 8, 16] {
        let c = chain.clone();
        let out = run_spmd(p, model, move |ctx| {
            run_pipeline(&c, ctx, PipelineConfig::default())
        });
        let (summary, stats) = &out.results[0];
        assert_eq!(
            *summary, reference,
            "pipeline must emit the identical summary at every process count"
        );
        assert_eq!(stats.items, tiles);
        image_times.push((p, out.elapsed_virtual));
        image_replicas.push((p, stats.replicas));
        if p <= 8 {
            image_wall.push((p, out.wall_us));
        }
    }
    let t1 = image_times[0].1;
    let speedup_8 = t1 / image_times.iter().find(|(p, _)| *p == 8).unwrap().1;
    let speedup_16 = t1 / image_times.iter().find(|(p, _)| *p == 16).unwrap().1;

    // --- Top-k / percentile aggregator. -----------------------------------
    let stream = TopKStream::new(192, 256, 32, 128, 3.0);
    let (digest_ref, _) = run_sequential(&stream);
    let run_at = |p: usize| {
        let s = stream.clone();
        run_spmd(p, model, move |ctx| {
            run_pipeline(&s, ctx, PipelineConfig::default())
        })
    };
    let k1 = run_at(1);
    let k8 = run_at(8);
    assert_eq!(
        k8.results[0].0, digest_ref,
        "digest must be process-count invariant"
    );
    let topk_speedup = k1.elapsed_virtual / k8.elapsed_virtual;
    let p50 = k8.results[0].0.percentile(0.5);
    let p99 = k8.results[0].0.percentile(0.99);

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

    let json = format!(
        r#"{{
  "bench": "pipeline_scaling",
  "model": "{}",
  "image_chain": {{
    "config": "256x192, 32px tiles, 24 blur passes, blur->gradient->quantize",
    "virtual_ms_by_ranks": {{ {} }},
    "wall_us_by_ranks": {{ {} }},
    "transform_ranks_by_ranks": {{ {} }},
    "speedup_8_ranks_vs_1": {speedup_8:.2},
    "speedup_16_ranks_vs_1": {speedup_16:.2}
  }},
  "topk_aggregator": {{
    "config": "192 chunks x 256 samples, top-32, 128 buckets, trim 3.0",
    "virtual_ms_1_rank": {:.2},
    "virtual_ms_8_ranks": {:.2},
    "speedup_8_ranks_vs_1": {topk_speedup:.2},
    "p50_estimate": {p50:.3},
    "p99_estimate": {p99:.3}
  }}
}}
"#,
        model.name,
        fmt_times(&image_times),
        fmt_counts(&image_wall),
        fmt_counts(&image_replicas),
        k1.elapsed_virtual * 1e3,
        k8.elapsed_virtual * 1e3,
    );

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_pipeline.json");
    std::fs::write(&path, &json).expect("write BENCH_pipeline.json");
    print!("{json}");
    println!("wrote {}", path.display());

    // Virtual-time speedups are deterministic, so these bars are fatal
    // everywhere — the CI scaling gate.
    assert!(
        speedup_8 >= 3.0,
        "8-rank image chain must be >= 3x the 1-rank baseline (got {speedup_8:.2}x)"
    );
    let t2 = image_times[1].1;
    assert!(
        t2 < 0.6 * t1,
        "2-rank image chain must take < 0.6x the 1-rank time (got {:.2}x)",
        t2 / t1
    );
    for pair in image_times.windows(2) {
        let ((p, t), (q, u)) = (pair[0], pair[1]);
        assert!(
            u <= t,
            "image chain must not slow down from {p} to {q} ranks ({:.2} -> {:.2} ms)",
            t * 1e3,
            u * 1e3
        );
    }
}
