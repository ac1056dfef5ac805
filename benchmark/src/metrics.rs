//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `/BENCHMARK.json` is a rendering of
//! these tables (`manifest`), and every run emits exactly the metrics
//! they list (`Emitter`).

use crate::json::Json;

/// Seconds one run measures for; the driver passes it as `--seconds`.
/// At this length every workload times at least 140 batches on the
/// 2-core reference host, and the driver's 114 runs plus two builds
/// (30 s each) take about 2700 of the 3420 seconds it allows.
pub const RUN_SECONDS: u64 = 20;

/// Workload names and why each exists (one line each, at most 200
/// characters).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_many_small",
        "1200 one-rank plans of ~30 us per batch: the per-plan service path (admission, caches, wave loop, scopes, report) does the work, the transport almost none",
    ),
    (
        "serve_few_large",
        "4 forecast composites per batch, each spanning every rank: Par hand-offs, ghost exchange, stealing and merges cross the transport; admission and caches do almost nothing",
    ),
    (
        "mp_small_msgs",
        "mp only: 8-byte ping-pong, 64-byte ring shifts, all_reduce and barrier with no compute, so wake/park latency, queues, arena and pool dispatch do all the work",
    ),
    (
        "mp_bulk",
        "mp only: 1-4 MiB broadcasts and 256 KiB all_gather/all_to_all, the write-beside-read pair of mp_small_msgs: a small-message trick that costs copies or memory shows here",
    ),
    (
        "apps_fixed_size",
        "the five archetype applications at a fixed problem size: archetype compute dominates, transport and compose do little; where the paper's speed-up claim is checked",
    ),
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the contract. `bound` is the share of the parent's
/// median by which an end-to-end metric may worsen; per-layer metrics
/// have none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off
/// (`--trace 0`).
///
/// Every bound is the contract's ceiling, 25 %. The reference host is a
/// shared 2-vCPU VM whose speed drifts in episodes of minutes: two sets
/// of ten runs of one binary differed by up to 17 % in a median and
/// showed interquartile spreads up to 17 % (README, "Noise"), and a
/// bound below the noise refuses changes at random.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_ops_s", "ops/s", Higher, 0.25),
    e2e("batch_ms_p50", "ms", Lower, 0.25),
    e2e("batch_ms_p90", "ms", Lower, 0.25),
    e2e("cpu_ms_per_kop", "ms/kop", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers, timed from outside (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // compose: the plan service, its caches, the plan algebra, the executor.
    layer("compose.serve.submit_us_per_plan", "us", Lower),
    layer("compose.serve.serve_ms_per_batch", "ms", Lower),
    layer("compose.serve.pack_us_per_batch", "us", Lower),
    layer("compose.serve.waves_per_batch", "count", Lower),
    layer("compose.serve.plans_per_wave", "count", Higher),
    layer("compose.serve.rejected", "count", Lower),
    layer("compose.serve.wave_ms_p50", "ms", Lower),
    layer("compose.serve.wave_ms_p90", "ms", Lower),
    layer("compose.serve.post_wave_ms", "ms", Lower),
    layer("compose.serve.metrics_text_us", "us", Lower),
    layer("compose.serve.overhead_us_per_plan", "us", Lower),
    layer("compose.cache.shape_hit_ratio", "ratio", Higher),
    layer("compose.cache.cost_hit_ratio", "ratio", Higher),
    layer("compose.cache.alloc_hit_ratio", "ratio", Higher),
    layer("compose.plan.structure_hash_ns", "ns", Lower),
    layer("compose.plan.estimate_flops_ns", "ns", Lower),
    layer("compose.plan.grammar_ns", "ns", Lower),
    layer("compose.alloc.allocate_ns", "ns", Lower),
    layer("compose.exec.run_plan_ms", "ms", Lower),
    layer("compose.exec.plan_speedup_vs_1rank", "ratio", Higher),
    layer("compose.exec.handoff_bytes_per_plan", "bytes", Lower),
    // mp.pool / mp.runner
    layer("mp.pool.dispatch_us", "us", Lower),
    layer("mp.pool.dispatch_skew_us", "us", Lower),
    // mp.transport
    layer("mp.transport.pingpong_8b_us_p50", "us", Lower),
    layer("mp.transport.pingpong_8b_us_p90", "us", Lower),
    layer("mp.transport.pingpong_8b_slow_block_share", "ratio", Lower),
    layer("mp.transport.pingpong_4kib_us_p50", "us", Lower),
    layer("mp.transport.pingpong_64kib_us_p50", "us", Lower),
    layer("mp.transport.spsc_msgs_per_s", "1/s", Higher),
    layer("mp.transport.mpsc_msgs_per_s", "1/s", Higher),
    // mp.collectives / mp.ctx
    layer("mp.collectives.barrier_us", "us", Lower),
    layer("mp.collectives.all_reduce_8b_us", "us", Lower),
    layer("mp.collectives.broadcast_1mib_us", "us", Lower),
    layer("mp.collectives.broadcast_4mib_us", "us", Lower),
    layer("mp.collectives.broadcast_shared_1mib_us", "us", Lower),
    layer("mp.collectives.all_gather_256kib_us", "us", Lower),
    layer("mp.collectives.all_to_all_256kib_us", "us", Lower),
    layer("mp.ctx.scoped_us", "us", Lower),
    // mp.stats: exact counts of the workload's own batches.
    layer("mp.stats.virtual_s", "s", Lower),
    layer("mp.stats.msgs_per_op", "count", Lower),
    layer("mp.stats.bytes_per_op", "bytes", Lower),
    layer("mp.stats.virtual_compute_share", "ratio", Higher),
    layer("mp.stats.virtual_wait_share", "ratio", Lower),
    layer("mp.stats.virtual_overhead_share", "ratio", Lower),
    // mp.trace: the workload's own batches with RunConfig tracing on.
    layer("mp.trace.traced_throughput_ops_s", "ops/s", Higher),
    layer("mp.trace.on_overhead_pct", "%", Lower),
    layer("mp.trace.events_per_op", "count", Lower),
    layer("mp.trace.dropped", "count", Lower),
    layer("mp.trace.chrome_json_ms", "ms", Lower),
    layer("mp.trace.critical_path_ms", "ms", Lower),
    layer("mp.trace.critical_path_wait_share", "ratio", Lower),
    // archetypes
    layer("dc.mergesort_seq_ms", "ms", Lower),
    layer("dc.mergesort_ms_1rank", "ms", Lower),
    layer("dc.mergesort_ms", "ms", Lower),
    layer("mesh.poisson_ms_1rank", "ms", Lower),
    layer("mesh.poisson_ms", "ms", Lower),
    layer("mesh.poisson_iters", "count", Lower),
    layer("farm.mandelbrot_ms_1rank", "ms", Lower),
    layer("farm.mandelbrot_ms", "ms", Lower),
    layer("farm.tiles_stolen", "count", Lower),
    layer("pipeline.image_chain_ms_1rank", "ms", Lower),
    layer("pipeline.image_chain_ms", "ms", Lower),
    layer("bnb.knapsack_ms_1rank", "ms", Lower),
    layer("bnb.knapsack_ms", "ms", Lower),
    layer("bnb.nodes_expanded", "count", Lower),
    layer("numerics.fft_4096_us", "us", Lower),
    layer("apps.speedup_vs_1rank", "ratio", Higher),
    // The benchmark's own spans: share of batch wall time they cover.
    layer("bench.spans.batch_coverage_pct", "%", Higher),
];

/// The program and arguments the driver runs; it appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// `/BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", strings(COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// Collects the metrics of one run and holds them to the table: every
/// listed metric set exactly once, nothing else, every value a finite
/// number.
pub struct Emitter {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Emitter {
    /// An emitter for `defs` ([`END_TO_END`] or [`PER_LAYER`]).
    pub fn new(defs: &'static [MetricDef]) -> Emitter {
        Emitter {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the table, was already set, or `value`
    /// is not finite — each is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the contract"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.values[i].is_none(), "metric {name} emitted twice");
        self.values[i] = Some(value);
    }

    /// The recorded `(definition, value)` pairs, in table order.
    ///
    /// # Panics
    /// Panics if a listed metric was never set.
    pub fn finish(self) -> Vec<(&'static MetricDef, f64)> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| {
                let v = v.unwrap_or_else(|| panic!("metric {} was never emitted", d.name));
                (d, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        }
    }

    #[test]
    fn the_tables_fit_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    /// `/BENCHMARK.json` lists exactly the workloads and metrics the
    /// program emits, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_is_the_rendered_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("read /BENCHMARK.json");
        assert_eq!(Json::parse(&on_disk), Ok(manifest()));
    }

    #[test]
    fn emitter_returns_every_metric_once_in_table_order() {
        let mut e = Emitter::new(END_TO_END);
        for (i, m) in END_TO_END.iter().enumerate().rev() {
            e.set(m.name, i as f64 + 0.5);
        }
        let out = e.finish();
        assert_eq!(out.len(), END_TO_END.len());
        for (i, (def, value)) in out.iter().enumerate() {
            assert_eq!(def.name, END_TO_END[i].name);
            assert_eq!(*value, i as f64 + 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "emitted twice")]
    fn emitter_refuses_a_second_value() {
        let mut e = Emitter::new(END_TO_END);
        e.set("setup_s", 1.0);
        e.set("setup_s", 2.0);
    }

    #[test]
    #[should_panic(expected = "not in the contract")]
    fn emitter_refuses_an_unlisted_metric() {
        Emitter::new(END_TO_END).set("latency_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "never emitted")]
    fn emitter_refuses_to_finish_with_a_gap() {
        let mut e = Emitter::new(END_TO_END);
        e.set("setup_s", 1.0);
        e.finish();
    }
}
