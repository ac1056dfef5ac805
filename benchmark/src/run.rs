//! One run of one workload: set-up, the backend check, the timed
//! section, the metrics.
//!
//! `--trace 0` measures the end-to-end metrics with every kind of
//! tracing off. `--trace 1` is the separate traced run: it records the
//! benchmark's own spans, runs the workload with the program's event
//! tracing switched on and off in alternation, then times each layer
//! from outside ([`crate::layers`]).

use std::time::Instant;

use archetype_mp::{RunConfig, TraceEvent};

use crate::json::Json;
use crate::layers;
use crate::metrics::{Emitter, MetricDef, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::apps::AppsWorkload;
use crate::workloads::mp::{MpBulk, MpSmallMsgs};
use crate::workloads::serve::ServeWorkload;
use crate::workloads::{Batch, RunSummary, Workload};
use crate::{host, pin, procfs};

/// Untimed batches that follow input generation in every set-up: they
/// spawn the pool workers, fill the service caches and the arenas.
pub const WARMUP_BATCHES: u64 = 3;
/// Set-ups per end-to-end run; `setup_s` is their median. At least
/// `.0`; then more, up to `.1`, while they have taken under
/// [`SETUP_BUDGET_S`] seconds together — a 0.1 s set-up needs more
/// repeats than a 0.6 s one for a median as steady.
const SETUP_REPS: (usize, usize) = (5, 15);
const SETUP_BUDGET_S: f64 = 2.0;
/// Share of a traced run's `--seconds` its workload phase gets; the
/// layer probes share the rest.
const WORKLOAD_PHASE_SHARE: f64 = 0.35;
/// Traced batches whose `chrome_json` / `critical_path` are timed.
const ANALYSED_TRACES: usize = 3;

/// Command-line arguments of `run`.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
}

/// Ops attempted and failed so far.
#[derive(Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

impl Tally {
    /// Count a finished batch.
    pub fn add<R>(&mut self, batch: &Batch<R>) {
        self.attempted += batch.ops;
        self.failed += batch.failed;
    }
}

/// What a run found.
pub struct Outcome {
    /// Ops attempted and failed, warm-up and probes included.
    pub tally: Tally,
    /// Every metric of the run's table, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Run facts that are not metrics (sample counts, file names).
    pub notes: Json,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, value)| {
                    (
                        def.name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Run the workload `args` names.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (seed, ranks) = (args.seed, host::ranks());
    match args.workload.as_str() {
        "serve_many_small" => Ok(drive(args, || ServeWorkload::many_small(seed, ranks))),
        "serve_few_large" => Ok(drive(args, || ServeWorkload::few_large(seed, ranks))),
        "mp_small_msgs" => Ok(drive(args, || MpSmallMsgs::new(seed, ranks))),
        "mp_bulk" => Ok(drive(args, || MpBulk::new(seed, ranks))),
        "apps_fixed_size" => Ok(drive(args, || AppsWorkload::new(seed, ranks))),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn drive<W: Workload>(args: &Args, make: impl Fn() -> W) -> Outcome {
    if args.trace {
        per_layer(args, make)
    } else {
        end_to_end(args, make)
    }
}

/// One set-up: pin the pool, generate the inputs, bring the workload up,
/// run the warm-up batches. Returns the workload and the seconds it took.
fn set_up<W: Workload>(make: &impl Fn() -> W, tally: &mut Tally) -> (W, f64) {
    let start = Instant::now();
    pin::pin_pool(host::ranks());
    let mut workload = make();
    let mut off = Spans::new(false);
    for index in 0..WARMUP_BATCHES {
        tally.add(&workload.batch(index, RunConfig::real(), &mut off));
    }
    (workload, start.elapsed().as_secs_f64())
}

/// The first batch after warm-up on the virtual backend, from a set-up
/// of its own: what the first real-backend batch must reproduce.
fn virtual_reference<W: Workload>(workload: &mut W) -> Batch<W::Report> {
    workload.batch(
        WARMUP_BATCHES,
        RunConfig::virtual_time(),
        &mut Spans::new(false),
    )
}

/// Hold the first real-backend batch against the virtual one: a
/// mismatch fails every op of the batch.
fn check_backends<R: PartialEq>(real: &Batch<R>, reference: &Batch<R>, tally: &mut Tally) {
    if !real.same_logical_run(reference) {
        eprintln!("FAILED: the real backend's first batch differs from the virtual backend's");
        tally.failed += real.ops - real.failed;
    }
}

fn end_to_end<W: Workload>(args: &Args, make: impl Fn() -> W) -> Outcome {
    let mut tally = Tally::default();
    let mut off = Spans::new(false);

    // The first set-up also yields the virtual-backend reference; each
    // later one replaces it, so one set-up is resident at a time.
    let (mut workload, secs) = set_up(&make, &mut tally);
    let mut setups = vec![secs];
    let reference = virtual_reference(&mut workload);
    while setups.len() < SETUP_REPS.0
        || (setups.len() < SETUP_REPS.1 && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload);
        let (fresh, secs) = set_up(&make, &mut tally);
        workload = fresh;
        setups.push(secs);
    }

    let cpu_before = procfs::cpu_seconds();
    let clock = Instant::now();
    let mut batch_ms = Vec::new();
    let (mut ops, mut busy_s) = (0u64, 0.0f64);
    let mut index = WARMUP_BATCHES;
    while batch_ms.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let batch = workload.batch(index, RunConfig::real(), &mut off);
        if index == WARMUP_BATCHES {
            check_backends(&batch, &reference, &mut tally);
        }
        tally.add(&batch);
        ops += batch.ops;
        busy_s += batch.wall.as_secs_f64();
        batch_ms.push(batch.wall.as_secs_f64() * 1e3);
        index += 1;
    }
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let peak_rss_mib = procfs::peak_rss_mib();

    let mut emit = Emitter::new(END_TO_END);
    emit.set("throughput_ops_s", ops as f64 / busy_s);
    emit.set("batch_ms_p50", median(&batch_ms));
    emit.set("batch_ms_p90", percentile(&batch_ms, 0.9));
    emit.set("cpu_ms_per_kop", cpu_s * 1e3 / (ops as f64 / 1e3));
    emit.set("peak_rss_mib", peak_rss_mib);
    emit.set("setup_s", median(&setups));
    Outcome {
        tally,
        metrics: emit.finish(),
        notes: Json::obj([
            ("timed_batches", Json::Num(batch_ms.len() as f64)),
            ("timed_ops", Json::Num(ops as f64)),
            (
                // p90 is only a tail figure with >= 10 samples beyond it.
                "batch_ms_p90_supported",
                Json::Bool(highest_supported_percentile(batch_ms.len()).is_some()),
            ),
            ("setup_reps", Json::Num(setups.len() as f64)),
            // The series, in run order: regime changes of the host (a
            // scheduler or hypervisor settling) show here, not in a median.
            (
                "batch_ms",
                Json::Arr(
                    batch_ms
                        .iter()
                        .map(|&ms| Json::Num((ms * 1e3).round() / 1e3))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// What the program's event trace of one batch says, reduced to numbers.
struct TracedBatch {
    wall_s: f64,
    ops: u64,
    events: u64,
    dropped: u64,
    /// Largest `PoolDispatch.wall_ns` over the ranks of the batch's runs.
    dispatch_skew_us: f64,
    /// Rank 0's wave durations (`WaveStart` to the next `WaveStart`).
    wave_ms: Vec<f64>,
    /// Run end minus the last `WaveStart`, when the batch had waves.
    post_wave_ms: Option<f64>,
}

impl TracedBatch {
    fn read<R>(batch: &Batch<R>) -> TracedBatch {
        let mut t = TracedBatch {
            wall_s: batch.wall.as_secs_f64(),
            ops: batch.ops,
            events: 0,
            dropped: 0,
            dispatch_skew_us: 0.0,
            wave_ms: Vec::new(),
            post_wave_ms: None,
        };
        for run in &batch.runs {
            let trace = run.trace.as_ref().expect("the batch ran with tracing on");
            t.events += trace.total_events() as u64;
            t.dropped += trace.total_dropped();
            for rank in &trace.ranks {
                if let Some(TraceEvent::PoolDispatch { wall_ns, .. }) = rank.events.first() {
                    t.dispatch_skew_us = t.dispatch_skew_us.max(*wall_ns as f64 / 1e3);
                }
            }
            let starts: Vec<u64> = trace.ranks[0]
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::WaveStart { wall_ns, .. } => Some(*wall_ns),
                    _ => None,
                })
                .collect();
            t.wave_ms
                .extend(starts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6));
            if let Some(&last) = starts.last() {
                t.post_wave_ms = Some((run.wall_us as f64 * 1e3 - last as f64).max(0.0) / 1e6);
            }
        }
        t
    }
}

/// A workload run with the program's tracing alternately off and on,
/// under the benchmark's own spans.
pub struct Phase {
    /// `(wall seconds, ops)` of each untraced batch.
    plain: Vec<(f64, u64)>,
    traced: Vec<TracedBatch>,
    /// Milliseconds `RunTrace::chrome_json` took per analysed batch.
    chrome_json_ms: Vec<f64>,
    /// Milliseconds `RunTrace::critical_path` took per analysed batch.
    critical_path_ms: Vec<f64>,
    /// In-flight share of the critical path, per analysed batch.
    critical_wait_share: Vec<f64>,
    /// Chrome JSON and critical-path report of the last analysed run.
    export: Option<(String, String)>,
    /// Index of the phase's first span in the recorder.
    pub first_span: usize,
}

impl Phase {
    fn throughput(samples: impl Iterator<Item = (f64, u64)>) -> f64 {
        let (secs, ops) = samples.fold((0.0, 0u64), |(s, o), (ds, d)| (s + ds, o + d));
        ops as f64 / secs
    }

    /// Durations (ms) of the phase's spans named `name`.
    pub fn span_ms(&self, spans: &Spans, name: &str) -> Vec<f64> {
        spans.all()[self.first_span..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Every wave duration rank 0 traced, in ms.
    pub fn wave_ms(&self) -> Vec<f64> {
        self.traced
            .iter()
            .flat_map(|t| t.wave_ms.iter().copied())
            .collect()
    }

    /// Run end minus last wave start of every traced batch, in ms.
    pub fn post_wave_ms(&self) -> Vec<f64> {
        self.traced.iter().filter_map(|t| t.post_wave_ms).collect()
    }
}

/// The smallest per-rank trace ring (a power of two, doubled once for
/// headroom) that holds a batch without dropping events: tracing is
/// meant to be left on, so its buffer is sized to the work, not to the
/// worst case.
fn fit_trace_capacity<W: Workload>(workload: &mut W, index: u64, tally: &mut Tally) -> usize {
    let mut capacity = 1024;
    loop {
        let run = RunConfig::real()
            .with_tracing()
            .with_trace_capacity(capacity);
        let batch = workload.batch(index, run, &mut Spans::new(false));
        tally.add(&batch);
        if TracedBatch::read(&batch).dropped == 0 {
            return capacity * 2;
        }
        capacity *= 2;
    }
}

/// Run `workload` for `budget_s` seconds, alternating untraced and
/// traced batches from `first_index` on (at least one pair).
pub fn measure_phase<W: Workload>(
    workload: &mut W,
    first_index: u64,
    budget_s: f64,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Phase {
    let capacity = fit_trace_capacity(workload, first_index, tally);
    let traced_run = RunConfig::real()
        .with_tracing()
        .with_trace_capacity(capacity);
    let mut phase = Phase {
        plain: Vec::new(),
        traced: Vec::new(),
        chrome_json_ms: Vec::new(),
        critical_path_ms: Vec::new(),
        critical_wait_share: Vec::new(),
        export: None,
        first_span: spans.all().len(),
    };
    let clock = Instant::now();
    let mut index = first_index;
    while phase.traced.is_empty() || clock.elapsed().as_secs_f64() < budget_s {
        let plain = workload.batch(index, RunConfig::real(), spans);
        tally.add(&plain);
        phase.plain.push((plain.wall.as_secs_f64(), plain.ops));

        let traced = workload.batch(index + 1, traced_run, spans);
        tally.add(&traced);
        let read = TracedBatch::read(&traced);
        if read.dropped > 0 {
            // A trace with holes cannot answer questions: the batch fails.
            tally.failed += traced.ops - traced.failed;
        }
        phase.traced.push(read);
        if phase.chrome_json_ms.len() < ANALYSED_TRACES {
            analyse_traces(&traced.runs, index + 1, spans, &mut phase);
        }
        index += 2;
    }
    phase
}

/// Time the program's own trace exporters on one traced batch.
fn analyse_traces(runs: &[RunSummary], batch: u64, spans: &mut Spans, phase: &mut Phase) {
    let (mut json_ms, mut path_ms, mut wait_vt, mut total_vt) = (0.0, 0.0, 0.0, 0.0);
    for run in runs {
        let trace = run.trace.as_ref().expect("the batch ran with tracing on");
        let start = Instant::now();
        let json = spans.within("mp.trace.chrome_json", batch, || trace.chrome_json());
        json_ms += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let path = spans.within("mp.trace.critical_path", batch, || trace.critical_path(5));
        path_ms += start.elapsed().as_secs_f64() * 1e3;
        wait_vt += path.wait_vt;
        total_vt += path.total_vt;
        phase.export = Some((json, path.to_string()));
    }
    phase.chrome_json_ms.push(json_ms);
    phase.critical_path_ms.push(path_ms);
    phase.critical_wait_share.push(if total_vt > 0.0 {
        wait_vt / total_vt
    } else {
        0.0
    });
}

/// `mp.stats.*`: exact counts of one batch, so they repeat for a seed.
fn emit_run_stats<R>(emit: &mut Emitter, batch: &Batch<R>) {
    let ranks = || batch.runs.iter().flat_map(|r| r.per_rank.iter());
    let ops = batch.ops as f64;
    let sum = |f: fn(&archetype_mp::RankStats) -> f64| ranks().map(f).sum::<f64>();
    let (compute, wait, overhead) = (
        sum(|r| r.compute_time),
        sum(|r| r.wait_time),
        sum(|r| r.overhead_time),
    );
    let accounted = (compute + wait + overhead).max(f64::MIN_POSITIVE);
    emit.set(
        "mp.stats.virtual_s",
        batch.runs.iter().map(|r| r.elapsed_virtual).sum(),
    );
    emit.set("mp.stats.msgs_per_op", sum(|r| r.msgs_sent as f64) / ops);
    emit.set("mp.stats.bytes_per_op", sum(|r| r.bytes_sent as f64) / ops);
    emit.set("mp.stats.virtual_compute_share", compute / accounted);
    emit.set("mp.stats.virtual_wait_share", wait / accounted);
    emit.set("mp.stats.virtual_overhead_share", overhead / accounted);
}

/// `mp.trace.*` and `mp.pool.dispatch_skew_us`, from a workload phase.
fn emit_trace_metrics(emit: &mut Emitter, phase: &Phase) {
    let plain = Phase::throughput(phase.plain.iter().copied());
    let traced = Phase::throughput(phase.traced.iter().map(|t| (t.wall_s, t.ops)));
    let per_traced =
        |f: fn(&TracedBatch) -> f64| -> Vec<f64> { phase.traced.iter().map(f).collect() };
    emit.set("mp.trace.traced_throughput_ops_s", traced);
    emit.set("mp.trace.on_overhead_pct", (plain / traced - 1.0) * 100.0);
    emit.set(
        "mp.trace.events_per_op",
        median(&per_traced(|t| t.events as f64 / t.ops as f64)),
    );
    emit.set(
        "mp.trace.dropped",
        phase.traced.iter().map(|t| t.dropped).sum::<u64>() as f64,
    );
    emit.set("mp.trace.chrome_json_ms", median(&phase.chrome_json_ms));
    emit.set("mp.trace.critical_path_ms", median(&phase.critical_path_ms));
    emit.set(
        "mp.trace.critical_path_wait_share",
        median(&phase.critical_wait_share),
    );
    emit.set(
        "mp.pool.dispatch_skew_us",
        median(&per_traced(|t| t.dispatch_skew_us)),
    );
}

fn per_layer<W: Workload>(args: &Args, make: impl Fn() -> W) -> Outcome {
    let mut tally = Tally::default();
    let mut spans = Spans::new(true);
    let mut emit = Emitter::new(PER_LAYER);

    let reference = virtual_reference(&mut set_up(&make, &mut tally).0);
    let (mut workload, _) = set_up(&make, &mut tally);
    let first = workload.batch(WARMUP_BATCHES, RunConfig::real(), &mut Spans::new(false));
    check_backends(&first, &reference, &mut tally);
    tally.add(&first);
    emit_run_stats(&mut emit, &first);

    let phase = measure_phase(
        &mut workload,
        WARMUP_BATCHES + 1,
        args.seconds * WORKLOAD_PHASE_SHARE,
        &mut spans,
        &mut tally,
    );
    emit_trace_metrics(&mut emit, &phase);
    let coverage = spans.child_coverage("batch");
    emit.set("bench.spans.batch_coverage_pct", median(&coverage) * 100.0);

    layers::probe_all(
        &mut layers::Probe {
            emit: &mut emit,
            spans: &mut spans,
            tally: &mut tally,
            ranks: host::ranks(),
            seed: args.seed,
            budget_s: args.seconds * (1.0 - WORKLOAD_PHASE_SHARE),
        },
        &mut workload,
        &phase,
    );

    let out = crate::out_dir();
    let mut files = Vec::new();
    let mut write = |name: String, text: String| {
        std::fs::write(out.join(&name), text).expect("write under benchmark/out");
        files.push(Json::str(name));
    };
    write(
        format!("{}.spans.json", args.workload),
        spans.chrome_json().to_string(),
    );
    if let Some((run_trace, critical_path)) = &phase.export {
        write(
            format!("{}.run_trace.json", args.workload),
            run_trace.clone(),
        );
        write(
            format!("{}.critical_path.txt", args.workload),
            critical_path.clone(),
        );
    }
    Outcome {
        tally,
        metrics: emit.finish(),
        notes: Json::obj([
            ("untraced_batches", Json::Num(phase.plain.len() as f64)),
            ("traced_batches", Json::Num(phase.traced.len() as f64)),
            (
                "spans_min_batch_coverage_pct",
                Json::Num(coverage.iter().copied().fold(f64::INFINITY, f64::min) * 100.0),
            ),
            (
                "span_self_time_ms",
                Json::obj(
                    spans
                        .self_time_by_name()
                        .into_iter()
                        .map(|(name, ns)| (name, Json::Num(ns as f64 / 1e6))),
                ),
            ),
            ("files", Json::Arr(files)),
        ]),
    }
}
