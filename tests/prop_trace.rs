//! Observability guarantees of the tracing layer.
//!
//! 1. **Observer effect — there is none.** `RunConfig::traced()` must
//!    leave results, per-rank virtual clocks, elapsed virtual time, and
//!    statistics bit-identical to the untraced run, for every
//!    archetype. Tracing reads the substrate; it never steers it.
//! 2. **Trace determinism.** Same-seed traced runs produce bit-identical
//!    *logical* event streams (wall-clock timestamps zeroed; they are
//!    the one legitimately nondeterministic field).
//! 3. **Export structure.** `chrome_json()` emits well-formed JSON with
//!    the required Chrome Trace Event keys, nonnegative finite
//!    timestamps monotone per track, and every flow arrow as a matched
//!    `s`/`f` pair.
//! 4. **Critical path sanity.** The reported path is bounded below by
//!    the busiest rank's compute time and above by the run's elapsed
//!    virtual time, and decomposes into local + wait time.

use proptest::prelude::*;

use parallel_archetypes::compose::{forecast_input, forecast_plan, run_plan, ForecastConfig};
use parallel_archetypes::dc::{run_spmd_recursive, CutoffPolicy, RecursiveMergesort};
use parallel_archetypes::farm::apps::GridSweepFarm;
use parallel_archetypes::farm::{run_farm, FarmConfig};
use parallel_archetypes::mesh::apps::poisson::{poisson_spmd, sine_problem};
use parallel_archetypes::mp::{run_spmd_with, MachineModel, RunConfig, SpmdResult, TraceEvent};
use parallel_archetypes::pipeline::{run_pipeline, PipelineConfig};

mod common;
use common::{grid_for, AddStage, NStage};

/// The traced run must match the untraced run bit for bit in everything
/// but `wall_us` and the trace itself, and a repeated traced run must
/// reproduce the identical logical event stream.
fn assert_tracing_is_inert<R, F>(label: &str, run: F)
where
    R: PartialEq + std::fmt::Debug,
    F: Fn(RunConfig) -> SpmdResult<R>,
{
    let base = run(RunConfig::default());
    let traced = run(RunConfig::traced());
    assert_eq!(
        base.results, traced.results,
        "{label}: tracing must not perturb results"
    );
    for (rank, (tb, tt)) in base.rank_times.iter().zip(&traced.rank_times).enumerate() {
        assert!(
            tb.to_bits() == tt.to_bits(),
            "{label}: rank {rank} clock must be unperturbed ({tb} vs {tt})"
        );
    }
    assert_eq!(
        base.elapsed_virtual.to_bits(),
        traced.elapsed_virtual.to_bits(),
        "{label}: elapsed virtual time must be unperturbed"
    );
    assert_eq!(
        base.stats.per_rank, traced.stats.per_rank,
        "{label}: statistics must be unperturbed"
    );
    assert!(base.trace.is_none(), "{label}: untraced runs are traceless");
    let trace = traced
        .trace
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: traced runs carry a trace"));

    // Same seed, same stream: re-run traced and compare logical
    // events (wall clocks zeroed — the only nondeterministic field).
    let again = run(RunConfig::traced());
    let trace2 = again.trace.as_ref().expect("traced");
    assert_eq!(trace.ranks.len(), trace2.ranks.len());
    for (a, b) in trace.ranks.iter().zip(&trace2.ranks) {
        assert_eq!(a.dropped, b.dropped, "{label}: drop counts");
        assert_eq!(
            a.logical_events(),
            b.logical_events(),
            "{label}: rank {} logical event stream must be reproducible",
            a.rank
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn farm_tracing_is_inert(p in 1usize..7, points in 1u32..32, steal in any::<bool>()) {
        let farm = GridSweepFarm { lo: -1.0, hi: 2.0, points };
        assert_tracing_is_inert(&format!("farm p={p}"), |cfg| {
            let farm = farm.clone();
            run_spmd_with(p, MachineModel::ibm_sp(), cfg, move |ctx| {
                let config = FarmConfig { steal, ..FarmConfig::default() };
                let (out, stats) = run_farm(&farm, ctx, config);
                let bits: Vec<(u32, u64)> =
                    out.into_iter().map(|(i, s)| (i, s.to_bits())).collect();
                (bits, stats.executed)
            })
        });
    }

    #[test]
    fn dc_tracing_is_inert(p in 1usize..7, n in 1usize..300, cutoff in 1usize..48) {
        let input: Vec<i64> = (0..n as i64).map(|i| (i * 48271 + 11) % 9973 - 4000).collect();
        let policy = CutoffPolicy::new(2, cutoff, 3);
        assert_tracing_is_inert(&format!("dc p={p} n={n}"), |cfg| {
            let inp = input.clone();
            run_spmd_with(p, MachineModel::intel_delta(), cfg, move |ctx| {
                let local = (ctx.rank() == 0).then(|| inp.clone());
                run_spmd_recursive(&RecursiveMergesort::<i64>::new(), ctx, local, &policy, None)
            })
        });
    }

    #[test]
    fn pipeline_tracing_is_inert(p in 1usize..7, items in 0u64..48, n_stages in 0usize..4) {
        let pipe = NStage {
            items,
            stages: (0..n_stages as u64).map(AddStage).collect(),
        };
        assert_tracing_is_inert(&format!("pipeline p={p} items={items}"), |cfg| {
            run_spmd_with(p, MachineModel::ibm_sp(), cfg, |ctx| {
                let (out, stats) = run_pipeline(&pipe, ctx, PipelineConfig::default());
                assert_eq!(stats.forwarded > 0, p > 1 && items > 0, "streams");
                out
            })
        });
    }

    #[test]
    fn mesh_tracing_is_inert(p in 1usize..7, n in 8usize..16, iter_cap in 1usize..40) {
        let spec = sine_problem(n, 1e-6, iter_cap);
        let pg = grid_for(p);
        assert_tracing_is_inert(&format!("mesh p={p} n={n}"), |cfg| {
            run_spmd_with(p, MachineModel::cray_t3d(), cfg, move |ctx| {
                let out = poisson_spmd(ctx, &spec, pg);
                let grid_bits: Option<Vec<u64>> =
                    out.grid.map(|g| g.iter().map(|x| x.to_bits()).collect());
                (out.iters, grid_bits)
            })
        });
    }

    #[test]
    fn composed_plan_tracing_is_inert(
        p in 1usize..7,
        sweep_points in 8u32..20,
        mesh_n in 8usize..12,
    ) {
        let cfg_fc = ForecastConfig { sweep_points, mesh_n, mesh_iters: 10 };
        assert_tracing_is_inert(&format!("forecast p={p}"), |cfg| {
            run_spmd_with(p, MachineModel::ibm_sp(), cfg, |ctx| {
                let (value, stats) = run_plan(ctx, &forecast_plan(cfg_fc), forecast_input());
                (value, stats, ctx.now().to_bits())
            })
        });
    }
}

// --------------------------------------------------------------------
// Chrome JSON structure: a minimal recursive-descent JSON parser (the
// workspace deliberately has no serde) and assertions over the export.
// --------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        assert!(self.pos < self.bytes.len(), "unexpected end of JSON");
        self.bytes[self.pos]
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(
            self.peek(),
            c,
            "expected '{}' at byte {}",
            c as char,
            self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.skip_ws();
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(fields);
        }
        loop {
            let key = self.string();
            self.eat(b':');
            fields.push((key, self.value()));
            match self.peek() {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                c => panic!("expected ',' or '}}', got '{}'", c as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                c => panic!("expected ',' or ']', got '{}'", c as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            assert!(self.pos < self.bytes.len(), "unterminated string");
            let c = self.bytes[self.pos];
            self.pos += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let esc = self.bytes[self.pos];
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                            let code = u32::from_str_radix(hex, 16).unwrap();
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        c => panic!("bad escape '\\{}'", c as char),
                    }
                }
                c => {
                    // Multi-byte UTF-8 sequences pass through bytewise.
                    let start = self.pos - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser::new(s);
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
    v
}

/// A traced forecast-plan run whose export the structure tests pick
/// apart.
fn traced_forecast() -> SpmdResult<u64> {
    let cfg = ForecastConfig {
        sweep_points: 16,
        mesh_n: 10,
        mesh_iters: 25,
    };
    run_spmd_with(4, MachineModel::ibm_sp(), RunConfig::traced(), move |ctx| {
        let (_, stats) = run_plan(ctx, &forecast_plan(cfg), forecast_input());
        stats.atoms
    })
}

#[test]
fn chrome_json_structure_is_valid() {
    let out = traced_forecast();
    let trace = out.trace.as_ref().expect("traced run");
    let root = parse_json(&trace.chrome_json());

    root.get("displayTimeUnit")
        .and_then(Json::as_str)
        .expect("displayTimeUnit present");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a forecast run records events");

    let mut flow_starts: Vec<(u64, f64)> = Vec::new();
    let mut flow_ends: Vec<(u64, f64)> = Vec::new();
    let mut last_ts_per_track: std::collections::HashMap<(u64, u64), f64> =
        std::collections::HashMap::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("ph on every event");
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .expect("pid on every event");
        assert!((0.0..4.0).contains(&pid), "pid is a rank");
        if ph == "M" {
            ev.get("name")
                .and_then(Json::as_str)
                .expect("metadata name");
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .expect("ts on every event");
        assert!(
            ts.is_finite() && ts >= 0.0,
            "timestamps are finite and nonnegative"
        );
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        ev.get("name").and_then(Json::as_str).expect("name");
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .expect("complete events have dur");
                assert!(dur >= 0.0, "durations are nonnegative");
                // Slices on one track are emitted in start order.
                let key = (pid as u64, tid);
                let last = last_ts_per_track.insert(key, ts).unwrap_or(0.0);
                assert!(
                    ts >= last,
                    "track (pid={pid}, tid={tid}) timestamps must be monotone"
                );
            }
            "i" => {}
            "s" => {
                let id = ev.get("id").and_then(Json::as_f64).expect("flow id") as u64;
                flow_starts.push((id, ts));
            }
            "f" => {
                let id = ev.get("id").and_then(Json::as_f64).expect("flow id") as u64;
                assert_eq!(
                    ev.get("bp").and_then(Json::as_str),
                    Some("e"),
                    "flow finish binds to the enclosing slice"
                );
                flow_ends.push((id, ts));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // Every flow arrow is a matched s/f pair that does not run backward
    // in virtual time.
    assert!(!flow_starts.is_empty(), "a 4-rank forecast sends messages");
    assert_eq!(
        flow_starts.len(),
        flow_ends.len(),
        "every flow start has a finish"
    );
    flow_starts.sort_unstable_by_key(|a| a.0);
    flow_ends.sort_unstable_by_key(|a| a.0);
    for ((sid, sts), (fid, fts)) in flow_starts.iter().zip(&flow_ends) {
        assert_eq!(sid, fid, "flow ids pair exactly once");
        assert!(fts >= sts, "flow {sid} arrives no earlier than it was sent");
    }
}

#[test]
fn critical_path_is_bounded_and_decomposes() {
    let out = traced_forecast();
    let trace = out.trace.as_ref().expect("traced run");
    let report = trace.critical_path(5);

    let max_compute = out.stats.max_compute_time();
    assert!(
        report.total_vt >= max_compute - 1e-9,
        "critical path ({}) must dominate the busiest rank's compute ({max_compute})",
        report.total_vt
    );
    assert!(
        report.total_vt <= out.elapsed_virtual + 1e-9,
        "critical path ({}) cannot exceed elapsed virtual time ({})",
        report.total_vt,
        out.elapsed_virtual
    );
    assert!(
        (report.local_vt + report.wait_vt - report.total_vt).abs()
            <= 1e-6 * report.total_vt.max(1.0),
        "path decomposes into local ({}) + wait ({}) = total ({})",
        report.local_vt,
        report.wait_vt,
        report.total_vt
    );
    assert!(report.end_rank < 4);
    assert!(
        !report.top_phases.is_empty(),
        "phases were recorded on the path's rank"
    );
    // The report renders.
    let text = report.to_string();
    assert!(text.contains("critical path"), "report text: {text}");
}

#[test]
fn service_waves_appear_in_traced_serve_runs() {
    use parallel_archetypes::compose::{PlanService, ServeConfig, Value};

    let mut svc = PlanService::new(4, ServeConfig::default());
    let cfg = ForecastConfig {
        sweep_points: 16,
        mesh_n: 10,
        mesh_iters: 25,
    };
    for tenant in 0..2 {
        svc.submit(tenant, forecast_plan(cfg), forecast_input())
            .unwrap();
    }
    let out = svc.serve_spmd(MachineModel::ibm_sp(), RunConfig::traced());
    assert!(out
        .results
        .iter()
        .all(|r| r.outcomes.iter().all(|o| matches!(o, Ok(Value::F64s(_))))));
    let trace = out.trace.as_ref().expect("traced serve run");
    let wave_starts = trace.ranks[0]
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::WaveStart { .. }))
        .count();
    assert!(wave_starts >= 1, "the serve schedule stamps wave starts");
}
