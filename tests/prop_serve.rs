//! Property-based tests of the **plan service**: for random plan mixes,
//! tenants, process counts, and admission widths, the wave packer must
//! partition the world exactly (no oversubscription, no idle ranks, wave
//! membership the FIFO cut) and fill interchangeable slots by modelled
//! load, per-tenant accounting must be schedule-invariant,
//! same-seed service runs must be bit-identical on the virtual
//! backend, and the metrics exposition is pinned byte for byte.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::compose::{
    forecast_plan, pack_waves, AdmitError, ArchetypeJob, ForecastConfig, Plan, PlanService,
    PoissonJob, ServeConfig, ServeReport, SortJob, SweepJob, TopKJob, Value, Wave,
};
use parallel_archetypes::core::archetype::ONE_DEEP_DC;
use parallel_archetypes::core::ArchetypeInfo;
use parallel_archetypes::farm::apps::GridSweepFarm;
use parallel_archetypes::mesh::apps::poisson::sine_problem;
use parallel_archetypes::mp::{CrashSite, Ctx, FaultPlan, MachineModel, RunConfig, SpmdResult};

// ---------------------------------------------------------------------------
// Pure packer invariants.
// ---------------------------------------------------------------------------

/// Modelled per-rank load of a schedule prefix: every rank of a plan's
/// subgroup carries that plan's cost ÷ share.
fn charge(loads: &mut [f64], wave: &Wave, costs: &[f64]) {
    for j in 0..wave.plans.len() {
        for load in &mut loads[wave.starts[j]..wave.starts[j] + wave.sizes[j]] {
            *load += costs[wave.plans[j]] / wave.sizes[j] as f64;
        }
    }
}

fn spread(loads: &[f64]) -> f64 {
    let max = loads.iter().fold(f64::MIN, |a, &b| a.max(b));
    let min = loads.iter().fold(f64::MAX, |a, &b| a.min(b));
    max - min
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_waves_partitions_the_world_exactly_in_fifo_order(
        costs in vec(0.0f64..1e6, 1..30),
        p in 1usize..9,
        max_concurrent in 0usize..9,
    ) {
        let waves = pack_waves(&costs, p, max_concurrent);
        let per_wave = max_concurrent.max(1).min(p);

        let mut next = 0usize;
        for w in &waves {
            // Admission can never oversubscribe: at most
            // min(max_concurrent, p) plans, each with >= 1 rank, and the
            // wave's shares cover the world exactly.
            prop_assert!(w.plans.len() <= per_wave);
            prop_assert_eq!(w.plans.len(), w.sizes.len());
            prop_assert_eq!(w.plans.len(), w.starts.len());
            prop_assert_eq!(w.sizes.iter().sum::<usize>(), p);
            prop_assert!(w.sizes.iter().all(|&s| s >= 1));

            // Subgroups are contiguous and disjoint: each starts where
            // the previous ends, beginning at rank 0.
            prop_assert_eq!(w.starts[0], 0);
            for j in 1..w.plans.len() {
                prop_assert_eq!(w.starts[j], w.starts[j - 1] + w.sizes[j - 1]);
            }

            // Membership is the next FIFO cut, whatever the placement;
            // unequal shares are not interchangeable, so they keep
            // admission order.
            let cut: Vec<usize> = (next..next + w.plans.len()).collect();
            let mut members = w.plans.clone();
            members.sort_unstable();
            prop_assert_eq!(&members, &cut);
            if w.sizes.iter().any(|&s| s != w.sizes[0]) {
                prop_assert_eq!(&w.plans, &cut);
            }
            next += w.plans.len();
        }
        // Every queued plan is scheduled exactly once.
        prop_assert_eq!(next, costs.len());

        // A pure function: the same costs pack to the same waves.
        prop_assert_eq!(&waves, &pack_waves(&costs, p, max_concurrent));
    }

    #[test]
    fn one_rank_slots_stay_within_one_plan_of_balance_after_every_wave(
        waves_of_costs in vec(vec(0.0f64..1e6, 8..9), 1..12),
        p in 1usize..9,
        extra in 0usize..4,
    ) {
        // `p` plans per wave over `p` ranks: every share is one rank, so
        // every slot is interchangeable and greedy list scheduling
        // applies wave after wave.
        let costs: Vec<f64> = waves_of_costs.iter().flat_map(|w| w[..p].to_vec()).collect();
        let waves = pack_waves(&costs, p, p + extra);
        prop_assert_eq!(waves.len(), waves_of_costs.len());
        let mut loads = vec![0.0f64; p];
        let mut largest = 0.0f64;
        for w in &waves {
            prop_assert!(w.sizes.iter().all(|&s| s == 1));
            charge(&mut loads, w, &costs);
            largest = w.plans.iter().fold(largest, |a, &i| a.max(costs[i]));
            prop_assert!(
                spread(&loads) <= largest * (1.0 + 1e-12),
                "loads {:?} spread past the largest plan {}", loads, largest
            );
        }
    }
}

/// The anomaly this packer was written for: every 8th plan three times
/// the rest, two ranks. Admission order parks every heavy plan on rank 1.
#[test]
fn every_eighth_plan_heavy_no_longer_piles_onto_rank_one() {
    let costs: Vec<f64> = (0..1200)
        .map(|i| if i % 8 == 7 { 3.0 } else { 1.0 })
        .collect();
    let mut in_admission_order = [0.0f64; 2];
    for (i, c) in costs.iter().enumerate() {
        in_admission_order[i % 2] += c;
    }
    assert_eq!(in_admission_order, [600.0, 900.0]);

    let waves = pack_waves(&costs, 2, 8);
    assert_eq!(waves.len(), 600);
    let mut loads = [0.0f64; 2];
    for w in &waves {
        charge(&mut loads, w, &costs);
    }
    assert_eq!(loads[0] + loads[1], 1500.0);
    assert!(spread(&loads) <= 3.0, "ranks end at {loads:?}");
}

// ---------------------------------------------------------------------------
// Service runs, observed through a cheap deterministic atom.
// ---------------------------------------------------------------------------

/// A self-contained atom: folds any input value to a scalar and nudges
/// it by its weight, so arbitrary mixes type-check from a `Unit` root.
struct Fold {
    weight: f64,
}

fn fold_value(v: &Value) -> f64 {
    match v {
        Value::Unit => 1.0,
        Value::U64(x) => *x as f64,
        Value::F64(x) => *x,
        Value::I64s(xs) => xs.iter().map(|&x| x as f64).sum(),
        Value::F64s(xs) => xs.iter().sum(),
        Value::Tuple(parts) => parts.iter().map(fold_value).sum(),
    }
}

impl ArchetypeJob for Fold {
    type In = Value;
    type Out = Value;

    fn name(&self) -> &'static str {
        "fold"
    }

    fn info(&self) -> &'static ArchetypeInfo {
        &ONE_DEEP_DC
    }

    fn estimate_flops(&self, _input: &Value) -> f64 {
        self.weight
    }

    fn run(&self, _ctx: &mut Ctx, input: Value) -> Value {
        assert!(self.weight >= 0.0, "the atom exploded");
        Value::F64(fold_value(&input) * 1.5 + self.weight)
    }

    fn fingerprint(&self) -> u64 {
        self.weight.to_bits()
    }
}

/// One generated submission: `(shape selector, weight, tenant)`.
type Mix = Vec<(u8, u32, u32)>;

/// Build the plan a generated submission describes: a single atom, a
/// two-stage sequence, or a two-branch `Par` feeding a merge atom.
fn mix_plan(shape: u8, weight: u32) -> Plan {
    let w = f64::from(weight);
    match shape % 3 {
        0 => Plan::atom(Fold { weight: w }),
        1 => Plan::atom(Fold { weight: w }).then(Plan::atom(Fold { weight: w + 1.0 })),
        _ => Plan::atom(Fold { weight: w })
            .alongside(Plan::atom(Fold { weight: w * 2.0 }))
            .then(Plan::atom(Fold { weight: 1.0 })),
    }
}

/// A fresh service holding the generated batch.
fn service(mix: &Mix, p: usize, max_concurrent: usize) -> PlanService {
    let mut svc = PlanService::new(
        p,
        ServeConfig {
            max_concurrent,
            ..ServeConfig::default()
        },
    );
    for &(shape, weight, tenant) in mix {
        svc.submit(tenant, mix_plan(shape, 1 + weight % 999), Value::Unit)
            .expect("batch fits the default queue capacity");
    }
    svc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tenant_stats_and_outcomes_are_schedule_invariant(
        mix in vec((0u8..3, 0u32..999, 0u32..4), 1..12),
        p in 2usize..9,
        max_concurrent in 2usize..9,
    ) {
        let serial = service(&mix, p, 1).serve(MachineModel::ibm_sp());
        let packed = service(&mix, p, max_concurrent).serve(MachineModel::ibm_sp());

        // Serial runs one plan per wave on the full world; the packed
        // schedule must not change what was computed or the accounting.
        prop_assert_eq!(serial.report.waves, mix.len() as u64);
        prop_assert_eq!(&serial.report.outcomes, &packed.report.outcomes);
        prop_assert_eq!(&serial.report.tenants, &packed.report.tenants);

        // Every submission completed and landed with its tenant.
        prop_assert!(packed.report.outcomes.iter().all(|o| o.is_ok()));
        let submitted: u64 = packed.report.tenants.iter().map(|(_, s)| s.submitted).sum();
        prop_assert_eq!(submitted, mix.len() as u64);
    }

    #[test]
    fn same_seed_service_runs_are_bit_identical(
        mix in vec((0u8..3, 0u32..999, 0u32..4), 1..10),
        p in 2usize..9,
        max_concurrent in 1usize..6,
    ) {
        // The workspace determinism snapshot over the raw SPMD entry
        // point: per-rank reports, per-rank clocks, and the elapsed
        // virtual time must all be bit-identical across runs.
        common::assert_bit_identical_runs("plan service", || {
            service(&mix, p, max_concurrent)
                .serve_spmd(MachineModel::cray_t3d(), RunConfig::virtual_time())
        });
    }
}

// ---------------------------------------------------------------------------
// Rank 0's report: recorded bit for bit, and built on rank 0 alone.
// ---------------------------------------------------------------------------

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

/// A fixed mixed batch of twelve plans over three tenants: sweeps,
/// Poisson solves, the two-branch sort → top-k composite and the mini
/// forecast, served on `p` ranks.
fn pinned_batch(p: usize) -> SpmdResult<ServeReport> {
    let mut svc = PlanService::new(p, ServeConfig::default());
    for i in 0..12usize {
        let plan = match i % 4 {
            0 => sweep_plan(16 + 8 * (i as u32 % 3)),
            1 => poisson_plan(8 + 2 * (i % 3), 20 + 20 * (i % 2)),
            2 => sweep_plan(12)
                .alongside(sweep_plan(20))
                .then(Plan::atom(SortJob::default()))
                .then(Plan::atom(TopKJob::default())),
            _ => forecast_plan(ForecastConfig {
                sweep_points: 24,
                mesh_n: 12,
                mesh_iters: 40,
            }),
        };
        svc.submit(i as u32 % 3, plan, Value::Unit).unwrap();
    }
    svc.serve_spmd(MachineModel::ibm_sp(), RunConfig::virtual_time())
}

/// FNV-1a over a report's `Debug` text, which spells every float in
/// its shortest round-tripping form: outcomes, tenants, both latency
/// digests and `waves`, bit for bit.
fn report_hash(report: &ServeReport) -> u64 {
    format!("{report:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn rank_zero_report_is_the_recorded_one() {
    // `(p, waves, report hash)`, recorded while every rank assembled the
    // report from an `all_gather` of every record.
    let expected = [
        (1, 12, 0x5165_39de_3ec5_bde0),
        (2, 6, 0x0847_f6f0_89c1_e002),
        (4, 3, 0x6cc1_2fd9_8fee_c99c),
        (8, 2, 0xff3c_304e_bb49_c9f4),
    ];
    for (p, waves, hash) in expected {
        let out = pinned_batch(p);
        let report = &out.results[0];
        assert_eq!(report.outcomes.len(), 12, "p={p}");
        assert!(report.outcomes.iter().all(|o| o.is_ok()), "p={p}");
        assert_eq!(report.tenants.len(), 3, "p={p}");
        assert_eq!(report.waves, waves, "p={p}");
        assert_eq!(report_hash(report), hash, "p={p}: {report:?}");
    }
}

#[test]
fn ranks_after_zero_return_the_report_of_an_empty_batch() {
    let empty = PlanService::new(1, ServeConfig::default())
        .serve_spmd(MachineModel::ibm_sp(), RunConfig::virtual_time())
        .results
        .remove(0);
    assert!(empty.outcomes.is_empty() && empty.tenants.is_empty());
    assert!(empty.tenant_latency.is_empty());
    assert_eq!((empty.latency.count, empty.waves), (0, 0));
    for p in [2, 4, 8] {
        let out = pinned_batch(p);
        assert_eq!(out.results[0].outcomes.len(), 12, "p={p}");
        for (rank, report) in out.results.iter().enumerate().skip(1) {
            assert_eq!(report, &empty, "p={p}, rank {rank}");
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics exposition: every line of `metrics_text()` must parse as
// Prometheus text format, and the counters must add up.
// ---------------------------------------------------------------------------

/// Check one `name{labels} value` sample line, returning `(name, value)`.
fn parse_sample_line(line: &str) -> (String, f64) {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().unwrap().is_ascii_alphabetic()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let (series, value) = line
        .rsplit_once(' ')
        .expect("sample has 'series value' form");
    let name = if let Some(brace) = series.find('{') {
        assert!(series.ends_with('}'), "label block closes: {line}");
        let labels = &series[brace + 1..series.len() - 1];
        // k="v" pairs separated by commas; values may contain escaped
        // quotes, so split on '",' boundaries.
        for pair in labels.split("\",") {
            let pair = pair.strip_suffix('"').unwrap_or(pair);
            let (k, v) = pair.split_once("=\"").expect("label is k=\"v\": {line}");
            assert!(
                valid_name(k) || k == "le" || k == "quantile",
                "label key {k:?}"
            );
            assert!(!v.contains('\n'), "label value unescaped: {v:?}");
        }
        &series[..brace]
    } else {
        series
    };
    assert!(valid_name(name), "metric name {name:?} in {line:?}");
    let v: f64 = if value == "+Inf" {
        f64::INFINITY
    } else {
        value
            .parse()
            .unwrap_or_else(|_| panic!("bad value {value:?} in {line:?}"))
    };
    (name.to_string(), v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn metrics_text_parses_line_by_line_and_counters_add_up(
        mix in vec((0u8..3, 0u32..999, 0u32..4), 1..10),
        p in 2usize..7,
        max_concurrent in 1usize..6,
    ) {
        let mut svc = service(&mix, p, max_concurrent);
        // Force a typed rejection so the reason-labeled counter appears.
        let mut capped = PlanService::new(p, ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        });
        let reject = capped.submit(0, mix_plan(0, 1), Value::Unit);
        prop_assert!(reject.is_err());

        let out = svc.serve(MachineModel::ibm_sp());
        prop_assert!(out.report.outcomes.iter().all(|o| o.is_ok()));

        for (svc, admitted, rejected) in [(&svc, mix.len() as u64, 0u64), (&capped, 0, 1)] {
            let text = svc.metrics_text();
            let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
            let mut samples: Vec<(String, f64)> = Vec::new();
            for line in text.lines() {
                prop_assert!(!line.is_empty(), "no blank lines in the exposition");
                if let Some(rest) = line.strip_prefix("# ") {
                    let mut parts = rest.splitn(3, ' ');
                    let kw = parts.next().unwrap();
                    let name = parts.next().expect("comment names a metric");
                    prop_assert!(kw == "HELP" || kw == "TYPE", "unknown comment {line:?}");
                    if kw == "TYPE" {
                        let kind = parts.next().expect("TYPE has a kind");
                        prop_assert!(
                            ["counter", "gauge", "histogram", "summary"].contains(&kind),
                            "bad kind {kind:?}"
                        );
                        typed.insert(name.to_string());
                    }
                } else {
                    samples.push(parse_sample_line(line));
                }
            }
            // Every sample belongs to a declared metric family.
            for (name, _) in &samples {
                let base = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|b| typed.contains(*b))
                    .unwrap_or(name);
                prop_assert!(typed.contains(base), "undeclared sample {name:?}");
            }
            let value_of = |n: &str| {
                samples
                    .iter()
                    .filter(|(name, _)| name == n)
                    .map(|(_, v)| v)
                    .sum::<f64>()
            };
            prop_assert_eq!(value_of("planserve_admitted_total") as u64, admitted);
            prop_assert_eq!(value_of("planserve_rejected_total") as u64, rejected);
            // The queue drained (or was never filled).
            prop_assert_eq!(value_of("planserve_queue_depth") as u64, 0);
        }

        // Served-batch accounting: completions across tenants equal the
        // batch, and the wave histogram's +Inf bucket counts every wave.
        let text = svc.metrics_text();
        let completed: f64 = text
            .lines()
            .filter(|l| l.starts_with("planserve_plans_completed_total"))
            .map(|l| parse_sample_line(l).1)
            .sum();
        prop_assert_eq!(completed as u64, mix.len() as u64);
        let waves_inf: f64 = text
            .lines()
            .filter(|l| l.starts_with("planserve_wave_occupancy_bucket{le=\"+Inf\"}"))
            .map(|l| parse_sample_line(l).1)
            .sum();
        prop_assert_eq!(waves_inf as u64, out.report.waves);

        // "One rank got the heavy plans" is answerable from the text: the
        // gauge is the packed schedule's modelled max ÷ mean rank load.
        let costs: Vec<f64> = mix
            .iter()
            .map(|&(shape, weight, _)| {
                mix_plan(shape, 1 + weight % 999).estimate_flops_lenient(&Value::Unit)
            })
            .collect();
        let mut loads = vec![0.0f64; p];
        for w in &pack_waves(&costs, p, max_concurrent) {
            charge(&mut loads, w, &costs);
        }
        let mean = loads.iter().sum::<f64>() / p as f64;
        let max = loads.iter().fold(0.0f64, |a, &b| a.max(b));
        let imbalance: Vec<f64> = text
            .lines()
            .filter(|l| l.starts_with("planserve_rank_load_imbalance"))
            .map(|l| parse_sample_line(l).1)
            .collect();
        prop_assert_eq!(imbalance.len(), 1);
        prop_assert_eq!(imbalance[0].to_bits(), (max / mean).to_bits());
        prop_assert!(imbalance[0] >= 1.0);
    }
}

// ---------------------------------------------------------------------------
// Conservation over histories: every submit attempt is admitted or
// rejected, and every admitted plan completes, fails or stays queued,
// exactly once — whatever the batches in between did.
// ---------------------------------------------------------------------------

/// Tenant ids a history draws from: a few that recur, and the top of the
/// id range.
const TENANTS: [u32; 4] = [0, 2, 10, u32::MAX];

/// The service a history drives: a queue of four, so queue-full
/// rejections happen, and a ceiling no `mix_plan` reaches.
fn history_service(p: usize, max_concurrent: usize) -> PlanService {
    PlanService::new(
        p,
        ServeConfig {
            max_concurrent,
            queue_capacity: 4,
            cost_ceiling: 1e9,
        },
    )
}

/// Every sample line of `metrics_text()`, keyed by its series
/// (`name{labels}`).
fn series(text: &str) -> std::collections::HashMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("series value");
            (
                series.to_string(),
                value.parse::<f64>().unwrap_or(0.0) as u64,
            )
        })
        .collect()
}

/// The invariants that hold between any two steps of any history.
fn assert_accounts_balance(svc: &PlanService, step: usize) {
    let totals = svc.tenant_totals();
    let m = series(&svc.metrics_text());
    let get = |k: &str| m.get(k).copied().unwrap_or(0);
    let submitted: u64 = totals.iter().map(|(_, s)| s.submitted).sum();
    assert_eq!(
        get("planserve_admitted_total"),
        submitted + get("planserve_queue_depth"),
        "step {step}: admitted = submitted + queued; {totals:?}"
    );
    let rejected: u64 = totals.iter().map(|(_, s)| s.rejected).sum();
    assert_eq!(
        rejected,
        get("planserve_rejected_total{reason=\"cost_ceiling\"}")
            + get("planserve_rejected_total{reason=\"queue_full\"}"),
        "step {step}: rejections"
    );
    let mut served_tenants = 0;
    for (t, s) in &totals {
        assert_eq!(
            s.completed + s.failed,
            s.submitted,
            "step {step}: tenant {t}"
        );
        if s.submitted == 0 {
            continue;
        }
        served_tenants += 1;
        let labelled = |name: &str| get(&format!("{name}{{tenant=\"{t}\"}}"));
        assert_eq!(
            labelled("planserve_plans_completed_total"),
            s.completed,
            "step {step}: tenant {t}"
        );
        assert_eq!(
            labelled("planserve_plans_failed_total"),
            s.failed,
            "step {step}: tenant {t}"
        );
        assert_eq!(
            labelled("planserve_tenant_latency_virtual_seconds_count"),
            s.completed,
            "step {step}: tenant {t}"
        );
    }
    let completed_series = m
        .keys()
        .filter(|k| k.starts_with("planserve_plans_completed_total{"))
        .count();
    assert_eq!(completed_series, served_tenants, "step {step}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_admitted_plan_gets_exactly_one_outcome(
        steps in vec((0u8..9, any::<u32>(), any::<u32>()), 1..16),
        p in 1usize..5,
        max_concurrent in 1usize..4,
    ) {
        use std::collections::{BTreeMap, BTreeSet};
        let mut svc = history_service(p, max_concurrent);
        // What the history says each tenant's totals must be.
        let mut queued: Vec<u32> = Vec::new();
        let mut submitted: BTreeMap<u32, u64> = BTreeMap::new();
        let mut rejected: BTreeMap<u32, u64> = BTreeMap::new();
        // Rejections since the last report that folded them.
        let mut pending: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, &(op, a, b)) in steps.iter().enumerate() {
            let tenant = if a % 8 < 4 { TENANTS[a as usize % 4] } else { a };
            let mut drained = if (4..8).contains(&op) {
                std::mem::take(&mut queued)
            } else {
                Vec::new()
            };
            let mut report = None;
            match op {
                0..=3 => {
                    // Op 3 asks for more than the ceiling allows.
                    let plan = if op == 3 {
                        Plan::atom(Fold { weight: 1e12 })
                    } else {
                        mix_plan(b as u8, 1 + b % 999)
                    };
                    match svc.submit(tenant, plan, Value::Unit) {
                        Ok(id) => {
                            prop_assert!(op < 3, "step {i}: over the ceiling yet admitted");
                            prop_assert_eq!(id, queued.len() as u64);
                            queued.push(tenant);
                        }
                        Err(e) => {
                            let full = matches!(e, AdmitError::QueueFull { .. });
                            prop_assert!(op == 3 || full, "step {i}: {e}");
                            *rejected.entry(tenant).or_default() += 1;
                            *pending.entry(tenant).or_default() += 1;
                        }
                    }
                }
                4 => report = Some(svc.serve(MachineModel::ibm_sp()).report),
                5 => {
                    let out = svc.serve_spmd(MachineModel::ibm_sp(), RunConfig::default());
                    prop_assert_eq!(out.results[0].outcomes.len(), drained.len());
                    let tenants = &out.results[0].tenants;
                    prop_assert!(tenants.iter().all(|(_, s)| s.rejected == 0));
                }
                8 => {
                    // A plan whose atom panics, then a `serve` or
                    // `serve_spmd` that loses its whole batch to the
                    // panic, which reaches the caller.
                    let admitted = match svc.submit(tenant, Plan::atom(Fold { weight: -1.0 }), Value::Unit) {
                        Ok(_) => {
                            queued.push(tenant);
                            true
                        }
                        Err(e) => {
                            prop_assert!(matches!(e, AdmitError::QueueFull { .. }), "step {i}: {e}");
                            *rejected.entry(tenant).or_default() += 1;
                            *pending.entry(tenant).or_default() += 1;
                            false
                        }
                    };
                    drained = std::mem::take(&mut queued);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if b % 2 == 0 {
                            Some(svc.serve(MachineModel::ibm_sp()).report)
                        } else {
                            svc.serve_spmd(MachineModel::ibm_sp(), RunConfig::default());
                            None
                        }
                    }));
                    match run {
                        Ok(served) => {
                            prop_assert!(!admitted, "step {i}: the panicking atom ran quietly");
                            report = served;
                        }
                        Err(_) => prop_assert!(admitted, "step {i}: a batch panicked"),
                    }
                }
                _ => {
                    // Op 6 exhausts an atom's retries; op 7 kills a rank
                    // at a send, a receive or a phase boundary.
                    let fault = if op == 6 {
                        FaultPlan::new(u64::from(a)).fail_atom(u64::from(b % 4), 1 + a % 5)
                    } else {
                        let k = u64::from(b / 4 % 4);
                        let sites = [CrashSite::Send(k), CrashSite::Recv(k), CrashSite::Phase(k)];
                        let site = sites[b as usize % 3];
                        FaultPlan::new(u64::from(a)).crash(b as usize % p, site)
                    };
                    if let Ok(out) = svc.serve_ft(MachineModel::ibm_sp(), fault) {
                        report = Some(out.report);
                    }
                }
            }
            for &t in &drained {
                *submitted.entry(t).or_default() += 1;
            }
            if let Some(report) = report {
                prop_assert_eq!(report.outcomes.len(), drained.len(), "step {}", i);
                let folded: BTreeMap<u32, u64> = report
                    .tenants
                    .iter()
                    .filter(|(_, s)| s.rejected > 0)
                    .map(|&(t, s)| (t, s.rejected))
                    .collect();
                prop_assert_eq!(&folded, &pending, "step {}: pending rejections", i);
                pending.clear();
            }
            assert_accounts_balance(&svc, i);
            // The books hold exactly the tenants the history touched.
            let count = |m: &BTreeMap<u32, u64>, t: &u32| m.get(t).copied().unwrap_or(0);
            let expected: Vec<(u32, u64, u64)> = submitted
                .keys()
                .chain(rejected.keys())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .map(|t| (*t, count(&submitted, t), count(&rejected, t)))
                .collect();
            let books: Vec<(u32, u64, u64)> = svc
                .tenant_totals()
                .into_iter()
                .map(|(t, s)| (t, s.submitted, s.rejected))
                .collect();
            prop_assert_eq!(books, expected, "step {}", i);
        }
    }
}

// ---------------------------------------------------------------------------
// The exposition, byte for byte, over a history that touches every family.
// ---------------------------------------------------------------------------

/// The service the exposition golden drives: three ranks and a queue of
/// three.
fn golden_service() -> PlanService {
    PlanService::new(
        3,
        ServeConfig {
            queue_capacity: 3,
            cost_ceiling: 1e9,
            ..ServeConfig::default()
        },
    )
}

#[test]
fn metrics_text_is_the_recorded_exposition() {
    let mut svc = golden_service();
    let fresh = svc.metrics_text();

    // Batch 1: tenants 2 and 10, one rejection of each kind.
    let err = svc
        .submit(2, Plan::atom(Fold { weight: 1e12 }), Value::Unit)
        .unwrap_err();
    assert!(matches!(err, AdmitError::CostCeiling { .. }));
    svc.submit(2, sweep_plan(16), Value::Unit).unwrap();
    svc.submit(10, sweep_plan(24), Value::Unit).unwrap();
    svc.submit(10, mix_plan(2, 7), Value::Unit).unwrap();
    let err = svc.submit(2, mix_plan(0, 1), Value::Unit).unwrap_err();
    assert!(matches!(err, AdmitError::QueueFull { .. }));
    svc.serve(MachineModel::ibm_sp());
    let first = svc.metrics_text();

    // Batch 2: tenant 10's latency summary folds a second batch and
    // replaces its quantiles; tenant 2's single-atom plan (node 0)
    // exhausts its retries and fails.
    let batch2 = |svc: &mut PlanService| {
        let seq = sweep_plan(12).then(Plan::atom(Fold { weight: 1.0 }));
        svc.submit(10, seq, Value::Unit).unwrap();
        svc.submit(2, mix_plan(0, 9), Value::Unit).unwrap();
    };
    batch2(&mut svc);
    let out = svc
        .serve_ft(MachineModel::ibm_sp(), FaultPlan::new(7).fail_atom(0, 9))
        .expect("no rank crashed");
    assert!(out.report.outcomes[0].is_ok() && out.report.outcomes[1].is_err());

    // Batch 3 repeats batch 2's costs (an allocation hit) and is lost to
    // a rank crash; batch 4 is empty; one plan stays queued.
    batch2(&mut svc);
    svc.serve_ft(
        MachineModel::ibm_sp(),
        FaultPlan::new(7).crash(0, CrashSite::Send(0)),
    )
    .expect_err("rank 0 dies");
    svc.serve(MachineModel::ibm_sp());
    svc.submit(10, sweep_plan(16), Value::Unit).unwrap();
    let last = svc.metrics_text();

    let mut empty = golden_service();
    empty.serve(MachineModel::ibm_sp());

    assert_eq!(fresh, FRESH);
    assert_eq!(first, AFTER_BATCH_1);
    assert_eq!(last, AFTER_BATCH_4);
    assert_eq!(empty.metrics_text(), AFTER_EMPTY_BATCH);
}

/// A fresh service: every family's HELP and TYPE, and only the series
/// read off the service's state (queue depth, cache counters).
const FRESH: &str = r#"# HELP planserve_admitted_total Submissions accepted by the admission controller.
# TYPE planserve_admitted_total counter
# HELP planserve_batches_total Batches served (serve / serve_ft calls that executed).
# TYPE planserve_batches_total counter
# HELP planserve_cache_hits_total Structure-cache lookups answered from cache, by cache.
# TYPE planserve_cache_hits_total counter
planserve_cache_hits_total{cache="alloc"} 0
planserve_cache_hits_total{cache="cost"} 0
planserve_cache_hits_total{cache="shape"} 0
# HELP planserve_cache_misses_total Structure-cache lookups computed fresh, by cache.
# TYPE planserve_cache_misses_total counter
planserve_cache_misses_total{cache="alloc"} 0
planserve_cache_misses_total{cache="cost"} 0
planserve_cache_misses_total{cache="shape"} 0
# HELP planserve_last_batch_virtual_seconds Modeled virtual time of the most recently served batch.
# TYPE planserve_last_batch_virtual_seconds gauge
# HELP planserve_plans_completed_total Plans that completed with a value, by tenant.
# TYPE planserve_plans_completed_total counter
# HELP planserve_plans_failed_total Plans that failed with a typed PlanError, or were lost with their batch to a failed rank, by tenant.
# TYPE planserve_plans_failed_total counter
# HELP planserve_queue_depth Submissions currently queued awaiting service.
# TYPE planserve_queue_depth gauge
planserve_queue_depth 0
# HELP planserve_rank_load_imbalance Modelled max rank load over mean rank load (cost / share summed per rank) of the last packed batch.
# TYPE planserve_rank_load_imbalance gauge
# HELP planserve_rejected_total Submissions rejected at admission, by AdmitError reason.
# TYPE planserve_rejected_total counter
# HELP planserve_tenant_latency_virtual_seconds Plan completion latency in virtual seconds, by tenant (quantiles from the last batch).
# TYPE planserve_tenant_latency_virtual_seconds summary
# HELP planserve_wave_occupancy Plans packed per executed wave.
# TYPE planserve_wave_occupancy histogram
# HELP planserve_waves_total Waves executed across all served batches.
# TYPE planserve_waves_total counter
"#;

/// Batch 1 served: rejections by reason, tenant series in string order
/// ("10" before "2"), the wave histogram and both last-batch gauges.
const AFTER_BATCH_1: &str = r#"# HELP planserve_admitted_total Submissions accepted by the admission controller.
# TYPE planserve_admitted_total counter
planserve_admitted_total 3
# HELP planserve_batches_total Batches served (serve / serve_ft calls that executed).
# TYPE planserve_batches_total counter
planserve_batches_total 1
# HELP planserve_cache_hits_total Structure-cache lookups answered from cache, by cache.
# TYPE planserve_cache_hits_total counter
planserve_cache_hits_total{cache="alloc"} 0
planserve_cache_hits_total{cache="cost"} 0
planserve_cache_hits_total{cache="shape"} 0
# HELP planserve_cache_misses_total Structure-cache lookups computed fresh, by cache.
# TYPE planserve_cache_misses_total counter
planserve_cache_misses_total{cache="alloc"} 1
planserve_cache_misses_total{cache="cost"} 4
planserve_cache_misses_total{cache="shape"} 4
# HELP planserve_last_batch_virtual_seconds Modeled virtual time of the most recently served batch.
# TYPE planserve_last_batch_virtual_seconds gauge
planserve_last_batch_virtual_seconds 0.0012588
# HELP planserve_plans_completed_total Plans that completed with a value, by tenant.
# TYPE planserve_plans_completed_total counter
planserve_plans_completed_total{tenant="10"} 2
planserve_plans_completed_total{tenant="2"} 1
# HELP planserve_plans_failed_total Plans that failed with a typed PlanError, or were lost with their batch to a failed rank, by tenant.
# TYPE planserve_plans_failed_total counter
planserve_plans_failed_total{tenant="10"} 0
planserve_plans_failed_total{tenant="2"} 0
# HELP planserve_queue_depth Submissions currently queued awaiting service.
# TYPE planserve_queue_depth gauge
planserve_queue_depth 0
# HELP planserve_rank_load_imbalance Modelled max rank load over mean rank load (cost / share summed per rank) of the last packed batch.
# TYPE planserve_rank_load_imbalance gauge
planserve_rank_load_imbalance 1.5641366176360036
# HELP planserve_rejected_total Submissions rejected at admission, by AdmitError reason.
# TYPE planserve_rejected_total counter
planserve_rejected_total{reason="cost_ceiling"} 1
planserve_rejected_total{reason="queue_full"} 1
# HELP planserve_tenant_latency_virtual_seconds Plan completion latency in virtual seconds, by tenant (quantiles from the last batch).
# TYPE planserve_tenant_latency_virtual_seconds summary
planserve_tenant_latency_virtual_seconds{tenant="10",quantile="0.5"} 0.0000024390625024390627
planserve_tenant_latency_virtual_seconds{tenant="10",quantile="0.99"} 0.001246360938746361
planserve_tenant_latency_virtual_seconds_sum{tenant="10"} 0.0012488
planserve_tenant_latency_virtual_seconds_count{tenant="10"} 2
planserve_tenant_latency_virtual_seconds{tenant="2",quantile="0.5"} 0.0011439203136439204
planserve_tenant_latency_virtual_seconds{tenant="2",quantile="0.99"} 0.0011439203136439204
planserve_tenant_latency_virtual_seconds_sum{tenant="2"} 0.0011459999999999999
planserve_tenant_latency_virtual_seconds_count{tenant="2"} 1
# HELP planserve_wave_occupancy Plans packed per executed wave.
# TYPE planserve_wave_occupancy histogram
planserve_wave_occupancy_bucket{le="1"} 0
planserve_wave_occupancy_bucket{le="2"} 0
planserve_wave_occupancy_bucket{le="4"} 1
planserve_wave_occupancy_bucket{le="8"} 1
planserve_wave_occupancy_bucket{le="16"} 1
planserve_wave_occupancy_bucket{le="32"} 1
planserve_wave_occupancy_bucket{le="+Inf"} 1
planserve_wave_occupancy_sum 3
planserve_wave_occupancy_count 1
# HELP planserve_waves_total Waves executed across all served batches.
# TYPE planserve_waves_total counter
planserve_waves_total 1
"#;

/// After a failed plan, a batch lost to a crash (counted in batches and
/// waves, not per tenant), an empty batch and one queued plan: tenant
/// 10's summary folds two batches and carries batch 2's quantiles.
const AFTER_BATCH_4: &str = r#"# HELP planserve_admitted_total Submissions accepted by the admission controller.
# TYPE planserve_admitted_total counter
planserve_admitted_total 8
# HELP planserve_batches_total Batches served (serve / serve_ft calls that executed).
# TYPE planserve_batches_total counter
planserve_batches_total 3
# HELP planserve_cache_hits_total Structure-cache lookups answered from cache, by cache.
# TYPE planserve_cache_hits_total counter
planserve_cache_hits_total{cache="alloc"} 1
planserve_cache_hits_total{cache="cost"} 3
planserve_cache_hits_total{cache="shape"} 3
# HELP planserve_cache_misses_total Structure-cache lookups computed fresh, by cache.
# TYPE planserve_cache_misses_total counter
planserve_cache_misses_total{cache="alloc"} 2
planserve_cache_misses_total{cache="cost"} 6
planserve_cache_misses_total{cache="shape"} 6
# HELP planserve_last_batch_virtual_seconds Modeled virtual time of the most recently served batch.
# TYPE planserve_last_batch_virtual_seconds gauge
planserve_last_batch_virtual_seconds 0.000055
# HELP planserve_plans_completed_total Plans that completed with a value, by tenant.
# TYPE planserve_plans_completed_total counter
planserve_plans_completed_total{tenant="10"} 3
planserve_plans_completed_total{tenant="2"} 1
# HELP planserve_plans_failed_total Plans that failed with a typed PlanError, or were lost with their batch to a failed rank, by tenant.
# TYPE planserve_plans_failed_total counter
planserve_plans_failed_total{tenant="10"} 1
planserve_plans_failed_total{tenant="2"} 2
# HELP planserve_queue_depth Submissions currently queued awaiting service.
# TYPE planserve_queue_depth gauge
planserve_queue_depth 1
# HELP planserve_rank_load_imbalance Modelled max rank load over mean rank load (cost / share summed per rank) of the last packed batch.
# TYPE planserve_rank_load_imbalance gauge
planserve_rank_load_imbalance 1.4998381489030093
# HELP planserve_rejected_total Submissions rejected at admission, by AdmitError reason.
# TYPE planserve_rejected_total counter
planserve_rejected_total{reason="cost_ceiling"} 1
planserve_rejected_total{reason="queue_full"} 1
# HELP planserve_tenant_latency_virtual_seconds Plan completion latency in virtual seconds, by tenant (quantiles from the last batch).
# TYPE planserve_tenant_latency_virtual_seconds summary
planserve_tenant_latency_virtual_seconds{tenant="10",quantile="0.5"} 0.0012550011731300012
planserve_tenant_latency_virtual_seconds{tenant="10",quantile="0.99"} 0.0012550011731300012
planserve_tenant_latency_virtual_seconds_sum{tenant="10"} 0.002506257142857143
planserve_tenant_latency_virtual_seconds_count{tenant="10"} 3
planserve_tenant_latency_virtual_seconds{tenant="2",quantile="0.5"} 0.0011439203136439204
planserve_tenant_latency_virtual_seconds{tenant="2",quantile="0.99"} 0.0011439203136439204
planserve_tenant_latency_virtual_seconds_sum{tenant="2"} 0.0011459999999999999
planserve_tenant_latency_virtual_seconds_count{tenant="2"} 1
# HELP planserve_wave_occupancy Plans packed per executed wave.
# TYPE planserve_wave_occupancy histogram
planserve_wave_occupancy_bucket{le="1"} 0
planserve_wave_occupancy_bucket{le="2"} 2
planserve_wave_occupancy_bucket{le="4"} 3
planserve_wave_occupancy_bucket{le="8"} 3
planserve_wave_occupancy_bucket{le="16"} 3
planserve_wave_occupancy_bucket{le="32"} 3
planserve_wave_occupancy_bucket{le="+Inf"} 3
planserve_wave_occupancy_sum 7
planserve_wave_occupancy_count 3
# HELP planserve_waves_total Waves executed across all served batches.
# TYPE planserve_waves_total counter
planserve_waves_total 3
"#;

/// One empty batch on a fresh service: the waves counter and the
/// last-batch gauge appear, the batch counter does not.
const AFTER_EMPTY_BATCH: &str = r#"# HELP planserve_admitted_total Submissions accepted by the admission controller.
# TYPE planserve_admitted_total counter
# HELP planserve_batches_total Batches served (serve / serve_ft calls that executed).
# TYPE planserve_batches_total counter
# HELP planserve_cache_hits_total Structure-cache lookups answered from cache, by cache.
# TYPE planserve_cache_hits_total counter
planserve_cache_hits_total{cache="alloc"} 0
planserve_cache_hits_total{cache="cost"} 0
planserve_cache_hits_total{cache="shape"} 0
# HELP planserve_cache_misses_total Structure-cache lookups computed fresh, by cache.
# TYPE planserve_cache_misses_total counter
planserve_cache_misses_total{cache="alloc"} 0
planserve_cache_misses_total{cache="cost"} 0
planserve_cache_misses_total{cache="shape"} 0
# HELP planserve_last_batch_virtual_seconds Modeled virtual time of the most recently served batch.
# TYPE planserve_last_batch_virtual_seconds gauge
planserve_last_batch_virtual_seconds 0.000055
# HELP planserve_plans_completed_total Plans that completed with a value, by tenant.
# TYPE planserve_plans_completed_total counter
# HELP planserve_plans_failed_total Plans that failed with a typed PlanError, or were lost with their batch to a failed rank, by tenant.
# TYPE planserve_plans_failed_total counter
# HELP planserve_queue_depth Submissions currently queued awaiting service.
# TYPE planserve_queue_depth gauge
planserve_queue_depth 0
# HELP planserve_rank_load_imbalance Modelled max rank load over mean rank load (cost / share summed per rank) of the last packed batch.
# TYPE planserve_rank_load_imbalance gauge
# HELP planserve_rejected_total Submissions rejected at admission, by AdmitError reason.
# TYPE planserve_rejected_total counter
# HELP planserve_tenant_latency_virtual_seconds Plan completion latency in virtual seconds, by tenant (quantiles from the last batch).
# TYPE planserve_tenant_latency_virtual_seconds summary
# HELP planserve_wave_occupancy Plans packed per executed wave.
# TYPE planserve_wave_occupancy histogram
# HELP planserve_waves_total Waves executed across all served batches.
# TYPE planserve_waves_total counter
planserve_waves_total 0
"#;
