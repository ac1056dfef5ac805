//! Property-based tests of the **plan service**: for random plan mixes,
//! tenants, process counts, and admission widths, the wave packer must
//! partition the world exactly (no oversubscription, no idle ranks, wave
//! membership the FIFO cut) and fill interchangeable slots by modelled
//! load, per-tenant accounting must be schedule-invariant,
//! and same-seed service runs must be bit-identical on the virtual
//! backend.

mod common;

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::compose::{
    pack_waves, ArchetypeJob, Plan, PlanService, ServeConfig, Value, Wave,
};
use parallel_archetypes::core::archetype::ONE_DEEP_DC;
use parallel_archetypes::core::{ArchetypeInfo, PhaseTrace};
use parallel_archetypes::mp::{Ctx, MachineModel, RunConfig};

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

    fn run(&self, _ctx: &mut Ctx, input: Value, _trace: Option<&PhaseTrace>) -> Value {
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
