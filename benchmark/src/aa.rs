//! `all`, `smoke` and `aa`: every workload, each run in a process of its
//! own (this executable, re-invoked with `run`).
//!
//! `aa` is the null experiment: two full sets of runs of the *same*
//! binary, workload order alternated. Whatever differs between the sets
//! is noise, so it measures the benchmark, not the program: each
//! end-to-end metric's medians must agree within the metric's bound,
//! its run-to-run spread must stay within the bound, and the exact
//! counts (`mp.stats.*`) must agree exactly. With `--runs 10` this is
//! the driver's own acceptance test.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median};

/// Run one workload in a child process and return its result line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, echo: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (trace {trace}) reported failed ops: {line}"
        ));
    }
    Ok(result)
}

/// Every workload, untraced then traced, printing every metric.
pub fn all(seed: u64, seconds: f64) -> Result<(), String> {
    for (workload, _) in WORKLOADS {
        for trace in [false, true] {
            child(workload, seed, seconds, trace, true)?;
        }
    }
    Ok(())
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("a result line without {name}"))
}

/// One set of runs: per workload, `runs` end-to-end result lines (seeds
/// `seed`, `seed + 1`, …) and one traced result line.
type Set = Vec<(&'static str, Vec<Json>, Json)>;

fn one_set(
    label: &str,
    reversed: bool,
    seed: u64,
    seconds: f64,
    runs: usize,
) -> Result<Set, String> {
    let mut order: Vec<&'static str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
    if reversed {
        order.reverse();
    }
    let mut set = Set::new();
    for workload in order {
        let mut lines = Vec::new();
        for k in 0..runs as u64 {
            lines.push(child(workload, seed + k, seconds, false, false)?);
            println!("set {label}: {workload} seed {} done", seed + k);
        }
        set.push((
            workload,
            lines,
            child(workload, seed, seconds, true, false)?,
        ));
    }
    set.sort_by_key(|(w, ..)| WORKLOADS.iter().position(|(name, _)| name == w));
    Ok(set)
}

/// The A/A experiment; writes `out/aa.json`.
pub fn aa(seed: u64, seconds: f64, runs: usize) -> Result<(), String> {
    if runs == 0 {
        return Err("--runs must be at least 1".to_owned());
    }
    let a = one_set("A", false, seed, seconds, runs)?;
    let b = one_set("B", true, seed, seconds, runs)?;
    let mut outside = Vec::new();
    let mut rows = Vec::new();
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "diff %", "iqr A %", "iqr B %", "bound"
    );
    for ((workload, lines_a, traced_a), (_, lines_b, traced_b)) in a.iter().zip(&b) {
        for def in END_TO_END {
            let values = |lines: &[Json]| {
                lines
                    .iter()
                    .map(|l| metric(l, def.name))
                    .collect::<Vec<_>>()
            };
            let (va, vb) = (values(lines_a), values(lines_b));
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = B worse than A, as a share of A.
            let worse = match def.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            // Quartiles need two runs; the driver takes them over ten.
            let spread = |v: &[f64]| if v.len() >= 2 { iqr_share(v) } else { 0.0 };
            let (sa, sb) = (spread(&va), spread(&vb));
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            // The driver exempts setup_s from the spread rule only.
            let spread_bound = if def.name == "setup_s" {
                f64::INFINITY
            } else {
                bound
            };
            let ok = worse.abs() <= bound && sa <= spread_bound && sb <= spread_bound;
            println!(
                "{workload:<18} {:<18} {ma:>12.4} {mb:>12.4} {:>8.2} {:>8.2} {:>8.2} {:>6.0}{}",
                def.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if ok { "" } else { "  OUTSIDE" }
            );
            if !ok {
                outside.push(format!("{workload}/{}", def.name));
            }
            rows.push(Json::obj([
                ("workload", Json::str(*workload)),
                ("metric", Json::str(def.name)),
                ("median_a", Json::Num(ma)),
                ("median_b", Json::Num(mb)),
                ("b_worse_by_share", Json::Num(worse)),
                ("iqr_share_a", Json::Num(sa)),
                ("iqr_share_b", Json::Num(sb)),
                ("bound", Json::Num(bound)),
                ("within_bound", Json::Bool(ok)),
            ]));
        }
        for def in PER_LAYER.iter().filter(|d| d.name.starts_with("mp.stats.")) {
            let (x, y) = (metric(traced_a, def.name), metric(traced_b, def.name));
            if x.to_bits() != y.to_bits() {
                println!("{workload:<18} {:<18} {x} != {y}  NOT EXACT", def.name);
                outside.push(format!("{workload}/{}", def.name));
            }
        }
    }
    let file = Json::obj([
        ("host", crate::host::block(seed, seconds, None)),
        ("runs_per_set", Json::Num(runs as f64)),
        (
            "outside",
            Json::Arr(outside.iter().map(Json::str).collect()),
        ),
        ("noise_floor", Json::Arr(rows)),
    ]);
    std::fs::write(crate::out_dir().join("aa.json"), file.pretty())
        .map_err(|e| format!("write aa.json: {e}"))?;
    if outside.is_empty() {
        println!("A/A: every end-to-end metric within its bound; mp.stats.* exact");
        Ok(())
    } else {
        Err(format!("A/A outside bounds: {}", outside.join(", ")))
    }
}
