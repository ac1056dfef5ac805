//! The repo benchmark: five workloads on the real backend, end-to-end
//! metrics in wall time, per-layer metrics timed from outside. See
//! `README.md` beside this package and `/BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!     all | smoke | aa [--runs <n>]     (each also takes --seed, --seconds)
//!     manifest                          (prints /BENCHMARK.json)
//! ```

#![deny(missing_docs)]

mod aa;
mod host;
mod json;
mod layers;
mod metrics;
mod pin;
mod procfs;
mod rng;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::RUN_SECONDS;
use run::{Args, Outcome};

/// Where result files, spans and traces go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == name) {
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }
}

/// Print a run's metrics by name, write its result file, and end with
/// the result line.
fn report(args: &Args, outcome: &Outcome) {
    println!(
        "# {} seed={} seconds={} trace={} ranks={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::ranks(),
        host::cores()
    );
    for (def, value) in &outcome.metrics {
        println!("{:<44} {:>16.4} {}", def.name, value, def.unit);
    }
    println!(
        "# ops attempted {} failed {}",
        outcome.tally.attempted, outcome.tally.failed
    );
    // Scalar run facts (sample counts); series and tables stay in the file.
    if let Json::Obj(notes) = &outcome.notes {
        for (key, value) in notes {
            if matches!(value, Json::Num(_) | Json::Bool(_)) {
                println!("# {key} {value}");
            }
        }
    }
    // With fewer cores than ranks a speed-up over one rank measures the
    // scheduler: say so, and keep the figure out of the result file. (The
    // result line must carry a number for every metric.)
    let refusal = host::scaling_refusal();
    if let Some(reason) = &refusal {
        println!("# wall-scaling figures (speed-up over one rank) refused: {reason}");
    }
    let metrics = outcome.metrics.iter().map(|(def, value)| {
        let refused = refusal.is_some() && def.name.ends_with("speedup_vs_1rank");
        let shown = if refused {
            Json::Null
        } else {
            Json::Num(*value)
        };
        (
            def.name,
            Json::obj([("value", shown), ("unit", Json::str(def.unit))]),
        )
    });
    let file = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("trace", Json::Bool(args.trace)),
        (
            "host",
            host::block(args.seed, args.seconds, Some(pin::pinned())),
        ),
        ("correct", Json::Bool(outcome.tally.failed == 0)),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("notes", outcome.notes.clone()),
        ("metrics", Json::obj(metrics)),
    ]);
    let name = format!("{}.trace{}.json", args.workload, u8::from(args.trace));
    std::fs::write(out_dir().join(name), file.pretty()).expect("write the result file");
    println!("{}", outcome.result_line());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: run | all | smoke | aa | manifest (see README.md)");
        return ExitCode::from(2);
    };
    let result = Flags::parse(rest).and_then(|flags| {
        let seed = flags.get("seed", Some(1u64))?;
        let seconds = flags.get("seconds", Some(RUN_SECONDS as f64))?;
        match command.as_str() {
            "run" => {
                let args = Args {
                    workload: flags.get("workload", None)?,
                    seed,
                    seconds,
                    trace: flags.get::<u8>("trace", Some(0))? != 0,
                };
                run::run(&args).map(|outcome| report(&args, &outcome))
            }
            "all" => aa::all(seed, seconds),
            // Run length / 50: the timed sections shrink to 0.4 s; set-ups
            // and the probes' minimum sample counts remain.
            "smoke" => aa::all(seed, RUN_SECONDS as f64 / 50.0),
            "aa" => aa::aa(seed, seconds, flags.get("runs", Some(1usize))?),
            "manifest" => {
                print!("{}", metrics::manifest().pretty());
                Ok(())
            }
            other => Err(format!("unknown command {other:?}")),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::WORKLOADS;

    /// A smoke-size run of the cheapest workload emits, in both modes,
    /// exactly the metrics `BENCHMARK.json` lists — once each, finite —
    /// with no failed op.
    #[test]
    fn a_run_emits_every_listed_metric_exactly_once() {
        for (trace, table) in [(false, metrics::END_TO_END), (true, metrics::PER_LAYER)] {
            let args = Args {
                workload: "mp_small_msgs".to_owned(),
                seed: 9,
                seconds: 0.05,
                trace,
            };
            let outcome = run::run(&args).expect("a known workload");
            let emitted: Vec<&str> = outcome.metrics.iter().map(|(d, _)| d.name).collect();
            let listed: Vec<&str> = table.iter().map(|d| d.name).collect();
            assert_eq!(emitted, listed);
            assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()));
            assert_eq!(outcome.tally.failed, 0);
            assert!(outcome.tally.attempted >= 1);
            let line = Json::parse(&outcome.result_line().to_string()).unwrap();
            let Json::Obj(pairs) = line else {
                panic!("the result line is an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }

    #[test]
    fn every_listed_workload_is_runnable_and_unknown_ones_are_refused() {
        for (name, _) in WORKLOADS {
            assert!(
                run::run(&Args {
                    workload: (*name).to_owned(),
                    seed: 2,
                    seconds: 0.0,
                    trace: false,
                })
                .is_ok(),
                "{name}"
            );
        }
        assert!(run::run(&Args {
            workload: "nope".to_owned(),
            seed: 2,
            seconds: 0.0,
            trace: false,
        })
        .is_err());
    }

    #[test]
    fn flags_parse_pairs_and_report_what_is_missing() {
        let argv: Vec<String> = ["--seed", "7", "--workload", "mp_bulk"]
            .map(String::from)
            .to_vec();
        let flags = Flags::parse(&argv).unwrap();
        assert_eq!(flags.get::<u64>("seed", None), Ok(7));
        assert_eq!(
            flags.get::<String>("workload", None),
            Ok("mp_bulk".to_owned())
        );
        assert_eq!(flags.get("trace", Some(0u8)), Ok(0));
        assert!(flags.get::<u64>("seconds", None).is_err());
        assert!(flags.get::<u64>("workload", None).is_err());
        assert!(Flags::parse(&["--seed".to_owned()]).is_err());
        assert!(Flags::parse(&["seed".to_owned(), "1".to_owned()]).is_err());
    }
}
