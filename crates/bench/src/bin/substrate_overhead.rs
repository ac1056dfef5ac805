//! Substrate-overhead snapshot: measures the executor, latency, and
//! fan-out costs of the message-passing substrate and writes
//! `BENCH_substrate.json` at the workspace root, so the perf trajectory
//! of the communication hot path is tracked in-repo.
//!
//! Run with `cargo run --release -p archetype-bench --bin substrate_overhead`.

use std::time::Instant;

use archetype_bench::host_cores;
use archetype_mp::transport::{real_channel, spsc_channel};
use archetype_mp::{run_spmd, run_spmd_ft, run_spmd_with, Ctx, FaultPlan, MachineModel, RunConfig};

/// Median-of-`reps` wall time of one `f()` call, in microseconds.
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One timed call, in microseconds.
fn time_once<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e6
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One round of paired-interleaved sampling: shared warmup over both
/// variants, then `pairs` back-to-back samples with the order flipped
/// every pair. Pushes the per-pair overhead ratios (in %) into
/// `ratios` and returns `(median base µs, median variant µs)`.
fn paired_samples(
    pairs: usize,
    mut base: impl FnMut(),
    mut variant: impl FnMut(),
    ratios: &mut Vec<f64>,
) -> (f64, f64) {
    for _ in 0..3 {
        base();
        variant();
    }
    let mut base_samples = Vec::with_capacity(pairs);
    let mut var_samples = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (b, v) = if pair % 2 == 0 {
            let b = time_once(&mut base);
            let v = time_once(&mut variant);
            (b, v)
        } else {
            let v = time_once(&mut variant);
            let b = time_once(&mut base);
            (b, v)
        };
        base_samples.push(b);
        var_samples.push(v);
    }
    ratios.extend(
        base_samples
            .iter()
            .zip(&var_samples)
            .map(|(b, v)| (v / b - 1.0) * 100.0),
    );
    (median(&mut base_samples), median(&mut var_samples))
}

/// Paired-interleaved overhead measurement (the same discipline as the
/// fault-hook column below): the overhead is the median of per-pair
/// ratios, floored at 0 since the variant does at least as much work.
/// Returns `(median base µs, median variant µs, overhead %)`.
fn paired_overhead(pairs: usize, base: impl FnMut(), variant: impl FnMut()) -> (f64, f64, f64) {
    let mut ratios = Vec::with_capacity(pairs);
    let (b, v) = paired_samples(pairs, base, variant, &mut ratios);
    (b, v, median(&mut ratios).max(0.0))
}

/// The shared ping-pong body both latency variants run: `rounds`
/// round trips of a `bytes`-byte payload between two ranks.
fn ping_pong_body(ctx: &mut Ctx, bytes: usize, rounds: u64) {
    let partner = 1 - ctx.rank();
    for round in 0..rounds {
        if ctx.rank() == 0 {
            ctx.send(partner, round, vec![0u8; bytes]);
            let _: Vec<u8> = ctx.recv(partner, round);
        } else {
            let v: Vec<u8> = ctx.recv(partner, round);
            ctx.send(partner, round, v);
        }
    }
}

fn main() {
    let model = MachineModel::zero_comm();
    const NPROCS: usize = 16;

    // Executor dispatch: repeated trivial 16-rank invocations. The calls
    // are batched so per-call cost is measured above timer granularity.
    const CALLS: usize = 20;
    // Warm the worker pool and the network cache.
    for _ in 0..5 {
        run_spmd(NPROCS, model, |ctx| ctx.rank());
    }
    let pooled_us = time_us(9, || {
        for _ in 0..CALLS {
            run_spmd(NPROCS, model, |ctx| ctx.rank());
        }
    }) / CALLS as f64;
    let unpooled = RunConfig {
        pooled: false,
        ..RunConfig::default()
    };
    let spawned_us = time_us(9, || {
        for _ in 0..CALLS {
            run_spmd_with(NPROCS, model, unpooled, |ctx| ctx.rank());
        }
    }) / CALLS as f64;
    let executor_speedup = spawned_us / pooled_us;

    // Point-to-point round-trip latency (100 round trips per run).
    let ping_pong_us = |bytes: usize| {
        time_us(9, || {
            run_spmd(2, model, move |ctx| ping_pong_body(ctx, bytes, 100));
        }) / 100.0
    };
    let pp4k = ping_pong_us(4096);

    // 8-byte ping-pong, plain vs with an inert fault plan installed: the
    // per-operation fault hooks (op counters, crash-site check, delay
    // early-out) on a plan that schedules nothing. This is the price
    // every fault-aware run pays even when chaos is disabled.
    //
    // Sampling the two variants in separate median blocks lets warmup
    // drift (pool/cache/allocator state migrating between blocks) bias
    // the ratio — that is exactly the bug that once produced a negative
    // "overhead" column. Instead: one shared warmup covering *both*
    // variants, then alternating paired samples with the order flipped
    // every pair, and the overhead reported as the median of per-pair
    // ratios so any residual drift hits both columns of a pair equally.
    const ROUNDS: u64 = 600;
    let run_plain = || {
        run_spmd(2, model, |ctx| ping_pong_body(ctx, 8, ROUNDS));
    };
    let run_ft = || {
        run_spmd_ft(2, model, FaultPlan::new(0), |ctx| {
            ping_pong_body(ctx, 8, ROUNDS)
        });
    };
    for _ in 0..3 {
        run_plain();
        run_ft();
    }
    const PAIRS: usize = 25;
    let mut plain_samples = Vec::with_capacity(PAIRS);
    let mut ft_samples = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let (plain, ft) = if pair % 2 == 0 {
            let p = time_once(run_plain);
            let f = time_once(run_ft);
            (p, f)
        } else {
            let f = time_once(run_ft);
            let p = time_once(run_plain);
            (p, f)
        };
        plain_samples.push(plain);
        ft_samples.push(ft);
    }
    let mut pair_overheads: Vec<f64> = plain_samples
        .iter()
        .zip(&ft_samples)
        .map(|(p, f)| (f / p - 1.0) * 100.0)
        .collect();
    // Idle-hook overhead is nonnegative by construction (the ft variant
    // does strictly more work), so a negative median is measurement
    // noise around a true cost below the timer's resolution — report
    // the floor rather than the noise sign.
    let ft_overhead_pct = median(&mut pair_overheads).max(0.0);
    let pp8 = median(&mut plain_samples) / ROUNDS as f64;
    let pp8_ft = median(&mut ft_samples) / ROUNDS as f64;

    // Tracing overhead, both switch positions, on the two hot shapes
    // (8-byte ping-pong and pooled trivial dispatch):
    //
    // * `trace_off`: the dormant per-operation `trace_hot` branch cannot
    //   be isolated in-binary (there is no hook-free build), so this
    //   column is an **A/A null pair** — `run_spmd` vs
    //   `run_spmd_with(RunConfig::virtual_time())`, two entry points
    //   that execute the identical untraced path. It bounds measurement
    //   noise plus any cost the tracing plumbing added to the default
    //   configuration; a real off-path regression additionally shows in
    //   the absolute `latency` / `executor` columns tracked in-repo.
    // * `trace_on`: the real price of recording — ring-buffer slot
    //   writes plus one wall-clock read per event — for runs that opt
    //   into `RunConfig::traced()`. Informational, not gated.
    // The null pair needs a tighter estimate than the real comparisons:
    // its true value is ~0, so the gate margin is pure noise floor.
    // Both shapes test the same hypothesis (config plumbing is free),
    // so their per-pair ratios are pooled into one median — taking the
    // max of two per-shape medians would double the false-positive rate
    // of the gate on a jittery container — and the sweep is repeated in
    // interleaved epochs so a transient load spike cannot dominate.
    const NULL_PAIRS: usize = 2 * PAIRS + 1;
    const NULL_EPOCHS: usize = 3;
    let off_config = RunConfig::virtual_time();
    let mut null_ratios = Vec::with_capacity(2 * NULL_EPOCHS * NULL_PAIRS);
    for _ in 0..NULL_EPOCHS {
        paired_samples(
            NULL_PAIRS,
            || {
                run_spmd(2, model, |ctx| ping_pong_body(ctx, 8, ROUNDS));
            },
            || {
                run_spmd_with(2, model, off_config, |ctx| ping_pong_body(ctx, 8, ROUNDS));
            },
            &mut null_ratios,
        );
        paired_samples(
            NULL_PAIRS,
            || {
                for _ in 0..CALLS {
                    run_spmd(NPROCS, model, |ctx| ctx.rank());
                }
            },
            || {
                for _ in 0..CALLS {
                    run_spmd_with(NPROCS, model, off_config, |ctx| ctx.rank());
                }
            },
            &mut null_ratios,
        );
    }
    let trace_off_overhead_pct = median(&mut null_ratios).max(0.0);

    // Traced dispatch uses a small ring so the column reflects recording
    // cost, not a 16-rank × default-capacity buffer allocation per
    // trivial call.
    let traced_pp = RunConfig::traced();
    let traced_disp = RunConfig::traced().with_trace_capacity(256);
    let (pp8_base, pp8_traced, trace_on_pp_pct) = paired_overhead(
        PAIRS,
        || {
            run_spmd(2, model, |ctx| ping_pong_body(ctx, 8, ROUNDS));
        },
        || {
            run_spmd_with(2, model, traced_pp, |ctx| ping_pong_body(ctx, 8, ROUNDS));
        },
    );
    let (_, _, trace_on_disp_pct) = paired_overhead(
        PAIRS,
        || {
            for _ in 0..CALLS {
                run_spmd(NPROCS, model, |ctx| ctx.rank());
            }
        },
        || {
            for _ in 0..CALLS {
                run_spmd_with(NPROCS, model, traced_disp, |ctx| ctx.rank());
            }
        },
    );
    let trace_on_overhead_pct = trace_on_pp_pct.max(trace_on_disp_pct);
    let pp8_traced_us = pp8_traced / ROUNDS as f64;
    let _ = pp8_base;

    // Fan-out: 1 MB broadcast across 16 ranks (shared payload path).
    let bcast_us = time_us(9, || {
        run_spmd(NPROCS, model, |ctx| {
            let v = (ctx.rank() == 0).then(|| vec![0u8; 1 << 20]);
            ctx.broadcast(0, v).len()
        });
    });
    let gather_us = time_us(9, || {
        run_spmd(NPROCS, model, |ctx| {
            let mine = vec![ctx.rank() as u8; 1 << 16];
            ctx.all_gather(mine).len()
        });
    });

    // Raw channel throughput at one-million-message volume, for both
    // queue flavors the transport has: the MPSC queue (many
    // producers racing the Vyukov publish protocol) and the SPSC fast
    // path that mesh links and pool worker channels ride (single
    // producer, node freelist in steady state). msgs/sec, median of 3.
    const TOTAL_MSGS: usize = 1_000_000;
    const PRODUCERS: usize = 4;
    let mpsc_msgs_per_sec = {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let (tx, rx) = real_channel::<u64>();
                let t0 = Instant::now();
                let handles: Vec<_> = (0..PRODUCERS)
                    .map(|p| {
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            for i in 0..TOTAL_MSGS / PRODUCERS {
                                tx.send((p * TOTAL_MSGS + i) as u64).unwrap();
                            }
                        })
                    })
                    .collect();
                drop(tx);
                let mut received = 0usize;
                while rx.recv().is_ok() {
                    received += 1;
                }
                let elapsed = t0.elapsed().as_secs_f64();
                assert_eq!(received, TOTAL_MSGS);
                for h in handles {
                    h.join().unwrap();
                }
                TOTAL_MSGS as f64 / elapsed
            })
            .collect();
        median(&mut samples)
    };
    let spsc_msgs_per_sec = {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let (tx, rx) = spsc_channel::<u64>();
                let t0 = Instant::now();
                let producer = std::thread::spawn(move || {
                    for i in 0..TOTAL_MSGS {
                        // SAFETY: this thread is the only pusher.
                        unsafe { tx.send(i as u64).unwrap() };
                    }
                });
                let mut received = 0usize;
                while rx.recv().is_ok() {
                    received += 1;
                }
                let elapsed = t0.elapsed().as_secs_f64();
                assert_eq!(received, TOTAL_MSGS);
                producer.join().unwrap();
                TOTAL_MSGS as f64 / elapsed
            })
            .collect();
        median(&mut samples)
    };

    let cores = host_cores();
    let json = format!(
        r#"{{
  "bench": "substrate_overhead",
  "nprocs": {NPROCS},
  "host": {{ "available_parallelism": {cores} }},
  "executor": {{
    "repeated_run_spmd_pooled_us_per_call": {pooled_us:.2},
    "repeated_run_spmd_spawned_us_per_call": {spawned_us:.2},
    "pooled_speedup_vs_spawned": {executor_speedup:.2}
  }},
  "latency": {{
    "ping_pong_8b_us_per_roundtrip": {pp8:.3},
    "ping_pong_4kb_us_per_roundtrip": {pp4k:.3},
    "ping_pong_8b_fault_hooks_idle_us_per_roundtrip": {pp8_ft:.3},
    "fault_hooks_idle_overhead_pct": {ft_overhead_pct:.1}
  }},
  "tracing": {{
    "ping_pong_8b_traced_us_per_roundtrip": {pp8_traced_us:.3},
    "trace_off_overhead_pct": {trace_off_overhead_pct:.1},
    "trace_on_overhead_pct": {trace_on_overhead_pct:.1}
  }},
  "fanout": {{
    "broadcast_1mb_16_us_per_call": {bcast_us:.1},
    "all_gather_64kb_16_us_per_call": {gather_us:.1}
  }},
  "throughput": {{
    "volume_msgs": {TOTAL_MSGS},
    "mpsc_4_producer_msgs_per_sec": {mpsc_msgs_per_sec:.0},
    "spsc_msgs_per_sec": {spsc_msgs_per_sec:.0}
  }}
}}
"#
    );

    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_substrate.json");
    std::fs::write(&path, &json).expect("write BENCH_substrate.json");
    print!("{json}");
    println!("wrote {}", path.display());

    // Wall-clock ratios are noisy on shared/oversubscribed runners, so
    // the >= 3x bar is only fatal when explicitly requested (local perf
    // validation); elsewhere — e.g. the CI smoke step — a miss is a
    // loud warning, not a red build.
    let strict = std::env::var_os("SUBSTRATE_BENCH_STRICT").is_some();
    if executor_speedup < 3.0 {
        let msg = format!(
            "pooled executor should be >= 3x faster than spawn-per-call \
             on repeated 16-rank invocations (got {executor_speedup:.2}x)"
        );
        assert!(!strict, "{msg}");
        eprintln!("WARNING: {msg}");
    }
    if ft_overhead_pct >= 2.0 {
        let msg = format!(
            "idle fault hooks should cost < 2% on the 8-byte ping-pong \
             (got {ft_overhead_pct:.1}%)"
        );
        assert!(!strict, "{msg}");
        eprintln!("WARNING: {msg}");
    }
    if trace_off_overhead_pct >= 2.0 {
        let msg = format!(
            "tracing-off must cost < 2% on the ping-pong / pooled-dispatch \
             null pair (got {trace_off_overhead_pct:.1}%)"
        );
        assert!(!strict, "{msg}");
        eprintln!("WARNING: {msg}");
    }
    // Throughput floors: set well below healthy numbers (observed
    // ~12M/s MPSC and ~2.5M/s SPSC even on a single-core runner, where
    // every queue handoff pays a context switch) so they only trip on a
    // real regression — e.g. the SPSC fast path silently falling back
    // to a lock on every send — not on runner jitter.
    const MPSC_FLOOR: f64 = 2.0e6;
    const SPSC_FLOOR: f64 = 0.5e6;
    if mpsc_msgs_per_sec < MPSC_FLOOR {
        let msg = format!(
            "MPSC throughput fell below {MPSC_FLOOR:.0} msgs/sec \
             (got {mpsc_msgs_per_sec:.0})"
        );
        assert!(!strict, "{msg}");
        eprintln!("WARNING: {msg}");
    }
    if spsc_msgs_per_sec < SPSC_FLOOR {
        let msg = format!(
            "SPSC throughput fell below {SPSC_FLOOR:.0} msgs/sec \
             (got {spsc_msgs_per_sec:.0})"
        );
        assert!(!strict, "{msg}");
        eprintln!("WARNING: {msg}");
    }
}
