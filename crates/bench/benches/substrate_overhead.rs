//! Wall-clock benches of the message-passing substrate's own overhead:
//! the costs the archetypes pay before any application work happens.
//!
//! * `run_spmd_16_pooled` vs `run_spmd_16_spawned` — repeated 16-rank
//!   invocations with a trivial body, isolating executor dispatch cost
//!   (persistent worker pool + recycled network vs thread-per-rank and a
//!   fresh n² channel mesh per call, the seed behaviour).
//! * `ping_pong_*` — point-to-point round-trip latency at small and
//!   medium payload sizes; the `_ft_idle` variant runs the same loop
//!   under `run_spmd_ft` with an inert fault plan, pricing the
//!   per-operation fault hooks when no faults are scheduled.
//! * `broadcast_1mb_16` — a 1 MB buffer fanned out to 16 ranks; with
//!   shared payloads every forwarding hop moves a refcount, not a copy.
//!
//! The `substrate_overhead` *binary* (same workload) emits the
//! `BENCH_substrate.json` snapshot tracked in the repository root.

use criterion::{criterion_group, criterion_main, Criterion};

use archetype_mp::{run_spmd, run_spmd_ft, run_spmd_with, FaultPlan, MachineModel, RunConfig};

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    g.sample_size(30);
    let model = MachineModel::zero_comm();
    g.bench_function("run_spmd_16_pooled", |b| {
        b.iter(|| run_spmd(16, model, |ctx| ctx.rank()))
    });
    g.bench_function("run_spmd_16_spawned", |b| {
        let spawned = RunConfig {
            pooled: false,
            ..RunConfig::default()
        };
        b.iter(|| run_spmd_with(16, model, spawned, |ctx| ctx.rank()))
    });
    g.finish();
}

fn bench_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("latency");
    g.sample_size(20);
    let model = MachineModel::zero_comm();
    for (label, bytes) in [("ping_pong_8b_x100", 8usize), ("ping_pong_4kb_x100", 4096)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                run_spmd(2, model, |ctx| {
                    let partner = 1 - ctx.rank();
                    for round in 0..100u64 {
                        if ctx.rank() == 0 {
                            ctx.send(partner, round, vec![0u8; bytes]);
                            let _: Vec<u8> = ctx.recv(partner, round);
                        } else {
                            let v: Vec<u8> = ctx.recv(partner, round);
                            ctx.send(partner, round, v);
                        }
                    }
                })
            })
        });
    }
    g.bench_function("ping_pong_8b_ft_idle_x100", |b| {
        b.iter(|| {
            run_spmd_ft(2, model, FaultPlan::new(0), |ctx| {
                let partner = 1 - ctx.rank();
                for round in 0..100u64 {
                    if ctx.rank() == 0 {
                        ctx.send(partner, round, vec![0u8; 8]);
                        let _: Vec<u8> = ctx.recv(partner, round);
                    } else {
                        let v: Vec<u8> = ctx.recv(partner, round);
                        ctx.send(partner, round, v);
                    }
                }
            })
        })
    });
    g.finish();
}

fn bench_broadcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("fanout");
    g.sample_size(20);
    let model = MachineModel::zero_comm();
    g.bench_function("broadcast_1mb_16", |b| {
        b.iter(|| {
            run_spmd(16, model, |ctx| {
                let v = (ctx.rank() == 0).then(|| vec![0u8; 1 << 20]);
                ctx.broadcast(0, v).len()
            })
        })
    });
    g.bench_function("all_gather_64kb_16", |b| {
        b.iter(|| {
            run_spmd(16, model, |ctx| {
                let mine = vec![ctx.rank() as u8; 1 << 16];
                ctx.all_gather(mine).len()
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_executor, bench_latency, bench_broadcast);
criterion_main!(benches);
