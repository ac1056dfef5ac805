//! Per-layer metrics: each layer timed from outside, through the
//! public functions of its crate, inside a traced run (`--trace 1`).
//!
//! Every traced run probes every layer, whatever its workload, so the
//! per-layer table is always complete. The `compose.serve.*` figures
//! come from the workload's own batches when the workload is a plan
//! service, and from a `serve_many_small` service otherwise; likewise
//! the archetype figures use the workload's own inputs when it is
//! `apps_fixed_size`. Each probe takes samples until its share of the
//! time budget is spent (never fewer than its minimum) and reports the
//! median.

use std::hint::black_box;
use std::time::Instant;

use archetype_compose::{
    allocate, forecast_input, forecast_plan, pack_waves, run_plan, ForecastConfig, Value,
};
use archetype_dc::sequential_mergesort;
use archetype_mp::transport::{real_channel, spsc_channel};
use archetype_mp::{run_spmd_with, Ctx, RunConfig, Shared};
use archetype_numerics::{fft, Complex};

use crate::metrics::Emitter;
use crate::rng::Rng;
use crate::run::{measure_phase, Phase, Tally, WARMUP_BATCHES};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::apps::{App, AppsWorkload};
use crate::workloads::serve::ServeWorkload;
use crate::workloads::{model, Workload};

/// What every probe needs.
pub struct Probe<'a> {
    /// Where metrics go.
    pub emit: &'a mut Emitter,
    /// The benchmark's span recorder.
    pub spans: &'a mut Spans,
    /// Ops attempted and failed.
    pub tally: &'a mut Tally,
    /// Ranks the multi-rank probes run on.
    pub ranks: usize,
    /// Input seed.
    pub seed: u64,
    /// Seconds all probes together may take.
    pub budget_s: f64,
}

impl Probe<'_> {
    /// Call `sample` — which returns one measurement — under a span
    /// named `name` until `share` of the budget is spent, at least `min`
    /// times; return the measurements.
    fn samples(
        &mut self,
        name: &'static str,
        share: f64,
        min: usize,
        mut sample: impl FnMut() -> f64,
    ) -> Vec<f64> {
        let clock = Instant::now();
        let mut out = Vec::new();
        while out.len() < min || clock.elapsed().as_secs_f64() < self.budget_s * share {
            out.push(self.spans.within(name, out.len() as u64, &mut sample));
        }
        out
    }

    /// Median of [`Probe::samples`], emitted as `metric`.
    fn emit_median(
        &mut self,
        metric: &'static str,
        share: f64,
        min: usize,
        sample: impl FnMut() -> f64,
    ) -> f64 {
        let m = median(&self.samples(metric, share, min, sample));
        self.emit.set(metric, m);
        m
    }
}

/// `f`'s result and the seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds `f` takes.
fn seconds(f: impl FnOnce()) -> f64 {
    timed(f).1
}

/// Probe every layer. `workload` is the run's own workload and `phase`
/// its traced phase.
pub fn probe_all<W: Workload>(p: &mut Probe<'_>, workload: &mut W, phase: &Phase) {
    match workload.as_serve() {
        Some(serve) => compose_serve(p, serve, phase),
        None => {
            let mut serve = ServeWorkload::many_small(p.seed, p.ranks);
            let mut off = Spans::new(false);
            for index in 0..WARMUP_BATCHES {
                p.tally
                    .add(&serve.batch(index, RunConfig::real(), &mut off));
            }
            let phase = measure_phase(
                &mut serve,
                WARMUP_BATCHES,
                p.budget_s * 0.12,
                p.spans,
                p.tally,
            );
            compose_serve(p, &serve, &phase);
        }
    }
    compose_plan(p);
    compose_exec(p);
    mp_pool_and_ctx(p);
    mp_transport(p);
    mp_collectives(p);
    match workload.as_apps() {
        Some(apps) => archetypes(p, apps),
        None => archetypes(p, &AppsWorkload::new(p.seed, p.ranks)),
    }
}

/// `compose.serve.*` and `compose.cache.*`, from a served phase.
fn compose_serve(p: &mut Probe<'_>, serve: &ServeWorkload, phase: &Phase) {
    let plans = serve.plans(WARMUP_BATCHES);
    let per_batch = plans.len() as f64;
    let submit_ms = phase.span_ms(p.spans, "compose.submit");
    let serve_ms = phase.span_ms(p.spans, "compose.serve");
    p.emit.set(
        "compose.serve.submit_us_per_plan",
        median(&submit_ms) * 1e3 / per_batch,
    );
    p.emit
        .set("compose.serve.serve_ms_per_batch", median(&serve_ms));

    // Packing alone: `pack_waves` on the batch's cost vector, without
    // the service's allocation memo in front of it.
    let costs: Vec<f64> = plans
        .iter()
        .map(|plan| plan.estimate_flops_lenient(&Value::Unit))
        .collect();
    let (ranks, max_concurrent) = (p.ranks, serve.max_concurrent());
    let mut waves = 0usize;
    p.emit_median("compose.serve.pack_us_per_batch", 0.0, 15, || {
        let (packed, secs) = timed(|| pack_waves(black_box(&costs), ranks, max_concurrent));
        waves = packed.len();
        secs * 1e6
    });
    p.emit.set("compose.serve.waves_per_batch", waves as f64);
    p.emit
        .set("compose.serve.plans_per_wave", per_batch / waves as f64);

    let wave_ms = phase.wave_ms();
    // A batch of one wave has no wave-to-wave interval; its wave is the run.
    let wave_ms = if wave_ms.is_empty() {
        serve_ms
    } else {
        wave_ms
    };
    p.emit.set("compose.serve.wave_ms_p50", median(&wave_ms));
    p.emit
        .set("compose.serve.wave_ms_p90", percentile(&wave_ms, 0.9));
    p.emit
        .set("compose.serve.post_wave_ms", median(&phase.post_wave_ms()));

    let service = serve.service();
    let rejected: u64 = service
        .tenant_totals()
        .iter()
        .map(|(_, t)| t.rejected)
        .sum();
    p.emit.set("compose.serve.rejected", rejected as f64);
    let cache = service.cache_stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    p.emit.set(
        "compose.cache.shape_hit_ratio",
        ratio(cache.shape_hits, cache.shape_misses),
    );
    p.emit.set(
        "compose.cache.cost_hit_ratio",
        ratio(cache.cost_hits, cache.cost_misses),
    );
    p.emit.set(
        "compose.cache.alloc_hit_ratio",
        ratio(cache.alloc_hits, cache.alloc_misses),
    );
    p.emit_median("compose.serve.metrics_text_us", 0.0, 15, || {
        seconds(|| drop(black_box(service.metrics_text()))) * 1e6
    });
}

/// Nanoseconds per call of `f`, over a loop of `calls` long enough to
/// time.
fn ns_per_call<R>(calls: u32, mut f: impl FnMut() -> R) -> f64 {
    seconds(|| {
        for _ in 0..calls {
            black_box(f());
        }
    }) * 1e9
        / f64::from(calls)
}

/// `compose.plan.*` and `compose.alloc.*`: the pure functions admission
/// and packing are built from, on the default forecast composite.
fn compose_plan(p: &mut Probe<'_>) {
    let plan = forecast_plan(ForecastConfig::default());
    let input = forecast_input();
    p.emit_median("compose.plan.structure_hash_ns", 0.0, 9, || {
        ns_per_call(2000, || plan.structure_hash())
    });
    // Pricing walks the sweep's grid point by point: milliseconds, not
    // nanoseconds, per call — which is what the cost cache is for.
    p.emit_median("compose.plan.estimate_flops_ns", 0.0, 5, || {
        ns_per_call(4, || plan.estimate_flops_lenient(&input))
    });
    p.emit_median("compose.plan.grammar_ns", 0.0, 9, || {
        ns_per_call(2000, || plan.grammar())
    });
    let costs: Vec<f64> = (1..=8).map(|k| f64::from(k * k) * 1e6).collect();
    p.emit_median("compose.alloc.allocate_ns", 0.0, 9, || {
        ns_per_call(2000, || allocate(black_box(&costs), 64))
    });
}

/// `compose.exec.*`: the default forecast composite through `run_plan`
/// under a bare `run_spmd_with` — no service — on one rank and on all;
/// then what a service adds to such composites.
fn compose_exec(p: &mut Probe<'_>) {
    let plan = forecast_plan(ForecastConfig::default());
    let ranks = p.ranks;
    let mut outputs = Vec::new();
    let mut bare_ms = |p: &mut Probe<'_>, n: usize, name: &'static str| {
        let samples = p.samples(name, 0.06, 5, || {
            let (mut result, secs) = timed(|| {
                run_spmd_with(n, model(), RunConfig::real(), |ctx| {
                    run_plan(ctx, &plan, forecast_input())
                })
            });
            outputs.push(result.results.swap_remove(0));
            secs * 1e3
        });
        median(&samples)
    };
    let one_rank_ms = bare_ms(p, 1, "compose.exec.run_plan_1rank");
    let all_ranks_ms = bare_ms(p, ranks, "compose.exec.run_plan");
    p.emit.set("compose.exec.run_plan_ms", all_ranks_ms);
    p.emit.set(
        "compose.exec.plan_speedup_vs_1rank",
        one_rank_ms / all_ranks_ms,
    );
    // Value and structural statistics are process-count invariant.
    p.tally.attempted += outputs.len() as u64;
    p.tally.failed += outputs.iter().filter(|o| **o != outputs[0]).count() as u64;
    p.emit.set(
        "compose.exec.handoff_bytes_per_plan",
        outputs[0].1.handoff_bytes as f64,
    );

    // What the service adds: a `max_concurrent = 1` batch of forecasts
    // against the same plans run bare, back to back so that drift in the
    // host hits both sides of every pair.
    let mut service = ServeWorkload::few_large(p.seed, ranks);
    let mut off = Spans::new(false);
    let mut index = 0;
    p.emit_median("compose.serve.overhead_us_per_plan", 0.06, 4, || {
        let plans = service.plans(index);
        let served = service.batch(index, RunConfig::real(), &mut off);
        index += 1;
        let bare_s = seconds(|| {
            for plan in &plans {
                black_box(run_spmd_with(ranks, model(), RunConfig::real(), |ctx| {
                    run_plan(ctx, plan, forecast_input())
                }));
            }
        });
        (served.wall.as_secs_f64() - bare_s) * 1e6 / plans.len() as f64
    });
}

/// Microseconds per call of `op` on the slowest rank: each rank builds
/// its state with `make` (untimed), meets the others at a barrier, then
/// calls `op` `reps` times.
fn collective_us<S>(
    ranks: usize,
    reps: usize,
    make: impl Fn(&Ctx) -> S + Sync,
    op: impl Fn(&mut Ctx, &mut S) + Sync,
) -> f64 {
    let result = run_spmd_with(ranks, model(), RunConfig::real(), |ctx| {
        let mut state = make(ctx);
        ctx.barrier();
        seconds(|| {
            for _ in 0..reps {
                op(ctx, &mut state);
            }
        })
    });
    result.results.iter().copied().fold(0.0, f64::max) * 1e6 / reps as f64
}

/// `mp.pool.dispatch_us` and `mp.ctx.scoped_us`.
fn mp_pool_and_ctx(p: &mut Probe<'_>) {
    let ranks = p.ranks;
    p.emit_median("mp.pool.dispatch_us", 0.03, 9, || {
        let empty_run = || run_spmd_with(ranks, model(), RunConfig::real(), |ctx| ctx.rank());
        ns_per_call(50, empty_run) / 1e3
    });
    p.emit_median("mp.ctx.scoped_us", 0.02, 5, || {
        collective_us(
            ranks,
            1000,
            |ctx| ((0..ctx.nprocs()).collect::<Vec<usize>>(), 0u64),
            |ctx, (members, salt)| {
                *salt += 1;
                ctx.scoped(members, *salt, |inner| black_box(inner.rank()));
            },
        )
    });
}

/// Microseconds per round trip of each of `blocks` blocks of `rounds`
/// ping-pongs between ranks 0 and 1, as rank 0 timed them. The payload
/// is built once and bounced, so no allocation is timed.
fn pingpong_blocks<T: archetype_mp::Payload + Clone + Sync>(
    payload: T,
    blocks: usize,
    rounds: u64,
) -> Vec<f64> {
    let mut result = run_spmd_with(2, model(), RunConfig::real(), |ctx| {
        let partner = 1 - ctx.rank();
        let mut ball = Some(payload.clone());
        let mut times = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            let secs = seconds(|| {
                for round in 0..rounds {
                    if ctx.rank() == 0 {
                        ctx.send(partner, round, ball.take().expect("the ball is home"));
                        ball = Some(ctx.recv::<T>(partner, round));
                    } else {
                        let echoed: T = ctx.recv(partner, round);
                        ctx.send(partner, round, echoed);
                    }
                }
            });
            times.push(secs * 1e6 / rounds as f64);
        }
        times
    });
    result.results.swap_remove(0)
}

/// `mp.transport.*`: point-to-point latency by size, and raw queue
/// throughput of the two channel flavours the real backend rides.
fn mp_transport(p: &mut Probe<'_>) {
    // 1000-round blocks, so that a slow *mode* (not a slow round) shows:
    // sizing saw 2 us and 45 us round trips inside one process.
    let mut blocks = Vec::new();
    p.samples("mp.transport.pingpong_8b", 0.12, 2, || {
        blocks.extend(pingpong_blocks(0u64, 10, 1000));
        0.0
    });
    let fast = percentile(&blocks, 0.1);
    let slow = blocks.iter().filter(|&&b| b > 4.0 * fast).count();
    p.emit
        .set("mp.transport.pingpong_8b_us_p50", median(&blocks));
    p.emit
        .set("mp.transport.pingpong_8b_us_p90", percentile(&blocks, 0.9));
    p.emit.set(
        "mp.transport.pingpong_8b_slow_block_share",
        slow as f64 / blocks.len() as f64,
    );
    for (metric, bytes) in [
        ("mp.transport.pingpong_4kib_us_p50", 4 << 10),
        ("mp.transport.pingpong_64kib_us_p50", 64 << 10),
    ] {
        p.emit_median(metric, 0.04, 3, || {
            median(&pingpong_blocks(vec![0u8; bytes], 5, 200))
        });
    }

    const MESSAGES: u64 = 200_000;
    p.emit_median("mp.transport.spsc_msgs_per_s", 0.04, 3, || {
        let (tx, rx) = spsc_channel::<u64>();
        let secs = seconds(|| {
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for i in 0..MESSAGES {
                        // SAFETY: this thread holds the only sender and
                        // is the only one that ever calls `send` on it.
                        unsafe { tx.send(i) }.expect("the receiver outlives the sends");
                    }
                });
                assert_eq!(
                    (0..MESSAGES).map_while(|_| rx.recv().ok()).count() as u64,
                    MESSAGES
                );
            });
        });
        MESSAGES as f64 / secs
    });
    p.emit_median("mp.transport.mpsc_msgs_per_s", 0.04, 3, || {
        let (tx, rx) = real_channel::<u64>();
        let secs = seconds(|| {
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    for i in 0..MESSAGES {
                        tx.send(i).expect("the receiver outlives the sends");
                    }
                });
                assert_eq!(
                    (0..MESSAGES).map_while(|_| rx.recv().ok()).count() as u64,
                    MESSAGES
                );
            });
        });
        MESSAGES as f64 / secs
    });
}

/// `mp.collectives.*`.
fn mp_collectives(p: &mut Probe<'_>) {
    const MIB_WORDS: usize = (1 << 20) / 8;
    let ranks = p.ranks;
    let mut rng = Rng::new(p.seed, 1);
    let data: Vec<u64> = (0..4 * MIB_WORDS).map(|_| rng.next_u64()).collect();
    let data = &data;

    p.emit_median("mp.collectives.barrier_us", 0.02, 5, || {
        collective_us(ranks, 500, |_| (), |ctx, ()| ctx.barrier())
    });
    p.emit_median("mp.collectives.all_reduce_8b_us", 0.02, 5, || {
        collective_us(
            ranks,
            500,
            |ctx| ctx.rank() as i64,
            |ctx, acc| *acc = ctx.all_reduce(*acc, |a, b| a.wrapping_add(b)),
        )
    });

    // The root's payloads are cloned before the clock starts: what is
    // timed is the collective, not the copy that feeds it.
    const REPS: usize = 4;
    let stack = |words: usize| {
        move |ctx: &Ctx| -> Vec<Vec<u64>> {
            let copies = if ctx.rank() == 0 { REPS } else { 0 };
            (0..copies).map(|_| data[..words].to_vec()).collect()
        }
    };
    for (metric, words) in [
        ("mp.collectives.broadcast_1mib_us", MIB_WORDS),
        ("mp.collectives.broadcast_4mib_us", 4 * MIB_WORDS),
    ] {
        p.emit_median(metric, 0.03, 5, || {
            collective_us(ranks, REPS, stack(words), |ctx, payloads| {
                black_box(ctx.broadcast(0, payloads.pop()).len());
            })
        });
    }
    p.emit_median("mp.collectives.broadcast_shared_1mib_us", 0.03, 5, || {
        collective_us(ranks, REPS, stack(MIB_WORDS), |ctx, payloads| {
            black_box(
                ctx.broadcast_shared(0, payloads.pop().map(Shared::new))
                    .get()
                    .len(),
            );
        })
    });
    let parts = |per_call: usize| {
        move |_: &Ctx| -> Vec<Vec<u64>> {
            (0..REPS * per_call)
                .map(|_| data[..MIB_WORDS / 4].to_vec())
                .collect()
        }
    };
    p.emit_median("mp.collectives.all_gather_256kib_us", 0.03, 5, || {
        collective_us(ranks, REPS, parts(1), |ctx, mine| {
            black_box(ctx.all_gather(mine.pop().expect("one part per call")).len());
        })
    });
    p.emit_median("mp.collectives.all_to_all_256kib_us", 0.03, 5, || {
        collective_us(ranks, REPS, parts(ranks), |ctx, mine| {
            let items = mine.split_off(mine.len() - ctx.nprocs());
            black_box(ctx.all_to_all(items).len());
        })
    });
}

/// The archetype layers: every application on one rank and on all
/// ranks, interleaved, each run held against its sequential reference;
/// plus the plain single-threaded baselines.
fn archetypes(p: &mut Probe<'_>, apps: &AppsWorkload) {
    let ranks = p.ranks;
    // Milliseconds per application and per whole pass; column 0 is one
    // rank, column 1 all ranks.
    let mut ms: [[Vec<f64>; 2]; 5] = Default::default();
    let mut passes: [Vec<f64>; 2] = Default::default();
    let mut counts = [0u64; 5];
    let clock = Instant::now();
    while passes[0].len() < 3 || clock.elapsed().as_secs_f64() < p.budget_s * 0.2 {
        let mut pass_ms = [0.0f64; 2];
        for app in App::ALL {
            for (column, n) in [1, ranks].into_iter().enumerate() {
                let ((output, _), secs) = timed(|| {
                    p.spans
                        .within(app.span(), n as u64, || apps.run(app, n, RunConfig::real()))
                });
                p.tally.attempted += 1;
                p.tally.failed += u64::from(!apps.matches_reference(app, output));
                ms[app as usize][column].push(secs * 1e3);
                pass_ms[column] += secs * 1e3;
                counts[app as usize] = output.count;
            }
        }
        passes[0].push(pass_ms[0]);
        passes[1].push(pass_ms[1]);
    }
    let names = [
        ("dc.mergesort_ms_1rank", "dc.mergesort_ms"),
        ("mesh.poisson_ms_1rank", "mesh.poisson_ms"),
        ("farm.mandelbrot_ms_1rank", "farm.mandelbrot_ms"),
        ("pipeline.image_chain_ms_1rank", "pipeline.image_chain_ms"),
        ("bnb.knapsack_ms_1rank", "bnb.knapsack_ms"),
    ];
    for (app, (one_rank, all_ranks)) in App::ALL.into_iter().zip(names) {
        p.emit.set(one_rank, median(&ms[app as usize][0]));
        p.emit.set(all_ranks, median(&ms[app as usize][1]));
    }
    p.emit
        .set("mesh.poisson_iters", counts[App::Poisson as usize] as f64);
    p.emit
        .set("farm.tiles_stolen", counts[App::Mandelbrot as usize] as f64);
    p.emit
        .set("bnb.nodes_expanded", counts[App::Knapsack as usize] as f64);
    p.emit.set(
        "apps.speedup_vs_1rank",
        median(&passes[0]) / median(&passes[1]),
    );

    p.emit_median("dc.mergesort_seq_ms", 0.0, 3, || {
        let keys = apps.keys().to_vec();
        seconds(|| drop(black_box(sequential_mergesort(keys)))) * 1e3
    });
    let mut rng = Rng::new(p.seed, 2);
    let signal: Vec<Complex> = (0..4096)
        .map(|_| Complex::new((rng.below(2001) as f64 - 1000.0) / 1000.0, 0.0))
        .collect();
    p.emit_median("numerics.fft_4096_us", 0.0, 9, || {
        seconds(|| drop(black_box(fft(black_box(&signal))))) * 1e6
    });
}
