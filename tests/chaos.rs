//! Chaos conformance suite: random fault schedules × archetypes ×
//! process counts, property-testing the robustness layer's central
//! claims — recovered runs are **bit-identical** to fault-free runs,
//! failures surface as typed errors (never hangs or corruption), and
//! the quarantined network never leaks survivor messages.
//!
//! `PROPTEST_CASES` scales the schedule count (CI runs 96).

use proptest::prelude::*;

use parallel_archetypes::compose::{run_plan, try_run_plan, ArchetypeJob, Plan, PlanError, Value};
use parallel_archetypes::core::{ArchetypeInfo, PhaseTrace};
use parallel_archetypes::farm::{run_farm, run_farm_ft, Farm, FarmConfig, FtFarmConfig, WorkScope};
use parallel_archetypes::mp::{run_spmd, run_spmd_ft, CrashSite, Ctx, FaultPlan, MachineModel};
use parallel_archetypes::pipeline::{run_pipeline, Pipeline, PipelineConfig, Stage};

// ---------------------------------------------------------------------------
// Fixtures: one representative per archetype, all with floating-point or
// order-sensitive outputs so bit-identity is a meaningful assertion.
// ---------------------------------------------------------------------------

/// Spawning farm with floating-point accumulation.
struct Spawner(u64);
impl Farm for Spawner {
    type Task = (u64, bool);
    type Out = f64;
    type Hint = ();
    fn seed(&self) -> Vec<(u64, bool)> {
        (0..self.0).map(|k| (k, true)).collect()
    }
    fn work(&self, (k, is_root): (u64, bool), scope: &mut WorkScope<'_, Self>) {
        scope.emit(1.0 / (k as f64 + 1.0));
        if is_root {
            for j in 0..3 {
                scope.spawn((k * 10 + j, false));
            }
        }
    }
    fn out_identity(&self) -> f64 {
        0.0
    }
    fn reduce(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Heavy, order-sensitive pipeline: both stages are compute-bound (so
/// spare ranks replicate the fused chain — failover needs a level with
/// at least two replicas), and the emit fold concatenates `seq:item;`, so
/// any loss, duplication, or reordering changes the output string.
struct HeavyOrdered(u64);
struct HeavyScale;
impl Stage<u64> for HeavyScale {
    fn transform(&self, _seq: u64, item: u64) -> u64 {
        item * 3 + 1
    }
    fn flops(&self, _item: &u64) -> f64 {
        1_000_000.0
    }
    fn name(&self) -> &'static str {
        "heavy-scale"
    }
}
struct HeavyXor;
impl Stage<u64> for HeavyXor {
    fn transform(&self, seq: u64, item: u64) -> u64 {
        item ^ (seq % 8)
    }
    fn flops(&self, _item: &u64) -> f64 {
        1_000_000.0
    }
    fn name(&self) -> &'static str {
        "heavy-xor"
    }
}
impl Pipeline for HeavyOrdered {
    type Item = u64;
    type Out = String;
    fn ingest(&self, seq: u64) -> Option<u64> {
        (seq < self.0).then_some(seq * 7 % 13)
    }
    fn stages(&self) -> Vec<&dyn Stage<u64>> {
        vec![&HeavyScale, &HeavyXor]
    }
    fn out_identity(&self) -> String {
        String::new()
    }
    fn emit(&self, mut acc: String, seq: u64, item: u64) -> String {
        use std::fmt::Write;
        write!(acc, "{seq}:{item};").unwrap();
        acc
    }
}

/// A compose atom: one arithmetic step on an `F64` edge value.
struct Scale(f64);
impl ArchetypeJob for Scale {
    type In = Value;
    type Out = Value;
    fn name(&self) -> &'static str {
        "scale"
    }
    fn info(&self) -> &'static ArchetypeInfo {
        &parallel_archetypes::core::archetype::ONE_DEEP_DC
    }
    fn estimate_flops(&self, _input: &Value) -> f64 {
        1.0
    }
    fn run(&self, _ctx: &mut Ctx, input: Value, _trace: Option<&PhaseTrace>) -> Value {
        match input {
            Value::F64(x) => Value::F64(x * self.0 + 1.0),
            other => panic!("scale expects F64, got {}", other.shape()),
        }
    }
}

fn two_stage_plan() -> Plan {
    Plan::seq(vec![Plan::atom(Scale(3.0)), Plan::atom(Scale(5.0))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // A single worker death at any phase boundary — optionally under
    // message drops, duplicates, and delays on the fault-aware channel —
    // recovers bit-identically to the fault-free run, with no survivor
    // messages stranded in the quarantined network.
    #[test]
    fn ft_farm_recovers_from_any_single_worker_crash(
        seed in any::<u64>(),
        p in 3usize..8,
        victim_pick in 0usize..8,
        k in 0u64..5,
        drop_prob in 0.0f64..0.25,
        dup_prob in 0.0f64..0.25,
    ) {
        let victim = 1 + victim_pick % (p - 1);
        // Small batches keep every worker busy, so most schedules really
        // fire; schedules past the victim's last order simply never do.
        let config = FtFarmConfig { batch: 4, ..FtFarmConfig::default() };
        let noisy = |plan: FaultPlan| plan.drops(drop_prob).duplicates(dup_prob);
        let clean = run_spmd_ft(p, MachineModel::ibm_sp(), noisy(FaultPlan::new(seed)), move |ctx| {
            run_farm_ft(&Spawner(24), ctx, config)
        });
        prop_assert!(clean.all_ok());
        let plan = noisy(FaultPlan::new(seed)).crash(victim, CrashSite::Phase(k));
        let faulty = run_spmd_ft(p, MachineModel::ibm_sp(), plan, move |ctx| {
            run_farm_ft(&Spawner(24), ctx, config)
        });
        let (clean_out, _) = clean.results[0].as_ref().expect("clean run");
        prop_assert_eq!(faulty.leaked_messages, 0);
        let crashed = !faulty.all_ok();
        for (rank, res) in faulty.results.iter().enumerate() {
            match res {
                Ok((out, stats)) => {
                    prop_assert_eq!(out.to_bits(), clean_out.to_bits(), "rank {}", rank);
                    prop_assert_eq!(stats.workers_lost, u64::from(crashed));
                }
                Err(f) => {
                    prop_assert_eq!(rank, victim);
                    prop_assert!(f.injected);
                }
            }
        }
    }

    // A master death is unrecoverable by design: every rank fails, the
    // workers with a typed message naming the master.
    #[test]
    fn ft_farm_master_death_yields_typed_failures(
        seed in any::<u64>(),
        p in 2usize..6,
        k in 0u64..3,
    ) {
        let plan = FaultPlan::new(seed).crash(0, CrashSite::Send(k));
        let out = run_spmd_ft(p, MachineModel::ibm_sp(), plan, |ctx| {
            run_farm_ft(&Spawner(24), ctx, FtFarmConfig::default())
        });
        for (rank, res) in out.results.iter().enumerate() {
            let failure = res.as_ref().expect_err("no rank survives a master death");
            if rank == 0 {
                prop_assert!(failure.injected);
            } else {
                prop_assert!(failure.message.contains("master"), "{}", failure.message);
            }
        }
    }

    // Delay-only plans perturb virtual time but never results: the
    // plain (non-FT) archetypes are delay-transparent.
    #[test]
    fn delay_only_plans_preserve_plain_archetype_results(
        seed in any::<u64>(),
        p in 2usize..7,
        delay_prob in 0.0f64..0.5,
        delay_secs in 1e-6f64..1e-3,
    ) {
        let clean = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            (
                run_farm(&Spawner(16), ctx, FarmConfig::default()).0,
                run_pipeline(&HeavyOrdered(20), ctx, PipelineConfig::default()).0,
            )
        });
        let plan = FaultPlan::new(seed).delays(delay_prob, delay_secs);
        let delayed = run_spmd_ft(p, MachineModel::ibm_sp(), plan, |ctx| {
            (
                run_farm(&Spawner(16), ctx, FarmConfig::default()).0,
                run_pipeline(&HeavyOrdered(20), ctx, PipelineConfig::default()).0,
            )
        });
        prop_assert_eq!(delayed.leaked_messages, 0);
        let (clean_farm, clean_pipe) = &clean.results[0];
        for res in &delayed.results {
            let (farm_out, pipe_out) = res.as_ref().expect("delays never kill a rank");
            prop_assert_eq!(farm_out.to_bits(), clean_farm.to_bits());
            prop_assert_eq!(pipe_out, clean_pipe);
        }
    }

    // Killing a replicated transform replica after any number of items
    // (including schedules that never fire because the stream ends
    // first) leaves every survivor with the fault-free output.
    #[test]
    fn pipeline_failover_matches_the_fault_free_run(
        p in 6usize..9,
        victim in 1usize..3,
        k in 0u64..16,
        n in 10u64..40,
    ) {
        let clean = run_spmd_ft(p, MachineModel::ibm_sp(), FaultPlan::new(n), |ctx| {
            run_pipeline(&HeavyOrdered(n), ctx, PipelineConfig::default()).0
        });
        let plan = FaultPlan::new(n).crash(victim, CrashSite::Phase(k));
        let faulty = run_spmd_ft(p, MachineModel::ibm_sp(), plan, |ctx| {
            run_pipeline(&HeavyOrdered(n), ctx, PipelineConfig::default()).0
        });
        let clean_out = clean.results[0].as_ref().expect("clean run");
        prop_assert_eq!(faulty.leaked_messages, 0);
        for (rank, res) in faulty.results.iter().enumerate() {
            match res {
                Ok(out) => prop_assert_eq!(out, clean_out, "rank {}", rank),
                Err(f) => {
                    prop_assert_eq!(rank, victim);
                    prop_assert!(f.injected);
                }
            }
        }
    }

    // Atom failures within the retry budget replay to the fault-free
    // value; schedules beyond it surface the identical typed error on
    // every rank before any communication.
    #[test]
    fn compose_retries_recover_or_fail_typed(
        seed in any::<u64>(),
        p in 2usize..6,
        node in 1u64..3,
        times in 0u32..8,
    ) {
        let clean = run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            run_plan(ctx, &two_stage_plan(), Value::F64(2.0))
        });
        let plan = FaultPlan::new(seed).fail_atom(node, times);
        let out = run_spmd_ft(p, MachineModel::ibm_sp(), plan, |ctx| {
            try_run_plan(ctx, &two_stage_plan(), Value::F64(2.0))
        });
        prop_assert_eq!(out.leaked_messages, 0);
        let (clean_value, _) = &clean.results[0];
        for res in &out.results {
            let verdict = res.as_ref().expect("no rank panics");
            if times <= 3 {
                let (value, stats) = verdict.as_ref().expect("within budget");
                prop_assert_eq!(value, clean_value);
                prop_assert_eq!(stats.retries, u64::from(times));
            } else {
                let err = verdict.as_ref().expect_err("budget exhausted");
                prop_assert_eq!(err, &PlanError::AtomExhausted {
                    node,
                    atom: "scale".into(),
                    attempts: 4,
                });
            }
        }
    }

    // The whole point of seeded chaos: any fault schedule replays
    // bit-identically — results, failures, clocks, and leak counts.
    #[test]
    fn chaotic_runs_are_bit_identically_repeatable(
        seed in any::<u64>(),
        p in 3usize..7,
        victim_pick in 0usize..8,
        k in 0u64..4,
        drop_prob in 0.0f64..0.3,
        dup_prob in 0.0f64..0.3,
        delay_prob in 0.0f64..0.3,
    ) {
        let victim = 1 + victim_pick % (p - 1);
        let mk = || {
            FaultPlan::new(seed)
                .drops(drop_prob)
                .duplicates(dup_prob)
                .delays(delay_prob, 1e-4)
                .crash(victim, CrashSite::Phase(k))
        };
        let run = || run_spmd_ft(p, MachineModel::cray_t3d(), mk(), |ctx| {
            run_farm_ft(&Spawner(20), ctx, FtFarmConfig::default())
        });
        let a = run();
        let b = run();
        prop_assert_eq!(a.leaked_messages, b.leaked_messages);
        prop_assert_eq!(a.elapsed_virtual.to_bits(), b.elapsed_virtual.to_bits());
        for (ta, tb) in a.rank_times.iter().zip(&b.rank_times) {
            prop_assert_eq!(ta.to_bits(), tb.to_bits());
        }
        for (ra, rb) in a.results.iter().zip(&b.results) {
            match (ra, rb) {
                (Ok((oa, sa)), Ok((ob, sb))) => {
                    prop_assert_eq!(oa.to_bits(), ob.to_bits());
                    prop_assert_eq!(sa, sb);
                }
                (Err(fa), Err(fb)) => {
                    prop_assert_eq!(&fa.message, &fb.message);
                    prop_assert_eq!(fa.injected, fb.injected);
                    prop_assert_eq!(fa.clock.to_bits(), fb.clock.to_bits());
                }
                _ => prop_assert!(false, "outcome kind differs between replays"),
            }
        }
    }
}
