//! Panic containment in the SPMD substrate: a rank failure must surface
//! as a structured failure from the reporting entry (`run_spmd_ft`) or as
//! the root cause's panic from `run_spmd`, must quarantine the dirty
//! network rather than recycling it, and must leave the thread pool fully
//! usable for later runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parallel_archetypes::mp::{
    run_spmd, run_spmd_ft, run_spmd_with, CrashSite, Ctx, FaultPlan, MachineModel, RankFailure,
    RunConfig, SpmdResult,
};

mod common;
use common::assert_bit_identical_runs;

/// `body` through the reporting entry, under an inert fault plan.
fn report<R: Send>(
    nprocs: usize,
    body: impl Fn(&mut Ctx) -> R + Sync,
) -> SpmdResult<Result<R, RankFailure>> {
    run_spmd_ft(
        nprocs,
        MachineModel::ibm_sp(),
        RunConfig::default(),
        FaultPlan::new(0),
        body,
    )
}

/// The message `f` panicked with, or `None` if it returned.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(
        *payload
            .downcast::<String>()
            .expect("run_spmd re-raises a String"),
    )
}

/// Regression: the reporting entry used to `assert_eq!` on leaked
/// messages, so a caller that asked for outcomes got a panic. There a
/// leak is a count next to every rank's `Ok`; only the `run_spmd*`
/// wrappers panic on it.
#[test]
fn a_leak_surfaces_as_a_typed_error_from_the_fallible_entry() {
    let leaky = |ctx: &mut Ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 3, 1u8);
            ctx.send(1, 4, 2u8); // never received
        } else if ctx.rank() == 1 {
            let _: u8 = ctx.recv(0, 3);
        }
        ctx.rank()
    };
    let out = report(3, leaky);
    assert!(out.all_ok(), "no rank failed: {:?}", out.failures());
    assert_eq!(out.leaked_messages, 1);
    let results: Vec<usize> = out.results.into_iter().map(Result::unwrap).collect();
    assert_eq!(results, vec![0, 1, 2]);

    let message = panic_message(|| {
        run_spmd_with(3, MachineModel::ibm_sp(), RunConfig::default(), leaky);
    });
    let message = message.expect("run_spmd_with panics on the leak");
    assert!(message.contains("1 unreceived message"), "{message}");
}

#[test]
fn a_rank_panic_surfaces_as_a_structured_error() {
    let out = report(4, |ctx| {
        if ctx.rank() == 2 {
            panic!("rank 2 gives up");
        }
        ctx.rank()
    });
    let failures = out.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].rank, 2);
    assert!(failures[0].message.contains("rank 2 gives up"));
    assert!(!failures[0].injected);
    assert_eq!(failures[0].waited_on, None, "a failure of its own");
}

#[test]
fn every_failed_rank_is_reported_in_rank_order() {
    let out = report(5, |ctx| {
        if ctx.rank() % 2 == 1 {
            panic!("odd rank {} fails", ctx.rank());
        }
    });
    let ranks: Vec<usize> = out.failures().iter().map(|f| f.rank).collect();
    assert_eq!(ranks, vec![1, 3]);
}

#[test]
#[should_panic(expected = "original panic text")]
fn run_spmd_rethrows_the_original_panic() {
    run_spmd(3, MachineModel::ibm_sp(), |ctx| {
        if ctx.rank() == 1 {
            panic!("original panic text");
        }
    });
}

/// Rank 0 blocks receiving from rank 1, which panics: rank 0 fails too,
/// but only because rank 1 is gone. `run_spmd` must re-raise rank 1's
/// message, not the lower-ranked secondary one, on every schedule.
#[test]
fn run_spmd_reraises_the_root_cause_not_a_peer_that_waited_on_it() {
    let body = |ctx: &mut Ctx| {
        if ctx.rank() == 1 {
            panic!("ROOT CAUSE in rank 1");
        }
        let _: u64 = ctx.recv(1, 0);
    };
    let out = report(2, body);
    let failures = out.failures();
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert_eq!((failures[0].rank, failures[0].waited_on), (0, Some(1)));
    assert!(failures[0].message.contains("was pending"));
    assert_eq!((failures[1].rank, failures[1].waited_on), (1, None));

    for round in 0..50 {
        let message = panic_message(|| {
            run_spmd(2, MachineModel::ibm_sp(), body);
        });
        let message = message.expect("rank 1 panics");
        assert!(
            message.contains("ROOT CAUSE in rank 1"),
            "round {round}: re-raised {message:?}"
        );
    }
}

/// Rank 1 dies at its first send; rank 0, waiting on that message, fails
/// because rank 1 is gone. Both are reported; the test below reads what
/// this one writes to stderr.
#[test]
fn an_injected_crash_strands_a_waiting_peer() {
    let out = run_spmd_ft(
        2,
        MachineModel::ibm_sp(),
        RunConfig::default(),
        FaultPlan::new(3).crash(1, CrashSite::Send(0)),
        |ctx| {
            if ctx.rank() == 1 {
                ctx.send(0, 0, 1u64);
            } else {
                let _: u64 = ctx.recv(1, 0);
            }
        },
    );
    let failures = out.failures();
    assert_eq!(failures.len(), 2, "{failures:?}");
    assert_eq!((failures[0].rank, failures[0].waited_on), (0, Some(1)));
    assert!(failures[1].injected);
}

/// Both unwinds carry a non-string payload, which the panic hook could
/// only print as `Box<dyn Any>`: each dying rank writes its own line.
#[test]
fn a_dying_rank_writes_its_message_to_stderr() {
    let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "an_injected_crash_strands_a_waiting_peer",
            "--exact",
            "--nocapture",
        ])
        .output()
        .expect("the test binary re-runs");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "{stderr}");
    assert!(stderr.contains("injected crash at"), "{stderr}");
    assert!(
        stderr.contains("rank terminated while a receive"),
        "{stderr}"
    );
    assert!(!stderr.contains("Box<dyn Any>"), "{stderr}");
}

/// A failed run strands messages mid-protocol. The pooled executor must
/// quarantine that network: the next run — on recycled pool threads —
/// must behave exactly like a run in a fresh process, with no stale
/// messages bleeding in.
#[test]
fn the_pool_survives_a_failure_and_the_dirty_network_is_quarantined() {
    // Rank 1 dies after rank 0 has already sent to it, leaving an
    // unconsumed message in the network.
    let out = report(3, |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, 42u64);
        }
        if ctx.rank() == 1 {
            panic!("dies before receiving");
        }
        ctx.barrier();
    });
    // Rank 1's own panic plus the secondary failures of the ranks its
    // death stranded at the barrier — all reported. Which side of the
    // barrier protocol a stranded rank dies on is host-timing dependent
    // (blocked receiving from the dead rank, or sending into its closed
    // mailbox), so accept both secondary shapes.
    let failures = out.failures();
    assert!(failures
        .iter()
        .any(|f| f.rank == 1 && f.message.contains("dies before receiving")));
    assert!(failures.iter().all(|f| f.rank == 1
        || (f.waited_on.is_some()
            && (f.message.contains("was pending") || f.message.contains("mailbox closed")))));

    // The same pool then runs a protocol that would notice any stale
    // tag-7 message instantly (recv asserts payload type and sender),
    // and it must be bit-identical across repetitions.
    let out = assert_bit_identical_runs("post-failure runs", || {
        run_spmd(3, MachineModel::ibm_sp(), |ctx| {
            let me = ctx.rank();
            let next = (me + 1) % ctx.nprocs();
            let prev = (me + ctx.nprocs() - 1) % ctx.nprocs();
            ctx.send(next, 7, me as u64);
            let got: u64 = ctx.recv(prev, 7);
            got
        })
    });
    assert_eq!(out.results, vec![2, 0, 1]);
}

#[test]
fn failures_in_consecutive_runs_stay_independent() {
    for round in 0..3u64 {
        let out = report(2, move |ctx| {
            if ctx.rank() == 1 {
                panic!("round {round}");
            }
        });
        let failures = out.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].message.contains(&format!("round {round}")));
    }
}
