//! Panic containment in the SPMD substrate: a rank failure must surface
//! as a structured error (or the original panic, for the infallible
//! entry point), must quarantine the dirty network rather than recycling
//! it, and must leave the thread pool fully usable for later runs.

use parallel_archetypes::mp::{run_spmd, try_run_spmd, MachineModel, RunConfig, SpmdError};

mod common;
use common::assert_bit_identical_runs;

/// Regression: the fallible entry used to `assert_eq!` on leaked
/// messages, so a caller that asked for a `Result` got a panic. A leak is
/// a typed error there; only the `run_spmd*` wrappers panic on it.
#[test]
fn a_leak_surfaces_as_a_typed_error_from_the_fallible_entry() {
    let leaky = |ctx: &mut parallel_archetypes::mp::Ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 3, 1u8);
            ctx.send(1, 4, 2u8); // never received
        } else if ctx.rank() == 1 {
            let _: u8 = ctx.recv(0, 3);
        }
        ctx.rank()
    };
    let err = try_run_spmd(3, MachineModel::ibm_sp(), RunConfig::default(), leaky)
        .expect_err("one message is never received");
    assert!(
        matches!(err, SpmdError::Leaked { count: 1 }),
        "expected Leaked {{ count: 1 }}, got {err:?}"
    );
    assert!(err.failures().is_empty(), "no rank failed");
    assert!(err.to_string().contains("1 unreceived message"));

    // With the check off the same run is a success.
    let quiet = RunConfig {
        check_leaks: false,
        ..RunConfig::default()
    };
    let ok = try_run_spmd(3, MachineModel::ibm_sp(), quiet, leaky).expect("leak check is off");
    assert_eq!(ok.results, vec![0, 1, 2]);
}

#[test]
fn a_rank_panic_surfaces_as_a_structured_error() {
    let err = try_run_spmd(4, MachineModel::ibm_sp(), RunConfig::default(), |ctx| {
        if ctx.rank() == 2 {
            panic!("rank 2 gives up");
        }
        ctx.rank()
    })
    .expect_err("rank 2 panicked");
    assert_eq!(err.failures().len(), 1);
    assert_eq!(err.failures()[0].rank, 2);
    assert!(err.failures()[0].message.contains("rank 2 gives up"));
    assert!(!err.failures()[0].injected);
}

#[test]
fn every_failed_rank_is_reported_in_rank_order() {
    let err = try_run_spmd(5, MachineModel::ibm_sp(), RunConfig::default(), |ctx| {
        if ctx.rank() % 2 == 1 {
            panic!("odd rank {} fails", ctx.rank());
        }
    })
    .expect_err("two ranks panicked");
    let ranks: Vec<usize> = err.failures().iter().map(|f| f.rank).collect();
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

/// A failed run strands messages mid-protocol. The pooled executor must
/// quarantine that network: the next run — on recycled pool threads —
/// must behave exactly like a run in a fresh process, with no stale
/// messages bleeding in.
#[test]
fn the_pool_survives_a_failure_and_the_dirty_network_is_quarantined() {
    // Rank 1 dies after rank 0 has already sent to it, leaving an
    // unconsumed message in the network.
    let err = try_run_spmd(3, MachineModel::ibm_sp(), RunConfig::default(), |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 7, 42u64);
        }
        if ctx.rank() == 1 {
            panic!("dies before receiving");
        }
        ctx.barrier();
    })
    .expect_err("rank 1 panicked");
    // Rank 1's own panic plus the secondary failures of the ranks its
    // death stranded at the barrier — all reported. Which side of the
    // barrier protocol a stranded rank dies on is host-timing dependent
    // (blocked receiving from the dead rank, or sending into its closed
    // mailbox), so accept both secondary shapes.
    assert!(err
        .failures()
        .iter()
        .any(|f| f.rank == 1 && f.message.contains("dies before receiving")));
    assert!(err.failures().iter().all(|f| f.rank == 1
        || f.message.contains("was pending")
        || f.message.contains("mailbox closed")));

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
        let err = try_run_spmd(
            2,
            MachineModel::ibm_sp(),
            RunConfig::default(),
            move |ctx| {
                if ctx.rank() == 1 {
                    panic!("round {round}");
                }
            },
        )
        .expect_err("rank 1 panics each round");
        assert_eq!(err.failures().len(), 1);
        assert!(err.failures()[0]
            .message
            .contains(&format!("round {round}")));
    }
}
