//! One rank, one core: the benchmark pins the executor's pool workers.
//!
//! Ranks of a message-passing run block on each other, so only one of a
//! pair is runnable at a time, and the kernel is free to stack both on
//! one CPU — where a message costs a context switch (~2 µs on the
//! reference VM) — or to keep them apart — where it costs a cross-CPU
//! wake-up (~25 µs there). Which one it does flips every few seconds;
//! sizing saw the same binary deliver 65 k and 900 k messages/s. A
//! parallel program wants its ranks on different cores, so that is the
//! placement measured: every set-up runs one empty SPMD run whose body
//! pins each worker thread to its own CPU (the MPI `--bind-to core`).
//! The pool's workers are persistent, so later runs — including the ones
//! the plan service starts itself — inherit the placement.

use std::sync::atomic::{AtomicBool, Ordering};

use archetype_mp::{run_spmd_with, RunConfig};

use crate::workloads::model;

/// Words of the kernel's CPU mask (`cpu_set_t`: 1024 bits).
const MASK_WORDS: usize = 16;

extern "C" {
    // glibc; `pid == 0` addresses the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, ascending (empty if the kernel
/// refuses to say).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; the call writes at most that many bytes.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to `cpu`; false if the kernel refuses.
fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Whether the last [`pin_pool`] pinned every rank (for the host block;
/// publishes no other data, hence `Relaxed`).
static PINNED: AtomicBool = AtomicBool::new(false);

/// True when the pool's workers are pinned, one per CPU.
pub fn pinned() -> bool {
    PINNED.load(Ordering::Relaxed)
}

/// Pin the pool's `ranks` workers, rank `r` to the `r`-th CPU this
/// process may use (wrapping when there are fewer CPUs than ranks).
/// An unpinned run still measures, only less steadily; [`pinned`] says
/// which it was.
pub fn pin_pool(ranks: usize) {
    // Read on the calling (never pinned) thread: a worker pinned by an
    // earlier call would report its own single CPU.
    let cpus = allowed_cpus();
    let all = !cpus.is_empty()
        && run_spmd_with(ranks, model(), RunConfig::real(), |ctx| {
            pin_current_thread(cpus[ctx.rank() % cpus.len()])
        })
        .results
        .into_iter()
        .all(|pinned| pinned);
    PINNED.store(all, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spawned_thread_can_be_pinned_to_an_allowed_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        assert!(cpus.windows(2).all(|w| w[0] < w[1]));
        let last = *cpus.last().unwrap();
        // On a thread of its own, so the test harness thread stays free.
        let seen = std::thread::spawn(move || (pin_current_thread(last), allowed_cpus()))
            .join()
            .unwrap();
        assert_eq!(seen, (true, vec![last]));
    }
}
