//! Seeded, fully deterministic fault injection for the SPMD substrate.
//!
//! A [`FaultPlan`] is a pure function from a splittable seed to a fault
//! schedule: message delays, message drops and duplications on the
//! fault-aware channel ([`crate::Ctx::send_ft`]/[`crate::Ctx::recv_ft`]),
//! and rank crashes at the k-th send, receive, or protocol phase
//! boundary. Every decision is a hash of the seed and the operation's
//! coordinates (ranks, tag, operation index), never of wall-clock state,
//! so a chaos run with a given plan is exactly reproducible: the same
//! ranks die at the same protocol points, the same messages are delayed
//! by the same virtual latencies, and the recovered results — and for
//! protocol-visible crash sites even the virtual clocks — are
//! bit-identical across repetitions.
//!
//! The plan is *globally shared*: one `Arc<FaultPlan>` is threaded
//! through every rank's [`crate::Ctx`] by [`crate::run_spmd_ft`]. That is
//! what makes choreographed recovery possible — a recovery protocol may
//! consult the plan (e.g. the pipeline's replica failover derives its
//! re-routing from the crash schedule), while the crash itself is a real
//! `panic!` that really tears the rank down and is really contained by
//! the runner.
//!
//! Injection semantics:
//!
//! - **Delay** faults apply to *every* point-to-point send: the packet's
//!   virtual arrival time is pushed back by a seeded extra latency.
//!   Delays are safe under any protocol (blocking matched receives just
//!   observe a later clock), so they can be injected under unmodified
//!   archetypes.
//! - **Drop** and **duplicate** faults apply only to the fault-aware
//!   channel: [`crate::Ctx::send_ft`] replays dropped attempts after a
//!   100 µs virtual retransmission timeout, and [`crate::Ctx::recv_ft`]
//!   consumes and discards duplicate copies. Both ends evaluate the same
//!   pure decision function, so the retransmission/dedup protocol needs
//!   no extra control traffic.
//! - **Crash** faults fire as real panics (payload [`InjectedCrash`]) at
//!   a deterministic operation index; peers observe the death through
//!   channel disconnection ([`RankDead`]) and the runner reports it as a
//!   structured failure instead of resuming the unwind.

use crate::stats::RankStats;

/// A rank never retries a fault-aware send more than this many times:
/// attempt indices at or beyond `MAX_SEND_ATTEMPTS - 1` are never
/// dropped, so every `send_ft` terminates.
pub const MAX_SEND_ATTEMPTS: u64 = 4;

/// Virtual seconds a fault-aware sender charges per dropped attempt
/// before retransmitting.
pub(crate) const RETRANSMIT_TIMEOUT: f64 = 100e-6;

/// Where in a rank's execution an injected crash fires. Operation
/// indices are 0-based and count from the start of the SPMD run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashSite {
    /// At the rank's k-th point-to-point send.
    Send(u64),
    /// At the rank's k-th point-to-point receive.
    Recv(u64),
    /// At the rank's k-th [`crate::Ctx::fault_point`] call — the
    /// protocol-visible phase boundaries archetypes place between units
    /// of work (a farm batch, a pipeline item), which is what makes
    /// recovery choreography and bit-identical re-execution possible.
    Phase(u64),
}

impl std::fmt::Display for CrashSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashSite::Send(k) => write!(f, "send #{k}"),
            CrashSite::Recv(k) => write!(f, "recv #{k}"),
            CrashSite::Phase(k) => write!(f, "phase boundary #{k}"),
        }
    }
}

/// One scheduled rank crash: world rank `rank` dies at `site`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The world rank that crashes.
    pub rank: usize,
    /// The operation at which it crashes.
    pub site: CrashSite,
}

/// The panic payload of an injected crash. The runner downcasts it to
/// recover the dying rank's virtual clock and statistics at the moment
/// of death, which a plain `&str` panic payload cannot carry.
#[derive(Clone, Debug)]
pub struct InjectedCrash {
    /// World rank that died.
    pub rank: usize,
    /// Virtual clock at the moment of death.
    pub clock: f64,
    /// Substrate statistics accumulated up to the death.
    pub stats: RankStats,
    /// The crash site that fired.
    pub site: CrashSite,
}

/// Error returned by the fault-aware channel operations when the peer's
/// rank has died (its channel endpoints were torn down by the unwind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankDead {
    /// World rank of the dead peer.
    pub rank: usize,
}

impl std::fmt::Display for RankDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} is dead (channel disconnected)", self.rank)
    }
}

impl std::error::Error for RankDead {}

/// The panic payload of a plain (not fault-aware) receive or send that
/// found its peer gone: a receive whose sender terminated without
/// sending a match, or a send into a terminated rank's mailbox. The
/// runner reads it as a *secondary* failure, one caused by world rank
/// `peer`'s ([`crate::RankFailure::waited_on`]), so [`crate::run_spmd`]
/// re-raises the root cause rather than this rank's.
#[derive(Debug)]
pub(crate) struct PeerGone {
    /// World rank of the peer that was gone.
    pub(crate) peer: usize,
    /// The diagnostic a re-raise or a [`crate::RankFailure`] carries.
    pub(crate) message: String,
}

impl PeerGone {
    /// Unwind the calling rank with a `PeerGone` payload, after one
    /// stderr line naming the gone peer and the message. `resume_unwind`
    /// skips the panic hook, which could only print the payload as
    /// `Box<dyn Any>`.
    #[cold]
    #[inline(never)]
    pub(crate) fn raise(peer: usize, message: String) -> ! {
        eprintln!("peer rank {peer} is gone: {message}");
        std::panic::resume_unwind(Box::new(PeerGone { peer, message }))
    }
}

// Decision-kind salts keeping the per-kind hash streams independent.
const SALT_DELAY: u64 = 0x64656c61; // "dela"
const SALT_DROP: u64 = 0x64726f70; // "drop"
const SALT_DUP: u64 = 0x6475706c; // "dupl"

/// A deterministic fault schedule, keyed off a splittable seed.
///
/// Build one with [`FaultPlan::new`] (an inert plan: hooks installed,
/// nothing injected — the configuration the idle-overhead bench pins)
/// and the builder methods, then hand it to [`crate::run_spmd_ft`].
///
/// ```
/// use archetype_mp::{run_spmd_ft, CrashSite, FaultPlan, MachineModel, RunConfig};
///
/// // Rank 1 dies at its first send; the runner reports it structurally.
/// let plan = FaultPlan::new(7).crash(1, CrashSite::Send(0));
/// let out = run_spmd_ft(2, MachineModel::zero_comm(), RunConfig::default(), plan, |ctx| {
///     if ctx.rank() == 1 {
///         ctx.send(0, 5, 42u64); // fires the injected crash
///     }
///     ctx.rank()
/// });
/// assert!(out.results[0].is_ok());
/// let failure = out.results[1].as_ref().unwrap_err();
/// assert_eq!(failure.rank, 1);
/// assert!(failure.injected);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    delay_prob: f64,
    delay_secs: f64,
    drop_prob: f64,
    dup_prob: f64,
    crashes: Vec<CrashSpec>,
    forced_atom_failures: Vec<(u64, u32)>,
}

impl FaultPlan {
    /// An inert plan with the given seed: the injection hooks run on
    /// every operation but inject nothing.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_prob: 0.0,
            delay_secs: 0.0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            crashes: Vec::new(),
            forced_atom_failures: Vec::new(),
        }
    }

    /// Delay each point-to-point message with probability `prob` by up to
    /// `max_secs` of extra virtual latency (the exact amount is seeded).
    pub fn delays(mut self, prob: f64, max_secs: f64) -> Self {
        self.delay_prob = prob;
        self.delay_secs = max_secs;
        self
    }

    /// Drop each fault-aware send attempt with probability `prob`
    /// (bounded by [`MAX_SEND_ATTEMPTS`], so sends always terminate).
    pub fn drops(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Duplicate each fault-aware message with probability `prob`; the
    /// receiver consumes and discards the extra copy.
    pub fn duplicates(mut self, prob: f64) -> Self {
        self.dup_prob = prob;
        self
    }

    /// Schedule world rank `rank` to crash at `site`.
    pub fn crash(mut self, rank: usize, site: CrashSite) -> Self {
        self.crashes.push(CrashSpec { rank, site });
        self
    }

    /// Force the composition atom at plan-preorder index `node` to fail
    /// its first `times` attempts (consulted by `compose`'s retry loop;
    /// see its `try_run_plan`).
    pub fn fail_atom(mut self, node: u64, times: u32) -> Self {
        self.forced_atom_failures.push((node, times));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled crashes (recovery choreography, e.g. the pipeline's
    /// replica failover, derives its re-routing from these).
    pub fn crashes(&self) -> &[CrashSpec] {
        &self.crashes
    }

    /// True if any per-message fault (delay/drop/duplicate) can fire —
    /// the hot-path early-out for the idle configuration.
    pub fn message_faults_enabled(&self) -> bool {
        self.delay_prob > 0.0 || self.drop_prob > 0.0 || self.dup_prob > 0.0
    }

    /// True if the per-operation substrate hooks (send/receive/phase) can
    /// ever fire for this plan: a scheduled crash or a nonzero delay
    /// probability. When false the substrate skips the hook calls — and
    /// their operation counters — entirely, so an inert plan's runs are
    /// indistinguishable from plain runs on the hot path. Drop/duplicate
    /// faults are handled inside the fault-aware channel primitives and
    /// atom failures inside the composition retry loop, neither of which
    /// goes through these hooks.
    pub fn hooks_live(&self) -> bool {
        !self.crashes.is_empty() || self.delay_prob > 0.0
    }

    /// Extra virtual latency injected into message number `seq` from
    /// world rank `from` to world rank `to` under tag `tag` (0.0 for
    /// most messages).
    pub fn delay_of(&self, from: usize, to: usize, tag: u64, seq: u64) -> f64 {
        if self.delay_prob <= 0.0 {
            return 0.0;
        }
        let h = self.mix(&[SALT_DELAY, from as u64, to as u64, tag, seq]);
        if unit(h) < self.delay_prob {
            // A second independent draw sizes the delay in (0, max].
            self.delay_secs * unit(splitmix64(h))
        } else {
            0.0
        }
    }

    /// True if attempt `attempt` of the fault-aware message `tag` from
    /// world rank `from` to world rank `to` is dropped. Both endpoints
    /// evaluate this identically, which is what lets the receiver await
    /// exactly the attempts that were really transmitted.
    pub fn drop_at(&self, from: usize, to: usize, tag: u64, attempt: u64) -> bool {
        if self.drop_prob <= 0.0 || attempt >= MAX_SEND_ATTEMPTS - 1 {
            return false;
        }
        unit(self.mix(&[SALT_DROP, from as u64, to as u64, tag, attempt])) < self.drop_prob
    }

    /// True if the fault-aware message `tag` from world rank `from` to
    /// world rank `to` is duplicated (the successful attempt is sent
    /// twice; the receiver discards the second copy).
    pub fn dup_of(&self, from: usize, to: usize, tag: u64) -> bool {
        if self.dup_prob <= 0.0 {
            return false;
        }
        unit(self.mix(&[SALT_DUP, from as u64, to as u64, tag])) < self.dup_prob
    }

    /// True if world rank `rank`'s operation `site` is a scheduled crash
    /// point.
    pub fn crash_hits(&self, rank: usize, site: CrashSite) -> bool {
        self.crashes
            .iter()
            .any(|c| c.rank == rank && c.site == site)
    }

    /// The earliest scheduled phase-boundary crash for world rank `rank`,
    /// if any — the handle recovery choreography keys off.
    pub fn first_phase_crash(&self, rank: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter_map(|c| match c.site {
                CrashSite::Phase(k) if c.rank == rank => Some(k),
                _ => None,
            })
            .min()
    }

    /// True if attempt `attempt` (0-based) of the composition atom at
    /// plan-preorder index `node` fails. Every rank of the atom's group
    /// evaluates this identically, so retries and the final verdict are
    /// collective without extra communication.
    pub fn atom_fails(&self, node: u64, attempt: u32) -> bool {
        self.forced_atom_failures
            .iter()
            .any(|&(n, times)| n == node && attempt < times)
    }

    /// Fold the decision coordinates into the seed (splittable-seed
    /// style: each field advances a splitmix64 stream).
    fn mix(&self, parts: &[u64]) -> u64 {
        parts
            .iter()
            .fold(splitmix64(self.seed), |h, &p| splitmix64(h ^ p))
    }
}

/// The splitmix64 output function: a single avalanche step with full
/// 64-bit dispersion; the workspace's standard seeded-decision hash.
fn splitmix64(z: u64) -> u64 {
    let mut x = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to the unit interval [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(42)
            .delays(0.5, 1e-3)
            .drops(0.3)
            .duplicates(0.2);
        let b = a.clone();
        for seq in 0..200 {
            assert_eq!(a.delay_of(0, 1, 7, seq), b.delay_of(0, 1, 7, seq));
            assert_eq!(a.drop_at(0, 1, 7, seq), b.drop_at(0, 1, 7, seq));
            assert_eq!(a.dup_of(0, 1, seq), b.dup_of(0, 1, seq));
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1).delays(0.5, 1e-3);
        let b = FaultPlan::new(2).delays(0.5, 1e-3);
        let differ = (0..64).any(|s| a.delay_of(0, 1, 9, s) != b.delay_of(0, 1, 9, s));
        assert!(differ, "seed must steer the schedule");
    }

    #[test]
    fn drop_schedule_respects_the_attempt_cap() {
        let plan = FaultPlan::new(3).drops(1.0); // drop everything droppable
        for attempt in 0..MAX_SEND_ATTEMPTS - 1 {
            assert!(plan.drop_at(0, 1, 11, attempt));
        }
        assert!(
            !plan.drop_at(0, 1, 11, MAX_SEND_ATTEMPTS - 1),
            "the final attempt must always go through"
        );
    }

    #[test]
    fn probabilities_land_in_the_right_ballpark() {
        let plan = FaultPlan::new(9).delays(0.25, 1e-3);
        let hits = (0..4000)
            .filter(|&s| plan.delay_of(0, 1, 13, s) > 0.0)
            .count();
        assert!((800..1200).contains(&hits), "got {hits} delays of 4000");
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let plan = FaultPlan::new(77);
        assert!(!plan.message_faults_enabled());
        assert_eq!(plan.delay_of(0, 1, 3, 0), 0.0);
        assert!(!plan.drop_at(0, 1, 3, 0));
        assert!(!plan.dup_of(0, 1, 3));
        assert!(!plan.atom_fails(0, 0));
        assert!(plan.first_phase_crash(0).is_none());
    }

    #[test]
    fn forced_atom_failures_override_the_probabilistic_schedule() {
        let plan = FaultPlan::new(5).fail_atom(4, 2);
        assert!(plan.atom_fails(4, 0));
        assert!(plan.atom_fails(4, 1));
        assert!(!plan.atom_fails(4, 2));
        assert!(!plan.atom_fails(3, 0));
    }

    #[test]
    fn crash_sites_match_exactly() {
        let plan = FaultPlan::new(0)
            .crash(2, CrashSite::Send(5))
            .crash(3, CrashSite::Phase(1));
        assert!(plan.crash_hits(2, CrashSite::Send(5)));
        assert!(!plan.crash_hits(2, CrashSite::Send(4)));
        assert!(!plan.crash_hits(1, CrashSite::Send(5)));
        assert_eq!(plan.first_phase_crash(3), Some(1));
        assert_eq!(plan.first_phase_crash(2), None);
        assert_eq!(CrashSite::Phase(1).to_string(), "phase boundary #1");
    }
}
