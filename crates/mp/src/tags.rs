//! Reserved tag namespaces for archetype-level protocols.
//!
//! The substrate's [`Tag`] space is partitioned so that user messages,
//! collectives, and archetype protocols can never collide:
//!
//! | bits            | owner                                     |
//! |-----------------|-------------------------------------------|
//! | `1 << 63`       | collectives ([`crate::collectives`])      |
//! | `1 << 62`       | unused; no protocol sets it               |
//! | `1 << 61`       | farm protocol (this module)               |
//! | `1 << 60` alone | pipeline protocol (this module)           |
//! | `1 << 59` alone | composition handoff (this module)         |
//! | `1 << 58` alone | fault-tolerance protocol (this module)    |
//! | rest            | free for application point-to-point use   |
//!
//! (A farm tag may have bits 59–60 set *inside* its kind field, but
//! always together with bit 61, and a pipeline tag may set bit 59 inside
//! its kind field but always together with bit 60 — so the pipeline
//! namespace — bit 60 with bits 61–63 clear — and the composition
//! namespace — bit 59 with bits 60–63 clear — never collide with either.
//! Composition and fault-tolerance tags keep their kind fields below bit
//! 58, so the FT namespace — bit 58 with bits 59–63 clear — is likewise
//! disjoint from everything above it.)
//!
//! The farm namespace carries the task-farm archetype's message
//! kinds, each versioned by the farm's round number so that back-to-back
//! rounds — and even two farms run one after the other in the same SPMD
//! body, provided they execute in lockstep — cannot confuse each other's
//! traffic.
//!
//! The pipeline namespace carries the pipeline archetype's stream. Its
//! tags are versioned by *edge* (the producer level in the stage graph)
//! rather than by round: all traffic on one edge flows between fixed
//! (sender, receiver) pairs, and the substrate's per-(sender, tag) FIFO
//! rule keeps consecutive pipelines in the same SPMD body ordered —
//! every rank fully drains its role in one pipeline before touching the
//! next, so a lagging consumer matches the earlier pipeline's messages
//! first.

use crate::ctx::Tag;

/// Base bit of the farm protocol's tag namespace.
pub const FARM_TAG_BASE: u64 = 1 << 61;

/// The message kinds of the task-farm protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FarmTag {
    /// A load report asking the partner for surplus work.
    StealRequest,
    /// The (possibly empty) batch of tasks answering a steal request.
    StealReply,
    /// The termination/steering wave token passed along the rank ring
    /// (the verdict travels back on the collective broadcast tree).
    Wave,
}

impl FarmTag {
    const fn code(self) -> u64 {
        match self {
            FarmTag::StealRequest => 0,
            FarmTag::StealReply => 1,
            FarmTag::Wave => 2,
        }
    }
}

/// The tag for farm message kind `kind` in round `round`.
///
/// Rounds are folded into the 59 bits below the kind field; a farm would
/// need ~10¹⁷ rounds to wrap, at which point messages from round `r` and
/// round `r + 2⁵⁹` could alias — far beyond any simulated run.
///
/// ```
/// use archetype_mp::tags::{farm_tag, FarmTag, FARM_TAG_BASE};
/// let t = farm_tag(FarmTag::StealRequest, 7);
/// assert_ne!(t, farm_tag(FarmTag::StealReply, 7)); // kinds are disjoint
/// assert_ne!(t, farm_tag(FarmTag::StealRequest, 8)); // rounds are disjoint
/// assert_eq!(t & FARM_TAG_BASE, FARM_TAG_BASE); // inside the farm namespace
/// ```
pub const fn farm_tag(kind: FarmTag, round: u64) -> Tag {
    FARM_TAG_BASE | (kind.code() << 59) | (round & ((1 << 59) - 1))
}

/// Base bit of the pipeline protocol's tag namespace.
pub const PIPE_TAG_BASE: u64 = 1 << 60;

/// The message kinds of the pipeline protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PipeTag {
    /// A stream item (or the end-of-stream marker) travelling down one
    /// edge of the stage graph.
    Item,
    /// A flow-control credit returned upstream after an item is consumed.
    Credit,
}

impl PipeTag {
    const fn code(self) -> u64 {
        match self {
            PipeTag::Item => 0,
            PipeTag::Credit => 1,
        }
    }
}

/// The tag for pipeline message kind `kind` on edge `edge` (the producer
/// level in the pipeline's stage graph: 0 leaving ingest, `l` leaving
/// segment `l`).
///
/// ```
/// use archetype_mp::tags::{pipe_tag, PipeTag, PIPE_TAG_BASE};
/// let t = pipe_tag(PipeTag::Item, 2);
/// assert_ne!(t, pipe_tag(PipeTag::Credit, 2)); // kinds are disjoint
/// assert_ne!(t, pipe_tag(PipeTag::Item, 3)); // edges are disjoint
/// assert_eq!(t & PIPE_TAG_BASE, PIPE_TAG_BASE); // inside the namespace
/// assert_eq!(t >> 61, 0); // and outside every other namespace
/// ```
pub const fn pipe_tag(kind: PipeTag, edge: u64) -> Tag {
    PIPE_TAG_BASE | (kind.code() << 59) | (edge & ((1 << 59) - 1))
}

/// Base bit of the composition subsystem's inter-stage handoff namespace.
pub const COMPOSE_TAG_BASE: u64 = 1 << 59;

/// The message kinds of the composition executor's handoff protocol
/// (`crates/compose`): plan values moving between a parent group's root
/// and its `Par` branches' roots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComposeTag {
    /// A branch input travelling from the parent root to a branch root.
    Input,
    /// A branch output (with its trace) travelling back to the parent root.
    Output,
}

impl ComposeTag {
    const fn code(self) -> u64 {
        match self {
            ComposeTag::Input => 0,
            ComposeTag::Output => 1,
        }
    }
}

/// The tag for composition handoff kind `kind` at plan node `node` (the
/// preorder index of the `Par`/`Replicate` node performing the handoff,
/// unique within one plan).
///
/// ```
/// use archetype_mp::tags::{compose_tag, ComposeTag, COMPOSE_TAG_BASE};
/// let t = compose_tag(ComposeTag::Input, 3);
/// assert_ne!(t, compose_tag(ComposeTag::Output, 3)); // kinds are disjoint
/// assert_ne!(t, compose_tag(ComposeTag::Input, 4)); // nodes are disjoint
/// assert_eq!(t & COMPOSE_TAG_BASE, COMPOSE_TAG_BASE); // inside the namespace
/// assert_eq!(t >> 60, 0); // and outside every other namespace
/// ```
pub const fn compose_tag(kind: ComposeTag, node: u64) -> Tag {
    COMPOSE_TAG_BASE | (kind.code() << 57) | (node & ((1 << 57) - 1))
}

/// Base bit of the fault-tolerance protocol's tag namespace.
pub const FT_TAG_BASE: u64 = 1 << 58;

/// The message kinds of the fault-tolerant archetype protocols (the FT
/// farm's work orders and replies, and the heartbeat/timeout machinery).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FtTag {
    /// A work order (or shutdown order) from a coordinator to a worker.
    Order,
    /// A completed batch of results travelling back to the coordinator.
    Done,
    /// A liveness/statistics report; carries a worker's final accounting
    /// during shutdown and doubles as the virtual-time heartbeat kind.
    Heartbeat,
}

impl FtTag {
    const fn code(self) -> u64 {
        match self {
            FtTag::Order => 0,
            FtTag::Done => 1,
            FtTag::Heartbeat => 2,
        }
    }
}

/// The tag for fault-tolerance message kind `kind` with sequence number
/// `seq`. Unlike the lockstep farm's round-versioned tags, FT tags are
/// versioned per *message*: recovery protocols re-send work after a
/// failure, and a unique sequence number per transmission both prevents a
/// reissued order from matching a stale reply and gives the fault layer's
/// pure drop/duplicate decision function (keyed by `(from, to, tag)`) a
/// distinct key per message — see [`crate::Ctx::send_ft`].
///
/// ```
/// use archetype_mp::tags::{ft_tag, FtTag, FT_TAG_BASE};
/// let t = ft_tag(FtTag::Order, 7);
/// assert_ne!(t, ft_tag(FtTag::Done, 7)); // kinds are disjoint
/// assert_ne!(t, ft_tag(FtTag::Order, 8)); // sequence numbers are disjoint
/// assert_eq!(t & FT_TAG_BASE, FT_TAG_BASE); // inside the FT namespace
/// assert_eq!(t >> 59, 0); // and outside every other namespace
/// ```
pub const fn ft_tag(kind: FtTag, seq: u64) -> Tag {
    FT_TAG_BASE | (kind.code() << 56) | (seq & ((1 << 56) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::COLLECTIVE_TAG_BASE;

    #[test]
    fn ft_namespace_is_disjoint_from_all_others() {
        let t = ft_tag(FtTag::Heartbeat, 11);
        assert_eq!(t & COLLECTIVE_TAG_BASE, 0, "not a collective tag");
        assert_eq!(t & (1 << 62), 0, "bit 62 stays clear");
        assert_eq!(t & (1 << 61), 0, "not a farm tag");
        assert_eq!(t & (1 << 60), 0, "not a pipeline tag");
        assert_eq!(t & (1 << 59), 0, "not a compose tag");
        assert_ne!(t & FT_TAG_BASE, 0);
        // Compose tags keep their kind field at bit 57, below the FT base,
        // so they can never fall inside the FT namespace — and farm /
        // pipeline / compose tags always carry their own base bits.
        assert_eq!(
            compose_tag(ComposeTag::Output, (1 << 57) - 1) & FT_TAG_BASE,
            0
        );
        assert_ne!(farm_tag(FarmTag::Wave, 3) & (1 << 61), 0);
        assert_ne!(pipe_tag(PipeTag::Credit, 3) & (1 << 60), 0);
        assert_ne!(compose_tag(ComposeTag::Input, 3) & (1 << 59), 0);
    }

    #[test]
    fn ft_kinds_and_seqs_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for kind in [FtTag::Order, FtTag::Done, FtTag::Heartbeat] {
            for seq in [0u64, 1, 2, 3, 17, 1000, 123_456_789] {
                assert!(seen.insert(ft_tag(kind, seq)));
            }
        }
    }

    #[test]
    fn compose_namespace_is_disjoint_from_all_others() {
        let t = compose_tag(ComposeTag::Output, 9);
        assert_eq!(t & COLLECTIVE_TAG_BASE, 0, "not a collective tag");
        assert_eq!(t & (1 << 62), 0, "bit 62 stays clear");
        assert_eq!(t & (1 << 61), 0, "not a farm tag");
        assert_eq!(t & (1 << 60), 0, "not a pipeline tag");
        assert_ne!(t & COMPOSE_TAG_BASE, 0);
        // Farm and pipeline tags always carry their own base bit, so they
        // can never fall inside the compose namespace.
        assert_ne!(farm_tag(FarmTag::Wave, 1) & (1 << 61), 0);
        assert_ne!(pipe_tag(PipeTag::Item, 1) & (1 << 60), 0);
    }

    #[test]
    fn compose_kinds_and_nodes_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for kind in [ComposeTag::Input, ComposeTag::Output] {
            for node in [0u64, 1, 2, 3, 17, 1000] {
                assert!(seen.insert(compose_tag(kind, node)));
            }
        }
    }

    #[test]
    fn pipe_kinds_and_edges_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for kind in [PipeTag::Item, PipeTag::Credit] {
            for edge in [0u64, 1, 2, 3, 17, 1000] {
                assert!(seen.insert(pipe_tag(kind, edge)));
            }
        }
    }

    #[test]
    fn pipe_namespace_is_disjoint_from_all_others() {
        let kinds = [FarmTag::StealRequest, FarmTag::StealReply, FarmTag::Wave];
        for kind in kinds {
            for round in [0u64, 1, (1 << 59) - 1] {
                // Farm tags always carry bit 61; pipe tags never do.
                assert_ne!(farm_tag(kind, round) & (1 << 61), 0);
            }
        }
        let t = pipe_tag(PipeTag::Credit, 5);
        assert_eq!(t & COLLECTIVE_TAG_BASE, 0, "not a collective tag");
        assert_eq!(t & (1 << 62), 0, "bit 62 stays clear");
        assert_eq!(t & (1 << 61), 0, "not a farm tag");
        assert_ne!(t & PIPE_TAG_BASE, 0);
    }

    #[test]
    fn kinds_and_rounds_never_collide() {
        let kinds = [FarmTag::StealRequest, FarmTag::StealReply, FarmTag::Wave];
        let mut seen = std::collections::HashSet::new();
        for kind in kinds {
            for round in [0u64, 1, 2, 1000, 123_456_789] {
                assert!(seen.insert(farm_tag(kind, round)));
            }
        }
    }

    #[test]
    fn farm_namespace_is_disjoint_from_collectives_and_groups() {
        let t = farm_tag(FarmTag::Wave, 42);
        assert_eq!(t & COLLECTIVE_TAG_BASE, 0, "not a collective tag");
        assert_eq!(t & (1 << 62), 0, "bit 62 stays clear");
        assert_ne!(t & FARM_TAG_BASE, 0);
    }
}
