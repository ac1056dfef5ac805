//! # archetype-bnb — the branch-and-bound archetype
//!
//! The paper's future-work list (§7) calls for **nondeterministic
//! archetypes**: "some problems are better suited to nondeterministic
//! archetypes — for example branch and bound — so our library of
//! archetypes should include such archetypes as well." This crate is that
//! archetype: a maximization branch-and-bound skeleton whose *search
//! order* (and hence communication schedule and node count) is
//! nondeterministic under parallel execution, while the *result* — the
//! optimum — is deterministic, which is exactly the weaker guarantee the
//! paper contrasts with its deterministic archetypes.
//!
//! Two drivers execute one [`BranchAndBound`] problem description:
//!
//! - [`solve_sequential`]: best-first search with a priority queue — the
//!   reference oracle;
//! - [`solve_farm`]: distributed search over the message-passing
//!   substrate, expressed as an instance of the general task-farm
//!   archetype (`archetype-farm`) — the priority queue, incumbent
//!   sharing, work distribution, and termination detection all come from
//!   the skeleton instead of being hand-rolled here.

pub mod farm;
pub mod knapsack;
pub mod skeleton;

pub use farm::{solve_farm, BnbFarm, BoundedNode};
pub use knapsack::{knapsack_dp, Knapsack};
pub use skeleton::{solve_sequential, BnbStats, BranchAndBound};
