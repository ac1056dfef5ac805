//! Property-based tests of the composition subsystem's **allocator and
//! group plumbing**: for random plan shapes, branch costs, and process
//! counts, the groups the executor forms must be disjoint, cover their
//! parent, never be empty, and have sizes proportional to the branches'
//! cost estimates within rounding — and the pure [`allocate`] function
//! must satisfy its quota bounds for arbitrary cost vectors.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use proptest::collection::vec;
use proptest::prelude::*;

use parallel_archetypes::compose::{allocate, run_plan, ArchetypeJob, Plan, Value};
use parallel_archetypes::core::archetype::ONE_DEEP_DC;
use parallel_archetypes::core::ArchetypeInfo;
use parallel_archetypes::mp::{run_spmd, Ctx, MachineModel};

// ---------------------------------------------------------------------------
// Pure allocator invariants.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn allocate_covers_exactly_and_respects_quotas(
        costs in vec(0.0f64..1e6, 1..8),
        spare in 0usize..24,
    ) {
        let k = costs.len();
        let p = k + spare;
        let sizes = allocate(&costs, p);

        // Cover the parent exactly, never empty.
        prop_assert_eq!(sizes.len(), k);
        prop_assert_eq!(sizes.iter().sum::<usize>(), p);
        prop_assert!(sizes.iter().all(|&s| s >= 1));

        // Proportional within rounding: each share is one guaranteed rank
        // plus its largest-remainder quota of the spare ranks, which the
        // method bounds to ⌊q⌋..⌈q⌉.
        let total: f64 = costs.iter().sum();
        for (i, &s) in sizes.iter().enumerate() {
            let q = if total > 0.0 {
                spare as f64 * costs[i] / total
            } else {
                spare as f64 / k as f64
            };
            let share = (s - 1) as f64;
            prop_assert!(
                share >= q.floor() - 1e-9 && share <= q.ceil() + 1e-9,
                "branch {i}: share {share} outside quota bounds [{}, {}]",
                q.floor(),
                q.ceil()
            );
        }
    }

    #[test]
    fn allocate_is_scale_invariant(
        costs in vec(1e-3f64..1e3, 1..8),
        spare in 0usize..16,
        scale_pick in 0usize..3,
    ) {
        let scale = [1e-6f64, 1.0, 1e6][scale_pick];
        // Pricing the same flop estimates on a faster or slower machine
        // scales every cost equally, so the allocation must not change —
        // the model-invariance the structural statistics rely on.
        let p = costs.len() + spare;
        let scaled: Vec<f64> = costs.iter().map(|c| c * scale).collect();
        prop_assert_eq!(allocate(&costs, p), allocate(&scaled, p));
    }
}

// ---------------------------------------------------------------------------
// Executor group plumbing, observed through probe atoms.
// ---------------------------------------------------------------------------

/// What every probe atom saw: its id mapped to the world-rank member
/// sets of each of its executions (a replicate body executes once per
/// copy).
type Observations = Arc<Mutex<HashMap<u64, Vec<Vec<usize>>>>>;

/// An atom that records the group it ran on and does nothing else.
struct Probe {
    id: u64,
    cost: f64,
    seen: Observations,
}

impl ArchetypeJob for Probe {
    type In = Value;
    type Out = ();

    fn name(&self) -> &'static str {
        "probe"
    }

    fn info(&self) -> &'static ArchetypeInfo {
        &ONE_DEEP_DC
    }

    fn estimate_flops(&self, _input: &Value) -> f64 {
        self.cost
    }

    fn run(&self, ctx: &mut Ctx, _input: Value) {
        if ctx.rank() == 0 {
            self.seen
                .lock()
                .unwrap()
                .entry(self.id)
                .or_default()
                .push(ctx.peers().to_vec());
        }
    }
}

/// A randomly generated plan shape with per-atom costs.
#[derive(Clone, Debug)]
enum Shape {
    Atom(u32),
    Seq(Vec<Shape>),
    Par(Vec<Shape>),
    Rep(usize, Box<Shape>),
}

impl Shape {
    fn atoms(&self) -> u64 {
        match self {
            Shape::Atom(_) => 1,
            Shape::Seq(xs) | Shape::Par(xs) => xs.iter().map(Shape::atoms).sum(),
            Shape::Rep(_, inner) => inner.atoms(),
        }
    }

    fn cost(&self) -> f64 {
        match self {
            Shape::Atom(c) => *c as f64,
            Shape::Seq(xs) | Shape::Par(xs) => xs.iter().map(Shape::cost).sum(),
            Shape::Rep(n, inner) => *n as f64 * inner.cost(),
        }
    }

    /// The input value this shape consumes (Unit everywhere; tuples at
    /// Par/Replicate fan-outs are fanned from Unit by the executor).
    fn build(&self, next_id: &mut u64, seen: &Observations) -> Plan {
        match self {
            Shape::Atom(c) => {
                let id = *next_id;
                *next_id += 1;
                Plan::atom(Probe {
                    id,
                    cost: *c as f64,
                    seen: Arc::clone(seen),
                })
            }
            Shape::Seq(xs) => Plan::seq(xs.iter().map(|x| x.build(next_id, seen)).collect()),
            Shape::Par(xs) => Plan::par(xs.iter().map(|x| x.build(next_id, seen)).collect()),
            Shape::Rep(n, inner) => Plan::replicate(*n, inner.build(next_id, seen)),
        }
    }

    /// Mirror of the executor's group arithmetic: compute the member
    /// sets every probe must have observed, given the group `members`
    /// executing this shape.
    fn expect(
        &self,
        members: &[usize],
        next_id: &mut u64,
        out: &mut HashMap<u64, Vec<Vec<usize>>>,
    ) {
        match self {
            Shape::Atom(_) => {
                let id = *next_id;
                *next_id += 1;
                out.entry(id).or_default().push(members.to_vec());
            }
            Shape::Seq(xs) => {
                for x in xs {
                    x.expect(members, next_id, out);
                }
            }
            Shape::Par(xs) => {
                let k = xs.len();
                if k > 1 && members.len() >= k {
                    let costs: Vec<f64> = xs.iter().map(Shape::cost).collect();
                    let sizes = allocate(&costs, members.len());
                    let mut start = 0;
                    for (x, &s) in xs.iter().zip(&sizes) {
                        x.expect(&members[start..start + s], next_id, out);
                        start += s;
                    }
                } else {
                    for x in xs {
                        x.expect(members, next_id, out);
                    }
                }
            }
            Shape::Rep(n, inner) => {
                let k = *n;
                let base = *next_id;
                let mut end = base;
                let run_copy =
                    |m: &[usize], out: &mut HashMap<u64, Vec<Vec<usize>>>, end: &mut u64| {
                        let mut id = base;
                        inner.expect(m, &mut id, out);
                        *end = id;
                    };
                if k > 1 && members.len() >= k {
                    let costs = vec![inner.cost(); k];
                    let sizes = allocate(&costs, members.len());
                    let mut start = 0;
                    for &s in &sizes {
                        run_copy(&members[start..start + s], out, &mut end);
                        start += s;
                    }
                } else {
                    for _ in 0..k {
                        run_copy(members, out, &mut end);
                    }
                }
                *next_id = end;
            }
        }
    }
}

/// Structural invariants, checked directly from the observations: at
/// every Par/Replicate executed in parallel, sibling member sets are
/// disjoint, cover the parent, and are never empty.
fn assert_section_invariants(
    shape: &Shape,
    members: &[usize],
    observed: &HashMap<u64, Vec<Vec<usize>>>,
    next_id: &mut u64,
) {
    match shape {
        Shape::Atom(_) => {
            let sets = &observed[&*next_id];
            assert!(sets.iter().all(|s| !s.is_empty()), "empty atom group");
            *next_id += 1;
        }
        Shape::Seq(xs) => {
            for x in xs {
                assert_section_invariants(x, members, observed, next_id);
            }
        }
        Shape::Par(xs) => {
            let k = xs.len();
            if k > 1 && members.len() >= k {
                let costs: Vec<f64> = xs.iter().map(Shape::cost).collect();
                let sizes = allocate(&costs, members.len());
                let mut start = 0;
                let mut union: Vec<usize> = Vec::new();
                for (x, &s) in xs.iter().zip(&sizes) {
                    let slice = &members[start..start + s];
                    assert!(!slice.is_empty(), "empty branch group");
                    assert!(
                        union.iter().all(|m| !slice.contains(m)),
                        "branch groups overlap"
                    );
                    union.extend_from_slice(slice);
                    assert_section_invariants(x, slice, observed, next_id);
                    start += s;
                }
                let mut u = union.clone();
                u.sort_unstable();
                assert_eq!(u, members, "branch groups must cover the parent");
            } else {
                for x in xs {
                    assert_section_invariants(x, members, observed, next_id);
                }
            }
        }
        Shape::Rep(_, inner) => {
            // Copies share probe ids; their member-set invariants are
            // covered by the exact mirror comparison. Just advance past
            // the body's (distinct) ids.
            *next_id += inner.atoms();
        }
    }
}

/// Recursive shape generator (the vendored proptest stub has no
/// `prop_recursive`, so the recursion is hand-rolled over the rng).
struct ShapeStrategy;

fn gen_shape(rng: &mut proptest::TestRng, depth: usize) -> Shape {
    let leaf = depth >= 3 || rng.next_u64().is_multiple_of(3);
    if leaf {
        return Shape::Atom(1 + (rng.next_u64() % 999) as u32);
    }
    match rng.next_u64() % 3 {
        0 => {
            let n = 1 + (rng.next_u64() % 3) as usize;
            // A Par/Rep stage produces a tuple, which only an Atom
            // (Value-typed probe) can consume — so interpose one after
            // every non-final section stage to keep random plans
            // type-consistent.
            let mut stages = Vec::new();
            for i in 0..n {
                let s = gen_shape(rng, depth + 1);
                let sectioned = !matches!(s, Shape::Atom(_));
                stages.push(s);
                if sectioned && i + 1 < n {
                    stages.push(Shape::Atom(1 + (rng.next_u64() % 999) as u32));
                }
            }
            Shape::Seq(stages)
        }
        1 => {
            let n = 1 + (rng.next_u64() % 3) as usize;
            Shape::Par((0..n).map(|_| gen_shape(rng, depth + 1)).collect())
        }
        _ => {
            let n = 1 + (rng.next_u64() % 3) as usize;
            Shape::Rep(n, Box::new(gen_shape(rng, depth + 1)))
        }
    }
}

impl Strategy for ShapeStrategy {
    type Value = Shape;
    fn sample(&self, rng: &mut proptest::TestRng) -> Shape {
        gen_shape(rng, 0)
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    ShapeStrategy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn executor_groups_are_disjoint_covering_and_cost_proportional(
        shape in shape_strategy(),
        p in 1usize..9,
    ) {
        let seen: Observations = Arc::new(Mutex::new(HashMap::new()));
        let plan = {
            let mut id = 0;
            shape.build(&mut id, &seen)
        };
        run_spmd(p, MachineModel::ibm_sp(), |ctx| {
            run_plan(ctx, &plan, Value::Unit).1
        });

        // Exact match against the mirrored allocation spec...
        let world: Vec<usize> = (0..p).collect();
        let mut expected = HashMap::new();
        shape.expect(&world, &mut 0, &mut expected);
        let mut observed = seen.lock().unwrap().clone();
        for sets in expected.values_mut().chain(observed.values_mut()) {
            sets.sort();
        }
        prop_assert_eq!(&observed, &expected);

        // ...plus the structural invariants asserted from observations.
        assert_section_invariants(&shape, &world, &observed, &mut 0);

        // Every atom instance ran exactly as many times as the plan says.
        let runs: usize = observed.values().map(Vec::len).sum();
        prop_assert_eq!(runs as u64, {
            let mut id = 0;
            let plan2 = shape.build(&mut id, &seen);
            plan2.atoms()
        });
    }
}
