//! The uniform job interface every archetype instance presents to the
//! plan algebra.
//!
//! An [`ArchetypeJob`] wraps one archetype run — `run_farm`,
//! `run_pipeline`, `run_spmd_recursive`, a mesh solver — behind typed
//! input/output ([`crate::ComposeData`]), a declared [`ArchetypeInfo`]
//! (whose grammar the composite trace check reuses), and a
//! machine-independent work estimate the model-driven allocator prices
//! branches with. The executor erases the types at plan edges
//! ([`crate::Value`]) and recovers them at each job boundary.

use std::sync::Mutex;

use archetype_core::{ArchetypeInfo, PhaseTrace};
use archetype_mp::Ctx;

use crate::value::{ComposeData, Value};

/// One archetype instance, runnable as an atom of a [`crate::Plan`].
///
/// The executor calls [`ArchetypeJob::run`] **collectively** on every
/// rank of the group the allocator assigned to this atom: the context is
/// already scoped to that group (so `ctx.rank()`/`ctx.nprocs()` describe
/// it, and the job's internal traffic — whatever tags it uses — is
/// isolated from concurrently running sibling atoms), and `input` has
/// been replicated to every member. The returned value is taken from the
/// group's rank 0; other ranks may return any placeholder (conventionally
/// `Default::default()`).
///
/// `trace` is `Some` only on the group's rank 0, and only when the plan
/// run was asked for its composite trace ([`crate::run_plan_traced`]);
/// jobs forward it to their skeleton's `*_traced` driver so the atom's
/// phase trace lands in the composite trace in plan order.
pub trait ArchetypeJob: Send + Sync {
    /// Typed stage input, recovered from the plan edge's [`Value`].
    type In: ComposeData;
    /// Typed stage output, erased back onto the plan edge.
    type Out: ComposeData;

    /// Job name for plan descriptions and diagnostics.
    fn name(&self) -> &'static str;

    /// The archetype this job instantiates; its grammar becomes this
    /// atom's slice of the derived composite grammar.
    fn info(&self) -> &'static ArchetypeInfo;

    /// Machine-independent estimate of the job's **total** work in
    /// flop-equivalents (as if run on one rank). The allocator prices it
    /// with the machine model at hand; because every branch is priced
    /// with the same model, the resulting rank shares — and therefore
    /// the plan's structural statistics — are model-invariant.
    ///
    /// Must be a pure function of the job's configuration and of what
    /// [`Value::fingerprint`] hashes of the input — its variant, lengths
    /// and scalar bits, never bulk contents. Estimates are memoized under
    /// that fingerprint (per atom, and in the plan service's cost cache),
    /// so an atom that is run again with the same input shape is not
    /// priced again; debug builds re-price every memo hit and assert the
    /// two agree.
    fn estimate_flops(&self, input: &Self::In) -> f64;

    /// Execute the archetype on the current (already scoped) group.
    fn run(&self, ctx: &mut Ctx, input: Self::In, trace: Option<&PhaseTrace>) -> Self::Out;

    /// Hash of the job's *configuration* — everything beyond its name
    /// that steers what it computes (problem sizes, policies, scale
    /// factors). Two atoms with equal `(name, fingerprint)` must be
    /// interchangeable, because the plan service's structure cache keys
    /// memoized grammars and cost estimates on it. The default (`0`) is
    /// safe only for jobs whose name fully determines their behaviour.
    fn fingerprint(&self) -> u64 {
        0
    }
}

/// Object-safe erased form of [`ArchetypeJob`], stored in plan atoms.
pub(crate) trait DynJob: Send + Sync {
    fn name(&self) -> &'static str;
    fn info(&self) -> &'static ArchetypeInfo;
    fn estimate_flops(&self, input: &Value) -> f64;
    fn try_estimate_flops(&self, input: &Value) -> Option<f64>;
    fn run(&self, ctx: &mut Ctx, input: Value, trace: Option<&PhaseTrace>) -> Value;
    fn fingerprint(&self) -> u64;
}

/// The adapter that erases a typed job, and the one place an atom's
/// price is remembered: `priced` holds the last `(input fingerprint,
/// flops)` pair. Plans share their atoms when cloned (`Arc<dyn DynJob>`),
/// so a plan kept in a pool and served again — or priced at admission and
/// then by its `Par` section — pays for an expensive estimate once. One
/// slot is enough: an atom sits at one place in its plan and sees one
/// input shape there; a different shape simply re-prices.
pub(crate) struct JobAdapter<J> {
    job: J,
    priced: Mutex<Option<(u64, f64)>>,
}

impl<J: ArchetypeJob> JobAdapter<J> {
    pub(crate) fn new(job: J) -> Self {
        JobAdapter {
            job,
            priced: Mutex::new(None),
        }
    }

    /// The slot is only ever copied out or overwritten under the lock,
    /// so no holder can panic and poison it.
    fn slot(&self) -> std::sync::MutexGuard<'_, Option<(u64, f64)>> {
        self.priced
            .lock()
            .expect("nothing panics under the price memo's lock")
    }

    fn price(&self, input: &Value) -> f64 {
        // Price by reference when the typed input can be borrowed out of
        // the value; only tuple-typed jobs pay a clone here.
        match J::In::peek(input) {
            Some(borrowed) => self.job.estimate_flops(borrowed),
            None => self.job.estimate_flops(&J::In::from_value(input.clone())),
        }
    }
}

impl<J: ArchetypeJob> DynJob for JobAdapter<J> {
    fn name(&self) -> &'static str {
        self.job.name()
    }

    fn info(&self) -> &'static ArchetypeInfo {
        self.job.info()
    }

    fn estimate_flops(&self, input: &Value) -> f64 {
        let key = input.fingerprint();
        // Copied out, so the lock is never held while the job prices: a
        // concurrent first pricing of a shared atom does the work twice
        // rather than queueing behind it.
        let remembered = *self.slot();
        match remembered {
            Some((k, flops)) if k == key => {
                debug_assert_eq!(
                    flops.to_bits(),
                    self.price(input).to_bits(),
                    "{}: estimate_flops depends on more than the input's fingerprint",
                    self.job.name()
                );
                flops
            }
            _ => {
                let flops = self.price(input);
                *self.slot() = Some((key, flops));
                flops
            }
        }
    }

    fn try_estimate_flops(&self, input: &Value) -> Option<f64> {
        J::In::accepts(input).then(|| self.estimate_flops(input))
    }

    fn run(&self, ctx: &mut Ctx, input: Value, trace: Option<&PhaseTrace>) -> Value {
        self.job
            .run(ctx, J::In::from_value(input), trace)
            .into_value()
    }

    fn fingerprint(&self) -> u64 {
        self.job.fingerprint()
    }
}

// The contract check only exists where `debug_assert!` does.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::plan::Plan;

    /// Breaks the pricing contract: reads bulk contents, which the
    /// fingerprint does not hash.
    struct PricesContents;

    impl ArchetypeJob for PricesContents {
        type In = Vec<f64>;
        type Out = ();

        fn name(&self) -> &'static str {
            "prices-contents"
        }

        fn info(&self) -> &'static ArchetypeInfo {
            &archetype_core::archetype::ONE_DEEP_DC
        }

        fn estimate_flops(&self, input: &Vec<f64>) -> f64 {
            input.iter().sum()
        }

        fn run(&self, _ctx: &mut Ctx, _input: Vec<f64>, _trace: Option<&PhaseTrace>) {}
    }

    #[test]
    #[should_panic(expected = "depends on more than the input's fingerprint")]
    fn a_debug_build_catches_an_estimate_that_reads_contents() {
        let plan = Plan::atom(PricesContents);
        plan.estimate_flops(&Value::F64s(vec![1.0, 2.0]));
        plan.estimate_flops(&Value::F64s(vec![1.0, 5.0]));
    }
}
