//! The dynamic value that flows between plan stages, and the typed
//! conversions jobs use at their boundaries.
//!
//! A [`crate::Plan`] is a heterogeneous DAG: a sort stage produces
//! `Vec<i64>`, a solver produces a field of `f64`, a `Par` node produces
//! one output per branch. [`Value`] is the closed union the executor
//! moves between stages — it implements the substrate's
//! [`Payload`], so inter-stage handoffs are priced by the machine model
//! like any other message — while [`ComposeData`] recovers static types
//! at every [`crate::ArchetypeJob`] boundary, so jobs themselves stay
//! fully typed.

use archetype_mp::Payload;

use crate::exec::mix;

/// A dynamically typed plan value: what flows along the edges of a
/// composed plan.
///
/// ```
/// use archetype_compose::Value;
/// use archetype_mp::Payload;
///
/// let v = Value::Tuple(vec![Value::F64s(vec![1.0, 2.0]), Value::Unit]);
/// assert_eq!(v.size_bytes(), 8 + (8 + 16) + 0); // tuple header + parts
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// No data (the input of a self-contained stage).
    Unit,
    /// A scalar count or index.
    U64(u64),
    /// A scalar measurement.
    F64(f64),
    /// A list of integers (e.g. sorted keys).
    I64s(Vec<i64>),
    /// A list of floats (e.g. scores, field samples).
    F64s(Vec<f64>),
    /// One value per member — the shape `Par`/`Replicate` nodes consume
    /// (one element per branch) and produce (one element per branch).
    Tuple(Vec<Value>),
}

impl Value {
    /// Short shape description for wiring-error diagnostics.
    pub fn shape(&self) -> String {
        match self {
            Value::Unit => "Unit".into(),
            Value::U64(_) => "U64".into(),
            Value::F64(_) => "F64".into(),
            Value::I64s(v) => format!("I64s[{}]", v.len()),
            Value::F64s(v) => format!("F64s[{}]", v.len()),
            Value::Tuple(vs) => format!(
                "Tuple({})",
                vs.iter().map(Value::shape).collect::<Vec<_>>().join(", ")
            ),
        }
    }

    /// Hash of the value's *pricing-relevant* identity: variant tags,
    /// lengths, and scalar bits — not bulk contents. It keys every
    /// memoized cost estimate (the plan service's cost cache, and the
    /// per-atom price memo), which is why
    /// [`crate::ArchetypeJob::estimate_flops`] may look at nothing else.
    /// A collision only reuses an estimate (a scheduling hint); it never
    /// affects results.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Value::Unit => 1,
            Value::U64(x) => mix(2, *x),
            Value::F64(x) => mix(3, x.to_bits()),
            Value::I64s(xs) => mix(4, xs.len() as u64),
            Value::F64s(xs) => mix(5, xs.len() as u64),
            Value::Tuple(parts) => parts
                .iter()
                .fold(mix(6, parts.len() as u64), |h, p| mix(h, p.fingerprint())),
        }
    }
}

impl Payload for Value {
    fn size_bytes(&self) -> usize {
        match self {
            Value::Unit => 0,
            Value::U64(_) | Value::F64(_) => 8,
            Value::I64s(v) => 8 + v.len() * 8,
            Value::F64s(v) => 8 + v.len() * 8,
            Value::Tuple(vs) => 8 + vs.iter().map(Value::size_bytes).sum::<usize>(),
        }
    }
}

#[cold]
fn wiring_bug(expected: &str, got: &Value) -> ! {
    panic!(
        "plan wiring bug: a stage expected {expected} but received {}",
        got.shape()
    )
}

/// Conversion between a job's static input/output types and the dynamic
/// [`Value`] moving between stages.
///
/// `from_value` panics (with the offending shape) on a mismatch — that is
/// a plan wiring bug, exactly like a tag-matched message of the wrong
/// type in the substrate.
pub trait ComposeData: Send + Sized + 'static {
    /// Wrap this value for the plan edge.
    fn into_value(self) -> Value;
    /// Recover the static type at a job boundary.
    fn from_value(v: Value) -> Self;
    /// Borrow the static type out of a value without copying, where the
    /// representations coincide — used on the cost-estimation path so
    /// pricing a branch never deep-copies its (possibly large) input.
    /// Types without a borrowed form (tuples) return `None` and fall
    /// back to a clone.
    fn peek(_v: &Value) -> Option<&Self> {
        None
    }
    /// True if `from_value(v.clone())` would succeed — the shape check
    /// lenient pricing ([`crate::Plan::estimate_flops_lenient`]) uses to
    /// skip stages whose inputs only exist at run time.
    fn accepts(v: &Value) -> bool;
}

impl ComposeData for () {
    fn into_value(self) -> Value {
        Value::Unit
    }
    fn from_value(v: Value) -> Self {
        match v {
            Value::Unit => (),
            other => wiring_bug("Unit", &other),
        }
    }
    fn peek(v: &Value) -> Option<&Self> {
        matches!(v, Value::Unit).then_some(&())
    }
    fn accepts(v: &Value) -> bool {
        matches!(v, Value::Unit)
    }
}

impl ComposeData for u64 {
    fn into_value(self) -> Value {
        Value::U64(self)
    }
    fn from_value(v: Value) -> Self {
        match v {
            Value::U64(x) => x,
            other => wiring_bug("U64", &other),
        }
    }
    fn peek(v: &Value) -> Option<&Self> {
        match v {
            Value::U64(x) => Some(x),
            _ => None,
        }
    }
    fn accepts(v: &Value) -> bool {
        matches!(v, Value::U64(_))
    }
}

impl ComposeData for f64 {
    fn into_value(self) -> Value {
        Value::F64(self)
    }
    fn from_value(v: Value) -> Self {
        match v {
            Value::F64(x) => x,
            other => wiring_bug("F64", &other),
        }
    }
    fn peek(v: &Value) -> Option<&Self> {
        match v {
            Value::F64(x) => Some(x),
            _ => None,
        }
    }
    fn accepts(v: &Value) -> bool {
        matches!(v, Value::F64(_))
    }
}

impl ComposeData for Vec<i64> {
    fn into_value(self) -> Value {
        Value::I64s(self)
    }
    fn from_value(v: Value) -> Self {
        match v {
            Value::I64s(x) => x,
            other => wiring_bug("I64s", &other),
        }
    }
    fn peek(v: &Value) -> Option<&Self> {
        match v {
            Value::I64s(x) => Some(x),
            _ => None,
        }
    }
    fn accepts(v: &Value) -> bool {
        matches!(v, Value::I64s(_))
    }
}

impl ComposeData for Vec<f64> {
    fn into_value(self) -> Value {
        Value::F64s(self)
    }
    fn from_value(v: Value) -> Self {
        match v {
            Value::F64s(x) => x,
            other => wiring_bug("F64s", &other),
        }
    }
    fn peek(v: &Value) -> Option<&Self> {
        match v {
            Value::F64s(x) => Some(x),
            _ => None,
        }
    }
    fn accepts(v: &Value) -> bool {
        matches!(v, Value::F64s(_))
    }
}

/// The identity conversion: a job that wants to handle the dynamic value
/// itself (e.g. a fan-in over a variable number of branches).
impl ComposeData for Value {
    fn into_value(self) -> Value {
        self
    }
    fn from_value(v: Value) -> Self {
        v
    }
    fn peek(v: &Value) -> Option<&Self> {
        Some(v)
    }
    fn accepts(_v: &Value) -> bool {
        true
    }
}

impl<A: ComposeData, B: ComposeData> ComposeData for (A, B) {
    fn into_value(self) -> Value {
        Value::Tuple(vec![self.0.into_value(), self.1.into_value()])
    }
    fn from_value(v: Value) -> Self {
        match v {
            Value::Tuple(vs) if vs.len() == 2 => {
                let mut it = vs.into_iter();
                (
                    A::from_value(it.next().expect("len 2")),
                    B::from_value(it.next().expect("len 2")),
                )
            }
            other => wiring_bug("Tuple(_, _)", &other),
        }
    }
    fn accepts(v: &Value) -> bool {
        matches!(v, Value::Tuple(vs) if vs.len() == 2 && A::accepts(&vs[0]) && B::accepts(&vs[1]))
    }
}

impl<A: ComposeData, B: ComposeData, C: ComposeData> ComposeData for (A, B, C) {
    fn into_value(self) -> Value {
        Value::Tuple(vec![
            self.0.into_value(),
            self.1.into_value(),
            self.2.into_value(),
        ])
    }
    fn from_value(v: Value) -> Self {
        match v {
            Value::Tuple(vs) if vs.len() == 3 => {
                let mut it = vs.into_iter();
                (
                    A::from_value(it.next().expect("len 3")),
                    B::from_value(it.next().expect("len 3")),
                    C::from_value(it.next().expect("len 3")),
                )
            }
            other => wiring_bug("Tuple(_, _, _)", &other),
        }
    }
    fn accepts(v: &Value) -> bool {
        matches!(v, Value::Tuple(vs)
            if vs.len() == 3 && A::accepts(&vs[0]) && B::accepts(&vs[1]) && C::accepts(&vs[2]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_preserve_values() {
        assert_eq!(<()>::from_value(().into_value()), ());
        assert_eq!(u64::from_value(7u64.into_value()), 7);
        assert_eq!(
            Vec::<i64>::from_value(vec![3i64, 1].into_value()),
            vec![3, 1]
        );
        let pair = (vec![1.0f64], vec![2i64]);
        assert_eq!(
            <(Vec<f64>, Vec<i64>)>::from_value(pair.clone().into_value()),
            pair
        );
    }

    #[test]
    fn sizes_add_up() {
        assert_eq!(Value::Unit.size_bytes(), 0);
        assert_eq!(Value::U64(1).size_bytes(), 8);
        assert_eq!(Value::I64s(vec![1, 2, 3]).size_bytes(), 32);
        assert_eq!(
            Value::Tuple(vec![Value::Unit, Value::F64(0.0)]).size_bytes(),
            16
        );
    }

    #[test]
    #[should_panic(expected = "plan wiring bug")]
    fn shape_mismatch_panics_with_diagnostic() {
        Vec::<i64>::from_value(Value::F64s(vec![1.0]));
    }
}
