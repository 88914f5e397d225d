//! Substitutions: partial maps from variables to ground values.
//!
//! Substitutions drive everything at run time — instantiating domain-call
//! templates into [`GroundCall`]s, checking invariant conditions, and
//! matching cached calls against invariant call templates (which *extends*
//! a substitution, the θ of §4.1).

use crate::ast::{CallTemplate, Condition, PathTerm, Term};
use hermes_common::{GroundCall, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A partial assignment of ground values to variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Arc<str>, Value>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Builds from `(name, value)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<Arc<str>>,
    {
        Subst {
            map: pairs.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Value bound to `var`, if any.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.map.get(var)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates bindings in variable-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &Value)> {
        self.map.iter()
    }

    /// Resolves a term to a ground value, if possible.
    pub fn term(&self, t: &Term) -> Option<Value> {
        match t {
            Term::Const(v) => Some(v.clone()),
            Term::Var(x) => self.map.get(x.as_ref()).cloned(),
        }
    }

    /// Resolves a path term: the base must be ground, then the attribute
    /// path must resolve inside it.
    pub fn path_term(&self, pt: &PathTerm) -> Option<Value> {
        let base = self.term(&pt.base)?;
        if pt.path.is_empty() {
            return Some(base);
        }
        pt.path.resolve(&base).cloned()
    }

    /// Evaluates a condition. Returns `None` when an operand is not ground
    /// (distinguishing "unknown" from "false").
    pub fn eval_condition(&self, c: &Condition) -> Option<bool> {
        let l = self.path_term(&c.lhs)?;
        let r = self.path_term(&c.rhs)?;
        Some(c.op.eval(&l, &r))
    }

    /// Instantiates a call template into a ground call. `None` if any
    /// argument variable is unbound.
    pub fn ground_call(&self, t: &CallTemplate) -> Option<GroundCall> {
        let args = t
            .args
            .iter()
            .map(|a| self.term(a))
            .collect::<Option<Vec<_>>>()?;
        Some(GroundCall::new(t.domain.clone(), t.function.clone(), args))
    }

    /// Matches a call template against a ground call, extending `self` with
    /// any new variable bindings. Returns the extended substitution on
    /// success; `None` on clash (different domain/function/arity, a constant
    /// mismatch, or a variable already bound to a different value).
    ///
    /// This is the unification step of the §4.1 invariant algorithm: unify
    /// the concrete call with `DomainCall1`, then (separately, against cache
    /// entries) with `DomainCall2`.
    pub fn match_call(&self, template: &CallTemplate, call: &GroundCall) -> Option<Subst> {
        if template.domain != call.domain
            || template.function != call.function
            || template.args.len() != call.args.len()
        {
            return None;
        }
        let mut out = self.clone();
        for (t, v) in template.args.iter().zip(call.args.iter()) {
            match t {
                Term::Const(c) => {
                    if c != v {
                        return None;
                    }
                }
                Term::Var(x) => match out.map.get(x.as_ref()) {
                    Some(existing) if existing != v => return None,
                    Some(_) => {}
                    None => {
                        out.map.insert(x.clone(), v.clone());
                    }
                },
            }
        }
        Some(out)
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} -> {}", v.to_literal())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Relop;
    use hermes_common::{AttrPath, Record};

    #[test]
    fn term_resolution() {
        let s = Subst::from_pairs([("X", Value::Int(5))]);
        assert_eq!(s.term(&Term::var("X")), Some(Value::Int(5)));
        assert_eq!(s.term(&Term::var("Y")), None);
        assert_eq!(s.term(&Term::constant(3)), Some(Value::Int(3)));
    }

    #[test]
    fn path_term_resolution() {
        let rec = Value::Record(Record::from_fields([("loc", Value::str("pax river"))]));
        let s = Subst::from_pairs([("Tuple", rec)]);
        let pt = PathTerm::with_path(Term::var("Tuple"), AttrPath::parse("loc"));
        assert_eq!(s.path_term(&pt), Some(Value::str("pax river")));
        let bad = PathTerm::with_path(Term::var("Tuple"), AttrPath::parse("missing"));
        assert_eq!(s.path_term(&bad), None);
    }

    #[test]
    fn condition_eval_three_valued() {
        let s = Subst::from_pairs([("X", Value::Int(5))]);
        let c_true = Condition::new(
            Relop::Gt,
            PathTerm::bare(Term::var("X")),
            PathTerm::bare(Term::constant(3)),
        );
        let c_false = Condition::new(
            Relop::Lt,
            PathTerm::bare(Term::var("X")),
            PathTerm::bare(Term::constant(3)),
        );
        let c_unknown = Condition::new(
            Relop::Lt,
            PathTerm::bare(Term::var("Y")),
            PathTerm::bare(Term::constant(3)),
        );
        assert_eq!(s.eval_condition(&c_true), Some(true));
        assert_eq!(s.eval_condition(&c_false), Some(false));
        assert_eq!(s.eval_condition(&c_unknown), None);
    }

    #[test]
    fn ground_call_instantiation() {
        let s = Subst::from_pairs([("B", Value::str("rupert"))]);
        let t = CallTemplate::new("d2", "q_bf", vec![Term::var("B")]);
        let g = s.ground_call(&t).unwrap();
        assert_eq!(g.to_string(), "d2:q_bf('rupert')");
        let t2 = CallTemplate::new("d2", "q_bf", vec![Term::var("Z")]);
        assert!(s.ground_call(&t2).is_none());
    }

    #[test]
    fn match_call_binds_new_vars() {
        let t = CallTemplate::new(
            "spatial",
            "range",
            vec![
                Term::constant("points"),
                Term::var("X"),
                Term::var("Y"),
                Term::var("Dist"),
            ],
        );
        let g = GroundCall::new(
            "spatial",
            "range",
            vec![
                Value::str("points"),
                Value::Int(10),
                Value::Int(20),
                Value::Int(200),
            ],
        );
        let s = Subst::new().match_call(&t, &g).unwrap();
        assert_eq!(s.get("Dist"), Some(&Value::Int(200)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn match_call_respects_existing_bindings() {
        let t = CallTemplate::new("d", "f", vec![Term::var("X"), Term::var("X")]);
        let same = GroundCall::new("d", "f", vec![Value::Int(1), Value::Int(1)]);
        let diff = GroundCall::new("d", "f", vec![Value::Int(1), Value::Int(2)]);
        assert!(Subst::new().match_call(&t, &same).is_some());
        assert!(Subst::new().match_call(&t, &diff).is_none());
    }

    #[test]
    fn match_call_rejects_mismatches() {
        let t = CallTemplate::new("d", "f", vec![Term::constant(1)]);
        assert!(Subst::new()
            .match_call(&t, &GroundCall::new("d", "f", vec![Value::Int(2)]))
            .is_none());
        assert!(Subst::new()
            .match_call(&t, &GroundCall::new("e", "f", vec![Value::Int(1)]))
            .is_none());
        assert!(Subst::new()
            .match_call(&t, &GroundCall::new("d", "g", vec![Value::Int(1)]))
            .is_none());
        assert!(Subst::new()
            .match_call(
                &t,
                &GroundCall::new("d", "f", vec![Value::Int(1), Value::Int(2)])
            )
            .is_none());
    }

    #[test]
    fn display_is_sorted() {
        let s = Subst::from_pairs([("B", Value::Int(2)), ("A", Value::Int(1))]);
        assert_eq!(s.to_string(), "{A -> 1, B -> 2}");
    }
}
