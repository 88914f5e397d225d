//! Execution plans.
//!
//! The rule rewriter (§5) compiles a query against a mediator program into
//! a set of **flat plans**: ordered sequences of steps in which every IDB
//! predicate has been unfolded into the domain calls and conditions of one
//! chosen access-path rule (or a fact table). Flatness is what lets the
//! executor pipeline answers and measure realistic time-to-first-answer.

use hermes_analysis::{fingerprint_body, SubplanKey};
use hermes_common::Value;
use hermes_lang::{BodyAtom, CallTemplate, Condition, PredAtom, Relop, Term};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// How a call step reaches its source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Straight to the (possibly remote) domain.
    Direct,
    /// Through the Cache and Invariant Manager first (§4.1).
    Cim,
}

/// One step of a flat plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanStep {
    /// Execute a domain call and iterate its answers into `target` (or
    /// test membership if `target` is ground at run time).
    Call {
        /// The answer variable or membership probe.
        target: Term,
        /// The call template; all argument variables are bound by earlier
        /// steps (guaranteed by the rewriter).
        call: CallTemplate,
        /// Whether the call goes through CIM.
        route: Route,
    },
    /// Evaluate a comparison: a filter when both sides are ground, an
    /// assignment when one side is an unbound bare variable and the
    /// operator is equality.
    Cond(Condition),
    /// Iterate the rows of a fact-defined predicate, unifying each row
    /// with `args`.
    Facts {
        /// The predicate name (for display).
        pred: Arc<str>,
        /// The argument terms the rows unify with.
        args: Vec<Term>,
        /// The ground rows.
        rows: Arc<Vec<Vec<Value>>>,
    },
}

impl PlanStep {
    /// True for [`PlanStep::Call`].
    pub fn is_call(&self) -> bool {
        matches!(self, PlanStep::Call { .. })
    }

    /// The step's terms, in one fixed order: a call's target, then its
    /// arguments; a condition's left base, then its right; a fact step's
    /// arguments.
    pub(crate) fn terms(&self) -> impl Iterator<Item = &Term> {
        let (first, rest) = match self {
            PlanStep::Call { target, call, .. } => (Some(target), &call.args[..]),
            PlanStep::Cond(c) => (Some(&c.lhs.base), std::slice::from_ref(&c.rhs.base)),
            PlanStep::Facts { args, .. } => (None, &args[..]),
        };
        first.into_iter().chain(rest)
    }
}

impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStep::Call {
                target,
                call,
                route,
            } => {
                let prefix = match route {
                    Route::Direct => "",
                    Route::Cim => "CIM·",
                };
                write!(f, "in({target}, {prefix}{call})")
            }
            PlanStep::Cond(c) => write!(f, "{c}"),
            PlanStep::Facts { pred, args, rows } => {
                write!(f, "facts {pred}/{} ({} rows)", args.len(), rows.len())
            }
        }
    }
}

/// A flat, fully-unfolded execution plan.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Plan {
    /// The steps, in execution order.
    pub steps: Vec<PlanStep>,
    /// The variables whose bindings form an answer, in output order: one
    /// list per query, shared by every plan of it and by its result.
    pub answer_vars: Arc<[Arc<str>]>,
}

impl Plan {
    /// The plan's variables in slot order: the answer variables in
    /// answer order, then the others in order of first appearance, the
    /// numbering the executor binds them by (DESIGN §12).
    pub(crate) fn variables(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.answer_vars.iter().map(|v| v.as_ref()).collect();
        for v in self
            .steps
            .iter()
            .flat_map(PlanStep::terms)
            .filter_map(Term::as_var)
        {
            if !names.contains(&v.as_ref()) {
                names.push(v);
            }
        }
        names
    }

    /// Number of call steps.
    pub fn call_count(&self) -> usize {
        self.steps.iter().filter(|s| s.is_call()).count()
    }

    /// True when no call step bypasses the CIM ([`Route::Direct`]). Only
    /// such a plan can be served whole by the `CacheOnly` tier, and only
    /// such a plan reads every source through a cache that an
    /// invalidation reaches, which a materialized copy of its answers
    /// needs ([`crate::matcache`]).
    pub(crate) fn routes_calls_through_cim(&self) -> bool {
        !self.steps.iter().any(|step| {
            matches!(
                step,
                PlanStep::Call {
                    route: Route::Direct,
                    ..
                }
            )
        })
    }

    /// The plan's steps as a body conjunction. Routing is erased — whether
    /// a call goes through the CIM is an execution choice, not part of the
    /// subplan's identity — and fact steps reappear as predicate atoms.
    pub fn body_atoms(&self) -> Vec<BodyAtom> {
        self.steps
            .iter()
            .map(|step| match step {
                PlanStep::Call { target, call, .. } => BodyAtom::In {
                    target: target.clone(),
                    call: call.clone(),
                },
                PlanStep::Cond(c) => BodyAtom::Cond(c.clone()),
                PlanStep::Facts { pred, args, .. } => {
                    BodyAtom::Pred(PredAtom::new(pred.clone(), args.clone()))
                }
            })
            .collect()
    }

    /// The plan's canonical subplan fingerprint (see
    /// [`hermes_analysis::fingerprint`]): stable across variable renaming
    /// and reordering of independent steps, so equivalent plans — and the
    /// analyzer's `HA070` inventory — share one cache key. Flat plans are
    /// fully bound at entry (the rewriter substitutes query constants), so
    /// the entry-binding set is empty.
    pub fn fingerprint(&self) -> SubplanKey {
        fingerprint_body(&self.body_atoms(), &BTreeSet::new())
    }
}

/// Computes the plan's *independence groups*: maximal runs of consecutive
/// [`PlanStep::Call`] steps whose members share no unbound variables, so
/// the executor may dispatch all of their domain calls concurrently and
/// the cost model may charge the group's overlap makespan instead of the
/// sequential sum.
///
/// A run of calls starting after bindings `θ` qualifies when every member
/// satisfies, with respect to the variables bound *before the run*:
///
/// * every call argument is ground at group entry — a constant or an
///   already-bound variable (never a sibling's answer variable);
/// * the target either probes an already-bound value, or binds a fresh
///   variable distinct from every other member's target.
///
/// Only groups of two or more calls are returned (a singleton "group" is
/// just sequential execution). Indices are positions in `steps`.
pub fn independence_groups(steps: &[PlanStep]) -> Vec<Range<usize>> {
    let mut bound: BTreeSet<Arc<str>> = BTreeSet::new();
    let mut groups = Vec::new();
    let mut i = 0;
    while i < steps.len() {
        if steps[i].is_call() {
            let end = group_end(steps, i, &bound);
            if end - i >= 2 {
                groups.push(i..end);
            }
            for step in &steps[i..end] {
                bind_step(step, &mut bound);
            }
            i = end;
        } else {
            bind_step(&steps[i], &mut bound);
            i += 1;
        }
    }
    groups
}

/// The exclusive end of the longest independent run of calls starting at
/// `start` (at least `start + 1`: a call is trivially independent alone).
fn group_end(steps: &[PlanStep], start: usize, bound: &BTreeSet<Arc<str>>) -> usize {
    // Fresh variables bound by members admitted so far; sibling targets
    // must stay pairwise distinct.
    let mut fresh: BTreeSet<Arc<str>> = BTreeSet::new();
    let mut j = start;
    while j < steps.len() {
        let PlanStep::Call { target, call, .. } = &steps[j] else {
            break;
        };
        let args_ground = call.args.iter().all(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        });
        if !args_ground && j > start {
            break;
        }
        if let Term::Var(v) = target {
            if !bound.contains(v) && !fresh.insert(v.clone()) {
                break;
            }
        }
        j += 1;
    }
    j.max(start + 1)
}

/// Adds the variables `step` binds to `bound` (mirrors the §7 executor's
/// left-to-right binding discipline).
fn bind_step(step: &PlanStep, bound: &mut BTreeSet<Arc<str>>) {
    match step {
        PlanStep::Call { target, .. } => {
            if let Term::Var(v) = target {
                bound.insert(v.clone());
            }
        }
        PlanStep::Facts { args, .. } => {
            for t in args {
                if let Term::Var(v) = t {
                    bound.insert(v.clone());
                }
            }
        }
        PlanStep::Cond(c) => {
            // An equality with an unbound bare-variable side assigns it.
            if c.op == Relop::Eq {
                for pt in [&c.lhs, &c.rhs] {
                    if pt.path.is_empty() {
                        if let Some(v) = pt.var_name() {
                            bound.insert(v.clone());
                        }
                    }
                }
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PLAN[")?;
        for (i, v) in self.answer_vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        writeln!(f, "]")?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {i}: {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::{PathTerm, Relop};

    #[test]
    fn display_is_readable() {
        let plan = Plan {
            steps: vec![
                PlanStep::Call {
                    target: Term::var("B"),
                    call: CallTemplate::new("d1", "p_bf", vec![Term::constant("a")]),
                    route: Route::Cim,
                },
                PlanStep::Cond(Condition::new(
                    Relop::Gt,
                    PathTerm::bare(Term::var("B")),
                    PathTerm::bare(Term::constant(3)),
                )),
                PlanStep::Facts {
                    pred: Arc::from("edge"),
                    args: vec![Term::var("B"), Term::var("C")],
                    rows: Arc::new(vec![vec![Value::Int(1), Value::Int(2)]]),
                },
            ],
            answer_vars: [Arc::from("B"), Arc::from("C")].into(),
        };
        let text = plan.to_string();
        assert!(text.contains("PLAN[B, C]"));
        assert!(text.contains("CIM·d1:p_bf('a')"));
        assert!(text.contains(">(B, 3)"));
        assert!(text.contains("facts edge/2 (1 rows)"));
        assert_eq!(plan.call_count(), 1);
    }
}
