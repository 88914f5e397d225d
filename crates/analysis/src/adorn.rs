//! Pass 2 — adornment feasibility.
//!
//! Reuses the shared groundability fixpoint from `hermes-lang` (the single
//! implementation of the paper's §3 ground-call requirement) to certify, per
//! rule, that *some* binding-pattern-compatible subgoal ordering exists:
//!
//! * **HA005** a variable the body requires can never become ground;
//! * **HA006** a head variable missing from the body (range restriction);
//! * **HA007** a non-ground fact;
//! * **HA010** for each *declared* query adornment (e.g. `route(b, f)`), no
//!   rule admits an executable ordering when only the `b` positions are
//!   bound — with a precise "variable X can never be ground under adornment
//!   bf" explanation instead of a generic plan error;
//! * **HA050** a declared adornment serializes a rule's domain calls that a
//!   more-bound adornment could dispatch concurrently.

use crate::diagnostic::{DiagCode, Diagnostic, Locus};
use hermes_lang::QueryForm;
use hermes_lang::{groundability, BodyAtom, Program, Rule, StuckAtom};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Runs the pass.
pub(crate) fn run(program: &Program, query_forms: &[QueryForm], out: &mut Vec<Diagnostic>) {
    for (index, rule) in program.rules.iter().enumerate() {
        check_rule(index, rule, out);
    }
    for form in query_forms {
        check_form(program, form, out);
        check_parallelism(program, form, out);
    }
}

/// Per-rule groundability, seeded with every head variable (sideways
/// information passing may bind any of them).
fn check_rule(index: usize, rule: &Rule, out: &mut Vec<Diagnostic>) {
    let locus = || Locus::Rule {
        index,
        head: rule.head.to_string(),
    };

    if rule.body.is_empty() {
        if !rule.head.variables().is_empty() {
            out.push(
                Diagnostic::new(
                    DiagCode::NonGroundFact,
                    locus(),
                    "fact contains variables; facts must be ground",
                )
                .with_suggestion("replace the variables with constants"),
            );
        }
        return;
    }

    let report = groundability(rule.head.variables(), &rule.body);
    for stuck in &report.stuck {
        let vars: Vec<String> = stuck.missing.iter().map(|v| format!("`{v}`")).collect();
        out.push(
            Diagnostic::new(
                DiagCode::UngroundableVariable,
                locus(),
                format!(
                    "subgoal #{} `{}` can never run: it requires {} to be \
                     ground, but no subgoal order binds {}",
                    stuck.index + 1,
                    stuck.atom,
                    vars.join(", "),
                    if vars.len() == 1 { "it" } else { "them" },
                ),
            )
            .with_suggestion(format!(
                "bind {} via an `in(...)` answer target, a `=` assignment, \
                 or another predicate subgoal",
                vars.join(", ")
            )),
        );
    }

    let body_vars: BTreeSet<Arc<str>> = rule.body.iter().flat_map(|a| a.variables()).collect();
    for v in rule.head.variables() {
        if !body_vars.contains(&v) {
            out.push(
                Diagnostic::new(
                    DiagCode::HeadVarNotInBody,
                    locus(),
                    format!("head variable `{v}` does not occur in the body"),
                )
                .with_suggestion(format!(
                    "add a subgoal that produces `{v}` or drop it from the \
                     head"
                )),
            );
        }
    }
}

/// HA010: at least one rule for the form's predicate must admit an
/// executable ordering when exactly the `b`-adorned head positions are
/// bound, and the ordering must ground every head variable (the `f`
/// positions are answers the caller expects).
fn check_form(program: &Program, form: &QueryForm, out: &mut Vec<Diagnostic>) {
    let locus = Locus::QueryForm {
        text: form.to_string(),
    };
    let rules = program.rules_for(&form.pred, form.bound.len());
    if rules.is_empty() {
        out.push(Diagnostic::new(
            DiagCode::UndefinedPredicate,
            locus,
            format!(
                "declared query form references `{}/{}`, which no rule \
                 defines",
                form.pred,
                form.bound.len()
            ),
        ));
        return;
    }

    let Some(blockers) = rule_blockers(&rules, |i| form.bound[i]) else {
        return;
    };
    let adornment = form.adornment();
    let reasons: Vec<String> = blockers
        .iter()
        .map(|(rule, blocker)| match blocker {
            Blocker::Stuck(stuck) => format!(
                "in rule `{}`, variable {} can never be ground under \
                 adornment `{adornment}` (subgoal `{}` requires it)",
                rule.head,
                quoted(&stuck.missing),
                stuck.atom,
            ),
            Blocker::Unbound(vars) => format!(
                "in rule `{}`, head variable {} is never bound by the body \
                 under adornment `{adornment}`",
                rule.head,
                quoted(vars),
            ),
        })
        .collect();

    out.push(
        Diagnostic::new(
            DiagCode::InfeasibleAdornment,
            locus,
            format!(
                "no rule admits an executable subgoal ordering: {}",
                reasons.join("; ")
            ),
        )
        .with_suggestion(format!(
            "bind more arguments in the query (adornment `{adornment}` leaves \
             the `f` positions free) or add a rule that produces them"
        )),
    );
}

/// Why a rule cannot answer a call (see [`rule_blockers`]).
pub(crate) enum Blocker {
    /// The rule's first subgoal that can never run.
    Stuck(StuckAtom),
    /// Head variables the body never binds.
    Unbound(Vec<Arc<str>>),
}

/// Why no rule of `rules` (one predicate's) answers a call that binds the
/// head positions `bound` accepts: each rule's [`Blocker`], in rule order,
/// or `None` when some rule admits an executable ordering that grounds
/// its head — or is a fact, which answers any call. HA010 and the
/// rewriter's infeasibility explanation both judge rules here.
pub(crate) fn rule_blockers<'r>(
    rules: &[&'r Rule],
    bound: impl Fn(usize) -> bool,
) -> Option<Vec<(&'r Rule, Blocker)>> {
    let mut blockers = Vec::new();
    for &rule in rules {
        if rule.body.is_empty() {
            return None;
        }
        let report = groundability(bound_head_vars(rule, &bound), &rule.body);
        let blocker = match report.stuck.into_iter().next() {
            Some(stuck) => Blocker::Stuck(stuck),
            None => {
                let mut unbound = rule.head.variables();
                unbound.retain(|v| !report.groundable.contains(v));
                if unbound.is_empty() {
                    return None;
                }
                Blocker::Unbound(unbound.into_iter().collect())
            }
        };
        blockers.push((rule, blocker));
    }
    Some(blockers)
}

/// The variables at the head positions `bound` accepts.
fn bound_head_vars(rule: &Rule, bound: impl Fn(usize) -> bool) -> BTreeSet<Arc<str>> {
    let args = rule.head.args.iter().enumerate();
    args.filter(|&(i, _)| bound(i))
        .filter_map(|(_, arg)| arg.as_var().cloned())
        .collect()
}

/// `vars` as a list of code spans: "`A`, `B`".
pub(crate) fn quoted(vars: &[Arc<str>]) -> String {
    let vars: Vec<String> = vars.iter().map(|v| format!("`{v}`")).collect();
    vars.join(", ")
}

/// HA050: the parallel scheduler overlaps only domain calls that are ground
/// at the *same* point in the plan, so a rule benefits exactly when two or
/// more `in(...)` calls are dispatchable from the entry bindings. For each
/// feasible rule with at least two calls, count the calls whose arguments
/// the declared `b` positions already ground; if fewer than two are ready
/// but binding every *caller-suppliable* head position would ready two or
/// more, the declared adornment is leaving overlap on the table — warn.
///
/// A head position is caller-suppliable unless the body derives it from the
/// calls themselves (directly as a call target, or via `=` projections of
/// one): a pipelined join like `in(O, v:objs(F)) & in(A, r:cast(O))`
/// serializes on `O` *inherently* — `O` is an answer the query exists to
/// compute, so no realistic adornment pre-binds it, and we stay quiet.
fn check_parallelism(program: &Program, form: &QueryForm, out: &mut Vec<Diagnostic>) {
    let rules = program.rules_for(&form.pred, form.bound.len());
    for rule in &rules {
        let calls: Vec<&BodyAtom> = rule
            .body
            .iter()
            .filter(|a| matches!(a, BodyAtom::In { .. }))
            .collect();
        if calls.len() < 2 {
            continue;
        }
        let declared_seed = bound_head_vars(rule, |i| form.bound[i]);
        // Only feasible rules are interesting; infeasible ones already get
        // HA010 and have no ordering to serialize.
        if !groundability(declared_seed.clone(), &rule.body).is_executable() {
            continue;
        }
        let ready = |seed: &BTreeSet<Arc<str>>| {
            calls
                .iter()
                .filter(|a| a.requires().is_subset(seed))
                .count()
        };
        let declared_ready = ready(&declared_seed);
        if declared_ready >= 2 {
            continue;
        }
        // Everything the calls + conditions alone derive from the declared
        // bindings is an answer; what remains must flow in from elsewhere
        // (IDB predicates) and is fair game for the caller to bind instead.
        let non_pred: Vec<BodyAtom> = rule
            .body
            .iter()
            .filter(|a| !matches!(a, BodyAtom::Pred(_)))
            .cloned()
            .collect();
        let derived = groundability(declared_seed.clone(), &non_pred).groundable;
        let mut widened: BTreeSet<Arc<str>> = rule
            .head
            .variables()
            .into_iter()
            .filter(|v| !derived.contains(v))
            .collect();
        widened.extend(declared_seed.iter().cloned());
        let widened_ready = ready(&widened);
        if widened_ready >= 2 {
            out.push(
                Diagnostic::new(
                    DiagCode::SerializedParallelizable,
                    Locus::QueryForm {
                        text: form.to_string(),
                    },
                    format!(
                        "under adornment `{}`, rule `{}` can dispatch only \
                         {} of its {} domain calls at entry, so they run \
                         serially; binding every non-answer argument would \
                         let {} overlap",
                        form.adornment(),
                        rule.head,
                        declared_ready,
                        calls.len(),
                        widened_ready,
                    ),
                )
                .with_suggestion(
                    "bind more arguments in the query (or split the rule) so \
                     at least two `in(...)` calls are ground at entry and the \
                     scheduler can overlap them",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::parse_program;

    fn diags(src: &str, forms: &[QueryForm]) -> Vec<Diagnostic> {
        let p = parse_program(src).unwrap();
        let mut out = Vec::new();
        run(&p, forms, &mut out);
        out
    }

    #[test]
    fn ha005_names_the_blocking_subgoal_and_variable() {
        let out = diags("p(A) :- in(A, d:f(Z)).", &[]);
        let d = out
            .iter()
            .find(|d| d.code == DiagCode::UngroundableVariable)
            .unwrap();
        assert!(d.message.contains("`Z`"));
        assert!(d.message.contains("in(A, d:f(Z))"));
    }

    #[test]
    fn ha006_head_var_not_in_body() {
        let out = diags("p(A, B) :- in(A, d:f()).", &[]);
        assert!(out
            .iter()
            .any(|d| d.code == DiagCode::HeadVarNotInBody && d.message.contains("`B`")));
    }

    #[test]
    fn ha007_non_ground_fact() {
        let out = diags("p(A).", &[]);
        assert!(out.iter().any(|d| d.code == DiagCode::NonGroundFact));
    }

    #[test]
    fn ha010_reports_adornment_and_variable() {
        // Feasible only when B is bound: q(b, f) works, q(f, f) does not.
        let src = "q(B, C) :- in(C, d2:q_bf(B)).";
        let ok = diags(src, &[QueryForm::parse("q(b, f)").unwrap()]);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = diags(src, &[QueryForm::parse("q(f, f)").unwrap()]);
        let d = bad
            .iter()
            .find(|d| d.code == DiagCode::InfeasibleAdornment)
            .unwrap();
        assert!(d.message.contains("`B`"), "{}", d.message);
        assert!(d.message.contains("adornment `ff`"), "{}", d.message);
    }

    #[test]
    fn ha010_passes_when_any_rule_is_feasible() {
        let src = "q(B, C) :- in(C, d2:q_bf(B)).\n\
                   q(B, C) :- in(Ans, d2:q_all()) & =(Ans.1, B) & =(Ans.2, C).\n";
        let out = diags(src, &[QueryForm::parse("q(f, f)").unwrap()]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn ha050_warns_when_adornment_serializes_overlappable_calls() {
        // Under lookup(b, f, f, f) the second call waits for `p` to bind B,
        // a plain input position; declaring lookup(b, b, f, f) instead
        // would let both calls dispatch at entry.
        let src = "lookup(A, B, Y, Z) :- p(B) & in(Y, d1:f_bf(A)) & in(Z, d2:g_bf(B)).\n\
                   p('x').";
        let serial = diags(src, &[QueryForm::parse("lookup(b, f, f, f)").unwrap()]);
        let d = serial
            .iter()
            .find(|d| d.code == DiagCode::SerializedParallelizable)
            .expect("HA050 expected");
        assert_eq!(d.severity, crate::diagnostic::Severity::Warning);
        assert!(d.message.contains("adornment `bfff`"), "{}", d.message);
        assert!(
            d.message.contains("1 of its 2 domain calls"),
            "{}",
            d.message
        );

        let wide = diags(src, &[QueryForm::parse("lookup(b, b, f, f)").unwrap()]);
        assert!(
            !wide
                .iter()
                .any(|d| d.code == DiagCode::SerializedParallelizable),
            "{wide:?}"
        );
    }

    #[test]
    fn ha050_silent_when_no_adornment_could_parallelize() {
        // The second call consumes the first call's answer: inherently
        // sequential under every adornment, so no warning.
        let src = "chain(A, Y) :- in(X, d1:f_bf(A)) & in(Y, d2:g_bf(X)).";
        let out = diags(src, &[QueryForm::parse("chain(b, f)").unwrap()]);
        assert!(
            !out.iter()
                .any(|d| d.code == DiagCode::SerializedParallelizable),
            "{out:?}"
        );
    }

    #[test]
    fn ha050_silent_on_pipelined_joins_over_answer_variables() {
        // The paper's canonical join: the second call consumes the first
        // call's *answer* (an `f` head position). No caller would pre-bind
        // the object list it is asking for, so this must stay quiet.
        let src = "actors(F, L, O, A) :-
                       in(O, video:objs_bf(F, L)) &
                       in(A, relation:cast_bf(O)).";
        let out = diags(src, &[QueryForm::parse("actors(b, b, f, f)").unwrap()]);
        assert!(
            !out.iter()
                .any(|d| d.code == DiagCode::SerializedParallelizable),
            "{out:?}"
        );
    }

    #[test]
    fn ha050_silent_on_infeasible_rules() {
        // Infeasible under ff — HA010 fires, HA050 stays quiet.
        let src = "lookup(A, B, X, Y) :- in(X, d1:f_bf(A)) & in(Y, d2:g_bf(B)).";
        let out = diags(src, &[QueryForm::parse("lookup(f, f, f, f)").unwrap()]);
        assert!(out.iter().any(|d| d.code == DiagCode::InfeasibleAdornment));
        assert!(
            !out.iter()
                .any(|d| d.code == DiagCode::SerializedParallelizable),
            "{out:?}"
        );
    }

    #[test]
    fn ha010_undefined_query_form_pred() {
        let out = diags(
            "p(A) :- in(A, d:f()).",
            &[QueryForm::parse("nosuch(f)").unwrap()],
        );
        assert!(out.iter().any(|d| d.code == DiagCode::UndefinedPredicate));
    }
}
