//! # hermes-analysis
//!
//! Whole-program static analysis for HERMES mediator programs. The paper's
//! optimizer assumes well-formed inputs — ground calls (§3), no free
//! invariant variables (§4), binding-pattern-compatible orderings (§5) —
//! and a production mediator should reject bad configurations at load time,
//! not at query time. This crate runs a series of passes over a
//! [`hermes_lang::Program`] (plus optional invariants, domain
//! signatures, a DCSM, and CIM routing) and emits structured
//! [`Diagnostic`]s with stable `HAxxx` codes:
//!
//! | Pass | Codes | Checks |
//! |------|-------|--------|
//! | 1 dependency graph | `HA001`–`HA004` | recursion (SCCs), undefined predicates, unreachable predicates, fact/rule mixing |
//! | 2 adornment feasibility | `HA005`–`HA010` | groundability per rule, range restriction, ground facts, per-adornment executability |
//! | 3 domain signatures | `HA020`–`HA022` | unknown domains/functions, arity mismatches |
//! | 4 invariant lint | `HA030`–`HA034` | free condition variables, substitution cycles, unsatisfiable conditions, duplicates, direction mistakes |
//! | 5 cost coverage | `HA040` | call patterns the DCSM can only cost from the prior |
//! | 6 cacheability | `HA060` | programs the `cache-only` plan tier can never serve |
//! | 7 materialization | `HA070`–`HA074` | safe-to-materialize inventory, volatile sources, recursive SCCs, shared subplans, invalidation scope (opt-in) |
//! | directives | `HA080`–`HA082` | malformed, unknown, and duplicate `%!` directives |
//!
//! Pass 7 rests on [`fingerprint`]: canonical subplan fingerprints, stable
//! modulo variable renaming, independent-subgoal reordering, and symmetric
//! comparison spelling — the keys a subplan result cache shares with this
//! analyzer. Reports render as text, JSON (`hermes-lint-report/v1`), or
//! SARIF 2.1.0 via [`report_to_json`]/[`report_to_sarif`].
//!
//! ```
//! use hermes_analysis::{Analyzer, DiagCode};
//! use hermes_lang::parse_program;
//!
//! let program = parse_program("p(A) :- in(A, d:f(Z)).").unwrap();
//! let report = Analyzer::new(&program).analyze();
//! assert!(report.has_errors());
//! assert!(report.has_code(DiagCode::UngroundableVariable));
//! ```

mod adorn;
mod analyzer;
mod cacheable;
mod coverage;
mod diagnostic;
mod directives;
pub mod fingerprint;
mod graph;
mod invariants;
pub mod json;
mod materialize;
mod output;
mod sigs;
mod verdicts;

pub use analyzer::{Analyzer, QueryForm, SignatureTable};
pub use diagnostic::{AnalysisReport, DiagCode, Diagnostic, Locus, Severity};
pub use directives::{parse_directives, CacheRouting, Directives};
pub use fingerprint::{fingerprint_body, fingerprint_rule, Fingerprint, SubplanKey};
pub use output::{report_from_json, report_to_json, report_to_sarif, FileReport, JSON_SCHEMA};
pub use verdicts::{MaterializationVerdicts, RuleVerdict, SubplanVerdict};

use hermes_common::Result;
use hermes_lang::{groundability, parse_program, BodyAtom, Program};
use std::collections::BTreeSet;

/// Knobs for [`analyze_source_with`]: which opt-in passes to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Run the cost-coverage pass (`HA040`) against an empty DCSM, listing
    /// every call pattern the optimizer would cost from the prior.
    pub coverage: bool,
    /// Run the materialization-safety pass (`HA070`–`HA074`).
    pub materialize: bool,
}

/// Parses a `.hms` source (program text plus optional `%!` lint
/// directives) and analyzes it. This is what `hermes-lint` and the REPL's
/// `:check` run.
pub fn analyze_source(src: &str) -> Result<AnalysisReport> {
    analyze_source_with(src, AnalyzeOptions::default())
}

/// [`analyze_source`] with the opt-in passes selectable.
pub fn analyze_source_with(src: &str, opts: AnalyzeOptions) -> Result<AnalysisReport> {
    let program = parse_program(src)?;
    let directives = parse_directives(src)?;
    let empty_dcsm = hermes_dcsm::Dcsm::new();
    let mut analyzer = Analyzer::new(&program)
        .with_query_forms(directives.query_forms)
        .with_invariants(directives.invariants);
    if let Some(table) = directives.signatures {
        analyzer = analyzer.with_signatures(table);
    }
    if opts.coverage {
        analyzer = analyzer.with_dcsm(&empty_dcsm);
    }
    if opts.materialize {
        analyzer = analyzer.with_materialization();
    }
    let routes = directives
        .cache_routing
        .as_ref()
        .map(|routing| move |domain: &str, function: &str| routing.routes(domain, function));
    if let Some(routes) = &routes {
        analyzer = analyzer.with_cache_routing(routes);
    }
    let volatile = directives
        .volatility
        .as_ref()
        .map(|v| move |domain: &str, function: &str| v.routes(domain, function));
    if let Some(volatile) = &volatile {
        analyzer = analyzer.with_volatility(volatile);
    }
    let mut report = analyzer.analyze();
    report.diagnostics.extend(directives.diagnostics);
    report.normalize();
    Ok(report)
}

/// Explains why a *query* (a goal conjunction against `program`) admits no
/// executable ordering: names the undefined predicates and the stuck
/// subgoals with the variables that can never become ground. Unlike plain
/// per-goal groundability, predicate goals are gated on their *rules*
/// admitting an executable ordering under the bindings available at the
/// goal — so a blocker buried in a rule body is surfaced by name. Returns
/// `None` when nothing is provably wrong (the failure lies elsewhere).
/// Used by the rewriter to turn its generic "no executable ordering" error
/// into a precise one.
pub fn explain_infeasible_query(program: &Program, goals: &[BodyAtom]) -> Option<String> {
    use hermes_lang::PredAtom;
    use std::sync::Arc;

    let defined = program.defined_predicates();
    let mut reasons: Vec<String> = Vec::new();
    for goal in goals {
        if let BodyAtom::Pred(p) = goal {
            if !defined.contains(&p.key()) {
                reasons.push(format!(
                    "predicate `{}/{}` is not defined by any rule",
                    p.name,
                    p.args.len()
                ));
            }
        }
    }

    // Why no rule answers `goal` with `bound` available; `None` = feasible.
    let pred_blocked = |goal: &PredAtom, bound: &BTreeSet<Arc<str>>| -> Option<String> {
        let rules = program.rules_for(&goal.name, goal.args.len());
        let mut why: Vec<String> = Vec::new();
        for rule in &rules {
            if rule.body.is_empty() {
                return None; // a ground fact answers anything
            }
            let mut seed: BTreeSet<Arc<str>> = BTreeSet::new();
            for (garg, harg) in goal.args.iter().zip(rule.head.args.iter()) {
                let arg_bound = match garg.as_var() {
                    Some(v) => bound.contains(v),
                    None => true,
                };
                if arg_bound {
                    if let Some(v) = harg.as_var() {
                        seed.insert(v.clone());
                    }
                }
            }
            let report = groundability(seed, &rule.body);
            if let Some(stuck) = report.stuck.first() {
                let vars: Vec<String> = stuck.missing.iter().map(|v| format!("`{v}`")).collect();
                why.push(format!(
                    "in rule `{}`, subgoal `{}` can never run ({} never \
                     bound)",
                    rule.head,
                    stuck.atom,
                    vars.join(", "),
                ));
                continue;
            }
            let unbound: Vec<String> = rule
                .head
                .variables()
                .into_iter()
                .filter(|v| !report.groundable.contains(v))
                .map(|v| format!("`{v}`"))
                .collect();
            if unbound.is_empty() {
                return None; // this rule works
            }
            why.push(format!(
                "in rule `{}`, head variable {} is never bound by the body",
                rule.head,
                unbound.join(", "),
            ));
        }
        Some(why.join("; "))
    };

    // Goal-level fixpoint: predicate goals run only when some rule is
    // feasible given the bindings accumulated so far.
    let mut bound: BTreeSet<Arc<str>> = BTreeSet::new();
    let mut changed = true;
    while changed {
        changed = false;
        for goal in goals {
            let runnable = match goal {
                BodyAtom::Pred(p) => {
                    defined.contains(&p.key()) && pred_blocked(p, &bound).is_none()
                }
                other => other.can_run(&bound),
            };
            if runnable {
                for v in goal.variables() {
                    if bound.insert(v) {
                        changed = true;
                    }
                }
            }
        }
    }

    for goal in goals {
        match goal {
            BodyAtom::Pred(p) if defined.contains(&p.key()) => {
                if let Some(why) = pred_blocked(p, &bound) {
                    reasons.push(format!("goal `{goal}` admits no executable rule: {why}"));
                }
            }
            BodyAtom::Pred(_) => {} // undefined: already reported
            other => {
                if !other.can_run(&bound) {
                    let missing: Vec<String> = other
                        .requires()
                        .into_iter()
                        .filter(|v| !bound.contains(v))
                        .map(|v| format!("`{v}`"))
                        .collect();
                    reasons.push(format!(
                        "subgoal `{other}` can never run: {} {} never bound \
                         by any goal order",
                        missing.join(", "),
                        if missing.len() == 1 { "is" } else { "are" },
                    ));
                }
            }
        }
    }

    if reasons.is_empty() {
        None
    } else {
        Some(reasons.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::parse_query;

    #[test]
    fn analyze_source_combines_program_and_directives() {
        let src = "\
            %! query p(f)\n\
            %! domain d: f/0\n\
            p(A) :- in(A, d:f()).\n\
            dead(A) :- in(A, d:g('x')).\n";
        let report = analyze_source(src).unwrap();
        // dead/1 is unreachable (warning) and d:g is unknown (error).
        assert!(report.has_code(DiagCode::UnreachablePredicate));
        assert!(report.has_code(DiagCode::UnknownFunction));
        assert!(report.has_errors());
    }

    #[test]
    fn analyze_source_clean_program() {
        let src = "p(A) :- in(A, d:f()).\n";
        let report = analyze_source(src).unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn explain_infeasible_query_names_the_blockers() {
        let program = parse_program("p(A) :- in(A, d:f()).").unwrap();
        let q = parse_query("?- nosuch(X) & in(Y, d:g(Z)).").unwrap();
        let why = explain_infeasible_query(&program, &q.goals).unwrap();
        assert!(why.contains("nosuch/1"));
        assert!(why.contains("`Z`"));

        let ok = parse_query("?- p(X).").unwrap();
        assert!(explain_infeasible_query(&program, &ok.goals).is_none());
    }

    #[test]
    fn explain_recurses_into_rule_bodies() {
        // The rule is valid in isolation (C may flow in from the caller),
        // but `?- only(C).` leaves C free, so no ordering exists. The
        // explanation must name the blocked subgoal inside the rule.
        let program = parse_program("only(C) :- in(C, d2:q_bf(B)) & in(B, d9:f(C)).").unwrap();
        let q = parse_query("?- only(C).").unwrap();
        let why = explain_infeasible_query(&program, &q.goals).unwrap();
        assert!(why.contains("goal `only(C)`"), "{why}");
        assert!(why.contains("in rule `only(C)`"), "{why}");

        // Binding C through another goal makes it feasible again.
        let q2 = parse_query("?- =(C, 5) & only(C).").unwrap();
        assert!(explain_infeasible_query(&program, &q2.goals).is_none());
    }
}
