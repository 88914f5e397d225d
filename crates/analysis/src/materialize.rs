//! Pass 7 — materialization safety (`HA070`–`HA074`).
//!
//! The subplan cache planned on the roadmap stores whole rule-body answer
//! sets keyed by canonical fingerprint (see [`crate::fingerprint`]). This
//! pass proves, at registration time, which subplans such a cache may hold:
//!
//! * **HA070** — the safe inventory: rules whose bodies make only pure,
//!   non-recursive, non-volatile domain calls. Each note carries the
//!   subplan's fingerprint and canonical form.
//! * **HA071** — subplans fed by a volatile source: declared `%! volatile`,
//!   or routed *around* the CIM (a direct-routed call has no cache entry to
//!   invalidate, so a materialized copy would silently go stale).
//! * **HA072** — subplans on a recursive SCC: a one-shot snapshot is not a
//!   fixpoint; maintenance needs semi-naive/delta evaluation.
//! * **HA073** — sharing: the same fingerprint in two or more rules means
//!   one materialization serves all of them; when a DCSM is available the
//!   note carries an estimated saving.
//! * **HA074** — invalidation scope: for every source a safe subplan
//!   reads, which fingerprints an update to that source dirties.
//!
//! All five are `Severity::Note` — inventory, not judgement — and the pass
//! is opt-in (`Analyzer::with_materialization`, `hermes-lint
//! --materialize`, REPL `:materialize`) so default lint output is
//! unchanged.

use crate::analyzer::{CacheRoutes, QueryForm};
use crate::diagnostic::{DiagCode, Diagnostic, Locus};
use crate::verdicts::{MaterializationVerdicts, RuleVerdict, SubplanVerdict};
use hermes_common::{CallPattern, PatArg};
use hermes_dcsm::Dcsm;
use hermes_lang::{BodyAtom, Program, Rule, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Everything the pass may consult beyond the program itself.
pub(crate) struct Inputs<'a> {
    /// Declared query adornments (pick the rule's entry bindings).
    pub query_forms: &'a [QueryForm],
    /// `(domain, function) -> routed through the CIM?`; `None` when no
    /// routing is declared (volatility-by-routing then stays unknown).
    pub cache_routes: Option<CacheRoutes<'a>>,
    /// `(domain, function) -> declared volatile?`; `None` when no
    /// `%! volatile` directive appeared.
    pub volatile: Option<CacheRoutes<'a>>,
    /// Cost model for the HA073 savings estimate.
    pub dcsm: Option<&'a Dcsm>,
}

type Call = (Arc<str>, Arc<str>);

/// Runs the pass: classifies the rules once, with
/// [`MaterializationVerdicts::compute`], and renders the verdicts.
pub(crate) fn run(program: &Program, inputs: &Inputs<'_>, out: &mut Vec<Diagnostic>) {
    let verdicts = MaterializationVerdicts::compute(
        program,
        inputs.query_forms,
        inputs.volatile,
        inputs.cache_routes,
    );
    let mut safe: Vec<&RuleVerdict> = Vec::new();

    for verdict in verdicts.rules() {
        let rule = &program.rules[verdict.rule];
        let locus = Locus::Rule {
            index: verdict.rule,
            head: rule.head.to_string(),
        };
        let key = &verdict.key;
        let diagnostic = match verdict.verdict {
            SubplanVerdict::Recursive => Diagnostic::new(
                DiagCode::MaterializeRecursive,
                locus,
                format!(
                    "subplan {} sits on a recursive SCC; a one-shot \
                     snapshot is not a fixpoint",
                    key.fingerprint
                ),
            )
            .with_suggestion(
                "maintain this subplan with semi-naive/delta evaluation, \
                 or break the cycle",
            ),
            SubplanVerdict::Volatile => {
                let volatile_calls: Vec<String> = verdict
                    .reads
                    .iter()
                    .filter_map(|(d, f)| {
                        if inputs.volatile.is_some_and(|v| v(d, f)) {
                            Some(format!("`{d}:{f}` (declared volatile)"))
                        } else if inputs.cache_routes.is_some_and(|r| !r(d, f)) {
                            Some(format!("`{d}:{f}` (routed around the CIM)"))
                        } else {
                            None
                        }
                    })
                    .collect();
                Diagnostic::new(
                    DiagCode::MaterializeVolatile,
                    locus,
                    format!(
                        "subplan {} reads {}; a materialized copy has no \
                         invalidation signal",
                        key.fingerprint,
                        volatile_calls.join(", ")
                    ),
                )
                .with_suggestion(
                    "route the source through the CIM (`%! cache ...`) or \
                     leave the subplan unmaterialized",
                )
            }
            SubplanVerdict::Safe => {
                safe.push(verdict);
                Diagnostic::new(
                    DiagCode::MaterializeSafe,
                    locus,
                    format!(
                        "subplan {} is safe to materialize under adornment \
                         `{}`: {} distinct source call(s), non-recursive, \
                         volatility-free",
                        key.fingerprint,
                        adornment_string(&adornment_for(inputs.query_forms, rule)),
                        verdict.reads.len()
                    ),
                )
                .with_suggestion(format!("canonical form: {}", key.canonical))
            }
        };
        out.push(diagnostic.with_fingerprint(key.fingerprint));
    }

    shared_subplans(program, inputs.dcsm, &safe, out);
    invalidation_scope(&verdicts, out);
}

/// The rule's entry bindings: the first declared query form matching the
/// head picks which head positions arrive bound; without one, all-free.
pub(crate) fn adornment_for(forms: &[QueryForm], rule: &Rule) -> Vec<bool> {
    forms
        .iter()
        .find(|f| f.pred == rule.head.name && f.bound.len() == rule.head.args.len())
        .map(|f| f.bound.clone())
        .unwrap_or_else(|| vec![false; rule.head.args.len()])
}

fn adornment_string(bound: &[bool]) -> String {
    bound.iter().map(|b| if *b { 'b' } else { 'f' }).collect()
}

/// Every `(domain, function)` the rule's subplan can reach: its own `in`
/// atoms plus, transitively, those of the rules defining every IDB
/// predicate it references. An update to any of them can change the
/// subplan's answer set.
pub(crate) fn transitive_calls(program: &Program, rule: &Rule) -> BTreeSet<Call> {
    let mut calls = BTreeSet::new();
    let mut seen: BTreeSet<(Arc<str>, usize)> = BTreeSet::new();
    let mut stack: Vec<&Rule> = vec![rule];
    while let Some(r) = stack.pop() {
        for atom in &r.body {
            match atom {
                BodyAtom::In { call, .. } => {
                    calls.insert((call.domain.clone(), call.function.clone()));
                }
                BodyAtom::Pred(p) => {
                    if seen.insert(p.key()) {
                        stack.extend(program.rules_for(&p.name, p.args.len()));
                    }
                }
                BodyAtom::Cond(_) => {}
            }
        }
    }
    calls
}

/// `HA073`: groups the safe inventory by fingerprint; every group of two
/// or more rules is a sharing opportunity.
fn shared_subplans(
    program: &Program,
    dcsm: Option<&Dcsm>,
    safe: &[&RuleVerdict],
    out: &mut Vec<Diagnostic>,
) {
    let mut groups: BTreeMap<u64, Vec<&RuleVerdict>> = BTreeMap::new();
    for v in safe {
        groups.entry(v.key.fingerprint.0).or_default().push(v);
    }
    for group in groups.values() {
        if group.len() < 2 {
            continue;
        }
        let first = group[0];
        let members: Vec<String> = group
            .iter()
            .map(|v| format!("rule #{} `{}`", v.rule, program.rules[v.rule].head))
            .collect();
        let savings = dcsm.map(|d| {
            let patterns = body_patterns(&program.rules[first.rule].body);
            d.estimate_subplan_savings(&patterns, group.len())
        });
        let estimate = match savings {
            Some(ms) => format!(
                "; materializing once saves an estimated {ms:.0} ms per query \
                 that touches all of them (DCSM)"
            ),
            None => "; enable a DCSM to estimate the saving".to_string(),
        };
        out.push(
            Diagnostic::new(
                DiagCode::SharedSubplan,
                Locus::Program,
                format!(
                    "subplan {} is shared by {} rules: {}{}",
                    first.key.fingerprint,
                    group.len(),
                    members.join(", "),
                    estimate
                ),
            )
            .with_suggestion("materialize the shared subplan once and let every rule read it")
            .with_fingerprint(first.key.fingerprint),
        );
    }
}

/// `HA074`: one note per source a safe subplan reads, listing the
/// fingerprints an update to it dirties.
fn invalidation_scope(verdicts: &MaterializationVerdicts, out: &mut Vec<Diagnostic>) {
    for ((domain, function), fingerprints) in verdicts.scopes() {
        let list: Vec<String> = fingerprints.iter().map(|fp| fp.to_string()).collect();
        out.push(Diagnostic::new(
            DiagCode::InvalidationScope,
            Locus::CallPattern {
                text: format!("{domain}:{function}"),
            },
            format!(
                "an update to `{domain}:{function}` invalidates {} \
                 materialized subplan(s): {}",
                list.len(),
                list.join(", ")
            ),
        ));
    }
}

/// Call patterns of a body's `in` atoms, constants kept, variables `$b`
/// (a materialized subplan executes with its entry bindings ground).
fn body_patterns(body: &[BodyAtom]) -> Vec<CallPattern> {
    body.iter()
        .filter_map(|atom| match atom {
            BodyAtom::In { call, .. } => Some(CallPattern {
                domain: call.domain.clone(),
                function: call.function.clone(),
                args: call
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => PatArg::Const(v.clone()),
                        Term::Var(_) => PatArg::Bound,
                    })
                    .collect(),
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::parse_program;

    fn run_pass(src: &str, forms: &[&str], volatile: Option<&[&str]>) -> Vec<Diagnostic> {
        let program = parse_program(src).unwrap();
        let forms: Vec<QueryForm> = forms.iter().map(|f| QueryForm::parse(f).unwrap()).collect();
        let volatile_set: Option<BTreeSet<String>> =
            volatile.map(|v| v.iter().map(|s| s.to_string()).collect());
        let vol_fn = |d: &str, f: &str| {
            volatile_set
                .as_ref()
                .is_some_and(|set| set.contains(d) || set.contains(&format!("{d}:{f}")))
        };
        let inputs = Inputs {
            query_forms: &forms,
            cache_routes: None,
            volatile: volatile.map(|_| &vol_fn as CacheRoutes<'_>),
            dcsm: None,
        };
        let mut out = Vec::new();
        run(&program, &inputs, &mut out);
        out
    }

    #[test]
    fn safe_rule_is_inventoried_with_fingerprint() {
        let out = run_pass("p(A) :- in(A, d:f('x')).", &["p(f)"], None);
        let safe: Vec<_> = out
            .iter()
            .filter(|d| d.code == DiagCode::MaterializeSafe)
            .collect();
        assert_eq!(safe.len(), 1);
        assert!(safe[0].fingerprint.is_some());
        // ...and its invalidation scope is reported.
        assert!(out
            .iter()
            .any(|d| d.code == DiagCode::InvalidationScope && d.message.contains("d:f")));
    }

    #[test]
    fn volatile_source_blocks_materialization() {
        let out = run_pass(
            "p(A) :- in(A, feed:price('x')).\nq(A) :- in(A, ref:name('x')).",
            &["p(f)", "q(f)"],
            Some(&["feed"]),
        );
        assert!(out
            .iter()
            .any(|d| d.code == DiagCode::MaterializeVolatile && d.message.contains("feed:price")));
        assert!(out
            .iter()
            .any(|d| d.code == DiagCode::MaterializeSafe && d.message.contains("safe")));
    }

    #[test]
    fn recursion_demands_delta_maintenance() {
        let out = run_pass(
            "reach(X, Y) :- in(Y, g:edge(X)).\n\
             reach(X, Y) :- reach(X, Z) & in(Y, g:edge(Z)).",
            &["reach(b, f)"],
            None,
        );
        let rec: Vec<_> = out
            .iter()
            .filter(|d| d.code == DiagCode::MaterializeRecursive)
            .collect();
        assert_eq!(rec.len(), 2, "both rules sit on the SCC");
        assert!(!out.iter().any(|d| d.code == DiagCode::MaterializeSafe));
    }

    #[test]
    fn shared_fingerprint_is_reported_once() {
        let out = run_pass(
            "p(A, B) :- in(A, d:f('k')) & in(B, e:g(A)).\n\
             q(X, Y) :- in(X, d:f('k')) & in(Y, e:g(X)).",
            &["p(f, f)", "q(f, f)"],
            None,
        );
        let shared: Vec<_> = out
            .iter()
            .filter(|d| d.code == DiagCode::SharedSubplan)
            .collect();
        assert_eq!(shared.len(), 1);
        assert!(shared[0].message.contains("2 rules"));
    }

    #[test]
    fn volatility_transits_through_idb_references() {
        // top/1 never calls feed directly, but its body reaches it via q/1.
        let out = run_pass(
            "top(A) :- q(A).\nq(A) :- in(A, feed:price('x')).",
            &["top(f)"],
            Some(&["feed"]),
        );
        let volatile: Vec<_> = out
            .iter()
            .filter(|d| d.code == DiagCode::MaterializeVolatile)
            .collect();
        assert_eq!(volatile.len(), 2, "{out:?}");
    }

    #[test]
    fn pure_idb_glue_and_facts_are_skipped() {
        let out = run_pass("p('a').\nq(A) :- p(A) & =(A, 'a').", &["q(f)"], None);
        assert!(out.is_empty(), "{out:?}");
    }
}
