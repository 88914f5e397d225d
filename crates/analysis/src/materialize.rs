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

use crate::diagnostic::{DiagCode, Diagnostic, Locus};
use crate::fingerprint::{fingerprint_rule, Fingerprint, SubplanKey};
use crate::graph;
use hermes_common::{CallPattern, PatArg};
use hermes_dcsm::CostSource;
use hermes_lang::{BodyAtom, CacheRouting, Program, QueryForm, Rule, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Everything the pass may consult beyond the program itself.
pub(crate) struct Inputs<'a> {
    /// Declared query adornments (pick the rule's entry bindings).
    pub query_forms: &'a [QueryForm],
    /// `(domain, function) -> routed through the CIM?`. A call routed
    /// `Direct` has no invalidation signal, so it makes a subplan volatile.
    pub routes: &'a dyn Fn(&str, &str) -> bool,
    /// The `%! volatile` sources: only says *why* a call is `Direct`.
    pub volatile: &'a CacheRouting,
    /// Cost model for the HA073 savings estimate.
    pub dcsm: Option<&'a dyn CostSource>,
}

type Call = (Arc<str>, Arc<str>);

/// The classification of one subplan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// HA070: non-recursive and every reachable source is CIM-routed.
    Safe,
    /// HA071: reads at least one `Direct` source.
    Volatile,
    /// HA072: sits on a recursive SCC; a snapshot is not a fixpoint.
    Recursive,
}

/// One classified rule: which rule, its canonical key, the verdict, and
/// the sources its subplan transitively reads.
struct Classified {
    rule: usize,
    key: SubplanKey,
    verdict: Verdict,
    reads: BTreeSet<Call>,
}

/// Classifies every rule that reads a source (facts and pure-IDB glue are
/// skipped).
fn classify(program: &Program, inputs: &Inputs<'_>) -> Vec<Classified> {
    let recursive = graph::recursive_predicates(program);
    let reaching = graph::reaching_recursion(program);
    let mut out = Vec::new();
    for (index, rule) in program.rules.iter().enumerate() {
        let reads = transitive_calls(program, rule);
        if rule.body.is_empty() || reads.is_empty() {
            continue;
        }
        let key = fingerprint_rule(rule, &adornment_for(inputs.query_forms, rule).bound);
        // On a recursive SCC itself, or reading a predicate that reaches
        // one.
        let touches_recursion = recursive.contains(&rule.head.key())
            || rule
                .body
                .iter()
                .any(|atom| matches!(atom, BodyAtom::Pred(p) if reaching.contains(&p.key())));
        let verdict = if touches_recursion {
            Verdict::Recursive
        } else if reads.iter().any(|(d, f)| !(inputs.routes)(d, f)) {
            Verdict::Volatile
        } else {
            Verdict::Safe
        };
        out.push(Classified {
            rule: index,
            key,
            verdict,
            reads,
        });
    }
    out
}

/// Runs the pass: classifies the rules once and renders the verdicts.
pub(crate) fn run(program: &Program, inputs: &Inputs<'_>, out: &mut Vec<Diagnostic>) {
    let classified = classify(program, inputs);
    let mut safe: Vec<&Classified> = Vec::new();

    for verdict in &classified {
        let rule = &program.rules[verdict.rule];
        let locus = Locus::Rule {
            index: verdict.rule,
            head: rule.head.to_string(),
        };
        let key = &verdict.key;
        let diagnostic = match verdict.verdict {
            Verdict::Recursive => Diagnostic::new(
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
            Verdict::Volatile => {
                let direct_calls: Vec<String> = verdict
                    .reads
                    .iter()
                    .filter(|(d, f)| !(inputs.routes)(d, f))
                    .map(|(d, f)| {
                        if inputs.volatile.routes(d, f) {
                            format!("`{d}:{f}` (declared volatile)")
                        } else {
                            format!("`{d}:{f}` (routed around the CIM)")
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
                        direct_calls.join(", ")
                    ),
                )
                .with_suggestion(
                    "route the source through the CIM (`%! cache ...`) or \
                     leave the subplan unmaterialized",
                )
            }
            Verdict::Safe => {
                safe.push(verdict);
                Diagnostic::new(
                    DiagCode::MaterializeSafe,
                    locus,
                    format!(
                        "subplan {} is safe to materialize under adornment \
                         `{}`: {} distinct source call(s), non-recursive, \
                         volatility-free",
                        key.fingerprint,
                        adornment_for(inputs.query_forms, rule).adornment(),
                        verdict.reads.len()
                    ),
                )
                .with_suggestion(format!("canonical form: {}", key.canonical))
            }
        };
        out.push(diagnostic.with_fingerprint(key.fingerprint));
    }

    shared_subplans(program, inputs.dcsm, &safe, out);
    invalidation_scope(&safe, out);
}

/// The rule's entry bindings: the first declared query form matching the
/// head picks which head positions arrive bound; without one, all-free.
fn adornment_for(forms: &[QueryForm], rule: &Rule) -> QueryForm {
    let (name, arity) = rule.head.key();
    let form = forms
        .iter()
        .find(|f| f.pred == name && f.bound.len() == arity);
    form.cloned()
        .unwrap_or_else(|| QueryForm::new(name, vec![false; arity]))
}

/// Every `(domain, function)` the rule's subplan can reach: its own `in`
/// atoms plus, transitively, those of the rules defining every IDB
/// predicate it references. An update to any of them can change the
/// subplan's answer set.
fn transitive_calls(program: &Program, rule: &Rule) -> BTreeSet<Call> {
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
    dcsm: Option<&dyn CostSource>,
    safe: &[&Classified],
    out: &mut Vec<Diagnostic>,
) {
    let mut groups: BTreeMap<u64, Vec<&Classified>> = BTreeMap::new();
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
fn invalidation_scope(safe: &[&Classified], out: &mut Vec<Diagnostic>) {
    let mut scope: BTreeMap<&Call, BTreeSet<Fingerprint>> = BTreeMap::new();
    for verdict in safe {
        for call in &verdict.reads {
            scope
                .entry(call)
                .or_default()
                .insert(verdict.key.fingerprint);
        }
    }
    for ((domain, function), fingerprints) in scope {
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

    fn volatile_set(volatile: &[&str]) -> CacheRouting {
        let lines: Vec<String> = volatile
            .iter()
            .map(|v| format!("%! volatile {v}\n"))
            .collect();
        parse_program(&lines.concat())
            .unwrap()
            .declarations
            .volatile
    }

    fn run_pass(src: &str, forms: &[&str], volatile: Option<&[&str]>) -> Vec<Diagnostic> {
        let program = parse_program(src).unwrap();
        let forms: Vec<QueryForm> = forms.iter().map(|f| QueryForm::parse(f).unwrap()).collect();
        let volatile = volatile_set(volatile.unwrap_or_default());
        let routes = |d: &str, f: &str| !volatile.routes(d, f);
        let inputs = Inputs {
            query_forms: &forms,
            routes: &routes,
            volatile: &volatile,
            dcsm: None,
        };
        let mut out = Vec::new();
        run(&program, &inputs, &mut out);
        out
    }

    fn verdicts(
        program: &Program,
        forms: &[&str],
        routes: &dyn Fn(&str, &str) -> bool,
    ) -> Vec<Verdict> {
        let forms: Vec<QueryForm> = forms.iter().map(|f| QueryForm::parse(f).unwrap()).collect();
        let inputs = Inputs {
            query_forms: &forms,
            routes,
            volatile: &CacheRouting::default(),
            dcsm: None,
        };
        classify(program, &inputs)
            .iter()
            .map(|c| c.verdict)
            .collect()
    }

    #[test]
    fn verdicts_match_the_pass_classification() {
        use Verdict::{Recursive, Safe, Volatile};
        let program = parse_program(
            "p(A) :- in(A, feed:price('x')).\n\
             q(A) :- in(A, ref:name('x')).\n\
             reach(X, Y) :- in(Y, g:edge(X)).\n\
             reach(X, Y) :- reach(X, Z) & in(Y, g:edge(Z)).\n\
             hop(X, Y) :- reach(X, Y).\n\
             hop(X, Y) :- in(Y, g:edge(X)).\n\
             via(X, Y) :- hop(X, Y).",
        )
        .unwrap();
        let routes = |d: &str, _f: &str| d != "feed";
        // `hop`'s second rule reads no recursive predicate, so it stays
        // safe; `via` reads `hop`, which reaches the `reach` cycle.
        assert_eq!(
            verdicts(&program, &["p(f)", "q(f)", "reach(b, f)"], &routes),
            [Volatile, Safe, Recursive, Recursive, Recursive, Safe, Recursive]
        );
    }

    #[test]
    fn flat_subplan_verdict_follows_its_calls() {
        use Verdict::{Safe, Volatile};
        let program = parse_program(
            "p(A, B) :- in(A, d:f('k')) & in(B, e:g(A)).\n\
             v(A) :- in(A, feed:price('x')).",
        )
        .unwrap();
        let forms = ["p(f, f)", "v(f)"];
        let routes = |d: &str, _f: &str| d != "feed";
        assert_eq!(verdicts(&program, &forms, &routes), [Safe, Volatile]);
        // A call routed around the CIM taints every subplan reading it.
        let routes = |d: &str, _f: &str| d != "feed" && d != "e";
        assert_eq!(verdicts(&program, &forms, &routes), [Volatile, Volatile]);
    }

    #[test]
    fn invalidation_scope_covers_only_safe_rules() {
        let out = run_pass(
            "p(A) :- in(A, d:f('k')).\n\
             q(A) :- in(A, d:f('k')).\n\
             v(A) :- in(A, feed:price('x')) & in(A, d:f('k')).",
            &["p(f)", "q(f)", "v(f)"],
            Some(&["feed"]),
        );
        let scopes: Vec<&str> = out
            .iter()
            .filter(|d| d.code == DiagCode::InvalidationScope)
            .map(|d| d.message.as_str())
            .collect();
        // p and q share a fingerprint, so the scope of d:f is that one key;
        // feed:price feeds no safe subplan.
        assert_eq!(scopes.len(), 1, "{scopes:?}");
        assert!(scopes[0].contains("`d:f` invalidates 1 materialized"));
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
