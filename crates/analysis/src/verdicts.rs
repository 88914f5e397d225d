//! Cheap runtime view of the pass-7 materialization verdicts.
//!
//! The HA070–HA074 diagnostics are built for humans: every entry allocates
//! a formatted message, a locus, and a suggestion, and reading "is this
//! subplan safe?" back out of an [`AnalysisReport`](crate::AnalysisReport)
//! means re-running the whole pass pipeline and string-matching notes. The
//! runtime subplan cache asks that question on the query path, so it gets
//! this struct instead: the same classification the pass computes (safe /
//! volatile / recursive, plus the per-source invalidation scope), computed
//! once per program registration, with no diagnostics allocated.
//!
//! The unit of classification is the *source call*: a flat executable plan
//! is safe to snapshot exactly when every `(domain, function)` it reads is
//! non-volatile (HA071's test), and an update to a source dirties exactly
//! the fingerprints that transitively read it (HA074's scope). Calls the
//! program never mentions are conservatively treated as volatile — a call
//! the analyzer never saw has no verdict, and "don't cache" is the only
//! safe default.

use crate::analyzer::{CacheRoutes, QueryForm};
use crate::fingerprint::{fingerprint_rule, Fingerprint, SubplanKey};
use crate::graph;
use crate::materialize::{adornment_for, touches_recursion, transitive_calls};
use hermes_lang::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Call = (Arc<str>, Arc<str>);

/// The pass-7 classification of one subplan, without the diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubplanVerdict {
    /// HA070: non-recursive and every reachable source is non-volatile.
    Safe,
    /// HA071: reads at least one volatile (or CIM-bypassing) source.
    Volatile,
    /// HA072: sits on a recursive SCC; a snapshot is not a fixpoint.
    Recursive,
}

/// One classified rule: which rule, its canonical key, the verdict, and
/// the sources its subplan transitively reads.
#[derive(Clone, Debug)]
pub struct RuleVerdict {
    /// Index into `program.rules`.
    pub rule: usize,
    /// Canonical subplan key under the rule's declared adornment.
    pub key: SubplanKey,
    /// The classification.
    pub verdict: SubplanVerdict,
    /// Every `(domain, function)` the subplan can reach.
    pub reads: BTreeSet<Call>,
}

/// The materialization verdicts for one registered program, queryable in
/// O(log n) per call with no re-analysis. Built by
/// [`MaterializationVerdicts::compute`]; the mediator rebuilds it when the
/// program or the CIM routing policy changes.
#[derive(Clone, Debug, Default)]
pub struct MaterializationVerdicts {
    /// Every source call the program mentions, `true` = volatile.
    calls: BTreeMap<Call, bool>,
    /// Per-rule classification (rules with no source calls are skipped,
    /// exactly as pass 7 skips facts and pure-IDB glue).
    rules: Vec<RuleVerdict>,
    /// HA074 scope: source call → fingerprints an update dirties.
    scope: BTreeMap<Call, BTreeSet<Fingerprint>>,
}

impl MaterializationVerdicts {
    /// Classifies `program` exactly as pass 7 does. `volatile` answers
    /// "is this call declared `%! volatile`?" and `cache_routes` answers
    /// "is this call routed through the CIM?"; pass `None` for whichever
    /// signal the deployment lacks (volatility-by-routing then stays
    /// unknown, again matching the pass).
    pub fn compute(
        program: &Program,
        query_forms: &[QueryForm],
        volatile: Option<CacheRoutes<'_>>,
        cache_routes: Option<CacheRoutes<'_>>,
    ) -> Self {
        let recursive = graph::recursive_predicates(program);
        let mut calls: BTreeMap<Call, bool> = BTreeMap::new();
        let mut rules: Vec<RuleVerdict> = Vec::new();
        let mut scope: BTreeMap<Call, BTreeSet<Fingerprint>> = BTreeMap::new();
        let is_volatile = |(d, f): &Call| {
            volatile.is_some_and(|v| v(d, f)) || cache_routes.is_some_and(|r| !r(d, f))
        };

        for (index, rule) in program.rules.iter().enumerate() {
            let reads = transitive_calls(program, rule);
            if rule.body.is_empty() || reads.is_empty() {
                continue;
            }
            for call in &reads {
                calls.insert(call.clone(), is_volatile(call));
            }
            let bound = adornment_for(query_forms, rule);
            let key = fingerprint_rule(rule, &bound);
            let verdict = if touches_recursion(program, rule, &recursive) {
                SubplanVerdict::Recursive
            } else if reads.iter().any(is_volatile) {
                SubplanVerdict::Volatile
            } else {
                SubplanVerdict::Safe
            };
            if verdict == SubplanVerdict::Safe {
                for call in &reads {
                    scope
                        .entry(call.clone())
                        .or_default()
                        .insert(key.fingerprint);
                }
            }
            rules.push(RuleVerdict {
                rule: index,
                key,
                verdict,
                reads,
            });
        }

        MaterializationVerdicts {
            calls,
            rules,
            scope,
        }
    }

    /// Is this source call volatile? Calls the program never mentions
    /// return `true`: no verdict means no invalidation signal.
    pub fn is_volatile(&self, domain: &str, function: &str) -> bool {
        self.calls
            .get(&(Arc::from(domain), Arc::from(function)))
            .copied()
            .unwrap_or(true)
    }

    /// The HA070/HA071 test for an arbitrary flat subplan: safe exactly
    /// when every call it reads has a non-volatile verdict. (Flat plans
    /// are already unfolded, so the HA072 recursive case cannot arise —
    /// a recursive program has no finite flat plan to fingerprint.)
    pub fn verdict_for_calls<'c>(
        &self,
        reads: impl IntoIterator<Item = &'c Call>,
    ) -> SubplanVerdict {
        for (d, f) in reads {
            if self
                .calls
                .get(&(d.clone(), f.clone()))
                .copied()
                .unwrap_or(true)
            {
                return SubplanVerdict::Volatile;
            }
        }
        SubplanVerdict::Safe
    }

    /// Per-rule classifications, in rule order.
    pub fn rules(&self) -> &[RuleVerdict] {
        &self.rules
    }

    /// HA074: the fingerprints an update to `domain:function` dirties.
    /// Empty when no safe subplan reads the source.
    pub fn invalidation_scope(&self, domain: &str, function: &str) -> BTreeSet<Fingerprint> {
        self.scope
            .get(&(Arc::from(domain), Arc::from(function)))
            .cloned()
            .unwrap_or_default()
    }

    /// HA074 for every source a safe subplan reads, in source order.
    pub fn scopes(&self) -> impl Iterator<Item = (&Call, &BTreeSet<Fingerprint>)> {
        self.scope.iter()
    }

    /// Number of distinct source calls classified.
    pub fn call_count(&self) -> usize {
        self.calls.len()
    }

    /// Count of rules with each verdict: `(safe, volatile, recursive)`.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for r in &self.rules {
            match r.verdict {
                SubplanVerdict::Safe => t.0 += 1,
                SubplanVerdict::Volatile => t.1 += 1,
                SubplanVerdict::Recursive => t.2 += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::parse_program;

    fn forms(specs: &[&str]) -> Vec<QueryForm> {
        specs.iter().map(|f| QueryForm::parse(f).unwrap()).collect()
    }

    #[test]
    fn verdicts_match_the_pass_classification() {
        let program = parse_program(
            "p(A) :- in(A, feed:price('x')).\n\
             q(A) :- in(A, ref:name('x')).\n\
             reach(X, Y) :- in(Y, g:edge(X)).\n\
             reach(X, Y) :- reach(X, Z) & in(Y, g:edge(Z)).",
        )
        .unwrap();
        let vol = |d: &str, _f: &str| d == "feed";
        let v = MaterializationVerdicts::compute(
            &program,
            &forms(&["p(f)", "q(f)", "reach(b, f)"]),
            Some(&vol),
            None,
        );
        assert_eq!(v.tally(), (1, 1, 2));
        assert!(v.is_volatile("feed", "price"));
        assert!(!v.is_volatile("ref", "name"));
        assert!(
            v.is_volatile("nowhere", "seen"),
            "unknown calls are volatile"
        );
    }

    #[test]
    fn flat_subplan_verdict_follows_its_calls() {
        let program = parse_program(
            "p(A, B) :- in(A, d:f('k')) & in(B, e:g(A)).\n\
             v(A) :- in(A, feed:price('x')).",
        )
        .unwrap();
        let vol = |d: &str, _f: &str| d == "feed";
        let v = MaterializationVerdicts::compute(
            &program,
            &forms(&["p(f, f)", "v(f)"]),
            Some(&vol),
            None,
        );
        let safe: Vec<Call> = vec![
            (Arc::from("d"), Arc::from("f")),
            (Arc::from("e"), Arc::from("g")),
        ];
        assert_eq!(v.verdict_for_calls(safe.iter()), SubplanVerdict::Safe);
        let tainted: Vec<Call> = vec![
            (Arc::from("d"), Arc::from("f")),
            (Arc::from("feed"), Arc::from("price")),
        ];
        assert_eq!(
            v.verdict_for_calls(tainted.iter()),
            SubplanVerdict::Volatile
        );
    }

    #[test]
    fn invalidation_scope_covers_only_safe_rules() {
        let program = parse_program(
            "p(A) :- in(A, d:f('k')).\n\
             q(A) :- in(A, d:f('k')).\n\
             v(A) :- in(A, feed:price('x')) & in(A, d:f('k')).",
        )
        .unwrap();
        let vol = |d: &str, _f: &str| d == "feed";
        let v = MaterializationVerdicts::compute(
            &program,
            &forms(&["p(f)", "q(f)", "v(f)"]),
            Some(&vol),
            None,
        );
        // p and q share a fingerprint, so the scope of d:f is that one key.
        let scope = v.invalidation_scope("d", "f");
        assert_eq!(scope.len(), 1);
        // feed:price feeds no safe subplan.
        assert!(v.invalidation_scope("feed", "price").is_empty());
    }
}
