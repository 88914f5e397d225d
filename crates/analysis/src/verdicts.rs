//! The pass-7 materialization verdicts, as data.
//!
//! The HA070–HA074 diagnostics are built for humans: every entry allocates
//! a formatted message, a locus, and a suggestion. This struct is the
//! classification under them (safe / volatile / recursive per rule, plus
//! the per-source invalidation scope), computed once per program, which
//! the pass renders.
//!
//! The unit of classification is the *source call*: a subplan is safe to
//! snapshot exactly when every `(domain, function)` it reads is
//! non-volatile (HA071's test), and an update to a source dirties exactly
//! the fingerprints that transitively read it (HA074's scope). The
//! runtime subplan cache needs no copy of these verdicts: a flat plan
//! carries each call's route, and a call routed around the CIM is what
//! makes a source volatile there (`hermes_core::matcache`).

use crate::analyzer::{CacheRoutes, QueryForm};
use crate::fingerprint::{fingerprint_rule, Fingerprint, SubplanKey};
use crate::graph;
use crate::materialize::{adornment_for, transitive_calls};
use hermes_lang::{BodyAtom, Program};
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

/// The materialization verdicts for one program. Built by
/// [`MaterializationVerdicts::compute`].
#[derive(Clone, Debug, Default)]
pub struct MaterializationVerdicts {
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
        let reaching = graph::reaching_recursion(program);
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
            let bound = adornment_for(query_forms, rule);
            let key = fingerprint_rule(rule, &bound);
            // On a recursive SCC itself, or reading a predicate that
            // reaches one.
            let touches_recursion = recursive.contains(&rule.head.key())
                || rule
                    .body
                    .iter()
                    .any(|atom| matches!(atom, BodyAtom::Pred(p) if reaching.contains(&p.key())));
            let verdict = if touches_recursion {
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

        MaterializationVerdicts { rules, scope }
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

    fn verdicts(v: &MaterializationVerdicts) -> Vec<SubplanVerdict> {
        v.rules().iter().map(|r| r.verdict).collect()
    }

    #[test]
    fn verdicts_match_the_pass_classification() {
        use SubplanVerdict::{Recursive, Safe, Volatile};
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
        let vol = |d: &str, _f: &str| d == "feed";
        let v = MaterializationVerdicts::compute(
            &program,
            &forms(&["p(f)", "q(f)", "reach(b, f)"]),
            Some(&vol),
            None,
        );
        assert_eq!(v.tally(), (2, 1, 4));
        // `hop`'s second rule reads no recursive predicate, so it stays
        // safe; `via` reads `hop`, which reaches the `reach` cycle.
        assert_eq!(
            verdicts(&v),
            [Volatile, Safe, Recursive, Recursive, Recursive, Safe, Recursive]
        );
    }

    #[test]
    fn flat_subplan_verdict_follows_its_calls() {
        use SubplanVerdict::{Safe, Volatile};
        let program = parse_program(
            "p(A, B) :- in(A, d:f('k')) & in(B, e:g(A)).\n\
             v(A) :- in(A, feed:price('x')).",
        )
        .unwrap();
        let forms = forms(&["p(f, f)", "v(f)"]);
        let vol = |d: &str, _f: &str| d == "feed";
        let v = MaterializationVerdicts::compute(&program, &forms, Some(&vol), None);
        let reads: Vec<&str> = v.rules()[0].reads.iter().map(|(d, _)| &**d).collect();
        assert_eq!(reads, ["d", "e"]);
        assert_eq!(verdicts(&v), [Safe, Volatile]);
        // A call routed around the CIM taints every subplan reading it.
        let routes = |d: &str, _f: &str| d != "e";
        let v = MaterializationVerdicts::compute(&program, &forms, Some(&vol), Some(&routes));
        assert_eq!(verdicts(&v), [Volatile, Volatile]);
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
