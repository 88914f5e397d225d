//! Pass 6 — cacheability / tier starvation (**HA060**).
//!
//! The adaptive plan-tier machinery (overload, explicit `cache-only`
//! requests, budget pressure) falls back to serving queries from the CIM
//! alone. That only works if *something* can ever land in the CIM: at
//! least one domain call routed through it, or an invariant whose cached
//! answers can substitute for fresh ones. A program with domain calls but
//! neither is silently un-servable at the `cache-only` tier — every
//! downgraded query comes back empty. Better to say so at registration.
//!
//! The routing is the mediator's live `CimPolicy`, or on the lint path the
//! policy the file's `%! cache` and `%! volatile` lines declare. A plain
//! program routes every call through the CIM, so it never trips the pass.

use crate::diagnostic::{DiagCode, Diagnostic, Locus};
use hermes_lang::{BodyAtom, Invariant, Program};

/// Runs the pass. `routes(domain, function)` answers whether a call is
/// CIM-routed.
pub(crate) fn run(
    program: &Program,
    invariants: &[Invariant],
    routes: &dyn Fn(&str, &str) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let mut calls = 0usize;
    let mut routed = 0usize;
    for rule in &program.rules {
        for atom in &rule.body {
            if let BodyAtom::In { call, .. } = atom {
                calls += 1;
                if routes(&call.domain, &call.function) {
                    routed += 1;
                }
            }
        }
    }
    if calls == 0 || routed > 0 || !invariants.is_empty() {
        return;
    }
    out.push(
        Diagnostic::new(
            DiagCode::CacheStarved,
            Locus::Program,
            format!(
                "none of the program's {calls} domain call(s) is routed \
                 through the CIM and no invariant is declared: the \
                 `cache-only` plan tier can never serve an answer, so \
                 overload downgrades and explicit cache-only requests \
                 always come back empty"
            ),
        )
        .with_suggestion(
            "route at least one call through the CIM (e.g. drop `%! cache \
             never`, or add `%! cache <domain>`), or declare an invariant \
             whose cached answers can stand in for fresh ones",
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_lang::{parse_invariant, parse_program};

    fn diags(src: &str, invs: &[&str], routes: &dyn Fn(&str, &str) -> bool) -> Vec<Diagnostic> {
        let p = parse_program(src).unwrap();
        let invs: Vec<Invariant> = invs.iter().map(|s| parse_invariant(s).unwrap()).collect();
        let mut out = Vec::new();
        run(&p, &invs, routes, &mut out);
        out
    }

    #[test]
    fn ha060_fires_when_nothing_can_reach_the_cache() {
        let out = diags("p(A) :- in(A, d:f('x')).", &[], &|_, _| false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, DiagCode::CacheStarved);
        assert!(out[0].message.contains("cache-only"));
    }

    #[test]
    fn one_routed_call_is_enough() {
        let src = "p(A, B) :- in(A, d:f(B)) & in(B, e:g()).";
        let out = diags(src, &[], &|domain, _| domain == "e");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn an_invariant_is_enough() {
        let out = diags(
            "p(A) :- in(A, d:f('x')).",
            &["X > 0 => d:f(X) = d:f(X)."],
            &|_, _| false,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn programs_without_domain_calls_are_exempt() {
        let out = diags("p('a', 'b').", &[], &|_, _| false);
        assert!(out.is_empty(), "{out:?}");
    }
}
