//! When to route a call through CIM.
//!
//! §4.1: "The decision to send all calls for a certain domain or some
//! specific function calls can be made prior to query execution." The
//! policy maps `domain` / `domain:function` to a routing decision; the rule
//! rewriter consults it when deciding whether to emit a CIM-routed plan
//! variant, and the executor consults it at run time for calls the
//! rewriter left direct.

use hermes_lang::Declarations;
use std::collections::BTreeMap;

/// Whether a call should go through CIM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingDecision {
    /// Look in the cache (and invariants) first; fall back to the source.
    UseCim,
    /// Always call the source directly.
    Direct,
}

/// A per-domain / per-function routing policy with a default.
///
/// Function routes are filed per domain, so [`decide`](Self::decide)
/// looks both grains up by `&str` and allocates nothing: the rewriter
/// asks once per call it places.
#[derive(Clone, Debug)]
pub struct CimPolicy {
    default: RoutingDecision,
    per_domain: BTreeMap<String, RoutingDecision>,
    per_function: BTreeMap<String, BTreeMap<String, RoutingDecision>>,
}

impl CimPolicy {
    /// Routes everything through CIM (the paper's experimental default for
    /// remote sources).
    pub fn cache_everything() -> Self {
        CimPolicy {
            default: RoutingDecision::UseCim,
            per_domain: BTreeMap::new(),
            per_function: BTreeMap::new(),
        }
    }

    /// Never uses CIM (the "no cache" baseline of Figure 5).
    pub fn never() -> Self {
        CimPolicy {
            default: RoutingDecision::Direct,
            per_domain: BTreeMap::new(),
            per_function: BTreeMap::new(),
        }
    }

    /// Overrides the decision for a whole domain.
    pub fn set_domain(&mut self, domain: impl Into<String>, decision: RoutingDecision) {
        self.per_domain.insert(domain.into(), decision);
    }

    /// Overrides the decision for one function of a domain (wins over the
    /// domain-level override).
    pub fn set_function(
        &mut self,
        domain: impl Into<String>,
        function: impl Into<String>,
        decision: RoutingDecision,
    ) {
        self.per_function
            .entry(domain.into())
            .or_default()
            .insert(function.into(), decision);
    }

    /// Applies a program's `%!` routing declarations — the one place they
    /// become routing decisions. With any `%! cache` line, the policy
    /// becomes exactly the routes those lines name (`%! cache never`: none);
    /// without one, it is left as it is. Every `%! volatile` source is then
    /// routed `Direct`, whatever `cache` says: a volatile answer has no
    /// invalidation signal, so no cache may hold it.
    pub fn declare(&mut self, declarations: &Declarations) {
        if let Some(cache) = &declarations.cache {
            *self = CimPolicy::never();
            for domain in &cache.domains {
                self.set_domain(domain.as_str(), RoutingDecision::UseCim);
            }
            for (domain, function) in &cache.functions {
                self.set_function(domain.as_str(), function.as_str(), RoutingDecision::UseCim);
            }
        }
        let volatile = &declarations.volatile;
        for domain in &volatile.domains {
            self.set_domain(domain.as_str(), RoutingDecision::Direct);
            // A function-level route would win over the domain's.
            self.per_function.remove(domain);
        }
        for (domain, function) in &volatile.functions {
            self.set_function(domain.as_str(), function.as_str(), RoutingDecision::Direct);
        }
    }

    /// The decision for `domain:function`.
    pub fn decide(&self, domain: &str, function: &str) -> RoutingDecision {
        self.per_function
            .get(domain)
            .and_then(|functions| functions.get(function))
            .or_else(|| self.per_domain.get(domain))
            .copied()
            .unwrap_or(self.default)
    }
}

impl Default for CimPolicy {
    fn default() -> Self {
        CimPolicy::cache_everything()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies() {
        assert_eq!(
            CimPolicy::cache_everything().decide("video", "video_size"),
            RoutingDecision::UseCim
        );
        assert_eq!(
            CimPolicy::never().decide("video", "video_size"),
            RoutingDecision::Direct
        );
    }

    #[test]
    fn domain_override() {
        let mut p = CimPolicy::cache_everything();
        p.set_domain("localdb", RoutingDecision::Direct);
        assert_eq!(p.decide("localdb", "all"), RoutingDecision::Direct);
        assert_eq!(p.decide("video", "all"), RoutingDecision::UseCim);
    }

    #[test]
    fn function_override_wins_over_domain() {
        let mut p = CimPolicy::never();
        p.set_domain("video", RoutingDecision::Direct);
        p.set_function("video", "frames_to_objects", RoutingDecision::UseCim);
        assert_eq!(
            p.decide("video", "frames_to_objects"),
            RoutingDecision::UseCim
        );
        assert_eq!(p.decide("video", "video_size"), RoutingDecision::Direct);
    }

    fn declared(base: CimPolicy, src: &str) -> CimPolicy {
        let mut policy = base;
        policy.declare(&hermes_lang::parse_program(src).unwrap().declarations);
        policy
    }

    #[test]
    fn cache_lines_replace_the_routing_and_their_absence_keeps_it() {
        let p = declared(CimPolicy::cache_everything(), "%! cache d\n%! cache e:f\n");
        assert_eq!(p.decide("d", "any"), RoutingDecision::UseCim);
        assert_eq!(p.decide("e", "f"), RoutingDecision::UseCim);
        assert_eq!(p.decide("e", "g"), RoutingDecision::Direct);
        let p = declared(CimPolicy::cache_everything(), "%! cache never\n");
        assert_eq!(p.decide("d", "f"), RoutingDecision::Direct);
        let p = declared(CimPolicy::never(), "p(A) :- in(A, d:f()).\n");
        assert_eq!(p.decide("d", "f"), RoutingDecision::Direct);
    }

    #[test]
    fn volatile_overrides_cache_at_either_grain() {
        let p = declared(
            CimPolicy::cache_everything(),
            "%! cache d:f\n%! cache e\n%! volatile d\n%! volatile e:g\n",
        );
        assert_eq!(p.decide("d", "f"), RoutingDecision::Direct);
        assert_eq!(p.decide("e", "g"), RoutingDecision::Direct);
        assert_eq!(p.decide("e", "h"), RoutingDecision::UseCim);
        let p = declared(CimPolicy::cache_everything(), "%! volatile d\n");
        assert_eq!(p.decide("d", "f"), RoutingDecision::Direct);
        assert_eq!(p.decide("x", "f"), RoutingDecision::UseCim);
    }
}
