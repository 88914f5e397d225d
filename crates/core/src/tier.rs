//! Adaptive plan tiers: canonical service levels with a deterministic,
//! rule-ordered selector and one-way fail-soft downgrade.
//!
//! Under overload the paper's mediator has only two outcomes: the full
//! answer, or a deadline abort. Tiers add a deterministic middle ground.
//! A query runs at exactly one of three canonical [`PlanTier`]s:
//!
//! * [`PlanTier::CacheOnly`] — serve only from the CIM (exact, equal,
//!   invariant-derived, partial, or stale entries); never touch the wire.
//! * [`PlanTier::CachedPlusCheapRemote`] — cache first, plus remote calls
//!   the DCSM estimates under the configured cheap-call threshold.
//! * [`PlanTier::Full`] — the paper-exact behavior: whatever plan the
//!   optimizer picked, every call allowed.
//!
//! [`select_tier`] is a pure function of its [`TierInputs`]: same inputs,
//! same tier, same reason — no randomness, no wall clock. Rules apply in
//! a fixed order (explicit override → breaker-forced fallback → budget
//! rule → load rule → default) and the first match wins. Mid-execution
//! the executor may *downgrade* one step when the per-query budget burns
//! down ([`TierReason::BudgetPressure`]); it never upgrades. Every
//! selection and downgrade carries a [`TierReason`] into the trace and
//! into answer provenance, so a degraded answer is always explainable.

use hermes_common::SimDuration;
use std::fmt;

/// A canonical service level for one query. Ordered: `CacheOnly` is the
/// cheapest, `Full` the most expensive; downgrades only move down.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlanTier {
    /// Serve from the CIM only; no remote calls at all.
    CacheOnly,
    /// Cache plus remote calls estimated under the cheap-call threshold.
    CachedPlusCheapRemote,
    /// The unrestricted paper-exact plan.
    Full,
}

impl PlanTier {
    /// Stable machine-readable name (used in traces, the REPL, and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            PlanTier::CacheOnly => "cache-only",
            PlanTier::CachedPlusCheapRemote => "cached-cheap",
            PlanTier::Full => "full",
        }
    }

    /// The next tier down, or `None` from the floor.
    pub fn downgraded(self) -> Option<PlanTier> {
        match self {
            PlanTier::Full => Some(PlanTier::CachedPlusCheapRemote),
            PlanTier::CachedPlusCheapRemote => Some(PlanTier::CacheOnly),
            PlanTier::CacheOnly => None,
        }
    }

    /// Parses the stable names accepted by the REPL's `:tier` command.
    pub fn parse(s: &str) -> Option<PlanTier> {
        match s {
            "cache-only" => Some(PlanTier::CacheOnly),
            "cached-cheap" => Some(PlanTier::CachedPlusCheapRemote),
            "full" => Some(PlanTier::Full),
            _ => None,
        }
    }
}

impl fmt::Display for PlanTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a tier was selected or a downgrade fired. Every variant has a
/// stable code; traces and provenance carry these, never prose alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TierReason {
    /// The caller pinned the tier via `QueryRequest::tier`.
    ExplicitOverride,
    /// A site the chosen plan must reach has an open circuit breaker;
    /// running the full plan would mostly burn retries.
    BreakerForced,
    /// The DCSM estimate for the chosen plan exceeds the query budget.
    BudgetRule,
    /// The admission gate is near capacity; new work starts cheaper.
    HighLoad,
    /// No rule fired: the paper-exact default.
    Default,
    /// Mid-execution: the budget burned down, so the executor stepped
    /// the tier down one level.
    BudgetPressure,
}

impl TierReason {
    /// The stable machine-readable code.
    pub fn code(self) -> &'static str {
        match self {
            TierReason::ExplicitOverride => "explicit-override",
            TierReason::BreakerForced => "breaker-forced",
            TierReason::BudgetRule => "budget-rule",
            TierReason::HighLoad => "high-load",
            TierReason::Default => "default",
            TierReason::BudgetPressure => "budget-pressure",
        }
    }
}

impl fmt::Display for TierReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Instantaneous load at the admission gate, as the selector sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierLoad {
    /// Queries currently admitted and executing.
    pub in_flight: usize,
    /// Gate capacity; `usize::MAX` means unbounded (the default).
    pub capacity: usize,
}

impl TierLoad {
    /// An unloaded, unbounded gate — what a request that engages the
    /// selector on its own sees when the gate is unbounded.
    pub fn unbounded() -> TierLoad {
        TierLoad {
            in_flight: 0,
            capacity: usize::MAX,
        }
    }

    /// True when the gate is at least three-quarters full.
    fn is_high(self) -> bool {
        self.capacity != usize::MAX && self.capacity > 0 && self.in_flight * 4 >= self.capacity * 3
    }
}

/// Everything [`select_tier`] looks at. Pure data: building the same
/// inputs always yields the same decision.
#[derive(Clone, Debug)]
pub struct TierInputs {
    /// Caller's explicit tier, if any (`QueryRequest::tier`).
    pub requested: Option<PlanTier>,
    /// Per-query budget, if any (`QueryRequest::budget`).
    pub budget: Option<SimDuration>,
    /// DCSM `T_all` estimate for the chosen plan, in milliseconds.
    pub estimate_ms: f64,
    /// True when some site the chosen plan must reach has an open breaker.
    pub plan_site_breaker_open: bool,
    /// Current admission-gate load.
    pub load: TierLoad,
}

/// One selector decision: the tier plus the rule that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierDecision {
    /// The tier the query will start at.
    pub tier: PlanTier,
    /// Which rule fired.
    pub reason: TierReason,
}

/// When the estimate overshoots the budget by this factor or more, the
/// budget rule drops straight to `CacheOnly` instead of `CachedPlusCheapRemote`.
const BUDGET_HOPELESS_FACTOR: f64 = 4.0;

/// The deterministic, rule-ordered tier selector. First match wins:
///
/// 1. **Explicit override** — the caller pinned a tier; honor it.
/// 2. **Breaker-forced fallback** — a plan site's breaker is open; start
///    at `CachedPlusCheapRemote` so the cache and healthy cheap sites
///    still serve while the broken site heals.
/// 3. **Budget rule** — the estimate exceeds the budget; start at
///    `CachedPlusCheapRemote`, or `CacheOnly` when the estimate is
///    hopeless (≥ 4× the budget).
/// 4. **Load rule** — the admission gate is ≥ 75% full; start new work
///    at `CachedPlusCheapRemote` to shed load gracefully.
/// 5. **Default** — `Full`, the paper-exact behavior.
pub fn select_tier(inputs: &TierInputs) -> TierDecision {
    if let Some(tier) = inputs.requested {
        return TierDecision {
            tier,
            reason: TierReason::ExplicitOverride,
        };
    }
    if inputs.plan_site_breaker_open {
        return TierDecision {
            tier: PlanTier::CachedPlusCheapRemote,
            reason: TierReason::BreakerForced,
        };
    }
    if let Some(budget) = inputs.budget {
        let budget_ms = budget.as_millis_f64();
        if inputs.estimate_ms > budget_ms {
            let tier = if inputs.estimate_ms >= budget_ms * BUDGET_HOPELESS_FACTOR {
                PlanTier::CacheOnly
            } else {
                PlanTier::CachedPlusCheapRemote
            };
            return TierDecision {
                tier,
                reason: TierReason::BudgetRule,
            };
        }
    }
    if inputs.load.is_high() {
        return TierDecision {
            tier: PlanTier::CachedPlusCheapRemote,
            reason: TierReason::HighLoad,
        };
    }
    TierDecision {
        tier: PlanTier::Full,
        reason: TierReason::Default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TierInputs {
        TierInputs {
            requested: None,
            budget: None,
            estimate_ms: 100.0,
            plan_site_breaker_open: false,
            load: TierLoad::unbounded(),
        }
    }

    #[test]
    fn default_rule_yields_full() {
        let d = select_tier(&base());
        assert_eq!(d.tier, PlanTier::Full);
        assert_eq!(d.reason, TierReason::Default);
    }

    #[test]
    fn explicit_override_beats_every_other_rule() {
        let mut inputs = base();
        inputs.requested = Some(PlanTier::Full);
        inputs.plan_site_breaker_open = true;
        inputs.budget = Some(SimDuration::from_millis(1));
        inputs.load = TierLoad {
            in_flight: 10,
            capacity: 10,
        };
        let d = select_tier(&inputs);
        assert_eq!(d.tier, PlanTier::Full);
        assert_eq!(d.reason, TierReason::ExplicitOverride);
    }

    #[test]
    fn open_breaker_forces_the_cheap_tier_before_the_budget_rule() {
        let mut inputs = base();
        inputs.plan_site_breaker_open = true;
        inputs.budget = Some(SimDuration::from_millis(1)); // would also fire
        let d = select_tier(&inputs);
        assert_eq!(d.tier, PlanTier::CachedPlusCheapRemote);
        assert_eq!(d.reason, TierReason::BreakerForced);
    }

    #[test]
    fn budget_rule_scales_with_overshoot() {
        let mut inputs = base();
        inputs.budget = Some(SimDuration::from_millis(60));
        inputs.estimate_ms = 100.0; // < 4x: cheap tier
        let d = select_tier(&inputs);
        assert_eq!(d.tier, PlanTier::CachedPlusCheapRemote);
        assert_eq!(d.reason, TierReason::BudgetRule);

        inputs.estimate_ms = 240.0; // = 4x: hopeless, cache only
        let d = select_tier(&inputs);
        assert_eq!(d.tier, PlanTier::CacheOnly);
        assert_eq!(d.reason, TierReason::BudgetRule);

        inputs.estimate_ms = 50.0; // within budget: rule does not fire
        let d = select_tier(&inputs);
        assert_eq!(d.tier, PlanTier::Full);
        assert_eq!(d.reason, TierReason::Default);
    }

    #[test]
    fn high_load_starts_new_work_cheap() {
        let mut inputs = base();
        inputs.load = TierLoad {
            in_flight: 3,
            capacity: 4,
        };
        let d = select_tier(&inputs);
        assert_eq!(d.tier, PlanTier::CachedPlusCheapRemote);
        assert_eq!(d.reason, TierReason::HighLoad);

        inputs.load.in_flight = 2; // under 75%
        assert_eq!(select_tier(&inputs).reason, TierReason::Default);

        inputs.load = TierLoad::unbounded(); // serial: never high
        assert_eq!(select_tier(&inputs).reason, TierReason::Default);
    }

    #[test]
    fn selector_is_deterministic_across_repeated_evaluation() {
        // Same inputs, many evaluations, one decision — the selector is a
        // pure function with no hidden state.
        for seed in 0..10u64 {
            let inputs = TierInputs {
                requested: None,
                budget: Some(SimDuration::from_millis(50 + seed * 10)),
                estimate_ms: 90.0 + seed as f64,
                plan_site_breaker_open: seed % 3 == 0,
                load: TierLoad {
                    in_flight: seed as usize,
                    capacity: 8,
                },
            };
            let first = select_tier(&inputs);
            for _ in 0..10 {
                assert_eq!(select_tier(&inputs), first, "seed {seed}");
            }
        }
    }

    #[test]
    fn tiers_are_ordered_and_downgrade_one_way() {
        assert!(PlanTier::CacheOnly < PlanTier::CachedPlusCheapRemote);
        assert!(PlanTier::CachedPlusCheapRemote < PlanTier::Full);
        assert_eq!(
            PlanTier::Full.downgraded(),
            Some(PlanTier::CachedPlusCheapRemote)
        );
        assert_eq!(
            PlanTier::CachedPlusCheapRemote.downgraded(),
            Some(PlanTier::CacheOnly)
        );
        assert_eq!(PlanTier::CacheOnly.downgraded(), None);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for tier in [
            PlanTier::CacheOnly,
            PlanTier::CachedPlusCheapRemote,
            PlanTier::Full,
        ] {
            assert_eq!(PlanTier::parse(tier.as_str()), Some(tier));
        }
        assert_eq!(PlanTier::parse("auto"), None);
        assert_eq!(PlanTier::parse("turbo"), None);
    }

    #[test]
    fn reason_codes_are_stable() {
        assert_eq!(TierReason::ExplicitOverride.code(), "explicit-override");
        assert_eq!(TierReason::BreakerForced.code(), "breaker-forced");
        assert_eq!(TierReason::BudgetRule.code(), "budget-rule");
        assert_eq!(TierReason::HighLoad.code(), "high-load");
        assert_eq!(TierReason::Default.code(), "default");
        assert_eq!(TierReason::BudgetPressure.code(), "budget-pressure");
    }
}
