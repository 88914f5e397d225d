//! Shared by the serving test files (`reactor.rs`, `netserve.rs`): the
//! source wrapper that keeps source calls off the reactor thread, and the
//! probe that shows every gate and tier permit came back.
#![allow(dead_code)] // each test file uses its own subset

use hermes::core::{TierReason, TraceEvent};
use hermes::domains::{CallOutcome, Domain, FunctionSig, NativeEstimator};
use hermes::{ConcurrentMediator, GateConfig, HermesError, PlanTier, QueryRequest, Value};
use std::sync::Arc;

/// Wraps a source so that a call executed on the thread named
/// `hermes-reactor` panics: the event loop may answer a query from the
/// cache, it must never wait on a source. Every world these test files
/// serve is built over it, so the whole of their traffic is checked.
pub struct OffReactor {
    inner: Arc<dyn Domain>,
}

impl OffReactor {
    pub fn new(inner: impl Domain + 'static) -> Self {
        OffReactor {
            inner: Arc::new(inner),
        }
    }
}

impl Domain for OffReactor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn functions(&self) -> Vec<FunctionSig> {
        self.inner.functions()
    }

    fn call(&self, function: &str, args: &[Value]) -> hermes::Result<CallOutcome> {
        assert_ne!(
            std::thread::current().name(),
            Some("hermes-reactor"),
            "source call {}:{function} ran on the reactor thread",
            self.inner.name()
        );
        self.inner.call(function, args)
    }

    fn native_estimator(&self) -> Option<&dyn NativeEstimator> {
        self.inner.native_estimator()
    }
}

/// Shows that no gate or tier permit is still out, through the public API
/// alone: a leaked gate slot makes a one-slot gate shed, a leaked tier
/// slot makes a one-slot tier shed or fall (traced as a `HighLoad` fall).
/// Leaves the gate unbounded. `query` must be answerable from the cache.
pub fn assert_permits_released(m: &ConcurrentMediator, query: &str) {
    m.set_gate(GateConfig::bounded(1));
    if let Err(e @ HermesError::Shed { .. }) = m.query(query) {
        panic!("a gate permit is still out: {e}");
    }
    // One slot per tier, no bound on the total (so load is never "high").
    let mut one_each = GateConfig::bounded(usize::MAX);
    one_each.cache_only_slots = 1;
    one_each.cached_cheap_slots = 1;
    one_each.full_slots = 1;
    m.set_gate(one_each);
    for tier in [
        PlanTier::Full,
        PlanTier::CachedPlusCheapRemote,
        PlanTier::CacheOnly,
    ] {
        let got = m
            .query(QueryRequest::new(query).tier(tier).trace(true))
            .unwrap_or_else(|e| panic!("a {tier} permit is still out: {e}"));
        let fell = got.trace.iter().any(|entry| {
            matches!(
                entry.event,
                TraceEvent::TierSelected {
                    reason: TierReason::HighLoad,
                    ..
                }
            )
        });
        assert!(
            !fell,
            "a {tier} permit is still out: the request fell a tier"
        );
    }
    m.set_gate(GateConfig::default());
}
