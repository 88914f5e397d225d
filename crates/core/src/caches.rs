//! One coherent cache-control surface: the [`CacheControl`] facade.
//!
//! [`Mediator::caches`] hands out one facade over both cache tiers — the
//! CIM's ground-call answer cache and the subplan materialization cache
//! ([`crate::matcache`]):
//!
//! * [`CacheControl::stats`] — one snapshot of CIM manager counters,
//!   answer-cache counters + footprint, and matcache counters.
//! * [`CacheControl::invalidate_source`] — the "source answers changed"
//!   entry point: drops the source's ground-call entries *and* the
//!   materialized subplans that read it (the HA074 scope), in one call.
//! * [`CacheControl::clear`] — per-tier or whole-hierarchy flush.
//! * [`CacheControl::add_invariant`] / [`CacheControl::set_serve_stale`] —
//!   CIM knobs without the lock choreography.
//! * [`CacheControl::policy`] — a builder applying routing, the answer
//!   budget, and subplan sharing in one shot.
//!
//! Every method takes `&self` and works the same on any mediator, served
//! or not, at any shard count. `routing` and `share_subplans` are part of
//! the planning snapshot, so [`CachePolicy::apply`] installs a new
//! snapshot for them: queries staged afterwards plan with the new
//! settings, queries already staged finish with the old ones.

use crate::matcache::{MatCache, MatCacheStats};
use crate::server::Mediator;
use hermes_cim::{CacheStats, CimPolicy, CimStats};
use hermes_common::Result;
use hermes_lang::Invariant;

/// Which cache tier an operation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// The CIM's ground-call answer cache.
    Answers,
    /// The subplan materialization cache.
    Subplans,
    /// Both tiers.
    All,
}

/// One combined snapshot of every cache tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// CIM manager counters (exact/equal/partial hits, misses, stores).
    pub cim: CimStats,
    /// Answer-cache counters (inserts, evictions, bytes shared/copied).
    pub answers: CacheStats,
    /// Live ground-call entries.
    pub answer_entries: usize,
    /// Live ground-call bytes.
    pub answer_bytes: usize,
    /// Subplan materialization counters and footprint.
    pub subplans: MatCacheStats,
}

/// What [`CacheControl::invalidate_source`] dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationSweep {
    /// Ground-call entries dropped from the answer cache.
    pub answers_dropped: usize,
    /// Materialized subplans dropped (the HA074 scope of the source).
    pub subplans_dropped: usize,
}

/// The unified cache-control facade. Obtain one from
/// [`Mediator::caches`].
pub struct CacheControl<'m> {
    mediator: &'m Mediator,
}

impl<'m> CacheControl<'m> {
    pub(crate) fn new(mediator: &'m Mediator) -> Self {
        CacheControl { mediator }
    }

    /// One snapshot across both tiers.
    pub fn stats(&self) -> CacheSnapshot {
        let cim = &self.mediator.cim;
        CacheSnapshot {
            cim: cim.stats(),
            answers: cim.cache_stats(),
            answer_entries: cim.len(),
            answer_bytes: cim.bytes(),
            subplans: self.mediator.matcache.stats(),
        }
    }

    /// Reacts to "this source's answers changed": drops the source's
    /// ground-call entries and exactly the materialized subplans that
    /// (transitively) read it.
    pub fn invalidate_source(&self, domain: &str, function: &str) -> InvalidationSweep {
        InvalidationSweep {
            answers_dropped: self.mediator.cim.invalidate_function(domain, function),
            subplans_dropped: self.mediator.matcache.invalidate_source(domain, function),
        }
    }

    /// Empties one tier (or both). Counters persist; registered indexes
    /// and invariants survive.
    pub fn clear(&self, tier: CacheTier) {
        if matches!(tier, CacheTier::Answers | CacheTier::All) {
            self.mediator.cim.clear();
        }
        if matches!(tier, CacheTier::Subplans | CacheTier::All) {
            self.mediator.matcache.clear();
        }
    }

    /// Registers a §4.2 invariant with the CIM, in every shard. Returns
    /// the invariant's index in the store.
    pub fn add_invariant(&self, inv: Invariant) -> Result<usize> {
        self.mediator.cim.add_invariant(&inv)
    }

    /// Serve stale cached answers when a source is unreachable (§4.1's
    /// availability trade).
    pub fn set_serve_stale(&self, on: bool) {
        self.mediator.cim.set_serve_stale_on_outage(on);
    }

    /// The subplan cache handle — stats and targeted invalidation beyond
    /// what the facade methods cover.
    pub fn subplans(&self) -> &'m MatCache {
        &self.mediator.matcache
    }

    /// Starts a policy change; finish with [`CachePolicy::apply`].
    pub fn policy(self) -> CachePolicy<'m> {
        CachePolicy {
            control: self,
            routing: None,
            share_subplans: None,
            answer_budget: None,
        }
    }
}

/// A batched cache-policy change, built fluently from
/// [`CacheControl::policy`]. `routing` and `share_subplans` land together,
/// in one planning snapshot.
pub struct CachePolicy<'m> {
    control: CacheControl<'m>,
    routing: Option<CimPolicy>,
    share_subplans: Option<bool>,
    answer_budget: Option<Option<usize>>,
}

impl CachePolicy<'_> {
    /// Replaces the CIM routing policy (which calls go through the
    /// cache) for queries staged afterwards.
    pub fn routing(mut self, policy: CimPolicy) -> Self {
        self.routing = Some(policy);
        self
    }

    /// Enables/disables the subplan materialization cache
    /// (`ExecConfig::share_subplans`) for queries staged afterwards.
    pub fn share_subplans(mut self, on: bool) -> Self {
        self.share_subplans = Some(on);
        self
    }

    /// Byte budget of the ground-call answer cache (`None` = unbounded).
    pub fn answer_budget(mut self, bytes: Option<usize>) -> Self {
        self.answer_budget = Some(bytes);
        self
    }

    /// Applies every requested change.
    pub fn apply(self) -> Result<()> {
        let mediator = self.control.mediator;
        if self.routing.is_some() || self.share_subplans.is_some() {
            mediator.change_core(|core| {
                if let Some(routing) = self.routing {
                    // A call routed around the CIM has no invalidation
                    // signal: drop the snapshots that read one.
                    mediator.matcache.invalidate_direct(&routing);
                    core.policy = routing;
                }
                if let Some(on) = self.share_subplans {
                    core.config.exec.share_subplans = on;
                }
            });
        }
        if let Some(bytes) = self.answer_budget {
            mediator
                .cim
                .for_each_shard_mut(|_, shard| shard.cache_mut().set_budget(bytes));
        }
        Ok(())
    }
}
