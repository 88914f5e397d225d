//! One coherent cache-control surface: the [`CacheControl`] facade.
//!
//! [`Mediator::caches`](crate::Mediator::caches) and
//! [`ConcurrentMediator::caches`](crate::ConcurrentMediator::caches) hand
//! out one facade over both cache tiers — the CIM's ground-call answer
//! cache and the subplan materialization cache ([`crate::matcache`]):
//!
//! * [`CacheControl::stats`] — one snapshot of CIM manager counters,
//!   answer-cache counters + footprint, and matcache counters.
//! * [`CacheControl::invalidate_source`] — the "source answers changed"
//!   entry point: drops the source's ground-call entries *and* the
//!   materialized subplans that read it (the HA074 scope), in one call.
//! * [`CacheControl::clear`] — per-tier or whole-hierarchy flush.
//! * [`CacheControl::add_invariant`] / [`CacheControl::set_serve_stale`] —
//!   CIM knobs without the lock choreography.
//! * [`CacheControl::policy`] — a builder applying routing, budgets, and
//!   subplan sharing in one shot.
//!
//! The facade works identically over the serial mediator's `Mutex<Cim>`
//! and the concurrent mediator's `ShardedCim`, with one honest
//! difference: the concurrent mediator's planning core is immutable by
//! design, so [`CachePolicy::apply`] refuses `routing`/`share_subplans`
//! changes there instead of silently dropping them — configure those on
//! the serial mediator *before* `to_concurrent`.

use crate::exec::ExecConfig;
use crate::matcache::{MatCache, MatCacheStats};
use hermes_cim::{CacheStats, Cim, CimPolicy, CimStats, ShardedCim};
use hermes_common::sync::Mutex;
use hermes_common::{HermesError, Result};
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
#[derive(Clone, Copy, Debug, Default)]
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

/// The mediator state the facade reaches, serial or sharded.
enum Backend<'m> {
    Serial {
        cim: &'m Mutex<Cim>,
        policy: &'m mut CimPolicy,
        exec: &'m mut ExecConfig,
        /// The mediator's cache epoch; bumped when routing changes so the
        /// matcache verdicts refresh before the next query.
        epoch: &'m mut u64,
    },
    Shared {
        cim: &'m ShardedCim,
    },
}

/// The unified cache-control facade. Obtain one from
/// [`Mediator::caches`](crate::Mediator::caches) (full control) or
/// [`ConcurrentMediator::caches`](crate::ConcurrentMediator::caches)
/// (everything except planning-core knobs).
pub struct CacheControl<'m> {
    backend: Backend<'m>,
    matcache: &'m MatCache,
}

impl<'m> CacheControl<'m> {
    pub(crate) fn serial(
        cim: &'m Mutex<Cim>,
        policy: &'m mut CimPolicy,
        exec: &'m mut ExecConfig,
        epoch: &'m mut u64,
        matcache: &'m MatCache,
    ) -> Self {
        CacheControl {
            backend: Backend::Serial {
                cim,
                policy,
                exec,
                epoch,
            },
            matcache,
        }
    }

    pub(crate) fn shared(cim: &'m ShardedCim, matcache: &'m MatCache) -> Self {
        CacheControl {
            backend: Backend::Shared { cim },
            matcache,
        }
    }

    /// One snapshot across both tiers.
    pub fn stats(&self) -> CacheSnapshot {
        let (cim, answers, answer_entries, answer_bytes) = match &self.backend {
            Backend::Serial { cim, .. } => {
                let guard = cim.lock();
                (
                    guard.stats(),
                    guard.cache_stats(),
                    guard.cache().len(),
                    guard.cache().bytes(),
                )
            }
            Backend::Shared { cim } => (cim.stats(), cim.cache_stats(), cim.len(), cim.bytes()),
        };
        CacheSnapshot {
            cim,
            answers,
            answer_entries,
            answer_bytes,
            subplans: self.matcache.stats(),
        }
    }

    /// Reacts to "this source's answers changed": drops the source's
    /// ground-call entries and exactly the materialized subplans that
    /// (transitively) read it.
    pub fn invalidate_source(&self, domain: &str, function: &str) -> InvalidationSweep {
        let answers_dropped = match &self.backend {
            Backend::Serial { cim, .. } => {
                cim.lock().cache_mut().invalidate_function(domain, function)
            }
            Backend::Shared { cim } => cim.invalidate_function(domain, function),
        };
        InvalidationSweep {
            answers_dropped,
            subplans_dropped: self.matcache.invalidate_source(domain, function),
        }
    }

    /// Empties one tier (or both). Counters persist; registered indexes
    /// and invariants survive.
    pub fn clear(&self, tier: CacheTier) {
        if matches!(tier, CacheTier::Answers | CacheTier::All) {
            match &self.backend {
                Backend::Serial { cim, .. } => cim.lock().cache_mut().clear(),
                Backend::Shared { cim } => cim.clear(),
            }
        }
        if matches!(tier, CacheTier::Subplans | CacheTier::All) {
            self.matcache.clear();
        }
    }

    /// Registers a §4.2 invariant with the CIM (every shard, on the
    /// concurrent side). Returns how many stores now hold it.
    pub fn add_invariant(&self, inv: Invariant) -> Result<usize> {
        match &self.backend {
            Backend::Serial { cim, .. } => cim.lock().add_invariant(inv),
            Backend::Shared { cim } => cim.add_invariant(&inv),
        }
    }

    /// Serve stale cached answers when a source is unreachable (§4.1's
    /// availability trade).
    pub fn set_serve_stale(&self, on: bool) {
        match &self.backend {
            Backend::Serial { cim, .. } => cim.lock().set_serve_stale_on_outage(on),
            Backend::Shared { cim } => cim.set_serve_stale_on_outage(on),
        }
    }

    /// The subplan cache handle — stats, budgets, and targeted
    /// invalidation beyond what the facade methods cover.
    pub fn subplans(&self) -> &'m MatCache {
        self.matcache
    }

    /// Starts a policy change; finish with [`CachePolicy::apply`].
    pub fn policy(self) -> CachePolicy<'m> {
        CachePolicy {
            control: self,
            routing: None,
            serve_stale: None,
            share_subplans: None,
            answer_budget: None,
            subplan_budget: None,
            subplan_min_savings: None,
        }
    }
}

/// A batched cache-policy change, built fluently from
/// [`CacheControl::policy`] and applied atomically enough for
/// configuration purposes (each knob lands in one call).
pub struct CachePolicy<'m> {
    control: CacheControl<'m>,
    routing: Option<CimPolicy>,
    serve_stale: Option<bool>,
    share_subplans: Option<bool>,
    answer_budget: Option<Option<usize>>,
    subplan_budget: Option<usize>,
    subplan_min_savings: Option<f64>,
}

impl CachePolicy<'_> {
    /// Replaces the CIM routing policy (which calls go through the
    /// cache). Serial mediator only — routing binds at `to_concurrent`.
    pub fn routing(mut self, policy: CimPolicy) -> Self {
        self.routing = Some(policy);
        self
    }

    /// Serve stale cached answers on outage.
    pub fn serve_stale(mut self, on: bool) -> Self {
        self.serve_stale = Some(on);
        self
    }

    /// Enables/disables the subplan materialization cache for queries
    /// (`ExecConfig::share_subplans`). Serial mediator only — the setting
    /// binds at `to_concurrent`.
    pub fn share_subplans(mut self, on: bool) -> Self {
        self.share_subplans = Some(on);
        self
    }

    /// Byte budget of the ground-call answer cache (`None` = unbounded).
    pub fn answer_budget(mut self, bytes: Option<usize>) -> Self {
        self.answer_budget = Some(bytes);
        self
    }

    /// Byte budget of the subplan cache.
    pub fn subplan_budget(mut self, bytes: usize) -> Self {
        self.subplan_budget = Some(bytes);
        self
    }

    /// Admission floor of the subplan cache (estimated saved ms).
    pub fn subplan_min_savings(mut self, ms: f64) -> Self {
        self.subplan_min_savings = Some(ms);
        self
    }

    /// Applies every requested change. Fails — before changing anything —
    /// if a planning-core knob (`routing`, `share_subplans`) was requested
    /// on a concurrent mediator, whose planning core is immutable.
    pub fn apply(self) -> Result<()> {
        match self.control.backend {
            Backend::Serial {
                cim,
                policy,
                exec,
                epoch,
            } => {
                if let Some(routing) = self.routing {
                    *policy = routing;
                    // Routing decides volatility (a call routed around
                    // the CIM has no invalidation signal), so installed
                    // verdicts are stale: bump the epoch to refresh.
                    *epoch += 1;
                }
                if let Some(on) = self.share_subplans {
                    exec.share_subplans = on;
                }
                if let Some(on) = self.serve_stale {
                    cim.lock().set_serve_stale_on_outage(on);
                }
                if let Some(bytes) = self.answer_budget {
                    cim.lock().cache_mut().set_budget(bytes);
                }
            }
            Backend::Shared { cim } => {
                if self.routing.is_some() || self.share_subplans.is_some() {
                    return Err(HermesError::Eval(
                        "routing and subplan sharing bind at `to_concurrent` time; \
                         set them on the serial mediator first"
                            .into(),
                    ));
                }
                if let Some(on) = self.serve_stale {
                    cim.set_serve_stale_on_outage(on);
                }
                if let Some(bytes) = self.answer_budget {
                    cim.for_each_shard_mut(|_, shard| shard.cache_mut().set_budget(bytes));
                }
            }
        }
        if let Some(bytes) = self.subplan_budget {
            self.control.matcache.set_budget(bytes);
        }
        if let Some(ms) = self.subplan_min_savings {
            self.control.matcache.set_min_savings(ms);
        }
        Ok(())
    }
}
