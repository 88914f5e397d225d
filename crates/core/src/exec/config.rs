//! Executor knobs.

use crate::tier::PlanTier;
use hermes_common::SimDuration;

/// Simulated milliseconds per fact row scanned: what the walk charges and
/// what the cost model prices.
pub(crate) const FACT_ROW_MS: f64 = 0.002;

/// Ceiling on a single retry backoff sleep, in simulated milliseconds
/// (a base [`ExecConfig::retry_backoff_ms`] above it is its own cap).
pub const RETRY_BACKOFF_CAP_MS: f64 = 8_000.0;

/// Relative jitter added to each backoff sleep (up to +10%), drawn from a
/// seeded stream so runs stay deterministic.
pub(crate) const RETRY_JITTER_FRAC: f64 = 0.1;

/// Estimated `T_all` (DCSM, milliseconds) at or under which a remote call
/// still qualifies for the `CachedPlusCheapRemote` tier.
pub(crate) const CHEAP_CALL_MS: f64 = 250.0;

/// Executor knobs. Construct one as
/// `ExecConfig { field: value, ..ExecConfig::default() }`.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Feed observed call costs into DCSM.
    pub record_stats: bool,
    /// Store completed CIM-routed calls into the answer cache.
    pub store_results: bool,
    /// Per-query memoization of identical ground calls (§7 footnote's
    /// duplicate elimination; off by default to match assumption 3(b)).
    pub memoize_calls: bool,
    /// Collect a structured execution trace (off by default; costs an
    /// allocation per event).
    pub collect_trace: bool,
    /// Extra attempts after a call finds its site unavailable (covers the
    /// §1 "temporary unavailability" case when the cache cannot help).
    /// `0` means **no retries**: the first unavailability is final.
    pub retry_attempts: u32,
    /// Base of the capped exponential backoff: retry `k` waits
    /// `retry_backoff_ms * 2^(k-1)` simulated ms (plus jitter), capped at
    /// [`RETRY_BACKOFF_CAP_MS`].
    pub retry_backoff_ms: f64,
    /// Optional virtual-clock deadline, measured from the start of the
    /// run and checked at every call boundary. When it fires, evaluation
    /// unwinds cleanly: the answers produced so far are returned with
    /// per-subgoal completeness provenance (strict mode instead fails
    /// with [`HermesError::DeadlineExceeded`](hermes_common::HermesError::DeadlineExceeded)).
    pub deadline: Option<SimDuration>,
    /// Fail deadline-exceeded runs with an error instead of returning
    /// partial answers.
    pub deadline_strict: bool,
    /// Concurrent in-flight calls allowed when an *independence group* of
    /// the plan (consecutive calls sharing no unbound variables) is
    /// dispatched. `1` — the default — disables group dispatch entirely
    /// and preserves the paper's sequential pipelined executor exactly;
    /// `k > 1` overlaps up to `k` of a group's domain calls on the
    /// virtual timeline, and a group's repeated `(site, function)` calls
    /// piggyback on the first one's round trip (transfer time, no
    /// connect + RTT).
    /// Each dispatched call also costs
    /// [`DISPATCH_OVERHEAD_MS`](hermes_dcsm::DISPATCH_OVERHEAD_MS) of
    /// mediator time.
    pub max_parallel_calls: usize,
    /// The plan tier this run starts at. `Full` — the default — is the
    /// paper-exact executor; the cheaper tiers restrict which calls may
    /// go over the wire (see [`crate::tier`]).
    pub tier: PlanTier,
    /// Optional per-query time budget on the virtual clock. Unlike a
    /// deadline, burning through the budget does not abort: it steps the
    /// active tier down one level (one-way) and re-arms. Pair it with a
    /// larger `deadline` to guarantee the downgrade fires first.
    pub budget: Option<SimDuration>,
    /// Consult the subplan materialization cache ([`crate::matcache`]):
    /// serve repeated plans from their materialized answers, coalesce
    /// concurrent identical plans into one computation, and store
    /// complete results for later queries. Off by default — the
    /// paper-exact serial path recomputes every plan. Requires a cache
    /// attached via [`Executor::with_matcache`](super::Executor::with_matcache);
    /// a no-op without one.
    pub share_subplans: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            record_stats: true,
            store_results: true,
            memoize_calls: false,
            collect_trace: false,
            retry_attempts: 0,
            retry_backoff_ms: 500.0,
            deadline: None,
            deadline_strict: false,
            max_parallel_calls: 1,
            tier: PlanTier::Full,
            budget: None,
            share_subplans: false,
        }
    }
}
