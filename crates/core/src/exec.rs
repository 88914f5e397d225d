//! The pipelined plan executor.
//!
//! Evaluation is nested-loops with left-to-right backtracking (the §7
//! execution model) on the mediator's virtual clock:
//!
//! * every answer of a domain call carries a *charge schedule* — the first
//!   answer costs the call's `t_first`, later answers amortize the
//!   remaining `t_all − t_first` — so time-to-first-answer and early
//!   termination behave like the real pipelined system;
//! * CIM-routed calls run the §4.1 pipeline: exact/equality hits answer
//!   from the cache, subset (partial) hits yield the cached prefix fast
//!   and issue the actual call *in parallel* on the virtual timeline
//!   (configurable, for the Figure 5 ablation);
//! * completed actual calls feed the DCSM statistics cache and (for
//!   CIM-routed calls) the answer cache, closing the feedback loop;
//! * a source that is temporarily unavailable fails the query unless the
//!   cache can still serve it — then the result is delivered but flagged
//!   incomplete, the paper's §1 motivation for result caching.

use crate::breaker::{Admission, BreakerBank};
use crate::flight::{FlightRole, InFlightRegistry};
use crate::matcache::{MatCache, MatLookup, MatTicket};
use crate::plan::{Plan, PlanStep, Route};
use crate::serve::parked;
use crate::tier::{PlanTier, TierReason};
use crate::trace::{TraceEntry, TraceEvent};
use hermes_cim::{CimPreview, CimResolution, CimView};
use hermes_common::sync::Mutex;
use hermes_common::{
    CallPattern, GroundCall, HermesError, PatArg, Result, Rng64, SimClock, SimDuration, SimInstant,
    Value,
};
use hermes_dcsm::DcsmView;
use hermes_lang::{Relop, Subst, Term};
use hermes_net::{Network, RemoteOutcome};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// A streaming answer sink: receives each answer binding and the elapsed
/// virtual time; returning `false` stops the run.
pub type AnswerSink<'s> = &'s mut dyn FnMut(&Subst, SimDuration) -> bool;

/// Executor knobs.
///
/// The struct is `#[non_exhaustive]`: outside `hermes-core`, construct it
/// with [`ExecConfig::builder`] (or start from [`ExecConfig::default`] and
/// assign fields) so new knobs can be added without breaking callers.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Issue the actual call concurrently with serving cached partial
    /// answers (§4.1: "it is possible to make the actual domain call in
    /// parallel whenever a partial answer set is obtained").
    pub partial_parallel: bool,
    /// Feed observed call costs into DCSM.
    pub record_stats: bool,
    /// Store completed CIM-routed calls into the answer cache.
    pub store_results: bool,
    /// Per-query memoization of identical ground calls (§7 footnote's
    /// duplicate elimination; off by default to match assumption 3(b)).
    pub memoize_calls: bool,
    /// Simulated milliseconds per fact row scanned.
    pub fact_row_ms: f64,
    /// Collect a structured execution trace (off by default; costs an
    /// allocation per event).
    pub collect_trace: bool,
    /// Extra attempts after a call finds its site unavailable (covers the
    /// §1 "temporary unavailability" case when the cache cannot help).
    /// `0` means **no retries**: the first unavailability is final.
    pub retry_attempts: u32,
    /// Base of the capped exponential backoff: retry `k` waits
    /// `retry_backoff_ms * 2^(k-1)` simulated ms (plus jitter), capped at
    /// [`retry_backoff_cap_ms`](Self::retry_backoff_cap_ms).
    pub retry_backoff_ms: f64,
    /// Ceiling on a single backoff sleep.
    pub retry_backoff_cap_ms: f64,
    /// Relative jitter added to each backoff sleep (`0.1` = up to +10%),
    /// drawn from a seeded stream so runs stay deterministic.
    pub retry_jitter_frac: f64,
    /// Seed of the backoff-jitter stream.
    pub retry_seed: u64,
    /// Optional virtual-clock deadline, measured from the start of the
    /// run and checked at every call boundary. When it fires, evaluation
    /// unwinds cleanly: the answers produced so far are returned with
    /// per-subgoal completeness provenance (strict mode instead fails
    /// with [`HermesError::DeadlineExceeded`]).
    pub deadline: Option<SimDuration>,
    /// Fail deadline-exceeded runs with an error instead of returning
    /// partial answers.
    pub deadline_strict: bool,
    /// Concurrent in-flight calls allowed when an *independence group* of
    /// the plan (consecutive calls sharing no unbound variables) is
    /// dispatched. `1` — the default — disables group dispatch entirely
    /// and preserves the paper's sequential pipelined executor exactly;
    /// `k > 1` overlaps up to `k` of a group's domain calls on the
    /// virtual timeline.
    pub max_parallel_calls: usize,
    /// Within one dispatched group, let repeated `(site, function)` calls
    /// piggyback on the first one's round trip: the repeats pay transfer
    /// time but not connect + RTT.
    pub batch_calls: bool,
    /// Simulated mediator-side milliseconds to put one call of a
    /// dispatched group in flight.
    pub dispatch_overhead_ms: f64,
    /// The plan tier this run starts at. `Full` — the default — is the
    /// paper-exact executor; the cheaper tiers restrict which calls may
    /// go over the wire (see [`crate::tier`]).
    pub tier: PlanTier,
    /// Optional per-query time budget on the virtual clock. Unlike a
    /// deadline, burning through the budget does not abort: it steps the
    /// active tier down one level (one-way) and re-arms. Pair it with a
    /// larger `deadline` to guarantee the downgrade fires first.
    pub budget: Option<SimDuration>,
    /// Estimated `T_all` (DCSM, milliseconds) at or under which a remote
    /// call still qualifies for the `CachedPlusCheapRemote` tier.
    pub cheap_call_ms: f64,
    /// Consult the subplan materialization cache ([`crate::matcache`]):
    /// serve repeated plans from their materialized answers, coalesce
    /// concurrent identical plans into one computation, and store
    /// complete results for later queries. Off by default — the
    /// paper-exact serial path recomputes every plan. Requires a cache
    /// attached via [`Executor::with_matcache`]; a no-op without one.
    pub share_subplans: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            partial_parallel: true,
            record_stats: true,
            store_results: true,
            memoize_calls: false,
            fact_row_ms: 0.002,
            collect_trace: false,
            retry_attempts: 0,
            retry_backoff_ms: 500.0,
            retry_backoff_cap_ms: 8_000.0,
            retry_jitter_frac: 0.1,
            retry_seed: 0x4245_4b45_5321,
            deadline: None,
            deadline_strict: false,
            max_parallel_calls: 1,
            batch_calls: true,
            dispatch_overhead_ms: 0.05,
            tier: PlanTier::Full,
            budget: None,
            cheap_call_ms: 250.0,
            share_subplans: false,
        }
    }
}

impl ExecConfig {
    /// A builder starting from [`ExecConfig::default`] — the only way to
    /// construct a customized config outside `hermes-core`.
    pub fn builder() -> ExecConfigBuilder {
        ExecConfigBuilder {
            config: ExecConfig::default(),
        }
    }
}

/// Builds an [`ExecConfig`]; obtain one via [`ExecConfig::builder`].
#[derive(Clone, Copy, Debug)]
pub struct ExecConfigBuilder {
    config: ExecConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        impl ExecConfigBuilder {
            $(
                $(#[$doc])*
                pub fn $field(mut self, value: $ty) -> Self {
                    self.config.$field = value;
                    self
                }
            )*

            /// Finishes the build.
            pub fn build(self) -> ExecConfig {
                self.config
            }
        }
    };
}

builder_setters! {
    /// See [`ExecConfig::partial_parallel`].
    partial_parallel: bool,
    /// See [`ExecConfig::record_stats`].
    record_stats: bool,
    /// See [`ExecConfig::store_results`].
    store_results: bool,
    /// See [`ExecConfig::memoize_calls`].
    memoize_calls: bool,
    /// See [`ExecConfig::fact_row_ms`].
    fact_row_ms: f64,
    /// See [`ExecConfig::collect_trace`].
    collect_trace: bool,
    /// See [`ExecConfig::retry_attempts`].
    retry_attempts: u32,
    /// See [`ExecConfig::retry_backoff_ms`].
    retry_backoff_ms: f64,
    /// See [`ExecConfig::retry_backoff_cap_ms`].
    retry_backoff_cap_ms: f64,
    /// See [`ExecConfig::retry_jitter_frac`].
    retry_jitter_frac: f64,
    /// See [`ExecConfig::retry_seed`].
    retry_seed: u64,
    /// See [`ExecConfig::deadline`].
    deadline: Option<SimDuration>,
    /// See [`ExecConfig::deadline_strict`].
    deadline_strict: bool,
    /// See [`ExecConfig::max_parallel_calls`].
    max_parallel_calls: usize,
    /// See [`ExecConfig::batch_calls`].
    batch_calls: bool,
    /// See [`ExecConfig::dispatch_overhead_ms`].
    dispatch_overhead_ms: f64,
    /// See [`ExecConfig::tier`].
    tier: PlanTier,
    /// See [`ExecConfig::budget`].
    budget: Option<SimDuration>,
    /// See [`ExecConfig::cheap_call_ms`].
    cheap_call_ms: f64,
    /// See [`ExecConfig::share_subplans`].
    share_subplans: bool,
}

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Call steps entered (including repeats from backtracking).
    pub calls_attempted: u64,
    /// Calls that actually reached a source over the network.
    pub actual_calls: u64,
    /// CIM exact hits.
    pub cim_exact: u64,
    /// CIM equality-invariant hits.
    pub cim_equal: u64,
    /// CIM partial (subset-invariant) hits.
    pub cim_partial: u64,
    /// CIM misses.
    pub cim_miss: u64,
    /// Misses executed through an invariant substitute call.
    pub substituted_calls: u64,
    /// Calls answered from the per-query memo.
    pub memo_hits: u64,
    /// Actual calls skipped because the consumer stopped early.
    pub cancelled_calls: u64,
    /// Call attempts that found their site unavailable.
    pub unavailable: u64,
    /// Retries issued after unavailability.
    pub retries: u64,
    /// Bytes received from sources.
    pub bytes: u64,
    /// Breakers tripped open by consecutive failures.
    pub breaker_trips: u64,
    /// Calls short-circuited by an open breaker (no network time paid).
    pub breaker_short_circuits: u64,
    /// Probe calls admitted by half-open breakers.
    pub breaker_probes: u64,
    /// Breakers closed by a successful probe.
    pub breaker_recoveries: u64,
    /// Runs aborted by the deadline.
    pub deadline_aborts: u64,
    /// Actual calls whose answer set arrived truncated (injected fault).
    pub truncated_calls: u64,
    /// Independence groups dispatched concurrently.
    pub parallel_groups: u64,
    /// Calls put in flight as part of a dispatched group.
    pub overlapped_calls: u64,
    /// Group calls that piggybacked on an earlier call's round trip.
    pub batched_calls: u64,
    /// Simulated microseconds saved by overlap (serial sum − makespan).
    pub overlap_saved_us: u64,
    /// Calls that joined another query's identical in-flight call instead
    /// of opening their own (single-flight followers).
    pub calls_coalesced: u64,
    /// Coalesced calls actually served by the leader's published outcome —
    /// each one is a source round trip this query never paid. (A follower
    /// whose leader failed falls back to its own call and saves nothing.)
    pub round_trips_saved: u64,
    /// Mid-execution tier downgrades fired by budget pressure.
    pub tier_downgrades: u64,
    /// Remote calls skipped because the active tier forbade them.
    pub tier_skipped_calls: u64,
    /// Runs served whole from a materialized subplan entry.
    pub subplan_hits: u64,
    /// Complete plan results admitted into the subplan cache.
    pub subplans_materialized: u64,
    /// Runs served by another query's in-flight subplan computation
    /// (single-flight followers at the plan level).
    pub subplans_coalesced: u64,
    /// Complete plan results the subplan cache refused to admit
    /// (admission price or byte budget).
    pub subplan_rejections: u64,
}

impl ExecStats {
    /// Adds `other`'s counters into `self` — used to carry the work a
    /// failed plan attempt did into the result of the plan that finally
    /// answered (failover must not make burned calls disappear).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.calls_attempted += other.calls_attempted;
        self.actual_calls += other.actual_calls;
        self.cim_exact += other.cim_exact;
        self.cim_equal += other.cim_equal;
        self.cim_partial += other.cim_partial;
        self.cim_miss += other.cim_miss;
        self.substituted_calls += other.substituted_calls;
        self.memo_hits += other.memo_hits;
        self.cancelled_calls += other.cancelled_calls;
        self.unavailable += other.unavailable;
        self.retries += other.retries;
        self.bytes += other.bytes;
        self.breaker_trips += other.breaker_trips;
        self.breaker_short_circuits += other.breaker_short_circuits;
        self.breaker_probes += other.breaker_probes;
        self.breaker_recoveries += other.breaker_recoveries;
        self.deadline_aborts += other.deadline_aborts;
        self.truncated_calls += other.truncated_calls;
        self.parallel_groups += other.parallel_groups;
        self.overlapped_calls += other.overlapped_calls;
        self.batched_calls += other.batched_calls;
        self.overlap_saved_us += other.overlap_saved_us;
        self.calls_coalesced += other.calls_coalesced;
        self.round_trips_saved += other.round_trips_saved;
        self.tier_downgrades += other.tier_downgrades;
        self.tier_skipped_calls += other.tier_skipped_calls;
        self.subplan_hits += other.subplan_hits;
        self.subplans_materialized += other.subplans_materialized;
        self.subplans_coalesced += other.subplans_coalesced;
        self.subplan_rejections += other.subplan_rejections;
    }
}

/// Why part of a subgoal's answer set may be missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncompleteReason {
    /// The subgoal's site was unavailable and the cache could only serve
    /// a prefix.
    SiteUnavailable {
        /// The unreachable site.
        site: String,
    },
    /// An open circuit breaker short-circuited the subgoal's call.
    BreakerOpen {
        /// The isolated site.
        site: String,
    },
    /// The query's deadline fired before the subgoal finished.
    DeadlineExceeded,
    /// The active plan tier forbade the subgoal's remote call: the query
    /// was selected into (or downgraded to) a cheaper tier, and only the
    /// cache could serve this subgoal. Distinct from `DeadlineExceeded` —
    /// a downgrade is a deliberate fail-soft decision, not a timeout.
    Downgraded,
    /// An injected fault truncated the subgoal's answer set in flight.
    Truncated {
        /// The site whose answers were cut short.
        site: String,
    },
}

impl fmt::Display for IncompleteReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncompleteReason::SiteUnavailable { site } => {
                write!(f, "site `{site}` unavailable")
            }
            IncompleteReason::BreakerOpen { site } => {
                write!(f, "breaker open for `{site}`")
            }
            IncompleteReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            IncompleteReason::Downgraded => {
                write!(f, "downgraded to a cheaper plan tier")
            }
            IncompleteReason::Truncated { site } => {
                write!(f, "answers truncated by `{site}`")
            }
        }
    }
}

/// Completeness provenance for one call step of the plan: which subgoal,
/// and every reason its contribution may be partial. Replaces a single
/// query-wide boolean with an auditable per-subgoal account.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubgoalProvenance {
    /// The subgoal (rendered call template) this entry covers.
    pub subgoal: String,
    /// Gaps observed while evaluating it; empty means complete.
    pub gaps: Vec<IncompleteReason>,
}

impl SubgoalProvenance {
    /// True when no gaps were recorded for this subgoal.
    pub fn complete(&self) -> bool {
        self.gaps.is_empty()
    }
}

/// The result of executing a plan.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// Full variable bindings, one per answer, in production order.
    pub answers: Vec<Subst>,
    /// Time to the first answer (None if there were no answers).
    pub t_first: Option<SimDuration>,
    /// Time to completion (or to the stop point, in limited runs).
    pub t_all: SimDuration,
    /// Counters.
    pub stats: ExecStats,
    /// True when any subgoal's answers may be incomplete (derived from
    /// `provenance`).
    pub incomplete: bool,
    /// Per-subgoal completeness provenance, one entry per call step.
    pub provenance: Vec<SubgoalProvenance>,
    /// The execution trace (empty unless `collect_trace` was set).
    pub trace: Vec<TraceEntry>,
}

struct RunState<'s> {
    answers: Vec<Subst>,
    limit: Option<usize>,
    t_first: Option<SimDuration>,
    start: SimInstant,
    incomplete: bool,
    /// One entry per call step of the plan, in step order.
    provenance: Vec<SubgoalProvenance>,
    /// Plan step index → slot in `provenance`.
    prov_slot: HashMap<usize, usize>,
    /// Optional streaming sink: called with each answer and the elapsed
    /// virtual time; returning `false` stops the run (the §3 interactive
    /// mode's "user doesn't want more answers").
    sink: Option<AnswerSink<'s>>,
}

impl RunState<'_> {
    /// Records a completeness gap against the call step at `idx`
    /// (deduplicated).
    fn mark_gap(&mut self, idx: usize, reason: IncompleteReason) {
        self.incomplete = true;
        if let Some(&slot) = self.prov_slot.get(&idx) {
            let gaps = &mut self.provenance[slot].gaps;
            if !gaps.contains(&reason) {
                gaps.push(reason);
            }
        }
    }
}

/// The executor. Borrow the mediator's shared CIM/DCSM and network, hand
/// it a clock, run one plan.
///
/// The CIM and DCSM are reached through their shared-state views; both
/// mediators hand it their sharded caches (one shard each on the serial
/// face).
pub struct Executor<'w> {
    network: &'w Network,
    cim: &'w dyn CimView,
    dcsm: &'w dyn DcsmView,
    config: ExecConfig,
    clock: SimClock,
    stats: ExecStats,
    memo: HashMap<GroundCall, Arc<[Value]>>,
    trace: Vec<TraceEntry>,
    /// Shared per-site circuit breakers (the mediator's bank, so breaker
    /// state persists across queries). `None` disables breaking.
    breakers: Option<&'w Mutex<BreakerBank>>,
    /// Seeded stream for backoff jitter — runs replay deterministically.
    retry_rng: Rng64,
    /// Absolute deadline instant, fixed when the run starts.
    deadline_at: Option<SimInstant>,
    /// The plan's independence groups, keyed by starting step index.
    /// Empty unless `max_parallel_calls > 1`.
    groups: HashMap<usize, std::ops::Range<usize>>,
    /// Outcomes fetched ahead by a group dispatch, keyed by the step
    /// index and the call that actually went over the wire. Consumption
    /// serves them at zero additional charge — the group barrier already
    /// paid the overlapped makespan.
    prefetch: HashMap<(usize, GroundCall), RemoteOutcome>,
    /// Shared single-flight registry: identical calls from concurrent
    /// queries coalesce into one source round trip. Both mediator faces
    /// attach theirs; `None` (a bare executor) disables coalescing.
    flight: Option<&'w InFlightRegistry>,
    /// Shared subplan materialization cache. `None`, or
    /// `share_subplans: false`, disables whole-plan caching.
    matcache: Option<&'w MatCache>,
    /// The tier the run is currently serving at. Starts at
    /// `config.tier`; budget pressure may step it down, never up.
    tier: PlanTier,
    /// Next budget checkpoint on the virtual clock; `None` disarms.
    budget_at: Option<SimInstant>,
}

impl<'w> Executor<'w> {
    /// Builds an executor.
    pub fn new(
        network: &'w Network,
        cim: &'w dyn CimView,
        dcsm: &'w dyn DcsmView,
        clock: SimClock,
        config: ExecConfig,
    ) -> Self {
        Executor {
            network,
            cim,
            dcsm,
            config,
            clock,
            stats: ExecStats::default(),
            memo: HashMap::new(),
            trace: Vec::new(),
            breakers: None,
            retry_rng: Rng64::new(config.retry_seed),
            deadline_at: None,
            groups: HashMap::new(),
            prefetch: HashMap::new(),
            flight: None,
            matcache: None,
            tier: config.tier,
            budget_at: None,
        }
    }

    /// Attaches a shared circuit-breaker bank: calls consult it before
    /// going out, and trip/recover transitions are recorded into it.
    pub fn with_breakers(mut self, bank: &'w Mutex<BreakerBank>) -> Self {
        self.breakers = Some(bank);
        self
    }

    /// Attaches a shared single-flight registry: before reaching the
    /// source, calls join the registry and either lead (one real round
    /// trip) or follow (block for the leader's published answers).
    pub fn with_flight(mut self, registry: &'w InFlightRegistry) -> Self {
        self.flight = Some(registry);
        self
    }

    /// Attaches a shared subplan materialization cache: runs with
    /// [`ExecConfig::share_subplans`] set serve repeated plans from their
    /// materialized answers and store complete results for later queries.
    pub fn with_matcache(mut self, cache: &'w MatCache) -> Self {
        self.matcache = Some(cache);
        self
    }

    /// Appends a trace event when collection is enabled.
    fn note(&mut self, event: TraceEvent) {
        if self.config.collect_trace {
            self.trace.push(TraceEntry {
                at: self.clock.now(),
                event,
            });
        }
    }

    /// Runs a plan, producing up to `limit` answers (all when `None`).
    pub fn run(&mut self, plan: &Plan, limit: Option<usize>) -> Result<ExecOutcome> {
        self.run_with_sink(plan, limit, None)
    }

    /// The executor's current virtual time. Meaningful after a failed run
    /// too: a caller that retries elsewhere still owes the time this
    /// attempt burned.
    pub fn now(&self) -> hermes_common::SimInstant {
        self.clock.now()
    }

    /// Counters so far — like [`Executor::now`], available after a failed
    /// run, whose work would otherwise be unaccounted for.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Runs a plan, streaming each answer into `sink` as it is produced.
    /// The sink returning `false` stops evaluation — pending source calls
    /// are cancelled, like the paper's interactive mode.
    pub fn run_with_sink(
        &mut self,
        plan: &Plan,
        limit: Option<usize>,
        sink: Option<AnswerSink<'_>>,
    ) -> Result<ExecOutcome> {
        let mut provenance = Vec::new();
        let mut prov_slot = HashMap::new();
        for (i, step) in plan.steps.iter().enumerate() {
            if let PlanStep::Call { call, .. } = step {
                prov_slot.insert(i, provenance.len());
                provenance.push(SubgoalProvenance {
                    subgoal: call.to_string(),
                    gaps: Vec::new(),
                });
            }
        }
        let mut out = RunState {
            answers: Vec::new(),
            limit,
            t_first: None,
            start: self.clock.now(),
            incomplete: false,
            provenance,
            prov_slot,
            sink,
        };
        self.deadline_at = self.config.deadline.map(|d| out.start + d);
        self.tier = self.config.tier;
        self.budget_at = self.config.budget.map(|b| out.start + b);
        self.groups = if self.config.max_parallel_calls > 1 {
            crate::plan::independence_groups(&plan.steps)
                .into_iter()
                .map(|r| (r.start, r))
                .collect()
        } else {
            HashMap::new()
        };
        self.prefetch.clear();

        // Subplan materialization (matcache). A ticket exists only when
        // sharing is on, a cache is attached, and the installed verdicts
        // classify every source the plan reads as safe (HA070/HA071).
        let mat = if self.config.share_subplans {
            self.matcache
        } else {
            None
        };
        let ticket = mat.and_then(|m| m.ticket(plan));
        let mut flight_leader = None;
        if let (Some(mat), Some(ticket)) = (mat, ticket.as_ref()) {
            match mat.lookup(ticket) {
                MatLookup::Hit(rows) => {
                    self.stats.subplan_hits += 1;
                    return Ok(self.serve_materialized(ticket, &rows, out));
                }
                MatLookup::Miss { invalidated } => {
                    if let Some((domain, function)) = invalidated {
                        self.note(TraceEvent::SubplanInvalidated {
                            fingerprint: ticket.fingerprint(),
                            domain: domain.to_string(),
                            function: function.to_string(),
                        });
                    }
                }
            }
            // Single-flight at the plan level — only for full, sink-less
            // runs: a limited or streaming run may stop early, so its
            // result is neither shareable nor storable.
            if out.limit.is_none() && out.sink.is_none() {
                while flight_leader.is_none() {
                    match mat.join(ticket) {
                        FlightRole::Leader(leader) => flight_leader = Some(leader),
                        // A cache-only run waits on no source, its own or
                        // a leader's: it computes from the cache instead.
                        FlightRole::Follower(_) if self.tier == PlanTier::CacheOnly => break,
                        FlightRole::Follower(follower) => {
                            if let Some(rows) = follower.wait() {
                                self.stats.subplans_coalesced += 1;
                                return Ok(self.serve_materialized(ticket, &rows, out));
                            }
                            // The leader abandoned (error, deadline,
                            // downgrade). Another query may have stored
                            // meanwhile; otherwise re-join, so one waiter
                            // inherits leadership.
                            if let MatLookup::Hit(rows) = mat.lookup(ticket) {
                                self.stats.subplan_hits += 1;
                                return Ok(self.serve_materialized(ticket, &rows, out));
                            }
                        }
                    }
                }
            }
        }

        let finished = self.exec(&plan.steps, 0, &Subst::new(), &mut out)?;
        let incomplete = out.incomplete || out.provenance.iter().any(|p| !p.complete());
        if let (Some(mat), Some(ticket), Some(leader)) =
            (mat, ticket.as_ref(), flight_leader.take())
        {
            // Store + publish only complete results; a partial snapshot
            // must never masquerade as the subplan's full answer set. An
            // unpublishable flight abandons on drop, releasing followers
            // to compute for themselves.
            if finished && !incomplete {
                let shared: Arc<[Subst]> = out.answers.as_slice().into();
                let patterns = crate::cost::plan_patterns(plan);
                let savings_ms = self.dcsm.estimate_subplan_savings(&patterns, 2);
                match mat.store(ticket, shared.clone(), savings_ms) {
                    crate::matcache::StoreOutcome::Stored(_) => {
                        self.stats.subplans_materialized += 1;
                        self.note(TraceEvent::SubplanMaterialized {
                            fingerprint: ticket.fingerprint(),
                            rows: shared.len(),
                            savings_ms,
                        });
                    }
                    crate::matcache::StoreOutcome::RejectedSavings
                    | crate::matcache::StoreOutcome::RejectedSize => {
                        self.stats.subplan_rejections += 1;
                    }
                }
                leader.publish(shared);
            }
        }
        Ok(self.outcome(out, incomplete))
    }

    /// Packs a finished run into its outcome.
    fn outcome(&mut self, out: RunState, incomplete: bool) -> ExecOutcome {
        ExecOutcome {
            answers: out.answers,
            t_first: out.t_first,
            t_all: self.clock.now().duration_since(out.start),
            stats: self.stats,
            incomplete,
            provenance: out.provenance,
            trace: std::mem::take(&mut self.trace),
        }
    }

    /// Serves a materialized answer set as the run's result: every row is
    /// delivered through the normal answer path (limit, sink, trace), but
    /// no source is called and no virtual time is charged — the subplan
    /// cache is mediator-local memory.
    fn serve_materialized(
        &mut self,
        ticket: &MatTicket,
        rows: &Arc<[Subst]>,
        mut out: RunState,
    ) -> ExecOutcome {
        self.note(TraceEvent::SubplanHit {
            fingerprint: ticket.fingerprint(),
            rows: rows.len(),
        });
        for theta in rows.iter() {
            if !self.answer(theta, &mut out) {
                break;
            }
        }
        self.outcome(out, false)
    }

    /// Delivers one answer: first-answer time, trace, sink, limit.
    /// Returns `false` when the consumer has seen enough answers.
    fn answer(&mut self, theta: &Subst, out: &mut RunState) -> bool {
        let elapsed = self.clock.now().duration_since(out.start);
        if out.t_first.is_none() {
            out.t_first = Some(elapsed);
        }
        out.answers.push(theta.clone());
        self.note(TraceEvent::Answer {
            ordinal: out.answers.len(),
        });
        if let Some(sink) = out.sink.as_mut() {
            if !sink(theta, elapsed) {
                return false;
            }
        }
        out.limit.is_none_or(|l| out.answers.len() < l)
    }

    /// Recursive nested-loops step. Returns `false` when the consumer has
    /// seen enough answers and evaluation should unwind.
    fn exec(
        &mut self,
        steps: &[PlanStep],
        idx: usize,
        theta: &Subst,
        out: &mut RunState,
    ) -> Result<bool> {
        if idx == steps.len() {
            return Ok(self.answer(theta, out));
        }
        match &steps[idx] {
            PlanStep::Cond(c) => {
                let lhs = theta.path_term(&c.lhs);
                let rhs = theta.path_term(&c.rhs);
                match (lhs, rhs) {
                    (Some(l), Some(r)) => {
                        if c.op.eval(&l, &r) {
                            self.exec(steps, idx + 1, theta, out)
                        } else {
                            Ok(true)
                        }
                    }
                    (Some(l), None) if c.op == Relop::Eq && c.rhs.path.is_empty() => {
                        let v = c.rhs.var_name().ok_or_else(|| {
                            HermesError::Eval(format!("condition `{c}` not evaluable"))
                        })?;
                        let mut t2 = theta.clone();
                        t2.bind(v.clone(), l);
                        self.exec(steps, idx + 1, &t2, out)
                    }
                    (None, Some(r)) if c.op == Relop::Eq && c.lhs.path.is_empty() => {
                        let v = c.lhs.var_name().ok_or_else(|| {
                            HermesError::Eval(format!("condition `{c}` not evaluable"))
                        })?;
                        let mut t2 = theta.clone();
                        t2.bind(v.clone(), r);
                        self.exec(steps, idx + 1, &t2, out)
                    }
                    _ => Err(HermesError::Eval(format!(
                        "condition `{c}` has unbound operands at execution \
                         (planner bug or malformed plan)"
                    ))),
                }
            }
            PlanStep::Facts { args, rows, .. } => {
                for row in rows.iter() {
                    self.clock
                        .advance(SimDuration::from_millis_f64(self.config.fact_row_ms));
                    let mut t2 = theta.clone();
                    let mut ok = true;
                    for (t, v) in args.iter().zip(row.iter()) {
                        match t {
                            Term::Const(c) => {
                                if c != v {
                                    ok = false;
                                    break;
                                }
                            }
                            Term::Var(x) => match t2.get(x) {
                                Some(existing) => {
                                    if existing != v {
                                        ok = false;
                                        break;
                                    }
                                }
                                None => t2.bind(x.clone(), v.clone()),
                            },
                        }
                    }
                    if ok && !self.exec(steps, idx + 1, &t2, out)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            PlanStep::Call {
                target,
                call,
                route,
            } => {
                if let Some(group) = self.groups.get(&idx).cloned() {
                    // This call opens an independence group: put every
                    // member's network call in flight together before the
                    // nested-loops walk consumes their answers.
                    self.dispatch_group(steps, group, theta, out);
                }
                let ground = theta.ground_call(call).ok_or_else(|| {
                    HermesError::Eval(format!(
                        "call `{call}` has unbound arguments at execution \
                         (planner bug or malformed plan)"
                    ))
                })?;
                self.stats.calls_attempted += 1;
                let probe = theta.term(target);
                self.run_call(
                    steps,
                    idx,
                    theta,
                    out,
                    &ground,
                    *route,
                    probe.as_ref(),
                    target,
                )
            }
        }
    }

    /// Executes one ground call and iterates its answers into the
    /// continuation.
    #[allow(clippy::too_many_arguments)]
    fn run_call(
        &mut self,
        steps: &[PlanStep],
        idx: usize,
        theta: &Subst,
        out: &mut RunState,
        ground: &GroundCall,
        route: Route,
        probe: Option<&Value>,
        target: &Term,
    ) -> Result<bool> {
        // Budget check first: a budget is softer than a deadline, so with
        // both configured (budget < deadline) the downgrade fires before
        // the deadline ever can — degraded answers beat aborted ones.
        if self.budget_at.is_some_and(|b| self.clock.now() > b) {
            self.budget_downgrade();
        }
        // Deadline check at the call boundary: the cheapest safe point to
        // abort, because no partial per-call state exists here.
        if self.deadline_at.is_some_and(|d| self.clock.now() > d) {
            return self.deadline_abort(idx, out);
        }

        // Per-query memo (§7 footnote duplicate elimination).
        if self.config.memoize_calls {
            if let Some(answers) = self.memo.get(ground).cloned() {
                self.stats.memo_hits += 1;
                return self.iterate(
                    steps,
                    idx,
                    theta,
                    out,
                    &answers,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    probe,
                    target,
                );
            }
        }

        let result = match route {
            Route::Direct => {
                if let Some(outcome) = self.prefetched(idx, ground) {
                    // The group dispatch already paid the overlapped
                    // makespan: serve the parked answers at zero charge.
                    self.note_truncation(out, idx, ground, &outcome);
                    let truncated = outcome.truncated;
                    // One shared allocation backs memo and iteration.
                    let answers = outcome.answers;
                    if self.config.memoize_calls && !truncated {
                        self.memo.insert(ground.clone(), answers.clone());
                    }
                    self.iterate(
                        steps,
                        idx,
                        theta,
                        out,
                        &answers,
                        SimDuration::ZERO,
                        SimDuration::ZERO,
                        probe,
                        target,
                    )
                } else if !self.tier_allows_wire(ground) {
                    self.tier_skip(steps, idx, theta, out, ground, probe, target)
                } else {
                    let outcome = self.actual_call(ground)?;
                    self.note_truncation(out, idx, ground, &outcome);
                    let (first, per) = charge_schedule(&outcome);
                    if outcome.answers.is_empty() {
                        self.clock.advance(outcome.t_all);
                    }
                    let truncated = outcome.truncated;
                    let answers = outcome.answers;
                    if self.config.memoize_calls && !truncated {
                        self.memo.insert(ground.clone(), answers.clone());
                    }
                    self.iterate(steps, idx, theta, out, &answers, first, per, probe, target)
                }
            }
            Route::Cim => self.run_cim_call(steps, idx, theta, out, ground, probe, target),
        }?;
        Ok(result)
    }

    /// Budget checkpoint passed: step the active tier down one level
    /// (one-way, never up) and re-arm the checkpoint — or disarm at the
    /// `CacheOnly` floor, where nothing cheaper remains.
    fn budget_downgrade(&mut self) {
        let Some(next) = self.tier.downgraded() else {
            self.budget_at = None;
            return;
        };
        self.stats.tier_downgrades += 1;
        self.note(TraceEvent::TierDowngraded {
            from: self.tier,
            to: next,
            reason: TierReason::BudgetPressure,
        });
        self.tier = next;
        self.budget_at = if next == PlanTier::CacheOnly {
            None
        } else {
            self.config.budget.map(|b| self.clock.now() + b)
        };
    }

    /// Whether the active tier lets `wire` go over the network. `Full`
    /// allows everything; `CacheOnly` nothing; `CachedPlusCheapRemote`
    /// asks the DCSM whether the fully-bound call pattern is estimated at
    /// or under [`ExecConfig::cheap_call_ms`].
    fn tier_allows_wire(&self, wire: &GroundCall) -> bool {
        match self.tier {
            PlanTier::Full => true,
            PlanTier::CacheOnly => false,
            PlanTier::CachedPlusCheapRemote => {
                let pattern = CallPattern::new(
                    wire.domain.clone(),
                    wire.function.clone(),
                    wire.args.iter().map(|v| PatArg::Const(v.clone())).collect(),
                );
                self.dcsm.cost(&pattern).t_all_ms() <= self.config.cheap_call_ms
            }
        }
    }

    /// The active tier forbade `ground`'s remote call: record the gap
    /// (`IncompleteReason::Downgraded`), then fail soft — serve whatever
    /// stale cached answers exist, else contribute nothing and move on.
    #[allow(clippy::too_many_arguments)]
    fn tier_skip(
        &mut self,
        steps: &[PlanStep],
        idx: usize,
        theta: &Subst,
        out: &mut RunState,
        ground: &GroundCall,
        probe: Option<&Value>,
        target: &Term,
    ) -> Result<bool> {
        self.stats.tier_skipped_calls += 1;
        self.note(TraceEvent::TierSkipped {
            call: ground.clone(),
            tier: self.tier,
        });
        out.mark_gap(idx, IncompleteReason::Downgraded);
        if let Some(answers) = self.cim.stale_answers(ground) {
            self.note(TraceEvent::ServedStale {
                call: ground.clone(),
                answers: answers.len(),
            });
            return self.iterate(
                steps,
                idx,
                theta,
                out,
                &answers,
                SimDuration::ZERO,
                SimDuration::ZERO,
                probe,
                target,
            );
        }
        Ok(true)
    }

    /// Deadline fired: account for it, then either unwind cleanly (answers
    /// so far are returned with provenance) or fail in strict mode.
    fn deadline_abort(&mut self, idx: usize, out: &mut RunState) -> Result<bool> {
        let elapsed = self.clock.now().duration_since(out.start);
        let deadline = self
            .config
            .deadline
            .expect("deadline_at is only set from config.deadline");
        self.stats.deadline_aborts += 1;
        self.note(TraceEvent::DeadlineExceeded { elapsed, deadline });
        out.mark_gap(idx, IncompleteReason::DeadlineExceeded);
        // Disarm so the unwind does not re-fire at every remaining call.
        self.deadline_at = None;
        if self.config.deadline_strict {
            Err(HermesError::DeadlineExceeded { deadline, elapsed })
        } else {
            Ok(false)
        }
    }

    /// Records a truncated answer set (injected fault) against the call
    /// step's provenance.
    fn note_truncation(
        &mut self,
        out: &mut RunState,
        idx: usize,
        ground: &GroundCall,
        outcome: &RemoteOutcome,
    ) {
        if outcome.truncated {
            self.stats.truncated_calls += 1;
            self.note(TraceEvent::Truncated {
                call: ground.clone(),
                kept: outcome.answers.len(),
            });
            let site = self.site_name(ground).unwrap_or_default();
            out.mark_gap(idx, IncompleteReason::Truncated { site });
        }
    }

    /// The name of the site serving `ground`'s domain, when placed.
    fn site_name(&self, ground: &GroundCall) -> Option<String> {
        self.network
            .site_of(&ground.domain)
            .ok()
            .map(|s| s.name.to_string())
    }

    /// The §4.1 pipeline for a CIM-routed call.
    #[allow(clippy::too_many_arguments)]
    fn run_cim_call(
        &mut self,
        steps: &[PlanStep],
        idx: usize,
        theta: &Subst,
        out: &mut RunState,
        ground: &GroundCall,
        probe: Option<&Value>,
        target: &Term,
    ) -> Result<bool> {
        let (resolution, cim_cost) = self.cim.lookup(ground, self.clock.now());
        self.clock.advance(cim_cost);
        match resolution {
            CimResolution::ExactHit { answers } => {
                self.stats.cim_exact += 1;
                self.note(TraceEvent::CacheHit {
                    call: ground.clone(),
                    via: ground.clone(),
                    answers: answers.len(),
                });
                if self.config.memoize_calls {
                    self.memo.insert(ground.clone(), answers.clone());
                }
                self.iterate(
                    steps,
                    idx,
                    theta,
                    out,
                    &answers,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    probe,
                    target,
                )
            }
            CimResolution::EqualHit { via, answers } => {
                self.stats.cim_equal += 1;
                self.note(TraceEvent::CacheHit {
                    call: ground.clone(),
                    via,
                    answers: answers.len(),
                });
                if self.config.store_results {
                    // Make the next lookup an exact hit.
                    self.cim
                        .store(ground.clone(), answers.clone(), true, self.clock.now());
                }
                self.iterate(
                    steps,
                    idx,
                    theta,
                    out,
                    &answers,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    probe,
                    target,
                )
            }
            CimResolution::PartialHit {
                via,
                answers: cached,
            } => {
                self.stats.cim_partial += 1;
                self.note(TraceEvent::PartialHit {
                    call: ground.clone(),
                    via,
                    answers: cached.len(),
                });
                self.run_partial_hit(steps, idx, theta, out, ground, cached, probe, target)
            }
            CimResolution::Miss { substitute } => {
                self.stats.cim_miss += 1;
                let exec_call = match substitute {
                    Some(s) => {
                        self.stats.substituted_calls += 1;
                        self.note(TraceEvent::Substituted {
                            call: ground.clone(),
                            executed: s.clone(),
                        });
                        s
                    }
                    None => ground.clone(),
                };
                let parked = self.prefetched(idx, &exec_call);
                let was_parked = parked.is_some();
                if !was_parked && !self.tier_allows_wire(&exec_call) {
                    return self.tier_skip(steps, idx, theta, out, ground, probe, target);
                }
                let outcome = if let Some(o) = parked {
                    o
                } else {
                    match self.actual_call(&exec_call) {
                        Ok(o) => o,
                        Err(HermesError::Unavailable { site, reason }) => {
                            // Serve-stale fallback: a possibly-incomplete old
                            // entry beats failing the whole query.
                            let stale = self.cim.stale_answers(ground);
                            match stale {
                                Some(answers) => {
                                    self.note(TraceEvent::ServedStale {
                                        call: ground.clone(),
                                        answers: answers.len(),
                                    });
                                    let gap = if reason.contains("circuit breaker") {
                                        IncompleteReason::BreakerOpen { site }
                                    } else {
                                        IncompleteReason::SiteUnavailable { site }
                                    };
                                    out.mark_gap(idx, gap);
                                    return self.iterate(
                                        steps,
                                        idx,
                                        theta,
                                        out,
                                        &answers,
                                        SimDuration::ZERO,
                                        SimDuration::ZERO,
                                        probe,
                                        target,
                                    );
                                }
                                None => return Err(HermesError::Unavailable { site, reason }),
                            }
                        }
                        Err(e) => return Err(e),
                    }
                };
                self.note_truncation(out, idx, &exec_call, &outcome);
                let (first, per) = if was_parked {
                    // Already paid for by the group barrier.
                    (SimDuration::ZERO, SimDuration::ZERO)
                } else {
                    charge_schedule(&outcome)
                };
                if !was_parked && outcome.answers.is_empty() {
                    self.clock.advance(outcome.t_all);
                }
                let complete = !outcome.truncated;
                // One shared allocation backs the CIM store(s), the memo,
                // and the iteration below (Arc clones, no deep copies).
                let answers = outcome.answers;
                if self.config.store_results {
                    let now = self.clock.now();
                    self.cim
                        .store(exec_call.clone(), answers.clone(), complete, now);
                    if exec_call != *ground {
                        // Equality invariant: the original call has the
                        // same answers — cache it under its own key too.
                        self.cim
                            .store(ground.clone(), answers.clone(), complete, now);
                    }
                }
                if self.config.memoize_calls && complete {
                    self.memo.insert(ground.clone(), answers.clone());
                }
                self.iterate(steps, idx, theta, out, &answers, first, per, probe, target)
            }
        }
    }

    /// Partial hit: yield the cached prefix, then (if the consumer still
    /// wants answers) the remainder from the actual call.
    #[allow(clippy::too_many_arguments)]
    fn run_partial_hit(
        &mut self,
        steps: &[PlanStep],
        idx: usize,
        theta: &Subst,
        out: &mut RunState,
        ground: &GroundCall,
        cached: Arc<[Value]>,
        probe: Option<&Value>,
        target: &Term,
    ) -> Result<bool> {
        let started = self.clock.now();
        // Serve the cached prefix (the CIM lookup already charged for it).
        // Membership probes must not early-out here: a hit in the prefix
        // answers the probe, but a missing value may still arrive in the
        // remainder — so probes fall through to the actual call when the
        // prefix does not contain the value.
        if let Some(v) = probe {
            if cached.contains(v) {
                return self.exec(steps, idx + 1, theta, out);
            }
        } else {
            for a in cached.iter() {
                let mut t2 = theta.clone();
                let var = target.as_var().expect("non-probe target is a variable");
                t2.bind(var.clone(), a.clone());
                if !self.exec(steps, idx + 1, &t2, out)? {
                    // Consumer stopped inside the cached prefix: the
                    // actual call never needs to be issued.
                    self.stats.cancelled_calls += 1;
                    self.note(TraceEvent::Cancelled {
                        call: ground.clone(),
                    });
                    return Ok(false);
                }
            }
        }

        // Need the remainder: issue (or join) the actual call — unless
        // the active tier forbids it, in which case the cached prefix is
        // all this subgoal contributes (flagged `Downgraded`).
        if !self.tier_allows_wire(ground) {
            self.stats.tier_skipped_calls += 1;
            self.note(TraceEvent::TierSkipped {
                call: ground.clone(),
                tier: self.tier,
            });
            out.mark_gap(idx, IncompleteReason::Downgraded);
            return Ok(true);
        }
        match self.actual_call(ground) {
            Ok(outcome) => {
                self.note_truncation(out, idx, ground, &outcome);
                if self.config.partial_parallel {
                    // The call ran concurrently since `started`.
                    self.clock.advance_to(started + outcome.t_all);
                } else {
                    self.clock.advance(outcome.t_all);
                }
                let truncated = outcome.truncated;
                let answers = outcome.answers;
                let (remainder, merge_cost) = self.cim.merge_partial(ground, &cached, &answers);
                self.clock.advance(merge_cost);
                if self.config.store_results {
                    self.cim.store(
                        ground.clone(),
                        answers.clone(),
                        !truncated,
                        self.clock.now(),
                    );
                }
                if self.config.memoize_calls && !truncated {
                    self.memo.insert(ground.clone(), answers);
                }
                if let Some(v) = probe {
                    if remainder.contains(v) {
                        return self.exec(steps, idx + 1, theta, out);
                    }
                    return Ok(true);
                }
                self.iterate(
                    steps,
                    idx,
                    theta,
                    out,
                    &remainder,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    None,
                    target,
                )
            }
            Err(HermesError::Unavailable { site, reason }) => {
                // The cache already served what it could (§1: use prior
                // results when the source is not readily available).
                // `actual_call` already counted the unavailability.
                let gap = if reason.contains("circuit breaker") {
                    IncompleteReason::BreakerOpen { site }
                } else {
                    IncompleteReason::SiteUnavailable { site }
                };
                out.mark_gap(idx, gap);
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Iterates an answer list into the continuation, charging the
    /// pipelined schedule: `first` before the first answer, `per` before
    /// each later one.
    #[allow(clippy::too_many_arguments)]
    fn iterate(
        &mut self,
        steps: &[PlanStep],
        idx: usize,
        theta: &Subst,
        out: &mut RunState,
        answers: &[Value],
        first: SimDuration,
        per: SimDuration,
        probe: Option<&Value>,
        target: &Term,
    ) -> Result<bool> {
        if let Some(v) = probe {
            // Membership: scan (and pay) until the value appears.
            for (j, a) in answers.iter().enumerate() {
                self.clock.advance(if j == 0 { first } else { per });
                if a == v {
                    return self.exec(steps, idx + 1, theta, out);
                }
            }
            return Ok(true);
        }
        let var = match target.as_var() {
            Some(v) => v.clone(),
            None => {
                return Err(HermesError::Eval(
                    "call target is neither ground nor a variable".into(),
                ))
            }
        };
        for (j, a) in answers.iter().enumerate() {
            self.clock.advance(if j == 0 { first } else { per });
            let mut t2 = theta.clone();
            t2.bind(var.clone(), a.clone());
            if !self.exec(steps, idx + 1, &t2, out)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Dispatches an independence group: grounds every member call
    /// against the group-entry bindings, puts the ones that actually need
    /// the network in flight across up to
    /// [`max_parallel_calls`](ExecConfig::max_parallel_calls) virtual
    /// slots (greedy earliest-slot list scheduling), advances the clock
    /// once by the schedule's makespan, and parks the outcomes for the
    /// nested-loops walk to consume at zero additional charge.
    ///
    /// Members that would be served by the per-query memo or a CIM hit
    /// are skipped — they never touch the network. (A partial hit's
    /// remainder call is also skipped: it already overlaps with serving
    /// the cached prefix when `partial_parallel` is on.) Failed dispatches
    /// are *not* parked; consumption re-attempts the call and runs the
    /// ordinary unavailability handling (serve-stale, breakers,
    /// failover). Answer content and order are identical to the
    /// sequential walk — only the virtual-time charging changes.
    fn dispatch_group(
        &mut self,
        steps: &[PlanStep],
        group: std::ops::Range<usize>,
        theta: &Subst,
        out: &mut RunState,
    ) {
        let t0 = self.clock.now();
        if self.deadline_at.is_some_and(|d| t0 > d) {
            return; // the call-boundary check aborts before consumption
        }
        // Which members actually need the wire, and with which call.
        let mut pending: Vec<(usize, GroundCall)> = Vec::new();
        for idx in group {
            let PlanStep::Call { call, route, .. } = &steps[idx] else {
                continue;
            };
            let Some(ground) = theta.ground_call(call) else {
                continue; // run_call will report the planner bug
            };
            if self.config.memoize_calls && self.memo.contains_key(&ground) {
                continue;
            }
            let wire = match route {
                Route::Direct => ground,
                Route::Cim => match self.cim.preview(&ground) {
                    CimPreview::Hit | CimPreview::Partial => continue,
                    CimPreview::Miss { executed } => executed,
                },
            };
            if self.prefetch.contains_key(&(idx, wire.clone())) {
                continue; // still parked from an earlier group entry
            }
            if !self.tier_allows_wire(&wire) {
                continue; // consumption records the Downgraded gap
            }
            pending.push((idx, wire));
        }
        if pending.len() < 2 {
            return; // nothing to overlap with
        }

        let slots = self.config.max_parallel_calls.min(pending.len());
        let overhead = SimDuration::from_millis_f64(self.config.dispatch_overhead_ms.max(0.0));
        let mut free = vec![SimDuration::ZERO; slots];
        let mut batch_seen: BTreeSet<(String, String)> = BTreeSet::new();
        let mut intervals: Vec<(String, SimDuration, SimDuration)> = Vec::new();
        let mut sites: BTreeSet<String> = BTreeSet::new();
        let mut serial = SimDuration::ZERO;
        let mut dispatched = 0usize;
        let mut abandoned = false;
        for (idx, wire) in pending {
            let slot = (0..free.len()).min_by_key(|&i| (free[i], i)).unwrap_or(0);
            let begin = free[slot];
            if abandoned || self.deadline_at.is_some_and(|d| t0 + begin > d) {
                // This member's slot would only open after the deadline:
                // abandon it — and every later member — un-issued. The
                // makespan necessarily exceeds the deadline too, so the
                // call-boundary check aborts before any consumption.
                abandoned = true;
                self.stats.cancelled_calls += 1;
                self.note(TraceEvent::Cancelled { call: wire });
                out.mark_gap(idx, IncompleteReason::DeadlineExceeded);
                continue;
            }
            let site = self.site_name(&wire).unwrap_or_default();
            let piggyback = self.config.batch_calls
                && !batch_seen.insert((site.clone(), format!("{}:{}", wire.domain, wire.function)));
            if piggyback {
                self.stats.batched_calls += 1;
            }
            // Every member's wait runs from the group-entry instant:
            // clone the clock, let retry backoff advance the copy,
            // restore, and fold the waited time into the slot occupancy.
            let saved = self.clock.clone();
            let result = self.actual_call_with(&wire, piggyback);
            let waited = self.clock.now().duration_since(t0);
            self.clock = saved;
            let duration = overhead
                + waited
                + match &result {
                    Ok(o) => o.t_all,
                    Err(_) => SimDuration::ZERO,
                };
            free[slot] = begin + duration;
            serial += duration;
            intervals.push((site.clone(), begin, begin + duration));
            sites.insert(site);
            dispatched += 1;
            if let Ok(outcome) = result {
                self.prefetch.insert((idx, wire), outcome);
            }
        }
        if dispatched == 0 {
            return;
        }
        let makespan = free.iter().copied().max().unwrap_or(SimDuration::ZERO);
        // Report each site's concurrency peak (event sweep over the
        // schedule intervals; ends sort before starts at equal instants
        // so back-to-back calls in one slot never count as overlapping).
        for site in &sites {
            let mut events: Vec<(SimDuration, i32)> = Vec::new();
            for (s, b, e) in &intervals {
                if s == site {
                    events.push((*b, 1));
                    events.push((*e, -1));
                }
            }
            events.sort_by_key(|&(t, delta)| (t, delta));
            let (mut cur, mut peak) = (0i32, 0i32);
            for (_, delta) in events {
                cur += delta;
                peak = peak.max(cur);
            }
            self.network.record_in_flight(site, peak.max(0) as usize);
        }
        self.stats.parallel_groups += 1;
        self.stats.overlapped_calls += dispatched as u64;
        self.stats.overlap_saved_us += serial.saturating_sub(makespan).as_micros();
        self.note(TraceEvent::GroupDispatched {
            calls: dispatched,
            sites: sites.len(),
            makespan,
        });
        self.clock.advance(makespan);
        self.note(TraceEvent::Overlapped {
            serial,
            parallel: makespan,
            calls: dispatched,
        });
    }

    /// A parked group-dispatch outcome for step `idx`, if one exists. Not
    /// removed: with the group's bindings unchanged, every backtracking
    /// revisit of the step consumes the same in-flight answer set, which
    /// is exactly what a buffering parallel executor would serve.
    fn prefetched(&self, idx: usize, wire: &GroundCall) -> Option<RemoteOutcome> {
        self.prefetch.get(&(idx, wire.clone())).cloned()
    }

    /// Reaches the source over the network and records statistics,
    /// retrying transient unavailability with capped exponential backoff.
    /// When a breaker bank is attached, the site's breaker is consulted
    /// first — open means fail instantly, paying no simulated retry time.
    fn actual_call(&mut self, ground: &GroundCall) -> Result<RemoteOutcome> {
        self.actual_call_with(ground, false)
    }

    /// [`Executor::actual_call`], with control over round-trip batching:
    /// a `piggyback` call shares an already-dispatched group sibling's
    /// round trip and pays no connect + RTT.
    ///
    /// With a single-flight registry attached, identical concurrent calls
    /// coalesce here: the first caller in leads (performing the real call
    /// below, breakers and retries included) and publishes its outcome;
    /// later callers follow, blocking until the leader's answers arrive
    /// as an `Arc` bump. A follower whose leader failed re-joins — one
    /// inherits leadership of a fresh flight, the rest coalesce behind it.
    fn actual_call_with(&mut self, ground: &GroundCall, piggyback: bool) -> Result<RemoteOutcome> {
        let Some(registry) = self.flight else {
            return self.actual_call_direct(ground, piggyback);
        };
        loop {
            match registry.join(ground) {
                FlightRole::Leader(token) => {
                    let result = self.actual_call_direct(ground, piggyback);
                    match &result {
                        Ok(outcome) => token.publish(outcome.clone()),
                        Err(_) => token.abandon(),
                    }
                    return result;
                }
                FlightRole::Follower(handle) => {
                    self.stats.calls_coalesced += 1;
                    if let Some(outcome) = handle.wait() {
                        self.stats.round_trips_saved += 1;
                        self.note(TraceEvent::Coalesced {
                            call: ground.clone(),
                            answers: outcome.answers.len(),
                        });
                        return Ok(outcome);
                    }
                    // The leader abandoned without publishing: contend
                    // for leadership of a fresh flight.
                }
            }
        }
    }

    /// The uncoalesced call path: breaker admission, the wire, retries
    /// with backoff, and DCSM recording.
    fn actual_call_direct(
        &mut self,
        ground: &GroundCall,
        piggyback: bool,
    ) -> Result<RemoteOutcome> {
        let site = match self.breakers {
            Some(_) => self.site_name(ground),
            None => None,
        };
        if let (Some(bank), Some(site)) = (self.breakers, site.as_deref()) {
            match bank.lock().admit(site, self.clock.now()) {
                Admission::ShortCircuit => {
                    self.stats.breaker_short_circuits += 1;
                    self.note(TraceEvent::BreakerShortCircuit {
                        call: ground.clone(),
                        site: site.to_string(),
                    });
                    return Err(HermesError::Unavailable {
                        site: site.to_string(),
                        reason: "circuit breaker open".into(),
                    });
                }
                Admission::Probe => {
                    self.stats.breaker_probes += 1;
                    self.note(TraceEvent::BreakerProbe {
                        site: site.to_string(),
                    });
                }
                Admission::Allow => {}
            }
        }
        let mut attempt = 0u32;
        let outcome = loop {
            // The one place a query waits on a source: a serving worker
            // lends its run slot meanwhile.
            let now = self.clock.now();
            match parked(|| self.network.execute_batched(ground, now, piggyback)) {
                Ok(out) => {
                    if let (Some(bank), Some(site)) = (self.breakers, site.as_deref()) {
                        if bank.lock().record_success(site) {
                            self.stats.breaker_recoveries += 1;
                            self.note(TraceEvent::BreakerRecovered {
                                site: site.to_string(),
                            });
                        }
                    }
                    break out;
                }
                Err(e @ HermesError::Unavailable { .. }) => {
                    self.stats.unavailable += 1;
                    let mut tripped = false;
                    if let (Some(bank), Some(site)) = (self.breakers, site.as_deref()) {
                        if bank.lock().record_failure(site, self.clock.now()) {
                            tripped = true;
                            self.stats.breaker_trips += 1;
                            self.note(TraceEvent::BreakerTripped {
                                site: site.to_string(),
                            });
                        }
                    }
                    // A tripped breaker ends the retry loop — isolation
                    // beats persistence — and so does a spent deadline.
                    let past_deadline = self.deadline_at.is_some_and(|d| self.clock.now() > d);
                    let will_retry =
                        !tripped && !past_deadline && attempt < self.config.retry_attempts;
                    self.note(TraceEvent::Unavailable {
                        call: ground.clone(),
                        will_retry,
                    });
                    if !will_retry {
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.retries += 1;
                    let backoff = self.retry_backoff(attempt);
                    // `sleep`, not `advance`: on a wall-anchored clock the
                    // backoff must actually wait real time out.
                    parked(|| self.clock.sleep(backoff));
                }
                Err(e) => return Err(e),
            }
        };
        self.stats.actual_calls += 1;
        self.stats.bytes += outcome.bytes as u64;
        self.note(TraceEvent::ActualCall {
            call: ground.clone(),
            answers: outcome.answers.len(),
            t_all: outcome.t_all,
            bytes: outcome.bytes,
        });
        if self.config.record_stats {
            self.dcsm.record(
                ground,
                Some(outcome.t_first.as_millis_f64()),
                Some(outcome.t_all.as_millis_f64()),
                Some(outcome.answers.len() as f64),
                self.clock.now(),
            );
        }
        Ok(outcome)
    }

    /// Backoff before retry `attempt` (1-based): capped exponential with
    /// deterministic jitter. Retry 1 waits at least `retry_backoff_ms`.
    fn retry_backoff(&mut self, attempt: u32) -> SimDuration {
        let base = self.config.retry_backoff_ms.max(0.0);
        let exp = base * 2f64.powi(attempt.saturating_sub(1).min(20) as i32);
        let capped = exp.min(self.config.retry_backoff_cap_ms.max(base));
        let jitter = 1.0 + self.config.retry_jitter_frac.max(0.0) * self.retry_rng.f64();
        SimDuration::from_millis_f64(capped * jitter)
    }
}

/// The pipelined charge schedule for a fresh call's answers.
fn charge_schedule(outcome: &RemoteOutcome) -> (SimDuration, SimDuration) {
    let n = outcome.answers.len();
    let first = outcome.t_first;
    let per = if n > 1 {
        SimDuration::from_micros(
            outcome.t_all.saturating_sub(outcome.t_first).as_micros() / (n as u64 - 1),
        )
    } else {
        SimDuration::ZERO
    };
    (first, per)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, PlanStep};
    use hermes_cim::ShardedCim;
    use hermes_dcsm::ShardedDcsm;
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_lang::{parse_invariant, CallTemplate};
    use hermes_net::profiles;
    use std::sync::Arc;

    fn world() -> (Network, ShardedCim, ShardedDcsm) {
        let mut net = Network::new(11);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        net.place(Arc::new(d), profiles::cornell());
        (net, ShardedCim::new(1), ShardedDcsm::new(1))
    }

    fn call_plan(route: Route) -> (Plan, Value) {
        // Pick a domain value with at least one neighbor.
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        let a = d
            .domain_values("p")
            .into_iter()
            .next()
            .expect("relation non-empty");
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a.clone())]),
                route,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        (plan, a)
    }

    #[test]
    fn direct_call_produces_answers_and_time() {
        let (net, cim, dcsm) = world();
        let (plan, _) = call_plan(Route::Direct);
        let mut ex = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default());
        let out = ex.run(&plan, None).unwrap();
        assert!(!out.answers.is_empty());
        assert!(out.t_first.unwrap() <= out.t_all);
        assert!(out.t_all > SimDuration::ZERO);
        assert_eq!(out.stats.actual_calls, 1);
        assert_eq!(out.stats.cim_exact, 0);
        // Direct route records statistics but does not populate the cache.
        assert_eq!(cim.len(), 0);
        assert_eq!(dcsm.records(), 1);
    }

    #[test]
    fn cim_route_caches_and_second_run_is_fast() {
        let (net, cim, dcsm) = world();
        let (plan, _) = call_plan(Route::Cim);
        let out1 = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert_eq!(out1.stats.cim_miss, 1);
        assert_eq!(cim.len(), 1);
        let out2 = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert_eq!(out2.stats.cim_exact, 1);
        assert_eq!(out2.stats.actual_calls, 0);
        assert_eq!(out2.answers, out1.answers);
        assert!(out2.t_all < out1.t_all, "{} !< {}", out2.t_all, out1.t_all);
    }

    #[test]
    fn limit_stops_early_and_charges_less() {
        let (net, cim, dcsm) = world();
        // Use the ff view so there are many answers.
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("P"),
                call: CallTemplate::new("d1", "p_ff", vec![]),
                route: Route::Direct,
            }],
            answer_vars: vec![Arc::from("P")],
        };
        let full = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        let limited = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, Some(1))
            .unwrap();
        assert_eq!(limited.answers.len(), 1);
        assert!(full.answers.len() > 1);
        assert!(limited.t_all < full.t_all);
    }

    #[test]
    fn partial_hit_fast_first_answer() {
        let (net, cim, dcsm) = world();
        // Relation-style invariant on the synthetic domain is awkward;
        // fake one: cache a call under g and declare f ⊇ g via condition.
        cim.add_invariant(&parse_invariant("X <= Y => d1:p_bf(Y) >= d1:p_bf(X).").unwrap())
            .unwrap();
        // This invariant is *not sound* for the synthetic relation, but
        // the executor machinery is what's under test: seed a cached
        // "narrower" call whose answers are a subset of the actual one.
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        let a = d.domain_values("p").into_iter().max().expect("non-empty");
        let full = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers;
        use hermes_domains::Domain;
        // Cache a strict subset under a "smaller" key (string ordering).
        let prefix: Vec<Value> = full.iter().take(1).cloned().collect();
        let smaller_key = GroundCall::new("d1", "p_bf", vec![Value::str("")]);
        cim.store(smaller_key, prefix.clone().into(), true, SimInstant::EPOCH);

        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a.clone())]),
                route: Route::Cim,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert_eq!(out.stats.cim_partial, 1);
        assert_eq!(out.stats.actual_calls, 1);
        // All answers still delivered exactly once.
        assert_eq!(out.answers.len(), full.len());
        // First answer came from the cache: far faster than the network
        // round trip (~400ms on the cornell profile).
        assert!(
            out.t_first.unwrap().as_millis_f64() < 100.0,
            "t_first {}",
            out.t_first.unwrap()
        );
    }

    #[test]
    fn partial_hit_with_limit_cancels_actual_call() {
        let (net, cim, dcsm) = world();
        cim.add_invariant(&parse_invariant("X <= Y => d1:p_bf(Y) >= d1:p_bf(X).").unwrap())
            .unwrap();
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        use hermes_domains::Domain;
        let a = d.domain_values("p").into_iter().max().unwrap();
        let full = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers;
        let prefix: Vec<Value> = full.iter().take(1).cloned().collect();
        cim.store(
            GroundCall::new("d1", "p_bf", vec![Value::str("")]),
            prefix.into(),
            true,
            SimInstant::EPOCH,
        );
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                route: Route::Cim,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, Some(1))
            .unwrap();
        assert_eq!(out.answers.len(), 1);
        assert_eq!(out.stats.cancelled_calls, 1);
        assert_eq!(out.stats.actual_calls, 0);
    }

    #[test]
    fn membership_probe_binds_nothing() {
        let (net, cim, dcsm) = world();
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        use hermes_domains::Domain;
        let a = d.domain_values("p").into_iter().next().unwrap();
        let b = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers[0].clone();
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::Const(b),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a.clone())]),
                route: Route::Direct,
            }],
            answer_vars: vec![],
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert_eq!(out.answers.len(), 1); // one empty binding = "true"
                                          // A probe for a value that is not in the answers yields nothing.
        let plan2 = Plan {
            steps: vec![PlanStep::Call {
                target: Term::Const(Value::str("definitely-not-an-answer")),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                route: Route::Direct,
            }],
            answer_vars: vec![],
        };
        let out2 = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan2, None)
            .unwrap();
        assert!(out2.answers.is_empty());
    }

    #[test]
    fn memoization_avoids_repeat_calls() {
        let (net, cim, dcsm) = world();
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        let a = d.domain_values("p").into_iter().next().unwrap();
        // Two identical calls in sequence (a cross-product shape).
        let plan = Plan {
            steps: vec![
                PlanStep::Call {
                    target: Term::var("B"),
                    call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a.clone())]),
                    route: Route::Direct,
                },
                PlanStep::Call {
                    target: Term::var("C"),
                    call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a.clone())]),
                    route: Route::Direct,
                },
            ],
            answer_vars: vec![Arc::from("B"), Arc::from("C")],
        };
        let cfg = ExecConfig {
            memoize_calls: true,
            ..ExecConfig::default()
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        // The two steps issue the *same* ground call: one actual call,
        // every repetition (outer loop and inner loops) memoized.
        assert_eq!(out.stats.actual_calls, 1);
        assert!(out.stats.memo_hits > 0);
        let n = out.answers.len();
        let without = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert_eq!(without.answers.len(), n);
        assert!(without.stats.actual_calls > 1);
    }

    #[test]
    fn unavailable_source_fails_query_without_cache() {
        let mut net = Network::new(3);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        net.place(
            Arc::new(d),
            profiles::cornell().with_outage(
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(3600),
            ),
        );
        let cim = ShardedCim::new(1);
        let dcsm = ShardedDcsm::new(1);
        let (plan, _) = call_plan(Route::Cim);
        let err = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap_err();
        assert!(matches!(err, HermesError::Unavailable { .. }));
    }

    #[test]
    fn unavailable_source_served_from_cache_is_incomplete_on_partial() {
        let mut net = Network::new(3);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        use hermes_domains::Domain;
        let a = d.domain_values("p").into_iter().max().unwrap();
        let full = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers;
        net.place(
            Arc::new(d),
            profiles::cornell().with_outage(
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(3600),
            ),
        );
        let cim = ShardedCim::new(1);
        cim.add_invariant(&parse_invariant("X <= Y => d1:p_bf(Y) >= d1:p_bf(X).").unwrap())
            .unwrap();
        let prefix: Vec<Value> = full.iter().take(1).cloned().collect();
        cim.store(
            GroundCall::new("d1", "p_bf", vec![Value::str("")]),
            prefix.clone().into(),
            true,
            SimInstant::EPOCH,
        );
        let dcsm = ShardedDcsm::new(1);
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                route: Route::Cim,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        // Cached prefix delivered; the rest marked incomplete.
        assert_eq!(out.answers.len(), prefix.len());
        assert!(out.incomplete);
        assert_eq!(out.stats.unavailable, 1);
    }

    #[test]
    fn retries_recover_from_transient_failures() {
        use hermes_net::profiles;
        // 60% failure rate: with 6 retries success is near-certain.
        let mut net = Network::new(5);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        net.place(Arc::new(d), profiles::italy_flaky(0.6));
        let cim = ShardedCim::new(1);
        let dcsm = ShardedDcsm::new(1);
        let (plan, _) = call_plan(Route::Direct);
        // Without retries: the flaky site fails some runs; find a seed
        // where the first attempt fails to make the comparison meaningful.
        let cfg = ExecConfig {
            retry_attempts: 6,
            retry_backoff_ms: 250.0,
            ..ExecConfig::default()
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        assert!(!out.answers.is_empty());
        // The seeded jitter stream makes at least one attempt fail here.
        assert!(out.stats.retries > 0, "expected retries with 60% failure");
        // Backoff shows up on the virtual clock.
        assert!(out.t_all >= SimDuration::from_millis(250));
    }

    #[test]
    fn retries_do_not_mask_hard_outages() {
        use hermes_net::profiles;
        let mut net = Network::new(5);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        net.place(
            Arc::new(d),
            profiles::cornell().with_outage(
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(3600),
            ),
        );
        let cim = ShardedCim::new(1);
        let dcsm = ShardedDcsm::new(1);
        let (plan, _) = call_plan(Route::Direct);
        let cfg = ExecConfig {
            retry_attempts: 3,
            retry_backoff_ms: 100.0,
            ..ExecConfig::default()
        };
        let err = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap_err();
        assert!(matches!(err, HermesError::Unavailable { .. }));
    }

    #[test]
    fn exact_cache_hit_works_during_outage() {
        // The §1 motivation: a complete cached answer fully shields the
        // query from an unavailable site.
        let mut net = Network::new(3);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        use hermes_domains::Domain;
        let a = d.domain_values("p").into_iter().next().unwrap();
        let answers = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers;
        net.place(
            Arc::new(d),
            profiles::italy().with_outage(
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(3600),
            ),
        );
        let cim = ShardedCim::new(1);
        cim.store(
            GroundCall::new("d1", "p_bf", vec![a.clone()]),
            answers.clone().into(),
            true,
            SimInstant::EPOCH,
        );
        let dcsm = ShardedDcsm::new(1);
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                route: Route::Cim,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert_eq!(out.answers.len(), answers.len());
        assert!(!out.incomplete);
        assert_eq!(out.stats.actual_calls, 0);
        // Provenance agrees: the one call step is complete.
        assert_eq!(out.provenance.len(), 1);
        assert!(out.provenance[0].complete());
    }

    /// A world whose only site is hard-down for an hour, with a cached
    /// partial prefix so queries degrade instead of failing.
    fn outage_world_with_prefix() -> (Network, ShardedCim, ShardedDcsm, Plan, usize) {
        let mut net = Network::new(3);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        use hermes_domains::Domain;
        let a = d.domain_values("p").into_iter().max().unwrap();
        let full = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers;
        net.place(
            Arc::new(d),
            profiles::cornell().with_outage(
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(3600),
            ),
        );
        let cim = ShardedCim::new(1);
        cim.add_invariant(&parse_invariant("X <= Y => d1:p_bf(Y) >= d1:p_bf(X).").unwrap())
            .unwrap();
        let prefix: Vec<Value> = full.iter().take(1).cloned().collect();
        cim.store(
            GroundCall::new("d1", "p_bf", vec![Value::str("")]),
            prefix.clone().into(),
            true,
            SimInstant::EPOCH,
        );
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                route: Route::Cim,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        (net, cim, dcsm_new(), plan, prefix.len())
    }

    fn dcsm_new() -> ShardedDcsm {
        ShardedDcsm::new(1)
    }

    #[test]
    fn breaker_short_circuit_saves_simulated_time_over_retries() {
        use crate::breaker::{BreakerBank, BreakerConfig, BreakerState};
        let cfg = ExecConfig {
            retry_attempts: 2,
            retry_backoff_ms: 500.0,
            retry_jitter_frac: 0.0,
            ..ExecConfig::default()
        };
        // Retry-only baseline: every run pays the full backoff ladder.
        let (net, cim, dcsm, plan, _) = outage_world_with_prefix();
        let without = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        assert!(without.t_all >= SimDuration::from_millis(1500)); // 500 + 1000
        assert_eq!(without.stats.retries, 2);

        // With a breaker: the first failure trips it (threshold 1), ending
        // the retry ladder; the next run short-circuits entirely.
        let (net, cim, dcsm, plan, prefix_len) = outage_world_with_prefix();
        let bank = Mutex::new(BreakerBank::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: SimDuration::from_secs(300),
        }));
        let first = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .with_breakers(&bank)
            .run(&plan, None)
            .unwrap();
        assert_eq!(first.stats.breaker_trips, 1);
        assert_eq!(first.stats.retries, 0, "trip ends the retry ladder");
        assert!(first.t_all < without.t_all);
        let mut clock = SimClock::new();
        clock.advance(first.t_all);
        let second = Executor::new(&net, &cim, &dcsm, clock.clone(), cfg)
            .with_breakers(&bank)
            .run(&plan, None)
            .unwrap();
        assert_eq!(second.stats.breaker_short_circuits, 1);
        assert_eq!(second.stats.unavailable, 0, "no network attempt at all");
        assert_eq!(second.answers.len(), prefix_len);
        assert!(second.incomplete);
        assert_eq!(second.provenance.len(), 1);
        assert!(matches!(
            second.provenance[0].gaps[0],
            IncompleteReason::BreakerOpen { .. }
        ));
        assert_eq!(
            bank.lock().state_at("cornell", clock.advance(second.t_all)),
            BreakerState::Open
        );
    }

    #[test]
    fn half_open_probe_recovers_after_cooldown_on_virtual_clock() {
        use crate::breaker::{BreakerBank, BreakerConfig, BreakerState};
        // Outage covers only the first 10 virtual seconds.
        let mut net = Network::new(3);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        net.place(
            Arc::new(d),
            profiles::cornell().with_outage(
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(10),
            ),
        );
        let cim = ShardedCim::new(1);
        let dcsm = dcsm_new();
        let (plan, _) = call_plan(Route::Direct);
        let bank = Mutex::new(BreakerBank::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: SimDuration::from_secs(30),
        }));
        let cfg = ExecConfig::default();
        // Trip during the outage.
        let err = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .with_breakers(&bank)
            .run(&plan, None)
            .unwrap_err();
        assert!(matches!(err, HermesError::Unavailable { .. }));
        // Still cooling at t=20s: short-circuited.
        let mut clock = SimClock::new();
        clock.advance(SimDuration::from_secs(20));
        let err = Executor::new(&net, &cim, &dcsm, clock, cfg)
            .with_breakers(&bank)
            .run(&plan, None)
            .unwrap_err();
        assert!(
            matches!(&err, HermesError::Unavailable { reason, .. } if reason.contains("circuit breaker")),
            "{err}"
        );
        // Past the cooldown (and the outage): the probe succeeds and the
        // breaker closes.
        let mut clock = SimClock::new();
        clock.advance(SimDuration::from_secs(40));
        let out = Executor::new(&net, &cim, &dcsm, clock.clone(), cfg)
            .with_breakers(&bank)
            .run(&plan, None)
            .unwrap();
        assert!(!out.answers.is_empty());
        assert_eq!(out.stats.breaker_probes, 1);
        assert_eq!(out.stats.breaker_recoveries, 1);
        assert_eq!(
            bank.lock().state_at("cornell", clock.advance(out.t_all)),
            BreakerState::Closed
        );
    }

    #[test]
    fn backoff_is_exponential_with_a_cap() {
        let cfg = ExecConfig {
            retry_attempts: 3,
            retry_backoff_ms: 100.0,
            retry_backoff_cap_ms: 150.0,
            retry_jitter_frac: 0.0,
            ..ExecConfig::default()
        };
        let (net, cim, dcsm, plan, _) = outage_world_with_prefix();
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        // Sleeps: 100 (base), then 200→capped 150, then 150. CIM probe
        // costs add a few more milliseconds.
        assert!(out.t_all >= SimDuration::from_millis(400), "{}", out.t_all);
        assert!(out.t_all <= SimDuration::from_millis(460), "{}", out.t_all);
        assert_eq!(out.stats.retries, 3);
    }

    #[test]
    fn retry_attempts_zero_means_first_failure_is_final() {
        let (net, cim, dcsm, plan, _) = outage_world_with_prefix();
        let cfg = ExecConfig {
            retry_attempts: 0,
            ..ExecConfig::default()
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        assert_eq!(out.stats.unavailable, 1);
        assert_eq!(out.stats.retries, 0);
        // And no backoff time was charged: only CIM processing cost.
        assert!(out.t_all < SimDuration::from_millis(100), "{}", out.t_all);
    }

    #[test]
    fn deadline_returns_partial_answers_with_provenance() {
        // Two-step cross product: the deadline fires between inner calls,
        // so some answers exist when evaluation unwinds.
        fn cross_world() -> (Network, ShardedCim, ShardedDcsm, Plan) {
            let (net, cim, dcsm) = world();
            let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
            let a = d.domain_values("p").into_iter().next().unwrap();
            let plan = Plan {
                steps: vec![
                    PlanStep::Call {
                        target: Term::var("B"),
                        call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a.clone())]),
                        route: Route::Direct,
                    },
                    PlanStep::Call {
                        target: Term::var("C"),
                        call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                        route: Route::Direct,
                    },
                ],
                answer_vars: vec![Arc::from("B"), Arc::from("C")],
            };
            (net, cim, dcsm, plan)
        }
        let (net, cim, dcsm, plan) = cross_world();
        let full = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert!(full.answers.len() > 1);
        // Halfway between first answer and completion: some answers make
        // it, the rest are cut off. Identical world seed → identical
        // timings, so the midpoint is deterministic.
        let deadline = SimDuration::from_micros(
            (full.t_first.unwrap().as_micros() + full.t_all.as_micros()) / 2,
        );
        let (net, cim, dcsm, plan) = cross_world();
        let cfg = ExecConfig {
            deadline: Some(deadline),
            ..ExecConfig::default()
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        assert!(!out.answers.is_empty(), "deadline after first answer");
        assert!(out.answers.len() < full.answers.len());
        assert!(out.incomplete);
        assert_eq!(out.stats.deadline_aborts, 1);
        let gapped: Vec<_> = out.provenance.iter().filter(|p| !p.complete()).collect();
        assert!(!gapped.is_empty());
        assert!(gapped
            .iter()
            .all(|p| p.gaps.contains(&IncompleteReason::DeadlineExceeded)));
        // Answers the run did produce agree with a prefix of the full run.
        assert_eq!(out.answers[..], full.answers[..out.answers.len()]);
    }

    #[test]
    fn strict_deadline_fails_with_typed_error() {
        let (net, cim, dcsm) = world();
        let (plan, _) = call_plan(Route::Direct);
        // Zero-length virtual deadline with a two-call plan: the second
        // boundary is necessarily past it.
        let plan2 = Plan {
            steps: vec![plan.steps[0].clone(), plan.steps[0].clone()],
            answer_vars: plan.answer_vars.clone(),
        };
        let cfg = ExecConfig {
            deadline: Some(SimDuration::ZERO),
            deadline_strict: true,
            ..ExecConfig::default()
        };
        let err = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan2, None)
            .unwrap_err();
        assert!(matches!(err, HermesError::DeadlineExceeded { .. }));
    }

    #[test]
    fn serve_stale_answers_outage_from_incomplete_entry() {
        let mut net = Network::new(3);
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        use hermes_domains::Domain;
        let a = d.domain_values("p").into_iter().next().unwrap();
        let full = d.call("p_bf", std::slice::from_ref(&a)).unwrap().answers;
        net.place(
            Arc::new(d),
            profiles::cornell().with_outage(
                SimInstant::EPOCH,
                SimInstant::EPOCH + SimDuration::from_secs(3600),
            ),
        );
        let cim = ShardedCim::new(1);
        // An *incomplete* entry (e.g. from an earlier truncated call):
        // normally not a hit, but good enough during an outage.
        let stale: Vec<Value> = full.iter().take(2).cloned().collect();
        cim.store(
            GroundCall::new("d1", "p_bf", vec![a.clone()]),
            stale.clone().into(),
            false,
            SimInstant::EPOCH,
        );
        let dcsm = dcsm_new();
        let plan = Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                route: Route::Cim,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        // Knob off: the outage is fatal.
        let err = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap_err();
        assert!(matches!(err, HermesError::Unavailable { .. }));
        // Knob on: stale answers, flagged incomplete with provenance.
        cim.set_serve_stale_on_outage(true);
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert_eq!(out.answers.len(), stale.len());
        assert!(out.incomplete);
        assert!(matches!(
            out.provenance[0].gaps[0],
            IncompleteReason::SiteUnavailable { .. }
        ));
    }

    #[test]
    fn cache_only_tier_never_touches_the_wire() {
        let (net, cim, dcsm) = world();
        let (plan, _) = call_plan(Route::Cim);
        // Cold cache: the subgoal contributes nothing, flagged Downgraded.
        let cfg = ExecConfig {
            tier: PlanTier::CacheOnly,
            ..ExecConfig::default()
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        assert!(out.answers.is_empty());
        assert!(out.incomplete);
        assert_eq!(out.stats.actual_calls, 0);
        assert_eq!(out.stats.tier_skipped_calls, 1);
        assert!(out.provenance[0]
            .gaps
            .contains(&IncompleteReason::Downgraded));

        // Warm the cache at Full, then CacheOnly serves the same answers
        // without a single network call.
        let full = Executor::new(&net, &cim, &dcsm, SimClock::new(), ExecConfig::default())
            .run(&plan, None)
            .unwrap();
        assert!(!full.answers.is_empty());
        let warm = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        assert_eq!(warm.answers, full.answers);
        assert_eq!(warm.stats.actual_calls, 0);
        assert!(!warm.incomplete);
    }

    #[test]
    fn budget_pressure_downgrades_one_way_and_beats_the_deadline() {
        let (net, cim, dcsm) = world();
        let (plan1, a) = call_plan(Route::Direct);
        // Two independent calls: the first burns the budget, the second
        // hits the re-checked boundary and triggers the downgrade.
        let plan = Plan {
            steps: vec![
                plan1.steps[0].clone(),
                PlanStep::Call {
                    target: Term::var("C"),
                    call: CallTemplate::new("d1", "p_bf", vec![Term::Const(a)]),
                    route: Route::Direct,
                },
            ],
            answer_vars: vec![Arc::from("B"), Arc::from("C")],
        };
        let cfg = ExecConfig {
            budget: Some(SimDuration::from_millis(1)),
            // A deadline far beyond the budget: the downgrade must fire
            // first, and the deadline must never be reached.
            deadline: Some(SimDuration::from_secs(3600)),
            cheap_call_ms: 0.0, // nothing qualifies as cheap
            collect_trace: true,
            ..ExecConfig::default()
        };
        let out = Executor::new(&net, &cim, &dcsm, SimClock::new(), cfg)
            .run(&plan, None)
            .unwrap();
        assert_eq!(out.stats.actual_calls, 1, "second call must be skipped");
        assert!(out.stats.tier_downgrades >= 1);
        assert!(out.stats.tier_skipped_calls >= 1);
        assert_eq!(out.stats.deadline_aborts, 0);
        assert!(out.incomplete);
        assert!(out.provenance[1]
            .gaps
            .contains(&IncompleteReason::Downgraded));
        // Downgrades only ever step down.
        for e in &out.trace {
            if let TraceEvent::TierDowngraded { from, to, reason } = &e.event {
                assert!(to < from);
                assert_eq!(*reason, TierReason::BudgetPressure);
            }
        }
        assert!(out
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::TierDowngraded { .. })));
    }
}
