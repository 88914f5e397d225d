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
//!   and issue the actual call *in parallel* on the virtual timeline;
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
use std::sync::Arc;

/// A streaming answer sink: receives each answer binding and the elapsed
/// virtual time; returning `false` stops the run.
pub type AnswerSink<'s> = &'s mut dyn FnMut(&Subst, SimDuration) -> bool;

mod config;
mod stats;

pub use config::ExecConfig;
pub use stats::{ExecOutcome, ExecStats, IncompleteReason, SubgoalProvenance};

/// Seed of the backoff-jitter stream.
const RETRY_SEED: u64 = 0x4245_4b45_5321;

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

/// The call step being evaluated: where the walk is, the bindings so far,
/// the step's ground call, and the target its answers bind or probe.
struct Step<'a> {
    steps: &'a [PlanStep],
    idx: usize,
    theta: &'a Subst,
    ground: &'a GroundCall,
    target: &'a Term,
    /// The target's value when it is already bound: answers are then
    /// tested for membership instead of bound.
    probe: Option<Value>,
}

/// What iterating an answer list charges on the virtual clock.
#[derive(Clone, Copy)]
enum Charge {
    /// Nothing: cached, memoized and stale answers, and outcomes a group
    /// dispatch parked (its barrier paid the makespan).
    Free,
    /// A fresh call's pipelined schedule: `first` before the first
    /// answer, `per` before each later one.
    Pipelined {
        first: SimDuration,
        per: SimDuration,
    },
}

impl Charge {
    /// The schedule of a fresh call's answers: `t_first`, then the rest
    /// of `t_all` spread evenly.
    fn of(outcome: &RemoteOutcome) -> Charge {
        let n = outcome.answers.len() as u64;
        let rest = outcome.t_all.saturating_sub(outcome.t_first).as_micros();
        Charge::Pipelined {
            first: outcome.t_first,
            per: match n {
                0 | 1 => SimDuration::ZERO,
                _ => SimDuration::from_micros(rest / (n - 1)),
            },
        }
    }

    /// The time charged before answer `j`.
    fn before(self, j: usize) -> SimDuration {
        match self {
            Charge::Free => SimDuration::ZERO,
            Charge::Pipelined { first, .. } if j == 0 => first,
            Charge::Pipelined { per, .. } => per,
        }
    }
}

/// The gap an `Unavailable` error leaves: an open breaker short-circuited
/// the call, or the site itself was down.
fn unavailable_gap(site: String, reason: &str) -> IncompleteReason {
    if reason.contains("circuit breaker") {
        IncompleteReason::BreakerOpen { site }
    } else {
        IncompleteReason::SiteUnavailable { site }
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
            retry_rng: Rng64::new(RETRY_SEED),
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
                let step = Step {
                    steps,
                    idx,
                    theta,
                    ground: &ground,
                    target,
                    probe: theta.term(target),
                };
                self.run_call(&step, *route, out)
            }
        }
    }

    /// Executes one ground call and iterates its answers into the
    /// continuation.
    fn run_call(&mut self, step: &Step, route: Route, out: &mut RunState) -> Result<bool> {
        // Budget check first: a budget is softer than a deadline, so with
        // both configured (budget < deadline) the downgrade fires before
        // the deadline ever can — degraded answers beat aborted ones.
        if self.budget_at.is_some_and(|b| self.clock.now() > b) {
            self.budget_downgrade();
        }
        // Deadline check at the call boundary: the cheapest safe point to
        // abort, because no partial per-call state exists here.
        if self.deadline_at.is_some_and(|d| self.clock.now() > d) {
            return self.deadline_abort(step.idx, out);
        }

        // Per-query memo (§7 footnote duplicate elimination).
        if self.config.memoize_calls {
            if let Some(answers) = self.memo.get(step.ground).cloned() {
                self.stats.memo_hits += 1;
                return self.iterate(step, out, &answers, Charge::Free);
            }
        }

        match route {
            Route::Direct => self.fetch(step, step.ground, false, out),
            Route::Cim => self.run_cim_call(step, out),
        }
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

    /// The active tier forbade the step's remote call: count it and record
    /// the gap (`IncompleteReason::Downgraded`).
    fn tier_skip(&mut self, step: &Step, out: &mut RunState) {
        self.stats.tier_skipped_calls += 1;
        self.note(TraceEvent::TierSkipped {
            call: step.ground.clone(),
            tier: self.tier,
        });
        out.mark_gap(step.idx, IncompleteReason::Downgraded);
    }

    /// Stale cached answers for `ground`, when the cache will serve them.
    fn stale_answers(&mut self, ground: &GroundCall) -> Option<Arc<[Value]>> {
        let answers = self.cim.stale_answers(ground)?;
        self.note(TraceEvent::ServedStale {
            call: ground.clone(),
            answers: answers.len(),
        });
        Some(answers)
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

    /// Records `wire`'s truncated answer set against the step's provenance.
    fn mark_truncated(&self, step: &Step, wire: &GroundCall, out: &mut RunState) {
        let site = self.site_name(wire).unwrap_or_default();
        out.mark_gap(step.idx, IncompleteReason::Truncated { site });
    }

    /// The name of the site serving `ground`'s domain, when placed.
    fn site_name(&self, ground: &GroundCall) -> Option<String> {
        self.network
            .site_of(&ground.domain)
            .ok()
            .map(|s| s.name.to_string())
    }

    /// The §4.1 pipeline for a CIM-routed call.
    fn run_cim_call(&mut self, step: &Step, out: &mut RunState) -> Result<bool> {
        let ground = step.ground;
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
                self.iterate(step, out, &answers, Charge::Free)
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
                self.iterate(step, out, &answers, Charge::Free)
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
                self.run_partial_hit(step, cached, out)
            }
            CimResolution::Miss { substitute } => {
                self.stats.cim_miss += 1;
                if let Some(s) = &substitute {
                    self.stats.substituted_calls += 1;
                    self.note(TraceEvent::Substituted {
                        call: ground.clone(),
                        executed: s.clone(),
                    });
                }
                self.fetch(step, substitute.as_ref().unwrap_or(ground), true, out)
            }
        }
    }

    /// The fetch path a `Direct` call and a CIM miss share: the outcome a
    /// group dispatch parked for `wire` (already paid for), else the tier
    /// gate and the actual call, charged on its pipelined schedule (an
    /// empty answer set pays its whole `t_all` at once); then the memo and
    /// the iteration. A CIM-routed fetch (`cim`) also stores the answers —
    /// under `wire` and, for a substitute, under the step's own call — and
    /// falls back on stale cached answers when the source is unavailable.
    fn fetch(
        &mut self,
        step: &Step,
        wire: &GroundCall,
        cim: bool,
        out: &mut RunState,
    ) -> Result<bool> {
        let (outcome, charge) = match self.prefetched(step.idx, wire) {
            Some(outcome) => (outcome, Charge::Free),
            None if !self.tier_allows_wire(wire) => {
                // Fail soft: serve whatever stale cached answers exist,
                // else contribute nothing and move on.
                self.tier_skip(step, out);
                return match self.stale_answers(step.ground) {
                    Some(answers) => self.iterate(step, out, &answers, Charge::Free),
                    None => Ok(true),
                };
            }
            None => match self.actual_call(wire, false) {
                Ok(outcome) => {
                    if outcome.answers.is_empty() {
                        self.clock.advance(outcome.t_all);
                    }
                    let charge = Charge::of(&outcome);
                    (outcome, charge)
                }
                Err(HermesError::Unavailable { site, reason }) if cim => {
                    // Serve-stale fallback: a possibly-incomplete old
                    // entry beats failing the whole query.
                    let Some(answers) = self.stale_answers(step.ground) else {
                        return Err(HermesError::Unavailable { site, reason });
                    };
                    out.mark_gap(step.idx, unavailable_gap(site, &reason));
                    return self.iterate(step, out, &answers, Charge::Free);
                }
                Err(e) => return Err(e),
            },
        };
        let complete = !outcome.truncated;
        if !complete {
            self.mark_truncated(step, wire, out);
        }
        // One shared allocation backs the CIM store(s), the memo, and the
        // iteration below (Arc clones, no deep copies).
        let answers = outcome.answers;
        if cim && self.config.store_results {
            let now = self.clock.now();
            self.cim.store(wire.clone(), answers.clone(), complete, now);
            if wire != step.ground {
                // Equality invariant: the original call has the same
                // answers — cache it under its own key too.
                self.cim
                    .store(step.ground.clone(), answers.clone(), complete, now);
            }
        }
        if self.config.memoize_calls && complete {
            self.memo.insert(step.ground.clone(), answers.clone());
        }
        self.iterate(step, out, &answers, charge)
    }

    /// Partial hit: yield the cached prefix, then (if the consumer still
    /// wants answers) the remainder from the actual call, which runs
    /// concurrently with serving the prefix (§4.1: "it is possible to make
    /// the actual domain call in parallel whenever a partial answer set is
    /// obtained").
    fn run_partial_hit(
        &mut self,
        step: &Step,
        cached: Arc<[Value]>,
        out: &mut RunState,
    ) -> Result<bool> {
        let ground = step.ground;
        let started = self.clock.now();
        // Serve the cached prefix (the CIM lookup already charged for it).
        // Membership probes must not early-out here: a hit in the prefix
        // answers the probe, but a missing value may still arrive in the
        // remainder — so probes fall through to the actual call when the
        // prefix does not contain the value.
        if let Some(v) = &step.probe {
            if cached.contains(v) {
                return self.exec(step.steps, step.idx + 1, step.theta, out);
            }
        } else if !self.iterate(step, out, &cached, Charge::Free)? {
            // Consumer stopped inside the cached prefix: the actual call
            // never needs to be issued.
            self.stats.cancelled_calls += 1;
            self.note(TraceEvent::Cancelled {
                call: ground.clone(),
            });
            return Ok(false);
        }

        // Need the remainder: issue (or join) the actual call — unless
        // the active tier forbids it, in which case the cached prefix is
        // all this subgoal contributes (flagged `Downgraded`).
        if !self.tier_allows_wire(ground) {
            self.tier_skip(step, out);
            return Ok(true);
        }
        match self.actual_call(ground, false) {
            Ok(outcome) => {
                let complete = !outcome.truncated;
                if !complete {
                    self.mark_truncated(step, ground, out);
                }
                self.clock.advance_to(started + outcome.t_all);
                let answers = outcome.answers;
                let (remainder, merge_cost) = self.cim.merge_partial(ground, &cached, &answers);
                self.clock.advance(merge_cost);
                if self.config.store_results {
                    self.cim
                        .store(ground.clone(), answers.clone(), complete, self.clock.now());
                }
                if self.config.memoize_calls && complete {
                    self.memo.insert(ground.clone(), answers);
                }
                self.iterate(step, out, &remainder, Charge::Free)
            }
            Err(HermesError::Unavailable { site, reason }) => {
                // The cache already served what it could (§1: use prior
                // results when the source is not readily available).
                // `actual_call` already counted the unavailability.
                out.mark_gap(step.idx, unavailable_gap(site, &reason));
                Ok(true)
            }
            Err(e) => Err(e),
        }
    }

    /// Iterates an answer list into the continuation: binds the step's
    /// target to each answer, or (for a probe) scans until the value
    /// appears, paying `charge` before each answer.
    fn iterate(
        &mut self,
        step: &Step,
        out: &mut RunState,
        answers: &[Value],
        charge: Charge,
    ) -> Result<bool> {
        let (steps, next) = (step.steps, step.idx + 1);
        if let Some(v) = &step.probe {
            for (j, a) in answers.iter().enumerate() {
                self.clock.advance(charge.before(j));
                if a == v {
                    return self.exec(steps, next, step.theta, out);
                }
            }
            return Ok(true);
        }
        let var = step.target.as_var().ok_or_else(|| {
            HermesError::Eval("call target is neither ground nor a variable".into())
        })?;
        for (j, a) in answers.iter().enumerate() {
            self.clock.advance(charge.before(j));
            let mut t2 = step.theta.clone();
            t2.bind(var.clone(), a.clone());
            if !self.exec(steps, next, &t2, out)? {
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
    /// the cached prefix.) Failed dispatches are *not* parked; consumption
    /// re-attempts the call and runs the ordinary unavailability handling
    /// (serve-stale, breakers, failover). A truncated outcome is counted
    /// once, here where the call happens, however often the walk consumes
    /// it. Answer content and order are identical to the sequential walk —
    /// only the virtual-time charging changes.
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
            let result = self.actual_call(&wire, piggyback);
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
        if self.prefetch.is_empty() {
            return None; // the sequential walk never parks anything
        }
        self.prefetch.get(&(idx, wire.clone())).cloned()
    }

    /// Reaches the source for `ground` and counts (and traces) a
    /// truncated answer set. A `piggyback` call shares an
    /// already-dispatched group sibling's round trip and pays no
    /// connect + RTT.
    ///
    /// With a single-flight registry attached, identical concurrent calls
    /// coalesce here: the first caller in leads (performing the real call,
    /// breakers and retries included) and publishes its outcome; later
    /// callers follow, blocking until the leader's answers arrive as an
    /// `Arc` bump. A follower whose leader failed re-joins — one inherits
    /// leadership of a fresh flight, the rest coalesce behind it.
    fn actual_call(&mut self, ground: &GroundCall, piggyback: bool) -> Result<RemoteOutcome> {
        let outcome = match self.flight {
            None => self.actual_call_direct(ground, piggyback)?,
            Some(registry) => loop {
                match registry.join(ground) {
                    FlightRole::Leader(token) => {
                        let result = self.actual_call_direct(ground, piggyback);
                        match &result {
                            Ok(outcome) => token.publish(outcome.clone()),
                            Err(_) => token.abandon(),
                        }
                        break result?;
                    }
                    FlightRole::Follower(handle) => {
                        self.stats.calls_coalesced += 1;
                        if let Some(outcome) = handle.wait() {
                            self.stats.round_trips_saved += 1;
                            self.note(TraceEvent::Coalesced {
                                call: ground.clone(),
                                answers: outcome.answers.len(),
                            });
                            break outcome;
                        }
                        // The leader abandoned without publishing: contend
                        // for leadership of a fresh flight.
                    }
                }
            },
        };
        if outcome.truncated {
            self.stats.truncated_calls += 1;
            self.note(TraceEvent::Truncated {
                call: ground.clone(),
                kept: outcome.answers.len(),
            });
        }
        Ok(outcome)
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

    /// A one-shard CIM whose lookups cost nothing on the virtual clock,
    /// so a CIM-routed run's timings compare with a `Direct` run's.
    fn free_cim() -> ShardedCim {
        let model = hermes_cim::CimCostModel {
            probe_ms: 0.0,
            per_answer_ms: 0.0,
            invariant_scan_per_entry_ms: 0.0,
            merge_per_answer_ms: 0.0,
        };
        ShardedCim::from_template(&hermes_cim::Cim::new().with_cost_model(model), 1)
    }

    /// What the `d2` call of the fetch-path cases brings back.
    #[derive(Clone, Copy, Debug)]
    enum Fetched {
        Rows,
        Empty,
        Truncated,
    }

    /// Runs the `d2` call on `route` against a cold `free_cim`: alone, or
    /// `grouped` as the plan of `?- in(A, d1:p_ff()) & in(B, d2:p_ff()).`,
    /// so that a group dispatch parks both outcomes and the walk revisits
    /// `d2`'s once per `A`.
    fn run_fetch(fetched: Fetched, route: Route, grouped: bool) -> (ExecOutcome, ShardedCim) {
        let mut net = Network::new(13);
        for (name, site) in [("d1", profiles::maryland()), ("d2", profiles::cornell())] {
            let d = SyntheticDomain::generate(name, 3, &[RelationSpec::uniform("p", 8, 1.0)]);
            net.place(Arc::new(d), site);
        }
        if let Fetched::Truncated = fetched {
            net.set_fault_plan(hermes_net::FaultPlan::new(5).truncation("cornell", 1.0, 0.5));
        }
        let call = |target: &str, domain: &str, function: &str, args: Vec<Term>| PlanStep::Call {
            target: Term::var(target),
            call: CallTemplate::new(domain, function, args),
            route,
        };
        let mut plan = Plan {
            steps: vec![match fetched {
                Fetched::Empty => call("B", "d2", "p_bf", vec![Term::Const(Value::str("none"))]),
                Fetched::Rows | Fetched::Truncated => call("B", "d2", "p_ff", vec![]),
            }],
            answer_vars: vec![Arc::from("B")],
        };
        if grouped {
            plan.steps.insert(0, call("A", "d1", "p_ff", vec![]));
            plan.answer_vars.insert(0, Arc::from("A"));
        }
        let cim = free_cim();
        let config = ExecConfig {
            max_parallel_calls: if grouped { 2 } else { 1 },
            collect_trace: true,
            ..ExecConfig::default()
        };
        let out = Executor::new(&net, &cim, &dcsm_new(), SimClock::new(), config)
            .run(&plan, None)
            .unwrap();
        (out, cim)
    }

    #[test]
    fn direct_and_cold_cim_calls_charge_alike_on_the_shared_fetch_path() {
        let without_cim = |s: ExecStats| ExecStats {
            cim_exact: 0,
            cim_equal: 0,
            cim_partial: 0,
            cim_miss: 0,
            ..s
        };
        for fetched in [Fetched::Rows, Fetched::Empty, Fetched::Truncated] {
            for grouped in [false, true] {
                let case = format!("{fetched:?}, grouped {grouped}");
                let (direct, _) = run_fetch(fetched, Route::Direct, grouped);
                let (cached, cim) = run_fetch(fetched, Route::Cim, grouped);
                assert_eq!(direct.answers, cached.answers, "{case}");
                assert_eq!(direct.t_first, cached.t_first, "{case}");
                assert_eq!(direct.t_all, cached.t_all, "{case}");
                assert_eq!(direct.provenance, cached.provenance, "{case}");
                assert_eq!(
                    without_cim(direct.stats),
                    without_cim(cached.stats),
                    "{case}"
                );
                assert!(!cim.is_empty(), "{case}: the CIM route stores");
                assert_eq!(direct.stats.parallel_groups, u64::from(grouped), "{case}");
                // A truncated call is counted (and traced) once, where it
                // happens, however often the walk consumes its outcome.
                let stats = direct.stats;
                let truncations = |out: &ExecOutcome| {
                    let truncated =
                        |e: &&TraceEntry| matches!(e.event, TraceEvent::Truncated { .. });
                    out.trace.iter().filter(truncated).count() as u64
                };
                assert_eq!(truncations(&direct), stats.truncated_calls, "{case}");
                assert_eq!(truncations(&cached), stats.truncated_calls, "{case}");
                assert!(stats.truncated_calls <= stats.actual_calls, "{case}");
                match fetched {
                    Fetched::Rows => assert!(!direct.answers.is_empty(), "{case}"),
                    // No answer carries the charge: the clock pays `t_all`.
                    Fetched::Empty => assert!(direct.t_all > SimDuration::ZERO, "{case}"),
                    Fetched::Truncated => {
                        assert_eq!(stats.truncated_calls, 1, "{case}");
                        assert!(direct.incomplete, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_substituted_miss_stores_under_both_keys_and_charges_like_its_executed_call() {
        let d = SyntheticDomain::generate("d1", 5, &[RelationSpec::uniform("p", 10, 3.0)]);
        let values = d.domain_values("p");
        let low = values.iter().min().expect("non-empty");
        let high = values.iter().max().expect("non-empty");
        let plan = |arg: &Value, route| Plan {
            steps: vec![PlanStep::Call {
                target: Term::var("B"),
                call: CallTemplate::new("d1", "p_bf", vec![Term::Const(arg.clone())]),
                route,
            }],
            answer_vars: vec![Arc::from("B")],
        };
        let (net, _, dcsm) = world();
        let run = |net: &Network, cim: &ShardedCim, plan: &Plan| {
            Executor::new(net, cim, &dcsm, SimClock::new(), ExecConfig::default())
                .run(plan, None)
                .unwrap()
        };
        let cim = free_cim();
        // Not sound for the synthetic relation: the executor's handling of
        // a substitute is what is under test.
        let inv = format!("X > '{low}' => d1:p_bf(X) = d1:p_bf('{low}').");
        cim.add_invariant(&parse_invariant(&inv).unwrap()).unwrap();
        let substituted = run(&net, &cim, &plan(high, Route::Cim));
        assert_eq!(substituted.stats.substituted_calls, 1);
        assert_eq!(cim.len(), 2, "stored under the executed and the asked call");
        // Charged like the executed call made directly, on a fresh network.
        let direct = run(&world().0, &free_cim(), &plan(low, Route::Direct));
        assert_eq!(substituted.answers, direct.answers);
        assert_eq!(substituted.t_first, direct.t_first);
        assert_eq!(substituted.t_all, direct.t_all);
        // The asked call's own key now answers exactly.
        let again = run(&net, &cim, &plan(high, Route::Cim));
        assert_eq!((again.stats.cim_exact, again.stats.actual_calls), (1, 0));
        assert_eq!(again.answers, substituted.answers);
    }
}
