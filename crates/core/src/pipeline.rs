//! The one query pipeline (the paper's Figure 1, once): request overrides
//! → rewrite + cost + choose → tier selection → executor run with plan
//! failover → projection.
//!
//! [`ConcurrentMediator`](crate::server::ConcurrentMediator) is its one
//! caller, and [`Mediator`](crate::mediator::Mediator) is the `&mut self`
//! face of a one-shard `ConcurrentMediator` (DESIGN.md §12). What a run
//! depends on besides the state on [`Pipeline`] — the clock and the
//! gate's load — is an argument of [`Pipeline::run`].
//! A query is [`stage`](Pipeline::stage)d (parsed and planned) first and
//! [`run`](Pipeline::run) second, so the caller picks the clock it runs
//! on once planning is over.

use crate::breaker::BreakerBank;
use crate::cost::choose_plan;
use crate::exec::{ExecOutcome, ExecStats, Executor};
use crate::flight::InFlightRegistry;
use crate::matcache::MatCache;
use crate::mediator::{MediatorConfig, Planned, QueryRequest, QueryResult};
use crate::plan::{Plan, PlanStep, Route};
use crate::rewrite::{bind_query, cache_servable_plans, CheckedProgram, PushdownRule};
use crate::tier::{select_tier, PlanTier, TierDecision, TierInputs, TierLoad, TierReason};
use crate::trace::{TraceEntry, TraceEvent};
use hermes_cim::{CimPolicy, CimPreview, CimView};
use hermes_common::sync::Mutex;
use hermes_common::{GroundCall, HermesError, Result, SimClock, SimInstant};
use hermes_dcsm::{CostVector, ShardedDcsm};
use hermes_lang::{parse_query, Query, Subst};
use hermes_net::Network;
use std::collections::BTreeSet;

/// The planning inputs: what a query is rewritten and costed against.
/// The program is checked and indexed where it is installed, so planning
/// a query repeats none of the work that depends on the program alone.
#[derive(Clone, Debug)]
pub(crate) struct PlanningCore {
    pub program: CheckedProgram,
    pub policy: CimPolicy,
    pub config: MediatorConfig,
    pub pushdowns: Vec<PushdownRule>,
}

/// One mediator's planning inputs and shared state, borrowed per query.
pub(crate) struct Pipeline<'a> {
    pub core: &'a PlanningCore,
    pub network: &'a Network,
    pub cim: &'a dyn CimView,
    pub dcsm: &'a ShardedDcsm,
    pub breakers: &'a Mutex<BreakerBank>,
    pub matcache: &'a MatCache,
    /// Single-flight coalescing of identical concurrent ground calls.
    pub flight: &'a InFlightRegistry,
}

/// A request parsed, bound and planned under its own copy of the
/// configuration: what [`Pipeline::stage`] hands to [`Pipeline::run`].
#[derive(Debug)]
pub(crate) struct Staged {
    config: MediatorConfig,
    planned: Planned,
    limit: Option<usize>,
    tier: Option<PlanTier>,
}

impl Staged {
    /// True when the request engages the tier selector on its own, with
    /// a tier or a budget; a bounded admission gate engages it too.
    fn engages_tiers(&self) -> bool {
        self.tier.is_some() || self.config.exec.budget.is_some()
    }

    /// The one ground call this query comes down to, when the answer
    /// cache could serve the whole of it: no tier machinery engaged, and
    /// the chosen plan has exactly one call step, CIM-routed, with
    /// constant arguments.
    fn cached_point(&self) -> Option<GroundCall> {
        if self.engages_tiers() {
            return None;
        }
        let mut calls = self.planned.plan().steps.iter().filter(|s| s.is_call());
        let (Some(PlanStep::Call { call, route, .. }), None) = (calls.next(), calls.next()) else {
            return None;
        };
        // Under no bindings a template grounds only if every argument is
        // a constant.
        (*route == Route::Cim)
            .then(|| Subst::new().ground_call(call))
            .flatten()
    }
}

impl Pipeline<'_> {
    /// Applies the request's options to a copy of the configuration (for
    /// this run only), then parses, binds and plans the query.
    pub fn stage(&self, req: &QueryRequest) -> Result<Staged> {
        let mut config = self.core.config;
        if let Some(d) = req.deadline {
            config.exec.deadline = Some(d);
        }
        if let Some(t) = req.trace {
            config.exec.collect_trace = t;
        }
        if let Some(k) = req.parallelism {
            config.exec.max_parallel_calls = k;
            config.cost.max_parallel_calls = k;
            config.rewrite.favor_parallel = k > 1;
        }
        if let Some(b) = req.budget {
            config.exec.budget = Some(b);
        }
        let query = parse_query(&req.src)?;
        // Bind before planning, so the optimizer sees real constants.
        let query = match &req.bindings {
            Some(params) => bind_query(&query, params),
            None => query,
        };
        Ok(Staged {
            planned: self.plan(&query, &config)?,
            config,
            limit: req.limit,
            tier: req.tier,
        })
    }

    /// Runs a staged request to the end on `clock`, which is left at the
    /// instant the run ended — also when it failed, since a dead plan's
    /// retries burned real virtual time.
    ///
    /// The tier selector is engaged by a per-request tier or budget, or a
    /// bounded admission gate (`gate_load` is `Some`); otherwise the
    /// paper-exact path never consults it and no decision is returned.
    pub fn run(
        &self,
        staged: Staged,
        gate_load: Option<TierLoad>,
        clock: &mut SimClock,
    ) -> Result<(QueryResult, Option<TierDecision>)> {
        let engaged = staged.engages_tiers() || gate_load.is_some();
        let (mut config, mut planned, tier) = (staged.config, staged.planned, staged.tier);
        let selected_at = clock.now();
        let decision = engaged.then(|| {
            let load = gate_load.unwrap_or_else(TierLoad::unbounded);
            let decision = self.select_query_tier(tier, &mut planned, &config, load, selected_at);
            config.exec.tier = decision.tier;
            decision
        });
        let mut result = self.execute(&planned, staged.limit, &config, clock)?;
        let traced =
            |d: &TierDecision| d.reason != TierReason::Default && config.exec.collect_trace;
        if let Some(TierDecision { tier, reason }) = decision.filter(traced) {
            let event = TraceEvent::TierSelected { tier, reason };
            result.trace.insert(
                0,
                TraceEntry {
                    at: selected_at,
                    event,
                },
            );
        }
        Ok((result, decision))
    }

    /// Runs a staged request to the end only if nothing can make it wait:
    /// it comes down to one [cached point](Staged::cached_point) call and
    /// the side-effect-free [`CimView::preview`] says `Hit`. The run goes
    /// through the executor's wire gate ([`PlanTier::CacheOnly`], the
    /// selector not engaged) and is accepted only if no call was skipped
    /// and the answer is complete, so an entry evicted between preview
    /// and lookup cannot put a source wait on the calling thread. `None`
    /// hands the request back, still runnable; `clock` is then dead.
    pub fn run_cached(&self, staged: &Staged, clock: &mut SimClock) -> Option<QueryResult> {
        let point = staged.cached_point()?;
        if self.cim.preview(&point) != CimPreview::Hit {
            return None;
        }
        let mut config = staged.config;
        config.exec.tier = PlanTier::CacheOnly;
        let result = self
            .execute(&staged.planned, staged.limit, &config, clock)
            .ok()?;
        (result.stats.tier_skipped_calls == 0 && !result.incomplete).then_some(result)
    }

    /// Rewrites and costs a query: every executable plan, its §7
    /// estimate under the current statistics, and the cheapest one.
    pub fn plan(&self, query: &Query, config: &MediatorConfig) -> Result<Planned> {
        let plans = self.core.program.enumerate_plans(
            query,
            &self.core.policy,
            config.rewrite,
            &self.core.pushdowns,
        )?;
        let (chosen, estimates) = self.choose(&plans, config);
        Ok(Planned {
            plans,
            estimates,
            chosen,
        })
    }

    /// Runs the deterministic tier selector. A `CacheOnly` decision also
    /// re-points `planned.chosen` at the cheapest plan whose every call
    /// is CIM-routed, when one exists: a Direct-routed call can never be
    /// cache-served.
    fn select_query_tier(
        &self,
        requested: Option<PlanTier>,
        planned: &mut Planned,
        config: &MediatorConfig,
        load: TierLoad,
        now: SimInstant,
    ) -> TierDecision {
        let plan_sites = self.plan_sites(planned.plan());
        let open = self.breakers.lock().open_sites(now);
        let decision = select_tier(&TierInputs {
            requested,
            budget: config.exec.budget,
            estimate_ms: planned.estimate().t_all_ms.unwrap_or(0.0),
            plan_site_breaker_open: open.iter().any(|s| plan_sites.contains(s.as_ref())),
            load,
        });
        if decision.tier == PlanTier::CacheOnly {
            let servable = cache_servable_plans(&planned.plans);
            if !servable.is_empty() && !servable.contains(&planned.chosen) {
                planned.chosen = servable
                    .into_iter()
                    .min_by(|&a, &b| {
                        let ta = planned.estimates[a].t_all_ms.unwrap_or(f64::INFINITY);
                        let tb = planned.estimates[b].t_all_ms.unwrap_or(f64::INFINITY);
                        ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("servable is non-empty");
            }
        }
        decision
    }

    /// The failover-aware execution loop (see
    /// [`Mediator::execute`](crate::mediator::Mediator::execute)).
    pub fn execute(
        &self,
        planned: &Planned,
        limit: Option<usize>,
        config: &MediatorConfig,
        clock: &mut SimClock,
    ) -> Result<QueryResult> {
        let mut idx = planned.chosen;
        let mut avoid: BTreeSet<String> = BTreeSet::new();
        let mut failovers = 0u32;
        // Counters from plan attempts that died mid-run; folded into the
        // final result so the query's cost accounting stays honest.
        let mut carried = ExecStats::default();
        loop {
            let plan = planned.plans[idx].clone();
            let estimate = planned.estimates[idx];
            let mut executor = Executor::new(
                self.network,
                self.cim,
                self.dcsm,
                clock.clone(),
                config.exec,
            )
            .with_breakers(self.breakers)
            .with_flight(self.flight);
            if config.exec.share_subplans {
                executor = executor.with_matcache(self.matcache);
            }
            let attempt = executor.run(&plan, limit);
            // The attempt's virtual time is real whether it succeeded or
            // not: a failover resumes *after* the retries the dead plan
            // burned, it does not rewind them.
            clock.advance_to(executor.now());
            match attempt {
                Ok(outcome) => {
                    let mut result = project(plan, estimate, planned.plans.len(), outcome);
                    result.failovers = failovers;
                    result.stats.absorb(&carried);
                    return Ok(result);
                }
                Err(HermesError::Unavailable { site, reason }) if config.failover => {
                    carried.absorb(&executor.stats());
                    // A site can only fail over once; seeing it again means
                    // no alternative exists and the outage is final.
                    if !avoid.insert(site.clone()) {
                        return Err(HermesError::Unavailable { site, reason });
                    }
                    match self.failover_choice(planned, &avoid, config) {
                        Some(next) => {
                            failovers += 1;
                            idx = next;
                        }
                        None => return Err(HermesError::Unavailable { site, reason }),
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The sites a plan's call steps touch.
    fn plan_sites(&self, plan: &Plan) -> BTreeSet<String> {
        let mut sites = BTreeSet::new();
        for step in &plan.steps {
            if let PlanStep::Call { call, .. } = step {
                if let Ok(site) = self.network.site_of(&call.domain) {
                    sites.insert(site.name.to_string());
                }
            }
        }
        sites
    }

    /// The cheapest plan (under current statistics) touching none of the
    /// sites in `avoid`, if any.
    fn failover_choice(
        &self,
        planned: &Planned,
        avoid: &BTreeSet<String>,
        config: &MediatorConfig,
    ) -> Option<usize> {
        let eligible: Vec<usize> = (0..planned.plans.len())
            .filter(|&i| self.plan_sites(&planned.plans[i]).is_disjoint(avoid))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let candidates: Vec<Plan> = eligible.iter().map(|&i| planned.plans[i].clone()).collect();
        Some(eligible[self.choose(&candidates, config).0])
    }

    /// [`choose_plan`] against the current statistics.
    fn choose(&self, plans: &[Plan], config: &MediatorConfig) -> (usize, Vec<CostVector>) {
        choose_plan(plans, self.dcsm, &config.cost, config.optimize_first_answer)
    }
}

/// Projects an execution outcome onto a plan's answer variables.
fn project(
    plan: Plan,
    estimate: CostVector,
    plans_considered: usize,
    outcome: ExecOutcome,
) -> QueryResult {
    QueryResult {
        columns: plan.answer_vars.clone(),
        rows: outcome
            .answers
            .iter()
            .map(|theta| plan.row(theta))
            .collect(),
        t_first: outcome.t_first,
        t_all: outcome.t_all,
        plan,
        estimate,
        plans_considered,
        stats: outcome.stats,
        incomplete: outcome.incomplete,
        provenance: outcome.provenance,
        failovers: 0,
        trace: outcome.trace,
    }
}
