//! The one query path (the paper's Figure 1, once): admission → request
//! overrides → rewrite + cost + choose → tier selection → executor run
//! with plan failover → projection, as methods of [`Mediator`].
//!
//! A query is [`stage`](Mediator::stage)d (admitted, then parsed and
//! planned against the planning snapshot it reads once) first and
//! [`run`](Mediator::run) second, possibly on another thread, so the
//! run's clock is taken once planning is over.

use crate::cost::choose_among;
use crate::exec::{ExecConfig, ExecOutcome, ExecStats, Executor};
use crate::mediator::{MediatorConfig, Planned, QueryRequest, QueryResult};
use crate::plan::{Plan, PlanStep, Route};
use crate::rewrite::{bind_query, cache_servable_plans, CheckedProgram, PushdownRule};
use crate::server::{GatePermit, Mediator};
use crate::tier::{select_tier, PlanTier, TierDecision, TierInputs, TierLoad, TierReason};
use crate::trace::{TraceEntry, TraceEvent};
use hermes_analysis::Diagnostic;
use hermes_cim::{CimPolicy, CimPreview, CimView};
use hermes_common::{GroundCall, HermesError, Result, SimClock, SimInstant};
use hermes_dcsm::CostVector;
use hermes_lang::{parse_query, Query, Subst};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The planning inputs: what a query is rewritten and costed against, one
/// immutable snapshot per change (see [`Mediator::change_core`]). The
/// program is checked and indexed where it is installed, so planning a
/// query repeats none of the work that depends on the program alone, and
/// copying the snapshot for a change copies no program.
#[derive(Clone, Debug)]
pub(crate) struct PlanningCore {
    pub program: Arc<CheckedProgram>,
    /// Warning-severity findings of the analyzer run that installed
    /// `program`.
    pub warnings: Vec<Diagnostic>,
    pub policy: CimPolicy,
    pub config: MediatorConfig,
    pub pushdowns: Vec<PushdownRule>,
}

/// A request admitted through the gate, then parsed, bound and planned
/// under its own copy of the configuration, but not yet run: what
/// [`Mediator::stage`] hands to [`Mediator::run`]. Nothing in it reads the
/// planning core again, so it runs as staged whatever changes meanwhile.
/// It owns its gate permit and is `Send`, so any thread may run it;
/// dropping it releases the gate slot.
#[derive(Debug)]
pub(crate) struct StagedQuery {
    config: MediatorConfig,
    planned: Planned,
    limit: Option<usize>,
    tier: Option<PlanTier>,
    _permit: GatePermit,
}

impl StagedQuery {
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

/// What a step that may pass its work on returns: the work finished on
/// the calling thread, or handed back untouched for another thread to
/// finish. A handed-back query is not a failure, so this is no `Result`.
#[must_use]
pub(crate) enum Handoff<T, W> {
    /// Finished here.
    Done(T),
    /// Not started here: run it elsewhere.
    Back(W),
}

impl Mediator {
    /// The first half of [`query`](Self::query): admits the request
    /// through the gate, then reads the planning snapshot, applies the
    /// request's options to a copy of its configuration (for this run
    /// only) and parses, binds and plans it.
    /// Admission comes before any parsing or planning, so a shed query
    /// costs nothing and returns immediately.
    pub(crate) fn stage(&self, req: &QueryRequest) -> Result<StagedQuery> {
        let admit_and_stage = || {
            let permit = self.gate.admit().ok_or_else(|| HermesError::Shed {
                reason: "gate-full".into(),
            })?;
            let core = self.snapshot();
            let mut config = core.config;
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
            Ok(StagedQuery {
                planned: self.plan_on(&core, &query, &config)?,
                config,
                limit: req.limit,
                tier: req.tier,
                _permit: permit,
            })
        };
        admit_and_stage().inspect_err(|e| self.count(e))
    }

    /// The second half of [`query`](Self::query): tier selection (it
    /// needs the cost estimate) and the run itself, on a clock started at
    /// the high-water mark of finished queries and folded back into it
    /// afterwards — also when the run failed, since a dead plan's retries
    /// burned real virtual time.
    ///
    /// The tier selector is engaged by a per-request tier or budget, or a
    /// bounded admission gate; otherwise the paper-exact path never
    /// consults it.
    pub(crate) fn run(&self, mut query: StagedQuery) -> Result<QueryResult> {
        let mut clock = self.query_clock();
        let load = self.gate.load();
        let selected_at = clock.now();
        let decision = (query.engages_tiers() || load.is_some()).then(|| {
            let load = load.unwrap_or_else(TierLoad::unbounded);
            let decision = self.select_query_tier(&mut query, load, selected_at);
            query.config.exec.tier = decision.tier;
            decision
        });
        let served = self.run_planned(&query.planned, query.limit, &query.config, &mut clock);
        self.fold_clock(&clock);
        let result = served.map(|run| {
            let mut result = run.into_result(query.planned);
            if decision.is_some_and(|d| d.tier < PlanTier::Full) || result.stats.tier_downgrades > 0
            {
                self.downgraded.fetch_add(1, Ordering::Relaxed);
            }
            let traced = |d: &TierDecision| {
                d.reason != TierReason::Default && query.config.exec.collect_trace
            };
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
            result
        });
        match &result {
            Ok(_) => self.count_admitted(),
            Err(e) => self.count(e),
        }
        result
    }

    /// Finishes a staged query on the calling thread when nothing can
    /// make it wait: the gate is unbounded, the query comes down to one
    /// [cached point](StagedQuery::cached_point) call, and the
    /// side-effect-free [`CimView::preview`] says `Hit`. The run goes
    /// through the executor's wire gate ([`PlanTier::CacheOnly`], the
    /// selector not engaged) and is accepted only if no call was skipped
    /// and the answer is complete, so an entry evicted between preview
    /// and lookup cannot put a source wait on the calling thread.
    /// Otherwise the query is handed back untouched and uncounted, for
    /// [`run`](Self::run) on a thread that may block on a source.
    pub(crate) fn run_cached(&self, query: StagedQuery) -> Handoff<QueryResult, StagedQuery> {
        self.run_cached_on(&self.cim, query)
    }

    /// [`run_cached`](Self::run_cached) with `cim` answering the preview:
    /// the seam a test uses to make the preview and the lookup disagree.
    pub(crate) fn run_cached_on(
        &self,
        cim: &dyn CimView,
        query: StagedQuery,
    ) -> Handoff<QueryResult, StagedQuery> {
        let hit = !self.gate_bounded()
            && query
                .cached_point()
                .is_some_and(|point| cim.preview(&point) == CimPreview::Hit);
        if !hit {
            return Handoff::Back(query);
        }
        let mut clock = self.query_clock();
        let mut config = query.config;
        config.exec.tier = PlanTier::CacheOnly;
        match self.run_planned(&query.planned, query.limit, &config, &mut clock) {
            Ok(run) if run.outcome.stats.tier_skipped_calls == 0 && !run.outcome.incomplete => {
                self.fold_clock(&clock);
                self.count_admitted();
                Handoff::Done(run.into_result(query.planned))
            }
            _ => Handoff::Back(query),
        }
    }

    /// Rewrites and costs a query against `core`: every executable plan,
    /// its §7 estimate under the current statistics, and the cheapest one.
    pub(crate) fn plan_on(
        &self,
        core: &PlanningCore,
        query: &Query,
        config: &MediatorConfig,
    ) -> Result<Planned> {
        let plans =
            core.program
                .enumerate_plans(query, &core.policy, config.rewrite, &core.pushdowns)?;
        let (chosen, estimates) = self.choose(&plans, config);
        Ok(Planned {
            plans,
            estimates,
            chosen,
        })
    }

    /// Runs the deterministic tier selector. A `CacheOnly` decision also
    /// re-points the chosen plan at the cheapest plan whose every call is
    /// CIM-routed, when one exists: a Direct-routed call can never be
    /// cache-served.
    fn select_query_tier(
        &self,
        query: &mut StagedQuery,
        load: TierLoad,
        now: SimInstant,
    ) -> TierDecision {
        let planned = &mut query.planned;
        let plan_sites = self.plan_sites(planned.plan());
        let open = self.breakers.lock().open_sites(now);
        let decision = select_tier(&TierInputs {
            requested: query.tier,
            budget: query.config.exec.budget,
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

    /// The failover-aware execution loop on `clock`, which is left at the
    /// instant the run ended (see [`Mediator::execute`]). The plans run
    /// where they stand; [`PlanRun::into_result`] moves the one that
    /// finished into its result.
    pub(crate) fn run_planned(
        &self,
        planned: &Planned,
        limit: Option<usize>,
        config: &MediatorConfig,
        clock: &mut SimClock,
    ) -> Result<PlanRun> {
        let mut idx = planned.chosen;
        let mut avoid: BTreeSet<String> = BTreeSet::new();
        let mut failovers = 0u32;
        // Counters from plan attempts that died mid-run; folded into the
        // final result so the query's cost accounting stays honest.
        let mut carried = ExecStats::default();
        loop {
            let mut executor = self.executor(clock.clone(), config.exec);
            let attempt = executor.run(&planned.plans[idx], limit);
            // The attempt's virtual time is real whether it succeeded or
            // not: a failover resumes *after* the retries the dead plan
            // burned, it does not rewind them.
            clock.advance_to(executor.now());
            match attempt {
                Ok(mut outcome) => {
                    outcome.stats.absorb(&carried);
                    return Ok(PlanRun {
                        idx,
                        outcome,
                        failovers,
                    });
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

    /// An executor over this mediator's network, caches, breakers and
    /// single-flight registry, plus the subplan cache when `config`
    /// shares subplans: every run in `hermes-core` starts here.
    pub(crate) fn executor(&self, clock: SimClock, config: ExecConfig) -> Executor<'_> {
        let executor = Executor::new(&self.network, &self.cim, &self.dcsm, clock, config)
            .with_breakers(&self.breakers)
            .with_flight(self.flight());
        if config.share_subplans {
            executor.with_matcache(&self.matcache)
        } else {
            executor
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
        let candidates = eligible.iter().map(|&i| &planned.plans[i]);
        Some(eligible[self.choose(candidates, config).0])
    }

    /// [`choose_plan`](crate::choose_plan) against the current statistics.
    fn choose<'p>(
        &self,
        plans: impl IntoIterator<Item = &'p Plan>,
        config: &MediatorConfig,
    ) -> (usize, Vec<CostVector>) {
        choose_among(
            plans,
            &self.dcsm,
            &config.cost,
            config.optimize_first_answer,
        )
    }
}

/// A plan run that finished: which of the query's plans, its outcome
/// (with the counters of the attempts that failed over folded in) and the
/// failovers it took.
pub(crate) struct PlanRun {
    idx: usize,
    outcome: ExecOutcome,
    failovers: u32,
}

impl PlanRun {
    /// The query's result: the plan that ran moves out of `planned` into
    /// it, with its estimate.
    pub(crate) fn into_result(self, mut planned: Planned) -> QueryResult {
        let considered = planned.plans.len();
        let estimate = planned.estimates[self.idx];
        let plan = planned.plans.swap_remove(self.idx);
        let mut result = project(plan, estimate, considered, self.outcome);
        result.failovers = self.failovers;
        result
    }
}

/// The query result of an execution outcome: its rows move in, under the
/// plan's answer columns.
fn project(
    plan: Plan,
    estimate: CostVector,
    plans_considered: usize,
    outcome: ExecOutcome,
) -> QueryResult {
    QueryResult {
        columns: plan.answer_vars.clone(),
        rows: outcome.answers.into_rows(),
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
