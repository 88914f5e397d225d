//! The mediator facade: parse → rewrite → cost → choose → execute.

use crate::breaker::BreakerBank;
use crate::caches::{CacheControl, PlanningKnobs};
use crate::cost::{estimate_plan, CostConfig};
use crate::cursor::InteractiveQuery;
use crate::exec::{ExecConfig, ExecStats, SubgoalProvenance};
use crate::matcache::MatCache;
use crate::pipeline::PlanningCore;
use crate::plan::Plan;
use crate::rewrite::{CheckedProgram, PushdownRule, RewriteConfig};
use crate::server::ConcurrentMediator;
use crate::tier::PlanTier;
use hermes_analysis::{AnalysisReport, Analyzer, Diagnostic, QueryForm};
use hermes_cim::{Cim, CimPolicy, RoutingDecision, ShardedCim};
use hermes_common::sync::Mutex;
use hermes_common::{HermesError, Result, SimDuration, SimInstant, Value};
use hermes_dcsm::{CostVector, Dcsm, ShardedDcsm};
use hermes_lang::{parse_program, parse_query, validate_program, Program, Query};
use hermes_net::Network;
use std::sync::Arc;

/// Mediator-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct MediatorConfig {
    /// Rewriter limits.
    pub rewrite: RewriteConfig,
    /// Cost-model knobs.
    pub cost: CostConfig,
    /// Executor knobs.
    pub exec: ExecConfig,
    /// Optimize for time-to-first-answer (interactive mode, §3) instead of
    /// time-to-all-answers.
    pub optimize_first_answer: bool,
    /// When a hard outage (or open breaker) kills the chosen plan, re-enter
    /// the plan space and run the cheapest alternative that avoids the dead
    /// site. Work the failed attempt completed survives in the answer
    /// cache, so the replanned run resumes rather than restarts.
    pub failover: bool,
    /// Run the deterministic tier selector before every query (see
    /// [`crate::tier`]). Off by default: the paper-exact path never
    /// consults the selector unless the request itself carries a tier or
    /// a budget.
    pub adaptive_tiers: bool,
}

impl Default for MediatorConfig {
    fn default() -> Self {
        MediatorConfig {
            rewrite: RewriteConfig::default(),
            cost: CostConfig::default(),
            exec: ExecConfig::default(),
            optimize_first_answer: false,
            failover: true,
            adaptive_tiers: false,
        }
    }
}

/// The chosen plan plus the full plan space and estimates — what
/// `EXPLAIN` shows.
#[derive(Clone, Debug)]
pub struct Planned {
    /// All executable plans found.
    pub plans: Vec<Plan>,
    /// The §7 estimate for each plan (aligned with `plans`).
    pub estimates: Vec<CostVector>,
    /// Index of the chosen plan.
    pub chosen: usize,
}

impl Planned {
    /// The chosen plan.
    pub fn plan(&self) -> &Plan {
        &self.plans[self.chosen]
    }

    /// The chosen plan's estimate.
    pub fn estimate(&self) -> &CostVector {
        &self.estimates[self.chosen]
    }
}

/// The result of an all-answers query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Answer-variable names, in output order.
    pub columns: Vec<Arc<str>>,
    /// One row per answer, aligned with `columns`. Variables an answer
    /// leaves unbound (possible only for probe-style queries) are `Null`.
    pub rows: Vec<Vec<Value>>,
    /// Simulated time to the first answer.
    pub t_first: Option<SimDuration>,
    /// Simulated time to completion.
    pub t_all: SimDuration,
    /// The executed plan.
    pub plan: Plan,
    /// The optimizer's pre-execution estimate for that plan.
    pub estimate: CostVector,
    /// Number of plans the rewriter produced.
    pub plans_considered: usize,
    /// Execution counters.
    pub stats: ExecStats,
    /// True when any subgoal's answers may be incomplete.
    pub incomplete: bool,
    /// Per-subgoal completeness provenance for the executed plan.
    pub provenance: Vec<SubgoalProvenance>,
    /// Alternative plans executed after outages killed earlier ones.
    pub failovers: u32,
    /// The execution trace (empty unless `ExecConfig::collect_trace`).
    pub trace: Vec<crate::trace::TraceEntry>,
}

/// One query and its per-run options, built fluently:
///
/// ```ignore
/// m.query(QueryRequest::new("?- item(A, B).").limit(5).trace(true))?;
/// ```
///
/// A bare `&str` (or `String`) converts into a request with all options
/// at their defaults, so `m.query("?- item(A, B).")` keeps working.
/// Options override the mediator's configuration for this run only.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    pub(crate) src: String,
    pub(crate) limit: Option<usize>,
    pub(crate) deadline: Option<SimDuration>,
    pub(crate) bindings: Option<hermes_lang::Subst>,
    pub(crate) trace: Option<bool>,
    pub(crate) parallelism: Option<usize>,
    pub(crate) budget: Option<SimDuration>,
    pub(crate) tier: Option<PlanTier>,
}

impl QueryRequest {
    /// A request for `src` with every option at its default.
    pub fn new(src: impl Into<String>) -> Self {
        QueryRequest {
            src: src.into(),
            limit: None,
            deadline: None,
            bindings: None,
            trace: None,
            parallelism: None,
            budget: None,
            tier: None,
        }
    }

    /// Stop after `n` answers.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Abort (returning the answers so far) once the virtual clock has
    /// advanced `d` past the start of the run.
    pub fn deadline(mut self, d: SimDuration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Substitute these parameter bindings into the query *before*
    /// planning, so the optimizer sees real constants (and DCSM can use
    /// exact-constant statistics) instead of `$b` placeholders.
    pub fn bindings(mut self, params: hermes_lang::Subst) -> Self {
        self.bindings = Some(params);
        self
    }

    /// Collect an execution trace for this run.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    /// Let the scheduler overlap up to `k` independent domain calls
    /// (`1` = the paper's sequential executor). Also makes the cost model
    /// overlap-aware and biases plan enumeration toward orderings with
    /// wide independence groups.
    pub fn parallelism(mut self, k: usize) -> Self {
        self.parallelism = Some(k.max(1));
        self
    }

    /// Give the run a virtual-time budget. Unlike a deadline, exhausting
    /// the budget never aborts: the executor steps the active plan tier
    /// down one level (one-way) and keeps going, so a budgeted query
    /// returns degraded answers instead of an error. Setting a budget
    /// also engages the tier selector for this run.
    pub fn budget(mut self, b: SimDuration) -> Self {
        self.budget = Some(b);
        self
    }

    /// Pin the plan tier for this run (the selector's explicit-override
    /// rule — it beats every other selection rule).
    pub fn tier(mut self, tier: PlanTier) -> Self {
        self.tier = Some(tier);
        self
    }
}

impl From<&str> for QueryRequest {
    fn from(src: &str) -> Self {
        QueryRequest::new(src)
    }
}

impl From<String> for QueryRequest {
    fn from(src: String) -> Self {
        QueryRequest::new(src)
    }
}

impl From<&String> for QueryRequest {
    fn from(src: &String) -> Self {
        QueryRequest::new(src.as_str())
    }
}

/// The HERMES mediator: a program, a network of domains, the two caches,
/// and a persistent virtual clock.
///
/// Its state is one [`ConcurrentMediator`] with one shard per cache, and
/// this is that server's `&mut self` face: queries run through the
/// server's own `stage`/`run` on its clock, and only this face may change
/// the planning core — the program, configuration, pushdown rules, CIM
/// routing and subplan sharing.
pub struct Mediator {
    shared: ConcurrentMediator,
    /// Warning-severity findings from the last `register_program` (or
    /// `analyze`) run; queryable via [`Mediator::analysis_warnings`].
    analysis_warnings: Vec<Diagnostic>,
}

impl Mediator {
    /// Builds a mediator from a parsed program. An invalid rule is an error
    /// here; the other program checks (mixed definitions, recursion) are
    /// run here too, once, but their verdict is what every later query
    /// gets (see [`CheckedProgram`]).
    pub fn new(program: Program, network: Network) -> Result<Self> {
        validate_program(&program)?;
        let core = PlanningCore {
            program: CheckedProgram::new(program),
            policy: CimPolicy::cache_everything(),
            config: MediatorConfig::default(),
            pushdowns: Vec::new(),
        };
        Ok(Mediator {
            shared: ConcurrentMediator::from_parts(
                core,
                Arc::new(network),
                ShardedCim::new(1),
                ShardedDcsm::new(1),
                Arc::new(Mutex::new(BreakerBank::default())),
                Arc::new(MatCache::default()),
                SimInstant::EPOCH,
            ),
            analysis_warnings: Vec::new(),
        })
    }

    /// Builds a mediator from program source text.
    pub fn from_source(src: &str, network: Network) -> Result<Self> {
        Mediator::new(parse_program(src)?, network)
    }

    /// Runs the whole-program static analyzer over `program` (against this
    /// mediator's domain registry, invariant store, and DCSM) and installs
    /// it as the active program **only** when no error-severity diagnostics
    /// are found. On rejection the error carries every rendered diagnostic;
    /// on success warning-severity findings are stored and queryable via
    /// [`Mediator::analysis_warnings`].
    pub fn register_program(&mut self, program: Program, query_forms: &[QueryForm]) -> Result<()> {
        let report = self.analyze_with(&program, query_forms, |a| a);
        if report.has_errors() {
            return Err(HermesError::Analysis {
                diagnostics: report.diagnostics.iter().map(|d| d.to_string()).collect(),
            });
        }
        self.analysis_warnings = report.warnings().into_iter().cloned().collect();
        self.shared.core.program = CheckedProgram::new(program);
        Ok(())
    }

    /// Parses and registers program source text (see `register_program`).
    pub fn register_source(&mut self, src: &str, query_forms: &[QueryForm]) -> Result<()> {
        self.register_program(parse_program(src)?, query_forms)
    }

    /// Runs the analyzer over the *active* program without changing it.
    pub fn analyze(&self, query_forms: &[QueryForm]) -> AnalysisReport {
        self.analyze_with(self.program(), query_forms, |a| a)
    }

    /// Runs the analyzer over the active program with the
    /// materialization-safety pass (`HA070`–`HA074`) enabled: a note-level
    /// inventory of which subplans are safe to materialize, priced against
    /// the live DCSM, with the CIM routing policy doubling as the
    /// volatility signal (a call the policy routes around the CIM has no
    /// invalidation path, so its answers may go stale unnoticed). This is
    /// what the REPL's `:materialize` command prints.
    pub fn analyze_materialization(&self, query_forms: &[QueryForm]) -> AnalysisReport {
        self.analyze_with(self.program(), query_forms, |a| a.with_materialization())
    }

    /// Analyzes `program` against this mediator's domain registry,
    /// invariant store, live DCSM and routing policy, with whatever further
    /// passes `configure` turns on.
    fn analyze_with(
        &self,
        program: &Program,
        query_forms: &[QueryForm],
        configure: impl FnOnce(Analyzer<'_>) -> Analyzer<'_>,
    ) -> AnalysisReport {
        let routes = self.routes();
        let analyzer = self.with_cim(|cim| {
            Analyzer::new(program)
                .with_registry(self.network().registry())
                .with_invariant_store(cim.invariants())
        });
        self.with_dcsm(|dcsm| {
            let analyzer = analyzer
                .with_dcsm(dcsm)
                .with_query_forms(query_forms.iter().cloned())
                .with_cache_routing(&routes);
            configure(analyzer).analyze()
        })
    }

    /// Whether the routing policy sends a call through the CIM.
    fn routes(&self) -> impl Fn(&str, &str) -> bool + '_ {
        move |domain, function| {
            self.shared.core.policy.decide(domain, function) == RoutingDecision::UseCim
        }
    }

    /// Runs `f` over the answer cache's one shard.
    fn with_cim<R>(&self, f: impl FnOnce(&mut Cim) -> R) -> R {
        on_sole_shard(|each| self.shared.cim.for_each_shard_mut(each), f)
    }

    /// Runs `f` over the statistics cache's one shard.
    fn with_dcsm<R>(&self, f: impl FnOnce(&mut Dcsm) -> R) -> R {
        on_sole_shard(|each| self.shared.dcsm.for_each_shard_mut(each), f)
    }

    /// Warning-severity findings from the most recent
    /// [`Mediator::register_program`] run.
    pub fn analysis_warnings(&self) -> &[Diagnostic] {
        &self.analysis_warnings
    }

    /// The unified cache-control facade over both cache tiers (the CIM's
    /// ground-call answer cache and the subplan materialization cache):
    /// stats, per-source invalidation, clearing, invariants, and the
    /// policy builder. See [`CacheControl`].
    pub fn caches(&mut self) -> CacheControl<'_> {
        let shared = &mut self.shared;
        let planning = PlanningKnobs {
            policy: &mut shared.core.policy,
            exec: &mut shared.core.config.exec,
        };
        CacheControl::new(&shared.cim, &shared.matcache, Some(planning))
    }

    /// Registers a selection-pushdown rule (§5: "push selections to the
    /// source"). The rewriter will emit fused plan variants for it.
    pub fn add_pushdown(&mut self, rule: PushdownRule) {
        self.shared.core.pushdowns.push(rule);
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut MediatorConfig {
        &mut self.shared.core.config
    }

    /// The configuration.
    pub fn config(&self) -> &MediatorConfig {
        &self.shared.core.config
    }

    /// The statistics cache (one shard).
    pub fn dcsm(&self) -> &ShardedDcsm {
        self.shared.dcsm()
    }

    /// The per-site circuit breakers. The bank lives as long as the
    /// mediator, so a site isolated during one query stays isolated for the
    /// next until its cooldown elapses.
    pub fn breakers(&self) -> &Mutex<BreakerBank> {
        self.shared.breakers()
    }

    /// The network of placed domains.
    pub fn network(&self) -> &Network {
        self.shared.network()
    }

    /// The mediator program.
    pub fn program(&self) -> &Program {
        self.shared.core.program.program()
    }

    /// Current virtual time (advances across queries, so the simulated
    /// network load drifts like the paper's day-long measurement runs).
    pub fn now(&self) -> SimInstant {
        self.shared.now()
    }

    /// Advances the virtual clock (e.g. to model idle time between
    /// experiment runs).
    pub fn advance_clock(&mut self, d: SimDuration) {
        self.shared.advance_clock(d);
    }

    /// Parses, rewrites, and costs a query without executing it.
    pub fn plan(&self, query_src: &str) -> Result<Planned> {
        let query = parse_query(query_src)?;
        self.plan_query(&query)
    }

    /// Plans a pre-parsed query.
    pub fn plan_query(&self, query: &Query) -> Result<Planned> {
        self.shared
            .pipeline(self.shared.cim())
            .plan(query, self.config())
    }

    /// Runs a query. Accepts plain source text (all-answers mode, §3) or
    /// a [`QueryRequest`] carrying per-run options:
    ///
    /// ```ignore
    /// m.query("?- item(A, B).")?;
    /// m.query(QueryRequest::new("?- item(A, B).").limit(5).parallelism(4))?;
    /// ```
    ///
    /// Request options override a copy of the mediator's configuration,
    /// for this run only.
    pub fn query(&mut self, req: impl Into<QueryRequest>) -> Result<QueryResult> {
        // The serial face never bounds its admission gate: the selector
        // sees no load, and whatever tier it picks is granted.
        self.shared.query(req)
    }

    /// Splits this mediator into a shared-state concurrent server: the
    /// planning inputs (program, policy, configuration, pushdown rules)
    /// are copied into the server's core, which nothing changes after,
    /// the answer cache and statistics cache are redistributed over
    /// `shards` independently locked shards, and the breaker bank and
    /// subplan cache are shared (each plan's own routes gate the subplan
    /// cache, so the two faces' routing may differ). The returned server's
    /// [`query`](ConcurrentMediator::query) takes `&self`, so any number
    /// of client threads can call it at once.
    pub fn to_concurrent(&self, shards: usize) -> ConcurrentMediator {
        let cim = self.with_cim(|cim| ShardedCim::from_template(cim, shards));
        let dcsm = self.with_dcsm(|dcsm| ShardedDcsm::from_dcsm(dcsm, shards));
        ConcurrentMediator::from_parts(
            self.shared.core.clone(),
            self.shared.network.clone(),
            cim,
            dcsm,
            self.shared.breakers.clone(),
            self.shared.matcache.clone(),
            self.now(),
        )
    }

    /// Executes an already-planned query. When [`MediatorConfig::failover`]
    /// is on and a hard outage (or open breaker) kills the running plan,
    /// the cheapest alternative plan avoiding every dead site seen so far
    /// is executed instead; answers the failed attempt already cached are
    /// reused, so replanning resumes rather than restarts.
    pub fn execute(&mut self, planned: Planned, limit: Option<usize>) -> Result<QueryResult> {
        self.shared.execute(&planned, limit)
    }

    /// Starts a query in interactive mode (§3): answers stream on demand;
    /// dropping the handle cancels outstanding source calls.
    ///
    /// Interactive runs share the caches but do not advance the mediator's
    /// persistent clock (their virtual timeline is reported per-answer).
    pub fn query_interactive(&self, query_src: &str) -> Result<InteractiveQuery> {
        let planned = self.plan(query_src)?;
        let shared = &self.shared;
        Ok(InteractiveQuery::spawn(
            shared.network.clone(),
            shared.cim.clone(),
            shared.dcsm.clone(),
            Some(shared.breakers.clone()),
            shared.query_clock(),
            self.config().exec,
            planned.plan().clone(),
        ))
    }

    /// Persists the answer cache and the statistics cache into `dir`
    /// (`answers.cache` and `stats.db`). Expensive remote knowledge
    /// survives a mediator restart. Of the statistics, what is saved is
    /// the retained detail — each function's most recent records, see
    /// [`hermes_dcsm::DETAIL_WINDOW`] — so after a restart a function that
    /// had recorded more than that is costed from its recent records only.
    pub fn save_state(&self, dir: &std::path::Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        self.with_cim(|cim| {
            hermes_cim::persist::save_to_path(cim.cache(), &dir.join("answers.cache"))
        })?;
        self.with_dcsm(|dcsm| {
            hermes_dcsm::persist::save_to_path(dcsm.db(), &dir.join("stats.db"))
        })?;
        Ok(())
    }

    /// Restores state saved by [`Mediator::save_state`]. Missing files are
    /// not an error (a fresh deployment); a malformed file is, and then
    /// nothing of either file is loaded. The saved answers are loaded into
    /// this mediator's own cache, so its byte budget and registered
    /// ordered indexes apply to them. The saved statistics replace the
    /// ones held (see [`hermes_dcsm::Dcsm::load_db`]), so loading the same
    /// state twice is loading it once.
    pub fn load_state(&mut self, dir: &std::path::Path) -> Result<()> {
        let stats_path = dir.join("stats.db");
        let db = stats_path
            .exists()
            .then(|| hermes_dcsm::persist::load_from_path(&stats_path))
            .transpose()?;
        let cache_path = dir.join("answers.cache");
        if cache_path.exists() {
            self.with_cim(|cim| hermes_cim::persist::load_from_path(&cache_path, cim.cache_mut()))?;
        }
        if let Some(db) = db {
            self.with_dcsm(|dcsm| dcsm.load_db(&db));
        }
        Ok(())
    }

    /// A human-readable EXPLAIN: every candidate plan with its estimate,
    /// the chosen one marked.
    pub fn explain(&self, query_src: &str) -> Result<String> {
        let planned = self.plan(query_src)?;
        let mut s = String::new();
        for (i, (plan, est)) in planned.plans.iter().zip(&planned.estimates).enumerate() {
            let marker = if i == planned.chosen { ">>" } else { "  " };
            s.push_str(&format!("{marker} plan {i}: est {est}\n"));
            for line in plan.to_string().lines() {
                s.push_str(&format!("     {line}\n"));
            }
        }
        Ok(s)
    }

    /// Re-estimates one plan with the current statistics (used by the
    /// experiment harnesses to ask "what does DCSM predict now?").
    pub fn estimate_plan(&self, plan: &Plan) -> CostVector {
        estimate_plan(plan, self.dcsm(), &self.config().cost)
    }
}

impl std::fmt::Debug for Mediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mediator")
            .field("rules", &self.program().rules.len())
            .field("network", self.network())
            .finish()
    }
}

/// Runs `f` over the one shard a serial mediator's cache holds, reached
/// through that cache's `for_each_shard_mut`.
fn on_sole_shard<T, R>(
    for_each: impl FnOnce(&mut dyn FnMut(usize, &mut T)),
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let (mut f, mut out) = (Some(f), None);
    for_each(&mut |_, shard| out = f.take().map(|f| f(shard)));
    out.expect("the serial mediator holds one shard per cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierReason;
    use crate::trace::TraceEvent;
    use hermes_common::{CallPattern, GroundCall, PatternShape, Value};
    use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
    use hermes_domains::Domain;
    use hermes_lang::parse_invariant;
    use hermes_net::profiles;

    fn mediator() -> Mediator {
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::cornell());
        Mediator::from_source(
            "
            item(A, B) :- in(Ans, d1:p_ff()) & =(Ans.a, A) & =(Ans.b, B).
            item(A, B) :- in(B, d1:p_bf(A)).
            item(A, B) :- in(A, d1:p_fb(B)).
            ",
            net,
        )
        .unwrap()
    }

    #[test]
    fn query_all_answers_end_to_end() {
        let mut m = mediator();
        let result = m.query("?- item(A, B).").unwrap();
        let expect = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)])
            .call("p_ff", &[])
            .unwrap()
            .answers
            .len();
        assert_eq!(result.rows.len(), expect);
        assert_eq!(result.columns.len(), 2);
        assert!(result.t_all > SimDuration::ZERO);
        assert!(!result.incomplete);
    }

    #[test]
    fn bound_query_uses_probe_path_and_matches_ff_path() {
        let mut m = mediator();
        let all = m.query("?- item(A, B).").unwrap();
        let a0 = all.rows[0][0].clone();
        let expected: Vec<&Vec<Value>> = all.rows.iter().filter(|r| r[0] == a0).collect();
        let bound = m
            .query(format!("?- item({}, B).", a0.to_literal()))
            .unwrap();
        // The bound query projects only B (A is a constant in the query).
        assert_eq!(bound.columns.len(), 1);
        assert_eq!(bound.rows.len(), expected.len());
        let mut got: Vec<Value> = bound.rows.iter().map(|r| r[0].clone()).collect();
        got.sort();
        let mut want: Vec<Value> = expected.iter().map(|r| r[1].clone()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn all_plans_compute_the_same_answers() {
        let m = mediator();
        let planned = m.plan("?- item('p_3', B).").unwrap();
        assert!(planned.plans.len() >= 2);
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for i in 0..planned.plans.len() {
            let mut m2 = mediator();
            let single = Planned {
                plans: vec![planned.plans[i].clone()],
                estimates: vec![planned.estimates[i]],
                chosen: 0,
            };
            let res = m2.execute(single, None).unwrap();
            let mut rows = res.rows.clone();
            rows.sort();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "plan {i} disagrees"),
            }
        }
    }

    #[test]
    fn caching_speeds_up_repeat_queries() {
        let mut m = mediator();
        let first = m.query("?- item('p_1', B).").unwrap();
        let second = m.query("?- item('p_1', B).").unwrap();
        assert_eq!(first.rows, second.rows);
        assert!(second.t_all < first.t_all);
        assert!(second.stats.cim_exact >= 1);
    }

    #[test]
    fn statistics_accumulate_across_queries() {
        let mut m = mediator();
        assert_eq!(m.dcsm().records(), 0);
        m.query("?- item('p_1', B).").unwrap();
        assert!(m.dcsm().records() > 0);
    }

    #[test]
    fn limited_query_stops_early() {
        let mut m = mediator();
        let result = m
            .query(QueryRequest::new("?- item(A, B).").limit(2))
            .unwrap();
        assert_eq!(result.rows.len(), 2);
    }

    #[test]
    fn request_options_do_not_leak_into_config() {
        let mut m = mediator();
        m.query(
            QueryRequest::new("?- item(A, B).")
                .deadline(SimDuration::from_secs(3600))
                .trace(true)
                .parallelism(4)
                .budget(SimDuration::from_secs(1800))
                .tier(PlanTier::Full),
        )
        .unwrap();
        assert_eq!(m.config().exec.deadline, None);
        assert!(!m.config().exec.collect_trace);
        assert_eq!(m.config().exec.max_parallel_calls, 1);
        assert_eq!(m.config().cost.max_parallel_calls, 1);
        assert!(!m.config().rewrite.favor_parallel);
        assert_eq!(m.config().exec.budget, None);
        assert_eq!(m.config().exec.tier, PlanTier::Full);
    }

    #[test]
    fn explicit_cache_only_tier_serves_warm_queries_without_the_wire() {
        let mut m = mediator();
        // Cold + cache-only: nothing to serve, flagged Downgraded.
        let cold = m
            .query(QueryRequest::new("?- item('p_1', B).").tier(PlanTier::CacheOnly))
            .unwrap();
        assert!(cold.rows.is_empty());
        assert!(cold.incomplete);
        assert_eq!(cold.stats.actual_calls, 0);
        // Warm the cache at the default tier, then cache-only matches it.
        let full = m.query("?- item('p_1', B).").unwrap();
        let warm = m
            .query(
                QueryRequest::new("?- item('p_1', B).")
                    .tier(PlanTier::CacheOnly)
                    .trace(true),
            )
            .unwrap();
        assert_eq!(warm.rows, full.rows);
        assert_eq!(warm.stats.actual_calls, 0);
        assert!(!warm.incomplete);
        // The selection is visible in the trace with its reason code.
        assert!(warm.trace.iter().any(|e| matches!(
            e.event,
            TraceEvent::TierSelected {
                tier: PlanTier::CacheOnly,
                reason: TierReason::ExplicitOverride,
            }
        )));
    }

    #[test]
    fn adaptive_tiers_stay_full_when_nothing_is_wrong() {
        let mut m = mediator();
        m.config_mut().adaptive_tiers = true;
        let adaptive = m
            .query(QueryRequest::new("?- item(A, B).").trace(true))
            .unwrap();
        let mut plain = mediator();
        let reference = plain.query("?- item(A, B).").unwrap();
        // Healthy sites, no budget, no load: the selector's default rule
        // picks Full and the answers match the paper-exact run.
        assert_eq!(adaptive.rows, reference.rows);
        assert!(!adaptive
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::TierSelected { .. })));
        assert_eq!(adaptive.stats.tier_skipped_calls, 0);
    }

    #[test]
    fn explain_lists_plans_and_choice() {
        let m = mediator();
        let text = m.explain("?- item('p_1', B).").unwrap();
        assert!(text.contains(">> plan"));
        assert!(text.contains("est [Tf="));
    }

    #[test]
    fn interactive_streams_answers() {
        let m = mediator();
        let mut iq = m.query_interactive("?- item(A, B).").unwrap();
        let first = iq.next_answer();
        assert!(first.is_some());
        let batch = iq.next_batch(3);
        assert!(batch.len() <= 3);
        let final_ = iq.stop();
        assert!(final_.error.is_none());
    }

    #[test]
    fn interactive_drain_matches_all_answers() {
        let mut m = mediator();
        let all = m.query("?- item(A, B).").unwrap();
        let mut iq = m.query_interactive("?- item(A, B).").unwrap();
        let mut streamed = Vec::new();
        while let Some((row, _)) = iq.next_answer() {
            streamed.push(row);
        }
        assert_eq!(streamed.len(), all.rows.len());
        let f = iq.stop();
        assert!(f.finished);
    }

    #[test]
    fn mixed_fact_rule_predicate_rejected() {
        let domain = SyntheticDomain::generate("d1", 1, &[RelationSpec::uniform("p", 4, 1.0)]);
        let mut net = Network::new(1);
        net.place(Arc::new(domain), profiles::maryland());
        let mut m = Mediator::from_source(
            "mix('a', 'b').
             mix(A, B) :- in(B, d1:p_bf(A)).",
            net,
        )
        .unwrap();
        let err = m.query("?- mix(X, Y).").unwrap_err();
        assert!(err.to_string().contains("mixes facts and rules"));
    }

    #[test]
    fn parameterized_queries_bind_before_planning() {
        use hermes_common::Value;
        use hermes_lang::Subst;
        let mut m = mediator();
        let direct = m.query("?- item('p_1', B).").unwrap();
        let params = Subst::from_pairs([("A", Value::str("p_1"))]);
        let bound = m
            .query(QueryRequest::new("?- item(A, B).").bindings(params))
            .unwrap();
        // The bound query projects both A and B; B values must agree.
        let direct_bs: Vec<Value> = direct.rows.iter().map(|r| r[0].clone()).collect();
        let bound_bs: Vec<Value> = bound
            .rows
            .iter()
            .map(|r| {
                r[bound
                    .columns
                    .iter()
                    .position(|c| c.as_ref() == "B")
                    .unwrap()]
                .clone()
            })
            .collect();
        assert_eq!(direct_bs, bound_bs);
        // And the plan saw the constant (no full-scan-only plan space).
        assert!(bound.plan.to_string().contains("'p_1'"), "{}", bound.plan);
    }

    #[test]
    fn traces_tell_the_cache_story() {
        use crate::trace::TraceEvent;
        let mut m = mediator();
        m.config_mut().exec.collect_trace = true;
        let cold = m.query("?- item('p_1', B).").unwrap();
        assert!(cold
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::ActualCall { .. })));
        let warm = m.query("?- item('p_1', B).").unwrap();
        assert!(warm
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::CacheHit { .. })));
        assert!(!warm
            .trace
            .iter()
            .any(|e| matches!(e.event, TraceEvent::ActualCall { .. })));
        // Answer ordinals count up.
        let ordinals: Vec<usize> = warm
            .trace
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Answer { ordinal } => Some(ordinal),
                _ => None,
            })
            .collect();
        assert_eq!(ordinals, (1..=warm.rows.len()).collect::<Vec<_>>());
        // Rendering is line-per-event.
        let text = crate::trace::render(&warm.trace);
        assert_eq!(text.lines().count(), warm.trace.len());
        // Off by default: no allocation.
        m.config_mut().exec.collect_trace = false;
        let silent = m.query("?- item('p_1', B).").unwrap();
        assert!(silent.trace.is_empty());
    }

    #[test]
    fn state_survives_a_restart() {
        let dir =
            std::env::temp_dir().join(format!("hermes-mediator-state-{}", std::process::id()));
        let tabbed = GroundCall::new("d1", "p_bf", vec![Value::str("a\tb\\")]);
        let (rows, cold_ms) = {
            let mut m = mediator();
            let r = m.query("?- item('p_1', B).").unwrap();
            m.with_cim(|cim| {
                let answers = vec![Value::str("x\ty\r\n")];
                cim.cache_mut()
                    .insert(tabbed.clone(), answers, true, SimInstant::EPOCH)
            });
            m.save_state(&dir).unwrap();
            (r.rows.clone(), r.t_all.as_millis_f64())
        };
        // A brand-new mediator process loads the saved caches.
        let mut m2 = mediator();
        m2.load_state(&dir).unwrap();
        // Separator characters inside strings are data, not framing.
        let entry = m2.with_cim(|cim| cim.cache().peek(&tabbed).cloned());
        assert_eq!(&*entry.unwrap().answers, [Value::str("x\ty\r\n")]);
        let warm = m2.query("?- item('p_1', B).").unwrap();
        assert_eq!(warm.rows, rows);
        assert_eq!(warm.stats.actual_calls, 0, "served from restored cache");
        assert!(warm.t_all.as_millis_f64() < cold_ms);
        // Restored statistics inform estimates too.
        assert!(m2.dcsm().records() > 0);
        // Loading from an empty directory is a no-op, not an error.
        let empty = dir.join("nothing-here");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(m2.load_state(&empty).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_restart_relearns_estimates_from_the_saved_detail_window() {
        use hermes_dcsm::DETAIL_WINDOW;
        let dir =
            std::env::temp_dir().join(format!("hermes-mediator-window-{}", std::process::id()));
        let call = |k: usize| GroundCall::new("d1", "p_bf", vec![Value::Int(k as i64 % 5)]);
        let m = mediator();
        let total = 2 * DETAIL_WINDOW + 100;
        for i in 0..total {
            // A drifting cost, so recent and all-time averages differ.
            m.with_dcsm(|dcsm| {
                dcsm.record(
                    &call(i),
                    Some(1.0),
                    Some(i as f64),
                    Some(2.0),
                    SimInstant::EPOCH,
                )
            });
        }
        m.save_state(&dir).unwrap();

        let mut m2 = mediator();
        m2.load_state(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        m.with_dcsm(|old| {
            m2.with_dcsm(|new| {
                let saved = old.db().records_for("d1", "p_bf");
                assert_eq!(saved.len(), DETAIL_WINDOW + 100);
                assert_eq!(new.db().records_for("d1", "p_bf"), saved);
                assert_eq!((old.db().len(), new.db().len()), (total, saved.len()));
                // The restarted mediator's estimates are aggregates over
                // exactly the saved window; the running one still answers
                // for all history.
                for k in 0..5 {
                    let pattern = call(k).pattern();
                    let window = old.db().aggregate_scan(&pattern);
                    assert_eq!(new.db().aggregate(&pattern), window);
                    assert_eq!(new.cost(&pattern).vector.t_all_ms, window.0.t_all_ms);
                    assert_ne!(old.cost(&pattern).vector.t_all_ms, window.0.t_all_ms);
                }
            })
        });
    }

    #[test]
    fn to_concurrent_estimates_from_the_summary_tables_the_serial_face_holds() {
        use hermes_dcsm::{CostSource, EstimateOutcome, EstimateSource};
        let m = mediator();
        let call = |k: i64| GroundCall::new("d1", "p_bf", vec![Value::Int(k)]);
        m.with_dcsm(|dcsm| {
            for k in 0..12 {
                let t_all = Some(2.0 + 0.3 * k as f64);
                dcsm.record(&call(k % 4), Some(1.0), t_all, Some(3.0), SimInstant::EPOCH);
            }
            for dims in [vec![true], vec![false]] {
                dcsm.build_table(PatternShape::new("d1", "p_bf", dims));
            }
            dcsm.drop_detail("d1", "p_bf");
        });
        let server = m.to_concurrent(4);
        let bits = |o: EstimateOutcome| {
            let v = o.vector;
            let vector = [v.t_first_ms, v.t_all_ms, v.cardinality].map(|x| x.map(f64::to_bits));
            (vector, o.source, o.lookup_work)
        };
        let probes = [
            call(1).pattern(),
            call(9).pattern(),
            call(1).blanket_pattern(),
        ];
        for p in &probes {
            assert_eq!(bits(m.dcsm().cost(p)), bits(server.dcsm().cost(p)), "{p}");
        }
        let serial = m.dcsm().cost(&probes[0]).source;
        assert!(
            matches!(serial, EstimateSource::Summary { .. }),
            "{serial:?}"
        );
    }

    #[test]
    fn loading_a_state_twice_is_loading_it_once() {
        let dir =
            std::env::temp_dir().join(format!("hermes-mediator-twice-{}", std::process::id()));
        let observe = |m: &Mediator, keys: &[usize]| {
            m.with_dcsm(|dcsm| {
                for (i, k) in keys.iter().enumerate() {
                    let call = GroundCall::new("d1", "p_bf", vec![Value::str(format!("p_{k}"))]);
                    let t_all = Some(2.0 + 0.7 * i as f64);
                    dcsm.record(&call, Some(1.0), t_all, Some(3.0), SimInstant::EPOCH);
                }
            })
        };
        let mut saved = mediator();
        saved.query("?- item(A, B).").unwrap();
        observe(&saved, &[1, 2, 1, 5, 3, 2]);
        saved.save_state(&dir).unwrap();
        let probes: Vec<CallPattern> = ["p_1", "p_3"]
            .into_iter()
            .flat_map(|key| {
                let call = GroundCall::new("d1", "p_bf", vec![Value::str(key)]);
                [call.pattern(), call.blanket_pattern()]
            })
            .chain([GroundCall::new("d1", "p_ff", vec![]).pattern()])
            .collect();
        // Each loader also learned something of its own first, and keeps a
        // summary table that online updates fill.
        let loaded = |times: usize| {
            let mut m = mediator();
            observe(&m, &[7, 1]);
            m.with_dcsm(|dcsm| dcsm.build_table(PatternShape::new("d1", "p_bf", vec![true])));
            for _ in 0..times {
                m.load_state(&dir).unwrap();
            }
            let costs: Vec<_> = m.with_dcsm(|dcsm| {
                let bits = |v: CostVector| {
                    [v.t_first_ms, v.t_all_ms, v.cardinality].map(|x| x.map(f64::to_bits))
                };
                probes.iter().map(|p| bits(dcsm.cost(p).vector)).collect()
            });
            (m.dcsm().records(), costs)
        };
        let once = loaded(1);
        assert_eq!(
            once.0,
            saved.dcsm().records(),
            "the saved statistics replace the held ones"
        );
        assert_eq!(loaded(2), once);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_state_fills_the_mediators_own_cache() {
        let dir =
            std::env::temp_dir().join(format!("hermes-mediator-budget-{}", std::process::id()));
        let m = mediator();
        let saved_bytes = m.with_cim(|cim| {
            for i in 0..8 {
                let call = GroundCall::new("d1", "p_bf", vec![Value::Int(i)]);
                cim.cache_mut()
                    .insert(call, vec![Value::Int(i)], true, SimInstant::EPOCH);
            }
            cim.cache().bytes()
        });
        m.save_state(&dir).unwrap();
        // The loading mediator has a budget half the saved cache's size
        // and a monotone invariant, which registers an ordered index.
        let mut m2 = mediator();
        let policy = m2.caches().policy().answer_budget(Some(saved_bytes / 2));
        policy.apply().unwrap();
        let monotone = parse_invariant("X <= Y => d1:p_bf(Y) >= d1:p_bf(X).").unwrap();
        m2.caches().add_invariant(monotone).unwrap();
        m2.load_state(&dir).unwrap();
        let loaded = m2.caches().stats();
        assert!(loaded.answer_entries > 0);
        assert!(loaded.answer_bytes <= saved_bytes / 2, "{loaded:?}");
        assert!(loaded.answers.evictions > 0, "{loaded:?}");
        let indexed = m2.with_cim(|cim| {
            let group = cim.cache().ordered_group("d1", "p_bf", 0, &[]);
            group.map(|group| group.map_or(0, |g| g.len()))
        });
        assert_eq!(
            indexed,
            Some(loaded.answer_entries),
            "index kept and filled"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_keeps_the_previous_state_files() {
        let dir = std::env::temp_dir().join(format!("hermes-mediator-torn-{}", std::process::id()));
        let mut m = mediator();
        let rows = m.query("?- item('p_1', B).").unwrap().rows;
        m.save_state(&dir).unwrap();
        // The next save cannot even stage the answer cache: its staging
        // path is taken by a directory. It must say so, and must leave
        // the files of the save before it alone.
        m.query("?- item('p_2', B).").unwrap();
        let staging = dir.join("answers.cache.tmp");
        std::fs::create_dir(&staging).unwrap();
        assert!(m.save_state(&dir).is_err());
        std::fs::remove_dir(&staging).unwrap();
        // A staging file a crash left behind is not state: never read.
        std::fs::write(&staging, "torn").unwrap();
        std::fs::write(dir.join("stats.db.tmp"), "torn").unwrap();
        let mut m2 = mediator();
        m2.load_state(&dir).unwrap();
        let warm = m2.query("?- item('p_1', B).").unwrap();
        assert_eq!(warm.rows, rows);
        assert_eq!(warm.stats.actual_calls, 0, "served from the earlier save");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two replica domains with identical data (same generator seed):
    /// `d1` on a healthy site, `d2` on a permanently dark one.
    fn replicated_mediator() -> Mediator {
        let spec = [RelationSpec::uniform("p", 8, 2.0)];
        let d1 = SyntheticDomain::generate("d1", 42, &spec);
        let d2 = SyntheticDomain::generate("d2", 42, &spec);
        let mut net = Network::new(1);
        net.place(Arc::new(d1), profiles::cornell());
        net.place(
            Arc::new(d2),
            profiles::italy().with_outage(
                hermes_common::SimInstant::EPOCH,
                hermes_common::SimInstant::EPOCH + SimDuration::from_secs(86_400),
            ),
        );
        Mediator::from_source(
            "
            item(A, B) :- in(B, d2:p_bf(A)).
            item(A, B) :- in(B, d1:p_bf(A)).
            ",
            net,
        )
        .unwrap()
    }

    /// Forces the chosen plan to one that calls the dead `d2` replica.
    fn choose_dead_plan(planned: &mut Planned) {
        let dead = planned
            .plans
            .iter()
            .position(|p| p.to_string().contains("d2:"))
            .expect("a plan uses the d2 replica");
        planned.chosen = dead;
    }

    #[test]
    fn failover_replans_around_a_dead_site() {
        let mut m = replicated_mediator();
        let mut planned = m.plan("?- item('p_1', B).").unwrap();
        assert!(planned.plans.len() >= 2);
        choose_dead_plan(&mut planned);
        let result = m.execute(planned, None).unwrap();
        assert_eq!(result.failovers, 1);
        assert!(!result.incomplete);
        assert!(
            result.plan.to_string().contains("d1:"),
            "replanned onto the live replica: {}",
            result.plan
        );
        // Same answers as asking the live replica directly.
        let direct = m.query("?- item('p_1', B).").unwrap();
        let mut a: Vec<_> = result.rows.clone();
        let mut b: Vec<_> = direct.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn failover_can_be_disabled() {
        let mut m = replicated_mediator();
        m.config_mut().failover = false;
        let mut planned = m.plan("?- item('p_1', B).").unwrap();
        choose_dead_plan(&mut planned);
        let err = m.execute(planned, None).unwrap_err();
        assert!(matches!(err, HermesError::Unavailable { .. }));
    }

    #[test]
    fn breaker_bank_persists_across_queries() {
        use crate::breaker::{BreakerConfig, BreakerState};
        let mut m = replicated_mediator();
        m.breakers().lock().set_config(BreakerConfig {
            failure_threshold: 1,
            cooldown: SimDuration::from_secs(3600),
        });
        let mut planned = m.plan("?- item('p_1', B).").unwrap();
        choose_dead_plan(&mut planned);
        m.execute(planned, None).unwrap();
        // The failed attempt tripped milan's breaker, and the bank outlives
        // the query.
        assert_eq!(
            m.breakers().lock().state_at("milan", m.now()),
            BreakerState::Open
        );
        assert_eq!(m.breakers().lock().open_sites(m.now()).len(), 1);
        // A later query forced onto the dead replica now short-circuits
        // (no retry time) before failing over.
        let mut planned = m.plan("?- item('p_2', B).").unwrap();
        choose_dead_plan(&mut planned);
        let result = m.execute(planned, None).unwrap();
        assert_eq!(result.failovers, 1);
    }

    #[test]
    fn cached_answers_survive_a_later_outage() {
        // The site goes dark one hour in; a query warmed before then is
        // still answerable from the cache during the outage.
        let domain = SyntheticDomain::generate("d1", 42, &[RelationSpec::uniform("p", 8, 2.0)]);
        let mut net = Network::new(1);
        let epoch = hermes_common::SimInstant::EPOCH;
        net.place(
            Arc::new(domain),
            profiles::cornell().with_outage(
                epoch + SimDuration::from_secs(3600),
                epoch + SimDuration::from_secs(7200),
            ),
        );
        let mut m = Mediator::from_source("item(A, B) :- in(B, d1:p_bf(A)).", net).unwrap();
        let warm = m.query("?- item('p_1', B).").unwrap();
        assert!(!warm.rows.is_empty());
        m.advance_clock(SimDuration::from_secs(3600));
        let during = m.query("?- item('p_1', B).").unwrap();
        assert_eq!(during.rows, warm.rows);
        assert!(!during.incomplete);
        assert_eq!(during.stats.actual_calls, 0);
        assert!(during.provenance.iter().all(|p| p.complete()));
    }

    #[test]
    fn clock_persists_across_queries() {
        let mut m = mediator();
        let t0 = m.now();
        m.query("?- item('p_1', B).").unwrap();
        assert!(m.now() > t0);
        m.advance_clock(SimDuration::from_secs(60));
        let t1 = m.now();
        assert!(t1.duration_since(t0) >= SimDuration::from_secs(60));
    }

    #[test]
    fn register_program_rejects_errors_with_diagnostics() {
        let mut m = mediator();
        let bad = parse_program("item(A) :- in(A, d1:nosuch()).").unwrap();
        let err = m.register_program(bad, &[]).unwrap_err();
        match err {
            HermesError::Analysis { diagnostics } => {
                assert!(
                    diagnostics.iter().any(|d| d.contains("HA021")),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected Analysis error, got {other}"),
        }
        // The rejected program did not replace the active one.
        assert_eq!(m.program().rules.len(), 3);
    }

    #[test]
    fn register_program_collects_warnings() {
        let mut m = mediator();
        let p = parse_program(
            "
            item(A, B) :- in(B, d1:p_bf(A)).
            dead(A) :- in(A, d1:p_fb('x')).
            ",
        )
        .unwrap();
        m.register_program(p, &[QueryForm::parse("item(b, f)").unwrap()])
            .unwrap();
        assert_eq!(m.program().rules.len(), 2);
        assert!(
            m.analysis_warnings()
                .iter()
                .any(|d| d.code == hermes_analysis::DiagCode::UnreachablePredicate),
            "{:?}",
            m.analysis_warnings()
        );
    }

    #[test]
    fn register_program_rejects_infeasible_declared_adornment() {
        let mut m = mediator();
        // p_bf needs its argument bound, so `item(f, f)` has no ordering.
        let p = parse_program("item(A, B) :- in(B, d1:p_bf(A)).").unwrap();
        let err = m
            .register_program(p, &[QueryForm::parse("item(f, f)").unwrap()])
            .unwrap_err();
        assert!(err.to_string().contains("HA010"), "{err}");
    }
}
