//! The benchmark's own tracing: spans recorded from these files around
//! the calls into each layer's public functions, and the traced replay
//! that runs a query stage by stage against the live shared state.
//!
//! A span has a name, a start and an end (ns since the tracer began), the
//! span that caused it, and the id of the query it belongs to. Spans stay
//! in memory until the run ends. A layer's self time is its span's
//! duration minus what its child spans cover.

use hermes_cim::{CimPolicy, CimPreview, CimResolution, CimView};
use hermes_common::{CallPattern, GroundCall, Result, SimClock, SimDuration, SimInstant, Value};
use hermes_core::{
    choose_plan, enumerate_plans_with_pushdowns, ConcurrentMediator, Executor, MediatorConfig,
};
use hermes_dcsm::{CostSource, DcsmView, EstimateOutcome};
use hermes_lang::{parse_query, Program};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use crate::json::Json;

/// No parent: the span is the root of its query.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub query: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// Index of the innermost open span.
    open: Cell<u32>,
    query: Cell<u32>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        let mut spans = self.tracer.spans.borrow_mut();
        let span = &mut spans[self.index as usize];
        span.end_ns = end;
        self.tracer.open.set(span.parent);
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            open: Cell::new(NO_PARENT),
            query: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to query `id`.
    pub fn begin_query(&self, id: u32) {
        self.query.set(id);
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let mut spans = self.spans.borrow_mut();
        let index = spans.len() as u32;
        let parent = self.open.replace(index);
        // Read the clock last so bookkeeping lands in the parent's self
        // time, not the child's.
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            query: self.query.get(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Records an already-measured child of the innermost open span: a
    /// duration reported by the other side of a boundary (the server's
    /// own elapsed time), centred in its parent.
    pub fn reported_child(&self, name: &'static str, duration_ns: u64) {
        let parent = self.open.get();
        let mut spans = self.spans.borrow_mut();
        let (p_start, p_len) = match spans.get(parent as usize) {
            Some(p) => (p.start_ns, self.now_ns().saturating_sub(p.start_ns)),
            None => (self.now_ns(), 0),
        };
        let start_ns = p_start + p_len.saturating_sub(duration_ns) / 2;
        spans.push(Span {
            name,
            query: self.query.get(),
            parent,
            start_ns,
            end_ns: start_ns + duration_ns,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    /// The spans of a tracer no staged query is recording into any more.
    pub fn finish(tracer: Rc<Tracer>) -> Vec<Span> {
        Rc::try_unwrap(tracer)
            .unwrap_or_else(|_| panic!("a staged query still holds the tracer"))
            .into_spans()
    }
}

thread_local! {
    /// The tracer a staged query on this thread is recording into.
    static ACTIVE: RefCell<Option<Rc<Tracer>>> = const { RefCell::new(None) };
}

/// Runs `f` inside a span named `name` when a staged query is recording
/// on this thread, and bare otherwise. The source-boundary meter calls
/// this: the executor takes its `Network` by concrete type, so a source
/// call cannot be wrapped the way the CIM and DCSM views are.
pub fn in_active_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    match ACTIVE.with(|a| a.borrow().clone()) {
        Some(tracer) => {
            let _span = tracer.enter(name);
            f()
        }
        None => f(),
    }
}

/// Clears [`ACTIVE`] when dropped.
struct Activation;

impl Activation {
    fn of(tracer: &Rc<Tracer>) -> Activation {
        ACTIVE.with(|a| *a.borrow_mut() = Some(tracer.clone()));
        Activation
    }
}

impl Drop for Activation {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = None);
    }
}

/// Self time and count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals: a span's self time is its duration minus the sum of
/// its direct children's durations (children of one parent never overlap
/// here: every layer is called synchronously).
pub fn stage_totals(spans: &[Span]) -> BTreeMap<&'static str, StageTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    totals
}

/// The spans as a JSON array, for `--out`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("query", Json::Num(f64::from(s.query))),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

/// A [`CimView`] that records a span around every call into the CIM.
struct TracedCim<'a> {
    inner: &'a dyn CimView,
    tracer: &'a Tracer,
}

impl CimView for TracedCim<'_> {
    fn lookup(&self, call: &GroundCall, now: SimInstant) -> (CimResolution, SimDuration) {
        let _span = self.tracer.enter("cim.lookup");
        self.inner.lookup(call, now)
    }

    fn store(&self, call: GroundCall, answers: Arc<[Value]>, complete: bool, now: SimInstant) {
        let _span = self.tracer.enter("cim.store");
        self.inner.store(call, answers, complete, now);
    }

    fn stale_answers(&self, call: &GroundCall) -> Option<Arc<[Value]>> {
        self.inner.stale_answers(call)
    }

    fn merge_partial(
        &self,
        call: &GroundCall,
        cached: &[Value],
        actual: &[Value],
    ) -> (Vec<Value>, SimDuration) {
        let _span = self.tracer.enter("cim.merge_partial");
        self.inner.merge_partial(call, cached, actual)
    }

    fn preview(&self, call: &GroundCall) -> CimPreview {
        self.inner.preview(call)
    }
}

/// A [`DcsmView`] that records a span around every estimate and record.
struct TracedDcsm<'a> {
    inner: &'a dyn DcsmView,
    tracer: &'a Tracer,
}

impl CostSource for TracedDcsm<'_> {
    fn cost(&self, pattern: &CallPattern) -> EstimateOutcome {
        let _span = self.tracer.enter("dcsm.estimate");
        self.inner.cost(pattern)
    }
}

impl DcsmView for TracedDcsm<'_> {
    fn record(
        &self,
        call: &GroundCall,
        t_first_ms: Option<f64>,
        t_all_ms: Option<f64>,
        cardinality: Option<f64>,
        now: SimInstant,
    ) {
        let _span = self.tracer.enter("dcsm.record");
        self.inner
            .record(call, t_first_ms, t_all_ms, cardinality, now);
    }
}

/// The root span of one staged query: the replay's own scaffolding, not
/// a product layer.
pub const REPLAY_ROOT: &str = "replay.query";

/// The immutable planning inputs a [`ConcurrentMediator`] keeps private,
/// copied from the serial mediator it was split from.
#[derive(Clone)]
pub struct PlanningInputs {
    pub program: Program,
    pub policy: CimPolicy,
    pub config: MediatorConfig,
}

/// What one staged execution produced, beside its spans.
pub struct StagedAnswer {
    pub rows: Vec<Vec<Value>>,
    pub plans: usize,
    pub calls_attempted: u64,
    pub memo_hits: u64,
    pub t_first_ms: Option<f64>,
}

/// Runs `text` stage by stage against `cm`'s live shared state — parse,
/// enumerate, choose, execute, the same calls in the same order as
/// `ConcurrentMediator::query` makes (the admission gate and the tier
/// selector, which the default path never engages, are left out) — with a
/// span around each stage and around every CIM, DCSM and (on a metered
/// world) source call inside.
pub fn staged_query(
    cm: &ConcurrentMediator,
    inputs: &PlanningInputs,
    tracer: &Rc<Tracer>,
    text: &str,
) -> Result<StagedAnswer> {
    let _active = Activation::of(tracer);
    let _root = tracer.enter(REPLAY_ROOT);
    let cim = TracedCim {
        inner: cm.cim(),
        tracer,
    };
    let dcsm = TracedDcsm {
        inner: cm.dcsm(),
        tracer,
    };
    let query = {
        let _span = tracer.enter("lang.parse");
        parse_query(text)?
    };
    let plans = {
        let _span = tracer.enter("rewrite.enumerate");
        enumerate_plans_with_pushdowns(
            &inputs.program,
            &query,
            &inputs.policy,
            inputs.config.rewrite,
            &[],
        )?
    };
    let chosen = {
        let _span = tracer.enter("cost.choose");
        choose_plan(
            &plans,
            &dcsm,
            &inputs.config.cost,
            inputs.config.optimize_first_answer,
        )
        .0
    };
    let plan = &plans[chosen];
    let outcome = {
        let _span = tracer.enter("exec.run");
        let clock = if cm.wall_clock() {
            SimClock::wall_from(cm.now())
        } else {
            let mut clock = SimClock::new();
            clock.advance_to(cm.now());
            clock
        };
        let mut executor = Executor::new(cm.network(), &cim, &dcsm, clock, inputs.config.exec)
            .with_breakers(cm.breakers())
            .with_flight(cm.flight());
        if inputs.config.exec.share_subplans {
            executor = executor.with_matcache(cm.caches().subplans());
        }
        executor.run(plan, None)?
    };
    let rows = outcome
        .answers
        .iter()
        .map(|theta| {
            plan.answer_vars
                .iter()
                .map(|v| theta.get(v).cloned().unwrap_or(Value::Null))
                .collect()
        })
        .collect();
    Ok(StagedAnswer {
        rows,
        plans: plans.len(),
        calls_attempted: outcome.stats.calls_attempted,
        memo_hits: outcome.stats.memo_hits,
        t_first_ms: outcome.t_first.map(|d| d.as_millis_f64()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::row_multiset_hash;
    use crate::world::{World, WorldConfig, SHARDS};

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            Span {
                name: "root",
                query: 0,
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                query: 0,
                parent: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                query: 0,
                parent: 1,
                start_ns: 15,
                end_ns: 25,
            },
            Span {
                name: "a",
                query: 0,
                parent: 0,
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let totals = stage_totals(&spans);
        assert_eq!(totals["root"].self_ns, 30);
        assert_eq!(totals["a"].count, 2);
        assert_eq!(totals["a"].total_ns, 70);
        assert_eq!(totals["a"].self_ns, 60);
        assert_eq!(totals["b"].self_ns, 10);
        // Self times of one tree add up to the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn guards_nest_and_reported_children_attach_to_the_open_span() {
        let tracer = Tracer::new();
        tracer.begin_query(7);
        {
            let _outer = tracer.enter("outer");
            {
                let _inner = tracer.enter("inner");
            }
            tracer.reported_child("remote", 5);
        }
        let _next = tracer.enter("next");
        drop(_next);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[2].name, spans[2].parent), ("remote", 0));
        assert_eq!(spans[2].duration_ns(), 5);
        assert_eq!(spans[3].parent, NO_PARENT, "outer closed before next");
        assert!(spans.iter().all(|s| s.query == 7 && s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn staged_query_matches_query_and_covers_every_stage() {
        let config = WorldConfig::cached(false, true);
        let mut world = World::build(&config);
        world.train();
        let inputs = PlanningInputs {
            program: world.mediator.program().clone(),
            policy: config.policy.clone(),
            config: *world.mediator.config(),
        };
        let cm = world.mediator.to_concurrent(SHARDS);
        let tracer = Rc::new(Tracer::new());
        for (i, text) in [
            world.keys.star3(0, 1),
            world.keys.actors(3),
            world.keys.point(1, 2, 5),
        ]
        .iter()
        .enumerate()
        {
            tracer.begin_query(i as u32);
            let staged = staged_query(&cm, &inputs, &tracer, text).unwrap();
            let direct = cm.query(text.as_str()).unwrap();
            assert_eq!(
                row_multiset_hash(&staged.rows),
                row_multiset_hash(&direct.rows),
                "{text}"
            );
            assert_eq!(staged.plans, direct.plans_considered);
        }
        let spans = Tracer::finish(tracer);
        // Source calls made by the untraced `cm.query` leave no span.
        assert!(spans
            .iter()
            .all(|s| s.name == REPLAY_ROOT || s.parent != NO_PARENT));
        let totals = stage_totals(&spans);
        for stage in [
            "replay.query",
            "lang.parse",
            "rewrite.enumerate",
            "cost.choose",
            "exec.run",
            "cim.lookup",
            "cim.store",
            "dcsm.estimate",
            "dcsm.record",
            "net.source",
        ] {
            assert!(totals.contains_key(stage), "no `{stage}` span recorded");
        }
        assert_eq!(totals["replay.query"].count, 3);
    }
}
