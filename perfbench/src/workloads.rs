//! The four workloads. Each sets the world up, draws its mix from the
//! seed, asks the oracle for the answers, measures one window, checks
//! every answer and the serving invariants, and — on a traced run —
//! replays a sample of its own queries stage by stage and times the
//! layers underneath.

use hermes_common::{QueryFrame, Rng64};
use hermes_core::{
    CacheSnapshot, ConcurrentMediator, NetServer, NetServerStats, ServeConfig, ServeMode,
    ServerStats, WireClient,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::affinity::Placement;
use crate::json::Json;
use crate::layers::{time_caches, time_frames, WireExchange};
use crate::loadgen::{closed_loop, open_loop, Mix, MixBuilder, Tally, AWAKE_BEFORE_DUE};
use crate::metrics::{
    per_layer, rung_metric, Workload, END_TO_END, INPROC_PLAN_JOIN, LADDER_QPS, REFERENCE_RUNG,
    WIRE_COLD_CHURN, WIRE_OPEN_MIXED, WIRE_WARM_POINT,
};
use crate::proc::{cpu_time_us, rss_peak_mb};
use crate::stats::{
    percentile_of, row_multiset_hash, sub_windows, windowed_median, Quartiles, Sample, SubWindow,
};
use crate::trace::{
    stage_totals, staged_query, PlanningInputs, Span, StageTotal, Tracer, REPLAY_ROOT,
};
use crate::world::{
    Keys, SourceMeter, World, WorldConfig, HOT_KEYS, HOT_RANGE, HOT_RELATIONS, SHARDS, SITES,
    SOURCE_DELAY,
};
use hermes_common::rng::ZipfSampler;

/// Client threads of this one process, one connection each.
pub const CLIENTS: usize = 2;
/// Query workers of the in-process `NetServer` (mode `Auto`).
pub const WORKERS: usize = 2;
/// Queries each `wire_cold_churn` connection keeps in flight.
pub const CHURN_DEPTH: usize = 4;
/// Sub-windows of the windowed-median p99.
pub const P99_WINDOWS: usize = 10;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Threads that warm the caches (source latency is real, so they overlap it).
const WARM_THREADS: usize = 8;
/// The longest the closed-loop clients run before their window opens.
const WARM_UP_MAX: Duration = Duration::from_secs(3);
/// Zipf exponent of every skewed binding.
const ZIPF_S: f64 = 1.1;
/// `wire_cold_churn` / `wire_open_mixed`: period of the bench thread's
/// rotating `invalidate_source`.
const INVALIDATE_EVERY: Duration = Duration::from_millis(500);
/// `inproc_plan_join`: queries between two invalidations of the
/// replica's `ra_bf`, which is what makes the equality invariant answer.
const REPLICA_INVALIDATE_EVERY: usize = 256;
/// `wire_cold_churn`: answer-cache byte budget per shard. One cold
/// relation's answers occupy about 64 KiB (3200 keys x 20 B) and the two
/// cold functions hash to different shards, so this is a quarter of the
/// working set.
const CHURN_ANSWER_BUDGET: usize = 16 * 1024;
/// `wire_cold_churn`: the bench thread tells the caches these changed,
/// one per [`INVALIDATE_EVERY`] in rotation — every `_bf` function of
/// both sites, so each cold relation is dropped once per 8 periods.
const CHURN_TARGETS: [(&str, &str); 8] = [
    ("d0", "ra_bf"),
    ("d0", "rb_bf"),
    ("d0", "rc_bf"),
    ("d0", "cold_bf"),
    ("d1", "ra_bf"),
    ("d1", "rb_bf"),
    ("d1", "rc_bf"),
    ("d1", "cold_bf"),
];
/// The functions behind cold points.
const COLD_FUNCTIONS: [(&str, &str); 2] = [("d0", "cold_bf"), ("d1", "cold_bf")];
/// `wire_open_mixed`: a rung meets the limit when its windowed p99 is at
/// most this, its fail ratio at most [`RUNG_FAIL_RATIO`], its backlog is
/// not growing, and the generator kept to the schedule.
const RUNG_P99_LIMIT_US: f64 = 10_000.0;
const RUNG_FAIL_RATIO: f64 = 0.001;
/// A rung does not pass when more than this share of its sends left
/// over 1 ms late.
const LATE_RATIO_LIMIT: f64 = 0.05;

pub struct RunParams {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Shape and invariants only: one set-up, small mixes.
    pub smoke: bool,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind a timing (0 for counts and ratios).
    pub samples: u64,
}

/// One stage row of the traced replay's per-layer table.
#[derive(Clone, Debug)]
pub struct StageRow {
    pub name: &'static str,
    pub count: u64,
    pub self_us_per_query: f64,
    /// Self time as a share of the untraced latency of the same queries.
    pub share: f64,
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants and wrong answers; any entry fails the run.
    pub violations: Vec<String>,
    /// Untraced runs: every end-to-end metric defined on the workload.
    pub end_to_end: Vec<Metric>,
    /// Traced runs: every per-layer metric the workload measures.
    pub per_layer: Vec<Metric>,
    pub stages: Vec<StageRow>,
    pub spans: Vec<Span>,
    /// Sizing, calibration and per-rung detail for the envelope.
    pub detail: Json,
}

// ------------------------------------------------------------------ rig

/// A world brought up and ready to be measured.
struct Rig {
    /// Where the run's threads are: the generator's clients ask it for
    /// their CPU.
    placement: Placement,
    server: Option<NetServer>,
    cm: Arc<ConcurrentMediator>,
    keys: Keys,
    inputs: PlanningInputs,
    meter: Option<Arc<SourceMeter>>,
    register_ms: f64,
}

impl Rig {
    fn server(&self) -> &NetServer {
        self.server.as_ref().expect("wire workload has a server")
    }

    fn addr(&self) -> SocketAddr {
        self.server().addr()
    }

    fn shutdown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .mode(ServeMode::Auto)
        .workers(WORKERS)
        .build()
}

/// Everything `setup_s` covers: build the world, register and analyse
/// the program, train the DCSM, split into the concurrent mediator, warm
/// the caches, bind the server.
fn build_rig(
    placement: &Placement,
    config: &WorldConfig,
    warm: fn(&Keys) -> Vec<String>,
    wire: bool,
) -> Rig {
    let mut world = World::build(config);
    world.train();
    let inputs = PlanningInputs {
        program: world.mediator.program().clone(),
        policy: config.policy.clone(),
        config: *world.mediator.config(),
    };
    let cm = Arc::new(world.mediator.to_concurrent(SHARDS));
    let texts = warm(&world.keys);
    std::thread::scope(|s| {
        for t in 0..WARM_THREADS {
            let (cm, texts) = (&cm, &texts);
            s.spawn(move || {
                for text in texts.iter().skip(t).step_by(WARM_THREADS) {
                    cm.query(text.as_str())
                        .unwrap_or_else(|e| panic!("warm query `{text}` failed: {e}"));
                }
            });
        }
    });
    let server = wire.then(|| {
        NetServer::bind(cm.clone(), "127.0.0.1:0", serve_config()).expect("loopback server binds")
    });
    Rig {
        placement: placement.clone(),
        server,
        cm,
        keys: world.keys,
        inputs,
        meter: world.meter,
        register_ms: world.register_ms,
    }
}

/// Set-ups of a run: [`SETUPS`], or one where `setup_s` is not reported
/// (traced runs) or not meant to be steady (smoke runs).
fn setups(params: &RunParams) -> usize {
    if params.traced || params.smoke {
        1
    } else {
        SETUPS
    }
}

/// Sets up [`setups`] times, keeps the last rig, and returns the median
/// set-up time.
fn setup(params: &RunParams, build: impl Fn() -> Rig) -> (Rig, f64) {
    let mut times = Vec::new();
    let mut rig = None;
    for _ in 0..setups(params) {
        if let Some(previous) = rig.take() {
            Rig::shutdown(previous);
        }
        let t0 = Instant::now();
        rig = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        rig.expect("at least one set-up"),
        Quartiles::of(&times).median,
    )
}

fn no_warm(_: &Keys) -> Vec<String> {
    Vec::new()
}

/// Every call a warm point or warm star2 can make: all hot `_bf` keys,
/// every `_fb` range value of the join relations, and the `ra_ff` scan.
fn warm_everything(keys: &Keys) -> Vec<String> {
    let mut texts = Vec::new();
    for site in 0..SITES.len() {
        for rel in 0..HOT_RELATIONS.len() {
            for k in 0..keys.hot[site][rel].len() {
                texts.push(keys.point(site, rel, k));
            }
        }
    }
    for x in 0..HOT_RANGE {
        for pred in ["ja", "jb", "jc"] {
            texts.push(format!("?- {pred}(A, {x})."));
        }
    }
    texts.push("?- ja(A, B).".to_string());
    texts
}

// ------------------------------------------------------------- measuring

/// Counter snapshots around a window.
struct Counters {
    server: ServerStats,
    caches: CacheSnapshot,
    dcsm_records: usize,
    /// The source meter's (calls, wait ns, answer bytes); zeros when the
    /// run is not metered.
    source: (u64, u64, u64),
    cpu_us: f64,
    at: Instant,
}

impl Counters {
    fn read(rig: &Rig) -> Counters {
        let load = |m: &std::sync::atomic::AtomicU64| m.load(Ordering::Relaxed);
        Counters {
            server: rig.cm.stats(),
            caches: rig.cm.caches().stats(),
            dcsm_records: rig.cm.dcsm().records(),
            source: rig.meter.as_ref().map_or((0, 0, 0), |m| {
                (load(&m.calls), load(&m.wait_ns), load(&m.bytes))
            }),
            cpu_us: cpu_time_us(),
            at: Instant::now(),
        }
    }
}

/// One measured window: what the clients saw and what the counters say.
struct Window {
    tally: Tally,
    before: Counters,
    after: Counters,
    /// The tally's samples split into [`P99_WINDOWS`] equal spans.
    subs: Vec<SubWindow>,
}

impl Window {
    fn new(tally: Tally, before: Counters, after: Counters) -> Window {
        let span_ns = (after.at - before.at).as_nanos() as u64;
        let subs = sub_windows(&tally.samples, span_ns, P99_WINDOWS);
        Window {
            tally,
            before,
            after,
            subs,
        }
    }

    fn span(&self) -> Duration {
        self.after.at - self.before.at
    }

    fn source_calls(&self) -> u64 {
        self.after.server.source_calls - self.before.server.source_calls
    }

    /// Rate and latencies are medians over [`P99_WINDOWS`] equal
    /// sub-windows of the per-window reading, so a stall or a stolen
    /// second on a shared machine moves one window, not the metric.
    fn qps(&self) -> f64 {
        let width_s = self.span().as_secs_f64() / P99_WINDOWS as f64;
        windowed_median(&self.subs, |w| Some(w.count as f64 / width_s)).0
    }

    fn lat_p50_us(&self) -> f64 {
        windowed_median(&self.subs, |w| {
            (w.count > 0).then_some(w.p50_ns as f64 / 1e3)
        })
        .0
    }

    /// The windowed-median p99 (us) and the windows' relative spread.
    fn lat_p99_us(&self) -> (f64, f64) {
        windowed_median(&self.subs, |w| {
            (w.count > 0).then_some(w.p99_ns as f64 / 1e3)
        })
    }

    /// Process CPU over the window. A stall burns none, so this needs no
    /// windowing.
    fn cpu_us(&self) -> f64 {
        self.after.cpu_us - self.before.cpu_us
    }

    fn fail_ratio(&self) -> f64 {
        self.tally.failed() as f64 / self.tally.attempted.max(1) as f64
    }
}

/// How long the closed-loop clients run before a window of `seconds`
/// opens. The first seconds of a connection are reliably slower than the
/// rest (and a cold workload's caches are still filling), so the clients
/// are already running when the window opens; a short window, as on a
/// smoke run, gets a warm-up in proportion.
fn warm_up(seconds: f64) -> Duration {
    WARM_UP_MAX.min(Duration::from_secs_f64(seconds / 4.0))
}

/// Runs the closed-loop clients over the wire: [`warm_up`] unmeasured,
/// then `seconds` measured, while this thread invalidates `churn`
/// targets in rotation.
fn closed_window(
    rig: &Rig,
    mix: &Mix,
    depth: usize,
    seconds: f64,
    churn: &[(&str, &str)],
    traced: bool,
) -> Window {
    let addr = rig.addr();
    let placement = &rig.placement;
    let start = Instant::now() + warm_up(seconds);
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut tally = Tally::default();
    let mut before = None;
    std::thread::scope(|s| {
        let clients: Vec<_> = mix
            .orders
            .iter()
            .map(|order| {
                s.spawn(move || {
                    placement.enter_generator();
                    closed_loop(addr, mix, order, depth, start, deadline, traced)
                })
            })
            .collect();
        invalidate_in_rotation(&rig.cm, churn, start);
        before = Some(Counters::read(rig));
        invalidate_in_rotation(&rig.cm, churn, deadline);
        for c in clients {
            tally.merge(c.join().expect("client thread does not panic"));
        }
    });
    let after = Counters::read(rig);
    Window::new(tally, before.expect("the window opened"), after)
}

/// Every [`INVALIDATE_EVERY`] until `until`, tells the caches one more
/// `(domain, function)` of `targets` changed. With no targets, sleeps.
fn invalidate_in_rotation(cm: &ConcurrentMediator, targets: &[(&str, &str)], until: Instant) {
    let mut turn = 0usize;
    loop {
        let now = Instant::now();
        if now >= until {
            return;
        }
        std::thread::sleep(INVALIDATE_EVERY.min(until - now));
        if !targets.is_empty() && Instant::now() < until {
            let (domain, function) = targets[turn % targets.len()];
            cm.caches().invalidate_source(domain, function);
            turn += 1;
        }
    }
}

/// The serving invariants every wire workload must leave intact.
fn check_serving(rig: &Rig, net: &NetServerStats, violations: &mut Vec<String>) {
    let s = rig.cm.stats();
    if s.admitted + s.shed != s.queries {
        violations.push(format!(
            "gate accounting broken: admitted {} + shed {} != queries {}",
            s.admitted, s.shed, s.queries
        ));
    }
    if net.bad_frames != 0 {
        violations.push(format!("server counted {} bad frames", net.bad_frames));
    }
}

fn check_answers(tally: &Tally, violations: &mut Vec<String>) {
    if tally.mismatches > 0 {
        violations.push(format!(
            "{} answers differ from the uncached oracle; first: {}",
            tally.mismatches,
            tally.first_failure.as_deref().unwrap_or("?")
        ));
    }
}

// --------------------------------------------------------------- metrics

/// The run's metric table under construction.
struct Table {
    values: BTreeMap<String, (f64, u64)>,
}

impl Table {
    fn new() -> Table {
        Table {
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, 0));
    }

    fn timing(&mut self, name: &str, value: f64, samples: u64) {
        self.values.insert(name.to_string(), (value, samples));
    }

    /// The named metric if the run measured it: a workload reports
    /// nothing for a layer that is not on its path, so a 0 is a measured 0.
    fn metric(&self, name: &str, unit: &'static str) -> Option<Metric> {
        let &(value, samples) = self.values.get(name)?;
        Some(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        })
    }

    fn end_to_end(&self, workload: &str) -> Vec<Metric> {
        END_TO_END
            .iter()
            .filter(|m| m.applies_to(workload))
            .filter_map(|m| self.metric(m.name, m.unit))
            .collect()
    }

    fn per_layer(&self) -> Vec<Metric> {
        per_layer()
            .filter_map(|l| self.metric(l.name, l.unit))
            .collect()
    }

    /// The end-to-end metrics every workload reports from its window.
    fn window_metrics(&mut self, w: &Window, setup_s: f64, setups: usize) {
        let n = w.tally.samples.len() as u64;
        let answered = w.tally.correct.max(1) as f64;
        let (p99, spread) = w.lat_p99_us();
        self.timing("setup_s", setup_s, setups as u64);
        self.timing("qps", w.qps(), n);
        self.timing("lat_p50_us", w.lat_p50_us(), n);
        self.timing("lat_p99_us", p99, n);
        self.set("load.p99_window_spread", spread);
        self.set("fail_ratio", w.fail_ratio());
        self.set(
            "source_calls_per_kq",
            w.source_calls() as f64 * 1000.0 / answered,
        );
        self.timing("cpu_us_per_query", w.cpu_us() / answered, n);
        self.set("rss_peak_mb", rss_peak_mb());
    }

    /// Counters of the cache, gate, flight and source layers between two
    /// snapshots.
    fn counter_metrics(&mut self, b: &Counters, a: &Counters) {
        let cim = |f: fn(&CacheSnapshot) -> u64| (f(&a.caches) - f(&b.caches)) as f64;
        let exact = cim(|c| c.cim.exact_hits);
        let equal = cim(|c| c.cim.equal_hits);
        let partial = cim(|c| c.cim.partial_hits);
        let miss = cim(|c| c.cim.misses);
        let lookups = (exact + equal + partial + miss).max(1.0);
        self.set("cim.exact_ratio", exact / lookups);
        self.set("cim.equal_ratio", equal / lookups);
        self.set("cim.partial_ratio", partial / lookups);
        self.set("cim.miss_ratio", miss / lookups);
        self.set("cim.evictions", cim(|c| c.answers.evictions));
        self.set("cim.bytes_shared", cim(|c| c.answers.bytes_shared));
        self.set("cim.bytes_copied", cim(|c| c.answers.bytes_copied));
        self.set("matcache.hits", cim(|c| c.subplans.hits));
        self.set("matcache.materialized", cim(|c| c.subplans.materialized));
        self.set("matcache.rejections", cim(|c| c.subplans.rejected));
        self.set("matcache.invalidated", cim(|c| c.subplans.invalidated));
        let srv = |f: fn(&ServerStats) -> u64| (f(&a.server) - f(&b.server)) as f64;
        self.set("server.admitted", srv(|s| s.admitted));
        self.set("server.shed", srv(|s| s.shed));
        self.set("server.downgraded", srv(|s| s.downgraded));
        self.set("server.cim_lock_contention", srv(|s| s.cim_lock_contention));
        self.set(
            "server.dcsm_lock_contention",
            srv(|s| s.dcsm_lock_contention),
        );
        self.set("flight.calls_coalesced", srv(|s| s.calls_coalesced));
        self.set("flight.round_trips_saved", srv(|s| s.round_trips_saved));
        self.set("net.source_calls", srv(|s| s.source_calls));
        let calls = a.source.0 - b.source.0;
        if calls > 0 {
            self.timing(
                "net.source_wait_us_per_call",
                (a.source.1 - b.source.1) as f64 / 1e3 / calls as f64,
                calls,
            );
        }
        self.set("net.bytes", (a.source.2 - b.source.2) as f64);
        self.set("dcsm.records", a.dcsm_records as f64);
    }

    /// What the wire clients saw of typed sheds and of the server's own
    /// time per answer.
    fn client_metrics(&mut self, tally: &Tally) {
        let shed = |reason: &str| tally.sheds.get(reason).copied().unwrap_or(0) as f64;
        self.set("serve.shed_pipeline_full", shed("pipeline-full"));
        self.set("serve.shed_worker_queue_full", shed("worker-queue-full"));
        if !tally.server_elapsed_us.is_empty() {
            let mut elapsed = tally.server_elapsed_us.clone();
            let n = elapsed.len() as u64;
            self.timing(
                "server.elapsed_us_p50",
                percentile_of(&mut elapsed, 0.5) as f64,
                n,
            );
        }
    }

    fn socket_metrics(&mut self, net: &NetServerStats) {
        self.set("serve.requests", net.requests as f64);
        self.set("serve.pre_gate_shed", net.pre_gate_shed as f64);
        self.set("serve.refused", net.refused as f64);
        self.set("serve.evicted", net.evicted as f64);
        self.set("serve.bad_frames", net.bad_frames as f64);
    }
}

// ---------------------------------------------------------- traced replay

/// What the in-process stage-by-stage replay measured.
#[derive(Default)]
struct Replay {
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, StageTotal>,
    stages: Vec<StageRow>,
    /// Σ stage self times / Σ untraced latency of the same queries.
    stage_sum_ratio: f64,
    /// Σ traced time / Σ untraced time.
    overhead_ratio: f64,
    queries: u64,
    plans: u64,
    calls_attempted: u64,
    memo_hits: u64,
    t_first_ms_sum: f64,
    t_first_n: u64,
    exchanges: Vec<WireExchange>,
}

/// Queries a replay runs, unless its time budget ends it sooner. Enough
/// that one host stall of a few milliseconds, which lands on the traced or
/// the untraced side, is a few percent of either sum even where a query
/// takes 25 us.
const REPLAY_QUERIES: usize = 8000;

/// What a replay runs: the tail of a client's issue order, the part the
/// window reached last or never, so a replay of a cold workload still
/// finds cold keys.
fn replay_slice(order: &[u32]) -> &[u32] {
    &order[order.len().saturating_sub(REPLAY_QUERIES)..]
}

/// Replays `order` against the live `cm`: each query once through
/// `cm.query` (untraced) and once stage by stage (traced), alternating
/// which goes first so neither always meets the warmer cache. Past
/// `budget` it stops once 100 queries are done.
fn replay_in_process(
    rig: &Rig,
    mix: &Mix,
    order: &[u32],
    budget: Duration,
    violations: &mut Vec<String>,
) -> Replay {
    let tracer = std::rc::Rc::new(Tracer::new());
    let started = Instant::now();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut r = Replay::default();
    for (i, &idx) in order.iter().enumerate() {
        if i >= 100 && started.elapsed() > budget {
            break;
        }
        let text = mix.texts[idx as usize].as_str();
        tracer.begin_query(i as u32);
        let mut run_untraced = || {
            let t0 = Instant::now();
            let result = rig.cm.query(text);
            untraced_ns += t0.elapsed().as_nanos() as u64;
            result
        };
        let mut run_traced = || {
            let t0 = Instant::now();
            let result = staged_query(&rig.cm, &rig.inputs, &tracer, text);
            traced_ns += t0.elapsed().as_nanos() as u64;
            result
        };
        let (direct, staged) = if i % 2 == 0 {
            let d = run_untraced();
            (d, run_traced())
        } else {
            let s = run_traced();
            (run_untraced(), s)
        };
        let (direct, staged) = match (direct, staged) {
            (Ok(d), Ok(s)) => (d, s),
            (Err(e), _) | (_, Err(e)) => {
                violations.push(format!("replay of `{text}` failed: {e}"));
                continue;
            }
        };
        let want = mix.expected[idx as usize];
        if row_multiset_hash(&staged.rows) != want || row_multiset_hash(&direct.rows) != want {
            violations.push(format!("replay of `{text}` differs from the oracle"));
        }
        r.queries += 1;
        r.plans += staged.plans as u64;
        r.calls_attempted += staged.calls_attempted;
        r.memo_hits += staged.memo_hits;
        if let Some(t) = staged.t_first_ms {
            r.t_first_ms_sum += t;
            r.t_first_n += 1;
        }
        if r.exchanges.len() < 512 {
            r.exchanges.push(WireExchange {
                text: text.to_string(),
                done: hermes_common::DoneFrame {
                    columns: direct.columns.iter().map(|c| c.to_string()).collect(),
                    rows: direct.rows.len() as u64,
                    ..Default::default()
                },
                rows: direct.rows,
            });
        }
    }
    r.spans = Tracer::finish(tracer);
    r.totals = stage_totals(&r.spans);
    let layer_self_ns: u64 = r
        .totals
        .iter()
        .filter(|(name, _)| **name != REPLAY_ROOT)
        .map(|(_, t)| t.self_ns)
        .sum();
    r.stage_sum_ratio = layer_self_ns as f64 / untraced_ns.max(1) as f64;
    r.overhead_ratio = traced_ns as f64 / untraced_ns.max(1) as f64;
    r.stages = stage_rows(&r.totals, r.queries, untraced_ns);
    r
}

fn stage_rows(
    totals: &BTreeMap<&'static str, StageTotal>,
    queries: u64,
    base_ns: u64,
) -> Vec<StageRow> {
    totals
        .iter()
        .map(|(name, t)| StageRow {
            name,
            count: t.count,
            self_us_per_query: t.self_ns as f64 / 1e3 / queries.max(1) as f64,
            share: t.self_ns as f64 / base_ns.max(1) as f64,
        })
        .collect()
}

impl Table {
    fn replay_metrics(&mut self, r: &Replay) {
        let mean_us = |name: &str| {
            r.totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
        };
        let q = r.queries.max(1);
        self.timing("lang.parse_us", mean_us("lang.parse"), r.queries);
        self.timing(
            "rewrite.enumerate_us",
            mean_us("rewrite.enumerate"),
            r.queries,
        );
        self.set("rewrite.plans_per_query", r.plans as f64 / q as f64);
        self.timing("cost.choose_us", mean_us("cost.choose"), r.queries);
        let choose_ns = r.totals.get("cost.choose").map_or(0, |t| t.total_ns);
        self.timing(
            "cost.estimate_us_per_plan",
            choose_ns as f64 / 1e3 / r.plans.max(1) as f64,
            r.plans,
        );
        self.timing("exec.run_us", mean_us("exec.run"), r.queries);
        self.set(
            "exec.calls_attempted_per_query",
            r.calls_attempted as f64 / q as f64,
        );
        self.set("exec.memo_hits", r.memo_hits as f64);
        self.set(
            "exec.virt_t_first_ms_mean",
            r.t_first_ms_sum / r.t_first_n.max(1) as f64,
        );
        self.set("trace.stage_sum_ratio", r.stage_sum_ratio);
        self.set("trace.overhead_ratio", r.overhead_ratio);
    }

    /// Frames of real exchanges, then the cache layers' per-op timers.
    /// Last of all: the probes count as lookups in the CIM's statistics.
    fn layer_timers(&mut self, rig: &Rig, exchanges: &[WireExchange]) {
        let frames = time_frames(exchanges);
        self.set("frame.encode_ns_per_frame", frames.encode_ns_per_frame);
        self.set("frame.decode_ns_per_frame", frames.decode_ns_per_frame);
        self.set("frame.bytes_per_row", frames.bytes_per_row);
        let caches = time_caches(&rig.cm, &rig.keys);
        self.set("cim.lookup_ns_exact", caches.lookup_ns_exact);
        self.set("cim.lookup_ns_miss", caches.lookup_ns_miss);
        self.set("cim.store_ns", caches.store_ns);
        self.set("cim.invalidate_us", caches.invalidate_us);
        self.set("dcsm.estimate_ns", caches.dcsm_estimate_ns);
        self.set("dcsm.record_ns", caches.dcsm_record_ns);
    }
}

/// Replays `order` over one fresh connection, depth 1, with a span
/// around each round trip and the server's own `elapsed_us` as its
/// child; what is left is the wire's self time. Also pings.
fn replay_wire(
    addr: SocketAddr,
    mix: &Mix,
    order: &[u32],
    budget: Duration,
    table: &mut Table,
    violations: &mut Vec<String>,
) -> (Vec<Span>, Vec<WireExchange>) {
    let tracer = Tracer::new();
    let mut exchanges = Vec::new();
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            violations.push(format!("wire replay could not connect: {e}"));
            return (Vec::new(), exchanges);
        }
    };
    let mut pings: Vec<u64> = (0..200)
        .filter_map(|_| client.ping().ok())
        .map(|d| d.as_nanos() as u64)
        .collect();
    let mut wire_self_ns = Vec::new();
    let started = Instant::now();
    for (i, &idx) in order.iter().enumerate() {
        if i >= 100 && started.elapsed() > budget {
            break;
        }
        let text = &mix.texts[idx as usize];
        tracer.begin_query(i as u32);
        let frame = QueryFrame::new(text.clone());
        let t0 = Instant::now();
        let outcome = {
            let _span = tracer.enter("wire.roundtrip");
            let outcome = client.send_query(frame).and_then(|()| client.recv_result());
            if let Ok(r) = &outcome {
                tracer.reported_child("server.elapsed", r.done.elapsed_us * 1000);
            }
            outcome
        };
        let rtt_ns = t0.elapsed().as_nanos() as u64;
        match outcome {
            Ok(r) => {
                if row_multiset_hash(&r.rows) != mix.expected[idx as usize] {
                    violations.push(format!("wire replay of `{text}` differs from the oracle"));
                }
                wire_self_ns.push(rtt_ns.saturating_sub(r.done.elapsed_us * 1000));
                if exchanges.len() < 512 {
                    exchanges.push(WireExchange {
                        text: text.clone(),
                        rows: r.rows,
                        done: r.done,
                    });
                }
            }
            Err(e) => violations.push(format!("wire replay of `{text}` failed: {e}")),
        }
    }
    let n = wire_self_ns.len() as u64;
    table.timing(
        "serve.wire_self_us_p50",
        percentile_of(&mut wire_self_ns, 0.5) as f64 / 1e3,
        n,
    );
    let n = pings.len() as u64;
    table.timing(
        "serve.ping_rtt_us_p50",
        percentile_of(&mut pings, 0.5) as f64 / 1e3,
        n,
    );
    (tracer.into_spans(), exchanges)
}

/// The traced tail of a wire workload: wire replay (from the
/// generator's CPU, like the window's clients), in-process replay against
/// the same shared state, then the layer timers.
fn trace_wire(
    rig: &Rig,
    mix: &Mix,
    params: &RunParams,
    table: &mut Table,
    violations: &mut Vec<String>,
) -> (Vec<StageRow>, Vec<Span>) {
    let budget = Duration::from_secs_f64(params.seconds * 0.15);
    // Different clients' tails, so the second replay does not find the
    // first one's answers cached.
    let wire_order = replay_slice(&mix.orders[0]);
    let inproc_order = replay_slice(&mix.orders[mix.orders.len() - 1]);
    let addr = rig.addr();
    let (mut spans, exchanges) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            rig.placement.enter_generator();
            replay_wire(addr, mix, wire_order, budget, table, violations)
        });
        client.join().expect("wire replay does not panic")
    });
    let replay = replay_in_process(rig, mix, inproc_order, budget, violations);
    table.replay_metrics(&replay);
    let mut stages = replay.stages;
    let wire_totals = stage_totals(&spans);
    let round_trips = wire_totals
        .get("wire.roundtrip")
        .copied()
        .unwrap_or_default();
    stages.extend(stage_rows(
        &wire_totals,
        round_trips.count,
        round_trips.total_ns,
    ));
    spans.extend(replay.spans);
    table.layer_timers(rig, &exchanges);
    (stages, spans)
}

fn window_seconds(params: &RunParams) -> f64 {
    // A traced run spends the rest of its time in the replays.
    if params.traced {
        params.seconds * 0.6
    } else {
        params.seconds
    }
}

fn sizing(params: &RunParams, placement: &Placement, extra: Vec<(&str, Json)>) -> Json {
    let cpus = |cpus: &[usize]| Json::Arr(cpus.iter().map(|&c| Json::Num(c as f64)).collect());
    let mut pairs = vec![
        // Empty: nothing is pinned.
        ("server_cpus", cpus(&placement.server)),
        ("generator_cpus", cpus(placement.generator.as_slice())),
        ("clients", Json::Num(CLIENTS as f64)),
        ("connections", Json::Num(CLIENTS as f64)),
        ("server_workers", Json::Num(WORKERS as f64)),
        ("server_mode", Json::Str(ServeMode::Auto.name().to_string())),
        ("mediator_shards", Json::Num(SHARDS as f64)),
        (
            "source_delay_ms",
            Json::Num(SOURCE_DELAY.as_secs_f64() * 1e3),
        ),
        ("p99_windows", Json::Num(P99_WINDOWS as f64)),
        (
            "closed_loop_warm_up_s",
            Json::Num(warm_up(window_seconds(params)).as_secs_f64()),
        ),
        ("setups", Json::Num(setups(params) as f64)),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// What a workload has in hand once its window is measured.
struct Measured {
    table: Table,
    violations: Vec<String>,
    stages: Vec<StageRow>,
    spans: Vec<Span>,
    detail: Json,
}

impl Measured {
    fn new(table: Table, violations: Vec<String>, detail: Json) -> Measured {
        Measured {
            table,
            violations,
            stages: Vec::new(),
            spans: Vec::new(),
            detail,
        }
    }

    fn output(self, params: &RunParams, tally: &Tally) -> RunOutput {
        let (end_to_end, per_layer) = if params.traced {
            (Vec::new(), self.table.per_layer())
        } else {
            (self.table.end_to_end(params.workload.name), Vec::new())
        };
        RunOutput {
            attempted: tally.attempted.max(1),
            failed: tally.failed(),
            violations: self.violations,
            end_to_end,
            per_layer,
            stages: self.stages,
            spans: self.spans,
            detail: self.detail,
        }
    }
}

/// The common tail of the wire workloads: on a traced run the counters
/// of `window`, the replays and the layer timers; always the serving
/// invariants, the socket counters, and the server's shutdown.
fn conclude_wire(
    params: &RunParams,
    rig: Rig,
    mix: &Mix,
    window: &Window,
    mut m: Measured,
) -> RunOutput {
    m.table.set("load.oracle_s", mix.oracle_s);
    if params.traced {
        m.table.counter_metrics(&window.before, &window.after);
        m.table.client_metrics(&window.tally);
        m.table.set("analysis.register_ms", rig.register_ms);
        (m.stages, m.spans) = trace_wire(&rig, mix, params, &mut m.table, &mut m.violations);
    }
    let net = rig.server().net_stats();
    check_serving(&rig, &net, &mut m.violations);
    m.table.socket_metrics(&net);
    Rig::shutdown(rig);
    m.output(params, &window.tally)
}

// ------------------------------------------------------------- workloads

pub fn run(params: &RunParams) -> RunOutput {
    // Before any thread exists: the product's threads all inherit the
    // mask. A smoke run checks shape, not time, and the unit tests run
    // several beside each other: those stay where the scheduler puts them.
    let placement = if params.smoke {
        Placement::default()
    } else {
        Placement::split()
    };
    match params.workload.name {
        WIRE_WARM_POINT => wire_warm_point(params, &placement),
        INPROC_PLAN_JOIN => inproc_plan_join(params, &placement),
        WIRE_COLD_CHURN => wire_cold_churn(params, &placement),
        WIRE_OPEN_MIXED => wire_open_mixed(params, &placement),
        other => unreachable!("unknown workload {other}"),
    }
}

fn mix_len(params: &RunParams, full: usize) -> usize {
    if params.smoke {
        full / 8
    } else {
        full
    }
}

/// A warm point: a relation of either site, Zipf over its hot keys.
fn draw_point(keys: &Keys, rng: &mut Rng64, zipf: &ZipfSampler) -> String {
    let site = rng.range_usize(0, SITES.len());
    let rel = rng.range_usize(0, HOT_RELATIONS.len());
    keys.point(site, rel, zipf.sample(rng))
}

fn wire_warm_point(params: &RunParams, placement: &Placement) -> RunOutput {
    let config = WorldConfig::cached(true, params.traced);
    let (rig, setup_s) = setup(params, || {
        build_rig(placement, &config, warm_everything, true)
    });

    let zipf = ZipfSampler::new(HOT_KEYS, ZIPF_S);
    let mut builder = MixBuilder::default();
    let orders = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng64::new(params.seed ^ (0xA0 + c as u64));
            (0..mix_len(params, 8192))
                .map(|_| builder.intern(draw_point(&rig.keys, &mut rng, &zipf)))
                .collect()
        })
        .collect();
    let mix = builder.finish(orders);

    let window = closed_window(&rig, &mix, 1, window_seconds(params), &[], params.traced);
    let mut violations = Vec::new();
    check_answers(&window.tally, &mut violations);
    if window.source_calls() != 0 {
        violations.push(format!(
            "{} source calls on fully pre-warmed keys",
            window.source_calls()
        ));
    }
    let mut table = Table::new();
    table.window_metrics(&window, setup_s, setups(params));
    let detail = sizing(
        params,
        &rig.placement,
        vec![
            ("loop", Json::Str("closed".into())),
            ("pipeline_depth", Json::Num(1.0)),
            ("distinct_queries", Json::Num(mix.texts.len() as f64)),
        ],
    );
    let measured = Measured::new(table, violations, detail);
    conclude_wire(params, rig, &mix, &window, measured)
}

fn wire_cold_churn(params: &RunParams, placement: &Placement) -> RunOutput {
    let mut config = WorldConfig::cached(true, params.traced);
    config.share_subplans = true;
    config.answer_budget = Some(CHURN_ANSWER_BUDGET);
    let (rig, setup_s) = setup(params, || build_rig(placement, &config, no_warm, true));

    let mut builder = MixBuilder::default();
    let orders = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng64::new(params.seed ^ (0xC0 + c as u64));
            (0..mix_len(params, 16384))
                .map(|_| {
                    let site = rng.range_usize(0, SITES.len());
                    let key = rng.range_usize(0, rig.keys.cold[site].len());
                    builder.intern(rig.keys.cold_point(site, key))
                })
                .collect()
        })
        .collect();
    let mix = builder.finish(orders);

    let window = closed_window(
        &rig,
        &mix,
        CHURN_DEPTH,
        window_seconds(params),
        &CHURN_TARGETS,
        params.traced,
    );
    let mut violations = Vec::new();
    check_answers(&window.tally, &mut violations);
    let mut table = Table::new();
    table.window_metrics(&window, setup_s, setups(params));
    let caches = &window.after.caches;
    let evictions = caches.answers.evictions - window.before.caches.answers.evictions;
    let detail = sizing(
        params,
        &rig.placement,
        vec![
            ("loop", Json::Str("closed".into())),
            ("pipeline_depth", Json::Num(CHURN_DEPTH as f64)),
            ("distinct_queries", Json::Num(mix.texts.len() as f64)),
            ("share_subplans", Json::Bool(true)),
            (
                "invalidate_every_ms",
                Json::Num(INVALIDATE_EVERY.as_secs_f64() * 1e3),
            ),
            (
                "answer_budget_bytes_per_shard",
                Json::Num(CHURN_ANSWER_BUDGET as f64),
            ),
            (
                "answer_entries_at_end",
                Json::Num(caches.answer_entries as f64),
            ),
            ("answer_bytes_at_end", Json::Num(caches.answer_bytes as f64)),
            ("answer_evictions", Json::Num(evictions as f64)),
        ],
    );
    let measured = Measured::new(table, violations, detail);
    conclude_wire(params, rig, &mix, &window, measured)
}

/// Queries per cold-start round of `inproc_plan_join`.
const ROUND: usize = 12_000;

/// One pass over `order` from empty caches. Returns the mean simulated
/// time-to-all-answers (ms) of the pass's queries.
fn plan_join_round(
    cm: &ConcurrentMediator,
    mix: &Mix,
    order: &[u32],
    start: Instant,
    tally: &mut Tally,
) -> f64 {
    cm.caches().clear(hermes_core::CacheTier::All);
    let mut virt_ms = 0.0;
    for (i, &idx) in order.iter().enumerate() {
        if i % REPLICA_INVALIDATE_EVERY == 0 {
            cm.caches().invalidate_source("m0", "ra_bf");
        }
        tally.attempted += 1;
        let t0 = Instant::now();
        let result = cm.query(mix.texts[idx as usize].as_str());
        let done = Instant::now();
        let sample = Sample {
            done_ns: (done - start).as_nanos() as u64,
            lat_ns: (done - t0).as_nanos() as u64,
        };
        let outcome = result.map(|r| {
            virt_ms += r.t_all.as_millis_f64();
            (r.rows, 0)
        });
        tally.record(mix, idx, outcome, Some(sample), false);
    }
    virt_ms / order.len() as f64
}

fn inproc_plan_join(params: &RunParams, placement: &Placement) -> RunOutput {
    let config = WorldConfig::cached(false, params.traced);
    let (rig, setup_s) = setup(params, || build_rig(placement, &config, no_warm, false));

    // 40% star2, 30% star3, 20% actors, 10% mirror_point, Zipf bindings.
    let zipf = ZipfSampler::new(HOT_KEYS, ZIPF_S);
    let mut rng = Rng64::new(params.seed ^ 0xB0);
    let mut builder = MixBuilder::default();
    let order: Vec<u32> = (0..mix_len(params, ROUND))
        .map(|_| {
            let class = rng.range_usize(0, 10);
            let (a, b) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
            let text = match class {
                0..=3 => rig.keys.star2(a, b),
                4..=6 => rig.keys.star3(a, b),
                7..=8 => rig.keys.actors(a),
                _ => rig.keys.mirror_point(a),
            };
            builder.intern(text)
        })
        .collect();
    let mix = builder.finish(vec![order]);
    let order = &mix.orders[0];

    // Rounds: empty the caches (the DCSM keeps what it learned), then one
    // pass over the mix. Every round starts cold, so rounds are alike, and
    // the first one's counts repeat exactly for a seed. A traced run is
    // that first round alone, so every count it reports repeats too.
    let cm = &rig.cm;
    let before = Counters::read(&rig);
    let start = before.at;
    let mut tally = Tally::default();
    let virt_t_all_ms_mean = plan_join_round(cm, &mix, order, start, &mut tally);
    let after_first = Counters::read(&rig);
    let first_round_calls = after_first.server.source_calls - before.server.source_calls;
    while !params.traced && start.elapsed().as_secs_f64() < params.seconds {
        plan_join_round(cm, &mix, order, start, &mut tally);
    }
    let window = Window::new(tally, before, Counters::read(&rig));
    let mut violations = Vec::new();
    check_answers(&window.tally, &mut violations);

    let mut table = Table::new();
    table.window_metrics(&window, setup_s, setups(params));
    table.set("load.oracle_s", mix.oracle_s);
    table.set("virt_t_all_ms_mean", virt_t_all_ms_mean);
    table.set(
        "source_calls_per_kq",
        first_round_calls as f64 * 1000.0 / order.len() as f64,
    );
    let (mut stages, mut spans) = (Vec::new(), Vec::new());
    if params.traced {
        table.counter_metrics(&window.before, &after_first);
        table.set("analysis.register_ms", rig.register_ms);
        let budget = Duration::from_secs_f64(params.seconds * 0.5);
        let replay = replay_in_process(&rig, &mix, replay_slice(order), budget, &mut violations);
        table.replay_metrics(&replay);
        table.layer_timers(&rig, &replay.exchanges);
        stages = replay.stages;
        spans = replay.spans;
    }
    let detail = sizing(
        params,
        &rig.placement,
        vec![
            ("loop", Json::Str("in-process, one thread".into())),
            ("round_queries", Json::Num(order.len() as f64)),
            (
                "rounds",
                Json::Num(window.tally.attempted as f64 / order.len() as f64),
            ),
            ("distinct_queries", Json::Num(mix.texts.len() as f64)),
            (
                "first_round_source_calls",
                Json::Num(first_round_calls as f64),
            ),
            (
                "replica_invalidate_every",
                Json::Num(REPLICA_INVALIDATE_EVERY as f64),
            ),
        ],
    );
    Measured {
        table,
        violations,
        stages,
        spans,
        detail,
    }
    .output(params, &window.tally)
}

/// What one ladder rung measured.
struct Rung {
    rate_qps: u32,
    window: Window,
    passed: bool,
    late_ratio: f64,
    backlog_growing: bool,
}

/// Offers `rate_qps` over both connections for `seconds`.
fn open_rung(rig: &Rig, mix: &Mix, rate_qps: u32, seconds: f64, traced: bool) -> Rung {
    let placement = &rig.placement;
    // Every rung replays the mix from its start: forget the cold answers
    // the previous rung cached.
    for (domain, function) in COLD_FUNCTIONS {
        rig.cm.caches().invalidate_source(domain, function);
    }
    let addr = rig.addr();
    let interval = Duration::from_secs_f64(CLIENTS as f64 / f64::from(rate_qps));
    // The server's own per-connection pipeline depth.
    let cap = serve_config().pipeline_depth as u64;
    let window_len = Duration::from_secs_f64(seconds);
    let before = Counters::read(rig);
    let start = before.at;
    let mut tally = Tally::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = mix
            .orders
            .iter()
            .enumerate()
            .map(|(c, order)| {
                // Stagger the connections' schedules across one interval.
                let start = start + interval.mul_f64(c as f64 / CLIENTS as f64);
                s.spawn(move || {
                    // The receiver thread it spawns inherits the CPU.
                    placement.enter_generator();
                    open_loop(addr, mix, order, interval, cap, start, window_len, traced)
                })
            })
            .collect();
        // Cold keys must stay cold however long the rung is.
        invalidate_in_rotation(&rig.cm, &COLD_FUNCTIONS, start + window_len);
        for c in clients {
            tally.merge(c.join().expect("client thread does not panic"));
        }
    });
    let after = Counters::read(rig);
    let late_ratio = tally.late_sends as f64 / tally.attempted.max(1) as f64;
    // Growing: the second half's backlog is more than twice the first
    // half's and more than what arrives within the latency limit (a
    // handful of waiting requests going from 1 to 3 is not a queue).
    let (first, second) = tally.backlog_halves;
    let arrives_within_limit = f64::from(rate_qps) * RUNG_P99_LIMIT_US / 1e6;
    let backlog_growing = second > 2.0 * first && second > arrives_within_limit;
    let window = Window::new(tally, before, after);
    // A rate the generator could not offer on time was not tested.
    let passed = window.lat_p99_us().0 <= RUNG_P99_LIMIT_US
        && window.fail_ratio() <= RUNG_FAIL_RATIO
        && !backlog_growing
        && late_ratio <= LATE_RATIO_LIMIT;
    Rung {
        rate_qps,
        window,
        passed,
        late_ratio,
        backlog_growing,
    }
}

impl Rung {
    fn detail(&self) -> Json {
        let w = &self.window;
        let (p99, spread) = w.lat_p99_us();
        Json::obj(vec![
            ("rate_qps", Json::Num(f64::from(self.rate_qps))),
            ("passed", Json::Bool(self.passed)),
            ("attempted", Json::Num(w.tally.attempted as f64)),
            ("failed", Json::Num(w.tally.failed() as f64)),
            ("achieved_qps", Json::Num(w.qps())),
            ("lat_p50_us", Json::Num(w.lat_p50_us())),
            ("lat_p99_us", Json::Num(p99)),
            ("p99_window_spread", Json::Num(spread)),
            (
                "cpu_us_per_query",
                Json::Num(w.cpu_us() / w.tally.correct.max(1) as f64),
            ),
            ("late_ratio", Json::Num(self.late_ratio)),
            ("backlog_max", Json::Num(w.tally.backlog_max as f64)),
            ("backlog_growing", Json::Bool(self.backlog_growing)),
        ])
    }
}

fn wire_open_mixed(params: &RunParams, placement: &Placement) -> RunOutput {
    let config = WorldConfig::cached(true, params.traced);
    let (rig, setup_s) = setup(params, || {
        build_rig(placement, &config, warm_everything, true)
    });

    // 85% warm point, 10% warm star2, 5% cold point. Cold keys are dealt
    // from a shuffled deck, so none repeats before the deck runs out.
    let zipf = ZipfSampler::new(HOT_KEYS, ZIPF_S);
    let mut builder = MixBuilder::default();
    let orders = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng64::new(params.seed ^ (0xD0 + c as u64));
            let site = c % SITES.len();
            let mut deck: Vec<usize> = (0..rig.keys.cold[site].len()).collect();
            rng.shuffle(&mut deck);
            let mut dealt = 0usize;
            (0..mix_len(params, 65536))
                .map(|_| {
                    let text = match rng.range_usize(0, 100) {
                        0..=84 => draw_point(&rig.keys, &mut rng, &zipf),
                        85..=94 => rig.keys.star2(zipf.sample(&mut rng), zipf.sample(&mut rng)),
                        _ => {
                            dealt += 1;
                            rig.keys.cold_point(site, deck[(dealt - 1) % deck.len()])
                        }
                    };
                    builder.intern(text)
                })
                .collect()
        })
        .collect();
    let mix = builder.finish(orders);

    let rung_seconds = window_seconds(params) / LADDER_QPS.len() as f64;
    let mut violations = Vec::new();
    let rungs: Vec<Rung> = LADDER_QPS
        .iter()
        .map(|&rate| open_rung(&rig, &mix, rate, rung_seconds, params.traced))
        .collect();
    for r in &rungs {
        check_answers(&r.window.tally, &mut violations);
    }

    // A rung counts only if every slower rung passed too. Whether a rung
    // meets the limit is a measurement, not an invariant: a host stall
    // can sink any rung of a run, and max_ok_rate_qps says so. Rungs above
    // the reference one probe for the limit and are expected to miss it:
    // only the reference rung's operations count as attempted or failed.
    let max_ok_rate_qps = rungs
        .iter()
        .take_while(|r| r.passed)
        .last()
        .map_or(0, |r| r.rate_qps);
    let reference = &rungs[REFERENCE_RUNG];
    let mut table = Table::new();
    table.window_metrics(&reference.window, setup_s, setups(params));
    table.set("max_ok_rate_qps", f64::from(max_ok_rate_qps));
    // CPU per query at a fixed moderate rate mostly measures how this
    // machine wakes idle cores (and how long the senders stay awake before
    // a send is due), and swings by half between runs. Over the whole
    // ladder most answers come from the saturated rung, where it is the
    // cost of a query at capacity — what max_ok_rate_qps turns on.
    let answered: u64 = rungs.iter().map(|r| r.window.tally.correct).sum();
    let cpu_us: f64 = rungs.iter().map(|r| r.window.cpu_us()).sum();
    table.timing(
        "cpu_us_per_query",
        cpu_us / answered.max(1) as f64,
        answered,
    );
    table.set(
        "load.late_ratio",
        rungs
            .iter()
            .filter(|r| r.passed)
            .map(|r| r.late_ratio)
            .fold(0.0, f64::max),
    );
    table.set(
        "load.backlog_max",
        reference.window.tally.backlog_max as f64,
    );
    for r in &rungs {
        table.timing(
            &rung_metric(r.rate_qps),
            r.window.lat_p99_us().0,
            r.window.tally.samples.len() as u64,
        );
    }
    let detail = sizing(
        params,
        &rig.placement,
        vec![
            ("loop", Json::Str("open".into())),
            ("rung_seconds", Json::Num(rung_seconds)),
            (
                "sender_awake_before_due_us",
                Json::Num(AWAKE_BEFORE_DUE.as_secs_f64() * 1e6),
            ),
            (
                "reference_rate_qps",
                Json::Num(f64::from(reference.rate_qps)),
            ),
            ("limit_p99_us", Json::Num(RUNG_P99_LIMIT_US)),
            ("limit_fail_ratio", Json::Num(RUNG_FAIL_RATIO)),
            ("distinct_queries", Json::Num(mix.texts.len() as f64)),
            ("rungs", Json::Arr(rungs.iter().map(Rung::detail).collect())),
        ],
    );
    let measured = Measured::new(table, violations, detail);
    conclude_wire(params, rig, &mix, &reference.window, measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn smoke(workload: &str, traced: bool) -> RunOutput {
        run(&RunParams {
            workload: metrics::workload(workload).unwrap(),
            seed: 11,
            // A traced plan-join run is one round whatever the time; the
            // seconds only bound its replay, which must run to its end.
            seconds: if traced { 30.0 } else { 0.2 },
            traced,
            smoke: true,
        })
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    /// Wall-clock readings differ between runs; everything else the
    /// single-threaded, virtual-time workload reports must not.
    fn is_wall_clock(m: &Metric) -> bool {
        matches!(m.unit, "ns" | "us" | "s")
            || m.name.starts_with("trace.")
            || m.name.starts_with("load.")
            || m.name == "analysis.register_ms"
    }

    #[test]
    fn plan_join_counts_repeat_exactly_for_a_seed() {
        let (a, b) = (smoke(INPROC_PLAN_JOIN, true), smoke(INPROC_PLAN_JOIN, true));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.per_layer.len(), b.per_layer.len());
        // No wire, no ladder: those layers report nothing, not 0.
        assert!(a
            .per_layer
            .iter()
            .all(|m| !m.name.starts_with("serve.") && m.name != "max_ok_rate_qps"));
        let mut compared = 0;
        for (x, y) in a.per_layer.iter().zip(&b.per_layer) {
            assert_eq!(x.name, y.name);
            if !is_wall_clock(x) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{}", x.name);
                compared += 1;
            }
        }
        assert!(compared >= 25, "only {compared} counts compared");
        assert!(
            value(&a.per_layer, "cim.equal_ratio") > 0.0,
            "mirror invariant idle"
        );
        assert!(
            value(&a.per_layer, "cim.partial_ratio") > 0.0,
            "frame invariant idle"
        );
        assert!(value(&a.per_layer, "rewrite.plans_per_query") > 5.0);

        // The untraced run's first round is the traced run's only round.
        let u = smoke(INPROC_PLAN_JOIN, false);
        assert!(u.violations.is_empty() && u.failed == 0);
        for name in ["virt_t_all_ms_mean", "source_calls_per_kq"] {
            assert_eq!(
                value(&u.end_to_end, name).to_bits(),
                value(&a.per_layer, name).to_bits(),
                "{name}"
            );
        }
        assert!(value(&u.end_to_end, "virt_t_all_ms_mean") > 0.0);
    }

    #[test]
    fn warm_points_over_the_wire_never_reach_a_source() {
        let out = smoke(WIRE_WARM_POINT, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.failed, 0);
        assert_eq!(value(&out.end_to_end, "source_calls_per_kq"), 0.0);
        assert!(value(&out.end_to_end, "qps") > 0.0);
        assert!(out.end_to_end.iter().all(|m| m.name != "max_ok_rate_qps"));
    }
}
