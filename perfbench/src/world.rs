//! `benchworld`: the one world all four workloads query, built from the
//! product's public domain APIs, plus the uncached oracle that says what
//! every query's answer must be.
//!
//! Sites `d0` (Maryland LAN profile) and `d1` (Cornell) are
//! [`SyntheticDomain`]s holding three hot relations `ra`, `rb`, `rc` of
//! [`HOT_KEYS`] keys and one [`COLD_KEYS`]-key relation `cold`. The hot
//! relations share one small right-hand range, so star joins on the
//! shared right value return rows. `m0` is a replica of `d0` on the LAN
//! under the equality invariant `=> d0:ra_bf(A) = m0:ra_bf(A)`. The
//! paper's rope world (`video` + `relation`, monotone frame-range `⊇`
//! invariant) supplies `actors(F, L, O, A)`.

use hermes_analysis::QueryForm;
use hermes_cim::CimPolicy;
use hermes_common::{shard_index, Result, Rng64, Value};
use hermes_core::Mediator;
use hermes_domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes_domains::video::gen::{rope_store, ROPE_CAST};
use hermes_domains::{CallOutcome, Domain, FunctionSig, NativeEstimator, SlowDomain};
use hermes_lang::{parse_invariant, parse_program};
use hermes_net::{profiles, Network};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::row_multiset_hash;
use crate::trace::in_active_span;

/// Keys per hot relation (before keys with no pairs are left out).
pub const HOT_KEYS: usize = 64;
/// Keys per cold relation.
pub const COLD_KEYS: usize = 4096;
/// Size of the right-hand range the hot relations share.
pub const HOT_RANGE: usize = 12;
/// Mean pairs per hot key.
pub const HOT_FANOUT: f64 = 3.0;
/// Real latency of every source call on the wall-clock workloads.
pub const SOURCE_DELAY: Duration = Duration::from_millis(2);
/// CIM and DCSM shards of the concurrent mediator.
pub const SHARDS: usize = 2;
/// The hot relations, in the order key tables are indexed.
pub const HOT_RELATIONS: [&str; 3] = ["ra", "rb", "rc"];
/// The synthetic sites, in the order key tables are indexed.
pub const SITES: [&str; 2] = ["d0", "d1"];
/// Frames in "The Rope".
const ROPE_FRAMES: i64 = 936;
/// Seeds the generated relations, the frame ranges and the network's
/// jitter stream. The world is a constant of the benchmark: `--seed`
/// draws the query mix, never the data, so runs on different seeds
/// measure the same system under statistically alike load.
const WORLD_SEED: u64 = 1996;

/// The mediator program. `ja` is reachable through `_bf`, `_fb` and
/// `_ff`, `jb` and `jc` through `_bf` and `_fb`: with two keys bound
/// `star2` has 7 adornment-compatible plans and `star3` 14.
pub const PROGRAM: &str = "
d0_ra(A, B) :- in(B, d0:ra_bf(A)).
d0_rb(A, B) :- in(B, d0:rb_bf(A)).
d0_rc(A, B) :- in(B, d0:rc_bf(A)).
d1_ra(A, B) :- in(B, d1:ra_bf(A)).
d1_rb(A, B) :- in(B, d1:rb_bf(A)).
d1_rc(A, B) :- in(B, d1:rc_bf(A)).
d0_cold(A, B) :- in(B, d0:cold_bf(A)).
d1_cold(A, B) :- in(B, d1:cold_bf(A)).
m0_ra(A, B) :- in(B, m0:ra_bf(A)).

ja(A, B) :- in(B, d0:ra_bf(A)).
ja(A, B) :- in(A, d0:ra_fb(B)).
ja(A, B) :- in(Ans, d0:ra_ff()) & =(Ans.a, A) & =(Ans.b, B).
jb(A, B) :- in(B, d1:rb_bf(A)).
jb(A, B) :- in(A, d1:rb_fb(B)).
jc(A, B) :- in(B, d0:rc_bf(A)).
jc(A, B) :- in(A, d0:rc_fb(B)).
star2(A1, A2, X) :- ja(A1, X) & jb(A2, X).
star3(A1, A2, A3, X) :- ja(A1, X) & jb(A2, X) & jc(A3, X).

actors(F, L, O, A) :-
    in(O, video:frames_to_objects('rope', F, L)) &
    in(T, relation:select_eq('cast', 'role', O)) &
    =(T.name, A).
";

/// The query forms the program is registered (and analysed) for.
const QUERY_FORMS: [&str; 14] = [
    "d0_ra(b, f)",
    "d0_rb(b, f)",
    "d0_rc(b, f)",
    "d1_ra(b, f)",
    "d1_rb(b, f)",
    "d1_rc(b, f)",
    "d0_cold(b, f)",
    "d1_cold(b, f)",
    "m0_ra(b, f)",
    "ja(f, b)",
    "ja(f, f)",
    "star2(b, b, f)",
    "star3(b, b, f, f)",
    "actors(b, b, f, f)",
];

/// `d0` and its LAN replica hold the same answers.
const MIRROR_INVARIANT: &str = "=> d0:ra_bf(A) = m0:ra_bf(A).";
/// A wider frame range contains a narrower one's objects.
const FRAME_RANGE_INVARIANT: &str = "F2 <= F1 & L1 <= L2 =>
    video:frames_to_objects(V, F2, L2) >= video:frames_to_objects(V, F1, L1).";

/// How one world instance is configured. Everything else is fixed.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Wrap every source in [`SlowDomain`] with [`SOURCE_DELAY`].
    pub slow: bool,
    /// Time and count calls at the source boundary (traced runs only).
    pub metered: bool,
    /// CIM routing; the oracle uses [`CimPolicy::never`].
    pub policy: CimPolicy,
    /// Turn on the subplan materialization cache.
    pub share_subplans: bool,
    /// Byte budget of the answer cache, per shard once concurrent.
    pub answer_budget: Option<usize>,
}

impl WorldConfig {
    /// The cached world of the measured runs.
    pub fn cached(slow: bool, metered: bool) -> Self {
        WorldConfig {
            slow,
            metered,
            policy: CimPolicy::cache_everything(),
            share_subplans: false,
            answer_budget: None,
        }
    }
}

/// Calls, wall time and answer bytes seen at the source boundary.
#[derive(Debug, Default)]
pub struct SourceMeter {
    pub calls: AtomicU64,
    pub wait_ns: AtomicU64,
    pub bytes: AtomicU64,
}

/// A delegating domain that feeds a [`SourceMeter`] — and, while a staged
/// query is recording on the calling thread, the tracer: the benchmark's
/// own span around `Domain::call`, the one layer boundary the executor
/// does not let a caller wrap from outside.
struct Metered {
    inner: Arc<dyn Domain>,
    meter: Arc<SourceMeter>,
}

impl Domain for Metered {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn functions(&self) -> Vec<FunctionSig> {
        self.inner.functions()
    }

    fn call(&self, function: &str, args: &[Value]) -> Result<CallOutcome> {
        let t0 = Instant::now();
        let outcome = in_active_span("net.source", || self.inner.call(function, args));
        self.meter
            .wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.meter.calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(o) = &outcome {
            self.meter
                .bytes
                .fetch_add(o.answer_bytes() as u64, Ordering::Relaxed);
        }
        outcome
    }

    fn native_estimator(&self) -> Option<&dyn NativeEstimator> {
        self.inner.native_estimator()
    }
}

/// The literals a workload draws query bindings from. Identical for
/// every world built.
#[derive(Clone, Debug)]
pub struct Keys {
    /// `hot[site][relation]`: quoted left-hand keys that have pairs.
    pub hot: [[Vec<String>; 3]; 2],
    /// `cold[site]`: quoted left-hand keys of the cold relation.
    pub cold: [Vec<String>; 2],
    /// Nested `(first, last)` frame ranges: eight centres, eight widths
    /// each, so a wider range finds a narrower one cached.
    pub frames: Vec<(i64, i64)>,
}

impl Keys {
    pub fn point(&self, site: usize, rel: usize, key: usize) -> String {
        let k = &self.hot[site][rel];
        format!(
            "?- {}_{}({}, B).",
            SITES[site],
            HOT_RELATIONS[rel],
            k[key % k.len()]
        )
    }

    pub fn cold_point(&self, site: usize, key: usize) -> String {
        let k = &self.cold[site];
        format!("?- {}_cold({}, B).", SITES[site], k[key % k.len()])
    }

    pub fn mirror_point(&self, key: usize) -> String {
        let k = &self.hot[0][0];
        format!("?- m0_ra({}, B).", k[key % k.len()])
    }

    pub fn star2(&self, a: usize, b: usize) -> String {
        let (ka, kb) = (&self.hot[0][0], &self.hot[1][1]);
        format!("?- star2({}, {}, X).", ka[a % ka.len()], kb[b % kb.len()])
    }

    pub fn star3(&self, a: usize, b: usize) -> String {
        let (ka, kb) = (&self.hot[0][0], &self.hot[1][1]);
        format!(
            "?- star3({}, {}, A3, X).",
            ka[a % ka.len()],
            kb[b % kb.len()]
        )
    }

    pub fn actors(&self, range: usize) -> String {
        let (f, l) = self.frames[range % self.frames.len()];
        format!("?- actors({f}, {l}, O, A).")
    }
}

/// One built world: the serial mediator over it and the key tables.
pub struct World {
    pub mediator: Mediator,
    pub keys: Keys,
    /// Present when the config asked for metering.
    pub meter: Option<Arc<SourceMeter>>,
    /// Wall time of program registration + static analysis, ms.
    pub register_ms: f64,
}

fn hot_spec(name: &str) -> RelationSpec {
    let mut spec = RelationSpec::uniform(name, HOT_KEYS, HOT_FANOUT);
    spec.range_size = HOT_RANGE;
    spec
}

fn synthetic_site(name: &str, seed: u64) -> SyntheticDomain {
    let mut specs: Vec<RelationSpec> = HOT_RELATIONS.iter().map(|r| hot_spec(r)).collect();
    specs.push(RelationSpec::uniform("cold", COLD_KEYS, 2.0));
    SyntheticDomain::generate(name, seed, &specs)
}

fn literals(values: Vec<Value>) -> Vec<String> {
    values.iter().map(Value::to_literal).collect()
}

fn cast_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("name", ColumnType::Str),
        Column::new("role", ColumnType::Str),
    ])
    .expect("cast schema is valid");
    let mut cast = Table::new("cast", schema);
    for (role, actor) in ROPE_CAST {
        cast.insert(vec![Value::str(*actor), Value::str(*role)])
            .expect("cast row matches the schema");
    }
    cast.create_hash_index("role").expect("role column exists");
    cast
}

fn frame_ranges(rng: &mut Rng64) -> Vec<(i64, i64)> {
    let mut ranges = Vec::new();
    for _ in 0..8 {
        let centre = rng.range_i64(40, ROPE_FRAMES - 40);
        for step in 1..=8 {
            let half = step * 12;
            ranges.push(((centre - half).max(0), (centre + half).min(ROPE_FRAMES - 1)));
        }
    }
    // Popularity must not follow nesting order, or the narrow ranges
    // would always be cached first.
    rng.shuffle(&mut ranges);
    ranges
}

impl World {
    /// Builds the sources, places them, and registers the program.
    pub fn build(config: &WorldConfig) -> World {
        let d0 = synthetic_site("d0", WORLD_SEED);
        let d1 = synthetic_site("d1", WORLD_SEED + 1);
        // The replica: same seed, same specs, so the same pairs.
        let m0 = synthetic_site("m0", WORLD_SEED);

        let hot = |d: &SyntheticDomain| -> [Vec<String>; 3] {
            HOT_RELATIONS.map(|r| literals(d.domain_values(r)))
        };
        let mut key_rng = Rng64::new(WORLD_SEED ^ 0x6b65_7973);
        let keys = Keys {
            hot: [hot(&d0), hot(&d1)],
            cold: [
                literals(d0.domain_values("cold")),
                literals(d1.domain_values("cold")),
            ],
            frames: frame_ranges(&mut key_rng),
        };

        let relation = RelationalDomain::new("relation");
        relation.add_table(cast_table());

        let meter = config.metered.then(|| Arc::new(SourceMeter::default()));
        let wrap = |domain: Arc<dyn Domain>| -> Arc<dyn Domain> {
            let domain: Arc<dyn Domain> = if config.slow {
                Arc::new(SlowDomain::new(domain, SOURCE_DELAY))
            } else {
                domain
            };
            match &meter {
                Some(meter) => Arc::new(Metered {
                    inner: domain,
                    meter: meter.clone(),
                }),
                None => domain,
            }
        };
        let mut net = Network::new(WORLD_SEED);
        net.place(wrap(Arc::new(d0)), profiles::maryland());
        net.place(wrap(Arc::new(d1)), profiles::cornell());
        net.place(wrap(Arc::new(m0)), profiles::maryland());
        net.place(wrap(Arc::new(rope_store())), profiles::cornell());
        net.place(wrap(relation), profiles::maryland());

        // An equality invariant across two functions only fires when
        // both live in one CIM shard (see `ShardedCim`).
        assert_eq!(
            shard_index("d0", "ra_bf", SHARDS),
            shard_index("m0", "ra_bf", SHARDS),
            "d0:ra_bf and m0:ra_bf must share a CIM shard for the mirror invariant"
        );

        let empty = parse_program("").expect("the empty program parses");
        let mut mediator = Mediator::new(empty, net).expect("the empty program validates");
        for text in [MIRROR_INVARIANT, FRAME_RANGE_INVARIANT] {
            let invariant = parse_invariant(text).expect("benchworld invariant parses");
            mediator
                .caches()
                .add_invariant(invariant)
                .expect("benchworld invariant is sound");
        }
        mediator
            .caches()
            .policy()
            .routing(config.policy.clone())
            .share_subplans(config.share_subplans)
            .answer_budget(config.answer_budget)
            .apply()
            .expect("serial mediator accepts every cache knob");

        let forms: Vec<QueryForm> = QUERY_FORMS
            .iter()
            .map(|f| QueryForm::parse(f).expect("benchworld query form parses"))
            .collect();
        let t0 = Instant::now();
        mediator
            .register_source(PROGRAM, &forms)
            .expect("benchworld program passes static analysis");
        let register_ms = t0.elapsed().as_secs_f64() * 1e3;

        World {
            mediator,
            keys,
            meter,
            register_ms,
        }
    }

    /// Trains the DCSM: a few calls of every function the workloads
    /// plan over, so plan choice starts from statistics, not defaults.
    /// The answer caches are emptied afterwards; the statistics stay.
    pub fn train(&mut self) {
        for text in training_queries(&self.keys) {
            self.mediator
                .query(text.as_str())
                .unwrap_or_else(|e| panic!("training query `{text}` failed: {e}"));
        }
        self.mediator.caches().clear(hermes_core::CacheTier::All);
    }
}

fn training_queries(keys: &Keys) -> Vec<String> {
    let mut q = Vec::new();
    for k in 0..4 {
        for site in 0..2 {
            for rel in 0..3 {
                q.push(keys.point(site, rel, k));
            }
            q.push(keys.cold_point(site, k));
        }
        q.push(keys.star2(k, k + 1));
        q.push(keys.star3(k + 2, k));
        q.push(keys.actors(k));
    }
    for x in 0..2 {
        q.push(keys.mirror_point(x));
        // The `_fb` access paths, bound to a value of the shared range.
        q.push(format!("?- ja(A, {x})."));
        q.push(format!("?- jb(A, {x})."));
        q.push(format!("?- jc(A, {x})."));
    }
    q.push("?- ja(A, B).".to_string());
    q
}

/// The oracle: a fresh serial mediator over a fresh copy of the world
/// with [`CimPolicy::never`] — uncached, paper-exact — answers every
/// distinct query text once; the row-multiset hash of each answer is what
/// every measured response must reproduce. Returns the hashes (aligned
/// with `texts`) and the wall seconds it took.
pub fn oracle_hashes(texts: &[String]) -> (Vec<u64>, f64) {
    let t0 = Instant::now();
    let mut config = WorldConfig::cached(false, false);
    config.policy = CimPolicy::never();
    let mut world = World::build(&config);
    let hashes = texts
        .iter()
        .map(|text| {
            let result = world
                .mediator
                .query(text.as_str())
                .unwrap_or_else(|e| panic!("oracle query `{text}` failed: {e}"));
            assert!(!result.incomplete, "oracle answer to `{text}` incomplete");
            row_multiset_hash(&result.rows)
        })
        .collect();
    (hashes, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_build_has_the_same_keys() {
        let a = World::build(&WorldConfig::cached(false, false));
        let b = World::build(&WorldConfig::cached(false, true));
        assert_eq!(a.keys.hot, b.keys.hot);
        assert_eq!(a.keys.cold, b.keys.cold);
        assert_eq!(a.keys.frames, b.keys.frames);
        for site in 0..2 {
            for rel in 0..3 {
                assert!(a.keys.hot[site][rel].len() > HOT_KEYS / 2);
            }
            assert!(a.keys.cold[site].len() > COLD_KEYS / 2);
        }
    }

    #[test]
    fn star_queries_have_the_documented_plan_counts_and_return_rows() {
        let mut w = World::build(&WorldConfig::cached(false, false));
        assert_eq!(w.mediator.plan(&w.keys.star2(0, 0)).unwrap().plans.len(), 7);
        assert_eq!(
            w.mediator.plan(&w.keys.star3(0, 0)).unwrap().plans.len(),
            14
        );
        assert_eq!(
            w.mediator.plan(&w.keys.point(0, 0, 0)).unwrap().plans.len(),
            1
        );
        let with_rows = (0..40)
            .filter(|&i| {
                !w.mediator
                    .query(w.keys.star2(i, i + 7))
                    .unwrap()
                    .rows
                    .is_empty()
            })
            .count();
        assert!(
            with_rows >= 10,
            "only {with_rows}/40 star2 joins returned rows"
        );
    }

    #[test]
    fn invariants_fire_and_the_oracle_agrees_with_the_cached_world() {
        let mut w = World::build(&WorldConfig::cached(false, false));
        w.train();
        let texts = vec![
            w.keys.point(0, 0, 2),
            w.keys.mirror_point(2),
            "?- actors(100, 200, O, A).".to_string(),
            "?- actors(50, 300, O, A).".to_string(),
            w.keys.star3(1, 2),
        ];
        let (expected, _) = oracle_hashes(&texts);
        let mut stats = hermes_core::ExecStats::default();
        for (text, want) in texts.iter().zip(&expected) {
            let r = w.mediator.query(text.as_str()).unwrap();
            assert_eq!(row_multiset_hash(&r.rows), *want, "{text}");
            stats.absorb(&r.stats);
            // A miss on either replica executes one call and stores the
            // answers under both names; the equality invariant answers a
            // lookup only once one name's entries are gone.
            w.mediator.caches().invalidate_source("m0", "ra_bf");
        }
        assert!(stats.cim_equal >= 1, "mirror invariant never fired");
        assert!(stats.cim_partial >= 1, "frame-range invariant never fired");
    }

    #[test]
    fn meter_sees_source_calls() {
        let mut w = World::build(&WorldConfig::cached(false, true));
        let text = w.keys.point(1, 1, 0);
        w.mediator.query(text.as_str()).unwrap();
        let meter = w.meter.as_ref().unwrap();
        assert_eq!(meter.calls.load(Ordering::Relaxed), 1);
        assert!(meter.bytes.load(Ordering::Relaxed) > 0);
        assert_eq!(w.mediator.network().source_calls(), 1);
    }
}
