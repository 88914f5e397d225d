//! Property-style tests over the workspace's core invariants.
//!
//! The workspace is dependency-free, so instead of proptest these use
//! hand-rolled generators over the in-tree deterministic [`Rng64`]: every
//! property runs a fixed number of seeded cases and failures print the case
//! seed, which reproduces the input exactly.

use hermes::common::{CallPattern, GroundCall, PatArg, Rng64, SimDuration, SimInstant};
use hermes::dcsm::{Dcsm, SummaryTable};
use hermes::lang::{parse_rule, BodyAtom, CallTemplate, PredAtom, Rule, Term};
use hermes::Value;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const CASES: u64 = 128;

/// Runs `body` once per case with an independent, reproducible generator.
fn cases(test_name: &str, n: u64, mut body: impl FnMut(&mut Rng64)) {
    for case in 0..n {
        // Seed from the test name so adding cases to one test never shifts
        // the inputs of another.
        let mut name_hash = DefaultHasher::new();
        test_name.hash(&mut name_hash);
        let mut rng = Rng64::new(name_hash.finish() ^ case.wrapping_mul(0x9E3779B97F4A7C15));
        body(&mut rng);
    }
}

// ---------- generators ----------

fn lower_string(r: &mut Rng64, min_len: usize, max_len: usize) -> String {
    let len = r.range_usize(min_len, max_len + 1);
    (0..len)
        .map(|_| (b'a' + r.range_u64(0, 26) as u8) as char)
        .collect()
}

fn finite_float(r: &mut Rng64) -> f64 {
    match r.range_usize(0, 6) {
        0 => 0.0,
        1 => -1.0,
        _ => r.range_f64(-1e6, 1e6),
    }
}

fn scalar_value(r: &mut Rng64) -> Value {
    match r.range_usize(0, 5) {
        0 => Value::Null,
        1 => Value::Bool(r.chance(0.5)),
        2 => Value::Int(r.next_u64() as i64),
        3 => Value::Float(finite_float(r)),
        _ => Value::str(lower_string(r, 0, 8)),
    }
}

/// Any value, including non-finite floats (the value model canonicalizes
/// NaN and signed zero) and nested lists/records up to depth 3.
fn value(r: &mut Rng64) -> Value {
    fn go(r: &mut Rng64, depth: usize) -> Value {
        if depth == 0 || r.chance(0.55) {
            return match r.range_usize(0, 8) {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(f64::INFINITY),
                2 => Value::Float(f64::NEG_INFINITY),
                3 => Value::Float(-0.0),
                _ => scalar_value(r),
            };
        }
        if r.chance(0.5) {
            let n = r.range_usize(0, 4);
            Value::List((0..n).map(|_| go(r, depth - 1)).collect())
        } else {
            let n = r.range_usize(0, 4);
            let fields: Vec<(String, Value)> = (0..n)
                .map(|_| (lower_string(r, 1, 4), go(r, depth - 1)))
                .collect();
            Value::Record(hermes::common::Record::from_fields(fields))
        }
    }
    go(r, 3)
}

fn ident(r: &mut Rng64) -> String {
    let mut s = lower_string(r, 1, 1);
    let extra = r.range_usize(0, 7);
    for _ in 0..extra {
        let c = match r.range_usize(0, 12) {
            0 => '_',
            1..=2 => (b'0' + r.range_u64(0, 10) as u8) as char,
            _ => (b'a' + r.range_u64(0, 26) as u8) as char,
        };
        s.push(c);
    }
    s
}

fn var_name(r: &mut Rng64) -> String {
    let mut s = String::new();
    s.push((b'A' + r.range_u64(0, 26) as u8) as char);
    let extra = r.range_usize(0, 5);
    for _ in 0..extra {
        let c = if r.chance(0.3) {
            (b'0' + r.range_u64(0, 10) as u8) as char
        } else {
            (b'a' + r.range_u64(0, 26) as u8) as char
        };
        s.push(c);
    }
    s
}

fn term(r: &mut Rng64) -> Term {
    match r.range_usize(0, 3) {
        0 => Term::var(var_name(r)),
        1 => Term::constant(r.range_i64(i32::MIN as i64, i32::MAX as i64 + 1)),
        _ => {
            let mut s = lower_string(r, 1, 1);
            let extra = r.range_usize(0, 7);
            for _ in 0..extra {
                s.push(if r.chance(0.2) {
                    ' '
                } else {
                    (b'a' + r.range_u64(0, 26) as u8) as char
                });
            }
            Term::Const(Value::str(s))
        }
    }
}

fn ground_call(r: &mut Rng64) -> GroundCall {
    let d = ident(r);
    let f = ident(r);
    let n = r.range_usize(0, 4);
    let args: Vec<Value> = (0..n).map(|_| scalar_value(r)).collect();
    GroundCall::new(d, f, args)
}

fn rule(r: &mut Rng64) -> Rule {
    let name = ident(r);
    let head_vars: Vec<String> = (0..r.range_usize(1, 3)).map(|_| var_name(r)).collect();
    let mut body: Vec<BodyAtom> = (0..r.range_usize(1, 4))
        .map(|_| {
            let v = var_name(r);
            let d = ident(r);
            let f = ident(r);
            let n = r.range_usize(0, 3);
            let args = (0..n).map(|_| term(r)).collect();
            BodyAtom::In {
                target: Term::var(v),
                call: CallTemplate::new(d, f, args),
            }
        })
        .collect();
    // Make the rule trivially range-restricted by reusing the head vars as
    // in-targets of the first body atoms.
    let n = body.len();
    for (i, hv) in head_vars.iter().enumerate() {
        if let Some(BodyAtom::In { target, .. }) = body.get_mut(i % n) {
            *target = Term::var(hv.as_str());
        }
    }
    let head = PredAtom::new(
        name,
        head_vars.iter().map(|v| Term::var(v.as_str())).collect(),
    );
    Rule::new(head, body)
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

// ---------- value-model properties ----------

#[test]
fn value_order_is_total_and_consistent() {
    cases("value_order_is_total_and_consistent", CASES, |r| {
        let a = value(r);
        let b = value(r);
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        assert_eq!(ab, ba.reverse(), "{a:?} vs {b:?}");
        assert_eq!(ab == Ordering::Equal, a == b, "{a:?} vs {b:?}");
        if a == b {
            assert_eq!(hash_of(&a), hash_of(&b), "{a:?}");
        }
    });
}

#[test]
fn value_order_is_transitive() {
    cases("value_order_is_transitive", CASES, |r| {
        let mut v = [value(r), value(r), value(r)];
        v.sort();
        assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2], "{v:?}");
    });
}

#[test]
fn value_equals_itself_even_with_nan() {
    cases("value_equals_itself_even_with_nan", CASES, |r| {
        let a = value(r);
        assert_eq!(a.clone(), a);
    });
}

#[test]
fn size_bytes_is_positive_and_stable() {
    cases("size_bytes_is_positive_and_stable", CASES, |r| {
        let a = value(r);
        assert!(a.size_bytes() >= 1);
        assert_eq!(a.size_bytes(), a.clone().size_bytes());
    });
}

// ---------- parser round-trips ----------

#[test]
fn rule_display_reparses_identically() {
    cases("rule_display_reparses_identically", CASES, |r| {
        let rule = rule(r);
        let text = rule.to_string();
        let parsed = parse_rule(&text);
        assert!(
            parsed.is_ok(),
            "failed to reparse `{}`: {:?}",
            text,
            parsed.err()
        );
        assert_eq!(parsed.unwrap(), rule);
    });
}

#[test]
fn ground_call_display_is_parseable_as_query() {
    cases("ground_call_display_is_parseable_as_query", CASES, |r| {
        let c = ground_call(r);
        let text = format!("?- in(X, {c}).");
        let q = hermes::parse_query(&text);
        assert!(q.is_ok(), "failed on `{text}`: {:?}", q.err());
    });
}

// ---------- call-pattern lattice ----------

#[test]
fn blanket_generalizes_everything() {
    cases("blanket_generalizes_everything", CASES, |r| {
        let c = ground_call(r);
        let full = c.pattern();
        let blanket = c.blanket_pattern();
        assert!(blanket.generalizes(&full));
        assert!(blanket.matches(&c));
        assert!(full.matches(&c));
    });
}

#[test]
fn relaxation_preserves_matching() {
    cases("relaxation_preserves_matching", CASES, |r| {
        let c = ground_call(r);
        let mut frontier = vec![c.pattern()];
        // Walk the whole relaxation lattice; every pattern must match c.
        while let Some(p) = frontier.pop() {
            assert!(p.matches(&c), "{p} should match {c}");
            assert!(p.generalizes(&c.pattern()));
            for relaxed in p.relaxations() {
                assert!(relaxed.generalizes(&p));
                assert!(!p.generalizes(&relaxed) || p == relaxed);
                frontier.push(relaxed);
            }
        }
    });
}

#[test]
fn generalizes_is_antisymmetric() {
    cases("generalizes_is_antisymmetric", CASES, |r| {
        let c = ground_call(r);
        let full = c.pattern();
        let mut p = full.clone();
        for i in 0..p.args.len() {
            if r.chance(0.5) {
                p.args[i] = PatArg::Bound;
            }
        }
        if p.generalizes(&full) && full.generalizes(&p) {
            assert_eq!(p, full);
        }
    });
}

// ---------- cache invariants ----------

#[test]
fn cache_respects_budget_and_returns_stored_answers() {
    cases("cache_respects_budget", CASES, |r| {
        let budget = r.range_usize(64, 2048);
        let mut cache = hermes::cim::AnswerCache::with_budget(budget);
        let mut last_inserted: Option<(GroundCall, Vec<Value>)> = None;
        let ops = r.range_usize(1, 60);
        for _ in 0..ops {
            let op = r.range_usize(0, 3);
            let key = r.range_i64(0, 20);
            let n = r.range_usize(0, 6);
            let answers: Vec<Value> = (0..n).map(|_| scalar_value(r)).collect();
            let call = GroundCall::new("d", "f", vec![Value::Int(key)]);
            match op {
                0 => {
                    cache.insert(call.clone(), answers.clone(), true, SimInstant::EPOCH);
                    last_inserted = Some((call, answers));
                }
                1 => {
                    let _ = cache.get(&call);
                }
                _ => {
                    cache.invalidate_domain("other"); // no-op on these keys
                }
            }
            // Budget holds whenever more than one entry exists.
            if cache.len() > 1 {
                assert!(cache.bytes() <= budget, "{} > {budget}", cache.bytes());
            }
            // The most recent insert is always retrievable.
            if let Some((c, a)) = &last_inserted {
                if let Some(e) = cache.peek(c) {
                    assert_eq!(e.answers[..], a[..]);
                }
            }
        }
    });
}

// ---------- DCSM summarization invariants ----------

#[test]
fn lossless_summary_equals_detail_aggregation() {
    cases("lossless_summary_equals_detail", CASES, |r| {
        let n = r.range_usize(1, 40);
        let observations: Vec<(i64, f64, f64)> = (0..n)
            .map(|_| {
                (
                    r.range_i64(0, 6),
                    r.range_f64(0.1, 100.0),
                    r.range_f64(0.0, 40.0),
                )
            })
            .collect();
        let mut dcsm = Dcsm::new();
        for (arg, t_all, card) in &observations {
            dcsm.record(
                &GroundCall::new("d", "f", vec![Value::Int(*arg)]),
                Some(t_all / 2.0),
                Some(*t_all),
                Some(*card),
                SimInstant::EPOCH,
            );
        }
        let shape = hermes::common::PatternShape::new("d", "f", vec![true]);
        let table = SummaryTable::summarize(dcsm.db(), shape);
        for arg in observations.iter().map(|(a, _, _)| *a) {
            let pattern = CallPattern::new("d", "f", vec![PatArg::Const(Value::Int(arg))]);
            let (detail, n) = dcsm.db().aggregate(&pattern);
            let row = table.lookup(&pattern).expect("row exists for observed arg");
            assert!(n > 0);
            assert!((row.t_all.mean().unwrap() - detail.t_all_ms.unwrap()).abs() < 1e-6);
            assert!((row.card.mean().unwrap() - detail.cardinality.unwrap()).abs() < 1e-6);
            assert_eq!(row.l as usize, n);
        }
    });
}

#[test]
fn lossy_derivation_equals_direct_blanket_aggregation() {
    cases("lossy_derivation_equals_blanket", CASES, |r| {
        let n = r.range_usize(2, 40);
        let observations: Vec<(i64, f64)> = (0..n)
            .map(|_| (r.range_i64(0, 6), r.range_f64(0.1, 100.0)))
            .collect();
        let mut dcsm = Dcsm::new();
        for (arg, t_all) in &observations {
            dcsm.record(
                &GroundCall::new("d", "f", vec![Value::Int(*arg)]),
                None,
                Some(*t_all),
                Some(1.0),
                SimInstant::EPOCH,
            );
        }
        let shape = hermes::common::PatternShape::new("d", "f", vec![false]);
        let lossy = SummaryTable::summarize(dcsm.db(), shape);
        let blanket = CallPattern::new("d", "f", vec![PatArg::Bound]);
        let (detail, _) = dcsm.db().aggregate(&blanket);
        let row = lossy.lookup(&blanket).unwrap();
        assert_eq!(
            row.t_all.mean().map(f64::to_bits),
            detail.t_all_ms.map(f64::to_bits)
        );
    });
}

// ---------- persistence round-trips ----------

/// What a text format has to escape and `==` cannot see: separators,
/// escapes, the empty string, non-ASCII; NaN payloads, `-0.0`, ±∞.
const AWKWARD_STRINGS: [&str; 6] = ["\t", "a\tb\r\n\\", "", "é—λ\n", ";:S5:", "\\n"];
const AWKWARD_FLOATS: [u64; 5] = [
    0x7ff8_0000_0000_beef,
    0xfff8_0000_0000_0001,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
];

fn awkward_value(r: &mut Rng64) -> Value {
    match r.range_usize(0, 3) {
        0 => Value::str(*r.pick(&AWKWARD_STRINGS)),
        1 => Value::Float(f64::from_bits(*r.pick(&AWKWARD_FLOATS))),
        _ => value(r),
    }
}

fn awkward_call(r: &mut Rng64) -> GroundCall {
    let args: Vec<Value> = (0..r.range_usize(1, 4)).map(|_| awkward_value(r)).collect();
    GroundCall::new(ident(r), ident(r), args)
}

/// The encoded bytes of `values`: equal exactly when the values are equal
/// bit for bit (`Value`'s own equality folds NaNs and signed zeros).
fn bits(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        hermes::common::frame::put_value(v, &mut out);
    }
    out
}

/// A state file loads only whole: every proper prefix (record boundaries
/// included) and every extension by one byte is an error.
fn assert_loads_only_whole(file: &[u8], r: &mut Rng64, load: impl Fn(&[u8]) -> bool) {
    assert!(load(file));
    for cut in 0..file.len() {
        assert!(!load(&file[..cut]), "loaded a file cut at {cut}");
    }
    let mut longer = file.to_vec();
    longer.push(r.next_u64() as u8);
    assert!(!load(&longer), "loaded a file with a byte appended");
}

#[test]
fn cache_persistence_roundtrips() {
    cases("cache_persistence_roundtrips", CASES, |r| {
        let n = r.range_usize(0, 12);
        let mut cache = hermes::cim::AnswerCache::new();
        for _ in 0..n {
            let answers: Vec<Value> = (0..r.range_usize(0, 5)).map(|_| awkward_value(r)).collect();
            let at = SimInstant::EPOCH + SimDuration::from_micros(r.range_u64(0, 1 << 40));
            cache.insert(awkward_call(r), answers, r.chance(0.5), at);
        }
        let mut buf = Vec::new();
        hermes::cim::persist::save(&cache, &mut buf).unwrap();
        let mut loaded = hermes::cim::AnswerCache::new();
        hermes::cim::persist::load_into(buf.as_slice(), &mut loaded).unwrap();
        assert_eq!(loaded.len(), cache.len());
        for (call, entry) in cache.iter() {
            let (got_call, got) = loaded
                .iter()
                .find(|(c, _)| *c == call)
                .expect("entry survives");
            assert_eq!(bits(&got_call.args), bits(&call.args));
            assert_eq!(bits(&got.answers), bits(&entry.answers));
            assert_eq!(got.complete, entry.complete);
            assert_eq!(got.inserted_at, entry.inserted_at);
        }
        assert_loads_only_whole(&buf, r, |file| {
            hermes::cim::persist::load_into(file, &mut hermes::cim::AnswerCache::new()).is_ok()
        });
    });
}

#[test]
fn stats_persistence_roundtrips() {
    cases("stats_persistence_roundtrips", CASES, |r| {
        let n = r.range_usize(0, 20);
        let mut db = hermes::dcsm::CostVectorDb::new();
        for _ in 0..n {
            let opt = |r: &mut Rng64, hi: f64| match r.range_usize(0, 3) {
                0 => None,
                1 => Some(f64::from_bits(*r.pick(&AWKWARD_FLOATS))),
                _ => Some(r.range_f64(0.0, hi)),
            };
            let vector = hermes::dcsm::CostVector {
                t_first_ms: opt(r, 1e6),
                t_all_ms: opt(r, 1e6),
                cardinality: opt(r, 1e4),
            };
            let at = SimInstant::EPOCH + SimDuration::from_micros(r.range_u64(0, 1 << 40));
            db.record(awkward_call(r), vector, at);
        }
        let mut buf = Vec::new();
        hermes::dcsm::persist::save(&db, &mut buf).unwrap();
        let loaded = hermes::dcsm::persist::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), db.len());
        let exact = |db: &hermes::dcsm::CostVectorDb| -> Vec<_> {
            (db.functions().iter())
                .flat_map(|(d, f)| db.records_for(d, f))
                .map(|rec| {
                    let v = rec.vector;
                    let components = [v.t_first_ms, v.t_all_ms, v.cardinality];
                    (
                        rec.call.clone(),
                        bits(&rec.call.args),
                        components.map(|c| c.map(f64::to_bits)),
                        rec.recorded_at,
                    )
                })
                .collect()
        };
        assert_eq!(exact(&loaded), exact(&db));
        assert_loads_only_whole(&buf, r, |file| hermes::dcsm::persist::load(file).is_ok());
    });
}

// ---------- binary frame codec (hermes-serve's wire format) ----------

fn query_frame(r: &mut Rng64) -> hermes::QueryFrame {
    let mut q = hermes::QueryFrame::new(lower_string(r, 0, 24));
    if r.chance(0.5) {
        q.limit = Some(r.range_u64(0, 1 << 20));
    }
    if r.chance(0.5) {
        q.deadline_us = Some(r.next_u64() >> 20);
    }
    if r.chance(0.5) {
        q.budget_us = Some(r.next_u64() >> 20);
    }
    if r.chance(0.3) {
        q.tier = Some(lower_string(r, 1, 12));
    }
    q.trace = r.chance(0.5);
    q
}

fn any_frame(r: &mut Rng64) -> hermes::Frame {
    use hermes::Frame;
    match r.range_usize(0, 9) {
        0 => Frame::Query(query_frame(r)),
        1 => Frame::Stats,
        2 => Frame::Ping,
        3 => Frame::Shutdown,
        4 => {
            let rows = r.range_usize(0, 5);
            Frame::Batch(
                (0..rows)
                    .map(|_| {
                        let cols = r.range_usize(0, 4);
                        (0..cols).map(|_| value(r)).collect()
                    })
                    .collect(),
            )
        }
        5 => Frame::Done(hermes::DoneFrame {
            columns: (0..r.range_usize(0, 4)).map(|_| var_name(r)).collect(),
            rows: r.range_u64(0, 1 << 30),
            incomplete: r.chance(0.3),
            elapsed_us: r.next_u64() >> 16,
            source_calls: r.range_u64(0, 1 << 20),
            cache_hits: r.range_u64(0, 1 << 20),
            tier_downgrades: r.range_u64(0, 4),
            trace: (0..r.range_usize(0, 3))
                .map(|_| lower_string(r, 0, 16))
                .collect(),
        }),
        6 => Frame::Error(hermes::ErrorFrame {
            code: lower_string(r, 1, 10),
            message: lower_string(r, 0, 32),
        }),
        7 => Frame::StatsReply(value(r)),
        _ => Frame::Pong,
    }
}

#[test]
fn frame_binary_value_codec_roundtrips_any_value() {
    cases(
        "frame_binary_value_codec_roundtrips_any_value",
        CASES,
        |r| {
            let v = value(r);
            let bytes = hermes::common::frame::value_to_bytes(&v);
            let back = hermes::common::frame::value_from_bytes(&bytes).unwrap();
            assert_eq!(back, v);
        },
    );
}

#[test]
fn any_frame_roundtrips_through_the_stream_codec() {
    cases(
        "any_frame_roundtrips_through_the_stream_codec",
        CASES,
        |r| {
            let frame = any_frame(r);
            let mut decoder = hermes::FrameDecoder::new();
            decoder.feed(&frame.encode());
            let back = decoder
                .next_frame()
                .expect("well-formed frame decodes")
                .expect("the whole frame is buffered");
            assert_eq!(back, frame);
            // Nothing left over: the stream ends between frames.
            assert!(decoder.next_frame().unwrap().is_none());
            assert!(!decoder.mid_frame());
        },
    );
}

/// Corrupting or truncating a valid frame must yield an error (or, for
/// lucky corruptions, a different valid frame) — never a panic, hang,
/// or giant allocation.
#[test]
fn mutated_frames_never_panic_the_decoder() {
    cases("mutated_frames_never_panic_the_decoder", CASES, |r| {
        let mut bytes = any_frame(r).encode();
        match r.range_usize(0, 3) {
            0 => {
                // Flip a few random bytes (possibly in the length prefix).
                for _ in 0..r.range_usize(1, 4) {
                    let i = r.range_usize(0, bytes.len());
                    bytes[i] ^= 1 << r.range_u64(0, 8);
                }
            }
            1 => {
                // Truncate mid-frame.
                let keep = r.range_usize(0, bytes.len());
                bytes.truncate(keep);
            }
            _ => {
                // Pure noise.
                let len = r.range_usize(1, 64);
                bytes = (0..len).map(|_| r.next_u64() as u8).collect();
            }
        }
        let mut decoder = hermes::FrameDecoder::new();
        decoder.feed(&bytes);
        while let Ok(Some(_)) = decoder.next_frame() {} // must return, any Result
    });
}

/// Byte soup into the bare value decoder: errors are fine, panics are not.
#[test]
fn random_bytes_never_panic_the_value_decoder() {
    cases("random_bytes_never_panic_the_value_decoder", CASES, |r| {
        let len = r.range_usize(0, 96);
        let bytes: Vec<u8> = (0..len).map(|_| r.next_u64() as u8).collect();
        let _ = hermes::common::frame::value_from_bytes(&bytes);
    });
}

// ---------- the typed frame codec against the tree codec it replaced ----------

use hermes::common::frame::{put_answer, put_value, spec, MAX_DEPTH, MAX_FRAME_LEN};
use hermes::common::Record;
use hermes::{DoneFrame, ErrorFrame, Frame, QueryFrame};

/// A string, empty now and then, with non-ASCII characters mixed in.
fn text(r: &mut Rng64, max_len: usize) -> String {
    const ODD: [char; 7] = ['é', 'ß', '—', '中', '🦀', '\n', '\0'];
    (0..r.range_usize(0, max_len + 1))
        .map(|_| match r.chance(0.2) {
            true => ODD[r.range_usize(0, ODD.len())],
            false => (b'a' + r.range_u64(0, 26) as u8) as char,
        })
        .collect()
}

/// A count, past `i64::MAX` (which the wire saturates) now and then.
fn wide_u64(r: &mut Rng64) -> u64 {
    match r.range_usize(0, 4) {
        0 => u64::MAX - r.range_u64(0, 3),
        1 => i64::MAX as u64 - 1 + r.range_u64(0, 3),
        _ => r.next_u64() >> r.range_u64(0, 64),
    }
}

fn maybe<T>(r: &mut Rng64, f: impl FnOnce(&mut Rng64) -> T) -> Option<T> {
    r.chance(0.5).then(|| f(r))
}

fn wide_row(r: &mut Rng64) -> Vec<Value> {
    (0..r.range_usize(0, 5))
        .map(|_| match r.chance(0.2) {
            true => Value::str(text(r, 8)),
            false => value(r),
        })
        .collect()
}

fn wide_done(r: &mut Rng64) -> DoneFrame {
    let lines = [0, 1, 3, 40][r.range_usize(0, 4)];
    DoneFrame {
        columns: (0..r.range_usize(0, 4)).map(|_| text(r, 6)).collect(),
        rows: wide_u64(r),
        incomplete: r.chance(0.5),
        elapsed_us: wide_u64(r),
        source_calls: wide_u64(r),
        cache_hits: wide_u64(r),
        tier_downgrades: wide_u64(r),
        trace: (0..lines).map(|_| text(r, 60)).collect(),
    }
}

/// Any frame, over a wider range than `any_frame`: every value variant in
/// rows, empty batches and rows, empty and non-ASCII strings, options set
/// and unset, counts past `i64::MAX` and long trace lists.
fn wide_frame(r: &mut Rng64) -> Frame {
    match r.range_usize(0, 8) {
        0 => Frame::Query(QueryFrame {
            src: text(r, 24),
            limit: maybe(r, wide_u64),
            deadline_us: maybe(r, wide_u64),
            budget_us: maybe(r, wide_u64),
            tier: maybe(r, |r| text(r, 12)),
            trace: r.chance(0.5),
        }),
        1 => Frame::Batch((0..r.range_usize(0, 6)).map(|_| wide_row(r)).collect()),
        2 => Frame::Done(wide_done(r)),
        3 => Frame::Error(ErrorFrame {
            code: text(r, 10),
            message: text(r, 40),
        }),
        _ => any_frame(r),
    }
}

#[test]
fn encode_into_writes_the_tree_codecs_bytes() {
    cases("encode_into_writes_the_tree_codecs_bytes", 512, |r| {
        let frame = wide_frame(r);
        let want = spec::encode(&frame);
        assert_eq!(frame.encode(), want, "{frame:?}");
        // Appending to a buffer that already holds bytes leaves them be.
        let mut buf: Vec<u8> = (0..r.range_usize(0, 9)).map(|i| i as u8).collect();
        let kept = buf.len();
        frame.encode_into(&mut buf);
        assert!(buf[..kept].iter().enumerate().all(|(i, &b)| b == i as u8));
        assert_eq!(buf[kept..], want[..], "{frame:?}");
    });
}

#[test]
fn put_answer_writes_the_tree_codecs_batches_and_done() {
    cases(
        "put_answer_writes_the_tree_codecs_batches_and_done",
        CASES,
        |r| {
            let rows: Vec<Vec<Value>> = (0..r.range_usize(0, 24)).map(|_| wide_row(r)).collect();
            let batch_rows = r.range_usize(0, 8);
            let done = wide_done(r);
            let mut want = Vec::new();
            for chunk in rows.chunks(batch_rows.max(1)) {
                want.extend(spec::encode(&Frame::Batch(chunk.to_vec())));
            }
            want.extend(spec::encode(&Frame::Done(done.clone())));
            let mut got = Vec::new();
            put_answer(&rows, batch_rows, MAX_FRAME_LEN, &done.borrowed(), &mut got).unwrap();
            assert_eq!(got, want);
        },
    );
}

/// Both decoders on one frame body: both refuse it, or both return the
/// same frame.
fn decoders_agree(body: &[u8]) {
    match (Frame::decode_body(body), spec::decode_body(body)) {
        (Ok(typed), Ok(tree)) => assert_eq!(typed, tree, "body {body:?}"),
        (Err(_), Err(_)) => {}
        (typed, tree) => panic!("decoders disagree on {body:?}: typed {typed:?}, tree {tree:?}"),
    }
}

/// A value nested `depth` lists deep, around the decoders' depth bound.
fn nested(depth: usize) -> Value {
    (0..depth).fold(Value::Int(1), |v, _| Value::List(vec![v]))
}

/// `body` with its record's fields reordered, repeated, retyped, dropped
/// or joined by unknown ones (or its batch's rows retyped), re-encoded.
fn reshaped(r: &mut Rng64, body: &[u8]) -> Option<Vec<u8>> {
    let payload = hermes::common::frame::value_from_bytes(&body[1..]).ok()?;
    let shaped = match payload {
        Value::Record(rec) => {
            let mut fields: Vec<(String, Value)> = rec
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect();
            for _ in 0..r.range_usize(1, 4) {
                let at = r.range_usize(0, fields.len() + 1);
                let pick = r.range_usize(0, fields.len().max(1));
                match r.range_usize(0, 6) {
                    0 => {
                        for i in (1..fields.len()).rev() {
                            fields.swap(i, r.range_usize(0, i + 1));
                        }
                    }
                    1 if !fields.is_empty() => {
                        let name = fields[pick].0.clone();
                        fields.insert(at, (name, value(r)));
                    }
                    2 if !fields.is_empty() => fields[pick].1 = value(r),
                    3 if !fields.is_empty() => drop(fields.remove(pick)),
                    4 => fields.insert(at, (text(r, 8), nested(r.range_usize(58, 66)))),
                    _ => fields.insert(at, (text(r, 8), value(r))),
                }
            }
            Value::Record(Record::from_fields(fields))
        }
        Value::List(mut rows) if !rows.is_empty() => {
            let at = r.range_usize(0, rows.len());
            rows[at] = match r.chance(0.5) {
                true => value(r),
                false => nested(r.range_usize(60, 66)),
            };
            Value::List(rows)
        }
        _ => return None,
    };
    let mut out = vec![body[0]];
    put_value(&shaped, &mut out);
    Some(out)
}

#[test]
fn typed_and_tree_decoders_agree_on_frames_and_their_mutations() {
    const { assert!(MAX_DEPTH < 66, "the nested fields straddle the depth bound") };
    cases(
        "typed_and_tree_decoders_agree_on_frames_and_their_mutations",
        CASES,
        |r| {
            let bytes = spec::encode(&wide_frame(r));
            let body = &bytes[4..];
            decoders_agree(body);
            for cut in 0..body.len() {
                decoders_agree(&body[..cut]);
            }
            for i in 0..body.len() {
                let mut flipped = body.to_vec();
                flipped[i] ^= r.range_u64(1, 256) as u8;
                decoders_agree(&flipped);
            }
            let other = spec::encode(&wide_frame(r));
            for _ in 0..8 {
                let head = &body[..r.range_usize(0, body.len() + 1)];
                let tail = &other[4 + r.range_usize(0, other.len() - 3)..];
                decoders_agree(&[head, tail].concat());
            }
            for _ in 0..16 {
                if let Some(reshaped) = reshaped(r, body) {
                    decoders_agree(&reshaped);
                }
            }
        },
    );
}
