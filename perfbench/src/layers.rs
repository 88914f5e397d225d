//! Per-operation layer timers: each times a batch of calls into one
//! layer's public functions on the *live* shared state of the run — the
//! long-lived CIM and DCSM shards, real frames of the workload's mix.
//!
//! `benches/micro.rs` built a fresh `Cim` inside every timed "lookup" and
//! so timed its teardown too. [`time_per_op`] makes that mistake
//! impossible to repeat: subjects are built before the clock starts, and
//! both they and every result are dropped after it stops.

use hermes_cim::{CimResolution, CimView};
use hermes_common::{DoneFrame, Frame, FrameDecoder, GroundCall, QueryFrame, SimInstant, Value};
use hermes_core::ConcurrentMediator;
use hermes_dcsm::{CostSource, DcsmView};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::world::{Keys, HOT_RELATIONS, SITES};

/// Mean nanoseconds per `op` over `subjects`. Nothing but the calls (and
/// parking each result in a pre-sized vector) happens between the two
/// clock reads.
pub fn time_per_op<S, R>(subjects: Vec<S>, mut op: impl FnMut(&S) -> R) -> f64 {
    if subjects.is_empty() {
        return 0.0;
    }
    let mut results = Vec::with_capacity(subjects.len());
    let t0 = Instant::now();
    for subject in &subjects {
        results.push(black_box(op(black_box(subject))));
    }
    let elapsed = t0.elapsed();
    let n = subjects.len() as f64;
    drop(results);
    drop(subjects);
    elapsed.as_nanos() as f64 / n
}

/// One answered query as the wire carries it.
pub struct WireExchange {
    pub text: String,
    pub rows: Vec<Vec<Value>>,
    pub done: DoneFrame,
}

pub struct FrameTimes {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub bytes_per_row: f64,
}

/// Encodes and decodes the request and response frames of real
/// exchanges through `Frame::encode` / `FrameDecoder`.
pub fn time_frames(exchanges: &[WireExchange]) -> FrameTimes {
    let mut frames = Vec::new();
    let mut response_bytes = 0usize;
    let mut rows = 0usize;
    for x in exchanges {
        frames.push(Frame::Query(QueryFrame::new(x.text.clone())));
        let batch = Frame::Batch(x.rows.clone());
        let done = Frame::Done(x.done.clone());
        response_bytes += batch.encode().len() + done.encode().len();
        rows += x.rows.len();
        if !x.rows.is_empty() {
            frames.push(batch);
        }
        frames.push(done);
    }
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode_ns_per_frame = time_per_op(frames, Frame::encode);
    let decode_ns_per_frame = time_per_op(encoded, |bytes| {
        let mut decoder = FrameDecoder::new();
        decoder.feed(bytes);
        decoder.next_frame()
    });
    FrameTimes {
        encode_ns_per_frame,
        decode_ns_per_frame,
        bytes_per_row: response_bytes as f64 / rows.max(1) as f64,
    }
}

pub struct CacheTimes {
    pub lookup_ns_exact: f64,
    pub lookup_ns_miss: f64,
    pub store_ns: f64,
    pub invalidate_us: f64,
    pub dcsm_estimate_ns: f64,
    pub dcsm_record_ns: f64,
}

/// Entries stored (and then invalidated in one sweep) by the store timer.
const SCRATCH_ENTRIES: usize = 1024;
/// A function no rule calls, so scratch entries never answer a query.
const SCRATCH_FUNCTION: &str = "bench_scratch_bf";

/// Every point call the world's rules can make for `keys`.
fn point_calls(keys: &Keys) -> Vec<GroundCall> {
    let unquote = |k: &String| Value::str(k.trim_matches('\''));
    let mut calls = Vec::new();
    for (s, site) in SITES.iter().enumerate() {
        for (r, rel) in HOT_RELATIONS.iter().enumerate() {
            for k in &keys.hot[s][r] {
                calls.push(GroundCall::new(
                    *site,
                    format!("{rel}_bf"),
                    vec![unquote(k)],
                ));
            }
        }
        for k in keys.cold[s].iter().take(512) {
            calls.push(GroundCall::new(*site, "cold_bf", vec![unquote(k)]));
        }
    }
    calls
}

/// Times CIM lookups (exact hit and miss), stores and one invalidation
/// sweep through `CimView` on `cm`'s own shards, and DCSM estimates and
/// records through its `DcsmView`. Run it last: the probes count as
/// lookups in the CIM's statistics.
pub fn time_caches(cm: &ConcurrentMediator, keys: &Keys) -> CacheTimes {
    let cim: &dyn CimView = cm.cim();
    let now = cm.now();

    // Which real calls are cached right now is the run's business;
    // partition by asking once, untimed.
    let calls = point_calls(keys);
    let cached: Vec<GroundCall> = calls
        .iter()
        .filter(|c| matches!(cim.lookup(c, now).0, CimResolution::ExactHit { .. }))
        .cloned()
        .collect();
    let absent: Vec<GroundCall> = calls
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let key = Value::str(format!("no_such_key_{i}"));
            GroundCall::new(c.domain.clone(), c.function.clone(), vec![key])
        })
        .collect();
    let patterns: Vec<_> = calls.iter().map(GroundCall::pattern).collect();

    let lookup_ns_exact = time_per_op(cached, |c| cim.lookup(c, now));
    let lookup_ns_miss = time_per_op(absent, |c| cim.lookup(c, now));

    let answers: Arc<[Value]> = vec![Value::Int(1), Value::Int(2), Value::Int(3)].into();
    let scratch: Vec<GroundCall> = (0..SCRATCH_ENTRIES)
        .map(|i| GroundCall::new("d0", SCRATCH_FUNCTION, vec![Value::Int(i as i64)]))
        .collect();
    let store_ns = time_per_op(scratch.clone(), |c| {
        cim.store(c.clone(), answers.clone(), true, now)
    });
    let invalidate_us = time_per_op(vec![()], |_| {
        cm.caches().invalidate_source("d0", SCRATCH_FUNCTION)
    }) / 1e3;

    let dcsm_estimate_ns = time_per_op(patterns, |p| cm.dcsm().cost(p));
    let dcsm_record_ns = time_per_op(scratch, |c| {
        cm.dcsm()
            .record(c, Some(1.0), Some(2.0), Some(3.0), SimInstant::EPOCH)
    });

    CacheTimes {
        lookup_ns_exact,
        lookup_ns_miss,
        store_ns,
        invalidate_us,
        dcsm_estimate_ns,
        dcsm_record_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{World, WorldConfig, SHARDS};
    use std::time::Duration;

    /// A subject that is slow to build and slow to drop.
    struct Costly(u64);

    impl Costly {
        fn new(v: u64) -> Costly {
            std::thread::sleep(Duration::from_millis(3));
            Costly(v)
        }
    }

    impl Drop for Costly {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(3));
        }
    }

    #[test]
    fn timer_excludes_set_up_and_teardown_of_its_subject() {
        // Building and dropping each subject (and each result) costs 3 ms;
        // the operation itself is a field read. A timer that let either
        // inside its span would read milliseconds per op.
        let subjects: Vec<Costly> = (0..8).map(Costly::new).collect();
        let ns = time_per_op(subjects, |c| Costly(c.0 + 1));
        assert!(
            ns < 200_000.0,
            "timer included set-up or teardown: {ns} ns/op"
        );
        assert_eq!(time_per_op(Vec::<u8>::new(), |b| *b), 0.0);
    }

    #[test]
    fn frame_timer_counts_real_bytes() {
        let exchanges = vec![WireExchange {
            text: "?- d0_ra('ra_1', B).".into(),
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            done: DoneFrame {
                columns: vec!["B".into()],
                rows: 2,
                ..DoneFrame::default()
            },
        }];
        let t = time_frames(&exchanges);
        assert!(t.encode_ns_per_frame > 0.0 && t.decode_ns_per_frame > 0.0);
        assert!(t.bytes_per_row > 4.0);
    }

    #[test]
    fn cache_timers_run_on_live_shards_and_leave_no_scratch_behind() {
        let mut world = World::build(&WorldConfig::cached(false, false));
        world.train();
        let keys = world.keys.clone();
        let cm = world.mediator.to_concurrent(SHARDS);
        for k in 0..8 {
            cm.query(keys.point(0, 0, k)).unwrap();
        }
        let entries = cm.cim().len();
        let records = cm.dcsm().records();
        let t = time_caches(&cm, &keys);
        assert!(t.lookup_ns_exact > 0.0, "no cached call was found to probe");
        assert!(t.lookup_ns_miss > 0.0 && t.store_ns > 0.0 && t.invalidate_us > 0.0);
        assert!(t.dcsm_estimate_ns > 0.0 && t.dcsm_record_ns > 0.0);
        assert_eq!(cm.cim().len(), entries, "scratch entries were invalidated");
        assert_eq!(cm.dcsm().records(), records + SCRATCH_ENTRIES);
    }
}
