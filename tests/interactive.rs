//! Interactive mode is `query`'s walk pulled one answer at a time: on
//! every example program, a drained interactive run answers what `query`
//! answers, in the same order, at the same virtual times, with the same
//! counters — cold and warm.

mod common;

use common::example_world;
use hermes::core::TraceEvent;
use hermes::{parse_program, ExecStats, Mediator, QueryRequest, SimDuration, Value};
use std::path::PathBuf;

/// What one run reports: each row with its elapsed time, `t_all`, and the
/// counters.
type Run = (Vec<(Vec<Value>, SimDuration)>, SimDuration, ExecStats);

fn drained(m: &Mediator, query: &str) -> Run {
    let mut iq = m.query_interactive(query).unwrap();
    let rows = std::iter::from_fn(|| iq.next_answer()).collect();
    let summary = iq.stop();
    assert!(summary.finished, "{query}: {:?}", summary.error);
    (rows, summary.t_all.unwrap(), summary.stats.unwrap())
}

fn queried(m: &mut Mediator, query: &str) -> Run {
    let start = m.now();
    let result = m.query(QueryRequest::new(query).trace(true)).unwrap();
    let stamps: Vec<SimDuration> = result
        .trace
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Answer { .. }))
        .map(|e| e.at.duration_since(start))
        .collect();
    assert_eq!(stamps.len(), result.rows.len(), "{query}");
    let rows = result.rows.into_iter().zip(stamps).collect();
    (rows, result.t_all, result.stats)
}

#[test]
fn a_drained_interactive_run_equals_query_on_every_example_program() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut compared = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/programs exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "hms") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        for form in parse_program(&src).unwrap().declarations.query_forms {
            // A constant at every bound position.
            let args = form.bound.iter().enumerate().map(|(i, bound)| match bound {
                true => format!("{}", 10 + i),
                false => format!("V{i}"),
            });
            let query = format!("?- {}({}).", form.pred, args.collect::<Vec<_>>().join(", "));
            let mut pulled = example_world(&src);
            let mut reference = example_world(&src);
            for pass in ["cold", "warm"] {
                let want = queried(&mut reference, &query);
                let got = drained(&pulled, &query);
                assert_eq!(got, want, "{query} ({pass})");
                // An interactive run leaves the mediator's clock alone;
                // move it on as `query` moved the reference's.
                pulled.advance_clock(got.1);
                assert_eq!(pulled.now(), reference.now(), "{query} ({pass})");
                compared += 1;
            }
        }
    }
    assert!(compared >= 20, "only {compared} runs compared");
}
