//! Parallel scheduler speedup: four independent domain calls, one per
//! remote site, executed serially (`max_parallel_calls = 1`, the pinned
//! paper configuration) and overlapped (`parallelism(4)`).
//!
//! The scenario is the best case the scheduler is built for: every call is
//! ground at plan entry, targets a distinct site, and none feeds another,
//! so the serial plan pays the sum of four round trips while the parallel
//! plan pays roughly the slowest one plus dispatch overhead.

use crate::table::{ms, TextTable};
use hermes_cim::CimPolicy;
use hermes_common::Value;
use hermes_core::{Mediator, QueryRequest};
use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes_net::{profiles, Network};
use std::sync::Arc;

/// The four-goal query: one `p_ff()` sweep per site, all entry-ground.
const QUERY: &str = "?- in(A, d1:p_ff()) & in(B, d2:p_ff()) &
                        in(C, d3:p_ff()) & in(D, d4:p_ff()).";

/// Outcome of one serial-vs-parallel comparison.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Parallelism used for the overlapped run.
    pub parallelism: usize,
    /// Simulated ms for all answers, serial run.
    pub serial_ms: f64,
    /// Simulated ms for all answers, overlapped run.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// Independence groups the overlapped run dispatched.
    pub groups: u64,
    /// Calls that ran inside those groups.
    pub overlapped: u64,
    /// Whether the two runs produced the same answer multiset.
    pub answers_match: bool,
    /// Answer count (identical across runs when `answers_match`).
    pub answers: usize,
}

/// Four synthetic domains (`d1`…`d4`), each a tiny relation on its own
/// well-connected site, so the four sweeps cost about the same and the
/// overlap win approaches the slot count.
fn four_site_world(seed: u64) -> Mediator {
    let mut net = Network::new(seed);
    for (i, site) in [
        profiles::maryland(),
        profiles::cornell(),
        profiles::bucknell(),
        profiles::maryland(),
    ]
    .into_iter()
    .enumerate()
    {
        let d = SyntheticDomain::generate(
            format!("d{}", i + 1),
            seed.wrapping_add(i as u64),
            &[RelationSpec::uniform("p", 4, 1.0)],
        );
        net.place(Arc::new(d), site);
    }
    let m = Mediator::from_source("", net).expect("empty program compiles");
    m.caches()
        .policy()
        .routing(CimPolicy::never())
        .apply()
        .unwrap();
    m
}

/// Runs the comparison at `parallelism` slots on a fresh world per run (so
/// neither run warms caches for the other).
pub fn run_at(seed: u64, parallelism: usize) -> SpeedupRow {
    let serial = four_site_world(seed)
        .query(QueryRequest::new(QUERY).parallelism(1))
        .expect("serial run answers");
    let parallel = four_site_world(seed)
        .query(QueryRequest::new(QUERY).parallelism(parallelism))
        .expect("parallel run answers");

    let sorted = |rows: &[Vec<Value>]| {
        let mut rows = rows.to_vec();
        rows.sort();
        rows
    };
    let serial_ms = serial.t_all.as_millis_f64();
    let parallel_ms = parallel.t_all.as_millis_f64();
    SpeedupRow {
        parallelism,
        serial_ms,
        parallel_ms,
        speedup: serial_ms / parallel_ms.max(f64::EPSILON),
        groups: parallel.stats.parallel_groups,
        overlapped: parallel.stats.overlapped_calls,
        answers_match: sorted(&serial.rows) == sorted(&parallel.rows),
        answers: serial.rows.len(),
    }
}

/// The headline comparison: all four calls overlapped.
pub fn run(seed: u64) -> SpeedupRow {
    run_at(seed, 4)
}

/// Renders a slot-count sweep as a table.
pub fn render(rows: &[SpeedupRow]) -> String {
    let mut t = TextTable::new([
        "Slots",
        "Serial All",
        "Parallel All",
        "Speedup",
        "Overlapped",
    ]);
    for r in rows {
        t.row([
            r.parallelism.to_string(),
            ms(r.serial_ms),
            ms(r.parallel_ms),
            format!("{:.2}x", r.speedup),
            format!("{} calls / {} group(s)", r.overlapped, r.groups),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_way_overlap_at_least_doubles_throughput() {
        let row = run(1996);
        assert!(row.answers_match, "answer sets diverge");
        assert!(row.answers > 0, "scenario produced no answers");
        assert!(row.groups >= 1, "no independence group dispatched");
        assert_eq!(row.overlapped, 4, "all four calls should overlap");
        assert!(
            row.speedup >= 2.0,
            "speedup {:.2}x below the 2x bar (serial {:.1}ms, parallel {:.1}ms)",
            row.speedup,
            row.serial_ms,
            row.parallel_ms
        );
    }

    #[test]
    fn speedup_is_monotone_in_slots() {
        let two = run_at(7, 2);
        let four = run_at(7, 4);
        assert!(two.answers_match && four.answers_match);
        assert!(two.parallel_ms <= two.serial_ms);
        assert!(four.parallel_ms <= two.parallel_ms + 1e-9);
    }
}
