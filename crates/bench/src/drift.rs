//! Recency-weighting ablation (§6.2's closing remark: "it is possible to
//! perform the summaries in a more biased fashion … by giving precedence
//! to more recent statistics. Currently we are exploring these
//! possibilities.") — we built it, so we measure it.
//!
//! Setup: a source whose effective service time *drifts* over virtual time
//! (a strong diurnal load curve on its link). Two DCSMs observe the same
//! call stream — one with plain averages (the paper's default), one with
//! exponential recency decay — and both keep predicting the next call's
//! `T_all`. Under drift, the decayed estimator should track the moving
//! level; with a flat network the two should be indistinguishable.

use crate::table::TextTable;
use hermes_common::{GroundCall, SimClock, SimDuration, Value};
use hermes_dcsm::{Dcsm, DcsmConfig};
use hermes_domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes_net::{Network, Site};
use std::sync::Arc;

/// One ablation row.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// Load-curve amplitude of the link (0 = flat).
    pub load_amplitude: f64,
    /// Mean relative prediction error with plain averaging.
    pub plain_error: f64,
    /// Mean relative prediction error with recency decay.
    pub decayed_error: f64,
}

fn drifting_site(amplitude: f64) -> Site {
    Site::new(
        "drifty",
        "USA",
        hermes_net::LinkModel {
            connect_ms: 300.0,
            rtt_ms: 60.0,
            jitter_frac: 0.05,
            bytes_per_ms: 50.0,
            load_amplitude: amplitude,
            // One full load cycle per simulated hour.
            load_period_ms: 3_600_000.0,
            failure_rate: 0.0,
        },
    )
}

/// Runs the ablation for each load amplitude.
pub fn run(seed: u64, amplitudes: &[f64]) -> Vec<DriftRow> {
    amplitudes
        .iter()
        .map(|&amp| {
            let domain =
                SyntheticDomain::generate("src", seed, &[RelationSpec::uniform("r", 40, 3.0)]);
            let values = domain.domain_values("r");
            let mut net = Network::new(seed);
            net.place(Arc::new(domain), drifting_site(amp));

            let mut plain = Dcsm::new();
            let mut decayed = Dcsm::with_config(DcsmConfig {
                keep_detail: false,
                recency_decay: Some(0.85),
                ..DcsmConfig::default()
            });
            // Both predict through the blanket pattern (steady-state
            // operation after summarization). The decayed DCSM keeps no
            // detail, so its blanket table is built empty and filled by
            // online updates.
            let blanket_pattern =
                GroundCall::new("src", "r_bf", vec![Value::str("x")]).blanket_pattern();
            decayed.build_table(blanket_pattern.shape());

            let mut clock = SimClock::new();
            let mut rng = hermes_common::Rng64::new(seed ^ 0x0D21F7);
            let mut plain_err = 0.0;
            let mut decayed_err = 0.0;
            let mut measured = 0usize;
            // 240 calls spread over ~4 simulated hours: the load level
            // moves several times within the window.
            for i in 0..240 {
                clock.advance(SimDuration::from_secs(60));
                let arg = rng.pick(&values).clone();
                let call = GroundCall::new("src", "r_bf", vec![arg]);
                let outcome = net.execute(&call, clock.now()).expect("call runs");
                let actual = outcome.t_all.as_millis_f64();
                // Predict before folding the observation in; skip the
                // cold-start phase.
                if i >= 20 {
                    let p = plain.cost(&blanket_pattern).t_all_ms();
                    let d = decayed.cost(&blanket_pattern).t_all_ms();
                    plain_err += (p - actual).abs() / actual;
                    decayed_err += (d - actual).abs() / actual;
                    measured += 1;
                }
                plain.record(
                    &call,
                    None,
                    Some(actual),
                    Some(outcome.cardinality() as f64),
                    clock.now(),
                );
                decayed.record(
                    &call,
                    None,
                    Some(actual),
                    Some(outcome.cardinality() as f64),
                    clock.now(),
                );
            }
            // The decayed DCSM has no detail, so make sure its blanket
            // table really answered (otherwise the comparison is void).
            debug_assert!(decayed.table_count() == 1);
            DriftRow {
                load_amplitude: amp,
                plain_error: plain_err / measured as f64,
                decayed_error: decayed_err / measured as f64,
            }
        })
        .collect()
}

/// Renders the ablation table.
pub fn render(rows: &[DriftRow]) -> String {
    let mut t = TextTable::new([
        "Load amplitude",
        "Plain-average error",
        "Recency-decayed error",
        "Winner",
    ]);
    for r in rows {
        let winner = if r.decayed_error < r.plain_error * 0.95 {
            "decayed"
        } else if r.plain_error < r.decayed_error * 0.95 {
            "plain"
        } else {
            "tie"
        };
        t.row([
            format!("{:.1}", r.load_amplitude),
            format!("{:.3}", r.plain_error),
            format!("{:.3}", r.decayed_error),
            winner.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_wins_under_drift_and_ties_when_flat() {
        let rows = run(11, &[0.0, 3.0]);
        let flat = &rows[0];
        let drifting = &rows[1];
        // Under heavy drift the decayed estimator must beat plain
        // averaging...
        assert!(
            drifting.decayed_error < drifting.plain_error,
            "drift: decayed {} vs plain {}",
            drifting.decayed_error,
            drifting.plain_error
        );
        // ... and on a flat network it must not be much worse.
        assert!(
            flat.decayed_error < flat.plain_error + 0.15,
            "flat: decayed {} vs plain {}",
            flat.decayed_error,
            flat.plain_error
        );
    }
}
