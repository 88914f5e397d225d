//! The §6.2 summarization tradeoffs: storage, lookup work, and estimation
//! error as the statistics cache is compacted from full detail down to a
//! single blanket row per call — across argument-popularity skews.
//!
//! Levels:
//!
//! * **detail** — the raw cost vector database, aggregated per query (the
//!   "expensive aggregation" baseline);
//! * **lossless** — one summary row per distinct argument vector;
//! * **lossy(keep-video)** — drop the frame-range dimensions, keep the
//!   video name (what [`droppable_dimensions`] suggests when only the
//!   video name can be a planning-time constant);
//! * **blanket** — a single row per function.
//!
//! The probe set mixes previously-seen calls and unseen calls; error is
//! measured against fresh executions of each probe.
//!
//! [`droppable_dimensions`]: hermes_dcsm::droppable_dimensions

use crate::table::TextTable;
use hermes_common::rng::ZipfSampler;
use hermes_common::{GroundCall, PatternShape, Rng64, SimInstant, Value};
use hermes_dcsm::Dcsm;
use hermes_domains::video::gen::random_store;
use hermes_domains::Domain;

/// One summarization level's aggregate metrics.
#[derive(Clone, Debug)]
pub struct LevelResult {
    /// Level label.
    pub level: &'static str,
    /// Zipf skew of the training workload.
    pub skew: f64,
    /// Approximate storage, bytes.
    pub storage_bytes: usize,
    /// Mean rows/records examined per estimate.
    pub mean_lookup_work: f64,
    /// Mean relative error of `T_all` estimates vs fresh executions.
    pub mean_rel_error: f64,
}

/// A training/probe workload over the random video store.
struct Workload {
    calls: Vec<GroundCall>,
    probes: Vec<GroundCall>,
}

fn workload(seed: u64, skew: f64, n_train: usize, n_probe: usize) -> Workload {
    let mut rng = Rng64::new(seed);
    // Popular windows follow a Zipf over a window catalog.
    let windows: Vec<(u64, u64)> = (0..50)
        .map(|_| {
            let first = rng.range_u64(0, 1_500);
            let len = rng.range_u64(20, 400);
            (first, first + len)
        })
        .collect();
    let sampler = ZipfSampler::new(windows.len(), skew);
    let gen_call = |rng: &mut Rng64| {
        let vid = format!("video_{}", rng.range_usize(0, 4));
        let (f, l) = windows[sampler.sample(rng)];
        GroundCall::new(
            "video",
            "frames_to_objects",
            vec![Value::str(vid), Value::Int(f as i64), Value::Int(l as i64)],
        )
    };
    let calls: Vec<GroundCall> = (0..n_train).map(|_| gen_call(&mut rng)).collect();
    // Probes: half re-draws from the same distribution, half fresh windows.
    let mut probes: Vec<GroundCall> = (0..n_probe / 2).map(|_| gen_call(&mut rng)).collect();
    for _ in 0..(n_probe - probes.len()) {
        let vid = format!("video_{}", rng.range_usize(0, 4));
        let f = rng.range_u64(0, 1_500);
        let l = f + rng.range_u64(20, 400);
        probes.push(GroundCall::new(
            "video",
            "frames_to_objects",
            vec![Value::str(vid), Value::Int(f as i64), Value::Int(l as i64)],
        ));
    }
    Workload { calls, probes }
}

/// Runs the sweep for the given skews.
pub fn run(seed: u64, skews: &[f64]) -> Vec<LevelResult> {
    let store = random_store(seed, 4, 40, 2_000);
    let mut out = Vec::new();
    for &skew in skews {
        let w = workload(seed ^ 0x51EC, skew, 1_500, 60);

        // Ground truth for training calls and probes: the store's own
        // compute cost (we measure estimation quality, so no network noise).
        let exec = |call: &GroundCall| -> (f64, f64) {
            let outcome = store.call(&call.function, &call.args).expect("call runs");
            (
                outcome.compute.t_all.as_millis_f64(),
                outcome.answers.len() as f64,
            )
        };

        // Master detail DCSM.
        let mut master = Dcsm::new();
        for c in &w.calls {
            let (t_all, card) = exec(c);
            master.record(
                c,
                Some(t_all / 3.0),
                Some(t_all),
                Some(card),
                SimInstant::EPOCH,
            );
        }

        let truth: Vec<f64> = w.probes.iter().map(|c| exec(c).0).collect();

        // Level builders.
        let detail = || {
            let mut d = Dcsm::new();
            for c in &w.calls {
                let (t_all, card) = exec(c);
                d.record(
                    c,
                    Some(t_all / 3.0),
                    Some(t_all),
                    Some(card),
                    SimInstant::EPOCH,
                );
            }
            d
        };
        // Every summarized level also keeps the (tiny) blanket table so
        // unseen argument vectors relax to the global mean instead of the
        // prior — what a real deployment does.
        let with_tables = |dims: [bool; 3]| {
            let mut d = detail();
            for dims in [dims, [false; 3]] {
                let shape = PatternShape::new("video", "frames_to_objects", dims.to_vec());
                d.build_table(shape);
            }
            d.drop_detail("video", "frames_to_objects");
            d
        };

        let levels: [(&'static str, Dcsm); 4] = [
            ("detail", detail()),
            ("lossless", with_tables([true; 3])),
            ("lossy(keep-video)", with_tables([true, false, false])),
            ("blanket", with_tables([false; 3])),
        ];

        for (label, dcsm) in levels {
            let mut work = 0usize;
            let mut err = 0.0;
            for (probe, truth_ms) in w.probes.iter().zip(&truth) {
                let est = dcsm.cost(&probe.pattern());
                work += est.lookup_work;
                err += (est.t_all_ms() - truth_ms).abs() / truth_ms.max(1.0);
            }
            out.push(LevelResult {
                level: label,
                skew,
                storage_bytes: dcsm.approx_bytes(),
                mean_lookup_work: work as f64 / w.probes.len() as f64,
                mean_rel_error: err / w.probes.len() as f64,
            });
        }
    }
    out
}

/// Renders the sweep.
pub fn render(rows: &[LevelResult]) -> String {
    let mut t = TextTable::new([
        "Skew",
        "Level",
        "Storage (bytes)",
        "Mean lookup work",
        "Mean rel. error",
    ]);
    for r in rows {
        t.row([
            format!("{:.1}", r.skew),
            r.level.to_string(),
            r.storage_bytes.to_string(),
            format!("{:.1}", r.mean_lookup_work),
            format!("{:.3}", r.mean_rel_error),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_shrinks_monotonically_with_summarization() {
        let rows = run(5, &[1.0]);
        let get = |level: &str| rows.iter().find(|r| r.level == level).unwrap();
        let detail = get("detail");
        let lossless = get("lossless");
        let keep_video = get("lossy(keep-video)");
        let blanket = get("blanket");
        assert!(detail.storage_bytes > lossless.storage_bytes);
        assert!(lossless.storage_bytes >= keep_video.storage_bytes);
        assert!(keep_video.storage_bytes > blanket.storage_bytes);
    }

    #[test]
    fn summaries_cut_lookup_work_and_errors_grow_gracefully() {
        let rows = run(6, &[1.0]);
        let get = |level: &str| rows.iter().find(|r| r.level == level).unwrap();
        assert!(get("detail").mean_lookup_work > get("lossless").mean_lookup_work);
        // Error grows as dimensions are dropped, but not catastrophically.
        assert!(get("blanket").mean_rel_error >= get("lossless").mean_rel_error * 0.9);
        assert!(get("blanket").mean_rel_error < 5.0);
    }
}
