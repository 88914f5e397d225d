//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each is expected to move. `list`, `compare`, the envelope and
//! `BENCHMARK.json` are all generated from these tables.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far an end-to-end metric may worsen before `compare` says `worse`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the base run's median.
    Ratio(f64),
    /// Any move in the worse direction at all (counts that repeat).
    Exact,
}

impl Bound {
    pub fn ratio(self) -> f64 {
        match self {
            Bound::Ratio(r) => r,
            Bound::Exact => 0.0,
        }
    }

    pub fn describe(self) -> String {
        match self {
            Bound::Ratio(r) => format!("{r}"),
            Bound::Exact => "exact".to_string(),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Loop type, clients and window, for `list` and the README.
    pub shape: &'static str,
    pub why: &'static str,
}

pub const WIRE_WARM_POINT: &str = "wire_warm_point";
pub const INPROC_PLAN_JOIN: &str = "inproc_plan_join";
pub const WIRE_COLD_CHURN: &str = "wire_cold_churn";
pub const WIRE_OPEN_MIXED: &str = "wire_open_mixed";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: WIRE_WARM_POINT,
        shape: "closed loop, 2 connections, depth 1, wall clock",
        why: "Warm point queries over loopback: sources and planning do almost nothing, so \
              core.serve hand-offs, framing and per-request parse/enumerate are the whole latency.",
    },
    Workload {
        name: INPROC_PLAN_JOIN,
        shape: "in-process ConcurrentMediator::query, 1 thread, simulated clock, cold-start rounds",
        why: "Star joins, actors and mirror points with no wire: core.rewrite and core.cost do most \
              of the work and the CIM invariant paths carry traffic; counts repeat exactly per seed.",
    },
    Workload {
        name: WIRE_COLD_CHURN,
        shape: "closed loop, 2 connections x pipeline depth 4, 2 ms sources, wall clock",
        why: "Uniform cold points under a small answer budget with rotating invalidation: the cache \
              layers store, evict and invalidate beside reads, and source wait owns the latency.",
    },
    Workload {
        name: WIRE_OPEN_MIXED,
        shape: "open loop, 2 connections, ladder of 4 fixed rates, latency from the due instant",
        why: "Independent users: 85% warm point, 10% warm star2, 5% cold point on a schedule, so \
              queueing, head-of-line blocking behind misses and the highest passing rate show.",
    },
];

/// The open-loop ladder of `wire_open_mixed`, queries per second over
/// both connections. The reference rung (where `qps` and `lat_*` are
/// read) is the second from the bottom.
pub const LADDER_QPS: [u32; 4] = [1000, 2000, 4000, 16000];
pub const REFERENCE_RUNG: usize = 1;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Workloads the metric is defined on; empty means all four.
    pub workloads: &'static [&'static str],
    /// Whether `BENCHMARK.json` lists it under `end_to_end`. The driver's
    /// schema takes only metrics that every workload reports, that are
    /// never 0, and whose run-to-run spread fits a bound of at most 0.25;
    /// the others ride under `per_layer` with the same names (see
    /// [`per_layer`]).
    pub driver: bool,
    pub note: &'static str,
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Ratio(0.25),
        workloads: &[],
        driver: true,
        note: "world build + program registration/analysis + DCSM training + cache warm + bind; \
               median of five set-ups; oracle time excluded (load.oracle_s)",
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Ratio(0.25),
        workloads: &[],
        driver: true,
        note: "correct answers per second, median over ten sub-windows (wire_open_mixed: at the \
               reference rung, where it is the offered rate)",
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Ratio(0.25),
        workloads: &[],
        driver: true,
        note: "client-observed median, median over ten sub-windows; inproc_plan_join: per query() call",
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Ratio(0.25),
        workloads: &[],
        driver: false,
        note: "median over ten equal sub-windows of the per-window p99. Its run-to-run spread on \
               wire_warm_point reaches 0.26 on a shared VM, past the largest bound the driver's \
               schema allows, so BENCHMARK.json carries it under per_layer",
    },
    EndToEnd {
        name: "cpu_us_per_query",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Ratio(0.25),
        workloads: &[],
        driver: true,
        note: "process user+sys over the window / queries; covers server + load generator \
               (wire_open_mixed: over the whole ladder)",
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Ratio(0.20),
        workloads: &[],
        driver: true,
        note: "VmHWM of the workload's own process",
    },
    EndToEnd {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Exact,
        workloads: &[],
        driver: false,
        note: "(errors + sheds + transport errors + oracle mismatches) / attempted",
    },
    EndToEnd {
        name: "source_calls_per_kq",
        unit: "count/kq",
        better: Better::Lower,
        bound: Bound::Ratio(0.05),
        workloads: &[],
        driver: false,
        note: "load imposed on the autonomous sources (the paper's Fig. 5 quantity); \
               must be 0 on wire_warm_point, repeats exactly on inproc_plan_join",
    },
    EndToEnd {
        name: "virt_t_all_ms_mean",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Ratio(0.01),
        workloads: &[INPROC_PLAN_JOIN],
        driver: false,
        note: "mean simulated time-to-all-answers of the executed plans, first round; exact per seed",
    },
    EndToEnd {
        name: "max_ok_rate_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Exact,
        workloads: &[WIRE_OPEN_MIXED],
        driver: false,
        note: "highest ladder rung meeting the limit (p99 <= 10 ms, fail_ratio <= 0.001, no growing backlog)",
    },
];

#[derive(Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The product module the metric belongs to.
    pub layer: &'static str,
}

/// What each layer's metrics are expected to move, per the issue's
/// interaction table. Printed by `list` and kept in the README.
pub const SHOULD_MOVE: [(&str, &str); 15] = [
    ("common.frame", "cpu_us_per_query on wire_warm_point, max_ok_rate_qps on wire_open_mixed; <= 2% of wire_warm_point lat_p50_us"),
    ("core.serve", "wire_warm_point lat_p50_us/lat_p99_us (most of it), wire_open_mixed lat_* and max_ok_rate_qps; nothing on inproc_plan_join"),
    ("core.server", "wire_open_mixed lat_p99_us and fail_ratio; wire_cold_churn qps"),
    ("lang", "inproc_plan_join lat_p50_us (~1%), wire_warm_point cpu_us_per_query"),
    ("core.rewrite", "inproc_plan_join lat_p50_us/qps (most of it), cpu_us_per_query on wire_warm_point/wire_open_mixed; none on wire_cold_churn"),
    ("core.cost+dcsm", "inproc_plan_join lat_p50_us and virt_t_all_ms_mean (plan choice); wire_cold_churn cpu_us_per_query via record"),
    ("core.exec", "inproc_plan_join lat_p50_us and virt_t_all_ms_mean"),
    ("cim", "ratios -> source_calls_per_kq and virt_t_all_ms_mean on inproc_plan_join, source_calls_per_kq/qps on wire_cold_churn; store/evict/invalidate time -> wire_cold_churn cpu_us_per_query; lookup time -> cpu_us_per_query on the warm workloads"),
    ("core.matcache", "wire_cold_churn source_calls_per_kq and lat_p50_us"),
    ("core.flight", "source_calls_per_kq on wire_cold_churn and wire_open_mixed"),
    ("net+domains", "wire_cold_churn lat_p50_us/qps (most of it), wire_open_mixed lat_p99_us"),
    ("analysis", "setup_s only"),
    ("load", "none: they say whether the run may be believed"),
    ("trace", "none: they say whether the stage breakdown may be believed"),
    (CARRIED, "end-to-end metrics the driver's schema cannot carry (may be 0, one workload only, or too noisy for a 0.25 bound); rules as in `list`"),
];

macro_rules! layers {
    ($($layer:literal: [$(($name:literal, $unit:literal, $better:ident)),* $(,)?]),* $(,)?) => {
        const LAYERS: &[Layer] = &[
            $($(Layer { name: $name, unit: $unit, better: Better::$better, layer: $layer },)*)*
        ];
    };
}

layers! {
    "common.frame": [
        ("frame.encode_ns_per_frame", "ns", Lower),
        ("frame.decode_ns_per_frame", "ns", Lower),
        ("frame.bytes_per_row", "B", Lower),
    ],
    "core.serve": [
        ("serve.wire_self_us_p50", "us", Lower),
        ("serve.ping_rtt_us_p50", "us", Lower),
        ("serve.requests", "count", Higher),
        ("serve.pre_gate_shed", "count", Lower),
        ("serve.refused", "count", Lower),
        ("serve.evicted", "count", Lower),
        ("serve.bad_frames", "count", Lower),
        ("serve.shed_pipeline_full", "count", Lower),
        ("serve.shed_worker_queue_full", "count", Lower),
    ],
    "core.server": [
        ("server.elapsed_us_p50", "us", Lower),
        ("server.admitted", "count", Higher),
        ("server.shed", "count", Lower),
        ("server.downgraded", "count", Lower),
        ("server.cim_lock_contention", "count", Lower),
        ("server.dcsm_lock_contention", "count", Lower),
    ],
    "lang": [
        ("lang.parse_us", "us", Lower),
    ],
    "core.rewrite": [
        ("rewrite.enumerate_us", "us", Lower),
        ("rewrite.plans_per_query", "count", Lower),
    ],
    "core.cost+dcsm": [
        ("cost.choose_us", "us", Lower),
        ("cost.estimate_us_per_plan", "us", Lower),
        ("dcsm.estimate_ns", "ns", Lower),
        ("dcsm.record_ns", "ns", Lower),
        ("dcsm.records", "count", Lower),
    ],
    "core.exec": [
        ("exec.run_us", "us", Lower),
        ("exec.calls_attempted_per_query", "count", Lower),
        ("exec.memo_hits", "count", Higher),
        ("exec.virt_t_first_ms_mean", "ms", Lower),
    ],
    "cim": [
        ("cim.lookup_ns_exact", "ns", Lower),
        ("cim.lookup_ns_miss", "ns", Lower),
        ("cim.store_ns", "ns", Lower),
        ("cim.invalidate_us", "us", Lower),
        ("cim.exact_ratio", "ratio", Higher),
        ("cim.equal_ratio", "ratio", Higher),
        ("cim.partial_ratio", "ratio", Higher),
        ("cim.miss_ratio", "ratio", Lower),
        ("cim.evictions", "count", Lower),
        ("cim.bytes_shared", "B", Higher),
        ("cim.bytes_copied", "B", Lower),
    ],
    "core.matcache": [
        ("matcache.hits", "count", Higher),
        ("matcache.materialized", "count", Higher),
        ("matcache.rejections", "count", Lower),
        ("matcache.invalidated", "count", Lower),
    ],
    "core.flight": [
        ("flight.calls_coalesced", "count", Higher),
        ("flight.round_trips_saved", "count", Higher),
    ],
    "net+domains": [
        ("net.source_calls", "count", Lower),
        ("net.source_wait_us_per_call", "us", Lower),
        ("net.bytes", "B", Lower),
    ],
    "analysis": [
        ("analysis.register_ms", "ms", Lower),
    ],
    "load": [
        ("load.late_ratio", "ratio", Lower),
        ("load.backlog_max", "count", Lower),
        ("load.r1000.lat_p99_us", "us", Lower),
        ("load.r2000.lat_p99_us", "us", Lower),
        ("load.r4000.lat_p99_us", "us", Lower),
        ("load.r16000.lat_p99_us", "us", Lower),
        ("load.p99_window_spread", "ratio", Lower),
        ("load.oracle_s", "s", Lower),
    ],
    "trace": [
        ("trace.stage_sum_ratio", "ratio", Higher),
        ("trace.overhead_ratio", "ratio", Lower),
    ],
}

/// The pseudo-layer of the end-to-end metrics `BENCHMARK.json` carries
/// under `per_layer`.
pub const CARRIED: &str = "end-to-end";

/// Every metric a traced run may report: the layers' own, then the
/// end-to-end metrics the driver's schema cannot carry as such.
pub fn per_layer() -> impl Iterator<Item = Layer> {
    let carried = END_TO_END.iter().filter(|m| !m.driver).map(|m| Layer {
        name: m.name,
        unit: m.unit,
        better: m.better,
        layer: CARRIED,
    });
    LAYERS.iter().copied().chain(carried)
}

/// The per-rung p99 metric name of a ladder rate.
pub fn rung_metric(rate_qps: u32) -> String {
    format!("load.r{rate_qps}.lat_p99_us")
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_driver_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().filter(|m| m.driver) {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound.ratio() > 0.0 && m.bound.ratio() <= 0.25);
        }
        for l in per_layer() {
            assert!(name_ok(l.name) && seen.insert(l.name), "{}", l.name);
            assert!(unit_ok(l.unit), "{}", l.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(per_layer().count() <= 128);
    }

    #[test]
    fn every_layer_has_its_prediction_and_every_rung_its_metric() {
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.driver));
        for l in per_layer() {
            assert!(
                SHOULD_MOVE.iter().any(|(layer, _)| *layer == l.layer),
                "{}",
                l.layer
            );
        }
        for rate in LADDER_QPS {
            assert!(per_layer().any(|l| l.name == rung_metric(rate)));
        }
    }
}
