//! Figure 5: *Executing Remote Calls with Caching and/or Invariants*.
//!
//! Three AVIS queries over "The Rope", each run under four configurations
//! — no cache; cache only; cache + equality invariant; cache + partial
//! invariant — with the video store hosted at a USA site and at the
//! Italian site. Reported: simulated time to first answer and to all
//! answers, plus answer counts, mirroring the paper's table.
//!
//! Warm-up protocol per configuration (a fresh world per cell):
//!
//! * **no cache** — the query runs cold against the remote source.
//! * **cache only** — the exact query ran once before; the measured run is
//!   an exact cache hit.
//! * **cache + equality inv** — a *replica* of the store (`mirror`, on the
//!   local LAN) answered the same call earlier; the equality invariant
//!   `video:… = mirror:…` lets CIM serve the measured call from that
//!   entry.
//! * **cache + partial inv** — a *narrower* frame range was cached; the
//!   monotone range invariant yields those answers immediately while the
//!   real call completes in parallel.

use crate::scenarios::{frame_range_invariant, mirror_invariant, rope_world, VideoSite};
use crate::table::{ms_opt, TextTable};
use hermes_cim::CimPolicy;

/// The four Figure 5 configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    /// Direct calls, no caching.
    NoCache,
    /// Exact-hit caching only.
    CacheOnly,
    /// Caching plus the replica equality invariant.
    CacheEquality,
    /// Caching plus the monotone-range partial invariant.
    CachePartial,
}

impl Config {
    /// All configurations, in the paper's row order.
    pub const ALL: [Config; 4] = [
        Config::NoCache,
        Config::CacheOnly,
        Config::CacheEquality,
        Config::CachePartial,
    ];

    /// The row label.
    pub fn label(self) -> &'static str {
        match self {
            Config::NoCache => "no cache, no invar.",
            Config::CacheOnly => "cache only",
            Config::CacheEquality => "cache + equality inv.",
            Config::CachePartial => "cache + partial inv.",
        }
    }
}

/// One measured query.
#[derive(Clone, Copy, Debug)]
pub struct QuerySpec {
    /// Display label.
    pub label: &'static str,
    /// The measured query.
    pub query: &'static str,
    /// Warm-up query for `CacheOnly` (the query itself).
    pub warm_exact: &'static str,
    /// Warm-up query for `CacheEquality` (via the mirror replica).
    pub warm_mirror: &'static str,
    /// Warm-up query for `CachePartial` (a narrower range).
    pub warm_narrow: &'static str,
}

/// The three Figure 5 queries.
pub const QUERIES: [QuerySpec; 3] = [
    QuerySpec {
        label: "Find all actors in 'The Rope'",
        query: "?- actors(0, 935, O, A).",
        warm_exact: "?- actors(0, 935, O, A).",
        warm_mirror: "?- mobjs(0, 935, O).",
        warm_narrow: "?- objs(0, 400, O).",
    },
    QuerySpec {
        label: "Objects between frames 4 and 47",
        query: "?- objs(4, 47, O).",
        warm_exact: "?- objs(4, 47, O).",
        warm_mirror: "?- mobjs(4, 47, O).",
        warm_narrow: "?- objs(10, 40, O).",
    },
    QuerySpec {
        label: "Objects between frames 4 and 127",
        query: "?- objs(4, 127, O).",
        warm_exact: "?- objs(4, 127, O).",
        warm_mirror: "?- mobjs(4, 127, O).",
        warm_narrow: "?- objs(10, 40, O).",
    },
];

/// One result row.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Which query.
    pub query: &'static str,
    /// Which configuration.
    pub config: Config,
    /// Where the video store was hosted.
    pub site: VideoSite,
    /// Simulated ms to the first answer.
    pub t_first_ms: f64,
    /// Simulated ms to all answers.
    pub t_all_ms: f64,
    /// Number of answers.
    pub answers: usize,
    /// CIM partial hits during the measured run.
    pub partial_hits: u64,
    /// CIM complete (exact + equality) hits during the measured run.
    pub complete_hits: u64,
}

/// Runs the full Figure 5 grid.
pub fn run(seed: u64) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for spec in QUERIES {
        for site in [VideoSite::Usa, VideoSite::Italy] {
            for config in Config::ALL {
                rows.push(run_cell(seed, spec, site, config));
            }
        }
    }
    rows
}

/// Runs one cell of the grid.
pub fn run_cell(seed: u64, spec: QuerySpec, site: VideoSite, config: Config) -> Fig5Row {
    let policy = match config {
        Config::NoCache => CimPolicy::never(),
        _ => CimPolicy::cache_everything(),
    };
    let m = rope_world(seed, site, policy);
    match config {
        Config::NoCache => {}
        Config::CacheOnly => {
            m.query(spec.warm_exact).expect("warm-up query");
        }
        Config::CacheEquality => {
            m.caches().add_invariant(mirror_invariant()).unwrap();
            m.query(spec.warm_mirror).expect("warm-up query");
        }
        Config::CachePartial => {
            m.caches().add_invariant(frame_range_invariant()).unwrap();
            m.query(spec.warm_narrow).expect("warm-up query");
        }
    }
    let result = m.query(spec.query).expect("measured query");
    Fig5Row {
        query: spec.label,
        config,
        site,
        t_first_ms: result
            .t_first
            .map(|d| d.as_millis_f64())
            .unwrap_or(f64::NAN),
        t_all_ms: result.t_all.as_millis_f64(),
        answers: result.rows.len(),
        partial_hits: result.stats.cim_partial,
        complete_hits: result.stats.cim_exact + result.stats.cim_equal,
    }
}

/// Renders the rows as the paper-style table.
pub fn render(rows: &[Fig5Row]) -> String {
    let mut t = TextTable::new([
        "Query",
        "Type",
        "Time for First Ans.",
        "Time for All Ans.",
        "Answers",
        "Comments",
    ]);
    let mut last_query = "";
    for r in rows {
        let query = if r.query == last_query { "" } else { r.query };
        last_query = r.query;
        t.row([
            query.to_string(),
            r.config.label().to_string(),
            ms_opt(Some(hermes_common::SimDuration::from_millis_f64(
                r.t_first_ms,
            ))),
            ms_opt(Some(hermes_common::SimDuration::from_millis_f64(
                r.t_all_ms,
            ))),
            r.answers.to_string(),
            r.site.label().to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_shapes_hold_for_usa_q2() {
        let spec = QUERIES[1];
        let no_cache = run_cell(7, spec, VideoSite::Usa, Config::NoCache);
        let cache = run_cell(7, spec, VideoSite::Usa, Config::CacheOnly);
        let equality = run_cell(7, spec, VideoSite::Usa, Config::CacheEquality);
        let partial = run_cell(7, spec, VideoSite::Usa, Config::CachePartial);

        // Everyone returns the same number of answers.
        assert_eq!(no_cache.answers, cache.answers);
        assert_eq!(no_cache.answers, equality.answers);
        assert_eq!(no_cache.answers, partial.answers);

        // "Using caches always leads to savings in time."
        assert!(cache.t_all_ms < no_cache.t_all_ms);
        assert!(equality.t_all_ms < no_cache.t_all_ms);
        assert_eq!(cache.complete_hits, 1);
        assert_eq!(equality.complete_hits, 1);

        // Partial invariant: fast first answer; all-answers pays the call.
        assert_eq!(partial.partial_hits, 1);
        assert!(partial.t_first_ms < no_cache.t_first_ms);
        assert!(partial.t_all_ms > cache.t_all_ms);
    }

    #[test]
    fn italy_amplifies_cache_savings() {
        let spec = QUERIES[2];
        let no_cache = run_cell(8, spec, VideoSite::Italy, Config::NoCache);
        let cache = run_cell(8, spec, VideoSite::Italy, Config::CacheOnly);
        assert!(no_cache.t_all_ms > cache.t_all_ms * 20.0);
    }
}
