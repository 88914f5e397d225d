//! The paper-exact reports: the whole stdout of each figure bench, as a
//! string.
//!
//! Each `benches/<name>.rs` prints the string its function here returns,
//! and `tests/paper_figures.rs` compares it byte for byte with
//! `tests/expectations/paper/<name>.txt` at the workspace root. Every
//! number in these reports is on the simulated clock, so any change to
//! them is a change to what the mediator computes. To regenerate an
//! expectation, redirect the bench's stdout into its file:
//!
//! ```text
//! cargo bench -q -p hermes-bench --bench fig5_remote_calls \
//!     > tests/expectations/paper/fig5_remote_calls.txt
//! ```

use crate::{chaos, drift, fig234, fig5, fig6, plan_choice, tradeoffs};
use std::fmt::Write;

/// The trial count the `plan_choice` expectation was generated with.
pub const PLAN_CHOICE_TRIALS: usize = 24;

/// Figure 5: executing remote calls with caching and/or invariants.
pub fn fig5_remote_calls() -> String {
    let rows = fig5::run(1996);
    let mut out = String::new();
    writeln!(
        out,
        "\nFigure 5: Executing Remote Calls with Caching and/or Invariants"
    )
    .unwrap();
    writeln!(
        out,
        "(simulated milliseconds; three AVIS queries × four configurations × two sites)\n"
    )
    .unwrap();
    writeln!(out, "{}", fig5::render(&rows)).unwrap();

    // Headline ratios, for quick comparison with the paper.
    let find = |q: &str, c: fig5::Config, site: crate::scenarios::VideoSite| {
        rows.iter()
            .find(|r| r.query.contains(q) && r.config == c && r.site == site)
            .expect("cell present")
    };
    use crate::scenarios::VideoSite::*;
    use fig5::Config::*;
    let nc_usa = find("actors", NoCache, Usa);
    let nc_it = find("actors", NoCache, Italy);
    let c_it = find("actors", CacheOnly, Italy);
    let p_it = find("actors", CachePartial, Italy);
    writeln!(out, "headline (actors query):").unwrap();
    writeln!(
        out,
        "  Italy/USA no-cache slowdown:        {:>6.1}x (paper: ~19x)",
        nc_it.t_all_ms / nc_usa.t_all_ms
    )
    .unwrap();
    writeln!(
        out,
        "  Italy cache speedup (all answers):  {:>6.1}x (paper: ~30x)",
        nc_it.t_all_ms / c_it.t_all_ms
    )
    .unwrap();
    writeln!(
        out,
        "  Italy partial-inv first-answer win: {:>6.1}x",
        nc_it.t_first_ms / p_it.t_first_ms
    )
    .unwrap();
    out
}

/// Figure 6: DCSM's predicted vs actual running times.
pub fn fig6_dcsm_utility() -> String {
    let rows = fig6::run(1996);
    let mut out = String::new();
    writeln!(
        out,
        "\nFigure 6: The Utility of DCSM (simulated milliseconds)\n"
    )
    .unwrap();
    writeln!(out, "{}", fig6::render(&rows)).unwrap();
    writeln!(
        out,
        "mean relative error, all answers:  lossless {:.2}, lossy {:.2}",
        fig6::mean_relative_error(&rows, false, false),
        fig6::mean_relative_error(&rows, true, false),
    )
    .unwrap();
    writeln!(
        out,
        "mean relative error, first answer: lossless {:.2}, lossy {:.2}",
        fig6::mean_relative_error(&rows, false, true),
        fig6::mean_relative_error(&rows, true, true),
    )
    .unwrap();
    writeln!(
        out,
        "\n(the paper's reading: all-answers predictions closely match the \
         actual times;\n lossy tables do worse mainly through cardinality \
         error; first-answer times\n can be under-predicted when \
         backtracking dominates)"
    )
    .unwrap();
    out
}

/// Figures 2–4: the statistics tables and their summaries.
pub fn fig_2_3_4_summaries() -> String {
    format!(
        "\nFigures 2-4: statistics tables and their summarizations\n\n{}\n",
        fig234::report()
    )
}

/// §8's plan-choice claims over `trials` random federations.
pub fn plan_choice(trials: usize) -> String {
    let obs = plan_choice::run(2024, trials);
    let mut out = String::new();
    writeln!(
        out,
        "\n§8 plan-choice reliability ({trials} random federations)\n"
    )
    .unwrap();
    writeln!(out, "{}", plan_choice::render(&obs)).unwrap();
    writeln!(
        out,
        "(paper: all-answers predictions are reliable; first-answer \
         predictions are\n trustworthy only above a ~50% predicted margin \
         — the 1.0-1.5x bucket)"
    )
    .unwrap();
    out
}

/// §6.2's summarization tradeoffs and the recency-weighting ablation.
pub fn summarization_tradeoffs() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "\n§6.2 summarization tradeoffs (per-level aggregates)\n"
    )
    .unwrap();
    let rows = tradeoffs::run(1996, &[0.0, 1.0, 1.5]);
    writeln!(out, "{}", tradeoffs::render(&rows)).unwrap();
    writeln!(
        out,
        "(expected shape: storage and lookup work drop monotonically with \
         summarization.\n Error is lowest for full detail on re-seen \
         calls; lossless summaries pay on\n never-seen argument vectors \
         (they relax to the blanket mean); the per-video\n lossy level is \
         robust across both; the blanket level is worst. This is the\n \
         storage/accuracy dial §6.2 describes.)"
    )
    .unwrap();

    writeln!(
        out,
        "\n§6.2 recency-weighting ablation (drifting network load)\n"
    )
    .unwrap();
    let rows = drift::run(1996, &[0.0, 1.0, 3.0]);
    writeln!(out, "{}", drift::render(&rows)).unwrap();
    writeln!(
        out,
        "(expected shape: plain averages and recency decay tie on a flat \
         network;\n under drift the decayed estimator tracks the moving \
         service time)"
    )
    .unwrap();
    out
}

/// Completeness and latency under injected faults.
pub fn chaos_resilience() -> String {
    let drop_rates = [0.0, 0.1, 0.3, 0.5];
    let rows = chaos::run(1996, &drop_rates, 24);
    let mut out = String::new();
    writeln!(
        out,
        "\nResilience under a seeded storm (flapping replica + transient drops)"
    )
    .unwrap();
    writeln!(out, "(24 point queries per cell; simulated milliseconds)\n").unwrap();
    writeln!(out, "{}", chaos::render(&rows)).unwrap();

    // Headline: what the resilient stack buys at the heaviest drop rate.
    let worst = *drop_rates.last().unwrap();
    let cell = |cfg: &str| {
        rows.iter()
            .find(|r| r.drop_rate == worst && r.config == cfg)
            .expect("cell present")
    };
    let retry = cell("retries only");
    let resilient = cell("resilient");
    writeln!(out, "headline ({:.0}% drop rate):", worst * 100.0).unwrap();
    writeln!(
        out,
        "  answered:      {:>2}/24 retries-only vs {:>2}/24 resilient",
        retry.answered, resilient.answered
    )
    .unwrap();
    writeln!(
        out,
        "  mean ms/query: {:>8.1} retries-only vs {:>8.1} resilient",
        retry.mean_ms, resilient.mean_ms
    )
    .unwrap();
    out
}
