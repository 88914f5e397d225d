//! Regenerates the **§8 plan-choice claims**: predicted-vs-actual plan
//! orderings over randomized federations, bucketed by predicted margin.
//! Run with `cargo bench -p hermes-bench --bench plan_choice`.

use hermes_bench::paper;

fn main() {
    let trials = std::env::var("HERMES_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(paper::PLAN_CHOICE_TRIALS);
    print!("{}", paper::plan_choice(trials));
}
