//! The paper-exact gate: each figure bench's whole stdout, byte for byte
//! against `tests/expectations/paper/<bench>.txt` at the workspace root.
//! Every number in these reports is on the simulated clock, so a diff is
//! a change in what the mediator plans, caches, estimates or executes.
//!
//! To regenerate one after an intended change, redirect the bench's
//! stdout into its file:
//!
//! ```text
//! cargo bench -q -p hermes-bench --bench plan_choice \
//!     > tests/expectations/paper/plan_choice.txt
//! ```

use hermes_bench::paper;

fn check(bench: &str, got: String) {
    let path = format!(
        "{}/../../tests/expectations/paper/{bench}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{bench}: stdout differs from {path} from line {}\n--- got\n{got}\n--- want\n{want}",
            line + 1
        );
    }
}

#[test]
fn fig5_remote_calls_is_paper_exact() {
    check("fig5_remote_calls", paper::fig5_remote_calls());
}

#[test]
fn fig6_dcsm_utility_is_paper_exact() {
    check("fig6_dcsm_utility", paper::fig6_dcsm_utility());
}

#[test]
fn fig_2_3_4_summaries_is_paper_exact() {
    check("fig_2_3_4_summaries", paper::fig_2_3_4_summaries());
}

#[test]
fn plan_choice_is_paper_exact() {
    check("plan_choice", paper::plan_choice(paper::PLAN_CHOICE_TRIALS));
}

#[test]
fn summarization_tradeoffs_is_paper_exact() {
    check("summarization_tradeoffs", paper::summarization_tradeoffs());
}

#[test]
fn chaos_resilience_is_paper_exact() {
    check("chaos_resilience", paper::chaos_resilience());
}
