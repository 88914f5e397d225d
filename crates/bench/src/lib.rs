//! # hermes-bench
//!
//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (§8), plus shared scenario builders. Each figure's logic is a
//! library function returning structured rows, so
//!
//! * the `benches/*.rs` targets print the tables (`cargo bench`), and
//! * `tests/shapes.rs` asserts the paper's qualitative claims hold —
//!   who wins, by roughly what factor — on every run, and
//! * `tests/paper_figures.rs` holds each paper bench's whole stdout
//!   ([`paper`]) byte for byte to a committed expectation.
//!
//! | paper artifact | module | bench target |
//! |---|---|---|
//! | Figures 2–4 (statistics tables + summaries) | [`fig234`] | `fig_2_3_4_summaries` |
//! | Figure 5 (caching / invariants vs sites) | [`fig5`] | `fig5_remote_calls` |
//! | Figure 6 (DCSM predicted vs actual) | [`fig6`] | `fig6_dcsm_utility` |
//! | §8 plan-choice claims 1–2 | [`plan_choice`] | `plan_choice` |
//! | §6.2 summarization tradeoffs | [`tradeoffs`] | `summarization_tradeoffs` |
//! | resilience layer (beyond the paper) | [`chaos`] | `chaos_resilience` |
//! | parallel scheduler (beyond the paper) | [`parallel`] | `parallel_speedup` |

pub mod chaos;
pub mod drift;
pub mod fig234;
pub mod fig5;
pub mod fig6;
pub mod paper;
pub mod parallel;
pub mod plan_choice;
pub mod scenarios;
pub mod table;
pub mod tradeoffs;
