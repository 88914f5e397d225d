//! Regenerates **Figure 6**: The Utility of DCSM — actual vs predicted
//! running times (lossless and lossy statistics) for the appendix queries.
//! Run with `cargo bench -p hermes-bench --bench fig6_dcsm_utility`.

fn main() {
    print!("{}", hermes_bench::paper::fig6_dcsm_utility());
}
