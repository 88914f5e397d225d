//! Regenerates the **§6.2 summarization tradeoff** experiment: storage,
//! lookup work, and estimation error across summarization levels and
//! workload skews. Run with
//! `cargo bench -p hermes-bench --bench summarization_tradeoffs`.

fn main() {
    print!("{}", hermes_bench::paper::summarization_tradeoffs());
}
