//! Completeness and latency under injected faults, with and without the
//! resilience layer. Run with
//! `cargo bench -p hermes-bench --bench chaos_resilience`.

fn main() {
    print!("{}", hermes_bench::paper::chaos_resilience());
}
