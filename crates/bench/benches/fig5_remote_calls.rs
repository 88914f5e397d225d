//! Regenerates **Figure 5**: Executing Remote Calls with Caching and/or
//! Invariants. Run with `cargo bench -p hermes-bench --bench fig5_remote_calls`.

fn main() {
    print!("{}", hermes_bench::paper::fig5_remote_calls());
}
