//! Regenerates **Figures 2–4**: the example cost-vector tables (T16–T19),
//! their lossless summaries (T20–T21), and the lossy summaries of Example
//! 6.2. Run with `cargo bench -p hermes-bench --bench fig_2_3_4_summaries`.

fn main() {
    print!("{}", hermes_bench::paper::fig_2_3_4_summaries());
}
