//! Interactive exploration of a remote video catalog — the paper's §3
//! "interactive mode": the mediator computes a first batch of answers,
//! the user decides whether to continue, and stopping early cancels the
//! outstanding remote calls.
//!
//! ```sh
//! cargo run --example video_catalog
//! ```

use hermes::domains::video::gen::rope_store;
use hermes::net::profiles;
use hermes::{Mediator, Network};
use std::sync::Arc;

fn main() {
    let mut net = Network::new(1996);
    net.place(Arc::new(rope_store()), profiles::italy());

    // The program's `%! invariant` line (frame-range monotonicity: a
    // cached narrower scene partially answers a wider one) is installed
    // with it.
    let mut mediator = Mediator::from_source(include_str!("programs/video_catalog.hms"), net)
        .expect("program compiles");

    // Optimize for time-to-first-answer: this is interactive use.
    mediator.config_mut().optimize_first_answer = true;

    // Warm the cache with a narrow scene.
    let narrow = mediator
        .query("?- in_scene('rope', 10, 40, O).")
        .expect("narrow scene");
    println!(
        "warmup query: {} objects in frames 10..40 ({} total)",
        narrow.rows.len(),
        narrow.t_all
    );

    // Now browse a wide scene interactively. The first batch comes from
    // the cache (partial invariant hit) while the real transatlantic call
    // proceeds in the background of the virtual timeline.
    let mut browse = mediator
        .query_interactive("?- in_scene('rope', 0, 600, O).")
        .expect("interactive query starts");

    println!("\nfirst 5 objects in frames 0..600:");
    for (row, at) in browse.next_batch(5) {
        println!("  {} (available at +{at})", row[0]);
    }

    // The user has seen enough: stop. Remaining work is cancelled.
    let summary = browse.stop();
    println!(
        "\nstopped early: finished={}, error={:?}",
        summary.finished, summary.error
    );

    // A different user wants everything about one object.
    let spans = mediator
        .query("?- appears('rope', 'rupert', S).")
        .expect("appears query");
    println!(
        "\nrupert appears in {} frame interval(s):",
        spans.rows.len()
    );
    for row in &spans.rows {
        println!("  {}", row[0]); // the query's only free variable is S
    }

    let stats = mediator.caches().stats().cim;
    println!(
        "\nCIM totals: {} exact, {} equality, {} partial hits; {} misses",
        stats.exact_hits, stats.equal_hits, stats.partial_hits, stats.misses
    );
}
