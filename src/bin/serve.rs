//! `hermes-serve` — the HERMES mediator as a TCP server.
//!
//! Serves the binary frame protocol (`hermes_common::frame`) on a
//! [`hermes::Mediator`] — through the epoll reactor on Linux
//! (`--mode reactor`, the `auto` default there) or the worker-pool
//! engine (`--mode pool`, the fallback elsewhere). Without `--program`
//! it builds the benchmark's synthetic world: two sources behind real
//! per-call latency (`SlowDomain`), five query forms `q0`..`q3` and
//! `hot` over Zipf-friendly keys — the same world `hermes-load`
//! generates traffic for.
//!
//! ```sh
//! hermes-serve                         # synthetic world on 127.0.0.1:7464
//! hermes-serve --addr 0.0.0.0:9000 --workers 16
//! hermes-serve --delay-ms 10 --gate 32 # slower sources, bounded gate
//! hermes-serve --program rules.hms     # serve your own rule file
//! ```
//!
//! Stop it with `hermes-load --shutdown`, the REPL's `:connect` +
//! `:shutdown-server`, or plain Ctrl-C.

use hermes::domains::synthetic::{RelationSpec, SyntheticDomain};
use hermes::domains::SlowDomain;
use hermes::{profiles, Mediator, NetServer, Network, ServeConfig, ServeMode};
use std::sync::Arc;
use std::time::Duration;

const HELP: &str = "\
usage: hermes-serve [options]

options:
  --addr HOST:PORT   listen address (default 127.0.0.1:7464)
  --mode MODE        serving engine: auto | pool | reactor (default auto;
                     auto picks the epoll reactor on Linux, pool elsewhere)
  --workers N        queries computing at once (default 8); up to 2x as
                     many more may be parked at sources (reactor mode).
                     In pool mode: handler threads, and so the
                     concurrent-connection ceiling
  --pending N        pool mode: accepted connections queued for a worker;
                     the next one is refused with a shed frame (default 64)
  --max-conns N      reactor mode: open-connection ceiling (default 10000)
  --pipeline N       reactor mode: queries in flight per connection before
                     shed/pipeline-full (default 32)
  --queue N          reactor mode: worker-queue bound before
                     shed/worker-queue-full (default 1024)
  --idle-timeout-ms N  evict connections idle this long
                     (default: never)
  --batch-rows N     rows per Batch frame (default 512)
  --gate N           admission-gate capacity (default unbounded)
  --delay-ms N       real latency per synthetic source call (default 3)
  --shards N         CIM/DCSM shards (default 8)
  --seed N           synthetic data seed (default 42)
  --sim-clock        serve on virtual time instead of the wall clock
  --program FILE     serve this rule file instead of the synthetic world,
                     over the same sources: it must pass the analyzer,
                     and its `%!` invariant, cache and volatile lines
                     are installed with it
  -h, --help         this message
";

/// Keys per synthetic relation — must match `hermes-load`'s key space.
const KEYS: usize = 64;

struct Options {
    addr: String,
    /// The serving settings, at `ServeConfig`'s defaults until a flag
    /// sets one.
    serve: ServeConfig,
    gate: Option<usize>,
    delay: Duration,
    shards: usize,
    seed: u64,
    program: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7464".into(),
            serve: ServeConfig::default(),
            gate: None,
            delay: Duration::from_millis(3),
            shards: 8,
            seed: 42,
            program: None,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => opts.addr = take("--addr")?,
            "--mode" => {
                let name = take("--mode")?;
                opts.serve.mode = ServeMode::parse(&name)
                    .ok_or_else(|| format!("unknown mode {name} (auto | pool | reactor)"))?;
            }
            "--workers" => opts.serve.workers = num(&take("--workers")?)?,
            "--pending" => opts.serve.pending_conns = num(&take("--pending")?)?,
            "--max-conns" => opts.serve.max_conns = num(&take("--max-conns")?)?,
            "--pipeline" => opts.serve.pipeline_depth = num(&take("--pipeline")?)?,
            "--queue" => opts.serve.queue_depth = num(&take("--queue")?)?,
            "--idle-timeout-ms" => {
                opts.serve.idle_timeout = Some(Duration::from_millis(num(&take(
                    "--idle-timeout-ms",
                )?)? as u64));
            }
            "--batch-rows" => opts.serve.batch_rows = num(&take("--batch-rows")?)?,
            "--gate" => opts.gate = Some(num(&take("--gate")?)?),
            "--delay-ms" => opts.delay = Duration::from_millis(num(&take("--delay-ms")?)? as u64),
            "--shards" => opts.shards = num(&take("--shards")?)?,
            "--seed" => opts.seed = num(&take("--seed")?)? as u64,
            "--sim-clock" => opts.serve.wall_clock = false,
            "--program" => opts.program = Some(take("--program")?),
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

fn num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

/// The synthetic sources: two sites, real latency per source call.
fn synthetic_network(seed: u64, delay: Duration) -> Network {
    let d0 = SyntheticDomain::generate(
        "d0",
        seed,
        &[
            RelationSpec::uniform("r0", KEYS, 2.0),
            RelationSpec::uniform("r1", KEYS, 2.0),
            RelationSpec::uniform("h", KEYS, 2.0),
        ],
    );
    let d1 = SyntheticDomain::generate(
        "d1",
        seed + 1,
        &[
            RelationSpec::uniform("r0", KEYS, 2.0),
            RelationSpec::uniform("r1", KEYS, 2.0),
        ],
    );
    let mut net = Network::new(seed);
    net.place(
        Arc::new(SlowDomain::new(Arc::new(d0), delay)),
        profiles::maryland(),
    );
    net.place(
        Arc::new(SlowDomain::new(Arc::new(d1), delay)),
        profiles::cornell(),
    );
    net
}

/// The default serving world: five query forms over the synthetic
/// sources — the same forms `hermes-load` generates traffic for.
fn synthetic_world(seed: u64, delay: Duration) -> Result<Mediator, hermes::HermesError> {
    Mediator::from_source(
        "
        q0(A, B) :- in(B, d0:r0_bf(A)).
        q1(A, B) :- in(B, d0:r1_bf(A)).
        q2(A, B) :- in(B, d1:r0_bf(A)).
        q3(A, B) :- in(B, d1:r1_bf(A)).
        hot(A, B) :- in(B, d0:h_bf(A)).
        ",
        synthetic_network(seed, delay),
    )
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hermes-serve: {e}");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    };

    let mediator = match &opts.program {
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("hermes-serve: cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            // A user program gets the synthetic network's sources too, so
            // rules may reference d0/d1 — or ignore them entirely. It is
            // analyzed against them, and its declarations installed.
            match Mediator::from_source(&src, synthetic_network(opts.seed, opts.delay)) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("hermes-serve: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => match synthetic_world(opts.seed, opts.delay) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("hermes-serve: {e}");
                std::process::exit(2);
            }
        },
    };

    let server = Arc::new(mediator.to_concurrent(opts.shards));
    server.set_gate(opts.gate);

    let (workers, wall_clock) = (opts.serve.workers, opts.serve.wall_clock);
    let net = match NetServer::bind(server, opts.addr.as_str(), opts.serve) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("hermes-serve: bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    println!(
        "hermes-serve: listening on {} ({} mode, {} workers, {})",
        net.addr(),
        net.mode().name(),
        workers,
        if wall_clock {
            "wall clock"
        } else {
            "sim clock"
        },
    );

    let stats = net.wait();
    println!(
        "hermes-serve: drained — {} connections ({} refused, {} evicted), {} requests, \
         {} bad frames, {} pre-gate sheds",
        stats.accepted,
        stats.refused,
        stats.evicted,
        stats.requests,
        stats.bad_frames,
        stats.pre_gate_shed
    );
}
