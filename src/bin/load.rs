//! `hermes-load` — a loopback/network load generator for `hermes-serve`.
//!
//! Opens client connections and drives each with a pre-generated query
//! mix against the synthetic serving world, then reports throughput and
//! wall-clock latency percentiles. Three knobs shape the offered load:
//!
//! * `--conns N` / `--connections A,B,C` — how many connections (a
//!   comma list sweeps: one full measured run per count).
//! * `--pipeline D` — up to `D` queries in flight per connection
//!   (pipelined on one socket; the server answers in FIFO order).
//! * `--rate R` — **open-loop** mode: queries are *scheduled* at `R`/s
//!   total across all connections and latency is measured from the
//!   scheduled send instant, so server-side queueing shows up as
//!   latency instead of silently slowing the generator down. Without
//!   `--rate` the generator is closed-loop: each connection keeps
//!   `--pipeline` queries in flight continuously.
//!
//! ```sh
//! hermes-load                          # 8 conns × 2s of Zipf mix
//! hermes-load --mix stampede           # every conn hammers one hot key
//! hermes-load --connections 100,1000 --pipeline 8
//! hermes-load --rate 2000 --duration-ms 5000 --deadline-ms 50
//! hermes-load --shutdown               # drain the server when done
//! hermes-load --test-mode --shutdown   # CI smoke: asserts + drain
//! ```
//!
//! Sheds are reported **per class**: `gate-full` (the admission gate),
//! `accept-queue-full` (socket refused), `pipeline-full` (per-connection
//! depth), `worker-queue-full` (reactor's worker queue) — so a capacity
//! experiment can see *which* wall it hit.
//!
//! `--test-mode` shrinks the run and turns invariants into assertions:
//! every connection must succeed, every issued query must come back as
//! an answer, a shed, or a query error (never a transport error), and
//! the server's own counters must agree (`admitted + shed == queries`;
//! `net.inline` — queries answered on the reactor thread — is positive
//! under the reactor once keys repeat, zero under the pool; `net.parked` —
//! times a worker lent its run slot while it waited on a source — is
//! positive under the reactor once a query went to a source, which the
//! first pass against a fresh server always does, zero under the pool;
//! `net.threads_peak` stays within `workers × (1 + PARKED_PER_WORKER)`).

use hermes::common::{percentile, Rng64};
use hermes::core::serve::PARKED_PER_WORKER;
use hermes::{HermesError, QueryFrame, Value, WireClient};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

const HELP: &str = "\
usage: hermes-load [options]

options:
  --addr HOST:PORT   server address (default 127.0.0.1:7464)
  --conns N          client connections, one thread each (default 8)
  --connections LIST comma-separated connection counts; runs one full
                     measured pass per count (e.g. 100,1000)
  --pipeline N       queries in flight per connection (default 1)
  --rate N           open-loop arrival rate, queries/sec across all
                     connections (default: closed loop)
  --duration-ms N    measured run length (default 2000)
  --mix zipf|stampede
                     query mix: Zipf-skewed over all forms and keys, or
                     every connection issuing the same hot query
  --deadline-ms N    per-query deadline sent to the server
  --tier NAME        pin a plan tier (cache-only | cached-cheap | full)
  --seed N           mix seed (default 7)
  --shutdown         send a Shutdown frame after reporting
  --test-mode        short run with CI assertions (expects the server's
                     default unbounded gate)
  -h, --help         this message
";

/// Keys per synthetic relation — must match `hermes-serve`'s world.
const KEYS: usize = 64;

#[derive(Clone)]
struct Options {
    addr: String,
    sweep: Vec<usize>,
    pipeline: usize,
    rate: Option<u64>,
    duration: Duration,
    stampede: bool,
    deadline_ms: Option<u64>,
    tier: Option<String>,
    seed: u64,
    shutdown: bool,
    test_mode: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7464".into(),
            sweep: vec![8],
            pipeline: 1,
            rate: None,
            duration: Duration::from_millis(2000),
            stampede: false,
            deadline_ms: None,
            tier: None,
            seed: 7,
            shutdown: false,
            test_mode: false,
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
            "--conns" => opts.sweep = vec![num(&take("--conns")?)?],
            "--connections" => {
                let list = take("--connections")?;
                opts.sweep = list
                    .split(',')
                    .map(num)
                    .collect::<Result<Vec<usize>, String>>()?;
                if opts.sweep.is_empty() {
                    return Err("--connections needs at least one count".into());
                }
            }
            "--pipeline" => opts.pipeline = num(&take("--pipeline")?)?.max(1),
            "--rate" => opts.rate = Some(num(&take("--rate")?)? as u64),
            "--duration-ms" => {
                opts.duration = Duration::from_millis(num(&take("--duration-ms")?)? as u64)
            }
            "--mix" => {
                opts.stampede = match take("--mix")?.as_str() {
                    "zipf" => false,
                    "stampede" => true,
                    other => return Err(format!("unknown mix {other}")),
                }
            }
            "--deadline-ms" => opts.deadline_ms = Some(num(&take("--deadline-ms")?)? as u64),
            "--tier" => opts.tier = Some(take("--tier")?),
            "--seed" => opts.seed = num(&take("--seed")?)? as u64,
            "--shutdown" => opts.shutdown = true,
            "--test-mode" => opts.test_mode = true,
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.test_mode {
        for n in &mut opts.sweep {
            *n = (*n).min(4);
        }
        opts.duration = opts.duration.min(Duration::from_millis(500));
    }
    Ok(opts)
}

fn num(s: &str) -> Result<usize, String> {
    s.trim().parse().map_err(|_| format!("not a number: {s}"))
}

/// The Zipf-skewed mix over the serving world's query forms.
fn zipf_mix(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng64::new(seed ^ 0x7F4A_7C15);
    (0..count)
        .map(|_| {
            let f = rng.range_usize(0, 4);
            let key = rng.zipf(KEYS, 1.1) % KEYS;
            let rel = if f.is_multiple_of(2) { "r0" } else { "r1" };
            format!("?- q{f}('{rel}_{key}', B).")
        })
        .collect()
}

/// Per-connection tallies, merged after the run.
#[derive(Clone, Default)]
struct Tally {
    issued: u64,
    answered: u64,
    shed: u64,
    shed_classes: BTreeMap<String, u64>,
    query_errors: u64,
    transport_errors: u64,
    rows: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.issued += other.issued;
        self.answered += other.answered;
        self.shed += other.shed;
        for (class, n) in other.shed_classes {
            *self.shed_classes.entry(class).or_default() += n;
        }
        self.query_errors += other.query_errors;
        self.transport_errors += other.transport_errors;
        self.rows += other.rows;
        self.latencies_us.extend(other.latencies_us);
    }

    fn shed_mark(&mut self, reason: &str) {
        self.shed += 1;
        *self.shed_classes.entry(reason.to_string()).or_default() += 1;
    }
}

/// One connection's run: pipelined sends up to `opts.pipeline` deep,
/// closed-loop or scheduled open-loop, latency measured from the send
/// basis (the *scheduled* instant in open-loop mode).
fn drive(opts: &Options, conns: usize, conn_id: usize) -> Result<Tally, String> {
    let mut client = WireClient::connect_retry(&opts.addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {}: {e}", opts.addr))?;
    let mix = if opts.stampede {
        vec!["?- hot('h_1', B).".to_string()]
    } else {
        zipf_mix(opts.seed.wrapping_add(conn_id as u64), 4096)
    };
    // Open loop: this connection's share of the global arrival rate.
    let interval = opts.rate.map(|rate| {
        let per_conn = (rate as f64 / conns as f64).max(0.001);
        Duration::from_secs_f64(1.0 / per_conn)
    });

    let mut tally = Tally::default();
    let deadline = Instant::now() + opts.duration;
    let drain_deadline = deadline + Duration::from_secs(30);
    // Send basis of each in-flight query, FIFO like the responses.
    let mut bases: VecDeque<Instant> = VecDeque::new();
    let mut next_send = Instant::now();
    let mut i = 0usize;

    loop {
        let now = Instant::now();
        let sending = now < deadline;
        if !sending && bases.is_empty() {
            break;
        }
        if now > drain_deadline {
            // In-flight responses never came back; surface, don't hang.
            tally.transport_errors += bases.len() as u64;
            break;
        }

        // Send while the window has room (and, open-loop, while the
        // schedule says a query is due).
        let mut sent_any = false;
        while sending && bases.len() < opts.pipeline {
            let basis = match interval {
                Some(iv) => {
                    if Instant::now() >= next_send {
                        let b = next_send;
                        next_send += iv;
                        b
                    } else {
                        break;
                    }
                }
                None => Instant::now(),
            };
            let mut q = QueryFrame::new(mix[i % mix.len()].clone());
            i += 1;
            if let Some(ms) = opts.deadline_ms {
                q.deadline_us = Some(ms * 1000);
            }
            q.tier.clone_from(&opts.tier);
            tally.issued += 1;
            match client.send_query(q) {
                Ok(()) => {
                    bases.push_back(basis);
                    sent_any = true;
                }
                Err(_) => {
                    tally.transport_errors += 1 + bases.len() as u64;
                    bases.clear();
                    client = WireClient::connect_retry(&opts.addr, Duration::from_secs(5))
                        .map_err(|e| format!("reconnect {}: {e}", opts.addr))?;
                }
            }
        }

        // Receive whatever is ready.
        let mut received_any = false;
        loop {
            match client.poll_result() {
                Ok(Some(outcome)) => {
                    received_any = true;
                    let basis = bases.pop_front().unwrap_or_else(Instant::now);
                    match outcome {
                        Ok(result) => {
                            tally.answered += 1;
                            tally.rows += result.done.rows;
                            tally.latencies_us.push(basis.elapsed().as_micros() as u64);
                        }
                        Err(HermesError::Shed { reason }) => {
                            tally.shed_mark(&reason);
                            if reason == "accept-queue-full" {
                                // The socket-level shed closes the
                                // connection; everything else in flight
                                // died with it.
                                tally.transport_errors += bases.len() as u64;
                                bases.clear();
                                client =
                                    WireClient::connect_retry(&opts.addr, Duration::from_secs(5))
                                        .map_err(|e| format!("reconnect {}: {e}", opts.addr))?;
                                break;
                            }
                        }
                        Err(HermesError::Io(_)) => {
                            tally.transport_errors += 1 + bases.len() as u64;
                            bases.clear();
                            client = WireClient::connect_retry(&opts.addr, Duration::from_secs(5))
                                .map_err(|e| format!("reconnect {}: {e}", opts.addr))?;
                            break;
                        }
                        Err(_) => tally.query_errors += 1,
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    tally.transport_errors += 1 + bases.len() as u64;
                    bases.clear();
                    client = WireClient::connect_retry(&opts.addr, Duration::from_secs(5))
                        .map_err(|e| format!("reconnect {}: {e}", opts.addr))?;
                    break;
                }
            }
        }

        if !sent_any && !received_any {
            // Nothing to do right now: nap briefly instead of spinning.
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Ok(tally)
}

fn field<'v>(stats: &'v Value, section: &str, field: &str) -> Option<&'v Value> {
    let Value::Record(rec) = stats else {
        return None;
    };
    let Some(Value::Record(sec)) = rec.get(section) else {
        return None;
    };
    sec.get(field)
}

fn stat(stats: &Value, section: &str, name: &str) -> Option<i64> {
    match field(stats, section, name) {
        Some(Value::Int(n)) => Some(*n),
        _ => None,
    }
}

/// One full measured pass at `conns` connections.
fn run_pass(opts: &Options, conns: usize) -> (Tally, u64, Duration) {
    let t0 = Instant::now();
    let tallies: Vec<Result<Tally, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let opts = opts.clone();
                s.spawn(move || drive(&opts, conns, c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed();

    let mut total = Tally::default();
    let mut connect_failures = 0u64;
    for t in tallies {
        match t {
            Ok(t) => total.merge(t),
            Err(e) => {
                connect_failures += 1;
                eprintln!("hermes-load: {e}");
            }
        }
    }
    (total, connect_failures, wall)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hermes-load: {e}");
            eprint!("{HELP}");
            std::process::exit(2);
        }
    };

    for &conns in &opts.sweep {
        let (mut total, connect_failures, wall) = run_pass(&opts, conns);

        total.latencies_us.sort_unstable();
        let qps = total.answered as f64 / wall.as_secs_f64();
        println!(
            "hermes-load: {} conns, pipeline {}, {:.2}s, mix={}{}",
            conns,
            opts.pipeline,
            wall.as_secs_f64(),
            if opts.stampede { "stampede" } else { "zipf" },
            match opts.rate {
                Some(r) => format!(", open-loop {r}/s"),
                None => String::new(),
            },
        );
        println!(
            "  issued {}  answered {}  shed {}  query-errors {}  transport-errors {}",
            total.issued, total.answered, total.shed, total.query_errors, total.transport_errors
        );
        if !total.shed_classes.is_empty() {
            let classes: Vec<String> = total
                .shed_classes
                .iter()
                .map(|(class, n)| format!("{class} {n}"))
                .collect();
            println!("  shed by class: {}", classes.join("  "));
        }
        println!("  {qps:.0} qps  ({} rows)", total.rows);
        println!(
            "  latency p50 {} us  p95 {} us  p99 {} us  max {} us",
            percentile(&total.latencies_us, 0.50),
            percentile(&total.latencies_us, 0.95),
            percentile(&total.latencies_us, 0.99),
            total.latencies_us.last().copied().unwrap_or(0),
        );

        if opts.test_mode {
            assert_eq!(connect_failures, 0, "connections failed to establish");
            assert_eq!(total.transport_errors, 0, "transport errors during the run");
            assert_eq!(
                total.answered + total.shed + total.query_errors,
                total.issued,
                "issued queries unaccounted for"
            );
            assert!(total.answered > 0, "no queries answered");
        }
    }

    // Fetch the server's own counters for the gate invariant.
    let server_stats =
        WireClient::connect_retry(&opts.addr, Duration::from_secs(5)).and_then(|mut c| {
            let stats = c.stats()?;
            if opts.shutdown {
                c.shutdown_server()?;
            }
            Ok(stats)
        });
    match &server_stats {
        Ok(stats) => {
            let queries = stat(stats, "server", "queries").unwrap_or(-1);
            let admitted = stat(stats, "server", "admitted").unwrap_or(-1);
            let shed = stat(stats, "server", "shed").unwrap_or(-1);
            let refused = stat(stats, "net", "refused").unwrap_or(-1);
            let pre_gate = stat(stats, "net", "pre_gate_shed").unwrap_or(-1);
            let requests = stat(stats, "net", "requests").unwrap_or(-1);
            let inline = stat(stats, "net", "inline").unwrap_or(-1);
            let source_calls = stat(stats, "server", "source_calls").unwrap_or(-1);
            let workers = stat(stats, "net", "workers").unwrap_or(-1);
            let parked = stat(stats, "net", "parked").unwrap_or(-1);
            let threads_peak = stat(stats, "net", "threads_peak").unwrap_or(-1);
            let mode = match field(stats, "net", "mode") {
                Some(Value::Str(m)) => m.to_string(),
                _ => "?".into(),
            };
            println!(
                "  server: queries {queries}  admitted {admitted}  shed {shed}  \
                 socket-refused {refused}  pre-gate-shed {pre_gate}"
            );
            println!(
                "  net: mode {mode}  requests {requests}  inline {inline}  parked {parked}  \
                 threads-peak {threads_peak} (workers {workers})"
            );
            if opts.test_mode {
                assert_eq!(
                    admitted + shed,
                    queries,
                    "gate invariant broken: admitted + shed != queries"
                );
                assert!(
                    (0..=requests).contains(&inline),
                    "net.inline {inline} outside 0..=net.requests {requests}"
                );
                // The mix repeats its hot keys within the first few dozen
                // queries, so a reactor (behind the default, unbounded
                // gate) has had warm untiered point queries to answer on
                // its own thread; a pool has no such thread.
                match mode.as_str() {
                    "reactor" if opts.tier.is_none() => {
                        assert!(inline > 0, "reactor answered no query inline")
                    }
                    "reactor" => {}
                    _ => assert_eq!(inline, 0, "{mode} mode cannot answer inline"),
                }
                // Every source call of a reactor server runs on a worker,
                // which lends its slot for the wait; pool handlers have no
                // slot to lend.
                let cap = workers * (1 + PARKED_PER_WORKER as i64);
                match mode.as_str() {
                    "reactor" => {
                        if source_calls > 0 {
                            assert!(parked > 0, "a source call that parked no worker");
                        }
                        assert!(
                            (workers..=cap).contains(&threads_peak),
                            "net.threads_peak {threads_peak} outside {workers}..={cap}"
                        );
                    }
                    _ => assert_eq!(parked, 0, "{mode} mode has no slot to lend"),
                }
            }
        }
        Err(e) => eprintln!("hermes-load: stats fetch failed: {e}"),
    }

    if opts.test_mode {
        assert!(server_stats.is_ok(), "stats frame failed");
        println!("hermes-load: test-mode assertions passed");
    }
}
