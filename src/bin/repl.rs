//! `hermes-repl` — an interactive shell over a demo mediator world.
//!
//! ```sh
//! cargo run --bin hermes-repl                # built-in demo world
//! cargo run --bin hermes-repl program.hm     # your rules over the demo domains
//! ```
//!
//! The demo world hosts four sources on a simulated 1996 network:
//! `video` (AVIS-style store with "The Rope", in Italy), `relation`
//! (cast table, Cornell), `spatial` (a point file, local), and
//! `terraindb` (a path planner, local).
//!
//! Commands:
//!
//! ```text
//! ?- <goals>.            run a query (all answers)
//! :first <k> ?- <...>.   run a query, stop after k answers
//! :explain ?- <...>.     show candidate plans and estimates
//! :invariant <inv>.      add an invariant to CIM
//! :check [p/bf ...]      static analysis of the loaded program
//! :materialize [p/bf ...] materialization-safety inventory (HA070-series)
//! :mode all|first        optimization objective
//! :parallel <k>          overlap up to k independent calls (1 = serial)
//! :retry <n> [ms]        retries per call (0 = none) + backoff base
//! :deadline <ms>|off     per-query virtual-clock deadline
//! :budget <ms>|off       per-query budget (fail-soft tier downgrade)
//! :tier auto|cache-only|cached-cheap|full   pin or release the plan tier
//! :breaker <n> <ms>|off|status   circuit-breaker threshold/cooldown
//! :serve <threads> <queries>     replay the last query concurrently
//! :connect <host:port>   become a thin client of a hermes-serve server
//! :disconnect            back to the local mediator
//! :ping                  round-trip time to the connected server
//! :pipeline <n> <query>  n pipelined copies of query on one socket
//! :shutdown-server       drain the connected server
//! :stats                 cache/statistics counters (remote when connected)
//! :save <dir>  :load <dir>   persist / restore caches
//! :help  :quit
//! ```
//!
//! After `:connect`, queries, `:first`, and `:stats` ride the binary
//! frame protocol to the server; `:tier`, `:budget`, `:deadline`, and
//! `:trace` settings travel with each query frame. Everything else
//! still drives the local in-process mediator.

use hermes::domains::relational::{Column, ColumnType, RelationalDomain, Schema, Table};
use hermes::domains::spatial::{uniform_points, SpatialDomain};
use hermes::domains::terrain::{demo_map, TerrainDomain};
use hermes::domains::video::gen::{rope_store, ROPE_CAST};
use hermes::net::profiles;
use hermes::{parse_invariant, Mediator, Network, Value};
use std::io::{BufRead, Write};
use std::sync::Arc;

const DEMO_PROGRAM: &str = include_str!("../../examples/programs/demo.hms");

fn demo_network() -> Network {
    let relation = RelationalDomain::new("relation");
    let mut cast = Table::new(
        "cast",
        Schema::new(vec![
            Column::new("name", ColumnType::Str),
            Column::new("role", ColumnType::Str),
        ])
        .expect("schema"),
    );
    for (role, actor) in ROPE_CAST {
        cast.insert(vec![Value::str(*actor), Value::str(*role)])
            .expect("insert");
    }
    relation.add_table(cast);
    let spatial = SpatialDomain::new("spatial");
    spatial.load_points("points", uniform_points(7, 500, 100.0), 10.0);
    let terrain = TerrainDomain::new("terraindb", demo_map());

    let mut net = Network::new(42);
    net.place(Arc::new(rope_store()), profiles::italy());
    net.place(relation, profiles::cornell());
    net.place_local(Arc::new(spatial));
    net.place_local(Arc::new(terrain));
    net
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let program = match args.get(1) {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => DEMO_PROGRAM.to_string(),
    };
    let mut mediator = match Mediator::from_source(&program, demo_network()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("program error: {e}");
            std::process::exit(1);
        }
    };

    println!("hermes mediator shell — :help for commands");
    let interactive = atty_stdout();
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    let mut state = ReplState::default();
    loop {
        if interactive {
            print!("hermes> ");
            let _ = out.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        if !interactive {
            println!("hermes> {line}");
        }
        match dispatch(&mut mediator, &mut state, line) {
            Ok(Control::Continue) => {}
            Ok(Control::Quit) => break,
            Err(e) => println!("error: {e}"),
        }
    }
}

enum Control {
    Continue,
    Quit,
}

/// Session state the commands share across dispatches.
#[derive(Default)]
struct ReplState {
    /// The most recent query text; `:serve` replays it concurrently.
    last_query: Option<String>,
    /// Counters from the most recent `:serve` run, surfaced by `:stats`.
    serve: Option<hermes::ServerStats>,
    /// Pinned plan tier (`:tier`); `None` = auto (selector decides).
    tier: Option<hermes::PlanTier>,
    /// Per-query budget (`:budget`); downgrades tiers, never aborts.
    budget: Option<hermes::SimDuration>,
    /// A `:connect`ed `hermes-serve` server; queries go over the wire.
    remote: Option<hermes::WireClient>,
}

/// Applies the session's `:tier` / `:budget` settings to a request.
fn with_tier_options(state: &ReplState, req: hermes::QueryRequest) -> hermes::QueryRequest {
    let req = match state.tier {
        Some(t) => req.tier(t),
        None => req,
    };
    match state.budget {
        Some(b) => req.budget(b),
        None => req,
    }
}

fn dispatch(mediator: &mut Mediator, state: &mut ReplState, line: &str) -> hermes::Result<Control> {
    if line == ":quit" || line == ":q" {
        return Ok(Control::Quit);
    }
    if line == ":help" {
        println!(
            "  ?- <goals>.           run a query\n  \
             :first <k> ?- ...     stop after k answers\n  \
             :explain ?- ...       show plans + estimates\n  \
             :invariant <inv>.     add an invariant\n  \
             :check [p/bf ...]     static analysis (optionally against\n  \
                                   declared query adornments)\n  \
             :materialize [p/bf ...]  which subplans are safe to cache\n  \
                                   (HA070-series, priced by the DCSM)\n  \
             :mode all|first       optimization objective\n  \
             :parallel <k>         overlap up to k independent calls (1 = serial)\n  \
             :share on|off         share materialized subplan results\n  \
             :trace on|off         show execution traces\n  \
             :retry <n> [ms]       retries per call (0 = none), backoff base\n  \
             :deadline <ms>|off    per-query deadline on the virtual clock\n  \
             :budget <ms>|off      per-query budget (downgrades tiers, never aborts)\n  \
             :tier <t>             auto|cache-only|cached-cheap|full\n  \
             :breaker <n> <ms>     trip threshold + cooldown (off|status)\n  \
             :serve <t> <q>        replay the last query q times from t threads\n  \
             :connect <host:port>  query a hermes-serve server instead\n  \
             :disconnect           back to the local mediator\n  \
             :ping                 round-trip time to the server\n  \
             :pipeline <n> <q>     send n pipelined copies of q at once\n  \
             :shutdown-server      drain the connected server\n  \
             :stats                counters (remote when connected)\n  \
             :save <dir> / :load <dir>\n  \
             :quit"
        );
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":connect") {
        let addr = rest.trim();
        if addr.is_empty() {
            println!("usage: :connect <host:port>");
            return Ok(Control::Continue);
        }
        match hermes::WireClient::connect(addr) {
            Ok(client) => {
                state.remote = Some(client);
                println!("  connected to {addr} — queries now go over the wire");
            }
            Err(e) => println!("  connect {addr}: {e}"),
        }
        return Ok(Control::Continue);
    }
    if line == ":disconnect" {
        if state.remote.take().is_some() {
            println!("  disconnected — queries run on the local mediator again");
        } else {
            println!("  not connected");
        }
        return Ok(Control::Continue);
    }
    if line == ":ping" {
        match state.remote.as_mut() {
            Some(client) => match client.ping() {
                Ok(rtt) => println!("  pong in {} us", rtt.as_micros()),
                Err(e) => println!("  ping failed: {e}"),
            },
            None => println!("  not connected (use :connect <host:port>)"),
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":pipeline") {
        let rest = rest.trim();
        let (count, query) = match rest.split_once(char::is_whitespace) {
            Some((n, q)) => match n.parse::<usize>() {
                Ok(n) if n >= 1 && !q.trim().is_empty() => (n, q.trim().to_string()),
                _ => {
                    println!("usage: :pipeline <n> <query>");
                    return Ok(Control::Continue);
                }
            },
            None => {
                println!("usage: :pipeline <n> <query>");
                return Ok(Control::Continue);
            }
        };
        let Some(client) = state.remote.as_mut() else {
            println!("  not connected (use :connect <host:port>)");
            return Ok(Control::Continue);
        };
        // All n queries ride one socket at once; the server answers in
        // FIFO order, so total wall time shows the pipelining win over
        // n sequential round trips.
        let start = std::time::Instant::now();
        let mut sent = 0usize;
        for _ in 0..count {
            if let Err(e) = client.send_query(hermes::QueryFrame::new(query.clone())) {
                println!("  send failed after {sent}: {e}");
                break;
            }
            sent += 1;
        }
        let (mut answered, mut rows, mut shed, mut errors) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..sent {
            match client.recv_result() {
                Ok(result) => {
                    answered += 1;
                    rows += result.done.rows;
                }
                Err(hermes::HermesError::Shed { .. }) => shed += 1,
                Err(_) => errors += 1,
            }
        }
        println!(
            "  {sent} pipelined in {} us: {answered} answered ({rows} rows), \
             {shed} shed, {errors} errors",
            start.elapsed().as_micros()
        );
        return Ok(Control::Continue);
    }
    if line == ":shutdown-server" {
        match state.remote.take() {
            Some(mut client) => match client.shutdown_server() {
                Ok(()) => println!("  server draining; disconnected"),
                Err(e) => println!("  shutdown failed: {e}"),
            },
            None => println!("  not connected (use :connect <host:port>)"),
        }
        return Ok(Control::Continue);
    }
    if line == ":stats" {
        if let Some(client) = state.remote.as_mut() {
            match client.stats() {
                Ok(stats) => print_remote_stats(&stats),
                Err(e) => println!("  stats failed: {e}"),
            }
            return Ok(Control::Continue);
        }
        let snap = mediator.caches().stats();
        let s = snap.cim;
        println!(
            "  CIM: {} exact, {} equality, {} partial hits; {} misses; \
             cache {} entries / {} bytes",
            s.exact_hits,
            s.equal_hits,
            s.partial_hits,
            s.misses,
            snap.answer_entries,
            snap.answer_bytes
        );
        let cs = snap.answers;
        println!(
            "  answer bytes: {} shared (zero-copy), {} copied",
            cs.bytes_shared, cs.bytes_copied
        );
        let m = snap.subplans;
        println!(
            "  subplans: {} hits, {} coalesced, {} materialized \
             ({} entries / {} bytes); {} invalidated, {} volatile skips",
            m.hits,
            m.coalesced,
            m.materialized,
            m.entries,
            m.bytes,
            m.invalidated,
            m.volatile_skips
        );
        mediator.dcsm().for_each_shard_mut(|_, dcsm| {
            println!(
                "  dcsm records {} (detail {}), {} summary tables, ~{} bytes",
                dcsm.db().len(),
                dcsm.db().detail_len(),
                dcsm.table_count(),
                dcsm.approx_bytes()
            )
        });
        let (coalesced, saved) = state
            .serve
            .map(|s| (s.calls_coalesced, s.round_trips_saved))
            .unwrap_or((0, 0));
        println!(
            "  coalescing (last :serve): {coalesced} calls coalesced, \
             {saved} round trips saved"
        );
        let (admitted, shed, downgraded) = state
            .serve
            .map(|s| (s.admitted, s.shed, s.downgraded))
            .unwrap_or((0, 0, 0));
        println!(
            "  admission (last :serve): {admitted} admitted, {shed} shed, \
             {downgraded} downgraded"
        );
        println!(
            "  tier: {}, budget: {}",
            state.tier.map(|t| t.as_str()).unwrap_or("auto"),
            state
                .budget
                .map(|b| b.to_string())
                .unwrap_or_else(|| "off".into()),
        );
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":tier") {
        match rest.trim() {
            "auto" => {
                state.tier = None;
                println!("  tier auto (the selector decides per query)");
            }
            name => match hermes::PlanTier::parse(name) {
                Some(t) => {
                    state.tier = Some(t);
                    println!("  tier pinned to `{t}`");
                }
                None => println!("usage: :tier auto|cache-only|cached-cheap|full"),
            },
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":budget") {
        match rest.trim() {
            "off" => {
                state.budget = None;
                println!("  budget off");
            }
            ms => match ms.parse::<f64>() {
                Ok(ms) if ms > 0.0 => {
                    state.budget = Some(hermes::SimDuration::from_millis_f64(ms));
                    println!("  budget {ms:.0}ms (tier steps down under pressure; never aborts)");
                }
                _ => println!("usage: :budget <ms>|off"),
            },
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":serve") {
        let mut parts = rest.split_whitespace();
        let parsed = (
            parts.next().map(str::parse::<usize>),
            parts.next().map(str::parse::<usize>),
        );
        let (threads, queries) = match parsed {
            (Some(Ok(t)), Some(Ok(q))) if t >= 1 && q >= 1 => (t, q),
            _ => {
                println!("usage: :serve <threads> <queries>  (replays the last query)");
                return Ok(Control::Continue);
            }
        };
        let Some(query) = state.last_query.clone() else {
            println!("no query yet — run one first, then :serve replays it concurrently");
            return Ok(Control::Continue);
        };
        // A concurrent snapshot of the mediator: cached answers and
        // statistics carry over into the shards; state learned while
        // serving stays in the snapshot.
        let server = mediator.to_concurrent(8);
        // The network (and its call counter) is shared with the serial
        // session; report only the calls this serve run adds.
        let base_source_calls = server.stats().source_calls;
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let (server, query) = (&server, &query);
                let share = queries / threads + usize::from(t < queries % threads);
                let req = with_tier_options(state, hermes::QueryRequest::new(query.as_str()));
                s.spawn(move || {
                    for _ in 0..share {
                        if let Err(e) = server.query(req.clone()) {
                            println!("error: {e}");
                            break;
                        }
                    }
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let stats = server.stats();
        println!(
            "  served {} queries from {} threads in {:.3}s ({:.0} queries/sec)",
            stats.queries,
            threads,
            wall,
            stats.queries as f64 / wall.max(1e-9),
        );
        println!(
            "  {} source calls; {} coalesced ({} round trips saved); shard contention {}",
            stats.source_calls - base_source_calls,
            stats.calls_coalesced,
            stats.round_trips_saved,
            stats.cim_lock_contention + stats.dcsm_lock_contention,
        );
        state.serve = Some(stats);
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":share") {
        match rest.trim() {
            on @ ("on" | "off") => mediator
                .caches()
                .policy()
                .share_subplans(on == "on")
                .apply()?,
            other => println!("unknown share setting `{other}` (use on|off)"),
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":trace") {
        match rest.trim() {
            "on" => mediator.config_mut().exec.collect_trace = true,
            "off" => mediator.config_mut().exec.collect_trace = false,
            other => println!("unknown trace setting `{other}` (use on|off)"),
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":retry") {
        let mut parts = rest.split_whitespace();
        match parts.next().map(str::parse::<u32>) {
            Some(Ok(n)) => {
                mediator.config_mut().exec.retry_attempts = n;
                if let Some(ms) = parts.next() {
                    match ms.parse::<f64>() {
                        Ok(ms) => mediator.config_mut().exec.retry_backoff_ms = ms,
                        Err(e) => println!("bad backoff `{ms}`: {e}"),
                    }
                }
                let c = mediator.config().exec;
                println!(
                    "  retries: {} ({}), backoff base {:.0}ms (cap {:.0}ms)",
                    c.retry_attempts,
                    if c.retry_attempts == 0 {
                        "first failure is final"
                    } else {
                        "exponential backoff"
                    },
                    c.retry_backoff_ms,
                    hermes::core::exec::RETRY_BACKOFF_CAP_MS,
                );
            }
            _ => println!("usage: :retry <n> [backoff_ms]"),
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":deadline") {
        match rest.trim() {
            "off" => {
                mediator.config_mut().exec.deadline = None;
                println!("  deadline off");
            }
            ms => match ms.parse::<f64>() {
                Ok(ms) if ms > 0.0 => {
                    mediator.config_mut().exec.deadline =
                        Some(hermes::SimDuration::from_millis_f64(ms));
                    println!("  deadline {ms:.0}ms (partial answers past it)");
                }
                _ => println!("usage: :deadline <ms>|off"),
            },
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":breaker") {
        use hermes::core::breaker::BreakerConfig;
        let rest = rest.trim();
        if rest == "status" {
            let open = mediator.breakers().lock().open_sites(mediator.now());
            if open.is_empty() {
                println!("  all breakers closed");
            } else {
                for site in open {
                    println!("  OPEN: {site}");
                }
            }
        } else if rest == "off" {
            mediator.breakers().lock().reset();
            println!("  breaker state cleared");
        } else {
            let mut parts = rest.split_whitespace();
            match (
                parts.next().map(str::parse::<u32>),
                parts.next().map(str::parse::<f64>),
            ) {
                (Some(Ok(threshold)), Some(Ok(cooldown_ms))) => {
                    mediator.breakers().lock().set_config(BreakerConfig {
                        failure_threshold: threshold,
                        cooldown: hermes::SimDuration::from_millis_f64(cooldown_ms),
                    });
                    println!(
                        "  breakers trip after {threshold} failures, cool down {cooldown_ms:.0}ms"
                    );
                }
                _ => println!("usage: :breaker <threshold> <cooldown_ms> | off | status"),
            }
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":mode") {
        match rest.trim() {
            "all" => mediator.config_mut().optimize_first_answer = false,
            "first" => mediator.config_mut().optimize_first_answer = true,
            other => println!("unknown mode `{other}` (use all|first)"),
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":parallel") {
        match rest.trim().parse::<usize>() {
            Ok(k) if k >= 1 => {
                let config = mediator.config_mut();
                config.exec.max_parallel_calls = k;
                config.cost.max_parallel_calls = k;
                config.rewrite.favor_parallel = k > 1;
                if k == 1 {
                    println!("  parallel off (serial dispatch)");
                } else {
                    println!("  overlapping up to {k} independent calls per group");
                }
            }
            _ => println!("usage: :parallel <k>  (k >= 1; 1 = serial)"),
        }
        return Ok(Control::Continue);
    }
    if let Some(dir) = line.strip_prefix(":save") {
        mediator.save_state(std::path::Path::new(dir.trim()))?;
        println!("  saved.");
        return Ok(Control::Continue);
    }
    if let Some(dir) = line.strip_prefix(":load") {
        mediator.load_state(std::path::Path::new(dir.trim()))?;
        println!("  loaded.");
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":check") {
        let mut forms = Vec::new();
        for tok in rest.split_whitespace() {
            forms.push(hermes::QueryForm::parse(tok)?);
        }
        let report = mediator.analyze(&forms);
        if report.is_clean() {
            println!("  no findings.");
        } else {
            for d in &report.diagnostics {
                println!("  {d}");
            }
            println!(
                "  ({} error(s), {} warning(s))",
                report.errors().len(),
                report.warnings().len()
            );
        }
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":materialize") {
        let mut forms = Vec::new();
        for tok in rest.split_whitespace() {
            forms.push(hermes::QueryForm::parse(tok)?);
        }
        let report = mediator.analyze_materialization(&forms);
        if report.diagnostics.is_empty() {
            println!("  no findings.");
        } else {
            for d in &report.diagnostics {
                println!("  {d}");
            }
            println!(
                "  ({} error(s), {} warning(s), {} note(s))",
                report.errors().len(),
                report.warnings().len(),
                report.notes().len()
            );
        }
        return Ok(Control::Continue);
    }
    if let Some(inv) = line.strip_prefix(":invariant") {
        let parsed = parse_invariant(inv.trim())?;
        mediator.caches().add_invariant(parsed)?;
        println!("  invariant added.");
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":explain") {
        print!("{}", mediator.explain(rest.trim())?);
        return Ok(Control::Continue);
    }
    if let Some(rest) = line.strip_prefix(":first") {
        let rest = rest.trim();
        let (k_text, query) = rest
            .split_once(' ')
            .ok_or_else(|| hermes::HermesError::Eval(":first needs `<k> ?- ...`".into()))?;
        let k: usize = k_text
            .parse()
            .map_err(|e| hermes::HermesError::Eval(format!("bad count `{k_text}`: {e}")))?;
        let query = query.trim().to_string();
        if state.remote.is_some() {
            remote_query(mediator, state, &query, Some(k as u64))?;
            return Ok(Control::Continue);
        }
        let req = with_tier_options(state, hermes::QueryRequest::new(query.as_str()).limit(k));
        let result = mediator.query(req)?;
        state.last_query = Some(query);
        print_result(&result);
        return Ok(Control::Continue);
    }
    // Anything else is a query.
    if state.remote.is_some() {
        remote_query(mediator, state, line, None)?;
        return Ok(Control::Continue);
    }
    let req = with_tier_options(state, hermes::QueryRequest::new(line));
    let result = mediator.query(req)?;
    state.last_query = Some(line.to_string());
    if !result.trace.is_empty() {
        print!("{}", hermes::core::trace::render(&result.trace));
    }
    print_result(&result);
    Ok(Control::Continue)
}

/// Ships a query to the `:connect`ed server, carrying the session's
/// `:tier`/`:budget`/`:deadline`/`:trace` settings in the frame.
fn remote_query(
    mediator: &Mediator,
    state: &mut ReplState,
    query: &str,
    limit: Option<u64>,
) -> hermes::Result<()> {
    let mut q = hermes::QueryFrame::new(query);
    q.limit = limit;
    q.tier = state.tier.map(|t| t.as_str().to_string());
    q.budget_us = state.budget.map(|b| b.as_micros());
    q.deadline_us = mediator.config().exec.deadline.map(|d| d.as_micros());
    q.trace = mediator.config().exec.collect_trace;
    let Some(client) = state.remote.as_mut() else {
        return Ok(());
    };
    let result = client.query(q)?;
    state.last_query = Some(query.to_string());
    for line in &result.done.trace {
        println!("{line}");
    }
    let header: Vec<String> = result.done.columns.clone();
    if !header.is_empty() {
        println!("  {}", header.join(" | "));
    }
    for row in &result.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }
    println!(
        "  ({} answers; {} us wall; {} source calls, {} cache hits{}{})",
        result.rows.len(),
        result.done.elapsed_us,
        result.done.source_calls,
        result.done.cache_hits,
        if result.done.tier_downgrades > 0 {
            format!("; {} downgrade(s)", result.done.tier_downgrades)
        } else {
            String::new()
        },
        if result.done.incomplete {
            "; INCOMPLETE"
        } else {
            ""
        },
    );
    Ok(())
}

/// Pretty-prints the server's nested stats record, one section per line.
fn print_remote_stats(stats: &Value) {
    let Value::Record(rec) = stats else {
        println!("  {stats}");
        return;
    };
    for (name, section) in rec.iter() {
        match section {
            Value::Record(fields) => {
                let cells: Vec<String> = fields.iter().map(|(k, v)| format!("{k} {v}")).collect();
                println!("  {name}: {}", cells.join(", "));
            }
            other => println!("  {name}: {other}"),
        }
    }
}

fn print_result(result: &hermes::QueryResult) {
    let header: Vec<String> = result.columns.iter().map(|c| c.to_string()).collect();
    if !header.is_empty() {
        println!("  {}", header.join(" | "));
    }
    for row in &result.rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("  {}", cells.join(" | "));
    }
    let first = result
        .t_first
        .map(|d| d.to_string())
        .unwrap_or_else(|| "-".into());
    println!(
        "  ({} answers; first {first}, all {}; {} source calls, {} cache hits{}{})",
        result.rows.len(),
        result.t_all,
        result.stats.actual_calls,
        result.stats.cim_exact + result.stats.cim_equal + result.stats.cim_partial,
        if result.failovers > 0 {
            format!("; {} failover(s)", result.failovers)
        } else {
            String::new()
        },
        if result.incomplete {
            "; INCOMPLETE"
        } else {
            ""
        },
    );
    if result.incomplete {
        for p in result.provenance.iter().filter(|p| !p.complete()) {
            let gaps: Vec<String> = p.gaps.iter().map(|g| g.to_string()).collect();
            println!("    incomplete: {} ({})", p.subgoal, gaps.join(", "));
        }
    }
}

/// Crude tty check without a dependency: honors `HERMES_REPL_FORCE_TTY`.
fn atty_stdout() -> bool {
    if std::env::var_os("HERMES_REPL_FORCE_TTY").is_some() {
        return true;
    }
    // Piped usage (tests, scripts) sets no env; default to non-interactive
    // echo so transcripts are self-describing.
    false
}
