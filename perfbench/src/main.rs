//! `hermes-bench`: the repository's one reproducible benchmark — four
//! workloads over one world, ten end-to-end metrics measured with
//! tracing off, and per-layer numbers from a separate traced replay.
//! See `README.md` beside this package.

mod affinity;
mod compare;
mod json;
mod layers;
mod loadgen;
mod metrics;
mod proc;
mod report;
mod stats;
mod trace;
mod workloads;
mod world;

use json::Json;
use metrics::{per_layer, Workload, END_TO_END, LADDER_QPS, SHOULD_MOVE, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunOutput, RunParams};

const HELP: &str = "\
usage:
  hermes-bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
      one workload in this process; the last line of standard output is
      one JSON object {correct, attempted, failed, metrics}
  hermes-bench run (--all | --workload NAME) [--seed N] [--seconds S]
                   [--repeat N] [--traced] [--smoke] [--out DIR]
      each workload in a child process, untraced then traced; prints every
      metric as `name value unit` and writes DIR/hermes-bench.json
      --repeat N   untraced passes per workload; from 3 on the envelope
                   states each metric's run-to-run spread
      --traced     only the traced pass
      --smoke      shape and invariants only, short windows, nothing pinned
  hermes-bench list                 workloads, metrics, units and bounds
  hermes-bench compare A.json B.json
      per workload x end-to-end metric: base, new, ratio, bound, and
      ok | worse | unresolved (a file's spread is over the bound, or
      unknown) | missing (only one file has it); exits 1 on worse or missing
  hermes-bench manifest             prints BENCHMARK.json
";

/// Seconds one run measures unless told otherwise; also `run_seconds`
/// of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 25.0;
const DEFAULT_OUT: &str = "hermes-bench-out";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced_only: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
    /// Child of `run`: the last line carries everything, not only the
    /// driver's keys.
    full: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        traced_only: false,
        smoke: false,
        repeat: 1,
        out: None,
        full: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn number<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{name}: not a number: {v}"))
        }
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--all" => a.all = true,
            "--seed" => a.seed = number("--seed", value("--seed")?)?,
            "--seconds" => a.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => a.trace = number::<u8>("--trace", value("--trace")?)? != 0,
            "--traced" => a.traced_only = true,
            "--smoke" => a.smoke = true,
            "--repeat" => a.repeat = number::<usize>("--repeat", value("--repeat")?)?.max(1),
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--full" => a.full = true,
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other => a.positional.push(other.to_string()),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    metrics::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// Runs one workload in this process and prints its result.
fn run_one(a: &Args) -> Result<ExitCode, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let params = RunParams {
        workload: find_workload(name)?,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(RUN_SECONDS),
        traced: a.trace,
        smoke: a.smoke,
    };
    let out = workloads::run(&params);
    println!(
        "{} seed {} {}s {}",
        name,
        params.seed,
        params.seconds,
        if params.traced { "traced" } else { "untraced" }
    );
    print!("{}", report::metric_lines(&out.end_to_end));
    print!("{}", report::metric_lines(&out.per_layer));
    if !out.stages.is_empty() {
        print!("{}", report::stage_lines(&out.stages));
    }
    for v in &out.violations {
        eprintln!("hermes-bench: {name}: VIOLATION: {v}");
    }
    // A wall-clock reading: it says whether this run's stage table may be
    // believed, not whether the product is right.
    let stage_sum = out
        .per_layer
        .iter()
        .find(|m| m.name == "trace.stage_sum_ratio");
    if let Some(m) = stage_sum.filter(|m| !params.smoke && !(0.9..=1.1).contains(&m.value)) {
        eprintln!(
            "hermes-bench: {name}: trace.stage_sum_ratio {:.3} is outside 0.9-1.1: \
             the stages do not add up to the untraced latency on this run",
            m.value
        );
    }
    if let Some(dir) = &a.out {
        if !out.spans.is_empty() {
            write_spans(dir, name, &out)?;
        }
    }
    if a.full {
        println!("{}", json::compact(&report::full_json(&out)));
    } else {
        println!("{}", report::driver_line(&out, params.traced));
    }
    Ok(if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_spans(dir: &Path, workload: &str, out: &RunOutput) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.spans.json"));
    std::fs::write(&path, json::compact(&trace::spans_json(&out.spans)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one pass of one workload in a child process (so peak memory and
/// CPU time are that workload's own), forwards what it prints, and
/// returns its full result.
fn run_child(
    a: &Args,
    workload: &str,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--full"])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    json::parse(last).map_err(|e| {
        format!(
            "the {workload} child ({}) printed no result: {e}",
            output.status
        )
    })
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `run`: every selected workload, untraced (`--repeat` times) then
/// traced, and one envelope.
fn run_many(a: &Args) -> Result<ExitCode, String> {
    let selected: Vec<&'static Workload> = match (&a.workload, a.all) {
        (Some(name), _) => vec![find_workload(name)?],
        (None, true) => WORKLOADS.iter().collect(),
        (None, false) => return Err("run needs --all or --workload NAME".into()),
    };
    let seconds = a.seconds.unwrap_or(if a.smoke { 0.8 } else { RUN_SECONDS });
    let out_dir = a.out.clone().unwrap_or_else(|| PathBuf::from(DEFAULT_OUT));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut workloads_json = Vec::new();
    let mut all_correct = true;
    for w in selected {
        let mut untraced = Vec::new();
        if !a.traced_only {
            for _ in 0..a.repeat {
                untraced.push(run_child(a, w.name, seconds, false, &out_dir)?);
            }
        }
        let traced = run_child(a, w.name, seconds, true, &out_dir)?;
        let doc = report::workload_json(&untraced, Some(&traced));
        all_correct &= doc.get("correct") == Some(&Json::Bool(true));
        workloads_json.push((w.name.to_string(), doc));
    }

    let envelope = Json::obj(vec![
        ("bench", Json::Str("hermes-bench".into())),
        ("schema", Json::Num(report::SCHEMA)),
        ("git_rev", Json::Str(git_rev())),
        ("nproc", Json::Num(proc::nproc() as f64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(a.repeat as f64)),
        ("smoke", Json::Bool(a.smoke)),
        (
            "ladder_qps",
            Json::Arr(
                LADDER_QPS
                    .iter()
                    .map(|r| Json::Num(f64::from(*r)))
                    .collect(),
            ),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let path = out_dir.join("hermes-bench.json");
    std::fs::write(&path, envelope.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if !a.traced_only && a.repeat < report::MIN_RUNS_FOR_SPREAD {
        println!(
            "--repeat {} is under {}: the envelope states no run-to-run spread, and `compare` \
             will call every timing row unresolved",
            a.repeat,
            report::MIN_RUNS_FOR_SPREAD
        );
    }
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("hermes-bench: a workload broke an invariant or answered wrongly (see above)");
        Ok(ExitCode::FAILURE)
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}\n  {:<18} why: {}", w.name, w.shape, "", w.why);
    }
    println!(
        "\nend-to-end metrics (ladder of wire_open_mixed: {:?} qps):",
        LADDER_QPS
    );
    for m in &END_TO_END {
        let on = if m.workloads.is_empty() {
            "all".to_string()
        } else {
            m.workloads.join(",")
        };
        println!(
            "  {:<22} {:<9} {:<7} bound {:<6} on {:<17} {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound.describe(),
            on,
            m.note
        );
    }
    println!("\nper-layer metrics (from the traced run):");
    for (layer, moves) in &SHOULD_MOVE {
        println!("  [{layer}] should move: {moves}");
        for l in per_layer().filter(|l| l.layer == *layer) {
            println!("    {:<32} {:<9} {}", l.name, l.unit, l.better.name());
        }
    }
}

/// `BENCHMARK.json`, generated from the metric tables so the two cannot
/// drift apart.
fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["perfbench"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.driver)
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.name().into())),
                            ("bound", Json::Num(m.bound.ratio())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .map(|l| {
                        Json::obj(vec![
                            ("name", Json::Str(l.name.into())),
                            ("unit", Json::Str(l.unit.into())),
                            ("better", Json::Str(l.better.name().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [base, new] = paths else {
        return Err("compare needs exactly two envelope files".into());
    };
    let read = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (text, worse) = compare::compare(&read(base)?, &read(new)?)?;
    print!("{text}");
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "list" | "compare" | "manifest")) => (c, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let outcome = parse_args(rest).and_then(|a| match command {
        "run" => run_many(&a),
        "list" => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        "manifest" => {
            print!("{}", manifest().render());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => compare_files(&a.positional),
        _ => run_one(&a),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("hermes-bench: {message}");
            }
            eprint!("{HELP}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        let argv: Vec<String> = text.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_driver_invocation_parses() {
        let a = args("--workload wire_warm_point --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire_warm_point"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        assert!(!args("--workload x --trace 0").unwrap().trace);
        assert!(args("--seed").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--bogus").is_err());
        assert!(find_workload("nope").is_err());
    }

    #[test]
    fn committed_manifest_matches_the_metric_tables() {
        // BENCHMARK.json lives at the repository root, outside this
        // package; where it is present it must be what `manifest` prints.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(text) = std::fs::read_to_string(path) {
            assert_eq!(
                json::parse(&text).unwrap(),
                manifest(),
                "regenerate with `hermes-bench manifest > BENCHMARK.json`"
            );
        }
        let m = manifest();
        assert!(m.render().len() < 64 * 1024);
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(m.get(key).is_some(), "{key}");
        }
    }
}
