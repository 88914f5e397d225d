//! Integration tests for the static analyzer: every diagnostic class has a
//! fixture that trips it, the shipped example programs lint clean, the
//! `hermes-lint` binary reports through its exit status, and the mediator
//! refuses to register a program the analyzer rejects.

use hermes::{
    analyze_source, analyze_source_with, AnalyzeOptions, DiagCode, HermesError, Mediator, Network,
    Severity,
};
use std::path::{Path, PathBuf};
use std::process::Command;

const MATERIALIZE: AnalyzeOptions = AnalyzeOptions {
    coverage: false,
    materialize: true,
};

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn fixture_src(name: &str) -> String {
    let path = repo_path(&format!("tests/fixtures/{name}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn analyze_fixture(name: &str) -> hermes::AnalysisReport {
    analyze_source(&fixture_src(name)).expect("fixture parses")
}

fn analyze_fixture_materialized(name: &str) -> hermes::AnalysisReport {
    analyze_source_with(&fixture_src(name), MATERIALIZE).expect("fixture parses")
}

#[test]
fn graph_fixture_trips_dependency_diagnostics() {
    let report = analyze_fixture("bad_graph.hms");
    assert!(
        report.has_code(DiagCode::RecursiveCycle),
        "{}",
        report.render()
    );
    assert!(
        report.has_code(DiagCode::UndefinedPredicate),
        "{}",
        report.render()
    );
    assert!(
        report.has_code(DiagCode::UnreachablePredicate),
        "{}",
        report.render()
    );
}

#[test]
fn adornment_fixture_trips_groundability_diagnostics() {
    let report = analyze_fixture("bad_adorn.hms");
    assert!(
        report.has_code(DiagCode::UngroundableVariable),
        "{}",
        report.render()
    );
    assert!(
        report.has_code(DiagCode::InfeasibleAdornment),
        "{}",
        report.render()
    );
}

#[test]
fn signature_fixture_trips_all_three_signature_diagnostics() {
    let report = analyze_fixture("bad_sigs.hms");
    assert!(
        report.has_code(DiagCode::UnknownDomain),
        "{}",
        report.render()
    );
    assert!(
        report.has_code(DiagCode::UnknownFunction),
        "{}",
        report.render()
    );
    assert!(
        report.has_code(DiagCode::ArityMismatch),
        "{}",
        report.render()
    );
}

#[test]
fn invariant_fixture_trips_invariant_diagnostics() {
    let report = analyze_fixture("bad_invariants.hms");
    assert!(
        report.has_code(DiagCode::FreeConditionVariable),
        "{}",
        report.render()
    );
    assert!(
        report.has_code(DiagCode::DuplicateInvariant),
        "{}",
        report.render()
    );
}

#[test]
fn tier_fixture_trips_the_cache_starvation_diagnostic() {
    let report = analyze_fixture("bad_tier.hms");
    assert!(
        report.has_code(DiagCode::CacheStarved),
        "{}",
        report.render()
    );
    // A warning, not an error: the program still runs at the Full tier.
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn coverage_pass_flags_unprofiled_call_patterns() {
    // Pass 5 needs a DCSM; an empty one can only cost from the prior.
    let src = std::fs::read_to_string(repo_path("examples/programs/logistics.hms")).unwrap();
    let program = hermes::parse_program(&src).unwrap();
    assert!(!program.declarations.query_forms.is_empty());
    let dcsm = hermes::Dcsm::new();
    // The analyzer reads the program's declared forms and signatures.
    let report = hermes::Analyzer::new(&program).with_dcsm(&dcsm).analyze();
    assert!(
        report.has_code(DiagCode::EstimatorBlindSpot),
        "{}",
        report.render()
    );
    assert!(!report.has_errors(), "{}", report.render());
}

#[test]
fn shipped_example_programs_lint_clean() {
    let dir = repo_path("examples/programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/programs exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "hms") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let report = analyze_source(&src)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert!(
            report.is_clean(),
            "{} has findings:\n{}",
            path.display(),
            report.render()
        );
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected the example programs, found {checked}"
    );
}

#[test]
fn lint_binary_exit_status_reflects_findings() {
    let lint = env!("CARGO_BIN_EXE_hermes-lint");

    let clean = Command::new(lint)
        .arg(repo_path("examples/programs"))
        .output()
        .expect("hermes-lint runs");
    assert!(
        clean.status.success(),
        "examples should lint clean:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    // Errors exit 2.
    let dirty = Command::new(lint)
        .arg(repo_path("tests/fixtures"))
        .output()
        .expect("hermes-lint runs");
    assert_eq!(dirty.status.code(), Some(2));
    let out = String::from_utf8_lossy(&dirty.stdout);
    for code in [
        "HA001", "HA002", "HA005", "HA010", "HA020", "HA030", "HA060",
    ] {
        assert!(out.contains(code), "missing {code} in:\n{out}");
    }

    // Warnings alone exit 1; --strict promotes them to the error class.
    let warn = Command::new(lint)
        .arg("--coverage")
        .arg(repo_path("examples/programs/logistics.hms"))
        .output()
        .expect("hermes-lint runs");
    assert_eq!(warn.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&warn.stdout).contains("HA040"));
    let strict = Command::new(lint)
        .args(["--coverage", "--strict"])
        .arg(repo_path("examples/programs/logistics.hms"))
        .output()
        .expect("hermes-lint runs");
    assert_eq!(strict.status.code(), Some(2));

    // Notes never affect the exit status.
    let notes = Command::new(lint)
        .arg("--materialize")
        .arg(repo_path("tests/fixtures/materialize_safe.hms"))
        .output()
        .expect("hermes-lint runs");
    assert_eq!(notes.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&notes.stdout).contains("HA070"));

    // Usage trouble exits 3.
    let usage = Command::new(lint).output().expect("hermes-lint runs");
    assert_eq!(usage.status.code(), Some(3));
    let missing = Command::new(lint)
        .arg(repo_path("tests/fixtures/no_such_file.hms"))
        .output()
        .expect("hermes-lint runs");
    assert_eq!(missing.status.code(), Some(3));
}

#[test]
fn lint_binary_explains_codes() {
    let lint = env!("CARGO_BIN_EXE_hermes-lint");
    let explain = Command::new(lint)
        .args(["--explain", "HA071"])
        .output()
        .expect("hermes-lint runs");
    assert_eq!(explain.status.code(), Some(0));
    let out = String::from_utf8_lossy(&explain.stdout);
    assert!(out.contains("HA071"), "{out}");
    assert!(out.contains("volatile"), "{out}");

    let unknown = Command::new(lint)
        .args(["--explain", "HA999"])
        .output()
        .expect("hermes-lint runs");
    assert_eq!(unknown.status.code(), Some(3));
}

#[test]
fn materialize_safe_fixture_is_inventoried() {
    // Opt-in pass off: the fixture is clean.
    let plain = analyze_fixture("materialize_safe.hms");
    assert!(plain.is_clean(), "{}", plain.render());

    let report = analyze_fixture_materialized("materialize_safe.hms");
    let safe: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == DiagCode::MaterializeSafe)
        .collect();
    assert_eq!(safe.len(), 2, "{}", report.render());
    // Alpha-equivalent bodies share one fingerprint...
    assert_eq!(safe[0].fingerprint, safe[1].fingerprint);
    // ...which surfaces as a sharing opportunity and invalidation scopes.
    assert!(
        report.has_code(DiagCode::SharedSubplan),
        "{}",
        report.render()
    );
    let scopes: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == DiagCode::InvalidationScope)
        .collect();
    assert_eq!(scopes.len(), 2, "{}", report.render());
    // Notes only: the exit-relevant counts stay zero.
    assert!(!report.has_errors());
    assert!(report.warnings().is_empty());
}

#[test]
fn materialize_volatile_fixture_blocks_the_feed_subplan() {
    let plain = analyze_fixture("materialize_volatile.hms");
    assert!(plain.is_clean(), "{}", plain.render());

    let report = analyze_fixture_materialized("materialize_volatile.hms");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::MaterializeVolatile && d.message.contains("feed:quote_bf")),
        "{}",
        report.render()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::MaterializeSafe && d.message.contains("safe")),
        "{}",
        report.render()
    );
}

#[test]
fn materialize_recursive_fixture_demands_delta_maintenance() {
    let report = analyze_fixture_materialized("materialize_recursive.hms");
    let rec: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == DiagCode::MaterializeRecursive)
        .collect();
    assert_eq!(rec.len(), 2, "{}", report.render());
    assert!(!report.has_code(DiagCode::MaterializeSafe));
    // The default dependency pass still reports the recursion itself.
    assert!(report.has_code(DiagCode::RecursiveCycle));
}

#[test]
fn directive_edge_cases_are_diagnostics_not_silent_skips() {
    let src = "\
        %! frobnicate yes\n\
        %! query p(f)\n\
        %! query p(f)\n\
        %! cache d:\n\
        %! volatile \n\
        p(A) :- in(A, d:f()).\n";
    let report = analyze_source(src).expect("directive trouble never aborts the lint");
    let codes: Vec<DiagCode> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(
        codes
            .iter()
            .filter(|c| **c == DiagCode::MalformedDirective)
            .count(),
        2,
        "{}",
        report.render()
    );
    assert!(codes.contains(&DiagCode::UnknownDirective));
    assert!(codes.contains(&DiagCode::DuplicateDirective));
    // Malformed/unknown are errors (they silently disable checks),
    // verbatim duplicates only warn.
    assert!(report.has_errors());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::DuplicateDirective && d.severity == Severity::Warning));
}

#[test]
fn lint_binary_json_output_round_trips() {
    let lint = env!("CARGO_BIN_EXE_hermes-lint");
    let out = Command::new(lint)
        .args(["--materialize", "--format", "json"])
        .arg(repo_path("tests/fixtures/materialize_safe.hms"))
        .output()
        .expect("hermes-lint runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let files = hermes::report_from_json(&text)
        .unwrap_or_else(|e| panic!("emitted JSON must validate: {e}\n{text}"));
    assert_eq!(files.len(), 1);
    assert!(files[0].error.is_none());
    assert!(files[0]
        .report
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::MaterializeSafe && d.fingerprint.is_some()));

    // SARIF mode parses as JSON and names the fired rules.
    let sarif = Command::new(lint)
        .args(["--materialize", "--format", "sarif"])
        .arg(repo_path("tests/fixtures/materialize_safe.hms"))
        .output()
        .expect("hermes-lint runs");
    let doc = hermes::analysis::json::parse(&String::from_utf8_lossy(&sarif.stdout))
        .expect("SARIF is valid JSON");
    assert_eq!(
        doc.get("version").and_then(|v| v.as_str()),
        Some("2.1.0"),
        "SARIF version"
    );
}

#[test]
fn lint_snapshot_of_examples_matches_committed_expectation() {
    // The machine-readable output is byte-stable; this is its only
    // check. Regenerate with
    //   cargo run --bin hermes-lint -- --materialize --format json \
    //     examples/programs > tests/expectations/examples_lint.json
    // from the repository root.
    let lint = env!("CARGO_BIN_EXE_hermes-lint");
    let out = Command::new(lint)
        .current_dir(repo_path(""))
        .args(["--materialize", "--format", "json", "examples/programs"])
        .output()
        .expect("hermes-lint runs");
    assert_eq!(out.status.code(), Some(0));
    let got = String::from_utf8(out.stdout).expect("utf-8");
    let want = std::fs::read_to_string(repo_path("tests/expectations/examples_lint.json"))
        .expect("committed snapshot exists");
    assert_eq!(
        got, want,
        "lint snapshot drifted; regenerate tests/expectations/examples_lint.json"
    );
}

#[test]
fn mediator_rejects_program_the_analyzer_fails() {
    // No domains are placed, so every domain call is an unknown domain:
    // building from source runs the analyzer and refuses the program.
    let src = "p(A) :- in(A, d:f('x')).";
    let refused = Mediator::from_source(src, Network::new(1)).err();
    assert!(
        matches!(&refused, Some(HermesError::Analysis { diagnostics })
            if diagnostics.iter().any(|d| d.contains("HA020"))),
        "{refused:?}"
    );
    let program = hermes::parse_program(src).unwrap();
    let mediator = Mediator::new(program, Network::new(1)).unwrap();
    let err = mediator
        .register_source("q(A) :- in(A, nosuch:fetch('k')).", &[])
        .unwrap_err();
    match err {
        HermesError::Analysis { diagnostics } => {
            assert!(
                diagnostics.iter().any(|d| d.contains("HA020")),
                "{diagnostics:?}"
            );
        }
        other => panic!("expected an analysis rejection, got: {other}"),
    }
}
