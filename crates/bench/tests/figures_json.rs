//! End-to-end tests of the `figures` binary's machine interface.
//!
//! The contract under test: `--json` output must stay machine-parseable
//! even when cells fail (exit code 2). The failure diagnostics go to
//! stderr and into the JSON document's `failures` array — never interleaved
//! into stdout or silently dropped from the dump. Fault injection
//! (`--inject-fault`) drives the partial path deterministically. Bad
//! arguments exit 1 with the usage text before anything runs.

use ppf_bench::figures::ExperimentDoc;
use ppf_types::{FromJson, PpfErrorKind};
use std::path::PathBuf;
use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn partial_failure_keeps_stdout_parseable_and_dumps_failures() {
    let dir = temp_dir("ppf-figures-json-fault-test");
    let out = figures()
        .args(["--insts", "3000", "--inject-fault", "50", "--json"])
        .arg(&dir)
        .arg("fig2")
        .output()
        .expect("figures binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();

    // The sweep completed around the injected fault: exit 2, not 1.
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );

    // The human table still renders, but the per-cell error dump lives on
    // stderr so stdout stays clean for machine consumers.
    assert!(stdout.contains("partial results"), "{stdout}");
    assert!(
        !stdout.contains("failed cells:"),
        "appendix leaked to stdout:\n{stdout}"
    );
    assert!(stderr.contains("failed cells:"), "{stderr}");
    assert!(stderr.contains("injected fault"), "{stderr}");

    // The JSON document parses and carries the structured failure.
    let json = std::fs::read_to_string(dir.join("fig2.json")).expect("json dump written");
    let doc = ExperimentDoc::from_json_str(&json).expect("dump parses as ExperimentDoc");
    assert_eq!(doc.experiment, "fig2");
    assert!(!doc.reports.is_empty(), "surviving cells still dumped");
    assert_eq!(doc.failures.len(), 1, "exactly the injected fault failed");
    assert_eq!(doc.failures[0].error.kind, PpfErrorKind::CellPanic);
    assert!(doc.failures[0].error.message.contains("injected fault"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn green_run_dumps_doc_with_empty_failures() {
    let dir = temp_dir("ppf-figures-json-green-test");
    let out = figures()
        .args(["--insts", "3000", "--json"])
        .arg(&dir)
        .arg("fig2")
        .output()
        .expect("figures binary runs");
    assert!(out.status.success());
    let json = std::fs::read_to_string(dir.join("fig2.json")).unwrap();
    let doc = ExperimentDoc::from_json_str(&json).unwrap();
    assert!(doc.failures.is_empty());
    assert_eq!(doc.reports.len(), 10, "fig1_2 grid: 2 labels x 5 workloads");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_flag_streams_interval_records_per_cell() {
    let dir = temp_dir("ppf-figures-telemetry-cli-test");
    let out = figures()
        .args(["--insts", "20000", "--telemetry"])
        .arg(&dir)
        .arg("fig2")
        .output()
        .expect("figures binary runs");
    assert!(out.status.success());
    let cell_dir = dir.join("fig2");
    let streams: Vec<_> = std::fs::read_dir(&cell_dir)
        .expect("per-experiment telemetry dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        .collect();
    assert_eq!(streams.len(), 10, "one stream per grid cell");
    for entry in streams {
        let text = std::fs::read_to_string(entry.path()).unwrap();
        let records = ppf_types::telemetry::parse_jsonl(&text).expect("stream parses");
        assert!(!records.is_empty(), "{:?} is empty", entry.path());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_insts_or_seeds_is_a_usage_error() {
    for flag in ["--insts", "--seeds"] {
        let out = figures()
            .args([flag, "0", "fig2"])
            .output()
            .expect("figures binary runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} 0: {stderr}");
        assert!(stderr.contains("needs a positive number"), "{stderr}");
        assert!(stderr.contains("usage: figures"), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} 0 printed tables");
    }
}
