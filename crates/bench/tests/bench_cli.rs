//! End-to-end tests of the `bench` binary's command line: `timeline` is its
//! only subcommand, anything else is a usage error, and `--filter` accepts
//! every filter kind by its report label.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench binary runs")
}

#[test]
fn no_arguments_prints_timeline_usage() {
    let out = bench(&[]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("usage: bench timeline "), "{stderr}");
    assert_eq!(stderr.matches("bench ").count(), 1, "{stderr}");
}

#[test]
fn throughput_is_an_unknown_subcommand() {
    let out = bench(&["throughput"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}

#[test]
fn timeline_runs_the_perceptron_filter() {
    let out = bench(&[
        "timeline",
        "em3d",
        "--filter",
        "perceptron",
        "--insts",
        "20000",
        "--json",
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{stderr}");
    assert!(stdout.contains("\"filter\": \"perceptron\""), "{stdout}");
}
