//! `bench` — time-series inspection of one simulated cell.
//!
//! ```text
//! bench timeline [WORKLOAD] [--filter none|PA|PC|hybrid|perceptron]
//!                [--insts N] [--interval CYCLES] [--seed S] [--json]
//! ```
//!
//! `timeline` runs one cold (no warm-up) cell with interval telemetry and
//! renders the filter's warm-up curve — `fraction_good` leaving its
//! weakly-good init, the transient bad-prefetch burst, and the interval at
//! which the history table stabilizes. `--json` emits the full record
//! series plus analysis as one JSON document instead of the table.
//!
//! With `--attack KIND` the stream carries an adversarial campaign
//! (poison, alias-flood, phase-shift or interleave; window set by
//! `--attack-start`/`--attack-stop` in instructions) and the report gains
//! a time-to-recover analysis: how far `fraction_good` fell under attack
//! and how many intervals after attack-off it took to climb back within
//! the recovery band of the pre-attack baseline.
//!
//! Exit codes: 0 success, 1 usage or run errors.

use ppf_bench::timeline;
use ppf_types::{FilterKind, ToJson};
use ppf_workloads::{AdversarySpec, AttackKind, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: bench timeline [WORKLOAD] [--filter none|PA|PC|hybrid|perceptron]\n\
     \x20                     [--insts N] [--interval CYCLES] [--seed S] [--json]\n\
     \x20                     [--attack poison|alias-flood|phase-shift|interleave]\n\
     \x20                     [--attack-start N] [--attack-stop N]";

/// The filter kind whose report label is `name`, ignoring case.
fn parse_filter(name: &str) -> Option<FilterKind> {
    FilterKind::ALL
        .into_iter()
        .find(|kind| kind.label().eq_ignore_ascii_case(name))
}

fn timeline_main(args: &[String]) -> ExitCode {
    let mut settings = timeline::TimelineSettings::default();
    let mut json = false;
    let mut attack: Option<AttackKind> = None;
    let mut attack_start: Option<u64> = None;
    let mut attack_stop: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--attack" => {
                i += 1;
                match args.get(i).and_then(|s| AttackKind::from_name(s)) {
                    Some(kind) => attack = Some(kind),
                    None => {
                        eprintln!(
                            "--attack needs one of poison|alias-flood|phase-shift|interleave\n{USAGE}"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--attack-start" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => attack_start = Some(n),
                    None => {
                        eprintln!("--attack-start needs an instruction index\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--attack-stop" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => attack_stop = Some(n),
                    None => {
                        eprintln!("--attack-stop needs an instruction index\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--filter" => {
                i += 1;
                match args.get(i).and_then(|s| parse_filter(s)) {
                    Some(kind) => settings.filter = kind,
                    None => {
                        eprintln!("--filter needs one of none|PA|PC|hybrid|perceptron\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--insts" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => settings.insts = n,
                    _ => {
                        eprintln!("--insts needs a positive number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--interval" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => settings.interval_cycles = n,
                    _ => {
                        eprintln!("--interval needs a positive cycle count\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => settings.seed = n,
                    None => {
                        eprintln!("--seed needs a number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown argument '{flag}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            name => match Workload::from_name(name) {
                Some(w) => settings.workload = w,
                None => {
                    eprintln!("unknown workload '{name}'");
                    return ExitCode::FAILURE;
                }
            },
        }
        i += 1;
    }
    match attack {
        Some(kind) => {
            let mut spec = AdversarySpec::campaign(kind);
            if let Some(s) = attack_start {
                spec.start = s;
            }
            if let Some(s) = attack_stop {
                spec.stop = s;
            }
            if spec.start >= spec.stop {
                eprintln!("--attack-start must be below --attack-stop\n{USAGE}");
                return ExitCode::FAILURE;
            }
            settings.attack = Some(spec);
        }
        None if attack_start.is_some() || attack_stop.is_some() => {
            eprintln!("--attack-start/--attack-stop need --attack KIND\n{USAGE}");
            return ExitCode::FAILURE;
        }
        None => {}
    }
    match timeline::run(&settings) {
        Ok(report) => {
            if json {
                println!("{}", report.to_json_pretty());
            } else {
                print!("{}", timeline::render(&report));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("timeline failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("timeline") => timeline_main(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("no subcommand given\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
