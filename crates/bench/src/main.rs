//! `figures` — regenerate every table and figure of the paper.
//!
//! ```text
//! figures [--insts N] [--seeds K] [--json DIR] [--checkpoint DIR]
//!         [--telemetry DIR] [--shard K/N] <experiment>...
//! figures all
//! figures merge --out DIR FRAGDIR...
//! figures --list
//! ```
//!
//! Experiments: `table1 table2 fig1 fig2 fig4 ... fig16 nsp-sdp
//! cache-vs-table` and the `ablate-*` grids (`--list` enumerates them).
//! Each prints an aligned text table with the same rows/series as the
//! paper's figure, plus the mean the paper quotes in its prose. With
//! `--json DIR` the raw reports are also written as JSON. With
//! `--checkpoint DIR` every completed cell is persisted and a re-run
//! resumes, executing only missing or previously failed cells. With
//! `--telemetry DIR` every cell streams per-interval metrics to
//! `DIR/<experiment>/<cell>.jsonl`.
//!
//! With `--shard K/N` (requires `--json`) only the cells owned by shard
//! `K` of `N` run; the JSON directory receives one
//! `<experiment>.fragment.json` per experiment plus a `MANIFEST.json`
//! describing the coverage. `figures merge --out DIR FRAGDIR...`
//! reassembles such fragment directories into per-experiment documents
//! byte-identical to an unsharded `--json` run.
//!
//! Exit codes: 0 on success, 1 on usage or I/O errors (nothing runs on a
//! bad invocation) and on inconsistent merge inputs, 2 when the sweep
//! completed but some cells failed — or when a merge's inputs are
//! consistent but don't cover every cell. Tables go to stdout; the
//! per-cell failure appendix goes to stderr, so stdout stays
//! machine-parseable even on a partial run.

use ppf_bench::figures::{self, ExperimentOptions};
use ppf_bench::shard::{self, MergeOutcome, ShardManifest, ShardSpec};
use ppf_types::ToJson;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: figures [--insts N] [--seeds K] [--json DIR] [--checkpoint DIR] \
     [--telemetry DIR] [--inject-fault N] [--shard K/N] <experiment>...\n\
     \x20      figures merge --out DIR FRAGDIR...\n\
     \x20      figures --list";

/// Exit code for "the sweep ran, but some cells failed" and for "the merge
/// inputs are consistent but don't cover every cell".
const EXIT_PARTIAL: u8 = 2;

fn print_experiments() {
    println!("experiments: {}", figures::EXPERIMENTS.join(" "));
    println!("             all");
}

/// `figures merge --out DIR FRAGDIR...`: reassemble shard fragment
/// directories into unsharded per-experiment documents.
fn run_merge(args: &[String]) -> ExitCode {
    let mut out_dir: Option<PathBuf> = None;
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(d) => out_dir = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("--out needs a directory\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown merge flag '{flag}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
        i += 1;
    }
    let Some(out_dir) = out_dir else {
        eprintln!("merge needs --out DIR\n{USAGE}");
        return ExitCode::FAILURE;
    };
    if dirs.is_empty() {
        eprintln!("merge needs at least one fragment directory\n{USAGE}");
        return ExitCode::FAILURE;
    }
    match shard::merge_shards(&dirs, &out_dir) {
        Ok(MergeOutcome::Complete(summary)) => {
            println!(
                "merged {} shard(s): {} experiments, {} cells -> {}",
                summary.shards,
                summary.experiments,
                summary.cells,
                out_dir.display()
            );
            ExitCode::SUCCESS
        }
        Ok(MergeOutcome::Partial { missing }) => {
            // The gap report is the product here: a fleet operator needs
            // to know exactly which cells to re-run, not just "incomplete".
            eprintln!("merge incomplete — coverage gaps (nothing written):");
            for (experiment, indices) in &missing {
                eprintln!(
                    "  {experiment}: {} cell(s) missing {indices:?}",
                    indices.len()
                );
            }
            ExitCode::from(EXIT_PARTIAL)
        }
        Err(e) => {
            eprintln!("merge: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        return run_merge(&args[1..]);
    }
    let mut insts = ppf_sim::experiments::DEFAULT_INSTRUCTIONS;
    let mut opts = ExperimentOptions::default();
    let mut names: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--insts" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => insts = n,
                    None => {
                        eprintln!("--insts needs a number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seeds" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => opts.seeds = n,
                    _ => {
                        eprintln!("--seeds needs a positive number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(d) => opts.json_dir = Some(d.clone()),
                    None => {
                        eprintln!("--json needs a directory\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--checkpoint" => {
                i += 1;
                match args.get(i) {
                    Some(d) => opts.checkpoint = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("--checkpoint needs a directory\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--telemetry" => {
                i += 1;
                match args.get(i) {
                    Some(d) => opts.telemetry = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("--telemetry needs a directory\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--inject-fault" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => opts.inject_fault = Some(n),
                    None => {
                        eprintln!("--inject-fault needs an instruction number\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--shard" => {
                i += 1;
                match args.get(i).map(|s| ShardSpec::parse(s)) {
                    Some(Ok(s)) => opts.shard = Some(s),
                    _ => {
                        eprintln!("--shard needs K/N with 1 <= K <= N\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--list" => {
                for name in figures::EXPERIMENTS {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                print_experiments();
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag '{flag}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
            name => names.push(name.to_string()),
        }
        i += 1;
    }
    if opts.shard.is_some() && opts.json_dir.is_none() {
        // A shard's entire product is its fragments; without --json it
        // would do work and throw the results away.
        eprintln!("--shard requires --json DIR (fragments are the shard's output)\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if names.is_empty() {
        eprintln!("no experiment given; try --help");
        return ExitCode::FAILURE;
    }
    if names.iter().any(|n| n == "all") {
        names = figures::EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    // Validate every name before running anything: a typo must not waste a
    // sweep on the experiments listed before it.
    let unknown: Vec<&String> = names
        .iter()
        .filter(|n| !figures::EXPERIMENTS.contains(&n.as_str()))
        .collect();
    if !unknown.is_empty() {
        for n in unknown {
            eprintln!("unknown experiment '{n}'");
        }
        print_experiments();
        return ExitCode::FAILURE;
    }
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let outputs = match figures::run_experiments(&names, insts, &opts) {
        Ok(outputs) => outputs,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed_cells = 0usize;
    let (mut loaded, mut executed) = (0usize, 0usize);
    let mut manifest_experiments = Vec::new();
    for out in outputs {
        println!("{}", out.body);
        if !out.failures.is_empty() {
            // Diagnostics to stderr: stdout must stay parseable.
            eprint!("{}", figures::failure_appendix(&out.failures));
        }
        failed_cells += out.failed_cells;
        loaded += out.loaded_cells;
        executed += out.executed_cells;
        manifest_experiments.extend(out.manifest);
    }
    if opts.checkpoint.is_some() && loaded + executed > 0 {
        eprintln!("checkpoint: {loaded} cell runs reloaded, {executed} executed");
    }
    // Sharded mode: after the whole invocation, write the shard's
    // self-description beside its fragments so `figures merge` can
    // validate coverage without re-deriving any grid.
    if let (Some(s), Some(dir)) = (opts.shard, &opts.json_dir) {
        let manifest = ShardManifest {
            schema_version: shard::SHARD_SCHEMA_VERSION,
            shard_index: s.index,
            shard_count: s.count,
            insts,
            seeds: opts.seeds as u64,
            experiments: manifest_experiments,
        };
        let path = PathBuf::from(dir).join(shard::MANIFEST_FILE);
        if let Err(e) = std::fs::write(&path, manifest.to_json_pretty()) {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("[shard {s}] manifest: {}", path.display());
    }
    if failed_cells > 0 {
        eprintln!("{failed_cells} cell(s) failed; see the failure appendix above");
        return ExitCode::from(EXIT_PARTIAL);
    }
    ExitCode::SUCCESS
}
