//! Checkpoint/resume integration drills for the cell store's directory
//! backend: fresh runs persist every healthy cell, resumes execute only the
//! missing or failed ones, a config change invalidates the old entries,
//! corrupt files are re-run, and a checkpointed `figures all` runs each
//! distinct cell exactly once. The memory-only backend is checked too: it
//! serves repeat cells byte for byte under their own label.
//!
//! Each "process" of a drill is a [`CellStore::fresh`] store over the same
//! directory, so nothing survives between runs except what is on disk.

use ppf_bench::figures::TABLE;
use ppf_bench::memo::{memo_key, CellStore};
use ppf_bench::plan::{Executed, Plan};
use ppf_sim::experiments::CellOutcome;
use ppf_sim::{RunSpec, WatchdogConfig};
use ppf_types::{PpfErrorKind, SystemConfig};
use ppf_workloads::{AdversarySpec, AttackKind, FaultSpec, Workload};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const N: u64 = 4_000;

/// A scratch checkpoint directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppf-ckpt-{}-{name}", std::process::id()))
}

/// One checkpointed run of `grid` at `seeds` seeds, as a fresh process
/// over `dir` would do it.
struct Run {
    ran: Executed,
    store: CellStore,
}

impl Run {
    fn new(grid: Vec<RunSpec>, seeds: u32, dir: &Path) -> Run {
        let store = CellStore::fresh(Some(dir)).expect("checkpoint dir");
        let ran = Plan::new(vec![grid], seeds, None).execute(&store);
        Run { ran, store }
    }

    /// Runs reloaded from the directory and runs executed.
    fn counts(&self) -> (usize, usize) {
        (self.ran.served[0], self.ran.executed[0])
    }

    fn outcomes(&self) -> Vec<CellOutcome> {
        self.ran.outcomes(0, &self.store)
    }
}

/// Run `grid` once over `dir`.
fn run_grid(grid: Vec<RunSpec>, dir: &Path) -> Run {
    Run::new(grid, 1, dir)
}

/// The directory entry `spec` is stored under.
fn cell_path(dir: &Path, spec: &RunSpec) -> PathBuf {
    dir.join(format!("{}.json", memo_key(spec).expect("storable cell")))
}

/// Stored cells in `dir` (everything but the cost model).
fn stored_cells(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter(|e| e.as_ref().unwrap().file_name() != "TIMINGS.json")
                .count()
        })
        .unwrap_or(0)
}

/// The acceptance drill grid: 10 workloads, one panicking and one wedged.
fn drill_grid() -> Vec<RunSpec> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let spec = RunSpec::new("drill", SystemConfig::paper_default(), w).instructions(N);
            match w {
                Workload::Perimeter => spec.with_fault(FaultSpec::panic_at(500)),
                Workload::Gcc => {
                    let mut cfg = SystemConfig::paper_default();
                    cfg.mem.latency = 1_000_000_000;
                    RunSpec::new("drill", cfg, w)
                        .instructions(N)
                        .with_fault(FaultSpec::hang_at(0))
                        .with_watchdog(WatchdogConfig {
                            max_cpi: 10_000,
                            stall_window: 20_000,
                        })
                }
                _ => spec,
            }
        })
        .collect()
}

/// The same grid with every fault healed (what a fixed re-run looks like).
fn healed_grid() -> Vec<RunSpec> {
    drill_grid()
        .into_iter()
        .map(|mut s| {
            s.fault = None;
            if s.config.mem.latency > 1_000 {
                s.config = SystemConfig::paper_default();
            }
            s
        })
        .collect()
}

/// Fresh run: every cell executes, only healthy cells leave files, and a
/// resume of the fixed grid reloads exactly those and runs the rest.
#[test]
fn resume_executes_only_failed_cells() {
    let dir = scratch("resume");
    std::fs::remove_dir_all(&dir).ok();

    let first = run_grid(drill_grid(), &dir);
    assert_eq!(
        first.counts(),
        (0, 10),
        "fresh directory has nothing to reload"
    );
    let first_outcomes = first.outcomes();
    assert_eq!(first_outcomes.iter().filter(|o| o.is_ok()).count(), 8);
    // Only the 8 healthy cells were persisted; failures are never
    // checkpointed so a resume retries them.
    assert_eq!(stored_cells(&dir), 8);
    for (spec, outcome) in drill_grid().iter().zip(&first_outcomes) {
        if memo_key(spec).is_some() {
            assert_eq!(cell_path(&dir, spec).exists(), outcome.is_ok());
        }
    }

    // Resume with the faults fixed: the 8 checkpointed cells reload, only
    // the 2 previously-failed cells execute.
    let second = run_grid(healed_grid(), &dir);
    assert_eq!(second.counts(), (8, 2));
    let second_outcomes = second.outcomes();
    assert!(second_outcomes.iter().all(CellOutcome::is_ok));

    // The reloaded cells are identical to the first run's survivors.
    for (a, b) in first_outcomes
        .iter()
        .zip(&second_outcomes)
        .filter_map(|(a, b)| Some((a.report()?, b.report()?)))
    {
        assert_eq!(a, b);
    }

    // Third run: everything reloads, nothing executes.
    let third = run_grid(healed_grid(), &dir);
    assert_eq!(third.counts(), (10, 0));

    std::fs::remove_dir_all(&dir).ok();
}

/// Any config change produces different cell keys, so a checkpoint from
/// the old sweep is invisible to the new one.
#[test]
fn config_change_invalidates_checkpoint() {
    let dir = scratch("invalidate");
    std::fs::remove_dir_all(&dir).ok();

    let grid = || {
        vec![
            RunSpec::new("base", SystemConfig::paper_default(), Workload::Gzip).instructions(N),
            RunSpec::new("base", SystemConfig::paper_default(), Workload::Mcf).instructions(N),
        ]
    };
    assert_eq!(run_grid(grid(), &dir).counts(), (0, 2));

    let mut changed = grid();
    for spec in &mut changed {
        spec.config.prefetch.nsp_degree += 1;
    }
    for spec in &changed {
        assert!(
            !cell_path(&dir, spec).exists(),
            "changed config must hash to fresh keys"
        );
    }
    assert_eq!(
        run_grid(changed, &dir).counts(),
        (0, 2),
        "old entries must not satisfy the new sweep"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint file that exists but does not parse is transparently
/// re-run (and re-persisted).
#[test]
fn corrupt_checkpoint_entry_is_rerun() {
    let dir = scratch("corrupt");
    std::fs::remove_dir_all(&dir).ok();

    let grid =
        || vec![RunSpec::new("c", SystemConfig::paper_default(), Workload::Bh).instructions(N)];
    run_grid(grid(), &dir);
    std::fs::write(cell_path(&dir, &grid()[0]), "{ not json").unwrap();

    let rerun = run_grid(grid(), &dir);
    assert_eq!(rerun.counts(), (0, 1));
    assert!(rerun.outcomes()[0].is_ok());
    // The re-run rewrote a valid entry.
    assert_eq!(run_grid(grid(), &dir).counts(), (1, 0));

    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-seed form checkpoints each fanned (cell, seed) run under its
/// own key and merges on reload exactly like a live run.
#[test]
fn seed_fanout_checkpoints_every_fanned_cell() {
    let dir = scratch("seeds");
    std::fs::remove_dir_all(&dir).ok();

    let grid =
        || vec![RunSpec::new("s", SystemConfig::paper_default(), Workload::Em3d).instructions(N)];
    let first = Run::new(grid(), 3, &dir);
    assert_eq!(first.counts(), (0, 3));
    let outcomes = first.outcomes();
    assert_eq!(outcomes.len(), 1, "outcomes are merged per input cell");
    let merged = outcomes[0].report().unwrap();
    assert!(merged.stats.instructions >= 3 * N);
    assert_eq!(stored_cells(&dir), 3);

    let second = Run::new(grid(), 3, &dir);
    assert_eq!(second.counts(), (3, 0));
    assert_eq!(
        second.outcomes()[0].report().unwrap(),
        merged,
        "reloaded merge must match the live merge"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// An attack cell that also faults mid-campaign must not checkpoint its
/// poisoned partial state: the failure leaves no file, the healed re-run
/// executes from scratch, and its result is identical to a run that never
/// faulted — resumed state cannot smuggle in a half-trained filter.
#[test]
fn faulting_attack_cell_is_not_cached_poisoned() {
    let dir = scratch("attack-fault");
    std::fs::remove_dir_all(&dir).ok();

    let attack = AdversarySpec::window(AttackKind::Poison, 500, 3_000);
    let attacked = |fault: Option<FaultSpec>| {
        let spec = RunSpec::new("atk", SystemConfig::paper_default(), Workload::Em3d)
            .instructions(N)
            .with_adversary(attack);
        match fault {
            // Panic inside the attack window: the filter has already eaten
            // poisoned feedback when the cell dies.
            Some(f) => spec.with_fault(f),
            None => spec,
        }
    };

    let faulted = run_grid(vec![attacked(Some(FaultSpec::panic_at(1_500)))], &dir);
    let outcomes = faulted.outcomes();
    let failure = outcomes[0].failure().expect("attacked cell faults");
    assert_eq!(failure.error.kind, PpfErrorKind::CellPanic);
    assert_eq!(
        stored_cells(&dir),
        0,
        "a faulted attack cell must leave no checkpoint behind"
    );

    // Healed re-run executes fresh (nothing to reload) and persists.
    let healed = run_grid(vec![attacked(None)], &dir);
    assert_eq!(healed.counts(), (0, 1));
    let healed_report = healed.outcomes()[0].report().unwrap().clone();

    // A pristine directory gives the identical result: whatever the faulted
    // attempt computed before dying is invisible to the resume.
    let pristine_dir = scratch("attack-fault-pristine");
    std::fs::remove_dir_all(&pristine_dir).ok();
    let pristine = run_grid(vec![attacked(None)], &pristine_dir);
    assert_eq!(pristine.outcomes()[0].report().unwrap(), &healed_report);

    // And the healed checkpoint reloads cleanly under the same attack key.
    let resumed = run_grid(vec![attacked(None)], &dir);
    assert_eq!(resumed.counts(), (1, 0));
    assert_eq!(resumed.outcomes()[0].report().unwrap(), &healed_report);

    // The attack is part of the cell key: the same cell without the
    // adversary must NOT be satisfied by the attacked checkpoint.
    let clean_spec =
        RunSpec::new("atk", SystemConfig::paper_default(), Workload::Em3d).instructions(N);
    assert!(
        !cell_path(&dir, &clean_spec).exists(),
        "attack-free cell must hash to a different key than the attacked one"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&pristine_dir).ok();
}

/// Failures come back as structured outcomes from the checkpointed path
/// too (the figures layer renders them in the appendix).
#[test]
fn checkpointed_failures_are_structured() {
    let dir = scratch("failures");
    std::fs::remove_dir_all(&dir).ok();

    let spec = RunSpec::new("f", SystemConfig::paper_default(), Workload::Gap)
        .instructions(N)
        .with_fault(FaultSpec::panic_at(50));
    let run = run_grid(vec![spec], &dir);
    let outcomes = run.outcomes();
    let failure = outcomes[0].failure().expect("cell fails");
    assert_eq!(failure.error.kind, PpfErrorKind::CellPanic);
    assert_eq!(failure.attempts, 2);
    assert_eq!(stored_cells(&dir), 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// A cold checkpointed `figures all` stores and executes each distinct
/// cell exactly once — cells shared between experiments, under any label,
/// run once — and a second run executes nothing.
#[test]
fn checkpointed_sweep_runs_each_distinct_cell_once() {
    const INSTS: u64 = 1_000;
    let dir = scratch("sweep");
    std::fs::remove_dir_all(&dir).ok();

    let distinct: HashSet<String> = TABLE
        .iter()
        .flat_map(|e| (e.grid)(INSTS))
        .map(|spec| memo_key(&spec).expect("figures cells are storable"))
        .collect();
    let sweep = || {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["all", "--insts", &INSTS.to_string(), "--checkpoint"])
            .arg(&dir)
            .output()
            .expect("figures runs");
        assert!(out.status.success());
        String::from_utf8(out.stderr).unwrap()
    };

    let cold = sweep();
    let want = format!(
        "checkpoint: 0 cell runs reloaded, {} executed",
        distinct.len()
    );
    assert!(cold.contains(&want), "{cold}");
    assert_eq!(stored_cells(&dir), distinct.len());

    let warm = sweep();
    let want = format!(
        "checkpoint: {} cell runs reloaded, 0 executed",
        distinct.len()
    );
    assert!(warm.contains(&want), "{warm}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_store_serves_repeat_cells_with_identical_reports() {
    let spec = || {
        RunSpec::new("memo-test", SystemConfig::paper_default(), Workload::ALL[0])
            .instructions(5_000)
    };
    let store = CellStore::fresh(None).expect("memory-only store");
    // Within one plan, two copies of a cell are one run.
    let first = Plan::new(vec![vec![spec(), spec()]], 1, None).execute(&store);
    assert_eq!((first.served[0], first.executed[0]), (0, 1));
    // A later plan is served entirely from memory, byte for byte, under its
    // own label.
    let mut renamed = spec();
    renamed.label = "renamed".to_string();
    let second = Plan::new(vec![vec![renamed]], 1, None).execute(&store);
    assert_eq!((second.served[0], second.executed[0]), (1, 0));
    let a = first.outcomes(0, &store)[0]
        .report()
        .cloned()
        .expect("first run ok");
    let mut b = second.outcomes(0, &store)[0]
        .report()
        .cloned()
        .expect("memory hit ok");
    assert_eq!(b.label, "renamed");
    b.label = a.label.clone();
    assert_eq!(a, b);
}
