//! The cell store: where a sweep keeps the report of every cell it ran.
//!
//! A cell is a pure function of its [`RunSpec`] (the determinism suite
//! asserts exactly this), so a report found under the cell's key is the
//! report a fresh run would produce. The store has two backends:
//!
//! * **memory** — a process-wide table. The 33 experiments of
//!   `figures all` plan 1030 cells between them but only 476 distinct
//!   ones: fig1/fig2 render one grid two ways, the paper's figures share
//!   sweeps, and most ablations re-run the paper's no-filter/PA baseline
//!   under other names. Within one process each distinct cell runs once.
//! * **directory** (optional, `figures --checkpoint DIR`) — one
//!   `<DIR>/<key>.json` file per completed cell, written as each cell
//!   finishes (write to a `.tmp` sibling, then rename), so a crash loses at
//!   most the cells still in flight and a re-run resumes.
//!
//! The backends compose: a lookup tries memory, then the directory (a hit
//! there is promoted to memory), and a freshly run cell is written through
//! to both. Failures are never stored, so a resume is exactly the retry the
//! operator asked for. Fault-injected and telemetry cells are never stored
//! either (see [`memo_key`]).
//!
//! Keys are [`cell_key`]: label-free and versioned. A checkpoint directory
//! written under an older key version (including every directory from
//! before the store had one flat layout) is ignored, never misread. The
//! directory also holds `TIMINGS.json`, the sweep's persisted
//! [`CostModel`](ppf_sim::CostModel), so the next run starts the longest
//! cells first.

use ppf_sim::experiments::RunSpec;
use ppf_sim::schedule::cell_key;
use ppf_sim::SimReport;
use ppf_types::{FromJson, PpfError, ToJson};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The store key of a cell, or `None` when the cell must not be stored or
/// deduplicated. Fault injection and telemetry streaming are outside the
/// key (neither changes the report's bytes), but a faulted cell must always
/// execute and a telemetry cell must always write its side-channel stream,
/// so both run unconditionally.
pub fn memo_key(spec: &RunSpec) -> Option<String> {
    is_storable(spec).then(|| cell_key(spec))
}

/// May this cell's result be stored and shared? (See [`memo_key`].)
pub fn is_storable(spec: &RunSpec) -> bool {
    spec.fault.is_none() && spec.telemetry.is_none()
}

/// Reports by key.
type Table = Arc<Mutex<HashMap<String, SimReport>>>;

/// A memory backend plus an optional directory backend (see the module
/// docs).
#[derive(Debug)]
pub struct CellStore {
    memory: Table,
    dir: Option<PathBuf>,
}

impl CellStore {
    /// The process-wide memory backend, over `dir` when given (created if
    /// absent).
    pub fn process(dir: Option<&Path>) -> Result<Self, PpfError> {
        static MEMORY: OnceLock<Table> = OnceLock::new();
        Self::with_memory(MEMORY.get_or_init(Table::default).clone(), dir)
    }

    /// A store with its own empty memory backend, over `dir` when given:
    /// what a new process sees.
    pub fn fresh(dir: Option<&Path>) -> Result<Self, PpfError> {
        Self::with_memory(Table::default(), dir)
    }

    fn with_memory(memory: Table, dir: Option<&Path>) -> Result<Self, PpfError> {
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                PpfError::io(e.to_string())
                    .context(format!("creating checkpoint dir {}", dir.display()))
            })?;
        }
        Ok(CellStore {
            memory,
            dir: dir.map(Path::to_path_buf),
        })
    }

    /// The directory entry of `key`, when the store has a directory.
    fn path(&self, key: &str) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join(format!("{key}.json")))
    }

    fn memory(&self) -> std::sync::MutexGuard<'_, HashMap<String, SimReport>> {
        self.memory.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Does the store hold `key`? Looks in memory, then on disk; a disk hit
    /// is loaded into memory, so [`CellStore::report`] serves it from then
    /// on. An entry that does not parse counts as absent: the cell re-runs
    /// and its fresh report replaces the entry.
    pub fn fetch(&self, key: &str) -> bool {
        if self.memory().contains_key(key) {
            return true;
        }
        let loaded = self
            .path(key)
            .and_then(|path| std::fs::read_to_string(path).ok())
            .and_then(|text| SimReport::from_json_str(&text).ok());
        match loaded {
            Some(report) => {
                self.memory().insert(key.to_string(), report);
                true
            }
            None => false,
        }
    }

    /// A copy of the report stored under `key`, if memory holds it.
    pub fn report(&self, key: &str) -> Option<SimReport> {
        self.memory().get(key).cloned()
    }

    /// Store `report` under `key` in memory and, when the store has a
    /// directory, on disk. Only the disk write can fail; the report is in
    /// memory either way.
    pub fn put(&self, key: &str, report: SimReport) -> Result<(), PpfError> {
        let json = self.dir.is_some().then(|| report.to_json_pretty());
        self.memory().insert(key.to_string(), report);
        let (Some(path), Some(json)) = (self.path(key), json) else {
            return Ok(());
        };
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, json)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| PpfError::io(e.to_string()).context(format!("writing {}", path.display())))
    }

    /// Where the sweep's [`CostModel`] persists: `TIMINGS.json` in the
    /// directory, when the store has one.
    pub fn timings_path(&self) -> Option<PathBuf> {
        Some(self.dir.as_ref()?.join("TIMINGS.json"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_sim::WatchdogConfig;
    use ppf_types::telemetry::TelemetryConfig;
    use ppf_types::SystemConfig;
    use ppf_workloads::{AdversarySpec, AttackKind, FaultSpec, Workload};

    fn base() -> RunSpec {
        RunSpec::new("base", SystemConfig::paper_default(), Workload::Mcf).instructions(4_000)
    }

    #[test]
    fn labels_do_not_change_the_key() {
        let mut renamed = base();
        renamed.label = "no-filter@8KB".to_string();
        assert_eq!(memo_key(&base()), memo_key(&renamed));
    }

    #[test]
    fn every_machine_visible_field_changes_the_key() {
        let key = memo_key(&base()).expect("plain cells have a key");
        let variants: Vec<(&str, RunSpec)> = vec![
            ("config", {
                let mut s = base();
                s.config.prefetch.nsp_degree += 1;
                s
            }),
            (
                "workload",
                RunSpec::new("base", SystemConfig::paper_default(), Workload::Gcc)
                    .instructions(4_000),
            ),
            ("seed", {
                let mut s = base();
                s.seed += 1;
                s
            }),
            ("insts", {
                let mut s = base();
                s.n_instructions += 1;
                s
            }),
            ("warmup", {
                let mut s = base();
                s.warmup += 1;
                s
            }),
            (
                "watchdog",
                base().with_watchdog(WatchdogConfig {
                    max_cpi: 10_000,
                    stall_window: 20_000,
                }),
            ),
            (
                "adversary",
                base().with_adversary(AdversarySpec::window(AttackKind::Poison, 500, 3_000)),
            ),
        ];
        for (field, spec) in variants {
            let other = memo_key(&spec).expect("plain cells have a key");
            assert_ne!(other, key, "changing the {field} must change the key");
        }
    }

    #[test]
    fn fault_and_telemetry_cells_have_no_key() {
        assert_eq!(memo_key(&base().with_fault(FaultSpec::panic_at(1))), None);
        let dir = std::env::temp_dir();
        assert_eq!(
            memo_key(&base().with_telemetry(TelemetryConfig::every(1_000), dir)),
            None
        );
    }
}
