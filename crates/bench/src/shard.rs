//! Sharded sweep fabric: deterministic cell partitioning, self-describing
//! result fragments, and the merge engine that reassembles them.
//!
//! `figures --shard K/N` partitions every experiment's cell list by
//! content-hash key ([`shard_of`]) — stable under experiment reordering,
//! grid growth elsewhere, and machine boundaries — runs only shard `K`,
//! and emits one [`ExperimentFragment`] per experiment plus one
//! [`ShardManifest`] describing exactly which cells the shard covered.
//! `figures merge DIR...` validates the manifests against each other
//! (schema version, sweep parameters, overlap) and reassembles the
//! fragments into per-experiment documents byte-identical to an unsharded
//! `figures --json` run. Partial coverage is a first-class outcome
//! ([`MergeOutcome::Partial`], exit code 2 at the CLI), not an error:
//! a fleet that lost a runner reports precisely which cells are missing.

use crate::figures::ExperimentDoc;
use ppf_sim::experiments::CellFailure;
use ppf_sim::schedule::{fnv1a, FNV_OFFSET};
use ppf_sim::SimReport;
use ppf_types::{json_struct, FromJson, PpfError, ToJson};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// Schema version stamped into every fragment and manifest. Merging
/// documents with any other version is refused: result files are
/// artifacts shipped between machines, so silent cross-version mixing
/// would be corruption, not compatibility.
pub const SHARD_SCHEMA_VERSION: u64 = 2;

/// The 1-based shard owning `key` out of `count` shards: a pure function
/// of the cell's content-hash key, so the partition is identical on every
/// machine and unaffected by experiment order or grid additions elsewhere.
pub fn shard_of(key: &str, count: u64) -> u64 {
    fnv1a(FNV_OFFSET, key.as_bytes()) % count.max(1) + 1
}

/// One shard assignment `K/N`: this invocation runs shard `K` of `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index (`1 ..= count`).
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

impl ShardSpec {
    /// Parse `"K/N"` (both 1-based; `K ∈ 1..=N`).
    pub fn parse(s: &str) -> Result<Self, PpfError> {
        let err =
            || PpfError::config_invalid(format!("--shard wants K/N with 1 <= K <= N, got '{s}'"));
        let (k, n) = s.split_once('/').ok_or_else(err)?;
        let index: u64 = k.trim().parse().map_err(|_| err())?;
        let count: u64 = n.trim().parse().map_err(|_| err())?;
        if index == 0 || count == 0 || index > count {
            return Err(err());
        }
        Ok(ShardSpec { index, count })
    }

    /// Does this shard own the cell with content-hash `key`?
    pub fn contains(&self, key: &str) -> bool {
        shard_of(key, self.count) == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// One cell's result inside a fragment: its position in the experiment's
/// grid, its content-hash key, and exactly one of report/failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentEntry {
    /// The cell's 0-based position in the experiment's full grid.
    pub index: u64,
    /// The cell's content-hash key (`ppf_sim::schedule::cell_key`).
    pub key: String,
    /// The cell's report, when it completed.
    pub report: Option<SimReport>,
    /// The cell's structured failure, when it did not.
    pub failure: Option<CellFailure>,
}

json_struct!(FragmentEntry {
    index,
    key,
    report,
    failure,
});

/// One experiment's share of one shard's results — the unit `figures
/// merge` reassembles. Self-describing: it carries everything needed to
/// validate it against its manifest and its sibling fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentFragment {
    /// Fragment schema version ([`SHARD_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Experiment name (matches the filename stem).
    pub experiment: String,
    /// 1-based index of the shard that produced this fragment.
    pub shard_index: u64,
    /// Total shards in the sweep this fragment belongs to.
    pub shard_count: u64,
    /// Cells in the experiment's *full* grid (all shards together).
    pub total_cells: u64,
    /// This shard's cells, in grid order.
    pub entries: Vec<FragmentEntry>,
}

json_struct!(ExperimentFragment {
    schema_version,
    experiment,
    shard_index,
    shard_count,
    total_cells,
    entries,
});

/// One experiment's coverage record inside a [`ShardManifest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestExperiment {
    /// Experiment name.
    pub experiment: String,
    /// Cells in the experiment's full grid.
    pub total_cells: u64,
    /// Grid indices this shard covered, ascending.
    pub indices: Vec<u64>,
    /// Content-hash keys of the covered cells, parallel to `indices`.
    pub keys: Vec<String>,
}

json_struct!(ManifestExperiment {
    experiment,
    total_cells,
    indices,
    keys,
});

/// The self-description one sharded `figures` invocation writes beside
/// its fragments (`MANIFEST.json`): which shard it was, which sweep
/// parameters it ran under, and exactly which cells it covered. Merge
/// validation is driven entirely by manifests — fragments are then
/// checked against them.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Manifest schema version ([`SHARD_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// 1-based index of the shard that wrote this manifest.
    pub shard_index: u64,
    /// Total shards in the sweep.
    pub shard_count: u64,
    /// Instruction budget the sweep ran with (`figures --insts`).
    pub insts: u64,
    /// Workload seeds averaged per cell (`figures --seeds`).
    pub seeds: u64,
    /// Per-experiment coverage, in invocation order.
    pub experiments: Vec<ManifestExperiment>,
}

json_struct!(ShardManifest {
    schema_version,
    shard_index,
    shard_count,
    insts,
    seeds,
    experiments,
});

/// The filename of a shard's manifest inside its fragment directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// A completed merge's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeSummary {
    /// Shards merged.
    pub shards: u64,
    /// Experiments reassembled (one output document each).
    pub experiments: u64,
    /// Total cells across all experiments.
    pub cells: u64,
}

/// The outcome of a merge whose inputs were mutually *consistent*:
/// complete (documents written) or partial (gaps reported, nothing
/// written). Inconsistent inputs — version skew, parameter mismatch,
/// overlapping coverage — are a `shard-mismatch` error instead.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeOutcome {
    /// Every cell of every experiment was covered exactly once; merged
    /// documents were written.
    Complete(MergeSummary),
    /// Coverage has gaps: for each affected experiment, the missing grid
    /// indices (ascending). Nothing was written.
    Partial {
        /// `(experiment, missing indices)` pairs, in manifest order.
        missing: Vec<(String, Vec<u64>)>,
    },
}

/// Read and parse one shard directory's manifest.
fn load_manifest(dir: &Path) -> Result<ShardManifest, PpfError> {
    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| PpfError::io(e.to_string()).context(format!("reading {}", path.display())))?;
    ShardManifest::from_json_str(&text)
        .map_err(|e| PpfError::shard_mismatch(e).context(format!("parsing {}", path.display())))
}

/// Read and parse one experiment fragment from a shard directory.
fn load_fragment(dir: &Path, experiment: &str) -> Result<ExperimentFragment, PpfError> {
    let path = dir.join(format!("{experiment}.fragment.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| PpfError::io(e.to_string()).context(format!("reading {}", path.display())))?;
    ExperimentFragment::from_json_str(&text)
        .map_err(|e| PpfError::shard_mismatch(e).context(format!("parsing {}", path.display())))
}

/// Cross-validate `manifest` against the reference (first) manifest.
fn check_manifest_pair(reference: &ShardManifest, m: &ShardManifest) -> Result<(), PpfError> {
    if m.shard_count != reference.shard_count {
        return Err(PpfError::shard_mismatch(format!(
            "shard {} says the sweep has {} shards, shard {} says {}",
            reference.shard_index, reference.shard_count, m.shard_index, m.shard_count
        )));
    }
    if m.insts != reference.insts || m.seeds != reference.seeds {
        return Err(PpfError::shard_mismatch(format!(
            "sweep parameters differ: shard {} ran insts={} seeds={}, shard {} ran insts={} seeds={}",
            reference.shard_index,
            reference.insts,
            reference.seeds,
            m.shard_index,
            m.insts,
            m.seeds
        )));
    }
    let names = |man: &ShardManifest| -> Vec<(String, u64)> {
        man.experiments
            .iter()
            .map(|e| (e.experiment.clone(), e.total_cells))
            .collect()
    };
    if names(m) != names(reference) {
        return Err(PpfError::shard_mismatch(format!(
            "experiment sets differ between shard {} and shard {}",
            reference.shard_index, m.shard_index
        )));
    }
    Ok(())
}

/// Merge the shard fragment directories `dirs` into per-experiment JSON
/// documents under `out_dir`, byte-identical to an unsharded
/// `figures --json` run of the same sweep.
///
/// Invariants enforced (violations are `shard-mismatch` errors):
/// schema versions match [`SHARD_SCHEMA_VERSION`]; every manifest agrees
/// on shard count, instruction budget, seed count and experiment set;
/// shard indices are distinct and in range; every fragment matches its
/// manifest's coverage claim; no cell is covered twice. Gaps in coverage
/// are not an error but [`MergeOutcome::Partial`] — nothing is written.
pub fn merge_shards(dirs: &[PathBuf], out_dir: &Path) -> Result<MergeOutcome, PpfError> {
    if dirs.is_empty() {
        return Err(PpfError::config_invalid(
            "merge wants at least one fragment directory",
        ));
    }
    let manifests: Vec<ShardManifest> = dirs
        .iter()
        .map(|d| load_manifest(d))
        .collect::<Result<_, _>>()?;
    for m in &manifests {
        if m.schema_version != SHARD_SCHEMA_VERSION {
            return Err(PpfError::shard_mismatch(format!(
                "shard {} has schema version {}, this binary speaks {}",
                m.shard_index, m.schema_version, SHARD_SCHEMA_VERSION
            )));
        }
        if m.shard_index == 0 || m.shard_index > m.shard_count {
            return Err(PpfError::shard_mismatch(format!(
                "shard index {} out of range 1..={}",
                m.shard_index, m.shard_count
            )));
        }
    }
    let reference = &manifests[0];
    let mut seen_shards: HashMap<u64, usize> = HashMap::new();
    for (i, m) in manifests.iter().enumerate() {
        check_manifest_pair(reference, m)?;
        if let Some(prev) = seen_shards.insert(m.shard_index, i) {
            return Err(PpfError::shard_mismatch(format!(
                "shard index {} appears twice ({} and {})",
                m.shard_index,
                dirs[prev].display(),
                dirs[i].display()
            )));
        }
    }

    // Assemble per-experiment coverage: grid index → entry, enforcing
    // exactly-once ownership across shards.
    let mut merged_docs: Vec<(String, ExperimentDoc)> = Vec::new();
    let mut missing: Vec<(String, Vec<u64>)> = Vec::new();
    let mut cells: u64 = 0;
    for exp in &reference.experiments {
        let mut by_index: BTreeMap<u64, (usize, FragmentEntry)> = BTreeMap::new();
        for (i, (dir, m)) in dirs.iter().zip(&manifests).enumerate() {
            let frag = load_fragment(dir, &exp.experiment)?;
            if frag.schema_version != SHARD_SCHEMA_VERSION
                || frag.shard_index != m.shard_index
                || frag.shard_count != m.shard_count
                || frag.total_cells != exp.total_cells
            {
                return Err(PpfError::shard_mismatch(format!(
                    "fragment {}/{}.fragment.json disagrees with its manifest",
                    dir.display(),
                    exp.experiment
                )));
            }
            let claim = m
                .experiments
                .iter()
                .find(|e| e.experiment == exp.experiment)
                .expect("experiment sets already checked equal");
            let got: Vec<u64> = frag.entries.iter().map(|e| e.index).collect();
            if got != claim.indices {
                return Err(PpfError::shard_mismatch(format!(
                    "fragment {}/{}.fragment.json covers cells {:?} but its manifest claims {:?}",
                    dir.display(),
                    exp.experiment,
                    got,
                    claim.indices
                )));
            }
            for entry in frag.entries {
                if entry.index >= exp.total_cells
                    || entry.report.is_some() == entry.failure.is_some()
                {
                    return Err(PpfError::shard_mismatch(format!(
                        "fragment {}/{}.fragment.json entry {} is malformed",
                        dir.display(),
                        exp.experiment,
                        entry.index
                    )));
                }
                let idx = entry.index;
                if let Some((prev, _)) = by_index.insert(idx, (i, entry)) {
                    return Err(PpfError::shard_mismatch(format!(
                        "cell {idx} of {} covered by both {} and {}",
                        exp.experiment,
                        dirs[prev].display(),
                        dirs[i].display()
                    )));
                }
            }
        }
        let gaps: Vec<u64> = (0..exp.total_cells)
            .filter(|i| !by_index.contains_key(i))
            .collect();
        cells += exp.total_cells;
        if !gaps.is_empty() {
            missing.push((exp.experiment.clone(), gaps));
            continue;
        }
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for (_, (_, entry)) in by_index {
            match (entry.report, entry.failure) {
                (Some(r), None) => reports.push(r),
                (None, Some(f)) => failures.push(f),
                _ => unreachable!("entry shape validated above"),
            }
        }
        merged_docs.push((
            exp.experiment.clone(),
            ExperimentDoc {
                experiment: exp.experiment.clone(),
                reports,
                failures,
            },
        ));
    }
    if !missing.is_empty() {
        return Ok(MergeOutcome::Partial { missing });
    }

    std::fs::create_dir_all(out_dir).map_err(|e| {
        PpfError::io(e.to_string()).context(format!("creating merge dir {}", out_dir.display()))
    })?;
    let experiments = merged_docs.len() as u64;
    for (name, doc) in merged_docs {
        let path = out_dir.join(format!("{name}.json"));
        std::fs::write(&path, doc.to_json_pretty()).map_err(|e| {
            PpfError::io(e.to_string()).context(format!("writing {}", path.display()))
        })?;
    }
    Ok(MergeOutcome::Complete(MergeSummary {
        shards: manifests.len() as u64,
        experiments,
        cells,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec { index: 2, count: 3 }
        );
        assert_eq!(
            ShardSpec::parse("1/1").unwrap(),
            ShardSpec { index: 1, count: 1 }
        );
        for bad in ["0/3", "4/3", "3", "a/b", "", "1/0", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "'{bad}' must not parse");
        }
        assert_eq!(ShardSpec { index: 2, count: 5 }.to_string(), "2/5");
    }

    #[test]
    fn shard_of_partitions_deterministically() {
        let keys: Vec<String> = (0..500).map(|i| format!("{i:016x}")).collect();
        for n in 1..=5u64 {
            let mut per_shard = vec![0usize; n as usize];
            for key in &keys {
                let s = shard_of(key, n);
                assert!((1..=n).contains(&s), "shard {s} out of range 1..={n}");
                assert_eq!(s, shard_of(key, n), "stable across calls");
                per_shard[(s - 1) as usize] += 1;
            }
            // Exactly one owner per key ⇒ counts sum to the key count; and
            // the hash spreads: no shard is empty at 500 keys.
            assert_eq!(per_shard.iter().sum::<usize>(), keys.len());
            assert!(per_shard.iter().all(|&c| c > 0), "n={n}: {per_shard:?}");
        }
        // 1-of-1 owns everything.
        assert!(keys
            .iter()
            .all(|k| ShardSpec { index: 1, count: 1 }.contains(k)));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = ShardManifest {
            schema_version: SHARD_SCHEMA_VERSION,
            shard_index: 2,
            shard_count: 3,
            insts: 20_000,
            seeds: 1,
            experiments: vec![ManifestExperiment {
                experiment: "fig2".to_string(),
                total_cells: 10,
                indices: vec![1, 4, 7],
                keys: vec!["a".into(), "b".into(), "c".into()],
            }],
        };
        let back = ShardManifest::from_json_str(&m.to_json_pretty()).unwrap();
        assert_eq!(back, m);
    }
}
