//! End-to-end tests of the sharded sweep fabric through the `figures`
//! binary.
//!
//! The load-bearing contract: for any shard count K, running `--shard k/K`
//! for every k and merging the fragment directories must produce
//! per-experiment JSON documents *byte-identical* to an unsharded
//! `figures --json` run of the same sweep — sharding is a pure partition
//! of work, never a change of results. The merge must also refuse
//! inconsistent inputs (overlap, version skew) with structured
//! `shard-mismatch` errors and report coverage gaps via exit code 2.

use ppf_bench::shard::{ExperimentFragment, ShardManifest, SHARD_SCHEMA_VERSION};
use ppf_types::FromJson;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The sweep under test: small enough to run many times, two experiments
/// so cross-experiment manifest handling is exercised.
const EXPERIMENTS: [&str; 2] = ["fig2", "table2"];
const INSTS: &str = "5000";

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppf-shard-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `figures --insts INSTS --json <dir> [--shard k/n] fig2 table2`,
/// asserting success.
fn run_figures(json_dir: &Path, shard: Option<(u64, u64)>) {
    let mut cmd = figures();
    cmd.args(["--insts", INSTS, "--json"]).arg(json_dir);
    if let Some((k, n)) = shard {
        cmd.args(["--shard", &format!("{k}/{n}")]);
    }
    let out = cmd.args(EXPERIMENTS).output().expect("figures runs");
    assert!(
        out.status.success(),
        "figures failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The unsharded reference documents, computed once per test process.
fn baseline() -> &'static Vec<(String, String)> {
    static BASE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = temp_dir("baseline");
        run_figures(&dir, None);
        let docs = EXPERIMENTS
            .iter()
            .map(|name| {
                let text = std::fs::read_to_string(dir.join(format!("{name}.json")))
                    .expect("unsharded doc written");
                (name.to_string(), text)
            })
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        docs
    })
}

/// Run all K shards into fresh directories and return their paths.
fn run_all_shards(tag: &str, count: u64) -> Vec<PathBuf> {
    (1..=count)
        .map(|k| {
            let dir = temp_dir(&format!("{tag}-{k}of{count}"));
            run_figures(&dir, Some((k, count)));
            dir
        })
        .collect()
}

fn merge(out_dir: &Path, shard_dirs: &[PathBuf]) -> std::process::Output {
    let mut cmd = figures();
    cmd.arg("merge").arg("--out").arg(out_dir);
    for d in shard_dirs {
        cmd.arg(d);
    }
    cmd.output().expect("figures merge runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole invariant: for any shard count, the union of all
    /// shards merges byte-identical to the unsharded run.
    #[test]
    fn shard_union_merges_byte_identical_to_unsharded(count in 2u64..=5) {
        let shard_dirs = run_all_shards("union", count);
        let out_dir = temp_dir(&format!("union-merged-{count}"));
        let out = merge(&out_dir, &shard_dirs);
        prop_assert!(
            out.status.success(),
            "merge failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for (name, expected) in baseline() {
            let merged = std::fs::read_to_string(out_dir.join(format!("{name}.json")))
                .expect("merged doc written");
            prop_assert_eq!(&merged, expected, "{} differs from unsharded run", name);
        }
        for d in shard_dirs {
            std::fs::remove_dir_all(&d).ok();
        }
        std::fs::remove_dir_all(&out_dir).ok();
    }
}

#[test]
fn shard_fragments_and_manifest_are_self_describing() {
    let dirs = run_all_shards("describe", 2);
    let mut covered: Vec<Vec<u64>> = vec![Vec::new(); EXPERIMENTS.len()];
    let mut totals: Vec<u64> = vec![0; EXPERIMENTS.len()];
    for (k, dir) in dirs.iter().enumerate() {
        let manifest = ShardManifest::from_json_str(
            &std::fs::read_to_string(dir.join("MANIFEST.json")).expect("manifest written"),
        )
        .expect("manifest parses");
        assert_eq!(manifest.schema_version, SHARD_SCHEMA_VERSION);
        assert_eq!(manifest.shard_index, k as u64 + 1);
        assert_eq!(manifest.shard_count, 2);
        assert_eq!(manifest.insts.to_string(), INSTS);
        // Both invoked experiments are gridded, so the manifest lists
        // exactly them, in invocation order.
        let names: Vec<&str> = manifest
            .experiments
            .iter()
            .map(|e| e.experiment.as_str())
            .collect();
        assert_eq!(names, EXPERIMENTS);
        for (i, exp) in manifest.experiments.iter().enumerate() {
            assert!(exp.total_cells > 0);
            totals[i] = exp.total_cells;
            assert_eq!(exp.indices.len(), exp.keys.len());
            // The fragment mirrors the manifest's coverage claim.
            let frag = ExperimentFragment::from_json_str(
                &std::fs::read_to_string(dir.join(format!("{}.fragment.json", exp.experiment)))
                    .expect("fragment written"),
            )
            .expect("fragment parses");
            assert_eq!(frag.schema_version, SHARD_SCHEMA_VERSION);
            assert_eq!(frag.shard_index, manifest.shard_index);
            let frag_indices: Vec<u64> = frag.entries.iter().map(|e| e.index).collect();
            assert_eq!(frag_indices, exp.indices);
            assert!(frag.entries.iter().all(|e| e.report.is_some()));
            covered[i].extend(&exp.indices);
        }
    }
    // The two shards partition each grid exactly: no gaps, no overlap.
    for (per_exp, total) in covered.iter_mut().zip(&totals) {
        per_exp.sort_unstable();
        assert_eq!(*per_exp, (0..*total).collect::<Vec<u64>>());
    }
    for d in dirs {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn merge_rejects_overlapping_shards_with_structured_error() {
    let dirs = run_all_shards("overlap", 2);
    let out_dir = temp_dir("overlap-merged");
    // The same shard twice: every cell it owns is claimed twice.
    let out = merge(&out_dir, &[dirs[0].clone(), dirs[0].clone()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shard-mismatch"), "{stderr}");
    assert!(
        !out_dir.join("fig2.json").exists(),
        "a refused merge must write nothing"
    );
    for d in dirs {
        std::fs::remove_dir_all(&d).ok();
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn merge_reports_coverage_gaps_with_exit_2() {
    let dirs = run_all_shards("gaps", 2);
    let out_dir = temp_dir("gaps-merged");
    // Only shard 1 of 2: consistent inputs, incomplete coverage.
    let out = merge(&out_dir, &dirs[..1]);
    assert_eq!(out.status.code(), Some(2), "partial coverage is exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("coverage gaps"), "{stderr}");
    assert!(stderr.contains("missing"), "{stderr}");
    assert!(
        !out_dir.join("fig2.json").exists(),
        "a partial merge must write nothing"
    );
    for d in dirs {
        std::fs::remove_dir_all(&d).ok();
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn merge_rejects_schema_version_skew() {
    let dirs = run_all_shards("skew", 2);
    let out_dir = temp_dir("skew-merged");
    let manifest_path = dirs[1].join("MANIFEST.json");
    let doctored = std::fs::read_to_string(&manifest_path).unwrap().replacen(
        &format!("\"schema_version\": {SHARD_SCHEMA_VERSION}"),
        "\"schema_version\": 999",
        1,
    );
    std::fs::write(&manifest_path, doctored).unwrap();
    let out = merge(&out_dir, &dirs);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema version"), "{stderr}");
    for d in dirs {
        std::fs::remove_dir_all(&d).ok();
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn shard_flag_requires_json_dir() {
    let out = figures()
        .args(["--insts", INSTS, "--shard", "1/2", "fig2"])
        .output()
        .expect("figures runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--shard requires --json"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
