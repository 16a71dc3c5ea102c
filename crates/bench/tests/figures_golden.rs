//! The checked sweep golden: `figures all` at a small instruction budget
//! must reproduce a committed transcript byte for byte.
//!
//! The transcript holds the sweep's full stdout plus one FNV-1a digest per
//! `--json` document. Two ways of producing the sweep are held to it: one
//! unsharded run, and a three-shard run reassembled by `figures merge`.
//! The simulator is deterministic, so any change to a figure, a report or
//! the sweep machinery that moves a single byte fails here, and a result
//! change becomes an explicit golden regeneration in the change that
//! causes it.
//!
//! Regenerate the golden after an *intentional* result change with:
//! `cargo test -p ppf-bench --test figures_golden -- --ignored regenerate`

use ppf_sim::schedule::{fnv1a, FNV_OFFSET};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

const INSTS: &str = "2000";
const SHARDS: u64 = 3;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/figures_all_2000.txt"
);

/// Separates the stdout block from the digest block in the transcript.
const DIGESTS_HEADER: &str = "---- json documents (FNV-1a 64) ----\n";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppf-golden-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the `figures` binary with `args`, asserting success; returns stdout.
fn figures(args: &[&str], dirs: &[&Path]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .args(dirs)
        .output()
        .expect("figures runs");
    assert!(
        out.status.success(),
        "figures {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// One `<file> <digest>` line per JSON document in `dir`, sorted by name.
fn digests(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("json dir readable")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    let mut out = String::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).unwrap();
        let _ = writeln!(out, "{name} {:016x}", fnv1a(FNV_OFFSET, &bytes));
    }
    out
}

/// The transcript of one unsharded `figures all --json` run.
fn unsharded_transcript() -> String {
    let dir = temp_dir("unsharded");
    let stdout = figures(&["all", "--insts", INSTS, "--json"], &[&dir]);
    let transcript = format!("{stdout}{DIGESTS_HEADER}{}", digests(&dir));
    std::fs::remove_dir_all(&dir).ok();
    transcript
}

fn golden() -> String {
    std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden missing — regenerate with \
         `cargo test -p ppf-bench --test figures_golden -- --ignored regenerate`",
    )
}

#[test]
fn unsharded_sweep_matches_committed_golden() {
    assert_eq!(
        unsharded_transcript(),
        golden(),
        "figures all drifted from the committed golden"
    );
}

#[test]
fn merged_shards_match_committed_golden() {
    let shard_dirs: Vec<PathBuf> = (1..=SHARDS)
        .map(|k| {
            let dir = temp_dir(&format!("shard-{k}"));
            let shard = format!("{k}/{SHARDS}");
            figures(
                &["all", "--insts", INSTS, "--shard", &shard, "--json"],
                &[&dir],
            );
            dir
        })
        .collect();
    let merged = temp_dir("merged");
    let mut args: Vec<&Path> = vec![&merged];
    args.extend(shard_dirs.iter().map(PathBuf::as_path));
    figures(&["merge", "--out"], &args);
    let golden = golden();
    let (_, golden_digests) = golden
        .split_once(DIGESTS_HEADER)
        .expect("golden has a digest block");
    assert_eq!(
        digests(&merged),
        golden_digests,
        "merged shard documents differ from the committed golden"
    );
    for d in shard_dirs {
        std::fs::remove_dir_all(&d).ok();
    }
    std::fs::remove_dir_all(&merged).ok();
}

#[test]
#[ignore = "writes tests/golden/figures_all_2000.txt from the current figures binary"]
fn regenerate() {
    std::fs::create_dir_all(Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN_PATH, unsharded_transcript()).expect("write golden");
}
