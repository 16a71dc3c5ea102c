//! Core-geometry golden: the issue stage across window shapes.
//!
//! The other goldens run only the paper's 128-entry ROB at issue width 8.
//! The ROB is a power-of-two ring, so the core's per-slot bookkeeping must
//! also hold for windows smaller than, equal to and larger than one 64-bit
//! word, and for windows whose ring capacity exceeds `rob_entries` (65 and
//! 100 entries live in a 128-slot ring). Issue width 1 makes the
//! oldest-first selection order visible in every cycle; width 8 is the
//! paper's.
//!
//! Each cell runs under both kernels and must reproduce the committed
//! golden byte-for-byte. Regenerate it after an *intentional* semantic
//! change with:
//! `cargo test --test core_geometry -- --ignored regenerate`

use ppf_sim::{KernelMode, Simulator};
use ppf_types::{JsonValue, SimStats, SystemConfig, ToJson};
use ppf_workloads::Workload;

/// A pointer chase (em3d), a mixed integer code (mcf) and a floating-point
/// code (wave5): long-miss heads, dependent chains and FP latencies.
const WORKLOADS: [Workload; 3] = [Workload::Em3d, Workload::Mcf, Workload::Wave5];
/// Sub-word, exact-word, just-past-a-word, non-power-of-two and
/// multi-word windows.
const ROB_ENTRIES: [usize; 7] = [8, 48, 64, 65, 100, 128, 256];
const ISSUE_WIDTHS: [usize; 2] = [1, 8];

const WARMUP: u64 = 5_000;
const INSTRUCTIONS: u64 = 25_000;
const SEED: u64 = 11;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/core_geometry.json"
);

fn config(rob_entries: usize, issue_width: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.core.rob_entries = rob_entries;
    cfg.core.issue_width = issue_width;
    cfg
}

fn cell_stats(
    workload: Workload,
    rob_entries: usize,
    issue_width: usize,
    kernel: KernelMode,
) -> SimStats {
    let mut sim = Simulator::with_seed(
        config(rob_entries, issue_width),
        Box::new(workload.stream(SEED)),
        SEED,
    )
    .expect("valid config")
    .labeled("core-geometry", workload.name())
    .with_kernel(kernel);
    sim.warmup(WARMUP);
    sim.run(INSTRUCTIONS).stats
}

fn geometry_json(kernel: KernelMode) -> String {
    let mut cells = Vec::new();
    for &w in &WORKLOADS {
        for &rob in &ROB_ENTRIES {
            for &width in &ISSUE_WIDTHS {
                cells.push(JsonValue::Object(vec![
                    ("workload".to_string(), JsonValue::Str(w.name().to_string())),
                    ("rob_entries".to_string(), JsonValue::UInt(rob as u64)),
                    ("issue_width".to_string(), JsonValue::UInt(width as u64)),
                    (
                        "stats".to_string(),
                        cell_stats(w, rob, width, kernel).to_json(),
                    ),
                ]));
            }
        }
    }
    let doc = JsonValue::Object(vec![
        (
            "drill".to_string(),
            JsonValue::Str("core-geometry".to_string()),
        ),
        ("seed".to_string(), JsonValue::UInt(SEED)),
        ("warmup".to_string(), JsonValue::UInt(WARMUP)),
        ("instructions".to_string(), JsonValue::UInt(INSTRUCTIONS)),
        ("cells".to_string(), JsonValue::Array(cells)),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

fn golden() -> String {
    std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden missing — regenerate with \
         `cargo test --test core_geometry -- --ignored regenerate`",
    )
}

#[test]
fn stepping_kernel_matches_geometry_golden() {
    assert_eq!(
        geometry_json(KernelMode::Stepping),
        golden(),
        "stepping kernel drifted from the core-geometry golden"
    );
}

#[test]
fn skip_ahead_kernel_matches_geometry_golden() {
    assert_eq!(
        geometry_json(KernelMode::SkipAhead),
        golden(),
        "skip-ahead kernel drifted from the core-geometry golden"
    );
}

#[test]
#[ignore = "writes tests/golden/core_geometry.json from the stepping kernel"]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, geometry_json(KernelMode::Stepping)).expect("write golden");
}
