//! Integration tests for the interval-telemetry subsystem.
//!
//! The load-bearing guarantee: telemetry is an observer, never an actor.
//! A run with telemetry at *any* sampling interval must produce the same
//! `SimStats` as the same run with telemetry off — the property the
//! figures pipeline relies on when it instruments sweeps. The off path's
//! cost is the repository benchmark's to bound: its hot loop runs with
//! telemetry off.

mod common;

use ppf_types::telemetry::{self, JsonlSink, TelemetryConfig};
use ppf_types::{SimStats, SystemConfig};
use ppf_workloads::Workload;
use proptest::prelude::*;

const N: u64 = 40_000;

fn run_with(telemetry: Option<TelemetryConfig>, workload: Workload, seed: u64) -> SimStats {
    common::run_with_telemetry(telemetry, workload, seed, N)
}

#[test]
fn telemetry_off_and_disabled_and_default_are_identical() {
    // Three constructions of "off": never attached, attached-but-disabled,
    // and the default config. All must be bit-identical.
    let plain = run_with(None, Workload::Em3d, 42);
    let disabled = run_with(Some(TelemetryConfig::default()), Workload::Em3d, 42);
    let explicit = run_with(
        Some(TelemetryConfig {
            enabled: false,
            interval_cycles: 123,
        }),
        Workload::Em3d,
        42,
    );
    assert_eq!(plain, disabled);
    assert_eq!(plain, explicit);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole property: no sampling interval, however pathological,
    // perturbs the simulation.
    #[test]
    fn any_sampling_interval_leaves_stats_unchanged(
        interval in 1u64..20_000,
        seed in 0u64..1_000,
    ) {
        let baseline = run_with(None, Workload::Mcf, seed);
        let sampled = run_with(Some(TelemetryConfig::every(interval)), Workload::Mcf, seed);
        prop_assert_eq!(baseline, sampled);
    }
}

#[test]
fn real_run_records_round_trip_through_jsonl_sink() {
    let mut sim = common::sim(SystemConfig::paper_default(), Workload::Wave5, 7)
        .with_telemetry(&TelemetryConfig::every(2_000))
        .unwrap();
    sim.run(N);
    let records = sim.take_telemetry_records();
    assert!(!records.is_empty());

    // Text round trip.
    let text = telemetry::to_jsonl(&records);
    assert_eq!(telemetry::parse_jsonl(&text).unwrap(), records);

    // Disk round trip through the atomic sink.
    let dir = std::env::temp_dir().join("ppf-telemetry-integration-test");
    std::fs::create_dir_all(&dir).unwrap();
    let sink = JsonlSink::new(dir.join("run.jsonl"));
    sink.write(&records).unwrap();
    assert_eq!(sink.read().unwrap(), records);
    std::fs::remove_dir_all(&dir).ok();
}
