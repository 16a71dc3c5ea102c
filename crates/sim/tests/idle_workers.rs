//! Idle grid workers park instead of spinning.
//!
//! When the queue runs dry while a peer still runs a long cell, the idle
//! worker must sleep until there is work or the run ends. A worker that
//! spins on `yield_now` burns a whole core for as long as the straggler
//! runs, which the process's CPU time shows directly.
//!
//! This file holds a single test so no other test thread adds CPU time
//! while it measures (`/proc/self/stat` counts the whole process).

#![cfg(target_os = "linux")]

use ppf_sim::schedule::{run_scheduled, Attempt};
use std::time::Duration;

/// How long the one slow job runs (asleep, so it costs no CPU itself).
const SLOW_JOB: Duration = Duration::from_millis(300);
/// CPU budget for the whole run: far below the slow job's length, which a
/// spinning idle worker would burn almost entirely.
const MAX_CPU_MS: u64 = 100;

/// User plus system CPU time of this process so far, in clock ticks
/// (fields 14 and 15 of `/proc/self/stat`).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from the closing parenthesis: field 3 comes first.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<u64> = after_comm
        .split_whitespace()
        .skip(14 - 3)
        .take(2)
        .map(|f| f.parse().expect("numeric CPU time field"))
        .collect();
    fields.iter().sum()
}

#[test]
fn idle_worker_parks_while_the_last_job_runs() {
    // Linux reports these fields in USER_HZ ticks, which is 100 per second
    // on every architecture the kernel supports.
    const TICK_MS: u64 = 10;
    let costs = [1000u64, 1, 1, 1, 1];
    let before = cpu_ticks();
    let (results, _) = run_scheduled(costs.len(), 2, &costs, |job, _| {
        if job == 0 {
            std::thread::sleep(SLOW_JOB);
        }
        Attempt::Done(job)
    });
    let cpu_ms = (cpu_ticks() - before) * TICK_MS;
    assert_eq!(results, vec![0, 1, 2, 3, 4]);
    assert!(
        cpu_ms < MAX_CPU_MS,
        "the run used {cpu_ms} ms of CPU while one job slept {} ms: \
         the idle worker is spinning instead of parking",
        SLOW_JOB.as_millis()
    );
}
