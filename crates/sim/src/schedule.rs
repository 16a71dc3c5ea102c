//! The grid scheduler: one longest-predicted-first queue, the cell key,
//! and a persisted cost model.
//!
//! Jobs are sorted once by predicted cost, descending, and workers claim
//! them through a single atomic cursor over that order, so the
//! predicted-longest cells start first and a straggler is never stuck
//! behind cheap work. A failed attempt goes to a retry queue that workers
//! drain after the sorted order, never re-run inline, so one flaky cell
//! cannot hold up the rest. A worker with nothing to claim while peers
//! still run parks on a condition variable until a retry arrives or the
//! last job finishes; it never spins.
//!
//! Dispatch order is driven by [`CostModel`]: exact per-cell wall times
//! recorded by previous runs (persisted as `TIMINGS.json` inside the
//! checkpoint directory), falling back to a calibrated micros-per-
//! instruction mean, falling back to a static config-feature heuristic.
//! The cost model only affects *order*; results are position-addressed,
//! so any schedule produces byte-identical output.

use crate::experiments::RunSpec;
use ppf_types::{json_struct, FromJson, PpfError, ToJson};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// FNV-1a 64-bit over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis (the standard 64-bit seed).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Version stamp hashed into every [`cell_key`]. Bump it whenever the
/// key's inputs or encoding change: results stored under older keys are
/// then never found again (a checkpoint directory written before the bump
/// is ignored, not misread).
pub const CELL_KEY_VERSION: u64 = 2;

/// The canonical key of one cell: a versioned FNV-1a hash of everything
/// the machine sees — config JSON, workload, seed, instruction budgets,
/// adversary — plus the watchdog bounds, which decide whether a cell
/// errors. The label is left out: it is presentation, copied into the
/// report and never fed back into the machine, so two experiments that run
/// the same machine under different names share one key. Fault injection
/// and telemetry are left out too; cells carrying either are never stored
/// or deduplicated (see `ppf_bench::memo::memo_key`).
///
/// The key names a cell in the result store, partitions a sweep across
/// shards, and looks up recorded wall times in the [`CostModel`].
pub fn cell_key(spec: &RunSpec) -> String {
    let mut h = FNV_OFFSET;
    let adversary = spec.adversary.map(|a| a.describe()).unwrap_or_default();
    for part in [
        &CELL_KEY_VERSION.to_string(),
        &spec.config.to_json_string(),
        spec.workload.name(),
        &spec.seed.to_string(),
        &spec.n_instructions.to_string(),
        &spec.warmup.to_string(),
        &adversary,
        &spec.watchdog.max_cpi.to_string(),
        &spec.watchdog.stall_window.to_string(),
    ] {
        h = fnv1a(h, part.as_bytes());
        // Field separator so ("ab","c") and ("a","bc") cannot collide.
        h = fnv1a(h, &[0]);
    }
    format!("{h:016x}")
}

/// Schema version of the persisted cost model. A bump discards old files
/// (predictions are advisory, so silently starting cold is correct).
const COST_MODEL_VERSION: u64 = 1;

/// One recorded cell wall-time.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEntry {
    /// The cell's content-hash key ([`cell_key`]).
    pub key: String,
    /// Total instructions the cell executed (warm-up + measured).
    pub insts: u64,
    /// Recorded wall time in microseconds.
    pub micros: u64,
}

json_struct!(CostEntry { key, insts, micros });

/// The persisted form of a [`CostModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModelDoc {
    /// Schema version ([`CostModelDoc`] files with another version are
    /// ignored).
    pub version: u64,
    /// Recorded cell wall-times.
    pub entries: Vec<CostEntry>,
}

json_struct!(CostModelDoc { version, entries });

/// Predicted-cost oracle for grid cells: exact recorded wall times by cell
/// key, with a calibrated micros-per-instruction fallback for cells never
/// seen before, and a pure config-feature heuristic when no history exists
/// at all. Predictions only order dispatch; they never change results.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    exact: HashMap<String, u64>,
    total_micros: u64,
    total_insts: u64,
}

impl CostModel {
    /// An empty model (heuristic-only predictions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of exact per-cell observations.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Record one observed cell wall-time (replacing any previous
    /// observation for the same key).
    pub fn record(&mut self, key: &str, insts: u64, micros: u64) {
        if self.exact.insert(key.to_string(), micros).is_none() {
            self.total_micros = self.total_micros.saturating_add(micros);
            self.total_insts = self.total_insts.saturating_add(insts);
        }
    }

    /// Predicted cost (microseconds-shaped, but only the *ordering*
    /// matters) of a cell with key `key` running `insts` instructions on a
    /// configuration of relative weight `weight` (100 = baseline; see
    /// `experiments::predicted_cost`).
    pub fn predict(&self, key: &str, insts: u64, weight: u64) -> u64 {
        if let Some(&micros) = self.exact.get(key) {
            return micros;
        }
        if self.total_insts > 0 {
            let per_inst_scaled = self.total_micros.saturating_mul(weight);
            return insts
                .saturating_mul(per_inst_scaled / self.total_insts.max(1) / 100)
                .max(1);
        }
        insts.saturating_mul(weight) / 100
    }

    /// The persistable document form.
    pub fn to_doc(&self) -> CostModelDoc {
        let mut entries: Vec<CostEntry> = self
            .exact
            .iter()
            .map(|(key, &micros)| CostEntry {
                key: key.clone(),
                // Per-key instruction counts are not kept (only the totals
                // matter for the fallback rate), so entries carry the mean.
                insts: self.total_insts / self.exact.len().max(1) as u64,
                micros,
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        CostModelDoc {
            version: COST_MODEL_VERSION,
            entries,
        }
    }

    /// Rebuild a model from its document form. Version skew yields an
    /// empty model: cost history is advisory, never load-bearing.
    pub fn from_doc(doc: &CostModelDoc) -> Self {
        let mut model = CostModel::new();
        if doc.version != COST_MODEL_VERSION {
            return model;
        }
        for e in &doc.entries {
            model.record(&e.key, e.insts, e.micros);
        }
        model
    }

    /// Load a model persisted by [`CostModel::save`]. A missing or
    /// unparseable file yields an empty model (never an error — the model
    /// is an ordering hint, not state).
    pub fn load(path: &Path) -> Self {
        match std::fs::read_to_string(path) {
            Ok(text) => CostModelDoc::from_json_str(&text)
                .map(|doc| Self::from_doc(&doc))
                .unwrap_or_default(),
            Err(_) => CostModel::new(),
        }
    }

    /// Persist the model atomically (tmp + rename).
    pub fn save(&self, path: &Path) -> Result<(), PpfError> {
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_doc().to_json_pretty())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| PpfError::io(e.to_string()).context(format!("writing {}", path.display())))
    }
}

/// The result of one scheduled job execution attempt.
#[derive(Debug)]
pub enum Attempt<R> {
    /// The job finished (successfully or with a terminal failure); `R` is
    /// its result.
    Done(R),
    /// The attempt failed and the job should go to the retry queue with an
    /// incremented attempt counter.
    Retry,
}

/// Execution trace of one scheduled run, for tests and telemetry.
#[derive(Debug, Default)]
pub struct Trace {
    /// Job indices in the order execution *started* (a retried job appears
    /// once per attempt).
    pub start_order: Vec<usize>,
    /// Retry re-enqueues.
    pub retries: u64,
    /// Wall time of each job's final attempt, in microseconds.
    pub cell_micros: Vec<u64>,
}

/// One schedulable unit: a job index plus its 0-based attempt counter.
#[derive(Debug, Clone, Copy)]
struct Task {
    job: usize,
    attempt: u32,
}

/// The part of the queue guarded by one lock: retried tasks, and the jobs
/// not yet done. Workers may only exit when `outstanding` reaches zero: an
/// empty queue is not termination while a peer still runs a job that might
/// come back as a retry.
struct Pending {
    retries: VecDeque<Task>,
    outstanding: usize,
}

/// Run `n` jobs over `workers` threads. `costs[i]` is job `i`'s predicted
/// cost (ordering only); `exec(job, attempt)` runs one attempt and decides
/// completion vs retry. Results are returned in job order regardless of
/// schedule. `exec` must eventually return [`Attempt::Done`] for every job
/// (the grid runner bounds attempts itself).
pub fn run_scheduled<R, F>(n: usize, workers: usize, costs: &[u64], exec: F) -> (Vec<R>, Trace)
where
    R: Send,
    F: Fn(usize, u32) -> Attempt<R> + Sync,
{
    assert_eq!(costs.len(), n, "one cost per job");
    let workers = workers.clamp(1, n.max(1));
    if n == 0 {
        return (Vec::new(), Trace::default());
    }

    // Cost-descending dispatch order; the sort is stable, so equal costs
    // keep input order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    let cursor = AtomicUsize::new(0);
    let pending = Mutex::new(Pending {
        retries: VecDeque::new(),
        outstanding: n,
    });
    let wake = Condvar::new();
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let start_order: Mutex<Vec<usize>> = Mutex::new(Vec::with_capacity(n));
    let cell_micros: Mutex<Vec<u64>> = Mutex::new(vec![0; n]);

    // The sorted order first, then retries; with neither, park until a
    // peer retries a job or the last job finishes.
    let next_task = || {
        let pos = cursor.fetch_add(1, Ordering::Relaxed);
        if pos < n {
            return Some(Task {
                job: order[pos],
                attempt: 0,
            });
        }
        let mut p = lock(&pending);
        loop {
            if let Some(task) = p.retries.pop_front() {
                return Some(task);
            }
            if p.outstanding == 0 {
                return None;
            }
            p = wake
                .wait(p)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    };

    let worker_loop = || {
        while let Some(task) = next_task() {
            lock(&start_order).push(task.job);
            let t0 = std::time::Instant::now();
            match exec(task.job, task.attempt) {
                Attempt::Done(r) => {
                    let micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    lock(&cell_micros)[task.job] = micros;
                    lock(&results)[task.job] = Some(r);
                    let mut p = lock(&pending);
                    p.outstanding -= 1;
                    if p.outstanding == 0 {
                        wake.notify_all();
                    }
                }
                Attempt::Retry => {
                    lock(&pending).retries.push_back(Task {
                        job: task.job,
                        attempt: task.attempt + 1,
                    });
                    wake.notify_one();
                }
            }
        }
    };

    if workers == 1 {
        worker_loop();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker_loop);
            }
        });
    }

    let start_order = start_order
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every job completed"))
        .collect();
    let trace = Trace {
        retries: (start_order.len() - n) as u64,
        start_order,
        cell_micros: cell_micros
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    };
    (results, trace)
}

/// Lock a mutex, recovering from poisoning (worker panics are contained
/// upstream by `catch_unwind`; a stray poison must not cascade).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn single_worker_starts_costliest_first() {
        let costs = [1u64, 9, 5, 7];
        let (results, trace) = run_scheduled(4, 1, &costs, |job, _| Attempt::Done(job));
        assert_eq!(results, vec![0, 1, 2, 3], "results stay in job order");
        assert_eq!(trace.start_order, vec![1, 3, 2, 0], "dispatch is cost-desc");
        assert_eq!(trace.retries, 0);
        assert_eq!(trace.cell_micros.len(), 4);
    }

    #[test]
    fn uniform_costs_keep_fifo_order() {
        // The FIFO baseline the cost model improves on: with no cost
        // signal the sort is stable, so dispatch degenerates to input
        // order — and with a skewed grid (see above) it provably does not.
        let costs = [3u64; 5];
        let (_, trace) = run_scheduled(5, 1, &costs, |job, _| Attempt::Done(job));
        assert_eq!(trace.start_order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn retry_re_enqueues_at_the_back() {
        // Job 0 fails its first attempt. The retry must go to the retry
        // queue, drained after the sorted order, NOT re-run inline: with
        // one worker the observable order is 0,1,2,0 — an inline-retry
        // runner would produce 0,0,1,2.
        let costs = [1u64; 3];
        let (results, trace) = run_scheduled(3, 1, &costs, |job, attempt| {
            if job == 0 && attempt == 0 {
                Attempt::Retry
            } else {
                Attempt::Done((job, attempt))
            }
        });
        assert_eq!(trace.start_order, vec![0, 1, 2, 0]);
        assert_eq!(trace.retries, 1);
        assert_eq!(results, vec![(0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn light_worker_drains_every_other_job_while_the_heavy_one_runs() {
        // The heavy job starts first (cost-desc) and does not finish until
        // every light job has: the other worker must claim all of them
        // from the shared cursor. A per-worker split of the order would
        // strand light jobs behind the heavy one and time out here.
        const LIGHT: usize = 5;
        let costs = [1000u64, 1, 1, 1, 1, 1];
        let light_done = AtomicUsize::new(0);
        let (results, trace) = run_scheduled(6, 2, &costs, |job, _| {
            if job == 0 {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while light_done.load(Ordering::SeqCst) < LIGHT
                    && std::time::Instant::now() < deadline
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Attempt::Done(light_done.load(Ordering::SeqCst))
            } else {
                light_done.fetch_add(1, Ordering::SeqCst);
                Attempt::Done(job)
            }
        });
        assert_eq!(
            results[0], LIGHT,
            "light jobs all finished under the heavy one"
        );
        assert_eq!(&results[1..], &[1, 2, 3, 4, 5]);
        assert_eq!(trace.start_order[0], 0, "the heavy job starts first");
    }

    #[test]
    fn many_cheap_jobs_with_retries_never_deadlock() {
        // Thousands of near-zero-cost jobs keep every worker cycling
        // through the cursor, the retry queue and the idle wait at once,
        // which is where a lost wake-up or a lock-order slip deadlocks. The run happens on a helper thread so a hang
        // fails the test at the deadline instead of stalling the suite.
        const JOBS: usize = 4000;
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            for workers in 2..=8 {
                let costs: Vec<u64> = (0..JOBS as u64).map(|i| i % 7).collect();
                let (results, trace) = run_scheduled(JOBS, workers, &costs, |job, attempt| {
                    if job % 5 == 0 && attempt < 2 {
                        Attempt::Retry
                    } else {
                        Attempt::Done(job)
                    }
                });
                assert_eq!(results, (0..JOBS).collect::<Vec<_>>());
                assert_eq!(trace.retries, 2 * JOBS.div_ceil(5) as u64);
                assert_eq!(trace.start_order.len(), JOBS + trace.retries as usize);
            }
            tx.send(()).ok();
        });
        // A panic drops `tx` and ends the wait early; join then re-raises
        // it. Only a hang reaches the deadline.
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            rx.recv_timeout(std::time::Duration::from_secs(60))
        {
            panic!("run_scheduled did not finish within 60 s: deadlocked workers");
        }
        if let Err(panic) = runner.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn zero_jobs_and_worker_clamp() {
        let (results, trace) = run_scheduled::<usize, _>(0, 8, &[], |_, _| unreachable!());
        assert!(results.is_empty());
        assert!(trace.start_order.is_empty());
        // More workers than jobs is clamped (no idle spawn storm).
        let (r, _) = run_scheduled(2, 64, &[1, 1], |job, _| Attempt::Done(job));
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn cost_model_prediction_tiers() {
        let mut m = CostModel::new();
        assert!(m.is_empty());
        // Heuristic tier: pure insts × weight.
        assert_eq!(m.predict("k0", 1000, 100), 1000);
        assert_eq!(m.predict("k0", 1000, 140), 1400);
        // Calibrated tier: 2 micros/inst mean from one observation.
        m.record("k1", 1000, 2000);
        assert_eq!(m.len(), 1);
        assert_eq!(m.predict("k2", 500, 100), 1000);
        // Exact tier beats both.
        assert_eq!(m.predict("k1", 500, 100), 2000);
        // Re-recording a key replaces, not double-counts.
        m.record("k1", 1000, 4000);
        assert_eq!(m.predict("k1", 1, 100), 4000);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn cost_model_persistence_round_trips() {
        let dir = std::env::temp_dir().join(format!("ppf-costmodel-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("TIMINGS.json");
        let mut m = CostModel::new();
        m.record("aaaa", 10_000, 123_456);
        m.record("bbbb", 20_000, 654_321);
        m.save(&path).unwrap();
        let back = CostModel::load(&path);
        assert_eq!(back.len(), 2);
        for key in ["aaaa", "bbbb"] {
            assert_eq!(back.predict(key, 1, 100), m.predict(key, 1, 100));
        }
        // Calibrated fallback survives the round trip (totals rebuilt).
        assert_eq!(back.predict("cccc", 100, 100), m.predict("cccc", 100, 100));
        // Version skew loads as empty, not as an error.
        let doc = CostModelDoc {
            version: COST_MODEL_VERSION + 1,
            entries: m.to_doc().entries,
        };
        std::fs::write(&path, doc.to_json_pretty()).unwrap();
        assert!(CostModel::load(&path).is_empty());
        // Missing and corrupt files load as empty too.
        assert!(CostModel::load(&dir.join("absent.json")).is_empty());
        std::fs::write(&path, "{ not json").unwrap();
        assert!(CostModel::load(&path).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
