//! The sweep plan: which cells to run, run once.
//!
//! A [`Plan`] takes the union of several grids' cells (one grid per
//! experiment), keeps only the cells a shard owns, fans every cell out over
//! the workload seeds, and deduplicates the resulting runs by [`cell_key`]
//! — so a cell that five experiments need under five labels is one run.
//! [`Plan::execute`] serves each run from a [`CellStore`] when it can and
//! executes the rest in one longest-predicted-first queue, writing every
//! fresh report through to the store. [`Executed::outcomes`] then rebuilds
//! each grid from the store: one outcome per covered cell, seeds merged,
//! the grid's own label restored.
//!
//! Each run is counted against its *owner*, the first grid that planned
//! it, so per-grid counts add up to the plan's totals.

use crate::memo::{is_storable, CellStore};
use crate::shard::ShardSpec;
use ppf_sim::experiments::{
    fanned_seed, merge_seed_outcomes, predicted_cost, run_cells, CellFailure, CellOutcome, RunSpec,
};
use ppf_sim::schedule::{cell_key, CostModel};
use ppf_sim::SimReport;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Mutex, PoisonError};

/// One grid cell this invocation covers.
#[derive(Debug)]
struct Cell {
    /// The cell's position in its full grid.
    index: u64,
    /// The cell's label in this grid (stored reports carry whichever label
    /// first ran them).
    label: String,
}

/// One grid's share of the plan.
#[derive(Debug)]
struct Grid {
    /// Cells in the full grid, covered or not.
    total: u64,
    /// The covered cells (all of them, or the shard's), in grid order.
    cells: Vec<Cell>,
    /// The plan run behind each covered cell and seed: cell `c`'s seeds are
    /// `runs[c * seeds..(c + 1) * seeds]`, base seed first.
    runs: Vec<usize>,
}

/// The distinct runs of a sweep, planned once (see the module docs).
#[derive(Debug)]
pub struct Plan {
    grids: Vec<Grid>,
    /// The distinct runs, in the order first planned.
    runs: Vec<RunSpec>,
    /// Each run's [`cell_key`].
    keys: Vec<String>,
    /// Each run's owner grid.
    owners: Vec<usize>,
    seeds: usize,
}

/// What became of one run.
#[derive(Debug)]
enum Done {
    /// Its report is in the store under the run's key.
    Stored,
    /// Its report, for a run that is never stored (fault and telemetry
    /// cells).
    Report(Box<SimReport>),
    /// Every attempt failed.
    Failed(Box<CellFailure>),
}

/// A plan after execution: where each run's result is, and the counts.
#[derive(Debug)]
pub struct Executed {
    grids: Vec<Grid>,
    keys: Vec<String>,
    done: Vec<Done>,
    seeds: usize,
    /// Per grid: owned runs the store already held (memory or directory).
    pub served: Vec<usize>,
    /// Per grid: owned runs executed.
    pub executed: Vec<usize>,
}

impl Plan {
    /// Plan `grids` at `seeds` workload seeds each (minimum 1), keeping
    /// only the cells `shard` owns when given.
    pub fn new(grids: Vec<Vec<RunSpec>>, seeds: u32, shard: Option<ShardSpec>) -> Plan {
        let seeds = seeds.max(1);
        let mut plan = Plan {
            grids: Vec::with_capacity(grids.len()),
            runs: Vec::new(),
            keys: Vec::new(),
            owners: Vec::new(),
            seeds: seeds as usize,
        };
        let mut by_key: HashMap<String, usize> = HashMap::new();
        for (owner, grid) in grids.into_iter().enumerate() {
            let mut planned = Grid {
                total: grid.len() as u64,
                cells: Vec::new(),
                runs: Vec::new(),
            };
            for (index, spec) in grid.into_iter().enumerate() {
                let base_key = cell_key(&spec);
                if shard.is_some_and(|s| !s.contains(&base_key)) {
                    continue;
                }
                let mut base_key = Some(base_key);
                for s in 0..seeds {
                    let mut run = spec.clone();
                    run.seed = fanned_seed(spec.seed, s);
                    // Seed 0 is the base seed, whose key is already known.
                    let key = base_key.take().unwrap_or_else(|| cell_key(&run));
                    let slot = if is_storable(&run) {
                        match by_key.entry(key) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(e) => {
                                let slot = plan.push(run, e.key().clone(), owner);
                                *e.insert(slot)
                            }
                        }
                    } else {
                        plan.push(run, key, owner)
                    };
                    planned.runs.push(slot);
                }
                planned.cells.push(Cell {
                    index: index as u64,
                    label: spec.label,
                });
            }
            plan.grids.push(planned);
        }
        plan
    }

    fn push(&mut self, run: RunSpec, key: String, owner: usize) -> usize {
        self.runs.push(run);
        self.keys.push(key);
        self.owners.push(owner);
        self.runs.len() - 1
    }

    /// Serve what the store holds, execute the rest (each fresh report is
    /// written through to the store as its cell finishes), and refresh the
    /// store's cost model with the observed wall times. Failures to write
    /// the directory are reported on stderr and never fatal: the results
    /// are in memory either way.
    pub fn execute(self, store: &CellStore) -> Executed {
        let Plan {
            grids,
            runs,
            keys,
            owners,
            seeds,
        } = self;
        let mut served = vec![0; grids.len()];
        let mut executed = vec![0; grids.len()];
        let mut done: Vec<Option<Done>> = (0..runs.len()).map(|_| None).collect();
        // Runs to execute: plan index and spec, in plan order.
        let mut pending: Vec<usize> = Vec::new();
        let mut specs: Vec<RunSpec> = Vec::new();
        for (i, run) in runs.into_iter().enumerate() {
            if is_storable(&run) && store.fetch(&keys[i]) {
                served[owners[i]] += 1;
                done[i] = Some(Done::Stored);
            } else {
                executed[owners[i]] += 1;
                pending.push(i);
                specs.push(run);
            }
        }

        let timings = store.timings_path();
        let mut model = timings.as_deref().map(CostModel::load).unwrap_or_default();
        let costs: Vec<u64> = pending
            .iter()
            .zip(&specs)
            .map(|(&i, spec)| predicted_cost(&model, &keys[i], spec))
            .collect();
        let insts: Vec<u64> = specs.iter().map(|s| s.warmup + s.n_instructions).collect();
        let storable: Vec<bool> = specs.iter().map(is_storable).collect();
        let errors = Mutex::new(Vec::new());
        let (finished, trace) = run_cells(specs, &costs, |j, outcome| match outcome {
            CellOutcome::Ok(report) if storable[j] => {
                if let Err(e) = store.put(&keys[pending[j]], *report) {
                    errors
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(e);
                }
                Done::Stored
            }
            CellOutcome::Ok(report) => Done::Report(report),
            CellOutcome::Failed(f) => Done::Failed(Box::new(f)),
        });
        // Stored cells' wall times feed the cost model; a failed cell's
        // time measures the failure, not the work.
        for (j, (result, &micros)) in finished.iter().zip(&trace.cell_micros).enumerate() {
            if matches!(result, Done::Stored) && micros > 0 {
                model.record(&keys[pending[j]], insts[j], micros);
            }
        }
        let mut errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let (Some(path), false) = (timings, pending.is_empty()) {
            errors.extend(model.save(&path).err());
        }
        for e in errors {
            eprintln!("warning: {e}");
        }
        for (i, result) in pending.into_iter().zip(finished) {
            done[i] = Some(result);
        }
        Executed {
            grids,
            keys,
            done: done
                .into_iter()
                .map(|d| d.expect("every run served or executed"))
                .collect(),
            seeds,
            served,
            executed,
        }
    }
}

impl Executed {
    /// Grid `g`'s outcomes, one per covered cell in grid order: seeds
    /// merged, and the grid's own label on every report and failure.
    pub fn outcomes(&self, g: usize, store: &CellStore) -> Vec<CellOutcome> {
        let grid = &self.grids[g];
        grid.cells
            .iter()
            .zip(grid.runs.chunks(self.seeds))
            .map(|(cell, runs)| {
                let per_seed = runs
                    .iter()
                    .map(|&r| match &self.done[r] {
                        Done::Stored => CellOutcome::Ok(Box::new(
                            store
                                .report(&self.keys[r])
                                .expect("stored reports stay in memory"),
                        )),
                        Done::Report(report) => CellOutcome::Ok(report.clone()),
                        Done::Failed(f) => CellOutcome::Failed((**f).clone()),
                    })
                    .collect();
                let mut merged = merge_seed_outcomes(per_seed, 1, self.seeds as u32)
                    .pop()
                    .expect("one merged outcome");
                match &mut merged {
                    CellOutcome::Ok(report) => report.label.clone_from(&cell.label),
                    CellOutcome::Failed(f) => f.label.clone_from(&cell.label),
                }
                merged
            })
            .collect()
    }

    /// Cells in grid `g`'s full grid, covered or not.
    pub fn total(&self, g: usize) -> u64 {
        self.grids[g].total
    }

    /// Grid positions and keys of grid `g`'s covered cells, in grid order.
    pub fn coverage(&self, g: usize) -> (Vec<u64>, Vec<String>) {
        let grid = &self.grids[g];
        grid.cells
            .iter()
            .zip(grid.runs.chunks(self.seeds))
            .map(|(cell, runs)| (cell.index, self.keys[runs[0]].clone()))
            .unzip()
    }
}
