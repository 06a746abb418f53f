//! The parallel sweep runner.
//!
//! Every figure sweep has the same shape of experiment: a cross product
//! of (benchmarks × scheme/machine cells), where per-benchmark context
//! construction is expensive and every cell is independent. A
//! [`SweepSpec`] declares that sweep; [`SweepSpec::run`] executes it on a
//! pool of [`std::thread::scope`] workers pulling benchmark tasks from a
//! shared queue (worker count = available parallelism, overridable with
//! [`SweepSpec::jobs`] or, for binaries, the `MG_JOBS` knob parsed by
//! [`crate::config`]), with per-benchmark artifacts memoized by
//! [`crate::cache`].
//!
//! Results are collected in deterministic sweep order — row `i` is always
//! benchmark `i` of the spec, cell `j` always the `j`-th added cell — so
//! the JSON a parallel sweep produces is byte-identical to a serial
//! (`MG_JOBS=1`) run.
//!
//! A cell that fails ([`BenchError::CycleCap`], a workload execution
//! error) is recorded as a failure row; the sweep continues. Each
//! [`SweepResult`] carries a [`SweepSummary`] with per-benchmark wall
//! times and cache outcomes plus sweep-wide context-cache counters,
//! printed as a footer unless the spec is [`SweepSpec::quiet`].
//!
//! Progress output goes through the `mg-obs` leveled logger: set
//! `MG_LOG=error` to silence a noisy sweep or `MG_LOG=debug` for the full
//! per-benchmark timing listing ([`SweepSummary::print_footer`]).

use crate::cache::{self, stable_hash64, CacheCounters, CacheOutcome};
use crate::harness::{BenchContext, BenchError, Scheme, SchemeRun};
use crate::journal::{self, Journal};
use crate::supervisor;
use mg_core::candidate::SelectionConfig;
use mg_obs::{mg_debug, mg_error, mg_info, tele_counter, tele_hist};
use mg_sim::{MachineConfig, MgConfig};
use mg_workloads::{BenchmarkSpec, InputSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One (scheme, machine) cell of a sweep, with optional per-cell
/// overrides for the mini-graph hardware and the selection configuration
/// (ablations).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// The selection scheme to run.
    pub scheme: Scheme,
    /// The machine to run it on.
    pub machine: MachineConfig,
    /// Mini-graph hardware override (default: [`MgConfig::paper`]).
    pub mg: Option<MgConfig>,
    /// Selection-configuration override (default:
    /// [`SelectionConfig::default`]).
    pub sel: Option<SelectionConfig>,
}

impl SweepCell {
    /// A cell with the default mini-graph hardware and selection knobs.
    pub fn new(scheme: Scheme, machine: &MachineConfig) -> SweepCell {
        SweepCell {
            scheme,
            machine: machine.clone(),
            mg: None,
            sel: None,
        }
    }

    /// Overrides the mini-graph hardware configuration.
    pub fn with_mg(mut self, mg: MgConfig) -> SweepCell {
        self.mg = Some(mg);
        self
    }

    /// Overrides the selection configuration.
    pub fn with_sel(mut self, sel: SelectionConfig) -> SweepCell {
        self.sel = Some(sel);
        self
    }
}

/// How a sweep picks an input set for each benchmark.
#[derive(Clone, Debug, Default)]
pub enum InputSel {
    /// Each benchmark's primary input ([`BenchmarkSpec::primary_input`]).
    #[default]
    Primary,
    /// Each benchmark's alternate input ([`BenchmarkSpec::alternate_input`]).
    Alternate,
    /// One fixed input set for every benchmark.
    Fixed(InputSet),
}

impl InputSel {
    fn resolve(&self, spec: &BenchmarkSpec) -> InputSet {
        match self {
            InputSel::Primary => spec.primary_input(),
            InputSel::Alternate => spec.alternate_input(),
            InputSel::Fixed(input) => input.clone(),
        }
    }
}

/// A declarative benchmark sweep: benchmarks × cells, plus the training
/// setup shared by every benchmark context.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    benches: Vec<BenchmarkSpec>,
    cells: Vec<SweepCell>,
    train_cfg: MachineConfig,
    train_input: InputSel,
    run_input: InputSel,
    /// Worker count; `None` is available parallelism.
    /// [`supervisor::run_cli`] fills it from `MG_JOBS`.
    pub(crate) jobs: Option<usize>,
    disk_cache: bool,
    quiet: bool,
    journal: bool,
    resume: bool,
    journal_root: PathBuf,
    obs: bool,
}

impl SweepSpec {
    /// An empty sweep training slack profiles on `train_cfg`.
    pub fn new(train_cfg: &MachineConfig) -> SweepSpec {
        SweepSpec {
            benches: Vec::new(),
            cells: Vec::new(),
            train_cfg: train_cfg.clone(),
            train_input: InputSel::Primary,
            run_input: InputSel::Primary,
            jobs: None,
            disk_cache: true,
            quiet: false,
            journal: false,
            resume: false,
            journal_root: PathBuf::from(journal::JOURNAL_DIR),
            obs: false,
        }
    }

    /// Adds one benchmark.
    pub fn bench(mut self, spec: &BenchmarkSpec) -> SweepSpec {
        self.benches.push(spec.clone());
        self
    }

    /// Adds benchmarks in order.
    pub fn benches<I: IntoIterator<Item = BenchmarkSpec>>(mut self, specs: I) -> SweepSpec {
        self.benches.extend(specs);
        self
    }

    /// Adds one cell.
    pub fn cell(mut self, cell: SweepCell) -> SweepSpec {
        self.cells.push(cell);
        self
    }

    /// Adds cells in order.
    pub fn cells<I: IntoIterator<Item = SweepCell>>(mut self, cells: I) -> SweepSpec {
        self.cells.extend(cells);
        self
    }

    /// Selects the training input (default: each benchmark's primary).
    pub fn train_input(mut self, sel: InputSel) -> SweepSpec {
        self.train_input = sel;
        self
    }

    /// Selects the evaluation input (default: each benchmark's primary).
    pub fn run_input(mut self, sel: InputSel) -> SweepSpec {
        self.run_input = sel;
        self
    }

    /// Forces the worker count (otherwise available parallelism, or
    /// whatever the binary's [`crate::config::Config`] resolved).
    pub fn jobs(mut self, jobs: usize) -> SweepSpec {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Enables/disables the on-disk context cache layer (default on; the
    /// in-memory layer is always active).
    pub fn disk_cache(mut self, on: bool) -> SweepSpec {
        self.disk_cache = on;
        self
    }

    /// Suppresses progress dots and the summary footer.
    pub fn quiet(mut self, on: bool) -> SweepSpec {
        self.quiet = on;
        self
    }

    /// Journals each benchmark row whose cells all
    /// [`journal::persists`] to a crash-safe on-disk journal (one
    /// atomically-written, checksummed file per row under
    /// `results/journal/`), so an interrupted sweep can be resumed.
    /// Default: off for library callers; [`crate::supervisor::run_cli`]
    /// turns it on for every figure sweep.
    pub fn journal(mut self, on: bool) -> SweepSpec {
        self.journal = on;
        self
    }

    /// Replays rows journaled by a previous (interrupted) run of this
    /// same sweep instead of re-running them; replayed rows are
    /// bit-identical to the originals. Implies [`SweepSpec::journal`].
    pub fn resume(mut self, on: bool) -> SweepSpec {
        self.resume = on;
        self.journal |= on;
        self
    }

    /// Overrides the journal root directory (tests; default
    /// [`journal::JOURNAL_DIR`]).
    pub fn journal_dir<P: Into<PathBuf>>(mut self, root: P) -> SweepSpec {
        self.journal_root = root.into();
        self
    }

    /// Attaches the pipeline observer to every cell run (default off):
    /// each benchmark row then gets a per-benchmark
    /// [`mg_obs::ObsAggregate`] in [`SweepResult::obs`], and
    /// [`SweepResult::obs_aggregate`] merges them sweep-wide.
    pub fn observe(mut self, on: bool) -> SweepSpec {
        self.obs = on;
        self
    }

    /// The benchmarks of the sweep, in row order.
    pub fn bench_specs(&self) -> &[BenchmarkSpec] {
        &self.benches
    }

    /// Executes the sweep and collects rows in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics on a configuration error reported by
    /// [`SweepSpec::try_run`] (none are currently possible from a
    /// well-typed spec; the environment is parsed separately by
    /// [`crate::config`]). Cell-level failures never panic either way —
    /// they are recorded as error rows and the sweep continues.
    pub fn run(&self) -> SweepResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes the sweep as a command-line binary should:
    /// [`crate::supervisor::run_cli`] — journaled, resumable via
    /// `MG_RESUME=1`, graceful on SIGINT/SIGTERM, exiting `2` on
    /// configuration errors and `130` after an interrupt.
    pub fn run_cli(self) -> SweepResult {
        supervisor::run_cli(self)
    }

    /// Whether this sweep journals rows. Observed sweeps do not: the
    /// journal cannot replay observer reports, so a replayed row would
    /// silently lose its instrumentation.
    fn journal_active(&self) -> bool {
        self.journal && !self.obs
    }

    /// Executes the sweep with configuration errors reported as values.
    ///
    /// This is the supervised path: every cell runs under panic
    /// isolation, finished rows are journaled when
    /// [`SweepSpec::journal`] is on, and with [`SweepSpec::resume`] rows
    /// journaled by a previous interrupted run of the same sweep are
    /// replayed bit-identically instead of re-executed.
    pub fn try_run(&self) -> Result<SweepResult, BenchError> {
        let jobs = self.jobs.unwrap_or_else(crate::config::available_jobs);
        // Journal identity: the sweep shape (training setup, inputs,
        // cells, machine fingerprint) names the directory; each
        // benchmark row carries a content key. Both must match for a
        // record to replay, so stale journals degrade to re-running.
        let journal = self.journal_active().then(|| {
            let repr = journal::sweep_repr(
                &self.train_cfg,
                &self.train_input,
                &self.run_input,
                &self.cells,
            );
            let row_keys = self
                .benches
                .iter()
                .map(|b| journal::row_key(b, &repr))
                .collect();
            Journal::new(&self.journal_root, stable_hash64(repr.as_bytes()), row_keys)
        });
        let replayed_rows: Vec<Option<BenchRows>> = match (&journal, self.resume) {
            (Some(j), true) => (0..self.benches.len())
                .map(|i| j.load_row(i, self.cells.len()))
                .collect(),
            _ => vec![None; self.benches.len()],
        };
        let before = cache::counters();
        let t0 = Instant::now();
        let _sweep_span = mg_obs::span(
            "sweep",
            format!("sweep:{}x{}", self.benches.len(), self.cells.len()),
        );
        let quiet = self.quiet;
        let journal_ref = journal.as_ref();
        let replayed_ref = &replayed_rows;
        let outcomes = par_map_catch(&self.benches, jobs, |i, spec| {
            if let Some(rows) = &replayed_ref[i] {
                if !quiet {
                    mg_obs::log::raw("r");
                }
                return (rows.clone(), None);
            }
            let (rows, obs) = self.run_bench_task(spec);
            // A row with a transient failure or a shutdown skip holds
            // work that never completed: resume re-runs it.
            if let Some(j) = journal_ref.filter(|_| rows.runs.iter().all(journal::persists)) {
                j.store_row(i, &rows);
            }
            if !quiet {
                mg_obs::log::raw(".");
            }
            (rows, obs)
        });
        // run_bench_task isolates cell and context panics itself, so a
        // panic escaping it is a harness bug — still turned into an
        // error row rather than tearing down the other 77 benchmarks.
        let (rows, obs): (Vec<BenchRows>, Vec<_>) = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Ok(row) => row,
                Err(p) => (
                    BenchRows {
                        bench: self.benches[i].name.clone(),
                        runs: (0..self.cells.len())
                            .map(|j| {
                                Err(BenchError::Panicked {
                                    bench: self.benches[i].name.clone(),
                                    cell: j,
                                    payload: p.payload.clone(),
                                })
                            })
                            .collect(),
                        wall: Duration::ZERO,
                        cache: None,
                        replayed: false,
                        retries: 0,
                    },
                    None,
                ),
            })
            .unzip();
        if !quiet {
            mg_obs::log::raw("\n");
        }
        let count_errs = |pred: &dyn Fn(&BenchError) -> bool| -> usize {
            rows.iter()
                .flat_map(|r| r.runs.iter())
                .filter(|c| matches!(c, Err(e) if pred(e)))
                .count()
        };
        let interrupted = count_errs(&|e| matches!(e, BenchError::Interrupted { .. }));
        let failures = count_errs(&|e| !matches!(e, BenchError::Interrupted { .. }));
        let summary = SweepSummary {
            benches: self.benches.len(),
            cells: self.cells.len(),
            failures,
            interrupted,
            replayed: rows.iter().filter(|r| r.replayed).count(),
            jobs,
            wall: t0.elapsed(),
            task_wall_total: rows.iter().map(|r| r.wall).sum(),
            cache: cache::counters().since(&before),
            journal_dir: journal.as_ref().map(|j| j.dir().to_path_buf()),
            per_bench: rows
                .iter()
                .map(|r| BenchProfile {
                    bench: r.bench.clone(),
                    wall: r.wall,
                    cache: r.cache,
                })
                .collect(),
        };
        tele_counter!("mg_sweep_rows_total").add(summary.benches as u64);
        tele_counter!("mg_sweep_cells_total").add((summary.benches * summary.cells) as u64);
        tele_counter!("mg_sweep_failures_total").add(summary.failures as u64);
        tele_counter!("mg_sweep_interrupted_total").add(summary.interrupted as u64);
        tele_counter!("mg_sweep_rows_replayed_total").add(summary.replayed as u64);
        if !quiet {
            summary.print_footer();
        }
        if interrupted > 0 {
            match &summary.journal_dir {
                Some(dir) => mg_error!(
                    "sweep interrupted: {interrupted} cells skipped; finished rows are \
                     journaled at {} — rerun with MG_RESUME=1 to resume",
                    dir.display()
                ),
                None => mg_error!(
                    "sweep interrupted: {interrupted} cells skipped (journaling was off, \
                     a rerun starts from scratch)"
                ),
            }
        }
        Ok(SweepResult { rows, obs, summary })
    }

    /// One benchmark's task: supervised context construction, then every
    /// cell under the supervision stack
    /// ([`supervisor::run_cell_supervised`]). Returns the row and, when
    /// the sweep observes, the aggregate of its cells' observer reports.
    fn run_bench_task(&self, spec: &BenchmarkSpec) -> (BenchRows, Option<mg_obs::ObsAggregate>) {
        let task0 = Instant::now();
        let _bench_span = mg_obs::span("bench", spec.name.clone());
        let mut obs_agg = self.obs.then(mg_obs::ObsAggregate::new);
        let mut runs: Vec<Result<SchemeRun, BenchError>> = Vec::with_capacity(self.cells.len());
        // Context construction gets the same panic isolation as cells: a
        // panicking builder fails this row, not the process.
        let ctx = if supervisor::shutdown_requested() {
            Err(BenchError::Interrupted {
                bench: spec.name.clone(),
            })
        } else {
            supervisor::supervise_context(
                BenchContext::builder(spec, &self.train_cfg)
                    .train_input(self.train_input.resolve(spec))
                    .run_input(self.run_input.resolve(spec))
                    .disk_cache(self.disk_cache),
            )
        };
        let cache_outcome = match ctx {
            Ok(ctx) => {
                let ctx = Arc::new(ctx);
                for (j, cell) in self.cells.iter().enumerate() {
                    let res = supervisor::run_cell_supervised(&ctx, cell, j, None, self.obs);
                    runs.push(res.map(|(run, report)| {
                        if let (Some(agg), Some(report)) = (obs_agg.as_mut(), report) {
                            agg.absorb(&report);
                        }
                        run
                    }));
                }
                Some(ctx.cache_outcome())
            }
            Err(e) => {
                runs.extend(self.cells.iter().map(|_| Err(e.clone())));
                None
            }
        };
        let wall = task0.elapsed();
        tele_hist!("mg_sweep_bench_us").record_duration(wall);
        let rows = BenchRows {
            bench: spec.name.clone(),
            runs,
            wall,
            cache: cache_outcome,
            replayed: false,
            retries: 0,
        };
        (rows, obs_agg)
    }
}

/// All cell results for one benchmark, in cell order.
#[derive(Clone, Debug)]
pub struct BenchRows {
    /// Benchmark name.
    pub bench: String,
    /// One result per spec cell, in the order cells were added.
    pub runs: Vec<Result<SchemeRun, BenchError>>,
    /// Wall time this benchmark's task took (context + all cells).
    pub wall: Duration,
    /// How the benchmark's context was served by the cache (`None` when
    /// context construction itself failed).
    pub cache: Option<CacheOutcome>,
    /// Whether this row was replayed from the sweep journal
    /// ([`SweepSpec::resume`]) instead of executed.
    pub replayed: bool,
    /// Always 0: a cell runs once. Kept only because the repository
    /// benchmark builds `BenchRows` literals that name it.
    pub retries: u32,
}

impl BenchRows {
    /// The run of cell `idx`, or the error that felled it.
    pub fn get(&self, idx: usize) -> Result<&SchemeRun, &BenchError> {
        self.runs[idx].as_ref()
    }

    /// All runs, or the first failure (for binaries that skip a
    /// benchmark when any of its cells failed).
    pub fn all_ok(&self) -> Result<Vec<&SchemeRun>, &BenchError> {
        self.runs.iter().map(|r| r.as_ref()).collect()
    }
}

/// Everything a sweep produced.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Per-benchmark rows, in spec order (deterministic).
    pub rows: Vec<BenchRows>,
    /// Observer aggregate over each row's cells, parallel to `rows`
    /// (`None` unless the sweep ran with [`SweepSpec::observe`]).
    pub obs: Vec<Option<mg_obs::ObsAggregate>>,
    /// Execution metadata: timings, worker count, cache behaviour.
    pub summary: SweepSummary,
}

impl SweepResult {
    /// Merges the per-benchmark observer aggregates into one sweep-wide
    /// stall-attribution aggregate (empty if the sweep did not observe).
    pub fn obs_aggregate(&self) -> mg_obs::ObsAggregate {
        let mut agg = mg_obs::ObsAggregate::new();
        for a in self.obs.iter().flatten() {
            agg.merge(a);
        }
        agg
    }
}

/// Sweep execution metadata — the first observability hooks for the
/// sweep hot path.
#[derive(Clone, Debug)]
pub struct SweepSummary {
    /// Number of benchmarks swept.
    pub benches: usize,
    /// Number of cells per benchmark.
    pub cells: usize,
    /// Number of failed cells recorded (sweep continued past them);
    /// interrupted cells are counted separately.
    pub failures: usize,
    /// Cells skipped because shutdown was requested mid-sweep.
    pub interrupted: usize,
    /// Benchmark rows replayed from the journal instead of executed.
    pub replayed: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Sum of per-task wall times (≈ serial cost; compare with `wall`
    /// for the realized speedup).
    pub task_wall_total: Duration,
    /// Context-cache counter deltas for this sweep.
    pub cache: CacheCounters,
    /// Where this sweep journals its rows (`None` when journaling is
    /// off).
    pub journal_dir: Option<PathBuf>,
    /// Per-benchmark wall time and cache outcome, in spec order.
    pub per_bench: Vec<BenchProfile>,
}

/// One benchmark's execution profile inside a sweep.
#[derive(Clone, Debug)]
pub struct BenchProfile {
    /// Benchmark name.
    pub bench: String,
    /// Wall time of the benchmark's task (context + all cells).
    pub wall: Duration,
    /// Cache outcome of the context build (`None` if it failed).
    pub cache: Option<CacheOutcome>,
}

impl BenchProfile {
    fn render(&self) -> String {
        format!(
            "{} {:.2}s (context: {})",
            self.bench,
            self.wall.as_secs_f64(),
            self.cache.map_or("failed", |c| c.tag())
        )
    }
}

impl SweepSummary {
    /// Logs the standard summary footer: the aggregate line and the
    /// slowest benchmarks at `info`, the full per-benchmark listing at
    /// `debug` (`MG_LOG=debug`).
    pub fn print_footer(&self) {
        mg_info!(
            "sweep: {} benchmarks x {} cells on {} workers in {:.1}s \
             (task time {:.1}s, speedup {:.1}x); \
             context cache: {} memory hits, {} disk hits, {} misses{}",
            self.benches,
            self.cells,
            self.jobs,
            self.wall.as_secs_f64(),
            self.task_wall_total.as_secs_f64(),
            self.task_wall_total.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
            self.cache.mem_hits,
            self.cache.disk_hits,
            self.cache.misses,
            if self.failures > 0 {
                format!("; {} FAILED cells", self.failures)
            } else {
                String::new()
            },
        );
        if self.replayed > 0 || self.interrupted > 0 {
            mg_info!(
                "resilience: {} rows replayed from the journal, {} interrupted cells",
                self.replayed,
                self.interrupted,
            );
        }
        if !self.per_bench.is_empty() {
            let mut by_wall: Vec<&BenchProfile> = self.per_bench.iter().collect();
            by_wall.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.bench.cmp(&b.bench)));
            let slowest: Vec<String> = by_wall.iter().take(3).map(|p| p.render()).collect();
            mg_info!("slowest: {}", slowest.join(", "));
            for p in &self.per_bench {
                mg_debug!("  {}", p.render());
            }
        }
    }
}

/// A panic captured from one [`par_map_catch`] task.
#[derive(Clone, Debug)]
pub struct TaskPanic {
    /// Index of the item whose task panicked.
    pub index: usize,
    /// Rendered panic payload.
    pub payload: String,
}

/// Maps `f` over `items` on `jobs` scoped worker threads, returning
/// results in item order with per-task panic isolation: a panicking
/// task yields `Err(TaskPanic)` in its slot while every other task
/// still runs to completion and delivers. Workers pull the next index
/// from a shared atomic queue, so uneven task costs balance
/// automatically. With `jobs <= 1` this degenerates to a serial map
/// (no threads), which is the reference order the parallel path must
/// reproduce.
pub fn par_map_catch<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, TaskPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let catch = |i: usize, t: &T| {
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|e| TaskPanic {
            index: i,
            payload: supervisor::panic_payload(e),
        })
    };
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| catch(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, TaskPanic>)>();
    std::thread::scope(|s| {
        for w in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let catch = &catch;
            let body = move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = catch(i, &items[i]);
                if tx.send((i, r)).is_err() {
                    break;
                }
            };
            // Named workers keep log lines and trace spans attributable;
            // fall back to an anonymous spawn if naming ever fails.
            if std::thread::Builder::new()
                .name(format!("mg-worker-{w}"))
                .spawn_scoped(s, body.clone())
                .is_err()
            {
                s.spawn(body);
            }
        }
        drop(tx);
        let mut out: Vec<Option<Result<R, TaskPanic>>> =
            std::iter::repeat_with(|| None).take(items.len()).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        // Panics are caught inside the workers, so every slot should be
        // delivered. If a worker still died without delivering (an
        // abort-in-drop class bug), record the loss in that task's slot
        // instead of panicking the collector: the other results are
        // intact and the caller decides what a lost task means.
        out.into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| {
                    Err(TaskPanic {
                        index: i,
                        payload: "task result never delivered (worker died)".to_string(),
                    })
                })
            })
            .collect()
    })
}

/// [`par_map_catch`] for infallible tasks: panics (with the first
/// task's payload) only after every task has finished, so no work is
/// silently lost mid-flight.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut first: Option<TaskPanic> = None;
    let out: Vec<R> = par_map_catch(items, jobs, f)
        .into_iter()
        .filter_map(|r| match r {
            Ok(v) => Some(v),
            Err(p) => {
                first.get_or_insert(p);
                None
            }
        })
        .collect();
    if let Some(p) = first {
        resume_unwind(Box::new(format!(
            "task {} panicked: {}",
            p.index, p.payload
        )));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(&items, 1, |i, &x| (i as u64) * 1000 + x * x);
        let parallel = par_map(&items, 8, |i, &x| (i as u64) * 1000 + x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[3], 3009);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_catch_isolates_task_panics() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u32> = (0..16).collect();
        for jobs in [1, 4] {
            let out = par_map_catch(&items, jobs, |i, &x| {
                if x == 5 {
                    panic!("boom {i}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let p = r.as_ref().expect_err("task 5 panicked");
                    assert_eq!(p.index, 5);
                    assert!(p.payload.contains("boom 5"), "{}", p.payload);
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 2, "jobs={jobs}");
                }
            }
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn par_map_finishes_every_task_before_repanicking() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let done = AtomicUsize::new(0);
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, 4, |_, &x| {
                if x == 0 {
                    panic!("first task dies");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        std::panic::set_hook(hook);
        let payload = caught.expect_err("the panic must propagate");
        let msg = crate::supervisor::panic_payload(payload);
        assert!(msg.contains("first task dies"), "{msg}");
        assert_eq!(
            done.load(Ordering::Relaxed),
            items.len() - 1,
            "no sibling task is abandoned when one panics"
        );
    }
}
