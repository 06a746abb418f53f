//! Shared experiment harness: runs benchmarks under every selector and
//! machine configuration, producing the rows behind each figure.
//!
//! The harness API is *fallible*: contexts are built with
//! [`BenchContext::builder`] (or [`BenchContext::try_new`]) and cells
//! run with [`BenchContext::try_cell`] (or the [`BenchContext::try_run`]
//! shorthand), both returning [`Result`]s over [`BenchError`] so a
//! sweep can record a failed cell and continue.

use crate::cache::{self, CacheOutcome, ContextArtifacts, TrainingRun};
use crate::runner::SweepCell;
use mg_core::candidate::{Candidate, SelectionConfig};
use mg_core::pipeline::try_prepare_indexed;
use mg_core::select::{PoolIndex, Selector, SlackProfileModel, SpKind};
use mg_obs::tele_counter;
use mg_sim::{simulate, DynMgConfig, MachineConfig, MgConfig, SimOptions, SimResult};
use mg_workloads::{BenchmarkSpec, InputSet, Trace, Workload};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Version of the JSON results schema written by [`save_json`]. Bump on
/// any change to row shapes or envelope fields.
pub const SCHEMA_VERSION: u32 = 1;

/// Which selection scheme a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Scheme {
    /// No mini-graphs at all.
    NoMg,
    /// `Struct-All` static selection.
    StructAll,
    /// `Struct-None` static selection.
    StructNone,
    /// `Struct-Bounded` static selection.
    StructBounded,
    /// `Slack-Profile` (full model).
    SlackProfile,
    /// `Slack-Profile-Delay` (no consumer-slack rule).
    SlackProfileDelay,
    /// `Slack-Profile-SIAL` (arrival-order heuristic).
    SlackProfileSial,
    /// Miss-aware `Slack-Profile` (observed latencies in rule #2 — the
    /// paper's stated future work for `mcf`).
    SlackProfileMem,
    /// `Slack-Dynamic` (Struct-All pool + run-time disabling, outlined
    /// penalty).
    SlackDynamic,
    /// `Ideal-Slack-Dynamic` (no outlining penalty).
    IdealSlackDynamic,
    /// `Ideal-Slack-Dynamic-Delay` (delay evidence only, no penalty).
    IdealSlackDynamicDelay,
    /// `Ideal-Slack-Dynamic-SIAL` (arrival heuristic, no penalty).
    IdealSlackDynamicSial,
}

impl Scheme {
    /// Every scheme, in paper presentation order.
    pub const ALL: [Scheme; 12] = [
        Scheme::NoMg,
        Scheme::StructAll,
        Scheme::StructNone,
        Scheme::StructBounded,
        Scheme::SlackProfile,
        Scheme::SlackProfileDelay,
        Scheme::SlackProfileSial,
        Scheme::SlackProfileMem,
        Scheme::SlackDynamic,
        Scheme::IdealSlackDynamic,
        Scheme::IdealSlackDynamicDelay,
        Scheme::IdealSlackDynamicSial,
    ];

    /// Parses a paper-style display name (as produced by
    /// [`Scheme::name`]), case-insensitively.
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::NoMg => "no-minigraphs",
            Scheme::StructAll => "Struct-All",
            Scheme::StructNone => "Struct-None",
            Scheme::StructBounded => "Struct-Bounded",
            Scheme::SlackProfile => "Slack-Profile",
            Scheme::SlackProfileDelay => "Slack-Profile-Delay",
            Scheme::SlackProfileSial => "Slack-Profile-SIAL",
            Scheme::SlackProfileMem => "Slack-Profile-Mem",
            Scheme::SlackDynamic => "Slack-Dynamic",
            Scheme::IdealSlackDynamic => "Ideal-Slack-Dynamic",
            Scheme::IdealSlackDynamicDelay => "Ideal-SD-Delay",
            Scheme::IdealSlackDynamicSial => "Ideal-SD-SIAL",
        }
    }

    fn dyn_config(self) -> Option<DynMgConfig> {
        match self {
            Scheme::SlackDynamic => Some(DynMgConfig::slack_dynamic()),
            Scheme::IdealSlackDynamic => Some(DynMgConfig::ideal()),
            Scheme::IdealSlackDynamicDelay => Some(DynMgConfig::ideal_delay()),
            Scheme::IdealSlackDynamicSial => Some(DynMgConfig::ideal_sial()),
            _ => None,
        }
    }
}

/// Why a benchmark context could not be built or a cell could not run.
///
/// Every variant owns plain `String`/integer data and round-trips through
/// serde: the sweep journal persists failed cells as first-class rows, so
/// a resumed sweep replays them bit-identically instead of re-running
/// them.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchError {
    /// A functional execution failed (`stage` says which one).
    Exec {
        /// Benchmark name.
        bench: String,
        /// Which execution failed (train input or run input).
        stage: String,
        /// The underlying executor error, rendered.
        detail: String,
    },
    /// The binary rewriter rejected a scheme's selection (oversized
    /// instance, unschedulable group, or a structurally invalid result).
    /// A well-behaved selector never produces one of these; the sweep
    /// records the row as an error instead of aborting.
    Rewrite {
        /// Benchmark name.
        bench: String,
        /// The scheme whose selection was rejected.
        scheme: Scheme,
        /// The underlying [`RewriteError`](mg_core::rewrite::RewriteError),
        /// rendered.
        detail: String,
    },
    /// The timing simulation hit its cycle cap — the run's numbers are
    /// meaningless, but the sweep can record the failure and continue.
    CycleCap {
        /// Benchmark name.
        bench: String,
        /// The scheme whose simulation hit the cap.
        scheme: Scheme,
    },
    /// A harness configuration knob (environment variable) was rejected.
    Config {
        /// The knob, e.g. `MG_JOBS`.
        knob: String,
        /// The offending value as given.
        value: String,
        /// Why it was rejected.
        detail: String,
    },
    /// The cell's code panicked; the supervisor caught the unwind at the
    /// cell boundary and recorded it as a failure row instead of letting
    /// it abort the sweep.
    Panicked {
        /// Benchmark name.
        bench: String,
        /// Index of the cell that panicked (in spec cell order).
        cell: usize,
        /// The panic payload, rendered (`&str`/`String` payloads are
        /// preserved verbatim; anything else becomes a placeholder).
        payload: String,
    },
    /// The cell ran past its deadline (the watchdog of
    /// [`crate::supervisor::supervise_cell_until`]) and was abandoned.
    TimedOut {
        /// Benchmark name.
        bench: String,
        /// Index of the cell that timed out (in spec cell order).
        cell: usize,
        /// The remaining deadline budget the cell was given, in
        /// milliseconds (0 when it had expired before the cell ran).
        limit_ms: u64,
    },
    /// The sweep was asked to shut down before this cell ran; the cell
    /// was skipped, not attempted. Interrupted rows are never journaled,
    /// so a resumed sweep re-runs them.
    Interrupted {
        /// Benchmark name.
        bench: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Exec {
                bench,
                stage,
                detail,
            } => {
                write!(f, "{bench}: {stage} failed: {detail}")
            }
            BenchError::Rewrite {
                bench,
                scheme,
                detail,
            } => {
                write!(
                    f,
                    "{bench}: rewrite failed under {}: {detail}",
                    scheme.name()
                )
            }
            BenchError::CycleCap { bench, scheme } => {
                write!(
                    f,
                    "{bench}: simulation hit its cycle cap under {}",
                    scheme.name()
                )
            }
            BenchError::Config {
                knob,
                value,
                detail,
            } => {
                write!(f, "invalid {knob}={value:?}: {detail}")
            }
            BenchError::Panicked {
                bench,
                cell,
                payload,
            } => {
                write!(f, "{bench}: cell {cell} panicked: {payload}")
            }
            BenchError::TimedOut {
                bench,
                cell,
                limit_ms,
            } => {
                write!(f, "{bench}: cell {cell} exceeded the {limit_ms}ms watchdog")
            }
            BenchError::Interrupted { bench } => {
                write!(f, "{bench}: skipped (sweep shutdown requested)")
            }
        }
    }
}

impl std::error::Error for BenchError {}

/// Configures and builds a [`BenchContext`].
///
/// Defaults: train and run on the benchmark's primary input, context
/// caching on (memory + disk).
#[derive(Clone, Debug)]
pub struct BenchContextBuilder {
    pub(crate) spec: BenchmarkSpec,
    train_cfg: MachineConfig,
    train_input: Option<InputSet>,
    run_input: Option<InputSet>,
    cache: bool,
    disk_cache: bool,
}

impl BenchContextBuilder {
    /// The input set profiling runs on (default: the primary input).
    pub fn train_input(mut self, input: InputSet) -> BenchContextBuilder {
        self.train_input = Some(input);
        self
    }

    /// The input set the evaluated execution runs on (default: the
    /// primary input).
    pub fn run_input(mut self, input: InputSet) -> BenchContextBuilder {
        self.run_input = Some(input);
        self
    }

    /// Enables/disables the context cache entirely (default on).
    pub fn cache(mut self, on: bool) -> BenchContextBuilder {
        self.cache = on;
        self
    }

    /// Enables/disables only the on-disk cache layer (default on).
    pub fn disk_cache(mut self, on: bool) -> BenchContextBuilder {
        self.disk_cache = on;
        self
    }

    /// Generates, executes, and profiles the benchmark.
    pub fn build(self) -> Result<BenchContext, BenchError> {
        let train_input = self
            .train_input
            .unwrap_or_else(|| self.spec.primary_input());
        let run_input = self.run_input.unwrap_or_else(|| self.spec.primary_input());
        let (artifacts, cache_outcome) = if self.cache {
            let (a, outcome) = cache::context(
                &self.spec,
                &self.train_cfg,
                &train_input,
                &run_input,
                self.disk_cache,
            )?;
            (ContextArtifacts::clone(&a), outcome)
        } else {
            let a = cache::compute_uncached(&self.spec, &self.train_cfg, &train_input, &run_input)?;
            (a, CacheOutcome::Miss)
        };
        let ContextArtifacts {
            workload,
            trace,
            freqs,
            slack,
            training,
        } = artifacts;
        Ok(BenchContext {
            spec: self.spec,
            workload,
            trace,
            freqs,
            slack,
            cache_outcome,
            // The profiling run simulated the train workload; it is this
            // context's own no-mini-graph run only on the same input.
            training: (train_input == run_input).then_some(training),
            train_cfg: self.train_cfg,
            memo: Mutex::default(),
        })
    }
}

/// One benchmark, fully prepared: workload, trace, frequency profile, and
/// slack profile, ready to run any scheme on any machine.
///
/// Cells share selection work through a per-context memo: the candidate
/// pool, its template grouping and its blocks' dependence graphs are
/// built once per [`SelectionConfig`], and each distinct selection is
/// rewritten once and its trace projected from `trace` (no functional
/// re-execution), then reused by every scheme making it (the
/// dynamic-disabling schemes run Struct-All's) on every machine. The
/// memo is derived from `workload`, `trace`, `freqs` and `slack`;
/// replacing those after running a cell leaves it stale.
///
/// When the train and run inputs are equal, the profiling run that
/// trained the slack profile was a plain simulation of `workload` on
/// the train machine, so the no-mini-graph cell on that machine returns
/// its stored result instead of simulating again. Replacing `workload`
/// or `trace` leaves that result stale too.
pub struct BenchContext {
    /// The benchmark spec.
    pub spec: BenchmarkSpec,
    /// Generated workload (on the run input).
    pub workload: Workload,
    /// Committed-path trace (identical across configurations).
    pub trace: Trace,
    /// Per-static execution frequencies.
    pub freqs: Vec<u64>,
    /// Local slack profile (self-trained unless overridden).
    pub slack: mg_sim::SlackProfile,
    cache_outcome: CacheOutcome,
    /// The profiling run's outcome, when it is the training machine's
    /// no-mini-graph cell (train input == run input).
    training: Option<TrainingRun>,
    train_cfg: MachineConfig,
    memo: Mutex<SelectionMemo>,
}

/// Which selection a scheme makes; schemes with equal keys select
/// identically. Not [`Selector::name`]: the miss-aware model is also
/// named `Slack-Profile`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum SelectionKey {
    StructAll,
    StructNone,
    StructBounded,
    SlackProfile,
    SlackProfileDelay,
    SlackProfileSial,
    SlackProfileMem,
}

impl SelectionKey {
    /// The scheme → selection mapping (`None`: no mini-graphs).
    fn of(scheme: Scheme) -> Option<SelectionKey> {
        match scheme {
            Scheme::NoMg => None,
            Scheme::StructAll
            | Scheme::SlackDynamic
            | Scheme::IdealSlackDynamic
            | Scheme::IdealSlackDynamicDelay
            | Scheme::IdealSlackDynamicSial => Some(SelectionKey::StructAll),
            Scheme::StructNone => Some(SelectionKey::StructNone),
            Scheme::StructBounded => Some(SelectionKey::StructBounded),
            Scheme::SlackProfile => Some(SelectionKey::SlackProfile),
            Scheme::SlackProfileDelay => Some(SelectionKey::SlackProfileDelay),
            Scheme::SlackProfileSial => Some(SelectionKey::SlackProfileSial),
            Scheme::SlackProfileMem => Some(SelectionKey::SlackProfileMem),
        }
    }

    /// The selector making this selection. Built only on a memo miss,
    /// since the Slack-Profile selectors own a copy of the profile.
    fn selector(self, slack: &mg_sim::SlackProfile) -> Selector {
        let sp = |kind| {
            Selector::SlackProfile(
                SlackProfileModel {
                    kind,
                    ..SlackProfileModel::default()
                },
                slack.clone(),
            )
        };
        match self {
            SelectionKey::StructAll => Selector::StructAll,
            SelectionKey::StructNone => Selector::StructNone,
            SelectionKey::StructBounded => Selector::StructBounded,
            SelectionKey::SlackProfile => sp(SpKind::Full),
            SelectionKey::SlackProfileDelay => sp(SpKind::DelayOnly),
            SelectionKey::SlackProfileSial => sp(SpKind::Sial),
            SelectionKey::SlackProfileMem => {
                Selector::SlackProfile(SlackProfileModel::miss_aware(), slack.clone())
            }
        }
    }
}

/// A selection applied: the rewritten program, its committed trace
/// (the context's trace projected through the rewrite's block orders,
/// see [`mg_core::Schedules::project`]) and the selection-time coverage
/// estimate.
struct Selection {
    program: mg_isa::Program,
    trace: Trace,
    est_coverage: f64,
}

/// Selection work shared by one context's cells. Errors are never
/// memoized: a failing selection is retried, and reported, per cell.
#[derive(Default)]
struct SelectionMemo {
    pools: HashMap<SelectionConfig, Arc<Pool>>,
    selections: HashMap<(SelectionKey, SelectionConfig), Arc<Selection>>,
}

/// One `SelectionConfig`'s starting pool and the work every selection
/// over it shares.
struct Pool {
    candidates: Vec<Candidate>,
    index: PoolIndex,
}

impl BenchContext {
    /// Starts building a context that trains its slack profile on
    /// `train_cfg` (the paper self-trains on the reduced target machine).
    pub fn builder(spec: &BenchmarkSpec, train_cfg: &MachineConfig) -> BenchContextBuilder {
        BenchContextBuilder {
            spec: spec.clone(),
            train_cfg: train_cfg.clone(),
            train_input: None,
            run_input: None,
            cache: true,
            disk_cache: true,
        }
    }

    /// Generates, executes, and profiles a benchmark on its primary
    /// input. Shorthand for `builder(spec, train_cfg).build()`.
    pub fn try_new(
        spec: &BenchmarkSpec,
        train_cfg: &MachineConfig,
    ) -> Result<BenchContext, BenchError> {
        Self::builder(spec, train_cfg).build()
    }

    /// How this context's artifacts were served by the cache (a context
    /// built with caching disabled reports a miss).
    pub fn cache_outcome(&self) -> CacheOutcome {
        self.cache_outcome
    }

    /// Locks the memo. Only lookups and inserts run under the lock, so
    /// a panicking cell cannot leave it half-updated; a poisoned lock is
    /// still consistent.
    fn memo(&self) -> MutexGuard<'_, SelectionMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The starting candidate pool for `cfg`, enumerated and indexed on
    /// first use.
    fn pool(&self, cfg: &SelectionConfig) -> Arc<Pool> {
        let hit = self.memo().pools.get(cfg).cloned();
        hit.unwrap_or_else(|| {
            let (candidates, index) = PoolIndex::enumerate(&self.workload.program, cfg);
            let pool = Arc::new(Pool { candidates, index });
            tele_counter!("mg_select_pools_total").inc();
            Arc::clone(self.memo().pools.entry(*cfg).or_insert(pool))
        })
    }

    /// The selection `key` makes under `cfg`: selected, rewritten and
    /// projected on first use, shared afterwards.
    fn selection(
        &self,
        scheme: Scheme,
        key: SelectionKey,
        cfg: &SelectionConfig,
    ) -> Result<Arc<Selection>, BenchError> {
        let hit = self.memo().selections.get(&(key, *cfg)).cloned();
        if let Some(hit) = hit {
            tele_counter!("mg_select_shared_total").inc();
            return Ok(hit);
        }
        let prepared = {
            let _span = mg_obs::span("stage", format!("{}/select", self.spec.name));
            let pool = self.pool(cfg);
            let selector = key.selector(&self.slack);
            try_prepare_indexed(
                &self.workload.program,
                &pool.candidates,
                &pool.index,
                &self.freqs,
                &selector,
                cfg,
            )
            .map_err(|e| BenchError::Rewrite {
                bench: self.spec.name.clone(),
                scheme,
                detail: e.to_string(),
            })?
        };
        let trace = {
            let _span = mg_obs::span("stage", format!("{}/project", self.spec.name));
            prepared
                .schedules
                .project(&self.workload.program, &self.trace)
        };
        tele_counter!("mg_select_prepared_total").inc();
        let selection = Arc::new(Selection {
            program: prepared.program,
            trace,
            est_coverage: prepared.est_coverage,
        });
        Ok(Arc::clone(
            self.memo()
                .selections
                .entry((key, *cfg))
                .or_insert(selection),
        ))
    }

    /// The profiling run's result, if `cell` is the one it simulated:
    /// no mini-graphs, on the train machine, with the run input
    /// profiled. Mini-graph and selection overrides do not apply to a
    /// no-mini-graph cell.
    fn training_cell(&self, cell: &SweepCell) -> Option<SimResult> {
        let run = self
            .training
            .filter(|_| cell.scheme == Scheme::NoMg && cell.machine == self.train_cfg)?;
        tele_counter!("mg_sim_training_cell_reused_total").inc();
        Some(SimResult {
            stats: run.stats,
            hit_cycle_cap: run.hit_cycle_cap,
            ..SimResult::default()
        })
    }

    /// Runs one scheme on one machine with the default mini-graph
    /// hardware and selection configuration: shorthand for
    /// [`BenchContext::try_cell`] condensed by
    /// [`SchemeRun::try_from_sim`].
    pub fn try_run(
        &self,
        scheme: Scheme,
        machine: &MachineConfig,
    ) -> Result<SchemeRun, BenchError> {
        let (r, est_coverage) = self.try_cell(&SweepCell::new(scheme, machine), false)?;
        SchemeRun::try_from_sim(&self.spec.name, scheme, r, est_coverage)
    }

    /// Runs one cell's timing simulation, returning the raw
    /// [`SimResult`] and the selection-time coverage estimate. With
    /// `observe` set, the pipeline observer is attached and its report
    /// is in [`SimResult::obs`]. A cycle-capped run is *not* an error at
    /// this layer — `hit_cycle_cap` is reported in the result — so
    /// callers like the golden-stats digest can still read the full
    /// statistics; [`SchemeRun::try_from_sim`] condenses it into a row.
    ///
    /// An unobserved training-machine no-mini-graph cell is served from
    /// the profiling run when the context has it (see [`BenchContext`]);
    /// its result carries the run's statistics and cycle-cap flag only.
    /// An observed one simulates, since the profiling run recorded no
    /// report.
    pub fn try_cell(
        &self,
        cell: &SweepCell,
        observe: bool,
    ) -> Result<(SimResult, f64), BenchError> {
        if !observe {
            if let Some(r) = self.training_cell(cell) {
                return Ok((r, 0.0));
            }
        }
        let mut sim = self.prepare_sim(cell)?;
        sim.opts.obs = observe;
        let _span = mg_obs::span("stage", format!("{}/simulate", self.spec.name));
        Ok((sim.simulate(), sim.est_coverage()))
    }

    /// Resolves everything a timing simulation of `cell` needs — its
    /// (possibly rewritten) program and committed trace, the machine
    /// with the cell's mini-graph hardware, and the simulator options —
    /// without running it. Selection, rewriting and trace projection go
    /// through the context's memo, and the result borrows the memo's
    /// selection and this context's program and trace instead of
    /// copying them. This is the seam the engine-throughput harness
    /// (`perf`) uses to time [`simulate`] in isolation.
    pub fn prepare_sim(&self, cell: &SweepCell) -> Result<PreparedSim<'_>, BenchError> {
        let Some(key) = SelectionKey::of(cell.scheme) else {
            return Ok(PreparedSim {
                ctx: self,
                selection: None,
                machine: cell.machine.clone(),
                opts: SimOptions::default(),
            });
        };
        let selection = self.selection(cell.scheme, key, &cell.sel.unwrap_or_default())?;
        Ok(PreparedSim {
            ctx: self,
            selection: Some(selection),
            machine: cell
                .machine
                .clone()
                .with_mg(cell.mg.unwrap_or_else(MgConfig::paper)),
            opts: SimOptions {
                dyn_mg: cell.scheme.dyn_config(),
                ..SimOptions::default()
            },
        })
    }
}

/// A fully prepared timing-simulation input for one cell of a
/// [`BenchContext`]: run [`PreparedSim::simulate`] any number of times;
/// every run is identical. It borrows the context's program and trace
/// (or its memoized selection's), so preparing a cell copies neither.
#[derive(Clone)]
pub struct PreparedSim<'a> {
    ctx: &'a BenchContext,
    /// The cell's selection; `None` runs the context's own program.
    selection: Option<Arc<Selection>>,
    /// The machine configuration (mini-graph support applied).
    pub machine: MachineConfig,
    /// Simulator options (dynamic-disabling config applied).
    pub opts: SimOptions,
}

impl PreparedSim<'_> {
    /// The (possibly rewritten/tagged) program to simulate.
    pub fn program(&self) -> &mg_isa::Program {
        self.selection
            .as_ref()
            .map_or(&self.ctx.workload.program, |s| &s.program)
    }

    /// Its committed-path trace.
    pub fn trace(&self) -> &Trace {
        self.selection
            .as_ref()
            .map_or(&self.ctx.trace, |s| &s.trace)
    }

    /// Coverage estimated at selection time (0 without mini-graphs).
    pub fn est_coverage(&self) -> f64 {
        self.selection.as_ref().map_or(0.0, |s| s.est_coverage)
    }

    /// Runs the timing simulation.
    pub fn simulate(&self) -> SimResult {
        simulate(self.program(), self.trace(), &self.machine, self.opts)
    }
}

/// Result of one (scheme, machine) run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SchemeRun {
    /// The scheme.
    pub scheme: Scheme,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Total cycles.
    pub cycles: u64,
    /// Measured dynamic coverage.
    pub coverage: f64,
    /// Coverage estimated at selection time.
    pub est_coverage: f64,
    /// Templates dynamically disabled (Slack-Dynamic only).
    pub disabled_templates: u64,
    /// Serialized handle executions observed.
    pub serialized_handles: u64,
    /// Data-L1 miss rate observed in the run.
    pub dl1_miss_rate: f64,
}

impl SchemeRun {
    /// Condenses a cell's raw result (from [`BenchContext::try_cell`])
    /// into a row. A run that hit its cycle cap is an error here: its
    /// numbers are meaningless.
    pub fn try_from_sim(
        bench: &str,
        scheme: Scheme,
        r: SimResult,
        est_coverage: f64,
    ) -> Result<SchemeRun, BenchError> {
        if r.hit_cycle_cap {
            return Err(BenchError::CycleCap {
                bench: bench.to_string(),
                scheme,
            });
        }
        Ok(SchemeRun {
            scheme,
            ipc: r.ipc(),
            cycles: r.stats.cycles,
            coverage: r.stats.coverage(),
            est_coverage,
            disabled_templates: r.stats.disabled_templates,
            serialized_handles: r.stats.serialized_handles,
            dl1_miss_rate: r.stats.dl1.miss_rate(),
        })
    }
}

/// The per-benchmark observability section attached to results produced
/// with the observer enabled: identifies the (benchmark, scheme) cell and
/// carries the full [`mg_obs::ObsReport`] (stall attribution, occupancy,
/// windowed IPC, committed instructions).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObsSection {
    /// Benchmark name.
    pub bench: String,
    /// Scheme the instrumented run used.
    pub scheme: Scheme,
    /// The run's observability report.
    pub report: mg_obs::ObsReport,
}

impl ObsSection {
    /// Wraps a report with its cell identity.
    pub fn new(bench: &str, scheme: Scheme, report: mg_obs::ObsReport) -> ObsSection {
        ObsSection {
            bench: bench.to_string(),
            scheme,
            report,
        }
    }

    /// Whether the report's stall attribution conserves cycles.
    pub fn conservation_ok(&self) -> bool {
        self.report.conservation_ok()
    }
}

/// The envelope every results file is wrapped in: a schema version and a
/// fingerprint of the simulated machine family, so downstream consumers
/// can reject rows produced by an incompatible harness.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Envelope<T> {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// [`machine_fingerprint`] at write time.
    pub machine_fingerprint: String,
    /// The figure's rows.
    pub rows: T,
}

/// A stable fingerprint of the simulated machine family (baseline +
/// reduced configurations and the paper's mini-graph support). Results
/// with different fingerprints came from different modeled hardware and
/// must not be compared.
pub fn machine_fingerprint() -> String {
    let repr = format!(
        "{:?}|{:?}|{:?}",
        MachineConfig::baseline(),
        MachineConfig::reduced(),
        MgConfig::paper()
    );
    format!("{:016x}", cache::stable_hash64(repr.as_bytes()))
}

/// `rows` wrapped in the versioned [`Envelope`], as the pretty-printed
/// JSON document [`save_json`] writes.
pub(crate) fn envelope_json<T: Serialize>(rows: &T) -> String {
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        rows,
    };
    serde_json::to_string_pretty(&envelope).expect("serialize results")
}

/// Writes `contents` to `results/<file>` at the workspace root, creating
/// the directory if needed. Returns the path written.
pub fn save_result(file: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file);
    std::fs::write(&path, contents).expect("write results file");
    path
}

/// Writes a JSON result file under `results/` at the workspace root,
/// wrapping `rows` in the versioned [`Envelope`]. Returns the path
/// written.
pub fn save_json<T: Serialize>(name: &str, rows: &T) -> std::path::PathBuf {
    save_result(&format!("{name}.json"), &envelope_json(rows))
}

/// Writes a binary result record under `results/` at the workspace
/// root: the same versioned [`Envelope`] as [`save_json`], sealed as a
/// checksummed [`crate::binfmt`] container of the given kind. The
/// record's container schema is [`SCHEMA_VERSION`], matching the
/// envelope inside. Returns the path written (`results/<name>.mgb`).
pub fn save_bin<T: Serialize>(
    name: &str,
    kind: crate::binfmt::RecordKind,
    rows: &T,
) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.{}", crate::binfmt::EXT));
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        rows,
    };
    let bytes = crate::binfmt::to_record(kind, SCHEMA_VERSION, &envelope);
    std::fs::write(&path, bytes).expect("write results file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_fingerprint_is_stable_and_hex() {
        let a = machine_fingerprint();
        assert_eq!(a, machine_fingerprint());
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn envelope_roundtrips() {
        let e = Envelope {
            schema_version: SCHEMA_VERSION,
            machine_fingerprint: machine_fingerprint(),
            rows: vec![1u32, 2, 3],
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Envelope<Vec<u32>> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.rows, vec![1, 2, 3]);
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_name(s.name()), Some(s));
            assert_eq!(Scheme::from_name(&s.name().to_lowercase()), Some(s));
        }
        assert_eq!(Scheme::from_name("no-such-scheme"), None);
    }

    #[test]
    fn bench_error_displays_context() {
        let e = BenchError::CycleCap {
            bench: "spec_mcf".into(),
            scheme: Scheme::StructAll,
        };
        let s = e.to_string();
        assert!(s.contains("spec_mcf") && s.contains("Struct-All"));
        let x = BenchError::Exec {
            bench: "mib_sha".into(),
            stage: "run-input execution".into(),
            detail: "boom".into(),
        };
        assert!(x.to_string().contains("run-input execution"));
    }

    #[test]
    fn bench_error_round_trips_through_serde() {
        let errors = [
            BenchError::Exec {
                bench: "mib_sha".into(),
                stage: "run-input execution".into(),
                detail: "boom".into(),
            },
            BenchError::Rewrite {
                bench: "spec_gcc".into(),
                scheme: Scheme::StructAll,
                detail: "oversized instance in bb3: 300 constituents".into(),
            },
            BenchError::CycleCap {
                bench: "spec_mcf".into(),
                scheme: Scheme::SlackDynamic,
            },
            BenchError::Config {
                knob: "MG_JOBS".into(),
                value: "O8".into(),
                detail: "expected a positive integer".into(),
            },
            BenchError::Panicked {
                bench: "gzip-like".into(),
                cell: 2,
                payload: "mg-fault: injected panic".into(),
            },
            BenchError::TimedOut {
                bench: "mib_fft".into(),
                cell: 1,
                limit_ms: 5_000,
            },
            BenchError::Interrupted {
                bench: "mib_crc32".into(),
            },
        ];
        for e in errors {
            let json = serde_json::to_string(&e).unwrap();
            let back: BenchError = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e, "round-trip of {json}");
        }
    }
}
