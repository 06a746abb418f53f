//! Cell supervision for the sweep runner: panic isolation, a wall-clock
//! watchdog for deadline-bound cells, and cooperative shutdown.
//!
//! [`SweepSpec::run`](crate::SweepSpec::run) delegates every cell
//! execution to [`run_cell_supervised`], which layers, outermost first:
//!
//! 1. **Shutdown check** — once [`request_shutdown`] has been called
//!    (cooperatively, or by the SIGINT/SIGTERM watcher [`run_cli`]
//!    installs), cells that have not started yield
//!    [`BenchError::Interrupted`] instead of running; in-flight cells
//!    drain normally.
//! 2. **Watchdog** — only for cells run on behalf of a client deadline
//!    ([`supervise_cell_until`]): the cell runs on a helper thread and
//!    the worker waits with the remaining budget; a cell that overruns
//!    is reported as [`BenchError::TimedOut`] and its thread is
//!    *abandoned* (a stuck simulation cannot be cancelled from outside).
//!    Batch sweeps have no deadline, so their cells run inline and cost
//!    nothing extra.
//! 3. **Panic isolation** — the cell body (including fault hooks) runs
//!    under [`std::panic::catch_unwind`]; a panicking cell becomes a
//!    [`BenchError::Panicked`] row carrying the payload, and the other
//!    77 benchmarks of a figure still complete. Context construction
//!    gets the same isolation through [`supervise_context`].
//!
//! A cell runs once. The simulator is deterministic, so a failed cell
//! would fail the same way again; a panic or timeout is instead kept
//! out of the journal ([`crate::journal::persists`]), and a resume or
//! resubmit runs it afresh.
//!
//! [`run_cli`] is the binary entry point that turns all of this on:
//! journaling to `results/journal/`, resume via `MG_RESUME=1`, the
//! `MG_JOBS` worker count, a SIGINT/SIGTERM watcher held for the
//! sweep's duration, and the conventional exit codes (`2` for
//! configuration errors, `130` after an interrupt). Library callers of
//! [`SweepSpec::try_run`] get none of the process-wide parts: no signal
//! handling and no environment.

use crate::harness::{BenchContext, BenchContextBuilder, BenchError, SchemeRun};
use crate::runner::{SweepCell, SweepResult, SweepSpec};
use crate::signals::SignalWatch;
use mg_obs::{mg_error, mg_info, tele_counter, ObsReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Process-wide shutdown flag. One flag (not per-sweep) because it
/// mirrors what a signal means: this *process* should wind down.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests cooperative sweep shutdown: cells not yet started report
/// [`BenchError::Interrupted`], in-flight cells drain, the journal keeps
/// every finished row. Safe to call from any thread (including the
/// signal watcher).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether shutdown has been requested and not yet cleared.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Re-arms after a drained shutdown so a later sweep in the same process
/// (tests, resume-in-process) can run.
pub fn clear_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Renders a `catch_unwind` payload for [`BenchError::Panicked`].
pub(crate) fn panic_payload(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a cell returns besides the condensed run: the observer report
/// when the sweep observes.
pub(crate) type ObsPayload = Option<Box<ObsReport>>;

/// The raw cell body: fault hooks, then the scheme run, observed when
/// `obs` is set. Everything that can panic or stall lives in here, so
/// the supervision layers wrap exactly this.
fn run_cell_once(
    ctx: &BenchContext,
    cell: &SweepCell,
    cell_idx: usize,
    obs: bool,
) -> Result<(SchemeRun, ObsPayload), BenchError> {
    crate::fault::before_cell(&ctx.spec.name, cell_idx);
    let (mut r, est_coverage) = ctx.try_cell(cell, obs)?;
    let report = r.obs.take().map(Box::new);
    let run = SchemeRun::try_from_sim(&ctx.spec.name, cell.scheme, r, est_coverage)?;
    Ok((run, report))
}

/// The cell body under panic isolation: a panic becomes a
/// [`BenchError::Panicked`] result carrying its payload.
fn run_cell_isolated(
    ctx: &BenchContext,
    cell: &SweepCell,
    cell_idx: usize,
    obs: bool,
) -> Result<(SchemeRun, ObsPayload), BenchError> {
    catch_unwind(AssertUnwindSafe(|| run_cell_once(ctx, cell, cell_idx, obs))).unwrap_or_else(|e| {
        Err(BenchError::Panicked {
            bench: ctx.spec.name.clone(),
            cell: cell_idx,
            payload: panic_payload(e),
        })
    })
}

/// One supervised run: panic isolation always, watchdog when a limit
/// is set.
fn attempt_cell(
    ctx: &Arc<BenchContext>,
    cell: &SweepCell,
    cell_idx: usize,
    watchdog: Option<Duration>,
    obs: bool,
) -> Result<(SchemeRun, ObsPayload), BenchError> {
    let Some(limit) = watchdog else {
        return run_cell_isolated(ctx, cell, cell_idx, obs);
    };
    let (tx, rx) = mpsc::channel();
    let ctx2 = Arc::clone(ctx);
    let cell2 = cell.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("mg-cell-{}-{cell_idx}", ctx.spec.name))
        .spawn(move || {
            let _ = tx.send(run_cell_isolated(&ctx2, &cell2, cell_idx, obs));
        });
    let Ok(handle) = spawned else {
        // Cannot spawn a helper (thread exhaustion): run inline without
        // a watchdog rather than fail the cell.
        return run_cell_isolated(ctx, cell, cell_idx, obs);
    };
    match rx.recv_timeout(limit) {
        Ok(res) => {
            let _ = handle.join();
            res
        }
        Err(_) => Err(BenchError::TimedOut {
            bench: ctx.spec.name.clone(),
            cell: cell_idx,
            limit_ms: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
        }),
    }
}

/// Whether an error is transient: a panic or a watchdog timeout, the
/// kinds injectable by [`crate::fault`]. Transient failures are not
/// journaled ([`crate::journal::persists`]), so a resume re-runs them;
/// deterministic failures replay as recorded.
pub(crate) fn transient(e: &BenchError) -> bool {
    matches!(e, BenchError::Panicked { .. } | BenchError::TimedOut { .. })
}

/// Runs one cell under the supervision stack: shutdown check, cell
/// span, then [`attempt_cell`].
pub(crate) fn run_cell_supervised(
    ctx: &Arc<BenchContext>,
    cell: &SweepCell,
    cell_idx: usize,
    watchdog: Option<Duration>,
    obs: bool,
) -> Result<(SchemeRun, ObsPayload), BenchError> {
    if shutdown_requested() {
        return Err(BenchError::Interrupted {
            bench: ctx.spec.name.clone(),
        });
    }
    let res = {
        let _cell_span = mg_obs::span("cell", format!("{}/cell{cell_idx}", ctx.spec.name));
        attempt_cell(ctx, cell, cell_idx, watchdog, obs)
    };
    match &res {
        Err(BenchError::Panicked { .. }) => {
            tele_counter!("mg_supervisor_panics_total").inc();
        }
        Err(BenchError::TimedOut { .. }) => {
            tele_counter!("mg_supervisor_watchdog_fires_total").inc();
        }
        _ => {}
    }
    res
}

/// Builds a benchmark's context with the same panic isolation as a
/// cell: a panicking builder becomes a [`BenchError::Panicked`] error
/// (cell 0, payload prefixed `context build:`), which the caller
/// reports for every cell of the row. Batch sweeps and `mg-serve` both
/// build through here, so a context-build panic yields the same rows in
/// both.
pub fn supervise_context(builder: BenchContextBuilder) -> Result<BenchContext, BenchError> {
    let bench = builder.spec.name.clone();
    catch_unwind(AssertUnwindSafe(|| builder.build())).unwrap_or_else(|e| {
        Err(BenchError::Panicked {
            bench,
            cell: 0,
            payload: format!("context build: {}", panic_payload(e)),
        })
    })
}

/// Runs one cell under the supervision stack without the pipeline
/// observer attached — the entry point `mg-serve` workers use, sharing
/// shutdown and panic-isolation semantics with batch sweeps.
///
/// `deadline` is an optional absolute deadline, for callers executing
/// on behalf of a remote client that attached a `deadline_ms` budget.
/// The remaining budget is the cell's watchdog, so a cell never runs
/// past the deadline by more than the watchdog poll, and an
/// already-expired deadline short-circuits to [`BenchError::TimedOut`]
/// without running anything. Without a deadline the cell runs inline.
pub fn supervise_cell_until(
    ctx: &Arc<BenchContext>,
    cell: &SweepCell,
    cell_idx: usize,
    deadline: Option<Instant>,
) -> Result<SchemeRun, BenchError> {
    let watchdog = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if watchdog.is_some_and(|w| w.is_zero()) {
        tele_counter!("mg_supervisor_deadline_expiries_total").inc();
        return Err(BenchError::TimedOut {
            bench: ctx.spec.name.clone(),
            cell: cell_idx,
            limit_ms: 0,
        });
    }
    run_cell_supervised(ctx, cell, cell_idx, watchdog, false).map(|(run, _payload)| run)
}

/// The standard binary entry point for a sweep: journaled, resumable,
/// and signal-aware. All `MG_*` knobs arrive through
/// [`crate::config::Config::init_cli`] — the one environment parse
/// point.
///
/// - Journals every row whose cells all persist
///   ([`crate::journal::persists`]) under `results/journal/` and clears
///   the journal when the sweep completes without interruption (error
///   rows are a completed sweep; only a shutdown leaves the journal
///   behind).
///   `MG_JOURNAL_KEEP=1` keeps it anyway, for audit trails and CI
///   artifacts.
/// - `MG_RESUME=1` replays journaled rows from a previous interrupted
///   invocation of the same sweep bit-identically.
/// - Runs on `MG_JOBS` workers unless the spec forced
///   [`SweepSpec::jobs`].
/// - SIGINT/SIGTERM drain in-flight benchmarks, flush the journal, and
///   exit `130` with a resume hint; a second signal aborts immediately.
///   On platforms without signal watching only cooperative
///   [`request_shutdown`] remains.
/// - Configuration errors (`MG_JOBS`, `MG_FAULT`, any malformed knob)
///   print a diagnostic and exit `2` instead of panicking.
/// - At sweep exit (completed *or* interrupted) the global telemetry
///   registry is snapshotted to `results/TELEMETRY_<bin>.json`, and
///   with `MG_TRACE=1` the collected spans are drained to
///   `results/TRACE_<bin>.mgb` (a checksummed binary record;
///   `export_json` renders it as the Chrome trace JSON for Perfetto).
pub fn run_cli(spec: SweepSpec) -> SweepResult {
    let cfg = crate::config::Config::init_cli();
    let mut spec = spec.journal(true).resume(cfg.resume);
    spec.jobs.get_or_insert(cfg.effective_jobs());
    let watch = SignalWatch::install(|signo, count| {
        if count == 1 {
            mg_error!(
                "signal {signo}: draining in-flight benchmarks \
                 (signal again to abort immediately)"
            );
            request_shutdown();
        } else {
            std::process::exit(128 + signo);
        }
    });
    let outcome = spec.try_run();
    drop(watch);
    match outcome {
        Err(e) => {
            mg_error!("sweep configuration error: {e}");
            std::process::exit(2);
        }
        Ok(result) => {
            write_telemetry_artifacts(&bin_name(), cfg.trace);
            if result.summary.interrupted > 0 {
                std::process::exit(130);
            }
            if !cfg.journal_keep {
                if let Some(dir) = &result.summary.journal_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            result
        }
    }
}

/// The invoking binary's file stem, sanitized for use in a results
/// file name (`figures`, `perf`, ...).
fn bin_name() -> String {
    let name = std::env::args()
        .next()
        .and_then(|p| {
            std::path::Path::new(&p)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_default();
    let sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if sanitized.is_empty() {
        "sweep".to_string()
    } else {
        sanitized
    }
}

/// Snapshots the telemetry registry to `results/TELEMETRY_<bin>.json`
/// and, when span collection is on, drains the span buffer to
/// `results/TRACE_<bin>.mgb` (a checksummed [`crate::binfmt`] record).
/// Best-effort: a failed write logs an error but never fails the sweep
/// that produced the rows.
pub fn write_telemetry_artifacts(bin: &str, trace: bool) {
    use crate::binfmt::{self, RecordKind};
    let path =
        crate::harness::save_json(&format!("TELEMETRY_{bin}"), &mg_obs::telemetry::snapshot());
    mg_info!("telemetry snapshot written to {}", path.display());
    if trace && mg_obs::span::enabled() {
        let dir = std::path::Path::new("results");
        let _ = std::fs::create_dir_all(dir);
        let doc = mg_obs::span::chrome_trace(mg_obs::span::drain());
        let n = doc.traceEvents.len();
        let path = dir.join(format!("TRACE_{bin}.{}", binfmt::EXT));
        let bytes = binfmt::to_record(RecordKind::SpanTrace, binfmt::SPAN_TRACE_SCHEMA, &doc);
        match std::fs::write(&path, bytes) {
            Ok(()) => mg_info!(
                "trace with {n} spans written to {} (export with `cargo run --bin export_json`)",
                path.display()
            ),
            Err(e) => mg_error!("failed to write trace {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_flag_round_trips() {
        clear_shutdown();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        clear_shutdown();
        assert!(!shutdown_requested());
    }

    #[test]
    fn panic_payloads_render_for_str_string_and_other() {
        let s = catch_unwind(|| panic!("plain message")).unwrap_err();
        assert_eq!(panic_payload(s), "plain message");
        let owned = catch_unwind(|| panic!("{} {}", "formatted", 42)).unwrap_err();
        assert_eq!(panic_payload(owned), "formatted 42");
        let other = catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_payload(other), "non-string panic payload");
    }

    #[test]
    fn transient_classification_matches_the_retry_policy() {
        use crate::harness::Scheme;
        assert!(transient(&BenchError::Panicked {
            bench: "b".into(),
            cell: 0,
            payload: "p".into(),
        }));
        assert!(transient(&BenchError::TimedOut {
            bench: "b".into(),
            cell: 0,
            limit_ms: 1,
        }));
        assert!(!transient(&BenchError::CycleCap {
            bench: "b".into(),
            scheme: Scheme::NoMg,
        }));
        assert!(!transient(&BenchError::Config {
            knob: "MG_JOBS".into(),
            value: "0".into(),
            detail: "d".into(),
        }));
        assert!(!transient(&BenchError::Rewrite {
            bench: "b".into(),
            scheme: Scheme::StructAll,
            detail: "unschedulable".into(),
        }));
        assert!(!transient(&BenchError::Interrupted { bench: "b".into() }));
    }
}
