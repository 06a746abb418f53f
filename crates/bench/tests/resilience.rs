//! Integration tests for resilient sweep execution: panic isolation,
//! deadline watchdogs, cache quarantine, cooperative shutdown, and
//! journaled resume.
//!
//! The tests that *provoke* failures install a fault plan
//! ([`mg_bench::fault`]) in process, or pass `MG_FAULT` to the
//! `figures` binary; every build compiles the hooks in.
//!
//! The fault plan, shutdown flag, and context cache are process-wide,
//! so every in-process test serializes on [`LOCK`].

use mg_bench::{BenchError, Scheme, SweepCell, SweepResult, SweepSpec};
use mg_sim::MachineConfig;
use mg_workloads::{suite, BenchmarkSpec};
use std::path::PathBuf;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn benches(skip: usize, take: usize) -> Vec<BenchmarkSpec> {
    suite().iter().skip(skip).take(take).cloned().collect()
}

fn spec_for(benches: &[BenchmarkSpec]) -> SweepSpec {
    let red = MachineConfig::reduced();
    SweepSpec::new(&red)
        .benches(benches.iter().cloned())
        .cell(SweepCell::new(Scheme::NoMg, &red))
        .cell(SweepCell::new(Scheme::StructAll, &red))
        .jobs(2)
        .disk_cache(false)
        .quiet(true)
}

fn temp_journal_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mg-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic payload of a sweep, for bit-identity comparisons:
/// every cell's full run or error. `f64` `Debug` prints the shortest
/// round-tripping representation, so equal strings mean equal bits.
fn runs_repr(result: &SweepResult) -> String {
    result
        .rows
        .iter()
        .map(|r| format!("{}: {:?}\n", r.bench, r.runs))
        .collect()
}

/// Cooperative shutdown: a sweep that starts after shutdown was
/// requested runs nothing, journals nothing, and reports every cell as
/// interrupted; after re-arming, a resume run executes all of it.
#[test]
fn shutdown_interrupts_cells_and_resume_reruns_them() {
    let _guard = lock();
    let root = temp_journal_root("shutdown");
    let benches = benches(0, 3);
    let spec = spec_for(&benches).journal(true).journal_dir(&root);

    mg_bench::request_shutdown();
    let interrupted = spec.try_run().expect("interrupted sweep still returns");
    mg_bench::clear_shutdown();

    assert_eq!(interrupted.summary.interrupted, benches.len() * 2);
    assert_eq!(interrupted.summary.failures, 0, "interrupted != failed");
    for row in &interrupted.rows {
        for cell in &row.runs {
            assert!(
                matches!(cell, Err(BenchError::Interrupted { .. })),
                "{cell:?}"
            );
        }
    }
    let journal_dir = interrupted
        .summary
        .journal_dir
        .clone()
        .expect("journaling was on");
    let journaled = std::fs::read_dir(&journal_dir)
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(journaled, 0, "interrupted rows must not be journaled");

    let resumed = spec.clone().resume(true).try_run().expect("resume runs");
    assert_eq!(
        resumed.summary.replayed, 0,
        "nothing was journaled to replay"
    );
    assert_eq!(resumed.summary.interrupted, 0);
    assert_eq!(resumed.summary.failures, 0);
    let _ = std::fs::remove_dir_all(&root);
}

/// Journaled resume replays finished rows bit-identically, and rows
/// whose journal records are missing (the kill-mid-sweep case: some
/// rows journaled, the rest lost with the process) are re-executed to
/// the same bits.
#[test]
fn resume_replays_journaled_rows_bit_identically() {
    let _guard = lock();
    let root = temp_journal_root("resume");
    let benches = benches(3, 3);
    let spec = spec_for(&benches).journal(true).journal_dir(&root);

    let first = spec.try_run().expect("first run");
    assert_eq!(first.summary.failures, 0);
    assert_eq!(first.summary.replayed, 0);
    let reference = runs_repr(&first);
    let journal_dir = first.summary.journal_dir.clone().expect("journaling on");
    let row_files: Vec<PathBuf> = std::fs::read_dir(&journal_dir)
        .expect("journal dir exists")
        .flatten()
        .map(|e| e.path())
        .collect();
    assert_eq!(
        row_files.len(),
        benches.len(),
        "one record per finished row"
    );

    // Full resume: every row replays, nothing executes, same bits.
    let replayed = spec.clone().resume(true).try_run().expect("resume");
    assert_eq!(replayed.summary.replayed, benches.len());
    assert!(replayed.rows.iter().all(|r| r.replayed));
    assert_eq!(runs_repr(&replayed), reference);

    // Kill simulation: drop one row's record (as if the process died
    // before writing it). That row re-executes, the others replay, and
    // the merged result is still bit-identical.
    std::fs::remove_file(&row_files[1]).expect("drop one record");
    let partial = spec.clone().resume(true).try_run().expect("partial resume");
    assert_eq!(partial.summary.replayed, benches.len() - 1);
    assert_eq!(runs_repr(&partial), reference);

    // A different sweep shape must not replay this journal.
    let reshaped = spec_for(&benches)
        .cell(SweepCell::new(
            Scheme::StructNone,
            &MachineConfig::reduced(),
        ))
        .journal_dir(&root)
        .resume(true)
        .try_run()
        .expect("reshaped sweep");
    assert_eq!(
        reshaped.summary.replayed, 0,
        "shape change invalidates records"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A panic escaping a whole benchmark task surfaces as error rows for
/// that benchmark only; the rest of the sweep completes. (Cell-level
/// panic injection is exercised in the fault-gated tests below; this
/// covers the `par_map_catch` safety net with a plain library sweep.)
#[test]
fn error_rows_count_as_failures_not_interruptions() {
    let _guard = lock();
    // A benchmark whose every run hits the cycle cap: zero-width commit.
    let mut stuck = MachineConfig::reduced();
    stuck.commit_width = 0;
    let benches = benches(6, 2);
    let result = SweepSpec::new(&MachineConfig::reduced())
        .benches(benches.iter().cloned())
        .cell(SweepCell::new(Scheme::NoMg, &stuck))
        .jobs(2)
        .disk_cache(false)
        .quiet(true)
        .try_run()
        .expect("sweep completes despite failing cells");
    assert_eq!(result.summary.failures, benches.len());
    assert_eq!(result.summary.interrupted, 0);
    for row in &result.rows {
        assert!(matches!(row.runs[0], Err(BenchError::CycleCap { .. })));
    }
}

mod fault_injected {
    use super::*;
    use mg_bench::{fault, BenchContext};
    use mg_obs::telemetry;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn plan(s: &str) -> fault::FaultPlan {
        fault::parse_plan(s).expect("test plan parses")
    }

    /// Injected panics unwind through `catch_unwind`, which still runs
    /// the default panic hook and would spray backtraces over the test
    /// output; silence the hook while a test expects panics.
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

    struct QuietPanics(Option<PanicHook>);

    fn quiet_panics() -> QuietPanics {
        let old = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics(Some(old))
    }

    impl Drop for QuietPanics {
        fn drop(&mut self) {
            if let Some(hook) = self.0.take() {
                let _ = std::panic::take_hook();
                std::panic::set_hook(hook);
            }
        }
    }

    /// Clears the fault plan even when an assertion unwinds.
    struct ClearPlan;
    impl Drop for ClearPlan {
        fn drop(&mut self) {
            fault::set_plan(None);
        }
    }

    /// The acceptance scenario: one benchmark of the sweep panics
    /// mid-flight; its cells become `Panicked` error rows and every
    /// other row completes normally — the process never dies.
    #[test]
    fn injected_panic_yields_one_error_row_and_n_minus_one_ok_rows() {
        let _guard = lock();
        let _quiet = quiet_panics();
        let _clear = ClearPlan;
        let benches = benches(8, 4);
        let victim = benches[2].name.clone();
        fault::set_plan(Some(plan(&format!("panic:bench={victim}"))));
        let result = spec_for(&benches).try_run().expect("sweep survives");
        assert_eq!(result.summary.failures, 2, "both cells of the victim row");
        for (i, row) in result.rows.iter().enumerate() {
            if i == 2 {
                for cell in &row.runs {
                    match cell {
                        Err(BenchError::Panicked { bench, payload, .. }) => {
                            assert_eq!(*bench, victim);
                            assert!(payload.contains("mg-fault:"), "{payload}");
                        }
                        other => panic!("expected Panicked, got {other:?}"),
                    }
                }
            } else {
                assert!(row.all_ok().is_ok(), "row {i} should be clean");
            }
        }
    }

    /// The context a deadline-bound cell runs against, as `mg-serve`
    /// builds it.
    fn context(bench: &BenchmarkSpec) -> Arc<BenchContext> {
        let red = MachineConfig::reduced();
        let builder = BenchContext::builder(bench, &red).disk_cache(false);
        Arc::new(mg_bench::supervise_context(builder).expect("context builds"))
    }

    /// A cell that stalls past its deadline is reported as `TimedOut`
    /// once the remaining budget runs out, while the benchmark's other
    /// cell runs normally under the same watchdog.
    #[test]
    fn watchdog_times_out_stuck_cells() {
        let _guard = lock();
        let _clear = ClearPlan;
        let bench = benches(12, 1).remove(0);
        let ctx = context(&bench);
        let red = MachineConfig::reduced();
        // The budget must beat a debug-build cell (hundreds of ms) with
        // margin while staying far below the injected stall.
        fault::set_plan(Some(plan(&format!(
            "slow:ms=8000,bench={},cell=0",
            bench.name
        ))));
        let stuck = mg_bench::supervise_cell_until(
            &ctx,
            &SweepCell::new(Scheme::NoMg, &red),
            0,
            Some(Instant::now() + Duration::from_secs(2)),
        );
        match stuck {
            Err(BenchError::TimedOut {
                bench: name,
                cell,
                limit_ms,
            }) => {
                assert_eq!(name, bench.name);
                assert_eq!(cell, 0);
                assert!(0 < limit_ms && limit_ms <= 2000, "limit {limit_ms}ms");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        let healthy = mg_bench::supervise_cell_until(
            &ctx,
            &SweepCell::new(Scheme::StructAll, &red),
            1,
            Some(Instant::now() + Duration::from_secs(60)),
        );
        assert!(healthy.is_ok(), "only cell 0 was slowed: {healthy:?}");
    }

    /// A panicking cell is reported once, as `Panicked`: there is no
    /// retry, so the supervisor sees exactly one panic.
    #[test]
    fn panicking_cell_runs_once() {
        let _guard = lock();
        let _quiet = quiet_panics();
        let _clear = ClearPlan;
        let bench = benches(14, 1).remove(0);
        let ctx = context(&bench);
        fault::set_plan(Some(plan(&format!("panic:bench={},cell=0", bench.name))));
        let before = telemetry::snapshot();
        let res = mg_bench::supervise_cell_until(
            &ctx,
            &SweepCell::new(Scheme::NoMg, &MachineConfig::reduced()),
            0,
            None,
        );
        let panics = telemetry::snapshot().counter("mg_supervisor_panics_total")
            - before.counter("mg_supervisor_panics_total");
        match res {
            Err(BenchError::Panicked { payload, .. }) => {
                assert!(payload.contains("mg-fault:"), "{payload}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(panics, 1, "the cell ran once");
    }

    /// A corrupt disk-cache entry is detected by its checksum,
    /// quarantined (not deserialized, not fatal), and rebuilt from
    /// scratch with identical results.
    #[test]
    fn corrupt_cache_entries_are_quarantined_and_rebuilt() {
        let _guard = lock();
        let _clear = ClearPlan;
        // A spec unique to this test so its cache key collides with
        // nothing else (quarantine asserts rely on this entry).
        let mut bench = suite()[18].clone();
        bench.params.target_dyn = 21_000;
        let red = MachineConfig::reduced();
        let spec = SweepSpec::new(&red)
            .bench(&bench)
            .cell(SweepCell::new(Scheme::NoMg, &red))
            .disk_cache(true)
            .quiet(true);

        // Seed the disk entry, then force the next lookup onto the disk
        // path by dropping the in-memory layer.
        let first = spec.try_run().expect("seeding run");
        assert_eq!(first.summary.failures, 0);
        mg_bench::cache::clear_memory();

        // Quarantined files keep their cache-entry name, so a leftover
        // from an earlier test run would absorb the rename; start clean.
        let quarantine = std::path::Path::new(mg_bench::cache::QUARANTINE_DIR);
        let _ = std::fs::remove_dir_all(quarantine);
        let quarantined_before = 0;

        fault::set_plan(Some(plan("cache-corrupt:all")));
        let second = spec.try_run().expect("sweep survives corruption");
        fault::set_plan(None);

        assert_eq!(second.summary.failures, 0);
        assert_eq!(
            second.rows[0].cache,
            Some(mg_bench::CacheOutcome::Miss),
            "corrupt entry must rebuild, not deserialize"
        );
        let quarantined_after = std::fs::read_dir(quarantine)
            .map(|d| d.count())
            .unwrap_or(0);
        assert!(
            quarantined_after > quarantined_before,
            "the corrupt entry was moved to quarantine \
             ({quarantined_before} -> {quarantined_after})"
        );
        assert_eq!(
            runs_repr(&second),
            runs_repr(&first),
            "rebuild is bit-identical"
        );
    }

    /// The binary path end to end: `MG_FAULT` read by `figures`, one
    /// benchmark (`spec_gzip`, suite bench 0) panicking in every cell.
    /// The sweep still exits 0 and reports the panic as error rows. It
    /// journals the other row (`MG_JOURNAL_KEEP` keeps it) but not
    /// `spec_gzip`'s: a panic is transient, so a resume re-runs that
    /// row. Runs in its own working directory, so its `results/`
    /// starts empty.
    #[test]
    fn figures_binary_survives_an_injected_panic() {
        let dir = std::env::temp_dir().join(format!("mg-resilience-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["fig1", "2"])
            .current_dir(&dir)
            .env("MG_FAULT", "panic:bench=spec_gzip")
            .env("MG_JOURNAL_KEEP", "1")
            .output()
            .expect("run figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(
            stderr.contains("spec_gzip: cell 0 panicked: mg-fault:"),
            "{stderr}"
        );
        // `ls results/journal/sweep-*/row-*.mgb`
        let names = |dir: &std::path::Path| -> Vec<(PathBuf, String)> {
            std::fs::read_dir(dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (path, name)
                })
                .collect()
        };
        let mut rows: Vec<String> = names(&dir.join(mg_bench::journal::JOURNAL_DIR))
            .into_iter()
            .filter(|(_, name)| name.starts_with("sweep-"))
            .flat_map(|(path, _)| names(&path))
            .map(|(_, name)| name)
            .filter(|name| name.starts_with("row-") && name.ends_with(".mgb"))
            .collect();
        rows.sort();
        // Row files are `row-<bench index>-<key>.mgb`.
        assert_eq!(suite()[0].name, "spec_gzip");
        assert_eq!(rows.len(), 1, "only the row without a panic: {rows:?}");
        assert!(
            rows[0].starts_with("row-0001-"),
            "spec_gzip's row 0 is missing: {rows:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unparseable fault plan is a configuration error surfaced as a
    /// value by `try_run` (binaries print it and exit 2), never a panic.
    #[test]
    fn malformed_fault_plans_are_config_errors() {
        let _guard = lock();
        let err = fault::parse_plan("panic:cell=not-a-number").expect_err("must not parse");
        match err {
            BenchError::Config { knob, .. } => assert_eq!(knob, "MG_FAULT"),
            other => panic!("expected Config, got {other:?}"),
        }
    }
}
