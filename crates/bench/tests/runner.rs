//! Integration tests for the parallel sweep runner: determinism of
//! parallel output, context-cache behaviour, and the fallible harness
//! construction paths.
//!
//! The context cache and its counters are process-wide, so every test
//! that touches them serializes on [`LOCK`].

use mg_bench::cache;
use mg_bench::figures;
use mg_bench::{Scheme, SweepCell, SweepSpec};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// The acceptance bar of the runner: a parallel sweep's JSON is
/// byte-identical to a serial (`MG_JOBS=1`-equivalent) sweep's, on the
/// sweep the `figures` table defines for Figure 6.
#[test]
fn parallel_fig6_json_is_byte_identical_to_serial() {
    let _guard = LOCK.lock().unwrap();
    let fig6 = &figures::groups(&[figures::figure("fig6").unwrap()], Some(6))[0];
    let json = |jobs: usize| {
        let result = fig6.spec().jobs(jobs).disk_cache(false).quiet(true).run();
        let failures: Vec<_> = result
            .rows
            .iter()
            .filter_map(|r| r.all_ok().err())
            .collect();
        assert!(failures.is_empty(), "failures: {failures:?}");
        let (_, report) = fig6.reports(&result).remove(0);
        report.json.expect("fig6 saves rows")
    };
    assert_eq!(json(4), json(1));
}

/// A second sweep over the same spec rebuilds nothing: every context
/// comes from the in-memory cache.
#[test]
fn second_sweep_is_all_context_cache_hits() {
    let _guard = LOCK.lock().unwrap();
    let benches: Vec<_> = suite().iter().skip(10).take(3).cloned().collect();
    let red = MachineConfig::reduced();
    let spec = SweepSpec::new(&red)
        .benches(benches.clone())
        .cell(SweepCell::new(Scheme::NoMg, &red))
        .disk_cache(false)
        .quiet(true);

    let before = cache::counters();
    let first = spec.run();
    let after_first = cache::counters();
    let second = spec.run();
    let after_second = cache::counters();

    assert_eq!(first.summary.failures, 0);
    assert_eq!(second.summary.failures, 0);
    // The first sweep may hit contexts other tests built, but the second
    // sweep must be 100% in-memory hits with zero rebuilds.
    let d1 = after_first.since(&before);
    let d2 = after_second.since(&after_first);
    assert_eq!(d1.total(), benches.len() as u64);
    assert_eq!(d2.misses, 0);
    assert_eq!(d2.disk_hits, 0);
    assert_eq!(d2.mem_hits, benches.len() as u64);
}

/// A machine that can never retire (zero-width commit) must surface as
/// `BenchError::CycleCap` through the fallible harness API rather than
/// hanging or panicking — exercised here against the event-driven
/// scheduler, whose wakeup heap simply drains while the ROB stays full.
#[test]
fn cycle_capped_run_surfaces_as_bench_error() {
    use mg_bench::{BenchContext, BenchError};
    let _guard = LOCK.lock().unwrap();
    let mut spec = mg_workloads::limit_study_benchmark();
    spec.params.target_dyn = 2_000; // keep the capped spin short
    let red = MachineConfig::reduced();
    let ctx = BenchContext::try_new(&spec, &red).unwrap();
    let mut stuck = red.clone();
    stuck.commit_width = 0;
    match ctx.try_run(Scheme::NoMg, &stuck) {
        Err(BenchError::CycleCap { bench, scheme }) => {
            assert_eq!(bench, spec.name);
            assert_eq!(scheme, Scheme::NoMg);
        }
        Ok(r) => panic!("expected CycleCap, got a successful run: {r:?}"),
        Err(e) => panic!("expected CycleCap, got {e}"),
    }
}

/// The `try_new` shorthand agrees with the explicit builder path it
/// abbreviates (same inputs, same cache policy, same bits).
#[test]
fn try_new_shorthand_matches_explicit_builder() {
    use mg_bench::BenchContext;
    let _guard = LOCK.lock().unwrap();
    let spec = mg_workloads::limit_study_benchmark();
    let red = MachineConfig::reduced();
    let short = BenchContext::try_new(&spec, &red)
        .unwrap()
        .try_run(Scheme::StructAll, &red)
        .unwrap();
    let explicit = BenchContext::builder(&spec, &red)
        .train_input(spec.primary_input())
        .run_input(spec.primary_input())
        .build()
        .unwrap()
        .try_run(Scheme::StructAll, &red)
        .unwrap();
    assert_eq!(short.cycles, explicit.cycles);
    assert_eq!(short.ipc, explicit.ipc);
    assert_eq!(short.coverage, explicit.coverage);
}
