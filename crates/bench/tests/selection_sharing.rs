//! Cells of one `BenchContext` share selection work: the candidate pool
//! is enumerated once per `SelectionConfig`, and each distinct selection
//! is rewritten and its trace projected once, whatever the scheme,
//! machine or mini-graph hardware of the cells using it.
//!
//! Sharing must be invisible in the results: every cell of a shared
//! context, in any order, is bit-identical to the same cell on a fresh
//! context. The `mg_select_*` counters are process-wide, so every test
//! that reads them serializes on [`LOCK`].

use mg_bench::{BenchContext, BenchError, Scheme, SchemeRun, SweepCell, SweepSpec};
use mg_core::SelectionConfig;
use mg_obs::telemetry;
use mg_sim::{MachineConfig, MgConfig};
use mg_workloads::{suite, BenchmarkSpec};
use std::sync::{Arc, Barrier, Mutex, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

const BENCHES: [&str; 3] = ["mib_crc32", "mib_sha", "spec_mcf"];

/// Selections per context over `Scheme::ALL`: the 11 schemes with
/// mini-graphs make 7 distinct selections (the four dynamic-disabling
/// schemes reuse Struct-All's).
const SELECTIONS: u64 = 7;

fn short_spec(name: &str) -> BenchmarkSpec {
    let mut s = suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark in suite");
    s.params.target_dyn = 6_000;
    s
}

fn context(spec: &BenchmarkSpec) -> BenchContext {
    BenchContext::builder(spec, &MachineConfig::reduced())
        .disk_cache(false)
        .build()
        .expect("context builds")
}

/// Every scheme on both machines, then one cell with a selection
/// override (a new `SelectionConfig`: its own pool and selection) and
/// one with a hardware override (reuses Struct-All's selection).
fn cells() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for machine in [MachineConfig::reduced(), MachineConfig::baseline()] {
        for scheme in Scheme::ALL {
            cells.push(SweepCell::new(scheme, &machine));
        }
    }
    cells.push(
        SweepCell::new(Scheme::StructBounded, &MachineConfig::reduced()).with_sel(
            SelectionConfig {
                mgt_budget: 16,
                ..SelectionConfig::default()
            },
        ),
    );
    cells.push(
        SweepCell::new(Scheme::SlackDynamic, &MachineConfig::reduced()).with_mg(MgConfig {
            max_mg_issue: 1,
            ..MgConfig::paper()
        }),
    );
    cells
}

fn run(ctx: &BenchContext, cell: &SweepCell) -> Result<SchemeRun, BenchError> {
    let (r, est_coverage) = ctx.try_cell(cell, false)?;
    SchemeRun::try_from_sim(&ctx.spec.name, cell.scheme, r, est_coverage)
}

fn assert_identical(
    shared: &Result<SchemeRun, BenchError>,
    fresh: &Result<SchemeRun, BenchError>,
    what: &str,
) {
    match (shared, fresh) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.scheme, b.scheme, "{what}");
            assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{what}: ipc");
            assert_eq!(a.cycles, b.cycles, "{what}: cycles");
            assert_eq!(
                a.coverage.to_bits(),
                b.coverage.to_bits(),
                "{what}: coverage"
            );
            assert_eq!(
                a.est_coverage.to_bits(),
                b.est_coverage.to_bits(),
                "{what}: est_coverage"
            );
            assert_eq!(a.disabled_templates, b.disabled_templates, "{what}");
            assert_eq!(a.serialized_handles, b.serialized_handles, "{what}");
            assert_eq!(
                a.dl1_miss_rate.to_bits(),
                b.dl1_miss_rate.to_bits(),
                "{what}: dl1_miss_rate"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        _ => panic!("{what}: shared {shared:?} vs fresh {fresh:?}"),
    }
}

/// `mg_select_{pools,prepared,shared}_total` since `before`.
fn select_counters(before: &telemetry::TelemetrySnapshot) -> [u64; 3] {
    let now = telemetry::snapshot();
    ["pools", "prepared", "shared"].map(|c| {
        let name = format!("mg_select_{c}_total");
        now.counter(&name) - before.counter(&name)
    })
}

#[test]
fn shared_cells_match_fresh_contexts_in_either_order() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cells = cells();
    let with_selection = cells.iter().filter(|c| c.scheme != Scheme::NoMg).count() as u64;
    for name in BENCHES {
        let spec = short_spec(name);
        let fresh: Vec<_> = cells.iter().map(|c| run(&context(&spec), c)).collect();
        for reversed in [false, true] {
            let mut order: Vec<usize> = (0..cells.len()).collect();
            if reversed {
                order.reverse();
            }
            let ctx = context(&spec);
            let before = telemetry::snapshot();
            let shared: Vec<_> = order.iter().map(|&i| (i, run(&ctx, &cells[i]))).collect();
            // Default and overridden selection configs: one pool each,
            // the 7 default selections plus the override's one.
            assert_eq!(
                select_counters(&before),
                [2, SELECTIONS + 1, with_selection - SELECTIONS - 1],
                "{name} (reversed: {reversed}): pools, prepared, shared"
            );
            for (i, run) in &shared {
                let what = format!("{name} cell {i} (reversed: {reversed})");
                assert_identical(run, &fresh[*i], &what);
            }
        }
    }
}

/// Cells racing on one context from several threads (as watchdog cells
/// do) still match a fresh context.
#[test]
fn concurrent_cells_on_one_context_match_fresh_contexts() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let spec = short_spec("mib_crc32");
    let cells = cells();
    let fresh: Vec<_> = cells.iter().map(|c| run(&context(&spec), c)).collect();
    let ctx = Arc::new(context(&spec));
    // Both threads start on the same cell, so they race on its misses.
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2 {
            let (ctx, cells, fresh, start) = (&ctx, &cells, &fresh, &start);
            s.spawn(move || {
                start.wait();
                for (i, cell) in cells.iter().enumerate() {
                    let what = format!("thread {t} cell {i}");
                    assert_identical(&run(ctx, cell), &fresh[i], &what);
                }
            });
        }
    });
}

/// The sweep runner gives each benchmark one context: a sweep over all
/// schemes builds one pool and prepares 7 selections per benchmark.
#[test]
fn sweep_prepares_each_selection_once_per_benchmark() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let red = MachineConfig::reduced();
    let benches: Vec<_> = BENCHES.iter().map(|b| short_spec(b)).collect();
    let n = benches.len() as u64;
    let before = telemetry::snapshot();
    let result = SweepSpec::new(&red)
        .benches(benches)
        .cells(Scheme::ALL.map(|s| SweepCell::new(s, &red)))
        .jobs(2)
        .disk_cache(false)
        .quiet(true)
        .run();
    assert_eq!(result.summary.failures, 0);
    assert_eq!(
        select_counters(&before),
        [n, SELECTIONS * n, (11 - SELECTIONS) * n],
        "pools, prepared, shared"
    );
}
