//! The profiling run is the training machine's no-mini-graph cell.
//!
//! A context's slack profile comes from one timing simulation of the
//! unmodified train workload on the train machine. Recording the profile
//! perturbs no timing, so when the train and run inputs are equal that
//! run *is* the `NoMg` cell on the train machine, and the harness serves
//! the cell from it instead of simulating again. These tests pin the
//! invariant the shortcut relies on, and that the shortcut is taken
//! exactly when it applies. The `mg_sim_*` counters are process-wide, so
//! every test here serializes on [`LOCK`].

use mg_bench::golden::GOLDEN_TARGET_DYN;
use mg_bench::{cache, BenchContext, CacheOutcome, Scheme, SchemeRun, SweepCell};
use mg_core::SelectionConfig;
use mg_obs::telemetry;
use mg_sim::{simulate, MachineConfig, MgConfig, SimOptions, SimResult};
use mg_workloads::{suite, BenchmarkSpec, Executor};
use std::sync::{Mutex, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn spec(name: &str, target_dyn: usize) -> BenchmarkSpec {
    let mut s = suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark in suite");
    s.params.target_dyn = target_dyn;
    s
}

/// `(mg_sim_runs_total, mg_sim_training_cell_reused_total)` since
/// `before`.
fn sim_counters(before: &telemetry::TelemetrySnapshot) -> (u64, u64) {
    let now = telemetry::snapshot();
    let delta = |name: &str| now.counter(name) - before.counter(name);
    (
        delta("mg_sim_runs_total"),
        delta("mg_sim_training_cell_reused_total"),
    )
}

/// Runs one cell through the harness, returning the raw result, the
/// condensed row and the counter deltas of the harness call alone.
fn run_cell(ctx: &BenchContext, cell: &SweepCell) -> (SimResult, SchemeRun, (u64, u64)) {
    let before = telemetry::snapshot();
    let (sim, _) = ctx.try_cell(cell, false).expect("cell runs");
    let row = ctx
        .try_cell(cell, false)
        .and_then(|(r, est)| SchemeRun::try_from_sim(&ctx.spec.name, cell.scheme, r, est))
        .expect("cell runs");
    let (runs, reused) = sim_counters(&before);
    // Two harness calls per cell: halve the deltas to one call's.
    assert!(runs % 2 == 0 && reused % 2 == 0, "calls agree");
    (sim, row, (runs / 2, reused / 2))
}

/// The harness's `NoMg` result on `machine` must equal a direct
/// simulation of the context's own program and trace, bit for bit.
fn assert_matches_direct(
    ctx: &BenchContext,
    machine: &MachineConfig,
    sim: &SimResult,
    row: &SchemeRun,
) {
    let direct = simulate(
        &ctx.workload.program,
        &ctx.trace,
        machine,
        SimOptions::default(),
    );
    let name = &ctx.spec.name;
    assert_eq!(sim.stats, direct.stats, "{name}: stats");
    assert_eq!(sim.hit_cycle_cap, direct.hit_cycle_cap, "{name}: cycle cap");
    assert_eq!(sim.ipc().to_bits(), direct.ipc().to_bits(), "{name}: ipc");
    assert_eq!(row.ipc.to_bits(), direct.ipc().to_bits(), "{name}: row ipc");
    assert_eq!(row.cycles, direct.stats.cycles, "{name}: row cycles");
    assert_eq!(
        row.coverage.to_bits(),
        direct.stats.coverage().to_bits(),
        "{name}: row coverage"
    );
    assert_eq!(row.est_coverage.to_bits(), 0f64.to_bits(), "{name}");
    assert_eq!(
        row.dl1_miss_rate.to_bits(),
        direct.stats.dl1.miss_rate().to_bits(),
        "{name}: row dl1 miss rate"
    );
    assert_eq!(row.serialized_handles, direct.stats.serialized_handles);
    assert_eq!(row.disabled_templates, direct.stats.disabled_templates);
}

/// The invariant itself: on every benchmark and both machines, a
/// slack-profiling simulation returns the same statistics and cycle-cap
/// flag as a plain one.
#[test]
fn profiling_leaves_every_benchmarks_stats_unchanged() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let machines = [MachineConfig::baseline(), MachineConfig::reduced()];
    let benches = suite();
    assert_eq!(benches.len(), 78);
    for mut spec in benches {
        spec.params.target_dyn = GOLDEN_TARGET_DYN;
        let w = spec.generate();
        let (trace, _) = Executor::new(&w.program)
            .run_with_mem(&w.init_mem)
            .expect("workload executes");
        for machine in &machines {
            let profiled = SimOptions {
                profile_slack: true,
                ..SimOptions::default()
            };
            let a = simulate(&w.program, &trace, machine, profiled);
            let b = simulate(&w.program, &trace, machine, SimOptions::default());
            assert!(a.slack.is_some(), "{}: profile recorded", spec.name);
            assert_eq!(a.stats, b.stats, "{} on {}", spec.name, machine.name);
            assert_eq!(a.hit_cycle_cap, b.hit_cycle_cap, "{}", spec.name);
        }
    }
}

/// A context built on a cache miss serves the training cell from its
/// profiling run, with or without mini-graph and selection overrides
/// (neither applies to a no-mini-graph cell).
#[test]
fn miss_context_serves_the_training_cell() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let red = MachineConfig::reduced();
    let ctx = BenchContext::builder(&spec("mib_crc32", 5_000), &red)
        .disk_cache(false)
        .build()
        .expect("context builds");
    assert_eq!(ctx.cache_outcome(), CacheOutcome::Miss);
    let (sim, row, counters) = run_cell(&ctx, &SweepCell::new(Scheme::NoMg, &red));
    assert_eq!(counters, (0, 1), "served, not simulated");
    assert_matches_direct(&ctx, &red, &sim, &row);

    let mg = MgConfig {
        max_mg_issue: 1,
        ..MgConfig::paper()
    };
    let sel = SelectionConfig {
        mgt_budget: 16,
        ..SelectionConfig::default()
    };
    let cell = SweepCell::new(Scheme::NoMg, &red).with_mg(mg).with_sel(sel);
    let (sim, row, counters) = run_cell(&ctx, &cell);
    assert_eq!(counters, (0, 1), "overrides do not apply to NoMg");
    assert_matches_direct(&ctx, &red, &sim, &row);
}

/// A context restored from a disk entry serves the training cell from
/// the entry's stored training run.
#[test]
fn disk_hit_context_serves_the_training_cell() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let red = MachineConfig::reduced();
    let spec = spec("mib_sha", 5_000);
    // The first build is a miss or, after an earlier run, a disk hit;
    // either way the entry is on disk once it returns.
    BenchContext::try_new(&spec, &red).expect("context builds");
    cache::clear_memory();
    let ctx = BenchContext::try_new(&spec, &red).expect("context builds");
    assert_eq!(ctx.cache_outcome(), CacheOutcome::DiskHit);
    let (sim, row, counters) = run_cell(&ctx, &SweepCell::new(Scheme::NoMg, &red));
    assert_eq!(counters, (0, 1), "served, not simulated");
    assert_matches_direct(&ctx, &red, &sim, &row);
}

/// Where the profiling run is not the cell, the cell still simulates:
/// another machine, and a context whose run input differs from its
/// train input.
#[test]
fn other_cells_still_simulate() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let red = MachineConfig::reduced();
    let base = MachineConfig::baseline();
    let spec = spec("spec_mcf", 5_000);
    let ctx = BenchContext::builder(&spec, &red)
        .disk_cache(false)
        .build()
        .expect("context builds");
    let (sim, row, counters) = run_cell(&ctx, &SweepCell::new(Scheme::NoMg, &base));
    assert_eq!(counters, (1, 0), "another machine simulates");
    assert_matches_direct(&ctx, &base, &sim, &row);

    let cross = BenchContext::builder(&spec, &red)
        .run_input(spec.alternate_input())
        .disk_cache(false)
        .build()
        .expect("context builds");
    let (sim, row, counters) = run_cell(&cross, &SweepCell::new(Scheme::NoMg, &red));
    assert_eq!(counters, (1, 0), "other run input simulates");
    assert_matches_direct(&cross, &red, &sim, &row);

    // A cell with mini-graphs on the train machine simulates too.
    let before = telemetry::snapshot();
    ctx.try_run(Scheme::StructAll, &red).expect("cell runs");
    assert_eq!(sim_counters(&before), (1, 0), "Struct-All simulates");
}

/// An observed training cell simulates: the profiling run recorded no
/// observer report, so serving it would drop the report. The observed
/// run's statistics still equal the served cell's.
#[test]
fn observed_training_cell_simulates() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let red = MachineConfig::reduced();
    let ctx = BenchContext::builder(&spec("mib_crc32", 5_000), &red)
        .disk_cache(false)
        .build()
        .expect("context builds");
    let cell = SweepCell::new(Scheme::NoMg, &red);
    let before = telemetry::snapshot();
    let (served, _) = ctx.try_cell(&cell, false).expect("cell runs");
    assert_eq!(sim_counters(&before), (0, 1), "unobserved: served");

    let before = telemetry::snapshot();
    let (observed, _) = ctx.try_cell(&cell, true).expect("cell runs");
    assert_eq!(sim_counters(&before), (1, 0), "observed: simulated");
    assert_eq!(observed.stats, served.stats, "observing changes no stat");
    let report = observed
        .obs
        .as_ref()
        .expect("an observed cell has a report");
    assert_eq!(
        report.cycles, observed.stats.cycles,
        "report covers the run"
    );
}
