//! Engine-throughput harness: measures simulator cycles/second on the
//! fig1 reduced-machine sweep and writes `results/BENCH_engine.json`,
//! the repo's performance-trajectory record (uploaded as a CI artifact).
//!
//! Usage: `perf [N] [TARGET_DYN]` — sweep the first `N` benchmarks
//! (default: all 78) truncated to `TARGET_DYN` dynamic instructions
//! (default: 30000).
//!
//! Per (scheme, machine) cell, every benchmark's simulation input is
//! prepared once ([`mg_bench::harness::PreparedSim`], borrowing the
//! benchmark's context) and `simulate` is
//! then timed in isolation over `REPEATS` passes, keeping the best
//! (least-noisy) pass. Selection, rewriting, and functional execution
//! are excluded from the timed region — this harness tracks the engine
//! hot loop, nothing else.
//!
//! The Struct-All/red cell of every benchmark is additionally timed
//! with the pipeline observer attached vs. detached, recording the
//! observer's run-time overhead ratio (and checking stall-attribution
//! conservation on every run) in the report's `obs` section. The
//! `profile` section does the same for slack
//! profiling: the no-mg/red cell, which is what a context's profiling run
//! simulates, timed with `profile_slack` on against the same prepared
//! cell run plain. It runs each benchmark at its full `target_dyn`, the
//! length a context's profiling run simulates, not at `TARGET_DYN`.
//!
//! That the engine does not allocate per cycle is gated by
//! `crates/sim/tests/alloc_free.rs`, not measured here.

use mg_bench::harness::PreparedSim;
use mg_bench::{machine_fingerprint, BenchContext, Scheme, SweepCell, SCHEMA_VERSION};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::Serialize;
use std::time::Instant;

const REPEATS: usize = 3;

#[derive(Serialize)]
struct CellPerf {
    scheme: String,
    machine: String,
    benches: usize,
    sim_cycles: u64,
    wall_sec: f64,
    cycles_per_sec: f64,
}

#[derive(Serialize)]
struct ObsPerf {
    scheme: String,
    machine: String,
    benches: usize,
    sim_cycles: u64,
    plain_wall_sec: f64,
    observed_wall_sec: f64,
    /// Observed wall over plain wall: the run-time price of attaching
    /// the observer.
    overhead_ratio: f64,
    /// Whether every observed run's stall table conserved cycles.
    conservation_ok: bool,
}

#[derive(Serialize)]
struct ProfilePerf {
    scheme: String,
    machine: String,
    benches: usize,
    /// Committed instructions simulated per pass: every benchmark at
    /// its full `target_dyn`.
    instrs: u64,
    sim_cycles: u64,
    plain_wall_sec: f64,
    profiled_wall_sec: f64,
    /// Profiled wall over plain wall: the run-time price of collecting
    /// a slack profile.
    overhead_ratio: f64,
}

#[derive(Serialize)]
struct PerfReport {
    schema_version: u32,
    machine_fingerprint: String,
    benches: usize,
    target_dyn: usize,
    repeats: usize,
    cells: Vec<CellPerf>,
    total_sim_cycles: u64,
    total_wall_sec: f64,
    sim_cycles_per_sec: f64,
    obs: ObsPerf,
    profile: ProfilePerf,
}

fn cell_tags() -> Vec<(Scheme, &'static str)> {
    vec![
        (Scheme::NoMg, "base"),
        (Scheme::NoMg, "red"),
        (Scheme::StructAll, "red"),
        (Scheme::StructNone, "red"),
        (Scheme::SlackProfile, "red"),
    ]
}

/// Builds the context of each of the first `take` benchmarks, truncated
/// to `target_dyn`.
fn build_all(take: usize, target_dyn: usize) -> Vec<BenchContext> {
    let red = MachineConfig::reduced();
    suite()
        .into_iter()
        .take(take)
        .filter_map(|mut spec| {
            spec.params.target_dyn = target_dyn;
            BenchContext::builder(&spec, &red)
                .cache(false)
                .build()
                .inspect_err(|e| eprintln!("skipped {}: {e}", spec.name))
                .ok()
        })
        .collect()
}

/// Prepares every timed cell of every context; a benchmark with a cell
/// that fails to prepare is skipped whole.
fn prepare_all(contexts: &[BenchContext]) -> Vec<Vec<PreparedSim<'_>>> {
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    contexts
        .iter()
        .filter_map(|ctx| {
            cell_tags()
                .into_iter()
                .map(|(scheme, tag)| {
                    let machine = if tag == "base" { &base } else { &red };
                    ctx.prepare_sim(&SweepCell::new(scheme, machine))
                        .inspect_err(|e| {
                            eprintln!(
                                "skipped {} cell {}/{tag}: {e}",
                                ctx.spec.name,
                                scheme.name()
                            )
                        })
                        .ok()
                })
                .collect()
        })
        .collect()
}

/// Times `REPEATS` passes over `sims`, returning (total simulated cycles
/// of a pass, wall seconds of the fastest pass).
fn time_passes<'a, 'c: 'a>(sims: impl Iterator<Item = &'a PreparedSim<'c>> + Clone) -> (u64, f64) {
    let mut best_wall = f64::INFINITY;
    let mut cycles = 0u64;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        cycles = sims.clone().map(|p| p.simulate().stats.cycles).sum();
        best_wall = best_wall.min(t0.elapsed().as_secs_f64());
    }
    (cycles, best_wall)
}

/// Times one full pass of every benchmark under one cell index.
fn time_cell(prepared: &[Vec<PreparedSim<'_>>], cell: usize) -> (u64, f64) {
    time_passes(prepared.iter().map(|sims| &sims[cell]))
}

/// Times the no-mg/red cell of the first `take` benchmarks with slack
/// profiling on and off, each at its full `target_dyn`. Benchmarks are
/// prepared one at a time and dropped once timed, so one full-length
/// trace is live at a time; each side sums the per-benchmark fastest of
/// `REPEATS` passes.
fn profile_overhead(take: usize) -> ProfilePerf {
    let red = MachineConfig::reduced();
    // (instrs, cycles, plain wall, profiled wall) per benchmark.
    let runs: Vec<(u64, u64, f64, f64)> = suite()
        .into_iter()
        .take(take)
        .filter_map(|spec| {
            BenchContext::builder(&spec, &red)
                .cache(false)
                .build()
                .and_then(|ctx| {
                    let plain = ctx.prepare_sim(&SweepCell::new(Scheme::NoMg, &red))?;
                    let mut profiled = plain.clone();
                    profiled.opts.profile_slack = true;
                    let (cycles, plain_wall) = time_passes(std::iter::once(&plain));
                    let (_, profiled_wall) = time_passes(std::iter::once(&profiled));
                    Ok((
                        plain.trace().len() as u64,
                        cycles,
                        plain_wall,
                        profiled_wall,
                    ))
                })
                .inspect_err(|e| eprintln!("skipped {} in the profile section: {e}", spec.name))
                .ok()
        })
        .collect();
    let plain_wall_sec: f64 = runs.iter().map(|r| r.2).sum();
    let profiled_wall_sec: f64 = runs.iter().map(|r| r.3).sum();
    ProfilePerf {
        scheme: Scheme::NoMg.name().to_string(),
        machine: "red".to_string(),
        benches: runs.len(),
        instrs: runs.iter().map(|r| r.0).sum(),
        sim_cycles: runs.iter().map(|r| r.1).sum(),
        plain_wall_sec,
        profiled_wall_sec,
        overhead_ratio: profiled_wall_sec / plain_wall_sec.max(1e-12),
    }
}

/// The cell the `obs` section times: Struct-All on the reduced machine.
const OBS_CELL: (Scheme, &str) = (Scheme::StructAll, "red");

/// Times the [`OBS_CELL`] of every prepared benchmark with and without
/// the pipeline observer attached: the ratio is the run-time cost of
/// observing. Leaves those cells of `prepared` switched to observed.
fn obs_overhead(prepared: &mut [Vec<PreparedSim<'_>>]) -> ObsPerf {
    let cell = cell_tags()
        .iter()
        .position(|&c| c == OBS_CELL)
        .expect("the obs cell is a timed cell");
    let (sim_cycles, plain_wall_sec) = time_cell(prepared, cell);
    for sims in prepared.iter_mut() {
        sims[cell].opts.obs = true;
    }
    let (_, observed_wall_sec) = time_cell(prepared, cell);
    let conservation_ok = prepared.iter().all(|sims| {
        sims[cell]
            .simulate()
            .obs
            .is_some_and(|r| r.conservation_ok())
    });
    ObsPerf {
        scheme: OBS_CELL.0.name().to_string(),
        machine: OBS_CELL.1.to_string(),
        benches: prepared.len(),
        sim_cycles,
        plain_wall_sec,
        observed_wall_sec,
        overhead_ratio: observed_wall_sec / plain_wall_sec.max(1e-12),
        conservation_ok,
    }
}

fn main() {
    mg_bench::Config::init_cli();
    let take: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);
    let target_dyn: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    eprintln!("preparing sweep inputs…");
    let contexts = build_all(take, target_dyn);
    let mut prepared = prepare_all(&contexts);
    assert!(!prepared.is_empty(), "no benchmarks prepared");

    let mut cells = Vec::new();
    let mut total_cycles = 0u64;
    let mut total_wall = 0.0f64;
    for (i, (scheme, tag)) in cell_tags().into_iter().enumerate() {
        let (cycles, wall) = time_cell(&prepared, i);
        eprintln!(
            "{:<16} {:<5} {:>12} cycles  {:>8.3}s  {:>12.0} cyc/s",
            scheme.name(),
            tag,
            cycles,
            wall,
            cycles as f64 / wall
        );
        total_cycles += cycles;
        total_wall += wall;
        cells.push(CellPerf {
            scheme: scheme.name().to_string(),
            machine: tag.to_string(),
            benches: prepared.len(),
            sim_cycles: cycles,
            wall_sec: wall,
            cycles_per_sec: cycles as f64 / wall,
        });
    }

    let obs = obs_overhead(&mut prepared);
    eprintln!(
        "observer overhead on {}/{} ({} benches): {:.2}x ({:.3}s observed vs {:.3}s plain, conservation {})",
        obs.scheme,
        obs.machine,
        obs.benches,
        obs.overhead_ratio,
        obs.observed_wall_sec,
        obs.plain_wall_sec,
        if obs.conservation_ok { "ok" } else { "VIOLATED" },
    );

    eprintln!("timing full-length slack profiling…");
    let profile = profile_overhead(take);
    eprintln!(
        "slack-profiling overhead on {}/{} ({} instrs): {:.2}x ({:.3}s profiled vs {:.3}s plain)",
        profile.scheme,
        profile.machine,
        profile.instrs,
        profile.overhead_ratio,
        profile.profiled_wall_sec,
        profile.plain_wall_sec,
    );

    let report = PerfReport {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        benches: prepared.len(),
        target_dyn,
        repeats: REPEATS,
        cells,
        total_sim_cycles: total_cycles,
        total_wall_sec: total_wall,
        sim_cycles_per_sec: total_cycles as f64 / total_wall,
        obs,
        profile,
    };
    println!(
        "TOTAL: {} simulated cycles in {:.3}s = {:.0} sim-cycles/sec",
        report.total_sim_cycles, report.total_wall_sec, report.sim_cycles_per_sec
    );
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_engine.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize perf report");
    std::fs::write(&path, json).expect("write BENCH_engine.json");
    eprintln!("report written to {}", path.display());
}
