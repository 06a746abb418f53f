//! Engine-throughput harness: measures simulator cycles/second on the
//! fig1 reduced-machine sweep and writes `results/BENCH_engine.json`,
//! the repo's performance-trajectory record (uploaded as a CI artifact).
//!
//! Usage: `perf [N] [TARGET_DYN]` — sweep the first `N` benchmarks
//! (default: all 78) truncated to `TARGET_DYN` dynamic instructions
//! (default: 30000).
//!
//! Per (scheme, machine) cell, every benchmark's simulation input is
//! prepared once ([`mg_bench::harness::PreparedSim`]) and `simulate` is
//! then timed in isolation over `REPEATS` passes, keeping the best
//! (least-noisy) pass. Selection, rewriting, and functional execution
//! are excluded from the timed region — this harness tracks the engine
//! hot loop, nothing else.
//!
//! One benchmark is additionally timed with the pipeline observer
//! attached vs. detached, recording the observer's run-time overhead
//! ratio (and checking stall-attribution conservation) in the report's
//! `obs` section. The `profile` section does the same for slack
//! profiling: the no-mg/red cell, which is what a context's profiling run
//! simulates, timed with `profile_slack` on against the same prepared
//! cell run plain. It runs each benchmark at its full `target_dyn`, the
//! length a context's profiling run simulates, not at `TARGET_DYN`.
//!
//! That the engine does not allocate per cycle is gated by
//! `crates/sim/tests/alloc_free.rs`, not measured here.

use mg_bench::harness::PreparedSim;
use mg_bench::{machine_fingerprint, BenchContext, Scheme, SCHEMA_VERSION};
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
    bench: String,
    cycles: u64,
    plain_wall_sec: f64,
    observed_wall_sec: f64,
    /// Observed wall over plain wall: the run-time price of attaching
    /// the observer.
    overhead_ratio: f64,
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
    obs: Option<ObsPerf>,
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

fn prepare_all(take: usize, target_dyn: usize) -> Vec<(String, Vec<PreparedSim>)> {
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    suite()
        .into_iter()
        .take(take)
        .filter_map(|mut spec| {
            spec.params.target_dyn = target_dyn;
            let ctx = match BenchContext::builder(&spec, &red).cache(false).build() {
                Ok(ctx) => ctx,
                Err(e) => {
                    eprintln!("skipped {}: {e}", spec.name);
                    return None;
                }
            };
            let mut sims = Vec::new();
            for (scheme, tag) in cell_tags() {
                let machine = if tag == "base" { &base } else { &red };
                match ctx.prepare_sim(scheme, machine, None, None) {
                    Ok(p) => sims.push(p),
                    Err(e) => {
                        eprintln!("skipped {} cell {}/{tag}: {e}", spec.name, scheme.name());
                        return None;
                    }
                }
            }
            Some((spec.name.clone(), sims))
        })
        .collect()
}

/// Times `REPEATS` passes over `sims`, returning (total simulated cycles
/// of a pass, wall seconds of the fastest pass).
fn time_passes<'a>(sims: impl Iterator<Item = &'a PreparedSim> + Clone) -> (u64, f64) {
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
fn time_cell(prepared: &[(String, Vec<PreparedSim>)], cell: usize) -> (u64, f64) {
    time_passes(prepared.iter().map(|(_, sims)| &sims[cell]))
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
            let plain = match BenchContext::builder(&spec, &red)
                .cache(false)
                .build()
                .and_then(|ctx| ctx.prepare_sim(Scheme::NoMg, &red, None, None))
            {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("skipped {} in the profile section: {e}", spec.name);
                    return None;
                }
            };
            let mut profiled = plain.clone();
            profiled.opts.profile_slack = true;
            let (cycles, plain_wall) = time_passes(std::iter::once(&plain));
            let (_, profiled_wall) = time_passes(std::iter::once(&profiled));
            Some((plain.trace_len() as u64, cycles, plain_wall, profiled_wall))
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

/// Times one benchmark with and without the pipeline observer attached:
/// the ratio is the run-time cost of observing.
fn obs_profile(target_dyn: usize) -> Option<ObsPerf> {
    let red = MachineConfig::reduced();
    let mut spec = suite().into_iter().find(|s| s.name == "mib_crc32")?;
    spec.params.target_dyn = target_dyn;
    let ctx = BenchContext::builder(&spec, &red)
        .cache(false)
        .build()
        .ok()?;
    let plain = ctx.prepare_sim(Scheme::StructAll, &red, None, None).ok()?;
    let mut observed = plain.clone();
    observed.opts.obs = true;
    let (_, plain_wall_sec) = time_passes(std::iter::once(&plain));
    let (_, observed_wall_sec) = time_passes(std::iter::once(&observed));
    let r = observed.simulate();
    let report = r.obs.as_ref()?;
    Some(ObsPerf {
        bench: spec.name,
        cycles: r.stats.cycles,
        plain_wall_sec,
        observed_wall_sec,
        overhead_ratio: observed_wall_sec / plain_wall_sec.max(1e-12),
        conservation_ok: report.conservation_ok(),
    })
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
    let prepared = prepare_all(take, target_dyn);
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

    let obs = obs_profile(target_dyn);
    if let Some(o) = &obs {
        eprintln!(
            "observer overhead on {}: {:.2}x ({:.3}s observed vs {:.3}s plain, conservation {})",
            o.bench,
            o.overhead_ratio,
            o.observed_wall_sec,
            o.plain_wall_sec,
            if o.conservation_ok { "ok" } else { "VIOLATED" },
        );
    }

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
