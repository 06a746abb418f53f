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
//! Both sections time each benchmark's plain and treated runs as
//! `REPEATS` back-to-back pairs, alternating which runs first, and
//! report the median of the per-pair ratios next to the ratio of the
//! summed fastest walls: a pair shares the host's state of the moment,
//! so its ratio is steadier than two sums taken apart.
//!
//! That the engine does not allocate per cycle is gated by
//! `crates/sim/tests/alloc_free.rs`, not measured here.

use mg_bench::harness::PreparedSim;
use mg_bench::{machine_fingerprint, BenchContext, Scheme, SweepCell, SCHEMA_VERSION};
use mg_sim::{MachineConfig, SimResult};
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
    /// Median over every (benchmark, repeat) pair of observed over plain.
    median_pair_ratio: f64,
    pairs: usize,
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
    /// Median over every (benchmark, repeat) pair of profiled over plain.
    median_pair_ratio: f64,
    pairs: usize,
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

/// Times `REPEATS` passes of every benchmark under one cell index,
/// returning (total simulated cycles of a pass, wall seconds of the
/// fastest pass).
fn time_cell(prepared: &[Vec<PreparedSim<'_>>], cell: usize) -> (u64, f64) {
    let mut best_wall = f64::INFINITY;
    let mut cycles = 0u64;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        cycles = prepared
            .iter()
            .map(|sims| sims[cell].simulate().stats.cycles)
            .sum();
        best_wall = best_wall.min(t0.elapsed().as_secs_f64());
    }
    (cycles, best_wall)
}

/// Paired timings of plain and treated runs, summed over benchmarks.
#[derive(Default)]
struct Pairs {
    /// Simulated cycles of one plain run of each benchmark.
    cycles: u64,
    /// Each benchmark's fastest plain and treated wall, summed.
    plain_wall: f64,
    treated_wall: f64,
    /// Treated over plain wall of every pair.
    ratios: Vec<f64>,
}

impl Pairs {
    /// Runs `plain` and `treated` back to back `REPEATS` times, swapping
    /// which goes first each time (`first_treated` picks the first
    /// pair's order), and passes every treated result to `check`.
    fn time(
        &mut self,
        plain: &PreparedSim<'_>,
        treated: &PreparedSim<'_>,
        first_treated: bool,
        mut check: impl FnMut(&SimResult),
    ) {
        let (mut best_plain, mut best_treated) = (f64::INFINITY, f64::INFINITY);
        for i in 0..REPEATS {
            let treated_first = first_treated ^ (i % 2 == 1);
            let mut walls = [0.0; 2];
            for treat in [treated_first, !treated_first] {
                let t0 = Instant::now();
                let r = if treat { treated } else { plain }.simulate();
                walls[treat as usize] = t0.elapsed().as_secs_f64();
                if treat {
                    check(&r);
                } else if i == 0 {
                    self.cycles += r.stats.cycles;
                }
            }
            best_plain = best_plain.min(walls[0]);
            best_treated = best_treated.min(walls[1]);
            self.ratios.push(walls[1] / walls[0].max(1e-12));
        }
        self.plain_wall += best_plain;
        self.treated_wall += best_treated;
    }

    /// Summed treated over summed plain wall.
    fn sum_ratio(&self) -> f64 {
        self.treated_wall / self.plain_wall.max(1e-12)
    }

    fn median_ratio(&self) -> f64 {
        let mut r = self.ratios.clone();
        r.sort_by(f64::total_cmp);
        match r.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => r[n / 2],
            n => (r[n / 2 - 1] + r[n / 2]) / 2.0,
        }
    }
}

/// Times the no-mg/red cell of the first `take` benchmarks with slack
/// profiling on and off, each at its full `target_dyn`. Benchmarks are
/// prepared one at a time and dropped once timed, so one full-length
/// trace is live at a time.
fn profile_overhead(take: usize) -> ProfilePerf {
    let red = MachineConfig::reduced();
    let mut pairs = Pairs::default();
    let (mut benches, mut instrs) = (0, 0u64);
    for (i, spec) in suite().into_iter().take(take).enumerate() {
        let timed = BenchContext::builder(&spec, &red)
            .cache(false)
            .build()
            .and_then(|ctx| {
                let plain = ctx.prepare_sim(&SweepCell::new(Scheme::NoMg, &red))?;
                let mut profiled = plain.clone();
                profiled.opts.profile_slack = true;
                pairs.time(&plain, &profiled, i % 2 == 1, |_| {});
                Ok(plain.trace().len() as u64)
            });
        match timed {
            Ok(n) => {
                benches += 1;
                instrs += n;
            }
            Err(e) => eprintln!("skipped {} in the profile section: {e}", spec.name),
        }
    }
    ProfilePerf {
        scheme: Scheme::NoMg.name().to_string(),
        machine: "red".to_string(),
        benches,
        instrs,
        sim_cycles: pairs.cycles,
        plain_wall_sec: pairs.plain_wall,
        profiled_wall_sec: pairs.treated_wall,
        overhead_ratio: pairs.sum_ratio(),
        median_pair_ratio: pairs.median_ratio(),
        pairs: pairs.ratios.len(),
    }
}

/// The cell the `obs` section times: Struct-All on the reduced machine.
const OBS_CELL: (Scheme, &str) = (Scheme::StructAll, "red");

/// Times the [`OBS_CELL`] of every prepared benchmark with and without
/// the pipeline observer attached: the ratio is the run-time cost of
/// observing.
fn obs_overhead(prepared: &[Vec<PreparedSim<'_>>]) -> ObsPerf {
    let cell = cell_tags()
        .iter()
        .position(|&c| c == OBS_CELL)
        .expect("the obs cell is a timed cell");
    let mut pairs = Pairs::default();
    let mut conservation_ok = true;
    for (i, sims) in prepared.iter().enumerate() {
        let mut observed = sims[cell].clone();
        observed.opts.obs = true;
        pairs.time(&sims[cell], &observed, i % 2 == 1, |r| {
            conservation_ok &= r.obs.as_ref().is_some_and(|o| o.conservation_ok());
        });
    }
    ObsPerf {
        scheme: OBS_CELL.0.name().to_string(),
        machine: OBS_CELL.1.to_string(),
        benches: prepared.len(),
        sim_cycles: pairs.cycles,
        plain_wall_sec: pairs.plain_wall,
        observed_wall_sec: pairs.treated_wall,
        overhead_ratio: pairs.sum_ratio(),
        median_pair_ratio: pairs.median_ratio(),
        pairs: pairs.ratios.len(),
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
    let prepared = prepare_all(&contexts);
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

    let obs = obs_overhead(&prepared);
    eprintln!(
        "observer overhead on {}/{} ({} benches): {:.2}x, median pair {:.2}x over {} pairs ({:.3}s observed vs {:.3}s plain, conservation {})",
        obs.scheme,
        obs.machine,
        obs.benches,
        obs.overhead_ratio,
        obs.median_pair_ratio,
        obs.pairs,
        obs.observed_wall_sec,
        obs.plain_wall_sec,
        if obs.conservation_ok { "ok" } else { "VIOLATED" },
    );

    eprintln!("timing full-length slack profiling…");
    let profile = profile_overhead(take);
    eprintln!(
        "slack-profiling overhead on {}/{} ({} instrs): {:.2}x, median pair {:.2}x over {} pairs ({:.3}s profiled vs {:.3}s plain)",
        profile.scheme,
        profile.machine,
        profile.instrs,
        profile.overhead_ratio,
        profile.median_pair_ratio,
        profile.pairs,
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
