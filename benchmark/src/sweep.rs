//! The sweep workloads: `fig1-cold`, `fig1-warm` and
//! `short-all-schemes`.
//!
//! An untraced run sets up several times, then runs the grid through
//! `SweepSpec` ([`JOBS`] worker, journal on, a fresh journal directory and
//! an empty in-memory context cache per rep) until `--seconds` have
//! passed. Each set-up and rep runs the grid in pieces of [`PIECE`]
//! benchmarks timed by a [`Probe`]; a piece's median over the runs,
//! summed over the pieces, gives the reported time. Every rep's row
//! digest must equal the pinned one. `fig1-warm` then replays its last
//! journal with `resume(true)`.
//!
//! A traced run sets up once, runs one untraced rep for the harness's
//! own counters and wall time, and then rebuilds the set-up and the rep
//! from layer calls ([`crate::recon`]).

use crate::calib::{Probe, Timing};
use crate::recon::{self, Tracer};
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::{dir_bytes, RunCfg, Workload, JOBS, QUICK_BENCHES};
use mg_bench::cache::CacheCounters;
use mg_bench::journal::{self, Journal};
use mg_bench::{cache, BenchContext, BenchRows, Scheme, SweepCell, SweepSpec};
use mg_sim::MachineConfig;
use mg_workloads::{suite, BenchmarkSpec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `short-all-schemes` trace length: small enough that selection and
/// rewriting weigh as much as simulation.
const SHORT_TARGET_DYN: usize = 8_000;

/// Benchmarks per piece. Set-ups and reps run their grid in pieces of
/// this many benchmarks, each timed by a [`Probe`] between two kernel
/// passes: under a second each on the reference host, short enough for
/// the kernel to follow the host's speed.
const PIECE: usize = 6;

/// Row digests of the current tree, pinned so a run checks its outputs
/// against a reference rather than against itself. Order: fig1 grid, the
/// short grid, then the same for `--quick`.
const DIGEST_FIG1: u64 = 0xa61e_0cc4_48bc_4522;
const DIGEST_SHORT: u64 = 0xc4be_8478_5a6b_0ecb;
const DIGEST_FIG1_QUICK: u64 = 0xa206_be4c_d07b_2474;
const DIGEST_SHORT_QUICK: u64 = 0x3f33_2bf8_11ef_7d32;

/// One sweep's shape.
pub struct Grid {
    /// Benchmarks in seeded order.
    pub benches: Vec<BenchmarkSpec>,
    pub cells: Vec<SweepCell>,
    pub train: MachineConfig,
    /// `fig1-warm` keeps the on-disk context cache on.
    pub disk_cache: bool,
    pub expected: u64,
}

pub fn grid(w: Workload, seed: u64, quick: bool) -> Grid {
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    let mut benches = suite();
    if quick {
        benches.truncate(QUICK_BENCHES);
    }
    let (cells, expected) = match w {
        Workload::Fig1Cold | Workload::Fig1Warm => (
            vec![
                SweepCell::new(Scheme::NoMg, &base),
                SweepCell::new(Scheme::NoMg, &red),
                SweepCell::new(Scheme::StructAll, &red),
                SweepCell::new(Scheme::StructNone, &red),
                SweepCell::new(Scheme::SlackProfile, &red),
            ],
            if quick {
                DIGEST_FIG1_QUICK
            } else {
                DIGEST_FIG1
            },
        ),
        Workload::ShortAllSchemes => {
            for b in &mut benches {
                b.params.target_dyn = SHORT_TARGET_DYN;
            }
            (
                Scheme::ALL
                    .iter()
                    .map(|&s| SweepCell::new(s, &red))
                    .collect(),
                if quick {
                    DIGEST_SHORT_QUICK
                } else {
                    DIGEST_SHORT
                },
            )
        }
        Workload::ServeOpen => unreachable!("serve-open is not a sweep"),
    };
    // The seed only reorders the benchmarks: the work, and so the
    // numbers, stay comparable across seeds.
    Rng::new(seed).shuffle(&mut benches);
    Grid {
        benches,
        cells,
        train: red,
        disk_cache: w == Workload::Fig1Warm,
        expected,
    }
}

impl Grid {
    fn cell_count(&self) -> u64 {
        (self.benches.len() * self.cells.len()) as u64
    }

    /// The grid in pieces of [`PIECE`] benchmarks, with the journal
    /// directory of each piece under `journal_dir`.
    fn pieces<'a>(
        &'a self,
        journal_dir: &'a Path,
    ) -> impl Iterator<Item = (&'a [BenchmarkSpec], PathBuf)> + 'a {
        self.benches
            .chunks(PIECE)
            .enumerate()
            .map(move |(i, piece)| (piece, journal_dir.join(format!("piece-{i}"))))
    }

    fn spec(&self, benches: &[BenchmarkSpec], journal_dir: &Path) -> SweepSpec {
        SweepSpec::new(&self.train)
            .benches(benches.iter().cloned())
            .cells(self.cells.iter().cloned())
            .jobs(JOBS)
            .disk_cache(self.disk_cache)
            .quiet(true)
            .journal(true)
            .journal_dir(journal_dir)
    }

    /// Checks one sweep's rows: counts failed cells and compares the
    /// digest with the pinned one (a mismatch fails every cell).
    fn check(&self, rows: &[BenchRows], what: &str, rep: &mut Report) {
        let lines = rows.iter().flat_map(|r| {
            r.runs
                .iter()
                .enumerate()
                .map(|(j, c)| stats::row_line(&r.bench, j, c))
        });
        let digest = stats::digest(lines);
        let failed = rows
            .iter()
            .flat_map(|r| &r.runs)
            .filter(|c| c.is_err())
            .count() as u64;
        rep.attempted += self.cell_count();
        if digest == self.expected {
            rep.failed += failed;
        } else {
            rep.failed += self.cell_count();
            rep.error(format!(
                "{what}: row digest {digest:016x} != expected {:016x} ({failed} failed cells)",
                self.expected
            ));
        }
    }
}

/// One set-up: every benchmark's context built once from an empty cache,
/// which also checks that every input generates and runs. On
/// `fig1-warm` this fills the on-disk context cache the reps read.
/// Returns the time of each piece.
fn setup(grid: &Grid, probe: &mut Probe, rep: &mut Report) -> Vec<Timing> {
    if grid.disk_cache {
        let _ = std::fs::remove_dir_all(cache::CACHE_DIR);
    }
    cache::clear_memory();
    let mut timings = Vec::new();
    for piece in grid.benches.chunks(PIECE) {
        let (built, timing) = probe.time(|| {
            mg_bench::par_map(piece, JOBS, |_, b| {
                BenchContext::builder(b, &grid.train)
                    .disk_cache(grid.disk_cache)
                    .build()
                    .map(|_| ())
            })
        });
        for e in built.into_iter().filter_map(Result::err) {
            rep.error(format!("set-up: {e}"));
        }
        timings.push(timing);
    }
    timings
}

/// One rep through the harness.
struct HarnessRep {
    /// Every benchmark's row, in grid order.
    rows: Vec<BenchRows>,
    /// The time of each piece.
    timings: Vec<Timing>,
    cache: CacheCounters,
}

/// One timed rep through the harness, from an empty in-memory cache: a
/// sweep per piece, journaled under `journal_dir`.
fn harness_rep(
    grid: &Grid,
    journal_dir: &Path,
    probe: &mut Probe,
    rep: &mut Report,
) -> Option<HarnessRep> {
    cache::clear_memory();
    let before = cache::counters();
    let mut rows = Vec::with_capacity(grid.benches.len());
    let mut timings = Vec::new();
    for (piece, dir) in grid.pieces(journal_dir) {
        let spec = grid.spec(piece, &dir);
        match probe.time(|| spec.try_run()) {
            (Ok(result), timing) => {
                rows.extend(result.rows);
                timings.push(timing);
            }
            (Err(e), _) => {
                rep.error(format!("sweep refused to run: {e}"));
                return None;
            }
        }
    }
    Some(HarnessRep {
        rows,
        timings,
        cache: cache::counters().since(&before),
    })
}

/// Raw and scaled totals of a job run several times: each piece's median
/// over the runs, summed.
fn totals(runs: &[Vec<Timing>]) -> Timing {
    let sum = |f: fn(&Timing) -> f64| {
        let runs: Vec<Vec<f64>> = runs.iter().map(|r| r.iter().map(f).collect()).collect();
        stats::sum_of_medians(&runs)
    };
    Timing {
        raw_s: sum(|t| t.raw_s),
        scaled_s: sum(|t| t.scaled_s),
    }
}

fn raw_total(timings: &[Timing]) -> f64 {
    timings.iter().map(|t| t.raw_s).sum()
}

/// Runs a sweep workload; returns the span trace on a traced run.
pub fn run(cfg: &RunCfg, rep: &mut Report) -> Option<serde::Value> {
    let start = Instant::now();
    let grid = grid(cfg.workload, cfg.seed, cfg.quick);
    if cfg.trace {
        return Some(run_traced(&grid, rep));
    }
    let mut probe = Probe::new();
    let mut setups: Vec<Vec<Timing>> = Vec::new();
    while cfg.another_setup(setups.len(), setups.iter().map(|t| raw_total(t)).sum()) {
        setups.push(setup(&grid, &mut probe, rep));
    }

    let mut reps = Vec::new();
    let mut walls = Vec::new();
    let mut row_ms = Vec::new();
    let mut sp_rel_ipc = Vec::new();
    let mut last_journal: Option<PathBuf> = None;
    while cfg.another_rep(&walls, start.elapsed().as_secs_f64()) {
        let dir = PathBuf::from(format!("journal-{}", walls.len()));
        if let Some(prev) = last_journal.replace(dir.clone()) {
            let _ = std::fs::remove_dir_all(prev);
        }
        let done = harness_rep(&grid, &dir, &mut probe, rep)?;
        grid.check(&done.rows, &format!("rep {}", walls.len()), rep);
        walls.push(raw_total(&done.timings));
        sp_rel_ipc.push(fig1_sp_rel_ipc(&grid, &done.rows));
        row_ms.extend(done.rows.iter().map(|r| 1e3 * r.wall.as_secs_f64()));
        reps.push(done.timings);
    }
    let setup = totals(&setups);
    let latency = totals(&reps);
    rep.set("setup_s", setup.scaled_s);
    rep.set("latency_ms", 1e3 * latency.scaled_s);
    rep.extra("setup_raw_s", setup.raw_s, "s");
    rep.extra("latency_raw_ms", 1e3 * latency.raw_s, "ms");
    rep.extra("host_slowdown", probe.slowdown(), "ratio");
    rep.extra("setups", setups.len() as f64, "count");
    rep.extra("reps", walls.len() as f64, "count");
    let (q1, q3) = stats::quartiles(&walls);
    rep.extra("sweep_p50_ms", 1e3 * stats::median(&walls), "ms");
    rep.extra("sweep_q1_ms", 1e3 * q1, "ms");
    rep.extra("sweep_q3_ms", 1e3 * q3, "ms");
    // Per-row latency: one sample per benchmark per rep.
    rep.latencies("row", &row_ms);
    if let Some(Some(v)) = sp_rel_ipc.first() {
        rep.extra("sp_rel_ipc", *v, "ratio");
        rep.check(sp_rel_ipc.iter().all(|x| x == &Some(*v)), || {
            "sp_rel_ipc differs between reps".into()
        });
    }
    if grid.disk_cache {
        if let Some(dir) = &last_journal {
            resume(&grid, dir, rep);
        }
    }
    None
}

/// Replays a finished rep from its journals: every row must come back
/// from disk, bit-identical.
fn resume(grid: &Grid, journal_dir: &Path, rep: &mut Report) {
    cache::clear_memory();
    let t = Instant::now();
    let mut rows = Vec::with_capacity(grid.benches.len());
    let mut replayed = 0;
    for (piece, dir) in grid.pieces(journal_dir) {
        match grid.spec(piece, &dir).resume(true).try_run() {
            Ok(result) => {
                replayed += result.summary.replayed;
                rows.extend(result.rows);
            }
            Err(e) => return rep.error(format!("resume refused to run: {e}")),
        }
    }
    rep.extra("resume_ms", 1e3 * t.elapsed().as_secs_f64(), "ms");
    rep.check(replayed == grid.benches.len(), || {
        format!("resume replayed {replayed} of {} rows", grid.benches.len())
    });
    grid.check(&rows, "resume", rep);
}

/// The paper's headline on a fig1 grid: mean over benchmarks of
/// Slack-Profile IPC on the reduced machine over no-mini-graph IPC on
/// the baseline (the paper reports 1.02; the model is unvalidated
/// against hardware). Summed in benchmark-name order, so the seeded row
/// order cannot move its last digit.
fn fig1_sp_rel_ipc(grid: &Grid, rows: &[BenchRows]) -> Option<f64> {
    if grid.cells.len() != 5 {
        return None;
    }
    let mut rows: Vec<&BenchRows> = rows.iter().collect();
    rows.sort_by(|a, b| a.bench.cmp(&b.bench));
    let ratios: Option<Vec<f64>> = rows
        .iter()
        .map(|r| Some(r.runs[4].as_ref().ok()?.ipc / r.runs[0].as_ref().ok()?.ipc))
        .collect();
    ratios.map(|v| mg_bench::mean(&v))
}

/// One set-up and one harness rep untraced, then the same work rebuilt
/// from layer calls with spans.
fn run_traced(grid: &Grid, rep: &mut Report) -> serde::Value {
    let mut probe = Probe::new();
    setup(grid, &mut probe, rep);
    let harness_dir = Path::new("journal-harness");
    let Some(done) = harness_rep(grid, harness_dir, &mut probe, rep) else {
        return serde::Value::Null;
    };
    grid.check(&done.rows, "harness rep", rep);
    let untraced = Duration::from_secs_f64(raw_total(&done.timings));
    let c = done.cache;
    rep.set("cache.mem_hits", c.mem_hits as f64);
    rep.set("cache.disk_hits", c.disk_hits as f64);
    rep.set("cache.misses", c.misses as f64);
    rep.set(
        "cache.dir_bytes",
        dir_bytes(Path::new(cache::CACHE_DIR)) as f64,
    );
    for name in [
        "serve.max_rate_jps",
        "serve.dedup_rate",
        "serve.executions",
        "serve.worker_busy_share",
        "serve.wire_share",
        "serve.queue_wait_share",
    ] {
        rep.set(name, 0.0);
    }

    let mut tracer = Tracer::new();
    let (built, _) = tracer.phase("setup", &grid.benches, |rec, counts, _, b| {
        recon::cold_context(rec, counts, b, &grid.train).map(|_| ())
    });
    for e in built.into_iter().filter_map(Result::err) {
        rep.error(format!("traced set-up: {e}"));
    }

    // The rep: contexts (from the disk cache on fig1-warm), cells, and
    // one journal record per benchmark.
    let repr = journal::sweep_repr(
        &grid.train,
        &mg_bench::InputSel::Primary,
        &mg_bench::InputSel::Primary,
        &grid.cells,
    );
    let row_keys = grid
        .benches
        .iter()
        .map(|b| journal::row_key(b, &repr))
        .collect();
    let trace_dir = Path::new("journal-trace");
    let jrnl = Journal::new(trace_dir, cache::stable_hash64(repr.as_bytes()), row_keys);
    cache::clear_memory();
    let (rows, traced) = tracer.phase("rep", &grid.benches, |rec, counts, i, b| {
        let ctx = if grid.disk_cache {
            recon::cached_context(rec, b, &grid.train)
        } else {
            recon::cold_context(rec, counts, b, &grid.train)
        };
        let runs = match ctx {
            Ok(ctx) => grid
                .cells
                .iter()
                .enumerate()
                .map(|(j, cell)| recon::run_cell(rec, counts, &ctx, b, cell, j))
                .collect(),
            Err(e) => grid.cells.iter().map(|_| Err(e.clone())).collect(),
        };
        let row = BenchRows {
            bench: b.name.clone(),
            runs,
            wall: Duration::ZERO,
            cache: None,
            replayed: false,
            retries: 0,
        };
        rec.time("journal.store", || jrnl.store_row(i, &row));
        row
    });
    grid.check(&rows, "traced rep", rep);
    let (loaded, _) = tracer.phase("resume", &grid.benches, |rec, _, i, _| {
        rec.time("journal.load", || jrnl.load_row(i, grid.cells.len()))
    });
    let replayed = loaded
        .iter()
        .zip(&rows)
        .filter(|(l, r)| {
            l.as_ref().map(|l| format!("{:?}", l.runs)) == Some(format!("{:?}", r.runs))
        })
        .count();
    rep.check(replayed == rows.len(), || {
        format!("journal replayed {replayed} of {} rows intact", rows.len())
    });
    rep.set("journal.rows", rows.len() as f64);
    rep.set("journal.dir_bytes", dir_bytes(trace_dir) as f64);
    tracer.report(rep, traced.as_secs_f64() / untraced.as_secs_f64());
    rep.extra("untraced_rep_ms", 1e3 * untraced.as_secs_f64(), "ms");
    rep.extra("traced_rep_ms", 1e3 * traced.as_secs_f64(), "ms");
    tracer.spans_json()
}
