//! The `serve-open` workload: an in-process `mg-serve` ([`WORKERS`]
//! workers, disk cache off) under an open loop of seeded Poisson arrivals
//! on one connection.
//!
//! Set-up checks every input, binds the server and warms its context
//! cache with one job per benchmark. An untraced run then offers the base
//! rate for most of its window; a traced run climbs the rate ladder
//! [`RATES`] instead. Each step sends its requests on schedule from one
//! generator thread while the main thread reads the replies; the next
//! step starts once the previous one has drained, and a `Stats` request
//! between steps gives the server's own view of each step. Latency runs
//! from the scheduled send time to `Done`.

use crate::calib::{Probe, Timing};
use crate::recon::{self, Tracer};
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::{RunCfg, JOBS, QUICK_BENCHES};
use mg_bench::journal::Journal;
use mg_bench::{cache, BenchContext, BenchError, BenchRows, Scheme, SchemeRun};
use mg_obs::{HistSnapshot, TelemetrySnapshot};
use mg_serve::metrics;
use mg_serve::protocol::{decode_reply, request_line, stats_line, Reply, Request};
use mg_serve::{Client, JobSpec, ServeConfig, ServeStats, Server};
use mg_sim::MachineConfig;
use mg_workloads::BenchmarkSpec;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server's worker threads: two, as mg-serve runs by default on the
/// 2-vCPU reference machine, so the queue and the coalescing store are
/// shared between workers. At the base rate the workers are mostly idle
/// and rarely compete for the CPU.
pub const WORKERS: usize = 2;

/// Offered rates, jobs/s, frozen here and never calibrated at run time.
/// The first is the base rate an untraced run offers in its open loop:
/// about a quarter of the reference machine's capacity, where
/// latency does not swing with the host's speed (at 25 jobs/s, about
/// half the capacity of a one-worker server, queueing amplified host
/// noise into a 20% run-to-run spread).
/// The rest, 1.2x apart, bracket the knee (about 52 jobs/s with
/// [`WORKERS`] workers) for the traced run's ladder.
pub const RATES: [f64; 8] = [12.0, 25.0, 30.0, 36.0, 43.0, 52.0, 62.0, 75.0];
/// Share of `--seconds` an untraced run spends in its open loop; set-ups
/// and the batch re-check take most of the rest.
const OPEN_LOOP_SHARE: f64 = 0.7;
/// Seconds per rung of the traced run's ladder.
const RUNG_S: f64 = 2.0;
const QUICK_S: f64 = 0.5;
pub const TARGET_DYN: u64 = 30_000;
/// Share of requests that repeat one of the last [`HISTORY`] requests.
const REPEAT_SHARE: f64 = 0.2;
const HISTORY: usize = 64;
/// Share of jobs asking for `[reduced, baseline]` instead of `[reduced]`.
const TWO_MACHINE_SHARE: f64 = 0.25;
/// A step meets the limits when its tail latency and its generator
/// lateness stay under these and nothing fails.
const LATENCY_LIMIT_MS: f64 = 150.0;
const LATE_LIMIT_MS: f64 = 5.0;
/// Distinct jobs re-run through `BenchContext::try_run` after a run.
const RECHECK_JOBS: usize = 100;
/// Large enough that no ladder step is ever refused for a full queue.
const QUEUE_CAP: usize = 4096;
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One ladder step: request `i` is due `due[i]` after the step starts.
pub struct Step {
    pub rate: f64,
    pub due: Vec<Duration>,
    pub requests: Vec<Request>,
}

fn new_job(rng: &mut Rng, benches: &[String]) -> Request {
    let mut schemes = Scheme::ALL.to_vec();
    rng.shuffle(&mut schemes);
    schemes.truncate(1 + rng.below(3));
    let machines: &[&str] = if rng.unit() < TWO_MACHINE_SHARE {
        &["reduced", "baseline"]
    } else {
        &["reduced"]
    };
    Request {
        id: String::new(),
        bench: benches[rng.below(benches.len())].clone(),
        schemes: schemes.iter().map(|s| s.name().to_string()).collect(),
        machines: machines.iter().map(|m| m.to_string()).collect(),
        target_dyn: Some(TARGET_DYN),
        deadline_ms: None,
        resume_from: None,
    }
}

/// The whole schedule, a pure function of its arguments: `(rate, seconds)`
/// per step.
pub fn plan(seed: u64, shape: &[(f64, f64)], benches: &[String]) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    let mut history: Vec<Request> = Vec::new();
    let mut next_id = 0usize;
    shape
        .iter()
        .map(|&(rate, secs)| {
            let n = ((rate * secs).round() as usize).max(1);
            let mut t = 0.0;
            let mut step = Step {
                rate,
                due: Vec::with_capacity(n),
                requests: Vec::with_capacity(n),
            };
            for _ in 0..n {
                t += -(1.0 - rng.unit()).ln() / rate;
                let mut req = if !history.is_empty() && rng.unit() < REPEAT_SHARE {
                    history[rng.below(history.len())].clone()
                } else {
                    new_job(&mut rng, benches)
                };
                req.id = format!("q{next_id}");
                next_id += 1;
                if history.len() == HISTORY {
                    history.remove(0);
                }
                history.push(req.clone());
                step.due.push(Duration::from_secs_f64(t));
                step.requests.push(req);
            }
            step
        })
        .collect()
}

/// What one request saw.
#[derive(Clone, Default)]
struct Outcome {
    due: Option<Instant>,
    sent: Option<Instant>,
    accepted: Option<Instant>,
    done: Option<Instant>,
    rows: Vec<(u64, Result<SchemeRun, BenchError>)>,
    dedup: bool,
    rejected: Option<String>,
}

impl Outcome {
    fn latency_ms(&self) -> Option<f64> {
        Some(1e3 * (self.done? - self.due?).as_secs_f64())
    }

    fn rows_text(&self) -> String {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|(cell, _)| *cell);
        rows_text(rows.iter().map(|(_, r)| r))
    }
}

/// A job's rows in cell order, rendered exactly (`Debug` prints every
/// `f64` in shortest round-trip form).
fn rows_text<'a>(rows: impl Iterator<Item = &'a Result<SchemeRun, BenchError>>) -> String {
    format!("{:?}", rows.collect::<Vec<_>>())
}

struct Ladder {
    outcomes: Vec<Outcome>,
    /// Server telemetry before each step and after the last.
    stats: Vec<TelemetrySnapshot>,
    wall: Duration,
}

/// Drives the ladder over one connection: a generator thread writes
/// requests on schedule, this thread reads and demultiplexes replies.
fn run_ladder(addr: &str, steps: &[Step]) -> Result<Ladder, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let step_of: Vec<usize> = steps
        .iter()
        .enumerate()
        .flat_map(|(k, s)| std::iter::repeat_n(k, s.requests.len()))
        .collect();
    let times = Mutex::new(vec![(None, None); step_of.len()]);
    let (drained_tx, drained_rx) = mpsc::channel::<usize>();
    let start = Instant::now();
    let (read, sent) = std::thread::scope(|s| {
        let (writer, times) = (&mut writer, &times);
        let generator = s.spawn(move || -> Result<(), String> {
            let mut send = |line: String| {
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("send: {e}"))
            };
            let mut idx = 0;
            for (k, step) in steps.iter().enumerate() {
                send(stats_line(&format!("s{k}")))?;
                let t0 = Instant::now();
                for (due, req) in step.due.iter().zip(&step.requests) {
                    let due = t0 + *due;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    times.lock().expect("times lock")[idx] = (Some(due), Some(Instant::now()));
                    send(request_line(req))?;
                    idx += 1;
                }
                drained_rx
                    .recv()
                    .map_err(|_| "the reply reader stopped".to_string())?;
            }
            send(stats_line(&format!("s{}", steps.len())))
        });
        let read = read_replies(&mut reader, steps, &step_of, drained_tx);
        if read.is_err() {
            // Unblock a generator still writing into a dead connection.
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let sent = generator
            .join()
            .unwrap_or_else(|_| Err("the generator panicked".into()));
        (read, sent)
    });
    let (mut outcomes, stats) = read?;
    sent?;
    for (o, (due, sent)) in outcomes
        .iter_mut()
        .zip(times.into_inner().expect("times lock"))
    {
        o.due = due;
        o.sent = sent;
    }
    Ok(Ladder {
        outcomes,
        stats,
        wall: start.elapsed(),
    })
}

fn read_replies(
    reader: &mut BufReader<TcpStream>,
    steps: &[Step],
    step_of: &[usize],
    drained: mpsc::Sender<usize>,
) -> Result<(Vec<Outcome>, Vec<TelemetrySnapshot>), String> {
    let mut outcomes = vec![Outcome::default(); step_of.len()];
    let mut left: Vec<usize> = steps.iter().map(|s| s.requests.len()).collect();
    let mut stats: Vec<Option<TelemetrySnapshot>> = vec![None; steps.len() + 1];
    let mut line = String::new();
    let index = |id: &str, prefix: char, n: usize| -> Result<usize, String> {
        id.strip_prefix(prefix)
            .and_then(|i| i.parse().ok())
            .filter(|&i| i < n)
            .ok_or_else(|| format!("reply for unknown id {id:?}"))
    };
    while left.iter().any(|&n| n > 0) || stats.iter().any(Option::is_none) {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let now = Instant::now();
        let mut finished = None;
        match decode_reply(line.trim_end())? {
            Reply::Hello { .. } => {}
            Reply::Accepted { id, .. } => {
                outcomes[index(&id, 'q', step_of.len())?].accepted = Some(now)
            }
            Reply::Row { id, cell, run, .. } => outcomes[index(&id, 'q', step_of.len())?]
                .rows
                .push((cell, Ok(run))),
            Reply::CellError {
                id, cell, error, ..
            } => outcomes[index(&id, 'q', step_of.len())?]
                .rows
                .push((cell, Err(error))),
            Reply::Done { id, dedup, .. } => {
                let i = index(&id, 'q', step_of.len())?;
                outcomes[i].done = Some(now);
                outcomes[i].dedup = dedup;
                finished = Some(i);
            }
            Reply::Rejected {
                id, code, detail, ..
            } => {
                let i = index(&id, 'q', step_of.len())?;
                outcomes[i].rejected = Some(format!("{code:?}: {detail}"));
                finished = Some(i);
            }
            Reply::Stats { id, telemetry, .. } => {
                stats[index(&id, 's', steps.len() + 1)?] = Some(telemetry);
            }
        }
        if let Some(i) = finished {
            let k = step_of[i];
            left[k] -= 1;
            if left[k] == 0 {
                let _ = drained.send(k);
            }
        }
    }
    Ok((outcomes, stats.into_iter().map(Option::unwrap).collect()))
}

/// An in-process server with warm contexts.
struct Running {
    addr: String,
    thread: JoinHandle<ServeStats>,
}

fn stop(server: Running) {
    mg_bench::request_shutdown();
    let _ = server.thread.join();
    mg_bench::clear_shutdown();
}

/// Returns the heap memory the program freed to the operating system, so
/// that what stays resident does not depend on which allocator arena
/// freed it.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointers, locks each arena
        // it walks, and only releases pages of free chunks.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One set-up: binds a server and warms its context cache, which must be
/// empty, with one `no-minigraphs` job per benchmark, pipelined on one
/// connection. This also checks that every input generates and runs.
fn start(benches: &[BenchmarkSpec]) -> Result<Running, String> {
    let cfg = ServeConfig {
        workers: WORKERS,
        disk_cache: false,
        queue_cap: QUEUE_CAP,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let running = Running {
        addr: server.local_addr().to_string(),
        thread: std::thread::spawn(move || server.run()),
    };
    let warm = || -> Result<(), String> {
        let mut client = Client::connect(&running.addr)?;
        for (i, b) in benches.iter().enumerate() {
            client.submit(&Request {
                id: format!("w{i}"),
                bench: b.name.clone(),
                schemes: vec![Scheme::NoMg.name().to_string()],
                machines: vec!["reduced".to_string()],
                target_dyn: Some(TARGET_DYN),
                deadline_ms: None,
                resume_from: None,
            })?;
        }
        let mut left = benches.len();
        while left > 0 {
            match client.read_reply()? {
                Reply::Done { .. } => left -= 1,
                Reply::CellError { id, error, .. } => return Err(format!("warm {id}: {error}")),
                Reply::Rejected { id, detail, .. } => return Err(format!("warm {id}: {detail}")),
                _ => {}
            }
        }
        Ok(())
    };
    match warm() {
        Ok(()) => Ok(running),
        Err(e) => {
            stop(running);
            Err(e)
        }
    }
}

fn specs(quick: bool) -> Vec<BenchmarkSpec> {
    let mut benches = mg_workloads::suite();
    if quick {
        benches.truncate(QUICK_BENCHES);
    }
    for b in &mut benches {
        b.params.target_dyn = TARGET_DYN as usize;
    }
    benches
}

/// Runs `serve-open`; returns the span trace on a traced run.
pub fn run(cfg: &RunCfg, rep: &mut Report) -> Option<serde::Value> {
    let benches = specs(cfg.quick);
    let names: Vec<String> = benches.iter().map(|b| b.name.clone()).collect();
    let shape: Vec<(f64, f64)> = match (cfg.quick, cfg.trace) {
        (true, true) => RATES[..2].iter().map(|&r| (r, QUICK_S)).collect(),
        (true, false) => vec![(RATES[0], QUICK_S)],
        (false, true) => RATES.iter().map(|&r| (r, RUNG_S)).collect(),
        (false, false) => vec![(RATES[0], OPEN_LOOP_SHARE * cfg.seconds)],
    };
    let steps = plan(cfg.seed, &shape, &names);
    let mut probe = Probe::new();
    let mut setups: Vec<Timing> = Vec::new();
    let mut server: Option<Running> = None;
    while cfg.another_setup(setups.len(), setups.iter().map(|t| t.raw_s).sum()) {
        if let Some(previous) = server.take() {
            stop(previous);
        }
        cache::clear_memory();
        // A new server's worker may allocate from another heap arena than
        // the last one's; without this, the freed contexts of earlier
        // set-ups stay resident in one run and not in the next.
        release_freed_memory();
        match probe.time(|| start(&benches)) {
            (Ok(running), timing) => {
                server = Some(running);
                setups.push(timing);
            }
            (Err(e), _) => {
                rep.error(format!("server set-up: {e}"));
                return None;
            }
        }
    }
    let median = |f: fn(&Timing) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    rep.set("setup_s", median(|t| t.scaled_s));
    rep.extra("setup_raw_s", median(|t| t.raw_s), "s");
    rep.extra("host_slowdown", probe.slowdown(), "ratio");
    rep.extra("setups", setups.len() as f64, "count");
    let server = server.expect("at least one set-up");
    let before = cache::counters();
    let ladder = run_ladder(&server.addr, &steps);
    let cache_delta = cache::counters().since(&before);
    stop(server);
    let ladder = match ladder {
        Ok(ladder) => ladder,
        Err(e) => {
            rep.error(format!("ladder: {e}"));
            return None;
        }
    };
    let jobs = check_outcomes(&steps, &ladder, rep);
    let summaries = summarize(&steps, &ladder, rep);
    rep.set("latency_ms", summaries[0].p50_ms);
    if !cfg.trace {
        let mut rng = Rng::new(cfg.seed ^ 0x5eed);
        let mut sample: Vec<&Job> = jobs.iter().collect();
        rng.shuffle(&mut sample);
        sample.truncate(RECHECK_JOBS);
        recheck(&sample, rep);
        return None;
    }
    rep.set("cache.mem_hits", cache_delta.mem_hits as f64);
    rep.set("cache.disk_hits", cache_delta.disk_hits as f64);
    rep.set("cache.misses", cache_delta.misses as f64);
    rep.set(
        "cache.dir_bytes",
        crate::dir_bytes(Path::new(cache::CACHE_DIR)) as f64,
    );
    serve_layer(&steps, &ladder, &summaries, rep);
    Some(run_traced(&jobs, rep))
}

/// A distinct job that ran, with the rows the server streamed for it.
struct Job {
    /// Position among the distinct jobs.
    index: usize,
    spec: JobSpec,
    key: u64,
    rows: String,
}

/// Jobs grouped by benchmark, so each group shares one context.
fn by_bench<'a>(jobs: &[&'a Job]) -> Vec<Vec<&'a Job>> {
    let mut groups: BTreeMap<&str, Vec<&Job>> = BTreeMap::new();
    for job in jobs {
        groups.entry(&job.spec.bench.name).or_default().push(job);
    }
    groups.into_values().collect()
}

/// Counts attempts and failures, checks that every repeated request got
/// the first copy's rows, and returns the distinct jobs.
fn check_outcomes(steps: &[Step], ladder: &Ladder, rep: &mut Report) -> Vec<Job> {
    let red = MachineConfig::reduced();
    let mut first: BTreeMap<u64, usize> = BTreeMap::new();
    let mut jobs: Vec<Job> = Vec::new();
    let requests = steps.iter().flat_map(|s| &s.requests);
    for (req, o) in requests.zip(&ladder.outcomes) {
        rep.attempted += 1;
        let spec = match JobSpec::from_request(req, &red) {
            Ok(spec) => spec,
            Err((code, detail)) => {
                rep.failed += 1;
                rep.error(format!("{}: invalid request ({code:?}: {detail})", req.id));
                continue;
            }
        };
        let ok = o.done.is_some()
            && o.rejected.is_none()
            && o.rows.len() == spec.cells.len()
            && o.rows.iter().all(|(_, r)| r.is_ok());
        if !ok {
            rep.failed += 1;
            rep.error(format!(
                "{}: not served ({})",
                req.id,
                o.rejected.as_deref().unwrap_or("missing or failed rows")
            ));
            continue;
        }
        let key = spec.content_key();
        let rows = o.rows_text();
        match first.get(&key) {
            Some(&j) if jobs[j].rows != rows => {
                rep.failed += 1;
                rep.error(format!(
                    "{}: rows differ from the first identical request",
                    req.id
                ));
            }
            Some(_) => {}
            None => {
                first.insert(key, jobs.len());
                let index = jobs.len();
                jobs.push(Job {
                    index,
                    spec,
                    key,
                    rows,
                });
            }
        }
    }
    jobs
}

/// Re-runs jobs through `BenchContext::try_run`, one freshly built
/// context per benchmark; every row must match what the server
/// streamed. Returns the wall time.
fn recheck(jobs: &[&Job], rep: &mut Report) -> Duration {
    let red = MachineConfig::reduced();
    let groups = by_bench(jobs);
    let t = Instant::now();
    let rerun = mg_bench::par_map(&groups, JOBS, |_, group| {
        let ctx = BenchContext::builder(&group[0].spec.bench, &red)
            .cache(false)
            .build();
        group
            .iter()
            .map(|job| match &ctx {
                Ok(ctx) => {
                    let rows: Vec<_> = job
                        .spec
                        .cells
                        .iter()
                        .map(|c| ctx.try_run(c.scheme, &c.machine))
                        .collect();
                    rows_text(rows.iter())
                }
                Err(e) => e.to_string(),
            })
            .collect::<Vec<String>>()
    });
    let wall = t.elapsed();
    for (job, rows) in groups.iter().flatten().zip(rerun.iter().flatten()) {
        if *rows != job.rows {
            rep.failed += 1;
            rep.error(format!(
                "{} ({:016x}): batch re-run differs from the streamed rows",
                job.spec.bench.name, job.key
            ));
        }
    }
    wall
}

/// One step's numbers.
struct StepSummary {
    rate: f64,
    p50_ms: f64,
    tail_ms: f64,
    late_ms: f64,
    failed: usize,
    /// Server-side (admission to `Done`) and queue-wait histograms.
    job_us: HistSnapshot,
    wait_us: HistSnapshot,
}

impl StepSummary {
    fn meets_limits(&self) -> bool {
        self.failed == 0 && self.tail_ms <= LATENCY_LIMIT_MS && self.late_ms <= LATE_LIMIT_MS
    }
}

/// The change of one histogram between two snapshots.
fn hist_delta(before: &TelemetrySnapshot, after: &TelemetrySnapshot, name: &str) -> HistSnapshot {
    let a = after.hists.get(name).cloned().unwrap_or_default();
    let Some(b) = before.hists.get(name) else {
        return a;
    };
    HistSnapshot {
        sub_bits: a.sub_bits,
        buckets: a
            .buckets
            .iter()
            .zip(b.buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(x, y)| x - y)
            .collect(),
        count: a.count - b.count,
        sum: a.sum - b.sum,
        max: a.max,
    }
}

fn tail_or_max(v: &[f64]) -> f64 {
    stats::tail(v).map_or_else(|| v.iter().copied().fold(0.0, f64::max), |(t, _)| t)
}

fn summarize(steps: &[Step], ladder: &Ladder, rep: &mut Report) -> Vec<StepSummary> {
    let mut offset = 0;
    let mut out = Vec::new();
    for (k, step) in steps.iter().enumerate() {
        let outs = &ladder.outcomes[offset..offset + step.requests.len()];
        offset += step.requests.len();
        let lat: Vec<f64> = outs.iter().filter_map(Outcome::latency_ms).collect();
        let late: Vec<f64> = outs
            .iter()
            .filter_map(|o| Some(1e3 * (o.sent? - o.due?).as_secs_f64()))
            .collect();
        let accept: Vec<f64> = outs
            .iter()
            .filter_map(|o| Some(1e3 * (o.accepted? - o.due?).as_secs_f64()))
            .collect();
        let (before, after) = (&ladder.stats[k], &ladder.stats[k + 1]);
        let s = StepSummary {
            rate: step.rate,
            p50_ms: stats::median(&lat),
            tail_ms: tail_or_max(&lat),
            late_ms: tail_or_max(&late),
            failed: outs.len() - lat.len(),
            job_us: hist_delta(before, after, metrics::JOB_US),
            wait_us: hist_delta(before, after, metrics::QUEUE_WAIT_US),
        };
        let r = step.rate;
        rep.extra(format!("serve.requests.r{r}"), outs.len() as f64, "count");
        rep.extra(format!("serve.p50_ms.r{r}"), s.p50_ms, "ms");
        rep.extra(format!("serve.tail_ms.r{r}"), s.tail_ms, "ms");
        rep.extra(format!("serve.gen_late_ms.r{r}"), s.late_ms, "ms");
        if k == 0 {
            rep.latencies("job", &lat);
            rep.extra("serve.accept_p50_ms", stats::median(&accept), "ms");
            rep.extra(
                "serve.job_p50_ms",
                s.job_us.quantile(0.5) as f64 / 1e3,
                "ms",
            );
            rep.extra(
                "serve.job_p99_ms",
                s.job_us.quantile(0.99) as f64 / 1e3,
                "ms",
            );
            rep.extra(
                "serve.queue_wait_p99_ms",
                s.wait_us.quantile(0.99) as f64 / 1e3,
                "ms",
            );
            rep.extra(
                "serve.wire_p50_ms",
                s.p50_ms - s.job_us.quantile(0.5) as f64 / 1e3,
                "ms",
            );
        }
        out.push(s);
    }
    out
}

/// The highest offered rate at which that step and every lower one met
/// the limits (0 when the base step already misses them).
fn knee(summaries: &[StepSummary]) -> f64 {
    summaries
        .iter()
        .take_while(|s| s.meets_limits())
        .last()
        .map_or(0.0, |s| s.rate)
}

/// The `serve.*` per-layer metrics.
fn serve_layer(steps: &[Step], ladder: &Ladder, summaries: &[StepSummary], rep: &mut Report) {
    let (first, last) = (&ladder.stats[0], &ladder.stats[steps.len()]);
    let counter = |name: &str| (last.counter(name) - first.counter(name)) as f64;
    let done: Vec<&Outcome> = ladder
        .outcomes
        .iter()
        .filter(|o| o.done.is_some())
        .collect();
    let dedup = done.iter().filter(|o| o.dedup).count();
    rep.set("serve.max_rate_jps", knee(summaries));
    rep.set("serve.dedup_rate", dedup as f64 / done.len().max(1) as f64);
    rep.set("serve.executions", counter(metrics::JOBS_COMPLETED));
    rep.set(
        "serve.worker_busy_share",
        counter(metrics::WORKER_BUSY_US) / (1e6 * ladder.wall.as_secs_f64() * WORKERS as f64),
    );
    let base = &summaries[0];
    let job_p50_ms = base.job_us.quantile(0.5) as f64 / 1e3;
    rep.set("serve.wire_share", (base.p50_ms - job_p50_ms) / base.p50_ms);
    let offset = steps[0].requests.len();
    let base_lat: Vec<f64> = ladder.outcomes[..offset]
        .iter()
        .filter_map(Outcome::latency_ms)
        .collect();
    let mean_lat = base_lat.iter().sum::<f64>() / base_lat.len().max(1) as f64;
    rep.set(
        "serve.queue_wait_share",
        base.wait_us.mean() / 1e3 / mean_lat,
    );
}

/// Replays the distinct jobs twice — through `BenchContext::try_run` and
/// through the layer calls with spans — and checks both against the
/// streamed rows. Both replays build each benchmark's context once, as
/// the server's set-up did.
fn run_traced(jobs: &[Job], rep: &mut Report) -> serde::Value {
    let all: Vec<&Job> = jobs.iter().collect();
    let untraced = recheck(&all, rep);
    let groups = by_bench(&all);

    let mut tracer = Tracer::new();
    let red = MachineConfig::reduced();
    let trace_dir = Path::new("journal-trace");
    let jrnl = Journal::new(trace_dir, 0, jobs.iter().map(|j| j.key).collect());
    let (rows, traced) = tracer.phase("jobs", &groups, |rec, counts, _, group| {
        let bench = &group[0].spec.bench;
        let ctx = recon::cold_context(rec, counts, bench, &red);
        group
            .iter()
            .map(|job| {
                let cells = &job.spec.cells;
                let runs: Vec<Result<SchemeRun, BenchError>> = match &ctx {
                    Ok(ctx) => cells
                        .iter()
                        .enumerate()
                        .map(|(c, cell)| recon::run_cell(rec, counts, ctx, bench, cell, c))
                        .collect(),
                    Err(e) => cells.iter().map(|_| Err(e.clone())).collect(),
                };
                let row = BenchRows {
                    bench: bench.name.clone(),
                    runs,
                    wall: Duration::ZERO,
                    cache: None,
                    replayed: false,
                    retries: 0,
                };
                rec.time("journal.store", || jrnl.store_row(job.index, &row));
                rows_text(row.runs.iter()) == job.rows
            })
            .collect::<Vec<bool>>()
    });
    let mismatched = rows.iter().flatten().filter(|same| !**same).count();
    rep.check(mismatched == 0, || {
        format!("{mismatched} traced job replays differ from the streamed rows")
    });
    let (loaded, _) = tracer.phase("resume", &all, |rec, _, _, job| {
        let cells = job.spec.cells.len();
        rec.time("journal.load", || jrnl.load_row(job.index, cells))
            .is_some_and(|r| rows_text(r.runs.iter()) == job.rows)
    });
    let intact = loaded.iter().filter(|ok| **ok).count();
    rep.check(intact == jobs.len(), || {
        format!("journal replayed {intact} of {} jobs intact", jobs.len())
    });
    rep.set("journal.rows", jobs.len() as f64);
    rep.set("journal.dir_bytes", crate::dir_bytes(trace_dir) as f64);
    tracer.report(rep, traced.as_secs_f64() / untraced.as_secs_f64());
    rep.extra("untraced_replay_ms", 1e3 * untraced.as_secs_f64(), "ms");
    rep.extra("traced_replay_ms", 1e3 * traced.as_secs_f64(), "ms");
    tracer.spans_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        mg_workloads::suite().into_iter().map(|b| b.name).collect()
    }

    fn render(steps: &[Step]) -> String {
        steps
            .iter()
            .map(|s| format!("{}:{:?}:{:?}", s.rate, s.due, s.requests))
            .collect()
    }

    fn ladder() -> Vec<(f64, f64)> {
        RATES.iter().map(|&r| (r, RUNG_S)).collect()
    }

    #[test]
    fn schedule_and_mix_are_a_pure_function_of_the_seed() {
        let a = plan(11, &ladder(), &names());
        assert_eq!(render(&a), render(&plan(11, &ladder(), &names())));
        assert_ne!(render(&a), render(&plan(12, &ladder(), &names())));
        let rates: Vec<f64> = a.iter().map(|s| s.rate).collect();
        assert_eq!(rates, RATES.to_vec());
        assert_eq!(a[0].requests.len(), (RATES[0] * RUNG_S) as usize);
        assert_eq!(plan(1, &[(25.0, 20.0)], &names())[0].requests.len(), 500);
    }

    #[test]
    fn arrivals_follow_the_offered_rate() {
        let steps = plan(3, &[(90.0, 60.0)], &names());
        let base = &steps[0];
        let span = base.due.last().unwrap().as_secs_f64();
        let rate = base.requests.len() as f64 / span;
        assert!((rate - 90.0).abs() < 9.0, "{rate}");
        assert!(base.due.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn job_mix_matches_its_shares() {
        let steps = plan(5, &[(90.0, 60.0)], &names());
        let reqs: Vec<&Request> = steps.iter().flat_map(|s| &s.requests).collect();
        let n = reqs.len() as f64;
        let keys: Vec<String> = reqs
            .iter()
            .map(|r| format!("{}{:?}{:?}", r.bench, r.schemes, r.machines))
            .collect();
        // Repeats come from the recent history; equal jobs further apart
        // are chance collisions of independent draws.
        let repeats = (0..keys.len())
            .filter(|&i| keys[i.saturating_sub(HISTORY)..i].contains(&keys[i]))
            .count() as f64;
        assert!((repeats / n - REPEAT_SHARE).abs() < 0.03, "{}", repeats / n);
        let two = reqs.iter().filter(|r| r.machines.len() == 2).count() as f64;
        assert!((two / n - TWO_MACHINE_SHARE).abs() < 0.04, "{}", two / n);
        assert!(reqs.iter().all(|r| (1..=3).contains(&r.schemes.len())));
        let red = MachineConfig::reduced();
        assert!(reqs.iter().all(|r| JobSpec::from_request(r, &red).is_ok()));
        let ids: std::collections::BTreeSet<&str> = reqs.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), reqs.len(), "ids are unique");
    }
}
