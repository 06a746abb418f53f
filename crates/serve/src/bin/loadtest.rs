//! Load test: hundreds of concurrent client sessions against one
//! server, reporting throughput, dedup hit rate, and tail latency to
//! `results/BENCH_serve.json`.
//!
//! By default the server runs in-process on an ephemeral port (so the
//! binary is self-contained for CI); `--addr HOST:PORT` points it at an
//! external daemon instead. Sessions deliberately outnumber distinct
//! jobs by an order of magnitude: most sessions should be served by
//! coalescing onto an in-flight execution or replaying a finished one,
//! and the test fails if none are.
//!
//! Latency aggregation uses the shared telemetry histogram
//! ([`mg_obs::TeleHist`]) rather than a sorted sample vector, which is
//! what lets the report quote p99.9 without holding every sample. For
//! in-process runs the loadtest also stands up the `/metrics` listener
//! and cross-checks the server's own counters against what the clients
//! independently observed — done replies, dedup replies, and typed
//! rejects must agree exactly.
//!
//! Flags: `--sessions N` (default 240), `--addr HOST:PORT`. Sessions
//! reconnect and back off with [`BackoffPolicy::default`]. A bad
//! `--sessions` value exits 2.

use mg_obs::TeleHist;
use mg_serve::metrics::{self, MetricsServer};
use mg_serve::protocol::Request;
use mg_serve::{BackoffPolicy, Client, ServeConfig, Server, Session};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// `results/BENCH_serve.json` row format version. Bumped to 3 when the
/// sessions moved to the resilient client (adding the reconnect and
/// retried-reject counters).
const LOAD_SCHEMA: u32 = 3;

/// The row written to `results/BENCH_serve.json`.
#[derive(Serialize)]
struct LoadReport {
    load_schema: u32,
    sessions: u64,
    distinct_jobs: u64,
    completed: u64,
    rejected: u64,
    rejected_by_code: BTreeMap<String, u64>,
    client_errors: u64,
    panics: u64,
    wall_ms: u64,
    sessions_per_sec: f64,
    dedup_hits: u64,
    dedup_rate: f64,
    latency_p50_ms: u64,
    latency_p90_ms: u64,
    latency_p99_ms: u64,
    latency_p999_ms: u64,
    latency_max_ms: u64,
    reconnects: u64,
    transient_rejects: u64,
}

/// The distinct job mix: a handful of benchmarks crossed with two
/// scheme sets, at a small dynamic-instruction target so the load test
/// exercises the service machinery rather than the simulator. Sessions
/// outnumber these jobs ~20:1, keeping the job set well inside the
/// default 64-slot queue while making dedup the common case.
fn job_mix() -> Vec<Request> {
    let scheme_sets: [&[&str]; 2] = [
        &["no-minigraphs", "Struct-All"],
        &["Slack-Profile", "Slack-Dynamic"],
    ];
    mg_workloads::suite()
        .iter()
        .take(6)
        .flat_map(|bench| {
            scheme_sets
                .iter()
                .enumerate()
                .map(move |(i, schemes)| Request {
                    id: format!("{}-{i}", bench.name),
                    bench: bench.name.clone(),
                    schemes: schemes.iter().map(|s| s.to_string()).collect(),
                    machines: vec!["reduced".to_string()],
                    target_dyn: Some(2_000),
                    deadline_ms: None,
                    resume_from: None,
                })
        })
        .collect()
}

struct SessionResult {
    completed: bool,
    dedup: bool,
    reject_code: Option<String>,
    error: Option<String>,
    latency: Duration,
    reconnects: u64,
    transient_rejects: u64,
}

fn run_session(addr: &str, mut request: Request, session: usize) -> SessionResult {
    let start = Instant::now();
    // Each session uses its own request id: dedup must come from the
    // content key, never from the id.
    request.id = format!("{}-s{session}", request.id);
    // Per-session jitter seed so concurrent sessions desynchronize
    // their retry schedules instead of thundering back together.
    let mut policy = BackoffPolicy::default();
    policy.seed ^= session as u64;
    let outcome = Session::new(addr, policy).run_job(&request);
    match outcome {
        Ok(outcome) if outcome.completed() => SessionResult {
            completed: true,
            dedup: outcome.dedup,
            reject_code: None,
            error: None,
            latency: start.elapsed(),
            reconnects: outcome.reconnects,
            transient_rejects: outcome.transient_rejects,
        },
        Ok(outcome) => SessionResult {
            completed: false,
            dedup: false,
            reject_code: outcome
                .rejected
                .as_ref()
                .map(|(code, _)| format!("{code:?}")),
            error: outcome
                .rejected
                .as_ref()
                .map(|(code, detail)| format!("{code:?}: {detail}")),
            latency: start.elapsed(),
            reconnects: outcome.reconnects,
            transient_rejects: outcome.transient_rejects,
        },
        Err(e) => SessionResult {
            completed: false,
            dedup: false,
            reject_code: None,
            error: Some(e),
            latency: start.elapsed(),
            reconnects: 0,
            transient_rejects: 0,
        },
    }
}

/// One `GET /metrics` scrape, returned as the raw exposition text.
fn scrape(addr: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect metrics {addr}: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .map_err(|e| format!("send scrape: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read scrape: {e}"))?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.contains("200") => Ok(body.to_string()),
        _ => Err(format!("scrape failed: {response:.100}")),
    }
}

/// The value of one counter series in Prometheus text (0 if absent).
fn prom_value(text: &str, series: &str) -> u64 {
    text.lines()
        .filter_map(|line| line.strip_prefix(series))
        .filter_map(|rest| rest.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .next()
        .unwrap_or(0)
}

/// Sum of every `mg_serve_rejects_total{code=...}` series in a scrape.
fn prom_total_rejects(text: &str) -> u64 {
    text.lines()
        .filter(|line| line.starts_with("mg_serve_rejects_total{"))
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

fn main() {
    mg_bench::Config::init_cli();
    let mut sessions = 240usize;
    let mut external: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sessions" => {
                sessions = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("loadtest: --sessions needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--addr" => external = args.next(),
            other => {
                eprintln!("loadtest: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    // In-process server unless an external daemon was named. The
    // in-process path also gets a `/metrics` listener so the scrape
    // cross-check below runs against a real HTTP socket.
    let (addr, metrics_addr, server_thread) = match &external {
        Some(addr) => (addr.clone(), None, None),
        None => {
            let server = Server::bind(ServeConfig::default()).unwrap_or_else(|e| {
                eprintln!("loadtest: bind: {e}");
                std::process::exit(2);
            });
            let metrics = MetricsServer::bind("127.0.0.1:0").unwrap_or_else(|e| {
                eprintln!("loadtest: metrics bind: {e}");
                std::process::exit(2);
            });
            let metrics_addr = metrics.local_addr().to_string();
            metrics.spawn();
            let addr = server.local_addr().to_string();
            (
                addr,
                Some(metrics_addr),
                Some(std::thread::spawn(move || server.run())),
            )
        }
    };

    let jobs = job_mix();
    let distinct_jobs = jobs.len();
    println!("loadtest: {sessions} sessions over {distinct_jobs} distinct jobs at {addr}");

    // Deltas, not absolutes: the in-process server shares this
    // process's global registry, which may already hold counts (e.g.
    // context-cache metrics from a warmup).
    let before = mg_obs::telemetry::snapshot();

    let start = Instant::now();
    let handles: Vec<_> = (0..sessions)
        .map(|s| {
            let addr = addr.clone();
            let request = jobs[s % distinct_jobs].clone();
            std::thread::spawn(move || run_session(&addr, request, s))
        })
        .collect();
    let mut results = Vec::with_capacity(sessions);
    let mut panics = 0u64;
    for h in handles {
        match h.join() {
            Ok(r) => results.push(r),
            Err(_) => panics += 1,
        }
    }
    let wall = start.elapsed();

    let completed = results.iter().filter(|r| r.completed).count() as u64;
    let dedup_hits = results.iter().filter(|r| r.completed && r.dedup).count() as u64;
    let rejected = results.iter().filter(|r| r.reject_code.is_some()).count() as u64;
    let reconnects: u64 = results.iter().map(|r| r.reconnects).sum();
    let transient_rejects: u64 = results.iter().map(|r| r.transient_rejects).sum();
    let mut rejected_by_code: BTreeMap<String, u64> = BTreeMap::new();
    for code in results.iter().filter_map(|r| r.reject_code.as_deref()) {
        *rejected_by_code.entry(code.to_string()).or_insert(0) += 1;
    }
    let client_errors = results.iter().filter(|r| !r.completed).count() as u64;
    for r in results.iter().filter(|r| !r.completed).take(5) {
        eprintln!("loadtest: failed session: {:?}", r.error);
    }

    // Tail latency through the shared histogram: exact count/max, ≤12.5%
    // relative error on interior quantiles, no per-sample storage.
    let hist = TeleHist::new();
    for r in results.iter().filter(|r| r.completed) {
        hist.record_duration(r.latency);
    }
    let lat = hist.snapshot();
    let q_ms = |q: f64| lat.quantile(q) / 1_000;

    // Cross-check the server's own view against what the clients
    // counted, over both exposure paths: the Prometheus scrape and the
    // in-protocol `Stats` verb. Only meaningful for the in-process
    // server (an external daemon has history we didn't observe).
    let mut check_failures = 0u32;
    if let Some(metrics_addr) = &metrics_addr {
        fn check(failures: &mut u32, what: &str, server_count: u64, client_count: u64) {
            if server_count != client_count {
                eprintln!(
                    "loadtest: MISMATCH {what}: server says {server_count}, \
                     clients counted {client_count}"
                );
                *failures += 1;
            }
        }
        match scrape(metrics_addr) {
            Ok(text) => {
                let done = prom_value(&text, &format!("{} ", metrics::DONE_REPLIES));
                let dedup = prom_value(&text, &format!("{} ", metrics::DEDUP_REPLIES));
                let rejects = prom_total_rejects(&text);
                let base_done = before.counter(metrics::DONE_REPLIES);
                let base_dedup = before.counter(metrics::DEDUP_REPLIES);
                let base_rejects = metrics::total_rejects(&before);
                check(
                    &mut check_failures,
                    "/metrics done replies",
                    done - base_done,
                    completed,
                );
                check(
                    &mut check_failures,
                    "/metrics dedup replies",
                    dedup - base_dedup,
                    dedup_hits,
                );
                // Sessions absorb transient rejects by retrying; the
                // server still counted each one it sent.
                check(
                    &mut check_failures,
                    "/metrics rejects",
                    rejects - base_rejects,
                    rejected + transient_rejects,
                );
            }
            Err(e) => {
                eprintln!("loadtest: scrape failed: {e}");
                check_failures += 1;
            }
        }
        match Client::connect(&addr).and_then(|mut c| c.stats("loadtest-stats")) {
            Ok(stats) => {
                let done = stats.telemetry.counter(metrics::DONE_REPLIES)
                    - before.counter(metrics::DONE_REPLIES);
                check(&mut check_failures, "Stats done replies", done, completed);
            }
            Err(e) => {
                eprintln!("loadtest: Stats verb failed: {e}");
                check_failures += 1;
            }
        }
    }

    if let Some(thread) = server_thread {
        mg_bench::request_shutdown();
        let stats = thread.join().expect("server thread");
        mg_bench::clear_shutdown();
        println!(
            "server: {} connections, store counters {:?}",
            stats.connections, stats.store
        );
    }

    let report = LoadReport {
        load_schema: LOAD_SCHEMA,
        sessions: sessions as u64,
        distinct_jobs: distinct_jobs as u64,
        completed,
        rejected,
        rejected_by_code,
        client_errors,
        panics,
        wall_ms: u64::try_from(wall.as_millis()).unwrap_or(u64::MAX),
        sessions_per_sec: completed as f64 / wall.as_secs_f64().max(1e-9),
        dedup_hits,
        dedup_rate: dedup_hits as f64 / (completed.max(1)) as f64,
        latency_p50_ms: q_ms(0.50),
        latency_p90_ms: q_ms(0.90),
        latency_p99_ms: q_ms(0.99),
        latency_p999_ms: q_ms(0.999),
        latency_max_ms: q_ms(1.00),
        reconnects,
        transient_rejects,
    };
    let path = mg_bench::save_json("BENCH_serve", &report);
    println!(
        "loadtest: {}/{} sessions completed in {} ms ({:.1}/s), dedup rate {:.3}, \
         p50/p90/p99/p99.9/max = {}/{}/{}/{}/{} ms -> {}",
        report.completed,
        report.sessions,
        report.wall_ms,
        report.sessions_per_sec,
        report.dedup_rate,
        report.latency_p50_ms,
        report.latency_p90_ms,
        report.latency_p99_ms,
        report.latency_p999_ms,
        report.latency_max_ms,
        path.display()
    );

    if panics > 0 || completed != sessions as u64 {
        eprintln!("loadtest: FAILED — {panics} panics, {client_errors} incomplete sessions");
        std::process::exit(1);
    }
    if sessions > distinct_jobs && dedup_hits == 0 {
        eprintln!("loadtest: FAILED — no session was served by coalescing/replay");
        std::process::exit(1);
    }
    if check_failures > 0 {
        eprintln!("loadtest: FAILED — {check_failures} telemetry cross-check mismatches");
        std::process::exit(1);
    }
}
