//! `mg-chaos`: a deterministic chaos harness for the `mg-serve` daemon.
//!
//! Each scenario spawns a real daemon process, drives a seeded fault —
//! mid-stream disconnects, slow-loris peers, malformed floods, queue
//! saturation, injected worker panics, SIGKILL + restart — and then
//! asserts the service invariants the rest of the stack relies on:
//!
//! * **bit-identical rows** — whatever survives the fault must match an
//!   in-process batch-mode run of the same cells byte-for-byte;
//! * **zero hung connections** — every client thread finishes within a
//!   timeout, and held-open sockets never wedge the drain;
//! * **clean exit** — SIGTERM after the scenario drains to exit 0.
//!
//! Everything is seeded (`--seed N`): the fault schedule, the garbage
//! generator, and the reconnect jitter all derive from one LCG, so a
//! failing run reproduces with its printed seed.
//!
//! The log is duplicated to `results/CHAOS_log.txt` so CI can attach it
//! as an artifact on failure.
//!
//! Flags: `--seed N` (default 42), `--serve-bin PATH` (default: the
//! `mg-serve` binary next to this one), `--only NAME` (run a single
//! scenario). Numeric flags are strict-parsed: a bad value exits 2.
//!
//! The worker-panic scenario arms the daemon's `MG_FAULT` hooks, which
//! every build compiles in; its canary fails the scenario if an
//! injected panic does not surface.

use mg_bench::{BenchError, SchemeRun, SweepSpec};
use mg_serve::protocol::{Request, PROTOCOL_VERSION};
use mg_serve::{BackoffPolicy, Client, ErrorCode, JobSpec, Reply, Session};
use mg_sim::MachineConfig;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a daemon gets to drain after SIGTERM, and how long any
/// client thread gets to finish, before the scenario declares a hang.
const HANG_TIMEOUT: Duration = Duration::from_secs(120);

fn main() {
    mg_bench::Config::init_cli();
    let mut seed: u64 = 42;
    let mut serve_bin: Option<PathBuf> = None;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("mg-chaos: --seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--serve-bin" => serve_bin = args.next().map(PathBuf::from),
            "--only" => only = args.next(),
            other => {
                eprintln!("mg-chaos: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let serve_bin = serve_bin.unwrap_or_else(|| {
        // The cargo layout puts every workspace binary in one dir.
        std::env::current_exe()
            .expect("current_exe")
            .with_file_name("mg-serve")
    });
    if !serve_bin.exists() {
        eprintln!(
            "mg-chaos: daemon binary {} not found (build mg-serve or pass --serve-bin)",
            serve_bin.display()
        );
        std::process::exit(2);
    }

    let mut chaos = Chaos::new(seed, serve_bin);
    type Scenario = fn(&mut Chaos) -> Result<(), String>;
    let scenarios: [(&str, Scenario); 6] = [
        ("disconnect", mid_stream_disconnects),
        ("slow-loris", slow_loris_peers),
        ("flood", malformed_flood),
        ("saturation", queue_saturation),
        ("worker-panic", worker_panics),
        ("kill-restart", kill_and_restart),
    ];

    let mut failures = 0u32;
    for (name, run) in scenarios {
        if only.as_deref().is_some_and(|want| want != name) {
            continue;
        }
        chaos.log(&format!("=== scenario {name} (seed {seed}) ==="));
        match run(&mut chaos) {
            Ok(()) => chaos.log(&format!("--- {name}: OK")),
            Err(e) => {
                failures += 1;
                chaos.log(&format!("--- {name}: FAILED: {e}"));
            }
        }
    }
    if failures > 0 {
        chaos.log(&format!("mg-chaos: {failures} scenario(s) FAILED"));
        std::process::exit(1);
    }
    chaos.log("mg-chaos: all scenarios passed");
}

struct Chaos {
    rng: u64,
    serve_bin: PathBuf,
    log_file: File,
}

impl Chaos {
    fn new(seed: u64, serve_bin: PathBuf) -> Chaos {
        std::fs::create_dir_all("results").expect("create results dir");
        let log_file = File::create("results/CHAOS_log.txt").expect("create chaos log");
        Chaos {
            rng: seed | 1,
            serve_bin,
            log_file,
        }
    }

    fn log(&mut self, line: &str) {
        println!("{line}");
        let _ = writeln!(self.log_file, "{line}");
        let _ = self.log_file.flush();
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng >> 16
    }

    /// Spawns a daemon on an ephemeral port (or `addr` when pinned) and
    /// waits for its banner.
    fn spawn_daemon(
        &mut self,
        addr: &str,
        extra: &[&str],
        env: &[(&str, &str)],
    ) -> Result<Daemon, String> {
        let mut child = Command::new(&self.serve_bin)
            .args(["--addr", addr, "--no-disk-cache"])
            .args(extra)
            .envs(env.iter().map(|(k, v)| (k.to_string(), v.to_string())))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.serve_bin.display()))?;
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut lines = BufReader::new(stdout).lines();
        let banner = match lines.next() {
            Some(Ok(line)) => line,
            other => {
                let _ = child.kill();
                return Err(format!("no startup banner: {other:?}"));
            }
        };
        let bound = banner
            .rsplit(' ')
            .next()
            .ok_or_else(|| format!("unparseable banner {banner:?}"))?
            .to_string();
        std::thread::spawn(move || for _line in lines.map_while(Result::ok) {});
        self.log(&format!("    daemon up on {bound} ({extra:?})"));
        Ok(Daemon { child, addr: bound })
    }
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// SIGTERM, then assert the drain finishes with exit 0.
    fn stop_clean(mut self) -> Result<(), String> {
        let kill = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("run kill: {e}"))?;
        if !kill.success() {
            return Err("kill -TERM failed".to_string());
        }
        match wait_timeout(&mut self.child, HANG_TIMEOUT) {
            Some(status) if status.code() == Some(0) => Ok(()),
            Some(status) => Err(format!("daemon drained with status {status}")),
            None => {
                let _ = self.child.kill();
                Err("daemon hung in drain past the timeout".to_string())
            }
        }
    }

    /// SIGKILL — the crash half of the crash-recovery scenario.
    fn kill9(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("SIGKILL: {e}"))?;
        self.child.wait().map_err(|e| format!("reap: {e}"))?;
        Ok(())
    }
}

fn wait_timeout(child: &mut Child, timeout: Duration) -> Option<ExitStatus> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return Some(status);
        }
        if start.elapsed() > timeout {
            return None;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Joins a set of client threads through a channel, failing the
/// scenario if any of them is still running after [`HANG_TIMEOUT`] —
/// the "zero hung connections" assertion.
fn join_all<T>(rx: mpsc::Receiver<T>, expected: usize, what: &str) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(expected);
    for i in 0..expected {
        match rx.recv_timeout(HANG_TIMEOUT) {
            Ok(v) => out.push(v),
            Err(_) => return Err(format!("{what}: client {i} of {expected} hung")),
        }
    }
    Ok(out)
}

fn request(id: &str, schemes: &[&str], machines: &[&str], target_dyn: u64) -> Request {
    Request {
        id: id.to_string(),
        bench: mg_workloads::suite()[0].name.clone(),
        schemes: schemes.iter().map(|s| s.to_string()).collect(),
        machines: machines.iter().map(|s| s.to_string()).collect(),
        target_dyn: Some(target_dyn),
        deadline_ms: None,
        resume_from: None,
    }
}

/// A streamed or recomputed row: cursor plus the cell's outcome.
type Row = (u64, Result<SchemeRun, BenchError>);

/// The batch-mode twin of a request: the same validated cells run
/// through the stock sweep runner in this process (no faults are ever
/// installed here).
fn batch_rows(req: &Request) -> Result<Vec<Row>, String> {
    let train = MachineConfig::reduced();
    let job = JobSpec::from_request(req, &train).map_err(|(code, e)| format!("{code:?}: {e}"))?;
    let batch = SweepSpec::new(&train)
        .bench(&job.bench)
        .cells(job.cells.iter().cloned())
        .quiet(true)
        .run();
    Ok(batch.rows[0]
        .runs
        .iter()
        .enumerate()
        .map(|(cell, run)| (cell as u64, run.clone()))
        .collect())
}

/// Canonical render of a row set for bit-identity comparison.
fn render(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|(cell, run)| match run {
            Ok(r) => format!("{cell}:ok:{}", serde_json::to_string(r).unwrap()),
            Err(e) => format!("{cell}:err:{}", serde_json::to_string(e).unwrap()),
        })
        .collect();
    out.sort();
    out
}

fn assert_bit_identical(served: &[Row], req: &Request, what: &str) -> Result<(), String> {
    let batch = batch_rows(req)?;
    if render(served) != render(&batch) {
        return Err(format!(
            "{what}: served rows differ from the batch-mode run\n  served: {:?}\n  batch:  {:?}",
            render(served),
            render(&batch)
        ));
    }
    Ok(())
}

fn session(addr: &str, seed: u64) -> Session {
    Session::new(
        addr,
        BackoffPolicy {
            deadline: Duration::from_secs(60),
            seed,
            ..BackoffPolicy::default()
        },
    )
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Clients that vanish mid-stream: submit, read a seeded number of
/// replies, drop the socket. The pool must shrug, and a resilient
/// session must then stream the same content bit-identically.
fn mid_stream_disconnects(chaos: &mut Chaos) -> Result<(), String> {
    let daemon = chaos.spawn_daemon("127.0.0.1:0", &[], &[])?;
    let req = request(
        "disc",
        &["no-minigraphs", "Struct-All"],
        &["reduced"],
        4_100,
    );

    let (tx, rx) = mpsc::channel();
    for k in 0..4u64 {
        let reads = (chaos.next_u64() % 3) as usize; // 0..=2 replies, then vanish
        let addr = daemon.addr.clone();
        let mut ghost = req.clone();
        ghost.id = format!("disc-ghost-{k}");
        let tx = tx.clone();
        std::thread::spawn(move || {
            let result = (|| {
                let mut client = Client::connect(&addr)?;
                client.submit(&ghost)?;
                for _ in 0..reads {
                    client.read_reply()?;
                }
                Ok::<(), String>(())
            })();
            let _ = tx.send(result);
        });
    }
    for r in join_all(rx, 4, "disconnect ghosts")? {
        r?;
    }

    let outcome = session(&daemon.addr, chaos.next_u64())
        .run_job(&req)
        .map_err(|e| format!("survivor session: {e}"))?;
    if !outcome.completed() {
        return Err(format!("survivor rejected: {:?}", outcome.rejected));
    }
    assert_bit_identical(&outcome.rows, &req, "disconnect survivor")?;
    daemon.stop_clean()?;
    Ok(())
}

/// Peers that stall: one writes half a request line and goes silent,
/// one submits a job and never reads a reply. Neither may wedge normal
/// service or the drain.
fn slow_loris_peers(chaos: &mut Chaos) -> Result<(), String> {
    let daemon = chaos.spawn_daemon("127.0.0.1:0", &["--write-timeout-ms", "1000"], &[])?;

    // Loris writer: an eternally unfinished line, held open to the end.
    let mut writer = TcpStream::connect(&daemon.addr).map_err(|e| format!("loris connect: {e}"))?;
    writer
        .write_all(b"{\"schema_version\":3,\"request")
        .map_err(|e| format!("loris write: {e}"))?;

    // Deaf reader: submits real work, never reads a single reply. The
    // daemon's write timeout (not our patience) bounds its damage.
    let deaf_req = request(
        "deaf",
        &["no-minigraphs", "Struct-All"],
        &["reduced"],
        4_200,
    );
    let mut deaf = Client::connect(&daemon.addr)?;
    deaf.submit(&deaf_req)?;

    // Normal service must be unaffected throughout.
    let req = request(
        "healthy",
        &["no-minigraphs", "Struct-All"],
        &["reduced"],
        4_250,
    );
    let outcome = session(&daemon.addr, chaos.next_u64())
        .run_job(&req)
        .map_err(|e| format!("healthy session: {e}"))?;
    if !outcome.completed() {
        return Err(format!("healthy job rejected: {:?}", outcome.rejected));
    }
    assert_bit_identical(&outcome.rows, &req, "job next to slow-loris peers")?;

    // Drain with both degenerate peers still attached: exit 0, no hang.
    daemon.stop_clean()?;
    drop(writer);
    drop(deaf);
    Ok(())
}

/// A seeded flood of garbage — binary junk, wrong versions, overlong
/// lines, unknown names. Every line must earn a typed reject, the
/// connections must survive, and real work must still stream after.
fn malformed_flood(chaos: &mut Chaos) -> Result<(), String> {
    let daemon = chaos.spawn_daemon("127.0.0.1:0", &[], &[])?;
    let (tx, rx) = mpsc::channel();
    const CONNS: usize = 4;
    const LINES: usize = 25;
    for c in 0..CONNS {
        let addr = daemon.addr.clone();
        let tx = tx.clone();
        let seeds: Vec<u64> = (0..LINES).map(|_| chaos.next_u64()).collect();
        let probe = {
            let mut r = request(
                "flood-probe",
                &["no-minigraphs", "Struct-All"],
                &["reduced"],
                4_300,
            );
            r.id = format!("flood-probe-{c}");
            r
        };
        std::thread::spawn(move || {
            let result = (|| {
                let mut client = Client::connect(&addr)?;
                for (i, seed) in seeds.iter().enumerate() {
                    let line = match seed % 4 {
                        0 => format!("!!not json at all {seed:x}\n"),
                        1 => format!(
                            "{{\"schema_version\":{},\"request\":{{}}}}\n",
                            PROTOCOL_VERSION + 1 + (seed % 90) as u32
                        ),
                        2 => {
                            // Valid envelope, bogus body.
                            let mut bad = probe.clone();
                            bad.id = format!("junk-{c}-{i}");
                            bad.bench = format!("no_such_bench_{seed:x}");
                            mg_serve::protocol::request_line(&bad)
                        }
                        _ => format!("{}\n", "x".repeat(70_000)),
                    };
                    client.send_raw(&line)?;
                    match client.read_reply()? {
                        Reply::Rejected { .. } => {}
                        other => return Err(format!("garbage line got {other:?}")),
                    }
                }
                // The same connection still does real work.
                let outcome = client.run_job(&probe)?;
                if !outcome.completed() {
                    return Err(format!("post-flood job rejected: {:?}", outcome.rejected));
                }
                Ok::<_, String>(outcome.rows)
            })();
            let _ = tx.send(result);
        });
    }
    let probe = request(
        "flood-probe",
        &["no-minigraphs", "Struct-All"],
        &["reduced"],
        4_300,
    );
    for rows in join_all(rx, CONNS, "flood connections")? {
        assert_bit_identical(&rows?, &probe, "post-flood job")?;
    }
    daemon.stop_clean()?;
    Ok(())
}

/// Saturation: one worker, a tiny queue, and a burst of distinct jobs.
/// The shed must answer typed `Overloaded` rejects with backoff hints
/// while the jobs it *did* accept keep a bounded p99.
fn queue_saturation(chaos: &mut Chaos) -> Result<(), String> {
    let daemon = chaos.spawn_daemon(
        "127.0.0.1:0",
        &[
            "--workers",
            "1",
            "--queue-cap",
            "4",
            "--shed-depth",
            "2",
            "--shed-retry-ms",
            "50",
        ],
        &[],
    )?;

    const BURST: usize = 12;
    let (tx, rx) = mpsc::channel();
    for i in 0..BURST {
        let addr = daemon.addr.clone();
        let tx = tx.clone();
        // Distinct content per job: coalescing must not soak the burst.
        let req = request(
            &format!("sat-{i}"),
            &["no-minigraphs"],
            &["reduced"],
            4_400 + i as u64,
        );
        std::thread::spawn(move || {
            let result = Client::connect(&addr).and_then(|mut c| c.run_job(&req));
            let _ = tx.send(result);
        });
    }
    let outcomes = join_all(rx, BURST, "saturation burst")?;

    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut hinted = 0usize;
    for outcome in outcomes {
        let outcome = outcome.map_err(|e| format!("burst client errored untyped: {e}"))?;
        match &outcome.rejected {
            None => completed += 1,
            Some((ErrorCode::Overloaded | ErrorCode::QueueFull, _)) => {
                shed += 1;
                if outcome.retry_after_ms.unwrap_or(0) >= 1 {
                    hinted += 1;
                }
            }
            Some(other) => return Err(format!("unexpected reject under load: {other:?}")),
        }
    }
    chaos.log(&format!(
        "    saturation: {completed} completed, {shed} shed ({hinted} with hints)"
    ));
    if completed == 0 {
        return Err("no job completed under saturation".to_string());
    }
    if shed == 0 {
        return Err("burst of 12 on a depth-2 shed never shed anything".to_string());
    }
    if hinted != shed {
        return Err(format!(
            "{shed} shed but only {hinted} carried retry_after_ms"
        ));
    }

    // The accepted jobs' end-to-end p99 stays bounded: with a depth-2
    // shed nothing waits behind more than a couple of tiny jobs. 10s is
    // generous for machinery, impossible for an unbounded queue.
    let stats = Client::connect(&daemon.addr)
        .and_then(|mut c| c.stats("chaos-sat"))
        .map_err(|e| format!("stats verb: {e}"))?;
    let job_p99_us = stats
        .telemetry
        .hists
        .get(mg_serve::metrics::JOB_US)
        .map(|h| h.quantile(0.99))
        .unwrap_or(0);
    chaos.log(&format!("    saturation: accepted-job p99 {job_p99_us}us"));
    if job_p99_us == 0 {
        return Err("no job latency histogram after completed jobs".to_string());
    }
    if job_p99_us > 10_000_000 {
        return Err(format!("accepted-job p99 {job_p99_us}us is unbounded"));
    }
    daemon.stop_clean()?;
    Ok(())
}

/// Injected worker panics (`MG_FAULT`): a cell that panics comes back
/// as a `Panicked` row after running once, and the job's other cells
/// still stream rows bit-identical to a healthy batch run. A canary
/// checks first that an injected panic surfaces at all; otherwise the
/// run below could pass with the daemon ignoring `MG_FAULT`.
fn worker_panics(chaos: &mut Chaos) -> Result<(), String> {
    // Canary: a daemon told to panic every cell. If the cell comes
    // back Ok, the daemon ignored `MG_FAULT`.
    let canary = chaos.spawn_daemon("127.0.0.1:0", &[], &[("MG_FAULT", "panic")])?;
    let creq = request("canary", &["no-minigraphs"], &["reduced"], 4_500);
    let canary_out = Client::connect(&canary.addr)
        .and_then(|mut c| c.run_job(&creq))
        .map_err(|e| format!("canary: {e}"))?;
    canary.stop_clean()?;
    let faults_active = canary_out
        .rows
        .first()
        .is_some_and(|(_, run)| matches!(run, Err(BenchError::Panicked { .. })));
    if !faults_active {
        return Err(format!(
            "canary: no Panicked row under MG_FAULT=panic ({} rows, rejected {:?})",
            canary_out.rows.len(),
            canary_out.rejected
        ));
    }

    // The real run: cell 1 panics, cell 0 must be untouched by it.
    let daemon = chaos.spawn_daemon("127.0.0.1:0", &[], &[("MG_FAULT", "panic:cell=1")])?;
    let req = request(
        "panicky",
        &["no-minigraphs", "Struct-All"],
        &["reduced"],
        4_550,
    );
    let outcome = session(&daemon.addr, chaos.next_u64())
        .run_job(&req)
        .map_err(|e| format!("panicky session: {e}"))?;
    if !outcome.completed() {
        return Err(format!("panicky job rejected: {:?}", outcome.rejected));
    }
    let (healthy, panicked): (Vec<Row>, Vec<Row>) =
        outcome.rows.into_iter().partition(|(cell, _)| *cell == 0);
    match panicked.as_slice() {
        [(1, Err(BenchError::Panicked { payload, .. }))] if payload.contains("mg-fault:") => {}
        other => return Err(format!("cell 1 should be one injected panic: {other:?}")),
    }
    let batch: Vec<Row> = batch_rows(&req)?
        .into_iter()
        .filter(|(cell, _)| *cell == 0)
        .collect();
    if healthy.len() != 1 || render(&healthy) != render(&batch) {
        return Err(format!(
            "cell 0 differs from the batch-mode run\n  served: {:?}\n  batch:  {:?}",
            render(&healthy),
            render(&batch)
        ));
    }
    daemon.stop_clean()?;
    Ok(())
}

/// SIGKILL mid-job, restart on the same port and journal dir: the
/// finished cells come back from the crash-recovery journal and a
/// resumed session completes the job bit-identically.
fn kill_and_restart(chaos: &mut Chaos) -> Result<(), String> {
    // Reserve a port so the restarted daemon can reuse the address the
    // client knows. (Tiny bind race after the drop; acceptable here.)
    let pinned = {
        let probe = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe bind: {e}"))?;
        probe.local_addr().map_err(|e| e.to_string())?.to_string()
    };
    let journal_dir = format!("results/chaos-journal-{:x}", chaos.next_u64());
    let _ = std::fs::remove_dir_all(&journal_dir);
    let daemon_args = ["--workers", "1", "--journal-dir", journal_dir.as_str()];

    let daemon = chaos.spawn_daemon(&pinned, &daemon_args, &[])?;
    let req = request(
        "kill-a",
        &["no-minigraphs", "Struct-All", "Slack-Dynamic"],
        &["reduced", "8way"],
        100_000,
    );

    // Stream until two cells have landed, then SIGKILL the daemon.
    let mut client = Client::connect(&daemon.addr)?;
    client.submit(&req)?;
    let mut held: Vec<Row> = Vec::new();
    let mut next_cursor = 0u64;
    while held.len() < 2 {
        match client
            .read_reply()
            .map_err(|e| format!("pre-kill read: {e}"))?
        {
            Reply::Accepted { .. } => {}
            Reply::Row {
                cell, cursor, run, ..
            } => {
                held.push((cell, Ok(run)));
                next_cursor = cursor + 1;
            }
            Reply::CellError {
                cell,
                cursor,
                error,
                ..
            } => {
                held.push((cell, Err(error)));
                next_cursor = cursor + 1;
            }
            other => return Err(format!("pre-kill reply {other:?}")),
        }
    }
    daemon.kill9()?;
    drop(client);
    chaos.log(&format!("    SIGKILL after {next_cursor} rows; restarting"));

    // Restart on the same address and journal; resume from the cursor.
    let daemon = chaos.spawn_daemon(&pinned, &daemon_args, &[])?;
    let mut resumed = req.clone();
    resumed.id = "kill-b".to_string();
    resumed.resume_from = Some(next_cursor);
    let tail = session(&daemon.addr, chaos.next_u64())
        .run_job(&resumed)
        .map_err(|e| format!("resumed session: {e}"))?;
    if !tail.completed() {
        return Err(format!("resumed job rejected: {:?}", tail.rejected));
    }

    // Merged pre-kill + post-restart rows are bit-identical to batch.
    held.extend(tail.rows);
    assert_bit_identical(&held, &req, "rows across the crash")?;

    // And the finished cells genuinely came from the journal.
    let stats = Client::connect(&daemon.addr)
        .and_then(|mut c| c.stats("chaos-recovery"))
        .map_err(|e| format!("stats verb: {e}"))?;
    let recovered = stats.telemetry.counter(mg_serve::metrics::CELLS_RECOVERED);
    chaos.log(&format!("    recovered {recovered} cells from the journal"));
    if recovered < next_cursor {
        return Err(format!(
            "only {recovered} cells recovered; {next_cursor} were journaled before the kill"
        ));
    }
    if stats.telemetry.counter(mg_serve::metrics::JOBS_RECOVERED) == 0 {
        return Err("no job counted as recovered".to_string());
    }

    daemon.stop_clean()?;
    let _ = std::fs::remove_dir_all(&journal_dir);
    Ok(())
}
