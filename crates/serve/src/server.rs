//! The server: accept loop, per-connection reader/writer threads, and
//! the worker pool that actually runs jobs.
//!
//! Layout per connection:
//!
//! * a *writer* thread owns the socket's sending half and drains an
//!   `mpsc` channel of pre-rendered protocol lines — the store and the
//!   reader both just `send` strings, so interleaving is a channel
//!   property, not a locking discipline;
//! * a *reader* thread parses request lines (with a read timeout so it
//!   can observe the end of a drain), validates them into jobs, and
//!   registers them on the [`ResultStore`].
//!
//! The worker pool pops jobs off the [`FairQueue`] (round-robin across
//! clients) and commits rows through the store as each cell finishes.
//! Shutdown is cooperative via [`mg_bench::shutdown_requested`]: the
//! accept loop stops, the queue closes, workers drain what is already
//! queued (cells started after the request come back `Interrupted`,
//! so a drain is prompt but every stream still terminates with `Done`),
//! and leftover jobs that no worker will run are aborted with a typed
//! `ShuttingDown` reject. Only then do the readers stop and drop their
//! senders; each writer flushes what is still queued for its socket,
//! and [`Server::run`] joins every connection before it returns, so the
//! final `Done` or `ShuttingDown` line is on the wire before the process
//! can exit.

use crate::config::ServeConfig;
use crate::jobs::JobSpec;
use crate::metrics;
use crate::protocol::{
    decode_request, reply_line, ErrorCode, Reply, RequestBody, PROTOCOL_VERSION,
};
use crate::queue::{FairQueue, Pop, PushError};
use crate::shed::Shed;
use crate::store::{Begin, CounterSnapshot, ResultStore, Sub};
use mg_bench::{machine_fingerprint, shutdown_requested, BenchContext, BenchError, Journal};
use mg_obs::mg_error;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// One queued unit of work: a validated job under its content key.
struct QueuedJob {
    key: u64,
    spec: JobSpec,
    /// When the owner pushed it — queue-wait and end-to-end latency
    /// telemetry measure from here.
    queued_at: Instant,
    /// Absolute expiry derived from the request's `deadline_ms` at
    /// admission. A job claimed past this is dropped with a typed
    /// `DeadlineExceeded` instead of burning the worker; one expiring
    /// mid-run reports its remaining cells as timed out.
    deadline: Option<Instant>,
}

/// What [`Server::run`] reports after draining.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct ServeStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Result-store counters at drain time.
    pub store: CounterSnapshot,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    store: Arc<ResultStore>,
    queue: Arc<FairQueue<QueuedJob>>,
    shed: Arc<Shed>,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listen socket; nothing is served until [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            queue: Arc::new(FairQueue::new(cfg.queue_cap)),
            store: Arc::new(ResultStore::new()),
            shed: Arc::new(Shed::new(cfg.shed_config())),
            cfg,
            local_addr,
        })
    }

    /// The bound address (resolves the ephemeral port of the default
    /// `127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared result store (counters are read from here).
    pub fn store(&self) -> Arc<ResultStore> {
        Arc::clone(&self.store)
    }

    /// Serves until [`mg_bench::request_shutdown`] (typically wired to
    /// SIGINT/SIGTERM by the daemon binary), then drains: the queue
    /// closes, workers finish what was queued, jobs nothing will run
    /// are aborted with `ShuttingDown`, and every connection flushes its
    /// pending replies and closes. Returns lifetime stats.
    pub fn run(self) -> ServeStats {
        mg_obs::tele_gauge!(metrics::WORKERS).set(self.cfg.workers as i64);
        let workers: Vec<JoinHandle<()>> = (0..self.cfg.workers)
            .map(|w| {
                let queue = Arc::clone(&self.queue);
                let store = Arc::clone(&self.store);
                let shed = Arc::clone(&self.shed);
                let cfg = self.cfg.clone();
                std::thread::Builder::new()
                    .name(format!("mg-serve-worker-{w}"))
                    .spawn(move || worker_loop(&queue, &store, &shed, &cfg))
                    .expect("spawn worker thread")
            })
            .collect();

        let client_ids = AtomicU64::new(0);
        let mut connections = 0u64;
        // Set once the drain is over: readers stop taking requests.
        let closing = Arc::new(AtomicBool::new(false));
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    connections += 1;
                    conns.retain(|c| !c.is_finished());
                    // Replies are small line writes; without this, Nagle
                    // holds each one back waiting on the peer's ACK.
                    let _ = stream.set_nodelay(true);
                    mg_obs::tele_counter!(metrics::CONNECTIONS).inc();
                    let client = client_ids.fetch_add(1, Ordering::Relaxed);
                    let store = Arc::clone(&self.store);
                    let queue = Arc::clone(&self.queue);
                    let shed = Arc::clone(&self.shed);
                    let cfg = self.cfg.clone();
                    let closing = Arc::clone(&closing);
                    let conn = std::thread::Builder::new()
                        .name(format!("mg-serve-conn-{client}"))
                        .spawn(move || {
                            serve_connection(stream, client, &store, &queue, &shed, &cfg, &closing)
                        });
                    conns.extend(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(_) => std::thread::sleep(POLL),
            }
        }

        self.queue.close();
        for w in workers {
            let _ = w.join();
        }
        // With zero workers (or if a worker died), refuse whatever is
        // still queued in typed form rather than leaving streams open.
        for job in self.queue.drain_now() {
            self.store
                .abort(job.key, ErrorCode::ShuttingDown, "server is draining", None);
        }
        mg_obs::tele_gauge!(metrics::QUEUE_DEPTH).set(0);
        // Every job has now finished or been aborted, so the store holds
        // no senders: once the readers drop theirs, each writer drains
        // its channel and exits.
        closing.store(true, Ordering::SeqCst);
        for conn in conns {
            if conn.join().is_err() {
                mg_error!("a connection thread panicked during the drain");
            }
        }
        ServeStats {
            connections,
            store: self.store.counters(),
        }
    }
}

fn worker_loop(queue: &FairQueue<QueuedJob>, store: &ResultStore, shed: &Shed, cfg: &ServeConfig) {
    loop {
        match queue.pop(POLL) {
            Pop::Item(job) => {
                mg_obs::tele_gauge!(metrics::QUEUE_DEPTH).dec();
                let waited = job.queued_at.elapsed();
                mg_obs::tele_hist!(metrics::QUEUE_WAIT_US).record_duration(waited);
                shed.record_wait(waited);
                mg_obs::tele_gauge!(metrics::SHED_WAIT_P99_US)
                    .set(i64::try_from(shed.recent_wait_p99().as_micros()).unwrap_or(i64::MAX));
                if job.deadline.is_some_and(|d| Instant::now() >= d) {
                    // The job out-sat its budget in the queue; drop it
                    // without burning the worker. The client retries
                    // with a fresh budget if it still cares.
                    mg_obs::tele_counter!(metrics::DEADLINE_DROPS).inc();
                    store.abort(
                        job.key,
                        ErrorCode::DeadlineExceeded,
                        &format!(
                            "job waited {}ms in queue, past its deadline",
                            waited.as_millis()
                        ),
                        None,
                    );
                    continue;
                }
                let busy = Instant::now();
                run_job(job, store, cfg);
                mg_obs::tele_counter!(metrics::WORKER_BUSY_US)
                    .add(u64::try_from(busy.elapsed().as_micros()).unwrap_or(u64::MAX));
            }
            Pop::TimedOut => continue,
            Pop::Closed => return,
        }
    }
}

/// Runs one job to completion: context build (shared through the
/// process-wide cache), then one supervised cell at a time, each
/// committed to the store the moment it finishes.
///
/// With a journal directory configured, every finished cell is
/// journaled *before* it is streamed (so any row a client ever saw is
/// recoverable), and cells already journaled by a previous —
/// possibly SIGKILL'd — daemon on the same directory are committed
/// from the journal instead of re-running. Transient failures
/// (panic, timeout) and interruptions are deliberately not journaled:
/// a resubmit should re-run those, not replay them.
fn run_job(job: QueuedJob, store: &ResultStore, cfg: &ServeConfig) {
    let spec = job.spec;
    let journal = cfg
        .journal_dir
        .as_ref()
        .map(|root| Journal::new(root, job.key, spec.cell_keys()));
    // Admission-to-Done latency, recorded on every exit path right
    // after the store finishes the job.
    let finish = |key: u64| {
        store.finish(key);
        mg_obs::tele_hist!(metrics::JOB_US).record_duration(job.queued_at.elapsed());
    };
    let built = catch_unwind(AssertUnwindSafe(|| {
        BenchContext::builder(&spec.bench, &spec.train_cfg)
            .disk_cache(cfg.disk_cache)
            .build()
    }));
    let ctx = match built {
        Ok(Ok(ctx)) => Arc::new(ctx),
        Ok(Err(e)) => {
            for cell in 0..spec.cells.len() {
                store.commit_row(job.key, cell, Err(e.clone()));
            }
            finish(job.key);
            return;
        }
        Err(payload) => {
            let rendered = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            for cell in 0..spec.cells.len() {
                store.commit_row(
                    job.key,
                    cell,
                    Err(mg_bench::BenchError::Panicked {
                        bench: spec.bench.name.clone(),
                        cell,
                        payload: rendered.clone(),
                    }),
                );
            }
            finish(job.key);
            return;
        }
    };
    let mut recovered = 0u64;
    for (idx, cell) in spec.cells.iter().enumerate() {
        if let Some(outcome) = journal.as_ref().and_then(|j| j.load_cell(idx)) {
            mg_obs::tele_counter!(metrics::CELLS_RECOVERED).inc();
            recovered += 1;
            store.commit_row(job.key, idx, outcome);
            continue;
        }
        let started = Instant::now();
        let (res, _retries) = mg_bench::supervise_cell_until(
            &ctx,
            cell,
            idx,
            cfg.watchdog,
            cfg.retries,
            job.deadline,
        );
        if let Some(j) = &journal {
            if !matches!(
                res,
                Err(BenchError::Panicked { .. }
                    | BenchError::TimedOut { .. }
                    | BenchError::Interrupted { .. })
            ) {
                j.store_cell(idx, &spec.bench.name, &res, started.elapsed());
            }
        }
        store.commit_row(job.key, idx, res);
    }
    if recovered > 0 {
        mg_obs::tele_counter!(metrics::JOBS_RECOVERED).inc();
    }
    finish(job.key);
}

/// One connection: spawns its writer, runs the reader until the peer
/// hangs up or the drain ends, then waits for the writer to flush.
fn serve_connection(
    stream: TcpStream,
    client: u64,
    store: &ResultStore,
    queue: &FairQueue<QueuedJob>,
    shed: &Shed,
    cfg: &ServeConfig,
    closing: &AtomicBool,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // A socket that refuses its timeouts is closed on the spot: without
    // a read timeout the reader thread cannot observe shutdown, and
    // without a write timeout a peer that stops reading (slow-loris)
    // would wedge the writer thread forever.
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(100))) {
        mg_error!("conn {client}: set_read_timeout failed, closing: {e}");
        return;
    }
    if let Err(e) = write_half.set_write_timeout(cfg.write_timeout) {
        mg_error!("conn {client}: set_write_timeout failed, closing: {e}");
        return;
    }
    let (tx, rx) = channel::<String>();
    let Ok(writer) = std::thread::Builder::new()
        .name(format!("mg-serve-write-{client}"))
        .spawn(move || {
            let mut out = write_half;
            while let Ok(line) = rx.recv() {
                mg_bench::fault::before_write();
                if out.write_all(line.as_bytes()).is_err() || out.flush().is_err() {
                    // Peer is gone; drain and drop remaining lines so
                    // senders keep succeeding until the store prunes us.
                    break;
                }
            }
        })
    else {
        return;
    };
    let _ = tx.send(reply_line(Reply::Hello {
        protocol: PROTOCOL_VERSION,
        fingerprint: machine_fingerprint(),
    }));
    read_requests(stream, client, &tx, store, queue, shed, cfg, closing);
    // The writer ends once the store has also dropped its subscription
    // clones, that is when this client's jobs have finished.
    drop(tx);
    if writer.join().is_err() {
        mg_error!("conn {client}: writer thread panicked");
    }
}

/// The reader loop: one request line at a time, with overlong lines
/// rejected once and then discarded up to their terminating newline.
/// Returns when the peer hangs up or `closing` is set.
#[allow(clippy::too_many_arguments)]
fn read_requests(
    stream: TcpStream,
    client: u64,
    tx: &Sender<String>,
    store: &ResultStore,
    queue: &FairQueue<QueuedJob>,
    shed: &Shed,
    cfg: &ServeConfig,
    closing: &AtomicBool,
) {
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let mut discarding = false;
    while !closing.load(Ordering::SeqCst) {
        match reader.read_line(&mut buf) {
            Ok(0) => return, // peer closed its sending half
            Ok(_) => {
                let was_discarding = discarding;
                discarding = false;
                if !was_discarding && !overlong_reject(&buf, tx, cfg) {
                    handle_line(buf.trim(), client, tx, store, queue, shed, cfg);
                }
                buf.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                // Timeout mid-line: `read_line` has appended whatever
                // arrived so far, so an overlong line can be rejected
                // (once) before its newline ever shows up.
                if !discarding && buf.len() > cfg.max_line_bytes {
                    overlong_reject(&buf, tx, cfg);
                    discarding = true;
                }
                if discarding {
                    buf.clear();
                }
            }
            Err(_) => return,
        }
    }
}

/// Rejects an overlong line. Returns whether it was overlong.
fn overlong_reject(buf: &str, tx: &Sender<String>, cfg: &ServeConfig) -> bool {
    if buf.len() <= cfg.max_line_bytes {
        return false;
    }
    let _ = tx.send(metrics::rejected_line(
        String::new(),
        ErrorCode::OverLong,
        format!("request line exceeds the {}-byte cap", cfg.max_line_bytes),
        None,
    ));
    true
}

fn handle_line(
    line: &str,
    client: u64,
    tx: &Sender<String>,
    store: &ResultStore,
    queue: &FairQueue<QueuedJob>,
    shed: &Shed,
    cfg: &ServeConfig,
) {
    if line.is_empty() {
        return;
    }
    // Every rejection renders through `metrics::rejected_line`, so the
    // labeled reject counters equal the `Rejected` replies on the wire.
    let reject = |id: String, code: ErrorCode, detail: String| {
        let _ = tx.send(metrics::rejected_line(id, code, detail, None));
    };
    let request = match decode_request(line) {
        Ok(RequestBody::Job(request)) => request,
        Ok(RequestBody::Stats { id }) => {
            let _ = tx.send(reply_line(Reply::Stats {
                id,
                queue_depth: queue.len() as u64,
                workers: cfg.workers as u64,
                telemetry: mg_obs::telemetry::snapshot(),
            }));
            return;
        }
        Err((code, detail)) => return reject(String::new(), code, detail),
    };
    let job = match JobSpec::from_request(&request, &cfg.train_machine) {
        Ok(job) => job,
        Err((code, detail)) => return reject(request.id, code, detail),
    };
    if shutdown_requested() {
        return reject(
            request.id,
            ErrorCode::ShuttingDown,
            "server is draining".to_string(),
        );
    }
    let key = job.content_key();
    let cells = job.cells.len() as u64;
    mg_obs::tele_counter!(metrics::ACCEPTS).inc();
    let _ = tx.send(reply_line(Reply::Accepted {
        id: request.id.clone(),
        key: format!("{key:016x}"),
        cells,
    }));
    let sub = Sub {
        id: request.id,
        tx: tx.clone(),
        dedup: false,
        resume_from: job.resume_from,
    };
    if store.subscribe(key, sub) == Begin::Owner {
        // Admission control applies to owners only: coalescing onto an
        // in-flight execution or replaying a finished one adds no queue
        // load, so those are never shed.
        if let Err(over) = shed.admit(queue.len()) {
            mg_obs::tele_counter!(metrics::SHED_JOBS).inc();
            return store.abort(
                key,
                ErrorCode::Overloaded,
                &over.detail,
                Some(over.retry_after_ms),
            );
        }
        let deadline = job.deadline.map(|d| Instant::now() + d);
        let push = queue.push(
            client,
            QueuedJob {
                key,
                spec: job,
                queued_at: Instant::now(),
                deadline,
            },
        );
        match push {
            Ok(()) => {
                mg_obs::tele_gauge!(metrics::QUEUE_DEPTH).inc();
            }
            Err(PushError::Full) => store.abort(
                key,
                ErrorCode::QueueFull,
                &format!("job queue is at its {}-job capacity", queue.cap()),
                Some(
                    u64::try_from(cfg.shed_retry_after.as_millis())
                        .unwrap_or(u64::MAX)
                        .max(1),
                ),
            ),
            Err(PushError::Closed) => {
                store.abort(key, ErrorCode::ShuttingDown, "server is draining", None)
            }
        }
    }
}
