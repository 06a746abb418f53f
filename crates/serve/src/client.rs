//! A small blocking client for the wire protocol, used by the loadtest,
//! the smoke client, and the protocol tests — plus [`Session`], the
//! resilient wrapper that survives drops, restarts, and overload by
//! reconnecting with exponential backoff and resuming idempotently
//! from its row cursor.

use crate::metrics;
use crate::protocol::{decode_reply, request_line, stats_line, ErrorCode, Reply, Request};
use mg_bench::{BenchError, SchemeRun};
use mg_obs::TelemetrySnapshot;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Everything a finished request produced.
#[derive(Debug, Default)]
pub struct JobOutcome {
    /// `(cell index, outcome)` in arrival order.
    pub rows: Vec<(u64, Result<SchemeRun, BenchError>)>,
    /// The `Done` reply's dedup flag (false for the owning request).
    pub dedup: bool,
    /// Set instead of rows/dedup when the request was rejected.
    pub rejected: Option<(ErrorCode, String)>,
    /// The reject's `retry_after_ms` hint, if any.
    pub retry_after_ms: Option<u64>,
    /// One past the highest stream cursor received — what a resumed
    /// request passes as `resume_from`.
    pub next_cursor: u64,
    /// [`Session`] only: reconnects performed while serving this job.
    pub reconnects: u64,
    /// [`Session`] only: transient rejects absorbed by backing off and
    /// resubmitting (`Overloaded`, `QueueFull`, ...).
    pub transient_rejects: u64,
}

impl JobOutcome {
    /// Whether the request streamed to completion (not rejected).
    pub fn completed(&self) -> bool {
        self.rejected.is_none()
    }
}

/// The server's answer to a `Stats` request.
#[derive(Debug)]
pub struct ServerStats {
    /// Jobs admitted but not yet claimed by a worker.
    pub queue_depth: u64,
    /// Size of the worker pool.
    pub workers: u64,
    /// The server's live telemetry registry at reply time.
    pub telemetry: TelemetrySnapshot,
}

/// One connection to an `mg-serve` daemon. The server's `Hello` is
/// consumed at connect time and exposed via [`Client::fingerprint`].
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    fingerprint: String,
}

impl Client {
    /// Connects and consumes the `Hello` line.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Requests are small line writes; send each one immediately.
        let _ = stream.set_nodelay(true);
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let mut client = Client {
            stream,
            reader: BufReader::new(read_half),
            fingerprint: String::new(),
        };
        match client.read_reply()? {
            Reply::Hello { fingerprint, .. } => client.fingerprint = fingerprint,
            other => return Err(format!("expected Hello, got {other:?}")),
        }
        Ok(client)
    }

    /// Retries [`Client::connect`] until `deadline` elapses — for
    /// scripts racing a freshly spawned daemon.
    pub fn connect_with_retry(addr: &str, deadline: Duration) -> Result<Client, String> {
        let start = Instant::now();
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if start.elapsed() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    }

    /// The serving machine's fingerprint, from its `Hello`.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Sends one request line.
    pub fn submit(&mut self, request: &Request) -> Result<(), String> {
        self.send_raw(&request_line(request))
    }

    /// Sends a raw line verbatim (protocol tests craft invalid ones).
    pub fn send_raw(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads and decodes the next reply line (blocking).
    pub fn read_reply(&mut self) -> Result<Reply, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        decode_reply(line.trim_end())
    }

    /// Asks the server for its live telemetry ([`ServerStats`]). Not
    /// for use while job replies are in flight on this connection —
    /// like [`Client::run_job`], it expects the next matching reply.
    pub fn stats(&mut self, id: &str) -> Result<ServerStats, String> {
        self.send_raw(&stats_line(id))?;
        match self.read_reply()? {
            Reply::Stats {
                id: got,
                queue_depth,
                workers,
                telemetry,
            } if got == id => Ok(ServerStats {
                queue_depth,
                workers,
                telemetry,
            }),
            other => Err(format!("expected Stats for {id:?}, got {other:?}")),
        }
    }

    /// Submits `request` and collects its whole stream: replies until
    /// the matching `Done` or a `Rejected`. Replies for other request
    /// ids (a pipelining client) are an error here — use raw
    /// [`Client::read_reply`] to demultiplex manually.
    pub fn run_job(&mut self, request: &Request) -> Result<JobOutcome, String> {
        self.submit(request)?;
        self.collect(&request.id)
    }

    /// Collects one request's stream (see [`Client::run_job`]).
    pub fn collect(&mut self, want_id: &str) -> Result<JobOutcome, String> {
        let mut outcome = JobOutcome::default();
        self.collect_into(want_id, &mut outcome)?;
        Ok(outcome)
    }

    /// Collects one request's stream into an existing outcome,
    /// deduplicating by cursor: rows below `outcome.next_cursor` are
    /// already held (a resumed stream never double-counts). Advances
    /// `next_cursor`, sets `dedup`/`rejected`, and leaves the
    /// session-level counters alone.
    fn collect_into(&mut self, want_id: &str, outcome: &mut JobOutcome) -> Result<(), String> {
        loop {
            match self.read_reply()? {
                Reply::Accepted { id, .. } if id == want_id => {}
                Reply::Row {
                    id,
                    cell,
                    cursor,
                    run,
                    ..
                } if id == want_id => {
                    if cursor >= outcome.next_cursor {
                        outcome.rows.push((cell, Ok(run)));
                        outcome.next_cursor = cursor + 1;
                    }
                }
                Reply::CellError {
                    id,
                    cell,
                    cursor,
                    error,
                } if id == want_id => {
                    if cursor >= outcome.next_cursor {
                        outcome.rows.push((cell, Err(error)));
                        outcome.next_cursor = cursor + 1;
                    }
                }
                Reply::Done { id, dedup, .. } if id == want_id => {
                    outcome.dedup = dedup;
                    return Ok(());
                }
                Reply::Rejected {
                    id,
                    code,
                    detail,
                    retry_after_ms,
                } if id == want_id || id.is_empty() => {
                    outcome.rejected = Some((code, detail));
                    outcome.retry_after_ms = retry_after_ms;
                    return Ok(());
                }
                other => return Err(format!("interleaved reply for another id: {other:?}")),
            }
        }
    }
}

/// Reconnect/backoff policy for a [`Session`]: exponential backoff from
/// `base` to `cap` with deterministic ±50% jitter (seeded, so chaos
/// runs reproduce), all bounded by an overall `deadline`.
#[derive(Clone, Debug)]
pub struct BackoffPolicy {
    /// First-retry delay; doubles per attempt.
    pub base: Duration,
    /// Upper bound on a single delay (pre-jitter).
    pub cap: Duration,
    /// Total budget across connects, retries, and streaming; when it
    /// runs out the session reports its last error.
    pub deadline: Duration,
    /// Jitter seed. Sessions with different seeds desynchronize their
    /// retry storms; equal seeds replay identical schedules.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            deadline: Duration::from_secs(10),
            seed: 0x6d67,
        }
    }
}

impl BackoffPolicy {
    /// The pre-jitter delay for retry `attempt` (0-based).
    fn raw_delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// A resilient client session: submits jobs like [`Client::run_job`],
/// but survives connection drops, daemon restarts, and transient
/// rejects by reconnecting (exponential backoff + jitter) and
/// resubmitting with `resume_from` set to its cursor watermark. Rows
/// are deduplicated by cursor, so the merged outcome is bit-identical
/// to an uninterrupted stream.
pub struct Session {
    addr: String,
    policy: BackoffPolicy,
    rng: u64,
}

impl Session {
    /// A session against `addr` with the given policy.
    pub fn new(addr: &str, policy: BackoffPolicy) -> Session {
        let rng = policy.seed | 1;
        Session {
            addr: addr.to_string(),
            policy,
            rng,
        }
    }

    /// Deterministic jitter factor in `[0.5, 1.5)` (splitmix-style LCG
    /// step; no `std` RNG exists and the schedule must reproduce).
    fn jitter(&mut self) -> f64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.5 + (self.rng >> 40) as f64 / (1u64 << 24) as f64
    }

    fn backoff(&mut self, attempt: u32, floor: Option<u64>) -> Duration {
        let raw = self.policy.raw_delay(attempt);
        let jittered = raw.mul_f64(self.jitter());
        match floor {
            Some(ms) => jittered.max(Duration::from_millis(ms)),
            None => jittered,
        }
    }

    /// Whether a reject is worth retrying: load and lifecycle rejects
    /// clear with time; the rest would fail identically forever.
    fn retryable(code: ErrorCode) -> bool {
        matches!(
            code,
            ErrorCode::Overloaded
                | ErrorCode::QueueFull
                | ErrorCode::ShuttingDown
                | ErrorCode::DeadlineExceeded
        )
    }

    /// Runs `request` to completion across as many connections as it
    /// takes, within the policy deadline. `Ok` outcomes either
    /// completed (possibly after reconnects/resumes — see the
    /// `reconnects` and `transient_rejects` counters) or carry the
    /// final non-retryable rejection; `Err` means the deadline ran out.
    pub fn run_job(&mut self, request: &Request) -> Result<JobOutcome, String> {
        let start = Instant::now();
        let mut outcome = JobOutcome {
            next_cursor: request.resume_from.unwrap_or(0),
            ..JobOutcome::default()
        };
        let mut attempt = 0u32;
        let mut last_err;
        loop {
            match self.try_stream(request, &mut outcome) {
                Ok(None) => return Ok(outcome),
                Ok(Some((code, detail))) => {
                    if !Self::retryable(code) {
                        return Ok(outcome);
                    }
                    outcome.transient_rejects += 1;
                    mg_obs::tele_counter!(metrics::CLIENT_RETRIED_REJECTS).inc();
                    last_err = format!("transient reject {code:?}: {detail}");
                    // A fresh attempt must not inherit the stale
                    // rejection if the deadline expires later.
                    outcome.rejected = None;
                }
                Err(e) => last_err = e,
            }
            let delay = self.backoff(attempt, outcome.retry_after_ms.take());
            attempt += 1;
            if start.elapsed() + delay >= self.policy.deadline {
                return Err(format!(
                    "session gave up after {attempt} attempts over {}ms: {last_err}",
                    start.elapsed().as_millis()
                ));
            }
            std::thread::sleep(delay);
            outcome.reconnects += 1;
            mg_obs::tele_counter!(metrics::CLIENT_RECONNECTS).inc();
        }
    }

    /// One connection's worth of progress: connect, resubmit from the
    /// watermark, stream into `outcome`. `Ok(None)` means done,
    /// `Ok(Some(reject))` a typed rejection, `Err` an I/O failure
    /// (connection refused, dropped mid-stream, malformed reply).
    fn try_stream(
        &mut self,
        request: &Request,
        outcome: &mut JobOutcome,
    ) -> Result<Option<(ErrorCode, String)>, String> {
        let mut client = Client::connect(&self.addr)?;
        let mut resumed = request.clone();
        resumed.resume_from = Some(outcome.next_cursor);
        client.submit(&resumed)?;
        client.collect_into(&request.id, outcome)?;
        Ok(outcome.rejected.clone().map(|(code, detail)| {
            outcome.rejected = Some((code, detail.clone()));
            (code, detail)
        }))
    }

    /// Asks the server for its live telemetry over a fresh connection,
    /// retrying connects within the policy deadline (a daemon may be
    /// mid-restart).
    pub fn stats(&mut self, id: &str) -> Result<ServerStats, String> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            let err = match Client::connect(&self.addr) {
                Ok(mut client) => match client.stats(id) {
                    Ok(stats) => return Ok(stats),
                    Err(e) => e,
                },
                Err(e) => e,
            };
            let delay = self.backoff(attempt, None);
            attempt += 1;
            if start.elapsed() + delay >= self.policy.deadline {
                return Err(err);
            }
            std::thread::sleep(delay);
        }
    }
}
