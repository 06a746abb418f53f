//! The `mg-serve` wire protocol: line-delimited JSON with versioned
//! envelopes.
//!
//! Every message is one JSON object on one `\n`-terminated line.
//! Requests and replies are wrapped in envelopes carrying a
//! `schema_version`, following the same convention as the
//! [`mg_bench::save_json`] results [`mg_bench::Envelope`]; a version
//! mismatch is a typed reject, never a silent misparse.
//!
//! Conversation shape, per connection:
//!
//! 1. Server sends [`Reply::Hello`] (protocol version + machine
//!    fingerprint, so a client can refuse to mix results across
//!    machine families).
//! 2. Client sends any number of [`RequestBody`] messages: a
//!    [`RequestBody::Job`] names a benchmark and a scheme × machine
//!    cell grid; a [`RequestBody::Stats`] asks for the server's live
//!    telemetry. Requests are independent; a client may pipeline them.
//! 3. For each job the server replies [`Reply::Accepted`] (with the
//!    job's content key), then streams one [`Reply::Row`] or
//!    [`Reply::CellError`] per cell *as it commits*, then
//!    [`Reply::Done`] — or a single [`Reply::Rejected`] with a typed
//!    [`ErrorCode`] if the request never became a job. A `Stats`
//!    request gets a single [`Reply::Stats`] carrying a
//!    [`mg_obs::TelemetrySnapshot`] — the same numbers the
//!    `/metrics` Prometheus listener renders.
//!
//! Replies for different in-flight requests may interleave; every reply
//! carries the client-chosen request `id` so streams can be
//! demultiplexed.

use mg_bench::{BenchError, SchemeRun};
use mg_obs::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// Version of the wire protocol. Bump on any change to the envelope or
/// message shapes; mismatched requests are rejected with
/// [`ErrorCode::WrongVersion`].
///
/// History: v1 carried a bare job as the envelope's `request`; v2
/// introduced the [`RequestBody`] verb enum (`Job` / `Stats`) and the
/// [`Reply::Stats`] telemetry reply; v3 added fault-tolerance fields —
/// per-job `deadline_ms` and `resume_from` on [`Request`], a monotonic
/// `cursor` on [`Reply::Row`] / [`Reply::CellError`], `retry_after_ms`
/// on [`Reply::Rejected`], and the [`ErrorCode::DeadlineExceeded`] /
/// [`ErrorCode::Overloaded`] reject codes.
pub const PROTOCOL_VERSION: u32 = 3;

/// Cap on one request line, in bytes. Longer lines are rejected
/// with [`ErrorCode::OverLong`] — a whole job description is a few
/// hundred bytes, so anything larger is a confused or hostile client.
pub const DEFAULT_MAX_LINE_BYTES: usize = 64 * 1024;

/// A client request wrapped in its versioned envelope.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Must equal [`PROTOCOL_VERSION`].
    pub schema_version: u32,
    /// The request verb and its payload.
    pub request: RequestBody,
}

/// Every message a client can send.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum RequestBody {
    /// Submit a benchmark job (the v1 request shape).
    Job(Request),
    /// Ask for the server's live telemetry snapshot; answered with a
    /// single [`Reply::Stats`].
    Stats {
        /// Client-chosen identifier echoed on the reply.
        id: String,
    },
}

/// One job: a benchmark swept over a scheme × machine cell grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen identifier echoed on every reply for this job.
    pub id: String,
    /// Benchmark name (see `mg_workloads::suite`), e.g. `mib_sha`.
    pub bench: String,
    /// Scheme names ([`mg_bench::Scheme::from_name`], case-insensitive
    /// paper spellings like `Slack-Dynamic`). Cells are ordered
    /// scheme-major: every machine of scheme 0, then scheme 1, …
    pub schemes: Vec<String>,
    /// Machine tags: `baseline`/`base`/`4way`, `reduced`/`red`/`3way`,
    /// `2way`, `8way`, `dmem4`.
    pub machines: Vec<String>,
    /// Dynamic-instruction target override; `null` keeps the
    /// benchmark's default. Changing it changes the job's content key.
    pub target_dyn: Option<u64>,
    /// Optional per-job deadline, measured from admission. A job still
    /// queued past its deadline is rejected with
    /// [`ErrorCode::DeadlineExceeded`] instead of burning a worker; a
    /// job expiring mid-run reports its remaining cells as timed-out
    /// cell errors. Deliberately *not* part of the job's content key:
    /// the same work under a different budget is still the same work.
    pub deadline_ms: Option<u64>,
    /// Resume cursor: skip the first `resume_from` rows of the stream.
    /// A client that reconnects after a drop sets this to the number of
    /// rows it already holds and replays only the missing tail (rows
    /// are content-keyed and committed in deterministic order, so the
    /// replayed tail is bit-identical). Also excluded from the content
    /// key. `null` means `0`.
    pub resume_from: Option<u64>,
}

/// A server reply wrapped in its versioned envelope.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplyEnvelope {
    /// Equals [`PROTOCOL_VERSION`].
    pub schema_version: u32,
    /// The reply payload.
    pub reply: Reply,
}

/// Every message the server sends.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Reply {
    /// First line on every connection.
    Hello {
        /// Wire protocol version this server speaks.
        protocol: u32,
        /// [`mg_bench::machine_fingerprint`] of the serving machine.
        fingerprint: String,
    },
    /// The request was validated and registered (or coalesced onto an
    /// identical in-flight/finished job). If the job subsequently fails
    /// admission — queue full, server draining — a [`Reply::Rejected`]
    /// follows and supersedes this.
    Accepted {
        /// Echo of the request id.
        id: String,
        /// Content key of the job (hex), shared with the sweep journal
        /// — see `mg_bench::journal`'s *Key derivation*.
        key: String,
        /// Number of cells the job will stream.
        cells: u64,
    },
    /// One finished cell.
    Row {
        /// Echo of the request id.
        id: String,
        /// Cell index in the request's scheme-major order.
        cell: u64,
        /// Monotonic position of this row in the job's commit-order
        /// stream (0-based). A resuming client passes the next cursor
        /// it has not seen as `resume_from`.
        cursor: u64,
        /// The condensed run, bit-identical to a batch-mode sweep.
        run: SchemeRun,
    },
    /// One failed cell (the job continues; failures are data).
    CellError {
        /// Echo of the request id.
        id: String,
        /// Cell index in the request's scheme-major order.
        cell: u64,
        /// Monotonic stream position, exactly as on [`Reply::Row`]
        /// (errors are data and replay like rows).
        cursor: u64,
        /// What felled the cell.
        error: BenchError,
    },
    /// The job finished; every cell has been streamed.
    Done {
        /// Echo of the request id.
        id: String,
        /// Cells streamed (rows + cell errors).
        cells: u64,
        /// Whether this request was served by coalescing onto another
        /// request's execution (in-flight or already finished) instead
        /// of running itself.
        dedup: bool,
    },
    /// The request was refused; nothing was or will be executed for it.
    Rejected {
        /// Echo of the request id (empty if the request never parsed).
        id: String,
        /// Typed reason.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
        /// For retryable rejects ([`ErrorCode::Overloaded`],
        /// [`ErrorCode::QueueFull`]): how long a well-behaved client
        /// should back off before resubmitting (the server's
        /// `--shed-retry-ms`). `null` when retrying is pointless.
        retry_after_ms: Option<u64>,
    },
    /// Answer to a [`RequestBody::Stats`] request: the server's live
    /// telemetry, as of this reply.
    Stats {
        /// Echo of the request id.
        id: String,
        /// Current queue depth (jobs admitted but not yet claimed by a
        /// worker).
        queue_depth: u64,
        /// Size of the worker pool.
        workers: u64,
        /// Snapshot of the server's global telemetry registry — the
        /// same registry the `/metrics` Prometheus listener renders,
        /// so the two views always agree up to scrape timing.
        telemetry: TelemetrySnapshot,
    },
}

/// Typed rejection reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The line was not a valid request envelope.
    Malformed,
    /// The envelope's `schema_version` is not [`PROTOCOL_VERSION`].
    WrongVersion,
    /// The line exceeded the server's size cap.
    OverLong,
    /// The job queue is at capacity; retry later.
    QueueFull,
    /// Unknown benchmark name.
    UnknownBench,
    /// Unknown scheme name.
    UnknownScheme,
    /// Unknown machine tag.
    UnknownMachine,
    /// The request is structurally valid but describes no runnable job
    /// (empty grids, out-of-range `target_dyn`, too many cells).
    BadRequest,
    /// The server is draining and admits no new jobs.
    ShuttingDown,
    /// The job sat queued past its `deadline_ms`; it was dropped
    /// without burning a worker. Resubmitting starts a fresh budget.
    DeadlineExceeded,
    /// Admission control shed the job: the queue depth is at the
    /// configured threshold. Retry after the reply's `retry_after_ms`.
    Overloaded,
}

/// Renders one reply as a wire line (newline included).
pub fn reply_line(reply: Reply) -> String {
    let envelope = ReplyEnvelope {
        schema_version: PROTOCOL_VERSION,
        reply,
    };
    let mut line = serde_json::to_string(&envelope).expect("replies always serialize");
    line.push('\n');
    line
}

/// Renders one job request as a wire line (newline included).
pub fn request_line(request: &Request) -> String {
    body_line(&RequestBody::Job(request.clone()))
}

/// Renders a stats request as a wire line (newline included).
pub fn stats_line(id: &str) -> String {
    body_line(&RequestBody::Stats { id: id.to_string() })
}

/// Renders any request body as a wire line (newline included).
pub fn body_line(body: &RequestBody) -> String {
    let envelope = RequestEnvelope {
        schema_version: PROTOCOL_VERSION,
        request: body.clone(),
    };
    let mut line = serde_json::to_string(&envelope).expect("requests always serialize");
    line.push('\n');
    line
}

/// Just the version field of an envelope — probed before the body is
/// parsed, so a client speaking an older protocol (whose body shape no
/// longer parses) still gets the accurate [`ErrorCode::WrongVersion`]
/// instead of [`ErrorCode::Malformed`].
#[derive(Deserialize)]
struct VersionProbe {
    schema_version: u32,
}

/// Parses one request line: the version gate first (anything without a
/// parseable `schema_version` is [`ErrorCode::Malformed`]), then the
/// body.
pub fn decode_request(line: &str) -> Result<RequestBody, (ErrorCode, String)> {
    let probe: VersionProbe = serde_json::from_str(line)
        .map_err(|e| (ErrorCode::Malformed, format!("request does not parse: {e}")))?;
    if probe.schema_version != PROTOCOL_VERSION {
        return Err((
            ErrorCode::WrongVersion,
            format!(
                "protocol version {} is not {PROTOCOL_VERSION}",
                probe.schema_version
            ),
        ));
    }
    let envelope: RequestEnvelope = serde_json::from_str(line)
        .map_err(|e| (ErrorCode::Malformed, format!("request does not parse: {e}")))?;
    Ok(envelope.request)
}

/// Parses one reply line (the client side of [`reply_line`]).
pub fn decode_reply(line: &str) -> Result<Reply, String> {
    let envelope: ReplyEnvelope =
        serde_json::from_str(line).map_err(|e| format!("reply does not parse: {e}"))?;
    if envelope.schema_version != PROTOCOL_VERSION {
        return Err(format!(
            "reply protocol version {} is not {PROTOCOL_VERSION}",
            envelope.schema_version
        ));
    }
    Ok(envelope.reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_request() -> Request {
        Request {
            id: "job-1".into(),
            bench: "mib_sha".into(),
            schemes: vec!["Slack-Dynamic".into(), "no-minigraphs".into()],
            machines: vec!["reduced".into()],
            target_dyn: Some(2_000),
            deadline_ms: Some(30_000),
            resume_from: None,
        }
    }

    #[test]
    fn request_round_trips_through_the_wire_encoding() {
        let line = request_line(&demo_request());
        assert!(line.ends_with('\n'));
        let RequestBody::Job(back) = decode_request(line.trim_end()).unwrap() else {
            panic!("expected a Job body");
        };
        assert_eq!(back.id, "job-1");
        assert_eq!(back.schemes.len(), 2);
        assert_eq!(back.target_dyn, Some(2_000));
        assert_eq!(back.deadline_ms, Some(30_000));
        assert_eq!(back.resume_from, None);
    }

    #[test]
    fn stats_request_round_trips() {
        let line = stats_line("health-check");
        let RequestBody::Stats { id } = decode_request(line.trim_end()).unwrap() else {
            panic!("expected a Stats body");
        };
        assert_eq!(id, "health-check");
    }

    #[test]
    fn wrong_version_is_a_typed_reject() {
        let mut env = RequestEnvelope {
            schema_version: PROTOCOL_VERSION + 1,
            request: RequestBody::Job(demo_request()),
        };
        let line = serde_json::to_string(&env).unwrap();
        let (code, _) = decode_request(&line).unwrap_err();
        assert_eq!(code, ErrorCode::WrongVersion);
        env.schema_version = PROTOCOL_VERSION;
        let line = serde_json::to_string(&env).unwrap();
        assert!(decode_request(&line).is_ok());
    }

    #[test]
    fn v1_shaped_requests_get_wrong_version_not_malformed() {
        // A v1 client sends the bare job as `request`; the version
        // probe must flag the version before the body shape confuses
        // the diagnosis.
        let line = "{\"schema_version\":1,\"request\":{\"id\":\"old\",\"bench\":\"x\",\
                    \"schemes\":[],\"machines\":[],\"target_dyn\":null}}";
        let (code, detail) = decode_request(line).unwrap_err();
        assert_eq!(code, ErrorCode::WrongVersion, "{detail}");
    }

    #[test]
    fn v2_shaped_requests_get_wrong_version_not_malformed() {
        // A v2 job lacks the v3 deadline/resume fields; the version
        // probe must still diagnose the version, not the body shape.
        let line = "{\"schema_version\":2,\"request\":{\"Job\":{\"id\":\"old\",\
                    \"bench\":\"mib_sha\",\"schemes\":[\"no-minigraphs\"],\
                    \"machines\":[\"baseline\"],\"target_dyn\":null}}}";
        let (code, detail) = decode_request(line).unwrap_err();
        assert_eq!(code, ErrorCode::WrongVersion, "{detail}");
    }

    #[test]
    fn garbage_is_malformed() {
        let (code, _) = decode_request("not json at all").unwrap_err();
        assert_eq!(code, ErrorCode::Malformed);
        let (code, _) =
            decode_request(&format!("{{\"schema_version\":{PROTOCOL_VERSION}}}")).unwrap_err();
        assert_eq!(code, ErrorCode::Malformed, "missing request body");
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: "fp".into(),
            },
            Reply::Done {
                id: "j".into(),
                cells: 3,
                dedup: true,
            },
            Reply::Rejected {
                id: String::new(),
                code: ErrorCode::QueueFull,
                detail: "cap 64".into(),
                retry_after_ms: Some(250),
            },
            Reply::Rejected {
                id: "late".into(),
                code: ErrorCode::DeadlineExceeded,
                detail: "queued 2000ms past deadline".into(),
                retry_after_ms: None,
            },
            Reply::CellError {
                id: "j".into(),
                cell: 4,
                cursor: 2,
                error: BenchError::Interrupted { bench: "b".into() },
            },
            Reply::Stats {
                id: "health".into(),
                queue_depth: 2,
                workers: 4,
                telemetry: TelemetrySnapshot::default(),
            },
        ] {
            let line = reply_line(reply.clone());
            let back = decode_reply(line.trim_end()).unwrap();
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(&reply).unwrap()
            );
        }
    }
}
