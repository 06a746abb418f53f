//! Wire-protocol coverage against a real in-process server: typed
//! rejects, admission control, coalescing, and disconnect resilience.
//!
//! The server's shutdown flag and the context cache are process-global,
//! so every test serializes on one lock and cleans the flag up around
//! itself.

use mg_serve::protocol::{Request, DEFAULT_MAX_LINE_BYTES, PROTOCOL_VERSION};
use mg_serve::{Client, ErrorCode, Reply, ServeConfig, ServeStats, Server};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

struct TestServer {
    addr: String,
    thread: Option<JoinHandle<ServeStats>>,
    _guard: MutexGuard<'static, ()>,
}

impl TestServer {
    fn start(cfg: ServeConfig) -> TestServer {
        let guard = LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
        mg_bench::clear_shutdown();
        let server = Server::bind(cfg).expect("bind ephemeral port");
        let addr = server.local_addr().to_string();
        TestServer {
            addr,
            thread: Some(std::thread::spawn(move || server.run())),
            _guard: guard,
        }
    }

    fn stop(mut self) -> ServeStats {
        mg_bench::request_shutdown();
        let stats = self
            .thread
            .take()
            .expect("not yet stopped")
            .join()
            .expect("server thread");
        mg_bench::clear_shutdown();
        stats
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            mg_bench::request_shutdown();
            let _ = thread.join();
            mg_bench::clear_shutdown();
        }
    }
}

fn tiny_cfg() -> ServeConfig {
    ServeConfig {
        disk_cache: false,
        ..ServeConfig::default()
    }
}

/// A small real job; `target_dyn` varies per test so each test's
/// content key (and context-cache key) is its own.
fn request(id: &str, target_dyn: u64) -> Request {
    Request {
        id: id.to_string(),
        bench: mg_workloads::suite()[0].name.clone(),
        schemes: vec!["no-minigraphs".into(), "Struct-All".into()],
        machines: vec!["reduced".into()],
        target_dyn: Some(target_dyn),
        deadline_ms: None,
        resume_from: None,
    }
}

fn connect(addr: &str) -> Client {
    Client::connect_with_retry(addr, Duration::from_secs(10)).expect("connect")
}

#[test]
fn malformed_and_wrong_version_lines_get_typed_rejects() {
    let server = TestServer::start(tiny_cfg());
    let mut client = connect(&server.addr);

    client.send_raw("this is not json\n").unwrap();
    match client.read_reply().unwrap() {
        Reply::Rejected { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed reject, got {other:?}"),
    }

    let versioned = format!(
        "{{\"schema_version\":{},\"request\":{{\"id\":\"v\",\"bench\":\"x\",\"schemes\":[\"Struct-All\"],\"machines\":[\"reduced\"],\"target_dyn\":null}}}}\n",
        PROTOCOL_VERSION + 7
    );
    client.send_raw(&versioned).unwrap();
    match client.read_reply().unwrap() {
        Reply::Rejected { code, .. } => assert_eq!(code, ErrorCode::WrongVersion),
        other => panic!("expected WrongVersion reject, got {other:?}"),
    }

    // Unknown names are rejected with their specific codes and the
    // request's own id.
    let mut bad = request("bad-bench", 2_100);
    bad.bench = "no_such_bench".into();
    client.submit(&bad).unwrap();
    match client.read_reply().unwrap() {
        Reply::Rejected { id, code, .. } => {
            assert_eq!(code, ErrorCode::UnknownBench);
            assert_eq!(id, "bad-bench");
        }
        other => panic!("expected UnknownBench reject, got {other:?}"),
    }
    server.stop();
}

#[test]
fn overlong_lines_reject_without_killing_the_connection() {
    let cfg = ServeConfig {
        workers: 0,
        ..tiny_cfg()
    };
    let server = TestServer::start(cfg);
    let mut client = connect(&server.addr);

    let long = format!("{}\n", "x".repeat(DEFAULT_MAX_LINE_BYTES + 1_000));
    client.send_raw(&long).unwrap();
    match client.read_reply().unwrap() {
        Reply::Rejected { code, .. } => assert_eq!(code, ErrorCode::OverLong),
        other => panic!("expected OverLong reject, got {other:?}"),
    }

    // The connection survives and still validates the next line.
    let mut bad = request("after-overlong", 2_200);
    bad.schemes = vec!["warp-drive".into()];
    client.submit(&bad).unwrap();
    match client.read_reply().unwrap() {
        Reply::Rejected { code, .. } => assert_eq!(code, ErrorCode::UnknownScheme),
        other => panic!("expected UnknownScheme reject, got {other:?}"),
    }
    server.stop();
}

#[test]
fn full_queue_rejects_but_duplicates_still_coalesce() {
    // Admission-only server: jobs queue and never run, so the single
    // queue slot stays occupied for the whole test.
    let cfg = ServeConfig {
        workers: 0,
        queue_cap: 1,
        ..tiny_cfg()
    };
    let server = TestServer::start(cfg);
    let mut client = connect(&server.addr);

    // First job takes the only slot.
    client.submit(&request("first", 2_300)).unwrap();
    assert!(matches!(client.read_reply().unwrap(), Reply::Accepted { id, .. } if id == "first"));

    // A *different* job cannot be admitted: Accepted, then the typed
    // queue-full reject supersedes it.
    client.submit(&request("second", 2_400)).unwrap();
    assert!(matches!(client.read_reply().unwrap(), Reply::Accepted { id, .. } if id == "second"));
    match client.read_reply().unwrap() {
        Reply::Rejected { id, code, .. } => {
            assert_eq!(code, ErrorCode::QueueFull);
            assert_eq!(id, "second");
        }
        other => panic!("expected QueueFull reject, got {other:?}"),
    }

    // An *identical* job (same content, new id) needs no queue slot: it
    // coalesces onto the queued one and is NOT rejected.
    client.submit(&request("first-again", 2_300)).unwrap();
    assert!(
        matches!(client.read_reply().unwrap(), Reply::Accepted { id, .. } if id == "first-again")
    );

    // Drain: the queued job never ran, so both its subscriptions are
    // refused in typed form.
    mg_bench::request_shutdown();
    let mut codes = Vec::new();
    for _ in 0..2 {
        match client.read_reply().unwrap() {
            Reply::Rejected { id, code, .. } => codes.push((id, code)),
            other => panic!("expected ShuttingDown rejects, got {other:?}"),
        }
    }
    codes.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(
        codes,
        vec![
            ("first".to_string(), ErrorCode::ShuttingDown),
            ("first-again".to_string(), ErrorCode::ShuttingDown),
        ]
    );
    let stats = server.stop();
    assert_eq!(stats.store.coalesced, 1);
    assert_eq!(stats.store.completed, 0);
}

#[test]
fn identical_requests_coalesce_onto_one_execution() {
    let server = TestServer::start(tiny_cfg());
    let before = mg_bench::cache::counters();

    let addr_a = server.addr.clone();
    let addr_b = server.addr.clone();
    let a =
        std::thread::spawn(move || connect(&addr_a).run_job(&request("twin-a", 2_500)).unwrap());
    let b =
        std::thread::spawn(move || connect(&addr_b).run_job(&request("twin-b", 2_500)).unwrap());
    let out_a = a.join().expect("client a");
    let out_b = b.join().expect("client b");

    for out in [&out_a, &out_b] {
        assert!(out.completed(), "rejected: {:?}", out.rejected);
        assert_eq!(out.rows.len(), 2, "both schemes streamed");
        assert!(out.rows.iter().all(|(_, r)| r.is_ok()));
    }
    // Same content key, same rows, byte for byte.
    let render = |out: &mg_serve::JobOutcome| {
        let mut rows: Vec<String> = out
            .rows
            .iter()
            .map(|(cell, run)| {
                format!(
                    "{cell}:{}",
                    serde_json::to_string(run.as_ref().unwrap()).unwrap()
                )
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(render(&out_a), render(&out_b));
    assert_eq!(
        u32::from(out_a.dedup) + u32::from(out_b.dedup),
        1,
        "exactly one of the twins owned the execution"
    );

    // The context cache saw exactly one build for this key: the twin
    // was served without touching the simulator.
    let delta = mg_bench::cache::counters().since(&before);
    assert_eq!(delta.misses, 1, "one fresh context build");
    assert_eq!(delta.total(), 1, "and no second context request at all");

    let stats = server.stop();
    assert_eq!(stats.store.completed, 1, "one execution served both");
    assert_eq!(stats.store.coalesced + stats.store.replayed, 1);
}

#[test]
fn mid_stream_disconnect_does_not_poison_the_pool() {
    let server = TestServer::start(tiny_cfg());

    // Client A submits and vanishes without reading a single reply.
    {
        let mut a = connect(&server.addr);
        a.submit(&request("ghost", 2_600)).unwrap();
    }

    // Client B asks for the same content and must get everything,
    // whether it joins the in-flight run or replays the finished one.
    let mut b = connect(&server.addr);
    let same = b.run_job(&request("same-as-ghost", 2_600)).unwrap();
    assert!(same.completed(), "rejected: {:?}", same.rejected);
    assert_eq!(same.rows.len(), 2);
    assert!(same.rows.iter().all(|(_, r)| r.is_ok()));

    // And the pool still serves fresh work afterwards.
    let fresh = b.run_job(&request("fresh", 2_700)).unwrap();
    assert!(fresh.completed(), "rejected: {:?}", fresh.rejected);
    assert!(!fresh.dedup, "a new content key runs for real");

    let stats = server.stop();
    assert!(stats.store.completed >= 2);
    server_stats_sane(&stats);
}

#[test]
fn queued_jobs_past_their_deadline_get_typed_rejects() {
    // One worker: a slow job occupies it while a tight-deadline job
    // waits in the queue past its budget.
    let cfg = ServeConfig {
        workers: 1,
        ..tiny_cfg()
    };
    let server = TestServer::start(cfg);

    // Client A owns the worker with a slow job and holds its stream.
    let mut a = connect(&server.addr);
    a.submit(&request("slow", 60_000)).unwrap();
    assert!(matches!(a.read_reply().unwrap(), Reply::Accepted { id, .. } if id == "slow"));

    // Client B's job can only wait — and its 1ms deadline expires in
    // the queue, so the claiming worker drops it with a typed reject.
    let mut b = connect(&server.addr);
    let mut hurried = request("hurried", 2_800);
    hurried.deadline_ms = Some(1);
    b.submit(&hurried).unwrap();
    let out = b.collect("hurried").unwrap();
    match &out.rejected {
        Some((ErrorCode::DeadlineExceeded, detail)) => {
            assert!(detail.contains("deadline"), "{detail}")
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The slow job itself is unaffected.
    let slow = a.collect("slow").unwrap();
    assert!(slow.completed(), "rejected: {:?}", slow.rejected);
    server.stop();
}

#[test]
fn depth_shedding_rejects_owners_but_never_dedup_traffic() {
    // Admission-only server shedding at depth 1: the first job takes
    // the queue to the threshold, so the next *distinct* job is shed.
    let cfg = ServeConfig {
        workers: 0,
        shed_depth: Some(1),
        shed_retry_after: Duration::from_millis(75),
        ..tiny_cfg()
    };
    let server = TestServer::start(cfg);
    let mut client = connect(&server.addr);

    client.submit(&request("first", 2_900)).unwrap();
    assert!(matches!(client.read_reply().unwrap(), Reply::Accepted { id, .. } if id == "first"));

    client.submit(&request("shed-me", 3_000)).unwrap();
    assert!(matches!(client.read_reply().unwrap(), Reply::Accepted { id, .. } if id == "shed-me"));
    match client.read_reply().unwrap() {
        Reply::Rejected {
            id,
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(id, "shed-me");
            assert_eq!(code, ErrorCode::Overloaded);
            assert!(
                retry_after_ms.unwrap_or(0) >= 75,
                "hint carries the configured floor: {retry_after_ms:?}"
            );
        }
        other => panic!("expected Overloaded reject, got {other:?}"),
    }

    // Identical content coalesces without touching the queue, so it is
    // admitted even while the shed is refusing new work.
    client.submit(&request("first-twin", 2_900)).unwrap();
    assert!(
        matches!(client.read_reply().unwrap(), Reply::Accepted { id, .. } if id == "first-twin")
    );

    mg_bench::request_shutdown();
    for _ in 0..2 {
        match client.read_reply().unwrap() {
            Reply::Rejected { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("expected drain rejects, got {other:?}"),
        }
    }
    server.stop();
}

#[test]
fn resumed_requests_replay_only_the_missing_rows() {
    let server = TestServer::start(tiny_cfg());

    // Full run first: two cells, cursors 0 and 1.
    let mut a = connect(&server.addr);
    let full = a.run_job(&request("orig", 3_300)).unwrap();
    assert!(full.completed(), "rejected: {:?}", full.rejected);
    assert_eq!(full.rows.len(), 2);
    assert_eq!(full.next_cursor, 2);

    // A client that already holds cursor 0 resumes from 1 and gets
    // exactly the tail.
    let mut resumed = request("resumer", 3_300);
    resumed.resume_from = Some(1);
    let mut b = connect(&server.addr);
    let tail = b.run_job(&resumed).unwrap();
    assert!(tail.completed(), "rejected: {:?}", tail.rejected);
    assert!(tail.dedup, "resume replays the finished execution");
    assert_eq!(tail.rows.len(), 1, "only the missing row is replayed");
    assert_eq!(tail.next_cursor, 2);
    assert_eq!(tail.rows[0].0, full.rows[1].0, "same cell index");
    assert_eq!(
        serde_json::to_string(tail.rows[0].1.as_ref().unwrap()).unwrap(),
        serde_json::to_string(full.rows[1].1.as_ref().unwrap()).unwrap(),
        "the replayed tail is bit-identical to the original stream"
    );

    // Resuming from one past the end streams nothing but still Done.
    let mut nothing = request("caught-up", 3_300);
    nothing.resume_from = Some(2);
    let none = b.run_job(&nothing).unwrap();
    assert!(none.completed());
    assert_eq!(none.rows.len(), 0);
    server.stop();
}

#[test]
fn journal_recovery_serves_cells_without_rerunning_them() {
    let journal_dir = std::env::temp_dir().join(format!(
        "mg-serve-test-journal-{}-{:x}",
        std::process::id(),
        mg_bench::cache::stable_hash64(b"journal_recovery_test")
    ));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let cfg = ServeConfig {
        journal_dir: Some(journal_dir.clone()),
        ..tiny_cfg()
    };

    // First daemon lifetime: run the job, journaling each cell.
    let server = TestServer::start(cfg.clone());
    let addr = server.addr.clone();
    let first = connect(&addr)
        .run_job(&request("before-crash", 3_400))
        .unwrap();
    assert!(first.completed(), "rejected: {:?}", first.rejected);
    server.stop();

    // Second daemon lifetime on the same journal dir: its in-memory
    // store is empty (no coalesce/replay possible), so the identical
    // job runs again — but every cell comes back from the journal.
    let before = mg_obs::telemetry::snapshot();
    let server = TestServer::start(cfg);
    let second = connect(&server.addr)
        .run_job(&request("after-crash", 3_400))
        .unwrap();
    assert!(second.completed(), "rejected: {:?}", second.rejected);
    assert!(!second.dedup, "the restarted store has no entry to replay");
    let after = mg_obs::telemetry::snapshot();
    assert_eq!(
        after.counter(mg_serve::metrics::CELLS_RECOVERED)
            - before.counter(mg_serve::metrics::CELLS_RECOVERED),
        first.rows.len() as u64,
        "every cell was served from the journal"
    );
    assert!(
        after.counter(mg_serve::metrics::JOBS_RECOVERED)
            > before.counter(mg_serve::metrics::JOBS_RECOVERED)
    );

    // And the recovered rows are bit-identical to the original run.
    let render = |rows: &[(u64, Result<mg_bench::SchemeRun, mg_bench::BenchError>)]| {
        let mut out: Vec<String> = rows
            .iter()
            .map(|(cell, run)| match run {
                Ok(r) => format!("{cell}:ok:{}", serde_json::to_string(r).unwrap()),
                Err(e) => format!("{cell}:err:{}", serde_json::to_string(e).unwrap()),
            })
            .collect();
        out.sort();
        out
    };
    assert_eq!(render(&first.rows), render(&second.rows));

    server.stop();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

fn server_stats_sane(stats: &ServeStats) {
    assert!(stats.connections >= 1);
    assert!(stats.store.submitted >= stats.store.completed);
}
