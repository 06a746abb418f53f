//! Process-level signal behavior of the real daemon binary: a first
//! SIGTERM drains gracefully (in-flight work finishes or is refused in
//! typed form, exit 0), a second one aborts immediately with the
//! conventional `128 + signo` code.
//!
//! These run `mg-serve` itself (via `CARGO_BIN_EXE_mg-serve`), not an
//! in-process server, because the behavior under test — SignalWatch's
//! two-stage handler and the process exit codes — only exists in the
//! binary.

use mg_serve::protocol::Request;
use mg_serve::{Client, ErrorCode, Reply};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Spawns the daemon on an ephemeral port, with `fault` as its
/// `MG_FAULT` plan, and returns it with the bound address parsed from
/// its startup banner.
fn spawn_daemon(extra: &[&str], fault: Option<&str>) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mg-serve"));
    cmd.args(["--addr", "127.0.0.1:0", "--no-disk-cache"])
        .args(extra);
    if let Some(plan) = fault {
        cmd.env("MG_FAULT", plan);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mg-serve");
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("startup banner").expect("banner io");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .to_string();
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _line in lines.map_while(Result::ok) {});
    (child, addr)
}

fn signal(child: &Child, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {sig} failed");
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
        std::thread::sleep(Duration::from_millis(20));
    }
}

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

#[test]
fn first_signal_drains_gracefully_under_load() {
    let (mut child, addr) = spawn_daemon(&[], None);
    let mut client = Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("connect");
    client.submit(&request("drain-load", 200_000)).unwrap();
    assert!(matches!(
        client.read_reply().unwrap(),
        Reply::Accepted { .. }
    ));

    signal(&child, "-TERM");

    // The in-flight stream must end in typed form — completed rows or
    // a ShuttingDown reject — never a hang or a silent close.
    let outcome = client.collect("drain-load").expect("typed stream end");
    match &outcome.rejected {
        Some((code, _)) => assert_eq!(*code, ErrorCode::ShuttingDown),
        None => assert_eq!(outcome.rows.len(), 2, "both cells streamed"),
    }

    let status = wait_timeout(&mut child, Duration::from_secs(60)).expect("daemon exited");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
}

/// A drain must flush every reply line already handed to a connection
/// before the process exits. The `write-delay` fault holds each line in
/// the connection's writer thread, so the job's cells finish (and the
/// workers drain) long before its rows and `Done` reach the socket.
#[cfg(feature = "fault-inject")]
#[test]
fn drain_flushes_replies_still_queued_for_the_socket() {
    let (mut child, addr) = spawn_daemon(&[], Some("write-delay:ms=300"));
    let mut client = Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("connect");
    client.submit(&request("drain-flush", 20_000)).unwrap();
    assert!(matches!(
        client.read_reply().unwrap(),
        Reply::Accepted { .. }
    ));

    signal(&child, "-TERM");

    let outcome = client
        .collect("drain-flush")
        .expect("rows and Done arrive before the daemon exits");
    assert!(outcome.rejected.is_none(), "queued job drains: {outcome:?}");
    assert_eq!(outcome.rows.len(), 2, "both cells streamed");

    let status = wait_timeout(&mut child, Duration::from_secs(60)).expect("daemon exited");
    assert_eq!(status.code(), Some(0), "graceful drain exits 0");
}

#[test]
fn second_signal_aborts_immediately_with_the_conventional_code() {
    // One worker and a heavy job (6 cells at a 5M-instruction target)
    // so the graceful drain genuinely has work to wait on when the
    // second signal lands.
    let (mut child, addr) = spawn_daemon(&["--workers", "1"], None);
    let mut client = Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("connect");
    let mut heavy = request("heavy", 5_000_000);
    heavy.schemes = vec![
        "no-minigraphs".into(),
        "Struct-All".into(),
        "Slack-Dynamic".into(),
    ];
    heavy.machines = vec!["reduced".into(), "8way".into()];
    client.submit(&heavy).unwrap();
    assert!(matches!(
        client.read_reply().unwrap(),
        Reply::Accepted { .. }
    ));

    signal(&child, "-TERM");
    std::thread::sleep(Duration::from_millis(300));
    signal(&child, "-TERM");

    let status = wait_timeout(&mut child, Duration::from_secs(10)).expect("daemon aborted");
    assert_eq!(status.code(), Some(143), "exit code is 128 + SIGTERM(15)");
}
