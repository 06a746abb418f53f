//! End-to-end telemetry agreement: after a smoke sweep through a real
//! in-process server, the counters read through the `Stats` verb must
//! match what the clients counted — `Done` replies, dedup flags,
//! executions, and committed rows.
//!
//! The registry is process-global, so everything is asserted on deltas
//! against a snapshot taken before the sweep.

use mg_serve::metrics;
use mg_serve::protocol::Request;
use mg_serve::{Client, ServeConfig, Server};
use std::time::Duration;

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
fn stats_agree_with_client_counts() {
    mg_bench::clear_shutdown();
    let server = Server::bind(ServeConfig {
        disk_cache: false,
        ..ServeConfig::default()
    })
    .expect("bind server");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let before = mg_obs::telemetry::snapshot();

    // The smoke sweep: two distinct jobs plus one duplicate of the
    // first (same content, different id), each on its own connection.
    let mut outcomes = Vec::new();
    for (id, target) in [("smoke-a", 3_100), ("smoke-b", 3_200), ("smoke-a2", 3_100)] {
        let mut client =
            Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("connect");
        outcomes.push(client.run_job(&request(id, target)).expect("run job"));
    }
    for out in &outcomes {
        assert!(out.completed(), "rejected: {:?}", out.rejected);
    }

    // What the clients observed, independently of the server.
    let done_seen = outcomes.len() as u64;
    let dedup_seen = outcomes.iter().filter(|o| o.dedup).count() as u64;
    let executions = outcomes.iter().filter(|o| !o.dedup).count() as u64;
    let rows_per_job = outcomes[0].rows.len() as u64;
    assert!(dedup_seen >= 1, "the duplicate request was served by dedup");

    // The server's own view through the in-protocol Stats verb.
    let mut stats_client =
        Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("connect for stats");
    let stats = stats_client.stats("telemetry-check").expect("stats verb");
    let delta = |name: &str| stats.telemetry.counter(name) - before.counter(name);
    assert_eq!(delta(metrics::DONE_REPLIES), done_seen);
    assert_eq!(delta(metrics::DEDUP_REPLIES), dedup_seen);
    assert_eq!(delta(metrics::JOBS_COMPLETED), executions);
    assert_eq!(delta(metrics::JOBS_SUBMITTED), done_seen);
    assert_eq!(
        delta(metrics::ROWS_COMMITTED),
        executions * rows_per_job,
        "rows are committed once per execution, not per subscriber"
    );
    assert_eq!(stats.queue_depth, 0, "nothing left queued after the sweep");
    assert!(stats.workers >= 1);

    mg_bench::request_shutdown();
    let _ = server_thread.join();
    mg_bench::clear_shutdown();
}
