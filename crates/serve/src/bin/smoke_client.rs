//! CI smoke client: submits a small batch to a running daemon and
//! asserts the streamed rows are bit-identical to a batch-mode
//! [`SweepSpec`] run of the same cells in this process.
//!
//! Exits 0 only if every streamed row matches its batch-mode twin
//! byte-for-byte under JSON serialization. Assumes the daemon trains on
//! the default `reduced` machine (mg-serve's default).
//!
//! Jobs run through the resilient [`Session`] wrapper, so a daemon
//! restart or dropped connection mid-smoke is ridden out by reconnect
//! + resume instead of failing the job.
//!
//! Flags: `--addr HOST:PORT` (required), `--connect-timeout-secs N`
//! (default 30, to ride out a daemon that is still starting; strictly
//! parsed: a bad value exits 2).

use mg_bench::SweepSpec;
use mg_serve::protocol::Request;
use mg_serve::{BackoffPolicy, Client, JobSpec, Session};
use mg_sim::MachineConfig;
use std::time::Duration;

fn smoke_requests() -> Vec<Request> {
    mg_workloads::suite()
        .iter()
        .take(2)
        .map(|bench| Request {
            id: format!("smoke-{}", bench.name),
            bench: bench.name.clone(),
            schemes: vec![
                "no-minigraphs".into(),
                "Struct-All".into(),
                "Slack-Dynamic".into(),
            ],
            machines: vec!["reduced".into(), "8way".into()],
            target_dyn: Some(2_000),
            deadline_ms: None,
            resume_from: None,
        })
        .collect()
}

fn main() {
    mg_bench::Config::init_cli();
    let mut addr: Option<String> = None;
    let mut policy = BackoffPolicy {
        deadline: Duration::from_secs(30),
        ..BackoffPolicy::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--connect-timeout-secs" => {
                let secs: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("smoke-client: --connect-timeout-secs needs an integer");
                    std::process::exit(2);
                });
                policy.deadline = Duration::from_secs(secs);
            }
            other => {
                eprintln!("smoke-client: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("smoke-client: --addr HOST:PORT is required");
        std::process::exit(2);
    };

    // One plain connect up front for the banner (and to wait out a
    // still-starting daemon); the jobs themselves go through Session.
    let client = Client::connect_with_retry(&addr, policy.deadline).unwrap_or_else(|e| {
        eprintln!("smoke-client: {e}");
        std::process::exit(1);
    });
    println!(
        "smoke-client: connected to {addr} (fingerprint {})",
        client.fingerprint()
    );
    drop(client);
    let mut session = Session::new(&addr, policy);

    let train = MachineConfig::reduced();
    let mut mismatches = 0usize;
    for request in smoke_requests() {
        // The streamed answer.
        let outcome = session.run_job(&request).unwrap_or_else(|e| {
            eprintln!("smoke-client: {}: {e}", request.id);
            std::process::exit(1);
        });
        if let Some((code, detail)) = &outcome.rejected {
            eprintln!("smoke-client: {} rejected: {code:?}: {detail}", request.id);
            std::process::exit(1);
        }

        // The batch-mode twin: same validated job, run through the
        // stock sweep runner in this process.
        let job = JobSpec::from_request(&request, &train).unwrap_or_else(|(code, e)| {
            eprintln!("smoke-client: {}: {code:?}: {e}", request.id);
            std::process::exit(1);
        });
        let batch = SweepSpec::new(&train)
            .bench(&job.bench)
            .cells(job.cells.iter().cloned())
            .quiet(true)
            .run();
        let batch_runs = &batch.rows[0].runs;

        if outcome.rows.len() != batch_runs.len() {
            eprintln!(
                "smoke-client: {}: {} streamed rows vs {} batch rows",
                request.id,
                outcome.rows.len(),
                batch_runs.len()
            );
            std::process::exit(1);
        }
        let mut streamed = outcome.rows;
        streamed.sort_by_key(|(cell, _)| *cell);
        for (cell, served) in &streamed {
            let batch_run = &batch_runs[*cell as usize];
            let same = match (served, batch_run) {
                (Ok(a), Ok(b)) => {
                    serde_json::to_string(a).unwrap() == serde_json::to_string(b).unwrap()
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if same {
                continue;
            }
            mismatches += 1;
            eprintln!(
                "smoke-client: MISMATCH {} cell {cell}: served {:?} vs batch {:?}",
                request.id, served, batch_run
            );
        }
        println!(
            "smoke-client: {}: {} cells bit-identical to batch mode",
            request.id,
            streamed.len()
        );
    }
    if mismatches > 0 {
        eprintln!("smoke-client: FAILED with {mismatches} mismatching cells");
        std::process::exit(1);
    }
    println!("smoke-client: all rows bit-identical to batch mode");
}
