//! A `--quick` run of every workload, untraced and traced: 6 benchmarks,
//! one rep, two short serve steps. Each run must pass its own output
//! checks and end with the JSON line the declared metrics go in.

use std::process::Command;

fn quick(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mg-perfbench"))
        .args(["run", "--quick", "--seed", "5", "--seconds", "10"])
        .args(["--workload", workload, "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}:\n{stdout}\n{stderr}"
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_passes_a_quick_run_untraced_and_traced() {
    for workload in ["fig1-cold", "fig1-warm", "short-all-schemes", "serve-open"] {
        let plain = quick(workload, "0");
        assert!(
            plain.starts_with("{\"correct\":true,"),
            "{workload}: {plain}"
        );
        assert!(plain.contains("\"failed\":0,"), "{workload}: {plain}");
        assert!(
            plain.contains("\"setup_s\":{\"value\":"),
            "{workload}: {plain}"
        );
        let traced = quick(workload, "1");
        assert!(
            traced.starts_with("{\"correct\":true,"),
            "{workload}: {traced}"
        );
        assert!(
            traced.contains("\"trace.unattributed_share\""),
            "{workload}: {traced}"
        );
        assert!(!traced.contains("\"setup_s\""), "{workload}: {traced}");
    }
}
