//! Golden-stats regression test: the engine's observable outputs on the
//! full 78-benchmark suite must be byte-identical to the committed
//! snapshot taken from the pre-refactor engine.
//!
//! Regenerate with:
//!
//! ```text
//! MG_GOLDEN_REGEN=1 cargo test -p mg-bench --test golden
//! ```
//!
//! The snapshot is legitimate to regenerate only when the engine's
//! *modeled behaviour* intentionally changes (a new feature, a modeling
//! bug fix) — never to paper over an unintended divergence introduced by
//! a performance refactor.

use mg_bench::golden::{golden_suite, GoldenRow};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/engine_stats.json"
);

#[test]
fn engine_stats_match_golden_snapshot() {
    let jobs = mg_bench::Config::from_env()
        .expect("MG_JOBS parses")
        .effective_jobs();
    let rows = golden_suite(jobs);
    assert_eq!(rows.len(), 78, "golden digest covers the full suite");

    if std::env::var("MG_GOLDEN_REGEN").is_ok() {
        let json = serde_json::to_string_pretty(&rows).expect("serialize golden rows");
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("create golden dir");
        std::fs::write(GOLDEN_PATH, json).expect("write golden snapshot");
        eprintln!("golden snapshot regenerated at {GOLDEN_PATH}");
        return;
    }

    let want_json = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing — regenerate with MG_GOLDEN_REGEN=1");
    let want: Vec<GoldenRow> = serde_json::from_str(&want_json).expect("golden snapshot parses");
    assert_eq!(
        rows.len(),
        want.len(),
        "suite size changed vs. golden snapshot"
    );
    let mut mismatches = Vec::new();
    for (got, exp) in rows.iter().zip(&want) {
        if got != exp {
            // Narrow the report to the first differing field.
            let detail = if got.freqs_hash != exp.freqs_hash {
                "freqs_hash".to_string()
            } else if got.slack_hash != exp.slack_hash {
                "slack_hash".to_string()
            } else if got.fig1_json != exp.fig1_json {
                format!(
                    "fig1_json:\n  got: {}\n  exp: {}",
                    got.fig1_json, exp.fig1_json
                )
            } else {
                got.cells
                    .iter()
                    .zip(&exp.cells)
                    .find(|(g, e)| g != e)
                    .map(|(g, e)| {
                        format!(
                            "cell {}/{}:\n  got: {} (ipc {})\n  exp: {} (ipc {})",
                            g.scheme, g.machine, g.stats, g.ipc_bits, e.stats, e.ipc_bits
                        )
                    })
                    .unwrap_or_else(|| "cell count".to_string())
            };
            mismatches.push(format!("{}: {}", got.bench, detail));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} benchmark(s) diverged from the golden snapshot:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
