//! End-to-end smoke of the observability stack: conservation of stall
//! attribution against the engine's own cycle count, schema validity of
//! the emitted trace JSON, pipeview rendering, sweep-level aggregation,
//! and bit-identical statistics with the observer attached.

use mg_bench::{
    machine_fingerprint, BenchContext, Envelope, ObsSection, Scheme, SweepCell, SweepSpec,
    SCHEMA_VERSION,
};
use mg_sim::MachineConfig;
use mg_workloads::{suite, BenchmarkSpec};
use serde::Serialize;

fn short_spec(name: &str) -> BenchmarkSpec {
    let mut s = suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark in suite");
    s.params.target_dyn = 10_000;
    s
}

fn ctx(name: &str) -> BenchContext {
    let red = MachineConfig::reduced();
    BenchContext::builder(&short_spec(name), &red)
        .disk_cache(false)
        .build()
        .expect("context builds")
}

#[test]
fn stall_attribution_conserves_engine_cycles() {
    let red = MachineConfig::reduced();
    let (run, report) = ctx("mib_crc32")
        .try_run_obs(Scheme::StructAll, &red)
        .expect("instrumented run succeeds");
    assert_eq!(
        report.cycles, run.cycles,
        "the report covers exactly the run's cycles"
    );
    assert!(
        report.conservation_ok(),
        "every issue slot must be charged exactly once per cycle"
    );
    assert!(report.committed_instrs > 0);
    assert_eq!(report.issue_width, report.stalls.width);
}

#[test]
fn observer_does_not_perturb_the_simulation() {
    let red = MachineConfig::reduced();
    let p = ctx("mib_crc32")
        .prepare_sim(Scheme::StructAll, &red, None, None)
        .expect("cell prepares");
    let plain = p.simulate();
    let mut instrumented = p.clone();
    instrumented.opts.obs = true;
    let observed = instrumented.simulate();
    assert_eq!(
        plain.stats, observed.stats,
        "attaching the observer must not change a single statistic"
    );
    assert!(plain.obs.is_none());
    assert!(observed.obs.is_some());
}

#[test]
fn pipeview_renders_the_tail_of_the_run() {
    let red = MachineConfig::reduced();
    let (_, report) = ctx("mib_crc32")
        .try_run_obs(Scheme::StructAll, &red)
        .expect("instrumented run succeeds");
    let (lo, hi) = report.tail_window(32);
    let view = report.pipeview(lo, hi);
    assert!(view.contains("seq"), "header row present");
    assert!(
        view.lines().count() > 2,
        "the tail window shows ops:\n{view}"
    );
    assert!(
        view.contains('T'),
        "ops commit in the tail of a finished run:\n{view}"
    );
}

#[test]
fn trace_json_matches_checked_in_schema() {
    let red = MachineConfig::reduced();
    let (_, report) = ctx("mib_crc32")
        .try_run_obs(Scheme::StructAll, &red)
        .expect("instrumented run succeeds");
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        rows: ObsSection::new("mib_crc32", Scheme::StructAll, report),
    };
    let value = envelope.to_value();
    let schema_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/obs/trace.schema.json");
    let schema_text = std::fs::read_to_string(schema_path).expect("schema file readable");
    let schema = serde_json::parse_value_str(&schema_text).expect("schema file parses");
    if let Err(e) = mg_obs::schema::validate(&value, &schema) {
        panic!("trace JSON violates tests/obs/trace.schema.json: {e}");
    }
}

#[test]
fn observed_sweep_aggregates_and_conserves() {
    let red = MachineConfig::reduced();
    let result = SweepSpec::new(&red)
        .bench(&short_spec("mib_crc32"))
        .bench(&short_spec("mib_sha"))
        .cell(SweepCell::new(Scheme::NoMg, &red))
        .cell(SweepCell::new(Scheme::StructAll, &red))
        .disk_cache(false)
        .quiet(true)
        .jobs(2)
        .observe(true)
        .run();
    assert_eq!(result.summary.failures, 0);
    assert_eq!(result.obs.len(), result.rows.len());
    for (row, agg) in result.rows.iter().zip(&result.obs) {
        let agg = agg
            .as_ref()
            .expect("observed sweep fills per-bench aggregates");
        assert_eq!(agg.runs, 2, "{}: one report per cell", row.bench);
        assert!(agg.conservation_ok(), "{}: aggregate conserves", row.bench);
    }
    let total = result.obs_aggregate();
    assert_eq!(total.runs, 4);
    assert!(total.conservation_ok());
    assert!(total.render().contains("4 runs"));
}
