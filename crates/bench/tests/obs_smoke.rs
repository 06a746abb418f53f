//! End-to-end smoke of the observability stack: conservation of stall
//! attribution against the engine's own cycle count, schema validity of
//! the emitted report JSON, the `obs` binary's committed report,
//! sweep-level aggregation, and bit-identical statistics with the
//! observer attached.

use mg_bench::{
    machine_fingerprint, BenchContext, Envelope, ObsSection, Scheme, SchemeRun, SweepCell,
    SweepSpec, SCHEMA_VERSION,
};
use mg_obs::ObsReport;
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

/// mib_crc32's Struct-All cell on the reduced machine, run observed:
/// its condensed row and the observer's report.
fn observed_struct_all() -> (SchemeRun, ObsReport) {
    let ctx = ctx("mib_crc32");
    let cell = SweepCell::new(Scheme::StructAll, &MachineConfig::reduced());
    let (mut r, est_coverage) = ctx
        .try_cell(&cell, true)
        .expect("instrumented run succeeds");
    let report = r.obs.take().expect("an observed cell returns a report");
    let run = SchemeRun::try_from_sim(&ctx.spec.name, cell.scheme, r, est_coverage)
        .expect("instrumented run succeeds");
    (run, report)
}

#[test]
fn stall_attribution_conserves_engine_cycles() {
    let (run, report) = observed_struct_all();
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
    let ctx = ctx("mib_crc32");
    let p = ctx
        .prepare_sim(&SweepCell::new(Scheme::StructAll, &red))
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
fn report_json_matches_checked_in_schema() {
    let (_, report) = observed_struct_all();
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        rows: ObsSection::new("mib_crc32", Scheme::StructAll, report),
    };
    let value = envelope.to_value();
    let schema_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/obs/report.schema.json");
    let schema_text = std::fs::read_to_string(schema_path).expect("schema file readable");
    let schema = serde_json::parse_value_str(&schema_text).expect("schema file parses");
    if let Err(e) = mg_obs::schema::validate(&value, &schema) {
        panic!("report JSON violates tests/obs/report.schema.json: {e}");
    }
}

/// `obs` with default arguments, run in an empty directory, writes
/// `results/OBS_mib_crc32.json` byte-identical to the committed report,
/// and no binary record beside it (only the disk cache under
/// `results/cache/` is binary).
#[test]
fn obs_binary_reproduces_the_committed_report() {
    let dir = std::env::temp_dir().join(format!("mg-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs"))
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read(dir.join("results/OBS_mib_crc32.json")).expect("report written");
    let committed = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/OBS_mib_crc32.json"
    );
    let committed = std::fs::read(committed).expect("committed report readable");
    assert!(
        written == committed,
        "results/OBS_mib_crc32.json differs from the committed report"
    );
    let binary: Vec<_> = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == mg_bench::binfmt::EXT))
        .collect();
    assert!(binary.is_empty(), "binary records written: {binary:?}");
    let _ = std::fs::remove_dir_all(&dir);
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
