//! The span hierarchy of a traced sweep: drained spans → Chrome trace
//! document, and the `TRACE_<bin>.json` file a traced `figures` run
//! writes. Spans are process-global, so this binary holds the only test
//! that toggles them in process; the others run the `figures` binary.

use mg_bench::{Scheme, SweepCell, SweepSpec};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::{Serialize, Value};
use std::collections::BTreeSet;

fn str_field<'a>(event: &'a Value, name: &str) -> &'a str {
    match event.field(name) {
        Ok(Value::Str(s)) => s,
        other => panic!("event field {name}: {other:?}"),
    }
}

/// A reduced traced sweep (2 benchmarks, 2 cells) leaves complete
/// (`"X"`) spans in every category of the sweep → bench → cell → stage
/// hierarchy. Its stage spans split context building into generation,
/// functional execution and slack profiling, selection into the
/// candidate pool (`enumerate`) and the selection proper (`select`), and
/// a selection is projected (`project`), never re-executed (`reexec`).
#[test]
fn traced_sweep_covers_the_span_hierarchy() {
    let red = MachineConfig::reduced();
    let benches = suite().into_iter().take(2).map(|mut b| {
        b.params.target_dyn = 4_000;
        b
    });
    mg_obs::span::set_enabled(true);
    let result = SweepSpec::new(&red)
        .benches(benches)
        .cell(SweepCell::new(Scheme::NoMg, &red))
        .cell(SweepCell::new(Scheme::StructAll, &red))
        .jobs(2)
        .disk_cache(false)
        .quiet(true)
        .try_run()
        .expect("traced sweep runs");
    mg_obs::span::set_enabled(false);
    assert_eq!(result.summary.failures, 0);

    let value = mg_obs::span::chrome_trace(mg_obs::span::drain()).to_value();
    let events = value
        .field("traceEvents")
        .ok()
        .and_then(Value::as_seq)
        .expect("traceEvents is a list");
    let cats: BTreeSet<&str> = events
        .iter()
        .filter(|e| str_field(e, "ph") == "X")
        .map(|e| str_field(e, "cat"))
        .collect();
    for want in ["sweep", "bench", "cell", "stage"] {
        assert!(
            cats.contains(want),
            "span hierarchy missing {want}: {cats:?}"
        );
    }
    let stages: BTreeSet<&str> = events
        .iter()
        .filter(|e| str_field(e, "ph") == "X" && str_field(e, "cat") == "stage")
        .map(|e| {
            let name = str_field(e, "name");
            name.rsplit_once('/').map_or(name, |(_, stage)| stage)
        })
        .collect();
    for want in [
        "generate",
        "execute",
        "profile",
        "enumerate",
        "select",
        "project",
        "simulate",
    ] {
        assert!(stages.contains(want), "no {want} stage span: {stages:?}");
    }
    assert!(!stages.contains("reexec"), "{stages:?}");
}

/// `MG_TRACE` is a plain flag: `json` is a configuration error naming
/// the knob, and the binary exits 2 before running anything.
#[test]
fn mg_trace_json_is_a_config_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig1", "1"])
        .env("MG_TRACE", "json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("MG_TRACE"), "{stderr}");
}

fn counter(counters: &Value, name: &str) -> u64 {
    match counters.field(name) {
        Ok(Value::I64(n)) => u64::try_from(*n).expect("counters are non-negative"),
        Ok(Value::U64(n)) => *n,
        Err(_) => 0,
        other => panic!("counter {name}: {other:?}"),
    }
}

/// `MG_TRACE=1 figures fig1 2` from a cold cache leaves the telemetry
/// dump and the span trace behind, and the dump's counters add up: five
/// cells per benchmark, one of them (no-mg on the reduced training
/// machine) served from the slack-profiling run, and one profiling run
/// per cache miss.
#[test]
fn traced_figures_run_counts_every_simulation() {
    let dir = std::env::temp_dir().join(format!("mg-trace-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig1", "2"])
        .current_dir(&dir)
        .env("MG_TRACE", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(dir.join("results/TELEMETRY_figures.json"))
        .expect("telemetry dump written");
    let tele = serde_json::parse_value_str(&text).expect("telemetry dump parses");
    let counters = tele
        .field("rows")
        .and_then(|rows| rows.field("counters"))
        .expect("rows.counters");
    assert!(
        counter(counters, "mg_sim_cycles_total") > 0,
        "engine cycles not counted"
    );
    let runs = counter(counters, "mg_sim_runs_total");
    let misses = counter(counters, "mg_cache_misses_total");
    assert_eq!(
        runs,
        misses + 4 * 2,
        "{runs} simulations for {misses} misses"
    );
    assert_eq!(counter(counters, "mg_sim_training_cell_reused_total"), 2);

    let text = std::fs::read_to_string(dir.join("results/TRACE_figures.json"))
        .expect("span trace written");
    let doc = serde_json::parse_value_str(&text).expect("span trace parses");
    let events = doc.field("traceEvents").ok().and_then(Value::as_seq);
    let cats: BTreeSet<&str> = events
        .expect("traceEvents is a list")
        .iter()
        .filter(|e| str_field(e, "ph") == "X")
        .map(|e| str_field(e, "cat"))
        .collect();
    for want in ["sweep", "bench", "cell", "stage"] {
        assert!(
            cats.contains(want),
            "span hierarchy missing {want}: {cats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
