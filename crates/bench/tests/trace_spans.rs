//! The span hierarchy of a traced sweep, read the way `export_json`
//! reads a `TRACE_<bin>.mgb` record: drained spans → Chrome trace
//! document → binary span-trace record → decoded JSON value. Spans are
//! process-global, so this binary holds the only test that toggles them.

use mg_bench::binfmt::{self, RecordKind};
use mg_bench::{Scheme, SweepCell, SweepSpec};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::Value;
use std::collections::BTreeSet;

fn str_field<'a>(event: &'a Value, name: &str) -> &'a str {
    match event.field(name) {
        Ok(Value::Str(s)) => s,
        other => panic!("event field {name}: {other:?}"),
    }
}

/// A reduced traced sweep (2 benchmarks, 2 cells) leaves complete
/// (`"X"`) spans in every category of the sweep → bench → cell → stage
/// hierarchy.
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

    let doc = mg_obs::span::chrome_trace(mg_obs::span::drain());
    let bytes = binfmt::to_record(RecordKind::SpanTrace, binfmt::SPAN_TRACE_SCHEMA, &doc);
    let value = binfmt::open_value(&bytes, RecordKind::SpanTrace, binfmt::SPAN_TRACE_SCHEMA)
        .expect("span record decodes");
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
