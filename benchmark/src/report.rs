//! The metrics every run reports and how they are printed.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use crate::stats;
use serde::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload on an untraced run.
/// The unit of work is a whole sweep on the sweep workloads and one job
/// on `serve-open`.
pub const END_TO_END: &[(&str, &str)] = &[
    // Time of one unit of work. Sweep: each benchmark row's median over
    // the timed reps, summed, plus the median time outside the rows.
    // Serve: median job latency at the base rate, from the scheduled
    // send to `Done`.
    ("latency_ms", "ms"),
    // The run's repeated set-ups, summarised like a sweep's reps.
    ("setup_s", "s"),
    // Peak resident set of the benchmark process (VmHWM).
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload on a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("workloads.exec_s", "s"),
    ("workloads.reexec_s", "s"),
    ("workloads.exec_calls", "count"),
    ("workloads.exec_distinct", "count"),
    ("sim.profile_s", "s"),
    ("sim.engine_s", "s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cycles", "count"),
    ("sim.instrs", "count"),
    ("core.enumerate_s", "s"),
    ("core.filter_s", "s"),
    ("core.select_s", "s"),
    ("core.rewrite_s", "s"),
    ("core.prepare_calls", "count"),
    ("core.prepare_distinct", "count"),
    ("core.candidates", "count"),
    ("core.chosen", "count"),
    ("cache.context_s", "s"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.dir_bytes", "B"),
    ("journal.store_s", "s"),
    ("journal.resume_s", "s"),
    ("journal.rows", "count"),
    ("journal.dir_bytes", "B"),
    ("serve.max_rate_jps", "1/s"),
    ("serve.dedup_rate", "ratio"),
    ("serve.executions", "count"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.wire_share", "ratio"),
    ("serve.queue_wait_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
pub struct Report {
    pub workload: &'static str,
    /// Cells (sweeps) or requests (serve) attempted.
    pub attempted: u64,
    /// Attempted units that failed or came back wrong.
    pub failed: u64,
    /// Correctness-check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    /// Workload-specific detail printed beside the declared metrics.
    extras: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            values: BTreeMap::new(),
            extras: Vec::new(),
        }
    }

    /// Records a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records an undeclared, printed-only detail.
    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extras.push((name.into(), value, unit));
    }

    /// Prints a latency sample's median and its highest percentile with
    /// at least ten samples beyond it, with the sample count. Printed, not
    /// gated: on the reference machine these tails move 10-30% between
    /// runs of the same code.
    pub fn latencies(&mut self, what: &str, ms: &[f64]) {
        self.extra(format!("{what}_n"), ms.len() as f64, "count");
        self.extra(format!("{what}_p50_ms"), stats::median(ms), "ms");
        if let Some((value, rank)) = stats::tail(ms) {
            self.extra(format!("{what}_tail_ms"), value, "ms");
            self.extra(format!("{what}_tail_percentile"), rank, "%");
        }
    }

    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.error(msg());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The declared set for this kind of run, with each value; a missing
    /// or non-finite value is an error.
    pub fn declared(&mut self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Vec::new();
        for &(name, unit) in set {
            match self.values.get(name) {
                Some(v) if v.is_finite() => out.push((name, *v, unit)),
                _ => self.error(format!("metric {name} was not measured")),
            }
        }
        out
    }

    /// Prints `workload metric value unit` lines, the errors, and the
    /// closing JSON line. Returns whether the run passed.
    pub fn print(mut self, traced: bool) -> bool {
        let declared = self.declared(traced);
        for (name, value, unit) in &declared {
            println!("{} {name} {value} {unit}", self.workload);
        }
        for (name, value, unit) in &self.extras {
            println!("{} {name} {value} {unit}", self.workload);
        }
        for e in &self.errors {
            eprintln!("{}: CHECK FAILED: {e}", self.workload);
        }
        let ok = self.correct() && self.failed == 0;
        let metrics = declared
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("values serialize")
        );
        ok
    }

    /// Every recorded value, declared and extra, for the trace file.
    pub fn to_json(&self) -> Value {
        let declared = self
            .values
            .iter()
            .map(|(k, v)| (k.to_string(), Value::F64(*v)));
        let extras = self
            .extras
            .iter()
            .map(|(k, v, _)| (k.clone(), Value::F64(*v)));
        Value::Map(declared.chain(extras).collect())
    }
}
