//! Observability driver: runs one benchmark with the pipeline observer
//! attached and dumps everything it produced — the binary trace record
//! `results/OBS_<bench>.mgb`, a Konata-style text pipeview of the run's
//! tail, the per-slot stall-attribution table, and the queue-occupancy
//! summary.
//!
//! Usage: `obs [BENCH] [SCHEME] [TARGET_DYN]`
//!
//! * `BENCH` — benchmark name from the suite (default `mib_crc32`)
//! * `SCHEME` — scheme display name, e.g. `Struct-All`, `no-minigraphs`,
//!   `Slack-Profile` (default `Struct-All`)
//! * `TARGET_DYN` — dynamic-instruction target (default 30000)
//!
//! `export_json results/OBS_<bench>.mgb` writes the record's
//! pretty-printed JSON debug view. The process exits non-zero if the
//! stall attribution fails its conservation check (every issue-slot
//! cycle charged exactly once) — CI's `release-smoke` job relies on this.

use mg_bench::binfmt::{self, RecordKind};
use mg_bench::{save_bin, BenchContext, ObsSection, Scheme, SCHEMA_VERSION};
use mg_sim::MachineConfig;
use mg_workloads::suite;

fn main() {
    mg_bench::Config::init_cli();
    let positional: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = positional.iter().find(|a| a.starts_with("--")) {
        eprintln!(
            "unknown flag {flag:?}; usage: obs [BENCH] [SCHEME] [TARGET_DYN] \
             (export_json FILE.mgb writes the JSON view)"
        );
        std::process::exit(2);
    }
    let bench = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "mib_crc32".into());
    let scheme_name = positional
        .get(1)
        .cloned()
        .unwrap_or_else(|| "Struct-All".into());
    let target_dyn: usize = positional
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    let Some(mut spec) = suite().into_iter().find(|s| s.name == bench) else {
        eprintln!("unknown benchmark {bench:?}; names look like mib_crc32, spec_mcf");
        std::process::exit(2);
    };
    let Some(scheme) = Scheme::from_name(&scheme_name) else {
        let names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        eprintln!(
            "unknown scheme {scheme_name:?}; one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    spec.params.target_dyn = target_dyn;

    let red = MachineConfig::reduced();
    let ctx = match BenchContext::builder(&spec, &red).build() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("context build failed: {e}");
            std::process::exit(1);
        }
    };
    let (run, report) = match ctx.try_run_obs(scheme, &red) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("instrumented run failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{} under {}: {} cycles, IPC {:.3}, coverage {:.3}",
        spec.name,
        scheme.name(),
        run.cycles,
        run.ipc,
        run.coverage
    );

    let (lo, hi) = report.tail_window(64);
    println!("\npipeview, cycles [{lo}, {hi}):");
    print!("{}", report.pipeview(lo, hi));
    if report.trace_dropped > 0 {
        println!(
            "({} earlier ops fell out of the {}-entry trace ring)",
            report.trace_dropped,
            report.trace.len()
        );
    }

    println!("\nstall attribution over {} cycles:", report.cycles);
    print!("{}", report.stalls.render());

    let occ = &report.occupancy;
    println!("\noccupancy (mean / p95 / %full):");
    for (name, h) in [
        ("iq", &occ.iq),
        ("rob", &occ.rob),
        ("lq", &occ.lq),
        ("sq", &occ.sq),
    ] {
        println!(
            "  {:<4} {:>7.2} {:>5} {:>6.1}%",
            name,
            h.mean(),
            h.quantile(0.95),
            100.0 * h.frac_full()
        );
    }

    let section = ObsSection::new(&spec.name, scheme, report);
    let name = format!("OBS_{}", spec.name);
    let path = save_bin(&name, RecordKind::ObsDump, &section);
    println!("\ntrace dump written to {}", path.display());

    // When run from the workspace root (as CI does), validate the dump
    // just written against the checked-in schema — decoded straight
    // from the binary record, so the canonical artifact is what gets
    // checked.
    let schema_path = std::path::Path::new("crates/bench/tests/obs/trace.schema.json");
    if schema_path.exists() {
        let written = std::fs::read(&path).expect("read back trace dump");
        let value = binfmt::open_value(&written, RecordKind::ObsDump, SCHEMA_VERSION)
            .expect("trace dump reopens");
        let schema_text = std::fs::read_to_string(schema_path).expect("read schema");
        let schema = serde_json::parse_value_str(&schema_text).expect("schema parses");
        match mg_obs::schema::validate(&value, &schema) {
            Ok(()) => println!("trace dump validates against {}", schema_path.display()),
            Err(e) => {
                eprintln!("trace dump violates {}: {e}", schema_path.display());
                std::process::exit(1);
            }
        }
    }

    if !section.conservation_ok() {
        eprintln!("stall attribution FAILED conservation: slot counts do not sum to cycles");
        std::process::exit(1);
    }
    println!("stall attribution conserves cycles: ok");
}
