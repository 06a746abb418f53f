//! Benchmark of the on-disk record format: measures record size and
//! load/replay time for the binary `mg_bench::binfmt` containers against
//! the JSON view of the same records, and writes
//! `results/BENCH_format.json`.
//!
//! Usage: `format_bench [N]` limits the sweep to the first N
//! benchmarks (default: the full 78-bench suite, as CI's
//! `release-smoke` job runs it).
//!
//! The journal and cache layers are measured on *real* records: the
//! bench runs a single-cell sweep over the suite with journaling kept,
//! then re-reads every journal row and disk-cache entry it produced.
//! Each record is also rendered as JSON of its decoded value (the view
//! `export_json` writes, compact rather than pretty-printed), so both
//! formats decode the same data. Per-record columns divide the totals
//! by the record count (sizes) and by `REPS` × records (load times).
//!
//! Exits non-zero if the binary format fails its acceptance gates on
//! the two layers (journal + cache): records at least 3x smaller than
//! JSON and replay at least as fast.

use mg_bench::binfmt::{self, RecordKind};
use mg_bench::{save_json, Scheme, SweepCell, SweepSpec};
use mg_obs::mg_info;
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Instant;

/// Decode repetitions per layer, to lift load times out of timer noise.
const REPS: u32 = 10;

#[derive(Serialize)]
struct LayerRow {
    layer: String,
    records: usize,
    bin_bytes: u64,
    json_bytes: u64,
    bin_bytes_per_record: f64,
    json_bytes_per_record: f64,
    /// JSON bytes per binary byte (bigger is better for the binary format).
    size_ratio: f64,
    bin_load_us: u64,
    json_load_us: u64,
    bin_us_per_record: f64,
    json_us_per_record: f64,
    /// JSON load time per binary load time.
    load_speedup: f64,
}

/// One record measured in both formats: the sealed binary container
/// and the compact JSON view of the same decoded value.
struct Pair {
    bin: Vec<u8>,
    json: Vec<u8>,
}

fn pair_from_record(bytes: Vec<u8>) -> Option<Pair> {
    let json = serde_json::to_string(&decode_bin(&bytes)?)
        .ok()?
        .into_bytes();
    Some(Pair { bin: bytes, json })
}

fn decode_bin(bytes: &[u8]) -> Option<Value> {
    let header = binfmt::peek_header(bytes).ok()?;
    let kind = RecordKind::from_u16(header.kind)?;
    binfmt::open_value(bytes, kind, header.schema).ok()
}

fn decode_json(bytes: &[u8]) -> Option<Value> {
    serde_json::parse_value_str(std::str::from_utf8(bytes).ok()?).ok()
}

/// Measures one layer: total sizes, and wall time to decode every
/// record `REPS` times in each format.
fn measure(layer: &str, pairs: &[Pair]) -> LayerRow {
    let bin_bytes: u64 = pairs.iter().map(|p| p.bin.len() as u64).sum();
    let json_bytes: u64 = pairs.iter().map(|p| p.json.len() as u64).sum();
    let t = Instant::now();
    for _ in 0..REPS {
        for p in pairs {
            assert!(decode_bin(&p.bin).is_some(), "binary record must decode");
        }
    }
    let bin_load_us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
    let t = Instant::now();
    for _ in 0..REPS {
        for p in pairs {
            assert!(decode_json(&p.json).is_some(), "JSON record must parse");
        }
    }
    let json_load_us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
    let records = (pairs.len() as f64).max(1.0);
    let loads = records * f64::from(REPS);
    LayerRow {
        layer: layer.to_string(),
        records: pairs.len(),
        bin_bytes,
        json_bytes,
        bin_bytes_per_record: bin_bytes as f64 / records,
        json_bytes_per_record: json_bytes as f64 / records,
        size_ratio: json_bytes as f64 / (bin_bytes as f64).max(1.0),
        bin_load_us,
        json_load_us,
        bin_us_per_record: bin_load_us as f64 / loads,
        json_us_per_record: json_load_us as f64 / loads,
        load_speedup: json_load_us as f64 / (bin_load_us as f64).max(1.0),
    }
}

/// Collects every `.mgb` record under `dir` whose file name starts with
/// `prefix`, paired with its JSON view.
fn pairs_from_dir(dir: &Path, prefix: &str) -> Vec<Pair> {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<_> = listing
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == binfmt::EXT)
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(prefix))
        })
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| pair_from_record(std::fs::read(&p).ok()?))
        .collect()
}

fn main() {
    let cfg = mg_bench::Config::init_cli();
    let take: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);
    let red = MachineConfig::reduced();

    // Produce real journal rows and disk-cache entries: one cell per
    // bench, journal kept for measurement (driven via `try_run`, not
    // `run_cli`, precisely so the journal survives the sweep).
    let journal_root = Path::new("results").join("format-bench-journal");
    let _ = std::fs::remove_dir_all(&journal_root);
    let result = SweepSpec::new(&red)
        .benches(suite().iter().take(take).cloned())
        .cell(SweepCell::new(Scheme::SlackProfile, &red))
        .journal(true)
        .journal_dir(&journal_root)
        .jobs(cfg.effective_jobs())
        .try_run()
        .unwrap_or_else(|e| {
            eprintln!("format bench sweep failed: {e}");
            std::process::exit(2);
        });
    let journal_dir = result
        .summary
        .journal_dir
        .clone()
        .expect("sweep was journaled");

    let rows = vec![
        measure("journal", &pairs_from_dir(&journal_dir, "row-")),
        measure("cache", &pairs_from_dir(Path::new("results/cache"), "ctx-")),
    ];
    let _ = std::fs::remove_dir_all(&journal_root);

    println!("FORMAT BENCH: binary records vs their JSON view");
    println!(
        "layer          records  bin B/rec json B/rec   ratio  bin us/rec json us/rec  speedup"
    );
    for r in &rows {
        println!(
            "{:<14} {:>7} {:>10.0} {:>10.0} {:>6.2}x {:>11.1} {:>11.1} {:>7.2}x",
            r.layer,
            r.records,
            r.bin_bytes_per_record,
            r.json_bytes_per_record,
            r.size_ratio,
            r.bin_us_per_record,
            r.json_us_per_record,
            r.load_speedup
        );
    }

    let path = save_json("BENCH_format", &rows);
    mg_info!("format benchmark written to {}", path.display());

    // Acceptance gates on the two layers, which replay on resume.
    let (bin_b, json_b, bin_us, json_us) = rows.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.bin_bytes,
            acc.1 + r.json_bytes,
            acc.2 + r.bin_load_us,
            acc.3 + r.json_load_us,
        )
    });
    if rows.iter().any(|r| r.records == 0) {
        eprintln!("FORMAT GATE FAILED: a durability layer produced no records to measure");
        std::process::exit(1);
    }
    if json_b < 3 * bin_b {
        eprintln!(
            "FORMAT GATE FAILED: binary journal+cache records are only {:.2}x smaller than JSON (need 3x)",
            json_b as f64 / (bin_b as f64).max(1.0)
        );
        std::process::exit(1);
    }
    if bin_us > json_us {
        eprintln!("FORMAT GATE FAILED: binary replay took {bin_us}us vs {json_us}us for JSON");
        std::process::exit(1);
    }
    println!(
        "format gates ok: journal+cache {:.2}x smaller, replay {:.2}x faster",
        json_b as f64 / (bin_b as f64).max(1.0),
        json_us as f64 / (bin_us as f64).max(1.0)
    );
}
