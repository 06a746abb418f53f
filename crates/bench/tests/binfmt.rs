//! Integration tests for the on-disk binary record format: checked-in
//! JSON-era journal and cache fixtures, and previous-generation binary
//! cache fixtures, must miss cleanly next to current binary records that
//! load, and corruption of a journaled sweep must be survived —
//! quarantined and re-run, never fatal, with bit-identical results.
//!
//! The current-generation fixture files under `tests/format/` are
//! regenerated by the `#[ignore]`d `regenerate_*_fixtures` unit tests
//! (`cargo test -p mg-bench --lib -- --ignored regenerate`); the older
//! ones are kept as they were written. This suite guarantees that a
//! stale record never turns into an error.

use mg_bench::{CacheOutcome, Journal, Scheme, SweepCell, SweepSpec};
use mg_sim::MachineConfig;
use mg_workloads::{suite, BenchmarkSpec, Suite};
use std::path::PathBuf;
use std::time::Duration;

fn fixture_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/format"))
}

/// Copies fixtures into a scratch directory: loads may mutate the
/// record set (quarantine), and the checked-in files must stay pristine.
fn scratch_copy(tag: &str, names: &[&str], sub: Option<&str>) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mg-binfmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dest = sub.map(|s| dir.join(s)).unwrap_or_else(|| dir.clone());
    std::fs::create_dir_all(&dest).expect("scratch dir");
    let src = sub
        .map(|s| fixture_root().join(s))
        .unwrap_or_else(fixture_root);
    for name in names {
        std::fs::copy(src.join(name), dest.join(name))
            .unwrap_or_else(|e| panic!("fixture {name} must exist: {e}"));
    }
    dir
}

/// The JSON-era journal fixture is a silent miss: not loaded, not
/// quarantined and not deleted. The binary fixture next to it replays
/// the demo payload with its float bits intact.
#[test]
fn journal_fixtures_json_era_row_misses_binary_row_replays() {
    let root = scratch_copy(
        "journal",
        &[
            "row-0000-000000000000002a.json",
            "row-0001-000000000000002b.mgb",
        ],
        Some("sweep-00000000000000f1"),
    );
    let journal = Journal::new(&root, 0xf1, vec![0x2a, 0x2b]);
    assert!(
        journal.load_row(0, 2).is_none(),
        "JSON-era fixture is not read"
    );
    assert!(journal
        .dir()
        .join("row-0000-000000000000002a.json")
        .exists());
    let binary = journal.load_row(1, 2).expect("binary fixture replays");
    assert_eq!(binary.bench, "mib_crc32");
    assert!(binary.replayed);
    assert_eq!(binary.cache, Some(CacheOutcome::DiskHit));
    assert_eq!(binary.wall, Duration::from_millis(1234));
    // The demo payload's floats come back by bit, not through text.
    let run = binary.runs[0].as_ref().expect("ok cell");
    assert_eq!(run.ipc.to_bits(), 1.25f64.to_bits());
    assert_eq!(run.coverage.to_bits(), 0.375f64.to_bits());
    assert_eq!(run.cycles, 4_800);
    assert!(binary.runs[1].is_err(), "error cells replay as errors");
    assert!(
        !journal.dir().join("quarantine").exists(),
        "fixtures must not be quarantined"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Previous-generation cache entries (a v2 binary record and a JSON-era
/// one) are stale: each misses silently, stays where it is, and nothing
/// lands in `quarantine/`. The current-generation fixture next to them
/// hits, with float bits and the training-run outcome intact.
#[test]
fn cache_fixtures_from_previous_generation_miss_cleanly() {
    let dir = scratch_copy(
        "cache",
        &[
            "ctx-000000000000002a.json",
            "ctx-000000000000002b.mgb",
            "ctx-000000000000002c.mgb",
        ],
        None,
    );
    let spec = BenchmarkSpec::new(Suite::MiBench, "sha");
    for key in [0x2a, 0x2b] {
        assert!(
            mg_bench::cache::disk_load_from(&dir, key, &spec).is_none(),
            "v2 fixture {key:#x} misses"
        );
    }
    assert!(dir.join("ctx-000000000000002a.json").exists());
    assert!(dir.join("ctx-000000000000002b.mgb").exists());
    assert!(
        !dir.join("ctx-000000000000002a.mgb").exists(),
        "JSON-era entry is not migrated"
    );
    assert!(
        !dir.join("quarantine").exists(),
        "stale fixtures must not be quarantined"
    );

    let hit = mg_bench::cache::disk_load_from(&dir, 0x2c, &spec).expect("v3 fixture hits");
    assert_eq!(hit.freqs, vec![1, 1, 449, 449, 449, 0, 0, 0, 253]);
    assert_eq!(
        hit.slack.per_static[0].issue_rel.to_bits(),
        1.5f64.to_bits(),
        "floats replay by bit"
    );
    assert_eq!(hit.training.stats.cycles, 4_321);
    assert_eq!(hit.training.stats.committed_instrs, 9_876);
    assert!(!hit.training.hit_cycle_cap);
    assert!(!dir.join("quarantine").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end corruption drill: a journaled sweep whose records are
/// torn and bit-flipped on disk resumes without panicking — damaged
/// rows are quarantined and re-executed, intact rows replay, and the
/// merged result is bit-identical to the clean reference.
#[test]
fn corrupted_journal_records_are_quarantined_and_rerun_bit_identically() {
    let root = std::env::temp_dir().join(format!("mg-binfmt-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let red = MachineConfig::reduced();
    let benches: Vec<BenchmarkSpec> = suite().iter().skip(20).take(3).cloned().collect();
    let spec = SweepSpec::new(&red)
        .benches(benches.iter().cloned())
        .cell(SweepCell::new(Scheme::NoMg, &red))
        .cell(SweepCell::new(Scheme::StructAll, &red))
        .jobs(2)
        .disk_cache(false)
        .quiet(true)
        .journal(true)
        .journal_dir(&root);

    let first = spec.try_run().expect("clean run");
    assert_eq!(first.summary.failures, 0);
    let reference: Vec<String> = first
        .rows
        .iter()
        .map(|r| format!("{}: {:?}", r.bench, r.runs))
        .collect();
    let journal_dir = first.summary.journal_dir.clone().expect("journaling on");
    let mut records: Vec<PathBuf> = std::fs::read_dir(&journal_dir)
        .expect("journal dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "mgb"))
        .collect();
    records.sort();
    assert_eq!(records.len(), benches.len(), "one binary record per row");

    // Tear one record mid-write and flip a payload bit in another.
    let torn = std::fs::read(&records[0]).unwrap();
    std::fs::write(&records[0], &torn[..torn.len() / 3]).unwrap();
    let mut flipped = std::fs::read(&records[1]).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&records[1], &flipped).unwrap();

    let resumed = spec
        .clone()
        .resume(true)
        .try_run()
        .expect("resume survives");
    assert_eq!(resumed.summary.failures, 0, "corruption is never fatal");
    assert_eq!(
        resumed.summary.replayed, 1,
        "only the intact record replays; damaged rows re-run"
    );
    let resumed_repr: Vec<String> = resumed
        .rows
        .iter()
        .map(|r| format!("{}: {:?}", r.bench, r.runs))
        .collect();
    assert_eq!(resumed_repr, reference, "re-runs are bit-identical");
    let quarantined = std::fs::read_dir(journal_dir.join("quarantine"))
        .map(|d| d.flatten().count())
        .unwrap_or(0);
    assert_eq!(quarantined, 2, "both damaged records kept for post-mortem");
    let _ = std::fs::remove_dir_all(&root);
}

/// A truncation so short even the container header is gone behaves the
/// same as any other corruption: quarantine and miss, no panic.
#[test]
fn header_short_truncation_is_quarantined_not_fatal() {
    let dir = std::env::temp_dir().join(format!("mg-binfmt-short-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = BenchmarkSpec::new(Suite::MiBench, "sha");
    let src = fixture_root().join("ctx-000000000000002c.mgb");
    let bytes = std::fs::read(src).expect("fixture exists");
    std::fs::write(dir.join("ctx-000000000000002c.mgb"), &bytes[..5]).unwrap();
    assert!(
        mg_bench::cache::disk_load_from(&dir, 0x2c, &spec).is_none(),
        "truncated record misses"
    );
    assert!(
        dir.join("quarantine").exists(),
        "truncated record quarantined"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pins the container-level guarantee directly: flipping any single
/// bit anywhere in a record — header, either section, or trailer —
/// makes the decode fail. (Some header flips are caught before the
/// checksum as bad magic / wrong kind / stale schema; every other flip
/// must land on the checksum.)
#[test]
fn every_bit_of_a_small_record_is_checksummed() {
    use mg_bench::binfmt::{self, RecordKind};
    let record = binfmt::to_record(RecordKind::JournalRow, 1, &vec![1u64, 2, 3]);
    for i in 0..record.len() {
        for mask in [0x01u8, 0x80u8] {
            let mut damaged = record.clone();
            damaged[i] ^= mask;
            let err = binfmt::open_value(&damaged, RecordKind::JournalRow, 1)
                .expect_err("a flipped bit must never decode");
            assert!(!format!("{err}").is_empty(), "errors stay reportable");
        }
    }
}
