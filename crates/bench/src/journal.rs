//! Crash-safe sweep journal: finished benchmark rows persisted one file
//! at a time, so an interrupted multi-minute campaign resumes instead
//! of restarting.
//!
//! Layout: `results/journal/sweep-<key>/row-<idx>-<rowkey>.mgb`, where
//! `<key>` identifies the sweep shape (cells, inputs, training machine,
//! machine fingerprint) and `<rowkey>` is a content hash over everything
//! that determines the row — the same ingredients as the context
//! cache's key plus the cell list. A journal can therefore never replay
//! a row into a sweep it does not belong to: a changed spec, machine,
//! or schema changes the key and the stale record is simply ignored.
//!
//! Every record is written via unique-temp-file + atomic rename as a
//! checksummed [`crate::binfmt`] container
//! ([`crate::binfmt::RecordKind::JournalRow`]), so a record either
//! exists completely and verifies, or it is quarantined and treated as
//! absent; a process killed mid-write never leaves torn state.
//! Only *finished* rows are journaled — failed cells are finished
//! (their errors are deterministic and replay bit-identically) but
//! rows skipped by a shutdown are not, so a resume re-runs exactly the
//! work that never completed.
//!
//! Journal I/O is best-effort, like the context cache: an unwritable
//! directory degrades to journaling nothing, but every write failure is
//! logged and counted (`mg_journal_write_errors_total`) instead of
//! silently swallowed, and corrupt records land in
//! `<sweep-dir>/quarantine/` for post-mortem
//! (`mg_journal_quarantined_total`).
//!
//! # Key derivation
//!
//! Row identity is shared by every front end — the CLI `figures` binary
//! and an `mg-serve` submitted job that describe the same work derive the
//! same keys, so results coalesce and replay across them:
//!
//! 1. [`sweep_repr`] renders the sweep *shape*: the machine-family
//!    fingerprint ([`machine_fingerprint`]), the training machine, both
//!    input selections, and the ordered cell list, all via `Debug`
//!    formatting of plain-data configs (deterministic, and any shape
//!    change conservatively invalidates old records).
//! 2. [`row_key`] hashes (FNV-1a, via [`stable_hash64`]) the journal
//!    schema version, the benchmark's name and params, and the shared
//!    `sweep_repr` — everything that determines the row's bytes.
//! 3. The sweep directory name is `stable_hash64(sweep_repr)`; each row
//!    file embeds its `row_key` and is revalidated on load.
//!
//! Anything that would change a result — a different machine, cell
//! order, input, `target_dyn`, schema bump — lands in a different key;
//! anything that would not (worker count, logging, who submitted the
//! job) is deliberately excluded.

use crate::binfmt::{self, RecordKind};
use crate::cache::{publish, quarantine_into, stable_hash64, CacheOutcome};
use crate::harness::{machine_fingerprint, BenchError, SchemeRun};
use crate::runner::BenchRows;
use mg_obs::mg_error;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version tag for journal records. Bump on any change to the record
/// shape or semantics; old records are then ignored (not replayed).
pub const JOURNAL_SCHEMA: u32 = 1;

/// Root directory for sweep journals, relative to the working directory
/// (the workspace root for `cargo run`).
pub const JOURNAL_DIR: &str = "results/journal";

/// A cell result as persisted; mirrors `Result<SchemeRun, BenchError>`,
/// which the serde shim cannot encode directly.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum JournalCell {
    Ok(SchemeRun),
    Err(BenchError),
}

/// One journaled benchmark row: everything needed to reconstruct its
/// [`BenchRows`] without re-running any cell.
#[derive(Serialize, Deserialize)]
struct JournalRow {
    schema_version: u32,
    bench: String,
    row_index: usize,
    /// Row content key in hex, revalidated against the spec on load.
    row_key: String,
    cells: Vec<JournalCell>,
    /// Original wall time of the task, for summary accounting.
    wall_ms: u64,
    /// Original context-cache outcome tag (`mem`/`disk`/`miss`).
    cache: Option<String>,
}

/// Where one sweep's records live, plus the per-row content keys.
///
/// Public because `mg-serve` journals its accepted jobs through exactly
/// this layer (one record per *cell*, via [`Journal::store_cell`] /
/// [`Journal::load_cell`]), so a SIGKILL'd daemon restarted on the same
/// results directory re-derives finished cells instead of re-executing
/// them — with the same atomic-rename + checksum guarantees CLI sweeps
/// get.
#[derive(Clone, Debug)]
pub struct Journal {
    dir: PathBuf,
    row_keys: Vec<u64>,
}

impl Journal {
    /// Opens (without creating) the journal for a sweep. `row_keys[i]`
    /// must be the content key of benchmark row `i`; `sweep_key` names
    /// the directory.
    pub fn new(root: &Path, sweep_key: u64, row_keys: Vec<u64>) -> Journal {
        Journal {
            dir: root.join(format!("sweep-{sweep_key:016x}")),
            row_keys,
        }
    }

    /// The journal's directory (for resume hints and artifacts).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn row_name(&self, idx: usize) -> String {
        format!("row-{idx:04}-{:016x}.{}", self.row_keys[idx], binfmt::EXT)
    }

    fn row_path(&self, idx: usize) -> PathBuf {
        self.dir.join(self.row_name(idx))
    }

    fn quarantine(&self, path: &Path, why: &str) {
        quarantine_into(
            &self.dir.join("quarantine"),
            path,
            why,
            "mg_journal_quarantined_total",
        );
    }

    /// Loads and validates row `idx`, reconstructing its [`BenchRows`].
    /// `None` on any mismatch — the caller then just re-runs the row.
    /// Absent, stale-schema, wrong-key, and wrong-cell-count records
    /// miss silently; corrupt records (torn, bit-flipped, truncated)
    /// additionally move to the sweep's `quarantine/` directory.
    pub fn load_row(&self, idx: usize, cell_count: usize) -> Option<BenchRows> {
        let path = self.row_path(idx);
        let bytes = std::fs::read(&path).ok()?;
        let decoded = binfmt::from_record(&bytes, RecordKind::JournalRow, JOURNAL_SCHEMA);
        let row: JournalRow = match decoded {
            Ok(row) => row,
            Err(err) => {
                if err.is_corrupt() {
                    self.quarantine(&path, &err.to_string());
                }
                return None;
            }
        };
        if row.schema_version != JOURNAL_SCHEMA
            || row.row_index != idx
            || row.row_key != format!("{:016x}", self.row_keys[idx])
            || row.cells.len() != cell_count
        {
            return None;
        }
        mg_obs::tele_counter!("mg_journal_replays_total").inc();
        Some(BenchRows {
            bench: row.bench,
            runs: row
                .cells
                .into_iter()
                .map(|c| match c {
                    JournalCell::Ok(run) => Ok(run),
                    JournalCell::Err(e) => Err(e),
                })
                .collect(),
            wall: Duration::from_millis(row.wall_ms),
            cache: row.cache.as_deref().and_then(CacheOutcome::from_tag),
            replayed: true,
            retries: 0,
        })
    }

    /// Loads the single-cell record written by [`Journal::store_cell`]
    /// for cell `idx`; `None` on any mismatch, like [`Journal::load_row`].
    pub fn load_cell(&self, idx: usize) -> Option<Result<SchemeRun, BenchError>> {
        self.load_row(idx, 1)
            .and_then(|rows| rows.runs.into_iter().next())
    }

    /// Persists one finished cell outcome as a single-cell record — the
    /// granularity `mg-serve` workers journal at, so a daemon killed
    /// mid-job loses at most the one cell in flight.
    pub fn store_cell(
        &self,
        idx: usize,
        bench: &str,
        outcome: &Result<SchemeRun, BenchError>,
        wall: Duration,
    ) {
        let rows = BenchRows {
            bench: bench.to_string(),
            runs: vec![outcome.clone()],
            wall,
            cache: None,
            replayed: false,
            retries: 0,
        };
        self.store_row(idx, &rows);
    }

    /// Persists a finished row (atomic temp + rename, checksummed
    /// binary record). Best-effort: failures journal nothing and the
    /// sweep carries on — but every failure is logged and counted, so
    /// a journal that quietly stops persisting is visible.
    pub fn store_row(&self, idx: usize, rows: &BenchRows) {
        let row = JournalRow {
            schema_version: JOURNAL_SCHEMA,
            bench: rows.bench.clone(),
            row_index: idx,
            row_key: format!("{:016x}", self.row_keys[idx]),
            cells: rows
                .runs
                .iter()
                .map(|r| match r {
                    Ok(run) => JournalCell::Ok(run.clone()),
                    Err(e) => JournalCell::Err(e.clone()),
                })
                .collect(),
            wall_ms: u64::try_from(rows.wall.as_millis()).unwrap_or(u64::MAX),
            cache: rows.cache.map(|c| c.tag().to_string()),
        };
        let bytes = binfmt::to_record(RecordKind::JournalRow, JOURNAL_SCHEMA, &row);
        match publish(&self.dir, &self.row_name(idx), &bytes) {
            Ok(()) => mg_obs::tele_counter!("mg_journal_appends_total").inc(),
            Err((step, err)) => write_failed(step, &self.row_path(idx), &err),
        }
    }

    /// Removes the sweep's journal directory, as
    /// [`crate::supervisor::run_cli`] does (via the summary's
    /// `journal_dir`) after a sweep completes uninterrupted: its records
    /// have served their purpose and would otherwise accumulate per
    /// spec forever.
    #[cfg(test)]
    pub(crate) fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Logs and counts a failed journal write: the row simply re-runs on
/// resume, but the operator can see the journal is not persisting
/// instead of discovering it after a crash.
fn write_failed(what: &str, path: &Path, err: &dyn std::fmt::Display) {
    mg_obs::tele_counter!("mg_journal_write_errors_total").inc();
    mg_error!(
        "journal: failed to {what} {} ({err}); this row will re-run on resume",
        path.display()
    );
}

/// The content key of benchmark row `bench` inside a sweep whose cells
/// and training setup render as `sweep_repr`. Uses `Debug` formatting of
/// plain-data configs, like the context cache: deterministic, and any
/// shape change conservatively invalidates old records. Public so other
/// front ends (`mg-serve`) can derive the identical key for the
/// identical work; see the module-level *Key derivation* section.
pub fn row_key(bench: &mg_workloads::BenchmarkSpec, sweep_repr: &str) -> u64 {
    let repr = format!(
        "v{JOURNAL_SCHEMA}|{}|{:?}|{sweep_repr}",
        bench.name, bench.params
    );
    stable_hash64(repr.as_bytes())
}

/// The sweep-shape repr shared by every row key (and, hashed, the
/// journal directory name): cells, input selection, training machine,
/// and the machine-family fingerprint. See the module-level *Key
/// derivation* section.
pub fn sweep_repr(
    train_cfg: &mg_sim::MachineConfig,
    train_input: &crate::runner::InputSel,
    run_input: &crate::runner::InputSel,
    cells: &[crate::runner::SweepCell],
) -> String {
    format!(
        "{}|{train_cfg:?}|{train_input:?}|{run_input:?}|{cells:?}",
        machine_fingerprint()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scheme;

    fn demo_rows(bench: &str) -> BenchRows {
        BenchRows {
            bench: bench.to_string(),
            runs: vec![
                Ok(SchemeRun {
                    scheme: Scheme::StructAll,
                    ipc: 1.25,
                    cycles: 4_800,
                    coverage: 0.375,
                    est_coverage: 0.4,
                    disabled_templates: 0,
                    serialized_handles: 12,
                    dl1_miss_rate: 0.01,
                }),
                Err(BenchError::Panicked {
                    bench: bench.to_string(),
                    cell: 1,
                    payload: "mg-fault: injected panic".into(),
                }),
            ],
            wall: Duration::from_millis(1234),
            cache: Some(CacheOutcome::DiskHit),
            replayed: false,
            retries: 0,
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mg-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips_ok_and_error_cells() {
        let root = temp_root("roundtrip");
        let journal = Journal::new(&root, 0xabcd, vec![11, 22]);
        let rows = demo_rows("mib_sha");
        journal.store_row(1, &rows);
        let back = journal.load_row(1, 2).expect("row replays");
        assert!(back.replayed);
        assert_eq!(back.bench, "mib_sha");
        assert_eq!(back.wall, Duration::from_millis(1234));
        assert_eq!(back.cache, Some(CacheOutcome::DiskHit));
        let ok = back.runs[0].as_ref().unwrap();
        assert_eq!(ok.cycles, 4_800);
        assert_eq!(ok.ipc.to_bits(), 1.25f64.to_bits(), "floats replay by bit");
        assert!(matches!(
            back.runs[1],
            Err(BenchError::Panicked { cell: 1, .. })
        ));
        // Absent rows and wrong cell counts do not replay.
        assert!(journal.load_row(0, 2).is_none());
        assert!(journal.load_row(1, 3).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_or_rekeyed_records_are_ignored() {
        let root = temp_root("corrupt");
        let journal = Journal::new(&root, 1, vec![42]);
        journal.store_row(0, &demo_rows("mib_crc32"));
        assert!(journal.load_row(0, 2).is_some());

        // Truncate the record: torn writes never replay, and the torn
        // file moves to quarantine for post-mortem.
        let path = journal.row_path(0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(journal.load_row(0, 2).is_none());
        assert!(!path.exists(), "torn record removed from the journal");
        let quarantined = || {
            std::fs::read_dir(journal.dir().join("quarantine"))
                .map(|d| d.flatten().count())
                .unwrap_or(0)
        };
        assert_eq!(quarantined(), 1, "torn record preserved in quarantine");

        // Flip one payload bit: the checksum catches it.
        journal.store_row(0, &demo_rows("mib_crc32"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(journal.load_row(0, 2).is_none());
        assert_eq!(quarantined(), 2, "bit-flipped record quarantined too");

        // Same directory, different row key: stale records never replay
        // (and are not quarantined — they are valid, just not ours).
        journal.store_row(0, &demo_rows("mib_crc32"));
        let rekeyed = Journal::new(&root, 1, vec![43]);
        assert!(rekeyed.load_row(0, 2).is_none());

        journal.clear();
        assert!(!journal.dir().exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A JSON-era row (`row-*.json`) is never read: row 0 misses
    /// silently, its file stays where it is and nothing is quarantined,
    /// while the binary row next to it replays.
    #[test]
    fn json_era_rows_are_silent_misses() {
        let root = temp_root("json-era");
        let journal = Journal::new(&root, 0xdead, vec![5, 6]);
        journal.store_row(1, &demo_rows("mib_sha"));
        let legacy = journal.dir().join(format!("row-0000-{:016x}.json", 5));
        std::fs::write(&legacy, br#"{"checksum":"0","payload":"{}"}"#).unwrap();
        assert!(journal.load_row(0, 2).is_none());
        assert!(legacy.exists(), "JSON-era row left alone");
        assert!(!journal.dir().join("quarantine").exists());
        assert_eq!(journal.load_row(1, 2).expect("binary row").bench, "mib_sha");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A failed publish is counted as a write error (never as an
    /// append), leaves no temp file behind, and the row then misses: a
    /// directory in place of the record (the rename fails), and a
    /// regular file in place of the sweep directory (the directory
    /// cannot be created).
    #[test]
    fn failed_publish_is_counted_and_cleaned_up() {
        let root = temp_root("publish");
        let errors = || mg_obs::telemetry::counter("mg_journal_write_errors_total").get();
        let entries = |dir: &Path| std::fs::read_dir(dir).unwrap().count();

        let journal = Journal::new(&root, 1, vec![7]);
        std::fs::create_dir_all(journal.row_path(0)).unwrap();
        let before = errors();
        journal.store_row(0, &demo_rows("mib_sha"));
        assert!(errors() > before, "rename failure counted");
        assert_eq!(
            entries(journal.dir()),
            1,
            "only the blocking directory is left"
        );
        assert!(journal.load_row(0, 2).is_none());

        let blocked = Journal::new(&root, 2, vec![7]);
        std::fs::write(blocked.dir(), b"").unwrap();
        let before = errors();
        blocked.store_row(0, &demo_rows("mib_sha"));
        assert!(errors() > before, "create failure counted");
        assert_eq!(entries(&root), 2, "no temp file next to the blocking file");
        assert!(blocked.load_row(0, 2).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cell_records_round_trip_for_serve_recovery() {
        let root = temp_root("cell");
        let journal = Journal::new(&root, 0xfeed, vec![1, 2, 3]);
        let ok = demo_rows("mib_sha").runs[0].clone();
        journal.store_cell(2, "mib_sha", &ok, Duration::from_millis(7));
        let back = journal.load_cell(2).expect("cell replays");
        assert_eq!(back.as_ref().unwrap().cycles, 4_800);
        let err = demo_rows("mib_sha").runs[1].clone();
        journal.store_cell(0, "mib_sha", &err, Duration::from_millis(1));
        assert!(matches!(
            journal.load_cell(0),
            Some(Err(BenchError::Panicked { .. }))
        ));
        assert!(journal.load_cell(1).is_none(), "unwritten cells miss");
        // A cell record never replays as a multi-cell row.
        assert!(journal.load_row(2, 2).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Regenerates the checked-in binary journal fixture under
    /// `tests/format/` (`row-0001-000000000000002b.mgb`), a row of the
    /// deterministic demo payload. The JSON-era row next to it
    /// (`row-0000-…2a.json`) came from an earlier writer and is kept as
    /// it is. Run explicitly when the record shape changes generation:
    /// `cargo test -p mg-bench --lib -- --ignored regenerate_journal_fixtures`
    #[test]
    #[ignore = "writes checked-in fixtures; run on schema generation changes"]
    fn regenerate_journal_fixtures() {
        let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/format"));
        let journal = Journal::new(&root, 0xf1, vec![0x2a, 0x2b]);
        let _ = std::fs::remove_file(journal.row_path(1));
        journal.store_row(1, &demo_rows("mib_crc32"));
    }

    #[test]
    fn row_keys_separate_benches_and_sweep_shapes() {
        let a = mg_workloads::BenchmarkSpec::new(mg_workloads::Suite::MiBench, "sha");
        let b = mg_workloads::BenchmarkSpec::new(mg_workloads::Suite::MiBench, "crc32");
        let k = row_key(&a, "shape-1");
        assert_eq!(k, row_key(&a, "shape-1"), "key is stable");
        assert_ne!(k, row_key(&b, "shape-1"));
        assert_ne!(k, row_key(&a, "shape-2"));
        let mut short = a.clone();
        short.params.target_dyn = 1_000;
        assert_ne!(k, row_key(&short, "shape-1"), "params are part of the key");
    }
}
