//! Content-keyed cache for expensive per-benchmark artifacts.
//!
//! Building a [`crate::BenchContext`] is the hot path of every sweep: it
//! generates the train workload, executes it functionally, and runs a
//! full slack-profiling timing simulation of it on the train machine,
//! then generates and executes the run workload (when the train and run
//! inputs are equal, the training workload and trace serve as the run
//! side instead). The artifacts depend only on (benchmark, generation
//! parameters, train input, run input, train machine config), so they
//! are cached behind a stable content key:
//!
//! * **in memory** (process-wide, shared by all sweep workers), holding
//!   the complete [`ContextArtifacts`];
//! * **on disk** under `results/cache/`, holding the *timing-derived*
//!   half. A v3 entry holds the training run's execution frequencies,
//!   its slack profile, and its outcome as a [`TrainingRun`] (the
//!   profiling simulation's statistics and cycle-cap flag, which serve
//!   the training machine's no-mini-graph cell). The run-input workload
//!   and committed trace are deterministic and cheap to regenerate
//!   functionally, and serializing 100k-instruction traces would bloat
//!   the cache two orders of magnitude for little gain, so a disk hit
//!   replays only the functional run, skipping the profiling simulation
//!   that dominates context construction.
//!
//! Disk entries are versioned ([`CACHE_SCHEMA`]) and integrity-checked:
//! each `ctx-*.mgb` file is a [`crate::binfmt`] binary record (magic +
//! schema header, FNV-1a trailer), verified end-to-end on load. An entry
//! of another schema generation (a v2 `ctx-*.mgb`, or a JSON-era
//! `ctx-*.json`, which is never read) or of another kind is stale and
//! silently treated as a miss; a corrupt or truncated entry
//! (checksum/decode failure) is *quarantined* to
//! `results/cache/quarantine/` with an `MG_LOG` warning so it never
//! surfaces as a deserialize error and the evidence survives for
//! inspection. Cache I/O is best-effort — a read-only or missing
//! `results/` directory degrades to the in-memory layer — but no longer
//! *silently* so: failed writes are logged via `mg_error!` and counted
//! (`mg_cache_write_errors_total`), because a swallowed serialization
//! or I/O failure otherwise looks identical to a cache miss forever.

use crate::binfmt::{self, RecordKind};
use crate::fault;
use crate::harness::BenchError;
use mg_core::pipeline::profile_trace;
use mg_obs::mg_error;
use mg_sim::{MachineConfig, SimStats, SlackProfile};
use mg_workloads::{BenchmarkSpec, Executor, InputSet, Trace, Workload};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Version tag for on-disk cache entries. Bump when the cached payload or
/// its semantics change; stale entries are then ignored.
///
/// v2: entries are wrapped in a checksummed envelope.
/// v3: entries also carry the training run's outcome ([`TrainingRun`]);
/// v2 entries (binary or JSON-era) are stale misses.
pub const CACHE_SCHEMA: u32 = 3;

/// Directory holding on-disk context cache entries, relative to the
/// working directory (the workspace root for `cargo run`).
pub const CACHE_DIR: &str = "results/cache";

/// Subdirectory of [`CACHE_DIR`] where corrupt entries are moved on
/// load failure, preserving the evidence without blocking the sweep.
pub const QUARANTINE_DIR: &str = "results/cache/quarantine";

/// Maximum number of quarantined entries kept; older ones are deleted
/// so a recurring corruption source cannot grow the directory unbounded.
const QUARANTINE_KEEP: usize = 32;

/// On-disk cache size cap in megabytes. Generous for the full suite
/// (an entry is a few hundred KB) while keeping long-lived working
/// trees from accumulating stale keys without bound.
pub const DEFAULT_CACHE_MAX_MB: u64 = 256;

/// The outcome of a context's slack-profiling simulation: the train
/// workload simulated, unmodified, on the train machine. Profiling
/// perturbs no timing, so when the train and run inputs are equal this
/// is the result of the training machine's no-mini-graph cell.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainingRun {
    /// Statistics of the profiling simulation.
    pub stats: SimStats,
    /// Whether the profiling simulation hit its cycle cap.
    pub hit_cycle_cap: bool,
}

/// Everything expensive a [`crate::BenchContext`] needs: the run-input
/// workload, its committed trace, and the train-input execution
/// frequencies, slack profile and training-run outcome.
#[derive(Clone, Debug)]
pub struct ContextArtifacts {
    /// Workload generated on the run input.
    pub workload: Workload,
    /// Committed-path trace of the run workload.
    pub trace: Trace,
    /// Per-static execution frequencies from the training run.
    pub freqs: Vec<u64>,
    /// Local slack profile trained on the train config.
    pub slack: SlackProfile,
    /// Outcome of the training run's simulation.
    pub training: TrainingRun,
}

/// How a single context request was served, for per-benchmark reporting
/// in sweep summaries (the process-wide [`CacheCounters`] only aggregate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory layer: no work at all.
    MemHit,
    /// Served from a disk entry: functional replay only.
    DiskHit,
    /// Full rebuild including the profiling simulation.
    Miss,
}

impl CacheOutcome {
    /// Short human-readable tag (`mem` / `disk` / `miss`).
    pub fn tag(&self) -> &'static str {
        match self {
            CacheOutcome::MemHit => "mem",
            CacheOutcome::DiskHit => "disk",
            CacheOutcome::Miss => "miss",
        }
    }

    /// Inverse of [`CacheOutcome::tag`], used by the sweep journal to
    /// replay the outcome recorded for a finished row.
    pub fn from_tag(tag: &str) -> Option<CacheOutcome> {
        match tag {
            "mem" => Some(CacheOutcome::MemHit),
            "disk" => Some(CacheOutcome::DiskHit),
            "miss" => Some(CacheOutcome::Miss),
            _ => None,
        }
    }
}

/// Snapshot of the process-wide cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Context requests served from the in-memory layer.
    pub mem_hits: u64,
    /// Context requests served from a disk entry (functional replay only).
    pub disk_hits: u64,
    /// Context requests that rebuilt everything.
    pub misses: u64,
}

impl CacheCounters {
    /// Total context requests observed.
    pub fn total(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.misses
    }

    /// Counter-wise difference (`self - earlier`), for per-sweep deltas.
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            mem_hits: self.mem_hits - earlier.mem_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
        }
    }
}

static MEM: OnceLock<Mutex<HashMap<u64, Arc<ContextArtifacts>>>> = OnceLock::new();

fn mem() -> &'static Mutex<HashMap<u64, Arc<ContextArtifacts>>> {
    MEM.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops every in-memory context entry. Disk entries and the counters
/// are untouched: the next request for a dropped key is a disk hit (or
/// a miss). For long-lived processes under memory pressure, and for
/// tests that need to force the disk path.
pub fn clear_memory() {
    mem().lock().expect("context cache lock").clear();
}

/// Reads the process-wide cache counters from the telemetry registry
/// (`mg_cache_{mem_hits,disk_hits,misses}_total`), which never resets.
pub fn counters() -> CacheCounters {
    CacheCounters {
        mem_hits: mg_obs::tele_counter!("mg_cache_mem_hits_total").get(),
        disk_hits: mg_obs::tele_counter!("mg_cache_disk_hits_total").get(),
        misses: mg_obs::tele_counter!("mg_cache_misses_total").get(),
    }
}

/// FNV-1a over a byte string: the stable content hash behind cache keys
/// and the results-file machine fingerprint.
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stable content key of a context: benchmark name *and* generation
/// parameters (specs can be locally modified, e.g. the limit study), both
/// input sets, and the training machine configuration. `Debug` formatting
/// of these plain-data configs is deterministic, and any change to their
/// shape conservatively invalidates old entries.
fn context_key(
    spec: &BenchmarkSpec,
    train_cfg: &MachineConfig,
    train_input: &InputSet,
    run_input: &InputSet,
) -> u64 {
    let repr = format!(
        "v{}|{}|{:?}|{:?}|{:?}|{:?}",
        CACHE_SCHEMA, spec.name, spec.params, train_input, run_input, train_cfg
    );
    stable_hash64(repr.as_bytes())
}

/// On-disk cache entry: the timing-derived artifacts plus enough context
/// to validate the hit.
#[derive(Serialize, Deserialize)]
struct DiskEntry {
    schema_version: u32,
    bench: String,
    freqs: Vec<u64>,
    slack: SlackProfile,
    training: TrainingRun,
}

/// What a disk hit restores: the timing-derived half of
/// [`ContextArtifacts`].
#[doc(hidden)]
#[derive(Clone, Debug)]
pub struct DiskHit {
    /// Per-static execution frequencies from the training run.
    pub freqs: Vec<u64>,
    /// Local slack profile trained on the train config.
    pub slack: SlackProfile,
    /// Outcome of the training run's simulation.
    pub training: TrainingRun,
}

fn disk_name(key: u64) -> String {
    format!("ctx-{key:016x}.{}", binfmt::EXT)
}

fn disk_path_in(dir: &std::path::Path, key: u64) -> PathBuf {
    dir.join(disk_name(key))
}

/// Moves a corrupt record into `quarantine_dir` (best-effort), warns
/// through the leveled logger, and bumps `counter`. Keeps at most
/// [`QUARANTINE_KEEP`] quarantined files, deleting the oldest beyond
/// that. Shared by the cache and the sweep journal, so every corrupt
/// persisted record lands in a quarantine directory instead of being
/// silently dropped.
pub(crate) fn quarantine_into(
    quarantine_dir: &std::path::Path,
    path: &std::path::Path,
    why: &str,
    counter: &'static str,
) {
    mg_obs::telemetry::counter(counter).inc();
    let moved = std::fs::create_dir_all(quarantine_dir).is_ok()
        && path
            .file_name()
            .map(|name| {
                // Never overwrite an earlier sample of the same record:
                // uniquify the destination if the name is taken.
                let mut dest = quarantine_dir.join(name);
                let mut tag = 0u32;
                while dest.exists() && tag < 100 {
                    tag += 1;
                    dest = quarantine_dir.join(format!("{}.{tag}", name.to_string_lossy()));
                }
                std::fs::rename(path, dest).is_ok()
            })
            .unwrap_or(false);
    if !moved {
        let _ = std::fs::remove_file(path);
    }
    mg_error!(
        "quarantined corrupt record {} ({why}); treating as absent",
        path.display()
    );
    // Bound the quarantine: drop the oldest files beyond the cap.
    let Ok(listing) = std::fs::read_dir(quarantine_dir) else {
        return;
    };
    let mut entries: Vec<(std::time::SystemTime, PathBuf)> = listing
        .flatten()
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            meta.is_file().then_some((meta.modified().ok()?, e.path()))
        })
        .collect();
    if entries.len() > QUARANTINE_KEEP {
        entries.sort();
        for (_, old) in &entries[..entries.len() - QUARANTINE_KEEP] {
            let _ = std::fs::remove_file(old);
        }
    }
}

/// Publishes `bytes` as `dir/name`: creates `dir`, writes a unique
/// `<name>.tmp.<pid>.<seq>` next to the destination and renames it into
/// place, so a reader or a concurrent writer of the same record never
/// sees a torn file. The temp file is removed on failure. Shared by the
/// cache and the sweep journal, which count and log failures their own
/// way: the error carries the failed step (`create the directory of`,
/// `write` or `publish`) with the I/O error.
pub(crate) fn publish(
    dir: &std::path::Path,
    name: &str,
    bytes: &[u8],
) -> Result<(), (&'static str, std::io::Error)> {
    std::fs::create_dir_all(dir).map_err(|e| ("create the directory of", e))?;
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        "{name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let published = std::fs::write(&tmp, bytes)
        .map_err(|e| ("write", e))
        .and_then(|()| std::fs::rename(&tmp, dir.join(name)).map_err(|e| ("publish", e)));
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

fn quarantine(dir: &std::path::Path, path: &std::path::Path, why: &str) {
    quarantine_into(
        &dir.join("quarantine"),
        path,
        why,
        "mg_cache_quarantined_total",
    );
}

/// Validates a decoded entry against the request; stale entries (other
/// schema generation or bench) miss without quarantine.
fn validate_entry(entry: DiskEntry, spec: &BenchmarkSpec) -> Option<DiskHit> {
    (entry.schema_version == CACHE_SCHEMA && entry.bench == spec.name).then_some(DiskHit {
        freqs: entry.freqs,
        slack: entry.slack,
        training: entry.training,
    })
}

/// LRU touch: freshen the entry's mtime so hot entries survive size-cap
/// eviction. Best-effort, like all disk-layer reads.
fn touch(path: &std::path::Path) {
    if let Ok(f) = std::fs::File::options().append(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::now());
    }
}

/// Loads one disk entry from `dir`. Hidden from docs: the supported
/// surface is [`context`]; this is exposed for the format fixtures and
/// tests.
#[doc(hidden)]
pub fn disk_load_from(dir: &std::path::Path, key: u64, spec: &BenchmarkSpec) -> Option<DiskHit> {
    let path = disk_path_in(dir, key);
    let mut bytes = std::fs::read(&path).ok()?;
    fault::corrupt_cache_bytes(key, &mut bytes);
    match binfmt::from_record::<DiskEntry>(&bytes, RecordKind::CacheEntry, CACHE_SCHEMA) {
        Ok(entry) => {
            let hit = validate_entry(entry, spec)?;
            touch(&path);
            Some(hit)
        }
        Err(e) if e.is_corrupt() => {
            quarantine(dir, &path, &e.to_string());
            None
        }
        // Stale container/schema/kind: a miss rewrites it in place.
        Err(_) => None,
    }
}

/// Evicts least-recently-used cache entries from `dir` until the
/// remaining `ctx-*.mgb` files total at most `cap_bytes`. "Least
/// recently used" is by mtime: loads freshen entries on every hit, and
/// stores write them new. Ties break by file name so eviction order is
/// deterministic. Best-effort: I/O errors skip the affected entry.
fn evict_lru(dir: &std::path::Path, cap_bytes: u64) {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = listing
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            let name = path.file_name()?.to_str()?;
            if !(name.starts_with("ctx-") && name.ends_with(".mgb")) {
                return None;
            }
            let meta = e.metadata().ok()?;
            let mtime = meta.modified().ok()?;
            Some((mtime, path, meta.len()))
        })
        .collect();
    let mut total: u64 = entries.iter().map(|&(_, _, len)| len).sum();
    if total <= cap_bytes {
        return;
    }
    entries.sort(); // oldest mtime first, then by path
    for (_, path, len) in entries {
        if total <= cap_bytes {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total -= len;
        }
    }
}

/// Logs and counts a failed cache write. The write path stays
/// best-effort (the sweep carries on), but a failure is no longer
/// indistinguishable from a miss: it is visible in `MG_LOG` output and
/// in the `mg_cache_write_errors_total` telemetry counter.
fn write_failed(what: &str, path: &std::path::Path, err: &dyn std::fmt::Display) {
    mg_obs::tele_counter!("mg_cache_write_errors_total").inc();
    mg_error!(
        "cache: failed to {what} {} ({err}); this key will keep missing",
        path.display()
    );
}

/// Stores one disk entry into `dir` as a binary record (atomic temp +
/// rename). Hidden from docs: the supported surface is [`context`];
/// this is exposed for the format fixtures and tests.
#[doc(hidden)]
pub fn disk_store_to(
    dir: &std::path::Path,
    key: u64,
    spec: &BenchmarkSpec,
    freqs: &[u64],
    slack: &SlackProfile,
    training: &TrainingRun,
) {
    let entry = DiskEntry {
        schema_version: CACHE_SCHEMA,
        bench: spec.name.clone(),
        freqs: freqs.to_vec(),
        slack: slack.clone(),
        training: *training,
    };
    let bytes = binfmt::to_record(RecordKind::CacheEntry, CACHE_SCHEMA, &entry);
    if let Err((step, e)) = publish(dir, &disk_name(key), &bytes) {
        write_failed(step, &disk_path_in(dir, key), &e);
        return;
    }
    // Keep the disk layer bounded: evict least-recently-used entries
    // beyond [`DEFAULT_CACHE_MAX_MB`]. Stores happen only on cache
    // misses, so the directory walk is off every sweep's hot path.
    evict_lru(dir, DEFAULT_CACHE_MAX_MB * 1024 * 1024);
}

fn exec_err(
    spec: &BenchmarkSpec,
    stage: &'static str,
    source: mg_workloads::ExecError,
) -> BenchError {
    BenchError::Exec {
        bench: spec.name.clone(),
        stage: stage.to_string(),
        detail: source.to_string(),
    }
}

/// Generates `spec` on `input` and derives its committed trace, under
/// the `<bench>/generate` and `<bench>/execute` stage spans. `stage`
/// names the execution in a failure.
fn generate_and_execute(
    spec: &BenchmarkSpec,
    input: &InputSet,
    stage: &'static str,
) -> Result<(Workload, Trace), BenchError> {
    let workload = {
        let _span = mg_obs::span("stage", format!("{}/generate", spec.name));
        spec.generate_with_input(input)
    };
    let _span = mg_obs::span("stage", format!("{}/execute", spec.name));
    let (trace, _) = Executor::new(&workload.program)
        .run_with_mem(&workload.init_mem)
        .map_err(|e| exec_err(spec, stage, e))?;
    Ok((workload, trace))
}

/// Generates the run-input workload and derives its committed trace (the
/// functional half of a context; cheap relative to profiling).
fn run_side(spec: &BenchmarkSpec, run_input: &InputSet) -> Result<(Workload, Trace), BenchError> {
    generate_and_execute(spec, run_input, "run-input execution")
}

/// Builds the full artifact set with no cache involvement. When the
/// train and run inputs are equal, the training workload and its trace
/// are the run side: the input is generated and executed once. The
/// slack-profiling simulation runs under the `<bench>/profile` stage
/// span.
pub(crate) fn compute_uncached(
    spec: &BenchmarkSpec,
    train_cfg: &MachineConfig,
    train_input: &InputSet,
    run_input: &InputSet,
) -> Result<ContextArtifacts, BenchError> {
    let (train_w, train_trace) = generate_and_execute(spec, train_input, "train-input execution")?;
    let profile = {
        let _span = mg_obs::span("stage", format!("{}/profile", spec.name));
        profile_trace(&train_w.program, train_trace, train_cfg)
    };
    let (workload, trace) = if train_input == run_input {
        (train_w, profile.trace)
    } else {
        run_side(spec, run_input)?
    };
    Ok(ContextArtifacts {
        workload,
        trace,
        freqs: profile.freqs,
        slack: profile.slack,
        training: TrainingRun {
            stats: profile.stats,
            hit_cycle_cap: profile.hit_cycle_cap,
        },
    })
}

/// Fetches (or builds and caches) the artifacts for a context request,
/// reporting how the request was served.
///
/// Lookup order: in-memory, then disk (if `use_disk`), then a full
/// rebuild. The corresponding counter is bumped exactly once per call and
/// matches the returned [`CacheOutcome`]. Disk loads and stores run
/// under the `<bench>/cache` stage span, so with the spans of
/// [`compute_uncached`] and [`run_side`] every costly step of building a
/// context is a leaf stage in the harness's trace.
pub(crate) fn context(
    spec: &BenchmarkSpec,
    train_cfg: &MachineConfig,
    train_input: &InputSet,
    run_input: &InputSet,
    use_disk: bool,
) -> Result<(Arc<ContextArtifacts>, CacheOutcome), BenchError> {
    let key = context_key(spec, train_cfg, train_input, run_input);
    if let Some(hit) = mem().lock().expect("context cache lock").get(&key) {
        mg_obs::tele_counter!("mg_cache_mem_hits_total").inc();
        return Ok((Arc::clone(hit), CacheOutcome::MemHit));
    }
    let disk_entry = if use_disk {
        let _span = mg_obs::span("stage", format!("{}/cache", spec.name));
        disk_load_from(std::path::Path::new(CACHE_DIR), key, spec)
    } else {
        None
    };
    let (artifacts, outcome) = match disk_entry {
        Some(DiskHit {
            freqs,
            slack,
            training,
        }) => {
            let (workload, trace) = run_side(spec, run_input)?;
            (
                ContextArtifacts {
                    workload,
                    trace,
                    freqs,
                    slack,
                    training,
                },
                CacheOutcome::DiskHit,
            )
        }
        None => (
            compute_uncached(spec, train_cfg, train_input, run_input)?,
            CacheOutcome::Miss,
        ),
    };
    match outcome {
        CacheOutcome::DiskHit => {
            mg_obs::tele_counter!("mg_cache_disk_hits_total").inc();
        }
        _ => {
            mg_obs::tele_counter!("mg_cache_misses_total").inc();
            if use_disk {
                let _span = mg_obs::span("stage", format!("{}/cache", spec.name));
                disk_store_to(
                    std::path::Path::new(CACHE_DIR),
                    key,
                    spec,
                    &artifacts.freqs,
                    &artifacts.slack,
                    &artifacts.training,
                );
            }
        }
    }
    let arc = Arc::new(artifacts);
    mem()
        .lock()
        .expect("context cache lock")
        .entry(key)
        .or_insert_with(|| Arc::clone(&arc));
    Ok((arc, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_workloads::Suite;

    /// A training-run outcome with distinctive, non-default counters.
    fn demo_training() -> TrainingRun {
        TrainingRun {
            stats: SimStats {
                cycles: 4_321,
                committed_instrs: 9_876,
                ..SimStats::default()
            },
            hit_cycle_cap: false,
        }
    }

    #[test]
    fn keys_separate_specs_inputs_and_configs() {
        let a = BenchmarkSpec::new(Suite::MiBench, "sha");
        let b = BenchmarkSpec::new(Suite::MiBench, "crc32");
        let red = MachineConfig::reduced();
        let base = MachineConfig::baseline();
        let pi = a.primary_input();
        let ai = a.alternate_input();
        let k = context_key(&a, &red, &pi, &pi);
        assert_eq!(k, context_key(&a, &red, &pi, &pi), "key is stable");
        assert_ne!(
            k,
            context_key(&b, &red, &b.primary_input(), &b.primary_input())
        );
        assert_ne!(k, context_key(&a, &base, &pi, &pi));
        assert_ne!(k, context_key(&a, &red, &ai, &pi));
        assert_ne!(k, context_key(&a, &red, &pi, &ai));
        // Same name, locally modified params (the limit-study pattern).
        let mut short = a.clone();
        short.params.target_dyn = 1_000;
        assert_ne!(k, context_key(&short, &red, &pi, &pi));
    }

    #[test]
    fn cache_outcome_tags_round_trip() {
        for outcome in [
            CacheOutcome::MemHit,
            CacheOutcome::DiskHit,
            CacheOutcome::Miss,
        ] {
            assert_eq!(CacheOutcome::from_tag(outcome.tag()), Some(outcome));
        }
        assert_eq!(CacheOutcome::from_tag("bogus"), None);
    }

    #[test]
    fn stable_hash_matches_fnv1a_reference() {
        // Reference value for the empty string is the FNV-1a offset basis.
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(stable_hash64(b"a"), stable_hash64(b"b"));
    }

    #[test]
    fn disk_layer_round_trips_binary_entries() {
        let dir = std::env::temp_dir().join(format!("mg-cache-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = BenchmarkSpec::new(Suite::MiBench, "sha");
        let freqs = vec![0u64, 1, 300_000];
        let slack = SlackProfile {
            per_static: vec![
                mg_sim::StaticProfile {
                    count: 7,
                    issue_rel: 1.5,
                    ..Default::default()
                };
                2
            ],
        };
        disk_store_to(&dir, 42, &spec, &freqs, &slack, &demo_training());
        assert!(disk_path_in(&dir, 42).exists(), "binary entry written");
        let hit = disk_load_from(&dir, 42, &spec).expect("hit");
        assert_eq!(hit.freqs, freqs);
        assert_eq!(hit.training, demo_training());
        assert_eq!(hit.slack.per_static.len(), 2);
        assert_eq!(hit.slack.per_static[0].count, 7);
        assert_eq!(
            hit.slack.per_static[0].issue_rel.to_bits(),
            1.5f64.to_bits(),
            "floats replay by bit"
        );
        // A different benchmark under the same key is stale, not corrupt:
        // miss without quarantine.
        let other = BenchmarkSpec::new(Suite::MiBench, "crc32");
        assert!(disk_load_from(&dir, 42, &other).is_none());
        assert!(!dir.join("quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_binary_entries_are_quarantined() {
        let dir = std::env::temp_dir().join(format!("mg-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = BenchmarkSpec::new(Suite::MiBench, "sha");
        let slack = SlackProfile::default();
        disk_store_to(&dir, 7, &spec, &[1, 2, 3], &slack, &demo_training());
        let path = disk_path_in(&dir, 7);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            disk_load_from(&dir, 7, &spec).is_none(),
            "corrupt entry misses"
        );
        assert!(!path.exists(), "corrupt entry removed from the cache");
        let quarantined = std::fs::read_dir(dir.join("quarantine"))
            .map(|d| d.flatten().count())
            .unwrap_or(0);
        assert_eq!(quarantined, 1, "corrupt entry preserved in quarantine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A JSON-era entry under a requested key is never read: a silent
    /// miss that leaves the file where it is, with nothing quarantined.
    #[test]
    fn json_era_entries_are_silent_misses() {
        let dir = std::env::temp_dir().join(format!("mg-cache-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = BenchmarkSpec::new(Suite::MiBench, "sha");
        let legacy = dir.join(format!("ctx-{:016x}.json", 99));
        let payload = r#"{"schema_version":2,"bench":"mib_sha","freqs":[9,8,7]}"#;
        std::fs::write(&legacy, payload).unwrap();
        assert!(disk_load_from(&dir, 99, &spec).is_none());
        assert!(legacy.exists(), "JSON-era entry left alone");
        assert!(!disk_path_in(&dir, 99).exists(), "nothing migrated");
        assert!(!dir.join("quarantine").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed publish is counted, leaves no temp file behind, and the
    /// key then misses: a directory in place of the entry (the rename
    /// fails), and a regular file in place of the cache directory (the
    /// directory cannot be created).
    #[test]
    fn failed_publish_is_counted_and_cleaned_up() {
        let root = std::env::temp_dir().join(format!("mg-cache-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spec = BenchmarkSpec::new(Suite::MiBench, "sha");
        let errors = || mg_obs::telemetry::counter("mg_cache_write_errors_total").get();
        let entries = |dir: &std::path::Path| std::fs::read_dir(dir).unwrap().count();
        let slack = SlackProfile::default();

        let dir = root.join("blocked-entry");
        std::fs::create_dir_all(disk_path_in(&dir, 5)).unwrap();
        let before = errors();
        disk_store_to(&dir, 5, &spec, &[1, 2], &slack, &demo_training());
        assert!(errors() > before, "rename failure counted");
        assert_eq!(entries(&dir), 1, "only the blocking directory is left");
        assert!(disk_load_from(&dir, 5, &spec).is_none());

        let file = root.join("not-a-dir");
        std::fs::write(&file, b"").unwrap();
        let before = errors();
        disk_store_to(&file, 5, &spec, &[1, 2], &slack, &demo_training());
        assert!(errors() > before, "create failure counted");
        assert_eq!(entries(&root), 2, "no temp file next to the blocking file");
        assert!(disk_load_from(&file, 5, &spec).is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Regenerates the current-generation cache fixture under
    /// `tests/format/` (`ctx-000000000000002c.mgb`), a binary entry of a
    /// deterministic payload. The v2 fixtures next to it (`…2a.json`,
    /// `…2b.mgb`) came from earlier writers and are kept as they are.
    /// Run explicitly when the record shape changes generation:
    /// `cargo test -p mg-bench --lib -- --ignored regenerate_cache_fixtures`
    #[test]
    #[ignore = "writes checked-in fixtures; run on schema generation changes"]
    fn regenerate_cache_fixtures() {
        let dir = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/format"));
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(disk_path_in(&dir, 0x2c));
        let spec = BenchmarkSpec::new(Suite::MiBench, "sha");
        let freqs = vec![1u64, 1, 449, 449, 449, 0, 0, 0, 253];
        let slack = SlackProfile {
            per_static: vec![
                mg_sim::StaticProfile {
                    count: 449,
                    issue_rel: 1.5,
                    ..Default::default()
                },
                mg_sim::StaticProfile::default(),
            ],
        };
        disk_store_to(&dir, 0x2c, &spec, &freqs, &slack, &demo_training());
    }

    #[test]
    fn evict_lru_drops_oldest_entries_first() {
        use std::time::{Duration, SystemTime};
        let dir = std::env::temp_dir().join(format!("mg-cache-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Four 100-byte entries with strictly increasing mtimes, plus one
        // non-entry file that must never be touched.
        let payload = [0u8; 100];
        for (i, name) in ["ctx-a.mgb", "ctx-b.mgb", "ctx-c.mgb", "ctx-d.mgb"]
            .iter()
            .enumerate()
        {
            let path = dir.join(name);
            std::fs::write(&path, payload).unwrap();
            let f = std::fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1_000 + i as u64))
                .unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), payload).unwrap();

        // Cap fits two entries: the two oldest go, the two newest stay.
        evict_lru(&dir, 200);
        assert!(!dir.join("ctx-a.mgb").exists());
        assert!(!dir.join("ctx-b.mgb").exists());
        assert!(dir.join("ctx-c.mgb").exists());
        assert!(dir.join("ctx-d.mgb").exists());
        assert!(dir.join("unrelated.txt").exists());

        // A "touched" (recently used) old entry survives over a newer one.
        let f = std::fs::File::options()
            .append(true)
            .open(dir.join("ctx-c.mgb"))
            .unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(9_000))
            .unwrap();
        evict_lru(&dir, 100);
        assert!(dir.join("ctx-c.mgb").exists());
        assert!(!dir.join("ctx-d.mgb").exists());

        // Under-cap directories are left alone.
        evict_lru(&dir, 10_000);
        assert!(dir.join("ctx-c.mgb").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
