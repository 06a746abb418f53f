//! Daemon configuration: typed, argument-driven, no environment reads.
//!
//! The serve crate follows the harness's config discipline
//! ([`mg_bench::config`]): every knob is a typed field with one parse
//! point, and nothing in the library reads `std::env`. The daemon
//! binary parses its command line into a [`ServeConfig`]; tests and the
//! loadtest construct one directly.

use mg_sim::MachineConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Everything the server needs, with defaults suitable for tests
/// (ephemeral port) and overridable per knob.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address. The default `127.0.0.1:0` picks an ephemeral
    /// port; the daemon prints the bound address on startup.
    pub addr: String,
    /// Job-queue capacity; a full queue rejects with `QueueFull`.
    pub queue_cap: usize,
    /// Worker threads draining the queue. Zero is legal
    /// ("admission-only", used by the queue-full tests): jobs queue but
    /// never run, and a drain aborts them with `ShuttingDown`.
    pub workers: usize,
    /// Whether benchmark contexts use the on-disk cache layer.
    pub disk_cache: bool,
    /// Training machine for every job's profiling run (uniform across
    /// the server so identical requests share context-cache entries).
    pub train_machine: MachineConfig,
    /// Listen address for the Prometheus `/metrics` HTTP endpoint;
    /// `None` (the default) serves no metrics socket. The line protocol
    /// `Stats` verb works either way.
    pub metrics_addr: Option<String>,
    /// Per-connection write timeout: a peer that stops reading its
    /// replies (slow-loris reader) fails its writer thread instead of
    /// wedging it. `None` disables.
    pub write_timeout: Option<Duration>,
    /// Shed new jobs with `Overloaded` when this many are already
    /// queued; `None` disables shedding.
    pub shed_depth: Option<usize>,
    /// The `retry_after_ms` hint on `Overloaded` and `QueueFull`
    /// rejects.
    pub shed_retry_after: Duration,
    /// Root directory for the crash-recovery journal: finished cells
    /// are persisted under it (one record per cell, keyed by
    /// [`crate::jobs::JobSpec::cell_keys`]) and replayed after a
    /// daemon crash instead of re-running. `None` (the default)
    /// journals nothing.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: 64,
            workers: mg_bench::config::available_jobs(),
            disk_cache: true,
            train_machine: MachineConfig::reduced(),
            metrics_addr: None,
            write_timeout: Some(Duration::from_secs(10)),
            shed_depth: None,
            shed_retry_after: Duration::from_millis(100),
            journal_dir: None,
        }
    }
}

impl ServeConfig {
    /// Parses daemon command-line flags:
    ///
    /// * `--addr HOST:PORT` — listen address
    /// * `--queue-cap N` — queue capacity
    /// * `--workers N` — worker threads
    /// * `--train TAG` — training machine tag (see
    ///   [`MachineConfig::by_tag`])
    /// * `--no-disk-cache` — in-memory context cache only
    /// * `--metrics-addr HOST:PORT` — serve Prometheus text on
    ///   `GET /metrics` at this address (off unless given)
    /// * `--write-timeout-ms MS` — per-connection write timeout
    ///   (0 disables; default 10000)
    /// * `--shed-depth N` — shed new jobs at this queue depth
    ///   (0 disables; off by default)
    /// * `--shed-retry-ms MS` — the `retry_after_ms` hint on
    ///   `Overloaded` and `QueueFull` rejects (default 100)
    /// * `--journal-dir PATH` — journal finished cells under `PATH`
    ///   for crash recovery (off unless given)
    pub fn from_args<I, S>(args: I) -> Result<ServeConfig, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cfg = ServeConfig::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            let mut value = |flag: &str| {
                args.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg {
                "--addr" => cfg.addr = value("--addr")?,
                "--queue-cap" => {
                    cfg.queue_cap = parse_num(&value("--queue-cap")?, "--queue-cap")?;
                    if cfg.queue_cap == 0 {
                        return Err("--queue-cap must be at least 1".to_string());
                    }
                }
                "--workers" => cfg.workers = parse_num(&value("--workers")?, "--workers")?,
                "--train" => {
                    let tag = value("--train")?;
                    cfg.train_machine = MachineConfig::by_tag(&tag)
                        .ok_or_else(|| format!("unknown machine tag {tag:?}"))?;
                }
                "--no-disk-cache" => cfg.disk_cache = false,
                "--metrics-addr" => cfg.metrics_addr = Some(value("--metrics-addr")?),
                "--write-timeout-ms" => {
                    let ms: u64 = parse_num(&value("--write-timeout-ms")?, "--write-timeout-ms")?;
                    cfg.write_timeout = (ms > 0).then(|| Duration::from_millis(ms));
                }
                "--shed-depth" => {
                    let depth: usize = parse_num(&value("--shed-depth")?, "--shed-depth")?;
                    cfg.shed_depth = (depth > 0).then_some(depth);
                }
                "--shed-retry-ms" => {
                    let ms: u64 = parse_num(&value("--shed-retry-ms")?, "--shed-retry-ms")?;
                    cfg.shed_retry_after = Duration::from_millis(ms);
                }
                "--journal-dir" => cfg.journal_dir = Some(PathBuf::from(value("--journal-dir")?)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(cfg)
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} got unparseable value {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_override_defaults() {
        let cfg = ServeConfig::from_args([
            "--addr",
            "0.0.0.0:7700",
            "--queue-cap",
            "8",
            "--workers",
            "2",
            "--train",
            "8way",
            "--no-disk-cache",
            "--metrics-addr",
            "127.0.0.1:9100",
            "--write-timeout-ms",
            "2500",
            "--shed-depth",
            "5",
            "--shed-retry-ms",
            "40",
            "--journal-dir",
            "results/journal",
        ])
        .unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:7700");
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(cfg.write_timeout, Some(Duration::from_millis(2500)));
        assert_eq!(cfg.shed_depth, Some(5));
        assert_eq!(cfg.shed_retry_after, Duration::from_millis(40));
        assert_eq!(cfg.journal_dir, Some(PathBuf::from("results/journal")));
        assert_eq!(cfg.queue_cap, 8);
        assert_eq!(cfg.workers, 2);
        assert!(!cfg.disk_cache);
        assert_eq!(
            cfg.train_machine.fetch_width,
            MachineConfig::eight_way().fetch_width
        );
    }

    #[test]
    fn bad_flags_are_rejected_with_a_reason() {
        assert!(ServeConfig::from_args(["--mystery"]).is_err());
        assert!(ServeConfig::from_args(["--queue-cap"]).is_err());
        assert!(ServeConfig::from_args(["--queue-cap", "zero"]).is_err());
        assert!(ServeConfig::from_args(["--queue-cap", "0"]).is_err());
        assert!(ServeConfig::from_args(["--train", "11way"]).is_err());
        assert!(ServeConfig::from_args(["--shed-depth", "many"]).is_err());
        assert!(ServeConfig::from_args(["--write-timeout-ms", "-1"]).is_err());
        for gone in ["--retries", "--watchdog-ms", "--shed-p99-ms"] {
            assert!(ServeConfig::from_args([gone, "1"]).is_err(), "{gone}");
        }
    }

    #[test]
    fn zero_disables_the_optional_thresholds() {
        let cfg = ServeConfig::from_args(["--write-timeout-ms", "0", "--shed-depth", "0"]).unwrap();
        assert_eq!(cfg.write_timeout, None);
        assert_eq!(cfg.shed_depth, None);
        assert_eq!(cfg.journal_dir, None, "journaling is opt-in");
    }
}
