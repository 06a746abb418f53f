//! The single parse point for every `MG_*` environment knob.
//!
//! Library code in this workspace never reads `std::env` for `MG_*`
//! variables: the environment is a *compat shim* consumed exactly once,
//! at a binary's entry point, by [`Config::from_env`]. The result is a
//! plain typed value that can also be constructed directly (tests,
//! `mg-serve`, embedders) without touching process state. Applying a
//! config ([`Config::apply`]) pushes the knobs into the subsystems that
//! honour them — the logger level, the disk-cache size cap, and the
//! fault plan.
//!
//! Knobs and their environment spellings:
//!
//! | variable | field | meaning |
//! |---|---|---|
//! | `MG_JOBS` | [`Config::jobs`] | sweep worker count (positive integer) |
//! | `MG_CACHE_MAX_MB` | [`Config::cache_max_mb`] | disk context-cache size cap |
//! | `MG_RESUME` | [`Config::resume`] | resume an interrupted sweep from its journal |
//! | `MG_JOURNAL_KEEP` | [`Config::journal_keep`] | keep the journal of a completed sweep |
//! | `MG_LOG` | [`Config::log_level`] | logger verbosity (`off`/`error`/`info`/`debug`) |
//! | `MG_TRACE` | [`Config::trace`] | collect wall-time spans; `run_cli` writes `results/TRACE_<bin>.mgb` |
//! | `MG_FAULT` | [`Config::fault`] | fault plan ([`crate::fault`]) |
//!
//! Every malformed value is a [`BenchError::Config`] naming the knob,
//! the offending value, and what was expected; binaries report it and
//! exit `2` uniformly ([`Config::init_cli`]).

use crate::harness::BenchError;
use mg_obs::log::Level;
use mg_obs::mg_error;

/// Environment variable forcing the sweep worker count.
pub const JOBS_ENV: &str = "MG_JOBS";

/// Environment variable capping the on-disk context cache, in megabytes.
/// `0` disables the disk layer's retention entirely (everything is
/// evicted on the next store).
pub const CACHE_MAX_MB_ENV: &str = "MG_CACHE_MAX_MB";

/// Environment variable (`1`/`true`/`yes`) requesting that a sweep
/// resume from the journal of a previous interrupted run.
pub const RESUME_ENV: &str = "MG_RESUME";

/// Environment variable (`1`/`true`/`yes`) that makes
/// [`crate::supervisor::run_cli`] keep the journal of a sweep that
/// completed without interruption, instead of clearing it. For audits
/// and CI artifacts: the kept records show per-row wall time, cache
/// outcome, and any error rows.
pub const JOURNAL_KEEP_ENV: &str = "MG_JOURNAL_KEEP";

/// Environment variable selecting the logger verbosity.
pub const LOG_ENV: &str = "MG_LOG";

/// Environment variable (`1`/`true`/`yes`) enabling wall-time span
/// collection (`mg_obs::span`). When on, [`crate::supervisor::run_cli`]
/// drains the collected spans to `results/TRACE_<bin>.mgb` (a
/// checksummed [`crate::binfmt`] record) at sweep exit; the
/// `export_json` binary renders it as the Chrome trace-event JSON that
/// Perfetto loads.
pub const TRACE_ENV: &str = "MG_TRACE";

/// All `MG_*` knobs as one typed value.
///
/// `Default` is the no-environment configuration: automatic worker
/// count, default cache cap, no resume, journal cleared on success,
/// logger untouched, no faults.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Sweep worker count (`MG_JOBS`); `None` means available
    /// parallelism.
    pub jobs: Option<usize>,
    /// Disk context-cache size cap in megabytes (`MG_CACHE_MAX_MB`);
    /// `None` means [`crate::cache::DEFAULT_CACHE_MAX_MB`].
    pub cache_max_mb: Option<u64>,
    /// Resume an interrupted sweep from its journal (`MG_RESUME`).
    pub resume: bool,
    /// Keep the journal of a completed sweep (`MG_JOURNAL_KEEP`).
    pub journal_keep: bool,
    /// Logger verbosity (`MG_LOG`); `None` leaves the current level
    /// (default `info`) in place.
    pub log_level: Option<Level>,
    /// Collect wall-time spans for a Perfetto trace (`MG_TRACE`).
    pub trace: bool,
    /// Fault-injection plan (`MG_FAULT`); `None` leaves whatever plan
    /// is installed (none, unless a test set one) in place.
    pub fault: Option<crate::fault::FaultPlan>,
}

fn bad(knob: &str, value: &str, detail: &str) -> BenchError {
    BenchError::Config {
        knob: knob.to_string(),
        value: value.to_string(),
        detail: detail.to_string(),
    }
}

/// Parses an `MG_JOBS`-style worker count. A worker count must be a
/// positive integer; `0` and garbage are rejected with a
/// [`BenchError::Config`] naming the offending value, rather than being
/// silently replaced by a default (which would mask typos like
/// `MG_JOBS=O8` behind an unexpected parallelism level).
pub fn parse_jobs(value: &str) -> Result<usize, BenchError> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(bad(JOBS_ENV, value, "worker count must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(bad(JOBS_ENV, value, "expected a positive integer")),
    }
}

/// Parses an `MG_RESUME`-style boolean flag. Accepts `1`/`true`/`yes`/
/// `on` and `0`/`false`/`no`/`off`/empty (case-insensitive); anything
/// else is a config error rather than a silent `false`.
pub fn parse_flag(knob: &str, value: &str) -> Result<bool, BenchError> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Ok(true),
        "" | "0" | "false" | "no" | "off" => Ok(false),
        _ => Err(bad(knob, value, "expected a boolean flag (1/true/yes)")),
    }
}

/// Parses an `MG_CACHE_MAX_MB`-style megabyte count (non-negative
/// integer; `0` keeps nothing on disk).
pub fn parse_cache_mb(value: &str) -> Result<u64, BenchError> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| bad(CACHE_MAX_MB_ENV, value, "expected megabytes as an integer"))
}

fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

impl Config {
    /// Reads and validates every `MG_*` knob from the process
    /// environment. This is the **only** place in the workspace where
    /// `MG_*` variables are read; call it once at a binary's entry
    /// point and pass the result down.
    pub fn from_env() -> Result<Config, BenchError> {
        let jobs = env_var(JOBS_ENV).map(|v| parse_jobs(&v)).transpose()?;
        let cache_max_mb = env_var(CACHE_MAX_MB_ENV)
            .map(|v| parse_cache_mb(&v))
            .transpose()?;
        let resume = env_var(RESUME_ENV)
            .map(|v| parse_flag(RESUME_ENV, &v))
            .transpose()?
            .unwrap_or(false);
        let journal_keep = env_var(JOURNAL_KEEP_ENV)
            .map(|v| parse_flag(JOURNAL_KEEP_ENV, &v))
            .transpose()?
            .unwrap_or(false);
        // `Level::parse` is deliberately lenient (a typo must never
        // silence error output), so this knob cannot fail.
        let log_level = env_var(LOG_ENV).map(|v| Level::parse(&v));
        let trace = env_var(TRACE_ENV)
            .map(|v| parse_flag(TRACE_ENV, &v))
            .transpose()?
            .unwrap_or(false);
        let fault = env_var(crate::fault::FAULT_ENV)
            .map(|v| crate::fault::parse_plan(&v))
            .transpose()?;
        Ok(Config {
            jobs,
            cache_max_mb,
            resume,
            journal_keep,
            log_level,
            trace,
            fault,
        })
    }

    /// Pushes the knobs into the subsystems that honour them: the
    /// logger level, the disk-cache cap, and the fault plan. `None`
    /// fields leave the subsystem untouched, so applying a default
    /// config is a no-op.
    pub fn apply(&self) {
        if let Some(level) = self.log_level {
            mg_obs::log::set_level(level);
        }
        if let Some(mb) = self.cache_max_mb {
            crate::cache::set_cache_cap_mb(mb);
        }
        // Only ever *enables* span collection, so applying a default
        // config still leaves a test-enabled tracer alone.
        if self.trace {
            mg_obs::span::set_enabled(true);
        }
        if let Some(plan) = &self.fault {
            crate::fault::set_plan(Some(plan.clone()));
        }
    }

    /// The worker count this config resolves to: [`Config::jobs`] if
    /// forced, else available parallelism.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(available_jobs)
    }

    /// The standard binary prologue: read the environment, report any
    /// malformed knob and exit `2`, otherwise apply the config and
    /// return it. Every `mg-bench` binary (directly or through
    /// [`crate::supervisor::run_cli`]) starts with this, which is what
    /// keeps config-error behaviour uniform across the fleet.
    pub fn init_cli() -> Config {
        match Config::from_env() {
            Ok(cfg) => {
                cfg.apply();
                cfg
            }
            Err(e) => {
                mg_error!("configuration error: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// The automatic worker count: available parallelism, floored at 1.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn parse_jobs_accepts_positive_counts() {
        assert_eq!(parse_jobs("1").unwrap(), 1);
        assert_eq!(parse_jobs("8").unwrap(), 8);
        assert_eq!(parse_jobs(" 4 ").unwrap(), 4, "whitespace is trimmed");
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage() {
        for bad in ["0", "", "abc", "-2", "1.5", "O8"] {
            let err = parse_jobs(bad).expect_err(bad);
            match &err {
                BenchError::Config { knob, value, .. } => {
                    assert_eq!(*knob, JOBS_ENV);
                    assert_eq!(value, bad, "error names the offending value");
                }
                other => panic!("expected Config error for {bad:?}, got {other:?}"),
            }
            assert!(
                err.to_string().contains(JOBS_ENV),
                "diagnostic names the knob: {err}"
            );
        }
    }

    #[test]
    fn parse_flag_accepts_both_polarities_and_rejects_garbage() {
        for yes in ["1", "true", "yes", "on", " TRUE "] {
            assert!(parse_flag(RESUME_ENV, yes).unwrap(), "{yes}");
        }
        for no in ["0", "false", "no", "off", ""] {
            assert!(!parse_flag(RESUME_ENV, no).unwrap(), "{no:?}");
        }
        let err = parse_flag(RESUME_ENV, "maybe").expect_err("garbage flag");
        assert!(err.to_string().contains(RESUME_ENV), "{err}");
    }

    #[test]
    fn parse_cache_mb_accepts_integers_and_rejects_garbage() {
        assert_eq!(parse_cache_mb("256").unwrap(), 256);
        assert_eq!(parse_cache_mb("0").unwrap(), 0, "zero keeps nothing");
        for bad in ["", "-1", "10MB", "1.5"] {
            let err = parse_cache_mb(bad).expect_err(bad);
            assert!(err.to_string().contains(CACHE_MAX_MB_ENV), "{err}");
        }
    }

    #[test]
    fn default_config_resolves_to_automatic_parallelism() {
        let cfg = Config::default();
        assert!(cfg.jobs.is_none());
        assert_eq!(cfg.effective_jobs(), available_jobs());
        assert!(!cfg.resume);
        assert!(!cfg.journal_keep);
        assert!(!cfg.trace);
        // Applying the default config must not disturb any subsystem.
        cfg.apply();
    }

    #[test]
    fn trace_knob_is_a_plain_flag_and_rejects_json() {
        assert!(parse_flag(TRACE_ENV, "1").unwrap());
        assert!(!parse_flag(TRACE_ENV, "0").unwrap());
        for value in ["json", " JSON ", "perfetto"] {
            let err = parse_flag(TRACE_ENV, value).expect_err(value);
            let knob_named = matches!(&err, BenchError::Config { knob, .. } if knob == TRACE_ENV);
            assert!(knob_named, "{err}");
        }
    }
}
