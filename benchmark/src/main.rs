//! The repository benchmark: end-to-end and per-layer numbers for the
//! mini-graph sweep harness and `mg-serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run --seconds S [--workload W] [--seed N] [--trace 0|1] [--out F] [--quick]
//! ```
//!
//! One workload runs in this process, inside a fresh work directory under
//! `benchmark/.bench_work/` (so the harness's `results/cache` and journal
//! are private to the run) that is deleted at the end. Without `--workload`,
//! every workload runs in a child process of its own. Every metric is
//! printed as `workload metric value unit`; the last line is a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The exit
//! code is non-zero when any output check fails. See `README.md`.

mod calib;
mod recon;
mod report;
mod serve;
mod spans;
mod stats;
mod sweep;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads for sweeps and for the replays that check and trace
/// them. One: on the 2-vCPU reference machine two busy threads slow each
/// other by 40-60%, by an amount that varies with what each runs. So the
/// sweep runner's worker pool is not benchmarked; the server runs
/// [`serve::WORKERS`] workers.
pub const JOBS: usize = 1;

/// Timed reps per untraced run, at least. More follow while they fit in
/// `--seconds`.
pub const MIN_REPS: usize = 2;

/// Set-ups per run: at least [`MIN_SETUPS`], more while they stay cheap.
/// The median is reported.
pub const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const CHEAP_SETUPS_S: f64 = 1.0;

/// Benchmarks a `--quick` run keeps.
pub const QUICK_BENCHES: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig1Cold,
    Fig1Warm,
    ShortAllSchemes,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig1Cold,
        Workload::Fig1Warm,
        Workload::ShortAllSchemes,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Cold => "fig1-cold",
            Workload::Fig1Warm => "fig1-warm",
            Workload::ShortAllSchemes => "short-all-schemes",
            Workload::ServeOpen => "serve-open",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 6 benchmarks, one rep, one set-up, two short serve steps.
    pub quick: bool,
}

impl RunCfg {
    /// Whether to set up once more, after `done` set-ups that took
    /// `total_s` seconds.
    pub fn another_setup(&self, done: usize, total_s: f64) -> bool {
        match self.quick || self.trace {
            true => done < 1,
            false => done < MIN_SETUPS || (done < MAX_SETUPS && total_s < CHEAP_SETUPS_S),
        }
    }

    /// Whether to start another timed rep: [`MIN_REPS`] always (one on a
    /// quick or traced run), then more while the next one is expected to
    /// end within half a rep of `--seconds` after the run started
    /// (`elapsed` counts the set-ups too).
    pub fn another_rep(&self, walls: &[f64], elapsed: f64) -> bool {
        match walls.len() {
            0 => true,
            _ if self.quick || self.trace => false,
            n if n < MIN_REPS => true,
            _ => elapsed + stats::median(walls) / 2.0 <= self.seconds,
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

/// Parses the command line. `--seconds` has no default: the budget is
/// `run_seconds` in `BENCHMARK.json`, which the caller passes.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    const USAGE: &str = "usage: mg-perfbench run --seconds S [--workload W] [--seed N] \
                         [--trace 0|1] [--out F] [--quick]";
    if args.next().as_deref() != Some("run") {
        return Err(USAGE.into());
    }
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--quick" => out.quick = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.seconds == 0.0 {
        return Err(format!("--seconds is required\n{USAGE}"));
    }
    Ok(out)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Total size of the files under `path` (0 if it does not exist).
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(listing) = std::fs::read_dir(path) else {
        return 0;
    };
    listing
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Runs one workload in a private work directory and prints its report.
fn run_one(args: &Args, workload: Workload) -> bool {
    let cfg = RunCfg {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
    };
    let home = std::env::current_dir().expect("current directory");
    let bench_work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".bench_work");
    let work = bench_work.join(format!("{}-{}", workload.name(), std::process::id()));
    let out = args.out.clone().unwrap_or_else(|| {
        bench_work.join(format!("trace-{}-{}.json", workload.name(), args.seed))
    });
    let out = home.join(out);
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|()| std::env::set_current_dir(&work)) {
        eprintln!("cannot enter work directory {}: {e}", work.display());
        return false;
    }
    let started = Instant::now();
    let mut report = Report::new(workload.name());
    let trace = match workload {
        Workload::ServeOpen => serve::run(&cfg, &mut report),
        _ => sweep::run(&cfg, &mut report),
    };
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.error("VmHWM is not readable from /proc/self/status"),
    }
    report.extra("run_wall_s", started.elapsed().as_secs_f64(), "s");
    let _ = std::env::set_current_dir(&home);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(spans) = trace {
        let doc = serde::Value::Map(vec![
            ("workload".into(), serde::Value::Str(workload.name().into())),
            ("seed".into(), serde::Value::U64(args.seed)),
            ("metrics".into(), report.to_json()),
            ("spans".into(), spans),
        ]);
        let text = serde_json::to_string(&doc).expect("values serialize");
        if let Err(e) = std::fs::write(&out, text) {
            report.error(format!("cannot write the trace to {}: {e}", out.display()));
        } else {
            eprintln!("{}: spans written to {}", workload.name(), out.display());
        }
    }
    report.print(cfg.trace)
}

/// Runs every workload, each in a child process of its own.
fn run_all() -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let passed: Vec<bool> = Workload::ALL
        .iter()
        .map(|w| {
            let status = std::process::Command::new(&exe)
                .args(std::env::args().skip(1))
                .args(["--workload", w.name()])
                .status();
            matches!(status, Ok(s) if s.success())
        })
        .collect();
    passed.iter().all(|&ok| ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mg-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn manifest() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        serde_json::parse_value_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.field(key)
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| match m.field(k) {
                    Ok(Value::Str(s)) => s.clone(),
                    other => panic!("{key}.{k}: {other:?}"),
                };
                (
                    s("name"),
                    if key == "workloads" {
                        String::new()
                    } else {
                        s("unit")
                    },
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_what_the_runs_report() {
        let m = manifest();
        let valid = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let workloads = names(&m, "workloads");
        let e2e = names(&m, "end_to_end");
        let layer = names(&m, "per_layer");
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layer.len()));
        let mut all: Vec<&String> = workloads
            .iter()
            .chain(&e2e)
            .chain(&layer)
            .map(|(n, _)| n)
            .collect();
        assert!(all.iter().all(|n| valid(n)), "{all:?}");
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "names are used once");
        // Every workload the manifest names is one this binary runs, and
        // each runs every declared metric under the declared unit.
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        let theirs: Vec<String> = workloads.into_iter().map(|(n, _)| n).collect();
        assert_eq!(theirs, ours);
        let declared = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(e2e, declared(report::END_TO_END));
        assert_eq!(layer, declared(report::PER_LAYER));
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn args_parse_the_full_form_and_require_the_budget() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("run --workload fig1-warm --seed 7 --seconds 12 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::Fig1Warm));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, false));
        assert!(parse("run --seconds 3 --trace 1").unwrap().trace);
        assert!(parse("run --trace 1").is_err(), "--seconds is required");
        assert!(parse("run --seconds 3 --trace --quick").is_err());
        assert!(parse("run --seconds 3 --workload nope").is_err());
        assert!(parse("run --seconds 0").is_err());
        assert!(parse("bench").is_err());
    }
}
