//! Deterministic fault injection for the sweep supervisor (feature
//! `fault-inject`).
//!
//! The resilience machinery — per-cell panic isolation, watchdogs,
//! retry, cache quarantine, journaled resume — only matters on paths
//! that healthy runs never take. This module makes those paths
//! *reproducibly* reachable: a fault plan names exactly which (bench,
//! cell) executions misbehave and how, so tests and CI can exercise
//! every failure route with a plain environment variable.
//!
//! A plan is a `;`-separated list of directives, each `kind:k=v,k=v`:
//!
//! * `panic[:bench=NAME][,cell=J]` — panic inside the matching cell.
//! * `slow:ms=N[,bench=NAME][,cell=J]` — sleep `N` ms inside the
//!   matching cell (trips a sweep watchdog).
//! * `flaky:times=N[,bench=NAME][,cell=J]` — panic on the first `N`
//!   *attempts* of the matching cell, then succeed (exercises retry).
//! * `cache-corrupt:all` / `cache-corrupt:key=HEX` — corrupt disk-cache
//!   bytes on load (exercises checksum quarantine).
//! * `rand-panic:seed=S,ppm=P` — panic any cell whose FNV-1a hash of
//!   `(seed, bench, cell)` falls below `P` parts per million. Purely
//!   hash-based, so the same seed always fails the same cells.
//! * `write-delay:ms=N` — sleep `N` ms before mg-serve writes each reply
//!   line to its socket (holds the final lines of a stream back past
//!   the end of a drain).
//!
//! The plan comes from `MG_FAULT`, parsed by [`crate::config`] at a
//! binary's entry point and installed via [`set_plan`] (tests call
//! [`set_plan`] directly). Injected panics carry a payload starting
//! with `mg-fault:` so assertions can tell them from real bugs.
//!
//! **Zero-cost contract:** without the `fault-inject` feature every
//! hook in this module is an empty `#[inline]` function — the compiled
//! sweep path is byte-for-byte the production one.

#[cfg(feature = "fault-inject")]
pub use enabled::{parse_plan, set_plan, FaultPlan};

#[cfg(feature = "fault-inject")]
use crate::harness::BenchError;

/// Environment variable naming the fault plan (see the module docs for
/// the grammar). Unset means no faults.
pub const FAULT_ENV: &str = "MG_FAULT";

#[cfg(feature = "fault-inject")]
mod enabled {
    use super::{BenchError, FAULT_ENV};
    use crate::cache::stable_hash64;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, RwLock};

    /// One parsed `MG_FAULT` directive.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Directive {
        Panic {
            bench: Option<String>,
            cell: Option<usize>,
        },
        Slow {
            ms: u64,
            bench: Option<String>,
            cell: Option<usize>,
        },
        Flaky {
            times: u32,
            bench: Option<String>,
            cell: Option<usize>,
        },
        CacheCorrupt {
            key: Option<u64>,
        },
        RandPanic {
            seed: u64,
            ppm: u64,
        },
        WriteDelay {
            ms: u64,
        },
    }

    /// A parsed fault plan: the ordered directives of an `MG_FAULT`
    /// value.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        directives: Vec<Directive>,
    }

    struct State {
        plan: RwLock<Option<FaultPlan>>,
        /// Per-(bench, cell) attempt counters for `flaky`.
        attempts: Mutex<HashMap<(String, usize), u32>>,
    }

    fn state() -> &'static State {
        static STATE: OnceLock<State> = OnceLock::new();
        STATE.get_or_init(|| State {
            plan: RwLock::new(None),
            attempts: Mutex::new(HashMap::new()),
        })
    }

    fn bad(value: &str, detail: &str) -> BenchError {
        BenchError::Config {
            knob: FAULT_ENV.to_string(),
            value: value.to_string(),
            detail: detail.to_string(),
        }
    }

    /// Parses a fault plan from an `MG_FAULT`-style string.
    pub fn parse_plan(spec: &str) -> Result<FaultPlan, BenchError> {
        let mut directives = Vec::new();
        for directive in spec.split(';').filter(|d| !d.trim().is_empty()) {
            let directive = directive.trim();
            let (kind, args) = match directive.split_once(':') {
                Some((k, a)) => (k.trim(), a.trim()),
                None => (directive, ""),
            };
            let mut bench: Option<String> = None;
            let mut cell: Option<usize> = None;
            let mut ms: Option<u64> = None;
            let mut times: Option<u32> = None;
            let mut key: Option<u64> = None;
            let mut seed: Option<u64> = None;
            let mut ppm: Option<u64> = None;
            let mut all = false;
            for arg in args.split(',').filter(|a| !a.trim().is_empty()) {
                let arg = arg.trim();
                if arg == "all" {
                    all = true;
                    continue;
                }
                let Some((k, v)) = arg.split_once('=') else {
                    return Err(bad(spec, "expected key=value directive arguments"));
                };
                let (k, v) = (k.trim(), v.trim());
                let parse_fail = || bad(spec, "directive argument does not parse");
                match k {
                    "bench" => bench = Some(v.to_string()),
                    "cell" => cell = Some(v.parse().map_err(|_| parse_fail())?),
                    "ms" => ms = Some(v.parse().map_err(|_| parse_fail())?),
                    "times" => times = Some(v.parse().map_err(|_| parse_fail())?),
                    "key" => key = Some(u64::from_str_radix(v, 16).map_err(|_| parse_fail())?),
                    "seed" => seed = Some(v.parse().map_err(|_| parse_fail())?),
                    "ppm" => ppm = Some(v.parse().map_err(|_| parse_fail())?),
                    _ => return Err(bad(spec, "unknown directive argument")),
                }
            }
            directives.push(match kind {
                "panic" => Directive::Panic { bench, cell },
                "slow" => Directive::Slow {
                    ms: ms.ok_or_else(|| bad(spec, "slow requires ms=N"))?,
                    bench,
                    cell,
                },
                "flaky" => Directive::Flaky {
                    times: times.ok_or_else(|| bad(spec, "flaky requires times=N"))?,
                    bench,
                    cell,
                },
                "cache-corrupt" => {
                    if !all && key.is_none() {
                        return Err(bad(spec, "cache-corrupt requires key=HEX or all"));
                    }
                    Directive::CacheCorrupt { key }
                }
                "rand-panic" => Directive::RandPanic {
                    seed: seed.ok_or_else(|| bad(spec, "rand-panic requires seed=S"))?,
                    ppm: ppm.ok_or_else(|| bad(spec, "rand-panic requires ppm=P"))?,
                },
                "write-delay" => Directive::WriteDelay {
                    ms: ms.ok_or_else(|| bad(spec, "write-delay requires ms=N"))?,
                },
                _ => return Err(bad(spec, "unknown fault directive")),
            });
        }
        Ok(FaultPlan { directives })
    }

    /// Installs (or clears, with `None`) the active fault plan. Also
    /// resets the `flaky` attempt counters so plans are independent
    /// across tests. [`crate::config::Config::apply`] calls this with
    /// the parsed `MG_FAULT` plan at binary entry.
    pub fn set_plan(plan: Option<FaultPlan>) {
        let s = state();
        s.attempts.lock().expect("fault attempt counters").clear();
        *s.plan.write().expect("fault plan lock") = plan;
    }

    fn matches(bench: &str, cell: usize, b: &Option<String>, c: &Option<usize>) -> bool {
        b.as_deref().is_none_or(|want| want == bench) && c.is_none_or(|want| want == cell)
    }

    /// Fault point at the top of every cell attempt. May sleep (`slow`)
    /// or panic (`panic` / `flaky` / `rand-panic`); the supervisor's
    /// `catch_unwind` and watchdog turn those into error rows.
    pub(crate) fn before_cell(bench: &str, cell: usize) {
        let plan = state().plan.read().expect("fault plan lock");
        let Some(plan) = plan.as_ref() else {
            return;
        };
        for d in &plan.directives {
            match d {
                Directive::Slow {
                    ms,
                    bench: b,
                    cell: c,
                } if matches(bench, cell, b, c) => {
                    std::thread::sleep(std::time::Duration::from_millis(*ms));
                }
                Directive::Flaky {
                    times,
                    bench: b,
                    cell: c,
                } if matches(bench, cell, b, c) => {
                    let mut attempts = state().attempts.lock().expect("fault attempt counters");
                    let n = attempts.entry((bench.to_string(), cell)).or_insert(0);
                    *n += 1;
                    if *n <= *times {
                        let n = *n;
                        drop(attempts);
                        panic!("mg-fault: flaky failure {n}/{times} in {bench} cell {cell}");
                    }
                }
                Directive::Panic { bench: b, cell: c } if matches(bench, cell, b, c) => {
                    panic!("mg-fault: injected panic into {bench} cell {cell}");
                }
                Directive::RandPanic { seed, ppm } => {
                    let h = stable_hash64(format!("{seed}|{bench}|{cell}").as_bytes());
                    if h % 1_000_000 < *ppm {
                        panic!("mg-fault: seeded random panic in {bench} cell {cell}");
                    }
                }
                _ => {}
            }
        }
    }

    /// Fault point on the disk-cache load path: corrupts the raw entry
    /// bytes (truncation) when a `cache-corrupt` directive matches, so
    /// the checksum fails and the quarantine path runs.
    pub(crate) fn corrupt_cache_bytes(key: u64, bytes: &mut Vec<u8>) {
        let plan = state().plan.read().expect("fault plan lock");
        let Some(plan) = plan.as_ref() else {
            return;
        };
        for d in &plan.directives {
            if let Directive::CacheCorrupt { key: want } = d {
                if want.is_none_or(|want| want == key) {
                    bytes.truncate(bytes.len() / 2);
                }
            }
        }
    }

    /// Fault point before mg-serve writes one reply line to a client
    /// socket: sleeps for every `write-delay` directive.
    pub fn before_write() {
        let plan = state().plan.read().expect("fault plan lock");
        let Some(plan) = plan.as_ref() else {
            return;
        };
        for d in &plan.directives {
            if let Directive::WriteDelay { ms } = d {
                std::thread::sleep(std::time::Duration::from_millis(*ms));
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parse_accepts_every_directive_kind() {
            let plan = parse_plan(
                "panic:bench=gzip-like,cell=2; slow:ms=5000; \
                 flaky:times=2,bench=mib_sha; cache-corrupt:all; \
                 cache-corrupt:key=00ff; rand-panic:seed=7,ppm=1000; \
                 write-delay:ms=300",
            )
            .unwrap();
            assert_eq!(plan.directives.len(), 7);
            assert_eq!(
                plan.directives[0],
                Directive::Panic {
                    bench: Some("gzip-like".into()),
                    cell: Some(2),
                }
            );
            assert_eq!(
                plan.directives[4],
                Directive::CacheCorrupt { key: Some(0xff) }
            );
            assert_eq!(plan.directives[6], Directive::WriteDelay { ms: 300 });
            assert_eq!(parse_plan("").unwrap(), FaultPlan::default());
        }

        #[test]
        fn parse_rejects_malformed_plans() {
            for bad in [
                "explode",
                "slow",
                "flaky:bench=x",
                "cache-corrupt",
                "rand-panic:seed=1",
                "write-delay",
                "panic:cell=abc",
                "panic:wat=1",
            ] {
                let err = parse_plan(bad).expect_err(bad);
                assert!(
                    err.to_string().contains(FAULT_ENV),
                    "diagnostic names the knob: {err}"
                );
            }
        }

        #[test]
        fn rand_panic_is_deterministic_per_seed() {
            let h = |seed: u64, bench: &str, cell: usize| {
                stable_hash64(format!("{seed}|{bench}|{cell}").as_bytes()) % 1_000_000
            };
            assert_eq!(h(7, "mib_sha", 0), h(7, "mib_sha", 0));
            assert_ne!(h(7, "mib_sha", 0), h(8, "mib_sha", 0));
        }
    }
}

// ---------------------------------------------------------------------
// Disabled build: every hook is an empty inline function, so the sweep
// path compiles to exactly the production code.
// ---------------------------------------------------------------------

#[cfg(not(feature = "fault-inject"))]
#[inline]
pub(crate) fn before_cell(_bench: &str, _cell: usize) {}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::before_cell;

#[cfg(not(feature = "fault-inject"))]
#[inline]
pub(crate) fn corrupt_cache_bytes(_key: u64, _bytes: &mut Vec<u8>) {}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::corrupt_cache_bytes;

/// Fault point before mg-serve writes a reply line (a no-op without
/// `fault-inject`).
#[cfg(not(feature = "fault-inject"))]
#[inline]
pub fn before_write() {}

#[cfg(feature = "fault-inject")]
pub use enabled::before_write;
