//! Deterministic fault injection for the sweep supervisor.
//!
//! The resilience machinery — per-cell panic isolation, deadline
//! watchdogs, cache quarantine, journaled resume — only matters on paths
//! that healthy runs never take. This module makes those paths
//! *reproducibly* reachable: a fault plan names exactly which (bench,
//! cell) executions misbehave and how, so tests and CI can exercise
//! every failure route with a plain environment variable.
//!
//! A plan is a `;`-separated list of directives, each `kind:k=v,k=v`:
//!
//! * `panic[:bench=NAME][,cell=J]` — panic inside the matching cell.
//! * `slow:ms=N[,bench=NAME][,cell=J]` — sleep `N` ms inside the
//!   matching cell (trips a deadline watchdog).
//! * `cache-corrupt:all` / `cache-corrupt:key=HEX` — corrupt disk-cache
//!   bytes on load (exercises checksum quarantine).
//! * `write-delay:ms=N` — sleep `N` ms before mg-serve writes each reply
//!   line to its socket (holds the final lines of a stream back past
//!   the end of a drain).
//!
//! The plan comes from `MG_FAULT`, parsed by [`crate::config`] at a
//! binary's entry point and installed via [`set_plan`] (tests call
//! [`set_plan`] directly). Injected panics carry a payload starting
//! with `mg-fault:` so assertions can tell them from real bugs.
//!
//! The hooks are compiled into every build and armed only by a plan.
//! With none installed, a hook returns after one uncontended
//! `RwLock::read`, and it runs once per cell, disk-cache load or
//! reply line, so it costs nothing next to the work it guards.

use crate::harness::BenchError;
use std::sync::RwLock;

/// Environment variable naming the fault plan (see the module docs for
/// the grammar). Unset means no faults.
pub const FAULT_ENV: &str = "MG_FAULT";

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
    CacheCorrupt {
        key: Option<u64>,
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

/// The installed plan; `None` arms no hook.
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);

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
        let mut key: Option<u64> = None;
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
                "key" => key = Some(u64::from_str_radix(v, 16).map_err(|_| parse_fail())?),
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
            "cache-corrupt" => {
                if !all && key.is_none() {
                    return Err(bad(spec, "cache-corrupt requires key=HEX or all"));
                }
                Directive::CacheCorrupt { key }
            }
            "write-delay" => Directive::WriteDelay {
                ms: ms.ok_or_else(|| bad(spec, "write-delay requires ms=N"))?,
            },
            _ => return Err(bad(spec, "unknown fault directive")),
        });
    }
    Ok(FaultPlan { directives })
}

/// Installs (or clears, with `None`) the active fault plan.
/// [`crate::config::Config::apply`] calls this with the parsed
/// `MG_FAULT` plan at binary entry.
pub fn set_plan(plan: Option<FaultPlan>) {
    *PLAN.write().expect("fault plan lock") = plan;
}

fn matches(bench: &str, cell: usize, b: &Option<String>, c: &Option<usize>) -> bool {
    b.as_deref().is_none_or(|want| want == bench) && c.is_none_or(|want| want == cell)
}

/// Fault point at the top of every cell. May sleep (`slow`) or panic
/// (`panic`); the supervisor's `catch_unwind` and watchdog turn those
/// into error rows. Directives act in plan order, and the first panic
/// ends the walk.
pub(crate) fn before_cell(bench: &str, cell: usize) {
    let mut stall_ms = 0;
    let mut failure = None;
    {
        let plan = PLAN.read().expect("fault plan lock");
        let Some(plan) = plan.as_ref() else {
            return;
        };
        for d in &plan.directives {
            match d {
                Directive::Slow {
                    ms,
                    bench: b,
                    cell: c,
                } if matches(bench, cell, b, c) => stall_ms += ms,
                Directive::Panic { bench: b, cell: c } if matches(bench, cell, b, c) => {
                    failure = Some(format!("mg-fault: injected panic into {bench} cell {cell}"));
                    break;
                }
                _ => {}
            }
        }
    }
    // Stall and panic with the plan unlocked: a cell a watchdog has
    // abandoned must not hold up `set_plan` for the rest of its sleep.
    if stall_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(stall_ms));
    }
    if let Some(msg) = failure {
        panic!("{msg}");
    }
}

/// Fault point on the disk-cache load path: corrupts the raw entry
/// bytes (truncation) when a `cache-corrupt` directive matches, so
/// the checksum fails and the quarantine path runs.
pub(crate) fn corrupt_cache_bytes(key: u64, bytes: &mut Vec<u8>) {
    let plan = PLAN.read().expect("fault plan lock");
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
    let delay_ms: u64 = {
        let plan = PLAN.read().expect("fault plan lock");
        let Some(plan) = plan.as_ref() else {
            return;
        };
        plan.directives
            .iter()
            .map(|d| match d {
                Directive::WriteDelay { ms } => *ms,
                _ => 0,
            })
            .sum()
    };
    if delay_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_directive_kind() {
        let plan = parse_plan(
            "panic:bench=gzip-like,cell=2; slow:ms=5000; \
             cache-corrupt:all; cache-corrupt:key=00ff; \
             write-delay:ms=300",
        )
        .unwrap();
        assert_eq!(plan.directives.len(), 5);
        assert_eq!(
            plan.directives[0],
            Directive::Panic {
                bench: Some("gzip-like".into()),
                cell: Some(2),
            }
        );
        assert_eq!(
            plan.directives[3],
            Directive::CacheCorrupt { key: Some(0xff) }
        );
        assert_eq!(plan.directives[4], Directive::WriteDelay { ms: 300 });
        assert_eq!(parse_plan("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parse_rejects_malformed_plans() {
        for bad in [
            "explode",
            "slow",
            "flaky:times=1",
            "cache-corrupt",
            "rand-panic:seed=1,ppm=1000",
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
}
