//! Golden-stats digests of the timing engine.
//!
//! The engine's scheduling core is performance-critical and gets
//! rewritten; the contract is that refactors are *behaviour-preserving*.
//! This module renders the engine's observable outputs — every
//! [`SimStats`] field, derived IPC bit patterns, and fig1-style JSON rows
//! — into a deterministic digest over the full 78-benchmark suite, which
//! is compared byte-for-byte against a committed snapshot produced by the
//! pre-refactor engine (`crates/bench/tests/golden/engine_stats.json`,
//! regenerated with `MG_GOLDEN_REGEN=1 cargo test -p mg-bench --test
//! golden`).
//!
//! Floats are pinned by bit pattern (`f64::to_bits`, rendered as hex), so
//! a digest match implies bit-identical arithmetic, not just equal
//! formatting.

use crate::cache::stable_hash64;
use crate::harness::{BenchContext, Scheme};
use crate::runner::{par_map, SweepCell};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::{Deserialize, Serialize};

/// The dynamic-length target the golden suite truncates every benchmark
/// to. Small enough that all 78 benchmarks × 6 cells run in test time,
/// large enough that every engine feature (squashes, forwarding, handle
/// issue, dynamic disabling) is exercised on real workloads.
pub const GOLDEN_TARGET_DYN: usize = 6_000;

/// One (scheme, machine) cell's digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenCell {
    /// Scheme display name.
    pub scheme: String,
    /// Machine tag (`base` / `red`).
    pub machine: String,
    /// Full `SimStats` Debug rendering, or `ERROR: …` for a failed cell.
    pub stats: String,
    /// `SimResult::ipc()` bit pattern in hex (zero for failed cells).
    pub ipc_bits: String,
}

/// Everything the engine produced for one benchmark.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenRow {
    /// Benchmark name.
    pub bench: String,
    /// FNV-1a hash of the per-static frequency profile, in hex.
    pub freqs_hash: String,
    /// FNV-1a hash of the slack profile's Debug rendering, in hex — pins
    /// the `profile_slack` engine path.
    pub slack_hash: String,
    /// Per-cell digests in fixed cell order.
    pub cells: Vec<GoldenCell>,
    /// The benchmark's fig1 row (IPC ratios vs. the baseline machine)
    /// serialized exactly as `fig1` writes it, or `ERROR: …`.
    pub fig1_json: String,
}

/// Fig1-row shape, duplicated here so the golden digest pins the JSON
/// encoding the figure binaries emit.
#[derive(Serialize)]
struct Fig1Row {
    bench: String,
    nomg: f64,
    struct_all: f64,
    struct_none: f64,
    slack_profile: f64,
}

/// The golden cell list: the fig1 sweep (NoMg on both machines plus the
/// three selectors on the reduced machine) and Slack-Dynamic, which
/// exercises the run-time disabling machinery.
fn cell_schemes() -> Vec<(Scheme, &'static str)> {
    vec![
        (Scheme::NoMg, "base"),
        (Scheme::NoMg, "red"),
        (Scheme::StructAll, "red"),
        (Scheme::StructNone, "red"),
        (Scheme::SlackProfile, "red"),
        (Scheme::SlackDynamic, "red"),
    ]
}

/// Computes the digest of one benchmark.
fn golden_row(spec: &mg_workloads::BenchmarkSpec) -> GoldenRow {
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    let mut spec = spec.clone();
    spec.params.target_dyn = GOLDEN_TARGET_DYN;
    let ctx = match BenchContext::builder(&spec, &red).cache(false).build() {
        Ok(ctx) => ctx,
        Err(e) => {
            return GoldenRow {
                bench: spec.name.clone(),
                freqs_hash: String::new(),
                slack_hash: String::new(),
                cells: Vec::new(),
                fig1_json: format!("ERROR: {e}"),
            }
        }
    };
    let freqs_hash = {
        let mut bytes = Vec::with_capacity(ctx.freqs.len() * 8);
        for f in &ctx.freqs {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
        format!("{:016x}", stable_hash64(&bytes))
    };
    let slack_hash = format!(
        "{:016x}",
        stable_hash64(format!("{:?}", ctx.slack).as_bytes())
    );
    let mut cells = Vec::new();
    let mut ipcs = Vec::new();
    for (scheme, machine_tag) in cell_schemes() {
        let machine = if machine_tag == "base" { &base } else { &red };
        match ctx.try_cell(&SweepCell::new(scheme, machine), false) {
            Ok((r, _)) => {
                let ipc = r.ipc();
                ipcs.push(if r.hit_cycle_cap { None } else { Some(ipc) });
                cells.push(GoldenCell {
                    scheme: scheme.name().to_string(),
                    machine: machine_tag.to_string(),
                    stats: if r.hit_cycle_cap {
                        format!("CYCLE-CAP: {:?}", r.stats)
                    } else {
                        format!("{:?}", r.stats)
                    },
                    ipc_bits: format!("{:016x}", ipc.to_bits()),
                });
            }
            Err(e) => {
                ipcs.push(None);
                cells.push(GoldenCell {
                    scheme: scheme.name().to_string(),
                    machine: machine_tag.to_string(),
                    stats: format!("ERROR: {e}"),
                    ipc_bits: format!("{:016x}", 0u64),
                });
            }
        }
    }
    // Fig1 ratios need the first five cells (NoMg/base is the divisor).
    let fig1_json = match (ipcs[0], ipcs[1], ipcs[2], ipcs[3], ipcs[4]) {
        (Some(b), Some(n), Some(sa), Some(sn), Some(sp)) => {
            let row = Fig1Row {
                bench: spec.name.clone(),
                nomg: n / b,
                struct_all: sa / b,
                struct_none: sn / b,
                slack_profile: sp / b,
            };
            serde_json::to_string(&row).expect("fig1 row serializes")
        }
        _ => "ERROR: cell failed".to_string(),
    };
    GoldenRow {
        bench: spec.name.clone(),
        freqs_hash,
        slack_hash,
        cells,
        fig1_json,
    }
}

/// Computes golden rows for the full suite (all 78 benchmarks), in suite
/// order, on `jobs` workers. Row contents are independent of the worker
/// count.
pub fn golden_suite(jobs: usize) -> Vec<GoldenRow> {
    let specs = suite();
    par_map(&specs, jobs, |_, spec| golden_row(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_row_is_deterministic() {
        let spec = suite()
            .into_iter()
            .find(|s| s.name == "mib_crc32")
            .expect("registry entry");
        let a = golden_row(&spec);
        let b = golden_row(&spec);
        assert_eq!(a, b);
        assert_eq!(a.cells.len(), cell_schemes().len());
        assert!(a.cells.iter().all(|c| !c.stats.starts_with("ERROR")));
        assert!(a.fig1_json.contains("\"bench\":\"mib_crc32\""));
    }
}
