//! Experiment harness regenerating every table and figure of
//! *"Serialization-Aware Mini-Graphs"* (MICRO 2006).
//!
//! Every figure is an entry of one table in [`figures`], run by the
//! `figures` binary (`figures fig1 fig6 …`, `figures --all`), which
//! groups the suite sweeps so shared cells run once. The shared
//! machinery lives in [`harness`] (benchmark contexts and scheme runs),
//! [`runner`] (the parallel [`SweepSpec`] executor), [`supervisor`]
//! (panic isolation, deadline watchdogs, and graceful shutdown around it),
//! [`config`] (the single typed parse point for every `MG_*` environment
//! knob), [`journal`] (crash-safe resume for interrupted sweeps),
//! [`fault`] (deterministic fault injection armed by `MG_FAULT`),
//! [`cache`] (content-keyed context memoization), and [`stats`]. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

#![warn(missing_docs)]
// `signals` needs two `asm!`-wrapped syscalls for libc-free
// SIGINT/SIGTERM watching; everything else stays safe.
#![deny(unsafe_code)]

pub mod binfmt;
pub mod cache;
pub mod config;
pub mod fault;
pub mod figures;
pub mod golden;
pub mod harness;
pub mod journal;
pub mod runner;
pub mod signals;
pub mod stats;
pub mod supervisor;

pub use cache::CacheOutcome;
pub use config::{parse_jobs, Config};
pub use harness::{
    machine_fingerprint, save_bin, save_json, BenchContext, BenchContextBuilder, BenchError,
    Envelope, ObsSection, Scheme, SchemeRun, SCHEMA_VERSION,
};
pub use journal::Journal;
pub use runner::{
    par_map, par_map_catch, BenchProfile, BenchRows, InputSel, SweepCell, SweepResult, SweepSpec,
    SweepSummary, TaskPanic,
};
pub use stats::{geomean, mean, s_curve};
pub use supervisor::{
    clear_shutdown, request_shutdown, run_cli, shutdown_requested, supervise_cell_until,
    supervise_context,
};

// Watchdog cells run on a helper thread against a shared
// `Arc<BenchContext>`; keep the context, memo included, thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BenchContext>();
};
