//! Observability layer for the mini-graphs simulator and bench harness.
//!
//! This crate collects everything the workspace uses to *explain* a cycle
//! count instead of just reporting one:
//!
//! - [`log`]: a tiny leveled logger (`off` / `error` / `info` /
//!   `debug`; binaries wire the `MG_LOG` knob to it via their config
//!   layer), used by the sweep runner for progress output.
//! - [`ring`]: a fixed-capacity ring buffer — the allocation-free backing
//!   store for the pipeline tracer.
//! - [`trace`]: per-op pipeline stage records ([`OpTrace`]) and a
//!   Konata-style text pipeview renderer for a chosen cycle window.
//! - [`stall`]: the stall-attribution taxonomy ([`StallCause`]) and the
//!   per-issue-slot counter table ([`StallTable`]) that charges every
//!   cycle of every issue slot to exactly one cause, so the per-slot
//!   counts sum to the run's total cycles by construction.
//! - [`metrics`]: bounded histograms (queue occupancy) and windowed IPC.
//! - [`collector`]: the [`ObsCollector`] state machine the simulator
//!   drives from its pipeline hook points.
//! - [`report`]: the serializable [`ObsReport`] a run produces and the
//!   [`ObsAggregate`] the sweep runner folds reports into.
//! - [`schema`]: a minimal JSON-Schema subset validator used by the `obs`
//!   binary (and CI's `release-smoke` job) to check emitted trace JSON against a checked-in
//!   schema.
//! - [`telemetry`]: the always-on `mg-telemetry` runtime-metrics layer
//!   — lock-free counters, gauges, and log-bucketed latency histograms
//!   in a process-global registry with mergeable snapshots, rendered
//!   as Prometheus text by mg-serve's `/metrics` listener and written
//!   to `results/TELEMETRY_<bin>.json` by `run_cli`.
//! - [`span`]: hierarchical wall-time spans (sweep → bench → cell →
//!   stage) as a Chrome-trace-event document, which `run_cli` stores as
//!   the binary record `results/TRACE_<bin>.mgb` and `export_json`
//!   renders as JSON for Perfetto.
//!
//! The *pipeline* instrumentation above is collected only for a run
//! whose `SimOptions::obs` asks for it; an unobserved run pays one
//! `Option` check per hook and its results are bit-exact with an
//! observed one. The `telemetry` and `span` modules are different: they
//! observe the harness, not the simulated machine, and are always on
//! (spans additionally gate on the `MG_TRACE` knob at runtime).

#![warn(missing_docs)]

pub mod collector;
pub mod log;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod schema;
pub mod span;
pub mod stall;
pub mod telemetry;
pub mod trace;

pub use collector::{CycleState, DispatchBlock, MachineCaps, ObsCollector, RedirectKind};
pub use log::Level;
pub use metrics::{Histogram, WindowIpc};
pub use report::{ObsAggregate, ObsReport, OccupancyReport};
pub use ring::Ring;
pub use span::{span, ChromeTrace, SpanGuard, TraceEvent};
pub use stall::{StallCause, StallTable};
pub use telemetry::{Counter, Gauge, HistSnapshot, TeleHist, TelemetrySnapshot};
pub use trace::{pipeview, OpClass, OpTrace};
