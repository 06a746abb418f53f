//! `mg-serve`: simulation-as-a-service for the mini-graph harness.
//!
//! A TCP daemon speaking a line-delimited JSON protocol
//! ([`protocol`]): clients submit (benchmark, scheme × machine grid)
//! jobs and receive per-cell rows streamed as they commit —
//! bit-identical to what a batch-mode [`mg_bench::SweepSpec`] run would
//! produce, because both paths run the same supervised cells on the
//! same content-keyed contexts.
//!
//! The moving parts:
//!
//! * [`jobs`] — request validation and the journal-compatible content
//!   key that makes identical requests *coalesce*;
//! * [`queue`] — bounded admission with round-robin per-client
//!   fairness;
//! * [`store`] — the streaming result store: owner / coalesced /
//!   replayed subscriptions, disconnect pruning;
//! * [`server`] — accept loop, connection threads, worker pool,
//!   depth-based load shedding (typed `Overloaded` rejects), and
//!   graceful drain on shutdown;
//! * [`client`] — a blocking client used by the bundled binaries and
//!   tests, plus the resilient [`client::Session`] wrapper (reconnect,
//!   backoff, idempotent resume);
//! * [`metrics`] — serve-side metric names and counted reply
//!   rendering (the registry is read through the `Stats` verb);
//! * [`config`] — the daemon's typed configuration (no `std::env`
//!   reads anywhere in this crate).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod config;
pub mod jobs;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod store;

pub use client::{BackoffPolicy, Client, JobOutcome, ServerStats, Session};
pub use config::ServeConfig;
pub use jobs::JobSpec;
pub use protocol::{ErrorCode, Reply, Request, RequestBody, PROTOCOL_VERSION};
pub use server::{ServeStats, Server};
pub use store::ResultStore;
