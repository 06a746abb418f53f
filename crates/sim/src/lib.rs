//! Cycle-level dynamically-scheduled superscalar timing simulator with
//! mini-graph execution support.
//!
//! This crate is the reproduction's substrate for the paper's
//! SimpleScalar-based machine model (Table 1): a 13-stage pipeline with a
//! hybrid branch predictor, BTB and RAS, split L1 caches over a unified
//! L2, StoreSets-speculative load scheduling with violation squash, finite
//! issue queue / physical registers / ROB / load-store queues, per-class
//! issue ports, and — when the program carries mini-graph tags — handle
//! execution off a mini-graph table with serial ("ALU pipeline")
//! constituent execution.
//!
//! The entry point is [`simulate`]; machine presets live on
//! [`MachineConfig`] (baseline, reduced, 2-way, 8-way, dmem/4).
//!
//! # Example
//!
//! ```
//! use mg_sim::{simulate, MachineConfig, SimOptions};
//! use mg_workloads::{suite, Executor};
//!
//! let spec = &suite()[40];
//! let w = spec.generate();
//! let (trace, _) = Executor::new(&w.program)
//!     .run_with_mem(&w.init_mem)
//!     .expect("workloads run to completion");
//! let result = simulate(&w.program, &trace, &MachineConfig::baseline(), SimOptions::default());
//! assert!(result.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod archcheck;
pub mod bpred;
pub mod cache;
pub mod config;
pub mod dynmg;
pub mod engine;
pub mod mgi;
pub mod slack;
pub mod stats;
pub mod storesets;

pub use archcheck::{replay_committed, ReplayError};
pub use config::{BPredConfig, CacheConfig, MachineConfig, MgConfig, StoreSetsConfig};
pub use dynmg::{DisableCost, DynMgConfig, DynMgController, DynPolicy};
pub use engine::{simulate, SimOptions, SimResult};
pub use mg_obs::{ObsConfig, ObsReport};
pub use mgi::{InstanceInfo, InstanceMap, SrcLink};
pub use slack::{SlackProfile, StaticProfile, SLACK_CAP};
pub use stats::SimStats;

/// Commonly used items, for glob import via the facade prelude.
pub mod prelude {
    pub use crate::{
        simulate, DynMgConfig, InstanceMap, MachineConfig, MgConfig, SimOptions, SimResult,
        SimStats, SlackProfile,
    };
}

// The sweep runner hands these to worker threads by reference; keep them
// structurally thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<MgConfig>();
    assert_send_sync::<SlackProfile>();
    assert_send_sync::<SimResult>();
};
