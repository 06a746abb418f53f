//! Serialization-aware mini-graph selection (the paper's contribution).
//!
//! Mini-graphs aggregate 2–4 instructions of a basic block behind a
//! RISC-singleton interface, amplifying the bandwidth and capacity of
//! every pipeline stage of a dynamically scheduled superscalar processor.
//! Their cost is *serialization*: an aggregate cannot issue until all of
//! its external inputs are ready (external serialization), and its
//! constituents execute in series (internal serialization).
//!
//! This crate implements the full selection tool-chain:
//!
//! * [`candidate`] — enumeration of legal candidates per basic block;
//! * [`classify`] — structural serialization classification
//!   (none / bounded / unbounded, Figure 4);
//! * [`template`] — MGT template grouping;
//! * [`select`] — the shared greedy budgeted selector plus the policies:
//!   `Struct-All`, `Struct-None`, `Struct-Bounded`, and `Slack-Profile`
//!   with its `-Delay` and `-SIAL` variants (`Slack-Dynamic` is the same
//!   `Struct-All` static pool plus the run-time controller in
//!   [`mg_sim::dynmg`]);
//! * [`rewrite`] — the binary rewriter embedding chosen instances;
//! * [`pipeline`] — one-call profiling + preparation.
//!
//! # Example
//!
//! ```no_run
//! use mg_core::pipeline::{prepare, profile_workload};
//! use mg_core::select::Selector;
//! use mg_core::candidate::SelectionConfig;
//! use mg_sim::{simulate, MachineConfig, MgConfig, SimOptions};
//! use mg_workloads::benchmark;
//!
//! let spec = benchmark("mib_sha").unwrap();
//! let w = spec.generate();
//! let reduced = MachineConfig::reduced();
//! let (trace, freqs, slack) = profile_workload(&w, &reduced);
//! let prepared = prepare(
//!     &w.program,
//!     &freqs,
//!     &Selector::SlackProfile(Default::default(), slack),
//!     &SelectionConfig::default(),
//! );
//! let mg_cfg = reduced.with_mg(MgConfig::paper());
//! let result = simulate(&prepared.program, &trace, &mg_cfg, SimOptions::default());
//! println!("coverage {:.1}%", 100.0 * result.stats.coverage());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidate;
pub mod check;
pub mod classify;
pub mod depgraph;
pub mod pipeline;
pub mod rewrite;
pub mod select;
pub mod template;

pub use candidate::{enumerate, Candidate, CandidateShape, SelectionConfig, MAX_CANDIDATE_LEN};
pub use check::{assert_semantics_preserved, check_semantics_preserved, SemanticsViolation};
pub use classify::{classify, Serialization};
pub use pipeline::{
    prepare, profile_workload, try_prepare, try_prepare_from, try_profile, try_profile_workload,
    Prepared, Profile,
};
pub use rewrite::{rewrite, try_rewrite, ChosenInstance, RewriteError};
pub use select::{greedy_select, SelectionResult, Selector, SlackProfileModel, SpKind};
pub use template::{group_templates, Template, TemplateSig};

/// Commonly used items, for glob import via the facade prelude.
pub mod prelude {
    pub use crate::{
        enumerate, prepare, profile_workload, Candidate, Prepared, SelectionConfig, Selector,
        SlackProfileModel, SpKind,
    };
}

// The sweep runner hands these to worker threads by reference; keep them
// structurally thread-safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Prepared>();
    assert_send_sync::<Selector>();
    assert_send_sync::<SelectionConfig>();
};
