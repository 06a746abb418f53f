//! Facade crate for the minigraphs workspace: re-exports the ISA,
//! workload, simulator, selection and observability crates under one
//! roof, plus a
//! convenience [`prelude`].
//!
//! This workspace reproduces *"Serialization-Aware Mini-Graphs:
//! Performance with Fewer Resources"* (Bracy & Roth, MICRO 2006). See the
//! repository `README.md` for a tour and `DESIGN.md` for the system
//! inventory.
//!
//! # Quickstart
//!
//! ```
//! use minigraphs::prelude::*;
//!
//! // Generate a small synthetic benchmark and inspect its program.
//! let bench = suite().into_iter().next().expect("suite is non-empty");
//! let workload = bench.generate();
//! assert!(workload.program.static_count() > 0);
//! ```

pub use mg_core as core;
pub use mg_isa as isa;
pub use mg_obs as obs;
pub use mg_sim as sim;
pub use mg_workloads as workloads;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use mg_core::prelude::*;
    pub use mg_isa::{
        BasicBlock, BlockId, BrCond, Instruction, Opcode, Program, ProgramBuilder, Reg, StaticId,
    };
    pub use mg_sim::prelude::*;
    pub use mg_workloads::prelude::*;
}
