//! The per-run collector the simulator drives from its pipeline hooks.
//!
//! The engine owns an `Option<ObsCollector>` (present only when the run
//! requests observability) and calls the `note_*` methods at its existing
//! event points — issue grant, dispatch resource block, load-miss
//! scheduling, handle execution, commit, squash — then calls
//! [`ObsCollector::end_cycle`] exactly once per simulated cycle. That
//! single `end_cycle` call charges every issue slot for the cycle, which
//! is what makes the stall table conserve cycles by construction.
//!
//! A collector has no settings of its own: the pipeline trace keeps the
//! last [`TRACE_CAP`] ops, windowed IPC buckets [`IPC_WINDOW`] cycles,
//! and the occupancy histograms are sized from the machine's
//! [`MachineCaps`].
//!
//! # Attribution priority
//!
//! A cycle's un-issued slots are all charged to the *highest-priority*
//! cause that applies, checked in this order:
//!
//! 1. ready ops were left unissued → [`StallCause::PortConflict`]
//! 2. a load miss is outstanding → [`StallCause::CacheMiss`]
//! 3. a mini-graph handle is mid-execution → [`StallCause::SerializationWait`]
//! 4. dispatch hit a structural limit this cycle → `RobFull` / `IqFull`
//!    / `RegsFull` / `LqFull` / `SqFull`
//! 5. ops are in flight but none ready → [`StallCause::EmptyReady`]
//! 6. fetch is stalled on a redirect → `MispredictRedirect` /
//!    `IcacheMiss` / `FetchRedirect`
//! 7. otherwise → [`StallCause::FrontendFill`] (window empty, front-end
//!    pipeline still delivering)
//!
//! Earlier causes are "closer to the issue stage": a cycle that both
//! waits on a cache miss *and* has a full ROB is charged to the miss,
//! because draining the miss is what unblocks the ROB.

use crate::metrics::{Histogram, WindowIpc};
use crate::report::{ObsReport, OccupancyReport};
use crate::ring::Ring;
use crate::stall::{StallCause, StallTable};
use crate::trace::OpTrace;

/// Capacity of the pipeline-trace ring buffer (ops retained).
pub const TRACE_CAP: usize = 4096;

/// Cycle-window size for windowed IPC.
pub const IPC_WINDOW: u64 = 1024;

/// Machine capacities the collector sizes its histograms from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineCaps {
    /// Issue width (slots per cycle).
    pub issue_width: usize,
    /// Issue-queue entries.
    pub iq: usize,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Load-queue entries.
    pub lq: usize,
    /// Store-queue entries.
    pub sq: usize,
}

/// Which structural resource blocked dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchBlock {
    /// Reorder buffer full.
    Rob,
    /// Issue queue full.
    Iq,
    /// No free physical register.
    Regs,
    /// Load queue full.
    Lq,
    /// Store queue full.
    Sq,
}

/// Why the front-end is (or last was) stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RedirectKind {
    /// Not stalled / unknown.
    #[default]
    None,
    /// Waiting for a mispredicted branch to resolve.
    Mispredict,
    /// Waiting out an instruction-cache miss.
    Icache,
    /// Some other redirect penalty (BTB miss, violation flush).
    Other,
}

/// Per-cycle pipeline state the engine hands to
/// [`ObsCollector::end_cycle`]; everything the attribution policy needs
/// that isn't accumulated through `note_*` calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleState {
    /// Ready ops left unissued after the issue stage.
    pub ready_left: usize,
    /// Issue-queue entries in use.
    pub iq_used: usize,
    /// Reorder-buffer entries in use (ops in flight).
    pub rob_used: usize,
    /// Load-queue entries in use.
    pub lq_used: usize,
    /// Store-queue entries in use.
    pub sq_used: usize,
    /// Whether fetch is currently stalled waiting on a redirect.
    pub fetch_stalled: bool,
    /// Why fetch is stalled (meaningful when `fetch_stalled`).
    pub redirect: RedirectKind,
}

/// Accumulates one run's observability data.
#[derive(Clone, Debug)]
pub struct ObsCollector {
    caps: MachineCaps,
    trace: Ring<OpTrace>,
    stalls: StallTable,
    iq_occ: Histogram,
    rob_occ: Histogram,
    lq_occ: Histogram,
    sq_occ: Histogram,
    ipc: WindowIpc,
    committed_instrs: u64,
    // Per-cycle accumulators, reset by end_cycle.
    issued_this_cycle: usize,
    block_this_cycle: Option<DispatchBlock>,
    committed_this_cycle: u64,
    // Latches for "the window is waiting on X" detection.
    mem_busy_until: u64,
    handle_busy_until: u64,
}

impl ObsCollector {
    /// A collector for one run on a machine with the given capacities.
    pub fn new(caps: MachineCaps) -> ObsCollector {
        ObsCollector {
            caps,
            trace: Ring::new(TRACE_CAP),
            stalls: StallTable::new(caps.issue_width.max(1)),
            iq_occ: Histogram::new(caps.iq),
            rob_occ: Histogram::new(caps.rob),
            lq_occ: Histogram::new(caps.lq),
            sq_occ: Histogram::new(caps.sq),
            ipc: WindowIpc::new(IPC_WINDOW),
            committed_instrs: 0,
            issued_this_cycle: 0,
            block_this_cycle: None,
            committed_this_cycle: 0,
            mem_busy_until: 0,
            handle_busy_until: 0,
        }
    }

    /// An op was granted an issue slot this cycle.
    pub fn note_issue(&mut self) {
        self.issued_this_cycle += 1;
    }

    /// Dispatch stopped at a structural limit this cycle. The first
    /// block reported per cycle wins (it is what actually stopped the
    /// in-order dispatch scan).
    pub fn note_dispatch_block(&mut self, block: DispatchBlock) {
        self.block_this_cycle.get_or_insert(block);
    }

    /// A load missed the D-cache; its result arrives at `done_at`.
    pub fn note_load_miss(&mut self, done_at: u64) {
        self.mem_busy_until = self.mem_busy_until.max(done_at);
    }

    /// A mini-graph handle began serial execution, finishing at
    /// `done_at`.
    pub fn note_handle_exec(&mut self, done_at: u64) {
        self.handle_busy_until = self.handle_busy_until.max(done_at);
    }

    /// `n` architectural instructions committed this cycle.
    pub fn note_commit_instrs(&mut self, n: u64) {
        self.committed_this_cycle += n;
    }

    /// An op left the pipeline (commit or squash); record its trace.
    pub fn note_op(&mut self, t: OpTrace) {
        self.trace.push(t);
    }

    /// Closes out one simulated cycle: charges all issue slots, samples
    /// occupancy, flushes the commit count into the IPC window, and
    /// resets the per-cycle accumulators. Must be called exactly once
    /// per cycle the simulator counts.
    pub fn end_cycle(&mut self, cycle: u64, s: &CycleState) {
        let cause = if s.ready_left > 0 {
            StallCause::PortConflict
        } else if self.mem_busy_until > cycle {
            StallCause::CacheMiss
        } else if self.handle_busy_until > cycle {
            StallCause::SerializationWait
        } else if let Some(block) = self.block_this_cycle {
            match block {
                DispatchBlock::Rob => StallCause::RobFull,
                DispatchBlock::Iq => StallCause::IqFull,
                DispatchBlock::Regs => StallCause::RegsFull,
                DispatchBlock::Lq => StallCause::LqFull,
                DispatchBlock::Sq => StallCause::SqFull,
            }
        } else if s.rob_used > 0 {
            StallCause::EmptyReady
        } else if s.fetch_stalled {
            match s.redirect {
                RedirectKind::Mispredict => StallCause::MispredictRedirect,
                RedirectKind::Icache => StallCause::IcacheMiss,
                RedirectKind::Other | RedirectKind::None => StallCause::FetchRedirect,
            }
        } else {
            StallCause::FrontendFill
        };
        self.stalls.record(self.issued_this_cycle, cause);
        self.iq_occ.record(s.iq_used);
        self.rob_occ.record(s.rob_used);
        self.lq_occ.record(s.lq_used);
        self.sq_occ.record(s.sq_used);
        self.ipc.record(cycle, self.committed_this_cycle);
        self.committed_instrs += self.committed_this_cycle;
        self.issued_this_cycle = 0;
        self.block_this_cycle = None;
        self.committed_this_cycle = 0;
    }

    /// Finalizes the run into a serializable report. `cycles` is the
    /// simulator's final cycle count and must equal the number of
    /// `end_cycle` calls for the conservation invariant to hold.
    pub fn finish(self, cycles: u64) -> ObsReport {
        let dropped = self.trace.dropped();
        let mut trace = self.trace.into_vec();
        trace.sort_by_key(|t| (t.seq, t.fetch));
        ObsReport {
            cycles,
            committed_instrs: self.committed_instrs,
            issue_width: self.caps.issue_width,
            stalls: self.stalls,
            occupancy: OccupancyReport {
                iq: self.iq_occ,
                rob: self.rob_occ,
                lq: self.lq_occ,
                sq: self.sq_occ,
            },
            ipc: self.ipc,
            trace,
            trace_dropped: dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> MachineCaps {
        MachineCaps {
            issue_width: 4,
            iq: 8,
            rob: 16,
            lq: 4,
            sq: 4,
        }
    }

    #[test]
    fn attribution_priority_order() {
        let mut c = ObsCollector::new(caps());
        // Cycle 0: port conflict beats everything.
        c.note_load_miss(100);
        c.end_cycle(
            0,
            &CycleState {
                ready_left: 2,
                rob_used: 5,
                ..CycleState::default()
            },
        );
        // Cycle 1: cache miss outstanding, nothing ready.
        c.end_cycle(
            1,
            &CycleState {
                rob_used: 5,
                ..CycleState::default()
            },
        );
        // Cycle 2: handle executing (miss drained at 100 → still set; use
        // a fresh collector for isolation below instead).
        let r = c.finish(2);
        assert_eq!(r.stalls.total(StallCause::PortConflict), 4);
        assert_eq!(r.stalls.total(StallCause::CacheMiss), 4);
        assert!(r.conservation_ok());
    }

    #[test]
    fn structural_and_frontend_causes() {
        let mut c = ObsCollector::new(caps());
        c.note_dispatch_block(DispatchBlock::Rob);
        c.note_dispatch_block(DispatchBlock::Iq); // first one wins
        c.end_cycle(
            0,
            &CycleState {
                rob_used: 16,
                ..CycleState::default()
            },
        );
        c.end_cycle(
            1,
            &CycleState {
                rob_used: 3,
                ..CycleState::default()
            },
        );
        c.end_cycle(
            2,
            &CycleState {
                fetch_stalled: true,
                redirect: RedirectKind::Mispredict,
                ..CycleState::default()
            },
        );
        c.end_cycle(3, &CycleState::default());
        let r = c.finish(4);
        assert_eq!(r.stalls.total(StallCause::RobFull), 4);
        assert_eq!(r.stalls.total(StallCause::EmptyReady), 4);
        assert_eq!(r.stalls.total(StallCause::MispredictRedirect), 4);
        assert_eq!(r.stalls.total(StallCause::FrontendFill), 4);
        assert!(r.conservation_ok());
    }

    #[test]
    fn busy_slots_and_commit_flow() {
        let mut c = ObsCollector::new(caps());
        for _ in 0..3 {
            c.note_issue();
        }
        c.note_commit_instrs(2);
        c.end_cycle(
            0,
            &CycleState {
                rob_used: 4,
                iq_used: 2,
                ..CycleState::default()
            },
        );
        let r = c.finish(1);
        assert_eq!(r.stalls.total(StallCause::Busy), 3);
        assert_eq!(r.stalls.total(StallCause::EmptyReady), 1);
        assert_eq!(r.committed_instrs, 2);
        assert_eq!(r.occupancy.iq.samples, 1);
        assert!((r.occupancy.rob.mean() - 4.0).abs() < 1e-12);
        assert!(r.conservation_ok());
    }
}
