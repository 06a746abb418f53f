//! The serializable per-run report and the cross-run aggregate.

use serde::{Deserialize, Serialize};

use crate::metrics::{Histogram, WindowIpc};
use crate::stall::StallTable;

/// Occupancy histograms for the four bounded queues.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OccupancyReport {
    /// Issue-queue occupancy per cycle.
    pub iq: Histogram,
    /// Reorder-buffer occupancy per cycle.
    pub rob: Histogram,
    /// Load-queue occupancy per cycle.
    pub lq: Histogram,
    /// Store-queue occupancy per cycle.
    pub sq: Histogram,
}

/// Everything one instrumented run produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Total simulated cycles (equals the number of attributed cycles).
    pub cycles: u64,
    /// Architectural instructions committed.
    pub committed_instrs: u64,
    /// Machine issue width (stall-table slot count).
    pub issue_width: usize,
    /// Per-slot stall attribution.
    pub stalls: StallTable,
    /// Queue occupancy distributions.
    pub occupancy: OccupancyReport,
    /// Windowed committed-instruction counts.
    pub ipc: WindowIpc,
}

impl ObsReport {
    /// Whether the stall table's per-slot counts sum to `cycles` — the
    /// attribution conservation invariant.
    pub fn conservation_ok(&self) -> bool {
        self.stalls.conservation_ok(self.cycles)
    }
}

/// A fold of many [`ObsReport`]s — the sweep runner's cross-benchmark,
/// cross-scheme stall-attribution aggregate.
///
/// Runs from machines of different issue widths may be absorbed into one
/// aggregate: the merged table is padded to the widest run. Conservation
/// is then checked on the grand total (every charged slot-cycle counted
/// exactly once) rather than per slot, since padded slots were never
/// charged in the narrower runs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsAggregate {
    /// Number of reports absorbed.
    pub runs: u64,
    /// Total cycles across all runs.
    pub cycles: u64,
    /// Total committed instructions across all runs.
    pub committed_instrs: u64,
    /// Total issue-slot cycles across all runs (`Σ cycles·width`) — the
    /// grand-total conservation reference.
    pub slot_cycles: u64,
    /// Merged stall table (`None` until the first absorb).
    pub stalls: Option<StallTable>,
}

impl ObsAggregate {
    /// An empty aggregate.
    pub fn new() -> ObsAggregate {
        ObsAggregate::default()
    }

    fn fold_table(into: &mut Option<StallTable>, table: &StallTable) {
        match into {
            Some(t) => {
                if t.width < table.width {
                    t.widen(table.width);
                }
                let mut other = table.clone();
                other.widen(t.width);
                t.merge(&other);
            }
            None => *into = Some(table.clone()),
        }
    }

    /// Folds one run's report into the aggregate.
    pub fn absorb(&mut self, r: &ObsReport) {
        self.runs += 1;
        self.cycles += r.cycles;
        self.committed_instrs += r.committed_instrs;
        self.slot_cycles += r.cycles * r.issue_width as u64;
        Self::fold_table(&mut self.stalls, &r.stalls);
    }

    /// Folds another aggregate into this one (the sweep runner merges
    /// per-benchmark aggregates into a sweep-wide one).
    pub fn merge(&mut self, other: &ObsAggregate) {
        self.runs += other.runs;
        self.cycles += other.cycles;
        self.committed_instrs += other.committed_instrs;
        self.slot_cycles += other.slot_cycles;
        if let Some(t) = &other.stalls {
            Self::fold_table(&mut self.stalls, t);
        }
    }

    /// Whether the merged table still conserves cycles: every issue-slot
    /// cycle of every absorbed run is counted exactly once.
    pub fn conservation_ok(&self) -> bool {
        match &self.stalls {
            Some(t) => t.grand_total() == self.slot_cycles,
            None => self.cycles == 0,
        }
    }

    /// Renders a summary: run counts, aggregate IPC, and the merged
    /// stall table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ipc = if self.cycles == 0 {
            0.0
        } else {
            self.committed_instrs as f64 / self.cycles as f64
        };
        out.push_str(&format!(
            "obs aggregate: {} runs, {} cycles, {} instrs, IPC {:.3}\n",
            self.runs, self.cycles, self.committed_instrs, ipc
        ));
        if let Some(t) = &self.stalls {
            out.push_str(&t.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{CycleState, MachineCaps, ObsCollector};
    use crate::stall::StallCause;

    fn tiny_report(cycles: u64) -> ObsReport {
        let mut c = ObsCollector::new(MachineCaps {
            issue_width: 2,
            iq: 4,
            rob: 8,
            lq: 2,
            sq: 2,
        });
        for cyc in 0..cycles {
            c.note_issue();
            c.note_commit_instrs(1);
            c.end_cycle(cyc, &CycleState::default());
        }
        c.finish(cycles)
    }

    #[test]
    fn aggregate_absorbs_and_conserves() {
        let mut agg = ObsAggregate::new();
        assert!(agg.conservation_ok());
        agg.absorb(&tiny_report(3));
        agg.absorb(&tiny_report(5));
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.cycles, 8);
        assert_eq!(agg.committed_instrs, 8);
        assert!(agg.conservation_ok());
        let text = agg.render();
        assert!(text.contains("2 runs"));
        assert!(text.contains("busy"));
        assert_eq!(agg.stalls.as_ref().unwrap().total(StallCause::Busy), 8);
    }

    #[test]
    fn aggregates_merge_and_conserve() {
        let mut a = ObsAggregate::new();
        a.absorb(&tiny_report(3));
        let mut b = ObsAggregate::new();
        b.absorb(&tiny_report(5));
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.cycles, 8);
        assert_eq!(a.slot_cycles, 16, "two-wide machine, 8 cycles");
        assert!(a.conservation_ok());
        // Merging an empty aggregate changes nothing.
        a.merge(&ObsAggregate::new());
        assert_eq!(a.runs, 2);
        assert!(a.conservation_ok());
    }

    #[test]
    fn report_serde_round_trip() {
        let r = tiny_report(4);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: ObsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(back.conservation_ok());
    }
}
