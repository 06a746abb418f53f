//! Machine configurations (Table 1 of the paper).

use serde::{Deserialize, Serialize};

/// A set-associative cache's geometry and hit latency.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency on a hit, in cycles.
    pub hit_lat: u32,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    /// Validates power-of-two geometry.
    pub fn is_valid(&self) -> bool {
        self.line_bytes.is_power_of_two()
            && self.sets().is_power_of_two()
            && self.size_bytes == self.sets() * self.assoc * self.line_bytes
    }
}

/// Branch predictor configuration: hybrid bimodal/gshare with a meta
/// chooser, a set-associative BTB, and a return address stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BPredConfig {
    /// log2 of bimodal table entries.
    pub bimodal_bits: u32,
    /// log2 of gshare table entries.
    pub gshare_bits: u32,
    /// Global history length for gshare.
    pub hist_len: u32,
    /// log2 of meta-chooser entries.
    pub meta_bits: u32,
    /// BTB sets.
    pub btb_sets: u32,
    /// BTB associativity.
    pub btb_assoc: u32,
    /// Return-address-stack entries.
    pub ras_entries: u32,
}

impl BPredConfig {
    /// The paper's 24Kb hybrid predictor with a 2K-entry 4-way BTB and a
    /// 32-entry RAS.
    pub fn paper() -> BPredConfig {
        BPredConfig {
            bimodal_bits: 12,
            gshare_bits: 12,
            hist_len: 12,
            meta_bits: 12,
            btb_sets: 512,
            btb_assoc: 4,
            ras_entries: 32,
        }
    }
}

/// StoreSets memory-dependence predictor configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StoreSetsConfig {
    /// Store-set ID table entries (power of two).
    pub ssit_entries: u32,
}

impl StoreSetsConfig {
    /// The paper's 1K-entry predictor.
    pub fn paper() -> StoreSetsConfig {
        StoreSetsConfig { ssit_entries: 1024 }
    }
}

/// Mini-graph execution support.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MgConfig {
    /// Whether handles are recognized (mini-graph processor) or every
    /// tagged instance executes in its outlined singleton form
    /// (compatibility mode).
    pub enabled: bool,
    /// Maximum handles issued per cycle.
    pub max_mg_issue: u32,
    /// Of those, maximum handles containing a memory operation.
    pub max_mem_mg_issue: u32,
    /// Mini-graph table entries (template budget).
    pub mgt_entries: u32,
    /// Number of ALU pipelines (bounds `max_mg_issue`).
    pub alu_pipelines: u32,
    /// ALU pipeline depth (bounds constituent count).
    pub alu_pipeline_depth: u32,
    /// Whether constituents execute strictly in series (the paper's ALU
    /// pipeline design; rule #2). `false` models an idealized MGT that
    /// executes constituents in dataflow order — an ablation for §4.1's
    /// claim that internal serialization is an acceptable simplification.
    pub internal_serialization: bool,
}

impl MgConfig {
    /// The paper's mini-graph support: ≤4-instruction mini-graphs, 2
    /// handles issued per cycle (one with memory), a 512-entry MGT, and
    /// two 4-stage ALU pipelines.
    pub fn paper() -> MgConfig {
        MgConfig {
            enabled: true,
            max_mg_issue: 2,
            max_mem_mg_issue: 1,
            mgt_entries: 512,
            alu_pipelines: 2,
            alu_pipeline_depth: 4,
            internal_serialization: true,
        }
    }

    /// Mini-graph support disabled entirely.
    pub fn off() -> MgConfig {
        MgConfig {
            enabled: false,
            ..MgConfig::paper()
        }
    }
}

/// A complete machine configuration.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Configuration name (for reports).
    pub name: String,
    /// Fetch width (instructions per cycle; a handle counts as one).
    pub fetch_width: u32,
    /// Rename/dispatch width.
    pub rename_width: u32,
    /// Total issue width (sum of port grants per cycle is further
    /// constrained per class below).
    pub issue_width: u32,
    /// Commit width.
    pub commit_width: u32,
    /// Issue-queue entries.
    pub iq_entries: u32,
    /// Physical registers (architectural + rename).
    pub phys_regs: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Load-queue entries.
    pub lq_entries: u32,
    /// Store-queue entries.
    pub sq_entries: u32,
    /// Simple-integer issues per cycle.
    pub issue_simple: u32,
    /// Complex-integer issues per cycle.
    pub issue_complex: u32,
    /// Load issues per cycle.
    pub issue_load: u32,
    /// Store issues per cycle.
    pub issue_store: u32,
    /// Front-end depth in cycles from fetch to dispatch (predict + I$ +
    /// decode + rename stages).
    pub front_depth: u32,
    /// Cycles from issue selection to execution start (schedule +
    /// register read).
    pub sched_to_exec: u32,
    /// Instruction L1 cache.
    pub il1: CacheConfig,
    /// Data L1 cache.
    pub dl1: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles.
    pub mem_lat: u32,
    /// Branch prediction.
    pub bpred: BPredConfig,
    /// Memory-dependence prediction.
    pub storesets: StoreSetsConfig,
    /// Mini-graph support.
    pub mg: MgConfig,
}

impl MachineConfig {
    /// The queue capacities the observability collector sizes its
    /// occupancy histograms and stall table from.
    pub fn obs_caps(&self) -> mg_obs::MachineCaps {
        mg_obs::MachineCaps {
            issue_width: self.issue_width as usize,
            iq: self.iq_entries as usize,
            rob: self.rob_entries as usize,
            lq: self.lq_entries as usize,
            sq: self.sq_entries as usize,
        }
    }
}

/// Number of rename (non-architectural) registers in a configuration.
///
/// The paper's Alpha machine has 64 architectural registers and 144/120
/// physical ones (80/56 rename registers). This ISA has 32 architectural
/// registers; the presets below keep the paper's *rename* register counts.
pub fn rename_regs(cfg: &MachineConfig) -> u32 {
    cfg.phys_regs - mg_isa::reg::NUM_ARCH_REGS as u32
}

const PAPER_IL1: CacheConfig = CacheConfig {
    size_bytes: 32 * 1024,
    assoc: 2,
    line_bytes: 64,
    hit_lat: 3,
};
const PAPER_DL1: CacheConfig = CacheConfig {
    size_bytes: 32 * 1024,
    assoc: 2,
    line_bytes: 64,
    hit_lat: 3,
};
const PAPER_L2: CacheConfig = CacheConfig {
    size_bytes: 1024 * 1024,
    assoc: 4,
    line_bytes: 64,
    hit_lat: 12,
};

fn paper_common(name: &str) -> MachineConfig {
    MachineConfig {
        name: name.into(),
        fetch_width: 4,
        rename_width: 4,
        issue_width: 4,
        commit_width: 4,
        iq_entries: 30,
        phys_regs: 32 + 80,
        rob_entries: 128,
        lq_entries: 48,
        sq_entries: 32,
        issue_simple: 4,
        issue_complex: 1,
        issue_load: 2,
        issue_store: 1,
        front_depth: 7,   // 1 predict + 3 I$ + 1 decode + 2 rename
        sched_to_exec: 3, // 1 schedule + 2 regread
        il1: PAPER_IL1,
        dl1: PAPER_DL1,
        l2: PAPER_L2,
        mem_lat: 200,
        bpred: BPredConfig::paper(),
        storesets: StoreSetsConfig::paper(),
        mg: MgConfig::off(),
    }
}

impl MachineConfig {
    /// The fully-provisioned baseline: 4-way fetch/issue/commit, 30-entry
    /// issue queue, 80 rename registers (paper: 144 physical).
    pub fn baseline() -> MachineConfig {
        paper_common("baseline-4way")
    }

    /// The reduced machine: 3-way fetch/issue/commit, 20-entry issue
    /// queue, 56 rename registers (paper: 120 physical), 3 simple ALUs,
    /// 1 load port.
    pub fn reduced() -> MachineConfig {
        MachineConfig {
            name: "reduced-3way".into(),
            fetch_width: 3,
            rename_width: 3,
            issue_width: 3,
            commit_width: 3,
            iq_entries: 20,
            phys_regs: 32 + 56,
            issue_simple: 3,
            issue_complex: 1,
            issue_load: 1,
            issue_store: 1,
            ..paper_common("")
        }
    }

    /// A further-reduced 2-way machine (Figure 9 robustness study).
    pub fn two_way() -> MachineConfig {
        MachineConfig {
            name: "2way".into(),
            fetch_width: 2,
            rename_width: 2,
            issue_width: 2,
            commit_width: 2,
            iq_entries: 14,
            phys_regs: 32 + 40,
            issue_simple: 2,
            issue_complex: 1,
            issue_load: 1,
            issue_store: 1,
            ..paper_common("")
        }
    }

    /// An 8-way machine (Figure 9 robustness study).
    pub fn eight_way() -> MachineConfig {
        MachineConfig {
            name: "8way".into(),
            fetch_width: 8,
            rename_width: 8,
            issue_width: 8,
            commit_width: 8,
            iq_entries: 60,
            phys_regs: 32 + 160,
            rob_entries: 256,
            issue_simple: 8,
            issue_complex: 2,
            issue_load: 4,
            issue_store: 2,
            ..paper_common("")
        }
    }

    /// The reduced machine with the data-side memory hierarchy quartered:
    /// 8KB D-L1 and 256KB L2 (Figure 9's `dmem/4`).
    pub fn reduced_dmem4() -> MachineConfig {
        MachineConfig {
            name: "reduced-dmem4".into(),
            dl1: CacheConfig {
                size_bytes: 8 * 1024,
                ..PAPER_DL1
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                ..PAPER_L2
            },
            ..MachineConfig::reduced()
        }
    }

    /// The preset a command-line or wire tag names, ignoring case and
    /// surrounding whitespace: `baseline`/`base`/`4way`,
    /// `reduced`/`red`/`3way`, `2way`, `8way` and `dmem4`.
    pub fn by_tag(tag: &str) -> Option<MachineConfig> {
        match tag.trim().to_ascii_lowercase().as_str() {
            "baseline" | "base" | "4way" => Some(MachineConfig::baseline()),
            "reduced" | "red" | "3way" => Some(MachineConfig::reduced()),
            "2way" => Some(MachineConfig::two_way()),
            "8way" => Some(MachineConfig::eight_way()),
            "dmem4" => Some(MachineConfig::reduced_dmem4()),
            _ => None,
        }
    }

    /// Returns a copy with mini-graph support enabled.
    pub fn with_mg(mut self, mg: MgConfig) -> MachineConfig {
        self.mg = mg;
        self
    }

    /// Validates structural consistency.
    pub fn is_valid(&self) -> bool {
        self.fetch_width >= 1
            && self.issue_width >= 1
            && self.commit_width >= 1
            && self.iq_entries >= 2
            && self.phys_regs > mg_isa::reg::NUM_ARCH_REGS as u32
            && self.rob_entries >= 4
            && self.il1.is_valid()
            && self.dl1.is_valid()
            && self.l2.is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            MachineConfig::baseline(),
            MachineConfig::reduced(),
            MachineConfig::two_way(),
            MachineConfig::eight_way(),
            MachineConfig::reduced_dmem4(),
        ] {
            assert!(cfg.is_valid(), "{} invalid", cfg.name);
        }
    }

    #[test]
    fn reduced_matches_table1_ratios() {
        let base = MachineConfig::baseline();
        let red = MachineConfig::reduced();
        assert_eq!(base.fetch_width, 4);
        assert_eq!(red.fetch_width, 3);
        assert_eq!(base.iq_entries, 30);
        assert_eq!(red.iq_entries, 20);
        // 80 vs 56 rename registers, as in the paper.
        assert_eq!(rename_regs(&base), 80);
        assert_eq!(rename_regs(&red), 56);
        assert_eq!(red.issue_load, 1);
        assert_eq!(base.issue_load, 2);
    }

    #[test]
    fn cache_geometry() {
        let c = PAPER_IL1;
        assert!(c.is_valid());
        assert_eq!(c.sets(), 256);
        let l2 = PAPER_L2;
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    fn dmem4_quarters_data_caches_only() {
        let d = MachineConfig::reduced_dmem4();
        let r = MachineConfig::reduced();
        assert_eq!(d.dl1.size_bytes, r.dl1.size_bytes / 4);
        assert_eq!(d.l2.size_bytes, r.l2.size_bytes / 4);
        assert_eq!(d.il1, r.il1);
        assert_eq!(d.fetch_width, r.fetch_width);
    }

    #[test]
    fn every_tag_alias_names_its_preset() {
        let cases = [
            ("baseline", MachineConfig::baseline()),
            ("base", MachineConfig::baseline()),
            ("4way", MachineConfig::baseline()),
            ("reduced", MachineConfig::reduced()),
            ("red", MachineConfig::reduced()),
            ("3way", MachineConfig::reduced()),
            ("2way", MachineConfig::two_way()),
            ("8way", MachineConfig::eight_way()),
            ("dmem4", MachineConfig::reduced_dmem4()),
        ];
        for (tag, preset) in cases {
            assert_eq!(MachineConfig::by_tag(tag), Some(preset.clone()), "{tag}");
            let shouted = format!("  {}\t", tag.to_ascii_uppercase());
            assert_eq!(MachineConfig::by_tag(&shouted), Some(preset), "{shouted:?}");
        }
        for unknown in ["", "reduce", "4-way", "dmem"] {
            assert_eq!(MachineConfig::by_tag(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn mg_paper_config() {
        let mg = MgConfig::paper();
        assert!(mg.enabled);
        assert_eq!(mg.mgt_entries, 512);
        assert_eq!(mg.max_mg_issue, 2);
        assert!(!MgConfig::off().enabled);
    }
}
