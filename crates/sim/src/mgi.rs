//! Mini-graph instance metadata, derived from a tagged program.
//!
//! The binary rewriter (`mg-core`) marks instances with
//! [`MgTag`](mg_isa::MgTag)s; this module recovers each instance's
//! *interface* — external register inputs, the single register output,
//! memory/control constituents — which is what the timing simulator needs
//! to treat the instance as a handle. Interfaces are recomputed from
//! dataflow rather than trusted from the rewriter, and validated against
//! the RISC-singleton constraints.

use mg_isa::dataflow::{self, BlockDataflow, UseSource};
use mg_isa::{BlockId, Program, Reg, StaticId};
use serde::{Deserialize, Serialize};

/// Interface and shape of one mini-graph instance.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceInfo {
    /// Instance id (program-unique, from the tags).
    pub instance: u32,
    /// Template this instance maps to.
    pub template: u16,
    /// Containing block.
    pub block: BlockId,
    /// Index of the first constituent within the block.
    pub start: usize,
    /// Number of constituents.
    pub len: usize,
    /// Static id of the handle (position-0) instruction.
    pub handle_id: StaticId,
    /// External register inputs, deduplicated, with the position of the
    /// *earliest* constituent reading each (for serialization analysis).
    pub ext_inputs: Vec<(Reg, usize)>,
    /// The register output: `(reg, producing position)`, if any value is
    /// visible outside the instance.
    pub output: Option<(Reg, usize)>,
    /// Position of the memory constituent, if any, and whether it is a
    /// load.
    pub mem: Option<(usize, bool)>,
    /// Position of the control-transfer constituent, if any (always the
    /// last position when present).
    pub control: Option<usize>,
    /// Per-position source operands resolved to either an external input
    /// register or an internal producer position.
    pub src_links: Vec<[Option<SrcLink>; 2]>,
    /// Cumulative optimistic execution latency before each position
    /// starts, assuming serial constituent execution (rule #2).
    pub lat_prefix: Vec<u32>,
}

/// Where a constituent's source operand comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrcLink {
    /// An external register input.
    External(Reg),
    /// The value produced by an earlier constituent (position given).
    Internal(usize),
}

impl InstanceInfo {
    /// Whether any external input feeds a constituent other than the
    /// first — the structural precondition for *external serialization*.
    pub fn potentially_serializing(&self) -> bool {
        self.ext_inputs.iter().any(|&(_, pos)| pos > 0)
    }

    /// Total optimistic execution latency of the instance (sum of
    /// constituent latencies, loads at the L1 hit latency baked in at
    /// construction).
    pub fn total_latency(&self) -> u32 {
        *self.lat_prefix.last().unwrap_or(&0)
    }

    /// Position of the constituent producing the register output, if any.
    pub fn output_pos(&self) -> Option<usize> {
        self.output.map(|(_, pos)| pos)
    }

    /// Latency from handle issue until the *output* value is produced
    /// (optimistic), or until the end for output-less instances.
    pub fn output_latency(&self) -> u32 {
        match self.output {
            Some((_, pos)) => self.lat_prefix[pos + 1],
            None => *self.lat_prefix.last().unwrap_or(&0),
        }
    }
}

/// All instances of a program, indexed for the simulator.
#[derive(Clone, Debug, Default)]
pub struct InstanceMap {
    /// Instances ordered by handle static id.
    pub instances: Vec<InstanceInfo>,
    /// Number of distinct templates.
    pub template_count: usize,
}

impl InstanceMap {
    /// Scans a tagged program and builds the instance map.
    ///
    /// # Panics
    ///
    /// Panics if an instance violates the RISC-singleton interface
    /// constraints (more than 3 external inputs or more than 1 output) —
    /// the rewriter must never emit such instances.
    pub fn build(program: &Program, l1_hit: u32) -> InstanceMap {
        let live = dataflow::liveness(program);
        let mut instances = Vec::new();
        let mut max_template = 0usize;
        for (bi, block) in program.blocks().iter().enumerate() {
            let bid = BlockId(bi as u32);
            if block.insts.iter().all(|i| i.mg.is_none()) {
                continue;
            }
            let df = BlockDataflow::analyze(block, live.live_out(bid));
            let mut i = 0usize;
            while i < block.insts.len() {
                let Some(tag) = block.insts[i].mg else {
                    i += 1;
                    continue;
                };
                debug_assert_eq!(tag.pos, 0, "validated tags start at 0");
                let len = tag.len as usize;
                let positions: Vec<usize> = (i..i + len).collect();
                let info = build_instance(
                    program,
                    bid,
                    block,
                    &df,
                    &positions,
                    tag.instance,
                    tag.template,
                    l1_hit,
                );
                max_template = max_template.max(tag.template as usize + 1);
                instances.push(info);
                i += len;
            }
        }
        instances.sort_by_key(|inst| inst.handle_id.0);
        InstanceMap {
            instances,
            template_count: max_template,
        }
    }

    /// The index (into [`instances`](Self::instances)) of the instance
    /// whose handle is `id`, if any.
    pub fn index_of_handle(&self, id: StaticId) -> Option<u32> {
        self.instances
            .binary_search_by_key(&id.0, |inst| inst.handle_id.0)
            .ok()
            .map(|i| i as u32)
    }

    /// Whether the program has any instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

#[allow(clippy::too_many_arguments)]
fn build_instance(
    program: &Program,
    bid: BlockId,
    block: &mg_isa::BasicBlock,
    df: &BlockDataflow,
    positions: &[usize],
    instance: u32,
    template: u16,
    l1_hit: u32,
) -> InstanceInfo {
    let start = positions[0];
    let len = positions.len();
    let mut ext_inputs: Vec<(Reg, usize)> = Vec::new();
    let mut src_links: Vec<[Option<SrcLink>; 2]> = Vec::with_capacity(len);
    let mut output: Option<(Reg, usize)> = None;
    let mut mem: Option<(usize, bool)> = None;
    let mut control: Option<usize> = None;
    let mut lat_prefix = Vec::with_capacity(len + 1);
    let mut lat = 0u32;

    for (p, &pos) in positions.iter().enumerate() {
        let inst = &block.insts[pos];
        lat_prefix.push(lat);
        lat += inst.op.optimistic_latency(l1_hit);
        let mut links = [None, None];
        for (slot, src) in [inst.src1, inst.src2].into_iter().enumerate() {
            let Some(r) = src else { continue };
            if r.is_zero() {
                continue;
            }
            let link = match df.src_origin[pos][slot] {
                Some(UseSource::Local(d)) if positions.contains(&d) => SrcLink::Internal(d - start),
                _ => {
                    if !ext_inputs.iter().any(|&(er, _)| er == r) {
                        ext_inputs.push((r, p));
                    }
                    SrcLink::External(r)
                }
            };
            links[slot] = Some(link);
        }
        src_links.push(links);

        if inst.op.is_mem() {
            assert!(mem.is_none(), "instance {instance} has two memory ops");
            mem = Some((p, inst.op.is_load()));
        }
        if inst.op.is_control() {
            assert!(control.is_none(), "instance {instance} has two control ops");
            control = Some(p);
        }
        if let Some(d) = inst.def() {
            // Visible outside the instance (consumed later in the block
            // outside it, or live out of the block) => output.
            if df.value_visible_outside(pos, positions) {
                assert!(
                    output.is_none() || output.map(|(r, _)| r) == Some(d),
                    "instance {instance} has two register outputs"
                );
                output = Some((d, p));
            }
        }
    }
    lat_prefix.push(lat);
    assert!(
        ext_inputs.len() <= 3,
        "instance {instance} has {} external inputs",
        ext_inputs.len()
    );

    InstanceInfo {
        instance,
        template,
        block: bid,
        start,
        len,
        handle_id: program.id_of(bid, start),
        ext_inputs,
        output,
        mem,
        control,
        src_links,
        lat_prefix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::{Instruction, MgTag, ProgramBuilder};

    fn tag(instance: u32, pos: u8, len: u8) -> MgTag {
        MgTag {
            instance,
            template: instance as u16,
            pos,
            len,
        }
    }

    /// r1 = li 5; [r2 = addi r1,1 ; r3 = addi r2,2] ; st r3; halt
    fn chain_program() -> Program {
        let mut pb = ProgramBuilder::new("chain");
        let f = pb.func("main");
        let b = pb.block(f);
        pb.push(b, Instruction::li(Reg::R1, 5));
        pb.push(
            b,
            Instruction::addi(Reg::R2, Reg::R1, 1).with_mg(tag(0, 0, 2)),
        );
        pb.push(
            b,
            Instruction::addi(Reg::R3, Reg::R2, 2).with_mg(tag(0, 1, 2)),
        );
        pb.push(b, Instruction::store(Reg::R4, Reg::R3, 0));
        pb.push(b, Instruction::halt());
        pb.build().unwrap()
    }

    #[test]
    fn connected_chain_interface() {
        let p = chain_program();
        let m = InstanceMap::build(&p, 3);
        assert_eq!(m.instances.len(), 1);
        let inst = &m.instances[0];
        assert_eq!(inst.len, 2);
        assert_eq!(inst.ext_inputs, vec![(Reg::R1, 0)]);
        assert_eq!(inst.output, Some((Reg::R3, 1)));
        assert!(!inst.potentially_serializing());
        // r2 is interior: consumed only inside.
        assert_eq!(inst.src_links[1][0], Some(SrcLink::Internal(0)));
        assert_eq!(inst.lat_prefix, vec![0, 1, 2]);
        assert_eq!(inst.output_latency(), 2);
        assert_eq!(inst.total_latency(), 2);
    }

    /// Disconnected instance: two independent ALU ops; second value is
    /// interior (dead), first is the output.
    #[test]
    fn serializing_input_detected() {
        let mut pb = ProgramBuilder::new("ser");
        let f = pb.func("main");
        let b = pb.block(f);
        pb.push(b, Instruction::li(Reg::R1, 5));
        pb.push(b, Instruction::li(Reg::R4, 7));
        // Instance: out = addi r1; dead = addi r4 (external input to pos 1).
        pb.push(
            b,
            Instruction::addi(Reg::R2, Reg::R1, 1).with_mg(tag(0, 0, 2)),
        );
        pb.push(
            b,
            Instruction::addi(Reg::R5, Reg::R4, 1).with_mg(tag(0, 1, 2)),
        );
        pb.push(b, Instruction::store(Reg::R6, Reg::R2, 0));
        pb.push(b, Instruction::halt());
        let p = pb.build().unwrap();
        let m = InstanceMap::build(&p, 3);
        let inst = &m.instances[0];
        assert!(inst.potentially_serializing());
        assert_eq!(inst.output, Some((Reg::R2, 0)));
        assert_eq!(inst.ext_inputs, vec![(Reg::R1, 0), (Reg::R4, 1)]);
    }

    #[test]
    fn memory_and_handle_lookup() {
        let mut pb = ProgramBuilder::new("mem");
        let f = pb.func("main");
        let b = pb.block(f);
        pb.push(b, Instruction::li(Reg::R1, 0x2000));
        pb.push(
            b,
            Instruction::addi(Reg::R2, Reg::R1, 8).with_mg(tag(0, 0, 2)),
        );
        pb.push(
            b,
            Instruction::load(Reg::R3, Reg::R2, 0).with_mg(tag(0, 1, 2)),
        );
        pb.push(b, Instruction::store(Reg::R1, Reg::R3, 0));
        pb.push(b, Instruction::halt());
        let p = pb.build().unwrap();
        let m = InstanceMap::build(&p, 3);
        let inst = &m.instances[0];
        assert_eq!(inst.mem, Some((1, true)));
        assert_eq!(inst.output, Some((Reg::R3, 1)));
        // Load at L1 hit = 3 cycles: prefix [0, 1, 4].
        assert_eq!(inst.lat_prefix, vec![0, 1, 4]);
        let handle = p.id_of(b, 1);
        let idx = m.index_of_handle(handle).unwrap();
        assert_eq!(m.instances[idx as usize].instance, 0);
        assert_eq!(m.index_of_handle(p.id_of(b, 0)), None);
    }

    #[test]
    fn untagged_program_yields_empty_map() {
        let mut pb = ProgramBuilder::new("plain");
        let f = pb.func("main");
        let b = pb.block(f);
        pb.push(b, Instruction::halt());
        let p = pb.build().unwrap();
        assert!(InstanceMap::build(&p, 3).is_empty());
    }
}
