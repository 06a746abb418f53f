//! MGT templates: grouping structurally identical candidates.
//!
//! Candidates from different static locations share one mini-graph table
//! entry when their *templates* match: same constituent operations (with
//! immediates — the MGT stores literal operation descriptions) and the
//! same internal dataflow. Register names are immaterial: external inputs
//! are positional in the handle encoding.

use crate::candidate::{CandSrc, Candidate};
use mg_isa::{BasicBlock, Opcode, Program};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A canonical template signature.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct TemplateSig {
    ops: Vec<(OpcodeKey, i64)>,
    links: Vec<[CandSrc; 2]>,
    output_pos: Option<u8>,
}

/// Opcode identity for hashing (branch conditions matter).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
struct OpcodeKey(Opcode);

impl TemplateSig {
    /// Computes the signature of a candidate.
    pub fn of(candidate: &Candidate, block: &BasicBlock) -> TemplateSig {
        let ops = candidate
            .positions
            .iter()
            .map(|&p| {
                let inst = &block.insts[p];
                (OpcodeKey(inst.op), inst.imm)
            })
            .collect();
        TemplateSig {
            ops,
            links: candidate.shape.srcs.clone(),
            output_pos: candidate.shape.output_pos,
        }
    }

    /// A short stable hash, for display.
    pub fn short_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Candidates grouped into a template.
#[derive(Clone, Debug)]
pub struct Template {
    /// The shared signature.
    pub sig: TemplateSig,
    /// Indices into the candidate pool.
    pub members: Vec<usize>,
}

/// Groups a candidate pool by template signature. Order is deterministic
/// (by first member).
pub fn group_templates(program: &Program, pool: &[Candidate]) -> Vec<Template> {
    let mut by_sig: HashMap<TemplateSig, Vec<usize>> = HashMap::new();
    for (i, cand) in pool.iter().enumerate() {
        let sig = TemplateSig::of(cand, program.block(cand.block));
        by_sig.entry(sig).or_default().push(i);
    }
    let mut templates: Vec<Template> = by_sig
        .into_iter()
        .map(|(sig, members)| Template { sig, members })
        .collect();
    templates.sort_by_key(|t| t.members[0]);
    templates
}

/// A pool's template grouping, computed once and restricted to each
/// selector's admitted sub-pool.
#[derive(Clone, Debug)]
pub struct TemplateIndex {
    /// Number of templates [`group_templates`] finds in the whole pool.
    count: usize,
    /// Pool index -> index of its template in that grouping.
    template_of: Vec<u32>,
}

impl TemplateIndex {
    /// Groups `pool` (see [`group_templates`]).
    pub fn build(program: &Program, pool: &[Candidate]) -> TemplateIndex {
        let templates = group_templates(program, pool);
        let mut template_of = vec![0u32; pool.len()];
        for (ti, t) in templates.iter().enumerate() {
            for &m in &t.members {
                template_of[m] = ti as u32;
            }
        }
        TemplateIndex {
            count: templates.len(),
            template_of,
        }
    }

    /// The member lists [`group_templates`] returns for the sub-pool of
    /// candidates with `admitted[i]` set, as pool indices: templates
    /// without an admitted member are dropped, the rest keep only their
    /// admitted members and are ordered by their first one. Candidates
    /// share a template exactly when their signatures match, whichever
    /// sub-pool they are grouped in, so no signature is recomputed.
    pub fn restrict(&self, admitted: &[bool]) -> Vec<Vec<usize>> {
        assert_eq!(
            admitted.len(),
            self.template_of.len(),
            "one flag per candidate"
        );
        let mut rank = vec![u32::MAX; self.count];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (i, _) in admitted.iter().enumerate().filter(|(_, &a)| a) {
            let r = &mut rank[self.template_of[i] as usize];
            if *r == u32::MAX {
                *r = members.len() as u32;
                members.push(Vec::new());
            }
            members[*r as usize].push(i);
        }
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{enumerate, SelectionConfig};
    use mg_isa::{BrCond, Instruction, ProgramBuilder, Reg};

    #[test]
    fn identical_shapes_share_a_template() {
        // Two blocks with the same addi/xori pair on different registers.
        let mut pb = ProgramBuilder::new("t");
        let f = pb.func("main");
        let b0 = pb.block(f);
        let b1 = pb.block(f);
        let b2 = pb.block(f);
        pb.push(b0, Instruction::addi(Reg::R1, Reg::R10, 7));
        pb.push(
            b0,
            Instruction::alu_ri(mg_isa::Opcode::XorI, Reg::R2, Reg::R1, 9),
        );
        pb.push(b0, Instruction::store(Reg::R20, Reg::R2, 0));
        pb.set_fallthrough(b0, b1);
        pb.push(b1, Instruction::addi(Reg::R3, Reg::R11, 7));
        pb.push(
            b1,
            Instruction::alu_ri(mg_isa::Opcode::XorI, Reg::R4, Reg::R3, 9),
        );
        pb.push(b1, Instruction::store(Reg::R21, Reg::R4, 0));
        pb.set_fallthrough(b1, b2);
        pb.push(b2, Instruction::halt());
        let p = pb.build().unwrap();
        let pool = enumerate(&p, &SelectionConfig::default());
        let pairs: Vec<&Candidate> = pool.iter().filter(|c| c.positions == vec![0, 1]).collect();
        assert_eq!(pairs.len(), 2);
        let templates = group_templates(&p, &pool);
        let t = templates
            .iter()
            .find(|t| t.members.len() == 2)
            .expect("the two pairs share one template");
        assert_eq!(t.members.len(), 2);
    }

    #[test]
    fn different_immediates_split_templates() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.func("main");
        let b0 = pb.block(f);
        let b1 = pb.block(f);
        let b2 = pb.block(f);
        pb.push(b0, Instruction::addi(Reg::R1, Reg::R10, 7));
        pb.push(b0, Instruction::store(Reg::R20, Reg::R1, 0));
        pb.set_fallthrough(b0, b1);
        pb.push(b1, Instruction::addi(Reg::R3, Reg::R11, 8)); // different imm
        pb.push(b1, Instruction::store(Reg::R21, Reg::R3, 0));
        pb.set_fallthrough(b1, b2);
        pb.push(b2, Instruction::halt());
        let p = pb.build().unwrap();
        let pool = enumerate(&p, &SelectionConfig::default());
        let templates = group_templates(&p, &pool);
        // No template groups candidates across the two blocks.
        for t in &templates {
            let blocks: std::collections::HashSet<u32> =
                t.members.iter().map(|&m| pool[m].block.0).collect();
            assert_eq!(blocks.len(), 1);
        }
    }

    #[test]
    fn branch_condition_is_part_of_identity() {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.func("main");
        let b0 = pb.block(f);
        let b1 = pb.block(f);
        let b2 = pb.block(f);
        pb.push(b0, Instruction::addi(Reg::R1, Reg::R10, 1));
        pb.push(b0, Instruction::br(BrCond::Eq, Reg::R1, Reg::ZERO, b0));
        pb.set_fallthrough(b0, b1);
        pb.push(b1, Instruction::addi(Reg::R2, Reg::R11, 1));
        pb.push(b1, Instruction::br(BrCond::Ne, Reg::R2, Reg::ZERO, b1));
        pb.set_fallthrough(b1, b2);
        pb.push(b2, Instruction::halt());
        let p = pb.build().unwrap();
        let pool = enumerate(&p, &SelectionConfig::default());
        let templates = group_templates(&p, &pool);
        let pair_templates: Vec<&Template> = templates
            .iter()
            .filter(|t| pool[t.members[0]].len() == 2)
            .collect();
        assert!(pair_templates.len() >= 2, "beq and bne must not merge");
    }
}
