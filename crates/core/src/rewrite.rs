//! The binary rewriter: embeds chosen mini-graph instances into a program.
//!
//! Produces a *new* program in which each chosen instance's constituents
//! are contiguous (dependence-preserving intra-block scheduling) and
//! tagged with [`MgTag`]s. Functional semantics are preserved — the
//! integration tests execute original and rewritten programs and compare
//! final architectural state.
//!
//! The rewrite only reorders instructions within blocks: it changes no
//! value, address or branch direction, and keeps every block's length.
//! So the rewritten program's committed trace is the original's with
//! each block instance permuted by its block's [`Schedules`] entry,
//! which [`Schedules::project`] computes without executing anything.

use crate::candidate::{Candidate, MAX_CANDIDATE_LEN};
use crate::depgraph::{schedule_with_groups, BlockDepsCache};
use mg_isa::{BasicBlock, BlockId, Instruction, IsaError, MgTag, Program, StaticId};
use mg_workloads::{DynInst, Trace};
use std::collections::HashMap;
use std::fmt;

/// A selected instance: a candidate plus its assigned MGT template id.
#[derive(Clone, Debug)]
pub struct ChosenInstance {
    /// The candidate (block + original positions + shape).
    pub candidate: Candidate,
    /// MGT template index.
    pub template: u16,
}

/// Why a rewrite could not be performed.
///
/// Selectors validate their choices before handing them over, so a
/// well-behaved pipeline never sees these — but externally constructed
/// (or fuzzer-generated) instance sets can trip every one of them, and a
/// sweep must report the row as an error rather than abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RewriteError {
    /// An instance has more constituents than an [`MgTag`] can encode
    /// (`pos`/`len` are `u8`); see [`MAX_CANDIDATE_LEN`].
    OversizedInstance {
        /// Block the instance lives in.
        block: BlockId,
        /// Number of constituents in the offending instance.
        len: usize,
    },
    /// The chosen instances in a block overlap or cannot be made
    /// contiguous without violating intra-block dependences.
    Unschedulable {
        /// Block whose groups failed to schedule.
        block: BlockId,
    },
    /// The rewritten program failed `mg-isa`'s structural validator.
    Structural(IsaError),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::OversizedInstance { block, len } => write!(
                f,
                "instance in block {} has {} constituents; MgTag encodes at most {}",
                block.0, len, MAX_CANDIDATE_LEN
            ),
            RewriteError::Unschedulable { block } => write!(
                f,
                "chosen instances in block {} overlap or cannot be scheduled contiguously",
                block.0
            ),
            RewriteError::Structural(e) => write!(f, "rewritten program is invalid: {e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<IsaError> for RewriteError {
    fn from(e: IsaError) -> Self {
        RewriteError::Structural(e)
    }
}

/// The instruction order a rewrite gave each block it reordered: for
/// every block holding a chosen instance, `order[new position]` is the
/// instruction's position in the original block. Other blocks keep their
/// order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedules {
    blocks: Vec<(BlockId, Vec<usize>)>,
}

impl Schedules {
    /// The reordered blocks and their orders (new position → old
    /// position), by ascending block.
    pub fn blocks(&self) -> &[(BlockId, Vec<usize>)] {
        &self.blocks
    }

    /// The committed trace of the rewritten program, derived from
    /// `trace`, the original program's committed trace on the same
    /// input. `program` is either program: the rewrite keeps every
    /// block's length, so both have the same `StaticId` layout.
    ///
    /// Each dynamic block instance is permuted by its block's order and
    /// its ids are remapped: `StaticId`s are block-major, so the
    /// instruction at new position `j` of block `b` has id
    /// `first_id[b] + j`. Addresses and branch outcomes travel with
    /// their instructions.
    ///
    /// A truncated trace may end inside a block instance. That partial
    /// instance is dropped, since its reordered prefix holds different
    /// instructions than the original's; the projection keeps the whole
    /// instances before it and stays `truncated`. (Re-executing the
    /// rewritten program to the same limit would instead keep a partial
    /// instance of the rewritten block.)
    pub fn project(&self, program: &Program, trace: &Trace) -> Trace {
        // New position minus old position of each original static
        // instruction: its id shift, and its trace-index shift within
        // the block instance.
        let mut shift = vec![0isize; program.static_count()];
        for (block, order) in &self.blocks {
            for (new, &old) in order.iter().enumerate() {
                shift[program.id_of(*block, old).index()] = new as isize - old as isize;
            }
        }
        let whole = &trace.insts[..whole_instances_len(program, trace)];
        let mut insts = whole.to_vec();
        for (k, d) in whole.iter().enumerate() {
            let s = shift[d.id.index()];
            if s != 0 {
                insts[k.wrapping_add_signed(s)] = DynInst {
                    id: StaticId(d.id.0.wrapping_add_signed(s as i32)),
                    ..*d
                };
            }
        }
        Trace {
            insts,
            truncated: trace.truncated,
        }
    }
}

/// Length of the longest prefix of `trace` made of whole block
/// instances. Blocks execute start to end (control ops are last), so
/// only the final instance of a truncated trace can be partial.
fn whole_instances_len(program: &Program, trace: &Trace) -> usize {
    let Some(last) = trace.insts.last() else {
        return 0;
    };
    let loc = program.loc_of(last.id);
    let pos = loc.idx as usize;
    if pos + 1 == program.block(loc.block).insts.len() {
        trace.len()
    } else {
        trace.len() - 1 - pos
    }
}

/// Rewrites `program`, embedding the chosen instances.
///
/// Fails (instead of panicking) when the instances are oversized,
/// overlap, cannot be scheduled contiguously, or produce a structurally
/// invalid program.
pub fn try_rewrite(program: &Program, chosen: &[ChosenInstance]) -> Result<Program, RewriteError> {
    rewrite_with(program, chosen, &BlockDepsCache::new(program)).map(|(p, _)| p)
}

/// [`try_rewrite`], taking block dependence graphs from `deps` (a cache
/// for `program`) and also returning the order it gave each reordered
/// block.
pub fn rewrite_with(
    program: &Program,
    chosen: &[ChosenInstance],
    deps: &BlockDepsCache,
) -> Result<(Program, Schedules), RewriteError> {
    let mut by_block: HashMap<u32, Vec<&ChosenInstance>> = HashMap::new();
    for inst in chosen {
        if inst.candidate.len() > MAX_CANDIDATE_LEN {
            return Err(RewriteError::OversizedInstance {
                block: inst.candidate.block,
                len: inst.candidate.len(),
            });
        }
        by_block
            .entry(inst.candidate.block.0)
            .or_default()
            .push(inst);
    }

    let mut next_instance = 0u32;
    let mut schedules = Schedules::default();
    let mut blocks: Vec<BasicBlock> = Vec::with_capacity(program.blocks().len());
    for (bi, block) in program.blocks().iter().enumerate() {
        let bid = BlockId(bi as u32);
        let Some(instances) = by_block.get_mut(&bid.0) else {
            blocks.push(block.clone());
            continue;
        };
        instances.sort_by_key(|c| c.candidate.positions[0]);
        // Position -> (instance-local index, position within instance) for
        // members. Built first: overlapping instances are a caller error
        // that the group scheduler is not specified for.
        let mut member_of: HashMap<usize, (usize, usize)> = HashMap::new();
        for (ii, inst) in instances.iter().enumerate() {
            for (pi, &p) in inst.candidate.positions.iter().enumerate() {
                if p >= block.insts.len() || member_of.insert(p, (ii, pi)).is_some() {
                    return Err(RewriteError::Unschedulable { block: bid });
                }
            }
        }
        let groups: Vec<&[usize]> = instances
            .iter()
            .map(|c| c.candidate.positions.as_slice())
            .collect();
        let order = schedule_with_groups(deps.get(program, bid), &groups)
            .ok_or(RewriteError::Unschedulable { block: bid })?;
        let instance_ids: Vec<u32> = instances
            .iter()
            .map(|_| {
                let id = next_instance;
                next_instance += 1;
                id
            })
            .collect();
        let insts: Vec<Instruction> = order
            .iter()
            .map(|&p| {
                let base = block.insts[p].without_mg();
                match member_of.get(&p) {
                    Some(&(ii, pi)) => base.with_mg(MgTag {
                        instance: instance_ids[ii],
                        template: instances[ii].template,
                        pos: pi as u8,
                        len: instances[ii].candidate.len() as u8,
                    }),
                    None => base,
                }
            })
            .collect();
        blocks.push(BasicBlock {
            insts,
            fallthrough: block.fallthrough,
        });
        schedules.blocks.push((bid, order));
    }

    let rewritten = Program::new(
        format!("{}+mg", program.name()),
        blocks,
        program.funcs().to_vec(),
        program.entry_func(),
    )?;
    Ok((rewritten, schedules))
}

/// Rewrites `program`, embedding the chosen instances.
///
/// # Panics
///
/// Panics if the chosen instances overlap or cannot be scheduled — the
/// selector must only choose combinations validated with
/// [`schedule_with_groups`]. Use [`try_rewrite`] to handle untrusted
/// instance sets.
pub fn rewrite(program: &Program, chosen: &[ChosenInstance]) -> Program {
    match try_rewrite(program, chosen) {
        Ok(p) => p,
        Err(e) => panic!("rewrite failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{enumerate, CandidateShape, SelectionConfig};
    use crate::check::assert_semantics_preserved;
    use mg_isa::{ProgramBuilder, Reg};
    use mg_workloads::Executor;

    #[test]
    fn rewrite_tags_and_preserves_semantics() {
        let mut pb = ProgramBuilder::new("rw");
        let f = pb.func("main");
        let b = pb.block(f);
        pb.push(b, mg_isa::Instruction::li(Reg::R1, 5));
        pb.push(b, mg_isa::Instruction::addi(Reg::R2, Reg::R1, 3));
        pb.push(
            b,
            mg_isa::Instruction::alu_ri(mg_isa::Opcode::XorI, Reg::R3, Reg::R2, 6),
        );
        pb.push(b, mg_isa::Instruction::store(Reg::R10, Reg::R3, 0));
        pb.push(b, mg_isa::Instruction::halt());
        let p = pb.build().unwrap();
        let pool = enumerate(&p, &SelectionConfig::default());
        let cand = pool
            .iter()
            .find(|c| c.positions == vec![1, 2])
            .unwrap()
            .clone();
        let rp = rewrite(
            &p,
            &[ChosenInstance {
                candidate: cand,
                template: 0,
            }],
        );
        // Tags present and contiguous.
        let tagged: Vec<_> = rp
            .blocks()
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| i.mg.is_some())
            .collect();
        assert_eq!(tagged.len(), 2);
        assert_eq!(tagged[0].mg.unwrap().pos, 0);
        assert_eq!(tagged[1].mg.unwrap().pos, 1);
        assert_semantics_preserved(&p, &rp, &[]);
    }

    #[test]
    fn rewrite_moves_interloper_out_of_group() {
        // member / interloper / member: reorder required.
        let mut pb = ProgramBuilder::new("mv");
        let f = pb.func("main");
        let b = pb.block(f);
        pb.push(b, mg_isa::Instruction::li(Reg::R1, 5)); // 0 member
        pb.push(b, mg_isa::Instruction::li(Reg::R9, 7)); // 1 interloper
        pb.push(b, mg_isa::Instruction::addi(Reg::R2, Reg::R1, 1)); // 2 member
        pb.push(b, mg_isa::Instruction::store(Reg::R10, Reg::R2, 0));
        pb.push(b, mg_isa::Instruction::store(Reg::R10, Reg::R9, 8));
        pb.push(b, mg_isa::Instruction::halt());
        let p = pb.build().unwrap();
        let pool = enumerate(&p, &SelectionConfig::default());
        let cand = pool
            .iter()
            .find(|c| c.positions == vec![0, 2])
            .expect("groupable disconnected pair")
            .clone();
        let rp = rewrite(
            &p,
            &[ChosenInstance {
                candidate: cand,
                template: 3,
            }],
        );
        let block = &rp.blocks()[0];
        let tag_positions: Vec<usize> = block
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.mg.is_some())
            .map(|(k, _)| k)
            .collect();
        assert_eq!(tag_positions.len(), 2);
        assert_eq!(tag_positions[1], tag_positions[0] + 1, "contiguous");
        assert_semantics_preserved(&p, &rp, &[]);
    }

    fn chain_program(n: usize) -> Program {
        let mut pb = ProgramBuilder::new("chain");
        let f = pb.func("main");
        let b = pb.block(f);
        pb.push(b, mg_isa::Instruction::li(Reg::R1, 1));
        for _ in 1..n {
            pb.push(b, mg_isa::Instruction::addi(Reg::R1, Reg::R1, 1));
        }
        pb.push(b, mg_isa::Instruction::halt());
        pb.build().unwrap()
    }

    #[test]
    fn oversized_instance_is_a_typed_error() {
        // Regression for the unguarded `pi as u8` / `len as u8` casts: a
        // hand-built 300-constituent instance must be rejected, not
        // silently truncated into a wrapped MgTag.
        let p = chain_program(301);
        let positions: Vec<usize> = (0..300).collect();
        let cand = Candidate {
            block: BlockId(0),
            positions,
            shape: CandidateShape::default(),
        };
        let err = try_rewrite(
            &p,
            &[ChosenInstance {
                candidate: cand,
                template: 0,
            }],
        )
        .unwrap_err();
        assert_eq!(
            err,
            RewriteError::OversizedInstance {
                block: BlockId(0),
                len: 300
            }
        );
        assert!(err.to_string().contains("300"));
    }

    fn instance_at(positions: Vec<usize>) -> ChosenInstance {
        ChosenInstance {
            candidate: Candidate {
                block: BlockId(0),
                positions,
                shape: CandidateShape::default(),
            },
            template: 0,
        }
    }

    #[test]
    fn overlapping_instances_are_a_typed_error() {
        let p = chain_program(4);
        let err = try_rewrite(
            &p,
            &[instance_at(vec![0, 1, 2]), instance_at(vec![1, 2, 3])],
        )
        .unwrap_err();
        assert_eq!(err, RewriteError::Unschedulable { block: BlockId(0) });
    }

    /// A counted loop whose body needs reordering: the chosen pair
    /// {0, 2} has an interloper at 1 that must move out of its way.
    fn reordered_loop() -> (Program, Program, Schedules) {
        let mut pb = ProgramBuilder::new("loop");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, mg_isa::Instruction::li(Reg::R5, 4));
        pb.set_fallthrough(head, body);
        pb.push(body, mg_isa::Instruction::addi(Reg::R1, Reg::R5, 5)); // 0 member
        pb.push(body, mg_isa::Instruction::li(Reg::R9, 7)); // 1 interloper
        pb.push(body, mg_isa::Instruction::addi(Reg::R2, Reg::R1, 1)); // 2 member
        pb.push(body, mg_isa::Instruction::store(Reg::R10, Reg::R2, 0));
        pb.push(body, mg_isa::Instruction::addi(Reg::R5, Reg::R5, -1));
        pb.push(
            body,
            mg_isa::Instruction::br(mg_isa::BrCond::Ne, Reg::R5, Reg::ZERO, body),
        );
        pb.set_fallthrough(body, exit);
        pb.push(exit, mg_isa::Instruction::halt());
        let p = pb.build().unwrap();
        let cand = enumerate(&p, &SelectionConfig::default())
            .into_iter()
            .find(|c| c.block == BlockId(1) && c.positions == vec![0, 2])
            .expect("groupable disconnected pair");
        let chosen = [ChosenInstance {
            candidate: cand,
            template: 0,
        }];
        let (rp, schedules) = rewrite_with(&p, &chosen, &BlockDepsCache::new(&p)).unwrap();
        assert_eq!(schedules.blocks().len(), 1);
        assert_ne!(schedules.blocks()[0].1, vec![0, 1, 2, 3, 4, 5], "reordered");
        (p, rp, schedules)
    }

    #[test]
    fn projection_equals_re_execution() {
        let (p, rp, schedules) = reordered_loop();
        let (trace, _) = Executor::new(&p).run().unwrap();
        let (rtrace, _) = Executor::new(&rp).run().unwrap();
        let projected = schedules.project(&p, &trace);
        assert_eq!(projected.insts, rtrace.insts);
        assert!(!projected.truncated);
    }

    #[test]
    fn projection_drops_a_trailing_partial_block_instance() {
        let (p, rp, schedules) = reordered_loop();
        let (full, _) = Executor::new(&rp).run().unwrap();
        // head (1) + one body instance (6) + 3 of the second instance:
        // the cut lands inside a reordered block instance.
        let (trace, _) = Executor::new(&p).with_limit(10).run().unwrap();
        assert!(trace.truncated);
        let projected = schedules.project(&p, &trace);
        assert!(projected.truncated);
        assert_eq!(projected.insts, full.insts[..7]);
        // A cut at an instance boundary keeps everything.
        let (trace, _) = Executor::new(&p).with_limit(13).run().unwrap();
        let projected = schedules.project(&p, &trace);
        assert!(projected.truncated);
        assert_eq!(projected.insts, full.insts[..13]);
    }

    #[test]
    fn unschedulable_instance_is_a_typed_error() {
        // 0 -> 1 -> 2 dependence chain; {0, 2} cannot be contiguous.
        let p = chain_program(3);
        let err = try_rewrite(&p, &[instance_at(vec![0, 2])]).unwrap_err();
        assert_eq!(err, RewriteError::Unschedulable { block: BlockId(0) });
    }
}
