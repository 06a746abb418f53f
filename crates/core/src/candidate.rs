//! Mini-graph candidate enumeration.
//!
//! A *candidate* is an ordered subset of a basic block's instructions that
//! satisfies the RISC-singleton interface of a mini-graph (§2 of the
//! paper): at most [`SelectionConfig::max_size`] instructions, at most
//! three external register inputs, at most one register output, one
//! memory reference, and one control transfer (which must be last), with
//! a bounded total execution latency — and which can legally be made
//! contiguous by intra-block scheduling.

use crate::depgraph::{BlockDeps, BlockDepsCache};
use mg_isa::dataflow::{BlockDataflow, UseSource};
use mg_isa::{BasicBlock, BlockId, Program, Reg};
use serde::{Deserialize, Serialize};

/// Knobs bounding candidate enumeration and selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SelectionConfig {
    /// Maximum constituents per mini-graph (the paper: 4, matching the
    /// ALU pipeline depth).
    pub max_size: usize,
    /// Maximum external register inputs (the paper's extended interface: 3).
    pub max_ext_inputs: usize,
    /// Maximum optimistic execution latency in cycles (the paper: 6).
    pub max_latency: u32,
    /// Maximum span (last - first position) a candidate may cover before
    /// grouping, limiting how far the rewriter must move code.
    pub max_span: usize,
    /// MGT template budget (the paper: 512).
    pub mgt_budget: usize,
    /// L1 data-cache hit latency used for optimistic load latencies.
    pub l1_hit: u32,
}

impl Default for SelectionConfig {
    fn default() -> SelectionConfig {
        SelectionConfig {
            max_size: 4,
            max_ext_inputs: 3,
            max_latency: 6,
            max_span: 6,
            mgt_budget: 512,
            l1_hit: 3,
        }
    }
}

/// Hard upper bound on constituents per candidate, regardless of
/// [`SelectionConfig::max_size`]. Candidate-relative positions travel
/// through `u8` fields ([`CandSrc`], [`mg_isa::MgTag`]); a larger
/// candidate would silently truncate them, so enumeration rejects any
/// subset past this bound instead.
pub const MAX_CANDIDATE_LEN: usize = u8::MAX as usize;

/// Where a constituent's source operand comes from (candidate-local).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CandSrc {
    /// External input: index into [`CandidateShape::ext_inputs`].
    External(u8),
    /// Produced by the constituent at this candidate-relative position.
    Internal(u8),
    /// The hardwired zero register / no register source.
    None,
}

/// Interface and dataflow shape of a candidate.
///
/// The `Default` shape is the degenerate empty candidate — enumeration
/// never produces it, but checkers and fuzzers may.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateShape {
    /// External register inputs in first-read order, with the
    /// candidate-relative position of the earliest constituent reading
    /// each.
    pub ext_inputs: Vec<(Reg, u8)>,
    /// Candidate-relative position producing the single register output,
    /// if any value escapes.
    pub output_pos: Option<u8>,
    /// Candidate-relative position of the memory constituent and whether
    /// it is a load.
    pub mem: Option<(u8, bool)>,
    /// Candidate-relative position of the control constituent (always
    /// last when present).
    pub control: Option<u8>,
    /// Per-constituent source links (slot 0, slot 1).
    pub srcs: Vec<[CandSrc; 2]>,
    /// Cumulative optimistic latency before each constituent, plus the
    /// total at the end (`len + 1` entries).
    pub lat_prefix: Vec<u32>,
}

impl CandidateShape {
    /// Total optimistic execution latency (0 for a degenerate empty
    /// shape, which enumeration never produces but callers may build).
    pub fn total_latency(&self) -> u32 {
        self.lat_prefix.last().copied().unwrap_or(0)
    }

    /// Whether any external input feeds a constituent other than the
    /// first (the structural precondition for external serialization).
    pub fn potentially_serializing(&self) -> bool {
        self.ext_inputs.iter().any(|&(_, pos)| pos > 0)
    }

    /// Whether there is an internal dataflow path from constituent `from`
    /// to constituent `to`.
    pub fn has_path(&self, from: u8, to: u8) -> bool {
        if from == to {
            return true;
        }
        // Positions are topologically ordered (program order), so a
        // simple forward closure suffices.
        let n = self.srcs.len();
        let mut reach = vec![false; n];
        reach[from as usize] = true;
        for p in (from as usize + 1)..n {
            for s in self.srcs[p] {
                if let CandSrc::Internal(d) = s {
                    if reach[d as usize] {
                        reach[p] = true;
                    }
                }
            }
        }
        reach[to as usize]
    }
}

/// A mini-graph candidate: a legal subset of one block's instructions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// The containing block.
    pub block: BlockId,
    /// Ascending block positions of the constituents.
    pub positions: Vec<usize>,
    /// Interface shape.
    pub shape: CandidateShape,
}

impl Candidate {
    /// Number of constituents.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the candidate is empty (never true for enumerated ones).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Enumerates all legal candidates of a program.
///
/// Liveness is computed once; each block is then enumerated
/// independently. The result is ordered by block, then by first position.
pub fn enumerate(program: &Program, cfg: &SelectionConfig) -> Vec<Candidate> {
    enumerate_with(program, cfg, &BlockDepsCache::new(program))
}

/// [`enumerate`], taking each block's dependence graph from `deps` (a
/// cache for `program`), which it fills for every block.
pub(crate) fn enumerate_with(
    program: &Program,
    cfg: &SelectionConfig,
    deps: &BlockDepsCache,
) -> Vec<Candidate> {
    let live = mg_isa::dataflow::liveness(program);
    let mut out = Vec::new();
    let mut scratch = Scratch::default();
    for (bi, block) in program.blocks().iter().enumerate() {
        let bid = BlockId(bi as u32);
        let df = BlockDataflow::analyze(block, live.live_out(bid));
        let deps = deps.get(program, bid);
        enumerate_block_with(block, bid, &df, deps, cfg, &mut out, &mut scratch);
    }
    out
}

/// Enumerates candidates within one block.
pub fn enumerate_block(
    block: &BasicBlock,
    bid: BlockId,
    df: &BlockDataflow,
    deps: &BlockDeps,
    cfg: &SelectionConfig,
    out: &mut Vec<Candidate>,
) {
    enumerate_block_with(block, bid, df, deps, cfg, out, &mut Scratch::default());
}

/// Buffers that validating a subset writes into, reused for every
/// subset one enumeration looks at: only an accepted subset's shape is
/// copied out into its own allocation.
#[derive(Default)]
struct Scratch {
    shape: CandidateShape,
    after: Vec<bool>,
    before: Vec<bool>,
}

fn enumerate_block_with(
    block: &BasicBlock,
    bid: BlockId,
    df: &BlockDataflow,
    deps: &BlockDeps,
    cfg: &SelectionConfig,
    out: &mut Vec<Candidate>,
    scratch: &mut Scratch,
) {
    let n = block.insts.len();
    let eligible: Vec<bool> = block.insts.iter().map(|i| i.op.mg_eligible()).collect();
    let mut stack: Vec<usize> = Vec::with_capacity(cfg.max_size);
    for first in 0..n {
        if !eligible[first] {
            continue;
        }
        stack.push(first);
        extend(
            block, bid, df, deps, cfg, &eligible, &mut stack, out, scratch,
        );
        stack.pop();
    }
}

#[allow(clippy::too_many_arguments)]
fn extend(
    block: &BasicBlock,
    bid: BlockId,
    df: &BlockDataflow,
    deps: &BlockDeps,
    cfg: &SelectionConfig,
    eligible: &[bool],
    stack: &mut Vec<usize>,
    out: &mut Vec<Candidate>,
    scratch: &mut Scratch,
) {
    // `extend` is only called with a seeded stack, but tolerate an empty
    // one rather than panicking (the fuzzer drives this path directly).
    let (Some(&first), Some(&last)) = (stack.first(), stack.last()) else {
        return;
    };
    for next in (last + 1)..block.insts.len() {
        if next - first > cfg.max_span {
            break;
        }
        if !eligible[next] {
            // Ineligible instructions can be scheduled around, so keep
            // scanning unless it is a control instruction (nothing may
            // move past control; control is last anyway).
            continue;
        }
        stack.push(next);
        if analyze(block, df, stack, cfg, &mut scratch.shape) {
            if groupable_with(deps, stack, &mut scratch.after, &mut scratch.before) {
                out.push(Candidate {
                    block: bid,
                    positions: stack.clone(),
                    shape: scratch.shape.clone(),
                });
                if stack.len() < cfg.max_size.min(MAX_CANDIDATE_LEN) {
                    extend(block, bid, df, deps, cfg, eligible, stack, out, scratch);
                }
            }
        } else if stack.len() < cfg.max_size.min(MAX_CANDIDATE_LEN)
            && partial_viable(block, df, stack, cfg)
        {
            // The subset violates an interface limit that adding more
            // instructions could repair (e.g. a second escaping value
            // that a later constituent consumes... it cannot), so in
            // general we stop; but latency/size limits are monotone, so
            // only extend when the partial set is still viable.
            extend(block, bid, df, deps, cfg, eligible, stack, out, scratch);
        }
        stack.pop();
    }
}

/// Whether a partial (invalid-as-is) subset could still grow into a valid
/// candidate: size, span, latency, memory/control counts must not already
/// exceed limits. Output-count violations can be repaired by adding the
/// consumer of a second escaping value into the graph, so they do not
/// prune extension.
fn partial_viable(
    block: &BasicBlock,
    _df: &BlockDataflow,
    positions: &[usize],
    cfg: &SelectionConfig,
) -> bool {
    let mut lat = 0u32;
    let mut mem = 0;
    let mut ctrl = 0;
    for &p in positions {
        let op = block.insts[p].op;
        lat += op.optimistic_latency(cfg.l1_hit);
        mem += op.is_mem() as u32;
        ctrl += op.is_control() as u32;
    }
    lat < cfg.max_latency && mem <= 1 && ctrl == 0
}

/// Analyzes a subset's interface into `shape` (overwriting it); `false`
/// if the subset violates mini-graph constraints, leaving `shape`
/// partly written.
fn analyze(
    block: &BasicBlock,
    df: &BlockDataflow,
    positions: &[usize],
    cfg: &SelectionConfig,
    shape: &mut CandidateShape,
) -> bool {
    // All candidate-relative positions and external-input indices below
    // are stored in `u8` fields; reject outright any subset that could
    // overflow them instead of truncating silently.
    if positions.len() > MAX_CANDIDATE_LEN {
        return false;
    }
    let CandidateShape {
        ext_inputs,
        output_pos,
        mem,
        control,
        srcs,
        lat_prefix,
    } = shape;
    ext_inputs.clear();
    srcs.clear();
    lat_prefix.clear();
    *output_pos = None;
    *mem = None;
    *control = None;
    let mut lat = 0u32;

    for (ci, &pos) in positions.iter().enumerate() {
        let inst = &block.insts[pos];
        lat_prefix.push(lat);
        lat += inst.op.optimistic_latency(cfg.l1_hit);
        if lat > cfg.max_latency {
            return false;
        }
        let ci8 = ci as u8; // in range: positions.len() <= MAX_CANDIDATE_LEN
        let mut links = [CandSrc::None, CandSrc::None];
        for (slot, src) in [inst.src1, inst.src2].into_iter().enumerate() {
            let Some(r) = src else { continue };
            if r.is_zero() {
                continue;
            }
            links[slot] = match df.src_origin[pos][slot] {
                Some(UseSource::Local(d)) if positions.contains(&d) => {
                    CandSrc::Internal(positions.iter().position(|&x| x == d).unwrap() as u8)
                }
                _ => {
                    let idx = match ext_inputs.iter().position(|&(er, _)| er == r) {
                        Some(i) => i,
                        None => {
                            ext_inputs.push((r, ci8));
                            ext_inputs.len() - 1
                        }
                    };
                    // Checking the input limit as inputs appear (rather
                    // than only at the end) keeps `idx` in `u8` range no
                    // matter how large `max_ext_inputs` is configured.
                    if ext_inputs.len() > cfg.max_ext_inputs {
                        return false;
                    }
                    let Ok(idx) = u8::try_from(idx) else {
                        return false;
                    };
                    CandSrc::External(idx)
                }
            };
        }
        srcs.push(links);

        if inst.op.is_mem() {
            if mem.is_some() {
                return false;
            }
            *mem = Some((ci8, inst.op.is_load()));
        }
        if inst.op.is_control() {
            // Control must be the block terminator and last constituent.
            if control.is_some() || pos + 1 != block.insts.len() || ci + 1 != positions.len() {
                return false;
            }
            *control = Some(ci8);
        }
        if let Some(_d) = inst.def() {
            if df.value_visible_outside(pos, positions) {
                if output_pos.is_some() {
                    return false;
                }
                *output_pos = Some(ci8);
            }
        }
    }
    lat_prefix.push(lat);
    ext_inputs.len() <= cfg.max_ext_inputs
}

/// Whether the subset can be made contiguous by a dependence-preserving
/// reordering of the block: no intervening instruction may be *both*
/// (transitively) dependent on a member and depended on by a member.
pub fn groupable(deps: &BlockDeps, positions: &[usize]) -> bool {
    groupable_with(deps, positions, &mut Vec::new(), &mut Vec::new())
}

/// [`groupable`], computing into the caller's buffers.
fn groupable_with(
    deps: &BlockDeps,
    positions: &[usize],
    after: &mut Vec<bool>,
    before: &mut Vec<bool>,
) -> bool {
    // An empty subset is vacuously groupable (and enumeration never asks).
    let (Some(&first), Some(&last)) = (positions.first(), positions.last()) else {
        return true;
    };
    if last - first + 1 == positions.len() {
        return true; // already contiguous
    }
    // For every non-member in the window, compute whether it must come
    // after some member (reachable from a member) and before some member
    // (reaches a member), using closure over the window.
    let window = first..=last;
    let len = last - first + 1;
    let is_member = |p: usize| positions.contains(&p);
    // reach_from_member[i]: window-relative instruction i is (transitively)
    // a dependent of some member.
    after.clear();
    after.resize(len, false);
    for p in window.clone() {
        let rel = p - first;
        if is_member(p) {
            after[rel] = true;
            continue;
        }
        for &d in deps.preds(p) {
            if d >= first && after[d - first] {
                after[rel] = true;
                break;
            }
        }
    }
    // reaches_member[i]: some member (transitively) depends on i.
    before.clear();
    before.resize(len, false);
    for p in window.clone().rev() {
        let rel = p - first;
        if is_member(p) {
            before[rel] = true;
            continue;
        }
        for &s in deps.succs(p) {
            if s <= last && before[s - first] {
                before[rel] = true;
                break;
            }
        }
    }
    for p in window {
        let rel = p - first;
        if !is_member(p) && after[rel] && before[rel] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::{BrCond, Instruction, ProgramBuilder};

    fn program_of(insts: Vec<Instruction>) -> Program {
        let mut pb = ProgramBuilder::new("t");
        let f = pb.func("main");
        let b = pb.block(f);
        for i in insts {
            pb.push(b, i);
        }
        pb.push(b, Instruction::halt());
        pb.build().unwrap()
    }

    #[test]
    fn enumerates_simple_chain() {
        let p = program_of(vec![
            Instruction::li(Reg::R1, 1),
            Instruction::addi(Reg::R2, Reg::R1, 1),
            Instruction::addi(Reg::R3, Reg::R2, 1),
        ]);
        let cands = enumerate(&p, &SelectionConfig::default());
        // {0,1},{1,2},{0,2},{0,1,2} are the size-2/3 subsets; all legal
        // except those whose intermediate values escape: r1 feeds only 1,
        // r2 feeds only 2, r3 is dead (no live-out).
        assert!(!cands.is_empty());
        assert!(cands.iter().any(|c| c.positions == vec![0, 1, 2]));
        let pair01 = cands.iter().find(|c| c.positions == vec![0, 1]).unwrap();
        // r2 escapes {0,1} (consumed by 2): output at position 1.
        assert_eq!(pair01.shape.output_pos, Some(1));
        assert!(!pair01.shape.potentially_serializing());
    }

    #[test]
    fn rejects_two_outputs() {
        // Both defs consumed outside the pair.
        let p = program_of(vec![
            Instruction::li(Reg::R1, 1),
            Instruction::li(Reg::R2, 2),
            Instruction::add(Reg::R3, Reg::R1, Reg::R2),
            Instruction::add(Reg::R4, Reg::R1, Reg::R2),
        ]);
        let cands = enumerate(&p, &SelectionConfig::default());
        assert!(!cands.iter().any(|c| c.positions == vec![0, 1]));
        // But {0,1,2} has one escaping def (r3? no: r1,r2 consumed by 3
        // outside!) -- r1 and r2 both escape {0,1,2}: rejected too.
        assert!(!cands.iter().any(|c| c.positions == vec![0, 1, 2]));
        // {0,1,2,3}: r3 and r4 dead, r1/r2 interior: no output, legal.
        assert!(cands.iter().any(|c| c.positions == vec![0, 1, 2, 3]));
    }

    #[test]
    fn respects_input_limit() {
        // add;add;add chain reading 4 distinct external regs at once.
        let p = program_of(vec![
            Instruction::add(Reg::R1, Reg::R10, Reg::R11),
            Instruction::add(Reg::R2, Reg::R1, Reg::R12),
            Instruction::add(Reg::R3, Reg::R2, Reg::R13),
            Instruction::add(Reg::R4, Reg::R3, Reg::R14),
        ]);
        let cands = enumerate(&p, &SelectionConfig::default());
        // {0,1,2} needs r10,r11,r12,r13 = 4 external inputs: rejected.
        assert!(cands.iter().any(|c| c.positions == vec![0, 1]));
        assert!(!cands.iter().any(|c| c.positions == vec![0, 1, 2]));
    }

    #[test]
    fn detects_serializing_shape() {
        // Pair where the second member reads an external reg.
        let p = program_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R2, Reg::R1, 1),
            Instruction::add(Reg::R3, Reg::R2, Reg::R11), // ext input r11 at pos 2
            Instruction::store(Reg::R12, Reg::R3, 0),
        ]);
        let cands = enumerate(&p, &SelectionConfig::default());
        let c = cands.iter().find(|c| c.positions == vec![0, 1, 2]).unwrap();
        assert!(c.shape.potentially_serializing());
        assert_eq!(c.shape.ext_inputs.len(), 2);
        let c2 = cands.iter().find(|c| c.positions == vec![0, 1]).unwrap();
        assert!(!c2.shape.potentially_serializing());
    }

    #[test]
    fn memory_and_latency_limits() {
        let p = program_of(vec![
            Instruction::load(Reg::R1, Reg::R10, 0),
            Instruction::load(Reg::R2, Reg::R10, 8),
            Instruction::add(Reg::R3, Reg::R1, Reg::R2),
            Instruction::store(Reg::R11, Reg::R3, 0),
        ]);
        let cands = enumerate(&p, &SelectionConfig::default());
        // Two loads cannot share a candidate.
        assert!(!cands.iter().any(|c| c.positions == vec![0, 1]));
        // load+add is fine (lat 3+1=4 <= 6).
        assert!(cands.iter().any(|c| c.positions == vec![1, 2]));
        // load+add+store would need two memory ops: rejected.
        assert!(!cands.iter().any(|c| c.positions == vec![1, 2, 3]));
    }

    #[test]
    fn control_must_be_last() {
        let mut pb = ProgramBuilder::new("br");
        let f = pb.func("main");
        let b0 = pb.block(f);
        let b1 = pb.block(f);
        pb.push(b0, Instruction::li(Reg::R1, 1));
        pb.push(
            b0,
            Instruction::alu_rr(mg_isa::Opcode::CmpLt, Reg::R2, Reg::R1, Reg::R9),
        );
        pb.push(b0, Instruction::br(BrCond::Ne, Reg::R2, Reg::ZERO, b0));
        pb.set_fallthrough(b0, b1);
        pb.push(b1, Instruction::halt());
        let p = pb.build().unwrap();
        let cands = enumerate(&p, &SelectionConfig::default());
        // cmp+branch is the canonical mini-graph.
        assert!(cands
            .iter()
            .any(|c| c.block == b0 && c.positions == vec![1, 2]));
        let cb = cands
            .iter()
            .find(|c| c.block == b0 && c.positions == vec![1, 2])
            .unwrap();
        assert_eq!(cb.shape.control, Some(1));
        assert_eq!(cb.shape.output_pos, None); // r2 is interior, branch has no def
    }

    #[test]
    fn non_groupable_subset_rejected() {
        // 0: r1 = r10+1        (member)
        // 1: r2 = r1+1         (non-member: depends on 0, feeds 2)
        // 2: r3 = r2+r11       (member: depends on 1)
        // Grouping {0,2} requires 1 both after 0 and before 2: impossible.
        let p = program_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R2, Reg::R1, 1),
            Instruction::add(Reg::R3, Reg::R2, Reg::R11),
            Instruction::store(Reg::R12, Reg::R3, 0),
        ]);
        let cands = enumerate(&p, &SelectionConfig::default());
        assert!(!cands.iter().any(|c| c.positions == vec![0, 2]));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        // Empty shape: total_latency must not unwrap an empty prefix.
        let shape = CandidateShape {
            ext_inputs: vec![],
            output_pos: None,
            mem: None,
            control: None,
            srcs: vec![],
            lat_prefix: vec![],
        };
        assert_eq!(shape.total_latency(), 0);
        // Empty position set: groupable must not index positions[0].
        let b = {
            let mut b = BasicBlock::new();
            b.push(Instruction::li(Reg::R1, 1));
            b
        };
        let deps = BlockDeps::build(&b);
        assert!(groupable(&deps, &[]));
        // Empty block driven through enumerate_block directly.
        let empty = BasicBlock::new();
        let df = BlockDataflow::analyze(&empty, mg_isa::dataflow::RegSet::EMPTY);
        let edeps = BlockDeps::build(&empty);
        let mut out = Vec::new();
        enumerate_block(
            &empty,
            BlockId(0),
            &df,
            &edeps,
            &SelectionConfig::default(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn single_instruction_block_yields_no_candidates() {
        // A 1-instruction block has no size-2 subsets; the enumerator
        // must come back empty without touching any unwrap path.
        let p = program_of(vec![Instruction::addi(Reg::R1, Reg::R10, 1)]);
        let cands = enumerate(&p, &SelectionConfig::default());
        assert!(cands.iter().all(|c| c.len() >= 2));
    }

    #[test]
    fn oversized_blocks_enumerate_within_u8_bounds() {
        // Regression companion to the rewrite-layer guard: a block with
        // 300 instructions (positions past the u8 range) enumerates
        // cleanly, and every candidate stays within MAX_CANDIDATE_LEN so
        // its candidate-relative u8 positions cannot truncate.
        let insts: Vec<Instruction> = (0..300)
            .map(|i| {
                Instruction::addi(
                    Reg::new(1 + (i % 20) as u8),
                    Reg::new(1 + ((i + 7) % 20) as u8),
                    1,
                )
            })
            .collect();
        let p = program_of(insts);
        let cands = enumerate(&p, &SelectionConfig::default());
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.len() <= MAX_CANDIDATE_LEN);
            assert!(*c.positions.last().unwrap() < 301);
            assert_eq!(c.shape.srcs.len(), c.len());
            assert_eq!(c.shape.lat_prefix.len(), c.len() + 1);
        }
        // Some candidates must sit past block position 255 — the range a
        // u8 block-relative encoding would have corrupted.
        assert!(cands.iter().any(|c| c.positions[0] > 255));
    }

    #[test]
    fn groupable_disconnected_pair_accepted() {
        // 0: r1 = r10+1  (member, output consumed at 3)
        // 1: r9 = r11+1  (independent non-member, dead)
        // 2: r2 = r12+1  (member, dead -> interior-less? r2 dead: no output conflict)
        let p = program_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R9, Reg::R11, 1),
            Instruction::addi(Reg::R2, Reg::R12, 1),
            Instruction::store(Reg::R13, Reg::R1, 0),
        ]);
        let cands = enumerate(&p, &SelectionConfig::default());
        let c = cands.iter().find(|c| c.positions == vec![0, 2]);
        assert!(c.is_some(), "independent pair should be groupable");
        assert!(c.unwrap().shape.potentially_serializing());
    }
}
