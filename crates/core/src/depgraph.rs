//! Intra-block dependence graphs for legality of rewriting.
//!
//! The mini-graph rewriter makes chosen candidates contiguous by
//! reordering block instructions; any reordering must preserve register
//! dependences (RAW, WAR, WAW), memory ordering (conservatively: stores
//! are ordered against all other memory operations, loads against
//! stores), and control placement (everything stays before the
//! terminator).

use mg_isa::reg::NUM_ARCH_REGS;
use mg_isa::{BasicBlock, BlockId, Program};
use std::sync::OnceLock;

/// Dependence edges between instructions of one block, by position.
#[derive(Clone, Debug)]
pub struct BlockDeps {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl BlockDeps {
    /// Builds the dependence graph of a block.
    pub fn build(block: &BasicBlock) -> BlockDeps {
        let n = block.insts.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let add =
            |from: usize, to: usize, preds: &mut Vec<Vec<usize>>, succs: &mut Vec<Vec<usize>>| {
                debug_assert!(from < to);
                if !succs[from].contains(&to) {
                    succs[from].push(to);
                    preds[to].push(from);
                }
            };

        let mut last_def: [Option<usize>; NUM_ARCH_REGS] = [None; NUM_ARCH_REGS];
        let mut readers_since_def: Vec<Vec<usize>> = vec![Vec::new(); NUM_ARCH_REGS];
        let mut last_store: Option<usize> = None;
        let mut loads_since_store: Vec<usize> = Vec::new();

        for (i, inst) in block.insts.iter().enumerate() {
            // RAW edges + reader tracking.
            for r in inst.uses() {
                if let Some(d) = last_def[r.index()] {
                    add(d, i, &mut preds, &mut succs);
                }
                readers_since_def[r.index()].push(i);
            }
            // Calls/returns conservatively read everything.
            if mg_isa::dataflow::uses_all_regs(inst) {
                for (ri, d) in last_def.iter().enumerate() {
                    if let Some(d) = *d {
                        add(d, i, &mut preds, &mut succs);
                    }
                    readers_since_def[ri].push(i);
                }
            }
            // WAR + WAW edges on definition.
            if let Some(d) = inst.def() {
                for &r in &readers_since_def[d.index()] {
                    if r != i {
                        add(r, i, &mut preds, &mut succs);
                    }
                }
                if let Some(prev) = last_def[d.index()] {
                    add(prev, i, &mut preds, &mut succs);
                }
                last_def[d.index()] = Some(i);
                readers_since_def[d.index()].clear();
            }
            // Memory ordering.
            if inst.op.is_store() {
                if let Some(s) = last_store {
                    add(s, i, &mut preds, &mut succs);
                }
                for &l in &loads_since_store {
                    add(l, i, &mut preds, &mut succs);
                }
                last_store = Some(i);
                loads_since_store.clear();
            } else if inst.op.is_load() {
                if let Some(s) = last_store {
                    add(s, i, &mut preds, &mut succs);
                }
                loads_since_store.push(i);
            }
            // Control stays last: everything precedes it.
            if inst.op.is_control() {
                for j in 0..i {
                    add(j, i, &mut preds, &mut succs);
                }
            }
        }
        BlockDeps { preds, succs }
    }

    /// Direct predecessors (instructions that must stay before `i`).
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Direct successors (instructions that must stay after `i`).
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

/// One program's per-block dependence graphs, each built on first use
/// and shared afterwards (also across threads). Enumeration, greedy
/// selection and the rewrite all ask for the same graphs, so one cache
/// per candidate pool builds each block's graph at most once.
#[derive(Debug)]
pub struct BlockDepsCache {
    blocks: Vec<OnceLock<BlockDeps>>,
}

impl BlockDepsCache {
    /// An empty cache for `program`'s blocks.
    pub fn new(program: &Program) -> BlockDepsCache {
        BlockDepsCache {
            blocks: (0..program.blocks().len())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The dependence graph of `block`, building it on first use.
    /// `program` must be the one the cache was made for.
    pub fn get(&self, program: &Program, block: BlockId) -> &BlockDeps {
        self.blocks[block.index()].get_or_init(|| BlockDeps::build(program.block(block)))
    }
}

/// Reusable buffers for [`closes_cycle`]: one walk's per-position state,
/// grown to the largest block seen and kept across calls.
#[derive(Debug, Default)]
pub struct CycleScratch {
    /// Per position: the next member of its claim (a ring through the
    /// claim), [`FREE`] for an unclaimed instruction, or [`CAND`].
    link: Vec<u32>,
    seen: Vec<bool>,
    stack: Vec<u32>,
}

const FREE: u32 = u32::MAX;
const CAND: u32 = u32::MAX - 1;

/// Whether making `cand` contiguous next to the block's existing `claims`
/// is infeasible: the same answer as
/// `schedule_with_groups(deps, claims ++ [cand]).is_none()`, provided
/// the claims are jointly schedulable on their own (as a greedy pass
/// that admits each claim through this check keeps them) and `cand` is
/// disjoint from them.
///
/// Under that precondition every cycle of the merged graph runs through
/// the candidate's node. The walk therefore starts at the candidate's
/// successors outside it, treats a claim as one node (reaching any
/// member reaches them all) and reports a cycle exactly when it comes
/// back to a candidate member. An unclaimed position past every claim
/// and candidate member only leads further forward, so the walk stops
/// there.
pub fn closes_cycle<'a>(
    deps: &BlockDeps,
    claims: impl IntoIterator<Item = &'a [usize]>,
    cand: &[usize],
    scratch: &mut CycleScratch,
) -> bool {
    let Some(&last) = cand.last() else {
        return false;
    };
    let CycleScratch { link, seen, stack } = scratch;
    link.clear();
    link.resize(deps.len(), FREE);
    seen.clear();
    seen.resize(deps.len(), false);
    stack.clear();
    let mut hi = last;
    for claim in claims {
        for (i, &p) in claim.iter().enumerate() {
            link[p] = claim[(i + 1) % claim.len()] as u32;
            hi = hi.max(p);
        }
    }
    for &p in cand {
        debug_assert_eq!(link[p], FREE, "the candidate overlaps a claim");
        link[p] = CAND;
    }

    // Marks `s` reached, with the rest of its claim; `true` when `s` is
    // a candidate member.
    let reach = |s: usize, link: &[u32], seen: &mut [bool], stack: &mut Vec<u32>| -> bool {
        if link[s] == CAND {
            return true;
        }
        if s > hi || seen[s] {
            return false;
        }
        seen[s] = true;
        stack.push(s as u32);
        let mut q = link[s];
        while q != FREE && q as usize != s {
            seen[q as usize] = true;
            stack.push(q);
            q = link[q as usize];
        }
        false
    };
    for &p in cand {
        for &s in deps.succs(p) {
            // Edges inside the candidate vanish when it is merged.
            if link[s] != CAND {
                reach(s, link, seen, stack);
            }
        }
    }
    while let Some(p) = stack.pop() {
        for &s in deps.succs(p as usize) {
            if reach(s, link, seen, stack) {
                return true;
            }
        }
    }
    false
}

/// Computes a dependence-preserving order of the block in which each
/// *group* (disjoint, ascending position sets) is contiguous; non-group
/// instructions keep their relative order as much as possible.
///
/// Returns `None` if the grouping is infeasible (a dependence cycle
/// between super-nodes).
pub fn schedule_with_groups(deps: &BlockDeps, groups: &[&[usize]]) -> Option<Vec<usize>> {
    let n = deps.len();
    // node id per instruction: group index (0..g) or g + position for
    // singletons.
    let g = groups.len();
    let mut node_of = vec![usize::MAX; n];
    for (gi, grp) in groups.iter().enumerate() {
        for &p in grp.iter() {
            debug_assert!(node_of[p] == usize::MAX, "groups must be disjoint");
            node_of[p] = gi;
        }
    }
    for (p, node) in node_of.iter_mut().enumerate() {
        if *node == usize::MAX {
            *node = g + p;
        }
    }
    let num_nodes = g + n; // singleton ids are sparse; fine
    let mut indeg = vec![0usize; num_nodes];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for p in 0..n {
        for &s in deps.succs(p) {
            let (a, b) = (node_of[p], node_of[s]);
            if a == b {
                continue;
            }
            succs[a].push(b);
        }
    }
    for list in succs.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    for list in succs.iter() {
        for &b in list {
            indeg[b] += 1;
        }
    }
    // Kahn with a "smallest first position" tie-break for stability.
    let first_pos = |node: usize| -> usize {
        if node < g {
            groups[node][0]
        } else {
            node - g
        }
    };
    let mut ready: Vec<usize> = (0..num_nodes)
        .filter(|&nd| (nd < g || node_of[nd - g] == nd) && indeg[nd] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut emitted_nodes = 0usize;
    let total_nodes = g + (0..n).filter(|&p| node_of[p] >= g).count();
    while !ready.is_empty() {
        let (ri, &nd) = ready
            .iter()
            .enumerate()
            .min_by_key(|(_, &nd)| first_pos(nd))
            .unwrap();
        ready.swap_remove(ri);
        if nd < g {
            order.extend_from_slice(groups[nd]);
        } else {
            order.push(nd - g);
        }
        emitted_nodes += 1;
        for &s in &succs[nd] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    (emitted_nodes == total_nodes).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_isa::{BlockId, BrCond, Instruction, Reg};

    fn block_of(insts: Vec<Instruction>) -> BasicBlock {
        let mut b = BasicBlock::new();
        for i in insts {
            b.push(i);
        }
        b
    }

    #[test]
    fn raw_war_waw_edges() {
        let b = block_of(vec![
            Instruction::li(Reg::R1, 1),            // 0
            Instruction::addi(Reg::R2, Reg::R1, 1), // 1: RAW on 0
            Instruction::li(Reg::R1, 2),            // 2: WAW with 0, WAR with 1
            Instruction::addi(Reg::R3, Reg::R1, 1), // 3: RAW on 2
        ]);
        let d = BlockDeps::build(&b);
        assert!(d.succs(0).contains(&1));
        assert!(d.succs(0).contains(&2)); // WAW
        assert!(d.succs(1).contains(&2)); // WAR
        assert!(d.succs(2).contains(&3));
        assert!(!d.succs(1).contains(&3));
    }

    #[test]
    fn memory_edges_are_conservative() {
        let b = block_of(vec![
            Instruction::load(Reg::R1, Reg::R10, 0),   // 0
            Instruction::store(Reg::R10, Reg::R1, 8),  // 1: load->store + RAW
            Instruction::load(Reg::R2, Reg::R10, 16),  // 2: store->load
            Instruction::store(Reg::R10, Reg::R2, 24), // 3: store->store etc.
        ]);
        let d = BlockDeps::build(&b);
        assert!(d.succs(0).contains(&1));
        assert!(d.succs(1).contains(&2));
        assert!(d.succs(1).contains(&3));
        assert!(d.succs(2).contains(&3));
    }

    #[test]
    fn control_is_a_barrier() {
        let b = block_of(vec![
            Instruction::li(Reg::R1, 1),
            Instruction::br(BrCond::Eq, Reg::R2, Reg::ZERO, BlockId(0)),
        ]);
        let d = BlockDeps::build(&b);
        assert!(d.succs(0).contains(&1));
    }

    #[test]
    fn schedule_groups_contiguously() {
        // 0: r1 = r10+1
        // 1: r9 = r11+1 (independent)
        // 2: r2 = r1+1
        // Group {0,2}: 1 must move out of the middle.
        let b = block_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R9, Reg::R11, 1),
            Instruction::addi(Reg::R2, Reg::R1, 1),
        ]);
        let d = BlockDeps::build(&b);
        let groups: Vec<&[usize]> = vec![&[0, 2]];
        let order = schedule_with_groups(&d, &groups).unwrap();
        let pos0 = order.iter().position(|&x| x == 0).unwrap();
        let pos2 = order.iter().position(|&x| x == 2).unwrap();
        assert_eq!(pos2, pos0 + 1, "group members contiguous: {order:?}");
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn infeasible_grouping_detected() {
        // 0 -> 1 -> 2 chain; group {0,2} cannot be contiguous.
        let b = block_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R2, Reg::R1, 1),
            Instruction::addi(Reg::R3, Reg::R2, 1),
        ]);
        let d = BlockDeps::build(&b);
        let groups: Vec<&[usize]> = vec![&[0, 2]];
        assert!(schedule_with_groups(&d, &groups).is_none());
    }

    #[test]
    fn cross_group_cycle_detected() {
        // 0: r1 = r10+1   (A)
        // 1: r2 = r1+1    (B: depends on A)
        // 2: r3 = r11+1   (B)
        // 3: r4 = r3+r2   wait simpler: A={0,3}, B={1,2} with 3 dep on 2.
        let b = block_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1), // A
            Instruction::addi(Reg::R2, Reg::R1, 1),  // B (needs A)
            Instruction::addi(Reg::R3, Reg::R11, 1), // B
            Instruction::addi(Reg::R4, Reg::R3, 1),  // A (needs B)
        ]);
        let d = BlockDeps::build(&b);
        let a: &[usize] = &[0, 3];
        let bb: &[usize] = &[1, 2];
        assert!(schedule_with_groups(&d, &[a, bb]).is_none());
        // Each alone is fine.
        assert!(schedule_with_groups(&d, &[a]).is_some());
        assert!(schedule_with_groups(&d, &[bb]).is_some());
    }

    #[test]
    fn empty_and_singleton_groups() {
        let b = block_of(vec![Instruction::li(Reg::R1, 1)]);
        let d = BlockDeps::build(&b);
        assert_eq!(schedule_with_groups(&d, &[]).unwrap(), vec![0]);
    }

    #[test]
    fn cycle_through_a_claim_outside_the_window() {
        // Claim {1,4} and candidate {0,3} are each schedulable alone.
        // Together, 0 -> 4 (claim) ~ 1 -> 3 closes a cycle through
        // position 4, past the candidate's window [0,3].
        let b = block_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1), // 0
            Instruction::addi(Reg::R2, Reg::R11, 1), // 1
            Instruction::addi(Reg::R9, Reg::R12, 1), // 2
            Instruction::addi(Reg::R3, Reg::R2, 1),  // 3: needs 1
            Instruction::addi(Reg::R4, Reg::R1, 1),  // 4: needs 0
        ]);
        let d = BlockDeps::build(&b);
        let claim: &[usize] = &[1, 4];
        let cand: &[usize] = &[0, 3];
        assert!(schedule_with_groups(&d, &[claim]).is_some());
        assert!(schedule_with_groups(&d, &[cand]).is_some());
        assert!(schedule_with_groups(&d, &[claim, cand]).is_none());
        let mut scratch = CycleScratch::default();
        assert!(!closes_cycle(&d, [], cand, &mut scratch));
        assert!(closes_cycle(&d, [claim], cand, &mut scratch));
    }

    #[test]
    fn candidate_split_by_a_dependent_is_a_cycle() {
        // 0 -> 1 -> 2: the candidate {0,2} alone cannot be contiguous.
        let b = block_of(vec![
            Instruction::addi(Reg::R1, Reg::R10, 1),
            Instruction::addi(Reg::R2, Reg::R1, 1),
            Instruction::addi(Reg::R3, Reg::R2, 1),
        ]);
        let d = BlockDeps::build(&b);
        let mut scratch = CycleScratch::default();
        assert!(closes_cycle(&d, [], &[0, 2], &mut scratch));
        assert!(!closes_cycle(&d, [], &[0, 1], &mut scratch));
    }

    /// A random straight-line block over few registers (so dependences
    /// are dense), with loads, stores and sometimes a branch terminator.
    fn random_block(rng: &mut rand::rngs::StdRng) -> BasicBlock {
        use rand::Rng;
        let n = rng.gen_range(2..28usize);
        let reg = |rng: &mut rand::rngs::StdRng| Reg::new(rng.gen_range(1..7u8));
        let mut insts = Vec::with_capacity(n);
        for _ in 0..n {
            insts.push(match rng.gen_range(0..6u32) {
                0 => Instruction::load(reg(rng), reg(rng), 0),
                1 => Instruction::store(reg(rng), reg(rng), 0),
                2 => Instruction::add(reg(rng), reg(rng), reg(rng)),
                _ => Instruction::addi(reg(rng), reg(rng), 1),
            });
        }
        if rng.gen_bool(0.5) {
            insts.push(Instruction::br(BrCond::Ne, reg(rng), Reg::ZERO, BlockId(0)));
        }
        block_of(insts)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Growing a claim set greedily from random disjoint position
        /// sets, the incremental check agrees with a full grouped
        /// schedule at every attempt.
        #[test]
        fn closes_cycle_matches_a_full_schedule(seed in proptest::any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let b = random_block(&mut rng);
            let d = BlockDeps::build(&b);
            let n = d.len();
            let mut claimed = vec![false; n];
            let mut claims: Vec<Vec<usize>> = Vec::new();
            let mut scratch = CycleScratch::default();
            for _ in 0..3 * n {
                let first = rng.gen_range(0..n);
                let span = rng.gen_range(1..8usize);
                let mut cand: Vec<usize> = (first..n.min(first + span + 1))
                    .filter(|&p| !claimed[p] && (p == first || rng.gen_bool(0.5)))
                    .collect();
                cand.truncate(rng.gen_range(2..5usize));
                if cand.len() < 2 || claimed[first] {
                    continue;
                }
                let mut groups: Vec<&[usize]> = claims.iter().map(Vec::as_slice).collect();
                groups.push(&cand);
                let full = schedule_with_groups(&d, &groups).is_none();
                let incremental =
                    closes_cycle(&d, claims.iter().map(Vec::as_slice), &cand, &mut scratch);
                proptest::prop_assert_eq!(incremental, full, "claims {:?} cand {:?}", claims, cand);
                if !full {
                    for &p in &cand {
                        claimed[p] = true;
                    }
                    claims.push(cand);
                }
            }
        }
    }
}
