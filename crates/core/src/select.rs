//! Mini-graph selectors and the greedy budgeted selection core (§2, §4).
//!
//! Every selector follows the same two-phase procedure the paper
//! describes: first the *starting pool* of candidates is filtered
//! according to the selector's serialization policy, then the shared
//! greedy algorithm picks templates by coverage score `(n−1)·f` under the
//! MGT budget, discounting overlaps.

use crate::candidate::{enumerate_with, Candidate, SelectionConfig};
use crate::classify::{classify, Serialization};
use crate::depgraph::{schedule_with_groups, BlockDepsCache};
use crate::rewrite::ChosenInstance;
use crate::template::TemplateIndex;
use mg_isa::{Program, StaticId};
use mg_sim::SlackProfile;
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};

/// Variant of the Slack-Profile model (§5.2's component study).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SpKind {
    /// Full model: rules #1–#4 (delay quantification + consumer slack).
    Full,
    /// `Slack-Profile-Delay`: rejects any delayed output, ignoring slack.
    DelayOnly,
    /// `Slack-Profile-SIAL`: the operand-arrival-order heuristic.
    Sial,
}

/// Tolerance in cycles of every Slack-Profile comparison: profile values
/// are averages over many executions, so a delay up to half a cycle
/// beyond the slack (or, for Slack-Profile-Delay and -SIAL, beyond zero)
/// is noise, not harm.
pub const SLACK_EPS: f64 = 0.5;

/// Parameters of the Slack-Profile model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SlackProfileModel {
    /// Which variant of the model to apply.
    pub kind: SpKind,
    /// Use *observed* per-static execution latencies (which include real
    /// cache-miss time) instead of optimistic latencies in rule #2.
    ///
    /// The paper's Slack-Profile "uses optimistic execution latencies
    /// that do not account for cache misses, which plague mcf. Remedying
    /// this is left for future work" — this flag is that remedy.
    pub observed_latencies: bool,
}

impl Default for SlackProfileModel {
    fn default() -> SlackProfileModel {
        SlackProfileModel {
            kind: SpKind::Full,
            observed_latencies: false,
        }
    }
}

impl SlackProfileModel {
    /// The miss-aware extension of the full model.
    pub fn miss_aware() -> SlackProfileModel {
        SlackProfileModel {
            observed_latencies: true,
            ..SlackProfileModel::default()
        }
    }
}

/// A mini-graph selector: a policy for the starting candidate pool.
#[derive(Clone, Debug)]
pub enum Selector {
    /// Admit every candidate (maximal coverage, serialization-blind).
    StructAll,
    /// Reject every potentially-serializing candidate.
    StructNone,
    /// Reject only candidates with *unbounded* serialization (§4.2).
    StructBounded,
    /// Reject candidates whose profiled delay cannot be absorbed (§4.3).
    SlackProfile(SlackProfileModel, SlackProfile),
}

impl Selector {
    /// Short display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Selector::StructAll => "Struct-All",
            Selector::StructNone => "Struct-None",
            Selector::StructBounded => "Struct-Bounded",
            Selector::SlackProfile(m, _) => match m.kind {
                SpKind::Full => "Slack-Profile",
                SpKind::DelayOnly => "Slack-Profile-Delay",
                SpKind::Sial => "Slack-Profile-SIAL",
            },
        }
    }

    /// Whether this selector admits `candidate`.
    pub fn admits(&self, program: &Program, candidate: &Candidate) -> bool {
        match self {
            Selector::StructAll => true,
            Selector::StructNone => !candidate.shape.potentially_serializing(),
            Selector::StructBounded => classify(&candidate.shape) != Serialization::Unbounded,
            Selector::SlackProfile(model, profile) => {
                slack_profile_admits(program, candidate, profile, model)
            }
        }
    }

    /// Which candidates of `pool` this selector admits, one flag per
    /// candidate.
    pub fn admitted(&self, program: &Program, pool: &[Candidate]) -> Vec<bool> {
        pool.iter().map(|c| self.admits(program, c)).collect()
    }

    /// Filters a candidate pool.
    pub fn filter(&self, program: &Program, pool: Vec<Candidate>) -> Vec<Candidate> {
        let admitted = self.admitted(program, &pool);
        pool.into_iter()
            .zip(admitted)
            .filter_map(|(c, a)| a.then_some(c))
            .collect()
    }
}

/// The Slack-Profile delay model (Figure 5): per-candidate delays and the
/// degradation verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct DelayModel {
    /// Mini-graph issue time of each constituent, block-relative.
    pub issue_mg: Vec<f64>,
    /// Induced delay per constituent (rule #3), clamped at 0.
    pub delay: Vec<f64>,
    /// Block-relative arrival of the latest serializing input, if any.
    pub ser_arrival: Option<f64>,
    /// Block-relative arrival floor of the first constituent
    /// (`max(Issue(0), inputs-to-first ready)`).
    pub first_floor: f64,
}

/// Evaluates rules #1–#3 for a candidate against a slack profile, using
/// optimistic constituent latencies (the paper's model).
pub fn delay_model(program: &Program, candidate: &Candidate, profile: &SlackProfile) -> DelayModel {
    delay_model_with(program, candidate, profile, false)
}

/// [`delay_model`], optionally chaining rule #2 with the *observed*
/// per-static latencies from the profile (miss-aware extension).
pub fn delay_model_with(
    program: &Program,
    candidate: &Candidate,
    profile: &SlackProfile,
    observed_latencies: bool,
) -> DelayModel {
    let ids: Vec<StaticId> = candidate
        .positions
        .iter()
        .map(|&p| program.id_of(candidate.block, p))
        .collect();
    let shape = &candidate.shape;

    // Ready time of each external input: taken from the profile record of
    // its earliest reader (operand ready times are per consumer slot).
    let mut ext_ready = vec![f64::NEG_INFINITY; shape.ext_inputs.len()];
    for (ci, links) in shape.srcs.iter().enumerate() {
        for (slot, link) in links.iter().enumerate() {
            if let crate::candidate::CandSrc::External(k) = link {
                let k = *k as usize;
                if ext_ready[k] == f64::NEG_INFINITY {
                    ext_ready[k] = profile.get(ids[ci]).src_ready_rel[slot];
                }
            }
        }
    }

    // Rule #1: external serialization.
    let issue0 = profile.get(ids[0]).issue_rel;
    let all_ready = ext_ready.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let first_floor = {
        let mut floor = issue0;
        for (k, &(_, pos)) in shape.ext_inputs.iter().enumerate() {
            if pos == 0 {
                floor = floor.max(ext_ready[k]);
            }
        }
        floor
    };
    let mut issue_mg = Vec::with_capacity(ids.len());
    issue_mg.push(issue0.max(all_ready));
    // Rule #2: internal serialization. Optimistic latencies come from the
    // shape's prefix (L1-hit loads); the miss-aware extension instead
    // uses each constituent's profiled average latency.
    for ci in 1..ids.len() {
        let prev_lat = if observed_latencies {
            let rec = profile.get(ids[ci - 1]);
            let optimistic = (shape.lat_prefix[ci] - shape.lat_prefix[ci - 1]) as f64;
            if rec.count > 0 {
                rec.avg_latency.max(optimistic)
            } else {
                optimistic
            }
        } else {
            (shape.lat_prefix[ci] - shape.lat_prefix[ci - 1]) as f64
        };
        let t = issue_mg[ci - 1] + prev_lat;
        issue_mg.push(t);
    }
    // Rule #3: instruction delay.
    let delay: Vec<f64> = ids
        .iter()
        .enumerate()
        .map(|(ci, id)| (issue_mg[ci] - profile.get(*id).issue_rel).max(0.0))
        .collect();

    let ser_arrival = shape
        .ext_inputs
        .iter()
        .enumerate()
        .filter(|(_, &(_, pos))| pos > 0)
        .map(|(k, _)| ext_ready[k])
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        });

    DelayModel {
        issue_mg,
        delay,
        ser_arrival,
        first_floor,
    }
}

/// Whether Slack-Profile (or a variant) admits the candidate.
pub fn slack_profile_admits(
    program: &Program,
    candidate: &Candidate,
    profile: &SlackProfile,
    model: &SlackProfileModel,
) -> bool {
    // Candidates never executed in the profiled run carry no evidence of
    // harm; admit them (their score is zero anyway).
    let first_id = program.id_of(candidate.block, candidate.positions[0]);
    if !profile.executed(first_id) {
        return true;
    }
    let shape = &candidate.shape;
    let dm = delay_model_with(program, candidate, profile, model.observed_latencies);

    match model.kind {
        SpKind::Sial => {
            // Heuristic: reject when a serializing input arrives last.
            match dm.ser_arrival {
                Some(s) => s <= dm.first_floor + SLACK_EPS,
                None => true,
            }
        }
        SpKind::DelayOnly | SpKind::Full => {
            // Rule #4 over the candidate's outputs: register output,
            // store, and branch (the profiler provides slack for all).
            let mut out_positions: Vec<usize> = Vec::new();
            if let Some(p) = shape.output_pos {
                out_positions.push(p as usize);
            }
            if let Some((p, is_load)) = shape.mem {
                if !is_load {
                    out_positions.push(p as usize);
                }
            }
            if let Some(p) = shape.control {
                out_positions.push(p as usize);
            }
            if out_positions.is_empty() {
                // Nothing outside the graph can observe a delay.
                return true;
            }
            for p in out_positions {
                let d = dm.delay[p];
                match model.kind {
                    SpKind::DelayOnly => {
                        if d > SLACK_EPS {
                            return false;
                        }
                    }
                    SpKind::Full => {
                        let id = program.id_of(candidate.block, candidate.positions[p]);
                        let slack = profile.get(id).local_slack;
                        if d > slack + SLACK_EPS {
                            return false;
                        }
                    }
                    SpKind::Sial => unreachable!(),
                }
            }
            true
        }
    }
}

/// Result of greedy selection.
#[derive(Clone, Debug, Default)]
pub struct SelectionResult {
    /// The chosen instances with template assignments.
    pub chosen: Vec<ChosenInstance>,
    /// Number of distinct templates used (≤ budget).
    pub templates: usize,
    /// Estimated dynamic coverage: embedded dynamic instructions over
    /// total profiled dynamic instructions.
    pub est_coverage: f64,
}

/// The per-pool work every selection over one starting pool shares: the
/// pool's template grouping and each block's dependence graph. Selectors
/// differ only in which candidates they admit, so a caller running
/// several of them over one pool builds this once and passes each
/// selector's admitted mask to [`select_admitted`].
#[derive(Debug)]
pub struct PoolIndex {
    templates: TemplateIndex,
    deps: BlockDepsCache,
}

impl PoolIndex {
    /// Indexes `pool`, a pool of `program`'s candidates. Dependence
    /// graphs are built on first use.
    pub fn new(program: &Program, pool: &[Candidate]) -> PoolIndex {
        PoolIndex {
            templates: TemplateIndex::build(program, pool),
            deps: BlockDepsCache::new(program),
        }
    }

    /// Enumerates `program`'s starting pool under `cfg` (as
    /// [`enumerate`](crate::candidate::enumerate) does) and indexes it,
    /// keeping the dependence graphs enumeration builds.
    pub fn enumerate(program: &Program, cfg: &SelectionConfig) -> (Vec<Candidate>, PoolIndex) {
        let deps = BlockDepsCache::new(program);
        let pool = enumerate_with(program, cfg, &deps);
        let templates = TemplateIndex::build(program, &pool);
        (pool, PoolIndex { templates, deps })
    }

    /// The program's per-block dependence graphs.
    pub(crate) fn deps(&self) -> &BlockDepsCache {
        &self.deps
    }
}

/// Greedy budgeted template selection (§2 "Selection").
///
/// `freqs` are per-static dynamic execution counts from the profiling
/// run (see [`Trace::static_freqs`](mg_workloads::Trace::static_freqs)).
pub fn greedy_select(
    program: &Program,
    pool: &[Candidate],
    freqs: &[u64],
    cfg: &SelectionConfig,
) -> SelectionResult {
    let index = PoolIndex::new(program, pool);
    select_admitted(program, pool, &index, &vec![true; pool.len()], freqs, cfg)
}

/// [`greedy_select`] over the candidates of `pool` with `admitted[i]`
/// set, using `index` (built for `pool`) for the grouping and the
/// dependence graphs. The result equals `greedy_select` over the
/// admitted sub-pool: templates are ranked by first admitted member, and
/// heap ties break on that rank.
pub fn select_admitted(
    program: &Program,
    pool: &[Candidate],
    index: &PoolIndex,
    admitted: &[bool],
    freqs: &[u64],
    cfg: &SelectionConfig,
) -> SelectionResult {
    let total_dyn: u64 = freqs.iter().sum();
    let templates = index.templates.restrict(admitted);
    let freq_of = |c: &Candidate| -> u64 { freqs[program.id_of(c.block, c.positions[0]).index()] };
    let score_of_member = |c: &Candidate| -> u64 { (c.len() as u64 - 1) * freq_of(c) };

    // used[static index] = claimed by an instance.
    let mut used = vec![false; program.static_count()];
    let mut claims_per_block: HashMap<u32, Vec<usize>> = HashMap::new(); // pool indices
    let alive = |m: usize, used: &[bool]| -> bool {
        !pool[m]
            .positions
            .iter()
            .any(|&p| used[program.id_of(pool[m].block, p).index()])
    };

    // Lazy max-heap of (score, template rank).
    let mut heap: BinaryHeap<(u64, usize)> = BinaryHeap::new();
    let template_score = |members: &[usize], used: &[bool]| -> u64 {
        members
            .iter()
            .filter(|&&m| alive(m, used))
            .map(|&m| score_of_member(&pool[m]))
            .sum()
    };
    for (ti, members) in templates.iter().enumerate() {
        let s = template_score(members, &used);
        if s > 0 {
            heap.push((s, ti));
        }
    }

    let mut chosen: Vec<ChosenInstance> = Vec::new();
    let mut next_template = 0u16;
    let mut embedded_dyn = 0u64;

    while let Some((score, ti)) = heap.pop() {
        if (next_template as usize) >= cfg.mgt_budget {
            break;
        }
        let current = template_score(&templates[ti], &used);
        if current == 0 {
            continue;
        }
        if current < score {
            heap.push((current, ti));
            continue;
        }
        // Claim the template: take each alive member whose positions are
        // free and whose addition keeps its block schedulable.
        let mut members: Vec<usize> = templates[ti]
            .iter()
            .copied()
            .filter(|&m| alive(m, &used))
            .collect();
        members.sort_by_key(|&m| std::cmp::Reverse(score_of_member(&pool[m])));
        let mut claimed_any = false;
        for m in members {
            // Members of the same template may overlap each other.
            if !alive(m, &used) {
                continue;
            }
            let cand = &pool[m];
            let block_claims = claims_per_block.entry(cand.block.0).or_default();
            let mut groups: Vec<&[usize]> = block_claims
                .iter()
                .map(|&ci| pool[ci].positions.as_slice())
                .collect();
            groups.push(cand.positions.as_slice());
            if schedule_with_groups(index.deps.get(program, cand.block), &groups).is_none() {
                continue;
            }
            // Claim.
            for &p in &cand.positions {
                used[program.id_of(cand.block, p).index()] = true;
            }
            block_claims.push(m);
            embedded_dyn += cand.len() as u64 * freq_of(cand);
            chosen.push(ChosenInstance {
                candidate: cand.clone(),
                template: next_template,
            });
            claimed_any = true;
        }
        if claimed_any {
            next_template += 1;
        }
    }

    SelectionResult {
        chosen,
        templates: next_template as usize,
        est_coverage: if total_dyn == 0 {
            0.0
        } else {
            embedded_dyn as f64 / total_dyn as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::enumerate;
    use mg_isa::{BrCond, Instruction, ProgramBuilder, Reg};
    use mg_workloads::Executor;

    /// A two-block loop: hot block with a chain, cold block with a chain.
    fn hot_cold_program() -> Program {
        let mut pb = ProgramBuilder::new("hc");
        let f = pb.func("main");
        let head = pb.block(f);
        let hot = pb.block(f);
        let cold = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 100));
        pb.set_fallthrough(head, hot);
        pb.push(hot, Instruction::addi(Reg::R2, Reg::R1, 1));
        pb.push(
            hot,
            Instruction::alu_ri(mg_isa::Opcode::XorI, Reg::R3, Reg::R2, 3),
        );
        pb.push(hot, Instruction::add(Reg::R4, Reg::R4, Reg::R3));
        pb.push(hot, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(hot, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, hot));
        pb.set_fallthrough(hot, cold);
        pb.push(cold, Instruction::addi(Reg::R5, Reg::R4, 7));
        pb.push(
            cold,
            Instruction::alu_ri(mg_isa::Opcode::ShlI, Reg::R6, Reg::R5, 2),
        );
        pb.push(cold, Instruction::store(Reg::R10, Reg::R6, 0));
        pb.set_fallthrough(cold, exit);
        pb.push(exit, Instruction::halt());
        pb.build().unwrap()
    }

    fn freqs_of(p: &Program) -> Vec<u64> {
        let (t, _) = Executor::new(p).run().unwrap();
        t.static_freqs(p)
    }

    #[test]
    fn struct_none_rejects_serializing_only() {
        let p = hot_cold_program();
        let pool = enumerate(&p, &SelectionConfig::default());
        let all = Selector::StructAll.filter(&p, pool.clone());
        let none = Selector::StructNone.filter(&p, pool.clone());
        assert!(all.len() > none.len());
        assert!(none.iter().all(|c| !c.shape.potentially_serializing()));
    }

    #[test]
    fn struct_bounded_sits_between() {
        let p = hot_cold_program();
        let pool = enumerate(&p, &SelectionConfig::default());
        let all = Selector::StructAll.filter(&p, pool.clone()).len();
        let bounded = Selector::StructBounded.filter(&p, pool.clone()).len();
        let none = Selector::StructNone.filter(&p, pool).len();
        assert!(none <= bounded && bounded <= all);
    }

    #[test]
    fn greedy_prefers_hot_code() {
        let p = hot_cold_program();
        let freqs = freqs_of(&p);
        let pool = enumerate(&p, &SelectionConfig::default());
        // Budget of one template: it must come from the hot block.
        let cfg = SelectionConfig {
            mgt_budget: 1,
            ..SelectionConfig::default()
        };
        let res = greedy_select(&p, &pool, &freqs, &cfg);
        assert_eq!(res.templates, 1);
        assert!(!res.chosen.is_empty());
        for c in &res.chosen {
            // hot block is BlockId(1)
            assert_eq!(c.candidate.block.0, 1);
        }
        assert!(res.est_coverage > 0.3, "coverage {}", res.est_coverage);
    }

    #[test]
    fn chosen_instances_are_disjoint() {
        let p = hot_cold_program();
        let freqs = freqs_of(&p);
        let pool = enumerate(&p, &SelectionConfig::default());
        let res = greedy_select(&p, &pool, &freqs, &SelectionConfig::default());
        let mut seen = std::collections::HashSet::new();
        for c in &res.chosen {
            for &pos in &c.candidate.positions {
                assert!(
                    seen.insert((c.candidate.block.0, pos)),
                    "instance overlap at block {} pos {pos}",
                    c.candidate.block.0
                );
            }
        }
    }

    /// The seven distinct selectors the sweep harness runs.
    fn every_selector(slack: &SlackProfile) -> Vec<Selector> {
        let sp = |kind| {
            Selector::SlackProfile(
                SlackProfileModel {
                    kind,
                    ..SlackProfileModel::default()
                },
                slack.clone(),
            )
        };
        vec![
            Selector::StructAll,
            Selector::StructNone,
            Selector::StructBounded,
            sp(SpKind::Full),
            sp(SpKind::DelayOnly),
            sp(SpKind::Sial),
            Selector::SlackProfile(SlackProfileModel::miss_aware(), slack.clone()),
        ]
    }

    #[test]
    fn masked_selection_over_a_shared_index_equals_greedy_select() {
        for name in ["mib_crc32", "mib_sha", "spec_mcf"] {
            let mut spec = mg_workloads::benchmark(name).unwrap();
            spec.params.target_dyn = 8_000;
            let w = spec.generate();
            let (_, freqs, slack) =
                crate::pipeline::profile_workload(&w, &mg_sim::MachineConfig::reduced());
            let p = &w.program;
            for cfg in [
                SelectionConfig::default(),
                SelectionConfig {
                    mgt_budget: 8,
                    ..SelectionConfig::default()
                },
            ] {
                // One index serves every selector, as in the harness.
                let (pool, index) = PoolIndex::enumerate(p, &cfg);
                assert_eq!(pool, enumerate(p, &cfg));
                for selector in every_selector(&slack) {
                    let what = format!("{name} {} {}", selector.name(), cfg.mgt_budget);
                    let plain = greedy_select(p, &selector.filter(p, pool.clone()), &freqs, &cfg);
                    let admitted = selector.admitted(p, &pool);
                    let masked = select_admitted(p, &pool, &index, &admitted, &freqs, &cfg);
                    assert!(!plain.chosen.is_empty(), "{what}");
                    let key = |r: &SelectionResult| -> Vec<(Candidate, u16)> {
                        r.chosen
                            .iter()
                            .map(|c| (c.candidate.clone(), c.template))
                            .collect()
                    };
                    assert_eq!(key(&masked), key(&plain), "{what}");
                    assert_eq!(masked.templates, plain.templates, "{what}");
                    assert_eq!(
                        masked.est_coverage.to_bits(),
                        plain.est_coverage.to_bits(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn restricted_templates_equal_grouping_the_admitted_pool() {
        let p = hot_cold_program();
        let pool = enumerate(&p, &SelectionConfig::default());
        let index = TemplateIndex::build(&p, &pool);
        // Every other candidate, and the Struct-None policy.
        let masks = [
            (0..pool.len()).map(|i| i % 2 == 0).collect::<Vec<_>>(),
            Selector::StructNone.admitted(&p, &pool),
        ];
        for admitted in masks {
            let sub: Vec<usize> = (0..pool.len()).filter(|&i| admitted[i]).collect();
            let sub_pool: Vec<Candidate> = sub.iter().map(|&i| pool[i].clone()).collect();
            let grouped: Vec<Vec<usize>> = crate::template::group_templates(&p, &sub_pool)
                .into_iter()
                .map(|t| t.members.iter().map(|&m| sub[m]).collect())
                .collect();
            assert_eq!(index.restrict(&admitted), grouped);
        }
    }

    #[test]
    fn budget_limits_templates() {
        let p = hot_cold_program();
        let freqs = freqs_of(&p);
        let pool = enumerate(&p, &SelectionConfig::default());
        let unlimited = greedy_select(&p, &pool, &freqs, &SelectionConfig::default());
        let limited = greedy_select(
            &p,
            &pool,
            &freqs,
            &SelectionConfig {
                mgt_budget: 2,
                ..SelectionConfig::default()
            },
        );
        assert!(limited.templates <= 2);
        assert!(limited.templates <= unlimited.templates);
        assert!(limited.est_coverage <= unlimited.est_coverage + 1e-9);
    }
}
