//! The cycle-level out-of-order timing engine.
//!
//! Trace-driven: the committed-path [`Trace`] from functional execution is
//! replayed through a detailed pipeline model — fetch (I$ + branch
//! prediction + BTB + RAS), in-order rename/dispatch against finite
//! ROB/IQ/LSQ/physical-register resources, out-of-order issue with
//! per-class port limits, StoreSets-speculative loads with
//! violation-triggered squash and replay, and in-order commit.
//!
//! Wrong-path instructions are not fetched; a mispredicted branch instead
//! stalls fetch until it resolves, which charges the same redirect + refill
//! penalty. This is the standard trace-driven substitution and preserves
//! the relative IPC effects the mini-graph experiments measure.
//!
//! Mini-graph instances (tagged by the rewriter) fetch, rename, issue and
//! commit as single *handles*; their constituents execute serially off the
//! MGT (rules #1 and #2 of the paper: the handle waits for all external
//! inputs, constituents follow each other by their execution latencies).
//! Disabled instances execute in outlined form: an outlining jump, the
//! constituents as singletons at outlined addresses, and a return jump.

use crate::bpred::{Btb, DirectionPredictor, Ras};
use crate::cache::MemorySystem;
use crate::config::MachineConfig;
use crate::dynmg::{DynMgConfig, DynMgController};
use crate::mgi::InstanceMap;
use crate::slack::{self, ProfileAccum, SlackProfile};
use crate::stats::SimStats;
use crate::storesets::StoreSets;
use mg_isa::{ExecClass, Opcode, Program, Reg, StaticId};
use mg_workloads::Trace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const NEVER: u64 = u64::MAX;
/// Null link in the intrusive waiter lists (no op ever has this index).
const NO_OP: u32 = u32::MAX;

/// Simulation options beyond the machine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Collect a local-slack profile (singleton runs only).
    pub profile_slack: bool,
    /// Enable the Slack-Dynamic run-time controller.
    pub dyn_mg: Option<DynMgConfig>,
    /// Hard cycle cap (0 = automatic: generous multiple of trace length).
    pub max_cycles: u64,
    /// Collect pipeline trace, stall attribution, and occupancy metrics.
    #[cfg(feature = "obs")]
    pub obs: Option<mg_obs::ObsConfig>,
}

/// Result of a timing simulation.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Statistics, including cycles and IPC.
    pub stats: SimStats,
    /// The collected slack profile, when requested.
    pub slack: Option<SlackProfile>,
    /// Whether the cycle cap was hit (indicates a modeling bug).
    pub hit_cycle_cap: bool,
    /// The observability report, when `SimOptions::obs` requested one.
    #[cfg(feature = "obs")]
    pub obs: Option<mg_obs::ObsReport>,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Runs a timing simulation of `trace` (from `program`) on `cfg`.
pub fn simulate(
    program: &Program,
    trace: &Trace,
    cfg: &MachineConfig,
    opts: SimOptions,
) -> SimResult {
    Engine::new(program, trace, cfg, opts).run()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum OpKind {
    Singleton(StaticId),
    Handle(u32), // index into InstanceMap.instances
    OutJump(u32),
    RetJump(u32),
}

#[derive(Clone, Copy, Debug)]
struct SrcDep {
    producer: Option<u32>,
}

#[derive(Clone, Debug)]
struct Op {
    kind: OpKind,
    trace_lo: u32,
    trace_len: u8,
    pc: u64,
    dest: Option<Reg>,
    srcs: [Option<SrcDep>; 3],
    is_load: bool,
    is_store: bool,
    mem_addr: u64,
    needs_iq: bool,
    exec_class: ExecClass,
    /// First op of the outlined group this op belongs to (flush rounding).
    group_leader: Option<u32>,
    avail_at: u64,
    dispatched_at: Option<u64>,
    issued_at: Option<u64>,
    /// When the output value is available to consumers.
    ready_at: u64,
    /// When the op has fully completed (commit eligibility).
    done_at: u64,
    resolve_at: u64,
    committed: bool,
    squashed: bool,
    mispredicted: bool,
    /// Serialization flags (handles).
    sial: bool,
    ser_delayed: bool,
    consumer_delayed: bool,
    /// Minimum consumer margin observed (local slack sample).
    min_margin: u64,
    /// Per-src value ready times captured at issue (profiling).
    src_ready: [Option<u64>; 2],
    /// Head of the intrusive list of IQ ops waiting on this op's value.
    waiter_head: u32,
    /// Next op in whatever waiter list this op is chained into.
    waiter_next: u32,
}

impl Op {
    fn new(kind: OpKind, pc: u64, avail_at: u64) -> Op {
        Op {
            kind,
            trace_lo: 0,
            trace_len: 0,
            pc,
            dest: None,
            srcs: [None; 3],
            is_load: false,
            is_store: false,
            mem_addr: 0,
            needs_iq: false,
            exec_class: ExecClass::SimpleInt,
            group_leader: None,
            avail_at,
            dispatched_at: None,
            issued_at: None,
            ready_at: NEVER,
            done_at: NEVER,
            resolve_at: NEVER,
            committed: false,
            squashed: false,
            mispredicted: false,
            sial: false,
            ser_delayed: false,
            consumer_delayed: false,
            min_margin: NEVER,
            src_ready: [None; 2],
            waiter_head: NO_OP,
            waiter_next: NO_OP,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct OutlineProgress {
    inst_idx: u32,
    leader: u32,
    next_pos: usize,
    /// Whether this disabled instance pays the outlining penalty (two
    /// jumps + outlined addresses) or executes idealized inline
    /// (`DisableCost::Free`).
    penalized: bool,
}

#[derive(Clone, Copy, Debug)]
enum FetchUnit {
    Singleton,
    Handle(u32),
    OutJumpStart(u32),
    OutConstituent(u32, usize),
    OutRetJump(u32),
}

struct Engine<'a> {
    program: &'a Program,
    trace: &'a Trace,
    cfg: &'a MachineConfig,
    opts: SimOptions,
    imap: InstanceMap,

    mem: MemorySystem,
    dirpred: DirectionPredictor,
    btb: Btb,
    ras: Ras,
    storesets: StoreSets,
    dynctl: Option<DynMgController>,

    ops: Vec<Op>,
    rob: VecDeque<u32>,
    /// IQ ops whose operands are all ready, sorted oldest-first. Entries
    /// persist across cycles while port- or disambiguation-blocked;
    /// squashed entries are filtered lazily.
    ready: Vec<u32>,
    /// Pending wakeups: `(cycle, op)` min-heap of IQ ops whose operand
    /// arrival time is known. Ops with an unissued producer instead sit in
    /// that producer's waiter list until its completion time is known.
    wakeups: BinaryHeap<Reverse<(u64, u32)>>,
    lq: VecDeque<u32>,
    sq: VecDeque<u32>,
    fetchq: VecDeque<u32>,
    rename: [Option<u32>; mg_isa::reg::NUM_ARCH_REGS],
    /// Scratch: per-constituent finish times during handle execution.
    handle_finish: Vec<u64>,

    free_regs: u32,
    iq_free: u32,
    lq_free: u32,
    sq_free: u32,
    fetchq_cap: usize,

    fetch_ptr: usize,
    outline: Option<OutlineProgress>,
    fetch_resume: u64,
    last_fetch_line: u64,
    cycle: u64,

    stats: SimStats,

    /// Observability collector, present when the run requests one.
    #[cfg(feature = "obs")]
    obs: Option<mg_obs::ObsCollector>,
    /// Why fetch last stalled (consulted by stall attribution while
    /// `cycle < fetch_resume`).
    #[cfg(feature = "obs")]
    obs_redirect: mg_obs::RedirectKind,
}

impl<'a> Engine<'a> {
    fn new(
        program: &'a Program,
        trace: &'a Trace,
        cfg: &'a MachineConfig,
        opts: SimOptions,
    ) -> Engine<'a> {
        let imap = InstanceMap::build(program, cfg.dl1.hit_lat);
        let dynctl = opts
            .dyn_mg
            .map(|dc| DynMgController::new(dc, imap.template_count.max(1)));
        Engine {
            program,
            trace,
            cfg,
            opts,
            mem: MemorySystem::new(cfg),
            dirpred: DirectionPredictor::new(&cfg.bpred),
            btb: Btb::new(&cfg.bpred),
            ras: Ras::new(cfg.bpred.ras_entries),
            storesets: StoreSets::new(&cfg.storesets),
            dynctl,
            imap,
            ops: Vec::with_capacity(trace.len() + 64),
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            ready: Vec::with_capacity(cfg.iq_entries as usize),
            wakeups: BinaryHeap::with_capacity(2 * cfg.iq_entries as usize),
            lq: VecDeque::with_capacity(cfg.lq_entries as usize),
            sq: VecDeque::with_capacity(cfg.sq_entries as usize),
            fetchq: VecDeque::with_capacity((cfg.fetch_width * cfg.front_depth) as usize + 8),
            rename: [None; mg_isa::reg::NUM_ARCH_REGS],
            handle_finish: Vec::with_capacity(8),
            free_regs: cfg.phys_regs - mg_isa::reg::NUM_ARCH_REGS as u32,
            iq_free: cfg.iq_entries,
            lq_free: cfg.lq_entries,
            sq_free: cfg.sq_entries,
            fetchq_cap: (cfg.fetch_width * cfg.front_depth) as usize + 8,
            fetch_ptr: 0,
            outline: None,
            fetch_resume: 0,
            last_fetch_line: u64::MAX,
            cycle: 0,
            stats: SimStats::default(),
            #[cfg(feature = "obs")]
            obs: opts
                .obs
                .map(|oc| mg_obs::ObsCollector::new(oc, cfg.obs_caps())),
            #[cfg(feature = "obs")]
            obs_redirect: mg_obs::RedirectKind::None,
        }
    }

    fn run(mut self) -> SimResult {
        let cap = if self.opts.max_cycles > 0 {
            self.opts.max_cycles
        } else {
            200 * self.trace.len() as u64 + 100_000
        };
        // Always-on telemetry: cycles are accumulated locally and
        // flushed to the global counter in large batches, so the hot
        // loop pays one subtract-and-compare per cycle and one relaxed
        // atomic per batch (the perf-gate bounds this at < 3% against
        // results/BENCH_engine.json).
        const TELE_BATCH: u64 = 1 << 16;
        let tele_cycles = mg_obs::tele_counter!("mg_sim_cycles_total");
        let mut tele_flushed = 0u64;
        let mut hit_cap = false;
        while !self.finished() {
            if self.cycle >= cap {
                hit_cap = true;
                break;
            }
            self.commit();
            self.issue();
            self.dispatch();
            self.fetch();
            #[cfg(feature = "obs")]
            self.obs_end_cycle();
            self.cycle += 1;
            if self.cycle - tele_flushed >= TELE_BATCH {
                tele_cycles.add(self.cycle - tele_flushed);
                tele_flushed = self.cycle;
            }
        }
        tele_cycles.add(self.cycle - tele_flushed);
        mg_obs::tele_counter!("mg_sim_runs_total").inc();
        self.stats.cycles = self.cycle;
        if let Some(ctl) = &self.dynctl {
            self.stats.disabled_templates = ctl.disabled_count();
        }
        self.stats.bpred = self.dirpred.stats();
        self.stats.il1 = self.mem.il1.stats();
        self.stats.dl1 = self.mem.dl1.stats();
        self.stats.l2 = self.mem.l2.stats();
        self.stats.storesets = self.storesets.stats();
        let slack = self.opts.profile_slack.then(|| self.build_profile());
        #[cfg(feature = "obs")]
        let obs = self.obs.take().map(|c| c.finish(self.stats.cycles));
        SimResult {
            stats: self.stats,
            slack,
            hit_cycle_cap: hit_cap,
            #[cfg(feature = "obs")]
            obs,
        }
    }

    /// Closes the current cycle out in the observability collector:
    /// exactly one call per loop iteration, so attributed cycles equal
    /// `stats.cycles` by construction (the cap check breaks *before* any
    /// stage runs).
    #[cfg(feature = "obs")]
    fn obs_end_cycle(&mut self) {
        if self.obs.is_none() {
            return;
        }
        // Entries surviving in the ready list at end of cycle are exactly
        // the ops that were ready but not granted (port limits or a
        // memory-disambiguation hold).
        let state = mg_obs::CycleState {
            ready_left: self.ready.len(),
            iq_used: (self.cfg.iq_entries - self.iq_free) as usize,
            rob_used: self.rob.len(),
            lq_used: self.lq.len(),
            sq_used: self.sq.len(),
            fetch_stalled: self.cycle < self.fetch_resume,
            redirect: self.obs_redirect,
        };
        let cycle = self.cycle;
        if let Some(obs) = self.obs.as_mut() {
            obs.end_cycle(cycle, &state);
        }
    }

    /// Builds the pipeline-trace record for op `oi` as it leaves the
    /// window. The fetch cycle is recovered from `avail_at` (fetch cycle
    /// plus front-end depth); the operand-ready cycle is recomputed from
    /// the producers, whose completion times are final by now.
    #[cfg(feature = "obs")]
    fn obs_trace_of(&self, oi: u32, commit: Option<u64>, squash: Option<u64>) -> mg_obs::OpTrace {
        let op = &self.ops[oi as usize];
        let class = match op.kind {
            OpKind::Singleton(_) => mg_obs::OpClass::Singleton,
            OpKind::Handle(_) => mg_obs::OpClass::Handle,
            OpKind::OutJump(_) => mg_obs::OpClass::OutlineJump,
            OpKind::RetJump(_) => mg_obs::OpClass::ReturnJump,
        };
        let mut ready = None;
        if op.needs_iq {
            if let Some(d) = op.dispatched_at {
                // First issue opportunity is the cycle after dispatch.
                let mut r = d + 1;
                for dep in op.srcs.iter().flatten() {
                    if let Some(p) = dep.producer {
                        let pr = self.ops[p as usize].ready_at;
                        if pr != NEVER {
                            r = r.max(pr);
                        }
                    }
                }
                ready = Some(r);
            }
        }
        mg_obs::OpTrace {
            seq: oi as u64,
            pc: op.pc,
            class,
            fetch: op.avail_at.saturating_sub(self.cfg.front_depth as u64),
            dispatch: op.dispatched_at,
            ready,
            issue: op.issued_at,
            done: (op.done_at != NEVER).then_some(op.done_at),
            commit,
            squash,
        }
    }

    fn finished(&self) -> bool {
        self.fetch_ptr >= self.trace.len()
            && self.outline.is_none()
            && self.fetchq.is_empty()
            && self.rob.is_empty()
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(&head) = self.rob.front() else { break };
            let op = &self.ops[head as usize];
            if op.done_at > self.cycle {
                break;
            }
            self.rob.pop_front();
            let op = &mut self.ops[head as usize];
            op.committed = true;
            if op.dest.is_some() {
                self.free_regs += 1;
            }
            if op.is_load {
                debug_assert_eq!(self.lq.front(), Some(&head));
                self.lq.pop_front();
                self.lq_free += 1;
            }
            if op.is_store {
                debug_assert_eq!(self.sq.front(), Some(&head));
                self.sq.pop_front();
                self.sq_free += 1;
            }
            self.stats.committed_ops += 1;
            self.stats.committed_instrs += op.trace_len as u64;
            match op.kind {
                OpKind::Handle(idx) => {
                    self.stats.mg_handles += 1;
                    self.stats.mg_embedded_instrs += op.trace_len as u64;
                    if op.ser_delayed {
                        self.stats.serialized_handles += 1;
                        if op.consumer_delayed {
                            self.stats.harmful_serializations += 1;
                        }
                    }
                    let template = self.imap.instances[idx as usize].template;
                    let (sial, delayed, cons) = (op.sial, op.ser_delayed, op.consumer_delayed);
                    if let Some(ctl) = &mut self.dynctl {
                        ctl.report(template, sial, delayed, cons);
                    }
                }
                OpKind::OutJump(_) | OpKind::RetJump(_) => {
                    self.stats.outline_jumps += 1;
                }
                OpKind::Singleton(id) => {
                    if self.program.inst(id).mg.is_some() {
                        self.stats.outlined_instrs += 1;
                    }
                }
            }
            #[cfg(feature = "obs")]
            if self.obs.is_some() {
                let t = self.obs_trace_of(head, Some(self.cycle), None);
                let n = self.ops[head as usize].trace_len as u64;
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_commit_instrs(n);
                    obs.note_op(t);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    fn src_ready_time(&self, dep: &SrcDep) -> u64 {
        match dep.producer {
            Some(p) => self.ops[p as usize].ready_at,
            None => 0,
        }
    }

    /// Enqueues a just-dispatched (or just-woken) IQ op for issue. If
    /// every source producer's completion time is known, the op goes into
    /// the wakeup heap at its operand-arrival cycle; otherwise it chains
    /// into the waiter list of one unissued producer and is rescheduled
    /// when that producer executes.
    fn schedule_for_issue(&mut self, oi: u32) {
        let mut wake = 0u64;
        let mut wait_on = None;
        for s in 0..3 {
            let Some(dep) = self.ops[oi as usize].srcs[s] else {
                continue;
            };
            let Some(p) = dep.producer else { continue };
            let r = self.ops[p as usize].ready_at;
            if r == NEVER {
                wait_on = Some(p);
                break;
            }
            wake = wake.max(r);
        }
        match wait_on {
            Some(p) => {
                self.ops[oi as usize].waiter_next = self.ops[p as usize].waiter_head;
                self.ops[p as usize].waiter_head = oi;
            }
            // An op is first considered the cycle after dispatch, exactly
            // as when it sat in a queue scanned by the next issue pass.
            None => self.wakeups.push(Reverse((wake.max(self.cycle + 1), oi))),
        }
    }

    /// Reschedules every op waiting on `producer`, whose completion time
    /// has just become known. Waiters blocked on a further unissued
    /// producer re-chain onto it; squashed waiters are dropped.
    fn wake_waiters(&mut self, producer: u32) {
        let mut w = self.ops[producer as usize].waiter_head;
        self.ops[producer as usize].waiter_head = NO_OP;
        while w != NO_OP {
            let next = self.ops[w as usize].waiter_next;
            self.ops[w as usize].waiter_next = NO_OP;
            if !self.ops[w as usize].squashed {
                self.schedule_for_issue(w);
            }
            w = next;
        }
    }

    fn issue(&mut self) {
        // Wakeup: pull every op whose operand-arrival cycle has come into
        // the ready list. Arrival times never change once scheduled, so no
        // per-op readiness rescan is needed.
        while let Some(&Reverse((t, oi))) = self.wakeups.peek() {
            if t > self.cycle {
                break;
            }
            self.wakeups.pop();
            if !self.ops[oi as usize].squashed {
                self.ready.push(oi);
            }
        }
        if self.ready.is_empty() {
            return;
        }
        // Oldest-first select: op indices are assigned in dispatch order.
        self.ready.sort_unstable();

        let mut simple = self.cfg.issue_simple;
        let mut complex = self.cfg.issue_complex;
        let mut load = self.cfg.issue_load;
        let mut store = self.cfg.issue_store;
        let mut mg = self.cfg.mg.max_mg_issue;
        let mut mg_mem = self.cfg.mg.max_mem_mg_issue;
        let mut issued_total = 0u32;
        let mut granted = 0u32;
        // The total issue width constrains singleton issue; handles issue
        // on the ALU pipelines and are limited separately.
        let width = self.cfg.issue_width;

        // Issuing an op can trigger a violation flush that squashes
        // younger ready entries, so membership is re-checked per op and
        // the list is reconciled at the end (iteration by index: the list
        // itself is not edited mid-pass).
        for i in 0..self.ready.len() {
            let oi = self.ready[i];
            let op = &self.ops[oi as usize];
            if op.squashed {
                continue; // squashed by a flush earlier in this pass
            }
            // Operand-arrival time (sources are ready by construction).
            let mut max_ready = 0u64;
            for dep in op.srcs.iter().flatten() {
                let r = self.src_ready_time(dep);
                max_ready = max_ready.max(r);
            }
            debug_assert!(max_ready <= self.cycle, "op {oi} woke before its operands");
            // Port availability.
            let is_handle = matches!(op.kind, OpKind::Handle(_));
            let has_mem = op.is_load || op.is_store;
            let is_load_op = op.is_load;
            let is_store_op = op.is_store;
            let class = op.exec_class;
            if is_handle {
                if mg == 0 || (has_mem && mg_mem == 0) {
                    continue;
                }
            } else {
                if issued_total >= width {
                    continue; // handles may still issue on ALU pipelines
                }
                let avail = match class {
                    ExecClass::SimpleInt => simple,
                    ExecClass::ComplexInt => complex,
                    ExecClass::Load => load,
                    ExecClass::Store => store,
                };
                if avail == 0 {
                    continue;
                }
            }
            // Memory disambiguation for loads.
            if is_load_op && !self.load_may_issue(oi) {
                continue;
            }

            // --- grant ---
            if is_handle {
                mg -= 1;
                if has_mem {
                    // The ≤1-memory-mini-graph-per-cycle limit stands in
                    // for the cache port the constituent uses when it
                    // executes off the MGT.
                    mg_mem -= 1;
                }
                let _ = is_store_op;
            } else {
                issued_total += 1;
                match class {
                    ExecClass::SimpleInt => simple -= 1,
                    ExecClass::ComplexInt => complex -= 1,
                    ExecClass::Load => load -= 1,
                    ExecClass::Store => store -= 1,
                }
            }
            granted += 1;
            #[cfg(feature = "obs")]
            if let Some(obs) = self.obs.as_mut() {
                obs.note_issue();
            }
            self.execute(oi, max_ready);
        }
        if granted > 0 {
            self.iq_free += granted;
            // Drop issued ops, and any entries squashed by a mid-pass
            // flush (flushes only happen on issue, so between passes the
            // list stays clean).
            self.ready.retain(|&oi| {
                let op = &self.ops[oi as usize];
                !op.squashed && op.issued_at.is_none()
            });
        }
    }

    /// Checks memory-dependence constraints for a load about to issue.
    /// Returns `false` if it must wait (predicted dependence on an
    /// unissued older store).
    fn load_may_issue(&mut self, load_oi: u32) -> bool {
        let load_pc = self.ops[load_oi as usize].pc;
        let Some(load_set) = self.storesets.set_of(load_pc) else {
            // A load outside every store set never stalls.
            return true;
        };
        // The SQ holds op indices in ascending age order; only the prefix
        // older than the load can constrain it.
        let older = self.sq.partition_point(|&si| si < load_oi);
        for &si in self.sq.range(..older) {
            let st = &self.ops[si as usize];
            if st.issued_at.is_none() && Some(load_set) == self.storesets.set_of(st.pc) {
                // Unresolved older store with a predicted dependence.
                self.storesets.note_stall();
                return false;
            }
        }
        true
    }

    /// Finds the youngest issued older store matching the load's address:
    /// a backward walk over the older-than-load SQ prefix, stopping at the
    /// first (youngest) match.
    fn forwarding_store(&self, load_oi: u32, addr: u64) -> Option<u32> {
        let older = self.sq.partition_point(|&si| si < load_oi);
        for &si in self.sq.range(..older).rev() {
            let st = &self.ops[si as usize];
            if st.issued_at.is_some() && st.mem_addr & !7 == addr & !7 {
                return Some(si);
            }
        }
        None
    }

    /// Detects younger already-issued loads that overlap a store's
    /// address: memory-ordering violation. Returns the oldest such load.
    /// Only the younger-than-store LQ suffix is scanned.
    fn violating_load(&self, store_oi: u32, addr: u64) -> Option<u32> {
        let younger = self.lq.partition_point(|&li| li <= store_oi);
        for &li in self.lq.range(younger..) {
            let ld = &self.ops[li as usize];
            if ld.issued_at.is_some() && ld.mem_addr & !7 == addr & !7 {
                return Some(li);
            }
        }
        None
    }

    fn execute(&mut self, oi: u32, max_src_ready: u64) {
        let now = self.cycle;
        // Consumer-delay propagation for Slack-Dynamic: if a source's
        // producer is a serialization-delayed handle, the value arrived at
        // `max_src_ready`, and we are issuing exactly then, the delay
        // propagated.
        for s in 0..3 {
            let Some(dep) = self.ops[oi as usize].srcs[s] else {
                continue;
            };
            let Some(p) = dep.producer else { continue };
            let p_ready = self.ops[p as usize].ready_at;
            // Local-slack sample: how long after the value arrived did
            // this consumer issue?
            let margin = now.saturating_sub(p_ready);
            let prod = &mut self.ops[p as usize];
            prod.min_margin = prod.min_margin.min(margin);
            if prod.ser_delayed && p_ready == max_src_ready && now == p_ready {
                prod.consumer_delayed = true;
            }
        }
        // Record per-slot value ready times for profiling.
        if self.opts.profile_slack {
            for s in 0..2 {
                if let Some(dep) = self.ops[oi as usize].srcs[s] {
                    self.ops[oi as usize].src_ready[s] = Some(self.src_ready_time(&dep));
                }
            }
        }

        let kind = self.ops[oi as usize].kind;
        self.ops[oi as usize].issued_at = Some(now);
        match kind {
            OpKind::Handle(idx) => self.execute_handle(oi, idx, max_src_ready),
            OpKind::Singleton(id) => self.execute_singleton(oi, id),
            OpKind::OutJump(_) | OpKind::RetJump(_) => unreachable!("jumps bypass the IQ"),
        }
        // The op's completion time is now final: reschedule its waiters.
        // (A violation flush above may have squashed some of them; the
        // walk drops those.)
        self.wake_waiters(oi);
    }

    fn execute_singleton(&mut self, oi: u32, id: StaticId) {
        let now = self.cycle;
        let inst = self.program.inst(id);
        match inst.op {
            Opcode::Load => {
                let addr = self.ops[oi as usize].mem_addr;
                let lat = if let Some(si) = self.forwarding_store(oi, addr) {
                    // Store-to-load forwarding: fast, and a slack sample
                    // for the store's "memory output".
                    let st = &mut self.ops[si as usize];
                    st.min_margin = st.min_margin.min(now.saturating_sub(st.done_at));
                    2
                } else {
                    self.mem.data_latency(addr)
                };
                let op = &mut self.ops[oi as usize];
                op.ready_at = now + 1 + lat as u64;
                op.done_at = op.ready_at;
                #[cfg(feature = "obs")]
                if lat > self.cfg.dl1.hit_lat {
                    let done = op.done_at;
                    if let Some(obs) = self.obs.as_mut() {
                        obs.note_load_miss(done);
                    }
                }
            }
            Opcode::Store => {
                let addr = self.ops[oi as usize].mem_addr;
                let op = &mut self.ops[oi as usize];
                op.done_at = now + 1;
                op.ready_at = now + 1;
                if let Some(li) = self.violating_load(oi, addr) {
                    self.flush_from_violation(oi, li);
                }
            }
            Opcode::Br(_) => {
                let op = &mut self.ops[oi as usize];
                op.done_at = now + 1;
                op.ready_at = now + 1;
                op.resolve_at = now + self.cfg.sched_to_exec as u64 + 1;
                if op.mispredicted {
                    op.min_margin = 0; // delaying a mispredict delays redirect
                    let resume = op.resolve_at + 1;
                    self.fetch_resume = resume;
                }
            }
            _ => {
                let lat = inst.op.latency() as u64;
                let op = &mut self.ops[oi as usize];
                op.ready_at = now + lat;
                op.done_at = now + lat;
            }
        }
    }

    fn execute_handle(&mut self, oi: u32, idx: u32, max_src_ready: u64) {
        let now = self.cycle;
        // Instance metadata is read in place; the mutations below touch
        // disjoint `Engine` fields (`ops`, `mem`, the scratch buffer), so
        // no clone of the interface Vecs is needed.
        let info = &self.imap.instances[idx as usize];

        // Serialization detection (rule of §4.4): is a serializing input
        // among the last-arriving operands?
        let mut sial = false;
        for (s, &(_, first_pos)) in info.ext_inputs.iter().enumerate() {
            if first_pos == 0 {
                continue;
            }
            if let Some(dep) = self.ops[oi as usize].srcs[s] {
                if self.src_ready_time(&dep) == max_src_ready && max_src_ready > 0 {
                    sial = true;
                }
            }
        }
        let delayed = sial && now == max_src_ready;
        {
            let op = &mut self.ops[oi as usize];
            op.sial = sial;
            op.ser_delayed = delayed;
        }

        // Constituent execution off the MGT (rule #2): with internal
        // serialization, constituent n's *slot* follows constituent n-1's
        // by the latter's execution latency — the ALU-pipeline flow, using
        // the optimistic (hit) latency the slot occupies. Data dependences
        // additionally wait for actual values (a missing load delays its
        // dependents, not independent followers, just as in a singleton
        // execution). The `internal_serialization: false` ablation drops
        // the slot chaining entirely (pure dataflow order).
        let serial = self.cfg.mg.internal_serialization;
        let l1_hit = self.cfg.dl1.hit_lat;
        let out_pos = info.output_pos();
        self.handle_finish.clear(); // scratch: per-constituent data-ready times
        let mut out_ready = NEVER;
        let mut store_event: Option<(u64, u64)> = None; // (exec cycle, addr)
        let mut resolve: Option<u64> = None;
        let mut slot_cursor = now;
        for p in 0..info.len {
            let pos = info.start + p;
            let inst = &self.program.block(info.block).insts[pos];
            let mut start = if serial { slot_cursor } else { now };
            for link in info.src_links[p] {
                if let Some(crate::mgi::SrcLink::Internal(d)) = link {
                    start = start.max(self.handle_finish[d]);
                }
            }
            let data_lat = match inst.op {
                Opcode::Load => {
                    let addr = self.ops[oi as usize].mem_addr;
                    let l = if let Some(si) = self.forwarding_store(oi, addr) {
                        let st = &mut self.ops[si as usize];
                        st.min_margin = st.min_margin.min(start.saturating_sub(st.done_at));
                        2
                    } else {
                        self.mem.data_latency(addr)
                    };
                    #[cfg(feature = "obs")]
                    if l > l1_hit {
                        let avail = start + 1 + l as u64;
                        if let Some(obs) = self.obs.as_mut() {
                            obs.note_load_miss(avail);
                        }
                    }
                    1 + l as u64
                }
                Opcode::Store => {
                    store_event = Some((start, self.ops[oi as usize].mem_addr));
                    1
                }
                op => op.latency() as u64,
            };
            let slot_lat = inst.op.optimistic_latency(l1_hit) as u64;
            slot_cursor = start + slot_lat;
            let end = start + data_lat;
            self.handle_finish.push(end);
            if out_pos == Some(p) {
                out_ready = end;
            }
            if inst.op.is_control() {
                resolve = Some(end + self.cfg.sched_to_exec as u64);
            }
        }
        let cur = *self
            .handle_finish
            .iter()
            .max()
            .expect("instances are non-empty");
        // A handle occupying more than one execution cycle is running its
        // constituents serially: that window is serialization latency.
        #[cfg(feature = "obs")]
        if cur > now + 1 {
            if let Some(obs) = self.obs.as_mut() {
                obs.note_handle_exec(cur);
            }
        }
        {
            let op = &mut self.ops[oi as usize];
            op.done_at = cur;
            op.ready_at = if out_ready == NEVER { cur } else { out_ready };
            if let Some(r) = resolve {
                op.resolve_at = r;
                if op.mispredicted {
                    op.min_margin = 0;
                    self.fetch_resume = r + 1;
                }
            }
        }
        if let Some((_, addr)) = store_event {
            if let Some(li) = self.violating_load(oi, addr) {
                self.flush_from_violation(oi, li);
            }
        }
    }

    // ------------------------------------------------------------------
    // Violation squash + replay
    // ------------------------------------------------------------------

    fn flush_from_violation(&mut self, store_oi: u32, load_oi: u32) {
        self.stats.violation_flushes += 1;
        let load = &self.ops[load_oi as usize];
        let store = &self.ops[store_oi as usize];
        self.storesets.train_violation(load.pc, store.pc);
        // Round the squash point down to the load's outline-group leader
        // so refetch reconstructs whole groups.
        let from = load.group_leader.unwrap_or(load_oi).min(load_oi);
        self.squash_from(from);
        self.fetch_resume = self.cycle + 2; // detect + redirect
        #[cfg(feature = "obs")]
        {
            self.obs_redirect = mg_obs::RedirectKind::Other;
        }
    }

    fn squash_from(&mut self, from: u32) {
        // Fetch restarts at the squashed op's first trace entry. Synthetic
        // jumps carry the trace position they were fetched at.
        self.fetch_ptr = self.ops[from as usize].trace_lo as usize;
        self.outline = None;
        self.fetchq.retain(|&oi| oi < from);
        self.rob.retain(|&oi| oi < from);
        self.lq.retain(|&oi| oi < from);
        self.sq.retain(|&oi| oi < from);
        // The ready list and wakeup heap are filtered lazily: entries for
        // squashed ops are dropped on their next touch. (A flush can fire
        // mid-issue-pass, so the ready list must not be edited here.)
        for oi in (from as usize)..self.ops.len() {
            {
                let op = &mut self.ops[oi];
                if op.squashed || op.committed {
                    continue;
                }
                op.squashed = true;
                if op.dispatched_at.is_some() {
                    if op.dest.is_some() {
                        self.free_regs += 1;
                    }
                    if op.needs_iq && op.issued_at.is_none() {
                        self.iq_free += 1;
                    }
                    if op.is_load {
                        self.lq_free += 1;
                    }
                    if op.is_store {
                        self.sq_free += 1;
                    }
                }
            }
            #[cfg(feature = "obs")]
            if self.obs.is_some() {
                let t = self.obs_trace_of(oi as u32, None, Some(self.cycle));
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_op(t);
                }
            }
        }
        // Rebuild the rename table from surviving in-flight writers,
        // walking the ROB in place (oldest to youngest, so the youngest
        // writer of each register wins, as during dispatch).
        self.rename = [None; mg_isa::reg::NUM_ARCH_REGS];
        for &oi in &self.rob {
            if let Some(d) = self.ops[oi as usize].dest {
                self.rename[d.index()] = Some(oi);
            }
        }
        self.last_fetch_line = u64::MAX;
    }

    // ------------------------------------------------------------------
    // Dispatch (rename)
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.rename_width {
            let Some(&oi) = self.fetchq.front() else {
                break;
            };
            if self.ops[oi as usize].avail_at > self.cycle {
                break;
            }
            let op = &self.ops[oi as usize];
            // Resource checks. Each taken break reports the structural
            // cause that stopped in-order dispatch to the collector.
            if self.rob.len() >= self.cfg.rob_entries as usize {
                #[cfg(feature = "obs")]
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Rob);
                }
                break;
            }
            if op.needs_iq && self.iq_free == 0 {
                #[cfg(feature = "obs")]
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Iq);
                }
                break;
            }
            if op.dest.is_some() && self.free_regs == 0 {
                #[cfg(feature = "obs")]
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Regs);
                }
                break;
            }
            if op.is_load && self.lq_free == 0 {
                #[cfg(feature = "obs")]
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Lq);
                }
                break;
            }
            if op.is_store && self.sq_free == 0 {
                #[cfg(feature = "obs")]
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Sq);
                }
                break;
            }
            self.fetchq.pop_front();
            // Resolve source producers through the rename table. At most
            // three sources exist (two singleton operands, or up to three
            // external inputs per the RISC-singleton interface bound).
            let kind = self.ops[oi as usize].kind;
            let mut src_regs = [None::<Reg>; 3];
            let mut n_srcs = 0usize;
            match kind {
                OpKind::Singleton(id) => {
                    let inst = self.program.inst(id);
                    for r in [inst.src1, inst.src2].into_iter().flatten() {
                        if !r.is_zero() {
                            src_regs[n_srcs] = Some(r);
                            n_srcs += 1;
                        }
                    }
                }
                OpKind::Handle(idx) => {
                    for &(r, _) in &self.imap.instances[idx as usize].ext_inputs {
                        src_regs[n_srcs] = Some(r);
                        n_srcs += 1;
                    }
                }
                _ => {}
            }
            let mut renames = [None::<u32>; 3];
            for s in 0..n_srcs {
                renames[s] = self.rename[src_regs[s].expect("filled above").index()];
            }
            {
                let op = &mut self.ops[oi as usize];
                for (s, &producer) in renames.iter().enumerate().take(n_srcs) {
                    op.srcs[s] = Some(SrcDep { producer });
                }
                op.dispatched_at = Some(self.cycle);
            }
            // Allocate.
            let op = &self.ops[oi as usize];
            if op.needs_iq {
                self.iq_free -= 1;
                self.schedule_for_issue(oi);
            } else {
                // Control-only ops complete immediately.
                let sched = self.cfg.sched_to_exec as u64;
                let op = &mut self.ops[oi as usize];
                op.issued_at = Some(self.cycle);
                op.ready_at = self.cycle + 1;
                op.done_at = self.cycle + 1;
                if op.mispredicted {
                    // A mispredicted bypass transfer (e.g. a RAS miss on a
                    // return) resolves after register read.
                    op.resolve_at = self.cycle + sched + 1;
                    self.fetch_resume = op.resolve_at + 1;
                }
            }
            let op = &self.ops[oi as usize];
            if op.is_load {
                self.lq_free -= 1;
                self.lq.push_back(oi);
            }
            if op.is_store {
                self.sq_free -= 1;
                self.sq.push_back(oi);
            }
            if let Some(d) = op.dest {
                self.free_regs -= 1;
                self.rename[d.index()] = Some(oi);
            }
            self.rob.push_back(oi);
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn peek_unit(&self) -> Option<(FetchUnit, u64)> {
        if let Some(out) = self.outline {
            let info = &self.imap.instances[out.inst_idx as usize];
            if out.next_pos < info.len {
                let id = self.program.id_of(info.block, info.start + out.next_pos);
                let pc = if out.penalized {
                    self.program.pc_of(id)
                } else {
                    // Idealized inline execution: consecutive main-line
                    // addresses from the handle slot.
                    let head = self.program.id_of(info.block, info.start);
                    self.program.pc_of(head) + mg_isa::program::INST_BYTES * out.next_pos as u64
                };
                return Some((FetchUnit::OutConstituent(out.inst_idx, out.next_pos), pc));
            }
            debug_assert!(
                out.penalized,
                "free-mode outlines end at the last constituent"
            );
            let last_id = self.program.id_of(info.block, info.start + info.len - 1);
            return Some((
                FetchUnit::OutRetJump(out.inst_idx),
                self.program.pc_of(last_id) + mg_isa::program::INST_BYTES,
            ));
        }
        if self.fetch_ptr >= self.trace.len() {
            return None;
        }
        let entry = self.trace.insts[self.fetch_ptr];
        let inst = self.program.inst(entry.id);
        if let Some(tag) = inst.mg {
            debug_assert_eq!(tag.pos, 0, "fetch must land on instance heads");
            let idx = self
                .imap
                .index_of_handle(entry.id)
                .expect("tagged head has instance info");
            let enabled = self.cfg.mg.enabled
                && self
                    .dynctl
                    .as_ref()
                    .map(|ctl| ctl.enabled(tag.template))
                    .unwrap_or(true);
            let pc = self.program.pc_of(entry.id);
            if enabled {
                Some((FetchUnit::Handle(idx), pc))
            } else if self
                .dynctl
                .as_ref()
                .map(|c| c.config().cost == crate::dynmg::DisableCost::Outlined)
                .unwrap_or(true)
            {
                Some((FetchUnit::OutJumpStart(idx), pc))
            } else {
                // Idealized disable: constituents execute inline as
                // singletons, no jumps.
                Some((FetchUnit::OutConstituent(idx, 0), pc))
            }
        } else {
            Some((FetchUnit::Singleton, self.program.pc_of(entry.id)))
        }
    }

    fn fetch(&mut self) {
        if self.cycle < self.fetch_resume {
            return;
        }
        let mut slots = self.cfg.fetch_width;
        let line_bytes = self.cfg.il1.line_bytes as u64;
        let mut cycle_line: Option<u64> = None;

        while slots > 0 && self.fetchq.len() < self.fetchq_cap {
            let Some((unit, pc)) = self.peek_unit() else {
                break;
            };
            let line = pc / line_bytes;
            match cycle_line {
                Some(l) if l != line => break, // one line per cycle
                Some(_) => {}
                None => {
                    if line != self.last_fetch_line {
                        let lat = self.mem.fetch_latency(pc);
                        self.last_fetch_line = line;
                        if lat > self.cfg.il1.hit_lat {
                            // Miss: stall fetch; the op is fetched after
                            // the fill (the line now hits).
                            self.fetch_resume = self.cycle + (lat - self.cfg.il1.hit_lat) as u64;
                            #[cfg(feature = "obs")]
                            {
                                self.obs_redirect = mg_obs::RedirectKind::Icache;
                            }
                            return;
                        }
                    }
                    cycle_line = Some(line);
                }
            }
            let broke = self.fetch_one(unit, pc);
            slots -= 1;
            if broke {
                break;
            }
        }
    }

    /// Materializes one fetch unit. Returns `true` if fetch must break
    /// (taken control transfer or redirect stall).
    fn fetch_one(&mut self, unit: FetchUnit, pc: u64) -> bool {
        let avail = self.cycle + self.cfg.front_depth as u64;
        let oi = self.ops.len() as u32;
        match unit {
            FetchUnit::Singleton => {
                let entry = self.trace.insts[self.fetch_ptr];
                self.fetch_ptr += 1;
                let mut op = Op::new(OpKind::Singleton(entry.id), pc, avail);
                op.trace_lo = (self.fetch_ptr - 1) as u32;
                op.trace_len = 1;
                self.init_singleton_op(&mut op, entry.id, entry.addr);
                let inst = self.program.inst(entry.id);
                let ctrl = inst.op.is_control();
                self.ops.push(op);
                self.fetchq.push_back(oi);
                if ctrl {
                    self.handle_control_fetch(oi, pc, inst.op, entry.taken)
                } else {
                    false
                }
            }
            FetchUnit::OutConstituent(inst_idx, next_pos) => {
                let entry = self.trace.insts[self.fetch_ptr];
                self.fetch_ptr += 1;
                // A free-mode (no-penalty) group starts directly at its
                // first constituent; it is its own flush leader.
                let (leader, penalized) = match self.outline {
                    Some(out) => (out.leader, out.penalized),
                    None => (oi, false),
                };
                let mut op = Op::new(OpKind::Singleton(entry.id), pc, avail);
                op.trace_lo = (self.fetch_ptr - 1) as u32;
                op.trace_len = 1;
                op.group_leader = Some(leader);
                self.init_singleton_op(&mut op, entry.id, entry.addr);
                let inst = self.program.inst(entry.id);
                let ctrl = inst.op.is_control();
                self.ops.push(op);
                self.fetchq.push_back(oi);
                let len = self.imap.instances[inst_idx as usize].len;
                if !penalized && next_pos + 1 == len {
                    self.outline = None; // free-mode group ends inline
                } else {
                    self.outline = Some(OutlineProgress {
                        inst_idx,
                        leader,
                        next_pos: next_pos + 1,
                        penalized,
                    });
                }
                if ctrl {
                    self.handle_control_fetch(oi, pc, inst.op, entry.taken)
                } else {
                    false
                }
            }
            FetchUnit::Handle(idx) => {
                // Read in place: the loop below only advances `fetch_ptr`,
                // which is disjoint from the instance metadata.
                let info = &self.imap.instances[idx as usize];
                let lo = self.fetch_ptr;
                // Consume the constituents' trace entries.
                let mut mem_addr = 0;
                let mut br_taken = false;
                for p in 0..info.len {
                    let entry = self.trace.insts[self.fetch_ptr];
                    debug_assert_eq!(
                        entry.id,
                        self.program.id_of(info.block, info.start + p),
                        "trace must walk instance constituents contiguously"
                    );
                    if self.program.inst(entry.id).op.is_mem() {
                        mem_addr = entry.addr;
                    }
                    if self.program.inst(entry.id).op.is_control() {
                        br_taken = entry.taken;
                    }
                    self.fetch_ptr += 1;
                }
                let mut op = Op::new(OpKind::Handle(idx), pc, avail);
                op.trace_lo = lo as u32;
                op.trace_len = info.len as u8;
                op.needs_iq = true;
                op.dest = info.output.map(|(r, _)| r);
                op.mem_addr = mem_addr;
                if let Some((_, is_load)) = info.mem {
                    op.is_load = is_load;
                    op.is_store = !is_load;
                }
                let ctrl_op = info
                    .control
                    .map(|p| self.program.block(info.block).insts[info.start + p].op);
                self.ops.push(op);
                self.fetchq.push_back(oi);
                if let Some(cop) = ctrl_op {
                    self.handle_control_fetch(oi, pc, cop, br_taken)
                } else {
                    false
                }
            }
            FetchUnit::OutJumpStart(idx) => {
                // Count the encounter toward resurrection (affects later
                // instances of the template, not this one).
                let template = self.imap.instances[idx as usize].template;
                if let Some(ctl) = &mut self.dynctl {
                    ctl.note_disabled_encounter(template);
                }
                let mut op = Op::new(OpKind::OutJump(idx), pc, avail);
                op.trace_lo = self.fetch_ptr as u32;
                op.group_leader = Some(oi);
                self.ops.push(op);
                self.fetchq.push_back(oi);
                self.outline = Some(OutlineProgress {
                    inst_idx: idx,
                    leader: oi,
                    next_pos: 0,
                    penalized: true,
                });
                // An outlining jump is an always-taken direct jump.
                self.handle_control_fetch(oi, pc, Opcode::Jmp, true)
            }
            FetchUnit::OutRetJump(idx) => {
                let leader = self.outline.expect("outline in progress").leader;
                let mut op = Op::new(OpKind::RetJump(idx), pc, avail);
                op.trace_lo = self.fetch_ptr as u32;
                op.group_leader = Some(leader);
                self.ops.push(op);
                self.fetchq.push_back(oi);
                self.outline = None;
                self.handle_control_fetch(oi, pc, Opcode::Jmp, true)
            }
        }
    }

    fn init_singleton_op(&self, op: &mut Op, id: StaticId, addr: u64) {
        let inst = self.program.inst(id);
        op.dest = inst.def();
        op.exec_class = inst.op.exec_class();
        op.is_load = inst.op.is_load();
        op.is_store = inst.op.is_store();
        op.mem_addr = addr;
        op.needs_iq = !matches!(
            inst.op,
            Opcode::Jmp | Opcode::Call | Opcode::Ret | Opcode::Halt | Opcode::Nop
        );
    }

    /// Branch-prediction bookkeeping for a just-fetched control transfer.
    /// Returns `true` if fetch must break this cycle.
    fn handle_control_fetch(&mut self, oi: u32, pc: u64, op: Opcode, taken: bool) -> bool {
        // Actual target: the next unit's pc (committed path).
        let actual_target = self.peek_target_pc();
        match op {
            Opcode::Br(_) => {
                let pred = self.dirpred.predict_and_train(pc, taken);
                if pred != taken {
                    self.ops[oi as usize].mispredicted = true;
                    self.fetch_resume = NEVER; // released at resolve
                    #[cfg(feature = "obs")]
                    {
                        self.obs_redirect = mg_obs::RedirectKind::Mispredict;
                    }
                    return true;
                }
                if taken {
                    return self.taken_target_check(pc, actual_target);
                }
                false
            }
            Opcode::Jmp => self.taken_target_check(pc, actual_target),
            Opcode::Call => {
                self.ras.push(pc + mg_isa::program::INST_BYTES);
                self.taken_target_check(pc, actual_target)
            }
            Opcode::Ret => {
                let pred = self.ras.pop();
                if pred != actual_target && actual_target.is_some() {
                    self.dirpred.note_ras_mispredict();
                    self.ops[oi as usize].mispredicted = true;
                    self.fetch_resume = NEVER;
                    #[cfg(feature = "obs")]
                    {
                        self.obs_redirect = mg_obs::RedirectKind::Mispredict;
                    }
                    return true;
                }
                true // taken transfer always breaks fetch
            }
            Opcode::Halt => true,
            _ => false,
        }
    }

    /// BTB check for a taken direct transfer: a miss costs one fetch
    /// bubble; either way taken transfers end the fetch cycle.
    fn taken_target_check(&mut self, pc: u64, actual_target: Option<u64>) -> bool {
        let Some(target) = actual_target else {
            return true;
        };
        match self.btb.lookup(pc) {
            Some(t) if t == target => {}
            _ => {
                self.dirpred.note_btb_miss();
                self.btb.update(pc, target);
                self.fetch_resume = self.cycle + 2; // one-bubble redirect
                #[cfg(feature = "obs")]
                {
                    self.obs_redirect = mg_obs::RedirectKind::Other;
                }
            }
        }
        true
    }

    fn peek_target_pc(&self) -> Option<u64> {
        self.peek_unit().map(|(_, pc)| pc)
    }

    // ------------------------------------------------------------------
    // Slack profile construction
    // ------------------------------------------------------------------

    fn build_profile(&self) -> SlackProfile {
        let mut accums = vec![ProfileAccum::default(); self.program.static_count()];
        let mut base: i64 = 0;
        for op in &self.ops {
            if op.squashed || !op.committed {
                continue;
            }
            let OpKind::Singleton(id) = op.kind else {
                continue; // profiles are collected on singleton runs
            };
            let loc = self.program.loc_of(id);
            let issued = op.issued_at.or(op.dispatched_at).unwrap_or(0) as i64;
            if loc.idx == 0 {
                base = issued;
            }
            let out_ready = if op.ready_at == NEVER {
                op.done_at.min(op.ready_at)
            } else {
                op.ready_at
            } as i64;
            let margin = if op.min_margin == NEVER {
                slack::SLACK_CAP
            } else {
                op.min_margin
            };
            accums[id.index()].add(
                issued - base,
                [
                    op.src_ready[0].map(|r| r as i64 - base),
                    op.src_ready[1].map(|r| r as i64 - base),
                ],
                out_ready - base,
                margin,
                op.mispredicted,
                (out_ready as u64).saturating_sub(issued as u64),
            );
        }
        slack::finish_profile(self.program, &accums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MgConfig;
    use mg_isa::{BrCond, Instruction, MgTag, ProgramBuilder};
    use mg_workloads::Executor;

    fn run_on(program: &Program, cfg: &MachineConfig) -> SimResult {
        let (trace, _) = Executor::new(program).run().unwrap();
        let r = simulate(program, &trace, cfg, SimOptions::default());
        assert!(!r.hit_cycle_cap, "cycle cap hit");
        r
    }

    fn tag(instance: u32, template: u16, pos: u8, len: u8) -> MgTag {
        MgTag {
            instance,
            template,
            pos,
            len,
        }
    }

    /// A loop whose body is `n` independent addi chains, iterated `iters`
    /// times. High ILP.
    fn independent_loop(n: usize, iters: i64) -> Program {
        let mut pb = ProgramBuilder::new("ilp");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, iters));
        pb.set_fallthrough(head, body);
        for i in 0..n {
            let r = Reg::new((2 + i) as u8);
            pb.push(body, Instruction::addi(r, r, 1));
        }
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        pb.build().unwrap()
    }

    /// A loop whose body is a serial dependence chain.
    fn chain_loop(n: usize, iters: i64) -> Program {
        let mut pb = ProgramBuilder::new("chain");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, iters));
        pb.set_fallthrough(head, body);
        for _ in 0..n {
            pb.push(body, Instruction::addi(Reg::R2, Reg::R2, 1));
        }
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        pb.build().unwrap()
    }

    #[test]
    fn independent_work_approaches_issue_width() {
        let p = independent_loop(10, 400);
        let r = run_on(&p, &MachineConfig::baseline());
        // 12 instructions per iteration; 4-wide machine with 4 simple
        // ALUs should sustain IPC well above 2.5.
        assert!(r.ipc() > 2.5, "ipc {}", r.ipc());
    }

    #[test]
    fn dependence_chain_limits_ipc_to_one_ish() {
        let p = chain_loop(12, 400);
        let r = run_on(&p, &MachineConfig::baseline());
        assert!(r.ipc() < 1.35, "ipc {}", r.ipc());
        assert!(r.ipc() > 0.8, "ipc {}", r.ipc());
    }

    #[test]
    fn narrower_machine_is_slower_on_parallel_work() {
        let p = independent_loop(10, 400);
        let wide = run_on(&p, &MachineConfig::baseline());
        let narrow = run_on(&p, &MachineConfig::reduced());
        assert!(narrow.stats.cycles > wide.stats.cycles);
        // But a serial chain is insensitive to width.
        let c = chain_loop(12, 400);
        let cw = run_on(&c, &MachineConfig::baseline());
        let cn = run_on(&c, &MachineConfig::reduced());
        let ratio = cn.stats.cycles as f64 / cw.stats.cycles as f64;
        assert!(ratio < 1.1, "serial code slowed {ratio} by narrowing");
    }

    #[test]
    fn commit_counts_match_trace() {
        let p = independent_loop(4, 100);
        let (trace, _) = Executor::new(&p).run().unwrap();
        let r = simulate(
            &p,
            &trace,
            &MachineConfig::baseline(),
            SimOptions::default(),
        );
        assert_eq!(r.stats.committed_instrs, trace.len() as u64);
    }

    #[test]
    fn mispredictable_branches_cost_cycles() {
        // Loop with a data-dependent (LCG-driven) branch inside.
        let build = |with_branch: bool| {
            let mut pb = ProgramBuilder::new("br");
            let f = pb.func("main");
            let head = pb.block(f);
            let body = pb.block(f);
            let taken = pb.block(f);
            let join = pb.block(f);
            let exit = pb.block(f);
            pb.push(head, Instruction::li(Reg::R1, 600));
            pb.push(head, Instruction::li(Reg::R2, 12345));
            pb.push(head, Instruction::li(Reg::R3, 6364136223846793005));
            pb.set_fallthrough(head, body);
            pb.push(body, Instruction::mul(Reg::R2, Reg::R2, Reg::R3));
            pb.push(body, Instruction::addi(Reg::R2, Reg::R2, 7));
            pb.push(
                body,
                Instruction::alu_ri(Opcode::ShrI, Reg::R4, Reg::R2, 62),
            );
            if with_branch {
                pb.push(body, Instruction::br(BrCond::Eq, Reg::R4, Reg::ZERO, join));
            } else {
                pb.push(body, Instruction::add(Reg::R5, Reg::R4, Reg::ZERO));
            }
            pb.set_fallthrough(body, taken);
            pb.push(taken, Instruction::addi(Reg::R6, Reg::R6, 1));
            pb.set_fallthrough(taken, join);
            pb.push(join, Instruction::addi(Reg::R1, Reg::R1, -1));
            pb.push(join, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
            pb.set_fallthrough(join, exit);
            pb.push(exit, Instruction::halt());
            pb.build().unwrap()
        };
        let with_br = run_on(&build(true), &MachineConfig::baseline());
        assert!(
            with_br.stats.bpred.dir_mispredicts > 100,
            "LCG branch should mispredict, got {}",
            with_br.stats.bpred.dir_mispredicts
        );
        // Mispredicts must cost real time: IPC clearly below the
        // branch-free variant.
        let without = run_on(&build(false), &MachineConfig::baseline());
        assert!(with_br.stats.cycles as f64 > 1.2 * without.stats.cycles as f64);
    }

    /// Program with a 3-instruction dependent chain per iteration, both
    /// plain and tagged as a mini-graph.
    fn mg_chain_program(tagged: bool) -> Program {
        let mut pb = ProgramBuilder::new("mgchain");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 500));
        pb.set_fallthrough(head, body);
        let mk = |i: Instruction, pos: u8| {
            if tagged {
                i.with_mg(tag(0, 0, pos, 3))
            } else {
                i
            }
        };
        pb.push(body, mk(Instruction::addi(Reg::R2, Reg::R1, 3), 0));
        pb.push(
            body,
            mk(Instruction::alu_ri(Opcode::XorI, Reg::R3, Reg::R2, 255), 1),
        );
        pb.push(body, mk(Instruction::shli(Reg::R4, Reg::R3, 2), 2));
        pb.push(body, Instruction::add(Reg::R5, Reg::R5, Reg::R4));
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        pb.build().unwrap()
    }

    #[test]
    fn handles_amplify_a_narrow_machine() {
        let plain = mg_chain_program(false);
        let tagged = mg_chain_program(true);
        // Functional behaviour must be identical.
        let (tp, sp) = Executor::new(&plain).run().unwrap();
        let (tt, st) = Executor::new(&tagged).run().unwrap();
        assert_eq!(tp.len(), tt.len());
        assert_eq!(sp.read(Reg::R5), st.read(Reg::R5));

        // On a very narrow machine, embedding half the loop body in a
        // handle relieves fetch/issue/commit bandwidth.
        let cfg = MachineConfig::two_way().with_mg(MgConfig::paper());
        let rp = simulate(&plain, &tp, &cfg, SimOptions::default());
        let rt = simulate(&tagged, &tt, &cfg, SimOptions::default());
        assert!(!rt.hit_cycle_cap);
        assert!(
            rt.stats.mg_handles >= 499,
            "handles committed: {}",
            rt.stats.mg_handles
        );
        assert!(
            rt.stats.coverage() > 0.45,
            "coverage {}",
            rt.stats.coverage()
        );
        assert!(
            rt.stats.cycles < rp.stats.cycles,
            "mini-graphs should help: {} vs {}",
            rt.stats.cycles,
            rp.stats.cycles
        );
    }

    #[test]
    fn disabled_mg_support_runs_outlined_and_slower() {
        let tagged = mg_chain_program(true);
        let (tt, _) = Executor::new(&tagged).run().unwrap();
        let on = simulate(
            &tagged,
            &tt,
            &MachineConfig::baseline().with_mg(MgConfig::paper()),
            SimOptions::default(),
        );
        let off = simulate(
            &tagged,
            &tt,
            &MachineConfig::baseline(), // mg disabled: outlined compatibility mode
            SimOptions::default(),
        );
        assert_eq!(off.stats.mg_handles, 0);
        assert!(off.stats.outline_jumps >= 2 * 499);
        assert!(off.stats.outlined_instrs >= 3 * 499);
        assert!(off.stats.cycles > on.stats.cycles);
        // Both commit the same instruction count.
        assert_eq!(off.stats.committed_instrs, on.stats.committed_instrs);
    }

    /// Mini-graph with a serializing input: the second constituent reads a
    /// late-arriving external value (produced by a long-latency chain).
    #[test]
    fn serializing_handle_is_detected() {
        let mut pb = ProgramBuilder::new("ser");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 300));
        pb.push(head, Instruction::li(Reg::R7, 99));
        pb.set_fallthrough(head, body);
        // Late value: 3-deep mul chain feeding r6.
        pb.push(body, Instruction::mul(Reg::R6, Reg::R7, Reg::R7));
        pb.push(body, Instruction::mul(Reg::R6, Reg::R6, Reg::R7));
        // Mini-graph: pos0 consumes early value r1; pos1 consumes late r6
        // (serializing, disconnected); output of pos0 is consumed below.
        pb.push(
            body,
            Instruction::addi(Reg::R2, Reg::R1, 1).with_mg(tag(0, 0, 0, 2)),
        );
        pb.push(
            body,
            Instruction::addi(Reg::R3, Reg::R6, 1).with_mg(tag(0, 0, 1, 2)),
        );
        // Consumer of the mini-graph output r2 (r3 is dead: interior).
        pb.push(body, Instruction::add(Reg::R5, Reg::R5, Reg::R2));
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        let p = pb.build().unwrap();
        let (t, _) = Executor::new(&p).run().unwrap();
        let r = simulate(
            &p,
            &t,
            &MachineConfig::baseline().with_mg(MgConfig::paper()),
            SimOptions::default(),
        );
        assert!(
            r.stats.serialized_handles > 200,
            "serialized handles: {}",
            r.stats.serialized_handles
        );
        assert!(
            r.stats.harmful_serializations > 100,
            "harmful: {}",
            r.stats.harmful_serializations
        );
    }

    #[test]
    fn slack_dynamic_disables_harmful_templates() {
        // Same serializing program as above.
        let mut pb = ProgramBuilder::new("sd");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 300));
        pb.push(head, Instruction::li(Reg::R7, 99));
        pb.set_fallthrough(head, body);
        pb.push(body, Instruction::mul(Reg::R6, Reg::R7, Reg::R7));
        pb.push(body, Instruction::mul(Reg::R6, Reg::R6, Reg::R7));
        pb.push(
            body,
            Instruction::addi(Reg::R2, Reg::R1, 1).with_mg(tag(0, 0, 0, 2)),
        );
        pb.push(
            body,
            Instruction::addi(Reg::R3, Reg::R6, 1).with_mg(tag(0, 0, 1, 2)),
        );
        pb.push(body, Instruction::add(Reg::R5, Reg::R5, Reg::R2));
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        let p = pb.build().unwrap();
        let (t, _) = Executor::new(&p).run().unwrap();
        let opts = SimOptions {
            dyn_mg: Some(DynMgConfig::slack_dynamic()),
            ..SimOptions::default()
        };
        let r = simulate(
            &p,
            &t,
            &MachineConfig::baseline().with_mg(MgConfig::paper()),
            opts,
        );
        assert!(
            r.stats.disabled_templates >= 1,
            "template should be disabled, stats: {:?}",
            r.stats
        );
        assert!(r.stats.outline_jumps > 0, "disabled instances run outlined");
    }

    #[test]
    fn slack_profile_reports_plausible_values() {
        let p = chain_loop(6, 200);
        let (t, _) = Executor::new(&p).run().unwrap();
        let opts = SimOptions {
            profile_slack: true,
            ..SimOptions::default()
        };
        let r = simulate(&p, &t, &MachineConfig::baseline(), opts);
        let prof = r.slack.expect("profiling requested");
        // Chain instructions: each value consumed immediately -> slack 0.
        let body_first = StaticId(1);
        assert!(prof.executed(body_first));
        let rec = prof.get(body_first);
        assert!(rec.local_slack < 2.0, "chain slack {}", rec.local_slack);
        // Issue times grow along the chain.
        let later = prof.get(StaticId(4));
        assert!(later.issue_rel > rec.issue_rel);
    }

    #[test]
    fn store_load_forwarding_and_violations() {
        // store to addr; dependent load soon after, repeatedly.
        let mut pb = ProgramBuilder::new("fwd");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 400));
        pb.push(head, Instruction::li(Reg::R2, 0x8000));
        pb.set_fallthrough(head, body);
        // Slow-ish value so the store's data arrives late.
        pb.push(body, Instruction::mul(Reg::R3, Reg::R1, Reg::R1));
        pb.push(body, Instruction::store(Reg::R2, Reg::R3, 0));
        pb.push(body, Instruction::load(Reg::R4, Reg::R2, 0));
        pb.push(body, Instruction::add(Reg::R5, Reg::R5, Reg::R4));
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        let p = pb.build().unwrap();
        let (t, _) = Executor::new(&p).run().unwrap();
        let r = simulate(&p, &t, &MachineConfig::baseline(), SimOptions::default());
        assert!(!r.hit_cycle_cap);
        // Early iterations violate (load speculates past the store);
        // StoreSets then learns the dependence and violations stop.
        assert!(r.stats.violation_flushes >= 1);
        assert!(
            r.stats.violation_flushes < 50,
            "storesets never learned: {} flushes",
            r.stats.violation_flushes
        );
        assert_eq!(r.stats.committed_instrs, t.len() as u64);
    }

    #[test]
    fn forwarding_survives_squash_with_tiny_iq() {
        // Same store->load violation pattern as above, but with a
        // 4-entry IQ so the violation squash fires while the issue
        // queue is saturated and the squashed suffix sits mid-ROB.
        // Regression for squash_from's in-place rename rebuild and the
        // lazy filtering of the ready list / wakeup heap.
        let mut pb = ProgramBuilder::new("fwd-tiny");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 400));
        pb.push(head, Instruction::li(Reg::R2, 0x8000));
        pb.set_fallthrough(head, body);
        pb.push(body, Instruction::mul(Reg::R3, Reg::R1, Reg::R1));
        pb.push(body, Instruction::store(Reg::R2, Reg::R3, 0));
        pb.push(body, Instruction::load(Reg::R4, Reg::R2, 0));
        pb.push(body, Instruction::add(Reg::R5, Reg::R5, Reg::R4));
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        let p = pb.build().unwrap();
        let (t, _) = Executor::new(&p).run().unwrap();
        let mut cfg = MachineConfig::baseline();
        cfg.iq_entries = 4;
        let a = simulate(&p, &t, &cfg, SimOptions::default());
        assert!(!a.hit_cycle_cap);
        assert!(a.stats.violation_flushes >= 1);
        assert_eq!(a.stats.committed_instrs, t.len() as u64);
        // Once StoreSets learns the dependence, the per-iteration load
        // forwards from the SQ instead of re-reading the D-cache, so
        // accesses stay well below one per iteration (400 loads total).
        assert!(
            a.stats.dl1.accesses < 200,
            "forwarding broke after squash: {} dl1 accesses",
            a.stats.dl1.accesses
        );
        // Squashing under a full IQ must stay deterministic.
        let b = simulate(&p, &t, &cfg, SimOptions::default());
        assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    }

    #[test]
    fn scheduler_drains_iq_when_nothing_is_ready() {
        // A serial mul chain (3-cycle latency) feeding a mini-graph
        // handle: most cycles have a non-empty IQ but an *empty* ready
        // list, with dispatched ops parked in waiter chains or the
        // wakeup heap. Completion proves wakeups fire; the cycle lower
        // bound proves the ops really waited rather than issuing early.
        let mut pb = ProgramBuilder::new("mulchain");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 200));
        pb.push(head, Instruction::li(Reg::R7, 1));
        pb.push(head, Instruction::li(Reg::R2, 3));
        pb.set_fallthrough(head, body);
        for _ in 0..4 {
            pb.push(body, Instruction::mul(Reg::R2, Reg::R2, Reg::R7));
        }
        // Handle consuming the chain value: issues only when the last
        // mul completes, i.e. from a previously-empty ready list.
        pb.push(
            body,
            Instruction::addi(Reg::R3, Reg::R2, 3).with_mg(tag(0, 0, 0, 3)),
        );
        pb.push(
            body,
            Instruction::alu_ri(Opcode::XorI, Reg::R4, Reg::R3, 255).with_mg(tag(0, 0, 1, 3)),
        );
        pb.push(
            body,
            Instruction::shli(Reg::R5, Reg::R4, 2).with_mg(tag(0, 0, 2, 3)),
        );
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        let p = pb.build().unwrap();
        let (t, _) = Executor::new(&p).run().unwrap();
        let cfg = MachineConfig::baseline().with_mg(MgConfig::paper());
        let r = simulate(&p, &t, &cfg, SimOptions::default());
        assert!(!r.hit_cycle_cap, "scheduler deadlocked");
        assert_eq!(r.stats.committed_instrs, t.len() as u64);
        assert!(r.stats.mg_handles >= 199, "handles: {}", r.stats.mg_handles);
        // 800 serially dependent muls at 3 cycles each bound the run
        // from below; hitting completion near that bound means every
        // waiter woke exactly when its producer finished.
        assert!(r.stats.cycles > 2300, "cycles {}", r.stats.cycles);
    }

    #[test]
    fn cycle_cap_halts_simulation_cleanly() {
        let p = chain_loop(12, 400);
        let (t, _) = Executor::new(&p).run().unwrap();
        let opts = SimOptions {
            max_cycles: 50,
            ..SimOptions::default()
        };
        let r = simulate(&p, &t, &MachineConfig::baseline(), opts);
        assert!(r.hit_cycle_cap);
        assert_eq!(r.stats.cycles, 50);
        assert!(r.stats.committed_instrs < t.len() as u64);
    }
}

#[cfg(test)]
mod ideal_disable_tests {
    use super::*;
    use crate::config::MgConfig;
    use crate::dynmg::DynMgConfig;
    use mg_isa::{BrCond, Instruction, MgTag, ProgramBuilder};
    use mg_workloads::Executor;

    /// A program whose single template serializes harmfully every
    /// iteration, so any Slack-Dynamic policy disables it quickly.
    fn harmful_program() -> Program {
        let mut pb = ProgramBuilder::new("harm");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        let tag = |pos| MgTag {
            instance: 0,
            template: 0,
            pos,
            len: 2,
        };
        pb.push(head, Instruction::li(Reg::R1, 400));
        pb.push(head, Instruction::li(Reg::R7, 13));
        pb.set_fallthrough(head, body);
        pb.push(body, Instruction::mul(Reg::R6, Reg::R7, Reg::R7));
        pb.push(body, Instruction::mul(Reg::R6, Reg::R6, Reg::R7));
        pb.push(body, Instruction::addi(Reg::R2, Reg::R1, 1).with_mg(tag(0)));
        pb.push(body, Instruction::addi(Reg::R3, Reg::R6, 1).with_mg(tag(1)));
        pb.push(body, Instruction::add(Reg::R5, Reg::R5, Reg::R2));
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        pb.build().unwrap()
    }

    #[test]
    fn ideal_disable_beats_outlined_disable() {
        let p = harmful_program();
        let (t, _) = Executor::new(&p).run().unwrap();
        let cfg = MachineConfig::reduced().with_mg(MgConfig::paper());
        let run = |dc: DynMgConfig| {
            let r = simulate(
                &p,
                &t,
                &cfg,
                SimOptions {
                    dyn_mg: Some(dc),
                    ..Default::default()
                },
            );
            assert!(!r.hit_cycle_cap);
            r
        };
        let real = run(DynMgConfig::ideal_delay());
        let outlined = run(DynMgConfig {
            cost: crate::dynmg::DisableCost::Outlined,
            ..DynMgConfig::ideal_delay()
        });
        // Both disable the harmful template...
        assert!(real.stats.disabled_templates >= 1);
        assert!(outlined.stats.disabled_templates >= 1);
        // ...but only the outlined variant pays for jumps.
        assert_eq!(real.stats.outline_jumps, 0);
        assert!(outlined.stats.outline_jumps > 0);
        assert!(real.stats.cycles <= outlined.stats.cycles);
        // Committed instruction counts stay identical.
        assert_eq!(real.stats.committed_instrs, outlined.stats.committed_instrs);
    }
}

#[cfg(test)]
mod fetch_side_tests {
    use super::*;
    use mg_isa::{BrCond, Instruction, ProgramBuilder};
    use mg_workloads::Executor;

    /// A loop body split across two far-apart blocks exercises taken-jump
    /// fetch breaks and BTB behaviour.
    #[test]
    fn taken_jumps_cost_fetch_bandwidth() {
        let build = |split: bool| {
            let mut pb = ProgramBuilder::new("jmp");
            let f = pb.func("main");
            let head = pb.block(f);
            let body = pb.block(f);
            let tail = pb.block(f);
            let exit = pb.block(f);
            pb.push(head, Instruction::li(Reg::R1, 500));
            pb.set_fallthrough(head, body);
            for i in 0..3 {
                pb.push(body, Instruction::addi(Reg::new(2 + i), Reg::new(2 + i), 1));
            }
            if split {
                pb.push(body, Instruction::jmp(tail));
            } else {
                pb.set_fallthrough(body, tail);
            }
            for i in 0..3 {
                pb.push(tail, Instruction::addi(Reg::new(5 + i), Reg::new(5 + i), 1));
            }
            pb.push(tail, Instruction::addi(Reg::R1, Reg::R1, -1));
            pb.push(tail, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
            pb.set_fallthrough(tail, exit);
            pb.push(exit, Instruction::halt());
            pb.build().unwrap()
        };
        let run = |p: &Program| {
            let (t, _) = Executor::new(p).run().unwrap();
            simulate(p, &t, &MachineConfig::baseline(), SimOptions::default())
        };
        let joined = run(&build(false));
        let split = run(&build(true));
        // The split version commits one extra instruction (the jump) per
        // iteration and breaks fetch on it: strictly more cycles.
        assert!(split.stats.cycles > joined.stats.cycles);
    }

    /// Large code footprints must show instruction-cache misses; small
    /// loops must not.
    #[test]
    fn icache_behaviour_tracks_code_footprint() {
        // Small hot loop: negligible steady-state I$ misses.
        let mut pb = ProgramBuilder::new("hot");
        let f = pb.func("main");
        let head = pb.block(f);
        let body = pb.block(f);
        let exit = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 2000));
        pb.set_fallthrough(head, body);
        pb.push(body, Instruction::addi(Reg::R2, Reg::R2, 1));
        pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        pb.set_fallthrough(body, exit);
        pb.push(exit, Instruction::halt());
        let p = pb.build().unwrap();
        let (t, _) = Executor::new(&p).run().unwrap();
        let r = simulate(&p, &t, &MachineConfig::baseline(), SimOptions::default());
        assert!(
            r.stats.il1.misses < 5,
            "hot loop missed {} times",
            r.stats.il1.misses
        );
    }

    /// Slack profiles from the engine must satisfy basic sanity: issue
    /// times are non-negative relative to block starts for in-order-ish
    /// chains, slack is bounded by the cap.
    #[test]
    fn profile_values_are_sane() {
        let mut spec = mg_workloads::benchmark("media_rasta").unwrap();
        spec.params.target_dyn = 10_000;
        let w = spec.generate();
        let (t, _) = Executor::new(&w.program).run_with_mem(&w.init_mem).unwrap();
        let r = simulate(
            &w.program,
            &t,
            &MachineConfig::reduced(),
            SimOptions {
                profile_slack: true,
                ..SimOptions::default()
            },
        );
        let prof = r.slack.unwrap();
        let mut executed = 0;
        for rec in &prof.per_static {
            if rec.count == 0 {
                continue;
            }
            executed += 1;
            assert!(rec.local_slack >= 0.0 && rec.local_slack <= crate::slack::SLACK_CAP as f64);
            assert!(rec.avg_latency >= 0.0 && rec.avg_latency < 1000.0);
            assert!(rec.issue_rel.abs() < 10_000.0);
        }
        assert!(
            executed > 100,
            "only {executed} static instructions executed"
        );
    }
}
