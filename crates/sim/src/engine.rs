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
/// Null op link: no op ever has this sequence number.
const NO_OP: u32 = u32::MAX;

/// Simulation options beyond the machine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Collect a local-slack profile (singleton runs only).
    pub profile_slack: bool,
    /// Enable the Slack-Dynamic run-time controller.
    pub dyn_mg: Option<DynMgConfig>,
    /// Collect stall attribution and occupancy metrics.
    pub obs: bool,
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

/// One op in flight. It lives in ring slot `seq & mask` from fetch until
/// a younger op reuses the slot; times read `NEVER` and op links `NO_OP`
/// until set. Data that outlives the slot sits in per-seq logs instead
/// (`Engine::ready_at`, `SlackLog`).
#[derive(Clone, Debug)]
struct Op {
    /// The op's sequence number. A slot holding another `seq` was reused,
    /// so the op being looked up has left the window.
    seq: u32,
    kind: OpKind,
    /// Trace position fetch restarts from when a flush squashes from this
    /// op: its own first entry, or its outline-group leader's (the leader
    /// may have committed and lost its slot by the time the flush fires).
    restart_lo: u32,
    trace_len: u8,
    pc: u64,
    dest: Option<Reg>,
    /// Source producers resolved at rename; the first `n_srcs` are
    /// operands, `NO_OP` marking an operand with no in-flight producer.
    srcs: [u32; 3],
    n_srcs: u8,
    is_load: bool,
    is_store: bool,
    mem_addr: u64,
    needs_iq: bool,
    exec_class: ExecClass,
    /// First op of the outlined group this op belongs to (flush
    /// rounding), or `NO_OP`.
    group_leader: u32,
    avail_at: u64,
    dispatched_at: u64,
    issued_at: u64,
    /// When the op has fully completed (commit eligibility).
    done_at: u64,
    committed: bool,
    squashed: bool,
    mispredicted: bool,
    /// Serialization flags (handles).
    sial: bool,
    ser_delayed: bool,
    consumer_delayed: bool,
    /// Head of the intrusive list of IQ ops waiting on this op's value.
    waiter_head: u32,
    /// Next op in whatever waiter list this op is chained into.
    waiter_next: u32,
}

// Moving an `Op` must stay a few inline stores, not a `memmove` call.
const _: () = assert!(std::mem::size_of::<Op>() <= 128);

/// The static facts the pipeline needs about one instruction, decoded once
/// per run into a table indexed by `StaticId` so that fetch, dispatch,
/// execute and commit never walk the `Program`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StaticOp {
    /// Layout address (`Program::pc_of`).
    pc: u64,
    op: Opcode,
    /// Register sources other than the zero register; the first `n_srcs`
    /// are set.
    srcs: [Reg; 2],
    n_srcs: u8,
    dest: Option<Reg>,
    exec_class: ExecClass,
    latency: u32,
    is_load: bool,
    is_store: bool,
    is_control: bool,
    /// Whether the op occupies an IQ entry (jumps, calls, returns, halts
    /// and nops complete at dispatch).
    needs_iq: bool,
    /// Whether the rewriter placed the instruction in a mini-graph.
    tagged: bool,
    /// For an instance head: its index into `InstanceMap::instances` and
    /// its template.
    handle: Option<(u32, u16)>,
}

impl StaticOp {
    /// Decodes every static instruction of `program`, in `StaticId` order.
    fn decode_all(program: &Program, imap: &InstanceMap) -> Vec<StaticOp> {
        program
            .iter_static()
            .map(|(id, inst)| {
                let mut srcs = [Reg::ZERO; 2];
                let mut n_srcs = 0;
                for r in inst.uses() {
                    srcs[n_srcs] = r;
                    n_srcs += 1;
                }
                let handle = inst.mg.filter(|tag| tag.pos == 0).map(|tag| {
                    let idx = imap
                        .index_of_handle(id)
                        .expect("tagged head has instance info");
                    (idx, tag.template)
                });
                StaticOp {
                    pc: program.pc_of(id),
                    op: inst.op,
                    srcs,
                    n_srcs: n_srcs as u8,
                    dest: inst.def(),
                    exec_class: inst.op.exec_class(),
                    latency: inst.op.latency(),
                    is_load: inst.op.is_load(),
                    is_store: inst.op.is_store(),
                    is_control: inst.op.is_control(),
                    needs_iq: !matches!(
                        inst.op,
                        Opcode::Jmp | Opcode::Call | Opcode::Ret | Opcode::Halt | Opcode::Nop
                    ),
                    tagged: inst.mg.is_some(),
                    handle,
                }
            })
            .collect()
    }
}

impl Op {
    fn new(kind: OpKind, pc: u64, avail_at: u64) -> Op {
        Op {
            seq: NO_OP,
            kind,
            restart_lo: 0,
            trace_len: 0,
            pc,
            dest: None,
            srcs: [NO_OP; 3],
            n_srcs: 0,
            is_load: false,
            is_store: false,
            mem_addr: 0,
            needs_iq: false,
            exec_class: ExecClass::SimpleInt,
            group_leader: NO_OP,
            avail_at,
            dispatched_at: NEVER,
            issued_at: NEVER,
            done_at: NEVER,
            committed: false,
            squashed: false,
            mispredicted: false,
            sial: false,
            ser_delayed: false,
            consumer_delayed: false,
            waiter_head: NO_OP,
            waiter_next: NO_OP,
        }
    }

    /// A singleton op for static instruction `id` (decoded as `s`)
    /// fetched at `pc`, which differs from `s.pc` for idealized inline
    /// constituents.
    fn singleton(id: StaticId, s: &StaticOp, pc: u64, avail_at: u64, mem_addr: u64) -> Op {
        Op {
            trace_len: 1,
            dest: s.dest,
            is_load: s.is_load,
            is_store: s.is_store,
            mem_addr,
            needs_iq: s.needs_iq,
            exec_class: s.exec_class,
            ..Op::new(OpKind::Singleton(id), pc, avail_at)
        }
    }
}

/// The ops in flight: a power-of-two ring in which op `seq` occupies
/// slot `seq & mask`. Indexing by `seq` never checks that the slot still
/// holds that op; [`live`](Self::live) does.
struct OpRing {
    slots: Vec<Op>,
    mask: u32,
}

impl OpRing {
    fn with_capacity(cap: usize) -> OpRing {
        debug_assert!(cap.is_power_of_two());
        let vacant = Op::new(OpKind::Singleton(StaticId(0)), 0, 0);
        OpRing {
            slots: vec![vacant; cap],
            mask: cap as u32 - 1,
        }
    }

    /// Whether op `seq` still holds its slot and was not squashed.
    fn live(&self, seq: u32) -> bool {
        let op = &self[seq];
        op.seq == seq && !op.squashed
    }

    /// Doubles the ring, carrying over ops `oldest..next`.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, oldest: u32, next: u32) {
        let mut grown = OpRing::with_capacity(2 * self.slots.len());
        for seq in oldest..next {
            grown[seq] = self[seq].clone();
        }
        *self = grown;
    }
}

impl std::ops::Index<u32> for OpRing {
    type Output = Op;
    fn index(&self, seq: u32) -> &Op {
        &self.slots[(seq & self.mask) as usize]
    }
}

impl std::ops::IndexMut<u32> for OpRing {
    fn index_mut(&mut self, seq: u32) -> &mut Op {
        &mut self.slots[(seq & self.mask) as usize]
    }
}

/// Slack-profiling data that outlives ring slots, kept only when
/// `SimOptions::profile_slack` asks for a profile.
struct SlackLog {
    /// Per-seq minimum consumer margin (local slack sample). Consumers
    /// keep landing margins on producers after those commit.
    min_margin: Vec<u64>,
    /// Committed singletons, in commit order.
    committed: Vec<CommittedSingleton>,
}

impl SlackLog {
    /// Lowers producer `p`'s minimum consumer margin, when profiling.
    fn note_margin(log: &mut Option<SlackLog>, p: u32, margin: u64) {
        if let Some(log) = log {
            let m = &mut log.min_margin[p as usize];
            *m = (*m).min(margin);
        }
    }
}

/// What the profile needs of a committed singleton besides its margin.
/// Its output- and source-ready times are read from `Engine::ready_at`
/// when the profile is built: each seq's entry is written once.
struct CommittedSingleton {
    seq: u32,
    id: StaticId,
    issued: u64,
    /// Source producers of the operands the op read at issue (see
    /// [`Engine::src_ready_time`]); the first `n_srcs` are operands.
    srcs: [u32; 2],
    /// Zero for an op that bypassed the IQ: it never read its operands.
    n_srcs: u8,
    mispredicted: bool,
}

/// Wake times less than this many cycles ahead go into the wheel; later
/// ones into the overflow heap. It exceeds the paper machines' 200-cycle
/// memory latency plus both cache levels, so only unusual machines
/// overflow.
const WHEEL_SLOTS: usize = 512;

/// Pending wakeups of IQ ops whose operand-arrival cycle is known: a
/// wheel of per-cycle buckets, drained one bucket per cycle, plus a
/// min-heap for wake times past the wheel's horizon. A bucket is an
/// intrusive list through `nodes`, so a run's steady state allocates
/// nothing. Entries of squashed ops are dropped when their cycle comes.
struct WakeQueue {
    /// First node of each cycle's bucket, or `NO_OP`; cycle `t` uses
    /// bucket `t % WHEEL_SLOTS`.
    heads: Vec<u32>,
    /// Bucket entries; free nodes chain from `free`.
    nodes: Vec<WakeNode>,
    free: u32,
    /// `(cycle, op)` entries at least `WHEEL_SLOTS` cycles ahead.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
}

#[derive(Clone, Copy)]
struct WakeNode {
    op: u32,
    next: u32,
}

impl WakeQueue {
    fn with_capacity(cap: usize) -> WakeQueue {
        WakeQueue {
            heads: vec![NO_OP; WHEEL_SLOTS],
            nodes: Vec::with_capacity(cap),
            free: NO_OP,
            overflow: BinaryHeap::new(),
        }
    }

    /// Wakes op `oi` at cycle `at`, which lies after `now`.
    fn push(&mut self, now: u64, at: u64, oi: u32) {
        debug_assert!(at > now, "wakeup at {at} is not after cycle {now}");
        if at - now >= WHEEL_SLOTS as u64 {
            self.overflow.push(Reverse((at, oi)));
            return;
        }
        let bucket = &mut self.heads[at as usize % WHEEL_SLOTS];
        let node = WakeNode {
            op: oi,
            next: *bucket,
        };
        *bucket = if self.free == NO_OP {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
    }

    /// Moves every live op waking at cycle `now` into `ready`, in no
    /// particular order. Must run every cycle: a bucket holds only its
    /// own cycle's entries because the previous lap's were drained.
    fn drain(&mut self, now: u64, ops: &OpRing, ready: &mut Vec<u32>) {
        let mut n = std::mem::replace(&mut self.heads[now as usize % WHEEL_SLOTS], NO_OP);
        while n != NO_OP {
            let node = self.nodes[n as usize];
            // A squashed op's entry may outlive its slot: check the seq.
            if ops.live(node.op) {
                ready.push(node.op);
            }
            self.nodes[n as usize].next = self.free;
            self.free = n;
            n = node.next;
        }
        while let Some(&Reverse((t, oi))) = self.overflow.peek() {
            if t > now {
                break;
            }
            self.overflow.pop();
            if ops.live(oi) {
                ready.push(oi);
            }
        }
    }
}

/// The per-seq logs of a run. A run takes them from its thread's
/// [`SEQ_LOGS`] slot and hands them back when it ends, so consecutive
/// runs on a thread reuse one set of pages instead of each faulting in
/// a fresh allocation.
struct SeqLogs {
    ready_at: Vec<u64>,
    min_margin: Vec<u64>,
    committed: Vec<CommittedSingleton>,
}

thread_local! {
    static SEQ_LOGS: std::cell::RefCell<SeqLogs> = const {
        std::cell::RefCell::new(SeqLogs {
            ready_at: Vec::new(),
            min_margin: Vec::new(),
            committed: Vec::new(),
        })
    };
}

/// Takes a log from the thread's slot, emptied, with room for `cap`
/// entries.
fn reuse<T>(log: &mut Vec<T>, cap: usize) -> Vec<T> {
    let mut v = std::mem::take(log);
    v.clear();
    v.reserve(cap);
    v
}

#[derive(Clone, Copy, Debug)]
struct OutlineProgress {
    inst_idx: u32,
    leader: u32,
    /// The leader's first trace entry (its members' `restart_lo`).
    leader_lo: u32,
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
    /// The run stops here and reports `hit_cycle_cap`: a generous
    /// multiple of the trace length that only a modeling bug reaches.
    max_cycles: u64,
    imap: InstanceMap,
    /// `program` decoded, indexed by `StaticId`.
    decoded: Vec<StaticOp>,

    mem: MemorySystem,
    dirpred: DirectionPredictor,
    btb: Btb,
    ras: Ras,
    storesets: StoreSets,
    dynctl: Option<DynMgController>,

    ops: OpRing,
    /// Sequence number of the next fetched op. Sequence numbers are never
    /// reused, so a squash's replay gets fresh ones.
    next_seq: u32,
    /// Per-seq output-ready time (`NEVER` until the op executes), written
    /// once. Consumers, the rename table and the slack profile read
    /// producers of any age, long after their slots are reused.
    ready_at: Vec<u64>,
    /// Profiling-only logs, present when `opts.profile_slack` is set.
    slack_log: Option<SlackLog>,
    rob: VecDeque<u32>,
    /// IQ ops whose operands are all ready, sorted oldest-first. Entries
    /// persist across cycles while port- or disambiguation-blocked;
    /// squashed entries are filtered lazily.
    ready: Vec<u32>,
    /// Pending wakeups of IQ ops whose operand arrival time is known.
    /// Ops with an unissued producer instead sit in that producer's
    /// waiter list until its completion time is known.
    wakeups: WakeQueue,
    /// `log2` of the I$ line size (a power of two: `Cache::new` checks).
    fetch_line_shift: u32,
    lq: VecDeque<u32>,
    sq: VecDeque<u32>,
    fetchq: VecDeque<u32>,
    /// Youngest writer of each architectural register, or `NO_OP`.
    rename: [u32; mg_isa::reg::NUM_ARCH_REGS],
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
    obs: Option<mg_obs::ObsCollector>,
    /// Why fetch last stalled (consulted by stall attribution while
    /// `cycle < fetch_resume`).
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
        let decoded = StaticOp::decode_all(program, &imap);
        let dynctl = opts
            .dyn_mg
            .map(|dc| DynMgController::new(dc, imap.template_count.max(1)));
        let fetchq_cap = (cfg.fetch_width * cfg.front_depth) as usize + 8;
        // Twice the ROB plus fetch queue: the live window never wraps the
        // ring on the paper's machines, so `grow` stays a cold path.
        let ring_cap = (2 * (cfg.rob_entries as usize + fetchq_cap)).next_power_of_two();
        // Seqs outnumber trace entries only by replays and outline jumps.
        let seqs = trace.len() + 64;
        let (ready_at, slack_log) = SEQ_LOGS.with_borrow_mut(|logs| {
            let slack_log = opts.profile_slack.then(|| SlackLog {
                min_margin: reuse(&mut logs.min_margin, seqs),
                committed: reuse(&mut logs.committed, trace.len()),
            });
            (reuse(&mut logs.ready_at, seqs), slack_log)
        });
        Engine {
            program,
            trace,
            cfg,
            max_cycles: 200 * trace.len() as u64 + 100_000,
            mem: MemorySystem::new(cfg),
            dirpred: DirectionPredictor::new(&cfg.bpred),
            btb: Btb::new(&cfg.bpred),
            ras: Ras::new(cfg.bpred.ras_entries),
            storesets: StoreSets::new(&cfg.storesets),
            dynctl,
            imap,
            decoded,
            ops: OpRing::with_capacity(ring_cap),
            next_seq: 0,
            ready_at,
            slack_log,
            rob: VecDeque::with_capacity(cfg.rob_entries as usize),
            ready: Vec::with_capacity(cfg.iq_entries as usize),
            wakeups: WakeQueue::with_capacity(2 * cfg.iq_entries as usize),
            fetch_line_shift: cfg.il1.line_bytes.trailing_zeros(),
            lq: VecDeque::with_capacity(cfg.lq_entries as usize),
            sq: VecDeque::with_capacity(cfg.sq_entries as usize),
            fetchq: VecDeque::with_capacity(fetchq_cap),
            rename: [NO_OP; mg_isa::reg::NUM_ARCH_REGS],
            handle_finish: Vec::with_capacity(8),
            free_regs: cfg.phys_regs - mg_isa::reg::NUM_ARCH_REGS as u32,
            iq_free: cfg.iq_entries,
            lq_free: cfg.lq_entries,
            sq_free: cfg.sq_entries,
            fetchq_cap,
            fetch_ptr: 0,
            outline: None,
            fetch_resume: 0,
            last_fetch_line: u64::MAX,
            cycle: 0,
            stats: SimStats::default(),
            obs: opts.obs.then(|| mg_obs::ObsCollector::new(cfg.obs_caps())),
            obs_redirect: mg_obs::RedirectKind::None,
        }
    }

    fn run(&mut self) -> SimResult {
        // Always-on telemetry: cycles are accumulated locally and
        // flushed to the global counter in large batches, so the hot
        // loop pays one subtract-and-compare per cycle and one relaxed
        // atomic per batch (the perf-gate bounds this at < 3% against
        // results/BENCH_engine.json).
        const TELE_BATCH: u64 = 1 << 16;
        let tele_cycles = mg_obs::tele_counter!("mg_sim_cycles_total");
        let mut tele_flushed = 0u64;
        let mut hit_cap = false;
        let cap = self.max_cycles;
        while !self.finished() {
            if self.cycle >= cap {
                hit_cap = true;
                break;
            }
            self.commit();
            self.issue();
            self.dispatch();
            self.fetch();
            if self.obs.is_some() {
                self.obs_end_cycle();
            }
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
        let slack = self.slack_log.as_ref().map(|log| self.build_profile(log));
        let obs = self.obs.take().map(|c| c.finish(self.stats.cycles));
        SimResult {
            stats: self.stats,
            slack,
            hit_cycle_cap: hit_cap,
            obs,
        }
    }

    /// Closes the current cycle out in the observability collector:
    /// exactly one call per loop iteration, so attributed cycles equal
    /// `stats.cycles` by construction (the cap check breaks *before* any
    /// stage runs). It stays out of line and cold, so an unobserved
    /// run's hot loop carries only the `is_some` check.
    #[cold]
    #[inline(never)]
    fn obs_end_cycle(&mut self) {
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
            let op = &self.ops[head];
            if op.done_at > self.cycle {
                break;
            }
            self.rob.pop_front();
            let op = &mut self.ops[head];
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
                    if let Some(ctl) = &mut self.dynctl {
                        let template = self.imap.instances[idx as usize].template;
                        ctl.report(template, op.sial, op.ser_delayed, op.consumer_delayed);
                    }
                }
                OpKind::OutJump(_) | OpKind::RetJump(_) => {
                    self.stats.outline_jumps += 1;
                }
                OpKind::Singleton(id) => {
                    if self.decoded[id.index()].tagged {
                        self.stats.outlined_instrs += 1;
                    }
                    // A committed op has issued and its value is ready.
                    if let Some(log) = self.slack_log.as_mut() {
                        log.committed.push(CommittedSingleton {
                            seq: head,
                            id,
                            issued: op.issued_at,
                            srcs: [op.srcs[0], op.srcs[1]],
                            n_srcs: if op.needs_iq { op.n_srcs } else { 0 },
                            mispredicted: op.mispredicted,
                        });
                    }
                }
            }
            if let Some(obs) = self.obs.as_mut() {
                obs.note_commit_instrs(op.trace_len as u64);
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// When source producer `p` (`NO_OP`: none in flight) has its value.
    fn src_ready_time(&self, p: u32) -> u64 {
        if p == NO_OP {
            0
        } else {
            self.ready_at[p as usize]
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
        let op = &self.ops[oi];
        for &p in &op.srcs[..op.n_srcs as usize] {
            if p == NO_OP {
                continue;
            }
            let r = self.ready_at[p as usize];
            if r == NEVER {
                wait_on = Some(p);
                break;
            }
            wake = wake.max(r);
        }
        match wait_on {
            Some(p) => {
                self.ops[oi].waiter_next = self.ops[p].waiter_head;
                self.ops[p].waiter_head = oi;
            }
            // An op is first considered the cycle after dispatch, exactly
            // as when it sat in a queue scanned by the next issue pass.
            None => self.wakeups.push(self.cycle, wake.max(self.cycle + 1), oi),
        }
    }

    /// Reschedules every op waiting on `producer`, whose completion time
    /// has just become known. Waiters blocked on a further unissued
    /// producer re-chain onto it; squashed waiters are dropped.
    fn wake_waiters(&mut self, producer: u32) {
        let mut w = self.ops[producer].waiter_head;
        self.ops[producer].waiter_head = NO_OP;
        while w != NO_OP {
            // Waiters are younger than their in-flight producer, so they
            // still hold their slots, squashed or not.
            let next = self.ops[w].waiter_next;
            self.ops[w].waiter_next = NO_OP;
            if self.ops.live(w) {
                self.schedule_for_issue(w);
            }
            w = next;
        }
    }

    fn issue(&mut self) {
        // Wakeup: pull every op whose operand-arrival cycle has come into
        // the ready list. Arrival times never change once scheduled, so no
        // per-op readiness rescan is needed.
        self.wakeups.drain(self.cycle, &self.ops, &mut self.ready);
        if self.ready.is_empty() {
            return;
        }
        // Oldest-first select: sequence numbers follow dispatch order.
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
            if !self.ops.live(oi) {
                continue; // squashed by a flush earlier in this pass
            }
            let op = &self.ops[oi];
            // Operand-arrival time (sources are ready by construction).
            let mut max_ready = 0u64;
            for &p in &op.srcs[..op.n_srcs as usize] {
                max_ready = max_ready.max(self.src_ready_time(p));
            }
            debug_assert!(max_ready <= self.cycle, "op {oi} woke before its operands");
            // Port availability.
            let is_handle = matches!(op.kind, OpKind::Handle(_));
            let has_mem = op.is_load || op.is_store;
            let is_load_op = op.is_load;
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
            self.ready
                .retain(|&oi| self.ops.live(oi) && self.ops[oi].issued_at == NEVER);
        }
    }

    /// Checks memory-dependence constraints for a load about to issue.
    /// Returns `false` if it must wait (predicted dependence on an
    /// unissued older store).
    fn load_may_issue(&mut self, load_oi: u32) -> bool {
        let load_pc = self.ops[load_oi].pc;
        let Some(load_set) = self.storesets.set_of(load_pc) else {
            // A load outside every store set never stalls.
            return true;
        };
        // The SQ holds op indices in ascending age order; only the prefix
        // older than the load can constrain it.
        let older = self.sq.partition_point(|&si| si < load_oi);
        for &si in self.sq.range(..older) {
            let st = &self.ops[si];
            if st.issued_at == NEVER && Some(load_set) == self.storesets.set_of(st.pc) {
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
            let st = &self.ops[si];
            if st.issued_at != NEVER && st.mem_addr & !7 == addr & !7 {
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
            let ld = &self.ops[li];
            if ld.issued_at != NEVER && ld.mem_addr & !7 == addr & !7 {
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
        // propagated. The flag is read only when the handle commits, so a
        // producer that has committed (or lost its slot) is skipped.
        // Only a handle sets `ser_delayed`, so a program without
        // instances skips the producer-slot check.
        let check_delay = !self.imap.instances.is_empty();
        if check_delay || self.slack_log.is_some() {
            let (srcs, n_srcs) = (self.ops[oi].srcs, self.ops[oi].n_srcs as usize);
            for &p in &srcs[..n_srcs] {
                if p == NO_OP {
                    continue;
                }
                let p_ready = self.ready_at[p as usize];
                // Local-slack sample: how long after the value arrived did
                // this consumer issue?
                SlackLog::note_margin(&mut self.slack_log, p, now.saturating_sub(p_ready));
                if !check_delay {
                    continue;
                }
                let prod = &mut self.ops[p];
                if prod.seq == p
                    && !prod.committed
                    && prod.ser_delayed
                    && p_ready == max_src_ready
                    && now == p_ready
                {
                    prod.consumer_delayed = true;
                }
            }
        }

        let kind = self.ops[oi].kind;
        self.ops[oi].issued_at = now;
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
        let s = &self.decoded[id.index()];
        match s.op {
            Opcode::Load => {
                let addr = self.ops[oi].mem_addr;
                let lat = if let Some(si) = self.forwarding_store(oi, addr) {
                    // Store-to-load forwarding: fast, and a slack sample
                    // for the store's "memory output".
                    SlackLog::note_margin(
                        &mut self.slack_log,
                        si,
                        now.saturating_sub(self.ops[si].done_at),
                    );
                    2
                } else {
                    self.mem.data_latency(addr)
                };
                let done = now + 1 + lat as u64;
                self.complete(oi, done, done);
                if lat > self.cfg.dl1.hit_lat {
                    if let Some(obs) = self.obs.as_mut() {
                        obs.note_load_miss(done);
                    }
                }
            }
            Opcode::Store => {
                let addr = self.ops[oi].mem_addr;
                self.complete(oi, now + 1, now + 1);
                if let Some(li) = self.violating_load(oi, addr) {
                    self.flush_from_violation(oi, li);
                }
            }
            Opcode::Br(_) => {
                self.complete(oi, now + 1, now + 1);
                if self.ops[oi].mispredicted {
                    // Delaying a mispredict delays the redirect.
                    SlackLog::note_margin(&mut self.slack_log, oi, 0);
                    let resolve = now + self.cfg.sched_to_exec as u64 + 1;
                    self.fetch_resume = resolve + 1;
                }
            }
            _ => {
                let lat = s.latency as u64;
                self.complete(oi, now + lat, now + lat);
            }
        }
    }

    /// Sets op `oi`'s completion and value-ready times once it executes.
    fn complete(&mut self, oi: u32, done_at: u64, ready_at: u64) {
        self.ops[oi].done_at = done_at;
        self.ready_at[oi as usize] = ready_at;
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
            let op = &self.ops[oi];
            if s < op.n_srcs as usize
                && self.src_ready_time(op.srcs[s]) == max_src_ready
                && max_src_ready > 0
            {
                sial = true;
            }
        }
        let delayed = sial && now == max_src_ready;
        {
            let op = &mut self.ops[oi];
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
        let constituents = &self.decoded[info.handle_id.index()..][..info.len];
        for (p, c) in constituents.iter().enumerate() {
            let mut start = if serial { slot_cursor } else { now };
            for link in info.src_links[p] {
                if let Some(crate::mgi::SrcLink::Internal(d)) = link {
                    start = start.max(self.handle_finish[d]);
                }
            }
            let data_lat = match c.op {
                Opcode::Load => {
                    let addr = self.ops[oi].mem_addr;
                    let l = if let Some(si) = self.forwarding_store(oi, addr) {
                        SlackLog::note_margin(
                            &mut self.slack_log,
                            si,
                            start.saturating_sub(self.ops[si].done_at),
                        );
                        2
                    } else {
                        self.mem.data_latency(addr)
                    };
                    if l > l1_hit {
                        let avail = start + 1 + l as u64;
                        if let Some(obs) = self.obs.as_mut() {
                            obs.note_load_miss(avail);
                        }
                    }
                    1 + l as u64
                }
                Opcode::Store => {
                    store_event = Some((start, self.ops[oi].mem_addr));
                    1
                }
                _ => c.latency as u64,
            };
            let slot_lat = c.op.optimistic_latency(l1_hit) as u64;
            slot_cursor = start + slot_lat;
            let end = start + data_lat;
            self.handle_finish.push(end);
            if out_pos == Some(p) {
                out_ready = end;
            }
            if c.is_control {
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
        if cur > now + 1 {
            if let Some(obs) = self.obs.as_mut() {
                obs.note_handle_exec(cur);
            }
        }
        self.complete(oi, cur, if out_ready == NEVER { cur } else { out_ready });
        if let Some(r) = resolve {
            if self.ops[oi].mispredicted {
                SlackLog::note_margin(&mut self.slack_log, oi, 0);
                self.fetch_resume = r + 1;
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
        let load = &self.ops[load_oi];
        let store = &self.ops[store_oi];
        self.storesets.train_violation(load.pc, store.pc);
        // Round the squash point down to the load's outline-group leader
        // (`NO_OP` when it has none) so refetch reconstructs whole groups.
        let from = load.group_leader.min(load_oi);
        let restart_lo = load.restart_lo;
        self.squash_from(from, restart_lo);
        self.fetch_resume = self.cycle + 2; // detect + redirect
        self.obs_redirect = mg_obs::RedirectKind::Other;
    }

    /// Squashes every op from `from` on and restarts fetch at trace
    /// position `restart_lo`: the first entry of op `from`, which may have
    /// committed already when it leads an outline group.
    fn squash_from(&mut self, from: u32, restart_lo: u32) {
        self.fetch_ptr = restart_lo as usize;
        self.outline = None;
        self.fetchq.retain(|&oi| oi < from);
        self.rob.retain(|&oi| oi < from);
        self.lq.retain(|&oi| oi < from);
        self.sq.retain(|&oi| oi < from);
        // The ready list and wakeup heap are filtered lazily: entries for
        // squashed ops are dropped on their next touch. (A flush can fire
        // mid-issue-pass, so the ready list must not be edited here.)
        for oi in from..self.next_seq {
            let op = &mut self.ops[oi];
            // A reused slot means op `oi` left the window long ago.
            if op.seq != oi || op.squashed || op.committed {
                continue;
            }
            op.squashed = true;
            if op.dispatched_at != NEVER {
                if op.dest.is_some() {
                    self.free_regs += 1;
                }
                if op.needs_iq && op.issued_at == NEVER {
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
        // Rebuild the rename table from surviving in-flight writers,
        // walking the ROB in place (oldest to youngest, so the youngest
        // writer of each register wins, as during dispatch). Committed
        // writers are forgotten, so their later consumers read ready
        // time 0: a modelling quirk the golden stats pin.
        self.rename = [NO_OP; mg_isa::reg::NUM_ARCH_REGS];
        for &oi in &self.rob {
            if let Some(d) = self.ops[oi].dest {
                self.rename[d.index()] = oi;
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
            if self.ops[oi].avail_at > self.cycle {
                break;
            }
            let op = &self.ops[oi];
            // Resource checks. Each taken break reports the structural
            // cause that stopped in-order dispatch to the collector.
            if self.rob.len() >= self.cfg.rob_entries as usize {
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Rob);
                }
                break;
            }
            if op.needs_iq && self.iq_free == 0 {
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Iq);
                }
                break;
            }
            if op.dest.is_some() && self.free_regs == 0 {
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Regs);
                }
                break;
            }
            if op.is_load && self.lq_free == 0 {
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Lq);
                }
                break;
            }
            if op.is_store && self.sq_free == 0 {
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_dispatch_block(mg_obs::DispatchBlock::Sq);
                }
                break;
            }
            self.fetchq.pop_front();
            // Resolve source producers through the rename table. At most
            // three sources exist (two singleton operands, or up to three
            // external inputs per the RISC-singleton interface bound).
            let op = &mut self.ops[oi];
            let mut add_src = |r: Reg| {
                op.srcs[op.n_srcs as usize] = self.rename[r.index()];
                op.n_srcs += 1;
            };
            match op.kind {
                OpKind::Singleton(id) => {
                    let s = &self.decoded[id.index()];
                    for &r in &s.srcs[..s.n_srcs as usize] {
                        add_src(r);
                    }
                }
                OpKind::Handle(idx) => {
                    for &(r, _) in &self.imap.instances[idx as usize].ext_inputs {
                        add_src(r);
                    }
                }
                _ => {}
            }
            op.dispatched_at = self.cycle;
            // Allocate.
            if self.ops[oi].needs_iq {
                self.iq_free -= 1;
                self.schedule_for_issue(oi);
            } else {
                // Control-only ops complete immediately.
                self.ops[oi].issued_at = self.cycle;
                self.complete(oi, self.cycle + 1, self.cycle + 1);
                if self.ops[oi].mispredicted {
                    // A mispredicted bypass transfer (e.g. a RAS miss on a
                    // return) resolves after register read.
                    let resolve = self.cycle + self.cfg.sched_to_exec as u64 + 1;
                    self.fetch_resume = resolve + 1;
                }
            }
            let op = &self.ops[oi];
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
                self.rename[d.index()] = oi;
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
            let constituents = &self.decoded[info.handle_id.index()..][..info.len];
            if let Some(c) = constituents.get(out.next_pos) {
                let pc = if out.penalized {
                    c.pc
                } else {
                    // Idealized inline execution: consecutive main-line
                    // addresses from the handle slot.
                    constituents[0].pc + mg_isa::program::INST_BYTES * out.next_pos as u64
                };
                return Some((FetchUnit::OutConstituent(out.inst_idx, out.next_pos), pc));
            }
            debug_assert!(
                out.penalized,
                "free-mode outlines end at the last constituent"
            );
            return Some((
                FetchUnit::OutRetJump(out.inst_idx),
                constituents[info.len - 1].pc + mg_isa::program::INST_BYTES,
            ));
        }
        let entry = self.trace.insts.get(self.fetch_ptr)?;
        let s = &self.decoded[entry.id.index()];
        let Some((idx, template)) = s.handle else {
            debug_assert!(!s.tagged, "fetch must land on instance heads");
            return Some((FetchUnit::Singleton, s.pc));
        };
        let enabled = self.cfg.mg.enabled
            && self
                .dynctl
                .as_ref()
                .map(|ctl| ctl.enabled(template))
                .unwrap_or(true);
        if enabled {
            Some((FetchUnit::Handle(idx), s.pc))
        } else if self
            .dynctl
            .as_ref()
            .map(|c| c.config().cost == crate::dynmg::DisableCost::Outlined)
            .unwrap_or(true)
        {
            Some((FetchUnit::OutJumpStart(idx), s.pc))
        } else {
            // Idealized disable: constituents execute inline as
            // singletons, no jumps.
            Some((FetchUnit::OutConstituent(idx, 0), s.pc))
        }
    }

    fn fetch(&mut self) {
        if self.cycle < self.fetch_resume {
            return;
        }
        let mut slots = self.cfg.fetch_width;
        let mut cycle_line: Option<u64> = None;

        while slots > 0 && self.fetchq.len() < self.fetchq_cap {
            let Some((unit, pc)) = self.peek_unit() else {
                break;
            };
            let line = pc >> self.fetch_line_shift;
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
                            self.obs_redirect = mg_obs::RedirectKind::Icache;
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
        let oi = self.next_seq;
        match unit {
            FetchUnit::Singleton => {
                let entry = self.trace.insts[self.fetch_ptr];
                let s = self.decoded[entry.id.index()];
                let mut op = Op::singleton(entry.id, &s, pc, avail, entry.addr);
                op.restart_lo = self.fetch_ptr as u32;
                self.fetch_ptr += 1;
                self.push_op(op);
                self.fetchq.push_back(oi);
                if s.is_control {
                    self.handle_control_fetch(oi, pc, s.op, entry.taken)
                } else {
                    false
                }
            }
            FetchUnit::OutConstituent(inst_idx, next_pos) => {
                let entry = self.trace.insts[self.fetch_ptr];
                let s = self.decoded[entry.id.index()];
                // A free-mode (no-penalty) group starts directly at its
                // first constituent; it is its own flush leader.
                let (leader, leader_lo, penalized) = match self.outline {
                    Some(out) => (out.leader, out.leader_lo, out.penalized),
                    None => (oi, self.fetch_ptr as u32, false),
                };
                self.fetch_ptr += 1;
                let mut op = Op::singleton(entry.id, &s, pc, avail, entry.addr);
                op.restart_lo = leader_lo;
                op.group_leader = leader;
                self.push_op(op);
                self.fetchq.push_back(oi);
                let len = self.imap.instances[inst_idx as usize].len;
                if !penalized && next_pos + 1 == len {
                    self.outline = None; // free-mode group ends inline
                } else {
                    self.outline = Some(OutlineProgress {
                        inst_idx,
                        leader,
                        leader_lo,
                        next_pos: next_pos + 1,
                        penalized,
                    });
                }
                if s.is_control {
                    self.handle_control_fetch(oi, pc, s.op, entry.taken)
                } else {
                    false
                }
            }
            FetchUnit::Handle(idx) => {
                let info = &self.imap.instances[idx as usize];
                let lo = self.fetch_ptr;
                // Consume the constituents' trace entries: the memory and
                // control constituents supply the address and direction.
                let entries = &self.trace.insts[lo..][..info.len];
                debug_assert!(
                    entries
                        .iter()
                        .enumerate()
                        .all(|(p, e)| e.id.index() == info.handle_id.index() + p),
                    "trace must walk instance constituents contiguously"
                );
                self.fetch_ptr += info.len;
                let mut op = Op::new(OpKind::Handle(idx), pc, avail);
                op.restart_lo = lo as u32;
                op.trace_len = info.len as u8;
                op.needs_iq = true;
                op.dest = info.output.map(|(r, _)| r);
                if let Some((p, is_load)) = info.mem {
                    op.mem_addr = entries[p].addr;
                    op.is_load = is_load;
                    op.is_store = !is_load;
                }
                let control = info.control.map(|p| {
                    let cop = self.decoded[info.handle_id.index() + p].op;
                    (cop, entries[p].taken)
                });
                self.push_op(op);
                self.fetchq.push_back(oi);
                if let Some((cop, taken)) = control {
                    self.handle_control_fetch(oi, pc, cop, taken)
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
                op.restart_lo = self.fetch_ptr as u32;
                op.group_leader = oi;
                self.push_op(op);
                self.fetchq.push_back(oi);
                self.outline = Some(OutlineProgress {
                    inst_idx: idx,
                    leader: oi,
                    leader_lo: self.fetch_ptr as u32,
                    next_pos: 0,
                    penalized: true,
                });
                // An outlining jump is an always-taken direct jump.
                self.handle_control_fetch(oi, pc, Opcode::Jmp, true)
            }
            FetchUnit::OutRetJump(idx) => {
                let out = self.outline.expect("outline in progress");
                let mut op = Op::new(OpKind::RetJump(idx), pc, avail);
                op.restart_lo = out.leader_lo;
                op.group_leader = out.leader;
                self.push_op(op);
                self.fetchq.push_back(oi);
                self.outline = None;
                self.handle_control_fetch(oi, pc, Opcode::Jmp, true)
            }
        }
    }

    /// Places a just-fetched op in the ring as op `next_seq`, first
    /// growing the ring if the slot is still held by the oldest op in
    /// flight (the ROB head, or else the fetch-queue head).
    fn push_op(&mut self, mut op: Op) {
        let seq = self.next_seq;
        if let Some(&oldest) = self.rob.front().or(self.fetchq.front()) {
            if seq - oldest > self.ops.mask {
                self.ops.grow(oldest, seq);
            }
        }
        op.seq = seq;
        self.ops[seq] = op;
        self.next_seq += 1;
        self.ready_at.push(NEVER);
        if let Some(log) = self.slack_log.as_mut() {
            log.min_margin.push(NEVER);
        }
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
                    self.ops[oi].mispredicted = true;
                    self.fetch_resume = NEVER; // released at resolve
                    self.obs_redirect = mg_obs::RedirectKind::Mispredict;
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
                    self.ops[oi].mispredicted = true;
                    self.fetch_resume = NEVER;
                    self.obs_redirect = mg_obs::RedirectKind::Mispredict;
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
                self.obs_redirect = mg_obs::RedirectKind::Other;
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

    fn build_profile(&self, log: &SlackLog) -> SlackProfile {
        let mut accums = vec![ProfileAccum::default(); self.program.static_count()];
        let mut base: i64 = 0;
        // Profiles are collected on singleton runs: handles are not logged.
        for op in &log.committed {
            let loc = self.program.loc_of(op.id);
            let issued = op.issued as i64;
            if loc.idx == 0 {
                base = issued;
            }
            let out_ready = self.ready_at[op.seq as usize] as i64;
            let margin = match log.min_margin[op.seq as usize] {
                NEVER => slack::SLACK_CAP,
                m => m,
            };
            // A producer's ready time is final before its consumer
            // issues, so reading it now gives what the op saw at issue.
            let src = |s: usize| {
                (s < op.n_srcs as usize).then(|| self.src_ready_time(op.srcs[s]) as i64 - base)
            };
            accums[op.id.index()].add(
                issued - base,
                [src(0), src(1)],
                out_ready - base,
                margin,
                op.mispredicted,
                (out_ready as u64).saturating_sub(issued as u64),
            );
        }
        slack::finish_profile(self.program, &accums)
    }
}

impl Drop for Engine<'_> {
    /// Hands the per-seq logs back to the thread's slot for its next run.
    fn drop(&mut self) {
        let ready_at = std::mem::take(&mut self.ready_at);
        let slack_log = self.slack_log.take();
        // A thread tearing down its locals has no next run.
        let _ = SEQ_LOGS.try_with(|slot| {
            let mut logs = slot.borrow_mut();
            logs.ready_at = ready_at;
            if let Some(log) = slack_log {
                logs.min_margin = log.min_margin;
                logs.committed = log.committed;
            }
        });
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

    /// A store to a fixed address whose data arrives late, then a load
    /// of it, repeatedly: loads speculate past the store and violate until
    /// StoreSets learns the dependence.
    fn store_load_loop() -> Program {
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
        pb.build().unwrap()
    }

    #[test]
    fn store_load_forwarding_and_violations() {
        let p = store_load_loop();
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
        let p = store_load_loop();
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

    /// Tags every adjacent pair of mini-graph-eligible instructions in
    /// which the second consumes the first's value and nothing else does:
    /// a crude Struct-All selection, enough to put handles, serializing
    /// inputs and outlined groups on a suite benchmark.
    fn tag_dependent_pairs(p: &Program) -> Program {
        use mg_isa::dataflow::{liveness, BlockDataflow};
        use mg_isa::{BasicBlock, BlockId};
        let live = liveness(p);
        let mut templates = std::collections::HashMap::new();
        let mut instance = 0u32;
        let mut blocks = Vec::new();
        for (bi, block) in p.blocks().iter().enumerate() {
            let df = BlockDataflow::analyze(block, live.live_out(BlockId(bi as u32)));
            let mut insts = block.insts.clone();
            let mut i = 0;
            while i + 1 < insts.len() {
                let (a, b) = (insts[i], insts[i + 1]);
                let pair = a.op.mg_eligible()
                    && b.op.mg_eligible()
                    && !a.op.is_control()
                    && !(a.op.is_mem() && b.op.is_mem())
                    && a.def().is_some()
                    && [b.src1, b.src2].contains(&a.def())
                    && !df.value_visible_outside(i, &[i, i + 1]);
                if !pair {
                    i += 1;
                    continue;
                }
                let n = templates.len() as u16;
                let template = *templates.entry((a.op, b.op)).or_insert(n);
                insts[i] = a.with_mg(tag(instance, template, 0, 2));
                insts[i + 1] = b.with_mg(tag(instance, template, 1, 2));
                instance += 1;
                i += 2;
            }
            blocks.push(BasicBlock {
                insts,
                fallthrough: block.fallthrough,
            });
        }
        Program::new("pairs", blocks, p.funcs().to_vec(), p.entry_func()).unwrap()
    }

    /// Runs with the ring shrunk to 4 slots, so fetch grows it again and
    /// again, checks the run equals the default-size one and returns it.
    fn run_with_growing_ring(
        program: &Program,
        trace: &Trace,
        cfg: &MachineConfig,
        opts: SimOptions,
    ) -> SimResult {
        let expected = simulate(program, trace, cfg, opts);
        let mut e = Engine::new(program, trace, cfg, opts);
        e.ops = OpRing::with_capacity(4);
        let got = e.run();
        assert!(e.ops.slots.len() > 4, "the ring never grew");
        let json = |r: &SimResult| {
            (
                serde_json::to_string(&r.stats).unwrap(),
                serde_json::to_string(&r.slack).unwrap(),
            )
        };
        assert_eq!(json(&got), json(&expected));
        assert_eq!(got.obs, expected.obs);
        expected
    }

    #[test]
    fn ring_growth_preserves_results() {
        let p = store_load_loop();
        let (t, _) = Executor::new(&p).run().unwrap();
        let opts = SimOptions {
            obs: true,
            ..SimOptions::default()
        };
        let r = run_with_growing_ring(&p, &t, &MachineConfig::baseline(), opts);
        assert!(r.stats.violation_flushes >= 1);

        let mut spec = mg_workloads::benchmark("spec_gzip").unwrap();
        spec.params.target_dyn = 20_000;
        let w = spec.generate();
        let p = tag_dependent_pairs(&w.program);
        let (t, _) = Executor::new(&p).run_with_mem(&w.init_mem).unwrap();
        let cfg = MachineConfig::reduced().with_mg(MgConfig::paper());
        let opts = SimOptions {
            profile_slack: true,
            dyn_mg: Some(DynMgConfig::slack_dynamic()),
            ..SimOptions::default()
        };
        let r = run_with_growing_ring(&p, &t, &cfg, opts);
        assert!(!r.hit_cycle_cap);
        assert!(r.stats.disabled_templates > 0 && r.stats.outline_jumps > 0);
        assert!(r.stats.violation_flushes > 0, "{:?}", r.stats);
    }

    #[test]
    fn wake_queue_fires_each_entry_at_its_cycle() {
        let mut ops = OpRing::with_capacity(8);
        for seq in 0..5 {
            ops[seq].seq = seq;
        }
        let horizon = WHEEL_SLOTS as u64;
        let now = 100;
        // (op, wake cycle): the wheel's nearest and farthest slots, the
        // first cycle past its horizon, and a far overflow entry.
        let due = [
            (0, now + 1),
            (1, now + horizon - 1),
            (2, now + horizon),
            (3, now + 5000),
        ];
        let mut q = WakeQueue::with_capacity(4);
        for &(oi, at) in &due {
            q.push(now, at, oi);
        }
        // Op 4 is squashed before it wakes.
        q.push(now, now + 2, 4);
        ops[4].squashed = true;
        let (mut fired, mut ready) = (Vec::new(), Vec::new());
        for cycle in now + 1..=now + 6000 {
            q.drain(cycle, &ops, &mut ready);
            fired.extend(ready.drain(..).map(|oi| (oi, cycle)));
        }
        assert_eq!(fired, due);
        assert!(q.overflow.is_empty());
        assert!(q.heads.iter().all(|&h| h == NO_OP));
    }

    /// Every kind of row the decode pass fills in: two instances (one
    /// holding a load, one ending in a branch) whose later constituents
    /// sit at outlined addresses, a call and a return, a store, and reads
    /// of the zero register.
    fn decode_program() -> Program {
        let mut pb = ProgramBuilder::new("decode");
        let main = pb.func("main");
        let leaf = pb.func("leaf");
        let head = pb.block(main);
        let body = pb.block(main);
        let tail = pb.block(main);
        let exit = pb.block(main);
        let l0 = pb.block(leaf);
        pb.push(head, Instruction::li(Reg::R1, 20));
        pb.push(head, Instruction::li(Reg::R2, 0x4000));
        pb.set_fallthrough(head, body);
        pb.push(
            body,
            Instruction::addi(Reg::R4, Reg::R2, 8).with_mg(tag(0, 0, 0, 2)),
        );
        pb.push(
            body,
            Instruction::load(Reg::R4, Reg::R4, 0).with_mg(tag(0, 0, 1, 2)),
        );
        pb.push(body, Instruction::store(Reg::R2, Reg::ZERO, 16));
        pb.push(body, Instruction::add(Reg::R5, Reg::R4, Reg::ZERO));
        pb.push(body, Instruction::call(leaf));
        pb.set_fallthrough(body, tail);
        pb.push(
            tail,
            Instruction::addi(Reg::R1, Reg::R1, -1).with_mg(tag(1, 1, 0, 2)),
        );
        pb.push(
            tail,
            Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body).with_mg(tag(1, 1, 1, 2)),
        );
        pb.set_fallthrough(tail, exit);
        pb.push(exit, Instruction::halt());
        pb.push(l0, Instruction::addi(Reg::R6, Reg::R5, 1));
        pb.push(l0, Instruction::ret());
        pb.build().unwrap()
    }

    #[test]
    fn decoded_table_matches_program() {
        let p = decode_program();
        let (t, _) = Executor::new(&p).run().unwrap();
        let cfg = MachineConfig::baseline().with_mg(MgConfig::paper());
        let e = Engine::new(&p, &t, &cfg, SimOptions::default());
        assert_eq!(e.decoded.len(), p.static_count());
        for (id, inst) in p.iter_static() {
            let row = &e.decoded[id.index()];
            let srcs: Vec<Reg> = [inst.src1, inst.src2]
                .into_iter()
                .flatten()
                .filter(|r| !r.is_zero())
                .collect();
            let handle = e.imap.index_of_handle(id);
            let expected = StaticOp {
                pc: p.pc_of(id),
                op: inst.op,
                srcs: row.srcs,
                n_srcs: srcs.len() as u8,
                dest: inst.def(),
                exec_class: inst.op.exec_class(),
                latency: inst.op.latency(),
                is_load: inst.op.is_load(),
                is_store: inst.op.is_store(),
                is_control: inst.op.is_control(),
                needs_iq: !inst.op.is_uncond_control() && inst.op != Opcode::Nop,
                tagged: inst.mg.is_some(),
                handle: handle.map(|i| (i, e.imap.instances[i as usize].template)),
            };
            assert_eq!(*row, expected, "{id}: {inst:?}");
            assert_eq!(&row.srcs[..row.n_srcs as usize], &srcs[..], "{id}");
        }
        // The program covers every kind of row, and the run takes every
        // fetch path through the table: handles, then outlined groups.
        let rows = &e.decoded;
        assert_eq!(rows.iter().filter(|r| r.handle.is_some()).count(), 2);
        let outlined = |r: &&StaticOp| r.tagged && r.handle.is_none();
        assert!(rows.iter().filter(outlined).any(|r| r.is_load));
        assert!(rows.iter().filter(outlined).any(|r| r.is_control));
        assert!(rows.iter().any(|r| r.is_store));
        assert!(rows.iter().any(|r| r.op == Opcode::Call && !r.needs_iq));
        assert!(rows.iter().any(|r| r.op == Opcode::Ret));
        assert!(p
            .iter_static()
            .any(|(_, i)| [i.src1, i.src2].contains(&Some(Reg::ZERO))));
        for cfg in [cfg.clone(), MachineConfig::baseline()] {
            let r = simulate(&p, &t, &cfg, SimOptions::default());
            assert_eq!(r.stats.committed_instrs, t.len() as u64);
        }
    }

    #[test]
    fn cycle_cap_halts_simulation_cleanly() {
        let p = chain_loop(12, 400);
        let (t, _) = Executor::new(&p).run().unwrap();
        let cfg = MachineConfig::baseline();
        let mut e = Engine::new(&p, &t, &cfg, SimOptions::default());
        e.max_cycles = 50;
        let r = e.run();
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
