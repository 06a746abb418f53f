//! The differential harness: oracle vs. pipeline vs. engine.
//!
//! For each seed the harness generates a workload, establishes ground
//! truth by running the functional [`Executor`] (the *oracle*), then
//! pushes the program through the full mini-graph pipeline under each
//! selector variant and checks, per variant:
//!
//! 1. every *selected* candidate independently satisfies the paper's
//!    legality constraints ([`check_candidate`]);
//! 2. the rewrite succeeds and the rewritten program re-validates through
//!    `mg-isa`'s structural validator from scratch ([`revalidate`]);
//! 3. original and rewritten programs are semantically equivalent
//!    (bit-identical final registers and memory, via
//!    [`check_semantics_preserved`]);
//! 4. the cycle-level engine commits exactly the traced instruction
//!    count and stays under its cycle cap;
//! 5. an independent functional replay of the committed trace
//!    ([`replay_committed`]) reproduces the rewritten program's final
//!    architectural state bit-for-bit, and agrees with the oracle;
//! 6. the oracle's trace projected through the rewrite's block orders
//!    ([`Schedules::project`](mg_core::Schedules::project), what the
//!    sweep harness simulates instead of re-executing) equals the
//!    rewritten program's executed trace, instruction for instruction.
//!
//! Panics anywhere in a variant run are caught and reported as
//! counterexamples, never propagated: "the fuzzer found a panic" is a
//! result, not a crash.

use crate::gen::{generate, GenConfig};
use crate::invariants::{check_candidate, revalidate, InvariantViolation};
use mg_core::{
    check_semantics_preserved, enumerate, greedy_select, rewrite_with, BlockDepsCache,
    RewriteError, SelectionConfig, Selector, SemanticsViolation, SlackProfileModel,
};
use mg_isa::IsaError;
use mg_sim::{
    replay_committed, simulate, DynMgConfig, MachineConfig, MgConfig, ReplayError, SimOptions,
};
use mg_workloads::{ExecError, Executor, Workload};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One of the five checked pipeline configurations.
///
/// The first four are static selectors; `Slack-Dynamic` uses the
/// `Struct-All` static pool plus the run-time controller in
/// [`mg_sim::dynmg`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Reject every potentially-serializing candidate.
    StructNone,
    /// Admit every candidate.
    StructAll,
    /// Reject only unbounded serialization.
    StructBounded,
    /// Profile-driven slack admission.
    SlackProfile,
    /// `Struct-All` pool + run-time disable controller.
    SlackDynamic,
}

impl Variant {
    /// All five variants, in sweep order.
    pub const ALL: [Variant; 5] = [
        Variant::StructNone,
        Variant::StructAll,
        Variant::StructBounded,
        Variant::SlackProfile,
        Variant::SlackDynamic,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::StructNone => "Struct-None",
            Variant::StructAll => "Struct-All",
            Variant::StructBounded => "Struct-Bounded",
            Variant::SlackProfile => "Slack-Profile",
            Variant::SlackDynamic => "Slack-Dynamic",
        }
    }

    /// Parses a display name (as printed by [`Variant::name`]).
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// Configuration of a differential run.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Program-generator knobs.
    pub gen: GenConfig,
    /// Selection constraints (the paper's defaults).
    pub sel: SelectionConfig,
    /// Machine model for the timing runs.
    pub machine: MachineConfig,
    /// Dynamic-instruction limit for the functional executor; reaching
    /// it is reported as a generator bug, not silently truncated.
    pub exec_limit: usize,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            gen: GenConfig::default(),
            sel: SelectionConfig::default(),
            machine: MachineConfig::reduced(),
            exec_limit: 10_000_000,
        }
    }
}

impl DiffConfig {
    /// Default knobs with the adversarial generator shapes enabled.
    pub fn adversarial() -> DiffConfig {
        DiffConfig {
            gen: GenConfig::adversarial(),
            ..DiffConfig::default()
        }
    }
}

/// What went wrong for one (seed, variant) run.
#[derive(Clone, Debug, PartialEq)]
pub enum MismatchKind {
    /// The oracle itself failed — a generator bug.
    OracleFailed(ExecError),
    /// The oracle hit the dynamic-instruction limit — a generator bug.
    OracleTruncated,
    /// A *selected* candidate violates a legality constraint.
    Invariant {
        /// Block-relative positions of the offending candidate.
        positions: Vec<usize>,
        /// Every violated constraint.
        violations: Vec<InvariantViolation>,
    },
    /// The rewriter rejected the selection.
    Rewrite(RewriteError),
    /// The rewritten program failed structural re-validation.
    Revalidate(IsaError),
    /// Original and rewritten programs diverge functionally.
    Semantics(SemanticsViolation),
    /// The rewritten program failed under the functional executor.
    RewrittenFailed(ExecError),
    /// The rewritten program hit the dynamic-instruction limit.
    RewrittenTruncated,
    /// The engine committed a different number of instructions than the
    /// trace contains.
    CommitCount {
        /// `SimStats::committed_instrs`.
        committed: u64,
        /// Length of the driving trace.
        trace_len: u64,
    },
    /// The engine hit its cycle cap (deadlock or runaway model).
    CycleCap,
    /// The committed trace does not replay functionally.
    Replay(ReplayError),
    /// The replayed architectural state disagrees with the executor's.
    ReplayStateDiff {
        /// Human-readable description of the first difference.
        detail: String,
    },
    /// The oracle's trace projected through the rewrite differs from the
    /// rewritten program's executed trace.
    Projection {
        /// Human-readable description of the first difference.
        detail: String,
    },
    /// A panic escaped some pipeline stage.
    Panic(String),
}

impl MismatchKind {
    /// Coarse bucket used by the shrinker to decide whether a reduced
    /// input still exhibits "the same" failure.
    pub fn bucket(&self) -> &'static str {
        match self {
            MismatchKind::OracleFailed(_) => "oracle-failed",
            MismatchKind::OracleTruncated => "oracle-truncated",
            MismatchKind::Invariant { .. } => "invariant",
            MismatchKind::Rewrite(_) => "rewrite",
            MismatchKind::Revalidate(_) => "revalidate",
            MismatchKind::Semantics(_) => "semantics",
            MismatchKind::RewrittenFailed(_) => "rewritten-failed",
            MismatchKind::RewrittenTruncated => "rewritten-truncated",
            MismatchKind::CommitCount { .. } => "commit-count",
            MismatchKind::CycleCap => "cycle-cap",
            MismatchKind::Replay(_) => "replay",
            MismatchKind::ReplayStateDiff { .. } => "replay-state",
            MismatchKind::Projection { .. } => "projection",
            MismatchKind::Panic(_) => "panic",
        }
    }
}

impl fmt::Display for MismatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MismatchKind::OracleFailed(e) => write!(f, "oracle failed: {e}"),
            MismatchKind::OracleTruncated => write!(f, "oracle hit the instruction limit"),
            MismatchKind::Invariant {
                positions,
                violations,
            } => {
                write!(f, "selected candidate {positions:?} is illegal:")?;
                for v in violations {
                    write!(f, " [{v}]")?;
                }
                Ok(())
            }
            MismatchKind::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            MismatchKind::Revalidate(e) => write!(f, "rewritten program invalid: {e}"),
            MismatchKind::Semantics(v) => write!(f, "semantics diverged: {v}"),
            MismatchKind::RewrittenFailed(e) => write!(f, "rewritten program failed: {e}"),
            MismatchKind::RewrittenTruncated => {
                write!(f, "rewritten program hit the instruction limit")
            }
            MismatchKind::CommitCount {
                committed,
                trace_len,
            } => write!(
                f,
                "engine committed {committed} instrs, trace has {trace_len}"
            ),
            MismatchKind::CycleCap => write!(f, "engine hit its cycle cap"),
            MismatchKind::Replay(e) => write!(f, "committed trace does not replay: {e}"),
            MismatchKind::ReplayStateDiff { detail } => {
                write!(f, "replayed state disagrees: {detail}")
            }
            MismatchKind::Projection { detail } => {
                write!(f, "projected trace differs from re-execution: {detail}")
            }
            MismatchKind::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// A minimized, reproducible failure report.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Generator seed.
    pub seed: u64,
    /// Variant display name (or `"oracle"` for pre-variant failures).
    pub variant: &'static str,
    /// What went wrong.
    pub kind: MismatchKind,
    /// Disassembly of the (possibly shrunk) generated program.
    pub program: String,
    /// Initial memory image of the failing workload.
    pub init_mem: Vec<(u64, u64)>,
    /// One-line command that reproduces this failure.
    pub repro: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {} / {}: {}", self.seed, self.variant, self.kind)?;
        writeln!(f, "repro: {}", self.repro)?;
        if !self.init_mem.is_empty() {
            writeln!(f, "init mem: {:?}", self.init_mem)?;
        }
        write!(f, "{}", self.program)
    }
}

/// The one-line repro command embedded in every counterexample.
pub fn repro_command(seed: u64, variant: &str, adversarial: bool) -> String {
    let adv = if adversarial { " --adversarial" } else { "" };
    format!(
        "cargo run -p mg-bench --release --bin verify -- --seed {seed} --selector {variant}{adv}"
    )
}

fn describe_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the oracle for a workload: functional execution with a limit.
fn oracle(
    w: &Workload,
    cfg: &DiffConfig,
) -> Result<(mg_workloads::Trace, mg_workloads::ArchState), MismatchKind> {
    let (trace, state) = Executor::new(&w.program)
        .with_limit(cfg.exec_limit)
        .run_with_mem(&w.init_mem)
        .map_err(MismatchKind::OracleFailed)?;
    if trace.truncated {
        return Err(MismatchKind::OracleTruncated);
    }
    Ok((trace, state))
}

/// Runs one workload through one pipeline variant and checks every
/// differential property. `Ok(())` means the variant is clean on this
/// input.
///
/// # Errors
///
/// Returns the first [`MismatchKind`] detected.
pub fn run_variant(w: &Workload, variant: Variant, cfg: &DiffConfig) -> Result<(), MismatchKind> {
    let (otrace, ostate) = oracle(w, cfg)?;
    let freqs = otrace.static_freqs(&w.program);

    let selector = match variant {
        Variant::StructNone => Selector::StructNone,
        Variant::StructAll | Variant::SlackDynamic => Selector::StructAll,
        Variant::StructBounded => Selector::StructBounded,
        Variant::SlackProfile => {
            let profiled = simulate(
                &w.program,
                &otrace,
                &cfg.machine,
                SimOptions {
                    profile_slack: true,
                    ..SimOptions::default()
                },
            );
            let slack = profiled
                .slack
                .expect("profile run collects a slack profile");
            Selector::SlackProfile(SlackProfileModel::default(), slack)
        }
    };

    let pool = selector.filter(&w.program, enumerate(&w.program, &cfg.sel));
    let selection = greedy_select(&w.program, &pool, &freqs, &cfg.sel);

    for ci in &selection.chosen {
        let violations = check_candidate(&w.program, &ci.candidate, &cfg.sel);
        if !violations.is_empty() {
            return Err(MismatchKind::Invariant {
                positions: ci.candidate.positions.clone(),
                violations,
            });
        }
    }

    let (rewritten, schedules) = rewrite_with(
        &w.program,
        &selection.chosen,
        &BlockDepsCache::new(&w.program),
    )
    .map_err(MismatchKind::Rewrite)?;
    revalidate(&rewritten).map_err(MismatchKind::Revalidate)?;

    if let Some(v) = check_semantics_preserved(&w.program, &rewritten, &w.init_mem) {
        return Err(MismatchKind::Semantics(v));
    }
    let (rtrace, rstate) = Executor::new(&rewritten)
        .with_limit(cfg.exec_limit)
        .run_with_mem(&w.init_mem)
        .map_err(MismatchKind::RewrittenFailed)?;
    if rtrace.truncated {
        return Err(MismatchKind::RewrittenTruncated);
    }
    check_projection(&schedules.project(&w.program, &otrace), &rtrace)?;

    let mg_machine = cfg.machine.clone().with_mg(MgConfig::paper());
    let opts = SimOptions {
        dyn_mg: (variant == Variant::SlackDynamic).then(DynMgConfig::slack_dynamic),
        ..SimOptions::default()
    };
    let result = simulate(&rewritten, &rtrace, &mg_machine, opts);
    if result.hit_cycle_cap {
        return Err(MismatchKind::CycleCap);
    }
    if result.stats.committed_instrs != rtrace.len() as u64 {
        return Err(MismatchKind::CommitCount {
            committed: result.stats.committed_instrs,
            trace_len: rtrace.len() as u64,
        });
    }

    // Independent functional replay of the committed trace must land on
    // the executor's exact final state...
    let replayed =
        replay_committed(&rewritten, &rtrace, &w.init_mem).map_err(MismatchKind::Replay)?;
    if replayed.regs != rstate.regs {
        let r = (0..rstate.regs.len())
            .find(|&i| replayed.regs[i] != rstate.regs[i])
            .unwrap();
        return Err(MismatchKind::ReplayStateDiff {
            detail: format!(
                "R{r}: replay {:#x}, executor {:#x}",
                replayed.regs[r], rstate.regs[r]
            ),
        });
    }
    if replayed.mem != rstate.mem {
        return Err(MismatchKind::ReplayStateDiff {
            detail: "memory image differs from executor".to_string(),
        });
    }
    // ...and agree with the oracle everywhere but the layout-dependent
    // link register (the rewrite moves code, so return addresses differ).
    let n = ostate.regs.len() - 1;
    if replayed.regs[..n] != ostate.regs[..n] || replayed.mem != ostate.mem {
        return Err(MismatchKind::ReplayStateDiff {
            detail: "state differs from the original-program oracle".to_string(),
        });
    }
    Ok(())
}

/// Compares a projected trace with the executed one.
fn check_projection(
    projected: &mg_workloads::Trace,
    executed: &mg_workloads::Trace,
) -> Result<(), MismatchKind> {
    let detail = if projected.truncated != executed.truncated {
        format!(
            "truncated: projected {}, executed {}",
            projected.truncated, executed.truncated
        )
    } else if let Some(k) =
        (0..projected.len().min(executed.len())).find(|&k| projected.insts[k] != executed.insts[k])
    {
        format!(
            "dynamic instruction {k}: projected {:?}, executed {:?}",
            projected.insts[k], executed.insts[k]
        )
    } else if projected.len() != executed.len() {
        format!(
            "length: projected {}, executed {}",
            projected.len(),
            executed.len()
        )
    } else {
        return Ok(());
    };
    Err(MismatchKind::Projection { detail })
}

/// [`run_variant`] with panics converted into [`MismatchKind::Panic`].
pub fn run_variant_caught(
    w: &Workload,
    variant: Variant,
    cfg: &DiffConfig,
) -> Result<(), MismatchKind> {
    match catch_unwind(AssertUnwindSafe(|| run_variant(w, variant, cfg))) {
        Ok(r) => r,
        Err(payload) => Err(MismatchKind::Panic(describe_panic(payload))),
    }
}

/// Runs one seed under every variant, shrinking each failure before
/// reporting it. Returns every counterexample found (empty = clean).
pub fn run_seed(seed: u64, cfg: &DiffConfig) -> Vec<Counterexample> {
    run_seed_variants(seed, cfg, &Variant::ALL)
}

/// [`run_seed`] restricted to a subset of variants (the `--selector`
/// flag of the `verify` binary).
pub fn run_seed_variants(seed: u64, cfg: &DiffConfig, variants: &[Variant]) -> Vec<Counterexample> {
    let workload = match catch_unwind(AssertUnwindSafe(|| generate(seed, &cfg.gen))) {
        Ok(w) => w,
        Err(payload) => {
            return vec![Counterexample {
                seed,
                variant: "generator",
                kind: MismatchKind::Panic(describe_panic(payload)),
                program: String::new(),
                init_mem: Vec::new(),
                repro: repro_command(seed, "Struct-All", cfg.gen.adversarial),
            }]
        }
    };
    let mut out = Vec::new();
    for &variant in variants {
        if let Err(kind) = run_variant_caught(&workload, variant, cfg) {
            let bucket = kind.bucket();
            let shrunk = crate::shrink::shrink_workload(&workload, |cand| {
                run_variant_caught(cand, variant, cfg)
                    .err()
                    .is_some_and(|k| k.bucket() == bucket)
            });
            out.push(Counterexample {
                seed,
                variant: variant.name(),
                kind,
                program: format!("{}", shrunk.program),
                init_mem: shrunk.init_mem.clone(),
                repro: repro_command(seed, variant.name(), cfg.gen.adversarial),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_round_trip() {
        for v in Variant::ALL {
            assert_eq!(Variant::from_name(v.name()), Some(v));
        }
        assert_eq!(Variant::from_name("bogus"), None);
    }

    #[test]
    fn a_healthy_seed_is_clean_under_all_variants() {
        let cfg = DiffConfig::default();
        assert!(run_seed(3, &cfg).is_empty());
    }

    #[test]
    fn an_adversarial_seed_is_clean_under_all_variants() {
        let cfg = DiffConfig::adversarial();
        assert!(run_seed(5, &cfg).is_empty());
    }

    #[test]
    fn non_terminating_input_is_reported_not_hung() {
        // A hand-built infinite loop: the oracle must hit the
        // instruction limit and the harness must report it as a typed
        // mismatch instead of spinning or panicking.
        use mg_isa::{BrCond, Instruction, ProgramBuilder, Reg};
        let mut pb = ProgramBuilder::new("spin");
        let f = pb.func("main");
        let head = pb.block(f);
        pb.push(head, Instruction::li(Reg::R1, 1));
        let body = pb.block(f);
        pb.set_fallthrough(head, body);
        pb.push(body, Instruction::addi(Reg::R2, Reg::R2, 1));
        pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
        let tail = pb.block(f);
        pb.set_fallthrough(body, tail);
        pb.push(tail, Instruction::halt());
        let w = Workload {
            program: pb.build().unwrap(),
            init_mem: Vec::new(),
        };
        let cfg = DiffConfig {
            exec_limit: 1_000,
            ..DiffConfig::default()
        };
        let r = run_variant_caught(&w, Variant::StructAll, &cfg);
        assert_eq!(r, Err(MismatchKind::OracleTruncated));
    }
}
