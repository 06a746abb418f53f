//! The traced replay: rebuilds a workload's work from the public calls of
//! each layer, one span per call.
//!
//! The context path copies `mg_bench`'s cache miss path (generate and
//! execute the train input, count frequencies, profile, then generate and
//! execute the run input) and the cell path copies
//! `BenchContext::prepare_sim` plus the `SchemeRun` condensation,
//! including the harness's private scheme → selector and dynamic-config
//! mapping. The row digest of a traced run must equal the harness's, so
//! any drift between this copy and the harness fails the run.
//!
//! Every per-layer metric describes this copy, not the harness itself. The
//! digest catches changes to outputs, not to how the work is done: a
//! change that restructures the harness (sharing `prepare` across schemes,
//! say) must make the same change here, or its gain will not show per
//! layer.

use crate::report::Report;
use crate::spans::{self, Conservation, Recorder, Span};
use crate::JOBS;
use mg_bench::{BenchContext, BenchError, Scheme, SchemeRun, SweepCell};
use mg_core::{enumerate, greedy_select, try_rewrite, SelectionConfig, Selector};
use mg_core::{SlackProfileModel, SpKind};
use mg_sim::{simulate, DynMgConfig, MachineConfig, MgConfig, SimOptions, SlackProfile};
use mg_workloads::{BenchmarkSpec, Executor, Trace, Workload};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Most of the workers' wall time a traced run may leave unattributed.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// Collects spans and counts over the parallel phases of a traced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    pub counts: Counts,
    cons: Conservation,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: Counts::default(),
            cons: Conservation::default(),
        }
    }

    /// Runs `f` over `items` on the sweep runner's worker pool
    /// (`mg_bench::par_map`, [`JOBS`] workers), each call inside a root
    /// `task` span labelled `label/<index>`. Returns the outputs in item
    /// order and the phase's wall time.
    pub fn phase<T, R, F>(&mut self, label: &str, items: &[T], f: F) -> (Vec<R>, Duration)
    where
        T: Sync,
        R: Send,
        F: Fn(&mut Recorder, &mut Counts, usize, &T) -> R + Sync,
    {
        let t0 = self.t0;
        let start = Instant::now();
        let start_ns = (start - t0).as_nanos() as u64;
        let outputs = mg_bench::par_map(items, JOBS, |i, item| {
            let mut rec = Recorder::new(t0);
            let mut counts = Counts::default();
            let task = rec.begin("task", format!("{label}/{i}"));
            let out = f(&mut rec, &mut counts, i, item);
            rec.end(task);
            (out, rec.finish(), counts)
        });
        let wall = start.elapsed();
        let mut phase_spans = Vec::new();
        let results = outputs
            .into_iter()
            .map(|(out, task_spans, counts)| {
                spans::absorb(&mut phase_spans, task_spans);
                self.counts.merge(counts);
                out
            })
            .collect();
        self.cons.add_phase(
            start_ns,
            start_ns + wall.as_nanos() as u64,
            JOBS,
            &phase_spans,
        );
        spans::absorb(&mut self.spans, phase_spans);
        (results, wall)
    }

    /// Folds spans and counts into the per-layer metrics shared by every
    /// workload. `overhead` is traced wall over untraced wall of the same
    /// work.
    pub fn report(&self, rep: &mut Report, overhead: f64) {
        let selfs = spans::self_times(&self.spans);
        let by = spans::self_by_name(&self.spans, &selfs);
        let s = |names: &[&str]| -> f64 {
            names
                .iter()
                .map(|n| by.get(n).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / 1e9
        };
        let c = &self.counts;
        rep.set("workloads.gen_s", s(&["gen"]));
        rep.set("workloads.exec_s", s(&["exec", "freqs"]));
        rep.set("workloads.reexec_s", s(&["reexec"]));
        rep.set("workloads.exec_calls", c.exec_calls as f64);
        rep.set("workloads.exec_distinct", c.exec_keys.len() as f64);
        rep.set("sim.profile_s", s(&["profile"]));
        rep.set("sim.engine_s", s(&["simulate"]));
        rep.set(
            "sim.ns_per_cycle",
            s(&["simulate"]) * 1e9 / c.cycles.max(1) as f64,
        );
        rep.set("sim.cycles", c.cycles as f64);
        rep.set("sim.instrs", c.instrs as f64);
        rep.set("core.enumerate_s", s(&["enumerate"]));
        rep.set("core.filter_s", s(&["filter"]));
        rep.set("core.select_s", s(&["select"]));
        rep.set("core.rewrite_s", s(&["rewrite"]));
        rep.set("core.prepare_calls", c.prepare_calls as f64);
        rep.set("core.prepare_distinct", c.prepare_keys.len() as f64);
        rep.set("core.candidates", c.candidates as f64);
        rep.set("core.chosen", c.chosen as f64);
        let inclusive = spans::inclusive_by_name(&self.spans);
        rep.set(
            "cache.context_s",
            inclusive.get("context").copied().unwrap_or(0) as f64 / 1e9,
        );
        rep.set("journal.store_s", s(&["journal.store"]));
        rep.set("journal.resume_s", s(&["journal.load"]));
        let unattributed = self.cons.unattributed_share();
        rep.set("trace.unattributed_share", unattributed);
        rep.set("trace.overhead_ratio", overhead);
        for (name, ns) in &by {
            rep.extra(format!("trace.self_s.{name}"), *ns as f64 / 1e9, "s");
        }
        rep.check(unattributed <= MAX_UNATTRIBUTED, || {
            format!(
                "{:.1}% of worker time is unattributed (limit {:.0}%)",
                100.0 * unattributed,
                100.0 * MAX_UNATTRIBUTED
            )
        });
        rep.check(c.invariant_errors.is_empty(), || {
            format!("SimStats invariants broken: {:?}", c.invariant_errors)
        });
    }

    pub fn spans_json(&self) -> serde::Value {
        spans::to_json(&self.spans)
    }
}

/// A benchmark context: what the cells of one benchmark share.
pub struct Ctx {
    pub workload: Workload,
    pub trace: Trace,
    pub freqs: Vec<u64>,
    pub slack: SlackProfile,
}

/// Work counts gathered beside the spans.
#[derive(Default)]
pub struct Counts {
    pub exec_calls: u64,
    pub exec_keys: BTreeSet<String>,
    pub prepare_calls: u64,
    pub prepare_keys: BTreeSet<String>,
    pub candidates: u64,
    pub chosen: u64,
    pub cycles: u64,
    pub instrs: u64,
    /// `SimStats::check_invariants` failures.
    pub invariant_errors: Vec<String>,
}

impl Counts {
    pub fn merge(&mut self, other: Counts) {
        self.exec_calls += other.exec_calls;
        self.exec_keys.extend(other.exec_keys);
        self.prepare_calls += other.prepare_calls;
        self.prepare_keys.extend(other.prepare_keys);
        self.candidates += other.candidates;
        self.chosen += other.chosen;
        self.cycles += other.cycles;
        self.instrs += other.instrs;
        self.invariant_errors.extend(other.invariant_errors);
    }

    fn exec(&mut self, key: String) {
        self.exec_calls += 1;
        self.exec_keys.insert(key);
    }
}

fn bench_key(spec: &BenchmarkSpec) -> String {
    format!("{}@{}", spec.name, spec.params.target_dyn)
}

fn exec_err(spec: &BenchmarkSpec, stage: &str, e: mg_workloads::ExecError) -> BenchError {
    BenchError::Exec {
        bench: spec.name.clone(),
        stage: stage.to_string(),
        detail: e.to_string(),
    }
}

/// A context built the way a cache miss builds it.
pub fn cold_context(
    rec: &mut Recorder,
    counts: &mut Counts,
    spec: &BenchmarkSpec,
    train: &MachineConfig,
) -> Result<Ctx, BenchError> {
    let span = rec.begin("context", spec.name.clone());
    let out = (|| {
        let input = spec.primary_input();
        let train_w = rec.time("gen", || spec.generate_with_input(&input));
        counts.exec(bench_key(spec));
        let (train_trace, _) = rec
            .time("exec", || {
                Executor::new(&train_w.program).run_with_mem(&train_w.init_mem)
            })
            .map_err(|e| exec_err(spec, "train-input execution", e))?;
        let freqs = rec.time("freqs", || train_trace.static_freqs(&train_w.program));
        let opts = SimOptions {
            profile_slack: true,
            ..SimOptions::default()
        };
        let profiled = rec.time("profile", || {
            simulate(&train_w.program, &train_trace, train, opts)
        });
        let slack = profiled.slack.expect("profiling requested");
        let workload = rec.time("gen", || spec.generate_with_input(&input));
        counts.exec(bench_key(spec));
        let (trace, _) = rec
            .time("exec", || {
                Executor::new(&workload.program).run_with_mem(&workload.init_mem)
            })
            .map_err(|e| exec_err(spec, "run-input execution", e))?;
        Ok(Ctx {
            workload,
            trace,
            freqs,
            slack,
        })
    })();
    rec.end(span);
    out
}

/// A context served by the harness's context cache, timed whole.
pub fn cached_context(
    rec: &mut Recorder,
    spec: &BenchmarkSpec,
    train: &MachineConfig,
) -> Result<Ctx, BenchError> {
    let span = rec.begin("context", spec.name.clone());
    let ctx = BenchContext::builder(spec, train).build();
    rec.end(span);
    let ctx = ctx?;
    Ok(Ctx {
        workload: ctx.workload,
        trace: ctx.trace,
        freqs: ctx.freqs,
        slack: ctx.slack,
    })
}

/// The harness's scheme → selector mapping, with a stable tag naming the
/// selection it makes (schemes sharing a tag select identically).
fn selector_for(scheme: Scheme, slack: &SlackProfile) -> Option<(Selector, &'static str)> {
    let sp = |kind| {
        Selector::SlackProfile(
            SlackProfileModel {
                kind,
                ..SlackProfileModel::default()
            },
            slack.clone(),
        )
    };
    match scheme {
        Scheme::NoMg => None,
        Scheme::StructAll
        | Scheme::SlackDynamic
        | Scheme::IdealSlackDynamic
        | Scheme::IdealSlackDynamicDelay
        | Scheme::IdealSlackDynamicSial => Some((Selector::StructAll, "struct-all")),
        Scheme::StructNone => Some((Selector::StructNone, "struct-none")),
        Scheme::StructBounded => Some((Selector::StructBounded, "struct-bounded")),
        Scheme::SlackProfile => Some((sp(SpKind::Full), "sp-full")),
        Scheme::SlackProfileDelay => Some((sp(SpKind::DelayOnly), "sp-delay")),
        Scheme::SlackProfileSial => Some((sp(SpKind::Sial), "sp-sial")),
        Scheme::SlackProfileMem => Some((
            Selector::SlackProfile(SlackProfileModel::miss_aware(), slack.clone()),
            "sp-mem",
        )),
    }
}

/// The harness's scheme → dynamic-disabling mapping.
fn dyn_config(scheme: Scheme) -> Option<DynMgConfig> {
    match scheme {
        Scheme::SlackDynamic => Some(DynMgConfig::slack_dynamic()),
        Scheme::IdealSlackDynamic => Some(DynMgConfig::ideal()),
        Scheme::IdealSlackDynamicDelay => Some(DynMgConfig::ideal_delay()),
        Scheme::IdealSlackDynamicSial => Some(DynMgConfig::ideal_sial()),
        _ => None,
    }
}

/// One cell: select, rewrite, re-execute, simulate, condense.
pub fn run_cell(
    rec: &mut Recorder,
    counts: &mut Counts,
    ctx: &Ctx,
    spec: &BenchmarkSpec,
    cell: &SweepCell,
    cell_idx: usize,
) -> Result<SchemeRun, BenchError> {
    assert!(
        cell.mg.is_none() && cell.sel.is_none(),
        "cells use the default hardware and selection"
    );
    let span = rec.begin("cell", format!("{}/{cell_idx}", spec.name));
    let out = (|| {
        let sel_cfg = SelectionConfig::default();
        let (result, est_coverage) = match selector_for(cell.scheme, &ctx.slack) {
            None => {
                let r = rec.time("simulate", || {
                    simulate(
                        &ctx.workload.program,
                        &ctx.trace,
                        &cell.machine,
                        SimOptions::default(),
                    )
                });
                (r, 0.0)
            }
            Some((selector, tag)) => {
                let program = &ctx.workload.program;
                counts.prepare_calls += 1;
                counts
                    .prepare_keys
                    .insert(format!("{}/{tag}", bench_key(spec)));
                let pool = rec.time("enumerate", || enumerate(program, &sel_cfg));
                counts.candidates += pool.len() as u64;
                let pool = rec.time("filter", || selector.filter(program, pool));
                let chosen = rec.time("select", || {
                    greedy_select(program, &pool, &ctx.freqs, &sel_cfg)
                });
                counts.chosen += chosen.chosen.len() as u64;
                let rewritten = rec
                    .time("rewrite", || try_rewrite(program, &chosen.chosen))
                    .map_err(|e| BenchError::Rewrite {
                        bench: spec.name.clone(),
                        scheme: cell.scheme,
                        detail: e.to_string(),
                    })?;
                counts.exec(format!("{}/{tag}", bench_key(spec)));
                let (trace, _) = rec
                    .time("reexec", || {
                        Executor::new(&rewritten).run_with_mem(&ctx.workload.init_mem)
                    })
                    .map_err(|e| exec_err(spec, "rewritten-program execution", e))?;
                let machine = cell.machine.clone().with_mg(MgConfig::paper());
                let opts = SimOptions {
                    dyn_mg: dyn_config(cell.scheme),
                    ..SimOptions::default()
                };
                let r = rec.time("simulate", || simulate(&rewritten, &trace, &machine, opts));
                (r, chosen.est_coverage)
            }
        };
        let stats = &result.stats;
        if let Err(e) = stats.check_invariants() {
            counts
                .invariant_errors
                .push(format!("{} cell {cell_idx}: {e}", spec.name));
        }
        counts.cycles += stats.cycles;
        counts.instrs += stats.committed_instrs;
        if result.hit_cycle_cap {
            return Err(BenchError::CycleCap {
                bench: spec.name.clone(),
                scheme: cell.scheme,
            });
        }
        Ok(SchemeRun {
            scheme: cell.scheme,
            ipc: result.ipc(),
            cycles: stats.cycles,
            coverage: stats.coverage(),
            est_coverage,
            disabled_templates: stats.disabled_templates,
            serialized_handles: stats.serialized_handles,
            dl1_miss_rate: stats.dl1.miss_rate(),
        })
    })();
    rec.end(span);
    out
}
