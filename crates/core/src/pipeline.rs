//! End-to-end mini-graph preparation: profile → enumerate → filter →
//! select → rewrite.

use crate::candidate::{Candidate, SelectionConfig};
use crate::rewrite::{rewrite_with, RewriteError, Schedules};
use crate::select::{select_admitted, PoolIndex, Selector};
use mg_isa::Program;
use mg_sim::{simulate, MachineConfig, SimOptions, SimStats, SlackProfile};
use mg_workloads::{ExecError, Executor, Trace, Workload};

/// Everything produced by preparing a workload with a selector.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The rewritten (tagged) program.
    pub program: Program,
    /// The order the rewrite gave each reordered block; projects the
    /// original program's trace onto the rewritten one
    /// ([`Schedules::project`]).
    pub schedules: Schedules,
    /// Number of embedded instances.
    pub instances: usize,
    /// Number of MGT templates used.
    pub templates: usize,
    /// Coverage estimated from the profiling trace.
    pub est_coverage: f64,
}

/// The outcome of a profiling run: the committed trace, per-static
/// frequencies and local slack profile the selectors train on, plus the
/// run's own statistics. Recording the slack profile perturbs no timing,
/// so `stats` and `hit_cycle_cap` are those of a plain [`simulate`] of
/// the same program and trace on the same machine.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Committed-path trace of the profiled workload.
    pub trace: Trace,
    /// Per-static execution frequencies.
    pub freqs: Vec<u64>,
    /// Local slack profile.
    pub slack: SlackProfile,
    /// Statistics of the profiling simulation.
    pub stats: SimStats,
    /// Whether the profiling simulation hit its cycle cap.
    pub hit_cycle_cap: bool,
}

/// Profiles a workload on `cfg`: executes it functionally, then runs one
/// slack-profiling timing simulation. Fails if the workload's functional
/// execution fails.
pub fn try_profile(workload: &Workload, cfg: &MachineConfig) -> Result<Profile, ExecError> {
    let (trace, _) = Executor::new(&workload.program).run_with_mem(&workload.init_mem)?;
    Ok(profile_trace(&workload.program, trace, cfg))
}

/// The profiling half of [`try_profile`]: one slack-profiling timing
/// simulation of `program` driving its committed `trace`, already
/// executed.
pub fn profile_trace(program: &Program, trace: Trace, cfg: &MachineConfig) -> Profile {
    let freqs = trace.static_freqs(program);
    let result = simulate(
        program,
        &trace,
        cfg,
        SimOptions {
            profile_slack: true,
            ..SimOptions::default()
        },
    );
    Profile {
        trace,
        freqs,
        slack: result.slack.expect("profiling requested"),
        stats: result.stats,
        hit_cycle_cap: result.hit_cycle_cap,
    }
}

/// [`try_profile`] without the run's statistics, panicking on failure:
/// returns the committed trace, per-static frequencies, and the local
/// slack profile.
///
/// # Panics
///
/// Panics if the workload fails to execute (generated workloads always
/// run to completion).
pub fn profile_workload(
    workload: &Workload,
    cfg: &MachineConfig,
) -> (Trace, Vec<u64>, SlackProfile) {
    let p = try_profile(workload, cfg).expect("workload executes");
    (p.trace, p.freqs, p.slack)
}

/// Enumerates, filters, selects, and rewrites in one call. Fails when
/// the rewrite cannot embed the selected instances — the selector
/// validates its choices, so an error indicates an internal invariant
/// violation worth reporting rather than panicking over.
pub fn try_prepare(
    program: &Program,
    freqs: &[u64],
    selector: &Selector,
    cfg: &SelectionConfig,
) -> Result<Prepared, RewriteError> {
    let (pool, index) = PoolIndex::enumerate(program, cfg);
    try_prepare_indexed(program, &pool, &index, freqs, selector, cfg)
}

/// [`try_prepare`] over an already enumerated and indexed starting pool
/// (as returned by [`PoolIndex::enumerate`] for the same `program` and
/// `cfg`). Every selector is a policy over the same pool, so callers
/// running several selectors on one program enumerate and index once
/// (templates and block dependence graphs) and pass the pool to each.
/// A selection computes only its admitted mask, its greedy pass and its
/// rewrite; no candidate outside the chosen set is cloned.
pub fn try_prepare_indexed(
    program: &Program,
    pool: &[Candidate],
    index: &PoolIndex,
    freqs: &[u64],
    selector: &Selector,
    cfg: &SelectionConfig,
) -> Result<Prepared, RewriteError> {
    let admitted = selector.admitted(program, pool);
    let result = select_admitted(program, pool, index, &admitted, freqs, cfg);
    let (program, schedules) = rewrite_with(program, &result.chosen, index.deps())?;
    Ok(Prepared {
        program,
        schedules,
        instances: result.chosen.len(),
        templates: result.templates,
        est_coverage: result.est_coverage,
    })
}

/// Panicking wrapper around [`try_prepare`].
///
/// # Panics
///
/// Panics if the rewrite fails; see [`try_prepare`].
pub fn prepare(
    program: &Program,
    freqs: &[u64],
    selector: &Selector,
    cfg: &SelectionConfig,
) -> Prepared {
    match try_prepare(program, freqs, selector, cfg) {
        Ok(p) => p,
        Err(e) => panic!("prepare failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::enumerate;
    use crate::rewrite::try_rewrite;
    use crate::select::{greedy_select, SlackProfileModel, SpKind};
    use mg_workloads::benchmark;

    #[test]
    fn end_to_end_on_a_real_benchmark() {
        let spec = benchmark("mib_crc32").unwrap();
        let w = spec.generate();
        let cfg = MachineConfig::reduced();
        let (trace, freqs, slack) = profile_workload(&w, &cfg);
        assert!(!trace.is_empty());

        let sel_cfg = SelectionConfig::default();
        let all = prepare(&w.program, &freqs, &Selector::StructAll, &sel_cfg);
        let none = prepare(&w.program, &freqs, &Selector::StructNone, &sel_cfg);
        let sp = prepare(
            &w.program,
            &freqs,
            &Selector::SlackProfile(Default::default(), slack),
            &sel_cfg,
        );
        assert!(all.est_coverage > none.est_coverage);
        assert!(sp.est_coverage >= none.est_coverage);
        assert!(sp.est_coverage <= all.est_coverage + 1e-9);
        assert!(all.instances > 0 && none.instances > 0);

        // Rewritten programs preserve semantics.
        let (t0, s0) = Executor::new(&w.program).run_with_mem(&w.init_mem).unwrap();
        let (t1, s1) = Executor::new(&all.program)
            .run_with_mem(&w.init_mem)
            .unwrap();
        assert_eq!(t0.len(), t1.len());
        // The link register holds a layout-dependent return token; all
        // data registers must match exactly.
        assert_eq!(s0.regs[..31], s1.regs[..31]);
    }

    #[test]
    fn profiling_run_has_the_plain_runs_stats() {
        let w = benchmark("mib_crc32").unwrap().generate();
        let cfg = MachineConfig::reduced();
        let profile = try_profile(&w, &cfg).unwrap();
        let plain = simulate(&w.program, &profile.trace, &cfg, SimOptions::default());
        assert_eq!(profile.stats, plain.stats);
        assert_eq!(profile.hit_cycle_cap, plain.hit_cycle_cap);
        let (trace, freqs, slack) = profile_workload(&w, &cfg);
        assert_eq!(trace.len(), profile.trace.len());
        assert_eq!(freqs, profile.freqs);
        assert_eq!(format!("{slack:?}"), format!("{:?}", profile.slack));
    }

    #[test]
    fn prepare_from_a_shared_pool_matches_prepare() {
        let spec = benchmark("mib_crc32").unwrap();
        let w = spec.generate();
        let (_, freqs, slack) = profile_workload(&w, &MachineConfig::reduced());
        let sel_cfg = SelectionConfig::default();
        let sp = |kind| {
            Selector::SlackProfile(
                SlackProfileModel {
                    kind,
                    ..Default::default()
                },
                slack.clone(),
            )
        };
        let selectors = [
            Selector::StructAll,
            Selector::StructNone,
            Selector::StructBounded,
            sp(SpKind::Full),
            sp(SpKind::DelayOnly),
            sp(SpKind::Sial),
            Selector::SlackProfile(SlackProfileModel::miss_aware(), slack.clone()),
        ];
        let (pool, index) = PoolIndex::enumerate(&w.program, &sel_cfg);
        // One indexed pool serves every selector, each compared with
        // `try_prepare` and with the stage-by-stage public calls it
        // replaces.
        for selector in &selectors {
            let direct = try_prepare(&w.program, &freqs, selector, &sel_cfg).unwrap();
            let shared =
                try_prepare_indexed(&w.program, &pool, &index, &freqs, selector, &sel_cfg).unwrap();
            let admitted = selector.filter(&w.program, enumerate(&w.program, &sel_cfg));
            let staged = greedy_select(&w.program, &admitted, &freqs, &sel_cfg);
            let staged_program = try_rewrite(&w.program, &staged.chosen).unwrap();
            let name = selector.name();
            // `Program` has no `PartialEq`; its `Debug` form is complete.
            let shared_program = format!("{:?}", shared.program);
            assert_eq!(shared_program, format!("{:?}", direct.program), "{name}");
            assert_eq!(shared_program, format!("{staged_program:?}"), "{name}");
            assert_eq!(shared.schedules, direct.schedules, "{name}");
            assert_eq!(shared.instances, staged.chosen.len(), "{name}");
            assert_eq!(shared.instances, direct.instances, "{name}");
            assert_eq!(shared.templates, direct.templates, "{name}");
            assert_eq!(
                shared.est_coverage.to_bits(),
                direct.est_coverage.to_bits(),
                "{name}"
            );
        }
    }
}
