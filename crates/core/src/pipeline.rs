//! End-to-end mini-graph preparation: profile → enumerate → filter →
//! select → rewrite.

use crate::candidate::{enumerate, Candidate, SelectionConfig};
use crate::rewrite::{try_rewrite, RewriteError};
use crate::select::{greedy_select, Selector};
use mg_isa::Program;
use mg_sim::{simulate, MachineConfig, SimOptions, SlackProfile};
use mg_workloads::{ExecError, Executor, Trace, Workload};

/// Everything produced by preparing a workload with a selector.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The rewritten (tagged) program.
    pub program: Program,
    /// Number of embedded instances.
    pub instances: usize,
    /// Number of MGT templates used.
    pub templates: usize,
    /// Coverage estimated from the profiling trace.
    pub est_coverage: f64,
}

/// Profiles a workload on `cfg`: returns the committed trace, per-static
/// frequencies, and the local slack profile. Fails if the workload's
/// functional execution fails.
pub fn try_profile_workload(
    workload: &Workload,
    cfg: &MachineConfig,
) -> Result<(Trace, Vec<u64>, SlackProfile), ExecError> {
    let (trace, _) = Executor::new(&workload.program).run_with_mem(&workload.init_mem)?;
    let freqs = trace.static_freqs(&workload.program);
    let result = simulate(
        &workload.program,
        &trace,
        cfg,
        SimOptions {
            profile_slack: true,
            ..SimOptions::default()
        },
    );
    let slack = result.slack.expect("profiling requested");
    Ok((trace, freqs, slack))
}

/// Panicking wrapper around [`try_profile_workload`].
///
/// # Panics
///
/// Panics if the workload fails to execute (generated workloads always
/// run to completion).
pub fn profile_workload(
    workload: &Workload,
    cfg: &MachineConfig,
) -> (Trace, Vec<u64>, SlackProfile) {
    try_profile_workload(workload, cfg).expect("workload executes")
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
    try_prepare_from(program, &enumerate(program, cfg), freqs, selector, cfg)
}

/// [`try_prepare`] over an already enumerated starting pool (as
/// returned by [`enumerate`] for the same `program` and `cfg`). Every
/// selector is a policy over the same pool, so callers running several
/// selectors on one program enumerate once and pass the pool to each;
/// only the candidates `selector` admits are cloned.
pub fn try_prepare_from(
    program: &Program,
    pool: &[Candidate],
    freqs: &[u64],
    selector: &Selector,
    cfg: &SelectionConfig,
) -> Result<Prepared, RewriteError> {
    let admitted: Vec<Candidate> = pool
        .iter()
        .filter(|c| selector.admits(program, c))
        .cloned()
        .collect();
    let result = greedy_select(program, &admitted, freqs, cfg);
    let instances = result.chosen.len();
    let templates = result.templates;
    let est_coverage = result.est_coverage;
    let program = try_rewrite(program, &result.chosen)?;
    Ok(Prepared {
        program,
        instances,
        templates,
        est_coverage,
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
    use crate::select::{SlackProfileModel, SpKind};
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
    fn prepare_from_a_shared_pool_matches_prepare() {
        let spec = benchmark("mib_crc32").unwrap();
        let w = spec.generate();
        let (_, freqs, slack) = profile_workload(&w, &MachineConfig::reduced());
        let sel_cfg = SelectionConfig::default();
        let pool = enumerate(&w.program, &sel_cfg);
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
        // One pool serves every selector, each compared with `try_prepare`
        // and with the stage-by-stage public calls it replaces.
        for selector in &selectors {
            let direct = try_prepare(&w.program, &freqs, selector, &sel_cfg).unwrap();
            let shared = try_prepare_from(&w.program, &pool, &freqs, selector, &sel_cfg).unwrap();
            let admitted = selector.filter(&w.program, enumerate(&w.program, &sel_cfg));
            let staged = greedy_select(&w.program, &admitted, &freqs, &sel_cfg);
            let staged_program = try_rewrite(&w.program, &staged.chosen).unwrap();
            let name = selector.name();
            // `Program` has no `PartialEq`; its `Debug` form is complete.
            let shared_program = format!("{:?}", shared.program);
            assert_eq!(shared_program, format!("{:?}", direct.program), "{name}");
            assert_eq!(shared_program, format!("{staged_program:?}"), "{name}");
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
