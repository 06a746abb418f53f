//! The harness simulates each selection on its *projected* trace: the
//! context's committed trace with every block instance permuted by the
//! rewrite's block order (`mg_core::Schedules::project`), not a
//! functional re-execution of the rewritten program. This test checks
//! that the two agree, `DynInst` for `DynInst` plus `truncated`, on all
//! 78 benchmarks × every distinct selection `Scheme::ALL` makes × every
//! `SelectionConfig` of `figures::ablation_variants` (as Slack-Profile
//! cells, the way the ablation figure runs them).
//!
//! Benchmarks run at `target_dyn` 8000, the `short-all-schemes` shape,
//! so the test stays fast in a debug build.

use mg_bench::figures::ablation_variants;
use mg_bench::{BenchContext, Scheme};
use mg_core::SelectionConfig;
use mg_sim::MachineConfig;
use mg_workloads::{suite, BenchmarkSpec, Executor};

/// The schemes making distinct selections: every scheme with
/// mini-graphs except the dynamic-disabling ones, which run
/// Struct-All's selection.
const SELECTING: [Scheme; 7] = [
    Scheme::StructAll,
    Scheme::StructNone,
    Scheme::StructBounded,
    Scheme::SlackProfile,
    Scheme::SlackProfileDelay,
    Scheme::SlackProfileSial,
    Scheme::SlackProfileMem,
];

/// Checks every selection of one benchmark; returns how many it checked.
fn check_bench(spec: &BenchmarkSpec, ablation: &[SelectionConfig]) -> usize {
    let red = MachineConfig::reduced();
    let ctx = BenchContext::builder(spec, &red)
        .cache(false)
        .build()
        .expect("context builds");
    let default_sel = SelectionConfig::default();
    let cells = SELECTING
        .iter()
        .map(|&scheme| (scheme, default_sel))
        .chain(ablation.iter().map(|&sel| (Scheme::SlackProfile, sel)));
    let mut checked = 0;
    for (scheme, sel) in cells {
        let what = format!("{} {} {sel:?}", spec.name, scheme.name());
        let prepared = ctx
            .prepare_sim(scheme, &red, None, Some(&sel))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let (executed, _) = Executor::new(&prepared.program)
            .run_with_mem(&ctx.workload.init_mem)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(prepared.trace.truncated, executed.truncated, "{what}");
        assert_eq!(prepared.trace.len(), executed.len(), "{what}");
        if let Some(k) = (0..executed.len()).find(|&k| prepared.trace.insts[k] != executed.insts[k])
        {
            panic!(
                "{what}: dynamic instruction {k}: projected {:?}, executed {:?}",
                prepared.trace.insts[k], executed.insts[k]
            );
        }
        checked += 1;
    }
    checked
}

#[test]
fn projected_traces_equal_re_execution_on_every_selection() {
    let default_sel = SelectionConfig::default();
    let mut ablation: Vec<SelectionConfig> = Vec::new();
    for (sel, _, _) in ablation_variants() {
        if sel != default_sel && !ablation.contains(&sel) {
            ablation.push(sel);
        }
    }
    assert!(!ablation.is_empty());
    let specs: Vec<BenchmarkSpec> = suite()
        .into_iter()
        .map(|mut s| {
            s.params.target_dyn = 8_000;
            s
        })
        .collect();
    assert_eq!(specs.len(), 78);
    // Two workers, each taking every other benchmark.
    let checked: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (specs, ablation) = (&specs, &ablation);
                scope.spawn(move || {
                    specs
                        .iter()
                        .skip(w)
                        .step_by(2)
                        .map(|spec| check_bench(spec, ablation))
                        .sum::<usize>()
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(checked, 78 * (SELECTING.len() + ablation.len()));
}
