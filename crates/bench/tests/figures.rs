//! The figure table and its grouped sweeps: a figure read from a shared
//! sweep over the union of several figures' cells must come out exactly
//! as from its own sweep, and the command line must name only table
//! entries.

use mg_bench::figures::{self, groups, parse_args, Figure, Kind, FIGURES};
use std::collections::HashSet;

/// The sweep figures that run on the whole suite by default.
const SUITE_SWEEPS: [&str; 6] = ["fig1", "fig3", "fig6", "calib", "fig7", "ext_memaware"];

fn named(names: &[&str]) -> Vec<&'static Figure> {
    names.iter().map(|n| figures::figure(n).unwrap()).collect()
}

#[test]
fn union_sweep_projects_to_each_figure_alone() {
    let figs = named(&SUITE_SWEEPS);
    let union = groups(&figs, Some(4));
    assert_eq!(union.len(), 1, "one benchmark count, one group");
    let result = union[0].spec().disk_cache(false).quiet(true).run();
    assert_eq!(result.summary.failures, 0);
    let shared = union[0].reports(&result);
    assert_eq!(shared.len(), figs.len());
    for (fig, report) in shared {
        let alone = &groups(&[fig], Some(4))[0];
        let own = alone.spec().disk_cache(false).quiet(true).run();
        let (_, expected) = alone.reports(&own).remove(0);
        assert_eq!(
            report, expected,
            "{} differs when read from the union",
            fig.name
        );
        assert_eq!(report.json.is_some(), fig.name != "calib");
    }
}

#[test]
fn suite_sweeps_share_nineteen_cells() {
    let union = groups(&named(&SUITE_SWEEPS), None);
    assert_eq!(union.len(), 1);
    assert_eq!(union[0].take, mg_workloads::suite().len());
    assert_eq!(union[0].cells.len(), 19);
    let listed: usize = union[0].members.iter().map(|(_, idx)| idx.len()).sum();
    assert_eq!(listed, 51, "the figures list 51 cells between them");
}

#[test]
fn explicit_count_folds_ablation_into_the_suite_group() {
    let mut names = SUITE_SWEEPS.to_vec();
    names.push("ablation");
    let figs = named(&names);

    // By default the ablations sweep 20 benchmarks, so they run apart.
    let default: Vec<usize> = groups(&figs, None).iter().map(|g| g.take).collect();
    assert_eq!(default, vec![78, 20]);

    let one = groups(&figs, Some(4));
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].take, 4);
    assert_eq!(one[0].cells.len(), 28);
    let (fig, idx) = one[0].members.last().unwrap();
    assert_eq!(fig.name, "ablation");
    assert_eq!(idx.len(), 12);
    assert_eq!(idx.iter().collect::<HashSet<_>>().len(), 10);
    // mgt-budget-512, max-size-4 and alu-pipelines-2 are all the paper's
    // defaults spelled out, so they are one cell.
    assert_eq!(idx[3], idx[7]);
    assert_eq!(idx[3], idx[10]);
}

#[test]
fn cli_names_only_table_entries() {
    let args = |a: &[&str]| -> Vec<String> { a.iter().map(|s| s.to_string()).collect() };
    let err = parse_args(&args(&["fig1", "fig42"])).err().unwrap();
    for f in &FIGURES {
        assert!(err.contains(f.name), "{err}");
    }
    assert!(parse_args(&args(&[])).is_err());

    let (all, take) = parse_args(&args(&["--all"])).unwrap();
    let all: Vec<&str> = all.iter().map(|f| f.name).collect();
    let table: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(all, table);
    assert_eq!(take, None);

    let (some, take) = parse_args(&args(&["fig6", "fig1", "fig6", "5"])).unwrap();
    let some: Vec<&str> = some.iter().map(|f| f.name).collect();
    assert_eq!(some, ["fig6", "fig1"]);
    assert_eq!(take, Some(5));
    assert!(FIGURES
        .iter()
        .filter(|f| matches!(f.kind, Kind::Plain(_)))
        .all(|f| ["table1", "fig8", "fig9"].contains(&f.name)));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("fig42")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("valid names: table1 fig1"), "{stderr}");
}
