//! Every table and figure of the paper, as one table of definitions.
//!
//! Most figures are views of one experiment: the suite, trained on the
//! reduced machine with primary inputs, under a handful of cells. Such a
//! [`Sweep`] figure is its cells and a report that turns its runs into
//! text and rows. [`groups`] puts the selected sweep figures with the
//! same benchmark count into one [`SweepSpec`] over the union of their
//! cells, so a shared cell runs once, and [`Group::reports`] hands each
//! figure its own columns. The rest are [`Kind::Plain`] functions.

use crate::harness::{envelope_json, save_json, Scheme, SchemeRun};
use crate::runner::{par_map, InputSel, SweepCell, SweepResult, SweepSpec};
use crate::{mean, Config};
use mg_core::candidate::{enumerate, Candidate, SelectionConfig};
use mg_core::classify::{classify, Serialization};
use mg_core::depgraph::{schedule_with_groups, BlockDepsCache};
use mg_core::pipeline::profile_workload;
use mg_core::rewrite::{rewrite_with, ChosenInstance};
use mg_core::select::{slack_profile_admits, SlackProfileModel};
use mg_obs::{mg_error, mg_info};
use mg_sim::config::rename_regs;
use mg_sim::{simulate, DynMgConfig, MachineConfig, MgConfig, SimOptions};
use mg_workloads::{limit_study_benchmark, suite, BenchmarkSpec, Suite};
use serde::Serialize;
use std::fmt::Display;

/// One entry of [`FIGURES`].
pub struct Figure {
    /// The command-line name, and the stem of its `results/` files.
    pub name: &'static str,
    /// How the figure is computed.
    pub kind: Kind,
}

/// How a [`Figure`] is computed.
pub enum Kind {
    /// A view of the suite sweep.
    Sweep(Sweep),
    /// Computed on its own from the benchmark limit; returns its text.
    Plain(fn(usize) -> String),
}

/// A view of the suite sweep: the first `take` benchmarks of [`suite`],
/// trained on the reduced machine with primary inputs.
pub struct Sweep {
    /// Benchmarks swept when the command line gives no count.
    pub default_take: usize,
    /// The figure's cells, in its own order.
    pub cells: fn() -> Vec<SweepCell>,
    /// Builds the figure from the runs of every benchmark whose cells all
    /// succeeded, and the sweep's benchmark count.
    pub report: fn(&[BenchRuns], usize) -> Report,
}

/// One benchmark's runs of a sweep figure's cells, in the figure's order.
pub struct BenchRuns<'a> {
    /// Benchmark name.
    pub bench: &'a str,
    /// One run per figure cell.
    pub runs: Vec<&'a SchemeRun>,
}

impl BenchRuns<'_> {
    /// Cell `i`'s IPC relative to cell 0's, no mini-graphs on the
    /// baseline machine.
    fn rel(&self, i: usize) -> f64 {
        self.runs[i].ipc / self.runs[0].ipc
    }
}

/// What a sweep figure prints and saves.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The figure's text, as printed and written to `results/<name>.txt`.
    pub text: String,
    /// The `results/<name>.json` document, if the figure saves rows.
    pub json: Option<String>,
}

impl Report {
    fn new<T: Serialize>(text: String, rows: &T) -> Report {
        Report {
            text,
            json: Some(envelope_json(rows)),
        }
    }
}

/// Every figure, in the order `figures --all` prints them.
pub static FIGURES: [Figure; 10] = [
    plain("table1", table1),
    sweep("fig1", usize::MAX, fig1_cells, fig1),
    sweep("fig3", usize::MAX, fig3_cells, fig3),
    sweep("fig6", usize::MAX, fig6_cells, fig6),
    sweep("calib", usize::MAX, fig6_cells, calib),
    sweep("fig7", usize::MAX, fig7_cells, fig7),
    plain("fig8", fig8),
    plain("fig9", fig9),
    sweep("ext_memaware", usize::MAX, ext_memaware_cells, ext_memaware),
    // Ablations multiply simulations: 20 benchmarks unless told otherwise.
    sweep("ablation", 20, ablation_cells, ablation),
];

const fn plain(name: &'static str, run: fn(usize) -> String) -> Figure {
    let kind = Kind::Plain(run);
    Figure { name, kind }
}

const fn sweep(
    name: &'static str,
    default_take: usize,
    cells: fn() -> Vec<SweepCell>,
    report: fn(&[BenchRuns], usize) -> Report,
) -> Figure {
    let kind = Kind::Sweep(Sweep {
        default_take,
        cells,
        report,
    });
    Figure { name, kind }
}

/// The figure called `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Parses `figures <name>… [N]` or `figures --all [N]` into the selected
/// figures (each once, in command-line order) and the benchmark limit.
pub fn parse_args(args: &[String]) -> Result<(Vec<&'static Figure>, Option<usize>), String> {
    let names = || {
        let all: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        format!("valid names: {}", all.join(" "))
    };
    let mut selected: Vec<&'static Figure> = Vec::new();
    let mut take = None;
    for arg in args {
        let figs: Vec<&'static Figure> = if arg == "--all" {
            FIGURES.iter().collect()
        } else if let Ok(n) = arg.parse() {
            take = Some(n);
            continue;
        } else {
            vec![figure(arg).ok_or_else(|| format!("unknown figure `{arg}`; {}", names()))?]
        };
        for f in figs {
            if !selected.iter().any(|s| s.name == f.name) {
                selected.push(f);
            }
        }
    }
    if selected.is_empty() {
        return Err(format!(
            "usage: figures <name>... [N] | figures --all [N]; {}",
            names()
        ));
    }
    Ok((selected, take))
}

/// Sweep figures run together: one sweep of the first `take` benchmarks
/// over the union of their cells.
pub struct Group {
    /// Benchmarks swept.
    pub take: usize,
    /// Each distinct member cell once, in first-seen order.
    pub cells: Vec<SweepCell>,
    /// Each member figure, with the index into `cells` of each of its
    /// cells.
    pub members: Vec<(&'static Figure, Vec<usize>)>,
}

/// Groups the sweep figures among `figures` by benchmark count (`take`,
/// else each figure's default, capped at the suite size); plain figures
/// are left out.
pub fn groups(figures: &[&'static Figure], take: Option<usize>) -> Vec<Group> {
    let mut groups: Vec<Group> = Vec::new();
    for &fig in figures {
        let Kind::Sweep(sweep) = &fig.kind else {
            continue;
        };
        let n = take.unwrap_or(sweep.default_take).min(suite().len());
        let at = groups.iter().position(|g| g.take == n).unwrap_or_else(|| {
            groups.push(Group {
                take: n,
                cells: Vec::new(),
                members: Vec::new(),
            });
            groups.len() - 1
        });
        let group = &mut groups[at];
        let index = (sweep.cells)()
            .into_iter()
            .map(|c| {
                let seen = group.cells.iter().position(|u| *u == c);
                seen.unwrap_or_else(|| {
                    group.cells.push(c);
                    group.cells.len() - 1
                })
            })
            .collect();
        group.members.push((fig, index));
    }
    groups
}

impl Group {
    /// The group's sweep.
    pub fn spec(&self) -> SweepSpec {
        SweepSpec::new(&MachineConfig::reduced())
            .benches(suite().iter().take(self.take).cloned())
            .cells(self.cells.iter().cloned())
    }

    /// Each member's report from `result`, a run of [`Group::spec`]. A
    /// benchmark with a failed cell is left out of every member that
    /// uses that cell, and logged once.
    pub fn reports(&self, result: &SweepResult) -> Vec<(&'static Figure, Report)> {
        let mut runs: Vec<Vec<BenchRuns>> = self.members.iter().map(|_| Vec::new()).collect();
        for row in &result.rows {
            let mut skipped = Vec::new();
            let mut first_err = None;
            for ((fig, index), runs) in self.members.iter().zip(&mut runs) {
                match index.iter().map(|&i| row.get(i)).collect() {
                    Ok(r) => runs.push(BenchRuns {
                        bench: &row.bench,
                        runs: r,
                    }),
                    Err(e) => {
                        first_err.get_or_insert(e);
                        skipped.push(fig.name);
                    }
                }
            }
            if let Some(e) = first_err {
                mg_error!("skipped in {}: {e}", skipped.join(", "));
            }
        }
        self.members
            .iter()
            .zip(&runs)
            .map(|((fig, _), runs)| match &fig.kind {
                Kind::Sweep(sweep) => (*fig, (sweep.report)(runs, self.take)),
                Kind::Plain(_) => unreachable!("groups hold sweep figures only"),
            })
            .collect()
    }
}

/// No-mg on the baseline machine, then `red` on the reduced machine and
/// `base` on the baseline machine.
fn cells(red: &[Scheme], base: &[Scheme]) -> Vec<SweepCell> {
    let (b, r) = (MachineConfig::baseline(), MachineConfig::reduced());
    let mut cells = vec![SweepCell::new(Scheme::NoMg, &b)];
    cells.extend(red.iter().map(|&s| SweepCell::new(s, &r)));
    cells.extend(base.iter().map(|&s| SweepCell::new(s, &b)));
    cells
}

/// The mean of `f` over `rows`.
fn mean_by<T>(rows: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&rows.iter().map(f).collect::<Vec<_>>())
}

/// One S-curve: the benchmarks' values sorted ascending.
fn curve(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

// ---------------------------------------------------------------------
// Figure 1: serialization-aware mini-graph selection at a glance.
//
// Performance of the reduced processor relative to the fully-provisioned
// one for every program, as independent S-curves: the `Slack-Profile`
// selector against the two naive selectors and the no-mini-graph line.

#[derive(Serialize)]
struct Fig1Row {
    bench: String,
    nomg: f64,
    struct_all: f64,
    struct_none: f64,
    slack_profile: f64,
}

fn fig1_cells() -> Vec<SweepCell> {
    use Scheme::*;
    cells(&[NoMg, StructAll, StructNone, SlackProfile], &[])
}

fn fig1(runs: &[BenchRuns], _: usize) -> Report {
    let rows: Vec<Fig1Row> = runs
        .iter()
        .map(|r| Fig1Row {
            bench: r.bench.to_string(),
            nomg: r.rel(1),
            struct_all: r.rel(2),
            struct_none: r.rel(3),
            slack_profile: r.rel(4),
        })
        .collect();

    let mut out = String::new();
    out += "FIGURE 1: performance on the reduced processor relative to the full one\n";
    out += &format!(
        "{:>4} {:>10} {:>12} {:>12} {:>14}\n",
        "idx", "no-mg", "Struct-All", "Struct-None", "Slack-Profile"
    );
    let curves = [
        curve(rows.iter().map(|r| r.nomg)),
        curve(rows.iter().map(|r| r.struct_all)),
        curve(rows.iter().map(|r| r.struct_none)),
        curve(rows.iter().map(|r| r.slack_profile)),
    ];
    for i in 0..rows.len() {
        let [a, b, c, d] = curves.each_ref().map(|c| c[i]);
        out += &format!("{i:>4} {a:>10.3} {b:>12.3} {c:>12.3} {d:>14.3}\n");
    }
    let [a, b, c, d] = curves.each_ref().map(|c| mean(c));
    out += &format!("mean {a:>10.3} {b:>12.3} {c:>12.3} {d:>14.3}\n");
    let verb = if d >= 1.0 { "outperform" } else { "approach" };
    out += &format!(
        "\nSlack-Profile lets the reduced machine {verb} the full one on average \
         (paper: outperforms by 2%).\n"
    );
    Report::new(out, &rows)
}

// ---------------------------------------------------------------------
// Figure 3: the naive structural selectors.
//
// Top: `Struct-All` and `Struct-None` on the reduced processor (relative
// to the full baseline). Bottom: the same mini-graphs on the fully
// provisioned processor, where serialization penalties are exposed.
// Also reports the pathology counts the paper calls out.

#[derive(Serialize)]
struct Fig3Row {
    bench: String,
    nomg_red: f64,
    sa_red: f64,
    sn_red: f64,
    sa_full: f64,
    sn_full: f64,
    sa_cov: f64,
    sn_cov: f64,
}

fn fig3_cells() -> Vec<SweepCell> {
    use Scheme::*;
    cells(&[NoMg, StructAll, StructNone], &[StructAll, StructNone])
}

fn fig3(runs: &[BenchRuns], _: usize) -> Report {
    let rows: Vec<Fig3Row> = runs
        .iter()
        .map(|r| Fig3Row {
            bench: r.bench.to_string(),
            nomg_red: r.rel(1),
            sa_red: r.rel(2),
            sn_red: r.rel(3),
            sa_full: r.rel(4),
            sn_full: r.rel(5),
            sa_cov: r.runs[2].coverage,
            sn_cov: r.runs[3].coverage,
        })
        .collect();

    let mut out = String::new();
    let tops = [
        ("no-mg", curve(rows.iter().map(|r| r.nomg_red))),
        ("Struct-All", curve(rows.iter().map(|r| r.sa_red))),
        ("Struct-None", curve(rows.iter().map(|r| r.sn_red))),
    ];
    out += "FIGURE 3 TOP: performance on the reduced processor\n";
    out += &format!(
        "{:>4} {:>10} {:>12} {:>12}\n",
        "idx", "no-mg", "Struct-All", "Struct-None"
    );
    for i in 0..rows.len() {
        let [a, b, c] = tops.each_ref().map(|t| t.1[i]);
        out += &format!("{i:>4} {a:>10.3} {b:>12.3} {c:>12.3}\n");
    }
    for (name, c) in &tops {
        out += &format!("mean {name:<14} {:.3}\n", mean(c));
    }

    let bots = [
        ("Struct-All", curve(rows.iter().map(|r| r.sa_full))),
        ("Struct-None", curve(rows.iter().map(|r| r.sn_full))),
    ];
    out += "\nFIGURE 3 BOTTOM: performance on the fully-provisioned processor\n";
    out += &format!("{:>4} {:>12} {:>12}\n", "idx", "Struct-All", "Struct-None");
    for i in 0..rows.len() {
        out += &format!("{:>4} {:>12.3} {:>12.3}\n", i, bots[0].1[i], bots[1].1[i]);
    }

    // The paper's analysis points.
    let sa_worse_than_nomg = rows.iter().filter(|r| r.sa_red < r.nomg_red).count();
    let sa_degrading_full = rows.iter().filter(|r| r.sa_full < 0.995).count();
    let sn_worse_than_nomg = rows.iter().filter(|r| r.sn_red < r.nomg_red).count();
    let crossover = rows.iter().filter(|r| r.sa_red > r.sn_red).count();
    out += "\nANALYSIS (paper in parentheses)\n";
    let [sa, sn] = [mean_by(&rows, |r| r.sa_cov), mean_by(&rows, |r| r.sn_cov)];
    out += &format!(
        "  Struct-All coverage:  {:.0}%  (38%, range 18-60%)\n",
        100.0 * sa
    );
    out += &format!(
        "  Struct-None coverage: {:.0}%  (20%, range 6-38%)\n",
        100.0 * sn
    );
    out += &format!("  SA below no-mg on reduced:   {sa_worse_than_nomg} programs (7)\n");
    out += &format!("  SA degrading on full:        {sa_degrading_full} programs (29)\n");
    out += &format!("  SN below no-mg on reduced:   {sn_worse_than_nomg} programs (0)\n");
    out += &format!(
        "  SA beats SN on reduced for:  {crossover} of {} programs (about half)\n",
        rows.len()
    );
    Report::new(out, &rows)
}

// ---------------------------------------------------------------------
// Figure 6 (and the headline numbers): all five selectors.
//
// Top: performance on the reduced processor, relative to the
// fully-provisioned baseline (S-curves). Middle: performance on the
// fully-provisioned processor. Bottom: dynamic coverage.

/// The five selectors Figure 6 compares, with the paper's mean
/// reduced-machine performance and coverage for each.
const FIG6: [(Scheme, f64, f64); 5] = [
    (Scheme::StructAll, 0.90, 0.38),
    (Scheme::StructNone, 0.95, 0.20),
    (Scheme::StructBounded, 0.98, 0.30),
    (Scheme::SlackProfile, 1.02, 0.34),
    (Scheme::SlackDynamic, 0.94, 0.30),
];

#[derive(Serialize)]
struct Fig6Row {
    bench: String,
    /// Reduced-machine IPC without mini-graphs, relative to baseline.
    nomg_red: f64,
    per_scheme: Vec<Fig6PerScheme>,
}

#[derive(Serialize)]
struct Fig6PerScheme {
    scheme: &'static str,
    /// Reduced-machine IPC relative to the no-mg baseline machine.
    rel_red: f64,
    /// Baseline-machine IPC relative to the no-mg baseline machine.
    rel_full: f64,
    /// Measured dynamic coverage on the reduced machine.
    coverage: f64,
}

/// Cell 0 is no-mg on the baseline machine, cell 1 no-mg on the reduced
/// machine, then each scheme contributes a (reduced, baseline) cell pair
/// at `(2 + 2*si, 3 + 2*si)`.
fn fig6_cells() -> Vec<SweepCell> {
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    let mut cells = vec![
        SweepCell::new(Scheme::NoMg, &base),
        SweepCell::new(Scheme::NoMg, &red),
    ];
    for (s, ..) in FIG6 {
        cells.push(SweepCell::new(s, &red));
        cells.push(SweepCell::new(s, &base));
    }
    cells
}

fn fig6(runs: &[BenchRuns], _: usize) -> Report {
    let rows: Vec<Fig6Row> = runs
        .iter()
        .map(|r| Fig6Row {
            bench: r.bench.to_string(),
            nomg_red: r.rel(1),
            per_scheme: FIG6
                .iter()
                .enumerate()
                .map(|(si, &(s, ..))| Fig6PerScheme {
                    scheme: s.name(),
                    rel_red: r.rel(2 + 2 * si),
                    rel_full: r.rel(3 + 2 * si),
                    coverage: r.runs[2 + 2 * si].coverage,
                })
                .collect(),
        })
        .collect();

    let mut out = String::new();
    for (title, get) in [
        ("TOP: relative performance on the REDUCED processor", 0),
        ("MIDDLE: relative performance on the FULL processor", 1),
        ("BOTTOM: dynamic coverage", 2),
    ] {
        out += &format!("\nFIGURE 6 {title}\n");
        out += &format!("{:>4} {:>9}", "idx", "no-mg");
        for (s, ..) in FIG6 {
            out += &format!(" {:>15}", s.name());
        }
        out.push('\n');
        // Independent S-curves per scheme, as in the paper.
        let nomg_curve = curve(rows.iter().map(|r| r.nomg_red));
        let curves: Vec<Vec<f64>> = (0..FIG6.len())
            .map(|si| {
                let value = |p: &Fig6PerScheme| [p.rel_red, p.rel_full, p.coverage][get];
                curve(rows.iter().map(|r| value(&r.per_scheme[si])))
            })
            .collect();
        // Coverage has no no-mg column.
        let nomg = |v: f64| if get == 2 { f64::NAN } else { v };
        for i in 0..rows.len() {
            out += &format!("{i:>4} {:>9.3}", nomg(nomg_curve[i]));
            for c in &curves {
                out += &format!(" {:>15.3}", c[i]);
            }
            out.push('\n');
        }
        out += &format!("mean {:>9.3}", nomg(mean(&nomg_curve)));
        for c in &curves {
            out += &format!(" {:>15.3}", mean(c));
        }
        out.push('\n');
    }

    // Headline numbers.
    let nomg_mean = mean_by(&rows, |r| r.nomg_red);
    out += "\nHEADLINES (paper in parentheses)\n";
    out += &format!(
        "  reduced, no mini-graphs:      {:+.1}%  (-18%)\n",
        100.0 * (nomg_mean - 1.0)
    );
    for (si, (s, paper_rel, paper_cov)) in FIG6.iter().enumerate() {
        let m = mean_by(&rows, |r| r.per_scheme[si].rel_red);
        let c = mean_by(&rows, |r| r.per_scheme[si].coverage);
        out += &format!(
            "  reduced + {:<20} {:+.1}%, cov {:.0}%  ({:+.0}%, cov {:.0}%)\n",
            s.name(),
            100.0 * (m - 1.0),
            100.0 * c,
            100.0 * (paper_rel - 1.0),
            100.0 * paper_cov
        );
    }
    Report::new(out, &rows)
}

// ---------------------------------------------------------------------
// Calibration summary: Figure 6's cells as suite-wide means against the
// paper's targets, on one screen.

fn calib(runs: &[BenchRuns], _: usize) -> Report {
    let n_schemes = FIG6.len();
    let mut rel_red: Vec<Vec<f64>> = vec![vec![]; n_schemes];
    let mut rel_full: Vec<Vec<f64>> = vec![vec![]; n_schemes];
    let mut cov: Vec<Vec<f64>> = vec![vec![]; n_schemes];
    let mut nomg_red = vec![];
    let mut slower_than_nomg_red = vec![0usize; n_schemes];
    let mut slowdown_full = vec![0usize; n_schemes];
    for runs in runs {
        let ok = &runs.runs;
        let b = ok[0];
        let r = ok[1];
        nomg_red.push(runs.rel(1));
        for si in 0..n_schemes {
            let rr = ok[2 + 2 * si];
            let rf = ok[3 + 2 * si];
            rel_red[si].push(runs.rel(2 + 2 * si));
            rel_full[si].push(runs.rel(3 + 2 * si));
            cov[si].push(rr.coverage);
            if rr.ipc < r.ipc {
                slower_than_nomg_red[si] += 1;
            }
            if rf.ipc < b.ipc * 0.995 {
                slowdown_full[si] += 1;
            }
        }
    }
    let mut out = String::new();
    out += &format!(
        "no-mg reduced: mean rel {:.3}   (paper 0.82)\n",
        mean(&nomg_red)
    );
    out += &format!(
        "{:<16} {:>8} {:>8} {:>8} {:>10} {:>10}\n",
        "scheme", "red-rel", "full-rel", "cov", "<nomg(red)", "slow(full)"
    );
    for (si, (s, paper_rel, paper_cov)) in FIG6.iter().enumerate() {
        out += &format!(
            "{:<16} {:>8.3} {:>8.3} {:>8.3} {:>10} {:>10}   paper: rel {:.2} cov {:.2}\n",
            s.name(),
            mean(&rel_red[si]),
            mean(&rel_full[si]),
            mean(&cov[si]),
            slower_than_nomg_red[si],
            slowdown_full[si],
            paper_rel,
            paper_cov
        );
    }
    Report {
        text: out,
        json: None,
    }
}

// ---------------------------------------------------------------------
// Figure 7: isolating the components of the models.
//
// Top: the Slack-Profile model — full (rules #1-4) vs `-Delay` (no
// consumer-slack rule) vs `-SIAL` (operand-arrival heuristic), against
// Struct-All / Struct-None. Bottom: the Slack-Dynamic model — realistic
// vs `Ideal` (no outlining penalty) vs `Ideal-Delay` (no consumer
// condition) vs `Ideal-SIAL`. All on the reduced processor, relative to
// the full baseline.

const FIG7_TOP: [Scheme; 5] = [
    Scheme::SlackProfile,
    Scheme::SlackProfileDelay,
    Scheme::SlackProfileSial,
    Scheme::StructAll,
    Scheme::StructNone,
];
const FIG7_BOTTOM: [Scheme; 5] = [
    Scheme::SlackDynamic,
    Scheme::IdealSlackDynamic,
    Scheme::IdealSlackDynamicDelay,
    Scheme::IdealSlackDynamicSial,
    Scheme::StructAll,
];

// Cell layout: 0 = no-mg baseline, 1..=5 = TOP schemes on the reduced
// machine, 6..=9 = the Slack-Dynamic variants (BOTTOM shares Struct-All
// with TOP rather than re-running it).
const FIG7_TOP_CELLS: [usize; 5] = [1, 2, 3, 4, 5];
const FIG7_BOTTOM_CELLS: [usize; 5] = [6, 7, 8, 9, 4];

#[derive(Serialize)]
struct Fig7Row {
    bench: String,
    top: Vec<f64>,
    bottom: Vec<f64>,
}

fn fig7_cells() -> Vec<SweepCell> {
    cells(&[&FIG7_TOP[..], &FIG7_BOTTOM[..4]].concat(), &[])
}

fn fig7(runs: &[BenchRuns], _: usize) -> Report {
    let rows: Vec<Fig7Row> = runs
        .iter()
        .map(|r| Fig7Row {
            bench: r.bench.to_string(),
            top: FIG7_TOP_CELLS.iter().map(|&c| r.rel(c)).collect(),
            bottom: FIG7_BOTTOM_CELLS.iter().map(|&c| r.rel(c)).collect(),
        })
        .collect();

    let mut out = String::new();
    for (title, schemes, get) in [
        ("TOP: Slack-Profile components", &FIG7_TOP, 0),
        ("BOTTOM: Slack-Dynamic components", &FIG7_BOTTOM, 1),
    ] {
        out += &format!("\nFIGURE 7 {title} (reduced processor, relative performance)\n");
        out += &format!("{:>4}", "idx");
        for s in schemes.iter() {
            out += &format!(" {:>20}", s.name());
        }
        out.push('\n');
        let curves: Vec<Vec<f64>> = (0..schemes.len())
            .map(|si| curve(rows.iter().map(|r| [&r.top, &r.bottom][get][si])))
            .collect();
        for i in 0..rows.len() {
            out += &format!("{i:>4}");
            for c in &curves {
                out += &format!(" {:>20.3}", c[i]);
            }
            out.push('\n');
        }
        out += "mean";
        for c in &curves {
            out += &format!(" {:>20.3}", mean(c));
        }
        out.push('\n');
    }

    // The paper's component contributions.
    let m = |f: fn(&Fig7Row) -> f64| mean_by(&rows, f);
    out += "\nCOMPONENT CONTRIBUTIONS (paper in parentheses)\n";
    out += &format!(
        "  consumer-slack rule (SP - SP-Delay):      {:+.1}pp  (+1pp)\n",
        100.0 * (m(|r| r.top[0]) - m(|r| r.top[1]))
    );
    out += &format!(
        "  delay vs arrival heuristic (Delay - SIAL): {:+.1}pp  (+4pp)\n",
        100.0 * (m(|r| r.top[1]) - m(|r| r.top[2]))
    );
    out += &format!(
        "  outlining penalty (Ideal-SD - SD):         {:+.1}pp  (+3pp)\n",
        100.0 * (m(|r| r.bottom[1]) - m(|r| r.bottom[0]))
    );
    out += &format!(
        "  consumer condition, ideal (ISD - ISD-Delay): {:+.1}pp  (<1pp)\n",
        100.0 * (m(|r| r.bottom[1]) - m(|r| r.bottom[2]))
    );
    out += &format!(
        "  delay vs SIAL, ideal (ISD-Delay - ISD-SIAL): {:+.1}pp  (>0pp)\n",
        100.0 * (m(|r| r.bottom[2]) - m(|r| r.bottom[3]))
    );
    Report::new(out, &rows)
}

// ---------------------------------------------------------------------
// Extension: the miss-aware Slack-Profile.
//
// The paper notes one exception to Slack-Profile's dominance: *mcf* on
// the fully-provisioned machine, because "Slack-Profile uses optimistic
// execution latencies that do not account for cache misses, which plague
// mcf. Remedying this is left for future work." `Slack-Profile-Mem`
// implements the remedy — rule #2 chains constituents by *observed*
// per-static latencies from the profile — and this evaluates it against
// the stock model, reporting the memory-bound benchmarks separately.

#[derive(Serialize)]
struct MemAwareRow {
    bench: String,
    dl1_miss_rate: f64,
    sp_red: f64,
    sp_mem_red: f64,
    sp_full: f64,
    sp_mem_full: f64,
}

fn ext_memaware_cells() -> Vec<SweepCell> {
    use Scheme::*;
    let sp = [SlackProfile, SlackProfileMem];
    cells(&[NoMg, sp[0], sp[1]], &sp)
}

fn ext_memaware(runs: &[BenchRuns], _: usize) -> Report {
    let rows: Vec<MemAwareRow> = runs
        .iter()
        .map(|r| MemAwareRow {
            bench: r.bench.to_string(),
            // The no-mg run on the reduced machine observes the D-L1 the
            // selectors contend with.
            dl1_miss_rate: r.runs[1].dl1_miss_rate,
            sp_red: r.rel(2),
            sp_mem_red: r.rel(3),
            sp_full: r.rel(4),
            sp_mem_full: r.rel(5),
        })
        .collect();

    let mut out = String::new();
    let (hot, cold): (Vec<&MemAwareRow>, Vec<&MemAwareRow>) =
        rows.iter().partition(|r| r.dl1_miss_rate > 0.10);
    out += "EXTENSION: miss-aware Slack-Profile (observed rule-#2 latencies)\n";
    out += &format!(
        "\nmemory-bound benchmarks (D-L1 miss rate > 10%): {}\n",
        hot.len()
    );
    out += &format!(
        "{:<18} {:>7} {:>9} {:>9} {:>9} {:>9}\n",
        "bench", "dl1m%", "SP(red)", "Mem(red)", "SP(full)", "Mem(full)"
    );
    for r in &hot {
        out += &format!(
            "{:<18} {:>7.1} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            r.bench,
            100.0 * r.dl1_miss_rate,
            r.sp_red,
            r.sp_mem_red,
            r.sp_full,
            r.sp_mem_full
        );
    }
    out += &format!(
        "\nmeans (memory-bound):   SP(red) {:.3}  Mem(red) {:.3}  SP(full) {:.3}  Mem(full) {:.3}\n",
        mean_by(&hot, |r| r.sp_red),
        mean_by(&hot, |r| r.sp_mem_red),
        mean_by(&hot, |r| r.sp_full),
        mean_by(&hot, |r| r.sp_mem_full)
    );
    out += &format!(
        "means (everything else): SP(red) {:.3}  Mem(red) {:.3}  SP(full) {:.3}  Mem(full) {:.3}\n",
        mean_by(&cold, |r| r.sp_red),
        mean_by(&cold, |r| r.sp_mem_red),
        mean_by(&cold, |r| r.sp_full),
        mean_by(&cold, |r| r.sp_mem_full)
    );
    out += "\nThe extension should help (or at least not hurt) the memory-bound set\n\
            while leaving the rest unchanged.\n";
    Report::new(out, &rows)
}

// ---------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out (beyond the
// paper's figures): the MGT template budget (the paper fixes 512), the
// maximum mini-graph size (the paper fixes 4 = ALU pipeline depth),
// internal serialization on/off (§4.1's design-choice claim), and handle
// issue bandwidth (number of ALU pipelines).

#[derive(Serialize)]
struct Ablation {
    name: String,
    rel_perf: f64,
    coverage: f64,
}

/// The ablation figure's variants: (selection-config override,
/// machine-mg override, label), each run as a Slack-Profile cell on the
/// reduced machine.
pub fn ablation_variants() -> Vec<(SelectionConfig, MgConfig, String)> {
    let (paper, mut v) = (MgConfig::paper(), Vec::new());
    for budget in [32usize, 128, 512, 4096] {
        let sel = SelectionConfig {
            mgt_budget: budget,
            ..Default::default()
        };
        v.push((sel, paper, format!("mgt-budget-{budget}")));
    }
    for size in [2usize, 3, 4] {
        let sel = SelectionConfig {
            max_size: size,
            ..Default::default()
        };
        v.push((sel, paper, format!("max-size-{size}")));
    }
    let mut mg = paper;
    mg.internal_serialization = false;
    v.push((Default::default(), mg, "no-internal-serialization".into()));
    for pipes in [1u32, 2, 4] {
        let mut mg = paper;
        mg.max_mg_issue = pipes;
        mg.max_mem_mg_issue = pipes.div_ceil(2);
        mg.alu_pipelines = pipes;
        v.push((Default::default(), mg, format!("alu-pipelines-{pipes}")));
    }
    v
}

/// Cell 0 is the no-mg baseline; cell 1+vi is variant vi as a
/// Slack-Profile run on the reduced machine with its overrides.
fn ablation_cells() -> Vec<SweepCell> {
    let red = MachineConfig::reduced();
    let mut cells = cells(&[], &[]);
    for (sel_cfg, mg_cfg, _) in ablation_variants() {
        let cell = SweepCell::new(Scheme::SlackProfile, &red);
        cells.push(cell.with_mg(mg_cfg).with_sel(sel_cfg));
    }
    cells
}

fn ablation(runs: &[BenchRuns], take: usize) -> Report {
    let variants = ablation_variants();
    let mut acc: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); variants.len()];
    for r in runs {
        for (vi, cell) in r.runs[1..].iter().enumerate() {
            acc[vi].0.push(r.rel(1 + vi));
            acc[vi].1.push(cell.coverage);
        }
    }

    let mut out = String::new();
    out += &format!("ABLATIONS (Slack-Profile on the reduced machine, {take} benchmarks)\n");
    out += &format!("{:<28} {:>10} {:>10}\n", "variant", "rel-perf", "coverage");
    let mut rows = Vec::new();
    for (vi, (_, _, name)) in variants.into_iter().enumerate() {
        let rp = mean(&acc[vi].0);
        let cov = mean(&acc[vi].1);
        out += &format!("{name:<28} {rp:>10.3} {cov:>10.3}\n");
        rows.push(Ablation {
            name,
            rel_perf: rp,
            coverage: cov,
        });
    }
    Report::new(out, &rows)
}

// ---------------------------------------------------------------------
// Figure 8: limit study — exhaustive search over all 1024 combinations
// of the 10 most frequent non-overlapping mini-graph candidates of the
// short-running `adpcm.c` analogue, on the reduced processor. Prints the
// coverage/performance position of every selector's chosen set, the
// exhaustive best, and each selector's per-candidate verdicts (the
// paper's bottom table).

#[derive(Serialize)]
struct Point {
    mask: u16,
    coverage: f64,
    rel_perf: f64,
}

fn fig8(_: usize) -> String {
    let spec = limit_study_benchmark();
    let w = spec.generate();
    let red = MachineConfig::reduced();
    let base = MachineConfig::baseline();
    let (trace, freqs, slack) = profile_workload(&w, &red);
    let base_ipc = simulate(&w.program, &trace, &base, SimOptions::default()).ipc();

    // The 10 most frequent non-overlapping (and jointly schedulable)
    // candidates.
    let mut pool = enumerate(&w.program, &Default::default());
    pool.sort_by_key(|c| {
        std::cmp::Reverse(
            (c.len() as u64 - 1) * freqs[w.program.id_of(c.block, c.positions[0]).index()],
        )
    });
    let mut chosen: Vec<Candidate> = Vec::new();
    let mut used: Vec<bool> = vec![false; w.program.static_count()];
    let deps = BlockDepsCache::new(&w.program);
    for c in pool {
        if chosen.len() == 10 {
            break;
        }
        if c.positions
            .iter()
            .any(|&p| used[w.program.id_of(c.block, p).index()])
        {
            continue;
        }
        let mut groups: Vec<&[usize]> = chosen
            .iter()
            .filter(|x| x.block == c.block)
            .map(|x| x.positions.as_slice())
            .collect();
        groups.push(c.positions.as_slice());
        if schedule_with_groups(deps.get(&w.program, c.block), &groups).is_none() {
            continue;
        }
        for &p in &c.positions {
            used[w.program.id_of(c.block, p).index()] = true;
        }
        chosen.push(c);
    }
    assert_eq!(chosen.len(), 10, "benchmark must yield 10 candidates");

    // Selector verdicts per candidate.
    let sp_model = SlackProfileModel::default();
    let verdicts: Vec<(bool, bool, bool)> = chosen
        .iter()
        .map(|c| {
            let sn = !c.shape.potentially_serializing();
            let sb = classify(&c.shape) != Serialization::Unbounded;
            let sp = slack_profile_admits(&w.program, c, &slack, &sp_model);
            (sn, sb, sp)
        })
        .collect();

    // The subset `mask` of the chosen candidates, embedded: the rewritten
    // program and its trace, projected from the profiled one.
    let rewritten = |mask: u16| {
        let instances: Vec<ChosenInstance> = chosen
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(i, c)| ChosenInstance {
                candidate: c.clone(),
                template: i as u16,
            })
            .collect();
        let (prog, schedules) =
            rewrite_with(&w.program, &instances, &deps).expect("the chosen set is schedulable");
        let t = schedules.project(&w.program, &trace);
        (prog, t)
    };

    // Exhaustive sweep, parallelized over the 1024 masks: every subset is
    // an independent rewrite + trace projection + simulation.
    let run_subset = |mask: u16| -> (f64, f64) {
        let (prog, t) = rewritten(mask);
        let r = simulate(
            &prog,
            &t,
            &red.clone().with_mg(MgConfig::paper()),
            SimOptions::default(),
        );
        (r.stats.coverage(), r.ipc() / base_ipc)
    };
    let masks: Vec<u16> = (0u16..1024).collect();
    let jobs = Config::init_cli().effective_jobs();
    let points: Vec<Point> = par_map(&masks, jobs, |_, &mask| {
        let (cov, perf) = run_subset(mask);
        Point {
            mask,
            coverage: cov,
            rel_perf: perf,
        }
    });
    let best = points.iter().fold((0u16, f64::MIN), |b, p| {
        if p.rel_perf > b.1 {
            (p.mask, p.rel_perf)
        } else {
            b
        }
    });

    // Slack-Dynamic: run the full set with the controller and see which
    // templates survive.
    let sd_enabled_mask: u16 = {
        let (prog, t) = rewritten(0x3ff);
        let opts = SimOptions {
            dyn_mg: Some(DynMgConfig::slack_dynamic()),
            ..SimOptions::default()
        };
        let r = simulate(&prog, &t, &red.clone().with_mg(MgConfig::paper()), opts);
        // Approximate the surviving set by disabled-template count: we
        // report which templates the *static* SP/SB models would keep and
        // the count SD disabled.
        let disabled = r.stats.disabled_templates as usize;
        // Mask with the `disabled` lowest-scoring serializing templates
        // cleared (the controller targets harmful serialization).
        let mut mask = 0x3ffu16;
        let mut cleared = 0;
        for (i, v) in verdicts.iter().enumerate().rev() {
            if cleared == disabled {
                break;
            }
            if !v.2 {
                mask &= !(1 << i);
                cleared += 1;
            }
        }
        mask
    };

    let mask_of = |f: &dyn Fn(usize) -> bool| -> u16 {
        (0..10).filter(|&i| f(i)).fold(0u16, |m, i| m | (1 << i))
    };
    let sel_masks = [
        ("Struct-All", 0x3ffu16),
        ("Struct-None", mask_of(&|i| verdicts[i].0)),
        ("Struct-Bounded", mask_of(&|i| verdicts[i].1)),
        ("Slack-Profile", mask_of(&|i| verdicts[i].2)),
        ("Slack-Dynamic", sd_enabled_mask),
        ("Exhaustive-best", best.0),
    ];

    let mut out = String::new();
    out += &format!(
        "FIGURE 8: limit study on {} ({} dynamic instructions)\n",
        spec.name,
        trace.len()
    );
    out += "\ncandidate table (0-9, by descending score):\n";
    out += &format!(
        "{:>3} {:>5} {:>6} {:>10} {:>12} | {:>3} {:>3} {:>3}\n",
        "id", "size", "freq", "serial?", "class", "SN", "SB", "SP"
    );
    for (i, c) in chosen.iter().enumerate() {
        let f = freqs[w.program.id_of(c.block, c.positions[0]).index()];
        let class = match classify(&c.shape) {
            Serialization::None => "none",
            Serialization::Bounded(_) => "bounded",
            Serialization::Unbounded => "unbounded",
        };
        let v = verdicts[i];
        out += &format!(
            "{:>3} {:>5} {:>6} {:>10} {:>12} | {:>3} {:>3} {:>3}\n",
            i,
            c.len(),
            f,
            if c.shape.potentially_serializing() {
                "yes"
            } else {
                "no"
            },
            class,
            if v.0 { "y" } else { "-" },
            if v.1 { "y" } else { "-" },
            if v.2 { "y" } else { "-" }
        );
    }
    out += "\nselector positions (coverage, relative performance):\n";
    for (name, mask) in sel_masks {
        let p = &points[mask as usize];
        let ids: Vec<usize> = (0..10).filter(|&i| mask & (1 << i) != 0).collect();
        out += &format!(
            "  {:<16} cov {:.3}  perf {:.3}  set {:?}\n",
            name, p.coverage, p.rel_perf, ids
        );
    }
    let span = points.iter().fold((f64::MAX, f64::MIN), |a, p| {
        (a.0.min(p.rel_perf), a.1.max(p.rel_perf))
    });
    out += &format!(
        "\nscatter: 1024 subsets, perf range [{:.3}, {:.3}]\n",
        span.0, span.1
    );
    let path = save_json("fig8", &points);
    mg_info!("scatter written to {}", path.display());
    out
}

// ---------------------------------------------------------------------
// Figure 9: robustness of slack profiles.
//
// Top: microarchitecture sensitivity — Slack-Profile mini-graphs for
// MediaBench/CommBench programs, trained on the reduced target machine
// (self) vs on a 2-way machine, an 8-way machine, and a machine with a
// quartered data memory hierarchy; all evaluated on the reduced machine.
// Bottom: input sensitivity — SPECint/MiBench programs with profiles
// trained on the evaluation input (self) vs a different input set. The
// benchmark limit applies to each half's qualifying benchmarks.

#[derive(Serialize)]
struct TopRow {
    bench: String,
    self_trained: f64,
    cross_2way: f64,
    cross_8way: f64,
    cross_dmem4: f64,
}

#[derive(Serialize)]
struct BottomRow {
    bench: String,
    self_input: f64,
    cross_input: f64,
}

/// A sweep evaluating Slack-Profile on the reduced machine with profiles
/// trained on `train_cfg` (cross-training: the no-mg baseline cell is
/// train-independent, so only the self sweep carries it).
fn sp_sweep(benches: &[BenchmarkSpec], train_cfg: &MachineConfig, with_base: bool) -> SweepSpec {
    let red = MachineConfig::reduced();
    let mut spec = SweepSpec::new(train_cfg).benches(benches.iter().cloned());
    if with_base {
        spec = spec.cell(SweepCell::new(Scheme::NoMg, &MachineConfig::baseline()));
    }
    spec.cell(SweepCell::new(Scheme::SlackProfile, &red))
}

fn fig9(take: usize) -> String {
    let red = MachineConfig::reduced();
    let mut out = String::new();

    out += "FIGURE 9 TOP: microarchitecture sensitivity (Media+Comm, Slack-Profile on reduced)\n";
    let media_comm: Vec<BenchmarkSpec> = suite()
        .iter()
        .filter(|s| matches!(s.suite, Suite::MediaBench | Suite::CommBench))
        .take(take)
        .cloned()
        .collect();
    let self_r = sp_sweep(&media_comm, &red, true).run_cli();
    let cross_2 = sp_sweep(&media_comm, &MachineConfig::two_way(), false).run_cli();
    let cross_8 = sp_sweep(&media_comm, &MachineConfig::eight_way(), false).run_cli();
    let cross_d = sp_sweep(&media_comm, &MachineConfig::reduced_dmem4(), false).run_cli();
    let mut top = Vec::new();
    for (i, bench) in self_r.rows.iter().enumerate() {
        let cells = (
            bench.all_ok(),
            cross_2.rows[i].get(0),
            cross_8.rows[i].get(0),
            cross_d.rows[i].get(0),
        );
        let (Ok(ok), Ok(c2), Ok(c8), Ok(cd)) = cells else {
            mg_error!("skipped: {} (a training sweep failed)", bench.bench);
            continue;
        };
        let b = ok[0];
        let row = TopRow {
            bench: bench.bench.clone(),
            self_trained: ok[1].ipc / b.ipc,
            cross_2way: c2.ipc / b.ipc,
            cross_8way: c8.ipc / b.ipc,
            cross_dmem4: cd.ipc / b.ipc,
        };
        out += &format!(
            "  {:<20} self {:.3}  2way {:.3}  8way {:.3}  dmem/4 {:.3}\n",
            row.bench, row.self_trained, row.cross_2way, row.cross_8way, row.cross_dmem4
        );
        top.push(row);
    }
    out += &format!("  means: self {:.3}  2way {:.3}  8way {:.3}  dmem/4 {:.3}  (paper: points lie on the self curve)\n", mean_by(&top, |r| r.self_trained), mean_by(&top, |r| r.cross_2way), mean_by(&top, |r| r.cross_8way), mean_by(&top, |r| r.cross_dmem4));
    let max_dev = top
        .iter()
        .flat_map(|r| {
            [r.cross_2way, r.cross_8way, r.cross_dmem4]
                .into_iter()
                .map(move |v| (v - r.self_trained).abs())
        })
        .fold(0.0f64, f64::max);
    out += &format!("  max |cross - self| deviation: {:.3}\n", max_dev);

    out += "\nFIGURE 9 BOTTOM: input sensitivity (SPEC+MiBench, Slack-Profile on reduced)\n";
    let spec_mib: Vec<BenchmarkSpec> = suite()
        .iter()
        .filter(|s| matches!(s.suite, Suite::SpecInt | Suite::MiBench))
        .take(take)
        .cloned()
        .collect();
    let self_i = sp_sweep(&spec_mib, &red, true).run_cli();
    let cross_i = sp_sweep(&spec_mib, &red, false)
        .train_input(InputSel::Alternate)
        .run_cli();
    let mut bottom = Vec::new();
    for (i, bench) in self_i.rows.iter().enumerate() {
        let (Ok(ok), Ok(cx)) = (bench.all_ok(), cross_i.rows[i].get(0)) else {
            mg_error!("skipped: {} (an input sweep failed)", bench.bench);
            continue;
        };
        let b = ok[0];
        let row = BottomRow {
            bench: bench.bench.clone(),
            self_input: ok[1].ipc / b.ipc,
            cross_input: cx.ipc / b.ipc,
        };
        out += &format!(
            "  {:<20} self {:.3}  cross-input {:.3}\n",
            row.bench, row.self_input, row.cross_input
        );
        bottom.push(row);
    }
    let self_mean = mean_by(&bottom, |r| r.self_input);
    let cross_mean = mean_by(&bottom, |r| r.cross_input);
    out += &format!(
        "  means: self {:.3}  cross {:.3}  |delta| {:.3}  (paper: <2% absolute)\n",
        self_mean,
        cross_mean,
        (self_mean - cross_mean).abs()
    );

    let path = save_json("fig9_top", &top);
    let path2 = save_json("fig9_bottom", &bottom);
    mg_info!("rows written to {} and {}", path.display(), path2.display());
    out
}

// ---------------------------------------------------------------------
// Table 1: the simulated machine configurations — the fully-provisioned
// and reduced processors plus the mini-graph support parameters, as
// configured in `mg_sim::config`.

fn table1(_: usize) -> String {
    fn row(label: &str, base: impl Display, red: impl Display) -> String {
        format!("{label:<28} {base:>18} {red:>18}\n")
    }
    let mut out = String::new();
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    out += "TABLE 1: simulated processors\n\n";
    out += &row("parameter", "baseline", "reduced");
    out += &row("----", "----", "----");
    out += &row(
        "fetch/issue/commit width",
        base.fetch_width,
        red.fetch_width,
    );
    out += &row("issue queue entries", base.iq_entries, red.iq_entries);
    out += &row("physical registers", base.phys_regs, red.phys_regs);
    out += &row(
        "  (rename registers)",
        rename_regs(&base),
        rename_regs(&red),
    );
    out += &row("ROB entries", base.rob_entries, red.rob_entries);
    out += &row(
        "load/store queue",
        format!("{}/{}", base.lq_entries, base.sq_entries),
        format!("{}/{}", red.lq_entries, red.sq_entries),
    );
    out += &row(
        "simple-int issue/cycle",
        base.issue_simple,
        red.issue_simple,
    );
    out += &row(
        "complex-int issue/cycle",
        base.issue_complex,
        red.issue_complex,
    );
    out += &row("load issue/cycle", base.issue_load, red.issue_load);
    out += &row("store issue/cycle", base.issue_store, red.issue_store);
    out += &row(
        "pipeline depth (front+back)",
        format!("{}+{}", base.front_depth, base.sched_to_exec),
        format!("{}+{}", red.front_depth, red.sched_to_exec),
    );
    out += &row(
        "I$ / D$",
        format!(
            "{}KB/{}KB",
            base.il1.size_bytes / 1024,
            base.dl1.size_bytes / 1024
        ),
        format!(
            "{}KB/{}KB",
            red.il1.size_bytes / 1024,
            red.dl1.size_bytes / 1024
        ),
    );
    out += &row(
        "L2 / mem latency",
        format!("{}KB/{}cyc", base.l2.size_bytes / 1024, base.mem_lat),
        format!("{}KB/{}cyc", red.l2.size_bytes / 1024, red.mem_lat),
    );
    out += &row(
        "bpred (bim/gsh/meta bits)",
        format!(
            "{}/{}/{}",
            base.bpred.bimodal_bits, base.bpred.gshare_bits, base.bpred.meta_bits
        ),
        format!(
            "{}/{}/{}",
            red.bpred.bimodal_bits, red.bpred.gshare_bits, red.bpred.meta_bits
        ),
    );
    out += &row(
        "BTB sets x assoc / RAS",
        format!(
            "{}x{}/{}",
            base.bpred.btb_sets, base.bpred.btb_assoc, base.bpred.ras_entries
        ),
        format!(
            "{}x{}/{}",
            red.bpred.btb_sets, red.bpred.btb_assoc, red.bpred.ras_entries
        ),
    );
    out += &row(
        "StoreSets SSIT entries",
        base.storesets.ssit_entries,
        red.storesets.ssit_entries,
    );

    let mg = MgConfig::paper();
    out += "\nmini-graph support (when enabled):\n";
    out += &format!("  max constituents            {}\n", mg.alu_pipeline_depth);
    out += &format!(
        "  handles issued per cycle    {} (<= {} with memory)\n",
        mg.max_mg_issue, mg.max_mem_mg_issue
    );
    out += &format!("  MGT entries                 {}\n", mg.mgt_entries);
    out += &format!(
        "  ALU pipelines x depth       {} x {}\n",
        mg.alu_pipelines, mg.alu_pipeline_depth
    );
    out += &format!(
        "  internal serialization      {}\n",
        mg.internal_serialization
    );
    out
}
