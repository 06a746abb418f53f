//! Regenerates the paper's tables and figures.
//!
//! Usage: `figures <name>... [N]` runs the named figures and
//! `figures --all [N]` runs every one; `N` limits each sweep to the first
//! N benchmarks. Sweep figures with the same benchmark count share one
//! sweep over the union of their cells. Each figure's text is printed
//! and written to `results/<name>.txt`, its rows to
//! `results/<name>.json`. An unknown name exits 2 with the valid names.

use mg_bench::figures::{groups, parse_args, Kind, Report};
use mg_bench::harness::save_result;
use mg_obs::mg_info;
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, take) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut reports = HashMap::new();
    for group in groups(&selected, take) {
        let result = group.spec().run_cli();
        reports.extend(group.reports(&result).into_iter().map(|(f, r)| (f.name, r)));
    }
    for fig in selected {
        let Report { text, json } = match fig.kind {
            Kind::Sweep(_) => reports.remove(fig.name).expect("every sweep figure ran"),
            Kind::Plain(run) => Report {
                text: run(take.unwrap_or(usize::MAX)),
                json: None,
            },
        };
        print!("{text}");
        save_result(&format!("{}.txt", fig.name), &text);
        if let Some(json) = json {
            let path = save_result(&format!("{}.json", fig.name), &json);
            mg_info!("rows written to {}", path.display());
        }
    }
}
