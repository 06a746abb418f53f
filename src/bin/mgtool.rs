//! `mgtool` — command-line companion for the minigraphs library.
//!
//! ```text
//! mgtool list                         list the benchmark registry
//! mgtool disasm <bench> [N]           disassemble a benchmark (first N lines)
//! mgtool run <bench> [machine]        run a benchmark and print statistics
//! mgtool candidates <bench>           summarize the mini-graph candidate pool
//! mgtool select <bench> [selector]    select, embed, and evaluate mini-graphs
//! ```
//!
//! Machines: any `MachineConfig::by_tag` tag — `baseline`, `reduced`,
//! `2way`, `8way`, `dmem4`, and the aliases `base`/`4way`, `red`/`3way`.
//! Selectors: `struct-all`, `struct-none`, `struct-bounded`,
//! `slack-profile`, `slack-profile-mem`.

use minigraphs::core::candidate::{enumerate, SelectionConfig};
use minigraphs::core::classify::{classify, Serialization};
use minigraphs::core::pipeline::{prepare, profile_workload};
use minigraphs::core::select::{Selector, SlackProfileModel};
use minigraphs::sim::{simulate, MachineConfig, MgConfig, SimOptions};
use minigraphs::workloads::{benchmark, suite, Executor};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("candidates") => cmd_candidates(&args[1..]),
        Some("select") => cmd_select(&args[1..]),
        _ => {
            eprintln!("usage: mgtool <list|disasm|run|candidates|select> [...]");
            eprintln!("see `mgtool` module docs for details");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<20} {:<14} {:>8} {:>10} {:>8}",
        "name", "suite", "static", "target-dyn", "nests"
    );
    for spec in suite() {
        let w = spec.generate();
        println!(
            "{:<20} {:<14} {:>8} {:>10} {:>8}",
            spec.name,
            spec.suite.to_string(),
            w.program.static_count(),
            spec.params.target_dyn,
            spec.params.loop_nests,
        );
    }
    Ok(())
}

fn spec_of(args: &[String]) -> Result<minigraphs::workloads::BenchmarkSpec, String> {
    let name = args.first().ok_or("missing benchmark name")?;
    benchmark(name).ok_or_else(|| format!("unknown benchmark {name} (try `mgtool list`)"))
}

fn cmd_disasm(args: &[String]) -> Result<(), String> {
    let spec = spec_of(args)?;
    let limit: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);
    let w = spec.generate();
    for (i, line) in w.program.to_string().lines().enumerate() {
        if i >= limit {
            println!(
                "... ({} static instructions total)",
                w.program.static_count()
            );
            break;
        }
        println!("{line}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let spec = spec_of(args)?;
    let mname = args.get(1).map(String::as_str).unwrap_or("baseline");
    let m = MachineConfig::by_tag(mname).ok_or_else(|| format!("unknown machine {mname}"))?;
    let w = spec.generate();
    let (trace, _) = Executor::new(&w.program)
        .run_with_mem(&w.init_mem)
        .map_err(|e| e.to_string())?;
    let r = simulate(&w.program, &trace, &m, SimOptions::default());
    println!("{} on {}:", spec.name, m.name);
    println!("  instructions   {}", r.stats.committed_instrs);
    println!("  cycles         {}", r.stats.cycles);
    println!("  IPC            {:.3}", r.ipc());
    println!(
        "  branch MPKI    {:.2}",
        1000.0 * r.stats.bpred.dir_mispredicts as f64 / r.stats.committed_instrs as f64
    );
    println!("  D-L1 miss rate {:.2}%", 100.0 * r.stats.dl1.miss_rate());
    println!("  L2 miss rate   {:.2}%", 100.0 * r.stats.l2.miss_rate());
    println!("  order flushes  {}", r.stats.violation_flushes);
    Ok(())
}

fn cmd_candidates(args: &[String]) -> Result<(), String> {
    let spec = spec_of(args)?;
    let w = spec.generate();
    let pool = enumerate(&w.program, &SelectionConfig::default());
    let mut by_class = [0usize; 3];
    let mut by_size = [0usize; 5];
    for c in &pool {
        let k = match classify(&c.shape) {
            Serialization::None => 0,
            Serialization::Bounded(_) => 1,
            Serialization::Unbounded => 2,
        };
        by_class[k] += 1;
        by_size[c.len().min(4)] += 1;
    }
    println!("{}: {} candidates", spec.name, pool.len());
    println!("  non-serializing {:>6}", by_class[0]);
    println!("  bounded         {:>6}", by_class[1]);
    println!("  unbounded       {:>6}", by_class[2]);
    println!(
        "  by size: 2 -> {}, 3 -> {}, 4 -> {}",
        by_size[2], by_size[3], by_size[4]
    );
    Ok(())
}

fn cmd_select(args: &[String]) -> Result<(), String> {
    let spec = spec_of(args)?;
    let sname = args.get(1).map(String::as_str).unwrap_or("slack-profile");
    let w = spec.generate();
    let reduced = MachineConfig::reduced();
    let (trace, freqs, slack) = profile_workload(&w, &reduced);
    let selector = match sname {
        "struct-all" => Selector::StructAll,
        "struct-none" => Selector::StructNone,
        "struct-bounded" => Selector::StructBounded,
        "slack-profile" => Selector::SlackProfile(Default::default(), slack),
        "slack-profile-mem" => Selector::SlackProfile(SlackProfileModel::miss_aware(), slack),
        other => return Err(format!("unknown selector {other}")),
    };
    let prepared = prepare(&w.program, &freqs, &selector, &SelectionConfig::default());
    let (mg_trace, _) = Executor::new(&prepared.program)
        .run_with_mem(&w.init_mem)
        .map_err(|e| e.to_string())?;
    let baseline = simulate(
        &w.program,
        &trace,
        &MachineConfig::baseline(),
        SimOptions::default(),
    );
    let plain = simulate(&w.program, &trace, &reduced, SimOptions::default());
    let mg = simulate(
        &prepared.program,
        &mg_trace,
        &reduced.clone().with_mg(MgConfig::paper()),
        SimOptions::default(),
    );
    println!("{} with {}:", spec.name, selector.name());
    println!("  instances        {}", prepared.instances);
    println!("  templates        {}", prepared.templates);
    println!(
        "  coverage         {:.1}% (estimated {:.1}%)",
        100.0 * mg.stats.coverage(),
        100.0 * prepared.est_coverage
    );
    println!("  baseline 4-wide  {:.3} IPC", baseline.ipc());
    println!(
        "  reduced, no MG   {:.3} IPC ({:+.1}%)",
        plain.ipc(),
        100.0 * (plain.ipc() / baseline.ipc() - 1.0)
    );
    println!(
        "  reduced + MG     {:.3} IPC ({:+.1}%)",
        mg.ipc(),
        100.0 * (mg.ipc() / baseline.ipc() - 1.0)
    );
    println!(
        "  serialized handles {} (harmful {})",
        mg.stats.serialized_handles, mg.stats.harmful_serializations
    );
    Ok(())
}
