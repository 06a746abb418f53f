//! Stress tests: the engine must stay deadlock-free and account
//! resources correctly under extreme (non-paper) configurations.

use mg_isa::Opcode;
use mg_sim::{simulate, MachineConfig, SimOptions};
use mg_workloads::{benchmark, Executor, Workload};

fn workload() -> Workload {
    let mut spec = benchmark("mib_qsort").unwrap();
    spec.params.target_dyn = 8_000;
    spec.generate()
}

fn run(w: &Workload, cfg: &MachineConfig) -> mg_sim::SimResult {
    let (trace, _) = Executor::new(&w.program).run_with_mem(&w.init_mem).unwrap();
    let r = simulate(&w.program, &trace, cfg, SimOptions::default());
    assert!(!r.hit_cycle_cap, "{}: hit cycle cap", cfg.name);
    assert_eq!(r.stats.committed_instrs, trace.len() as u64);
    r
}

#[test]
fn minimal_physical_registers() {
    let w = workload();
    let mut cfg = MachineConfig::reduced();
    cfg.name = "tiny-regs".into();
    cfg.phys_regs = 34; // two rename registers
    let tiny = run(&w, &cfg);
    let normal = run(&w, &MachineConfig::reduced());
    assert!(tiny.stats.cycles > normal.stats.cycles);
}

#[test]
fn minimal_issue_queue() {
    let w = workload();
    let mut cfg = MachineConfig::reduced();
    cfg.name = "tiny-iq".into();
    cfg.iq_entries = 2;
    let tiny = run(&w, &cfg);
    let normal = run(&w, &MachineConfig::reduced());
    assert!(tiny.stats.cycles > normal.stats.cycles);
}

#[test]
fn minimal_rob_and_queues() {
    let w = workload();
    let mut cfg = MachineConfig::reduced();
    cfg.name = "tiny-rob".into();
    cfg.rob_entries = 4;
    cfg.lq_entries = 2;
    cfg.sq_entries = 2;
    run(&w, &cfg);
}

#[test]
fn single_wide_machine() {
    let w = workload();
    let mut cfg = MachineConfig::reduced();
    cfg.name = "1wide".into();
    cfg.fetch_width = 1;
    cfg.rename_width = 1;
    cfg.issue_width = 1;
    cfg.commit_width = 1;
    cfg.issue_simple = 1;
    cfg.issue_load = 1;
    let one = run(&w, &cfg);
    assert!(one.ipc() <= 1.0 + 1e-9);
}

/// The reduced machine with misses slower than the engine's 512-cycle
/// wakeup wheel.
fn slow_memory() -> MachineConfig {
    let mut cfg = MachineConfig::reduced();
    cfg.name = "slow-mem".into();
    cfg.mem_lat = 2000;
    cfg
}

#[test]
fn glacial_memory() {
    let w = workload();
    let cfg = slow_memory();
    // Misses wake their consumers past the engine's wakeup wheel, from
    // its overflow heap; an overflow entry drained early trips the
    // engine's woke-before-its-operands assertion, and the run must
    // still pay for every slow miss.
    let slow = run(&w, &cfg);
    let normal = run(&w, &MachineConfig::reduced());
    assert!(
        slow.stats.cycles > normal.stats.cycles,
        "{} vs {}",
        slow.stats.cycles,
        normal.stats.cycles
    );
}

/// The slow-memory run, profiled: no op issues before its operands are
/// ready. A miss wakes its consumer from the wakeup wheel's overflow
/// heap, so an overflow entry released early would show here as an
/// issue time below a source-ready time, in every build profile.
#[test]
fn glacial_memory_issues_no_op_before_its_operands() {
    let w = workload();
    let (trace, _) = Executor::new(&w.program).run_with_mem(&w.init_mem).unwrap();
    let opts = SimOptions {
        profile_slack: true,
        ..SimOptions::default()
    };
    let r = simulate(&w.program, &trace, &slow_memory(), opts);
    assert!(!r.hit_cycle_cap);
    let profile = r.slack.expect("profiling requested");
    let (mut checked, mut slow_loads) = (0, 0);
    for (id, inst) in w.program.iter_static() {
        let rec = profile.get(id);
        // Ops that bypass the issue queue record no operand slots; an
        // absent slot averages to 0, which says nothing.
        if rec.count == 0 || inst.op.is_uncond_control() || inst.op == Opcode::Nop {
            continue;
        }
        slow_loads += (inst.op.is_load() && rec.avg_latency > 512.0) as usize;
        for slot in 0..inst.uses().count() {
            assert!(
                rec.issue_rel >= rec.src_ready_rel[slot] - 1e-9,
                "{id:?} ({:?}) issues at {} before slot {slot} is ready at {}",
                inst.op,
                rec.issue_rel,
                rec.src_ready_rel[slot]
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} operand slots checked");
    assert!(slow_loads > 0, "no load waited past the wakeup wheel");
}

#[test]
fn tiny_caches() {
    let w = workload();
    let mut cfg = MachineConfig::reduced();
    cfg.name = "tiny-caches".into();
    cfg.il1.size_bytes = 1024;
    cfg.dl1.size_bytes = 1024;
    cfg.l2.size_bytes = 8 * 1024;
    let tiny = run(&w, &cfg);
    assert!(tiny.stats.dl1.miss_rate() > run(&w, &MachineConfig::reduced()).stats.dl1.miss_rate());
}

#[test]
fn zero_length_trace() {
    let w = workload();
    let trace = mg_workloads::Trace::default();
    let r = simulate(
        &w.program,
        &trace,
        &MachineConfig::reduced(),
        SimOptions::default(),
    );
    assert_eq!(r.stats.committed_instrs, 0);
    assert!(!r.hit_cycle_cap);
}
