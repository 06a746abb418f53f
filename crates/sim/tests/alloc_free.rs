//! The engine's steady state allocates nothing: a run and a four times
//! longer run of the same loop make the same number of heap allocations,
//! so everything a run allocates is set-up sized by the program and the
//! machine, never by the number of simulated cycles.

use mg_isa::{BrCond, Instruction, MgTag, Program, ProgramBuilder, Reg};
use mg_sim::{simulate, MachineConfig, MgConfig, SimOptions};
use mg_workloads::Executor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation events (alloc and realloc) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting each thread's allocation events, so
/// that the test harness's other threads do not disturb a measurement.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// thread-local counter has a const initializer and no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn tag(pos: u8) -> MgTag {
    MgTag {
        instance: 0,
        template: 0,
        pos,
        len: 3,
    }
}

/// `iters` iterations of a loop holding one three-op mini-graph, a load
/// and a store. The store writes an address the load never reads, so no
/// memory-order violation squashes and replays ops.
fn handle_loop(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new("alloc-free");
    let f = pb.func("main");
    let head = pb.block(f);
    let body = pb.block(f);
    let exit = pb.block(f);
    pb.push(head, Instruction::li(Reg::R1, iters));
    pb.push(head, Instruction::li(Reg::R2, 0x8000));
    pb.set_fallthrough(head, body);
    pb.push(body, Instruction::addi(Reg::R3, Reg::R1, 3).with_mg(tag(0)));
    pb.push(body, Instruction::shli(Reg::R3, Reg::R3, 2).with_mg(tag(1)));
    pb.push(
        body,
        Instruction::add(Reg::R4, Reg::R3, Reg::R5).with_mg(tag(2)),
    );
    pb.push(body, Instruction::load(Reg::R5, Reg::R2, 0));
    pb.push(body, Instruction::store(Reg::R2, Reg::R4, 64));
    pb.push(body, Instruction::addi(Reg::R1, Reg::R1, -1));
    pb.push(body, Instruction::br(BrCond::Ne, Reg::R1, Reg::ZERO, body));
    pb.set_fallthrough(body, exit);
    pb.push(exit, Instruction::halt());
    pb.build().unwrap()
}

/// Allocations made by one simulation of `iters` loop iterations, and
/// its cycle count.
fn measure(iters: i64, opts: SimOptions) -> (u64, u64) {
    let p = handle_loop(iters);
    let (trace, _) = Executor::new(&p).run().unwrap();
    let cfg = MachineConfig::reduced().with_mg(MgConfig::paper());
    let before = allocs();
    let r = simulate(&p, &trace, &cfg, opts);
    let made = allocs() - before;
    assert!(!r.hit_cycle_cap);
    assert_eq!(r.stats.committed_instrs, trace.len() as u64);
    assert!(r.stats.mg_handles as i64 >= iters, "{:?}", r.stats);
    assert_eq!(r.stats.violation_flushes, 0, "{:?}", r.stats);
    assert_eq!(r.slack.is_some(), opts.profile_slack);
    (made, r.stats.cycles)
}

#[test]
fn steady_state_makes_no_allocations() {
    for profile_slack in [false, true] {
        let opts = SimOptions {
            profile_slack,
            ..SimOptions::default()
        };
        // Warm up: first-use registrations (telemetry counters) allocate
        // once per process.
        measure(50, opts);
        let (short, short_cycles) = measure(500, opts);
        let (long, long_cycles) = measure(2000, opts);
        assert!(
            long_cycles > 3 * short_cycles,
            "{short_cycles} vs {long_cycles}"
        );
        assert_eq!(
            short, long,
            "profile_slack {profile_slack}: {short} allocations over {short_cycles} cycles, \
             {long} over {long_cycles}"
        );
    }
}
