//! Host speed, measured with a fixed kernel that lives in the benchmark
//! and not in the measured program.
//!
//! On the shared reference host, other tenants slow every process by up
//! to 60% for minutes at a time: longer than one run, so no median
//! inside a run removes it. A toy out-of-order core model (rename table,
//! reorder window, two levels of cache tags, branchy code) slows with
//! the simulator. Timed between pieces of work about half a second long,
//! it tracks the slowdown closely: over ten minutes, the median of such
//! pieces in 15 s windows varied 1.75x between the fastest and slowest
//! window, while the same pieces divided by the kernel's time around
//! them varied 1.16x.
//!
//! [`Probe::time`] runs one piece of work between two kernel passes and
//! gives its time both raw and scaled by the kernel's slowdown against
//! [`REFERENCE_S`], its time on a quiet host: the time the piece would
//! take on the quiet reference host. The kernel is frozen here so that
//! no change to the program can move it.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// One kernel pass on the reference host (2 vCPUs of a shared Intel
/// Xeon) when no other tenant slows it, in seconds.
pub const REFERENCE_S: f64 = 0.016;

/// Instructions the toy core commits per pass.
const INSTRS: usize = 1_000_000;
const SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// Xorshift64: the kernel's instruction stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One pass of a toy 4-wide out-of-order core over a random instruction
/// stream: renames two sources and a destination per instruction,
/// commits in order from a 96-entry window, and looks loads up in a
/// 512-line and a 16K-line cache of tags. Returns the cycle count, which
/// only keeps the work alive.
fn toy_core(seed: u64) -> u64 {
    const WINDOW: usize = 96;
    const WIDTH: usize = 4;
    const L1: usize = 512;
    const L2: usize = 16_384;
    let mut stream = Stream(seed | 1);
    let mut ready_at = [0u64; 32];
    let mut window = vec![0u64; WINDOW];
    let mut l1 = vec![u64::MAX; L1];
    let mut l2 = vec![u64::MAX; L2];
    let (mut head, mut tail, mut cycle) = (0usize, 0usize, 0u64);
    let mut addr = 0u64;
    while head < INSTRS {
        cycle += 1;
        let mut n = 0;
        while head != tail && n < WIDTH && window[head % WINDOW] <= cycle {
            head += 1;
            n += 1;
        }
        let mut n = 0;
        while tail - head < WINDOW && n < WIDTH {
            let r = stream.next();
            let src = |shift: u64| ((r >> shift) & 31) as usize;
            let mut ready = ready_at[src(0)].max(ready_at[src(5)]).max(cycle);
            match (r >> 16) & 7 {
                0 | 1 => {
                    addr = addr.wrapping_add((r >> 20) & 0x3ff);
                    let line = (addr >> 3) & 0xf_ffff;
                    let (a, b) = (line as usize % L1, line as usize % L2);
                    if l1[a] == line {
                        ready += 3;
                    } else if l2[b] == line {
                        ready += 12;
                        l1[a] = line;
                    } else {
                        ready += 60;
                        l1[a] = line;
                        l2[b] = line;
                    }
                }
                2 => ready += 3,
                3 if (r >> 24) & 15 == 0 => cycle += 8,
                _ => ready += 1,
            }
            window[tail % WINDOW] = ready;
            ready_at[src(10)] = ready;
            tail += 1;
            n += 1;
        }
    }
    cycle
}

/// Seconds one kernel pass takes now.
fn pass() -> f64 {
    let t = Instant::now();
    black_box(toy_core(black_box(SEED)));
    t.elapsed().as_secs_f64()
}

/// One piece of work's time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    pub raw_s: f64,
    /// At the reference host's quiet speed.
    pub scaled_s: f64,
}

/// Times pieces of work between kernel passes.
pub struct Probe {
    passes: Vec<f64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            passes: vec![pass()],
        }
    }

    /// Runs `work`, then a kernel pass; the work's time is scaled by the
    /// mean of the passes just before and just after it.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timing) {
        let t = Instant::now();
        let out = work();
        let raw_s = t.elapsed().as_secs_f64();
        let before = *self.passes.last().expect("a pass is taken at start");
        let after = pass();
        self.passes.push(after);
        let slowdown = (before + after) / 2.0 / REFERENCE_S;
        (
            out,
            Timing {
                raw_s,
                scaled_s: raw_s / slowdown,
            },
        )
    }

    /// The run's median kernel pass over [`REFERENCE_S`].
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.passes) / REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_a_fixed_amount_of_work() {
        assert_eq!(toy_core(SEED), toy_core(SEED));
        assert_ne!(toy_core(SEED), toy_core(SEED + 2));
    }

    #[test]
    fn probe_scales_by_the_passes_around_the_work() {
        let mut probe = Probe::new();
        let (x, t) = probe.time(|| 6 * 7);
        assert_eq!(x, 42);
        assert_eq!(probe.passes.len(), 2);
        let mean = (probe.passes[0] + probe.passes[1]) / 2.0;
        let expect = t.raw_s * REFERENCE_S / mean;
        assert!((t.scaled_s - expect).abs() <= 1e-12 * expect.max(1.0));
        assert!(probe.slowdown() > 0.0);
    }
}
