//! The host-speed reference: a fixed piece of work that uses none of the
//! repository's crates, timed between the workloads' samples.
//!
//! The benchmark runs on shared hosts whose speed drifts by a quarter or
//! more over minutes, longer than any run. The reference sees much of the
//! same drift: its median time in a run, against [`NOMINAL_SECS`], scales
//! the run's host-time metrics to the host's nominal speed. A change to
//! the program moves those metrics; a change of host speed moves the
//! reference too and largely cancels out. The reference itself must never
//! change, or the scaled metrics of older commits stop being comparable.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::secs;

/// Steps of one reference pass.
const STEPS: u32 = 200_000;
/// Pages of the pass's sparse memory (4 KiB each).
const PAGES: u32 = 64;
/// Host seconds one pass takes at the nominal speed: about a pass on the
/// 2-vCPU 2.0 GHz Intel Xeon container the benchmark was written on, when
/// lightly loaded. It only sets the unit; comparisons between commits do
/// not depend on it.
pub const NOMINAL_SECS: f64 = 0.005;

/// Times one reference pass: a xorshift-driven mix of loads, stores and
/// data-dependent branches on a fresh page map, as a simulator's
/// fetch-decode-execute loop does.
pub fn pass() -> f64 {
    let t = Instant::now();
    let mut pages: HashMap<u32, Box<[u8; 4096]>> = HashMap::new();
    let mut x: u32 = 0x9E37_79B9;
    let mut acc: u32 = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let addr = x % (PAGES * 4096);
        let page = pages
            .entry(addr >> 12)
            .or_insert_with(|| Box::new([0; 4096]));
        let byte = &mut page[(addr & 4095) as usize];
        match x >> 30 {
            0 => *byte = acc as u8,
            1 => acc = acc.wrapping_add(u32::from(*byte)),
            2 => acc = acc.rotate_left(5) ^ x,
            _ if acc & 1 == 0 => acc = acc.wrapping_mul(33),
            _ => acc ^= addr,
        }
    }
    black_box(acc);
    secs(t)
}
