//! Host-speed calibration.
//!
//! On a shared host the speed available to this process drifts by tens
//! of percent over seconds to minutes, as other tenants load the
//! machine. A pass's host times are therefore reported in *reference
//! seconds*: the measured seconds scaled by [`PROBE_REF_S`] over the
//! mean time of a fixed probe run before every timed call of that pass.
//! The probe belongs to the benchmark, so no change to the translator
//! changes it: a translator that gets faster shows up in full, while a
//! host that gets slower cancels out.
//!
//! The probe mixes what the translator's host time is made of: a
//! dispatch loop over a pseudo-random bytecode, small heap allocations
//! and hash-map updates.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// A fixed scale: about the probe's median time on the host the
/// benchmark was tuned on (5.5-7 ms on a 2-core 2.0 GHz Xeon virtual
/// machine), so reference seconds stay close to the seconds measured
/// there.
pub const PROBE_REF_S: f64 = 0.007;

/// Runs the probe once and returns its host seconds.
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x1234_5678_9ABC_DEF1;
    let code: Vec<u8> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 7) as u8
        })
        .collect();
    let mut regs = [1u64; 8];
    let mut counts: HashMap<u32, u64> = HashMap::new();
    let mut pc = 0usize;
    for step in 0..400_000u32 {
        let r = (step & 7) as usize;
        match code[pc] {
            0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 7]),
            1 => regs[r] ^= regs[(r + 3) & 7].rotate_left(5),
            2 => regs[r] = regs[r].wrapping_mul(0x9E37),
            3 => *counts.entry((regs[r] & 1023) as u32).or_insert(0) += 1,
            4 => regs[r] = black_box(vec![regs[r]; 4]).iter().sum(),
            5 => {
                if regs[r] & 1 == 0 {
                    pc = (pc + 17) & 4095;
                }
            }
            _ => regs[r] = (regs[r] >> 1) | 1,
        }
        pc = (pc + 1) & 4095;
    }
    black_box((regs, counts));
    t.elapsed().as_secs_f64()
}
