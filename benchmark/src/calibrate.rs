//! The machine-speed yardstick the benchmark reports its times against.
//!
//! The benchmark shares its CPUs with other tenants, and their load moves
//! the speed of every instruction by up to 2x for tens of seconds at a time
//! (with no steal time showing). A fixed kernel of the benchmark's own, timed
//! next to each measured pass, slows down with the machine and not with the
//! program, so `time * REFERENCE / kernel time` is the pass's time at the
//! reference speed. On an undisturbed machine of the reference kind the
//! scale is about 1.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on an undisturbed 2-vCPU virtual machine of the kind
/// the benchmark was written on (the fastest of many runs).
pub const REFERENCE: Duration = Duration::from_micros(230);

/// Fills and sorts a 32 KiB array four times. The kernel allocates
/// nothing, so the heap state the program leaves behind cannot change its
/// speed; its sort is the branchy, comparison-bound kind of work the
/// prover does.
fn kernel() -> u64 {
    let mut values = [0u64; 4096];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0;
    for _ in 0..4 {
        for value in values.iter_mut() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *value = state >> 17;
        }
        values.sort_unstable();
        acc ^= values[values.len() / 2];
    }
    acc
}

/// The kernel's time: the fastest of three back-to-back runs, so the
/// caches and heap state the program left behind do not count.
pub fn kernel_time() -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel());
            start.elapsed()
        })
        .min()
        .expect("three runs")
}

/// The factor that takes a time measured between kernel timings `before`
/// and `after` to the reference speed.
pub fn scale(before: Duration, after: Duration) -> f64 {
    2.0 * REFERENCE.as_secs_f64() / (before + after).as_secs_f64()
}
