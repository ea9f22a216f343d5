//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared host the same single-threaded code runs up to twice as slow
//! for minutes at a time, with no steal time and on-CPU time equal to wall
//! time: the slowdown is in the host (frequency, a busy sibling thread,
//! memory traffic), so no choice of repetition or statistic inside one run
//! removes it. The end-to-end times are therefore host-corrected: a run's
//! measured times are scaled by [`correction`] of the median time of this
//! kernel, run between the repetitions. The kernel is the benchmark's own
//! code, so a change to the library moves the measured times, and so the
//! reported ones, by its full factor, and leaves the kernel's alone.
//!
//! The kernel is a second-order diffusion round on a 192 × 192 torus in
//! plain `f64` loops — the same kind of work as the library's round loop
//! (a neighbour stencil streaming per-edge flow memory through the caches),
//! so a host slowdown stretches both alike.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time at which no correction applies. On the 2-vCPU host in
/// `README.md` its median over a run was 0.062 to 0.106 s, depending on
/// the host's load.
pub const NOMINAL_S: f64 = 0.05;

/// How strongly the workloads' times follow the kernel's. Regressing log
/// workload time on log kernel time over two sets of runs gave slopes of
/// 0.3 to 0.7 (`README.md`): the kernel reacts to the host's state about
/// twice as strongly as the workloads, so a full correction overshoots.
pub const ELASTICITY: f64 = 0.5;

/// Factor that turns times measured while the kernel took `kernel_s`
/// seconds into host-corrected seconds.
pub fn correction(kernel_s: f64) -> f64 {
    (NOMINAL_S / kernel_s).powf(ELASTICITY)
}

const SIDE: usize = 192;
const ROUNDS: usize = 160;

/// Runs the kernel once; returns its time and a checksum of its result,
/// which is the same on every run.
pub fn run() -> (Duration, u64) {
    let n = SIDE * SIDE;
    let start = Instant::now();
    let mut load: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1000) as f64).collect();
    let mut prev = vec![0.0f64; 2 * n];
    let mut delta = vec![0.0f64; n];
    let (alpha, beta) = (0.2, 1.9);
    for _ in 0..ROUNDS {
        delta.fill(0.0);
        for i in 0..n {
            let (r, c) = (i / SIDE, i % SIDE);
            let east = r * SIDE + (c + 1) % SIDE;
            let south = (r + 1) % SIDE * SIDE + c;
            for (k, j) in [east, south].into_iter().enumerate() {
                let flow =
                    (beta * alpha * (load[i] - load[j]) + (beta - 1.0) * prev[2 * i + k]).round();
                prev[2 * i + k] = flow;
                delta[i] -= flow;
                delta[j] += flow;
            }
        }
        for (x, d) in load.iter_mut().zip(&delta) {
            *x += d;
        }
    }
    let checksum = black_box(&load).iter().sum::<f64>().to_bits();
    (start.elapsed(), checksum)
}
