//! Host-speed calibration.
//!
//! The boxes this benchmark runs on are shared. Measured on the machine
//! it was written on (2 vCPUs of a virtualised Xeon): a fixed piece of
//! work took anything from 1× to 1.75× its quiet time, in phases lasting
//! from milliseconds to many minutes, with nothing else running in the
//! guest. A run of a few seconds cannot average that out, and two sets
//! of runs minutes apart can differ by more than any bound worth having.
//!
//! So every untraced run times a small, frozen kernel of its own — two
//! dozen times, spread over the run — and reports its time-based metrics
//! in **reference time**: measured time multiplied by `REFERENCE_NS ÷
//! (quiet quartile of the kernel's times)`. On a host in
//! the state the reference was taken in, the factor is 1 and the numbers
//! are plain wall-clock figures; on a slowed host both the workload and
//! the kernel slow down and most of the slowdown cancels. The raw
//! figures and the factor are printed with every run.
//!
//! The kernel belongs to the benchmark, not to the library: no change to
//! the code under test can move it. It mixes what the library's hot
//! loops do — dense floating-point row operations that stay in L1 (a
//! simplex pivot) and dependent loads through a table that does not (an
//! event queue, a `BTreeMap` walk).

use std::time::Instant;

/// The kernel's time on the reference host state, nanoseconds: the quiet
/// quartile measured on the seed commit's machine (see the README's
/// hardware line). Frozen — changing it rescales every time-based metric.
pub const REFERENCE_NS: f64 = 3_350_000.0;

const MATRIX: usize = 64;
const MATRIX_REPS: u64 = 16;
const TABLE: usize = 1 << 16;
const CHASE_STEPS: u64 = 300_000;

/// Owns the kernel's buffers and the samples taken so far.
pub struct Calibrator {
    matrix: Vec<f64>,
    table: Vec<u32>,
    samples_ns: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            matrix: vec![0.0; MATRIX * MATRIX],
            table: vec![0; TABLE],
            samples_ns: Vec::new(),
        }
    }

    /// The fixed work: [`MATRIX_REPS`] Gauss–Jordan eliminations of a
    /// seeded, diagonally dominant 64×64 matrix, then a dependent walk
    /// of [`CHASE_STEPS`] through a 256 KiB table. Returns a checksum so
    /// nothing can be optimised away.
    fn kernel(&mut self) -> f64 {
        let n = MATRIX;
        let a = &mut self.matrix;
        let mut checksum = 0.0;
        for rep in 0..MATRIX_REPS {
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ rep;
            for v in a.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = (x >> 11) as f64 / (1u64 << 53) as f64 + 0.5;
            }
            for i in 0..n {
                a[i * n + i] += n as f64;
            }
            for p in 0..n {
                let pivot = a[p * n + p];
                for r in (0..n).filter(|&r| r != p) {
                    let f = a[r * n + p] / pivot;
                    for c in 0..n {
                        a[r * n + c] -= f * a[p * n + c];
                    }
                }
            }
            checksum += a[n * n - 1];
        }
        for (i, slot) in self.table.iter_mut().enumerate() {
            *slot = (i as u32).wrapping_mul(2_654_435_761);
        }
        let (mut at, mut sum) = (0usize, 0u64);
        for k in 0..CHASE_STEPS {
            let next = self.table[at] as usize;
            if next & 1 == 0 {
                sum += k;
            } else {
                sum ^= k;
            }
            self.table[at] = self.table[at]
                .wrapping_mul(1_664_525)
                .wrapping_add(1_013_904_223);
            at = next & (TABLE - 1);
        }
        checksum + sum as f64
    }

    /// Times the kernel once and keeps the sample.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::hint::black_box(self.kernel());
        self.samples_ns.push(start.elapsed().as_nanos() as f64);
    }

    /// The kernel's quiet-quartile time over the samples taken, ns.
    pub fn quiet_ns(&self) -> f64 {
        crate::stats::quartile(&self.samples_ns, 0.25)
    }

    /// What a measured duration is multiplied by to express it in
    /// reference time (1 when no sample was taken).
    pub fn factor(&self) -> f64 {
        factor_for(self.quiet_ns())
    }

    pub fn samples(&self) -> usize {
        self.samples_ns.len()
    }
}

/// `REFERENCE_NS ÷ quiet_ns`, or 1 for a missing measurement.
pub fn factor_for(quiet_ns: f64) -> f64 {
    if quiet_ns > 0.0 {
        REFERENCE_NS / quiet_ns
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work() {
        let mut a = Calibrator::new();
        let mut b = Calibrator::new();
        let first = a.kernel();
        assert_eq!(first.to_bits(), b.kernel().to_bits());
        // Same work every time it is called, whatever ran before.
        assert_eq!(first.to_bits(), a.kernel().to_bits());
        assert!(first.is_finite());
    }

    #[test]
    fn a_host_twice_as_slow_halves_measured_times() {
        assert_eq!(factor_for(REFERENCE_NS), 1.0);
        assert_eq!(factor_for(2.0 * REFERENCE_NS), 0.5);
        assert_eq!(factor_for(0.0), 1.0);
        let mut c = Calibrator::new();
        assert_eq!(c.factor(), 1.0, "no sample, no correction");
        c.sample();
        c.sample();
        assert_eq!(c.samples(), 2);
        assert!(c.factor() > 0.0 && c.factor().is_finite());
    }
}
