//! Order statistics, and the segmented record of a timed window.
//!
//! The window is cut into [`SEGMENTS`] equal segments of service time.
//! What happened is accumulated per segment as the run goes; each
//! segment yields its own rate, latency quantiles and CPU per operation,
//! and the run's figures are order statistics over the segments — so a
//! neighbour's busy phase on a shared box spoils segments, not the
//! number (see `harness` for which order statistic and why).

/// Segments the timed window is cut into.
pub const SEGMENTS: usize = 20;

/// Sorts a sample in place (total order; the harness never records NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending sample, linearly
/// interpolated between order statistics; 0 for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q`-quantile of an unsorted sample (see [`quantile`]).
pub fn quartile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, q)
}

/// `num ÷ den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quartile(values, 0.5)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as a fraction — `None` below 20 samples.
pub fn top_percentile(samples: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// What happened in each segment of a timed window: operations, service
/// time, latency samples, and process CPU time at the boundaries.
///
/// Memory stays small and is preallocated per segment — the recorder
/// must not be what `peak_rss_mb` measures.
#[derive(Debug, Clone)]
pub struct Segments {
    width_ns: u64,
    ops: Vec<f64>,
    ns: Vec<f64>,
    samples: Vec<Vec<f64>>,
    /// `(operations so far, CPU µs so far)` at the window's start and at
    /// each segment boundary crossed.
    cpu_marks: Vec<(u64, f64)>,
}

/// A window's figures over a chosen set of its segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    /// 0 when no CPU reading was available.
    pub cpu_us_per_op: f64,
    pub samples: usize,
}

impl Segments {
    /// Segments for a planned window of `window_ns`. The last one is
    /// open-ended: the final step overshoots the plan a little and what
    /// it did belongs somewhere.
    pub fn new(window_ns: u64) -> Segments {
        Segments {
            width_ns: (window_ns / SEGMENTS as u64).max(1),
            ops: vec![0.0; SEGMENTS],
            ns: vec![0.0; SEGMENTS],
            samples: vec![Vec::new(); SEGMENTS],
            cpu_marks: Vec::with_capacity(SEGMENTS + 1),
        }
    }

    fn index_of(&self, at_ns: u64) -> usize {
        ((at_ns / self.width_ns) as usize).min(SEGMENTS - 1)
    }

    /// `ops` operations completed between `start_ns` and `end_ns` of
    /// service time. A batch that straddles a boundary is credited to
    /// both sides in proportion to the time it spent in each, so a
    /// segment's rate does not jump by one whole batch.
    pub fn add_batch(&mut self, start_ns: u64, end_ns: u64, ops: u64) {
        let (first, last) = (self.index_of(start_ns), self.index_of(end_ns));
        let span = end_ns.saturating_sub(start_ns);
        if first == last || span == 0 {
            self.ops[last] += ops as f64;
            self.ns[last] += span as f64;
            return;
        }
        for i in first..=last {
            let lo = start_ns.max(i as u64 * self.width_ns);
            let hi = if i == last {
                end_ns
            } else {
                end_ns.min((i as u64 + 1) * self.width_ns)
            };
            let part = hi.saturating_sub(lo) as f64;
            self.ops[i] += ops as f64 * part / span as f64;
            self.ns[i] += part;
        }
    }

    /// A latency sample of an operation that completed at `at_ns`.
    pub fn add_latency(&mut self, at_ns: u64, us: f64) {
        let i = self.index_of(at_ns);
        self.samples[i].push(us);
    }

    /// How many CPU marks are due by `at_ns` (one at the start, one per
    /// boundary crossed).
    pub fn cpu_marks_due(&self, at_ns: u64) -> usize {
        1 + (at_ns / self.width_ns).min(SEGMENTS as u64) as usize
    }

    pub fn cpu_marks(&self) -> usize {
        self.cpu_marks.len()
    }

    pub fn add_cpu_mark(&mut self, ops_so_far: u64, cpu_us: f64) {
        self.cpu_marks.push((ops_so_far, cpu_us));
    }

    /// Each segment's own figures, in order.
    pub fn per_segment(&self) -> Vec<Figures> {
        (0..SEGMENTS).map(|i| self.figures(&[i])).collect()
    }

    /// Every segment.
    pub fn all() -> Vec<usize> {
        (0..SEGMENTS).collect()
    }

    /// Rate, pooled latency quantiles and CPU per operation over the
    /// segments in `chosen`.
    pub fn figures(&self, chosen: &[usize]) -> Figures {
        let ops: f64 = chosen.iter().map(|&i| self.ops[i]).sum();
        let ns: f64 = chosen.iter().map(|&i| self.ns[i]).sum();
        let mut pooled: Vec<f64> = chosen
            .iter()
            .flat_map(|&i| self.samples[i].iter().copied())
            .collect();
        sort(&mut pooled);
        // CPU marks bracket segment `i` as marks `i` and `i + 1`.
        let (mut cpu_us, mut cpu_ops) = (0.0, 0u64);
        for &i in chosen {
            if let (Some(a), Some(b)) = (self.cpu_marks.get(i), self.cpu_marks.get(i + 1)) {
                cpu_us += b.1 - a.1;
                cpu_ops += b.0 - a.0;
            }
        }
        Figures {
            ops_per_s: ratio(ops, ns * 1e-9),
            p50_us: quantile(&pooled, 0.5),
            p95_us: quantile(&pooled, 0.95),
            cpu_us_per_op: ratio(cpu_us, cpu_ops as f64),
            samples: pooled.len(),
        }
    }

    /// Every latency sample of the window, ascending.
    pub fn pooled_latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.samples.iter().flatten().copied().collect();
        sort(&mut all);
        all
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the acceptance check spreads
/// are defined with it, so `compare` mirrors it exactly.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn iqr_share(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles_exclusive(values) {
        Some((q1, q3)) if med.abs() > 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(10), None);
        assert_eq!(top_percentile(20), Some(0.5));
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(200), Some(0.95));
        assert_eq!(top_percentile(1000), Some(0.99));
        assert_eq!(top_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn straddling_batches_are_split_by_time() {
        // Window of 20 s: segments of 1 s. One batch of 100 ops covers
        // [0.5 s, 2.5 s): a quarter in segment 0, half in 1, a quarter
        // in 2.
        let mut seg = Segments::new(20_000_000_000);
        seg.add_batch(500_000_000, 2_500_000_000, 100);
        assert!((seg.ops[0] - 25.0).abs() < 1e-9);
        assert!((seg.ops[1] - 50.0).abs() < 1e-9);
        assert!((seg.ops[2] - 25.0).abs() < 1e-9);
        assert_eq!(seg.ops[3], 0.0);
        // Ops and time are conserved, and each part runs at the batch's
        // own rate of 50 ops/s.
        assert!((seg.ops.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!((seg.ns.iter().sum::<f64>() - 2e9).abs() < 1e-3);
        for f in &seg.per_segment()[0..3] {
            assert!((f.ops_per_s - 50.0).abs() < 1e-9);
        }
        // The last segment is open-ended: an overshooting batch stays in.
        seg.add_batch(19_500_000_000, 21_000_000_000, 30);
        assert!((seg.ops[SEGMENTS - 1] - 30.0).abs() < 1e-9);
        assert!((seg.ns[SEGMENTS - 1] - 1.5e9).abs() < 1e-3);
    }

    #[test]
    fn good_side_quartiles_ignore_a_disturbed_phase() {
        // Steady 1000 ops/s for 20 s, except that from 5 s to 17 s a
        // neighbour halves the speed — twelve of twenty segments. The
        // whole-window figures and the median over segments move; the
        // quartiles on the good side do not.
        let mut seg = Segments::new(20_000_000_000);
        let mut t = 0u64;
        while t < 20_000_000_000 {
            let slow = (5_000_000_000..17_000_000_000).contains(&t);
            let dur = if slow { 2_000_000 } else { 1_000_000 };
            seg.add_batch(t, t + dur, 1);
            seg.add_latency(t + dur, dur as f64 / 1e3);
            t += dur;
        }
        let per = seg.per_segment();
        let rates: Vec<f64> = per.iter().map(|f| f.ops_per_s).collect();
        let p95s: Vec<f64> = per.iter().map(|f| f.p95_us).collect();
        assert!((quartile(&rates, 0.75) - 1000.0).abs() < 1.0);
        assert_eq!(quartile(&p95s, 0.25), 1000.0);
        assert!((median(&rates) - 500.0).abs() < 1.0, "the median gives in");
        let whole = seg.figures(&Segments::all());
        assert!(whole.ops_per_s < 720.0, "the phase shows in {whole:?}");
        assert_eq!(whole.p95_us, 2000.0);
        assert_eq!(seg.pooled_latencies().len(), whole.samples);
    }

    #[test]
    fn cpu_per_operation_comes_from_the_marks_around_a_segment() {
        let mut seg = Segments::new(20_000_000_000);
        // 100 ops and 1000 µs of CPU per segment, except segment 3,
        // which burns 5000 µs.
        let (mut ops, mut cpu) = (0u64, 0.0);
        seg.add_cpu_mark(ops, cpu);
        for i in 0..SEGMENTS {
            ops += 100;
            cpu += if i == 3 { 5000.0 } else { 1000.0 };
            seg.add_cpu_mark(ops, cpu);
        }
        assert_eq!(seg.figures(&[0, 1, 2]).cpu_us_per_op, 10.0);
        assert_eq!(seg.figures(&[3]).cpu_us_per_op, 50.0);
        assert_eq!(seg.figures(&[2, 3]).cpu_us_per_op, 30.0);
        // Marks are due one at the start and one per boundary crossed.
        assert_eq!(seg.cpu_marks_due(0), 1);
        assert_eq!(seg.cpu_marks_due(999_999_999), 1);
        assert_eq!(seg.cpu_marks_due(1_000_000_000), 2);
        assert_eq!(seg.cpu_marks_due(25_000_000_000), SEGMENTS + 1);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v).expect("ten values have quartiles");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles_exclusive(&[3.0, 1.0, 2.0]).expect("three values");
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!(quartiles_exclusive(&[1.0]).is_none());
    }
}
