//! Opt-in wallclock profiling for driver binaries.
//!
//! Wallclock is the one thing the telemetry core must never touch: a
//! nanosecond in a [`Snapshot`](crate::Snapshot) would make every hash
//! machine-dependent. Drivers still legitimately want a rough "where did
//! the seconds go" answer, so this module quarantines `Instant` behind
//! an explicit profiler whose output goes to a human (stderr, a log) and
//! **never** into a snapshot. Library crates must not use it.

#![expect(
    clippy::disallowed_methods,
    reason = "wallclock is quarantined here by design: WallProfiler is driver-only and its readings never enter a Snapshot or any hashed artifact"
)]

use std::time::Instant;

/// Accumulates coarse wallclock bins for a driver binary.
///
/// Usage: `mark(label)` at each phase boundary; the time since the
/// previous mark is charged to that label. [`WallProfiler::render`]
/// produces a human-readable multi-line summary. Bins are reported in
/// first-use order — this is presentation, not telemetry, and it is the
/// caller's job to keep it out of anything deterministic.
#[derive(Debug)]
pub struct WallProfiler {
    start: Instant,
    last: Instant,
    bins: Vec<(&'static str, f64)>,
}

impl Default for WallProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl WallProfiler {
    /// Starts profiling now.
    pub fn new() -> Self {
        let now = Instant::now();
        WallProfiler {
            start: now,
            last: now,
            bins: Vec::new(),
        }
    }

    /// Charges the wallclock since the previous mark (or construction)
    /// to `label`.
    pub fn mark(&mut self, label: &'static str) {
        let now = Instant::now();
        let secs = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        match self.bins.iter_mut().find(|(l, _)| *l == label) {
            Some((_, acc)) => *acc += secs,
            None => self.bins.push((label, secs)),
        }
    }

    /// Total wallclock seconds since construction.
    pub fn total_secs(&self) -> f64 {
        self.last.duration_since(self.start).as_secs_f64()
            + Instant::now().duration_since(self.last).as_secs_f64()
    }

    /// A human-readable summary, one `label: seconds` line per bin.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, secs) in &self.bins {
            out.push_str(&format!("wall {label}: {secs:.3}s\n"));
        }
        out.push_str(&format!("wall total: {:.3}s\n", self.total_secs()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_accumulate_and_render() {
        let mut p = WallProfiler::new();
        p.mark("setup");
        p.mark("solve");
        p.mark("solve");
        let text = p.render();
        assert!(text.contains("wall setup:"));
        assert!(text.contains("wall solve:"));
        assert!(text.contains("wall total:"));
        assert_eq!(p.bins.len(), 2, "repeat labels share a bin");
        assert!(p.total_secs() >= 0.0);
    }
}
