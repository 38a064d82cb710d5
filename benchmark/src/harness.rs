//! The measurement loop shared by every workload's untraced run: set up
//! several times, warm up, then drive timed steps until the requested
//! amount of *service time* has been measured, and reduce the record to
//! the seven end-to-end metrics.
//!
//! **The time axis is service time** — the sum of the timed calls into
//! the library — so generating inputs and checking outputs between calls
//! is not on it (`harness.gen_share` says how much wall time that was).
//!
//! **Time-based metrics are good-side quartiles over segments.** The
//! window is cut into [`stats::SEGMENTS`] equal segments; each yields its
//! own rate, latency quantiles and CPU time per operation, and the
//! reported figure is the quartile of those twenty values on the *good*
//! side — upper for the rate, lower for times. On a shared box
//! interference comes in phases of seconds and only ever slows a run
//! down: a median over segments survives a burst, the good-side quartile
//! survives a run that was disturbed for up to three quarters of its
//! length. (Measured on the same thirty runs during a noisy hour, in
//! reference time: spread between runs 6–8 % for the upper-quartile
//! rate against 7–19 % for the median over segments, 7–10 % for the
//! lower-quartile p95 against 15–17 % for the pooled one.) The
//! whole-window figures are printed next to them, ungated.
//!
//! **Times are reference times.** A host that is slow for the whole run
//! — which happens, see [`crate::calib`] — is beyond any statistic over
//! the run's own segments, so every time-based metric is scaled by the
//! run's host-speed factor. The raw figures are printed too.

use crate::calib::Calibrator;
use crate::stats::{self, Segments};
use crate::sys;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, and the replays double as
/// the in-process determinism check (same seed, same prefix hash).
pub const SETUP_REPEATS: usize = 3;

/// Share of `--seconds` spent warming up before the timed window.
const WARMUP_SHARE: f64 = 0.1;

/// Failure reasons kept verbatim (the rest are only counted).
const MAX_REASONS: usize = 8;

/// Consecutive steps without any service time after which a run is given
/// up as incorrect: a step that fails before its first timed call (or
/// whose calls all fail at once) never moves the time axis, and a run
/// must end with `failed > 0`, not hang.
const MAX_STALLED_STEPS: u32 = 1000;

/// What a workload's steps record. Only the timed window keeps a
/// segmented record; warm-up and extension steps are merely counted.
#[derive(Debug, Default)]
pub struct Recorder {
    segments: Option<Segments>,
    service_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    served: f64,
    offered: f64,
}

impl Recorder {
    fn timed(window_ns: u64) -> Recorder {
        Recorder {
            segments: Some(Segments::new(window_ns)),
            ..Recorder::default()
        }
    }

    /// `ops` operations completed in `service_ns` of timed library calls.
    pub fn batch(&mut self, service_ns: u64, ops: u64) {
        let end_ns = self.service_ns + service_ns;
        if let Some(segments) = &mut self.segments {
            segments.add_batch(self.service_ns, end_ns, ops);
        }
        self.service_ns = end_ns;
        self.attempted += ops;
    }

    /// One latency sample, as the operation's caller saw it, of an
    /// operation in the batch just recorded.
    pub fn latency_us(&mut self, us: f64) {
        if let Some(segments) = &mut self.segments {
            segments.add_latency(self.service_ns, us);
        }
    }

    /// Work served, as the paper means it, out of work offered (admitted
    /// of valid offers, in-time of generated, …) by this step.
    pub fn served(&mut self, served: f64, offered: f64) {
        self.served += served;
        self.offered += offered;
    }

    /// What the step just made served of what it was offered. Summed per
    /// step from zero, so that the bits do not depend on which recorder
    /// (warm-up, window, extension) the step happened to fall into.
    fn take_served(&mut self) -> (f64, f64) {
        (
            std::mem::take(&mut self.served),
            std::mem::take(&mut self.offered),
        )
    }

    /// `n` operations failed a check (`why` is only rendered while there
    /// is still room to keep it).
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.reasons.len() < MAX_REASONS {
            self.reasons.push(why());
        }
    }

    /// Reads process CPU time and takes a calibration sample at the
    /// window's start and each time a segment boundary has been crossed
    /// — [`stats::SEGMENTS`] + 1 times per run, not per step.
    fn mark_boundaries(&mut self, calib: &mut Calibrator) {
        let Some(segments) = &mut self.segments else {
            return;
        };
        while segments.cpu_marks() < segments.cpu_marks_due(self.service_ns) {
            segments.add_cpu_mark(self.attempted, sys::cpu_time_us().unwrap_or(0.0));
            calib.sample();
        }
    }
}

/// What the deterministic prefix of a script produced. It is replayed
/// from a fresh state on every set-up, so it must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Prefix {
    /// Work served as the paper means it, over…
    pub served: f64,
    /// …work offered.
    pub offered: f64,
    /// Hash over every decision / quality the prefix produced.
    pub hash: u64,
    /// Operations in the prefix, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

/// A workload as the untraced run drives it, once set up.
pub trait Workload {
    /// One closed-loop step (tick, cycle, plan, run) or one open-loop
    /// batch: generate inputs, time the calls, check the outputs.
    fn step(&mut self, rec: &mut Recorder);
}

/// FNV-1a, for prefix hashes.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The result of one run, ready to print.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed above the JSON result.
    pub notes: Vec<String>,
}

/// `served_share` is taken over a fixed number of operations from the
/// start of the script — the prefix, then as many steps as it takes — so
/// that it repeats bit for bit however fast the machine is.
struct ServedShare {
    served: f64,
    offered: f64,
    ops: u64,
    target_ops: u64,
    /// Steps in a row that took no service time.
    stalled_steps: u32,
}

impl ServedShare {
    /// Steps `workload` once into `rec`, counting the step towards the
    /// share while the target has not been reached.
    fn step<W: Workload>(&mut self, workload: &mut W, rec: &mut Recorder) {
        let before = (rec.attempted, rec.service_ns);
        workload.step(rec);
        let (served, offered) = rec.take_served();
        if self.ops < self.target_ops {
            self.served += served;
            self.offered += offered;
            self.ops += rec.attempted - before.0;
        }
        if rec.service_ns > before.1 {
            self.stalled_steps = 0;
        } else {
            self.stalled_steps += 1;
        }
    }

    /// Sticky: once the workload has stopped taking time, no loop that
    /// waits for service time to pass is entered again.
    fn stalled(&self) -> bool {
        self.stalled_steps >= MAX_STALLED_STEPS
    }
}

fn rounded(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs a workload untraced for `seconds` of service time. `setup`
/// builds the system under test from the seed and runs the script's
/// deterministic prefix (populate to steady state, fill warm caches).
/// `served_share` covers the prefix plus the next `served_ops_per_s ×
/// seconds` operations of the script — a frozen count, about half of
/// what the seed commit completes, so that it normally ends inside the
/// window; a slower build keeps stepping, untimed, until it is reached.
pub fn run_end_to_end<W: Workload>(
    seed: u64,
    seconds: f64,
    served_ops_per_s: f64,
    setup: impl Fn(u64) -> Result<(W, Prefix), String>,
) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let mut reasons = Vec::new();

    // Set up several times: the median is `setup_s`, and every replay of
    // the prefix must agree with the first, bit for bit.
    let mut calib = Calibrator::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept: Option<(W, Prefix)> = None;
    let mut deterministic = true;
    for _ in 0..SETUP_REPEATS {
        // The previous instance goes first, so two never coexist and
        // `peak_rss_mb` stays that of one system.
        let previous = kept.take().map(|(workload, prefix)| {
            drop(workload);
            prefix
        });
        calib.sample();
        let start = Instant::now();
        let (workload, prefix) = setup(seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(previous) = previous {
            if previous != prefix {
                deterministic = false;
                reasons.push(format!(
                    "prefix replay diverged: hash {:#018x} then {:#018x}, served {}/{} then {}/{}",
                    previous.hash,
                    prefix.hash,
                    previous.served,
                    previous.offered,
                    prefix.served,
                    prefix.offered
                ));
            }
        }
        kept = Some((workload, prefix));
    }
    let (mut workload, prefix) = kept.ok_or("SETUP_REPEATS is at least one")?;

    let mut share = ServedShare {
        served: prefix.served,
        offered: prefix.offered,
        ops: prefix.attempted,
        target_ops: prefix.attempted + (served_ops_per_s * seconds) as u64,
        stalled_steps: 0,
    };
    let window_ns = (seconds * 1e9) as u64;
    let mut warm = Recorder::default();
    while warm.service_ns < (seconds * WARMUP_SHARE * 1e9) as u64 && !share.stalled() {
        share.step(&mut workload, &mut warm);
    }

    let wall = Instant::now();
    let mut rec = Recorder::timed(window_ns);
    rec.mark_boundaries(&mut calib);
    while rec.service_ns < window_ns && !share.stalled() {
        share.step(&mut workload, &mut rec);
        rec.mark_boundaries(&mut calib);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let mut extension = Recorder::default();
    while share.ops < share.target_ops && !share.stalled() {
        share.step(&mut workload, &mut extension);
    }
    drop(workload);
    if share.stalled() {
        reasons.push(format!(
            "given up: {MAX_STALLED_STEPS} steps in a row took no service time"
        ));
    }

    // Reduce: a figure per segment, the good-side quartile of each over
    // the segments, the whole window next to them — all raw; then the
    // quartiles in reference time.
    let segments = rec
        .segments
        .take()
        .ok_or("the timed recorder keeps segments")?;
    let service_s = rec.service_ns as f64 * 1e-9;
    let per_segment = segments.per_segment();
    let column = |get: fn(&stats::Figures) -> f64| -> Vec<f64> {
        // A segment without samples (or CPU marks) has no figure.
        per_segment.iter().map(get).filter(|v| *v > 0.0).collect()
    };
    let quiet = stats::Figures {
        ops_per_s: stats::quartile(&column(|f| f.ops_per_s), 0.75),
        p50_us: stats::quartile(&column(|f| f.p50_us), 0.25),
        p95_us: stats::quartile(&column(|f| f.p95_us), 0.25),
        cpu_us_per_op: stats::quartile(&column(|f| f.cpu_us_per_op), 0.25),
        samples: per_segment.iter().map(|f| f.samples).sum(),
    };
    let whole = segments.figures(&Segments::all());
    let pooled = segments.pooled_latencies();
    let setup_raw = stats::median(&setup_s);
    let factor = calib.factor();
    if sys::cpu_time_us().is_none() {
        reasons.push("process CPU time unavailable (/proc/self/stat)".into());
    }
    let peak_rss_mb = sys::peak_rss_mb().unwrap_or_else(|| {
        reasons.push("peak RSS unavailable (/proc/self/status)".into());
        0.0
    });
    let served_share = stats::ratio(share.served, share.offered);

    notes.push(format!(
        "window: {service_s:.3} s of service time in {wall_s:.3} s of wall time \
         (harness.gen_share {:.4}), {} ops",
        1.0 - service_s / wall_s,
        rec.attempted,
    ));
    notes.push(format!(
        "host speed: calibration kernel {:.4} ms (quiet quartile of {} samples; reference \
         {:.4} ms) -> times x {factor:.4}, rates / {factor:.4}",
        calib.quiet_ns() / 1e6,
        calib.samples(),
        crate::calib::REFERENCE_NS / 1e6,
    ));
    notes.push(format!(
        "raw ops_per_s per segment: {}",
        column(|f| f.ops_per_s)
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    for (label, f) in [
        ("good-side quartiles over segments", &quiet),
        ("whole window", &whole),
    ] {
        notes.push(format!(
            "raw (wall-clock) figures, {label}: ops_per_s {:.4}, op_p50_us {:.4}, op_p95_us \
             {:.4} ({} samples), cpu_us_per_op {:.4}",
            f.ops_per_s, f.p50_us, f.p95_us, f.samples, f.cpu_us_per_op
        ));
    }
    if let Some(p) = stats::top_percentile(pooled.len()) {
        notes.push(format!(
            "raw p{} over the whole window: {:.4} us (the highest percentile with >= 10 of \
             the {} samples beyond it)",
            p * 100.0,
            stats::quantile(&pooled, p),
            pooled.len()
        ));
    }
    notes.push(format!(
        "served_share: {} of {} over the script's first {} ops{}; prefix hash {:#018x}, \
         replayed {SETUP_REPEATS}x: {}",
        share.served,
        share.offered,
        share.ops,
        if extension.attempted > 0 {
            format!(" ({} of them after the window)", extension.attempted)
        } else {
            String::new()
        },
        prefix.hash,
        if deterministic {
            "identical"
        } else {
            "DIVERGED"
        }
    ));
    notes.push(format!(
        "raw setup_s: {setup_raw:.4}, the median of {}",
        rounded(&setup_s)
    ));

    let attempted = prefix.attempted + warm.attempted + rec.attempted + extension.attempted;
    let failed = prefix.failed + warm.failed + rec.failed + extension.failed;
    reasons.extend(prefix.reasons.iter().cloned());
    reasons.extend(warm.reasons);
    reasons.extend(rec.reasons);
    reasons.extend(extension.reasons);
    for reason in &reasons {
        notes.push(format!("FAILED CHECK: {reason}"));
    }
    Ok(Outcome {
        correct: failed == 0 && reasons.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("ops_per_s".into(), quiet.ops_per_s / factor),
            ("op_p50_us".into(), quiet.p50_us * factor),
            ("op_p95_us".into(), quiet.p95_us * factor),
            ("cpu_us_per_op".into(), quiet.cpu_us_per_op * factor),
            ("served_share".into(), served_share),
            ("peak_rss_mb".into(), peak_rss_mb),
            ("setup_s".into(), setup_raw * factor),
        ],
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose every step "takes" 1 ms for 10 ops.
    struct Toy;

    fn toy(seed: u64) -> Result<(Toy, Prefix), String> {
        Ok((
            Toy,
            Prefix {
                served: 3.0,
                offered: 4.0,
                hash: fnv1a(FNV_BASIS, &seed.to_le_bytes()),
                attempted: 4,
                failed: 0,
                reasons: Vec::new(),
            },
        ))
    }

    impl Workload for Toy {
        fn step(&mut self, rec: &mut Recorder) {
            rec.batch(1_000_000, 10);
            rec.latency_us(1000.0);
            rec.served(9.0, 10.0);
        }
    }

    #[test]
    fn the_loop_reduces_a_steady_toy_to_its_known_rate() {
        // The share covers the prefix's 4 ops plus the next 5000 × 0.2 =
        // 1000: (3 + 900) of (4 + 1000).
        let out = run_end_to_end(5, 0.2, 5000.0, toy).expect("toy never fails");
        assert!(out.correct, "{:?}", out.notes);
        let get = |name: &str| {
            out.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .expect("all seven metrics are present")
        };
        // Reference time: every time-based figure carries the same host
        // factor, so their products with the rate are exact.
        assert!((get("ops_per_s") * get("op_p50_us") - 1e7).abs() < 1e-3);
        assert!((get("ops_per_s") * get("op_p95_us") - 1e7).abs() < 1e-3);
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("segments: ops_per_s 10000.0000, op_p50_us 1000.0000")));
        assert_eq!(get("served_share"), 903.0 / 1004.0);
        assert_eq!(out.metrics.len(), crate::metrics::END_TO_END.len());
        // 200 timed + 20 warm-up steps of 10 ops, plus the prefix's 4.
        assert_eq!(out.attempted, 2000 + 200 + 4);
    }

    /// Serves an awkward fraction, another one every step.
    struct Fractions(u64);

    impl Workload for Fractions {
        fn step(&mut self, rec: &mut Recorder) {
            self.0 += 1;
            rec.batch(1000, 1);
            rec.served(0.1 * (self.0 % 7 + 1) as f64, 1.0);
        }
    }

    #[test]
    fn served_share_does_not_depend_on_where_the_window_starts() {
        // How many steps the warm-up takes depends on the machine; the
        // sum over the script's first steps must not.
        let share_after = |warm_steps: usize| {
            let mut share = ServedShare {
                served: 0.0,
                offered: 0.0,
                ops: 0,
                target_ops: 90,
                stalled_steps: 0,
            };
            let mut workload = Fractions(0);
            let (mut warm, mut rec) = (Recorder::default(), Recorder::timed(1_000_000));
            for i in 0..100 {
                let into = if i < warm_steps { &mut warm } else { &mut rec };
                share.step(&mut workload, into);
            }
            assert_eq!((share.ops, share.offered), (90, 90.0));
            share.served
        };
        assert_eq!(share_after(3).to_bits(), share_after(41).to_bits());
    }

    /// A workload whose every call fails before taking any time.
    struct Broken;

    impl Workload for Broken {
        fn step(&mut self, rec: &mut Recorder) {
            rec.batch(0, 1);
            rec.fail(1, || "unexpected Err".into());
        }
    }

    #[test]
    fn a_workload_that_takes_no_time_ends_the_run_as_incorrect() {
        let setup = |seed| toy(seed).map(|(_, prefix)| (Broken, prefix));
        let out = run_end_to_end(5, 0.2, 5000.0, setup).expect("a result, not a hang");
        assert!(!out.correct);
        assert_eq!(out.failed, u64::from(MAX_STALLED_STEPS));
        assert!(out.notes.iter().any(|n| n.contains("given up")));
    }
}
