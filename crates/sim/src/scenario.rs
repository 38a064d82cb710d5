//! The scenario library: scheduled link dynamics the Monte-Carlo engine
//! sweeps — path failure/recovery, piecewise time-varying bandwidth, and
//! loss-process changes (e.g. a link turning bursty mid-transfer).
//!
//! The paper's evaluation keeps link characteristics static for a run;
//! related work on deadline scheduling (Tsanikidis & Ghaderi; Ahani et
//! al.) evaluates under correlated channels and capacity changes, which
//! these dynamics express at the simulator level. A [`Dynamics`] is a
//! validated, time-sorted schedule of [`LinkChange`]s; feed it to
//! [`TwoHostSim::apply_dynamics`](crate::TwoHostSim::apply_dynamics)
//! before running.
//!
//! ```
//! use dmc_sim::{Dir, Dynamics, GilbertElliott, LossModel};
//!
//! # fn main() -> Result<(), String> {
//! // Path 0 dies 10 s in and comes back at 25 s; meanwhile path 1's
//! // forward bandwidth halves at 15 s and its loss turns bursty.
//! let dynamics = Dynamics::new()
//!     .path_failure(0, 10.0, 25.0)?
//!     .bandwidth_step(Dir::Forward, 1, 15.0, 10e6)?
//!     .loss_change(
//!         Dir::Forward,
//!         1,
//!         15.0,
//!         LossModel::GilbertElliott(GilbertElliott::classic(0.02, 0.2)?),
//!     )?;
//! assert_eq!(dynamics.events().len(), 6); // failure+recovery are per-direction
//! assert!(!dynamics.is_empty());
//! # Ok(())
//! # }
//! ```

use crate::link::{LinkChange, LossModel};
use crate::sim::Dir;
use crate::time::SimTime;

/// One scheduled change to one directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkEvent {
    /// When the change takes effect (virtual time).
    pub at: SimTime,
    /// Which direction of the path pair.
    pub dir: Dir,
    /// Path index (0-based).
    pub path: usize,
    /// The change itself.
    pub change: LinkChange,
}

/// A validated schedule of link dynamics, kept sorted by time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dynamics {
    events: Vec<LinkEvent>,
}

impl Dynamics {
    /// An empty schedule (static links — the paper's setup).
    pub fn new() -> Self {
        Dynamics::default()
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, sorted by time (FIFO within ties).
    pub fn events(&self) -> &[LinkEvent] {
        &self.events
    }

    fn push(mut self, at: SimTime, dir: Dir, path: usize, change: LinkChange) -> Self {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(
            idx,
            LinkEvent {
                at,
                dir,
                path,
                change,
            },
        );
        self
    }

    /// Adds one raw event at `at_s` seconds.
    ///
    /// # Errors
    ///
    /// Rejects non-finite/negative times and invalid change parameters.
    pub fn event(
        self,
        dir: Dir,
        path: usize,
        at_s: f64,
        change: LinkChange,
    ) -> Result<Self, String> {
        if !(at_s >= 0.0) || !at_s.is_finite() {
            return Err(format!("event time must be finite and ≥ 0, got {at_s}"));
        }
        match &change {
            LinkChange::SetBandwidth(bps) => {
                if !(*bps > 0.0) || !bps.is_finite() {
                    return Err(format!("bandwidth must be finite and > 0, got {bps}"));
                }
            }
            LinkChange::SetLoss(model) => model.validate()?,
            LinkChange::Fail | LinkChange::Recover => {}
        }
        Ok(self.push(SimTime::from_secs_f64(at_s), dir, path, change))
    }

    /// Fails *both directions* of path `path` at `down_at_s` and recovers
    /// them at `up_at_s` (seconds). This is the paper-style "a path
    /// disappears mid-transfer" scenario.
    ///
    /// # Errors
    ///
    /// Rejects invalid times or `up_at_s ≤ down_at_s`.
    pub fn path_failure(self, path: usize, down_at_s: f64, up_at_s: f64) -> Result<Self, String> {
        if !(up_at_s > down_at_s) {
            return Err(format!(
                "recovery ({up_at_s}s) must come after failure ({down_at_s}s)"
            ));
        }
        self.event(Dir::Forward, path, down_at_s, LinkChange::Fail)?
            .event(Dir::Backward, path, down_at_s, LinkChange::Fail)?
            .event(Dir::Forward, path, up_at_s, LinkChange::Recover)?
            .event(Dir::Backward, path, up_at_s, LinkChange::Recover)
    }

    /// Sets the directed link's bandwidth to `bps` at `at_s` seconds.
    ///
    /// # Errors
    ///
    /// Rejects invalid times or non-positive bandwidth.
    pub fn bandwidth_step(
        self,
        dir: Dir,
        path: usize,
        at_s: f64,
        bps: f64,
    ) -> Result<Self, String> {
        self.event(dir, path, at_s, LinkChange::SetBandwidth(bps))
    }

    /// A piecewise-constant bandwidth profile: each `(at_s, bps)` point
    /// switches the directed link to `bps` at `at_s` seconds.
    ///
    /// # Errors
    ///
    /// Rejects invalid times or non-positive bandwidths.
    pub fn bandwidth_profile(
        mut self,
        dir: Dir,
        path: usize,
        points: &[(f64, f64)],
    ) -> Result<Self, String> {
        for &(at_s, bps) in points {
            self = self.bandwidth_step(dir, path, at_s, bps)?;
        }
        Ok(self)
    }

    /// Switches the directed link's erasure process at `at_s` seconds.
    ///
    /// # Errors
    ///
    /// Rejects invalid times or invalid loss parameters.
    pub fn loss_change(
        self,
        dir: Dir,
        path: usize,
        at_s: f64,
        model: LossModel,
    ) -> Result<Self, String> {
        self.event(dir, path, at_s, LinkChange::SetLoss(model))
    }

    /// Largest path index referenced (for topology validation).
    pub fn max_path(&self) -> Option<usize> {
        self.events.iter().map(|e| e.path).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_time_sorted() {
        let d = Dynamics::new()
            .bandwidth_step(Dir::Forward, 0, 5.0, 1e6)
            .unwrap()
            .path_failure(1, 1.0, 3.0)
            .unwrap()
            .bandwidth_step(Dir::Backward, 0, 2.0, 2e6)
            .unwrap();
        let times: Vec<u64> = d.events().iter().map(|e| e.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(d.max_path(), Some(1));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Dynamics::new().path_failure(0, 5.0, 5.0).is_err());
        assert!(Dynamics::new().path_failure(0, 5.0, 2.0).is_err());
        assert!(Dynamics::new()
            .bandwidth_step(Dir::Forward, 0, -1.0, 1e6)
            .is_err());
        assert!(Dynamics::new()
            .bandwidth_step(Dir::Forward, 0, 1.0, 0.0)
            .is_err());
        assert!(Dynamics::new()
            .event(Dir::Forward, 0, f64::NAN, LinkChange::Fail)
            .is_err());
        assert!(Dynamics::new()
            .loss_change(Dir::Forward, 0, 1.0, LossModel::Bernoulli(2.0))
            .is_err());
    }

    #[test]
    fn profile_expands_to_steps() {
        let d = Dynamics::new()
            .bandwidth_profile(Dir::Forward, 0, &[(1.0, 5e6), (2.0, 2e6), (3.0, 8e6)])
            .unwrap();
        assert_eq!(d.events().len(), 3);
        assert!(matches!(
            d.events()[1].change,
            LinkChange::SetBandwidth(b) if b == 2e6
        ));
    }
}
