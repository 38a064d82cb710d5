//! The [`Plan`]: everything a sender needs, produced in one shot by a
//! [`Planner`](crate::Planner).
//!
//! A `Plan` bundles the solved [`Strategy`], a regime-independent
//! [`TimeoutSchedule`], the acknowledgment path and a ready
//! [`Scheduler`], so every consumer (protocol, experiments, examples)
//! constructs senders the same way.
//!
//! Only the strategy is the plan's own. The scenario, combination table,
//! timeout schedule and ack path do not depend on the solve: they are
//! declared once, in [`SharedModel`], and the
//! [`ScenarioModel`](crate::ScenarioModel) that derived them and every
//! plan packaged from it hold the same `Arc`.

use crate::combo::{ComboTable, Slot};
use crate::path::PathSpec;
use crate::random_delay::pairwise_combo_index;
use crate::scenario::Scenario;
use crate::scheduler::{SchedulePolicy, Scheduler};
use crate::strategy::Strategy;
use crate::Objective;
use std::sync::Arc;

/// The timer a sender arms after transmitting one stage of a combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimeoutSpec {
    /// Seconds between sending the stage and the timer firing. Protocol
    /// layers typically add a jitter margin on top (the paper's 100 ms).
    pub delay: f64,
    /// `true`: advance to the next stage (retransmit). `false`: the timer
    /// only *detects* the loss so estimators see it (terminal stages, and
    /// stages where Eq. 34 proves no retransmission can meet the
    /// deadline).
    pub retransmit: bool,
}

/// Per-stage timeouts for every combination, in seconds — the
/// regime-independent core of the paper's Eq. 4 (deterministic) and
/// Eq. 26/34 (random-delay) timeout rules.
///
/// `dmc-proto`'s `TimeoutPlan::from_plan` converts this to simulator
/// durations, adding the caller's slack.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeoutSchedule {
    per_combo: Vec<Vec<Option<StageTimeoutSpec>>>,
}

impl TimeoutSchedule {
    /// The deterministic rule (Eq. 4): stage `s` on path `i` arms
    /// `t = d_i + d_min`; stages not followed by a real path get a
    /// detect-only timer with the same delay.
    pub(crate) fn deterministic(paths: &[PathSpec], dmin: f64, table: &ComboTable) -> Self {
        let per_combo = table
            .iter()
            .map(|(_, slots)| {
                let mut v = vec![None; slots.len()];
                for s in 0..slots.len() {
                    let Slot::Path(i) = slots[s] else { break };
                    let t = paths[i].delay() + dmin;
                    if t.is_finite() {
                        let retransmit = matches!(slots.get(s + 1), Some(Slot::Path(_)));
                        v[s] = Some(StageTimeoutSpec {
                            delay: t,
                            retransmit,
                        });
                    }
                }
                v
            })
            .collect();
        TimeoutSchedule { per_combo }
    }

    /// The random-delay rule: Eq. 34 optima become retransmitting timers;
    /// stages whose optimum is undefined (no retransmission can meet the
    /// deadline) get a detect-only timer of one lifetime.
    pub(crate) fn from_stage_timeouts(
        stage_timeouts: &[Vec<Option<f64>>],
        table: &ComboTable,
        lifetime: f64,
    ) -> Self {
        let per_combo = (0..table.num_combos())
            .map(|l| {
                let slots = table.slots_of(l);
                stage_timeouts[l]
                    .iter()
                    .enumerate()
                    .map(|(s, t)| match t {
                        Some(secs) => Some(StageTimeoutSpec {
                            delay: *secs,
                            retransmit: true,
                        }),
                        None => matches!(slots.get(s), Some(Slot::Path(_))).then_some(
                            StageTimeoutSpec {
                                delay: lifetime,
                                retransmit: false,
                            },
                        ),
                    })
                    .collect()
            })
            .collect();
        TimeoutSchedule { per_combo }
    }

    /// The timer armed after sending stage `stage` of combination
    /// `combo`; `None` when no timer is armed (unreachable stages).
    pub fn stage(&self, combo: usize, stage: usize) -> Option<StageTimeoutSpec> {
        self.per_combo
            .get(combo)
            .and_then(|v| v.get(stage))
            .copied()
            .flatten()
    }

    /// Number of combinations covered.
    pub fn num_combos(&self) -> usize {
        self.per_combo.len()
    }

    /// All stage timers of one combination.
    ///
    /// # Panics
    ///
    /// Panics if `combo` is out of range.
    pub fn stages(&self, combo: usize) -> &[Option<StageTimeoutSpec>] {
        &self.per_combo[combo]
    }
}

/// The solve-independent half of a flow's model: what
/// [`Planner::model`](crate::Planner::model) derives from a scenario
/// before any LP runs, and no solve changes.
#[derive(Debug, Clone)]
pub(crate) struct SharedModel {
    pub(crate) scenario: Scenario,
    pub(crate) table: ComboTable,
    pub(crate) schedule: TimeoutSchedule,
    pub(crate) ack_path: usize,
}

/// A fully solved sending plan: the one artifact the rest of the system
/// consumes.
///
/// Produced by [`Planner::plan`](crate::Planner::plan); see the
/// crate-level quick start for the end-to-end flow. Cloning a plan copies
/// its strategy and shares the rest.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) shared: Arc<SharedModel>,
    pub(crate) objective: Objective,
    pub(crate) strategy: Strategy,
}

impl Plan {
    /// The scenario this plan was solved for.
    pub fn scenario(&self) -> &Scenario {
        &self.shared.scenario
    }

    /// The objective this plan optimizes.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The solved assignment with its predicted metrics.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Consumes the plan, returning the strategy.
    pub fn into_strategy(self) -> Strategy {
        self.strategy
    }

    /// The per-stage retransmission-timeout schedule.
    pub fn schedule(&self) -> &TimeoutSchedule {
        &self.shared.schedule
    }

    /// The acknowledgment path (Eq. 25 / Eq. 1), 0-based.
    pub fn ack_path(&self) -> usize {
        self.shared.ack_path
    }

    /// Predicted communication quality `Q` (Eq. 6).
    pub fn quality(&self) -> f64 {
        self.strategy.quality()
    }

    /// Predicted cost per second `C` (Eq. 7).
    pub fn cost_rate(&self) -> f64 {
        self.strategy.cost_rate()
    }

    /// Predicted per-path send rates in bits/second (Eq. 2).
    pub fn send_rates(&self) -> &[f64] {
        self.strategy.send_rates()
    }

    /// The paper's pairwise `t_{i,j}` (Eq. 26 / Eq. 4): the timeout armed
    /// after first sending on real path `i` when the retransmission path
    /// is real path `j`; `None` when no retransmission can meet the
    /// deadline.
    pub fn timeout(&self, i: usize, j: usize) -> Option<f64> {
        // Detect-only timers are filtered out (their delay is not the
        // paper's t_{i,j}).
        let l = pairwise_combo_index(self.strategy.table(), i, j)?;
        self.schedule()
            .stage(l, 0)
            .and_then(|t| t.retransmit.then_some(t.delay))
    }

    /// An Algorithm-1 (deficit) scheduler targeting this plan's
    /// assignment — the per-packet discretizer a sender drives.
    ///
    /// # Panics
    ///
    /// Never in practice: planner output is a valid distribution (the LP
    /// enforces `Σx = 1`, `x ≥ 0`).
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(self.strategy.x().to_vec(), SchedulePolicy::Deficit)
            .expect("planner emits a valid x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plans cross the Monte-Carlo pool's threads and are cloned per trial;
    /// the shared model part must not cost them that.
    #[test]
    fn plan_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<Plan>();
    }
}
