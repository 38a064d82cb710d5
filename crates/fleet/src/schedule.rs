//! Time-expanded scheduling: the joint fleet LP over a slotted horizon.
//!
//! The instant [`FleetPlanner`](crate::FleetPlanner) allocates one
//! steady-state moment; this module adds the **time axis**: a
//! [`TimeGrid`] of fixed-width slots, per-slot shared capacity rows, and
//! flows carrying a `[start, deadline)` [`SlotWindow`] whose assignment
//! block only touches the slots inside the window — the DDCCast/Ahani
//! style of deadline scheduling as capacity allocation over time.
//!
//! # The time-expanded LP
//!
//! For a grid of `S` slots over `K` shared paths and flows `f` with
//! window slots `s ∈ W_f` (`L_f = |W_f|`), with `x^{f,s}` the fraction
//! of flow `f`'s *total* window volume served in slot `s` per path
//! combination and `c^f_i ≥ 0` the fraction buffered across the slot
//! boundary after the `i`-th window slot (store-and-forward):
//!
//! ```text
//! max  Σ_f w_f λ_f·L_f p_f·Σ_s x^{f,s}
//! s.t. Σ_f λ_f·L_f usage_{f,k}·x^{f,s} ≤ b_k(s)        (per slot s, path k)
//!      cost_f·Σ_s x^{f,s} ≤ µ_f/λ_f                     (per budgeted flow)
//!      p_f·Σ_s x^{f,s} ≥ q_f                            (per flow with a floor)
//!      Σ_j x^{f,s_i}_j + c^f_i − c^f_{i−1} = 1/L_f      (balance, per window slot)
//!      c^f_i ≤ B_f/L_f                                  (buffer cap, per boundary)
//!      x, c ≥ 0
//! ```
//!
//! `λ_f·L_f` is flow `f`'s *volume* rate, so the capacity rows are in
//! bit/s like the instant LP's and every coefficient of a flow's block is
//! its own: an offer or a departure edits that block alone. The balance
//! rows say a slot's generation (`1/L_f` of the window volume) is either
//! served now or buffered into the next slot — never served *before* it
//! is generated — and the missing `c` terms at the window edges (`c_{−1}
//! = c_{L−1} = 0`) force the buffer empty at both ends. `b_k(s)` is the
//! path's live bandwidth, or **zero during a maintenance window**
//! ([`SchedulePlanner::set_maintenance`]).
//!
//! With `S = 1` and every window a single slot, each reduction is exact
//! in floating point (`λ·1.0 ≡ λ`, `1.0/1.0 ≡ 1.0`) and this is the
//! instant joint LP — which is how [`crate::FleetPlanner`] runs: this
//! planner over a one-slot grid, so a single-slot horizon reproduces it
//! **bit for bit** (`tests/schedule_parity.rs`).
//!
//! # One engine
//!
//! The LP — capacity rows, blocks, the cut of departed ones, the
//! carried basis, when it is dropped — **and the roster of flows** are
//! the joint core's (`joint.rs`). This planner is the only policy over it:
//! [`FleetPlanner`](crate::FleetPlanner) is a face over one on a one-slot
//! grid, and a service region holds one. Its roster holds two kinds of
//! flow in one LP:
//!
//! * **windowed** flows ([`SchedulePlanner::offer`]) keep their window,
//!   slide to a later one when refused, and truncate or complete as the
//!   horizon advances;
//! * **instant** flows (the crate-private verbs behind
//!   [`FleetPlanner::offer_batch`](crate::FleetPlanner::offer_batch))
//!   hold the origin slot, [`SlotWindow::instant`]`(origin)`, and are
//!   never reserved for later: displaced, one is **shed** into a queue
//!   retried under capped back-off at each later capacity event (link
//!   change, departure, advance, maintenance edit). An advance moves
//!   every instant flow to the new origin and re-admits it on a verdict,
//!   highest priority first, admission order within ties.
//!
//! Every capacity change ends in one routine: re-solve; on collective
//! infeasibility evict everyone and re-admit each on a verdict (priority,
//! then admission order) — a refused windowed flow slides, a refused
//! instant flow is shed — then one sweep of the shed queue (the flows
//! just shed sit it out) and one optimal solve. A region of one kind
//! runs exactly the solves its former planner ran.
//!
//! # Advance reservations
//!
//! A flow refused at its requested window is offered the **earliest
//! feasible later window** of the same width inside the grid
//! ([`ScheduleDecision::Reserved`]) — the admit-at-t+Δ verdict, with the
//! window certifying exactly when capacity opens. Flows displaced by a
//! link change get the same treatment (*slot-based revival*): each is
//! first retried at its own window, then slid forward, and only dropped
//! when no window of the remaining horizon fits it.

use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
use crate::joint::{local_path_index, readmission_order, Goal, JointCore, Member, Resident};
use crate::planner::{AdmissionDecision, FleetConfig, FleetObjective, FleetPlanner};
use dmc_core::{Plan, ScenarioPath, WarmStats};
use dmc_lp::SolveError;
use dmc_sim::LinkChange;
use std::fmt;

/// A slotted scheduling horizon: `horizon` slots of `slot_width`
/// seconds each, starting at absolute slot number `origin`.
///
/// Slot numbers are **absolute** (slot `s` covers wall time
/// `[s·width, (s+1)·width)`), so they stay meaningful as the horizon
/// advances; the grid is the moving window `[origin, origin+horizon)`
/// of slots the planner can currently allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGrid {
    slot_width: f64,
    horizon: usize,
    origin: u64,
}

impl TimeGrid {
    /// A grid of `horizon_slots` slots of `slot_width_s` seconds,
    /// starting at slot 0.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive width and a zero horizon.
    pub fn new(slot_width_s: f64, horizon_slots: usize) -> Result<Self, FleetError> {
        if !(slot_width_s > 0.0) || !slot_width_s.is_finite() {
            return Err(FleetError::Invalid(format!(
                "slot width must be finite and > 0, got {slot_width_s}"
            )));
        }
        if horizon_slots == 0 {
            return Err(FleetError::Invalid(
                "a time grid needs at least one slot".into(),
            ));
        }
        Ok(TimeGrid {
            slot_width: slot_width_s,
            horizon: horizon_slots,
            origin: 0,
        })
    }

    /// Slot width in seconds.
    pub fn slot_width(&self) -> f64 {
        self.slot_width
    }

    /// Number of slots in the horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// First (oldest) slot currently in the horizon.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// One past the last slot in the horizon.
    pub fn end(&self) -> u64 {
        self.origin + self.horizon as u64
    }

    /// The absolute slot containing wall time `at_s`.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or negative times.
    pub fn slot_of(&self, at_s: f64) -> Result<u64, FleetError> {
        if !(at_s >= 0.0) || !at_s.is_finite() {
            return Err(FleetError::Invalid(format!(
                "time must be finite and ≥ 0, got {at_s}"
            )));
        }
        Ok((at_s / self.slot_width).floor() as u64)
    }

    /// Whether `slot` is inside the current horizon.
    pub fn contains(&self, slot: u64) -> bool {
        slot >= self.origin && slot < self.end()
    }

    /// Whether a whole window is inside the current horizon.
    pub fn contains_window(&self, window: &SlotWindow) -> bool {
        window.start() >= self.origin && window.end() <= self.end()
    }

    /// The grid slid to `new_origin`. Every slot sum of the planner rests
    /// on what is checked here: the horizon's end, and the one slot past
    /// it that a reservation slide names before giving up, fit in `u64`.
    fn advanced_to(mut self, new_origin: u64) -> Result<Self, FleetError> {
        let past_end = new_origin
            .checked_add(self.horizon as u64)
            .and_then(|end| end.checked_add(1));
        if past_end.is_none() {
            return Err(FleetError::Invalid(format!(
                "origin {new_origin} leaves no room for a {}-slot horizon",
                self.horizon
            )));
        }
        self.origin = new_origin;
        Ok(self)
    }
}

/// A half-open window of slots `[start, end)` — the flow may only be
/// served inside it (`start` = release slot, `end` = deadline slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotWindow {
    start: u64,
    end: u64,
}

impl SlotWindow {
    /// The window `[start, end)`.
    ///
    /// # Errors
    ///
    /// Rejects `end ≤ start` (use [`SlotWindow::instant`] for the
    /// zero-width "serve within this one slot" window).
    pub fn new(start: u64, end: u64) -> Result<Self, FleetError> {
        if end <= start {
            return Err(FleetError::Invalid(format!(
                "slot window [{start}, {end}) is empty"
            )));
        }
        Ok(SlotWindow { start, end })
    }

    /// The degenerate window whose release and deadline land in the same
    /// slot — the whole demand must be served inside `slot`. On a
    /// single-slot grid this reproduces the instant joint LP bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is `u64::MAX` (the window's end is one past it).
    pub fn instant(slot: u64) -> Self {
        SlotWindow {
            start: slot,
            end: slot.checked_add(1).expect("slot window end fits in u64"),
        }
    }

    /// First slot of the window.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last slot of the window.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of slots in the window (≥ 1).
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Always `false` — constructors reject empty windows; provided for
    /// clippy's `len`-without-`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The same-width window starting at `start` instead.
    ///
    /// # Panics
    ///
    /// Panics if the shifted window's end does not fit in `u64`.
    pub fn shifted_to(&self, start: u64) -> SlotWindow {
        let end = start.checked_add(self.end - self.start);
        SlotWindow {
            start,
            end: end.expect("slot window end fits in u64"),
        }
    }

    /// The slots of the window, ascending.
    pub fn slots(&self) -> impl Iterator<Item = u64> {
        self.start..self.end
    }
}

impl fmt::Display for SlotWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// A windowed admission request: a plain [`FlowRequest`] plus the slot
/// window it must be served in and, optionally, a store-and-forward
/// buffer allowance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    flow: FlowRequest,
    window: SlotWindow,
    buffer: f64,
    /// Whether the flow came in through an instant verb: it holds the
    /// origin slot, moves with it, and is shed — never slid — when it no
    /// longer fits.
    instant: bool,
}

impl ScheduleRequest {
    /// A request to serve `flow` inside `window`, with no buffering.
    pub fn new(flow: FlowRequest, window: SlotWindow) -> Self {
        ScheduleRequest {
            flow,
            window,
            buffer: 0.0,
            instant: false,
        }
    }

    /// Allows up to `frac` of one slot's generation to be buffered
    /// across each slot boundary inside the window (store-and-forward:
    /// traffic generated in slot `t` may drain in `t+1`). `0` (the
    /// default) disables buffering; `1` allows a full slot's worth.
    ///
    /// # Panics
    ///
    /// Panics unless `frac ∈ [0, 1]`.
    #[must_use]
    pub fn with_buffer(mut self, frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac),
            "buffer fraction must be in [0, 1], got {frac}"
        );
        self.buffer = frac;
        self
    }

    /// The underlying flow request.
    pub fn flow(&self) -> &FlowRequest {
        &self.flow
    }

    /// The requested service window.
    pub fn window(&self) -> SlotWindow {
        self.window
    }

    /// The buffer allowance (fraction of one slot's generation).
    pub fn buffer(&self) -> f64 {
        self.buffer
    }
}

/// Outcome of one [`SchedulePlanner::offer`].
#[derive(Debug, Clone)]
pub enum ScheduleDecision {
    /// The flow fits at its requested window.
    Scheduled {
        /// The assigned flow id.
        id: FlowId,
        /// The granted window (= the requested one).
        window: SlotWindow,
        /// Predicted in-time delivery fraction over the window.
        predicted_quality: f64,
    },
    /// The requested window is infeasible, but a later same-width window
    /// inside the horizon fits: the flow holds an **advance reservation**
    /// for the earliest such window — `window.start() -
    /// requested.start()` slots after it asked.
    Reserved {
        /// The assigned flow id.
        id: FlowId,
        /// The window the tenant asked for.
        requested: SlotWindow,
        /// The earliest feasible window actually granted.
        window: SlotWindow,
        /// Predicted in-time delivery fraction over the granted window.
        predicted_quality: f64,
    },
    /// No window of the requested width inside the horizon fits.
    Rejected {
        /// The id the offer consumed (ids are offer-ordered).
        id: FlowId,
        /// Human-readable reason.
        reason: String,
    },
}

impl ScheduleDecision {
    /// Whether the flow holds capacity (scheduled or reserved).
    pub fn is_admitted(&self) -> bool {
        !matches!(self, ScheduleDecision::Rejected { .. })
    }

    /// Whether the flow was granted its requested window.
    pub fn is_scheduled(&self) -> bool {
        matches!(self, ScheduleDecision::Scheduled { .. })
    }

    /// Whether the flow holds an advance reservation for a later window.
    pub fn is_reserved(&self) -> bool {
        matches!(self, ScheduleDecision::Reserved { .. })
    }

    /// The flow id this decision is about.
    pub fn id(&self) -> FlowId {
        match self {
            ScheduleDecision::Scheduled { id, .. }
            | ScheduleDecision::Reserved { id, .. }
            | ScheduleDecision::Rejected { id, .. } => *id,
        }
    }

    /// The granted window, if any.
    pub fn window(&self) -> Option<SlotWindow> {
        match self {
            ScheduleDecision::Scheduled { window, .. }
            | ScheduleDecision::Reserved { window, .. } => Some(*window),
            ScheduleDecision::Rejected { .. } => None,
        }
    }

    /// Predicted in-time delivery fraction (`None` when rejected).
    pub fn predicted_quality(&self) -> Option<f64> {
        match self {
            ScheduleDecision::Scheduled {
                predicted_quality, ..
            }
            | ScheduleDecision::Reserved {
                predicted_quality, ..
            } => Some(*predicted_quality),
            ScheduleDecision::Rejected { .. } => None,
        }
    }

    /// How many slots after the requested start the granted window opens
    /// (0 when scheduled as asked or rejected).
    pub fn opens_in(&self) -> u64 {
        match self {
            ScheduleDecision::Reserved {
                requested, window, ..
            } => window.start() - requested.start(),
            _ => 0,
        }
    }
}

/// What one [`SchedulePlanner::advance_to`] did.
#[derive(Debug, Clone, Default)]
pub struct ScheduleAdvance {
    /// Flows whose window ended at or before the new origin — their
    /// service is complete and they left the fleet.
    pub completed: Vec<FlowId>,
    /// Flows whose window straddled the new origin: they stay, truncated
    /// to the remaining `[new_origin, end)` slots (their remaining
    /// demand renormalized over the shorter window).
    pub truncated: Vec<FlowId>,
    /// Flows rescheduled to a later window because their own no longer
    /// fit after the advance (slot-based revival).
    pub rescheduled: Vec<(FlowId, SlotWindow)>,
    /// Flows dropped because no remaining window fits them.
    pub dropped: Vec<FlowId>,
}

/// What a capacity change (link change or maintenance edit) did to the
/// scheduled flows.
#[derive(Debug, Clone, Default)]
pub struct ScheduleShuffle {
    /// Flows moved to a later window (slot-based revival), in
    /// re-admission order.
    pub rescheduled: Vec<(FlowId, SlotWindow)>,
    /// Flows dropped because no window of the remaining horizon fits.
    pub dropped: Vec<FlowId>,
}

impl ScheduleShuffle {
    /// Whether every flow kept its window.
    pub fn is_quiet(&self) -> bool {
        self.rescheduled.is_empty() && self.dropped.is_empty()
    }
}

/// Cap on the capacity-event backoff between re-admission attempts of a
/// shed flow (`2^MAX_SHED_ATTEMPTS-1 - 1`, so the total horizon telescopes
/// to [`FleetPlanner::SHED_HORIZON`]).
const SHED_SKIP_CAP: u32 = 7;

/// An instant flow displaced by a capacity loss, queued for re-admission.
///
/// The flow keeps its [`FlowId`] and its last-known-good [`Plan`]; each
/// failed re-admission attempt doubles the number of capacity events the
/// flow then sits out (capped at [`SHED_SKIP_CAP`]), and after
/// [`FleetPlanner::MAX_SHED_ATTEMPTS`] failures it is definitively
/// rejected — so every shed flow leaves the queue within
/// [`FleetPlanner::SHED_HORIZON`] capacity events.
#[derive(Debug)]
struct ShedFlow {
    id: FlowId,
    /// The flow's request; each attempt moves it to the origin slot.
    request: ScheduleRequest,
    /// The plan the flow held when it was shed (returned if the tenant
    /// withdraws the flow while it waits).
    plan: Plan,
    /// Failed re-admission attempts so far.
    attempts: u32,
    /// Capacity events to skip before the next attempt.
    skip: u32,
}

/// The slotted fleet planner: admission control and joint allocation
/// over a [`TimeGrid`] horizon, with advance reservations,
/// store-and-forward buffering and maintenance windows.
///
/// ```
/// use dmc_core::ScenarioPath;
/// use dmc_fleet::{FleetConfig, SchedulePlanner, ScheduleRequest, SlotWindow, TimeGrid, FlowRequest};
///
/// # fn main() -> Result<(), dmc_fleet::FleetError> {
/// let mut sched = SchedulePlanner::new(
///     vec![
///         ScenarioPath::constant(80e6, 0.450, 0.2)?,
///         ScenarioPath::constant(20e6, 0.150, 0.0)?,
///     ],
///     TimeGrid::new(1.0, 8)?, // 8 one-second slots
///     FleetConfig::default(),
/// )?;
/// // A two-slot transfer that may buffer half a slot across boundaries.
/// let d = sched.offer(
///     ScheduleRequest::new(FlowRequest::new(30e6, 0.750)?, SlotWindow::new(0, 2)?)
///         .with_buffer(0.5),
/// )?;
/// assert!(d.is_scheduled());
/// // Advancing the horizon expires slot 0 and recycles its capacity rows.
/// let adv = sched.advance_to(1)?;
/// assert_eq!(adv.truncated, vec![d.id()]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SchedulePlanner {
    /// The joint LP and the roster of flows (each with its possibly
    /// slid, truncated or moved request), over this planner's horizon.
    pub(crate) core: JointCore,
    /// Instant flows displaced by capacity losses, awaiting re-admission.
    shed: Vec<ShedFlow>,
    /// The queue's traffic since its reader last took it, in event
    /// order: flows shed, flows revived, and flows definitively rejected
    /// after [`FleetPlanner::MAX_SHED_ATTEMPTS`] failed attempts.
    pub(crate) newly_shed: Vec<FlowId>,
    pub(crate) revived: Vec<FlowId>,
    pub(crate) shed_rejected: Vec<FlowId>,
}

impl SchedulePlanner {
    /// A slotted fleet over `paths` and `grid`.
    ///
    /// # Errors
    ///
    /// Rejects an empty path set and paths whose delay distribution has
    /// a non-finite mean (same contract as [`crate::FleetPlanner::new`]).
    pub fn new(
        paths: Vec<ScenarioPath>,
        grid: TimeGrid,
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        Ok(SchedulePlanner {
            core: JointCore::new(paths, grid, config)?,
            shed: Vec::new(),
            newly_shed: Vec::new(),
            shed_rejected: Vec::new(),
            revived: Vec::new(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.core.config
    }

    /// The current horizon.
    pub fn grid(&self) -> &TimeGrid {
        &self.core.grid
    }

    /// Offers one windowed flow.
    ///
    /// The requested window must lie inside the current horizon. If the
    /// joint LP is feasible with the flow at its requested window the
    /// flow is [`ScheduleDecision::Scheduled`]; otherwise the window is
    /// slid forward one slot at a time (keeping its width) and the
    /// earliest feasible start yields a [`ScheduleDecision::Reserved`]
    /// — the admit-at-t+Δ advance reservation. Only when no start fits
    /// is the flow [`ScheduleDecision::Rejected`]. A rejection leaves
    /// the incumbents' allocation untouched.
    ///
    /// # Errors
    ///
    /// Invalid windows/scenarios and non-infeasibility solver failures.
    pub fn offer(&mut self, request: ScheduleRequest) -> Result<ScheduleDecision, FleetError> {
        let grid = self.core.grid;
        if !grid.contains_window(&request.window()) {
            return Err(FleetError::Invalid(format!(
                "window {} is outside the horizon [{}, {})",
                request.window(),
                grid.origin(),
                grid.end()
            )));
        }
        let id = self.core.next_id();
        let requested = request.window();
        let candidate = self.core.member(id, request)?;
        let quality = |core: &JointCore| core.resident(id).expect("just admitted").plan.quality();
        match self.try_admit(candidate, Goal::Optimal)? {
            Ok(()) => {
                self.core.config.obs.counter("fleet.admits").inc();
                Ok(ScheduleDecision::Scheduled {
                    id,
                    window: requested,
                    predicted_quality: quality(&self.core),
                })
            }
            Err(mut refused) => {
                refused.request.window = requested.shifted_to(requested.start() + 1);
                match self.slide_into_horizon(refused, Goal::Optimal)? {
                    Some(window) => Ok(ScheduleDecision::Reserved {
                        id,
                        requested,
                        window,
                        predicted_quality: quality(&self.core),
                    }),
                    None => {
                        self.core.config.obs.counter("fleet.refusals").inc();
                        Ok(ScheduleDecision::Rejected {
                            id,
                            reason: "no window of the requested width inside the horizon can \
                                     meet this flow's quality floor alongside every scheduled \
                                     flow's"
                                .into(),
                        })
                    }
                }
            }
        }
    }

    /// Withdraws a scheduled flow before (or during) its window.
    ///
    /// # Errors
    ///
    /// Unknown ids — an instant flow's id included: it leaves through
    /// [`FleetPlanner::depart`](crate::FleetPlanner::depart).
    pub fn depart(&mut self, id: FlowId) -> Result<(), FleetError> {
        let windowed = self.core.resident(id).map(|r| !r.member.request.instant);
        if windowed != Some(true) {
            return Err(FleetError::UnknownFlow(id));
        }
        self.core.remove(id);
        self.freed()
    }

    /// Advances the horizon so `new_origin` becomes its first slot.
    ///
    /// Flows whose window has fully passed are **completed**; flows
    /// whose window straddles the boundary are **truncated** to the
    /// remaining slots (their remaining demand renormalized over the
    /// shorter window) — and if the truncated window no longer fits,
    /// they get the reservation slide before being dropped. Expired
    /// slots' capacity rows are recycled in place (ring indexing), so no
    /// capacity row moves; the blocks of the flows that leave are cut out
    /// at the next solve, the carried basis with them, so it stays warm
    /// across the advance. Instant flows move to the new origin slot
    /// (re-admitted on verdicts, highest priority first; the refused are
    /// shed) and are not listed in the returned [`ScheduleAdvance`].
    ///
    /// # Errors
    ///
    /// Rejects a `new_origin` before the current origin, or so late that
    /// the horizon's slot numbers would overflow; forwards solver
    /// failures.
    pub fn advance_to(&mut self, new_origin: u64) -> Result<ScheduleAdvance, FleetError> {
        if new_origin < self.core.grid.origin() {
            return Err(FleetError::Invalid(format!(
                "cannot advance backwards: origin {} to {new_origin}",
                self.core.grid.origin()
            )));
        }
        if new_origin == self.core.grid.origin() {
            return Ok(ScheduleAdvance::default());
        }
        let mut out = ScheduleAdvance::default();
        self.core.grid = self.core.grid.advanced_to(new_origin)?;
        self.core.maintenance.retain(|&(s, _)| s >= new_origin);

        // Completed flows leave, and so does every straddling flow and
        // every instant flow — all of them, before the first is offered
        // again: a straddler is re-admitted at its truncated window (its
        // window length changed, so its block does too), in admission
        // order, against the flows that are really there; then the
        // instant flows at the new origin.
        let residents = self.core.residents().iter();
        let begun: Vec<FlowId> = residents
            .filter(|r| r.member.window().start() < new_origin)
            .map(|r| r.member.id)
            .collect();
        let (mut straddlers, mut instant) = (Vec::new(), Vec::new());
        for id in begun {
            let left = self.core.remove(id).expect("listed as resident above");
            if left.member.request.instant {
                instant.push(left);
            } else if left.member.window().end() <= new_origin {
                out.completed.push(id);
            } else {
                straddlers.push(left.member);
            }
        }
        for mut straddler in straddlers {
            let id = straddler.id;
            straddler.request.window = SlotWindow::new(new_origin, straddler.window().end())
                .expect("straddling window keeps at least one slot past the new origin");
            match self.try_admit(straddler, Goal::Feasible)? {
                Ok(()) => out.truncated.push(id),
                Err(refused) => match self.slide_into_horizon(refused, Goal::Feasible)? {
                    Some(window) => out.rescheduled.push((id, window)),
                    None => out.dropped.push(id),
                },
            }
        }
        instant.sort_by(|a, b| {
            readmission_order(
                (a.member.flow(), a.member.id),
                (b.member.flow(), b.member.id),
            )
        });
        let mut displaced = Vec::new();
        for mut moved in instant {
            moved.member.request.window = SlotWindow::instant(new_origin);
            self.readmit(moved, &mut ScheduleShuffle::default(), &mut displaced)?;
        }
        // One settle pass for the survivors: the recycled tail slots may
        // carry maintenance, so the whole membership re-solves (and, on
        // collective infeasibility, resettles deterministically). The
        // straddlers went in on verdicts; that re-solve refreshes every
        // plan. The advance is a capacity event for the shed queue.
        let shuffle = self.settle(displaced)?;
        out.rescheduled.extend(shuffle.rescheduled);
        out.dropped.extend(shuffle.dropped);
        Ok(out)
    }

    /// Declares a maintenance window: path `path` has zero capacity
    /// during `slot`. Flows already scheduled over that slot are
    /// re-settled (rescheduled to later windows where needed — the
    /// returned [`ScheduleShuffle`] says who moved or fell out).
    ///
    /// # Errors
    ///
    /// Bad path index, a slot before the horizon, or solver failures.
    pub fn set_maintenance(
        &mut self,
        slot: u64,
        path: usize,
    ) -> Result<ScheduleShuffle, FleetError> {
        if path >= self.core.paths.len() {
            return Err(FleetError::Invalid(format!(
                "path index {path} out of range ({} shared paths)",
                self.core.paths.len()
            )));
        }
        if slot < self.core.grid.origin() {
            return Err(FleetError::Invalid(format!(
                "maintenance slot {slot} is before the horizon origin {}",
                self.core.grid.origin()
            )));
        }
        self.core.maintenance.insert((slot, path));
        self.settle(Vec::new())
    }

    /// Cancels a maintenance window (a no-op if none was declared).
    ///
    /// # Errors
    ///
    /// Forwards solver failures from the re-solve.
    pub fn clear_maintenance(&mut self, slot: u64, path: usize) -> Result<(), FleetError> {
        if self.core.maintenance.remove(&(slot, path)) {
            self.settle(Vec::new())?;
        }
        Ok(())
    }

    /// The declared maintenance windows, sorted by (slot, path).
    pub fn maintenance(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.core.maintenance.iter().copied()
    }

    /// Applies a link change ([`dmc_sim::LinkChange`] vocabulary) to a
    /// shared path. Every flow's model is rebuilt against the changed
    /// paths and the fleet re-settles; displaced flows get the
    /// reservation slide — **slot-based revival**: a windowed flow that
    /// no longer fits *now* is moved to the earliest later window that
    /// still fits it, and only dropped when none does (an instant flow is
    /// shed instead; see the module docs).
    ///
    /// # Errors
    ///
    /// Bad path index, invalid change parameters, or solver failures.
    pub fn apply_link_change(
        &mut self,
        path: usize,
        change: &LinkChange,
    ) -> Result<ScheduleShuffle, FleetError> {
        self.core.apply_link_change(path, change)?;
        self.settle(Vec::new())
    }

    /// Number of scheduled flows (including reservations).
    pub fn num_flows(&self) -> usize {
        self.core.residents().len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.core.residents().is_empty()
    }

    /// Scheduled flow ids, in admission order.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        self.core.ids()
    }

    /// The granted window of a scheduled flow.
    pub fn window_of(&self, id: FlowId) -> Option<SlotWindow> {
        self.core.resident(id).map(|r| r.member.window())
    }

    /// The aggregate per-flow plan (slot-summed assignment decomposed
    /// exactly like the instant planner's).
    pub fn plan_of(&self, id: FlowId) -> Option<&Plan> {
        self.core.resident(id).map(|r| &r.plan)
    }

    /// Per-window-slot delivered-quality profile of a flow: entry `i`
    /// is the in-time fraction served in the window's `i`-th slot
    /// (summing to the plan's quality).
    pub fn slot_quality_of(&self, id: FlowId) -> Option<Vec<f64>> {
        let r = self.core.resident(id)?;
        Some(
            r.slot_x()
                .map(|seg| {
                    r.member
                        .model
                        .quality_coeffs()
                        .iter()
                        .zip(seg)
                        .map(|(p, x)| p * x)
                        .sum()
                })
                .collect(),
        )
    }

    /// The largest store-and-forward buffer level a flow's allocation
    /// uses, as a fraction of its window volume (0 without buffering).
    pub fn peak_carry_of(&self, id: FlowId) -> Option<f64> {
        self.core.resident(id).map(Resident::peak_carry)
    }

    /// Per-slot, per-path utilization of the horizon: `out[i][k]` is the
    /// fraction of path `k`'s capacity consumed in slot `origin + i`
    /// (0 for maintenance slots, whose capacity is zero).
    pub fn utilization(&self) -> Vec<Vec<f64>> {
        let grid = &self.core.grid;
        let paths = &self.core.paths;
        let mut out = vec![vec![0.0; paths.len()]; grid.horizon()];
        for r in self.core.residents() {
            let m = &r.member;
            let vol = m.flow().data_rate() * m.window().len() as f64;
            for (s, slot_x) in m.window().slots().zip(r.slot_x()) {
                let Some(rel) = s.checked_sub(grid.origin()) else {
                    continue;
                };
                for (k, _) in paths.iter().enumerate() {
                    if let Some(lk) = local_path_index(m.paths.as_deref(), k) {
                        let used: f64 = m
                            .model
                            .usage_coeffs(lk)
                            .iter()
                            .zip(slot_x)
                            .map(|(u, x)| u * x)
                            .sum();
                        out[rel as usize][k] += vol * used;
                    }
                }
            }
        }
        for (i, s) in (grid.origin()..grid.end()).enumerate() {
            for (k, path) in paths.iter().enumerate() {
                if self.core.maintenance.contains(&(s, k)) {
                    out[i][k] = 0.0;
                } else {
                    out[i][k] /= path.bandwidth;
                }
            }
        }
        out
    }

    /// Volume-weighted mean predicted quality of the scheduled flows.
    pub fn aggregate_quality(&self) -> f64 {
        let volume = |r: &Resident| r.member.flow().data_rate() * r.member.window().len() as f64;
        let vol: f64 = self.core.residents().iter().map(volume).sum();
        // dmc-lint: allow(float-exact) vol is a sum of validated positive rates; it is exactly 0.0 iff the fleet is empty
        if vol == 0.0 {
            return 0.0;
        }
        let residents = self.core.residents().iter();
        residents.map(|r| volume(r) * r.plan.quality()).sum::<f64>() / vol
    }

    /// Objective value of the last successful joint solve (the unique
    /// LP optimum — what the advance-vs-fresh differential tests
    /// compare, since per-flow splits can differ at degenerate
    /// vertices).
    pub fn objective_value(&self) -> f64 {
        self.core.objective_value()
    }

    /// Warm-start counters of the joint solves (see
    /// [`FleetPlanner::warm_stats`](crate::FleetPlanner::warm_stats)).
    pub fn warm_stats(&self) -> WarmStats {
        self.core.warm_stats()
    }

    /// Cold re-solves forced by a warm-start anomaly.
    pub fn warm_anomalies(&self) -> u64 {
        self.core.warm_anomalies()
    }

    /// Effective shared paths (base description + link dynamics so far).
    ///
    /// # Errors
    ///
    /// A path whose effective parameters no longer validate.
    pub fn shared_paths(&self) -> Result<Vec<ScenarioPath>, FleetError> {
        self.core.shared_paths()
    }

    /// Offers a batch of instant flows at the origin slot (see
    /// [`FleetPlanner::offer_batch`] for the contract).
    pub(crate) fn offer_batch(
        &mut self,
        requests: Vec<FlowRequest>,
    ) -> Result<Vec<AdmissionDecision>, FleetError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = Vec::with_capacity(requests.len());
        for flow in requests {
            let id = self.core.next_id();
            let mut request = ScheduleRequest::new(flow, SlotWindow::instant(self.grid().origin()));
            request.instant = true;
            batch.push(self.core.member(id, request)?);
        }
        let ids: Vec<FlowId> = batch.iter().map(|m| m.id).collect();
        // Fast path: the whole batch in one solve.
        let verdict = self.core.admit_all(batch, Goal::Optimal)?;
        let obs = &self.core.config.obs;
        match verdict {
            Ok(()) => obs.counter("fleet.admits").add(ids.len() as u64),
            Err(batch) if batch.len() == 1 => obs.counter("fleet.refusals").inc(),
            Err(mut batch) => {
                // Greedy fallback on verdicts; by deadline in MaxAdmitted
                // mode (the sort is stable: arrival order within ties).
                if self.core.config.objective == FleetObjective::MaxAdmitted {
                    batch.sort_by(|a, b| {
                        let (a, b) = (a.flow().lifetime(), b.flow().lifetime());
                        a.partial_cmp(&b).expect("finite lifetimes")
                    });
                }
                for candidate in batch {
                    // A refused candidate is dropped.
                    let _ = self.admit(candidate)?;
                }
                self.core.refresh().map_err(FleetError::Solve)?;
            }
        }
        // Each verdict once the batch is in: the plan's quality, or the
        // refusal.
        let decision = |id| match self.plan_of(id) {
            Some(plan) => AdmissionDecision::Admitted {
                id,
                predicted_quality: plan.quality(),
            },
            None => AdmissionDecision::Rejected {
                id,
                reason: "the remaining shared capacity cannot meet this flow's quality \
                         floor alongside every admitted flow's"
                    .into(),
            },
        };
        Ok(ids.into_iter().map(decision).collect())
    }

    /// Removes a batch of instant flows, admitted or shed, with one
    /// re-solve and one revive sweep (see
    /// [`FleetPlanner::depart_batch`] for the contract).
    pub(crate) fn depart_batch(&mut self, ids: &[FlowId]) -> Result<Vec<Plan>, FleetError> {
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let mut seen = std::collections::BTreeSet::new();
        for &id in ids {
            let admitted = self
                .core
                .resident(id)
                .is_some_and(|r| r.member.request.instant);
            let known = admitted || self.shed.iter().any(|s| s.id == id);
            if !known || !seen.insert(id) {
                return Err(FleetError::UnknownFlow(id));
            }
        }
        let obs = &self.core.config.obs;
        obs.counter("fleet.departs").add(ids.len() as u64);
        let mut plans = Vec::with_capacity(ids.len());
        let mut removed_admitted = false;
        for &id in ids {
            if let Some(resident) = self.core.remove(id) {
                plans.push(resident.plan);
                removed_admitted = true;
            } else {
                let pos = self
                    .shed
                    .iter()
                    .position(|s| s.id == id)
                    .expect("validated as known above");
                plans.push(self.shed.remove(pos).plan);
                self.core.config.obs.gauge("fleet.shed_queue").sub(1);
            }
        }
        if removed_admitted {
            self.freed()?;
        }
        Ok(plans)
    }

    /// Ids queued for re-admission, in queue order.
    pub(crate) fn shed_flows(&self) -> Vec<FlowId> {
        self.shed.iter().map(|s| s.id).collect()
    }

    /// Number of instant residents.
    pub(crate) fn num_instant(&self) -> usize {
        let residents = self.core.residents().iter();
        residents.filter(|r| r.member.request.instant).count()
    }

    /// [`FleetPlanner::utilization`]: per path, the residents' plans'
    /// send rates (indexed by their path subsets) over its bandwidth.
    pub(crate) fn instant_utilization(&self) -> Vec<f64> {
        let mut util = vec![0.0; self.core.paths.len()];
        for r in self.core.residents() {
            match r.member.paths.as_deref() {
                None => {
                    for (u, rate) in util.iter_mut().zip(r.plan.send_rates()) {
                        *u += rate;
                    }
                }
                Some(subset) => {
                    for (&k, rate) in subset.iter().zip(r.plan.send_rates()) {
                        util[k] += rate;
                    }
                }
            }
        }
        for (u, p) in util.iter_mut().zip(&self.core.paths) {
            *u /= p.bandwidth;
        }
        util
    }

    /// One counted admission attempt of an instant flow in a greedy
    /// sequence — an offer of the batch fallback, a revive or a
    /// re-settle alike — on a verdict only: the candidate joins the fleet
    /// or comes back, and no plan moves until the sequence ends with
    /// [`JointCore::refresh`].
    fn admit(&mut self, candidate: Member) -> Result<Result<(), Member>, FleetError> {
        let verdict = self.core.admit(candidate, Goal::Feasible)?;
        let outcome = match verdict {
            Ok(_) => "fleet.admits",
            Err(_) => "fleet.refusals",
        };
        self.core.config.obs.counter(outcome).inc();
        Ok(verdict)
    }

    /// Offers `candidate` to the joint LP at its request's window, for
    /// `goal`: it joins the schedule or comes back. An offer solved to
    /// the optimum that buffers across a slot boundary ticks
    /// `fleet.carryover`; a verdict's vertex says nothing about that.
    fn try_admit(
        &mut self,
        candidate: Member,
        goal: Goal,
    ) -> Result<Result<(), Member>, FleetError> {
        let verdict = self.core.admit(candidate, goal)?;
        let newest = self.core.residents().last();
        let optimal = goal == Goal::Optimal && verdict.is_ok();
        if optimal && newest.is_some_and(|r| r.peak_carry() > 0.0) {
            self.core.config.obs.counter("fleet.carryover").inc();
        }
        Ok(verdict)
    }

    /// The reservation slide: the earliest feasible same-width window at
    /// or after the candidate's start (its own window is tried first),
    /// each try for `goal`.
    fn slide_into_horizon(
        &mut self,
        mut candidate: Member,
        goal: Goal,
    ) -> Result<Option<SlotWindow>, FleetError> {
        let len = candidate.window().len() as u64;
        let mut start = candidate.window().start().max(self.core.grid.origin());
        while start
            .checked_add(len)
            .is_some_and(|end| end <= self.core.grid.end())
        {
            let window = candidate.window().shifted_to(start);
            candidate.request.window = window;
            match self.try_admit(candidate, goal)? {
                Ok(()) => {
                    self.core.config.obs.counter("fleet.reservations").inc();
                    return Ok(Some(window));
                }
                Err(refused) => candidate = refused,
            }
            start += 1;
        }
        Ok(None)
    }

    /// Re-admits a flow that had to leave the roster, on a verdict: a
    /// refused instant flow is displaced (for the caller to enqueue), a
    /// windowed one gets the reservation slide from its own window.
    fn readmit(
        &mut self,
        left: Resident,
        out: &mut ScheduleShuffle,
        displaced: &mut Vec<ShedFlow>,
    ) -> Result<(), FleetError> {
        let (id, window) = (left.member.id, left.member.window());
        if left.member.request.instant {
            if let Err(refused) = self.admit(left.member)? {
                displaced.push(ShedFlow {
                    id,
                    request: refused.request,
                    plan: left.plan,
                    attempts: 0,
                    skip: 0,
                });
            }
            return Ok(());
        }
        match self.slide_into_horizon(left.member, Goal::Feasible)? {
            Some(slid) if slid != window => out.rescheduled.push((id, slid)),
            Some(_) => {}
            None => out.dropped.push(id),
        }
        Ok(())
    }

    /// The displaced-flow routine every capacity change ends in (see the
    /// module docs): `displaced` and the newly shed join the shed queue
    /// only after its sweep — their event is no occasion to retry them.
    fn settle(&mut self, mut displaced: Vec<ShedFlow>) -> Result<ScheduleShuffle, FleetError> {
        let mut out = ScheduleShuffle::default();
        match self.core.resolve() {
            Ok(()) => {}
            Err(SolveError::Infeasible { .. }) => {
                for evicted in self.core.evict_all() {
                    self.readmit(evicted, &mut out, &mut displaced)?;
                }
            }
            Err(e) => return Err(FleetError::Solve(e)),
        }
        self.revive_shed()?;
        self.core.refresh().map_err(FleetError::Solve)?;
        if !displaced.is_empty() {
            let obs = &self.core.config.obs;
            obs.counter("fleet.sheds").add(displaced.len() as u64);
            obs.gauge("fleet.shed_queue").add(displaced.len() as i64);
            self.newly_shed.extend(displaced.iter().map(|s| s.id));
            self.shed.extend(displaced);
        }
        Ok(out)
    }

    /// What a departure runs: the freed capacity is a capacity event, so
    /// one sweep of the shed queue, closed by the refresh that is also
    /// the survivors' re-solve.
    fn freed(&mut self) -> Result<(), FleetError> {
        self.revive_shed()?;
        self.core.refresh().map_err(FleetError::Solve)
    }

    /// One re-admission sweep over the shed queue, run at every
    /// capacity event.
    ///
    /// Flows are tried highest priority first (admission order within
    /// ties), each at the origin slot. Each failed attempt puts the flow
    /// back with an exponentially growing event-skip (capped at
    /// [`SHED_SKIP_CAP`]); after [`FleetPlanner::MAX_SHED_ATTEMPTS`]
    /// failures the flow is definitively rejected, bounding every shed
    /// flow's queue residence by [`FleetPlanner::SHED_HORIZON`] capacity
    /// events.
    fn revive_shed(&mut self) -> Result<(), FleetError> {
        if self.shed.is_empty() {
            return Ok(());
        }
        self.shed
            .sort_by(|a, b| readmission_order((a.request.flow(), a.id), (b.request.flow(), b.id)));
        let queue = std::mem::take(&mut self.shed);
        let origin = self.core.grid.origin();
        for mut s in queue {
            if s.skip > 0 {
                s.skip -= 1;
                self.shed.push(s);
                continue;
            }
            s.request.window = SlotWindow::instant(origin);
            let candidate = self.core.member(s.id, s.request)?;
            match self.admit(candidate)? {
                Ok(_) => {
                    self.core.config.obs.counter("fleet.revives").inc();
                    self.core.config.obs.gauge("fleet.shed_queue").sub(1);
                    self.revived.push(s.id);
                }
                Err(refused) => {
                    s.request = refused.request;
                    s.attempts += 1;
                    if s.attempts >= FleetPlanner::MAX_SHED_ATTEMPTS {
                        self.core.config.obs.counter("fleet.shed_rejects").inc();
                        self.core.config.obs.gauge("fleet.shed_queue").sub(1);
                        self.shed_rejected.push(s.id);
                    } else {
                        s.skip = ((1u32 << s.attempts) - 1).min(SHED_SKIP_CAP);
                        self.shed.push(s);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The long sliding-horizon script the root tests pin, shared as source.
#[cfg(test)]
#[path = "../../../tests/common/sliding_horizon.rs"]
mod sliding_horizon;

#[cfg(test)]
mod tests {
    use super::*;
    use dmc_core::ScenarioPath;

    fn paths() -> Vec<ScenarioPath> {
        vec![
            ScenarioPath::constant(80e6, 0.450, 0.2).expect("valid path"),
            ScenarioPath::constant(20e6, 0.150, 0.0).expect("valid path"),
        ]
    }

    fn sched(horizon: usize) -> SchedulePlanner {
        SchedulePlanner::new(
            paths(),
            TimeGrid::new(1.0, horizon).expect("valid grid"),
            FleetConfig::default(),
        )
        .expect("valid planner")
    }

    #[test]
    fn grid_and_window_validation() {
        assert!(TimeGrid::new(0.0, 4).is_err());
        assert!(TimeGrid::new(f64::NAN, 4).is_err());
        assert!(TimeGrid::new(1.0, 0).is_err());
        let g = TimeGrid::new(0.5, 4).expect("valid grid");
        assert_eq!(g.slot_of(0.0).expect("finite"), 0);
        assert_eq!(g.slot_of(1.25).expect("finite"), 2);
        assert!(g.slot_of(-1.0).is_err());
        assert!(SlotWindow::new(3, 3).is_err());
        assert_eq!(SlotWindow::instant(3).len(), 1);
        let w = SlotWindow::new(1, 4).expect("valid window");
        assert_eq!(w.len(), 3);
        assert_eq!(w.shifted_to(5), SlotWindow::new(5, 8).expect("valid"));
        assert_eq!(format!("{w}"), "[1, 4)");
        assert!(g.contains_window(&w));
        assert!(!g.contains_window(&SlotWindow::new(2, 5).expect("valid")));
    }

    #[test]
    fn an_origin_too_late_for_its_horizon_is_refused() {
        // Both used to succeed, and the next offer overflowed in
        // `TimeGrid::end` (u64::MAX) or in the one-slot slide past the
        // horizon (u64::MAX − 4: the end fits, the slide does not).
        let mut s = sched(4);
        for origin in [u64::MAX, u64::MAX - 4] {
            assert!(matches!(s.advance_to(origin), Err(FleetError::Invalid(_))));
            assert_eq!(s.grid().origin(), 0, "a refused advance moves nothing");
        }
        // The latest origin that fits plans to its very last slot: the
        // hog fills the horizon, the second flow is refused there and its
        // slide runs off the end.
        let origin = u64::MAX - 5;
        s.advance_to(origin).expect("horizon and slide fit");
        let strict = |rate| {
            FlowRequest::new(rate, 0.8)
                .expect("valid flow")
                .with_min_quality(0.9)
        };
        let all = SlotWindow::new(origin, s.grid().end()).expect("valid");
        let hog = s.offer(ScheduleRequest::new(strict(90e6), all));
        assert!(hog.expect("offer").is_scheduled());
        let last = SlotWindow::instant(s.grid().end() - 1);
        let late = s.offer(ScheduleRequest::new(strict(60e6), last));
        assert!(!late.expect("offer").is_admitted());
    }

    #[test]
    #[should_panic(expected = "slot window end fits in u64")]
    fn an_instant_window_at_the_last_slot_number_panics_as_documented() {
        let _ = SlotWindow::instant(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "slot window end fits in u64")]
    fn shifting_a_window_past_the_last_slot_number_panics_as_documented() {
        let _ = SlotWindow::new(0, 2).expect("valid").shifted_to(u64::MAX);
    }

    #[test]
    fn windowed_flows_schedule_and_complete() {
        let mut s = sched(4);
        let flow = FlowRequest::new(20e6, 0.8).expect("valid flow");
        let d = s
            .offer(ScheduleRequest::new(
                flow.clone(),
                SlotWindow::new(0, 2).expect("valid"),
            ))
            .expect("offer");
        assert!(d.is_scheduled());
        assert_eq!(
            s.window_of(d.id()),
            Some(SlotWindow::new(0, 2).expect("valid"))
        );
        // Per-slot quality sums to the plan's quality.
        let per_slot = s.slot_quality_of(d.id()).expect("scheduled");
        let q: f64 = per_slot.iter().sum();
        let plan_q = s.plan_of(d.id()).expect("plan").quality();
        assert!((q - plan_q).abs() < 1e-9, "{q} vs {plan_q}");
        // Advancing past the window completes the flow.
        let adv = s.advance_to(2).expect("advance");
        assert_eq!(adv.completed, vec![d.id()]);
        assert!(s.is_empty());
        assert_eq!(s.grid().origin(), 2);
        assert!(s.advance_to(1).is_err());
    }

    #[test]
    fn refused_now_gets_a_future_reservation() {
        let mut s = sched(6);
        // A fat strict flow fills slot 0.
        let hog = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(90e6, 0.8)
                    .expect("valid flow")
                    .with_min_quality(0.9),
                SlotWindow::instant(0),
            ))
            .expect("offer");
        assert!(hog.is_scheduled());
        // A second strict flow cannot fit in slot 0 alongside it…
        let d = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(60e6, 0.8)
                    .expect("valid flow")
                    .with_min_quality(0.9),
                SlotWindow::instant(0),
            ))
            .expect("offer");
        // …so it is reserved for the earliest free slot instead.
        match &d {
            ScheduleDecision::Reserved {
                requested, window, ..
            } => {
                assert_eq!(*requested, SlotWindow::instant(0));
                assert_eq!(*window, SlotWindow::instant(1));
                assert_eq!(d.opens_in(), 1);
            }
            other => panic!("expected a reservation, got {other:?}"),
        }
        assert_eq!(s.num_flows(), 2);
    }

    #[test]
    fn store_and_forward_uses_the_buffer_only_when_allowed() {
        // Slot 1 of path 0 is under maintenance, so a two-slot flow
        // over [0, 2) must either lean on path 1 in slot 1 or buffer.
        let mut s = sched(2);
        s.set_maintenance(1, 0).expect("maintenance");
        let buffered = s
            .offer(
                ScheduleRequest::new(
                    FlowRequest::new(30e6, 0.8).expect("valid flow"),
                    SlotWindow::new(0, 2).expect("valid"),
                )
                .with_buffer(1.0),
            )
            .expect("offer");
        assert!(buffered.is_admitted());
        // Buffering can only help (a larger feasible region).
        let q_buffered = buffered.predicted_quality().expect("admitted");
        let mut s2 = sched(2);
        s2.set_maintenance(1, 0).expect("maintenance");
        let plain = s2
            .offer(ScheduleRequest::new(
                FlowRequest::new(30e6, 0.8).expect("valid flow"),
                SlotWindow::new(0, 2).expect("valid"),
            ))
            .expect("offer");
        let q_plain = plain.predicted_quality().expect("admitted");
        assert!(
            q_buffered >= q_plain - 1e-9,
            "buffering shrank quality: {q_buffered} < {q_plain}"
        );
        assert_eq!(s2.peak_carry_of(plain.id()), Some(0.0));
    }

    #[test]
    fn buffered_windows_of_three_or_more_slots_assemble() {
        // Regression: a middle slot of a buffered window has BOTH a
        // carry-in and a carry-out term in its balance row; the sparse
        // row must be emitted in ascending column order or assembly
        // rejects it (`UnsortedSparseColumn`). Needs window length ≥ 3.
        let mut s = sched(4);
        let d = s
            .offer(
                ScheduleRequest::new(
                    FlowRequest::new(30e6, 0.8).expect("valid flow"),
                    SlotWindow::new(0, 3).expect("valid"),
                )
                .with_buffer(0.5),
            )
            .expect("a buffered three-slot window must assemble");
        assert!(d.is_scheduled());
        // Depart and re-offer: the block leaves the LP and is appended
        // again, with the same balance rows.
        s.depart(d.id()).expect("depart");
        let again = s
            .offer(
                ScheduleRequest::new(
                    FlowRequest::new(30e6, 0.8).expect("valid flow"),
                    SlotWindow::new(0, 3).expect("valid"),
                )
                .with_buffer(0.5),
            )
            .expect("a re-offered buffered block must assemble");
        assert!(again.is_scheduled());
        assert_eq!(
            d.predicted_quality().expect("admitted").to_bits(),
            again.predicted_quality().expect("admitted").to_bits(),
            "a re-offered block must reproduce the first bit for bit"
        );
    }

    #[test]
    fn maintenance_zeroes_the_slot() {
        let mut s = sched(3);
        let d = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(20e6, 0.8).expect("valid flow"),
                SlotWindow::new(0, 3).expect("valid"),
            ))
            .expect("offer");
        assert!(d.is_scheduled());
        let shuffle = s.set_maintenance(1, 0).expect("maintenance");
        assert!(shuffle.dropped.is_empty());
        let util = s.utilization();
        assert_eq!(util.len(), 3);
        assert_eq!(util[1][0], 0.0, "maintenance slot reports zero utilization");
        s.clear_maintenance(1, 0).expect("clear");
        assert_eq!(s.maintenance().count(), 0);
    }

    #[test]
    fn depart_frees_the_window() {
        let mut s = sched(2);
        let a = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(90e6, 0.8)
                    .expect("valid flow")
                    .with_min_quality(0.9),
                SlotWindow::instant(0),
            ))
            .expect("offer");
        s.depart(a.id()).expect("depart");
        assert!(s.is_empty());
        assert!(s.depart(a.id()).is_err());
        // The freed slot admits a new strict flow again.
        let b = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(90e6, 0.8)
                    .expect("valid flow")
                    .with_min_quality(0.9),
                SlotWindow::instant(0),
            ))
            .expect("offer");
        assert!(b.is_scheduled());
    }

    #[test]
    fn link_failure_triggers_slot_based_revival() {
        let mut s = sched(4);
        // Two strict flows in slot 0, feasible only with both paths up.
        let a = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(60e6, 0.8)
                    .expect("valid flow")
                    .with_min_quality(0.9),
                SlotWindow::instant(0),
            ))
            .expect("offer");
        assert!(a.is_scheduled());
        let shuffle = s.apply_link_change(0, &LinkChange::Fail).expect("fail");
        // The strict flow cannot be served on the thin path alone in any
        // slot: it is dropped (no shed queue — the horizon is the queue).
        assert!(shuffle.rescheduled.is_empty());
        assert_eq!(shuffle.dropped, vec![a.id()]);
        assert!(s.is_empty());
        let back = s
            .apply_link_change(0, &LinkChange::Recover)
            .expect("recover");
        assert!(back.is_quiet());
    }

    #[test]
    fn advance_truncates_straddling_windows() {
        let mut s = sched(4);
        let d = s
            .offer(ScheduleRequest::new(
                FlowRequest::new(20e6, 0.8).expect("valid flow"),
                SlotWindow::new(0, 3).expect("valid"),
            ))
            .expect("offer");
        let adv = s.advance_to(1).expect("advance");
        assert_eq!(adv.truncated, vec![d.id()]);
        assert_eq!(
            s.window_of(d.id()),
            Some(SlotWindow::new(1, 3).expect("valid"))
        );
        // The truncated flow's demand renormalizes over two slots.
        let per_slot = s.slot_quality_of(d.id()).expect("scheduled");
        assert_eq!(per_slot.len(), 2);
    }

    #[test]
    fn a_sliding_horizon_keeps_the_assembly_bounded_and_matches_cold_solves() {
        // The `sched_horizon` script: slide one slot, offer two 2-slot
        // windows, one in three buffered. Every completed flow's block
        // leaves the LP at the next solve, so after every call it is the
        // roster's. (Before completed blocks left, the assembly grew
        // without bound: past 100 slots here, for 8–13 residents.)
        let cold_config = FleetConfig {
            planner: dmc_core::PlannerConfig {
                warm_start: false,
                ..dmc_core::PlannerConfig::default()
            },
            ..FleetConfig::default()
        };
        let grid = TimeGrid::new(0.5, 8).expect("valid grid");
        let mut warm = SchedulePlanner::new(paths(), grid, FleetConfig::default()).expect("valid");
        let mut cold = SchedulePlanner::new(paths(), grid, cold_config).expect("valid");
        let mut rng = dmc_stats::rng::SplitMix64::new(0x5C4E);
        let mut draw = |n: u64| rng.next_u64() % n;
        for origin in 1..=300 {
            let (w, c) = (warm.advance_to(origin), cold.advance_to(origin));
            let (w, c) = (w.expect("advance"), c.expect("advance"));
            assert_eq!(
                (w.completed, w.truncated, w.rescheduled, w.dropped),
                (c.completed, c.truncated, c.rescheduled, c.dropped),
                "advance to {origin}"
            );
            warm.core
                .assert_lp_is_the_rosters(&format!("advance to {origin}"));
            for _ in 0..2 {
                let floor = [0.0, 0.8, 0.9, 0.95][draw(4) as usize];
                let rate = 10e6 + draw(22) as f64 * 1e6;
                let flow = FlowRequest::new(rate, 0.3 + draw(10) as f64 * 0.09)
                    .expect("valid flow")
                    .with_min_quality(floor);
                let start = origin + draw(7);
                let window = SlotWindow::new(start, start + 2).expect("valid");
                let buffer = if draw(3) == 0 { 0.5 } else { 0.0 };
                let request = ScheduleRequest::new(flow, window).with_buffer(buffer);
                let w = warm.offer(request.clone()).expect("offer");
                let c = cold.offer(request).expect("offer");
                assert_eq!((w.id(), w.window()), (c.id(), c.window()), "{origin}");
                warm.core
                    .assert_lp_is_the_rosters(&format!("offer at {origin}"));
            }
        }
        assert_eq!(warm.flow_ids(), cold.flow_ids());
        for id in warm.flow_ids() {
            assert_eq!(warm.window_of(id), cold.window_of(id), "{id}");
        }
        assert!((warm.objective_value() - cold.objective_value()).abs() <= 1e-9);
    }

    #[test]
    fn a_long_sliding_horizon_compacts_often_and_stays_bounded() {
        // The shared 400-cycle script of windowed offers, slides and
        // departures (`tests/common/sliding_horizon.rs`): after every
        // call the LP is the roster's, every departed block cut out. The
        // roster shrinks at 542 calls. (While departed blocks stayed as
        // tombstones, the LP was held within 2·residents + 8 slots and
        // compacted at 226 calls.)
        let (mut calls, mut shrinking_calls, mut last) = (0, 0, 0);
        super::sliding_horizon::run(FleetConfig::default(), |s| {
            calls += 1;
            s.core.assert_lp_is_the_rosters(&format!("call {calls}"));
            shrinking_calls += usize::from(s.num_flows() < last);
            last = s.num_flows();
        });
        assert_eq!(shrinking_calls, 542);
    }

    #[test]
    fn heavy_churn_compacts_and_matches_a_fresh_schedule() {
        // The slotted twin of the instant planner's churn test: admit and
        // withdraw transients of varying widths, windows and buffering;
        // the core cuts every departed block out, and the survivors'
        // allocation is a fresh planner's, bit for bit.
        let keeper = |rate, start, end| {
            let flow = FlowRequest::new(rate, 0.8).expect("valid flow");
            let window = SlotWindow::new(start, end).expect("valid");
            ScheduleRequest::new(flow.with_min_quality(0.5), window)
        };
        let mut churned = sched(4);
        let keep_a = churned.offer(keeper(25e6, 0, 3)).expect("offer");
        let mut transients = Vec::new();
        for i in 0..36u64 {
            let mut flow =
                FlowRequest::new(1e6 + i as f64 * 1e5, 0.5 + 0.01 * i as f64).expect("valid flow");
            if i % 3 == 0 {
                flow = flow.with_transmissions(1); // narrower block
            }
            let window = SlotWindow::new(i % 3, i % 3 + 1 + i % 2).expect("valid");
            let request = ScheduleRequest::new(flow, window).with_buffer(0.5 * (i % 2) as f64);
            transients.push(churned.offer(request).expect("offer"));
        }
        let keep_b = churned.offer(keeper(15e6, 1, 4)).expect("offer");
        assert_eq!(churned.num_flows(), 38);
        churned.core.assert_lp_is_the_rosters("populated");
        for t in &transients {
            churned.depart(t.id()).expect("depart");
            churned
                .core
                .assert_lp_is_the_rosters(&format!("{} left", t.id()));
        }
        // (While departed blocks stayed as tombstones, the LP compacted
        // at the 20th, 30th and 35th departures and kept one tombstone.)
        assert_eq!(churned.num_flows(), 2);
        let mut fresh = sched(4);
        let fa = fresh.offer(keeper(25e6, 0, 3)).expect("offer");
        let fb = fresh.offer(keeper(15e6, 1, 4)).expect("offer");
        assert_eq!(churned.objective_value(), fresh.objective_value());
        for (churned_id, fresh_id) in [(keep_a.id(), fa.id()), (keep_b.id(), fb.id())] {
            let pc = churned.plan_of(churned_id).expect("scheduled");
            let pf = fresh.plan_of(fresh_id).expect("scheduled");
            assert_eq!(pc.strategy().x(), pf.strategy().x(), "{churned_id}");
            assert_eq!(pc.quality(), pf.quality(), "{churned_id}");
        }
    }
}
