//! The one joint-LP core: the roster of resident flows, the block
//! assembly, the carried basis and the solve path shared by the instant
//! [`FleetPlanner`](crate::FleetPlanner) and the slotted
//! [`SchedulePlanner`](crate::SchedulePlanner).
//!
//! Both planners are *policy* layers — who is offered, in what order,
//! what happens to a refused or displaced flow — over the same loop:
//! edit a block-angular LP a little, re-solve it warm, hand every flow
//! its block of `x`. The core is parameterised by data only: a
//! [`TimeGrid`] of `S` slots, and per flow a [`Member`] whose request
//! carries its window (length `L`) and buffer allowance. The instant
//! planner runs it over a private one-slot grid with
//! [`SlotWindow::instant`]`(0)` windows, where `λ·L ≡ λ` and `1/L ≡ 1`
//! exactly in IEEE arithmetic, so the LP degenerates — row for row, bit
//! for bit — to the instant joint LP (see the formulations in the two
//! planners' module docs).
//!
//! # The roster
//!
//! *Who is in the LP* is kept here, once: [`JointCore`] owns the
//! residents in admission order — each an owned [`Member`] (id, request,
//! model) with its current [`Plan`] and raw block of `x` — and the id
//! counter. A planner never holds a flow the LP also holds. It offers a
//! candidate **by value** ([`JointCore::admit`], or a whole batch in one
//! solve with [`JointCore::admit_all`]): on success the candidate is the
//! newest resident, on infeasibility it is **handed back** intact — to
//! be dropped, queued, or offered again at another window — and the LP
//! is as it was. [`JointCore::remove`] takes a resident off the roster
//! and tombstones its block in one step; [`JointCore::resolve`]
//! re-solves for whoever is left; [`JointCore::apply_link_change`] is a
//! link change, whole; [`JointCore::evict_all`] empties the roster in
//! re-admission order for a one-by-one re-settle. The solve
//! itself is private, and every successful optimal one refreshes the
//! block and plan of every resident whose slice of `x` moved, in the
//! pass that slices it.
//!
//! # Two goals
//!
//! An admission verdict is only whether every floor can still be met —
//! a feasibility question, which phase 1 of the solver decides alone
//! ([`Problem::find_feasible_with`]); the optimum matters only for the
//! plans handed out. So an offer is made with a [`Goal`]:
//! [`Goal::Optimal`] solves to the optimum and refreshes the plans, as
//! a single offer must; [`Goal::Feasible`] stops at the first feasible
//! vertex, refreshes no plan, and gives the candidate a plan cut from
//! that vertex. The planners' greedy sequences (a batch's one-by-one
//! fallback, a re-settle after a link change, a revival sweep, a
//! schedule's slides) admit on verdicts and then call
//! [`JointCore::refresh`] once: one optimal solve for the final roster,
//! before the public call returns, so no caller sees a plan the roster
//! has outgrown. The core knows when one is due — after a feasibility
//! admission, a removal, an eviction or a link change, until the next
//! optimal solve.
//!
//! The invariant this buys, by construction: **a block is live in the
//! assembly iff its flow is on the roster or is a candidate of the
//! solve in progress**. No planner can test a flow against the load of
//! one that has, for the moment, left: a flow that is to be offered
//! again (a straddler of `SchedulePlanner::advance_to`, a re-settled
//! fleet) is first removed, and removal tombstones. A `debug_assert!`
//! at the top of the solve checks it, so every stateful test does.
//!
//! # Layout
//!
//! The `S·K` shared capacity rows come first, **ring-indexed** (`row(s,
//! k) = (s mod S)·K + k`): a surviving slot's rows never move when the
//! horizon advances, and an expired slot's rows are recycled in place
//! by the slot that takes over its ring position. Then one group of
//! rows per block, in placement order: optional cost row, optional
//! floor row, the `L` balance equalities (`Σx = 1` when `L = 1`), the
//! buffer caps. A block's columns are its `L·n` window-slot-major
//! assignment columns followed by its carry columns.
//!
//! # Maintained, not rebuilt
//!
//! Admitting a flow appends its block or takes over a compatible
//! tombstoned one in place; departing **tombstones** the block (balance
//! RHS `1/L → 0`, floor and cap RHS relaxed to 0, objective and
//! capacity-row segments zeroed), which forces the block to zero
//! *without moving a row or a column* — across churn and across
//! [`SchedulePlanner::advance_to`](crate::SchedulePlanner::advance_to).
//! Every coefficient of a block — capacity segments in bit/s, objective
//! weighted by the flow's own volume `λ_f·L_f` — is a function of that
//! flow alone and is written once, when the block is placed: an edit
//! touches its own columns and nothing else. History cannot leak into
//! the numerics, which keeps trace replay and warm-vs-cold comparisons
//! bit-identical. A rejected candidate is rolled back exactly.
//!
//! The **basis** of the last successful solve is part of the assembly
//! and is edited in step with the LP, so every solve starts from the
//! incumbents' optimal vertex instead of re-deriving it: an appended
//! block's rows enter on their starting logicals (its columns start
//! nonbasic, so the incumbents' basic values do not move and phase 1
//! runs over the candidate's few artificials only); a taken-over
//! tombstone's rows are reset to theirs and its columns leave (exact: a
//! dead block's columns are zero outside its own rows, so its sub-basis
//! is block-diagonal); rolling an appended candidate back truncates the
//! basis to what it was. The solver validates what it is handed —
//! infeasible after a departure freed capacity, it is walked back to
//! feasibility by the solver's dual phase; a numerical anomaly on the
//! warm path drops it and retries cold — and phase 3's canonical vertex
//! makes the answer a function of the problem, not of where the
//! pivoting started (bitwise
//! on the instant plane; on large time-expanded LPs ties below the
//! solver's tolerance can leave the per-flow split — never an
//! admission or the joint optimum — path-dependent; see
//! `tests/carried_basis_stateful.rs`).
//!
//! **When the assembly (basis included) is dropped is decided here and
//! nowhere else**: on a link change (every model changed), on
//! [`JointCore::evict_all`], and — compaction — at the top of any solve
//! that finds at least [`COMPACT_MIN_SLOTS`] slots with tombstones
//! outnumbering the residents, on both planes alike and whatever the
//! horizon (neither churn nor a sliding horizon grows the LP without
//! bound: it stays within twice its roster plus the floor). A tombstone
//! is only ever taken over at its own ring phase, so a floor per slot of
//! the horizon would keep more of them for reuse in place; on the
//! slotted plane that buys less than it costs, since every pivot,
//! pricing pass and factorization of the larger LP pays for the dead
//! blocks, and re-placing the residents is cheap beside that. The next
//! solve re-places the residents in admission order and
//! starts cold — the very `Problem` a fresh planner offered the residents
//! as one batch would build (`tests/maintained_vs_fresh.rs` holds the
//! maintained LP to that reference). `PlannerConfig::warm_start = false`
//! keeps the assembly and carries no basis.
//!
//! A new row or column kind of the joint LP, or a new piece of per-flow
//! state, is added here, once.

use crate::error::FleetError;
use crate::flow::{FlowId, FlowRequest};
use crate::planner::{FleetConfig, FleetObjective};
use crate::schedule::{ScheduleRequest, SlotWindow, TimeGrid};
use dmc_core::{
    ComboTable, Objective, Plan, Planner, Scenario, ScenarioModel, ScenarioPath, WarmStats,
};
use dmc_lp::{Basis, Problem, SolveError, SolveStatus, Workspace, TOLERANCE};
use dmc_sim::LinkChange;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

/// One shared path's mutable state (the base description plus the link
/// dynamics applied so far).
#[derive(Debug, Clone)]
pub(crate) struct SharedPath {
    base: ScenarioPath,
    pub(crate) bandwidth: f64,
    loss: f64,
    failed: bool,
}

impl SharedPath {
    fn effective(&self) -> Result<ScenarioPath, FleetError> {
        let loss = if self.failed { 1.0 } else { self.loss };
        ScenarioPath::new(
            self.bandwidth,
            Arc::clone(self.base.delay()),
            loss,
            self.base.cost(),
        )
        .map_err(FleetError::Spec)
    }
}

/// One flow as the joint LP sees it, **owned**: its id, its demand with
/// the slots it may be served in and its buffer allowance (an instant
/// flow is [`SlotWindow::instant`]`(0)` with buffer 0), and its
/// coefficient model over the shared paths it may use. A candidate is
/// built by [`JointCore::member`] and offered to the core by value: it
/// joins the roster when the LP takes it and is handed back when not.
#[derive(Debug)]
pub(crate) struct Member {
    pub(crate) id: FlowId,
    pub(crate) request: ScheduleRequest,
    /// The shared paths the model covers (`None`: all), sorted: those the
    /// request names that the door rule of [`JointCore::member`] kept.
    pub(crate) paths: Option<Vec<usize>>,
    pub(crate) model: ScenarioModel,
}

impl Member {
    pub(crate) fn flow(&self) -> &FlowRequest {
        self.request.flow()
    }

    pub(crate) fn window(&self) -> SlotWindow {
        self.request.window()
    }

    /// Number of carry (store-and-forward buffer) variables: one per
    /// interior slot boundary when buffering is enabled, none for
    /// single-slot windows or a zero buffer.
    fn carry_vars(&self) -> usize {
        if self.request.buffer() > 0.0 {
            self.window().len() - 1
        } else {
            0
        }
    }
}

/// One resident of the roster: an admitted member, its slice of the
/// current joint allocation and the raw block of `x` that slice was cut
/// from. Every successful optimal solve refreshes both, for every
/// resident whose block moved.
#[derive(Debug)]
pub(crate) struct Resident {
    pub(crate) member: Member,
    /// The aggregate plan over the window: [`Resident::plan_for`] of
    /// `block`.
    pub(crate) plan: Plan,
    /// `L·n` assignment values, window-slot-major, then the carry levels;
    /// always of the member's shape, so that `plan` is
    /// [`Resident::plan_for`] of it at every moment.
    block: Vec<f64>,
}

impl Resident {
    /// A member's plan for `block`: the slot-summed assignment vector
    /// through [`ScenarioModel::plan_for`] (for `L = 1` the sum *is* the
    /// block). A pure function of the model and the block.
    fn plan_for(m: &Member, block: &[f64]) -> Plan {
        let n = m.model.num_combos();
        let mut total = block[..n].to_vec();
        for seg in block[n..m.window().len() * n].chunks(n) {
            for (t, v) in total.iter_mut().zip(seg) {
                *t += v;
            }
        }
        m.model.plan_for(Objective::MaxQuality, total)
    }

    /// Moves the resident to `fresh`, its slice of a new joint `x`. The
    /// plan is rebuilt only when the block moved: `plan_for` is a pure
    /// function of the model and the block, so an equal block, bit for
    /// bit, has the plan already.
    fn refresh_from(&mut self, fresh: &[f64]) {
        let bits = |v: &f64| v.to_bits();
        if !self.block.iter().map(bits).eq(fresh.iter().map(bits)) {
            self.block.clear();
            self.block.extend_from_slice(fresh);
            self.plan = Resident::plan_for(&self.member, &self.block);
        }
    }

    /// Moves the resident to `member`, its own rebuild against changed
    /// paths, and rebuilds the plan from the block it holds — zeroed to
    /// the new shape where the door rule dropped or restored a path. The
    /// plan stays `plan_for` of the block, so the skip in
    /// [`Resident::refresh_from`] stays sound, and a re-solve that fails
    /// leaves a plan against the new model.
    fn remodel(&mut self, member: Member) {
        self.member = member;
        let len = self.assigned() + self.member.carry_vars();
        if self.block.len() != len {
            self.block.clear();
            self.block.resize(len, 0.0);
        }
        self.plan = Resident::plan_for(&self.member, &self.block);
    }

    fn assigned(&self) -> usize {
        self.member.window().len() * self.member.model.num_combos()
    }

    /// Per-window-slot assignment segments (`x^{f,s}`, slot-ascending).
    pub(crate) fn slot_x(&self) -> impl Iterator<Item = &[f64]> {
        self.block[..self.assigned()].chunks(self.member.model.num_combos())
    }

    /// Largest buffer level the allocation uses (0 without buffering).
    pub(crate) fn peak_carry(&self) -> f64 {
        self.block[self.assigned()..]
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }
}

/// The flow-local index of global path `k` under an optional path subset
/// (`None` = the identity mapping: the flow's model covers every shared
/// path), or `None` when the flow does not use the path at all.
pub(crate) fn local_path_index(subset: Option<&[usize]>, k: usize) -> Option<usize> {
    match subset {
        None => Some(k),
        Some(s) => s.binary_search(&k).ok(),
    }
}

/// Re-admission order after a capacity loss: highest priority first,
/// admission order within ties.
pub(crate) fn readmission_order(a: (&FlowRequest, FlowId), b: (&FlowRequest, FlowId)) -> Ordering {
    b.0.priority()
        .partial_cmp(&a.0.priority())
        .expect("priorities are finite")
        .then(a.1.cmp(&b.1))
}

/// Rejects a flow whose combination count `(n_paths + 1)^transmissions`
/// overflows or exceeds [`ComboTable::MAX_COMBOS`]: an unchecked `m` from
/// outside the program can exhaust memory or overflow the count itself.
pub(crate) fn check_combos(n_paths: usize, transmissions: usize) -> Result<(), FleetError> {
    match ComboTable::checked_num_combos(n_paths, transmissions, true) {
        Some(_) => Ok(()),
        None => Err(FleetError::Invalid(format!(
            "{transmissions} transmissions over {n_paths} paths need more than \
             {} path combinations",
            ComboTable::MAX_COMBOS
        ))),
    }
}

/// Rejects a rate, bandwidth, budget or weight the joint LP cannot scale.
/// Its coefficients are products and quotients of two of these
/// (`λ_f·usage`, `w_f·λ_f·L_f·p_f`, `µ_f/λ_f`): with each within
/// `√f64::MAX` of 1 none overflows or underflows to zero — so what fails
/// is an invalid request, not an `∞` coefficient (a panic) or a zero one
/// (a false admission) met mid-solve.
pub(crate) fn check_scale(what: &str, value: f64) -> Result<(), FleetError> {
    let top = f64::MAX.sqrt();
    if (1.0 / top..=top).contains(&value) {
        return Ok(());
    }
    let reason = format!("{what} {value} is not within 1e±154, the range the joint LP can scale");
    Err(FleetError::Invalid(reason))
}

/// [`check_scale`] for everything a request brings into the LP, its
/// priority-weighted rate included.
pub(crate) fn check_request_scale(request: &FlowRequest) -> Result<(), FleetError> {
    check_scale("flow data rate", request.data_rate())?;
    check_scale("priority", request.priority())?;
    let weighted = request.priority() * request.data_rate();
    check_scale("priority-weighted rate", weighted)?;
    if request.cost_budget().is_finite() {
        check_scale("cost budget", request.cost_budget())?;
    }
    Ok(())
}

/// One flow's block in the assembly: `L·n` assignment columns
/// (window-slot-major) plus `carry` buffer columns, its optional
/// cost/floor rows, its `L` balance rows and `carry` cap rows. A
/// tombstoned (inactive) slot keeps its rows and columns, so departures
/// never move anything; a later flow with the same width, window
/// length, buffering, row pattern and window *ring phase* (the capacity
/// rows a block touches are baked into its coefficients) takes the slot
/// over in place.
#[derive(Debug, Clone)]
struct Slot {
    cols: Range<usize>,
    window: SlotWindow,
    n_combos: usize,
    carry: usize,
    cost_row: Option<usize>,
    floor_row: Option<usize>,
    /// First of the `window.len()` balance rows (contiguous).
    balance_start: usize,
    /// First of the `carry` buffer-cap rows (contiguous, after balance).
    cap_start: usize,
    active: bool,
}

impl Slot {
    /// Column offset of window-slot `i`'s assignment segment.
    fn combo_start(&self, i: usize) -> usize {
        self.cols.start + i * self.n_combos
    }

    /// The rows whose RHS a tombstone zeroes: balance rows, the buffer
    /// caps after them (contiguous), and the floor row.
    fn forced_rows(&self) -> impl Iterator<Item = usize> {
        (self.balance_start..self.cap_start + self.carry).chain(self.floor_row)
    }
}

/// How a tentative placement got its slot (so a rejected candidate can
/// be rolled back exactly).
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// A brand-new block was appended; these were the sizes before.
    Appended { prev_vars: usize, prev_rows: usize },
    /// An existing tombstoned slot was re-activated in place.
    Reused,
}

/// Compaction: the assembly is dropped once it holds at least this many
/// slots *and* tombstones outnumber the residents — the same floor on
/// every grid: an LP near its roster's size solves faster than a larger
/// one that keeps tombstones for in-place reuse (module docs).
pub(crate) const COMPACT_MIN_SLOTS: usize = 8;

/// The incrementally maintained joint LP (see the module docs for the
/// layout and the tombstone contract).
#[derive(Debug)]
struct Assembly {
    problem: Problem,
    /// What a flow's objective segment is weighted by, besides its volume.
    objective: FleetObjective,
    horizon: usize,
    n_paths: usize,
    slots: Vec<Slot>,
    /// Which slot each placed flow occupies.
    slot_of: BTreeMap<FlowId, usize>,
    /// Basis of the last successful solve, edited in step with
    /// `problem` (`None` before the first one, after an anomaly, and
    /// always with warm starts off).
    basis: Option<Basis>,
    /// Scratch for coefficient segments.
    seg: Vec<f64>,
}

impl Assembly {
    fn new(objective: FleetObjective, horizon: usize, n_paths: usize) -> Self {
        Assembly {
            problem: Problem::maximize(Vec::new()),
            objective,
            horizon,
            n_paths,
            slots: Vec::new(),
            slot_of: BTreeMap::new(),
            basis: None,
            seg: Vec::new(),
        }
    }

    /// The ring position of a slot: `slot mod S`.
    fn ring(&self, slot: u64) -> usize {
        (slot % self.horizon as u64) as usize
    }

    /// The capacity row of `(slot, path)`.
    fn cap_row(&self, slot: u64, path: usize) -> usize {
        self.ring(slot) * self.n_paths + path
    }

    /// Fills the scratch with a segment of `m`'s block: `per_slot` in
    /// every window slot, zero on the carry columns.
    fn tile(&mut self, m: &Member, per_slot: impl Iterator<Item = f64> + Clone) {
        self.seg.clear();
        for _ in 0..m.window().len() {
            self.seg.extend(per_slot.clone());
        }
        self.seg.resize(self.seg.len() + m.carry_vars(), 0.0);
    }

    /// Writes the scratch segment into `row` from column `start` and
    /// sets the row's RHS.
    fn patch_row(&mut self, row: usize, start: usize, rhs: f64) {
        self.problem
            .set_row_range(row, start, &self.seg)
            .expect("segment fits the block it was sized for");
        self.set_rhs(row, rhs);
    }

    fn set_rhs(&mut self, row: usize, rhs: f64) {
        self.problem
            .set_rhs(row, rhs)
            .expect("row index recorded at placement stays in range");
    }

    /// Places a flow's block — taking a compatible tombstone over in
    /// place, else appending (with the `S·K` shared capacity rows if it is
    /// the first) — and writes every coefficient the flow has, its
    /// objective segment `w·λ·L·p` and its `λ·L·usage_k` segment in the
    /// capacity rows of its window and [`Member::paths`] included.
    fn place(&mut self, m: &Member) -> Placement {
        let n = m.model.num_combos();
        let len = m.window().len();
        let carry = m.carry_vars();
        let g = 1.0 / len as f64;
        let volume = m.flow().data_rate() * len as f64;
        let has_cost = m.flow().cost_budget().is_finite();
        let has_floor = m.flow().min_quality() > 0.0;
        let ring = self.ring(m.window().start());
        let reusable = self.slots.iter().position(|s| {
            !s.active
                && s.n_combos == n
                && s.window.len() == len
                && s.carry == carry
                && self.ring(s.window.start()) == ring
                && s.cost_row.is_some() == has_cost
                && s.floor_row.is_some() == has_floor
        });
        let weight = match self.objective {
            FleetObjective::WeightedFair => m.flow().priority(),
            FleetObjective::MaxAdmitted | FleetObjective::MaxTotalQuality => 1.0,
        } * volume;
        self.tile(m, m.model.quality_coeffs().iter().map(|p| weight * p));
        let placement = if let Some(idx) = reusable {
            let slot = self.slots[idx].clone();
            self.problem
                .set_objective_range(slot.cols.start, &self.seg)
                .expect("objective segment fits");
            if let Some(row) = slot.cost_row {
                self.tile(m, m.model.cost_coeffs().iter().copied());
                let budget = m.flow().cost_budget() / m.flow().data_rate();
                self.patch_row(row, slot.cols.start, budget);
            }
            if let Some(row) = slot.floor_row {
                // `add_ge` stores the row negated; patch it the same way.
                self.tile(m, m.model.quality_coeffs().iter().map(|p| -p));
                self.patch_row(row, slot.cols.start, -m.flow().min_quality());
            }
            for i in 0..len {
                self.set_rhs(slot.balance_start + i, g);
            }
            for i in 0..carry {
                self.set_rhs(slot.cap_start + i, m.request.buffer() * g);
            }
            if let Some(basis) = &mut self.basis {
                basis.release(slot.forced_rows().chain(slot.cost_row), slot.cols.clone());
            }
            self.slots[idx].active = true;
            self.slots[idx].window = m.window();
            self.slot_of.insert(m.id, idx);
            Placement::Reused
        } else {
            let prev_vars = self.problem.num_vars();
            let prev_rows = self.problem.num_constraints();
            let cols = self
                .problem
                .append_block(&self.seg)
                .expect("nonempty block");
            if prev_rows == 0 {
                // First block: create the S·K ring-indexed capacity rows
                // (their right-hand sides are `bound_capacity`'s).
                for _ in 0..self.horizon * self.n_paths {
                    self.problem
                        .add_le_sparse(&[], 0.0)
                        .expect("empty shared row");
                }
            }
            let in_every_slot = |per_slot: Vec<(usize, f64)>| -> Vec<(usize, f64)> {
                let shifted = |i| {
                    per_slot
                        .iter()
                        .map(move |&(j, v)| (cols.start + i * n + j, v))
                };
                (0..len).flat_map(shifted).collect()
            };
            let cost_row = has_cost.then(|| {
                let entries = in_every_slot(m.model.cost_triplets().collect());
                self.problem
                    .add_le_sparse(&entries, m.flow().cost_budget() / m.flow().data_rate())
                    .expect("valid cost row");
                self.problem.num_constraints() - 1
            });
            let floor_row = has_floor.then(|| {
                let entries = in_every_slot(m.model.quality_triplets().collect());
                self.problem
                    .add_ge_sparse(&entries, m.flow().min_quality())
                    .expect("valid floor row");
                self.problem.num_constraints() - 1
            });
            let balance_start = self.problem.num_constraints();
            let carry_base = cols.start + len * n;
            for i in 0..len {
                let mut entries: Vec<(usize, f64)> =
                    (0..n).map(|j| (cols.start + i * n + j, 1.0)).collect();
                // Sparse rows want ascending columns: carry-in (slot
                // boundary i-1) sits below carry-out (boundary i).
                if carry > 0 && i >= 1 {
                    entries.push((carry_base + i - 1, -1.0));
                }
                if i < carry {
                    entries.push((carry_base + i, 1.0));
                }
                self.problem
                    .add_eq_sparse(&entries, g)
                    .expect("valid balance row");
            }
            let cap_start = self.problem.num_constraints();
            for i in 0..carry {
                self.problem
                    .add_le_sparse(&[(carry_base + i, 1.0)], m.request.buffer() * g)
                    .expect("valid buffer cap row");
            }
            self.slots.push(Slot {
                cols,
                window: m.window(),
                n_combos: n,
                carry,
                cost_row,
                floor_row,
                balance_start,
                cap_start,
                active: true,
            });
            self.slot_of.insert(m.id, self.slots.len() - 1);
            if let Some(basis) = &mut self.basis {
                basis.extend_logical(self.problem.num_constraints());
            }
            Placement::Appended {
                prev_vars,
                prev_rows,
            }
        };
        let start = self.slots[self.slot_of[&m.id]].cols.start;
        let used = |k| local_path_index(m.paths.as_deref(), k).map(|lk| (k, lk));
        for (k, lk) in (0..self.n_paths).filter_map(used) {
            self.seg.clear();
            let weighted = m.model.usage_coeffs(lk).iter().map(|u| volume * u);
            self.seg.extend(weighted);
            for (i, s) in m.window().slots().enumerate() {
                let row = self.cap_row(s, k);
                self.problem
                    .set_row_range(row, start + i * n, &self.seg)
                    .expect("shared segment fits");
            }
        }
        placement
    }

    /// Tombstones a flow's slot: objective and capacity-row segments
    /// zeroed, every balance RHS `1/L → 0` (with the floor and cap RHS
    /// relaxed to 0), which forces every variable of the block to zero —
    /// the balance rows telescope to `Σx = 0` — while every row and
    /// column stays where it is (the carried basis is left alone: the
    /// next solve validates it). A flow the assembly does not hold is a
    /// no-op.
    fn deactivate(&mut self, id: FlowId) {
        let Some(idx) = self.slot_of.remove(&id) else {
            return;
        };
        let slot = self.slots[idx].clone();
        self.seg.clear();
        self.seg.resize(slot.cols.len(), 0.0);
        self.problem
            .set_objective_range(slot.cols.start, &self.seg)
            .expect("objective segment fits");
        for (i, s) in slot.window.slots().enumerate() {
            for k in 0..self.n_paths {
                let row = self.cap_row(s, k);
                self.problem
                    .set_row_range(row, slot.combo_start(i), &self.seg[..slot.n_combos])
                    .expect("shared segment fits");
            }
        }
        for row in slot.forced_rows() {
            self.set_rhs(row, 0.0);
        }
        self.slots[idx].active = false;
    }

    /// Rolls a tentative placement back. Appended placements **must** be
    /// rolled back in reverse order of placement — truncating a block
    /// from the middle would shift every later slot's rows and columns
    /// under the slot table — so anything else is a checked error (a
    /// release build must not sail past it and corrupt the assembly);
    /// the core drops the assembly when it fires.
    fn rollback(&mut self, id: FlowId, placement: Placement) -> Result<(), FleetError> {
        match placement {
            Placement::Appended {
                prev_vars,
                prev_rows,
            } => {
                let idx = self.slot_of.get(&id).copied();
                if idx.map(|i| i + 1) != Some(self.slots.len()) {
                    return Err(FleetError::Invalid(format!(
                        "rollback out of order: {id} holds slot {idx:?}, not the last of {} slots",
                        self.slots.len()
                    )));
                }
                self.problem.truncate_rows(prev_rows);
                self.problem.truncate_vars(prev_vars);
                if let Some(basis) = &mut self.basis {
                    basis.truncate(prev_rows);
                }
                self.slots.pop();
                self.slot_of.remove(&id);
            }
            Placement::Reused => self.deactivate(id),
        }
        Ok(())
    }

    /// Writes every capacity row's right-hand side: `b_k(s)` for each slot
    /// `s` of the grid and path `k`, zero in a maintenance window.
    fn bound_capacity(
        &mut self,
        grid: &TimeGrid,
        paths: &[SharedPath],
        maintenance: &BTreeSet<(u64, usize)>,
    ) {
        for s in grid.origin()..grid.end() {
            for (k, path) in paths.iter().enumerate() {
                let open = !maintenance.contains(&(s, k));
                self.set_rhs(self.cap_row(s, k), if open { path.bandwidth } else { 0.0 });
            }
        }
    }
}

/// What an offer asks the joint LP for (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Goal {
    /// The optimum: every resident's plan is refreshed from it.
    Optimal,
    /// A verdict: the first feasible vertex, no incumbent's plan moves,
    /// and a [`JointCore::refresh`] is due.
    Feasible,
}

/// The joint-LP core one planner owns: the shared paths and grid, the
/// roster of resident flows, the per-flow model builder, the maintained
/// [`Assembly`] (LP and carried basis) and the solver scratch.
#[derive(Debug)]
pub(crate) struct JointCore {
    pub(crate) config: FleetConfig,
    /// The roster — who is in the LP — in admission order.
    flows: Vec<Resident>,
    /// The next [`FlowId`] an offer consumes.
    next_id: u64,
    pub(crate) grid: TimeGrid,
    pub(crate) paths: Vec<SharedPath>,
    /// Zero-capacity (slot, path) pairs — scheduled maintenance.
    pub(crate) maintenance: BTreeSet<(u64, usize)>,
    /// Builds per-flow coefficient models (never solves).
    flow_planner: Planner,
    /// Joint-LP scratch memory, reused across solves.
    workspace: Workspace,
    /// Solves that had a carried basis to start from.
    warm_attempts: u64,
    /// Those that did start from it (refusals reached warm included).
    warm_hits: u64,
    /// Cold re-solves forced by a warm-start anomaly (singular basis or
    /// pivot-cap abort on the warm path).
    warm_anomalies: u64,
    /// `None` until the first solve and whenever the core has dropped it.
    assembly: Option<Assembly>,
    /// Objective value of the last successful optimal solve (0 when
    /// empty).
    last_objective: f64,
    /// Whether the roster or its models changed since the last optimal
    /// solve, so plans and `last_objective` may not describe it.
    stale: bool,
}

impl JointCore {
    /// A core over `paths` and `grid`. Rejects an empty path set and
    /// paths whose delay distribution has a non-finite mean. If
    /// `config.planner.solver.obs` is disabled, `config.obs` is
    /// propagated into it so the `lp.*` metrics land in the same
    /// snapshot.
    pub(crate) fn new(
        paths: Vec<ScenarioPath>,
        grid: TimeGrid,
        mut config: FleetConfig,
    ) -> Result<Self, FleetError> {
        if paths.is_empty() {
            return Err(FleetError::Invalid(
                "a fleet needs at least one shared path".into(),
            ));
        }
        if let Some(k) = paths.iter().position(|p| !p.delay().mean().is_finite()) {
            return Err(FleetError::Invalid(format!(
                "shared path {k} has a non-finite mean delay"
            )));
        }
        let bandwidth = |p: &ScenarioPath| check_scale("bandwidth", p.bandwidth());
        paths.iter().try_for_each(bandwidth)?;
        if config.obs.is_enabled() && !config.planner.solver.obs.is_enabled() {
            config.planner.solver.obs = config.obs.clone();
        }
        let shared = |p: ScenarioPath| SharedPath {
            bandwidth: p.bandwidth(),
            loss: p.loss(),
            failed: false,
            base: p,
        };
        Ok(JointCore {
            flow_planner: Planner::with_config(config.planner.clone()),
            config,
            flows: Vec::new(),
            next_id: 0,
            grid,
            paths: paths.into_iter().map(shared).collect(),
            maintenance: BTreeSet::new(),
            workspace: Workspace::new(),
            warm_attempts: 0,
            warm_hits: 0,
            warm_anomalies: 0,
            assembly: None,
            last_objective: 0.0,
            stale: false,
        })
    }

    /// A link change, whole: validates it, applies it to the shared path,
    /// rebuilds every resident's model against the changed paths and
    /// forgets the assembly built from the old ones. Every plan is
    /// rebuilt against its new model on the spot, so a plan the next
    /// solve leaves standing (its block did not move) is already current,
    /// and so is every plan when that solve fails. A failed path plans as
    /// loss 1; a [`LinkChange::SetLoss`] plans against the model's
    /// stationary loss rate.
    pub(crate) fn apply_link_change(
        &mut self,
        path: usize,
        change: &LinkChange,
    ) -> Result<(), FleetError> {
        let n_paths = self.paths.len();
        let Some(shared) = self.paths.get_mut(path) else {
            return Err(FleetError::Invalid(format!(
                "path index {path} out of range ({n_paths} shared paths)"
            )));
        };
        match change {
            LinkChange::Fail => shared.failed = true,
            LinkChange::Recover => shared.failed = false,
            LinkChange::SetBandwidth(bps) => {
                check_scale("bandwidth", *bps)?;
                shared.bandwidth = *bps;
            }
            LinkChange::SetLoss(model) => {
                model.validate().map_err(FleetError::Invalid)?;
                shared.loss = model.stationary_loss();
            }
        }
        self.assembly = None;
        self.stale = true;
        let mut flows = std::mem::take(&mut self.flows);
        let rebuilt = flows.iter_mut().try_for_each(|r| {
            r.remodel(self.member(r.member.id, r.member.request.clone())?);
            Ok(())
        });
        self.flows = flows;
        rebuilt
    }

    /// The effective shared paths (failed paths appear with loss 1).
    pub(crate) fn shared_paths(&self) -> Result<Vec<ScenarioPath>, FleetError> {
        self.paths.iter().map(SharedPath::effective).collect()
    }

    /// A candidate: `request` under `id`, modelled over the shared paths it
    /// names less those the door rule leaves out — a path of bandwidth
    /// `b_k < λ_f·`[`TOLERANCE`] carries at most a tolerance-sized fraction
    /// of the flow, whose coefficient would push every other one in its
    /// capacity row under the solver's tolerance. With no path left the
    /// flow plans on the blackhole alone, over one stand-in (the first
    /// path it names, failed) in no capacity row: refused with a floor,
    /// admitted at quality 0 without.
    pub(crate) fn member(
        &mut self,
        id: FlowId,
        request: ScheduleRequest,
    ) -> Result<Member, FleetError> {
        let flow = request.flow();
        let n = self.paths.len();
        if let Some(&bad) = flow.paths().and_then(|s| s.iter().find(|&&k| k >= n)) {
            return Err(FleetError::Invalid(format!(
                "flow path index {bad} out of range ({n} shared paths)"
            )));
        }
        check_combos(flow.paths().map_or(n, <[usize]>::len), flow.transmissions())?;
        check_request_scale(flow)?;
        let all: Vec<usize> = (0..n).collect();
        let named = flow.paths().unwrap_or(&all);
        let carries = |k: &usize| flow.data_rate() * TOLERANCE <= self.paths[*k].bandwidth;
        let usable: Vec<usize> = named.iter().copied().filter(carries).collect();
        let mut chosen: Vec<SharedPath> = usable.iter().map(|&k| self.paths[k].clone()).collect();
        if chosen.is_empty() {
            chosen.push(self.paths[named[0]].clone());
            chosen[0].failed = true;
        }
        let flow_paths: Result<Vec<_>, _> = chosen.iter().map(SharedPath::effective).collect();
        let mut builder = Scenario::builder()
            .paths(flow_paths?)
            .data_rate(flow.data_rate())
            .lifetime(flow.lifetime())
            .transmissions(flow.transmissions());
        if flow.cost_budget().is_finite() {
            builder = builder.cost_budget(flow.cost_budget());
        }
        let scenario = builder.build().map_err(FleetError::Spec)?;
        Ok(Member {
            id,
            paths: (flow.paths().is_some() || usable.len() < n).then_some(usable),
            model: self.flow_planner.model(&scenario),
            request,
        })
    }

    /// Consumes the next flow id (ids are offer-ordered).
    pub(crate) fn next_id(&mut self) -> FlowId {
        self.next_id += 1;
        FlowId::new(self.next_id - 1)
    }

    /// The residents, in admission order.
    pub(crate) fn residents(&self) -> &[Resident] {
        &self.flows
    }

    /// The residents' ids, in admission order.
    pub(crate) fn ids(&self) -> Vec<FlowId> {
        self.flows.iter().map(|r| r.member.id).collect()
    }

    /// The resident with this id, if any.
    pub(crate) fn resident(&self, id: FlowId) -> Option<&Resident> {
        self.flows.iter().find(|r| r.member.id == id)
    }

    /// Offers one candidate for `goal`: it becomes the last resident or,
    /// when no allocation meets every floor with it, is handed back with
    /// the LP and the incumbents untouched.
    pub(crate) fn admit(
        &mut self,
        member: Member,
        goal: Goal,
    ) -> Result<Result<(), Member>, FleetError> {
        let verdict = self.admit_all(vec![member], goal)?;
        Ok(verdict.map_err(|mut back| back.pop().expect("the one candidate comes back")))
    }

    /// Offers a batch in **one** solve for `goal`: all become residents,
    /// in order, or none does and the batch is handed back.
    pub(crate) fn admit_all(
        &mut self,
        batch: Vec<Member>,
        goal: Goal,
    ) -> Result<Result<(), Vec<Member>>, FleetError> {
        match self.solve(batch, goal) {
            Ok(()) => Ok(Ok(())),
            Err((SolveError::Infeasible { .. }, back)) => Ok(Err(back)),
            Err((e, _)) => Err(FleetError::Solve(e)),
        }
    }

    /// Takes a flow off the roster and tombstones its block. The caller
    /// re-solves once it has removed everyone who leaves.
    pub(crate) fn remove(&mut self, id: FlowId) -> Option<Resident> {
        let pos = self.flows.iter().position(|r| r.member.id == id)?;
        if let Some(assembly) = self.assembly.as_mut() {
            assembly.deactivate(id);
        }
        self.stale = true;
        Some(self.flows.remove(pos))
    }

    /// Re-solves over the residents alone and refreshes their plans.
    pub(crate) fn resolve(&mut self) -> Result<(), SolveError> {
        self.solve(Vec::new(), Goal::Optimal).map_err(|(e, _)| e)
    }

    /// Ends a sequence of feasibility admissions (and removals): one
    /// optimal solve for the roster as it now stands, if it changed since
    /// the last one, so every plan describes it again.
    pub(crate) fn refresh(&mut self) -> Result<(), SolveError> {
        if self.stale {
            self.resolve()?;
        }
        Ok(())
    }

    /// Empties the roster and drops the assembly; the evicted come
    /// back in re-admission order — highest priority first, admission
    /// order within ties — for the caller to offer again one by one.
    pub(crate) fn evict_all(&mut self) -> Vec<Resident> {
        self.assembly = None;
        self.stale = true;
        let mut evicted = std::mem::take(&mut self.flows);
        evicted.sort_by(|a, b| {
            readmission_order(
                (a.member.flow(), a.member.id),
                (b.member.flow(), b.member.id),
            )
        });
        evicted
    }

    /// `(all, tombstoned)` slot counts of the current assembly.
    pub(crate) fn slot_counts(&self) -> (usize, usize) {
        let assembly = self.assembly.as_ref();
        assembly.map_or((0, 0), |a| (a.slots.len(), a.slots.len() - a.slot_of.len()))
    }

    /// Solves the joint LP over the roster plus the tentative `extras`,
    /// for `goal`. On success the extras join the roster, in order, each
    /// with its slice of the new `x` and the plan of that slice; an
    /// optimal solve also moves every resident to its new slice and
    /// clears the staleness a feasibility solve sets. With no flows at
    /// all there is nothing to solve.
    ///
    /// On *any* error — infeasibility included — the extras' placements
    /// are rolled back and the extras handed back, so a refused
    /// candidate leaves no trace.
    fn solve(&mut self, extras: Vec<Member>, goal: Goal) -> Result<(), (SolveError, Vec<Member>)> {
        debug_assert!(
            self.assembly.as_ref().is_none_or(|a| {
                let resident = |r: &Resident| a.slot_of.contains_key(&r.member.id);
                a.slot_of.len() == self.flows.len() && self.flows.iter().all(resident)
            }),
            "the assembly's live blocks are not the roster's"
        );
        // Compaction.
        let (slots, tombstoned) = self.slot_counts();
        if slots >= COMPACT_MIN_SLOTS && tombstoned > self.flows.len() {
            self.assembly = None;
        }
        if self.flows.is_empty() && extras.is_empty() {
            self.last_objective = 0.0;
            self.stale = false;
            return Ok(());
        }
        let mut assembly = self.assembly.take().unwrap_or_else(|| {
            let objective = self.config.objective;
            let mut fresh = Assembly::new(objective, self.grid.horizon(), self.paths.len());
            for r in &self.flows {
                fresh.place(&r.member);
            }
            fresh
        });
        let placements: Vec<Placement> = extras.iter().map(|m| assembly.place(m)).collect();
        assembly.bound_capacity(&self.grid, &self.paths, &self.maintenance);
        match self.solve_joint_problem(&assembly.problem, &mut assembly.basis, goal) {
            Ok(solution) => {
                let x = solution.into_x();
                let slice = |id: FlowId| &x[assembly.slots[assembly.slot_of[&id]].cols.clone()];
                if goal == Goal::Optimal {
                    self.last_objective = assembly.problem.objective_value(&x);
                    for r in &mut self.flows {
                        r.refresh_from(slice(r.member.id));
                    }
                }
                self.stale = goal == Goal::Feasible;
                for member in extras {
                    let block = slice(member.id).to_vec();
                    let plan = Resident::plan_for(&member, &block);
                    self.flows.push(Resident {
                        member,
                        plan,
                        block,
                    });
                }
                self.assembly = Some(assembly);
                debug_assert!(
                    self.slot_counts().0 <= 2 * self.flows.len() + COMPACT_MIN_SLOTS,
                    "compaction let tombstones pile up"
                );
                Ok(())
            }
            Err(e) => {
                // Reverse order, so appended blocks truncate cleanly. An
                // inconsistent rollback drops the assembly rather than
                // patch shifted row indices in place.
                let clean = extras
                    .iter()
                    .zip(placements)
                    .rev()
                    .all(|(m, p)| assembly.rollback(m.id, p).is_ok());
                self.assembly = clean.then_some(assembly);
                Err((e, extras))
            }
        }
    }

    /// Solves an assembled joint problem for `goal` from the carried
    /// `basis` (cold without one) and, on success, replaces it with the
    /// basis of the vertex found. On a verdict (`Infeasible`) it is left
    /// as handed in, for the caller's rollback to undo its edits.
    fn solve_joint_problem(
        &mut self,
        problem: &Problem,
        basis: &mut Option<Basis>,
        goal: Goal,
    ) -> Result<dmc_lp::Solution, SolveError> {
        let opts = &self.config.planner.solver;
        let obs = &self.config.obs;
        let warm_start = self.config.planner.warm_start;
        let run = |workspace: &mut Workspace, start: Option<&Basis>| match (goal, start) {
            (Goal::Feasible, _) => problem.find_feasible_with(opts, workspace, start),
            (Goal::Optimal, Some(start)) => problem.solve_warm_with(opts, workspace, start),
            (Goal::Optimal, None) => problem.solve_with(opts, workspace),
        };
        let carried = basis.take().filter(|_| warm_start);
        let mut solution = match &carried {
            Some(start) => {
                self.warm_attempts += 1;
                let result = run(&mut self.workspace, Some(start));
                // Asked of the workspace, not the `Solution`: a refusal
                // reached from the incumbents' vertex is a warm solve.
                if self.workspace.started_warm() {
                    self.warm_hits += 1;
                    obs.counter("fleet.warm_hits").inc();
                } else {
                    obs.counter("fleet.warm_misses").inc();
                }
                match result {
                    Err(e) if SolveStatus::of_error(&e).is_anomaly() => {
                        // A singular basis or a pivot-cap abort on the
                        // warm path is a numerical anomaly, not a
                        // verdict about the problem: drop the incumbent
                        // basis and re-solve cold. The incumbents keep
                        // their last-known-good plans unless the cold
                        // solve succeeds (plans are only refreshed from a
                        // successful solution).
                        self.warm_anomalies += 1;
                        obs.counter("fleet.warm_anomalies").inc();
                        run(&mut self.workspace, None)?
                    }
                    Err(e) => {
                        *basis = carried;
                        return Err(e);
                    }
                    Ok(s) => s,
                }
            }
            None => run(&mut self.workspace, None)?,
        };
        // The decomposition path replays the feasibility certificate in
        // debug builds (and in release when [`FleetConfig::certify`] is
        // set): every per-flow plan descends from this x, so a bogus
        // vertex here would silently corrupt the whole fleet.
        if cfg!(debug_assertions) || self.config.certify {
            solution
                .certify(problem)
                .expect("joint LP solution failed its feasibility certificate");
        }
        if warm_start {
            *basis = solution.take_basis();
        }
        Ok(solution)
    }

    /// Objective value of the last successful joint solve (0 when empty).
    pub(crate) fn objective_value(&self) -> f64 {
        self.last_objective
    }

    /// Warm-start counters of the joint solves: of those that had a
    /// carried basis, how many started from it.
    pub(crate) fn warm_stats(&self) -> WarmStats {
        WarmStats {
            hits: self.warm_hits,
            misses: self.warm_attempts - self.warm_hits,
        }
    }

    /// Cold re-solves forced by a warm-start anomaly.
    pub(crate) fn warm_anomalies(&self) -> u64 {
        self.warm_anomalies
    }

    /// Whether a basis is being carried (0 or 1).
    pub(crate) fn cached_bases(&self) -> usize {
        usize::from(self.assembly.as_ref().is_some_and(|a| a.basis.is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense from-scratch oracle for the instant (`S = 1`, `L = 1`,
    /// no carry) joint LP — the pre-incremental assembly, kept to pin
    /// what a freshly placed [`Assembly`] must equal.
    ///
    /// Row order matters twice over: with one floor-free flow the
    /// sequence — shared capacity rows first (one per path, like the
    /// single-flow planner), then the flow's cost/floor rows and its
    /// `Σx = 1` — is exactly the row order of `Planner::plan(_,
    /// MaxQuality)` (single-flow parity), and with many flows the
    /// per-flow rows are grouped *per flow* in admission order, which is
    /// precisely the layout the assembly maintains.
    fn assemble_joint(
        objective: FleetObjective,
        paths: &[SharedPath],
        entries: &[&Member],
    ) -> Problem {
        let total_vars: usize = entries.iter().map(|e| e.model.num_combos()).sum();
        let mut c = Vec::with_capacity(total_vars);
        for e in entries {
            let w = match objective {
                FleetObjective::WeightedFair => e.flow().priority(),
                FleetObjective::MaxAdmitted | FleetObjective::MaxTotalQuality => 1.0,
            };
            let weight = w * e.flow().data_rate();
            c.extend(e.model.quality_coeffs().iter().map(|p| weight * p));
        }
        let mut lp = Problem::maximize(c);
        // Shared capacity rows in bit/s: Σ_f λ_f·usage_f,k · x^f ≤ b_k. A
        // flow restricted to a path subset has a structurally zero segment
        // in the rows of the paths it does not use.
        for (k, path) in paths.iter().enumerate() {
            let mut row = Vec::with_capacity(total_vars);
            for e in entries {
                let rate = e.flow().data_rate();
                match local_path_index(e.paths.as_deref(), k) {
                    Some(lk) => row.extend(e.model.usage_coeffs(lk).iter().map(|u| rate * u)),
                    None => row.extend(std::iter::repeat_n(0.0, e.model.num_combos())),
                }
            }
            lp.add_le(row, path.bandwidth).expect("dimensions match");
        }
        // Per-flow blocks: cost budget, quality floor, Σx = 1 — grouped per
        // flow, like the assembly appends them.
        let mut offset = 0;
        let mut block_starts = Vec::with_capacity(entries.len());
        for e in entries {
            let n = e.model.num_combos();
            block_starts.push(offset);
            if e.flow().cost_budget().is_finite() {
                let mut row = vec![0.0; total_vars];
                row[offset..offset + n].copy_from_slice(e.model.cost_coeffs());
                lp.add_le(row, e.flow().cost_budget() / e.flow().data_rate())
                    .expect("dimensions match");
            }
            if e.flow().min_quality() > 0.0 {
                let mut row = vec![0.0; total_vars];
                row[offset..offset + n].copy_from_slice(e.model.quality_coeffs());
                lp.add_ge(row, e.flow().min_quality())
                    .expect("dimensions match");
            }
            let mut row = vec![0.0; total_vars];
            for v in &mut row[offset..offset + n] {
                *v = 1.0;
            }
            lp.add_eq(row, 1.0).expect("dimensions match");
            offset += n;
        }
        lp.set_block_starts(block_starts)
            .expect("block starts are sorted and in range");
        lp
    }

    /// A candidate over `window`, with the next id and a fresh model.
    fn candidate(core: &mut JointCore, flow: FlowRequest, window: SlotWindow) -> Member {
        let id = core.next_id();
        core.member(id, ScheduleRequest::new(flow, window)).unwrap()
    }

    fn core(horizon: usize, objective: FleetObjective) -> JointCore {
        JointCore::new(
            vec![
                ScenarioPath::constant(80e6, 0.450, 0.2).unwrap(),
                ScenarioPath::constant(20e6, 0.150, 0.0).unwrap(),
                ScenarioPath::constant(30e6, 0.250, 0.05).unwrap(),
            ],
            TimeGrid::new(1.0, horizon).unwrap(),
            FleetConfig {
                objective,
                ..FleetConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn a_freshly_placed_assembly_equals_the_dense_oracle() {
        for objective in [FleetObjective::MaxAdmitted, FleetObjective::WeightedFair] {
            let mut core = core(1, objective);
            // Floor only; cost + floor + priority; path-restricted and
            // narrow (m = 1); plain best effort.
            let requests = [
                FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.8),
                FlowRequest::new(15e6, 1.0)
                    .unwrap()
                    .with_min_quality(0.5)
                    .with_cost_budget(2.0)
                    .with_priority(3.0),
                FlowRequest::new(12e6, 0.6)
                    .unwrap()
                    .with_paths(vec![1, 2])
                    .with_transmissions(1),
                FlowRequest::new(20e6, 0.6).unwrap(),
            ];
            let members: Vec<Member> = requests
                .into_iter()
                .map(|r| candidate(&mut core, r, SlotWindow::instant(0)))
                .collect();
            let mut assembly = Assembly::new(objective, 1, core.paths.len());
            for m in &members {
                assembly.place(m);
            }
            assembly.bound_capacity(&core.grid, &core.paths, &core.maintenance);
            let entries: Vec<&Member> = members.iter().collect();
            let oracle = assemble_joint(objective, &core.paths, &entries);
            // Objective, every constraint's coefficients, support, kind and
            // RHS, and the block starts.
            assert_eq!(assembly.problem, oracle, "{objective:?}");
            // And the core's own solve builds exactly that problem.
            let admitted = core.admit_all(members, Goal::Optimal).expect("solves");
            assert!(admitted.is_ok(), "the mixed fleet is feasible");
            let solved = core.assembly.as_ref().expect("kept after a solve");
            assert_eq!(solved.problem, oracle, "{objective:?}");
        }
    }

    /// The dense tableau oracle's optimum of the LP `entries` assemble
    /// from scratch over the core's paths.
    fn tableau_optimum(core: &JointCore, entries: &[&Member]) -> Result<f64, SolveError> {
        let lp = assemble_joint(core.config.objective, &core.paths, entries);
        dmc_lp_oracle::solve(&lp).map(|optimum| optimum.objective)
    }

    /// The core's maintained optimum, held to the tableau's optimum of
    /// the residents' LP assembled from scratch, to 1e-9 of its magnitude.
    #[track_caller]
    fn assert_optimum_is_the_tableaus(core: &JointCore, ctx: &str) {
        let residents: Vec<&Member> = core.residents().iter().map(|r| &r.member).collect();
        let expected = tableau_optimum(core, &residents).expect("the residents fit");
        let got = core.objective_value();
        let bar = 1e-9 * expected.abs().max(1.0);
        assert!(
            (got - expected).abs() <= bar,
            "{ctx}: {got} vs tableau {expected}"
        );
    }

    #[test]
    fn the_maintained_optimum_is_the_tableaus() {
        // Offers (one refused), departures with tombstone reuse and link
        // changes on one core: after every step its optimum is the dense
        // tableau's optimum of the residents' LP built from scratch, and
        // a refused offer is one the tableau cannot fit beside them.
        enum Step {
            Offer(FlowRequest),
            Depart(usize),
            Link(usize, LinkChange),
        }
        let floored = |rate: f64, floor: f64| {
            let flow = FlowRequest::new(rate, 0.8).unwrap();
            flow.with_min_quality(floor)
        };
        let script = [
            Step::Offer(floored(30e6, 0.7)),
            Step::Offer(FlowRequest::new(20e6, 0.6).unwrap()),
            Step::Offer(floored(15e6, 0.5).with_cost_budget(1.0).with_priority(2.0)),
            Step::Depart(0),
            Step::Offer(floored(30e6, 0.7)),
            Step::Offer(floored(90e6, 0.95)),
            Step::Depart(1),
            Step::Link(0, LinkChange::SetBandwidth(50e6)),
            Step::Offer(FlowRequest::new(10e6, 0.9).unwrap().with_transmissions(3)),
            Step::Link(2, LinkChange::Fail),
            Step::Link(2, LinkChange::Recover),
            Step::Offer(
                FlowRequest::new(12e6, 0.7)
                    .unwrap()
                    .with_min_quality(0.4)
                    .with_paths(vec![1, 2]),
            ),
        ];
        for objective in [FleetObjective::MaxAdmitted, FleetObjective::WeightedFair] {
            let mut core = core(1, objective);
            let mut refused = 0;
            for (i, step) in script.iter().enumerate() {
                let ctx = format!("{objective:?}, step {i}");
                match step {
                    Step::Offer(flow) => {
                        let member = candidate(&mut core, flow.clone(), SlotWindow::instant(0));
                        if let Err(back) = core.admit(member, Goal::Optimal).expect("solves") {
                            let mut beside: Vec<&Member> =
                                core.residents().iter().map(|r| &r.member).collect();
                            beside.push(&back);
                            let verdict = tableau_optimum(&core, &beside);
                            let refuses = matches!(verdict, Err(SolveError::Infeasible { .. }));
                            assert!(refuses, "{ctx}: the tableau fits it: {verdict:?}");
                            refused += 1;
                        }
                    }
                    Step::Depart(k) => {
                        let id = core.ids()[k % core.ids().len()];
                        assert!(core.remove(id).is_some());
                        core.resolve().expect("the survivors fit");
                    }
                    Step::Link(path, change) => {
                        core.apply_link_change(*path, change).expect("valid change");
                        core.refresh().expect("the residents still fit");
                    }
                }
                assert_optimum_is_the_tableaus(&core, &ctx);
            }
            assert_eq!(refused, 1, "{objective:?}: the script refuses one offer");
        }
    }

    #[test]
    fn out_of_order_rollback_is_a_checked_error() {
        let mut core = core(1, FleetObjective::MaxAdmitted);
        let now = SlotWindow::instant(0);
        let a = candidate(&mut core, FlowRequest::new(10e6, 0.5).unwrap(), now);
        let b = candidate(&mut core, FlowRequest::new(20e6, 0.7).unwrap(), now);
        let mut assembly = Assembly::new(FleetObjective::MaxAdmitted, 1, 3);
        let place_a = assembly.place(&a);
        let place_b = assembly.place(&b);
        // Rolling the *first* appended block back while the second still
        // exists would truncate the wrong rows; it must fail loudly (it
        // was a debug_assert before, so release builds corrupted the
        // assembly silently).
        assert!(matches!(
            assembly.rollback(a.id, place_a),
            Err(FleetError::Invalid(_))
        ));
        // Reverse placement order unwinds cleanly.
        assert!(assembly.rollback(b.id, place_b).is_ok());
        assert!(assembly.rollback(a.id, place_a).is_ok());
        assert!(assembly.slots.is_empty());
    }

    #[test]
    fn tombstoned_blocks_are_reused_across_churn() {
        let mut core = core(4, FleetObjective::MaxAdmitted);
        let windowed = |core: &mut JointCore| {
            let request = FlowRequest::new(20e6, 0.8).unwrap();
            candidate(core, request, SlotWindow::new(1, 3).unwrap())
        };
        let num_vars = |core: &JointCore| core.assembly.as_ref().unwrap().problem.num_vars();
        let first = windowed(&mut core);
        assert!(core.admit(first, Goal::Optimal).expect("offer").is_ok());
        let vars_before = num_vars(&core);
        assert!(core.remove(FlowId::new(0)).is_some());
        assert_eq!(core.slot_counts(), (1, 1));
        let second = windowed(&mut core);
        assert!(core.admit(second, Goal::Optimal).expect("offer").is_ok());
        assert_eq!(
            vars_before,
            num_vars(&core),
            "an equivalent flow must take the tombstoned block over in place"
        );
        assert_eq!(core.slot_counts(), (1, 0));
    }

    #[test]
    fn the_roster_and_the_assembly_move_together() {
        let mut core = core(1, FleetObjective::MaxAdmitted);
        let now = SlotWindow::instant(0);
        let strict = |rate: f64| {
            let flow = FlowRequest::new(rate, 0.8).unwrap();
            flow.with_min_quality(0.9)
        };
        let ids = |core: &JointCore| -> Vec<u64> { core.ids().iter().map(FlowId::index).collect() };
        // Admit: the candidate becomes the last resident, with its plan.
        let a = candidate(&mut core, strict(70e6), now);
        let admitted = core.admit(a, Goal::Optimal).expect("solves");
        assert!(admitted.is_ok(), "fits alone");
        let plan = &core.resident(FlowId::new(0)).unwrap().plan;
        assert!(plan.quality() >= 0.9 - 1e-9);
        assert_eq!((ids(&core), core.slot_counts()), (vec![0], (1, 0)));
        // A refused candidate comes back intact and leaves no block.
        let b = candidate(&mut core, strict(70e6).with_priority(2.0), now);
        let (flow_b, combos_b) = (b.flow().clone(), b.model.num_combos());
        let back = core
            .admit(b, Goal::Optimal)
            .expect("solves")
            .expect_err("does not fit");
        assert_eq!((back.id, back.flow()), (FlowId::new(1), &flow_b));
        assert_eq!(back.model.num_combos(), combos_b);
        assert_eq!((ids(&core), core.slot_counts()), (vec![0], (1, 0)));
        // A batch is refused whole, in the order it was offered — the
        // one member that would have fitted alone included.
        let small = candidate(&mut core, strict(10e6), now);
        let batch = core
            .admit_all(vec![small, back], Goal::Optimal)
            .expect("solves");
        let batch = batch.expect_err("the pair does not fit");
        let offered: Vec<u64> = batch.iter().map(|m| m.id.index()).collect();
        assert_eq!(offered, [2, 1]);
        assert_eq!((ids(&core), core.slot_counts()), (vec![0], (1, 0)));
        // Remove: off the roster, the block a tombstone, once.
        let a = core.remove(FlowId::new(0)).expect("resident");
        assert!(core.remove(FlowId::new(0)).is_none());
        assert_eq!((ids(&core), core.slot_counts()), (vec![], (1, 1)));
        core.resolve().expect("nothing left to solve");
        // The refused pair fits now; the strict flow takes the tombstone.
        assert!(core
            .admit_all(batch, Goal::Optimal)
            .expect("solves")
            .is_ok());
        assert_eq!((ids(&core), core.slot_counts()), (vec![2, 1], (2, 0)));
        // Evict: everyone comes back, priority first, and the assembly
        // is forgotten; re-admitted one by one on verdicts they are
        // residents again, and one refresh gives them the optimum's plans.
        let optimum = core.objective_value();
        let evicted = core.evict_all();
        let order: Vec<u64> = evicted.iter().map(|r| r.member.id.index()).collect();
        assert_eq!(order, [1, 2]);
        assert_eq!((ids(&core), core.slot_counts()), (vec![], (0, 0)));
        for resident in evicted {
            assert!(core
                .admit(resident.member, Goal::Feasible)
                .expect("solves")
                .is_ok());
        }
        assert!(core
            .admit(a.member, Goal::Feasible)
            .expect("solves")
            .is_err());
        assert_eq!((ids(&core), core.slot_counts()), (vec![1, 2], (2, 0)));
        assert!(core.stale);
        core.refresh().expect("the pair fits");
        assert!(!core.stale);
        // The same roster in another order: the same optimum.
        assert!((core.objective_value() - optimum).abs() <= 1e-9 * optimum);
        for r in core.residents() {
            assert!(r.plan.quality() >= 0.9 - 1e-9);
        }
    }

    /// Every column's coefficients as bits — its objective entry, then
    /// its `(row, value)` entries in row order — and every capacity row's
    /// right-hand side.
    type Coefficients = (Vec<(u64, Vec<(usize, u64)>)>, Vec<u64>);

    fn coefficients(core: &JointCore) -> Coefficients {
        let problem = &core.assembly.as_ref().expect("assembled").problem;
        let objective = problem.objective().into_iter();
        let mut columns: Vec<_> = objective.map(|c| (c.to_bits(), Vec::new())).collect();
        for (i, row) in problem.constraints().iter().enumerate() {
            for (&j, v) in row.support().iter().zip(row.values()) {
                columns[j as usize].1.push((i, v.to_bits()));
            }
        }
        let capacity = &problem.constraints()[..core.grid.horizon() * core.paths.len()];
        let rhs = capacity.iter().map(|c| c.rhs().to_bits()).collect();
        (columns, rhs)
    }

    /// Every column both snapshots hold outside `own`, and every capacity
    /// right-hand side, kept its bits.
    #[track_caller]
    fn assert_only_edited(before: &Coefficients, after: &Coefficients, own: Range<usize>) {
        assert_eq!(before.1, after.1, "a capacity right-hand side moved");
        let shared = before.0.len().min(after.0.len());
        for j in (0..shared).filter(|j| !own.contains(j)) {
            assert_eq!(before.0[j], after.0[j], "column {j} moved");
        }
    }

    #[test]
    fn an_admission_edits_only_its_own_columns() {
        let mut core = core(3, FleetObjective::WeightedFair);
        let window = |start, end| SlotWindow::new(start, end).unwrap();
        let cols_of = |core: &JointCore, id: FlowId| {
            let assembly = core.assembly.as_ref().unwrap();
            assembly.slots[assembly.slot_of[&id]].cols.clone()
        };
        let costed = |rate: f64, floor: f64| {
            let flow = FlowRequest::new(rate, 0.8).unwrap().with_cost_budget(2.0);
            flow.with_min_quality(floor)
        };
        let residents = [
            (
                FlowRequest::new(30e6, 0.8).unwrap().with_min_quality(0.5),
                window(0, 2),
            ),
            (costed(20e6, 0.3).with_priority(2.0), window(1, 3)),
            (
                FlowRequest::new(10e6, 0.6).unwrap().with_paths(vec![1, 2]),
                SlotWindow::instant(0),
            ),
        ];
        for (flow, window) in residents {
            let member = candidate(&mut core, flow, window);
            assert!(core.admit(member, Goal::Optimal).expect("solves").is_ok());
        }
        // An appended block, buffered over the whole horizon.
        let before = coefficients(&core);
        let flow = FlowRequest::new(15e6, 0.8).unwrap();
        let member = candidate(&mut core, flow, window(0, 3));
        let member = Member {
            request: member.request.with_buffer(0.5),
            ..member
        };
        let id = member.id;
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_ok());
        assert_only_edited(&before, &coefficients(&core), cols_of(&core, id));
        // A refused append is truncated away: nothing moved at all.
        let before = coefficients(&core);
        let hopeless = FlowRequest::new(500e6, 0.8).unwrap().with_min_quality(1.0);
        let member = candidate(&mut core, hopeless.with_transmissions(1), window(2, 3));
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_err());
        assert_eq!(before, coefficients(&core));
        // A departure tombstones the leaver's block and nothing else.
        let before = coefficients(&core);
        let own = cols_of(&core, FlowId::new(1));
        assert!(core.remove(FlowId::new(1)).is_some());
        assert_only_edited(&before, &coefficients(&core), own.clone());
        // A refused take-over of that tombstone, then an accepted one.
        let before = coefficients(&core);
        let member = candidate(&mut core, costed(500e6, 1.0), window(1, 3));
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_err());
        assert_only_edited(&before, &coefficients(&core), own.clone());
        let before = coefficients(&core);
        let member = candidate(&mut core, costed(25e6, 0.2), window(1, 3));
        let id = member.id;
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_ok());
        assert_eq!(cols_of(&core, id), own, "the tombstone is taken over");
        assert_only_edited(&before, &coefficients(&core), own);
    }

    #[test]
    fn a_flow_no_path_can_carry_plans_on_the_blackhole_alone() {
        let mut core = core(1, FleetObjective::MaxAdmitted);
        let now = SlotWindow::instant(0);
        let flow = |rate: f64, floor: f64| {
            let request = FlowRequest::new(rate, 0.8).unwrap();
            request.with_min_quality(floor)
        };
        // 5e16 bit/s is more than 1e9 times the 20 and 30 Mbit/s paths,
        // not the 80 Mbit/s one.
        let wide = candidate(&mut core, flow(5e16, 0.0), now);
        assert_eq!(wide.paths.as_deref(), Some(&[0][..]));
        // A giant no path can carry: with a floor it is refused; without
        // one it is admitted, delivers nothing and takes no capacity.
        let strict_giant = candidate(&mut core, flow(3e74, 0.1), now);
        assert_eq!(strict_giant.paths.as_deref(), Some(&[][..]));
        assert!(core
            .admit(strict_giant, Goal::Optimal)
            .expect("solves")
            .is_err());
        let giant = candidate(&mut core, flow(3e74, 0.0), now);
        assert!(core.admit(giant, Goal::Optimal).expect("solves").is_ok());
        assert_eq!(core.resident(FlowId::new(2)).unwrap().plan.quality(), 0.0);
        // Beside it the capacity rows still bind: of two strict 70 Mbit/s
        // flows only one fits.
        let first = candidate(&mut core, flow(70e6, 0.9), now);
        assert!(core.admit(first, Goal::Optimal).expect("solves").is_ok());
        let second = candidate(&mut core, flow(70e6, 0.9), now);
        assert!(core.admit(second, Goal::Optimal).expect("solves").is_err());
        // And its departure leaves a feasible fleet.
        assert!(core.remove(FlowId::new(2)).is_some());
        core.resolve().expect("the survivors still fit");
        assert_eq!(core.ids(), [FlowId::new(3)]);
    }

    /// A refresh skips a resident whose block did not move — which is
    /// only sound while its model stands: a link change rebuilds every
    /// model, and every plan with it, at once — even where `x` then
    /// stands still, and before any solve, so a re-solve that fails
    /// leaves every plan and block readable against the new model.
    #[test]
    fn a_link_change_rebuilds_every_plan_even_where_x_stands_still() {
        let mut core = core(1, FleetObjective::MaxAdmitted);
        // 5 Mbit/s on the lossless 20 Mbit/s path alone: capacity never
        // binds, so neither 10 nor 40 Mbit/s there moves its optimum.
        let flow = FlowRequest::new(5e6, 0.8).unwrap().with_paths(vec![1]);
        let member = candidate(&mut core, flow, SlotWindow::instant(0));
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_ok());
        let planned_on = |core: &JointCore| {
            let r = &core.residents()[0];
            (r.block.clone(), r.plan.scenario().paths()[0].bandwidth())
        };
        let (x, bandwidth) = planned_on(&core);
        assert_eq!(bandwidth, 20e6);
        for bps in [40e6, 10e6] {
            core.apply_link_change(1, &LinkChange::SetBandwidth(bps))
                .expect("valid change");
            assert_eq!(planned_on(&core), (x.clone(), bps), "replanned at once");
            core.refresh().expect("still fits");
            assert_eq!(planned_on(&core), (x.clone(), bps), "x stood still");
        }
        // 1e-3 bit/s is under 1e-9 of 5 Mbit/s: the door rule drops path
        // 2 from this flow's model, which shrinks its block. The block is
        // zeroed to the new shape, and every reader can cut it.
        let flow = FlowRequest::new(5e6, 0.8).unwrap().with_paths(vec![0, 2]);
        let member = candidate(&mut core, flow, SlotWindow::instant(0));
        let id = member.id;
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_ok());
        core.apply_link_change(2, &LinkChange::SetBandwidth(1e-3))
            .expect("valid change");
        let bandwidths = |s: &Scenario| s.paths().iter().map(|p| p.bandwidth()).collect::<Vec<_>>();
        for r in core.residents() {
            let n = r.member.model.num_combos();
            assert_eq!(r.slot_x().map(<[f64]>::len).collect::<Vec<_>>(), [n]);
            assert_eq!(r.peak_carry(), 0.0);
            let model = r.member.model.scenario();
            assert_eq!(bandwidths(r.plan.scenario()), bandwidths(model));
        }
        let shrunk = core.resident(id).unwrap();
        assert_eq!(shrunk.member.paths.as_deref(), Some(&[0][..]));
        assert_eq!(
            shrunk.plan.quality(),
            0.0,
            "a zeroed block until the re-solve"
        );
        core.refresh().expect("still fits");
        assert!(core.resident(id).unwrap().plan.quality() > 0.0);
    }
}
