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
//! and records its block as dead in one step; [`JointCore::resolve`]
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
//! fleet) is first removed, and a removed flow's block is cut out before
//! any candidate is placed. A `debug_assert!` at the top of the solve and
//! one at its successful end check it, so every stateful test does.
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
//! Admitting a flow appends its block. Departing only records the block
//! as dead: the top of the next solve, before any candidate is placed,
//! cuts every dead block out in one pass ([`Problem::remove_ranges`]) —
//! its own rows and its columns, which leave the capacity rows with them
//! — and every later row and column moves down. So after every successful
//! solve the LP is exactly the roster's blocks in roster order, across
//! churn and across
//! [`SchedulePlanner::advance_to`](crate::SchedulePlanner::advance_to):
//! the very `Problem` a fresh planner offered the residents as one batch
//! would build (`tests/maintained_vs_fresh.rs` holds the maintained
//! plans to that reference bit for bit). Every coefficient of a block —
//! capacity segments in bit/s, objective weighted by the flow's own
//! volume `λ_f·L_f` — is a function of that flow alone and is written
//! once, when the block is placed: an edit touches its own columns and
//! nothing else. History cannot leak into the numerics, which keeps trace
//! replay and warm-vs-cold comparisons bit-identical. A rejected
//! candidate is rolled back exactly: a solve's candidates are appended
//! after every resident, so one truncation to where the first began
//! undoes them all.
//!
//! The **basis** of the last successful solve is part of the assembly
//! and is edited in step with the LP, so every solve starts from the
//! incumbents' optimal vertex instead of re-deriving it: an appended
//! block's rows enter on their starting logicals (its columns start
//! nonbasic, so the incumbents' basic values do not move and phase 1
//! runs over the candidate's few artificials only); a cut block's rows
//! and columns leave it ([`Basis::remove_ranges`]: exact where the
//! block's columns were basic in its own rows only, and the capacity
//! rows they covered otherwise restart on their logicals); rolling
//! candidates back truncates the basis to what it was. The solver
//! validates what it is handed — infeasible after a departure freed
//! capacity, it is walked back to feasibility by the solver's dual
//! phase; a numerical anomaly on the warm path drops it and retries cold
//! — and phase 3's canonical vertex makes the answer a function of the
//! problem, not of where the pivoting started (bitwise on the instant
//! plane; on large time-expanded LPs ties below the solver's tolerance
//! can leave the per-flow split — never an admission or the joint
//! optimum — path-dependent; see `tests/carried_basis_stateful.rs`).
//!
//! A dead block is cut rather than kept, zeroed, for a later flow of its
//! shape to take over: every pivot, pricing pass and factorization pays
//! for every block the LP holds, and a cut keeps the basis warm where a
//! rebuild would start cold. **When the assembly (basis included) is
//! dropped is decided here and nowhere else**: on a link change (every
//! model changed) and on [`JointCore::evict_all`].
//! `PlannerConfig::warm_start = false` keeps the assembly and carries no
//! basis.
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
use std::collections::BTreeSet;
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

/// One flow's block in the assembly: its `L·n` assignment columns
/// (window-slot-major) plus its carry columns, and its own rows — the
/// optional cost and floor rows, the `L` balance rows and the buffer
/// caps, contiguous after the shared ones.
#[derive(Debug, Clone)]
struct Slot {
    cols: Range<usize>,
    rows: Range<usize>,
}

/// The incrementally maintained joint LP (see the module docs for the
/// layout and how it is edited).
#[derive(Debug)]
struct Assembly {
    problem: Problem,
    /// What a flow's objective segment is weighted by, besides its volume.
    objective: FleetObjective,
    horizon: usize,
    n_paths: usize,
    /// The placed blocks in roster order, then those of the candidates
    /// of a solve in progress.
    slots: Vec<Slot>,
    /// Blocks of departed flows, cut out at the top of the next solve.
    dead: Vec<Slot>,
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
            dead: Vec::new(),
            basis: None,
            seg: Vec::new(),
        }
    }

    /// The capacity row of `(slot, path)`: ring position `slot mod S`.
    fn cap_row(&self, slot: u64, path: usize) -> usize {
        (slot % self.horizon as u64) as usize * self.n_paths + path
    }

    /// Appends a flow's block (with the `S·K` shared capacity rows if it
    /// is the first) and writes every coefficient the flow has, its
    /// objective segment `w·λ·L·p` and its `λ·L·usage_k` segment in the
    /// capacity rows of its window and [`Member::paths`] included.
    fn place(&mut self, m: &Member) {
        let n = m.model.num_combos();
        let len = m.window().len();
        let carry = m.carry_vars();
        let g = 1.0 / len as f64;
        let volume = m.flow().data_rate() * len as f64;
        let weight = match self.objective {
            FleetObjective::WeightedFair => m.flow().priority(),
            FleetObjective::MaxAdmitted | FleetObjective::MaxTotalQuality => 1.0,
        } * volume;
        self.seg.clear();
        for _ in 0..len {
            let objective = m.model.quality_coeffs().iter().map(|p| weight * p);
            self.seg.extend(objective);
        }
        self.seg.resize(self.seg.len() + carry, 0.0);
        let cols = self
            .problem
            .append_block(&self.seg)
            .expect("nonempty block");
        if self.problem.num_constraints() == 0 {
            // First block: create the S·K ring-indexed capacity rows
            // (their right-hand sides are `bound_capacity`'s).
            for _ in 0..self.horizon * self.n_paths {
                self.problem
                    .add_le_sparse(&[], 0.0)
                    .expect("empty shared row");
            }
        }
        let first_row = self.problem.num_constraints();
        let in_every_slot = |per_slot: Vec<(usize, f64)>| -> Vec<(usize, f64)> {
            let shifted = |i| {
                per_slot
                    .iter()
                    .map(move |&(j, v)| (cols.start + i * n + j, v))
            };
            (0..len).flat_map(shifted).collect()
        };
        if m.flow().cost_budget().is_finite() {
            let entries = in_every_slot(m.model.cost_triplets().collect());
            self.problem
                .add_le_sparse(&entries, m.flow().cost_budget() / m.flow().data_rate())
                .expect("valid cost row");
        }
        if m.flow().min_quality() > 0.0 {
            let entries = in_every_slot(m.model.quality_triplets().collect());
            self.problem
                .add_ge_sparse(&entries, m.flow().min_quality())
                .expect("valid floor row");
        }
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
        for i in 0..carry {
            self.problem
                .add_le_sparse(&[(carry_base + i, 1.0)], m.request.buffer() * g)
                .expect("valid buffer cap row");
        }
        let used = |k| local_path_index(m.paths.as_deref(), k).map(|lk| (k, lk));
        for (k, lk) in (0..self.n_paths).filter_map(used) {
            self.seg.clear();
            let weighted = m.model.usage_coeffs(lk).iter().map(|u| volume * u);
            self.seg.extend(weighted);
            for (i, s) in m.window().slots().enumerate() {
                let row = self.cap_row(s, k);
                self.problem
                    .set_row_range(row, cols.start + i * n, &self.seg)
                    .expect("shared segment fits");
            }
        }
        if let Some(basis) = &mut self.basis {
            basis.extend_logical(self.problem.num_constraints());
        }
        let rows = first_row..self.problem.num_constraints();
        self.slots.push(Slot { cols, rows });
    }

    /// Cuts every dead block out of the LP and the carried basis in one
    /// pass, and moves each live block down past the cut ones below it.
    fn cut_dead(&mut self) {
        if self.dead.is_empty() {
            return;
        }
        self.dead.sort_by_key(|d| d.cols.start);
        let rows: Vec<Range<usize>> = self.dead.iter().map(|d| d.rows.clone()).collect();
        let cols: Vec<Range<usize>> = self.dead.iter().map(|d| d.cols.clone()).collect();
        self.problem
            .remove_ranges(&rows, &cols)
            .expect("dead blocks are disjoint, sorted and in range");
        if let Some(basis) = &mut self.basis {
            basis.remove_ranges(&rows, &cols);
        }
        for slot in &mut self.slots {
            let below = self
                .dead
                .iter()
                .take_while(|d| d.cols.start < slot.cols.start);
            let (c, r) = below.fold((0, 0), |(c, r), d| (c + d.cols.len(), r + d.rows.len()));
            slot.cols = slot.cols.start - c..slot.cols.end - c;
            slot.rows = slot.rows.start - r..slot.rows.end - r;
        }
        self.dead.clear();
    }

    /// Rolls the blocks from `blocks` on back — the candidates of a
    /// refused solve, all appended after every live block — by truncating
    /// the LP and the basis to where the first of them began.
    fn truncate(&mut self, blocks: usize) {
        if let Some(first) = self.slots.get(blocks) {
            let (vars, rows) = (first.cols.start, first.rows.start);
            self.problem.truncate_rows(rows);
            self.problem.truncate_vars(vars);
            if let Some(basis) = &mut self.basis {
                basis.truncate(rows);
            }
            self.slots.truncate(blocks);
        }
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
                self.problem
                    .set_rhs(self.cap_row(s, k), if open { path.bandwidth } else { 0.0 })
                    .expect("capacity rows come first");
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

    /// Takes a flow off the roster and records its block as dead; the
    /// next solve cuts it out. The caller re-solves once it has removed
    /// everyone who leaves.
    pub(crate) fn remove(&mut self, id: FlowId) -> Option<Resident> {
        let pos = self.flows.iter().position(|r| r.member.id == id)?;
        if let Some(assembly) = self.assembly.as_mut() {
            let slot = assembly.slots.remove(pos);
            assembly.dead.push(slot);
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

    /// Solves the joint LP over the roster plus the tentative `extras`,
    /// for `goal`. Every dead block is cut out first, before the extras
    /// are appended. On success the extras join the roster, in order,
    /// each with its slice of the new `x` and the plan of that slice; an
    /// optimal solve also moves every resident to its new slice and
    /// clears the staleness a feasibility solve sets. With no flows at
    /// all there is nothing to solve.
    ///
    /// On *any* error — infeasibility included — the extras' blocks are
    /// truncated away and the extras handed back, so a refused candidate
    /// leaves no trace.
    fn solve(&mut self, extras: Vec<Member>, goal: Goal) -> Result<(), (SolveError, Vec<Member>)> {
        debug_assert!(
            self.assembly
                .as_ref()
                .is_none_or(|a| a.slots.len() == self.flows.len()),
            "the assembly's live blocks are not the roster's"
        );
        if let Some(assembly) = self.assembly.as_mut() {
            assembly.cut_dead();
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
        let residents = self.flows.len();
        for m in &extras {
            assembly.place(m);
        }
        assembly.bound_capacity(&self.grid, &self.paths, &self.maintenance);
        match self.solve_joint_problem(&assembly.problem, &mut assembly.basis, goal) {
            Ok(solution) => {
                let x = solution.into_x();
                let slice = |i: usize| &x[assembly.slots[i].cols.clone()];
                if goal == Goal::Optimal {
                    self.last_objective = assembly.problem.objective_value(&x);
                    for (i, r) in self.flows.iter_mut().enumerate() {
                        r.refresh_from(slice(i));
                    }
                }
                self.stale = goal == Goal::Feasible;
                for (i, member) in (residents..).zip(extras) {
                    let block = slice(i).to_vec();
                    let plan = Resident::plan_for(&member, &block);
                    self.flows.push(Resident {
                        member,
                        plan,
                        block,
                    });
                }
                debug_assert!(
                    assembly.slots.len() == self.flows.len() && assembly.dead.is_empty(),
                    "the LP holds a block that is not a resident's"
                );
                self.assembly = Some(assembly);
                Ok(())
            }
            Err(e) => {
                assembly.truncate(residents);
                self.assembly = Some(assembly);
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
impl JointCore {
    /// Holds the maintained LP to the roster's: between public calls it
    /// *is* the `Problem` a fresh core assembles by placing the residents
    /// in roster order (no block at all without one), and the carried
    /// basis spans its rows.
    #[track_caller]
    pub(crate) fn assert_lp_is_the_rosters(&self, ctx: &str) {
        let held = self.assembly.as_ref().filter(|a| !a.slots.is_empty());
        let Some(held) = held else {
            assert!(self.flows.is_empty(), "{ctx}: residents without an LP");
            return;
        };
        let (horizon, n_paths) = (self.grid.horizon(), self.paths.len());
        let mut fresh = Assembly::new(self.config.objective, horizon, n_paths);
        for r in &self.flows {
            fresh.place(&r.member);
        }
        fresh.bound_capacity(&self.grid, &self.paths, &self.maintenance);
        assert!(held.dead.is_empty(), "{ctx}: dead blocks left in the LP");
        assert!(
            held.problem == fresh.problem,
            "{ctx}: the maintained LP is not the roster's"
        );
        if let Some(basis) = &held.basis {
            let rows = held.problem.num_constraints();
            assert_eq!(basis.len(), rows, "{ctx}: the basis does not span the LP");
        }
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
        // Offers (one refused), departures and link changes on one core:
        // after every step its optimum is the dense tableau's optimum of
        // the residents' LP built from scratch, and a refused offer is one
        // the tableau cannot fit beside them.
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
    fn a_refused_batch_is_truncated_back_to_the_residents() {
        let mut core = core(1, FleetObjective::MaxAdmitted);
        let now = SlotWindow::instant(0);
        let a = candidate(&mut core, FlowRequest::new(10e6, 0.5).unwrap(), now);
        let b = candidate(&mut core, FlowRequest::new(20e6, 0.7).unwrap(), now);
        let c = candidate(&mut core, FlowRequest::new(30e6, 0.6).unwrap(), now);
        let mut assembly = Assembly::new(FleetObjective::MaxAdmitted, 1, 3);
        assembly.place(&a);
        let before = assembly.problem.clone();
        // The candidates of a solve are appended after every resident,
        // so one truncation to where the first began rolls them all back.
        assembly.place(&b);
        assembly.place(&c);
        assembly.truncate(1);
        assert_eq!(assembly.problem, before);
        assert_eq!(assembly.slots.len(), 1);
        assembly.truncate(1);
        assert_eq!(assembly.problem, before, "nothing to truncate is a no-op");
    }

    #[test]
    fn departed_blocks_leave_the_lp_across_churn() {
        let mut core = core(4, FleetObjective::MaxAdmitted);
        let windowed = |core: &mut JointCore, start| {
            let request = FlowRequest::new(20e6, 0.8).unwrap();
            candidate(core, request, SlotWindow::new(start, start + 2).unwrap())
        };
        let shape = |core: &JointCore| {
            let a = core.assembly.as_ref().unwrap();
            (a.slots.len(), a.dead.len(), a.problem.num_vars())
        };
        for start in [0, 1, 2] {
            let member = windowed(&mut core, start);
            assert!(core.admit(member, Goal::Optimal).expect("offer").is_ok());
        }
        let (_, _, vars) = shape(&core);
        // A departure only records the block; the next solve cuts it out
        // (and any other dead block with it) and keeps the basis warm.
        assert!(core.remove(FlowId::new(1)).is_some());
        assert!(core.remove(FlowId::new(0)).is_some());
        assert_eq!(shape(&core), (1, 2, vars));
        let hits = core.warm_stats().hits;
        let member = windowed(&mut core, 1);
        assert!(core.admit(member, Goal::Optimal).expect("offer").is_ok());
        assert_eq!(shape(&core), (2, 0, 2 * vars / 3));
        assert_eq!(core.warm_stats().hits, hits + 1, "the cut LP started warm");
        core.assert_lp_is_the_rosters("after the cut");
        // After the last resident's departure only the capacity rows are
        // left, and the next candidate is placed over them.
        for id in core.ids() {
            assert!(core.remove(id).is_some());
        }
        core.resolve().expect("nothing left to solve");
        assert_eq!(shape(&core), (0, 0, 0));
        let member = windowed(&mut core, 0);
        assert!(core.admit(member, Goal::Optimal).expect("offer").is_ok());
        core.assert_lp_is_the_rosters("after the roster emptied");
    }

    /// A seeded churn script on the core — offers one by one and in
    /// pairs, to the optimum and for a verdict, refusals among them;
    /// departures; link changes — on a one-slot and an 8-slot grid:
    /// after every step the maintained LP is the roster's, bit for bit
    /// (`JointCore::assert_lp_is_the_rosters`).
    #[test]
    fn the_maintained_lp_is_the_rosters_after_every_step() {
        for horizon in [1usize, 8] {
            let mut core = core(horizon, FleetObjective::WeightedFair);
            let mut rng = dmc_stats::rng::SplitMix64::new(0x10E5 + horizon as u64);
            let (mut refused, mut departed) = (0, 0);
            for step in 0..160 {
                let ctx = format!("{horizon} slots, step {step}");
                let offer = |core: &mut JointCore, rng: &mut dmc_stats::rng::SplitMix64| {
                    let floor = [0.0, 0.5, 0.8, 0.95][rng.int(0usize..4)];
                    let mut flow = FlowRequest::new(rng.f64(5e6..80e6), rng.f64(0.4..1.2))
                        .unwrap()
                        .with_min_quality(floor)
                        .with_transmissions(rng.int(1usize..3));
                    if rng.int(0..4) == 0 {
                        flow = flow.with_cost_budget(2.0).with_priority(2.0);
                    }
                    let start = rng.int(0..horizon as u64);
                    let end = (start + rng.int(1..4)).min(horizon as u64);
                    let window = SlotWindow::new(start, end).unwrap();
                    let member = candidate(core, flow, window);
                    let buffer = if rng.bool() { 0.5 } else { 0.0 };
                    Member {
                        request: member.request.with_buffer(buffer),
                        ..member
                    }
                };
                match rng.int(0..8) {
                    0..=3 => {
                        let member = offer(&mut core, &mut rng);
                        let verdict = core.admit(member, Goal::Optimal).expect("solves");
                        refused += usize::from(verdict.is_err());
                    }
                    4 => {
                        let pair = vec![offer(&mut core, &mut rng), offer(&mut core, &mut rng)];
                        let goal = if rng.bool() {
                            Goal::Feasible
                        } else {
                            Goal::Optimal
                        };
                        let verdict = core.admit_all(pair, goal).expect("solves");
                        refused += usize::from(verdict.is_err());
                        core.refresh().expect("the residents fit");
                    }
                    5 | 6 if !core.residents().is_empty() => {
                        for _ in 0..rng.int(1..3) {
                            let ids = core.ids();
                            if !ids.is_empty() {
                                assert!(core.remove(ids[rng.int(0..ids.len())]).is_some());
                                departed += 1;
                            }
                        }
                        core.resolve().expect("the survivors fit");
                    }
                    _ => {
                        let bandwidth = rng.f64(60e6..120e6);
                        let change = LinkChange::SetBandwidth(bandwidth);
                        core.apply_link_change(0, &change).expect("valid change");
                        // Wider than before or not, the residents are
                        // re-offered to a fresh LP if they no longer fit.
                        if core.refresh().is_err() {
                            for r in core.evict_all() {
                                let _ = core.admit(r.member, Goal::Feasible).expect("solves");
                            }
                            core.refresh().expect("the re-admitted fit");
                        }
                    }
                }
                core.assert_lp_is_the_rosters(&ctx);
            }
            assert!(
                refused >= 10 && departed >= 20,
                "{refused} refused, {departed} departed"
            );
        }
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
        // `(live, dead)` blocks of the LP.
        let blocks = |core: &JointCore| {
            let held = core.assembly.as_ref();
            held.map_or((0, 0), |a| (a.slots.len(), a.dead.len()))
        };
        // Admit: the candidate becomes the last resident, with its plan.
        let a = candidate(&mut core, strict(70e6), now);
        let admitted = core.admit(a, Goal::Optimal).expect("solves");
        assert!(admitted.is_ok(), "fits alone");
        let plan = &core.resident(FlowId::new(0)).unwrap().plan;
        assert!(plan.quality() >= 0.9 - 1e-9);
        assert_eq!((ids(&core), blocks(&core)), (vec![0], (1, 0)));
        // A refused candidate comes back intact and leaves no block.
        let b = candidate(&mut core, strict(70e6).with_priority(2.0), now);
        let (flow_b, combos_b) = (b.flow().clone(), b.model.num_combos());
        let back = core
            .admit(b, Goal::Optimal)
            .expect("solves")
            .expect_err("does not fit");
        assert_eq!((back.id, back.flow()), (FlowId::new(1), &flow_b));
        assert_eq!(back.model.num_combos(), combos_b);
        assert_eq!((ids(&core), blocks(&core)), (vec![0], (1, 0)));
        // A batch is refused whole, in the order it was offered — the
        // one member that would have fitted alone included.
        let small = candidate(&mut core, strict(10e6), now);
        let batch = core
            .admit_all(vec![small, back], Goal::Optimal)
            .expect("solves");
        let batch = batch.expect_err("the pair does not fit");
        let offered: Vec<u64> = batch.iter().map(|m| m.id.index()).collect();
        assert_eq!(offered, [2, 1]);
        assert_eq!((ids(&core), blocks(&core)), (vec![0], (1, 0)));
        // Remove: off the roster, the block dead until the next solve.
        let a = core.remove(FlowId::new(0)).expect("resident");
        assert!(core.remove(FlowId::new(0)).is_none());
        assert_eq!((ids(&core), blocks(&core)), (vec![], (0, 1)));
        core.resolve().expect("nothing left to solve");
        // The refused pair fits now, in an LP without the dead block.
        assert!(core
            .admit_all(batch, Goal::Optimal)
            .expect("solves")
            .is_ok());
        assert_eq!((ids(&core), blocks(&core)), (vec![2, 1], (2, 0)));
        // Evict: everyone comes back, priority first, and the assembly
        // is forgotten; re-admitted one by one on verdicts they are
        // residents again, and one refresh gives them the optimum's plans.
        let optimum = core.objective_value();
        let evicted = core.evict_all();
        let order: Vec<u64> = evicted.iter().map(|r| r.member.id.index()).collect();
        assert_eq!(order, [1, 2]);
        assert_eq!((ids(&core), blocks(&core)), (vec![], (0, 0)));
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
        assert_eq!((ids(&core), blocks(&core)), (vec![1, 2], (2, 0)));
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
        let block_of = |core: &JointCore, id: FlowId| {
            let pos = core.ids().iter().position(|&r| r == id).unwrap();
            core.assembly.as_ref().unwrap().slots[pos].clone()
        };
        let cols_of = |core: &JointCore, id: FlowId| block_of(core, id).cols;
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
        // A departure cuts the leaver's block out at the next solve, and
        // nothing else: every other column keeps its coefficients, moved
        // down past the cut columns and rows.
        let before = coefficients(&core);
        let Slot { cols, rows } = block_of(&core, FlowId::new(1));
        assert!(core.remove(FlowId::new(1)).is_some());
        core.resolve().expect("the survivors fit");
        let moved = |i: usize| if i >= rows.end { i - rows.len() } else { i };
        let kept = before
            .0
            .iter()
            .enumerate()
            .filter(|(j, _)| !cols.contains(j));
        let cut = kept.map(|(_, (c, entries))| {
            let entries = entries.iter().map(|&(i, v)| (moved(i), v)).collect();
            (*c, entries)
        });
        assert_eq!(coefficients(&core), (cut.collect(), before.1));
        // After the cut, a refused append leaves nothing and an accepted
        // one edits only its own columns.
        let before = coefficients(&core);
        let member = candidate(&mut core, costed(500e6, 1.0), window(1, 3));
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_err());
        assert_eq!(before, coefficients(&core));
        let member = candidate(&mut core, costed(25e6, 0.2), window(1, 3));
        let id = member.id;
        assert!(core.admit(member, Goal::Optimal).expect("solves").is_ok());
        assert_only_edited(&before, &coefficients(&core), cols_of(&core, id));
        core.assert_lp_is_the_rosters("after the churn");
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
