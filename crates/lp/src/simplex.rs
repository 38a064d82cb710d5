//! What every solve shares: the solver's constants and options, the
//! per-solve stats the driver fills in, and the [`Workspace`] that holds
//! the driver's and the kernel's buffers across solves.

/// Feasibility/optimality tolerance of the solver. Rows are
/// equilibrated (scaled by their largest coefficient) and the objective
/// is divided by the power of two at or below its largest coefficient
/// before solving, so it is meaningful regardless of input scale.
pub const TOLERANCE: f64 = 1e-9;

/// Consecutive degenerate pivots after which pricing falls back to
/// Bland's rule, which cannot cycle.
pub(crate) const DEGENERATE_SWITCH: usize = 64;

/// The power of two at or below the objective's largest magnitude (1
/// for an all-zero or subnormal objective). Phase 2 prices `c / scale`,
/// so reduced costs are compared with [`TOLERANCE`] on the same footing
/// at any objective scale, and the duals are multiplied back by it.
/// Dividing by a power of two is exact: the pivot sequence, `x` and the
/// basis of a problem do not change when its objective is scaled by
/// `2^k`, and its duals scale by exactly `2^k`.
pub(crate) fn objective_scale(objective: &[f64]) -> f64 {
    let top = objective.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    if top.is_normal() {
        // Clearing the mantissa leaves 2^⌊log₂ top⌋.
        f64::from_bits(top.to_bits() & 0xFFF0_0000_0000_0000)
    } else {
        1.0
    }
}

/// Tuning knobs for [`Problem::solve`](crate::Problem::solve).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Hard cap on pivot iterations per phase (default `50_000`).
    pub max_iterations: usize,
    /// Telemetry registry (default [`dmc_obs::Obs::disabled`]: every
    /// recording is a no-op branch). When enabled, each solve records
    /// `lp.solves`, `lp.pivots` (split by a successful solve into
    /// `lp.dual_pivots`, `lp.phase1_pivots`, `lp.phase2_pivots` and
    /// `lp.phase3_pivots`, each recorded once nonzero), `lp.pivot_rows`
    /// (pivots × constraint rows, a deterministic proxy for pivot work,
    /// which grows with the LP),
    /// `lp.feasibility_solves` (those that asked
    /// [`Problem::find_feasible_with`](crate::Problem::find_feasible_with)
    /// for a verdict only),
    /// `lp.refactorizations`, `lp.factor_eta_visits` (etas the
    /// solve's factorizations examined, a deterministic work
    /// count), `lp.rc_rows` (rows the bulk reduced-cost fills streamed,
    /// another; refused solves included), `lp.columns` (structural
    /// columns summed over solves, refused ones included),
    /// `lp.phase1_early_exits`, warm-start counters, the
    /// `lp.eta_len` histogram (iteration etas each refactorization
    /// discarded), and the span `lp.solve.revised`; the logical clock
    /// advances by one tick per pivot.
    pub obs: dmc_obs::Obs,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 50_000,
            obs: dmc_obs::Obs::disabled(),
        }
    }
}

/// Per-solve instrumentation filled in by the revised-simplex driver and
/// its kernel and published to [`SolverOptions::obs`] by the dispatcher —
/// the solver itself never touches the registry.
#[derive(Debug, Default)]
pub(crate) struct SolveStats {
    /// Basis (re)factorizations, the cold-start build included.
    pub(crate) refactorizations: u64,
    /// Iteration etas each refactorization discarded.
    pub(crate) eta_lengths: Vec<u64>,
    /// Etas the factorizations examined while eliminating basic columns.
    pub(crate) factor_eta_visits: u64,
    /// Rows the bulk reduced-cost fills streamed (one row list's length
    /// per fill).
    pub(crate) rc_rows: u64,
    /// Whether phase 1 exited as soon as the last artificial left the
    /// basis, skipping the final pricing wrap.
    pub(crate) phase1_early_exit: bool,
    /// Pivots of the dual phase that walks an infeasible warm basis back
    /// to feasibility (counted in the solve's iterations too).
    pub(crate) dual_pivots: u64,
    /// Pivots of phase 1, the drive-out of artificials included. With
    /// the three below they sum to the solve's iterations.
    pub(crate) phase1_pivots: u64,
    /// Pivots of phase 2 (the caller's objective).
    pub(crate) phase2_pivots: u64,
    /// Pivots of phase 3 (the walk to the canonical vertex).
    pub(crate) phase3_pivots: u64,
    /// What became of the caller's warm basis — known before the solve
    /// ends, so an `Infeasible` reached from it still counts as warm.
    pub(crate) warm: WarmStart,
}

/// The fate of a caller-provided warm basis in one solve.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarmStart {
    /// None offered, or not a basis of this problem's shape.
    #[default]
    Cold,
    /// The solve started from it as given.
    Used,
    /// The solve started from it after dependent columns were dropped
    /// and the rows they left took their logicals.
    Repaired,
    /// Rejected: primal infeasible under the new right-hand side, and
    /// the dual phase gave up on restoring it.
    Infeasible,
    /// Rejected: singular (a duplicate column; a basis that factors
    /// singular is repaired instead).
    Singular,
}

impl WarmStart {
    /// Whether the solve started from the caller's basis.
    pub(crate) fn started(self) -> bool {
        matches!(self, WarmStart::Used | WarmStart::Repaired)
    }
}

impl SolveStats {
    /// Clears the stats at the start of a solve (buffers retained).
    pub(crate) fn reset(&mut self) {
        self.refactorizations = 0;
        self.eta_lengths.clear();
        self.factor_eta_visits = 0;
        self.rc_rows = 0;
        self.phase1_early_exit = false;
        self.dual_pivots = 0;
        self.phase1_pivots = 0;
        self.phase2_pivots = 0;
        self.phase3_pivots = 0;
        self.warm = WarmStart::Cold;
    }
}

/// Reusable solver scratch memory.
///
/// A `Workspace` owns every buffer one solve needs: the driver's basis,
/// layout and pricing state, and the sparse kernel's matrix copy and eta
/// file. Creating one per call (what [`Problem::solve`](crate::Problem::solve)
/// does) is correct but allocates them afresh; callers that solve many
/// similarly-shaped problems — sweeps, re-solves, the planner in
/// `dmc-core`, the fleet's joint LP — should hold one `Workspace` and
/// call [`Problem::solve_with`](crate::Problem::solve_with).
///
/// ```
/// use dmc_lp::{Problem, SolverOptions, Workspace};
///
/// # fn main() -> Result<(), dmc_lp::SolveError> {
/// let mut ws = Workspace::new();
/// let opts = SolverOptions::default();
/// for rhs in [1.0, 2.0, 3.0] {
///     let mut p = Problem::maximize(vec![1.0, 2.0]);
///     p.add_le(vec![1.0, 1.0], rhs)?;
///     let s = p.solve_with(&opts, &mut ws)?;
///     assert!((s.objective() - 2.0 * rhs).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Buffers of the revised-simplex driver.
    pub(crate) driver: crate::driver::DriverState,
    /// Matrix view and factors of the driver's sparse basis kernel.
    pub(crate) kernel: crate::sparse::BlockPfi,
    /// Fate of the warm basis in the last solve through this workspace.
    pub(crate) last_warm: WarmStart,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow to fit the first solve and
    /// are retained afterwards.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Whether the last solve through this workspace started from the
    /// caller's warm basis — [`Solution::used_warm_start`](crate::Solution::used_warm_start), but also
    /// answered when that solve ended in an error (a refusal reached
    /// warm is still a warm solve).
    pub fn started_warm(&self) -> bool {
        self.last_warm.started()
    }
}
