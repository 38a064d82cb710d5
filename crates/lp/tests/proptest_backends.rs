//! Differential testing: the revised driver against the dense oracle.
//!
//! Random LPs — feasible by construction, infeasible by construction,
//! unbounded by construction, and unconstrained-outcome mixes — must
//! produce the same outcome class from the dense tableau
//! ([`dmc_lp_oracle::solve`]) and from the solver (a problem that
//! declares several blocks also with its declaration cleared, which
//! changes the pricing sections and the pivot order), and on success
//! agree on objective, primal point and duals to 1e-9. Coefficients are
//! drawn from continuous distributions, so optima (and duals) are unique
//! almost surely and the pointwise comparison is meaningful.
//!
//! The block-angular properties generate random fleet-shaped LPs (per
//! block: a `Σx = 1` row and an optional floor row; a few coupling
//! capacity rows over everything) with declared block boundaries, and
//! additionally run warm-started churn sequences (tombstone a block,
//! revive it) asserting sparse warm ≡ sparse cold **bitwise** and both
//! ≡ dense to 1e-9. The edit-script property goes further: the LP is
//! grown and shrunk the way the fleet's assembly does it (append a
//! block, cut departed blocks out, retune a capacity or a floor,
//! truncate the last block) while one [`Basis`] is carried and edited in
//! step, and every solve from it must equal the cold solve of the same
//! problem bit for bit.
//!
//! Two properties pin the objective scale the solver and the oracle
//! apply (the objective divided by the power of two at or below its
//! largest entry): an objective scaled by `2^k` solves to the same bits
//! with duals `2^k` times as large, and objectives of ~1e7 — the fleet's
//! rate-weighted ones — still agree across the two.

use dmc_lp::{Basis, Problem, SolveError, SolverOptions};
use dmc_lp_oracle::Optimum;
use dmc_obs::fnv1a;
use dmc_stats::rng::{run_cases, SplitMix64};
use std::ops::Range;

/// `p` solved on the dense tableau.
fn dense(p: &Problem) -> Result<Optimum, SolveError> {
    dmc_lp_oracle::solve(p)
}

/// `p` as given and, when it declares more than one block, with its
/// declaration cleared — the same rows priced in other sections and
/// factored in another pivot order — named.
fn declared_and_not(p: &Problem) -> Vec<(&'static str, Problem)> {
    let mut runs = vec![("revised", p.clone())];
    if p.block_starts().len() > 1 {
        let mut undeclared = p.clone();
        undeclared.set_block_starts(Vec::new()).unwrap();
        runs.push(("revised, undeclared", undeclared));
    }
    runs
}

/// A bounded-feasible LP with a known interior point: `≤` rows through
/// the point plus box bounds, optionally one equality row through it.
fn build_feasible_lp(n: usize, m: usize, with_eq: bool, seed: u64) -> Problem {
    let mut rng = SplitMix64::new(seed);
    let x0: Vec<f64> = (0..n).map(|_| rng.unit() * 5.0).collect();
    let c: Vec<f64> = (0..n).map(|_| rng.unit() * 4.0 - 2.0).collect();
    let mut p = Problem::maximize(c);
    for _ in 0..m {
        let a: Vec<f64> = (0..n).map(|_| rng.unit() * 2.0 - 0.5).collect();
        let lhs: f64 = a.iter().zip(&x0).map(|(ai, xi)| ai * xi).sum();
        let slack = rng.unit() * 3.0;
        p.add_le(a, lhs + slack).unwrap();
    }
    if with_eq {
        let a: Vec<f64> = (0..n).map(|_| rng.unit() + 0.1).collect();
        let lhs: f64 = a.iter().zip(&x0).map(|(ai, xi)| ai * xi).sum();
        p.add_eq(a, lhs).unwrap();
    }
    for j in 0..n {
        let mut row = vec![0.0; n];
        row[j] = 1.0;
        p.add_le(row, 10.0 + rng.unit()).unwrap();
    }
    p
}

fn assert_backends_agree(p: &Problem) {
    let dense = dense(p);
    for (name, q) in declared_and_not(p) {
        let other = q.solve(&SolverOptions::default());
        match (&dense, &other) {
            (Ok(d), Ok(r)) => {
                assert!(
                    (d.objective - r.objective()).abs() < 1e-9,
                    "objective: dense {} vs {name} {}",
                    d.objective,
                    r.objective()
                );
                for (j, (a, b)) in d.x.iter().zip(r.x()).enumerate() {
                    assert!((a - b).abs() < 1e-9, "x[{j}]: dense {a} vs {name} {b}");
                }
                for (i, (a, b)) in d.duals.iter().zip(r.duals()).enumerate() {
                    assert!((a - b).abs() < 1e-9, "dual[{i}]: dense {a} vs {name} {b}");
                }
                // Both must actually be feasible for the original problem.
                assert!(p.max_violation(&d.x) < 1e-6);
                assert!(p.max_violation(r.x()) < 1e-6);
            }
            (Err(SolveError::Infeasible { .. }), Err(SolveError::Infeasible { .. })) => {}
            (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => {}
            (d, r) => panic!("outcome mismatch: dense {d:?} vs {name} {r:?}"),
        }
    }
}

/// A random block-angular LP in the fleet's joint shape: `blocks` blocks
/// of `width` columns (per block a `Σx = 1` row and, for odd blocks, a
/// floor row), plus `couplings` capacity rows over all columns. With
/// `declare` the block boundaries are recorded on the problem.
fn build_block_angular(
    blocks: usize,
    width: usize,
    couplings: usize,
    declare: bool,
    seed: u64,
) -> Problem {
    let mut rng = SplitMix64::new(seed);
    let n = blocks * width;
    let c: Vec<f64> = (0..n).map(|_| 0.2 + rng.unit()).collect();
    let mut p = Problem::maximize(c.clone());
    for k in 0..couplings {
        let row: Vec<f64> = (0..n).map(|_| 0.05 + rng.unit()).collect();
        // Roomy enough to be feasible most of the time, tight enough to
        // bind: between 30% and 110% of the per-block average demand.
        let rhs = (0.3 + 0.8 * rng.unit()) * blocks as f64 * 0.55;
        p.add_le(row, rhs).unwrap();
        let _ = k;
    }
    for f in 0..blocks {
        if f % 2 == 1 {
            // Floor row: p_f · x^f ≥ q with q below the best coefficient,
            // so the block alone can satisfy it.
            let mut row = vec![0.0; n];
            let mut best: f64 = 0.0;
            for j in f * width..(f + 1) * width {
                row[j] = c[j];
                best = best.max(c[j]);
            }
            p.add_ge(row, best * 0.5 * rng.unit()).unwrap();
        }
        let mut row = vec![0.0; n];
        for v in &mut row[f * width..(f + 1) * width] {
            *v = 1.0;
        }
        p.add_eq(row, 1.0).unwrap();
    }
    if declare {
        p.set_block_starts((0..blocks).map(|f| f * width).collect())
            .unwrap();
    }
    p
}

/// Where one block of an [`EditedLp`] lives.
struct Block {
    cols: Range<usize>,
    /// Its floor row (if any) and its `Σx = 1` row, contiguous.
    rows: Range<usize>,
    /// Stored negated (`add_ge`), like the fleet's floor rows.
    floor_row: Option<usize>,
}

/// A block-angular LP under the fleet assembly's edits, with the basis
/// of its last optimum carried alongside and edited in step.
struct EditedLp {
    p: Problem,
    couplings: usize,
    blocks: Vec<Block>,
    basis: Option<Basis>,
    rng: SplitMix64,
}

impl EditedLp {
    fn new(couplings: usize, seed: u64) -> Self {
        let mut lp = EditedLp {
            p: Problem::maximize(Vec::new()),
            couplings,
            blocks: Vec::new(),
            basis: None,
            rng: SplitMix64::new(seed),
        };
        lp.append();
        lp
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.rng.unit() * n as f64) as usize % n.max(1)
    }

    fn append(&mut self) {
        let width = 2 + self.pick(4);
        let c: Vec<f64> = (0..width).map(|_| 0.2 + self.rng.unit()).collect();
        let cols = self.p.append_block(&c).unwrap();
        if self.blocks.is_empty() {
            for _ in 0..self.couplings {
                let rhs = 1.0 + 2.0 * self.rng.unit();
                self.p.add_le_sparse(&[], rhs).unwrap();
            }
        }
        for k in 0..self.couplings {
            let seg: Vec<f64> = cols.clone().map(|_| 0.05 + self.rng.unit()).collect();
            self.p.set_row_range(k, cols.start, &seg).unwrap();
        }
        let first_row = self.p.num_constraints();
        let best = c.iter().fold(0.0f64, |a, &b| a.max(b));
        let floor = best * 0.9 * self.rng.unit();
        let floor_row = (self.pick(2) == 1).then(|| {
            let entries: Vec<(usize, f64)> = cols.clone().zip(c).collect();
            self.p.add_ge_sparse(&entries, floor).unwrap();
            first_row
        });
        let ones: Vec<(usize, f64)> = cols.clone().map(|j| (j, 1.0)).collect();
        self.p.add_eq_sparse(&ones, 1.0).unwrap();
        let rows = first_row..self.p.num_constraints();
        self.blocks.push(Block {
            cols,
            rows,
            floor_row,
        });
        if let Some(basis) = &mut self.basis {
            basis.extend_logical(self.p.num_constraints());
        }
    }

    /// Cuts the blocks `dead` (ascending indices) out of the LP and the
    /// carried basis in one edit, and moves the later blocks down.
    fn depart(&mut self, dead: &[usize]) {
        let rows: Vec<Range<usize>> = dead.iter().map(|&i| self.blocks[i].rows.clone()).collect();
        let cols: Vec<Range<usize>> = dead.iter().map(|&i| self.blocks[i].cols.clone()).collect();
        self.p.remove_ranges(&rows, &cols).unwrap();
        if let Some(basis) = &mut self.basis {
            basis.remove_ranges(&rows, &cols);
        }
        let (mut cut_rows, mut cut_cols, mut next) = (0, 0, 0);
        let mut kept = Vec::with_capacity(self.blocks.len() - dead.len());
        for (i, b) in std::mem::take(&mut self.blocks).into_iter().enumerate() {
            if dead.get(next) == Some(&i) {
                next += 1;
                cut_rows += b.rows.len();
                cut_cols += b.cols.len();
                continue;
            }
            kept.push(Block {
                cols: b.cols.start - cut_cols..b.cols.end - cut_cols,
                rows: b.rows.start - cut_rows..b.rows.end - cut_rows,
                floor_row: b.floor_row.map(|r| r - cut_rows),
            });
        }
        self.blocks = kept;
    }

    /// Removes the last block, rows and columns, by truncation. The
    /// carried basis is truncated with it; if a later optimum made one
    /// of the removed columns basic in a surviving row, the solver must
    /// decline the basis, not mis-map it.
    fn truncate(&mut self) {
        let last = self.blocks.pop().expect("called with ≥ 2 blocks");
        self.p.truncate_rows(last.rows.start);
        self.p.truncate_vars(last.cols.start);
        if let Some(basis) = &mut self.basis {
            basis.truncate(last.rows.start);
        }
    }

    fn retune(&mut self) {
        let k = self.pick(self.couplings);
        let rhs = self.p.constraints()[k].rhs() * (0.5 + self.rng.unit());
        self.p.set_rhs(k, rhs).unwrap();
        let floors: Vec<usize> = self.blocks.iter().filter_map(|b| b.floor_row).collect();
        if !floors.is_empty() {
            let row = floors[self.pick(floors.len())];
            let rhs = self.p.constraints()[row].rhs() * (0.5 + self.rng.unit());
            self.p.set_rhs(row, rhs).unwrap();
        }
    }

    /// One random edit, mirrored on the carried basis.
    fn edit(&mut self) -> Edit {
        let n = self.blocks.len();
        match self.pick(6) {
            0 | 1 => {
                self.append();
                Edit::Candidate(n)
            }
            2 | 3 if n > 1 => {
                // One departure, or two in one cut while a block remains.
                let first = self.pick(n);
                let second = self.pick(n);
                let mut dead = vec![first.min(second), first.max(second)];
                dead.dedup();
                if n - dead.len() < 1 {
                    dead.truncate(1);
                }
                self.depart(&dead);
                Edit::Survivors
            }
            4 if n > 1 => {
                self.truncate();
                Edit::Truncated
            }
            _ => {
                self.retune();
                Edit::Survivors
            }
        }
    }

    /// The fleet's rollback of a refused candidate: the appended block is
    /// truncated, the basis with it, back to what it was.
    fn roll_back(&mut self, candidate: usize) {
        if candidate + 1 == self.blocks.len() && candidate > 0 {
            self.truncate();
        }
    }
}

/// What [`EditedLp::edit`] did.
#[derive(Clone, Copy, PartialEq)]
enum Edit {
    /// Appended this block — the candidate a refusal rolls back.
    Candidate(usize),
    /// A departure or a retune: what is left re-solves from the carried
    /// basis, and what can make it infeasible is the right-hand side or
    /// the cut.
    Survivors,
    /// Removed the last block.
    Truncated,
}

/// The departure re-solve starts from the carried basis: where a cut or
/// a retune leaves it primal infeasible the solver's dual phase restores
/// it, so nearly every such step whose problem is feasible reports a
/// warm start (before the dual phase, nearly none did). The bit-equality
/// of those solves with cold ones is
/// `edit_scripts_from_the_carried_basis_equal_cold`'s.
#[test]
fn in_place_edits_re_solve_from_the_carried_basis() {
    let opts = SolverOptions::default();
    let (mut in_place, mut warm_started) = (0, 0);
    for seed in 1..=40u64 {
        let mut lp = EditedLp::new(1 + seed as usize % 3, seed);
        lp.basis = lp.p.solve(&opts).unwrap().take_basis();
        for _ in 0..24 {
            let edit = lp.edit();
            let solved = match &lp.basis {
                Some(basis) => lp.p.solve_warm(&opts, basis),
                None => lp.p.solve(&opts),
            };
            match solved {
                Ok(mut s) => {
                    if edit == Edit::Survivors && lp.basis.is_some() {
                        in_place += 1;
                        warm_started += usize::from(s.used_warm_start());
                    }
                    lp.basis = s.take_basis();
                }
                Err(_) => {
                    if let Edit::Candidate(candidate) = edit {
                        lp.roll_back(candidate);
                    }
                }
            }
        }
    }
    assert!(in_place > 200, "only {in_place} in-place edits");
    assert!(
        100 * warm_started >= 95 * in_place,
        "{warm_started} of {in_place} in-place edits re-solved warm"
    );
}

/// Feasible bounded LPs (with and without an equality row): identical
/// optima from the oracle and the solver.
#[test]
fn feasible_lps_agree() {
    run_cases(fnv1a(b"feasible_lps_agree"), 96, |rng| {
        let n = rng.int(1usize..8);
        let m = rng.int(1usize..9);
        let with_eq = rng.bool();
        let seed = rng.next_u64();
        let p = build_feasible_lp(n, m, with_eq, seed);
        assert_backends_agree(&p);
    });
}

/// Infeasible-by-construction LPs (`a·x ≤ t` and `a·x ≥ t + gap`):
/// every solver must report infeasibility.
#[test]
fn infeasible_lps_agree() {
    run_cases(fnv1a(b"infeasible_lps_agree"), 96, |rng| {
        let n = rng.int(1usize..6);
        let seed = rng.next_u64();
        let gap = rng.f64(0.5..5.0);
        let mut coeffs = SplitMix64::new(seed);
        let a: Vec<f64> = (0..n).map(|_| coeffs.unit() + 0.1).collect();
        let t = coeffs.unit() * 4.0;
        let mut p = Problem::maximize((0..n).map(|_| coeffs.unit()).collect());
        p.add_le(a.clone(), t).unwrap();
        p.add_ge(a, t + gap).unwrap();
        assert_backends_agree(&p);
    });
}

/// Unbounded-by-construction LPs (one variable unconstrained above
/// with positive objective): every solver must report unboundedness.
#[test]
fn unbounded_lps_agree() {
    run_cases(fnv1a(b"unbounded_lps_agree"), 96, |rng| {
        let n = rng.int(2usize..6);
        let seed = rng.next_u64();
        let mut coeffs = SplitMix64::new(seed);
        let mut c: Vec<f64> = (0..n).map(|_| coeffs.unit()).collect();
        c[0] = 1.0 + coeffs.unit(); // strictly improving direction
        let mut p = Problem::maximize(c);
        // Constrain every variable except x0.
        for j in 1..n {
            let mut row = vec![0.0; n];
            row[j] = 1.0;
            p.add_le(row, 1.0 + coeffs.unit()).unwrap();
        }
        assert_backends_agree(&p);
    });
}

/// Paper-shaped LPs (`Σx = 1` distribution rows plus capacity rows):
/// the exact structure the planner emits.
#[test]
fn paper_shaped_lps_agree() {
    run_cases(fnv1a(b"paper_shaped_lps_agree"), 96, |rng| {
        let n = rng.int(2usize..40);
        let rows = rng.int(1usize..6);
        let seed = rng.next_u64();
        let mut coeffs = SplitMix64::new(seed);
        let pvec: Vec<f64> = (0..n).map(|_| coeffs.unit()).collect();
        let mut p = Problem::maximize(pvec);
        for _ in 0..rows {
            let usage: Vec<f64> = (0..n).map(|_| coeffs.unit() * 2.0).collect();
            p.add_le(usage, 0.5 + coeffs.unit() * 2.0).unwrap();
        }
        p.add_eq(vec![1.0; n], 1.0).unwrap();
        assert_backends_agree(&p);
    });
}

/// Warm-starting from the previous point of a RHS sweep must agree
/// with the dense oracle at every point (warm results are still
/// exact optima, not approximations) — and with the cold solve of
/// the same problem **bit for bit** in `x`, objective and duals: two
/// pivot paths reach the same basis set in different slot orders, and
/// the extraction must not see the order.
/// Paper-shaped: several capacity rows over every column plus
/// `Σx = 1`.
#[test]
fn warm_sweep_agrees_with_dense() {
    run_cases(fnv1a(b"warm_sweep_agrees_with_dense"), 96, |rng| {
        let n = rng.int(3usize..40);
        let caps = rng.int(2usize..6);
        let seed = rng.next_u64();
        let mut coeffs = SplitMix64::new(seed);
        let pvec: Vec<f64> = (0..n).map(|_| coeffs.unit()).collect();
        let usage: Vec<Vec<f64>> = (0..caps)
            .map(|_| (0..n).map(|_| 0.2 + coeffs.unit()).collect())
            .collect();
        let pace: Vec<f64> = (0..caps).map(|_| 0.05 + 0.25 * coeffs.unit()).collect();
        // All mass on column 0 fits every capacity at every sweep point,
        // so each point is feasible.
        let mut basis: Option<Basis> = None;
        for step in 0..6 {
            let mut p = Problem::maximize(pvec.clone());
            for (row, pace) in usage.iter().zip(&pace) {
                p.add_le(row.clone(), row[0] + 0.05 + pace * step as f64)
                    .unwrap();
            }
            p.add_eq(vec![1.0; n], 1.0).unwrap();
            let dense = dense(&p).unwrap();
            let opts = SolverOptions::default();
            let warm = match basis.as_ref() {
                Some(b) => p.solve_warm(&opts, b).unwrap(),
                None => p.solve(&opts).unwrap(),
            };
            assert!(
                (warm.objective() - dense.objective).abs() < 1e-9,
                "step {step}: warm {} vs dense {}",
                warm.objective(),
                dense.objective
            );
            for (j, (a, b)) in warm.x().iter().zip(&dense.x).enumerate() {
                assert!((a - b).abs() < 1e-9, "step {step} x[{j}]: {a} vs {b}");
            }
            let cold = p.solve(&opts).unwrap();
            assert_eq!(warm.x(), cold.x(), "step {}", step);
            assert_eq!(
                warm.objective().to_bits(),
                cold.objective().to_bits(),
                "step {}",
                step
            );
            assert_eq!(warm.duals(), cold.duals(), "step {}", step);
            basis = warm.basis().cloned();
        }
    });
}

/// Random block-angular fleet LPs: the oracle and the solver agree to
/// 1e-9, with the block boundaries declared or not (the
/// boundaries change pivot orders, never answers).
#[test]
fn block_angular_lps_agree() {
    run_cases(fnv1a(b"block_angular_lps_agree"), 96, |rng| {
        let blocks = rng.int(1usize..10);
        let width = rng.int(2usize..8);
        let couplings = rng.int(1usize..4);
        let declare = rng.bool();
        let seed = rng.next_u64();
        let p = build_block_angular(blocks, width, couplings, declare, seed);
        assert_backends_agree(&p);
    });
}

/// Warm-started churn over a block-angular LP: tombstone a block
/// (`Σx = 1 → 0`, objective zeroed), then revive it, warm-starting
/// every re-solve from the previous basis. Sparse warm must equal
/// sparse cold **bitwise** at every step, and both must match the
/// dense oracle to 1e-9.
#[test]
fn block_angular_churn_warm_equals_cold() {
    run_cases(fnv1a(b"block_angular_churn_warm_equals_cold"), 96, |rng| {
        let blocks = rng.int(2usize..8);
        let width = rng.int(2usize..6);
        let victim_seed = rng.next_u64();
        let seed = rng.next_u64();
        let base = build_block_angular(blocks, width, 2, true, seed);
        let victim = (victim_seed % blocks as u64) as usize;
        let eq_row_of = |f: usize| {
            // Rows: 2 couplings, then per block (floor for odd blocks)
            // followed by its Σx row.
            let mut row = 2;
            for g in 0..f {
                row += if g % 2 == 1 { 2 } else { 1 };
            }
            row + if f % 2 == 1 { 1 } else { 0 }
        };
        let zeros = vec![0.0; width];
        let objective = base.objective();

        let mut tombstoned = base.clone();
        tombstoned.set_rhs(eq_row_of(victim), 0.0).unwrap();
        tombstoned
            .set_objective_range(victim * width, &zeros)
            .unwrap();
        if victim % 2 == 1 {
            // Relax the tombstoned block's floor row (stored negated).
            tombstoned.set_rhs(eq_row_of(victim) - 1, 0.0).unwrap();
        }
        let mut revived = tombstoned.clone();
        revived.set_rhs(eq_row_of(victim), 1.0).unwrap();
        revived
            .set_objective_range(
                victim * width,
                &objective[victim * width..(victim + 1) * width],
            )
            .unwrap();

        let opts = SolverOptions::default();
        let mut basis = None;
        for (step, p) in [&base, &tombstoned, &revived].into_iter().enumerate() {
            let cold = p.solve(&opts);
            let warm = match (&basis, &cold) {
                (Some(b), Ok(_)) => Some(p.solve_warm(&opts, b).unwrap()),
                _ => None,
            };
            match cold {
                Ok(cold) => {
                    if let Some(warm) = warm {
                        assert_eq!(warm.x(), cold.x(), "step {}: warm != cold", step);
                        assert_eq!(warm.objective(), cold.objective());
                        assert_eq!(warm.duals(), cold.duals());
                    }
                    let dense = dense(p).unwrap();
                    assert!(
                        (cold.objective() - dense.objective).abs() < 1e-9,
                        "step {step}: sparse {} vs dense {}",
                        cold.objective(),
                        dense.objective
                    );
                    for (j, (a, b)) in cold.x().iter().zip(&dense.x).enumerate() {
                        assert!((a - b).abs() < 1e-9, "step {step} x[{j}]: {a} vs {b}");
                    }
                    basis = cold.basis().cloned();
                }
                Err(_) => {
                    assert!(dense(p).is_err(), "outcome class mismatch");
                    basis = None;
                }
            }
        }
    });
}

/// The solver prices the objective divided by the power of two at or
/// below its largest entry, so scaling it by `2^k` changes nothing
/// but the answer's units: `x` and the basis are bit-identical (on the
/// tableau, which exports no basis, `x` and the pivot count), and the
/// objective and the duals are exactly `2^k` times as large.
#[test]
fn objectives_scaled_by_a_power_of_two_solve_identically() {
    let stream = fnv1a(b"objectives_scaled_by_a_power_of_two_solve_identically");
    run_cases(stream, 96, |rng| {
        let n = rng.int(1usize..8);
        let m = rng.int(1usize..9);
        let with_eq = rng.bool();
        let k = rng.int(-60i32..60);
        let seed = rng.next_u64();
        let p = build_feasible_lp(n, m, with_eq, seed);
        let factor = 2f64.powi(k);
        let mut scaled = p.clone();
        let c: Vec<f64> = p.objective().iter().map(|c| c * factor).collect();
        scaled.set_objective_range(0, &c).unwrap();
        let opts = SolverOptions::default();
        let (a, b) = (p.solve(&opts).unwrap(), scaled.solve(&opts).unwrap());
        assert_eq!(a.x(), b.x(), "revised 2^{}: x", k);
        assert_eq!(a.basis(), b.basis(), "revised 2^{}: basis", k);
        assert_eq!(a.objective() * factor, b.objective(), "revised 2^{}", k);
        let duals: Vec<f64> = a.duals().iter().map(|y| y * factor).collect();
        assert_eq!(&duals[..], b.duals(), "revised 2^{}: duals", k);
        let (a, b) = (dense(&p).unwrap(), dense(&scaled).unwrap());
        assert_eq!(&a.x, &b.x, "tableau 2^{}: x", k);
        assert_eq!(a.iterations, b.iterations, "tableau 2^{}: pivots", k);
        assert_eq!(a.objective * factor, b.objective, "tableau 2^{}", k);
        let duals: Vec<f64> = a.duals.iter().map(|y| y * factor).collect();
        assert_eq!(&duals, &b.duals, "tableau 2^{}: duals", k);
    });
}

/// Objectives of the magnitude the fleet's volume weights produce
/// (`λ·p` with `λ` of 1e6…1e8 bit/s): the oracle and the solver still
/// agree on `x` to 1e-9, and on the objective and duals to 1e-9 of
/// that magnitude.
#[test]
fn rate_weighted_objectives_agree() {
    run_cases(fnv1a(b"rate_weighted_objectives_agree"), 96, |rng| {
        let n = rng.int(2usize..40);
        let rows = rng.int(1usize..6);
        let rate = rng.f64(1e6..1e8);
        let seed = rng.next_u64();
        let mut coeffs = SplitMix64::new(seed);
        let c: Vec<f64> = (0..n).map(|_| rate * coeffs.unit()).collect();
        let mut p = Problem::maximize(c);
        // All mass on column 0 fits every row, so each LP is feasible.
        for _ in 0..rows {
            let usage: Vec<f64> = (0..n).map(|_| rate * coeffs.unit() * 2.0).collect();
            let rhs = usage[0] + rate * (0.05 + coeffs.unit());
            p.add_le(usage, rhs).unwrap();
        }
        p.add_eq(vec![1.0; n], 1.0).unwrap();
        let dense = dense(&p).unwrap();
        let r = p.solve(&SolverOptions::default()).unwrap();
        let close = |a: f64, b: f64, scale: f64| (a - b).abs() <= 1e-9 * scale;
        assert!(close(dense.objective, r.objective(), rate), "objective");
        for (j, (a, b)) in dense.x.iter().zip(r.x()).enumerate() {
            assert!(close(*a, *b, 1.0), "x[{j}] = {a} vs {b}");
        }
        for (i, (a, b)) in dense.duals.iter().zip(r.duals()).enumerate() {
            assert!(close(*a, *b, rate), "dual[{i}] = {a} vs {b}");
        }
    });
}

/// Random edit scripts over a block-angular LP, the incumbent basis
/// carried through every edit: the solve from it and the cold solve
/// of the same problem agree **bit for bit** on `x`, objective and
/// duals, or both report infeasibility.
#[test]
fn edit_scripts_from_the_carried_basis_equal_cold() {
    let stream = fnv1a(b"edit_scripts_from_the_carried_basis_equal_cold");
    run_cases(stream, 96, |rng| {
        let couplings = rng.int(1usize..4);
        let steps = rng.int(4usize..28);
        let seed = rng.next_u64();
        let opts = SolverOptions::default();
        let mut lp = EditedLp::new(couplings, seed);
        for step in 0..steps {
            let edit = (step > 0).then(|| lp.edit());
            let cold = lp.p.solve(&opts);
            let warm = match &lp.basis {
                Some(basis) => lp.p.solve_warm(&opts, basis),
                None => lp.p.solve(&opts),
            };
            match (warm, cold) {
                (Ok(mut warm), Ok(cold)) => {
                    assert_eq!(warm.x(), cold.x(), "step {}: x", step);
                    assert_eq!(warm.objective(), cold.objective(), "step {}", step);
                    assert_eq!(warm.duals(), cold.duals(), "step {}: duals", step);
                    assert!(lp.p.max_violation(warm.x()) < 1e-7);
                    // What the fleet does: the new optimum's basis is the
                    // one carried on (none if an artificial stayed basic).
                    lp.basis = warm.take_basis();
                }
                (Err(SolveError::Infeasible { .. }), Err(SolveError::Infeasible { .. })) => {
                    // A refusal: the candidate (if that is what broke it)
                    // is rolled back and the carried basis kept.
                    if let Some(Edit::Candidate(candidate)) = edit {
                        lp.roll_back(candidate);
                    }
                }
                (warm, cold) => {
                    panic!("step {step}: outcome class mismatch: {warm:?} vs {cold:?}");
                }
            }
        }
    });
}
