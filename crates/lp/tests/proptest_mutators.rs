//! The in-place mutators against a from-scratch build.
//!
//! A [`Problem`] stores each row as its nonzeros only, and every mutator
//! edits those pair lists in place: `append_block` touches no row,
//! `set_row_range` splices a segment (the same pattern, a new one, all
//! zeros, `-0.0`), `truncate_vars` cuts every row's tail. This suite
//! runs random scripts of those edits on one long-lived problem while a
//! plain dense model of the matrix is edited alongside, and after
//! **every** step rebuilds the problem from the model with the dense
//! `add_le` / `add_ge` / `add_eq` and asserts the two are `==` — equal
//! storage, since a row never holds a zero. At the end the script bounds
//! the LP and retunes every right-hand side around one interior point,
//! and both are solved: [`Backend::Revised`] and [`Backend::Sparse`] must
//! return the same bits from either, and agree with the
//! [`Backend::DenseTableau`] oracle to 1e-9.

use dmc_lp::{Backend, ConstraintKind, Problem, SolverOptions};
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [0, 1) from a seed counter
/// (SplitMix64, same scheme as `proptest_backends.rs`).
fn mix(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One row of the dense model, **as stored** (a `≥` row negated).
struct ModelRow {
    stored: Vec<f64>,
    rhs: f64,
    kind: ConstraintKind,
    /// Rebuilt through `add_ge` (from the un-negated values) rather than
    /// `add_le`, so the dense trio is exercised whole.
    ge: bool,
}

/// The problem under edit and the dense model it must stay equal to.
struct Script {
    p: Problem,
    objective: Vec<f64>,
    rows: Vec<ModelRow>,
    block_starts: Vec<usize>,
    seed: u64,
}

impl Script {
    fn new(seed: u64) -> Self {
        let mut s = Script {
            p: Problem::maximize(Vec::new()),
            objective: Vec::new(),
            rows: Vec::new(),
            block_starts: Vec::new(),
            seed,
        };
        s.append_block();
        s
    }

    fn pick(&mut self, n: usize) -> usize {
        (mix(&mut self.seed) * n as f64) as usize % n.max(1)
    }

    /// A coefficient: mostly a positive number, sometimes either zero.
    fn coeff(&mut self) -> f64 {
        match self.pick(8) {
            0 => 0.0,
            1 => -0.0,
            _ => 0.05 + mix(&mut self.seed),
        }
    }

    /// Fleet-shaped growth: the block's columns, its segment of a few
    /// existing rows, and its own `Σx = 1` row.
    fn append_block(&mut self) {
        let width = 1 + self.pick(4);
        let c: Vec<f64> = (0..width).map(|_| 0.2 + mix(&mut self.seed)).collect();
        let cols = self.p.append_block(&c).unwrap();
        self.block_starts.push(cols.start);
        self.objective.extend_from_slice(&c);
        for row in &mut self.rows {
            row.stored.resize(cols.end, 0.0);
        }
        for _ in 0..self.pick(3).min(self.rows.len()) {
            let row = self.pick(self.rows.len());
            let seg: Vec<f64> = (0..width).map(|_| self.coeff()).collect();
            self.write(row, cols.start, &seg);
        }
        let ones: Vec<(usize, f64)> = cols.map(|j| (j, 1.0)).collect();
        self.add_sparse(ConstraintKind::Eq, false, &ones, 1.0);
    }

    fn add_sparse(&mut self, kind: ConstraintKind, ge: bool, entries: &[(usize, f64)], rhs: f64) {
        match (kind, ge) {
            (ConstraintKind::Eq, _) => self.p.add_eq_sparse(entries, rhs),
            (ConstraintKind::LessEq, false) => self.p.add_le_sparse(entries, rhs),
            (ConstraintKind::LessEq, true) => self.p.add_ge_sparse(entries, rhs),
        }
        .unwrap();
        let sign = if ge { -1.0 } else { 1.0 };
        let mut stored = vec![0.0; self.objective.len()];
        for &(j, v) in entries {
            stored[j] = sign * v;
        }
        self.rows.push(ModelRow {
            stored,
            rhs: sign * rhs,
            kind,
            ge,
        });
    }

    /// A random `≤` or `≥` row over a random subset of the columns
    /// (explicit zeros among the entries included), roomy enough to be
    /// met most of the time.
    fn add_random_row(&mut self) {
        let n = self.objective.len();
        let mut entries = Vec::new();
        for j in 0..n {
            if self.pick(3) > 0 {
                entries.push((j, self.coeff()));
            }
        }
        let sum: f64 = entries.iter().map(|e| e.1).sum();
        if self.pick(3) == 0 {
            let floor = 0.1 * mix(&mut self.seed) * sum / n as f64;
            self.add_sparse(ConstraintKind::LessEq, true, &entries, floor);
        } else {
            let cap = (0.3 + mix(&mut self.seed)) * sum.max(0.5);
            self.add_sparse(ConstraintKind::LessEq, false, &entries, cap);
        }
    }

    fn write(&mut self, row: usize, start: usize, vals: &[f64]) {
        self.p.set_row_range(row, start, vals).unwrap();
        self.rows[row].stored[start..start + vals.len()].copy_from_slice(vals);
    }

    /// `set_row_range` in each of its regimes over a random range of a
    /// random row.
    fn set_row_range(&mut self) {
        let n = self.objective.len();
        let row = self.pick(self.rows.len());
        let start = self.pick(n);
        let len = 1 + self.pick(n - start);
        let old = self.rows[row].stored[start..start + len].to_vec();
        let sign = if self.rows[row].ge { -1.0 } else { 1.0 };
        let vals: Vec<f64> = match self.pick(4) {
            // The same pattern with new values — a rescale.
            // dmc-lint: allow(float-exact) the pattern of a row is its exact nonzeros
            0 => old
                .iter()
                .map(|&v| if v != 0.0 { v * 1.5 } else { v })
                .collect(),
            // A new pattern.
            1 => (0..len).map(|_| sign * self.coeff()).collect(),
            // The segment leaves the row, under either zero.
            2 => vec![0.0; len],
            _ => vec![-0.0; len],
        };
        self.write(row, start, &vals);
    }

    fn set_rhs(&mut self) {
        let row = self.pick(self.rows.len());
        let rhs = self.rows[row].rhs * (0.5 + mix(&mut self.seed));
        self.p.set_rhs(row, rhs).unwrap();
        self.rows[row].rhs = rhs;
    }

    fn truncate_rows(&mut self) {
        // Never below one row, so the LP stays bounded by something.
        let m = 1 + self.pick(self.rows.len());
        self.p.truncate_rows(m);
        self.rows.truncate(m);
    }

    /// To any column count ≥ 1, not only a block boundary.
    fn truncate_vars(&mut self) {
        let n = 1 + self.pick(self.objective.len());
        self.p.truncate_vars(n);
        self.objective.truncate(n);
        for row in &mut self.rows {
            row.stored.truncate(n);
        }
        self.block_starts.retain(|&s| s < n);
    }

    /// The closing edits: a box row over every column bounds the LP, and
    /// every right-hand side is retuned so one interior point satisfies
    /// its row — whatever the script did, the result has an optimum.
    fn make_solvable(&mut self) {
        let n = self.objective.len();
        let all: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
        self.add_sparse(ConstraintKind::LessEq, false, &all, 1.0);
        let x0: Vec<f64> = (0..n).map(|_| 0.1 + mix(&mut self.seed)).collect();
        for row in 0..self.rows.len() {
            let lhs: f64 = self.rows[row]
                .stored
                .iter()
                .zip(&x0)
                .map(|(a, x)| a * x)
                .sum();
            let rhs = match self.rows[row].kind {
                ConstraintKind::Eq => lhs,
                ConstraintKind::LessEq => lhs + mix(&mut self.seed),
            };
            self.p.set_rhs(row, rhs).unwrap();
            self.rows[row].rhs = rhs;
        }
    }

    fn step(&mut self) {
        match self.pick(10) {
            0 | 1 => self.append_block(),
            2 | 3 => self.add_random_row(),
            4..=6 => self.set_row_range(),
            7 => self.set_rhs(),
            8 => self.truncate_rows(),
            _ => self.truncate_vars(),
        }
    }

    /// The model's matrix built once, through the dense constructors.
    fn rebuilt(&self) -> Problem {
        let mut p = Problem::maximize(self.objective.clone());
        for row in &self.rows {
            match (row.kind, row.ge) {
                (ConstraintKind::Eq, _) => p.add_eq(&row.stored, row.rhs),
                (ConstraintKind::LessEq, false) => p.add_le(&row.stored, row.rhs),
                (ConstraintKind::LessEq, true) => {
                    let plain: Vec<f64> = row.stored.iter().map(|v| -v).collect();
                    p.add_ge(plain, -row.rhs)
                }
            }
            .unwrap();
        }
        p.set_block_starts(self.block_starts.clone()).unwrap();
        p
    }
}

fn opts(backend: Backend) -> SolverOptions {
    SolverOptions {
        backend,
        ..SolverOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edited_in_place_equals_built_once(steps in 1usize..40, seed in any::<u64>()) {
        let mut script = Script::new(seed);
        for step in 0..steps {
            script.step();
            prop_assert_eq!(&script.p, &script.rebuilt(), "after step {}", step);
        }
        script.make_solvable();
        let (edited, rebuilt) = (&script.p, script.rebuilt());
        prop_assert_eq!(edited, &rebuilt);
        let dense = edited.solve(&opts(Backend::DenseTableau)).unwrap();
        for backend in [Backend::Revised, Backend::Sparse] {
            let (a, b) = (
                edited.solve(&opts(backend)).unwrap(),
                rebuilt.solve(&opts(backend)).unwrap(),
            );
            prop_assert_eq!(a.x(), b.x(), "{:?}: x", backend);
            prop_assert_eq!(a.objective().to_bits(), b.objective().to_bits());
            prop_assert_eq!(a.duals(), b.duals(), "{:?}: duals", backend);
            prop_assert!(
                (a.objective() - dense.objective()).abs() < 1e-9,
                "{backend:?} {} vs dense {}",
                a.objective(),
                dense.objective()
            );
            for (j, (x, d)) in a.x().iter().zip(dense.x()).enumerate() {
                prop_assert!((x - d).abs() < 1e-9, "{backend:?} x[{j}]: {x} vs dense {d}");
            }
            a.certify(edited).map_err(TestCaseError)?;
        }
    }
}
