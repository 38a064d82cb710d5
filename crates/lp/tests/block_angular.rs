//! Fixed block-angular LPs in the fleet's joint shape, built the way the
//! fleet builds them — one [`Problem::append_block`] per flow, then the
//! shared capacity rows and each block's `Σx = 1` row from their
//! nonzeros — solved by the solver on its declared blocks and held to
//! the dense tableau oracle to 1e-9, up to 24 blocks.

use dmc_lp::{Problem, SolverOptions};

/// `blocks` blocks of `width` columns: two capacity rows over every
/// column, then one `Σx = 1` row per block.
fn block_angular(blocks: usize, width: usize) -> Problem {
    let n = blocks * width;
    let objective = |j: usize| 0.3 + 0.6 * ((j as f64 * 0.7389).sin() * 0.5 + 0.5);
    let mut p = Problem::maximize(Vec::new());
    for f in 0..blocks {
        let block: Vec<f64> = (f * width..(f + 1) * width).map(objective).collect();
        p.append_block(&block).unwrap();
    }
    for k in 0..2usize {
        let row: Vec<(usize, f64)> = (0..n)
            .map(|j| (j, 0.1 + ((j + 7 * k) as f64 * 0.4243).cos().abs()))
            .collect();
        p.add_le_sparse(&row, 0.4 * blocks as f64 + k as f64 * 0.2)
            .unwrap();
    }
    for f in 0..blocks {
        let row: Vec<(usize, f64)> = (f * width..(f + 1) * width).map(|j| (j, 1.0)).collect();
        p.add_eq_sparse(&row, 1.0).unwrap();
    }
    p
}

#[test]
fn block_angular_lps_match_the_tableau() {
    for (blocks, width) in [(1usize, 9usize), (4, 9), (16, 5), (24, 9)] {
        let p = block_angular(blocks, width);
        assert_eq!(p.block_starts().len(), blocks);
        let sparse = p.solve(&SolverOptions::default()).unwrap();
        let dense = dmc_lp_oracle::solve(&p).unwrap();
        assert!(
            (sparse.objective() - dense.objective).abs() < 1e-9,
            "{blocks}x{width}: {} vs {}",
            sparse.objective(),
            dense.objective
        );
        for (j, (a, b)) in sparse.x().iter().zip(&dense.x).enumerate() {
            assert!((a - b).abs() < 1e-9, "{blocks}x{width} x[{j}]: {a} vs {b}");
        }
        assert!(p.max_violation(sparse.x()) < 1e-7);
    }
}
