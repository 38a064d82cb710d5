//! Regenerates Table IV of the paper.
//!
//! Exact LP only — no simulation, so of the shared flag vocabulary only
//! `--help` is meaningful; the rest are accepted and ignored.

#![forbid(unsafe_code)]

use dmc_experiments::table4;

fn main() {
    let args = dmc_experiments::parse_args(100_000);
    let obs = args.obs();
    println!("# Table IV — optimal solutions for the Table III network\n");
    println!("## Top: δ = 800 ms, data rate λ swept\n");
    let lambdas: Vec<f64> = table4::PAPER_TOP.iter().map(|(l, _)| *l).collect();
    let rows = table4::top(&lambdas, &obs);
    println!("{}", table4::render(&rows, "λ (Mbps)", 1e-6));
    println!("paper qualities: 100, 100, 100, 100, 100, 84, 70, 60 (%)\n");

    println!("## Bottom: λ = 90 Mbps, lifetime δ swept\n");
    let deltas: Vec<f64> = table4::PAPER_BOTTOM.iter().map(|(d, _)| *d).collect();
    let rows = table4::bottom(&deltas, &obs);
    println!("{}", table4::render(&rows, "δ (ms)", 1e3));
    println!("paper qualities: 22.2, 22.2, 84.4, 84.4, 93.3, 93.3, 93.3 (%)");
    println!("\nNote: the LP optimum is degenerate at several operating points;");
    println!("the solver may report a different optimal vertex than the paper's,");
    println!("with identical quality and per-path send rates.");
    dmc_experiments::finish_metrics(&args, &obs);
}
