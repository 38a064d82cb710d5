//! Regenerates Figure 4: LP solve times vs. problem size.
//!
//! Accepts the shared flag vocabulary (`--runs N` / env `RUNS` selects
//! the timing repetitions; see `--help`).

#![forbid(unsafe_code)]

use dmc_experiments::figure4;
use dmc_obs::WallProfiler;

fn main() {
    let args = dmc_experiments::parse_args(100_000);
    let runs = args.runs as usize;
    let obs = args.obs();
    eprintln!("averaging over {runs} runs per point (set --runs/RUNS to change)…");
    println!("# Figure 4 — model build + solve time (paper: log-scale ms, 2.8 GHz i5)\n");
    let mut wall = WallProfiler::new();
    let pts = figure4::sweep(runs, &obs);
    wall.mark("sweep");
    println!("{}", figure4::render(&pts));
    println!(
        "\n§VIII-B reference point: 2 paths (+blackhole), 2 transmissions ≈ 458 µs with CGAL."
    );
    dmc_experiments::finish_metrics(&args, &obs);
    wall.mark("report");
    eprint!("{}", wall.render());
}
