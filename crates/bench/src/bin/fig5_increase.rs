//! Regenerates the paper's Fig. 5: the average percentage increase of the
//! worst-case delay over the longest-path delay as a function of the number
//! of merged schedules, for graphs of 60, 80 and 120 nodes, plus the fraction
//! of graphs with zero increase.
//!
//! Usage: `fig5_increase [graphs_per_size]` (default 30; the paper uses 360).

fn main() {
    let graphs_per_size = cpg_bench::count_arg("fig5_increase [graphs_per_size]", 30);
    eprintln!("running the Fig. 5 experiment on {graphs_per_size} graphs per size...");
    let outcomes = cpg_bench::run_suite(graphs_per_size);
    print!("{}", cpg_bench::fig5_rows(&outcomes));
}
