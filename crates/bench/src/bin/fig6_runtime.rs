//! Regenerates the paper's Fig. 6: the average execution time of the schedule
//! merging as a function of the number of merged schedules, for graphs of 60,
//! 80 and 120 nodes (plus the per-path list-scheduling time, which the paper
//! reports as "less than 0.003 seconds for graphs having 120 nodes").
//!
//! Usage: `fig6_runtime [graphs_per_size]` (default 30; the paper uses 360).

fn main() {
    let graphs_per_size = cpg_bench::count_arg("fig6_runtime [graphs_per_size]", 30);
    eprintln!("running the Fig. 6 experiment on {graphs_per_size} graphs per size...");
    let outcomes = cpg_bench::run_suite(graphs_per_size);
    print!("{}", cpg_bench::fig6_rows(&outcomes));
}
