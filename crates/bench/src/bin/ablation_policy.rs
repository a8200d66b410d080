//! Ablation study (not in the paper): effect of the back-step path-selection
//! policy and of the condition-broadcast time on the quality of the generated
//! schedule tables.
//!
//! Usage: `ablation_policy [graphs]` (default 20).

fn main() {
    let graphs = cpg_bench::count_arg("ablation_policy [graphs]", 20);
    print!("{}", cpg_bench::ablation_report(graphs));
}
