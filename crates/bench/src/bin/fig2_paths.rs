//! Regenerates the paper's Fig. 2: the lengths of the optimal schedules of
//! the alternative paths of the Fig. 1 example and the decision tree explored
//! while merging them.

fn main() {
    print!("{}", cpg_bench::fig2_report());
}
