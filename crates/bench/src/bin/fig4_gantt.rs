//! Regenerates the paper's Fig. 4: the optimal schedules of the two longest
//! alternative paths of the Fig. 1 example and the adjusted activation times
//! the merged schedule table assigns to the second of them.

fn main() {
    print!("{}", cpg_bench::fig4_report());
}
