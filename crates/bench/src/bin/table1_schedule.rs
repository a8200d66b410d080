//! Regenerates the paper's Table 1: the schedule table generated for the
//! Fig. 1 example, plus a simulator cross-check of its worst-case delay.

fn main() {
    print!("{}", cpg_bench::table1_report());
}
