//! Regenerates the paper's Table 2: the worst-case delays of the three OAM
//! operating modes on the ten candidate architectures, next to the published
//! values.

fn main() {
    print!("{}", cpg_bench::table2_report());
}
