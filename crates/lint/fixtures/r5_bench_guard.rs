// A bench_guard whose gate names groups that do not exist (or are shaped
// wrong). The lint resolves these against the group-name string literals
// found in crates/bench/benches/*.rs.

const GATED_PREFIXES: &[&str] = &[
    "schedule_merging_serial/",
    "renamed_group_that_is_gone/",
    "missing_trailing_slash",
];

fn main() {
    let _ = GATED_PREFIXES;
}
