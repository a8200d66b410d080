//! `cpg-fuzz --replay` on entries the generator cannot realise.

use std::process::Command;

#[test]
fn replaying_an_infeasible_entry_reports_it_without_a_panic() {
    // 32 alternative paths need a skeleton of 5 two-way stages, 20
    // processes; the entry has 5.
    let path = std::env::temp_dir().join(format!("cpg_fuzz_infeasible_{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "nodes: 5\npaths: 32\nprocessors: 2\nbuses: 1\nmax_comm: 5\nseed: 1\n",
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_cpg-fuzz"))
        .arg("--replay")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("does not materialize: cannot realise 32 alternative paths"),
        "{stderr}"
    );
}
