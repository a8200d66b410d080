//! The lint crate's own checks: each rule must fire on its checked-in
//! fixture (crates/lint/fixtures/) and the whole tree must scan clean.

use std::path::{Path, PathBuf};

use cpg_lint::{
    check_hot_path, check_recording_view_inline, run, scan, Scanned, RULE_HOT_PATH,
    RULE_RECORDING_VIEW_INLINE,
};

fn fixture(name: &str) -> Scanned {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    scan(&std::fs::read_to_string(path).expect("fixture readable"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn scanner_masks_comments_and_strings_but_keeps_offsets() {
    let source = "let a = \"Vec::new()\"; // .clone() in a comment\nlet b = 2;\n";
    let scanned = scan(source);
    assert_eq!(scanned.code.len(), source.len());
    assert!(!scanned.code.contains("Vec::new"));
    assert!(!scanned.code.contains(".clone()"));
    assert!(scanned.code.contains("let b = 2;"));
    assert_eq!(scanned.comments.len(), 1);
    assert_eq!(scanned.line_of(source.find("let b").unwrap()), 2);
}

#[test]
fn recording_view_methods_without_inline_are_flagged() {
    let findings = check_recording_view_inline(
        "fixture.rs",
        &fixture("r2_missing_inline.rs"),
        &["RecordingView"],
    );
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.rule == RULE_RECORDING_VIEW_INLINE));
    for (finding, method) in
        findings
            .iter()
            .zip(["`set_on`", "`never_inlined`", "`for_each_entry_at_on`"])
    {
        assert!(finding.message.contains(method), "{}", finding.message);
    }
}

#[test]
fn hot_path_allocations_are_flagged_token_by_token() {
    let findings = check_hot_path("fixture.rs", &fixture("r4_hot_path_alloc.rs"));
    assert_eq!(findings.len(), 7, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_HOT_PATH));
    assert!(findings
        .iter()
        .all(|f| f.message.contains("`hot_inner_loop`")));
    for token in [
        "Vec::new",
        "Vec::with_capacity",
        "vec!",
        ".collect()",
        ".to_vec()",
        ".clone()",
        "format!",
    ] {
        assert_eq!(
            findings
                .iter()
                .filter(|f| f.message.contains(&format!("`{token}`")))
                .count(),
            1,
            "expected exactly one finding for {token}: {findings:?}"
        );
    }
}

#[test]
fn the_workspace_scans_clean() {
    let (findings, scanned) = run(&repo_root()).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "the tree must satisfy its own invariants:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        scanned > 50,
        "suspiciously small scan ({scanned} files) — walk is broken"
    );
}
