//! The lint crate's own checks: each rule must fire on its checked-in
//! fixture (crates/lint/fixtures/) and the whole tree must scan clean.

use std::path::{Path, PathBuf};

use cpg_lint::{
    check_bench_prefixes, check_corpus_dirs, check_env_var, check_forbid_unsafe, check_hot_path,
    check_recording_view_inline, run, scan, Scanned, RULE_BENCH_PREFIX, RULE_CORPUS_DIR,
    RULE_ENV_VAR, RULE_FORBID_UNSAFE, RULE_HOT_PATH, RULE_RECORDING_VIEW_INLINE,
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
    assert_eq!(scanned.strings.len(), 1);
    assert_eq!(scanned.strings[0].text, "Vec::new()");
    assert_eq!(scanned.comments.len(), 1);
    assert_eq!(scanned.line_of(source.find("let b").unwrap()), 2);
}

#[test]
fn missing_forbid_unsafe_is_flagged() {
    let findings = check_forbid_unsafe("fixture.rs", &fixture("r1_missing_forbid.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, RULE_FORBID_UNSAFE);

    let present = scan("#![forbid(unsafe_code)]\npub fn ok() {}\n");
    assert!(check_forbid_unsafe("ok.rs", &present).is_empty());
}

#[test]
fn recording_view_methods_without_inline_are_flagged() {
    let findings = check_recording_view_inline(
        "fixture.rs",
        &fixture("r2_missing_inline.rs"),
        &["RecordingView"],
    );
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.rule == RULE_RECORDING_VIEW_INLINE));
    assert!(
        findings[0].message.contains("`set_on`"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("`for_each_entry_at_on`"),
        "{}",
        findings[1].message
    );
}

#[test]
fn env_reads_are_flagged_but_writes_and_strings_are_not() {
    let findings = check_env_var("fixture.rs", &fixture("r3_env_var.rs"));
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_ENV_VAR));
    // One plain read, one `_os` read — set_var and the string/comment
    // mentions stay silent.
    assert_ne!(findings[0].line, findings[1].line);
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
fn stale_or_misshapen_bench_prefixes_are_flagged() {
    let groups = vec![
        "schedule_merging_serial".to_string(),
        "path_list_scheduling".to_string(),
    ];
    let findings = check_bench_prefixes("fixture.rs", &fixture("r5_bench_guard.rs"), &groups);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_BENCH_PREFIX));
    assert!(
        findings[0].message.contains("renamed_group_that_is_gone/"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("missing_trailing_slash"),
        "{}",
        findings[1].message
    );
}

#[test]
fn missing_and_empty_corpus_dirs_are_flagged() {
    // An empty directory cannot be committed to git, so the fixture root is
    // built at runtime. The path segments are joined piecewise because this
    // file is itself scanned by `run`, and a literal starting with the
    // corpus prefix would have to exist under the real workspace root.
    let root = std::env::temp_dir().join("cpg_lint_r6_fixture_root");
    let _ = std::fs::remove_dir_all(&root);
    let corpus = root.join("tests").join("corpus");
    std::fs::create_dir_all(corpus.join("empty_bank")).expect("fixture root writable");
    std::fs::create_dir_all(corpus.join("populated")).expect("fixture root writable");
    std::fs::write(corpus.join("populated").join("w00.txt"), "seed: 1\n")
        .expect("fixture entry writable");

    let findings = check_corpus_dirs("fixture.rs", &fixture("r6_corpus_dir.rs"), &root);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == RULE_CORPUS_DIR));
    assert!(
        findings[0].message.contains("never_committed"),
        "{}",
        findings[0].message
    );
    assert!(
        findings[1].message.contains("empty_bank"),
        "{}",
        findings[1].message
    );
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
