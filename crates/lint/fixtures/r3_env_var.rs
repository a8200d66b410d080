// An ambient environment read outside crates/core/src/config.rs. The
// mentions in this comment (std::env::var) and the string below must not
// be flagged; set_var is a write and is likewise not flagged.

fn threads() -> usize {
    let documented = "std::env::var(\"CPG_SUITE_THREADS\")";
    std::env::set_var("CPG_LINT_FIXTURE", documented);
    std::env::var("CPG_SUITE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn platform() -> Option<std::ffi::OsString> {
    std::env::var_os("CPG_PLATFORM")
}
