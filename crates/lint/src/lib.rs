//! Workspace invariant lints — a token-level scanner for conventions that
//! `rustc` and `clippy` cannot express because they are *about this repo*,
//! not about Rust:
//!
//! - **recording-view-inline** — every method of the inherent
//!   `impl RecordingView` blocks in `crates/table/src/txn.rs` is
//!   `#[inline]`: the merge walk reads and writes the table through these
//!   on its hottest edge and must not pay a call across the crate
//!   boundary.
//! - **env-var-outside-config** — `std::env::var` reads appear only in
//!   `crates/core/src/config.rs` (`threads_from_env` and its test helper);
//!   everything else takes configuration as arguments so behaviour never
//!   depends on ambient process state.
//! - **hot-path-alloc** — a function annotated with a marker comment (a
//!   line comment whose text starts with `lint: hot-path`) must not call
//!   `Vec::new`, `Vec::with_capacity`, `vec!`, `.collect()`, `.to_vec()`,
//!   `.clone()` or `format!`: these are the allocation-free inner loops of
//!   the decision-tree walk, the list scheduler and the simulator, whose
//!   buffers live in reused scratch arenas.
//! - **bench-prefix** — every gated bench prefix named in `bench_guard`
//!   matches a benchmark group that actually exists in
//!   `crates/bench/benches/`, so the regression gate can never silently
//!   gate nothing.
//! - **corpus-dir** — every string literal naming a path under
//!   `tests/corpus/` resolves to something that exists, and a referenced
//!   directory is non-empty, so a replay suite whose corpus was renamed or
//!   never committed cannot pass vacuously.
//!
//! The scanner is deliberately not a parser: [`scan`] strips comments and
//! string literals (preserving byte offsets), and the rules work on the
//! masked code with brace matching. That is exact enough for the five
//! invariants above and keeps the crate dependency-free.
//!
//! "No unsafe code" is not among them: `unsafe_code = "forbid"` in the
//! workspace's `[workspace.lints.rust]` (and in each vendored shim's
//! `[lints.rust]`) makes rustc reject it in every target, tests, benches
//! and examples included.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule identifier for the `RecordingView` `#[inline]` check.
pub const RULE_RECORDING_VIEW_INLINE: &str = "recording-view-inline";
/// Rule identifier for the environment-read containment check.
pub const RULE_ENV_VAR: &str = "env-var-outside-config";
/// Rule identifier for the hot-path allocation check.
pub const RULE_HOT_PATH: &str = "hot-path-alloc";
/// Rule identifier for the bench-guard prefix existence check.
pub const RULE_BENCH_PREFIX: &str = "bench-prefix";
/// Rule identifier for the corpus-path existence check.
pub const RULE_CORPUS_DIR: &str = "corpus-dir";

/// The comment marker that puts the next function under [`RULE_HOT_PATH`].
/// A line comment whose (trimmed) text starts with this string marks the
/// next `fn` in the file.
pub const HOT_PATH_MARKER: &str = "lint: hot-path";

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token (or 1 for whole-file rules).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A line comment (`//`) or block comment (`/* */`) found by [`scan`].
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// Byte offset just past the end of the comment.
    pub end: usize,
    /// Comment text without the delimiters.
    pub text: String,
}

/// A string literal found by [`scan`].
#[derive(Debug, Clone)]
pub struct StrLit {
    /// 1-based line the literal starts on.
    pub line: usize,
    /// Byte offset of the opening quote (or `r` for raw strings).
    pub start: usize,
    /// Literal content without the delimiters (escapes left as written).
    pub text: String,
}

/// The result of lexically splitting a source file: `code` is the original
/// text with every comment and string/char literal blanked to spaces
/// (newlines preserved), so token searches over it cannot be fooled by
/// text inside literals or comments.
#[derive(Debug)]
pub struct Scanned {
    /// Source with comments and literals masked; same byte length as the
    /// input, newlines preserved.
    pub code: String,
    /// All comments, in file order.
    pub comments: Vec<Comment>,
    /// All string literals, in file order.
    pub strings: Vec<StrLit>,
}

impl Scanned {
    /// 1-based line number of a byte offset into the (masked) source.
    #[must_use]
    pub fn line_of(&self, offset: usize) -> usize {
        1 + self.code.as_bytes()[..offset.min(self.code.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn blank(code: &mut [u8], range: std::ops::Range<usize>) {
    for b in &mut code[range] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// Lexically split `source` into masked code, comments and string literals.
///
/// Handles line comments, nested block comments, plain and raw strings
/// (any number of `#`s), escaped quotes, and character literals (with a
/// lifetime heuristic: `'a` without a closing quote is left as code).
#[must_use]
pub fn scan(source: &str) -> Scanned {
    let bytes = source.as_bytes();
    let len = bytes.len();
    let mut code = bytes.to_vec();
    let mut comments = Vec::new();
    let mut strings = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < len {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                i += 2;
                while i < len && bytes[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    end: i,
                    text: source[start + 2..i].to_string(),
                });
                blank(&mut code, start..i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < len && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let text_end = i.saturating_sub(2).max(start + 2);
                comments.push(Comment {
                    line: start_line,
                    end: i,
                    text: source[start + 2..text_end].to_string(),
                });
                blank(&mut code, start..i);
            }
            b'"' => {
                let start = i;
                let start_line = line;
                i += 1;
                while i < len {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                let text_end = i.saturating_sub(1).max(start + 1);
                strings.push(StrLit {
                    line: start_line,
                    start,
                    text: source[start + 1..text_end].to_string(),
                });
                blank(&mut code, start..i);
            }
            b'r' if (i == 0 || !is_ident(bytes[i - 1])) && {
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                bytes.get(j) == Some(&b'"')
            } =>
            {
                let start = i;
                let start_line = line;
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                let hashes = j - i - 1;
                let body_start = j + 1;
                i = body_start;
                while i < len {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'"'
                        && bytes[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&b| b == b'#')
                            .count()
                            == hashes
                    {
                        break;
                    } else {
                        i += 1;
                    }
                }
                let text_end = i.min(len);
                strings.push(StrLit {
                    line: start_line,
                    start,
                    text: source[body_start.min(len)..text_end].to_string(),
                });
                i = (i + 1 + hashes).min(len);
                blank(&mut code, start..i);
            }
            b'\'' => {
                // Char literal vs lifetime: `'\x'`, `'x'` are literals;
                // `'a` followed by anything but `'` is a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let start = i;
                    i += 2;
                    while i < len && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i = (i + 1).min(len);
                    blank(&mut code, start..i);
                } else if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                    blank(&mut code, i..i + 3);
                    i += 3;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    Scanned {
        code: String::from_utf8_lossy(&code).into_owned(),
        comments,
        strings,
    }
}

/// Finds the next occurrence of `needle` in `haystack` at or after `from`
/// with identifier-boundary checks on both sides.
fn find_word(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut search = from;
    while let Some(rel) = haystack.get(search..)?.find(needle) {
        let pos = search + rel;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let after = pos + needle.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return Some(pos);
        }
        search = pos + 1;
    }
    None
}

/// Byte offset just past the brace that closes the one at `open`.
fn matching_brace(code: &[u8], open: usize, open_byte: u8, close_byte: u8) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        if code[i] == open_byte {
            depth += 1;
        } else if code[i] == close_byte {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len()
}

fn ident_after(code: &str, from: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = from;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    let start = i;
    while i < bytes.len() && is_ident(bytes[i]) {
        i += 1;
    }
    code[start..i].to_string()
}

/// Rule `env-var-outside-config`: no `env::var` reads in this file.
#[must_use]
pub fn check_env_var(file: &str, scanned: &Scanned) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut from = 0;
    while let Some(pos) = {
        // `env::var` and `env::var_os` both read ambient process state;
        // boundary-check only the front so the `_os` suffix matches too.
        let bytes = scanned.code.as_bytes();
        let mut found = None;
        let mut search = from;
        while let Some(rel) = scanned.code.get(search..).and_then(|s| s.find("env::var")) {
            let p = search + rel;
            if p == 0 || !is_ident(bytes[p - 1]) {
                found = Some(p);
                break;
            }
            search = p + 1;
        }
        found
    } {
        findings.push(Finding {
            rule: RULE_ENV_VAR,
            file: file.to_string(),
            line: scanned.line_of(pos),
            message: "environment read outside crates/core/src/config.rs \
                      (route it through MergeConfig / threads_from_env)"
                .to_string(),
        });
        from = pos + 1;
    }
    findings
}

/// Walks backwards from a `fn` keyword over visibility qualifiers and
/// attributes; true if one of the attributes mentions `inline`.
fn has_inline_attr(code: &str, lower: usize, fn_pos: usize) -> bool {
    let bytes = code.as_bytes();
    let mut k = fn_pos;
    loop {
        while k > lower && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        if k <= lower {
            return false;
        }
        match bytes[k - 1] {
            b')' => {
                // Visibility scope such as `pub(crate)`.
                let mut depth = 0usize;
                let mut j = k;
                while j > lower {
                    j -= 1;
                    if bytes[j] == b')' {
                        depth += 1;
                    } else if bytes[j] == b'(' {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                k = j;
            }
            b']' => {
                let mut depth = 0usize;
                let mut j = k;
                while j > lower {
                    j -= 1;
                    if bytes[j] == b']' {
                        depth += 1;
                    } else if bytes[j] == b'[' {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                if code[j + 1..k - 1].contains("inline") {
                    return true;
                }
                // Step over the `#` (and `#!`, though inner attributes
                // cannot precede a method) introducing the attribute.
                k = j;
                while k > lower && (bytes[k - 1] == b'#' || bytes[k - 1] == b'!') {
                    k -= 1;
                }
            }
            b if is_ident(b) => {
                let mut s = k;
                while s > lower && is_ident(bytes[s - 1]) {
                    s -= 1;
                }
                match &code[s..k] {
                    "pub" | "const" | "unsafe" | "async" | "extern" | "default" => k = s,
                    _ => return false,
                }
            }
            _ => return false,
        }
    }
}

/// Rule `recording-view-inline`: every method of an inherent `impl` block
/// whose self type starts with one of `targets` carries `#[inline]`. Trait
/// impls (`impl Trait for …`) are not checked.
#[must_use]
pub fn check_recording_view_inline(
    file: &str,
    scanned: &Scanned,
    targets: &[&str],
) -> Vec<Finding> {
    let code = &scanned.code;
    let bytes = code.as_bytes();
    let mut findings = Vec::new();
    let mut search = 0;
    while let Some(pos) = find_word(code, "impl", search) {
        search = pos + 1;
        let Some(open_rel) = code[pos..].find('{') else {
            break;
        };
        let open = pos + open_rel;
        // The self type: the header past `impl` and its generic parameters.
        let mut start = pos + "impl".len();
        while bytes[start].is_ascii_whitespace() {
            start += 1;
        }
        if bytes[start] == b'<' {
            start = matching_brace(bytes, start, b'<', b'>') + 1;
        }
        let target = code[start..open].trim();
        if find_word(target, "for", 0).is_some() || !targets.iter().any(|t| target.starts_with(t)) {
            continue;
        }
        let close = matching_brace(bytes, open, b'{', b'}');
        let mut depth = 0usize;
        let mut j = open + 1;
        while j < close {
            match bytes[j] {
                b'{' => {
                    depth += 1;
                    j += 1;
                }
                b'}' => {
                    depth -= 1;
                    j += 1;
                }
                b'f' if depth == 0
                    && code[j..].starts_with("fn")
                    && !is_ident(bytes[j - 1])
                    && bytes.get(j + 2).is_some_and(|&b| !is_ident(b)) =>
                {
                    let name = ident_after(code, j + 2);
                    if !has_inline_attr(code, open + 1, j) {
                        findings.push(Finding {
                            rule: RULE_RECORDING_VIEW_INLINE,
                            file: file.to_string(),
                            line: scanned.line_of(j),
                            message: format!(
                                "method `{name}` of `{target}` is missing #[inline] \
                                 (the walk calls it on the hot path)"
                            ),
                        });
                    }
                    // Jump past the method body so nested items are skipped.
                    if let Some(body_rel) = code[j..close].find('{') {
                        j = matching_brace(bytes, j + body_rel, b'{', b'}') + 1;
                    } else {
                        j += 2;
                    }
                }
                _ => j += 1,
            }
        }
        search = close;
    }
    findings
}

const HOT_PATH_FORBIDDEN: &[(&str, &str)] = &[
    ("Vec::new", "allocates a fresh Vec"),
    ("Vec::with_capacity", "allocates a fresh Vec"),
    ("vec!", "allocates a fresh Vec"),
    (".collect()", "collects into a fresh container"),
    (".to_vec()", "copies a slice into a fresh Vec"),
    (".clone()", "deep-clones"),
    ("format!", "allocates a String"),
];

/// Rule `hot-path-alloc`: a function annotated with [`HOT_PATH_MARKER`]
/// must not contain any of the forbidden allocation tokens.
#[must_use]
pub fn check_hot_path(file: &str, scanned: &Scanned) -> Vec<Finding> {
    let code = &scanned.code;
    let bytes = code.as_bytes();
    let mut findings = Vec::new();
    for comment in &scanned.comments {
        if !comment.text.trim_start().starts_with(HOT_PATH_MARKER) {
            continue;
        }
        let Some(fn_pos) = find_word(code, "fn", comment.end) else {
            continue;
        };
        let name = ident_after(code, fn_pos + 2);
        let Some(open_rel) = code[fn_pos..].find('{') else {
            continue;
        };
        let open = fn_pos + open_rel;
        let close = matching_brace(bytes, open, b'{', b'}');
        for &(token, why) in HOT_PATH_FORBIDDEN {
            let mut from = open;
            while let Some(rel) = code[from..close].find(token) {
                let pos = from + rel;
                let front_ok = !token.as_bytes()[0].is_ascii_alphanumeric()
                    || pos == 0
                    || !is_ident(bytes[pos - 1]);
                if front_ok {
                    findings.push(Finding {
                        rule: RULE_HOT_PATH,
                        file: file.to_string(),
                        line: scanned.line_of(pos),
                        message: format!(
                            "`{name}` is marked `{HOT_PATH_MARKER}` but `{token}` {why}"
                        ),
                    });
                }
                from = pos + 1;
            }
        }
    }
    findings
}

/// Extracts the string literals of the `&[&str]` array initializing the
/// given `const` in an already-scanned file.
#[must_use]
pub fn const_str_array(scanned: &Scanned, const_name: &str) -> Vec<StrLit> {
    let Some(decl) = find_word(&scanned.code, const_name, 0) else {
        return Vec::new();
    };
    let Some(eq_rel) = scanned.code[decl..].find('=') else {
        return Vec::new();
    };
    let eq = decl + eq_rel;
    let Some(open_rel) = scanned.code[eq..].find('[') else {
        return Vec::new();
    };
    let open = eq + open_rel;
    let close = matching_brace(scanned.code.as_bytes(), open, b'[', b']');
    scanned
        .strings
        .iter()
        .filter(|lit| lit.start > open && lit.start < close)
        .cloned()
        .collect()
}

/// Rule `bench-prefix`: every prefix in the guard's `GATED_PREFIXES` must
/// end with `/` and name a benchmark group that exists (i.e. appears as a
/// string literal in some bench target).
#[must_use]
pub fn check_bench_prefixes(
    guard_file: &str,
    guard: &Scanned,
    bench_group_literals: &[String],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for lit in const_str_array(guard, "GATED_PREFIXES") {
        let Some(stem) = lit.text.strip_suffix('/') else {
            findings.push(Finding {
                rule: RULE_BENCH_PREFIX,
                file: guard_file.to_string(),
                line: lit.line,
                message: format!(
                    "GATED_PREFIXES entry {:?} must end with '/' to match whole groups",
                    lit.text
                ),
            });
            continue;
        };
        if !bench_group_literals.iter().any(|name| name == stem) {
            findings.push(Finding {
                rule: RULE_BENCH_PREFIX,
                file: guard_file.to_string(),
                line: lit.line,
                message: format!(
                    "GATED_PREFIXES entry {:?} matches no benchmark group in \
                     crates/bench/benches/ (group {stem:?} not found)",
                    lit.text
                ),
            });
        }
    }
    findings
}

/// Rule `corpus-dir`: every string literal naming a path under
/// `tests/corpus/` must resolve, relative to the workspace root, to
/// something that exists — and a referenced directory must be non-empty.
/// Replay suites enumerate their corpus directory at runtime; without this
/// check, a renamed or never-committed corpus makes them pass vacuously
/// (or fail far from the cause) instead of failing the lint pass.
#[must_use]
pub fn check_corpus_dirs(file: &str, scanned: &Scanned, root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for lit in &scanned.strings {
        if !lit.text.starts_with("tests/corpus/") {
            continue;
        }
        let target = root.join(&lit.text);
        if !target.exists() {
            findings.push(Finding {
                rule: RULE_CORPUS_DIR,
                file: file.to_string(),
                line: lit.line,
                message: format!(
                    "corpus path {:?} does not exist under the workspace root",
                    lit.text
                ),
            });
        } else if target.is_dir() {
            let populated = fs::read_dir(&target).is_ok_and(|mut entries| entries.next().is_some());
            if !populated {
                findings.push(Finding {
                    rule: RULE_CORPUS_DIR,
                    file: file.to_string(),
                    line: lit.line,
                    message: format!(
                        "corpus directory {:?} is empty — bank entries into it \
                         or drop the reference",
                        lit.text
                    ),
                });
            }
        }
    }
    findings
}

fn rs_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // `fixtures` holds deliberately-violating inputs for the lint
            // crate's own tests; `corpus` holds schedule traces.
            if matches!(name, "target" | "fixtures" | "corpus") {
                continue;
            }
            rs_files_under(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

fn read_scanned(path: &Path) -> io::Result<Scanned> {
    Ok(scan(&fs::read_to_string(path)?))
}

/// Runs every rule over the workspace rooted at `root`, returning all
/// findings sorted by file and line. Also returns the number of files
/// scanned so an accidentally-empty walk is visible.
pub fn run(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let mut findings = Vec::new();
    let mut scanned_files = 0usize;

    // recording-view-inline: the one file holding the view.
    let txn = root.join("crates/table/src/txn.rs");
    if txn.is_file() {
        scanned_files += 1;
        findings.extend(check_recording_view_inline(
            &rel(root, &txn),
            &read_scanned(&txn)?,
            &["RecordingView"],
        ));
    }

    // env-var-outside-config + hot-path-alloc: all first-party sources.
    let mut first_party = Vec::new();
    rs_files_under(&root.join("crates"), &mut first_party)?;
    rs_files_under(&root.join("src"), &mut first_party)?;
    rs_files_under(&root.join("tests"), &mut first_party)?;
    let config_rs = root.join("crates/core/src/config.rs");
    for path in &first_party {
        scanned_files += 1;
        let scanned = read_scanned(path)?;
        let file = rel(root, path);
        if *path != config_rs {
            findings.extend(check_env_var(&file, &scanned));
        }
        findings.extend(check_hot_path(&file, &scanned));
        findings.extend(check_corpus_dirs(&file, &scanned, root));
    }

    // bench-prefix: guard constants against the bench targets' group names.
    let guard = root.join("crates/bench/src/bin/bench_guard.rs");
    if guard.is_file() {
        let mut bench_files = Vec::new();
        rs_files_under(&root.join("crates/bench/benches"), &mut bench_files)?;
        let mut group_literals = Vec::new();
        for path in &bench_files {
            group_literals.extend(read_scanned(path)?.strings.into_iter().map(|lit| lit.text));
        }
        scanned_files += 1;
        findings.extend(check_bench_prefixes(
            &rel(root, &guard),
            &read_scanned(&guard)?,
            &group_literals,
        ));
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok((findings, scanned_files))
}
