//! Workspace invariant lints — a token-level scanner for the two
//! conventions of this repo that neither `rustc` nor `clippy` can check:
//!
//! - **recording-view-inline** — every method of the inherent
//!   `impl RecordingView` blocks in `crates/table/src/txn.rs` is
//!   `#[inline]`: the merge walk reads and writes the table through these
//!   on its hottest edge and must not pay a call across the crate
//!   boundary. Clippy's `missing_inline_in_public_items` skips private
//!   methods such as `RecordingView::touch`.
//! - **hot-path-alloc** — a function annotated with a marker comment (a
//!   line comment whose text starts with `lint: hot-path`) must not call
//!   `Vec::new`, `Vec::with_capacity`, `vec!`, `.collect()`, `.to_vec()`,
//!   `.clone()` or `format!`: these are the allocation-free inner loops of
//!   the decision-tree walk, the list scheduler and the simulator, whose
//!   buffers live in reused scratch arenas. Counting allocations at run
//!   time would need a `GlobalAlloc`, which is `unsafe`.
//!
//! The scanner is deliberately not a parser: [`scan`] strips comments and
//! string literals (preserving byte offsets), and the rules work on the
//! masked code with brace matching. That is exact enough for the two
//! invariants above and keeps the crate dependency-free.
//!
//! Every other repo convention has one owner elsewhere:
//! `unsafe_code = "forbid"` in the workspace lints (and in each vendored
//! shim's `[lints.rust]`); environment reads through clippy's
//! `disallowed-methods` in the root `clippy.toml`; gated bench groups
//! through `bench_guard`, which fails when a gated group is absent from
//! either side; and the adversarial corpus through
//! `tests/adversarial_corpus.rs`, which fails on a missing or empty
//! directory.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule identifier for the `RecordingView` `#[inline]` check.
pub const RULE_RECORDING_VIEW_INLINE: &str = "recording-view-inline";
/// Rule identifier for the hot-path allocation check.
pub const RULE_HOT_PATH: &str = "hot-path-alloc";

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

/// Lexically split `source` into masked code and comments.
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
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    j += 1;
                }
                let hashes = j - i - 1;
                i = j + 1;
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

/// Walks backwards from a `fn` keyword over visibility qualifiers and
/// attributes; true if one of the attributes is `#[inline]` or
/// `#[inline(always)]`.
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
                // `#[inline(never)]` forbids exactly what the rule wants.
                let attr: String = code[j + 1..k - 1]
                    .chars()
                    .filter(|c| !c.is_whitespace())
                    .collect();
                if attr == "inline" || attr == "inline(always)" {
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
            // crate's own tests.
            if matches!(name, "target" | "fixtures") {
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

    // hot-path-alloc: all first-party sources.
    let mut first_party = Vec::new();
    rs_files_under(&root.join("crates"), &mut first_party)?;
    rs_files_under(&root.join("src"), &mut first_party)?;
    rs_files_under(&root.join("tests"), &mut first_party)?;
    for path in &first_party {
        scanned_files += 1;
        findings.extend(check_hot_path(&rel(root, path), &read_scanned(path)?));
    }

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok((findings, scanned_files))
}
