//! `mrs-lint`: a token-level scanner enforcing the project's
//! determinism, hygiene, and concurrency-discipline rules that clippy
//! cannot express.
//!
//! Rules (see DESIGN.md "Correctness architecture" for the policy):
//!
//! * `wall-clock` — no `SystemTime`/`Instant` in library or binary
//!   code: experiment results must be functions of their seeds, never of
//!   the host clock. (The bench harness measures wall time by design —
//!   it carries an allowlist entry.)
//! * `hash-map` — no `std::collections::HashMap` import in result-path
//!   code without an allowlist entry documenting why its iteration
//!   order never reaches an output (HashMap iteration order is
//!   nondeterministic across runs in general; this workspace's
//!   `HashMap`s are grouped-by-key scratch whose outputs are re-sorted,
//!   and each use site must say so).
//! * `unwrap` — no `.unwrap()` / `panic!` in library crates outside
//!   tests; fallible paths return `Result`, infallible ones use
//!   `expect` with a proof-of-invariant message (the repo convention).
//! * `float-eq` — no `==`/`!=` against float literals outside approved
//!   digest modules; determinism comparisons go through `to_bits` or
//!   explicit tolerances.
//! * `header` — every crate root (`lib.rs`) carries
//!   `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
//!
//! The `atomics` family keeps concurrency in one reviewed place: every
//! synchronization primitive in the site fabric must route through
//! `mrs_shardexec::sync` (the crate's one import point, which
//! re-exports the `std` lock, condition variable and thread types), so
//! hand-rolled concurrency anywhere else is a finding:
//!
//! * `atomics-raw` — `std::sync::atomic` / `core::sync::atomic` /
//!   `loom::` / `std::hint::spin_loop` paths anywhere outside the shim;
//!   inside `crates/shardexec/` (where every primitive must come from
//!   the shim) also `std::thread` (except the pure unwind query
//!   `std::thread::panicking`) and the blocking `std::sync` primitives
//!   (`Mutex`, `Condvar`, `RwLock`, `Barrier`, `mpsc`).
//! * `atomics-prim` — concurrency-primitive identifiers (`Atomic*`,
//!   `Condvar`, `Barrier`, `park`, `unpark`, `spawn`) outside
//!   `crates/shardexec/` entirely: other crates have no business
//!   spinning up threads or atomics except the allowlisted `par_map`
//!   sweep driver, whose entry documents why (speedup only, results
//!   merged in index order).
//! * `atomics-ordering` — a memory-ordering token
//!   (`Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}`) outside the
//!   shim. The fabric's threads share state only under a mutex, so an
//!   ordering token elsewhere means someone hand-rolled a lock-free
//!   protocol outside the reviewed import point (`cmp::Ordering`
//!   variants do not trigger this).
//! * `unsafe-code` — the `unsafe` keyword or a `static mut` anywhere,
//!   including binaries (the `header` rule only sees crate roots).
//!
//! The scanner masks comments and string/char literals first (spaces,
//! line structure preserved), so rules see only code tokens: a pattern
//! quoted in a doc comment or a panic message never fires. Whole
//! `tests/`, `benches/`, and `examples/` trees are exempt;
//! `#[cfg(test)]` modules are scoped by brace depth wherever they
//! appear in a file (not just at the end); and individual lines can
//! carry an inline `lint:allow(rule)` waiver. Everything else goes
//! through the committed allowlist file with a reason per entry.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

// The scanner's own pattern literals never flag this file: the masking
// pass blanks string literals before any rule runs. The `concat!`
// splits are kept on the line-oriented legacy patterns so the raw
// (pre-mask) waiver scan stays self-clean too.
const WALL_CLOCK_WORDS: [&str; 2] = [concat!("Sys", "temTime"), concat!("Ins", "tant")];
const HASH_MAP_IMPORT: &str = concat!("collections::", "HashMap");
const UNWRAP_CALL: &str = concat!(".unw", "rap()");
const PANIC_CALL: &str = concat!("pan", "ic!(");
const INLINE_WAIVER: &str = concat!("lint:", "allow(");
const FORBID_UNSAFE: &str = concat!("#![forbid(unsafe", "_code)]");
const WARN_MISSING_DOCS: &str = concat!("#![warn(missing", "_docs)]");

/// The five memory-ordering variants; `cmp::Ordering`'s variants are
/// deliberately absent.
const ORDERING_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Identifiers that mean hand-rolled concurrency when they appear
/// outside `crates/shardexec/`.
const PRIM_IDENTS: [&str; 17] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "Condvar",
    "Barrier",
    "park",
    "unpark",
    "spawn",
];

/// Raw-primitive paths banned everywhere outside the sync shim.
const RAW_GLOBAL_PATHS: [&str; 4] = [
    "std::sync::atomic",
    "core::sync::atomic",
    "loom::",
    "std::hint::spin_loop",
];

/// Additional raw paths banned inside `crates/shardexec/` (outside the
/// shim): even the blocking primitives route through `sync`, so every
/// lock and thread the crate uses is visible in one module.
const RAW_SHARDEXEC_PATHS: [&str; 5] = [
    "std::sync::Mutex",
    "std::sync::Condvar",
    "std::sync::RwLock",
    "std::sync::Barrier",
    "std::sync::mpsc",
];

/// The path prefix of the sync shim — the one sanctioned importer of
/// raw primitives.
const SHIM_PREFIX: &str = "crates/shardexec/src/sync/";

/// The threaded crate: `atomics-prim` identifiers are legitimate here
/// (they *are* the shim's API), raw paths are not.
const SHARDEXEC_PREFIX: &str = "crates/shardexec/";

/// One lint hit: rule, location, and the offending line.
#[derive(Clone, Debug, PartialEq)]
pub struct LintFinding {
    /// The rule that fired (`wall-clock`, `hash-map`, `unwrap`,
    /// `float-eq`, `header`, `atomics-raw`, `atomics-prim`,
    /// `atomics-ordering`, `unsafe-code`).
    pub rule: &'static str,
    /// Path relative to the scanned root, with `/` separators.
    pub path: String,
    /// 1-based line number (0 for file-level rules like `header`).
    pub line: usize,
    /// The offending line, trimmed (empty for file-level rules).
    pub text: String,
    /// Whether a committed allowlist entry waives this finding.
    pub waived: bool,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.waived { " (waived)" } else { "" };
        write!(
            f,
            "{}:{}: [{}]{} {}",
            self.path, self.line, self.rule, mark, self.text
        )
    }
}

/// The committed waiver table: `(rule, path-prefix, reason)` rows parsed
/// from `lint-allow.txt`. A finding is waived when a row's rule matches
/// and its path prefix matches the finding's path.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    entries: Vec<(String, String, String)>,
}

impl Allowlist {
    /// Parses the allowlist format: one entry per line,
    /// `rule path-prefix reason...`; `#` starts a comment.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next().unwrap_or_default().to_owned();
            let prefix = parts.next().unwrap_or_default().to_owned();
            let reason = parts.next().unwrap_or_default().trim().to_owned();
            if !rule.is_empty() && !prefix.is_empty() {
                entries.push((rule, prefix, reason));
            }
        }
        Allowlist { entries }
    }

    /// Loads and parses the allowlist at `path`; a missing file is an
    /// empty allowlist.
    pub fn load(path: &Path) -> Self {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    /// Whether `(rule, path)` is waived by some entry.
    pub fn waives(&self, rule: &str, path: &str) -> bool {
        self.entries
            .iter()
            .any(|(r, prefix, _)| r == rule && path.starts_with(prefix.as_str()))
    }

    /// The parsed entries (for reporting unused waivers).
    pub fn entries(&self) -> &[(String, String, String)] {
        &self.entries
    }
}

/// How a file participates in the scan.
#[derive(Clone, Copy, Debug, PartialEq)]
enum FileClass {
    /// Library code: all rules.
    Lib,
    /// Binary (`src/bin/`, `main.rs`): determinism rules only —
    /// `unwrap`/`panic!` are acceptable in CLI argument handling.
    Bin,
    /// `tests/`, `benches/`, `examples/`: exempt.
    Exempt,
}

fn classify(rel: &str) -> FileClass {
    let components: Vec<&str> = rel.split('/').collect();
    if components
        .iter()
        .any(|c| *c == "tests" || *c == "benches" || *c == "examples")
    {
        return FileClass::Exempt;
    }
    if components.contains(&"bin") || components.last() == Some(&"main.rs") {
        return FileClass::Bin;
    }
    FileClass::Lib
}

// ---------------------------------------------------------------------------
// Source masking
// ---------------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replaces every byte inside comments, string literals (plain, raw,
/// byte, C), and char literals with a space, preserving newlines and
/// therefore line numbers and column positions. Rules that run on the
/// masked text see only code tokens; lifetimes (`'a`) survive intact.
///
/// The masker is a plain byte scanner: every Rust delimiter is ASCII,
/// and ASCII bytes never occur inside a multi-byte UTF-8 sequence, so
/// byte-wise scanning is sound and space-replacement keeps the output
/// valid UTF-8.
pub fn mask_source(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = bytes.to_vec();
    let n = bytes.len();
    let mut i = 0;
    let mask = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < n {
        match bytes[i] {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let end = text[i..].find('\n').map_or(n, |p| i + p);
                mask(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                // Block comments nest in Rust.
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && bytes[i] == b'/' && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                mask(&mut out, start, i);
            }
            b'r' | b'b' | b'c'
                if !(i > 0 && is_ident_byte(bytes[i - 1]))
                    && raw_or_prefixed_string(bytes, i).is_some() =>
            {
                let (body_start, end) = raw_or_prefixed_string(bytes, i)
                    .expect("checked by the guard on this match arm");
                mask(&mut out, body_start, end);
                i = end;
            }
            b'"' => {
                // Masking through the closing quote (or to EOF when
                // unterminated) can never split a multi-byte char.
                let end = skip_plain_string(bytes, i);
                mask(&mut out, i + 1, end);
                i = end;
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    mask(&mut out, i + 1, end - 1);
                    i = end;
                } else {
                    // A lifetime: keep it and move on.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("space-masking ASCII delimiters preserves UTF-8 validity")
}

/// If `bytes[i]` starts a prefixed string (`r"`, `r#"`, `b"`, `br#"`,
/// `c"`, ...), returns `(body_start, end_after_closing_quote)`.
fn raw_or_prefixed_string(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    let n = bytes.len();
    let mut j = i;
    // Optional b/c prefix before an optional r.
    if j < n && (bytes[j] == b'b' || bytes[j] == b'c') {
        j += 1;
    }
    let raw = j < n && bytes[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != b'"' {
        return None;
    }
    if !raw {
        // b"..." / c"..." use plain escape rules.
        let end = skip_plain_string(bytes, j);
        return Some((j + 1, end));
    }
    let body = j + 1;
    let mut k = body;
    while k < n {
        if bytes[k] == b'"' {
            let mut h = 0usize;
            while h < hashes && k + 1 + h < n && bytes[k + 1 + h] == b'#' {
                h += 1;
            }
            if h == hashes {
                return Some((body, k + 1 + hashes));
            }
        }
        k += 1;
    }
    Some((body, n))
}

/// Returns the index just past the closing quote of the plain string
/// starting at `bytes[i] == b'"'`.
fn skip_plain_string(bytes: &[u8], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i + 1;
    while j < n {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    n
}

/// If `bytes[i] == b'\''` starts a char literal (as opposed to a
/// lifetime), returns the index just past the closing quote.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let n = bytes.len();
    if i + 1 >= n {
        return None;
    }
    if bytes[i + 1] == b'\\' {
        // Escape: find the closing quote (handles '\'' and '\u{..}').
        let mut j = i + 2;
        while j < n && bytes[j] != b'\'' {
            j += 1;
        }
        return (j < n).then_some(j + 1);
    }
    // One char (possibly multi-byte) then a quote => literal; an ident
    // char without a closing quote right after => lifetime.
    let mut j = i + 1;
    if j < n {
        // Advance one UTF-8 char.
        j += 1;
        while j < n && (bytes[j] & 0xC0) == 0x80 {
            j += 1;
        }
    }
    (j < n && bytes[j] == b'\'').then_some(j + 1)
}

// ---------------------------------------------------------------------------
// Token helpers (all run on masked lines)
// ---------------------------------------------------------------------------

fn contains_word(line: &str, word: &str) -> bool {
    find_word(line, word).is_some()
}

/// First occurrence of `word` (which may contain `::`) bounded by
/// non-identifier bytes, or `None`. A boundary is only required on a
/// side where the pattern itself ends in an identifier byte, so
/// `loom::` matches inside `loom::sync`.
fn find_word(line: &str, word: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let word_bytes = word.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let i = start + pos;
        let j = i + word.len();
        let before_ok = !is_ident_byte(word_bytes[0]) || i == 0 || !is_ident_byte(bytes[i - 1]);
        let after_ok = !is_ident_byte(word_bytes[word.len() - 1])
            || j >= bytes.len()
            || !is_ident_byte(bytes[j]);
        if before_ok && after_ok {
            return Some(i);
        }
        start = j;
    }
    None
}

/// Iterates the identifier tokens of a masked line.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty() && !t.starts_with(|c: char| c.is_ascii_digit()))
}

/// True when the line uses a memory-ordering token: the `Ordering`
/// identifier followed by `::` and one of the five memory variants.
/// `cmp::Ordering::{Less,Equal,Greater}` never matches.
fn has_memory_ordering(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find("Ordering") {
        let i = start + pos;
        let mut j = i + "Ordering".len();
        start = j;
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        if !before_ok || (j < bytes.len() && is_ident_byte(bytes[j])) {
            continue;
        }
        while j < bytes.len() && bytes[j] == b' ' {
            j += 1;
        }
        if !line[j..].starts_with("::") {
            continue;
        }
        j += 2;
        while j < bytes.len() && bytes[j] == b' ' {
            j += 1;
        }
        let mut k = j;
        while k < bytes.len() && is_ident_byte(bytes[k]) {
            k += 1;
        }
        if ORDERING_VARIANTS.contains(&&line[j..k]) {
            return true;
        }
    }
    false
}

/// True when the line reaches into `std::thread` for anything except
/// the pure unwind query `std::thread::panicking` (which the fabric's
/// drop guards legitimately use).
fn has_raw_thread_use(line: &str) -> bool {
    let pat = "std::thread";
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(pat) {
        let i = start + pos;
        let j = i + pat.len();
        start = j;
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        if !before_ok || (j < bytes.len() && is_ident_byte(bytes[j])) {
            continue;
        }
        if !line[j..].starts_with("::panicking") {
            return true;
        }
    }
    false
}

/// True when the line declares a `static mut` (token pair, any
/// spacing).
fn has_static_mut(line: &str) -> bool {
    let Some(i) = find_word(line, "static") else {
        return false;
    };
    let rest = line[i + "static".len()..].trim_start();
    rest.starts_with("mut") && (rest.len() == 3 || !is_ident_byte(rest.as_bytes()[3]))
}

// ---------------------------------------------------------------------------
// Float-literal comparison detection
// ---------------------------------------------------------------------------

/// True when `line` compares against a float literal with `==`/`!=`.
fn has_float_eq(line: &str) -> bool {
    let bytes = line.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        if (bytes[i] == b'=' || bytes[i] == b'!') && bytes[i + 1] == b'=' {
            // Skip `<=`, `>=`, `==>` arrows and triple-equals noise.
            if i > 0 && matches!(bytes[i - 1], b'<' | b'>' | b'=' | b'!') {
                continue;
            }
            if i + 2 < bytes.len() && bytes[i + 2] == b'=' {
                continue;
            }
            if float_literal_adjacent(line, i, i + 2) {
                return true;
            }
        }
    }
    false
}

fn float_literal_adjacent(line: &str, op_start: usize, op_end: usize) -> bool {
    let bytes = line.as_bytes();
    // Token after the operator.
    let mut j = op_end;
    while j < bytes.len() && bytes[j] == b' ' {
        j += 1;
    }
    let mut k = j;
    while k < bytes.len()
        && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'.' || bytes[k] == b'_')
    {
        k += 1;
    }
    if is_float_literal(&line[j..k]) {
        return true;
    }
    // Token before the operator.
    let mut i = op_start;
    while i > 0 && bytes[i - 1] == b' ' {
        i -= 1;
    }
    let mut h = i;
    while h > 0
        && (bytes[h - 1].is_ascii_alphanumeric() || bytes[h - 1] == b'.' || bytes[h - 1] == b'_')
    {
        h -= 1;
    }
    is_float_literal(&line[h..i])
}

fn is_float_literal(token: &str) -> bool {
    let token = token.trim_end_matches("f64").trim_end_matches("f32");
    token.contains('.')
        && !token.is_empty()
        && token.chars().next().is_some_and(|c| c.is_ascii_digit())
        && token.parse::<f64>().is_ok()
}

// ---------------------------------------------------------------------------
// The scanner
// ---------------------------------------------------------------------------

/// Where the line scanner is relative to `#[cfg(test)]` modules.
#[derive(Clone, Copy, Debug, PartialEq)]
enum TestScope {
    /// Scanning normally.
    Code,
    /// Saw a test-cfg attribute at the recorded brace depth; waiting
    /// for the module's opening brace.
    Pending(i64),
    /// Inside a test module that opened at the recorded depth.
    Inside(i64),
}

fn is_test_attr(trimmed: &str) -> bool {
    trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test")
}

/// Scans one file's text. `rel` is the root-relative path used in
/// findings and for classification.
pub fn lint_file(rel: &str, text: &str, allow: &Allowlist) -> Vec<LintFinding> {
    let class = classify(rel);
    if class == FileClass::Exempt {
        return Vec::new();
    }
    let in_shim = rel.starts_with(SHIM_PREFIX);
    let in_shardexec = rel.starts_with(SHARDEXEC_PREFIX);
    let mut out = Vec::new();
    let is_crate_root = rel.ends_with("src/lib.rs");
    if is_crate_root {
        for (needle, what) in [
            (FORBID_UNSAFE, "forbid(unsafe_code)"),
            (WARN_MISSING_DOCS, "warn(missing_docs)"),
        ] {
            if !text.contains(needle) {
                out.push(LintFinding {
                    rule: "header",
                    path: rel.to_owned(),
                    line: 0,
                    text: format!("crate root missing #![{what}] header"),
                    waived: allow.waives("header", rel),
                });
            }
        }
    }
    let masked = mask_source(text);
    let mut depth: i64 = 0;
    let mut scope = TestScope::Code;
    for (idx, (raw, masked_line)) in text.lines().zip(masked.lines()).enumerate() {
        let line = masked_line.trim();
        let opens = masked_line.bytes().filter(|&b| b == b'{').count() as i64;
        let closes = masked_line.bytes().filter(|&b| b == b'}').count() as i64;
        match scope {
            TestScope::Pending(d0) => {
                depth += opens - closes;
                if opens > 0 {
                    scope = if depth > d0 {
                        TestScope::Inside(d0)
                    } else {
                        // The whole module opened and closed on one line.
                        TestScope::Code
                    };
                } else if line.ends_with(';') {
                    // The attribute gated a braceless item (`use`,
                    // `mod t;`): nothing further to skip.
                    scope = TestScope::Code;
                }
                continue;
            }
            TestScope::Inside(d0) => {
                depth += opens - closes;
                if depth <= d0 {
                    scope = TestScope::Code;
                }
                continue;
            }
            TestScope::Code => {}
        }
        if is_test_attr(line) {
            scope = TestScope::Pending(depth);
            depth += opens - closes;
            continue;
        }
        depth += opens - closes;
        if line.is_empty() {
            continue;
        }
        // The waiver lives in a comment, so it is checked pre-mask.
        if raw.contains(INLINE_WAIVER) {
            continue;
        }
        let mut push = |rule: &'static str| {
            out.push(LintFinding {
                rule,
                path: rel.to_owned(),
                line: idx + 1,
                text: line.to_owned(),
                waived: allow.waives(rule, rel),
            });
        };
        if WALL_CLOCK_WORDS.iter().any(|w| contains_word(line, w)) {
            push("wall-clock");
        }
        if line.contains(HASH_MAP_IMPORT) {
            push("hash-map");
        }
        if class == FileClass::Lib && (line.contains(UNWRAP_CALL) || line.contains(PANIC_CALL)) {
            push("unwrap");
        }
        if has_float_eq(line) {
            push("float-eq");
        }
        if !in_shim {
            if RAW_GLOBAL_PATHS.iter().any(|p| contains_word(line, p))
                || (in_shardexec
                    && (has_raw_thread_use(line)
                        || RAW_SHARDEXEC_PATHS.iter().any(|p| contains_word(line, p))))
            {
                push("atomics-raw");
            }
            if !in_shardexec && idents(line).any(|id| PRIM_IDENTS.contains(&id)) {
                push("atomics-prim");
            }
            if has_memory_ordering(line) {
                push("atomics-ordering");
            }
        }
        if contains_word(line, "unsafe") || has_static_mut(line) {
            push("unsafe-code");
        }
    }
    out
}

/// Recursively collects every `.rs` file under `root` (skipping
/// `target`, hidden directories, and anything that is not a regular
/// file), in sorted order for deterministic output.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        children.sort();
        for child in children {
            let name = child
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if child.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(child);
            } else if name.ends_with(".rs") {
                out.push(child);
            }
        }
    }
    out.sort();
    out
}

/// Lints every workspace source under `root` against `allow`. Findings
/// come back in sorted (path, line) order.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for path in workspace_sources(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => continue,
        };
        out.extend(lint_file(&rel, &text, allow));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, text: &str) -> Vec<LintFinding> {
        lint_file(rel, text, &Allowlist::default())
    }

    fn rules(rel: &str, text: &str) -> Vec<&'static str> {
        findings(rel, text).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_flags_instant_but_not_substrings() {
        let text = "use std::time::Instant;\nlet x = instantiate();\n";
        let v = findings("crates/x/src/a.rs", text);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wall-clock");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_rule_is_lib_only_and_stops_at_tests() {
        let lib = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        let v = findings("crates/x/src/a.rs", lib);
        assert_eq!(v.len(), 1, "{v:?}");
        let bin = findings("crates/x/src/bin/tool.rs", lib);
        assert!(bin.is_empty(), "binaries may unwrap: {bin:?}");
        let test = findings("crates/x/tests/a.rs", lib);
        assert!(test.is_empty(), "tests are exempt");
    }

    #[test]
    fn mid_file_test_module_does_not_exempt_the_rest() {
        // Regression: the old scanner stopped at the *first* test-cfg
        // attribute, so a mid-file test module exempted everything
        // after it. Brace-depth scoping resumes scanning once the
        // module closes.
        let text = "fn a() {}\n\
                    #[cfg(test)]\n\
                    mod early {\n\
                        fn t() { x.unwrap(); }\n\
                    }\n\
                    fn b() { y.unwrap(); }\n";
        let v = findings("crates/x/src/a.rs", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6, "the post-module violation is caught");
    }

    #[test]
    fn cfg_all_test_modules_are_scoped_too() {
        let text = "#[cfg(all(test, not(loom)))]\n\
                    mod t {\n\
                        fn g() { y.unwrap(); }\n\
                    }\n\
                    fn f() { x.unwrap(); }\n";
        let v = findings("crates/x/src/a.rs", text);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn masking_hides_comments_strings_and_chars() {
        // Every would-be violation below sits in a comment or literal.
        let text = "// uses Instant and park\n\
                    /* std::sync::atomic::AtomicU32 */\n\
                    fn f() -> &'static str { \"Instant .unwrap() Ordering::SeqCst\" }\n\
                    fn g() -> char { 'I' }\n\
                    fn h() -> &'static str { r#\"static mut spawn\"# }\n";
        let v = findings("crates/x/src/a.rs", text);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn masking_preserves_code_after_literals() {
        // The violation shares a line with a string literal: masking
        // must blank only the literal, not the trailing code.
        let text = "fn f() { log(\"ok\"); x.unwrap(); }\n";
        assert_eq!(rules("crates/x/src/a.rs", text), vec!["unwrap"]);
    }

    #[test]
    fn hash_map_import_is_flagged() {
        let text = "use std::collections::HashMap;\n";
        let v = findings("crates/x/src/a.rs", text);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hash-map");
    }

    #[test]
    fn float_eq_flags_literal_comparisons_only() {
        let flag = |s: &str| !findings("crates/x/src/a.rs", s).is_empty();
        assert!(flag("if x == 0.0 {\n"));
        assert!(flag("if 1.5f64 != y {\n"));
        assert!(!flag("if x == y {\n"), "no literal involved");
        assert!(!flag("if x <= 0.0 {\n"), "ordering comparisons are fine");
        assert!(!flag("assert_eq!(a, b);\n"));
    }

    #[test]
    fn header_rule_checks_crate_roots() {
        let v = findings("crates/x/src/lib.rs", "//! docs\n");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|f| f.rule == "header"));
        let ok = format!("{FORBID_UNSAFE}\n{WARN_MISSING_DOCS}\n");
        assert!(findings("crates/x/src/lib.rs", &ok).is_empty());
    }

    #[test]
    fn allowlist_waives_by_rule_and_prefix() {
        let allow =
            Allowlist::parse("# comment\nwall-clock crates/bench/src/ benches measure wall time\n");
        assert!(allow.waives("wall-clock", "crates/bench/src/harness.rs"));
        assert!(!allow.waives("wall-clock", "crates/core/src/lib.rs"));
        assert!(!allow.waives("unwrap", "crates/bench/src/harness.rs"));
        assert_eq!(allow.entries().len(), 1);
    }

    #[test]
    fn inline_waiver_suppresses_a_line() {
        let text = format!("use std::time::Instant; // {}wall-clock)\n", INLINE_WAIVER);
        let v = findings("crates/x/src/a.rs", &text);
        assert!(v.is_empty(), "{v:?}");
    }

    // --- the atomics family -------------------------------------------------

    #[test]
    fn raw_atomic_import_is_flagged_outside_the_shim() {
        // The seeded mutation: routing around the shim from inside the
        // fabric must be caught.
        let text = "use std::sync::atomic::AtomicU32;\n";
        assert_eq!(
            rules("crates/shardexec/src/pool.rs", text),
            vec!["atomics-raw"]
        );
        // ... and from any other crate (prim fires too: raw idents).
        assert_eq!(
            rules("crates/runtime/src/runtime.rs", text),
            vec!["atomics-raw", "atomics-prim"]
        );
        // ... but the shim itself is the sanctioned importer.
        assert!(findings("crates/shardexec/src/sync/mod.rs", text).is_empty());
    }

    #[test]
    fn loom_paths_are_shim_only() {
        let text = "use loom::sync::atomic::AtomicU64;\n";
        assert_eq!(
            rules("crates/shardexec/src/fabric.rs", text),
            vec!["atomics-raw"]
        );
        assert!(findings("crates/shardexec/src/sync/mod.rs", text).is_empty());
    }

    #[test]
    fn std_thread_in_shardexec_is_raw_except_panicking() {
        let spawn = "let h = std::thread::spawn(f);\n";
        assert_eq!(
            rules("crates/shardexec/src/pool.rs", spawn),
            vec!["atomics-raw"]
        );
        let panicking = "if std::thread::panicking() { return; }\n";
        assert!(
            findings("crates/shardexec/src/pool.rs", panicking).is_empty(),
            "the unwind query is not a sync primitive"
        );
        // Outside shardexec the path alone is fine (determinism crates
        // may query available_parallelism)...
        assert!(findings(
            "crates/exp/src/config.rs",
            "std::thread::available_parallelism();\n"
        )
        .is_empty());
        // ...but spawning threads is a prim finding there.
        assert_eq!(
            rules("crates/exp/src/runner.rs", spawn),
            vec!["atomics-prim"]
        );
    }

    #[test]
    fn blocking_primitives_in_shardexec_route_through_the_shim() {
        let text = "use std::sync::Mutex;\n";
        assert_eq!(
            rules("crates/shardexec/src/state.rs", text),
            vec!["atomics-raw"]
        );
        // Other crates may use std::sync::Mutex freely.
        assert!(findings("crates/runtime/src/runtime.rs", text).is_empty());
        // Arc is not a blocking primitive anywhere.
        assert!(findings("crates/shardexec/src/pool.rs", "use std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn prim_idents_are_flagged_outside_shardexec_only() {
        for text in [
            "let n = AtomicUsize::new(0);\n",
            "scope.spawn(|| work());\n",
            "handle.thread().unpark();\n",
            "let b = Barrier::new(4);\n",
        ] {
            assert_eq!(
                rules("crates/exp/src/runner.rs", text),
                vec!["atomics-prim"],
                "{text}"
            );
            assert!(
                findings("crates/shardexec/src/pool.rs", text).is_empty(),
                "shardexec uses these idents *as* the shim API: {text}"
            );
        }
        // Substrings of longer idents never fire.
        assert!(findings("crates/exp/src/runner.rs", "sync::spawn_named(name, f);\n").is_empty());
    }

    #[test]
    fn memory_ordering_tokens_are_shim_only() {
        // The seeded mutation: a raw ordering choice outside the shim
        // (here together with the raw path that carries it).
        let text = "x.load(std::sync::atomic::Ordering::Relaxed);\n";
        assert_eq!(
            rules("crates/shardexec/src/pool.rs", text),
            vec!["atomics-raw", "atomics-ordering"]
        );
        assert!(findings("crates/shardexec/src/sync/mod.rs", text).is_empty());
        // A bare ordering token (imported elsewhere) still fires.
        assert_eq!(
            rules(
                "crates/runtime/src/runtime.rs",
                "x.store(1, Ordering::SeqCst);\n"
            ),
            vec!["atomics-ordering"]
        );
        // cmp::Ordering is a different enum and never fires.
        assert!(findings(
            "crates/runtime/src/runtime.rs",
            "if cmp == std::cmp::Ordering::Greater { return; }\n"
        )
        .is_empty());
    }

    #[test]
    fn unsafe_code_is_flagged_everywhere_including_bins() {
        assert_eq!(
            rules("crates/x/src/a.rs", "unsafe { *ptr = 1; }\n"),
            vec!["unsafe-code"]
        );
        assert_eq!(
            rules("crates/x/src/bin/tool.rs", "static mut COUNTER: u32 = 0;\n"),
            vec!["unsafe-code"]
        );
        // The forbid header names a different token.
        assert!(findings("crates/x/src/a.rs", "#![forbid(unsafe_code)]\n").is_empty());
        assert!(findings("crates/x/src/a.rs", "let static_mutation = 1;\n").is_empty());
    }

    #[test]
    fn workspace_lints_clean_with_committed_allowlist() {
        // The committed tree + committed waivers = zero unwaived
        // findings, so any new violation (or stale waiver path) fails
        // tier-1 here, not just in CI.
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let allow = Allowlist::load(&root.join("lint-allow.txt"));
        let unwaived: Vec<LintFinding> = lint_workspace(root, &allow)
            .into_iter()
            .filter(|f| !f.waived)
            .collect();
        assert!(
            unwaived.is_empty(),
            "unwaived lint findings:\n{}",
            unwaived
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The scanner and the allowlist parser accept arbitrary text
        /// without panicking (multi-byte input included).
        #[test]
        fn scanner_never_panics(text in "\\PC{0,400}") {
            let _ = lint_file("crates/x/src/a.rs", &text, &Allowlist::default());
            let _ = Allowlist::parse(&text);
        }

        /// Findings are a pure function of the input.
        #[test]
        fn scanner_is_deterministic(text in "\\PC{0,400}") {
            let a = lint_file("crates/x/src/lib.rs", &text, &Allowlist::default());
            let b = lint_file("crates/x/src/lib.rs", &text, &Allowlist::default());
            prop_assert_eq!(a, b);
        }

        /// Masking never changes length or line structure.
        #[test]
        fn masking_preserves_layout(text in "\\PC{0,400}") {
            let masked = mask_source(&text);
            prop_assert_eq!(masked.len(), text.len());
            prop_assert_eq!(masked.lines().count(), text.lines().count());
        }
    }
}
