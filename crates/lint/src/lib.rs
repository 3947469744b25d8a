//! `urb-lint`: the part of the workspace's contract that rustc cannot
//! see, as a machine-checked gate.
//!
//! Every claim the reproduction makes — lost-work accounting, Taw dips,
//! golden-trace digests — rests on the simulation being deterministic and
//! on no state hiding outside every reboot boundary. This crate enforces
//! that statically, with line-local rules applied to every `src/` file of
//! the simulation crates ([`SIM_CRATES`]):
//!
//! * **Determinism rules (`D001`–`D008`)**: unordered containers in sim
//!   state, iteration over them, wall-clock and ambient nondeterminism,
//!   float accumulation over unordered containers, and (`D008`) kernel
//!   hot-path regressions — string-keyed metric bumps built with
//!   `format!`.
//! * **`S002`**: mutable global state (`static mut`, `thread_local!`, a
//!   `static` holding a cell or lock), which no reboot wipes.
//!
//! That a reboot wipes a component's volatile state is not linted either:
//! each such part is a struct of its own that the reset replaces whole
//! (DESIGN.md §7, "The reboot wipe is a type").
//!
//! Exhaustiveness — every event kind encoded, traced and folded, every
//! fault kind routed and drawable, every policy registered — is not
//! linted: each of those schemas is one `macro_rules!` table
//! (`telemetry_events!`, `fault_kinds!`, `code_enum!`) plus exhaustive
//! matches, so a missing arm is a compile error.
//!
//! The escape hatch is a pragma comment on the offending line or the
//! line above: `// urb-lint: allow(D001) — <justification>`. A pragma
//! without a justification is itself a violation (`P001`).
//!
//! The analysis is a hand-rolled lexer (comment/string masking, brace
//! tracking, `#[cfg(test)]` skipping) rather than a `syn` parse: the
//! workspace takes no external dependencies, and the contracts being
//! checked are lexically simple. The trade-off is documented in
//! DESIGN.md §7.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose `src/` trees are subject to the determinism rules.
///
/// `bench` is deliberately absent: CLI binaries may read `std::env::args`
/// and the filesystem. The lint crate itself is likewise out of scope.
pub const SIM_CRATES: &[&str] = &[
    "simcore",
    "core",
    "cluster",
    "workload",
    "recovery",
    "statestore",
    "ebid",
    "faults",
    "components",
];

/// Every rule id the tool can emit, with a one-line description.
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "HashMap/HashSet in sim-state: iteration order is randomized per process",
    ),
    (
        "D002",
        "iteration over a known-unordered container escapes into ordering-sensitive context",
    ),
    (
        "D003",
        "wall-clock time (Instant/SystemTime) inside the simulation",
    ),
    (
        "D004",
        "ambient randomness (thread_rng/random/OsRng) inside the simulation",
    ),
    (
        "D005",
        "environment access (std::env) inside the simulation",
    ),
    (
        "D006",
        "filesystem iteration (read_dir) has platform-dependent order",
    ),
    ("D007", "float accumulation over an unordered container"),
    ("D008", "string-keyed metric bump on the kernel hot path"),
    (
        "S002",
        "mutable global state in a sim crate lives outside every reboot boundary",
    ),
    (
        "P001",
        "allow-pragma without a justification (or with an unknown rule id)",
    ),
    (
        "P002",
        "allow-pragma is stale: its rule no longer fires on the guarded line",
    ),
];

/// One violation: file, line, rule id, message and a suggested fix.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path of the offending file (relative to the lint root when
    /// produced by [`lint_workspace`]).
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule id (`D001`…`P001`).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// The suggested fix.
    pub fix: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: urb-lint[{}] {}; fix: {}",
            self.file, self.line, self.rule, self.message, self.fix
        )
    }
}

// ---------------------------------------------------------------------------
// Lexical masking: separate code from comments and string contents
// ---------------------------------------------------------------------------

/// A source file split into per-line code text (string/char contents and
/// comments blanked out) and per-line comment text (for pragma parsing).
struct Masked {
    /// Code with comments and literal contents replaced by spaces.
    code: Vec<String>,
    /// Comment text per line (line + block comments).
    comments: Vec<String>,
}

/// Masks comments and string/char-literal contents out of `src`.
///
/// Handles line comments, nested block comments, string escapes, raw
/// strings (`r"…"`, `r#"…"#`), and distinguishes char literals from
/// lifetimes well enough for this codebase's lexical rules.
fn mask_source(src: &str) -> Masked {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }
    let mut st = St::Code;
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut cline = String::new();
    let mut mline = String::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::LineComment {
                st = St::Code;
            }
            code.push(std::mem::take(&mut cline));
            comments.push(std::mem::take(&mut mline));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    cline.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    cline.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    cline.push('"');
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !prev_is_ident(&chars, i)
                    && raw_str_hashes(&chars, i).is_some()
                {
                    let (hashes, skip) = raw_str_hashes(&chars, i).expect("checked above");
                    st = St::RawStr(hashes);
                    for _ in 0..skip {
                        cline.push(' ');
                    }
                    cline.push('"');
                    i += skip + 1;
                } else if c == '\'' {
                    // Char literal ('x', '\n') vs lifetime ('a in &'a T).
                    let is_char = matches!(
                        (chars.get(i + 1), chars.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        cline.push('\'');
                        i += 1;
                        while i < chars.len() && chars[i] != '\'' {
                            if chars[i] == '\\' {
                                i += 1;
                                cline.push(' ');
                            }
                            cline.push(' ');
                            i += 1;
                        }
                        if i < chars.len() {
                            cline.push('\'');
                            i += 1;
                        }
                    } else {
                        cline.push('\'');
                        i += 1;
                    }
                } else {
                    cline.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                mline.push(c);
                cline.push(' ');
                i += 1;
            }
            St::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    cline.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    cline.push_str("  ");
                    i += 2;
                } else {
                    mline.push(c);
                    cline.push(' ');
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    cline.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    cline.push('"');
                    i += 1;
                } else {
                    cline.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' && (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    st = St::Code;
                    cline.push('"');
                    for _ in 0..hashes {
                        cline.push(' ');
                    }
                    i += hashes + 1;
                } else {
                    cline.push(' ');
                    i += 1;
                }
            }
        }
    }
    code.push(cline);
    comments.push(mline);
    Masked { code, comments }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// If `chars[i..]` starts a raw string (`r"`, `r#"`, `br"`…), returns
/// `(hash_count, chars_before_the_quote)`.
fn raw_str_hashes(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j - i))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

/// An `// urb-lint: allow(<rule>) — <justification>` pragma.
struct Pragma {
    /// 1-indexed line the pragma comment sits on.
    line: usize,
    /// The rule it allows.
    rule: String,
    /// The stated justification (may be empty — then it is a violation).
    justification: String,
}

impl Pragma {
    /// The lines the pragma covers: its own (trailing-comment style) and
    /// the one below.
    fn covers(&self, rule: &str, line: usize) -> bool {
        self.rule == rule && (line == self.line || line == self.line + 1)
    }
}

/// Extracts every allow-pragma from the per-line comment text.
fn extract_pragmas(masked: &Masked) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (idx, comment) in masked.comments.iter().enumerate() {
        let Some(pos) = comment.find("urb-lint:") else {
            continue;
        };
        let rest = &comment[pos + "urb-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        let rule = after[..close].trim().to_string();
        let justification = after[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
            .trim()
            .to_string();
        out.push(Pragma {
            line: idx + 1,
            rule,
            justification,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` skipping
// ---------------------------------------------------------------------------

/// Marks lines belonging to `#[cfg(test)]` items (attribute line through
/// the item's closing brace). Test code may use unordered containers and
/// ambient state freely.
fn test_line_mask(code: &[String]) -> Vec<bool> {
    let mut skipped = vec![false; code.len()];
    let mut li = 0;
    while li < code.len() {
        if let Some(col) = code[li].find("#[cfg(test)]") {
            let mut depth = 0usize;
            let mut seen_open = false;
            let mut l = li;
            let mut c = col;
            'outer: while l < code.len() {
                skipped[l] = true;
                let line: Vec<char> = code[l].chars().collect();
                while c < line.len() {
                    match line[c] {
                        '{' => {
                            depth += 1;
                            seen_open = true;
                        }
                        '}' => {
                            depth = depth.saturating_sub(1);
                            if seen_open && depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                    c += 1;
                }
                l += 1;
                c = 0;
            }
            li = l + 1;
        } else {
            li += 1;
        }
    }
    skipped
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

fn find_word(line: &str, word: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1] as char;
            !(b.is_alphanumeric() || b == '_')
        };
        let end = at + word.len();
        let after_ok = end >= bytes.len() || {
            let a = bytes[end] as char;
            !(a.is_alphanumeric() || a == '_')
        };
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + word.len();
    }
    out
}

/// The identifier being bound at a `name: HashMap<…>` / `name = HashMap…`
/// site, looking left from `idx`.
fn binding_name(line: &str, idx: usize) -> Option<String> {
    let before = line[..idx].trim_end();
    let before = before
        .strip_suffix(':')
        .or_else(|| before.strip_suffix('='))?
        .trim_end();
    let name: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name == "mut" || name.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(name)
    }
}

const ITER_METHODS: &[&str] = &[".keys()", ".values()", ".iter()", ".into_iter()", ".drain("];
const FLOAT_SINKS: &[&str] = &[".sum(", ".sum::<", ".fold(", ".product("];

/// Interior-mutability and global-cell types: a `static` holding one is
/// mutable global state (`S002`). `Atomic*` is matched by prefix
/// separately.
const CELL_TYPES: &[&str] = &[
    "RefCell", "Cell", "OnceCell", "OnceLock", "Lazy", "Mutex", "RwLock",
];

/// Lints one source file: the determinism rules, `S002`, and the pragma
/// checks — `P001` for a bare or unknown-rule pragma, `P002` for one whose
/// rule no longer fires on the line it guards. `label` is used as the
/// diagnostic path.
pub fn lint_source(label: &str, src: &str) -> Vec<Diagnostic> {
    let masked = mask_source(src);
    let pragmas = extract_pragmas(&masked);
    let skipped = test_line_mask(&masked.code);

    // Every rule hit, before pragma suppression.
    let mut hits: Vec<Diagnostic> = Vec::new();
    let mut hit = |rule: &'static str, line: usize, message: String, fix: &str| {
        hits.push(Diagnostic {
            file: label.to_string(),
            line,
            rule,
            message,
            fix: fix.to_string(),
        });
    };

    // Pass 1: collect names bound to unordered containers (D001 sites).
    let mut unordered: BTreeSet<String> = BTreeSet::new();
    for (idx, line) in masked.code.iter().enumerate() {
        if skipped[idx] || line.trim_start().starts_with("use ") {
            continue;
        }
        for container in ["HashMap", "HashSet"] {
            for at in find_word(line, container) {
                if let Some(name) = binding_name(line, at) {
                    unordered.insert(name);
                }
                hit(
                    "D001",
                    idx + 1,
                    format!(
                        "{container} in simulation state: iteration order is randomized per process"
                    ),
                    &format!(
                        "use BTree{} (or justify with // urb-lint: allow(D001) — …)",
                        &container[4..]
                    ),
                );
            }
        }
    }

    // Pass 2: per-line rules.
    for (idx, line) in masked.code.iter().enumerate() {
        if skipped[idx] {
            continue;
        }
        let lno = idx + 1;
        let mut push =
            |rule: &'static str, message: String, fix: &str| hit(rule, lno, message, fix);
        for name in &unordered {
            let iterates = find_word(line, name).iter().any(|&at| {
                let after = &line[at + name.len()..];
                ITER_METHODS.iter().any(|m| after.starts_with(m))
            }) || is_for_loop_over(line, name);
            if iterates {
                push(
                    "D002",
                    format!("iteration over unordered container `{name}` escapes its order"),
                    "convert the container to a BTree type or sort the collected keys",
                );
                if FLOAT_SINKS.iter().any(|s| line.contains(s)) {
                    push(
                        "D007",
                        format!("float accumulation over unordered container `{name}`"),
                        "accumulate in sorted key order (float addition is not associative)",
                    );
                }
            }
        }
        for pat in [
            "Instant::now",
            "SystemTime::now",
            "std::time::Instant",
            "std::time::SystemTime",
        ] {
            if line.contains(pat) {
                push(
                    "D003",
                    format!("wall-clock `{pat}` inside the simulation"),
                    "use the simulated clock (simcore::SimTime / EventQueue::now)",
                );
            }
        }
        for pat in [
            "thread_rng",
            "rand::random",
            "from_entropy",
            "OsRng",
            "getrandom",
        ] {
            if line.contains(pat) {
                push(
                    "D004",
                    format!("ambient randomness `{pat}` inside the simulation"),
                    "draw from the run's seeded simcore::SimRng",
                );
            }
        }
        if line.contains("std::env::") || line.contains("env::var(") || line.contains("env::vars(")
        {
            push(
                "D005",
                "environment access inside the simulation".to_string(),
                "thread configuration through explicit parameters",
            );
        }
        if line.contains("read_dir") {
            push(
                "D006",
                "filesystem iteration order is platform-dependent".to_string(),
                "collect and sort directory entries before iterating",
            );
        }
        // D008: kernel hot-path regressions. A `format!`-built metric key
        // reintroduces the per-bump heap traffic the symbol table removed.
        // (Events cannot regress the same way: the kernel only stores
        // `EventPayload` values inline, there is no closure to box.)
        for pat in [".counter(&format!", ".inc(&format!", ".add(&format!"] {
            if line.contains(pat) {
                push(
                    "D008",
                    format!(
                        "string-keyed metric bump `{}` allocates per call",
                        &pat[1..]
                    ),
                    "use an interned simcore::symbol and the *_sym registry API",
                );
            }
        }
        if line.contains("thread_local!") {
            push(
                "S002",
                "thread-local state lives outside every reboot boundary".to_string(),
                "move the state into a struct wiped by a crash()/reset path",
            );
        } else if let Some(at) = find_word(line, "static")
            .into_iter()
            // `'static` is a lifetime, not a declaration.
            .find(|&at| at == 0 || line.as_bytes()[at - 1] != b'\'')
        {
            let after = line[at + "static".len()..].trim_start();
            let holds_cell =
                CELL_TYPES.iter().any(|t| !find_word(line, t).is_empty()) || has_atomic_type(line);
            if after.starts_with("mut ") || holds_cell {
                push(
                    "S002",
                    "mutable global state lives outside every reboot boundary".to_string(),
                    "move the state into a struct wiped by a crash()/reset path \
                     (or justify with // urb-lint: allow(S002) — …)",
                );
            }
        }
    }

    let mut diags = Vec::new();
    for p in &pragmas {
        let known = RULES.iter().any(|(r, _)| *r == p.rule);
        let justified = p
            .justification
            .chars()
            .filter(|c| c.is_alphanumeric())
            .count()
            >= 3;
        let (rule, message, fix) = if !known {
            (
                "P001",
                format!("allow-pragma names unknown rule \"{}\"", p.rule),
                "use one of the documented rule ids (DESIGN.md §7)",
            )
        } else if !justified {
            (
                "P001",
                format!("allow({}) pragma has no justification", p.rule),
                "append \"— <why this site is safe>\" to the pragma",
            )
        } else if !hits.iter().any(|h| p.covers(h.rule, h.line)) {
            (
                "P002",
                format!(
                    "allow({}) pragma is stale: {} no longer fires on the guarded line",
                    p.rule, p.rule
                ),
                "delete the pragma (it suppresses nothing)",
            )
        } else {
            continue;
        };
        diags.push(Diagnostic {
            file: label.to_string(),
            line: p.line,
            rule,
            message,
            fix: fix.to_string(),
        });
    }
    diags.extend(
        hits.into_iter()
            .filter(|h| !pragmas.iter().any(|p| p.covers(h.rule, h.line))),
    );
    diags
}

fn is_for_loop_over(line: &str, name: &str) -> bool {
    let trimmed = line.trim_start();
    if !trimmed.starts_with("for ") {
        return false;
    }
    let Some(pos) = line.find(" in ") else {
        return false;
    };
    let expr = line[pos + 4..]
        .trim_start()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches("self.");
    if !expr.starts_with(name) {
        return false;
    }
    match expr[name.len()..].chars().next() {
        // `map.iter()`-style is already caught by the method patterns.
        Some('.') => false,
        Some(c) => !(c.is_alphanumeric() || c == '_'),
        None => true,
    }
}

/// `Atomic` followed by an identifier (AtomicU64, AtomicBool, …) with a
/// word boundary before it.
fn has_atomic_type(text: &str) -> bool {
    let bytes = text.as_bytes();
    let mut start = 0;
    while let Some(pos) = text[start..].find("Atomic") {
        let at = start + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1] as char;
            !(b.is_alphanumeric() || b == '_')
        };
        if before_ok {
            return true;
        }
        start = at + "Atomic".len();
    }
    false
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

fn rs_files_sorted(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    // Directory order is platform-dependent (our own D006): collect and
    // sort so diagnostics come out in a stable order.
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files_sorted(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a workspace rooted at `root`: every `src/` file of the
/// [`SIM_CRATES`] present under it. A root holding none of them is an
/// error, not a clean run.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    let mut crates_found = 0;
    for krate in SIM_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        crates_found += 1;
        let mut files = Vec::new();
        rs_files_sorted(&src_dir, &mut files)?;
        for file in files {
            let src = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let label = file.strip_prefix(root).unwrap_or(&file).display();
            diags.extend(lint_source(&label.to_string(), &src));
        }
    }
    if crates_found == 0 {
        return Err(format!(
            "{}: no crates/<name>/src for any simulation crate ({})",
            root.display(),
            SIM_CRATES.join(", ")
        ));
    }
    diags.sort();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_strips_comments_and_strings() {
        let m = mask_source("let x = \"HashMap\"; // HashMap here\nlet y = 1;");
        assert!(!m.code[0].contains("HashMap"));
        assert!(m.comments[0].contains("HashMap here"));
        assert_eq!(m.code[1], "let y = 1;");
    }

    #[test]
    fn masking_handles_raw_strings_and_lifetimes() {
        let m = mask_source("fn f<'a>(s: &'a str) { let r = r#\"HashSet\"#; }");
        assert!(!m.code[0].contains("HashSet"));
        assert!(m.code[0].contains("fn f<'a>(s: &'a str)"));
    }

    #[test]
    fn pragma_requires_justification() {
        let src = "// urb-lint: allow(D001) — hot path, order never observed\nlet m: HashMap<u8, u8> = HashMap::new();\n// urb-lint: allow(D001)\nlet n: HashMap<u8, u8> = HashMap::new();\n";
        let diags = lint_source("x.rs", src);
        let rules: Vec<(&str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
        // Line 2 is pragma'd with a justification; line 3's pragma is bare
        // (P001) and so line 4 stays suppressed-but-flagged-at-source.
        assert!(rules.contains(&("P001", 3)), "{rules:?}");
        assert!(!rules.contains(&("D001", 2)), "{rules:?}");
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(lint_source("x.rs", src).is_empty());
    }
}
