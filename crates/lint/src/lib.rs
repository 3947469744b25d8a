//! `urb-lint`: the part of the workspace's contract that rustc cannot
//! see, as a machine-checked gate.
//!
//! Every claim the reproduction makes — lost-work accounting, Taw dips,
//! golden-trace digests — rests on the simulation being deterministic and
//! on reboots really wiping what they claim to wipe. This crate enforces
//! that statically, in two rule families applied to every `src/` file of
//! the simulation crates ([`SIM_CRATES`]):
//!
//! * **Determinism rules (`D001`–`D008`)**: unordered containers in sim
//!   state, iteration over them, wall-clock and ambient nondeterminism,
//!   float accumulation over unordered containers, and (`D008`) kernel
//!   hot-path regressions — string-keyed metric bumps built with
//!   `format!`.
//! * **Crash-only state-safety rules (`S001`–`S004`)**, over a light
//!   cross-file item model ([`model`]): volatile-state fields no reset
//!   wipes, mutable globals, interior mutability hidden from the wipe,
//!   and cross-node state access outside event dispatch.
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

pub mod model;

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
        "S001",
        "volatile-state struct field not wiped by any reset-family method",
    ),
    (
        "S002",
        "mutable global state in a sim crate lives outside every reboot boundary",
    ),
    (
        "S003",
        "interior mutability inside a volatile-state struct hides state from the reboot wipe",
    ),
    (
        "S004",
        "cross-node state access outside kernel event dispatch (sharding hazard)",
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
pub struct Masked {
    /// Code with comments and literal contents replaced by spaces.
    pub code: Vec<String>,
    /// Comment text per line (line + block comments).
    pub comments: Vec<String>,
}

/// Masks comments and string/char-literal contents out of `src`.
///
/// Handles line comments, nested block comments, string escapes, raw
/// strings (`r"…"`, `r#"…"#`), and distinguishes char literals from
/// lifetimes well enough for this codebase's lexical rules.
pub fn mask_source(src: &str) -> Masked {
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
#[derive(Clone, Debug)]
pub struct Pragma {
    /// 1-indexed line the pragma comment sits on.
    pub line: usize,
    /// The rule it allows.
    pub rule: String,
    /// The stated justification (may be empty — then it is a violation).
    pub justification: String,
}

/// Extracts every allow-pragma from the per-line comment text.
pub fn extract_pragmas(masked: &Masked) -> Vec<Pragma> {
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

/// The set of `(rule, line)` pairs a pragma list suppresses: a pragma
/// covers its own line (trailing-comment style) and the line below.
fn allowed_set(pragmas: &[Pragma]) -> BTreeSet<(String, usize)> {
    let mut set = BTreeSet::new();
    for p in pragmas {
        set.insert((p.rule.clone(), p.line));
        set.insert((p.rule.clone(), p.line + 1));
    }
    set
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` skipping
// ---------------------------------------------------------------------------

/// Marks lines belonging to `#[cfg(test)]` items (attribute line through
/// the item's closing brace). Test code may use unordered containers and
/// ambient state freely.
pub fn test_line_mask(code: &[String]) -> Vec<bool> {
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

pub(crate) fn find_word(line: &str, word: &str) -> Vec<usize> {
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

/// One file's lint output plus the bookkeeping the workspace pass needs
/// for stale-pragma (`P002`) evaluation: every rule hit recorded *before*
/// pragma suppression, and the file's pragmas themselves.
pub struct FileLint {
    /// Post-suppression diagnostics.
    pub diags: Vec<Diagnostic>,
    /// Every `(rule, line)` that fired before pragma suppression.
    pub raw_hits: Vec<(&'static str, usize)>,
    /// The file's allow-pragmas.
    pub pragmas: Vec<Pragma>,
}

/// Runs the determinism rules (`D001`–`D007`, plus `P001` pragma checks)
/// over one source file. `label` is used as the diagnostic path.
pub fn lint_source(label: &str, src: &str) -> Vec<Diagnostic> {
    lint_source_with_hits(label, src).diags
}

/// [`lint_source`], keeping the pre-suppression hits and pragmas that
/// workspace-level stale-pragma detection needs.
pub fn lint_source_with_hits(label: &str, src: &str) -> FileLint {
    let masked = mask_source(src);
    let pragmas = extract_pragmas(&masked);
    let allowed = allowed_set(&pragmas);
    let skipped = test_line_mask(&masked.code);
    let known_rules: BTreeSet<&str> = RULES.iter().map(|(r, _)| *r).collect();

    let mut diags = Vec::new();
    let mut raw_hits: Vec<(&'static str, usize)> = Vec::new();
    for p in &pragmas {
        if !known_rules.contains(p.rule.as_str()) {
            diags.push(Diagnostic {
                file: label.to_string(),
                line: p.line,
                rule: "P001",
                message: format!("allow-pragma names unknown rule \"{}\"", p.rule),
                fix: "use one of the documented rule ids (DESIGN.md §7)".to_string(),
            });
        } else if p
            .justification
            .chars()
            .filter(|c| c.is_alphanumeric())
            .count()
            < 3
        {
            diags.push(Diagnostic {
                file: label.to_string(),
                line: p.line,
                rule: "P001",
                message: format!("allow({}) pragma has no justification", p.rule),
                fix: "append \"— <why this site is safe>\" to the pragma".to_string(),
            });
        }
    }

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
                let lno = idx + 1;
                raw_hits.push(("D001", lno));
                if allowed.contains(&("D001".to_string(), lno)) {
                    continue;
                }
                diags.push(Diagnostic {
                    file: label.to_string(),
                    line: lno,
                    rule: "D001",
                    message: format!(
                        "{container} in simulation state: iteration order is randomized per process"
                    ),
                    fix: format!(
                        "use BTree{} (or justify with // urb-lint: allow(D001) — …)",
                        &container[4..]
                    ),
                });
            }
        }
    }

    // Pass 2: per-line rules.
    for (idx, line) in masked.code.iter().enumerate() {
        if skipped[idx] {
            continue;
        }
        let lno = idx + 1;
        let mut push = |rule: &'static str, message: String, fix: &str| {
            raw_hits.push((rule, lno));
            if !allowed.contains(&(rule.to_string(), lno)) {
                diags.push(Diagnostic {
                    file: label.to_string(),
                    line: lno,
                    rule,
                    message,
                    fix: fix.to_string(),
                });
            }
        };

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
    }
    FileLint {
        diags,
        raw_hits,
        pragmas,
    }
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

// ---------------------------------------------------------------------------
// Crash-only state-safety rules (S001–S004)
// ---------------------------------------------------------------------------

/// Interior-mutability / global-cell types whose presence marks state the
/// reboot wipe cannot see (S002 when global, S003 when inside a
/// volatile-state struct). `Atomic*` is matched by prefix separately.
const CELL_TYPES: &[&str] = &[
    "RefCell", "Cell", "OnceCell", "OnceLock", "Lazy", "Mutex", "RwLock",
];

/// Output of [`check_state_safety`] over one crate.
pub struct CrateLint {
    /// Post-suppression diagnostics.
    pub diags: Vec<Diagnostic>,
    /// Every `(label, rule, line)` that fired before pragma suppression.
    pub raw_hits: Vec<(String, &'static str, usize)>,
}

/// Runs the crash-only state-safety rules over one crate's sources
/// (`(label, src)` pairs — the rules are cross-file within a crate):
///
/// * **S001** every struct carrying a `// urb-lint: volatile-state`
///   marker must have a reset-family method whose bodies collectively
///   mention every field, so a newly added field nobody wipes fails CI.
///   A marker may name its methods — `volatile-state(crash, reset_all)`
///   — and then those may live on an enclosing type (the lifecycle wipes
///   run on `AppServer`, not on `RecoveryLifecycle` itself); a bare
///   marker uses [`model::DEFAULT_RESET_METHODS`] plus any `reset*`
///   method owned by the struct.
/// * **S002** mutable global state (`static mut`, `thread_local!`, a
///   `static` holding a cell/lock type) — state outside any reboot
///   boundary.
/// * **S003** interior mutability inside a volatile-state struct —
///   state a field-wipe audit cannot see through.
/// * **S004** (crates `cluster`/`core` only) indexing a `nodes` array
///   with anything but a parameter of the enclosing function: kernel
///   event dispatch hands handlers their target node index as a
///   parameter, so a literal, a local, or a loop variable is a
///   cross-node touch the future sharded kernel cannot order.
///   Constructors (`new`, `with_*`) are exempt — wiring the world
///   before the clock starts is not dispatch.
pub fn check_state_safety(crate_name: &str, files: &[(&str, &str)]) -> CrateLint {
    let model = model::CrateModel::parse(files);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut raw_hits: Vec<(String, &'static str, usize)> = Vec::new();

    for (fidx, (label, src)) in files.iter().enumerate() {
        let masked = mask_source(src);
        let allowed = allowed_set(&extract_pragmas(&masked));
        let skipped = test_line_mask(&masked.code);
        let fm = &model.files[fidx];
        let mut push = |rule: &'static str, line: usize, message: String, fix: String| {
            raw_hits.push((label.to_string(), rule, line));
            if !allowed.contains(&(rule.to_string(), line)) {
                diags.push(Diagnostic {
                    file: label.to_string(),
                    line,
                    rule,
                    message,
                    fix,
                });
            }
        };

        // S002: mutable globals, per line.
        for (idx, line) in masked.code.iter().enumerate() {
            if skipped[idx] {
                continue;
            }
            let lno = idx + 1;
            if line.contains("thread_local!") {
                push(
                    "S002",
                    lno,
                    "thread-local state lives outside every reboot boundary".to_string(),
                    "move the state into a struct wiped by a crash()/reset path".to_string(),
                );
                continue;
            }
            for at in find_word(line, "static") {
                // `'static` is a lifetime, not a declaration.
                if at > 0 && line.as_bytes()[at - 1] == b'\'' {
                    continue;
                }
                let after = line[at + "static".len()..].trim_start();
                let holds_cell = CELL_TYPES.iter().any(|t| !find_word(line, t).is_empty())
                    || has_atomic_type(line);
                if after.starts_with("mut ") || holds_cell {
                    push(
                        "S002",
                        lno,
                        "mutable global state lives outside every reboot boundary".to_string(),
                        "move the state into a struct wiped by a crash()/reset path \
                         (or justify with // urb-lint: allow(S002) — …)"
                            .to_string(),
                    );
                }
                break;
            }
        }

        // S001 + S003: volatile-state structs.
        for st in &fm.structs {
            let Some(marker) = &st.marker else {
                continue;
            };
            let explicit = !marker.methods.is_empty();
            let method_names: Vec<String> = if explicit {
                marker.methods.clone()
            } else {
                let mut names: Vec<String> = model::DEFAULT_RESET_METHODS
                    .iter()
                    .map(|m| m.to_string())
                    .collect();
                for f in model.files.iter().flat_map(|f| f.fns.iter()) {
                    if f.owner.as_deref() == Some(st.name.as_str())
                        && f.name.starts_with("reset")
                        && !names.contains(&f.name)
                    {
                        names.push(f.name.clone());
                    }
                }
                names
            };
            let mut bodies = String::new();
            for m in &method_names {
                let fns = model.fns_named(m, &st.name);
                // A bare marker only trusts the struct's own methods; an
                // explicit list may resolve to an enclosing type's wipes.
                let fns: Vec<_> = if explicit {
                    fns
                } else {
                    fns.into_iter()
                        .filter(|f| f.owner.as_deref() == Some(st.name.as_str()))
                        .collect()
                };
                if fns.is_empty() && explicit {
                    push(
                        "S001",
                        marker.line,
                        format!(
                            "volatile-state marker on `{}` names reset method `{m}` \
                             but no such method exists",
                            st.name
                        ),
                        "fix the marker's method list (or implement the method)".to_string(),
                    );
                }
                for f in fns {
                    bodies.push_str(&f.body);
                    bodies.push('\n');
                }
            }
            if bodies.is_empty() {
                push(
                    "S001",
                    st.line,
                    format!(
                        "volatile-state struct `{}` has no reset-family method ({})",
                        st.name,
                        method_names.join(", ")
                    ),
                    "implement a crash()/reset method that wipes every field".to_string(),
                );
                continue;
            }
            for field in &st.fields {
                if find_word(&bodies, &field.name).is_empty() {
                    push(
                        "S001",
                        field.line,
                        format!(
                            "field `{}` of volatile-state struct `{}` is not wiped by any \
                             reset method ({}); a microreboot would leave residual state",
                            field.name,
                            st.name,
                            method_names.join("/")
                        ),
                        format!(
                            "wipe the field in {}() (or justify with \
                             // urb-lint: allow(S001) — …)",
                            method_names.first().map(String::as_str).unwrap_or("crash")
                        ),
                    );
                }
                if CELL_TYPES
                    .iter()
                    .any(|t| !find_word(&field.ty, t).is_empty())
                    || has_atomic_type(&field.ty)
                {
                    push(
                        "S003",
                        field.line,
                        format!(
                            "interior mutability `{}` inside volatile-state struct `{}` \
                             hides state from the reboot wipe",
                            field.ty, st.name
                        ),
                        "store the value directly so the reset method can see it \
                         (or justify with // urb-lint: allow(S003) — …)"
                            .to_string(),
                    );
                }
            }
        }

        // S004: cross-node indexing outside dispatch, cluster/core only.
        if crate_name == "cluster" || crate_name == "core" {
            for f in &fm.fns {
                if f.name == "new" || f.name.starts_with("with_") {
                    continue;
                }
                let mut flagged_lines: BTreeSet<usize> = BTreeSet::new();
                for li in (f.line - 1)..f.end_line.min(masked.code.len()) {
                    let line = &masked.code[li];
                    for at in find_word(line, "nodes") {
                        let rest = &line[at + "nodes".len()..];
                        if !rest.starts_with('[') {
                            continue;
                        }
                        let Some(close) = rest.find(']') else {
                            continue;
                        };
                        let idx_expr = rest[1..close].trim();
                        let plain_ident = !idx_expr.is_empty()
                            && idx_expr.chars().all(|c| c.is_alphanumeric() || c == '_')
                            && !idx_expr.chars().next().is_some_and(|c| c.is_numeric());
                        if plain_ident && f.params.iter().any(|p| p == idx_expr) {
                            continue;
                        }
                        if flagged_lines.insert(li + 1) {
                            push(
                                "S004",
                                li + 1,
                                format!(
                                    "cross-node access `nodes[{idx_expr}]` outside kernel \
                                     event dispatch in fn {}",
                                    f.name
                                ),
                                "route the mutation through a scheduled event targeted at \
                                 the node (or justify with // urb-lint: allow(S004) — …)"
                                    .to_string(),
                            );
                        }
                    }
                }
            }
        }
    }

    diags.sort();
    diags.dedup();
    CrateLint { diags, raw_hits }
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
// Stale-pragma detection (P002)
// ---------------------------------------------------------------------------

/// Flags pragmas whose rule did not fire (pre-suppression) on the line
/// they guard. Only pragmas that pass `P001` — known rule, real
/// justification — are evaluated: a bare or unknown-rule pragma is
/// already a diagnostic and double-reporting it would be noise.
///
/// `pragmas_by_file` pairs each file label with its pragmas; `raw_hits`
/// is the union of every rule hit recorded before suppression, across
/// the per-file passes and the crate-level S-rule pass.
pub fn stale_pragma_diags(
    pragmas_by_file: &[(String, Vec<Pragma>)],
    raw_hits: &BTreeSet<(String, String, usize)>,
) -> Vec<Diagnostic> {
    let known_rules: BTreeSet<&str> = RULES.iter().map(|(r, _)| *r).collect();
    let mut diags = Vec::new();
    for (label, pragmas) in pragmas_by_file {
        for p in pragmas {
            let passes_p001 = known_rules.contains(p.rule.as_str())
                && p.justification
                    .chars()
                    .filter(|c| c.is_alphanumeric())
                    .count()
                    >= 3;
            if !passes_p001 {
                continue;
            }
            let live = [p.line, p.line + 1]
                .iter()
                .any(|&l| raw_hits.contains(&(label.clone(), p.rule.clone(), l)));
            if !live {
                diags.push(Diagnostic {
                    file: label.clone(),
                    line: p.line,
                    rule: "P002",
                    message: format!(
                        "allow({}) pragma is stale: {} no longer fires on the guarded line",
                        p.rule, p.rule
                    ),
                    fix: "delete the pragma (it suppresses nothing)".to_string(),
                });
            }
        }
    }
    diags
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

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Lints a workspace rooted at `root`: determinism and state-safety
/// rules over every `src/` file of the [`SIM_CRATES`], then stale-pragma
/// detection over the union of pre-suppression hits.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    let mut raw_hits: BTreeSet<(String, String, usize)> = BTreeSet::new();
    let mut pragmas_by_file: Vec<(String, Vec<Pragma>)> = Vec::new();
    for krate in SIM_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files_sorted(&src_dir, &mut files)?;
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|file| {
                fs::read_to_string(file)
                    .map(|s| (rel_label(root, file), s))
                    .map_err(|e| format!("{}: {e}", file.display()))
            })
            .collect::<Result<_, _>>()?;
        for (label, src) in &sources {
            let file_lint = lint_source_with_hits(label, src);
            diags.extend(file_lint.diags);
            for (rule, line) in file_lint.raw_hits {
                raw_hits.insert((label.clone(), rule.to_string(), line));
            }
            pragmas_by_file.push((label.clone(), file_lint.pragmas));
        }
        let refs: Vec<(&str, &str)> = sources
            .iter()
            .map(|(l, s)| (l.as_str(), s.as_str()))
            .collect();
        let crate_lint = check_state_safety(krate, &refs);
        diags.extend(crate_lint.diags);
        for (label, rule, line) in crate_lint.raw_hits {
            raw_hits.insert((label, rule.to_string(), line));
        }
    }

    diags.extend(stale_pragma_diags(&pragmas_by_file, &raw_hits));

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
