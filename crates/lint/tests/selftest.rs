//! Self-tests for `urb-lint`: known-bad fixtures must produce exactly
//! the expected `(rule, line)` diagnostics, known-good fixtures must be
//! clean, the real workspace must lint clean, and the binary must exit
//! nonzero under `--deny-all` when a violation exists and 2 when there is
//! nothing to lint.

use std::path::{Path, PathBuf};

use urb_lint::{lint_source, lint_workspace};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn rules_and_lines(diags: &[urb_lint::Diagnostic]) -> Vec<(&'static str, usize)> {
    let mut v: Vec<(&'static str, usize)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    v.sort();
    v
}

#[test]
fn bad_determinism_fixture_fires_every_rule_at_known_lines() {
    let diags = lint_source("bad/determinism.rs", &fixture("bad/determinism.rs"));
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("D001", 7),  // counts: HashMap
            ("D001", 8),  // seen: HashSet
            ("D002", 13), // counts.values()
            ("D002", 18), // for id in &self.seen
            ("D003", 25), // Instant::now()
            ("D004", 30), // thread_rng()
            ("D005", 34), // std::env::var
            ("D006", 38), // read_dir
            ("D007", 13), // float sum over counts.values()
        ],
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn good_determinism_fixture_is_clean() {
    let diags = lint_source("good/determinism.rs", &fixture("good/determinism.rs"));
    assert!(diags.is_empty(), "unexpected: {diags:#?}");
}

#[test]
fn hotpath_fixture_fires_d008_at_known_lines() {
    let diags = lint_source("bad/hotpath.rs", &fixture("bad/hotpath.rs"));
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("D008", 4), // inc(&format!(..))
            ("D008", 5), // counter(&format!(..))
                         // line 7 is pragma'd
        ],
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn bare_and_unknown_pragmas_are_violations() {
    let diags = lint_source("bad/pragma.rs", &fixture("bad/pragma.rs"));
    assert_eq!(
        rules_and_lines(&diags),
        vec![("P001", 5), ("P001", 7)],
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn state_safety_fixture_fires_s002_at_known_lines() {
    let diags = lint_source("bad/state_safety.rs", &fixture("bad/state_safety.rs"));
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("S002", 5), // static mut
            ("S002", 6), // thread_local!
            ("S002", 7), // static AtomicU64
                         // line 8: a `'static` lifetime is no declaration
        ],
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn good_state_safety_fixture_is_clean() {
    // Clean also means the pragma'd global still fires before suppression:
    // otherwise its pragma would be stale (P002).
    let diags = lint_source("good/state_safety.rs", &fixture("good/state_safety.rs"));
    assert!(diags.is_empty(), "unexpected: {diags:#?}");
}

#[test]
fn bad_workspace_pins_exact_rule_lines() {
    let bad_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_workspace");
    let diags = lint_workspace(&bad_root).expect("lint run");
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("D001", 6),  // workload: HashMap field
            ("D008", 3),  // cluster: format!-built metric key
            ("P002", 11), // workload: justified allow(D003) guarding nothing
            ("S002", 9),  // workload: static mut TOTALS
        ],
        "diagnostics: {diags:#?}"
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn the_real_workspace_lints_clean() {
    let diags = lint_workspace(&workspace_root()).expect("lint run");
    assert!(
        diags.is_empty(),
        "workspace violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_denies_bad_workspace_and_passes_real_one() {
    let bad_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_workspace");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_urb-lint"))
        .args(["--root"])
        .arg(&bad_root)
        .arg("--deny-all")
        .output()
        .expect("run urb-lint");
    assert_eq!(
        status.status.code(),
        Some(1),
        "bad workspace must be denied"
    );
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("D001"), "stdout: {stdout}");
    assert!(stdout.contains("D008"), "stdout: {stdout}");
    assert!(stdout.contains("S002"), "stdout: {stdout}");
    assert!(stdout.contains("P002"), "stdout: {stdout}");

    let status = std::process::Command::new(env!("CARGO_BIN_EXE_urb-lint"))
        .args(["--root"])
        .arg(workspace_root())
        .arg("--deny-all")
        .status()
        .expect("run urb-lint");
    assert_eq!(status.code(), Some(0), "real workspace must pass");
}

#[test]
fn a_root_without_sim_crates_is_an_error_not_a_clean_run() {
    let empty = std::env::temp_dir().join(format!("urb-lint-empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    // An empty directory, and the workspace's own `crates/` (one level too
    // deep): neither holds a `crates/<sim crate>/src`.
    for root in [empty.clone(), workspace_root().join("crates")] {
        let err = lint_workspace(&root).expect_err("nothing to lint");
        assert!(err.contains("no crates/<name>/src"), "{err}");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_urb-lint"))
            .arg("--root")
            .arg(&root)
            .arg("--deny-all")
            .output()
            .expect("run urb-lint");
        assert_eq!(out.status.code(), Some(2), "{}", root.display());
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("clean"), "stderr: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&empty);
}

// -----------------------------------------------------------------------
// Mutated-workspace negative control: copy a real sim crate aside, add a
// mutable global, and prove the lint catches it.
// -----------------------------------------------------------------------

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(from)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for p in entries {
        let dest = to.join(p.file_name().unwrap());
        if p.is_dir() {
            copy_tree(&p, &dest);
        } else {
            std::fs::copy(&p, &dest).unwrap();
        }
    }
}

/// Copies `krate`'s `src/` tree into a scratch workspace root.
fn mutated_workspace(krate: &str, tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("urb-lint-mut-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    copy_tree(
        &workspace_root().join("crates").join(krate).join("src"),
        &root.join("crates").join(krate).join("src"),
    );
    root
}

#[test]
fn mutated_workspace_static_mut_fails_s002() {
    let root = mutated_workspace("workload", "s002");
    let lib = root.join("crates/workload/src/lib.rs");
    let mut src = std::fs::read_to_string(&lib).unwrap();
    src.push_str("\nstatic mut LAST_SEED: u64 = 0;\n");
    std::fs::write(&lib, src).unwrap();
    let diags = lint_workspace(&root).expect("lint run");
    assert_eq!(diags.len(), 1, "diagnostics: {diags:#?}");
    assert_eq!(diags[0].rule, "S002");
    assert!(diags[0].file.ends_with("lib.rs"), "{}", diags[0]);
    let _ = std::fs::remove_dir_all(&root);
}
