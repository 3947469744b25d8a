//! Self-tests for `urb-lint`: known-bad fixtures must produce exactly
//! the expected `(rule, line)` diagnostics, known-good fixtures must be
//! clean, the real workspace must lint clean, and the binary must exit
//! nonzero under `--deny-all` when a violation exists.

use std::path::{Path, PathBuf};

use urb_lint::{check_state_safety, lint_source, lint_workspace};

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
fn state_safety_fixture_fires_rules_at_known_lines() {
    let src = fixture("bad/state_safety.rs");
    let out = check_state_safety("cluster", &[("bad/state_safety.rs", &src)]);
    assert_eq!(
        rules_and_lines(&out.diags),
        vec![
            ("S001", 11), // leaked: not wiped by crash()
            ("S001", 22), // marker names wipe, no such method
            ("S001", 23), // Orphan ends up with no reset method at all
            ("S002", 5),  // static mut
            ("S002", 6),  // thread_local!
            ("S003", 12), // RefCell field inside volatile-state struct
            ("S004", 42), // nodes[i] under a loop index in sweep
            ("S004", 44), // nodes[0] literal index in sweep
        ],
        "diagnostics: {:#?}",
        out.diags
    );
}

#[test]
fn good_state_safety_fixture_is_clean() {
    let src = fixture("good/state_safety.rs");
    let out = check_state_safety("cluster", &[("good/state_safety.rs", &src)]);
    assert!(out.diags.is_empty(), "unexpected: {:#?}", out.diags);
    // The pragma'd global still registers a pre-suppression hit, which is
    // what keeps its pragma alive under P002.
    assert!(
        out.raw_hits
            .iter()
            .any(|(_, rule, line)| *rule == "S002" && *line == 6),
        "raw hits: {:?}",
        out.raw_hits
    );
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
            ("S001", 19), // workload: Session.leaked never wiped
            ("S002", 9),  // workload: static mut TOTALS
            ("S004", 9),  // cluster: nodes[i] sweep outside dispatch
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
    assert!(stdout.contains("S001"), "stdout: {stdout}");
    assert!(stdout.contains("S002"), "stdout: {stdout}");
    assert!(stdout.contains("S004"), "stdout: {stdout}");
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
fn binary_emits_machine_readable_json() {
    let bad_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_workspace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_urb-lint"))
        .args(["--root"])
        .arg(&bad_root)
        .args(["--format", "json"])
        .output()
        .expect("run urb-lint");
    // Advisory without --deny-all: violations reported, exit 0.
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "stdout: {stdout}");
    assert!(stdout.contains("\"count\": 6"), "stdout: {stdout}");
    for rule in ["D001", "D008", "P002", "S001", "S002", "S004"] {
        assert!(
            stdout.contains(&format!("\"rule\": \"{rule}\"")),
            "stdout: {stdout}"
        );
    }
    // The justification em-dash and quotes must not break the document:
    // every line of the violations array is balanced on double quotes.
    let quotes = stdout.matches('"').count();
    assert_eq!(quotes % 2, 0, "unbalanced quotes: {stdout}");
}

// -----------------------------------------------------------------------
// Mutated-workspace negative controls: copy a real sim crate aside, break
// its crash-only contract, and prove the lint catches it.
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
fn mutated_workspace_unwiped_field_fails_s001() {
    let root = mutated_workspace("components", "s001");
    let container = root.join("crates/components/src/container.rs");
    let src = std::fs::read_to_string(&container).unwrap();
    // Delete the single line that wipes `inflight` in Container::crash —
    // exactly the bug class S001 exists to catch.
    let mutated: String = src
        .lines()
        .filter(|l| l.trim() != "self.inflight = 0;")
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(src, mutated, "the wipe line must exist to be deleted");
    std::fs::write(&container, mutated).unwrap();
    let diags = lint_workspace(&root).expect("lint run");
    assert_eq!(diags.len(), 1, "diagnostics: {diags:#?}");
    assert_eq!(diags[0].rule, "S001");
    assert!(diags[0].file.ends_with("container.rs"), "{}", diags[0]);
    assert!(diags[0].message.contains("`inflight`"), "{}", diags[0]);
    let _ = std::fs::remove_dir_all(&root);
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

// -----------------------------------------------------------------------
// Item-model round-trip: the parser layer must digest every real source
// file without panicking and recognise a sane volume of items.
// -----------------------------------------------------------------------

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn item_model_round_trips_the_workspace() {
    let root = workspace_root();
    let (mut files, mut structs, mut fns, mut markers) = (0usize, 0usize, 0usize, 0usize);
    for krate in urb_lint::SIM_CRATES {
        let dir = root.join("crates").join(krate).join("src");
        if !dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rs_files(&dir, &mut paths);
        for path in paths {
            let src = std::fs::read_to_string(&path).unwrap();
            let model = urb_lint::model::parse_file(&path.display().to_string(), &src);
            files += 1;
            structs += model.structs.len();
            fns += model.fns.len();
            markers += model.structs.iter().filter(|s| s.marker.is_some()).count();
        }
    }
    assert!(files >= 20, "only {files} files parsed");
    assert!(structs >= 30, "only {structs} structs recognised");
    assert!(fns >= 150, "only {fns} fns recognised");
    // The crash-only contract currently designates seven volatile-state
    // structs (Container, RequestPipeline, RecoveryLifecycle,
    // RecoveryManager, the ladder and the table-driven policies, KeyGen).
    assert!(markers >= 7, "only {markers} volatile-state markers found");
}
