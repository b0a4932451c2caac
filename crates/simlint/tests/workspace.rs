//! End-to-end runs of the `run()` entry point the CLI wraps: the real
//! workspace against the committed baseline, a deliberately broken
//! temp workspace (the gate must fail), and the `--update-baseline`
//! round trip.

use massf_simlint::{run, Options, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

/// A scratch workspace under the repo's own `target/` directory (tests
/// must not write outside the repo), torn down on drop.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(tag: &str) -> TempWorkspace {
        let root = repo_root()
            .join("target")
            .join(format!("simlint-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/engine/src")).expect("create temp workspace");
        TempWorkspace { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create parent dir");
        }
        fs::write(&path, content).expect("write temp file");
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_workspace_matches_committed_baseline() {
    let mut opts = Options::new(repo_root());
    opts.baseline_path = Some(PathBuf::from("simlint-baseline.txt"));
    let outcome = run(&opts).expect("workspace scan succeeds");
    assert!(outcome.files > 50, "scanned only {} files?", outcome.files);
    let cmp = outcome.comparison.as_ref().expect("baseline compared");
    assert!(
        cmp.new.is_empty(),
        "new violations not in simlint-baseline.txt:\n{}",
        massf_simlint::report::render_violations(&cmp.new)
    );
    assert!(
        cmp.stale.is_empty(),
        "stale baseline entries (violation fixed? prune the file): {:?}",
        cmp.stale
    );
    // The committed baseline is EMPTY and must stay that way: every rule
    // — including the v2 families D4 float-order, D5 determinism-taint
    // and D6 snapshot-drift, which all ran in this scan — passes on the
    // real workspace without absorbing a single violation.
    assert_eq!(cmp.baselined, 0, "the committed baseline must stay empty");
    assert_eq!(outcome.exit_code(), 0);
}

/// The v2 acceptance criterion: adding a field to `WorldState` without
/// touching the snapshot codec makes simlint exit non-zero, at the
/// field's declaration line, before any test ever replays a snapshot.
#[test]
fn seeded_field_addition_to_world_state_fails_the_gate() {
    let read_real = |rel: &str| {
        fs::read_to_string(repo_root().join(rel))
            // simlint: allow(unwrap-audit) -- test helper: abort with the path on IO failure
            .unwrap_or_else(|e| panic!("{rel} unreadable: {e}"))
    };
    let world = read_real("crates/netsim/src/world.rs");
    let codec = read_real("crates/snapshot/src/codec.rs");

    // Control: the real pair, unmodified, is drift-free.
    let ws = TempWorkspace::new("d6-clean");
    ws.write("crates/netsim/src/world.rs", &world);
    ws.write("crates/snapshot/src/codec.rs", &codec);
    let clean = run(&Options::new(&ws.root)).expect("scan succeeds");
    assert_eq!(clean.exit_code(), 0, "{:?}", clean.violations);

    // Seed the drift: one new field, codec untouched.
    let needle = "pub struct WorldState";
    let at = world.find(needle).expect("WorldState defined in world.rs");
    let brace = world[at..].find('\n').expect("struct spans lines") + at + 1;
    let mut drifted = world.clone();
    drifted.insert_str(brace, "    pub seeded_drift_probe: u64,\n");

    let ws2 = TempWorkspace::new("d6-drift");
    ws2.write("crates/netsim/src/world.rs", &drifted);
    ws2.write("crates/snapshot/src/codec.rs", &codec);
    let outcome = run(&Options::new(&ws2.root)).expect("scan succeeds");
    assert_eq!(outcome.exit_code(), 1, "{:?}", outcome.violations);
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
    let v = &outcome.violations[0];
    assert_eq!(v.rule, Rule::SnapshotDrift);
    assert!(v.message.contains("seeded_drift_probe"), "{}", v.message);
    assert!(v.message.contains("both the encode"), "{}", v.message);
}

/// Run `git` in `root` with a fixed identity and signing off, so the
/// test needs no user or system git configuration.
fn git(root: &Path, args: &[&str]) {
    let status = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["-c", "user.name=simlint-test"])
        .args(["-c", "user.email=simlint-test@localhost"])
        .args(["-c", "commit.gpgsign=false"])
        .args(args)
        .status()
        // simlint: allow(unwrap-audit) -- test helper: abort with the command on spawn failure
        .unwrap_or_else(|e| panic!("cannot run git {args:?}: {e}"));
    assert!(status.success(), "git {args:?} failed: {status}");
}

/// `--changed-since` narrows the per-file rules to the changed set but
/// still runs the cross-file drift pass over everything. The workspace
/// is a repository of its own, so the test does not depend on how (or
/// whether) the enclosing checkout is under git.
#[test]
fn changed_since_scans_a_subset_of_the_workspace() {
    let ws = TempWorkspace::new("changed-since");
    ws.write(
        "crates/engine/src/lib.rs",
        "pub fn total(v: &[u64]) -> u64 { v.iter().sum() }\n",
    );
    // A `WorldState` field the codec never mentions: a D6 violation in
    // a file the change below leaves alone.
    ws.write(
        "crates/netsim/src/world.rs",
        "pub struct WorldState {\n    pub kept: u64,\n    pub dropped: u64,\n}\n",
    );
    ws.write(
        "crates/snapshot/src/codec.rs",
        "pub fn put_world_state(w: &mut Vec<u64>, s: &WorldState) {\n    w.push(s.kept);\n}\n\
         pub fn get_world_state(r: &mut Vec<u64>) -> WorldState {\n    \
         WorldState { kept: r.pop().unwrap_or(0) }\n}\n",
    );
    git(&ws.root, &["init", "-q"]);
    git(&ws.root, &["add", "-A"]);
    git(&ws.root, &["commit", "-q", "-m", "fixture"]);
    // The one change since HEAD: a hash-order iteration (D1).
    ws.write(
        "crates/engine/src/lib.rs",
        "use std::collections::HashMap;\n\
         pub fn total(m: &HashMap<u32, u64>) -> u64 { m.values().sum() }\n",
    );

    let full = run(&Options::new(&ws.root)).expect("full scan succeeds");
    let mut incremental = Options::new(&ws.root);
    incremental.changed_since = Some("HEAD".to_string());
    let subset = run(&incremental).expect("incremental scan succeeds");
    assert_eq!((subset.files, full.files), (1, 3), "files scanned");
    let found = |o: &massf_simlint::Outcome| -> Vec<(Rule, String)> {
        o.violations
            .iter()
            .map(|v| (v.rule, v.path.clone()))
            .collect()
    };
    let expected = vec![
        (Rule::HashIteration, "crates/engine/src/lib.rs".to_string()),
        (
            Rule::SnapshotDrift,
            "crates/netsim/src/world.rs".to_string(),
        ),
    ];
    assert_eq!(found(&full), expected);
    assert_eq!(found(&subset), expected, "D1 in the change, D6 everywhere");

    // --update-baseline refuses to run from a partial view.
    incremental.baseline_path = Some(PathBuf::from("simlint-baseline.txt"));
    incremental.update_baseline = true;
    assert!(run(&incremental).is_err());
    assert!(!ws.root.join("simlint-baseline.txt").exists());
}

/// The acceptance criterion from the issue: introducing a HashMap
/// iteration into `crates/engine` makes simlint exit non-zero.
#[test]
fn deliberate_hash_iteration_in_engine_fails_the_gate() {
    let ws = TempWorkspace::new("d1");
    ws.write(
        "crates/engine/src/lib.rs",
        r#"
use std::collections::HashMap;
pub fn drain_in_arbitrary_order(m: &HashMap<u32, u64>) -> u64 {
    let mut total = 0;
    for (_, v) in m.iter() {
        total += v;
    }
    total
}
"#,
    );
    let outcome = run(&Options::new(&ws.root)).expect("scan succeeds");
    assert_eq!(outcome.exit_code(), 1, "{:?}", outcome.violations);
    assert_eq!(outcome.violations.len(), 1);
    assert_eq!(outcome.violations[0].rule, Rule::HashIteration);

    // The same code is fine in a non-deterministic-critical crate.
    let ws2 = TempWorkspace::new("d1-scope");
    ws2.write(
        "crates/workloads/src/lib.rs",
        "use std::collections::HashMap;\n\
         pub fn f(m: &HashMap<u32, u64>) -> u64 { m.values().sum() }\n",
    );
    let outcome2 = run(&Options::new(&ws2.root)).expect("scan succeeds");
    assert_eq!(outcome2.exit_code(), 0, "{:?}", outcome2.violations);
}

#[test]
fn suppression_and_update_baseline_round_trip() {
    let ws = TempWorkspace::new("roundtrip");
    // One suppressed violation (doesn't count), one real one.
    ws.write(
        "crates/engine/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 {\n\
         \x20   // simlint: allow(unwrap-audit) -- fixture: justified on purpose\n\
         \x20   o.unwrap()\n\
         }\n\
         pub fn g(o: Option<u32>) -> u32 { o.unwrap() }\n",
    );
    let mut opts = Options::new(&ws.root);
    let outcome = run(&opts).expect("scan succeeds");
    assert_eq!(outcome.violations.len(), 1, "suppressed site must not fire");
    assert_eq!(outcome.exit_code(), 1);

    // `--update-baseline` freezes the remaining violation…
    opts.baseline_path = Some(PathBuf::from("simlint-baseline.txt"));
    opts.update_baseline = true;
    let updated = run(&opts).expect("baseline write succeeds");
    assert!(updated.baseline_written);
    assert!(ws.root.join("simlint-baseline.txt").is_file());

    // …so the next gated run passes.
    opts.update_baseline = false;
    let gated = run(&opts).expect("scan succeeds");
    assert_eq!(gated.exit_code(), 0);
    assert_eq!(gated.comparison.as_ref().expect("compared").baselined, 1);

    // A *new* violation still fails, and the old one stays absorbed.
    ws.write(
        "crates/engine/src/extra.rs",
        "pub fn h() { panic!(\"boom\"); }\n",
    );
    let regressed = run(&opts).expect("scan succeeds");
    assert_eq!(regressed.exit_code(), 1);
    let cmp = regressed.comparison.as_ref().expect("compared");
    assert_eq!(cmp.new.len(), 1);
    assert_eq!(cmp.new[0].rule, Rule::UnwrapAudit);
    assert_eq!(cmp.baselined, 1);
}

#[test]
fn custom_config_overrides_defaults() {
    let ws = TempWorkspace::new("config");
    ws.write(
        "crates/engine/src/lib.rs",
        "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
    );
    // Default config: S1 denies.
    assert_eq!(run(&Options::new(&ws.root)).expect("scan").exit_code(), 1);
    // Config turning S1 off: clean.
    ws.write(
        "simlint.toml",
        "[lint]\ninclude = [\"crates\"]\nexclude = []\n\n[rule.unwrap-audit]\nseverity = \"off\"\n",
    );
    assert_eq!(run(&Options::new(&ws.root)).expect("scan").exit_code(), 0);
    // Malformed config is a hard error, not a silent default.
    ws.write("simlint.toml", "[rule.unwrap-audit]\nseverity = fatal\n");
    assert!(run(&Options::new(&ws.root)).is_err());
}
