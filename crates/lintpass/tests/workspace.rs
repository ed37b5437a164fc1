//! Workspace-level gates: the real tree passes its own lint, and the
//! media-fault subsystem stays free of the generic escape hatch.

use std::path::{Path, PathBuf};

use lintpass::lint_paths;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_scan_is_clean() {
    // The real tree must pass its own lint, semantic rules included
    // (legitimate sites are annotated; nothing rides on the baseline).
    let root = repo_root();
    let roots: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let r = lint_paths(&roots).expect("scan");
    assert!(r.files_scanned > 40, "scanned {}", r.files_scanned);
    let msgs: Vec<String> = r.findings.iter().map(|f| f.to_string()).collect();
    assert!(r.is_clean(), "lint findings:\n{}", msgs.join("\n"));
}

#[test]
fn media_subsystem_never_uses_the_generic_allow_escape() {
    // The media-fault subsystem ships `lint:allow`-free: every annotation
    // in its files is one of the *dedicated* markers (`lint:order-frozen`,
    // `lint:shard-serial`), which name the exact invariant they assert
    // instead of blanket-suppressing a rule. The committed baseline stays
    // empty; nothing new may ride on either escape hatch.
    let root = repo_root();
    for rel in [
        "crates/nvm/src/media.rs",
        "crates/nvm/src/wearlevel.rs",
        "crates/bench/src/bin/media.rs",
        "crates/crashtest/src/oracle.rs",
        "crates/crashtest/src/harness.rs",
        "crates/crashtest/src/drivers.rs",
        "crates/crashtest/src/fixtures.rs",
        "crates/engines/src/common.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect(rel);
        assert!(
            !src.contains("lint:allow("),
            "{rel}: generic lint:allow escape in the media subsystem — \
             use a dedicated marker or fix the finding"
        );
    }
}
