//! The workspace itself must stay lint-clean: every real finding is
//! either fixed or carries a justified inline waiver.  This is the same
//! check CI's `lint` job runs via the CLI.

use acmp_lint::{lint_workspace, load_workspace};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let diags = lint_workspace(&workspace_root(), None).expect("workspace is readable");
    assert!(
        diags.is_empty(),
        "the workspace has lint findings (fix them or add a justified \
         `// acmp-lint: allow(rule) -- why` waiver):\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_walk_actually_covers_the_workspace() {
    // Guard against the walker silently going blind: the real workspace
    // has >100 Rust files across crates/, root tests/ and examples/, and
    // every shim manifest must be present for shim-drift to mean anything.
    let (files, manifests) = load_workspace(&workspace_root()).expect("workspace is readable");
    assert!(
        files.len() > 100,
        "workspace walk found only {} Rust files",
        files.len()
    );
    for shim in [
        "parking_lot",
        "proptest",
        "rand",
        "rand_chacha",
        "serde",
        "serde_derive",
        "serde_json",
    ] {
        let rel = format!("shims/{shim}/Cargo.toml");
        assert!(
            manifests.iter().any(|m| m.rel == rel),
            "shim manifest {rel} missing from the walk"
        );
    }
    // Spot-check classification on files whose kind the rules depend on.
    let kind_of = |rel: &str| {
        files
            .iter()
            .find(|f| f.rel == rel)
            .unwrap_or_else(|| panic!("{rel} missing from the walk"))
            .kind
    };
    assert_eq!(
        kind_of("crates/acmp-sweep/src/bin/sweep.rs"),
        acmp_lint::FileKind::Bin
    );
    assert_eq!(
        kind_of("crates/acmp-store/src/store.rs"),
        acmp_lint::FileKind::Lib
    );
    assert_eq!(
        kind_of("examples/design_space.rs"),
        acmp_lint::FileKind::Example
    );
}
