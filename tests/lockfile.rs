//! The workspace builds where it is cloned, offline and with an empty
//! registry: every package in the committed `Cargo.lock` is a path package
//! of this repository. A registry or git dependency would give its package
//! a `source = …` line, and CI's `--locked` builds fail when the lockfile
//! no longer matches the manifests, so checking the lockfile checks them.

const LOCKFILE: &str = include_str!("../Cargo.lock");

#[test]
fn the_lockfile_names_no_registry_or_git_source() {
    let sources: Vec<&str> = LOCKFILE
        .lines()
        .filter(|line| line.starts_with("source = "))
        .collect();
    assert!(
        sources.is_empty(),
        "Cargo.lock takes packages from outside the repository: {sources:?}; \
         use an in-tree crate (fc-rng for randomness and seeded test cases) or \
         the standard library"
    );
    // The embedded file is the workspace's lockfile, not an empty stand-in.
    assert!(LOCKFILE.contains("name = \"focus-assembler\""));
    assert!(LOCKFILE.contains("name = \"fc-rng\""));
}
