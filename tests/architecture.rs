//! The workspace's shape, checked where `cargo test` sees it.
//!
//! `scripts/check_structure.sh` holds the structural guards (one JSON
//! codec, one kernel source, one rescoring stack, one Fig. 4 pipeline, no
//! caller-less surface, no hardware gather/scatter, no point-dipole
//! induction, every CLI solve on the plan engine); this file runs it.
//! It also holds the root `Cargo.toml` to testing every crate: the
//! tier-1 `cargo build --release && cargo test -q` covers exactly the
//! default members, so a crate dropped from them drops its tests silently.

use std::path::Path;
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

#[test]
fn the_structural_guards_pass() {
    let script = Path::new(ROOT).join("scripts/check_structure.sh");
    let out = Command::new("bash")
        .arg(&script)
        .output()
        .expect("bash runs scripts/check_structure.sh");
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The quoted strings of the array `key = [...]` that opens a line of
/// `toml`, or `None` if no line sets `key`.
fn string_array(toml: &str, key: &str) -> Option<Vec<String>> {
    let mut offset = 0;
    for line in toml.split_inclusive('\n') {
        let sets_key = line
            .trim_start()
            .strip_prefix(key)
            .is_some_and(|rest| rest.trim_start().starts_with('='));
        if sets_key {
            let tail = &toml[offset..];
            let body = &tail[tail.find('[')? + 1..tail.find(']')?];
            return Some(
                body.split('"')
                    .skip(1)
                    .step_by(2)
                    .map(String::from)
                    .collect(),
            );
        }
        offset += line.len();
    }
    None
}

#[test]
fn tier_one_builds_and_tests_every_workspace_member() {
    let toml = std::fs::read_to_string(Path::new(ROOT).join("Cargo.toml")).unwrap();
    let members = string_array(&toml, "members").expect("workspace members");
    let default_members = string_array(&toml, "default-members")
        .expect("default-members: without it tier-1 runs only the root package");
    assert!(!members.is_empty());
    for needed in std::iter::once(".").chain(members.iter().map(String::as_str)) {
        assert!(
            default_members.iter().any(|m| m == needed),
            "default-members {default_members:?} leaves out {needed:?}: \
             tier-1 would not build or test it"
        );
    }
}
