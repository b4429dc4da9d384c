//! Source-level gates that clippy cannot see: every crate root gates
//! `unsafe` code, and every workspace manifest inherits the workspace lint
//! table (the determinism contract in `clippy.toml` and
//! `[workspace.lints]`), so a new crate cannot skip either.

use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root facade and every `crates/*` directory, with its name. The
/// vendored shims under `shims/` are not workspace crates in this sense.
fn workspace_crates() -> Vec<(PathBuf, String)> {
    let mut crates = vec![(workspace_root().to_path_buf(), "cqcount".to_string())];
    for entry in std::fs::read_dir(workspace_root().join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        if dir.join("Cargo.toml").is_file() {
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            crates.push((dir, name));
        }
    }
    assert!(crates.len() > 5, "expected a workspace full of crates");
    crates
}

/// Every crate root must gate unsafe code: `forbid(unsafe_code)`
/// everywhere, except the two fenced crates — the runtime (pool borrow
/// erasure) and net (the poll(2) shim) — whose roots carry `deny` with an
/// `#[expect(unsafe_code, reason = …)]` on each region that needs it.
#[test]
fn every_crate_root_gates_unsafe() {
    for (dir, name) in workspace_crates() {
        let lib = dir.join("src/lib.rs");
        if !lib.is_file() {
            continue;
        }
        let src = std::fs::read_to_string(&lib).unwrap();
        if name == "runtime" || name == "net" {
            assert!(
                src.contains("#![deny(unsafe_code)]"),
                "crates/{name}/src/lib.rs must carry #![deny(unsafe_code)]"
            );
        } else {
            assert!(
                src.contains("#![forbid(unsafe_code)]"),
                "{name}: crate root must carry #![forbid(unsafe_code)]"
            );
        }
    }
}

/// Every workspace manifest must inherit `[workspace.lints]`: a crate
/// without the table is invisible to the clippy gate's determinism lints.
#[test]
fn every_manifest_inherits_the_workspace_lints() {
    for (dir, name) in workspace_crates() {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{name}: Cargo.toml must carry `[lints]` with `workspace = true`"
        );
    }
}
