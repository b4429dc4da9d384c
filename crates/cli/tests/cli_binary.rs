//! The `cqc` binary's error output: one line for an error in the input, the
//! usage text only for a malformed command line.

use std::process::{Command, Output};

fn cqc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cqc"))
        .args(args)
        .output()
        .expect("cqc runs")
}

#[test]
fn a_counting_error_is_one_stderr_line() {
    let db = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/friends.facts"
    );
    let query = "ans(x, y) :- E(x, y), !F(y, x)";
    let out = cqc(&["exact", "--db", db, "--query", query]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: counting error: incompatible database"),
        "{stderr}"
    );
}

#[test]
fn an_unknown_command_prints_the_usage() {
    let out = cqc(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: usage error:"), "{stderr}");
    assert!(stderr.contains(cqc_cli::USAGE), "{stderr}");
}
