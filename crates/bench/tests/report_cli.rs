//! The `report` binary rejects an experiment name it does not know.

use std::process::Command;

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("hom-engine")
        .output()
        .expect("report runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: report"), "{stderr}");
    assert!(stderr.contains("hom-engines"), "{stderr}");
}
