//! The `repro` binary's handling of bad command lines.

use std::process::Command;

#[test]
fn malformed_numeric_flag_is_a_usage_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "--scale-log2", "twelve"])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("bad value for --scale-log2: \"twelve\""), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
