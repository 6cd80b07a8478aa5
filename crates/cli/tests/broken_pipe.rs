//! Output into a pipe the reader already closed (`securitykg stats --kg kg/
//! | head -4` once `head` has its lines) ends the run with success, not a
//! panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_securitykg");

fn temp_store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kg-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `args` with stdout on a pipe whose read end is already closed, so
/// the first line written fails with a broken pipe.
fn run_into_closed_pipe(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(BIN)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run securitykg")
}

#[test]
fn a_closed_stdout_ends_every_printing_subcommand_with_success() {
    let dir = temp_store_dir("pipe");
    let kg = dir.to_str().expect("utf-8 path");
    let built = Command::new(BIN)
        .args(["build", "--out", kg, "--articles", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("build");
    assert!(built.success());
    for args in [
        vec!["stats", "--kg", kg],
        vec!["cypher", "--kg", kg, "MATCH (n) RETURN n.name"],
        vec!["search", "--kg", kg, "ransomware"],
        vec!["help"],
    ] {
        let output = run_into_closed_pipe(&args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
