//! A reader that closes the pipe early (`uniq help | head -1`) must not
//! make the binary panic: the rest of the output is simply not wanted.

use std::process::{Command, Stdio};

/// Runs `uniq` with `args` writing into a pipe whose read end is closed
/// before the process starts, so its first write fails with EPIPE.
/// Returns the exit code and stderr.
fn run_into_closed_pipe(args: &[&str]) -> (Option<i32>, String) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_uniq"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn uniq");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_closed_stdout_pipe_is_a_quiet_success() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/seed6.uhrtf");
    for args in [
        &["help"][..],
        &["info", "--table", fixture],
        &["store", "help"],
    ] {
        let (code, stderr) = run_into_closed_pipe(args);
        assert!(
            !stderr.contains("panicked"),
            "uniq {args:?} panicked:\n{stderr}"
        );
        assert_eq!(code, Some(0), "uniq {args:?} exit code; stderr:\n{stderr}");
        assert!(
            stderr.is_empty(),
            "uniq {args:?} wrote to stderr:\n{stderr}"
        );
    }
}
