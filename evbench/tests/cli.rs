//! The command's contract: a failed output check exits with code 1 after
//! printing `correct: false`, and bad arguments exit with code 2 without a
//! result line.

use std::process::Command;

fn evbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_evbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("evbench runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn a_planted_stale_response_fails_the_run() {
    let (code, stdout) = evbench(&[
        "--workload",
        "fai-stream",
        "--seed",
        "1",
        "--seconds",
        "0.1",
        "--trace",
        "0",
        "--plant-stale-response",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("Violation"), "{stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "fai-stream", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "explore-noisy",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--plant-stale-response",
        ][..],
    ] {
        let (code, stdout) = evbench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}
