//! A size of zero is a usage error, reported like any other: one line on
//! stderr, a failing exit, no panic. Before the check, `<scenario> 0`
//! aborted inside seven scenarios (an empty trace, a campaign without
//! crash points, a compression-ratio assert) and `table1 0` published a
//! `NaN`; `--shards 0` ran one shard and recorded `"shards":0`.

use std::path::Path;
use std::process::Command;

/// Runs `trail-bench args` and returns `(succeeded, stderr)`.
fn trail_bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trail-bench"))
        .args(args)
        .arg("--out-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("usage_errors"))
        .output()
        .expect("run trail-bench");
    (
        out.status.success(),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (ok, stderr) = trail_bench(args);
    assert!(!ok, "trail-bench {args:?} must fail");
    assert!(
        stderr.contains(message),
        "trail-bench {args:?} stderr lacks {message:?}: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "trail-bench {args:?} panicked: {stderr}"
    );
}

#[test]
fn scale_zero_is_rejected_for_every_scenario() {
    for spec in trail_bench::all_scenarios() {
        assert_usage_error(&[spec.name, "0", "--quick"], "scale must be at least 1");
    }
}

#[test]
fn shards_zero_is_rejected() {
    let shards = "--shards must be at least 1";
    assert_usage_error(&["giga", "--records", "100", "--shards", "0"], shards);
    // Rejected before the trace is opened, so no file is needed.
    assert_usage_error(
        &["replay_stream", "--trace", "none.trace", "--shards", "0"],
        shards,
    );
}
