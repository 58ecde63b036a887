//! A trace's encoding is storage, not content: `trace_tool replay`
//! reports the same bytes whether the trace file is binary or JSONL, on
//! every target the command line can name, sharded or not.

use std::path::Path;
use std::process::Command;

fn trace_tool(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .args(args)
        .output()
        .expect("run trace_tool");
    assert!(out.status.success(), "trace_tool {args:?}: {out:?}");
}

#[test]
fn replay_reports_the_same_bytes_from_jsonl_and_binary() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_formats");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("UTF-8 path").to_string();
    let (binary, jsonl) = (path("t.trace"), path("t.jsonl"));
    trace_tool(&[
        "generate",
        "--out",
        &binary,
        "--requests",
        "120",
        "--streams",
        "3",
        "--devices",
        "2",
        "--read-frac",
        "0.4",
    ]);
    trace_tool(&["convert", &binary, &jsonl]);
    // Target labels are the command-line names, so the artifact is
    // `BENCH_replay_<target>.json`.
    let report = |trace: &str, out: &str, target: &str, extra: &[&str]| -> Vec<u8> {
        let out_dir = path(out);
        let mut args = vec!["replay", trace, "--quick", "--target", target, "--out-dir"];
        args.push(&out_dir);
        args.extend_from_slice(extra);
        trace_tool(&args);
        std::fs::read(Path::new(&out_dir).join(format!("BENCH_replay_{target}.json")))
            .expect("artifact written")
    };
    for (target, extra) in [
        ("standard", &[][..]),
        ("trail", &[]),
        ("trail_multi2", &[]),
        ("ext2", &[]),
        ("ext2_trail", &[]),
        ("lfs", &[]),
        ("lfs_trail", &[]),
        ("trail_multi2", &["--shards", "2"]),
    ] {
        let from_binary = report(&binary, "binary", target, extra);
        let from_jsonl = report(&jsonl, "jsonl", target, extra);
        assert!(
            from_binary == from_jsonl,
            "{target} {extra:?}: the report depends on the trace's encoding"
        );
    }
}
