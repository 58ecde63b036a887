//! Usage errors are reported like any other: one message on stderr, a
//! failing exit, no panic. Before the checks, `<scenario> 0` aborted
//! inside seven scenarios (an empty trace, a campaign without crash
//! points, a compression-ratio assert) and `table1 0` published a `NaN`;
//! `--shards 0` ran one shard and recorded `"shards":0`. Replaying a trace
//! file is `trace_tool replay`'s job alone, so its sharding flags are
//! checked here too, error and success path, as are its stack specs and
//! the binary storage flags a JSONL output cannot honour.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("usage_errors")
        .join(name)
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

fn trace_tool(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_trace_tool"), args)
}

/// `args` must fail with `message` on stderr and without a panic;
/// returns stderr.
fn assert_usage_error(bin: &str, args: &[&str], message: &str) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(!out.status.success(), "{bin} {args:?} must fail");
    assert!(
        stderr.contains(message),
        "{bin} {args:?} stderr lacks {message:?}: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked: {stderr}"
    );
    stderr
}

fn trail_bench_usage_error(args: &[&str], message: &str) {
    // Should a check regress, the run's artifacts land here, not in cwd.
    let out_dir = scratch("trail-bench");
    let mut args = args.to_vec();
    args.extend_from_slice(&["--out-dir", out_dir.to_str().expect("UTF-8 path")]);
    assert_usage_error(env!("CARGO_BIN_EXE_trail-bench"), &args, message);
}

fn trace_tool_usage_error(args: &[&str], message: &str) {
    let stderr = assert_usage_error(env!("CARGO_BIN_EXE_trace_tool"), args, message);
    assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
}

#[test]
fn scale_zero_is_rejected_for_every_scenario() {
    for spec in trail_bench::all_scenarios() {
        trail_bench_usage_error(&[spec.name, "0", "--quick"], "scale must be at least 1");
    }
}

#[test]
fn shards_zero_is_rejected() {
    let shards = "--shards must be at least 1";
    // Rejected before the trace is opened, so no file is needed.
    trace_tool_usage_error(&["replay", "none.trace", "--shards", "0"], shards);
}

#[test]
fn threads_without_shards_is_rejected() {
    trace_tool_usage_error(
        &["replay", "none.trace", "--threads", "2"],
        "--threads applies to a sharded replay",
    );
}

#[test]
fn trail_bench_points_a_trace_file_at_trace_tool() {
    trail_bench_usage_error(&["replay_stream", "--trace", "x"], "trace_tool replay");
}

/// Generates a 4-stream, 2-device trace of `requests` records at `path`.
fn generate(path: &str, requests: &str) {
    let generated = trace_tool(&[
        "generate",
        "--out",
        path,
        "--requests",
        requests,
        "--streams",
        "4",
        "--devices",
        "2",
        "--mean-iat-us",
        "20000",
    ]);
    assert!(generated.status.success(), "{generated:?}");
}

#[test]
fn jsonl_output_rejects_binary_storage_flags() {
    let dir = scratch("storage");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("t.trace");
    let trace = trace.to_str().expect("UTF-8 path");
    generate(trace, "20");
    let jsonl = dir.join("t.jsonl");
    let jsonl = jsonl.to_str().expect("UTF-8 path");
    for flags in [
        &["--compress"][..],
        &["--raw"],
        &["--chunk-records", "7"],
        &["--compress", "--chunk-records", "7"],
    ] {
        let mut args = vec!["convert", trace, jsonl];
        args.extend_from_slice(flags);
        trace_tool_usage_error(&args, "apply to binary traces");
    }
    trace_tool_usage_error(
        &["generate", "--out", jsonl, "--chunk-records", "7"],
        "apply to binary traces",
    );
}

#[test]
fn replay_targets_any_stack_spec_and_refuses_a_malformed_one() {
    trace_tool_usage_error(
        &["replay", "none.trace", "--target", "raid5x2_trail"],
        "raid5 needs at least 3 members",
    );
    trace_tool_usage_error(
        &["replay", "none.trace", "--target", "raid5x3_ps2"],
        "unknown front end",
    );
    let dir = scratch("raid");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("t.trace");
    let trace = trace.to_str().expect("UTF-8 path");
    generate(trace, "40");
    for target in ["raid5x3_trail", "raid5x3_trail_multi2"] {
        let out_dir = dir.to_str().expect("UTF-8 path");
        let args = ["replay", trace, "--target", target, "--out-dir", out_dir];
        let run = trace_tool(&args);
        assert!(run.status.success(), "trace_tool {args:?}: {run:?}");
        let artifact = std::fs::read_to_string(dir.join(format!("BENCH_replay_{target}.json")));
        let artifact = artifact.expect("artifact written");
        assert!(
            artifact.contains(&format!("\"target\":\"{target}\"")),
            "{artifact}"
        );
        assert!(artifact.contains("\"requests\":40"), "{artifact}");
    }
}

#[test]
fn sharded_file_replay_ignores_the_thread_count() {
    let dir = scratch("sharded");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("t.trace");
    let trace = trace.to_str().expect("UTF-8 path");
    generate(trace, "2000");
    let replay = |out: &str, extra: &[&str]| -> (Vec<u8>, String) {
        let out_dir = dir.join(out);
        let mut args = vec!["replay", trace, "--target", "trail_multi2", "--out-dir"];
        args.push(out_dir.to_str().expect("UTF-8 path"));
        args.extend_from_slice(extra);
        let run = trace_tool(&args);
        assert!(run.status.success(), "trace_tool {args:?}: {run:?}");
        let artifact = std::fs::read(out_dir.join("BENCH_replay_trail_multi2.json"));
        (
            artifact.expect("artifact written"),
            String::from_utf8(run.stdout).expect("stdout is UTF-8"),
        )
    };
    let (one, stdout) = replay("t1", &["--shards", "4", "--threads", "1"]);
    let (two, _) = replay("t2", &["--shards", "4", "--threads", "2"]);
    assert_eq!(one, two, "the artifact must not depend on --threads");
    let json = String::from_utf8(one).expect("artifact is UTF-8");
    assert!(json.contains("\"requests\":2000"), "{json}");
    assert!(json.ends_with("\"shards\":4}"), "{json}");
    assert!(!json.contains("threads"), "{json}");
    for line in ["(4 shards)", "records/s wall", "VmHWM", "media:"] {
        assert!(stdout.contains(line), "stdout lacks {line:?}: {stdout}");
    }
    let (plain, _) = replay("plain", &[]);
    assert!(!String::from_utf8(plain).expect("UTF-8").contains("shards"));
}

#[test]
fn a_record_on_an_undeclared_device_is_refused_by_inspect_and_convert() {
    use std::fs::File;
    use std::io::BufReader;
    use trail_trace::{JsonlReader, RecordSource, TraceWriter};

    let dir = scratch("undeclared_device");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("UTF-8 path").to_string();
    let (jsonl, binary) = (path("t.jsonl"), path("t.trace"));
    // The header declares one device; record 1 is on a second.
    std::fs::write(
        &jsonl,
        concat!(
            r#"{"format":"trail-trace","version":3,"source":"synthetic","seed":"1","devices":1,"note":"","chunk_records":0,"encoding":"raw"}"#,
            "\n",
            r#"{"at_ns":1000,"op":"W","dev":0,"lba":8,"sectors":8,"stream":0}"#,
            "\n",
            r#"{"at_ns":2000,"op":"W","dev":1,"lba":8,"sectors":8,"stream":0}"#,
            "\n",
            r#"{"at_ns":3000,"op":"R","dev":0,"lba":8,"sectors":8,"stream":0}"#,
            "\n",
        ),
    )
    .expect("JSONL written");
    // Its binary conversion, made by the library's codecs, which check
    // only the encoding.
    let file = BufReader::new(File::open(&jsonl).expect("JSONL opens"));
    let mut source = JsonlReader::new(file).expect("JSONL header");
    let out = File::create(&binary).expect("binary created");
    let mut sink = TraceWriter::new(out, source.meta()).expect("binary header");
    while let Some(record) = source.next_record() {
        sink.write_record(&record.expect("JSONL record"))
            .expect("binary record");
    }
    sink.finish().expect("binary finished");

    let why = "record 1: device 1 beyond the header's 1 devices";
    for (trace, converted) in [(&jsonl, path("c.trace")), (&binary, path("c.jsonl"))] {
        trace_tool_usage_error(&["inspect", trace], why);
        let _ = std::fs::remove_file(&converted);
        trace_tool_usage_error(&["convert", trace, &converted], why);
        assert!(
            !Path::new(&converted).exists(),
            "convert wrote {converted} for a trace it refused"
        );
    }
}
