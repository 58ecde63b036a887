//! Acceptance for the artifacts themselves, over the whole registry:
//! `trail-bench <scenario>` and `trail-bench all` write the same bytes
//! and print the same report, those bytes are the checked-in golden
//! ones, and the artifacts that back a headline claim carry the fields
//! and clear the floors the claim rests on.

use std::path::{Path, PathBuf};
use std::process::Command;

use trail_bench::all_scenarios;
use trail_trace::crc32;

/// `(artifact stem, byte length, CRC-32)` of every `--quick`, seed-0
/// artifact, in registry order. A change that moves any simulated number
/// fails here and prints the new table; paste it in only when the move is
/// the point of the change.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("micro", 1054, 0x52dd1b47),
    ("table1", 216, 0x6e82d27f),
    ("fig3", 1063, 0x952c07a6),
    ("fig4", 315, 0x39edd79b),
    ("ablation", 1368, 0xbe61afca),
    ("fs_compare", 238, 0x4f6a8c22),
    ("table2", 860, 0xa97c7243),
    ("table3", 144, 0x9e286b0d),
    ("track_util", 216, 0xe151bb90),
    ("replay_synthetic", 28157, 0xd773a145),
    ("overload_sweep", 2372, 0x481d2fa7),
    ("replay_tpcc", 12722, 0x21f651c3),
    ("replaystream", 554, 0x2cc36669),
    ("serve", 34805, 0x751da96b),
    ("serve_sweep", 34240, 0x69cc675c),
    ("raid", 11036, 0xf600b140),
    ("recovery", 2936, 0x9ad42134),
];

/// `(registry name, byte length, CRC-32)` of every `--quick`, seed-0
/// report as `trail-bench <name>` prints it, in registry order — the
/// markdown half of what [`GOLDEN`] pins for the JSON half, and moved
/// under the same rule.
const REPORT_GOLDEN: &[(&str, usize, u32)] = &[
    ("micro", 1572, 0x669ab0d0),
    ("table1", 247, 0x4d35978d),
    ("fig3", 874, 0xdd5a29c7),
    ("fig4", 474, 0x4a794679),
    ("ablation", 1196, 0x4aae5121),
    ("fs_compare", 934, 0x949f5bb2),
    ("table2", 955, 0x0ba463e3),
    ("table3", 173, 0x64eca0e5),
    ("track_util", 227, 0x831611cb),
    ("replay_synthetic", 624, 0xa25931ae),
    ("overload_sweep", 1347, 0x9054adb6),
    ("replay_tpcc", 424, 0x99525df1),
    ("replay_stream", 443, 0x63c76b88),
    ("serve_fleet", 1295, 0x2160ed0a),
    ("serve_sweep", 1371, 0x358db61a),
    ("raid_sweep", 1334, 0x10221498),
    ("crash_campaign", 1449, 0xe7b4e9dd),
];

/// What an artifact must show for the headline claim it backs to hold.
struct Claim {
    artifact: &'static str,
    /// Substrings that must be present.
    fields: &'static [&'static str],
    /// Substrings every table row (each `{"target":` object) must contain.
    every_row: &'static [&'static str],
    /// `(field, floor)`: the field's first occurrence must be at least
    /// the floor. A `scope/…/field` path looks for the field after the
    /// first occurrence of each scope key in turn.
    floors: &'static [(&'static str, f64)],
}

const CLAIMS: &[Claim] = &[
    Claim {
        artifact: "raid",
        // Degraded-mode rows and per-member latency breakdowns.
        fields: &["\"degraded_reads\"", "\"members\""],
        // No geometry, load or failure loses a request.
        every_row: &["\"errors\":0,"],
        // Trail-fronted RAID-5 beats the standard stack by at least 2x on
        // small-write mean latency at recorded load, and its reads overtake
        // the write-backs queued on the members. (The read ratio grows with
        // the standard stack's queue: ~5x on this 150-request run, ~33x at
        // full size, where ci.sh holds it to 10.)
        floors: &[("small_write_speedup", 2.0), ("small_read_speedup", 4.0)],
    },
    Claim {
        artifact: "recovery",
        // Every crash point satisfies the durability contract — the
        // campaign-wide count is 0, so every row's is — and each flavor has
        // an exhaustive row (the scenario itself asserts the
        // recovery-time curve is monotone).
        fields: &[
            "\"violations\":0,",
            "\"curve\"",
            "\"mean_total_ms\"",
            "\"mean_active_log_sectors\"",
            "\"exhaustive\":{\"raw\":{",
        ],
        every_row: &[],
        // The quick campaign still runs a real fleet of crash points, and
        // each exhaustive row enumerates a real burst (the scenario asserts
        // that its cuts tear a record and fall inside a data-disk write).
        floors: &[
            ("crash_points_total", 64.0),
            ("exhaustive/raw/crash_points", 30.0),
            ("exhaustive/multi2/crash_points", 30.0),
            ("exhaustive/raid5/crash_points", 30.0),
        ],
    },
];

/// Runs `trail-bench args --out-dir out_dir` and returns what it printed.
fn trail_bench(args: &[&str], out_dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trail-bench"))
        .args(args)
        .arg("--out-dir")
        .arg(out_dir)
        .stderr(std::process::Stdio::null())
        .output()
        .expect("run trail-bench");
    assert!(
        out.status.success(),
        "trail-bench {args:?} exited with {}",
        out.status
    );
    String::from_utf8(out.stdout).expect("reports are UTF-8")
}

/// The report `trail-bench all` printed under the `name — title` banner:
/// everything up to the next banner or the closing summary line.
fn section<'a>(all: &'a str, name: &str, title: &str) -> &'a str {
    let banner = format!("\n######## {name} — {title}\n\n");
    let start = all.find(&banner).expect("scenario banner") + banner.len();
    let rest = &all[start..];
    let end = rest
        .find("\n######## ")
        .or_else(|| rest.rfind("\n== trail-bench all:"))
        .expect("a banner or the summary follows every report");
    &rest[..end]
}

/// The number following the first `"field":` in `text`, or after the
/// first `"scope":` of each scope of a `scope/…/field` path in turn.
fn first_number(text: &str, path: &str) -> Option<f64> {
    let mut rest = text;
    for key in path.split('/') {
        let key = format!("\"{key}\":");
        rest = &rest[rest.find(&key)? + key.len()..];
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn every_artifact_is_path_independent_golden_and_backs_its_claims() {
    let base: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario_artifacts");
    let (all_dir, single_dir) = (base.join("all"), base.join("single"));
    // A stale artifact from an earlier run must not stand in for one this
    // run failed to write.
    let _ = std::fs::remove_dir_all(&base);
    let all_stdout = trail_bench(&["all", "--quick"], &all_dir);

    let mut table = Vec::new();
    let mut reports = Vec::new();
    for spec in all_scenarios() {
        let report = trail_bench(&[spec.name, "--quick"], &single_dir);
        assert!(
            report == section(&all_stdout, spec.name, spec.title),
            "`trail-bench {0}` and the {0} section of `trail-bench all` print different reports",
            spec.name
        );
        reports.push((spec.name, report.len(), crc32(report.as_bytes())));
        let file = format!("BENCH_{}.json", spec.artifact);
        let bytes = std::fs::read(all_dir.join(&file)).expect("artifact from `all`");
        let single = std::fs::read(single_dir.join(&file)).expect("artifact from the scenario");
        assert!(
            bytes == single,
            "{file} differs between `trail-bench all` and `trail-bench {}`",
            spec.name
        );
        table.push((spec.artifact, bytes.len(), crc32(&bytes)));

        let text = String::from_utf8(bytes).expect("artifacts are UTF-8");
        for claim in CLAIMS.iter().filter(|c| c.artifact == spec.artifact) {
            for field in claim.fields {
                assert!(text.contains(field), "{file} lacks {field}");
            }
            let rows: Vec<&str> = text.split("{\"target\":").skip(1).collect();
            for field in claim.every_row {
                assert!(!rows.is_empty(), "{file} has no rows");
                for row in &rows {
                    assert!(row.contains(field), "{file}: a row lacks {field}");
                }
            }
            for &(field, floor) in claim.floors {
                let v = first_number(&text, field)
                    .unwrap_or_else(|| panic!("{file} lacks a numeric {field}"));
                assert!(v >= floor, "{file}: {field} is {v}, below {floor}");
            }
        }
    }
    for claim in CLAIMS {
        assert!(
            table.iter().any(|(a, _, _)| *a == claim.artifact),
            "CLAIMS names {}, which no scenario publishes",
            claim.artifact
        );
    }

    if table != GOLDEN {
        eprintln!("const GOLDEN: &[(&str, usize, u32)] = &[");
        for (artifact, len, crc) in &table {
            eprintln!("    ({artifact:?}, {len}, {crc:#010x}),");
        }
        eprintln!("];");
        panic!("--quick artifacts differ from the golden table; the new table is printed above");
    }
    if reports != REPORT_GOLDEN {
        eprintln!("const REPORT_GOLDEN: &[(&str, usize, u32)] = &[");
        for (name, len, crc) in &reports {
            eprintln!("    ({name:?}, {len}, {crc:#010x}),");
        }
        eprintln!("];");
        panic!("--quick reports differ from the golden table; the new table is printed above");
    }
}
