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
    ("micro", 280, 0x88a28131),
    ("table1", 218, 0x40214b7c),
    ("fig3", 1063, 0xcfe7cd6c),
    ("fig4", 315, 0xe857e778),
    ("ablation", 1367, 0xbd2504c9),
    ("fs_compare", 237, 0x0400e738),
    ("table2", 412, 0x26012628),
    ("table3", 144, 0x9e286b0d),
    ("track_util", 216, 0x90398c7a),
    ("replay_synthetic", 35996, 0xd2239370),
    ("overload_sweep", 2370, 0xbad319ca),
    ("replay_tpcc", 14492, 0x3bc2132b),
    ("replaystream", 654, 0x36f5fd81),
    ("serve", 41677, 0x78b3f95d),
    ("serve_sweep", 40821, 0x9c4c05e7),
    ("raid", 11010, 0x02a21a96),
    ("recovery", 1304, 0x0ef4dff6),
];

/// `(registry name, byte length, CRC-32)` of every `--quick`, seed-0
/// report as `trail-bench <name>` prints it, in registry order — the
/// markdown half of what [`GOLDEN`] pins for the JSON half, and moved
/// under the same rule.
const REPORT_GOLDEN: &[(&str, usize, u32)] = &[
    ("micro", 990, 0x389c30ef),
    ("table1", 247, 0x26c7f730),
    ("fig3", 874, 0xc24c1da7),
    ("fig4", 474, 0x2cbcc808),
    ("ablation", 1196, 0xe69a4878),
    ("fs_compare", 934, 0xd6c21d4c),
    ("table2", 564, 0xf41c9b03),
    ("table3", 173, 0x64eca0e5),
    ("track_util", 227, 0x61d835fe),
    ("replay_synthetic", 624, 0x44fb4690),
    ("overload_sweep", 1349, 0x487197d8),
    ("replay_tpcc", 424, 0x44a5d726),
    ("replay_stream", 445, 0x01801081),
    ("serve_fleet", 1297, 0x898f1320),
    ("serve_sweep", 1374, 0x146243e7),
    ("raid_sweep", 1295, 0x7b36d408),
    ("crash_campaign", 719, 0x63f9f9b8),
];

/// What an artifact must show for the headline claim it backs to hold.
struct Claim {
    artifact: &'static str,
    /// Substrings that must be present.
    fields: &'static [&'static str],
    /// `(field, floor)`: the field's first occurrence must be at least
    /// the floor.
    floors: &'static [(&'static str, f64)],
}

const CLAIMS: &[Claim] = &[
    Claim {
        artifact: "raid",
        // Degraded-mode rows and per-member latency breakdowns.
        fields: &["\"degraded_reads\"", "\"members\""],
        // Trail-fronted RAID-5 beats the standard stack by at least 2x on
        // small-write mean latency at recorded load.
        floors: &[("small_write_speedup", 2.0)],
    },
    Claim {
        artifact: "recovery",
        // Every sampled crash point satisfies the durability contract (the
        // scenario itself asserts the recovery-time curve is monotone).
        fields: &[
            "\"violations\":0,",
            "\"curve\"",
            "\"mean_total_ms\"",
            "\"mean_active_log_sectors\"",
        ],
        // The quick campaign still samples a real fleet of crash points.
        floors: &[("crash_points_total", 64.0)],
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

/// The number following the first `"field":` in `text`.
fn first_number(text: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let rest = &text[text.find(&key)? + key.len()..];
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
