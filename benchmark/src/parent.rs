//! The parent process: spawns fresh children one after the other, holds
//! their reports against each other, and folds them into one result per
//! workload. All load comes from this one process, one child at a time
//! (a child runs one thread, `replay_sharded` two).

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use trail_telemetry::JsonValue;

use crate::child::PROBES;
use crate::report::{absorb_violations, get, notes_json, put, ratio, ChildReport, Metrics};
use crate::schema::{self, Clock};
use crate::stats::{best_low, quartiles};

/// How a run was asked for.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// The `--seconds` the run was sized for.
    pub seconds: f64,
    /// Fresh untraced children per workload.
    pub k: usize,
}

impl RunOpts {
    /// Workload sizes are stated for the benchmark's own `run_seconds`.
    pub fn scale(&self) -> f64 {
        self.seconds / crate::RUN_SECONDS as f64
    }
}

/// One workload's folded result.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub sim_fingerprint: u64,
    /// The end-to-end metrics, workload-scoped ones included.
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub notes: Vec<(String, String)>,
    pub violations: Vec<String>,
}

/// Spawns one child and parses the report on its last output line.
fn spawn(workload: &str, opts: &RunOpts, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--scale", &opts.scale().to_string()])
        .args(["--spawned-at-ns", &spawned_at.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    // `output` waits for the child: none outlives this call.
    let output = cmd
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} child ended with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("the {workload} child printed nothing"))?;
    JsonValue::parse(line)
        .ok()
        .and_then(|v| ChildReport::from_json(&v))
        .ok_or_else(|| format!("the {workload} child's report does not parse: {line}"))
}

/// Names of `m` whose values are not bit-identical in `other`.
fn differing(m: &Metrics, other: &Metrics, only_virtual: bool) -> Vec<String> {
    m.iter()
        .filter(|(name, _)| {
            !only_virtual || schema::decl(name).is_some_and(|d| d.clock == Clock::Virtual)
        })
        .filter(|(name, v)| get(other, name).map(f64::to_bits) != Some(v.to_bits()))
        .map(|(name, _)| name.clone())
        .collect()
}

/// Every repeat must tell the same virtual story as the first.
fn check_repeats(name: &str, reports: &[ChildReport], violations: &mut Vec<String>) {
    let first = &reports[0].outcome;
    for (i, r) in reports.iter().enumerate().skip(1) {
        let o = &r.outcome;
        let mut diff = differing(&first.sim, &o.sim, false);
        diff.extend(differing(&first.layers, &o.layers, true));
        if first.sim_fingerprint != o.sim_fingerprint {
            diff.push("sim_fingerprint".to_string());
        }
        if (first.ops, first.attempted, first.failed) != (o.ops, o.attempted, o.failed) {
            diff.push("ops/attempted/failed".to_string());
        }
        if first.run.events != o.run.events {
            diff.push("events".to_string());
        }
        if !diff.is_empty() {
            violations.push(format!(
                "{name}: repeat {} disagrees with repeat 1 on {}",
                i + 1,
                diff.join(", ")
            ));
        }
    }
}

/// Runs one workload: `k` fresh untraced children, then — when `traced` —
/// one traced child. The probes are a child of their own; see
/// [`run_probes`].
pub fn run_workload(name: &str, opts: &RunOpts, traced: bool) -> WorkloadResult {
    let mut res = WorkloadResult {
        name: name.to_string(),
        ..WorkloadResult::default()
    };
    let mut reports = Vec::new();
    for _ in 0..opts.k {
        match spawn(name, opts, false) {
            Ok(r) => reports.push(r),
            Err(e) => res.violations.push(e),
        }
    }
    if reports.is_empty() {
        return res;
    }
    check_repeats(name, &reports, &mut res.violations);
    for r in &reports {
        absorb_violations(&mut res.violations, &r.outcome.violations);
    }

    // Host time: noise on a shared machine is one-sided, so the best of k
    // is the estimate; median and spread are reported beside it.
    let walls: Vec<f64> = reports.iter().map(|r| r.outcome.run.wall_s).collect();
    let best = reports
        .iter()
        .min_by(|a, b| a.outcome.run.wall_s.total_cmp(&b.outcome.run.wall_s))
        .expect("at least one report");
    let first = &reports[0].outcome;
    let o = &best.outcome;
    let ops = o.ops as f64;
    res.attempted = first.attempted;
    res.failed = first.failed;
    res.sim_fingerprint = first.sim_fingerprint;
    res.notes = first.notes.clone();

    let e = &mut res.end_to_end;
    put(
        e,
        "setup_s",
        best_low(
            &reports
                .iter()
                .map(|r| r.outcome.setup_s)
                .collect::<Vec<_>>(),
        ),
    );
    put(e, "host_ops_per_s", ratio(ops, o.run.wall_s));
    put(
        e,
        "peak_rss_mb",
        best_low(
            &reports
                .iter()
                .map(|r| r.outcome.run.vm_hwm_kb as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
    );
    e.extend(first.sim.iter().cloned());
    put(
        e,
        "fail_share",
        ratio(first.failed as f64, first.attempted as f64),
    );

    let (q1, median, q3) = quartiles(&walls);
    let l = &mut res.per_layer;
    put(l, "process.wall_s_median", median);
    put(l, "process.wall_s_iqr", q3 - q1);
    put(l, "process.user_s", o.run.user_s);
    put(l, "process.sys_s", o.run.sys_s);
    put(
        l,
        "process.minor_faults_per_op",
        ratio(o.run.minor_faults as f64, ops),
    );
    put(l, "process.allocs_per_op", ratio(o.run.allocs as f64, ops));
    put(
        l,
        "process.alloc_bytes_per_op",
        ratio(o.run.alloc_bytes as f64, ops),
    );
    put(l, "sim.events_per_op", ratio(o.run.events as f64, ops));
    put(
        l,
        "sim.host_ns_per_event",
        ratio(o.run.wall_s * 1e9, o.run.events as f64),
    );
    l.extend(first.layers.iter().cloned());

    if traced {
        match spawn(name, opts, true) {
            Ok(t) => fold_traced(&mut res, &t, o.run.wall_s),
            Err(e) => res.violations.push(e),
        }
    }
    res
}

/// Folds the traced child in: the metrics only the event stream gives, the
/// recorder's overhead, and the proof that recording moved no virtual time.
fn fold_traced(res: &mut WorkloadResult, traced: &ChildReport, best_wall_s: f64) {
    let t = &traced.outcome;
    absorb_violations(&mut res.violations, &t.violations);
    // Replay children trace the head of the trace only and hold their own
    // bare run against the traced one; everyone else reran the same input.
    let replay = res.name.starts_with("replay");
    if !replay {
        let mut diff = differing(&t.sim, &res.end_to_end, false);
        if t.sim_fingerprint != res.sim_fingerprint {
            diff.push("sim_fingerprint".to_string());
        }
        if !diff.is_empty() {
            res.violations.push(format!(
                "{}: the recorder moved virtual time: {}",
                res.name,
                diff.join(", ")
            ));
        }
        put(
            &mut res.per_layer,
            "telemetry.recorder_overhead_share",
            (t.run.wall_s - best_wall_s) / best_wall_s,
        );
    }
    for (name, value) in &t.layers {
        if get(&res.per_layer, name).is_none() {
            put(&mut res.per_layer, name, *value);
        }
    }
}

/// Runs the probes child and returns its metrics.
pub fn run_probes(opts: &RunOpts) -> Result<Metrics, String> {
    spawn(PROBES, opts, true).map(|r| r.outcome.layers)
}

fn unit_of(name: &str) -> &'static str {
    schema::decl(name).map_or("", |d| d.unit)
}

fn metrics_json(m: &Metrics) -> JsonValue {
    JsonValue::Obj(
        m.iter()
            .map(|(name, value)| {
                (
                    name.clone(),
                    JsonValue::obj(vec![
                        ("value", JsonValue::Num(*value)),
                        ("unit", JsonValue::str(unit_of(name))),
                    ]),
                )
            })
            .collect(),
    )
}

impl WorkloadResult {
    /// Prints `workload metric value unit`, one metric a line.
    pub fn print(&self) {
        for (name, value) in self.end_to_end.iter().chain(&self.per_layer) {
            let note = self
                .notes
                .iter()
                .find(|(k, _)| k == name)
                .map_or(String::new(), |(_, v)| format!("  ({v})"));
            println!("{} {name} {value} {}{note}", self.name, unit_of(name));
        }
        println!(
            "{} sim_fingerprint {:016x}",
            self.name, self.sim_fingerprint
        );
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("attempted", JsonValue::Num(self.attempted as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            (
                "sim_fingerprint",
                JsonValue::str(format!("{:016x}", self.sim_fingerprint)),
            ),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
            ("notes", notes_json(&self.notes)),
        ])
    }

    /// The line the driver reads: every declared end-to-end metric
    /// (`traced == false`) or every declared per-layer metric (`true`). A
    /// per-layer metric that does not exist on this workload reads 0 here;
    /// `results.json` omits it instead.
    pub fn driver_line(&self, traced: bool) -> String {
        let metrics: Vec<(String, JsonValue)> = if traced {
            let all: Metrics = self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .cloned()
                .collect();
            schema::per_layer()
                .map(|d| (d.name, get(&all, d.name).unwrap_or(0.0), d.unit))
                .map(entry)
                .collect()
        } else {
            schema::END_TO_END
                .iter()
                .map(|d| {
                    (
                        d.name,
                        get(&self.end_to_end, d.name).unwrap_or(f64::NAN),
                        d.unit,
                    )
                })
                .map(entry)
                .collect()
        };
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(self.violations.is_empty())),
            ("attempted", JsonValue::Num(self.attempted.max(1) as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
        .to_json()
    }
}

fn entry((name, value, unit): (&str, f64, &str)) -> (String, JsonValue) {
    (
        name.to_string(),
        JsonValue::obj(vec![
            ("value", JsonValue::Num(value)),
            ("unit", JsonValue::str(unit)),
        ]),
    )
}

/// Writes `results.json`: what `compare` reads.
pub fn write_results(
    path: &Path,
    opts: &RunOpts,
    results: &[WorkloadResult],
    probes: &Metrics,
    violations: &[String],
) -> std::io::Result<()> {
    let doc = JsonValue::obj(vec![
        ("benchmark", JsonValue::str("trail")),
        ("seed", JsonValue::Num(opts.seed as f64)),
        ("seconds", JsonValue::Num(opts.seconds)),
        (
            "host_threads",
            JsonValue::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "workloads",
            JsonValue::Obj(
                results
                    .iter()
                    .map(|r| (r.name.clone(), r.to_json()))
                    .collect(),
            ),
        ),
        ("probes", metrics_json(probes)),
        (
            "violations",
            JsonValue::Arr(violations.iter().cloned().map(JsonValue::Str).collect()),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_json() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Outcome, Phase};

    fn report(wall_s: f64, mean: f64, fingerprint: u64) -> ChildReport {
        ChildReport {
            workload: "sync_write".to_string(),
            traced: false,
            outcome: Outcome {
                ops: 100,
                attempted: 100,
                run: Phase {
                    wall_s,
                    events: 700,
                    ..Phase::default()
                },
                sim_fingerprint: fingerprint,
                sim: vec![("sim_lat_mean_us".to_string(), mean)],
                layers: vec![
                    ("core.stalls".to_string(), 0.0),
                    ("stack.build_host_ms".to_string(), wall_s),
                ],
                ..Outcome::default()
            },
        }
    }

    #[test]
    fn repeats_must_agree_on_virtual_values_only() {
        let mut v = Vec::new();
        // Host metrics (wall, stack.build_host_ms) may differ freely.
        check_repeats(
            "w",
            &[
                report(1.0, 5.0, 9),
                report(2.0, 5.0, 9),
                report(3.0, 5.0, 9),
            ],
            &mut v,
        );
        assert!(v.is_empty(), "{v:?}");
        // One ulp on a virtual metric is a failure, and so is the digest.
        check_repeats(
            "w",
            &[report(1.0, 5.0, 9), report(1.0, 5.000_000_000_000_001, 9)],
            &mut v,
        );
        check_repeats("w", &[report(1.0, 5.0, 9), report(1.0, 5.0, 8)], &mut v);
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("sim_lat_mean_us") && v[1].contains("sim_fingerprint"));
    }

    #[test]
    fn driver_line_carries_exactly_the_declared_metrics() {
        let mut r = WorkloadResult {
            name: "tpcc".to_string(),
            attempted: 10,
            failed: 0,
            ..WorkloadResult::default()
        };
        for d in &schema::END_TO_END {
            put(&mut r.end_to_end, d.name, 1.5);
        }
        put(&mut r.end_to_end, "sim_lat_p50_us", 7.0);
        put(&mut r.per_layer, "db.cache_hit_share", 0.5);
        for traced in [false, true] {
            let doc = JsonValue::parse(&r.driver_line(traced)).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
            let want: Vec<&str> = if traced {
                schema::per_layer().map(|d| d.name).collect()
            } else {
                schema::END_TO_END.iter().map(|d| d.name).collect()
            };
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want);
            for (name, m) in metrics {
                assert!(m.get("value").unwrap().as_f64().is_some(), "{name}");
                assert_eq!(m.get("unit").unwrap().as_str(), Some(unit_of(name)));
            }
        }
        let doc = JsonValue::parse(&r.driver_line(true)).unwrap();
        let m = doc.get("metrics").unwrap();
        let value = |n: &str| m.get(n).unwrap().get("value").unwrap().as_f64().unwrap();
        assert_eq!(value("sim_lat_p50_us"), 7.0);
        assert_eq!(value("db.cache_hit_share"), 0.5);
        assert_eq!(value("volume.rmw_share"), 0.0, "absent reads 0");
    }
}
