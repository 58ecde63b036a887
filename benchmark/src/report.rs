//! What one child process measured, and how it travels to the parent (one
//! JSON line on the child's standard output).

use std::rc::Rc;
use std::time::{Instant, SystemTime};

use trail_telemetry::{JsonValue, MemoryRecorder, RecorderHandle};

use crate::spans::Spans;
use crate::stats::Samples;
use crate::{alloc, procfs};

/// Named values, in insertion order.
pub type Metrics = Vec<(String, f64)>;

pub fn put(m: &mut Metrics, name: &str, value: f64) {
    m.push((name.to_string(), value));
}

pub fn get(m: &Metrics, name: &str) -> Option<f64> {
    m.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host cost of one measured region of a child.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Simulator events executed on this thread inside the region.
    pub events: u64,
    /// `VmHWM` when the region ended (peak so far, set-up included).
    pub vm_hwm_kb: u64,
}

/// Runs `body` as the span `name` and accounts what it cost the host.
pub fn measure<T>(spans: &mut Spans, name: &str, body: impl FnOnce(&mut Spans) -> T) -> (T, Phase) {
    let before = procfs::read_self();
    let (a0, b0) = alloc::snapshot();
    let e0 = trail_sim::thread_events_executed();
    let t0 = Instant::now();
    let out = spans.scope(name, body);
    let wall_s = t0.elapsed().as_secs_f64();
    let events = trail_sim::thread_events_executed() - e0;
    let (a1, b1) = alloc::snapshot();
    let after = procfs::read_self();
    let phase = Phase {
        wall_s,
        user_s: after.user_s - before.user_s,
        sys_s: after.sys_s - before.sys_s,
        minor_faults: after.minor_faults - before.minor_faults,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        events,
        vm_hwm_kb: after.vm_hwm_kb,
    };
    (out, phase)
}

/// What a workload needs to know about the run it is part of.
pub struct Ctx {
    /// When the parent spawned this child (or when `main` began, for a
    /// child started by hand): set-up time counts from here, so process
    /// start-up is part of it.
    pub born: SystemTime,
    pub seed: u64,
    /// Size multiplier: 1.0 at the benchmark's own `run_seconds`.
    pub scale: f64,
    /// Set on the traced pass: install it through every public door.
    pub recorder: Option<Rc<MemoryRecorder>>,
    pub spans: Spans,
}

impl Ctx {
    pub fn recorder_handle(&self) -> Option<RecorderHandle> {
        self.recorder.clone().map(|r| r as RecorderHandle)
    }

    /// Seconds since this child was spawned. Workloads read it the moment
    /// their measured phase starts: everything before it is set-up.
    pub fn setup_s(&self) -> f64 {
        self.born.elapsed().map_or(0.0, |d| d.as_secs_f64())
    }

    /// `base` operations scaled to this run, never below `floor`.
    pub fn sized(&self, base: usize, floor: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(floor)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations the measured phase executed: the numerator of
    /// `host_ops_per_s`.
    pub ops: u64,
    /// Operations whose outcome counts towards `fail_share` (all of them,
    /// except on `serve_ladder`, where refusals above the knee are by
    /// design).
    pub attempted: u64,
    /// Operations the traced pass's main recorder saw, where that is not
    /// all of `ops` (0 = all): the denominator of `telemetry.events_per_op`.
    pub traced_ops: u64,
    /// Operations whose output was missing or wrong.
    pub failed: u64,
    pub setup_s: f64,
    pub run: Phase,
    /// Digest over every per-operation virtual latency.
    pub sim_fingerprint: u64,
    /// Virtual-time end-to-end metrics, exact.
    pub sim: Metrics,
    /// Per-layer metrics read from public stats structs.
    pub layers: Metrics,
    /// Free-text facts printed beside the metrics (tail percentile, …).
    pub notes: Vec<(String, String)>,
    /// Output checks that failed; any entry fails the whole command.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Puts the exact latency metrics of `samples` (`what` they are samples
    /// of), noting which tail percentile the set supports.
    pub fn put_latency(&mut self, samples: &Samples, what: &str) {
        let sorted = samples.sorted();
        let tail = sorted.tail();
        put(&mut self.sim, "sim_lat_mean_us", samples.mean_us());
        put(&mut self.sim, "sim_lat_p50_us", sorted.p50_us());
        put(&mut self.sim, "sim_lat_tail_us", tail.ns as f64 / 1e3);
        self.notes.push((
            "sim_lat_tail_us".to_string(),
            format!(
                "{} of {} {what}, {} beyond",
                tail.label(),
                samples.len(),
                tail.beyond
            ),
        ));
    }
}

/// Adds `more` violations to `into`, once each.
pub fn absorb_violations(into: &mut Vec<String>, more: &[String]) {
    for v in more {
        if !into.contains(v) {
            into.push(v.clone());
        }
    }
}

/// Free-text notes as a JSON object.
pub fn notes_json(notes: &[(String, String)]) -> JsonValue {
    JsonValue::Obj(
        notes
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::str(v.clone())))
            .collect(),
    )
}

/// The child's full report.
pub struct ChildReport {
    pub workload: String,
    pub traced: bool,
    pub outcome: Outcome,
}

fn metrics_json(m: &Metrics) -> JsonValue {
    JsonValue::Obj(
        m.iter()
            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
            .collect(),
    )
}

fn metrics_from(v: Option<&JsonValue>) -> Metrics {
    v.and_then(JsonValue::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

impl ChildReport {
    pub fn to_json(&self) -> JsonValue {
        let o = &self.outcome;
        let r = &o.run;
        JsonValue::obj(vec![
            ("workload", JsonValue::str(self.workload.clone())),
            ("traced", JsonValue::Bool(self.traced)),
            ("ops", JsonValue::Num(o.ops as f64)),
            ("attempted", JsonValue::Num(o.attempted as f64)),
            ("traced_ops", JsonValue::Num(o.traced_ops as f64)),
            ("failed", JsonValue::Num(o.failed as f64)),
            ("setup_s", JsonValue::Num(o.setup_s)),
            (
                "sim_fingerprint",
                JsonValue::str(format!("{:016x}", o.sim_fingerprint)),
            ),
            (
                "run",
                JsonValue::obj(vec![
                    ("wall_s", JsonValue::Num(r.wall_s)),
                    ("user_s", JsonValue::Num(r.user_s)),
                    ("sys_s", JsonValue::Num(r.sys_s)),
                    ("minor_faults", JsonValue::Num(r.minor_faults as f64)),
                    ("allocs", JsonValue::Num(r.allocs as f64)),
                    ("alloc_bytes", JsonValue::Num(r.alloc_bytes as f64)),
                    ("events", JsonValue::Num(r.events as f64)),
                    ("vm_hwm_kb", JsonValue::Num(r.vm_hwm_kb as f64)),
                ]),
            ),
            ("sim", metrics_json(&o.sim)),
            ("layers", metrics_json(&o.layers)),
            ("notes", notes_json(&o.notes)),
            (
                "violations",
                JsonValue::Arr(o.violations.iter().cloned().map(JsonValue::Str).collect()),
            ),
        ])
    }

    /// Parses a child's output line.
    pub fn from_json(v: &JsonValue) -> Option<ChildReport> {
        let num = |obj: &JsonValue, key: &str| obj.get(key).and_then(JsonValue::as_f64);
        let flag = |key: &str| matches!(v.get(key), Some(JsonValue::Bool(true)));
        let run = v.get("run")?;
        let fingerprint = u64::from_str_radix(v.get("sim_fingerprint")?.as_str()?, 16).ok()?;
        Some(ChildReport {
            workload: v.get("workload")?.as_str()?.to_string(),
            traced: flag("traced"),
            outcome: Outcome {
                ops: num(v, "ops")? as u64,
                attempted: num(v, "attempted")? as u64,
                traced_ops: num(v, "traced_ops")? as u64,
                failed: num(v, "failed")? as u64,
                setup_s: num(v, "setup_s")?,
                run: Phase {
                    wall_s: num(run, "wall_s")?,
                    user_s: num(run, "user_s")?,
                    sys_s: num(run, "sys_s")?,
                    minor_faults: num(run, "minor_faults")? as u64,
                    allocs: num(run, "allocs")? as u64,
                    alloc_bytes: num(run, "alloc_bytes")? as u64,
                    events: num(run, "events")? as u64,
                    vm_hwm_kb: num(run, "vm_hwm_kb")? as u64,
                },
                sim_fingerprint: fingerprint,
                sim: metrics_from(v.get("sim")),
                layers: metrics_from(v.get("layers")),
                notes: v
                    .get("notes")
                    .and_then(JsonValue::as_obj)
                    .map(|f| {
                        f.iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                            .collect()
                    })
                    .unwrap_or_default(),
                violations: v
                    .get("violations")
                    .and_then(JsonValue::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|s| s.as_str().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips_to_the_last_digit() {
        let report = ChildReport {
            workload: "sync_write".to_string(),
            traced: true,
            outcome: Outcome {
                ops: 120_000,
                attempted: 120_000,
                traced_ops: 0,
                failed: 0,
                setup_s: 0.123_456_789_012_345_67,
                run: Phase {
                    wall_s: 2.345_678_901_234_568,
                    events: 1_234_567,
                    vm_hwm_kb: 35_000,
                    ..Phase::default()
                },
                sim_fingerprint: 0xfeed_face_cafe_beef,
                sim: vec![("sim_lat_mean_us".to_string(), 2_013.337_512_5)],
                layers: vec![("core.stalls".to_string(), 0.0)],
                notes: vec![("tail".to_string(), "p99.99 of 120000".to_string())],
                violations: vec!["boom".to_string()],
            },
        };
        let text = report.to_json().to_json();
        let back = ChildReport::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_json(), text);
        assert_eq!(back.outcome.sim_fingerprint, 0xfeed_face_cafe_beef);
        assert_eq!(back.outcome.sim[0].1, 2_013.337_512_5);
        assert_eq!(back.outcome.setup_s, 0.123_456_789_012_345_67);
        assert!(back.traced);
    }
}
