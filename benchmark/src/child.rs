//! One child process: one workload (or the probes), one report line.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use trail_telemetry::{chrome_trace, Event, JsonValue, MemoryRecorder};

use crate::report::{get, ChildReport, Ctx, Outcome};
use crate::spans::Spans;
use crate::{layers, probes, workloads};

/// The name the probes run under, beside the six workloads.
pub const PROBES: &str = "probes";

/// Virtual-time events written to a trace file at most; the metrics are
/// computed over all of them.
const MAX_TRACE_EVENTS: usize = 50_000;

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub traced: bool,
    pub born: SystemTime,
    pub out_dir: PathBuf,
}

/// Where the benchmark writes: `benchmark/out/`.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the child and returns its report, or `None` for an unknown name.
pub fn run(args: &ChildArgs) -> Option<ChildReport> {
    let recorder = args.traced.then(MemoryRecorder::shared);
    let mut ctx = Ctx {
        born: args.born,
        seed: args.seed,
        scale: args.scale,
        recorder: recorder.clone(),
        spans: Spans::new(format!("{}-seed{}", args.workload, args.seed)),
    };
    let mut outcome = if args.workload == PROBES {
        Outcome {
            layers: probes::run(&mut ctx),
            ..Outcome::default()
        }
    } else {
        workloads::run(&args.workload, &mut ctx)?
    };
    let events = recorder.map(|r| r.take()).unwrap_or_default();
    if args.traced && args.workload != PROBES {
        let seen = if outcome.traced_ops > 0 {
            outcome.traced_ops
        } else {
            outcome.ops
        };
        layers::events(&mut outcome.layers, &events, seen);
        if args.workload.starts_with("replay") {
            layers::replay(&mut outcome.layers, &events);
        }
        let inexact = get(&outcome.layers, "blockio.breakdown_inexact").unwrap_or(0.0);
        if inexact != 0.0 {
            outcome.violations.push(format!(
                "{}: {inexact} Complete events whose breakdown does not sum to their total",
                args.workload
            ));
        }
    }
    if args.traced {
        let path = args.out_dir.join(format!("trace_{}.json", args.workload));
        if let Err(e) = write_trace(&path, &events, &ctx.spans) {
            outcome.violations.push(format!(
                "{}: writing {}: {e}",
                args.workload,
                path.display()
            ));
        }
    }
    Some(ChildReport {
        workload: args.workload.clone(),
        traced: args.traced,
        outcome,
    })
}

/// One Chrome trace: the recorder's virtual-time events as process 1, the
/// benchmark's host spans as process 2.
fn write_trace(path: &Path, events: &[Event], spans: &Spans) -> std::io::Result<()> {
    let written = events.len().min(MAX_TRACE_EVENTS);
    let JsonValue::Obj(mut doc) = chrome_trace(&events[..written]) else {
        unreachable!("chrome_trace returns an object");
    };
    for (key, value) in &mut doc {
        if let ("traceEvents", JsonValue::Arr(list)) = (key.as_str(), value) {
            list.push(JsonValue::obj(vec![
                ("name", JsonValue::str("process_name")),
                ("ph", JsonValue::str("M")),
                ("pid", JsonValue::Num(1.0)),
                (
                    "args",
                    JsonValue::obj(vec![
                        ("name", JsonValue::str("recorder (virtual time)")),
                        ("events_recorded", JsonValue::Num(events.len() as f64)),
                        ("events_written", JsonValue::Num(written as f64)),
                    ]),
                ),
            ]));
            list.extend(spans.chrome_events(2));
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, JsonValue::Obj(doc).to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_holds_both_processes_and_loads() {
        let dir = default_out_dir().join(format!("unit-test-{}", std::process::id()));
        let path = dir.join("trace_unit.json");
        let mut spans = Spans::new("unit");
        spans.scope("stack.build", |s| s.scope("inner", |_| ()));
        let events = vec![Event {
            at: trail_sim::SimTime::from_nanos(5),
            dur: trail_sim::SimDuration::from_nanos(7),
            layer: trail_telemetry::Layer::Disk,
            source: "d0".to_string(),
            req: None,
            kind: trail_telemetry::EventKind::RotWait,
        }];
        write_trace(&path, &events, &spans).unwrap();
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let list = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let pids: std::collections::BTreeSet<u64> = list
            .iter()
            .map(|e| e.get("pid").unwrap().as_f64().unwrap() as u64)
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), [1, 2]);
        assert!(list
            .iter()
            .any(|e| e.get("name").unwrap().as_str() == Some("stack.build")));
        assert!(list
            .iter()
            .any(|e| e.get("name").unwrap().as_str() == Some("RotWait")));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
