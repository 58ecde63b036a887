//! Every metric the benchmark reports, declared once: name, unit,
//! direction, clock and — for end-to-end metrics — the worsening tolerated
//! before a change counts as a regression. `BENCHMARK.json` repeats the
//! names, units, directions and bounds; a unit test holds the two together.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time, or a count the deterministic simulation fixes:
    /// repeats of one seed must agree to the last digit.
    Virtual,
    /// Host wall time, CPU time or memory: noisy, compared within a bound.
    Host,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// End-to-end metrics only: the share of the baseline by which the
    /// metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> Decl {
    Decl {
        name,
        unit,
        better,
        clock,
        bound: Some(bound),
    }
}

const fn v(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        clock: Clock::Virtual,
        bound: None,
    }
}

const fn h(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// `setup_s` differences below this are not a regression: process start-up
/// jitter, not work moved into set-up.
pub const SETUP_QUANTUM_S: f64 = 0.01;

/// The end-to-end metrics every workload reports (`BENCHMARK.json`'s
/// `end_to_end`). The bounds must hold between runs on *different* seeds
/// at different times on a shared host, so they are sized from measured
/// spreads (README, "Noise"); on one seed the virtual metrics must not
/// differ at all, whatever their bound.
pub const END_TO_END: [Decl; 5] = [
    e2e("setup_s", "s", Lower, Clock::Host, 0.25),
    e2e("host_ops_per_s", "1/s", Higher, Clock::Host, 0.25),
    e2e("peak_rss_mb", "MB", Lower, Clock::Host, 0.25),
    e2e("sim_lat_mean_us", "us", Lower, Clock::Virtual, 0.08),
    e2e("sim_ops_per_s", "1/s", Higher, Clock::Virtual, 0.05),
];

/// End-to-end metrics that exist on some workloads only. `BENCHMARK.json`
/// has no place for a metric that not every workload reports (and none
/// for one that reads 0), so it lists these first among `per_layer`;
/// `compare` holds them to exact equality like every virtual metric.
pub const SCOPED: [Decl; 6] = [
    v("sim_lat_p50_us", "us", Lower),
    v("sim_lat_tail_us", "us", Lower),
    v("sim_speedup_vs_standard", "ratio", Higher),
    v("sim_max_rate_ok", "1/s", Higher),
    v("sim_recovery_ms", "ms", Lower),
    v("fail_share", "ratio", Lower),
];

/// The per-layer metrics, named `<layer>.<metric>`.
pub const LAYERS: [Decl; 86] = [
    // process: the child process as a whole.
    h("process.wall_s_median", "s", Lower),
    h("process.wall_s_iqr", "s", Lower),
    h("process.user_s", "s", Lower),
    h("process.sys_s", "s", Lower),
    h("process.minor_faults_per_op", "count", Lower),
    h("process.allocs_per_op", "count", Lower),
    h("process.alloc_bytes_per_op", "B", Lower),
    // sim
    v("sim.events_per_op", "count", Lower),
    h("sim.host_ns_per_event", "ns", Lower),
    h("sim.probe.sched_pop_ns", "ns", Lower),
    h("sim.probe.cancel_ns", "ns", Lower),
    v("sim.completions_cancelled", "count", Lower),
    // disk
    v("disk.log.busy_share", "ratio", Lower),
    v("disk.log.rot_wait_mean_us", "us", Lower),
    v("disk.data.busy_share", "ratio", Lower),
    v("disk.data.seek_mean_us", "us", Lower),
    v("disk.data.rot_wait_mean_us", "us", Lower),
    v("disk.transfer_share", "ratio", Higher),
    v("disk.injected_errors", "count", Lower),
    h("disk.store.probe.write_ns_per_sector", "ns", Lower),
    h("disk.store.probe.read_ns_per_sector", "ns", Lower),
    h("disk.store.probe.rss_bytes_per_sector", "B", Lower),
    // blockio
    v("blockio.queue_wait_mean_us", "us", Lower),
    v("blockio.service_mean_us", "us", Lower),
    v("blockio.max_queue_depth", "count", Lower),
    v("blockio.incomplete", "count", Lower),
    v("blockio.breakdown_inexact", "count", Lower),
    // core
    v("core.ack_mean_us", "us", Lower),
    v("core.batch_mean_sectors", "count", Higher),
    v("core.repositions_per_kop", "count", Lower),
    v("core.track_util_mean", "ratio", Higher),
    v("core.predict_miss_share", "ratio", Lower),
    v("core.stalls", "count", Lower),
    v("core.read_hit_share", "ratio", Higher),
    v("core.superseded_writeback_share", "ratio", Higher),
    v("core.recover.locate_ms", "ms", Lower),
    v("core.recover.rebuild_ms", "ms", Lower),
    v("core.recover.writeback_ms", "ms", Lower),
    v("core.recover.tracks_scanned", "count", Lower),
    v("core.recover.torn_dropped", "count", Lower),
    v("core.recover.active_log_sectors", "count", Lower),
    h("core.recover.host_us_per_point", "us", Lower),
    // volume
    v("volume.member_ios_per_logical_write", "count", Lower),
    v("volume.rmw_share", "ratio", Lower),
    v("volume.full_stripe_share", "ratio", Higher),
    v("volume.write_mean_ms", "ms", Lower),
    v("volume.read_mean_ms", "ms", Lower),
    v("volume.retried_ops", "count", Lower),
    // db
    v("db.cache_hit_share", "ratio", Higher),
    v("db.cache_evictions", "count", Lower),
    v("db.page_reads_per_txn", "count", Lower),
    v("db.wal_forces_per_txn", "count", Lower),
    v("db.wal_bytes_per_txn", "B", Lower),
    v("db.group_commit_mean", "count", Higher),
    v("db.logging_io_share", "ratio", Lower),
    v("db.force_mean_us", "us", Lower),
    // tpcc
    h("tpcc.probe.gen_ns_per_txn", "ns", Lower),
    v("tpcc.new_order_share", "ratio", Higher),
    // trace
    v("trace.file_bytes_per_record", "B", Lower),
    h("trace.probe.decode_ns_per_record", "ns", Lower),
    h("trace.probe.encode_ns_per_record", "ns", Lower),
    v("trace.peak_resident_records", "count", Lower),
    v("trace.shard.read_amplification", "ratio", Lower),
    h("trace.shard.boot_ms", "ms", Lower),
    h("trace.shard.speedup", "ratio", Higher),
    v("trace.replay.p50_us", "us", Lower),
    v("trace.replay.p99_us", "us", Lower),
    // serve
    v("serve.tail_us.r1", "us", Lower),
    v("serve.tail_us.r2", "us", Lower),
    v("serve.tail_us.r3", "us", Lower),
    v("serve.tail_us.r4", "us", Lower),
    v("serve.goodput.r1", "1/s", Higher),
    v("serve.goodput.r2", "1/s", Higher),
    v("serve.goodput.r3", "1/s", Higher),
    v("serve.goodput.r4", "1/s", Higher),
    v("serve.rejected_share.r3", "ratio", Lower),
    v("serve.rejected_share.r4", "ratio", Lower),
    v("serve.max_queue_depth", "count", Lower),
    v("serve.bad_frames", "count", Lower),
    v("serve.wire_bytes_per_req", "B", Lower),
    h("serve.probe.encode_ns_per_frame", "ns", Lower),
    h("serve.probe.decode_ns_per_frame", "ns", Lower),
    // telemetry
    v("telemetry.events_per_op", "count", Lower),
    h("telemetry.recorder_overhead_share", "ratio", Lower),
    // stack
    h("stack.build_host_ms", "ms", Lower),
    v("stack.boot_virtual_ms", "ms", Lower),
];

/// `BENCHMARK.json`'s `per_layer`, in order.
pub fn per_layer() -> impl Iterator<Item = &'static Decl> {
    SCOPED.iter().chain(LAYERS.iter())
}

/// Looks a metric up by name in any of the three lists.
pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_telemetry::JsonValue;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The result schema: `BENCHMARK.json` declares exactly what the code
    /// emits, within the limits its contract sets.
    #[test]
    fn benchmark_json_matches_the_code() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                let why = field(w, "why").as_str().unwrap();
                assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
                assert_eq!(w.as_obj().unwrap().len(), 2);
                field(w, "name").as_str().unwrap()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);

        let declared = field(&doc, "end_to_end").as_arr().unwrap();
        assert_eq!(declared.len(), END_TO_END.len());
        for (j, d) in declared.iter().zip(&END_TO_END) {
            assert_eq!(j.as_obj().unwrap().len(), 4);
            assert_eq!(field(j, "name").as_str(), Some(d.name));
            assert_eq!(field(j, "unit").as_str(), Some(d.unit));
            assert_eq!(field(j, "better").as_str(), Some(d.better.as_str()));
            assert_eq!(field(j, "bound").as_f64(), d.bound, "{}", d.name);
            assert!(d.bound.unwrap() > 0.0 && d.bound.unwrap() <= 0.25);
        }
        // Set-up time carries the largest bound.
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));

        let layers = field(&doc, "per_layer").as_arr().unwrap();
        assert!(layers.len() <= 128);
        assert_eq!(layers.len(), per_layer().count());
        for (j, d) in layers.iter().zip(per_layer()) {
            assert_eq!(j.as_obj().unwrap().len(), 3);
            assert_eq!(field(j, "name").as_str(), Some(d.name));
            assert_eq!(field(j, "unit").as_str(), Some(d.unit));
            assert_eq!(field(j, "better").as_str(), Some(d.better.as_str()));
        }

        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(per_layer()) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{}", d.unit);
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
        }
        for w in workloads {
            assert!(name_ok(w) && seen.insert(w), "{w}");
        }

        let seconds = field(&doc, "run_seconds").as_f64().unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert_eq!(seconds, crate::RUN_SECONDS as f64);
        let paths = field(&doc, "paths").as_arr().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        let command = field(&doc, "command").as_arr().unwrap();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|c| c
            .as_str()
            .is_some_and(|s| s.len() <= 200 && !s.starts_with('/'))));
    }

    #[test]
    fn lookup_finds_every_list() {
        assert_eq!(decl("setup_s").unwrap().clock, Clock::Host);
        assert_eq!(decl("fail_share").unwrap().clock, Clock::Virtual);
        assert_eq!(decl("core.stalls").unwrap().unit, "count");
        assert!(decl("no.such.metric").is_none());
    }
}
