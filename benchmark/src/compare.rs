//! `benchmark compare A.json B.json`: holds result file B against baseline
//! A. Virtual metrics and fingerprints must be identical to the last
//! digit; bounded host metrics may worsen by their bound (`schema`'s, which
//! a unit test holds equal to `BENCHMARK.json`'s); everything else is
//! printed for the record.

use trail_telemetry::JsonValue;

use crate::schema::{self, Better, Clock, Decl, SETUP_QUANTUM_S};

/// How one metric fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Identical, or within its bound.
    Ok,
    /// Unbounded host metric: reported, never a breach.
    Info,
    /// A wall-clock metric that reads worse while the runs' own spread is
    /// wider than its bound: neither "unchanged" nor "regressed" can be
    /// told from this pair. Reported, not a breach.
    Unresolved,
    Breach,
}

/// Judges one metric. `wall_noise` is how far the workload's children
/// spread on the wall clock, as a share of their median (the larger of the
/// two files'); only the two wall-clock metrics are excused by it.
pub fn judge(d: &Decl, a: f64, b: f64, wall_noise: f64) -> Verdict {
    if d.clock == Clock::Virtual {
        // `fail_share` may only fall; every other virtual value is fixed
        // by the seed.
        let ok = if d.name == "fail_share" {
            b <= a
        } else {
            a.to_bits() == b.to_bits()
        };
        return if ok { Verdict::Ok } else { Verdict::Breach };
    }
    let Some(bound) = d.bound else {
        return Verdict::Info;
    };
    let worse_by = match d.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by <= 0.0 || (d.name == "setup_s" && worse_by < SETUP_QUANTUM_S) {
        Verdict::Ok
    } else if matches!(d.name, "setup_s" | "host_ops_per_s") && wall_noise > bound {
        Verdict::Unresolved
    } else if worse_by <= bound * a.abs() {
        Verdict::Ok
    } else {
        Verdict::Breach
    }
}

fn value_of(section: Option<&JsonValue>, name: &str) -> Option<f64> {
    section?.get(name)?.get("value")?.as_f64()
}

/// Compares two result documents, printing one row per metric per
/// workload; returns the number of breaches.
pub fn compare(a: &JsonValue, b: &JsonValue) -> usize {
    let breaches = std::cell::Cell::new(0usize);
    let row = |workload: &str, name: &str, a: Option<f64>, b: Option<f64>, verdict: Verdict| {
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
        let change = match (a, b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.2}%", (b - a) / a.abs() * 100.0),
            _ => String::new(),
        };
        let mark = match verdict {
            Verdict::Ok => "ok",
            Verdict::Info => "info",
            Verdict::Unresolved => "unresolved",
            Verdict::Breach => "BREACH",
        };
        println!("{workload} {name} {} {} {change} {mark}", show(a), show(b));
        if verdict == Verdict::Breach {
            breaches.set(breaches.get() + 1);
        }
    };
    for key in ["seed", "seconds"] {
        let (x, y) = (
            a.get(key).and_then(JsonValue::as_f64),
            b.get(key).and_then(JsonValue::as_f64),
        );
        let verdict = if x == y { Verdict::Ok } else { Verdict::Breach };
        row("run", key, x, y, verdict);
    }
    let empty: &[(String, JsonValue)] = &[];
    let workloads = a
        .get("workloads")
        .and_then(JsonValue::as_obj)
        .unwrap_or(empty);
    for (workload, wa) in workloads {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        let fingerprint = |w: Option<&JsonValue>| {
            w.and_then(|w| w.get("sim_fingerprint"))
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let (fa, fb) = (fingerprint(Some(wa)), fingerprint(wb));
        if fa != fb {
            println!("{workload} sim_fingerprint {fa:x?} {fb:x?} BREACH");
            breaches.set(breaches.get() + 1);
        }
        let spread = |w: Option<&JsonValue>| {
            let layers = w.and_then(|w| w.get("per_layer"));
            let iqr = value_of(layers, "process.wall_s_iqr")?;
            Some(iqr / value_of(layers, "process.wall_s_median")?)
        };
        let wall_noise = spread(Some(wa))
            .unwrap_or(0.0)
            .max(spread(wb).unwrap_or(0.0));
        for section in ["end_to_end", "per_layer"] {
            let names = wa.get(section).and_then(JsonValue::as_obj).unwrap_or(empty);
            for (name, _) in names {
                let va = value_of(wa.get(section), name);
                let vb = value_of(wb.and_then(|w| w.get(section)), name);
                let verdict = match (va, vb, schema::decl(name)) {
                    (Some(x), Some(y), Some(d)) => judge(d, x, y, wall_noise),
                    // A metric that vanished, or that nothing declares.
                    _ => Verdict::Breach,
                };
                row(workload, name, va, vb, verdict);
            }
        }
    }
    let probes = a.get("probes").and_then(JsonValue::as_obj).unwrap_or(empty);
    for (name, _) in probes {
        row(
            "probes",
            name,
            value_of(a.get("probes"), name),
            value_of(b.get("probes"), name),
            Verdict::Info,
        );
    }
    breaches.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(name: &str, a: f64, b: f64, wall_noise: f64) -> Verdict {
        judge(schema::decl(name).unwrap(), a, b, wall_noise)
    }

    #[test]
    fn virtual_metrics_must_match_to_the_last_bit() {
        let j = |a, b| j("sim_lat_mean_us", a, b, 0.9);
        assert_eq!(j(2013.25, 2013.25), Verdict::Ok);
        // Better or worse, within the cross-seed bound or not, on a noisy
        // host or a calm one: a virtual value that moved at all on one
        // seed is a breach.
        assert_eq!(
            j(2013.25, 2013.25 + 4.0 * f64::EPSILON * 1024.0),
            Verdict::Breach
        );
        assert_eq!(j(2013.25, 1000.0), Verdict::Breach);
    }

    #[test]
    fn fail_share_may_only_fall() {
        let j = |a, b| j("fail_share", a, b, 0.0);
        assert_eq!(j(0.0, 0.0), Verdict::Ok);
        assert_eq!(j(0.01, 0.0), Verdict::Ok);
        assert_eq!(j(0.0, 0.000_001), Verdict::Breach);
    }

    #[test]
    fn host_metrics_worsen_within_their_bound_in_their_direction() {
        let rate = |a, b| j("host_ops_per_s", a, b, 0.0);
        assert_eq!(rate(1000.0, 750.0), Verdict::Ok);
        assert_eq!(rate(1000.0, 749.0), Verdict::Breach);
        assert_eq!(
            rate(1000.0, 5000.0),
            Verdict::Ok,
            "better is never a breach"
        );
        let rss = |a, b| j("peak_rss_mb", a, b, 0.0);
        assert_eq!(rss(1000.0, 1250.0), Verdict::Ok);
        assert_eq!(rss(1000.0, 1251.0), Verdict::Breach);
        assert_eq!(j("process.user_s", 1.0, 9.0, 0.0), Verdict::Info);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_wall_clock_metrics_unresolved() {
        // The children's own walls spread by 40 %: a rate that reads
        // worse, by little or by much, shows nothing either way.
        assert_eq!(j("host_ops_per_s", 1000.0, 990.0, 0.4), Verdict::Unresolved);
        assert_eq!(j("host_ops_per_s", 1000.0, 500.0, 0.4), Verdict::Unresolved);
        assert_eq!(j("setup_s", 0.2, 0.3, 0.4), Verdict::Unresolved);
        assert_eq!(j("host_ops_per_s", 1000.0, 1200.0, 0.4), Verdict::Ok);
        // A spread inside the bound excuses nothing, and memory is not
        // measured on the wall clock.
        assert_eq!(j("host_ops_per_s", 1000.0, 500.0, 0.2), Verdict::Breach);
        assert_eq!(j("peak_rss_mb", 1000.0, 1300.0, 0.4), Verdict::Breach);
    }

    #[test]
    fn setup_quantum_forgives_start_up_jitter_only() {
        let setup = |a, b| j("setup_s", a, b, 0.0);
        // 2 ms → 9 ms is +350 %, but under the 10 ms quantum.
        assert_eq!(setup(0.002, 0.009), Verdict::Ok);
        // Past the quantum the bound decides.
        assert_eq!(setup(0.002, 0.013), Verdict::Breach);
        assert_eq!(setup(0.200, 0.249), Verdict::Ok);
        assert_eq!(setup(0.200, 0.251), Verdict::Breach);
        // The quantum is set-up's alone.
        assert_eq!(j("peak_rss_mb", 0.002, 0.009, 0.0), Verdict::Breach);
    }

    fn doc(mean: f64, rate: f64, wall_iqr: f64, fingerprint: &str) -> JsonValue {
        let text = format!(
            r#"{{"seed":1,"seconds":10,"workloads":{{"tpcc":{{"sim_fingerprint":"{fingerprint}",
            "end_to_end":{{"sim_lat_mean_us":{{"value":{mean},"unit":"us"}},
                           "host_ops_per_s":{{"value":{rate},"unit":"1/s"}}}},
            "per_layer":{{"process.wall_s_median":{{"value":2.0,"unit":"s"}},
                          "process.wall_s_iqr":{{"value":{wall_iqr},"unit":"s"}}}}}}}},"probes":{{}}}}"#
        );
        JsonValue::parse(&text).unwrap()
    }

    #[test]
    fn documents_compare_metric_by_metric() {
        let base = doc(28.5, 1000.0, 0.1, "00ff");
        assert_eq!(compare(&base, &doc(28.5, 800.0, 0.1, "00ff")), 0);
        assert_eq!(compare(&base, &doc(28.5, 700.0, 0.1, "00ff")), 1);
        assert_eq!(compare(&base, &doc(28.6, 1000.0, 0.1, "00ff")), 1);
        assert_eq!(compare(&base, &doc(28.5, 1000.0, 0.1, "00fe")), 1);
        // Either file's spread (here B's, 0.6 s on a 2 s median) unsettles
        // the wall-clock metrics, and nothing else.
        assert_eq!(compare(&base, &doc(28.5, 700.0, 0.6, "00ff")), 0);
        assert_eq!(compare(&base, &doc(28.6, 700.0, 0.6, "00ff")), 1);
        // A workload missing from B breaches on every metric.
        let empty = JsonValue::parse(r#"{"seed":1,"seconds":10,"workloads":{}}"#).unwrap();
        assert!(compare(&base, &empty) >= 3);
    }
}
