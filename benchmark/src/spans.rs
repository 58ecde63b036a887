//! Host-time spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from the benchmark's side of the public API (spans
//! inside the library crates are a later change), kept in memory, and
//! written once at exit as one Chrome-trace process beside the recorder's
//! virtual-time events in another.

use std::time::Instant;

use trail_telemetry::JsonValue;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one child run.
pub struct Spans {
    run_id: String,
    epoch: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(run_id: impl Into<String>) -> Spans {
        Spans {
            run_id: run_id.into(),
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span called `name`, a child of whichever span
    /// is open, and returns its result with the span's seconds.
    pub fn timed<T>(&mut self, name: &str, body: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = body(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        (out, (end - self.spans[idx].start_ns) as f64 / 1e9)
    }

    /// [`timed`](Spans::timed) for callers that only want the result.
    pub fn scope<T>(&mut self, name: &str, body: impl FnOnce(&mut Spans) -> T) -> T {
        self.timed(name, body).0
    }

    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as Chrome-trace events under process `pid`.
    pub fn chrome_events(&self, pid: u32) -> Vec<JsonValue> {
        let mut out = vec![JsonValue::obj(vec![
            ("name", JsonValue::str("process_name")),
            ("ph", JsonValue::str("M")),
            ("pid", JsonValue::Num(f64::from(pid))),
            (
                "args",
                JsonValue::obj(vec![("name", JsonValue::str("host spans (wall clock)"))]),
            ),
        ])];
        let self_ns = self.self_ns();
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => JsonValue::str(self.spans[p].name.clone()),
                None => JsonValue::Null,
            };
            out.push(JsonValue::obj(vec![
                ("name", JsonValue::str(s.name.clone())),
                ("cat", JsonValue::str("host")),
                ("ph", JsonValue::str("X")),
                ("ts", JsonValue::Num(s.start_ns as f64 / 1e3)),
                ("dur", JsonValue::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", JsonValue::Num(f64::from(pid))),
                ("tid", JsonValue::Num(1.0)),
                (
                    "args",
                    JsonValue::obj(vec![
                        ("run", JsonValue::str(self.run_id.clone())),
                        ("span", JsonValue::Num(idx as f64)),
                        ("parent", parent),
                        ("self_us", JsonValue::Num(self_ns[idx] as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut spans = Spans::new("t");
        spans.scope("outer", |s| {
            s.scope("inner.a", |_| std::hint::black_box(1 + 1));
            s.scope("inner.b", |_| ());
        });
        let all = spans.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        let kids = (all[1].end_ns - all[1].start_ns) + (all[2].end_ns - all[2].start_ns);
        assert_eq!(
            spans.self_ns()[0],
            (all[0].end_ns - all[0].start_ns) - kids,
            "self time is the span minus its children"
        );
        // One metadata event plus one per span, each naming its run.
        let ev = spans.chrome_events(2);
        assert_eq!(ev.len(), 4);
        assert_eq!(
            ev[2].get("args").unwrap().get("parent").unwrap().as_str(),
            Some("outer")
        );
    }
}
