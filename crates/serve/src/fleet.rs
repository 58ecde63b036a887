//! A simulated client fleet: thousands of sessions driving a [`Server`].
//!
//! The fleet reuses the synthetic workload generator from `trail-trace`
//! — every distinct stream in the generated trace becomes one session
//! (terminal-as-stream), and the per-stream arrival process becomes
//! either request arrival times (**open loop**: requests fire on
//! schedule whether or not earlier ones answered, so queues grow under
//! overload) or think times (**closed loop**: each client waits for its
//! answer, thinks, and only then issues the next request, so offered
//! load self-limits). An `overload` factor compresses both the same way
//! the replay engine's `speed` knob compresses arrivals: `2.0` offers
//! twice the load the arrival model drew.
//!
//! Everything crosses the wire codec: clients encode request frames,
//! byte-count them, and decode the response frames the server answers
//! with — `wire_tx`/`wire_rx` in the report are real protocol bytes.
//!
//! Per-client latency lands in a [`StreamMetrics`] lane per session
//! (p50/p95/p99/p99.9 via the shared histogram), measured from submit
//! to decoded response, **served requests only** — a rejected or shed
//! request answers fast precisely because it was refused, and folding
//! it into the latency distribution would flatter the overloaded
//! server. Refusals are counted instead, and cancellations (session
//! churn tearing down in-flight requests) are counted separately again.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use trail_disk::SECTOR_SIZE;
use trail_sim::{Delivered, DurationHistogram, SimDuration, SimTime, Simulator};
use trail_telemetry::{histogram_json, JsonValue, StreamId, StreamMetrics};
use trail_trace::{
    generate, scale_ns, ArrivalModel, SpatialModel, SyntheticSpec, TraceOp, TraceRecord,
};

use crate::server::{Server, ServerStats, SessionHandle};
use crate::wire::{Request, Response, Status};

/// How clients pace themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetMode {
    /// Requests fire at their generated arrival instants regardless of
    /// outstanding work — offered load is fixed, queues absorb overload.
    OpenLoop,
    /// Each client issues, waits for the answer, thinks for the
    /// generated inter-arrival gap, then issues again — offered load
    /// self-limits to the service rate.
    ClosedLoop,
}

impl FleetMode {
    /// Stable label for reports (`open` / `closed`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FleetMode::OpenLoop => "open",
            FleetMode::ClosedLoop => "closed",
        }
    }
}

/// Fleet shape and workload.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Workload seed (streams derive independent sub-seeds).
    pub seed: u64,
    /// Number of client sessions (= workload streams).
    pub sessions: u32,
    /// Total data requests across the fleet.
    pub requests: usize,
    /// Open or closed loop.
    pub mode: FleetMode,
    /// Load multiplier: arrival gaps (open loop) or think times (closed
    /// loop) are divided by this. Clamped to `0.05..=16.0`.
    pub overload: f64,
    /// Per-session mean inter-arrival time at `overload = 1.0`.
    pub mean_iat: SimDuration,
    /// Fraction of requests that are `Get`s.
    pub read_fraction: f64,
    /// Sectors per request (payload = this × 512 bytes for `Put`s).
    pub payload_sectors: u32,
    /// Issue a `Commit` after every N served `Put`s per session
    /// (`0` = never).
    pub commit_every: u32,
    /// Open loop only: halfway through its schedule each session drops
    /// its connection abruptly (cancelling in-flight requests through
    /// the completion cascade) and reopens under the same stream.
    pub churn: bool,
    /// Address locality of the workload.
    pub spatial: SpatialModel,
}

impl Default for FleetSpec {
    /// Eight open-loop sessions, 256 requests, nominal load, 30% reads,
    /// 1-KiB payloads, a commit every 16 puts, no churn, Zipf locality.
    fn default() -> Self {
        FleetSpec {
            seed: 1,
            sessions: 8,
            requests: 256,
            mode: FleetMode::OpenLoop,
            overload: 1.0,
            mean_iat: SimDuration::from_millis(20),
            read_fraction: 0.3,
            payload_sectors: 2,
            commit_every: 16,
            churn: false,
            spatial: SpatialModel::Zipf { skew: 2.0 },
        }
    }
}

/// What one fleet run measured.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Sessions that participated.
    pub sessions: u32,
    /// Data requests issued.
    pub issued: u64,
    /// Requests answered `Ok`.
    pub served: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests shed at dispatch.
    pub shed: u64,
    /// Requests whose reply was cancelled (session teardown).
    pub cancelled: u64,
    /// Commits answered `Ok`.
    pub commits_ok: u64,
    /// Open-loop churn reopens.
    pub reopened: u64,
    /// Fleet-wide latency over served requests, measured at the client:
    /// the client lanes summed.
    pub latency: DurationHistogram,
    /// Per-client lanes (one per session stream).
    pub clients: StreamMetrics,
    /// Server-side counters.
    pub server: ServerStats,
    /// Request-frame bytes clients encoded and sent.
    pub wire_tx: u64,
    /// Response-frame bytes clients received and decoded.
    pub wire_rx: u64,
    /// First arrival to last response.
    pub duration: SimDuration,
    /// Completion-sink cancellations attributable to this run (the
    /// cancel-cascade at work; see `CompletionSink::cancelled_count`).
    pub cancelled_completions: u64,
}

impl FleetReport {
    /// The report as JSON, with every client lane inlined.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        self.to_json_with_clients(usize::MAX)
    }

    /// The report as JSON, inlining at most `limit` client lanes (in
    /// stream order) next to a min/median/max summary of per-client p99
    /// over *all* lanes — full fidelity for spot-checking, bounded size
    /// for thousand-session fleets.
    #[must_use]
    pub fn to_json_with_clients(&self, limit: usize) -> JsonValue {
        let mut p99s: Vec<f64> = self
            .clients
            .iter()
            .filter(|(_, lane)| lane.latency.count() > 0)
            .map(|(_, lane)| lane.latency.percentile(99.0).as_millis_f64())
            .collect();
        p99s.sort_by(f64::total_cmp);
        let spread = if p99s.is_empty() {
            JsonValue::Null
        } else {
            JsonValue::obj(vec![
                ("min_ms", JsonValue::Num(p99s[0])),
                ("median_ms", JsonValue::Num(p99s[p99s.len() / 2])),
                ("max_ms", JsonValue::Num(p99s[p99s.len() - 1])),
            ])
        };
        let clients = JsonValue::Obj(
            self.clients
                .iter()
                .take(limit)
                .map(|(id, lane)| (id.to_string(), lane.to_json()))
                .collect(),
        );
        JsonValue::obj(vec![
            ("sessions", JsonValue::Num(f64::from(self.sessions))),
            ("issued", JsonValue::Num(self.issued as f64)),
            ("served", JsonValue::Num(self.served as f64)),
            ("rejected", JsonValue::Num(self.rejected as f64)),
            ("shed", JsonValue::Num(self.shed as f64)),
            ("cancelled", JsonValue::Num(self.cancelled as f64)),
            ("commits_ok", JsonValue::Num(self.commits_ok as f64)),
            ("reopened", JsonValue::Num(self.reopened as f64)),
            (
                "cancelled_completions",
                JsonValue::Num(self.cancelled_completions as f64),
            ),
            ("wire_tx_bytes", JsonValue::Num(self.wire_tx as f64)),
            ("wire_rx_bytes", JsonValue::Num(self.wire_rx as f64)),
            ("duration_ms", JsonValue::Num(self.duration.as_millis_f64())),
            ("latency", histogram_json(&self.latency)),
            ("client_p99_spread", spread),
            (
                "server",
                JsonValue::obj(vec![
                    ("opened", JsonValue::Num(self.server.opened as f64)),
                    ("closed", JsonValue::Num(self.server.closed as f64)),
                    ("admitted", JsonValue::Num(self.server.admitted as f64)),
                    ("completed", JsonValue::Num(self.server.completed as f64)),
                    ("rejected", JsonValue::Num(self.server.rejected as f64)),
                    ("shed", JsonValue::Num(self.server.shed as f64)),
                    ("cancelled", JsonValue::Num(self.server.cancelled as f64)),
                    ("commits", JsonValue::Num(self.server.commits as f64)),
                    ("bad_frames", JsonValue::Num(self.server.bad_frames as f64)),
                    (
                        "max_queue_depth",
                        JsonValue::Num(self.server.max_queue_depth as f64),
                    ),
                ]),
            ),
            ("clients", clients),
        ])
    }
}

/// Mutable run state shared by every client closure. A served request's
/// latency is recorded once, in its client's lane.
struct FleetState {
    clients: StreamMetrics,
    issued: u64,
    served: u64,
    rejected: u64,
    shed: u64,
    cancelled: u64,
    commits_ok: u64,
    reopened: u64,
    tx: u64,
    rx: u64,
    last_done: SimTime,
}

impl FleetState {
    fn new() -> Self {
        FleetState {
            clients: StreamMetrics::new(),
            issued: 0,
            served: 0,
            rejected: 0,
            shed: 0,
            cancelled: 0,
            commits_ok: 0,
            reopened: 0,
            tx: 0,
            rx: 0,
            last_done: SimTime::ZERO,
        }
    }

    /// Accounts one data-request outcome; returns `true` when it was
    /// served `Ok`.
    fn settle(
        &mut self,
        stream: StreamId,
        is_read: bool,
        issued_at: SimTime,
        now: SimTime,
        d: &Delivered<Vec<u8>>,
    ) -> bool {
        self.last_done = self.last_done.max(now);
        match d {
            Ok(bytes) => {
                self.rx += bytes.len() as u64;
                let status = Response::decode(bytes)
                    .map(|(resp, _)| resp.status())
                    .unwrap_or(Status::BadRequest);
                match status {
                    Status::Ok => {
                        self.clients
                            .on_complete(stream, is_read, Some(now - issued_at));
                        self.served += 1;
                        true
                    }
                    Status::Rejected => {
                        self.rejected += 1;
                        self.clients.on_complete(stream, is_read, None);
                        false
                    }
                    Status::Shed => {
                        self.shed += 1;
                        self.clients.on_complete(stream, is_read, None);
                        false
                    }
                    _ => {
                        self.clients.on_complete(stream, is_read, None);
                        false
                    }
                }
            }
            Err(_) => {
                self.cancelled += 1;
                self.clients.on_cancelled(stream);
                false
            }
        }
    }
}

/// The wire frame for one trace record, and whether it is a read.
fn frame_for(rec: &TraceRecord) -> (Vec<u8>, bool) {
    match rec.op {
        TraceOp::Read => (
            Request::Get {
                dev: rec.dev,
                lba: rec.lba,
                sectors: rec.sectors,
            }
            .encode(),
            true,
        ),
        TraceOp::Write => {
            let fill = (rec.stream.0 as u8) ^ (rec.lba as u8);
            (
                Request::Put {
                    dev: rec.dev,
                    lba: rec.lba,
                    data: vec![fill; rec.sectors as usize * SECTOR_SIZE],
                }
                .encode(),
                false,
            )
        }
    }
}

/// Per-session driver context shared by that session's closures.
struct ClientCtx {
    server: Server,
    handle: RefCell<Option<SessionHandle>>,
    state: Rc<RefCell<FleetState>>,
    /// Session stream (trace stream shifted by one so no session rides
    /// the untagged stream).
    stream: StreamId,
    served_puts: Cell<u64>,
    commit_every: u32,
}

impl ClientCtx {
    /// (Re)connects: opens a server session and accounts the handshake
    /// frames' bytes.
    fn open(&self) {
        let (handle, opened) = self.server.open(self.stream);
        let mut st = self.state.borrow_mut();
        st.tx += Request::Open {
            stream: self.stream.0,
        }
        .encode()
        .len() as u64;
        st.rx += opened.len() as u64;
        drop(st);
        *self.handle.borrow_mut() = Some(handle);
    }

    /// Counts a served put against the commit cadence; `true` when a
    /// `Commit` is due.
    fn commit_due(&self) -> bool {
        if self.commit_every == 0 {
            return false;
        }
        let n = self.served_puts.get() + 1;
        self.served_puts.set(n);
        n.is_multiple_of(u64::from(self.commit_every))
    }

    /// Sends a `Commit` frame with the given reply token.
    fn submit_commit(&self, sim: &mut Simulator, reply: trail_sim::Completion<Vec<u8>>) {
        let frame = Request::Commit.encode();
        self.state.borrow_mut().tx += frame.len() as u64;
        let handle = self.handle.borrow();
        if let Some(h) = handle.as_ref() {
            h.submit(sim, &frame, reply);
        }
    }

    /// Accounts a `Commit` response.
    fn account_commit(&self, now: SimTime, d: &Delivered<Vec<u8>>) {
        let mut st = self.state.borrow_mut();
        st.last_done = st.last_done.max(now);
        if let Ok(bytes) = d {
            st.rx += bytes.len() as u64;
            if Response::decode(bytes).is_ok_and(|(r, _)| r.status() == Status::Ok) {
                st.commits_ok += 1;
            }
        }
    }

    /// Fire-and-forget `Commit` (open loop).
    fn fire_commit(self: &Rc<Self>, sim: &mut Simulator) {
        let ctx = Rc::clone(self);
        let reply = sim.completion(move |sim, d: Delivered<Vec<u8>>| {
            ctx.account_commit(sim.now(), &d);
        });
        self.submit_commit(sim, reply);
    }
}

/// Drives `spec` against `server` until every client is done, and
/// returns what the fleet measured. The simulator is run to quiescence.
#[must_use]
pub fn run_fleet(sim: &mut Simulator, server: &Server, spec: &FleetSpec) -> FleetReport {
    let overload = spec.overload.clamp(0.05, 16.0);
    let cancelled_before = sim.completions().cancelled_count();
    let start = sim.now();
    let trace = generate(&SyntheticSpec {
        seed: spec.seed,
        requests: spec.requests,
        devices: server.devices() as u16,
        capacity_sectors: server.min_capacity(),
        read_fraction: spec.read_fraction,
        request_sectors: spec.payload_sectors,
        streams: spec.sessions.max(1),
        arrivals: ArrivalModel::Poisson {
            mean_iat: spec.mean_iat,
        },
        spatial: spec.spatial,
    });
    let mut by_stream: BTreeMap<StreamId, Vec<TraceRecord>> = BTreeMap::new();
    for rec in &trace.records {
        by_stream.entry(rec.stream).or_default().push(*rec);
    }
    let state = Rc::new(RefCell::new(FleetState::new()));
    let sessions = by_stream.len() as u32;
    for (trace_stream, records) in by_stream {
        let ctx = Rc::new(ClientCtx {
            server: server.clone(),
            handle: RefCell::new(None),
            state: Rc::clone(&state),
            stream: StreamId(trace_stream.0 + 1),
            served_puts: Cell::new(0),
            commit_every: spec.commit_every,
        });
        ctx.open();
        match spec.mode {
            FleetMode::OpenLoop => {
                schedule_open_loop(sim, start, overload, spec.churn, &ctx, records);
            }
            FleetMode::ClosedLoop => {
                schedule_closed_loop(sim, start, overload, ctx, records);
            }
        }
    }
    sim.run();
    let st = state.borrow();
    FleetReport {
        sessions,
        issued: st.issued,
        served: st.served,
        rejected: st.rejected,
        shed: st.shed,
        cancelled: st.cancelled,
        commits_ok: st.commits_ok,
        reopened: st.reopened,
        latency: st.clients.total().latency,
        clients: st.clients.clone(),
        server: server.stats(),
        wire_tx: st.tx,
        wire_rx: st.rx,
        duration: st.last_done.max(start) - start,
        cancelled_completions: sim.completions().cancelled_count() - cancelled_before,
    }
}

/// Open loop: every record is scheduled at its (compressed) arrival
/// instant up front; with churn, the session is dropped and reopened at
/// the midpoint of its schedule.
fn schedule_open_loop(
    sim: &mut Simulator,
    start: SimTime,
    overload: f64,
    churn: bool,
    ctx: &Rc<ClientCtx>,
    records: Vec<TraceRecord>,
) {
    let mid = records.len() / 2;
    for (i, rec) in records.into_iter().enumerate() {
        let arrival = start + SimDuration::from_nanos(scale_ns(rec.at.as_nanos(), overload));
        let ctx = Rc::clone(ctx);
        sim.schedule_at(arrival, move |sim| {
            if churn && i == mid {
                // Abrupt disconnect: dropping the handle cancels this
                // session's queued and in-flight requests through the
                // completion cascade; then reconnect under the same
                // stream identity.
                ctx.handle.borrow_mut().take();
                ctx.open();
                ctx.state.borrow_mut().reopened += 1;
            }
            issue_open(sim, &ctx, &rec);
        });
    }
}

/// Closed loop: think for the generated gap, issue, wait for the
/// answer, repeat; ends with a graceful `Close` handshake.
fn schedule_closed_loop(
    sim: &mut Simulator,
    start: SimTime,
    overload: f64,
    ctx: Rc<ClientCtx>,
    records: Vec<TraceRecord>,
) {
    let mut thinks = Vec::with_capacity(records.len());
    let mut prev = SimTime::ZERO;
    for rec in &records {
        thinks.push(SimDuration::from_nanos(scale_ns(
            (rec.at - prev).as_nanos(),
            overload,
        )));
        prev = rec.at;
    }
    let chain = Rc::new(ChainCtx {
        ctx,
        records,
        thinks,
    });
    let first = chain.thinks.first().copied().unwrap_or(SimDuration::ZERO);
    let chain2 = Rc::clone(&chain);
    sim.schedule_at(start + first, move |sim| issue_chained(sim, chain2, 0));
}

struct ChainCtx {
    ctx: Rc<ClientCtx>,
    records: Vec<TraceRecord>,
    thinks: Vec<SimDuration>,
}

fn issue_chained(sim: &mut Simulator, chain: Rc<ChainCtx>, idx: usize) {
    if idx >= chain.records.len() {
        // Done: graceful close handshake, then drop the handle.
        let frame = Request::Close.encode();
        let ctx = Rc::clone(&chain.ctx);
        ctx.state.borrow_mut().tx += frame.len() as u64;
        let reply = sim.completion(move |sim, d: Delivered<Vec<u8>>| {
            let mut st = ctx.state.borrow_mut();
            st.last_done = st.last_done.max(sim.now());
            if let Ok(bytes) = &d {
                st.rx += bytes.len() as u64;
            }
            drop(st);
            ctx.handle.borrow_mut().take();
        });
        let handle = chain.ctx.handle.borrow();
        if let Some(h) = handle.as_ref() {
            h.submit(sim, &frame, reply);
        }
        return;
    }
    let rec = chain.records[idx];
    let (frame, is_read) = frame_for(&rec);
    {
        let mut st = chain.ctx.state.borrow_mut();
        st.issued += 1;
        st.tx += frame.len() as u64;
        st.clients.on_issue(chain.ctx.stream, is_read);
    }
    let issued_at = sim.now();
    let chain2 = Rc::clone(&chain);
    let reply = sim.completion(move |sim, d: Delivered<Vec<u8>>| {
        let served = chain2.ctx.state.borrow_mut().settle(
            chain2.ctx.stream,
            is_read,
            issued_at,
            sim.now(),
            &d,
        );
        if served && !is_read && chain2.ctx.commit_due() {
            // Commit at cadence, and only think once it answers — a
            // closed-loop client's commit is synchronous.
            let chain3 = Rc::clone(&chain2);
            let reply = sim.completion(move |sim, d: Delivered<Vec<u8>>| {
                chain3.ctx.account_commit(sim.now(), &d);
                schedule_next(sim, chain3, idx);
            });
            chain2.ctx.submit_commit(sim, reply);
        } else {
            schedule_next(sim, chain2, idx);
        }
    });
    let handle = chain.ctx.handle.borrow();
    if let Some(h) = handle.as_ref() {
        h.submit(sim, &frame, reply);
    }
}

/// Thinks for the generated gap, then issues request `idx + 1`.
fn schedule_next(sim: &mut Simulator, chain: Rc<ChainCtx>, idx: usize) {
    let think = chain
        .thinks
        .get(idx + 1)
        .copied()
        .unwrap_or(SimDuration::ZERO);
    let next = Rc::clone(&chain);
    sim.schedule_in(think, move |sim| issue_chained(sim, next, idx + 1));
}

/// Issues one open-loop data request: fire, account the answer, and
/// fire a cadence `Commit` when due.
fn issue_open(sim: &mut Simulator, ctx: &Rc<ClientCtx>, rec: &TraceRecord) {
    let (frame, is_read) = frame_for(rec);
    {
        let mut st = ctx.state.borrow_mut();
        st.issued += 1;
        st.tx += frame.len() as u64;
        st.clients.on_issue(ctx.stream, is_read);
    }
    let issued_at = sim.now();
    let ctx2 = Rc::clone(ctx);
    let stream = ctx.stream;
    let reply = sim.completion(move |sim, d: Delivered<Vec<u8>>| {
        let served = ctx2
            .state
            .borrow_mut()
            .settle(stream, is_read, issued_at, sim.now(), &d);
        if served && !is_read && ctx2.commit_due() {
            ctx2.fire_commit(sim);
        }
    });
    let handle = ctx.handle.borrow();
    if let Some(h) = handle.as_ref() {
        h.submit(sim, &frame, reply);
    }
    // A `None` handle (between drop and reopen) simply drops the reply
    // token: the cascade parks the cancellation and the client counts it.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{AdmissionPolicy, ServerConfig};
    use trail_core::{SharedStack, StandardStack};
    use trail_db::StorageService;
    use trail_disk::{profiles, Disk};

    fn fleet_server(config: ServerConfig) -> (Simulator, Server) {
        let sim = Simulator::new();
        let disks = vec![
            Disk::new("d0", profiles::tiny_test_disk()),
            Disk::new("d1", profiles::tiny_test_disk()),
        ];
        let capacity = disks.iter().map(|d| d.geometry().total_sectors()).collect();
        let stack: SharedStack = Rc::new(StandardStack::new(disks));
        let service = StorageService::new(stack, capacity);
        (sim, Server::new(service, config))
    }

    #[test]
    fn open_loop_serves_every_request_at_nominal_load() {
        let (mut sim, srv) = fleet_server(ServerConfig::default());
        let spec = FleetSpec {
            sessions: 4,
            requests: 64,
            ..FleetSpec::default()
        };
        let report = run_fleet(&mut sim, &srv, &spec);
        assert_eq!(report.sessions, 4);
        assert_eq!(report.issued, 64);
        assert_eq!(report.served, 64);
        assert_eq!(report.rejected + report.shed + report.cancelled, 0);
        assert_eq!(report.latency.count(), 64);
        assert_eq!(report.clients.streams(), 4);
        // The fleet-wide histogram is the client lanes, summed.
        let mut merged = DurationHistogram::new();
        for (_, lane) in report.clients.iter() {
            merged.merge(&lane.latency);
        }
        assert_eq!(
            histogram_json(&merged).to_json(),
            histogram_json(&report.latency).to_json()
        );
        assert!(report.wire_tx > 0 && report.wire_rx > 0);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn closed_loop_closes_gracefully_and_commits() {
        let (mut sim, srv) = fleet_server(ServerConfig::default());
        let spec = FleetSpec {
            sessions: 3,
            requests: 48,
            mode: FleetMode::ClosedLoop,
            commit_every: 4,
            read_fraction: 0.0,
            ..FleetSpec::default()
        };
        let report = run_fleet(&mut sim, &srv, &spec);
        assert_eq!(report.served, 48);
        assert!(report.commits_ok > 0);
        let stats = srv.stats();
        // Every session opened once and closed via the Close handshake.
        assert_eq!(stats.opened, 3);
        assert_eq!(stats.closed, 3);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn churn_cancels_in_flight_and_reopens() {
        let (mut sim, srv) = fleet_server(ServerConfig {
            worker_slots: 1,
            admission: AdmissionPolicy::Unbounded,
        });
        let spec = FleetSpec {
            sessions: 2,
            requests: 64,
            overload: 8.0,
            churn: true,
            read_fraction: 0.0,
            commit_every: 0,
            ..FleetSpec::default()
        };
        let report = run_fleet(&mut sim, &srv, &spec);
        assert_eq!(report.reopened, 2);
        assert!(report.cancelled > 0, "churn cancels queued requests");
        assert_eq!(report.cancelled_completions, srv.stats().cancelled);
        assert!(report.served + report.cancelled <= report.issued);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn bounded_admission_rejects_under_overload() {
        let (mut sim, srv) = fleet_server(ServerConfig {
            worker_slots: 2,
            admission: AdmissionPolicy::BoundedQueue { max_queue: 4 },
        });
        let spec = FleetSpec {
            sessions: 8,
            requests: 256,
            overload: 8.0,
            mean_iat: SimDuration::from_millis(5),
            ..FleetSpec::default()
        };
        let report = run_fleet(&mut sim, &srv, &spec);
        assert!(
            report.rejected > 0,
            "8x overload must overflow a queue of 4"
        );
        assert_eq!(report.served + report.rejected + report.shed, report.issued);
        assert!(report.server.max_queue_depth <= 4);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn reports_serialize_deterministically() {
        let run = || {
            let (mut sim, srv) = fleet_server(ServerConfig::default());
            let spec = FleetSpec {
                sessions: 3,
                requests: 30,
                ..FleetSpec::default()
            };
            run_fleet(&mut sim, &srv, &spec)
                .to_json_with_clients(2)
                .to_json()
        };
        assert_eq!(run(), run());
    }
}
