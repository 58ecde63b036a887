//! Sessions and the admission-controlled request executor.
//!
//! A [`Server`] fronts a [`StorageService`] with the connection model a
//! network daemon would have, entirely on the simulator clock:
//!
//! - **Sessions** are keyed by [`StreamId`] (terminal-as-stream): every
//!   request a session submits is tagged with its stream, so the stack's
//!   taps and per-stream statistics attribute it to the session.
//!   A [`SessionHandle`] is the client's end of the connection;
//!   **dropping it mid-flight cancels the session's outstanding
//!   requests** through the `Completion` cancel-cascade — queued
//!   requests' reply tokens are dropped (the sink parks and delivers
//!   `Err(Cancelled)`), and in-service requests are cancelled when
//!   their disk I/O surfaces.
//! - **I/O errors are answers.** A Get, Put or Commit the storage below
//!   fails is answered with a response frame whose [`Status`] names the
//!   [`IoError`] (`Transient`, `MediaFailed`, `PoweredOff`); the session
//!   stays open.
//! - **The executor** is a bounded pool of worker slots over one FIFO
//!   admission queue. A slot is held from dispatch until the stack
//!   acknowledges durability, so when the log disk saturates the queue
//!   grows and the admission policy pushes back — that is the whole
//!   backpressure story.
//! - **Admission policies**: [`AdmissionPolicy::Unbounded`] (queue
//!   without limit; the tail diverges under overload),
//!   [`AdmissionPolicy::BoundedQueue`] (reject arrivals when the queue
//!   is full; admitted requests see bounded queueing delay), and
//!   [`AdmissionPolicy::DeadlineShed`] (admit everything, shed at
//!   dispatch any request that already waited past its deadline).
//!
//! Requests arrive and leave as encoded wire frames ([`crate::wire`]),
//! so the protocol codec is load-bearing for every simulated byte.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_db::StorageService;
use trail_sim::{Completion, Delivered, IoError, SimDuration, SimTime, Simulator};
use trail_telemetry::StreamId;

use crate::wire::{Request, Response, Status};

/// What the executor does when a request arrives while the pool is busy.
#[derive(Clone, Copy, Debug)]
pub enum AdmissionPolicy {
    /// Queue without limit; nothing is refused, the tail pays.
    Unbounded,
    /// Refuse arrivals once the queue holds `max_queue` requests.
    BoundedQueue {
        /// Queue capacity; arrivals beyond it answer `Rejected`.
        max_queue: usize,
    },
    /// Admit everything, but drop (answer `Shed`) any request that has
    /// already waited longer than `max_wait` when a slot frees up.
    DeadlineShed {
        /// Maximum queueing delay before a request is shed at dispatch.
        max_wait: SimDuration,
    },
}

impl AdmissionPolicy {
    /// A short stable label for reports (`unbounded`, `bounded`,
    /// `deadline`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::Unbounded => "unbounded",
            AdmissionPolicy::BoundedQueue { .. } => "bounded",
            AdmissionPolicy::DeadlineShed { .. } => "deadline",
        }
    }
}

/// Executor sizing and policy.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Concurrent requests in service (each holds one slot from dispatch
    /// to durability).
    pub worker_slots: usize,
    /// The admission policy.
    pub admission: AdmissionPolicy,
}

impl Default for ServerConfig {
    /// Four worker slots, unbounded admission.
    fn default() -> Self {
        ServerConfig {
            worker_slots: 4,
            admission: AdmissionPolicy::Unbounded,
        }
    }
}

/// Lifetime counters for one server.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed (gracefully or by drop).
    pub closed: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests answered `Ok` (including commits).
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests dropped at dispatch by the deadline policy.
    pub shed: u64,
    /// Requests cancelled by session teardown.
    pub cancelled: u64,
    /// Requests (commits included) answered with an I/O error status.
    pub failed: u64,
    /// Commit barriers requested.
    pub commits: u64,
    /// Frames that failed to decode or were invalid in their state.
    pub bad_frames: u64,
    /// Deepest the admission queue ever got.
    pub max_queue_depth: usize,
}

struct SessionState {
    open: bool,
    /// `true` only for abrupt teardown (handle dropped); in-service
    /// requests of an aborted session are cancelled instead of answered.
    aborted: bool,
    completed: u64,
    cancelled: u64,
}

struct Queued {
    session: u64,
    stream: StreamId,
    at: SimTime,
    req: Request,
    reply: Completion<Vec<u8>>,
}

struct ServerInner {
    service: StorageService,
    config: ServerConfig,
    sessions: BTreeMap<u64, SessionState>,
    next_session: u64,
    queue: VecDeque<Queued>,
    busy: usize,
    stats: ServerStats,
}

/// The storage-service front-end; cheap to clone (shared state).
#[derive(Clone)]
pub struct Server {
    inner: Rc<RefCell<ServerInner>>,
}

/// The client's end of one open session. Not `Clone`: ownership is the
/// connection, and dropping it is an abrupt disconnect that cancels the
/// session's outstanding requests.
pub struct SessionHandle {
    server: Server,
    id: u64,
    stream: StreamId,
}

fn respond(sim: &mut Simulator, reply: Completion<Vec<u8>>, resp: &Response) {
    reply.complete(sim, resp.encode());
}

/// The refusal response matching a request's expected answer shape.
fn refusal(req: &Request, status: Status) -> Response {
    match req {
        Request::Get { .. } => Response::Data {
            status,
            payload: Vec::new(),
        },
        _ => Response::Done { status },
    }
}

enum PumpJob {
    Run(Queued),
    Shed(Queued),
}

impl Server {
    /// Fronts `service` with the given executor configuration.
    #[must_use]
    pub fn new(service: StorageService, config: ServerConfig) -> Self {
        assert!(config.worker_slots >= 1, "at least one worker slot");
        Server {
            inner: Rc::new(RefCell::new(ServerInner {
                service,
                config,
                sessions: BTreeMap::new(),
                next_session: 1,
                queue: VecDeque::new(),
                busy: 0,
                stats: ServerStats::default(),
            })),
        }
    }

    /// Number of devices behind the service.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.inner.borrow().service.devices()
    }

    /// Smallest device capacity in sectors (see
    /// [`StorageService::min_capacity`]).
    #[must_use]
    pub fn min_capacity(&self) -> u64 {
        self.inner.borrow().service.min_capacity()
    }

    /// Snapshot of the lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.inner.borrow().stats
    }

    /// Requests currently waiting for a worker slot.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Requests currently holding a worker slot.
    #[must_use]
    pub fn in_service(&self) -> usize {
        self.inner.borrow().busy
    }

    /// The wire handshake: decodes an `Open` frame and opens the session
    /// it names.
    ///
    /// # Errors
    ///
    /// An encoded `BadRequest` response (ready to send back) when the
    /// frame does not decode to `Request::Open`.
    pub fn connect(&self, frame: &[u8]) -> Result<(SessionHandle, Vec<u8>), Vec<u8>> {
        match Request::decode(frame) {
            Ok((Request::Open { stream }, _)) => Ok(self.open(StreamId(stream))),
            _ => {
                self.inner.borrow_mut().stats.bad_frames += 1;
                Err(Response::Done {
                    status: Status::BadRequest,
                }
                .encode())
            }
        }
    }

    /// Opens a session keyed by `stream`, returning the handle and the
    /// encoded `Opened` response.
    #[must_use]
    pub fn open(&self, stream: StreamId) -> (SessionHandle, Vec<u8>) {
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_session;
            inner.next_session += 1;
            inner.stats.opened += 1;
            inner.sessions.insert(
                id,
                SessionState {
                    open: true,
                    aborted: false,
                    completed: 0,
                    cancelled: 0,
                },
            );
            id
        };
        (
            SessionHandle {
                server: self.clone(),
                id,
                stream,
            },
            Response::Opened { session: id }.encode(),
        )
    }

    fn submit(
        &self,
        sim: &mut Simulator,
        session: u64,
        stream: StreamId,
        frame: &[u8],
        reply: Completion<Vec<u8>>,
    ) {
        let req = match Request::decode(frame) {
            Ok((req, _)) => req,
            Err(_) => {
                self.inner.borrow_mut().stats.bad_frames += 1;
                respond(
                    sim,
                    reply,
                    &Response::Done {
                        status: Status::BadRequest,
                    },
                );
                return;
            }
        };
        let open = self
            .inner
            .borrow()
            .sessions
            .get(&session)
            .is_some_and(|s| s.open);
        if !open {
            respond(sim, reply, &refusal(&req, Status::NotOpen));
            return;
        }
        match req {
            Request::Open { .. } => {
                self.inner.borrow_mut().stats.bad_frames += 1;
                respond(
                    sim,
                    reply,
                    &Response::Done {
                        status: Status::BadRequest,
                    },
                );
            }
            Request::Close => self.close_session(sim, session, reply),
            Request::Commit => self.commit(sim, session, stream, reply),
            req @ (Request::Get { .. } | Request::Put { .. }) => {
                let full = {
                    let inner = self.inner.borrow();
                    matches!(
                        inner.config.admission,
                        AdmissionPolicy::BoundedQueue { max_queue }
                            if inner.queue.len() >= max_queue
                    )
                };
                if full {
                    self.inner.borrow_mut().stats.rejected += 1;
                    respond(sim, reply, &refusal(&req, Status::Rejected));
                    return;
                }
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.admitted += 1;
                    inner.queue.push_back(Queued {
                        session,
                        stream,
                        at: sim.now(),
                        req,
                        reply,
                    });
                    let depth = inner.queue.len();
                    inner.stats.max_queue_depth = inner.stats.max_queue_depth.max(depth);
                }
                self.pump(sim);
            }
        }
    }

    fn commit(
        &self,
        sim: &mut Simulator,
        session: u64,
        stream: StreamId,
        reply: Completion<Vec<u8>>,
    ) {
        let service = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.commits += 1;
            inner.service.clone()
        };
        let server = self.clone();
        let done = sim.completion(move |sim, d: Delivered<()>| {
            let mut inner = server.inner.borrow_mut();
            match d {
                Ok(()) => {
                    inner.stats.completed += 1;
                    if let Some(s) = inner.sessions.get_mut(&session) {
                        s.completed += 1;
                    }
                    drop(inner);
                    respond(sim, reply, &Response::Done { status: Status::Ok });
                }
                Err(IoError::Cancelled) => {
                    inner.stats.cancelled += 1;
                    drop(inner);
                    reply.fail(sim, IoError::Cancelled);
                }
                Err(e) => {
                    inner.stats.failed += 1;
                    drop(inner);
                    respond(sim, reply, &Response::Done { status: e.into() });
                }
            }
        });
        service.commit(sim, stream, done);
    }

    fn close_session(&self, sim: &mut Simulator, session: u64, reply: Completion<Vec<u8>>) {
        let (purged, resp) = {
            let mut inner = self.inner.borrow_mut();
            let already_closed = inner.sessions.get(&session).is_none_or(|s| !s.open);
            if already_closed {
                drop(inner);
                return respond(sim, reply, &refusal(&Request::Close, Status::NotOpen));
            }
            let state = inner.sessions.get_mut(&session).expect("session exists");
            state.open = false;
            inner.stats.closed += 1;
            let (keep, purged): (VecDeque<Queued>, VecDeque<Queued>) =
                std::mem::take(&mut inner.queue)
                    .into_iter()
                    .partition(|q| q.session != session);
            inner.queue = keep;
            inner.stats.cancelled += purged.len() as u64;
            let state = inner.sessions.get_mut(&session).expect("session exists");
            state.cancelled += purged.len() as u64;
            let resp = Response::Closed {
                completed: state.completed,
                cancelled: state.cancelled,
            };
            (purged, resp)
        };
        for q in purged {
            q.reply.fail(sim, IoError::Cancelled);
        }
        respond(sim, reply, &resp);
    }

    /// Abrupt disconnect (the handle was dropped): purge the session's
    /// queued requests by *dropping* their reply tokens — the completion
    /// sink parks each cancellation and the simulator delivers
    /// `Err(Cancelled)` on its next step. No `&mut Simulator` needed,
    /// which is what lets this run from `Drop`.
    fn abort(&self, session: u64) {
        let mut inner = self.inner.borrow_mut();
        let Some(state) = inner.sessions.get_mut(&session) else {
            return;
        };
        if !state.open {
            return;
        }
        state.open = false;
        state.aborted = true;
        inner.stats.closed += 1;
        let (keep, purged): (VecDeque<Queued>, VecDeque<Queued>) = std::mem::take(&mut inner.queue)
            .into_iter()
            .partition(|q| q.session != session);
        inner.queue = keep;
        inner.stats.cancelled += purged.len() as u64;
        let state = inner.sessions.get_mut(&session).expect("session exists");
        state.cancelled += purged.len() as u64;
        drop(inner);
        // Dropping `purged` drops the reply tokens: the cancel-cascade
        // takes it from here.
        drop(purged);
    }

    /// Fills free worker slots from the queue, shedding stale requests
    /// under the deadline policy.
    fn pump(&self, sim: &mut Simulator) {
        loop {
            let job = {
                let mut inner = self.inner.borrow_mut();
                if inner.busy >= inner.config.worker_slots {
                    return;
                }
                let Some(q) = inner.queue.pop_front() else {
                    return;
                };
                let stale = matches!(
                    inner.config.admission,
                    AdmissionPolicy::DeadlineShed { max_wait } if sim.now() - q.at > max_wait
                );
                if stale {
                    inner.stats.shed += 1;
                    PumpJob::Shed(q)
                } else {
                    inner.busy += 1;
                    PumpJob::Run(q)
                }
            };
            match job {
                PumpJob::Shed(q) => {
                    respond(sim, q.reply, &refusal(&q.req, Status::Shed));
                }
                PumpJob::Run(q) => self.dispatch(sim, q),
            }
        }
    }

    fn dispatch(&self, sim: &mut Simulator, q: Queued) {
        let service = self.inner.borrow().service.clone();
        let server = self.clone();
        let session = q.session;
        let reply = q.reply;
        match q.req {
            Request::Get { dev, lba, sectors } => {
                let done = sim.completion(move |sim, d: Delivered<IoDone>| {
                    let outcome = d.map(|io| Response::Data {
                        status: Status::Ok,
                        // The wire reply owns its bytes: the one copy
                        // of the read's view.
                        payload: io.data.map(|view| view.to_vec()).unwrap_or_default(),
                    });
                    server.finish_io(sim, session, reply, outcome, |status| Response::Data {
                        status,
                        payload: Vec::new(),
                    });
                });
                let _ = service.get(sim, q.stream, dev, lba, sectors, done);
            }
            Request::Put { dev, lba, data } => {
                let done = sim.completion(move |sim, d: Delivered<IoDone>| {
                    let outcome = d.map(|_| Response::Done { status: Status::Ok });
                    server.finish_io(sim, session, reply, outcome, |status| Response::Done {
                        status,
                    });
                });
                let _ = service.put(sim, q.stream, dev, lba, data, done);
            }
            // Open/Commit/Close never enter the queue.
            _ => unreachable!("only Get/Put are queued"),
        }
    }

    /// A worker slot came back: account the outcome, answer the client —
    /// an I/O error as the response `failed(status)` builds — or cancel
    /// it, and pump the queue again.
    fn finish_io(
        &self,
        sim: &mut Simulator,
        session: u64,
        reply: Completion<Vec<u8>>,
        outcome: Delivered<Response>,
        failed: fn(Status) -> Response,
    ) {
        let outcome = match outcome {
            Err(e) if e != IoError::Cancelled => Ok(failed(e.into())),
            outcome => outcome,
        };
        let aborted = {
            let mut inner = self.inner.borrow_mut();
            inner.busy -= 1;
            let aborted = inner.sessions.get(&session).is_none_or(|s| s.aborted);
            match (&outcome, aborted) {
                (Ok(resp), false) if !resp.status().is_ok() => inner.stats.failed += 1,
                (Ok(_), false) => {
                    inner.stats.completed += 1;
                    if let Some(s) = inner.sessions.get_mut(&session) {
                        s.completed += 1;
                    }
                }
                _ => {
                    inner.stats.cancelled += 1;
                    if let Some(s) = inner.sessions.get_mut(&session) {
                        s.cancelled += 1;
                    }
                }
            }
            aborted
        };
        match outcome {
            Ok(resp) if !aborted => respond(sim, reply, &resp),
            _ => reply.fail(sim, IoError::Cancelled),
        }
        self.pump(sim);
    }
}

impl SessionHandle {
    /// The server-assigned session number.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's stream identity.
    #[must_use]
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Submits one encoded request frame; `reply` receives the encoded
    /// response frame (an I/O error included, as its status), or
    /// `Err(IoError::Cancelled)` if the session is torn down first.
    pub fn submit(&self, sim: &mut Simulator, frame: &[u8], reply: Completion<Vec<u8>>) {
        self.server.submit(sim, self.id, self.stream, frame, reply);
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.server.abort(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use trail_core::{SharedStack, StandardStack};
    use trail_disk::{profiles, Disk};

    fn server(config: ServerConfig) -> (Simulator, Server) {
        let sim = Simulator::new();
        let disks = vec![Disk::new("d0", profiles::tiny_test_disk())];
        let capacity = disks.iter().map(|d| d.geometry().total_sectors()).collect();
        let stack: SharedStack = Rc::new(StandardStack::new(disks));
        let service = StorageService::new(stack, capacity);
        (sim, Server::new(service, config))
    }

    fn ok_count(sim: &mut Simulator, server: &Server, frames: usize) -> u64 {
        let (session, _) = server.open(StreamId(1));
        for i in 0..frames {
            let frame = Request::Put {
                dev: 0,
                lba: i as u64,
                data: vec![i as u8; 512],
            }
            .encode();
            let reply = sim.completion(|_, _: Delivered<Vec<u8>>| {});
            session.submit(sim, &frame, reply);
        }
        sim.run();
        server.stats().completed
    }

    #[test]
    fn serves_puts_and_gets_through_the_wire() {
        let (mut sim, srv) = server(ServerConfig::default());
        let (session, opened) = srv.open(StreamId(7));
        assert!(matches!(
            Response::decode(&opened),
            Ok((Response::Opened { session: 1 }, _))
        ));
        let put = Request::Put {
            dev: 0,
            lba: 3,
            data: vec![0xAB; 512],
        }
        .encode();
        let reply = sim.completion(|_, d: Delivered<Vec<u8>>| {
            let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
            assert_eq!(resp.status(), Status::Ok);
        });
        session.submit(&mut sim, &put, reply);
        sim.run();
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let get = Request::Get {
            dev: 0,
            lba: 3,
            sectors: 1,
        }
        .encode();
        let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
            let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
            match resp {
                Response::Data { status, payload } => {
                    assert_eq!(status, Status::Ok);
                    assert_eq!(payload[0], 0xAB);
                }
                other => panic!("unexpected response {other:?}"),
            }
            s.set(true);
        });
        session.submit(&mut sim, &get, reply);
        sim.run();
        assert!(seen.get());
        assert_eq!(srv.stats().completed, 2);
        assert_eq!(srv.queue_depth(), 0);
        assert_eq!(srv.in_service(), 0);
    }

    /// Submits `req` and runs the simulation; the decoded answer.
    fn ask(sim: &mut Simulator, session: &SessionHandle, req: Request) -> Response {
        let got = sim.block_on(|sim, reply| {
            session.submit(sim, &req.encode(), reply);
            Ok::<(), ()>(())
        });
        let frame = got.expect("submitted").expect("answered, not cancelled");
        sim.run();
        Response::decode(&frame).expect("decodes").0
    }

    #[test]
    fn io_errors_are_answered_with_their_status_and_the_session_stays_open() {
        let mut sim = Simulator::new();
        let disk = Disk::new("d0", profiles::tiny_test_disk());
        let capacity = vec![disk.geometry().total_sectors()];
        let stack: SharedStack = Rc::new(StandardStack::new(vec![disk.clone()]));
        let srv = Server::new(
            StorageService::new(stack, capacity),
            ServerConfig::default(),
        );
        let (session, _) = srv.open(StreamId(4));
        let put = |lba| Request::Put {
            dev: 0,
            lba,
            data: vec![7; 512],
        };
        let get = Request::Get {
            dev: 0,
            lba: 1,
            sectors: 1,
        };
        let done = |status| Response::Done { status };
        disk.inject_transient_errors(1);
        assert_eq!(ask(&mut sim, &session, put(1)), done(Status::Transient));
        // The stream's commit fails with what its write hit; the next one,
        // with nothing failed before it, succeeds.
        assert_eq!(
            ask(&mut sim, &session, Request::Commit),
            done(Status::Transient)
        );
        assert_eq!(ask(&mut sim, &session, put(1)), done(Status::Ok));
        assert_eq!(ask(&mut sim, &session, Request::Commit), done(Status::Ok));
        disk.fail(sim.now());
        assert_eq!(
            ask(&mut sim, &session, get),
            Response::Data {
                status: Status::MediaFailed,
                payload: Vec::new()
            }
        );
        assert_eq!(ask(&mut sim, &session, put(2)), done(Status::MediaFailed));
        assert_eq!(
            ask(&mut sim, &session, Request::Commit),
            done(Status::MediaFailed)
        );
        assert!(matches!(
            ask(&mut sim, &session, Request::Close),
            Response::Closed {
                completed: 2,
                cancelled: 0
            }
        ));
        let stats = srv.stats();
        assert_eq!((stats.completed, stats.failed, stats.cancelled), (2, 5, 0));
    }

    #[test]
    fn bounded_queue_rejects_the_overflow() {
        let (mut sim, srv) = server(ServerConfig {
            worker_slots: 1,
            admission: AdmissionPolicy::BoundedQueue { max_queue: 2 },
        });
        let (session, _) = srv.open(StreamId(1));
        let rejected = Rc::new(Cell::new(0u32));
        for i in 0..8 {
            let frame = Request::Put {
                dev: 0,
                lba: i,
                data: vec![1; 512],
            }
            .encode();
            let r = Rc::clone(&rejected);
            let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
                let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
                if resp.status() == Status::Rejected {
                    r.set(r.get() + 1);
                }
            });
            session.submit(&mut sim, &frame, reply);
        }
        sim.run();
        let stats = srv.stats();
        // 1 dispatched immediately + 2 queued; 5 refused.
        assert_eq!(stats.rejected, 5);
        assert_eq!(rejected.get(), 5);
        assert_eq!(stats.completed, 3);
        assert!(stats.max_queue_depth <= 2);
    }

    #[test]
    fn deadline_shed_drops_stale_queue_entries() {
        let (mut sim, srv) = server(ServerConfig {
            worker_slots: 1,
            admission: AdmissionPolicy::DeadlineShed {
                max_wait: SimDuration::from_micros(1),
            },
        });
        let (session, _) = srv.open(StreamId(1));
        let shed = Rc::new(Cell::new(0u32));
        for i in 0..6 {
            let frame = Request::Put {
                dev: 0,
                lba: i,
                data: vec![1; 512],
            }
            .encode();
            let s = Rc::clone(&shed);
            let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
                let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
                if resp.status() == Status::Shed {
                    s.set(s.get() + 1);
                }
            });
            session.submit(&mut sim, &frame, reply);
        }
        sim.run();
        let stats = srv.stats();
        // The first request dispatches with no wait; everything behind it
        // waited a full service time >> 1 µs and is shed.
        assert_eq!(stats.shed, 5);
        assert_eq!(shed.get(), 5);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn commit_answers_after_puts_are_durable() {
        let (mut sim, srv) = server(ServerConfig::default());
        let (session, _) = srv.open(StreamId(2));
        let put = Request::Put {
            dev: 0,
            lba: 0,
            data: vec![9; 512],
        }
        .encode();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        let reply = sim.completion(move |_, _: Delivered<Vec<u8>>| o.borrow_mut().push("put"));
        session.submit(&mut sim, &put, reply);
        let o = Rc::clone(&order);
        let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
            let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
            assert_eq!(resp.status(), Status::Ok);
            o.borrow_mut().push("commit");
        });
        session.submit(&mut sim, &Request::Commit.encode(), reply);
        sim.run();
        assert_eq!(order.borrow().len(), 2);
        assert_eq!(srv.stats().commits, 1);
    }

    #[test]
    fn graceful_close_cancels_queued_and_acks_with_counts() {
        let (mut sim, srv) = server(ServerConfig {
            worker_slots: 1,
            admission: AdmissionPolicy::Unbounded,
        });
        let (session, _) = srv.open(StreamId(3));
        let cancelled = Rc::new(Cell::new(0u32));
        for i in 0..4 {
            let frame = Request::Put {
                dev: 0,
                lba: i,
                data: vec![1; 512],
            }
            .encode();
            let c = Rc::clone(&cancelled);
            let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
                if d.is_err() {
                    c.set(c.get() + 1);
                }
            });
            session.submit(&mut sim, &frame, reply);
        }
        let closed = Rc::new(Cell::new(false));
        let cl = Rc::clone(&closed);
        let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
            let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
            assert!(matches!(resp, Response::Closed { cancelled: 3, .. }));
            cl.set(true);
        });
        session.submit(&mut sim, &Request::Close.encode(), reply);
        sim.run();
        assert!(closed.get());
        // 3 queued requests cancelled; the in-service one drains and
        // completes (graceful close is a drain, not an abort).
        assert_eq!(cancelled.get(), 3);
        assert_eq!(srv.stats().completed, 1);
        // Submitting after close answers NotOpen.
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
            let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
            assert_eq!(resp.status(), Status::NotOpen);
            s.set(true);
        });
        session.submit(&mut sim, &Request::Commit.encode(), reply);
        sim.run();
        assert!(seen.get());
    }

    #[test]
    fn bad_frames_answer_bad_request_never_panic() {
        let (mut sim, srv) = server(ServerConfig::default());
        let (session, _) = srv.open(StreamId(1));
        for garbage in [vec![], vec![0xFF; 3], vec![0xFF; 64]] {
            let seen = Rc::new(Cell::new(false));
            let s = Rc::clone(&seen);
            let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| {
                let (resp, _) = Response::decode(&d.expect("answered")).expect("decodes");
                assert_eq!(resp.status(), Status::BadRequest);
                s.set(true);
            });
            session.submit(&mut sim, &garbage, reply);
            sim.run();
            assert!(seen.get());
        }
        assert_eq!(srv.stats().bad_frames, 3);
    }

    #[test]
    fn connect_opens_on_an_open_frame_and_refuses_anything_else() {
        let (_sim, srv) = server(ServerConfig::default());
        let (session, opened) = srv
            .connect(&Request::Open { stream: 9 }.encode())
            .expect("an Open frame opens a session");
        assert_eq!(session.stream, StreamId(9));
        assert!(matches!(
            Response::decode(&opened),
            Ok((Response::Opened { session: 1 }, _))
        ));
        for garbage in [vec![], vec![0xFF; 5], Request::Commit.encode()] {
            let refused = srv.connect(&garbage).map(|_| ()).expect_err("not an Open");
            let (resp, _) = Response::decode(&refused).expect("decodes");
            assert_eq!(resp.status(), Status::BadRequest);
        }
        let stats = srv.stats();
        assert_eq!((stats.opened, stats.bad_frames), (1, 3));
    }

    #[test]
    fn throughput_accounting_is_consistent() {
        let (mut sim, srv) = server(ServerConfig::default());
        let completed = ok_count(&mut sim, &srv, 32);
        assert_eq!(completed, 32);
        let stats = srv.stats();
        assert_eq!(stats.admitted, 32);
        assert_eq!(stats.rejected + stats.shed + stats.cancelled, 0);
    }
}
