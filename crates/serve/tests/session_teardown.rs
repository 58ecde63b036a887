//! Session teardown end-to-end: dropping a [`SessionHandle`] mid-flight
//! cancels the session's outstanding requests through the `Completion`
//! cancel-cascade, with no leaked pending events.
//!
//! The contract under test, layer by layer:
//!
//! - every reply token the client armed settles exactly once — `Ok`
//!   for requests answered before the drop, `Err(Cancelled)` after;
//! - the completion sink's `cancelled_count` (the telemetry surface
//!   added for exactly this) grows by the number of torn-down requests;
//! - the simulator drains to quiescence: `events_pending()` returns to
//!   zero and no orphaned completion state is left behind, even though
//!   the disk I/O the session started keeps running under an aborted
//!   session.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use trail::StackBuilder;
use trail_serve::{Request, Response, Server, ServerConfig, SessionHandle, Status};
use trail_sim::{Delivered, Simulator};
use trail_telemetry::{StreamId, StreamMetrics};

/// A Trail-backed server plus its simulator.
fn trail_server() -> (Simulator, Server) {
    let built = StackBuilder::new()
        .data_disks(2)
        .trail_default()
        .build()
        .expect("stack builds");
    let server = Server::new(built.service(), ServerConfig::default());
    (built.sim, server)
}

/// Settled outcomes for a batch of replies, shared with the closures.
#[derive(Default)]
struct Outcomes {
    ok: Cell<u32>,
    cancelled: Cell<u32>,
}

fn submit_puts(
    sim: &mut Simulator,
    session: &SessionHandle,
    outcomes: &Rc<Outcomes>,
    metrics: &Rc<RefCell<StreamMetrics>>,
    count: u32,
) {
    for i in 0..count {
        let frame = Request::Put {
            dev: (i % 2) as u16,
            lba: u64::from(i) * 8,
            data: vec![i as u8; 1024],
        }
        .encode();
        let out = Rc::clone(outcomes);
        let m = Rc::clone(metrics);
        let stream = session.stream();
        m.borrow_mut().on_issue(stream, false);
        let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| match d {
            Ok(_) => {
                out.ok.set(out.ok.get() + 1);
                m.borrow_mut().on_complete(stream, false, None);
            }
            Err(_) => {
                out.cancelled.set(out.cancelled.get() + 1);
                m.borrow_mut().on_cancelled(stream);
            }
        });
        session.submit(sim, &frame, reply);
    }
}

#[test]
fn dropping_a_session_mid_flight_cancels_outstanding_requests() {
    let (mut sim, server) = trail_server();
    let baseline_pending = sim.events_pending();
    let cancelled_before = sim.completions().cancelled_count();

    let (session, _) = server.open(StreamId(7));
    let outcomes = Rc::new(Outcomes::default());
    let metrics = Rc::new(RefCell::new(StreamMetrics::new()));
    submit_puts(&mut sim, &session, &outcomes, &metrics, 16);

    // Let a little of the work land, then yank the connection.
    for _ in 0..40 {
        if !sim.step() {
            break;
        }
    }
    let settled_early = outcomes.ok.get();
    drop(session);
    sim.run();

    // Every reply settled exactly once.
    assert_eq!(outcomes.ok.get() + outcomes.cancelled.get(), 16);
    assert!(
        outcomes.cancelled.get() > 0,
        "the drop must cancel something still in flight \
         ({settled_early} served before the drop)"
    );

    // The cascade was visible at the sink: at least one cancellation per
    // torn-down reply (the server's own tracking tokens add more).
    let cascade = sim.completions().cancelled_count() - cancelled_before;
    assert!(
        cascade >= u64::from(outcomes.cancelled.get()),
        "sink saw {cascade} cancellations for {} cancelled replies",
        outcomes.cancelled.get()
    );

    // Server accounting matches the client's view.
    let stats = server.stats();
    assert_eq!(stats.opened, 1);
    assert_eq!(stats.closed, 1);
    assert_eq!(u64::from(outcomes.cancelled.get()), stats.cancelled);
    assert_eq!(u64::from(outcomes.ok.get()), stats.completed);

    // No leaked pending events and no half-finished server state.
    assert_eq!(sim.events_pending(), baseline_pending);
    assert_eq!(sim.completions().orphan_count(), 0);
    assert_eq!(server.queue_depth(), 0);
    assert_eq!(server.in_service(), 0);

    // Per-stream telemetry separates teardown from refusals.
    let m = metrics.borrow();
    let lane = m.lane(StreamId(7)).expect("lane exists");
    assert_eq!(lane.cancelled, u64::from(outcomes.cancelled.get()));
    assert_eq!(lane.inflight, 0);
}

#[test]
fn immediate_drop_cancels_everything_without_running() {
    let (mut sim, server) = trail_server();
    let (session, _) = server.open(StreamId(1));
    let outcomes = Rc::new(Outcomes::default());
    let metrics = Rc::new(RefCell::new(StreamMetrics::new()));
    submit_puts(&mut sim, &session, &outcomes, &metrics, 8);
    // Drop before the simulator ever steps: nothing was served, so the
    // whole batch dies with the connection (modulo requests already
    // dispatched into worker slots, which surface as cancelled too).
    drop(session);
    sim.run();
    assert_eq!(outcomes.ok.get(), 0);
    assert_eq!(outcomes.cancelled.get(), 8);
    assert_eq!(sim.events_pending(), 0);
    assert_eq!(sim.completions().orphan_count(), 0);
}

#[test]
fn other_sessions_are_untouched_by_a_teardown() {
    let (mut sim, server) = trail_server();
    let (doomed, _) = server.open(StreamId(1));
    let (survivor, _) = server.open(StreamId(2));
    let doomed_out = Rc::new(Outcomes::default());
    let survivor_out = Rc::new(Outcomes::default());
    let metrics = Rc::new(RefCell::new(StreamMetrics::new()));
    submit_puts(&mut sim, &doomed, &doomed_out, &metrics, 6);
    submit_puts(&mut sim, &survivor, &survivor_out, &metrics, 6);
    drop(doomed);
    sim.run();
    assert_eq!(survivor_out.ok.get(), 6, "survivor's requests all serve");
    assert_eq!(survivor_out.cancelled.get(), 0);
    assert_eq!(doomed_out.ok.get() + doomed_out.cancelled.get(), 6);
    assert!(doomed_out.cancelled.get() > 0);
    assert_eq!(sim.events_pending(), 0);
}

/// A service over a RAID volume is sized by the volume, one capacity per
/// stack device, not one per member disk: a session Puts, Commits and Gets
/// its bytes back.
#[test]
fn a_session_over_a_raid5_volume_reads_back_what_it_committed() {
    let stack: StackBuilder = "raid5x3_trail,disks=1,tiny".parse().expect("spec parses");
    let mut built = stack.build().expect("stack builds");
    let (session, _) = Server::new(built.service(), ServerConfig::default()).open(StreamId(3));
    let (dev, lba, data) = (0, 4_000, (0..2048u32).map(|i| i as u8).collect::<Vec<u8>>());
    let put = Request::Put {
        dev,
        lba,
        data: data.clone(),
    };
    let mut answers = Vec::new();
    for req in [
        put,
        Request::Commit,
        Request::Get {
            dev,
            lba,
            sectors: 4,
        },
    ] {
        let (sim, answer) = (&mut built.sim, Rc::new(RefCell::new(None)));
        let heard = Rc::clone(&answer);
        let reply = sim.completion(move |_, d: Delivered<Vec<u8>>| *heard.borrow_mut() = d.ok());
        session.submit(sim, &req.encode(), reply);
        sim.run();
        let frame = answer.take().expect("answered");
        answers.push(Response::decode(&frame).expect("a response frame").0);
    }
    let ok = Response::Done { status: Status::Ok };
    let read = Response::Data {
        status: Status::Ok,
        payload: data,
    };
    assert_eq!(answers, [ok.clone(), ok, read]);
}
