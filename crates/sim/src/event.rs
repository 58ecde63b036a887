//! The discrete-event executor.
//!
//! [`Simulator`] owns a virtual clock and an indexed priority queue of
//! scheduled events. Components of the storage stack (disks, drivers,
//! workload generators) are shared via `Rc<RefCell<_>>`; events are
//! closures that receive `&mut Simulator` so they can read the clock and
//! schedule further events. Execution is single-threaded and fully
//! deterministic: events at equal timestamps run in scheduling order.
//!
//! The hot path is allocation-light: closures at or below
//! [`INLINE_EVENT_BYTES`](crate::INLINE_EVENT_BYTES) bytes live inline in
//! the queue's slab (no box per event), and slab slots are recycled so a
//! steady-state schedule→fire loop touches no allocator at all. See
//! DESIGN.md §"Executor performance".

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::completion::{Completion, CompletionSink, Delivered};
use crate::payload::EventPayload;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

thread_local! {
    static THREAD_EXECUTED: Cell<u64> = const { Cell::new(0) };
}

/// Total events executed by every [`Simulator`] on the current thread.
///
/// The counter is monotonic and never resets; measure a workload by taking
/// the difference around it. Because a `Simulator` is single-threaded, the
/// delta observed by the thread that ran a simulation is exact, which lets
/// harnesses attribute event counts to scenarios without plumbing the
/// simulator out of every helper.
pub fn thread_events_executed() -> u64 {
    THREAD_EXECUTED.with(Cell::get)
}

/// A boxed event callback.
///
/// Scheduling no longer requires boxing — [`Simulator::schedule_at`] takes
/// any `FnOnce(&mut Simulator)` and stores small closures inline — but the
/// alias remains for code that must name a concrete event type (e.g. to
/// store heterogeneous callbacks in a collection).
pub type EventFn = Box<dyn FnOnce(&mut Simulator)>;

/// Identifies a scheduled event so that it can be cancelled.
///
/// Ids are generation-tagged: once the event fires or is cancelled, the id
/// goes stale and [`Simulator::cancel`] returns `false` for it forever,
/// even after its internal storage is recycled for a new event.
///
/// # Examples
///
/// ```
/// use trail_sim::{SimDuration, Simulator};
///
/// let mut sim = Simulator::new();
/// let id = sim.schedule_in(SimDuration::from_millis(1), |_| {});
/// assert!(sim.cancel(id));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    /// Builds an id from a slab slot index and its generation.
    pub(crate) fn pack(generation: u32, slot: u32) -> EventId {
        EventId(u64::from(generation) << 32 | u64::from(slot))
    }

    /// Splits the id back into `(generation, slot)`.
    pub(crate) fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// A deterministic single-threaded discrete-event simulator.
///
/// # Examples
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use trail_sim::{SimDuration, Simulator};
///
/// let mut sim = Simulator::new();
/// let fired = Rc::new(Cell::new(false));
/// let flag = Rc::clone(&fired);
/// sim.schedule_in(SimDuration::from_micros(250), move |sim| {
///     assert_eq!(sim.now().as_nanos(), 250_000);
///     flag.set(true);
/// });
/// sim.run();
/// assert!(fired.get());
/// ```
pub struct Simulator {
    now: SimTime,
    queue: EventQueue,
    next_seq: u64,
    executed: u64,
    sink: CompletionSink,
}

impl Simulator {
    /// Creates a simulator with an empty event queue at time zero.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            next_seq: 0,
            executed: 0,
            sink: CompletionSink::new(),
        }
    }

    /// Mints a [`Completion`] token from the simulator's master sink.
    ///
    /// The `handler` fires exactly once — with `Ok(value)` after
    /// [`Completion::complete`], or `Err(Cancelled)` after
    /// [`Completion::cancel`] or a drop while armed.
    pub fn completion<T: 'static>(
        &self,
        handler: impl FnOnce(&mut Simulator, Delivered<T>) + 'static,
    ) -> Completion<T> {
        self.sink.completion(handler)
    }

    /// The simulator's master [`CompletionSink`] (cheap clone; components
    /// may hold one to mint internal completions without a `&Simulator`).
    pub fn completions(&self) -> CompletionSink {
        self.sink.clone()
    }

    /// Converts completions dropped-while-armed into scheduled
    /// `Err(Cancelled)` deliveries. Returns `true` if any were parked.
    fn flush_orphans(&mut self) -> bool {
        let orphans = self.sink.take_orphans();
        let any = !orphans.is_empty();
        for f in orphans {
            self.schedule_now(f);
        }
        any
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Returns the number of events currently scheduled. Exact: cancelled
    /// events are removed from the queue immediately and never counted.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// Small closures (≤ [`INLINE_EVENT_BYTES`](crate::INLINE_EVENT_BYTES)
    /// bytes) are stored inline without allocating; boxing at the call
    /// site is never required.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at, seq, EventPayload::new(f))
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Simulator) + 'static,
    ) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, f)
    }

    /// Schedules `f` to run at the current time, after already-queued events
    /// with the same timestamp.
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut Simulator) + 'static) -> EventId {
        self.schedule_at(self.now, f)
    }

    /// Cancels a scheduled event, removing it from the queue in O(log n).
    ///
    /// Returns `true` if the event had not yet run (or been cancelled).
    /// Cancelling an already-executed event returns `false` and has no
    /// other effect. The cancelled closure (and anything it captured) is
    /// dropped before this returns.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id).is_some()
    }

    /// Executes the next pending event, advancing the clock to its time.
    ///
    /// Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.flush_orphans();
        match self.queue.pop_min() {
            Some((time, payload)) => {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                self.executed += 1;
                THREAD_EXECUTED.with(|c| c.set(c.get() + 1));
                payload.invoke(self);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Submits one request and steps the simulation until its completion
    /// token is delivered: the one way boot-time and harness code waits.
    ///
    /// `submit` receives a freshly minted token and hands it down with the
    /// request (what it returns on acceptance, a request id say, is
    /// dropped). The return value is the delivery — `Ok(Ok(value))`, or
    /// `Ok(Err(Cancelled))` when the token was dropped or cancelled (power
    /// loss, a failed device) — and the clock stands at the delivery
    /// instant: events scheduled after it have not run. Every other actor's
    /// events up to that instant do run, so call [`run`](Simulator::run)
    /// afterwards where the caller means "and let everything settle".
    ///
    /// # Errors
    ///
    /// A synchronous rejection: `submit`'s own error, returned without
    /// stepping.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before the token is delivered
    /// (the token was leaked, not dropped — a bug in the layer holding it).
    pub fn block_on<T: 'static, A, E>(
        &mut self,
        submit: impl FnOnce(&mut Simulator, Completion<T>) -> Result<A, E>,
    ) -> Result<Delivered<T>, E> {
        let slot = Rc::new(RefCell::new(None));
        let out = Rc::clone(&slot);
        let done = self.completion(move |_, d: Delivered<T>| *out.borrow_mut() = Some(d));
        submit(self, done)?;
        loop {
            if let Some(d) = slot.borrow_mut().take() {
                return Ok(d);
            }
            assert!(
                self.step(),
                "block_on: event queue drained before the token was delivered"
            );
        }
    }

    /// Runs events with timestamps `<= until`, then advances the clock to
    /// `until` (even if the queue drained earlier or later events remain).
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            self.flush_orphans();
            match self.queue.peek_min_time() {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        if until > self.now {
            self.now = until;
        }
    }

    /// Runs events for a span of `dur` from the current time.
    pub fn run_for(&mut self, dur: SimDuration) {
        let until = self.now + dur;
        self.run_until(until);
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completion::Cancelled;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (delay, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let order = Rc::clone(&order);
            sim.schedule_in(SimDuration::from_nanos(delay), move |_| {
                order.borrow_mut().push(tag)
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..5 {
            let order = Rc::clone(&order);
            sim.schedule_at(SimTime::from_nanos(100), move |_| {
                order.borrow_mut().push(tag)
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn boxed_eventfn_call_sites_still_compile() {
        // Pre-existing call sites pass `Box::new(...)`; `Box<dyn FnOnce>`
        // is itself `FnOnce`, so the generic API accepts it unchanged.
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(0u32));
        let h = Rc::clone(&hits);
        sim.schedule_now(Box::new(move |_sim: &mut Simulator| {
            *h.borrow_mut() += 1;
        }) as EventFn);
        sim.run();
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(5), |sim| {
            assert_eq!(sim.now(), SimTime::from_nanos(5_000_000))
        });
        sim.run();
        assert_eq!(sim.now(), SimTime::from_nanos(5_000_000));
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Simulator::new();
        let hits = Rc::new(RefCell::new(0u32));
        fn chain(sim: &mut Simulator, hits: Rc<RefCell<u32>>, remaining: u32) {
            if remaining == 0 {
                return;
            }
            *hits.borrow_mut() += 1;
            sim.schedule_in(SimDuration::from_nanos(1), move |sim| {
                chain(sim, hits, remaining - 1)
            });
        }
        let h = Rc::clone(&hits);
        sim.schedule_now(move |sim| chain(sim, h, 10));
        sim.run();
        assert_eq!(*hits.borrow(), 10);
        // The 10th increment (at t=9) schedules a final no-op event at t=10.
        assert_eq!(sim.now(), SimTime::from_nanos(10));
    }

    #[test]
    fn cancelled_events_do_not_run() {
        let mut sim = Simulator::new();
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let id = sim.schedule_in(SimDuration::from_millis(1), move |_| *f.borrow_mut() = true);
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel must report false");
        sim.run();
        assert!(!*fired.borrow());
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn cancel_of_executed_event_is_false() {
        let mut sim = Simulator::new();
        let id = sim.schedule_now(|_| {});
        sim.run();
        assert!(!sim.cancel(id));
    }

    #[test]
    fn cancel_of_executed_event_is_false_even_after_slot_reuse() {
        // Regression: the executed event's storage slot is recycled by the
        // next schedule; the stale id must not cancel the new tenant.
        let mut sim = Simulator::new();
        let stale = sim.schedule_now(|_| {});
        sim.run();
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let fresh = sim.schedule_in(SimDuration::from_millis(1), move |_| *f.borrow_mut() = true);
        assert!(!sim.cancel(stale), "stale id must miss the recycled slot");
        sim.run();
        assert!(*fired.borrow(), "new tenant must be unaffected");
        assert!(!sim.cancel(fresh), "fresh id is stale after firing");
    }

    #[test]
    fn events_pending_excludes_cancelled() {
        // Regression: the BinaryHeap-era queue counted cancelled-but-
        // unpopped entries; the indexed queue removes them eagerly.
        let mut sim = Simulator::new();
        let keep = sim.schedule_in(SimDuration::from_millis(1), |_| {});
        let drop_me = sim.schedule_in(SimDuration::from_millis(2), |_| {});
        assert_eq!(sim.events_pending(), 2);
        assert!(sim.cancel(drop_me));
        assert_eq!(sim.events_pending(), 1, "cancelled event still counted");
        assert!(sim.cancel(keep));
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn cancel_drops_captures_immediately() {
        // The cancelled closure's captures must be released at cancel time
        // (not parked until the event's timestamp would have arrived).
        let mut sim = Simulator::new();
        let payload = Rc::new(());
        let probe = Rc::downgrade(&payload);
        let id = sim.schedule_in(SimDuration::from_secs(3600), move |_| {
            let _keep = &payload;
        });
        assert!(probe.upgrade().is_some());
        assert!(sim.cancel(id));
        assert!(
            probe.upgrade().is_none(),
            "captures must drop at cancel time"
        );
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for ms in [1u64, 2, 3, 4] {
            let log = Rc::clone(&log);
            sim.schedule_in(SimDuration::from_millis(ms), move |_| {
                log.borrow_mut().push(ms)
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(*log.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn run_until_advances_clock_even_with_no_events() {
        let mut sim = Simulator::new();
        sim.run_until(SimTime::from_nanos(777));
        assert_eq!(sim.now(), SimTime::from_nanos(777));
    }

    #[test]
    fn run_for_is_relative() {
        let mut sim = Simulator::new();
        sim.run_for(SimDuration::from_millis(1));
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(sim.now().as_millis_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(1), |_| {});
        sim.run();
        sim.schedule_at(SimTime::ZERO, |_| {});
    }

    #[test]
    fn block_on_returns_the_delivered_value() {
        let mut sim = Simulator::new();
        let got = sim.block_on(|sim, done: Completion<u32>| {
            sim.schedule_in(SimDuration::from_millis(3), move |sim| {
                done.complete(sim, 7)
            });
            Ok::<(), ()>(())
        });
        assert_eq!(got, Ok(Ok(7)));
    }

    #[test]
    fn block_on_returns_a_synchronous_rejection_without_stepping() {
        let mut sim = Simulator::new();
        let ran = Rc::new(Cell::new(false));
        let r = Rc::clone(&ran);
        sim.schedule_now(move |_| r.set(true));
        let got = sim.block_on(|_, _done: Completion<u32>| Err::<(), _>("rejected"));
        assert_eq!(got, Err("rejected"));
        assert!(!ran.get(), "a rejected submission must not step");
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn block_on_reports_a_dropped_token_as_cancelled() {
        let mut sim = Simulator::new();
        let got = sim.block_on(|sim, done: Completion<u32>| {
            sim.schedule_in(SimDuration::from_millis(1), move |_| drop(done));
            Ok::<(), ()>(())
        });
        assert_eq!(got, Ok(Err(Cancelled)));
    }

    #[test]
    fn block_on_stops_at_the_delivery_instant() {
        let mut sim = Simulator::new();
        let later = Rc::new(Cell::new(false));
        let l = Rc::clone(&later);
        sim.schedule_in(SimDuration::from_millis(5), move |_| l.set(true));
        let got = sim.block_on(|sim, done: Completion<()>| {
            sim.schedule_in(SimDuration::from_millis(2), move |sim| {
                done.complete(sim, ())
            });
            Ok::<(), ()>(())
        });
        assert_eq!(got, Ok(Ok(())));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(2));
        assert!(!later.get(), "block_on must not drain past the delivery");
        assert_eq!(sim.events_pending(), 1);
    }

    #[test]
    #[should_panic(expected = "event queue drained before the token was delivered")]
    fn block_on_panics_on_a_leaked_token() {
        let mut sim = Simulator::new();
        let _ = sim.block_on(|_, done: Completion<()>| {
            std::mem::forget(done);
            Ok::<(), ()>(())
        });
    }
}
