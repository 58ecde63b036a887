//! Typed, cancel-safe completion tokens for cross-layer request lifecycles.
//!
//! Every layer of the storage stack (block driver, Trail core, WAL, file
//! systems) hands requests downward and wants to hear back exactly once.
//! Bespoke per-layer `Box<dyn FnOnce(&mut Simulator, …)>` typedefs made two
//! hazards easy to write:
//!
//! - **Re-entrancy**: a callback invoked synchronously from inside a
//!   component could submit new I/O back into that component while its
//!   `RefCell` state was still mutably borrowed.
//! - **Silent drops**: tearing down a component (power loss, unmount) could
//!   drop pending callbacks on the floor, leaving upper layers waiting
//!   forever.
//!
//! [`Completion<T>`] removes both by construction. Delivery is **deferred**:
//! [`Completion::complete`] schedules the handler as a fresh simulator event
//! instead of calling it inline, so a handler that submits new I/O is never
//! re-entrant into the component that fired it. And a completion **dropped
//! while still armed** parks an `Err(`[`IoError::Cancelled`]`)` delivery in
//! its [`CompletionSink`]; the simulator drains that queue on its next step,
//! so the upper layer always hears back.
//!
//! A completion is also the one channel a failure travels on: whatever
//! went wrong below — a transient error, a failed medium, a power cut — is
//! the [`IoError`] its handler receives ([`Completion::fail`]), and each
//! layer decides in that handler whether to retry, fail over or pass the
//! same value up.
//!
//! # Examples
//!
//! ```
//! use std::cell::Cell;
//! use std::rc::Rc;
//! use trail_sim::Simulator;
//!
//! let mut sim = Simulator::new();
//! let seen = Rc::new(Cell::new(0u32));
//!
//! // Delivered normally.
//! let s = Rc::clone(&seen);
//! let done = sim.completion(move |_, d: trail_sim::Delivered<u32>| {
//!     s.set(d.expect("delivered"));
//! });
//! done.complete(&mut sim, 7);
//! assert_eq!(seen.get(), 0, "delivery is deferred, not inline");
//! sim.run();
//! assert_eq!(seen.get(), 7);
//!
//! // Dropped while armed: the handler still fires, with Err(Cancelled).
//! let s = Rc::clone(&seen);
//! let orphan = sim.completion(move |_, d: trail_sim::Delivered<u32>| {
//!     assert_eq!(d, Err(trail_sim::IoError::Cancelled));
//!     s.set(99);
//! });
//! drop(orphan);
//! sim.run();
//! assert_eq!(seen.get(), 99);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::{EventFn, Simulator};

/// Why a completion was delivered without a value.
///
/// Three kinds are what the device's fault plane injects
/// ([`FaultKind`](crate::FaultKind)'s `TransientError`, `Fail` and
/// `PowerCut`); [`Cancelled`](IoError::Cancelled) is a token dropped by a
/// teardown (unmount, session close, supersession).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoError {
    /// Dropped while armed, or given up on by the layer holding it.
    Cancelled,
    /// The device refused this one command and will take the next one.
    Transient,
    /// The device has failed and will refuse every command from now on.
    MediaFailed,
    /// The device lost power before the command finished.
    PoweredOff,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoError::Cancelled => "completion cancelled before delivery",
            IoError::Transient => "transient I/O error",
            IoError::MediaFailed => "device has failed",
            IoError::PoweredOff => "device lost power",
        })
    }
}

impl std::error::Error for IoError {}

/// What a completion handler receives: the value, or why there is none.
pub type Delivered<T> = Result<T, IoError>;

/// Identifies a completion token, unique within its [`CompletionSink`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CompletionId(u64);

impl CompletionId {
    /// The raw identifier value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

struct SinkShared {
    next_id: u64,
    orphans: Vec<EventFn>,
    cancelled: u64,
}

/// Mints [`Completion`] tokens and collects cancellations from dropped ones.
///
/// Cloning is cheap and shares the underlying state. The [`Simulator`] owns
/// a master sink ([`Simulator::completions`]) whose orphan queue it drains
/// on every step; that drain is what makes dropping an armed completion
/// deliver `Err(`[`IoError::Cancelled`]`)` instead of silence.
#[derive(Clone)]
pub struct CompletionSink {
    shared: Rc<RefCell<SinkShared>>,
}

impl CompletionSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CompletionSink {
            shared: Rc::new(RefCell::new(SinkShared {
                next_id: 0,
                orphans: Vec::new(),
                cancelled: 0,
            })),
        }
    }

    /// Mints a completion token whose `handler` fires exactly once with the
    /// delivered value or an [`IoError`].
    pub fn completion<T: 'static>(
        &self,
        handler: impl FnOnce(&mut Simulator, Delivered<T>) + 'static,
    ) -> Completion<T> {
        let id = {
            let mut s = self.shared.borrow_mut();
            let id = s.next_id;
            s.next_id += 1;
            CompletionId(id)
        };
        Completion {
            id,
            handler: Some(Box::new(handler)),
            sink: self.clone(),
        }
    }

    /// Number of cancellations parked by dropped completions and not yet
    /// delivered.
    pub fn orphan_count(&self) -> usize {
        self.shared.borrow().orphans.len()
    }

    /// Total completions from this sink delivered an error of any kind —
    /// explicitly via [`Completion::fail`] or implicitly by being dropped
    /// while armed. Monotonic over the sink's lifetime; harnesses read it
    /// instead of re-deriving shed/cancelled request counts from their own
    /// handlers.
    pub fn cancelled_count(&self) -> u64 {
        self.shared.borrow().cancelled
    }

    fn note_cancelled(&self) {
        self.shared.borrow_mut().cancelled += 1;
    }

    /// Takes the parked cancellation deliveries (called by the simulator).
    pub(crate) fn take_orphans(&self) -> Vec<EventFn> {
        std::mem::take(&mut self.shared.borrow_mut().orphans)
    }

    fn park(&self, f: EventFn) {
        self.shared.borrow_mut().orphans.push(f);
    }
}

impl Default for CompletionSink {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for CompletionSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("CompletionSink")
            .field("next_id", &s.next_id)
            .field("orphans", &s.orphans.len())
            .finish()
    }
}

/// A one-shot, typed acknowledgement of a submitted request.
///
/// Obtained from [`Simulator::completion`] (or any [`CompletionSink`]) and
/// passed *down* the stack with the request; the layer that finishes the
/// work calls [`complete`](Completion::complete) (or
/// [`fail`](Completion::fail)). The handler runs as its own simulator
/// event — never inline — so it may freely submit new I/O into the very
/// component that completed it.
///
/// Dropping an armed completion is safe: the handler is delivered
/// `Err(`[`IoError::Cancelled`]`)` on the simulator's next step.
pub struct Completion<T: 'static> {
    id: CompletionId,
    handler: Option<Handler<T>>,
    sink: CompletionSink,
}

/// The boxed delivery handler held by an armed [`Completion`].
type Handler<T> = Box<dyn FnOnce(&mut Simulator, Delivered<T>)>;

impl<T: 'static> Completion<T> {
    /// The token's identity (stable across the request's lifetime; useful
    /// as a telemetry correlation key).
    pub fn id(&self) -> CompletionId {
        self.id
    }

    /// Delivers `value`, consuming the token. The handler runs as a fresh
    /// event at the current simulated time, after already-queued events.
    pub fn complete(mut self, sim: &mut Simulator, value: T) {
        if let Some(h) = self.handler.take() {
            sim.schedule_now(move |sim: &mut Simulator| h(sim, Ok(value)));
        }
    }

    /// Delivers `Err(e)`, consuming the token. Same deferred semantics as
    /// [`complete`](Completion::complete).
    pub fn fail(mut self, sim: &mut Simulator, e: IoError) {
        if let Some(h) = self.handler.take() {
            self.sink.note_cancelled();
            sim.schedule_now(move |sim: &mut Simulator| h(sim, Err(e)));
        }
    }
}

impl<T: 'static> Drop for Completion<T> {
    fn drop(&mut self) {
        if let Some(h) = self.handler.take() {
            // No `&mut Simulator` here, so park the cancellation in the
            // sink; the simulator drains it on its next step.
            self.sink.note_cancelled();
            self.sink
                .park(Box::new(move |sim| h(sim, Err(IoError::Cancelled))));
        }
    }
}

impl<T: 'static> fmt::Debug for Completion<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Completion")
            .field("id", &self.id)
            .field("armed", &self.handler.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::cell::{Cell, RefCell};

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut sim = Simulator::new();
        let a = sim.completion(|_, _: Delivered<()>| {});
        let b = sim.completion(|_, _: Delivered<()>| {});
        assert!(a.id() < b.id());
        assert_ne!(a.id().raw(), b.id().raw());
        a.fail(&mut sim, IoError::Cancelled);
        b.fail(&mut sim, IoError::Cancelled);
        sim.run();
    }

    #[test]
    fn delivery_is_deferred_not_inline() {
        let mut sim = Simulator::new();
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let done = sim.completion(move |_, d: Delivered<u8>| {
            assert_eq!(d, Ok(5));
            s.set(true);
        });
        done.complete(&mut sim, 5);
        assert!(!seen.get(), "handler must not run inline");
        assert!(sim.step());
        assert!(seen.get());
    }

    #[test]
    fn deferred_delivery_runs_after_already_queued_same_time_events() {
        let mut sim = Simulator::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        sim.schedule_now(move |_| o.borrow_mut().push("queued"));
        let o = Rc::clone(&order);
        let done = sim.completion(move |_, _: Delivered<()>| o.borrow_mut().push("completion"));
        done.complete(&mut sim, ());
        sim.run();
        assert_eq!(*order.borrow(), vec!["queued", "completion"]);
    }

    #[test]
    fn cancel_delivers_err() {
        for e in [
            IoError::Cancelled,
            IoError::Transient,
            IoError::MediaFailed,
            IoError::PoweredOff,
        ] {
            let mut sim = Simulator::new();
            let seen = Rc::new(Cell::new(None));
            let s = Rc::clone(&seen);
            let done = sim.completion(move |_, d: Delivered<u8>| s.set(Some(d)));
            done.fail(&mut sim, e);
            assert_eq!(seen.get(), None, "failure delivery is deferred too");
            sim.run();
            assert_eq!(seen.get(), Some(Err(e)));
        }
    }

    #[test]
    fn dropped_completion_is_delivered_as_cancelled() {
        let mut sim = Simulator::new();
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let done = sim.completion(move |_, d: Delivered<u32>| {
            assert_eq!(d, Err(IoError::Cancelled));
            s.set(true);
        });
        drop(done);
        assert_eq!(sim.completions().orphan_count(), 1);
        sim.run();
        assert!(seen.get());
        assert_eq!(sim.completions().orphan_count(), 0);
    }

    #[test]
    fn orphans_flush_even_when_queue_had_drained() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(1), |_| {});
        sim.run();
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        drop(sim.completion(move |_, _: Delivered<()>| s.set(true)));
        sim.run();
        assert!(seen.get());
    }

    #[test]
    fn run_until_delivers_orphans() {
        let mut sim = Simulator::new();
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        drop(sim.completion(move |_, _: Delivered<()>| s.set(true)));
        sim.run_until(sim.now() + SimDuration::from_millis(1));
        assert!(seen.get());
    }

    #[test]
    fn completed_token_does_not_double_deliver_on_drop() {
        let mut sim = Simulator::new();
        let count = Rc::new(Cell::new(0u32));
        let c = Rc::clone(&count);
        let done = sim.completion(move |_, _: Delivered<()>| c.set(c.get() + 1));
        done.complete(&mut sim, ());
        sim.run();
        assert_eq!(count.get(), 1);
        assert_eq!(sim.completions().orphan_count(), 0);
    }

    #[test]
    fn cancelled_count_covers_explicit_and_dropped() {
        let mut sim = Simulator::new();
        assert_eq!(sim.completions().cancelled_count(), 0);
        let a = sim.completion(|_, _: Delivered<()>| {});
        a.fail(&mut sim, IoError::Transient);
        drop(sim.completion(|_, _: Delivered<()>| {}));
        let delivered = sim.completion(|_, _: Delivered<()>| {});
        delivered.complete(&mut sim, ());
        sim.run();
        // An explicit failure of any kind and a drop count; normal
        // delivery does not.
        assert_eq!(sim.completions().cancelled_count(), 2);
        assert_eq!(sim.completions().orphan_count(), 0);
    }

    #[test]
    fn handler_submitting_new_io_is_not_reentrant() {
        // A "component" that holds a RefCell borrow across completion would
        // panic if delivery were inline; deferred delivery makes it safe.
        struct Component {
            state: RefCell<Vec<u32>>,
        }
        impl Component {
            fn fire(self: &Rc<Self>, sim: &mut Simulator, done: Completion<u32>) {
                let mut state = self.state.borrow_mut();
                state.push(1);
                done.complete(sim, 1);
                // Borrow still held here; any inline handler touching the
                // component would double-borrow.
                state.push(2);
            }
        }
        let mut sim = Simulator::new();
        let comp = Rc::new(Component {
            state: RefCell::new(Vec::new()),
        });
        let seen = Rc::new(Cell::new(0u32));
        let c2 = Rc::clone(&comp);
        let s = Rc::clone(&seen);
        let outer = sim.completion(move |sim, d: Delivered<u32>| {
            // Re-enter the component from the handler.
            let s2 = Rc::clone(&s);
            let inner = sim.completion(move |_, d2: Delivered<u32>| {
                s2.set(d.unwrap() + d2.unwrap() + 10);
            });
            c2.fire(sim, inner);
        });
        Rc::clone(&comp).fire(&mut sim, outer);
        sim.run();
        assert_eq!(seen.get(), 12);
        assert_eq!(*comp.state.borrow(), vec![1, 2, 1, 2]);
    }
}
