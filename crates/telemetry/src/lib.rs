//! Cross-layer tracing and metrics for the Trail stack.
//!
//! Every layer of the reproduction — the mechanical disk model, the block
//! I/O driver, the Trail log driver, and the database engine — can emit
//! typed [`Event`]s keyed by virtual [`SimTime`] through a shared
//! [`Recorder`]. The design goal is *zero overhead when disabled*: each
//! instrumented component holds an `Rc<dyn Recorder>` that defaults to
//! [`NullRecorder`], and guards event construction behind
//! [`Recorder::enabled`], so a disabled recorder costs one virtual call
//! per potential event and allocates nothing.
//!
//! With a [`MemoryRecorder`] attached, the captured stream can be
//! exported as a Chrome trace-event JSON file loadable in Perfetto
//! ([`chrome_trace_string`]) or aggregated into a compact metrics dump
//! ([`metrics_json_string`]). [`RequestBreakdown`] carries the
//! per-request latency decomposition (queue + overhead + seek +
//! rotation + transfer) whose components sum exactly to the end-to-end
//! latency in integer nanoseconds.
//!
//! # Examples
//!
//! ```
//! use std::rc::Rc;
//! use trail_sim::{SimDuration, SimTime};
//! use trail_telemetry::{Event, EventKind, Layer, MemoryRecorder, Recorder};
//!
//! let rec = Rc::new(MemoryRecorder::new());
//! rec.record(Event {
//!     at: SimTime::from_nanos(1_000),
//!     dur: SimDuration::from_nanos(500),
//!     layer: Layer::Disk,
//!     source: "d0".to_string(),
//!     req: None,
//!     kind: EventKind::RotWait,
//! });
//! assert_eq!(rec.len(), 1);
//! let trace = trail_telemetry::chrome_trace_string(&rec.snapshot());
//! assert!(trace.contains("RotWait"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use trail_sim::{SimDuration, SimTime};

pub mod json;
mod lifecycle;
mod metrics;
mod stream;
mod trace;

pub use json::{JsonError, JsonValue};
pub use lifecycle::LifecycleEmitter;
pub use metrics::{histogram_json, metrics_json, metrics_json_string, metrics_json_with_cancelled};
pub use stream::{StreamId, StreamLane, StreamMetrics};
pub use trace::{chrome_trace, chrome_trace_string};

/// Which layer of the stack emitted an event. Doubles as the Chrome-trace
/// thread id, so each layer gets its own swim lane in Perfetto.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Layer {
    /// The mechanical disk model (`trail-disk`).
    Disk,
    /// The block I/O driver and scheduler (`trail-blockio`).
    BlockIo,
    /// The Trail log driver (`trail-core`).
    Core,
    /// The database engine and WAL (`trail-db`).
    Db,
}

impl Layer {
    /// Stable display name, used as the trace category.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Disk => "disk",
            Layer::BlockIo => "blockio",
            Layer::Core => "core",
            Layer::Db => "db",
        }
    }

    /// The Chrome-trace thread id for this layer's swim lane.
    pub fn tid(self) -> u32 {
        match self {
            Layer::Disk => 1,
            Layer::BlockIo => 2,
            Layer::Core => 3,
            Layer::Db => 4,
        }
    }
}

/// Per-request latency decomposition. All components are integer
/// nanoseconds, and `queue + overhead + seek + rotation + transfer`
/// equals `total` exactly: the mechanical model builds its service
/// breakdown additively and the block layer adds the queue wait as the
/// difference of two instants on the same clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RequestBreakdown {
    /// Time from submission to dispatch (waiting behind other requests).
    pub queue: SimDuration,
    /// Fixed controller/command-processing overhead.
    pub overhead: SimDuration,
    /// Arm movement (seek + head switch).
    pub seek: SimDuration,
    /// Rotational latency.
    pub rotation: SimDuration,
    /// Media transfer time.
    pub transfer: SimDuration,
    /// End-to-end latency (submission to completion).
    pub total: SimDuration,
}

impl RequestBreakdown {
    /// Sum of the five components (should equal [`total`](Self::total)).
    pub fn component_sum(&self) -> SimDuration {
        self.queue + self.overhead + self.seek + self.rotation + self.transfer
    }

    /// Signed difference `total - component_sum`, in nanoseconds.
    pub fn residual_nanos(&self) -> i64 {
        self.total.as_nanos() as i64 - self.component_sum().as_nanos() as i64
    }

    /// Whether the components sum exactly to the end-to-end latency.
    pub fn is_exact(&self) -> bool {
        self.residual_nanos() == 0
    }
}

/// What happened. Field-free kinds carry their cost in [`Event::dur`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    // ---- disk layer -----------------------------------------------------
    /// Arm movement between cylinders (duration in [`Event::dur`]).
    Seek {
        /// Cylinder the arm started from.
        from_cyl: u32,
        /// Cylinder the arm ended on.
        to_cyl: u32,
    },
    /// Rotational wait for the target sector (duration in [`Event::dur`]).
    RotWait,
    /// Media transfer (duration in [`Event::dur`]).
    Transfer {
        /// Number of sectors moved.
        sectors: u32,
    },
    /// The command just missed its sector and paid (nearly) a full
    /// revolution of rotational latency.
    FullRotationMiss,
    /// A multi-track transfer crossed track boundaries.
    TrackSwitch {
        /// Number of boundary crossings in the command.
        switches: u32,
    },

    // ---- block I/O layer ------------------------------------------------
    /// A request entered the driver queue.
    Enqueue {
        /// Queue depth after insertion (including this request).
        depth: u32,
    },
    /// The scheduler picked a request and sent it to the disk.
    Dispatch {
        /// Queue depth before removal (including this request).
        depth: u32,
    },
    /// A request completed; carries the full latency decomposition.
    Complete {
        /// Queue + service breakdown summing exactly to end-to-end.
        breakdown: RequestBreakdown,
    },

    // ---- Trail core layer -----------------------------------------------
    /// A log write landed with (at most a sector of) rotational slack:
    /// the head-position prediction was accurate.
    PredictHit,
    /// A log write paid real rotational latency (the wait is in
    /// [`Event::dur`]): the prediction missed.
    PredictMiss,
    /// The log head moved to a fresh track.
    Reposition {
        /// Global track index of the new log track.
        track: u64,
    },
    /// One physical log record was dispatched covering a batch of
    /// queued writes.
    BatchFlush {
        /// Number of user writes folded into the record.
        batch: u32,
    },
    /// A logged block was written back to its home data-disk location.
    WriteBack {
        /// Data device index.
        dev: u8,
        /// Home LBA on that device.
        lba: u64,
    },

    // ---- database layer -------------------------------------------------
    /// A WAL chunk was forced to the log device.
    WalForce {
        /// Bytes in the forced chunk.
        bytes: u64,
    },
    /// One WAL force made a group of transactions durable together.
    GroupCommit {
        /// Number of commits covered by the force.
        group: u32,
    },
    /// A transaction became durable.
    TxnCommit {
        /// Transaction id.
        txn: u64,
    },
}

impl EventKind {
    /// Stable name, used as the Chrome-trace event name and metric key.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Seek { .. } => "Seek",
            EventKind::RotWait => "RotWait",
            EventKind::Transfer { .. } => "Transfer",
            EventKind::FullRotationMiss => "FullRotationMiss",
            EventKind::TrackSwitch { .. } => "TrackSwitch",
            EventKind::Enqueue { .. } => "Enqueue",
            EventKind::Dispatch { .. } => "Dispatch",
            EventKind::Complete { .. } => "Complete",
            EventKind::PredictHit => "PredictHit",
            EventKind::PredictMiss => "PredictMiss",
            EventKind::Reposition { .. } => "Reposition",
            EventKind::BatchFlush { .. } => "BatchFlush",
            EventKind::WriteBack { .. } => "WriteBack",
            EventKind::WalForce { .. } => "WalForce",
            EventKind::GroupCommit { .. } => "GroupCommit",
            EventKind::TxnCommit { .. } => "TxnCommit",
        }
    }
}

/// One recorded occurrence: when, how long, where, and what.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// Virtual instant at which the span starts (or the instant occurs).
    pub at: SimTime,
    /// Span length; [`SimDuration::ZERO`] for instantaneous events.
    pub dur: SimDuration,
    /// Emitting layer.
    pub layer: Layer,
    /// Emitting component (disk or driver name).
    pub source: String,
    /// Correlating request id, when the layer tracks one.
    pub req: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// Sink for telemetry events.
///
/// Instrumented components hold an `Rc<dyn Recorder>` and must guard
/// event construction behind [`enabled`](Recorder::enabled) so that the
/// disabled path does no formatting or allocation.
pub trait Recorder {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool;
    /// Consumes one event. Only called when [`enabled`](Recorder::enabled)
    /// returns `true` (callers may rely on this for cheapness, not
    /// correctness).
    fn record(&self, event: Event);
}

/// Shared handle to a recorder, as stored by instrumented components.
pub type RecorderHandle = Rc<dyn Recorder>;

/// The default recorder: always disabled, drops everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _event: Event) {}
}

/// Returns a shared handle to the (stateless) null recorder.
pub fn null_recorder() -> RecorderHandle {
    Rc::new(NullRecorder)
}

/// Captures every event in memory, in emission order.
///
/// Emission order is deterministic for a deterministic simulation, so two
/// identically-seeded runs produce byte-identical [`fingerprint`]s.
///
/// [`fingerprint`]: MemoryRecorder::fingerprint
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: RefCell<Vec<Event>>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder already wrapped in an [`Rc`].
    pub fn shared() -> Rc<Self> {
        Rc::new(Self::new())
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether no events have been captured.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Clones the captured events out.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Moves the captured events out, leaving the recorder empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Number of captured events whose kind has the given
    /// [`name`](EventKind::name).
    pub fn count_kind(&self, name: &str) -> usize {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.kind.name() == name)
            .count()
    }

    /// A canonical one-line-per-event rendering of the stream. Two
    /// identically-seeded runs of a deterministic simulation produce
    /// byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for e in self.events.borrow().iter() {
            let _ = writeln!(
                out,
                "{} {} {} {} {:?} {:?}",
                e.at.as_nanos(),
                e.dur.as_nanos(),
                e.layer.as_str(),
                e.source,
                e.req,
                e.kind,
            );
        }
        out
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&self, event: Event) {
        self.events.borrow_mut().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_nanos(at_ns),
            dur: SimDuration::from_nanos(10),
            layer: Layer::Disk,
            source: "d".to_string(),
            req: Some(7),
            kind,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let r = null_recorder();
        assert!(!r.enabled());
        r.record(ev(0, EventKind::RotWait)); // must be a no-op, not a panic
    }

    #[test]
    fn memory_recorder_captures_in_order() {
        let r = MemoryRecorder::new();
        assert!(r.is_empty());
        r.record(ev(5, EventKind::RotWait));
        r.record(ev(9, EventKind::PredictHit));
        assert_eq!(r.len(), 2);
        assert_eq!(r.count_kind("RotWait"), 1);
        assert_eq!(r.count_kind("PredictHit"), 1);
        assert_eq!(r.count_kind("Seek"), 0);
        let evs = r.snapshot();
        assert_eq!(evs[0].at.as_nanos(), 5);
        assert_eq!(evs[1].at.as_nanos(), 9);
        assert_eq!(r.take().len(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn fingerprints_are_reproducible() {
        let mk = || {
            let r = MemoryRecorder::new();
            r.record(ev(
                5,
                EventKind::Seek {
                    from_cyl: 1,
                    to_cyl: 4,
                },
            ));
            r.record(ev(9, EventKind::TxnCommit { txn: 3 }));
            r.fingerprint()
        };
        let a = mk();
        assert_eq!(a, mk());
        assert_eq!(a.lines().count(), 2);
    }

    #[test]
    fn breakdown_exactness() {
        let b = RequestBreakdown {
            queue: SimDuration::from_nanos(10),
            overhead: SimDuration::from_nanos(20),
            seek: SimDuration::from_nanos(30),
            rotation: SimDuration::from_nanos(40),
            transfer: SimDuration::from_nanos(50),
            total: SimDuration::from_nanos(150),
        };
        assert_eq!(b.component_sum().as_nanos(), 150);
        assert!(b.is_exact());
        let off = RequestBreakdown {
            total: SimDuration::from_nanos(151),
            ..b
        };
        assert_eq!(off.residual_nanos(), 1);
        assert!(!off.is_exact());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::FullRotationMiss.name(), "FullRotationMiss");
        assert_eq!(EventKind::Enqueue { depth: 3 }.name(), "Enqueue");
        assert_eq!(EventKind::WalForce { bytes: 512 }.name(), "WalForce");
    }
}
