//! Capturing a live workload from a running stack.
//!
//! [`TraceCapture`] implements [`SubmitTap`], the observation hook every
//! stack front end exposes through `set_tap` (`BlockStack` — `MultiTrail`,
//! of one log or several, and `StandardStack` — and the umbrella
//! `BuiltStack`).
//! Install one before driving a scenario and every request the stack
//! accepts — directly, from a file system, or from the database engine —
//! is recorded once, at its arrival instant. The result is the
//! *offered* workload, independent of how the stack serviced it, which
//! is exactly what open-loop replay needs.

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::{StreamId, SubmitTap, TapHandle};
use trail_disk::Lba;
use trail_sim::SimTime;

use crate::format::{Trace, TraceMeta, TraceOp, TraceRecord};

/// A [`SubmitTap`] that accumulates every submission as a
/// [`TraceRecord`] with **absolute** simulator arrival times. Call
/// [`Trace::rebase`] (or [`Trace::rebase_to_first`]) on the taken trace
/// to anchor it at an epoch of your choosing.
#[derive(Debug, Default)]
pub struct TraceCapture {
    records: RefCell<Vec<TraceRecord>>,
}

impl TraceCapture {
    /// Creates an empty capture, shareable as a [`TapHandle`].
    #[must_use]
    pub fn new() -> Rc<TraceCapture> {
        Rc::new(TraceCapture::default())
    }

    /// This capture as the [`TapHandle`] the `set_tap` methods take.
    #[must_use]
    pub fn handle(self: &Rc<Self>) -> TapHandle {
        Rc::clone(self) as TapHandle
    }

    /// Number of requests captured so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// `true` when nothing has been captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.borrow().is_empty()
    }

    /// Drains the captured records into a [`Trace`] under `meta`
    /// (`meta.devices` is raised to cover every captured device index).
    /// Times are absolute; rebase before storing.
    #[must_use]
    pub fn take(&self, mut meta: TraceMeta) -> Trace {
        let records = std::mem::take(&mut *self.records.borrow_mut());
        if let Some(max_dev) = records.iter().map(|r| r.dev).max() {
            meta.devices = meta.devices.max(max_dev + 1);
        }
        Trace { meta, records }
    }
}

impl SubmitTap for TraceCapture {
    fn on_submit(
        &self,
        at: SimTime,
        dev: u32,
        lba: Lba,
        sectors: u32,
        is_read: bool,
        stream: StreamId,
    ) {
        self.records.borrow_mut().push(TraceRecord {
            at,
            op: if is_read {
                TraceOp::Read
            } else {
                TraceOp::Write
            },
            dev: dev.min(u32::from(u16::MAX)) as u16,
            lba,
            sectors,
            stream,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_records_in_submission_order() {
        let cap = TraceCapture::new();
        let tap = cap.handle();
        tap.on_submit(SimTime::from_nanos(500), 1, 64, 8, false, StreamId(3));
        tap.on_submit(SimTime::from_nanos(900), 0, 32, 8, true, StreamId::UNTAGGED);
        assert_eq!(cap.len(), 2);
        let t = cap.take(TraceMeta {
            source: "capture:test".to_string(),
            ..TraceMeta::default()
        });
        assert_eq!(t.meta.devices, 2);
        assert_eq!(t.records[0].op, TraceOp::Write);
        assert_eq!(t.records[1].op, TraceOp::Read);
        assert_eq!(t.records[1].at, SimTime::from_nanos(900));
        assert_eq!(t.records[0].stream, StreamId(3));
        assert!(t.records[1].stream.is_untagged());
        // Taking drains.
        assert!(cap.is_empty());
    }
}
