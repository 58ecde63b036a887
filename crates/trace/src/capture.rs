//! Capturing a live workload from a running stack.
//!
//! [`TraceCapture`] implements [`SubmitTap`], the observation hook every
//! stack exposes through `set_tap` (on `BlockStack`, `TrailDriver`,
//! `MultiTrail`, `StandardDriver`, and the umbrella `BuiltStack`).
//! Install one before driving a scenario and every request submitted to
//! the stack — directly, from a file system, or from the database
//! engine — is recorded at its arrival instant. The result is the
//! *offered* workload, independent of how the stack serviced it, which
//! is exactly what open-loop replay needs.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use trail_blockio::{StreamId, SubmitTap, TapHandle};
use trail_disk::Lba;
use trail_sim::SimTime;

use crate::codec::TraceWriter;
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

/// A [`SubmitTap`] that streams every submission straight into a
/// chunked [`TraceWriter`] instead of accumulating a `Vec` — the
/// bounded-memory counterpart of [`TraceCapture`] for captures too big
/// to hold. Arrivals are rebased on the fly against a fixed `epoch`
/// chosen at construction (pass the simulator's current time to anchor
/// the capture at "now"), so no end-of-run rewrite pass is needed.
///
/// [`SubmitTap::on_submit`] cannot return errors, so the first write
/// failure is latched: later submissions are dropped and
/// [`StreamingCapture::finish`] returns the latched error instead of a
/// silently short trace. Because records are written as they arrive,
/// the stored trace is in submission order — sorted by arrival, but
/// same-instant submissions from different streams may not be in
/// `(arrival, stream)` order; normalize after decoding if a canonical
/// trace is required.
pub struct StreamingCapture<W: Write> {
    inner: RefCell<StreamingInner<W>>,
    epoch: SimTime,
}

struct StreamingInner<W: Write> {
    writer: Option<TraceWriter<W>>,
    error: Option<String>,
}

impl<W: Write + 'static> StreamingCapture<W> {
    /// Opens a streaming capture over `w`: writes the header for
    /// `meta` immediately and returns the tap, shareable as a
    /// [`TapHandle`]. `meta.devices` must already cover the devices the
    /// stack will submit to (a streamed header cannot be patched
    /// afterwards the way [`TraceCapture::take`] patches its metadata).
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the header.
    pub fn new(w: W, meta: &TraceMeta, epoch: SimTime) -> io::Result<Rc<StreamingCapture<W>>> {
        let writer = TraceWriter::new(w, meta)?;
        Ok(Rc::new(StreamingCapture {
            inner: RefCell::new(StreamingInner {
                writer: Some(writer),
                error: None,
            }),
            epoch,
        }))
    }

    /// This capture as the [`TapHandle`] the `set_tap` methods take.
    #[must_use]
    pub fn handle(self: &Rc<Self>) -> TapHandle {
        Rc::clone(self) as TapHandle
    }

    /// Requests written so far.
    #[must_use]
    pub fn records_written(&self) -> u64 {
        self.inner
            .borrow()
            .writer
            .as_ref()
            .map_or(0, TraceWriter::records_written)
    }

    /// Closes the capture: flushes the tail chunk and footer and
    /// returns the inner writer.
    ///
    /// # Errors
    ///
    /// The first latched submission-time write error, or any error from
    /// finishing the writer. Calling twice is an error.
    pub fn finish(&self) -> io::Result<W> {
        let mut inner = self.inner.borrow_mut();
        if let Some(error) = inner.error.take() {
            return Err(io::Error::other(error));
        }
        let writer = inner
            .writer
            .take()
            .ok_or_else(|| io::Error::other("streaming capture already finished"))?;
        writer.finish()
    }
}

impl<W: Write> SubmitTap for StreamingCapture<W> {
    fn on_submit(
        &self,
        at: SimTime,
        dev: u32,
        lba: Lba,
        sectors: u32,
        is_read: bool,
        stream: StreamId,
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.error.is_some() {
            return;
        }
        let Some(writer) = inner.writer.as_mut() else {
            inner.error = Some("submission after finish".to_string());
            return;
        };
        let record = TraceRecord {
            at: SimTime::ZERO + at.saturating_duration_since(self.epoch),
            op: if is_read {
                TraceOp::Read
            } else {
                TraceOp::Write
            },
            dev: dev.min(u32::from(u16::MAX)) as u16,
            lba,
            sectors,
            stream,
        };
        if let Err(e) = writer.write_record(&record) {
            inner.error = Some(e.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::from_binary;

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

    #[test]
    fn streaming_capture_writes_rebased_records_through_the_codec() {
        let meta = TraceMeta {
            source: "capture:test".to_string(),
            devices: 2,
            ..TraceMeta::default()
        };
        let cap =
            StreamingCapture::new(Vec::new(), &meta, SimTime::from_nanos(400)).expect("header");
        let tap = cap.handle();
        tap.on_submit(SimTime::from_nanos(500), 1, 64, 8, false, StreamId(3));
        tap.on_submit(SimTime::from_nanos(900), 0, 32, 8, true, StreamId::UNTAGGED);
        assert_eq!(cap.records_written(), 2);
        let bytes = cap.finish().expect("finish");
        let t = from_binary(&bytes).expect("decode");
        assert_eq!(t.meta, meta);
        assert_eq!(t.len(), 2);
        // Rebased against the fixed epoch at capture time.
        assert_eq!(t.records[0].at, SimTime::from_nanos(100));
        assert_eq!(t.records[1].at, SimTime::from_nanos(500));
        assert_eq!(t.records[0].stream, StreamId(3));
        // Finishing twice is an error, not a panic.
        assert!(cap.finish().is_err());
    }
}
