//! The block-device abstraction layered drivers program against.
//!
//! [`BlockDevice`] is the object-safe face of "something that services
//! [`IoRequest`]s": a queueing driver over one disk
//! ([`crate::StandardDriver`]), or a whole RAID volume composing several
//! (`trail-volume`). Layers above — Trail's write-back path, the storage
//! stacks — accept `Rc<dyn BlockDevice>`, so a data "disk" can be swapped
//! for an array without the layer knowing.

use std::rc::Rc;

use trail_disk::DiskError;
use trail_sim::{Completion, Simulator};
use trail_telemetry::RecorderHandle;

use crate::request::{IoDone, IoRequest, RequestId};

/// An addressable, asynchronous block target.
///
/// Implementations are cheaply cloneable handles (interior mutability),
/// which is why every method takes `&self`.
pub trait BlockDevice: std::fmt::Debug {
    /// Submits a request; `done` is delivered when it is durable (writes)
    /// or the data is available (reads), or with the
    /// [`IoError`](trail_sim::IoError) that kept it from being either — a
    /// device failure travels up through `done`, never through this
    /// method's result.
    ///
    /// # Errors
    ///
    /// A request the caller got wrong ([`DiskError::OutOfRange`],
    /// [`DiskError::BadDataLength`]) returns without queueing anything;
    /// `done` is then delivered `Err(IoError::Cancelled)` on the next step.
    fn submit(
        &self,
        sim: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError>;

    /// Addressable capacity in sectors.
    fn capacity_sectors(&self) -> u64;

    /// Requests accepted but not yet completed (queued + in service).
    fn pending(&self) -> usize;

    /// Attaches a telemetry recorder to this device and everything under
    /// it.
    fn set_recorder(&self, recorder: RecorderHandle);
}

/// A shared handle to any block target.
pub type SharedBlockDevice = Rc<dyn BlockDevice>;

impl BlockDevice for crate::StandardDriver {
    fn submit(
        &self,
        sim: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError> {
        // Resolves to the inherent method, not this trait impl.
        crate::StandardDriver::submit(self, sim, req, done)
    }

    fn capacity_sectors(&self) -> u64 {
        self.disk().geometry().total_sectors()
    }

    fn pending(&self) -> usize {
        self.queue_depth() + usize::from(self.is_busy())
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        crate::StandardDriver::set_recorder(self, recorder);
    }
}
