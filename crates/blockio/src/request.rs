//! Block-level request and completion types shared by all drivers.

use trail_disk::{CommandKind, Lba, PayloadBuf, ServiceBreakdown, SECTOR_SIZE};
use trail_sim::SimTime;
use trail_telemetry::StreamId;

/// Identifies a submitted request within one driver.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

/// The payload side of a block request.
#[derive(Debug)]
pub enum IoKind {
    /// Read `count` sectors.
    Read {
        /// Number of sectors to read (must be positive).
        count: u32,
    },
    /// Write a sector-aligned payload.
    Write {
        /// The data to write; length must be a positive multiple of
        /// [`SECTOR_SIZE`].
        data: PayloadBuf,
    },
}

impl IoKind {
    /// The number of sectors this request covers.
    pub fn sectors(&self) -> u32 {
        match self {
            IoKind::Read { count } => *count,
            IoKind::Write { data } => (data.len() / SECTOR_SIZE) as u32,
        }
    }

    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        matches!(self, IoKind::Read { .. })
    }
}

/// A block request: an address, a payload direction, and the stream it
/// belongs to.
///
/// # Examples
///
/// ```
/// use trail_blockio::{IoRequest, StreamId};
///
/// let r = IoRequest::read(9, 4);
/// assert_eq!(r.kind.sectors(), 4);
/// assert!(r.stream.is_untagged());
/// assert_eq!(r.tagged(StreamId(3)).stream, StreamId(3));
/// ```
#[derive(Debug)]
pub struct IoRequest {
    /// First sector addressed.
    pub lba: Lba,
    /// Direction and payload.
    pub kind: IoKind,
    /// The request stream this belongs to;
    /// [`StreamId::UNTAGGED`] when the submitter does not distinguish
    /// streams. Drivers carry the tag through to submission taps but
    /// never alter semantics or placement based on it.
    pub stream: StreamId,
}

impl IoRequest {
    /// An untagged read of `count` sectors at `lba`.
    #[must_use]
    pub fn read(lba: Lba, count: u32) -> IoRequest {
        IoRequest {
            lba,
            kind: IoKind::Read { count },
            stream: StreamId::UNTAGGED,
        }
    }

    /// An untagged write of `data` at `lba`. A `Vec<u8>` becomes the
    /// payload as is; a [`PayloadBuf`] handle shares its allocation with
    /// whoever else holds it.
    #[must_use]
    pub fn write(lba: Lba, data: impl Into<PayloadBuf>) -> IoRequest {
        IoRequest {
            lba,
            kind: IoKind::Write { data: data.into() },
            stream: StreamId::UNTAGGED,
        }
    }

    /// The same request tagged with `stream`.
    #[must_use]
    pub fn tagged(mut self, stream: StreamId) -> IoRequest {
        self.stream = stream;
        self
    }
}

/// Completion record delivered to the submitter's callback.
#[derive(Debug)]
pub struct IoDone {
    /// The identifier returned at submission.
    pub id: RequestId,
    /// First sector addressed.
    pub lba: Lba,
    /// Read or write.
    pub kind: CommandKind,
    /// Data read (reads only): a view of the medium, or of the bytes a
    /// layer above it assembled.
    pub data: Option<PayloadBuf>,
    /// Submission time.
    pub issued: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Mechanical breakdown of the final disk command that serviced this
    /// request.
    pub breakdown: ServiceBreakdown,
}

impl IoDone {
    /// End-to-end latency (queueing + service).
    pub fn latency(&self) -> trail_sim::SimDuration {
        self.completed.duration_since(self.issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sector_counts() {
        assert_eq!(IoKind::Read { count: 3 }.sectors(), 3);
        assert_eq!(
            IoKind::Write {
                data: vec![0; 2 * SECTOR_SIZE].into()
            }
            .sectors(),
            2
        );
        assert!(IoKind::Read { count: 1 }.is_read());
        assert!(!IoKind::Write {
            data: Vec::new().into()
        }
        .is_read());
    }

    #[test]
    fn latency_is_completed_minus_issued() {
        let done = IoDone {
            id: RequestId(1),
            lba: 0,
            kind: CommandKind::Read,
            data: None,
            issued: SimTime::from_nanos(10),
            completed: SimTime::from_nanos(25),
            breakdown: ServiceBreakdown::default(),
        };
        assert_eq!(done.latency().as_nanos(), 15);
    }
}
