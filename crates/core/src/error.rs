//! The driver's error type.

use std::fmt;

use trail_disk::DiskError;
use trail_probe::ProbeError;
use trail_sim::IoError;

use crate::format::FormatError;

/// Errors returned by the Trail driver and its tools.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrailError {
    /// The log disk does not carry a Trail signature; run the formatter.
    NotFormatted,
    /// An on-disk structure failed to decode.
    Format(FormatError),
    /// The underlying device rejected a command as malformed.
    Disk(DiskError),
    /// The underlying device failed a command it accepted.
    Io(IoError),
    /// A request named a data disk that does not exist.
    BadDevice,
    /// A request addressed sectors beyond the target data disk.
    OutOfRange,
    /// A write payload was empty or not sector-aligned.
    BadDataLength,
}

impl fmt::Display for TrailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrailError::NotFormatted => {
                write!(f, "log disk is not formatted as a Trail log disk")
            }
            TrailError::Format(e) => write!(f, "on-disk format error: {e}"),
            TrailError::Disk(e) => write!(f, "disk error: {e}"),
            TrailError::Io(e) => write!(f, "I/O error: {e}"),
            TrailError::BadDevice => write!(f, "no such data disk"),
            TrailError::OutOfRange => write!(f, "request addresses sectors beyond the data disk"),
            TrailError::BadDataLength => {
                write!(
                    f,
                    "write payload must be a positive multiple of the sector size"
                )
            }
        }
    }
}

impl std::error::Error for TrailError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrailError::Format(e) => Some(e),
            TrailError::Disk(e) => Some(e),
            TrailError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<FormatError> for TrailError {
    fn from(e: FormatError) -> Self {
        TrailError::Format(e)
    }
}

#[doc(hidden)]
impl From<DiskError> for TrailError {
    fn from(e: DiskError) -> Self {
        TrailError::Disk(e)
    }
}

#[doc(hidden)]
impl From<IoError> for TrailError {
    fn from(e: IoError) -> Self {
        TrailError::Io(e)
    }
}

#[doc(hidden)]
impl From<ProbeError> for TrailError {
    fn from(e: ProbeError) -> Self {
        match e {
            ProbeError::Disk(e) => TrailError::Disk(e),
            ProbeError::Io(e) => TrailError::Io(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty_and_sources_chain() {
        use std::error::Error;
        let e = TrailError::Disk(DiskError::Busy);
        assert!(!e.to_string().is_empty());
        assert!(e.source().is_some());
        assert!(TrailError::NotFormatted.source().is_none());
        let f: TrailError = FormatError::BadSignature.into();
        assert_eq!(f, TrailError::Format(FormatError::BadSignature));
    }
}
