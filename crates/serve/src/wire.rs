//! The versioned, framed binary wire protocol.
//!
//! Every message is one frame: an 8-byte header — magic `"TS"`, version,
//! a tag byte, and a little-endian `u32` body length — followed by the
//! body. Requests and responses share the framing but use disjoint tag
//! namespaces (requests `0x01..`, responses `0x81..`), so a peer can
//! never confuse the two directions.
//!
//! | frame | tag | body (little-endian) |
//! |---|---|---|
//! | `Request::Open`    | `0x01` | `stream: u32` |
//! | `Request::Get`     | `0x02` | `dev: u16, lba: u64, sectors: u32` |
//! | `Request::Put`     | `0x03` | `dev: u16, lba: u64, data: [u8]` |
//! | `Request::Commit`  | `0x04` | — |
//! | `Request::Close`   | `0x05` | — |
//! | `Response::Opened` | `0x81` | `session: u64` |
//! | `Response::Data`   | `0x82` | `status: u8, payload: [u8]` |
//! | `Response::Done`   | `0x83` | `status: u8` |
//! | `Response::Closed` | `0x84` | `completed: u64, cancelled: u64` |
//!
//! Decoding is total: any byte string yields either a frame or a
//! structured [`WireError`] — never a panic and never an allocation
//! bigger than the declared body (itself capped at [`MAX_BODY`]). A
//! decoded frame re-encodes byte-identically, which the proptest suite
//! pins down.
//!
//! ```
//! use trail_serve::wire::{Request, Response, Status};
//!
//! let frame = Request::Get { dev: 1, lba: 42, sectors: 8 }.encode();
//! let (decoded, used) = Request::decode(&frame).unwrap();
//! assert_eq!(used, frame.len());
//! assert_eq!(decoded.encode(), frame);
//!
//! let reply = Response::Done { status: Status::Ok }.encode();
//! assert!(Response::decode(&reply).is_ok());
//! ```

use std::fmt;

use trail_sim::IoError;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"TS";

/// The protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Upper bound on a frame body; larger declared lengths are rejected
/// before any allocation happens.
pub const MAX_BODY: u32 = 1 << 20;

/// Length of the fixed frame header.
pub const HEADER_LEN: usize = 8;

/// Why a byte string is not a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 2],
    },
    /// The version byte names a protocol this build does not speak.
    BadVersion {
        /// What was found instead of [`VERSION`].
        found: u8,
    },
    /// The tag byte names no frame in this direction.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// The declared body length does not fit the tagged frame's layout.
    BadLength {
        /// The frame tag.
        tag: u8,
        /// The declared body length.
        len: u32,
    },
    /// The declared body length exceeds [`MAX_BODY`].
    Oversize {
        /// The declared body length.
        len: u32,
    },
    /// A status byte outside the [`Status`] codes.
    BadStatus {
        /// The offending code.
        code: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "frame truncated: needs {needed} bytes, have {have}")
            }
            WireError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            WireError::BadVersion { found } => write!(f, "unsupported protocol version {found}"),
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::BadLength { tag, len } => {
                write!(f, "body length {len} does not fit frame tag {tag:#04x}")
            }
            WireError::Oversize { len } => write!(f, "declared body length {len} exceeds cap"),
            WireError::BadStatus { code } => write!(f, "unknown status code {code}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The outcome a response carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Served.
    Ok,
    /// Refused at admission (queue full).
    Rejected,
    /// Admitted but dropped at dispatch (waited past its deadline).
    Shed,
    /// The request's session was torn down while it was in flight.
    Cancelled,
    /// The frame was malformed or not valid in this state.
    BadRequest,
    /// No open session on this connection.
    NotOpen,
    /// The storage below failed the request transiently; a retry may
    /// succeed.
    Transient,
    /// A device below has failed.
    MediaFailed,
    /// A device below lost power.
    PoweredOff,
}

impl Status {
    /// The on-wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Rejected => 1,
            Status::Shed => 2,
            Status::Cancelled => 3,
            Status::BadRequest => 4,
            Status::NotOpen => 5,
            Status::Transient => 6,
            Status::MediaFailed => 7,
            Status::PoweredOff => 8,
        }
    }

    /// Decodes an on-wire code.
    ///
    /// # Errors
    ///
    /// [`WireError::BadStatus`] for unknown codes.
    pub fn from_code(code: u8) -> Result<Status, WireError> {
        Ok(match code {
            0 => Status::Ok,
            1 => Status::Rejected,
            2 => Status::Shed,
            3 => Status::Cancelled,
            4 => Status::BadRequest,
            5 => Status::NotOpen,
            6 => Status::Transient,
            7 => Status::MediaFailed,
            8 => Status::PoweredOff,
            _ => return Err(WireError::BadStatus { code }),
        })
    }

    /// `true` for [`Status::Ok`].
    #[must_use]
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }
}

impl From<IoError> for Status {
    /// The status that names an I/O error on the wire.
    fn from(e: IoError) -> Self {
        match e {
            IoError::Cancelled => Status::Cancelled,
            IoError::Transient => Status::Transient,
            IoError::MediaFailed => Status::MediaFailed,
            IoError::PoweredOff => Status::PoweredOff,
        }
    }
}

/// A client-to-server frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Open a session keyed by `stream` (terminal-as-stream).
    Open {
        /// The session's stream identity.
        stream: u32,
    },
    /// Read `sectors` sectors at `lba` on device `dev`.
    Get {
        /// Target device.
        dev: u16,
        /// Starting logical block address.
        lba: u64,
        /// Sectors to read.
        sectors: u32,
    },
    /// Durably write `data` at `lba` on device `dev`.
    Put {
        /// Target device.
        dev: u16,
        /// Starting logical block address.
        lba: u64,
        /// The payload, in whole sectors.
        data: Vec<u8>,
    },
    /// Barrier: answered when every earlier `Put` on this session is
    /// durable.
    Commit,
    /// Graceful teardown; queued requests are cancelled.
    Close,
}

/// A server-to-client frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The session is open.
    Opened {
        /// Server-assigned session number.
        session: u64,
    },
    /// A `Get` answer; `payload` is empty unless `status` is `Ok`.
    Data {
        /// The outcome.
        status: Status,
        /// The sectors read.
        payload: Vec<u8>,
    },
    /// A `Put` or `Commit` acknowledgement.
    Done {
        /// The outcome.
        status: Status,
    },
    /// A `Close` acknowledgement with the session's lifetime counts.
    Closed {
        /// Requests this session saw served.
        completed: u64,
        /// Requests cancelled by the teardown.
        cancelled: u64,
    },
}

fn push_header(out: &mut Vec<u8>, tag: u8, body_len: usize) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
}

/// Validates the fixed header and returns `(tag, body)` for one frame.
fn split_frame(buf: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    let found = [buf[0], buf[1]];
    if found != MAGIC {
        return Err(WireError::BadMagic { found });
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion { found: buf[2] });
    }
    let tag = buf[3];
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_BODY {
        return Err(WireError::Oversize { len });
    }
    let end = HEADER_LEN + len as usize;
    if buf.len() < end {
        return Err(WireError::Truncated {
            needed: end,
            have: buf.len(),
        });
    }
    Ok((tag, &buf[HEADER_LEN..end]))
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

impl Request {
    const TAG_OPEN: u8 = 0x01;
    const TAG_GET: u8 = 0x02;
    const TAG_PUT: u8 = 0x03;
    const TAG_COMMIT: u8 = 0x04;
    const TAG_CLOSE: u8 = 0x05;

    /// Encodes the request as one frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 14);
        match self {
            Request::Open { stream } => {
                push_header(&mut out, Self::TAG_OPEN, 4);
                out.extend_from_slice(&stream.to_le_bytes());
            }
            Request::Get { dev, lba, sectors } => {
                push_header(&mut out, Self::TAG_GET, 14);
                out.extend_from_slice(&dev.to_le_bytes());
                out.extend_from_slice(&lba.to_le_bytes());
                out.extend_from_slice(&sectors.to_le_bytes());
            }
            Request::Put { dev, lba, data } => {
                push_header(&mut out, Self::TAG_PUT, 10 + data.len());
                out.extend_from_slice(&dev.to_le_bytes());
                out.extend_from_slice(&lba.to_le_bytes());
                out.extend_from_slice(data);
            }
            Request::Commit => push_header(&mut out, Self::TAG_COMMIT, 0),
            Request::Close => push_header(&mut out, Self::TAG_CLOSE, 0),
        }
        out
    }

    /// Decodes one frame from the front of `buf`, returning the request
    /// and the bytes consumed.
    ///
    /// # Errors
    ///
    /// A structured [`WireError`]; never panics on any input.
    pub fn decode(buf: &[u8]) -> Result<(Request, usize), WireError> {
        let (tag, body) = split_frame(buf)?;
        let bad = || WireError::BadLength {
            tag,
            len: body.len() as u32,
        };
        let req = match tag {
            Self::TAG_OPEN => {
                if body.len() != 4 {
                    return Err(bad());
                }
                Request::Open {
                    stream: le_u32(body),
                }
            }
            Self::TAG_GET => {
                if body.len() != 14 {
                    return Err(bad());
                }
                Request::Get {
                    dev: le_u16(body),
                    lba: le_u64(&body[2..]),
                    sectors: le_u32(&body[10..]),
                }
            }
            Self::TAG_PUT => {
                if body.len() < 10 {
                    return Err(bad());
                }
                Request::Put {
                    dev: le_u16(body),
                    lba: le_u64(&body[2..]),
                    data: body[10..].to_vec(),
                }
            }
            Self::TAG_COMMIT => {
                if !body.is_empty() {
                    return Err(bad());
                }
                Request::Commit
            }
            Self::TAG_CLOSE => {
                if !body.is_empty() {
                    return Err(bad());
                }
                Request::Close
            }
            tag => return Err(WireError::UnknownTag { tag }),
        };
        Ok((req, HEADER_LEN + body.len()))
    }
}

impl Response {
    const TAG_OPENED: u8 = 0x81;
    const TAG_DATA: u8 = 0x82;
    const TAG_DONE: u8 = 0x83;
    const TAG_CLOSED: u8 = 0x84;

    /// Encodes the response as one frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 16);
        match self {
            Response::Opened { session } => {
                push_header(&mut out, Self::TAG_OPENED, 8);
                out.extend_from_slice(&session.to_le_bytes());
            }
            Response::Data { status, payload } => {
                push_header(&mut out, Self::TAG_DATA, 1 + payload.len());
                out.push(status.code());
                out.extend_from_slice(payload);
            }
            Response::Done { status } => {
                push_header(&mut out, Self::TAG_DONE, 1);
                out.push(status.code());
            }
            Response::Closed {
                completed,
                cancelled,
            } => {
                push_header(&mut out, Self::TAG_CLOSED, 16);
                out.extend_from_slice(&completed.to_le_bytes());
                out.extend_from_slice(&cancelled.to_le_bytes());
            }
        }
        out
    }

    /// Decodes one frame from the front of `buf`, returning the response
    /// and the bytes consumed.
    ///
    /// # Errors
    ///
    /// A structured [`WireError`]; never panics on any input.
    pub fn decode(buf: &[u8]) -> Result<(Response, usize), WireError> {
        let (tag, body) = split_frame(buf)?;
        let bad = || WireError::BadLength {
            tag,
            len: body.len() as u32,
        };
        let resp = match tag {
            Self::TAG_OPENED => {
                if body.len() != 8 {
                    return Err(bad());
                }
                Response::Opened {
                    session: le_u64(body),
                }
            }
            Self::TAG_DATA => {
                if body.is_empty() {
                    return Err(bad());
                }
                Response::Data {
                    status: Status::from_code(body[0])?,
                    payload: body[1..].to_vec(),
                }
            }
            Self::TAG_DONE => {
                if body.len() != 1 {
                    return Err(bad());
                }
                Response::Done {
                    status: Status::from_code(body[0])?,
                }
            }
            Self::TAG_CLOSED => {
                if body.len() != 16 {
                    return Err(bad());
                }
                Response::Closed {
                    completed: le_u64(body),
                    cancelled: le_u64(&body[8..]),
                }
            }
            tag => return Err(WireError::UnknownTag { tag }),
        };
        Ok((resp, HEADER_LEN + body.len()))
    }

    /// The response's status, if it carries one (`Opened`/`Closed` are
    /// implicitly `Ok`).
    #[must_use]
    pub fn status(&self) -> Status {
        match self {
            Response::Opened { .. } | Response::Closed { .. } => Status::Ok,
            Response::Data { status, .. } | Response::Done { status } => *status,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_byte_identically() {
        let frames = [
            Request::Open { stream: 7 },
            Request::Get {
                dev: 2,
                lba: 0xDEAD_BEEF,
                sectors: 8,
            },
            Request::Put {
                dev: 0,
                lba: 1,
                data: vec![0x5A; 512],
            },
            Request::Commit,
            Request::Close,
        ];
        for f in frames {
            let bytes = f.encode();
            let (back, used) = Request::decode(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn responses_round_trip_byte_identically() {
        let frames = [
            Response::Opened { session: 99 },
            Response::Data {
                status: Status::Ok,
                payload: vec![1, 2, 3],
            },
            Response::Done {
                status: Status::Shed,
            },
            Response::Closed {
                completed: 10,
                cancelled: 2,
            },
        ];
        for f in frames {
            let bytes = f.encode();
            let (back, used) = Response::decode(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn truncation_and_corruption_are_structured_errors() {
        let bytes = Request::Get {
            dev: 1,
            lba: 2,
            sectors: 3,
        }
        .encode();
        assert!(matches!(
            Request::decode(&bytes[..5]),
            Err(WireError::Truncated { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Request::decode(&bad),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad = bytes.clone();
        bad[2] = 9;
        assert_eq!(
            Request::decode(&bad),
            Err(WireError::BadVersion { found: 9 })
        );
        let mut bad = bytes.clone();
        bad[3] = 0x77;
        assert_eq!(
            Request::decode(&bad),
            Err(WireError::UnknownTag { tag: 0x77 })
        );
        // A response tag is not a request.
        let opened = Response::Opened { session: 1 }.encode();
        assert!(matches!(
            Request::decode(&opened),
            Err(WireError::UnknownTag { .. })
        ));
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut bytes = Request::Commit.encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes),
            Err(WireError::Oversize { len: u32::MAX })
        );
    }

    #[test]
    fn status_codes_are_total() {
        for s in [
            Status::Ok,
            Status::Rejected,
            Status::Shed,
            Status::Cancelled,
            Status::BadRequest,
            Status::NotOpen,
            Status::Transient,
            Status::MediaFailed,
            Status::PoweredOff,
        ] {
            assert_eq!(Status::from_code(s.code()), Ok(s));
        }
        assert_eq!(Status::from(IoError::Cancelled).code(), 3);
        assert_eq!(
            [
                IoError::Transient,
                IoError::MediaFailed,
                IoError::PoweredOff
            ]
            .map(|e| Status::from(e).code()),
            [6, 7, 8]
        );
        assert_eq!(
            Status::from_code(200),
            Err(WireError::BadStatus { code: 200 })
        );
    }
}
