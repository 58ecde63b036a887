//! The self-describing on-disk log organization (paper §3.2).
//!
//! Trail's log disk holds two sector formats, both recognizable from raw
//! bytes alone — recovery never consults in-memory state:
//!
//! - the **log disk header** (`log_disk_header`): written by the formatter
//!   at well-known locations, carrying the signature, the epoch counter,
//!   the crash flag, and the drive's probed geometry/calibration;
//! - **write records** (`record_header` + payload): one header sector whose
//!   first byte is `0xFF`, followed by `batch_size` payload sectors whose
//!   first bytes are forced to `0x00` (the displaced bytes ride in the
//!   header's `first_data_byte[]` array). This first-byte transposition is
//!   the paper's trick for distinguishing headers from arbitrary user data
//!   without bit stuffing. The header also carries a 32-bit checksum of
//!   the payload as it lies on disk ([`payload_checksum`], an extension
//!   over the paper), which is how recovery tells a torn record from a
//!   whole one.
//!
//! Records are assembled by [`build_record`] and nowhere else, and checked
//! by `recover` with the same [`payload_checksum`]. A record is built from
//! the writes' payloads as they are kept: a payload interned in the log
//! disk's image pool is logged as an alias of each of its sectors there,
//! so the on-disk bytes are the transposed payload without a copy of it.
//!
//! A record is *valid* only under the current epoch; formatting or driver
//! restart bumps the epoch, which retires every older record without
//! touching the medium.

use std::fmt;

use trail_disk::{DiskGeometry, PayloadBuf, PayloadChain, SectorBuf, Zone, SECTOR_SIZE};
use trail_probe::TrackLeads;
use trail_sim::SimDuration;

/// Length of the on-disk signature fields (the paper's `MAX_SIG_LEN`).
pub const MAX_SIG_LEN: usize = 8;

/// Signature identifying a formatted Trail log disk.
pub const DISK_SIGNATURE: [u8; MAX_SIG_LEN] = *b"TRAILFMT";

/// Signature identifying a write-record header sector.
pub const RECORD_SIGNATURE: [u8; MAX_SIG_LEN] = *b"TRAILREC";

/// Maximum payload sectors per write record (the paper's
/// `MAX_TRAIL_BATCH`). Sized so a record header fits one sector.
pub const MAX_TRAIL_BATCH: usize = 32;

/// First byte of every record-header sector (`first_byte_of_header`).
pub const HEADER_FIRST_BYTE: u8 = 0xFF;

/// First byte forced onto every payload sector.
pub const PAYLOAD_FIRST_BYTE: u8 = 0x00;

/// `prev_sect` encoding for "no previous record".
pub const NO_PREV_SECT: u32 = u32::MAX;

const HEADER_FIXED_LEN: usize = 49;
const ENTRY_LEN: usize = 11;
/// Where the log-disk header's zone table starts: after the four leads at
/// bytes 41..73.
const DISK_HEADER_FIXED_LEN: usize = 73;

/// The payload checksum of a write record: four independent 64-bit
/// multiply-rotate lanes over the payload's little-endian words, folded to
/// the 32 bits the header has room for.
///
/// This field is an extension over the paper's format: the record header
/// is the *first* sector of the physical record write, so a power failure
/// mid-record can persist a valid header with torn payload. The checksum
/// lets recovery detect and drop such a torn youngest record (only the
/// in-flight record can be torn — the log disk serializes record writes).
///
/// Every step is a bijection of its lane for a fixed word and of the word
/// for a fixed lane (xor, multiply by an odd constant, rotate), and so is
/// each lane's entry into the fold. Two payloads of equal length that
/// differ in exactly one word therefore always differ in the 64-bit fold,
/// and a torn record — some suffix of sectors still holding stale bytes —
/// slips through only when the final 64 → 32 truncation collides (2⁻³²),
/// the same strength the byte-serial hash it replaced had. The four lanes
/// carry no dependency on one another, which is the whole point: the
/// multiplies of one 32-byte block overlap instead of queueing behind a
/// one-byte-at-a-time chain. The length is folded in, so dropping or
/// appending sectors changes the value as well.
///
/// Word `i` of each 32-byte block feeds lane `i`; a tail shorter than a
/// block is zero-padded (record payloads are whole sectors and never have
/// one). The database WAL checks its chunks' payloads with it too.
pub fn payload_checksum(data: &[u8]) -> u32 {
    let mut lanes = Lanes::new();
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        lanes.mix(block);
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut block = [0u8; 32];
        block[..tail.len()].copy_from_slice(tail);
        lanes.mix(&block);
    }
    lanes.fold(data.len())
}

/// [`payload_checksum`] of a payload kept as a [`PayloadBuf`], streamed
/// over its sectors wherever they are kept: recovery checks a record on
/// the view of the log it read, with no copy of its bytes.
pub fn payload_checksum_of(payload: &PayloadBuf) -> u32 {
    let mut lanes = Lanes::new();
    payload.for_each_sector(|sector| sector.chunks_exact(32).for_each(|block| lanes.mix(block)));
    lanes.fold(payload.len())
}

/// The four lanes of [`payload_checksum`], fed one 32-byte block at a
/// time, so a record's checksum streams over its payload wherever the
/// sectors are kept.
struct Lanes([u64; 4]);

impl Lanes {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new() -> Self {
        let k = Self::K;
        Lanes([k, k.rotate_left(16), k.rotate_left(32), k.rotate_left(48)])
    }

    fn mix(&mut self, block: &[u8]) {
        for (lane, word) in self.0.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunk is exactly 8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(Self::K).rotate_left(29);
        }
    }

    /// Feeds `sector` as the log disk holds it: byte 0 replaced by the
    /// [`PAYLOAD_FIRST_BYTE`] marker.
    fn mix_logged(&mut self, sector: &SectorBuf) {
        let (first, rest) = sector
            .split_first_chunk::<32>()
            .expect("a sector is blocks");
        let mut first = *first;
        first[0] = PAYLOAD_FIRST_BYTE;
        self.mix(&first);
        rest.chunks_exact(32).for_each(|block| self.mix(block));
    }

    /// The checksum of the `len` bytes fed.
    fn fold(&self, len: usize) -> u32 {
        let h = self.0.iter().fold(len as u64, |h, lane| {
            let h = (h ^ lane).wrapping_mul(Self::K);
            h ^ (h >> 32)
        });
        h as u32
    }
}

/// Errors decoding on-disk structures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FormatError {
    /// The sector does not carry the expected signature.
    BadSignature,
    /// A length or count field is inconsistent.
    Corrupt,
    /// The geometry table does not fit the header sector.
    TooManyZones,
    /// A record would exceed [`MAX_TRAIL_BATCH`] payload sectors.
    BatchTooLarge,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadSignature => write!(f, "sector does not carry a Trail signature"),
            FormatError::Corrupt => write!(f, "on-disk structure is internally inconsistent"),
            FormatError::TooManyZones => write!(f, "zone table does not fit the header sector"),
            FormatError::BatchTooLarge => {
                write!(f, "record exceeds {MAX_TRAIL_BATCH} payload sectors")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// The global log-disk header (the paper's `log_disk_header`), extended
/// with the probed geometry and calibration the prediction formula needs.
#[derive(Clone, Debug, PartialEq)]
pub struct LogDiskHeader {
    /// Incremented each time the Trail driver initializes; write records
    /// from older epochs are dead.
    pub epoch: u64,
    /// The paper's `crash_var`: `true` after a clean shutdown; `false`
    /// while mounted (so a reboot seeing `false` triggers recovery).
    pub clean: bool,
    /// Probed spindle rotation period.
    pub rotation_period: SimDuration,
    /// Calibrated leads the driver aims ahead of the head by: on the
    /// reference's own track (the paper's δ, as a duration) and across a
    /// head switch or a cylinder crossing.
    pub leads: TrackLeads,
    /// The drive's physical geometry ("stored right next to the global
    /// disk header").
    pub geometry: DiskGeometry,
}

impl LogDiskHeader {
    /// Serializes the header into one sector.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::TooManyZones`] if the zone table overflows
    /// the sector.
    pub fn encode(&self) -> Result<SectorBuf, FormatError> {
        let zones = self.geometry.zones();
        if DISK_HEADER_FIXED_LEN + zones.len() * 8 > SECTOR_SIZE {
            return Err(FormatError::TooManyZones);
        }
        let mut b = [0u8; SECTOR_SIZE];
        b[0..8].copy_from_slice(&DISK_SIGNATURE);
        b[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        b[16] = u8::from(self.clean);
        b[17..25].copy_from_slice(&self.rotation_period.as_nanos().to_le_bytes());
        b[25..29].copy_from_slice(&self.geometry.heads().to_le_bytes());
        b[29..33].copy_from_slice(&self.geometry.track_skew().to_le_bytes());
        b[33..37].copy_from_slice(&self.geometry.cyl_skew().to_le_bytes());
        b[37..41].copy_from_slice(&(zones.len() as u32).to_le_bytes());
        let l = &self.leads;
        for (i, lead) in [l.after_read, l.after_write, l.switch, l.crossing]
            .into_iter()
            .enumerate()
        {
            b[41 + 8 * i..49 + 8 * i].copy_from_slice(&lead.as_nanos().to_le_bytes());
        }
        let mut off = DISK_HEADER_FIXED_LEN;
        for z in zones {
            b[off..off + 4].copy_from_slice(&z.cylinders.to_le_bytes());
            b[off + 4..off + 8].copy_from_slice(&z.spt.to_le_bytes());
            off += 8;
        }
        Ok(b)
    }

    /// Parses a header sector.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BadSignature`] if the sector is not a Trail
    /// disk header, or [`FormatError::Corrupt`] if its fields are
    /// inconsistent — a lead of zero or of more than a revolution
    /// included.
    pub fn decode(b: &SectorBuf) -> Result<Self, FormatError> {
        if b[0..8] != DISK_SIGNATURE {
            return Err(FormatError::BadSignature);
        }
        let epoch = u64::from_le_bytes(b[8..16].try_into().expect("slice len"));
        let clean = match b[16] {
            0 => false,
            1 => true,
            _ => return Err(FormatError::Corrupt),
        };
        let rotation =
            SimDuration::from_nanos(u64::from_le_bytes(b[17..25].try_into().expect("slice len")));
        let heads = u32::from_le_bytes(b[25..29].try_into().expect("slice len"));
        let track_skew = u32::from_le_bytes(b[29..33].try_into().expect("slice len"));
        let cyl_skew = u32::from_le_bytes(b[33..37].try_into().expect("slice len"));
        let n_zones = u32::from_le_bytes(b[37..41].try_into().expect("slice len")) as usize;
        let [after_read, after_write, switch, crossing] = std::array::from_fn(|i| {
            SimDuration::from_nanos(u64::from_le_bytes(
                b[41 + 8 * i..49 + 8 * i].try_into().expect("slice len"),
            ))
        });
        if heads == 0 || n_zones == 0 || DISK_HEADER_FIXED_LEN + n_zones * 8 > SECTOR_SIZE {
            return Err(FormatError::Corrupt);
        }
        if [after_read, after_write, switch, crossing]
            .iter()
            .any(|lead| lead.is_zero() || *lead > rotation)
        {
            return Err(FormatError::Corrupt);
        }
        let mut zones = Vec::with_capacity(n_zones);
        let mut off = DISK_HEADER_FIXED_LEN;
        for _ in 0..n_zones {
            let cylinders = u32::from_le_bytes(b[off..off + 4].try_into().expect("slice len"));
            let spt = u32::from_le_bytes(b[off + 4..off + 8].try_into().expect("slice len"));
            if cylinders == 0 || spt == 0 {
                return Err(FormatError::Corrupt);
            }
            zones.push(Zone { cylinders, spt });
            off += 8;
        }
        Ok(LogDiskHeader {
            epoch,
            clean,
            rotation_period: rotation,
            leads: TrackLeads {
                after_read,
                after_write,
                switch,
                crossing,
            },
            geometry: DiskGeometry::new(heads, zones, track_skew, cyl_skew),
        })
    }
}

/// One per-sector entry of a write record's arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecordEntry {
    /// The payload sector's original first byte (displaced by the
    /// [`PAYLOAD_FIRST_BYTE`] marker).
    pub first_data_byte: u8,
    /// Target data-disk major number (the data-disk index in this
    /// reproduction).
    pub data_major: u8,
    /// Target data-disk minor number.
    pub data_minor: u8,
    /// Target sector on the data disk.
    pub data_lba: u32,
    /// Where this payload sector lives on the log disk.
    pub log_lba: u32,
}

/// A parsed write-record header (the paper's `record_header` /
/// `sect_head_t`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecordHeader {
    /// Epoch under which the record was written.
    pub epoch: u64,
    /// Monotone per-epoch record counter.
    pub sequence_id: u64,
    /// Log-disk LBA of the previous record's header, or `None` for the
    /// first record of an epoch.
    pub prev_sect: Option<u32>,
    /// Log-disk LBA of the oldest record not yet committed to the data
    /// disks when this record was written (bounds recovery back-scanning).
    pub log_head_lba: u32,
    /// Sequence id of that oldest record.
    pub log_head_seq: u64,
    /// Checksum of the on-disk payload bytes (after first-byte
    /// transposition); see [`payload_checksum`].
    pub payload_checksum: u32,
    /// Per-payload-sector bookkeeping.
    pub entries: Vec<RecordEntry>,
}

impl RecordHeader {
    /// Serializes the header into one sector (first byte `0xFF`).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::BatchTooLarge`] if there are more than
    /// [`MAX_TRAIL_BATCH`] entries, or [`FormatError::Corrupt`] if there
    /// are none.
    pub fn encode(&self) -> Result<SectorBuf, FormatError> {
        if self.entries.len() > MAX_TRAIL_BATCH {
            return Err(FormatError::BatchTooLarge);
        }
        if self.entries.is_empty() {
            return Err(FormatError::Corrupt);
        }
        let mut b = [0u8; SECTOR_SIZE];
        b[0] = HEADER_FIRST_BYTE;
        b[1..9].copy_from_slice(&RECORD_SIGNATURE);
        b[9..17].copy_from_slice(&self.epoch.to_le_bytes());
        b[17..25].copy_from_slice(&self.sequence_id.to_le_bytes());
        b[25..29].copy_from_slice(&self.prev_sect.unwrap_or(NO_PREV_SECT).to_le_bytes());
        b[29..33].copy_from_slice(&self.log_head_lba.to_le_bytes());
        b[33..41].copy_from_slice(&self.log_head_seq.to_le_bytes());
        b[41..45].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        b[45..49].copy_from_slice(&self.payload_checksum.to_le_bytes());
        let mut off = HEADER_FIXED_LEN;
        for e in &self.entries {
            b[off] = e.first_data_byte;
            b[off + 1] = e.data_major;
            b[off + 2] = e.data_minor;
            b[off + 3..off + 7].copy_from_slice(&e.data_lba.to_le_bytes());
            b[off + 7..off + 11].copy_from_slice(&e.log_lba.to_le_bytes());
            off += ENTRY_LEN;
        }
        Ok(b)
    }

    /// Parses a sector as a record header.
    ///
    /// Returns `None` if the sector is not a record header (wrong first
    /// byte or signature) — the normal case while scanning — and an error
    /// if it carries the signature but is internally inconsistent.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Corrupt`] for a signed but malformed header.
    pub fn decode(b: &SectorBuf) -> Result<Option<Self>, FormatError> {
        if b[0] != HEADER_FIRST_BYTE || b[1..9] != RECORD_SIGNATURE {
            return Ok(None);
        }
        let epoch = u64::from_le_bytes(b[9..17].try_into().expect("slice len"));
        let sequence_id = u64::from_le_bytes(b[17..25].try_into().expect("slice len"));
        let prev_raw = u32::from_le_bytes(b[25..29].try_into().expect("slice len"));
        let log_head_lba = u32::from_le_bytes(b[29..33].try_into().expect("slice len"));
        let log_head_seq = u64::from_le_bytes(b[33..41].try_into().expect("slice len"));
        let batch = u32::from_le_bytes(b[41..45].try_into().expect("slice len")) as usize;
        let payload_checksum = u32::from_le_bytes(b[45..49].try_into().expect("slice len"));
        if batch == 0 || batch > MAX_TRAIL_BATCH {
            return Err(FormatError::Corrupt);
        }
        let mut entries = Vec::with_capacity(batch);
        let mut off = HEADER_FIXED_LEN;
        for _ in 0..batch {
            entries.push(RecordEntry {
                first_data_byte: b[off],
                data_major: b[off + 1],
                data_minor: b[off + 2],
                data_lba: u32::from_le_bytes(b[off + 3..off + 7].try_into().expect("slice len")),
                log_lba: u32::from_le_bytes(b[off + 7..off + 11].try_into().expect("slice len")),
            });
            off += ENTRY_LEN;
        }
        Ok(Some(RecordHeader {
            epoch,
            sequence_id,
            prev_sect: (prev_raw != NO_PREV_SECT).then_some(prev_raw),
            log_head_lba,
            log_head_seq,
            payload_checksum,
            entries,
        }))
    }
}

/// One queued write's share of a record: whole sectors of `data` headed
/// for `data_lba..` on one data disk.
#[derive(Clone, Copy, Debug)]
pub struct RecordWrite<'a> {
    /// Target data-disk major number.
    pub data_major: u8,
    /// Target data-disk minor number.
    pub data_minor: u8,
    /// Target sector of the first payload sector on the data disk.
    pub data_lba: u32,
    /// The sector contents, before transposition.
    pub data: &'a PayloadBuf,
}

/// Builds a complete write record as the log disk's write command takes
/// it: the header sector, then the transposed payload sectors of `writes`
/// in order, laid out contiguously from `header_lba` on the log disk.
///
/// Each payload is read once, for its first bytes and the checksum, and
/// transposed by [`PayloadBuf::with_first_byte`]: an interned payload's
/// log copy is each sector's alias in its pool, so no payload byte is
/// copied; a byte-backed one is copied once.
///
/// # Errors
///
/// Returns [`FormatError::BatchTooLarge`] if the writes add up to more
/// than [`MAX_TRAIL_BATCH`] sectors, and [`FormatError::Corrupt`] if they
/// add up to none or one of them is not a whole number of sectors.
pub fn build_record(
    epoch: u64,
    sequence_id: u64,
    prev_sect: Option<u32>,
    log_head_lba: u32,
    log_head_seq: u64,
    header_lba: u32,
    writes: &[RecordWrite<'_>],
) -> Result<(RecordHeader, PayloadChain), FormatError> {
    if writes.iter().any(|w| w.data.len() % SECTOR_SIZE != 0) {
        return Err(FormatError::Corrupt);
    }
    let sectors: usize = writes.iter().map(|w| w.data.len() / SECTOR_SIZE).sum();
    if sectors > MAX_TRAIL_BATCH {
        return Err(FormatError::BatchTooLarge);
    }
    if sectors == 0 {
        return Err(FormatError::Corrupt);
    }
    let mut entries = Vec::with_capacity(sectors);
    let mut lanes = Lanes::new();
    for w in writes {
        let mut data_lba = w.data_lba;
        w.data.for_each_sector(|sector| {
            entries.push(RecordEntry {
                first_data_byte: sector[0],
                data_major: w.data_major,
                data_minor: w.data_minor,
                data_lba,
                log_lba: header_lba + 1 + entries.len() as u32,
            });
            data_lba += 1;
            lanes.mix_logged(sector);
        });
    }
    let header = RecordHeader {
        epoch,
        sequence_id,
        prev_sect,
        log_head_lba,
        log_head_seq,
        payload_checksum: lanes.fold(sectors * SECTOR_SIZE),
        entries,
    };
    let mut record = PayloadChain::from(header.encode()?.to_vec());
    for w in writes {
        record.push(w.data.with_first_byte(PAYLOAD_FIRST_BYTE));
    }
    Ok((header, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;

    fn sample_header() -> LogDiskHeader {
        LogDiskHeader {
            epoch: 7,
            clean: true,
            rotation_period: SimDuration::from_nanos(11_111_111),
            leads: TrackLeads {
                after_read: SimDuration::from_nanos(1_358_024),
                after_write: SimDuration::from_nanos(1_481_481),
                switch: SimDuration::from_nanos(1_604_938),
                crossing: SimDuration::from_nanos(2_345_679),
            },
            geometry: profiles::seagate_st41601n().geometry,
        }
    }

    /// The four leads of `h`, each by name and as a mutable slot.
    fn lead_slots(h: &mut LogDiskHeader) -> [(&'static str, &mut SimDuration); 4] {
        let l = &mut h.leads;
        [
            ("after_read", &mut l.after_read),
            ("after_write", &mut l.after_write),
            ("switch", &mut l.switch),
            ("crossing", &mut l.crossing),
        ]
    }

    #[test]
    fn disk_header_round_trips() {
        let h = sample_header();
        let sector = h.encode().unwrap();
        let back = LogDiskHeader::decode(&sector).unwrap();
        assert_eq!(back, h);
        assert_eq!(
            back.leads, h.leads,
            "all four leads survive, to the nanosecond"
        );
        // Each lead has its own bytes: moving one moves only it.
        for i in 0..4 {
            let mut moved = sample_header();
            let (name, slot) = lead_slots(&mut moved).into_iter().nth(i).unwrap();
            *slot += SimDuration::from_nanos(1);
            let back = LogDiskHeader::decode(&moved.encode().unwrap()).unwrap();
            assert_eq!(back, moved, "lead {name}");
        }
    }

    #[test]
    fn disk_header_rejects_impossible_leads() {
        let revolution = sample_header().rotation_period;
        let one_ns = SimDuration::from_nanos(1);
        for bad in [SimDuration::ZERO, revolution + one_ns, SimDuration::MAX] {
            for i in 0..4 {
                let mut h = sample_header();
                let (name, slot) = lead_slots(&mut h).into_iter().nth(i).unwrap();
                *slot = bad;
                let sector = h.encode().unwrap();
                assert_eq!(
                    LogDiskHeader::decode(&sector),
                    Err(FormatError::Corrupt),
                    "lead {name} = {bad}"
                );
            }
        }
        // A lead of exactly one revolution is the longest a lead can be.
        for i in 0..4 {
            let mut h = sample_header();
            *lead_slots(&mut h)[i].1 = revolution;
            assert_eq!(LogDiskHeader::decode(&h.encode().unwrap()), Ok(h));
        }
    }

    #[test]
    fn disk_header_rejects_garbage() {
        let zeros = [0u8; SECTOR_SIZE];
        assert_eq!(
            LogDiskHeader::decode(&zeros),
            Err(FormatError::BadSignature)
        );
        let mut bad_flag = sample_header().encode().unwrap();
        bad_flag[16] = 9;
        assert_eq!(LogDiskHeader::decode(&bad_flag), Err(FormatError::Corrupt));
    }

    /// A record's bytes as its write command lays them on the log disk.
    fn bytes_of(record: &PayloadChain) -> Vec<u8> {
        record.parts().flat_map(PayloadBuf::to_vec).collect()
    }

    /// `n` one-sector writes with distinct nonzero first bytes.
    fn payload(n: usize) -> Vec<PayloadBuf> {
        (0..n)
            .map(|i| {
                let mut data = vec![0u8; SECTOR_SIZE];
                data[0] = 0xAA ^ (i as u8); // nonzero first byte to transpose
                data[1] = i as u8;
                data[SECTOR_SIZE - 1] = 0x5A;
                data.into()
            })
            .collect()
    }

    /// Borrows `sectors` as one-sector writes to consecutive LBAs from 1000.
    fn writes(sectors: &[PayloadBuf]) -> Vec<RecordWrite<'_>> {
        sectors
            .iter()
            .enumerate()
            .map(|(i, data)| RecordWrite {
                data_major: 1,
                data_minor: 0,
                data_lba: 1000 + i as u32,
                data,
            })
            .collect()
    }

    #[test]
    fn record_round_trips_with_transposition() {
        let p = payload(3);
        let (header, record) = build_record(5, 42, Some(900), 880, 40, 2000, &writes(&p)).unwrap();
        let bytes = bytes_of(&record);
        assert_eq!(bytes.len(), 4 * SECTOR_SIZE);
        // Header sector parses back.
        let hsec: SectorBuf = bytes[0..SECTOR_SIZE].try_into().unwrap();
        let parsed = RecordHeader::decode(&hsec).unwrap().expect("is a header");
        assert_eq!(parsed, header);
        assert_eq!(parsed.epoch, 5);
        assert_eq!(parsed.sequence_id, 42);
        assert_eq!(parsed.prev_sect, Some(900));
        assert_eq!(parsed.log_head_lba, 880);
        assert_eq!(parsed.log_head_seq, 40);
        // Payload sectors all start 0x00 on disk.
        for i in 0..3 {
            assert_eq!(bytes[(i + 1) * SECTOR_SIZE], PAYLOAD_FIRST_BYTE);
        }
        // log_lba is contiguous after the header.
        assert_eq!(parsed.entries[0].log_lba, 2001);
        assert_eq!(parsed.entries[2].log_lba, 2003);
        // Restoring puts the displaced byte back.
        for (i, e) in parsed.entries.iter().enumerate() {
            let mut sec: SectorBuf = bytes[(i + 1) * SECTOR_SIZE..(i + 2) * SECTOR_SIZE]
                .try_into()
                .unwrap();
            sec[0] = e.first_data_byte;
            assert_eq!(
                sec[..],
                p[i].to_vec(),
                "payload sector {i} restored exactly"
            );
        }
    }

    /// Writes of different lengths, borrowed from separate buffers, come
    /// back sector for sector — including sectors whose first byte already
    /// is one of the two marker values.
    #[test]
    fn multi_sector_writes_round_trip_with_marker_first_bytes() {
        let mut a = vec![0x11u8; 3 * SECTOR_SIZE];
        a[0] = PAYLOAD_FIRST_BYTE;
        a[SECTOR_SIZE] = HEADER_FIRST_BYTE;
        let b = vec![HEADER_FIRST_BYTE; SECTOR_SIZE];
        let c = vec![PAYLOAD_FIRST_BYTE; 2 * SECTOR_SIZE];
        let submitted: Vec<u8> = [&a[..], &b[..], &c[..]].concat();
        let (a, b, c) = (a.into(), b.into(), c.into());
        let ws = [
            RecordWrite {
                data_major: 0,
                data_minor: 0,
                data_lba: 64,
                data: &a,
            },
            RecordWrite {
                data_major: 2,
                data_minor: 1,
                data_lba: 7,
                data: &b,
            },
            RecordWrite {
                data_major: 1,
                data_minor: 0,
                data_lba: 900,
                data: &c,
            },
        ];
        let (header, record) = build_record(3, 9, None, 500, 9, 500, &ws).unwrap();
        let bytes = bytes_of(&record);
        assert_eq!(bytes.len(), 7 * SECTOR_SIZE);
        let parsed = RecordHeader::decode(bytes[..SECTOR_SIZE].try_into().unwrap())
            .unwrap()
            .expect("is a header");
        assert_eq!(parsed, header);
        let targets: Vec<(u8, u8, u32)> = parsed
            .entries
            .iter()
            .map(|e| (e.data_major, e.data_minor, e.data_lba))
            .collect();
        assert_eq!(
            targets,
            [
                (0, 0, 64),
                (0, 0, 65),
                (0, 0, 66),
                (2, 1, 7),
                (1, 0, 900),
                (1, 0, 901)
            ]
        );
        let mut restored = bytes[SECTOR_SIZE..].to_vec();
        for (i, (e, sector)) in parsed
            .entries
            .iter()
            .zip(restored.chunks_exact_mut(SECTOR_SIZE))
            .enumerate()
        {
            assert_eq!(e.log_lba, 501 + i as u32);
            assert_eq!(sector[0], PAYLOAD_FIRST_BYTE, "sector {i} marked on disk");
            sector[0] = e.first_data_byte;
        }
        assert_eq!(restored, submitted);
        assert_eq!(
            header.payload_checksum,
            payload_checksum(&bytes[SECTOR_SIZE..]),
            "the checksum covers the on-disk (transposed) payload"
        );
    }

    #[test]
    fn record_decode_ignores_non_headers() {
        // Payload-looking sector: first byte 0x00.
        let zeros = [0u8; SECTOR_SIZE];
        assert_eq!(RecordHeader::decode(&zeros), Ok(None));
        // 0xFF first byte but wrong signature: user data that happens to
        // start with 0xFF can never exist on the log disk (transposition),
        // but stale garbage might; it must not parse.
        let mut fake = [0u8; SECTOR_SIZE];
        fake[0] = HEADER_FIRST_BYTE;
        assert_eq!(RecordHeader::decode(&fake), Ok(None));
    }

    #[test]
    fn record_decode_flags_corrupt_signed_header() {
        let (header, _) = build_record(1, 1, None, 0, 0, 100, &writes(&payload(1))).unwrap();
        let mut hsec: SectorBuf = header.encode().unwrap();
        hsec[41..45].copy_from_slice(&0u32.to_le_bytes()); // batch = 0
        assert_eq!(RecordHeader::decode(&hsec), Err(FormatError::Corrupt));
        hsec[41..45].copy_from_slice(&1000u32.to_le_bytes()); // batch too big
        assert_eq!(RecordHeader::decode(&hsec), Err(FormatError::Corrupt));
    }

    #[test]
    fn record_limits_enforced() {
        assert!(matches!(
            build_record(1, 1, None, 0, 0, 0, &writes(&payload(MAX_TRAIL_BATCH + 1))),
            Err(FormatError::BatchTooLarge)
        ));
        assert!(matches!(
            build_record(1, 1, None, 0, 0, 0, &[]),
            Err(FormatError::Corrupt)
        ));
        // One multi-sector write counts by its sectors, not as one entry.
        let mut big = PayloadBuf::from(vec![7u8; (MAX_TRAIL_BATCH + 1) * SECTOR_SIZE]);
        let (ragged, fits) = (
            PayloadBuf::from(vec![7u8; SECTOR_SIZE + 1]),
            big.sectors(0, MAX_TRAIL_BATCH),
        );
        let mut w = RecordWrite {
            data_major: 0,
            data_minor: 0,
            data_lba: 0,
            data: &big,
        };
        assert!(matches!(
            build_record(1, 1, None, 0, 0, 0, &[w]),
            Err(FormatError::BatchTooLarge)
        ));
        // A write that is not whole sectors is refused, not padded.
        w.data = &ragged;
        assert!(matches!(
            build_record(1, 1, None, 0, 0, 0, &[w]),
            Err(FormatError::Corrupt)
        ));
        // Exactly MAX_TRAIL_BATCH fits a sector.
        w.data = &fits;
        let (h, record) = build_record(1, 1, None, 0, 0, 0, &[w]).unwrap();
        assert!(h.encode().is_ok());
        assert_eq!(record.len(), (MAX_TRAIL_BATCH + 1) * SECTOR_SIZE);
    }

    #[test]
    fn no_prev_sect_round_trips() {
        let (_, record) = build_record(1, 0, None, 0, 0, 64, &writes(&payload(1))).unwrap();
        let hsec: SectorBuf = bytes_of(&record)[0..SECTOR_SIZE].try_into().unwrap();
        let parsed = RecordHeader::decode(&hsec).unwrap().unwrap();
        assert_eq!(parsed.prev_sect, None);
    }

    // ---- The checksum's contract (not its value); the torn-record and
    // reordering properties live in `tests/proptest_invariants.rs`. --------

    fn random_sectors(seed: u64, sectors: usize) -> Vec<u8> {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..sectors * SECTOR_SIZE).map(|_| rng.gen()).collect()
    }

    #[test]
    fn checksum_sees_every_single_bit() {
        let data = random_sectors(1, 2);
        let sum = payload_checksum(&data);
        let mut flipped = data.clone();
        for bit in 0..data.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(payload_checksum(&flipped), sum, "bit {bit} went unseen");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(payload_checksum(&flipped), sum);
    }

    #[test]
    fn checksum_tells_lengths_apart() {
        // Ragged lengths are not a record-path case, but a public function
        // must neither panic on one nor ignore the tail.
        let data = random_sectors(9, 1);
        let mut seen = std::collections::HashSet::new();
        for len in [0usize, 1, 7, 8, 31, 32, 33, 63, 511, 512] {
            assert!(seen.insert(payload_checksum(&data[..len])), "length {len}");
        }
        let mut tail = data[..33].to_vec();
        tail[32] ^= 1;
        assert_ne!(payload_checksum(&tail), payload_checksum(&data[..33]));
        // Zero sectors leave a lane's state to the length fold alone.
        let zeros = vec![0u8; 3 * SECTOR_SIZE];
        let sums: std::collections::HashSet<u32> = (1..=3)
            .map(|n| payload_checksum(&zeros[..n * SECTOR_SIZE]))
            .collect();
        assert_eq!(sums.len(), 3);
    }
}
