//! The write-ahead log: serialization, the log buffer, and group commit.
//!
//! The database log file is the paper's synchronous-write hot spot: "the
//! database log file is opened with the `O_SYNC` flag, so that each write
//! to the database log will be a synchronous one." Group commit is modeled
//! exactly as the paper does (§5.2): "log records in the log buffer are
//! forced to disk once the size of the log records exceeds the chosen log
//! buffer size" — Table 3 counts those forces.
//!
//! The engine writes each flushed chunk as a sequence of synchronous
//! writes of the configured granularity (see [`FlushJob`]); that
//! granularity is what makes large group-commit forces expensive on a
//! mechanical disk.

use trail_disk::SECTOR_SIZE;
use trail_sim::{Completion, IoError, SimDuration, SimTime};

/// When the log buffer is forced to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Force at every transaction commit (no group commit).
    EveryCommit,
    /// Force when the buffered log records exceed `buffer_bytes` (the
    /// paper's group-commit simulation; Table 3 varies this knob).
    GroupCommit {
        /// The log-buffer size in bytes.
        buffer_bytes: usize,
    },
}

/// One logical WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A row write.
    Put {
        /// Transaction id.
        txn: u32,
        /// Table id.
        table: u8,
        /// Row key.
        key: u64,
        /// Row image.
        value: Vec<u8>,
    },
    /// A row deletion.
    Delete {
        /// Transaction id.
        txn: u32,
        /// Table id.
        table: u8,
        /// Row key.
        key: u64,
    },
    /// Transaction commit.
    Commit {
        /// Transaction id.
        txn: u32,
    },
    /// Transaction abort.
    Abort {
        /// Transaction id.
        txn: u32,
    },
}

const REC_PUT: u8 = 1;
const REC_DELETE: u8 = 2;
const REC_COMMIT: u8 = 3;
const REC_ABORT: u8 = 4;

/// Magic number starting every flushed chunk.
pub const CHUNK_MAGIC: u32 = 0x5741_4C21; // "WAL!"
const CHUNK_HDR: usize = 16; // magic u32, chunk_seq u64, len u32

impl WalRecord {
    /// Length of the record's wire form, as [`encode`](Self::encode) and
    /// [`decode`](Self::decode) lay it out.
    fn encoded_len(&self) -> usize {
        9 + match self {
            WalRecord::Put { value, .. } => 17 + value.len(),
            WalRecord::Delete { .. } => 13,
            WalRecord::Commit { .. } | WalRecord::Abort { .. } => 4,
        }
    }

    /// Appends the record's wire form (with `lsn`) to `out`.
    fn encode(&self, lsn: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&lsn.to_le_bytes());
        match self {
            WalRecord::Put {
                txn,
                table,
                key,
                value,
            } => {
                out.push(REC_PUT);
                out.extend_from_slice(&txn.to_le_bytes());
                out.push(*table);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            WalRecord::Delete { txn, table, key } => {
                out.push(REC_DELETE);
                out.extend_from_slice(&txn.to_le_bytes());
                out.push(*table);
                out.extend_from_slice(&key.to_le_bytes());
            }
            WalRecord::Commit { txn } => {
                out.push(REC_COMMIT);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Abort { txn } => {
                out.push(REC_ABORT);
                out.extend_from_slice(&txn.to_le_bytes());
            }
        }
    }

    /// Decodes one record from `buf`, returning it, its LSN, and the bytes
    /// consumed. Returns `None` on truncation or an unknown tag.
    pub fn decode(buf: &[u8]) -> Option<(u64, WalRecord, usize)> {
        if buf.len() < 9 {
            return None;
        }
        let lsn = u64::from_le_bytes(buf[0..8].try_into().expect("len checked"));
        let tag = buf[8];
        let rest = &buf[9..];
        match tag {
            REC_PUT => {
                if rest.len() < 17 {
                    return None;
                }
                let txn = u32::from_le_bytes(rest[0..4].try_into().expect("len"));
                let table = rest[4];
                let key = u64::from_le_bytes(rest[5..13].try_into().expect("len"));
                let vlen = u32::from_le_bytes(rest[13..17].try_into().expect("len")) as usize;
                if rest.len() < 17 + vlen {
                    return None;
                }
                Some((
                    lsn,
                    WalRecord::Put {
                        txn,
                        table,
                        key,
                        value: rest[17..17 + vlen].to_vec(),
                    },
                    9 + 17 + vlen,
                ))
            }
            REC_DELETE => {
                if rest.len() < 13 {
                    return None;
                }
                let txn = u32::from_le_bytes(rest[0..4].try_into().expect("len"));
                let table = rest[4];
                let key = u64::from_le_bytes(rest[5..13].try_into().expect("len"));
                Some((lsn, WalRecord::Delete { txn, table, key }, 9 + 13))
            }
            REC_COMMIT | REC_ABORT => {
                if rest.len() < 4 {
                    return None;
                }
                let txn = u32::from_le_bytes(rest[0..4].try_into().expect("len"));
                let rec = if tag == REC_COMMIT {
                    WalRecord::Commit { txn }
                } else {
                    WalRecord::Abort { txn }
                };
                Some((lsn, rec, 9 + 4))
            }
            _ => None,
        }
    }
}

/// A commit whose caller is waiting for durability.
pub struct PendingCommit {
    /// Transaction id.
    pub txn: u32,
    /// When the transaction started (for response-time accounting).
    pub started: SimTime,
    /// Delivered with the durability instant when the commit's records
    /// reach the disk; failed with the error of the force that could not
    /// write them, or cancelled if the engine shuts down first.
    pub on_durable: Completion<SimTime>,
}

/// A flush the engine must now submit to the stack.
///
/// The engine writes `data` as a sequence of `write_granularity`-byte
/// synchronous writes, modeling Berkeley DB's flush loop: on a mechanical
/// disk each subsequent sequential O_SYNC write has just missed its
/// rotational window and pays nearly a full revolution — the paper's "I/O
/// clustering" effect, and the reason a 50-KB group-commit force costs
/// ~60 ms on the baseline (Table 2).
pub struct FlushJob {
    /// Absolute sector on the log device for the chunk write.
    pub lba: u64,
    /// Sector-padded chunk bytes.
    pub data: Vec<u8>,
    /// Commits that become durable when this flush completes.
    pub commits: Vec<PendingCommit>,
    /// When the flush was created.
    pub issued: SimTime,
}

/// WAL counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalStats {
    /// Synchronous log forces — the paper's "number of group commits"
    /// (Table 3).
    pub flushes: u64,
    /// Bytes of log chunks written (including sector padding).
    pub bytes_flushed: u64,
    /// Logical records appended.
    pub records: u64,
    /// Total wall time spent with a log flush outstanding — the paper's
    /// "Disk I/O Time for Logging" (Table 2).
    pub logging_io_time: SimDuration,
}

/// The write-ahead log state machine (the engine drives the actual I/O).
///
/// # Examples
///
/// ```
/// use trail_db::{FlushPolicy, Wal, WalRecord};
/// use trail_sim::{SimTime, Simulator};
///
/// let sim = Simulator::new();
/// let mut wal = Wal::new(0, 64, 100_000, FlushPolicy::EveryCommit);
/// wal.append(WalRecord::Put { txn: 1, table: 0, key: 9, value: vec![1, 2] });
/// wal.append(WalRecord::Commit { txn: 1 });
/// wal.register_commit(trail_db::PendingCommit {
///     txn: 1,
///     started: SimTime::ZERO,
///     on_durable: sim.completion(|_, _: trail_sim::Delivered<SimTime>| {}),
/// });
/// assert!(wal.wants_flush());
/// let job = wal.begin_flush(SimTime::ZERO, false).unwrap();
/// assert_eq!(job.commits.len(), 1);
/// ```
pub struct Wal {
    dev: usize,
    region_start: u64,
    capacity_sectors: u64,
    append_pos: u64,
    next_lsn: u64,
    chunk_seq: u64,
    /// Records awaiting a force, in append (= LSN) order; each is encoded
    /// once, straight into the chunk that flushes it.
    pending: std::collections::VecDeque<(u64, WalRecord)>,
    /// Their total encoded length.
    pending_bytes: usize,
    /// Cumulative bytes ever appended / flushed (durability watermark).
    appended_bytes: u64,
    flushed_bytes: u64,
    waiting: Vec<(u64, PendingCommit)>,
    flush_inflight: bool,
    /// The error a force failed with: the log has a hole from there on.
    failed: Option<IoError>,
    policy: FlushPolicy,
    stats: WalStats,
}

impl Wal {
    /// Creates a WAL appending into `[region_start, region_start +
    /// capacity_sectors)` on device `dev`.
    pub fn new(dev: usize, region_start: u64, capacity_sectors: u64, policy: FlushPolicy) -> Self {
        Wal {
            dev,
            region_start,
            capacity_sectors,
            append_pos: 0,
            next_lsn: 0,
            chunk_seq: 0,
            pending: std::collections::VecDeque::new(),
            pending_bytes: 0,
            appended_bytes: 0,
            flushed_bytes: 0,
            waiting: Vec::new(),
            flush_inflight: false,
            failed: None,
            policy,
            stats: WalStats::default(),
        }
    }

    /// The log device index.
    pub fn dev(&self) -> usize {
        self.dev
    }

    /// The flush policy in effect.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Counters so far.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Bytes currently buffered (not yet forced).
    pub fn buffered_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Whether a flush is outstanding.
    pub fn flush_inflight(&self) -> bool {
        self.flush_inflight
    }

    /// Appends a record to the log buffer, returning its LSN.
    pub fn append(&mut self, record: WalRecord) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let len = record.encoded_len();
        self.pending_bytes += len;
        self.appended_bytes += len as u64;
        self.pending.push_back((lsn, record));
        self.stats.records += 1;
        lsn
    }

    /// Registers a commit awaiting durability of everything appended so
    /// far.
    pub fn register_commit(&mut self, commit: PendingCommit) {
        self.waiting.push((self.appended_bytes, commit));
    }

    /// Whether the commit that just appended must *block* until the next
    /// force completes: the force runs synchronously in the committing
    /// thread (as Berkeley DB's `log_write` does), so the triggering
    /// transaction cannot proceed. Unlike [`wants_flush`](Self::wants_flush)
    /// this ignores an in-flight force — the caller would queue behind it.
    pub fn commit_blocks_control(&self) -> bool {
        match self.policy {
            FlushPolicy::EveryCommit => true,
            FlushPolicy::GroupCommit { buffer_bytes } => self.pending_bytes >= buffer_bytes,
        }
    }

    /// Whether the policy calls for a force right now.
    pub fn wants_flush(&self) -> bool {
        if self.flush_inflight || self.pending.is_empty() {
            return false;
        }
        match self.policy {
            FlushPolicy::EveryCommit => !self.waiting.is_empty(),
            FlushPolicy::GroupCommit { buffer_bytes } => self.pending_bytes >= buffer_bytes,
        }
    }

    /// Drains (up to) one log buffer's worth of records into a
    /// [`FlushJob`]. Under group commit the physical log buffer holds only
    /// `buffer_bytes`, so one force writes at most that much (plus the
    /// record that crossed the boundary); the remainder waits for the next
    /// force — this is what makes a 4-KB buffer produce *more* forces than
    /// transactions in the paper's Table 3. `force_all` drains everything
    /// (end-of-run).
    ///
    /// Returns `None` if there is nothing to flush or a flush is already
    /// outstanding.
    ///
    /// # Panics
    ///
    /// Panics if the log file would wrap its region — the benches size the
    /// region so this never happens (see `DESIGN.md`).
    pub fn begin_flush(&mut self, now: SimTime, force_all: bool) -> Option<FlushJob> {
        if self.flush_inflight || self.pending.is_empty() {
            return None;
        }
        let cap = match (force_all, self.policy) {
            (true, _) | (_, FlushPolicy::EveryCommit) => usize::MAX,
            (false, FlushPolicy::GroupCommit { buffer_bytes }) => buffer_bytes,
        };
        // How many records this force takes, and their encoded length.
        let (mut taken, mut payload_len) = (0, 0usize);
        for (_, rec) in &self.pending {
            let len = rec.encoded_len();
            if taken > 0 && payload_len + len > cap {
                break;
            }
            taken += 1;
            payload_len += len;
            if payload_len >= cap {
                break;
            }
        }
        self.pending_bytes -= payload_len;
        let covers = self.flushed_bytes + payload_len as u64;
        // The chunk is built in place: header, then each record encoded
        // once behind it, then zero padding to a whole sector.
        let sectors = Self::chunk_sectors(payload_len);
        let mut data = Vec::with_capacity(sectors as usize * SECTOR_SIZE);
        data.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
        data.extend_from_slice(&self.chunk_seq.to_le_bytes());
        data.extend_from_slice(&(payload_len as u32).to_le_bytes());
        for (lsn, rec) in self.pending.drain(..taken) {
            rec.encode(lsn, &mut data);
        }
        debug_assert_eq!(data.len(), CHUNK_HDR + payload_len);
        data.resize(sectors as usize * SECTOR_SIZE, 0);
        assert!(
            self.append_pos + sectors <= self.capacity_sectors,
            "log file wrapped its region; enlarge the log device allocation"
        );
        let lba = self.region_start + self.append_pos;
        self.append_pos += sectors;
        self.chunk_seq += 1;
        self.flush_inflight = true;
        self.stats.flushes += 1;
        self.stats.bytes_flushed += data.len() as u64;
        // Commits whose records are fully inside this force become durable
        // with it; later commits keep waiting.
        let (ready, still): (Vec<_>, Vec<_>) = std::mem::take(&mut self.waiting)
            .into_iter()
            .partition(|(needs, _)| *needs <= covers);
        self.waiting = still;
        self.flushed_bytes = covers;
        Some(FlushJob {
            lba,
            data,
            commits: ready.into_iter().map(|(_, c)| c).collect(),
            issued: now,
        })
    }

    /// Marks the outstanding flush complete at `now`, accumulating the
    /// logging I/O time.
    ///
    /// # Panics
    ///
    /// Panics if no flush was outstanding.
    pub fn finish_flush(&mut self, now: SimTime, issued: SimTime) {
        assert!(self.flush_inflight, "finish_flush without begin_flush");
        self.flush_inflight = false;
        self.stats.logging_io_time += now.duration_since(issued);
    }

    /// Marks the outstanding flush failed with `e`. Recovery's scan stops
    /// at the first chunk missing from the log, so nothing written after
    /// this one could ever be recovered: every later force fails with `e`
    /// too ([`failed`](Self::failed)).
    ///
    /// # Panics
    ///
    /// Panics if no flush was outstanding.
    pub fn fail_flush(&mut self, e: IoError) {
        assert!(self.flush_inflight, "fail_flush without begin_flush");
        self.flush_inflight = false;
        self.failed.get_or_insert(e);
    }

    /// The error the log failed with, if a force has failed.
    pub fn failed(&self) -> Option<IoError> {
        self.failed
    }

    /// Parses the records out of one chunk's bytes (as read from disk).
    ///
    /// Returns `None` if the chunk is invalid or its sequence number does
    /// not match `expected_seq`.
    pub fn parse_chunk(data: &[u8], expected_seq: u64) -> Option<(Vec<(u64, WalRecord)>, u64)> {
        if data.len() < CHUNK_HDR {
            return None;
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().expect("len"));
        if magic != CHUNK_MAGIC {
            return None;
        }
        let seq = u64::from_le_bytes(data[4..12].try_into().expect("len"));
        if seq != expected_seq {
            return None;
        }
        let len = u32::from_le_bytes(data[12..16].try_into().expect("len")) as usize;
        if CHUNK_HDR + len > data.len() {
            return None;
        }
        let mut records = Vec::new();
        let mut off = CHUNK_HDR;
        let end = CHUNK_HDR + len;
        while off < end {
            let (lsn, rec, used) = WalRecord::decode(&data[off..end])?;
            records.push((lsn, rec));
            off += used;
        }
        let sectors = data.len().div_ceil(SECTOR_SIZE) as u64;
        Some((records, sectors))
    }

    /// The number of sectors a chunk of `payload_len` record bytes
    /// occupies on disk.
    pub fn chunk_sectors(payload_len: usize) -> u64 {
        (CHUNK_HDR + payload_len).div_ceil(SECTOR_SIZE) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_encode_decode_round_trip() {
        let records = [
            WalRecord::Put {
                txn: 7,
                table: 2,
                key: 0xDEAD_BEEF,
                value: vec![1, 2, 3, 4, 5],
            },
            WalRecord::Delete {
                txn: 7,
                table: 2,
                key: 42,
            },
            WalRecord::Commit { txn: 7 },
            WalRecord::Abort { txn: 8 },
        ];
        let mut buf = Vec::new();
        for (i, r) in records.iter().enumerate() {
            r.encode(i as u64, &mut buf);
        }
        let mut off = 0;
        for (i, expect) in records.iter().enumerate() {
            let (lsn, rec, used) = WalRecord::decode(&buf[off..]).expect("decodes");
            assert_eq!(lsn, i as u64);
            assert_eq!(&rec, expect);
            off += used;
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        assert!(WalRecord::decode(&[]).is_none());
        assert!(WalRecord::decode(&[0; 8]).is_none());
        let mut buf = Vec::new();
        WalRecord::Put {
            txn: 1,
            table: 0,
            key: 1,
            value: vec![9; 100],
        }
        .encode(0, &mut buf);
        assert!(WalRecord::decode(&buf[..buf.len() - 1]).is_none());
        buf[8] = 200; // unknown tag
        assert!(WalRecord::decode(&buf).is_none());
    }

    fn noop_durable(sim: &trail_sim::Simulator) -> Completion<SimTime> {
        sim.completion(|_, _| {})
    }

    #[test]
    fn every_commit_policy_forces_immediately() {
        let sim = trail_sim::Simulator::new();
        let mut wal = Wal::new(0, 64, 1000, FlushPolicy::EveryCommit);
        wal.append(WalRecord::Put {
            txn: 1,
            table: 0,
            key: 1,
            value: vec![0; 10],
        });
        assert!(!wal.wants_flush(), "no waiting commit yet");
        wal.append(WalRecord::Commit { txn: 1 });
        wal.register_commit(PendingCommit {
            txn: 1,
            started: SimTime::ZERO,
            on_durable: noop_durable(&sim),
        });
        assert!(wal.wants_flush());
    }

    #[test]
    fn group_commit_waits_for_the_buffer_to_fill() {
        let sim = trail_sim::Simulator::new();
        let mut wal = Wal::new(0, 64, 1000, FlushPolicy::GroupCommit { buffer_bytes: 500 });
        for txn in 0..5u32 {
            wal.append(WalRecord::Put {
                txn,
                table: 0,
                key: u64::from(txn),
                value: vec![0; 50],
            });
            wal.append(WalRecord::Commit { txn });
            wal.register_commit(PendingCommit {
                txn,
                started: SimTime::ZERO,
                on_durable: noop_durable(&sim),
            });
        }
        // 5 × (~88 bytes) < 500: no force yet.
        assert!(!wal.wants_flush(), "buffered {}", wal.buffered_bytes());
        for txn in 5..10u32 {
            wal.append(WalRecord::Put {
                txn,
                table: 0,
                key: u64::from(txn),
                value: vec![0; 50],
            });
            wal.append(WalRecord::Commit { txn });
        }
        assert!(wal.wants_flush(), "buffered {}", wal.buffered_bytes());
    }

    #[test]
    fn flush_job_layout_and_chunk_parse() {
        let sim = trail_sim::Simulator::new();
        let mut wal = Wal::new(0, 64, 1000, FlushPolicy::EveryCommit);
        wal.append(WalRecord::Put {
            txn: 1,
            table: 3,
            key: 77,
            value: vec![0xAA; 600],
        });
        wal.append(WalRecord::Commit { txn: 1 });
        wal.register_commit(PendingCommit {
            txn: 1,
            started: SimTime::ZERO,
            on_durable: noop_durable(&sim),
        });
        let job = wal
            .begin_flush(SimTime::from_nanos(100), false)
            .expect("flushes");
        assert_eq!(job.lba, 64);
        assert_eq!(job.data.len() % SECTOR_SIZE, 0);
        assert_eq!(job.commits.len(), 1);
        assert!(wal.flush_inflight());
        assert!(wal.begin_flush(SimTime::from_nanos(101), false).is_none());
        let (records, sectors) = Wal::parse_chunk(&job.data, 0).expect("parses");
        assert_eq!(records.len(), 2);
        assert_eq!(sectors as usize * SECTOR_SIZE, job.data.len());
        wal.finish_flush(SimTime::from_nanos(2_100), job.issued);
        assert!(!wal.flush_inflight());
        assert_eq!(wal.stats().flushes, 1);
        assert_eq!(wal.stats().logging_io_time.as_nanos(), 2_000);
        // Second flush appends after the first chunk.
        wal.append(WalRecord::Commit { txn: 2 });
        wal.register_commit(PendingCommit {
            txn: 2,
            started: SimTime::ZERO,
            on_durable: noop_durable(&sim),
        });
        let job2 = wal
            .begin_flush(SimTime::from_nanos(3_000), false)
            .expect("flushes");
        assert_eq!(job2.lba, 64 + sectors);
        assert!(Wal::parse_chunk(&job2.data, 0).is_none(), "wrong seq");
        assert!(Wal::parse_chunk(&job2.data, 1).is_some());
    }

    /// The chunk image built the way `begin_flush` used to: every record
    /// encoded into a `Vec` of its own at append time, the taken ones
    /// concatenated into a payload, the payload copied behind the header.
    fn staged_chunk(
        pending: &mut std::collections::VecDeque<Vec<u8>>,
        cap: usize,
        chunk_seq: u64,
    ) -> Vec<u8> {
        let mut payload = Vec::new();
        while let Some(front) = pending.front() {
            if !payload.is_empty() && payload.len() + front.len() > cap {
                break;
            }
            payload.extend_from_slice(&pending.pop_front().expect("front observed"));
            if payload.len() >= cap {
                break;
            }
        }
        let mut data = Vec::new();
        data.extend_from_slice(&CHUNK_MAGIC.to_le_bytes());
        data.extend_from_slice(&chunk_seq.to_le_bytes());
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&payload);
        let pad = (SECTOR_SIZE - data.len() % SECTOR_SIZE) % SECTOR_SIZE;
        data.resize(data.len() + pad, 0);
        data
    }

    #[test]
    fn chunks_encoded_in_place_match_the_staged_image_byte_for_byte() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(15);
        let mut next = move |n: u64| rng.gen_range(0..n);
        for policy in [
            FlushPolicy::EveryCommit,
            FlushPolicy::GroupCommit { buffer_bytes: 300 },
            FlushPolicy::GroupCommit { buffer_bytes: 4096 },
        ] {
            let cap = match policy {
                FlushPolicy::EveryCommit => usize::MAX,
                FlushPolicy::GroupCommit { buffer_bytes } => buffer_bytes,
            };
            let mut wal = Wal::new(0, 64, 100_000, policy);
            let mut staged = std::collections::VecDeque::new();
            let (mut lsn, mut chunk_seq, mut flushed) = (0u64, 0u64, 0u64);
            for round in 0..40 {
                for _ in 0..=next(12) {
                    let txn = next(1000) as u32;
                    let record = match next(4) {
                        0 => WalRecord::Commit { txn },
                        1 => WalRecord::Abort { txn },
                        2 => WalRecord::Delete {
                            txn,
                            table: next(9) as u8,
                            key: next(u64::MAX),
                        },
                        _ => WalRecord::Put {
                            txn,
                            table: next(9) as u8,
                            key: next(u64::MAX),
                            value: (0..next(700)).map(|_| next(256) as u8).collect(),
                        },
                    };
                    let mut bytes = Vec::new();
                    record.encode(lsn, &mut bytes);
                    assert_eq!(record.encoded_len(), bytes.len(), "{record:?}");
                    staged.push_back(bytes);
                    assert_eq!(wal.append(record), lsn);
                    lsn += 1;
                }
                let staged_bytes = |staged: &std::collections::VecDeque<Vec<u8>>| {
                    staged.iter().map(Vec::len).sum::<usize>()
                };
                assert_eq!(wal.buffered_bytes(), staged_bytes(&staged));
                // Force when the policy would, and everything on the last round.
                let force_all = round == 39;
                let threshold = if force_all || cap == usize::MAX {
                    1
                } else {
                    cap
                };
                while wal.buffered_bytes() >= threshold {
                    let job = wal
                        .begin_flush(SimTime::ZERO, force_all)
                        .expect("records are pending");
                    let cap = if force_all { usize::MAX } else { cap };
                    let expected = staged_chunk(&mut staged, cap, chunk_seq);
                    assert_eq!(job.data, expected, "chunk {chunk_seq} under {policy:?}");
                    assert_eq!(job.lba, 64 + flushed / SECTOR_SIZE as u64);
                    chunk_seq += 1;
                    flushed += expected.len() as u64;
                    wal.finish_flush(SimTime::ZERO, job.issued);
                    assert_eq!(wal.buffered_bytes(), staged_bytes(&staged));
                }
            }
            assert_eq!(wal.buffered_bytes(), 0);
            assert!(staged.is_empty());
            assert_eq!(wal.stats().flushes, chunk_seq);
            assert_eq!(wal.stats().bytes_flushed, flushed);
            assert_eq!(wal.stats().records, lsn);
        }
    }

    #[test]
    #[should_panic(expected = "wrapped its region")]
    fn region_overflow_panics() {
        let sim = trail_sim::Simulator::new();
        let mut wal = Wal::new(0, 0, 1, FlushPolicy::EveryCommit);
        wal.append(WalRecord::Put {
            txn: 1,
            table: 0,
            key: 0,
            value: vec![0; 2000],
        });
        wal.register_commit(PendingCommit {
            txn: 1,
            started: SimTime::ZERO,
            on_durable: noop_durable(&sim),
        });
        let _ = wal.begin_flush(SimTime::ZERO, false);
    }
}
