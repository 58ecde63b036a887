//! Crash recovery (paper §3.3).
//!
//! After a power failure the log disk holds every acknowledged write; the
//! data disks may not. Recovery proceeds in the paper's three stages:
//!
//! 1. **Locate** the youngest active write record. Because tracks are
//!    allocated in ring order and `sequence_id` grows monotonically, the
//!    per-track newest sequence number — as a function of ring position —
//!    is two increasing runs with a single drop at the allocation tail.
//!    A boundary binary search therefore finds the youngest record in
//!    O(lg N) *track scans* instead of reading the whole disk.
//! 2. **Rebuild** the chain of potentially-uncommitted records by walking
//!    `prev_sect` pointers backwards, stopping at the youngest record's
//!    `log_head` (the oldest record not yet committed when it was
//!    written) — this field is what bounds the back-scan. Each record is
//!    read once. Stage 1 keeps every track it scanned as the read
//!    returned it — a view of the log medium, one pool reference per
//!    sector, not a copy of its bytes — so a record on one of them (the
//!    youngest always is) costs no I/O; any other costs one command that
//!    reads its header and payload together. (Reading them apart waits
//!    out most of a revolution: the payload starts on the very next
//!    sector, which passes under the head during the second command's
//!    overhead.) Headers are decoded and checksums streamed over the
//!    views in place.
//! 3. **Write back** the recovered blocks to their data disks in
//!    sequence order (oldest first, so later overwrites win), each run
//!    the log's sectors under their recorded first bytes: aliases of the
//!    log copy, which a data disk on the stack's image pool stores by
//!    reference. This stage is optional for measurement purposes
//!    (Figure 4(b)); production boot always performs it, because the
//!    driver bumps the epoch immediately afterwards, retiring the log
//!    records.
//!
//! All recovery I/O is *timed*: it goes through the same simulated device
//! interface as normal operation, so Figure 4's delays are measured, not
//! asserted.

use trail_blockio::{IoRequest, SharedBlockDevice};
use trail_disk::{Disk, DiskCommand, Lba, PayloadBuf, SECTOR_SIZE};
use trail_probe::run_blocking;
use trail_sim::{SimDuration, Simulator};

use crate::driver::raw_targets;
use crate::error::TrailError;
use crate::format::{payload_checksum_of, LogDiskHeader, RecordHeader, MAX_TRAIL_BATCH};
use crate::formatter::data_track_range;

/// Options for [`recover`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryOptions {
    /// Perform stage 3 (write recovered blocks back to the data disks).
    /// Disabling this reproduces Figure 4(b)'s "no write-back" variant;
    /// a production boot must leave it enabled.
    pub write_back: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { write_back: true }
    }
}

/// Timing and volume breakdown of one recovery pass (Figure 4).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Stage 1: locating the youngest active record (binary search).
    pub locate_time: SimDuration,
    /// Stage 2: rebuilding the active records via `prev_sect`.
    pub rebuild_time: SimDuration,
    /// Stage 3: writing blocks back to the data disks (zero if skipped).
    pub writeback_time: SimDuration,
    /// Full tracks read during stage 1.
    pub tracks_scanned: u64,
    /// Write records recovered.
    pub records_found: usize,
    /// Payload sectors written back to data disks.
    pub sectors_replayed: u64,
    /// Whether stage 3 ran.
    pub write_back_performed: bool,
    /// In-flight records whose payload was torn by the crash and which
    /// were therefore dropped (never acknowledged, so no data is lost).
    pub torn_records_dropped: u64,
    /// Sequence distance from the youngest recovered record back to its
    /// `log_head` bound — the quantity that bounds stage 2's back-scan
    /// (the paper's argument for O(active log) rather than O(disk)
    /// recovery).
    pub log_head_span: u64,
    /// Header + payload sectors in the rebuilt active chain: the log
    /// size recovery actually had to process.
    pub active_log_sectors: u64,
}

impl RecoveryReport {
    /// Total recovery delay.
    pub fn total_time(&self) -> SimDuration {
        self.locate_time + self.rebuild_time + self.writeback_time
    }
}

/// The kept sectors from `lba` to the end of its track, if one of `kept`
/// — the tracks stage 1 read whole, as (first LBA, view) — holds `lba`.
fn kept_from(kept: &mut [(Lba, PayloadBuf)], lba: Lba) -> Option<PayloadBuf> {
    let (first, track) = kept.iter_mut().find(|(first, track)| {
        (*first..first + (track.len() / SECTOR_SIZE) as u64).contains(&lba)
    })?;
    let at = (lba - *first) as usize;
    Some(track.sectors(at, track.len() / SECTOR_SIZE - at))
}

/// Reads one whole track, keeps its view in `kept` and returns the
/// sequence number and LBA of its newest current-epoch record.
fn scan_track(
    sim: &mut Simulator,
    log_disk: &Disk,
    header: &LogDiskHeader,
    track: u64,
    kept: &mut Vec<(Lba, PayloadBuf)>,
) -> Result<Option<(u64, Lba)>, TrailError> {
    let g = &header.geometry;
    let (lba, count) = (g.track_first_lba(track), g.spt_of_track(track));
    let read = run_blocking(sim, log_disk, DiskCommand::Read { lba, count })?;
    let track = read.data.expect("read returns data");
    // A record that fails to parse despite carrying the signature is
    // treated as absent: it cannot be the youngest *valid* record.
    let (mut at, mut newest) = (lba, None);
    track.for_each_sector(|sector| {
        if let Ok(Some(rec)) = RecordHeader::decode(sector) {
            if rec.epoch == header.epoch && newest.is_none_or(|(seq, _)| rec.sequence_id > seq) {
                newest = Some((rec.sequence_id, at));
            }
        }
        at += 1;
    });
    kept.push((lba, track));
    Ok(newest)
}

/// A record of the chain: its header and the log sectors from its header
/// sector on, which hold its payload unless it is torn.
struct Found {
    header: RecordHeader,
    sectors: PayloadBuf,
}

impl Found {
    /// The record's payload as the log holds it, if every sector of it
    /// was read and matches the header's checksum.
    fn payload(&mut self) -> Option<PayloadBuf> {
        let batch = self.header.entries.len();
        let payload =
            (self.sectors.len() > batch * SECTOR_SIZE).then(|| self.sectors.sectors(1, batch))?;
        (payload_checksum_of(&payload) == self.header.payload_checksum).then_some(payload)
    }
}

/// The record whose header is at `lba`, if it is a current-epoch record
/// older than `seq`. A kept track supplies it without I/O; otherwise one
/// command reads its header and every sector its payload can span
/// (records never cross a track's end). A dangling pointer (a clobbered
/// predecessor, or one outside the data tracks) is `None`: the chain ends
/// there, with everything younger collected.
fn read_record(
    sim: &mut Simulator,
    log_disk: &Disk,
    header: &LogDiskHeader,
    kept: &mut [(Lba, PayloadBuf)],
    lba: Option<Lba>,
    seq: u64,
) -> Result<Option<Found>, TrailError> {
    let g = &header.geometry;
    let (first_track, last_track) = data_track_range(g);
    // No predecessor maps past the disk's end, so it dangles too.
    let lba = lba.unwrap_or(Lba::MAX);
    let Some(track) = g
        .track_of_lba(lba)
        .filter(|t| (first_track..=last_track).contains(t))
    else {
        return Ok(None);
    };
    let sectors = match kept_from(kept, lba) {
        Some(sectors) => sectors,
        None => {
            let track_end = g.track_first_lba(track) + u64::from(g.spt_of_track(track));
            let count = (track_end - lba).min(1 + MAX_TRAIL_BATCH as u64) as u32;
            let read = run_blocking(sim, log_disk, DiskCommand::Read { lba, count })?;
            read.data.expect("read returns data")
        }
    };
    Ok(match RecordHeader::decode(&sectors.sector(0)) {
        Ok(Some(rec)) if rec.epoch == header.epoch && rec.sequence_id < seq => Some(Found {
            header: rec,
            sectors,
        }),
        _ => None,
    })
}

/// Runs the recovery procedure against a crashed Trail log disk whose
/// data devices are raw disks: [`recover_with_targets`] over one queueing
/// driver per disk.
///
/// `header` is the decoded log-disk header (whose `epoch` identifies the
/// records to recover) and `data_disks` the same device list, in the same
/// order, that the crashed driver served.
///
/// # Errors
///
/// As [`recover_with_targets`].
///
/// # Examples
///
/// See the `crash_recovery` example and the `recovery` integration tests;
/// constructing a crashed disk inline is beyond a doc example.
pub fn recover(
    sim: &mut Simulator,
    log_disk: &Disk,
    data_disks: &[Disk],
    header: &LogDiskHeader,
    options: RecoveryOptions,
) -> Result<RecoveryReport, TrailError> {
    recover_with_targets(sim, log_disk, &raw_targets(data_disks), header, options)
}

/// Runs one write against a block target to completion (the boot-time
/// blocking idiom, [`Simulator::block_on`]).
fn blocking_target_write(
    sim: &mut Simulator,
    target: &SharedBlockDevice,
    lba: Lba,
    data: PayloadBuf,
) -> Result<(), TrailError> {
    sim.block_on(|sim, done| target.submit(sim, IoRequest::write(lba, data), done))??;
    Ok(())
}

/// Runs the recovery procedure against a crashed Trail log disk.
///
/// `header` is the decoded log-disk header (whose `epoch` identifies the
/// records to recover) and `targets` the same block targets — single-disk
/// drivers, `trail-volume` arrays, or a mix — in the same order, that the
/// crashed driver served. Stage 3 replays each recovered run through the
/// target's own submission path, so a RAID-5 target performs its parity
/// maintenance during recovery exactly as it would in normal operation.
///
/// # Errors
///
/// Propagates device errors; returns [`TrailError::BadDevice`] if a
/// recovered record names a data device that does not exist. A target
/// that fails a write-back (a member failure the array cannot absorb, a
/// second power cut) surfaces as [`TrailError::Io`] with the delivered
/// error.
pub fn recover_with_targets(
    sim: &mut Simulator,
    log_disk: &Disk,
    targets: &[SharedBlockDevice],
    header: &LogDiskHeader,
    options: RecoveryOptions,
) -> Result<RecoveryReport, TrailError> {
    let g = &header.geometry;
    let (first_track, last_track) = data_track_range(g);
    let n = last_track - first_track + 1;
    let mut report = RecoveryReport::default();
    let t0 = sim.now();

    // ---- Stage 1: locate the youngest active record. --------------------
    let mut kept = Vec::new();
    let base = scan_track(sim, log_disk, header, first_track, &mut kept)?;
    report.tracks_scanned += 1;
    let Some((base_seq, mut youngest)) = base else {
        // No current-epoch records at the allocation origin means no
        // records at all (allocation always starts there).
        report.locate_time = sim.now().duration_since(t0);
        return Ok(report);
    };
    let mut lo = 0u64;
    let mut hi = n - 1;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        let hit = scan_track(sim, log_disk, header, first_track + mid, &mut kept)?;
        report.tracks_scanned += 1;
        match hit {
            Some((seq, lba)) if seq >= base_seq => {
                lo = mid;
                youngest = lba;
            }
            _ => hi = mid - 1,
        }
    }
    report.locate_time = sim.now().duration_since(t0);

    // ---- Stage 2: rebuild the chain of active records. -------------------
    // Every record on a kept track, the youngest among them, costs no I/O.
    let t1 = sim.now();
    let found = read_record(sim, log_disk, header, &mut kept, Some(youngest), u64::MAX)?;
    let mut cur = found.expect("the youngest record decodes from its kept track");
    let mut bound_seq = cur.header.log_head_seq;
    // Each active record's header and payload, youngest first.
    let mut chain: Vec<(RecordHeader, PayloadBuf)> = Vec::new();
    loop {
        let batch = cur.header.entries.len();
        let seq = cur.header.sequence_id;
        let prev = cur.header.prev_sect.map(Lba::from);
        let Some(payload) = cur.payload() else {
            // A fully-written record can only fail its checksum if the
            // medium was damaged; stop conservatively with everything
            // younger already collected.
            if !chain.is_empty() {
                break;
            }
            // The record in flight at the crash persisted its header but
            // not all payload sectors. It was never acknowledged; drop it
            // and treat its predecessor as the youngest.
            report.torn_records_dropped += 1;
            let Some(hit) = read_record(sim, log_disk, header, &mut kept, prev, seq)? else {
                break;
            };
            bound_seq = hit.header.log_head_seq;
            cur = hit;
            continue;
        };
        report.active_log_sectors += 1 + batch as u64;
        chain.push((cur.header, payload));
        if seq <= bound_seq {
            break;
        }
        let Some(hit) = read_record(sim, log_disk, header, &mut kept, prev, seq)? else {
            break;
        };
        cur = hit;
    }
    drop(kept);
    report.records_found = chain.len();
    report.log_head_span = chain
        .first()
        .map_or(0, |(rec, _)| rec.sequence_id.saturating_sub(bound_seq));
    report.rebuild_time = sim.now().duration_since(t1);

    // ---- Stage 3: write back, oldest first. ------------------------------
    let t2 = sim.now();
    if options.write_back {
        for (rec, payload) in chain.iter_mut().rev() {
            let mut i = 0;
            while i < rec.entries.len() {
                // Coalesce consecutive sectors headed to the same disk.
                let dev = rec.entries[i].data_major as usize;
                let start_lba = rec.entries[i].data_lba;
                let mut j = i;
                while j + 1 < rec.entries.len()
                    && rec.entries[j + 1].data_major as usize == dev
                    && rec.entries[j + 1].data_lba == rec.entries[j].data_lba + 1
                {
                    j += 1;
                }
                // The log copy with each sector's displaced first byte put
                // back: aliases of the log's sectors, not bytes.
                let entries = &rec.entries[i..=j];
                let data = payload
                    .sectors(i, j - i + 1)
                    .with_first_bytes(|k| entries[k].first_data_byte);
                report.sectors_replayed += (j - i + 1) as u64;
                let target = targets.get(dev).ok_or(TrailError::BadDevice)?;
                blocking_target_write(sim, target, u64::from(start_lba), data)?;
                i = j + 1;
            }
        }
        report.write_back_performed = true;
    }
    report.writeback_time = sim.now().duration_since(t2);
    Ok(report)
}
