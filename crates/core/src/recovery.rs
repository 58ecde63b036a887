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
//!    written) — this field is what bounds the back-scan.
//! 3. **Write back** the recovered blocks to their data disks in
//!    sequence order (oldest first, so later overwrites win). This stage
//!    is optional for measurement purposes (Figure 4(b)); production boot
//!    always performs it, because the driver bumps the epoch immediately
//!    afterwards, retiring the log records.
//!
//! All recovery I/O is *timed*: it goes through the same simulated device
//! interface as normal operation, so Figure 4's delays are measured, not
//! asserted.

use trail_blockio::{IoRequest, SharedBlockDevice};
use trail_disk::{Disk, DiskCommand, DiskError, Lba, SectorBuf, SECTOR_SIZE};
use trail_probe::run_blocking;
use trail_sim::{SimDuration, Simulator};

use crate::driver::raw_targets;
use crate::error::TrailError;
use crate::format::{payload_checksum, restore_payload, LogDiskHeader, RecordHeader};
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

    /// Serializes the report (times in virtual milliseconds).
    pub fn to_json(&self) -> trail_telemetry::JsonValue {
        use trail_telemetry::JsonValue as J;
        J::obj(vec![
            ("locate_ms", J::Num(self.locate_time.as_millis_f64())),
            ("rebuild_ms", J::Num(self.rebuild_time.as_millis_f64())),
            ("writeback_ms", J::Num(self.writeback_time.as_millis_f64())),
            ("total_ms", J::Num(self.total_time().as_millis_f64())),
            ("tracks_scanned", J::Num(self.tracks_scanned as f64)),
            ("records_found", J::Num(self.records_found as f64)),
            ("sectors_replayed", J::Num(self.sectors_replayed as f64)),
            ("write_back", J::Bool(self.write_back_performed)),
            (
                "torn_records_dropped",
                J::Num(self.torn_records_dropped as f64),
            ),
            ("log_head_span", J::Num(self.log_head_span as f64)),
            ("active_log_sectors", J::Num(self.active_log_sectors as f64)),
        ])
    }
}

/// Newest current-epoch record found on one track.
struct TrackHit {
    header: RecordHeader,
    header_lba: Lba,
}

/// Reads one whole track and returns its newest current-epoch record.
fn scan_track(
    sim: &mut Simulator,
    log_disk: &Disk,
    header: &LogDiskHeader,
    track: u64,
) -> Result<Option<TrackHit>, TrailError> {
    let g = &header.geometry;
    let first = g.track_first_lba(track);
    let spt = g.spt_of_track(track);
    let res = run_blocking(
        sim,
        log_disk,
        DiskCommand::Read {
            lba: first,
            count: spt,
        },
    )?;
    let data = res.data.expect("read returns data");
    let mut best: Option<TrackHit> = None;
    for (i, chunk) in data.chunks_exact(SECTOR_SIZE).enumerate() {
        let sector: SectorBuf = chunk.try_into().expect("chunk is one sector");
        // A record that fails to parse despite carrying the signature is
        // treated as absent: it cannot be the youngest *valid* record.
        if let Ok(Some(rec)) = RecordHeader::decode(&sector) {
            if rec.epoch == header.epoch
                && best
                    .as_ref()
                    .is_none_or(|b| rec.sequence_id > b.header.sequence_id)
            {
                best = Some(TrackHit {
                    header: rec,
                    header_lba: first + i as u64,
                });
            }
        }
    }
    Ok(best)
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
    data: Vec<u8>,
) -> Result<(), TrailError> {
    sim.block_on(|sim, done| target.submit(sim, IoRequest::write(lba, data), done))
        .map_err(TrailError::Disk)?
        .map_err(|_| TrailError::Disk(DiskError::Failed))?;
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
/// that cancels a write-back (a member failure the array cannot absorb)
/// surfaces as [`TrailError::Disk`].
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
    let base = scan_track(sim, log_disk, header, first_track)?;
    report.tracks_scanned += 1;
    let Some(base) = base else {
        // No current-epoch records at the allocation origin means no
        // records at all (allocation always starts there).
        report.locate_time = sim.now().duration_since(t0);
        return Ok(report);
    };
    let base_seq = base.header.sequence_id;
    let mut lo = 0u64;
    let mut hi = n - 1;
    let mut best_hit = base;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        let hit = scan_track(sim, log_disk, header, first_track + mid)?;
        report.tracks_scanned += 1;
        match hit {
            Some(h) if h.header.sequence_id >= base_seq => {
                lo = mid;
                best_hit = h;
            }
            _ => hi = mid - 1,
        }
    }
    let youngest = best_hit;
    report.locate_time = sim.now().duration_since(t0);

    // ---- Stage 2: rebuild the chain of active records. -------------------
    let t1 = sim.now();
    let mut bound_seq = youngest.header.log_head_seq;
    let mut chain: Vec<(RecordHeader, Vec<u8>)> = Vec::new();
    let mut cur = youngest;
    loop {
        let batch = cur.header.entries.len() as u32;
        let payload = run_blocking(
            sim,
            log_disk,
            DiskCommand::Read {
                lba: cur.header_lba + 1,
                count: batch,
            },
        )?
        .data
        .expect("read returns data");
        let seq = cur.header.sequence_id;
        let prev = cur.header.prev_sect;
        if payload_checksum(&payload) != cur.header.payload_checksum {
            if chain.is_empty() {
                // The record in flight at the crash persisted its header
                // but not all payload sectors. It was never acknowledged;
                // drop it and treat its predecessor as the youngest.
                report.torn_records_dropped += 1;
                let Some(prev_lba) = prev else { break };
                let hsec = run_blocking(
                    sim,
                    log_disk,
                    DiskCommand::Read {
                        lba: u64::from(prev_lba),
                        count: 1,
                    },
                )?
                .data
                .expect("read returns data");
                let sector: SectorBuf = hsec[..].try_into().expect("one sector");
                match RecordHeader::decode(&sector) {
                    Ok(Some(rec)) if rec.epoch == header.epoch && rec.sequence_id < seq => {
                        bound_seq = rec.log_head_seq;
                        cur = TrackHit {
                            header: rec,
                            header_lba: u64::from(prev_lba),
                        };
                        continue;
                    }
                    _ => break,
                }
            } else {
                // A fully-written record can only fail its checksum if the
                // medium was damaged; stop conservatively with everything
                // younger already collected.
                break;
            }
        }
        report.active_log_sectors += 1 + u64::from(batch);
        chain.push((cur.header, payload));
        if seq <= bound_seq {
            break;
        }
        let Some(prev_lba) = prev else { break };
        let hsec = run_blocking(
            sim,
            log_disk,
            DiskCommand::Read {
                lba: u64::from(prev_lba),
                count: 1,
            },
        )?
        .data
        .expect("read returns data");
        let sector: SectorBuf = hsec[..].try_into().expect("one sector");
        match RecordHeader::decode(&sector) {
            Ok(Some(rec)) if rec.epoch == header.epoch && rec.sequence_id < seq => {
                cur = TrackHit {
                    header: rec,
                    header_lba: u64::from(prev_lba),
                };
            }
            // A dangling pointer (clobbered predecessor) ends the chain
            // conservatively: everything younger is already collected.
            _ => break,
        }
    }
    report.records_found = chain.len();
    report.log_head_span = chain
        .first()
        .map_or(0, |(r, _)| r.sequence_id.saturating_sub(bound_seq));
    report.rebuild_time = sim.now().duration_since(t1);

    // ---- Stage 3: write back, oldest first. ------------------------------
    let t2 = sim.now();
    if options.write_back {
        chain.reverse();
        for (rec, payload) in &chain {
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
                let mut data = payload[i * SECTOR_SIZE..(j + 1) * SECTOR_SIZE].to_vec();
                for (entry, sector) in rec.entries[i..=j]
                    .iter()
                    .zip(data.chunks_exact_mut(SECTOR_SIZE))
                {
                    restore_payload(entry, sector.try_into().expect("sector"));
                }
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
