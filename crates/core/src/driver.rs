//! The Trail driver (paper §4): eager log-disk writes, asynchronous
//! write-back, and the free-track invariant.
//!
//! The driver sits where a disk device driver would: above it, a file
//! system (or database) issues reads and synchronous writes against data
//! disks; below it, one log disk and N data disks. Every write is first
//! appended to the log disk *at the sector the head is predicted to be
//! passing* — so it costs only command overhead plus transfer — and is
//! acknowledged as durable the moment the log write completes. The blocks
//! stay pinned in buffer memory and trickle out to their real homes on the
//! data disks in the background, with reads given priority.
//!
//! Key mechanisms, each mapped to the paper:
//!
//! - **head-position prediction** before every log write (§3.1), via
//!   [`HeadPredictor`];
//! - **batched writes**: everything in the log queue when the disk goes
//!   idle is folded into one write record (§4.2, Table 1);
//! - **30 % track-utilization threshold** before moving to the next track
//!   (§4.2), maintaining the invariant that the head always sits on a
//!   track with free space;
//! - **FIFO track reclamation** (§2, §4.2) via [`TrackPool`];
//! - **pinned memory with overwrite cancellation** (§4.2): a map of
//!   disjoint sector ranges, so an acknowledged write is what any
//!   overlapping read sees, and overlapping writes reach the data disks in
//!   acknowledgement order;
//! - **idle-time reference refresh** (§3.1's periodic repositioning).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use trail_blockio::{Clook, IoDone, IoRequest, Priority, SharedBlockDevice, StandardDriver};
use trail_disk::{
    CommandKind, Disk, DiskCommand, DiskGeometry, DiskResult, ImagePool, Lba, PayloadBuf,
    ServiceBreakdown, SECTOR_SIZE,
};
use trail_sim::{
    Completion, Delivered, DurationHistogram, EventId, IoError, SimDuration, SimTime, Simulator,
};
use trail_telemetry::{
    EventKind, Layer, LifecycleEmitter, RecorderHandle, RequestBreakdown, StreamId,
};

use crate::config::TrailConfig;
use crate::error::TrailError;
use crate::format::{build_record, LogDiskHeader, RecordWrite};
use crate::formatter::{data_track_range, read_header, write_header};
use crate::pinned::{patch, Extent, Pinned, PinnedMap};
use crate::predict::HeadPredictor;
use crate::recovery::{recover_with_targets, RecoveryOptions, RecoveryReport};
use crate::tracks::TrackPool;

/// Aggregate driver measurements.
#[derive(Clone, Debug, Default)]
pub struct TrailStats {
    /// End-to-end synchronous write latency: request submission to log-disk
    /// durability acknowledgement.
    pub sync_write_latency: DurationHistogram,
    /// Write records appended to the log disk.
    pub log_records: u64,
    /// Payload sectors of each record, in order — the batching histogram.
    pub batch_sizes: Vec<u32>,
    /// Track switches (repositioning reads) performed.
    pub repositions: u64,
    /// Reference refreshes triggered by the idle timer.
    pub idle_refreshes: u64,
    /// Times the log disk ran out of free tracks and the queue stalled.
    pub stalls: u64,
    /// Fraction of each retired track's sectors that were used, sampled at
    /// track-switch time (the §5.2 utilization statistic).
    pub track_utilization: Vec<f64>,
    /// The most sectors pinned at once, awaiting write-back (see
    /// [`TrailDriver::pinned_sectors`]).
    pub peak_pinned_sectors: u64,
    /// Reads served from pinned buffer memory: every sector pinned.
    pub read_hits: u64,
    /// Reads forwarded to the data disks.
    pub read_misses: u64,
    /// Reads forwarded to the data disks with pinned sectors patched over
    /// what the disk returned.
    pub patched_reads: u64,
    /// Logged extents that trimmed, split or covered a pinned range with a
    /// different span.
    pub overlapping_writes: u64,
    /// Data-disk write-backs dispatched.
    pub writebacks: u64,
    /// Write-backs that raced with a newer overlapping write and were
    /// cancelled.
    pub superseded_writebacks: u64,
    /// Summed service time of the repositioning reads.
    pub reposition_time: SimDuration,
    /// Log-disk revolutions lost, by the command that lost them.
    pub lost_revolutions: LostRevolutions,
    /// Records that did not start at the predicted sector, by why.
    pub predict_misses: PredictMisses,
}

/// Log-disk commands whose rotational wait exceeded ¾ of a revolution — the
/// test `trail_probe` calibrates with — by command. Accounting only: the
/// driver reads these off each command's service breakdown and never
/// predicts from them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LostRevolutions {
    /// Write records.
    pub record_writes: u64,
    /// Repositioning reads onto a fresh track.
    pub reposition_reads: u64,
    /// Idle-time reference refreshes.
    pub idle_refreshes: u64,
}

/// How many records missed their predicted sector for one cause, and the
/// rotational wait they paid for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissTally {
    /// Records.
    pub count: u64,
    /// Their summed rotational wait.
    pub wait: SimDuration,
}

/// Records that did not start at the predicted sector, split by why the
/// free-space search moved them (every `PredictMiss` event is counted in
/// exactly one field).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictMisses {
    /// The predicted sector already held a record.
    pub occupied: MissTally,
    /// The free run at the predicted sector ended at a used sector before
    /// the record's first request fit.
    pub run_ends_at_used: MissTally,
    /// The free run at the predicted sector ended at the end of the track
    /// before the record's first request fit.
    pub run_ends_at_track_end: MissTally,
}

/// Why a record did not start at the predicted sector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MissCause {
    Occupied,
    RunEndsAtUsed,
    RunEndsAtTrackEnd,
}

impl PredictMisses {
    fn record(&mut self, cause: MissCause, wait: SimDuration) {
        let tally = match cause {
            MissCause::Occupied => &mut self.occupied,
            MissCause::RunEndsAtUsed => &mut self.run_ends_at_used,
            MissCause::RunEndsAtTrackEnd => &mut self.run_ends_at_track_end,
        };
        tally.count += 1;
        tally.wait += wait;
    }
}

struct AckState {
    remaining: usize,
    done: Option<Completion<IoDone>>,
    issued: SimTime,
    lba: u64,
}

struct QueuedWrite {
    dev: u8,
    lba: u64,
    data: PayloadBuf,
    ack: Rc<RefCell<AckState>>,
}

impl QueuedWrite {
    fn sectors(&self) -> u32 {
        (self.data.len() / SECTOR_SIZE) as u32
    }
}

struct CurrentTrack {
    track: u64,
    used: Vec<bool>,
    used_count: u32,
}

impl CurrentTrack {
    fn new(track: u64, spt: u32) -> Self {
        CurrentTrack {
            track,
            used: vec![false; spt as usize],
            used_count: 0,
        }
    }

    fn spt(&self) -> u32 {
        self.used.len() as u32
    }

    fn utilization(&self) -> f64 {
        f64::from(self.used_count) / f64::from(self.spt())
    }

    /// First sector `s` (searching in wrapped order from `from`) such that
    /// `[s, s + need)` lies within the track and is entirely free.
    fn find_fit(&self, from: u32, need: u32) -> Option<u32> {
        let spt = self.spt();
        if need > spt {
            return None;
        }
        for off in 0..spt {
            let s = (from + off) % spt;
            if s + need > spt {
                continue;
            }
            if self.used[s as usize..(s + need) as usize]
                .iter()
                .all(|&u| !u)
            {
                return Some(s);
            }
        }
        None
    }

    /// Why a record that [`find_fit`](Self::find_fit) did not place at
    /// `predicted` could not start there: the sector is used, or its free
    /// run is too short and ends at a used sector or at the track's end.
    fn miss_cause(&self, predicted: u32) -> MissCause {
        if self.used[predicted as usize] {
            MissCause::Occupied
        } else if predicted + self.free_run_len(predicted) < self.spt() {
            MissCause::RunEndsAtUsed
        } else {
            MissCause::RunEndsAtTrackEnd
        }
    }

    /// Length of the free run starting at `s`.
    fn free_run_len(&self, s: u32) -> u32 {
        let spt = self.spt();
        let mut end = s;
        while end < spt && !self.used[end as usize] {
            end += 1;
        }
        end - s
    }

    fn mark_used(&mut self, s: u32, len: u32) {
        for i in s..s + len {
            debug_assert!(!self.used[i as usize], "sector {i} double-allocated");
            self.used[i as usize] = true;
        }
        self.used_count += len;
    }
}

/// A record that stays live until every range waiting on it is written
/// back (§4.2).
struct ActiveRecord {
    track: u64,
    header_lba: u32,
}

struct Inner {
    config: TrailConfig,
    effective_max_batch: u32,
    /// The header this instance mounted under (its epoch, not clean).
    header: LogDiskHeader,
    log_disk: Disk,
    /// The pool the log disk keeps its records in, which every landed
    /// write's payload is interned into.
    log_pool: ImagePool,
    data: Vec<SharedBlockDevice>,
    data_capacity: Vec<u64>,
    geometry: DiskGeometry,
    predictor: HeadPredictor,
    next_seq: u64,
    prev_record_lba: Option<u32>,
    pool: TrackPool,
    current: Option<CurrentTrack>,
    log_busy: bool,
    log_queue: VecDeque<QueuedWrite>,
    active_records: BTreeMap<u64, ActiveRecord>,
    pinned: PinnedMap,
    stats: TrailStats,
    idle_timer: Option<EventId>,
    idle_refresh_count: u32,
    stalled: bool,
    // Sourced from the log disk's name, so MultiTrail instances stay
    // distinguishable in traces.
    lifecycle: LifecycleEmitter,
}

/// What `start` found and did while bringing the driver up.
#[derive(Clone, Debug)]
pub struct BootReport {
    /// The recovery pass that ran, if the log disk was not cleanly
    /// unmounted.
    pub recovered: Option<RecoveryReport>,
    /// The new epoch this driver instance writes under.
    pub epoch: u64,
}

enum LogAction {
    None,
    ArmIdle,
    Reposition,
    Dispatch {
        lba: Lba,
        bytes: Vec<u8>,
        ctx: RecordCtx,
    },
}

struct RecordCtx {
    seq: u64,
    /// The chain's previous record, restored if this one fails.
    prev_record_lba: Option<u32>,
    track: u64,
    header_sector: u32,
    total_sectors: u32,
    batch: Vec<QueuedWrite>,
    /// Why the record did not land at the predicted sector, or `None` when
    /// it did (the §3.1 prediction was used as-is).
    miss: Option<MissCause>,
}

/// The Trail track-based logging driver. Clones share the driver.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk, SECTOR_SIZE};
/// use trail_core::{format_log_disk, FormatOptions, TrailConfig, TrailDriver};
///
/// let mut sim = Simulator::new();
/// let log = Disk::new("log", profiles::seagate_st41601n());
/// let data = Disk::new("data0", profiles::wd_caviar_10gb());
/// format_log_disk(&mut sim, &log, FormatOptions::default())?;
/// let (trail, _boot) = TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default())?;
/// let done = sim.completion(|_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
///     // Durable in ~1.5 ms instead of ~16 ms.
///     assert!(d.expect("durable").latency().as_millis_f64() < 4.0);
/// });
/// trail.write(&mut sim, 0, 1024, vec![7u8; 2 * SECTOR_SIZE], done)?;
/// trail.run_until_quiescent(&mut sim);
/// # Ok::<(), trail_core::TrailError>(())
/// ```
#[derive(Clone)]
pub struct TrailDriver {
    inner: Rc<RefCell<Inner>>,
}

impl TrailDriver {
    /// Boots the driver over raw data disks:
    /// [`start_with_targets`](Self::start_with_targets) over one
    /// read-prioritized C-LOOK queueing driver per disk (paper §4.3).
    ///
    /// # Errors
    ///
    /// As [`start_with_targets`](Self::start_with_targets);
    /// [`TrailError::BadDevice`] if `data_disks` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`TrailConfig::validate`]).
    pub fn start(
        sim: &mut Simulator,
        log_disk: Disk,
        data_disks: Vec<Disk>,
        config: TrailConfig,
    ) -> Result<(TrailDriver, BootReport), TrailError> {
        Self::start_with_targets(sim, log_disk, raw_targets(&data_disks), config)
    }

    /// Boots the driver over arbitrary block targets — single-disk
    /// drivers, `trail-volume` RAID arrays, or a mix: reads the log-disk
    /// header, runs crash recovery if the previous mount was not clean
    /// (replaying through the targets' own submission paths, see
    /// [`crate::recover_with_targets`]), bumps the epoch, and positions the
    /// head on a free track.
    ///
    /// Trail's write-back path submits to each target's
    /// [`trail_blockio::BlockDevice`] face, so a RAID-5 target pays its
    /// parity updates — the cheaper of read-modify-write and
    /// reconstruct-write — in the background while the log front end keeps
    /// acknowledging at track speed. Several Trail instances may share
    /// data devices (see [`MultiTrail`](crate::MultiTrail)) only by sharing
    /// clones of the *same* `Rc` targets: each physical disk must have
    /// exactly one queueing driver.
    ///
    /// Runs boot I/O in blocking style (drains the event queue); construct
    /// the driver before starting workload actors.
    ///
    /// # Errors
    ///
    /// Returns [`TrailError::NotFormatted`] for an unformatted log disk,
    /// [`TrailError::BadDevice`] if `targets` is empty or holds more than
    /// 255 devices, and propagates device errors.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`TrailConfig::validate`]).
    pub fn start_with_targets(
        sim: &mut Simulator,
        log_disk: Disk,
        targets: Vec<SharedBlockDevice>,
        config: TrailConfig,
    ) -> Result<(TrailDriver, BootReport), TrailError> {
        config.validate();
        if targets.is_empty() || targets.len() > u8::MAX as usize {
            return Err(TrailError::BadDevice);
        }
        let header = read_header(sim, &log_disk)?;
        let mut recovered = None;
        if !header.clean {
            recovered = Some(recover_with_targets(
                sim,
                &log_disk,
                &targets,
                &header,
                RecoveryOptions::default(),
            )?);
        }
        assert!(
            header.geometry.total_sectors() <= u64::from(u32::MAX),
            "log disk too large for the on-disk u32 LBA format"
        );
        let epoch = header.epoch + 1;
        let new_header = LogDiskHeader {
            epoch,
            clean: false,
            ..header.clone()
        };
        write_header(sim, &log_disk, &new_header)?;

        let geometry = header.geometry.clone();
        let min_spt = geometry
            .zones()
            .iter()
            .map(|z| z.spt)
            .min()
            .expect("zones nonempty");
        let effective_max_batch = config.max_batch_sectors.min(min_spt - 1);
        let (first, mut last) = data_track_range(&geometry);
        if let Some(limit) = config.log_track_limit {
            assert!(limit >= 2, "the track ring needs at least two tracks");
            last = last.min(first + limit - 1);
        }
        let devices = targets.len();
        let data_capacity: Vec<u64> = targets.iter().map(|t| t.capacity_sectors()).collect();
        for &cap in &data_capacity {
            assert!(
                cap <= u64::from(u32::MAX),
                "data target too large for the on-disk u32 LBA format"
            );
        }
        let predictor = HeadPredictor::new(geometry.clone(), header.rotation_period, header.leads);
        let lifecycle = LifecycleEmitter::new(Layer::Core, log_disk.name());
        let driver = TrailDriver {
            inner: Rc::new(RefCell::new(Inner {
                config,
                effective_max_batch,
                header: new_header,
                log_pool: log_disk.pool(),
                log_disk,
                data: targets,
                data_capacity,
                geometry,
                predictor,
                next_seq: 0,
                prev_record_lba: None,
                pool: TrackPool::new(first, last),
                current: None,
                log_busy: false,
                log_queue: VecDeque::new(),
                active_records: BTreeMap::new(),
                pinned: PinnedMap::new(devices),
                stats: TrailStats::default(),
                idle_timer: None,
                idle_refresh_count: 0,
                stalled: false,
                lifecycle,
            })),
        };
        driver.initial_position(sim)?;
        Ok((driver, BootReport { recovered, epoch }))
    }

    /// Blocking boot step: claim the first track and take a reference
    /// point by reading its first sector.
    fn initial_position(&self, sim: &mut Simulator) -> Result<(), TrailError> {
        let (track, lba) = {
            let mut d = self.inner.borrow_mut();
            let track = d.pool.allocate_next().expect("fresh pool cannot be full");
            (track, d.geometry.track_first_lba(track))
        };
        let res = trail_probe::run_blocking(
            sim,
            &self.inner.borrow().log_disk.clone(),
            DiskCommand::Read { lba, count: 1 },
        )?;
        let mut d = self.inner.borrow_mut();
        d.predictor
            .set_reference(res.completed, lba, CommandKind::Read);
        let spt = d.geometry.spt_of_track(track);
        d.current = Some(CurrentTrack::new(track, spt));
        Ok(())
    }

    /// Submits a synchronous write of `data` to sector `lba` of data disk
    /// `dev`. `done` is delivered when the write is **durable** (logged);
    /// the data-disk copy happens in the background.
    ///
    /// Requests larger than the batch limit are split into multiple log
    /// records; `done` is delivered when the last piece is durable.
    ///
    /// # Errors
    ///
    /// Returns [`TrailError::BadDevice`], [`TrailError::BadDataLength`],
    /// or [`TrailError::OutOfRange`] without side effects on a malformed
    /// request (`done` is cancelled). A write the log disk fails is never
    /// acknowledged: `done` is delivered the [`IoError`] (a transient
    /// error is retried in the next record and not seen here).
    pub fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: impl Into<PayloadBuf>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let mut data = data.into();
        if data.as_bytes().is_none() {
            // The record is built from the bytes, and a queued write holds
            // them until it lands.
            data = data.to_vec().into();
        }
        {
            let mut d = self.inner.borrow_mut();
            if dev >= d.data.len() {
                return Err(TrailError::BadDevice);
            }
            if data.is_empty() || !data.len().is_multiple_of(SECTOR_SIZE) {
                return Err(TrailError::BadDataLength);
            }
            let sectors = (data.len() / SECTOR_SIZE) as u64;
            if lba + sectors > d.data_capacity[dev] {
                return Err(TrailError::OutOfRange);
            }
            let req = done.id().raw();
            let chunk = u64::from(d.effective_max_batch);
            let ack = Rc::new(RefCell::new(AckState {
                remaining: sectors.div_ceil(chunk) as usize,
                done: Some(done),
                issued: sim.now(),
                lba,
            }));
            if sectors <= chunk {
                // Fits one record: the caller's buffer is queued as is.
                d.log_queue.push_back(QueuedWrite {
                    dev: dev as u8,
                    lba,
                    data,
                    ack,
                });
            } else {
                // One record-sized view of the caller's buffer per piece.
                for first in (0..sectors).step_by(chunk as usize) {
                    let count = chunk.min(sectors - first);
                    d.log_queue.push_back(QueuedWrite {
                        dev: dev as u8,
                        lba: lba + first,
                        data: data.sectors(first as usize, count as usize),
                        ack: Rc::clone(&ack),
                    });
                }
            }
            d.lifecycle
                .enqueue(sim.now(), req, d.log_queue.len() as u32);
            if let Some(t) = d.idle_timer.take() {
                sim.cancel(t);
            }
            d.idle_refresh_count = 0;
        }
        // Defer servicing by one (zero-delay) event so that a burst of
        // writes submitted at the same instant all reach the queue before
        // the next record is formed — "the Trail driver batches all the
        // requests currently in the log disk queue" (§4.2).
        let driver = self.clone();
        sim.schedule_now(move |sim| driver.service_log(sim));
        Ok(())
    }

    /// Submits a read of `count` sectors at `lba` of data disk `dev`.
    /// Served from pinned buffer memory when every sector is pinned,
    /// otherwise from the data disk (with priority over write-backs), with
    /// whatever is pinned patched over what the disk returns: a read sees
    /// every write acknowledged before it was submitted.
    ///
    /// # Errors
    ///
    /// Returns [`TrailError::BadDevice`] or [`TrailError::OutOfRange`] on
    /// a malformed request.
    pub fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.read_tagged(sim, dev, lba, count, StreamId::UNTAGGED, done)
    }

    /// [`read`](TrailDriver::read) with an explicit stream tag.
    ///
    /// The tag is carried, on a buffer miss, onto the forwarded data-disk
    /// request; it never changes which copy of the block is served.
    pub fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let pinned = {
            let mut d = self.inner.borrow_mut();
            if dev >= d.data.len() {
                return Err(TrailError::BadDevice);
            }
            if count == 0 || lba + u64::from(count) > d.data_capacity[dev] {
                return Err(TrailError::OutOfRange);
            }
            let pinned = d.pinned.read(dev as u8, lba, count);
            match pinned {
                Pinned::All(_) => d.stats.read_hits += 1,
                Pinned::Part(_) => {
                    d.stats.read_misses += 1;
                    d.stats.patched_reads += 1;
                }
                Pinned::Nothing => d.stats.read_misses += 1,
            }
            pinned
        };
        let req = IoRequest::read(lba, count).tagged(stream);
        match pinned {
            Pinned::All(data) => {
                // Zero-latency buffer hit; delivery is already deferred by
                // the completion itself.
                done.complete(
                    sim,
                    IoDone {
                        id: trail_blockio::RequestId(0),
                        lba,
                        kind: CommandKind::Read,
                        data: Some(data),
                        issued: sim.now(),
                        completed: sim.now(),
                        breakdown: ServiceBreakdown::default(),
                    },
                );
                Ok(())
            }
            Pinned::Nothing => {
                let drv = self.inner.borrow().data[dev].clone();
                // Uniform completion type: forward the caller's token
                // straight to the data-disk driver.
                drv.submit(sim, req, done).map_err(TrailError::Disk)?;
                Ok(())
            }
            Pinned::Part(views) => {
                // The views were taken now, so writes acknowledged while
                // the read is at the disk cannot be patched over by older
                // bytes.
                let patched = sim.completion(move |sim, read: Delivered<IoDone>| match read {
                    Ok(mut io) => {
                        let image = io.data.as_mut().expect("a read returns data");
                        patch(image, lba, &views);
                        done.complete(sim, io);
                    }
                    Err(e) => done.fail(sim, e),
                });
                let drv = self.inner.borrow().data[dev].clone();
                drv.submit(sim, req, patched).map_err(TrailError::Disk)?;
                Ok(())
            }
        }
    }

    /// Work not yet finished: queued log writes, an in-flight log command,
    /// and pinned ranges awaiting write-back.
    pub fn pending_work(&self) -> usize {
        let d = self.inner.borrow();
        d.log_queue.len() + usize::from(d.log_busy) + d.pinned.len()
    }

    /// Runs the simulation until the driver has no pending work.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains while work is still pending (a
    /// driver bug) — unless the driver is stalled waiting for free tracks.
    pub fn run_until_quiescent(&self, sim: &mut Simulator) {
        while self.pending_work() > 0 {
            if !sim.step() {
                panic!("event queue empty with driver work pending");
            }
        }
    }

    /// Cleanly shuts down: drains all pending work, then marks the log
    /// disk clean so the next boot skips recovery.
    ///
    /// # Errors
    ///
    /// Propagates device errors from the final header write.
    pub fn shutdown(&self, sim: &mut Simulator) -> Result<(), TrailError> {
        self.run_until_quiescent(sim);
        let (log_disk, header) = {
            let mut d = self.inner.borrow_mut();
            if let Some(t) = d.idle_timer.take() {
                sim.cancel(t);
            }
            let header = LogDiskHeader {
                clean: true,
                ..d.header.clone()
            };
            (d.log_disk.clone(), header)
        };
        write_header(sim, &log_disk, &header)?;
        Ok(())
    }

    /// Runs `f` against the accumulated statistics.
    pub fn with_stats<R>(&self, f: impl FnOnce(&TrailStats) -> R) -> R {
        f(&self.inner.borrow().stats)
    }

    /// The underlying log disk (for device-level statistics).
    pub fn log_disk(&self) -> Disk {
        self.inner.borrow().log_disk.clone()
    }

    /// Number of data devices the driver was started over.
    pub fn devices(&self) -> usize {
        self.inner.borrow().data.len()
    }

    /// The capacity, in sectors, of data device `dev`, if there is one.
    pub(crate) fn capacity(&self, dev: usize) -> Option<u64> {
        self.inner.borrow().data_capacity.get(dev).copied()
    }

    /// The block target behind data device `dev` — a single-disk driver or
    /// a volume, depending on how the driver was started.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is out of range.
    pub fn data_target(&self, dev: usize) -> SharedBlockDevice {
        Rc::clone(&self.inner.borrow().data[dev])
    }

    /// The epoch this driver instance writes under.
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().header.epoch
    }

    /// Number of disjoint sector ranges pinned in buffer memory.
    pub fn pinned_blocks(&self) -> usize {
        self.inner.borrow().pinned.len()
    }

    /// Number of sectors pinned in buffer memory, awaiting write-back.
    pub fn pinned_sectors(&self) -> u64 {
        self.inner.borrow().pinned.sectors()
    }

    /// `true` while the log disk is out of free tracks and writes queue.
    pub fn is_stalled(&self) -> bool {
        self.inner.borrow().stalled
    }

    /// Attaches a telemetry recorder, cascading to the log disk and every
    /// data-disk driver (which in turn cascade to their own disks). The
    /// default is a [`trail_telemetry::NullRecorder`], which costs nothing.
    pub fn set_recorder(&self, recorder: RecorderHandle) {
        let mut d = self.inner.borrow_mut();
        d.log_disk.set_recorder(Rc::clone(&recorder));
        for drv in &d.data {
            drv.set_recorder(Rc::clone(&recorder));
        }
        d.lifecycle.set_recorder(recorder);
    }

    /// Records a core-layer event through the shared lifecycle emitter.
    fn emit(&self, at: SimTime, dur: SimDuration, kind: EventKind) {
        self.inner.borrow().lifecycle.event(at, dur, None, kind);
    }

    // ------------------------------------------------------------------
    // Log-disk path
    // ------------------------------------------------------------------

    fn service_log(&self, sim: &mut Simulator) {
        let action = self.plan_log_action(sim.now());
        match action {
            LogAction::None => {}
            LogAction::ArmIdle => self.arm_idle_timer(sim),
            LogAction::Reposition => self.reposition(sim),
            LogAction::Dispatch { lba, bytes, ctx } => {
                let driver = self.clone();
                let log_disk = self.inner.borrow().log_disk.clone();
                let done = sim.completion(
                    move |sim: &mut Simulator, res: Delivered<DiskResult>| match res {
                        Ok(res) => driver.on_log_write_done(sim, res, ctx),
                        Err(e) => driver.on_log_write_failed(sim, ctx, e),
                    },
                );
                let data = bytes.into();
                log_disk
                    .submit(sim, DiskCommand::Write { lba, data }, done)
                    .unwrap_or_else(|e| panic!("log disk rejected a planned record write: {e}"));
            }
        }
    }

    fn plan_log_action(&self, now: SimTime) -> LogAction {
        let mut d = self.inner.borrow_mut();
        if d.log_busy {
            return LogAction::None;
        }
        if d.log_queue.is_empty() {
            if d.idle_timer.is_none() && d.idle_refresh_count < d.config.max_idle_refreshes {
                return LogAction::ArmIdle;
            }
            return LogAction::None;
        }
        let Some(cur) = d.current.as_ref() else {
            return if d.stalled {
                LogAction::None
            } else {
                LogAction::Reposition
            };
        };
        let track = cur.track;
        let first_lba = d.geometry.track_first_lba(track);
        debug_assert_eq!(
            d.predictor
                .reference()
                .and_then(|r| d.geometry.track_of_lba(r.lba)),
            Some(track),
            "reference point must live on the current track"
        );
        let (pred_sector, _) = d
            .predictor
            .predict_on_track(track, now)
            .expect("driver always holds a reference point");
        let first_need = 1 + d.log_queue.front().expect("queue nonempty").sectors();
        let Some(s) = d
            .current
            .as_ref()
            .expect("checked above")
            .find_fit(pred_sector, first_need)
        else {
            return if d.stalled {
                LogAction::None
            } else {
                LogAction::Reposition
            };
        };
        let cur = d.current.as_ref().expect("checked above");
        let run = cur.free_run_len(s);
        let miss = (s != pred_sector).then(|| cur.miss_cause(pred_sector));
        let cap = (run - 1).min(d.effective_max_batch);
        let mut batch = Vec::new();
        let mut total = 0u32;
        while let Some(front) = d.log_queue.front() {
            let n = front.sectors();
            if total + n > cap {
                break;
            }
            let depth = d.log_queue.len() as u32;
            let w = d.log_queue.pop_front().expect("front observed");
            if let Some(c) = w.ack.borrow().done.as_ref() {
                d.lifecycle.dispatch(now, c.id().raw(), depth);
            }
            total += n;
            batch.push(w);
        }
        debug_assert!(!batch.is_empty(), "first request was checked to fit");
        let header_lba = first_lba + u64::from(s);
        let seq = d.next_seq;
        d.next_seq += 1;
        let (log_head_lba, log_head_seq) = match d.active_records.iter().next() {
            Some((&oldest_seq, rec)) => (rec.header_lba, oldest_seq),
            None => (header_lba as u32, seq),
        };
        let writes: Vec<RecordWrite<'_>> = batch
            .iter()
            .map(|w| RecordWrite {
                data_major: w.dev,
                data_minor: 0,
                data_lba: w.lba as u32,
                data: w.data.as_bytes().expect("a queued write holds its bytes"),
            })
            .collect();
        let (_, bytes) = build_record(
            d.header.epoch,
            seq,
            d.prev_record_lba,
            log_head_lba,
            log_head_seq,
            header_lba as u32,
            &writes,
        )
        .expect("batch bounded by MAX_TRAIL_BATCH");
        let prev_record_lba = d.prev_record_lba.replace(header_lba as u32);
        d.log_busy = true;
        LogAction::Dispatch {
            lba: header_lba,
            bytes,
            ctx: RecordCtx {
                seq,
                prev_record_lba,
                track,
                header_sector: s,
                total_sectors: total,
                batch,
                miss,
            },
        }
    }

    fn on_log_write_done(&self, sim: &mut Simulator, res: DiskResult, ctx: RecordCtx) {
        let completed = res.completed;
        let batch_len = ctx.batch.len() as u32;
        let mut acks: Vec<(Completion<IoDone>, IoDone)> = Vec::new();
        let mut writebacks: Vec<Extent> = Vec::new();
        let reposition_next;
        {
            let mut d = self.inner.borrow_mut();
            let last_lba = d.geometry.track_first_lba(ctx.track)
                + u64::from(ctx.header_sector + ctx.total_sectors);
            d.predictor
                .set_reference(completed, last_lba, CommandKind::Write);
            let cur = d.current.as_mut().expect("record written to current track");
            debug_assert_eq!(cur.track, ctx.track);
            cur.mark_used(ctx.header_sector, ctx.total_sectors + 1);
            d.pool.add_record(ctx.track);
            d.stats.log_records += 1;
            d.stats.batch_sizes.push(ctx.total_sectors);
            if d.lost_revolution(&res.breakdown) {
                d.stats.lost_revolutions.record_writes += 1;
            }
            if let Some(cause) = ctx.miss {
                d.stats.predict_misses.record(cause, res.breakdown.rotation);
            }
            let header_lba =
                (d.geometry.track_first_lba(ctx.track) + u64::from(ctx.header_sector)) as u32;
            d.active_records.insert(
                ctx.seq,
                ActiveRecord {
                    track: ctx.track,
                    header_lba,
                },
            );
            for mut w in ctx.batch {
                // The pinned range is the payload interned where the record
                // just landed: each sector shares its log copy's body, and
                // the queued buffer goes with its last handle.
                w.data.intern(&d.log_pool);
                if d.pinned.log(w.dev, w.lba, w.data, ctx.seq, &mut writebacks) {
                    d.stats.overlapping_writes += 1;
                }
                let mut ack = w.ack.borrow_mut();
                ack.remaining -= 1;
                // (A write whose other piece failed is answered already.)
                let last = if ack.remaining == 0 {
                    ack.done.take()
                } else {
                    None
                };
                if let Some(done_c) = last {
                    let done = IoDone {
                        id: trail_blockio::RequestId(0),
                        lba: ack.lba,
                        kind: CommandKind::Write,
                        data: None,
                        issued: ack.issued,
                        completed,
                        breakdown: ServiceBreakdown::default(),
                    };
                    let lat = completed.duration_since(ack.issued);
                    d.stats.sync_write_latency.record(lat);
                    d.lifecycle.complete(
                        ack.issued,
                        done_c.id().raw(),
                        RequestBreakdown {
                            queue: lat - res.breakdown.total,
                            overhead: res.breakdown.overhead,
                            seek: res.breakdown.seek,
                            rotation: res.breakdown.rotation,
                            transfer: res.breakdown.transfer,
                            total: lat,
                        },
                    );
                    acks.push((done_c, done));
                }
            }
            d.stats.peak_pinned_sectors = d.stats.peak_pinned_sectors.max(d.pinned.sectors());
            d.log_busy = false;
            let cur = d.current.as_ref().expect("still current");
            reposition_next = d.config.reposition_every_write
                || cur.utilization() >= d.config.track_util_threshold;
        }
        self.emit(
            res.issued,
            completed.duration_since(res.issued),
            EventKind::BatchFlush { batch: batch_len },
        );
        self.emit(
            completed,
            SimDuration::ZERO,
            if ctx.miss.is_none() {
                EventKind::PredictHit
            } else {
                EventKind::PredictMiss
            },
        );
        for extent in writebacks {
            self.start_writebacks(sim, extent);
        }
        // Reposition (or service the queue) *before* returning completions:
        // "after each request is serviced, the Trail driver moves the disk
        // head to the next track before it starts to service the next
        // request(s)" (§4.2). Completion delivery is deferred, so an ack
        // handler that submits a new write always finds the head already on
        // its way to a fresh track.
        if reposition_next {
            self.reposition(sim);
        } else {
            self.service_log(sim);
        }
        for (c, done) in acks {
            c.complete(sim, done);
        }
    }

    /// The log disk failed a record: it is as if the record had never been
    /// planned — the chain links past it and its sectors stay free — and it
    /// is never acknowledged. A transient error puts the batch back at the
    /// head of the queue to be planned again. Any other error fails every
    /// writer in the batch, and every one queued behind it, with it: the
    /// log disk is gone, as for `StandardDriver`.
    fn on_log_write_failed(&self, sim: &mut Simulator, ctx: RecordCtx, e: IoError) {
        let retry = e == IoError::Transient;
        let failed: Vec<Completion<IoDone>> = {
            let mut d = self.inner.borrow_mut();
            d.next_seq = ctx.seq;
            d.prev_record_lba = ctx.prev_record_lba;
            d.log_busy = false;
            if retry {
                for w in ctx.batch.into_iter().rev() {
                    d.log_queue.push_front(w);
                }
                Vec::new()
            } else {
                let queued = std::mem::take(&mut d.log_queue);
                let writers = ctx.batch.iter().chain(&queued);
                writers
                    .filter_map(|w| w.ack.borrow_mut().done.take())
                    .collect()
            }
        };
        for done in failed {
            done.fail(sim, e);
        }
        if retry {
            self.service_log(sim);
        }
    }

    fn reposition(&self, sim: &mut Simulator) {
        let next = {
            let mut d = self.inner.borrow_mut();
            if d.log_busy {
                return;
            }
            match d.pool.allocate_next() {
                None => {
                    if !d.stalled {
                        d.stalled = true;
                        d.stats.stalls += 1;
                    }
                    None
                }
                Some(next) => {
                    if let Some(cur) = d.current.take() {
                        let util = cur.utilization();
                        d.stats.track_utilization.push(util);
                    }
                    Some(next)
                }
            }
        };
        if let Some(next) = next {
            self.read_reference(sim, next);
        }
    }

    /// The repositioning read: one sector of freshly allocated track
    /// `next`, aimed where the head will arrive, whose completion is the
    /// new reference point. A transient error reads again on the same
    /// track. Any other error settles on `next` with the failure instant
    /// standing in for the reference point — the disk is gone, so the
    /// writes queued behind are planned there and fail through their
    /// records.
    fn read_reference(&self, sim: &mut Simulator, next: u64) {
        let (lba, log_disk) = {
            let mut d = self.inner.borrow_mut();
            let (_, lba) = d
                .predictor
                .predict_on_track(next, sim.now())
                .unwrap_or((0, d.geometry.track_first_lba(next)));
            d.log_busy = true;
            (lba, d.log_disk.clone())
        };
        let driver = self.clone();
        let done = sim.completion(move |sim: &mut Simulator, res: Delivered<DiskResult>| {
            driver.inner.borrow_mut().log_busy = false;
            let res = match res {
                Err(IoError::Transient) => return driver.read_reference(sim, next),
                res => res.ok(),
            };
            {
                let mut d = driver.inner.borrow_mut();
                let first = d.geometry.track_first_lba(next);
                let (at, lba) = res
                    .as_ref()
                    .map_or((sim.now(), first), |r| (r.completed, r.lba));
                d.predictor.set_reference(at, lba, CommandKind::Read);
                let spt = d.geometry.spt_of_track(next);
                d.current = Some(CurrentTrack::new(next, spt));
                if let Some(res) = &res {
                    d.stats.repositions += 1;
                    d.stats.reposition_time += res.breakdown.total;
                    if d.lost_revolution(&res.breakdown) {
                        d.stats.lost_revolutions.reposition_reads += 1;
                    }
                }
            }
            if let Some(res) = res {
                driver.emit(
                    res.issued,
                    res.completed.duration_since(res.issued),
                    EventKind::Reposition { track: next },
                );
            }
            driver.service_log(sim);
        });
        log_disk
            .submit(sim, DiskCommand::Read { lba, count: 1 }, done)
            .unwrap_or_else(|e| panic!("log disk rejected a repositioning read: {e}"));
    }

    fn arm_idle_timer(&self, sim: &mut Simulator) {
        let delay = self.inner.borrow().config.idle_reposition_after;
        let driver = self.clone();
        let id = sim.schedule_in(delay, move |sim| {
            driver.on_idle_timer(sim);
        });
        self.inner.borrow_mut().idle_timer = Some(id);
    }

    /// Idle reference refresh (§3.1's periodic repositioning). A real
    /// driver re-arms this forever; here one refresh per idle period keeps
    /// the event queue finite (the virtual spindle does not drift, so one
    /// refresh is enough for fidelity and testability).
    fn on_idle_timer(&self, sim: &mut Simulator) {
        {
            let mut d = self.inner.borrow_mut();
            d.idle_timer = None;
            if d.log_busy || !d.log_queue.is_empty() || d.current.is_none() {
                return;
            }
            d.idle_refresh_count += 1;
        }
        self.refresh_reference(sim);
    }

    /// The idle refresh read, at the sector predicted under the head. A
    /// transient error reads again; any other error goes back to servicing
    /// the queue.
    fn refresh_reference(&self, sim: &mut Simulator) {
        let (target, log_disk) = {
            let mut d = self.inner.borrow_mut();
            let track = d.current.as_ref().expect("checked by the timer").track;
            let (_, pred) = d
                .predictor
                .predict_on_track(track, sim.now())
                .expect("driver always holds a reference point");
            d.log_busy = true;
            (pred, d.log_disk.clone())
        };
        let driver = self.clone();
        let done = sim.completion(move |sim: &mut Simulator, res: Delivered<DiskResult>| {
            driver.inner.borrow_mut().log_busy = false;
            match res {
                Err(IoError::Transient) => return driver.refresh_reference(sim),
                Err(_) => {}
                Ok(res) => {
                    let mut d = driver.inner.borrow_mut();
                    d.predictor
                        .set_reference(res.completed, res.lba, CommandKind::Read);
                    d.stats.idle_refreshes += 1;
                    if d.lost_revolution(&res.breakdown) {
                        d.stats.lost_revolutions.idle_refreshes += 1;
                    }
                }
            }
            driver.service_log(sim);
        });
        let cmd = DiskCommand::Read {
            lba: target,
            count: 1,
        };
        log_disk
            .submit(sim, cmd, done)
            .unwrap_or_else(|e| panic!("log disk rejected an idle refresh read: {e}"));
    }

    // ------------------------------------------------------------------
    // Data-disk write-back path
    // ------------------------------------------------------------------

    /// Issues the write-back of every pinned range overlapping `extent`
    /// that no in-flight write-back overlaps.
    fn start_writebacks(&self, sim: &mut Simulator, (dev, lba, mut end): Extent) {
        // Highest-starting first: the next candidate starts below the last.
        while end > lba {
            let (started, seq, data, drv) = {
                let mut d = self.inner.borrow_mut();
                let Some((started, seq, data)) = d.pinned.start_writeback((dev, lba, end)) else {
                    return;
                };
                end = started.1;
                d.stats.writebacks += 1;
                (started, seq, data, d.data[started.0 as usize].clone())
            };
            self.emit(
                sim.now(),
                SimDuration::ZERO,
                EventKind::WriteBack {
                    dev,
                    lba: started.1,
                },
            );
            let driver = self.clone();
            let wb = sim.completion(move |sim, d: Delivered<IoDone>| match d {
                Ok(_) => driver.on_writeback_done(sim, started, seq),
                Err(e) => driver.on_writeback_failed(sim, started, e),
            });
            drv.submit(sim, IoRequest::write(started.1, data), wb)
                .unwrap_or_else(|e| panic!("data target rejected a validated write-back: {e}"));
        }
    }

    fn on_writeback_done(&self, sim: &mut Simulator, extent: Extent, seq: u64) {
        let (superseded, unstalled) = {
            let mut d = self.inner.borrow_mut();
            let landed = d.pinned.land(extent, seq);
            if landed.superseded {
                d.stats.superseded_writebacks += 1;
            }
            let mut freed = 0;
            for seq in landed.released {
                let rec = d
                    .active_records
                    .remove(&seq)
                    .expect("a released record is active");
                freed += d.pool.commit_record(rec.track);
            }
            let unstall = d.stalled && freed > 0;
            if unstall {
                d.stalled = false;
            }
            (landed.superseded, unstall)
        };
        if superseded {
            // What a newer write pinned over this extent can go now.
            self.start_writebacks(sim, extent);
        }
        if unstalled {
            // Tracks freed while writers were waiting: move to a fresh
            // track and drain the queue.
            self.reposition(sim);
        }
    }

    /// The data target failed the write-back of `extent`: nothing of it is
    /// known to be on the disk, so it stays pinned and its records stay
    /// live. A transient error issues it again; after any other the
    /// records wait for recovery to replay them.
    fn on_writeback_failed(&self, sim: &mut Simulator, extent: Extent, e: IoError) {
        self.inner.borrow_mut().pinned.fail_writeback(extent);
        if e == IoError::Transient {
            self.start_writebacks(sim, extent);
        }
    }
}

impl Inner {
    /// Whether a log-disk command waited more than ¾ of a revolution for
    /// its first sector: it lost the revolution its prediction aimed to
    /// save.
    fn lost_revolution(&self, service: &ServiceBreakdown) -> bool {
        service.rotation.as_nanos() * 4 > self.header.rotation_period.as_nanos() * 3
    }
}

/// The block targets Trail runs raw data disks behind: one queueing driver
/// per disk, C-LOOK with reads ahead of write-backs (paper §4.3).
pub(crate) fn raw_targets(disks: &[Disk]) -> Vec<SharedBlockDevice> {
    disks
        .iter()
        .map(|d| {
            Rc::new(StandardDriver::with_policy(
                d.clone(),
                Box::new(Clook::default()),
                Priority::ReadsFirst,
            )) as SharedBlockDevice
        })
        .collect()
}

impl fmt::Debug for TrailDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.borrow();
        f.debug_struct("TrailDriver")
            .field("epoch", &d.header.epoch)
            .field("log_queue", &d.log_queue.len())
            .field("pinned", &d.pinned.len())
            .field("active_records", &d.active_records.len())
            .field("stalled", &d.stalled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{format_log_disk, FormatOptions};
    use trail_blockio::{BlockDevice, IoKind, RequestId};
    use trail_disk::{profiles, DiskError};

    /// A data target that accepts every write and holds it — request and
    /// completion — until the test releases it, so what sits "in the data
    /// disk's queue" can be looked at.
    #[derive(Debug, Default)]
    struct HoldingTarget {
        held: RefCell<VecDeque<(IoRequest, Completion<IoDone>)>>,
        landed: RefCell<Vec<(Lba, Vec<u8>)>>,
    }

    impl HoldingTarget {
        /// Services the oldest held write: its bytes land, its submitter
        /// hears about it on the next step.
        fn release_one(&self, sim: &mut Simulator) {
            let (req, done) = self.held.borrow_mut().pop_front().expect("a held write");
            let IoKind::Write { data } = &req.kind else {
                unreachable!("only writes are held")
            };
            self.landed.borrow_mut().push((req.lba, data.to_vec()));
            let now = sim.now();
            done.complete(
                sim,
                IoDone {
                    id: RequestId(0),
                    lba: req.lba,
                    kind: CommandKind::Write,
                    data: None,
                    issued: now,
                    completed: now,
                    breakdown: ServiceBreakdown::default(),
                },
            );
        }
    }

    impl BlockDevice for HoldingTarget {
        fn submit(
            &self,
            _: &mut Simulator,
            req: IoRequest,
            done: Completion<IoDone>,
        ) -> Result<RequestId, DiskError> {
            assert!(!req.kind.is_read(), "the test issues no read miss");
            self.held.borrow_mut().push_back((req, done));
            Ok(RequestId(0))
        }

        fn capacity_sectors(&self) -> u64 {
            1 << 20
        }

        fn pending(&self) -> usize {
            self.held.borrow().len()
        }

        fn set_recorder(&self, _: RecorderHandle) {}
    }

    #[test]
    fn a_pinned_block_and_its_queued_write_back_are_one_buffer() {
        let mut sim = Simulator::new();
        let log = Disk::new("log", profiles::tiny_test_disk());
        format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
        let pool = log.pool();
        let target = Rc::new(HoldingTarget::default());
        let (drv, _) = TrailDriver::start_with_targets(
            &mut sim,
            log,
            vec![Rc::clone(&target) as SharedBlockDevice],
            TrailConfig::default(),
        )
        .expect("boot");
        let lba = 64;
        // Eight sectors with distinct bodies, so each is one image.
        let version = |fill: u8| -> Vec<u8> {
            (0..8 * SECTOR_SIZE)
                .map(|i| fill.wrapping_add((i / SECTOR_SIZE) as u8))
                .collect()
        };
        let full_slots = || {
            let s = pool.stats();
            s.distinct_sectors - s.short_images - s.alias_images
        };
        let write = |sim: &mut Simulator, fill: u8| {
            let done = sim.completion(|_, d: Delivered<IoDone>| drop(d.expect("durable")));
            drv.write(sim, 0, lba, version(fill), done)
                .expect("accepted");
            sim.run();
        };
        // Whether the map's pinned range at `lba` is a held request's
        // payload, and what that payload reads.
        let queued = |i: usize| {
            let held = target.held.borrow();
            let IoKind::Write { data } = &held[i].0.kind else {
                unreachable!("only writes are held")
            };
            let d = drv.inner.borrow();
            let pinned = d.pinned.data_at(0, lba).expect("pinned");
            assert!(
                pinned.as_bytes().is_none(),
                "a landed range lives in the pool"
            );
            (pinned.ptr_eq(data), data.to_vec())
        };

        // Acknowledged, write-back queued: the pinned range and the queued
        // request are one handle, and pinning added aliases of the log
        // copies' bodies, not a full slot of its own.
        let before = (full_slots(), pool.stats().alias_images);
        write(&mut sim, 0xA1);
        assert_eq!(target.pending(), 1);
        assert_eq!(queued(0), (true, version(0xA1)));
        assert_eq!(drv.pinned_sectors(), 8);
        let record = full_slots() - before.0;
        assert_eq!(
            (record, pool.stats().alias_images - before.1),
            (8, 8),
            "the log copies take the eight full slots, the pinned sectors alias them"
        );

        // Overwritten while that write-back is still queued: the map's
        // handle is replaced, the queued request keeps the bytes it was
        // enqueued with, and no second write-back joins it.
        write(&mut sim, 0xB2);
        assert_eq!(target.pending(), 1);
        assert_eq!(queued(0), (false, version(0xA1)));
        assert_eq!(full_slots() - before.0, 2 * record);

        // The stale write-back lands the old version and is superseded;
        // its retry ships the pinned range's handle itself.
        target.release_one(&mut sim);
        sim.run();
        assert_eq!(drv.with_stats(|s| s.superseded_writebacks), 1);
        assert_eq!(drv.pinned_blocks(), 1);
        assert_eq!(target.pending(), 1);
        assert_eq!(queued(0), (true, version(0xB2)));
        target.release_one(&mut sim);
        sim.run();
        assert_eq!((drv.pinned_blocks(), drv.pinned_sectors()), (0, 0));
        assert_eq!(
            drv.with_stats(|s| (s.writebacks, s.superseded_writebacks, s.peak_pinned_sectors)),
            (2, 1, 8)
        );
        assert_eq!(
            *target.landed.borrow(),
            [(64, version(0xA1)), (64, version(0xB2))]
        );
    }

    #[test]
    fn the_pinned_sector_peak_counts_held_write_backs_and_drains_to_zero() {
        let mut sim = Simulator::new();
        let log = Disk::new("log", profiles::tiny_test_disk());
        format_log_disk(&mut sim, &log, FormatOptions::default()).expect("format");
        let target = Rc::new(HoldingTarget::default());
        let (drv, _) = TrailDriver::start_with_targets(
            &mut sim,
            log,
            vec![Rc::clone(&target) as SharedBlockDevice],
            TrailConfig::default(),
        )
        .expect("boot");
        // N disjoint writes of 1..=4 sectors, every write-back held.
        let sizes: Vec<u64> = (0..12).map(|i| 1 + i % 4).collect();
        let mut lba = 0;
        for &n in &sizes {
            let done = sim.completion(|_, d: Delivered<IoDone>| drop(d.expect("durable")));
            let data = vec![lba as u8; n as usize * SECTOR_SIZE];
            drv.write(&mut sim, 0, lba, data, done).expect("accepted");
            sim.run();
            lba += n + 1;
        }
        let total: u64 = sizes.iter().sum();
        assert_eq!(target.pending(), sizes.len());
        assert_eq!(drv.pinned_sectors(), total);
        assert_eq!(drv.with_stats(|s| s.peak_pinned_sectors), total);
        while target.pending() > 0 {
            target.release_one(&mut sim);
            sim.run();
        }
        assert_eq!(drv.pinned_sectors(), 0);
        assert_eq!(drv.with_stats(|s| s.peak_pinned_sectors), total);
    }
}
