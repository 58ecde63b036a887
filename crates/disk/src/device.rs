//! The simulated disk device: one-command-at-a-time service, persistence,
//! statistics, and power-failure injection.
//!
//! [`Disk`] is a cheaply cloneable handle (`Rc<RefCell<_>>`) so that driver
//! layers and completion events can all reach the same device. The device
//! itself has **no queue**: like real drive electronics of the paper's era
//! (no tagged queuing in the prototype), it services exactly one command at
//! a time, and the driver above is responsible for queueing — which is
//! exactly where Trail's batching happens.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use trail_sim::{
    BusyMeter, Completion, DurationHistogram, Fault, FaultKind, FaultSink, FaultTarget, IoError,
    SimDuration, SimTime, Simulator,
};
use trail_telemetry::{null_recorder, Event, EventKind, JsonValue, Layer, RecorderHandle};

use crate::geometry::{DiskGeometry, Lba, SECTOR_SIZE};
use crate::mechanics::{CommandKind, HeadPosition, MechanicalModel, ServiceBreakdown};
use crate::payload::PayloadBuf;
use crate::store::{SectorBuf, SectorStore};

/// A command submitted to a disk.
#[derive(Debug)]
pub enum DiskCommand {
    /// Read `count` sectors starting at `lba`.
    Read {
        /// First sector.
        lba: Lba,
        /// Number of sectors (must be positive).
        count: u32,
    },
    /// Write `data` (a whole number of sectors) starting at `lba`.
    Write {
        /// First sector.
        lba: Lba,
        /// Sector-aligned payload.
        data: PayloadBuf,
    },
    /// Move the arm to the track containing `lba` without transferring.
    Seek {
        /// Target sector (identifies the track).
        lba: Lba,
    },
}

impl DiskCommand {
    fn kind(&self) -> CommandKind {
        match self {
            DiskCommand::Read { .. } => CommandKind::Read,
            DiskCommand::Write { .. } => CommandKind::Write,
            DiskCommand::Seek { .. } => CommandKind::Seek,
        }
    }

    fn lba(&self) -> Lba {
        match self {
            DiskCommand::Read { lba, .. }
            | DiskCommand::Write { lba, .. }
            | DiskCommand::Seek { lba } => *lba,
        }
    }
}

/// The completion record delivered to a command's callback.
#[derive(Clone, Debug)]
pub struct DiskResult {
    /// The command's kind.
    pub kind: CommandKind,
    /// The command's first LBA.
    pub lba: Lba,
    /// Data read from the medium (reads only).
    pub data: Option<Vec<u8>>,
    /// When the command was submitted.
    pub issued: SimTime,
    /// When the command completed (interrupt time).
    pub completed: SimTime,
    /// Mechanical timing decomposition.
    pub breakdown: ServiceBreakdown,
}

/// A command the caller got wrong, returned synchronously by
/// [`Disk::submit`]. What the device itself does to a command — a
/// transient error, a failed medium, a power cut — is not a `DiskError`:
/// it is the [`IoError`] the command's completion is delivered with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskError {
    /// A command is already in flight; the device takes one at a time.
    Busy,
    /// The addressed range falls outside the disk.
    OutOfRange,
    /// A write payload was empty or not sector-aligned.
    BadDataLength,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Busy => write!(f, "disk is busy servicing another command"),
            DiskError::OutOfRange => write!(f, "addressed sector range is outside the disk"),
            DiskError::BadDataLength => {
                write!(
                    f,
                    "write payload must be a positive multiple of {SECTOR_SIZE} bytes"
                )
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// Aggregated per-disk measurements.
#[derive(Clone, Debug, Default)]
pub struct DiskStats {
    /// Completed read commands.
    pub reads: u64,
    /// Completed write commands.
    pub writes: u64,
    /// Completed seek commands.
    pub seeks: u64,
    /// Sectors transferred by reads.
    pub sectors_read: u64,
    /// Sectors transferred by writes.
    pub sectors_written: u64,
    /// Busy-time accounting (command in flight).
    pub busy: BusyMeter,
    /// Rotational latency, one sample per transfer command — the quantity
    /// Trail's head prediction is designed to eliminate.
    pub rotation_waits: DurationHistogram,
    /// Sum of fixed command overheads.
    pub total_overhead: SimDuration,
    /// Sum of seek (arm movement) time.
    pub total_seek: SimDuration,
    /// Sum of rotational latency.
    pub total_rotation: SimDuration,
    /// Sum of media transfer time.
    pub total_transfer: SimDuration,
    /// Commands consumed by injected transient errors.
    pub injected_errors: u64,
    /// Total service time added by injected latency spikes.
    pub injected_delay: SimDuration,
}

/// Host-side counters of one disk's recording medium: what the simulated
/// bytes cost the simulating process. They describe the host, not the
/// simulated hardware, so they belong on consoles and in host-side
/// reports, never in a deterministic `BENCH_*.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MediumStats {
    /// Sectors ever written ([`SectorStore::written_sectors`]).
    pub written_sectors: u64,
    /// Sector images kept for them ([`SectorStore::distinct_sectors`]).
    pub distinct_sectors: u64,
    /// Host bytes the medium keeps allocated
    /// ([`SectorStore::resident_bytes`]): `index_bytes + pool_bytes`.
    pub resident_bytes: u64,
    /// The LBA index's share of them ([`SectorStore::index_bytes`]).
    pub index_bytes: u64,
    /// The image pool's share of them ([`SectorStore::pool_bytes`]).
    pub pool_bytes: u64,
    /// Images kept in half a slot because their second half is zero
    /// ([`SectorStore::short_images`]).
    pub short_images: u64,
}

impl MediumStats {
    /// The counters as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let num = |v: u64| JsonValue::Num(v as f64);
        JsonValue::obj(vec![
            ("written_sectors", num(self.written_sectors)),
            ("distinct_sectors", num(self.distinct_sectors)),
            ("resident_bytes", num(self.resident_bytes)),
            ("index_bytes", num(self.index_bytes)),
            ("pool_bytes", num(self.pool_bytes)),
            ("short_images", num(self.short_images)),
        ])
    }
}

impl std::ops::AddAssign for MediumStats {
    /// Sums two media, field by field: the medium of a stack is the sum
    /// over its disks.
    fn add_assign(&mut self, other: Self) {
        self.written_sectors += other.written_sectors;
        self.distinct_sectors += other.distinct_sectors;
        self.resident_bytes += other.resident_bytes;
        self.index_bytes += other.index_bytes;
        self.pool_bytes += other.pool_bytes;
        self.short_images += other.short_images;
    }
}

/// The in-flight write's payload handle, staged whole (moved from the
/// command; the bytes are copied once, onto the medium) with per-sector media-completion instants so a power cut
/// can persist exactly the sectors already on the medium.
struct StagedWrite {
    lba: Lba,
    data: PayloadBuf,
    sector_done: Vec<SimTime>,
}

struct DiskInner {
    name: String,
    geometry: DiskGeometry,
    mech: MechanicalModel,
    store: SectorStore,
    head: HeadPosition,
    busy: bool,
    prev_was_write: bool,
    powered: bool,
    failed: bool,
    power_epoch: u64,
    in_flight: Option<StagedWrite>,
    // When each sector of each write lands, once `log_landings` asked.
    landings: Option<Vec<Vec<SimTime>>>,
    // Armed transient-fault charges (see `inject_transient_errors` /
    // `inject_latency_spike`); each affected command consumes one.
    transient_errors: u32,
    spike_extra: SimDuration,
    spike_count: u32,
    stats: DiskStats,
    recorder: RecorderHandle,
}

/// A simulated disk drive. Clones share the same device.
///
/// # Examples
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk, DiskCommand, SECTOR_SIZE};
///
/// let mut sim = Simulator::new();
/// let disk = Disk::new("log", profiles::seagate_st41601n());
/// let done = Rc::new(Cell::new(false));
/// let flag = Rc::clone(&done);
/// let token = sim.completion(move |_, res: trail_sim::Delivered<trail_disk::DiskResult>| {
///     let res = res.expect("delivered");
///     assert!(res.completed > res.issued);
///     flag.set(true);
/// });
/// disk.submit(
///     &mut sim,
///     DiskCommand::Write { lba: 0, data: vec![0xAB; SECTOR_SIZE].into() },
///     token,
/// )
/// .unwrap();
/// sim.run();
/// assert!(done.get());
/// ```
#[derive(Clone)]
pub struct Disk {
    inner: Rc<RefCell<DiskInner>>,
}

impl Disk {
    /// Creates a powered-on disk with an all-zero medium and the arm on
    /// cylinder 0, surface 0.
    pub fn new(name: impl Into<String>, profile: crate::profiles::DriveProfile) -> Self {
        let capacity = profile.geometry.total_sectors();
        Disk {
            inner: Rc::new(RefCell::new(DiskInner {
                name: name.into(),
                geometry: profile.geometry,
                mech: profile.mech,
                store: SectorStore::new(capacity),
                head: HeadPosition::default(),
                busy: false,
                prev_was_write: false,
                powered: true,
                failed: false,
                power_epoch: 0,
                in_flight: None,
                landings: None,
                transient_errors: 0,
                spike_extra: SimDuration::ZERO,
                spike_count: 0,
                stats: DiskStats::default(),
                recorder: null_recorder(),
            })),
        }
    }

    /// Attaches a telemetry recorder. The default [`null_recorder`] keeps
    /// instrumentation free; an enabled recorder receives one
    /// [`Event`] per mechanical phase of every completed command.
    pub fn set_recorder(&self, recorder: RecorderHandle) {
        self.inner.borrow_mut().recorder = recorder;
    }

    /// The device's name (for diagnostics).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// A copy of the device's geometry.
    pub fn geometry(&self) -> DiskGeometry {
        self.inner.borrow().geometry.clone()
    }

    /// A copy of the device's mechanical model.
    pub fn mechanics(&self) -> MechanicalModel {
        self.inner.borrow().mech.clone()
    }

    /// Whether a command is currently in flight.
    pub fn is_busy(&self) -> bool {
        self.inner.borrow().busy
    }

    /// Whether the device has power.
    pub fn is_powered(&self) -> bool {
        self.inner.borrow().powered
    }

    /// Whether the device has suffered an injected whole-member failure.
    pub fn is_failed(&self) -> bool {
        self.inner.borrow().failed
    }

    /// Runs `f` against the accumulated statistics.
    pub fn with_stats<R>(&self, f: impl FnOnce(&DiskStats) -> R) -> R {
        f(&self.inner.borrow().stats)
    }

    /// Host-side counters of the recording medium. Unlike
    /// [`with_stats`](Self::with_stats) they are not reset by
    /// [`reset_stats`](Self::reset_stats): they describe what is stored.
    pub fn medium_stats(&self) -> MediumStats {
        let d = self.inner.borrow();
        MediumStats {
            written_sectors: d.store.written_sectors() as u64,
            distinct_sectors: d.store.distinct_sectors() as u64,
            resident_bytes: d.store.resident_bytes() as u64,
            index_bytes: d.store.index_bytes() as u64,
            pool_bytes: d.store.pool_bytes() as u64,
            short_images: d.store.short_images() as u64,
        }
    }

    /// Resets the accumulated statistics (the medium is untouched).
    ///
    /// # Panics
    ///
    /// Panics if a command is in flight (its busy interval would be torn).
    pub fn reset_stats(&self) {
        let mut d = self.inner.borrow_mut();
        assert!(!d.busy, "cannot reset stats while a command is in flight");
        d.stats = DiskStats::default();
    }

    /// Submits a command; `done` is delivered from the event loop at
    /// completion (the interrupt). A command the device cannot carry out
    /// is still accepted, and `done` is delivered the reason, with no
    /// mechanical side effects: [`IoError::MediaFailed`] on a failed
    /// disk, [`IoError::PoweredOff`] on a dark one, and
    /// [`IoError::Transient`] when an injected transient error consumes
    /// it. A power cut or failure with the command in flight delivers
    /// `PoweredOff` or `MediaFailed` at the instant it would have
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns an error without side effects if the device is busy, the
    /// range is outside the disk, or a write payload is not
    /// sector-aligned (the token is consumed, delivered `Cancelled`).
    pub fn submit(
        &self,
        sim: &mut Simulator,
        cmd: DiskCommand,
        done: Completion<DiskResult>,
    ) -> Result<(), DiskError> {
        let now = sim.now();
        let (plan, kind, lba, count, epoch, from_cyl) = {
            let mut d = self.inner.borrow_mut();
            if d.busy {
                return Err(DiskError::Busy);
            }
            let kind = cmd.kind();
            let lba = cmd.lba();
            let mut plan = match &cmd {
                DiskCommand::Read { lba, count } => {
                    if *count == 0 {
                        return Err(DiskError::OutOfRange);
                    }
                    d.mech
                        .plan(
                            &d.geometry,
                            now,
                            d.head,
                            CommandKind::Read,
                            *lba,
                            *count,
                            d.prev_was_write,
                        )
                        .ok_or(DiskError::OutOfRange)?
                }
                DiskCommand::Write { lba, data } => {
                    if data.is_empty() || data.len() % SECTOR_SIZE != 0 {
                        return Err(DiskError::BadDataLength);
                    }
                    let count = (data.len() / SECTOR_SIZE) as u32;
                    d.mech
                        .plan(
                            &d.geometry,
                            now,
                            d.head,
                            CommandKind::Write,
                            *lba,
                            count,
                            d.prev_was_write,
                        )
                        .ok_or(DiskError::OutOfRange)?
                }
                DiskCommand::Seek { lba } => d
                    .mech
                    .plan_seek(&d.geometry, now, d.head, *lba)
                    .ok_or(DiskError::OutOfRange)?,
            };
            let refused = if d.failed {
                Some(IoError::MediaFailed)
            } else if !d.powered {
                Some(IoError::PoweredOff)
            } else if d.transient_errors > 0 {
                d.transient_errors -= 1;
                d.stats.injected_errors += 1;
                Some(IoError::Transient)
            } else {
                None
            };
            if let Some(e) = refused {
                drop(d);
                done.fail(sim, e);
                return Ok(());
            }
            // An armed latency spike stretches this command by `extra`
            // of controller overhead at the front: the completion
            // interrupt and every per-sector media instant shift by the
            // same amount, so the breakdown still sums exactly and a
            // power cut during the spiked command persists the right
            // prefix.
            if d.spike_count > 0 {
                d.spike_count -= 1;
                let extra = d.spike_extra;
                plan.completion += extra;
                for t in &mut plan.sector_done {
                    *t += extra;
                }
                plan.breakdown.overhead += extra;
                plan.breakdown.total += extra;
                d.stats.injected_delay += extra;
            }
            let count = match &cmd {
                DiskCommand::Read { count, .. } => *count,
                DiskCommand::Write { data, .. } => (data.len() / SECTOR_SIZE) as u32,
                DiskCommand::Seek { .. } => 0,
            };
            // Stage the write payload and its per-sector instants by moving
            // them out of the command and the plan — no copies on the happy
            // path. (`count` keeps the transfer length for telemetry.)
            if let DiskCommand::Write { lba, data } = cmd {
                if let Some(log) = &mut d.landings {
                    log.push(plan.sector_done.clone());
                }
                debug_assert!(d.in_flight.is_none(), "one command in flight at a time");
                d.in_flight = Some(StagedWrite {
                    lba,
                    data,
                    sector_done: std::mem::take(&mut plan.sector_done),
                });
            }
            d.busy = true;
            d.stats.busy.start(now);
            (plan, kind, lba, count, d.power_epoch, d.head.cylinder)
        };

        let disk = self.clone();
        sim.schedule_at(plan.completion, move |sim| {
            let (result, telemetry) = {
                let mut d = disk.inner.borrow_mut();
                if !d.powered || d.power_epoch != epoch {
                    // Power was cut, or the disk failed, while this
                    // command was in flight: deliver which, now, where
                    // the command would have completed.
                    let e = if d.failed {
                        IoError::MediaFailed
                    } else {
                        IoError::PoweredOff
                    };
                    drop(d);
                    done.fail(sim, e);
                    return;
                }
                // Persist the staged write (all sectors transferred by now).
                if let Some(w) = d.in_flight.take() {
                    d.store.write_range(w.lba, &w.data);
                }
                let data = if kind == CommandKind::Read {
                    Some(d.store.read_range(lba, count))
                } else {
                    None
                };
                d.head = plan.end_head;
                d.busy = false;
                d.prev_was_write = kind == CommandKind::Write;
                let now = sim.now();
                d.stats.busy.stop(now);
                match kind {
                    CommandKind::Read => {
                        d.stats.reads += 1;
                        d.stats.sectors_read += u64::from(count);
                    }
                    CommandKind::Write => {
                        d.stats.writes += 1;
                        d.stats.sectors_written += u64::from(count);
                    }
                    CommandKind::Seek => d.stats.seeks += 1,
                }
                if kind != CommandKind::Seek {
                    d.stats.rotation_waits.record(plan.breakdown.rotation);
                }
                d.stats.total_overhead += plan.breakdown.overhead;
                d.stats.total_seek += plan.breakdown.seek;
                d.stats.total_rotation += plan.breakdown.rotation;
                d.stats.total_transfer += plan.breakdown.transfer;
                let telemetry = d.recorder.enabled().then(|| {
                    (
                        Rc::clone(&d.recorder),
                        d.name.clone(),
                        d.mech.rotation_period,
                        d.head.cylinder,
                    )
                });
                let result = DiskResult {
                    kind,
                    lba,
                    data,
                    issued: now - plan.breakdown.total,
                    completed: now,
                    breakdown: plan.breakdown,
                };
                (result, telemetry)
            };
            if let Some((recorder, name, rotation_period, to_cyl)) = telemetry {
                emit_phase_events(
                    &*recorder,
                    &name,
                    &result,
                    count,
                    plan.track_switches,
                    rotation_period,
                    (from_cyl, to_cyl),
                );
            }
            done.complete(sim, result);
        });
        Ok(())
    }

    /// Cuts power at `now`. Sectors whose media transfer completed before
    /// `now` persist; the rest of any in-flight command is lost, and its
    /// completion token is delivered `Err(IoError::PoweredOff)` at the
    /// instant the command would have completed.
    pub fn power_cut(&self, now: SimTime) {
        let mut d = self.inner.borrow_mut();
        if !d.powered {
            return;
        }
        d.powered = false;
        d.power_epoch += 1;
        if let Some(w) = d.in_flight.take() {
            // Sectors land in order, so those already on the medium are a
            // prefix of the staged payload.
            debug_assert!(w.sector_done.is_sorted());
            let landed = w.sector_done.iter().take_while(|&&at| at <= now).count();
            d.store.write_range(w.lba, &w.data[..landed * SECTOR_SIZE]);
        }
        if d.busy {
            d.busy = false;
            d.stats.busy.stop(now);
        }
    }

    /// Fails the whole member at `now`: any in-flight command is lost (its
    /// token is delivered `Err(IoError::MediaFailed)` at the instant the
    /// command would have completed) and every subsequent
    /// [`Disk::submit`] delivers `MediaFailed`. Unlike a power
    /// cut, nothing of an in-flight write persists and [`Disk::power_on`]
    /// does not revive the device — a failed member stays failed, which
    /// is what RAID degraded-mode paths are rebuilt against.
    pub fn fail(&self, now: SimTime) {
        let mut d = self.inner.borrow_mut();
        if d.failed {
            return;
        }
        d.failed = true;
        // Bumping the epoch makes the pending completion event fail its
        // token instead of delivering a result — as a power cut does.
        d.power_epoch += 1;
        d.in_flight = None;
        if d.busy {
            d.busy = false;
            d.stats.busy.stop(now);
        }
    }

    /// Arms `count` transient I/O errors: each of the next `count`
    /// submitted commands is delivered [`IoError::Transient`] with no
    /// mechanical side effects. Charges accumulate across calls.
    pub fn inject_transient_errors(&self, count: u32) {
        self.inner.borrow_mut().transient_errors += count;
    }

    /// Arms `count` latency spikes: each of the next `count` submitted
    /// commands takes `extra` longer, accounted as controller overhead.
    /// Charges accumulate; the most recent `extra` wins.
    pub fn inject_latency_spike(&self, extra: SimDuration, count: u32) {
        let mut d = self.inner.borrow_mut();
        d.spike_extra = extra;
        d.spike_count += count;
    }

    /// A fault-plane sink for this device: registering it on a
    /// [`FaultClock`](trail_sim::FaultClock) makes the device honor
    /// [`FaultTarget::System`] faults plus those addressed to `role`.
    pub fn fault_sink(&self, role: DiskRole) -> Rc<dyn FaultSink> {
        Rc::new(DiskFaultSink {
            disk: self.clone(),
            role,
        })
    }

    /// Starts logging when each sector of every later write lands, for
    /// [`cut_instants`](crate::cut_instants). Absent and free until then.
    pub fn log_landings(&self) {
        let mut d = self.inner.borrow_mut();
        d.landings.get_or_insert_with(Vec::new);
    }

    /// The logged landing instants, one list per write in submission order.
    /// They are planned at submission: a cut write lists them all.
    pub fn landings(&self) -> Vec<Vec<SimTime>> {
        self.inner.borrow().landings.clone().unwrap_or_default()
    }

    /// Restores power. The arm recalibrates to cylinder 0, surface 0; the
    /// medium is untouched.
    pub fn power_on(&self) {
        let mut d = self.inner.borrow_mut();
        if d.powered {
            return;
        }
        d.powered = true;
        d.head = HeadPosition::default();
        d.prev_was_write = false;
    }

    /// Reads a sector directly off the medium, bypassing timing.
    ///
    /// Intended for test assertions and post-mortem inspection only; the
    /// Trail recovery path performs *timed* reads through [`submit`].
    ///
    /// [`submit`]: Disk::submit
    pub fn peek_sector(&self, lba: Lba) -> SectorBuf {
        self.inner.borrow().store.read_sector(lba)
    }

    /// Writes a sector directly onto the medium, bypassing timing.
    ///
    /// Intended for formatting tools and test setup.
    pub fn poke_sector(&self, lba: Lba, data: &SectorBuf) {
        self.inner.borrow_mut().store.write_sector(lba, data);
    }

    /// The current arm position (test/diagnostic use).
    pub fn head_position(&self) -> HeadPosition {
        self.inner.borrow().head
    }
}

/// Replays a completed command's mechanical phases into the recorder as
/// consecutive spans. For multi-track transfers the per-phase sums are
/// rendered as single spans (the decomposition stays exact; only the
/// interleaving of repeated seek/rotate/transfer cycles is collapsed).
fn emit_phase_events(
    recorder: &dyn trail_telemetry::Recorder,
    name: &str,
    result: &DiskResult,
    sectors: u32,
    track_switches: u32,
    rotation_period: SimDuration,
    (from_cyl, to_cyl): (u32, u32),
) {
    let b = result.breakdown;
    let ev = |at: SimTime, dur: SimDuration, kind: EventKind| Event {
        at,
        dur,
        layer: Layer::Disk,
        source: name.to_string(),
        req: None,
        kind,
    };
    let mut t = result.issued + b.overhead;
    if !b.seek.is_zero() || result.kind == CommandKind::Seek {
        recorder.record(ev(t, b.seek, EventKind::Seek { from_cyl, to_cyl }));
    }
    t += b.seek;
    if result.kind == CommandKind::Seek {
        return;
    }
    recorder.record(ev(t, b.rotation, EventKind::RotWait));
    // "Just missed it": the command paid at least 90% of a revolution
    // waiting for its sector to come around again.
    if b.rotation.as_nanos() * 10 >= rotation_period.as_nanos() * 9 {
        recorder.record(ev(t, SimDuration::ZERO, EventKind::FullRotationMiss));
    }
    t += b.rotation;
    recorder.record(ev(t, b.transfer, EventKind::Transfer { sectors }));
    if track_switches > 0 {
        recorder.record(ev(
            t,
            SimDuration::ZERO,
            EventKind::TrackSwitch {
                switches: track_switches,
            },
        ));
    }
}

/// The role a device plays in a stack, for fault-plane addressing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskRole {
    /// Data disk `i` in stack device order — matches
    /// [`FaultTarget::Data`].
    Data(usize),
    /// Log disk `i` in instance order — matches [`FaultTarget::Log`].
    Log(usize),
}

struct DiskFaultSink {
    disk: Disk,
    role: DiskRole,
}

impl FaultSink for DiskFaultSink {
    fn apply(&self, sim: &mut Simulator, fault: &Fault) -> bool {
        let addressed = match (fault.target, self.role) {
            (FaultTarget::System, _) => true,
            (FaultTarget::Data(i), DiskRole::Data(j)) => i == j,
            (FaultTarget::Log(i), DiskRole::Log(j)) => i == j,
            _ => false,
        };
        if !addressed {
            return false;
        }
        match fault.kind {
            FaultKind::PowerCut => self.disk.power_cut(sim.now()),
            FaultKind::Fail => self.disk.fail(sim.now()),
            FaultKind::TransientError { count } => self.disk.inject_transient_errors(count),
            FaultKind::LatencySpike { extra, count } => {
                self.disk.inject_latency_spike(extra, count)
            }
        }
        true
    }
}

impl fmt::Debug for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.borrow();
        f.debug_struct("Disk")
            .field("name", &d.name)
            .field("busy", &d.busy)
            .field("powered", &d.powered)
            .field("failed", &d.failed)
            .field("head", &d.head)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use std::cell::Cell;

    fn setup() -> (Simulator, Disk) {
        (Simulator::new(), Disk::new("t", profiles::tiny_test_disk()))
    }

    fn write_buf(byte: u8, sectors: usize) -> PayloadBuf {
        vec![byte; sectors * SECTOR_SIZE].into()
    }

    #[test]
    fn write_then_read_round_trips_through_commands() {
        let (mut sim, disk) = setup();
        let got = Rc::new(RefCell::new(None));
        let d2 = disk.clone();
        let got2 = Rc::clone(&got);
        let token = sim.completion(move |sim: &mut Simulator, res: Delivered<DiskResult>| {
            assert_eq!(res.expect("delivered").kind, CommandKind::Write);
            let read_done = sim.completion(move |_, res: Delivered<DiskResult>| {
                *got2.borrow_mut() = res.expect("delivered").data;
            });
            d2.submit(sim, DiskCommand::Read { lba: 7, count: 2 }, read_done)
                .unwrap();
        });
        disk.submit(
            &mut sim,
            DiskCommand::Write {
                lba: 7,
                data: write_buf(0x5A, 2),
            },
            token,
        )
        .unwrap();
        sim.run();
        assert_eq!(got.borrow().as_deref(), Some(&write_buf(0x5A, 2)[..]));
    }

    #[test]
    fn busy_disk_rejects_submission() {
        let (mut sim, disk) = setup();
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        disk.submit(&mut sim, DiskCommand::Read { lba: 0, count: 1 }, token)
            .unwrap();
        assert!(disk.is_busy());
        // The rejected submission consumes its token: the submitter hears
        // Err(Cancelled) instead of waiting forever.
        let rejected = Rc::new(Cell::new(false));
        let r2 = Rc::clone(&rejected);
        let token = sim.completion(move |_, res: Delivered<DiskResult>| {
            r2.set(res.is_err());
        });
        let err = disk
            .submit(&mut sim, DiskCommand::Read { lba: 0, count: 1 }, token)
            .unwrap_err();
        assert_eq!(err, DiskError::Busy);
        sim.run();
        assert!(!disk.is_busy());
        assert!(rejected.get(), "rejected token must cancel-cascade");
    }

    #[test]
    fn rejects_bad_requests() {
        let (mut sim, disk) = setup();
        let cap = disk.geometry().total_sectors();
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        assert_eq!(
            disk.submit(&mut sim, DiskCommand::Read { lba: cap, count: 1 }, token)
                .unwrap_err(),
            DiskError::OutOfRange
        );
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        assert_eq!(
            disk.submit(&mut sim, DiskCommand::Read { lba: 0, count: 0 }, token)
                .unwrap_err(),
            DiskError::OutOfRange
        );
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        assert_eq!(
            disk.submit(
                &mut sim,
                DiskCommand::Write {
                    lba: 0,
                    data: vec![1, 2, 3].into(),
                },
                token
            )
            .unwrap_err(),
            DiskError::BadDataLength
        );
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        assert_eq!(
            disk.submit(
                &mut sim,
                DiskCommand::Write {
                    lba: 0,
                    data: Vec::new().into(),
                },
                token
            )
            .unwrap_err(),
            DiskError::BadDataLength
        );
    }

    #[test]
    fn seek_moves_head_without_touching_medium() {
        let (mut sim, disk) = setup();
        let g = disk.geometry();
        let target = g.track_first_lba(5);
        let token = sim.completion(|_, res: Delivered<DiskResult>| {
            let res = res.expect("delivered");
            assert_eq!(res.kind, CommandKind::Seek);
            assert!(res.data.is_none());
        });
        disk.submit(&mut sim, DiskCommand::Seek { lba: target }, token)
            .unwrap();
        sim.run();
        let (cyl, head) = g.track_to_cyl_head(5);
        assert_eq!(disk.head_position().cylinder, cyl);
        assert_eq!(disk.head_position().head, head);
        assert_eq!(disk.with_stats(|s| s.seeks), 1);
    }

    #[test]
    fn stats_accumulate() {
        let (mut sim, disk) = setup();
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        disk.submit(
            &mut sim,
            DiskCommand::Write {
                lba: 0,
                data: write_buf(1, 3),
            },
            token,
        )
        .unwrap();
        sim.run();
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        disk.submit(&mut sim, DiskCommand::Read { lba: 0, count: 3 }, token)
            .unwrap();
        sim.run();
        disk.with_stats(|s| {
            assert_eq!(s.writes, 1);
            assert_eq!(s.reads, 1);
            assert_eq!(s.sectors_written, 3);
            assert_eq!(s.sectors_read, 3);
            assert_eq!(s.rotation_waits.count(), 2);
            assert!(s.busy.busy_time() > SimDuration::ZERO);
            assert!(!s.busy.is_busy());
        });
        disk.reset_stats();
        disk.with_stats(|s| assert_eq!(s.writes, 0));
    }

    #[test]
    fn power_cut_mid_transfer_persists_prefix_only() {
        let (mut sim, disk) = setup();
        // A multi-sector write; cut power after the 2nd sector lands.
        let fired = Rc::new(Cell::new(None));
        let f = Rc::clone(&fired);
        let token = sim.completion(move |_, res: Delivered<DiskResult>| {
            f.set(Some(res.map(|_| ())));
        });
        disk.submit(
            &mut sim,
            DiskCommand::Write {
                lba: 0,
                data: write_buf(0x77, 8),
            },
            token,
        )
        .unwrap();
        // Find the moment 2 sectors are done: peek into the plan indirectly
        // by advancing a little at a time until exactly 2 sectors persist.
        let mech = disk.mechanics();
        let g = disk.geometry();
        // overhead + rotation to sector 0 + 2 sector times, plus epsilon.
        let t0 = SimTime::ZERO + mech.overhead(CommandKind::Write, false);
        let rot = mech.time_until_angle(t0, g.sector_angle(0, 0));
        let cut = t0 + rot + mech.sector_time(g.spt_of_track(0)) * 2 + SimDuration::from_nanos(10);
        sim.run_until(cut);
        disk.power_cut(sim.now());
        sim.run();
        assert_eq!(
            fired.get(),
            Some(Err(IoError::PoweredOff)),
            "token must be delivered powered-off after power cut"
        );
        assert_eq!(disk.peek_sector(0)[0], 0x77);
        assert_eq!(disk.peek_sector(1)[0], 0x77);
        assert_eq!(disk.peek_sector(2)[0], 0x00, "third sector was torn off");
        // Power back on: medium intact, device usable again.
        disk.power_on();
        assert!(disk.is_powered());
        assert!(!disk.is_busy());
        let ok = Rc::new(Cell::new(false));
        let ok2 = Rc::clone(&ok);
        let token = sim.completion(move |_, res: Delivered<DiskResult>| {
            assert_eq!(res.expect("delivered").data.unwrap()[0], 0x77);
            ok2.set(true);
        });
        disk.submit(&mut sim, DiskCommand::Read { lba: 0, count: 1 }, token)
            .unwrap();
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn power_cut_tears_a_write_of_identical_sectors_at_the_sector_boundary() {
        // Eight sectors holding one shared old image are overwritten by
        // eight copies of one new image. The medium keeps each image once,
        // so a cut after k sectors must still leave exactly k new sectors:
        // sharing a slot may not leak the new image to the sectors whose
        // transfer had not finished, nor the old one to those that had.
        let (old, new) = ([0x11u8; SECTOR_SIZE], [0x99u8; SECTOR_SIZE]);
        for k in 0..=8u64 {
            let (mut sim, disk) = setup();
            for lba in 0..8 {
                disk.poke_sector(lba, &old);
            }
            let token = sim.completion(|_, _: Delivered<DiskResult>| {});
            let data = write_buf(0x99, 8);
            disk.log_landings();
            disk.submit(&mut sim, DiskCommand::Write { lba: 0, data }, token)
                .unwrap();
            // Exactly when sector k - 1 lands (`sector_done <= now`
            // persists it); one nanosecond short of sector 0 for k = 0.
            let landings = &disk.landings()[0];
            let cut = match k {
                0 => landings[0] - SimDuration::from_nanos(1),
                k => landings[k as usize - 1],
            };
            sim.run_until(cut);
            disk.power_cut(sim.now());
            sim.run();
            for lba in 0..8 {
                let want = if lba < k { new } else { old };
                assert_eq!(disk.peek_sector(lba), want, "cut after {k}: lba {lba}");
            }
            let m = disk.medium_stats();
            assert_eq!(m.written_sectors, 8);
            assert_eq!(m.distinct_sectors, if k == 0 || k == 8 { 1 } else { 2 });
        }
    }

    #[test]
    fn power_cut_prefix_may_end_inside_the_second_index_page_it_crosses() {
        // 24 sectors from LBA 8 cross the medium's 16-LBA index pages at
        // LBA 16; the cut lands 12 of them, so the persisted prefix fills
        // the rest of one page and stops four entries into the next.
        let (mut sim, disk) = setup();
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        let data: PayloadBuf = (0..24 * SECTOR_SIZE)
            .map(|i| 1 + (i / SECTOR_SIZE) as u8)
            .collect::<Vec<u8>>()
            .into();
        disk.submit(&mut sim, DiskCommand::Write { lba: 8, data }, token)
            .unwrap();
        let mech = disk.mechanics();
        let g = disk.geometry();
        let t0 = SimTime::ZERO + mech.overhead(CommandKind::Write, false);
        let rot = mech.time_until_angle(t0, g.sector_angle(0, 8));
        sim.run_until(t0 + rot + mech.sector_time(g.spt_of_track(0)) * 12);
        disk.power_cut(sim.now());
        sim.run();
        for lba in 0..40u64 {
            let want = if (8..20).contains(&lba) {
                [1 + (lba - 8) as u8; SECTOR_SIZE]
            } else {
                [0u8; SECTOR_SIZE]
            };
            assert_eq!(disk.peek_sector(lba), want, "lba {lba}");
        }
        assert_eq!(disk.medium_stats().written_sectors, 12);
    }

    #[test]
    fn medium_stats_describe_the_store_and_survive_a_stats_reset() {
        let (mut sim, disk) = setup();
        assert_eq!(disk.medium_stats(), MediumStats::default());
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        let data = write_buf(0x42, 8);
        disk.submit(&mut sim, DiskCommand::Write { lba: 16, data }, token)
            .unwrap();
        sim.run();
        disk.reset_stats();
        let m = disk.medium_stats();
        assert_eq!((m.written_sectors, m.distinct_sectors), (8, 1));
        assert!(m.index_bytes > 0 && m.pool_bytes > 0);
        assert_eq!(m.resident_bytes, m.index_bytes + m.pool_bytes);
        assert_eq!(
            m.to_json().to_json(),
            format!(
                "{{\"written_sectors\":8,\"distinct_sectors\":1,\"resident_bytes\":{},\
                 \"index_bytes\":{},\"pool_bytes\":{},\"short_images\":0}}",
                m.resident_bytes, m.index_bytes, m.pool_bytes
            )
        );
    }

    /// Runs one read to its delivery.
    fn read_one(sim: &mut Simulator, disk: &Disk) -> Delivered<DiskResult> {
        sim.block_on(|sim, done| disk.submit(sim, DiskCommand::Read { lba: 0, count: 1 }, done))
            .expect("a well-formed read is accepted")
    }

    #[test]
    fn powered_off_disk_rejects_commands() {
        let (mut sim, disk) = setup();
        disk.power_cut(sim.now());
        assert_eq!(read_one(&mut sim, &disk).unwrap_err(), IoError::PoweredOff);
        assert!(!disk.is_busy());
        // A malformed command is still the caller's error, dark disk or not.
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        assert_eq!(
            disk.submit(&mut sim, DiskCommand::Read { lba: 0, count: 0 }, token)
                .unwrap_err(),
            DiskError::OutOfRange
        );
    }

    #[test]
    fn failed_disk_rejects_commands_and_stays_failed() {
        let (mut sim, disk) = setup();
        disk.fail(sim.now());
        assert!(disk.is_failed());
        assert_eq!(read_one(&mut sim, &disk).unwrap_err(), IoError::MediaFailed);
        // Power cycling does not resurrect a failed member.
        disk.power_cut(sim.now());
        disk.power_on();
        assert_eq!(read_one(&mut sim, &disk).unwrap_err(), IoError::MediaFailed);
    }

    #[test]
    fn scheduled_failure_cancels_in_flight_command() {
        let (mut sim, disk) = setup();
        let outcome = Rc::new(Cell::new(None));
        let o2 = Rc::clone(&outcome);
        let token = sim.completion(move |sim: &mut Simulator, res: Delivered<DiskResult>| {
            o2.set(Some((sim.now(), res.map(|_| ()))));
        });
        disk.submit(
            &mut sim,
            DiskCommand::Write {
                lba: 0,
                data: write_buf(0x44, 8),
            },
            token,
        )
        .unwrap();
        // Fail mid-service via the fault plane: the write must fail, not
        // complete, and nothing of it lands on the medium.
        let clock = FaultClock::new();
        clock.register(disk.fault_sink(DiskRole::Data(0)));
        clock.arm(
            &mut sim,
            &FaultPlan::new().with(Fault {
                at: SimDuration::from_nanos(100),
                target: FaultTarget::Data(0),
                kind: FaultKind::Fail,
            }),
        );
        sim.run();
        assert_eq!(clock.fired(), 1);
        assert_eq!(clock.unhandled(), 0);
        let (at, res) = outcome.get().expect("delivered");
        assert_eq!(res, Err(IoError::MediaFailed), "in-flight command failed");
        assert!(
            at > SimTime::ZERO + SimDuration::from_nanos(100),
            "at its completion instant"
        );
        assert!(disk.is_failed());
        assert!(!disk.is_busy());
        assert_eq!(disk.peek_sector(0)[0], 0, "failed write left no sectors");
    }

    #[test]
    fn peek_poke_bypass_timing() {
        let (_, disk) = setup();
        let mut buf = [0u8; SECTOR_SIZE];
        buf[9] = 9;
        disk.poke_sector(42, &buf);
        assert_eq!(disk.peek_sector(42)[9], 9);
    }

    #[test]
    fn transient_errors_consume_exactly_count_commands() {
        let (mut sim, disk) = setup();
        disk.inject_transient_errors(2);
        for _ in 0..2 {
            assert_eq!(read_one(&mut sim, &disk).unwrap_err(), IoError::Transient);
            assert!(
                !disk.is_busy(),
                "transient error leaves no command in flight"
            );
        }
        // Charges exhausted: the third command services normally.
        let ok = Rc::new(Cell::new(false));
        let ok2 = Rc::clone(&ok);
        let token = sim.completion(move |_, res: Delivered<DiskResult>| {
            ok2.set(res.is_ok());
        });
        disk.submit(&mut sim, DiskCommand::Read { lba: 0, count: 1 }, token)
            .unwrap();
        sim.run();
        assert!(ok.get());
        assert_eq!(disk.with_stats(|s| s.injected_errors), 2);
    }

    #[test]
    fn latency_spike_stretches_service_exactly() {
        let extra = SimDuration::from_millis(30);
        let service = |spiked: bool| {
            let (mut sim, disk) = setup();
            if spiked {
                disk.inject_latency_spike(extra, 1);
            }
            let done_at = Rc::new(Cell::new(SimTime::ZERO));
            let d2 = Rc::clone(&done_at);
            let token = sim.completion(move |sim: &mut Simulator, res: Delivered<DiskResult>| {
                let res = res.expect("delivered");
                assert_eq!(res.breakdown.total, res.completed - res.issued);
                d2.set(sim.now());
            });
            disk.submit(
                &mut sim,
                DiskCommand::Write {
                    lba: 3,
                    data: write_buf(0xEE, 2),
                },
                token,
            )
            .unwrap();
            sim.run();
            assert_eq!(disk.peek_sector(3)[0], 0xEE);
            done_at.get()
        };
        let (base, spiked) = (service(false), service(true));
        assert_eq!(spiked - base, extra, "spike adds exactly `extra`");
    }

    #[test]
    fn power_cut_during_spiked_write_respects_shifted_sector_instants() {
        let (mut sim, disk) = setup();
        let extra = SimDuration::from_millis(50);
        disk.inject_latency_spike(extra, 1);
        let token = sim.completion(|_, _: Delivered<DiskResult>| {});
        disk.submit(
            &mut sim,
            DiskCommand::Write {
                lba: 0,
                data: write_buf(0x31, 4),
            },
            token,
        )
        .unwrap();
        // At the un-spiked completion horizon nothing has landed yet:
        // the spike pushed every media instant out by 50 ms.
        let mech = disk.mechanics();
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(25));
        disk.power_cut(sim.now());
        sim.run();
        assert!(mech.rotation_period < SimDuration::from_millis(25));
        assert_eq!(
            disk.peek_sector(0)[0],
            0,
            "no sector may land inside the spike window"
        );
    }

    use std::cell::RefCell;
    use std::rc::Rc;
    use trail_sim::{Delivered, FaultClock, FaultPlan};
}
