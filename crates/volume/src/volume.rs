//! The volume engine: several member drivers behind one block device.
//!
//! [`RaidVolume`] composes [`StandardDriver`]s into a linear, RAID-0,
//! RAID-1, or RAID-5 array and implements
//! [`BlockDevice`](trail_blockio::BlockDevice), so anything that drives a
//! single disk — the standard stack, Trail's write-back path — can drive
//! an array unchanged.
//!
//! The interesting machinery is RAID-5's small-write path. Every stripe a
//! write touches is brought up to date by one parity rule,
//! reconstruct-write: read the data chunks the write does not wholly
//! cover and compute parity from whole rows. A full stripe reads nothing,
//! and so does a stripe whose parity member has failed (it writes no
//! parity); a stripe that would read a failed data member rebuilds that
//! member's old row from the survivors and the old parity first. Parity
//! never depends on the parity it replaces, so rewriting a stripe torn
//! between its data and parity writes heals it.
//! Those extra mechanical I/Os are exactly the cost Trail's log-append
//! front end hides. Reads of a failed member's chunks are reconstructed
//! by XOR on the fly, and one rule decides whether the members left can
//! serve a request at all, at submission and again when it is planned.
//! Per-stripe serialization (see [`Gate`](crate::Gate)) keeps concurrent
//! parity updates from losing deltas.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use trail_blockio::{BlockDevice, IoDone, IoKind, IoRequest, RequestId, StandardDriver, StreamId};
use trail_disk::{CommandKind, Disk, DiskError, Lba, PayloadBuf, ServiceBreakdown, SECTOR_SIZE};
use trail_sim::{
    Completion, Delivered, DurationHistogram, Fault, FaultKind, FaultSink, FaultTarget, IoError,
    SimTime, Simulator,
};
use trail_telemetry::{JsonValue, RecorderHandle};

use crate::gate::Gate;
use crate::layout::{self, ReadPolicy, VolumeLayout};

/// Mirror-write serialization granularity: writes within the same
/// `2^REGION_SHIFT`-sector region of a RAID-1 volume are ordered, so both
/// mirrors apply overlapping writes identically.
const REGION_SHIFT: u32 = 8;

/// I/O accounting for one member disk.
#[derive(Clone, Debug, Default)]
pub struct MemberStats {
    /// Member-level read latencies (sub-operations, not logical requests).
    pub read_latency: DurationHistogram,
    /// Member-level write latencies.
    pub write_latency: DurationHistogram,
    /// Sectors read from this member.
    pub sectors_read: u64,
    /// Sectors written to this member.
    pub sectors_written: u64,
}

impl MemberStats {
    fn summary_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("reads", JsonValue::Num(self.read_latency.count() as f64)),
            ("writes", JsonValue::Num(self.write_latency.count() as f64)),
            ("sectors_read", JsonValue::Num(self.sectors_read as f64)),
            (
                "sectors_written",
                JsonValue::Num(self.sectors_written as f64),
            ),
            (
                "read_mean_ms",
                JsonValue::Num(self.read_latency.mean().as_millis_f64()),
            ),
            (
                "write_mean_ms",
                JsonValue::Num(self.write_latency.mean().as_millis_f64()),
            ),
            (
                "write_p99_ms",
                JsonValue::Num(self.write_latency.percentile(99.0).as_millis_f64()),
            ),
        ])
    }
}

/// Aggregate volume measurements.
#[derive(Clone, Debug, Default)]
pub struct VolumeStats {
    /// Per-member I/O breakdowns, indexed like the member list.
    pub members: Vec<MemberStats>,
    /// Logical read requests accepted.
    pub logical_reads: u64,
    /// Logical write requests accepted.
    pub logical_writes: u64,
    /// End-to-end logical read latencies.
    pub read_latency: DurationHistogram,
    /// End-to-end logical write latencies.
    pub write_latency: DurationHistogram,
    /// Always 0: RAID-5 has no read-modify-write rule, and this field
    /// is left only for readers outside the workspace, out of every
    /// summary.
    pub rmw_cycles: u64,
    /// RAID-5 full-stripe writes (parity from new data, no reads).
    pub full_stripe_writes: u64,
    /// RAID-5 partial-stripe spans written with parity from whole rows
    /// (rebuilding a failed data member's old row where one is read).
    pub reconstruct_writes: u64,
    /// RAID-5 spans written with the parity member failed.
    pub parityless_writes: u64,
    /// Logical reads that reconstructed data from parity.
    pub degraded_reads: u64,
    /// Members marked failed over the volume's lifetime.
    pub member_failures: u64,
    /// Logical operations replanned after a member failed or a member I/O
    /// hit a transient error.
    pub retried_ops: u64,
}

impl VolumeStats {
    /// Serializes the stats (per-member breakdowns included) to JSON.
    pub fn summary_json(&self) -> JsonValue {
        let members: Vec<JsonValue> = self.members.iter().map(MemberStats::summary_json).collect();
        JsonValue::obj(vec![
            ("logical_reads", JsonValue::Num(self.logical_reads as f64)),
            ("logical_writes", JsonValue::Num(self.logical_writes as f64)),
            (
                "read_mean_ms",
                JsonValue::Num(self.read_latency.mean().as_millis_f64()),
            ),
            (
                "write_mean_ms",
                JsonValue::Num(self.write_latency.mean().as_millis_f64()),
            ),
            (
                "write_p99_ms",
                JsonValue::Num(self.write_latency.percentile(99.0).as_millis_f64()),
            ),
            (
                "full_stripe_writes",
                JsonValue::Num(self.full_stripe_writes as f64),
            ),
            (
                "reconstruct_writes",
                JsonValue::Num(self.reconstruct_writes as f64),
            ),
            (
                "parityless_writes",
                JsonValue::Num(self.parityless_writes as f64),
            ),
            ("degraded_reads", JsonValue::Num(self.degraded_reads as f64)),
            (
                "member_failures",
                JsonValue::Num(self.member_failures as f64),
            ),
            ("retried_ops", JsonValue::Num(self.retried_ops as f64)),
            ("members", JsonValue::Arr(members)),
        ])
    }
}

struct Member {
    driver: StandardDriver,
    disk: Disk,
    failed: bool,
}

struct VolInner {
    name: String,
    layout: VolumeLayout,
    members: Vec<Member>,
    member_caps: Vec<u64>,
    capacity: u64,
    next_id: u64,
    rr_cursor: u64,
    gate: Gate,
    outstanding: usize,
    stats: VolumeStats,
}

/// A software array over several member drivers. Clones share the volume.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk, SECTOR_SIZE};
/// use trail_blockio::{BlockDevice, IoRequest, StandardDriver};
/// use trail_volume::{RaidVolume, VolumeLayout};
///
/// let mut sim = Simulator::new();
/// let members: Vec<StandardDriver> = (0..3)
///     .map(|i| StandardDriver::new(Disk::new(format!("m{i}"), profiles::tiny_test_disk())))
///     .collect();
/// let vol = RaidVolume::new("r5", VolumeLayout::Raid5 { chunk_sectors: 8 }, members);
/// let done = sim.completion(|_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
///     d.expect("small write completes");
/// });
/// vol.submit(&mut sim, IoRequest::write(3, vec![7; SECTOR_SIZE]), done)?;
/// sim.run();
/// // On three members a small write reads only the other data chunk.
/// let reads = |s: &trail_volume::VolumeStats| s.members.iter().map(|m| m.read_latency.count()).sum();
/// assert_eq!(vol.with_stats(|s| (s.reconstruct_writes, reads(s))), (1, 1));
/// # Ok::<(), trail_disk::DiskError>(())
/// ```
#[derive(Clone)]
pub struct RaidVolume {
    inner: Rc<RefCell<VolInner>>,
}

impl RaidVolume {
    /// Assembles `members` into a volume with the given layout.
    ///
    /// # Panics
    ///
    /// Panics if fewer members than the layout's minimum are supplied, or
    /// if a chunked layout is given a zero chunk size.
    pub fn new(name: &str, layout: VolumeLayout, members: Vec<StandardDriver>) -> RaidVolume {
        assert!(
            members.len() >= layout.min_members(),
            "{} needs at least {} members, got {}",
            layout.label(),
            layout.min_members(),
            members.len()
        );
        if let VolumeLayout::Raid0 { chunk_sectors } | VolumeLayout::Raid5 { chunk_sectors } =
            layout
        {
            assert!(chunk_sectors > 0, "chunk size must be positive");
        }
        let member_caps: Vec<u64> = members
            .iter()
            .map(|d| d.disk().geometry().total_sectors())
            .collect();
        let capacity = layout.capacity(&member_caps);
        assert!(capacity > 0, "volume has zero addressable capacity");
        let stats = VolumeStats {
            members: vec![MemberStats::default(); members.len()],
            ..VolumeStats::default()
        };
        let members = members
            .into_iter()
            .map(|driver| {
                let disk = driver.disk();
                Member {
                    driver,
                    disk,
                    failed: false,
                }
            })
            .collect();
        RaidVolume {
            inner: Rc::new(RefCell::new(VolInner {
                name: name.to_string(),
                layout,
                members,
                member_caps,
                capacity,
                next_id: 0,
                rr_cursor: 0,
                gate: Gate::new(),
                outstanding: 0,
                stats,
            })),
        }
    }

    /// The volume's name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// The layout this volume runs.
    pub fn layout(&self) -> VolumeLayout {
        self.inner.borrow().layout
    }

    /// Number of member disks.
    pub fn member_count(&self) -> usize {
        self.inner.borrow().members.len()
    }

    /// Handles to the member disks, in member order.
    pub fn member_disks(&self) -> Vec<Disk> {
        self.inner
            .borrow()
            .members
            .iter()
            .map(|m| m.disk.clone())
            .collect()
    }

    /// Indices of members the volume has marked failed.
    pub fn failed_members(&self) -> Vec<usize> {
        self.inner
            .borrow()
            .members
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.failed.then_some(i))
            .collect()
    }

    /// Addressable capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.inner.borrow().capacity
    }

    /// Fails member `index` now: the disk stops servicing commands and the
    /// volume plans degraded from this point on.
    pub fn fail_member(&self, now: SimTime, index: usize) {
        let mut v = self.inner.borrow_mut();
        if v.members[index].failed {
            return;
        }
        v.members[index].disk.fail(now);
        v.members[index].failed = true;
        v.stats.member_failures += 1;
    }

    /// A fault-plane sink for this volume: registering it on a
    /// [`FaultClock`](trail_sim::FaultClock) makes the volume honor
    /// [`FaultTarget::Member`] faults whose `volume` field equals
    /// `index`. A `Fail` marks the member failed at the volume level
    /// (degraded planning from that instant); power cuts and transient
    /// charges pass through to the member disk without degrading the
    /// array.
    pub fn fault_sink(&self, index: usize) -> Rc<dyn FaultSink> {
        Rc::new(VolumeFaultSink {
            vol: self.clone(),
            index,
        })
    }

    /// Runs `f` against the accumulated statistics.
    pub fn with_stats<R>(&self, f: impl FnOnce(&VolumeStats) -> R) -> R {
        f(&self.inner.borrow().stats)
    }

    /// Submits a logical request against the volume's address space;
    /// `done` is delivered when every member I/O it expands to (including
    /// parity maintenance) has completed — or
    /// [`IoError::MediaFailed`] when too many members have failed for the
    /// layout to service it, or the member error that ended it (see
    /// [`RaidVolume`]'s retry rule in `after_failure`).
    ///
    /// # Errors
    ///
    /// Refuses a malformed request as a [`StandardDriver`] does:
    /// [`DiskError::OutOfRange`] for a range past the volume or a read of
    /// no sector, [`DiskError::BadDataLength`] for an empty or ragged
    /// write; `done` is then cancelled.
    pub fn submit(
        &self,
        sim: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError> {
        let op = {
            let mut v = self.inner.borrow_mut();
            let sectors = req.kind.sectors();
            match &req.kind {
                IoKind::Read { count: 0 } => return Err(DiskError::OutOfRange),
                IoKind::Write { data } if data.is_empty() || data.len() % SECTOR_SIZE != 0 => {
                    return Err(DiskError::BadDataLength)
                }
                _ => {}
            }
            if req.lba + u64::from(sectors) > v.capacity {
                return Err(DiskError::OutOfRange);
            }
            let id = RequestId(v.next_id);
            v.next_id += 1;
            if !serviceable(&v, req.lba, sectors) {
                drop(v);
                done.fail(sim, IoError::MediaFailed);
                return Ok(id);
            }
            v.outstanding += 1;
            if req.kind.is_read() {
                v.stats.logical_reads += 1;
            } else {
                v.stats.logical_writes += 1;
            }
            let payload = match req.kind {
                IoKind::Read { .. } => Payload::Read,
                IoKind::Write { data } => Payload::Write(data),
            };
            Rc::new(RefCell::new(Op {
                id,
                lba: req.lba,
                sectors,
                payload,
                stream: req.stream,
                issued: sim.now(),
                attempt: 0,
                keys: Vec::new(),
                keys_held: false,
                done: Some(done),
            }))
        };
        let id = op.borrow().id;
        start(self, sim, &op);
        Ok(id)
    }
}

struct VolumeFaultSink {
    vol: RaidVolume,
    index: usize,
}

impl FaultSink for VolumeFaultSink {
    fn apply(&self, sim: &mut Simulator, fault: &Fault) -> bool {
        let member = match fault.target {
            FaultTarget::Member { volume, member } if volume == self.index => member,
            _ => return false,
        };
        if member >= self.vol.member_count() {
            return false;
        }
        match fault.kind {
            FaultKind::Fail => self.vol.fail_member(sim.now(), member),
            FaultKind::PowerCut => self.vol.member_disks()[member].power_cut(sim.now()),
            FaultKind::TransientError { count } => {
                self.vol.member_disks()[member].inject_transient_errors(count)
            }
            FaultKind::LatencySpike { extra, count } => {
                self.vol.member_disks()[member].inject_latency_spike(extra, count)
            }
        }
        true
    }
}

impl fmt::Debug for RaidVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.inner.borrow();
        f.debug_struct("RaidVolume")
            .field("name", &v.name)
            .field("layout", &v.layout)
            .field("members", &v.members.len())
            .field("failed", &self.failed_members())
            .field("outstanding", &v.outstanding)
            .finish()
    }
}

impl BlockDevice for RaidVolume {
    fn submit(
        &self,
        sim: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError> {
        RaidVolume::submit(self, sim, req, done)
    }

    fn capacity_sectors(&self) -> u64 {
        RaidVolume::capacity_sectors(self)
    }

    fn pending(&self) -> usize {
        self.inner.borrow().outstanding
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        let v = self.inner.borrow();
        for m in &v.members {
            m.driver.set_recorder(Rc::clone(&recorder));
        }
    }
}

// ---------------------------------------------------------------------------
// The operation state machine.
// ---------------------------------------------------------------------------

enum Payload {
    Read,
    // The logical write's one buffer: every member sub-write is a handle
    // to it or to a sector range of it, and a retry after a mid-operation
    // member failure replans from the same bytes.
    Write(PayloadBuf),
}

struct Op {
    id: RequestId,
    lba: Lba,
    sectors: u32,
    payload: Payload,
    stream: StreamId,
    issued: SimTime,
    attempt: u32,
    keys: Vec<u64>,
    keys_held: bool,
    done: Option<Completion<IoDone>>,
}

type OpRef = Rc<RefCell<Op>>;

/// Serialization keys the operation must hold before planning.
fn needed_keys(v: &VolInner, op: &Op) -> Vec<u64> {
    let is_read = matches!(op.payload, Payload::Read);
    let last = op.lba + u64::from(op.sectors) - 1;
    match v.layout {
        VolumeLayout::Raid1 { .. } if !is_read => {
            ((op.lba >> REGION_SHIFT)..=(last >> REGION_SHIFT)).collect()
        }
        VolumeLayout::Raid5 { chunk_sectors } => {
            // Writes always serialize per stripe (parity updates must not
            // interleave); reads only when reconstruction may be involved.
            if is_read && !v.members.iter().any(|m| m.failed) {
                return Vec::new();
            }
            let dps = u64::from(chunk_sectors) * (v.members.len() as u64 - 1);
            ((op.lba / dps)..=(last / dps)).collect()
        }
        _ => Vec::new(),
    }
}

fn start(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef) {
    let keys = {
        let v = vol.inner.borrow();
        let o = op.borrow();
        needed_keys(&v, &o)
    };
    if keys.is_empty() {
        plan(vol, sim, op);
        return;
    }
    op.borrow_mut().keys = keys.clone();
    let vol2 = vol.clone();
    let op2 = Rc::clone(op);
    let granted = sim.completion(move |sim, d: Delivered<()>| {
        if let Err(e) = d {
            finish_abort(&vol2, sim, &op2, e);
            return;
        }
        op2.borrow_mut().keys_held = true;
        plan(&vol2, sim, &op2);
    });
    vol.inner.borrow_mut().gate.acquire(sim, keys, granted);
}

/// Drops the operation's keys, handing them back to the gate if it holds
/// them (an operation still queued for its keys holds none).
fn release_keys(v: &mut VolInner, o: &mut Op, sim: &mut Simulator) {
    let keys = std::mem::take(&mut o.keys);
    if std::mem::take(&mut o.keys_held) {
        v.gate.release(sim, &keys);
    }
}

/// Releases held keys and runs the operation again from scratch (the
/// degraded-member set may have changed, so keys are recomputed).
fn restart(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef) {
    {
        let mut v = vol.inner.borrow_mut();
        let mut o = op.borrow_mut();
        release_keys(&mut v, &mut o, sim);
    }
    start(vol, sim, op);
}

/// Whether the members left can serve `[lba, lba + sectors)`: on linear
/// and RAID-0 no fragment may land on a failed member, RAID-1 needs one
/// live mirror, RAID-5 tolerates one failed member.
fn serviceable(v: &VolInner, lba: Lba, sectors: u32) -> bool {
    match v.layout {
        VolumeLayout::Linear | VolumeLayout::Raid0 { .. } => striped_frags(v, lba, sectors)
            .iter()
            .all(|f| !v.members[f.member].failed),
        VolumeLayout::Raid1 { .. } => v.members.iter().any(|m| !m.failed),
        VolumeLayout::Raid5 { .. } => v.members.iter().filter(|m| m.failed).count() < 2,
    }
}

/// Plans the operation against the members alive now, or fails it with
/// [`IoError::MediaFailed`] when too many are gone (members may have
/// failed since `submit`, or while it waited for its keys).
fn plan(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef) {
    let (lay, ok, is_read) = {
        let v = vol.inner.borrow();
        let o = op.borrow();
        let is_read = matches!(o.payload, Payload::Read);
        (v.layout, serviceable(&v, o.lba, o.sectors), is_read)
    };
    if !ok {
        return finish_abort(vol, sim, op, IoError::MediaFailed);
    }
    match (lay, is_read) {
        (VolumeLayout::Linear | VolumeLayout::Raid0 { .. }, _) => plan_striped(vol, sim, op),
        (VolumeLayout::Raid1 { read_policy }, true) => plan_mirror_read(vol, sim, op, read_policy),
        (VolumeLayout::Raid1 { .. }, false) => plan_mirror_write(vol, sim, op),
        (VolumeLayout::Raid5 { chunk_sectors }, true) => {
            plan_raid5_read(vol, sim, op, chunk_sectors)
        }
        (VolumeLayout::Raid5 { chunk_sectors }, false) => {
            plan_raid5_write(vol, sim, op, chunk_sectors)
        }
    }
}

fn finish_ok(
    vol: &RaidVolume,
    sim: &mut Simulator,
    op: &OpRef,
    data: Option<PayloadBuf>,
    breakdown: ServiceBreakdown,
) {
    let now = sim.now();
    let (done, io) = {
        let mut v = vol.inner.borrow_mut();
        let mut o = op.borrow_mut();
        release_keys(&mut v, &mut o, sim);
        v.outstanding -= 1;
        let latency = now.duration_since(o.issued);
        let kind = match o.payload {
            Payload::Read => {
                v.stats.read_latency.record(latency);
                CommandKind::Read
            }
            Payload::Write(_) => {
                v.stats.write_latency.record(latency);
                CommandKind::Write
            }
        };
        let done = o.done.take().expect("operation finishes once");
        let io = IoDone {
            id: o.id,
            lba: o.lba,
            kind,
            data,
            issued: o.issued,
            completed: now,
            breakdown,
        };
        (done, io)
    };
    done.complete(sim, io);
}

/// Ends the operation with `e`: the request cannot be serviced (too many
/// failed members), or a member I/O failed in a way a replan cannot mend.
fn finish_abort(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef, e: IoError) {
    let done = {
        let mut v = vol.inner.borrow_mut();
        let mut o = op.borrow_mut();
        release_keys(&mut v, &mut o, sim);
        v.outstanding -= 1;
        o.done.take()
    };
    if let Some(done) = done {
        done.fail(sim, e);
    }
}

/// Handles a gather in which member I/Os failed, deciding on each error:
/// `MediaFailed` marks the member failed, and the operation replans
/// degraded; `Transient` replans as it is. Both spend one attempt of the
/// operation's budget and count in `retried_ops`. Any other error (a power
/// cut, a teardown) fails the operation with it, as does an exhausted
/// budget with the first error seen.
fn after_failure(
    vol: &RaidVolume,
    sim: &mut Simulator,
    op: &OpRef,
    slot_members: &[usize],
    results: &[Delivered<IoDone>],
) {
    let mut first = None;
    let mut fatal = None;
    {
        let mut v = vol.inner.borrow_mut();
        for (slot, r) in results.iter().enumerate() {
            let &Err(e) = r else { continue };
            first.get_or_insert(e);
            match e {
                IoError::MediaFailed => {
                    let m = &mut v.members[slot_members[slot]];
                    if !m.failed {
                        m.failed = true;
                        v.stats.member_failures += 1;
                    }
                }
                IoError::Transient => {}
                IoError::PoweredOff | IoError::Cancelled => {
                    fatal.get_or_insert(e);
                }
            }
        }
    }
    let attempts = {
        let mut o = op.borrow_mut();
        o.attempt += 1;
        o.attempt as usize
    };
    if attempts > vol.member_count() + 1 {
        fatal = fatal.or(first);
    }
    if let Some(e) = fatal {
        finish_abort(vol, sim, op, e);
        return;
    }
    vol.inner.borrow_mut().stats.retried_ops += 1;
    restart(vol, sim, op);
}

/// Sub-requests of one operation, each with the member it goes to.
type MemberIos = Vec<(usize, IoRequest)>;

/// Submits `ios` to their members and completes `token` with what each
/// delivered, once all of them resolve. Member latencies are recorded as
/// each sub-operation completes.
fn submit_batch(
    vol: &RaidVolume,
    sim: &mut Simulator,
    ios: MemberIos,
    token: Completion<Vec<Delivered<IoDone>>>,
) {
    struct Gather {
        left: usize,
        results: Vec<Delivered<IoDone>>,
        token: Option<Completion<Vec<Delivered<IoDone>>>>,
    }
    let n = ios.len();
    if n == 0 {
        token.complete(sim, Vec::new());
        return;
    }
    let gather = Rc::new(RefCell::new(Gather {
        left: n,
        results: (0..n).map(|_| Err(IoError::Cancelled)).collect(),
        token: Some(token),
    }));
    for (slot, (mi, req)) in ios.into_iter().enumerate() {
        let driver = vol.inner.borrow().members[mi].driver.clone();
        let sectors = req.kind.sectors();
        let is_read = req.kind.is_read();
        let vol2 = vol.clone();
        let g = Rc::clone(&gather);
        let sub = sim.completion(move |sim, d: Delivered<IoDone>| {
            let mut gg = g.borrow_mut();
            if let Ok(done) = &d {
                let mut v = vol2.inner.borrow_mut();
                let ms = &mut v.stats.members[mi];
                if is_read {
                    ms.read_latency.record(done.latency());
                    ms.sectors_read += u64::from(sectors);
                } else {
                    ms.write_latency.record(done.latency());
                    ms.sectors_written += u64::from(sectors);
                }
            }
            gg.results[slot] = d;
            gg.left -= 1;
            if gg.left == 0 {
                let results = std::mem::take(&mut gg.results);
                let token = gg.token.take().expect("gather completes once");
                drop(gg);
                token.complete(sim, results);
            }
        });
        // A synchronous rejection cancels `sub`, which resolves the slot
        // as `Cancelled` on the next step — no special handling here.
        let _ = driver.submit(sim, req, sub);
    }
}

/// [`submit_batch`] plus the continuation every plan shares. A write
/// that fails transiently goes out again as it is, under the same keys: it
/// may have torn its RAID-5 stripe, and a replan would compute parity from
/// the torn stripe (by rebuilding a member that fails meanwhile). Each
/// re-send spends an attempt and counts as a retry.
/// Every round's results merge into one slot per sub-operation; then a
/// failed gather aborts the operation, a failed slot goes to
/// [`after_failure`], and otherwise `on_ok` gets every sub-result, in
/// `ios` order.
fn gather<F>(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef, mut ios: MemberIos, on_ok: F)
where
    F: FnOnce(&RaidVolume, &mut Simulator, &OpRef, Vec<IoDone>) + 'static,
{
    let batch = Batch {
        members: ios.iter().map(|(m, _)| *m).collect(),
        copies: ios.iter_mut().map(|(_, req)| resendable(req)).collect(),
        results: ios.iter().map(|_| Err(IoError::Cancelled)).collect(),
        slots: (0..ios.len()).collect(),
        on_ok,
    };
    gather_round(vol, sim, op, ios, batch);
}

/// A gather across its re-send rounds: slot `s` went to `members[s]`, can
/// go again as `copies[s]` (a write) and delivered `results[s]`; `slots`
/// are the ones the round in flight resends.
struct Batch<F> {
    members: Vec<usize>,
    copies: Vec<Option<IoRequest>>,
    results: Vec<Delivered<IoDone>>,
    slots: Vec<usize>,
    on_ok: F,
}

/// A second handle to write `req`, sharing its buffer; `None` for a read.
fn resendable(req: &mut IoRequest) -> Option<IoRequest> {
    let IoKind::Write { data } = &mut req.kind else {
        return None;
    };
    Some(IoRequest::write(req.lba, data.share()).tagged(req.stream))
}

fn gather_round<F>(
    vol: &RaidVolume,
    sim: &mut Simulator,
    op: &OpRef,
    ios: MemberIos,
    mut b: Batch<F>,
) where
    F: FnOnce(&RaidVolume, &mut Simulator, &OpRef, Vec<IoDone>) + 'static,
{
    let vol2 = vol.clone();
    let op2 = Rc::clone(op);
    let token = sim.completion(move |sim, d: Delivered<Vec<Delivered<IoDone>>>| {
        let round = match d {
            Ok(round) => round,
            Err(e) => return finish_abort(&vol2, sim, &op2, e),
        };
        for (&slot, r) in b.slots.iter().zip(round) {
            b.results[slot] = r;
        }
        let torn =
            |&s: &usize| b.copies[s].is_some() && matches!(b.results[s], Err(IoError::Transient));
        b.slots = (0..b.results.len()).filter(torn).collect();
        if !b.slots.is_empty() && (op2.borrow().attempt as usize) <= vol2.member_count() {
            op2.borrow_mut().attempt += 1;
            vol2.inner.borrow_mut().stats.retried_ops += 1;
            let again = (b.slots.iter())
                .map(|&s| (b.members[s], b.copies[s].as_mut().and_then(resendable)))
                .map(|(m, req)| (m, req.expect("a torn slot is a write")))
                .collect();
            return gather_round(&vol2, sim, &op2, again, b);
        }
        if b.results.iter().any(Result::is_err) {
            return after_failure(&vol2, sim, &op2, &b.members, &b.results);
        }
        // (`map`, not `flatten`: this collect reuses the allocation.)
        let results = b.results.into_iter().map(|r| r.expect("checked above"));
        (b.on_ok)(&vol2, sim, &op2, results.collect());
    });
    submit_batch(vol, sim, ios, token);
}

/// The member's part of the logical write, as a view of its buffer.
fn slice_payload(payload: &mut PayloadBuf, logical_off: u64, sectors: u32) -> PayloadBuf {
    payload.sectors(logical_off as usize, sectors as usize)
}

/// `payload`'s bytes, copied into `scratch` (whatever form the payload is
/// kept in), for the parity math to read.
fn bytes_in<'a>(payload: &PayloadBuf, scratch: &'a mut Vec<u8>) -> &'a [u8] {
    scratch.resize(payload.len(), 0);
    payload.copy_to(scratch);
    scratch
}

/// Breakdown of the critical-path (latest-finishing) sub-operation.
fn latest_breakdown(results: &[IoDone]) -> ServiceBreakdown {
    results
        .iter()
        .max_by_key(|d| d.completed)
        .map(|d| d.breakdown)
        .unwrap_or_default()
}

/// The view sub-read `slot` of a gather returned.
fn read_view(results: &[IoDone], slot: usize) -> &PayloadBuf {
    results[slot]
        .data
        .as_ref()
        .expect("read sub-operations carry data")
}

/// Where sectors `[logical_off, logical_off + sectors)` of a logical read
/// come from.
struct ReadPiece {
    logical_off: u64,
    sectors: u32,
    source: ReadSource,
}

enum ReadSource {
    /// The bytes of one sub-read.
    Direct(usize),
    /// The member holding them failed: XOR of the same range on every
    /// surviving member (data and parity alike) reconstructs them.
    Recon(Vec<usize>),
}

/// The logical read `pieces` describe, assembled from a gather's results.
fn assemble_read(pieces: &[ReadPiece], results: &[IoDone], total_sectors: u32) -> PayloadBuf {
    let mut buf = vec![0u8; total_sectors as usize * SECTOR_SIZE];
    let mut scratch = Vec::new();
    for piece in pieces {
        let a = piece.logical_off as usize * SECTOR_SIZE;
        let out = &mut buf[a..a + piece.sectors as usize * SECTOR_SIZE];
        match &piece.source {
            ReadSource::Direct(slot) => read_view(results, *slot).copy_to(out),
            ReadSource::Recon(slots) => {
                for slot in slots {
                    layout::xor_into(out, bytes_in(read_view(results, *slot), &mut scratch));
                }
            }
        }
    }
    buf.into()
}

/// [`gather`]s `ios`, then finishes the operation: a read with the bytes
/// `pieces` assemble, a write with none.
fn gather_finish(
    vol: &RaidVolume,
    sim: &mut Simulator,
    op: &OpRef,
    ios: MemberIos,
    pieces: Vec<ReadPiece>,
) {
    gather(vol, sim, op, ios, move |vol, sim, op, results| {
        let is_read = matches!(op.borrow().payload, Payload::Read);
        let data = is_read.then(|| assemble_read(&pieces, &results, op.borrow().sectors));
        finish_ok(vol, sim, op, data, latest_breakdown(&results));
    });
}

// ---------------------------------------------------------------------------
// Linear / RAID-0.
// ---------------------------------------------------------------------------

/// The fragments `[lba, lba + sectors)` maps to on a linear or RAID-0
/// volume.
fn striped_frags(v: &VolInner, lba: Lba, sectors: u32) -> Vec<layout::Frag> {
    match v.layout {
        VolumeLayout::Linear => layout::linear_map(&v.member_caps, lba, sectors),
        VolumeLayout::Raid0 { chunk_sectors } => {
            layout::raid0_map(v.members.len(), chunk_sectors, lba, sectors)
        }
        _ => unreachable!("only linear and RAID-0 volumes are striped"),
    }
}

fn plan_striped(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef) {
    let (mut ios, mut pieces) = (Vec::new(), Vec::new());
    {
        let v = vol.inner.borrow();
        let o = &mut *op.borrow_mut();
        for f in striped_frags(&v, o.lba, o.sectors) {
            let req = match &mut o.payload {
                Payload::Read => {
                    pieces.push(ReadPiece {
                        logical_off: f.logical_off,
                        sectors: f.sectors,
                        source: ReadSource::Direct(ios.len()),
                    });
                    IoRequest::read(f.member_lba, f.sectors)
                }
                Payload::Write(data) => {
                    IoRequest::write(f.member_lba, slice_payload(data, f.logical_off, f.sectors))
                }
            };
            ios.push((f.member, req.tagged(o.stream)));
        }
    }
    gather_finish(vol, sim, op, ios, pieces);
}

// ---------------------------------------------------------------------------
// RAID-1.
// ---------------------------------------------------------------------------

fn plan_mirror_read(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef, policy: ReadPolicy) {
    let ios = {
        let mut v = vol.inner.borrow_mut();
        let o = op.borrow();
        let alive: Vec<usize> = v
            .members
            .iter()
            .enumerate()
            .filter_map(|(i, m)| (!m.failed).then_some(i))
            .collect();
        let member = match policy {
            ReadPolicy::RoundRobin => {
                let i = (v.rr_cursor % alive.len() as u64) as usize;
                v.rr_cursor = v.rr_cursor.wrapping_add(1);
                alive[i]
            }
            ReadPolicy::NearestHead => *alive
                .iter()
                .min_by_key(|&&i| {
                    let m = &v.members[i];
                    let target = m
                        .disk
                        .geometry()
                        .lba_to_chs(o.lba)
                        .map(|c| c.cylinder)
                        .unwrap_or(0);
                    let head = m.disk.head_position().cylinder;
                    target.abs_diff(head)
                })
                .expect("a serviceable mirror has a live member"),
        };
        vec![(member, IoRequest::read(o.lba, o.sectors).tagged(o.stream))]
    };
    gather(vol, sim, op, ios, |vol, sim, op, mut results| {
        let done = results.remove(0);
        finish_ok(vol, sim, op, done.data, done.breakdown);
    });
}

/// One write per surviving member, every one a handle to the logical
/// write's buffer.
fn mirror_write_ios(v: &VolInner, o: &mut Op) -> MemberIos {
    let Payload::Write(data) = &mut o.payload else {
        unreachable!("mirror write plan requires a write payload")
    };
    v.members
        .iter()
        .enumerate()
        .filter(|(_, m)| !m.failed)
        .map(|(i, _)| (i, IoRequest::write(o.lba, data.share()).tagged(o.stream)))
        .collect()
}

fn plan_mirror_write(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef) {
    let ios = mirror_write_ios(&vol.inner.borrow(), &mut op.borrow_mut());
    gather_finish(vol, sim, op, ios, Vec::new());
}

// ---------------------------------------------------------------------------
// RAID-5.
// ---------------------------------------------------------------------------

fn plan_raid5_read(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef, chunk: u32) {
    let (ios, pieces) = {
        let mut v = vol.inner.borrow_mut();
        let o = op.borrow();
        let n = v.members.len();
        let (mut ios, mut pieces) = (Vec::new(), Vec::new());
        for seg in layout::raid5_map(n, chunk, o.lba, o.sectors) {
            let read = |m: usize| {
                let lba = seg.member_lba(chunk);
                (m, IoRequest::read(lba, seg.sectors).tagged(o.stream))
            };
            let source = if v.members[seg.member].failed {
                let slots = (ios.len()..ios.len() + n - 1).collect();
                ios.extend((0..n).filter(|&m| m != seg.member).map(read));
                ReadSource::Recon(slots)
            } else {
                ios.push(read(seg.member));
                ReadSource::Direct(ios.len() - 1)
            };
            pieces.push(ReadPiece {
                logical_off: seg.logical_off,
                sectors: seg.sectors,
                source,
            });
        }
        if pieces
            .iter()
            .any(|p| matches!(p.source, ReadSource::Recon(_)))
        {
            v.stats.degraded_reads += 1;
        }
        (ios, pieces)
    };
    gather_finish(vol, sim, op, ios, pieces);
}

/// How a RAID-5 span is written. Every span is a reconstruct-write:
/// parity from whole rows over `[lo, hi)`. The data chunks in
/// `chunk_slots` are read, the new data is overlaid, and the rows XOR
/// into fresh parity. A full stripe, or a span whose parity is not
/// written, reads nothing.
struct SpanPlan {
    stripe: u64,
    /// The member the new parity goes to; `None` when it had failed at
    /// planning, and only the data segments are written.
    parity_member: Option<usize>,
    lo: u64,
    hi: u64,
    segs: Vec<layout::R5Seg>,
    /// `(data chunk, read slot)` for each old row read.
    chunk_slots: Vec<(usize, usize)>,
    /// `(failed chunk, parity slot)` when a chunk the write does not
    /// wholly cover is on a failed member: every survivor and the old
    /// parity are read, and the failed chunk's old row is their XOR.
    rebuild: Option<(usize, usize)>,
}

/// Phase 1 of a RAID-5 write: the one parity rule, and the old blocks
/// it needs read first.
///
/// A full stripe, or a span whose parity member has failed, reads
/// nothing. Otherwise the span reads every data chunk the write does not
/// wholly cover over `[lo, hi)`; if one of those is on a failed member,
/// it reads every surviving data chunk and the old parity instead, and
/// rebuilds the failed chunk's old row from them. Parity is then computed
/// from the data alone, so every write-back — and every replay of a live
/// Trail record over a stripe a cut tore — leaves its rows consistent.
fn raid5_plan_spans(v: &mut VolInner, o: &Op, chunk: u32) -> (MemberIos, Vec<SpanPlan>) {
    let n = v.members.len();
    let c64 = u64::from(chunk);
    let mut reads: MemberIos = Vec::new();
    let mut plans: Vec<SpanPlan> = Vec::new();
    for span in layout::raid5_write_stripes(n, chunk, o.lba, o.sectors) {
        let range_sectors = (span.hi - span.lo) as u32;
        let range_lba = span.stripe * c64 + span.lo;
        let mut read = |member: usize| {
            let req = IoRequest::read(range_lba, range_sectors).tagged(o.stream);
            reads.push((member, req));
            reads.len() - 1
        };
        let failed = |m: usize| v.members[m].failed;
        let data_member = |ch: usize| layout::raid5_data_member(n, span.stripe, ch);
        let parity_written = !failed(span.parity_member);
        let (mut chunk_slots, mut rebuild) = (Vec::new(), None);
        if !parity_written {
            v.stats.parityless_writes += 1;
        } else if span.full {
            v.stats.full_stripe_writes += 1;
        } else {
            v.stats.reconstruct_writes += 1;
            let uncovered: Vec<usize> = (0..n - 1)
                .filter(|&ch| {
                    !span.segs.iter().any(|s| {
                        s.chunk == ch && s.off <= span.lo && s.off + u64::from(s.sectors) >= span.hi
                    })
                })
                .collect();
            let lost = uncovered
                .iter()
                .copied()
                .find(|&ch| failed(data_member(ch)));
            let to_read = match lost {
                Some(fc) => (0..n - 1).filter(|&ch| ch != fc).collect(),
                None => uncovered,
            };
            chunk_slots = (to_read.into_iter())
                .map(|ch| (ch, read(data_member(ch))))
                .collect();
            rebuild = lost.map(|fc| (fc, read(span.parity_member)));
        }
        plans.push(SpanPlan {
            stripe: span.stripe,
            parity_member: parity_written.then_some(span.parity_member),
            lo: span.lo,
            hi: span.hi,
            segs: span.segs,
            chunk_slots,
            rebuild,
        });
    }
    (reads, plans)
}

fn plan_raid5_write(vol: &RaidVolume, sim: &mut Simulator, op: &OpRef, chunk: u32) {
    let (reads, plans) = raid5_plan_spans(&mut vol.inner.borrow_mut(), &op.borrow(), chunk);
    if reads.is_empty() {
        return raid5_phase2(vol, sim, op, &plans, &[], chunk);
    }
    gather(vol, sim, op, reads, move |vol, sim, op, results| {
        raid5_phase2(vol, sim, op, &plans, &results, chunk);
    });
}

/// Phase 2 of a RAID-5 write: the member writes, given phase 1's plans
/// and the old blocks it read. Data segments go out as views of the
/// logical write's buffer; only parity is computed into new memory, from
/// one copy of each data chunk's row.
fn raid5_phase2_writes(
    v: &VolInner,
    o: &mut Op,
    plans: &[SpanPlan],
    results: &[IoDone],
    chunk: u32,
) -> MemberIos {
    let Payload::Write(payload) = &mut o.payload else {
        unreachable!("raid5 phase 2 requires a write payload")
    };
    let n = v.members.len();
    let c64 = u64::from(chunk);
    let mut writes: MemberIos = Vec::new();
    for plan in plans {
        let range_bytes = (plan.hi - plan.lo) as usize * SECTOR_SIZE;
        // Every data chunk's row over [lo, hi): the ones read come from
        // the member, a failed one is parity XOR the survivors, and the
        // rest are wholly overwritten below.
        let mut rows: Vec<Vec<u8>> = vec![vec![0u8; range_bytes]; n - 1];
        for &(ch, slot) in &plan.chunk_slots {
            rows[ch] = read_view(results, slot).to_vec();
        }
        if let Some((failed_chunk, parity_slot)) = plan.rebuild {
            let mut failed_old = read_view(results, parity_slot).to_vec();
            for &(ch, _) in &plan.chunk_slots {
                layout::xor_into(&mut failed_old, &rows[ch]);
            }
            rows[failed_chunk] = failed_old;
        }
        for seg in &plan.segs {
            let new = slice_payload(payload, seg.logical_off, seg.sectors);
            let base = (seg.off - plan.lo) as usize * SECTOR_SIZE;
            new.copy_to(&mut rows[seg.chunk][base..base + new.len()]);
            // A failed member's new segment lives on in the parity
            // alone, when the parity is written.
            if plan.parity_member.is_none() || !v.members[seg.member].failed {
                writes.push((
                    seg.member,
                    IoRequest::write(seg.member_lba(chunk), new).tagged(o.stream),
                ));
            }
        }
        let mut parity = vec![0u8; range_bytes];
        for row in &rows {
            layout::xor_into(&mut parity, row);
        }
        if let Some(member) = plan.parity_member {
            let range_lba = plan.stripe * c64 + plan.lo;
            writes.push((member, IoRequest::write(range_lba, parity).tagged(o.stream)));
        }
    }
    writes
}

fn raid5_phase2(
    vol: &RaidVolume,
    sim: &mut Simulator,
    op: &OpRef,
    plans: &[SpanPlan],
    results: &[IoDone],
    chunk: u32,
) {
    let writes = raid5_phase2_writes(
        &vol.inner.borrow(),
        &mut op.borrow_mut(),
        plans,
        results,
        chunk,
    );
    gather_finish(vol, sim, op, writes, Vec::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;
    use trail_sim::SimDuration;

    fn volume(layout: VolumeLayout, n: usize) -> RaidVolume {
        let members: Vec<StandardDriver> = (0..n)
            .map(|i| StandardDriver::new(Disk::new(format!("m{i}"), profiles::tiny_test_disk())))
            .collect();
        RaidVolume::new("vol", layout, members)
    }

    fn pattern(sectors: usize, seed: u8) -> Vec<u8> {
        (0..sectors * SECTOR_SIZE)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    fn write_ok(sim: &mut Simulator, vol: &RaidVolume, lba: Lba, data: Vec<u8>) {
        sim.block_on(|sim, done| vol.submit(sim, IoRequest::write(lba, data), done))
            .expect("write accepted")
            .expect("write completes");
        sim.run();
    }

    fn read_back(sim: &mut Simulator, vol: &RaidVolume, lba: Lba, count: u32) -> Vec<u8> {
        let done = sim
            .block_on(|sim, done| vol.submit(sim, IoRequest::read(lba, count), done))
            .expect("read accepted")
            .expect("read completes");
        sim.run();
        done.data.expect("read returns data").to_vec()
    }

    #[test]
    fn raid0_round_trips_across_chunks() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid0 { chunk_sectors: 4 }, 3);
        let data = pattern(10, 3);
        write_ok(&mut sim, &vol, 2, data.clone());
        assert_eq!(read_back(&mut sim, &vol, 2, 10), data);
        // The 10-sector write at lba 2 spans chunks on all three members.
        let touched =
            vol.with_stats(|s| s.members.iter().filter(|m| m.sectors_written > 0).count());
        assert_eq!(touched, 3);
    }

    #[test]
    fn linear_round_trips_across_member_boundary() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Linear, 2);
        let per_member = vol.capacity_sectors() / 2;
        let data = pattern(6, 9);
        write_ok(&mut sim, &vol, per_member - 3, data.clone());
        assert_eq!(read_back(&mut sim, &vol, per_member - 3, 6), data);
        let touched =
            vol.with_stats(|s| s.members.iter().filter(|m| m.sectors_written > 0).count());
        assert_eq!(touched, 2);
    }

    #[test]
    fn raid1_reads_hit_both_mirrors_round_robin() {
        let mut sim = Simulator::new();
        let vol = volume(
            VolumeLayout::Raid1 {
                read_policy: ReadPolicy::RoundRobin,
            },
            2,
        );
        let data = pattern(2, 5);
        write_ok(&mut sim, &vol, 7, data.clone());
        assert_eq!(read_back(&mut sim, &vol, 7, 2), data);
        assert_eq!(read_back(&mut sim, &vol, 7, 2), data);
        let reads: Vec<u64> =
            vol.with_stats(|s| s.members.iter().map(|m| m.read_latency.count()).collect());
        assert_eq!(reads, vec![1, 1], "round-robin alternates mirrors");
        let writes: Vec<u64> =
            vol.with_stats(|s| s.members.iter().map(|m| m.sectors_written).collect());
        assert_eq!(writes, vec![2, 2], "both mirrors receive every write");
    }

    /// The spans each kind of reconstruct-write has counted so far:
    /// `[reconstruct_writes, full_stripe_writes, parityless_writes]`.
    fn span_counts(vol: &RaidVolume) -> [u64; 3] {
        vol.with_stats(|s| {
            [
                s.reconstruct_writes,
                s.full_stripe_writes,
                s.parityless_writes,
            ]
        })
    }

    /// The reads a healthy `members`-wide array owes a write of `sectors`
    /// at `lba`, from the logical address space alone: for each partial
    /// stripe, every data chunk whose row over the span's `[lo, hi)` the
    /// write does not wholly cover, as `(member, lba, sectors)`.
    fn uncovered_reads(
        members: usize,
        chunk: u32,
        lba: Lba,
        sectors: u32,
    ) -> Vec<(usize, Lba, u32)> {
        let (c64, end) = (u64::from(chunk), lba + u64::from(sectors));
        let mut reads = Vec::new();
        for span in layout::raid5_write_stripes(members, chunk, lba, sectors) {
            if span.full {
                continue;
            }
            let row0 = span.stripe * c64 * (members as u64 - 1);
            for ch in 0..members - 1 {
                let first = row0 + ch as u64 * c64 + span.lo;
                if !(lba <= first && first + (span.hi - span.lo) <= end) {
                    let member = layout::raid5_data_member(members, span.stripe, ch);
                    reads.push((
                        member,
                        span.stripe * c64 + span.lo,
                        (span.hi - span.lo) as u32,
                    ));
                }
            }
        }
        reads
    }

    /// Total member reads and writes so far.
    fn member_ios(vol: &RaidVolume) -> (u64, u64) {
        vol.with_stats(|s| {
            s.members.iter().fold((0, 0), |(r, w), m| {
                (r + m.read_latency.count(), w + m.write_latency.count())
            })
        })
    }

    /// Whether stripe row `stripe` XORs to zero across the members.
    fn row_is_consistent(disks: &[Disk], stripe: u64, chunk: u32) -> bool {
        let c64 = u64::from(chunk);
        (stripe * c64..(stripe + 1) * c64).all(|lba| {
            let mut acc = [0u8; SECTOR_SIZE];
            for d in disks {
                layout::xor_into(&mut acc, &d.peek_sector(lba));
            }
            acc.iter().all(|b| *b == 0)
        })
    }

    #[test]
    fn raid5_partial_stripes_are_reconstruct_writes_of_their_uncovered_chunks() {
        let raid5 = VolumeLayout::Raid5 { chunk_sectors: 4 };
        let mut sim = Simulator::new();

        // 3 members, 8-sector rows. One chunk reads the other chunk:
        // 1 read + 2 writes.
        let vol = volume(raid5, 3);
        write_ok(&mut sim, &vol, 1, pattern(1, 1));
        assert_eq!(span_counts(&vol), [1, 0, 0]);
        assert_eq!(member_ios(&vol), (1, 2), "3 member I/Os");
        // Two chunks (lba 10..14 straddles them), then a whole row, which
        // reads nothing.
        write_ok(&mut sim, &vol, 10, pattern(4, 2));
        write_ok(&mut sim, &vol, 16, pattern(8, 3));
        assert_eq!(span_counts(&vol), [2, 1, 0]);
        assert_eq!(member_ios(&vol).0, 3);

        // 3 to 6 members: whatever a write covers, each partial stripe is
        // a reconstruct-write that reads exactly the chunks it does not
        // wholly cover (a one-chunk write on n members reads n - 2).
        for members in 3..=6 {
            let vol = volume(raid5, members);
            let row = 4 * (members as u64 - 1);
            let mut rng = trail_sim::rng(members as u64);
            for _ in 0..200 {
                use rand::Rng;
                let sectors = rng.gen_range(1..=3 * row);
                let lba = rng.gen_range(0..=4 * row - sectors);
                let op = write_op(lba, pattern(sectors as usize, 0));
                let before = span_counts(&vol);
                let (reads, _) = raid5_plan_spans(&mut vol.inner.borrow_mut(), &op, 4);
                let got: Vec<_> = (reads.iter())
                    .map(|(m, r)| (*m, r.lba, r.kind.sectors()))
                    .collect();
                assert_eq!(got, uncovered_reads(members, 4, lba, sectors as u32));
                let spans = layout::raid5_write_stripes(members, 4, lba, sectors as u32);
                let partial = spans.iter().filter(|s| !s.full).count() as u64;
                let after = span_counts(&vol);
                assert_eq!(
                    after[0] - before[0],
                    partial,
                    "{members} members @{lba}+{sectors}"
                );
                assert_eq!(after[1] - before[1], spans.len() as u64 - partial);
            }
            let before = member_ios(&vol).0;
            write_ok(&mut sim, &vol, 1, pattern(1, 5));
            assert_eq!(member_ios(&vol).0 - before, members as u64 - 2);
            assert_eq!(read_back(&mut sim, &vol, 1, 1), pattern(1, 5));
        }
    }

    #[test]
    fn raid5_reconstruct_write_never_reads_a_failed_member() {
        // 3 members: stripe 0 holds chunk 0 on member 0, chunk 1 on
        // member 1, parity on member 2.
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        write_ok(&mut sim, &vol, 0, pattern(8, 5));
        vol.fail_member(sim.now(), 1);
        // A write to chunk 0 alone would read chunk 1; its member is
        // failed, so the write reads chunk 0 and the parity and rebuilds
        // chunk 1's old row from them.
        let (reads, plans) =
            raid5_plan_spans(&mut vol.inner.borrow_mut(), &write_op(1, pattern(1, 6)), 4);
        assert!(matches!(plans[0].rebuild, Some((1, _))));
        assert_eq!(reads.iter().map(|(m, _)| *m).collect::<Vec<_>>(), [0, 2]);

        let before = span_counts(&vol);
        write_ok(&mut sim, &vol, 1, pattern(1, 6));
        assert_eq!(span_counts(&vol)[0], before[0] + 1);
        assert_eq!(
            vol.with_stats(|s| s.retried_ops),
            0,
            "no sub-I/O went to the failed member"
        );
        let mut whole = pattern(8, 5);
        whole[SECTOR_SIZE..2 * SECTOR_SIZE].copy_from_slice(&pattern(1, 6));
        assert_eq!(read_back(&mut sim, &vol, 0, 8), whole);
    }

    #[test]
    fn raid5_write_wholly_covering_a_failed_chunk_reads_only_the_rest() {
        // 3 members, member 1 (chunk 1 of stripe 0) failed. A write of
        // all of chunk 1 needs no old row of it: it reads chunk 0 alone,
        // and the new chunk 1 lives on in the parity.
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        write_ok(&mut sim, &vol, 0, pattern(8, 2));
        vol.fail_member(sim.now(), 1);
        let (reads, plans) =
            raid5_plan_spans(&mut vol.inner.borrow_mut(), &write_op(4, pattern(4, 7)), 4);
        assert!(plans[0].rebuild.is_none());
        assert_eq!(reads.iter().map(|(m, _)| *m).collect::<Vec<_>>(), [0]);

        let before = member_ios(&vol);
        write_ok(&mut sim, &vol, 4, pattern(4, 7));
        let after = member_ios(&vol);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (1, 1),
            "1 read, parity written"
        );
        let mut whole = pattern(8, 2);
        whole[4 * SECTOR_SIZE..].copy_from_slice(&pattern(4, 7));
        assert_eq!(read_back(&mut sim, &vol, 0, 8), whole);
    }

    #[test]
    fn raid5_reconstruct_write_heals_torn_parity() {
        for members in 3..=6 {
            let mut sim = Simulator::new();
            let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, members);
            let disks = vol.member_disks();
            write_ok(&mut sim, &vol, 0, pattern(4 * (members - 1), 1));
            assert!(row_is_consistent(&disks, 0, 4));
            // A cut between the data and parity writes of lba 0..2: the
            // new data reached member 0, its parity never did.
            let new = vec![0xEE; 2 * SECTOR_SIZE];
            for lba in 0..2 {
                disks[0].poke_sector(lba, &[0xEE; SECTOR_SIZE]);
            }
            assert!(!row_is_consistent(&disks, 0, 4));
            // Replaying the write (as recovery does) recomputes parity
            // from the rows; folding the delta of old and new data into
            // the old parity would see a zero delta and leave it stale.
            write_ok(&mut sim, &vol, 0, new.clone());
            assert_eq!(span_counts(&vol), [1, 1, 0]);
            assert!(row_is_consistent(&disks, 0, 4), "{members} members");
            assert_eq!(read_back(&mut sim, &vol, 0, 2), new);
        }
    }

    #[test]
    fn raid5_degraded_read_reconstructs_bytes() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        let data = pattern(12, 7);
        write_ok(&mut sim, &vol, 0, data.clone());
        vol.fail_member(sim.now(), 0);
        assert_eq!(read_back(&mut sim, &vol, 0, 12), data);
        assert!(vol.with_stats(|s| s.degraded_reads) >= 1);
        assert_eq!(vol.failed_members(), vec![0]);
    }

    #[test]
    fn raid5_degraded_write_then_full_recovery_read() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        write_ok(&mut sim, &vol, 0, pattern(16, 1));
        vol.fail_member(sim.now(), 1);
        // Overwrite a partial range while degraded; the failed member's
        // new data lives only in parity.
        let newer = pattern(6, 8);
        write_ok(&mut sim, &vol, 2, newer.clone());
        assert_eq!(read_back(&mut sim, &vol, 2, 6), newer);
        let mut whole = pattern(16, 1);
        whole[2 * SECTOR_SIZE..8 * SECTOR_SIZE].copy_from_slice(&newer);
        assert_eq!(read_back(&mut sim, &vol, 0, 16), whole);
    }

    #[test]
    fn raid1_write_survives_mid_flight_member_failure() {
        let mut sim = Simulator::new();
        let vol = volume(
            VolumeLayout::Raid1 {
                read_policy: ReadPolicy::RoundRobin,
            },
            2,
        );
        let clock = trail_sim::FaultClock::new();
        clock.register(vol.fault_sink(0));
        clock.arm(
            &mut sim,
            &trail_sim::FaultPlan::member_fail(0, 0, SimDuration::from_nanos(50)),
        );
        let data = pattern(4, 4);
        write_ok(&mut sim, &vol, 3, data.clone());
        assert_eq!(vol.failed_members(), vec![0]);
        // The survivor holds the bytes.
        assert_eq!(read_back(&mut sim, &vol, 3, 4), data);
        assert_eq!(vol.with_stats(|s| s.member_failures), 1);
    }

    #[test]
    fn a_resent_torn_write_keeps_its_rounds_other_failures() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        let disks = vol.member_disks();
        // One full-stripe write, three member writes: member 0's fails
        // transiently and goes out again; member 1 is dark.
        disks[0].inject_transient_errors(1);
        disks[1].power_cut(sim.now());
        let write = IoRequest::write(0, pattern(8, 2));
        let d = sim.block_on(|sim, done| vol.submit(sim, write, done));
        assert_eq!(d.expect("write accepted").err(), Some(IoError::PoweredOff));
        assert_eq!(vol.with_stats(|s| s.retried_ops), 1);
    }

    #[test]
    fn too_many_failures_reject_submission() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        vol.fail_member(sim.now(), 0);
        vol.fail_member(sim.now(), 2);
        let got = sim.block_on(|sim, done| vol.submit(sim, IoRequest::read(0, 1), done));
        assert_eq!(got.unwrap().unwrap_err(), IoError::MediaFailed);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid0 { chunk_sectors: 4 }, 2);
        let cap = vol.capacity_sectors();
        let done = sim.completion(|_, d: Delivered<IoDone>| assert!(d.is_err()));
        assert_eq!(
            vol.submit(&mut sim, IoRequest::read(cap - 1, 2), done),
            Err(DiskError::OutOfRange)
        );
        let done = sim.completion(|_, d: Delivered<IoDone>| assert!(d.is_err()));
        assert_eq!(
            vol.submit(&mut sim, IoRequest::read(0, 0), done),
            Err(DiskError::OutOfRange)
        );
        let done = sim.completion(|_, d: Delivered<IoDone>| assert!(d.is_err()));
        assert_eq!(
            vol.submit(&mut sim, IoRequest::write(0, vec![1; 100]), done),
            Err(DiskError::BadDataLength)
        );
        sim.run();
        assert_eq!(vol.with_stats(|s| s.logical_reads + s.logical_writes), 0);
    }

    /// A write operation as `submit` would build it, for driving the
    /// planning functions directly.
    fn write_op(lba: Lba, data: Vec<u8>) -> Op {
        Op {
            id: RequestId(0),
            lba,
            sectors: (data.len() / SECTOR_SIZE) as u32,
            payload: Payload::Write(data.into()),
            stream: StreamId::UNTAGGED,
            issued: SimTime::ZERO,
            attempt: 0,
            keys: Vec::new(),
            keys_held: false,
            done: None,
        }
    }

    fn write_data(req: &IoRequest) -> &PayloadBuf {
        match &req.kind {
            IoKind::Write { data } => data,
            IoKind::Read { .. } => panic!("expected a write sub-request"),
        }
    }

    #[test]
    fn mirror_sub_writes_share_the_logical_writes_buffer() {
        let vol = volume(
            VolumeLayout::Raid1 {
                read_policy: ReadPolicy::RoundRobin,
            },
            3,
        );
        let data = pattern(6, 17);
        let submitted = data.clone();
        let at = submitted.as_ptr();
        let mut op = write_op(9, submitted);
        let ios = mirror_write_ios(&vol.inner.borrow(), &mut op);
        assert_eq!(ios.iter().map(|(m, _)| *m).collect::<Vec<_>>(), [0, 1, 2]);
        let Payload::Write(parent) = &op.payload else {
            unreachable!()
        };
        for (_, req) in &ios {
            assert_eq!(req.lba, 9);
            assert!(write_data(req).ptr_eq(parent), "a handle, not a copy");
            let bytes = write_data(req).as_bytes().expect("byte-backed");
            assert_eq!(bytes.as_ptr(), at, "of the submitter's own Vec");
            assert_eq!(bytes, &data[..]);
        }
        // A failed mirror gets no sub-write; the others still share.
        vol.fail_member(SimTime::ZERO, 1);
        let ios = mirror_write_ios(&vol.inner.borrow(), &mut op);
        assert_eq!(ios.iter().map(|(m, _)| *m).collect::<Vec<_>>(), [0, 2]);
        assert!(write_data(&ios[0].1).ptr_eq(write_data(&ios[1].1)));
    }

    /// Runs `extents` random writes through the RAID-5 planning functions
    /// against the members' real contents, with member `failed` (if any)
    /// failed after the first write. Each span is known by the counter it
    /// moves: a full stripe and a span whose parity member has failed read
    /// nothing, and no I/O goes to the failed member. Every data sub-write
    /// must be a view of the logical write's buffer reading exactly the
    /// parent's bytes for its segment (a failed member's segment gets
    /// none), every other sub-write a parity block, one per span whose
    /// parity member is alive. Once the sub-writes are applied, every
    /// extent reads back through the volume, and on a healthy array every
    /// touched row XORs to zero across the members. Returns the spans each
    /// kind counted, as [`span_counts`].
    fn check_raid5_sub_writes(
        members: usize,
        chunk: u32,
        extents: usize,
        seed: u64,
        failed: Option<usize>,
    ) -> [u64; 3] {
        use rand::Rng;
        let mut sim = Simulator::new();
        let vol = volume(
            VolumeLayout::Raid5 {
                chunk_sectors: chunk,
            },
            members,
        );
        let disks = vol.member_disks();
        let c64 = u64::from(chunk);
        let span = 6 * c64 * (members as u64 - 1);
        // Non-zero old contents with consistent parity under them.
        write_ok(&mut sim, &vol, 0, pattern(span as usize, 91));
        if let Some(m) = failed {
            vol.fail_member(sim.now(), m);
        }
        let start = span_counts(&vol);
        let is_failed = |member: usize| Some(member) == failed;
        // Spans that wrote the failed member's data.
        let mut over_failed_data = 0;
        let peek = |member: usize, lba: Lba, sectors: u32| -> Vec<u8> {
            (0..u64::from(sectors))
                .flat_map(|i| disks[member].peek_sector(lba + i))
                .collect()
        };
        let mut rng = trail_sim::rng(seed);
        for n in 0..extents {
            let sectors = rng.gen_range(1..=3 * c64 * (members as u64 - 1));
            let lba = rng.gen_range(0..=span - sectors);
            let data = pattern(sectors as usize, rng.gen());
            let mut op = write_op(lba, data.clone());
            if n % 2 == 1 {
                // As Trail hands a write-back down: interned in a pool.
                let Payload::Write(payload) = &mut op.payload else {
                    unreachable!()
                };
                payload.intern(&disks[0].pool());
            }
            let before = span_counts(&vol);
            let (reads, plans) = raid5_plan_spans(&mut vol.inner.borrow_mut(), &op, chunk);
            let after = span_counts(&vol);
            let moved: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            let spans = layout::raid5_write_stripes(members, chunk, lba, sectors as u32);
            assert_eq!(
                moved.iter().sum::<u64>(),
                spans.len() as u64,
                "one rule a span"
            );
            let parityless = spans.iter().filter(|s| is_failed(s.parity_member));
            assert_eq!(moved[2], parityless.count() as u64);
            let full = spans
                .iter()
                .filter(|s| s.full && !is_failed(s.parity_member));
            assert_eq!(moved[1], full.count() as u64);
            if failed.is_none() {
                let got: Vec<_> = (reads.iter())
                    .map(|(m, r)| (*m, r.lba, r.kind.sectors()))
                    .collect();
                assert_eq!(got, uncovered_reads(members, chunk, lba, sectors as u32));
            }
            for s in spans
                .iter()
                .filter(|s| s.full || is_failed(s.parity_member))
            {
                let row = s.stripe * c64..(s.stripe + 1) * c64;
                assert!(
                    reads.iter().all(|(_, r)| !row.contains(&r.lba)),
                    "stripe {} is written without reads",
                    s.stripe
                );
            }
            over_failed_data += spans
                .iter()
                .filter(|s| s.segs.iter().any(|g| is_failed(g.member)))
                .count();
            assert!(
                reads.iter().all(|(m, _)| !is_failed(*m)),
                "read of a failed member"
            );
            let results: Vec<IoDone> = reads
                .iter()
                .map(|(member, req)| IoDone {
                    id: RequestId(0),
                    lba: req.lba,
                    kind: CommandKind::Read,
                    data: Some(peek(*member, req.lba, req.kind.sectors()).into()),
                    issued: SimTime::ZERO,
                    completed: SimTime::ZERO,
                    breakdown: ServiceBreakdown::default(),
                })
                .collect();
            let writes = raid5_phase2_writes(&vol.inner.borrow(), &mut op, &plans, &results, chunk);
            assert!(
                writes.iter().all(|(m, _)| !is_failed(*m)),
                "write to a failed member"
            );
            let Payload::Write(parent) = &op.payload else {
                unreachable!()
            };

            let segs = layout::raid5_map(members, chunk, lba, sectors as u32);
            let mut views = 0;
            for seg in segs.iter().filter(|s| !is_failed(s.member)) {
                let (_, req) = writes
                    .iter()
                    .find(|(m, r)| *m == seg.member && r.lba == seg.member_lba(chunk))
                    .expect("every live segment has its sub-write");
                let a = seg.logical_off as usize * SECTOR_SIZE;
                let b = a + seg.sectors as usize * SECTOR_SIZE;
                assert_eq!(write_data(req).to_vec(), &data[a..b], "segment {seg:?}");
                assert!(write_data(req).ptr_eq(parent), "a view, not a copy");
                views += 1;
            }
            let parity_writes: Vec<_> = writes
                .iter()
                .filter(|(_, r)| !write_data(r).ptr_eq(parent))
                .collect();
            assert_eq!(views + parity_writes.len(), writes.len());
            assert_eq!(
                parity_writes.len() as u64,
                spans.len() as u64 - moved[2],
                "one parity block per span whose parity member is alive"
            );

            for (member, req) in &writes {
                for (i, sector) in write_data(req)
                    .to_vec()
                    .chunks_exact(SECTOR_SIZE)
                    .enumerate()
                {
                    let buf: &[u8; SECTOR_SIZE] = sector.try_into().expect("one sector");
                    disks[*member].poke_sector(req.lba + i as u64, buf);
                }
            }
            if failed.is_none() {
                for s in &spans {
                    assert!(
                        row_is_consistent(&disks, s.stripe, chunk),
                        "stripe {} parity",
                        s.stripe
                    );
                }
            }
            assert_eq!(read_back(&mut sim, &vol, lba, sectors as u32), data);
        }
        let end = span_counts(&vol);
        if failed.is_some() {
            assert!(end[2] > start[2], "some span's parity member had failed");
            assert!(
                over_failed_data > 0,
                "some span wrote the failed member's data"
            );
        }
        std::array::from_fn(|i| end[i] - start[i])
    }

    #[test]
    fn raid5_sub_writes_are_views_of_the_parent_with_its_bytes() {
        for (members, chunk, extents, seed) in [(4, 4, 120, 7), (3, 8, 60, 11), (5, 4, 120, 13)] {
            let [rcw, full, _] = check_raid5_sub_writes(members, chunk, extents, seed, None);
            assert!(full > 0 && rcw > 0, "{members} members: {full} {rcw}");
        }
    }

    #[test]
    fn raid5_degraded_sub_writes_keep_every_extent_readable() {
        // Parity rotates, so one failed member is the parity member of
        // some spans (written without parity) and a data member of others
        // (rebuilt by reconstruct-write); the check asserts both occur.
        for members in 3..=6 {
            for failed in [0, members - 1] {
                let seed = 100 * members as u64 + failed as u64;
                let [rcw, full, parityless] =
                    check_raid5_sub_writes(members, 4, 40, seed, Some(failed));
                assert!(
                    full > 0 && rcw > 0 && parityless > 0,
                    "{members} members, {failed} failed: {full} {rcw} {parityless}"
                );
            }
        }
    }

    /// Submits `req` and returns a slot its outcome lands in.
    fn submit_watched(
        sim: &mut Simulator,
        vol: &RaidVolume,
        req: IoRequest,
    ) -> Rc<RefCell<Option<Result<(), IoError>>>> {
        let slot = Rc::new(RefCell::new(None));
        let into = Rc::clone(&slot);
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            *into.borrow_mut() = Some(d.map(|_| ()));
        });
        vol.submit(sim, req, done).expect("request accepted");
        slot
    }

    #[test]
    fn a_parity_member_failing_after_the_reads_replans_the_write_once() {
        // 3 members, stripe 0: chunk 0 on member 0, chunk 1 on member 1,
        // parity on member 2. A one-sector write to chunk 0 is a
        // reconstruct-write that reads chunk 1 first.
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        write_ok(&mut sim, &vol, 0, pattern(8, 3));
        let data = pattern(1, 9);
        let got = submit_watched(&mut sim, &vol, IoRequest::write(1, data.clone()));
        sim.run_for(SimDuration::from_micros(10));
        assert_eq!(span_counts(&vol), [1, 1, 0], "planned reconstruct-write");
        assert_eq!(
            vol.with_stats(|s| s.members[1].read_latency.count()),
            0,
            "its read of chunk 1 is in flight"
        );
        // The plan writes parity to member 2; the write to the failed
        // member fails and the write replans without parity.
        vol.fail_member(sim.now(), 2);
        sim.run();
        assert_eq!(*got.borrow(), Some(Ok(())));
        assert_eq!(vol.with_stats(|s| s.retried_ops), 1);
        assert_eq!(span_counts(&vol), [1, 1, 1]);
        let mut whole = pattern(8, 3);
        whole[SECTOR_SIZE..2 * SECTOR_SIZE].copy_from_slice(&data);
        assert_eq!(read_back(&mut sim, &vol, 0, 8), whole);
    }

    #[test]
    fn a_write_queued_behind_the_stripe_gate_is_planned_against_the_members_left() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        vol.fail_member(sim.now(), 0);
        // Both writes touch stripe 0: the second waits for the first's
        // key. One failed member leaves both serviceable at submission.
        let first = submit_watched(&mut sim, &vol, IoRequest::write(1, pattern(1, 1)));
        let second = submit_watched(&mut sim, &vol, IoRequest::write(2, pattern(1, 2)));
        sim.run_for(SimDuration::from_micros(10));
        assert_eq!(vol.with_stats(|s| s.logical_writes), 2);
        assert_eq!(
            span_counts(&vol).iter().sum::<u64>(),
            1,
            "only the first is planned"
        );
        vol.fail_member(sim.now(), 2);
        sim.run();
        assert_eq!(*first.borrow(), Some(Err(IoError::MediaFailed)));
        assert_eq!(*second.borrow(), Some(Err(IoError::MediaFailed)));
        assert_eq!(
            span_counts(&vol).iter().sum::<u64>(),
            1,
            "the second is never planned"
        );
        assert_eq!(vol.pending(), 0);
    }

    #[test]
    fn concurrent_small_writes_on_one_stripe_serialize_through_the_gate() {
        let mut sim = Simulator::new();
        let vol = volume(VolumeLayout::Raid5 { chunk_sectors: 4 }, 3);
        // Two overlapping small writes to the same stripe, submitted
        // back-to-back: the gate must order their parity cycles, so the
        // final parity reflects both (verified via a degraded read).
        let a = pattern(2, 11);
        let b = pattern(2, 22);
        let d1 = sim.completion(|_, d: Delivered<IoDone>| {
            d.expect("first write completes");
        });
        let d2 = sim.completion(|_, d: Delivered<IoDone>| {
            d.expect("second write completes");
        });
        vol.submit(&mut sim, IoRequest::write(0, a), d1).unwrap();
        vol.submit(&mut sim, IoRequest::write(1, b.clone()), d2)
            .unwrap();
        sim.run();
        // lba 1 was written last by op 2; lba 0 only by op 1.
        vol.fail_member(sim.now(), 0);
        let got = read_back(&mut sim, &vol, 1, 1);
        assert_eq!(got, b[..SECTOR_SIZE].to_vec());
    }
}
