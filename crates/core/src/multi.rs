//! Multiple log disks (paper §5.1's "final optimization" and §6):
//! "it is possible to employ multiple log disks to completely hide the
//! disk re-positioning overhead from user applications."
//!
//! [`MultiTrail`] runs one Trail instance per log disk over shared data
//! disks (each keeps one queueing driver). Every sector has one owning
//! log, the one [`owning_log`] hashes its data region `(dev, lba /
//! REGION_SECTORS)` to, so every version of a sector is pinned, read,
//! written back and recovered by one log, in that log's ack order. An
//! extent that crosses into another log's region splits into one
//! [`PayloadBuf::sectors`] view per owner: the write is acknowledged when
//! every part is durable (or fails with the first error a part delivers),
//! a read is stitched into one [`IoDone`], and a later request that
//! overlaps a split write is answered after it, so ack order holds across
//! the array. With k logs, roughly (k−1)/k of the repositioning penalty
//! is hidden from a clustered stream.
//!
//! The array is Trail's one front end: a single log is an array of one,
//! whose every request goes whole to its one instance with the caller's
//! own completion, so it costs no event and no allocation beyond the
//! driver's. [`TrailDriver`] is the per-log engine inside it.

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::{IoDone, SharedBlockDevice, TapHandle};
use trail_disk::{Disk, Lba, PayloadBuf, SECTOR_SIZE};
use trail_sim::{Completion, Delivered, SimTime, Simulator};
use trail_telemetry::StreamId;

use crate::config::TrailConfig;
use crate::driver::{raw_targets, BootReport, TrailDriver};
use crate::error::TrailError;

/// Sectors in one data region, the unit a log owns. An unaligned
/// s-sector extent crosses a region boundary with probability
/// (s − 1)/`REGION_SECTORS`; a sequential stream changes log at most every
/// `REGION_SECTORS` sectors.
pub const REGION_SECTORS: u64 = 256;

/// The log, of `logs`, that owns sector `lba` of data device `dev`:
/// FNV-1a over the device and the sector's region.
#[must_use]
pub fn owning_log(logs: usize, dev: usize, lba: Lba) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let (dev, region) = (
        (dev as u64).to_le_bytes(),
        (lba / REGION_SECTORS).to_le_bytes(),
    );
    for b in dev.into_iter().chain(region) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % logs.max(1) as u64) as usize
}

/// A Trail array: one driver per log disk over shared data disks, and the
/// one place a request is reported to the workload-capture tap.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk, SECTOR_SIZE};
/// use trail_core::{format_log_disk, FormatOptions, MultiTrail, TrailConfig};
///
/// let mut sim = Simulator::new();
/// let logs: Vec<Disk> = (0..2)
///     .map(|i| Disk::new(format!("log{i}"), profiles::seagate_st41601n()))
///     .collect();
/// for log in &logs {
///     format_log_disk(&mut sim, log, FormatOptions::default())?;
/// }
/// let data = Disk::new("data0", profiles::wd_caviar_10gb());
/// let (multi, boots) =
///     MultiTrail::start(&mut sim, logs, vec![data], TrailConfig::default())?;
/// assert_eq!(boots.len(), 2);
/// let done = sim.completion(|_, _| {});
/// multi.write(&mut sim, 0, 64, vec![1u8; SECTOR_SIZE], done)?;
/// multi.run_until_quiescent(&mut sim);
/// # Ok::<(), trail_core::TrailError>(())
/// ```
#[derive(Clone)]
pub struct MultiTrail {
    drivers: Vec<TrailDriver>,
    /// The workload-capture tap, shared by every clone of the array: it
    /// sees each logical request once, however many logs it spans.
    tap: Rc<RefCell<Option<TapHandle>>>,
    /// The writes whose answer waits on more than one record, until they
    /// are answered.
    held: Rc<RefCell<Vec<Joined>>>,
}

/// One owner's share of a request: `(log, first sector, sectors)`.
type Part = (usize, Lba, u64);

/// A [`Join`], shared by its parts' completions and its waiters.
type Joined = Rc<RefCell<Join>>;

/// A request answered after more than one event: each of its parts, and
/// every earlier overlapping write that is itself held. Each log answers
/// its writes in log order; holding a request behind an earlier
/// overlapping write that spans two logs keeps that order across the
/// array. A request fails with the first error a part delivers.
struct Join {
    done: Option<Completion<IoDone>>,
    left: usize,
    /// The request's sectors `[lba, end)` of device `dev`.
    dev: usize,
    lba: Lba,
    end: Lba,
    issued: SimTime,
    /// A read's image, stitched from its parts.
    image: Option<Vec<u8>>,
    /// The answer of the part that landed last.
    last: Option<IoDone>,
    /// Later overlapping requests held until this one is answered.
    waiters: Vec<Joined>,
}

impl Join {
    /// The completion of the part whose bytes start `offset` bytes into
    /// the request.
    fn part(join: &Joined, sim: &mut Simulator, offset: usize) -> Completion<IoDone> {
        let join = Rc::clone(join);
        sim.completion(move |sim, d: Delivered<IoDone>| match d {
            Ok(mut io) => {
                let mut j = join.borrow_mut();
                if let (Some(image), Some(data)) = (j.image.as_mut(), io.data.take()) {
                    image[offset..offset + data.len()].copy_from_slice(&data);
                }
                j.last = Some(io);
                drop(j);
                Join::tick(&join, sim);
            }
            Err(e) => Join::finish(&join, sim, Err(e)),
        })
    }

    /// One part landed or one earlier write was answered: answers the
    /// request once nothing is left.
    fn tick(join: &Joined, sim: &mut Simulator) {
        let mut j = join.borrow_mut();
        j.left -= 1;
        if j.left == 0 && j.done.is_some() {
            let whole = IoDone {
                lba: j.lba,
                issued: j.issued,
                completed: sim.now(),
                data: j.image.take(),
                ..j.last.take().expect("every part answered")
            };
            drop(j);
            Join::finish(join, sim, Ok(whole));
        }
    }

    /// Answers the request unless a part failed it already, then lets the
    /// requests held behind it go on, in submission order.
    fn finish(join: &Joined, sim: &mut Simulator, answer: Delivered<IoDone>) {
        let mut j = join.borrow_mut();
        let (done, waiters) = (j.done.take(), std::mem::take(&mut j.waiters));
        drop(j);
        match (done, answer) {
            (Some(done), Ok(io)) => done.complete(sim, io),
            (Some(done), Err(e)) => done.fail(sim, e),
            (None, _) => {}
        }
        for w in &waiters {
            Join::tick(w, sim);
        }
    }
}

impl MultiTrail {
    /// Boots one Trail instance per formatted log disk over shared raw
    /// data disks: [`start_with_targets`](Self::start_with_targets) over
    /// one queueing driver per data disk.
    ///
    /// # Errors
    ///
    /// As [`start_with_targets`](Self::start_with_targets).
    pub fn start(
        sim: &mut Simulator,
        log_disks: Vec<Disk>,
        data_disks: Vec<Disk>,
        config: TrailConfig,
    ) -> Result<(MultiTrail, Vec<BootReport>), TrailError> {
        Self::start_with_targets(sim, log_disks, raw_targets(&data_disks), config)
    }

    /// Boots one Trail instance per formatted log disk, every instance over
    /// clones of the same block targets (single-disk drivers or
    /// `trail-volume` arrays), so each physical data disk keeps exactly
    /// one queueing driver.
    ///
    /// # Errors
    ///
    /// Returns [`TrailError::BadDevice`] for an empty log-disk list, and
    /// propagates each instance's boot errors (including per-log
    /// recovery).
    pub fn start_with_targets(
        sim: &mut Simulator,
        log_disks: Vec<Disk>,
        targets: Vec<SharedBlockDevice>,
        config: TrailConfig,
    ) -> Result<(MultiTrail, Vec<BootReport>), TrailError> {
        if log_disks.is_empty() {
            return Err(TrailError::BadDevice);
        }
        let mut drivers = Vec::with_capacity(log_disks.len());
        let mut boots = Vec::with_capacity(log_disks.len());
        for log in log_disks {
            let (drv, boot) = TrailDriver::start_with_targets(sim, log, targets.clone(), config)?;
            drivers.push(drv);
            boots.push(boot);
        }
        let (tap, held) = (Rc::default(), Rc::default());
        Ok((MultiTrail { drivers, tap, held }, boots))
    }

    /// Number of data devices each instance serves.
    pub fn devices(&self) -> usize {
        self.drivers[0].devices()
    }

    /// All Trail instances (for statistics).
    pub fn drivers(&self) -> &[TrailDriver] {
        &self.drivers
    }

    /// Attaches a telemetry recorder to every Trail instance (and, through
    /// them, the log disks, the shared data-disk drivers, and the data
    /// disks themselves).
    pub fn set_recorder(&self, recorder: trail_telemetry::RecorderHandle) {
        for d in &self.drivers {
            d.set_recorder(Rc::clone(&recorder));
        }
    }

    /// Installs a workload-capture tap on the array. It sees each accepted
    /// request once, in submission order, however many logs it spans.
    pub fn set_tap(&self, tap: TapHandle) {
        *self.tap.borrow_mut() = Some(tap);
    }

    /// `[lba, lba + sectors)` of `dev` cut where its owning log changes, in
    /// address order, each part with the completion to hand its owner:
    /// `done` itself for an unsplit request nothing holds (or a malformed
    /// one, which the first instance refuses), otherwise one joined into
    /// `done` behind every earlier overlapping held write. An unsplit
    /// request, every request of a one-log array among them, allocates
    /// nothing.
    fn plan(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        sectors: u64,
        is_read: bool,
        done: Completion<IoDone>,
    ) -> impl Iterator<Item = (Part, Completion<IoDone>)> {
        let owner = |lba| owning_log(self.drivers.len(), dev, lba);
        let end = lba.saturating_add(sectors);
        // The share of the log owning `at`, up to the next region it does
        // not own.
        let part = |at: Lba| -> Part {
            let log = owner(at);
            let mut next = (at / REGION_SECTORS + 1) * REGION_SECTORS;
            while next < end && owner(next) == log {
                next += REGION_SECTORS;
            }
            (log, at, next.min(end) - at)
        };
        let (whole, split) = 'plan: {
            let capacity = self.drivers[0].capacity(dev);
            if sectors == 0 || capacity.is_none_or(|c| end > c) {
                break 'plan (Some(((0, lba, sectors), done)), Vec::new());
            }
            let first = part(lba);
            let mut held = self.held.borrow_mut();
            held.retain(|j| j.borrow().done.is_some());
            let overlaps = |j: &&Joined| {
                let j = j.borrow();
                j.dev == dev && j.lba < end && lba < j.end
            };
            let before: Vec<Joined> = held.iter().filter(overlaps).cloned().collect();
            if first.2 == sectors && before.is_empty() {
                break 'plan (Some((first, done)), Vec::new());
            }
            let parts: Vec<Part> = std::iter::successors(Some(first), |&(_, at, n)| {
                (at + n < end).then(|| part(at + n))
            })
            .collect();
            let join = Rc::new(RefCell::new(Join {
                done: Some(done),
                left: parts.len() + before.len(),
                dev,
                lba,
                end,
                issued: sim.now(),
                image: is_read.then(|| vec![0; sectors as usize * SECTOR_SIZE]),
                last: None,
                waiters: Vec::new(),
            }));
            for j in before {
                j.borrow_mut().waiters.push(Rc::clone(&join));
            }
            if !is_read {
                held.push(Rc::clone(&join));
            }
            let offset = |first: Lba| (first - lba) as usize * SECTOR_SIZE;
            let split = (parts.into_iter())
                .map(|part| (part, Join::part(&join, sim, offset(part.1))))
                .collect();
            (None, split)
        };
        whole.into_iter().chain(split)
    }

    /// Reports an accepted request to the tap.
    fn tap(&self, sim: &Simulator, dev: usize, lba: Lba, sectors: u64, read: bool, s: StreamId) {
        if let Some(tap) = &*self.tap.borrow() {
            tap.on_submit(sim.now(), dev as u32, lba, sectors as u32, read, s);
        }
    }

    /// Submits a synchronous write; semantics as
    /// [`TrailDriver::write`].
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::write`].
    pub fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: impl Into<PayloadBuf>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.write_tagged(sim, dev, lba, data, StreamId::UNTAGGED, done)
    }

    /// [`write`](MultiTrail::write) with an explicit stream tag, carried
    /// to the tap; it never chooses a log.
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::write`].
    pub fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: impl Into<PayloadBuf>,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let mut data = data.into();
        // A length that is not whole sectors goes whole, and is refused.
        let sectors = match data.len() % SECTOR_SIZE {
            0 => (data.len() / SECTOR_SIZE) as u64,
            _ => 0,
        };
        for ((log, at, n), done) in self.plan(sim, dev, lba, sectors, false, done) {
            // An unsplit request hands on the caller's buffer as it came.
            let part = match n == sectors {
                true => std::mem::take(&mut data),
                false => data.sectors((at - lba) as usize, n as usize),
            };
            self.drivers[log].write(sim, dev, at, part, done)?;
        }
        self.tap(sim, dev, lba, sectors, false, stream);
        Ok(())
    }

    /// Submits a read; semantics as [`TrailDriver::read`].
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::read`].
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

    /// [`read`](MultiTrail::read) with an explicit stream tag, carried to
    /// the tap and the instances.
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::read`].
    pub fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let sectors = u64::from(count);
        for ((log, at, n), done) in self.plan(sim, dev, lba, sectors, true, done) {
            self.drivers[log].read_tagged(sim, dev, at, n as u32, stream, done)?;
        }
        self.tap(sim, dev, lba, sectors, true, stream);
        Ok(())
    }

    /// Outstanding work across all instances.
    pub fn pending_work(&self) -> usize {
        self.drivers.iter().map(TrailDriver::pending_work).sum()
    }

    /// Runs the simulation until every instance is quiescent.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains while work remains.
    pub fn run_until_quiescent(&self, sim: &mut Simulator) {
        while self.pending_work() > 0 {
            assert!(sim.step(), "event queue empty with driver work pending");
        }
    }

    /// Cleanly shuts down every instance.
    ///
    /// # Errors
    ///
    /// Propagates the first instance failure.
    pub fn shutdown(&self, sim: &mut Simulator) -> Result<(), TrailError> {
        for d in &self.drivers {
            d.shutdown(sim)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for MultiTrail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiTrail")
            .field("log_disks", &self.drivers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::formatter::{format_log_disk, FormatOptions};
    use trail_disk::profiles;

    /// A two-log array over one tiny data disk, and a region boundary of
    /// device 0 whose two sides two different logs own.
    fn boot(sim: &mut Simulator) -> (MultiTrail, Lba) {
        let logs: Vec<Disk> = (0..2)
            .map(|i| Disk::new(format!("log{i}"), profiles::tiny_test_disk()))
            .collect();
        for log in &logs {
            format_log_disk(sim, log, FormatOptions::default()).unwrap();
        }
        let data = Disk::new("data0", profiles::tiny_test_disk());
        let (multi, _) = MultiTrail::start(sim, logs, vec![data], TrailConfig::default()).unwrap();
        let boundary = (1..)
            .map(|k| k * REGION_SECTORS)
            .find(|&b| owning_log(2, 0, b - 1) != owning_log(2, 0, b))
            .unwrap();
        (multi, boundary)
    }

    #[test]
    fn each_sector_has_one_owner_and_split_requests_join() {
        let mut sim = Simulator::new();
        let (multi, boundary) = boot(&mut sim);

        // Every extent covering a sector hands that sector to its owner.
        for lo in boundary - 20..boundary + 4 {
            for n in 1..=16 {
                let done = sim.completion(|_, _| {});
                for ((log, at, count), _) in multi.plan(&mut sim, 0, lo, n, true, done) {
                    for s in at..at + count {
                        assert_eq!(log, owning_log(2, 0, s), "extent {lo}+{n}, sector {s}");
                    }
                }
            }
        }

        // A straddling write is acknowledged once both logs hold their
        // part, and a read across the boundary is stitched from both.
        let lba = boundary - 4;
        let image: Vec<u8> = (0..8 * SECTOR_SIZE)
            .map(|i| (i / SECTOR_SIZE) as u8 + 1)
            .collect();
        let (acked, read) = (Rc::new(Cell::new(false)), Rc::new(Cell::new(false)));
        let (m, expect, read2) = (multi.clone(), image.clone(), Rc::clone(&read));
        let acked2 = Rc::clone(&acked);
        let done = sim.completion(move |sim, d: Delivered<IoDone>| {
            assert_eq!(d.expect("durable").lba, lba);
            let records: Vec<u64> = m
                .drivers()
                .iter()
                .map(|d| d.with_stats(|s| s.log_records))
                .collect();
            assert_eq!(records, [1, 1], "both parts are logged before the ack");
            acked2.set(true);
            let done = sim.completion(move |_, d: Delivered<IoDone>| {
                let io = d.expect("read");
                assert_eq!((io.lba, io.data.as_deref()), (lba, Some(&expect[..])));
                read2.set(true);
            });
            m.read(sim, 0, lba, 8, done).unwrap();
        });
        multi.write(&mut sim, 0, lba, image, done).unwrap();
        multi.run_until_quiescent(&mut sim);
        assert!(acked.get() && read.get());
        let hits = multi
            .drivers()
            .iter()
            .map(|d| d.with_stats(|s| s.read_hits));
        assert_eq!(hits.sum::<u64>(), 2, "one hit per part");
    }
}
